//! Machine-readable benchmark records (`BENCH_repro.json`) and the
//! regression diff gate CI runs against `BENCH_baseline.json`.
//!
//! The schema is versioned and deliberately boring: flat records, one
//! per (dataset, histogram method), each carrying the *deterministic*
//! quantities — simulated seconds, per-phase simulated nanoseconds,
//! histogram share, model quality — plus informational host wall-clock
//! (never gated: the host is noisy, the simulator is not).
//!
//! Gate semantics (`diff_gate`):
//! * missing baseline record in the current run → fail;
//! * histogram-share relative drift beyond [`HIST_SHARE_REL_TOL`] → fail
//!   (this is the paper's Figure 4 quantity — the repo's perf north
//!   star — so both regressions *and* silent speedups must be looked at
//!   and blessed into the baseline);
//! * quality regression beyond tolerance → fail (`accuracy%` drops more
//!   than [`ACCURACY_ABS_TOL`] points, or `rmse` grows more than
//!   [`RMSE_REL_TOL`] relative) — quality improvements pass;
//! * a current record that does not learn → fail: its held-out error
//!   must be at most [`LEARNS_FLOOR`] × the base-score predictor's
//!   error on the same rows ([`learns_floor`]).

use gbdt_core::HistogramMethod;
use gpusim::{LedgerSummary, Phase};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Schema version of [`BenchReport`]. Bump rule: renaming/removing a
/// field or changing a field's meaning bumps this (and CI's committed
/// baseline must be regenerated); purely additive optional fields may
/// keep it, but the golden schema test must be updated either way.
/// v3: `phase_ns` gained the `Serve` key (serving subsystem phase).
/// v4: records gained `overlap_saved_ns` (simulated ns recovered by
/// multi-stream overlap) and the setup gained `streams` — overlap is
/// *reported* by the gate, never gated (see [`overlap_notes`]).
/// v5: records gained the ledger health counters `dropped_records` and
/// `negative_charges` — surfaced by [`health_notes`], never gated (a
/// shed record keeps subtotals exact; a clamped negative charge is a
/// cost-model bug to investigate, not a perf regression).
/// v6: records gained `base_metric`, the base-score predictor's metric
/// on the same held-out rows, which [`learns_floor`] gates against.
pub const BENCH_SCHEMA_VERSION: u32 = 6;

/// Maximum tolerated relative drift of the histogram share before the
/// diff gate fails (the issue's >10 % criterion).
pub const HIST_SHARE_REL_TOL: f64 = 0.10;

/// Maximum tolerated drop in `accuracy%` (absolute points).
pub const ACCURACY_ABS_TOL: f64 = 1.0;

/// Maximum tolerated relative growth of `rmse`.
pub const RMSE_REL_TOL: f64 = 0.05;

/// A model must cut the base-score predictor's held-out error to at
/// most this share of it (perfbench's `test_error` check).
pub const LEARNS_FLOOR: f64 = 0.9;

/// Stable JSON key for a phase. The match is exhaustive on purpose —
/// adding a `Phase` variant must not compile until the bench schema
/// names it (repo-lint enforces the same textually).
pub fn phase_key(p: Phase) -> &'static str {
    match p {
        Phase::Binning => "Binning",
        Phase::Gradient => "Gradient",
        Phase::Sketch => "Sketch",
        Phase::Histogram => "Histogram",
        Phase::SplitEval => "SplitEval",
        Phase::Partition => "Partition",
        Phase::LeafValue => "LeafValue",
        Phase::Predict => "Predict",
        Phase::Serve => "Serve",
        Phase::Transfer => "Transfer",
        Phase::Comm => "Comm",
        Phase::Idle => "Idle",
        Phase::Other => "Other",
    }
}

/// Stable key for a histogram method (JSON record identity).
pub fn method_key(m: HistogramMethod) -> &'static str {
    match m {
        HistogramMethod::GlobalMemory => "gmem",
        HistogramMethod::SharedMemory => "smem",
        HistogramMethod::SortReduce => "sortreduce",
        HistogramMethod::Adaptive => "adaptive",
    }
}

/// The hyper-parameters a report was produced under (identity of the
/// grid, so baselines can refuse to diff against a different setup).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSetup {
    /// Boosted trees per run.
    pub trees: u64,
    /// Maximum tree depth.
    pub depth: u64,
    /// Histogram bins.
    pub bins: u64,
    /// Dataset scale multiplier over `PaperDataset::bench_shape`.
    pub scale: f64,
    /// RNG seed for data generation and training.
    pub seed: u64,
    /// Whether this was the reduced `--smoke` grid.
    pub smoke: bool,
    /// Streams per device (`1` = the serial schedule). Part of setup
    /// identity: a streamed grid's timeline is not comparable to a
    /// serial baseline's.
    pub streams: u64,
}

/// One (dataset, histogram method) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Dataset name (paper's Table 1 naming).
    pub dataset: String,
    /// Histogram method key (see [`method_key`]).
    pub hist_method: String,
    /// Gradient-sketch label (`OutputSketch::label()`): `none`, or
    /// `top{k}` / `rand{k}` / `proj{k}`. Part of record identity.
    pub sketch: String,
    /// Metric name (`accuracy%` or `rmse`).
    pub metric_name: String,
    /// Metric value on the held-out test split.
    pub metric: f64,
    /// The same metric for the base-score predictor (every row scored
    /// with the trainer's initial scores) on the same rows.
    pub base_metric: f64,
    /// Simulated device seconds for the fit.
    pub sim_seconds: f64,
    /// Host wall-clock seconds the simulation took. Informational
    /// only — never gated (host noise must not fail CI).
    pub host_seconds: f64,
    /// Fraction of simulated time in the Histogram phase (Figure 4).
    pub hist_share: f64,
    /// Simulated nanoseconds per phase; every phase key is present
    /// (0.0 when unused) so downstream tooling never key-checks.
    pub phase_ns: BTreeMap<String, f64>,
    /// Number of ledger charges during the fit.
    pub kernel_count: u64,
    /// Simulated nanoseconds recovered by multi-stream overlap (serial
    /// charge sum minus makespan). Exactly `0.0` on a serial schedule.
    /// Informational: reported by [`overlap_notes`], never gated — the
    /// timeline is already covered by `sim_seconds`/`hist_share`.
    pub overlap_saved_ns: f64,
    /// Ledger records shed past the retention limit during the fit
    /// (phase subtotals stay exact). Health counter: surfaced by
    /// [`health_notes`], never gated.
    pub dropped_records: u64,
    /// Charges clamped at the ledger's non-negativity floor during the
    /// fit — each one is a cost-model bug made visible. Health counter:
    /// surfaced by [`health_notes`], never gated.
    pub negative_charges: u64,
}

/// A full schema-versioned benchmark report (`BENCH_repro.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Device the simulated times were modeled on.
    pub device: String,
    /// Grid hyper-parameters.
    pub setup: BenchSetup,
    /// One record per (dataset, histogram method).
    pub records: Vec<BenchRecord>,
}

impl BenchReport {
    /// Serialize to the canonical JSON form (insertion-ordered keys in
    /// struct-declaration order; deterministic float formatting).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("bench floats are finite")
    }

    /// Parse and *validate* a report: strict field presence (the
    /// vendored deserializer errors on missing non-optional fields)
    /// plus a schema-version check.
    pub fn from_json(s: &str) -> Result<Self, String> {
        let r: BenchReport = serde_json::from_str(s).map_err(|e| e.to_string())?;
        if r.schema_version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} != supported {}",
                r.schema_version, BENCH_SCHEMA_VERSION
            ));
        }
        for rec in &r.records {
            for p in Phase::ALL {
                if !rec.phase_ns.contains_key(phase_key(p)) {
                    return Err(format!(
                        "record {}/{} is missing phase key `{}`",
                        rec.dataset,
                        rec.hist_method,
                        phase_key(p)
                    ));
                }
            }
        }
        Ok(r)
    }

    /// Find a record by (dataset, method, sketch) identity.
    pub fn find(&self, dataset: &str, hist_method: &str, sketch: &str) -> Option<&BenchRecord> {
        self.records
            .iter()
            .find(|r| r.dataset == dataset && r.hist_method == hist_method && r.sketch == sketch)
    }
}

/// Build one record from a fit's ledger delta, its test metric and the
/// base-score predictor's metric on the same rows.
#[allow(clippy::too_many_arguments)]
pub fn make_record(
    dataset: &str,
    method: HistogramMethod,
    sketch: &str,
    sim: &LedgerSummary,
    host_seconds: f64,
    metric_name: &str,
    metric: f64,
    base_metric: f64,
) -> BenchRecord {
    let mut phase_ns = BTreeMap::new();
    for p in Phase::ALL {
        phase_ns.insert(
            phase_key(p).to_string(),
            sim.by_phase.get(&p).copied().unwrap_or(0.0),
        );
    }
    BenchRecord {
        dataset: dataset.to_string(),
        hist_method: method_key(method).to_string(),
        sketch: sketch.to_string(),
        metric_name: metric_name.to_string(),
        metric,
        base_metric,
        sim_seconds: sim.total_ns * 1e-9,
        host_seconds,
        hist_share: sim.fraction(Phase::Histogram),
        phase_ns,
        kernel_count: sim.kernel_count,
        overlap_saved_ns: sim.overlap_saved_ns,
        dropped_records: sim.dropped_records,
        negative_charges: sim.negative_charges,
    }
}

/// Ledger health warnings for a run: one line per record with a nonzero
/// `dropped_records` or `negative_charges` counter. Report-never-gate:
/// both conditions deserve a human's eye (lost trace detail; a
/// cost-model expression that went negative) but neither changes the
/// gated quantities, so CI prints them and stays green.
pub fn health_notes(current: &BenchReport) -> Vec<String> {
    let mut notes = Vec::new();
    for r in &current.records {
        let id = format!("{}/{}/{}", r.dataset, r.hist_method, r.sketch);
        if r.dropped_records > 0 {
            notes.push(format!(
                "{id}: ledger shed {} records past its retention limit (subtotals stay exact)",
                r.dropped_records
            ));
        }
        if r.negative_charges > 0 {
            notes.push(format!(
                "{id}: {} charges clamped at the ledger's non-negativity floor (cost-model bug?)",
                r.negative_charges
            ));
        }
    }
    notes
}

/// Informational overlap report for `--check` runs: one line per record
/// whose `overlap_saved_ns` moved against the baseline. Never gates —
/// overlap savings are a start-timestamp rearrangement, not a cost
/// change, so drift here is surfaced for a human and nothing more.
pub fn overlap_notes(current: &BenchReport, baseline: &BenchReport) -> Vec<String> {
    let mut notes = Vec::new();
    for b in &baseline.records {
        let Some(c) = current.find(&b.dataset, &b.hist_method, &b.sketch) else {
            continue;
        };
        if c.overlap_saved_ns != b.overlap_saved_ns {
            notes.push(format!(
                "{}/{}/{}: overlap_saved_ns {:.0} -> {:.0} (informational)",
                b.dataset, b.hist_method, b.sketch, b.overlap_saved_ns, c.overlap_saved_ns
            ));
        }
    }
    notes
}

/// Held-out error of a metric value: `100 − accuracy%`, or the RMSE.
fn error_of(metric_name: &str, value: f64) -> Option<f64> {
    match metric_name {
        "accuracy%" => Some(100.0 - value),
        "rmse" => Some(value),
        _ => None,
    }
}

/// The "learns" floor: one failure per record whose held-out error is
/// above [`LEARNS_FLOOR`] × the base-score predictor's error.
pub fn learns_floor(current: &BenchReport) -> Vec<String> {
    let mut fails = Vec::new();
    for r in &current.records {
        let id = format!("{}/{}/{}", r.dataset, r.hist_method, r.sketch);
        let (Some(err), Some(base)) = (
            error_of(&r.metric_name, r.metric),
            error_of(&r.metric_name, r.base_metric),
        ) else {
            fails.push(format!(
                "{id}: unknown metric `{}` has no floor",
                r.metric_name
            ));
            continue;
        };
        if err > LEARNS_FLOOR * base {
            fails.push(format!(
                "{id}: does not learn: held-out error {err:.4} is {:.3}x the base predictor's {base:.4} (floor {LEARNS_FLOOR}x)",
                err / base
            ));
        }
    }
    fails
}

/// Compare `current` against `baseline`; returns a list of human-
/// readable failures (empty ⇒ gate passes). Gates only deterministic
/// quantities: hist-share drift and model quality, plus the
/// [`learns_floor`] of every current record.
pub fn diff_gate(current: &BenchReport, baseline: &BenchReport) -> Vec<String> {
    let mut fails = Vec::new();
    if current.schema_version != baseline.schema_version {
        fails.push(format!(
            "schema_version mismatch: current {} vs baseline {}",
            current.schema_version, baseline.schema_version
        ));
        return fails;
    }
    if current.setup != baseline.setup {
        fails.push(format!(
            "setup mismatch (grids are not comparable): current {:?} vs baseline {:?}",
            current.setup, baseline.setup
        ));
        return fails;
    }
    for b in &baseline.records {
        let id = format!("{}/{}/{}", b.dataset, b.hist_method, b.sketch);
        let Some(c) = current.find(&b.dataset, &b.hist_method, &b.sketch) else {
            fails.push(format!("{id}: record missing from current run"));
            continue;
        };
        // Histogram-share drift, relative to the baseline share.
        if b.hist_share > 0.0 {
            let rel = (c.hist_share - b.hist_share).abs() / b.hist_share;
            if rel > HIST_SHARE_REL_TOL {
                fails.push(format!(
                    "{id}: hist-share drifted {:.1}% ({:.4} -> {:.4}; tol {:.0}%)",
                    100.0 * rel,
                    b.hist_share,
                    c.hist_share,
                    100.0 * HIST_SHARE_REL_TOL
                ));
            }
        }
        // Quality regression (improvements pass).
        if c.metric_name != b.metric_name {
            fails.push(format!(
                "{id}: metric changed from {} to {}",
                b.metric_name, c.metric_name
            ));
            continue;
        }
        let regressed = match b.metric_name.as_str() {
            "accuracy%" => c.metric < b.metric - ACCURACY_ABS_TOL,
            "rmse" => c.metric > b.metric * (1.0 + RMSE_REL_TOL),
            other => {
                fails.push(format!("{id}: unknown metric `{other}` cannot be gated"));
                continue;
            }
        };
        if regressed {
            fails.push(format!(
                "{id}: {} regressed {:.4} -> {:.4}",
                b.metric_name, b.metric, c.metric
            ));
        }
    }
    fails.extend(learns_floor(current));
    fails
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> BenchSetup {
        BenchSetup {
            trees: 3,
            depth: 4,
            bins: 32,
            scale: 0.25,
            seed: 42,
            smoke: true,
            streams: 1,
        }
    }

    fn rec(dataset: &str, method: &str, metric_name: &str, metric: f64, share: f64) -> BenchRecord {
        let mut phase_ns = BTreeMap::new();
        for p in Phase::ALL {
            phase_ns.insert(phase_key(p).to_string(), 0.0);
        }
        phase_ns.insert("Histogram".to_string(), share * 1e6);
        BenchRecord {
            dataset: dataset.to_string(),
            hist_method: method.to_string(),
            sketch: "none".to_string(),
            metric_name: metric_name.to_string(),
            metric,
            // A base predictor far worse than every metric these tests
            // use, so only the floor test trips the learns floor.
            base_metric: if metric_name == "accuracy%" {
                0.0
            } else {
                10.0
            },
            sim_seconds: 1e-3,
            host_seconds: 0.5,
            hist_share: share,
            phase_ns,
            kernel_count: 10,
            overlap_saved_ns: 0.0,
            dropped_records: 0,
            negative_charges: 0,
        }
    }

    fn report(records: Vec<BenchRecord>) -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            device: "SimRTX4090".to_string(),
            setup: setup(),
            records,
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let r = report(vec![rec("mnist", "gmem", "accuracy%", 90.0, 0.7)]);
        let back = BenchReport::from_json(&r.to_json()).expect("roundtrip");
        assert_eq!(back.schema_version, r.schema_version);
        assert_eq!(back.records.len(), 1);
        assert_eq!(back.records[0].dataset, "mnist");
        assert_eq!(back.records[0].metric, 90.0);
        assert_eq!(back.records[0].phase_ns.len(), Phase::ALL.len());
    }

    #[test]
    fn from_json_rejects_wrong_schema_version() {
        let mut r = report(vec![]);
        r.schema_version = BENCH_SCHEMA_VERSION + 1;
        let err = BenchReport::from_json(&r.to_json()).expect_err("must reject");
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn from_json_rejects_missing_phase_key() {
        let mut record = rec("mnist", "gmem", "rmse", 1.0, 0.5);
        record.phase_ns.remove("Comm");
        let r = report(vec![record]);
        let err = BenchReport::from_json(&r.to_json()).expect_err("must reject");
        assert!(err.contains("Comm"), "{err}");
    }

    #[test]
    fn gate_passes_on_identical_reports() {
        let r = report(vec![
            rec("mnist", "gmem", "accuracy%", 90.0, 0.7),
            rec("rf1", "adaptive", "rmse", 0.5, 0.6),
        ]);
        assert!(diff_gate(&r, &r).is_empty());
    }

    #[test]
    fn gate_fails_on_hist_share_drift_beyond_tolerance() {
        let base = report(vec![rec("mnist", "gmem", "accuracy%", 90.0, 0.70)]);
        // 8.6% drift passes…
        let ok = report(vec![rec("mnist", "gmem", "accuracy%", 90.0, 0.64)]);
        assert!(diff_gate(&ok, &base).is_empty());
        // …12.9% drift fails, in either direction.
        let slow = report(vec![rec("mnist", "gmem", "accuracy%", 90.0, 0.79)]);
        let fails = diff_gate(&slow, &base);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("hist-share"), "{fails:?}");
        let fast = report(vec![rec("mnist", "gmem", "accuracy%", 90.0, 0.61)]);
        assert!(!diff_gate(&fast, &base).is_empty());
    }

    #[test]
    fn gate_fails_on_quality_regression_only() {
        let base = report(vec![
            rec("mnist", "gmem", "accuracy%", 90.0, 0.7),
            rec("rf1", "gmem", "rmse", 1.0, 0.7),
        ]);
        // Improvements pass.
        let better = report(vec![
            rec("mnist", "gmem", "accuracy%", 95.0, 0.7),
            rec("rf1", "gmem", "rmse", 0.9, 0.7),
        ]);
        assert!(diff_gate(&better, &base).is_empty());
        // Small wiggle inside tolerance passes.
        let wiggle = report(vec![
            rec("mnist", "gmem", "accuracy%", 89.5, 0.7),
            rec("rf1", "gmem", "rmse", 1.02, 0.7),
        ]);
        assert!(diff_gate(&wiggle, &base).is_empty());
        // Beyond tolerance fails.
        let worse = report(vec![
            rec("mnist", "gmem", "accuracy%", 88.0, 0.7),
            rec("rf1", "gmem", "rmse", 1.2, 0.7),
        ]);
        let fails = diff_gate(&worse, &base);
        assert_eq!(fails.len(), 2, "{fails:?}");
    }

    #[test]
    fn gate_fails_on_missing_record_and_setup_mismatch() {
        let base = report(vec![rec("mnist", "gmem", "accuracy%", 90.0, 0.7)]);
        let empty = report(vec![]);
        assert_eq!(diff_gate(&empty, &base).len(), 1);
        let mut other = base.clone();
        other.setup.trees = 99;
        assert!(diff_gate(&other, &base)[0].contains("setup"));
    }

    #[test]
    fn sketch_is_part_of_record_identity() {
        let mut sketched = rec("mnist", "gmem", "accuracy%", 90.0, 0.7);
        sketched.sketch = "top4".to_string();
        let r = report(vec![rec("mnist", "gmem", "accuracy%", 90.0, 0.7), sketched]);
        assert!(r.find("mnist", "gmem", "none").is_some());
        assert!(r.find("mnist", "gmem", "top4").is_some());
        assert!(r.find("mnist", "gmem", "proj4").is_none());
        // A baseline sketched record missing from current fails the gate
        // with the sketch label in the message.
        let current = report(vec![rec("mnist", "gmem", "accuracy%", 90.0, 0.7)]);
        let fails = diff_gate(&current, &r);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("top4"), "{fails:?}");
    }

    #[test]
    fn learns_floor_fires_on_records_near_the_base_predictor() {
        let mut learns = rec("mnist", "gmem", "accuracy%", 60.0, 0.7);
        learns.base_metric = 10.0; // error 40 vs 90: 0.44x
        let mut barely = rec("rf1", "gmem", "rmse", 0.9, 0.7);
        barely.base_metric = 1.0; // exactly at the floor
        let r = report(vec![learns, barely]);
        assert!(learns_floor(&r).is_empty());
        assert!(diff_gate(&r, &r).is_empty());

        let mut chance = rec("mnist", "gmem", "accuracy%", 13.3, 0.7);
        chance.base_metric = 10.0; // error 86.7 vs 90: 0.963x
        let mut flat = rec("rf1", "gmem", "rmse", 0.975, 0.7);
        flat.base_metric = 1.0;
        let r = report(vec![chance, flat]);
        let fails = learns_floor(&r);
        assert_eq!(fails.len(), 2, "{fails:?}");
        assert!(
            fails.iter().all(|f| f.contains("does not learn")),
            "{fails:?}"
        );
        // The floor gates `--check` even against an identical baseline.
        assert_eq!(diff_gate(&r, &r), fails);
    }

    #[test]
    fn make_record_fills_every_phase_key() {
        let sim = LedgerSummary {
            total_ns: 100.0,
            by_phase: [(Phase::Histogram, 80.0), (Phase::SplitEval, 20.0)].into(),
            kernel_count: 7,
            ..Default::default()
        };
        let r = make_record(
            "mnist",
            HistogramMethod::Adaptive,
            "top4",
            &sim,
            0.1,
            "accuracy%",
            91.0,
            40.0,
        );
        assert_eq!(r.hist_method, "adaptive");
        assert_eq!(r.sketch, "top4");
        assert_eq!(r.phase_ns.len(), Phase::ALL.len());
        assert_eq!(r.phase_ns["Histogram"], 80.0);
        assert_eq!(r.phase_ns["Comm"], 0.0);
        assert!((r.hist_share - 0.8).abs() < 1e-12);
        assert_eq!(r.kernel_count, 7);
    }

    #[test]
    fn make_record_carries_overlap_savings() {
        let sim = LedgerSummary {
            total_ns: 100.0,
            overlap_saved_ns: 37.5,
            ..Default::default()
        };
        let r = make_record(
            "mnist",
            HistogramMethod::Adaptive,
            "none",
            &sim,
            0.1,
            "accuracy%",
            91.0,
            40.0,
        );
        assert_eq!(r.overlap_saved_ns, 37.5);
    }

    #[test]
    fn health_counters_are_reported_but_never_gated() {
        let base = report(vec![rec("mnist", "gmem", "accuracy%", 90.0, 0.7)]);
        let mut sick = base.clone();
        sick.records[0].dropped_records = 3;
        sick.records[0].negative_charges = 1;
        // The gate stays green against a clean baseline…
        assert!(diff_gate(&sick, &base).is_empty());
        // …while the health channel names both counters.
        let notes = health_notes(&sick);
        assert_eq!(notes.len(), 2, "{notes:?}");
        assert!(notes[0].contains("shed 3 records"), "{notes:?}");
        assert!(notes[1].contains("clamped"), "{notes:?}");
        // A healthy run stays silent.
        assert!(health_notes(&base).is_empty());
        // The counters survive the JSON round-trip.
        let back = BenchReport::from_json(&sick.to_json()).expect("roundtrip");
        assert_eq!(back.records[0].dropped_records, 3);
        assert_eq!(back.records[0].negative_charges, 1);
    }

    #[test]
    fn overlap_drift_is_reported_but_never_gated() {
        let base = report(vec![rec("mnist", "gmem", "accuracy%", 90.0, 0.7)]);
        let mut moved = base.clone();
        moved.records[0].overlap_saved_ns = 4.2e6;
        // The gate stays green…
        assert!(diff_gate(&moved, &base).is_empty());
        // …while the informational channel names the drift.
        let notes = overlap_notes(&moved, &base);
        assert_eq!(notes.len(), 1, "{notes:?}");
        assert!(notes[0].contains("overlap_saved_ns"), "{notes:?}");
        // No drift, no note.
        assert!(overlap_notes(&base, &base).is_empty());
    }
}
