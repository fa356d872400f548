//! Golden charge fingerprints of multi-GPU training.
//!
//! A small fixed workload is trained over the grid strategy × device
//! count × streams × histogram method × sketch, and every device's
//! ledger is reduced to a fingerprint: the bits of its total and
//! per-phase simulated nanoseconds, its kernel count, and a hash of
//! its ordered charge records (name, phase, duration, start, stream).
//! The report's `hist_methods` tally is pinned alongside. Any change
//! to what a placement charges, in what order, or on which stream
//! shows up here. Regenerate after an intentional cost-model change
//! with `UPDATE_GOLDEN=1 cargo test -p gbdt-core --test multigpu_golden`.

use gbdt_core::config::{HistogramMethod, OutputSketch, TrainConfig};
use gbdt_core::{MultiGpuStrategy, MultiGpuTrainer};
use gbdt_data::datasets::PaperDataset;
use gbdt_data::synth::{make_classification, ClassificationSpec};
use gbdt_data::Dataset;
use gpusim::{Device, DeviceGroup};
use std::fmt::Write;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/multigpu_charges.txt"
);

/// FNV-1a over the ordered charge records of one device.
fn records_hash(dev: &Device) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in dev.records() {
        eat(r.name.as_bytes());
        eat(format!("{:?}", r.phase).as_bytes());
        eat(&r.ns.to_bits().to_le_bytes());
        eat(&r.start_ns.to_bits().to_le_bytes());
        eat(&(r.stream as u64).to_le_bytes());
    }
    h
}

/// Train one cell and append its per-device and `hist_methods` lines.
fn fingerprint_cell(
    out: &mut String,
    cell: &str,
    ds: &Dataset,
    cfg: TrainConfig,
    strategy: MultiGpuStrategy,
    k: usize,
) {
    let group = DeviceGroup::rtx4090s(k);
    let report = MultiGpuTrainer::with_strategy(group.clone(), cfg, strategy).fit_report(ds);
    for dev in group.devices() {
        let s = dev.summary();
        write!(
            out,
            "{cell} dev{} total={:016x} kernels={} records={:016x}",
            dev.id,
            s.total_ns.to_bits(),
            s.kernel_count,
            records_hash(dev)
        )
        .unwrap();
        for (phase, ns) in &s.by_phase {
            write!(out, " {phase:?}={:016x}", ns.to_bits()).unwrap();
        }
        out.push('\n');
    }
    write!(out, "{cell} hist_methods").unwrap();
    for (m, c) in &report.hist_methods {
        write!(out, " {m:?}={c}").unwrap();
    }
    out.push('\n');
}

fn small_config(streams: usize) -> TrainConfig {
    TrainConfig {
        num_trees: 2,
        max_depth: 3,
        max_bins: 16,
        min_instances: 3,
        streams,
        ..TrainConfig::default()
    }
}

const STRATEGIES: [MultiGpuStrategy; 2] = [
    MultiGpuStrategy::FeatureParallel,
    MultiGpuStrategy::DataParallel,
];

fn fingerprints() -> String {
    let dense = make_classification(&ClassificationSpec {
        instances: 240,
        features: 7,
        classes: 5,
        informative: 5,
        class_sep: 1.5,
        seed: 17,
        ..Default::default()
    });
    let mut out = String::new();
    for strategy in STRATEGIES {
        for k in [2usize, 3] {
            for streams in [1usize, 2] {
                for method in [
                    HistogramMethod::GlobalMemory,
                    HistogramMethod::SharedMemory,
                    HistogramMethod::SortReduce,
                    HistogramMethod::Adaptive,
                ] {
                    for sketch in [OutputSketch::None, OutputSketch::TopOutputs(2)] {
                        let cfg = TrainConfig {
                            sketch,
                            ..small_config(streams)
                        }
                        .with_hist_method(method);
                        let cell = format!(
                            "{strategy:?} k={k} streams={streams} {method:?} {}",
                            sketch.label()
                        );
                        fingerprint_cell(&mut out, &cell, &dense, cfg, strategy, k);
                    }
                }
            }
        }
    }
    // Sparse inputs on the sparsity-aware histogram path.
    let sparse = PaperDataset::NusWide.generate(0.001, 24, 6, 5);
    for strategy in STRATEGIES {
        for k in [2usize, 3] {
            for streams in [1usize, 2] {
                let mut cfg = small_config(streams);
                cfg.hist.sparse_aware = true;
                let cell = format!("{strategy:?} k={k} streams={streams} sparse");
                fingerprint_cell(&mut out, &cell, &sparse, cfg, strategy, k);
            }
        }
    }
    out
}

#[test]
fn multi_gpu_charge_fingerprints_match_golden() {
    let got = fingerprints();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden"))
            .expect("create golden dir");
        std::fs::write(GOLDEN_PATH, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("missing fixture: run with UPDATE_GOLDEN=1 to create it");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "fingerprint line {} drifted", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "fingerprint grid changed size"
    );
}
