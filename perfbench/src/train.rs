//! The three training workloads: a dense fit on one device, a sparse
//! wide-output fit split by features over two devices, and the dense
//! fit split by rows over two devices.

use crate::report::{record_overhead, record_setup, HostCost, Report, LEDGER_BATCH};
use crate::trace::Tracer;
use crate::Args;
use gbdt_core::grad::{compute_gradients, update_scores_from_leaves};
use gbdt_core::grow::{grow_tree_pooled, partition_stable};
use gbdt_core::hist::{build_node_histogram, HistContext, NodeHistogram};
use gbdt_core::loss::loss_for_task;
use gbdt_core::memory::HistogramPool;
use gbdt_core::split::{find_best_split, SplitParams};
use gbdt_core::trainer::base_scores;
use gbdt_core::{
    accuracy, rmse, GpuTrainer, HistogramMethod, MultiGpuStrategy, MultiGpuTrainer, TrainConfig,
    TrainError, TrainReport, Tree,
};
use gbdt_data::datasets::PaperDataset;
use gbdt_data::synth::{make_classification, ClassificationSpec};
use gbdt_data::{BinnedDataset, Dataset, Task};
use gpusim::{Device, DeviceGroup, Phase, Telemetry};
use std::sync::Arc;
use std::time::Instant;

/// Held-out share of every generated dataset. Half, so the held-out
/// error moves little with the seed's sample of test rows.
const TEST_FRAC: f64 = 0.5;
/// Setups timed per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Fewest measured fits per run, even past `--seconds`.
const MIN_FITS: usize = 3;
/// Root-node probe repetitions per traced run.
const PROBE_REPEATS: usize = 5;
/// A model must cut the base-score predictor's held-out error to at
/// most this share of it.
const LEARNS_FLOOR: f64 = 0.9;

#[derive(Clone, Copy)]
enum Placement {
    Single,
    Pair(MultiGpuStrategy),
}

#[derive(Clone, Copy)]
enum Inputs {
    /// Dense 24-class Gaussian clusters: n=4000 train rows, m=64, d=24.
    Dense,
    /// NUS-WIDE-shaped multilabel: n≈1941 train rows, m=128, d=40.
    NusWide,
}

struct Workload {
    inputs: Inputs,
    placement: Placement,
    config: TrainConfig,
}

fn workload(name: &str) -> Workload {
    let base = TrainConfig {
        num_trees: 20,
        max_bins: 64,
        ..TrainConfig::default()
    };
    match name {
        "train-dense-1gpu" => Workload {
            inputs: Inputs::Dense,
            placement: Placement::Single,
            config: TrainConfig {
                max_depth: 8,
                ..base
            },
        },
        "train-sparse-2gpu-fp" => {
            let mut config = TrainConfig {
                max_depth: 6,
                streams: 2,
                ..base
            };
            config.hist.sparse_aware = true;
            Workload {
                inputs: Inputs::NusWide,
                placement: Placement::Pair(MultiGpuStrategy::FeatureParallel),
                config,
            }
        }
        "train-dense-2gpu-dp" => Workload {
            inputs: Inputs::Dense,
            placement: Placement::Pair(MultiGpuStrategy::DataParallel),
            config: TrainConfig {
                max_depth: 8,
                streams: 2,
                ..base
            },
        },
        other => unreachable!("not a train workload: {other}"),
    }
}

/// Train/test split of the workload's generated inputs.
fn generate(inputs: Inputs, seed: u64) -> (Dataset, Dataset) {
    let all = match inputs {
        Inputs::Dense => make_classification(&ClassificationSpec {
            instances: 8_000,
            features: 64,
            classes: 24,
            informative: 24,
            class_sep: 1.2,
            seed,
            ..Default::default()
        }),
        Inputs::NusWide => PaperDataset::NusWide.generate(0.024, 128, 40, seed),
    };
    all.split(TEST_FRAC, seed ^ 0x5eed)
}

/// NUS-WIDE inputs shared with the serving workload.
pub fn generate_nuswide(seed: u64) -> (Dataset, Dataset) {
    generate(Inputs::NusWide, seed)
}

/// Held-out error: 100 − accuracy% for multiclass, RMSE of predicted
/// probabilities otherwise.
pub fn test_error(raw: &[f32], test: &Dataset) -> f64 {
    match test.task() {
        Task::MultiClass => 100.0 - 100.0 * accuracy(raw, &test.labels()),
        Task::MultiRegression => rmse(raw, test.targets()),
        Task::MultiLabel => {
            let loss = loss_for_task(test.task());
            let mut probs = raw.to_vec();
            for row in probs.chunks_mut(test.d()) {
                loss.transform_row(row);
            }
            rmse(&probs, test.targets())
        }
    }
}

/// Error of the base-score predictor (every row scored with the
/// trainer's initial scores) on the same rows.
pub fn base_error(train: &Dataset, test: &Dataset) -> f64 {
    let base = base_scores(train);
    let raw: Vec<f32> = (0..test.n()).flat_map(|_| base.iter().copied()).collect();
    test_error(&raw, test)
}

/// Record `test_error` as a share of the base-score predictor's error
/// and check the model learns.
pub fn record_quality(rep: &mut Report, err: f64, base: f64) {
    rep.info("test_error_raw", format!("{err:.6}"));
    rep.info("test_error_base_predictor", format!("{base:.6}"));
    let ratio = err / base;
    rep.metric("test_error", ratio, "ratio");
    rep.check(ratio <= LEARNS_FLOOR, || {
        format!("test error {err} is not below {LEARNS_FLOOR} x the base predictor's {base}")
    });
}

struct Fit {
    report: TrainReport,
    devices: Vec<Arc<Device>>,
    host: HostCost,
}

fn fit(w: &Workload, train: &Dataset, tel: Option<&Arc<Telemetry>>) -> Result<Fit, String> {
    let (placed, host) = HostCost::measure(|| -> Result<_, String> {
        match w.placement {
            Placement::Single => {
                let dev = Device::rtx4090();
                if let Some(t) = tel {
                    dev.attach_telemetry(t.clone());
                }
                let trainer = GpuTrainer::try_new(dev.clone(), w.config.clone())
                    .map_err(|e| e.to_string())?;
                Ok((trainer.try_fit_report(train), vec![dev]))
            }
            Placement::Pair(strategy) => {
                let group = DeviceGroup::rtx4090s(2);
                if let Some(t) = tel {
                    for d in group.devices() {
                        d.attach_telemetry(t.clone());
                    }
                }
                let devices = group.devices().to_vec();
                let trainer = MultiGpuTrainer::try_with_strategy(group, w.config.clone(), strategy)
                    .map_err(|e| e.to_string())?;
                Ok((trainer.try_fit_report(train), devices))
            }
        }
    });
    let (report, devices) = placed?;
    let report = report.map_err(|e: TrainError| e.to_string())?;
    Ok(Fit {
        report,
        devices,
        host,
    })
}

/// What two fits of one workload must agree on bit for bit.
#[derive(PartialEq)]
struct Fingerprint {
    trees: Vec<Tree>,
    predictions: Vec<u32>,
    sim_ns: u64,
    kernels: u64,
}

fn fingerprint(f: &Fit, test: &Dataset) -> Fingerprint {
    Fingerprint {
        trees: f.report.model.trees.clone(),
        predictions: f
            .report
            .model
            .predict(test.features())
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        sim_ns: f.report.sim.total_ns.to_bits(),
        kernels: f.devices.iter().map(|d| d.summary().kernel_count).sum(),
    }
}

struct Setup {
    train: Dataset,
    test: Dataset,
    binned: BinnedDataset,
}

fn setup(w: &Workload, seed: u64, tracer: Option<&mut Tracer>) -> Setup {
    let (train, test) = generate(w.inputs, seed);
    let bins = w.config.max_bins;
    let binned = match tracer {
        Some(tr) => tr.span("data.bin", |_| BinnedDataset::build(train.features(), bins)),
        None => BinnedDataset::build(train.features(), bins),
    };
    Setup {
        train,
        test,
        binned,
    }
}

pub fn run(args: &Args, rep: &mut Report, tracer: Option<&mut Tracer>) {
    let w = workload(&args.workload);
    let mut setup_cost = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPEATS {
        let (one, cost) = HostCost::measure(|| setup(&w, args.seed, None));
        s = Some(one);
        setup_cost.push(cost);
    }
    let s = s.expect("at least one setup");
    if !args.trace {
        record_setup(rep, &setup_cost);
    }
    rep.info(
        "shape",
        format!(
            "n_train={} n_test={} m={} d={} trees={} depth={} bins={}",
            s.train.n(),
            s.test.n(),
            s.train.m(),
            s.train.d(),
            w.config.num_trees,
            w.config.max_depth,
            w.config.max_bins
        ),
    );

    // Warm-up fit: caches, the allocator and the rayon pool settle
    // before anything is timed. It is also the reference every later
    // fit must reproduce bit for bit.
    let reference = match fit(&w, &s.train, None) {
        Ok(f) => f,
        Err(e) => {
            rep.fail(format!("warm-up fit failed: {e}"));
            return;
        }
    };
    let want = fingerprint(&reference, &s.test);
    let err = test_error(&reference.report.model.predict(s.test.features()), &s.test);
    record_quality(rep, err, base_error(&s.train, &s.test));
    rep.metric("sim_ms", reference.report.sim_seconds * 1e3, "ms");
    rep.info("train_sim_ms", reference.report.sim_seconds * 1e3);
    sim_layers(rep, &reference);

    match tracer {
        None => {
            let host = timed_fits(&w, &s, &want, rep, args.seconds);
            let m = HostCost::medians(&host);
            rep.metric("host_cpu_ms", m.cpu_s * 1e3, "ms");
            rep.metric("host.wall_ms", m.wall_s * 1e3, "ms");
            rep.info(
                "train_host_s",
                format!(
                    "wall {:.4}, cpu {:.4} (medians of {} fits)",
                    m.wall_s,
                    m.cpu_s,
                    host.len()
                ),
            );
        }
        Some(tr) => traced(args, &w, &s, &want, rep, tr),
    }
}

/// Fits until `seconds` have passed (at least [`MIN_FITS`]); each must
/// match the reference. Returns the host cost of each fit.
fn timed_fits(
    w: &Workload,
    s: &Setup,
    want: &Fingerprint,
    rep: &mut Report,
    seconds: f64,
) -> Vec<HostCost> {
    let start = Instant::now();
    let mut host = Vec::new();
    let mut attempts = 0;
    while attempts < MIN_FITS || start.elapsed().as_secs_f64() < seconds {
        attempts += 1;
        host.extend(checked_fit(w, s, want, rep, None));
    }
    host
}

/// One fit that must match the reference; returns its host cost.
/// With `tel`, a telemetry registry is attached to every device.
fn checked_fit(
    w: &Workload,
    s: &Setup,
    want: &Fingerprint,
    rep: &mut Report,
    tel: Option<&Arc<Telemetry>>,
) -> Option<HostCost> {
    match fit(w, &s.train, tel) {
        Ok(f) => {
            let same = fingerprint(&f, &s.test) == *want;
            rep.check(same, || "a repeated fit differs from the first".into());
            Some(f.host)
        }
        Err(e) => {
            rep.fail(format!("fit failed: {e}"));
            None
        }
    }
}

/// Simulated-clock layers of one fit, in device-ms summed over the
/// group, and the adaptive selector's per-method node counts.
fn sim_layers(rep: &mut Report, f: &Fit) {
    let phase_ms = |p: Phase| -> f64 {
        f.devices
            .iter()
            .map(|d| d.summary().by_phase.get(&p).copied().unwrap_or(0.0))
            .sum::<f64>()
            * 1e-6
    };
    rep.metric("sim.hist_ms", phase_ms(Phase::Histogram), "ms");
    rep.metric("sim.split_ms", phase_ms(Phase::SplitEval), "ms");
    rep.metric("sim.partition_ms", phase_ms(Phase::Partition), "ms");
    rep.metric("sim.grad_ms", phase_ms(Phase::Gradient), "ms");
    rep.metric("sim.predict_ms", phase_ms(Phase::Predict), "ms");
    rep.metric("sim.transfer_ms", phase_ms(Phase::Transfer), "ms");
    rep.metric("sim.comm_ms", phase_ms(Phase::Comm), "ms");
    rep.metric("sim.idle_ms", phase_ms(Phase::Idle), "ms");
    let summaries: Vec<_> = f.devices.iter().map(|d| d.summary()).collect();
    let overlap: f64 = summaries.iter().map(|s| s.overlap_saved_ns).sum();
    rep.metric("sim.overlap_saved_ms", overlap * 1e-6, "ms");
    let kernels: u64 = summaries.iter().map(|s| s.kernel_count).sum();
    rep.metric("sim.kernels", kernels as f64, "count");
    let dropped: u64 = summaries.iter().map(|s| s.dropped_records).sum();
    rep.check(dropped == 0, || {
        format!("{dropped} kernel records were dropped; sim.hist_kernels would undercount")
    });
    let hist_kernels = f
        .devices
        .iter()
        .flat_map(|d| d.records())
        .filter(|r| r.phase == Phase::Histogram)
        .count();
    rep.metric("sim.hist_kernels", hist_kernels as f64, "count");
    let nodes = |m: HistogramMethod| f.report.hist_methods.get(&m).copied().unwrap_or(0) as f64;
    rep.metric(
        "hist.nodes_gmem",
        nodes(HistogramMethod::GlobalMemory),
        "count",
    );
    rep.metric(
        "hist.nodes_smem",
        nodes(HistogramMethod::SharedMemory),
        "count",
    );
    rep.metric(
        "hist.nodes_sortreduce",
        nodes(HistogramMethod::SortReduce),
        "count",
    );
}

/// The traced run: untraced and traced fits alternate (tracing overhead
/// is their ratio), then the round replay and the per-layer probes run
/// under spans.
fn traced(
    args: &Args,
    w: &Workload,
    s: &Setup,
    want: &Fingerprint,
    rep: &mut Report,
    tr: &mut Tracer,
) {
    // The span around the setup's binning, recorded once.
    let _ = setup(w, args.seed, Some(tr));
    let budget = args.seconds * 0.6;
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut collective_bytes = 0u64;
    let mut pairs = 0;
    while pairs < 2 || start.elapsed().as_secs_f64() < budget {
        plain.extend(checked_fit(w, s, want, rep, None));
        let tel = Arc::new(Telemetry::new());
        pairs += 1;
        tr.begin_op();
        traced.extend(tr.span("train.fit", |_| checked_fit(w, s, want, rep, Some(&tel))));
        collective_bytes = tel
            .snapshot()
            .counters
            .get("multigpu.collective_bytes")
            .copied()
            .unwrap_or(0);
    }
    let (p, t) = (HostCost::medians(&plain), HostCost::medians(&traced));
    record_overhead(rep, p, t);
    rep.metric(
        "multigpu.collective_bytes",
        collective_bytes as f64,
        "bytes",
    );

    if matches!(w.placement, Placement::Single) {
        replay(w, s, want, p.wall_s, rep, tr);
    }
    probes(w, s, rep, tr);
    if matches!(w.placement, Placement::Pair(_)) {
        all_reduce_probe(s, w, rep, tr);
    }
    ledger_probe(rep, tr);
}

/// Re-run the single-device boosting loop through the public layer
/// functions, one span per call.
fn replay(
    w: &Workload,
    s: &Setup,
    want: &Fingerprint,
    fit_host_s: f64,
    rep: &mut Report,
    tr: &mut Tracer,
) {
    let device = Device::rtx4090();
    let (n, d) = (s.train.n(), s.train.d());
    let loss = loss_for_task(s.train.task());
    let base = base_scores(&s.train);
    let mut scores: Vec<f32> = (0..n).flat_map(|_| base.iter().copied()).collect();
    let features: Vec<u32> = (0..s.train.m() as u32).collect();
    let mut pool = HistogramPool::new(0, 0, 0);
    let mut trees = Vec::new();
    for _ in 0..w.config.num_trees {
        tr.begin_op();
        tr.span("replay.round", |tr| {
            let grads = tr.span("grad.compute", |_| {
                compute_gradients(&device, loss.as_ref(), &scores, s.train.targets(), n, d)
            });
            let grown = tr.span("grow.tree", |_| {
                grow_tree_pooled(
                    &device,
                    &s.binned,
                    &grads,
                    &w.config,
                    &features,
                    (0..n as u32).collect(),
                    &mut pool,
                )
            });
            tr.span("predict.update", |_| {
                update_scores_from_leaves(&device, &mut scores, d, &grown.leaf_assignments)
            });
            trees.push(grown.tree);
        });
    }
    let stats = tr.stats();
    let replay_s = ["grad.compute", "grow.tree", "predict.update"]
        .iter()
        .map(|name| stats.get(name).map_or(0, |st| st.self_ns))
        .sum::<u64>() as f64
        * 1e-9;
    rep.check(trees.first() == want.trees.first(), || {
        "the replay's first tree differs from the fit's".into()
    });
    rep.check(trees == want.trees, || {
        "the replayed ensemble differs from the fit's".into()
    });
    rep.metric("trace.replay_span_ms", replay_s * 1e3, "ms");
    rep.metric("trace.replay_coverage", replay_s / fit_host_s, "ratio");
}

/// Root-node histogram build, split search and partition at the
/// workload's shape.
fn probes(w: &Workload, s: &Setup, rep: &mut Report, tr: &mut Tracer) {
    let device = Device::rtx4090();
    let (n, d) = (s.train.n(), s.train.d());
    let loss = loss_for_task(s.train.task());
    let base = base_scores(&s.train);
    let scores: Vec<f32> = (0..n).flat_map(|_| base.iter().copied()).collect();
    let grads = compute_gradients(&device, loss.as_ref(), &scores, s.train.targets(), n, d);
    let features: Vec<u32> = (0..s.train.m() as u32).collect();
    let ctx = HistContext {
        device: &device,
        data: &s.binned,
        grads: &grads,
        features: &features,
        bins: w.config.max_bins,
        opts: w.config.hist,
    };
    let params = SplitParams {
        lambda: w.config.lambda,
        min_gain: w.config.min_gain,
        min_instances: w.config.min_instances,
        segments_c: w.config.segments_per_block_c,
    };
    let idx: Vec<u32> = (0..n as u32).collect();
    let (g, h) = grads.sums(&idx);
    let mut hist = NodeHistogram::new(features.len(), d, w.config.max_bins);
    for _ in 0..PROBE_REPEATS {
        tr.begin_op();
        tr.span("probe.root", |tr| {
            tr.span("hist.build", |_| {
                build_node_histogram(&ctx, &idx, &g, &h, &mut hist)
            });
            let best = tr.span("split.find", |_| {
                find_best_split(&device, &hist, &features, &g, &h, n as u32, &params)
            });
            let Some(best) = best else {
                rep.fail("the root node found no split".into());
                return;
            };
            let col = s.binned.bins.col(best.feature as usize);
            let flags: Vec<bool> = idx.iter().map(|&i| col[i as usize] <= best.bin).collect();
            let (left, right) = tr.span("grow.partition", |_| partition_stable(&idx, &flags));
            rep.check(
                left.len() == best.left_count as usize && right.len() == best.right_count as usize,
                || {
                    format!(
                        "partition gave {}/{} rows, the split promised {}/{}",
                        left.len(),
                        right.len(),
                        best.left_count,
                        best.right_count
                    )
                },
            );
        });
    }
}

/// Ring all-reduce of one node histogram's worth of f64 (g and h for
/// every feature, output and bin) across two devices.
fn all_reduce_probe(s: &Setup, w: &Workload, rep: &mut Report, tr: &mut Tracer) {
    let len = s.train.m() * s.train.d() * w.config.max_bins * 2;
    let a: Vec<f64> = (0..len).map(|i| (i % 97) as f64 * 0.5).collect();
    let b: Vec<f64> = (0..len).map(|i| (i % 89) as f64 * 0.25).collect();
    let group = DeviceGroup::rtx4090s(2);
    let contributions = vec![a, b];
    for _ in 0..PROBE_REPEATS {
        tr.begin_op();
        let sum = tr.span("collective.all_reduce", |_| {
            group.all_reduce_sum_f64(&contributions)
        });
        let exact = sum
            .iter()
            .zip(&contributions[0])
            .zip(&contributions[1])
            .all(|((s, x), y)| *s == x + y);
        rep.check(exact, || "all-reduce returned a wrong sum".into());
    }
}

/// Host cost of one ledger charge on a fresh device.
pub fn ledger_probe(rep: &mut Report, tr: &mut Tracer) {
    const SPANS: u64 = 10;
    let device = Device::rtx4090();
    for _ in 0..SPANS {
        tr.begin_op();
        tr.span("ledger.charge", |_| {
            for _ in 0..LEDGER_BATCH {
                device.charge_ns("perfbench_probe", Phase::Other, 1.0);
            }
        });
    }
    let kernels = device.summary().kernel_count;
    rep.check(kernels == SPANS * LEDGER_BATCH, || {
        format!(
            "ledger counted {kernels} charges, {} were made",
            SPANS * LEDGER_BATCH
        )
    });
}
