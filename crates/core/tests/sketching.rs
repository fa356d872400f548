//! Gradient-sketching correctness: the GPU trainer's sketched pipeline
//! against the `gbdt-baselines` SketchBoost oracle, plus invariants the
//! sketch must never break.
//!
//! Three guarantees pinned here:
//!
//! 1. **Oracle agreement** — with a sketch enabled, the GPU trainer
//!    must reproduce `SketchBoostTrainer` *split for split*: same
//!    column selection (or projection), same tree structure grown on
//!    the `n × k` sketch, same full-`d` leaf refit. Both sides share
//!    the sketch math by construction; this test keeps it that way.
//! 2. **`OutputSketch::None` adds nothing** — no `Sketch`-phase charge,
//!    no sketch kernel names, no refit kernel: the dense path is the
//!    pre-sketch trainer, bit for bit.
//! 3. **Leaf values are always full-`d`** — the structure search runs
//!    at dimension `k`, but every emitted leaf must carry a
//!    `d`-dimensional vector that a dense recompute from the full
//!    gradients reproduces.

use gbdt_baselines::{SketchBoostTrainer, SketchStrategy};
use gbdt_core::config::{HistogramMethod, TrainConfig};
use gbdt_core::grad::compute_gradients;
use gbdt_core::loss::loss_for_task;
use gbdt_core::split::leaf_values;
use gbdt_core::tree::Node;
use gbdt_core::{GpuTrainer, MultiGpuTrainer, OutputSketch};
use gbdt_data::synth::{
    make_classification, make_multilabel, make_regression, ClassificationSpec, MultilabelSpec,
    RegressionSpec,
};
use gbdt_data::Dataset;
use gpusim::{Device, DeviceGroup, Phase};

fn datasets() -> Vec<(&'static str, Dataset)> {
    vec![
        (
            "regression",
            make_regression(&RegressionSpec {
                instances: 500,
                features: 12,
                outputs: 8,
                informative: 8,
                noise: 0.1,
                seed: 7,
                ..Default::default()
            }),
        ),
        (
            "classification",
            make_classification(&ClassificationSpec {
                instances: 500,
                features: 16,
                classes: 6,
                informative: 10,
                seed: 21,
                ..Default::default()
            }),
        ),
        (
            "multilabel",
            make_multilabel(&MultilabelSpec {
                instances: 400,
                features: 30,
                labels: 6,
                sparsity: 0.3,
                seed: 35,
                ..Default::default()
            }),
        ),
    ]
}

fn config() -> TrainConfig {
    TrainConfig {
        num_trees: 3,
        max_depth: 5,
        max_bins: 64,
        min_instances: 5,
        ..TrainConfig::default()
    }
}

/// Node-by-node comparison: identical topology, identical split
/// decisions, near-identical leaf vectors (both sides refit leaves from
/// the same full gradients; only f64 summation order may differ).
fn assert_trees_agree(tag: &str, gpu: &gbdt_core::model::Model, oracle: &gbdt_core::model::Model) {
    assert_eq!(
        gpu.trees.len(),
        oracle.trees.len(),
        "{tag}: ensemble sizes differ"
    );
    for (t, (tg, tc)) in gpu.trees.iter().zip(&oracle.trees).enumerate() {
        assert_eq!(
            tg.num_nodes(),
            tc.num_nodes(),
            "{tag}: tree {t} node counts differ"
        );
        for (i, (ng, nc)) in tg.nodes().iter().zip(tc.nodes()).enumerate() {
            match (ng, nc) {
                (
                    Node::Split {
                        feature: fg,
                        bin: bg,
                        threshold: hg,
                        left: lg,
                        right: rg,
                    },
                    Node::Split {
                        feature: fc,
                        bin: bc,
                        threshold: hc,
                        left: lc,
                        right: rc,
                    },
                ) => {
                    assert_eq!(fg, fc, "{tag}: tree {t} node {i} split feature");
                    assert_eq!(bg, bc, "{tag}: tree {t} node {i} split bin");
                    assert_eq!(
                        hg.to_bits(),
                        hc.to_bits(),
                        "{tag}: tree {t} node {i} threshold"
                    );
                    assert_eq!((lg, rg), (lc, rc), "{tag}: tree {t} node {i} topology");
                }
                (Node::Leaf { value: vg }, Node::Leaf { value: vc }) => {
                    assert_eq!(vg.len(), vc.len(), "{tag}: tree {t} leaf {i} dim");
                    for (k, (a, b)) in vg.iter().zip(vc).enumerate() {
                        assert!(
                            (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                            "{tag}: tree {t} leaf {i} output {k}: gpu={a} oracle={b}"
                        );
                    }
                }
                _ => panic!("{tag}: tree {t} node {i} kind mismatch (split vs leaf)"),
            }
        }
    }
}

/// A sketch mode under test: label, trainer config, oracle strategy.
type SketchMode = (&'static str, fn(usize) -> OutputSketch, SketchStrategy);

/// The issue's differential satellite: `TopOutputs` and
/// `RandomSampling` (and the projection, which shares the same seeded
/// RNG stream) pinned split-for-split against the SketchBoost oracle.
#[test]
fn sketched_trainer_matches_sketchboost_oracle_split_for_split() {
    let modes: [SketchMode; 3] = [
        ("top", OutputSketch::TopOutputs, SketchStrategy::TopOutputs),
        (
            "rand",
            OutputSketch::RandomSampling,
            SketchStrategy::RandomSampling,
        ),
        (
            "proj",
            OutputSketch::RandomProjection,
            SketchStrategy::RandomProjection,
        ),
    ];
    for (tag, ds) in datasets() {
        let k = (ds.d() / 2).max(1);
        for (label, mk, strategy) in modes {
            let oracle = SketchBoostTrainer::new(Device::rtx4090(), config(), strategy, k).fit(&ds);
            let gpu = GpuTrainer::new(Device::rtx4090(), config().with_sketch(mk(k))).fit(&ds);
            assert_trees_agree(&format!("{tag}/{label}{k}"), &gpu, &oracle);
        }
    }
}

/// `OutputSketch::None` must add *nothing*: no Sketch-phase time, no
/// sketch or refit kernels in the charge stream. Together with the
/// golden profiling fixtures this pins the dense path to the pre-sketch
/// trainer bit for bit.
#[test]
fn none_mode_charges_no_sketch_kernels() {
    let (_, ds) = datasets().remove(1);
    let device = Device::rtx4090();
    let _ = GpuTrainer::new(device.clone(), config()).fit(&ds);
    assert!(
        !device.summary().by_phase.contains_key(&Phase::Sketch),
        "dense training booked Sketch-phase time"
    );
    for r in device.records() {
        assert!(
            !r.name.starts_with("sketch_") && r.name != "leaf_refit_full_d",
            "dense training charged sketch kernel `{}`",
            r.name
        );
    }

    // And the sketched twin does charge them, in the Sketch phase.
    let device = Device::rtx4090();
    let _ = GpuTrainer::new(
        device.clone(),
        config().with_sketch(OutputSketch::TopOutputs(2)),
    )
    .fit(&ds);
    let summary = device.summary();
    assert!(
        summary.by_phase.get(&Phase::Sketch).copied().unwrap_or(0.0) > 0.0,
        "sketched training booked no Sketch-phase time"
    );
    let names: Vec<&str> = device.records().iter().map(|r| r.name).collect();
    for want in ["sketch_colnorm", "sketch_topk_select", "sketch_gather"] {
        assert!(names.contains(&want), "missing kernel `{want}`");
    }
    assert!(
        names.contains(&"leaf_refit_full_d"),
        "sketched training never refit leaves on full gradients"
    );
}

/// Property (the issue's second test satellite): for every sketch mode
/// the model predicts in full `d` dimensions, and every tree's leaf
/// vector equals a dense recompute from the full gradients of the
/// boosting state that grew it.
#[test]
fn sketched_leaf_values_equal_dense_recompute() {
    for (tag, ds) in datasets() {
        let (n, d) = (ds.n(), ds.d());
        let k = (d / 4).max(1);
        for sketch in [
            OutputSketch::None,
            OutputSketch::TopOutputs(k),
            OutputSketch::RandomSampling(k),
            OutputSketch::RandomProjection(k),
        ] {
            let cfg = config().with_sketch(sketch);
            let model = GpuTrainer::new(Device::rtx4090(), cfg.clone()).fit(&ds);
            let preds = model.predict(ds.features());
            assert_eq!(
                preds.len(),
                n * d,
                "{tag}/{}: predictions are not n × d",
                sketch.label()
            );

            // Replay boosting: recompute the full-d gradients that were
            // live when each tree was grown, route every instance to
            // its leaf, and re-derive the leaf vector densely.
            let loss = loss_for_task(ds.task());
            let replay_dev = Device::rtx4090();
            let mut scores = vec![0.0f32; n * d];
            for row in scores.chunks_mut(d) {
                row.copy_from_slice(&model.base);
            }
            for (t, tree) in model.trees.iter().enumerate() {
                let grads =
                    compute_gradients(&replay_dev, loss.as_ref(), &scores, ds.targets(), n, d);
                let mut by_leaf: std::collections::BTreeMap<usize, Vec<u32>> =
                    std::collections::BTreeMap::new();
                for i in 0..n {
                    by_leaf
                        .entry(tree.leaf_for_row(ds.features().row(i)))
                        .or_default()
                        .push(i as u32);
                }
                for (leaf, instances) in by_leaf {
                    let got = tree.leaf_value(leaf);
                    assert_eq!(
                        got.len(),
                        d,
                        "{tag}/{}: tree {t} leaf {leaf} is not d-dimensional",
                        sketch.label()
                    );
                    let (g, h) = grads.sums(&instances);
                    let want = leaf_values(&g, &h, cfg.lambda, cfg.learning_rate);
                    for (o, (a, b)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            (a - b).abs() <= 1e-5 * b.abs().max(1.0),
                            "{tag}/{}: tree {t} leaf {leaf} output {o}: model={a} dense={b}",
                            sketch.label()
                        );
                    }
                }
                // Advance the boosting state exactly as training did.
                for i in 0..n {
                    tree.predict_into(ds.features().row(i), &mut scores[i * d..(i + 1) * d]);
                }
            }
        }
    }
}

/// The headline acceptance number: on a wide-output dataset (d ≥ 16,
/// k = d/4) sketching must cut total simulated time by ≥ 30% while the
/// quality stays inside the bench diff-gate thresholds (RMSE +5%).
#[test]
fn wide_output_sketching_cuts_sim_time_at_bounded_quality_cost() {
    let ds = make_regression(&RegressionSpec {
        instances: 2000,
        features: 40,
        outputs: 16,
        informative: 20,
        noise: 0.1,
        seed: 11,
        ..Default::default()
    });
    let (train, test) = ds.split(0.25, 3);
    let cfg = TrainConfig {
        num_trees: 5,
        max_depth: 5,
        max_bins: 64,
        min_instances: 5,
        ..TrainConfig::default()
    }
    .with_hist_method(HistogramMethod::Adaptive);

    let rmse_of = |model: &gbdt_core::model::Model| {
        gbdt_core::rmse(&model.predict(test.features()), test.targets())
    };

    let dense_dev = Device::rtx4090();
    let dense = GpuTrainer::new(dense_dev.clone(), cfg.clone()).fit(&train);
    let dense_ns = dense_dev.now_ns();
    let dense_rmse = rmse_of(&dense);

    let k = train.d() / 4;
    for sketch in [
        OutputSketch::TopOutputs(k),
        OutputSketch::RandomSampling(k),
        OutputSketch::RandomProjection(k),
    ] {
        let dev = Device::rtx4090();
        let model = GpuTrainer::new(dev.clone(), cfg.clone().with_sketch(sketch)).fit(&train);
        let ns = dev.now_ns();
        assert!(
            ns <= 0.7 * dense_ns,
            "{}: sim time {ns:.3e} ns is not ≥30% below dense {dense_ns:.3e} ns",
            sketch.label()
        );
        let rmse = rmse_of(&model);
        assert!(
            rmse <= dense_rmse * 1.05,
            "{}: rmse {rmse:.4} worse than +5% over dense {dense_rmse:.4}",
            sketch.label()
        );
    }
}

/// Sketching composes with both multi-GPU strategies: the sketch is
/// chosen once (device 0) and broadcast, and the resulting model must
/// equal the single-GPU sketched model exactly — the same decomposition
/// invariant the dense multi-GPU trainer upholds.
#[test]
fn multi_gpu_sketched_training_matches_single_gpu() {
    let (_, ds) = datasets().remove(1);
    let cfg = config().with_sketch(OutputSketch::TopOutputs(2));
    let single = GpuTrainer::new(Device::rtx4090(), cfg.clone()).fit(&ds);
    let fp = MultiGpuTrainer::new(DeviceGroup::rtx4090s(2), cfg.clone());
    let fp_model = fp.fit(&ds);
    assert_eq!(
        single.predict(ds.features()),
        fp_model.predict(ds.features()),
        "feature-parallel sketched predictions must equal single-GPU"
    );
    // The broadcast of the selected columns is booked as a collective.
    assert!(
        fp.group()
            .device(0)
            .summary()
            .by_phase
            .contains_key(&Phase::Comm),
        "sketched feature-parallel training booked no Comm time"
    );
    let dp = MultiGpuTrainer::with_strategy(
        DeviceGroup::rtx4090s(3),
        cfg,
        gbdt_core::MultiGpuStrategy::DataParallel,
    )
    .fit(&ds);
    assert_eq!(
        single.predict(ds.features()),
        dp.predict(ds.features()),
        "data-parallel sketched predictions must equal single-GPU"
    );
}

/// Satellite regression for the `HashMap` → `BTreeMap` change in
/// `sketch.rs` (repo-lint's `hashmap_iteration` rule): two fits of the
/// same sketched config on fresh devices must be *bit-identical* —
/// same tree structure and leaf bits, same predictions, and the same
/// kernel charge stream record for record. A `HashMap` anywhere on the
/// training path would let iteration order (and thus float summation
/// order) vary between runs and break this.
#[test]
fn sketched_training_is_bit_identical_across_runs() {
    for (tag, ds) in datasets() {
        let cfg = config().with_sketch(OutputSketch::TopOutputs(3));
        let dev_a = Device::rtx4090();
        let dev_b = Device::rtx4090();
        let model_a = GpuTrainer::new(dev_a.clone(), cfg.clone()).fit(&ds);
        let model_b = GpuTrainer::new(dev_b.clone(), cfg.clone()).fit(&ds);

        for (t, (ta, tb)) in model_a.trees.iter().zip(&model_b.trees).enumerate() {
            assert_eq!(
                ta.num_nodes(),
                tb.num_nodes(),
                "{tag}: tree {t} node counts differ between identical runs"
            );
            for (i, (na, nb)) in ta.nodes().iter().zip(tb.nodes()).enumerate() {
                match (na, nb) {
                    (Node::Leaf { value: va }, Node::Leaf { value: vb }) => {
                        let bits_a: Vec<u32> = va.iter().map(|v| v.to_bits()).collect();
                        let bits_b: Vec<u32> = vb.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(bits_a, bits_b, "{tag}: tree {t} leaf {i} bits differ");
                    }
                    _ => assert_eq!(na, nb, "{tag}: tree {t} node {i} differs"),
                }
            }
        }

        let pred_a: Vec<u32> = model_a
            .predict(ds.features())
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let pred_b: Vec<u32> = model_b
            .predict(ds.features())
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(pred_a, pred_b, "{tag}: predictions differ between runs");

        let rec_a = dev_a.records();
        let rec_b = dev_b.records();
        assert_eq!(
            rec_a.len(),
            rec_b.len(),
            "{tag}: charge-stream lengths differ"
        );
        for (i, (a, b)) in rec_a.iter().zip(&rec_b).enumerate() {
            assert_eq!(a.name, b.name, "{tag}: charge {i} kernel name differs");
            assert_eq!(a.phase, b.phase, "{tag}: charge {i} phase differs");
            assert_eq!(
                a.ns.to_bits(),
                b.ns.to_bits(),
                "{tag}: charge {i} ({}) duration bits differ",
                a.name
            );
        }
    }
}
