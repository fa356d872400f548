//! Property-based tests of multi-GPU training: for random shapes,
//! device counts, strategies and training configurations, the trained
//! model must be bit-equal to the single-device model (or the
//! configuration rejected with a typed error), monotone constraints
//! must hold at every placement, simulated time must be positive and
//! barrier-consistent across the group, and every device must charge
//! as many level-batched split searches and partitions as the single
//! device. Observers drawn onto every device of a placement must leave
//! its trees and charge records bit-identical.

use gbdt_mo::core::config::{GossConfig, OutputSketch};
use gbdt_mo::core::{MultiGpuStrategy, MultiGpuTrainer};
use gbdt_mo::data::DenseMatrix;
use gbdt_mo::gpusim::{FaultPlan, SanitizeMode, Telemetry};
use gbdt_mo::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

fn quick_config(trees: usize, depth: usize) -> TrainConfig {
    TrainConfig {
        num_trees: trees,
        max_depth: depth,
        max_bins: 16,
        min_instances: 3,
        ..TrainConfig::default()
    }
}

/// A random point of the configuration space: sampling, GOSS,
/// monotone constraints (as a flag; signs are drawn per feature once
/// the shape is known), every histogram option, sketching and streams.
fn config_space() -> impl Strategy<Value = (TrainConfig, bool)> {
    let sampling = (
        prop_oneof![Just(1.0), 0.4f64..1.0],
        prop_oneof![Just(1.0), 0.4f64..1.0],
        prop_oneof![
            3 => Just(None),
            1 => (0.1f64..0.4, 0.1f64..0.3).prop_map(|(top_rate, other_rate)| Some(GossConfig {
                top_rate,
                other_rate,
            })),
        ],
        any::<bool>(),
    );
    let hist = (
        prop_oneof![
            Just(HistogramMethod::GlobalMemory),
            Just(HistogramMethod::SharedMemory),
            Just(HistogramMethod::SortReduce),
            Just(HistogramMethod::Adaptive),
        ],
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    );
    let sketch = prop_oneof![
        2 => Just(OutputSketch::None),
        1 => (1usize..4).prop_map(OutputSketch::TopOutputs),
        1 => (1usize..4).prop_map(OutputSketch::RandomSampling),
        1 => (1usize..4).prop_map(OutputSketch::RandomProjection),
    ];
    (sampling, hist, sketch, 1usize..4, 0u64..1000).prop_map(
        |(
            (subsample, colsample_bytree, goss, monotone),
            (method, quantized_gradients, subtraction, sparse_aware),
            sketch,
            streams,
            seed,
        )| {
            let mut cfg = TrainConfig {
                subsample,
                colsample_bytree,
                goss,
                sketch,
                streams,
                seed,
                ..quick_config(2, 3)
            };
            cfg.hist.method = method;
            cfg.hist.quantized_gradients = quantized_gradients;
            cfg.hist.subtraction = subtraction;
            cfg.hist.sparse_aware = sparse_aware;
            (cfg, monotone)
        },
    )
}

/// Every feature with a nonzero sign must move every raw output
/// monotonically: sweep it over its observed values on a few rows.
fn assert_monotone(model: &Model, ds: &Dataset, signs: &[i8], label: &str) {
    let x = ds.features();
    let (m, d) = (ds.m(), ds.d());
    for (f, &c) in signs.iter().enumerate().filter(|(_, &c)| c != 0) {
        let mut values: Vec<f32> = (0..ds.n()).map(|i| x.row(i)[f]).collect();
        values.sort_by(f32::total_cmp);
        values.dedup();
        for i in 0..ds.n().min(4) {
            let sweep: Vec<f32> = values
                .iter()
                .flat_map(|&v| {
                    let mut row = x.row(i).to_vec();
                    row[f] = v;
                    row
                })
                .collect();
            let pred = model.predict(&DenseMatrix::new(values.len(), m, sweep));
            for (lo, hi) in pred.chunks(d).zip(pred.chunks(d).skip(1)) {
                for k in 0..d {
                    assert!(
                        f32::from(c) * (hi[k] - lo[k]) >= -1e-6,
                        "{label}: feature {f} (sign {c}) output {k} moves {} -> {}",
                        lo[k],
                        hi[k]
                    );
                }
            }
        }
    }
}

/// Which observers to attach: profiler, full sanitizer, one telemetry
/// registry shared by the group, fault injector with an empty plan.
type Observers = (bool, bool, bool, bool);

fn attach(group: &DeviceGroup, (profiler, sanitizer, telemetry, faults): Observers) {
    let shared = Arc::new(Telemetry::new());
    for dev in group.devices() {
        if profiler {
            dev.enable_profiler();
        }
        if sanitizer {
            dev.enable_sanitizer(SanitizeMode::Full);
        }
        if telemetry {
            dev.attach_telemetry(Arc::clone(&shared));
        }
        if faults {
            dev.enable_faults(FaultPlan::default());
        }
    }
}

/// Every field of every retained charge record, floats as bits.
fn record_bits(dev: &Device) -> Vec<(&'static str, Phase, u64, u64, usize)> {
    dev.records()
        .iter()
        .map(|r| {
            (
                r.name,
                r.phase,
                r.ns.to_bits(),
                r.start_ns.to_bits(),
                r.stream,
            )
        })
        .collect()
}

/// How many retained charge records carry kernel `name`.
fn launches(dev: &Device, name: &str) -> usize {
    dev.records().iter().filter(|r| r.name == name).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_device_count_and_strategy_is_exact(
        n in 60usize..240,
        m in 2usize..10,
        classes in 2usize..5,
        k in 1usize..4,
        seed in 0u64..1000,
        space in config_space(),
        observers in (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
    ) {
        let ds = make_classification(&ClassificationSpec {
            instances: n,
            features: m,
            classes,
            informative: (m / 2).max(1),
            seed,
            ..Default::default()
        });
        let (mut drawn, monotone) = space;
        if monotone {
            drawn.monotone_constraints =
                (0..m).map(|f| [1i8, 0, -1][(seed as usize + f) % 3]).collect();
        }
        for cfg in [quick_config(2, 3), drawn] {
            let one = match GpuTrainer::try_new(Device::rtx4090(), cfg.clone()) {
                Ok(trainer) => trainer,
                Err(e) => {
                    // A configuration no placement accepts.
                    prop_assert!(!e.message().is_empty());
                    continue;
                }
            };
            let single = one.fit(&ds);
            assert_monotone(&single, &ds, &cfg.monotone_constraints, "single");
            for strategy in [MultiGpuStrategy::FeatureParallel, MultiGpuStrategy::DataParallel] {
                let label = format!("k={k} {strategy:?} {cfg:?}");
                let group = DeviceGroup::rtx4090s(k);
                let trainer =
                    match MultiGpuTrainer::try_with_strategy(group.clone(), cfg.clone(), strategy) {
                        Ok(trainer) => trainer,
                        Err(e) => {
                            prop_assert!(!e.message().is_empty(), "{}", label);
                            continue;
                        }
                    };
                let multi = trainer.fit(&ds);
                prop_assert_eq!(&single.trees, &multi.trees, "{}", label);
                prop_assert_eq!(
                    single.predict(ds.features()),
                    multi.predict(ds.features()),
                    "{}", label
                );
                assert_monotone(&multi, &ds, &cfg.monotone_constraints, &label);
                // Bulk-synchronous group: after training all device
                // clocks agree.
                let clocks: Vec<f64> = group.devices().iter().map(|d| d.now_ns()).collect();
                for w in clocks.windows(2) {
                    prop_assert!((w[0] - w[1]).abs() < 1e-6, "clocks diverged: {:?}", clocks);
                }
                prop_assert!(clocks[0] > 0.0);
                // Identical trees search and partition identical levels:
                // every device batches one split search and one
                // partition per level, as the single device does.
                for dev in group.devices() {
                    for kernel in ["split_scan_gain_level", "partition_level"] {
                        prop_assert_eq!(
                            launches(dev, kernel),
                            launches(one.device(), kernel),
                            "device {} {}: {}", dev.id, kernel, label
                        );
                    }
                }

                if observers == (false, false, false, false) {
                    continue;
                }
                let observed = DeviceGroup::rtx4090s(k);
                attach(&observed, observers);
                let watched = MultiGpuTrainer::try_with_strategy(observed.clone(), cfg.clone(), strategy)
                    .expect("accepted unobserved")
                    .fit(&ds);
                let label = format!("{label} observers={observers:?}");
                prop_assert_eq!(&multi.trees, &watched.trees, "{}", label);
                prop_assert_eq!(
                    multi.predict(ds.features()),
                    watched.predict(ds.features()),
                    "{}", label
                );
                for (plain, seen) in group.devices().iter().zip(observed.devices()) {
                    prop_assert!(
                        record_bits(plain) == record_bits(seen),
                        "device {} charge records differ: {}", plain.id, label
                    );
                }
            }
        }
    }

    #[test]
    fn feature_partition_is_always_a_partition(m in 1usize..200, k in 1usize..16) {
        let parts = gbdt_mo::core::multigpu::partition_features(m, k);
        prop_assert_eq!(parts.len(), k);
        let mut covered = 0;
        let mut prev_end = 0;
        for &(lo, hi) in &parts {
            prop_assert_eq!(lo, prev_end);
            prop_assert!(hi >= lo);
            covered += hi - lo;
            prev_end = hi;
        }
        prop_assert_eq!(covered, m);
        // Balanced to within one feature.
        let sizes: Vec<usize> = parts.iter().map(|&(a, b)| b - a).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(max - min <= 1);
    }
}
