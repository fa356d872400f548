//! Property-based tests of training-level invariants.
//!
//! Two contracts guard the level-parallel histogram pipeline:
//!
//! 1. **Subtraction exactness** — a sibling histogram derived as
//!    `parent − child` (either in place via `subtract_from` or into a
//!    pooled buffer via `assign_difference`) is *bit-identical* to
//!    building it directly from instance rows. Gradients are drawn from
//!    dyadic rationals (k/256) so every `f64` partial sum is exact and
//!    equality is well-defined down to the last bit.
//! 2. **Thread-count determinism** — the same seed produces the same
//!    model whether level histograms are built serially, in a 1-thread
//!    pool, or in a 4-thread pool, and the simulated device timeline is
//!    identical in all cases.

use gbdt_core::config::{HistOptions, TrainConfig};
use gbdt_core::grad::Gradients;
use gbdt_core::hist::{accumulate_only, HistContext, NodeHistogram};
use gbdt_core::GpuTrainer;
use gbdt_data::synth::{make_classification, ClassificationSpec};
use gbdt_data::{BinnedDataset, DenseMatrix};
use gpusim::Device;
use proptest::prelude::*;

const BINS: usize = 16;

/// Build a histogram over `idx` with the given options (charge-free).
fn build(
    device: &Device,
    data: &BinnedDataset,
    grads: &Gradients,
    features: &[u32],
    opts: HistOptions,
    idx: &[u32],
) -> NodeHistogram {
    let ctx = HistContext {
        device,
        data,
        grads,
        features,
        bins: BINS,
        opts,
    };
    let (node_g, node_h) = grads.sums(idx);
    let mut out = NodeHistogram::new(features.len(), grads.d, BINS);
    accumulate_only(&ctx, idx, &node_g, &node_h, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn subtraction_is_bit_identical_to_direct_build(
        // Feature values from a small discrete set: binning stays
        // meaningful and duplicated values exercise shared bins.
        raw in proptest::collection::vec(0u32..12, 24..240),
        m in 1usize..5,
        d in 1usize..4,
        // Dyadic gradients: k/256 with |k| < 1024 keeps every f64
        // partial sum exact, so bitwise equality must hold.
        gseed in 1u64..1_000_000,
        mask_mod in 2u32..7,
        sparse_aware in any::<bool>(),
    ) {
        let n = raw.len() / m;
        prop_assume!(n >= 8);
        let values: Vec<f32> = raw[..n * m].iter().map(|&v| v as f32).collect();
        let matrix = DenseMatrix::new(n, m, values);
        let data = BinnedDataset::build(&matrix, BINS);

        // Deterministic dyadic gradients from a cheap LCG.
        let mut state = gseed;
        let mut dyadic = |lo: i64, hi: i64| -> f32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let span = (hi - lo) as u64;
            let k = lo + ((state >> 33) % span) as i64;
            (k as f32) / 256.0
        };
        let g: Vec<f32> = (0..n * d).map(|_| dyadic(-1024, 1024)).collect();
        let h: Vec<f32> = (0..n * d).map(|_| dyadic(1, 1024)).collect();
        let grads = Gradients { g, h, n, d };

        let device = Device::rtx4090();
        let features: Vec<u32> = (0..m as u32).collect();
        let opts = HistOptions { sparse_aware, ..HistOptions::default() };

        let all: Vec<u32> = (0..n as u32).collect();
        let left: Vec<u32> = all.iter().copied().filter(|i| i % mask_mod == 0).collect();
        let right: Vec<u32> = all.iter().copied().filter(|i| i % mask_mod != 0).collect();
        prop_assume!(!left.is_empty() && !right.is_empty());

        let parent = build(&device, &data, &grads, &features, opts, &all);
        let left_direct = build(&device, &data, &grads, &features, opts, &left);
        let right_direct = build(&device, &data, &grads, &features, opts, &right);

        // Path 1: in-place subtract_from (seed API).
        let mut derived = left_direct.clone();
        derived.subtract_from(&parent); // parent − left = right
        prop_assert_eq!(&derived.counts, &right_direct.counts);
        prop_assert_eq!(&derived.g, &right_direct.g, "g not bit-identical (subtract_from)");
        prop_assert_eq!(&derived.h, &right_direct.h, "h not bit-identical (subtract_from)");

        // Path 2: assign_difference into a dirty pooled buffer (the
        // level-parallel grower's path). Pre-poison the buffer to prove
        // every element is overwritten.
        let mut pooled = NodeHistogram::new(m, d, BINS);
        pooled.g.fill(f64::NAN);
        pooled.h.fill(f64::NAN);
        pooled.counts.fill(u32::MAX);
        pooled.assign_difference(&parent, &left_direct);
        prop_assert_eq!(&pooled.counts, &right_direct.counts);
        prop_assert_eq!(&pooled.g, &right_direct.g, "g not bit-identical (assign_difference)");
        prop_assert_eq!(&pooled.h, &right_direct.h, "h not bit-identical (assign_difference)");
    }

    #[test]
    fn same_seed_same_model_at_any_thread_count(
        seed in 1u64..500,
        subtraction in any::<bool>(),
    ) {
        let ds = make_classification(&ClassificationSpec {
            instances: 220,
            features: 8,
            classes: 3,
            informative: 5,
            class_sep: 1.5,
            seed,
            ..Default::default()
        });
        let mut config = TrainConfig {
            num_trees: 3,
            max_depth: 4,
            max_bins: BINS,
            min_instances: 4,
            ..TrainConfig::default()
        };
        config.hist.subtraction = subtraction;

        let run = |threads: usize| {
            let device = Device::rtx4090();
            let trainer = GpuTrainer::new(device.clone(), config.clone());
            let report = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| trainer.fit_report(&ds));
            (report.model.trees.clone(), device.now_ns())
        };

        let (trees_1, ns_1) = run(1);
        let (trees_4, ns_4) = run(4);

        prop_assert_eq!(&trees_1, &trees_4, "1-thread vs 4-thread models differ");
        prop_assert_eq!(ns_1, ns_4, "simulated time depends on thread count");
    }
}
