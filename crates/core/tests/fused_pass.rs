//! Differential test of the grower's one pass per node against the
//! two-pass path.
//!
//! The grower produces each feature's histogram slab (zero and
//! accumulate, or `parent − sibling`) and scans it for that feature's
//! best threshold in the same task. The reference grower below is the
//! two-pass path the public API keeps: build the whole histogram
//! (`accumulate_only`, or `assign_difference` for a node the
//! subtraction trick derives), then call `find_best_split_range` over
//! each placement's feature ranges and keep a strictly greater gain
//! across ranges. It follows the production plan for which child
//! derives, so every histogram element has the same floating-point
//! history on both sides.
//!
//! The sweep covers the dense and sparse accumulators, subtraction on
//! and off, monotone constraints on and off and quantized gradients,
//! on one device, feature-parallel over 2 and 3 devices and
//! data-parallel over 2. Trees must be bit-identical to the
//! reference's. Before each tree of the pooled run, every pooled buffer
//! is filled with NaN, so a slab the pass does not fully rewrite
//! poisons the tree. Each run's ledger records are fingerprinted
//! against `golden/fused_pass_charges.txt`, which the two-pass grower
//! wrote; regenerate it after an intentional cost-model change with
//! `UPDATE_GOLDEN=1 cargo test -p gbdt-core --test fused_pass`.

use gbdt_core::config::TrainConfig;
use gbdt_core::grad::{compute_gradients, quantize_bf16, update_scores_from_leaves, Gradients};
use gbdt_core::grow::grow_tree_pooled;
use gbdt_core::hist::{accumulate_only, HistContext, NodeHistogram};
use gbdt_core::loss::loss_for_task;
use gbdt_core::memory::HistogramPool;
use gbdt_core::multigpu::partition_features;
use gbdt_core::split::{
    find_best_split_range, leaf_values, ConstraintState, SplitCandidate, SplitParams,
};
use gbdt_core::trainer::base_scores;
use gbdt_core::{GpuTrainer, MultiGpuStrategy, MultiGpuTrainer, Node, Tree};
use gbdt_data::synth::{make_classification, ClassificationSpec};
use gbdt_data::{BinnedDataset, Dataset, DenseMatrix};
use gpusim::{Device, DeviceGroup};
use std::fmt::Write;
use std::sync::Arc;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/fused_pass_charges.txt"
);

const M: usize = 9;

/// Six generated features plus copies of features 0–2 as features 6–8.
/// A copy ties its original bit for bit on every threshold, and under
/// feature parallelism over 2 or 3 devices the two sit on different
/// devices: the lower rank must win, as the single device's lowest
/// feature does.
fn dataset() -> Dataset {
    let base = make_classification(&ClassificationSpec {
        instances: 400,
        features: 6,
        classes: 3,
        informative: 4,
        sparsity: 0.4,
        seed: 11,
        ..Default::default()
    });
    let n = base.n();
    let mut x = Vec::with_capacity(n * M);
    for i in 0..n {
        let row = base.features().row(i);
        x.extend_from_slice(row);
        x.extend_from_slice(&row[..3]);
    }
    Dataset::new(
        DenseMatrix::new(n, M, x),
        base.targets().to_vec(),
        base.d(),
        base.task(),
    )
}

fn config(sparse: bool, subtraction: bool, monotone: bool, quantized: bool) -> TrainConfig {
    let mut cfg = TrainConfig {
        num_trees: 3,
        max_depth: 4,
        max_bins: 16,
        min_instances: 5,
        ..TrainConfig::default()
    };
    cfg.hist.sparse_aware = sparse;
    cfg.hist.subtraction = subtraction;
    cfg.hist.quantized_gradients = quantized;
    if monotone {
        cfg.monotone_constraints = vec![1, -1, 0, 1, 0, -1, 1, -1, 0];
    }
    cfg
}

/// Where the split search runs: one feature range per device.
#[derive(Clone, Copy, Debug)]
enum Place {
    Single,
    FeatureParallel(usize),
    DataParallel(usize),
}

impl Place {
    fn ranges(self) -> Vec<(usize, usize)> {
        match self {
            Place::FeatureParallel(k) => partition_features(M, k),
            Place::Single | Place::DataParallel(_) => vec![(0, M)],
        }
    }
}

// ---- the two-pass reference grower ----------------------------------

/// Each leaf's instances and values, as the trainer's score update takes them.
type Leaves = Vec<(Vec<u32>, Vec<f32>)>;

enum Source {
    Build,
    Derive { parent: usize, sibling: usize },
}

struct Work {
    tree_node: usize,
    instances: Vec<u32>,
    g: Vec<f64>,
    h: Vec<f64>,
    source: Source,
    bounds: Option<Vec<(f64, f64)>>,
}

fn clamp_leaf(values: &mut [f32], bounds: &[(f64, f64)], learning_rate: f32) {
    for (v, &(lo, hi)) in values.iter_mut().zip(bounds) {
        let unscaled = (*v / learning_rate) as f64;
        *v = (unscaled.clamp(lo, hi) as f32) * learning_rate;
    }
}

/// Two-pass split: `find_best_split_range` per range on the complete
/// histogram, strictly greater gain across ranges.
fn two_pass_split(
    hist: &NodeHistogram,
    features: &[u32],
    ranges: &[(usize, usize)],
    work: &Work,
    params: &SplitParams,
    constraints: Option<&ConstraintState<'_>>,
) -> Option<SplitCandidate> {
    let scratch = Device::rtx4090();
    let mut best: Option<SplitCandidate> = None;
    for &(lo, hi) in ranges {
        let local = find_best_split_range(
            &scratch,
            hist,
            features,
            lo,
            hi,
            &work.g,
            &work.h,
            work.instances.len() as u32,
            params,
            constraints,
        );
        if let Some(c) = local {
            if best.as_ref().is_none_or(|b| c.gain > b.gain) {
                best = Some(c);
            }
        }
    }
    best
}

fn reference_grow(
    data: &BinnedDataset,
    grads: &Gradients,
    cfg: &TrainConfig,
    ranges: &[(usize, usize)],
) -> (Tree, Leaves) {
    let d = grads.d;
    let features: Vec<u32> = (0..M as u32).collect();
    let scratch = Device::rtx4090();
    let ctx = HistContext {
        device: &scratch,
        data,
        grads,
        features: &features,
        bins: cfg.max_bins,
        opts: cfg.hist,
    };
    let params = SplitParams {
        lambda: cfg.lambda,
        min_gain: cfg.min_gain,
        min_instances: cfg.min_instances,
        segments_c: cfg.segments_per_block_c,
    };
    let build = |work: &Work| {
        let mut hist = NodeHistogram::new(M, d, cfg.max_bins);
        accumulate_only(&ctx, &work.instances, &work.g, &work.h, &mut hist);
        hist
    };
    let mut tree = Tree::new(d);
    let mut leaves = Vec::new();
    let leaf = |tree: &mut Tree, leaves: &mut Vec<_>, work: Work| {
        let mut v = leaf_values(&work.g, &work.h, cfg.lambda, cfg.learning_rate);
        if let Some(b) = &work.bounds {
            clamp_leaf(&mut v, b, cfg.learning_rate);
        }
        tree.set_leaf(work.tree_node, v.clone());
        leaves.push((work.instances, v));
    };

    let root: Vec<u32> = (0..grads.n as u32).collect();
    let (g, h) = grads.sums(&root);
    let constrained = !cfg.monotone_constraints.is_empty();
    let mut frontier = vec![Work {
        tree_node: 0,
        instances: root,
        g,
        h,
        source: Source::Build,
        bounds: constrained.then(|| vec![(f64::NEG_INFINITY, f64::INFINITY); d]),
    }];
    let mut parents: Vec<NodeHistogram> = Vec::new();
    for depth in 0..cfg.max_depth {
        let splittable = |w: &Work| w.instances.len() >= 2 * cfg.min_instances;
        // Fresh builds first, then `parent − sibling` derives.
        let mut hists: Vec<Option<NodeHistogram>> = frontier
            .iter()
            .map(|w| (splittable(w) && matches!(w.source, Source::Build)).then(|| build(w)))
            .collect();
        for (i, w) in frontier.iter().enumerate() {
            if let Source::Derive { parent, sibling } = w.source {
                let mut out = NodeHistogram::new(M, d, cfg.max_bins);
                out.assign_difference(&parents[parent], hists[sibling].as_ref().unwrap());
                hists[i] = Some(out);
            }
        }
        let mut next = Vec::new();
        let mut next_parents = Vec::new();
        for (i, work) in std::mem::take(&mut frontier).into_iter().enumerate() {
            let Some(hist) = hists[i].take() else {
                leaf(&mut tree, &mut leaves, work);
                continue;
            };
            let state = work.bounds.as_ref().map(|b| ConstraintState {
                monotone: &cfg.monotone_constraints,
                bounds: b,
            });
            let Some(split) =
                two_pass_split(&hist, &features, ranges, &work, &params, state.as_ref())
            else {
                leaf(&mut tree, &mut leaves, work);
                continue;
            };
            let col = data.bins.col(split.feature as usize);
            let (left_idx, right_idx): (Vec<u32>, Vec<u32>) = work
                .instances
                .iter()
                .partition(|&&i| col[i as usize] <= split.bin);
            let threshold = data.cuts.threshold(split.feature as usize, split.bin);
            let (l, r) = tree.split_node(work.tree_node, split.feature, split.bin, threshold);
            let right_g: Vec<f64> = work
                .g
                .iter()
                .zip(&split.left_g)
                .map(|(a, b)| a - b)
                .collect();
            let right_h: Vec<f64> = work
                .h
                .iter()
                .zip(&split.left_h)
                .map(|(a, b)| a - b)
                .collect();
            let (mut lb, mut rb) = (work.bounds.clone(), work.bounds.clone());
            if let (Some(pb), Some(lb), Some(rb)) = (&work.bounds, &mut lb, &mut rb) {
                let c = cfg.monotone_constraints[split.feature as usize];
                if c != 0 {
                    for k in 0..d {
                        let (lo, hi) = pb[k];
                        let vl =
                            (-(split.left_g[k] / (split.left_h[k] + cfg.lambda))).clamp(lo, hi);
                        let vr = (-(right_g[k] / (right_h[k] + cfg.lambda))).clamp(lo, hi);
                        let mid = 0.5 * (vl + vr);
                        if c > 0 {
                            lb[k].1 = lb[k].1.min(mid);
                            rb[k].0 = rb[k].0.max(mid);
                        } else {
                            lb[k].0 = lb[k].0.max(mid);
                            rb[k].1 = rb[k].1.min(mid);
                        }
                    }
                }
            }
            let (mut ls, mut rs) = (Source::Build, Source::Build);
            let smaller = left_idx.len().min(right_idx.len());
            if cfg.hist.subtraction && depth + 1 < cfg.max_depth && smaller >= 2 * cfg.min_instances
            {
                let parent = next_parents.len();
                if left_idx.len() <= right_idx.len() {
                    rs = Source::Derive {
                        parent,
                        sibling: next.len(),
                    };
                } else {
                    ls = Source::Derive {
                        parent,
                        sibling: next.len() + 1,
                    };
                }
                next_parents.push(hist);
            }
            next.push(Work {
                tree_node: l,
                instances: left_idx,
                g: split.left_g,
                h: split.left_h,
                source: ls,
                bounds: lb,
            });
            next.push(Work {
                tree_node: r,
                instances: right_idx,
                g: right_g,
                h: right_h,
                source: rs,
                bounds: rb,
            });
        }
        frontier = next;
        parents = next_parents;
        if frontier.is_empty() {
            break;
        }
    }
    for work in frontier {
        leaf(&mut tree, &mut leaves, work);
    }
    (tree, leaves)
}

/// The boosting loop the trainer runs for this sweep's configs (no row
/// or column sampling, no sketch), growing each tree with `grow`.
fn boost(
    ds: &Dataset,
    cfg: &TrainConfig,
    device: &Device,
    mut grow: impl FnMut(&BinnedDataset, &Gradients) -> (Tree, Leaves),
) -> Vec<Tree> {
    let (n, d) = (ds.n(), ds.d());
    let binned = BinnedDataset::build(ds.features(), cfg.max_bins);
    let loss = loss_for_task(ds.task());
    let base = base_scores(ds);
    let mut scores: Vec<f32> = base.iter().copied().cycle().take(n * d).collect();
    let mut trees = Vec::new();
    for _ in 0..cfg.num_trees {
        let mut grads = compute_gradients(device, loss.as_ref(), &scores, ds.targets(), n, d);
        if cfg.hist.quantized_gradients {
            quantize_bf16(device, &mut grads);
        }
        let (tree, leaves) = grow(&binned, &grads);
        update_scores_from_leaves(device, &mut scores, d, &leaves);
        trees.push(tree);
    }
    trees
}

// ---- fingerprints ---------------------------------------------------

/// FNV-1a over one device's ordered charge records.
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

fn fingerprint(out: &mut String, cell: &str, devices: &[Arc<Device>]) {
    for (rank, dev) in devices.iter().enumerate() {
        let s = dev.summary();
        writeln!(
            out,
            "{cell} dev{rank} total={:016x} kernels={} records={:016x}",
            s.total_ns.to_bits(),
            s.kernel_count,
            records_hash(dev)
        )
        .unwrap();
    }
}

fn assert_same_trees(got: &[Tree], want: &[Tree], cell: &str) {
    assert_eq!(got.len(), want.len(), "{cell}: tree count");
    for (t, (a, b)) in got.iter().zip(want).enumerate() {
        // Debug prints every float in round-trip form: equal text is
        // equal bits (NaN aside, which the reference never produces).
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{cell}: tree {t} differs"
        );
    }
}

/// Every pooled buffer, NaN: a slab the next tree does not rewrite in
/// full leaks NaN into its gains and leaf values.
fn poison(pool: &mut HistogramPool, buffers: usize) {
    let mut held: Vec<NodeHistogram> = (0..buffers).map(|_| pool.acquire()).collect();
    for hist in &mut held {
        hist.g.fill(f64::NAN);
        hist.h.fill(f64::NAN);
        // Counts are integers: the largest value still trips the
        // parent-minus-sibling underflow check if left in place.
        hist.counts.fill(u32::MAX);
    }
    for hist in held {
        pool.release(hist);
    }
}

#[test]
fn one_pass_grower_matches_the_two_pass_reference() {
    let ds = dataset();
    let mut golden = String::new();
    let (mut splits, mut copies_split, mut originals_split) = (0, 0, 0);
    for sparse in [false, true] {
        for subtraction in [false, true] {
            for monotone in [false, true] {
                for quantized in [false, true] {
                    let cfg = config(sparse, subtraction, monotone, quantized);
                    let cell = format!(
                        "sparse={sparse} sub={subtraction} mono={monotone} quant={quantized}"
                    );
                    let scratch = Device::rtx4090();
                    let reference = |place: Place| {
                        let ranges = place.ranges();
                        boost(&ds, &cfg, &scratch, |data, grads| {
                            reference_grow(data, grads, &cfg, &ranges)
                        })
                    };
                    let want = reference(Place::Single);
                    splits += want.iter().map(|t| t.num_leaves() - 1).sum::<usize>();
                    for node in want.iter().flat_map(|t| t.nodes()) {
                        if let Node::Split { feature, .. } = node {
                            copies_split += (*feature >= 6) as usize;
                            originals_split += (*feature < 3) as usize;
                        }
                    }

                    // The public pooled grower over NaN-filled buffers.
                    let device = Device::rtx4090();
                    let features: Vec<u32> = (0..M as u32).collect();
                    let mut pool = HistogramPool::new(M, ds.d(), cfg.max_bins);
                    let pooled = boost(&ds, &cfg, &device, |data, grads| {
                        poison(&mut pool, 32);
                        let root: Vec<u32> = (0..grads.n as u32).collect();
                        let grown = grow_tree_pooled(
                            &device, data, grads, &cfg, &features, root, &mut pool,
                        );
                        (grown.tree, grown.leaf_assignments)
                    });
                    assert!(
                        pool.allocated() <= 32,
                        "{cell}: pool outgrew the poisoned set"
                    );
                    assert_same_trees(&pooled, &want, &format!("{cell} pooled"));
                    fingerprint(&mut golden, &format!("{cell} pooled"), &[device]);

                    for place in [
                        Place::Single,
                        Place::FeatureParallel(2),
                        Place::FeatureParallel(3),
                        Place::DataParallel(2),
                    ] {
                        let label = format!("{cell} {place:?}");
                        let (model, devices) = match place {
                            Place::Single => {
                                let dev = Device::rtx4090();
                                let trainer = GpuTrainer::try_new(dev.clone(), cfg.clone())
                                    .expect("valid config");
                                (trainer.try_fit_report(&ds).unwrap().model, vec![dev])
                            }
                            Place::FeatureParallel(k) | Place::DataParallel(k) => {
                                let strategy = match place {
                                    Place::FeatureParallel(_) => MultiGpuStrategy::FeatureParallel,
                                    _ => MultiGpuStrategy::DataParallel,
                                };
                                let group = DeviceGroup::rtx4090s(k);
                                let trainer = match MultiGpuTrainer::try_with_strategy(
                                    group.clone(),
                                    cfg.clone(),
                                    strategy,
                                ) {
                                    Ok(t) => t,
                                    Err(e) => {
                                        // Data-parallel rejects subtraction.
                                        assert!(subtraction, "{label}: {e}");
                                        continue;
                                    }
                                };
                                let model = trainer.try_fit_report(&ds).unwrap().model;
                                (model, group.devices().to_vec())
                            }
                        };
                        // The split rule is placement-independent, and
                        // so must each range's two-pass search be.
                        assert_same_trees(&reference(place), &want, &label);
                        assert_same_trees(&model.trees, &want, &label);
                        fingerprint(&mut golden, &label, &devices);
                    }
                }
            }
        }
    }
    assert!(
        splits > 16 * 3,
        "the sweep must grow real trees ({splits} splits)"
    );
    assert!(
        copies_split == 0,
        "a copied feature beat its original on a tie"
    );
    assert!(
        originals_split > 0,
        "features 0–2 must win splits, or no tie is exercised"
    );

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &golden).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden missing: run with UPDATE_GOLDEN=1 to create it");
    for (got, want) in golden.lines().zip(expected.lines()) {
        assert_eq!(got, want, "charge records differ from the two-pass grower");
    }
    assert_eq!(golden.lines().count(), expected.lines().count());
}
