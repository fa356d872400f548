//! Level-wise tree growth (paper Algorithm 1).
//!
//! The frontier of open nodes is processed one depth level at a time in
//! a **two-stage pass**:
//!
//! 1. **Histogram build and scan** — one parallel pass per node over
//!    feature slabs ([`build_and_scan`]): each task produces one
//!    feature's slab (zero it and accumulate, or derive
//!    `parent − sibling`) and scans it for that feature's best
//!    threshold while it is still in cache. With the subtraction trick,
//!    the level's fresh builds run first, in node-index order, into
//!    pooled buffers; then subtraction-inherited nodes derive from the
//!    parent buffer that survived the previous level. Without it, stage
//!    1 is skipped and each node's pass runs in stage 2 over a single
//!    hot pooled buffer. Host parallelism lives inside each pass (over
//!    features), not across nodes.
//! 2. **Split selection** — nodes are visited strictly in node-index
//!    order: device charges are issued, the placement picks the best
//!    split from the node's per-feature bests, and instances are
//!    partitioned into the children.
//!
//! Because stage 2 is serial and consumes nodes in node-index order,
//! the grown tree and the simulated timeline are bit-identical at any
//! host thread count.
//! Histogram buffers come from a [`HistogramPool`] reused across
//! levels and trees; on the subtraction path the parent's buffer stays
//! alive (owned by the level loop) until both children have resolved.
//!
//! This is the only grower: one device and every multi-GPU layout run
//! it. Which device charges each build, split search and partition —
//! and how a level's results are exchanged across devices — is the
//! [`crate::multigpu`] placement's decision; the functional work above
//! runs once on the lead device regardless.

use crate::config::{HistogramMethod, TrainConfig};
use crate::grad::Gradients;
use crate::hist::{build_and_scan, HistContext, NodeHistogram, SlabSource};
use crate::memory::HistogramPool;
use crate::multigpu::Placement;
use crate::split::{leaf_values, ConstraintState, NodeScan, SplitParams};
use crate::tree::Tree;
use gbdt_data::BinnedDataset;
use gpusim::Device;
use std::collections::BTreeMap;

/// Stable in-order partition of `idx` by `flags` (`true` → left). The
/// functional core of the scan-based partition kernel; the grower's
/// placement charges its cost.
pub fn partition_stable(idx: &[u32], flags: &[bool]) -> (Vec<u32>, Vec<u32>) {
    debug_assert_eq!(idx.len(), flags.len());
    let mut left = Vec::with_capacity(idx.len());
    let mut right = Vec::with_capacity(idx.len());
    for (&i, &f) in idx.iter().zip(flags) {
        if f {
            left.push(i);
        } else {
            right.push(i);
        }
    }
    (left, right)
}

/// Where a frontier node's histogram comes from in the level's build
/// stage.
#[derive(Debug, Clone, Copy)]
enum HistSource {
    /// Accumulate from instance data (fresh build; charged as a
    /// histogram kernel).
    Build,
    /// Derive as `parents[parent] − sibling's histogram` — the
    /// subtraction trick. The sibling (at frontier index `sibling`,
    /// always the smaller child) builds fresh in the same level; the
    /// parent's buffer survived the previous level for exactly this.
    Derive { parent: usize, sibling: usize },
}

/// One open node during growth.
struct NodeWork {
    /// Index of this node in the tree.
    tree_node: usize,
    /// Instances resident in the node.
    instances: Vec<u32>,
    /// Per-output gradient totals.
    g: Vec<f64>,
    /// Per-output Hessian totals.
    h: Vec<f64>,
    /// How this node's histogram is produced.
    source: HistSource,
    /// Per-output leaf-value bounds from constrained ancestors (only
    /// allocated when monotone constraints are active).
    bounds: Option<Vec<(f64, f64)>>,
}

/// Clamp raw leaf values into a node's monotonicity bounds (before the
/// learning-rate scaling that `leaf_values` applies uniformly).
fn clamp_leaf(values: &mut [f32], bounds: &[(f64, f64)], learning_rate: f32) {
    for (v, &(lo, hi)) in values.iter_mut().zip(bounds) {
        let unscaled = (*v / learning_rate) as f64;
        *v = (unscaled.clamp(lo, hi) as f32) * learning_rate;
    }
}

/// A node's histogram and the per-feature `(bin, gain)` bests its
/// one pass returned.
type Scanned = (NodeHistogram, Vec<(usize, f64)>);

/// Run a node's one pass ([`build_and_scan`]) from `source` into a
/// pooled buffer, scanning under the node's totals and monotone bounds.
fn build_scanned(
    ctx: &HistContext<'_>,
    pool: &mut HistogramPool,
    work: &NodeWork,
    source: SlabSource<'_>,
    params: &SplitParams,
    monotone: &[i8],
) -> Scanned {
    let state = work
        .bounds
        .as_ref()
        .map(|bounds| ConstraintState { monotone, bounds });
    let scan = NodeScan {
        node_g: &work.g,
        node_h: &work.h,
        node_count: work.instances.len() as u32,
        params,
        constraints: state.as_ref(),
    };
    let mut buf = pool.acquire();
    let bests = build_and_scan(ctx, source, &mut buf, &scan);
    (buf, bests)
}

/// [`SlabSource::Accumulate`] over a node's own instances and totals.
fn accumulate(work: &NodeWork) -> SlabSource<'_> {
    SlabSource::Accumulate {
        idx: &work.instances,
        node_g: &work.g,
        node_h: &work.h,
    }
}

/// Result of growing one tree.
pub struct GrowResult {
    /// The finished tree.
    pub tree: Tree,
    /// `(instances, leaf value)` per leaf — input to the incremental
    /// score update.
    pub leaf_assignments: Vec<(Vec<u32>, Vec<f32>)>,
    /// Tree-node index of each entry in `leaf_assignments` (lets
    /// post-processing — e.g. SketchBoost's full-dimensional leaf
    /// refit — rewrite leaf values in place).
    pub leaf_nodes: Vec<usize>,
    /// How many nodes each histogram method handled (adaptive
    /// selection telemetry, reported by the ablation benches).
    pub methods_used: BTreeMap<HistogramMethod, usize>,
}

/// Grow one tree over `features` (global IDs) on `device`, rooting at
/// all instances.
pub fn grow_tree(
    device: &Device,
    data: &BinnedDataset,
    grads: &Gradients,
    config: &TrainConfig,
    features: &[u32],
) -> GrowResult {
    let root_idx: Vec<u32> = (0..grads.n as u32).collect();
    grow_tree_on(device, data, grads, config, features, root_idx)
}

/// Grow one tree rooted at an explicit instance subset (stochastic
/// gradient boosting's per-tree row sample). Allocates a private
/// [`HistogramPool`]; the trainer's tree loop uses
/// [`grow_tree_pooled`] to reuse buffers across trees.
pub fn grow_tree_on(
    device: &Device,
    data: &BinnedDataset,
    grads: &Gradients,
    config: &TrainConfig,
    features: &[u32],
    root_idx: Vec<u32>,
) -> GrowResult {
    let mut pool = HistogramPool::new(features.len(), grads.d, config.max_bins);
    grow_tree_pooled(device, data, grads, config, features, root_idx, &mut pool)
}

/// [`grow_tree_on`] with a caller-owned histogram-buffer pool, so
/// consecutive trees reuse the same multi-MB allocations.
///
/// The grower is deliberately sketch-agnostic: every histogram shape,
/// cost estimate, and leaf value is sized by `grads.d` — the width of
/// whatever gradient matrix it is handed. Under gradient sketching
/// ([`crate::sketch`]) the trainer passes an `n × k` sketch here (so
/// the whole structure search runs at effective dimension `k`) and then
/// overwrites the resulting leaves from the full-`d` gradients with
/// [`crate::sketch::refit_leaves_full_d`].
pub fn grow_tree_pooled(
    device: &Device,
    data: &BinnedDataset,
    grads: &Gradients,
    config: &TrainConfig,
    features: &[u32],
    root_idx: Vec<u32>,
    pool: &mut HistogramPool,
) -> GrowResult {
    let single = Placement::Single(device);
    grow_tree_placed(&single, data, grads, config, features, root_idx, pool)
}

/// The level grower behind every placement: [`grow_tree_pooled`] with
/// the device charges of each build, split search, partition and
/// level join issued through `placement` (the lead device runs the
/// functional computation, which is placement-independent — so is the
/// grown tree).
pub(crate) fn grow_tree_placed(
    placement: &Placement<'_>,
    data: &BinnedDataset,
    grads: &Gradients,
    config: &TrainConfig,
    features: &[u32],
    root_idx: Vec<u32>,
    pool: &mut HistogramPool,
) -> GrowResult {
    let device = placement.lead();
    let d = grads.d;
    pool.ensure_shape(features.len(), d, config.max_bins);
    let ctx = HistContext {
        device,
        data,
        grads,
        features,
        bins: config.max_bins,
        opts: config.hist,
    };
    let params = SplitParams {
        lambda: config.lambda,
        min_gain: config.min_gain,
        min_instances: config.min_instances,
        segments_c: config.segments_per_block_c,
    };

    let mut tree = Tree::new(d);
    let mut leaf_assignments: Vec<(Vec<u32>, Vec<f32>)> = Vec::new();
    let mut leaf_nodes: Vec<usize> = Vec::new();
    let mut methods_used: BTreeMap<HistogramMethod, usize> = BTreeMap::new();

    let constrained = !config.monotone_constraints.is_empty();
    if constrained {
        assert_eq!(
            config.monotone_constraints.len(),
            data.m(),
            "monotone_constraints must have one entry per feature"
        );
    }
    let (root_g, root_h) = grads.sums(&root_idx);
    let mut frontier = vec![NodeWork {
        tree_node: 0,
        instances: root_idx,
        g: root_g,
        h: root_h,
        source: HistSource::Build,
        bounds: constrained.then(|| vec![(f64::NEG_INFINITY, f64::INFINITY); d]),
    }];
    // Parent histograms surviving from the previous level so that
    // `HistSource::Derive` children can subtract against them.
    let mut parents: Vec<NodeHistogram> = Vec::new();
    let mut charges = placement.level_charges(config.streams);

    for depth in 0..config.max_depth {
        // Per-level profiling scope nested under the trainer's round
        // scope (no-op when profiling is off; purely observational).
        let _level_scope = device.prof_scope("level", Some(depth as u64));
        let mut next = Vec::new();
        let mut next_parents: Vec<NodeHistogram> = Vec::new();
        charges.begin_level();

        // ---- stage 1: histogram build and scan ---------------------
        // Subtraction derives must see their sibling's and parent's
        // buffers at once, so that path runs the level's fresh passes
        // up front, in node order. Otherwise each node's pass runs
        // immediately before its split is selected (in stage 2),
        // keeping a single hot buffer resident in cache. Either way
        // every buffer comes from the pool and all build and search
        // charges are issued in stage 2's node-index order.
        let batch = config.hist.subtraction;
        let monotone = &config.monotone_constraints;
        let mut scanned: Vec<Option<Scanned>> = frontier.iter().map(|_| None).collect();
        if batch {
            // Nodes too small to split get no histogram.
            for (i, work) in frontier.iter().enumerate() {
                if work.instances.len() < 2 * config.min_instances {
                    debug_assert!(
                        matches!(work.source, HistSource::Build),
                        "derive nodes are at least 2×min_instances by construction"
                    );
                    continue;
                }
                if matches!(work.source, HistSource::Build) {
                    let source = accumulate(work);
                    scanned[i] = Some(build_scanned(&ctx, pool, work, source, &params, monotone));
                }
            }

            // Subtraction-inherited nodes derive `parent − sibling`
            // (one streaming pass, charged per node); afterwards the
            // parent buffers return to the pool.
            for (i, work) in frontier.iter().enumerate() {
                let HistSource::Derive { parent, sibling } = work.source else {
                    continue;
                };
                let (sibling, _) = scanned[sibling]
                    .as_ref()
                    .expect("smaller sibling builds fresh in the same level");
                let source = SlabSource::Difference {
                    parent: &parents[parent],
                    sibling,
                };
                let derived = build_scanned(&ctx, pool, work, source, &params, monotone);
                charges.charge_subtract(features, d, config.max_bins);
                scanned[i] = Some(derived);
            }
        }
        for p in parents.drain(..) {
            pool.release(p);
        }

        // ---- stage 2: split selection, node-index order ------------
        for (i, work) in std::mem::take(&mut frontier).into_iter().enumerate() {
            // Un-batched levels run the node's pass right here, just
            // before it is consumed (same pooled buffer every node).
            let node_scan = scanned[i].take().or_else(|| {
                (!batch && work.instances.len() >= 2 * config.min_instances)
                    .then(|| build_scanned(&ctx, pool, &work, accumulate(&work), &params, monotone))
            });
            let NodeWork {
                tree_node,
                instances,
                g,
                h,
                source,
                bounds,
            } = work;

            let leaf_bounds = bounds.clone();
            let mut finalize_leaf = |tree: &mut Tree, instances: Vec<u32>, g: &[f64], h: &[f64]| {
                let mut v = leaf_values(g, h, config.lambda, config.learning_rate);
                if let Some(b) = &leaf_bounds {
                    clamp_leaf(&mut v, b, config.learning_rate);
                }
                crate::sanitize::trace_leaf_values(device, v.len());
                tree.set_leaf(tree_node, v.clone());
                leaf_assignments.push((instances, v));
                leaf_nodes.push(tree_node);
            };

            let Some((hist, bests)) = node_scan else {
                // Too small to split (no histogram was built).
                finalize_leaf(&mut tree, instances, &g, &h);
                continue;
            };

            // Device charge for the fresh build, issued strictly in
            // node-index order so the stream-scheduling (LPT) outcome
            // is independent of how stage 1 was parallelized.
            if matches!(source, HistSource::Build) {
                charges.charge_build(&ctx, &instances, &mut methods_used);
            }

            let split =
                charges.find_split(&hist, features, &bests, instances.len() as u32, &params);
            let Some(split) = split else {
                pool.release(hist);
                finalize_leaf(&mut tree, instances, &g, &h);
                continue;
            };
            if let Some(tel) = device.telemetry() {
                // Observer only: the split decision above is final.
                tel.hist_observe("train.split_gain", split.gain);
            }

            // Partition instances by the winning condition (Algorithm 1
            // lines 16–17); the placement charges the partition kernels
            // (level-batched where it can).
            let col = data.bins.col(split.feature as usize);
            let flags: Vec<bool> = instances
                .iter()
                .map(|&i| col[i as usize] <= split.bin)
                .collect();
            charges.route(&split, &flags);
            let (left_idx, right_idx) = partition_stable(&instances, &flags);
            debug_assert_eq!(left_idx.len(), split.left_count as usize);
            debug_assert_eq!(right_idx.len(), split.right_count as usize);

            let threshold = data.cuts.threshold(split.feature as usize, split.bin);
            let (l, r) = tree.split_node(tree_node, split.feature, split.bin, threshold);

            let right_g: Vec<f64> = g.iter().zip(&split.left_g).map(|(a, b)| a - b).collect();
            let right_h: Vec<f64> = h.iter().zip(&split.left_h).map(|(a, b)| a - b).collect();

            // Monotone bound propagation: a constrained split fixes the
            // midpoint of the two (clamped) child values as the new
            // boundary between the children's admissible intervals.
            let (left_bounds, right_bounds) = if let Some(parent_bounds) = &bounds {
                let c = config.monotone_constraints[split.feature as usize];
                let mut lb = parent_bounds.clone();
                let mut rb = parent_bounds.clone();
                if c != 0 {
                    for k in 0..d {
                        let (lo, hi) = parent_bounds[k];
                        let vl =
                            (-(split.left_g[k] / (split.left_h[k] + config.lambda))).clamp(lo, hi);
                        let vr = (-(right_g[k] / (right_h[k] + config.lambda))).clamp(lo, hi);
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
                (Some(lb), Some(rb))
            } else {
                (None, None)
            };

            // Histogram subtraction: plan to rebuild only the smaller
            // child next level; the larger then derives
            // `parent − smaller` from this node's buffer, which the
            // level loop keeps alive until both children resolve.
            let (mut left_source, mut right_source) = (HistSource::Build, HistSource::Build);
            let mut parent_survives = false;
            if config.hist.subtraction && depth + 1 < config.max_depth {
                let smaller_is_left = left_idx.len() <= right_idx.len();
                let smaller_len = left_idx.len().min(right_idx.len());
                if smaller_len >= 2 * config.min_instances {
                    let parent = next_parents.len();
                    let left_pos = next.len();
                    let right_pos = next.len() + 1;
                    if smaller_is_left {
                        right_source = HistSource::Derive {
                            parent,
                            sibling: left_pos,
                        };
                    } else {
                        left_source = HistSource::Derive {
                            parent,
                            sibling: right_pos,
                        };
                    }
                    parent_survives = true;
                }
            }
            if parent_survives {
                next_parents.push(hist);
            } else {
                pool.release(hist);
            }

            next.push(NodeWork {
                tree_node: l,
                instances: left_idx,
                g: split.left_g,
                h: split.left_h,
                source: left_source,
                bounds: left_bounds,
            });
            next.push(NodeWork {
                tree_node: r,
                instances: right_idx,
                g: right_g,
                h: right_h,
                source: right_source,
                bounds: right_bounds,
            });
        }
        charges.end_level(params.segments_c);
        frontier = next;
        parents = next_parents;
        if frontier.is_empty() {
            break;
        }
    }
    // Parent buffers planned for a level that never ran (depth limit).
    for p in parents.drain(..) {
        pool.release(p);
    }

    // Depth limit reached: everything still open becomes a leaf.
    for work in frontier {
        let mut v = leaf_values(&work.g, &work.h, config.lambda, config.learning_rate);
        if let Some(b) = &work.bounds {
            clamp_leaf(&mut v, b, config.learning_rate);
        }
        crate::sanitize::trace_leaf_values(device, v.len());
        tree.set_leaf(work.tree_node, v.clone());
        leaf_assignments.push((work.instances, v));
        leaf_nodes.push(work.tree_node);
    }

    GrowResult {
        tree,
        leaf_assignments,
        leaf_nodes,
        methods_used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad::compute_gradients;
    use crate::loss::MseLoss;
    use gbdt_data::synth::{make_regression, RegressionSpec};
    use gbdt_data::Dataset;
    use gpusim::Phase;

    fn setup(n: usize, m: usize, d: usize) -> (Dataset, BinnedDataset, Gradients) {
        let ds = make_regression(&RegressionSpec {
            instances: n,
            features: m,
            outputs: d,
            informative: (m / 2).max(1),
            noise: 0.05,
            seed: 42,
            ..Default::default()
        });
        let binned = BinnedDataset::build(ds.features(), 32);
        let device = Device::rtx4090();
        let scores = vec![0.0f32; n * d];
        let grads = compute_gradients(&device, &MseLoss, &scores, ds.targets(), n, d);
        (ds, binned, grads)
    }

    fn config() -> TrainConfig {
        TrainConfig {
            max_depth: 4,
            min_instances: 5,
            max_bins: 32,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn leaves_partition_all_instances() {
        let (_, data, grads) = setup(300, 6, 3);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let res = grow_tree(&device, &data, &grads, &config(), &features);
        let mut seen = vec![false; 300];
        for (instances, _) in &res.leaf_assignments {
            for &i in instances {
                assert!(!seen[i as usize], "instance {i} in two leaves");
                seen[i as usize] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "every instance must land in a leaf"
        );
        assert_eq!(res.leaf_assignments.len(), res.tree.num_leaves());
    }

    #[test]
    fn depth_limit_is_respected() {
        let (_, data, grads) = setup(400, 6, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        for depth in [1, 2, 3] {
            let mut cfg = config();
            cfg.max_depth = depth;
            let res = grow_tree(&device, &data, &grads, &cfg, &features);
            assert!(
                res.tree.depth() <= depth,
                "depth {} > limit {depth}",
                res.tree.depth()
            );
        }
    }

    #[test]
    fn tree_reduces_training_loss() {
        let (ds, data, grads) = setup(400, 6, 3);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let res = grow_tree(&device, &data, &grads, &config(), &features);

        // Applying the tree's leaf values must reduce squared error
        // against the targets (scores started at zero).
        let d = 3;
        let mut scores = vec![0.0f32; 400 * d];
        for (instances, value) in &res.leaf_assignments {
            for &i in instances {
                for k in 0..d {
                    scores[i as usize * d + k] += value[k];
                }
            }
        }
        let before: f64 = ds.targets().iter().map(|&t| (t as f64).powi(2)).sum();
        let after: f64 = scores
            .iter()
            .zip(ds.targets())
            .map(|(&s, &t)| ((s - t) as f64).powi(2))
            .sum();
        assert!(
            after < before * 0.9,
            "loss {after} not reduced from {before}"
        );
    }

    #[test]
    fn min_instances_bounds_leaf_sizes() {
        let (_, data, grads) = setup(300, 6, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let mut cfg = config();
        cfg.min_instances = 30;
        let res = grow_tree(&device, &data, &grads, &cfg, &features);
        for (instances, _) in &res.leaf_assignments {
            assert!(
                instances.len() >= 30,
                "leaf of size {} violates min_instances",
                instances.len()
            );
        }
    }

    #[test]
    fn subtraction_grows_equivalent_tree() {
        let (_, data, grads) = setup(500, 8, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let plain = grow_tree(&device, &data, &grads, &config(), &features);
        let mut cfg = config();
        cfg.hist.subtraction = true;
        let sub = grow_tree(&device, &data, &grads, &cfg, &features);
        // Identical split structure and (up to fp noise) leaf values.
        assert_eq!(plain.tree.num_nodes(), sub.tree.num_nodes());
        assert_eq!(plain.tree.num_leaves(), sub.tree.num_leaves());
        for ((ia, va), (ib, vb)) in plain.leaf_assignments.iter().zip(&sub.leaf_assignments) {
            assert_eq!(ia, ib);
            for (a, b) in va.iter().zip(vb) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn charges_land_in_expected_phases() {
        let (_, data, grads) = setup(4000, 12, 6);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..12).collect();
        let _ = grow_tree(&device, &data, &grads, &config(), &features);
        let s = device.summary();
        for phase in [Phase::Histogram, Phase::SplitEval, Phase::Partition] {
            assert!(
                s.by_phase.contains_key(&phase),
                "missing charges for {phase:?}"
            );
        }
        // Histogram must dominate split evaluation (the paper's Fig. 4).
        assert!(s.fraction(Phase::Histogram) > s.fraction(Phase::SplitEval));
    }

    #[test]
    fn monotone_constraint_makes_predictions_monotone() {
        use gbdt_data::{Dataset, DenseMatrix, Task};
        // y = x + noise on a single feature: a +1 constraint must yield
        // a globally non-decreasing prediction function (bound
        // propagation guarantees it, not just local ordering).
        let n = 500;
        let xs: Vec<f32> = (0..n).map(|i| i as f32 / 50.0).collect();
        let targets: Vec<f32> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| x + ((i * 37) % 11) as f32 * 0.2 - 1.0)
            .collect();
        let ds = Dataset::new(
            DenseMatrix::new(n, 1, xs.clone()),
            targets,
            1,
            Task::MultiRegression,
        );
        let binned = BinnedDataset::build(ds.features(), 32);
        let device = Device::rtx4090();
        let scores = vec![0.0f32; n];
        let grads = compute_gradients(&device, &MseLoss, &scores, ds.targets(), n, 1);
        let mut cfg = config();
        cfg.max_depth = 5;
        cfg.min_instances = 3;
        cfg.monotone_constraints = vec![1];
        let res = grow_tree(&device, &binned, &grads, &cfg, &[0]);
        assert!(
            res.tree.num_leaves() > 2,
            "constraint should still allow splits"
        );

        let mut last = f32::NEG_INFINITY;
        for &x in &xs {
            let mut out = [0.0f32];
            res.tree.predict_into(&[x], &mut out);
            assert!(
                out[0] >= last - 1e-6,
                "prediction decreased at x={x}: {} < {last}",
                out[0]
            );
            last = out[0];
        }
    }

    #[test]
    fn opposing_constraint_suppresses_splits() {
        use gbdt_data::{Dataset, DenseMatrix, Task};
        // y strictly increasing in x, but we demand non-increasing: no
        // admissible split exists, so the tree must stay (nearly) a stump.
        let n = 300;
        let xs: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let targets: Vec<f32> = xs.clone();
        let ds = Dataset::new(
            DenseMatrix::new(n, 1, xs),
            targets,
            1,
            Task::MultiRegression,
        );
        let binned = BinnedDataset::build(ds.features(), 32);
        let device = Device::rtx4090();
        let scores = vec![0.0f32; n];
        let grads = compute_gradients(&device, &MseLoss, &scores, ds.targets(), n, 1);
        let mut cfg = config();
        cfg.monotone_constraints = vec![-1];
        let res = grow_tree(&device, &binned, &grads, &cfg, &[0]);
        assert_eq!(
            res.tree.num_leaves(),
            1,
            "a −1 constraint on increasing data must forbid every split"
        );
    }

    #[test]
    fn unconstrained_features_are_unaffected() {
        let (_, data, grads) = setup(400, 6, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let plain = grow_tree(&device, &data, &grads, &config(), &features);
        let mut cfg = config();
        cfg.monotone_constraints = vec![0; 6];
        let zeroed = grow_tree(&device, &data, &grads, &cfg, &features);
        assert_eq!(
            plain.tree, zeroed.tree,
            "all-zero constraints must be a no-op"
        );
    }

    #[test]
    fn streams_shorten_levels_without_changing_the_model() {
        let (_, data, grads) = setup(2000, 10, 4);
        let features: Vec<u32> = (0..10).collect();
        let mut serial_cfg = config();
        serial_cfg.max_depth = 6;
        let mut streamed_cfg = serial_cfg.clone();
        streamed_cfg.streams = 4;

        let d1 = Device::rtx4090();
        let serial = grow_tree(&d1, &data, &grads, &serial_cfg, &features);
        let d2 = Device::rtx4090();
        let streamed = grow_tree(&d2, &data, &grads, &streamed_cfg, &features);

        // Identical model: streams are a scheduling change only.
        assert_eq!(serial.tree, streamed.tree);
        // Deep levels have many independent node kernels → overlap wins.
        assert!(
            d2.now_ns() < d1.now_ns(),
            "4 streams ({}) should beat serial ({})",
            d2.now_ns(),
            d1.now_ns()
        );
        // Never better than perfect 4× overlap of the histogram phase.
        let hist_serial = d1.summary().by_phase[&Phase::Histogram];
        let hist_streamed = d2.summary().by_phase[&Phase::Histogram];
        assert!(hist_streamed * 4.2 > hist_serial, "superlinear overlap");
    }

    #[test]
    fn pooled_growth_stops_allocating_after_first_tree() {
        let (_, data, grads) = setup(500, 8, 3);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let mut cfg = config();
        cfg.hist.subtraction = true;
        let mut pool = HistogramPool::new(features.len(), 3, cfg.max_bins);
        let root: Vec<u32> = (0..500).collect();
        let first = grow_tree_pooled(
            &device,
            &data,
            &grads,
            &cfg,
            &features,
            root.clone(),
            &mut pool,
        );
        let high_water = pool.allocated();
        assert!(high_water > 0);
        let second = grow_tree_pooled(&device, &data, &grads, &cfg, &features, root, &mut pool);
        assert_eq!(
            pool.allocated(),
            high_water,
            "second tree must reuse the first tree's buffers"
        );
        assert_eq!(first.tree, second.tree);
    }

    #[test]
    fn streams_and_subtraction_compose_deterministically() {
        // The deferred subtraction build charges in the child's level;
        // two identical runs must produce identical timelines.
        let (_, data, grads) = setup(1500, 8, 3);
        let features: Vec<u32> = (0..8).collect();
        let mut cfg = config();
        cfg.max_depth = 5;
        cfg.hist.subtraction = true;
        cfg.streams = 4;
        let d1 = Device::rtx4090();
        let r1 = grow_tree(&d1, &data, &grads, &cfg, &features);
        let d2 = Device::rtx4090();
        let r2 = grow_tree(&d2, &data, &grads, &cfg, &features);
        assert_eq!(r1.tree, r2.tree);
        assert_eq!(d1.now_ns(), d2.now_ns());
    }

    #[test]
    fn methods_used_reports_selection() {
        let (_, data, grads) = setup(300, 6, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let mut cfg = config();
        cfg.hist.method = HistogramMethod::GlobalMemory;
        let res = grow_tree(&device, &data, &grads, &cfg, &features);
        let total: usize = res.methods_used.values().sum();
        assert!(total > 0);
        assert!(res
            .methods_used
            .contains_key(&HistogramMethod::GlobalMemory));
    }
}
