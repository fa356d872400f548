//! Split-point selection (paper §2.3, §3.1.2–§3.1.3).
//!
//! From a node's histogram, every bin boundary of every feature is a
//! candidate split. Left-side gradient masses come from a segmented
//! prefix sum over the bins of each (feature, output) segment; the gain
//! of Eq. (3) sums per-output terms; a segmented argmax picks the best
//! threshold per feature and a global argmax the best feature.
//!
//! **Launch batching.** A naive implementation launches the scan/gain/
//! reduction kernels once per node; on deep trees the launch overhead
//! dominates. The paper's §3.1.3 instead treats every (node, feature)
//! pair as a segment of *one* level-wide reduction, mapped to blocks by
//! the adaptive `1 + #segments/#SMs × C` rule. [`LevelSplitCharges`]
//! models exactly that: per-node calls accumulate their work, and one
//! flush per level charges the three batched kernels.

use crate::hist::{add_row, NodeHistogram};
use gpusim::cost::KernelCost;
use gpusim::primitives::reduce::segments_per_block;
use gpusim::{Device, Phase};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Parameters governing split acceptance.
#[derive(Debug, Clone, Copy)]
pub struct SplitParams {
    /// L2 regularization λ on leaf values.
    pub lambda: f64,
    /// Minimum gain γ for a split to be kept.
    pub min_gain: f64,
    /// Minimum instances per child.
    pub min_instances: usize,
    /// Adaptive segments-per-block constant `C` (§3.1.3).
    pub segments_c: f64,
}

/// A chosen split.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SplitCandidate {
    /// Global feature ID.
    pub feature: u32,
    /// Threshold bin: instances with `bin ≤ bin` go left.
    pub bin: u8,
    /// Gain of Eq. (3).
    pub gain: f64,
    /// Instances routed left.
    pub left_count: u32,
    /// Instances routed right.
    pub right_count: u32,
    /// Per-output gradient sums of the left child.
    pub left_g: Vec<f64>,
    /// Per-output Hessian sums of the left child.
    pub left_h: Vec<f64>,
}

/// One output dimension's gain contribution (½ of Eq. (3)'s summand).
#[inline]
fn gain_term(gl: f64, hl: f64, gr: f64, hr: f64, lambda: f64) -> f64 {
    gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - (gl + gr) * (gl + gr) / (hl + hr + lambda)
}

/// The leaf objective reduction of splitting, summed over outputs.
pub fn split_gain(
    left_g: &[f64],
    left_h: &[f64],
    node_g: &[f64],
    node_h: &[f64],
    lambda: f64,
) -> f64 {
    let mut gain = 0.0;
    for k in 0..node_g.len() {
        let gl = left_g[k];
        let hl = left_h[k];
        gain += gain_term(gl, hl, node_g[k] - gl, node_h[k] - hl, lambda);
    }
    0.5 * gain
}

/// Accumulated split-evaluation work for one tree level, flushed as
/// three batched kernels (scan+gain, segmented argmax, global argmax).
#[derive(Debug, Default, Clone)]
pub struct LevelSplitCharges {
    scan_elems: f64,
    gain_candidates: f64,
    segments: f64,
    nodes: f64,
}

impl LevelSplitCharges {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Book one node's search over `mf` features of `d × bins` cells.
    pub(crate) fn add(&mut self, mf: usize, d: usize, bins: usize) {
        self.scan_elems += (mf * d * bins) as f64;
        self.gain_candidates += (mf * bins) as f64;
        self.segments += mf as f64;
        self.nodes += 1.0;
    }

    /// Charge the level's batched kernels to `device` and reset.
    pub fn flush(&mut self, device: &Device, sm_count: u32, segments_c: f64) {
        if self.nodes == 0.0 {
            return;
        }
        // The adaptive segment mapping (§3.1.3): batching segments into
        // blocks shrinks the grid. A naive low-C mapping (one segment
        // per block) needs a grid far beyond the SM count, paying a
        // launch-equivalent dispatch round per full wave of blocks —
        // exactly the inefficiency the paper calls out "on
        // high-dimensional datasets due to kernel launch overhead".
        let spb = segments_per_block(self.segments as usize, sm_count, segments_c) as f64;
        let blocks = (self.segments / spb.max(1.0)).ceil();
        let waves = (blocks / sm_count as f64).ceil();
        device.charge_kernel(
            "split_scan_gain_level",
            Phase::SplitEval,
            &KernelCost {
                flops: self.scan_elems * 10.0,
                dram_bytes: self.scan_elems * 16.0 + self.gain_candidates * 8.0,
                launches: 1.0,
                ..Default::default()
            },
        );
        device.charge_kernel(
            "split_seg_argmax_level",
            Phase::SplitEval,
            &KernelCost {
                flops: self.gain_candidates,
                dram_bytes: self.gain_candidates * 8.0 + self.segments * 16.0,
                launches: waves.max(1.0),
                ..Default::default()
            },
        );
        device.charge_kernel(
            "split_global_argmax_level",
            Phase::SplitEval,
            &KernelCost {
                flops: self.segments,
                dram_bytes: self.segments * 16.0 + self.nodes * 32.0,
                launches: 1.0,
                ..Default::default()
            },
        );
        crate::sanitize::trace_split_level(
            device,
            self.segments as usize,
            self.gain_candidates as usize,
            self.nodes as usize,
        );
        *self = Self::default();
    }
}

/// Monotone-constraint context for one node: per-global-feature signs
/// (+1 non-decreasing, −1 non-increasing, 0 free) and the node's
/// per-output leaf-value bounds inherited from constrained ancestors.
#[derive(Debug, Clone, Copy)]
pub struct ConstraintState<'a> {
    /// Per global feature ID: +1 / −1 / 0.
    pub monotone: &'a [i8],
    /// Per output: admissible `[lower, upper]` leaf-value interval.
    pub bounds: &'a [(f64, f64)],
}

impl ConstraintState<'_> {
    /// Clamp a raw optimal leaf value for output `k` into this node's
    /// interval.
    #[inline]
    pub fn clamp(&self, k: usize, v: f64) -> f64 {
        let (lo, hi) = self.bounds[k];
        v.clamp(lo, hi)
    }
}

/// Does a candidate split on a `c`-constrained feature keep the leaf
/// ordering legal? Checks every output with values clamped into the
/// node's bounds (bound propagation makes the guarantee global).
fn constraint_ok(
    c: i8,
    gl: &[f64],
    hl: &[f64],
    node_g: &[f64],
    node_h: &[f64],
    lambda: f64,
    state: &ConstraintState<'_>,
) -> bool {
    for k in 0..node_g.len() {
        let vl = state.clamp(k, -(gl[k] / (hl[k] + lambda)));
        let vr = state.clamp(k, -((node_g[k] - gl[k]) / (node_h[k] - hl[k] + lambda)));
        if (c as f64) * (vr - vl) < 0.0 {
            return false;
        }
    }
    true
}

/// One feature's segmented prefix scan and gain (its share of the
/// `split_scan_gain` kernel): calls `visit(b, gain)` in ascending `b`
/// for every threshold that leaves at least `min_instances` on both
/// sides and, when `monotone` gives a feature's sign and the node's
/// state, respects the constraint. A thin wrapper over the slab-level
/// scan the grower's one pass runs, applied to the feature's slab of
/// `hist`.
#[allow(clippy::too_many_arguments)]
pub fn scan_feature_gains(
    hist: &NodeHistogram,
    f_local: usize,
    node_g: &[f64],
    node_h: &[f64],
    node_count: u32,
    params: &SplitParams,
    monotone: Option<(i8, &ConstraintState<'_>)>,
    visit: impl FnMut(usize, f64),
) {
    let (g_rows, h_rows, counts) = hist.slab(f_local);
    scan_slab_gains(
        g_rows, h_rows, counts, node_g, node_h, node_count, params, monotone, visit,
    );
}

/// [`scan_feature_gains`] over one feature's slab given directly:
/// `counts` holds its `bins` instance counts and `g_rows`/`h_rows` its
/// `bins` contiguous `d`-rows (see [`NodeHistogram::slab`]).
///
/// The left prefix advances one `d`-row per bin. Valid thresholds form
/// one range (the left count only grows), so gains are computed only
/// inside it; each equals [`split_gain`] bit for bit (terms summed in
/// ascending `k`, then ½).
#[allow(clippy::too_many_arguments)]
pub(crate) fn scan_slab_gains(
    g_rows: &[f64],
    h_rows: &[f64],
    counts: &[u32],
    node_g: &[f64],
    node_h: &[f64],
    node_count: u32,
    params: &SplitParams,
    monotone: Option<(i8, &ConstraintState<'_>)>,
    mut visit: impl FnMut(usize, f64),
) {
    let bins = counts.len();
    let d = g_rows.len() / bins.max(1);
    let min_child = params.min_instances as u32;
    let mut gl = vec![0.0f64; d];
    let mut hl = vec![0.0f64; d];
    let mut terms = vec![0.0f64; d];
    let mut left_cnt = 0u32;
    for b in 0..bins.saturating_sub(1) {
        left_cnt += counts[b];
        add_row(&mut gl, &g_rows[b * d..(b + 1) * d]);
        add_row(&mut hl, &h_rows[b * d..(b + 1) * d]);
        if left_cnt < min_child {
            continue;
        }
        if node_count - left_cnt < min_child {
            break; // the right count only shrinks from here on
        }
        if let Some((c, state)) = monotone {
            if !constraint_ok(c, &gl, &hl, node_g, node_h, params.lambda, state) {
                continue;
            }
        }
        for (t, (((&g, &h), &ng), &nh)) in terms
            .iter_mut()
            .zip(gl.iter().zip(&hl).zip(node_g).zip(node_h))
        {
            *t = gain_term(g, h, ng - g, nh - h, params.lambda);
        }
        visit(b, 0.5 * terms.iter().fold(0.0, |acc, &t| acc + t));
    }
}

/// Everything one node's per-feature scan needs besides the slab: the
/// node's totals and size, the acceptance parameters, and its monotone
/// constraints (if any).
#[derive(Clone, Copy)]
pub(crate) struct NodeScan<'a> {
    /// Per-output gradient totals of the node.
    pub node_g: &'a [f64],
    /// Per-output Hessian totals of the node.
    pub node_h: &'a [f64],
    /// Instances in the node.
    pub node_count: u32,
    /// Split acceptance parameters.
    pub params: &'a SplitParams,
    /// Monotone signs and the node's leaf-value bounds.
    pub constraints: Option<&'a ConstraintState<'a>>,
}

impl NodeScan<'_> {
    /// Best threshold of global feature `feature` from its slab:
    /// `(bin, gain)` with the highest gain, the lowest bin on ties, or
    /// `(0, −∞)` when no threshold is admissible.
    pub(crate) fn best_threshold(
        &self,
        feature: u32,
        g_rows: &[f64],
        h_rows: &[f64],
        counts: &[u32],
    ) -> (usize, f64) {
        let monotone = self
            .constraints
            .map(|s| (s.monotone[feature as usize], s))
            .filter(|&(c, _)| c != 0);
        let mut best = (0usize, f64::NEG_INFINITY);
        let visit = |b, gain| {
            if gain > best.1 {
                best = (b, gain);
            }
        };
        scan_slab_gains(
            g_rows,
            h_rows,
            counts,
            self.node_g,
            self.node_h,
            self.node_count,
            self.params,
            monotone,
            visit,
        );
        best
    }
}

/// Pick a node's split from the per-feature bests of the feature
/// positions `f_lo..f_lo + bests.len()` (`bests[i]` belongs to
/// position `f_lo + i`): the highest gain, the lowest position on
/// ties, kept only if it beats `min_gain`. The winner's left-side sums
/// are read back from `hist`.
pub(crate) fn pick_split(
    hist: &NodeHistogram,
    features: &[u32],
    f_lo: usize,
    bests: &[(usize, f64)],
    node_count: u32,
    params: &SplitParams,
) -> Option<SplitCandidate> {
    if node_count == 0 {
        return None;
    }
    // Global argmax across features (lowest index wins ties).
    let mut best_fi = 0usize;
    let mut best_gain = f64::NEG_INFINITY;
    for (i, &(_, g)) in bests.iter().enumerate() {
        if g > best_gain {
            best_gain = g;
            best_fi = i;
        }
    }
    if !best_gain.is_finite() || best_gain <= params.min_gain {
        return None;
    }
    let f_local = f_lo + best_fi;
    let best_bin = bests[best_fi].0;

    // Reconstruct the winning split's left-side sums.
    let d = hist.d;
    let (g_rows, h_rows, counts) = hist.slab(f_local);
    let mut left_g = vec![0.0f64; d];
    let mut left_h = vec![0.0f64; d];
    let mut left_count = 0u32;
    for b in 0..=best_bin {
        left_count += counts[b];
        add_row(&mut left_g, &g_rows[b * d..(b + 1) * d]);
        add_row(&mut left_h, &h_rows[b * d..(b + 1) * d]);
    }
    Some(SplitCandidate {
        feature: features[f_local],
        bin: best_bin as u8,
        gain: best_gain,
        left_count,
        right_count: node_count - left_count,
        left_g,
        left_h,
    })
}

/// Pure (uncharged) best-split search over features `f_lo..f_hi` (local
/// indices into `features`/`hist`): every feature's scan, then
/// [`pick_split`]. Tie-breaking: the lowest feature index, then the
/// lowest bin.
#[allow(clippy::too_many_arguments)]
fn best_split_impl(
    hist: &NodeHistogram,
    features: &[u32],
    f_lo: usize,
    f_hi: usize,
    node_g: &[f64],
    node_h: &[f64],
    node_count: u32,
    params: &SplitParams,
    constraints: Option<&ConstraintState<'_>>,
) -> Option<SplitCandidate> {
    assert_eq!(
        features.len(),
        hist.num_features,
        "feature/histogram mismatch"
    );
    assert!(f_lo <= f_hi && f_hi <= features.len(), "bad feature range");
    if f_lo == f_hi || node_count == 0 {
        return None;
    }
    let scan = NodeScan {
        node_g,
        node_h,
        node_count,
        params,
        constraints,
    };
    // Per-feature best: the segmented scan + gain + segmented argmax,
    // fused (parallel over feature segments).
    let bests: Vec<(usize, f64)> = (f_lo..f_hi)
        .into_par_iter()
        .map(|f_local| {
            let (g_rows, h_rows, counts) = hist.slab(f_local);
            scan.best_threshold(features[f_local], g_rows, h_rows, counts)
        })
        .collect();
    pick_split(hist, features, f_lo, &bests, node_count, params)
}

/// Best split over the feature positions `f_lo..f_hi` of `features`
/// (optionally under monotone constraints), charging `device` for this
/// node's own unbatched scan/argmax kernels — even for an empty range.
/// The grower never charges per node: every placement batches its
/// search per level through [`LevelSplitCharges`].
#[allow(clippy::too_many_arguments)]
pub fn find_best_split_range(
    device: &Device,
    hist: &NodeHistogram,
    features: &[u32],
    f_lo: usize,
    f_hi: usize,
    node_g: &[f64],
    node_h: &[f64],
    node_count: u32,
    params: &SplitParams,
    constraints: Option<&ConstraintState<'_>>,
) -> Option<SplitCandidate> {
    let out = best_split_impl(
        hist,
        features,
        f_lo,
        f_hi,
        node_g,
        node_h,
        node_count,
        params,
        constraints,
    );
    let mut charges = LevelSplitCharges::new();
    charges.add(f_hi - f_lo, hist.d, hist.bins);
    charges.flush(device, device.model().params.sm_count, params.segments_c);
    out
}

/// Best split over the full feature range with per-node charging.
pub fn find_best_split(
    device: &Device,
    hist: &NodeHistogram,
    features: &[u32],
    node_g: &[f64],
    node_h: &[f64],
    node_count: u32,
    params: &SplitParams,
) -> Option<SplitCandidate> {
    find_best_split_range(
        device,
        hist,
        features,
        0,
        features.len(),
        node_g,
        node_h,
        node_count,
        params,
        None,
    )
}

/// Best split whose kernel work is accumulated into `charges` instead of
/// being charged immediately — call [`LevelSplitCharges::flush`] once
/// per level (paper §3.1.3's batched segmented reduction).
pub fn find_best_split_batched(
    charges: &mut LevelSplitCharges,
    hist: &NodeHistogram,
    features: &[u32],
    node_g: &[f64],
    node_h: &[f64],
    node_count: u32,
    params: &SplitParams,
) -> Option<SplitCandidate> {
    charges.add(features.len(), hist.d, hist.bins);
    best_split_impl(
        hist,
        features,
        0,
        features.len(),
        node_g,
        node_h,
        node_count,
        params,
        None,
    )
}

/// Optimal leaf values `v*_k = −G_k / (H_k + λ)` (paper §2.2), scaled by
/// the learning rate. The output width follows the input sums, so the
/// same routine serves both the in-grow leaf assignment (at the
/// effective dimension of the gradients being grown — `k` during a
/// sketched round) and the full-`d` refit
/// ([`crate::sketch::refit_leaves_full_d`], SketchBoost's "retarget"
/// step) that replaces those k-dim leaves afterwards.
pub fn leaf_values(node_g: &[f64], node_h: &[f64], lambda: f64, learning_rate: f32) -> Vec<f32> {
    node_g
        .iter()
        .zip(node_h)
        .map(|(&g, &h)| (-(g / (h + lambda)) as f32) * learning_rate)
        .collect()
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]
mod tests {
    use super::*;

    fn params() -> SplitParams {
        SplitParams {
            lambda: 1.0,
            min_gain: 1e-9,
            min_instances: 1,
            segments_c: 4.0,
        }
    }

    /// Hand-built histogram: 1 feature, 4 bins, d=1. Bins 0–1 have
    /// negative gradients, bins 2–3 positive → best split after bin 1.
    fn polarized_hist() -> NodeHistogram {
        let mut h = NodeHistogram::new(1, 1, 4);
        let g = [-5.0, -5.0, 5.0, 5.0];
        for b in 0..4 {
            {
                let at = h.gh_index(0, 0, b);
                h.g[at] = g[b];
            }
            {
                let at = h.gh_index(0, 0, b);
                h.h[at] = 2.0;
            }
            {
                let at = h.cnt_index(0, b);
                h.counts[at] = 10;
            }
        }
        h
    }

    #[test]
    fn finds_the_obvious_split() {
        let device = Device::rtx4090();
        let hist = polarized_hist();
        let s = find_best_split(&device, &hist, &[7], &[0.0], &[8.0], 40, &params())
            .expect("split must exist");
        assert_eq!(s.feature, 7);
        assert_eq!(s.bin, 1);
        assert_eq!(s.left_count, 20);
        assert_eq!(s.right_count, 20);
        assert_eq!(s.left_g, vec![-10.0]);
        assert!(s.gain > 0.0);
        assert!(device.summary().by_phase.contains_key(&Phase::SplitEval));
    }

    #[test]
    fn gain_matches_equation_3() {
        // Hand-check Eq. (3) for the polarized split: GL=-10, GR=10,
        // HL=HR=4, λ=1 → ½(100/5 + 100/5 − 0/9) = 20.
        let g = split_gain(&[-10.0], &[4.0], &[0.0], &[8.0], 1.0);
        assert!((g - 20.0).abs() < 1e-12, "gain {g}");
    }

    #[test]
    fn min_instances_filters_candidates() {
        let device = Device::rtx4090();
        let hist = polarized_hist();
        let mut p = params();
        p.min_instances = 25; // no boundary leaves ≥25 on both sides
        let s = find_best_split(&device, &hist, &[0], &[0.0], &[8.0], 40, &p);
        assert!(s.is_none());
    }

    #[test]
    fn min_gain_rejects_weak_splits() {
        let device = Device::rtx4090();
        // Uniform gradients: no split has positive gain.
        let mut hist = NodeHistogram::new(1, 1, 4);
        for b in 0..4 {
            {
                let at = hist.gh_index(0, 0, b);
                hist.g[at] = 1.0;
            }
            {
                let at = hist.gh_index(0, 0, b);
                hist.h[at] = 2.0;
            }
            hist.counts[b] = 5;
        }
        let s = find_best_split(&device, &hist, &[0], &[4.0], &[8.0], 20, &params());
        assert!(s.is_none(), "uniform node must not split: {s:?}");
    }

    #[test]
    fn multi_output_gain_sums_over_outputs() {
        let device = Device::rtx4090();
        // d=2 where each output alone gives gain 20 → total 40.
        let mut hist = NodeHistogram::new(1, 2, 4);
        for k in 0..2 {
            let g = [-5.0, -5.0, 5.0, 5.0];
            for b in 0..4 {
                {
                    let at = hist.gh_index(0, k, b);
                    hist.g[at] = g[b];
                }
                {
                    let at = hist.gh_index(0, k, b);
                    hist.h[at] = 2.0;
                }
            }
        }
        for b in 0..4 {
            hist.counts[b] = 10;
        }
        let s = find_best_split(
            &device,
            &hist,
            &[0],
            &[0.0, 0.0],
            &[8.0, 8.0],
            40,
            &params(),
        )
        .unwrap();
        assert!((s.gain - 40.0).abs() < 1e-9, "gain {}", s.gain);
    }

    #[test]
    fn range_restriction_is_respected() {
        let device = Device::rtx4090();
        // Two features; only feature 1 carries signal. Restricting the
        // range to feature 0 must find nothing.
        let mut hist = NodeHistogram::new(2, 1, 4);
        let g = [-5.0, -5.0, 5.0, 5.0];
        for b in 0..4 {
            {
                let at = hist.gh_index(1, 0, b);
                hist.g[at] = g[b];
            }
            {
                let at = hist.gh_index(1, 0, b);
                hist.h[at] = 2.0;
            }
            {
                let at = hist.cnt_index(0, b);
                hist.counts[at] = 10;
            }
            {
                let at = hist.cnt_index(1, b);
                hist.counts[at] = 10;
            }
            {
                let at = hist.gh_index(0, 0, b);
                hist.h[at] = 2.0;
            }
        }
        let p = params();
        let none =
            find_best_split_range(&device, &hist, &[4, 9], 0, 1, &[0.0], &[8.0], 40, &p, None);
        assert!(none.is_none());
        let some =
            find_best_split_range(&device, &hist, &[4, 9], 1, 2, &[0.0], &[8.0], 40, &p, None)
                .expect("feature 1 must split");
        assert_eq!(some.feature, 9);
    }

    #[test]
    fn batched_path_matches_per_node_path() {
        let device = Device::rtx4090();
        let hist = polarized_hist();
        let per_node =
            find_best_split(&device, &hist, &[7], &[0.0], &[8.0], 40, &params()).unwrap();
        let mut charges = LevelSplitCharges::new();
        let batched =
            find_best_split_batched(&mut charges, &hist, &[7], &[0.0], &[8.0], 40, &params())
                .unwrap();
        assert_eq!(per_node.feature, batched.feature);
        assert_eq!(per_node.bin, batched.bin);
        assert_eq!(per_node.gain, batched.gain);
        // Flushing once charges exactly three kernels.
        let d2 = Device::rtx4090();
        charges.flush(&d2, d2.model().params.sm_count, 4.0);
        assert_eq!(d2.summary().kernel_count, 3);
    }

    #[test]
    fn batched_charging_amortizes_launches() {
        // 16 nodes charged per-node vs batched: batched must be cheaper.
        let hist = polarized_hist();
        let d_per = Device::rtx4090();
        for _ in 0..16 {
            let _ = find_best_split(&d_per, &hist, &[0], &[0.0], &[8.0], 40, &params());
        }
        let d_batch = Device::rtx4090();
        let mut charges = LevelSplitCharges::new();
        for _ in 0..16 {
            let _ =
                find_best_split_batched(&mut charges, &hist, &[0], &[0.0], &[8.0], 40, &params());
        }
        charges.flush(&d_batch, d_batch.model().params.sm_count, 4.0);
        assert!(
            d_batch.now_ns() < d_per.now_ns() / 4.0,
            "batched {} vs per-node {}",
            d_batch.now_ns(),
            d_per.now_ns()
        );
    }

    #[test]
    fn flush_on_empty_accumulator_is_a_noop() {
        let device = Device::rtx4090();
        let mut charges = LevelSplitCharges::new();
        charges.flush(&device, 128, 4.0);
        assert_eq!(device.now_ns(), 0.0);
    }

    #[test]
    fn leaf_values_match_closed_form() {
        let v = leaf_values(&[10.0, -4.0], &[4.0, 1.0], 1.0, 1.0);
        assert_eq!(v, vec![-2.0, 2.0]);
        let v = leaf_values(&[10.0], &[4.0], 1.0, 0.5);
        assert_eq!(v, vec![-1.0]);
    }

    #[test]
    fn single_bin_yields_no_split() {
        let device = Device::rtx4090();
        let mut hist = NodeHistogram::new(1, 1, 1);
        hist.g[0] = -5.0;
        hist.h[0] = 2.0;
        hist.counts[0] = 10;
        assert!(find_best_split(&device, &hist, &[0], &[-5.0], &[2.0], 10, &params()).is_none());
    }

    #[test]
    fn all_mass_in_one_bin_leaves_no_valid_threshold() {
        // Left count is 0 before bin 2 and the right count 0 from it on:
        // no threshold leaves min_instances = 1 on both sides.
        let device = Device::rtx4090();
        let mut hist = polarized_hist();
        hist.counts = vec![0, 0, 40, 0];
        assert!(find_best_split(&device, &hist, &[0], &[0.0], &[8.0], 40, &params()).is_none());
    }

    #[test]
    fn exactly_min_instances_per_side_is_accepted() {
        // Only bin 1 leaves 20 instances on each side.
        let device = Device::rtx4090();
        let mut p = params();
        p.min_instances = 20;
        let s = find_best_split(&device, &polarized_hist(), &[0], &[0.0], &[8.0], 40, &p)
            .expect("a 20/20 split meets min_instances = 20");
        assert_eq!((s.bin, s.left_count, s.right_count), (1, 20, 20));
    }

    #[test]
    fn exact_ties_pick_lowest_feature_then_lowest_bin() {
        // Bin 1 is empty, so thresholds 0 and 1 have bit-identical left
        // sums and gains; both features carry the same histogram.
        let device = Device::rtx4090();
        let mut hist = NodeHistogram::new(2, 1, 4);
        for f in 0..2 {
            for (b, (g, c)) in [(-5.0, 20), (0.0, 0), (5.0, 20), (0.0, 0)]
                .into_iter()
                .enumerate()
            {
                let at = hist.gh_index(f, 0, b);
                hist.g[at] = g;
                hist.h[at] = if c > 0 { 4.0 } else { 0.0 };
                let at = hist.cnt_index(f, b);
                hist.counts[at] = c;
            }
        }
        // Local position decides, not the global ID: position 0 is 5.
        let s = find_best_split(&device, &hist, &[5, 2], &[0.0], &[8.0], 40, &params())
            .expect("split must exist");
        assert_eq!((s.feature, s.bin), (5, 0));
    }

    #[test]
    fn empty_node_yields_no_split() {
        let device = Device::rtx4090();
        let hist = NodeHistogram::new(1, 1, 4);
        assert!(find_best_split(&device, &hist, &[0], &[0.0], &[0.0], 0, &params()).is_none());
    }
}
