//! Histogram building (paper §3.3) — the dominant cost of GBDT-MO
//! training (67–89 % of total time in the paper's Fig. 4).
//!
//! A node histogram aggregates, for every (feature, bin, output), the
//! sums of first and second loss derivatives over the node's instances,
//! plus a per-(feature, bin) instance count. Three kernels produce the
//! identical histogram with different hardware cost profiles:
//!
//! * [`gmem`] — global-memory atomics (§3.3.2);
//! * [`smem`] — shared-memory tiled atomics (§3.3.3);
//! * [`sortreduce`] — sort-and-reduce (§3.3.4);
//!
//! each with and without the warp-level bin-packing optimization
//! (§3.4.1). [`adaptive`] predicts each kernel's cost from the model and
//! picks the cheapest per node — the paper's "dynamically selects the
//! most appropriate histogram building method … based on the dataset
//! characteristics and training stage".
//!
//! All builders share one deterministic functional accumulation
//! ([`accumulate_dense`] / [`accumulate_sparse`]); only the charged cost
//! differs. Histogram **subtraction** (`sibling = parent − child`) is
//! available as an option.

pub mod adaptive;
pub mod gmem;
pub mod smem;
pub mod sortreduce;
pub mod stats;

use crate::config::{HistOptions, HistogramMethod};
use crate::grad::Gradients;
use crate::split::NodeScan;
use gbdt_data::BinnedDataset;
use gpusim::cost::KernelCost;
use gpusim::Device;
use rayon::prelude::*;

/// Effective L2 hit rate for gradient rows re-read across feature
/// columns within one histogram kernel. Gradient rows are touched once
/// per feature; caches capture most of the reuse.
pub(crate) const GH_L2_HIT: f64 = 0.92;

/// A node's gradient histogram over a set of features.
///
/// Layout (bin-major: one contiguous `d`-row per (feature, bin), so an
/// instance's outputs update adjacent elements and the split scan adds
/// whole rows): `g[(f_local*bins + b)*d + k]`, `counts[f_local*bins + b]`.
/// The simulated kernels keep the paper's per-(feature, output)
/// segments in their cost model and sanitizer traces (DESIGN.md).
#[derive(Debug, Clone)]
pub struct NodeHistogram {
    /// Per-(feature, bin, output) gradient sums.
    pub g: Vec<f64>,
    /// Per-(feature, bin, output) Hessian sums.
    pub h: Vec<f64>,
    /// Per-(feature, bin) instance counts.
    pub counts: Vec<u32>,
    /// Number of (local) features covered.
    pub num_features: usize,
    /// Output dimension.
    pub d: usize,
    /// Bin stride (uniform across features).
    pub bins: usize,
}

impl NodeHistogram {
    /// Allocate a zeroed histogram.
    pub fn new(num_features: usize, d: usize, bins: usize) -> Self {
        NodeHistogram {
            g: vec![0.0; num_features * d * bins],
            h: vec![0.0; num_features * d * bins],
            counts: vec![0; num_features * bins],
            num_features,
            d,
            bins,
        }
    }

    /// Zero all accumulators, for reusing a buffer in the two-pass
    /// entry points ([`accumulate_only`]). The grower does not call it:
    /// its one pass per node zeroes each feature's slab just before
    /// accumulating into it.
    pub fn reset(&mut self) {
        self.g.fill(0.0);
        self.h.fill(0.0);
        self.counts.fill(0);
    }

    /// Flat index of `(f_local, k, b)` into `g`/`h`.
    #[inline]
    pub fn gh_index(&self, f_local: usize, k: usize, b: usize) -> usize {
        (f_local * self.bins + b) * self.d + k
    }

    /// Flat index of `(f_local, b)` into `counts`.
    #[inline]
    pub fn cnt_index(&self, f_local: usize, b: usize) -> usize {
        f_local * self.bins + b
    }

    /// Feature `f_local`'s slab: its `bins × d` g-rows, h-rows and
    /// `bins` counts, contiguous in the bin-major layout.
    #[inline]
    pub(crate) fn slab(&self, f_local: usize) -> (&[f64], &[f64], &[u32]) {
        let rows = self.gh_index(f_local, 0, 0)..self.gh_index(f_local + 1, 0, 0);
        let cnt = self.cnt_index(f_local, 0)..self.cnt_index(f_local + 1, 0);
        (&self.g[rows.clone()], &self.h[rows], &self.counts[cnt])
    }

    /// Replace `self` (a child histogram) by `parent − self`: the
    /// sibling's histogram, obtained without touching instance data.
    pub fn subtract_from(&mut self, parent: &NodeHistogram) {
        assert_eq!(self.g.len(), parent.g.len(), "histogram shape mismatch");
        for (s, p) in self.g.iter_mut().zip(&parent.g) {
            *s = p - *s;
        }
        for (s, p) in self.h.iter_mut().zip(&parent.h) {
            *s = p - *s;
        }
        for (s, p) in self.counts.iter_mut().zip(&parent.counts) {
            *s = p.checked_sub(*s).expect("child count exceeds parent count");
        }
    }

    /// Overwrite `self` with `parent − child` elementwise: the
    /// subtraction trick without cloning either operand (`self` may be
    /// a dirty pooled buffer; every element is written).
    ///
    /// Arithmetic is identical to building `child` and calling
    /// [`NodeHistogram::subtract_from`] — `p - c` per element in the
    /// same order — so results are bit-identical to that path.
    pub fn assign_difference(&mut self, parent: &NodeHistogram, child: &NodeHistogram) {
        assert_eq!(parent.g.len(), child.g.len(), "histogram shape mismatch");
        assert_eq!(self.g.len(), parent.g.len(), "histogram shape mismatch");
        difference_slab(
            (&mut self.g, &mut self.h, &mut self.counts),
            (&parent.g, &parent.h, &parent.counts),
            (&child.g, &child.h, &child.counts),
        );
    }

    /// Total bytes of the accumulators (drives tiling decisions and the
    /// memory reporting in the depth experiment, Fig. 7).
    pub fn memory_bytes(&self) -> usize {
        self.g.len() * 8 + self.h.len() * 8 + self.counts.len() * 4
    }
}

/// Everything a histogram builder needs about the training state.
pub struct HistContext<'a> {
    /// The device charged for the work.
    pub device: &'a Device,
    /// Preprocessed (binned) features.
    pub data: &'a BinnedDataset,
    /// Current-iteration gradients.
    pub grads: &'a Gradients,
    /// Global feature IDs this builder covers (all features on single
    /// GPU; a partition of them per device in multi-GPU mode).
    pub features: &'a [u32],
    /// Uniform bin stride (the configured `max_bins`).
    pub bins: usize,
    /// Pipeline options.
    pub opts: HistOptions,
}

impl HistContext<'_> {
    /// Output dimension.
    pub fn d(&self) -> usize {
        self.grads.d
    }
}

/// Fraction of (instance, feature) pairs the histogram kernel actually
/// touches: 1.0 on the dense path, the data's non-zero density when the
/// sparsity-aware CSC path is enabled. The sparse path also scales the
/// measured contention (zero-bin collisions vanish when zeros are
/// handled in closed form — an approximation noted in DESIGN.md).
pub(crate) fn density_factor(ctx: &HistContext<'_>) -> f64 {
    if ctx.opts.sparse_aware {
        let total = (ctx.data.n() * ctx.data.m()).max(1);
        (ctx.data.sparse.nnz() as f64 / total as f64).clamp(0.001, 1.0)
    } else {
        1.0
    }
}

/// One feature's slab being written: its `bins × d` g-rows, h-rows and
/// `bins` counts (see [`NodeHistogram::slab`]).
type SlabMut<'s> = (&'s mut [f64], &'s mut [f64], &'s mut [u32]);

/// A finished slab, as [`NodeHistogram::slab`] returns it.
type Slab<'s> = (&'s [f64], &'s [f64], &'s [u32]);

/// Reference functional accumulation over the dense binned matrix:
/// deterministic (parallel over features, sequential over instances).
pub fn accumulate_dense(ctx: &HistContext<'_>, idx: &[u32], out: &mut NodeHistogram) {
    let d = ctx.d();
    let bins = ctx.bins;
    debug_assert_eq!(out.d, d);
    debug_assert_eq!(out.bins, bins);
    debug_assert_eq!(out.num_features, ctx.features.len());

    let gh_stride = d * bins;
    out.g
        .par_chunks_mut(gh_stride)
        .zip(out.h.par_chunks_mut(gh_stride))
        .zip(out.counts.par_chunks_mut(bins))
        .enumerate()
        .for_each(|(f_local, ((gh, hh), cnt))| {
            accumulate_dense_slab(ctx, f_local, idx, (gh, hh, cnt));
        });
}

/// Add the instances `idx` into feature `f_local`'s slab (one feature
/// of [`accumulate_dense`]).
fn accumulate_dense_slab(
    ctx: &HistContext<'_>,
    f_local: usize,
    idx: &[u32],
    (gh, hh, cnt): SlabMut<'_>,
) {
    let d = ctx.d();
    let (g, h) = (&ctx.grads.g, &ctx.grads.h);
    let col = ctx.data.bins.col(ctx.features[f_local] as usize);
    for &i in idx {
        let i = i as usize;
        let b = col[i] as usize;
        cnt[b] += 1;
        add_row(&mut gh[b * d..(b + 1) * d], &g[i * d..(i + 1) * d]);
        add_row(&mut hh[b * d..(b + 1) * d], &h[i * d..(i + 1) * d]);
    }
}

/// `acc[k] += row[k]` over one contiguous `d`-row (an instance's f32
/// gradients or a histogram's own f64 bin row): the bin-major layout
/// turns each update into a single vectorisable pass.
#[inline]
pub(crate) fn add_row<T: Copy + Into<f64>>(acc: &mut [f64], row: &[T]) {
    for (a, &v) in acc.iter_mut().zip(row) {
        *a += v.into();
    }
}

/// Node membership bitmap over all `n` instances (the sparse path
/// filters each column's explicit entries by it).
fn node_members(n: usize, idx: &[u32]) -> Vec<bool> {
    let mut in_node = vec![false; n];
    for &i in idx {
        in_node[i as usize] = true;
    }
    in_node
}

/// Sparsity-aware accumulation (paper §3.2's CSC storage): explicit
/// entries accumulate individually; each feature's implicit-zero bin
/// receives the node remainder `node_totals − Σ explicit` in closed
/// form, so cost scales with non-zeros instead of `n × m`.
///
/// `node_g`/`node_h` are the node's per-output gradient totals and
/// `idx` the node's instances.
pub fn accumulate_sparse(
    ctx: &HistContext<'_>,
    idx: &[u32],
    node_g: &[f64],
    node_h: &[f64],
    out: &mut NodeHistogram,
) {
    let d = ctx.d();
    let bins = ctx.bins;
    let in_node = node_members(ctx.grads.n, idx);
    let gh_stride = d * bins;
    out.g
        .par_chunks_mut(gh_stride)
        .zip(out.h.par_chunks_mut(gh_stride))
        .zip(out.counts.par_chunks_mut(bins))
        .enumerate()
        .for_each(|(f_local, ((gh, hh), cnt))| {
            let slab = (gh, hh, cnt);
            accumulate_sparse_slab(ctx, f_local, idx, &in_node, node_g, node_h, slab);
        });
}

/// One feature of [`accumulate_sparse`]: add the node's explicit
/// entries into feature `f_local`'s slab, then write the zero bin's
/// implicit remainder.
fn accumulate_sparse_slab(
    ctx: &HistContext<'_>,
    f_local: usize,
    idx: &[u32],
    in_node: &[bool],
    node_g: &[f64],
    node_h: &[f64],
    (gh, hh, cnt): SlabMut<'_>,
) {
    let d = ctx.d();
    let (g, h) = (&ctx.grads.g, &ctx.grads.h);
    let f = ctx.features[f_local] as usize;
    let (rows, ebins) = ctx.data.sparse.col(f);
    let zb = ctx.data.sparse.zero_bin(f) as usize;
    let mut explicit_in_node = 0u32;
    for (&r, &b) in rows.iter().zip(ebins) {
        let i = r as usize;
        if !in_node[i] {
            continue;
        }
        let b = b as usize;
        explicit_in_node += 1;
        cnt[b] += 1;
        add_row(&mut gh[b * d..(b + 1) * d], &g[i * d..(i + 1) * d]);
        add_row(&mut hh[b * d..(b + 1) * d], &h[i * d..(i + 1) * d]);
    }
    // Implicit entries: everything in the node not explicit here.
    // Per output, the explicit mass is summed over every bin but `zb`
    // in ascending order from 0.0.
    cnt[zb] += idx.len() as u32 - explicit_in_node;
    let mut eg = vec![0.0; d];
    let mut eh = vec![0.0; d];
    for (b, (gr, hr)) in gh.chunks_exact(d).zip(hh.chunks_exact(d)).enumerate() {
        if b != zb {
            add_row(&mut eg, gr);
            add_row(&mut eh, hr);
        }
    }
    // zero-bin currently holds explicit zero-valued entries
    // accumulated above; add the implicit remainder.
    for (zg, (&ng, &e)) in gh[zb * d..(zb + 1) * d]
        .iter_mut()
        .zip(node_g.iter().zip(&eg))
    {
        *zg = ng - e;
    }
    for (zh, (&nh, &e)) in hh[zb * d..(zb + 1) * d]
        .iter_mut()
        .zip(node_h.iter().zip(&eh))
    {
        *zh = nh - e;
    }
}

/// Overwrite `out` with `parent − child`, element by element (the
/// subtraction trick on one slab or on a whole histogram).
fn difference_slab((og, oh, oc): SlabMut<'_>, (pg, ph, pc): Slab<'_>, (cg, ch, cc): Slab<'_>) {
    for ((o, p), c) in og.iter_mut().zip(pg).zip(cg) {
        *o = p - c;
    }
    for ((o, p), c) in oh.iter_mut().zip(ph).zip(ch) {
        *o = p - c;
    }
    for ((o, p), c) in oc.iter_mut().zip(pc).zip(cc) {
        *o = p.checked_sub(*c).expect("child count exceeds parent count");
    }
}

/// Where [`build_and_scan`] gets a node's slabs from.
#[derive(Clone, Copy)]
pub(crate) enum SlabSource<'a> {
    /// Zero each slab, then accumulate the node's instances `idx`
    /// (sparse or dense, as `ctx.opts` says). `node_g`/`node_h` are
    /// the node's per-output totals, which the sparse zero bin needs.
    Accumulate {
        idx: &'a [u32],
        node_g: &'a [f64],
        node_h: &'a [f64],
    },
    /// The subtraction trick: `parent − sibling`, elementwise.
    Difference {
        parent: &'a NodeHistogram,
        sibling: &'a NodeHistogram,
    },
}

/// One pass per node: produce every feature's slab of `out` from
/// `source` and, in the same parallel task, scan it for the feature's
/// best threshold while it is still in cache. Returns the per-feature
/// `(bin, gain)` bests in feature order, for
/// [`crate::split::pick_split`].
///
/// Each slab receives exactly the bytes the two-pass path writes
/// ([`accumulate_only`] or [`NodeHistogram::assign_difference`]), and
/// the scan is the one the public split search runs, so the bests and
/// the split picked from them are bit-identical to that path. Every
/// element of `out` is written (it may be a dirty pooled buffer).
pub(crate) fn build_and_scan(
    ctx: &HistContext<'_>,
    source: SlabSource<'_>,
    out: &mut NodeHistogram,
    scan: &NodeScan<'_>,
) -> Vec<(usize, f64)> {
    let d = ctx.d();
    let bins = ctx.bins;
    debug_assert_eq!(
        (out.num_features, out.d, out.bins),
        (ctx.features.len(), d, bins)
    );
    let in_node = match source {
        SlabSource::Accumulate { idx, .. } if ctx.opts.sparse_aware => {
            Some(node_members(ctx.grads.n, idx))
        }
        SlabSource::Accumulate { .. } => None,
        SlabSource::Difference { parent, sibling } => {
            assert_eq!(parent.g.len(), sibling.g.len(), "histogram shape mismatch");
            assert_eq!(out.g.len(), parent.g.len(), "histogram shape mismatch");
            None
        }
    };
    let gh_stride = d * bins;
    out.g
        .par_chunks_mut(gh_stride)
        .zip(out.h.par_chunks_mut(gh_stride))
        .zip(out.counts.par_chunks_mut(bins))
        .enumerate()
        .map(|(f_local, ((gh, hh), cnt))| {
            match source {
                SlabSource::Accumulate {
                    idx,
                    node_g,
                    node_h,
                } => {
                    gh.fill(0.0);
                    hh.fill(0.0);
                    cnt.fill(0);
                    let slab = (&mut *gh, &mut *hh, &mut *cnt);
                    match &in_node {
                        Some(in_node) => {
                            accumulate_sparse_slab(ctx, f_local, idx, in_node, node_g, node_h, slab)
                        }
                        None => accumulate_dense_slab(ctx, f_local, idx, slab),
                    }
                }
                SlabSource::Difference { parent, sibling } => difference_slab(
                    (&mut *gh, &mut *hh, &mut *cnt),
                    parent.slab(f_local),
                    sibling.slab(f_local),
                ),
            }
            scan.best_threshold(ctx.features[f_local], gh, hh, cnt)
        })
        .collect()
}

/// Resolve the configured method for a node of `node_size` instances
/// (runs the adaptive selector when configured).
pub fn resolve_method(ctx: &HistContext<'_>, node_size: usize) -> HistogramMethod {
    match ctx.opts.method {
        HistogramMethod::Adaptive => adaptive::select_method(ctx, node_size),
        m => m,
    }
}

/// Kernel-cost descriptor of building one node's histogram with
/// `method`, from measured access-pattern statistics.
pub fn method_cost(ctx: &HistContext<'_>, idx: &[u32], method: HistogramMethod) -> KernelCost {
    match method {
        HistogramMethod::GlobalMemory => {
            gmem::cost_descriptor(ctx, idx.len(), &stats::measure(ctx, idx))
        }
        HistogramMethod::SharedMemory => {
            smem::cost_descriptor(ctx, idx.len(), &stats::measure(ctx, idx))
        }
        HistogramMethod::SortReduce => sortreduce::cost_descriptor(ctx, idx.len()),
        HistogramMethod::Adaptive => method_cost(ctx, idx, resolve_method(ctx, idx.len())),
    }
}

/// Charge one node's histogram build with `method` to the device.
pub fn charge_method(ctx: &HistContext<'_>, idx: &[u32], method: HistogramMethod) {
    charge_method_on(ctx, idx, method, 0);
}

/// [`charge_method`] issued on a specific stream, so sibling-node fresh
/// builds of one level can overlap on the timeline. Charged
/// nanoseconds, sanitizer traces, and profiler aggregates are identical
/// regardless of stream; only start timestamps move.
pub fn charge_method_on(
    ctx: &HistContext<'_>,
    idx: &[u32],
    method: HistogramMethod,
    stream: usize,
) {
    match method {
        HistogramMethod::GlobalMemory => gmem::charge_on(ctx, idx, stream),
        HistogramMethod::SharedMemory => smem::charge_on(ctx, idx, stream),
        HistogramMethod::SortReduce => sortreduce::charge_on(ctx, idx, stream),
        HistogramMethod::Adaptive => {
            // Scope the selector so adaptive picks show up as nested
            // `hist_adaptive/hist_*` paths in the profile.
            let _scope = ctx.device.prof_scope("hist_adaptive", None);
            charge_method_on(ctx, idx, resolve_method(ctx, idx.len()), stream)
        }
    }
}

/// Build one node's histogram with the configured method, charging the
/// device. Returns the method actually used (after adaptive selection).
///
/// `node_g`/`node_h` are the node's per-output totals (required by the
/// sparse path and by adaptive prediction).
pub fn build_node_histogram(
    ctx: &HistContext<'_>,
    idx: &[u32],
    node_g: &[f64],
    node_h: &[f64],
    out: &mut NodeHistogram,
) -> HistogramMethod {
    let method = resolve_method(ctx, idx.len());
    accumulate_only(ctx, idx, node_g, node_h, out);
    charge_method(ctx, idx, method);
    method
}

/// Functional accumulation without any device charge (the charging
/// policy — immediate vs stream-batched — is the caller's).
pub fn accumulate_only(
    ctx: &HistContext<'_>,
    idx: &[u32],
    node_g: &[f64],
    node_h: &[f64],
    out: &mut NodeHistogram,
) {
    out.reset();
    if ctx.opts.sparse_aware {
        accumulate_sparse(ctx, idx, node_g, node_h, out);
    } else {
        accumulate_dense(ctx, idx, out);
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::loss::MseLoss;
    use gbdt_data::synth::{make_classification, ClassificationSpec};
    use gbdt_data::Dataset;

    /// A small deterministic fixture: dataset, binned view, gradients.
    pub fn fixture(n: usize, m: usize, d: usize, seed: u64) -> (Dataset, BinnedDataset, Gradients) {
        fixture_with_sparsity(n, m, d, seed, 0.4)
    }

    /// Fixture over fully dense features (no zero-bin skew).
    pub fn fixture_dense(
        n: usize,
        m: usize,
        d: usize,
        seed: u64,
    ) -> (Dataset, BinnedDataset, Gradients) {
        fixture_with_sparsity(n, m, d, seed, 0.0)
    }

    /// Fixture with an explicit zero fraction in the features.
    pub fn fixture_with_sparsity(
        n: usize,
        m: usize,
        d: usize,
        seed: u64,
        sparsity: f64,
    ) -> (Dataset, BinnedDataset, Gradients) {
        let ds = make_classification(&ClassificationSpec {
            instances: n,
            features: m,
            classes: d.max(2),
            informative: (m / 2).max(1),
            sparsity,
            seed,
            ..Default::default()
        });
        let binned = BinnedDataset::build(ds.features(), 32);
        let device = Device::rtx4090();
        let scores = vec![0.0f32; n * ds.d()];
        let grads =
            crate::grad::compute_gradients(&device, &MseLoss, &scores, ds.targets(), n, ds.d());
        (ds, binned, grads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_support::fixture;

    fn ctx<'a>(
        device: &'a Device,
        data: &'a BinnedDataset,
        grads: &'a Gradients,
        features: &'a [u32],
        opts: HistOptions,
    ) -> HistContext<'a> {
        HistContext {
            device,
            data,
            grads,
            features,
            bins: 32,
            opts,
        }
    }

    #[test]
    fn histogram_totals_match_node_sums() {
        let (_, data, grads) = fixture(200, 6, 3, 1);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let c = ctx(&device, &data, &grads, &features, HistOptions::default());
        let idx: Vec<u32> = (0..200).collect();
        let mut out = NodeHistogram::new(6, grads.d, 32);
        accumulate_dense(&c, &idx, &mut out);

        let (node_g, node_h) = grads.sums(&idx);
        for f in 0..6 {
            // Counts per feature sum to node size.
            let cnt: u32 = out.counts[f * 32..(f + 1) * 32].iter().sum();
            assert_eq!(cnt as usize, idx.len());
            for k in 0..grads.d {
                let sg: f64 = (0..32).map(|b| out.g[out.gh_index(f, k, b)]).sum();
                let sh: f64 = (0..32).map(|b| out.h[out.gh_index(f, k, b)]).sum();
                assert!(
                    (sg - node_g[k]).abs() < 1e-6,
                    "f={f} k={k}: {sg} vs {}",
                    node_g[k]
                );
                assert!((sh - node_h[k]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn sparse_accumulation_matches_dense() {
        let (_, data, grads) = fixture(300, 8, 3, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let c = ctx(&device, &data, &grads, &features, HistOptions::default());
        // A scattered subset of instances, as after several splits.
        let idx: Vec<u32> = (0..300).filter(|i| i % 3 != 1).collect();
        let (node_g, node_h) = grads.sums(&idx);

        let mut dense = NodeHistogram::new(8, grads.d, 32);
        accumulate_dense(&c, &idx, &mut dense);
        let mut sparse = NodeHistogram::new(8, grads.d, 32);
        accumulate_sparse(&c, &idx, &node_g, &node_h, &mut sparse);

        assert_eq!(dense.counts, sparse.counts);
        for (a, b) in dense.g.iter().zip(&sparse.g) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        for (a, b) in dense.h.iter().zip(&sparse.h) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn subtraction_reconstructs_sibling() {
        let (_, data, grads) = fixture(150, 5, 2, 3);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..5).collect();
        let c = ctx(&device, &data, &grads, &features, HistOptions::default());

        let all: Vec<u32> = (0..150).collect();
        let left: Vec<u32> = (0..150).filter(|i| i % 2 == 0).collect();
        let right: Vec<u32> = (0..150).filter(|i| i % 2 == 1).collect();

        let mut parent = NodeHistogram::new(5, grads.d, 32);
        accumulate_dense(&c, &all, &mut parent);
        let mut derived = NodeHistogram::new(5, grads.d, 32);
        accumulate_dense(&c, &left, &mut derived);
        derived.subtract_from(&parent); // now = parent − left = right

        let mut direct = NodeHistogram::new(5, grads.d, 32);
        accumulate_dense(&c, &right, &mut direct);
        assert_eq!(derived.counts, direct.counts);
        for (a, b) in derived.g.iter().zip(&direct.g) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn all_methods_build_identical_histograms() {
        let (_, data, grads) = fixture(250, 6, 4, 4);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let idx: Vec<u32> = (0..250).collect();
        let (node_g, node_h) = grads.sums(&idx);

        let mut results = Vec::new();
        for method in [
            HistogramMethod::GlobalMemory,
            HistogramMethod::SharedMemory,
            HistogramMethod::SortReduce,
            HistogramMethod::Adaptive,
        ] {
            let opts = HistOptions {
                method,
                ..HistOptions::default()
            };
            let c = ctx(&device, &data, &grads, &features, opts);
            let mut out = NodeHistogram::new(6, grads.d, 32);
            let _ = build_node_histogram(&c, &idx, &node_g, &node_h, &mut out);
            results.push(out);
        }
        for r in &results[1..] {
            assert_eq!(results[0].counts, r.counts);
            assert_eq!(results[0].g, r.g); // same accumulation → bitwise equal
            assert_eq!(results[0].h, r.h);
        }
    }

    #[test]
    fn reset_allows_buffer_reuse() {
        let mut h = NodeHistogram::new(2, 2, 8);
        h.g[5] = 1.0;
        h.counts[3] = 7;
        h.reset();
        assert!(h.g.iter().all(|&x| x == 0.0));
        assert!(h.counts.iter().all(|&x| x == 0));
    }

    #[test]
    fn memory_bytes_scales_with_outputs() {
        let small = NodeHistogram::new(10, 2, 256);
        let big = NodeHistogram::new(10, 20, 256);
        assert!(big.memory_bytes() > small.memory_bytes() * 5);
    }

    #[test]
    #[should_panic(expected = "child count exceeds parent")]
    fn subtraction_detects_inconsistent_histograms() {
        let mut child = NodeHistogram::new(1, 1, 4);
        child.counts[0] = 5;
        let parent = NodeHistogram::new(1, 1, 4);
        child.subtract_from(&parent);
    }
}
