//! Sanitizer wiring for the training pipeline's simulated kernels.
//!
//! The histogram, partition, subtraction and leaf-value kernels execute
//! functionally as deterministic host folds; what `compute-sanitizer`
//! would check on hardware is the *access pattern the launch implies*.
//! When a [`gpusim::Sanitizer`] is attached to the device
//! ([`gpusim::Device::enable_sanitizer`]), the helpers in this module
//! declare that pattern — thread coordinates, buffer offsets, and most
//! importantly which updates are *claimed atomic* — so racecheck can
//! verify the claims (atomic collisions legal, plain-write collisions
//! flagged) instead of trusting them.
//!
//! Declaration is deterministically sampled (feature/instance/output
//! caps below): the sanitizer checks structure, it does not account
//! cost, so a bounded sample that preserves the collision structure
//! (many blocks updating the same histogram bins) is sufficient and
//! keeps sanitized runs memory-bounded. With no sanitizer attached
//! every helper is a single `Option` check — the hot path is untouched
//! and nothing is ever charged to the time ledger.

use crate::hist::HistContext;
use gpusim::sanitize::Sanitizer;
use gpusim::{AccessKind, Device, MemSpace, ThreadCtx};

/// Max features whose access streams are declared per histogram launch.
pub(crate) const MAX_TRACE_FEATURES: usize = 4;
/// Max instances declared per (feature) stream.
pub(crate) const MAX_TRACE_INSTANCES: usize = 256;
/// Max output dimensions declared per (instance, feature) pair.
pub(crate) const MAX_TRACE_OUTPUTS: usize = 4;
/// Max elements declared for streaming kernels (partition, subtract).
pub(crate) const MAX_TRACE_ELEMS: usize = 4096;

/// Stride-sampled positions `0, s, 2s, …` covering `len` with at most
/// `cap` points (deterministic; mirrors the cost model's warp sampler).
pub(crate) fn sample_stride(len: usize, cap: usize) -> impl Iterator<Item = usize> {
    let stride = len.div_ceil(cap.max(1)).max(1);
    (0..len).step_by(stride)
}

/// Declare one node's histogram build with the *resolved* method.
/// No-op without an attached sanitizer. Used by the stream-batched
/// charging path, which bypasses the per-method `charge` functions.
pub fn trace_hist(ctx: &HistContext<'_>, idx: &[u32], method: crate::config::HistogramMethod) {
    let Some(san) = ctx.device.sanitizer() else {
        return;
    };
    use crate::config::HistogramMethod;
    match method {
        HistogramMethod::GlobalMemory => crate::hist::gmem::trace(ctx, idx, &san),
        HistogramMethod::SharedMemory => crate::hist::smem::trace(ctx, idx, &san),
        HistogramMethod::SortReduce => crate::hist::sortreduce::trace(ctx, idx, &san),
        HistogramMethod::Adaptive => crate::hist::adaptive::trace(ctx, idx, &san),
    }
}

/// Declare the histogram-subtraction kernel (`out = parent − sibling`):
/// one thread per element, two reads and one plain write, all at the
/// thread's own offset — disjoint by construction, and racecheck
/// verifies exactly that.
pub fn trace_subtract(device: &Device, elems: usize) {
    let Some(san) = device.sanitizer() else {
        return;
    };
    let scope = san.scope("hist_subtract");
    let parent = scope.register("parent_hist", elems, MemSpace::Global, true);
    let sibling = scope.register("sibling_hist", elems, MemSpace::Global, true);
    let out = scope.register("derived_hist", elems, MemSpace::Global, false);
    for e in sample_stride(elems, MAX_TRACE_ELEMS) {
        let ctx = ThreadCtx::from_global(e, 256);
        scope.touch(parent, ctx, e, AccessKind::Read);
        scope.touch(sibling, ctx, e, AccessKind::Read);
        scope.touch(out, ctx, e, AccessKind::Write);
    }
}

/// Declare one node's scan-based partition: every thread reads its flag
/// and index, then scatters to an exclusive-scan-derived slot. The
/// scatter offsets are computed from the *real* flags, so a broken scan
/// (two instances mapped to one slot) would surface as a
/// write-write race.
pub fn trace_partition(device: &Device, flags: &[bool]) {
    let Some(san) = device.sanitizer() else {
        return;
    };
    let n = flags.len();
    if n == 0 {
        return;
    }
    let left_total: usize = flags.iter().filter(|&&f| f).count();
    let scope = san.scope("partition_level");
    let f_id = scope.register("flags", n, MemSpace::Global, true);
    let i_id = scope.register("node_indices", n, MemSpace::Global, true);
    let o_id = scope.register("partition_out", n, MemSpace::Global, false);
    // Exclusive prefix of flags gives each thread its scatter slot.
    let mut left_before = 0usize;
    let mut right_before = 0usize;
    let stride = n.div_ceil(MAX_TRACE_ELEMS).max(1);
    for (e, &flag) in flags.iter().enumerate() {
        if e % stride == 0 {
            let ctx = ThreadCtx::from_global(e, 256);
            scope.touch(f_id, ctx, e, AccessKind::Read);
            scope.touch(i_id, ctx, e, AccessKind::Read);
            let slot = if flag {
                left_before
            } else {
                left_total + right_before
            };
            scope.touch(o_id, ctx, slot, AccessKind::Write);
        }
        if flag {
            left_before += 1;
        } else {
            right_before += 1;
        }
    }
}

/// Declare one leaf's value computation: one thread per output writes
/// its own slot of the leaf-value vector.
pub fn trace_leaf_values(device: &Device, d: usize) {
    let Some(san) = device.sanitizer() else {
        return;
    };
    let scope = san.scope("leaf_values");
    let g_id = scope.register("node_g", d, MemSpace::Global, true);
    let h_id = scope.register("node_h", d, MemSpace::Global, true);
    let v_id = scope.register("leaf_value", d, MemSpace::Global, false);
    for k in 0..d {
        let ctx = ThreadCtx::from_global(k, 256);
        scope.touch(g_id, ctx, k, AccessKind::Read);
        scope.touch(h_id, ctx, k, AccessKind::Read);
        scope.touch(v_id, ctx, k, AccessKind::Write);
    }
}

/// Declare the leaf-scatter score update: one thread per resident
/// instance reads its leaf's value row and read-modify-writes its own
/// score row. Rows are disjoint across instances (each instance lives
/// in exactly one leaf), which is exactly what racecheck verifies.
pub fn trace_update_scores(
    device: &Device,
    d: usize,
    n: usize,
    leaf_assignments: &[(Vec<u32>, Vec<f32>)],
) {
    let Some(san) = device.sanitizer() else {
        return;
    };
    let scope = san.scope("update_scores");
    let v_id = scope.register(
        "leaf_value",
        leaf_assignments.len() * d,
        MemSpace::Global,
        true,
    );
    let s_id = scope.register("scores", n * d, MemSpace::Global, true);
    let mut traced = 0usize;
    'outer: for (leaf, (instances, _)) in leaf_assignments.iter().enumerate() {
        for &i in instances
            .iter()
            .take(MAX_TRACE_ELEMS / leaf_assignments.len().max(1) + 1)
        {
            if traced >= MAX_TRACE_ELEMS {
                break 'outer;
            }
            traced += 1;
            let ctx = ThreadCtx::from_global(i as usize, 256);
            for k in 0..d.min(MAX_TRACE_OUTPUTS) {
                scope.touch(v_id, ctx, leaf * d + k, AccessKind::Read);
                let at = i as usize * d + k;
                scope.touch(s_id, ctx, at, AccessKind::Read);
                scope.touch(s_id, ctx, at, AccessKind::Write);
            }
        }
    }
}

/// Declare the per-output gradient-energy reduction of the TopOutputs
/// sketch: one thread per instance reads its gradient row and
/// atomically accumulates `|g|` into the per-column energy — atomic
/// collisions across instances are the point, and racecheck verifies
/// they are claimed.
pub fn trace_sketch_colnorm(device: &Device, n: usize, d: usize) {
    let Some(san) = device.sanitizer() else {
        return;
    };
    let scope = san.scope("sketch_colnorm");
    let g_id = scope.register("grad_plane", n * d, MemSpace::Global, true);
    let e_id = scope.register("col_energy", d, MemSpace::Global, true);
    for i in sample_stride(n, MAX_TRACE_INSTANCES) {
        let ctx = ThreadCtx::from_global(i, 256);
        for k in 0..d.min(MAX_TRACE_OUTPUTS) {
            scope.touch(g_id, ctx, i * d + k, AccessKind::Read);
            scope.touch(e_id, ctx, k, AccessKind::Atomic);
        }
    }
}

/// Declare the column-gather sketch kernel: one thread per
/// (instance, sketched column) reads its column index and the full
/// gradient/Hessian entries, then plain-writes its own slot of the
/// `n × k` sketch — disjoint by construction.
pub fn trace_sketch_gather(device: &Device, n: usize, d: usize, cols: &[usize]) {
    let Some(san) = device.sanitizer() else {
        return;
    };
    let k = cols.len();
    let scope = san.scope("sketch_gather");
    let c_id = scope.register("sketch_cols", k, MemSpace::Global, true);
    let g_id = scope.register("grad_full", n * d * 2, MemSpace::Global, true);
    let s_id = scope.register("grad_sketch", n * k * 2, MemSpace::Global, false);
    for i in sample_stride(n, MAX_TRACE_INSTANCES) {
        for (j, &c) in cols.iter().enumerate().take(MAX_TRACE_OUTPUTS) {
            let ctx = ThreadCtx::from_global(i * k + j, 256);
            scope.touch(c_id, ctx, j, AccessKind::Read);
            scope.touch(g_id, ctx, (i * d + c) * 2, AccessKind::Read);
            scope.touch(g_id, ctx, (i * d + c) * 2 + 1, AccessKind::Read);
            scope.touch(s_id, ctx, (i * k + j) * 2, AccessKind::Write);
            scope.touch(s_id, ctx, (i * k + j) * 2 + 1, AccessKind::Write);
        }
    }
}

/// Declare the GEMM-style projection sketch: one thread per
/// (instance, sketched column) reads the instance's gradient row and
/// the projection matrix column, then plain-writes its own `n × k`
/// slot — disjoint writes, shared reads.
pub fn trace_sketch_projection(device: &Device, n: usize, d: usize, k: usize) {
    let Some(san) = device.sanitizer() else {
        return;
    };
    let scope = san.scope("sketch_projection");
    let g_id = scope.register("grad_full", n * d * 2, MemSpace::Global, true);
    let r_id = scope.register("proj_matrix", d * k, MemSpace::Global, true);
    let s_id = scope.register("grad_sketch", n * k * 2, MemSpace::Global, false);
    for i in sample_stride(n, MAX_TRACE_INSTANCES) {
        for j in 0..k.min(MAX_TRACE_OUTPUTS) {
            let ctx = ThreadCtx::from_global(i * k + j, 256);
            for kk in sample_stride(d, MAX_TRACE_OUTPUTS) {
                scope.touch(g_id, ctx, (i * d + kk) * 2, AccessKind::Read);
                scope.touch(g_id, ctx, (i * d + kk) * 2 + 1, AccessKind::Read);
                scope.touch(r_id, ctx, kk * k + j, AccessKind::Read);
            }
            scope.touch(s_id, ctx, (i * k + j) * 2, AccessKind::Write);
            scope.touch(s_id, ctx, (i * k + j) * 2 + 1, AccessKind::Write);
        }
    }
}

/// Declare the full-`d` leaf-value refit gather-reduce: one thread per
/// (leaf, output) reads the resident instances' full gradient entries
/// and plain-writes its own slot of the leaf-value table — leaves are
/// disjoint instance sets, outputs are disjoint slots.
pub fn trace_leaf_refit(
    device: &Device,
    n: usize,
    d: usize,
    leaf_assignments: &[(Vec<u32>, Vec<f32>)],
) {
    let Some(san) = device.sanitizer() else {
        return;
    };
    let leaves = leaf_assignments.len();
    let scope = san.scope("leaf_refit_full_d");
    let g_id = scope.register("grad_full", n * d * 2, MemSpace::Global, true);
    let v_id = scope.register("leaf_values_full", leaves * d, MemSpace::Global, false);
    let per_leaf = (MAX_TRACE_ELEMS / leaves.max(1)).max(1);
    for (leaf, (instances, _)) in leaf_assignments.iter().enumerate() {
        for k in 0..d.min(MAX_TRACE_OUTPUTS) {
            let ctx = ThreadCtx::from_global(leaf * d + k, 256);
            for &i in instances.iter().take(per_leaf) {
                scope.touch(g_id, ctx, (i as usize * d + k) * 2, AccessKind::Read);
                scope.touch(g_id, ctx, (i as usize * d + k) * 2 + 1, AccessKind::Read);
            }
            scope.touch(v_id, ctx, leaf * d + k, AccessKind::Write);
        }
    }
}

/// Declare the elementwise gradient/Hessian kernel: one thread per
/// (instance, output) reads its score and target slots and plain-writes
/// its own g/h slots — fully disjoint by construction.
pub fn trace_grad_hess(device: &Device, n: usize, d: usize) {
    let Some(san) = device.sanitizer() else {
        return;
    };
    let scope = san.scope("grad_hess");
    let s_id = scope.register("scores", n * d, MemSpace::Global, true);
    let t_id = scope.register("targets", n * d, MemSpace::Global, true);
    let g_id = scope.register("grad_out", n * d, MemSpace::Global, false);
    let h_id = scope.register("hess_out", n * d, MemSpace::Global, false);
    for i in sample_stride(n, MAX_TRACE_INSTANCES) {
        let ctx = ThreadCtx::from_global(i, 256);
        for k in 0..d.min(MAX_TRACE_OUTPUTS) {
            let at = i * d + k;
            scope.touch(s_id, ctx, at, AccessKind::Read);
            scope.touch(t_id, ctx, at, AccessKind::Read);
            scope.touch(g_id, ctx, at, AccessKind::Write);
            scope.touch(h_id, ctx, at, AccessKind::Write);
        }
    }
}

/// Declare the in-place bf16 gradient quantization: one thread per
/// element read-modify-writes its own slot of the interleaved g/h
/// plane — no cross-thread traffic at all.
pub fn trace_quantize_bf16(device: &Device, elems: usize) {
    let Some(san) = device.sanitizer() else {
        return;
    };
    let scope = san.scope("quantize_bf16");
    let p_id = scope.register("grad_plane", elems * 2, MemSpace::Global, true);
    for e in sample_stride(elems, MAX_TRACE_ELEMS) {
        let ctx = ThreadCtx::from_global(e, 256);
        scope.touch(p_id, ctx, e, AccessKind::Read);
        scope.touch(p_id, ctx, e, AccessKind::Write);
    }
}

/// Declare the quantile-binning preprocessing kernel: one thread per
/// (instance, feature) reads its raw value plus the feature's shared
/// cut array and writes its own bin id — reads may collide (read-read
/// is always legal), writes are disjoint.
pub fn trace_quantile_binning(device: &Device, n: usize, m: usize, max_bins: usize) {
    let Some(san) = device.sanitizer() else {
        return;
    };
    let scope = san.scope("quantile_binning");
    let r_id = scope.register("raw_features", n * m, MemSpace::Global, true);
    let c_id = scope.register("bin_cuts", m * max_bins.max(1), MemSpace::Global, true);
    let b_id = scope.register("bin_ids", n * m, MemSpace::Global, false);
    let mf = m.clamp(1, MAX_TRACE_FEATURES);
    for f in 0..mf {
        for i in sample_stride(n, MAX_TRACE_INSTANCES / mf + 1) {
            let ctx = ThreadCtx::from_global(f * n + i, 256);
            let at = i * m + f;
            scope.touch(r_id, ctx, at, AccessKind::Read);
            scope.touch(c_id, ctx, f * max_bins.max(1), AccessKind::Read);
            scope.touch(b_id, ctx, at, AccessKind::Write);
        }
    }
}

/// Declare the level's three split-evaluation kernels (scan+gain,
/// per-segment argmax, global per-node argmax). Scan and segment
/// reductions write disjoint slots; the cross-segment winner update is
/// claimed atomic — which is exactly what a broken segment mapping
/// would violate.
pub fn trace_split_level(device: &Device, segments: usize, candidates: usize, nodes: usize) {
    let Some(san) = device.sanitizer() else {
        return;
    };
    let (segments, candidates, nodes) = (segments.max(1), candidates.max(1), nodes.max(1));
    {
        let scope = san.scope("split_scan_gain_level");
        let h_id = scope.register("node_hist", candidates, MemSpace::Global, true);
        let g_id = scope.register("gain_out", candidates, MemSpace::Global, false);
        for e in sample_stride(candidates, MAX_TRACE_ELEMS) {
            let ctx = ThreadCtx::from_global(e, 256);
            scope.touch(h_id, ctx, e, AccessKind::Read);
            scope.touch(g_id, ctx, e, AccessKind::Write);
        }
    }
    {
        let scope = san.scope("split_seg_argmax_level");
        let g_id = scope.register("gain_out", candidates, MemSpace::Global, true);
        let s_id = scope.register("seg_best", segments, MemSpace::Global, false);
        let per_seg = (candidates / segments).max(1);
        for s in sample_stride(segments, MAX_TRACE_ELEMS) {
            let ctx = ThreadCtx::from_global(s, 256);
            scope.touch(
                g_id,
                ctx,
                (s * per_seg).min(candidates - 1),
                AccessKind::Read,
            );
            scope.touch(s_id, ctx, s, AccessKind::Write);
        }
    }
    {
        let scope = san.scope("split_global_argmax_level");
        let s_id = scope.register("seg_best", segments, MemSpace::Global, true);
        let w_id = scope.register("node_winner", nodes, MemSpace::Global, true);
        for s in sample_stride(segments, MAX_TRACE_ELEMS) {
            let ctx = ThreadCtx::from_global(s, 256);
            scope.touch(s_id, ctx, s, AccessKind::Read);
            scope.touch(w_id, ctx, s % nodes, AccessKind::Atomic);
        }
    }
}

/// Declare the training-path ensemble predict kernel: one thread per
/// instance walks node records (shared reads) and writes its own score
/// row — the same disjoint row-scatter the serving kernels replay.
pub fn trace_predict(device: &Device, n: usize, d: usize, total_depth: usize) {
    let Some(san) = device.sanitizer() else {
        return;
    };
    let scope = san.scope("predict");
    let hops = total_depth.max(1);
    let t_id = scope.register("tree_nodes", hops, MemSpace::Global, true);
    let s_id = scope.register("scores_out", n * d, MemSpace::Global, false);
    for i in sample_stride(n, MAX_TRACE_INSTANCES) {
        let ctx = ThreadCtx::from_global(i, 256);
        for hop in sample_stride(hops, 8) {
            scope.touch(t_id, ctx, hop, AccessKind::Read);
        }
        for k in 0..d.min(MAX_TRACE_OUTPUTS) {
            scope.touch(s_id, ctx, i * d + k, AccessKind::Write);
        }
    }
}

/// Shared declaration core of the gmem/smem histogram kernels: one
/// thread per (instance, feature) pair, feature-major, reading its bin
/// ID and gradient row, then issuing `kind` updates to the histogram
/// accumulators named by `g_label`/`h_label` in `space`.
///
/// Returns nothing; violations accumulate on the sanitizer.
pub(crate) fn trace_pair_kernel(
    san: &Sanitizer,
    ctx: &HistContext<'_>,
    idx: &[u32],
    name: &'static str,
    space: MemSpace,
    atomic: bool,
) {
    let mf = ctx.features.len();
    let d = ctx.d();
    let bins = ctx.bins;
    let n = ctx.data.n();
    let nn = idx.len();
    let scope = san.scope(name);

    let b_id = scope.register("bin_ids", mf * n, MemSpace::Global, true);
    let gr_id = scope.register("grad_rows", n * d * 2, MemSpace::Global, true);
    // Shared-memory strategies accumulate into a per-block tile; the
    // global strategy hits the global plane directly.
    let (g_id, h_id, c_id, tile) = match space {
        MemSpace::Shared => (
            scope.register("smem_tile_g", d * bins, MemSpace::Shared, true),
            scope.register("smem_tile_h", d * bins, MemSpace::Shared, true),
            scope.register("smem_tile_cnt", bins, MemSpace::Shared, true),
            true,
        ),
        MemSpace::Global => (
            scope.register("hist_g", mf * d * bins, MemSpace::Global, true),
            scope.register("hist_h", mf * d * bins, MemSpace::Global, true),
            scope.register("hist_counts", mf * bins, MemSpace::Global, true),
            false,
        ),
    };
    let kind = if atomic {
        AccessKind::Atomic
    } else {
        AccessKind::Write
    };

    let f_stride = mf.div_ceil(MAX_TRACE_FEATURES).max(1);
    for f_local in (0..mf).step_by(f_stride) {
        let f = ctx.features[f_local] as usize;
        let col = ctx.data.bins.col(f);
        for j in sample_stride(nn, MAX_TRACE_INSTANCES) {
            let i = idx[j] as usize;
            let b = col[i] as usize;
            // Thread per pair, feature-major over the node's instances.
            let tctx = ThreadCtx::from_global(f_local * nn + j, 256);
            scope.touch(b_id, tctx, f * n + i, AccessKind::Read);
            for k in 0..d.min(MAX_TRACE_OUTPUTS) {
                scope.touch(gr_id, tctx, (i * d + k) * 2, AccessKind::Read);
                scope.touch(gr_id, tctx, (i * d + k) * 2 + 1, AccessKind::Read);
                let slot = if tile {
                    k * bins + b
                } else {
                    (f_local * d + k) * bins + b
                };
                scope.touch(g_id, tctx, slot, kind);
                scope.touch(h_id, tctx, slot, kind);
            }
            let cnt_slot = if tile { b } else { f_local * bins + b };
            scope.touch(c_id, tctx, cnt_slot, kind);
        }
    }

    // Shared-memory tiles flush once per block into the global plane —
    // spread atomics, one per histogram slot, verified legal across
    // blocks.
    if tile {
        let fg = scope.register("hist_g", mf * d * bins, MemSpace::Global, true);
        let fh = scope.register("hist_h", mf * d * bins, MemSpace::Global, true);
        for block in 0..2u32 {
            for f_local in (0..mf).step_by(f_stride) {
                for k in 0..d.min(MAX_TRACE_OUTPUTS) {
                    for b in sample_stride(bins, 32) {
                        let slot = (f_local * d + k) * bins + b;
                        let tctx = ThreadCtx {
                            block,
                            thread: (k * bins + b) as u32 % 256,
                        };
                        scope.touch(fg, tctx, slot, AccessKind::Atomic);
                        scope.touch(fh, tctx, slot, AccessKind::Atomic);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{HistOptions, HistogramMethod};
    use crate::hist::test_support::fixture;
    use crate::hist::HistContext;
    use gpusim::{Device, SanitizeMode};

    fn make_ctx<'a>(
        device: &'a Device,
        data: &'a gbdt_data::BinnedDataset,
        grads: &'a crate::grad::Gradients,
        features: &'a [u32],
        method: HistogramMethod,
    ) -> HistContext<'a> {
        HistContext {
            device,
            data,
            grads,
            features,
            bins: 32,
            opts: HistOptions {
                method,
                ..HistOptions::default()
            },
        }
    }

    #[test]
    fn all_hist_methods_trace_clean() {
        let (_, data, grads) = fixture(300, 6, 3, 1);
        let features: Vec<u32> = (0..6).collect();
        let idx: Vec<u32> = (0..300).collect();
        for method in [
            HistogramMethod::GlobalMemory,
            HistogramMethod::SharedMemory,
            HistogramMethod::SortReduce,
            HistogramMethod::Adaptive,
        ] {
            let device = Device::rtx4090();
            device.enable_sanitizer(SanitizeMode::Full);
            let ctx = make_ctx(&device, &data, &grads, &features, method);
            trace_hist(&ctx, &idx, method);
            let report = device.sanitize_report().expect("sanitizer attached");
            assert!(report.is_clean(), "{method:?}: {}", report.table());
            assert!(report.total_accesses > 0, "{method:?} declared nothing");
        }
    }

    #[test]
    fn gmem_and_smem_declare_atomics_sortreduce_does_not() {
        let (_, data, grads) = fixture(200, 4, 2, 2);
        let features: Vec<u32> = (0..4).collect();
        let idx: Vec<u32> = (0..200).collect();

        let atomics_of = |method: HistogramMethod| {
            let device = Device::rtx4090();
            device.enable_sanitizer(SanitizeMode::Full);
            let ctx = make_ctx(&device, &data, &grads, &features, method);
            trace_hist(&ctx, &idx, method);
            let r = device.sanitize_report().expect("sanitizer");
            assert!(r.is_clean(), "{method:?}: {}", r.table());
            r.kernels.values().map(|s| s.atomics).sum::<u64>()
        };
        assert!(atomics_of(HistogramMethod::GlobalMemory) > 0);
        assert!(atomics_of(HistogramMethod::SharedMemory) > 0);
        assert_eq!(atomics_of(HistogramMethod::SortReduce), 0);
    }

    #[test]
    fn partition_subtract_and_leaf_traces_are_clean() {
        let device = Device::rtx4090();
        device.enable_sanitizer(SanitizeMode::Full);
        let flags: Vec<bool> = (0..1000).map(|i| i % 3 == 0).collect();
        trace_partition(&device, &flags);
        trace_subtract(&device, 4096);
        trace_leaf_values(&device, 8);
        let leaves = vec![
            (vec![0u32, 2, 4], vec![0.5f32; 3]),
            (vec![1, 3], vec![0.1; 3]),
        ];
        trace_update_scores(&device, 3, 5, &leaves);
        let report = device.sanitize_report().expect("sanitizer");
        assert!(report.is_clean(), "{}", report.table());
        assert!(report.kernels.contains_key("partition_level"));
        assert!(report.kernels.contains_key("hist_subtract"));
        assert!(report.kernels.contains_key("leaf_values"));
        assert!(report.kernels.contains_key("update_scores"));
    }

    #[test]
    fn traces_are_noops_without_sanitizer() {
        let device = Device::rtx4090();
        trace_partition(&device, &[true, false]);
        trace_subtract(&device, 64);
        trace_leaf_values(&device, 4);
        assert!(device.sanitize_report().is_none());
        assert_eq!(device.now_ns(), 0.0, "tracing must never charge");
    }

    #[test]
    fn tracing_never_charges_the_ledger() {
        let (_, data, grads) = fixture(150, 4, 2, 3);
        let features: Vec<u32> = (0..4).collect();
        let idx: Vec<u32> = (0..150).collect();
        let device = Device::rtx4090();
        device.enable_sanitizer(SanitizeMode::Full);
        let before = device.now_ns();
        let ctx = make_ctx(
            &device,
            &data,
            &grads,
            &features,
            HistogramMethod::GlobalMemory,
        );
        trace_hist(&ctx, &idx, HistogramMethod::GlobalMemory);
        trace_partition(&device, &[true; 150]);
        assert_eq!(device.now_ns(), before);
    }

    #[test]
    fn sketch_traces_are_clean_and_never_charge() {
        let device = Device::rtx4090();
        device.enable_sanitizer(SanitizeMode::Full);
        let before = device.now_ns();
        trace_sketch_colnorm(&device, 300, 8);
        trace_sketch_gather(&device, 300, 8, &[1, 4, 6]);
        trace_sketch_projection(&device, 300, 8, 3);
        let leaves = vec![
            (vec![0u32, 2, 4], vec![0.5f32; 8]),
            (vec![1, 3], vec![0.1; 8]),
        ];
        trace_leaf_refit(&device, 5, 8, &leaves);
        let report = device.sanitize_report().expect("sanitizer");
        assert!(report.is_clean(), "{}", report.table());
        for k in [
            "sketch_colnorm",
            "sketch_gather",
            "sketch_projection",
            "leaf_refit_full_d",
        ] {
            assert!(report.kernels.contains_key(k), "{k} missing");
        }
        // The colnorm reduction claims its accumulation atomics.
        assert!(report.kernels["sketch_colnorm"].atomics > 0);
        assert_eq!(report.kernels["sketch_gather"].atomics, 0);
        assert_eq!(device.now_ns(), before, "tracing must never charge");
    }

    #[test]
    fn sample_stride_bounds_and_covers() {
        assert_eq!(sample_stride(0, 16).count(), 0);
        assert_eq!(sample_stride(10, 16).count(), 10);
        let s: Vec<usize> = sample_stride(100, 10).collect();
        assert!(s.len() <= 10);
        assert_eq!(s[0], 0);
        assert!(s.iter().all(|&x| x < 100));
    }
}
