//! Access-pattern statistics shared by the histogram cost models.
//!
//! `measure` derives contention from the *actual* bins and instance
//! indices (sampled warps × sampled features, deterministically);
//! `expect` produces the closed-form estimate the adaptive selector uses
//! before any kernel runs — predicting cost must not cost a kernel.

use super::HistContext;
use gpusim::warp::WarpSampler;

/// Feature-sampling cap for measured statistics.
const MAX_SAMPLED_FEATURES: usize = 8;
/// Warp-sampling cap per sampled feature.
const MAX_SAMPLED_WARPS: usize = 64;

/// Contention/traffic statistics of one node-histogram launch,
/// already scaled to the full (instances × features) workload.
#[derive(Debug, Clone, Copy)]
pub struct ContentionStats {
    /// Total excess (replayed) bin-address collisions across all
    /// (warp, feature) atomic groups, **per output-pass** — multiply by
    /// `2d` for the (g, h) update stream.
    pub replay_excess: f64,
    /// Global-memory transactions needed to fetch bin IDs, unpacked
    /// (1-byte lanes).
    pub bin_transactions_unpacked: f64,
    /// Same, with 4-per-word bin packing (§3.4.1).
    pub bin_transactions_packed: f64,
    /// Mean fraction of *distinct* bins within each packed group of 4
    /// consecutive instances (∈ [0.25, 1]). With bin packing, a thread
    /// owns 4 instances and pre-aggregates same-bin contributions in
    /// registers before issuing atomics, so both the atomic count and
    /// the replay count scale by this ratio — the data-dependent part
    /// of the paper's "+wo" speedup (§3.4.1).
    pub packed_aggregation_ratio: f64,
}

impl Default for ContentionStats {
    fn default() -> Self {
        ContentionStats {
            replay_excess: 0.0,
            bin_transactions_unpacked: 0.0,
            bin_transactions_packed: 0.0,
            packed_aggregation_ratio: 1.0,
        }
    }
}

/// Measure statistics from the real instance list and bin columns.
///
/// The only allocation is one sector buffer reused for every warp, and
/// bins are counted without sorting: a warp's distinct bins with a
/// 256-bit mask (bins are `u8`), a group of 4's by direct comparison.
/// The counts equal `gpusim::warp`'s [`atomic_replay_excess`] and
/// [`sectors_touched`] on the same lanes.
///
/// [`atomic_replay_excess`]: gpusim::warp::atomic_replay_excess
/// [`sectors_touched`]: gpusim::warp::sectors_touched
pub fn measure(ctx: &HistContext<'_>, idx: &[u32]) -> ContentionStats {
    let nn = idx.len();
    let mf = ctx.features.len();
    if nn == 0 || mf == 0 {
        return ContentionStats::default();
    }
    let p = &ctx.device.model().params;
    let warp = p.warp_size as usize;
    let total_warps = nn.div_ceil(warp);
    let sampler = WarpSampler::with_cap(total_warps, MAX_SAMPLED_WARPS);
    let warp_lanes = |w: usize| &idx[w * warp..(w * warp + warp).min(nn)];

    // --- transactions: depend only on the index pattern, not the feature.
    let mut trans_unpacked = 0usize;
    let mut trans_packed = 0usize;
    let mut sectors: Vec<u64> = Vec::with_capacity(2 * warp);
    let sector = p.sector_bytes as u64;
    for w in sampler.indices() {
        let lanes = warp_lanes(w);
        let addr = lanes.iter().map(|&i| i as u64);
        trans_unpacked += count_sectors(&mut sectors, addr.clone(), 1, sector);
        trans_packed += count_sectors(&mut sectors, addr.map(|a| (a / 4) * 4), 4, sector);
    }
    let warp_scale = sampler.scale();

    // --- replay excess: sample features and reuse the warp sample.
    let f_stride = mf.div_ceil(MAX_SAMPLED_FEATURES).max(1);
    let mut excess = 0u64;
    let mut group_distinct = 0u64;
    let mut group_lanes = 0u64;
    let mut sampled_features = 0usize;
    let mut fi = 0;
    while fi < mf {
        sampled_features += 1;
        let col = ctx.data.bins.col(ctx.features[fi] as usize);
        for w in sampler.indices() {
            let lanes = warp_lanes(w);
            // Lanes minus distinct bins: the replayed atomics.
            let mut seen = [0u64; 4];
            for &i in lanes {
                let b = col[i as usize];
                seen[(b >> 6) as usize] |= 1 << (b & 63);
            }
            let distinct: u32 = seen.iter().map(|m| m.count_ones()).sum();
            excess += lanes.len() as u64 - distinct as u64;
            // Register-level pre-aggregation potential of packed groups
            // of 4 consecutive instances.
            for group in lanes.chunks(4) {
                let mut bins = [0u8; 4];
                for (b, &i) in bins.iter_mut().zip(group) {
                    *b = col[i as usize];
                }
                let bins = &bins[..group.len()];
                let fresh = (0..bins.len()).filter(|&j| !bins[..j].contains(&bins[j]));
                group_distinct += fresh.count() as u64;
                group_lanes += group.len() as u64;
            }
        }
        fi += f_stride;
    }
    let feature_scale = mf as f64 / sampled_features as f64;

    ContentionStats {
        replay_excess: excess as f64 * warp_scale * feature_scale,
        bin_transactions_unpacked: trans_unpacked as f64 * warp_scale * mf as f64,
        bin_transactions_packed: trans_packed as f64 * warp_scale * mf as f64,
        packed_aggregation_ratio: if group_lanes == 0 {
            1.0
        } else {
            group_distinct as f64 / group_lanes as f64
        },
    }
}

/// Distinct `sector`-byte sectors touched by `access_bytes`-wide reads
/// at `addrs`, counted in the reused buffer `scratch` (the count
/// [`gpusim::warp::sectors_touched`] returns).
fn count_sectors(
    scratch: &mut Vec<u64>,
    addrs: impl Iterator<Item = u64>,
    access_bytes: u64,
    sector: u64,
) -> usize {
    scratch.clear();
    for a in addrs {
        let first = a / sector;
        let last = (a + access_bytes - 1) / sector;
        scratch.push(first);
        if last != first {
            scratch.push(last);
        }
    }
    scratch.sort_unstable();
    scratch.dedup();
    scratch.len()
}

/// Closed-form expectation of the same statistics, used by the adaptive
/// selector. Assumes: bins roughly uniform except a skew mass equal to
/// the dataset's zero fraction landing in one bin; instance indices
/// partially scattered (half-coalesced) after the first splits.
pub fn expect(ctx: &HistContext<'_>, node_size: usize) -> ContentionStats {
    let nn = node_size as f64;
    let mf = ctx.features.len() as f64;
    if nn == 0.0 || mf == 0.0 {
        return ContentionStats::default();
    }
    let p = &ctx.device.model().params;
    let w = p.warp_size as f64;
    let bins = ctx.bins as f64;
    let warps = (nn / w).ceil();

    // Expected distinct bins among w uniform draws over `bins`.
    let uniform_distinct = bins * (1.0 - (1.0 - 1.0 / bins).powf(w));
    let uniform_excess = (w - uniform_distinct).max(0.0);
    // Skew: a zero-heavy feature funnels `sparsity` of each warp into
    // one bin.
    let total = (ctx.data.n() * ctx.data.m()) as f64;
    let sparsity = 1.0 - ctx.data.sparse.nnz() as f64 / total.max(1.0);
    let skew_excess = (w * sparsity - 1.0).max(0.0);
    let excess_per_warp = uniform_excess.max(skew_excess).min(w - 1.0);

    // Transactions: a warp reading w consecutive-ish indices spans about
    // half-scattered sectors mid-training.
    let sector = p.sector_bytes as f64;
    let trans_unpacked_per_warp = (w / sector).max(1.0) * 8.0; // ~8 sectors when scattered
    let trans_packed_per_warp = trans_unpacked_per_warp / 2.0;

    // Expected distinct bins in a packed group of 4: uniform draws vs
    // the zero-bin skew collapsing duplicates.
    let uniform_distinct4 = bins * (1.0 - (1.0 - 1.0 / bins).powi(4));
    let skew_distinct4 = 4.0 - (4.0 * sparsity - 1.0).max(0.0);
    let distinct4 = uniform_distinct4.min(skew_distinct4).clamp(1.0, 4.0);

    ContentionStats {
        replay_excess: excess_per_warp * warps * mf,
        bin_transactions_unpacked: trans_unpacked_per_warp * warps * mf,
        bin_transactions_packed: trans_packed_per_warp * warps * mf,
        packed_aggregation_ratio: distinct4 / 4.0,
    }
}

/// Effective DRAM bytes for the gradient/Hessian rows a histogram pass
/// reads: each of the node's `nn` rows (`d` (g, h) pairs of
/// `pair_bytes` — 8 for f32, 4 for bf16-quantized) is touched once per
/// feature, with L2 capturing most cross-feature reuse.
pub fn gh_bytes(nn: usize, mf: usize, d: usize, pair_bytes: f64) -> f64 {
    let base = nn as f64 * d as f64 * pair_bytes;
    base * (1.0 + (mf.saturating_sub(1)) as f64 * (1.0 - super::GH_L2_HIT))
}

/// Bytes of one (g, h) pair under the context's gradient precision.
pub fn pair_bytes(ctx: &HistContext<'_>) -> f64 {
    if ctx.opts.quantized_gradients {
        4.0
    } else {
        8.0
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::fixture;
    use super::super::HistContext;
    use super::*;
    use crate::config::HistOptions;
    use gpusim::Device;

    /// The sort-based computation `measure` replaced, kept verbatim as
    /// the oracle: one sorted copy per warp and per group of 4.
    fn measure_sorted(ctx: &HistContext<'_>, idx: &[u32]) -> ContentionStats {
        use gpusim::warp::{atomic_replay_excess, sectors_touched};
        let nn = idx.len();
        let mf = ctx.features.len();
        if nn == 0 || mf == 0 {
            return ContentionStats::default();
        }
        let p = &ctx.device.model().params;
        let warp = p.warp_size as usize;
        let total_warps = nn.div_ceil(warp);
        let sampler = WarpSampler::with_cap(total_warps, MAX_SAMPLED_WARPS);
        let mut trans_unpacked = 0usize;
        let mut trans_packed = 0usize;
        let mut addrs: Vec<u64> = Vec::with_capacity(warp);
        for w in sampler.indices() {
            let s = w * warp;
            let e = (s + warp).min(nn);
            addrs.clear();
            addrs.extend(idx[s..e].iter().map(|&i| i as u64));
            trans_unpacked += sectors_touched(&addrs, 1, p.sector_bytes);
            let packed_addrs: Vec<u64> = addrs.iter().map(|a| (a / 4) * 4).collect();
            trans_packed += sectors_touched(&packed_addrs, 4, p.sector_bytes);
        }
        let warp_scale = sampler.scale();
        let f_stride = mf.div_ceil(MAX_SAMPLED_FEATURES).max(1);
        let mut excess = 0u64;
        let mut group_distinct = 0u64;
        let mut group_lanes = 0u64;
        let mut sampled_features = 0usize;
        let mut bin_addrs: Vec<u64> = Vec::with_capacity(warp);
        let mut fi = 0;
        while fi < mf {
            sampled_features += 1;
            let col = ctx.data.bins.col(ctx.features[fi] as usize);
            for w in sampler.indices() {
                let s = w * warp;
                let e = (s + warp).min(nn);
                bin_addrs.clear();
                bin_addrs.extend(idx[s..e].iter().map(|&i| col[i as usize] as u64));
                excess += atomic_replay_excess(&bin_addrs);
                for group in bin_addrs.chunks(4) {
                    let mut g = group.to_vec();
                    g.sort_unstable();
                    g.dedup();
                    group_distinct += g.len() as u64;
                    group_lanes += group.len() as u64;
                }
            }
            fi += f_stride;
        }
        let feature_scale = mf as f64 / sampled_features as f64;
        ContentionStats {
            replay_excess: excess as f64 * warp_scale * feature_scale,
            bin_transactions_unpacked: trans_unpacked as f64 * warp_scale * mf as f64,
            bin_transactions_packed: trans_packed as f64 * warp_scale * mf as f64,
            packed_aggregation_ratio: if group_lanes == 0 {
                1.0
            } else {
                group_distinct as f64 / group_lanes as f64
            },
        }
    }

    fn stats_bits(s: &ContentionStats) -> [u64; 4] {
        [
            s.replay_excess.to_bits(),
            s.bin_transactions_unpacked.to_bits(),
            s.bin_transactions_packed.to_bits(),
            s.packed_aggregation_ratio.to_bits(),
        ]
    }

    #[test]
    fn measure_matches_the_sort_based_oracle() {
        use gbdt_data::{BinnedDataset, DenseMatrix};
        // Feature 0 takes 256 distinct values (bins 0..=255), feature 1
        // is constant (every lane in one bin), feature 2 alternates two
        // values; more than MAX_SAMPLED_FEATURES features so sampling
        // strides over them.
        let n = 1000;
        let m = 11;
        let mut x = vec![0.0f32; n * m];
        for i in 0..n {
            x[i * m] = (i % 256) as f32;
            x[i * m + 1] = 3.0;
            x[i * m + 2] = (i % 2) as f32;
            for f in 3..m {
                x[i * m + f] = ((i * (f + 7) * 31) % 97) as f32;
            }
        }
        let data = BinnedDataset::build(&DenseMatrix::new(n, m, x), 256);
        let (_, _, grads) = fixture(n, 4, 2, 5);
        let col0 = data.bins.col(0);
        let (lo, hi) = (
            col0.iter().position(|&b| b == 0),
            col0.iter().position(|&b| b == 255),
        );
        let (lo, hi) = (lo.expect("bin 0") as u32, hi.expect("bin 255") as u32);
        assert!(data.bins.col(1).iter().all(|&b| b == data.bins.col(1)[0]));
        let device = Device::rtx4090();

        let node_lists: Vec<Vec<u32>> = vec![
            // Every lane in one bin on every feature.
            vec![7; 64],
            // Bins 0 and 255 side by side in each group and warp.
            (0..96).map(|j| if j % 2 == 0 { lo } else { hi }).collect(),
            // Partial last warp (70 = 2×32 + 6) and partial last group.
            (0..70).collect(),
            // One partial warp, one partial group.
            (0..3).map(|j| j * 255).collect(),
            // Scattered, descending, beyond the warp-sampling cap.
            (0..n as u32).rev().filter(|i| i % 3 != 1).collect(),
            (0..n as u32).map(|i| (i * 389) % n as u32).collect(),
        ];
        for (features, label) in [
            ((0..m as u32).collect::<Vec<_>>(), "all features"),
            (vec![1], "constant feature"),
            (vec![0, 2], "wide and binary"),
        ] {
            let ctx = HistContext {
                device: &device,
                data: &data,
                grads: &grads,
                features: &features,
                bins: 256,
                opts: HistOptions::default(),
            };
            for idx in &node_lists {
                assert_eq!(
                    stats_bits(&measure(&ctx, idx)),
                    stats_bits(&measure_sorted(&ctx, idx)),
                    "{label}, {} lanes",
                    idx.len()
                );
            }
        }
    }

    #[test]
    fn measured_stats_scale_with_node_size() {
        let (_, data, grads) = fixture(2000, 8, 3, 1);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..8).collect();
        let ctx = HistContext {
            device: &device,
            data: &data,
            grads: &grads,
            features: &features,
            bins: 32,
            opts: HistOptions::default(),
        };
        let small: Vec<u32> = (0..200).collect();
        let large: Vec<u32> = (0..2000).collect();
        let s = measure(&ctx, &small);
        let l = measure(&ctx, &large);
        assert!(l.replay_excess > s.replay_excess);
        assert!(l.bin_transactions_unpacked > s.bin_transactions_unpacked);
    }

    #[test]
    fn packing_reduces_transactions() {
        let (_, data, grads) = fixture(1000, 4, 2, 2);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..4).collect();
        let ctx = HistContext {
            device: &device,
            data: &data,
            grads: &grads,
            features: &features,
            bins: 32,
            opts: HistOptions::default(),
        };
        // Scattered index list (post-partition pattern).
        let idx: Vec<u32> = (0..1000).filter(|i| i % 3 == 0).collect();
        let s = measure(&ctx, &idx);
        assert!(
            s.bin_transactions_packed <= s.bin_transactions_unpacked,
            "packed {} vs unpacked {}",
            s.bin_transactions_packed,
            s.bin_transactions_unpacked
        );
    }

    #[test]
    fn expected_stats_are_finite_and_monotone() {
        let (_, data, grads) = fixture(500, 6, 2, 3);
        let device = Device::rtx4090();
        let features: Vec<u32> = (0..6).collect();
        let ctx = HistContext {
            device: &device,
            data: &data,
            grads: &grads,
            features: &features,
            bins: 32,
            opts: HistOptions::default(),
        };
        let a = expect(&ctx, 100);
        let b = expect(&ctx, 1000);
        assert!(b.replay_excess > a.replay_excess);
        assert!(a.replay_excess.is_finite() && a.replay_excess >= 0.0);
        let zero = expect(&ctx, 0);
        assert_eq!(zero.replay_excess, 0.0);
    }

    #[test]
    fn gh_bytes_grow_with_features_but_sublinearly() {
        let one = gh_bytes(1000, 1, 10, 8.0);
        let many = gh_bytes(1000, 100, 10, 8.0);
        assert!(many > one);
        assert!(many < one * 100.0, "L2 reuse must dampen the growth");
        // Quantized pairs halve the traffic.
        assert!((gh_bytes(1000, 100, 10, 4.0) - many / 2.0).abs() < 1e-6);
    }

    #[test]
    fn contention_stats_are_per_output_pass_invariant_under_sketching() {
        // Replay/traffic statistics describe the bin-access pattern only
        // (per output-pass, see `ContentionStats::replay_excess`), so a
        // k-column gradient sketch must leave them bit-identical — the
        // whole sketch saving enters through the `2d → 2k` multiplier in
        // the per-method cost formulas, not through contention.
        use crate::config::OutputSketch;
        use crate::sketch::{apply_sketch, plan_sketch};
        let (_, data, grads) = fixture(1500, 6, 12, 9);
        let device = Device::rtx4090();
        let plan = plan_sketch(&device, &grads, OutputSketch::RandomSampling(3), 13);
        let sketched = apply_sketch(&device, &grads, &plan);
        assert_eq!(sketched.d, 3);
        let features: Vec<u32> = (0..6).collect();
        let full = HistContext {
            device: &device,
            data: &data,
            grads: &grads,
            features: &features,
            bins: 32,
            opts: HistOptions::default(),
        };
        let thin = HistContext {
            device: &device,
            data: &data,
            grads: &sketched,
            features: &features,
            bins: 32,
            opts: HistOptions::default(),
        };
        let idx: Vec<u32> = (0..1500).collect();
        let (mf, mt) = (measure(&full, &idx), measure(&thin, &idx));
        assert_eq!(mf.replay_excess.to_bits(), mt.replay_excess.to_bits());
        assert_eq!(
            mf.bin_transactions_unpacked.to_bits(),
            mt.bin_transactions_unpacked.to_bits()
        );
        assert_eq!(
            mf.bin_transactions_packed.to_bits(),
            mt.bin_transactions_packed.to_bits()
        );
        assert_eq!(
            mf.packed_aggregation_ratio.to_bits(),
            mt.packed_aggregation_ratio.to_bits()
        );
        let (ef, et) = (expect(&full, 1500), expect(&thin, 1500));
        assert_eq!(ef.replay_excess.to_bits(), et.replay_excess.to_bits());
    }
}
