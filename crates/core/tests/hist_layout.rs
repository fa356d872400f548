//! Differential test of the bin-major host histogram against plain
//! output-major reference loops.
//!
//! `NodeHistogram` stores one contiguous `d`-row per (feature, bin). The
//! references below keep the paper's per-(feature, output) segments,
//! `(f*d + k)*bins + b`, and walk them with the straightforward loops:
//! every element sums its instances in ascending order from 0.0, the
//! sparse zero bin is the node total minus every other bin summed in
//! ascending `b`, and a split's gain sums the per-output terms in
//! ascending `k`. The library must match them bit for bit: every
//! histogram element (compared through `gh_index`) and every field of
//! the chosen `SplitCandidate`.

// The references index on purpose: they are the plain indexed loops.
#![allow(clippy::needless_range_loop)]

use gbdt_core::config::HistOptions;
use gbdt_core::grad::Gradients;
use gbdt_core::hist::{accumulate_only, HistContext, NodeHistogram};
use gbdt_core::split::{find_best_split_range, ConstraintState, SplitCandidate, SplitParams};
use gbdt_data::{BinnedDataset, DenseMatrix};
use gpusim::Device;
use proptest::prelude::*;

/// Output-major histogram: `g[(f*d + k)*bins + b]`.
struct RefHist {
    g: Vec<f64>,
    h: Vec<f64>,
    counts: Vec<u32>,
    d: usize,
    bins: usize,
}

impl RefHist {
    fn new(m: usize, d: usize, bins: usize) -> Self {
        RefHist {
            g: vec![0.0; m * d * bins],
            h: vec![0.0; m * d * bins],
            counts: vec![0; m * bins],
            d,
            bins,
        }
    }

    fn at(&self, f: usize, k: usize, b: usize) -> usize {
        (f * self.d + k) * self.bins + b
    }
}

fn ref_dense(
    data: &BinnedDataset,
    grads: &Gradients,
    features: &[u32],
    bins: usize,
    idx: &[u32],
) -> RefHist {
    let d = grads.d;
    let mut out = RefHist::new(features.len(), d, bins);
    for (f_local, &f) in features.iter().enumerate() {
        let col = data.bins.col(f as usize);
        for &i in idx {
            let i = i as usize;
            let b = col[i] as usize;
            out.counts[f_local * bins + b] += 1;
            for k in 0..d {
                let at = out.at(f_local, k, b);
                out.g[at] += grads.g[i * d + k] as f64;
                out.h[at] += grads.h[i * d + k] as f64;
            }
        }
    }
    out
}

fn ref_sparse(
    data: &BinnedDataset,
    grads: &Gradients,
    features: &[u32],
    bins: usize,
    idx: &[u32],
    node_g: &[f64],
    node_h: &[f64],
) -> RefHist {
    let d = grads.d;
    let mut in_node = vec![false; grads.n];
    for &i in idx {
        in_node[i as usize] = true;
    }
    let mut out = RefHist::new(features.len(), d, bins);
    for (f_local, &f) in features.iter().enumerate() {
        let (rows, ebins) = data.sparse.col(f as usize);
        let zb = data.sparse.zero_bin(f as usize) as usize;
        let mut explicit = 0u32;
        for (&r, &b) in rows.iter().zip(ebins) {
            let i = r as usize;
            if !in_node[i] {
                continue;
            }
            let b = b as usize;
            explicit += 1;
            out.counts[f_local * bins + b] += 1;
            for k in 0..d {
                let at = out.at(f_local, k, b);
                out.g[at] += grads.g[i * d + k] as f64;
                out.h[at] += grads.h[i * d + k] as f64;
            }
        }
        out.counts[f_local * bins + zb] += idx.len() as u32 - explicit;
        for k in 0..d {
            let (mut eg, mut eh) = (0.0, 0.0);
            for b in (0..bins).filter(|&b| b != zb) {
                eg += out.g[out.at(f_local, k, b)];
                eh += out.h[out.at(f_local, k, b)];
            }
            let at = out.at(f_local, k, zb);
            out.g[at] = node_g[k] - eg;
            out.h[at] = node_h[k] - eh;
        }
    }
    out
}

fn ref_gain(gl: &[f64], hl: &[f64], node_g: &[f64], node_h: &[f64], lambda: f64) -> f64 {
    let mut gain = 0.0;
    for k in 0..node_g.len() {
        let (gr, hr) = (node_g[k] - gl[k], node_h[k] - hl[k]);
        gain += gl[k] * gl[k] / (hl[k] + lambda) + gr * gr / (hr + lambda)
            - (gl[k] + gr) * (gl[k] + gr) / (hl[k] + hr + lambda);
    }
    0.5 * gain
}

fn ref_constraint_ok(
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

/// The output-major segmented scan: per feature, per bin, per output.
#[allow(clippy::too_many_arguments)]
fn ref_best_split(
    hist: &RefHist,
    features: &[u32],
    f_lo: usize,
    f_hi: usize,
    node_g: &[f64],
    node_h: &[f64],
    node_count: u32,
    params: &SplitParams,
    constraints: Option<&ConstraintState<'_>>,
) -> Option<SplitCandidate> {
    let (d, bins) = (hist.d, hist.bins);
    if f_lo == f_hi || node_count == 0 {
        return None;
    }
    let min_child = params.min_instances as u32;
    let (mut best_f, mut best_b, mut best_gain) = (f_lo, 0usize, f64::NEG_INFINITY);
    for f_local in f_lo..f_hi {
        let c = constraints.map_or(0, |s| s.monotone[features[f_local] as usize]);
        let (mut gl, mut hl) = (vec![0.0; d], vec![0.0; d]);
        let mut left = 0u32;
        let mut feature_best = (0usize, f64::NEG_INFINITY);
        for b in 0..bins - 1 {
            left += hist.counts[f_local * bins + b];
            for k in 0..d {
                gl[k] += hist.g[hist.at(f_local, k, b)];
                hl[k] += hist.h[hist.at(f_local, k, b)];
            }
            if left < min_child || node_count - left < min_child {
                continue;
            }
            if c != 0 {
                let state = constraints.expect("c != 0 implies constraints");
                if !ref_constraint_ok(c, &gl, &hl, node_g, node_h, params.lambda, state) {
                    continue;
                }
            }
            let gain = ref_gain(&gl, &hl, node_g, node_h, params.lambda);
            if gain > feature_best.1 {
                feature_best = (b, gain);
            }
        }
        if feature_best.1 > best_gain {
            (best_f, best_b, best_gain) = (f_local, feature_best.0, feature_best.1);
        }
    }
    if !best_gain.is_finite() || best_gain <= params.min_gain {
        return None;
    }
    let (mut left_g, mut left_h) = (vec![0.0; d], vec![0.0; d]);
    let mut left_count = 0u32;
    for b in 0..=best_b {
        left_count += hist.counts[best_f * bins + b];
        for k in 0..d {
            left_g[k] += hist.g[hist.at(best_f, k, b)];
            left_h[k] += hist.h[hist.at(best_f, k, b)];
        }
    }
    Some(SplitCandidate {
        feature: features[best_f],
        bin: best_b as u8,
        gain: best_gain,
        left_count,
        right_count: node_count - left_count,
        left_g,
        left_h,
    })
}

const DS: [usize; 3] = [1, 2, 24];
const BINS: [usize; 4] = [2, 3, 64, 256];
const MIN_INSTANCES: [usize; 5] = [0, 1, 2, 5, 20];
const LAMBDAS: [f64; 3] = [0.5, 1.0, 3.0];
/// Gains can be negative (λ enters the parent term once), so −∞ keeps
/// every admissible split and 0 rejects some.
const MIN_GAINS: [f64; 2] = [f64::NEG_INFINITY, 0.0];
/// Search ranges in quarters of the feature list, biased to the whole.
const RANGES: [(usize, usize); 7] = [(0, 4), (0, 4), (0, 4), (0, 2), (1, 3), (2, 4), (2, 2)];

/// Seeded LCG: every input beyond the drawn shape comes from it.
struct Lcg(u64);

impl Lcg {
    /// Uniform in `[0, 1)` with 24 random bits.
    fn unit(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 40) as f32 / (1u64 << 24) as f32
    }

    fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f32) as usize % n
    }

    /// A power of two in `[2^-30, 2^30]`.
    fn scale(&mut self) -> f32 {
        2f32.powi(self.below(61) as i32 - 30)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bin_major_histogram_and_split_match_output_major_reference(
        shape in (2usize..160, 1usize..5, 0..DS.len(), 0..BINS.len()),
        seed in any::<u64>(),
        // 0 empty, 1 a single row, 2 all rows, r ≥ 3 rows with i % r != 1.
        subset in 0u32..7,
        sparse_aware in any::<bool>(),
        knobs in (
            0..MIN_INSTANCES.len(),
            0..LAMBDAS.len(),
            0..MIN_GAINS.len(),
            0..RANGES.len(),
        ),
        constrained in any::<bool>(),
    ) {
        let (n, m, d, bins) = (shape.0, shape.1, DS[shape.2], BINS[shape.3]);
        let mut rng = Lcg(seed);
        // Small discrete feature values, half of them 0, so shared bins
        // occur and the CSC path has implicit zeros to fill in closed form.
        let values: Vec<f32> = (0..n * m)
            .map(|_| if rng.unit() < 0.5 { 0.0 } else { rng.below(40) as f32 })
            .collect();
        let data = BinnedDataset::build(&DenseMatrix::new(n, m, values), bins);
        // Magnitudes spread over 2^±30: f64 sums of such f32 values
        // round, so a changed summation order shows in the low bits.
        let g = (0..n * d).map(|_| (rng.unit() * 2.0 - 1.0) * rng.scale()).collect();
        let h = (0..n * d).map(|_| (rng.unit() + 0.1) * rng.scale()).collect();
        let grads = Gradients { g, h, n, d };
        let idx: Vec<u32> = match subset {
            0 => vec![],
            1 => vec![rng.below(n) as u32],
            2 => (0..n as u32).collect(),
            r => (0..n as u32).filter(|i| i % r != 1).collect(),
        };
        // Local positions map to global IDs in reverse, so a mix-up of
        // the two shows.
        let features: Vec<u32> = (0..m as u32).rev().collect();
        let device = Device::rtx4090();
        let ctx = HistContext {
            device: &device,
            data: &data,
            grads: &grads,
            features: &features,
            bins,
            opts: HistOptions { sparse_aware, ..HistOptions::default() },
        };
        let (node_g, node_h) = grads.sums(&idx);
        let mut hist = NodeHistogram::new(m, d, bins);
        accumulate_only(&ctx, &idx, &node_g, &node_h, &mut hist);
        let reference = if sparse_aware {
            ref_sparse(&data, &grads, &features, bins, &idx, &node_g, &node_h)
        } else {
            ref_dense(&data, &grads, &features, bins, &idx)
        };

        prop_assert_eq!(&hist.counts, &reference.counts);
        for f in 0..m {
            for k in 0..d {
                for b in 0..bins {
                    let (at, ra) = (hist.gh_index(f, k, b), reference.at(f, k, b));
                    let (g, rg) = (hist.g[at].to_bits(), reference.g[ra].to_bits());
                    prop_assert_eq!(g, rg, "g f={} k={} b={}", f, k, b);
                    let (h, rh) = (hist.h[at].to_bits(), reference.h[ra].to_bits());
                    prop_assert_eq!(h, rh, "h f={} k={} b={}", f, k, b);
                }
            }
        }

        let lambda = LAMBDAS[knobs.1];
        let params = SplitParams {
            lambda,
            min_gain: MIN_GAINS[knobs.2],
            min_instances: MIN_INSTANCES[knobs.0],
            segments_c: 4.0,
        };
        // Signs −1/0/+1 per feature; per-output bounds centred on the
        // node's own leaf value, so a finite width clamps some children.
        let signs: Vec<i8> = (0..m).map(|_| rng.below(3) as i8 - 1).collect();
        let bounds: Vec<(f64, f64)> = (0..d)
            .map(|k| {
                let v = -(node_g[k] / (node_h[k] + lambda));
                let w = if rng.unit() < 0.5 {
                    f64::INFINITY
                } else {
                    0.01 + 2.0 * rng.unit() as f64
                };
                (v - w, v + w)
            })
            .collect();
        let state = ConstraintState { monotone: &signs, bounds: &bounds };
        let state = constrained.then_some(&state);
        let (f_lo, f_hi) = (RANGES[knobs.3].0 * m / 4, RANGES[knobs.3].1 * m / 4);
        let count = idx.len() as u32;
        let got = find_best_split_range(
            &device, &hist, &features, f_lo, f_hi, &node_g, &node_h, count, &params, state,
        );
        let want = ref_best_split(
            &reference, &features, f_lo, f_hi, &node_g, &node_h, count, &params, state,
        );
        let key = |s: &SplitCandidate| {
            (
                s.feature,
                s.bin,
                s.gain.to_bits(),
                s.left_count,
                s.right_count,
                s.left_g.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                s.left_h.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            )
        };
        prop_assert_eq!(got.as_ref().map(key), want.as_ref().map(key));
    }
}
