//! Training hyper-parameters.
//!
//! Defaults follow the paper's §4.1: 100 trees, maximum depth 7,
//! learning rate 1, minimum 20 instances per node, 256 bins.

use serde::{Deserialize, Serialize};

/// Which histogram-building kernel to use (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum HistogramMethod {
    /// Global-memory atomics (§3.3.2): simple, fast for small nodes,
    /// degrades under atomic contention.
    GlobalMemory,
    /// Shared-memory tiled atomics (§3.3.3): per-block sub-histograms in
    /// 48 KB shared memory, flushed to global; resilient to contention.
    SharedMemory,
    /// Sort-and-reduce (§3.3.4): contention-free `sort_by_key` +
    /// `reduce_by_key`, at the price of sorting overhead.
    SortReduce,
    /// Pick the predicted-cheapest method per node from the cost model
    /// (the paper's "dynamically selects … based on the dataset
    /// characteristics and training stage").
    Adaptive,
}

/// Gradient-sketching option for tree-*structure* search (SketchBoost,
/// Iosipoi & Vakhrushev 2022 — the paper's strongest baseline).
///
/// When active, each boosting round reduces the `n × d` gradient matrix
/// to an `n × k` sketch on-device and grows the whole tree — histogram
/// building, split search, partition — on `k`-dimensional histograms.
/// Leaf *values* are always refit from the full `d`-dimensional
/// gradients afterwards, so predictions and model quality stay
/// full-output. [`OutputSketch::None`] is guaranteed bit-identical to a
/// trainer without sketching (no extra kernels, no extra charges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum OutputSketch {
    /// Exact multi-output training on all `d` outputs (the default).
    #[default]
    None,
    /// Keep the `k` output columns with the largest total absolute
    /// gradient (per-output norm reduction + top-k select + gather).
    TopOutputs(usize),
    /// Keep `k` uniformly random output columns, re-drawn per tree
    /// (sampling + gather).
    RandomSampling(usize),
    /// Project the gradient rows onto `k` random Gaussian directions,
    /// re-drawn per tree (GEMM-style pass). Hessians use the
    /// per-instance mean (exact for MSE).
    RandomProjection(usize),
}

impl OutputSketch {
    /// Whether sketching is disabled.
    pub fn is_none(self) -> bool {
        self == OutputSketch::None
    }

    /// The sketch dimension `k`, or `None` when sketching is off.
    pub fn k(self) -> Option<usize> {
        match self {
            OutputSketch::None => None,
            OutputSketch::TopOutputs(k)
            | OutputSketch::RandomSampling(k)
            | OutputSketch::RandomProjection(k) => Some(k),
        }
    }

    /// The output dimension tree-structure search actually runs at for
    /// a `d`-output dataset: `d` when off, otherwise `k` clamped to
    /// `1..=d`. Every histogram/split/partition kernel and the
    /// histogram pool are shaped by this.
    pub fn effective_dim(self, d: usize) -> usize {
        match self.k() {
            None => d,
            Some(k) => k.min(d).max(1),
        }
    }

    /// Short stable label used by bench reports and CLI flags
    /// (`none`, `top<k>`, `rand<k>`, `proj<k>`).
    pub fn label(self) -> String {
        match self {
            OutputSketch::None => "none".to_string(),
            OutputSketch::TopOutputs(k) => format!("top{k}"),
            OutputSketch::RandomSampling(k) => format!("rand{k}"),
            OutputSketch::RandomProjection(k) => format!("proj{k}"),
        }
    }
}

/// Histogram-pipeline options.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HistOptions {
    /// Kernel selection strategy.
    pub method: HistogramMethod,
    /// Warp-level optimization (§3.4.1): 4-per-`u32` bin packing and the
    /// conflict-avoiding shared-memory layout ("+wo" in Fig. 6a).
    pub warp_packing: bool,
    /// Histogram subtraction: build only the smaller child's histogram
    /// and derive the sibling as `parent − child`.
    pub subtraction: bool,
    /// Use the sparsity-aware CSC path when the data is sparse enough:
    /// explicit entries accumulate individually, the implicit-zero bin
    /// receives the node remainder in closed form.
    pub sparse_aware: bool,
    /// Store gradients/Hessians as bfloat16 (upper 16 bits of the f32):
    /// halves gradient memory and histogram-read traffic — the paper's
    /// memory-efficiency concern — at a small precision cost.
    pub quantized_gradients: bool,
}

impl Default for HistOptions {
    fn default() -> Self {
        HistOptions {
            method: HistogramMethod::Adaptive,
            warp_packing: true,
            subtraction: false,
            sparse_aware: false,
            quantized_gradients: false,
        }
    }
}

/// Full training configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of boosting iterations (trees). Paper default: 100.
    pub num_trees: usize,
    /// Maximum tree depth (root = depth 0). Paper default: 7.
    pub max_depth: usize,
    /// Shrinkage applied to leaf values. Paper default: 1.0.
    pub learning_rate: f32,
    /// Minimum instances required in each child of a split.
    /// Paper default: 20.
    pub min_instances: usize,
    /// Maximum histogram bins per feature (≤ 256). Paper default: 256.
    pub max_bins: usize,
    /// L2 regularization λ on leaf values (paper §2.2).
    pub lambda: f64,
    /// Minimum gain γ for a split to be kept (paper Algorithm 1's
    /// "threshold for valid splits").
    pub min_gain: f64,
    /// Histogram pipeline options.
    pub hist: HistOptions,
    /// Adaptive segments-per-block constant `C` (paper §3.1.3).
    pub segments_per_block_c: f64,
    /// Fraction of instances sampled (without replacement) per tree —
    /// stochastic gradient boosting. 1.0 disables sampling.
    pub subsample: f64,
    /// Fraction of features sampled per tree. 1.0 disables sampling.
    pub colsample_bytree: f64,
    /// Gradient-based one-side sampling (GOSS, LightGBM): keep the
    /// `top_rate` fraction of instances with the largest gradient norm
    /// and a random `other_rate` fraction of the rest, amplifying the
    /// latter's gradients by `(1 − top_rate)/other_rate`. `None`
    /// disables GOSS (it overrides `subsample` when set).
    pub goss: Option<GossConfig>,
    /// Per-feature monotone constraints (+1 non-decreasing, −1
    /// non-increasing, 0 free). Empty disables; otherwise must have one
    /// entry per feature. Enforced on every output dimension with bound
    /// propagation down the tree.
    pub monotone_constraints: Vec<i8>,
    /// Number of CUDA-style streams used to overlap the *independent*
    /// per-node histogram kernels of one tree level. 1 serializes (the
    /// default); more streams shorten deep levels full of small nodes,
    /// whose launch latencies then overlap.
    pub streams: usize,
    /// Gradient sketching for tree-structure search: grow each tree on
    /// an `n × k` sketch of the gradients while leaf values stay
    /// full-`d` (SketchBoost's recipe). [`OutputSketch::None`] (the
    /// default) is bit-identical to a trainer without sketching.
    pub sketch: OutputSketch,
    /// RNG seed for any stochastic component.
    pub seed: u64,
    /// Transient-fault retry budget (see [`crate::RetryPolicy`]). Not
    /// serialized: fault tolerance is a property of the run, not the
    /// model, so checkpoints and model files stay byte-stable.
    #[serde(skip)]
    pub retry: crate::error::RetryPolicy,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            num_trees: 100,
            max_depth: 7,
            learning_rate: 1.0,
            min_instances: 20,
            max_bins: 256,
            lambda: 1.0,
            min_gain: 1e-9,
            hist: HistOptions::default(),
            segments_per_block_c: 4.0,
            subsample: 1.0,
            colsample_bytree: 1.0,
            goss: None,
            monotone_constraints: Vec::new(),
            streams: 1,
            sketch: OutputSketch::None,
            seed: 0,
            retry: crate::error::RetryPolicy::default(),
        }
    }
}

/// GOSS sampling rates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GossConfig {
    /// Fraction of instances kept by gradient magnitude.
    pub top_rate: f64,
    /// Fraction of the remaining instances sampled uniformly.
    pub other_rate: f64,
}

impl GossConfig {
    /// LightGBM's default rates.
    pub fn default_rates() -> Self {
        GossConfig {
            top_rate: 0.2,
            other_rate: 0.1,
        }
    }

    /// Validate the rates.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.top_rate > 0.0 && self.other_rate > 0.0) {
            return Err("GOSS rates must be positive".into());
        }
        if self.top_rate + self.other_rate > 1.0 {
            return Err(format!(
                "GOSS top_rate {} + other_rate {} exceeds 1",
                self.top_rate, self.other_rate
            ));
        }
        Ok(())
    }
}

/// A rejected [`TrainConfig`]: carries the human-readable reason the
/// configuration failed [`TrainConfig::validate`]. Returned by the
/// fallible trainer constructors (`GpuTrainer::try_new`,
/// `MultiGpuTrainer::try_new`); the panicking `new` wrappers surface
/// the same message via `expect`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl ConfigError {
    /// The validation failure message.
    pub fn message(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid training configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl From<String> for ConfigError {
    fn from(msg: String) -> Self {
        ConfigError(msg)
    }
}

impl TrainConfig {
    /// Validate parameter ranges; call before training.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_trees == 0 {
            return Err("num_trees must be ≥ 1".into());
        }
        if self.max_depth == 0 || self.max_depth > 24 {
            return Err(format!("max_depth {} out of range 1..=24", self.max_depth));
        }
        if !(2..=256).contains(&self.max_bins) {
            return Err(format!("max_bins {} out of range 2..=256", self.max_bins));
        }
        if self.learning_rate <= 0.0 || self.learning_rate.is_nan() {
            return Err("learning_rate must be positive".into());
        }
        if self.lambda < 0.0 {
            return Err("lambda must be non-negative".into());
        }
        if self.min_gain < 0.0 {
            return Err("min_gain must be non-negative".into());
        }
        if !(self.subsample > 0.0 && self.subsample <= 1.0) {
            return Err(format!("subsample {} out of range (0, 1]", self.subsample));
        }
        if !(self.colsample_bytree > 0.0 && self.colsample_bytree <= 1.0) {
            return Err(format!(
                "colsample_bytree {} out of range (0, 1]",
                self.colsample_bytree
            ));
        }
        if let Some(goss) = &self.goss {
            goss.validate()?;
        }
        if self.streams == 0 || self.streams > 64 {
            return Err(format!("streams {} out of range 1..=64", self.streams));
        }
        if self
            .monotone_constraints
            .iter()
            .any(|&c| !(-1..=1).contains(&c))
        {
            return Err("monotone constraints must be −1, 0 or +1".into());
        }
        if self.sketch.k() == Some(0) {
            return Err("sketch dimension k must be ≥ 1".into());
        }
        if !self.sketch.is_none() && self.monotone_constraints.iter().any(|&c| c != 0) {
            // The full-d leaf refit recomputes every leaf value without
            // the bounds the sketched structure search enforced.
            return Err("monotone constraints cannot be combined with a gradient sketch".into());
        }
        Ok(())
    }

    /// Builder-style setter for the number of trees.
    pub fn with_trees(mut self, n: usize) -> Self {
        self.num_trees = n;
        self
    }

    /// Builder-style setter for the maximum depth.
    pub fn with_depth(mut self, d: usize) -> Self {
        self.max_depth = d;
        self
    }

    /// Builder-style setter for the histogram method.
    pub fn with_hist_method(mut self, m: HistogramMethod) -> Self {
        self.hist.method = m;
        self
    }

    /// Builder-style setter for warp packing.
    pub fn with_warp_packing(mut self, on: bool) -> Self {
        self.hist.warp_packing = on;
        self
    }

    /// Builder-style setter for gradient sketching.
    pub fn with_sketch(mut self, s: OutputSketch) -> Self {
        self.sketch = s;
        self
    }

    /// Builder-style setter for the transient-fault retry budget.
    pub fn with_retry(mut self, policy: crate::error::RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Builder-style setter for the per-device stream count (`1` =
    /// the serial schedule).
    pub fn with_streams(mut self, n: usize) -> Self {
        self.streams = n;
        self
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default, clippy::needless_range_loop)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_4_1() {
        let c = TrainConfig::default();
        assert_eq!(c.num_trees, 100);
        assert_eq!(c.max_depth, 7);
        assert_eq!(c.learning_rate, 1.0);
        assert_eq!(c.min_instances, 20);
        assert_eq!(c.max_bins, 256);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_values() {
        assert!(TrainConfig::default().with_trees(0).validate().is_err());
        assert!(TrainConfig::default().with_depth(0).validate().is_err());
        assert!(TrainConfig::default().with_depth(25).validate().is_err());
        let mut c = TrainConfig::default();
        c.max_bins = 300;
        assert!(c.validate().is_err());
        let mut c = TrainConfig::default();
        c.learning_rate = 0.0;
        assert!(c.validate().is_err());
        let mut c = TrainConfig::default();
        c.lambda = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn sketch_defaults_off_and_validates() {
        let c = TrainConfig::default();
        assert!(c.sketch.is_none());
        assert_eq!(c.sketch.k(), None);
        assert_eq!(c.sketch.label(), "none");
        assert!(c.validate().is_ok());

        for mk in [
            OutputSketch::TopOutputs as fn(usize) -> OutputSketch,
            OutputSketch::RandomSampling,
            OutputSketch::RandomProjection,
        ] {
            let ok = TrainConfig::default().with_sketch(mk(4));
            assert_eq!(ok.sketch.k(), Some(4));
            assert!(ok.validate().is_ok());
            let bad = TrainConfig::default().with_sketch(mk(0));
            assert!(bad.validate().is_err(), "k = 0 must be rejected");
            let mut constrained = ok.clone();
            constrained.monotone_constraints = vec![0, 1];
            assert!(
                constrained.validate().is_err(),
                "the leaf refit would drop the monotone bounds"
            );
            constrained.monotone_constraints = vec![0, 0];
            assert!(constrained.validate().is_ok());
        }
        assert_eq!(OutputSketch::TopOutputs(4).label(), "top4");
        assert_eq!(OutputSketch::RandomSampling(8).label(), "rand8");
        assert_eq!(OutputSketch::RandomProjection(2).label(), "proj2");
    }

    #[test]
    fn saved_config_with_the_removed_parallel_level_hist_field_loads() {
        // Model files and checkpoints embed this JSON; files written
        // while `parallel_level_hist` existed must keep loading.
        let c = TrainConfig::default().with_trees(7).with_streams(2);
        let json = serde_json::to_string(&c).unwrap();
        let old = json.replacen(
            "\"streams\":2,",
            "\"streams\":2,\"parallel_level_hist\":true,",
            1,
        );
        assert_ne!(old, json);
        let back: TrainConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn builders_chain() {
        let c = TrainConfig::default()
            .with_trees(5)
            .with_depth(3)
            .with_hist_method(HistogramMethod::SortReduce)
            .with_warp_packing(false);
        assert_eq!(c.num_trees, 5);
        assert_eq!(c.max_depth, 3);
        assert_eq!(c.hist.method, HistogramMethod::SortReduce);
        assert!(!c.hist.warp_packing);
    }
}
