//! Device placement: where the one boosting loop
//! ([`crate::trainer`]) and the one level grower ([`crate::grow`])
//! charge their work.
//!
//! Training is the same Algorithm 1 on every device count; a
//! [`Placement`] decides only what differs between layouts:
//!
//! * **Single** — one device charges everything; a level's fresh
//!   histogram builds spread over worker streams and its split search
//!   is one batched segmented reduction (§3.1.3).
//! * **Feature-parallel** (the paper's §3.4.2 design) — feature columns
//!   are partitioned across devices ([`partition_features`]): each
//!   device histograms and searches only its own columns, the devices
//!   all-gather their best-split candidates (a few dozen bytes each),
//!   and the owner of each winning feature broadcasts the routing
//!   bitmap so every device partitions identically. Gradients are
//!   replicated, so replicated per-row work is mirrored in full.
//! * **Data-parallel** — instances are sharded: each device histograms
//!   its shard over all features, and one ring all-reduce per level
//!   sums the partial multi-output histograms (the communication
//!   blow-up that motivates the feature-parallel choice for large `d`).
//!   Per-row work is mirrored at shard size.
//!
//! The functional computation — gradients, histograms, splits, trees —
//! runs once on the host and is identical for every placement, so a
//! model trained on `k` devices is bit-identical to the single-device
//! model. Multi-device groups run bulk-synchronously: a level ends in a
//! barrier (idle time booked), or with `streams > 1` in a clock
//! alignment while level-batched collectives drain on a separate comm
//! stream, overlapping the next level's builds.
//!
//! Knobs a placement cannot honour through the shared code are
//! rejected up front by [`MultiGpuTrainer::try_with_strategy`]:
//! histogram subtraction and GOSS under data parallelism.
//!
//! ## Fault recovery
//!
//! When any device has a fault injector attached
//! (`Device::enable_faults`), every bulk-synchronous step ends with a
//! group-wide poll. A transient launch fault re-runs the step within
//! the [`crate::RetryPolicy`] budget (the failed attempt's charges stay
//! booked — the grid ran and trapped). A lost device ends a
//! single-device fit with [`TrainError::DeviceLost`]; in a larger group
//! it is *dropped from the active set*: the survivors re-partition the
//! work, re-charge the ingest of their enlarged shares, re-run the
//! interrupted round, and finish — with trees bit-identical to a
//! fault-free run. Only when every device is gone does training fail,
//! with [`TrainError::AllDevicesLost`].

use crate::config::{ConfigError, HistogramMethod, OutputSketch, TrainConfig};
use crate::error::TrainError;
use crate::grad::Gradients;
use crate::hist::{charge_method_on, resolve_method, HistContext, NodeHistogram};
use crate::model::Model;
use crate::sketch::{apply_sketch, charge_apply, plan_sketch};
use crate::split::{
    charge_node_search, pick_split, LevelSplitCharges, SplitCandidate, SplitParams,
};
use crate::trainer::TrainReport;
use gbdt_data::Dataset;
use gpusim::cost::KernelCost;
use gpusim::{Device, DeviceGroup, Event, GpuFault, LedgerSummary, Phase, Telemetry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Stream carrying fresh histogram builds when `streams > 1` (stream 0
/// keeps gradients, split evaluation, and partitioning serial).
const HIST_STREAM: usize = 1;
/// Stream carrying level-batched collectives when `streams > 1`: the
/// NCCL channel runs on its own engine and overlaps compute.
const COMM_STREAM: usize = 2;
/// Collectives are modeled as pipelined into this many chunks: the
/// first reduced chunk lands `1/COMM_CHUNKS` into the transfer, so the
/// next level's builds overlap the tail (the same convention as the
/// single-device chunked ingest copy).
const COMM_CHUNKS: f64 = 8.0;

/// Contiguous feature ranges per device: device `i` owns
/// `[ranges[i].0, ranges[i].1)` as local indices into `0..m`.
pub fn partition_features(m: usize, k: usize) -> Vec<(usize, usize)> {
    assert!(k > 0, "need at least one device");
    let base = m / k;
    let extra = m % k;
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// How training work is decomposed across devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MultiGpuStrategy {
    /// Partition feature columns (the paper's §3.4.2 design): each
    /// device histograms only its features; devices exchange best-split
    /// candidates and routing bitmaps — tiny "summary statistics".
    #[default]
    FeatureParallel,
    /// Partition instances: each device histograms its shard over *all*
    /// features; per level, partial histograms are summed with a ring
    /// all-reduce ("partial histograms are then aggregated via
    /// CUDA-aware collective operations"). Gradient work divides by the
    /// device count, but the collective moves the full multi-output
    /// histogram — the communication blow-up that motivates the
    /// feature-parallel choice for large `d`.
    DataParallel,
}

/// Multi-GPU GBDT-MO trainer.
pub struct MultiGpuTrainer {
    group: DeviceGroup,
    config: TrainConfig,
    strategy: MultiGpuStrategy,
}

impl MultiGpuTrainer {
    /// Create a trainer over a device group (feature-parallel, the
    /// paper's strategy).
    ///
    /// Panics on an invalid configuration; use
    /// [`MultiGpuTrainer::try_new`] to handle the rejection instead.
    pub fn new(group: DeviceGroup, config: TrainConfig) -> Self {
        Self::with_strategy(group, config, MultiGpuStrategy::FeatureParallel)
    }

    /// Fallible constructor (feature-parallel): returns the validation
    /// failure as a [`ConfigError`] instead of panicking.
    pub fn try_new(group: DeviceGroup, config: TrainConfig) -> Result<Self, ConfigError> {
        Self::try_with_strategy(group, config, MultiGpuStrategy::FeatureParallel)
    }

    /// Create a trainer with an explicit decomposition strategy.
    pub fn with_strategy(
        group: DeviceGroup,
        config: TrainConfig,
        strategy: MultiGpuStrategy,
    ) -> Self {
        Self::try_with_strategy(group, config, strategy).expect("invalid training configuration")
    }

    /// Fallible counterpart of [`MultiGpuTrainer::with_strategy`]. Beyond
    /// [`TrainConfig::validate`], data parallelism rejects the knobs it
    /// cannot honour: `hist.subtraction` (a derived histogram would
    /// skip its all-reduce) and `goss` (the gradient-norm ranking is
    /// global across shards).
    pub fn try_with_strategy(
        group: DeviceGroup,
        config: TrainConfig,
        strategy: MultiGpuStrategy,
    ) -> Result<Self, ConfigError> {
        config.validate().map_err(ConfigError::from)?;
        if strategy == MultiGpuStrategy::DataParallel {
            if config.hist.subtraction {
                return Err(ConfigError::from(
                    "hist.subtraction is not supported by data-parallel training".to_string(),
                ));
            }
            if config.goss.is_some() {
                return Err(ConfigError::from(
                    "goss is not supported by data-parallel training".to_string(),
                ));
            }
        }
        Ok(MultiGpuTrainer {
            group,
            config,
            strategy,
        })
    }

    /// The device group.
    pub fn group(&self) -> &DeviceGroup {
        &self.group
    }

    /// The decomposition strategy.
    pub fn strategy(&self) -> MultiGpuStrategy {
        self.strategy
    }

    /// Train and return just the model.
    ///
    /// Panics if training fails past the fault-recovery budget; use
    /// [`MultiGpuTrainer::try_fit`] to handle that as a typed error.
    pub fn fit(&self, ds: &Dataset) -> Model {
        self.fit_report(ds).model
    }

    /// Train with the full report. Simulated time is the *group* time:
    /// the slowest device's clock after the final barrier.
    ///
    /// Panics if training fails past the fault-recovery budget; use
    /// [`MultiGpuTrainer::try_fit_report`] to handle that instead.
    pub fn fit_report(&self, ds: &Dataset) -> TrainReport {
        self.try_fit_report(ds)
            .unwrap_or_else(|e| panic!("multi-GPU training failed: {e}"))
    }

    /// Fallible training: returns just the model, or the typed
    /// [`TrainError`] when injected faults exhaust the retry budget or
    /// every device in the group is lost.
    pub fn try_fit(&self, ds: &Dataset) -> Result<Model, TrainError> {
        Ok(self.try_fit_report(ds)?.model)
    }

    /// Fallible counterpart of [`MultiGpuTrainer::fit_report`]: on a
    /// `DeviceLost` the group degrades to the survivors and keeps
    /// training (see the module docs); the error cases are an exhausted
    /// transient-retry budget and the loss of every device.
    pub fn try_fit_report(&self, ds: &Dataset) -> Result<TrainReport, TrainError> {
        let mut group = Group::new(self.group.devices().to_vec(), Some(self.strategy));
        Ok(crate::trainer::fit_on(&mut group, &self.config, ds, None, None, None, None)?.0)
    }
}

/// What the boosting loop should do after a polled step.
pub(crate) enum StepVerdict {
    /// Fault-free: commit the step's results.
    Commit,
    /// Transient fault within budget: re-run the step as-is.
    Retry,
    /// Devices were dropped: re-charge the survivors' enlarged ingest
    /// shares, then re-run the step.
    Degraded,
}

/// The devices one fit runs on, across its rounds: the members it was
/// given, the survivors still training, and the layout that turns the
/// survivors into a [`Placement`].
pub(crate) struct Group {
    members: Vec<Arc<Device>>,
    active: Vec<Arc<Device>>,
    /// `None`: a single device.
    strategy: Option<MultiGpuStrategy>,
}

impl Group {
    pub(crate) fn new(members: Vec<Arc<Device>>, strategy: Option<MultiGpuStrategy>) -> Self {
        assert!(!members.is_empty(), "device group must not be empty");
        Group {
            active: members.clone(),
            members,
            strategy,
        }
    }

    /// The current survivors laid out over a dataset of `m` features.
    pub(crate) fn placement(&self, m: usize) -> Placement<'_> {
        match self.strategy {
            None => Placement::Single(&self.active[0]),
            Some(MultiGpuStrategy::FeatureParallel) => Placement::FeatureParallel {
                devices: &self.active,
                ranges: partition_features(m, self.active.len()),
            },
            Some(MultiGpuStrategy::DataParallel) => Placement::DataParallel {
                devices: &self.active,
            },
        }
    }

    /// The group's shared telemetry registry, if any member carries
    /// one (`Device::attach_telemetry` shares one across a group).
    pub(crate) fn telemetry(&self) -> Option<Arc<Telemetry>> {
        self.members.iter().find_map(|dv| dv.telemetry())
    }

    /// Whether any member has a fault injector attached.
    pub(crate) fn faults_on(&self) -> bool {
        self.members.iter().any(|dv| dv.fault_injector().is_some())
    }

    /// Every member's ledger summary, in member order.
    pub(crate) fn summaries(&self) -> Vec<LedgerSummary> {
        self.members.iter().map(|dv| dv.summary()).collect()
    }

    /// End-of-step poll of every active device (the group-wide
    /// `cudaGetLastError`) and the recovery decision. Loss dominates
    /// any pending transient. `round` is the boosting round, or
    /// `usize::MAX` for preprocessing. Counters and postmortems go to
    /// `tel` after the decision is made.
    pub(crate) fn recover(
        &mut self,
        tel: Option<&Telemetry>,
        attempts: &mut u32,
        max_retries: u32,
        round: usize,
    ) -> Result<StepVerdict, TrainError> {
        let mut dead = Vec::new();
        let mut lost = None;
        let mut transient = None;
        for (rank, dev) in self.active.iter().enumerate() {
            match dev.poll_fault() {
                Ok(()) => {}
                Err(fault @ GpuFault::DeviceLost { .. }) => {
                    dead.push(rank);
                    lost.get_or_insert(fault);
                }
                Err(fault @ GpuFault::Transient { .. }) => {
                    transient.get_or_insert(fault);
                }
            }
        }
        let fail = |err: TrainError| {
            if let Some(tl) = tel {
                tl.record_postmortem(&err.to_string());
            }
            Err(err)
        };
        if let Some(fault) = lost {
            if let Some(tl) = tel {
                tl.counter_inc("train.faults_total");
            }
            if self.strategy.is_none() {
                return fail(TrainError::DeviceLost { round, fault });
            }
            for rank in dead.into_iter().rev() {
                self.active.remove(rank);
            }
            if self.active.is_empty() {
                return fail(TrainError::AllDevicesLost { round });
            }
            return Ok(StepVerdict::Degraded);
        }
        let Some(fault) = transient else {
            return Ok(StepVerdict::Commit);
        };
        if let Some(tl) = tel {
            tl.counter_inc("train.faults_total");
        }
        if *attempts >= max_retries {
            return fail(TrainError::RetriesExhausted {
                round,
                attempts: *attempts,
                fault,
            });
        }
        *attempts += 1;
        if let Some(tl) = tel {
            tl.counter_inc("train.retries_total");
        }
        Ok(StepVerdict::Retry)
    }

    /// End of the fit: a multi-device group records its pre-barrier
    /// clock spread and joins every survivor to the group makespan.
    /// Returns the surviving lead's ledger delta since `start` (from
    /// [`Group::summaries`]) as the run's representative breakdown.
    pub(crate) fn finish(&self, start: &[LedgerSummary]) -> LedgerSummary {
        if self.strategy.is_some() {
            if let Some(tel) = self.telemetry() {
                let (lo, hi) = self
                    .active
                    .iter()
                    .map(|dv| dv.now_ns())
                    .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), t| {
                        (lo.min(t), hi.max(t))
                    });
                tel.gauge_set("multigpu.makespan_skew_ns", (hi - lo).max(0.0));
            }
            DeviceGroup::from_devices(self.active.clone()).barrier();
        }
        let lead = &self.active[0];
        let pos = self
            .members
            .iter()
            .position(|dv| Arc::ptr_eq(dv, lead))
            .expect("lead device comes from the original group");
        lead.summary().since(&start[pos])
    }
}

/// Where one boosting round charges its work: the device layout plus
/// the decisions that differ between layouts. `devices[0]` (or the
/// single device) is the lead: it runs the functional computation and
/// pays the full-size charges; the others pay mirror charges.
pub(crate) enum Placement<'a> {
    /// One device.
    Single(&'a Device),
    /// Device `i` owns global feature IDs `ranges[i].0..ranges[i].1`.
    FeatureParallel {
        devices: &'a [Arc<Device>],
        ranges: Vec<(usize, usize)>,
    },
    /// Device `i` owns the `i`-th contiguous shard of every node.
    DataParallel { devices: &'a [Arc<Device>] },
}

/// Positions in the sorted `features` of the global IDs in `lo..hi`.
fn local_range(features: &[u32], (lo, hi): (usize, usize)) -> (usize, usize) {
    let at = |bound: usize| features.partition_point(|&f| (f as usize) < bound);
    (at(lo), at(hi))
}

/// Charge ingest and binning of a `rows × cols` share of the features.
fn charge_ingest(device: &Device, rows: usize, cols: usize) {
    let bytes = (rows * cols * 4) as f64;
    device.charge_ns(
        "htod_features",
        Phase::Transfer,
        device.model().host_copy_ns(bytes),
    );
    device.charge_kernel(
        "quantile_binning",
        Phase::Binning,
        &KernelCost::streaming((rows * cols) as f64 * 16.0, bytes * 2.5),
    );
}

/// Partition `elems` resident instances of one level (flag read, index
/// read, scan traffic, scatter).
fn charge_partition_level(device: &Device, elems: usize) {
    if elems > 0 {
        device.charge_kernel(
            "partition_level",
            Phase::Partition,
            &KernelCost {
                flops: 3.0 * elems as f64,
                dram_bytes: (elems * 17) as f64,
                launches: 2.0,
                ..Default::default()
            },
        );
    }
}

/// Derive one histogram of `len` (feature × output × bin) cells as
/// `parent − sibling` (one streaming pass).
fn charge_subtract(device: &Device, len: usize) {
    device.charge_kernel(
        "hist_subtract",
        Phase::Histogram,
        &KernelCost::streaming(len as f64 * 2.0, (len * 3 * 8) as f64),
    );
    crate::sanitize::trace_subtract(device, len);
}

/// Count collective payload bytes on the group's registry. Pure
/// observer: called after the collective's charges are booked.
fn tel_collective_bytes(devices: &[Arc<Device>], bytes: f64) {
    if let Some(tel) = devices.iter().find_map(|dv| dv.telemetry()) {
        tel.counter_add("multigpu.collective_bytes", bytes as u64);
    }
}

/// Book a level-batched collective on every device's comm stream:
/// all ranks enter together at `fence` (the slowest rank's arrival),
/// each pays `ns` on its comm engine, and the returned event marks the
/// collective's completion across the group. The comm streams advance
/// in lockstep — every rank waits the same fence and charges the same
/// duration — so the fold over per-device events is exact.
fn streamed_collective(
    devices: &[Arc<Device>],
    name: &'static str,
    ns: f64,
    fence: Event,
) -> Event {
    let mut done = fence;
    for dev in devices {
        dev.wait_event(COMM_STREAM, fence);
        dev.stream(COMM_STREAM).charge_ns(name, Phase::Comm, ns);
        done = done.max(dev.record_event(COMM_STREAM));
    }
    done
}

/// When the slowest device's fresh builds so far complete.
fn builds_done(devices: &[Arc<Device>]) -> Event {
    devices.iter().fold(Event::at_ns(0.0), |t, dev| {
        t.max(dev.record_event(HIST_STREAM))
    })
}

/// When the first of a `ns`-long collective's pipelined chunks lands,
/// given its completion `done`: consumers may start there and overlap
/// the tail.
fn first_chunk(done: Event, ns: f64) -> Event {
    done.offset_ns(-ns * (1.0 - 1.0 / COMM_CHUNKS))
}

/// Fold the group's stream-0 clocks into one alignment fence and make
/// every device wait it: the bulk-synchronous join of streamed mode.
/// Unlike [`DeviceGroup::barrier`] it books no idle time and leaves
/// the comm/hist streams free to drain past the level boundary.
fn align_stream0(devices: &[Arc<Device>]) -> Event {
    let mut align = Event::at_ns(0.0);
    for dev in devices {
        align = align.max(dev.record_event(0));
    }
    for dev in devices {
        dev.wait_event(0, align);
    }
    align
}

impl<'a> Placement<'a> {
    /// The device running the functional computation.
    pub(crate) fn lead(&self) -> &'a Device {
        match *self {
            Placement::Single(device) => device,
            Placement::FeatureParallel { devices, .. } | Placement::DataParallel { devices } => {
                &devices[0]
            }
        }
    }

    /// The non-lead devices, which pay mirror charges.
    fn replicas(&self) -> &'a [Arc<Device>] {
        match *self {
            Placement::Single(_) => &[],
            Placement::FeatureParallel { devices, .. } | Placement::DataParallel { devices } => {
                &devices[1..]
            }
        }
    }

    /// Rows of an `rows`-row replicated pass one replica touches: all
    /// of them when gradients are replicated, a shard otherwise.
    fn mirror_rows(&self, rows: usize) -> usize {
        match self {
            Placement::DataParallel { devices } => rows / devices.len(),
            _ => rows,
        }
    }

    /// Charge feature ingest and binning for an `n × m` dataset: the
    /// whole matrix on one device (with `streams > 1` the copy runs on
    /// a copy stream and binning pipelines one chunk behind it), each
    /// device's column range or row shard in a group.
    pub(crate) fn charge_preprocess(&self, n: usize, m: usize, config: &TrainConfig) {
        match self {
            Placement::Single(device) if config.streams > 1 => {
                // Ingest runs on a copy stream (engine work, no SM
                // contention) and quantize pipelines one chunk behind
                // it: the binning kernel starts once the first of 8
                // copy chunks has landed, instead of after the full
                // transfer. Charge order is identical to the serial
                // schedule — only start timestamps move.
                let raw_bytes = (n * m * 4) as f64;
                let copy_ns = device.model().host_copy_ns(raw_bytes);
                let copy = device.stream(1);
                copy.wait_event(device.record_event(0));
                let copy_start = copy.record_event();
                copy.charge_ns("htod_features", Phase::Transfer, copy_ns);
                device.wait_event(0, copy_start.offset_ns(copy_ns / 8.0));
                let done = copy.record_event();
                device.charge_kernel(
                    "quantile_binning",
                    Phase::Binning,
                    &KernelCost::streaming((n * m) as f64 * 16.0, raw_bytes * 2.5),
                );
                crate::sanitize::trace_quantile_binning(device, n, m, config.max_bins);
                // Everything after preprocessing reads the device-
                // resident features: join the copy stream before the
                // first gradient kernel can issue.
                device.wait_event(0, done);
            }
            Placement::Single(device) => {
                charge_ingest(device, n, m);
                crate::sanitize::trace_quantile_binning(device, n, m, config.max_bins);
            }
            Placement::FeatureParallel { devices, ranges } => {
                for (dev, &(lo, hi)) in devices.iter().zip(ranges) {
                    charge_ingest(dev, n, hi - lo);
                }
            }
            Placement::DataParallel { devices } => {
                for (dev, (lo, hi)) in devices.iter().zip(partition_features(n, devices.len())) {
                    charge_ingest(dev, hi - lo, m);
                }
            }
        }
    }

    /// Mirror the lead's `rows`-row pass of kernel `name` on every
    /// replica, each charged `cost(its rows)`.
    pub(crate) fn mirror(
        &self,
        name: &'static str,
        phase: Phase,
        rows: usize,
        cost: impl Fn(usize) -> KernelCost,
    ) {
        let share = self.mirror_rows(rows);
        for dev in self.replicas() {
            dev.charge_kernel(name, phase, &cost(share));
        }
    }

    /// Mirror the lead's `n × d` gradient pass on every replica.
    pub(crate) fn mirror_gradients(&self, n: usize, d: usize, flops_per_output: f64) {
        let name = match self {
            Placement::DataParallel { .. } => "grad_hess_shard",
            _ => "grad_hess",
        };
        self.mirror(name, Phase::Gradient, n, |r| {
            KernelCost::streaming(r as f64 * d as f64 * flops_per_output, (r * d * 16) as f64)
        });
    }

    /// Mirror the lead's incremental score update on every replica.
    pub(crate) fn mirror_score_update(&self, leaves: &[(Vec<u32>, Vec<f32>)], d: usize) {
        let touched: usize = leaves.iter().map(|(v, _)| v.len()).sum();
        let (name, leaf_bytes) = match self {
            Placement::DataParallel { .. } => ("update_scores_shard", 0),
            _ => ("update_scores", leaves.len() * d * 4),
        };
        self.mirror(name, Phase::Predict, touched, |r| {
            KernelCost::streaming((r * d) as f64, (r * d * 8 + leaf_bytes) as f64)
        });
    }

    /// Sketch the round's gradients once on the lead; a group
    /// broadcasts the plan (selected columns or projection matrix) and
    /// mirrors the gather/projection apply on the replicas.
    pub(crate) fn sketch(&self, grads: &Gradients, sketch: OutputSketch, seed: u64) -> Gradients {
        let lead = self.lead();
        let plan = plan_sketch(lead, grads, sketch, seed);
        let bytes = plan.broadcast_bytes(grads.d);
        match *self {
            Placement::FeatureParallel { devices, .. } | Placement::DataParallel { devices }
                if devices.len() > 1 && bytes > 0.0 =>
            {
                DeviceGroup::from_devices(devices.to_vec()).broadcast(0, bytes as usize);
                tel_collective_bytes(devices, bytes);
            }
            _ => {}
        }
        let sketched = apply_sketch(lead, grads, &plan);
        for dev in self.replicas() {
            charge_apply(dev, self.mirror_rows(grads.n), grads.d, &plan);
        }
        sketched
    }

    /// Fresh per-tree charging state for the level grower.
    pub(crate) fn level_charges(&self, streams: usize) -> LevelCharges<'_, 'a> {
        let k = self.replicas().len() + 1;
        LevelCharges {
            placement: self,
            streams: streams.max(1),
            fence: None,
            hist: None,
            split: LevelSplitCharges::new(),
            searched: 0,
            partition_elems: 0,
            reduce_bytes: 0,
            built: vec![None; k],
            candidate_bytes: vec![0; k],
            flag_bytes: vec![0; k],
            flag_elems: vec![0; k],
        }
    }
}

/// Charging policy for one level's fresh-histogram kernels on a single
/// device.
///
/// At `streams = 1` every charge goes to the default stream, which
/// reproduces the serial clock bit for bit. With more streams, each
/// fresh build issues on the currently least-loaded worker stream
/// (`1..=streams`): a level's node histograms are mutually independent,
/// so sibling builds overlap on the simulated timeline up to the
/// device's occupancy-derived concurrency cap. Every worker stream is
/// fenced to the level-start clock of the default stream before its
/// first charge, and [`HistCharges::flush`] joins the default stream to
/// every used worker's completion fence — so split evaluation and the
/// partition kernel (default stream) start only after the last build.
///
/// Charges still *issue* in node-index order regardless of stream
/// count: the ledger's record list, the fault injector's charge-index
/// semantics, and the profiler's aggregates are identical to the serial
/// schedule. Only start timestamps and the makespan move.
struct HistCharges {
    streams: usize,
    /// Default-stream clock at level start (before this level's derive
    /// subtractions), which is what fresh builds actually depend on.
    fence: Event,
    /// Worker streams fenced (and charged) since construction.
    used: Vec<bool>,
}

impl HistCharges {
    fn new(device: &Device, streams: usize) -> Self {
        HistCharges {
            streams,
            fence: device.record_event(0),
            used: vec![false; streams + 1],
        }
    }

    fn charge(&mut self, ctx: &HistContext<'_>, idx: &[u32], method: HistogramMethod) {
        if self.streams == 1 {
            charge_method_on(ctx, idx, method, 0);
            return;
        }
        // Least-loaded worker stream first (greedy LPT, deterministic:
        // stream clocks are simulated and ties go to the lowest id).
        let mut best = 1;
        let mut best_now = f64::INFINITY;
        for s in 1..=self.streams {
            let now = ctx.device.stream_now(s);
            if now < best_now {
                best_now = now;
                best = s;
            }
        }
        if !self.used[best] {
            ctx.device.wait_event(best, self.fence);
            self.used[best] = true;
        }
        charge_method_on(ctx, idx, method, best);
    }

    /// End of level: the default stream waits for every used worker.
    fn flush(&mut self, device: &Device) {
        for (s, used) in self.used.iter_mut().enumerate() {
            if *used {
                let done = device.record_event(s);
                device.wait_event(0, done);
                *used = false;
            }
        }
    }
}

/// The level grower's charges under one placement, for one tree. Each
/// level runs [`LevelCharges::begin_level`], then per node (in
/// node-index order) the build/split/route hooks, then
/// [`LevelCharges::end_level`]: the single device flushes its batched
/// split and partition kernels; a group runs its level collectives and
/// joins.
pub(crate) struct LevelCharges<'p, 'a> {
    placement: &'p Placement<'a>,
    streams: usize,
    /// Streamed group: where the next level's fresh builds may start
    /// (the previous level's alignment, or the first chunk of its
    /// in-flight collective, whose tail they overlap).
    fence: Option<Event>,
    /// Single device: the level's fresh-build stream schedule.
    hist: Option<HistCharges>,
    /// Single device: the level's batched split-search work.
    split: LevelSplitCharges,
    /// Nodes whose split was searched this level.
    searched: usize,
    /// Instances partitioned this level.
    partition_elems: usize,
    /// Data-parallel: histogram bytes to all-reduce this level.
    reduce_bytes: usize,
    /// Feature-parallel, streamed: each device's build of this node.
    built: Vec<Option<Event>>,
    /// Feature-parallel: per-device candidate payload this level.
    candidate_bytes: Vec<usize>,
    /// Feature-parallel: per-device routing-bitmap payload this level.
    flag_bytes: Vec<usize>,
    /// Feature-parallel: per-device routing flags computed this level.
    flag_elems: Vec<usize>,
}

impl LevelCharges<'_, '_> {
    fn streamed(&self) -> bool {
        self.streams > 1
    }

    fn hist_stream(&self) -> usize {
        if self.streamed() {
            HIST_STREAM
        } else {
            0
        }
    }

    /// Level start: fence the fresh-build streams.
    pub(crate) fn begin_level(&mut self) {
        match self.placement {
            Placement::Single(device) => self.hist = Some(HistCharges::new(device, self.streams)),
            Placement::FeatureParallel { devices, .. } | Placement::DataParallel { devices } => {
                if self.streamed() {
                    for dev in devices.iter() {
                        let f = self.fence.unwrap_or_else(|| dev.record_event(0));
                        dev.wait_event(HIST_STREAM, f);
                    }
                }
            }
        }
    }

    /// Derive a node's histogram (shape `features.len() × d × bins`) by
    /// subtraction: each device derives the columns it holds.
    pub(crate) fn charge_subtract(&mut self, features: &[u32], d: usize, bins: usize) {
        match self.placement {
            Placement::Single(device) => charge_subtract(device, features.len() * d * bins),
            Placement::FeatureParallel { devices, ranges } => {
                for (dev, &range) in devices.iter().zip(ranges) {
                    let (lo, hi) = local_range(features, range);
                    if hi > lo {
                        charge_subtract(dev, (hi - lo) * d * bins);
                    }
                }
            }
            Placement::DataParallel { .. } => {
                unreachable!("data-parallel training rejects hist.subtraction")
            }
        }
    }

    /// Charge one node's fresh histogram build over instances `idx`
    /// (`ctx` covers the tree's features on the lead), tallying each
    /// kernel's method in `methods`.
    pub(crate) fn charge_build(
        &mut self,
        ctx: &HistContext<'_>,
        idx: &[u32],
        methods: &mut BTreeMap<HistogramMethod, usize>,
    ) {
        let mut tally = |m| *methods.entry(m).or_insert(0) += 1;
        let stream = self.hist_stream();
        match self.placement {
            Placement::Single(_) => {
                let m = resolve_method(ctx, idx.len());
                self.hist
                    .as_mut()
                    .expect("begin_level opens the stream schedule")
                    .charge(ctx, idx, m);
                tally(m);
            }
            Placement::FeatureParallel { devices, ranges } => {
                // Each device builds its own columns; it fences only its
                // own build (the cross-device join is the candidate
                // all-gather).
                for (rank, (dev, &range)) in devices.iter().zip(ranges).enumerate() {
                    let (lo, hi) = local_range(ctx.features, range);
                    if lo == hi {
                        continue;
                    }
                    let dctx = HistContext {
                        device: dev,
                        features: &ctx.features[lo..hi],
                        ..*ctx
                    };
                    let m = resolve_method(&dctx, idx.len());
                    charge_method_on(&dctx, idx, m, stream);
                    tally(m);
                    if self.streamed() {
                        self.built[rank] = Some(dev.record_event(HIST_STREAM));
                    }
                }
            }
            Placement::DataParallel { devices } => {
                // Partial histograms: every device runs the kernel over
                // its 1/k shard of the node, all features.
                for (dev, (lo, hi)) in devices
                    .iter()
                    .zip(partition_features(idx.len(), devices.len()))
                {
                    let part = &idx[lo..hi];
                    if part.is_empty() {
                        continue;
                    }
                    let dctx = HistContext {
                        device: dev,
                        ..*ctx
                    };
                    let m = resolve_method(&dctx, part.len());
                    charge_method_on(&dctx, part, m, stream);
                    tally(m);
                }
                if self.streamed() {
                    // Split evaluation is replicated and consumes the
                    // reduced histogram of every shard: join split work
                    // on the slowest rank's fresh build.
                    let built = builds_done(devices);
                    for dev in devices.iter() {
                        dev.wait_event(0, built);
                    }
                }
            }
        }
    }

    /// Best split of one node from its per-feature `bests` (as the
    /// grower's one pass over `hist` returned them): over all features
    /// in one batched search on a single device; per device over its
    /// column range, then a strictly-greater-gain merge (exact ties
    /// resolve to the lowest range, matching the global argmax) under
    /// feature parallelism; a lead search with replicated charges under
    /// data parallelism.
    pub(crate) fn find_split(
        &mut self,
        hist: &NodeHistogram,
        features: &[u32],
        bests: &[(usize, f64)],
        count: u32,
        params: &SplitParams,
    ) -> Option<SplitCandidate> {
        self.searched += 1;
        let (d, bins) = (hist.d, hist.bins);
        match self.placement {
            Placement::Single(_) => {
                self.split.add(features.len(), d, bins);
                pick_split(hist, features, 0, bests, count, params)
            }
            Placement::FeatureParallel { devices, ranges } => {
                let mut best: Option<SplitCandidate> = None;
                for (rank, (dev, &range)) in devices.iter().zip(ranges).enumerate() {
                    if let Some(built) = self.built[rank].take() {
                        dev.wait_event(0, built);
                    }
                    let (lo, hi) = local_range(features, range);
                    charge_node_search(dev, hi - lo, d, bins, params.segments_c);
                    let local = pick_split(hist, features, lo, &bests[lo..hi], count, params);
                    self.candidate_bytes[rank] +=
                        16 + local.as_ref().map_or(0, |c| c.left_g.len() * 16);
                    if let Some(c) = local {
                        if best.as_ref().is_none_or(|b| c.gain > b.gain) {
                            best = Some(c);
                        }
                    }
                }
                best
            }
            Placement::DataParallel { devices } => {
                // After the all-reduce every device holds the full
                // histogram and finds the identical best split.
                charge_node_search(&devices[0], features.len(), d, bins, params.segments_c);
                let split = pick_split(hist, features, 0, bests, count, params);
                let cells = features.len() * d * bins;
                for dev in &devices[1..] {
                    // lint:allow(sanitize): replica of the lead's split search, whose batched kernels trace_split_level replays
                    dev.charge_kernel(
                        "split_eval_replicated",
                        Phase::SplitEval,
                        &KernelCost::streaming(cells as f64 * 10.0, (cells * 16) as f64),
                    );
                }
                self.reduce_bytes += hist.g.len() * 2 * 8;
                split
            }
        }
    }

    /// Route one split node's instances by `flags` (`true` → left).
    pub(crate) fn route(&mut self, split: &SplitCandidate, flags: &[bool]) {
        let n = flags.len();
        match self.placement {
            Placement::Single(device) => {
                self.partition_elems += n;
                crate::sanitize::trace_partition(device, flags);
            }
            Placement::FeatureParallel { devices, ranges } => {
                // The owning device computes the routing flags; the
                // level's bitmaps are exchanged in one all-gather and
                // every device partitions its replicated index list.
                let owner = ranges
                    .iter()
                    .position(|&(lo, hi)| (lo..hi).contains(&(split.feature as usize)))
                    .expect("split feature must belong to a device");
                self.flag_elems[owner] += n;
                self.flag_bytes[owner] += n.div_ceil(8);
                self.partition_elems += n;
                crate::sanitize::trace_partition(&devices[owner], flags);
            }
            Placement::DataParallel { devices } => {
                crate::sanitize::trace_partition(&devices[0], flags);
                let per_shard = n / devices.len();
                for dev in devices.iter() {
                    dev.charge_kernel(
                        "partition_shard",
                        Phase::Partition,
                        &KernelCost {
                            flops: 3.0 * per_shard as f64,
                            dram_bytes: (per_shard * 17) as f64,
                            launches: 2.0,
                            ..Default::default()
                        },
                    );
                }
            }
        }
    }

    /// Level end: the single device flushes its batched kernels; a
    /// group runs the level's collectives and joins (a barrier, or
    /// with streams a clock alignment that lets the collective's tail
    /// overlap the next level's builds).
    pub(crate) fn end_level(&mut self, segments_c: f64) {
        let mut partial: Option<Event> = None;
        let devices = match self.placement {
            Placement::Single(device) => {
                if let Some(mut hist) = self.hist.take() {
                    hist.flush(device);
                }
                self.split
                    .flush(device, device.model().params.sm_count, segments_c);
                charge_partition_level(device, self.partition_elems);
                self.partition_elems = 0;
                return;
            }
            Placement::FeatureParallel { devices, .. } => {
                if self.searched > 0 && devices.len() > 1 {
                    // Candidates are tiny summary statistics: routing
                    // waits the full exchange before picking winners.
                    if let Some((done, _)) = self.all_gather(devices, &self.candidate_bytes) {
                        for dev in devices.iter() {
                            dev.wait_event(0, done);
                        }
                    }
                }
                for (dev, &flags) in devices.iter().zip(&self.flag_elems) {
                    if flags > 0 {
                        // lint:allow(sanitize): flag evaluation is the read half of the partition kernel traced by trace_partition
                        dev.charge_kernel(
                            "compute_flags_level",
                            Phase::Partition,
                            &KernelCost::streaming(flags as f64, (flags * 5) as f64),
                        );
                    }
                    charge_partition_level(dev, self.partition_elems);
                }
                if devices.len() > 1 && self.flag_bytes.iter().any(|&b| b > 0) {
                    // Routing bitmaps feed the next level's builds: the
                    // exchange's tail overlaps them (first-chunk fence).
                    partial = self
                        .all_gather(devices, &self.flag_bytes)
                        .map(|(done, ns)| first_chunk(done, ns));
                }
                devices
            }
            Placement::DataParallel { devices } => {
                // One ring all-reduce per node's histogram, batched as a
                // single level-wide collective.
                let k = devices.len();
                if k > 1 && self.reduce_bytes > 0 {
                    let bytes = self.reduce_bytes as f64;
                    tel_collective_bytes(devices, bytes);
                    let ns = devices[0].model().ring_all_reduce_ns(bytes, k);
                    if self.streamed() {
                        // The collective enters when the slowest rank's
                        // builds finish and drains on the comm engines
                        // while stream 0 proceeds.
                        let fence = builds_done(devices);
                        let done = streamed_collective(devices, "hist_all_reduce", ns, fence);
                        partial = Some(first_chunk(done, ns));
                    } else {
                        for dev in devices.iter() {
                            dev.charge_ns("hist_all_reduce", Phase::Comm, ns);
                        }
                    }
                }
                devices
            }
        };
        if self.streamed() {
            let align = align_stream0(devices);
            self.fence = Some(partial.map_or(align, |p| align.max(p)));
        } else {
            DeviceGroup::from_devices(devices.to_vec()).barrier();
        }
        self.searched = 0;
        self.partition_elems = 0;
        self.reduce_bytes = 0;
        for v in [
            &mut self.candidate_bytes,
            &mut self.flag_bytes,
            &mut self.flag_elems,
        ] {
            v.fill(0);
        }
    }

    /// All-gather per-device `payload` byte counts. Streamed: booked on
    /// the comm streams, returning its completion event and duration;
    /// otherwise a synchronizing collective on the default stream.
    fn all_gather(&self, devices: &[Arc<Device>], payload: &[usize]) -> Option<(Event, f64)> {
        let max_part = payload.iter().copied().max().unwrap_or(0);
        tel_collective_bytes(devices, (max_part * devices.len()) as f64);
        if self.streamed() {
            let ns = devices[0]
                .model()
                .all_gather_ns(max_part as f64, devices.len());
            let fence = align_stream0(devices);
            Some((streamed_collective(devices, "all_gather", ns, fence), ns))
        } else {
            let parts: Vec<Vec<u8>> = payload.iter().map(|&b| vec![0u8; b]).collect();
            let _ = DeviceGroup::from_devices(devices.to_vec()).all_gather_bytes(&parts);
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use gbdt_data::synth::{make_classification, ClassificationSpec};

    fn dataset(seed: u64) -> Dataset {
        make_classification(&ClassificationSpec {
            instances: 500,
            features: 16,
            classes: 4,
            informative: 10,
            class_sep: 2.0,
            seed,
            ..Default::default()
        })
    }

    fn quick_config() -> TrainConfig {
        TrainConfig {
            num_trees: 6,
            max_depth: 4,
            max_bins: 32,
            min_instances: 5,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn try_new_rejects_invalid_config_without_panicking() {
        let bad = TrainConfig {
            num_trees: 0,
            ..quick_config()
        };
        let err = MultiGpuTrainer::try_new(DeviceGroup::rtx4090s(2), bad)
            .err()
            .unwrap();
        assert!(err.message().contains("num_trees"), "{err}");
        let err2 = MultiGpuTrainer::try_with_strategy(
            DeviceGroup::rtx4090s(2),
            TrainConfig {
                max_depth: 0,
                ..quick_config()
            },
            MultiGpuStrategy::DataParallel,
        )
        .err()
        .unwrap();
        assert!(err2.message().contains("max_depth"), "{err2}");
        assert!(MultiGpuTrainer::try_new(DeviceGroup::rtx4090s(2), quick_config()).is_ok());
    }

    #[test]
    fn data_parallel_rejects_the_knobs_it_cannot_honour() {
        let mut subtraction = quick_config();
        subtraction.hist.subtraction = true;
        let goss = TrainConfig {
            goss: Some(crate::config::GossConfig::default_rates()),
            ..quick_config()
        };
        for (cfg, knob) in [(subtraction, "subtraction"), (goss, "goss")] {
            let err = MultiGpuTrainer::try_with_strategy(
                DeviceGroup::rtx4090s(2),
                cfg.clone(),
                MultiGpuStrategy::DataParallel,
            )
            .err()
            .unwrap_or_else(|| panic!("data-parallel accepted {knob}"));
            assert!(err.message().contains(knob), "{err}");
            assert!(MultiGpuTrainer::try_new(DeviceGroup::rtx4090s(2), cfg).is_ok());
        }
    }

    #[test]
    fn partition_features_covers_everything() {
        let parts = partition_features(10, 3);
        assert_eq!(parts, vec![(0, 4), (4, 7), (7, 10)]);
        let parts = partition_features(2, 4);
        assert_eq!(parts.iter().map(|(a, b)| b - a).sum::<usize>(), 2);
        assert_eq!(partition_features(0, 2), vec![(0, 0), (0, 0)]);
    }

    #[test]
    fn dual_gpu_is_faster_than_single_in_sim_time() {
        // Table 2's dual-GPU column: histogram work splits across
        // devices, so simulated time drops. Large enough that per-level
        // collective latency does not swamp the histogram savings.
        let ds = make_classification(&ClassificationSpec {
            instances: 20_000,
            features: 32,
            classes: 16,
            informative: 20,
            class_sep: 2.0,
            seed: 2,
            ..Default::default()
        });
        let cfg = TrainConfig {
            num_trees: 3,
            ..quick_config()
        };
        let single = MultiGpuTrainer::new(DeviceGroup::rtx4090s(1), cfg.clone()).fit_report(&ds);
        let dual = MultiGpuTrainer::new(DeviceGroup::rtx4090s(2), cfg).fit_report(&ds);
        assert!(
            dual.sim_seconds < single.sim_seconds,
            "dual {} vs single {}",
            dual.sim_seconds,
            single.sim_seconds
        );
    }

    #[test]
    fn multi_gpu_learns() {
        let ds = dataset(3);
        let (train, test) = ds.split(0.3, 7);
        let model = MultiGpuTrainer::new(DeviceGroup::rtx4090s(4), quick_config()).fit(&train);
        let acc = accuracy(&model.predict(test.features()), &test.labels());
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn comm_time_is_booked() {
        let ds = dataset(4);
        let trainer = MultiGpuTrainer::new(DeviceGroup::rtx4090s(2), quick_config());
        let _ = trainer.fit(&ds);
        for dev in trainer.group().devices() {
            assert!(
                dev.summary().by_phase.contains_key(&Phase::Comm),
                "device {} has no communication time",
                dev.id
            );
        }
    }

    #[test]
    fn data_parallel_pays_histogram_sized_communication() {
        // The trade-off that justifies the paper's feature-parallel
        // choice: data-parallel collectives move the full m×B×d
        // histogram; feature-parallel moves only summary statistics.
        let ds = make_classification(&ClassificationSpec {
            instances: 3000,
            features: 24,
            classes: 12,
            informative: 16,
            seed: 8,
            ..Default::default()
        });
        let cfg = quick_config();
        let fp = MultiGpuTrainer::with_strategy(
            DeviceGroup::rtx4090s(2),
            cfg.clone(),
            MultiGpuStrategy::FeatureParallel,
        );
        let _ = fp.fit(&ds);
        let fp_comm = fp.group().device(0).summary().fraction(Phase::Comm);

        let dp = MultiGpuTrainer::with_strategy(
            DeviceGroup::rtx4090s(2),
            cfg,
            MultiGpuStrategy::DataParallel,
        );
        let _ = dp.fit(&ds);
        let dp_comm = dp.group().device(0).summary().fraction(Phase::Comm);
        assert!(
            dp_comm > fp_comm * 3.0,
            "data-parallel comm share {dp_comm} should dwarf feature-parallel {fp_comm}"
        );
    }

    #[test]
    fn streamed_multigpu_overlaps_collectives_without_changing_models() {
        // The tentpole claim on the multi-GPU paths: with streams > 1
        // the level-batched collectives drain on the comm engines while
        // the next level's fresh builds run, shrinking the makespan —
        // and the trees, predictions, and the *order* of charged
        // kernels stay bit-identical to the serial schedule.
        let ds = make_classification(&ClassificationSpec {
            instances: 6000,
            features: 24,
            classes: 8,
            informative: 16,
            class_sep: 2.0,
            seed: 11,
            ..Default::default()
        });
        for strategy in [
            MultiGpuStrategy::FeatureParallel,
            MultiGpuStrategy::DataParallel,
        ] {
            let cfg1 = TrainConfig {
                num_trees: 3,
                ..quick_config()
            };
            let cfg4 = TrainConfig {
                streams: 4,
                ..cfg1.clone()
            };
            let serial = MultiGpuTrainer::with_strategy(DeviceGroup::rtx4090s(2), cfg1, strategy);
            let r1 = serial.fit_report(&ds);
            let streamed = MultiGpuTrainer::with_strategy(DeviceGroup::rtx4090s(2), cfg4, strategy);
            let r4 = streamed.fit_report(&ds);
            assert_eq!(
                r1.model.predict(ds.features()),
                r4.model.predict(ds.features()),
                "{strategy:?}: streams must not change the model"
            );
            assert!(
                r4.sim_seconds < r1.sim_seconds,
                "{strategy:?}: streamed {} should beat serial {}",
                r4.sim_seconds,
                r1.sim_seconds
            );
            assert!(
                r4.sim.overlap_saved_ns > 0.0,
                "{strategy:?}: overlap savings must be recorded"
            );
            for (d1, d4) in serial
                .group()
                .devices()
                .iter()
                .zip(streamed.group().devices())
            {
                let names1: Vec<&str> = d1.records().iter().map(|r| r.name).collect();
                let names4: Vec<&str> = d4.records().iter().map(|r| r.name).collect();
                assert_eq!(
                    names1, names4,
                    "{strategy:?}: device {} charge order must not change",
                    d1.id
                );
            }
        }
    }

    #[test]
    fn more_devices_than_features_still_works() {
        let ds = make_classification(&ClassificationSpec {
            instances: 200,
            features: 3,
            classes: 2,
            informative: 3,
            seed: 5,
            ..Default::default()
        });
        let model = MultiGpuTrainer::new(DeviceGroup::rtx4090s(8), quick_config()).fit(&ds);
        assert_eq!(model.num_trees(), 6);
    }
}
