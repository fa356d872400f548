//! Metric registry, correctness accounting and the output format.

use crate::trace::SpanStats;
use std::collections::BTreeMap;
use std::fmt::Display;

/// End-to-end metrics, measured with tracing off. Every workload
/// reports all of them; `host_cpu_ms` and `sim_ms` are per operation, and
/// an operation is one fit on a train workload and one request on
/// `serve-open` (see perfbench/README.md).
pub const END_TO_END: [(&str, &str); 5] = [
    ("host_cpu_ms", "ms"),
    ("sim_ms", "ms"),
    ("test_error", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Host spans recorded around public layer calls, in report order.
pub const SPANS: [&str; 13] = [
    "data.bin",
    "grad.compute",
    "grow.tree",
    "predict.update",
    "hist.build",
    "split.find",
    "grow.partition",
    "collective.all_reduce",
    "serve.compile",
    "serve.upload",
    "serve.submit",
    "serve.submit_flushing",
    "ledger.charge",
];

/// `Device::charge_ns` calls timed by one `ledger.charge` span.
pub const LEDGER_BATCH: u64 = 10_000;

/// Per-layer metrics, measured by the traced run. A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("sim.hist_ms", "ms"),
    ("sim.hist_kernels", "count"),
    ("sim.split_ms", "ms"),
    ("sim.partition_ms", "ms"),
    ("sim.grad_ms", "ms"),
    ("sim.predict_ms", "ms"),
    ("sim.transfer_ms", "ms"),
    ("sim.comm_ms", "ms"),
    ("sim.idle_ms", "ms"),
    ("sim.overlap_saved_ms", "ms"),
    ("sim.kernels", "count"),
    ("sim.serve_ms", "ms"),
    ("multigpu.collective_bytes", "bytes"),
    ("hist.nodes_gmem", "count"),
    ("hist.nodes_smem", "count"),
    ("hist.nodes_sortreduce", "count"),
    ("serve.batches", "count"),
    ("serve.fill_ratio", "ratio"),
    ("serve.p50_sim_us", "us"),
    ("serve.p99_sim_us", "us"),
    ("serve.capacity_rps", "1/s"),
    ("serve.host_us_p50", "us"),
    ("serve.host_us_p99", "us"),
    ("host.data.bin_us", "us"),
    ("host.data.bin_calls", "count"),
    ("host.grad.compute_us", "us"),
    ("host.grad.compute_calls", "count"),
    ("host.grow.tree_us", "us"),
    ("host.grow.tree_calls", "count"),
    ("host.predict.update_us", "us"),
    ("host.predict.update_calls", "count"),
    ("host.hist.build_us", "us"),
    ("host.hist.build_calls", "count"),
    ("host.split.find_us", "us"),
    ("host.split.find_calls", "count"),
    ("host.grow.partition_us", "us"),
    ("host.grow.partition_calls", "count"),
    ("host.collective.all_reduce_us", "us"),
    ("host.collective.all_reduce_calls", "count"),
    ("host.serve.compile_us", "us"),
    ("host.serve.compile_calls", "count"),
    ("host.serve.upload_us", "us"),
    ("host.serve.upload_calls", "count"),
    ("host.serve.submit_us", "us"),
    ("host.serve.submit_calls", "count"),
    ("host.serve.submit_flushing_us", "us"),
    ("host.serve.submit_flushing_calls", "count"),
    ("host.ledger.charge_ns", "ns"),
    ("host.ledger.charge_calls", "count"),
    ("host.wall_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.untraced_cpu_ms", "ms"),
    ("trace.traced_cpu_ms", "ms"),
    ("trace.replay_coverage", "ratio"),
    ("trace.replay_span_ms", "ms"),
    ("error_rate", "ratio"),
];

/// Failed checks listed by name; the rest are only counted.
const MAX_FAILURES_SHOWN: usize = 20;

pub struct Report {
    trace: bool,
    info: Vec<(String, String)>,
    metrics: BTreeMap<String, (f64, String)>,
    attempted: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Report {
            trace,
            info: Vec::new(),
            metrics: BTreeMap::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// A line of context printed with the results, not a metric.
    pub fn info(&mut self, key: &str, value: impl Display) {
        self.info.push((key.to_string(), value.to_string()));
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics
            .insert(name.to_string(), (value, unit.to_string()));
    }

    /// Count one attempted operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Count one attempted operation that failed.
    pub fn fail(&mut self, what: String) {
        self.check(false, || what);
    }

    /// Print the human-readable table and the closing JSON line. Returns
    /// whether every check passed.
    pub fn finish(mut self) -> bool {
        let failed = self.failures.len() as u64;
        let rate = failed as f64 / self.attempted.max(1) as f64;
        self.metric("error_rate", rate, "ratio");
        let declared: &[(&str, &str)] = if self.trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let value = match self.metrics.get(name) {
                // `metric` already counted a non-finite value as a failure.
                Some((v, u)) if u == unit => {
                    if v.is_finite() {
                        *v
                    } else {
                        0.0
                    }
                }
                Some((_, u)) => {
                    self.failures
                        .push(format!("metric {name} is in {u}, declared in {unit}"));
                    0.0
                }
                // Per-layer metrics of a layer this workload does not
                // run read 0; an end-to-end metric is always measured
                // unless the run already failed.
                None if self.trace => 0.0,
                None => {
                    self.failures
                        .push(format!("end-to-end metric {name} was not measured"));
                    0.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        for (k, v) in &self.info {
            println!("# {k}: {v}");
        }
        for f in self.failures.iter().take(MAX_FAILURES_SHOWN) {
            println!("# FAILED: {f}");
        }
        if self.failures.len() > MAX_FAILURES_SHOWN {
            println!(
                "# FAILED: … {} more",
                self.failures.len() - MAX_FAILURES_SHOWN
            );
        }
        for (name, (value, unit)) in &self.metrics {
            println!("{name:<34} {value:>18.6} {unit}");
        }
        let failed = self.failures.len() as u64;
        let attempted = self.attempted.max(failed).max(1);
        println!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            failed == 0,
            fields.join(", ")
        );
        failed == 0
    }
}

/// Self time per call and call count for every layer span.
pub fn span_metrics(rep: &mut Report, stats: &BTreeMap<&'static str, SpanStats>) {
    for name in SPANS {
        let s = stats.get(name).copied().unwrap_or_default();
        if name == "ledger.charge" {
            let charges = s.calls * LEDGER_BATCH;
            let per = if charges > 0 {
                s.self_ns as f64 / charges as f64
            } else {
                0.0
            };
            rep.metric("host.ledger.charge_ns", per, "ns");
            rep.metric("host.ledger.charge_calls", charges as f64, "count");
            continue;
        }
        let per_us = if s.calls > 0 {
            s.self_ns as f64 / s.calls as f64 / 1e3
        } else {
            0.0
        };
        rep.metric(&format!("host.{name}_us"), per_us, "us");
        rep.metric(&format!("host.{name}_calls"), s.calls as f64, "count");
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median (nearest rank).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile; NaN for an empty sample, which
/// [`Report::metric`] then counts as a failure.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// CPU seconds this process has used so far, summed over all its
/// threads, including threads that have exited. Unlike the wall clock,
/// it does not count time the process waited for a core, which on a
/// shared machine is most of the run-to-run spread.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is one the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Host cost of one operation on both host clocks.
#[derive(Debug, Clone, Copy)]
pub struct HostCost {
    pub wall_s: f64,
    pub cpu_s: f64,
}

impl HostCost {
    /// Run `f` and measure it.
    pub fn measure<R>(f: impl FnOnce() -> R) -> (R, HostCost) {
        let (w0, c0) = (std::time::Instant::now(), cpu_s());
        let out = f();
        let cpu = cpu_s() - c0;
        let cost = HostCost {
            wall_s: w0.elapsed().as_secs_f64(),
            cpu_s: cpu,
        };
        (out, cost)
    }

    /// Medians of each clock.
    pub fn medians(xs: &[HostCost]) -> HostCost {
        let wall: Vec<f64> = xs.iter().map(|c| c.wall_s).collect();
        let cpu: Vec<f64> = xs.iter().map(|c| c.cpu_s).collect();
        HostCost {
            wall_s: median(&wall),
            cpu_s: median(&cpu),
        }
    }
}

/// `setup_s`: median CPU seconds of the timed setups.
pub fn record_setup(rep: &mut Report, costs: &[HostCost]) {
    let m = HostCost::medians(costs);
    rep.metric("setup_s", m.cpu_s, "s");
    rep.info(
        "setup",
        format!(
            "cpu {:.4} s, wall {:.4} s (medians of {})",
            m.cpu_s,
            m.wall_s,
            costs.len()
        ),
    );
}

/// Tracing overhead: traced ÷ untraced CPU time per operation, with
/// both bases.
pub fn record_overhead(rep: &mut Report, plain: HostCost, traced: HostCost) {
    rep.metric("trace.untraced_cpu_ms", plain.cpu_s * 1e3, "ms");
    rep.metric("trace.traced_cpu_ms", traced.cpu_s * 1e3, "ms");
    rep.metric("trace.overhead_ratio", traced.cpu_s / plain.cpu_s, "ratio");
    rep.metric("host.wall_ms", plain.wall_s * 1e3, "ms");
}
