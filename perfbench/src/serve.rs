//! The serving workload: an open loop of single-row requests into a
//! micro-batching server, at a fixed ladder of offered rates on the
//! simulated clock.

use crate::report::{quantile, record_overhead, record_setup, HostCost, Report};
use crate::trace::Tracer;
use crate::train::{base_error, generate_nuswide, ledger_probe, record_quality, test_error};
use crate::Args;
use gbdt_core::{
    BatchConfig, BatchServer, CompiledEnsemble, DeviceEnsemble, GpuTrainer, PredictMode,
    ServeStats, ServedBatch, TrainConfig,
};
use gbdt_data::Dataset;
use gpusim::{Device, LedgerSummary, Phase};
use std::time::Instant;

/// Offered request rates, per simulated second. The modelled device
/// serves about 85M rows/s at this model size, so the ladder spans a
/// deadline-bound rate, a size-bound rate and an overloaded one.
const RATES: [f64; 3] = [1e6, 1e7, 1e8];
/// The rate at which `sim_ms` reads the 99th-percentile latency.
const HEADLINE_RATE: usize = 1;
/// Requests offered at each rate in one pass of the ladder.
const REQUESTS_PER_RATE: usize = 20_000;
/// Latency limit for `serve.capacity_rps`, simulated ns.
const P99_LIMIT_NS: f64 = 50_000.0;
/// Share of the offered rate that must be served for a rate to count.
const MIN_SERVED_SHARE: f64 = 0.95;
const BATCH: BatchConfig = BatchConfig {
    max_batch: 256,
    max_delay_ns: 20_000.0,
    mode: PredictMode::InstanceLevel,
};
const SETUP_REPEATS: usize = 3;
const MIN_PASSES: usize = 3;

struct Setup {
    test: Dataset,
    compiled: CompiledEnsemble,
    /// `CompiledEnsemble::predict` of every test row: what the server
    /// must return for a request carrying that row.
    expected: Vec<f32>,
    train_error: (f64, f64),
}

/// One request: unit-rate exponential gap and the test row it carries.
/// Gaps are scaled by each rate, so every rung replays the same rows.
struct Request {
    gap: f64,
    row: usize,
}

/// SplitMix64: a seeded, dependency-free request generator.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

fn requests(seed: u64, rows: usize) -> Vec<Request> {
    let mut rng = SplitMix(seed ^ 0x0005_e12e);
    (0..REQUESTS_PER_RATE)
        .map(|_| Request {
            gap: -rng.unit().ln(),
            row: (rng.next() % rows as u64) as usize,
        })
        .collect()
}

fn setup(seed: u64, mut tracer: Option<&mut Tracer>) -> Result<Setup, String> {
    let (train, test) = generate_nuswide(seed);
    let config = TrainConfig {
        num_trees: 20,
        max_depth: 6,
        max_bins: 64,
        ..TrainConfig::default()
    };
    let trainer = GpuTrainer::try_new(Device::rtx4090(), config).map_err(|e| e.to_string())?;
    let model = trainer.try_fit(&train).map_err(|e| e.to_string())?;
    let compiled = match tracer.as_deref_mut() {
        Some(tr) => tr.span("serve.compile", |_| CompiledEnsemble::compile(&model)),
        None => CompiledEnsemble::compile(&model),
    };
    let device = Device::rtx4090();
    let ens = match tracer {
        Some(tr) => tr.span("serve.upload", |_| {
            DeviceEnsemble::upload(device, &compiled)
        }),
        None => DeviceEnsemble::upload(device, &compiled),
    };
    ens.verify().map_err(|e| e.to_string())?;
    let expected = compiled.predict(test.features());
    let model_scores = model.predict(test.features());
    if expected
        .iter()
        .map(|v| v.to_bits())
        .ne(model_scores.iter().map(|v| v.to_bits()))
    {
        return Err("the compiled ensemble disagrees with the model".into());
    }
    let train_error = (test_error(&expected, &test), base_error(&train, &test));
    Ok(Setup {
        test,
        compiled,
        expected,
        train_error,
    })
}

/// One rung of the ladder as the server saw it.
struct Rung {
    stats: ServeStats,
    ledger: LedgerSummary,
}

struct Pass {
    rungs: Vec<Rung>,
    /// Wall ns of every `submit` call and each rung's closing flush.
    call_ns: Vec<u64>,
    /// CPU seconds of the submit loops (and closing flushes).
    cpu_s: f64,
}

/// Compare every served row with the reference scores of its request;
/// returns how many rows were served.
fn verify(rep: &mut Report, s: &Setup, reqs: &[Request], batches: &[ServedBatch]) -> usize {
    let d = s.compiled.d();
    for b in batches {
        for r in 0..b.rows {
            let id = b.first_id as usize + r;
            let got = &b.scores[r * d..(r + 1) * d];
            let ok = reqs.get(id).is_some_and(|q| {
                let want = &s.expected[q.row * d..(q.row + 1) * d];
                got.iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            });
            rep.check(ok, || format!("request {id} was served wrong scores"));
        }
    }
    batches.iter().map(|b| b.rows).sum()
}

/// Offer every request at each rate of the ladder, on a fresh device
/// per rate.
fn pass(s: &Setup, reqs: &[Request], rep: &mut Report, mut tr: Option<&mut Tracer>) -> Pass {
    let mut rungs = Vec::with_capacity(RATES.len());
    let mut call_ns = Vec::with_capacity(RATES.len() * (reqs.len() + 1));
    let mut cpu_s = 0.0;
    for rate in RATES {
        let device = Device::rtx4090();
        let ens = DeviceEnsemble::upload(device.clone(), &s.compiled);
        let mut server = match BatchServer::new(ens, BATCH) {
            Ok(srv) => srv,
            Err(e) => {
                rep.fail(format!("server rejected its config: {e}"));
                return Pass {
                    rungs,
                    call_ns,
                    cpu_s,
                };
            }
        };
        let mut served = Vec::new();
        let mut arrival_ns = 0.0;
        let c0 = crate::report::cpu_s();
        for q in reqs {
            // Open loop: arrival times are fixed by the schedule on the
            // simulated clock, so the generator is never late and each
            // latency counts from the request's due time.
            arrival_ns += q.gap / rate * 1e9;
            let row = s.test.features().row(q.row);
            let t0 = Instant::now();
            let out = match tr.as_deref_mut() {
                Some(tr) => {
                    tr.begin_op();
                    let start = tr.now_ns();
                    let out = server.submit(arrival_ns, row);
                    let name = if out.is_empty() {
                        "serve.submit"
                    } else {
                        "serve.submit_flushing"
                    };
                    tr.leaf(name, start);
                    out
                }
                None => server.submit(arrival_ns, row),
            };
            call_ns.push(t0.elapsed().as_nanos() as u64);
            served.extend(out);
        }
        let t0 = Instant::now();
        served.extend(server.flush());
        call_ns.push(t0.elapsed().as_nanos() as u64);
        cpu_s += crate::report::cpu_s() - c0;
        let count = verify(rep, s, reqs, &served);
        rep.check(count == reqs.len(), || {
            format!("{count} of {} requests were served", reqs.len())
        });
        rungs.push(Rung {
            stats: server.stats(),
            ledger: device.summary(),
        });
    }
    Pass {
        rungs,
        call_ns,
        cpu_s,
    }
}

/// What two passes over the same requests must agree on bit for bit.
fn fingerprint(p: &Pass) -> Vec<u64> {
    p.rungs
        .iter()
        .flat_map(|r| {
            [
                r.stats.served,
                r.stats.batches,
                r.stats.p50_ns.to_bits(),
                r.stats.p99_ns.to_bits(),
                r.stats.max_ns.to_bits(),
                r.stats.throughput_rps.to_bits(),
                r.ledger.total_ns.to_bits(),
                r.ledger.kernel_count,
            ]
        })
        .collect()
}

/// Host cost of one request, averaged over a pass.
fn per_request(p: &Pass, requests: usize) -> HostCost {
    let n = (requests * RATES.len()) as f64;
    HostCost {
        wall_s: p.call_ns.iter().sum::<u64>() as f64 * 1e-9 / n,
        cpu_s: p.cpu_s / n,
    }
}

pub fn run(args: &Args, rep: &mut Report, tracer: Option<&mut Tracer>) {
    let mut setup_cost = Vec::new();
    let mut s = None;
    for _ in 0..SETUP_REPEATS {
        let (one, cost) = HostCost::measure(|| setup(args.seed, None));
        s = Some(one);
        setup_cost.push(cost);
    }
    let s = match s.expect("at least one setup") {
        Ok(s) => s,
        Err(e) => {
            rep.fail(format!("serving setup failed: {e}"));
            return;
        }
    };
    if !args.trace {
        record_setup(rep, &setup_cost);
    }
    rep.info(
        "shape",
        format!(
            "test rows={} m={} d={} trees={} nodes={} requests per rate={}",
            s.test.n(),
            s.test.m(),
            s.compiled.d(),
            s.compiled.num_trees(),
            s.compiled.num_nodes(),
            REQUESTS_PER_RATE
        ),
    );
    rep.info(
        "generator_late_ns",
        "0 (arrivals are scheduled on the simulated clock)",
    );
    let (err, base) = s.train_error;
    record_quality(rep, err, base);
    let reqs = requests(args.seed, s.test.n());

    // Warm-up pass; also the reference every later pass must match.
    let reference = pass(&s, &reqs, rep, None);
    if reference.rungs.len() != RATES.len() {
        return;
    }
    let want = fingerprint(&reference);
    serve_layers(rep, &reference, reqs.len());

    let mut tracer = tracer;
    if let Some(tr) = tracer.as_deref_mut() {
        // Spans around the setup's compile and upload, recorded once.
        if let Err(e) = setup(args.seed, Some(tr)) {
            rep.fail(format!("traced serving setup failed: {e}"));
        }
    }
    // Untraced passes until `--seconds` is spent. A traced run instead
    // alternates a fixed number of untraced and traced passes, which
    // bounds the spans it keeps (one per request).
    let traced_run = tracer.is_some();
    let start = Instant::now();
    let (mut plain, mut traced, mut call_ns) = (Vec::new(), Vec::new(), Vec::new());
    while plain.len() < MIN_PASSES || (!traced_run && start.elapsed().as_secs_f64() < args.seconds)
    {
        let p = pass(&s, &reqs, rep, None);
        rep.check(fingerprint(&p) == want, || {
            "a repeated pass served differently".into()
        });
        plain.push(per_request(&p, reqs.len()));
        // Per-call percentiles come from the first passes only, so the
        // memory they take does not grow with the run's length.
        if plain.len() <= MIN_PASSES {
            call_ns.extend(p.call_ns.iter().map(|&v| v as f64));
        }
        if let Some(tr) = tracer.as_deref_mut() {
            let t = pass(&s, &reqs, rep, Some(tr));
            rep.check(fingerprint(&t) == want, || {
                "a traced pass served differently".into()
            });
            traced.push(per_request(&t, reqs.len()));
        }
    }
    let m = HostCost::medians(&plain);
    rep.metric("serve.host_us_p50", quantile(&call_ns, 0.5) / 1e3, "us");
    rep.metric("serve.host_us_p99", quantile(&call_ns, 0.99) / 1e3, "us");
    rep.info(
        "serve_host_us_per_request",
        format!(
            "wall {:.4}, cpu {:.4} (medians of {} passes)",
            m.wall_s * 1e6,
            m.cpu_s * 1e6,
            plain.len()
        ),
    );
    match tracer {
        None => {
            rep.metric("host_cpu_ms", m.cpu_s * 1e3, "ms");
            rep.metric("host.wall_ms", m.wall_s * 1e3, "ms");
        }
        Some(tr) => {
            record_overhead(rep, m, HostCost::medians(&traced));
            ledger_probe(rep, tr);
        }
    }
}

/// Latency, capacity and device-side serving layers of one pass.
fn serve_layers(rep: &mut Report, p: &Pass, requests: usize) {
    let head = &p.rungs[HEADLINE_RATE].stats;
    rep.metric("sim_ms", head.p99_ns * 1e-6, "ms");
    rep.metric("serve.p50_sim_us", head.p50_ns * 1e-3, "us");
    rep.metric("serve.p99_sim_us", head.p99_ns * 1e-3, "us");
    let mut capacity = 0.0;
    for (rate, r) in RATES.iter().zip(&p.rungs) {
        let share = r.stats.throughput_rps / rate;
        rep.info(
            &format!("rate_{rate:.0}"),
            format!(
                "p50 {:.3} us, p99 {:.3} us, served/offered {:.3}, batches {}",
                r.stats.p50_ns * 1e-3,
                r.stats.p99_ns * 1e-3,
                share,
                r.stats.batches
            ),
        );
        if r.stats.p99_ns <= P99_LIMIT_NS && share >= MIN_SERVED_SHARE {
            capacity = *rate;
        }
    }
    rep.metric("serve.capacity_rps", capacity, "1/s");
    let phase_ms = |ph: Phase| -> f64 {
        p.rungs
            .iter()
            .map(|r| r.ledger.by_phase.get(&ph).copied().unwrap_or(0.0))
            .sum::<f64>()
            * 1e-6
    };
    rep.metric("sim.serve_ms", phase_ms(Phase::Serve), "ms");
    rep.metric("sim.transfer_ms", phase_ms(Phase::Transfer), "ms");
    rep.metric("sim.idle_ms", phase_ms(Phase::Idle), "ms");
    rep.metric("sim.hist_ms", phase_ms(Phase::Histogram), "ms");
    let kernels: u64 = p.rungs.iter().map(|r| r.ledger.kernel_count).sum();
    rep.metric("sim.kernels", kernels as f64, "count");
    let batches: u64 = p.rungs.iter().map(|r| r.stats.batches).sum();
    rep.metric("serve.batches", batches as f64, "count");
    let rows = (requests * RATES.len()) as f64;
    let slots = batches as f64 * BATCH.max_batch as f64;
    rep.metric("serve.fill_ratio", rows / slots, "ratio");
    rep.info(
        "serve.fill_ratio_base",
        format!(
            "{rows} rows / ({batches} batches x {} slots)",
            BATCH.max_batch
        ),
    );
}
