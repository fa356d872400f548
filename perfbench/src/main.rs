//! Two-clock benchmark of the GBDT-MO stack: four workloads, each run
//! end to end with tracing off (`--trace 0`) or layer by layer with
//! host spans recorded around public layer calls (`--trace 1`).
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload train-dense-1gpu --seed 42 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits
//! with code 1 when any correctness check fails.

mod report;
mod serve;
mod trace;
mod train;

use report::Report;
use std::path::PathBuf;
use std::time::Instant;

/// Seed used when `--seed` is not given; gating runs use it.
const DEFAULT_SEED: u64 = 42;

pub const WORKLOADS: [&str; 4] = [
    "train-dense-1gpu",
    "train-sparse-2gpu-fp",
    "train-dense-2gpu-dp",
    "serve-open",
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected all or one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Cap the rayon pool at the core count before the pool starts; the
/// vendored rayon reads `RAYON_NUM_THREADS` when it builds its pool.
fn pin_threads() -> (usize, usize) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&t| t > 0)
        .map_or(nproc, |t| t.min(nproc));
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    (nproc, threads)
}

/// Commit of the checkout, when it is a git working tree.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown (not a git checkout)".into(),
    }
}

/// Run every workload untraced and then traced, each in a child process
/// of this binary so that peak memory and set-up stay per workload.
/// Returns the exit code: 1 if any run failed.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate this binary: {e}");
            return 2;
        }
    };
    let mut failed = Vec::new();
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            println!("## {workload} --trace {trace}");
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status();
            if !matches!(status, Ok(s) if s.success()) {
                failed.push(format!("{workload} --trace {trace}"));
            }
        }
    }
    if failed.is_empty() {
        println!("## all workloads passed their checks");
        0
    } else {
        println!("## FAILED: {}", failed.join(", "));
        1
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    let (nproc, threads) = pin_threads();
    let mut rep = Report::new(args.trace);
    rep.info("workload", &args.workload);
    rep.info("seed", args.seed);
    rep.info("seconds", args.seconds);
    rep.info("trace", u8::from(args.trace));
    rep.info("nproc", nproc);
    rep.info("rayon_threads", threads);
    rep.info(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    rep.info("git_commit", git_commit());
    rep.info("rustc", env!("PERFBENCH_RUSTC"));
    rep.info("load", "one benchmark process; workloads run one at a time");

    let start = Instant::now();
    let mut tracer = trace::Tracer::new();
    let tracer_opt = args.trace.then_some(&mut tracer);
    if args.workload == "serve-open" {
        serve::run(&args, &mut rep, tracer_opt);
    } else {
        train::run(&args, &mut rep, tracer_opt);
    }
    if args.trace {
        let path = PathBuf::from("perfbench/out")
            .join(format!("spans-{}-seed{}.tsv", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => rep.info("spans_file", path.display()),
            Err(e) => rep.info("spans_file", format!("not written: {e}")),
        }
        report::span_metrics(&mut rep, &tracer.stats());
    } else {
        rep.metric("peak_rss_mb", report::peak_rss_mb(), "MB");
    }
    rep.info("wall_s", format!("{:.2}", start.elapsed().as_secs_f64()));
    let ok = rep.finish();
    std::process::exit(if ok { 0 } else { 1 });
}
