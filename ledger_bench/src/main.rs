//! The repository benchmark. One command runs one serving workload
//! against the real in-process `GdimServer` over loopback TCP, checks
//! every answer it is meant to check, and prints the result as one
//! JSON line:
//!
//! ```text
//! cargo run --release --manifest-path ledger_bench/Cargo.toml -- \
//!     --workload mapped_zipf|refine_unique|durable_churn \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the
//! per-layer ledger. See `README.md` beside this crate.

mod checks;
mod inputs;
mod ledger;
mod load;
mod setup;
mod stats;
mod workloads;

use std::path::PathBuf;

use stats::Metrics;

/// What a workload run hands back for the result line.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    /// Failed checks and invalid-run reasons; any entry makes the run
    /// incorrect.
    pub problems: Vec<String>,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: bad value {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Scratch space for durable directories and span dumps, inside the
/// working directory (the checkout the benchmark runs from).
pub fn work_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&dir).expect("create .bench_work");
    dir
}

/// The commit the checkout was made from, when it is a git checkout;
/// read from `.git` directly so nothing outside the checkout is read.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger_bench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = format!(
        "{{\"env\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"kernel\": \"{}\", \"fsync\": \"{:?}\", \"commit\": \"{}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        gdim_kernels::selected_kernel().name(),
        setup::SYNC,
        commit(),
    );
    eprintln!("{env}");
    let outcome = match args.workload.as_str() {
        "mapped_zipf" => workloads::mapped_zipf(&args),
        "refine_unique" => workloads::refine_unique(&args),
        "durable_churn" => workloads::durable_churn(&args),
        other => {
            eprintln!("ledger_bench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let mut problems = outcome.problems;
    let unmeasured = outcome.metrics.non_finite();
    if !unmeasured.is_empty() {
        problems.push(format!("metrics without a finite value: {unmeasured:?}"));
    }
    for p in &problems {
        eprintln!("CHECK FAILED: {p}");
    }
    println!("{env}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        problems.is_empty() && outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        outcome.metrics.to_json()
    );
}
