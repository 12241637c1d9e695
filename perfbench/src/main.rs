//! The repository's benchmark: one command per workload that measures the
//! end-to-end metrics (untraced) or the per-layer breakdown (traced), checks
//! every answer, and prints one JSON result as its last line of output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <olap-tsunami|olap-flood|ingest-durable> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run it from the repository root. The exit code is 0 only when every
//! check passed; a wrong or unrecovered answer prints `"correct": false` and
//! exits with 1. Inputs derive from `--seed` and are generated before any
//! timing starts. `BENCHMARK.json` at the root names every workload and
//! metric and says why each exists.

mod common;
mod ingest;
mod olap;
mod report;
mod serve;

use std::process::ExitCode;

use olap::Family;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The shipped defaults are what is measured: no TSUNAMI_* override
    // reaches the library. This runs before any thread exists.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TSUNAMI_") {
            eprintln!("perfbench: ignoring {}", key.to_string_lossy());
            std::env::remove_var(&key);
        }
    }
    let workers = tsunami_core::exec::pool::global().worker_count();
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} pool workers {workers}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    let mut report = match args.workload.as_str() {
        "olap-tsunami" => olap::run(Family::Tsunami, seed, seconds, trace),
        "olap-flood" => olap::run(Family::Flood, seed, seconds, trace),
        "ingest-durable" => ingest::run(seed, seconds, trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    report.set("pool.workers", workers as f64);
    let line = report.result_line(trace);
    println!("{line}");
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
