//! `perfbench`: the benchmark of the entropy service.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench sweep --out DIR [--runs N] [--first-seed N] [--seconds S] [--trace 0|1] [--workloads a,b]
//! perfbench compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! The first form is one run.  It builds and spawns `ptrng-serve` in the
//! fixed deployment, drives one workload at it over loopback, checks every
//! response and prints one JSON object as its last line: the end-to-end
//! metrics with `--trace 0`, the per-layer budget with `--trace 1`.
//! `sweep` repeats runs over seeds into `DIR/<workload>.jsonl`; `compare`
//! reads two such directories and gives every metric a verdict.  See
//! `README.md` next to this crate.

mod checks;
mod client;
mod compare;
mod load;
mod metrics;
mod replay;
mod run;
mod server;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
       perfbench sweep --out DIR [--runs N] [--first-seed N] [--seconds S] [--trace 0|1] [--workloads a,b]
       perfbench compare PARENT_DIR CHANGE_DIR";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("sweep") => compare::sweep(&args[1..]),
        Some("compare") => compare::compare(&args[1..]),
        _ => single_run(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

fn single_run(args: &[String]) -> Result<(), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(workload::by_name(value)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "invalid --seed")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| (1.0..=120.0).contains(s))
                        .ok_or("--seconds must be a number from 1 to 120")?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    let (Some(wl), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return Err(USAGE.to_string());
    };
    if trace {
        trace::run(wl, seed, seconds)?.print(wl.name, metrics::PER_LAYER);
    } else {
        run::run(wl, seed, seconds)?.print(wl.name, metrics::END_TO_END);
    }
    Ok(())
}
