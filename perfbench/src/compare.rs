//! Result sets: `sweep` records repeated runs, `compare` judges two sets.
//!
//! A result set is a directory of `<workload>.jsonl` files, each line the
//! final JSON object of one run in seed order, so line `i` of two sets ran
//! the same seed.

use std::path::Path;
use std::process::{Command, Stdio};

use serde::Value;

use crate::checks::{field, number};
use crate::metrics::{Spec, END_TO_END, PER_LAYER};
use crate::stats::{compare as judge, quartiles, spread};
use crate::workload::WORKLOADS;

const SWEEP_USAGE: &str = "usage: perfbench sweep --out DIR [--runs N] [--first-seed N] \
                           [--seconds S] [--trace 0|1] [--workloads a,b,...]";

/// Runs every named workload `--runs` times, one seed each, records the
/// results and prints the spread of every metric.
pub fn sweep(args: &[String]) -> Result<(), String> {
    let mut out = None;
    let mut runs = 10u64;
    let mut first_seed = 1u64;
    let mut seconds = "10".to_string();
    let mut trace = "0".to_string();
    let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{SWEEP_USAGE}"))?;
        match flag.as_str() {
            "--out" => out = Some(value.clone()),
            "--runs" => runs = value.parse().map_err(|_| "invalid --runs")?,
            "--first-seed" => first_seed = value.parse().map_err(|_| "invalid --first-seed")?,
            "--seconds" => seconds = value.clone(),
            "--trace" => trace = value.clone(),
            "--workloads" => names = value.split(',').map(str::to_string).collect(),
            other => return Err(format!("unknown argument `{other}`\n{SWEEP_USAGE}")),
        }
    }
    let out = out.ok_or(SWEEP_USAGE)?;
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {out}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate perfbench: {e}"))?;
    let specs = if trace == "1" { PER_LAYER } else { END_TO_END };
    for name in &names {
        let mut lines = Vec::new();
        for seed in first_seed..first_seed + runs {
            let seed = seed.to_string();
            let output = Command::new(&exe)
                .args(["--workload", name, "--seed", &seed])
                .args(["--seconds", &seconds, "--trace", &trace])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run perfbench: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default().to_string();
            if !output.status.success() || !last.starts_with('{') {
                print!("{stdout}");
                return Err(format!(
                    "{name} seed {seed}: the run failed ({})",
                    output.status
                ));
            }
            println!("{name} seed {seed}: {last}");
            lines.push(last);
        }
        let file = Path::new(&out).join(format!("{name}.jsonl"));
        std::fs::write(&file, lines.join("\n") + "\n")
            .map_err(|e| format!("cannot write {}: {e}", file.display()))?;
        summarize(name, &parse_runs(&lines)?, specs);
    }
    Ok(())
}

/// Prints each metric's median, quartiles and spread over a workload's runs.
fn summarize(name: &str, runs: &[Value], specs: &[Spec]) {
    let correct = runs
        .iter()
        .filter(|run| matches!(field(run, "correct"), Some(Value::Bool(true))))
        .count();
    println!("{name}: {correct} of {} runs correct", runs.len());
    for spec in specs {
        let values = values_of(runs, spec.name);
        if values.is_empty() {
            continue;
        }
        let [q1, q2, q3] = quartiles(&values);
        let spread = spread(&values);
        let verdict = match spec.bound {
            Some(bound) if spread > bound / 3.0 => format!("  above a third of the bound {bound}"),
            Some(bound) => format!("  bound {bound}"),
            None => String::new(),
        };
        println!(
            "  {:<24} median {q2:>14.4} {:<7} q1 {q1:>14.4} q3 {q3:>14.4} spread {spread:.4} \
             ({} is better){verdict}",
            spec.name,
            spec.unit,
            spec.better.name()
        );
    }
}

fn parse_runs(lines: &[String]) -> Result<Vec<Value>, String> {
    lines
        .iter()
        .filter(|line| !line.trim().is_empty())
        .map(|line| serde_json::from_str(line).map_err(|e| format!("unparsable run record: {e}")))
        .collect()
}

fn values_of(runs: &[Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| {
            let entry = field(field(run, "metrics")?, metric)?;
            number(field(entry, "value")?)
        })
        .collect()
}

/// Compares every workload recorded in both result sets, metric by metric.
pub fn compare(args: &[String]) -> Result<(), String> {
    let [parent, change] = args else {
        return Err("usage: perfbench compare PARENT_DIR CHANGE_DIR".to_string());
    };
    println!(
        "{:<13} {:<24} {:>12} {:>27} {:>12} {:>27} {:>6}  verdict",
        "workload",
        "metric",
        "parent p50",
        "parent [q1, q3]",
        "change p50",
        "change [q1, q3]",
        "wins"
    );
    let load = |dir: &str, workload: &str| -> Result<Option<Vec<Value>>, String> {
        let file = Path::new(dir).join(format!("{workload}.jsonl"));
        if !file.is_file() {
            return Ok(None);
        }
        let text = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let lines: Vec<String> = text.lines().map(str::to_string).collect();
        parse_runs(&lines).map(Some)
    };
    let mut compared = 0;
    for wl in &WORKLOADS {
        let (Some(old), Some(new)) = (load(parent, wl.name)?, load(change, wl.name)?) else {
            continue;
        };
        let specs = if values_of(&old, "setup_s").is_empty() {
            PER_LAYER
        } else {
            END_TO_END
        };
        for spec in specs {
            let (before, after) = (values_of(&old, spec.name), values_of(&new, spec.name));
            if before.is_empty() || after.is_empty() {
                continue;
            }
            let comparison = judge(&before, &after, spec.better, spec.bound);
            let [b1, b2, b3] = quartiles(&before);
            let [a1, a2, a3] = quartiles(&after);
            println!(
                "{:<13} {:<24} {b2:>12.4} [{b1:>12.4}, {b3:>12.4}] {a2:>12.4} [{a1:>12.4}, \
                 {a3:>12.4}] {:>3}/{:<2}  {}",
                wl.name,
                spec.name,
                comparison.wins,
                comparison.pairs,
                comparison.verdict.name()
            );
            compared += 1;
        }
    }
    if compared == 0 {
        return Err(format!(
            "no workload has result files in both {parent} and {change}"
        ));
    }
    Ok(())
}
