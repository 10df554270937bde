//! One end-to-end run with tracing off: set-up, warm-up, the measured phase,
//! the output checks and the end-to-end metrics.

use std::path::Path;
use std::time::Instant;

use crate::checks::{self, Checker};
use crate::client::Response;
use crate::load::{self, keep_bytes, Phase, Tally, SAMPLE_BYTES};
use crate::metrics::RunResult;
use crate::server::{self, Server};
use crate::stats::{median, quantile, sorted, tail_quantile};
use crate::workload::{path, Tier, Workload};

/// Server processes spawned per run; `setup_s` is their median.
const SETUP_SPAWNS: usize = 21;

/// How late (p99, ms) sends may go out before the run measured the
/// generator rather than the server.
pub const LATE_LIMIT_MS: f64 = 10.0;

pub fn run(wl: &Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let bin = server::build_binary()?;
    let mut result = RunResult::default();
    let (server, setup_s) = set_up(&bin, wl, seed, SETUP_SPAWNS)?;
    result.set("setup_s", setup_s);
    // The kept server already answered one workload request during set-up.
    let mut entropy_bytes = if wl.tier == Tier::Entropy {
        wl.bytes
    } else {
        0
    };

    let warm = load::drive(server.addr, wl, wl.warmup_s, false, &|| None)?;
    note_failures(&mut result, "warm-up", &warm.tally);
    let phase = load::drive(server.addr, wl, seconds, true, &|| server.cpu().ok())?;
    result.set("rss_mib", server.peak_rss_mib()?);

    let tally = &phase.tally;
    result.attempted = tally.attempted;
    result.failed = tally.failed;
    note_failures(&mut result, "measured phase", tally);
    result.set("goodput_mb_s", phase.goodput_mb_s);
    match phase.cpu_ms_per_mb {
        Some(cpu_ms_per_mb) => result.set("cpu_ms_per_mb", cpu_ms_per_mb),
        None => result.problem("the server's CPU time was unreadable"),
    }
    result.set("max_rps_slo", phase.max_rps);
    latency_metrics(&mut result, wl, &phase);
    check_lateness(&mut result, tally);
    if wl.tier == Tier::Entropy {
        entropy_bytes += warm.tally.good_bytes + tally.good_bytes;
    }
    for problem in post_checks(&server, wl, tally, entropy_bytes) {
        result.problem(problem);
    }
    println!("{}: {} requests measured", wl.name, tally.attempted);
    Ok(result)
}

/// Spawns the deployment `spawns` times, timing each from spawn to the first
/// checked 200 on the workload's endpoint, and keeps the last server; the
/// others are killed before the next spawn.  Returns the median time.
pub fn set_up(
    bin: &Path,
    wl: &Workload,
    seed: u64,
    spawns: usize,
) -> Result<(Server, f64), String> {
    let mut times = Vec::with_capacity(spawns);
    let mut kept = None;
    // One extra spawn first, untimed: the first exec after a build pays for
    // cold page-cache and loader state that later spawns do not.
    for spawn in 0..=spawns {
        drop(kept.take());
        let start = Instant::now();
        let server = Server::spawn(bin, seed)?;
        let response = server.get(&wl.path(), keep_bytes(wl.tier))?;
        Checker::new(wl.tier, wl.bytes)
            .check(&response)
            .map_err(|problem| format!("first response after spawn: {problem}"))?;
        if spawn > 0 {
            times.push(start.elapsed().as_secs_f64());
        }
        kept = Some(server);
    }
    let server = kept.ok_or("set-up spawned no server")?;
    Ok((server, median(&times)))
}

/// Turns a stretch's failures into a problem of the run.
pub fn note_failures(result: &mut RunResult, stretch: &str, tally: &Tally) {
    if tally.failed > 0 {
        result.problem(format!(
            "{stretch}: {} of {} requests failed: {}",
            tally.failed,
            tally.attempted,
            tally.failures.join("; ")
        ));
    }
}

/// `p50_ms`, and `tail_ms` at the workload's fixed percentile, which the
/// sample count behind it must support.
fn latency_metrics(result: &mut RunResult, wl: &Workload, phase: &Phase) {
    if phase.latencies.is_empty() {
        result.problem("no request completed");
        return;
    }
    result.set("p50_ms", phase.p50_ms);
    result.set("tail_ms", phase.tail_ms);
    println!(
        "{}: tail_ms is p{} over {} requests per estimate, p50_ms over {}",
        wl.name,
        wl.tail_q * 100.0,
        phase.tail_samples,
        phase.latencies.len()
    );
    if tail_quantile(phase.tail_samples).is_none_or(|supported| supported < wl.tail_q) {
        result.problem(format!(
            "{} requests leave fewer than ten beyond p{}",
            phase.tail_samples,
            wl.tail_q * 100.0
        ));
    }
}

/// Invalidates a run whose sends went out later than [`LATE_LIMIT_MS`] at p99.
pub fn check_lateness(result: &mut RunResult, tally: &Tally) -> f64 {
    if tally.late_ms.is_empty() {
        return 0.0;
    }
    let p99 = quantile(&sorted(&tally.late_ms), 0.99);
    if p99 > LATE_LIMIT_MS {
        result.problem(format!(
            "the generator ran late: p99 send lateness {p99:.2} ms exceeds {LATE_LIMIT_MS} ms"
        ));
    }
    p99
}

/// FIPS samples of both tiers and the entropy books, after the measured phase.
fn post_checks(server: &Server, wl: &Workload, tally: &Tally, entropy_bytes: u64) -> Vec<String> {
    let mut problems = Vec::new();
    let measured = (tally.sample.len() >= SAMPLE_BYTES).then_some(tally.sample.as_slice());
    let mut claimed_h = None;
    for tier in [Tier::Entropy, Tier::Random] {
        let response = match fetch_sample(server, tier) {
            Ok(response) => response,
            Err(problem) => {
                problems.push(problem);
                continue;
            }
        };
        let sample = match measured {
            Some(sample) if wl.tier == tier => sample,
            _ => response.body.as_slice(),
        };
        if let Err(problem) = checks::fips_sample(&path(tier, SAMPLE_BYTES as u64), sample) {
            problems.push(problem);
        }
        if tier == Tier::Entropy {
            claimed_h = response
                .header("x-ptrng-minentropy")
                .and_then(|h| h.parse::<f64>().ok());
        }
    }
    if let Some(h) = claimed_h {
        let served = entropy_bytes + SAMPLE_BYTES as u64;
        if let Err(problem) = server
            .scrape()
            .and_then(|exposition| checks::books(&exposition, served, h))
        {
            problems.push(problem);
        }
    }
    problems
}

/// A checked sample of `tier`'s output on a fresh connection.
fn fetch_sample(server: &Server, tier: Tier) -> Result<Response, String> {
    let target = path(tier, SAMPLE_BYTES as u64);
    let response = server.get(&target, SAMPLE_BYTES)?;
    Checker::new(tier, SAMPLE_BYTES as u64)
        .check(&response)
        .map_err(|problem| format!("GET {target}: {problem}"))?;
    Ok(response)
}
