//! The traced run (`--trace 1`): where a workload's time goes, layer by layer.
//!
//! 1. The live deployment serves the workload for a short phase.  It gives
//!    the client-side layers (connect, first byte, body, generator lateness),
//!    the end-to-end p50 the replay is subtracted from, and a scrape of the
//!    server's own latency histograms, printed as a cross-check.
//! 2. The workload's requests are replayed in this process through the
//!    public calls `ptrng-serve` makes (see [`crate::replay`]), with a span
//!    around every call.  The replay is single-threaded, so every span is on
//!    the blocking path and the layers' self times must add up to its wall
//!    time.  The same requests replayed without spans give the tracing
//!    overhead.  Spans stay in memory and are written out at the end.
//! 3. Layers the workload leaves idle are read from a fixed probe mix through
//!    the same replay, and the contention layers (tap waits, the expansion
//!    tier's lock, reseeds) from drawer threads on an in-process engine built
//!    from the deployment's own flags.

use std::hint::black_box;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ptrng_engine::expanded::{DrbgPolicy, ExpandedTap};
use ptrng_engine::pool::{Engine, EngineConfig};
use ptrng_engine::source::{derive_seed, THERMAL_SWEEP_DEPTHS};
use ptrng_serve::cli::{DrbgArgs, EngineArgs};
use ptrng_trng::drbg::HashDrbg;
use ptrng_trng::sha256::{compress_block, BLOCK_BYTES, DIGEST_BITS, INITIAL_STATE};

use crate::checks::prom_value;
use crate::load;
use crate::metrics::RunResult;
use crate::replay::{calls, self_ns, Budget, Replay, Tracer, CHUNK_BYTES};
use crate::run::{check_lateness, note_failures, set_up};
use crate::server;
use crate::stats::{mean, median};
use crate::workload::{Tier, Workload, DEPLOYMENT, WINDOW_BYTES};

/// Shares of `--seconds` spent on the live phase, the traced replay and the
/// contention probe; the untraced replay takes about as long as the traced.
const LIVE_SHARE: f64 = 0.3;
const REPLAY_SHARE: f64 = 0.2;
const CONTENTION_SHARE: f64 = 0.2;

/// How far the layers' self times may sum from the replay's wall time, %.
const CLOSURE_TOLERANCE_PCT: f64 = 10.0;

/// SHA-256 compressions per conditioner digest: the 64-byte input block and
/// the padding block `finalize` adds.
const CONDITIONER_BLOCKS_PER_DIGEST: f64 = 2.0;

/// The latency histograms the live server exports, scraped as a cross-check.
const HISTOGRAM_FAMILIES: [&str; 6] = [
    "ptrng_batch_generation_seconds",
    "ptrng_conditioning_stage_seconds",
    "ptrng_tap_wait_seconds",
    "ptrng_http_request_seconds",
    "ptrng_audit_estimator_seconds",
    "ptrng_drbg_reseed_seconds",
];

pub fn run(wl: &'static Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut result = RunResult::default();
    let (config, policy) = deployment_config(seed)?;

    // 1. The live deployment.
    let bin = server::build_binary()?;
    let (server, _) = set_up(&bin, wl, seed, 1)?;
    let warm = load::drive(server.addr, wl, wl.warmup_s, false, &|| None)?;
    note_failures(&mut result, "warm-up", &warm.tally);
    let live = load::drive(server.addr, wl, LIVE_SHARE * seconds, false, &|| None)?;
    let exposition = server.scrape()?;
    drop(server);
    result.attempted = live.tally.attempted;
    result.failed = live.tally.failed;
    note_failures(&mut result, "live phase", &live.tally);
    if live.latencies.is_empty() {
        return Err("the live phase completed no request".to_string());
    }
    result.set("net.connect_us", mean(&live.tally.connect_us));
    result.set("net.ttfb_us", median(&live.tally.ttfb_us));
    result.set("net.body_us", median(&live.tally.body_us));
    let late = check_lateness(&mut result, &live.tally);
    result.set("gen.late_ms", late);
    result.set(
        "expanded.reseeds",
        prom_value(&exposition, "ptrng_drbg_reseeds_total").unwrap_or(0.0),
    );

    // 2. The replay, traced and plain, after an untraced warm-up so that
    //    neither of the two compared replays runs cold.
    let budget = Duration::from_secs_f64(REPLAY_SHARE * seconds);
    Replay::run_for(&config, wl, budget / 4, false)?;
    let (main, traced_wall) = Replay::run_for(&config, wl, budget, true)?;
    let (_, plain_wall) = Replay::run_count(&config, wl, main.counts.requests)?;
    let probe = Replay::probe_mix(&config)?;
    let layered: f64 = main
        .tracer
        .budget()
        .iter()
        .filter(|(name, _)| **name != "request")
        .map(|(_, &(ns, _))| ns as f64)
        .sum();
    let closure = layered / traced_wall.as_nanos() as f64 * 100.0;
    result.set("trace.closure_pct", closure);
    if (closure - 100.0).abs() > CLOSURE_TOLERANCE_PCT {
        result.problem(format!(
            "layer self times sum to {closure:.1} % of the replay's wall time"
        ));
    }
    let overhead = (traced_wall.as_secs_f64() / plain_wall.as_secs_f64() - 1.0) * 100.0;
    result.set("trace.overhead_pct", overhead);
    let request_us = median(&main.tracer.durations_us("request"));
    result.set("server.residual_us", live.p50_ms * 1e3 - request_us);
    layer_metrics(&mut result, &main, &probe);
    print_budget(wl, &main, traced_wall, overhead);
    cross_check(&exposition, &main);
    match write_spans(wl, &main.tracer) {
        Ok(path) => println!("{}: spans written to {}", wl.name, path.display()),
        Err(problem) => result.problem(problem),
    }

    // 3. Contention and the layers off the request path.
    let waits = contention(
        &config,
        policy,
        wl,
        Duration::from_secs_f64(CONTENTION_SHARE * seconds),
    )?;
    result.set("tap.wait_ms", waits.tap_wait_ms);
    result.set("tap.short_draws", waits.short_draws as f64);
    result.set("expanded.draw_us", waits.draw_us);
    result.set("expanded.lock_wait_us", waits.draw_us - waits.generate_us);
    result.set("expanded.reseed_ms", waits.reseed_ms);
    result.set("sn.sweep_us", sn_sweep_us(&config)?);
    result.set("sn.sweeps_per_mb", sweeps_per_mb(&config, &main, &probe));
    result.set("sha256.ns_per_block", sha256_ns_per_block());
    Ok(result)
}

/// The engine configuration and DRBG policy `ptrng-serve` builds from the
/// deployment flags, parsed by the server's own flag parsers.
fn deployment_config(seed: u64) -> Result<(EngineConfig, DrbgPolicy), String> {
    let seed = seed.to_string();
    let argv: Vec<String> = DEPLOYMENT
        .iter()
        .copied()
        .chain(["--seed", seed.as_str()])
        .map(str::to_string)
        .collect();
    let mut engine = EngineArgs::default();
    let mut drbg = DrbgArgs::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--threads" {
            // A serving flag: HTTP worker threads do not change the engine.
            it.next();
            continue;
        }
        if !engine.accept(flag, &mut it)? && !drbg.accept(flag, &mut it)? {
            return Err(format!(
                "deployment flag {flag} is neither an engine nor a DRBG flag"
            ));
        }
    }
    let policy = drbg.policy().ok_or("the deployment enables --drbg")?;
    Ok((engine.engine_config()?, policy))
}

/// Reads a layer from the workload's own replay when the workload calls it,
/// else from the probe mix.
fn pick<'a>(span: &str, sides: [(&'a Replay, &'a Budget); 2]) -> (&'a Replay, &'a Budget) {
    if calls(sides[0].1, span) > 0.0 {
        sides[0]
    } else {
        sides[1]
    }
}

fn layer_metrics(result: &mut RunResult, main: &Replay, probe: &Replay) {
    let (main_budget, probe_budget) = (main.tracer.budget(), probe.tracer.budget());
    let sides = [(main, &main_budget), (probe, &probe_budget)];

    let (replay, budget) = pick("ero.fill", sides);
    let pipe = &replay.pipe;
    let raw_bits = pipe.raw_bits as f64;
    result.set("ero.ns_per_bit", self_ns(budget, "ero.fill") / raw_bits);
    result.set("ero.bits_per_byte", raw_bits / pipe.packed_bytes as f64);
    result.set(
        "health.ns_per_bit",
        (self_ns(budget, "health.raw") + self_ns(budget, "health.output")) / raw_bits,
    );
    result.set(
        "cond.sha256_ns_per_bit",
        replay.stage_ns() as f64 / raw_bits,
    );
    result.set("cond.rate", pipe.conditioned_bits as f64 / raw_bits);
    result.set(
        "stream.pack_ns_per_byte",
        self_ns(budget, "stream.pack") / pipe.packed_bytes as f64,
    );
    result.set(
        "health.startup_ms",
        main.pipe.startup_battery.as_secs_f64() * 1e3,
    );

    let (replay, budget) = pick("audit.window", sides);
    let windows = replay.counts.windows as f64;
    let unit_ms = |names: &[&str]| {
        let ns: u64 = names
            .iter()
            .map(|name| replay.counts.unit_ns.get(*name).copied().unwrap_or(0))
            .sum();
        ns as f64 / windows / 1e6
    };
    result.set(
        "audit.window_ms",
        self_ns(budget, "audit.window") / windows / 1e6,
    );
    result.set("ais.compression_ms", unit_ms(&["compression"]));
    result.set("ais.t-tuple_lrs_ms", unit_ms(&["t-tuple+lrs"]));
    result.set("ais.lag_ms", unit_ms(&["lag"]));
    result.set("ais.multi-mcw_ms", unit_ms(&["multi-mcw"]));
    result.set("ais.counters_ms", unit_ms(&["mcv", "collision", "markov"]));
    result.set("audit.overclaims", replay.counts.overclaims as f64);

    let (replay, budget) = pick("drbg.generate", sides);
    result.set(
        "drbg.ns_per_byte",
        self_ns(budget, "drbg.generate") / replay.counts.drbg_bytes as f64,
    );
    result.set(
        "drbg.generates_per_req",
        main.counts.generates as f64 / main.counts.requests as f64,
    );
    let blocks = CONDITIONER_BLOCKS_PER_DIGEST * main.pipe.conditioned_bits as f64
        / DIGEST_BITS as f64
        + main.counts.generate_blocks as f64;
    result.set(
        "sha256.blocks_per_mb",
        blocks / (main.counts.good_bytes as f64 / 1e6),
    );

    let (_, budget) = pick("http.parse", sides);
    result.set(
        "http.parse_us",
        self_ns(budget, "http.parse") / calls(budget, "http.parse") / 1e3,
    );
    let (_, budget) = pick("http.head", sides);
    result.set(
        "http.head_us",
        self_ns(budget, "http.head") / calls(budget, "http.head") / 1e3,
    );
    let (replay, budget) = pick("http.frame", sides);
    result.set(
        "http.frame_ns_per_kib",
        self_ns(budget, "http.frame") / (replay.counts.framed_bytes as f64 / 1024.0),
    );
}

/// `σ²_N` sweeps per MB of output: the shard worker sweeps once every
/// `thermal_check_batches` batches, and only with a thermal test configured
/// (this deployment configures none).
fn sweeps_per_mb(config: &EngineConfig, main: &Replay, probe: &Replay) -> f64 {
    if config.health.thermal.is_none() {
        return 0.0;
    }
    let pipe = if main.pipe.batches > 0 {
        &main.pipe
    } else {
        &probe.pipe
    };
    let bytes_per_batch = pipe.packed_bytes as f64 / pipe.batches as f64;
    1e6 / (config.thermal_check_batches as f64 * bytes_per_batch)
}

/// Prints the replay's budget, layer by layer.
fn print_budget(wl: &Workload, main: &Replay, wall: Duration, overhead: f64) {
    let wall_ns = wall.as_nanos() as f64;
    println!(
        "{}: replayed {} requests in {:.3} s (tracing overhead {overhead:.2} %)",
        wl.name,
        main.counts.requests,
        wall.as_secs_f64()
    );
    for (name, &(ns, count)) in &main.tracer.budget() {
        println!(
            "{}:   {name:<14} self {:>10.3} ms over {count:>8} calls = {:>6.2} % of wall",
            wl.name,
            ns as f64 / 1e6,
            ns as f64 / wall_ns * 100.0
        );
    }
}

/// Prints the live server's own histograms next to the replay's batch time.
fn cross_check(exposition: &str, main: &Replay) {
    for family in HISTOGRAM_FAMILIES {
        let count = prom_value(exposition, &format!("{family}_count")).unwrap_or(0.0);
        let sum_s = prom_value(exposition, &format!("{family}_sum")).unwrap_or(0.0);
        let mean_ms = if count > 0.0 {
            sum_s / count * 1e3
        } else {
            0.0
        };
        println!("cross-check {family}: {count:.0} observations, mean {mean_ms:.4} ms");
    }
    if main.pipe.batches > 0 {
        let budget = main.tracer.budget();
        // The server's batch histogram stops before packing.
        let batch_ns: f64 = ["ero.fill", "health.raw", "cond.process", "health.output"]
            .iter()
            .map(|name| self_ns(&budget, name))
            .sum();
        println!(
            "cross-check replayed batch (walk, health, conditioning): mean {:.4} ms",
            batch_ns / main.pipe.batches as f64 / 1e6
        );
    }
}

/// Writes every span as one JSON line to
/// `<target dir>/perfbench-spans/<workload>.jsonl`, next to the build output.
fn write_spans(wl: &Workload, tracer: &Tracer) -> Result<PathBuf, String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let dir = target.join("perfbench-spans");
    let path = dir.join(format!("{}.jsonl", wl.name));
    let failed = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    std::fs::create_dir_all(&dir).map_err(failed)?;
    let mut out = BufWriter::new(std::fs::File::create(&path).map_err(failed)?);
    for span in &tracer.spans {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
            span.name, span.start_ns, span.end_ns, span.request
        )
        .map_err(failed)?;
    }
    out.flush().map_err(failed)?;
    Ok(path)
}

/// Waits and lock contention under the workload's concurrency.
struct Contention {
    tap_wait_ms: f64,
    short_draws: u64,
    draw_us: f64,
    generate_us: f64,
    reseed_ms: f64,
}

/// Drawer threads on an in-process engine built from the deployment flags:
/// the tap with the workload's draw size and concurrency (two 4 KiB drawers
/// where the workload has no tap draws of its own), then the expansion tier
/// the same way, then a lone DRBG generate of the same size for the lock
/// wait, then forced reseeds.
fn contention(
    config: &EngineConfig,
    policy: DrbgPolicy,
    wl: &Workload,
    budget: Duration,
) -> Result<Contention, String> {
    const RESEEDS: u32 = 5;
    const GENERATES: usize = 200;
    let tap = Engine::spawn(config.clone())
        .map_err(|e| e.to_string())?
        .into_tap();
    let (tap_drawers, tap_bytes) = match wl.tier {
        Tier::Selftest => (1, WINDOW_BYTES),
        Tier::Entropy | Tier::Random => (2, 4096),
    };
    let expanded_bytes = match wl.tier {
        Tier::Random => usize::try_from(wl.bytes)
            .unwrap_or(CHUNK_BYTES)
            .min(CHUNK_BYTES),
        Tier::Entropy | Tier::Selftest => 4096,
    };
    // Past the startup battery before the clock starts.
    let mut warm = vec![0u8; 4096];
    if tap.draw(&mut warm) < warm.len() {
        return Err("the in-process engine ended during warm-up".to_string());
    }
    let (waits, short_draws) = timed_draws(tap_drawers, tap_bytes, budget / 2, |buf| {
        tap.draw(buf) == buf.len()
    });
    let expanded = ExpandedTap::new(tap.clone(), policy).map_err(|e| e.to_string())?;
    expanded.draw(&mut warm).map_err(|e| e.to_string())?;
    let (draws, failed) = timed_draws(2, expanded_bytes, budget / 2, |buf| {
        expanded.draw(buf).is_ok()
    });
    if failed > 0 {
        return Err(format!("{failed} expanded draws failed"));
    }
    let mut drbg = HashDrbg::instantiate(&[0x5a; 48], &[0xa5; 16], b"perfbench generate probe")
        .map_err(|e| e.to_string())?;
    let mut out = vec![0u8; expanded_bytes];
    let generates = draws.len().clamp(1, GENERATES);
    let start = Instant::now();
    for _ in 0..generates {
        drbg.generate(&mut out, &[]).map_err(|e| e.to_string())?;
        black_box(&out);
    }
    let generate_us = start.elapsed().as_secs_f64() * 1e6 / generates as f64;
    let start = Instant::now();
    for _ in 0..RESEEDS {
        expanded.reseed_now().map_err(|e| e.to_string())?;
    }
    let reseed_ms = start.elapsed().as_secs_f64() * 1e3 / f64::from(RESEEDS);
    expanded.shutdown().map_err(|e| e.to_string())?;
    Ok(Contention {
        tap_wait_ms: mean(&waits) * 1e3,
        short_draws,
        draw_us: mean(&draws) * 1e6,
        generate_us,
        reseed_ms,
    })
}

/// `drawers` threads each drawing `bytes` at a time until `budget` passes;
/// returns every draw's duration in seconds and how many came up short.
fn timed_draws(
    drawers: usize,
    bytes: usize,
    budget: Duration,
    draw: impl Fn(&mut [u8]) -> bool + Sync,
) -> (Vec<f64>, u64) {
    let deadline = Instant::now() + budget;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..drawers)
            .map(|_| {
                scope.spawn(|| {
                    let mut buf = vec![0u8; bytes];
                    let mut times = Vec::new();
                    let mut short = 0u64;
                    while Instant::now() < deadline {
                        let start = Instant::now();
                        if !draw(&mut buf) {
                            short += 1;
                        }
                        times.push(start.elapsed().as_secs_f64());
                    }
                    (times, short)
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut shorts = 0;
        for handle in handles {
            let (times, short) = handle.join().expect("drawer thread panicked");
            all.extend(times);
            shorts += short;
        }
        (all, shorts)
    })
}

/// One `σ²_N` counter sweep over the thermal test's depths, µs (the mean of
/// a few, on a source seeded apart from the replay's).
fn sn_sweep_us(config: &EngineConfig) -> Result<f64, String> {
    const SWEEPS: u32 = 3;
    let mut source = config
        .spec
        .build(derive_seed(config.seed, 1))
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    for _ in 0..SWEEPS {
        let sweep = source
            .sigma2_sweep(&THERMAL_SWEEP_DEPTHS)
            .map_err(|e| e.to_string())?;
        black_box(sweep);
    }
    Ok(start.elapsed().as_secs_f64() * 1e6 / f64::from(SWEEPS))
}

/// One SHA-256 block compression, ns.
fn sha256_ns_per_block() -> f64 {
    const BLOCKS: u32 = 50_000;
    let block = [0x5au8; BLOCK_BYTES];
    let mut state = INITIAL_STATE;
    let start = Instant::now();
    for _ in 0..BLOCKS {
        compress_block(&mut state, black_box(&block));
    }
    black_box(state);
    start.elapsed().as_secs_f64() * 1e9 / f64::from(BLOCKS)
}
