//! Shared command-line handling for `ptrngd` and `ptrng-serve`.
//!
//! Both front-ends configure the same engine, so the engine flags (`--shards`,
//! `--source`, `--conditioner`, `--min-h`, …) are parsed by one [`EngineArgs`] and
//! each mode layers its own flags on top: the streaming daemon adds `--budget`,
//! `--out` and `--stats`, the HTTP server adds `--listen`, `--threads`, `--rate`, ….
//! `ptrngd serve …` and `ptrng-serve …` are the same entry point ([`run_serve`]).

use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ptrng_engine::audit::{
    AuditCadence, AuditConfig, EntropyAudit, DEFAULT_AUDIT_MARGIN, DEFAULT_AUDIT_WINDOW_BITS,
    DEFAULT_EVERY_LANE_CADENCE,
};
use ptrng_engine::expanded::{DrbgPolicy, ExpandedTap};
use ptrng_engine::fault::FaultPlan;
use ptrng_engine::health::HealthConfig;
use ptrng_engine::pool::{ConditionerSpec, Engine, EngineConfig};
use ptrng_engine::source::SourceSpec;
use ptrng_engine::EngineError;
use ptrng_obs::{Journal, ObsClock, TextEncoder};

pub use ptrng_engine::fault::parse_size;

use crate::server::{RateLimit, ServeConfig, Server};

/// Usage text of the streaming mode (`ptrngd`).
pub const GENERATE_USAGE: &str = "\
ptrngd — sharded entropy generation daemon (simulated P-TRNG)

USAGE:
    ptrngd [OPTIONS]            stream entropy to stdout or --out
    ptrngd serve [OPTIONS]      serve entropy over HTTP (see `ptrngd serve --help`)
    ptrngd validate [OPTIONS]   audit the entropy ledger with the SP 800-90B
                                estimator battery (see `ptrngd validate --help`)

OPTIONS:
    --shards N          worker shards, one source each            [default: 4]
    --source SPEC       ero[:DIV[:PROFILE]] | xor:K[:DIV[:PROFILE]] |
                        model[:P_ONE] |
                        pool:CHILD+CHILD+... (mix ≥2 child specs) [default: ero:16]
                        PROFILE = strong | date14; xor:K (K ≥ 2, DIV default 8)
                        is the pool of K ero:DIV:PROFILE rings
    --fault PLAN        inject a deterministic fault into one pool child:
                        child=N,at=SIZE,kind=KIND[,for=SIZE][,ms=N][,p=F][,seed=N]
                        KIND = stuck | bias-drift | variance-collapse | stall |
                        intermittent | overclaim (requires --source pool:... or
                        xor:K)
    --budget SIZE       stop after SIZE output bytes (e.g. 4096, 512KiB, 1MiB, 2GiB);
                        omit to stream until interrupted
    --seed N            base seed; shard i derives its own        [default: 0]
    --batch-bits N      raw bits per batch per shard              [default: 8192]
    --conditioner C     conditioning chain: none, or comma-separated stages of
                        xor:K | vn | sha256[:RATIO]               [default: none]
    --min-h H           refuse emission when the accounted min-entropy per
                        conditioned output bit falls below H (0 < H <= 1)
    --no-startup        skip the FIPS 140-2 startup battery
    --min-entropy H     override the model-backed entropy claim used for the
                        SP 800-90B cutoffs (0 < H <= 1)
    --audit-every-lane  run the streaming SP 800-90B estimator audit on every
                        shard's raw and conditioned lanes (and every pool child)
                        instead of shard 0 only; the counting estimators run on
                        every window, the expensive ones every 64th (see
                        docs/operations.md for capacity planning)
    --drbg              expand the output through an SP 800-90A Hash_DRBG
                        (SHA-256) seeded from ledger-accounted conditioned
                        bytes; --budget then counts expanded output
    --reseed-bytes SIZE DRBG output allowance per seed (requires --drbg)
                                                              [default: 128MiB]
    --prediction-resistance
                        reseed the DRBG before every generate (requires --drbg)
    --out PATH          write bytes to PATH instead of stdout
    --stats             print per-shard metrics, the output entropy ledger
                        (canonical JSON) and the latency-histogram families
                        (Prometheus text) to stderr
    --journal PATH      append observability records (alarm postmortems) to PATH
                        as JSONL, one self-contained object per line
    --help              show this help
";

/// Usage text of the serving mode (`ptrng-serve` / `ptrngd serve`).
pub const SERVE_USAGE: &str = "\
ptrng-serve — entropy-as-a-service over HTTP/1.1 (same engine as ptrngd)

USAGE:
    ptrng-serve [OPTIONS]

ENDPOINTS:
    GET /entropy?bytes=N   stream N conditioned bytes (chunked), with the accounted
                           entropy ledger in X-PTRNG-MinEntropy / X-PTRNG-Ledger;
                           503 + ledger JSON when the accounted entropy misses
                           --min-h, 429 under the per-client rate limit
    GET /random?bytes=N    stream N DRBG-expanded bytes (requires --drbg): an
                           SP 800-90A Hash_DRBG seeded and reseeded from
                           ledger-accounted conditioned output, X-PTRNG-Tier:
                           drbg-sha256; 503 + ledger JSON when a due reseed
                           cannot be funded, 404 when the tier is disabled;
                           rate-limited in a bucket separate from /entropy
    GET /healthz           shard/alarm state (RCT, APT, thermal, startup battery)
                           plus recent alarm postmortems
    GET /metrics           Prometheus text exposition, including the latency
                           histograms (batch, conditioning stage, audit battery,
                           tap wait, HTTP request) and the ptrng_drbg_* families
                           when --drbg is active
    GET /selftest          draw one window of conditioned output, run the
                           SP 800-90B estimator battery over it and compare the
                           assessment against the ledger claim (reports the
                           per-estimator timings)
    GET /debug/trace       flight-recorder timeline and alarm postmortems as
                           JSONL (rate-limited like a small draw)

OPTIONS (in addition to every engine flag of ptrngd except --budget/--out/--stats;
that includes --source pool:CHILD+CHILD+... and the --fault drill flag):
    --listen ADDR       bind address                              [default: 127.0.0.1:7878]
    --threads N         HTTP worker threads                       [default: 4]
    --max-request SIZE  per-request cap on ?bytes=N               [default: 4MiB]
    --rate BYTES_S      per-client sustained rate limit in bytes/second;
                        omit for unlimited
    --burst SIZE        per-client burst capacity; requires --rate [default: 4x --rate]
    --chunk SIZE        chunked-transfer draw granularity         [default: 64KiB]
    --max-conns N       hard cap on simultaneously open connections; excess
                        accepts are refused with 503              [default: 1024]
    --per-ip-conns N    per-client cap on concurrent connections; excess accepts
                        are refused with 429; 0 disables the gate [default: 0]
    --header-timeout S  seconds a connection may take to deliver a complete
                        request head before it is dropped (the slow-loris guard)
                                                                  [default: 5]
    --idle-timeout S    seconds an idle keep-alive connection is retained before
                        it is reaped                              [default: 5]
    --write-timeout S   seconds a response write may stall (the peer not reading)
                        before the connection is dropped          [default: 10]
    --drbg              enable the /random DRBG expansion tier
    --reseed-bytes SIZE DRBG output allowance per seed (requires --drbg)
                                                                  [default: 128MiB]
    --prediction-resistance
                        reseed the DRBG before every generate (requires --drbg)
    --journal PATH      append observability records (alarm postmortems) to PATH
                        as JSONL, one self-contained object per line
    --help              show this help

SIGNALS:
    SIGTERM/SIGINT trigger a graceful shutdown: in-flight responses complete,
    the engine is drained, then the process exits 0.
";

/// Usage text of the ledger-audit mode (`ptrngd validate`).
pub const VALIDATE_USAGE: &str = "\
ptrngd validate — audit the entropy ledger with the SP 800-90B §6.3 battery

Draws conditioned output from the configured engine, runs the non-IID estimator
battery over it, and compares the battery's assessed min-entropy against the
claim.  The claim defaults to the engine's own ledger (the dependent-jitter-aware
model bound); pass --claim (or --min-h) to audit an asserted value instead —
e.g. the naive independence-assuming bound the paper warns about.  Unlike the
other modes, --min-h is audited, not enforced: the engine always spawns, so the
report shows *how far off* an inflated claim is.

USAGE:
    ptrngd validate [OPTIONS]

OPTIONS (in addition to every engine flag of ptrngd except --budget/--out/--stats):
    --audit-bits N      bits per audited window             [default: 131072]
    --windows W         windows to audit                    [default: 1]
    --margin M          tolerated shortfall of the battery estimate below the
                        claim (absorbs the estimators' known finite-sample
                        conservatism; see docs/validation.md)  [default: 0.35]
    --claim H           audit against this claim instead of the ledger's
    --help              show this help

OUTPUT:
    A JSON report on stdout mirroring the ledger format: the audited claim, the
    battery estimate with every estimator's result, and the engine's ledger.

EXIT CODES:
    0  battery estimate ≥ claim − margin for every window
    1  usage or configuration error
    2  a health alarm terminated generation before the audit completed
    3  overclaim: the battery refuted the claim on at least one window
";

/// The engine flags shared by every front-end.
#[derive(Debug, Clone)]
pub struct EngineArgs {
    /// Worker shard count.
    pub shards: usize,
    /// Source specification text (parsed by [`SourceSpec::parse`]).
    pub source: String,
    /// Base seed.
    pub seed: u64,
    /// Raw bits per batch per shard.
    pub batch_bits: usize,
    /// Conditioning chain.
    pub conditioner: ConditionerSpec,
    /// Emission policy threshold.
    pub min_h: Option<f64>,
    /// Whether the FIPS startup battery runs.
    pub startup_battery: bool,
    /// Override of the entropy claim used for cutoff calibration.
    pub min_entropy: Option<f64>,
    /// Fault-injection plan text (parsed by [`FaultPlan::parse`]; pool sources only).
    pub fault: Option<String>,
    /// Audit every shard's raw and conditioned lanes (and every pool child)
    /// instead of shard 0 only.
    pub audit_every_lane: bool,
}

impl Default for EngineArgs {
    fn default() -> Self {
        Self {
            shards: 4,
            source: "ero:16".to_string(),
            seed: 0,
            batch_bits: 8192,
            conditioner: ConditionerSpec::none(),
            min_h: None,
            startup_battery: true,
            min_entropy: None,
            fault: None,
            audit_every_lane: false,
        }
    }
}

fn flag_value(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .cloned()
        .ok_or_else(|| format!("{flag} needs a value"))
}

impl EngineArgs {
    /// Tries to consume one engine flag; returns whether it was recognized.
    ///
    /// # Errors
    ///
    /// Returns a usage message for malformed values.
    pub fn accept(
        &mut self,
        flag: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        match flag {
            "--shards" => {
                self.shards = flag_value(it, "--shards")?
                    .parse()
                    .map_err(|_| "invalid --shards".to_string())?;
            }
            "--source" => self.source = flag_value(it, "--source")?,
            "--fault" => self.fault = Some(flag_value(it, "--fault")?),
            "--seed" => {
                self.seed = flag_value(it, "--seed")?
                    .parse()
                    .map_err(|_| "invalid --seed".to_string())?;
            }
            "--batch-bits" => {
                self.batch_bits = flag_value(it, "--batch-bits")?
                    .parse()
                    .map_err(|_| "invalid --batch-bits".to_string())?;
            }
            "--conditioner" => {
                self.conditioner = ConditionerSpec::parse(&flag_value(it, "--conditioner")?)
                    .map_err(|e| e.to_string())?;
            }
            "--min-h" => {
                self.min_h = Some(
                    flag_value(it, "--min-h")?
                        .parse()
                        .map_err(|_| "invalid --min-h".to_string())?,
                );
            }
            "--no-startup" => self.startup_battery = false,
            "--audit-every-lane" => self.audit_every_lane = true,
            "--min-entropy" => {
                self.min_entropy = Some(
                    flag_value(it, "--min-entropy")?
                        .parse()
                        .map_err(|_| "invalid --min-entropy".to_string())?,
                );
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Builds the [`EngineConfig`] these flags describe (without a byte budget —
    /// the caller sets one when it streams a bounded amount).
    ///
    /// # Errors
    ///
    /// Returns a usage message when the source spec does not parse.
    pub fn engine_config(&self) -> Result<EngineConfig, String> {
        let spec = SourceSpec::parse(&self.source).map_err(|e| e.to_string())?;
        let fault = self
            .fault
            .as_deref()
            .map(FaultPlan::parse)
            .transpose()
            .map_err(|e| e.to_string())?;
        let mut health = HealthConfig::default();
        if !self.startup_battery {
            health = health.without_startup_battery();
        }
        if let Some(claim) = self.min_entropy {
            health = health.with_min_entropy(claim);
        }
        let mut config = EngineConfig::new(spec)
            .shards(self.shards)
            .seed(self.seed)
            .batch_bits(self.batch_bits)
            .conditioner(self.conditioner.clone())
            .min_output_entropy(self.min_h)
            .health(health)
            .fault(fault);
        if self.audit_every_lane {
            // Every lane pays for its own battery, so the expensive members run
            // on a sparse cadence: the counting members refresh every window and
            // the full battery runs every DEFAULT_EVERY_LANE_CADENCE windows.
            let audit = AuditConfig::default()
                .cadence(AuditCadence::EveryKWindows(DEFAULT_EVERY_LANE_CADENCE));
            config = config.audit(Some(audit)).audit_every_lane(true);
        }
        Ok(config)
    }
}

/// The DRBG expansion-tier flags shared by `ptrngd` and `ptrng-serve`.
#[derive(Debug, Clone, Default)]
pub struct DrbgArgs {
    /// Whether the expansion tier is enabled (`--drbg`).
    pub enabled: bool,
    /// Override of the per-seed output allowance (`--reseed-bytes`).
    pub reseed_bytes: Option<u64>,
    /// Reseed before every generate call (`--prediction-resistance`).
    pub prediction_resistance: bool,
}

impl DrbgArgs {
    /// Tries to consume one DRBG flag; returns whether it was recognized.
    ///
    /// # Errors
    ///
    /// Returns a usage message for malformed values.
    pub fn accept(
        &mut self,
        flag: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, String> {
        match flag {
            "--drbg" => self.enabled = true,
            "--reseed-bytes" => {
                self.reseed_bytes = Some(parse_size(&flag_value(it, "--reseed-bytes")?)?);
            }
            "--prediction-resistance" => self.prediction_resistance = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Rejects tuning flags given without `--drbg` — silently ignoring them
    /// would run without the policy the operator believes is in force.
    fn validate(&self) -> Result<(), String> {
        if !self.enabled && (self.reseed_bytes.is_some() || self.prediction_resistance) {
            return Err(
                "--reseed-bytes/--prediction-resistance require --drbg (no DRBG tier is \
                 active without it)"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// The policy these flags describe, when the tier is enabled.
    pub fn policy(&self) -> Option<DrbgPolicy> {
        self.enabled.then(|| {
            let mut policy = DrbgPolicy::default();
            if let Some(bytes) = self.reseed_bytes {
                policy.reseed_after_bytes = bytes;
            }
            policy.prediction_resistance = self.prediction_resistance;
            policy
        })
    }
}

#[derive(Debug)]
struct GenerateArgs {
    engine: EngineArgs,
    drbg: DrbgArgs,
    budget: Option<u64>,
    out: Option<String>,
    stats: bool,
    journal: Option<String>,
}

fn parse_generate(argv: &[String]) -> Result<Option<GenerateArgs>, String> {
    let mut args = GenerateArgs {
        engine: EngineArgs::default(),
        drbg: DrbgArgs::default(),
        budget: None,
        out: None,
        stats: false,
        journal: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--budget" => args.budget = Some(parse_size(&flag_value(&mut it, "--budget")?)?),
            "--out" => args.out = Some(flag_value(&mut it, "--out")?),
            "--stats" => args.stats = true,
            "--journal" => args.journal = Some(flag_value(&mut it, "--journal")?),
            other => {
                if !args.engine.accept(other, &mut it)? && !args.drbg.accept(other, &mut it)? {
                    return Err(format!("unknown argument `{other}` (try --help)"));
                }
            }
        }
    }
    args.drbg.validate()?;
    Ok(Some(args))
}

#[derive(Debug)]
struct ServeCliArgs {
    engine: EngineArgs,
    drbg: DrbgArgs,
    listen: String,
    threads: usize,
    max_request: u64,
    rate: Option<u64>,
    burst: Option<u64>,
    chunk: usize,
    max_conns: usize,
    per_ip_conns: usize,
    header_timeout: Option<Duration>,
    idle_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    journal: Option<String>,
}

/// Parses a `--*-timeout` value: positive seconds, fractions allowed.
fn parse_timeout_secs(flag: &str, value: &str) -> Result<Duration, String> {
    let secs: f64 = value
        .parse()
        .map_err(|_| format!("invalid {flag} (want seconds, e.g. 2 or 0.5)"))?;
    if !secs.is_finite() || secs <= 0.0 {
        return Err(format!("{flag} must be a positive number of seconds"));
    }
    Ok(Duration::from_secs_f64(secs))
}

fn parse_serve(argv: &[String]) -> Result<Option<ServeCliArgs>, String> {
    let mut args = ServeCliArgs {
        engine: EngineArgs::default(),
        drbg: DrbgArgs::default(),
        listen: "127.0.0.1:7878".to_string(),
        threads: 4,
        max_request: 4 << 20,
        rate: None,
        burst: None,
        chunk: 64 << 10,
        max_conns: 1024,
        per_ip_conns: 0,
        header_timeout: None,
        idle_timeout: None,
        write_timeout: None,
        journal: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--listen" => args.listen = flag_value(&mut it, "--listen")?,
            "--threads" => {
                args.threads = flag_value(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "invalid --threads".to_string())?;
            }
            "--max-request" => {
                args.max_request = parse_size(&flag_value(&mut it, "--max-request")?)?;
            }
            "--rate" => args.rate = Some(parse_size(&flag_value(&mut it, "--rate")?)?),
            "--burst" => args.burst = Some(parse_size(&flag_value(&mut it, "--burst")?)?),
            "--chunk" => {
                args.chunk = parse_size(&flag_value(&mut it, "--chunk")?)? as usize;
            }
            "--max-conns" => {
                args.max_conns = flag_value(&mut it, "--max-conns")?
                    .parse()
                    .map_err(|_| "invalid --max-conns".to_string())?;
            }
            "--per-ip-conns" => {
                args.per_ip_conns = flag_value(&mut it, "--per-ip-conns")?
                    .parse()
                    .map_err(|_| "invalid --per-ip-conns".to_string())?;
            }
            "--header-timeout" => {
                let value = flag_value(&mut it, "--header-timeout")?;
                args.header_timeout = Some(parse_timeout_secs("--header-timeout", &value)?);
            }
            "--idle-timeout" => {
                let value = flag_value(&mut it, "--idle-timeout")?;
                args.idle_timeout = Some(parse_timeout_secs("--idle-timeout", &value)?);
            }
            "--write-timeout" => {
                let value = flag_value(&mut it, "--write-timeout")?;
                args.write_timeout = Some(parse_timeout_secs("--write-timeout", &value)?);
            }
            "--journal" => args.journal = Some(flag_value(&mut it, "--journal")?),
            other => {
                if !args.engine.accept(other, &mut it)? && !args.drbg.accept(other, &mut it)? {
                    return Err(format!("unknown argument `{other}` (try --help)"));
                }
            }
        }
    }
    if args.burst.is_some() && args.rate.is_none() {
        // Silently ignoring the burst would run without any limit while the
        // operator believes one is in force.
        return Err("--burst requires --rate (no rate limiter is active without it)".to_string());
    }
    args.drbg.validate()?;
    Ok(Some(args))
}

impl ServeCliArgs {
    fn serve_config(&self) -> Result<ServeConfig, String> {
        let mut config = ServeConfig::new(self.engine.engine_config()?);
        config.listen = self.listen.clone();
        config.threads = self.threads;
        config.max_request_bytes = self.max_request;
        config.chunk_bytes = self.chunk;
        config.max_connections = self.max_conns;
        config.per_ip_connections = self.per_ip_conns;
        if let Some(header_timeout) = self.header_timeout {
            config.header_timeout = header_timeout;
        }
        if let Some(idle_timeout) = self.idle_timeout {
            config.idle_timeout = idle_timeout;
        }
        if let Some(write_timeout) = self.write_timeout {
            config.write_timeout = write_timeout;
        }
        config.rate_limit = self.rate.map(|bytes_per_sec| RateLimit {
            bytes_per_sec,
            burst_bytes: self.burst.unwrap_or(bytes_per_sec.saturating_mul(4)),
        });
        config.journal = open_journal(self.journal.as_deref())?;
        config.drbg = self.drbg.policy();
        Ok(config)
    }
}

/// Opens the `--journal` sink, when one was requested.
fn open_journal(path: Option<&str>) -> Result<Option<Arc<Journal>>, String> {
    match path {
        Some(path) => Journal::create(path, ObsClock::new())
            .map(|journal| Some(Arc::new(journal)))
            .map_err(|e| format!("cannot create journal `{path}`: {e}")),
        None => Ok(None),
    }
}

/// Streams DRBG-expanded bytes (`ptrngd --drbg`): the engine runs unbudgeted
/// and `--budget` counts *expanded* output — the seed economy, not the byte
/// budget, decides how much conditioned entropy is consumed.
fn run_generate_drbg(args: GenerateArgs, policy: DrbgPolicy) -> Result<u64, (u8, String)> {
    let config = args.engine.engine_config().map_err(|m| (1, m))?;
    let journal = open_journal(args.journal.as_deref()).map_err(|m| (1, m))?;
    let engine = Engine::spawn_with_journal(config, journal).map_err(|e| match e {
        EngineError::EntropyDeficit { ref ledger, .. } => {
            eprintln!("ptrngd: ledger {}", ledger.to_json());
            (2, e.to_string())
        }
        other => (1, other.to_string()),
    })?;
    let expanded = ExpandedTap::new(engine.into_tap(), policy).map_err(|e| (1, e.to_string()))?;

    let mut sink: Box<dyn Write> = match &args.out {
        Some(path) => Box::new(std::io::BufWriter::with_capacity(
            256 * 1024,
            std::fs::File::create(path).map_err(|e| (1, format!("cannot create `{path}`: {e}")))?,
        )),
        None => Box::new(std::io::BufWriter::with_capacity(
            256 * 1024,
            std::io::stdout().lock(),
        )),
    };
    let started = Instant::now();
    let mut buffer = vec![0u8; 64 << 10];
    let mut written = 0u64;
    loop {
        let want = match args.budget {
            Some(budget) => (budget - written).min(buffer.len() as u64) as usize,
            None => buffer.len(),
        };
        if want == 0 {
            break;
        }
        // An unfundable reseed is the same refusal as a spawn-time deficit
        // (exit 2 with the ledger on stderr), never silently degraded output.
        expanded.draw(&mut buffer[..want]).map_err(|e| match e {
            EngineError::EntropyDeficit { ref ledger, .. } => {
                eprintln!("ptrngd: ledger {}", ledger.to_json());
                (2, e.to_string())
            }
            other => (1, other.to_string()),
        })?;
        sink.write_all(&buffer[..want])
            .map_err(|e| (1, format!("write failed: {e}")))?;
        written += want as u64;
    }
    sink.flush()
        .map_err(|e| (1, format!("flush failed: {e}")))?;
    let elapsed = started.elapsed().as_secs_f64();

    if args.stats {
        let drbg = expanded.snapshot();
        eprintln!(
            "ptrngd: {written} drbg-expanded bytes in {elapsed:.2}s ({:.2} MiB/s), \
             {} generates, {} reseeds, {} accounted seed bits debited",
            written as f64 / elapsed.max(1e-9) / (1024.0 * 1024.0),
            drbg.generates,
            drbg.reseeds,
            drbg.seed_bits_debited,
        );
        eprintln!("ptrngd: ledger {}", expanded.tap().ledger().to_json());
        let mut enc = TextEncoder::new();
        expanded.tap().observatory().render_histograms(&mut enc);
        eprint!("{}", enc.finish());
    }
    expanded.shutdown().map_err(|e| (1, e.to_string()))?;
    Ok(written)
}

fn run_generate_inner(args: GenerateArgs) -> Result<u64, (u8, String)> {
    if let Some(policy) = args.drbg.policy() {
        return run_generate_drbg(args, policy);
    }
    let config = args
        .engine
        .engine_config()
        .map_err(|m| (1, m))?
        .budget_bytes(args.budget);

    // BufWriter matters here: batches are ~1 KiB and stdout is otherwise
    // line-buffered, which would flush on every 0x0A byte of random output.
    let mut sink: Box<dyn Write> = match &args.out {
        Some(path) => Box::new(std::io::BufWriter::with_capacity(
            256 * 1024,
            std::fs::File::create(path).map_err(|e| (1, format!("cannot create `{path}`: {e}")))?,
        )),
        None => Box::new(std::io::BufWriter::with_capacity(
            256 * 1024,
            std::io::stdout().lock(),
        )),
    };

    let journal = open_journal(args.journal.as_deref()).map_err(|m| (1, m))?;
    let started = Instant::now();
    // An entropy deficit is the emission-refusal path (exit 2, like an alarm): the
    // accounted ledger says the conditioned output would overclaim.  The canonical
    // ledger JSON goes to stderr so tooling can consume the refusal.
    let mut engine = Engine::spawn_with_journal(config, journal).map_err(|e| match e {
        EngineError::EntropyDeficit { ref ledger, .. } => {
            eprintln!("ptrngd: ledger {}", ledger.to_json());
            (2, e.to_string())
        }
        other => (1, other.to_string()),
    })?;
    let mut written = 0u64;
    let mut alarm: Option<String> = None;
    for batch in engine.stream_mut() {
        match batch {
            Ok(batch) => {
                sink.write_all(&batch.bytes)
                    .map_err(|e| (1, format!("write failed: {e}")))?;
                written += batch.bytes.len() as u64;
            }
            Err(e) => {
                alarm.get_or_insert(e.to_string());
            }
        }
    }
    sink.flush()
        .map_err(|e| (1, format!("flush failed: {e}")))?;
    let elapsed = started.elapsed().as_secs_f64();

    if args.stats {
        let snap = engine.metrics().snapshot();
        eprintln!(
            "ptrngd: {written} bytes in {elapsed:.2}s ({:.2} MiB/s), {} raw bits, {} batches, \
             {:.0} accounted entropy bits, {} alarms",
            written as f64 / elapsed.max(1e-9) / (1024.0 * 1024.0),
            snap.total_raw_bits,
            snap.total_batches,
            snap.total_accounted_entropy_bits,
            snap.alarms,
        );
        for shard in &snap.per_shard {
            eprintln!(
                "ptrngd:   shard {}: {} bytes, {} raw bits, {} batches, \
                 {:.6} accounted h/bit",
                shard.shard,
                shard.output_bytes,
                shard.raw_bits,
                shard.batches,
                shard.entropy_per_output_bit
            );
        }
        eprintln!("ptrngd: ledger {}", engine.output_ledger().to_json());
        // The latency-histogram families, in the same Prometheus text the server
        // exposes on /metrics (one encoder, one format).
        let mut enc = TextEncoder::new();
        engine.observatory().render_histograms(&mut enc);
        eprint!("{}", enc.finish());
    }
    engine.join().map_err(|e| (1, e.to_string()))?;
    match alarm {
        Some(reason) => Err((2, reason)),
        None => Ok(written),
    }
}

/// Entry point of the streaming mode (`ptrngd` without a subcommand).
pub fn run_generate(argv: &[String]) -> ExitCode {
    match parse_generate(argv) {
        Ok(None) => {
            print!("{GENERATE_USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Some(args)) => match run_generate_inner(args) {
            Ok(_) => ExitCode::SUCCESS,
            Err((code, message)) => {
                eprintln!("ptrngd: {message}");
                ExitCode::from(code)
            }
        },
        Err(message) => {
            eprintln!("ptrngd: {message}");
            eprintln!("{GENERATE_USAGE}");
            ExitCode::FAILURE
        }
    }
}

struct ValidateArgs {
    engine: EngineArgs,
    audit_bits: usize,
    windows: u64,
    margin: f64,
    claim: Option<f64>,
}

fn parse_validate(argv: &[String]) -> Result<Option<ValidateArgs>, String> {
    let mut args = ValidateArgs {
        engine: EngineArgs::default(),
        audit_bits: DEFAULT_AUDIT_WINDOW_BITS,
        windows: 1,
        margin: DEFAULT_AUDIT_MARGIN,
        claim: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--audit-bits" => {
                args.audit_bits = flag_value(&mut it, "--audit-bits")?
                    .parse()
                    .map_err(|_| "invalid --audit-bits".to_string())?;
            }
            "--windows" => {
                args.windows = flag_value(&mut it, "--windows")?
                    .parse()
                    .map_err(|_| "invalid --windows".to_string())?;
            }
            "--margin" => {
                args.margin = flag_value(&mut it, "--margin")?
                    .parse()
                    .map_err(|_| "invalid --margin".to_string())?;
            }
            "--claim" => {
                args.claim = Some(
                    flag_value(&mut it, "--claim")?
                        .parse()
                        .map_err(|_| "invalid --claim".to_string())?,
                );
            }
            other => {
                if !args.engine.accept(other, &mut it)? {
                    return Err(format!("unknown argument `{other}` (try --help)"));
                }
            }
        }
    }
    if args.windows == 0 {
        return Err("--windows must be at least 1".to_string());
    }
    Ok(Some(args))
}

fn run_validate_inner(args: ValidateArgs) -> Result<bool, (u8, String)> {
    // The audited claim: an explicit --claim, else an asserted --min-h, else the
    // engine's own ledger.  --min-h is deliberately *not* enforced at spawn here —
    // validate measures how far off a claim is instead of refusing up front.
    let asserted = args.claim.or(args.engine.min_h);
    let budget = (args.windows * args.audit_bits as u64).div_ceil(8);
    let config = args
        .engine
        .engine_config()
        .map_err(|m| (1, m))?
        .min_output_entropy(None)
        .budget_bytes(Some(budget));
    let mut engine = Engine::spawn(config).map_err(|e| (1, e.to_string()))?;
    let ledger = engine.output_ledger().clone();
    let audit_config = AuditConfig::default()
        .window_bits(args.audit_bits)
        .margin(args.margin)
        .claim(asserted);
    let mut audit = EntropyAudit::new("conditioned", ledger.min_entropy_per_bit(), audit_config)
        .map_err(|e| (1, e.to_string()))?;

    let mut alarm: Option<String> = None;
    for batch in engine.stream_mut() {
        match batch {
            Ok(batch) => {
                audit
                    .observe_bytes(&batch.bytes)
                    .map_err(|e| (1, e.to_string()))?;
            }
            Err(e) => {
                alarm.get_or_insert(e.to_string());
            }
        }
    }
    audit.finalize().map_err(|e| (1, e.to_string()))?;
    engine.join().map_err(|e| (1, e.to_string()))?;
    if let Some(reason) = alarm {
        return Err((2, reason));
    }
    if audit.windows() == 0 {
        return Err((
            2,
            "the stream ended before one audit window filled".to_string(),
        ));
    }

    // The machine-readable report mirrors the ledger's canonical JSON rendering:
    // the ledger object is embedded verbatim next to the audit verdict.
    let report = audit.report();
    let report_json = serde_json::to_string(&report).map_err(|e| (1, e.to_string()))?;
    println!(
        "{{\"overclaim\":{},\"audit\":{report_json},\"ledger\":{}}}",
        audit.overclaimed(),
        ledger.to_json()
    );
    let latest = audit.latest().expect("at least one window audited");
    eprintln!(
        "ptrngd validate: battery {:.4}/bit (weakest: {}) vs claim {:.4} − margin {:.2} \
         over {} window(s) of {} bits → {}",
        latest.estimate,
        latest.weakest,
        audit.claim(),
        args.margin,
        audit.windows(),
        args.audit_bits,
        if audit.overclaimed() {
            "OVERCLAIM"
        } else {
            "pass"
        }
    );
    Ok(audit.overclaimed())
}

/// Entry point of the ledger-audit mode (`ptrngd validate`).
///
/// Exit codes: 0 pass, 1 usage/configuration error, 2 health alarm, 3 overclaim.
pub fn run_validate(argv: &[String]) -> ExitCode {
    match parse_validate(argv) {
        Ok(None) => {
            print!("{VALIDATE_USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Some(args)) => match run_validate_inner(args) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(3),
            Err((code, message)) => {
                eprintln!("ptrngd validate: {message}");
                ExitCode::from(code)
            }
        },
        Err(message) => {
            eprintln!("ptrngd validate: {message}");
            eprintln!("{VALIDATE_USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// Entry point of the serving mode (`ptrng-serve`, or `ptrngd serve`).
pub fn run_serve(argv: &[String]) -> ExitCode {
    let args = match parse_serve(argv) {
        Ok(None) => {
            print!("{SERVE_USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Some(args)) => args,
        Err(message) => {
            eprintln!("ptrng-serve: {message}");
            eprintln!("{SERVE_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let drbg_enabled = args.drbg.enabled;
    let config = match args.serve_config() {
        Ok(config) => config,
        Err(message) => {
            eprintln!("ptrng-serve: {message}");
            return ExitCode::FAILURE;
        }
    };
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("ptrng-serve: {error}");
            return ExitCode::FAILURE;
        }
    };
    server.install_signal_handlers();
    match server.local_addr() {
        Ok(addr) => {
            if server.is_serving() {
                let tiers = if drbg_enabled {
                    "entropy, random, healthz, metrics"
                } else {
                    "entropy, healthz, metrics"
                };
                eprintln!("ptrng-serve: listening on http://{addr} ({tiers})");
            } else {
                eprintln!(
                    "ptrng-serve: listening on http://{addr} in REFUSING mode — the \
                     accounted entropy misses --min-h; /entropy answers 503 with the ledger"
                );
            }
        }
        Err(error) => eprintln!("ptrng-serve: listening (addr unavailable: {error})"),
    }
    match server.serve() {
        Ok(()) => {
            eprintln!("ptrng-serve: drained and shut down");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("ptrng-serve: {error}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn sizes_parse_with_binary_suffixes() {
        assert_eq!(parse_size("4096").unwrap(), 4096);
        assert_eq!(parse_size("64KiB").unwrap(), 64 << 10);
        assert_eq!(parse_size("1mib").unwrap(), 1 << 20);
        assert_eq!(parse_size("2GiB").unwrap(), 2 << 30);
        assert_eq!(parse_size("512b").unwrap(), 512);
        assert!(parse_size("not-a-size").is_err());
        assert!(parse_size("99999999999GiB").is_err(), "overflow must error");
    }

    #[test]
    fn generate_and_serve_share_the_engine_flags() {
        let generate = parse_generate(&argv(&[
            "--shards",
            "2",
            "--source",
            "model:0.5",
            "--conditioner",
            "sha256:2",
            "--min-h",
            "0.997",
            "--budget",
            "1KiB",
        ]))
        .unwrap()
        .unwrap();
        let serve = parse_serve(&argv(&[
            "--shards",
            "2",
            "--source",
            "model:0.5",
            "--conditioner",
            "sha256:2",
            "--min-h",
            "0.997",
            "--listen",
            "127.0.0.1:0",
        ]))
        .unwrap()
        .unwrap();
        // One parser, two front-ends: the resulting engine configs agree.
        let a = generate.engine.engine_config().unwrap();
        let b = serve.engine.engine_config().unwrap();
        assert_eq!(a, b);
        assert_eq!(generate.budget, Some(1024));
        assert_eq!(serve.listen, "127.0.0.1:0");
    }

    #[test]
    fn serve_flags_build_the_server_config() {
        let args = parse_serve(&argv(&[
            "--listen",
            "0.0.0.0:9000",
            "--threads",
            "8",
            "--max-request",
            "1MiB",
            "--rate",
            "256KiB",
            "--chunk",
            "16KiB",
            "--max-conns",
            "512",
            "--per-ip-conns",
            "8",
            "--header-timeout",
            "2.5",
            "--idle-timeout",
            "30",
            "--write-timeout",
            "7",
        ]))
        .unwrap()
        .unwrap();
        let config = args.serve_config().unwrap();
        assert_eq!(config.listen, "0.0.0.0:9000");
        assert_eq!(config.threads, 8);
        assert_eq!(config.max_request_bytes, 1 << 20);
        assert_eq!(config.chunk_bytes, 16 << 10);
        assert_eq!(config.max_connections, 512);
        assert_eq!(config.per_ip_connections, 8);
        assert_eq!(config.header_timeout, Duration::from_secs_f64(2.5));
        assert_eq!(config.idle_timeout, Duration::from_secs(30));
        assert_eq!(config.write_timeout, Duration::from_secs(7));
        let rate = config.rate_limit.unwrap();
        assert_eq!(rate.bytes_per_sec, 256 << 10);
        assert_eq!(rate.burst_bytes, (256 << 10) * 4, "burst defaults to 4x");
    }

    #[test]
    fn lifecycle_timeouts_default_off_and_reject_nonsense() {
        let args = parse_serve(&argv(&[])).unwrap().unwrap();
        let config = args.serve_config().unwrap();
        assert_eq!(config.max_connections, 1024);
        assert_eq!(config.per_ip_connections, 0, "per-IP gate off by default");
        assert_eq!(config.header_timeout, Duration::from_secs(5));
        assert_eq!(config.idle_timeout, Duration::from_secs(5));
        assert_eq!(config.write_timeout, Duration::from_secs(10));
        assert!(parse_serve(&argv(&["--header-timeout", "0"])).is_err());
        assert!(parse_serve(&argv(&["--write-timeout", "-1"])).is_err());
        assert!(parse_serve(&argv(&["--idle-timeout", "soon"])).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_with_usage_hints() {
        assert!(parse_generate(&argv(&["--bogus"])).is_err());
        assert!(parse_generate(&argv(&["--post", "vn"])).is_err());
        assert!(parse_serve(&argv(&["--budget", "1MiB"]))
            .unwrap_err()
            .contains("unknown argument"));
        assert!(parse_generate(&argv(&["--help"])).unwrap().is_none());
        assert!(parse_serve(&argv(&["--help"])).unwrap().is_none());
    }

    #[test]
    fn validate_flags_parse_and_share_the_engine_parser() {
        let args = parse_validate(&argv(&[
            "--source",
            "model:0.95",
            "--audit-bits",
            "32768",
            "--windows",
            "2",
            "--margin",
            "0.4",
            "--claim",
            "0.9",
            "--shards",
            "1",
        ]))
        .unwrap()
        .unwrap();
        assert_eq!(args.audit_bits, 32768);
        assert_eq!(args.windows, 2);
        assert!((args.margin - 0.4).abs() < 1e-15);
        assert_eq!(args.claim, Some(0.9));
        assert_eq!(args.engine.shards, 1);
        assert_eq!(args.engine.source, "model:0.95");

        // Defaults mirror the audit module's calibration.
        let defaults = parse_validate(&argv(&[])).unwrap().unwrap();
        assert_eq!(
            defaults.audit_bits,
            ptrng_engine::audit::DEFAULT_AUDIT_WINDOW_BITS
        );
        assert!((defaults.margin - DEFAULT_AUDIT_MARGIN).abs() < 1e-15);
        assert_eq!(defaults.claim, None);

        assert!(parse_validate(&argv(&["--windows", "0"])).is_err());
        assert!(parse_validate(&argv(&["--budget", "1MiB"])).is_err());
        assert!(parse_validate(&argv(&["--help"])).unwrap().is_none());
    }

    #[test]
    fn fault_flag_parses_a_plan_and_requires_a_pool_source() {
        let args = parse_generate(&argv(&[
            "--source",
            "pool:model:0.6+model:0.6+model:0.6",
            "--fault",
            "child=1,at=16KiB,kind=stall,ms=400",
        ]))
        .unwrap()
        .unwrap();
        let config = args.engine.engine_config().unwrap();
        let plan = config.fault.expect("plan survives into the config");
        assert_eq!(plan.child, 1);
        assert_eq!(plan.at_bytes, 16 << 10);

        // A malformed plan is a usage error at config-build time…
        let bad = parse_generate(&argv(&["--fault", "kind=stuck"]))
            .unwrap()
            .unwrap();
        assert!(bad.engine.engine_config().is_err());
        // …and a well-formed plan without a pool source is caught by config
        // validation before any worker thread starts.
        let no_pool = parse_generate(&argv(&["--fault", "child=0,kind=stuck"]))
            .unwrap()
            .unwrap();
        let config = no_pool.engine.engine_config().unwrap();
        let error = match Engine::spawn(config) {
            Err(error) => error,
            Ok(_) => panic!("a fault plan without a pool source must be rejected"),
        };
        assert!(error.to_string().contains("pool"));
    }

    #[test]
    fn audit_every_lane_flag_enables_a_sparse_cadence_audit() {
        let args = parse_generate(&argv(&["--audit-every-lane", "--source", "model:0.5"]))
            .unwrap()
            .unwrap();
        assert!(args.engine.audit_every_lane);
        let config = args.engine.engine_config().unwrap();
        assert!(config.audit_every_lane);
        let audit = config.audit.expect("the flag enables the engine audit");
        assert_eq!(audit.window_bits, DEFAULT_AUDIT_WINDOW_BITS);
        assert_eq!(
            audit.cadence,
            AuditCadence::EveryKWindows(DEFAULT_EVERY_LANE_CADENCE)
        );

        // The server front-end shares the flag through the same engine parser.
        let serve = parse_serve(&argv(&["--audit-every-lane"]))
            .unwrap()
            .unwrap();
        assert!(serve.engine.engine_config().unwrap().audit_every_lane);

        // Without the flag no audit is configured (the default engine is lean).
        let plain = parse_generate(&argv(&[])).unwrap().unwrap();
        assert!(plain.engine.engine_config().unwrap().audit.is_none());
    }

    #[test]
    fn drbg_flags_parse_into_a_policy_on_both_front_ends() {
        let serve = parse_serve(&argv(&[
            "--drbg",
            "--reseed-bytes",
            "1MiB",
            "--prediction-resistance",
        ]))
        .unwrap()
        .unwrap();
        let policy = serve.serve_config().unwrap().drbg.expect("tier enabled");
        assert_eq!(policy.reseed_after_bytes, 1 << 20);
        assert!(policy.prediction_resistance);
        assert_eq!(
            policy.seed_bits_accounted,
            DrbgPolicy::default().seed_bits_accounted
        );

        let generate = parse_generate(&argv(&["--drbg"])).unwrap().unwrap();
        let policy = generate.drbg.policy().expect("tier enabled");
        assert_eq!(policy, DrbgPolicy::default());

        // Without --drbg no tier is configured…
        let plain = parse_serve(&argv(&[])).unwrap().unwrap();
        assert!(plain.serve_config().unwrap().drbg.is_none());
        // …and tuning flags without it are usage errors, on both front-ends.
        assert!(parse_serve(&argv(&["--reseed-bytes", "1MiB"]))
            .unwrap_err()
            .contains("require --drbg"));
        assert!(parse_generate(&argv(&["--prediction-resistance"]))
            .unwrap_err()
            .contains("require --drbg"));
    }

    #[test]
    fn burst_without_rate_is_a_usage_error() {
        assert!(parse_serve(&argv(&["--burst", "4KiB"]))
            .unwrap_err()
            .contains("--burst requires --rate"));
        assert!(parse_serve(&argv(&["--rate", "1KiB", "--burst", "4KiB"])).is_ok());
    }
}
