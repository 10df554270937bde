//! The serving path of a request, replayed in-process through the public
//! calls `ptrng-serve` makes — request parsing, response heads, one shard's
//! worker loop in place of the tap, DRBG generate, chunk framing and the
//! audit battery — with a span around every call.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ptrng_engine::audit::{AuditConfig, EntropyAudit};
use ptrng_engine::health::{HealthMonitor, HealthState};
use ptrng_engine::pool::EngineConfig;
use ptrng_engine::source::{derive_seed, EntropySource};
use ptrng_engine::stream::BitPacker;
use ptrng_obs::{EventKind, LogLinearHistogram, Probe};
use ptrng_serve::http::{
    encode_chunk, encode_chunk_end, write_response, ChunkedWriter, Request, ResponseHead,
};
use ptrng_trng::conditioning::{ConditioningChain, EntropyLedger};
use ptrng_trng::drbg::HashDrbg;

use crate::workload::{self, Tier, Workload, WINDOW_BYTES};

/// `ptrng-serve`'s chunk size (`--chunk` default): the unit of tier draws.
pub const CHUNK_BYTES: usize = 64 << 10;

/// Requests one replay runs at most, whatever its time share.
const MAX_REPLAY_REQUESTS: u64 = 20_000;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// Self time (ns) and call count per span name.
pub type Budget = BTreeMap<&'static str, (u64, u64)>;

/// In-memory span recorder; a disabled one records nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn enter(&mut self, name: &'static str, request: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let closed = self.open.pop();
        assert_eq!(closed, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    fn span<T>(&mut self, name: &'static str, request: u64, call: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request);
        let out = call();
        self.exit(id);
        out
    }

    /// Each name's self time (its spans' time minus the time of their child
    /// spans) and call count.
    pub fn budget(&self) -> Budget {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut budget = Budget::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = budget.entry(span.name).or_insert((0, 0));
            entry.0 += (span.end_ns - span.start_ns).saturating_sub(children);
            entry.1 += 1;
        }
        budget
    }

    /// Durations of the spans called `name`, µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.end_ns - span.start_ns) as f64 / 1e3)
            .collect()
    }
}

/// Self time of the spans called `name`, ns.
pub fn self_ns(budget: &Budget, name: &str) -> f64 {
    budget.get(name).map_or(0.0, |&(ns, _)| ns as f64)
}

/// Number of spans called `name`.
pub fn calls(budget: &Budget, name: &str) -> f64 {
    budget.get(name).map_or(0.0, |&(_, count)| count as f64)
}

/// One shard's worker loop as `ShardWorker::generate` runs it in this
/// deployment (no thermal test, no engine audit, no byte budget), driven on
/// demand in place of the tap.
pub struct Pipeline {
    source: Box<dyn EntropySource>,
    monitor: HealthMonitor,
    chain: ConditioningChain,
    stage_ns: Arc<LogLinearHistogram>,
    packer: BitPacker,
    raw: Vec<u8>,
    conditioned: Vec<u8>,
    holdback: Vec<u8>,
    pending: Vec<u8>,
    /// The output-bit observation that settled the FIPS startup battery.
    pub startup_battery: Duration,
    pub batches: u64,
    pub raw_bits: u64,
    pub conditioned_bits: u64,
    pub packed_bytes: u64,
}

impl Pipeline {
    fn new(config: &EngineConfig) -> Result<(Self, EntropyLedger), String> {
        let source = config
            .spec
            .build(derive_seed(config.seed, 0))
            .map_err(|e| e.to_string())?;
        let raw_ledger = EntropyLedger::source(&source.label(), source.entropy_per_bit())
            .map_err(|e| e.to_string())?;
        let ledger = config
            .conditioner
            .ledger(&raw_ledger)
            .map_err(|e| e.to_string())?;
        let monitor = HealthMonitor::new(&config.health, &raw_ledger).map_err(|e| e.to_string())?;
        let mut chain = config.conditioner.build().map_err(|e| e.to_string())?;
        // Every stage times into one histogram: the deployment's chain is the
        // single sha256:2 stage.
        let stage_ns = Arc::new(LogLinearHistogram::new());
        let probes = chain
            .stage_labels()
            .iter()
            .map(|_| Probe::new(Arc::clone(&stage_ns), EventKind::StageApplied))
            .collect();
        chain.instrument(probes);
        let pipeline = Self {
            source,
            monitor,
            chain,
            stage_ns,
            packer: BitPacker::new(),
            raw: vec![0; config.batch_bits],
            conditioned: Vec::new(),
            holdback: Vec::new(),
            pending: Vec::new(),
            startup_battery: Duration::ZERO,
            batches: 0,
            raw_bits: 0,
            conditioned_bits: 0,
            packed_bytes: 0,
        };
        Ok((pipeline, ledger))
    }

    /// One batch: walk, raw-bit health tests, conditioning, output-bit
    /// health (the startup battery), packing.
    fn batch(&mut self, tracer: &mut Tracer, request: u64) -> Result<(), String> {
        tracer
            .span("ero.fill", request, || self.source.fill_bits(&mut self.raw))
            .map_err(|e| e.to_string())?;
        tracer
            .span("health.raw", request, || {
                self.monitor.observe_bits(&self.raw).map(|_| ())
            })
            .map_err(|e| e.to_string())?;
        check_alarm(&self.monitor)?;
        self.conditioned.clear();
        tracer
            .span("cond.process", request, || {
                self.chain.process(&self.raw, &mut self.conditioned)
            })
            .map_err(|e| e.to_string())?;
        let starting = matches!(self.monitor.state(), HealthState::Startup);
        let started = Instant::now();
        tracer
            .span("health.output", request, || {
                self.monitor
                    .observe_output_bits(&self.conditioned)
                    .map(|_| ())
            })
            .map_err(|e| e.to_string())?;
        if starting && !matches!(self.monitor.state(), HealthState::Startup) {
            self.startup_battery = started.elapsed();
        }
        check_alarm(&self.monitor)?;
        self.batches += 1;
        self.raw_bits += self.raw.len() as u64;
        self.conditioned_bits += self.conditioned.len() as u64;
        if matches!(self.monitor.state(), HealthState::Startup) {
            self.holdback.extend_from_slice(&self.conditioned);
            return Ok(());
        }
        let bytes = tracer.span("stream.pack", request, || {
            if !self.holdback.is_empty() {
                self.packer.push_bits(&self.holdback);
                self.holdback.clear();
            }
            self.packer.push_bits(&self.conditioned);
            self.packer.drain_bytes()
        });
        self.packed_bytes += bytes.len() as u64;
        self.pending.extend_from_slice(&bytes);
        Ok(())
    }

    /// `want` conditioned bytes, running batches as needed (the tap's part).
    fn take(&mut self, tracer: &mut Tracer, request: u64, want: usize) -> Result<Vec<u8>, String> {
        while self.pending.len() < want {
            self.batch(tracer, request)?;
        }
        Ok(self.pending.drain(..want).collect())
    }
}

fn check_alarm(monitor: &HealthMonitor) -> Result<(), String> {
    match monitor.state() {
        HealthState::Alarmed(reason) => Err(format!("health alarm in the replay: {reason}")),
        _ => Ok(()),
    }
}

/// Counts the replay takes where the work happens.
#[derive(Debug, Default)]
pub struct Counts {
    pub requests: u64,
    /// Body bytes, or audited window bytes for `/selftest`.
    pub good_bytes: u64,
    pub framed_bytes: u64,
    pub generates: u64,
    /// SHA-256 compressions the generates made (see [`generate_blocks`]).
    pub generate_blocks: u64,
    pub drbg_bytes: u64,
    pub windows: u64,
    pub overclaims: u64,
    /// Battery unit name to its summed time, ns.
    pub unit_ns: BTreeMap<String, u64>,
}

/// Requests replayed through one pipeline and one DRBG.
pub struct Replay {
    pub tracer: Tracer,
    pub pipe: Pipeline,
    /// Stage time recorded before the replay proper (startup and seeding).
    stage_base_ns: u64,
    drbg: HashDrbg,
    ledger: EntropyLedger,
    pub counts: Counts,
}

impl Replay {
    fn new(config: &EngineConfig, traced: bool) -> Result<Self, String> {
        let (mut pipe, ledger) = Pipeline::new(config)?;
        // Fund the DRBG from the pipeline like the expansion tier funds its
        // first seed; the startup battery passes on the way.
        let mut quiet = Tracer::new(false);
        let seed = pipe.take(&mut quiet, 0, 48)?;
        let nonce = pipe.take(&mut quiet, 0, 16)?;
        let drbg =
            HashDrbg::instantiate(&seed, &nonce, b"perfbench replay").map_err(|e| e.to_string())?;
        pipe.batches = 0;
        pipe.raw_bits = 0;
        pipe.conditioned_bits = 0;
        pipe.packed_bytes = 0;
        let stage_base_ns = pipe.stage_ns.sum();
        Ok(Self {
            tracer: Tracer::new(traced),
            pipe,
            stage_base_ns,
            drbg,
            ledger,
            counts: Counts::default(),
        })
    }

    /// Conditioning-stage time of the replay proper, ns (timed by the
    /// chain's own per-stage instrumentation).
    pub fn stage_ns(&self) -> u64 {
        self.pipe.stage_ns.sum().saturating_sub(self.stage_base_ns)
    }

    /// Replays `wl`'s request until `budget` has passed (at least three
    /// requests, at most [`MAX_REPLAY_REQUESTS`]).
    pub fn run_for(
        config: &EngineConfig,
        wl: &Workload,
        budget: Duration,
        traced: bool,
    ) -> Result<(Self, Duration), String> {
        let mut replay = Self::new(config, traced)?;
        let request = wl.request();
        let start = Instant::now();
        while replay.counts.requests < 3
            || (start.elapsed() < budget && replay.counts.requests < MAX_REPLAY_REQUESTS)
        {
            replay.request(wl, &request)?;
        }
        Ok((replay, start.elapsed()))
    }

    /// Replays `requests` of `wl`'s requests without spans.
    pub fn run_count(
        config: &EngineConfig,
        wl: &Workload,
        requests: u64,
    ) -> Result<(Self, Duration), String> {
        let mut replay = Self::new(config, false)?;
        let request = wl.request();
        let start = Instant::now();
        for _ in 0..requests {
            replay.request(wl, &request)?;
        }
        Ok((replay, start.elapsed()))
    }

    /// The probe mix for layers a workload leaves idle: one `/selftest`, four
    /// small `/entropy`, sixteen small `/random` and one bulk `/random`.
    pub fn probe_mix(config: &EngineConfig) -> Result<Self, String> {
        let mut replay = Self::new(config, true)?;
        let mix = [
            ("selftest", 1),
            ("entropy", 4),
            ("random-small", 16),
            ("random-bulk", 1),
        ];
        for (name, count) in mix {
            let wl = workload::by_name(name)?;
            let request = wl.request();
            for _ in 0..count {
                replay.request(wl, &request)?;
            }
        }
        Ok(replay)
    }

    /// One request through the calls `ptrng-serve`'s handler and pump make.
    fn request(&mut self, wl: &Workload, request: &[u8]) -> Result<(), String> {
        let Self {
            tracer,
            pipe,
            drbg,
            ledger,
            counts,
            ..
        } = self;
        let id = counts.requests;
        let root = tracer.enter("request", id);
        let parsed = tracer
            .span("http.parse", id, || Request::parse_head(request))
            .map_err(|e| e.to_string())?
            .ok_or("the replayed request head is incomplete")?;
        black_box(&parsed);
        let bytes = usize::try_from(wl.bytes).map_err(|_| "request size overflows usize")?;
        match wl.tier {
            Tier::Entropy => {
                let mut out = tracer.span("http.head", id, || {
                    chunked_head(ledger, "full-entropy", true)
                });
                let body = pipe.take(tracer, id, bytes)?;
                tracer.span("http.frame", id, || {
                    encode_chunk(&mut out, &body);
                    encode_chunk_end(&mut out);
                });
                black_box(&out);
                counts.framed_bytes += bytes as u64;
                counts.good_bytes += bytes as u64;
            }
            Tier::Random => {
                let mut out = tracer.span("http.head", id, || {
                    chunked_head(ledger, "drbg-sha256", false)
                });
                let mut chunk = vec![0u8; bytes.min(CHUNK_BYTES)];
                let mut left = bytes;
                while left > 0 {
                    let n = left.min(CHUNK_BYTES);
                    tracer
                        .span("drbg.generate", id, || drbg.generate(&mut chunk[..n], &[]))
                        .map_err(|e| e.to_string())?;
                    counts.generates += 1;
                    counts.generate_blocks += generate_blocks(n);
                    counts.drbg_bytes += n as u64;
                    left -= n;
                    tracer.span("http.frame", id, || {
                        encode_chunk(&mut out, &chunk[..n]);
                        if left == 0 {
                            encode_chunk_end(&mut out);
                        }
                    });
                    // Each pump hands its frames to the event loop; the buffer is reused.
                    black_box(&out);
                    out.clear();
                }
                counts.framed_bytes += bytes as u64;
                counts.good_bytes += bytes as u64;
            }
            Tier::Selftest => {
                let window = pipe.take(tracer, id, WINDOW_BYTES)?;
                let claim = ledger.min_entropy_per_bit();
                let audit =
                    tracer.span("audit.window", id, || -> Result<EntropyAudit, String> {
                        let config = AuditConfig::default().window_bits(WINDOW_BYTES * 8);
                        let mut audit = EntropyAudit::new("conditioned", claim, config)
                            .map_err(|e| e.to_string())?;
                        audit.observe_bytes(&window).map_err(|e| e.to_string())?;
                        audit.finalize().map_err(|e| e.to_string())?;
                        Ok(audit)
                    })?;
                counts.windows += 1;
                counts.overclaims += audit.overclaims();
                let timings = audit
                    .latest()
                    .map_or(&[][..], |window| window.timings.as_slice());
                for timing in timings {
                    *counts.unit_ns.entry(timing.name.clone()).or_default() += timing.ns;
                }
                let out = tracer.span("http.head", id, || {
                    let report =
                        serde_json::to_string(&audit.report()).expect("the report serializes");
                    let body = format!(
                        "{{\"overclaim\":{},\"audit\":{report},\"ledger\":{}}}",
                        audit.overclaimed(),
                        ledger.to_json()
                    );
                    let head = ResponseHead::new(200).header("Content-Type", "application/json");
                    let mut out = Vec::with_capacity(body.len() + 256);
                    write_response(&mut out, &head, body.as_bytes(), true, false)
                        .expect("buffer writes are infallible");
                    out
                });
                black_box(&out);
                counts.good_bytes += WINDOW_BYTES as u64;
            }
        }
        tracer.exit(root);
        counts.requests += 1;
        Ok(())
    }
}

/// The head a streamed tier renders before its body.
fn chunked_head(ledger: &EntropyLedger, tier: &str, min_entropy: bool) -> Vec<u8> {
    let mut head = ResponseHead::new(200)
        .header("Content-Type", "application/octet-stream")
        .header("X-PTRNG-Tier", tier);
    if min_entropy {
        head = head.header(
            "X-PTRNG-MinEntropy",
            format!("{:.6}", ledger.min_entropy_per_bit()),
        );
    }
    let head = head.header("X-PTRNG-Ledger", ledger.to_json());
    let mut out = Vec::with_capacity(512);
    ChunkedWriter::start(&mut out, &head, true).expect("buffer writes are infallible");
    out
}

/// SHA-256 compressions of one Hash_DRBG generate of `bytes`: one per
/// 32-byte Hashgen output block (`V` is 55 bytes, one padded block) and two
/// for the 56-byte `Hash(0x03 || V)` of the state update.
fn generate_blocks(bytes: usize) -> u64 {
    bytes.div_ceil(32) as u64 + 2
}
