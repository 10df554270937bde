//! The entropy server: a nonblocking `poll(2)` event loop, a worker pool for
//! blocking draws and CPU-bound batteries, routing and the endpoint handlers.
//!
//! # Architecture
//!
//! ```text
//!                  ┌────────────────────────────── Server ──────────────────────────────┐
//!  SIGTERM ──────▶ │ poll(2) event loop (one thread, one pollfd per connection)         │
//!  (flag)          │   accept ─ read ─ parse head ─┐                ┌─ flush ─ keep-alive│
//!                  │   per-conn state machine:     │ Job queue      │   idle / reap      │
//!                  │   ReadingHead→Busy→Idle       ▼                │                    │
//!                  │                        worker pool (N threads) │                    │
//!                  │                        route ── draw ── frame  │                    │
//!                  │                               │                │                    │
//!                  │   ◀── wake pipe ── WorkDone {bytes, stream remainder} ─┘           │
//!                  │                               │                                    │
//!                  │             /entropy draws ──▶ EntropyTap (engine shards,          │
//!                  │             /random draws  ──▶ ExpandedTap  bounded channels)      │
//!                  └─────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! * **Connections are cheap, threads are spent wisely** — thousands of idle or
//!   slow connections cost one pollfd each; only requests actually drawing from
//!   the engine or running a battery occupy one of the `threads` workers.  The
//!   loop itself never blocks on the engine.
//! * **Backpressure, end to end** — a worker streams at most one pump budget
//!   (4 × `chunk_bytes`) per job, and the loop schedules the next pump only while
//!   the connection's output buffer sits below its high-water mark; when clients
//!   stop reading, pumping stops, the tap stops draining, and the shard workers
//!   park on their full queue.  Nothing buffers unboundedly anywhere on the path.
//! * **Time-domain defenses** — a head must arrive whole within the header
//!   deadline (slow-loris), responses must keep making write progress
//!   (stalled readers), idle keep-alive connections are reaped on the idle
//!   deadline, and per-IP concurrency is capped by the `ConnectionGate`
//!   underneath the byte-denominated [`RateLimiter`].
//! * **Entropy policy is the contract** — the accounted ledger travels in the
//!   `X-PTRNG-MinEntropy` / `X-PTRNG-Ledger` response headers; a configuration whose
//!   accounted entropy misses `min_output_entropy` starts in *refusing* mode and
//!   answers `/entropy`, `/random` and `/selftest` with HTTP 503 and the ledger
//!   JSON as the body, exactly the refusal `ptrngd` expresses with exit code 2.
//! * **Graceful shutdown** — SIGTERM (or [`ShutdownHandle::shutdown`]) stops the
//!   accept loop and closes idle connections; in-flight responses complete, worker
//!   threads are joined, and the engine is drained deterministically.

use std::collections::HashMap;
use std::io::{PipeReader, PipeWriter, Read, Write};
use std::net::{IpAddr, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ptrng_ais::estimators::MIN_BATTERY_BITS;
use ptrng_engine::audit::{AuditConfig, EntropyAudit, DEFAULT_AUDIT_WINDOW_BITS};
use ptrng_engine::expanded::{DrbgPolicy, ExpandedTap};
use ptrng_engine::metrics::{EngineMetrics, ShardAlarm};
use ptrng_engine::observatory::Observatory;
use ptrng_engine::pool::{Engine, EngineConfig};
use ptrng_engine::tap::EntropyTap;
use ptrng_engine::EngineError;
use ptrng_obs::probe::elapsed_ns;
use ptrng_obs::{
    Event, EventKind, FlightRecorder, Journal, LogLinearHistogram, MetricKind, ObsClock,
    Postmortem, Probe, TextEncoder, DEFAULT_TIME_BOUNDS_NS, RING_EVENTS,
};
use serde::{Serialize, Value};

use crate::conn::{ConnState, Connection, ReadOutcome, StreamBody, StreamTier, READ_BURST_BYTES};
use crate::event::{Poller, Readiness};
use crate::http::{
    encode_chunk, encode_chunk_end, write_response, ChunkedWriter, Request, ResponseHead,
};
use crate::limiter::{ConnectionGate, RateLimiter};
use crate::metrics::{render_prometheus_into, ServerMetrics};
use crate::{Result, ServeError};

/// Upper bound on one poll(2) wait: the loop re-checks the shutdown flag at
/// least this often even with nothing ready and no deadline near.
const LOOP_TICK: Duration = Duration::from_millis(25);

/// Maximum connections accepted per loop iteration, so one accept flood cannot
/// starve connections that are mid-request.
const ACCEPT_BURST: usize = 64;

/// `Retry-After` advice on the 503 entropy-deficit refusal: the deficit is a
/// configuration property, so it will not clear on its own — but an operator
/// redeploying with a fixed accounting is plausible on this horizon, and the
/// header keeps well-behaved clients from hot-polling a refusing server.
const DEFICIT_RETRY_AFTER_SECS: u64 = 30;

/// Per-client token-bucket parameters (see [`crate::limiter::RateLimiter`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateLimit {
    /// Sustained entropy budget per client, in bytes per second.
    pub bytes_per_sec: u64,
    /// Burst capacity per client, in bytes.
    pub burst_bytes: u64,
}

/// Configuration of the HTTP entropy server.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (port 0 binds an ephemeral port).
    pub listen: String,
    /// Worker threads running handlers (blocking draws, CPU-bound batteries).
    /// Concurrency of *connections* is bounded by `max_connections` instead.
    pub threads: usize,
    /// Hard cap on the `bytes` parameter of one `/entropy` request.
    pub max_request_bytes: u64,
    /// Optional per-client rate limit; `None` serves every request.
    pub rate_limit: Option<RateLimit>,
    /// Draw/write granularity of streamed entropy responses.
    pub chunk_bytes: usize,
    /// Requests served per connection before it is closed.
    pub keep_alive_requests: usize,
    /// Hard cap on concurrently open connections; excess accepts are answered
    /// with a best-effort 503 and closed immediately.
    pub max_connections: usize,
    /// Cap on concurrent connections per client IP (`0` disables); a client at
    /// its cap has further connections answered 429 and closed.
    pub per_ip_connections: usize,
    /// How long a connection may take to deliver one complete request head
    /// before it is reaped (the slow-loris guard).
    pub header_timeout: Duration,
    /// How long an idle keep-alive connection is retained between requests.
    pub idle_timeout: Duration,
    /// How long a response may go without write progress before the connection
    /// is reaped (the stalled-reader guard).
    pub write_timeout: Duration,
    /// The engine configuration to serve from (its `budget_bytes` should be `None`:
    /// a serving engine runs until shutdown).
    pub engine: EngineConfig,
    /// Optional JSONL journal sink (`--journal <path>`): the engine appends alarm
    /// postmortems to it as they are captured.
    pub journal: Option<Arc<Journal>>,
    /// Enables the `/random` DRBG expansion tier with this reseed policy
    /// (`--drbg`); `None` leaves the tier disabled and `/random` answers 404.
    pub drbg: Option<DrbgPolicy>,
}

impl ServeConfig {
    /// Defaults for the given engine: `127.0.0.1:7878`, 4 workers, 4 MiB request
    /// cap, no rate limit, 64 KiB chunks, 64 requests per connection, 5 s
    /// header/idle deadlines, 1024 connections, no per-IP cap, 10 s write-stall
    /// deadline.
    pub fn new(engine: EngineConfig) -> Self {
        Self {
            listen: "127.0.0.1:7878".to_string(),
            threads: 4,
            max_request_bytes: 4 << 20,
            rate_limit: None,
            chunk_bytes: 64 << 10,
            keep_alive_requests: 64,
            max_connections: 1024,
            per_ip_connections: 0,
            header_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(10),
            engine,
            journal: None,
            drbg: None,
        }
    }

    fn validate(&self) -> Result<()> {
        if self.threads == 0 {
            return Err(ServeError::Config("threads must be at least 1".into()));
        }
        if self.chunk_bytes == 0 {
            return Err(ServeError::Config("chunk_bytes must be at least 1".into()));
        }
        if self.keep_alive_requests == 0 {
            return Err(ServeError::Config(
                "keep_alive_requests must be at least 1".into(),
            ));
        }
        if self.max_connections == 0 {
            return Err(ServeError::Config(
                "max_connections must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// What the server is serving from: a live tap, or a refusal captured at spawn.
enum Supply {
    /// The engine spawned and its accounted entropy satisfies the policy.
    Serving(EntropyTap),
    /// The engine refused to spawn with an [`EngineError::EntropyDeficit`]: the
    /// draw endpoints and `/selftest` answer its canonical [`refusal`], while
    /// `/healthz` and `/metrics` report its accounted and required min-entropy.
    Refusing {
        deficit: EngineError,
        accounted: f64,
        required: f64,
    },
}

/// State shared between the event loop and the worker pool.
struct SharedState {
    supply: Supply,
    /// The `/random` expansion tier (`None`: disabled by config or refusing).
    expanded: Option<Arc<ExpandedTap>>,
    limiter: Option<RateLimiter>,
    /// Separate token bucket for the `/random` tier: expanded bytes are cheap,
    /// so a `/random` consumer must not drain the full-entropy budget of
    /// `/entropy` clients behind the same IP (and vice versa).
    drbg_limiter: Option<RateLimiter>,
    metrics: ServerMetrics,
    shutdown: Arc<AtomicBool>,
    max_request_bytes: u64,
    chunk_bytes: usize,
    shards: usize,
    /// The engine's observability surface (`None` in refusing mode — no engine ran).
    obs: Option<Arc<Observatory>>,
    /// HTTP-layer flight recorder, on the engine's clock when one is running.
    http_recorder: Arc<FlightRecorder>,
    /// Request-latency histogram + recorder binding for `HttpRequest` events.
    http_probe: Probe,
}

/// Cooperative shutdown trigger for a running [`Server`] (the programmatic
/// equivalent of SIGTERM; cloneable and safe to fire from any thread).
#[derive(Debug, Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Requests shutdown: accepting stops, idle connections close, in-flight
    /// responses complete, then [`Server::serve`] returns.
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Process-wide flag set by the signal handler (SIGTERM/SIGINT).
static SIGNALLED: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod signals {
    //! Minimal hand-rolled signal hookup: the container has no `libc`/`signal-hook`
    //! crate, and `std` exposes no signal API, so the two `signal(2)` registrations
    //! are declared directly.  The handler only performs an atomic store, which is
    //! async-signal-safe.  (The poll(2) declaration in [`crate::event`] follows the
    //! same discipline.)
    #![allow(unsafe_code)]

    use std::os::raw::c_int;
    use std::sync::atomic::Ordering;

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;

    extern "C" fn on_signal(_signum: c_int) {
        super::SIGNALLED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    }

    pub(super) fn install() {
        // SAFETY: `signal(2)` with a handler that is async-signal-safe (a single
        // atomic store, no allocation, no locks); replacing the default disposition
        // of SIGTERM/SIGINT is the entire point.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

/// A bound entropy server, ready to [`Server::serve`].
pub struct Server {
    listener: TcpListener,
    state: Arc<SharedState>,
    threads: usize,
    keep_alive_requests: usize,
    max_connections: usize,
    per_ip_connections: usize,
    header_timeout: Duration,
    idle_timeout: Duration,
    write_timeout: Duration,
}

impl Server {
    /// Spawns the engine and binds the listener.
    ///
    /// An [`EngineError::EntropyDeficit`] at spawn does **not** fail the bind: the
    /// server starts in *refusing* mode, answering the draw endpoints with HTTP
    /// 503 and the accounted ledger, and `/healthz` with `"refusing"` — an
    /// operator can then inspect the accounting over the wire instead of a dead
    /// port.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configurations, non-deficit engine spawn
    /// failures, and bind failures.
    pub fn bind(config: ServeConfig) -> Result<Self> {
        config.validate()?;
        let shards = config.engine.shards;
        let supply = match Engine::spawn_with_journal(config.engine.clone(), config.journal.clone())
        {
            Ok(engine) => Supply::Serving(engine.into_tap()),
            Err(
                deficit @ EngineError::EntropyDeficit {
                    accounted,
                    required,
                    ..
                },
            ) => Supply::Refusing {
                deficit,
                accounted,
                required,
            },
            Err(other) => return Err(other.into()),
        };
        let expanded = match (&supply, config.drbg) {
            (Supply::Serving(tap), Some(policy)) => {
                Some(Arc::new(ExpandedTap::new(tap.clone(), policy)?))
            }
            _ => None,
        };
        let build_limiter = || match config.rate_limit {
            Some(limit) => Ok(Some(
                RateLimiter::new(limit.bytes_per_sec, limit.burst_bytes)
                    .map_err(ServeError::Config)?,
            )),
            None => Ok::<_, ServeError>(None),
        };
        let limiter = build_limiter()?;
        let drbg_limiter = if expanded.is_some() {
            build_limiter()?
        } else {
            None
        };
        // The HTTP flight recorder shares the engine's clock when one is running so
        // request events interleave with shard events on /debug/trace; in refusing
        // mode there is no engine and the HTTP layer gets its own epoch.
        let obs = match &supply {
            Supply::Serving(tap) => Some(Arc::clone(tap.observatory())),
            Supply::Refusing { .. } => None,
        };
        let clock = obs.as_ref().map_or_else(ObsClock::new, |obs| obs.clock());
        let http_recorder = Arc::new(FlightRecorder::new(clock, RING_EVENTS));
        let http_probe = Probe::new(Arc::new(LogLinearHistogram::new()), EventKind::HttpRequest)
            .with_recorder(Arc::clone(&http_recorder), None);
        let listener = TcpListener::bind(&config.listen)?;
        Ok(Self {
            listener,
            state: Arc::new(SharedState {
                supply,
                expanded,
                limiter,
                drbg_limiter,
                metrics: ServerMetrics::new(),
                shutdown: Arc::new(AtomicBool::new(false)),
                max_request_bytes: config.max_request_bytes,
                chunk_bytes: config.chunk_bytes,
                shards,
                obs,
                http_recorder,
                http_probe,
            }),
            threads: config.threads,
            keep_alive_requests: config.keep_alive_requests,
            max_connections: config.max_connections,
            per_ip_connections: config.per_ip_connections,
            header_timeout: config.header_timeout,
            idle_timeout: config.idle_timeout,
            write_timeout: config.write_timeout,
        })
    }

    /// The bound socket address (resolves port 0 binds).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Whether the server is serving entropy (vs. refusing on a deficit).
    pub fn is_serving(&self) -> bool {
        matches!(self.state.supply, Supply::Serving(_))
    }

    /// A cloneable trigger that ends [`Server::serve`] gracefully.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.state.shutdown))
    }

    /// Registers SIGTERM/SIGINT handlers that trigger the same graceful shutdown as
    /// [`ShutdownHandle::shutdown`] (no-op on non-Unix targets).
    pub fn install_signal_handlers(&self) {
        #[cfg(unix)]
        signals::install();
    }

    /// Runs the event loop until shutdown, then drains: in-flight responses
    /// complete, workers are joined, and the engine is shut down.
    ///
    /// # Errors
    ///
    /// Returns an error when the listener or poller fails fatally or an engine
    /// worker panicked during drain.
    pub fn serve(self) -> Result<()> {
        self.listener.set_nonblocking(true)?;
        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (done_tx, done_rx) = channel::<WorkDone>();
        let (wake_rx, wake_tx) = std::io::pipe()?;
        let workers: Vec<_> = (0..self.threads)
            .map(|index| {
                let jobs = Arc::clone(&job_rx);
                let done = done_tx.clone();
                let state = Arc::clone(&self.state);
                let mut wake = wake_tx.try_clone()?;
                Ok(std::thread::Builder::new()
                    .name(format!("ptrng-serve-{index}"))
                    .spawn(move || worker_loop(&state, &jobs, &done, &mut wake))
                    .expect("worker thread spawns"))
            })
            .collect::<std::io::Result<_>>()?;
        // The loop holds the only job sender; workers hold the only done senders
        // and wake writers, so each channel closes exactly when its side exits.
        drop(done_tx);
        drop(wake_tx);

        let state = Arc::clone(&self.state);
        let mut event_loop = EventLoop {
            state: Arc::clone(&self.state),
            listener: self.listener,
            gate: ConnectionGate::new(self.per_ip_connections),
            conns: HashMap::new(),
            next_conn: 0,
            poller: Poller::new(),
            job_tx,
            done_rx,
            wake_rx,
            keep_alive_requests: self.keep_alive_requests,
            max_connections: self.max_connections,
            header_timeout: self.header_timeout,
            idle_timeout: self.idle_timeout,
            write_timeout: self.write_timeout,
            high_water: 4 * self.state.chunk_bytes,
            draining: false,
        };
        let outcome = event_loop.run();
        // Dropping the loop closes the listener (new connects are refused) and the
        // job queue (workers finish in-flight jobs, observe the closed queue, exit).
        drop(event_loop);
        for worker in workers {
            let _ = worker.join();
        }
        let drain = (|| -> Result<()> {
            if let Some(expanded) = &state.expanded {
                // Zeroizes the DRBG working state; the tap shutdown underneath is
                // idempotent with the one below (clones share the engine).
                expanded.shutdown()?;
            }
            if let Supply::Serving(tap) = &state.supply {
                tap.shutdown()?;
            }
            Ok(())
        })();
        outcome.and(drain)
    }
}

/// A handler's finished verdict: rendered head (+ inline body) bytes, the status
/// actually written, the keep-alive semantics the `Connection` header promised,
/// and the streamed remainder for chunked bodies.
struct Routed {
    bytes: Vec<u8>,
    status: u16,
    keep_alive: bool,
    stream: Option<StreamBody>,
}

/// Work the event loop hands to the pool.
enum Job {
    /// Route one parsed request (may block on the engine or burn CPU).
    Route {
        conn: u64,
        request: Request,
        peer: IpAddr,
        keep_alive: bool,
    },
    /// Draw and frame the next budget of a streaming body.
    Pump { conn: u64, body: StreamBody },
}

/// A worker's result, reported back to the loop over the done channel (with one
/// byte on the wake pipe so a sleeping poll notices).
struct WorkDone {
    conn: u64,
    /// Rendered bytes to queue on the connection.
    bytes: Vec<u8>,
    /// The unstreamed remainder, returned to the loop for pump scheduling.
    stream: Option<StreamBody>,
    /// Keep-alive as written in the response head (only meaningful with
    /// `status != 0`).
    keep_alive: bool,
    /// Status of a routed response; `0` marks a pump continuation, which must
    /// not clobber the connection's routed status or keep-alive verdict.
    status: u16,
    /// The supply died mid-stream: close without the terminating chunk so the
    /// client observes a truncated transfer, never short bytes.
    abort: bool,
}

fn worker_loop(
    state: &SharedState,
    jobs: &Mutex<Receiver<Job>>,
    done: &Sender<WorkDone>,
    wake: &mut PipeWriter,
) {
    loop {
        // The guard is held only for the blocking recv (the temporary drops at
        // the end of the statement), released before the job executes.
        let job = jobs.lock().expect("job queue lock poisoned").recv();
        let Ok(job) = job else { break };
        let result = match job {
            Job::Route {
                conn,
                request,
                peer,
                keep_alive,
            } => {
                let routed = route(state, &request, peer, keep_alive);
                WorkDone {
                    conn,
                    bytes: routed.bytes,
                    stream: routed.stream,
                    keep_alive: routed.keep_alive,
                    status: routed.status,
                    abort: false,
                }
            }
            Job::Pump { conn, body } => pump(state, conn, body),
        };
        if done.send(result).is_err() {
            break;
        }
        let _ = wake.write(&[1]);
    }
}

/// Draws and frames up to one budget (4 × `chunk_bytes`) of a streaming body.
///
/// Bounding the per-job budget keeps large draws fair: a 4 MiB `/entropy`
/// response is sixteen pump jobs interleaved with everyone else's work, not one
/// worker pinned for the stream's lifetime.  The 200 head is already out, so a
/// failed draw aborts: the loop flushes what was framed and closes without the
/// terminating chunk, and the client observes a truncated transfer, never
/// short bytes.
fn pump(state: &SharedState, conn: u64, body: StreamBody) -> WorkDone {
    let budget = 4 * state.chunk_bytes as u64;
    let mut out = Vec::with_capacity(budget.min(body.remaining) as usize + 64);
    let framed = frame(state, body, budget, &mut out);
    WorkDone {
        conn,
        bytes: out,
        abort: framed.is_err(),
        stream: framed.ok().flatten(),
        keep_alive: false,
        status: 0,
    }
}

/// Draws and frames up to `budget` bytes of `body` onto `out`, one
/// `chunk_bytes` chunk per draw, and appends the terminating chunk once the
/// body is complete.  Returns the remainder still to stream; on a failed draw,
/// `out` keeps the chunks framed before it.
fn frame(
    state: &SharedState,
    body: StreamBody,
    budget: u64,
    out: &mut Vec<u8>,
) -> std::result::Result<Option<StreamBody>, EngineError> {
    let budget = budget.min(body.remaining);
    let mut scratch = vec![0u8; state.chunk_bytes.min(budget as usize)];
    let mut framed = 0u64;
    while framed < budget {
        let want = (scratch.len() as u64).min(budget - framed) as usize;
        body.tier.draw(state, &mut scratch[..want])?;
        encode_chunk(out, &scratch[..want]);
        framed += want as u64;
    }
    let remaining = body.remaining - framed;
    if remaining == 0 {
        encode_chunk_end(out);
        return Ok(None);
    }
    Ok(Some(StreamBody { remaining, ..body }))
}

/// The poll(2) event loop: owns the listener, every accepted [`Connection`], and
/// both ends of the worker conversation (job sender, done receiver, wake pipe).
struct EventLoop {
    state: Arc<SharedState>,
    listener: TcpListener,
    gate: ConnectionGate,
    conns: HashMap<u64, Connection>,
    next_conn: u64,
    poller: Poller,
    job_tx: Sender<Job>,
    done_rx: Receiver<WorkDone>,
    wake_rx: PipeReader,
    keep_alive_requests: usize,
    max_connections: usize,
    header_timeout: Duration,
    idle_timeout: Duration,
    write_timeout: Duration,
    /// Pump scheduling stops while a connection's output buffer holds at least
    /// this much (the client is not reading fast enough — backpressure).
    high_water: usize,
    /// Shutdown observed: the listener is parked, idle connections are closed,
    /// and the loop ends once the map drains.
    draining: bool,
}

impl EventLoop {
    fn shutting(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst) || SIGNALLED.load(Ordering::SeqCst)
    }

    fn run(&mut self) -> Result<()> {
        loop {
            if self.shutting() && !self.draining {
                self.draining = true;
                // Close connections between requests; Busy ones finish first.
                let parked: Vec<u64> = self
                    .conns
                    .iter()
                    .filter(|(_, conn)| {
                        matches!(conn.state, ConnState::Idle | ConnState::ReadingHead)
                    })
                    .map(|(id, _)| *id)
                    .collect();
                for id in parked {
                    self.close_conn(id);
                }
            }
            if self.draining && self.conns.is_empty() {
                return Ok(());
            }

            let now = Instant::now();
            self.poller.clear();
            let listener_slot =
                (!self.draining).then(|| self.poller.push(self.listener.as_raw_fd(), true, false));
            let wake_slot = self.poller.push(self.wake_rx.as_raw_fd(), true, false);
            let mut conn_slots: Vec<(u64, usize)> = Vec::with_capacity(self.conns.len());
            for (id, conn) in &self.conns {
                // Busy connections pause reads (backpressure); a no-interest
                // pollfd still reports errors/hangups, which is how they learn
                // their peer died mid-response.
                let read = matches!(conn.state, ConnState::ReadingHead | ConnState::Idle);
                let write = conn.out_len() > 0;
                conn_slots.push((*id, self.poller.push(conn.stream.as_raw_fd(), read, write)));
            }
            self.poller.poll(self.poll_timeout(now))?;

            if self.poller.revents(wake_slot).readable {
                // Drain a batch of wake bytes; anything left re-reports readable.
                let mut sink = [0u8; 256];
                let _ = self.wake_rx.read(&mut sink);
            }
            let now = Instant::now();
            while let Ok(done) = self.done_rx.try_recv() {
                self.apply_done(done, now);
            }
            if let Some(slot) = listener_slot {
                if self.poller.revents(slot).readable {
                    self.accept_burst(now)?;
                }
            }
            // Service every connection: flush/parse/dispatch work is a no-op for
            // quiet ones, and the pass doubles as the deadline sweep.  Fresh
            // accepts (no slot) default to readable for their first read.
            let mut readiness: HashMap<u64, Readiness> = conn_slots
                .iter()
                .map(|(id, slot)| (*id, self.poller.revents(*slot)))
                .collect();
            let ids: Vec<u64> = self.conns.keys().copied().collect();
            for id in ids {
                let ready = readiness.remove(&id).unwrap_or(Readiness {
                    readable: true,
                    ..Readiness::default()
                });
                let Some(mut conn) = self.conns.remove(&id) else {
                    continue;
                };
                if self.service_conn(id, &mut conn, ready, now) {
                    self.conns.insert(id, conn);
                } else {
                    self.gate.release(conn.peer);
                }
            }
        }
    }

    /// Next poll timeout: the loop tick, shortened to the nearest reapable
    /// deadline (connections waiting on a worker are not reapable).
    fn poll_timeout(&self, now: Instant) -> Duration {
        let mut timeout = LOOP_TICK;
        for conn in self.conns.values() {
            if conn.pending_job {
                continue;
            }
            timeout = timeout.min(conn.deadline.saturating_duration_since(now));
        }
        timeout
    }

    fn close_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            self.gate.release(conn.peer);
        }
    }

    /// Applies one worker result to its connection (which may be gone: reaped
    /// or hung up while the worker ran — the result is then discarded).
    fn apply_done(&mut self, done: WorkDone, now: Instant) {
        let Some(conn) = self.conns.get_mut(&done.conn) else {
            return;
        };
        conn.pending_job = false;
        conn.deadline = now + self.write_timeout;
        if done.status != 0 {
            conn.status = done.status;
            conn.keep_alive_after = done.keep_alive;
        }
        conn.queue_output(&done.bytes);
        conn.stream_body = done.stream;
        if done.abort {
            // Flush what was drawn, then close: the missing terminator makes
            // the truncation visible to the client.
            conn.stream_body = None;
            conn.keep_alive_after = false;
        }
    }

    /// Accepts up to one burst of pending connections, applying the hard
    /// connection limit and the per-IP gate.
    fn accept_burst(&mut self, now: Instant) -> Result<()> {
        for _ in 0..ACCEPT_BURST {
            match self.listener.accept() {
                Ok((stream, peer_addr)) => {
                    let peer = peer_addr.ip();
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    if self.conns.len() >= self.max_connections {
                        refuse(
                            &self.state,
                            stream,
                            503,
                            "server busy",
                            "connection limit reached; retry shortly",
                        );
                        continue;
                    }
                    if !self.gate.try_register(peer) {
                        refuse(
                            &self.state,
                            stream,
                            429,
                            "too many connections",
                            "per-client concurrent connection cap reached",
                        );
                        continue;
                    }
                    let id = self.next_conn;
                    self.next_conn += 1;
                    self.conns
                        .insert(id, Connection::new(stream, peer, now + self.header_timeout));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::Interrupted
                            | std::io::ErrorKind::ConnectionAborted
                            | std::io::ErrorKind::ConnectionReset
                    ) =>
                {
                    continue
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Advances one connection's state machine; `false` closes it.
    fn service_conn(
        &mut self,
        id: u64,
        conn: &mut Connection,
        ready: Readiness,
        now: Instant,
    ) -> bool {
        if ready.hangup && !ready.readable {
            return false;
        }
        if matches!(conn.state, ConnState::Idle | ConnState::ReadingHead) && ready.readable {
            match conn.read_some() {
                ReadOutcome::Eof => return false,
                ReadOutcome::Data if conn.state == ConnState::Idle => {
                    conn.state = ConnState::ReadingHead;
                    conn.deadline = now + self.header_timeout;
                }
                ReadOutcome::Data | ReadOutcome::WouldBlock => {}
            }
        }
        loop {
            if conn.state == ConnState::ReadingHead && !conn.inbuf.is_empty() {
                match Request::parse_head(&conn.inbuf) {
                    Ok(Some((request, consumed))) => {
                        conn.inbuf.drain(..consumed);
                        self.state.metrics.record_request();
                        conn.request_started = Some(now);
                        conn.status = 0;
                        conn.state = ConnState::Busy;
                        conn.deadline = now + self.write_timeout;
                        conn.pending_job = true;
                        let keep_alive = !request.wants_close()
                            && conn.served + 1 < self.keep_alive_requests
                            && !self.shutting();
                        let job = Job::Route {
                            conn: id,
                            request,
                            peer: conn.peer,
                            keep_alive,
                        };
                        if self.job_tx.send(job).is_err() {
                            return false;
                        }
                    }
                    Ok(None) => {
                        if conn.inbuf.len() >= READ_BURST_BYTES {
                            // The buffer is full and still holds no complete
                            // head: it never will.
                            reject_request(
                                &self.state,
                                conn,
                                "request head too large",
                                now + self.write_timeout,
                            );
                        }
                    }
                    Err(error) => {
                        reject_request(
                            &self.state,
                            conn,
                            &error.to_string(),
                            now + self.write_timeout,
                        );
                    }
                }
            }
            if conn.out_len() > 0 {
                match conn.flush() {
                    Err(_) => return false,
                    Ok(progressed) => {
                        if progressed && conn.state == ConnState::Busy {
                            conn.deadline = now + self.write_timeout;
                        }
                    }
                }
            }
            if conn.state == ConnState::Busy
                && !conn.pending_job
                && conn.stream_body.is_some()
                && conn.out_len() < self.high_water
            {
                let body = conn.stream_body.take().expect("checked above");
                conn.pending_job = true;
                conn.deadline = now + self.write_timeout;
                if self.job_tx.send(Job::Pump { conn: id, body }).is_err() {
                    return false;
                }
            }
            if conn.state == ConnState::Busy
                && !conn.pending_job
                && conn.stream_body.is_none()
                && conn.out_len() == 0
                && conn.status != 0
            {
                // Response fully written: complete the request.
                if let Some(started) = conn.request_started.take() {
                    self.state
                        .http_probe
                        .record_tagged(elapsed_ns(started), u64::from(conn.status));
                }
                conn.served += 1;
                if !conn.keep_alive_after || self.shutting() {
                    return false;
                }
                conn.status = 0;
                if !conn.inbuf.is_empty() {
                    // A pipelined request is already buffered: parse it now.
                    conn.state = ConnState::ReadingHead;
                    conn.deadline = now + self.header_timeout;
                    continue;
                }
                conn.state = ConnState::Idle;
                conn.deadline = now + self.idle_timeout;
            }
            break;
        }
        // The deadline sweep: header, idle and write-stall deadlines all land
        // here.  Connections waiting on a worker are exempt (the job's draw may
        // legitimately block on the engine).
        now < conn.deadline || conn.pending_job
    }
}

/// Best-effort refusal of a connection the loop will not admit: one nonblocking
/// write of a rendered response, then the socket drops.
fn refuse(state: &SharedState, mut stream: TcpStream, status: u16, error: &str, detail: &str) {
    state.metrics.record_response(status);
    let body = error_body(error, detail);
    let head = ResponseHead::new(status)
        .header("Content-Type", "application/json")
        .header("Retry-After", "1");
    let mut bytes = Vec::with_capacity(body.len() + 128);
    write_response(&mut bytes, &head, body.as_bytes(), false, false)
        .expect("buffer writes are infallible");
    let _ = stream.write(&bytes);
}

/// Renders a local 400 (malformed or oversized head) straight onto the
/// connection — no worker round-trip, and the connection closes after the
/// flush: the parse position is unrecoverable.
fn reject_request(state: &SharedState, conn: &mut Connection, detail: &str, deadline: Instant) {
    state.metrics.record_response(400);
    let body = error_body("bad request", detail);
    let head = ResponseHead::new(400).header("Content-Type", "application/json");
    let mut bytes = Vec::with_capacity(body.len() + 128);
    write_response(&mut bytes, &head, body.as_bytes(), false, false)
        .expect("buffer writes are infallible");
    conn.queue_output(&bytes);
    conn.inbuf.clear();
    conn.state = ConnState::Busy;
    conn.status = 400;
    conn.keep_alive_after = false;
    conn.request_started = None;
    conn.deadline = deadline;
}

/// `/healthz` response body.
#[derive(Debug, Serialize)]
struct HealthzBody {
    /// `ok`, `degraded` (a terminal alarm with live shards remaining, or a pool
    /// child currently out of serving), `alarmed` (no live shards), or
    /// `refusing` (entropy deficit at spawn).  Non-terminal history (a pool
    /// child that quarantined and was since reinstated) does not stick: status
    /// reflects the current state, the alarm trail keeps the history.
    status: String,
    shards: usize,
    live_shards: usize,
    alarms: usize,
    alarm_reasons: Vec<ShardAlarm>,
    /// The currently accounted min-entropy per output bit (tracks pool
    /// quarantine; equals the static ledger claim for simple sources).
    min_entropy_per_bit: f64,
    required_min_entropy: Option<f64>,
    /// Per-child lifecycle of pool sources, one entry per (shard, child); empty
    /// for simple sources.
    pool_children: Vec<ptrng_engine::metrics::PoolChildSnapshot>,
    /// Recent alarm postmortems (bounded store, oldest first): the alarming
    /// shard's flight-recorder events plus the ledger in force at alarm time.
    postmortems: Vec<Postmortem>,
}

fn route(state: &SharedState, request: &Request, peer_ip: IpAddr, keep_alive: bool) -> Routed {
    let head_only = request.method == "HEAD";
    if request.method != "GET" && !head_only {
        let body = error_body("method not allowed", "only GET and HEAD are supported");
        return json_routed(state, 405, &body, keep_alive, false);
    }
    match request.path.as_str() {
        "/entropy" => draw(
            state,
            StreamTier::Entropy,
            request,
            peer_ip,
            keep_alive,
            head_only,
        ),
        "/random" => draw(
            state,
            StreamTier::Random,
            request,
            peer_ip,
            keep_alive,
            head_only,
        ),
        "/healthz" => healthz(state, keep_alive, head_only),
        "/metrics" => metrics(state, keep_alive, head_only),
        "/selftest" => selftest(state, request, peer_ip, keep_alive, head_only),
        "/debug/trace" => debug_trace(state, peer_ip, keep_alive, head_only),
        _ => {
            let body = error_body(
                "not found",
                "endpoints: /entropy?bytes=N, /random?bytes=N, /healthz, /metrics, /selftest, \
                 /debug/trace",
            );
            json_routed(state, 404, &body, keep_alive, head_only)
        }
    }
}

/// Nominal rate-limit cost of one `/debug/trace` dump, in bytes.  The trace draws
/// no entropy, but rendering the full event timeline is not free either, so it is
/// charged like a small draw to keep an unauthenticated polling loop from spinning.
const TRACE_COST_BYTES: u64 = 4096;

/// `GET /debug/trace` — the flight-recorder timeline and alarm postmortems as
/// JSONL: one `{"record":"event",…}` line per flight-recorder event (shards, tap
/// and HTTP layer merged in time order) followed by one
/// `{"record":"postmortem",…}` line per retained alarm postmortem.
fn debug_trace(state: &SharedState, peer_ip: IpAddr, keep_alive: bool, head_only: bool) -> Routed {
    let head = ResponseHead::new(200).header("Content-Type", "application/x-ndjson");
    // HEAD is a free probe on every endpoint: answered before the limiter.
    if head_only {
        return finish(state, &head, b"", keep_alive, true);
    }
    if let Some(limiter) = &state.limiter {
        if let Err(retry_secs) = limiter.try_acquire(peer_ip, TRACE_COST_BYTES, Instant::now()) {
            return rate_limited(state, "entropy", retry_secs, keep_alive);
        }
    }
    let mut events: Vec<Event> = state
        .obs
        .as_ref()
        .map(|obs| obs.events())
        .unwrap_or_default();
    events.extend(state.http_recorder.snapshot());
    events.sort_by_key(|event| event.t_ns);
    let mut body = String::with_capacity(events.len() * 96);
    for event in &events {
        if let Some(line) = jsonl_record("event", event) {
            body.push_str(&line);
            body.push('\n');
        }
    }
    let postmortems = state
        .obs
        .as_ref()
        .map(|obs| obs.postmortems().snapshot())
        .unwrap_or_default();
    for postmortem in &postmortems {
        if let Some(line) = jsonl_record("postmortem", postmortem) {
            body.push_str(&line);
            body.push('\n');
        }
    }
    finish(state, &head, body.as_bytes(), keep_alive, false)
}

/// Serializes `data` as one JSON object with a leading `"record":"<kind>"` field.
fn jsonl_record(kind: &str, data: &impl Serialize) -> Option<String> {
    let Value::Object(mut fields) = data.to_value() else {
        return None;
    };
    fields.insert(0, ("record".to_string(), Value::Str(kind.to_string())));
    serde_json::to_string(&Value::Object(fields)).ok()
}

/// Hard cap on one `/selftest` window.  The battery is CPU-bound: at the cap one
/// request draws 128 KiB of served output and runs about 0.2 s of battery on two
/// cores (0.6 s end to end with one shard on a 2-vCPU host), so a hostile client
/// cannot pin a worker for long.
const SELFTEST_MAX_BITS: usize = 1 << 20;

/// `GET /selftest[?bits=N&claim=H&margin=M]` — draws one window of conditioned
/// output from the engine, runs the SP 800-90B §6.3 estimator battery over it and
/// compares the assessment against the ledger claim (or an asserted `claim`).
///
/// Answers 200 with the audit report when the claim holds, 503 with the same body
/// on an overclaim, and the canonical [`refusal`] in refusing mode or when the
/// stream ends before the window fills, exactly like the draw endpoints.  Note
/// the drawn window **consumes** real entropy output — the self-test competes
/// with clients by design, since auditing a stream other than the served one
/// would prove nothing — and is therefore charged against the caller's
/// rate-limit budget like any other entropy draw (the battery is also
/// CPU-bound, so an unmetered loop would starve both the entropy supply and the
/// worker pool).  `HEAD` is the exception: it answers the contract headers
/// before the limiter and draws **nothing**, exactly like `HEAD /entropy` — a
/// probe must spend neither budget nor entropy.
fn selftest(
    state: &SharedState,
    request: &Request,
    peer_ip: IpAddr,
    keep_alive: bool,
    head_only: bool,
) -> Routed {
    let tap = match &state.supply {
        Supply::Serving(tap) => tap,
        Supply::Refusing { deficit, .. } => return refusal(state, deficit, keep_alive, head_only),
    };
    let parse_f64 = |name: &str| -> std::result::Result<Option<f64>, String> {
        match request.query_param(name).map(str::parse::<f64>) {
            None => Ok(None),
            Some(Ok(value)) => Ok(Some(value)),
            Some(Err(_)) => Err(format!("`{name}` must be a number")),
        }
    };
    let bits = match request.query_param("bits").map(str::parse::<usize>) {
        None => DEFAULT_AUDIT_WINDOW_BITS,
        Some(Ok(bits)) if (MIN_BATTERY_BITS..=SELFTEST_MAX_BITS).contains(&bits) => bits,
        Some(_) => {
            let body = error_body(
                "bad request",
                &format!("`bits` must be in {MIN_BATTERY_BITS}..={SELFTEST_MAX_BITS}"),
            );
            return json_routed(state, 400, &body, keep_alive, head_only);
        }
    };
    let (claim, margin) = match (parse_f64("claim"), parse_f64("margin")) {
        (Ok(claim), Ok(margin)) => (claim, margin),
        (Err(detail), _) | (_, Err(detail)) => {
            let body = error_body("bad request", &detail);
            return json_routed(state, 400, &body, keep_alive, head_only);
        }
    };

    let ledger = tap.ledger();
    let mut config = AuditConfig::default().window_bits(bits).claim(claim);
    if let Some(margin) = margin {
        config = config.margin(margin);
    }
    let mut audit = match EntropyAudit::new("conditioned", ledger.min_entropy_per_bit(), config) {
        Ok(audit) => audit,
        Err(error) => {
            let body = error_body("bad request", &error.to_string());
            return json_routed(state, 400, &body, keep_alive, head_only);
        }
    };
    if head_only {
        // The probe answers the contract (parameters validated above) without
        // charging the limiter, drawing a window, or running the battery.
        let head = ResponseHead::new(200)
            .header("Content-Type", "application/json")
            .header(
                "X-PTRNG-MinEntropy",
                format!("{:.6}", tap.min_entropy_per_bit()),
            )
            .header("X-PTRNG-Ledger", ledger.to_json());
        return finish(state, &head, b"", keep_alive, true);
    }
    if let Some(limiter) = &state.limiter {
        if let Err(retry_secs) =
            limiter.try_acquire(peer_ip, bits.div_ceil(8) as u64, Instant::now())
        {
            return rate_limited(state, "entropy", retry_secs, keep_alive);
        }
    }
    let mut window = vec![0u8; bits.div_ceil(8)];
    if let Err(error) = fill(tap, &mut window) {
        return refusal(state, &error, keep_alive, false);
    }
    let fed = audit.observe_bytes(&window).map(|_| ());
    let outcome = match fed {
        Ok(()) => audit.finalize().map(|_| ()),
        Err(error) => Err(error),
    };
    if let Err(error) = outcome {
        let body = error_body("selftest failed", &error.to_string());
        return json_routed(state, 500, &body, keep_alive, false);
    }
    let overclaim = audit.overclaimed();
    state.metrics.record_selftest(overclaim);
    let report = audit.report();
    // Per-estimator wall-clock cost of this window's battery, lifted to the top
    // level so operators sizing `bits` do not have to dig through the report.
    let timings = report
        .latest
        .as_ref()
        .map(|window| window.timings.clone())
        .unwrap_or_default();
    let timings_json = serde_json::to_string(&timings).expect("timings serialize");
    let report = serde_json::to_string(&report).expect("audit report serializes");
    let body = format!(
        "{{\"overclaim\":{overclaim},\"estimator_timings\":{timings_json},\
         \"audit\":{report},\"ledger\":{}}}",
        ledger.to_json()
    );
    let status = if overclaim { 503 } else { 200 };
    json_routed(state, status, &body, keep_alive, false)
}

/// The product tier behind a draw endpoint.  Everything that differs between
/// `/entropy` and `/random` is answered here — the head that labels the bytes,
/// the token bucket that meters them, and where they are drawn from — so one
/// handler ([`draw`]) and one [`pump`] serve both.
impl StreamTier {
    /// The `200` head, or `None` when the tier is disabled (`/random` without
    /// `--drbg`).
    ///
    /// `X-PTRNG-MinEntropy` carries the *currently accounted* claim — for a pool
    /// with a quarantined child this is the honestly reduced survivors-only
    /// credit, not the spawn-time figure.  `X-PTRNG-Ledger` stays the static
    /// accounting trail (the provenance document, not the live state); on the
    /// expansion tier it is the ledger funding the DRBG seeds, and no
    /// min-entropy is claimed for the expanded bytes themselves.
    fn head(self, state: &SharedState, tap: &EntropyTap) -> Option<ResponseHead> {
        let head = ResponseHead::new(200).header("Content-Type", "application/octet-stream");
        let head = match self {
            StreamTier::Entropy => head.header("X-PTRNG-Tier", "full-entropy").header(
                "X-PTRNG-MinEntropy",
                format!("{:.6}", tap.min_entropy_per_bit()),
            ),
            StreamTier::Random => {
                state.expanded.as_ref()?;
                head.header("X-PTRNG-Tier", "drbg-sha256")
            }
        };
        Some(head.header("X-PTRNG-Ledger", tap.ledger().to_json()))
    }

    /// This tier's token bucket and the budget its 429 names.  Each tier has
    /// its own: expanded bytes are cheap, so a `/random` consumer must not
    /// drain the full-entropy budget of `/entropy` clients behind the same IP
    /// (and vice versa).
    fn limiter(self, state: &SharedState) -> (Option<&RateLimiter>, &'static str) {
        match self {
            StreamTier::Entropy => (state.limiter.as_ref(), "entropy"),
            StreamTier::Random => (state.drbg_limiter.as_ref(), "drbg"),
        }
    }

    /// Fills `out` completely, or fails with the reason to refuse: the tap died
    /// (every shard alarmed), or a due reseed cannot be funded by the currently
    /// accounted claim.  `/entropy` bytes are counted as served here.
    fn draw(self, state: &SharedState, out: &mut [u8]) -> std::result::Result<(), EngineError> {
        match (self, &state.supply, &state.expanded) {
            (StreamTier::Entropy, Supply::Serving(tap), _) => {
                fill(tap, out)?;
                state.metrics.record_bytes_served(out.len() as u64);
                Ok(())
            }
            (StreamTier::Random, _, Some(expanded)) => expanded.draw(out),
            // Streams start only on a live tier; fail closed all the same.
            _ => Err(stream_ended()),
        }
    }
}

/// Fills `out` from the tap, whole or not at all: a short draw means every
/// shard has terminated, and the caller refuses rather than serve short bytes.
fn fill(tap: &EntropyTap, out: &mut [u8]) -> std::result::Result<(), EngineError> {
    if tap.draw(out) == out.len() {
        Ok(())
    } else {
        Err(stream_ended())
    }
}

fn stream_ended() -> EngineError {
    EngineError::SourceFault {
        reason: "the entropy stream ended: every shard has alarmed".into(),
    }
}

/// `GET /entropy?bytes=N` and `GET /random?bytes=N` — one handler for both
/// product tiers: full-entropy conditioned bytes straight from the engine, or
/// Hash_DRBG output seeded (and policy-reseeded) from ledger-accounted
/// conditioned entropy.
///
/// The expansion tier trades the full-entropy guarantee for throughput: between
/// funded reseeds it keeps serving even while the accounted credit dips (a
/// quarantined pool child), because the bits it emits were funded by a seed
/// that *was* accounted when drawn.
///
/// Both tiers draw the first chunk before the `200` head is committed, so a
/// draw that fails — a dead tap, an unfundable reseed — answers the canonical
/// 503 [`refusal`], never a `200` with a missing body; a failure after the
/// head is a visible truncation (see [`pump`]).
fn draw(
    state: &SharedState,
    tier: StreamTier,
    request: &Request,
    peer_ip: IpAddr,
    keep_alive: bool,
    head_only: bool,
) -> Routed {
    let bytes = match request.query_param("bytes").map(str::parse::<u64>) {
        Some(Ok(bytes)) if bytes <= state.max_request_bytes => bytes,
        Some(Ok(bytes)) => {
            let body = error_body(
                "request too large",
                &format!(
                    "`bytes` is capped at {} per request (asked for {bytes})",
                    state.max_request_bytes
                ),
            );
            return json_routed(state, 413, &body, keep_alive, head_only);
        }
        Some(Err(_)) => {
            let body = error_body("bad request", "`bytes` must be a non-negative integer");
            return json_routed(state, 400, &body, keep_alive, head_only);
        }
        None => {
            let body = error_body("bad request", "missing `bytes` query parameter");
            return json_routed(state, 400, &body, keep_alive, head_only);
        }
    };
    let tap = match &state.supply {
        Supply::Serving(tap) => tap,
        // No engine ran, so no byte of either tier can ever be accounted for.
        Supply::Refusing { deficit, .. } => return refusal(state, deficit, keep_alive, head_only),
    };
    let Some(head) = tier.head(state, tap) else {
        let body = error_body(
            "drbg tier disabled",
            "start ptrng-serve with --drbg to enable /random",
        );
        return json_routed(state, 404, &body, keep_alive, head_only);
    };
    // HEAD serves only the contract headers and draws nothing, so it is answered
    // before the limiter: a probe must not spend the client's budget.
    if head_only {
        return finish(state, &head, b"", keep_alive, true);
    }
    if let (Some(limiter), budget) = tier.limiter(state) {
        if let Err(retry_secs) = limiter.try_acquire(peer_ip, bytes, Instant::now()) {
            // Keep-alive on purpose: a rate-limited client retries on this
            // socket after `Retry-After` instead of paying a reconnect.
            return rate_limited(state, budget, retry_secs, keep_alive);
        }
    }
    // The head is rendered but not committed until the first chunk is drawn.
    // A zero-byte draw frames only the terminator and touches neither tier (in
    // particular it never lazily instantiates the DRBG, which would debit a
    // full accounted seed for nothing).
    let first = state.chunk_bytes as u64;
    let mut out = Vec::with_capacity(first.min(bytes) as usize + 1024);
    ChunkedWriter::start(&mut out, &head, keep_alive).expect("buffer writes are infallible");
    let body = StreamBody {
        tier,
        remaining: bytes,
    };
    match frame(state, body, first, &mut out) {
        Ok(stream) => {
            state.metrics.record_response(200);
            Routed {
                bytes: out,
                status: 200,
                keep_alive,
                stream,
            }
        }
        Err(error) => refusal(state, &error, keep_alive, false),
    }
}

/// The canonical 503 refusal: the one renderer behind every refusal of a draw
/// endpoint or `/selftest`.  An entropy deficit — at spawn, or a reseed the
/// currently accounted claim cannot fund — answers with the accounted ledger
/// as the body and the `X-PTRNG-Ledger` header, plus retry advice; any other
/// failure (a dead tap) names the error.
fn refusal(state: &SharedState, error: &EngineError, keep_alive: bool, head_only: bool) -> Routed {
    let EngineError::EntropyDeficit {
        accounted,
        required,
        ledger,
        ..
    } = error
    else {
        let body = error_body("entropy unavailable", &error.to_string());
        return json_routed(state, 503, &body, keep_alive, head_only);
    };
    // The refusal is the ledger: the canonical JSON form *is* the body.
    let ledger = ledger.to_json();
    let body = format!(
        "{{\"error\":\"entropy deficit\",\"accounted\":{accounted},\
         \"required\":{required},\"ledger\":{ledger}}}"
    );
    let head = ResponseHead::new(503)
        .header("Content-Type", "application/json")
        .header("Retry-After", format!("{DEFICIT_RETRY_AFTER_SECS}"))
        .header("X-PTRNG-Ledger", ledger);
    finish(state, &head, body.as_bytes(), keep_alive, head_only)
}

fn healthz(state: &SharedState, keep_alive: bool, head_only: bool) -> Routed {
    let (body, status) = match &state.supply {
        Supply::Serving(tap) => {
            let alarm_reasons = tap.alarms();
            let live_shards = tap.live_shards();
            let snapshot = tap.metrics_snapshot();
            let terminal_alarms = alarm_reasons
                .iter()
                .filter(|alarm| alarm.kind.is_terminal())
                .count();
            let children_degraded = snapshot
                .pool_children
                .iter()
                .any(|child| child.status.state != "serving");
            let status_text = if live_shards == 0 {
                "alarmed"
            } else if terminal_alarms > 0 || children_degraded {
                "degraded"
            } else {
                "ok"
            };
            let body = HealthzBody {
                status: status_text.to_string(),
                shards: state.shards,
                live_shards,
                alarms: alarm_reasons.len(),
                alarm_reasons,
                min_entropy_per_bit: tap.min_entropy_per_bit(),
                required_min_entropy: None,
                pool_children: snapshot.pool_children,
                postmortems: tap.observatory().postmortems().snapshot(),
            };
            (body, if live_shards == 0 { 503 } else { 200 })
        }
        Supply::Refusing {
            accounted,
            required,
            ..
        } => {
            let body = HealthzBody {
                status: "refusing".to_string(),
                shards: state.shards,
                live_shards: 0,
                alarms: 0,
                alarm_reasons: Vec::new(),
                min_entropy_per_bit: *accounted,
                required_min_entropy: Some(*required),
                pool_children: Vec::new(),
                postmortems: Vec::new(),
            };
            (body, 503)
        }
    };
    let text = serde_json::to_string(&body).expect("healthz body serializes");
    json_routed(state, status, &text, keep_alive, head_only)
}

fn metrics(state: &SharedState, keep_alive: bool, head_only: bool) -> Routed {
    let (snapshot, h, live, serving) = match &state.supply {
        Supply::Serving(tap) => (
            tap.metrics_snapshot(),
            tap.min_entropy_per_bit(),
            tap.live_shards(),
            true,
        ),
        Supply::Refusing { accounted, .. } => (
            EngineMetrics::new(state.shards).snapshot(),
            *accounted,
            0,
            false,
        ),
    };
    let mut enc = TextEncoder::new();
    render_prometheus_into(&mut enc, &snapshot, &state.metrics, h, live, serving);
    if let Some(expanded) = &state.expanded {
        let drbg = expanded.snapshot();
        enc.scalar(
            "ptrng_drbg_generates_total",
            "Completed Hash_DRBG generate calls on the /random tier.",
            MetricKind::Counter,
            drbg.generates,
        );
        enc.scalar(
            "ptrng_drbg_reseeds_total",
            "Ledger-funded DRBG (re)seeds, the instantiation included.",
            MetricKind::Counter,
            drbg.reseeds,
        );
        enc.scalar(
            "ptrng_drbg_bytes_total",
            "DRBG-expanded output bytes produced by the /random tier.",
            MetricKind::Counter,
            drbg.bytes_total,
        );
        enc.scalar(
            "ptrng_drbg_bytes_since_reseed",
            "DRBG output bytes emitted on the current seed (resets on reseed).",
            MetricKind::Gauge,
            drbg.bytes_since_reseed,
        );
        enc.scalar(
            "ptrng_drbg_seed_bits_debited_total",
            "Accounted min-entropy bits debited from the ledger for DRBG seeds.",
            MetricKind::Counter,
            drbg.seed_bits_debited,
        );
    }
    if let Some(obs) = &state.obs {
        obs.render_histograms(&mut enc);
    }
    enc.histogram(
        "ptrng_http_request_seconds",
        "End-to-end HTTP request service time (parse to last byte written).",
        &[],
        &state.http_probe.histogram().snapshot(),
        &DEFAULT_TIME_BOUNDS_NS,
    );
    let text = enc.finish();
    let head = ResponseHead::new(200).header("Content-Type", "text/plain; version=0.0.4");
    finish(state, &head, text.as_bytes(), keep_alive, head_only)
}

fn error_body(error: &str, detail: &str) -> String {
    serde_json::to_string(&ErrorBody {
        error: error.to_string(),
        detail: detail.to_string(),
    })
    .expect("error body serializes")
}

#[derive(Debug, Serialize)]
struct ErrorBody {
    error: String,
    detail: String,
}

/// The uniform 429: `Retry-After` advice and — deliberately — **keep-alive**, so
/// a rate-limited client retries on the same socket instead of paying a
/// reconnect (the event loop honors the status actually written; all four
/// rate-limited endpoints share this path, so the header and the loop's behavior
/// cannot diverge).
fn rate_limited(state: &SharedState, budget: &str, retry_secs: f64, keep_alive: bool) -> Routed {
    state.metrics.record_rate_limited();
    let body = error_body(
        "rate limited",
        &format!("client {budget} budget exhausted; retry in {retry_secs:.1}s"),
    );
    let head = ResponseHead::new(429)
        .header("Content-Type", "application/json")
        .header("Retry-After", format!("{}", retry_secs.ceil() as u64));
    finish(state, &head, body.as_bytes(), keep_alive, false)
}

/// Renders a complete `Content-Length` response into a [`Routed`], counting it
/// in the metrics.
fn finish(
    state: &SharedState,
    head: &ResponseHead,
    body: &[u8],
    keep_alive: bool,
    head_only: bool,
) -> Routed {
    state.metrics.record_response(head.status);
    let mut bytes = Vec::with_capacity(body.len() + 256);
    write_response(&mut bytes, head, body, keep_alive, head_only)
        .expect("buffer writes are infallible");
    Routed {
        bytes,
        status: head.status,
        keep_alive,
        stream: None,
    }
}

fn json_routed(
    state: &SharedState,
    status: u16,
    body: &str,
    keep_alive: bool,
    head_only: bool,
) -> Routed {
    let head = ResponseHead::new(status).header("Content-Type", "application/json");
    finish(state, &head, body.as_bytes(), keep_alive, head_only)
}
