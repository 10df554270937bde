//! The load generator: closed-loop keep-alive clients and an open-loop rate
//! ladder.  One thread and one connection per client, at most two of each
//! (the machine's `nproc`), and every response checked before it counts.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::checks::Checker;
use crate::client::{Conn, Response};
use crate::stats::{has_backlog, median, quantile, sorted, tail_estimate, tail_quantile};
use crate::workload::{Tier, Traffic, Workload};

/// Requests `ptrng-serve` serves on one connection before it answers
/// `Connection: close` (its default keep-alive cap).  The open loop never
/// pipelines past it: requests queued behind the close would be lost.
const KEEP_ALIVE_CAP: usize = 64;

/// Connections of the open loop.
const OPEN_LOOP_CONNECTIONS: usize = 2;

/// How long a rung may take to drain after its last scheduled send.
const DRAIN_LIMIT: Duration = Duration::from_secs(5);

/// Tier output kept for the FIPS sample: four 20 000-bit blocks.
pub const SAMPLE_BYTES: usize = 10_000;

/// Body bytes kept per response: the FIPS sample of a binary tier, the
/// whole JSON report of `/selftest`.
pub fn keep_bytes(tier: Tier) -> usize {
    match tier {
        Tier::Selftest => 1 << 20,
        Tier::Entropy | Tier::Random => SAMPLE_BYTES,
    }
}

/// Everything one stretch of traffic produced.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Goodput bytes of checked responses.
    pub good_bytes: u64,
    /// `(send offset, latency)` in ms of each checked response; the offset
    /// from the phase start (scheduled, in the open loop) orders them.
    pub latencies: Vec<(f64, f64)>,
    /// How late each send went out, ms: against its schedule in the open
    /// loop, after the previous response in the closed loop.
    pub late_ms: Vec<f64>,
    pub connect_us: Vec<f64>,
    /// Send to complete response head, µs.
    pub ttfb_us: Vec<f64>,
    /// Complete head to last body byte, µs.
    pub body_us: Vec<f64>,
    /// The first [`SAMPLE_BYTES`] of tier output seen.
    pub sample: Vec<u8>,
}

impl Tally {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(problem);
        }
    }

    /// Counts `unsent` scheduled requests that never went out as failed.
    fn give_up(&mut self, unsent: usize, problem: String) {
        self.attempted += unsent as u64;
        self.failed += unsent as u64;
        if self.failures.len() < 5 {
            self.failures.push(problem);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 5usize.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
        self.good_bytes += other.good_bytes;
        self.latencies.extend(other.latencies);
        self.late_ms.extend(other.late_ms);
        self.connect_us.extend(other.connect_us);
        self.ttfb_us.extend(other.ttfb_us);
        self.body_us.extend(other.body_us);
        let room = SAMPLE_BYTES
            .saturating_sub(self.sample.len())
            .min(other.sample.len());
        self.sample.extend_from_slice(&other.sample[..room]);
    }

    /// Latencies in send order, ms.
    pub fn latencies_in_order(&self) -> Vec<f64> {
        let mut ordered = self.latencies.clone();
        ordered.sort_by(|a, b| a.0.total_cmp(&b.0));
        ordered.into_iter().map(|(_, latency)| latency).collect()
    }

    /// Latencies ascending, ms.
    pub fn latencies_sorted(&self) -> Vec<f64> {
        let latencies: Vec<f64> = self.latencies.iter().map(|&(_, latency)| latency).collect();
        sorted(&latencies)
    }

    /// Checks and counts one response; returns its goodput bytes when it passed.
    fn record(&mut self, checker: &mut Checker, response: &Response, times: Times) -> Option<u64> {
        match checker.check(response) {
            Ok(good) => {
                self.good_bytes += good;
                self.latencies.push((
                    ms(times.due.saturating_duration_since(times.origin)),
                    ms(times.done.saturating_duration_since(times.due)),
                ));
                if let Some(head_at) = response.head_at {
                    self.ttfb_us
                        .push(us(head_at.saturating_duration_since(times.sent)));
                    self.body_us
                        .push(us(times.done.saturating_duration_since(head_at)));
                }
                if checker.tier() != Tier::Selftest {
                    let room = SAMPLE_BYTES
                        .saturating_sub(self.sample.len())
                        .min(response.body.len());
                    self.sample.extend_from_slice(&response.body[..room]);
                }
                Some(good)
            }
            Err(problem) => {
                self.fail(problem);
                None
            }
        }
    }
}

/// The instants one request is timed by.
#[derive(Debug, Clone, Copy)]
struct Times {
    /// Start of the phase.
    origin: Instant,
    /// When the request was due (its send time in the closed loop).
    due: Instant,
    sent: Instant,
    done: Instant,
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// Windows a closed-loop phase is cut into by wall time: goodput, completed
/// requests per second, server CPU per MB and p50 are each the median
/// window, so a stretch in which the host took the CPUs away moves them less.
pub const PHASE_WINDOWS: usize = 5;

/// What one phase of a workload's traffic produced.
#[derive(Debug)]
pub struct Phase {
    pub tally: Tally,
    /// Ascending latencies (ms) of the requests the latency metrics read:
    /// the whole phase of a closed loop, the reference rung of the ladder.
    pub latencies: Vec<f64>,
    pub p50_ms: f64,
    /// Latency at the workload's tail percentile, ms (see [`tail_estimate`]).
    pub tail_ms: f64,
    /// Samples behind one tail estimate.
    pub tail_samples: usize,
    pub goodput_mb_s: f64,
    /// Closed loop: completed requests per second.  Ladder: the highest rung
    /// that met the latency limit without a backlog (0 when none did).
    pub max_rps: f64,
    /// Server CPU time per MB of goodput, ms (`None` without CPU readings).
    pub cpu_ms_per_mb: Option<f64>,
}

/// Counters the closed-loop clients publish for the window marks.
#[derive(Debug, Default)]
struct Progress {
    good_bytes: AtomicU64,
    completed: AtomicU64,
}

/// The counters and server CPU at one window boundary.
#[derive(Debug, Clone, Copy)]
struct Mark {
    at: Instant,
    good_bytes: u64,
    completed: u64,
    cpu: Option<Duration>,
}

impl Progress {
    fn mark(&self, cpu: &dyn Fn() -> Option<Duration>) -> Mark {
        Mark {
            at: Instant::now(),
            good_bytes: self.good_bytes.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            cpu: cpu(),
        }
    }
}

/// Drives `wl`'s traffic at `addr` for `seconds`: the whole rate ladder when
/// `full_ladder`, else only its reference rung (warm-up, traced runs).
/// `cpu` reads the server's CPU time.
pub fn drive(
    addr: SocketAddr,
    wl: &Workload,
    seconds: f64,
    full_ladder: bool,
    cpu: &dyn Fn() -> Option<Duration>,
) -> Result<Phase, String> {
    match wl.traffic {
        Traffic::Closed { clients } => {
            let duration = Duration::from_secs_f64(seconds);
            let (tally, marks) = closed(addr, wl, clients, duration, cpu);
            let mut goodput = Vec::new();
            let mut rps = Vec::new();
            let mut cpu_per_mb = Vec::new();
            for pair in marks.windows(2) {
                let secs = pair[1].at.duration_since(pair[0].at).as_secs_f64();
                let mb = (pair[1].good_bytes - pair[0].good_bytes) as f64 / 1e6;
                goodput.push(mb / secs);
                rps.push((pair[1].completed - pair[0].completed) as f64 / secs);
                if let (Some(before), Some(after)) = (pair[0].cpu, pair[1].cpu) {
                    cpu_per_mb.push(after.saturating_sub(before).as_secs_f64() * 1e3 / mb);
                }
            }
            // p50 per window of send time, then the median window.
            let window_ms = seconds * 1e3 / PHASE_WINDOWS as f64;
            let mut by_window = vec![Vec::new(); PHASE_WINDOWS];
            for &(offset, latency) in &tally.latencies {
                let window = ((offset / window_ms) as usize).min(PHASE_WINDOWS - 1);
                by_window[window].push(latency);
            }
            let p50s: Vec<f64> = by_window
                .iter()
                .filter(|window| !window.is_empty())
                .map(|window| quantile(&sorted(window), 0.5))
                .collect();
            let ordered = tally.latencies_in_order();
            let (tail_ms, tail_samples) =
                tail_estimate(&ordered, wl.tail_q).unwrap_or((f64::INFINITY, ordered.len()));
            Ok(Phase {
                latencies: tally.latencies_sorted(),
                p50_ms: if p50s.is_empty() {
                    f64::INFINITY
                } else {
                    median(&p50s)
                },
                tail_ms,
                tail_samples,
                goodput_mb_s: median(&goodput),
                max_rps: median(&rps),
                cpu_ms_per_mb: (cpu_per_mb.len() == goodput.len()).then(|| median(&cpu_per_mb)),
                tally,
            })
        }
        Traffic::Ladder {
            reference,
            reference_requests,
            rates,
            limit_ms,
        } => {
            let reference_secs = f64::from(reference_requests) / reference;
            let plan: Vec<(f64, f64)> = if full_ladder {
                let rung_secs = (seconds - reference_secs).max(0.5) / rates.len() as f64;
                std::iter::once((reference, reference_secs))
                    .chain(rates.iter().map(|&rate| (rate, rung_secs)))
                    .collect()
            } else {
                vec![(reference, seconds.min(reference_secs))]
            };
            let start = Instant::now();
            let cpu_before = cpu();
            let mut phase = Phase {
                tally: Tally::default(),
                latencies: Vec::new(),
                p50_ms: f64::INFINITY,
                tail_ms: f64::INFINITY,
                tail_samples: 0,
                goodput_mb_s: 0.0,
                max_rps: 0.0,
                cpu_ms_per_mb: None,
            };
            for (rate, secs) in plan {
                let rung = open_rung(addr, wl, rate, Duration::from_secs_f64(secs))?;
                let ordered = rung.latencies_in_order();
                let ascending = sorted(&ordered);
                let sent = usize::try_from(rung.attempted).unwrap_or(usize::MAX);
                let backlog = has_backlog(&ordered, sent, limit_ms / 2.0);
                let (p50, tail) = match tail_quantile(ascending.len()) {
                    Some(q) => (quantile(&ascending, 0.5), quantile(&ascending, q)),
                    None => (f64::INFINITY, f64::INFINITY),
                };
                let met = !backlog && rung.failed == 0 && tail < limit_ms;
                println!(
                    "{} rung {rate:.0} req/s: {sent} sent, {} checked, p50 {p50:.3} ms, \
                     tail {tail:.3} ms, backlog {backlog}, limit {}",
                    wl.name,
                    ascending.len(),
                    if met { "met" } else { "missed" }
                );
                if met {
                    phase.max_rps = phase.max_rps.max(rate);
                }
                // The first rung is the reference rung.
                if phase.latencies.is_empty() && !ascending.is_empty() {
                    phase.p50_ms = quantile(&ascending, 0.5);
                    if let Some((tail, samples)) = tail_estimate(&ordered, wl.tail_q) {
                        phase.tail_ms = tail;
                        phase.tail_samples = samples;
                    }
                    phase.latencies = ascending;
                }
                phase.tally.merge(rung);
            }
            let mb = phase.tally.good_bytes as f64 / 1e6;
            phase.goodput_mb_s = mb / start.elapsed().as_secs_f64();
            if let (Some(before), Some(after)) = (cpu_before, cpu()) {
                phase.cpu_ms_per_mb = Some(after.saturating_sub(before).as_secs_f64() * 1e3 / mb);
            }
            Ok(phase)
        }
    }
}

/// `clients` closed-loop clients for `duration`, each sending its next
/// request as soon as the previous response is complete, while this thread
/// marks the [`PHASE_WINDOWS`] window boundaries.
fn closed(
    addr: SocketAddr,
    wl: &Workload,
    clients: usize,
    duration: Duration,
    cpu: &dyn Fn() -> Option<Duration>,
) -> (Tally, Vec<Mark>) {
    let progress = Progress::default();
    let origin = Instant::now();
    let deadline = origin + duration;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| closed_client(addr, wl, origin, deadline, &progress)))
            .collect();
        let mut marks = vec![progress.mark(cpu)];
        for window in 1..=PHASE_WINDOWS {
            let boundary = origin + duration.mul_f64(window as f64 / PHASE_WINDOWS as f64);
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            marks.push(progress.mark(cpu));
        }
        let mut total = Tally::default();
        for handle in handles {
            total.merge(handle.join().expect("client thread panicked"));
        }
        (total, marks)
    })
}

fn closed_client(
    addr: SocketAddr,
    wl: &Workload,
    origin: Instant,
    deadline: Instant,
    progress: &Progress,
) -> Tally {
    let mut tally = Tally::default();
    let mut checker = Checker::new(wl.tier, wl.bytes);
    let request = wl.request();
    let mut conn: Option<Conn> = None;
    let mut previous_done: Option<Instant> = None;
    while Instant::now() < deadline {
        if conn.is_none() {
            match Conn::open(addr, keep_bytes(wl.tier)) {
                Ok((opened, took)) => {
                    tally.connect_us.push(us(took));
                    conn = Some(opened);
                    previous_done = None;
                }
                Err(error) => {
                    tally.attempted += 1;
                    tally.fail(format!("connect: {error}"));
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
            }
        }
        let live = conn.as_mut().expect("connected above");
        let sent = Instant::now();
        if let Some(done) = previous_done {
            tally.late_ms.push(ms(sent - done));
        }
        tally.attempted += 1;
        let outcome = live.send(&request).and_then(|()| live.next_response(None));
        let done = Instant::now();
        previous_done = Some(done);
        match outcome {
            Ok(Some(response)) => {
                let times = Times {
                    origin,
                    due: sent,
                    sent,
                    done,
                };
                if let Some(good) = tally.record(&mut checker, &response, times) {
                    progress.good_bytes.fetch_add(good, Ordering::Relaxed);
                    progress.completed.fetch_add(1, Ordering::Relaxed);
                }
                if response.close {
                    conn = None;
                }
            }
            Ok(None) => unreachable!("a read without a deadline returns a response or an error"),
            Err(error) => {
                tally.fail(format!("transport: {error}"));
                conn = None;
            }
        }
    }
    tally
}

/// One open-loop rung: `rate` arrivals per second for `duration`, dealt
/// round-robin to the connections and sent on schedule whether or not earlier
/// responses are back (pipelined).  Latency runs from the scheduled time.
fn open_rung(
    addr: SocketAddr,
    wl: &Workload,
    rate: f64,
    duration: Duration,
) -> Result<Tally, String> {
    let arrivals = (rate * duration.as_secs_f64()).round() as usize;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut tally = Tally::default();
    // Connections open before the clock starts: the rung measures serving.
    let mut conns = Vec::with_capacity(OPEN_LOOP_CONNECTIONS);
    for _ in 0..OPEN_LOOP_CONNECTIONS {
        let (conn, took) =
            Conn::open(addr, keep_bytes(wl.tier)).map_err(|e| format!("connect: {e}"))?;
        tally.connect_us.push(us(took));
        conns.push(conn);
    }
    let origin = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(index, conn)| {
                let schedule: Vec<Instant> = (index..arrivals)
                    .step_by(OPEN_LOOP_CONNECTIONS)
                    .map(|k| origin + interval.mul_f64(k as f64))
                    .collect();
                scope.spawn(move || open_client(addr, wl, conn, origin, &schedule))
            })
            .collect();
        for handle in handles {
            tally.merge(handle.join().expect("client thread panicked"));
        }
    });
    Ok(tally)
}

fn open_client(
    addr: SocketAddr,
    wl: &Workload,
    mut conn: Conn,
    origin: Instant,
    schedule: &[Instant],
) -> Tally {
    let mut tally = Tally::default();
    let mut checker = Checker::new(wl.tier, wl.bytes);
    let request = wl.request();
    // (due, sent) of each request awaiting its response, in send order.
    let mut in_flight: VecDeque<(Instant, Instant)> = VecDeque::new();
    let mut next = 0;
    let give_up = schedule.last().copied().unwrap_or(origin) + DRAIN_LIMIT;
    // When the connection could first take a send: a send held back by the
    // keep-alive cap waits on the server, and only the wait after this
    // instant is the generator's own lateness.
    let mut sendable = origin;
    loop {
        let now = Instant::now();
        let mut broken = None;
        while next < schedule.len() && schedule[next] <= now && conn.sent < KEEP_ALIVE_CAP {
            let due = schedule[next];
            next += 1;
            tally.attempted += 1;
            let sent = Instant::now();
            tally
                .late_ms
                .push(ms(sent.saturating_duration_since(due.max(sendable))));
            match conn.send(&request) {
                Ok(()) => in_flight.push_back((due, sent)),
                Err(error) => {
                    tally.fail(format!("send: {error}"));
                    broken = Some(format!("transport: {error}"));
                    break;
                }
            }
        }
        if broken.is_none() {
            if next == schedule.len() && in_flight.is_empty() {
                break;
            }
            if now > give_up {
                for _ in in_flight.drain(..) {
                    tally.fail("no response within the drain limit".to_string());
                }
                tally.give_up(schedule.len() - next, "rung did not drain".to_string());
                break;
            }
            let at_cap = conn.sent >= KEEP_ALIVE_CAP;
            if in_flight.is_empty() {
                if !at_cap {
                    let due = schedule[next];
                    std::thread::sleep(due.saturating_duration_since(Instant::now()));
                    continue;
                }
            } else {
                let next_send = schedule.get(next).copied().filter(|_| !at_cap);
                let wake = next_send.unwrap_or(now + Duration::from_millis(50));
                match conn.next_response(Some(wake)) {
                    Ok(None) => continue,
                    Ok(Some(response)) => {
                        let done = Instant::now();
                        let (due, sent) = in_flight
                            .pop_front()
                            .expect("a response answers a request in flight");
                        let times = Times {
                            origin,
                            due,
                            sent,
                            done,
                        };
                        tally.record(&mut checker, &response, times);
                        if !response.close {
                            continue;
                        }
                        broken = Some("request pipelined past Connection: close".to_string());
                    }
                    Err(error) => broken = Some(format!("transport: {error}")),
                }
            }
        }
        // The connection is spent (keep-alive cap, close or error): anything
        // still in flight on it is lost; continue on a fresh one.
        let problem = broken.unwrap_or_else(|| "connection reached its cap".to_string());
        for _ in in_flight.drain(..) {
            tally.fail(problem.clone());
        }
        match Conn::open(addr, keep_bytes(wl.tier)) {
            Ok((fresh, took)) => {
                tally.connect_us.push(us(took));
                conn = fresh;
                sendable = Instant::now();
            }
            Err(error) => {
                tally.give_up(schedule.len() - next, format!("connect: {error}"));
                break;
            }
        }
    }
    tally
}
