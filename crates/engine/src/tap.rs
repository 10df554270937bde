//! Multi-consumer byte draws from a running engine.
//!
//! The [`crate::stream::ByteStream`] is a single-consumer iterator — the right shape
//! for `ptrngd`'s one sink, but not for a network server where many request handlers
//! want bytes concurrently.  An [`EntropyTap`] wraps the stream (plus the worker
//! handles and the conditioned-output [`EntropyLedger`]) behind a mutex so that:
//!
//! * any number of threads can [`EntropyTap::draw`] (blocking) or
//!   [`EntropyTap::try_draw`] (non-blocking) bytes; each byte is handed out exactly
//!   once, so concurrent consumers always receive **distinct** entropy,
//! * backpressure is preserved end to end: when no consumer draws, the shard workers
//!   park on the bounded channel exactly as they do under a slow `ptrngd` sink,
//! * shard alarms do not poison the tap — the remaining shards keep serving, and the
//!   alarm trail is read from [`EngineMetrics`], where workers record it **at alarm
//!   time**, so health surfaces ([`EntropyTap::alarms`], [`EntropyTap::alarm_count`],
//!   [`EntropyTap::live_shards`]) stay accurate and uncontended even while a slow
//!   draw holds the stream lock,
//! * [`EntropyTap::shutdown`] drains the runtime deterministically: the channel is
//!   closed, parked workers unblock, and every worker thread is joined.
//!
//! Build one with [`crate::pool::Engine::into_tap`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use ptrng_trng::conditioning::EntropyLedger;

use crate::metrics::{EngineMetrics, MetricsSnapshot, ShardAlarm};
use crate::observatory::Observatory;
use crate::stream::ByteStream;
use crate::{EngineError, Result};

struct TapInner {
    /// `None` once the tap has been shut down.
    stream: Option<ByteStream>,
    /// Bytes received from the stream but not yet handed to a consumer.
    pending: Vec<u8>,
    /// Read offset into `pending` (compacted when fully consumed).
    cursor: usize,
    /// Worker threads, joined at shutdown.
    workers: Vec<JoinHandle<()>>,
}

impl TapInner {
    fn take_pending(&mut self, out: &mut [u8], written: usize) -> usize {
        let available = self.pending.len() - self.cursor;
        let take = available.min(out.len() - written);
        out[written..written + take]
            .copy_from_slice(&self.pending[self.cursor..self.cursor + take]);
        self.cursor += take;
        if self.cursor == self.pending.len() {
            self.pending.clear();
            self.cursor = 0;
        }
        take
    }

    fn absorb(&mut self, bytes: &[u8], out: &mut [u8], written: usize) -> usize {
        let take = bytes.len().min(out.len() - written);
        out[written..written + take].copy_from_slice(&bytes[..take]);
        self.pending.extend_from_slice(&bytes[take..]);
        take
    }
}

/// A shareable, thread-safe view of a running engine's output bytes.
///
/// Cloning is cheap (an [`Arc`] bump); all clones draw from the same underlying
/// stream.  See the [module docs](self) for the concurrency semantics.
#[derive(Clone)]
pub struct EntropyTap {
    inner: Arc<Mutex<TapInner>>,
    metrics: Arc<EngineMetrics>,
    ledger: Arc<EntropyLedger>,
    observatory: Arc<Observatory>,
    shards: usize,
    /// Last observed stream live count, refreshed by the locked paths so health
    /// checks never have to contend for the stream lock.
    live: Arc<AtomicUsize>,
}

impl EntropyTap {
    pub(crate) fn new(
        stream: ByteStream,
        metrics: Arc<EngineMetrics>,
        workers: Vec<JoinHandle<()>>,
        ledger: EntropyLedger,
        observatory: Arc<Observatory>,
    ) -> Self {
        let shards = stream.live_shards();
        Self {
            inner: Arc::new(Mutex::new(TapInner {
                stream: Some(stream),
                pending: Vec::new(),
                cursor: 0,
                workers,
            })),
            metrics,
            ledger: Arc::new(ledger),
            observatory,
            shards,
            live: Arc::new(AtomicUsize::new(shards)),
        }
    }

    /// The engine's observability surface (histograms, flight recorders,
    /// postmortems) — shared with the engine that built this tap.
    pub fn observatory(&self) -> &Arc<Observatory> {
        &self.observatory
    }

    /// The accounted entropy ledger of the conditioned output (what the
    /// `X-PTRNG-Ledger` header and `X-PTRNG-MinEntropy` value are rendered from).
    pub fn ledger(&self) -> &EntropyLedger {
        &self.ledger
    }

    /// Number of shards the engine was spawned with.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// A point-in-time snapshot of the engine counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Number of entries on the alarm trail so far: terminal shard alarms plus
    /// every non-terminal pool child quarantine and reinstatement, so a pool that
    /// keeps serving can still count many (lock-free; workers record alarms at
    /// alarm time, so this is accurate even while no one is drawing).
    pub fn alarm_count(&self) -> usize {
        self.metrics.alarms() as usize
    }

    /// The alarm trail in observation order, recorded at alarm time by the workers
    /// (not at drain time by consumers).
    pub fn alarms(&self) -> Vec<ShardAlarm> {
        self.metrics.alarm_reasons()
    }

    /// Best-effort number of shards still producing: the smaller of the last
    /// stream observation and `shards − terminally-alarmed shards`, so
    /// freshly-alarmed shards are excluded immediately even when their terminal
    /// message has not been drained yet.  Non-terminal alarms (pool child
    /// quarantines and reinstatements) do not reduce the count — the shard keeps
    /// serving through them.  Never blocks on the stream lock.
    pub fn live_shards(&self) -> usize {
        if let Ok(inner) = self.inner.try_lock() {
            self.refresh_live(&inner);
        }
        let alarmed = self.terminally_alarmed();
        self.live
            .load(Ordering::Relaxed)
            .min(self.shards.saturating_sub(alarmed.len()))
    }

    /// Shards whose alarm trail contains a terminal kind.
    fn terminally_alarmed(&self) -> std::collections::BTreeSet<usize> {
        self.metrics
            .alarm_reasons()
            .into_iter()
            .filter(|alarm| alarm.kind.is_terminal())
            .map(|alarm| alarm.shard)
            .collect()
    }

    /// The lowest **currently accounted** min-entropy per conditioned output bit
    /// across shards that have not terminally alarmed.
    ///
    /// For simple sources this equals the static [`EntropyTap::ledger`] claim.
    /// For pool sources it tracks the quarantine state honestly: a shard whose
    /// pool lost a child to quarantine re-accounts its credit downward the same
    /// batch and back up at reinstatement.  Falls back to the static claim when
    /// every shard has terminally alarmed (nothing is served then anyway).
    pub fn min_entropy_per_bit(&self) -> f64 {
        let alarmed = self.terminally_alarmed();
        let lowest = self
            .metrics
            .snapshot()
            .per_shard
            .iter()
            .filter(|shard| !alarmed.contains(&shard.shard))
            .map(|shard| shard.entropy_per_output_bit)
            .fold(f64::INFINITY, f64::min);
        if lowest.is_finite() {
            lowest
        } else {
            self.ledger.min_entropy_per_bit()
        }
    }

    fn refresh_live(&self, inner: &TapInner) {
        let live = inner.stream.as_ref().map_or(0, ByteStream::live_shards);
        self.live.store(live, Ordering::Relaxed);
    }

    /// Fills `out` with conditioned bytes, blocking while the engine catches up.
    ///
    /// Returns the number of bytes written — `out.len()` unless the stream ended
    /// first (every shard terminated or alarmed), in which case the short count is
    /// final and [`EntropyTap::live_shards`] is 0.  Shard alarms encountered while
    /// drawing were already recorded on the metrics alarm trail by the worker; the
    /// remaining shards keep serving, so a draw never fails, it only comes up short.
    ///
    /// Concurrent draws serialize on the stream lock — by design, since every byte
    /// is handed out exactly once.
    pub fn draw(&self, out: &mut [u8]) -> usize {
        let start = std::time::Instant::now();
        let mut inner = self.inner.lock().expect("tap lock poisoned");
        let written = self.pump(&mut inner, out, |stream| stream.next().transpose());
        self.refresh_live(&inner);
        drop(inner);
        self.observatory
            .record_tap_wait(ptrng_obs::probe::elapsed_ns(start), written as u64);
        written
    }

    /// Non-blocking draw: fills `out` from bytes that are already buffered or
    /// sitting in the channel, returning immediately with the number of bytes
    /// written — including 0 when another consumer currently holds the tap.
    pub fn try_draw(&self, out: &mut [u8]) -> usize {
        // `try_lock`, not `lock`: a blocked `draw` on another thread must not turn
        // this call into a blocking one.
        let Ok(mut inner) = self.inner.try_lock() else {
            return 0;
        };
        let written = self.pump(&mut inner, out, ByteStream::try_next);
        self.refresh_live(&inner);
        written
    }

    /// Shared draw loop: `pull` returns `Ok(None)` when no batch is (currently)
    /// available, which ends the loop.
    fn pump(
        &self,
        inner: &mut TapInner,
        out: &mut [u8],
        mut pull: impl FnMut(&mut ByteStream) -> Result<Option<crate::stream::Batch>>,
    ) -> usize {
        let mut written = inner.take_pending(out, 0);
        while written < out.len() {
            let Some(stream) = inner.stream.as_mut() else {
                break;
            };
            match pull(stream) {
                Ok(Some(batch)) => {
                    written += inner.absorb(&batch.bytes, out, written);
                }
                Ok(None) => break,
                // The worker already recorded the alarm in the metrics; surviving
                // shards keep the stream alive.
                Err(EngineError::HealthAlarm { .. }) => {}
                Err(_) => break,
            }
        }
        written
    }

    /// Shuts the engine down: closes the channel (unparking any workers blocked on a
    /// full queue), joins every worker thread and discards buffered bytes.
    ///
    /// Idempotent across clones — later calls are no-ops.
    ///
    /// # Errors
    ///
    /// Returns an error when a worker thread panicked.
    pub fn shutdown(&self) -> Result<()> {
        let (stream, workers) = {
            let mut inner = self.inner.lock().expect("tap lock poisoned");
            (inner.stream.take(), std::mem::take(&mut inner.workers))
        };
        self.live.store(0, Ordering::Relaxed);
        // Dropping the receiver outside the lock closes the channel; workers then
        // observe the disconnect on their next send and terminate.
        drop(stream);
        for (shard, handle) in workers.into_iter().enumerate() {
            handle
                .join()
                .map_err(|_| EngineError::WorkerPanicked { shard })?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for EntropyTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EntropyTap")
            .field("shards", &self.shards)
            .field("alarms", &self.alarm_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::HealthConfig;
    use crate::pool::{Engine, EngineConfig};
    use crate::source::SourceSpec;

    fn tap(budget: Option<u64>) -> EntropyTap {
        let config = EngineConfig::new(SourceSpec::model(0.5).unwrap())
            .shards(2)
            .seed(17)
            .budget_bytes(budget)
            .health(HealthConfig::default().without_startup_battery());
        Engine::spawn(config).unwrap().into_tap()
    }

    #[test]
    fn draw_fills_exactly_and_hands_each_byte_out_once() {
        let tap = tap(Some(8192));
        let mut first = vec![0u8; 1000];
        let mut second = vec![0u8; 1000];
        assert_eq!(tap.draw(&mut first), 1000);
        assert_eq!(tap.draw(&mut second), 1000);
        assert_ne!(first, second, "draws must consume, not replay");
        assert!(first.iter().any(|&b| b != 0));
        tap.shutdown().unwrap();
    }

    #[test]
    fn short_draw_when_the_budget_ends_the_stream() {
        let tap = tap(Some(512));
        let mut out = vec![0u8; 4096];
        let drawn = tap.draw(&mut out);
        assert_eq!(drawn, 512);
        assert_eq!(tap.live_shards(), 0);
        // A further draw yields nothing.
        assert_eq!(tap.draw(&mut out), 0);
        tap.shutdown().unwrap();
    }

    #[test]
    fn concurrent_consumers_receive_distinct_bytes() {
        let tap = tap(Some(1 << 16));
        let draw = |tap: EntropyTap| {
            std::thread::spawn(move || {
                let mut out = vec![0u8; 8192];
                assert_eq!(tap.draw(&mut out), out.len());
                out
            })
        };
        let a = draw(tap.clone());
        let b = draw(tap.clone());
        let (a, b) = (a.join().unwrap(), b.join().unwrap());
        assert_ne!(a, b);
        tap.shutdown().unwrap();
    }

    #[test]
    fn try_draw_never_blocks() {
        let tap = tap(None);
        let mut out = vec![0u8; 1 << 20];
        // Unlimited budget: a blocking draw of 1 MiB would take a while, but the
        // non-blocking one returns with whatever the queue holds right now.
        let drawn = tap.try_draw(&mut out);
        assert!(drawn < out.len());
        tap.shutdown().unwrap();
    }

    #[test]
    fn alarms_are_visible_without_any_draw() {
        // Shard-count 1 with a stuck source: the worker records the alarm at alarm
        // time, so the tap reports it before any consumer touches the stream.
        let config = EngineConfig::new(SourceSpec::model(0.9999).unwrap())
            .seed(3)
            .health(HealthConfig::default().without_startup_battery());
        let tap = Engine::spawn(config).unwrap().into_tap();
        // Wait for the worker to trip (RCT fires within the first batches).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while tap.alarm_count() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(tap.alarm_count(), 1, "alarm visible without draining");
        assert_eq!(
            tap.live_shards(),
            0,
            "an alarmed shard leaves the live count even before its terminal \
             message is drained"
        );
        let alarms = tap.alarms();
        assert_eq!(alarms[0].shard, 0);
        assert!(alarms[0].reason.contains("repetition count"), "{alarms:?}");

        // Draws still terminate cleanly on the dead stream.
        let mut out = vec![0u8; 4096];
        assert_eq!(tap.draw(&mut out), 0, "a stuck source must not serve bytes");
        tap.shutdown().unwrap();
    }

    #[test]
    fn ledger_and_metrics_travel_with_the_tap() {
        let tap = tap(Some(2048));
        assert!(tap.ledger().min_entropy_per_bit() > 0.99);
        let mut out = vec![0u8; 2048];
        assert_eq!(tap.draw(&mut out), 2048);
        assert_eq!(tap.metrics_snapshot().total_output_bytes, 2048);
        assert_eq!(tap.shards(), 2);
        tap.shutdown().unwrap();
    }

    #[test]
    fn dynamic_claim_matches_the_static_ledger_on_healthy_simple_sources() {
        let tap = tap(Some(2048));
        let mut out = vec![0u8; 2048];
        tap.draw(&mut out);
        assert!(
            (tap.min_entropy_per_bit() - tap.ledger().min_entropy_per_bit()).abs() < 1e-12,
            "{} vs {}",
            tap.min_entropy_per_bit(),
            tap.ledger().min_entropy_per_bit()
        );
        tap.shutdown().unwrap();
    }

    #[test]
    fn dynamic_claim_drops_while_a_pool_child_is_quarantined() {
        use crate::fault::FaultPlan;
        use crate::metrics::AlarmKind;
        use crate::pooled::PoolOptions;

        // Every child at p = 0.6 (claim ≈ 0.737): each contributes real bias, so
        // removing one strictly reduces the piling-up credit (a p = 0.5 child
        // would pin the mix at 1 bit/bit and mask the drop).
        let spec = SourceSpec::parse("pool:model:0.6+model:0.6+model:0.6").unwrap();
        let options = PoolOptions {
            quarantine_draws: 1000, // effectively permanent within this test
            stall_ms: None,
            ..PoolOptions::default()
        };
        let spec = match spec {
            SourceSpec::Pool { children, .. } => SourceSpec::pool(children, options).unwrap(),
            other => panic!("expected a pool spec, parsed {other:?}"),
        };
        let fault = FaultPlan::parse("child=2,kind=stuck,at=1KiB").unwrap();
        let config = EngineConfig::new(spec)
            .seed(23)
            .health(HealthConfig::default().without_startup_battery())
            .fault(Some(fault));
        let tap = Engine::spawn(config).unwrap().into_tap();
        let static_claim = tap.ledger().min_entropy_per_bit();

        // Drain until the quarantine lands on the alarm trail.
        let mut out = vec![0u8; 4096];
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while std::time::Instant::now() < deadline {
            tap.draw(&mut out);
            if tap
                .alarms()
                .iter()
                .any(|a| a.kind == AlarmKind::SourceQuarantined)
            {
                break;
            }
        }
        assert!(
            tap.alarms()
                .iter()
                .any(|a| a.kind == AlarmKind::SourceQuarantined),
            "quarantine never surfaced: {:?}",
            tap.alarms()
        );
        // Quarantine is not terminal: the shard keeps serving...
        assert_eq!(tap.live_shards(), 1);
        assert!(tap.draw(&mut out) > 0, "the pool must keep serving");
        // ...at an honestly reduced accounted credit: two children claiming
        // less than 1 bit/bit mix to strictly less than the 3-child credit.
        let reduced = tap.min_entropy_per_bit();
        assert!(
            reduced < static_claim - 1e-6,
            "credit did not drop: {reduced} vs {static_claim}"
        );
        assert!(reduced > 0.0);
        tap.shutdown().unwrap();
    }

    #[test]
    fn shutdown_is_idempotent_across_clones() {
        let tap = tap(None);
        let clone = tap.clone();
        tap.shutdown().unwrap();
        clone.shutdown().unwrap();
        assert_eq!(clone.live_shards(), 0);
    }
}
