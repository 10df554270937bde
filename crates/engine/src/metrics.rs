//! Lock-free runtime counters with serializable snapshots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::audit::AuditSnapshot;
use crate::source::ChildStatus;

/// The typed class of a shard alarm, carried alongside the rendered reason through
/// metrics, postmortems, `/healthz` and the journal.
///
/// Serialized everywhere as the stable kebab-case code of [`AlarmKind::code`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AlarmKind {
    /// SP 800-90B repetition-count test cutoff reached.
    RepetitionCount,
    /// SP 800-90B adaptive-proportion test cutoff reached.
    AdaptiveProportion,
    /// The online σ²_N thermal-jitter estimate collapsed below the alarm threshold.
    Thermal,
    /// The FIPS 140-2 startup battery failed.
    StartupBattery,
    /// The noise source itself returned an error.
    SourceFailure,
    /// The in-engine estimator-battery audit flagged the ledger claim as
    /// overclaimed.
    AuditOverclaim,
    /// A pool child was quarantined (its credit dropped to zero); the pool keeps
    /// serving on the remaining children.  **Non-terminal**: the shard worker
    /// records the event and continues.
    SourceQuarantined,
    /// A quarantined pool child completed its clean probation and was reinstated
    /// at full credit.  **Non-terminal**.
    SourceReinstated,
}

impl AlarmKind {
    /// Every kind, in stable order.
    pub const ALL: [AlarmKind; 8] = [
        AlarmKind::RepetitionCount,
        AlarmKind::AdaptiveProportion,
        AlarmKind::Thermal,
        AlarmKind::StartupBattery,
        AlarmKind::SourceFailure,
        AlarmKind::AuditOverclaim,
        AlarmKind::SourceQuarantined,
        AlarmKind::SourceReinstated,
    ];

    /// Stable kebab-case code used in every serialized form.
    pub fn code(self) -> &'static str {
        match self {
            AlarmKind::RepetitionCount => "repetition-count",
            AlarmKind::AdaptiveProportion => "adaptive-proportion",
            AlarmKind::Thermal => "thermal",
            AlarmKind::StartupBattery => "startup-battery",
            AlarmKind::SourceFailure => "source-failure",
            AlarmKind::AuditOverclaim => "audit-overclaim",
            AlarmKind::SourceQuarantined => "source-quarantined",
            AlarmKind::SourceReinstated => "source-reinstated",
        }
    }

    /// Whether this alarm terminates its shard worker.
    ///
    /// Terminal alarms stop the shard for good; the two pool lifecycle kinds
    /// ([`AlarmKind::SourceQuarantined`], [`AlarmKind::SourceReinstated`]) are
    /// observability events — the shard keeps publishing on the surviving
    /// children at an honestly re-accounted rate.
    pub fn is_terminal(self) -> bool {
        !matches!(
            self,
            AlarmKind::SourceQuarantined | AlarmKind::SourceReinstated
        )
    }
}

impl std::fmt::Display for AlarmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.code())
    }
}

impl Serialize for AlarmKind {
    fn to_value(&self) -> Value {
        Value::Str(self.code().to_string())
    }
}

impl Deserialize for AlarmKind {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Str(code) => Self::ALL
                .into_iter()
                .find(|kind| kind.code() == code)
                .ok_or_else(|| DeError::custom(format!("unknown alarm kind `{code}`"))),
            _ => Err(DeError::custom("alarm kind must be a string")),
        }
    }
}

/// One recorded shard alarm: the shard index, the typed [`AlarmKind`] and the
/// rendered reason.
///
/// Recorded by the shard worker **at alarm time** (not when the consumer drains the
/// stream), so health surfaces like `ptrng-serve`'s `/healthz` see alarms even while
/// no one is drawing entropy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardAlarm {
    /// Index of the alarmed shard.
    pub shard: usize,
    /// Typed alarm class (serialized as its kebab-case code).
    pub kind: AlarmKind,
    /// Human-readable alarm reason (repetition-count, adaptive-proportion, thermal
    /// collapse, startup battery, source failure, audit overclaim).
    pub reason: String,
}

/// Per-shard counters, updated by the worker without locks.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    raw_bits: AtomicU64,
    output_bytes: AtomicU64,
    batches: AtomicU64,
    /// Accounted min-entropy per conditioned output bit (an `f64` stored via
    /// `to_bits`, set at spawn from the shard's entropy ledger and re-set when a
    /// pool's claim changes).
    entropy_per_output_bit: AtomicU64,
    /// Accounted min-entropy of the published output, in bits (an `f64` stored via
    /// `to_bits`): each batch adds its bits at the claim in force for it, so a
    /// lowered claim never re-credits bits already published.
    accounted_entropy_bits: AtomicU64,
}

impl ShardMetrics {
    /// Counts one published batch.  Only the shard's worker calls this, so the
    /// accounted-bits accumulator needs no read-modify-write atomic.
    pub(crate) fn record_batch(&self, raw_bits: u64, output_bytes: u64) {
        self.raw_bits.fetch_add(raw_bits, Ordering::Relaxed);
        self.output_bytes.fetch_add(output_bytes, Ordering::Relaxed);
        self.batches.fetch_add(1, Ordering::Relaxed);
        let h = f64::from_bits(self.entropy_per_output_bit.load(Ordering::Relaxed));
        let accounted = f64::from_bits(self.accounted_entropy_bits.load(Ordering::Relaxed));
        self.accounted_entropy_bits.store(
            (accounted + output_bytes as f64 * 8.0 * h).to_bits(),
            Ordering::Relaxed,
        );
    }

    pub(crate) fn set_entropy_per_output_bit(&self, h: f64) {
        self.entropy_per_output_bit
            .store(h.to_bits(), Ordering::Relaxed);
    }

    fn snapshot(&self, shard: usize) -> ShardSnapshot {
        ShardSnapshot {
            shard,
            raw_bits: self.raw_bits.load(Ordering::Relaxed),
            output_bytes: self.output_bytes.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            entropy_per_output_bit: f64::from_bits(
                self.entropy_per_output_bit.load(Ordering::Relaxed),
            ),
            accounted_entropy_bits: f64::from_bits(
                self.accounted_entropy_bits.load(Ordering::Relaxed),
            ),
        }
    }
}

/// Engine-wide counters shared between workers and the consumer.
#[derive(Debug)]
pub struct EngineMetrics {
    shards: Vec<ShardMetrics>,
    alarms: AtomicU64,
    /// Alarm trail in observation order.  Terminal kinds appear at most once per
    /// shard (an alarmed worker stops); the non-terminal pool lifecycle kinds
    /// ([`AlarmKind::SourceQuarantined`] / [`AlarmKind::SourceReinstated`]) may
    /// recur as children cycle through quarantine and probation.
    alarm_reasons: Mutex<Vec<ShardAlarm>>,
    /// Latest per-lane entropy-audit summaries (raw / conditioned), updated by the
    /// auditing worker after every completed window.
    audits: Mutex<Vec<AuditSnapshot>>,
    /// Latest per-shard pool child statuses (one slot per shard, empty for
    /// non-pool sources), published by the worker after each batch.
    pool_children: Mutex<Vec<Vec<ChildStatus>>>,
}

impl EngineMetrics {
    /// Creates zeroed counters for `shards` shards.
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards).map(|_| ShardMetrics::default()).collect(),
            alarms: AtomicU64::new(0),
            alarm_reasons: Mutex::new(Vec::new()),
            audits: Mutex::new(Vec::new()),
            pool_children: Mutex::new((0..shards).map(|_| Vec::new()).collect()),
        }
    }

    /// Publishes (replaces) one shard's latest pool child statuses.
    pub(crate) fn record_pool_children(&self, shard: usize, children: Vec<ChildStatus>) {
        let mut slots = self.pool_children.lock().expect("metrics lock poisoned");
        slots[shard] = children;
    }

    /// Publishes (or replaces) one audit lane's latest summary.
    pub(crate) fn record_audit(&self, snapshot: AuditSnapshot) {
        let mut audits = self.audits.lock().expect("metrics lock poisoned");
        match audits.iter_mut().find(|a| a.lane == snapshot.lane) {
            Some(existing) => *existing = snapshot,
            None => audits.push(snapshot),
        }
    }

    /// The latest per-lane entropy-audit summaries.
    pub fn audits(&self) -> Vec<AuditSnapshot> {
        self.audits.lock().expect("metrics lock poisoned").clone()
    }

    /// The per-shard counters.
    pub(crate) fn shard(&self, index: usize) -> &ShardMetrics {
        &self.shards[index]
    }

    /// Records the shard's accounted min-entropy per conditioned output bit (from the
    /// entropy ledger folded through the conditioning chain at spawn).
    pub(crate) fn set_entropy_per_output_bit(&self, index: usize, h: f64) {
        self.shards[index].set_entropy_per_output_bit(h);
    }

    pub(crate) fn record_alarm(&self, shard: usize, kind: AlarmKind, reason: &str) {
        self.alarms.fetch_add(1, Ordering::Relaxed);
        self.alarm_reasons
            .lock()
            .expect("metrics lock poisoned")
            .push(ShardAlarm {
                shard,
                kind,
                reason: reason.to_string(),
            });
    }

    /// Number of alarms recorded so far (lock-free).
    pub fn alarms(&self) -> u64 {
        self.alarms.load(Ordering::Relaxed)
    }

    /// The alarm trail in observation order, recorded at alarm time by the workers.
    pub fn alarm_reasons(&self) -> Vec<ShardAlarm> {
        self.alarm_reasons
            .lock()
            .expect("metrics lock poisoned")
            .clone()
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let per_shard: Vec<ShardSnapshot> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, m)| m.snapshot(i))
            .collect();
        let pool_children: Vec<PoolChildSnapshot> = self
            .pool_children
            .lock()
            .expect("metrics lock poisoned")
            .iter()
            .enumerate()
            .flat_map(|(shard, children)| {
                children
                    .iter()
                    .map(move |status| PoolChildSnapshot {
                        shard,
                        status: status.clone(),
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        MetricsSnapshot {
            total_raw_bits: per_shard.iter().map(|s| s.raw_bits).sum(),
            total_output_bytes: per_shard.iter().map(|s| s.output_bytes).sum(),
            total_batches: per_shard.iter().map(|s| s.batches).sum(),
            total_accounted_entropy_bits: per_shard.iter().map(|s| s.accounted_entropy_bits).sum(),
            alarms: self.alarms.load(Ordering::Relaxed),
            audits: self.audits(),
            pool_children,
            per_shard,
        }
    }
}

/// Snapshot of one pool child on one shard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolChildSnapshot {
    /// Index of the shard hosting the pool.
    pub shard: usize,
    /// The child's status as last published by the worker.
    pub status: ChildStatus,
}

/// Snapshot of one shard's counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardSnapshot {
    /// Shard index.
    pub shard: usize,
    /// Raw bits drawn from the source.
    pub raw_bits: u64,
    /// Output bytes published after conditioning and packing.
    pub output_bytes: u64,
    /// Batches published.
    pub batches: u64,
    /// Accounted min-entropy per conditioned output bit (from the entropy ledger).
    pub entropy_per_output_bit: f64,
    /// Accounted min-entropy carried by the published output, in bits.
    pub accounted_entropy_bits: f64,
}

/// Snapshot of the whole engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Sum of raw bits across shards.
    pub total_raw_bits: u64,
    /// Sum of output bytes across shards.
    pub total_output_bytes: u64,
    /// Sum of published batches across shards.
    pub total_batches: u64,
    /// Sum of the accounted min-entropy carried by the published output, in bits.
    pub total_accounted_entropy_bits: f64,
    /// Number of entries on the alarm trail ([`EngineMetrics::alarm_reasons`]):
    /// terminal shard alarms, at most one per shard, plus every non-terminal pool
    /// child quarantine and reinstatement, which recur as children cycle.
    pub alarms: u64,
    /// Latest per-lane entropy-audit summaries (empty unless an audit is
    /// configured).
    pub audits: Vec<AuditSnapshot>,
    /// Latest per-child pool statuses across shards (empty unless the engine runs
    /// a [`crate::pooled::PoolSource`]).
    pub pool_children: Vec<PoolChildSnapshot>,
    /// Per-shard breakdown.
    pub per_shard: Vec<ShardSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_aggregate_per_shard_counters() {
        let metrics = EngineMetrics::new(2);
        metrics.shard(0).record_batch(800, 100);
        metrics.shard(1).record_batch(1600, 200);
        metrics.shard(1).record_batch(800, 100);
        metrics.record_alarm(1, AlarmKind::Thermal, "thermal collapse");
        let snap = metrics.snapshot();
        assert_eq!(snap.total_raw_bits, 3200);
        assert_eq!(snap.total_output_bytes, 400);
        assert_eq!(snap.total_batches, 3);
        assert_eq!(snap.alarms, 1);
        assert_eq!(snap.per_shard[1].batches, 2);
        // Reasons are recorded at alarm time, not at drain time.
        assert_eq!(metrics.alarms(), 1);
        let reasons = metrics.alarm_reasons();
        assert_eq!(reasons.len(), 1);
        assert_eq!(reasons[0].shard, 1);
        assert_eq!(reasons[0].kind, AlarmKind::Thermal);
        assert!(reasons[0].reason.contains("thermal"));
    }

    #[test]
    fn alarm_kinds_round_trip_codes_and_json() {
        // Distinct codes, so each code names exactly one kind on the wire.
        let codes: std::collections::HashSet<&str> =
            AlarmKind::ALL.iter().map(|kind| kind.code()).collect();
        assert_eq!(codes.len(), AlarmKind::ALL.len());
        for kind in AlarmKind::ALL {
            let json = serde_json::to_string(&kind).expect("serializes");
            assert_eq!(serde_json::from_str::<AlarmKind>(&json).ok(), Some(kind));
        }
        assert!(serde_json::from_str::<AlarmKind>("\"no-such-alarm\"").is_err());
        // Exactly the two pool lifecycle kinds are non-terminal.
        let non_terminal: Vec<AlarmKind> = AlarmKind::ALL
            .into_iter()
            .filter(|k| !k.is_terminal())
            .collect();
        assert_eq!(
            non_terminal,
            vec![AlarmKind::SourceQuarantined, AlarmKind::SourceReinstated]
        );
        let alarm = ShardAlarm {
            shard: 2,
            kind: AlarmKind::AuditOverclaim,
            reason: "estimate undercut the claim".to_string(),
        };
        let json = serde_json::to_string(&alarm).expect("serializes");
        assert!(json.contains("\"kind\":\"audit-overclaim\""), "{json}");
        let back: ShardAlarm = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, alarm);
    }

    #[test]
    fn snapshots_account_entropy_from_the_ledger_claim() {
        let metrics = EngineMetrics::new(2);
        metrics.set_entropy_per_output_bit(0, 0.25);
        metrics.set_entropy_per_output_bit(1, 1.0);
        metrics.shard(0).record_batch(800, 100);
        metrics.shard(1).record_batch(800, 50);
        let snap = metrics.snapshot();
        assert!((snap.per_shard[0].entropy_per_output_bit - 0.25).abs() < 1e-15);
        assert!((snap.per_shard[0].accounted_entropy_bits - 100.0 * 8.0 * 0.25).abs() < 1e-9);
        assert!((snap.per_shard[1].accounted_entropy_bits - 50.0 * 8.0).abs() < 1e-9);
        let total = 100.0 * 8.0 * 0.25 + 50.0 * 8.0;
        assert!((snap.total_accounted_entropy_bits - total).abs() < 1e-9);
    }

    #[test]
    fn a_lowered_claim_never_re_credits_published_bits() {
        let metrics = EngineMetrics::new(1);
        metrics.set_entropy_per_output_bit(0, 1.0);
        metrics.shard(0).record_batch(800, 100);
        // A pool quarantine lowers the claim: only later batches carry the new rate.
        metrics.set_entropy_per_output_bit(0, 0.25);
        metrics.shard(0).record_batch(800, 100);
        let snap = metrics.snapshot();
        assert!((snap.total_accounted_entropy_bits - 1000.0).abs() < 1e-9);
        assert!((snap.per_shard[0].entropy_per_output_bit - 0.25).abs() < 1e-15);
    }

    #[test]
    fn snapshots_serialize_and_round_trip() {
        let metrics = EngineMetrics::new(1);
        metrics.shard(0).record_batch(8, 1);
        let snap = metrics.snapshot();
        let value = serde::Serialize::to_value(&snap);
        let back: MetricsSnapshot = serde::Deserialize::from_value(&value).unwrap();
        assert_eq!(snap, back);
    }

    #[test]
    fn pool_children_flatten_into_the_snapshot() {
        let metrics = EngineMetrics::new(2);
        assert!(metrics.snapshot().pool_children.is_empty());
        let status = |child: usize, state: &str| ChildStatus {
            child,
            label: format!("model(p_one=0.5) #{child}"),
            state: state.to_string(),
            entropy_per_bit: 1.0,
            credited_entropy_per_bit: if state == "serving" { 1.0 } else { 0.0 },
            quarantines: u64::from(state != "serving"),
            reinstatements: 0,
        };
        metrics.record_pool_children(1, vec![status(0, "serving"), status(1, "quarantined")]);
        let snap = metrics.snapshot();
        assert_eq!(snap.pool_children.len(), 2);
        assert_eq!(snap.pool_children[0].shard, 1);
        assert_eq!(snap.pool_children[1].status.state, "quarantined");
        assert_eq!(snap.pool_children[1].status.credited_entropy_per_bit, 0.0);
        // Republishing replaces the slot rather than appending.
        metrics.record_pool_children(1, vec![status(0, "serving"), status(1, "probation")]);
        assert_eq!(metrics.snapshot().pool_children.len(), 2);
        let value = serde::Serialize::to_value(&metrics.snapshot());
        let back: MetricsSnapshot = serde::Deserialize::from_value(&value).unwrap();
        assert_eq!(back.pool_children[1].status.state, "probation");
    }
}
