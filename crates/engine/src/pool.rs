//! The sharded worker pool: one independently-seeded source per shard, each feeding
//! the bounded batch channel through its own raw-bit lane.
//!
//! Design notes:
//!
//! * **Sharding** — shard `i` builds its source from `derive_seed(seed, i)`, so shards
//!   are statistically independent streams of the same configured generator (the
//!   software analogue of instantiating the same RO-TRNG design N times on a die).
//! * **Backpressure** — workers publish into a bounded `sync_channel`; when the
//!   consumer lags, workers block on `send` instead of buffering unboundedly.
//! * **Budgets** — an optional byte budget is claimed atomically per batch across all
//!   shards; workers stop as soon as the budget is spent.
//! * **Health gating** — raw bits are drawn through the shard's raw-bit lane
//!   (`SourceLane`: RCT/APT, the `σ²_N` thermal sweep, the raw audit) *before*
//!   conditioning, the same lane every pool child runs.  The worker keeps the
//!   conditioned half: output is withheld until the startup battery passes, and
//!   an alarm or a tripped lane terminates the shard with an error on the stream.
//! * **Entropy accounting** — every shard's pipeline carries an
//!   [`EntropyLedger`]: seeded from the source's model-backed (dependent-jitter-aware)
//!   claim, folded through the configured [`ConditionerSpec`], calibrating the
//!   continuous-test cutoffs, surfacing in the metrics, and enforcing the
//!   [`EngineConfig::min_output_entropy`] emission policy (spawn refuses with
//!   [`EngineError::EntropyDeficit`] when the accounted output entropy is short).

use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use ptrng_obs::probe::elapsed_ns;
use ptrng_obs::{EventKind, FlightRecorder, Journal, Postmortem, Probe};
use ptrng_trng::conditioning::{
    ConditioningChain, ConditioningStage, EntropyLedger, Sha256Stage, VonNeumannStage,
    XorDecimateStage, SHA256_DEFAULT_RATIO,
};

use crate::audit::{AuditConfig, AuditRecord, EntropyAudit};
use crate::fault::FaultPlan;
use crate::health::{HealthConfig, HealthMonitor, HealthState};
use crate::lane::{SourceLane, Trip, DEFAULT_SWEEP_CADENCE};
use crate::metrics::{AlarmKind, EngineMetrics};
use crate::observatory::Observatory;
use crate::source::{derive_seed, EntropySource, SourceSpec};
use crate::stream::{Batch, BitPacker, ByteBudget, ByteStream, Message};
use crate::{EngineError, Result};

/// One conditioning stage of a shard's pipeline, in declarative (serializable) form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StageSpec {
    /// XOR non-overlapping groups of `factor` bits (factor-of-`factor` decimation).
    XorDecimate(usize),
    /// Von Neumann debiasing (variable-rate, bias-free output).
    VonNeumann,
    /// SP 800-90B §3.1.5 SHA-256 vetted conditioner consuming `ratio` input bits per
    /// output bit.
    Sha256 {
        /// Input bits consumed per output bit (the compression ratio).
        ratio: usize,
    },
}

impl StageSpec {
    fn build(&self) -> Result<Box<dyn ConditioningStage>> {
        Ok(match self {
            StageSpec::XorDecimate(factor) => Box::new(XorDecimateStage::new(*factor)?),
            StageSpec::VonNeumann => Box::new(VonNeumannStage::new()),
            StageSpec::Sha256 { ratio } => Box::new(Sha256Stage::new(*ratio)?),
        })
    }
}

/// Declarative description of a shard's conditioning pipeline: an ordered list of
/// [`StageSpec`]s, each shard building its own stateful [`ConditioningChain`] from it.
///
/// The empty spec (the default) is the identity — raw bits are published unchanged,
/// copy-free on the hot path.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConditionerSpec {
    stages: Vec<StageSpec>,
}

impl ConditionerSpec {
    /// The identity conditioner (publish raw bits).
    pub fn none() -> Self {
        Self::default()
    }

    /// A single XOR-decimation stage.
    pub fn xor(factor: usize) -> Self {
        Self {
            stages: vec![StageSpec::XorDecimate(factor)],
        }
    }

    /// A single von Neumann stage.
    pub fn von_neumann() -> Self {
        Self {
            stages: vec![StageSpec::VonNeumann],
        }
    }

    /// A single SHA-256 vetted-conditioner stage with the given compression ratio.
    pub fn sha256(ratio: usize) -> Self {
        Self {
            stages: vec![StageSpec::Sha256 { ratio }],
        }
    }

    /// An arbitrary stage chain (first stage sees the raw bits).
    pub fn chain(stages: Vec<StageSpec>) -> Self {
        Self { stages }
    }

    /// Parses a CLI-style conditioner specification: `none`, or a comma-separated
    /// chain of `xor:K`, `vn` and `sha256[:RATIO]` stages (default ratio
    /// [`SHA256_DEFAULT_RATIO`]), e.g. `xor:2,sha256:2`.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown stages or out-of-domain parameters.
    pub fn parse(spec: &str) -> Result<Self> {
        let err = |reason: String| EngineError::SpecParse {
            spec: spec.to_string(),
            reason,
        };
        if spec == "none" || spec.is_empty() {
            return Ok(Self::none());
        }
        let mut stages = Vec::new();
        for part in spec.split(',') {
            let stage = match part {
                "vn" => StageSpec::VonNeumann,
                "sha256" => StageSpec::Sha256 {
                    ratio: SHA256_DEFAULT_RATIO,
                },
                other => {
                    if let Some(k) = other.strip_prefix("xor:") {
                        let factor = k
                            .parse::<usize>()
                            .map_err(|_| err(format!("invalid xor factor in `{other}`")))?;
                        StageSpec::XorDecimate(factor)
                    } else if let Some(r) = other.strip_prefix("sha256:") {
                        let ratio = r
                            .parse::<usize>()
                            .map_err(|_| err(format!("invalid sha256 ratio in `{other}`")))?;
                        StageSpec::Sha256 { ratio }
                    } else {
                        return Err(err(format!(
                            "unknown conditioning stage `{other}` (none, xor:K, vn, sha256[:R])"
                        )));
                    }
                }
            };
            stages.push(stage);
        }
        Ok(Self { stages })
    }

    /// The declared stages.
    pub fn stages(&self) -> &[StageSpec] {
        &self.stages
    }

    /// Whether this is the identity conditioner.
    pub fn is_identity(&self) -> bool {
        self.stages.is_empty()
    }

    /// Builds the stateful per-shard chain.
    ///
    /// # Errors
    ///
    /// Returns an error when a stage's parameters are out of domain.
    pub fn build(&self) -> Result<ConditioningChain> {
        let stages = self
            .stages
            .iter()
            .map(StageSpec::build)
            .collect::<Result<Vec<_>>>()?;
        Ok(ConditioningChain::new(stages))
    }

    /// Accounted ledger of the conditioned output for a given source ledger.
    ///
    /// # Errors
    ///
    /// Returns an error when a stage's parameters or accounting are out of domain.
    pub fn ledger(&self, source: &EntropyLedger) -> Result<EntropyLedger> {
        Ok(self.build()?.transform(source)?)
    }
}

/// Configuration of a sharded engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Number of shards (worker threads), each with an independently-seeded source.
    pub shards: usize,
    /// The source every shard instantiates.
    pub spec: SourceSpec,
    /// Base seed; shard `i` uses `derive_seed(seed, i)`.
    pub seed: u64,
    /// Raw bits generated per batch per shard.
    pub batch_bits: usize,
    /// Bounded channel capacity, in batches.
    pub queue_batches: usize,
    /// Optional total output budget in bytes (across all shards).
    pub budget_bytes: Option<u64>,
    /// Conditioning pipeline applied after the raw-bit health checks.
    pub conditioner: ConditionerSpec,
    /// Emission policy: refuse to spawn (and emit) when the accounted min-entropy per
    /// conditioned output bit falls below this threshold.
    pub min_output_entropy: Option<f64>,
    /// Health-monitor configuration shared by every shard.
    pub health: HealthConfig,
    /// When a thermal online test is configured, run one `σ²_N` counter sweep on a
    /// shard's first batch and then every this many batches (default 64, the
    /// cadence pool children always use).
    pub thermal_check_batches: usize,
    /// Optional streaming entropy audit: shard 0 runs the SP 800-90B §6.3 estimator
    /// battery over windows of its raw (and, for non-identity chains, conditioned)
    /// bits, alarming when the battery estimate undercuts the ledger claim by more
    /// than the margin.  Off by default — the battery costs far more than
    /// generation, so it is a validation facility, not a hot-path default.
    pub audit: Option<AuditConfig>,
    /// Extends the audit from shard 0 to **every** lane: each shard's raw and
    /// conditioned streams get their own audit (lanes `shardN/raw`,
    /// `shardN/conditioned`), and every pool child inherits one too.  Requires
    /// `audit` to be set; pair it with a sparse [`AuditCadence`](crate::audit::AuditCadence)
    /// to keep the overhead within budget (see `docs/operations.md`).
    pub audit_every_lane: bool,
    /// Deterministic fault injection: wraps one pool child (per shard) in a
    /// [`FaultSource`](crate::fault::FaultSource) executing the plan.  Only valid
    /// with a [`SourceSpec::Pool`] spec (`pool:` or `xor:K`) — the drill exercises
    /// the pool's quarantine machinery, not production sources.
    pub fault: Option<FaultPlan>,
}

impl EngineConfig {
    /// A configuration with defaults: 1 shard, 8192-bit batches, a 4-batch queue, no
    /// budget, identity conditioning, no emission threshold, default health monitoring.
    pub fn new(spec: SourceSpec) -> Self {
        Self {
            shards: 1,
            spec,
            seed: 0,
            batch_bits: 8192,
            queue_batches: 4,
            budget_bytes: None,
            conditioner: ConditionerSpec::none(),
            min_output_entropy: None,
            health: HealthConfig::default(),
            thermal_check_batches: DEFAULT_SWEEP_CADENCE,
            audit: None,
            audit_every_lane: false,
            fault: None,
        }
    }

    /// Sets the shard count.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the base seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-shard batch size in raw bits.
    #[must_use]
    pub fn batch_bits(mut self, bits: usize) -> Self {
        self.batch_bits = bits;
        self
    }

    /// Sets the total output budget in bytes.
    #[must_use]
    pub fn budget_bytes(mut self, budget: Option<u64>) -> Self {
        self.budget_bytes = budget;
        self
    }

    /// Sets the conditioning pipeline.
    #[must_use]
    pub fn conditioner(mut self, conditioner: ConditionerSpec) -> Self {
        self.conditioner = conditioner;
        self
    }

    /// Sets the emission threshold on the accounted min-entropy per output bit.
    #[must_use]
    pub fn min_output_entropy(mut self, min_h: Option<f64>) -> Self {
        self.min_output_entropy = min_h;
        self
    }

    /// Sets the health configuration.
    #[must_use]
    pub fn health(mut self, health: HealthConfig) -> Self {
        self.health = health;
        self
    }

    /// Enables (or disables) the streaming entropy audit on shard 0.
    #[must_use]
    pub fn audit(mut self, audit: Option<AuditConfig>) -> Self {
        self.audit = audit;
        self
    }

    /// Extends the configured audit to every shard's lanes and every pool child.
    #[must_use]
    pub fn audit_every_lane(mut self, every_lane: bool) -> Self {
        self.audit_every_lane = every_lane;
        self
    }

    /// Arms a deterministic fault-injection plan (pool specs only).
    #[must_use]
    pub fn fault(mut self, fault: Option<FaultPlan>) -> Self {
        self.fault = fault;
        self
    }

    fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(EngineError::InvalidParameter {
                name: "shards",
                reason: "at least one shard is required".to_string(),
            });
        }
        if self.batch_bits < 8 {
            return Err(EngineError::InvalidParameter {
                name: "batch_bits",
                reason: "batches must hold at least 8 bits".to_string(),
            });
        }
        // Stage parameters (zero factors/ratios) are rejected by the chain build;
        // partial groups no longer constrain batch_bits — stages carry them over.
        self.conditioner.build()?;
        if let Some(min_h) = self.min_output_entropy {
            if !(min_h > 0.0 && min_h <= 1.0) {
                return Err(EngineError::InvalidParameter {
                    name: "min_output_entropy",
                    reason: format!("must be in (0, 1] for binary output, got {min_h}"),
                });
            }
        }
        if let Some(audit) = &self.audit {
            audit.validate()?;
        }
        if self.audit_every_lane && self.audit.is_none() {
            return Err(EngineError::InvalidParameter {
                name: "audit_every_lane",
                reason: "auditing every lane requires an audit configuration".to_string(),
            });
        }
        if self.queue_batches == 0 {
            return Err(EngineError::InvalidParameter {
                name: "queue_batches",
                reason: "the queue must hold at least one batch".to_string(),
            });
        }
        if self.thermal_check_batches == 0 {
            return Err(EngineError::InvalidParameter {
                name: "thermal_check_batches",
                reason: "the thermal sweep interval must be at least one batch".to_string(),
            });
        }
        if self.fault.is_some() && !matches!(self.spec, SourceSpec::Pool { .. }) {
            return Err(EngineError::InvalidParameter {
                name: "fault",
                reason: "fault injection targets a pool child; the source spec must be \
                         a pool (`pool:CHILD+CHILD+...` or `xor:K`)"
                    .to_string(),
            });
        }
        Ok(())
    }
}

/// A running sharded engine.
pub struct Engine {
    stream: ByteStream,
    metrics: Arc<EngineMetrics>,
    workers: Vec<JoinHandle<()>>,
    output_ledger: EntropyLedger,
    obs: Arc<Observatory>,
}

impl Engine {
    /// Builds every shard's source, spawns the workers, and returns the handle.
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid configuration or when a source rejects its
    /// parameters (fails fast, before any thread starts).
    pub fn spawn(config: EngineConfig) -> Result<Self> {
        Self::spawn_with_journal(config, None)
    }

    /// Like [`Engine::spawn`], additionally attaching a JSONL [`Journal`] sink that
    /// receives every alarm postmortem (the `--journal` flag of `ptrngd` and
    /// `ptrng-serve`).
    ///
    /// # Errors
    ///
    /// Returns an error for an invalid configuration or when a source rejects its
    /// parameters (fails fast, before any thread starts).
    pub fn spawn_with_journal(config: EngineConfig, journal: Option<Arc<Journal>>) -> Result<Self> {
        config.validate()?;
        // Every-lane auditing reaches into pools too: children without their own
        // audit configuration inherit the engine's, claim override stripped (the
        // override speaks about the engine *output*, not a child's raw stream).
        let spec = match (&config.spec, config.audit_every_lane, &config.audit) {
            (SourceSpec::Pool { children, options }, true, Some(audit))
                if options.audit.is_none() =>
            {
                let mut options = options.clone();
                options.audit = Some(audit.clone().claim(None));
                SourceSpec::Pool {
                    children: children.clone(),
                    options,
                }
            }
            _ => config.spec.clone(),
        };
        // Build all sources first so configuration errors surface synchronously.
        let sources: Vec<Box<dyn EntropySource>> = (0..config.shards)
            .map(|shard| {
                let shard_seed = derive_seed(config.seed, shard as u64);
                match (&spec, &config.fault) {
                    // An armed fault plan wraps the targeted child of every
                    // shard's pool (drills typically run one shard).
                    (SourceSpec::Pool { children, options }, Some(plan)) => {
                        Ok(Box::new(crate::pooled::PoolSource::from_specs_with_fault(
                            children,
                            options.clone(),
                            shard_seed,
                            Some(plan),
                        )?) as Box<dyn EntropySource>)
                    }
                    _ => spec.build(shard_seed),
                }
            })
            .collect::<Result<_>>()?;
        if config.health.thermal.is_some() {
            if let Some(source) = sources.iter().find(|s| !s.supports_thermal_sweep()) {
                return Err(EngineError::InvalidParameter {
                    name: "health.thermal",
                    reason: format!(
                        "source `{}` has no σ²_N counter sweep; the thermal online test \
                         cannot monitor it",
                        source.label()
                    ),
                });
            }
        }
        // Seed one entropy ledger per shard from the source's model-backed
        // (dependent-jitter-aware) claim and fold it through the conditioning chain;
        // the raw ledger calibrates the continuous-test cutoffs, the conditioned
        // ledger drives the emission policy and the accounted-entropy metrics.
        let raw_ledgers: Vec<EntropyLedger> = sources
            .iter()
            .map(|source| {
                EntropyLedger::source(&source.label(), source.entropy_per_bit())
                    .map_err(EngineError::from)
            })
            .collect::<Result<_>>()?;
        let output_ledgers: Vec<EntropyLedger> = raw_ledgers
            .iter()
            .map(|ledger| config.conditioner.ledger(ledger))
            .collect::<Result<_>>()?;
        if let Some(required) = config.min_output_entropy {
            for (shard, ledger) in output_ledgers.iter().enumerate() {
                let accounted = ledger.min_entropy_per_bit();
                if accounted < required {
                    return Err(EngineError::EntropyDeficit {
                        shard,
                        accounted,
                        required,
                        ledger: Box::new(ledger.clone()),
                    });
                }
            }
        }
        let monitors: Vec<HealthMonitor> = raw_ledgers
            .iter()
            .map(|ledger| HealthMonitor::new(&config.health, ledger))
            .collect::<Result<_>>()?;

        let (tx, rx) = sync_channel::<Message>(config.queue_batches);
        let metrics = Arc::new(EngineMetrics::new(config.shards));
        for (shard, ledger) in output_ledgers.iter().enumerate() {
            metrics.set_entropy_per_output_bit(shard, ledger.min_entropy_per_bit());
        }
        let budget = Arc::new(ByteBudget::new(config.budget_bytes));
        let obs = Arc::new(Observatory::new(
            config.shards,
            config.conditioner.build()?.stage_labels(),
            journal,
        ));

        let mut workers = Vec::with_capacity(config.shards);
        for (shard, (source, monitor)) in sources.into_iter().zip(monitors).enumerate() {
            // By default the audit runs on shard 0 only: shards share one spec
            // (hence one claim), so one audited stream checks the accounting for
            // all of them at a fraction of the battery cost.  With
            // `audit_every_lane` every shard gets its own pair of lanes, labelled
            // by shard so the metrics keep them apart.
            let audited = config.audit_every_lane || shard == 0;
            let (raw_audit, output_audit) = match &config.audit {
                Some(audit) if audited => {
                    let (raw_lane, conditioned_lane) = if config.audit_every_lane {
                        (
                            format!("shard{shard}/raw"),
                            format!("shard{shard}/conditioned"),
                        )
                    } else {
                        ("raw".to_string(), "conditioned".to_string())
                    };
                    // An asserted claim override speaks about the *output*: with a
                    // real chain it applies to the conditioned lane only, and the
                    // raw lane keeps auditing the raw ledger's own claim (the two
                    // ledgers differ, so one override cannot be honest for both).
                    let raw_config = if config.conditioner.is_identity() {
                        audit.clone()
                    } else {
                        audit.clone().claim(None)
                    };
                    let raw = EntropyAudit::new(
                        &raw_lane,
                        raw_ledgers[shard].min_entropy_per_bit(),
                        raw_config,
                    )?;
                    // With the identity chain the conditioned stream *is* the raw
                    // stream; a second lane would double the cost to audit the same
                    // bits.
                    let conditioned = if config.conditioner.is_identity() {
                        None
                    } else {
                        Some(EntropyAudit::new(
                            &conditioned_lane,
                            output_ledgers[shard].min_entropy_per_bit(),
                            audit.clone(),
                        )?)
                    };
                    (Some(raw), conditioned)
                }
                _ => (None, None),
            };
            let recorder = Arc::clone(obs.recorder(shard));
            let shard_id = shard as u32;
            let mut chain = config.conditioner.build()?;
            chain.instrument(
                obs.stage_histograms()
                    .iter()
                    .enumerate()
                    .map(|(index, (_, histogram))| {
                        Probe::new(Arc::clone(histogram), EventKind::StageApplied)
                            .with_recorder(Arc::clone(&recorder), Some(shard_id))
                            .with_tag(index as u64)
                    })
                    .collect(),
            );
            let worker = ShardWorker {
                shard,
                source_label: source.label(),
                source_claim: source.entropy_per_bit(),
                lane: SourceLane::new(
                    source,
                    monitor,
                    raw_audit,
                    config.thermal_check_batches,
                    None,
                ),
                chain,
                output_audit,
                batch_bits: config.batch_bits,
                budget: Arc::clone(&budget),
                metrics: Arc::clone(&metrics),
                tx: tx.clone(),
                batch_probe: Probe::new(
                    Arc::clone(obs.batch_histogram()),
                    EventKind::BatchGenerated,
                )
                .with_recorder(Arc::clone(&recorder), Some(shard_id)),
                audit_probe: Probe::new(Arc::clone(obs.audit_histogram()), EventKind::AuditWindow)
                    .with_recorder(Arc::clone(&recorder), Some(shard_id)),
                recorder,
                ledger_value: serde::Serialize::to_value(&output_ledgers[shard]),
                obs: Arc::clone(&obs),
            };
            let handle = std::thread::Builder::new()
                .name(format!("ptrng-shard-{shard}"))
                .spawn(move || worker.run())
                .map_err(|e| EngineError::InvalidParameter {
                    name: "shards",
                    reason: format!("failed to spawn worker thread: {e}"),
                })?;
            workers.push(handle);
        }
        drop(tx);

        // Shards share the spec, so their accounted output ledgers are identical;
        // shard 0's is kept as *the* conditioned-output ledger of the engine.
        let output_ledger = output_ledgers
            .into_iter()
            .next()
            .expect("at least one shard was validated");
        Ok(Self {
            stream: ByteStream::new(rx, config.shards),
            metrics,
            workers,
            output_ledger,
            obs,
        })
    }

    /// The engine's observability surface: flight recorders, latency histograms,
    /// postmortems and the optional journal.
    pub fn observatory(&self) -> &Arc<Observatory> {
        &self.obs
    }

    /// The batch stream (also reachable by iterating over `&mut Engine`).
    pub fn stream_mut(&mut self) -> &mut ByteStream {
        &mut self.stream
    }

    /// Shared runtime counters.
    pub fn metrics(&self) -> &EngineMetrics {
        &self.metrics
    }

    /// The accounted entropy ledger of the conditioned output (identical across
    /// shards: the spec — not the seed — determines the accounting).
    pub fn output_ledger(&self) -> &EntropyLedger {
        &self.output_ledger
    }

    /// Converts the engine into a shareable multi-consumer [`crate::tap::EntropyTap`]:
    /// any number of threads can then draw bytes concurrently (the serving interface
    /// used by `ptrng-serve`).
    pub fn into_tap(self) -> crate::tap::EntropyTap {
        crate::tap::EntropyTap::new(
            self.stream,
            self.metrics,
            self.workers,
            self.output_ledger,
            self.obs,
        )
    }

    /// Drains the stream into one byte vector (see [`ByteStream::read_to_end`]).
    ///
    /// # Errors
    ///
    /// Returns the first alarm raised by any shard.
    pub fn read_to_end(&mut self) -> Result<Vec<u8>> {
        self.stream.read_to_end()
    }

    /// Waits for every worker to terminate.
    ///
    /// Call after draining the stream (or dropping interest in it): workers blocked on
    /// a full queue unblock as soon as the receiver is dropped or drained.
    ///
    /// # Errors
    ///
    /// Returns an error when a worker panicked.
    pub fn join(self) -> Result<()> {
        // Dropping the stream first closes the channel, unblocking workers that are
        // still trying to publish.
        drop(self.stream);
        for (shard, handle) in self.workers.into_iter().enumerate() {
            handle
                .join()
                .map_err(|_| EngineError::WorkerPanicked { shard })?;
        }
        Ok(())
    }
}

impl Iterator for Engine {
    type Item = Result<Batch>;

    fn next(&mut self) -> Option<Self::Item> {
        self.stream.next()
    }
}

struct ShardWorker {
    shard: usize,
    /// The shard's raw-bit lane: its source, RCT/APT, thermal sweeps and raw audit.
    lane: SourceLane,
    /// The source's label, cached for dynamic-ledger rebuilds.
    source_label: String,
    /// The source-level claim currently accounted (tracks
    /// [`EntropySource::current_entropy_per_bit`] for pools under quarantine).
    source_claim: f64,
    chain: ConditioningChain,
    /// Entropy audit over the conditioned bits (shard 0, non-identity chains).
    output_audit: Option<EntropyAudit>,
    batch_bits: usize,
    budget: Arc<ByteBudget>,
    metrics: Arc<EngineMetrics>,
    tx: SyncSender<Message>,
    /// Whole-batch latency probe (histogram + `batch-generated` events).
    batch_probe: Probe,
    /// Audit-battery probe (`audit-window` events tagged with the lane index).
    audit_probe: Probe,
    /// This shard's flight recorder (health verdicts, alarm capture).
    recorder: Arc<FlightRecorder>,
    /// The conditioned-output ledger as a JSON tree, embedded into postmortems.
    ledger_value: serde::Value,
    obs: Arc<Observatory>,
}

// `audit-window` lane indices: the shard's raw and conditioned lanes, and pool
// child K at `POOL_CHILD_AUDIT_LANE + K`.
const RAW_AUDIT_LANE: u64 = 0;
const CONDITIONED_AUDIT_LANE: u64 = 1;
const POOL_CHILD_AUDIT_LANE: u64 = 2;

impl ShardWorker {
    fn run(mut self) {
        match self.generate() {
            Ok(()) => {
                let _ = self.tx.send(Message::ShardDone(self.shard));
            }
            Err(WorkerExit::Alarm(kind, reason)) => self.alarm(kind, reason),
            Err(WorkerExit::ConsumerGone) => {
                let _ = self.tx.send(Message::ShardDone(self.shard));
            }
            // Surface simulation failures through the alarm path: the shard can no
            // longer vouch for its output.
            Err(WorkerExit::Source(error)) => {
                self.alarm(AlarmKind::SourceFailure, format!("source failure: {error}"))
            }
        }
    }

    /// Non-terminal observability path: captures the postmortem (flight-recorder
    /// snapshot plus the ledger in force), journals it and records the typed alarm
    /// on the metrics — without terminating the stream.  Pool quarantine and
    /// reinstatement events take this path; terminal alarms go through
    /// [`ShardWorker::alarm`], which adds the stream message.
    fn notice(&self, kind: AlarmKind, reason: &str) {
        self.recorder
            .record(EventKind::Alarm, Some(self.shard as u32), kind as u64, 0);
        let postmortem = Postmortem {
            shard: self.shard,
            kind: kind.code().to_string(),
            reason: reason.to_string(),
            t_ns: self.obs.clock().now_ns(),
            events: self.recorder.snapshot(),
            ledger: self.ledger_value.clone(),
        };
        if let Some(journal) = self.obs.journal() {
            journal.append("alarm-postmortem", &postmortem);
        }
        self.obs.postmortems().push(postmortem);
        self.metrics.record_alarm(self.shard, kind, reason);
    }

    /// Terminal alarm path: [`ShardWorker::notice`] plus the terminal stream
    /// message that ends the shard.
    fn alarm(&self, kind: AlarmKind, reason: String) {
        self.notice(kind, &reason);
        let _ = self.tx.send(Message::Alarm {
            shard: self.shard,
            kind,
            reason,
        });
    }

    /// Drains pool lifecycle events and child audit windows accumulated during
    /// the last draw and re-accounts the dynamic entropy claim: when children
    /// enter or leave quarantine the source's current claim changes, and the
    /// published per-output-bit entropy (and the postmortem ledger) must follow
    /// it honestly.  A no-op for simple sources.
    fn sync_source_state(&mut self) {
        let source = &mut self.lane.source;
        let (events, audits) = (source.poll_events(), source.poll_audits());
        for event in events {
            self.notice(
                event.kind,
                &format!("child {} ({}): {}", event.child, event.label, event.reason),
            );
        }
        for (child, mut record) in audits {
            record.snapshot.lane = format!("shard{}/{}", self.shard, record.snapshot.lane);
            self.record_audit(POOL_CHILD_AUDIT_LANE + child as u64, record);
        }
        let current = self.lane.source.current_entropy_per_bit();
        if (current - self.source_claim).abs() > 1e-15 {
            self.source_claim = current;
            let output_claim = if current > 0.0 {
                EntropyLedger::source(&self.source_label, current)
                    .and_then(|ledger| self.chain.transform(&ledger))
                    .map(|ledger| {
                        self.ledger_value = serde::Serialize::to_value(&ledger);
                        ledger.min_entropy_per_bit()
                    })
                    .unwrap_or(0.0)
            } else {
                0.0
            };
            self.metrics
                .set_entropy_per_output_bit(self.shard, output_claim);
        }
        let children = self.lane.source.children_status();
        if !children.is_empty() {
            self.metrics.record_pool_children(self.shard, children);
        }
    }

    fn generate(&mut self) -> std::result::Result<(), WorkerExit> {
        let mut raw = vec![0u8; self.batch_bits];
        // Conditioned-bit scratch, reused across batches (the chain's own ping-pong
        // buffers are persistent too, so the steady state allocates nothing).
        let mut conditioned: Vec<u8> = Vec::new();
        let mut packer = BitPacker::new();
        // Conditioned bits accepted while the startup battery is still judging.
        let mut holdback: Vec<u8> = Vec::new();
        let mut raw_bits_unpublished = 0u64;
        let mut health_code = state_code(self.lane.monitor.state());

        loop {
            if self.budget.exhausted() {
                return Ok(());
            }
            let batch_start = Instant::now();
            // The raw half: fill, RCT/APT, a σ²_N sweep when due, the raw audit.
            let drawn = self.lane.draw(&mut raw);
            // Quarantine/reinstatement events must surface before the shard acts
            // on the draw, even when it tripped (a pool whose last serving child
            // just quarantined).
            self.sync_source_state();
            if let Some(record) = drawn.map_err(|trip| self.trip_exit(trip))? {
                self.record_audit(RAW_AUDIT_LANE, record);
            }
            raw_bits_unpublished += raw.len() as u64;

            // The conditioned half: the FIPS startup battery judges the conditioned
            // output.  The identity chain publishes `raw` directly (copy-free); real
            // chains stream through the reusable scratch, carrying partial groups
            // across batches.
            let processed: &[u8] = if self.chain.is_identity() {
                &raw
            } else {
                conditioned.clear();
                self.chain
                    .process(&raw, &mut conditioned)
                    .map_err(EngineError::from)
                    .map_err(WorkerExit::Source)?;
                &conditioned
            };
            if let HealthState::Alarmed(reason) = self
                .lane
                .monitor
                .observe_output_bits(processed)
                .map_err(WorkerExit::Source)?
            {
                return Err(WorkerExit::Alarm(reason.kind(), reason.to_string()));
            }
            if let Some(audit) = &mut self.output_audit {
                if let Some(record) = audit
                    .observe_record(processed)
                    .map_err(WorkerExit::Source)?
                {
                    let overclaim = record.overclaimed.then(|| record.snapshot.alarm_reason());
                    self.record_audit(CONDITIONED_AUDIT_LANE, record);
                    if let Some(reason) = overclaim {
                        return Err(WorkerExit::Alarm(AlarmKind::AuditOverclaim, reason));
                    }
                }
            }
            self.batch_probe
                .record_tagged(elapsed_ns(batch_start), (processed.len() / 8) as u64);
            let state = self.lane.monitor.state();
            let code = state_code(state);
            if code != health_code {
                self.recorder.record(
                    EventKind::HealthVerdict,
                    Some(self.shard as u32),
                    code,
                    health_code,
                );
                health_code = code;
            }
            if matches!(state, HealthState::Startup) {
                holdback.extend_from_slice(processed);
                continue;
            }
            if !holdback.is_empty() {
                packer.push_bits(&holdback);
                holdback.clear();
            }
            packer.push_bits(processed);

            let bytes = packer.drain_bytes();
            if bytes.is_empty() {
                continue;
            }
            let granted = self.budget.claim(bytes.len());
            if granted == 0 {
                return Ok(());
            }
            let batch = Batch {
                shard: self.shard,
                bytes: bytes[..granted].to_vec(),
                raw_bits: raw_bits_unpublished as usize,
            };
            self.metrics
                .shard(self.shard)
                .record_batch(raw_bits_unpublished, granted as u64);
            raw_bits_unpublished = 0;
            self.publish(batch)?;
            if granted < bytes.len() {
                // Budget boundary hit mid-batch; the tail is discarded by design.
                return Ok(());
            }
        }
    }

    /// Turns a tripped raw lane into the shard's exit.  A latched test or an
    /// overclaimed audit window is an alarm — the ledger's claim refuted by the
    /// black-box battery is exactly as severe as a failed health test — and a
    /// failed step is a source failure.
    fn trip_exit(&self, trip: Trip) -> WorkerExit {
        match trip {
            Trip::Health(reason) => WorkerExit::Alarm(reason.kind(), reason.to_string()),
            Trip::Overclaim(record) => {
                let reason = record.snapshot.alarm_reason();
                self.record_audit(RAW_AUDIT_LANE, *record);
                WorkerExit::Alarm(AlarmKind::AuditOverclaim, reason)
            }
            Trip::Fill(error) | Trip::NonBit(error) | Trip::Audit(error) => {
                WorkerExit::Source(error)
            }
            Trip::Stall { .. } | Trip::Sweep(_) | Trip::Fit(_) => {
                WorkerExit::Source(EngineError::SourceFault {
                    reason: trip.to_string(),
                })
            }
        }
    }

    /// The one audit hookup, for the shard's own lanes and its pool's children
    /// alike: the window's battery time feeds the audit histogram and an
    /// `audit-window` event tagged with `lane`, its per-unit timings the
    /// estimator histograms, and its summary the metrics.
    fn record_audit(&self, lane: u64, record: AuditRecord) {
        self.audit_probe.record_tagged(record.battery_ns, lane);
        self.obs.record_estimator_timings(&record.timings);
        self.metrics.record_audit(record.snapshot);
    }

    /// Blocking send: a worker parked on a full queue is woken by the channel both
    /// when the consumer drains a slot and when the receiver is dropped.
    fn publish(&self, batch: Batch) -> std::result::Result<(), WorkerExit> {
        self.tx
            .send(Message::Batch(batch))
            .map_err(|_| WorkerExit::ConsumerGone)
    }
}

enum WorkerExit {
    Alarm(AlarmKind, String),
    ConsumerGone,
    Source(EngineError),
}

/// Stable health-state code for `health-verdict` events: 0 startup, 1 healthy,
/// 2 suspect, 3 alarmed.
fn state_code(state: &HealthState) -> u64 {
    match state {
        HealthState::Startup => 0,
        HealthState::Healthy => 1,
        HealthState::Suspect { .. } => 2,
        HealthState::Alarmed(_) => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::JitterProfile;
    use crate::stream::unpack_bits;

    fn model_config() -> EngineConfig {
        EngineConfig::new(SourceSpec::model(0.5).unwrap())
            .seed(11)
            .health(HealthConfig::default().without_startup_battery())
    }

    #[test]
    fn budget_is_respected_exactly() {
        let mut engine =
            Engine::spawn(model_config().shards(3).budget_bytes(Some(10_000))).unwrap();
        let bytes = engine.read_to_end().unwrap();
        assert_eq!(bytes.len(), 10_000);
        let snap = engine.metrics().snapshot();
        assert_eq!(snap.total_output_bytes, 10_000);
        assert_eq!(snap.alarms, 0);
        engine.join().unwrap();
    }

    #[test]
    fn shards_produce_distinct_streams() {
        // Unbudgeted: a shared budget can be spent by the first shards to start
        // before the last one publishes, so draw until every shard has published
        // 64 bytes (or the deadline passes), then shut down.
        let mut engine = Engine::spawn(model_config().shards(4)).unwrap();
        let mut per_shard: Vec<Vec<u8>> = vec![Vec::new(); 4];
        let deadline = Instant::now() + std::time::Duration::from_secs(60);
        while per_shard.iter().any(|shard| shard.len() < 64) {
            assert!(
                Instant::now() < deadline,
                "every shard contributes under fair backpressure: published {:?} bytes",
                per_shard.iter().map(Vec::len).collect::<Vec<_>>()
            );
            let batch = engine.stream_mut().next().unwrap().unwrap();
            per_shard[batch.shard].extend_from_slice(&batch.bytes);
        }
        engine.join().unwrap();
        for a in 0..4 {
            for b in (a + 1)..4 {
                let len = per_shard[a].len().min(per_shard[b].len()).min(64);
                assert_ne!(
                    &per_shard[a][..len],
                    &per_shard[b][..len],
                    "shards {a} and {b} emitted identical prefixes"
                );
            }
        }
    }

    #[test]
    fn engine_is_deterministic_per_seed_and_shard() {
        let run = || {
            let mut engine =
                Engine::spawn(model_config().shards(2).budget_bytes(Some(4096))).unwrap();
            let mut per_shard: Vec<Vec<u8>> = vec![Vec::new(); 2];
            for batch in engine.stream_mut() {
                let batch = batch.unwrap();
                per_shard[batch.shard].extend_from_slice(&batch.bytes);
            }
            engine.join().unwrap();
            per_shard
        };
        let a = run();
        let b = run();
        // Interleaving is nondeterministic; per-shard prefixes are not.
        for (x, y) in a.iter().zip(&b) {
            let len = x.len().min(y.len());
            assert_eq!(&x[..len], &y[..len]);
        }
    }

    #[test]
    fn stuck_source_alarms_through_the_stream() {
        // p_one ≈ 1: the repetition-count test must fire almost immediately; the
        // monitor's cutoff-claim floor keeps the calibrated cutoff finite.
        let config = EngineConfig::new(SourceSpec::model(0.9999).unwrap())
            .seed(3)
            .health(HealthConfig::default().without_startup_battery())
            .budget_bytes(Some(1 << 20));
        let mut engine = Engine::spawn(config).unwrap();
        let result = engine.read_to_end();
        assert!(
            matches!(result, Err(EngineError::HealthAlarm { .. })),
            "{result:?}"
        );
        assert_eq!(engine.metrics().snapshot().alarms, 1);
        engine.join().unwrap();
    }

    #[test]
    fn startup_battery_gates_publication() {
        // With the battery enabled the first published byte appears only after 20 000
        // raw bits were vetted; a tiny budget still gets served from the cleared
        // holdback.
        let config = EngineConfig::new(SourceSpec::model(0.5).unwrap())
            .seed(5)
            .budget_bytes(Some(64));
        let mut engine = Engine::spawn(config).unwrap();
        let bytes = engine.read_to_end().unwrap();
        assert_eq!(bytes.len(), 64);
        let snap = engine.metrics().snapshot();
        assert!(
            snap.total_raw_bits >= 20_000,
            "publication before the startup battery finished ({} raw bits)",
            snap.total_raw_bits
        );
        engine.join().unwrap();
    }

    #[test]
    fn xor_decimation_shrinks_output_accordingly() {
        let config = model_config()
            .conditioner(ConditionerSpec::xor(4))
            .budget_bytes(Some(1024));
        let mut engine = Engine::spawn(config).unwrap();
        let bytes = engine.read_to_end().unwrap();
        assert_eq!(bytes.len(), 1024);
        let snap = engine.metrics().snapshot();
        // 4 raw bits per output bit → at least 4 × 8 × 1024 raw bits.
        assert!(snap.total_raw_bits >= 4 * 8 * 1024);
        engine.join().unwrap();
    }

    #[test]
    fn ero_shards_generate_plausible_bits() {
        let spec = SourceSpec::ero(4, JitterProfile::Strong).unwrap();
        let config = EngineConfig::new(spec)
            .shards(2)
            .seed(1)
            .batch_bits(4096)
            .budget_bytes(Some(2048))
            .health(HealthConfig::default().without_startup_battery());
        let mut engine = Engine::spawn(config).unwrap();
        let bytes = engine.read_to_end().unwrap();
        engine.join().unwrap();
        assert_eq!(bytes.len(), 2048);
        let bits = unpack_bits(&bytes);
        let ones: usize = bits.iter().map(|&b| b as usize).sum();
        let p = ones as f64 / bits.len() as f64;
        assert!((p - 0.5).abs() < 0.06, "p(1) = {p}");
    }

    #[test]
    fn conditioner_specs_parse_and_round_trip() {
        assert_eq!(
            ConditionerSpec::parse("none").unwrap(),
            ConditionerSpec::none()
        );
        assert_eq!(
            ConditionerSpec::parse("xor:4").unwrap(),
            ConditionerSpec::xor(4)
        );
        assert_eq!(
            ConditionerSpec::parse("vn").unwrap(),
            ConditionerSpec::von_neumann()
        );
        assert_eq!(
            ConditionerSpec::parse("sha256").unwrap(),
            ConditionerSpec::sha256(SHA256_DEFAULT_RATIO)
        );
        assert_eq!(
            ConditionerSpec::parse("sha256:3").unwrap(),
            ConditionerSpec::sha256(3)
        );
        assert_eq!(
            ConditionerSpec::parse("xor:2,sha256:2").unwrap(),
            ConditionerSpec::chain(vec![
                StageSpec::XorDecimate(2),
                StageSpec::Sha256 { ratio: 2 }
            ])
        );
        assert!(ConditionerSpec::parse("rot13").is_err());
        assert!(ConditionerSpec::parse("xor:abc").is_err());
        assert!(ConditionerSpec::parse("sha256:x").is_err());
        assert!(ConditionerSpec::parse("xor:0").unwrap().build().is_err());
    }

    #[test]
    fn entropy_deficit_refuses_emission_at_spawn() {
        // A thermally-collapsed source models ~0.074 bits/bit; even the vetted
        // SHA-256 conditioner at ratio 2 cannot account 0.997 from that.
        let config = EngineConfig::new(SourceSpec::model(0.95).unwrap())
            .seed(1)
            .conditioner(ConditionerSpec::sha256(2))
            .min_output_entropy(Some(0.997))
            .health(HealthConfig::default().without_startup_battery());
        match Engine::spawn(config) {
            Err(EngineError::EntropyDeficit {
                accounted,
                required,
                ledger,
                ..
            }) => {
                assert!(accounted < required, "{accounted} vs {required}");
                assert!((ledger.min_entropy_per_bit() - accounted).abs() < 1e-15);
                // The typed ledger carries the whole provenance trail, and its
                // canonical JSON form is what network consumers receive.
                assert!(ledger.to_string().contains("sha256:2"), "{ledger}");
                assert!(
                    ledger.to_json().contains("sha256:2"),
                    "{}",
                    ledger.to_json()
                );
            }
            Err(other) => panic!("expected an entropy deficit, got {other}"),
            Ok(_) => panic!("expected an entropy deficit, engine spawned"),
        }

        // Nor can the deficit be laundered through the von Neumann corrector: its
        // ledger credit is capped by the consumed pair budget.
        let config = EngineConfig::new(SourceSpec::model(0.95).unwrap())
            .seed(1)
            .conditioner(ConditionerSpec::von_neumann())
            .min_output_entropy(Some(0.997))
            .health(HealthConfig::default().without_startup_battery());
        assert!(
            matches!(
                Engine::spawn(config),
                Err(EngineError::EntropyDeficit { .. })
            ),
            "vn must not bypass the emission policy"
        );

        // The same policy admits a full-entropy source.
        let config = EngineConfig::new(SourceSpec::model(0.5).unwrap())
            .seed(1)
            .budget_bytes(Some(1024))
            .conditioner(ConditionerSpec::sha256(2))
            .min_output_entropy(Some(0.997))
            .health(HealthConfig::default().without_startup_battery());
        let mut engine = Engine::spawn(config).unwrap();
        assert_eq!(engine.read_to_end().unwrap().len(), 1024);
        engine.join().unwrap();
    }

    #[test]
    fn metrics_account_conditioned_entropy() {
        let config = model_config()
            .conditioner(ConditionerSpec::sha256(2))
            .budget_bytes(Some(2048));
        let mut engine = Engine::spawn(config).unwrap();
        let bytes = engine.read_to_end().unwrap();
        let snap = engine.metrics().snapshot();
        engine.join().unwrap();
        assert_eq!(bytes.len(), 2048);
        // A full-entropy model source through the vetted conditioner accounts
        // (essentially) one bit per output bit.
        let shard = &snap.per_shard[0];
        assert!(
            shard.entropy_per_output_bit > 0.999,
            "h/bit {}",
            shard.entropy_per_output_bit
        );
        let expected = shard.output_bytes as f64 * 8.0 * shard.entropy_per_output_bit;
        assert!(
            (shard.accounted_entropy_bits - expected).abs() < 1e-6,
            "{} vs {expected}",
            shard.accounted_entropy_bits
        );
        assert!(snap.total_accounted_entropy_bits >= 2048.0 * 8.0 * 0.999);
    }

    #[test]
    fn sha256_conditioner_halves_throughput_and_passes_packing() {
        let config = model_config()
            .conditioner(ConditionerSpec::parse("sha256:2").unwrap())
            .budget_bytes(Some(1024));
        let mut engine = Engine::spawn(config).unwrap();
        let bytes = engine.read_to_end().unwrap();
        let snap = engine.metrics().snapshot();
        engine.join().unwrap();
        assert_eq!(bytes.len(), 1024);
        // Ratio 2: at least two raw bits per output bit.
        assert!(snap.total_raw_bits >= 2 * 8 * 1024);
    }

    #[test]
    fn entropy_audit_publishes_metrics_and_passes_an_honest_claim() {
        // Full-entropy model source, small audit window with a margin sized for it.
        let audit = AuditConfig::default().window_bits(1 << 15).margin(0.4);
        let config = model_config().audit(Some(audit)).budget_bytes(Some(8192));
        let mut engine = Engine::spawn(config).unwrap();
        let bytes = engine.read_to_end().unwrap();
        let snap = engine.metrics().snapshot();
        engine.join().unwrap();
        assert_eq!(bytes.len(), 8192);
        assert_eq!(snap.alarms, 0);
        let raw = snap
            .audits
            .iter()
            .find(|a| a.lane == "raw")
            .expect("the raw audit lane publishes a summary");
        assert!(raw.windows >= 1);
        assert_eq!(raw.overclaims, 0);
        assert!(raw.last_estimate > 0.5, "estimate {}", raw.last_estimate);
        assert!(
            (raw.claim - 1.0).abs() < 1e-12,
            "model:0.5 claims 1 bit/bit"
        );
    }

    #[test]
    fn entropy_audit_alarms_on_an_inflated_claim() {
        // A p = 0.95 source audited against an asserted claim of 0.9 bits/bit —
        // the independence-style overclaim.  The battery refutes it within the
        // first window and the shard terminates through the alarm path.
        let audit = AuditConfig::default().window_bits(1 << 14).claim(Some(0.9));
        let config = EngineConfig::new(SourceSpec::model(0.95).unwrap())
            .seed(7)
            .audit(Some(audit))
            .budget_bytes(Some(1 << 20))
            .health(HealthConfig::default().without_startup_battery());
        let mut engine = Engine::spawn(config).unwrap();
        let result = engine.read_to_end();
        assert!(
            matches!(result, Err(EngineError::HealthAlarm { ref reason, .. })
                if reason.contains("entropy audit")),
            "{result:?}"
        );
        let snap = engine.metrics().snapshot();
        engine.join().unwrap();
        assert_eq!(snap.alarms, 1);
        let raw = snap.audits.iter().find(|a| a.lane == "raw").unwrap();
        assert_eq!(raw.overclaims, 1);
        assert!(raw.last_estimate < 0.2, "estimate {}", raw.last_estimate);
    }

    #[test]
    fn entropy_audit_covers_the_conditioned_lane() {
        // A claim override asserts an *output* bound: the conditioned lane audits
        // it, while the raw lane must keep the raw ledger's own claim (here both
        // happen to be 1.0 for model:0.5, so assert via the recorded lane claims).
        let audit = AuditConfig::default()
            .window_bits(1 << 15)
            .margin(0.4)
            .claim(Some(0.9));
        let config = model_config()
            .conditioner(ConditionerSpec::xor(2))
            .audit(Some(audit))
            .budget_bytes(Some(4096));
        let mut engine = Engine::spawn(config).unwrap();
        engine.read_to_end().unwrap();
        let snap = engine.metrics().snapshot();
        engine.join().unwrap();
        let lane = |name: &str| {
            snap.audits
                .iter()
                .find(|a| a.lane == name)
                .unwrap_or_else(|| panic!("lane {name} missing: {:?}", snap.audits))
        };
        assert!(
            (lane("raw").claim - 1.0).abs() < 1e-12,
            "the raw lane keeps the raw ledger claim: {:?}",
            lane("raw")
        );
        assert!(
            (lane("conditioned").claim - 0.9).abs() < 1e-12,
            "the conditioned lane audits the asserted claim: {:?}",
            lane("conditioned")
        );
        assert!(snap.audits.iter().all(|a| a.overclaims == 0), "{snap:?}");
    }

    #[test]
    fn alarm_postmortems_capture_pre_alarm_events_and_journal() {
        use ptrng_obs::Journal;

        let journal_path = std::env::temp_dir().join(format!(
            "ptrng-pool-journal-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let journal = Arc::new(Journal::create(&journal_path, ptrng_obs::ObsClock::new()).unwrap());

        // The audit-overclaim exit: one healthy batch is generated (and recorded)
        // before the second batch completes the window and refutes the claim.
        let audit = AuditConfig::default().window_bits(1 << 14).claim(Some(0.9));
        let config = EngineConfig::new(SourceSpec::model(0.95).unwrap())
            .seed(7)
            .audit(Some(audit))
            .budget_bytes(Some(1 << 20))
            .health(HealthConfig::default().without_startup_battery());
        let mut engine = Engine::spawn_with_journal(config, Some(Arc::clone(&journal))).unwrap();
        let result = engine.read_to_end();
        assert!(
            matches!(
                result,
                Err(EngineError::HealthAlarm {
                    kind: AlarmKind::AuditOverclaim,
                    ..
                })
            ),
            "{result:?}"
        );
        let obs = Arc::clone(engine.observatory());
        engine.join().unwrap();

        let postmortems = obs.postmortems().snapshot();
        assert_eq!(postmortems.len(), 1);
        let postmortem = &postmortems[0];
        assert_eq!(postmortem.kind, "audit-overclaim");
        assert!(
            postmortem.reason.contains("entropy audit"),
            "{postmortem:?}"
        );
        assert!(
            postmortem
                .events
                .iter()
                .any(|e| e.kind != EventKind::Alarm && e.t_ns <= postmortem.t_ns),
            "no pre-alarm flight-recorder events: {:?}",
            postmortem.events
        );
        assert!(postmortem
            .events
            .iter()
            .any(|e| e.kind == EventKind::Alarm && e.value == AlarmKind::AuditOverclaim as u64));
        // The embedded ledger is the conditioned-output ledger, as a JSON tree.
        let ledger: EntropyLedger = serde::Deserialize::from_value(&postmortem.ledger).unwrap();
        assert!(ledger.min_entropy_per_bit() > 0.0);

        // The journal sink received the same postmortem as one JSONL line.
        let text = std::fs::read_to_string(&journal_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "{text}");
        let line: serde::Value = serde_json::from_str(lines[0]).unwrap();
        match line.get("event") {
            Some(serde::Value::Str(name)) => assert_eq!(name, "alarm-postmortem"),
            other => panic!("bad journal event field: {other:?}"),
        }
        let data = line.get("data").expect("journal line carries data");
        let back: Postmortem = serde::Deserialize::from_value(data).unwrap();
        assert_eq!(&back, postmortem);
        std::fs::remove_file(&journal_path).ok();
    }

    #[test]
    fn batch_and_stage_histograms_fill_during_generation() {
        let config = model_config()
            .conditioner(ConditionerSpec::parse("xor:2,sha256:2").unwrap())
            .budget_bytes(Some(4096));
        let mut engine = Engine::spawn(config).unwrap();
        engine.read_to_end().unwrap();
        let obs = Arc::clone(engine.observatory());
        engine.join().unwrap();
        assert!(obs.batch_histogram().count() > 0);
        let stages = obs.stage_histograms();
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].0, "xor:2");
        assert_eq!(stages[1].0, "sha256:2");
        for (label, histogram) in stages {
            assert!(histogram.count() > 0, "stage {label} never recorded");
        }
        // Every shard recorded flight-recorder events on the shared timeline.
        assert!(obs
            .events()
            .iter()
            .any(|e| e.kind == EventKind::BatchGenerated));
        assert!(obs.postmortems().is_empty());
    }

    #[test]
    fn invalid_configurations_fail_fast() {
        assert!(
            Engine::spawn(model_config().audit(Some(AuditConfig::default().window_bits(16))))
                .is_err(),
            "an audit window below the battery minimum must be rejected"
        );
        assert!(
            Engine::spawn(model_config().audit(Some(AuditConfig::default().margin(-0.1)))).is_err(),
            "a negative audit margin must be rejected"
        );
        assert!(Engine::spawn(model_config().shards(0)).is_err());
        assert!(Engine::spawn(model_config().batch_bits(4)).is_err());
        assert!(Engine::spawn(model_config().conditioner(ConditionerSpec::xor(0))).is_err());
        assert!(
            Engine::spawn(model_config().conditioner(ConditionerSpec::sha256(0))).is_err(),
            "a zero sha256 ratio must be rejected"
        );
        assert!(
            Engine::spawn(model_config().min_output_entropy(Some(1.5))).is_err(),
            "an out-of-domain emission threshold must be rejected"
        );
        let mut bad_queue = model_config();
        bad_queue.queue_batches = 0;
        assert!(Engine::spawn(bad_queue).is_err());
    }
}
