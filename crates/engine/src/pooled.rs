//! The multi-source entropy pool: XOR-mixing with per-child health lanes,
//! honest crediting and a quarantine/reinstatement state machine.
//!
//! A [`PoolSource`] mixes N heterogeneous children (any [`SourceSpec`] except a
//! nested pool) bit-for-bit by XOR.  It is the only XOR combiner of sources: the
//! multi-ring `xor:K[:DIV[:PROFILE]]` spec parses to a pool of K identical eRO
//! children.  The accounting follows the paper's discipline end-to-end:
//!
//! * every child contributes only its **own** dependent-jitter-aware claim, and
//!   the pool's credit is the conservative piling-up combination
//!   ([`EntropyLedger::xor_mix`]) over the children *currently serving* — never
//!   an independence-assuming sum;
//! * every child is drawn through its **own** raw-bit lane (`SourceLane`, the
//!   lane a shard runs too): RCT/APT, an optional thermal test (when the child
//!   exposes `σ²_N` sweeps), an optional audit lane `pool-child-K` and the
//!   stall watchdog, calibrated from that child's claim;
//! * a child whose lane trips is **quarantined** — not drawn at all, so a stalled
//!   or dead child cannot stall the pool — and its credit drops out of the mix
//!   the same batch, while the pool keeps serving on the survivors;
//! * after a cooldown the child enters **probation**: its lane restarts (a fresh
//!   health monitor and audit window) and it is drawn and XOR-mixed again at
//!   *zero credit*; after [`PoolOptions::probation_draws`] clean draws it is
//!   **reinstated** at full credit.  Mixing junk at zero credit costs nothing only
//!   while the junk is independent of the credited children: a child whose bits
//!   track another child's cancels entropy in the XOR, and no per-child lane sees
//!   it, because each reads one child's stream alone.
//!
//! Transitions surface as non-terminal [`AlarmKind::SourceQuarantined`] /
//! [`AlarmKind::SourceReinstated`] events drained by the shard worker through
//! [`EntropySource::poll_events`], flowing into postmortems, `/healthz`,
//! `/debug/trace` and the per-child Prometheus families; the children's audit
//! windows reach the shard through [`EntropySource::poll_audits`].

use std::time::Duration;

use serde::{Deserialize, Serialize};

use ptrng_trng::conditioning::EntropyLedger;

use crate::audit::{AuditConfig, AuditRecord, EntropyAudit};
use crate::fault::{FaultPlan, FaultSource};
use crate::health::{HealthConfig, HealthMonitor};
use crate::lane::{SourceLane, Trip, DEFAULT_SWEEP_CADENCE};
use crate::metrics::AlarmKind;
use crate::source::{derive_seed, ChildStatus, EntropySource, SourceEvent, SourceSpec};
use crate::{EngineError, Result};

/// Seed-derivation stream tag of pool children (`"pool"` in ASCII).
const POOL_SEED_TAG: u64 = 0x706f_6f6c;

/// Quarantine/probation tuning of a [`PoolSource`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolOptions {
    /// Pool fills a quarantined child sits out before entering probation.
    pub quarantine_draws: u32,
    /// Consecutive clean probation draws that reinstate a child.
    pub probation_draws: u32,
    /// Stall watchdog: a single child fill exceeding this many milliseconds
    /// quarantines the child; `None` disables the watchdog.
    pub stall_ms: Option<u64>,
    /// Per-child health template.  The claim is always taken from each child's
    /// own ledger; the startup battery must stay disabled here (children emit
    /// raw bits — the engine-level FIPS battery runs on the pooled output).  A
    /// thermal test sweeps a sweep-capable child on its first draw and then every
    /// 64 draws, the default shard cadence.
    pub health: HealthConfig,
    /// Optional per-child audit battery (lane `pool-child-K`), auditing each
    /// child's own claim — the tripwire for silent overclaims that marginal
    /// tests cannot see.
    pub audit: Option<AuditConfig>,
}

impl Default for PoolOptions {
    fn default() -> Self {
        Self {
            quarantine_draws: 8,
            probation_draws: 12,
            stall_ms: Some(250),
            health: HealthConfig::default().without_startup_battery(),
            audit: None,
        }
    }
}

impl PoolOptions {
    /// Validates the tuning.
    ///
    /// # Errors
    ///
    /// Returns an error for zero draw counts, a startup battery on the per-child
    /// health template, or an invalid audit configuration.
    pub fn validate(&self) -> Result<()> {
        if self.quarantine_draws == 0 {
            return Err(EngineError::InvalidParameter {
                name: "pool.quarantine_draws",
                reason: "the quarantine cooldown must be at least one draw".to_string(),
            });
        }
        if self.probation_draws == 0 {
            return Err(EngineError::InvalidParameter {
                name: "pool.probation_draws",
                reason: "at least one clean draw is required to reinstate".to_string(),
            });
        }
        if self.health.startup_battery {
            return Err(EngineError::InvalidParameter {
                name: "pool.health.startup_battery",
                reason: "pool children emit raw bits and never resolve a startup battery; \
                         run the FIPS battery at the engine level instead"
                    .to_string(),
            });
        }
        if let Some(audit) = &self.audit {
            audit.validate()?;
        }
        Ok(())
    }
}

/// Where a pool child stands in its lifecycle (the `state` of its
/// [`ChildStatus`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChildState {
    /// Drawn, mixed, credited.
    Serving,
    /// Not drawn at all; sits out `remaining` pool fills.
    Quarantined {
        /// Pool fills left before probation starts.
        remaining: u32,
    },
    /// Drawn and mixed at zero credit through a restarted lane.
    Probation {
        /// Consecutive clean draws so far.
        clean_draws: u32,
    },
}

impl ChildState {
    fn name(self) -> &'static str {
        match self {
            ChildState::Serving => "serving",
            ChildState::Quarantined { .. } => "quarantined",
            ChildState::Probation { .. } => "probation",
        }
    }
}

/// One child: its lane and its place in the lifecycle.
struct PoolChild {
    lane: SourceLane,
    label: String,
    claim: f64,
    state: ChildState,
    quarantines: u64,
    reinstatements: u64,
    scratch: Vec<u8>,
}

/// The multi-source pool (see the [module docs](self)).
pub struct PoolSource {
    children: Vec<PoolChild>,
    options: PoolOptions,
    events: Vec<SourceEvent>,
    /// Audit windows the children's lanes completed, by child index.
    audits: Vec<(usize, AuditRecord)>,
    /// Spawn-time claim over **all** children (what the engine's static ledger
    /// and cutoff calibration see).
    static_claim: f64,
    /// Claim over the children credited in the most recent fill.
    current_claim: f64,
    label: String,
}

impl PoolSource {
    /// Builds the pool from already-constructed children (test/embedding entry
    /// point; the engine goes through [`PoolSource::from_specs`]).
    ///
    /// # Errors
    ///
    /// Returns an error for fewer than two children or invalid options.
    pub fn new(sources: Vec<Box<dyn EntropySource>>, options: PoolOptions) -> Result<Self> {
        options.validate()?;
        if sources.len() < 2 {
            return Err(EngineError::InvalidParameter {
                name: "children",
                reason: format!(
                    "a pool needs at least two children to mix, got {}",
                    sources.len()
                ),
            });
        }
        let mut children = Vec::with_capacity(sources.len());
        for (index, source) in sources.into_iter().enumerate() {
            let label = source.label();
            let claim = source.entropy_per_bit();
            let mut health = options.health.clone();
            if !source.supports_thermal_sweep() {
                // Children without σ²_N sweeps simply run without a thermal test.
                health.thermal = None;
            }
            let monitor = HealthMonitor::new(&health, &EntropyLedger::source(&label, claim)?)?;
            let audit = options
                .audit
                .as_ref()
                .map(|config| {
                    EntropyAudit::new(&format!("pool-child-{index}"), claim, config.clone())
                })
                .transpose()?;
            children.push(PoolChild {
                lane: SourceLane::new(
                    source,
                    monitor,
                    audit,
                    DEFAULT_SWEEP_CADENCE,
                    options.stall_ms.map(Duration::from_millis),
                ),
                label,
                claim,
                state: ChildState::Serving,
                quarantines: 0,
                reinstatements: 0,
                scratch: Vec::new(),
            });
        }
        let label = format!(
            "pool({})",
            children
                .iter()
                .map(|c| c.label.clone())
                .collect::<Vec<_>>()
                .join(" ⊕ ")
        );
        let static_claim = mixed_claim(children.iter().map(|c| (c.label.as_str(), c.claim)))?;
        Ok(Self {
            children,
            options,
            events: Vec::new(),
            audits: Vec::new(),
            static_claim,
            current_claim: static_claim,
            label,
        })
    }

    /// Builds the pool from child specifications, deriving one decorrelated seed
    /// per child.
    ///
    /// # Errors
    ///
    /// Returns an error when a child fails to build or the options are invalid.
    pub fn from_specs(specs: &[SourceSpec], options: PoolOptions, seed: u64) -> Result<Self> {
        Self::from_specs_with_fault(specs, options, seed, None)
    }

    /// Like [`PoolSource::from_specs`], additionally wrapping one child in a
    /// [`FaultSource`] executing `fault` — the deterministic drill entry point.
    ///
    /// # Errors
    ///
    /// Returns an error when the fault targets a child index that does not
    /// exist, a child fails to build, or the options are invalid.
    pub fn from_specs_with_fault(
        specs: &[SourceSpec],
        options: PoolOptions,
        seed: u64,
        fault: Option<&FaultPlan>,
    ) -> Result<Self> {
        if let Some(plan) = fault {
            if plan.child >= specs.len() {
                return Err(EngineError::InvalidParameter {
                    name: "fault.child",
                    reason: format!(
                        "fault targets child {} but the pool has {} children",
                        plan.child,
                        specs.len()
                    ),
                });
            }
        }
        if specs.iter().any(|s| matches!(s, SourceSpec::Pool { .. })) {
            return Err(EngineError::InvalidParameter {
                name: "children",
                reason: "pools do not nest".to_string(),
            });
        }
        let mut sources: Vec<Box<dyn EntropySource>> = Vec::with_capacity(specs.len());
        for (k, spec) in specs.iter().enumerate() {
            let child_seed = derive_seed(seed, POOL_SEED_TAG + k as u64);
            let built = spec.build(child_seed)?;
            sources.push(match fault {
                Some(plan) if plan.child == k => Box::new(FaultSource::new(built, plan.clone())),
                _ => built,
            });
        }
        Self::new(sources, options)
    }

    /// Quarantines `child` for `trip`: it stops being drawn, its credit leaves the
    /// mix, and a [`AlarmKind::SourceQuarantined`] event is queued.
    fn quarantine(&mut self, child: usize, trip: Trip) {
        let reason = match trip {
            Trip::Health(_) | Trip::Overclaim(_) => trip.to_string(),
            _ => format!("child {trip}"),
        };
        if let Trip::Overclaim(record) = trip {
            self.audits.push((child, *record));
        }
        let entry = &mut self.children[child];
        entry.state = ChildState::Quarantined {
            remaining: self.options.quarantine_draws,
        };
        entry.quarantines += 1;
        self.events.push(SourceEvent {
            child,
            label: entry.label.clone(),
            kind: AlarmKind::SourceQuarantined,
            reason,
        });
    }

    /// Books one clean probation draw; reinstates the child at full credit once
    /// it has [`PoolOptions::probation_draws`] of them.
    fn advance_probation(&mut self, child: usize, clean_draws: u32) {
        let required = self.options.probation_draws;
        let entry = &mut self.children[child];
        if clean_draws + 1 < required {
            entry.state = ChildState::Probation {
                clean_draws: clean_draws + 1,
            };
            return;
        }
        entry.state = ChildState::Serving;
        entry.reinstatements += 1;
        self.events.push(SourceEvent {
            child,
            label: entry.label.clone(),
            kind: AlarmKind::SourceReinstated,
            reason: format!("clean probation: {required} draws with healthy tests"),
        });
    }

    /// Advances quarantine cooldowns; a child whose cooldown expires enters
    /// probation through a restarted lane.
    fn tick_quarantines(&mut self) {
        for entry in &mut self.children {
            if let ChildState::Quarantined { remaining } = entry.state {
                entry.state = if remaining > 1 {
                    ChildState::Quarantined {
                        remaining: remaining - 1,
                    }
                } else {
                    entry.lane.restart();
                    ChildState::Probation { clean_draws: 0 }
                };
            }
        }
    }
}

/// The conservative XOR-mix claim over `(label, claim)` pairs.
fn mixed_claim<'a>(children: impl Iterator<Item = (&'a str, f64)>) -> Result<f64> {
    let ledgers = children
        .map(|(label, claim)| EntropyLedger::source(label, claim))
        .collect::<ptrng_trng::Result<Vec<_>>>()
        .map_err(EngineError::from)?;
    if ledgers.is_empty() {
        return Ok(0.0);
    }
    let mixed = EntropyLedger::xor_mix("pool", &ledgers).map_err(EngineError::from)?;
    Ok(mixed.min_entropy_per_bit())
}

impl EntropySource for PoolSource {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn nominal_bit_rate(&self) -> f64 {
        // Children are drawn in lockstep; the slowest gates the pool.
        self.children
            .iter()
            .map(|c| c.lane.source.nominal_bit_rate())
            .fold(f64::INFINITY, f64::min)
    }

    fn entropy_per_bit(&self) -> f64 {
        self.static_claim
    }

    fn current_entropy_per_bit(&self) -> f64 {
        self.current_claim
    }

    fn fill_bits(&mut self, out: &mut [u8]) -> Result<()> {
        self.tick_quarantines();
        if !self.children.iter().any(|c| c.state == ChildState::Serving) {
            self.current_claim = 0.0;
            return Err(EngineError::SourceFault {
                reason: format!(
                    "no serving children left in {} (all quarantined or in probation)",
                    self.label
                ),
            });
        }

        out.fill(0);
        let mut credited: Vec<usize> = Vec::new();
        for index in 0..self.children.len() {
            let entry = &mut self.children[index];
            let state = entry.state;
            if let ChildState::Quarantined { .. } = state {
                continue;
            }
            entry.scratch.resize(out.len(), 0);
            match entry.lane.draw(&mut entry.scratch) {
                Ok(record) => self.audits.extend(record.map(|record| (index, record))),
                Err(trip) => {
                    self.quarantine(index, trip);
                    continue;
                }
            }
            for (bit, extra) in out.iter_mut().zip(&self.children[index].scratch) {
                *bit ^= extra;
            }
            match state {
                ChildState::Probation { clean_draws } => self.advance_probation(index, clean_draws),
                _ => credited.push(index),
            }
        }

        self.current_claim = mixed_claim(
            credited
                .iter()
                .map(|&i| (self.children[i].label.as_str(), self.children[i].claim)),
        )?;
        if credited.is_empty() {
            return Err(EngineError::SourceFault {
                reason: format!(
                    "every serving child of {} was quarantined within one batch",
                    self.label
                ),
            });
        }
        Ok(())
    }

    fn poll_events(&mut self) -> Vec<SourceEvent> {
        std::mem::take(&mut self.events)
    }

    fn poll_audits(&mut self) -> Vec<(usize, AuditRecord)> {
        std::mem::take(&mut self.audits)
    }

    fn children_status(&self) -> Vec<ChildStatus> {
        self.children
            .iter()
            .enumerate()
            .map(|(child, entry)| ChildStatus {
                child,
                label: entry.label.clone(),
                state: entry.state.name().to_string(),
                entropy_per_bit: entry.claim,
                credited_entropy_per_bit: if entry.state == ChildState::Serving {
                    entry.claim
                } else {
                    0.0
                },
                quarantines: entry.quarantines,
                reinstatements: entry.reinstatements,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use ptrng_osc::phase::PhaseNoiseModel;
    use ptrng_trng::online::OnlineTestConfig;
    use std::time::Instant;

    fn model_specs(n: usize) -> Vec<SourceSpec> {
        (0..n).map(|_| SourceSpec::model(0.5).unwrap()).collect()
    }

    /// Options tuned for fast tests: no stall watchdog (debug builds are slow),
    /// short cooldown/probation.
    fn fast_options() -> PoolOptions {
        PoolOptions {
            quarantine_draws: 2,
            probation_draws: 4,
            stall_ms: None,
            ..PoolOptions::default()
        }
    }

    fn drain_kinds(pool: &mut PoolSource) -> Vec<AlarmKind> {
        pool.poll_events().into_iter().map(|e| e.kind).collect()
    }

    #[test]
    fn options_validate() {
        assert!(PoolOptions::default().validate().is_ok());
        for bad in [
            PoolOptions {
                quarantine_draws: 0,
                ..PoolOptions::default()
            },
            PoolOptions {
                probation_draws: 0,
                ..PoolOptions::default()
            },
            PoolOptions {
                health: HealthConfig::default(),
                ..PoolOptions::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
        let bad_audit = PoolOptions {
            audit: Some(AuditConfig::default().window_bits(10)),
            ..PoolOptions::default()
        };
        assert!(bad_audit.validate().is_err());
    }

    #[test]
    fn construction_rejects_bad_shapes() {
        assert!(PoolSource::from_specs(&model_specs(1), fast_options(), 1).is_err());
        let nested = vec![
            SourceSpec::parse("pool:model:0.5+model:0.5").unwrap(),
            SourceSpec::model(0.5).unwrap(),
        ];
        assert!(PoolSource::from_specs(&nested, fast_options(), 1).is_err());
        let fault = FaultPlan::parse("child=5,kind=stuck").unwrap();
        assert!(PoolSource::from_specs_with_fault(
            &model_specs(3),
            fast_options(),
            1,
            Some(&fault)
        )
        .is_err());
    }

    #[test]
    fn healthy_pool_mixes_and_credits_conservatively() {
        let specs = vec![
            SourceSpec::model(0.5).unwrap(),
            SourceSpec::model(0.6).unwrap(),
            SourceSpec::model(0.7).unwrap(),
        ];
        let mut pool = PoolSource::from_specs(&specs, fast_options(), 42).unwrap();
        assert!(pool.label().starts_with("pool(model"));
        // Best child claims 1.0 (p = 0.5): the mix credits at least that, at most 1.
        assert!(pool.entropy_per_bit() >= 1.0 - 1e-12);
        assert!(pool.entropy_per_bit() <= 1.0);

        let mut bits = vec![0u8; 8192];
        for _ in 0..4 {
            pool.fill_bits(&mut bits).unwrap();
        }
        assert!(bits.iter().all(|&b| b <= 1));
        assert!(bits.contains(&1));
        assert!(drain_kinds(&mut pool).is_empty());
        let status = pool.children_status();
        assert_eq!(status.len(), 3);
        assert!(status.iter().all(|s| s.state == "serving"));
        assert!(status.iter().all(|s| s.quarantines == 0));
        assert_eq!(pool.current_entropy_per_bit(), pool.entropy_per_bit());
    }

    #[test]
    fn pool_mix_is_deterministic_per_seed() {
        let specs = model_specs(3);
        let mut a = PoolSource::from_specs(&specs, fast_options(), 7).unwrap();
        let mut b = PoolSource::from_specs(&specs, fast_options(), 7).unwrap();
        let mut c = PoolSource::from_specs(&specs, fast_options(), 8).unwrap();
        let (mut xa, mut xb, mut xc) = (vec![0u8; 2048], vec![0u8; 2048], vec![0u8; 2048]);
        a.fill_bits(&mut xa).unwrap();
        b.fill_bits(&mut xb).unwrap();
        c.fill_bits(&mut xc).unwrap();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn stuck_child_is_quarantined_and_reinstated_after_recovery() {
        // Child 1 sticks at zero for 1 KiB (exactly one 8192-bit batch) starting
        // at 2 KiB drawn; its byte counter freezes while quarantined, so the
        // first probation draw lands just past the fault window.
        let fault = FaultPlan::parse("child=1,kind=stuck,at=2KiB,for=1KiB").unwrap();
        let mut pool =
            PoolSource::from_specs_with_fault(&model_specs(3), fast_options(), 3, Some(&fault))
                .unwrap();
        let full_claim = pool.entropy_per_bit();

        let mut bits = vec![0u8; 8192];
        // Batch 1: 1 KiB per child, fault not yet active.
        pool.fill_bits(&mut bits).unwrap();
        assert!(drain_kinds(&mut pool).is_empty());

        // Batch 2 reaches the window on child 1; batch 3 is fully stuck — the
        // RCT lane fires within the batch and quarantines exactly child 1.
        let mut quarantined_at = None;
        for round in 0..3 {
            pool.fill_bits(&mut bits).unwrap();
            let events = pool.poll_events();
            if let Some(event) = events.first() {
                assert_eq!(event.kind, AlarmKind::SourceQuarantined);
                assert_eq!(event.child, 1);
                assert!(
                    event.reason.contains("repetition count"),
                    "{}",
                    event.reason
                );
                quarantined_at = Some(round);
                break;
            }
        }
        assert!(quarantined_at.is_some(), "stuck child never quarantined");
        let status = pool.children_status();
        assert_eq!(status[1].state, "quarantined");
        assert_eq!(status[1].credited_entropy_per_bit, 0.0);
        assert_eq!(status[0].state, "serving");
        assert_eq!(status[2].state, "serving");
        // Credit drops monotonically when a child leaves the mix.
        assert!(pool.current_entropy_per_bit() <= full_claim + 1e-12);

        // Keep drawing: cooldown (2 fills) → probation (4 clean draws) →
        // reinstatement.  The fault window has long passed by then.
        let mut reinstated = false;
        for _ in 0..16 {
            pool.fill_bits(&mut bits).unwrap();
            if drain_kinds(&mut pool).contains(&AlarmKind::SourceReinstated) {
                reinstated = true;
                break;
            }
        }
        assert!(reinstated, "stuck child never reinstated after recovery");
        let status = pool.children_status();
        assert_eq!(status[1].state, "serving");
        assert_eq!(status[1].quarantines, 1);
        assert_eq!(status[1].reinstatements, 1);
        assert_eq!(pool.current_entropy_per_bit(), full_claim);
    }

    #[test]
    fn bias_drift_trips_the_adaptive_proportion_lane() {
        let fault = FaultPlan::parse("child=0,kind=bias-drift,p=0.95,at=1KiB").unwrap();
        let mut pool =
            PoolSource::from_specs_with_fault(&model_specs(3), fast_options(), 4, Some(&fault))
                .unwrap();
        let mut bits = vec![0u8; 8192];
        let mut event = None;
        for _ in 0..4 {
            pool.fill_bits(&mut bits).unwrap();
            if let Some(e) = pool.poll_events().into_iter().next() {
                event = Some(e);
                break;
            }
        }
        let event = event.expect("drifted child never quarantined");
        assert_eq!(event.child, 0);
        assert_eq!(event.kind, AlarmKind::SourceQuarantined);
        assert!(
            event.reason.contains("adaptive proportion") || event.reason.contains("repetition"),
            "{}",
            event.reason
        );
    }

    #[test]
    fn intermittent_death_is_absorbed_without_stalling_the_pool() {
        let fault = FaultPlan::parse("child=2,kind=intermittent,at=1KiB,for=1KiB").unwrap();
        let mut pool =
            PoolSource::from_specs_with_fault(&model_specs(3), fast_options(), 5, Some(&fault))
                .unwrap();
        let mut bits = vec![0u8; 8192];
        let mut event = None;
        for _ in 0..3 {
            pool.fill_bits(&mut bits).unwrap();
            if let Some(e) = pool.poll_events().into_iter().next() {
                event = Some(e);
                break;
            }
        }
        let event = event.expect("dead child never quarantined");
        assert_eq!(event.child, 2);
        assert!(
            event.reason.contains("child fill failed"),
            "{}",
            event.reason
        );
        // The pool keeps serving on the survivors; the dead child recovers later.
        let mut reinstated = false;
        for _ in 0..16 {
            pool.fill_bits(&mut bits).unwrap();
            if drain_kinds(&mut pool).contains(&AlarmKind::SourceReinstated) {
                reinstated = true;
                break;
            }
        }
        assert!(reinstated);
    }

    #[test]
    fn silent_overclaim_is_caught_by_the_audit_lane_not_the_marginal_tests() {
        // Markov bits with balanced marginals: RCT/APT see nothing, the §6.3
        // battery refutes the claim within one window.
        let fault = FaultPlan::parse("child=1,kind=overclaim").unwrap();
        let options = PoolOptions {
            audit: Some(AuditConfig::default().window_bits(1 << 15).margin(0.4)),
            ..fast_options()
        };
        let mut pool =
            PoolSource::from_specs_with_fault(&model_specs(3), options, 6, Some(&fault)).unwrap();
        let mut bits = vec![0u8; 8192];
        let mut event = None;
        // One audit window = 4 batches of 8192 bits per child.
        for _ in 0..6 {
            pool.fill_bits(&mut bits).unwrap();
            if let Some(e) = pool.poll_events().into_iter().next() {
                event = Some(e);
                break;
            }
        }
        let event = event.expect("silent overclaim never caught");
        assert_eq!(event.child, 1);
        assert_eq!(event.kind, AlarmKind::SourceQuarantined);
        assert!(
            event.reason.contains("entropy audit (pool-child-1)"),
            "caught by {} instead of the audit lane",
            event.reason
        );
    }

    #[test]
    fn stall_watchdog_quarantines_a_slow_child() {
        let fault = FaultPlan::parse("child=0,kind=stall,ms=80").unwrap();
        let options = PoolOptions {
            stall_ms: Some(20),
            ..fast_options()
        };
        let mut pool =
            PoolSource::from_specs_with_fault(&model_specs(2), options, 7, Some(&fault)).unwrap();
        let mut bits = vec![0u8; 1024];
        pool.fill_bits(&mut bits).unwrap();
        let events = pool.poll_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].child, 0);
        assert!(events[0].reason.contains("stalled"), "{}", events[0].reason);
        // Subsequent fills skip the stalled child entirely: they must be fast.
        let started = Instant::now();
        pool.fill_bits(&mut bits).unwrap();
        assert!(started.elapsed() < Duration::from_millis(60));
    }

    #[test]
    fn pool_with_no_serving_children_fails_closed() {
        let fault = FaultPlan::parse("child=0,kind=stuck").unwrap();
        let options = PoolOptions {
            quarantine_draws: 100,
            ..fast_options()
        };
        // Two children, one permanently stuck: quarantining it leaves one
        // serving child (fine); sticking BOTH is simulated by a 2-child pool
        // whose healthy child we then starve via a second fault — instead,
        // simply quarantine the only faulted child and verify the pool keeps
        // serving, then check the fail-closed path with a 2-child pool where
        // the survivor also alarms (stuck model:0.9999 trips RCT quickly).
        let specs = vec![
            SourceSpec::model(0.5).unwrap(),
            SourceSpec::model(0.9999).unwrap(),
        ];
        let mut pool = PoolSource::from_specs_with_fault(&specs, options, 8, Some(&fault)).unwrap();
        let mut bits = vec![0u8; 8192];
        let mut failed = false;
        for _ in 0..8 {
            if pool.fill_bits(&mut bits).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "pool kept serving with zero serving children");
        assert!(pool.children_status().iter().all(|s| s.state != "serving"));
        assert_eq!(pool.current_entropy_per_bit(), 0.0);
    }

    #[test]
    fn probation_relapse_returns_to_quarantine() {
        // The fault never ends, so probation draws keep sticking and the child
        // relapses: quarantines accumulate, no reinstatement ever happens.
        let fault = FaultPlan::parse("child=1,kind=stuck").unwrap();
        let mut pool =
            PoolSource::from_specs_with_fault(&model_specs(3), fast_options(), 9, Some(&fault))
                .unwrap();
        let mut bits = vec![0u8; 8192];
        for _ in 0..20 {
            pool.fill_bits(&mut bits).unwrap();
        }
        let kinds = drain_kinds(&mut pool);
        assert!(!kinds.contains(&AlarmKind::SourceReinstated));
        let status = pool.children_status();
        assert!(status[1].quarantines >= 2, "no relapse: {:?}", status[1]);
        assert_eq!(status[1].reinstatements, 0);
    }

    #[test]
    fn thermal_lane_quarantines_a_collapsed_child() {
        // Two `ero:2:strong` rings whose template carries the σ²_N test, drawn for
        // 2N + 1 batches: each child sweeps on draws 1, N + 1 and 2N + 1.  A 4096-bit
        // draw spans 8192 periods, which holds three of the sweep's depths.
        let sampled = PhaseNoiseModel::new(1.2e6, 0.0, 103.0e6).unwrap();
        let sampling = PhaseNoiseModel::new(1.2e6, 0.0, 102.3e6).unwrap();
        let relative = sampled.relative_to(&sampling).unwrap();
        let rings = vec![SourceSpec::parse("ero:2:strong").unwrap(); 2];
        let run = |reference: f64| {
            let thermal = OnlineTestConfig::new(relative.frequency(), reference, 0.5).unwrap();
            let options = PoolOptions {
                health: fast_options().health.with_thermal(thermal),
                ..fast_options()
            };
            let mut pool = PoolSource::from_specs(&rings, options, 11).unwrap();
            let mut bits = vec![0u8; 4096];
            for _ in 0..2 * DEFAULT_SWEEP_CADENCE + 1 {
                if pool.fill_bits(&mut bits).is_err() {
                    break;
                }
            }
            (pool.poll_events(), pool.children_status())
        };

        // The rings' own thermal jitter as the reference: every sweep passes.
        let (events, status) = run(relative.thermal_period_jitter());
        assert!(events.is_empty(), "{events:?}");
        assert!(status.iter().all(|s| s.state == "serving"), "{status:?}");

        // Ten times that reference: the second sweep latches the alarm.
        let (events, _) = run(relative.thermal_period_jitter() * 10.0);
        assert!(
            events.iter().any(|e| e.kind == AlarmKind::SourceQuarantined
                && e.reason.contains("thermal jitter collapsed")),
            "{events:?}"
        );
    }
}
