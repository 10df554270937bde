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
//! * every child runs its **own** RCT/APT lane, optional thermal lane (when the
//!   child exposes `σ²_N` sweeps) and optional audit battery lane, calibrated
//!   from that child's claim;
//! * a child that alarms is **quarantined** — not drawn at all, so a stalled or
//!   dead child cannot stall the pool — and its credit drops out of the mix the
//!   same batch, while the pool keeps serving on the survivors;
//! * after a cooldown the child enters **probation**: it is drawn again and
//!   XOR-mixed at *zero credit*, observed by a fresh health monitor and audit
//!   lane; after [`PoolOptions::probation_windows`] clean windows it is
//!   **reinstated** at full credit.  Mixing junk at zero credit costs nothing only
//!   while the junk is independent of the credited children: a child whose bits
//!   track another child's cancels entropy in the XOR, and no per-child lane sees
//!   it, because each reads one child's stream alone.
//!
//! Transitions surface as non-terminal [`AlarmKind::SourceQuarantined`] /
//! [`AlarmKind::SourceReinstated`] events drained by the shard worker through
//! [`EntropySource::poll_events`], flowing into postmortems, `/healthz`,
//! `/debug/trace` and the per-child Prometheus families.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use ptrng_trng::conditioning::EntropyLedger;

use crate::audit::{AuditConfig, EntropyAudit};
use crate::fault::{FaultPlan, FaultSource};
use crate::health::{HealthConfig, HealthMonitor, HealthState};
use crate::metrics::AlarmKind;
use crate::source::{
    derive_seed, ChildStatus, EntropySource, SourceEvent, SourceSpec, THERMAL_SWEEP_DEPTHS,
};
use crate::{EngineError, Result};

/// Seed-derivation stream tag of pool children (`"pool"` in ASCII).
const POOL_SEED_TAG: u64 = 0x706f_6f6c;

/// Quarantine/probation tuning of a [`PoolSource`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolOptions {
    /// Clean probation windows required to reinstate a child.
    pub probation_windows: u32,
    /// Pool fills a quarantined child sits out before entering probation.
    pub quarantine_draws: u32,
    /// Draws per probation window.
    pub probation_window_draws: u32,
    /// Stall watchdog: a single child fill exceeding this many milliseconds
    /// quarantines the child; `None` disables the watchdog.
    pub stall_ms: Option<u64>,
    /// Pool fills between `σ²_N` thermal sweeps of a sweep-capable child (only
    /// meaningful when [`PoolOptions::health`] configures a thermal test).
    pub thermal_check_draws: u32,
    /// Per-child health template.  The claim is always taken from each child's
    /// own ledger; the startup battery must stay disabled here (children emit
    /// raw bits — the engine-level FIPS battery runs on the pooled output).
    pub health: HealthConfig,
    /// Optional per-child audit battery (lane `pool-child-K`), auditing each
    /// child's own claim — the tripwire for silent overclaims that marginal
    /// tests cannot see.
    pub audit: Option<AuditConfig>,
}

impl Default for PoolOptions {
    fn default() -> Self {
        Self {
            probation_windows: 3,
            quarantine_draws: 8,
            probation_window_draws: 4,
            stall_ms: Some(250),
            thermal_check_draws: 64,
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
    /// Returns an error for zero window/draw counts, a startup battery on the
    /// per-child health template, or an invalid audit configuration.
    pub fn validate(&self) -> Result<()> {
        if self.probation_windows == 0 {
            return Err(EngineError::InvalidParameter {
                name: "pool.probation_windows",
                reason: "at least one clean window is required to reinstate".to_string(),
            });
        }
        if self.quarantine_draws == 0 {
            return Err(EngineError::InvalidParameter {
                name: "pool.quarantine_draws",
                reason: "the quarantine cooldown must be at least one draw".to_string(),
            });
        }
        if self.probation_window_draws == 0 {
            return Err(EngineError::InvalidParameter {
                name: "pool.probation_window_draws",
                reason: "a probation window must span at least one draw".to_string(),
            });
        }
        if self.thermal_check_draws == 0 {
            return Err(EngineError::InvalidParameter {
                name: "pool.thermal_check_draws",
                reason: "the thermal check interval must be at least one draw".to_string(),
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

/// Lifecycle lane of one pool child.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Lane {
    /// Drawn, mixed, credited.
    Serving,
    /// Not drawn at all; sits out `remaining` pool fills.
    Quarantined {
        /// Pool fills left before probation starts.
        remaining: u32,
    },
    /// Drawn and mixed at zero credit under a fresh monitor.
    Probation {
        /// Clean windows completed so far.
        clean_windows: u32,
        /// Draws into the current window.
        window_draws: u32,
    },
}

impl Lane {
    fn name(&self) -> &'static str {
        match self {
            Lane::Serving => "serving",
            Lane::Quarantined { .. } => "quarantined",
            Lane::Probation { .. } => "probation",
        }
    }
}

/// One child and its private health machinery.
struct PoolChild {
    source: Box<dyn EntropySource>,
    label: String,
    claim: f64,
    lane: Lane,
    monitor: HealthMonitor,
    audit: Option<EntropyAudit>,
    draws_since_sweep: u32,
    quarantines: u64,
    reinstatements: u64,
    scratch: Vec<u8>,
}

impl PoolChild {
    /// A fresh monitor (and audit lane) calibrated from this child's own claim.
    fn fresh_monitors(
        index: usize,
        label: &str,
        claim: f64,
        options: &PoolOptions,
        thermal_capable: bool,
    ) -> Result<(HealthMonitor, Option<EntropyAudit>)> {
        let ledger = EntropyLedger::source(label, claim)?;
        let mut health = options.health.clone();
        if !thermal_capable {
            // Children without σ²_N sweeps simply run without a thermal lane.
            health.thermal = None;
        }
        let monitor = HealthMonitor::new(&health, &ledger)?;
        let audit = options
            .audit
            .as_ref()
            .map(|config| EntropyAudit::new(&format!("pool-child-{index}"), claim, config.clone()))
            .transpose()?;
        Ok((monitor, audit))
    }
}

/// The multi-source pool (see the [module docs](self)).
pub struct PoolSource {
    children: Vec<PoolChild>,
    options: PoolOptions,
    events: Vec<SourceEvent>,
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
            let (monitor, audit) = PoolChild::fresh_monitors(
                index,
                &label,
                claim,
                &options,
                source.supports_thermal_sweep(),
            )?;
            children.push(PoolChild {
                source,
                label,
                claim,
                lane: Lane::Serving,
                monitor,
                audit,
                draws_since_sweep: 0,
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

    /// The quarantine/probation tuning.
    pub fn options(&self) -> &PoolOptions {
        &self.options
    }

    /// Quarantines `child` now: it stops being drawn, its credit leaves the mix,
    /// and a [`AlarmKind::SourceQuarantined`] event is queued.
    fn quarantine(&mut self, child: usize, reason: String) {
        let entry = &mut self.children[child];
        entry.lane = Lane::Quarantined {
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

    /// Reinstates `child` at full credit after a clean probation.
    fn reinstate(&mut self, child: usize) {
        let options_windows = self.options.probation_windows;
        let options_draws = self.options.probation_window_draws;
        let entry = &mut self.children[child];
        entry.lane = Lane::Serving;
        entry.reinstatements += 1;
        self.events.push(SourceEvent {
            child,
            label: entry.label.clone(),
            kind: AlarmKind::SourceReinstated,
            reason: format!(
                "clean probation: {options_windows} windows × {options_draws} draws \
                 with healthy tests"
            ),
        });
    }

    /// Advances quarantine cooldowns; children whose cooldown expires enter
    /// probation under a fresh monitor and audit lane.
    fn tick_quarantines(&mut self) -> Result<()> {
        for index in 0..self.children.len() {
            let Lane::Quarantined { remaining } = self.children[index].lane else {
                continue;
            };
            if remaining > 1 {
                self.children[index].lane = Lane::Quarantined {
                    remaining: remaining - 1,
                };
                continue;
            }
            let entry = &mut self.children[index];
            let (monitor, audit) = PoolChild::fresh_monitors(
                index,
                &entry.label,
                entry.claim,
                &self.options,
                entry.source.supports_thermal_sweep(),
            )?;
            entry.monitor = monitor;
            entry.audit = audit;
            entry.draws_since_sweep = 0;
            entry.lane = Lane::Probation {
                clean_windows: 0,
                window_draws: 0,
            };
        }
        Ok(())
    }

    /// Draws one child into its scratch and runs its health lanes; returns
    /// `Ok(true)` when the child's bits may be mixed, `Ok(false)` when the child
    /// was quarantined this draw.
    fn draw_child(&mut self, index: usize, bits: usize) -> Result<bool> {
        let stall_budget = self.options.stall_ms.map(Duration::from_millis);
        let thermal_check_draws = self.options.thermal_check_draws;

        let entry = &mut self.children[index];
        entry.scratch.resize(bits, 0);
        let started = Instant::now();
        let mut scratch = std::mem::take(&mut entry.scratch);
        let fill = entry.source.fill_bits(&mut scratch);
        let elapsed = started.elapsed();
        entry.scratch = scratch;
        if let Err(error) = fill {
            self.quarantine(index, format!("child fill failed: {error}"));
            return Ok(false);
        }
        if let Some(budget) = stall_budget {
            if elapsed > budget {
                self.quarantine(
                    index,
                    format!(
                        "child stalled: fill took {} ms (budget {} ms)",
                        elapsed.as_millis(),
                        budget.as_millis()
                    ),
                );
                return Ok(false);
            }
        }

        // SP 800-90B continuous lanes on the child's raw bits, before mixing.
        let entry = &mut self.children[index];
        let scratch = std::mem::take(&mut entry.scratch);
        let observed = entry
            .monitor
            .observe_bits(&scratch)
            .map(|state| match state {
                HealthState::Alarmed(reason) => Some(reason.to_string()),
                _ => None,
            });
        entry.scratch = scratch;
        match observed {
            Err(error) => {
                self.quarantine(index, format!("child emitted non-bits: {error}"));
                return Ok(false);
            }
            Ok(Some(reason)) => {
                self.quarantine(index, reason);
                return Ok(false);
            }
            Ok(None) => {}
        }

        // Thermal lane, when both the template and the child support it.
        let entry = &mut self.children[index];
        entry.draws_since_sweep += 1;
        if entry.monitor.has_thermal()
            && entry.source.supports_thermal_sweep()
            && entry.draws_since_sweep >= thermal_check_draws
        {
            entry.draws_since_sweep = 0;
            match entry.source.sigma2_sweep(&THERMAL_SWEEP_DEPTHS) {
                Err(error) => {
                    self.quarantine(index, format!("child thermal sweep failed: {error}"));
                    return Ok(false);
                }
                Ok(Some(values)) => {
                    let depths: Vec<f64> = THERMAL_SWEEP_DEPTHS.iter().map(|&d| d as f64).collect();
                    let fitted =
                        entry
                            .monitor
                            .observe_sigma2_points(&depths, &values)
                            .map(|state| match state {
                                HealthState::Alarmed(reason) => Some(reason.to_string()),
                                _ => None,
                            });
                    match fitted {
                        Err(error) => {
                            self.quarantine(index, format!("child thermal fit failed: {error}"));
                            return Ok(false);
                        }
                        Ok(Some(reason)) => {
                            self.quarantine(index, reason);
                            return Ok(false);
                        }
                        Ok(None) => {}
                    }
                }
                Ok(None) => {}
            }
        }

        // Per-child audit battery: the silent-overclaim tripwire.
        let entry = &mut self.children[index];
        if let Some(audit) = &mut entry.audit {
            let scratch = std::mem::take(&mut entry.scratch);
            let outcome = audit.observe_bits(&scratch);
            entry.scratch = scratch;
            match outcome {
                Err(error) => {
                    self.quarantine(index, format!("child audit failed: {error}"));
                    return Ok(false);
                }
                Ok(Some(_)) => {
                    let entry = &self.children[index];
                    if let Some(audit) = &entry.audit {
                        if audit.overclaimed() {
                            let reason = audit.alarm_reason();
                            self.quarantine(index, reason);
                            return Ok(false);
                        }
                    }
                }
                Ok(None) => {}
            }
        }
        Ok(true)
    }

    /// Books one clean probation draw; reinstates the child when it completes
    /// its final clean window.
    fn advance_probation(&mut self, index: usize) {
        let Lane::Probation {
            clean_windows,
            window_draws,
        } = self.children[index].lane
        else {
            return;
        };
        let mut window_draws = window_draws + 1;
        let mut clean_windows = clean_windows;
        if window_draws >= self.options.probation_window_draws {
            window_draws = 0;
            clean_windows += 1;
        }
        if clean_windows >= self.options.probation_windows {
            self.reinstate(index);
        } else {
            self.children[index].lane = Lane::Probation {
                clean_windows,
                window_draws,
            };
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
            .map(|c| c.source.nominal_bit_rate())
            .fold(f64::INFINITY, f64::min)
    }

    fn entropy_per_bit(&self) -> f64 {
        self.static_claim
    }

    fn current_entropy_per_bit(&self) -> f64 {
        self.current_claim
    }

    fn fill_bits(&mut self, out: &mut [u8]) -> Result<()> {
        self.tick_quarantines()?;
        if !self
            .children
            .iter()
            .any(|c| matches!(c.lane, Lane::Serving))
        {
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
        let mut mixed_any = false;
        for index in 0..self.children.len() {
            let lane = self.children[index].lane.clone();
            match lane {
                Lane::Quarantined { .. } => continue,
                Lane::Serving | Lane::Probation { .. } => {
                    if !self.draw_child(index, out.len())? {
                        continue;
                    }
                    for (bit, extra) in out.iter_mut().zip(&self.children[index].scratch) {
                        *bit ^= extra;
                    }
                    mixed_any = true;
                    match lane {
                        Lane::Serving => credited.push(index),
                        Lane::Probation { .. } => self.advance_probation(index),
                        Lane::Quarantined { .. } => unreachable!(),
                    }
                }
            }
        }

        self.current_claim = mixed_claim(
            credited
                .iter()
                .map(|&i| (self.children[i].label.as_str(), self.children[i].claim)),
        )?;
        if credited.is_empty() || !mixed_any {
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

    fn children_status(&self) -> Vec<ChildStatus> {
        self.children
            .iter()
            .enumerate()
            .map(|(child, entry)| ChildStatus {
                child,
                label: entry.label.clone(),
                state: entry.lane.name().to_string(),
                entropy_per_bit: entry.claim,
                credited_entropy_per_bit: if entry.lane == Lane::Serving {
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

    fn model_specs(n: usize) -> Vec<SourceSpec> {
        (0..n).map(|_| SourceSpec::model(0.5).unwrap()).collect()
    }

    /// Options tuned for fast tests: no stall watchdog (debug builds are slow),
    /// short cooldown/probation.
    fn fast_options() -> PoolOptions {
        PoolOptions {
            probation_windows: 2,
            quarantine_draws: 2,
            probation_window_draws: 2,
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
                probation_windows: 0,
                ..PoolOptions::default()
            },
            PoolOptions {
                quarantine_draws: 0,
                ..PoolOptions::default()
            },
            PoolOptions {
                probation_window_draws: 0,
                ..PoolOptions::default()
            },
            PoolOptions {
                thermal_check_draws: 0,
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

        // Keep drawing: cooldown (2 fills) → probation (2×2 clean draws) →
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
}
