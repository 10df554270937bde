//! One raw-bit lane: a source and the tests that judge its raw bits.
//!
//! A [`SourceLane`] owns one [`EntropySource`], the [`HealthMonitor`] calibrated
//! from its claim, an optional [`EntropyAudit`], an optional stall budget and the
//! `σ²_N` sweep cadence.  [`SourceLane::draw`] runs one batch through
//! fill → RCT/APT → sweep → audit and returns either a clean draw, with the audit
//! window it completed if any, or a typed [`Trip`].  The lane decides nothing
//! more: a shard worker ([`crate::pool`]) turns a trip into its alarm, and a pool
//! ([`crate::pooled`]) turns a child's trip into that child's quarantine.  So a
//! change to what a raw-bit lane checks is made here, once, for shards and pool
//! children alike.

use std::fmt;
use std::time::{Duration, Instant};

use crate::audit::{AuditRecord, EntropyAudit};
use crate::health::{AlarmReason, HealthMonitor, HealthState};
use crate::source::{EntropySource, THERMAL_SWEEP_DEPTHS};
use crate::EngineError;

/// Default sweep cadence: a lane with a thermal test sweeps on its first draw and
/// then on every this-many-th draw.  Shards take theirs from
/// `EngineConfig::thermal_check_batches`, whose default this is; pool children
/// always use it.
pub(crate) const DEFAULT_SWEEP_CADENCE: usize = 64;

/// Why a lane's draw may not be used.
#[derive(Debug)]
pub(crate) enum Trip {
    /// The source's fill failed.
    Fill(EngineError),
    /// The fill took longer than the lane's stall budget.
    Stall {
        /// How long the fill took.
        elapsed: Duration,
        /// The budget it overran.
        budget: Duration,
    },
    /// A sample was not a bit.
    NonBit(EngineError),
    /// A continuous health test latched its alarm: RCT, APT or the thermal test.
    Health(AlarmReason),
    /// The `σ²_N` sweep failed.
    Sweep(EngineError),
    /// The thermal test could not fit the sweep.
    Fit(EngineError),
    /// The audit could not assess a window.
    Audit(EngineError),
    /// A window completed by the draw put the battery estimate below the claim
    /// minus the margin; the record still has to be recorded.
    Overclaim(Box<AuditRecord>),
}

impl fmt::Display for Trip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trip::Fill(error) => write!(f, "fill failed: {error}"),
            Trip::Stall { elapsed, budget } => write!(
                f,
                "stalled: fill took {} ms (budget {} ms)",
                elapsed.as_millis(),
                budget.as_millis()
            ),
            Trip::NonBit(error) => write!(f, "emitted non-bits: {error}"),
            Trip::Health(reason) => write!(f, "{reason}"),
            Trip::Sweep(error) => write!(f, "thermal sweep failed: {error}"),
            Trip::Fit(error) => write!(f, "thermal fit failed: {error}"),
            Trip::Audit(error) => write!(f, "audit failed: {error}"),
            Trip::Overclaim(record) => f.write_str(&record.snapshot.alarm_reason()),
        }
    }
}

/// A source and the tests that judge its raw bits (see the [module docs](self)).
pub(crate) struct SourceLane {
    pub(crate) source: Box<dyn EntropySource>,
    /// The health monitor; a shard also feeds it its conditioned bits.
    pub(crate) monitor: HealthMonitor,
    /// The monitor as built, which [`SourceLane::restart`] brings back.
    pristine: HealthMonitor,
    audit: Option<EntropyAudit>,
    stall_budget: Option<Duration>,
    sweep_cadence: usize,
    /// Draws since the last sweep, modulo the cadence: the lane sweeps at 0.
    sweep_phase: usize,
}

impl SourceLane {
    /// A lane over `source`, judged by `monitor` and, when given, `audit`.  When
    /// `monitor` has a thermal test, the lane sweeps on its first draw and then
    /// on every `sweep_cadence`-th (at least 1); a fill that takes longer than
    /// `stall_budget` trips it.
    pub(crate) fn new(
        source: Box<dyn EntropySource>,
        monitor: HealthMonitor,
        audit: Option<EntropyAudit>,
        sweep_cadence: usize,
        stall_budget: Option<Duration>,
    ) -> Self {
        Self {
            source,
            pristine: monitor.clone(),
            monitor,
            audit,
            stall_budget,
            sweep_cadence: sweep_cadence.max(1),
            sweep_phase: 0,
        }
    }

    /// Fills `out` with raw bits and judges them: RCT/APT, then a `σ²_N` sweep
    /// when one is due, then the audit.
    ///
    /// # Errors
    ///
    /// Returns the first [`Trip`]; the bits in `out` must then not be used.
    pub(crate) fn draw(
        &mut self,
        out: &mut [u8],
    ) -> std::result::Result<Option<AuditRecord>, Trip> {
        let started = self.stall_budget.map(|_| Instant::now());
        self.source.fill_bits(out).map_err(Trip::Fill)?;
        if let (Some(budget), Some(started)) = (self.stall_budget, started) {
            let elapsed = started.elapsed();
            if elapsed > budget {
                return Err(Trip::Stall { elapsed, budget });
            }
        }
        judge(self.monitor.observe_bits(out).map_err(Trip::NonBit)?)?;
        if self.monitor.has_thermal() {
            if self.sweep_phase == 0 {
                self.sweep()?;
            }
            self.sweep_phase = (self.sweep_phase + 1) % self.sweep_cadence;
        }
        let Some(audit) = &mut self.audit else {
            return Ok(None);
        };
        match audit.observe_record(out).map_err(Trip::Audit)? {
            Some(record) if record.overclaimed => Err(Trip::Overclaim(Box::new(record))),
            record => Ok(record),
        }
    }

    /// One `σ²_N` sweep of the draw into the thermal test; a draw that resolves
    /// fewer than two depths cannot be fitted, which trips the lane.
    fn sweep(&mut self) -> std::result::Result<(), Trip> {
        let Some(points) = self
            .source
            .sigma2_sweep(&THERMAL_SWEEP_DEPTHS)
            .map_err(Trip::Sweep)?
        else {
            return Ok(());
        };
        let (depths, variances): (Vec<f64>, Vec<f64>) =
            points.iter().map(|p| (p.n as f64, p.sigma2_n)).unzip();
        judge(
            self.monitor
                .observe_sigma2_points(&depths, &variances)
                .map_err(Trip::Fit)?,
        )
    }

    /// Judges the lane afresh: the monitor as built, a fresh audit window (the
    /// audit's window and overclaim counts keep counting), and a sweep on the
    /// next draw.
    pub(crate) fn restart(&mut self) {
        self.monitor = self.pristine.clone();
        if let Some(audit) = &mut self.audit {
            audit.restart();
        }
        self.sweep_phase = 0;
    }
}

/// A latched monitor trips the lane.
fn judge(state: &HealthState) -> std::result::Result<(), Trip> {
    match state {
        HealthState::Alarmed(reason) => Err(Trip::Health(reason.clone())),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditConfig;
    use crate::fault::{FaultPlan, FaultSource};
    use crate::health::HealthConfig;
    use crate::source::{ModelSource, SourceSpec};
    use crate::Result;
    use ptrng_osc::phase::PhaseNoiseModel;
    use ptrng_trng::conditioning::EntropyLedger;
    use ptrng_trng::online::OnlineTestConfig;

    /// Emits one constant sample value.
    struct Constant(u8);

    impl EntropySource for Constant {
        fn label(&self) -> String {
            format!("constant({})", self.0)
        }

        fn nominal_bit_rate(&self) -> f64 {
            f64::INFINITY
        }

        fn entropy_per_bit(&self) -> f64 {
            1.0
        }

        fn fill_bits(&mut self, out: &mut [u8]) -> Result<()> {
            out.fill(self.0);
            Ok(())
        }
    }

    /// A lane whose monitor is calibrated from the source's own claim.
    fn lane(source: Box<dyn EntropySource>, health: &HealthConfig) -> SourceLane {
        audited(source, health, None)
    }

    fn audited(
        source: Box<dyn EntropySource>,
        health: &HealthConfig,
        audit: Option<AuditConfig>,
    ) -> SourceLane {
        let claim = source.entropy_per_bit();
        let ledger = EntropyLedger::source("lane test", claim).unwrap();
        let audit = audit.map(|config| EntropyAudit::new("lane", claim, config).unwrap());
        let monitor = HealthMonitor::new(health, &ledger).unwrap();
        SourceLane::new(source, monitor, audit, DEFAULT_SWEEP_CADENCE, None)
    }

    fn raw_health() -> HealthConfig {
        HealthConfig::default().without_startup_battery()
    }

    fn model(p_one: f64) -> Box<dyn EntropySource> {
        Box::new(ModelSource::new(p_one, 3).unwrap())
    }

    fn faulty(plan: &str, inner: Box<dyn EntropySource>) -> Box<dyn EntropySource> {
        Box::new(FaultSource::new(inner, FaultPlan::parse(plan).unwrap()))
    }

    #[test]
    fn every_trip_is_typed_and_reads_as_its_reason() {
        let mut bits = vec![0u8; 4096];

        let mut dead = lane(
            faulty("child=0,kind=intermittent", model(0.5)),
            &raw_health(),
        );
        let trip = dead.draw(&mut bits).unwrap_err();
        assert!(matches!(trip, Trip::Fill(EngineError::SourceFault { .. })));
        assert!(
            trip.to_string()
                .starts_with("fill failed: source fault: injected intermittent death"),
            "{trip}"
        );

        let mut junk = lane(Box::new(Constant(2)), &raw_health());
        let trip = junk.draw(&mut bits).unwrap_err();
        assert!(matches!(trip, Trip::NonBit(_)));
        assert_eq!(
            trip.to_string(),
            "emitted non-bits: invalid parameter bits: sample at index 0 is not a bit (got 2)"
        );

        let mut stuck = lane(Box::new(Constant(0)), &raw_health());
        let cutoff = stuck.monitor.repetition_cutoff();
        let trip = stuck.draw(&mut bits).unwrap_err();
        assert!(matches!(
            trip,
            Trip::Health(AlarmReason::RepetitionCount { run, .. }) if run == cutoff
        ));
        assert_eq!(
            trip.to_string(),
            format!("repetition count {cutoff} reached cutoff {cutoff}")
        );

        let mut slow = lane(
            faulty("child=0,kind=stall,ms=40", model(0.5)),
            &raw_health(),
        );
        slow.stall_budget = Some(Duration::from_millis(10));
        let trip = slow.draw(&mut bits).unwrap_err();
        assert!(matches!(trip, Trip::Stall { budget, .. } if budget.as_millis() == 10));
        let reason = trip.to_string();
        assert!(
            reason.starts_with("stalled: fill took ") && reason.ends_with(" ms (budget 10 ms)"),
            "{reason}"
        );

        // The rings' own thermal jitter is the reference, and the injected
        // collapse scales every σ²_N by 10⁻⁴: two strikes latch the alarm.
        let sampled = PhaseNoiseModel::new(1.2e6, 0.0, 103.0e6).unwrap();
        let sampling = PhaseNoiseModel::new(1.2e6, 0.0, 102.3e6).unwrap();
        let relative = sampled.relative_to(&sampling).unwrap();
        let thermal =
            OnlineTestConfig::new(relative.frequency(), relative.thermal_period_jitter(), 0.5)
                .unwrap();
        let ring = SourceSpec::parse("ero:2:strong").unwrap().build(5).unwrap();
        let mut locked = lane(
            faulty("child=0,kind=variance-collapse", ring),
            &raw_health().with_thermal(thermal.clone()),
        );
        locked.sweep_cadence = 1;
        assert!(locked.draw(&mut bits).is_ok(), "one strike does not latch");
        let trip = locked.draw(&mut bits).unwrap_err();
        assert!(matches!(
            trip,
            Trip::Health(AlarmReason::ThermalCollapse { .. })
        ));
        assert!(
            trip.to_string().starts_with("thermal jitter collapsed to "),
            "{trip}"
        );

        // 256 bits at D = 2 hold no window of the sweep's depths: nothing to fit, so
        // the lane fails closed.
        let ring = SourceSpec::parse("ero:2:strong").unwrap().build(5).unwrap();
        let mut short = lane(ring, &raw_health().with_thermal(thermal));
        let trip = short.draw(&mut bits[..256]).unwrap_err();
        assert!(matches!(trip, Trip::Fit(_)));
        assert!(
            trip.to_string().starts_with("thermal fit failed: "),
            "{trip}"
        );

        // A p = 0.95 source audited against an asserted 0.9 bits/bit.
        let mut inflated = audited(
            model(0.95),
            &raw_health(),
            Some(AuditConfig::default().window_bits(1 << 14).claim(Some(0.9))),
        );
        let trip = loop {
            if let Err(trip) = inflated.draw(&mut bits) {
                break trip;
            }
        };
        let Trip::Overclaim(record) = &trip else {
            panic!("expected an overclaim, got {trip}");
        };
        assert!(record.overclaimed);
        assert_eq!(record.snapshot.overclaims, 1);
        assert!(
            trip.to_string()
                .starts_with("entropy audit (lane): battery estimate "),
            "{trip}"
        );
    }
}
