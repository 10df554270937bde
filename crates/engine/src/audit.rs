//! Streaming entropy audit: the SP 800-90B estimator battery checking the ledger.
//!
//! The entropy ledger *claims*; this module *checks*.  An [`EntropyAudit`]
//! accumulates bits into fixed, non-overlapping windows and runs the non-IID
//! estimator battery ([`ptrng_ais::estimators`]) over every completed window (or,
//! under a sparse [`AuditCadence`], its counting members plus the last full run's
//! expensive results), comparing the battery's assessed min-entropy against a
//! claim — by default the ledger's model-backed (dependent-jitter-aware) bound,
//! optionally an asserted override such as the naive independence-assuming bound
//! the paper warns about.  A window whose estimate falls below `claim − margin` is
//! an **overclaim**: inside the engine it raises a shard alarm (same severity as a
//! failed continuous health test), and the `ptrngd validate` subcommand turns it
//! into exit code 3.
//!
//! # Margin
//!
//! The §6.3 estimators are deliberately conservative — every statistic is pushed to
//! a 99 % confidence bound before inversion — so even an *ideal* source assesses
//! below 1 bit/bit at finite window sizes.  The compression estimate is the floor
//! and also the noisiest member: across seeds it assesses ideal data anywhere in
//! ≈ 0.72–0.85 at the default 2¹⁷-bit window (its inversion is shallow, so small
//! fluctuations of the mean log-distance move the recovered probability a lot —
//! the same small-sample conservatism NIST's reference tool shows).  The margin
//! absorbs that known behavior; [`DEFAULT_AUDIT_MARGIN`] keeps a healthy ideal
//! source out of false-alarm range while still refuting claims inflated by more
//! than the margin — the paper's independence overclaims in the flicker regime are
//! caught with a *calibrated* margin instead, see `examples/independence_audit.rs`
//! and the tuning table in `docs/validation.md`.

use std::time::Instant;

use ptrng_ais::estimators::{
    counting_estimates, EstimatorBattery, EstimatorResult, EstimatorTiming, MIN_BATTERY_BITS,
};
use ptrng_obs::probe::elapsed_ns;
use serde::{Deserialize, Serialize};

use crate::{EngineError, Result};

/// Default audit window, in bits.
pub const DEFAULT_AUDIT_WINDOW_BITS: usize = 1 << 17;

/// Default audit margin, calibrated for [`DEFAULT_AUDIT_WINDOW_BITS`] (see the
/// [module docs](self)).
pub const DEFAULT_AUDIT_MARGIN: f64 = 0.35;

/// Timing label of a counting-only window: the counting members (MCV,
/// collision, Markov) run as one fused pass ([`counting_estimates`]), so they
/// are timed as one unit alongside the per-estimator battery names.
pub const COUNTER_TIMING_LABEL: &str = "counters";

/// Default expensive-member cadence for `--audit-every-lane` deployments: the
/// counting members run on every completed window, the expensive members every
/// this-many windows.  Sized so a 4-shard `ero:16` engine auditing all eight of
/// its lanes stays within ~10% of its single-lane throughput (see
/// docs/operations.md for the capacity-planning arithmetic).
pub const DEFAULT_EVERY_LANE_CADENCE: u32 = 64;

/// The battery lists its counting members (what [`counting_estimates`]
/// returns) first; the results after them are the expensive members a
/// counting-only window reuses.
const COUNTING_MEMBERS: usize = 3;

/// How often an audit lane runs the full battery.
///
/// The counting members (MCV, collision, Markov) are cheap; the remaining
/// members (compression, t-tuple+LRS, MultiMCW, lag) dominate a window's cost.
/// A *recompute* window runs the full battery and caches its expensive
/// results; any other window runs the counting members only and reuses the
/// cache, so its verdict combines fresh counting estimates with the cached
/// expensive ones.  The first completed window always recomputes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AuditCadence {
    /// Every completed window runs the full battery.
    #[default]
    EveryWindow,
    /// Every k-th completed window runs the full battery.
    EveryKWindows(u32),
}

impl AuditCadence {
    /// Whether the `index`-th completed window (0-based) runs the full
    /// battery.  Index 0 — the first completed window — always does.
    fn recompute_at(self, index: u64) -> bool {
        match self {
            AuditCadence::EveryWindow => true,
            AuditCadence::EveryKWindows(k) => index.is_multiple_of(u64::from(k)),
        }
    }
}

/// Configuration of a streaming entropy audit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditConfig {
    /// Bits per audited window (at least
    /// [`ptrng_ais::estimators::MIN_BATTERY_BITS`]).
    pub window_bits: usize,
    /// Tolerated shortfall of the battery estimate below the claim, absorbing the
    /// estimators' finite-sample conservatism.
    pub margin: f64,
    /// Claim audited against; `None` audits the ledger's own accounted value.
    /// Setting it to an asserted bound (e.g. the independence-assuming naive
    /// model's) turns the audit into the paper's experiment.  Inside the engine
    /// the override speaks about the **output**: with a non-identity conditioner
    /// it applies to the conditioned lane only, while the raw lane keeps auditing
    /// the raw ledger's own claim.
    pub claim: Option<f64>,
    /// Which windows run the full battery.
    pub cadence: AuditCadence,
}

impl Default for AuditConfig {
    fn default() -> Self {
        Self {
            window_bits: DEFAULT_AUDIT_WINDOW_BITS,
            margin: DEFAULT_AUDIT_MARGIN,
            claim: None,
            cadence: AuditCadence::default(),
        }
    }
}

impl AuditConfig {
    /// Sets the window size in bits.
    #[must_use]
    pub fn window_bits(mut self, bits: usize) -> Self {
        self.window_bits = bits;
        self
    }

    /// Sets the margin.
    #[must_use]
    pub fn margin(mut self, margin: f64) -> Self {
        self.margin = margin;
        self
    }

    /// Audits against an asserted claim instead of the ledger's.
    #[must_use]
    pub fn claim(mut self, claim: Option<f64>) -> Self {
        self.claim = claim;
        self
    }

    /// Sets how often the full battery runs.
    #[must_use]
    pub fn cadence(mut self, cadence: AuditCadence) -> Self {
        self.cadence = cadence;
        self
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.window_bits < MIN_BATTERY_BITS {
            return Err(EngineError::InvalidParameter {
                name: "audit.window_bits",
                reason: format!(
                    "the estimator battery needs at least {MIN_BATTERY_BITS} bits per \
                     window, got {}",
                    self.window_bits
                ),
            });
        }
        if !(self.margin >= 0.0 && self.margin < 1.0) {
            return Err(EngineError::InvalidParameter {
                name: "audit.margin",
                reason: format!("must be in [0, 1), got {}", self.margin),
            });
        }
        if let Some(claim) = self.claim {
            if !(claim > 0.0 && claim <= 1.0) {
                return Err(EngineError::InvalidParameter {
                    name: "audit.claim",
                    reason: format!("must be in (0, 1] for binary output, got {claim}"),
                });
            }
        }
        if let AuditCadence::EveryKWindows(0) = self.cadence {
            return Err(EngineError::InvalidParameter {
                name: "audit.cadence",
                reason: "every-k-windows cadence needs k ≥ 1".to_string(),
            });
        }
        Ok(())
    }
}

/// Outcome of one audited window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowAudit {
    /// Battery minimum over the window, in bits per bit.
    pub estimate: f64,
    /// Name of the estimator producing the minimum.
    pub weakest: String,
    /// Whether `estimate < claim − margin`.
    pub overclaim: bool,
    /// Every estimator's result over the window.
    pub estimators: Vec<EstimatorResult>,
    /// Wall-clock cost of each battery unit that actually ran for this window
    /// (a counting-only window's cached members do not reappear here).
    pub timings: Vec<EstimatorTiming>,
}

/// Serializable summary of an audit lane (what the metrics snapshot carries).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditSnapshot {
    /// Lane label (`"raw"` or `"conditioned"`).
    pub lane: String,
    /// The claim audited against.
    pub claim: f64,
    /// The configured margin.
    pub margin: f64,
    /// Completed windows so far.
    pub windows: u64,
    /// Windows that flagged an overclaim.
    pub overclaims: u64,
    /// Battery estimate of the most recent window (0 before the first window).
    pub last_estimate: f64,
    /// Weakest estimator of the most recent window (empty before the first).
    pub last_weakest: String,
}

impl AuditSnapshot {
    /// Renders the human-readable alarm reason for an overclaimed window.
    pub(crate) fn alarm_reason(&self) -> String {
        format!(
            "entropy audit ({}): battery estimate {:.4}/bit ({}) is below \
             claim {:.4} − margin {:.2}",
            self.lane, self.last_estimate, self.last_weakest, self.claim, self.margin
        )
    }
}

/// Full audit report (the JSON body `ptrngd validate` and `/selftest` emit,
/// mirroring the ledger's rendering conventions).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AuditReport {
    /// Lane label.
    pub lane: String,
    /// The claim audited against, in min-entropy bits per bit.
    pub claim: f64,
    /// The configured margin.
    pub margin: f64,
    /// Window size in bits.
    pub window_bits: usize,
    /// Completed windows.
    pub windows: u64,
    /// Windows that flagged an overclaim.
    pub overclaims: u64,
    /// The most recent window's outcome.
    pub latest: Option<WindowAudit>,
}

/// One call into an audit that completed a window, as handed on for recording.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditRecord {
    /// The audit's summary after the call.
    pub snapshot: AuditSnapshot,
    /// Per-unit battery timings of the last window the call completed.
    pub timings: Vec<EstimatorTiming>,
    /// Wall-clock nanoseconds of the call (the battery dominates it).
    pub battery_ns: u64,
    /// Whether a window the call completed put the estimate below the claim
    /// minus the margin.
    pub overclaimed: bool,
}

/// Streaming audit accumulator: feed bits (or packed bytes), get per-window
/// battery verdicts against a fixed claim.
#[derive(Debug)]
pub struct EntropyAudit {
    lane: String,
    claim: f64,
    config: AuditConfig,
    /// Bits of the window being filled.
    pending: Vec<u8>,
    /// The last full battery's expensive results, specification order:
    /// compression, t-tuple, LRS, MultiMCW, lag.
    cached_expensive: Vec<EstimatorResult>,
    windows: u64,
    overclaims: u64,
    latest: Option<WindowAudit>,
}

impl EntropyAudit {
    /// Creates an audit lane.  `ledger_claim` is the accounted min-entropy per bit
    /// at the tapped point of the pipeline; the configured
    /// [`AuditConfig::claim`] override, when set, replaces it.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-domain configuration or claim.
    pub fn new(lane: &str, ledger_claim: f64, config: AuditConfig) -> Result<Self> {
        config.validate()?;
        let claim = config.claim.unwrap_or(ledger_claim);
        if !(claim > 0.0 && claim <= 1.0) {
            return Err(EngineError::InvalidParameter {
                name: "ledger_claim",
                reason: format!("must be in (0, 1] for binary output, got {claim}"),
            });
        }
        Ok(Self {
            lane: lane.to_string(),
            claim,
            config,
            pending: Vec::new(),
            cached_expensive: Vec::new(),
            windows: 0,
            overclaims: 0,
            latest: None,
        })
    }

    /// The claim this lane audits against.
    pub fn claim(&self) -> f64 {
        self.claim
    }

    /// Completed windows so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Windows that flagged an overclaim so far.
    pub fn overclaims(&self) -> u64 {
        self.overclaims
    }

    /// Whether any window flagged an overclaim.
    pub fn overclaimed(&self) -> bool {
        self.overclaims > 0
    }

    /// The most recent window's outcome.
    pub fn latest(&self) -> Option<&WindowAudit> {
        self.latest.as_ref()
    }

    /// Feeds bits (one `0`/`1` per byte); runs the battery for every window that
    /// completes and returns the outcome of the last completed window, if any.
    ///
    /// # Errors
    ///
    /// Returns an error when the input contains non-bit values.
    pub fn observe_bits(&mut self, bits: &[u8]) -> Result<Option<&WindowAudit>> {
        let window_bits = self.config.window_bits;
        let mut completed = false;
        let mut offset = 0usize;
        while offset < bits.len() {
            let take = (window_bits - self.pending.len()).min(bits.len() - offset);
            self.pending.extend_from_slice(&bits[offset..offset + take]);
            offset += take;
            if self.pending.len() == window_bits {
                let window = std::mem::take(&mut self.pending);
                self.audit_window(&window)?;
                completed = true;
            }
        }
        Ok(if completed {
            self.latest.as_ref()
        } else {
            None
        })
    }

    /// [`EntropyAudit::observe_bits`], timed: returns the record of a call that
    /// completed a window.
    pub(crate) fn observe_record(&mut self, bits: &[u8]) -> Result<Option<AuditRecord>> {
        let overclaims = self.overclaims;
        let start = Instant::now();
        let Some(window) = self.observe_bits(bits)? else {
            return Ok(None);
        };
        let timings = window.timings.clone();
        Ok(Some(AuditRecord {
            battery_ns: elapsed_ns(start),
            timings,
            overclaimed: self.overclaims > overclaims,
            snapshot: self.snapshot(),
        }))
    }

    /// Feeds packed output bytes (MSB-first, the engine's byte representation).
    ///
    /// # Errors
    ///
    /// Returns an error when a completed window fails to assess.
    pub fn observe_bytes(&mut self, bytes: &[u8]) -> Result<Option<&WindowAudit>> {
        self.observe_bits(&crate::stream::unpack_bits(bytes))
    }

    /// Audits the buffered remainder as a final (short) window, when it still
    /// holds enough bits for the battery; otherwise discards it.
    ///
    /// # Errors
    ///
    /// Returns an error when the remainder fails to assess.
    pub fn finalize(&mut self) -> Result<Option<&WindowAudit>> {
        if self.pending.len() >= MIN_BATTERY_BITS {
            let remainder = std::mem::take(&mut self.pending);
            self.record_full_battery(&remainder)?;
            return Ok(self.latest.as_ref());
        }
        self.pending.clear();
        Ok(None)
    }

    /// Starts a fresh window: drops the buffered bits and the cached expensive
    /// results, so the next window runs the full battery over bits observed from
    /// now on.  The window and overclaim counts keep counting.
    pub(crate) fn restart(&mut self) {
        self.pending.clear();
        self.cached_expensive.clear();
    }

    /// Audits one completed window: the full battery on a recompute window or
    /// when no expensive results are cached, otherwise the counting members plus
    /// the cached expensive results.
    fn audit_window(&mut self, window: &[u8]) -> Result<()> {
        if self.cached_expensive.is_empty() || self.config.cadence.recompute_at(self.windows) {
            return self.record_full_battery(window);
        }
        let start = Instant::now();
        let mut results = counting_estimates(window)?;
        let timings = vec![EstimatorTiming {
            name: COUNTER_TIMING_LABEL.to_string(),
            ns: start.elapsed().as_nanos() as u64,
        }];
        results.extend(self.cached_expensive.iter().cloned());
        self.record_window(results, timings);
        Ok(())
    }

    fn record_full_battery(&mut self, window: &[u8]) -> Result<()> {
        let (battery, timings) = EstimatorBattery::run_with_timings(window)?;
        let results = battery.results().to_vec();
        self.cached_expensive = results[COUNTING_MEMBERS..].to_vec();
        self.record_window(results, timings);
        Ok(())
    }

    fn record_window(&mut self, estimators: Vec<EstimatorResult>, timings: Vec<EstimatorTiming>) {
        let (estimate, weakest) = estimators
            .iter()
            .min_by(|a, b| a.h_per_bit.total_cmp(&b.h_per_bit))
            .map(|r| (r.h_per_bit, r.name.clone()))
            .expect("the battery always holds at least one result");
        let overclaim = estimate < self.claim - self.config.margin;
        self.windows += 1;
        if overclaim {
            self.overclaims += 1;
        }
        self.latest = Some(WindowAudit {
            estimate,
            weakest,
            overclaim,
            estimators,
            timings,
        });
    }

    /// The compact per-lane summary carried by the engine metrics snapshot.
    pub fn snapshot(&self) -> AuditSnapshot {
        AuditSnapshot {
            lane: self.lane.clone(),
            claim: self.claim,
            margin: self.config.margin,
            windows: self.windows,
            overclaims: self.overclaims,
            last_estimate: self.latest.as_ref().map_or(0.0, |w| w.estimate),
            last_weakest: self
                .latest
                .as_ref()
                .map_or_else(String::new, |w| w.weakest.clone()),
        }
    }

    /// The full report (what `ptrngd validate` prints and `/selftest` returns).
    pub fn report(&self) -> AuditReport {
        AuditReport {
            lane: self.lane.clone(),
            claim: self.claim,
            margin: self.config.margin,
            window_bits: self.config.window_bits,
            windows: self.windows,
            overclaims: self.overclaims,
            latest: self.latest.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptrng_ais::estimators::BATTERY_UNIT_NAMES;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bits(len: usize, p_one: f64, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| u8::from(rng.gen_bool(p_one))).collect()
    }

    #[test]
    fn honest_claim_passes_the_audit() {
        // The default margin is calibrated for the default 2¹⁷-bit window; this
        // small 2¹⁵-bit test window needs a proportionally wider one (the
        // compression estimate's conservatism grows as the window shrinks — it
        // assesses ideal data at ≈ 0.73 here, ≈ 0.60 at 2¹⁴).
        let config = AuditConfig::default().window_bits(1 << 15).margin(0.4);
        let mut audit = EntropyAudit::new("conditioned", 1.0, config).unwrap();
        // Feed two windows in uneven chunks; both assess without overclaim.
        for chunk in bits(1 << 16, 0.5, 1).chunks(5000) {
            audit.observe_bits(chunk).unwrap();
        }
        assert_eq!(audit.windows(), 2);
        assert_eq!(audit.overclaims(), 0);
        assert!(!audit.overclaimed());
        let latest = audit.latest().unwrap();
        assert!(latest.estimate > 0.6, "{latest:?}");
        assert_eq!(latest.estimators.len(), 8);
    }

    #[test]
    fn inflated_claim_is_flagged() {
        // A p = 0.95 source truly carries ≈ 0.074 bits/bit; asserting 0.9 is the
        // independence-style overclaim the audit exists to catch.
        let config = AuditConfig::default().window_bits(1 << 14).claim(Some(0.9));
        let mut audit = EntropyAudit::new("raw", 0.074, config).unwrap();
        audit.observe_bits(&bits(1 << 14, 0.95, 2)).unwrap();
        assert!(audit.overclaimed());
        assert!(audit.latest().unwrap().overclaim);
        assert!(audit
            .snapshot()
            .alarm_reason()
            .contains("entropy audit (raw)"));
        let snap = audit.snapshot();
        assert_eq!(snap.overclaims, 1);
        assert!((snap.claim - 0.9).abs() < 1e-15);
    }

    #[test]
    fn bytes_and_finalize_paths_work() {
        let config = AuditConfig::default().window_bits(1 << 14);
        let mut audit = EntropyAudit::new("conditioned", 0.9, config).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // 1.5 windows worth of packed bytes: one full window plus a remainder that
        // finalize() audits.
        let bytes: Vec<u8> = (0..3 << 10).map(|_| rng.gen_range(0..=255)).collect();
        audit.observe_bytes(&bytes).unwrap();
        assert_eq!(audit.windows(), 1);
        audit.finalize().unwrap();
        assert_eq!(audit.windows(), 2);
        // A tiny remainder is discarded rather than assessed meaninglessly.
        audit.observe_bits(&[0, 1, 1, 0]).unwrap();
        assert!(audit.finalize().unwrap().is_none());
        assert_eq!(audit.windows(), 2);
    }

    #[test]
    fn report_serializes_with_the_ledger_conventions() {
        let config = AuditConfig::default().window_bits(1 << 14);
        let mut audit = EntropyAudit::new("conditioned", 1.0, config).unwrap();
        audit.observe_bits(&bits(1 << 14, 0.5, 4)).unwrap();
        let report = audit.report();
        let value = serde::Serialize::to_value(&report);
        let back: AuditReport = serde::Deserialize::from_value(&value).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.windows, 1);
        assert!(back.latest.is_some());
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(EntropyAudit::new("x", 1.0, AuditConfig::default().window_bits(100)).is_err());
        assert!(EntropyAudit::new("x", 1.0, AuditConfig::default().margin(1.5)).is_err());
        assert!(EntropyAudit::new("x", 0.0, AuditConfig::default()).is_err());
        assert!(EntropyAudit::new("x", 1.0, AuditConfig::default().claim(Some(2.0))).is_err());
        assert!(EntropyAudit::new(
            "x",
            1.0,
            AuditConfig::default().cadence(AuditCadence::EveryKWindows(0))
        )
        .is_err());
    }

    #[test]
    fn slide_of_one_window_keeps_tumbling_coverage_under_the_cadence() {
        // A k = 4 lane and an every-window lane audit the same five windows:
        // windows 0 and 4 recompute the full battery and match the every-window
        // lane exactly; windows 1–3 run the counting members only and reuse the
        // expensive results cached at window 0.
        let config = AuditConfig::default().window_bits(1 << 14).margin(0.5);
        let mut every = EntropyAudit::new("raw", 1.0, config.clone()).unwrap();
        let mut cadenced =
            EntropyAudit::new("raw", 1.0, config.cadence(AuditCadence::EveryKWindows(4))).unwrap();
        let data = bits(5 << 14, 0.5, 21);
        let (mut full, mut counting) = (0, 0);
        let mut cached = Vec::new();
        for window in data.chunks(1 << 14) {
            let e = every.observe_bits(window).unwrap().unwrap().clone();
            let c = cadenced.observe_bits(window).unwrap().unwrap().clone();
            assert_eq!(c.estimators.len(), 8);
            let names: Vec<&str> = c.timings.iter().map(|t| t.name.as_str()).collect();
            if names == [COUNTER_TIMING_LABEL] {
                counting += 1;
                assert_eq!(c.estimators[..3], e.estimators[..3]);
                assert_eq!(c.estimators[3..], cached[..]);
            } else {
                full += 1;
                assert_eq!(names, BATTERY_UNIT_NAMES);
                assert_eq!(c.estimators, e.estimators);
                assert_eq!(c.estimate, e.estimate);
                cached = e.estimators[3..].to_vec();
            }
        }
        assert_eq!((full, counting), (2, 3));
        assert_eq!(cadenced.windows(), 5);
    }

    #[test]
    fn a_restart_drops_the_open_window_and_recomputes_the_next() {
        // A k = 4 lane: window 0 runs the full battery and window 1 the counting
        // members.  A restart drops the half window then buffered, so the next
        // window holds only bits observed after it, and runs the full battery
        // although the cadence would reuse the cache; the counts keep counting.
        const W: usize = 1 << 14;
        let config = AuditConfig::default()
            .window_bits(W)
            .margin(0.5)
            .cadence(AuditCadence::EveryKWindows(4));
        let mut audit = EntropyAudit::new("raw", 1.0, config).unwrap();
        let data = bits(4 * W, 0.5, 22);
        let names = |window: Option<&WindowAudit>| -> Vec<String> {
            let window = window.expect("a window completes");
            window.timings.iter().map(|t| t.name.clone()).collect()
        };
        assert_eq!(
            names(audit.observe_bits(&data[..W]).unwrap()),
            BATTERY_UNIT_NAMES
        );
        assert_eq!(
            names(audit.observe_bits(&data[W..2 * W]).unwrap()),
            [COUNTER_TIMING_LABEL]
        );
        assert!(audit
            .observe_bits(&data[2 * W..2 * W + W / 2])
            .unwrap()
            .is_none());
        audit.restart();
        let after = &data[2 * W + W / 2..];
        assert_eq!(
            names(audit.observe_bits(&after[..W]).unwrap()),
            BATTERY_UNIT_NAMES
        );
        assert!(audit.observe_bits(&after[W..W + W / 2]).unwrap().is_none());
        assert_eq!(audit.windows(), 3);
    }

    #[test]
    fn sliding_lane_catches_an_overclaim_with_cached_members() {
        // p = 0.95 bits against a 0.9 claim: the counting members alone refute
        // it on every window, cached expensive members notwithstanding.
        let config = AuditConfig::default()
            .window_bits(1 << 14)
            .claim(Some(0.9))
            .cadence(AuditCadence::EveryKWindows(1000));
        let mut audit = EntropyAudit::new("raw", 0.074, config).unwrap();
        audit.observe_bits(&bits(1 << 15, 0.95, 13)).unwrap();
        assert_eq!(audit.windows(), 2);
        assert_eq!(audit.overclaims(), 2, "every window flags independently");
    }
}
