//! Continuous health monitoring: a latching alarm state machine per shard.
//!
//! Composes three layers, ordered by reaction time:
//!
//! 1. **SP 800-90B continuous tests** on every raw bit — an incremental
//!    repetition-count test (total-failure detector, fires within ~cutoff samples of a
//!    stuck source) and an incremental adaptive-proportion test over disjoint
//!    1024-bit windows (large entropy loss detector).  Cutoffs are calibrated from the
//!    source's model-backed min-entropy claim.
//! 2. **FIPS 140-2 startup battery** on the first 20 000 *output* bits (i.e. after
//!    post-processing, matching FIPS 140-2's power-up tests which judge the RNG's
//!    conditioned output): monobit, poker, runs and long-run must all pass before the
//!    shard is allowed to publish.
//! 3. **The paper's `σ²_N` thermal online test** ([`OnlineThermalTest`]): counter
//!    sweeps are fitted to `a·N + b·N²` and the thermal component compared against the
//!    commissioning reference, catching frequency-injection attacks that lock the
//!    rings.  Because flicker noise makes single-shot estimates wander (the `1/f`
//!    component is not averaged out by longer counters — cf. fBm models of `1/f`
//!    noise), one failing estimate only moves the shard to *suspect*; the alarm
//!    latches after `thermal_strikes` consecutive failures.

use serde::{Deserialize, Serialize};

use ptrng_ais::bits::{first_non_bit, pack_word};
use ptrng_ais::fips;
use ptrng_ais::sp80090b::{
    adaptive_proportion_cutoff_with, repetition_count_cutoff_with, ADAPTIVE_PROPORTION_WINDOW,
};
use ptrng_trng::conditioning::EntropyLedger;
use ptrng_trng::online::{OnlineTestConfig, OnlineThermalTest};

use crate::{EngineError, Result};

/// Why a shard raised its alarm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AlarmReason {
    /// The FIPS 140-2 startup battery failed; the names of the failing tests.
    StartupBatteryFailed(Vec<String>),
    /// A run of identical bits reached the repetition-count cutoff.
    RepetitionCount {
        /// Observed run length.
        run: u64,
        /// The calibrated cutoff.
        cutoff: u64,
    },
    /// An adaptive-proportion window exceeded its cutoff.
    AdaptiveProportion {
        /// Observed count of the window's first value.
        count: u64,
        /// The calibrated cutoff.
        cutoff: u64,
    },
    /// The estimated thermal jitter collapsed below the alarm threshold for
    /// `thermal_strikes` consecutive evaluations.
    ThermalCollapse {
        /// Last observed ratio of the thermal-jitter estimate to the reference.
        ratio: f64,
    },
}

impl AlarmReason {
    /// The typed alarm class this reason belongs to.
    pub fn kind(&self) -> crate::metrics::AlarmKind {
        match self {
            AlarmReason::StartupBatteryFailed(_) => crate::metrics::AlarmKind::StartupBattery,
            AlarmReason::RepetitionCount { .. } => crate::metrics::AlarmKind::RepetitionCount,
            AlarmReason::AdaptiveProportion { .. } => crate::metrics::AlarmKind::AdaptiveProportion,
            AlarmReason::ThermalCollapse { .. } => crate::metrics::AlarmKind::Thermal,
        }
    }
}

impl std::fmt::Display for AlarmReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlarmReason::StartupBatteryFailed(tests) => {
                write!(f, "startup battery failed: {}", tests.join(", "))
            }
            AlarmReason::RepetitionCount { run, cutoff } => {
                write!(f, "repetition count {run} reached cutoff {cutoff}")
            }
            AlarmReason::AdaptiveProportion { count, cutoff } => {
                write!(f, "adaptive proportion {count} reached cutoff {cutoff}")
            }
            AlarmReason::ThermalCollapse { ratio } => {
                write!(f, "thermal jitter collapsed to {ratio:.3}× the reference")
            }
        }
    }
}

/// Observable state of the monitor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HealthState {
    /// Collecting the startup sample; output must be withheld.
    Startup,
    /// All tests passing.
    Healthy,
    /// One or more thermal evaluations failed, but fewer than `thermal_strikes`.
    Suspect {
        /// Consecutive failing thermal evaluations so far.
        strikes: u32,
    },
    /// A test fired; the alarm latches until the monitor is rebuilt.
    Alarmed(AlarmReason),
}

/// Configuration of the per-shard health monitor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthConfig {
    /// Min-entropy per raw bit claimed for cutoff calibration; `None` adopts the
    /// source's own model-backed claim.
    pub min_entropy_per_bit: Option<f64>,
    /// Run the FIPS 140-2 battery on the first 20 000 bits before publishing output.
    pub startup_battery: bool,
    /// The thermal online test, if counter sweeps are available.
    pub thermal: Option<OnlineTestConfig>,
    /// Consecutive failing thermal evaluations required to latch the alarm.
    pub thermal_strikes: u32,
    /// False-positive exponent `e` of the continuous tests: cutoffs are calibrated so
    /// a healthy source fails with probability about `2^-e` per sample (RCT) / per
    /// window (APT).  SP 800-90B's example value is 20, which at full entropy expects
    /// a false repetition-count alarm every 2²⁰ bits — several per mebibyte at this
    /// runtime's throughput — so the default here is 40.
    pub false_positive_exponent: f64,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self {
            min_entropy_per_bit: None,
            startup_battery: true,
            thermal: None,
            thermal_strikes: 2,
            false_positive_exponent: 40.0,
        }
    }
}

impl HealthConfig {
    /// A configuration without the startup battery (for tiny budgets or tests).
    pub fn without_startup_battery(mut self) -> Self {
        self.startup_battery = false;
        self
    }

    /// Overrides the entropy claim used for cutoff calibration.
    pub fn with_min_entropy(mut self, claim: f64) -> Self {
        self.min_entropy_per_bit = Some(claim);
        self
    }

    /// Attaches the thermal online test.
    pub fn with_thermal(mut self, config: OnlineTestConfig) -> Self {
        self.thermal = Some(config);
        self
    }
}

/// Floor applied to the ledger's claim for **cutoff calibration only**: a claim below
/// this would push the repetition-count/adaptive-proportion cutoffs beyond any useful
/// reaction time.  Flooring here is conservative (tighter cutoffs than the claim
/// warrants); the ledger itself — which drives the emission-refusal policy — is never
/// floored upward.
const CUTOFF_CLAIM_FLOOR: f64 = 0.05;

/// The per-shard health monitor.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    state: HealthState,
    // Repetition-count test.
    rct_cutoff: u64,
    current_run: u64,
    last_bit: Option<u8>,
    // Adaptive-proportion test.
    apt_cutoff: u64,
    apt_first: u8,
    apt_count: u64,
    apt_pos: usize,
    // Startup battery.
    startup_buffer: Option<Vec<u8>>,
    // Thermal online test.
    thermal: Option<OnlineThermalTest>,
    thermal_strikes: u32,
    /// Consecutive failing thermal evaluations seen while the state is still
    /// `Startup` (it stays `Startup` until the battery passes).
    startup_strikes: u32,
}

impl HealthMonitor {
    /// Builds a monitor calibrated from the raw-bit entropy ledger: the RCT/APT
    /// cutoffs derive from the ledger's accounted min-entropy per bit — the stochastic
    /// model's dependent-jitter-aware claim — rather than from a hardcoded number.
    ///
    /// `config.min_entropy_per_bit` overrides the ledger's claim when set; an
    /// unusably small ledger claim is floored at 0.05 bits/bit for the cutoff
    /// computation only (conservative: tighter cutoffs, never looser accounting).
    ///
    /// # Errors
    ///
    /// Returns an error when the effective claim is outside `(0, 1]`.
    pub fn new(config: &HealthConfig, ledger: &EntropyLedger) -> Result<Self> {
        let claim = config
            .min_entropy_per_bit
            .unwrap_or_else(|| ledger.min_entropy_per_bit().max(CUTOFF_CLAIM_FLOOR));
        if !(claim > 0.0 && claim <= 1.0) {
            return Err(EngineError::InvalidParameter {
                name: "min_entropy_per_bit",
                reason: format!("must be in (0, 1] for binary samples, got {claim}"),
            });
        }
        let exponent = config.false_positive_exponent;
        let rct_cutoff = repetition_count_cutoff_with(claim, exponent)?;
        let apt_cutoff = adaptive_proportion_cutoff_with(claim, exponent)?;
        if config.thermal_strikes == 0 {
            return Err(EngineError::InvalidParameter {
                name: "thermal_strikes",
                reason: "at least one strike is required to latch the alarm".to_string(),
            });
        }
        Ok(Self {
            state: if config.startup_battery {
                HealthState::Startup
            } else {
                HealthState::Healthy
            },
            rct_cutoff,
            current_run: 0,
            last_bit: None,
            apt_cutoff,
            apt_first: 0,
            apt_count: 0,
            apt_pos: 0,
            startup_buffer: config.startup_battery.then(Vec::new),
            thermal: config.thermal.clone().map(OnlineThermalTest::new),
            thermal_strikes: config.thermal_strikes,
            startup_strikes: 0,
        })
    }

    /// Current state.
    pub fn state(&self) -> &HealthState {
        &self.state
    }

    /// Whether the alarm has latched.
    pub fn is_alarmed(&self) -> bool {
        matches!(self.state, HealthState::Alarmed(_))
    }

    /// Whether a thermal online test is configured.
    pub fn has_thermal(&self) -> bool {
        self.thermal.is_some()
    }

    /// Whether output may be published (healthy or suspect, past startup).
    pub fn may_publish(&self) -> bool {
        matches!(
            self.state,
            HealthState::Healthy | HealthState::Suspect { .. }
        )
    }

    /// The calibrated repetition-count cutoff.
    #[cfg(test)]
    pub(crate) fn repetition_cutoff(&self) -> u64 {
        self.rct_cutoff
    }

    fn trip(&mut self, reason: AlarmReason) {
        if !self.is_alarmed() {
            self.state = HealthState::Alarmed(reason);
        }
    }

    /// Feeds raw bits through the SP 800-90B continuous tests.
    ///
    /// The tests step a packed word of up to 64 bits at a time: the repetition count
    /// reads run lengths with `leading_zeros`/`leading_ones` and the adaptive
    /// proportion counts with `count_ones`.  Only a word in which a run reaches the
    /// cutoff is stepped bit by bit, to stop at the bit that trips, exactly as a
    /// bit-at-a-time monitor would.
    ///
    /// # Errors
    ///
    /// Returns an error when a sample is not a bit.  Like a monitor that checks each
    /// sample before it observes it, and stops at its first alarm, this reports the
    /// first bad sample only if it comes before the alarm stops the call (or directly
    /// after the bit that tripped); the bits before it are observed.
    pub fn observe_bits(&mut self, bits: &[u8]) -> Result<&HealthState> {
        let bad = first_non_bit(bits);
        let valid = &bits[..bad.unwrap_or(bits.len())];
        let observed = if self.is_alarmed() {
            0
        } else {
            self.observe_valid(valid)
        };
        match bad {
            Some(index) if observed == index => Err(EngineError::InvalidParameter {
                name: "bits",
                reason: format!("sample at index {index} is not a bit (got {})", bits[index]),
            }),
            _ => Ok(&self.state),
        }
    }

    /// Feeds (post-processed) output bits to the startup battery while it is still
    /// collecting; a no-op once startup has resolved.
    ///
    /// # Errors
    ///
    /// Returns an error when a sample is not a bit.
    pub fn observe_output_bits(&mut self, bits: &[u8]) -> Result<&HealthState> {
        if self.is_alarmed() {
            return Ok(&self.state);
        }
        let Some(buffer) = &mut self.startup_buffer else {
            return Ok(&self.state);
        };
        let wanted = &bits[..bits.len().min(fips::FIPS_BLOCK_BITS - buffer.len())];
        if let Some(index) = first_non_bit(wanted) {
            buffer.extend_from_slice(&wanted[..index]);
            return Err(EngineError::InvalidParameter {
                name: "bits",
                reason: format!("sample at index {index} is not a bit (got {})", bits[index]),
            });
        }
        buffer.extend_from_slice(wanted);
        if buffer.len() == fips::FIPS_BLOCK_BITS {
            let results = fips::run_all(buffer)?;
            let failures: Vec<String> = results
                .iter()
                .filter(|r| !r.passed)
                .map(|r| r.name.clone())
                .collect();
            self.startup_buffer = None;
            if failures.is_empty() {
                self.pass_startup();
            } else {
                self.trip(AlarmReason::StartupBatteryFailed(failures));
            }
        }
        Ok(&self.state)
    }

    /// Leaves `Startup` after a passing battery: `Healthy`, or `Suspect` with
    /// the thermal strikes counted while the battery was still collecting.
    fn pass_startup(&mut self) {
        self.state = match self.startup_strikes {
            0 => HealthState::Healthy,
            strikes => HealthState::Suspect { strikes },
        };
    }

    /// Runs the continuous tests over valid bits until the first alarm, a packed word
    /// at a time; returns how many bits were observed (all of them, or up to and
    /// including the one that tripped).
    fn observe_valid(&mut self, bits: &[u8]) -> usize {
        let mut observed = 0;
        while observed < bits.len() {
            // A word never crosses the end of an adaptive-proportion window.
            let len = (bits.len() - observed)
                .min(64)
                .min(ADAPTIVE_PROPORTION_WINDOW - self.apt_pos);
            let segment = &bits[observed..observed + len];
            let word = pack_word(segment);
            if self.run_reaches_cutoff(word, len) {
                for &bit in segment {
                    self.observe_one(bit);
                    observed += 1;
                    if self.is_alarmed() {
                        return observed;
                    }
                }
                continue;
            }
            self.observe_word(word, len);
            observed += len;
            if self.is_alarmed() {
                break;
            }
        }
        observed
    }

    /// Whether a run of equal bits reaches the repetition-count cutoff within the
    /// first `len` bits of the MSB-first `word`, counting the run carried in.
    fn run_reaches_cutoff(&self, word: u64, len: usize) -> bool {
        let first = (word >> 63) as u8;
        if self.last_bit == Some(first) {
            let leading = if first == 1 {
                word.leading_ones()
            } else {
                word.leading_zeros()
            };
            if self.current_run + u64::from(leading).min(len as u64) >= self.rct_cutoff {
                return true;
            }
        }
        // The cutoff is at least 2, so a run that reaches it inside the word is
        // `cutoff − 1 ≥ 1` agreements in a row.
        let cutoff = usize::try_from(self.rct_cutoff).unwrap_or(usize::MAX);
        if cutoff > len {
            return false;
        }
        // Bit 63 − i of `equal` says whether bits i and i + 1 agree (for i + 1 < len).
        let mut equal = !(word ^ (word << 1)) & !(u64::MAX >> (len - 1));
        let mut span = 1;
        while span < cutoff - 1 && equal != 0 {
            let step = span.min(cutoff - 1 - span);
            equal &= equal << step;
            span += step;
        }
        equal != 0
    }

    /// Advances both tests over the first `len` bits of the MSB-first `word`, in
    /// which no run reaches the repetition-count cutoff.
    fn observe_word(&mut self, word: u64, len: usize) {
        let first = (word >> 63) as u8;
        // Repetition count: the run at the word's end, continued from the carried one
        // when the whole word repeats its bit.
        let tail = word >> (64 - len);
        let last = (tail & 1) as u8;
        let trailing = if last == 1 {
            tail.trailing_ones()
        } else {
            tail.trailing_zeros()
        };
        let trailing = u64::from(trailing).min(len as u64);
        if trailing == len as u64 && self.last_bit == Some(last) {
            self.current_run += trailing;
        } else {
            self.current_run = trailing;
        }
        self.last_bit = Some(last);

        // Adaptive proportion: the word stays inside the current window.
        if self.apt_pos == 0 {
            self.apt_first = first;
            self.apt_count = 0;
        }
        let ones = u64::from(word.count_ones());
        self.apt_count += if self.apt_first == 1 {
            ones
        } else {
            len as u64 - ones
        };
        self.apt_pos += len;
        if self.apt_pos == ADAPTIVE_PROPORTION_WINDOW {
            self.apt_pos = 0;
            if self.apt_count >= self.apt_cutoff {
                self.trip(AlarmReason::AdaptiveProportion {
                    count: self.apt_count,
                    cutoff: self.apt_cutoff,
                });
            }
        }
    }

    fn observe_one(&mut self, bit: u8) {
        // Repetition count: incremental run tracking.
        if self.last_bit == Some(bit) {
            self.current_run += 1;
        } else {
            self.last_bit = Some(bit);
            self.current_run = 1;
        }
        if self.current_run >= self.rct_cutoff {
            self.trip(AlarmReason::RepetitionCount {
                run: self.current_run,
                cutoff: self.rct_cutoff,
            });
            return;
        }

        // Adaptive proportion: disjoint 1024-bit windows.
        if self.apt_pos == 0 {
            self.apt_first = bit;
            self.apt_count = 0;
        }
        if bit == self.apt_first {
            self.apt_count += 1;
        }
        self.apt_pos += 1;
        if self.apt_pos == ADAPTIVE_PROPORTION_WINDOW {
            self.apt_pos = 0;
            if self.apt_count >= self.apt_cutoff {
                self.trip(AlarmReason::AdaptiveProportion {
                    count: self.apt_count,
                    cutoff: self.apt_cutoff,
                });
            }
        }
    }

    /// Feeds one `σ²_N` counter sweep (depths and variances) to the thermal test.
    ///
    /// Healthy evaluations clear accumulated strikes; failing ones accumulate and
    /// latch the alarm at `thermal_strikes`.  While the startup battery is still
    /// collecting, the state stays `Startup` (output stays withheld) and the
    /// strikes are carried into `Suspect` when the battery passes.
    ///
    /// # Errors
    ///
    /// Returns an error when no thermal test is configured or the fit fails.
    pub fn observe_sigma2_points(
        &mut self,
        depths: &[f64],
        sigma2_n: &[f64],
    ) -> Result<&HealthState> {
        let Some(test) = &self.thermal else {
            return Err(EngineError::InvalidParameter {
                name: "thermal",
                reason: "no thermal online test configured".to_string(),
            });
        };
        let outcome = test.evaluate_points(depths, sigma2_n)?;
        if self.is_alarmed() {
            return Ok(&self.state);
        }
        let starting = self.state == HealthState::Startup;
        if outcome.alarm {
            let strikes = match self.state {
                HealthState::Suspect { strikes } => strikes + 1,
                HealthState::Startup => self.startup_strikes + 1,
                _ => 1,
            };
            if strikes >= self.thermal_strikes {
                self.trip(AlarmReason::ThermalCollapse {
                    ratio: outcome.ratio_to_reference,
                });
            } else if starting {
                self.startup_strikes = strikes;
            } else {
                self.state = HealthState::Suspect { strikes };
            }
        } else if starting {
            self.startup_strikes = 0;
        } else if matches!(self.state, HealthState::Suspect { .. }) {
            self.state = HealthState::Healthy;
        }
        Ok(&self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptrng_osc::model::AccumulationModel;
    use ptrng_osc::phase::PhaseNoiseModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bits(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(0..=1u8)).collect()
    }

    fn ledger(h: f64) -> EntropyLedger {
        EntropyLedger::source("test source", h).unwrap()
    }

    fn thermal_config() -> OnlineTestConfig {
        let reference = PhaseNoiseModel::date14_experiment().thermal_period_jitter();
        OnlineTestConfig::new(103.0e6, reference, 0.5).unwrap()
    }

    fn sweep(scale: f64) -> (Vec<f64>, Vec<f64>) {
        let acc = AccumulationModel::new(PhaseNoiseModel::date14_experiment());
        let depths: Vec<f64> = vec![1000.0, 2000.0, 5000.0, 10_000.0];
        let vars = depths
            .iter()
            .map(|&n| acc.sigma2_n(n as usize) * scale)
            .collect();
        (depths, vars)
    }

    #[test]
    fn healthy_bits_reach_and_keep_the_healthy_state() {
        let config = HealthConfig::default();
        let mut monitor = HealthMonitor::new(&config, &ledger(1.0)).unwrap();
        assert_eq!(monitor.state(), &HealthState::Startup);
        assert!(!monitor.may_publish());
        let bits = random_bits(64_000, 1);
        monitor.observe_bits(&bits).unwrap();
        assert_eq!(
            monitor.state(),
            &HealthState::Startup,
            "raw bits alone must not clear startup"
        );
        monitor.observe_output_bits(&bits).unwrap();
        assert_eq!(monitor.state(), &HealthState::Healthy);
        assert!(monitor.may_publish());
    }

    #[test]
    fn stuck_source_trips_the_repetition_count_alarm() {
        let config = HealthConfig::default().without_startup_battery();
        let mut monitor = HealthMonitor::new(&config, &ledger(1.0)).unwrap();
        let mut bits = random_bits(4_000, 2);
        bits.extend(std::iter::repeat_n(1, 64));
        monitor.observe_bits(&bits).unwrap();
        assert!(monitor.is_alarmed());
        assert!(matches!(
            monitor.state(),
            HealthState::Alarmed(AlarmReason::RepetitionCount { .. })
        ));
        // Latching: healthy bits afterwards do not clear the alarm.
        monitor.observe_bits(&random_bits(4_000, 3)).unwrap();
        assert!(monitor.is_alarmed());
    }

    #[test]
    fn heavy_bias_trips_the_adaptive_proportion_alarm() {
        let config = HealthConfig::default().without_startup_battery();
        let mut monitor = HealthMonitor::new(&config, &ledger(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        // p(1) = 0.8 with full-entropy cutoffs: APT must fire within a few windows,
        // while RCT (cutoff 41 at H = 1, e = 40) may legitimately stay silent.
        let bits: Vec<u8> = (0..8 * ADAPTIVE_PROPORTION_WINDOW)
            .map(|_| u8::from(rng.gen_bool(0.8)))
            .collect();
        monitor.observe_bits(&bits).unwrap();
        assert!(
            matches!(
                monitor.state(),
                HealthState::Alarmed(
                    AlarmReason::AdaptiveProportion { .. } | AlarmReason::RepetitionCount { .. }
                )
            ),
            "state {:?}",
            monitor.state()
        );
    }

    #[test]
    fn biased_source_with_matching_claim_stays_healthy() {
        let config = HealthConfig::default()
            .without_startup_battery()
            .with_min_entropy(0.32);
        let mut monitor = HealthMonitor::new(&config, &ledger(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let bits: Vec<u8> = (0..8 * ADAPTIVE_PROPORTION_WINDOW)
            .map(|_| u8::from(rng.gen_bool(0.8)))
            .collect();
        monitor.observe_bits(&bits).unwrap();
        assert_eq!(monitor.state(), &HealthState::Healthy);
    }

    #[test]
    fn bad_startup_block_blocks_publication() {
        let config = HealthConfig::default().with_min_entropy(0.05);
        let mut monitor = HealthMonitor::new(&config, &ledger(1.0)).unwrap();
        // Alternating output bits pass RCT/APT trivially but fail the FIPS runs test.
        let bits: Vec<u8> = (0..fips::FIPS_BLOCK_BITS).map(|i| (i % 2) as u8).collect();
        monitor.observe_bits(&bits).unwrap();
        monitor.observe_output_bits(&bits).unwrap();
        assert!(matches!(
            monitor.state(),
            HealthState::Alarmed(AlarmReason::StartupBatteryFailed(_))
        ));
        assert!(!monitor.may_publish());
        // Latched: further output bits are ignored.
        monitor.observe_output_bits(&random_bits(1000, 9)).unwrap();
        assert!(monitor.is_alarmed());
    }

    #[test]
    fn thermal_collapse_needs_consecutive_strikes() {
        let config = HealthConfig::default()
            .without_startup_battery()
            .with_thermal(thermal_config());
        let mut monitor = HealthMonitor::new(&config, &ledger(1.0)).unwrap();
        let (depths, healthy) = sweep(1.0);
        let (_, collapsed) = sweep(0.01);

        monitor.observe_sigma2_points(&depths, &healthy).unwrap();
        assert_eq!(monitor.state(), &HealthState::Healthy);

        // One failure: suspect, still publishing.
        monitor.observe_sigma2_points(&depths, &collapsed).unwrap();
        assert_eq!(monitor.state(), &HealthState::Suspect { strikes: 1 });
        assert!(monitor.may_publish());

        // A healthy estimate clears the strike (flicker wander, not an attack).
        monitor.observe_sigma2_points(&depths, &healthy).unwrap();
        assert_eq!(monitor.state(), &HealthState::Healthy);

        // Two consecutive failures latch the alarm.
        monitor.observe_sigma2_points(&depths, &collapsed).unwrap();
        monitor.observe_sigma2_points(&depths, &collapsed).unwrap();
        assert!(matches!(
            monitor.state(),
            HealthState::Alarmed(AlarmReason::ThermalCollapse { .. })
        ));
        assert!(!monitor.may_publish());
    }

    #[test]
    fn a_strike_during_startup_withholds_output_and_carries_over() {
        let config = HealthConfig::default().with_thermal(thermal_config());
        let mut monitor = HealthMonitor::new(&config, &ledger(1.0)).unwrap();
        let (depths, healthy) = sweep(1.0);
        let (_, collapsed) = sweep(0.01);

        // One collapsed sweep before the battery has passed: still withheld.
        monitor.observe_sigma2_points(&depths, &collapsed).unwrap();
        assert_eq!(monitor.state(), &HealthState::Startup);
        assert!(!monitor.may_publish());

        // The battery passes with the strike pending: suspect, not healthy.
        monitor
            .observe_output_bits(&random_bits(fips::FIPS_BLOCK_BITS, 3))
            .unwrap();
        assert_eq!(monitor.state(), &HealthState::Suspect { strikes: 1 });
        assert!(monitor.may_publish());

        // A healthy sweep during startup clears the pending strike.
        let mut monitor = HealthMonitor::new(&config, &ledger(1.0)).unwrap();
        monitor.observe_sigma2_points(&depths, &collapsed).unwrap();
        monitor.observe_sigma2_points(&depths, &healthy).unwrap();
        monitor
            .observe_output_bits(&random_bits(fips::FIPS_BLOCK_BITS, 3))
            .unwrap();
        assert_eq!(monitor.state(), &HealthState::Healthy);

        // Strikes during startup still latch the alarm at `thermal_strikes`.
        let mut monitor = HealthMonitor::new(&config, &ledger(1.0)).unwrap();
        monitor.observe_sigma2_points(&depths, &collapsed).unwrap();
        monitor.observe_sigma2_points(&depths, &collapsed).unwrap();
        assert!(matches!(
            monitor.state(),
            HealthState::Alarmed(AlarmReason::ThermalCollapse { .. })
        ));
        assert!(!monitor.may_publish());
    }

    #[test]
    fn config_validation() {
        let bad = HealthConfig {
            thermal_strikes: 0,
            ..HealthConfig::default()
        };
        assert!(HealthMonitor::new(&bad, &ledger(1.0)).is_err());
        assert!(
            HealthMonitor::new(&HealthConfig::default().with_min_entropy(0.0), &ledger(1.0))
                .is_err()
        );
        assert!(
            HealthMonitor::new(&HealthConfig::default().with_min_entropy(1.5), &ledger(1.0))
                .is_err()
        );
        let bad_exponent = HealthConfig {
            false_positive_exponent: 0.0,
            ..HealthConfig::default()
        };
        assert!(HealthMonitor::new(&bad_exponent, &ledger(1.0)).is_err());
        let mut monitor = HealthMonitor::new(&HealthConfig::default(), &ledger(1.0)).unwrap();
        assert!(monitor.observe_bits(&[0, 1, 2]).is_err());
        assert!(monitor
            .observe_sigma2_points(&[1.0, 2.0], &[1.0, 2.0])
            .is_err());
    }

    #[test]
    fn cutoffs_scale_with_claim_and_exponent() {
        let default = HealthMonitor::new(&HealthConfig::default(), &ledger(1.0)).unwrap();
        // e = 40, H = 1: RCT cutoff 41; APT cutoff ≈ 512 + 7.45·16 ≈ 632.
        assert_eq!(default.rct_cutoff, 41);
        assert!(
            (600..660).contains(&default.apt_cutoff),
            "{}",
            default.apt_cutoff
        );

        // The SP 800-90B example calibration (e = 20) is reachable by configuration.
        let spec_cfg = HealthConfig {
            false_positive_exponent: 20.0,
            ..HealthConfig::default()
        };
        let spec = HealthMonitor::new(&spec_cfg, &ledger(1.0)).unwrap();
        assert_eq!(spec.rct_cutoff, 21);
        assert!(spec.apt_cutoff < default.apt_cutoff);

        // Lower claimed entropy loosens both cutoffs.
        let loose = HealthMonitor::new(&HealthConfig::default(), &ledger(0.5)).unwrap();
        assert_eq!(loose.rct_cutoff, 81);
        assert!(loose.apt_cutoff > default.apt_cutoff);
    }

    /// The bit-at-a-time loop the word-at-a-time `observe_bits` replaced: check a
    /// sample, stop at the first alarm, observe the sample.
    fn observe_bits_per_bit(monitor: &mut HealthMonitor, bits: &[u8]) -> Result<HealthState> {
        for (index, &bit) in bits.iter().enumerate() {
            if bit > 1 {
                return Err(EngineError::InvalidParameter {
                    name: "bits",
                    reason: format!("sample at index {index} is not a bit (got {bit})"),
                });
            }
            if monitor.is_alarmed() {
                break;
            }
            monitor.observe_one(bit);
        }
        Ok(monitor.state.clone())
    }

    /// The bit-at-a-time startup collection `observe_output_bits` replaced.
    fn observe_output_bits_per_bit(
        monitor: &mut HealthMonitor,
        bits: &[u8],
    ) -> Result<HealthState> {
        if monitor.is_alarmed() {
            return Ok(monitor.state.clone());
        }
        let Some(buffer) = &mut monitor.startup_buffer else {
            return Ok(monitor.state.clone());
        };
        for (index, &bit) in bits.iter().enumerate() {
            if bit > 1 {
                return Err(EngineError::InvalidParameter {
                    name: "bits",
                    reason: format!("sample at index {index} is not a bit (got {bit})"),
                });
            }
            buffer.push(bit);
            if buffer.len() == fips::FIPS_BLOCK_BITS {
                let results = fips::run_all(buffer)?;
                let failures: Vec<String> = results
                    .iter()
                    .filter(|r| !r.passed)
                    .map(|r| r.name.clone())
                    .collect();
                monitor.startup_buffer = None;
                if failures.is_empty() {
                    monitor.pass_startup();
                } else {
                    monitor.trip(AlarmReason::StartupBatteryFailed(failures));
                }
                break;
            }
        }
        Ok(monitor.state.clone())
    }

    /// Everything the continuous tests carry from one call to the next.
    type Snapshot = (HealthState, u64, Option<u8>, u8, u64, usize, Option<usize>);

    fn snapshot(monitor: &HealthMonitor) -> Snapshot {
        (
            monitor.state.clone(),
            monitor.current_run,
            monitor.last_bit,
            monitor.apt_first,
            monitor.apt_count,
            monitor.apt_pos,
            monitor.startup_buffer.as_ref().map(Vec::len),
        )
    }

    fn outcome(result: Result<&HealthState>) -> std::result::Result<HealthState, String> {
        result.cloned().map_err(|e| e.to_string())
    }

    /// The three calibrations the word steps must match the bit steps under: full
    /// entropy at e = 40 (RCT cutoff 41) and e = 20 (cutoff 21), and a claim under the
    /// 0.05 floor (cutoff 801, longer than a word).
    fn calibrated(claim: usize) -> HealthMonitor {
        let config = HealthConfig::default().without_startup_battery();
        let monitor = match claim {
            0 => HealthMonitor::new(&config, &ledger(1.0)),
            1 => HealthMonitor::new(
                &HealthConfig {
                    false_positive_exponent: 20.0,
                    ..config
                },
                &ledger(1.0),
            ),
            _ => HealthMonitor::new(&config, &ledger(0.01)),
        }
        .unwrap();
        let expected = [41, 21, 801][claim.min(2)];
        assert_eq!(monitor.rct_cutoff, expected);
        monitor
    }

    /// Random bits at bias `p_one`, with runs of cutoff − 1, cutoff and cutoff + 1
    /// bits planted inside words and across word and call edges, optional bad samples
    /// (some right after the bit a planted run trips on), and the cut points that
    /// split it into calls (some inside each planted run).
    fn scenario(seed: u64, cutoff: usize, p_one: f64, bad: bool) -> (Vec<u8>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0..3 * ADAPTIVE_PROPORTION_WINDOW + 4 * cutoff);
        let mut bits: Vec<u8> = (0..len).map(|_| u8::from(rng.gen_bool(p_one))).collect();
        let mut cuts: Vec<usize> = (0..rng.gen_range(0..6))
            .map(|_| rng.gen_range(0..=len))
            .collect();
        for _ in 0..rng.gen_range(0..4) {
            let run = cutoff - 1 + rng.gen_range(0..3usize);
            if run + 2 > len {
                continue;
            }
            let mut start = rng.gen_range(0..len - run);
            if rng.gen_bool(0.5) {
                // Just before a multiple of 64: across a word edge of a call aligned
                // there.
                start = (start / 64 * 64)
                    .saturating_sub(rng.gen_range(0..run.min(64)))
                    .min(len - run);
            }
            let value = rng.gen_range(0..=1u8);
            bits[start..start + run].fill(value);
            // Guard both ends so the run has exactly its planted length.
            if start > 0 {
                bits[start - 1] = 1 - value;
            }
            if start + run < len {
                bits[start + run] = 1 - value;
            }
            cuts.push(start + rng.gen_range(0..=run));
            if bad && rng.gen_bool(0.5) {
                let index = (start + cutoff - 1 + rng.gen_range(1..3usize)).min(len - 1);
                bits[index] = rng.gen_range(2..=255u8);
            }
        }
        if bad && len > 0 {
            for _ in 0..rng.gen_range(0..3) {
                let index = rng.gen_range(0..len);
                bits[index] = rng.gen_range(2..=255u8);
            }
        }
        cuts.sort_unstable();
        (bits, cuts)
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Split anywhere, the word steps leave the monitor exactly where the bit
            /// steps leave it after every call: same state and alarm reason, same
            /// run, window count and position (so the same tripping bit), and the
            /// same error for a bad sample.
            #[test]
            fn word_steps_match_bit_steps(seed in 0u64..u64::MAX) {
                // Every calibration, bias and bad-sample choice, each from its own seed.
                for case in 0..24u64 {
                    let claim = (case % 3) as usize;
                    let p_one = [0.5, 0.75, 0.9, 0.99][(case / 3 % 4) as usize];
                    let mut fast = calibrated(claim);
                    let mut slow = fast.clone();
                    let cutoff = fast.rct_cutoff as usize;
                    let (bits, cuts) = scenario(seed ^ case, cutoff, p_one, case >= 12);
                    let mut from = 0;
                    for cut in cuts.iter().copied().chain([bits.len()]) {
                        let piece = &bits[from..cut];
                        let got = outcome(fast.observe_bits(piece));
                        let expected =
                            observe_bits_per_bit(&mut slow, piece).map_err(|e| e.to_string());
                        prop_assert_eq!(got, expected, "case {}, bits {}..{}", case, from, cut);
                        prop_assert_eq!(
                            snapshot(&fast),
                            snapshot(&slow),
                            "case {}, after bits {}..{}",
                            case,
                            from,
                            cut
                        );
                        from = cut;
                    }
                }
            }

            /// The startup collection takes the same bits and reports the same bad
            /// sample as the bit-at-a-time loop.
            #[test]
            fn startup_collection_matches_bit_steps(
                seed in 0u64..u64::MAX,
                bad in 0u8..2,
            ) {
                let mut fast =
                    HealthMonitor::new(&HealthConfig::default(), &ledger(1.0)).unwrap();
                let mut slow = fast.clone();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut bits = random_bits(rng.gen_range(0..2 * fips::FIPS_BLOCK_BITS), seed);
                if bad == 0 && !bits.is_empty() {
                    let index = rng.gen_range(0..bits.len());
                    bits[index] = 2;
                }
                for piece in bits.chunks(rng.gen_range(1..8192)) {
                    let got = outcome(fast.observe_output_bits(piece));
                    let expected = observe_output_bits_per_bit(&mut slow, piece).map_err(|e| e.to_string());
                    prop_assert_eq!(got, expected);
                    prop_assert_eq!(snapshot(&fast), snapshot(&slow));
                }
            }
        }
    }
}
