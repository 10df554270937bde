//! Embedded online tests for the entropy source.
//!
//! The paper's conclusion proposes to embed the `σ²_N` measurement in the logic device and
//! use it as a fast, generator-specific online test (as required by AIS 31 for the higher
//! assurance classes): by fitting `σ²_N = a·N + b·N²` on a handful of depths, the device
//! can estimate the **thermal** jitter `σ = sqrt(a/2·f0³·…)` on line and raise an alarm
//! when it drops — e.g. under a frequency-injection or electromagnetic attack that locks
//! the two rings together.
//!
//! [`OnlineThermalTest`] implements that test on `σ²_N` sweeps, and
//! [`total_failure_check`] wraps the SP 800-90B repetition-count test as the
//! complementary catastrophic-failure detector.

use serde::{Deserialize, Serialize};

use ptrng_ais::sp80090b::repetition_count_test;
use ptrng_ais::TestResult;
use ptrng_stats::fit::sigma_n_fit;

use crate::{check_positive, Result, TrngError};

/// Configuration of the embedded thermal-jitter online test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineTestConfig {
    /// Nominal frequency of the counted oscillator, in hertz.
    pub frequency: f64,
    /// Thermal period jitter measured at commissioning time, in seconds.
    pub reference_thermal_sigma: f64,
    /// Alarm threshold: the test fails when the estimated thermal jitter falls below
    /// `min_ratio × reference_thermal_sigma`.
    pub min_ratio: f64,
}

impl OnlineTestConfig {
    /// Creates a configuration, validating every field.
    ///
    /// # Errors
    ///
    /// Returns an error when the frequency or reference jitter is not positive, or the
    /// ratio is not in `(0, 1]`.
    pub fn new(frequency: f64, reference_thermal_sigma: f64, min_ratio: f64) -> Result<Self> {
        check_positive("frequency", frequency)?;
        check_positive("reference_thermal_sigma", reference_thermal_sigma)?;
        if !(min_ratio > 0.0 && min_ratio <= 1.0) {
            return Err(TrngError::InvalidParameter {
                name: "min_ratio",
                reason: format!("must be in (0, 1], got {min_ratio}"),
            });
        }
        Ok(Self {
            frequency,
            reference_thermal_sigma,
            min_ratio,
        })
    }
}

/// Outcome of one evaluation of the online thermal test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineTestOutcome {
    /// Estimated thermal phase-noise coefficient `b_th` in Hz.
    pub estimated_b_thermal: f64,
    /// Estimated thermal period jitter `σ = sqrt(b_th/f0³)` in seconds.
    pub estimated_thermal_sigma: f64,
    /// Ratio of the estimate to the commissioning reference.
    pub ratio_to_reference: f64,
    /// `true` when the estimate dropped below the alarm threshold.
    pub alarm: bool,
}

/// The embedded thermal-jitter online test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineThermalTest {
    config: OnlineTestConfig,
}

impl OnlineThermalTest {
    /// Creates the test.
    pub fn new(config: OnlineTestConfig) -> Self {
        Self { config }
    }

    /// Evaluates the test from `(N, σ²_N)` points (e.g. produced by an on-chip counter
    /// sweep).
    ///
    /// # Errors
    ///
    /// Returns an error when fewer than two points are provided or the fit fails.
    pub fn evaluate_points(&self, depths: &[f64], sigma2_n: &[f64]) -> Result<OnlineTestOutcome> {
        let fit = sigma_n_fit(depths, sigma2_n, None)?;
        let f0 = self.config.frequency;
        let b_thermal = (fit.linear * f0.powi(3) / 2.0).max(0.0);
        let sigma = (b_thermal / f0.powi(3)).sqrt();
        let ratio = sigma / self.config.reference_thermal_sigma;
        Ok(OnlineTestOutcome {
            estimated_b_thermal: b_thermal,
            estimated_thermal_sigma: sigma,
            ratio_to_reference: ratio,
            alarm: ratio < self.config.min_ratio,
        })
    }
}

/// Total-failure check: wraps the SP 800-90B repetition-count test, which fires within a
/// few samples when the digitized output gets stuck (e.g. when the sampled oscillator
/// stops).
///
/// # Errors
///
/// Returns an error for an empty sequence or non-bit samples.
pub fn total_failure_check(bits: &[u8], min_entropy_per_bit: f64) -> Result<TestResult> {
    Ok(repetition_count_test(bits, min_entropy_per_bit)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptrng_osc::model::AccumulationModel;
    use ptrng_osc::phase::PhaseNoiseModel;

    fn healthy_points(scale: f64) -> (Vec<f64>, Vec<f64>) {
        let acc = AccumulationModel::new(PhaseNoiseModel::date14_experiment());
        let depths: Vec<f64> = vec![1000.0, 2000.0, 5000.0, 10_000.0, 20_000.0];
        let sigma2: Vec<f64> = depths
            .iter()
            .map(|&n| acc.sigma2_n(n as usize) * scale)
            .collect();
        (depths, sigma2)
    }

    fn paper_test() -> OnlineThermalTest {
        let reference = PhaseNoiseModel::date14_experiment().thermal_period_jitter();
        OnlineThermalTest::new(OnlineTestConfig::new(103.0e6, reference, 0.5).unwrap())
    }

    #[test]
    fn healthy_source_passes_and_recovers_the_reference_sigma() {
        let test = paper_test();
        let (depths, sigma2) = healthy_points(1.0);
        let outcome = test.evaluate_points(&depths, &sigma2).unwrap();
        assert!(!outcome.alarm);
        assert!((outcome.ratio_to_reference - 1.0).abs() < 0.02);
        assert!((outcome.estimated_thermal_sigma - 15.89e-12).abs() < 0.5e-12);
        assert!((outcome.estimated_b_thermal - 276.04).abs() / 276.04 < 0.05);
    }

    #[test]
    fn attacked_source_raises_the_alarm() {
        // An attack that locks the rings suppresses the thermal part of the relative
        // jitter: scale the whole curve down by 100.
        let test = paper_test();
        let (depths, sigma2) = healthy_points(0.01);
        let outcome = test.evaluate_points(&depths, &sigma2).unwrap();
        assert!(outcome.alarm);
        assert!(outcome.ratio_to_reference < 0.2);
    }

    #[test]
    fn flicker_increase_alone_does_not_trigger_the_thermal_alarm() {
        // The online test isolates the thermal term: inflating only the quadratic part
        // must not silence or trigger the alarm spuriously.
        let test = paper_test();
        let acc = AccumulationModel::new(PhaseNoiseModel::date14_experiment());
        let depths: Vec<f64> = vec![1000.0, 2000.0, 5000.0, 10_000.0];
        let sigma2: Vec<f64> = depths
            .iter()
            .map(|&n| acc.thermal_component(n as usize) + 3.0 * acc.flicker_component(n as usize))
            .collect();
        let outcome = test.evaluate_points(&depths, &sigma2).unwrap();
        assert!(!outcome.alarm, "ratio {}", outcome.ratio_to_reference);
        assert!((outcome.ratio_to_reference - 1.0).abs() < 0.05);
    }

    #[test]
    fn config_validation() {
        assert!(OnlineTestConfig::new(0.0, 1.0e-12, 0.5).is_err());
        assert!(OnlineTestConfig::new(1.0e8, 0.0, 0.5).is_err());
        assert!(OnlineTestConfig::new(1.0e8, 1.0e-12, 0.0).is_err());
        assert!(OnlineTestConfig::new(1.0e8, 1.0e-12, 1.5).is_err());
    }

    #[test]
    fn total_failure_check_detects_a_stuck_output() {
        let mut bits = vec![0u8, 1, 1, 0, 1, 0, 0, 1];
        bits.extend(std::iter::repeat_n(1, 64));
        let result = total_failure_check(&bits, 0.9).unwrap();
        assert!(!result.passed);
        let ok = total_failure_check(&[0, 1, 0, 1, 1, 0, 1, 0, 0, 1], 0.9).unwrap();
        assert!(ok.passed);
    }
}
