//! Aggregation of the individual test suites into a single report.

use serde::{Deserialize, Serialize};

use crate::bits::ensure_bit_len;
use crate::{fips, procedure_a, procedure_b, sp80090b, Result, TestResult};

/// Which suites a battery run should include.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatteryConfig {
    /// Run AIS 31 Procedure A tests T1–T5 (T0 needs ≈ 3.1 Mbit and is opt-in).
    pub procedure_a: bool,
    /// Run the AIS 31 Procedure A disjointness test T0.
    pub procedure_a_t0: bool,
    /// Run AIS 31 Procedure B tests (reduced-size T8 unless 2.07 Mbit are available).
    pub procedure_b: bool,
    /// Run the FIPS 140-2 tests.
    pub fips: bool,
    /// Run the SP 800-90B continuous health tests with this claimed min-entropy, if set.
    pub sp80090b_min_entropy: Option<f64>,
}

impl Default for BatteryConfig {
    fn default() -> Self {
        Self {
            procedure_a: true,
            procedure_a_t0: false,
            procedure_b: true,
            fips: true,
            sp80090b_min_entropy: Some(0.997),
        }
    }
}

/// Aggregated report of a battery run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatteryReport {
    /// Number of bits analysed.
    pub bits_analysed: usize,
    /// Every individual test outcome.
    pub results: Vec<TestResult>,
}

impl BatteryReport {
    /// `true` when every individual test passed.
    pub fn all_passed(&self) -> bool {
        self.results.iter().all(|r| r.passed)
    }

    /// Names of the tests that failed.
    pub fn failures(&self) -> Vec<&str> {
        self.results
            .iter()
            .filter(|r| !r.passed)
            .map(|r| r.name.as_str())
            .collect()
    }
}

/// Runs the configured suites over a raw bit sequence.
///
/// # Errors
///
/// Returns an error when the sequence is shorter than the most demanding enabled suite
/// requires (20 000 bits for Procedure A / FIPS, ≈ 3.1 Mbit for T0).
pub fn run_battery(bits: &[u8], config: &BatteryConfig) -> Result<BatteryReport> {
    ensure_bit_len(bits, 20_000)?;
    let mut results = Vec::new();
    if config.procedure_a_t0 {
        results.push(procedure_a::t0_disjointness(bits)?);
    }
    if config.procedure_a {
        results.extend(procedure_a::run_t1_to_t5(bits)?);
    }
    if config.procedure_b {
        results.extend(procedure_b::run_reduced(bits)?);
    }
    if config.fips {
        results.extend(fips::run_all(bits)?);
    }
    if let Some(h) = config.sp80090b_min_entropy {
        results.push(sp80090b::repetition_count_test(bits, h)?);
        results.push(sp80090b::adaptive_proportion_test(bits, h)?.result);
    }
    Ok(BatteryReport {
        bits_analysed: bits.len(),
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bits(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(0..=1u8)).collect()
    }

    #[test]
    fn default_battery_passes_on_good_bits() {
        let bits = random_bits(200_000, 31);
        let report = run_battery(&bits, &BatteryConfig::default()).unwrap();
        assert!(report.all_passed(), "failures: {:?}", report.failures());
        assert!(report.results.len() >= 11);
        assert_eq!(report.bits_analysed, 200_000);
    }

    #[test]
    fn battery_reports_failures_on_biased_bits() {
        let mut rng = StdRng::seed_from_u64(32);
        let bits: Vec<u8> = (0..200_000).map(|_| u8::from(rng.gen_bool(0.6))).collect();
        let report = run_battery(&bits, &BatteryConfig::default()).unwrap();
        assert!(!report.all_passed());
        let failures = report.failures();
        assert!(failures.iter().any(|name| name.contains("monobit")));
    }

    #[test]
    fn suites_can_be_disabled() {
        let bits = random_bits(40_000, 33);
        let config = BatteryConfig {
            procedure_a: false,
            procedure_a_t0: false,
            procedure_b: false,
            fips: true,
            sp80090b_min_entropy: None,
        };
        let report = run_battery(&bits, &config).unwrap();
        assert_eq!(report.results.len(), 4);
        assert!(report.results.iter().all(|r| r.name.starts_with("FIPS")));
    }

    #[test]
    fn t0_can_be_enabled_with_enough_bits() {
        let bits = random_bits(procedure_a::T0_BLOCK_WIDTH * procedure_a::T0_BLOCKS, 34);
        let config = BatteryConfig {
            procedure_a: false,
            procedure_a_t0: true,
            procedure_b: false,
            fips: false,
            sp80090b_min_entropy: None,
        };
        let report = run_battery(&bits, &config).unwrap();
        assert_eq!(report.results.len(), 1);
        assert!(report.all_passed());
    }

    #[test]
    fn battery_rejects_short_sequences() {
        assert!(run_battery(&random_bits(1000, 1), &BatteryConfig::default()).is_err());
    }
}
