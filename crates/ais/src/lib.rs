//! Statistical test batteries for raw random bit sequences.
//!
//! AIS 31 (the evaluation methodology the paper's Section II refers to) requires a P-TRNG
//! to pass statistical tests of its raw binary sequence, both at evaluation time and —
//! for the higher assurance classes — on line, with tests tailored to the generator's
//! stochastic model.  This crate provides:
//!
//! * [`procedure_a`] — AIS 31 Procedure A: disjointness (T0), monobit (T1), poker (T2),
//!   runs (T3), long-run (T4) and autocorrelation (T5) tests,
//! * [`procedure_b`] — AIS 31 Procedure B: uniform-distribution (T6), multinomial
//!   comparison (T7) and Coron entropy (T8) tests,
//! * [`fips`] — the FIPS 140-2 single-block variants (monobit, poker, runs, long run),
//! * [`sp80090b`] — NIST SP 800-90B style continuous health tests (repetition count,
//!   adaptive proportion),
//! * [`estimators`] — the SP 800-90B §6.3 non-IID min-entropy estimator battery
//!   (MCV, collision, Markov, compression, t-tuple, LRS, MultiMCW and lag
//!   prediction) that audits a stochastic model's entropy claim black-box,
//! * [`battery`] — aggregation of all of the above into a single report,
//! * [`bits`] — bit-sequence helpers shared by the tests.
//!
//! The numerical bounds follow the published test specifications; they are deterministic
//! pass/fail criteria, not p-values.  Where each battery sits in the runtime's health
//! layer is described in `docs/architecture.md` of the repository book.
//!
//! # Example
//!
//! Run the FIPS 140-2 battery on one 20 000-bit block:
//!
//! ```
//! use ptrng_ais::fips;
//! use rand::rngs::StdRng;
//! use rand::{Rng, SeedableRng};
//!
//! # fn main() -> Result<(), ptrng_ais::AisError> {
//! let mut rng = StdRng::seed_from_u64(1);
//! let bits: Vec<u8> = (0..fips::FIPS_BLOCK_BITS).map(|_| rng.gen_range(0..=1)).collect();
//! let results = fips::run_all(&bits)?;
//! assert!(results.iter().all(|r| r.passed), "a fair coin passes the battery");
//!
//! // A stuck source fails immediately (and names the failing tests).
//! let stuck = vec![1u8; fips::FIPS_BLOCK_BITS];
//! assert!(fips::run_all(&stuck)?.iter().any(|r| !r.passed));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod battery;
pub mod bits;
pub mod estimators;
pub mod fips;
pub mod procedure_a;
pub mod procedure_b;
pub mod sp80090b;

use serde::{Deserialize, Serialize};
use thiserror::Error;

/// Errors produced by the test battery.
#[derive(Debug, Clone, PartialEq, Error)]
#[non_exhaustive]
pub enum AisError {
    /// The bit sequence is too short for the requested test.
    #[error("bit sequence of length {len} is too short, {needed} bits are required")]
    SequenceTooShort {
        /// Provided number of bits.
        len: usize,
        /// Required number of bits.
        needed: usize,
    },
    /// A parameter was outside its valid domain.
    #[error("invalid parameter {name}: {reason}")]
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the violated constraint.
        reason: String,
    },
    /// A sample value was not a bit (0 or 1).
    #[error("sample at index {index} is not a bit (got {value})")]
    NotABit {
        /// Index of the offending sample.
        index: usize,
        /// The offending value.
        value: u8,
    },
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, AisError>;

/// Outcome of one individual statistical test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestResult {
    /// Short identifier of the test (e.g. `"T1 monobit"`).
    pub name: String,
    /// Value of the test statistic.
    pub statistic: f64,
    /// `true` when the sequence passed the test.
    pub passed: bool,
    /// Human-readable description of the acceptance region.
    pub acceptance: String,
}

impl TestResult {
    /// Creates a test result.
    pub fn new(
        name: impl Into<String>,
        statistic: f64,
        passed: bool,
        acceptance: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            statistic,
            passed,
            acceptance: acceptance.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_result_constructor() {
        let r = TestResult::new("demo", 1.5, true, "1 < x < 2");
        assert_eq!(r.name, "demo");
        assert!(r.passed);
        assert_eq!(r.acceptance, "1 < x < 2");
    }

    #[test]
    fn errors_have_readable_messages() {
        let e = AisError::SequenceTooShort { len: 5, needed: 10 };
        assert!(e.to_string().contains("too short"));
        let e = AisError::NotABit { index: 3, value: 7 };
        assert!(e.to_string().contains("not a bit"));
    }
}
