//! Time-series statistics substrate for P-TRNG jitter analysis.
//!
//! This crate provides the statistical machinery used throughout the `ptrng` workspace to
//! analyse oscillator jitter sequences in the spirit of Haddad et al., *"On the assumption
//! of mutual independence of jitter realizations in P-TRNG stochastic models"* (DATE 2014):
//!
//! * [`sn`] — the paper's accumulation statistic `s_N` (difference of two adjacent
//!   accumulations of `N` oscillator periods) and its variance `σ²_N`,
//! * [`allan`] — the overlapping Allan variance,
//! * [`fft`] / [`spectral`] — radix-2 FFT and Welch's PSD estimator,
//! * [`fit`] — least-squares fitting, including the paper's `σ²_N = a·N + b·N²` fit,
//! * [`autocorr`] — autocovariance / autocorrelation estimation,
//! * [`hypothesis`] — Kolmogorov–Smirnov and Ljung–Box tests,
//! * [`minentropy`] — min-entropy ↔ bias conversions for binary sources (the algebra
//!   the conditioning-pipeline entropy ledger is written in),
//! * [`descriptive`], [`special`], [`window`], [`seed`] — supporting numerical building
//!   blocks.
//!
//! # Example
//!
//! Verify Bienaymé's identity on an i.i.d. sequence: the variance of the accumulated
//! statistic grows linearly with `N`.
//!
//! ```
//! use ptrng_stats::sn::sigma2_n;
//!
//! # fn main() -> Result<(), ptrng_stats::StatsError> {
//! // A deterministic "jitter" sequence standing in for measured period jitter.
//! let jitter: Vec<f64> = (0..4096).map(|i| ((i * 2654435761u64 % 1000) as f64) / 1e3 - 0.5).collect();
//! let v1 = sigma2_n(&jitter, 1)?;
//! let v8 = sigma2_n(&jitter, 8)?;
//! assert!(v8 > v1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allan;
pub mod autocorr;
pub mod descriptive;
pub mod fft;
pub mod fit;
pub mod hypothesis;
pub mod minentropy;
pub mod seed;
pub mod sn;
pub mod special;
pub mod spectral;
pub mod window;

use thiserror::Error;

/// Errors produced by the statistical routines of this crate.
#[derive(Debug, Clone, PartialEq, Error)]
#[non_exhaustive]
pub enum StatsError {
    /// The input series is too short for the requested computation.
    #[error("series of length {len} is too short, need at least {needed}")]
    SeriesTooShort {
        /// Actual length of the provided series.
        len: usize,
        /// Minimum length required by the operation.
        needed: usize,
    },
    /// A parameter was outside its valid domain.
    #[error("invalid parameter {name}: {reason}")]
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The input contained a non-finite (NaN or infinite) sample.
    #[error("non-finite sample at index {index}")]
    NonFiniteSample {
        /// Index of the first non-finite sample.
        index: usize,
    },
    /// A numerical routine failed to converge.
    #[error("numerical routine {routine} did not converge")]
    NoConvergence {
        /// Name of the routine that failed.
        routine: &'static str,
    },
    /// A linear system was singular (or numerically close to singular).
    #[error("singular linear system in {context}")]
    SingularSystem {
        /// Description of where the singular system arose.
        context: &'static str,
    },
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, StatsError>;

/// Checks that every sample of `series` is finite.
///
/// # Errors
///
/// Returns [`StatsError::NonFiniteSample`] with the index of the first offending sample.
pub fn ensure_finite(series: &[f64]) -> Result<()> {
    for (index, x) in series.iter().enumerate() {
        if !x.is_finite() {
            return Err(StatsError::NonFiniteSample { index });
        }
    }
    Ok(())
}

/// Checks that `series` has at least `needed` samples.
///
/// # Errors
///
/// Returns [`StatsError::SeriesTooShort`] otherwise.
pub fn ensure_len(series: &[f64], needed: usize) -> Result<()> {
    if series.len() < needed {
        return Err(StatsError::SeriesTooShort {
            len: series.len(),
            needed,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_finite_accepts_finite() {
        assert!(ensure_finite(&[0.0, 1.5, -3.0]).is_ok());
    }

    #[test]
    fn ensure_finite_rejects_nan() {
        let err = ensure_finite(&[0.0, f64::NAN]).unwrap_err();
        assert_eq!(err, StatsError::NonFiniteSample { index: 1 });
    }

    #[test]
    fn ensure_finite_rejects_infinity() {
        let err = ensure_finite(&[f64::INFINITY]).unwrap_err();
        assert_eq!(err, StatsError::NonFiniteSample { index: 0 });
    }

    #[test]
    fn ensure_len_boundaries() {
        assert!(ensure_len(&[1.0, 2.0], 2).is_ok());
        let err = ensure_len(&[1.0], 2).unwrap_err();
        assert_eq!(err, StatsError::SeriesTooShort { len: 1, needed: 2 });
    }

    #[test]
    fn errors_display_lowercase() {
        let msg = StatsError::NoConvergence { routine: "fit" }.to_string();
        assert!(msg.starts_with("numerical routine"));
    }
}
