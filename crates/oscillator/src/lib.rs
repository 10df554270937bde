//! Ring-oscillator and phase-noise substrate.
//!
//! This crate models the conversion chain at the heart of the paper's multilevel
//! approach:
//!
//! ```text
//! drain-current noise (ptrng-noise)
//!        │  Hajimiri impulse-sensitivity-function model        [`isf`]
//!        ▼
//! excess-phase PSD  Sφ(f) = b_th/f² + b_fl/f³                  [`phase`]
//!        │  accumulation statistic (Eq. 9 / Eq. 11)            [`model`]
//!        ▼
//! σ²_N = 2·b_th/f0³·N + 8·ln2·b_fl/f0⁴·N²
//! ```
//!
//! and, in the time domain, generates the period/edge series of a jittery ring oscillator
//! with exactly that phase-noise PSD ([`jitter`], [`ring`], [`edges`]), so that the
//! measurement circuit and statistics built on top of it exercise the same code path as
//! the paper's FPGA experiment.
//!
//! # Convention
//!
//! Following the paper, the coefficients `b_th` and `b_fl` refer to the **two-sided**
//! excess-phase PSD evaluated at positive frequencies; the one-sided PSD seen by a
//! spectrum analyser (or by [`ptrng_stats::spectral`]) is twice as large.
//!
//! # Example
//!
//! ```
//! use ptrng_osc::phase::PhaseNoiseModel;
//!
//! # fn main() -> Result<(), ptrng_osc::OscError> {
//! // The model fitted in the paper's experiment (f0 = 103 MHz).
//! let model = PhaseNoiseModel::date14_experiment();
//! // Thermal-only period jitter: the paper reports 15.89 ps (1.6 permil of the period).
//! let sigma = model.thermal_period_jitter();
//! assert!((sigma - 15.89e-12).abs() < 0.05e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edges;
mod isf;
pub mod jitter;
pub mod model;
pub mod phase;
pub mod ring;

use thiserror::Error;

/// Errors produced by the oscillator models and generators.
#[derive(Debug, Clone, PartialEq, Error)]
#[non_exhaustive]
pub enum OscError {
    /// A parameter was outside its valid domain.
    #[error("invalid parameter {name}: {reason}")]
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the violated constraint.
        reason: String,
    },
    /// An underlying noise-model routine failed.
    #[error("noise model error: {0}")]
    Noise(#[from] ptrng_noise::NoiseError),
    /// An underlying statistical routine failed.
    #[error("statistics error: {0}")]
    Stats(#[from] ptrng_stats::StatsError),
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, OscError>;

pub(crate) fn check_positive(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(OscError::InvalidParameter {
            name,
            reason: format!("must be positive and finite, got {value}"),
        })
    }
}

pub(crate) fn check_non_negative(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(OscError::InvalidParameter {
            name,
            reason: format!("must be non-negative and finite, got {value}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_checks() {
        assert!(check_positive("x", 1.0).is_ok());
        assert!(check_positive("x", 0.0).is_err());
        assert!(check_non_negative("x", 0.0).is_ok());
        assert!(check_non_negative("x", -1.0).is_err());
    }

    #[test]
    fn error_conversions() {
        let noise_err = ptrng_noise::NoiseError::InvalidParameter {
            name: "x",
            reason: "bad".to_string(),
        };
        let err: OscError = noise_err.into();
        assert!(err.to_string().contains("noise model error"));

        let stats_err = ptrng_stats::StatsError::SeriesTooShort { len: 0, needed: 1 };
        let err: OscError = stats_err.into();
        assert!(err.to_string().contains("statistics error"));
    }
}
