//! Transistor-level electronic noise substrate.
//!
//! The DATE 2014 paper grounds its "multilevel" P-TRNG stochastic model in the two noise
//! mechanisms that dominate bulk CMOS devices:
//!
//! * **thermal noise** — white, non-autocorrelated, with drain-current PSD
//!   `S_th = (8/3)·k·T·g_m`,
//! * **flicker (1/f) noise** — autocorrelated, with drain-current PSD
//!   `S_fl(f) = α·k·T·I_D² / (W·L²·f)`.
//!
//! This crate provides:
//!
//! * [`transistor`] — the device-level PSD models above, parameterized by the physical
//!   quantities quoted in the paper (Section III-A),
//! * [`white`] — white Gaussian noise generation with a calibrated one-sided PSD level,
//! * [`flicker`] — streaming `1/f^α` noise via the Kasdin–Walter fractional-difference
//!   filter, evaluated by FFT overlap-save blocks on the fast path (the scalar FIR
//!   remains as the test reference — see the module docs for the scheme),
//! * [`ou`] — Ornstein–Uhlenbeck (Lorentzian) processes and banks of them, an
//!   alternative route to band-limited `1/f` noise,
//! * [`synthesis`] — block generation of noise with an arbitrary target PSD by spectral
//!   shaping (FFT).
//!
//! # Example
//!
//! ```
//! use ptrng_noise::transistor::MosTransistor;
//!
//! let device = MosTransistor::typical_130nm();
//! let thermal = device.thermal_current_psd();
//! let flicker_at_1khz = device.flicker_corner_coefficient() / 1.0e3;
//! assert!(thermal > 0.0 && flicker_at_1khz > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flicker;
pub mod ou;
pub mod synthesis;
pub mod transistor;
pub mod white;

use rand::RngCore;
use thiserror::Error;

/// Boltzmann constant in J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Errors produced by the noise models and generators.
#[derive(Debug, Clone, PartialEq, Error)]
#[non_exhaustive]
pub enum NoiseError {
    /// A physical or numerical parameter was outside its valid domain.
    #[error("invalid parameter {name}: {reason}")]
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the violated constraint.
        reason: String,
    },
    /// An underlying statistical routine failed.
    #[error("statistics error: {0}")]
    Stats(#[from] ptrng_stats::StatsError),
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, NoiseError>;

/// A streaming source of noise samples at a fixed sample rate.
///
/// Sources are deterministic functions of the random bits drawn from the provided RNG,
/// which keeps simulations reproducible under seeded RNGs.
pub trait NoiseSource {
    /// Draws the next sample of the process.
    fn sample(&mut self, rng: &mut dyn RngCore) -> f64;

    /// Sample rate of the generated process in hertz.
    fn sample_rate(&self) -> f64;

    /// Fills `out` with consecutive samples.
    fn fill(&mut self, rng: &mut dyn RngCore, out: &mut [f64]) {
        for slot in out {
            *slot = self.sample(rng);
        }
    }

    /// Fills `out` with consecutive samples using the source's fastest block algorithm.
    ///
    /// The default forwards to the per-sample [`NoiseSource::fill`].  Implementations
    /// may override it with a block-based scheme (FFT convolution, paired Gaussian
    /// draws, …) that produces the **same process distribution** but is free to consume
    /// the RNG in a different order than the scalar path, so `fill` and `fill_block`
    /// outputs generally differ realization-by-realization.  [`crate::flicker`] is the
    /// exception: its block path consumes the identical innovation stream and matches
    /// the scalar filter to floating-point accuracy.
    fn fill_block(&mut self, rng: &mut dyn RngCore, out: &mut [f64]) {
        self.fill(rng, out);
    }

    /// Generates `len` consecutive samples into a new vector.
    fn generate(&mut self, rng: &mut dyn RngCore, len: usize) -> Vec<f64> {
        let mut out = vec![0.0; len];
        self.fill(rng, &mut out);
        out
    }
}

pub(crate) fn check_positive(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(NoiseError::InvalidParameter {
            name,
            reason: format!("must be positive and finite, got {value}"),
        })
    }
}

pub(crate) fn check_non_negative(name: &'static str, value: f64) -> Result<f64> {
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(NoiseError::InvalidParameter {
            name,
            reason: format!("must be non-negative and finite, got {value}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_positive_accepts_and_rejects() {
        assert_eq!(check_positive("x", 2.0).unwrap(), 2.0);
        assert!(check_positive("x", 0.0).is_err());
        assert!(check_positive("x", -1.0).is_err());
        assert!(check_positive("x", f64::NAN).is_err());
    }

    #[test]
    fn check_non_negative_accepts_zero() {
        assert_eq!(check_non_negative("x", 0.0).unwrap(), 0.0);
        assert!(check_non_negative("x", -1e-9).is_err());
    }

    #[test]
    fn error_converts_from_stats_error() {
        let stats_err = ptrng_stats::StatsError::SeriesTooShort { len: 1, needed: 2 };
        let err: NoiseError = stats_err.into();
        assert!(err.to_string().contains("statistics error"));
    }

    #[test]
    fn boltzmann_constant_value() {
        assert!((BOLTZMANN - 1.380_649e-23).abs() < 1e-30);
    }
}
