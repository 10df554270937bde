//! Software model of the paper's differential jitter measurement circuit.
//!
//! The experimental setup of Section III-E (implemented on the Evariste II FPGA platform
//! in the paper) consists of two nominally identical ring oscillators: a counter counts
//! the rising edges of `Osc1` during windows of `N` cycles of `Osc2`, producing the
//! values `Q_i^N`; the accumulated relative jitter statistic is then
//! `s_N(t_i) = (Q_{i+1}^N − Q_i^N)/f0` (Eq. 12) and its variance `σ²_N` is what Fig. 7
//! plots against `N`.
//!
//! This crate rebuilds that chain in software:
//!
//! * `counter` — the reference-windowed edge counter,
//! * [`circuit`] — the two-oscillator differential measurement (Eq. 12), with an
//!   explicit model of the ±1-count quantization floor of a hardware counter,
//! * [`campaign`] — acquisition campaigns sweeping `N` (optionally in parallel),
//! * [`dataset`] — the resulting `σ²_N` vs `N` datasets.
//!
//! Hardware substitution: the only difference between this model and the FPGA circuit is
//! that the oscillators are the simulated [`ptrng_osc::jitter::JitterGenerator`]s rather
//! than physical rings; the counting and differencing semantics are identical.  The
//! equation-by-equation map to the paper is `docs/stochastic-model.md` §4 of the
//! repository book.
//!
//! # Example
//!
//! Measure a small `σ²_N` dataset from the paper's circuit and check that the variance
//! grows with the accumulation depth:
//!
//! ```
//! use ptrng_measure::circuit::DifferentialCircuit;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), ptrng_measure::MeasureError> {
//! let circuit = DifferentialCircuit::date14_experiment();
//! let mut rng = StdRng::seed_from_u64(7);
//! let dataset = circuit.measure_period_domain(&mut rng, &[64, 256], 1 << 12)?;
//! let points = dataset.points();
//! assert_eq!(points.len(), 2);
//! assert!(points[1].sigma2_n > points[0].sigma2_n, "σ²_N grows with N");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod circuit;
mod counter;
pub mod dataset;

use thiserror::Error;

/// Errors produced by the measurement models.
#[derive(Debug, Error)]
#[non_exhaustive]
pub enum MeasureError {
    /// A parameter was outside its valid domain.
    #[error("invalid parameter {name}: {reason}")]
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the violated constraint.
        reason: String,
    },
    /// An oscillator-model routine failed.
    #[error("oscillator model error: {0}")]
    Osc(#[from] ptrng_osc::OscError),
    /// A statistical routine failed.
    #[error("statistics error: {0}")]
    Stats(#[from] ptrng_stats::StatsError),
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, MeasureError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_produce_readable_messages() {
        let osc_err = ptrng_osc::OscError::InvalidParameter {
            name: "x",
            reason: "bad".to_string(),
        };
        let err: MeasureError = osc_err.into();
        assert!(err.to_string().contains("oscillator model error"));

        let stats_err = ptrng_stats::StatsError::SeriesTooShort { len: 0, needed: 1 };
        let err: MeasureError = stats_err.into();
        assert!(err.to_string().contains("statistics error"));
    }
}
