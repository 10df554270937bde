//! Shared helpers for the experiment-regeneration binaries.
//!
//! Every experiment of the paper (FIG7, EQ6, EQ11, RN, THERMAL, ENTROPY) is backed by one
//! seeded, deterministic binary in `src/bin/` that prints the regenerated rows/series and
//! the verdict they support.  Speed is measured elsewhere: `perfbench` (see
//! `BENCHMARK.json`) is the workspace's one benchmark harness.
//!
//! # Example
//!
//! Acquire a miniature FIG7-style dataset (a real simulation, scaled down):
//!
//! ```
//! use ptrng_bench::acquire_fig7_dataset;
//!
//! let dataset = acquire_fig7_dataset(1, 1 << 12, 256);
//! assert!(dataset.points().len() > 4, "log-spaced depths acquired");
//! assert!(dataset.points().iter().all(|p| p.sigma2_n >= 0.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;

use ptrng_measure::circuit::DifferentialCircuit;
use ptrng_measure::dataset::Sigma2NDataset;
use ptrng_osc::phase::PhaseNoiseModel;
use ptrng_stats::sn::log_spaced_depths;

/// Record length (in oscillator periods) used by the default FIG7 regeneration.
pub const DEFAULT_RECORD_LEN: usize = 1 << 20;

/// Maximum accumulation depth of the default FIG7 sweep.
pub const DEFAULT_MAX_DEPTH: usize = 30_000;

/// Builds the paper's differential circuit and acquires a `σ²_N` dataset over
/// log-spaced depths `[1, max_depth]` with the period-domain estimator.
///
/// # Panics
///
/// Panics when the simulation fails (cannot happen for the built-in parameters).
pub fn acquire_fig7_dataset(seed: u64, record_len: usize, max_depth: usize) -> Sigma2NDataset {
    let circuit = DifferentialCircuit::date14_experiment();
    let mut rng = StdRng::seed_from_u64(seed);
    let depths = log_spaced_depths(1, max_depth, 40).expect("valid depth range");
    circuit
        .measure_period_domain(&mut rng, &depths, record_len)
        .expect("period-domain acquisition succeeds for the built-in parameters")
}

/// Builds a thermal-only circuit matching the paper's thermal coefficient and acquires a
/// dataset (used by the EQ6 linearity experiment).
///
/// # Panics
///
/// Panics when the simulation fails (cannot happen for the built-in parameters).
pub fn acquire_thermal_only_dataset(
    seed: u64,
    record_len: usize,
    max_depth: usize,
) -> Sigma2NDataset {
    let paper = PhaseNoiseModel::date14_experiment();
    let per_osc = PhaseNoiseModel::thermal_only(paper.b_thermal() / 2.0, paper.frequency())
        .expect("paper coefficients are valid");
    let circuit = DifferentialCircuit::new(per_osc, per_osc);
    let mut rng = StdRng::seed_from_u64(seed);
    let depths = log_spaced_depths(1, max_depth, 30).expect("valid depth range");
    circuit
        .measure_period_domain(&mut rng, &depths, record_len)
        .expect("period-domain acquisition succeeds for the built-in parameters")
}

/// Formats one row of a Fig. 7-style table: depth, normalized measurement, normalized
/// model prediction.
pub fn format_fig7_row(n: f64, measured_normalized: f64, model_normalized: f64) -> String {
    format!("{n:>8.0}  {measured_normalized:>14.6e}  {model_normalized:>14.6e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_dataset_is_reproducible_and_ordered() {
        let a = acquire_fig7_dataset(1, 1 << 14, 2_000);
        let b = acquire_fig7_dataset(1, 1 << 14, 2_000);
        assert_eq!(a, b);
        let depths = a.depths();
        assert!(depths.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn thermal_only_dataset_is_roughly_linear() {
        let ds = acquire_thermal_only_dataset(2, 1 << 15, 1_000);
        let depths = ds.depths();
        let vars = ds.variances();
        let first = vars[0] / depths[0];
        let last = vars[vars.len() - 1] / depths[depths.len() - 1];
        assert!((last / first - 1.0).abs() < 0.5, "ratio {}", last / first);
    }

    #[test]
    fn fig7_row_formatting_is_stable() {
        let row = format_fig7_row(100.0, 1.23e-4, 4.56e-4);
        assert!(row.contains("100"));
        assert!(row.contains("e-4"));
    }
}
