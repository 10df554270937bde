//! Jitter-independence analysis of measured `σ²_N` data (Sections III-D/E of the paper).
//!
//! Bienaymé's identity forces `σ²_N` to be linear in `N` when the `2N` consecutive jitter
//! realizations are mutually independent; a statistically significant quadratic component
//! therefore disproves independence.  [`IndependenceAnalysis`] fits an acquired dataset
//! with `a·N + b·N²`, recovers the phase-noise coefficients and the ratio
//! `r_N = K/(K+N)`, and renders a verdict.

use serde::{Deserialize, Serialize};

use ptrng_measure::dataset::Sigma2NDataset;
use ptrng_osc::model::AccumulationModel;
use ptrng_osc::phase::PhaseNoiseModel;
use ptrng_stats::fit::{linear_through_origin_fit, sigma_n_fit, SigmaNFit};
use ptrng_stats::hypothesis::ljung_box;

use crate::{CoreError, Result};

/// Default relative excess of the quadratic term above which the linear (independent)
/// model is considered violated at the deepest measured depth.
pub const DEFAULT_NONLINEARITY_TOLERANCE: f64 = 0.10;

/// Verdict of the independence analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IndependenceVerdict {
    /// The dataset is consistent with mutually independent jitter realizations over the
    /// whole measured depth range.
    ConsistentWithIndependence,
    /// The dataset shows a flicker-type quadratic excess: realizations are mutually
    /// dependent beyond the reported threshold depth.
    DependentBeyondThreshold,
}

/// Result of analysing one `σ²_N` dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndependenceAnalysis {
    fit: SigmaNFit,
    linear_only_r_squared: f64,
    fitted_model: PhaseNoiseModel,
    max_depth: usize,
    flicker_share_at_max_depth: f64,
    verdict: IndependenceVerdict,
    independence_threshold_95: Option<u64>,
}

impl IndependenceAnalysis {
    /// Analyses a dataset with the default non-linearity tolerance.
    ///
    /// # Errors
    ///
    /// Returns an error when the dataset has fewer than three points or the fit fails.
    pub fn from_dataset(dataset: &Sigma2NDataset) -> Result<Self> {
        Self::with_tolerance(dataset, DEFAULT_NONLINEARITY_TOLERANCE)
    }

    /// Analyses a dataset, declaring dependence when the flicker (quadratic) share of
    /// `σ²_N` at the deepest measured depth exceeds `tolerance`.
    ///
    /// # Errors
    ///
    /// Returns an error when the dataset has fewer than three points, the tolerance is
    /// not in `(0, 1)`, or the fit fails.
    pub fn with_tolerance(dataset: &Sigma2NDataset, tolerance: f64) -> Result<Self> {
        if dataset.points().len() < 3 {
            return Err(CoreError::InvalidParameter {
                name: "dataset",
                reason: format!(
                    "at least 3 points are required, got {}",
                    dataset.points().len()
                ),
            });
        }
        if !(tolerance > 0.0 && tolerance < 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "tolerance",
                reason: format!("must be in (0, 1), got {tolerance}"),
            });
        }
        let depths = dataset.depths();
        let variances = dataset.variances();
        let weights = inverse_variance_weights(dataset);
        let fit = sigma_n_fit(&depths, &variances, Some(&weights))?;
        let linear_only = linear_through_origin_fit(&depths, &variances)?;

        // A slightly negative quadratic coefficient is statistical noise on a purely
        // thermal source: clamp it for the derived model.  Likewise, a quadratic term
        // whose contribution stays negligible over the whole measured range (numerical
        // residue of the fit) is treated as absent.
        let linear = fit.linear.max(0.0);
        let mut quadratic = fit.quadratic.max(0.0);
        let deepest = depths.last().copied().unwrap_or(1.0);
        if quadratic * deepest < 1e-6 * linear {
            quadratic = 0.0;
        }
        let fitted_model =
            PhaseNoiseModel::from_sigma_n_coefficients(linear, quadratic, dataset.frequency())?;

        let max_depth = depths.last().copied().unwrap_or(1.0) as usize;
        let total_at_max = linear * max_depth as f64 + quadratic * (max_depth as f64).powi(2);
        let flicker_share_at_max_depth = if total_at_max > 0.0 {
            quadratic * (max_depth as f64).powi(2) / total_at_max
        } else {
            0.0
        };
        let verdict = if flicker_share_at_max_depth > tolerance {
            IndependenceVerdict::DependentBeyondThreshold
        } else {
            IndependenceVerdict::ConsistentWithIndependence
        };
        let independence_threshold_95 =
            AccumulationModel::new(fitted_model).independence_threshold(0.95)?;
        Ok(Self {
            fit,
            linear_only_r_squared: linear_only.r_squared,
            fitted_model,
            max_depth,
            flicker_share_at_max_depth,
            verdict,
            independence_threshold_95,
        })
    }

    /// The two-parameter fit `σ²_N = a·N + b·N²`.
    pub fn fit(&self) -> &SigmaNFit {
        &self.fit
    }

    /// R² of the best purely linear fit through the origin (the model implied by
    /// independence); a markedly lower value than the two-parameter fit's R² is another
    /// face of the same non-linearity.
    pub fn linear_only_r_squared(&self) -> f64 {
        self.linear_only_r_squared
    }

    /// The phase-noise model recovered from the fit.
    pub fn fitted_model(&self) -> &PhaseNoiseModel {
        &self.fitted_model
    }

    /// Deepest accumulation depth present in the dataset.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Share of `σ²_N` attributed to the flicker (quadratic) term at the deepest measured
    /// depth (`1 − r_N`).
    pub fn flicker_share_at_max_depth(&self) -> f64 {
        self.flicker_share_at_max_depth
    }

    /// The verdict.
    pub fn verdict(&self) -> IndependenceVerdict {
        self.verdict
    }

    /// Depth below which `r_N > 95 %`, i.e. below which `2N` consecutive realizations may
    /// still be treated as almost mutually independent (`None` when no flicker term was
    /// detected).
    pub fn independence_threshold_95(&self) -> Option<u64> {
        self.independence_threshold_95
    }
}

/// Weights for the `σ²_N` fit: the sampling variance of a variance estimate scales as
/// `σ⁴/n_samples`, so inverse-variance weighting uses `n_samples/σ⁴`.  Without it the
/// ordinary least squares would be dominated by the (noisiest) deepest points and the
/// small-`N` thermal region — the part the paper actually wants to read off — would be
/// drowned out.
pub(crate) fn inverse_variance_weights(dataset: &Sigma2NDataset) -> Vec<f64> {
    dataset
        .points()
        .iter()
        .map(|p| {
            if p.sigma2_n > 0.0 {
                p.samples as f64 / (p.sigma2_n * p.sigma2_n)
            } else {
                0.0
            }
        })
        .collect()
}

/// Corroborates (or refutes) independence directly on a period-jitter series with the
/// Ljung–Box portmanteau test: returns `true` when the test finds **no** significant
/// serial correlation up to `lags`.
///
/// Thermal-only jitter passes; flicker-bearing jitter fails for sufficiently long series.
///
/// # Errors
///
/// Returns an error when the series is too short for the requested number of lags.
pub fn jitter_series_looks_independent(jitter: &[f64], lags: usize, alpha: f64) -> Result<bool> {
    Ok(ljung_box(jitter, lags, alpha)?.passed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptrng_measure::dataset::DatasetPoint;
    use ptrng_osc::jitter::JitterGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset_from_model(model: PhaseNoiseModel, depths: &[usize]) -> Sigma2NDataset {
        let acc = AccumulationModel::new(model);
        let points = depths
            .iter()
            .map(|&n| DatasetPoint {
                n,
                sigma2_n: acc.sigma2_n(n),
                samples: 1000,
            })
            .collect();
        Sigma2NDataset::new(model.frequency(), "synthetic", points).unwrap()
    }

    #[test]
    fn paper_dataset_is_declared_dependent_with_the_paper_threshold() {
        let model = PhaseNoiseModel::date14_experiment();
        let depths: Vec<usize> = vec![100, 500, 1000, 5000, 10_000, 20_000, 30_000];
        let dataset = dataset_from_model(model, &depths);
        let analysis = IndependenceAnalysis::from_dataset(&dataset).unwrap();
        assert_eq!(
            analysis.verdict(),
            IndependenceVerdict::DependentBeyondThreshold
        );
        assert_eq!(analysis.independence_threshold_95(), Some(281));
        assert!((analysis.fitted_model().b_thermal() - 276.04).abs() / 276.04 < 1e-3);
        let rn = AccumulationModel::new(*analysis.fitted_model()).rn_ratio(5354);
        assert!((rn - 0.5).abs() < 1e-3);
        assert!(analysis.max_depth() == 30_000);
        // The linear-only fit cannot explain the quadratic growth.
        assert!(analysis.linear_only_r_squared() < analysis.fit().r_squared);
    }

    #[test]
    fn thermal_only_dataset_is_consistent_with_independence() {
        let model = PhaseNoiseModel::thermal_only(276.04, 103.0e6).unwrap();
        let depths: Vec<usize> = vec![10, 100, 1000, 10_000];
        let dataset = dataset_from_model(model, &depths);
        let analysis = IndependenceAnalysis::from_dataset(&dataset).unwrap();
        assert_eq!(
            analysis.verdict(),
            IndependenceVerdict::ConsistentWithIndependence
        );
        assert!(analysis.flicker_share_at_max_depth() < 0.01);
        assert!(analysis.independence_threshold_95().is_none());
    }

    #[test]
    fn noisy_measured_dataset_still_recovers_the_coefficients() {
        let circuit = ptrng_measure::circuit::DifferentialCircuit::date14_experiment();
        let mut rng = StdRng::seed_from_u64(11);
        let depths = ptrng_stats::sn::log_spaced_depths(16, 4096, 14).unwrap();
        let dataset = circuit
            .measure_period_domain(&mut rng, &depths, 1 << 17)
            .unwrap();
        let analysis = IndependenceAnalysis::from_dataset(&dataset).unwrap();
        let b_th = analysis.fitted_model().b_thermal();
        assert!(
            (b_th - 276.04).abs() / 276.04 < 0.4,
            "recovered b_th = {b_th}"
        );
    }

    #[test]
    fn tolerance_controls_the_verdict() {
        let model = PhaseNoiseModel::date14_experiment();
        // Shallow depths only: the flicker share stays small.
        let dataset = dataset_from_model(model, &[10, 50, 100, 200]);
        let strict = IndependenceAnalysis::with_tolerance(&dataset, 0.01).unwrap();
        let loose = IndependenceAnalysis::with_tolerance(&dataset, 0.5).unwrap();
        assert_eq!(
            strict.verdict(),
            IndependenceVerdict::DependentBeyondThreshold
        );
        assert_eq!(
            loose.verdict(),
            IndependenceVerdict::ConsistentWithIndependence
        );
    }

    #[test]
    fn ljung_box_corroboration_distinguishes_the_two_regimes() {
        let mut rng = StdRng::seed_from_u64(12);
        let thermal = JitterGenerator::new(PhaseNoiseModel::thermal_only(276.04, 103.0e6).unwrap());
        let jitter = thermal.generate_period_jitter(&mut rng, 20_000).unwrap();
        assert!(jitter_series_looks_independent(&jitter, 20, 0.01).unwrap());

        // Strongly flicker-dominated jitter is serially correlated.
        let flicker_heavy =
            JitterGenerator::new(PhaseNoiseModel::new(10.0, 5.0e7, 103.0e6).unwrap());
        let jitter = flicker_heavy
            .generate_period_jitter(&mut rng, 20_000)
            .unwrap();
        assert!(!jitter_series_looks_independent(&jitter, 20, 0.01).unwrap());
    }

    #[test]
    fn validation_errors() {
        let model = PhaseNoiseModel::date14_experiment();
        let tiny = dataset_from_model(model, &[10, 20]);
        assert!(IndependenceAnalysis::from_dataset(&tiny).is_err());
        let ok = dataset_from_model(model, &[10, 20, 40]);
        assert!(IndependenceAnalysis::with_tolerance(&ok, 0.0).is_err());
        assert!(IndependenceAnalysis::with_tolerance(&ok, 1.0).is_err());
    }
}
