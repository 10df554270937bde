//! Hypothesis tests used to corroborate (or refute) independence and distributional
//! assumptions about jitter series.
//!
//! * [`ks_test_normal`] — Kolmogorov–Smirnov test against a normal distribution,
//! * [`ljung_box`] — portmanteau test for serial correlation (the classical counterpart
//!   of the paper's Bienaymé-based dependence argument).

use serde::{Deserialize, Serialize};

use crate::autocorr::autocorrelation;
use crate::special::{chi_squared_sf, kolmogorov_sf, normal_cdf};
use crate::{ensure_finite, ensure_len, Result, StatsError};

/// Outcome of a hypothesis test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TestOutcome {
    /// Name of the test.
    pub name: String,
    /// Value of the test statistic.
    pub statistic: f64,
    /// p-value under the null hypothesis.
    pub p_value: f64,
    /// Significance level the verdict refers to.
    pub alpha: f64,
}

impl TestOutcome {
    /// Returns `true` when the null hypothesis is **rejected** at level `alpha`.
    pub fn rejected(&self) -> bool {
        self.p_value < self.alpha
    }

    /// Returns `true` when the data are consistent with the null hypothesis.
    pub fn passed(&self) -> bool {
        !self.rejected()
    }
}

/// Kolmogorov–Smirnov test of a sample against the normal distribution with the given
/// mean and standard deviation.
///
/// # Errors
///
/// Returns an error for samples with fewer than 8 points, non-finite values,
/// `std_dev <= 0`, or an invalid `alpha`.
pub fn ks_test_normal(sample: &[f64], mean: f64, std_dev: f64, alpha: f64) -> Result<TestOutcome> {
    if std_dev <= 0.0 || !std_dev.is_finite() || !mean.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "std_dev/mean",
            reason: "mean must be finite and std_dev positive".to_string(),
        });
    }
    ks_test(sample, alpha, "kolmogorov-smirnov (normal)", |x| {
        normal_cdf((x - mean) / std_dev)
    })
}

fn ks_test(
    sample: &[f64],
    alpha: f64,
    name: &str,
    cdf: impl Fn(f64) -> f64,
) -> Result<TestOutcome> {
    ensure_len(sample, 8)?;
    ensure_finite(sample)?;
    check_alpha(alpha)?;
    let mut sorted = sample.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite samples are comparable"));
    let n = sample.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sorted.iter().enumerate() {
        let model = cdf(x);
        let above = (i as f64 + 1.0) / n - model;
        let below = model - i as f64 / n;
        d = d.max(above.max(below));
    }
    let lambda = (n.sqrt() + 0.12 + 0.11 / n.sqrt()) * d;
    let p_value = kolmogorov_sf(lambda);
    Ok(TestOutcome {
        name: name.to_string(),
        statistic: d,
        p_value,
        alpha,
    })
}

/// Ljung–Box portmanteau test for serial correlation up to `lags`.
///
/// The null hypothesis is that the series is independently distributed; rejection means
/// the series exhibits serial correlation — the classical statistical formulation of the
/// dependence the paper demonstrates for jitter realizations under flicker noise.
///
/// # Errors
///
/// Returns an error when `lags == 0`, the series is shorter than `lags + 2`, samples are
/// non-finite, the variance is zero, or `alpha` is invalid.
pub fn ljung_box(series: &[f64], lags: usize, alpha: f64) -> Result<TestOutcome> {
    if lags == 0 {
        return Err(StatsError::InvalidParameter {
            name: "lags",
            reason: "at least one lag is required".to_string(),
        });
    }
    ensure_len(series, lags + 2)?;
    check_alpha(alpha)?;
    let ac = autocorrelation(series, lags)?;
    let n = series.len() as f64;
    let statistic = n
        * (n + 2.0)
        * ac.autocorrelation
            .iter()
            .enumerate()
            .skip(1)
            .map(|(k, r)| r * r / (n - k as f64))
            .sum::<f64>();
    let p_value = chi_squared_sf(statistic, lags)?;
    Ok(TestOutcome {
        name: format!("ljung-box ({lags} lags)"),
        statistic,
        p_value,
        alpha,
    })
}

fn check_alpha(alpha: f64) -> Result<()> {
    if !(alpha > 0.0 && alpha < 1.0) {
        return Err(StatsError::InvalidParameter {
            name: "alpha",
            reason: format!("significance level must be in (0, 1), got {alpha}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn gaussian(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect()
    }

    #[test]
    fn ks_normal_accepts_gaussian_sample() {
        let sample = gaussian(2000, 1);
        let outcome = ks_test_normal(&sample, 0.0, 1.0, 0.01).unwrap();
        assert!(outcome.passed(), "p = {}", outcome.p_value);
    }

    #[test]
    fn ks_normal_rejects_uniform_sample() {
        let mut rng = StdRng::seed_from_u64(2);
        let sample: Vec<f64> = (0..2000).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let outcome = ks_test_normal(&sample, 0.0, 1.0, 0.01).unwrap();
        assert!(outcome.rejected());
    }

    #[test]
    fn ks_validates_inputs() {
        assert!(ks_test_normal(&[1.0; 4], 0.0, 1.0, 0.05).is_err());
        assert!(ks_test_normal(&gaussian(100, 5), 0.0, 0.0, 0.05).is_err());
    }

    #[test]
    fn ljung_box_accepts_white_noise() {
        let sample = gaussian(5000, 7);
        let outcome = ljung_box(&sample, 20, 0.01).unwrap();
        assert!(outcome.passed(), "p = {}", outcome.p_value);
    }

    #[test]
    fn ljung_box_rejects_smoothed_noise() {
        let base = gaussian(5000, 11);
        let smoothed: Vec<f64> = base.windows(8).map(|w| w.iter().sum::<f64>()).collect();
        let outcome = ljung_box(&smoothed, 20, 0.01).unwrap();
        assert!(outcome.rejected());
    }

    #[test]
    fn ljung_box_validates_inputs() {
        assert!(ljung_box(&gaussian(10, 1), 0, 0.05).is_err());
        assert!(ljung_box(&gaussian(10, 1), 20, 0.05).is_err());
    }

    #[test]
    fn outcome_verdict_helpers() {
        let outcome = TestOutcome {
            name: "demo".to_string(),
            statistic: 1.0,
            p_value: 0.2,
            alpha: 0.05,
        };
        assert!(outcome.passed());
        assert!(!outcome.rejected());
    }
}
