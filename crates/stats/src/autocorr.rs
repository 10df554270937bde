//! Autocovariance and autocorrelation estimation.
//!
//! Mutual independence of jitter realizations implies (but is not implied by) a vanishing
//! autocorrelation at every non-zero lag; the sample autocorrelation function therefore
//! provides a complementary, classical view of the dependence the paper detects through
//! the non-linearity of `σ²_N`.

use serde::{Deserialize, Serialize};

use crate::fft::autocovariance_fft;
use crate::{ensure_finite, Result, StatsError};

/// Sample autocovariance/autocorrelation function up to a maximum lag.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Autocorrelation {
    /// Autocovariance at lags `0..=max_lag` (biased estimator, divides by `n`).
    pub autocovariance: Vec<f64>,
    /// Autocorrelation at lags `0..=max_lag` (autocovariance normalized by lag 0).
    pub autocorrelation: Vec<f64>,
    /// Number of samples in the analysed series.
    pub samples: usize,
}

/// Estimates the autocovariance and autocorrelation of a series up to `max_lag`.
///
/// Uses the FFT-based Wiener–Khinchin route for long series and the direct sum for short
/// ones; the two are numerically identical (biased estimator, mean removed).
///
/// # Errors
///
/// Returns an error for series with fewer than two samples, non-finite samples, a
/// `max_lag` of 0, `max_lag >= len`, or a series with zero variance.
pub fn autocorrelation(series: &[f64], max_lag: usize) -> Result<Autocorrelation> {
    ensure_finite(series)?;
    if series.len() < 2 {
        return Err(StatsError::SeriesTooShort {
            len: series.len(),
            needed: 2,
        });
    }
    if max_lag == 0 || max_lag >= series.len() {
        return Err(StatsError::InvalidParameter {
            name: "max_lag",
            reason: format!(
                "must be in 1..{} (series length), got {max_lag}",
                series.len()
            ),
        });
    }
    let autocovariance = if series.len() > 2048 {
        autocovariance_fft(series, max_lag)?
    } else {
        direct_autocovariance(series, max_lag)
    };
    let c0 = autocovariance[0];
    if c0 <= 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "series",
            reason: "series has zero variance".to_string(),
        });
    }
    let autocorrelation = autocovariance.iter().map(|c| c / c0).collect();
    Ok(Autocorrelation {
        autocovariance,
        autocorrelation,
        samples: series.len(),
    })
}

fn direct_autocovariance(series: &[f64], max_lag: usize) -> Vec<f64> {
    let n = series.len();
    let mean = series.iter().sum::<f64>() / n as f64;
    (0..=max_lag)
        .map(|lag| {
            (0..n - lag)
                .map(|i| (series[i] - mean) * (series[i + lag] - mean))
                .sum::<f64>()
                / n as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1_000_003) as f64 / 1_000_003.0 - 0.5
            })
            .collect()
    }

    #[test]
    fn direct_and_fft_paths_agree() {
        let series = pseudo_random(4096, 99);
        let long = autocorrelation(&series, 20).unwrap(); // FFT path (len > 2048)
        let short = autocorrelation(&series[..2000], 20).unwrap(); // direct path
                                                                   // They analyse different lengths, so only check internal consistency of each.
        assert!((long.autocorrelation[0] - 1.0).abs() < 1e-12);
        assert!((short.autocorrelation[0] - 1.0).abs() < 1e-12);

        // Cross-check numerically on the same data via the private helper.
        let direct = direct_autocovariance(&series, 20);
        for (a, b) in long.autocovariance.iter().zip(direct.iter()) {
            assert!((a - b).abs() < 1e-9 * b.abs().max(1e-12), "{a} vs {b}");
        }
    }

    #[test]
    fn white_series_has_small_autocorrelation() {
        let series = pseudo_random(20_000, 12345);
        let ac = autocorrelation(&series, 50).unwrap();
        assert!((ac.autocorrelation[0] - 1.0).abs() < 1e-12);
        for lag in 1..=50 {
            assert!(ac.autocorrelation[lag].abs() < 0.05, "lag {lag}");
        }
    }

    #[test]
    fn moving_average_series_is_positively_correlated_at_lag1() {
        let base = pseudo_random(10_000, 7);
        let smoothed: Vec<f64> = base
            .windows(4)
            .map(|w| w.iter().sum::<f64>() / 4.0)
            .collect();
        let ac = autocorrelation(&smoothed, 10).unwrap();
        let r1 = ac.autocorrelation[1];
        assert!(r1 > 0.5, "lag-1 autocorrelation {r1}");
        // The 4-term moving average correlates lags 1–3 beyond the white-noise band.
        let band = 1.96 / (ac.samples as f64).sqrt();
        assert!(ac.autocorrelation[1..=3].iter().all(|r| *r > band));
    }

    #[test]
    fn alternating_series_is_negatively_correlated() {
        let series: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let r1 = autocorrelation(&series, 1).unwrap().autocorrelation[1];
        assert!((r1 + 1.0).abs() < 0.01, "lag-1 autocorrelation {r1}");
    }

    #[test]
    fn error_paths() {
        assert!(autocorrelation(&[1.0], 1).is_err());
        assert!(autocorrelation(&[1.0, 2.0, 3.0], 0).is_err());
        assert!(autocorrelation(&[1.0, 2.0, 3.0], 3).is_err());
        assert!(autocorrelation(&[5.0, 5.0, 5.0, 5.0], 2).is_err());
        assert!(autocorrelation(&[1.0, f64::NAN, 2.0], 1).is_err());
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn autocorrelation_is_bounded_by_one(
                series in proptest::collection::vec(-100.0f64..100.0, 16..256),
                max_lag in 1usize..8,
            ) {
                prop_assume!(max_lag < series.len());
                let var: f64 = {
                    let m = series.iter().sum::<f64>() / series.len() as f64;
                    series.iter().map(|x| (x - m) * (x - m)).sum::<f64>()
                };
                prop_assume!(var > 1e-9);
                let ac = autocorrelation(&series, max_lag).unwrap();
                for r in &ac.autocorrelation {
                    prop_assert!(*r <= 1.0 + 1e-9 && *r >= -1.0 - 1e-9);
                }
            }
        }
    }
}
