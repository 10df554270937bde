//! Descriptive statistics: the unbiased sample variance of a slice.

use crate::{ensure_finite, ensure_len, Result};

/// Unbiased sample variance of a slice (normalized by `n - 1`).
///
/// # Errors
///
/// Returns an error for a slice with fewer than two samples or non-finite samples.
pub fn sample_variance(series: &[f64]) -> Result<f64> {
    ensure_len(series, 2)?;
    ensure_finite(series)?;
    let m = series.iter().sum::<f64>() / series.len() as f64;
    let ss: f64 = series.iter().map(|x| (x - m) * (x - m)).sum();
    Ok(ss / (series.len() as f64 - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variance_requires_two_samples() {
        assert!(sample_variance(&[1.0]).is_err());
        let v = sample_variance(&[1.0, 4.0, 9.0, 16.0, 25.0, 36.0]).unwrap();
        assert!((v - 178.966_666_666_666_67).abs() < 1e-9, "{v}");
    }

    #[test]
    fn rejects_non_finite() {
        assert!(sample_variance(&[1.0, f64::NAN]).is_err());
        assert!(sample_variance(&[1.0, f64::INFINITY]).is_err());
    }
}
