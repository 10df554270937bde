//! Power spectral density estimation by Welch's averaged periodogram.
//!
//! These estimators are used to verify that generated noise and phase processes have the
//! intended `1/f^α` spectral shape (e.g. the `Sφ(f) = b_th/f² + b_fl/f³` model of the
//! paper), and to fit spectral slopes.

use serde::{Deserialize, Serialize};

use crate::fft::{fft, next_power_of_two, Complex};
use crate::window::Window;
use crate::{ensure_finite, Result, StatsError};

/// A one-sided power spectral density estimate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PsdEstimate {
    /// Frequencies in hertz (excluding DC), `len = n_bins`.
    pub frequencies: Vec<f64>,
    /// One-sided PSD values in unit²/Hz at the corresponding frequencies.
    pub psd: Vec<f64>,
    /// Sample rate of the analysed series, in hertz.
    pub sample_rate: f64,
    /// Number of averaged segments (1 for a plain periodogram).
    pub segments: usize,
}

impl PsdEstimate {
    /// Returns `(frequency, psd)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.frequencies
            .iter()
            .copied()
            .zip(self.psd.iter().copied())
    }

    /// Fits `log10(PSD) = slope·log10(f) + intercept` over the frequency band
    /// `[f_lo, f_hi]` and returns `(slope, intercept)`.
    ///
    /// The slope identifies the dominant power-law: ≈ -2 for white-FM (thermal) phase
    /// noise, ≈ -3 for flicker-FM phase noise.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer than two bins fall inside the band.
    pub fn log_log_slope(&self, f_lo: f64, f_hi: f64) -> Result<(f64, f64)> {
        let pts: Vec<(f64, f64)> = self
            .iter()
            .filter(|(f, p)| *f >= f_lo && *f <= f_hi && *p > 0.0)
            .map(|(f, p)| (f.log10(), p.log10()))
            .collect();
        if pts.len() < 2 {
            return Err(StatsError::SeriesTooShort {
                len: pts.len(),
                needed: 2,
            });
        }
        let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
        let fit = crate::fit::linear_fit(&xs, &ys)?;
        Ok((fit.slope, fit.intercept))
    }
}

/// Welch's method: averages windowed periodograms of 50 %-overlapping segments of length
/// `segment_len` (rounded up to a power of two).
///
/// # Errors
///
/// Returns an error when the series is shorter than one segment, the segment length is
/// below 4, the sample rate is not positive, or samples are non-finite.
pub fn welch_psd(
    series: &[f64],
    sample_rate: f64,
    segment_len: usize,
    window: Window,
) -> Result<PsdEstimate> {
    validate(series, sample_rate, 4)?;
    if segment_len < 4 {
        return Err(StatsError::InvalidParameter {
            name: "segment_len",
            reason: format!("must be at least 4, got {segment_len}"),
        });
    }
    let seg = next_power_of_two(segment_len);
    if series.len() < seg {
        return Err(StatsError::SeriesTooShort {
            len: series.len(),
            needed: seg,
        });
    }
    let hop = seg / 2;
    let mut acc = vec![0.0; seg / 2 - 1];
    let mut segments = 0usize;
    let mut start = 0usize;
    while start + seg <= series.len() {
        let psd = segment_psd(&series[start..start + seg], sample_rate, window)?;
        for (a, p) in acc.iter_mut().zip(psd.iter()) {
            *a += p;
        }
        segments += 1;
        start += hop;
    }
    for a in &mut acc {
        *a /= segments as f64;
    }
    Ok(PsdEstimate {
        frequencies: bin_frequencies(seg, sample_rate),
        psd: acc,
        sample_rate,
        segments,
    })
}

fn validate(series: &[f64], sample_rate: f64, min_len: usize) -> Result<()> {
    ensure_finite(series)?;
    if series.len() < min_len {
        return Err(StatsError::SeriesTooShort {
            len: series.len(),
            needed: min_len,
        });
    }
    if sample_rate <= 0.0 || !sample_rate.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "sample_rate",
            reason: format!("must be positive and finite, got {sample_rate}"),
        });
    }
    Ok(())
}

/// One-sided PSD of a single (already extracted) segment, bins 1..n/2 (DC and Nyquist
/// excluded).
fn segment_psd(segment: &[f64], sample_rate: f64, window: Window) -> Result<Vec<f64>> {
    let n_fft = next_power_of_two(segment.len());
    let mean = segment.iter().sum::<f64>() / segment.len() as f64;
    let coeffs = window.coefficients(segment.len());
    let mut buf = vec![Complex::zero(); n_fft];
    for (i, (&x, &w)) in segment.iter().zip(coeffs.iter()).enumerate() {
        buf[i] = Complex::from_real((x - mean) * w);
    }
    let spec = fft(&buf)?;
    // Normalization: divide by fs · Σ w², times 2 for the one-sided fold.
    let norm = sample_rate * window.power(segment.len());
    Ok((1..n_fft / 2)
        .map(|k| 2.0 * spec[k].norm_sqr() / norm)
        .collect())
}

fn bin_frequencies(n_fft: usize, sample_rate: f64) -> Vec<f64> {
    (1..n_fft / 2)
        .map(|k| k as f64 * sample_rate / n_fft as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn periodogram_locates_a_tone() {
        let fs = 1000.0;
        let f0 = 125.0;
        let series: Vec<f64> = (0..1024)
            .map(|i| (2.0 * std::f64::consts::PI * f0 * i as f64 / fs).sin())
            .collect();
        // One segment spanning the series: Welch's estimate is the plain periodogram.
        let est = welch_psd(&series, fs, 1024, Window::Rectangular).unwrap();
        assert_eq!(est.segments, 1);
        let (peak_f, _) = est
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert!((peak_f - f0).abs() < fs / 1024.0 + 1e-9, "peak at {peak_f}");
    }

    #[test]
    fn white_noise_psd_level_is_flat_and_correct() {
        // White Gaussian noise with variance σ² sampled at fs has one-sided PSD 2σ²/fs.
        let mut rng = StdRng::seed_from_u64(7);
        let fs = 1e6;
        let sigma = 3.0;
        let series: Vec<f64> = (0..1 << 15)
            .map(|_| {
                // Box–Muller from two uniforms to avoid a rand_distr dependency here.
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                sigma * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect();
        let est = welch_psd(&series, fs, 2048, Window::Hann).unwrap();
        let expected = 2.0 * sigma * sigma / fs;
        let mean_psd = est.psd.iter().sum::<f64>() / est.psd.len() as f64;
        assert!(
            (mean_psd - expected).abs() / expected < 0.15,
            "mean PSD {mean_psd}, expected {expected}"
        );
        // Flatness: log-log slope near zero.
        let (slope, _) = est.log_log_slope(1e3, 4e5).unwrap();
        assert!(slope.abs() < 0.2, "slope {slope}");
    }

    #[test]
    fn integrated_power_approximates_variance() {
        let mut rng = StdRng::seed_from_u64(11);
        let fs = 1.0;
        let series: Vec<f64> = (0..1 << 14).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let var = crate::descriptive::sample_variance(&series).unwrap();
        let est = welch_psd(&series, fs, 1024, Window::Hann).unwrap();
        // Rectangle-rule integral of the one-sided PSD over frequency.
        let df = est.frequencies[1] - est.frequencies[0];
        let power = est.psd.iter().sum::<f64>() * df;
        assert!(
            (power - var).abs() / var < 0.2,
            "power {power} vs variance {var}"
        );
    }

    #[test]
    fn welch_counts_overlapping_segments() {
        let series = vec![0.5; 4096];
        let est = welch_psd(&series, 100.0, 1024, Window::Hann).unwrap();
        // Segments start at 0, 512, ..., 3072 → 7 segments.
        assert_eq!(est.segments, 7);
        assert_eq!(est.frequencies.len(), 511);
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(welch_psd(&[1.0, 2.0], 1.0, 4, Window::Hann).is_err());
        assert!(welch_psd(&[1.0; 16], 0.0, 4, Window::Hann).is_err());
        assert!(welch_psd(&[f64::NAN; 16], 1.0, 4, Window::Hann).is_err());
        assert!(welch_psd(&[1.0; 16], 1.0, 2, Window::Hann).is_err());
        assert!(welch_psd(&[1.0; 16], 1.0, 64, Window::Hann).is_err());
    }

    #[test]
    fn log_log_slope_recovers_one_over_f_squared() {
        // Synthesize a PSD estimate directly and check the fit helper.
        let frequencies: Vec<f64> = (1..1000).map(|k| k as f64).collect();
        let psd: Vec<f64> = frequencies.iter().map(|f| 4.0 / (f * f)).collect();
        let est = PsdEstimate {
            frequencies,
            psd,
            sample_rate: 2000.0,
            segments: 1,
        };
        let (slope, intercept) = est.log_log_slope(1.0, 999.0).unwrap();
        assert!((slope + 2.0).abs() < 1e-9);
        assert!((intercept - 4.0f64.log10()).abs() < 1e-9);
    }
}
