//! Block synthesis of Gaussian noise with an arbitrary target PSD by spectral shaping.
//!
//! The generator draws independent complex Gaussian Fourier coefficients, scales each bin
//! `k` by `sqrt(S(f_k)·f_s·N/2)` (one-sided PSD convention), enforces Hermitian symmetry
//! and inverse-transforms.  This is exact for any target PSD down to the record's
//! resolution bandwidth `f_s/N` and serves as a cross-check for the streaming generators
//! in [`crate::flicker`] and [`crate::ou`].

use rand::RngCore;

use ptrng_stats::fft::{ifft, next_power_of_two, Complex, FftPlan};

use crate::white::{standard_normal, GaussStream};
use crate::{check_positive, NoiseError, Result};

/// A reusable spectral-shaping synthesizer: preplanned FFT plus persistent scratch.
///
/// [`synthesize_with`] plans a transform and allocates a spectrum buffer on every call,
/// which is fine for one-shot analysis but wasteful on a generation hot path that
/// synthesizes a same-sized block per batch.  This type keeps the twiddle tables and the
/// complex scratch across calls (re-planning only when the rounded-up block size
/// changes) and draws its Gaussian Fourier coefficients with paired Box–Muller
/// transforms, so a steady-state `fill` performs no allocation.
///
/// The output distribution is identical to [`synthesize_with`]; the RNG consumption
/// differs (pairing), so realizations are not comparable draw-for-draw.
#[derive(Debug, Clone, Default)]
pub struct SpectralSynthesizer {
    plan: Option<FftPlan>,
    spectrum: Vec<Complex>,
}

impl SpectralSynthesizer {
    /// Creates an empty synthesizer; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fills `out` with one block of Gaussian noise whose one-sided PSD follows the
    /// closure `psd(f)` at sample rate `sample_rate` (see [`synthesize_with`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`synthesize_with`].
    pub fn fill(
        &mut self,
        rng: &mut dyn RngCore,
        sample_rate: f64,
        mut psd: impl FnMut(f64) -> f64,
        out: &mut [f64],
    ) -> Result<()> {
        if out.len() < 4 {
            return Err(NoiseError::InvalidParameter {
                name: "len",
                reason: format!("at least 4 samples are required, got {}", out.len()),
            });
        }
        let sample_rate = check_positive("sample_rate", sample_rate)?;
        let n = next_power_of_two(out.len());
        if self.spectrum.len() != n {
            self.plan = Some(FftPlan::new(n).expect("power-of-two FFT length"));
            self.spectrum = vec![Complex::zero(); n];
        }
        let spectrum = &mut self.spectrum;
        spectrum[0] = Complex::zero();
        let df = sample_rate / n as f64;
        let mut gauss = GaussStream::new();
        for k in 1..=n / 2 {
            let f = k as f64 * df;
            let level = psd(f);
            if !level.is_finite() || level < 0.0 {
                return Err(NoiseError::InvalidParameter {
                    name: "psd",
                    reason: format!(
                        "target PSD must be non-negative and finite, got {level} at {f} Hz"
                    ),
                });
            }
            let amplitude = (level * sample_rate * n as f64 / 2.0).sqrt();
            let (re, im) = if k == n / 2 {
                // Nyquist bin must be real.
                (gauss.next(rng) * amplitude, 0.0)
            } else {
                (
                    gauss.next(rng) * amplitude / std::f64::consts::SQRT_2,
                    gauss.next(rng) * amplitude / std::f64::consts::SQRT_2,
                )
            };
            spectrum[k] = Complex::new(re, im);
            if k != n / 2 {
                spectrum[n - k] = spectrum[k].conj();
            }
        }
        self.plan
            .as_ref()
            .expect("planned above")
            .inverse(spectrum)
            .expect("buffer sized to the plan");
        for (slot, value) in out.iter_mut().zip(spectrum.iter()) {
            *slot = value.re;
        }
        Ok(())
    }
}

/// Generates one block of `len` samples (rounded up to a power of two) whose one-sided
/// PSD follows the closure `psd(f)` at sample rate `sample_rate`.
///
/// The closure is evaluated at the positive FFT bin frequencies only; the DC component of
/// the output is forced to zero.
///
/// # Errors
///
/// Returns an error when `len < 4`, `sample_rate <= 0`, or the target PSD returns a
/// negative or non-finite value at any evaluated frequency.
pub fn synthesize_with(
    rng: &mut dyn RngCore,
    len: usize,
    sample_rate: f64,
    mut psd: impl FnMut(f64) -> f64,
) -> Result<Vec<f64>> {
    if len < 4 {
        return Err(NoiseError::InvalidParameter {
            name: "len",
            reason: format!("at least 4 samples are required, got {len}"),
        });
    }
    let sample_rate = check_positive("sample_rate", sample_rate)?;
    let n = next_power_of_two(len);
    let df = sample_rate / n as f64;
    let mut spectrum = vec![Complex::zero(); n];
    for k in 1..=n / 2 {
        let f = k as f64 * df;
        let level = psd(f);
        if !level.is_finite() || level < 0.0 {
            return Err(NoiseError::InvalidParameter {
                name: "psd",
                reason: format!(
                    "target PSD must be non-negative and finite, got {level} at {f} Hz"
                ),
            });
        }
        // Var(|X_k|²)/N² · 2/(fs·N) = S(f): draw X_k with std sqrt(S·fs·N/2) per quadrature
        // component /sqrt(2).
        let amplitude = (level * sample_rate * n as f64 / 2.0).sqrt();
        let (re, im) = if k == n / 2 {
            // Nyquist bin must be real.
            (standard_normal(rng) * amplitude, 0.0)
        } else {
            (
                standard_normal(rng) * amplitude / std::f64::consts::SQRT_2,
                standard_normal(rng) * amplitude / std::f64::consts::SQRT_2,
            )
        };
        spectrum[k] = Complex::new(re, im);
        if k != n / 2 {
            spectrum[n - k] = spectrum[k].conj();
        }
    }
    let time = ifft(&spectrum)?;
    Ok(time.into_iter().take(len).map(|c| c.re).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use ptrng_stats::spectral::welch_psd;
    use ptrng_stats::window::Window;

    #[test]
    fn white_target_reproduces_flat_psd_and_variance() {
        let mut rng = StdRng::seed_from_u64(31);
        let fs = 1.0e6;
        let level = 2.0e-6;
        let samples = synthesize_with(&mut rng, 1 << 15, fs, |_| level).unwrap();
        assert_eq!(samples.len(), 1 << 15);
        let est = welch_psd(&samples, fs, 2048, Window::Hann).unwrap();
        let mean_psd = est.psd.iter().sum::<f64>() / est.psd.len() as f64;
        assert!(
            (mean_psd - level).abs() / level < 0.15,
            "mean PSD {mean_psd} vs {level}"
        );
        // Integrated power ≈ level·fs/2.
        let var = ptrng_stats::descriptive::sample_variance(&samples).unwrap();
        let expected = level * fs / 2.0;
        assert!((var - expected).abs() / expected < 0.15, "variance {var}");
    }

    #[test]
    fn one_over_f_squared_target_has_slope_minus_two() {
        let mut rng = StdRng::seed_from_u64(32);
        let fs = 1.0e6;
        let samples = synthesize_with(&mut rng, 1 << 15, fs, |f| 1.0 / (f * f)).unwrap();
        let est = welch_psd(&samples, fs, 4096, Window::Hann).unwrap();
        let (slope, _) = est.log_log_slope(fs / 500.0, fs / 10.0).unwrap();
        assert!((slope + 2.0).abs() < 0.3, "slope {slope}");
    }

    #[test]
    fn phase_noise_mixture_shows_both_slopes() {
        // S(f) = b_th/f² + b_fl/f³ with a crossover in the middle of the record's band:
        // below the crossover the slope approaches -3, above it approaches -2.
        let mut rng = StdRng::seed_from_u64(33);
        let fs = 1.0e6;
        let b_th = 1.0;
        let crossover = 3.0e3;
        let b_fl = b_th * crossover;
        let psd = |f: f64| b_th / (f * f) + b_fl / (f * f * f);
        let samples = synthesize_with(&mut rng, 1 << 16, fs, psd).unwrap();
        let est = welch_psd(&samples, fs, 8192, Window::Hann).unwrap();
        let (low_slope, _) = est.log_log_slope(200.0, 1.0e3).unwrap();
        let (high_slope, _) = est.log_log_slope(3.0e4, 3.0e5).unwrap();
        assert!(low_slope < -2.4, "low-band slope {low_slope}");
        assert!(high_slope > -2.6, "high-band slope {high_slope}");
        assert!(low_slope < high_slope);
    }

    #[test]
    fn synthesizer_reuses_buffers_and_matches_the_target_psd() {
        let mut rng = StdRng::seed_from_u64(34);
        let fs = 1.0e6;
        let level = 3.0e-6;
        let mut synth = SpectralSynthesizer::new();
        let mut out = vec![0.0; 1 << 15];
        // Repeated fills reuse the plan; statistics must match the configured PSD.
        synth.fill(&mut rng, fs, |_| level, &mut out).unwrap();
        synth.fill(&mut rng, fs, |_| level, &mut out).unwrap();
        let est = welch_psd(&out, fs, 2048, Window::Hann).unwrap();
        let mean_psd = est.psd.iter().sum::<f64>() / est.psd.len() as f64;
        assert!(
            (mean_psd - level).abs() / level < 0.15,
            "mean PSD {mean_psd} vs {level}"
        );
        let var = ptrng_stats::descriptive::sample_variance(&out).unwrap();
        let expected = level * fs / 2.0;
        assert!((var - expected).abs() / expected < 0.15, "variance {var}");
    }

    #[test]
    fn synthesizer_slope_matches_one_shot_synthesis() {
        let mut rng = StdRng::seed_from_u64(35);
        let fs = 1.0e6;
        let mut synth = SpectralSynthesizer::new();
        let mut out = vec![0.0; 1 << 15];
        synth
            .fill(&mut rng, fs, |f| 1.0 / (f * f), &mut out)
            .unwrap();
        let est = welch_psd(&out, fs, 4096, Window::Hann).unwrap();
        let (slope, _) = est.log_log_slope(fs / 500.0, fs / 10.0).unwrap();
        assert!((slope + 2.0).abs() < 0.3, "slope {slope}");
    }

    #[test]
    fn synthesizer_rejects_invalid_inputs() {
        let mut rng = StdRng::seed_from_u64(36);
        let mut synth = SpectralSynthesizer::new();
        let mut tiny = vec![0.0; 2];
        assert!(synth.fill(&mut rng, 1.0, |_| 1.0, &mut tiny).is_err());
        let mut out = vec![0.0; 64];
        assert!(synth.fill(&mut rng, 0.0, |_| 1.0, &mut out).is_err());
        assert!(synth.fill(&mut rng, 1.0, |_| -1.0, &mut out).is_err());
        assert!(synth.fill(&mut rng, 1.0, |_| f64::NAN, &mut out).is_err());
    }

    #[test]
    fn deterministic_under_a_fixed_seed() {
        let fs = 1.0e3;
        let mut rng1 = StdRng::seed_from_u64(77);
        let mut rng2 = StdRng::seed_from_u64(77);
        let a = synthesize_with(&mut rng1, 256, fs, |f| 1.0 / f).unwrap();
        let b = synthesize_with(&mut rng2, 256, fs, |f| 1.0 / f).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(synthesize_with(&mut rng, 2, 1.0, |_| 1.0).is_err());
        assert!(synthesize_with(&mut rng, 64, 0.0, |_| 1.0).is_err());
        assert!(synthesize_with(&mut rng, 64, 1.0, |_| -1.0).is_err());
        assert!(synthesize_with(&mut rng, 64, 1.0, |_| f64::NAN).is_err());
    }
}
