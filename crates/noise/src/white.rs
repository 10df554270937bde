//! White Gaussian noise generation with a calibrated one-sided PSD level.
//!
//! Thermal drain-current noise is white: its samples are independent and identically
//! distributed.  Sampled at rate `f_s`, a discrete white process with per-sample
//! variance `σ²` has one-sided PSD `S = 2·σ²/f_s`.

use rand::RngCore;
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

use crate::{check_non_negative, check_positive, NoiseSource, Result};

/// A stationary, zero-mean white Gaussian noise source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WhiteNoise {
    std_dev: f64,
    sample_rate: f64,
}

impl WhiteNoise {
    /// Creates a white noise source with per-sample standard deviation `std_dev` at
    /// sample rate `sample_rate` (Hz).
    ///
    /// # Errors
    ///
    /// Returns an error when `std_dev` is negative or `sample_rate` is not positive.
    pub fn new(std_dev: f64, sample_rate: f64) -> Result<Self> {
        Ok(Self {
            std_dev: check_non_negative("std_dev", std_dev)?,
            sample_rate: check_positive("sample_rate", sample_rate)?,
        })
    }
}

impl NoiseSource for WhiteNoise {
    #[inline]
    fn sample(&mut self, rng: &mut dyn RngCore) -> f64 {
        if self.std_dev == 0.0 {
            return 0.0;
        }
        let normal = Normal::new(0.0, self.std_dev).expect("std_dev validated at construction");
        normal.sample(&mut RngCoreAdapter(rng))
    }

    /// Block fill via paired polar-method draws: both variates of each transform are
    /// used, roughly halving the cost per sample (the scalar [`WhiteNoise::sample`]
    /// stays on the stateless single-draw Box–Muller path, so the two paths consume the
    /// RNG differently while generating the same process).
    fn fill_block(&mut self, rng: &mut dyn RngCore, out: &mut [f64]) {
        if self.std_dev == 0.0 {
            out.fill(0.0);
            return;
        }
        fill_standard_normal(rng, out);
        for x in out {
            *x *= self.std_dev;
        }
    }

    fn sample_rate(&self) -> f64 {
        self.sample_rate
    }
}

/// Adapter so `rand_distr` distributions (which need `Rng`) can sample from a
/// `&mut dyn RngCore`.
struct RngCoreAdapter<'a>(&'a mut dyn RngCore);

impl RngCore for RngCoreAdapter<'_> {
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> std::result::Result<(), rand::Error> {
        self.0.try_fill_bytes(dest)
    }
}

/// Draws one standard Gaussian variate from a dynamic RNG.
///
/// Shared helper for the other generators in this crate.
pub(crate) fn standard_normal(rng: &mut dyn RngCore) -> f64 {
    let normal = Normal::new(0.0, 1.0).expect("unit normal is always valid");
    normal.sample(&mut RngCoreAdapter(rng))
}

/// One pair of independent standard Gaussian variates by the Marsaglia polar method:
/// rejection onto the unit disk (acceptance ≈ π/4), then one `ln`/`sqrt` shared by both
/// outputs — no trigonometry, roughly twice as fast as a discarding Box–Muller draw.
#[inline]
fn gauss_pair<R: RngCore + ?Sized>(rng: &mut R) -> (f64, f64) {
    let scale = 1.0 / (1u64 << 52) as f64;
    loop {
        let u = (rng.next_u64() >> 11) as f64 * scale - 1.0;
        let v = (rng.next_u64() >> 11) as f64 * scale - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            let f = (-2.0 * s.ln() / s).sqrt();
            return (u * f, v * f);
        }
    }
}

/// Fills `out` with independent standard Gaussian variates, generated pairwise by the
/// Marsaglia polar method (both variates of every transform are used).
///
/// This is the fast batch primitive behind the block-generation paths; its rejection
/// loop consumes a data-dependent number of `u64` draws, so its RNG stream differs from
/// repeated calls to the stateless single-draw sampler used by [`NoiseSource::sample`].
///
/// Generic over the RNG so monomorphized hot paths inline the raw `u64` draws; dynamic
/// callers can pass `&mut dyn RngCore` unchanged.
pub fn fill_standard_normal<R: RngCore + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let mut chunks = out.chunks_exact_mut(2);
    for pair in &mut chunks {
        let (a, b) = gauss_pair(rng);
        pair[0] = a;
        pair[1] = b;
    }
    if let [last] = chunks.into_remainder() {
        *last = gauss_pair(rng).0;
    }
}

/// A streaming standard-Gaussian sampler that caches the spare variate of each
/// Marsaglia polar-method pair, for hot loops that draw one variate at a time across
/// calls (e.g. the eRO-TRNG phase walk, one Gaussian per bit).
#[derive(Debug, Clone, Copy, Default)]
pub struct GaussStream {
    spare: Option<f64>,
}

impl GaussStream {
    /// Creates an empty stream (no cached variate).
    pub fn new() -> Self {
        Self::default()
    }

    /// Draws the next standard Gaussian variate, consuming the cached sibling first.
    #[inline]
    pub fn next<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> f64 {
        if let Some(spare) = self.spare.take() {
            return spare;
        }
        let (a, b) = gauss_pair(rng);
        self.spare = Some(b);
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sample_statistics_match_configuration() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut src = WhiteNoise::new(2.5, 1.0e6).unwrap();
        let samples = src.generate(&mut rng, 100_000);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / (samples.len() as f64 - 1.0);
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 6.25).abs() / 6.25 < 0.05, "variance {var}");
    }

    #[test]
    fn measured_psd_matches_configured_level() {
        let mut rng = StdRng::seed_from_u64(2);
        let fs: f64 = 1.0e6;
        // One-sided PSD 2σ²/f_s = 8e-6 /Hz.
        let mut src = WhiteNoise::new((8.0e-6 * fs / 2.0).sqrt(), fs).unwrap();
        let samples = src.generate(&mut rng, 1 << 15);
        let est =
            ptrng_stats::spectral::welch_psd(&samples, fs, 2048, ptrng_stats::window::Window::Hann)
                .unwrap();
        let mean_psd = est.psd.iter().sum::<f64>() / est.psd.len() as f64;
        assert!(
            (mean_psd - 8.0e-6).abs() / 8.0e-6 < 0.15,
            "measured {mean_psd}"
        );
    }

    #[test]
    fn zero_std_dev_is_deterministic() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut src = WhiteNoise::new(0.0, 1.0).unwrap();
        for _ in 0..10 {
            assert_eq!(src.sample(&mut rng), 0.0);
        }
    }

    #[test]
    fn fill_and_generate_agree_under_the_same_seed() {
        let mut src = WhiteNoise::new(1.0, 1.0).unwrap();
        let mut rng1 = StdRng::seed_from_u64(9);
        let mut rng2 = StdRng::seed_from_u64(9);
        let via_generate = src.generate(&mut rng1, 32);
        let mut via_fill = vec![0.0; 32];
        src.fill(&mut rng2, &mut via_fill);
        assert_eq!(via_generate, via_fill);
    }

    #[test]
    fn fill_block_matches_the_configured_distribution() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut src = WhiteNoise::new(2.0, 1.0).unwrap();
        let mut out = vec![0.0; 100_001];
        src.fill_block(&mut rng, &mut out);
        let mean = out.iter().sum::<f64>() / out.len() as f64;
        let var = out.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (out.len() - 1) as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() / 4.0 < 0.05, "variance {var}");
    }

    #[test]
    fn fill_block_zero_std_dev_is_constant() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut src = WhiteNoise::new(0.0, 1.0).unwrap();
        let mut out = vec![1.0; 9];
        src.fill_block(&mut rng, &mut out);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn gauss_stream_matches_batch_fill() {
        // The spare-caching scalar stream must consume the RNG exactly like the batch
        // fill (one transform per pair of draws).
        let mut rng1 = StdRng::seed_from_u64(23);
        let mut rng2 = StdRng::seed_from_u64(23);
        let mut batch = vec![0.0; 64];
        fill_standard_normal(&mut rng1, &mut batch);
        let mut stream = GaussStream::new();
        for (i, &expected) in batch.iter().enumerate() {
            let got = stream.next(&mut rng2);
            assert_eq!(got, expected, "sample {i}");
        }
    }

    #[test]
    fn batch_normals_are_standard() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut out = vec![0.0; 200_000];
        fill_standard_normal(&mut rng, &mut out);
        let mean = out.iter().sum::<f64>() / out.len() as f64;
        let var = out.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (out.len() - 1) as f64;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.01, "variance {var}");
        // Both Box–Muller siblings are used: adjacent samples stay uncorrelated.
        let r1 = ptrng_stats::autocorr::autocorrelation(&out, 1)
            .unwrap()
            .autocorrelation[1];
        assert!(r1.abs() < 0.01, "lag-1 correlation {r1}");
    }

    #[test]
    fn constructor_validation() {
        assert!(WhiteNoise::new(-1.0, 1.0).is_err());
        assert!(WhiteNoise::new(1.0, 0.0).is_err());
    }
}
