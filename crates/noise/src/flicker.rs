//! Streaming `1/f^α` (flicker-family) noise via the Kasdin–Walter fractional-difference
//! filter.
//!
//! White Gaussian noise driven through the filter `H(z) = (1 - z⁻¹)^{-α/2}` acquires a
//! one-sided PSD
//!
//! ```text
//! S(f) = σ_w² · (2/f_s) · [2·sin(π·f/f_s)]^{-α}  ≈  σ_w² · (2/f_s) · (f_s / 2πf)^α
//! ```
//!
//! for `f ≪ f_s`.  The filter's impulse response is computed by the stable recursion
//! `h_0 = 1`, `h_k = h_{k-1}·(k - 1 + α/2)/k` and truncated to a configurable memory
//! length; the truncation sets the lowest frequency at which the `1/f^α` law holds.
//!
//! # Block generation: FFT overlap-save
//!
//! Two equivalent evaluation paths share one filter state (the ring buffer of the last
//! `memory` innovations):
//!
//! * the **scalar reference path** ([`FlickerNoise::sample`] / [`FlickerNoise::fill_scalar`])
//!   computes each output as a direct `O(memory)` FIR dot product, and
//! * the **block path** ([`NoiseSource::fill_block`], also behind [`NoiseSource::fill`]
//!   and [`NoiseSource::generate`]) evaluates the same convolution by FFT overlap-save:
//!   blocks of `B = N - memory + 1` fresh innovations are extended with the last
//!   `memory - 1` innovations of the state, transformed with a preplanned size-`N` FFT
//!   (`N = 2^⌈log₂ 2·memory⌉`), multiplied by the precomputed tap spectrum and
//!   inverse-transformed — `O(log N)` per sample instead of `O(memory)`.
//!
//! Both paths consume the **identical innovation stream** (one single-draw Gaussian per
//! sample, in order), so they agree to floating-point accuracy (`~1e-13` relative) and
//! are interchangeable mid-stream; the scalar path is retained as the reference for
//! equivalence tests and is also used automatically for requests too short to amortize
//! a transform.

use rand::RngCore;
use serde::{obj_field, DeError, Deserialize, Serialize, Value};

use ptrng_stats::fft::{next_power_of_two, Complex, FftPlan};

use crate::white::standard_normal;
use crate::{check_positive, NoiseError, NoiseSource, Result};

/// Default number of FIR taps kept by the fractional-difference filter.
pub const DEFAULT_MEMORY: usize = 8192;

/// A streaming generator of `1/f^α` noise.
#[derive(Debug, Clone)]
pub struct FlickerNoise {
    alpha: f64,
    driving_std_dev: f64,
    sample_rate: f64,
    taps: Vec<f64>,
    /// Ring buffer of the last `taps.len()` innovations; `history[(head + k) % len]` is
    /// the innovation at lag `k` (0 = most recent).  Slots never written are zero, which
    /// makes the convolution over the full ring exactly equal to the short-history sum.
    history: Vec<f64>,
    head: usize,
    /// Lazily-built overlap-save engine (preplanned FFT, tap spectrum, scratch); not
    /// serialized, rebuilt on demand.
    engine: Option<OverlapSave>,
}

/// Preplanned overlap-save convolution state.
#[derive(Debug, Clone)]
struct OverlapSave {
    plan: FftPlan,
    /// FFT of the taps, zero-padded to the plan length.
    taps_fft: Vec<Complex>,
    /// Scratch block, reused across calls.
    buf: Vec<Complex>,
    /// Fresh samples produced per transform: `buf.len() - taps + 1`.
    block: usize,
}

impl OverlapSave {
    fn build(taps: &[f64]) -> Self {
        let l = taps.len();
        let n = next_power_of_two(2 * l);
        let plan = FftPlan::new(n).expect("power-of-two FFT length");
        let mut taps_fft = vec![Complex::zero(); n];
        for (slot, &h) in taps_fft.iter_mut().zip(taps.iter()) {
            *slot = Complex::from_real(h);
        }
        plan.forward(&mut taps_fft)
            .expect("buffer sized to the plan");
        Self {
            plan,
            taps_fft,
            buf: vec![Complex::zero(); n],
            block: n - l + 1,
        }
    }
}

impl FlickerNoise {
    /// Creates a `1/f^α` source driven by white noise of standard deviation
    /// `driving_std_dev`, with `memory` FIR taps, at sample rate `sample_rate`.
    ///
    /// # Errors
    ///
    /// Returns an error when `alpha` is outside `(0, 2]`, `driving_std_dev` or
    /// `sample_rate` is not positive, or `memory < 2`.
    pub fn new(alpha: f64, driving_std_dev: f64, sample_rate: f64, memory: usize) -> Result<Self> {
        if alpha <= 0.0 || alpha > 2.0 || !alpha.is_finite() {
            return Err(NoiseError::InvalidParameter {
                name: "alpha",
                reason: format!("spectral exponent must be in (0, 2], got {alpha}"),
            });
        }
        if memory < 2 {
            return Err(NoiseError::InvalidParameter {
                name: "memory",
                reason: format!("at least 2 taps are required, got {memory}"),
            });
        }
        let driving_std_dev = check_positive("driving_std_dev", driving_std_dev)?;
        let sample_rate = check_positive("sample_rate", sample_rate)?;
        let mut taps = Vec::with_capacity(memory);
        taps.push(1.0);
        for k in 1..memory {
            let prev = taps[k - 1];
            taps.push(prev * (k as f64 - 1.0 + alpha / 2.0) / k as f64);
        }
        Ok(Self {
            alpha,
            driving_std_dev,
            sample_rate,
            taps,
            history: vec![0.0; memory],
            head: 0,
            engine: None,
        })
    }

    /// Creates a pure `1/f` source whose one-sided PSD is `h1/f` in the band where the
    /// approximation holds.
    ///
    /// The driving variance follows from `S(f) ≈ σ_w²/(π·f)` for `α = 1`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlickerNoise::new`].
    pub fn from_one_over_f_level(h1: f64, sample_rate: f64, memory: usize) -> Result<Self> {
        let h1 = check_positive("h1", h1)?;
        let sigma_w = (std::f64::consts::PI * h1).sqrt();
        Self::new(1.0, sigma_w, sample_rate, memory)
    }

    /// Fills `out` through the scalar `O(memory)`-per-sample FIR path.
    ///
    /// This is the reference implementation the FFT block path is tested against; both
    /// consume the same innovation stream and share the same filter state.
    pub fn fill_scalar(&mut self, rng: &mut dyn RngCore, out: &mut [f64]) {
        for slot in out {
            *slot = self.sample(rng);
        }
    }

    #[inline]
    fn push_innovation(&mut self, innovation: f64) {
        self.head = if self.head == 0 {
            self.history.len() - 1
        } else {
            self.head - 1
        };
        self.history[self.head] = innovation;
    }

    /// FIR dot product with the most recent innovation at lag 0.
    #[inline]
    fn convolve_latest(&self) -> f64 {
        let split = self.history.len() - self.head;
        let mut acc = 0.0;
        for (h, w) in self.taps[..split].iter().zip(&self.history[self.head..]) {
            acc += h * w;
        }
        for (h, w) in self.taps[split..].iter().zip(&self.history[..self.head]) {
            acc += h * w;
        }
        acc
    }

    /// Whether a transform pays off for `len` fresh samples: compares the FIR cost
    /// `len·memory` against the (empirically scaled) cost of one FFT round trip.
    fn fft_pays_off(&self, len: usize) -> bool {
        let l = self.taps.len();
        let n = next_power_of_two(2 * l);
        let log2_n = n.trailing_zeros() as usize;
        len * l > 8 * n * log2_n
    }

    fn fill_block_fft(&mut self, rng: &mut dyn RngCore, out: &mut [f64]) {
        if self.engine.is_none() {
            self.engine = Some(OverlapSave::build(&self.taps));
        }
        let l = self.taps.len();
        let block = self.engine.as_ref().expect("built above").block;
        let mut start = 0;
        while start < out.len() {
            let chunk_len = block.min(out.len() - start);
            let chunk = &mut out[start..start + chunk_len];
            // The chunk doubles as innovation storage until the engine overwrites it
            // with outputs.
            for slot in chunk.iter_mut() {
                *slot = standard_normal(rng) * self.driving_std_dev;
            }
            let engine = self.engine.as_mut().expect("built above");
            let n = engine.buf.len();
            // Overlap-save input: the last `memory - 1` state innovations (oldest
            // first) followed by the fresh chunk, zero-padded to the plan length.
            for (j, slot) in engine.buf[..l - 1].iter_mut().enumerate() {
                let lag = l - 2 - j;
                *slot = Complex::from_real(self.history[(self.head + lag) % l]);
            }
            for (slot, &x) in engine.buf[l - 1..].iter_mut().zip(chunk.iter()) {
                *slot = Complex::from_real(x);
            }
            for slot in engine.buf[l - 1 + chunk_len..n].iter_mut() {
                *slot = Complex::zero();
            }
            engine
                .plan
                .forward(&mut engine.buf)
                .expect("buffer sized to the plan");
            for (x, h) in engine.buf.iter_mut().zip(engine.taps_fft.iter()) {
                *x = *x * *h;
            }
            engine
                .plan
                .inverse(&mut engine.buf)
                .expect("buffer sized to the plan");
            // Commit the fresh innovations to the ring, then overwrite the chunk with
            // the valid convolution outputs (positions memory-1 .. memory-1+chunk).
            for i in 0..chunk_len {
                let innovation = out[start + i];
                self.push_innovation(innovation);
            }
            let engine = self.engine.as_ref().expect("built above");
            for (slot, val) in out[start..start + chunk_len]
                .iter_mut()
                .zip(engine.buf[l - 1..].iter())
            {
                *slot = val.re;
            }
            start += chunk_len;
        }
    }
}

impl NoiseSource for FlickerNoise {
    #[inline]
    fn sample(&mut self, rng: &mut dyn RngCore) -> f64 {
        let innovation = standard_normal(rng) * self.driving_std_dev;
        self.push_innovation(innovation);
        self.convolve_latest()
    }

    /// Block generation is the default evaluation path (`fill` forwards to
    /// [`NoiseSource::fill_block`]); use [`FlickerNoise::fill_scalar`] for the scalar
    /// reference.
    fn fill(&mut self, rng: &mut dyn RngCore, out: &mut [f64]) {
        self.fill_block(rng, out);
    }

    fn fill_block(&mut self, rng: &mut dyn RngCore, out: &mut [f64]) {
        if self.fft_pays_off(out.len()) {
            self.fill_block_fft(rng, out);
        } else {
            self.fill_scalar(rng, out);
        }
    }

    fn sample_rate(&self) -> f64 {
        self.sample_rate
    }
}

impl Serialize for FlickerNoise {
    fn to_value(&self) -> Value {
        let l = self.history.len();
        // Newest-first, matching the serialized order of the original VecDeque state.
        let history: Vec<f64> = (0..l).map(|k| self.history[(self.head + k) % l]).collect();
        Value::Object(vec![
            ("alpha".to_string(), self.alpha.to_value()),
            (
                "driving_std_dev".to_string(),
                self.driving_std_dev.to_value(),
            ),
            ("sample_rate".to_string(), self.sample_rate.to_value()),
            ("taps".to_string(), self.taps.to_value()),
            ("history".to_string(), history.to_value()),
        ])
    }
}

impl Deserialize for FlickerNoise {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::custom("expected object for FlickerNoise"))?;
        let alpha: f64 = obj_field(obj, "FlickerNoise", "alpha")?;
        let driving_std_dev: f64 = obj_field(obj, "FlickerNoise", "driving_std_dev")?;
        let sample_rate: f64 = obj_field(obj, "FlickerNoise", "sample_rate")?;
        let taps: Vec<f64> = obj_field(obj, "FlickerNoise", "taps")?;
        let history: Vec<f64> = obj_field(obj, "FlickerNoise", "history")?;
        if taps.len() < 2 || taps.iter().any(|h| !h.is_finite()) {
            return Err(DeError::custom(format!(
                "taps must be at least 2 finite coefficients, got {} entries",
                taps.len()
            )));
        }
        let mut src = FlickerNoise::new(alpha, driving_std_dev, sample_rate, taps.len())
            .map_err(|e| DeError::custom(format!("invalid FlickerNoise state: {e}")))?;
        // Honor the payload's coefficients verbatim (like the previous derived
        // Deserialize): they normally match the Kasdin recursion, but hand-tuned
        // filters must round-trip unchanged.
        src.taps = taps;
        if history.len() > src.taps.len() {
            return Err(DeError::custom(format!(
                "history of length {} exceeds the {} filter taps",
                history.len(),
                src.taps.len()
            )));
        }
        // Replay newest-first history into the ring: push oldest first.
        for &innovation in history.iter().rev() {
            src.push_innovation(innovation);
        }
        Ok(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn taps_follow_the_kasdin_recursion() {
        let src = FlickerNoise::new(1.0, 1.0, 1.0, 6).unwrap();
        let taps = &src.taps;
        // α = 1: h = [1, 1/2, 3/8, 5/16, 35/128, 63/256]
        let expected = [1.0, 0.5, 0.375, 0.3125, 0.2734375, 0.24609375];
        for (t, e) in taps.iter().zip(expected.iter()) {
            assert!((t - e).abs() < 1e-12, "{t} vs {e}");
        }
    }

    #[test]
    fn alpha_two_gives_a_random_walk() {
        // α = 2 makes every tap equal to 1: the output is the running sum of the input.
        let src = FlickerNoise::new(2.0, 1.0, 1.0, 16).unwrap();
        assert!(src.taps.iter().all(|&h| (h - 1.0).abs() < 1e-12));
    }

    #[test]
    fn one_over_f_spectral_slope_is_minus_one() {
        let mut rng = StdRng::seed_from_u64(5);
        let fs = 1.0e6;
        let mut src = FlickerNoise::from_one_over_f_level(1e-9, fs, 4096).unwrap();
        let samples = src.generate(&mut rng, 1 << 16);
        let est =
            ptrng_stats::spectral::welch_psd(&samples, fs, 4096, ptrng_stats::window::Window::Hann)
                .unwrap();
        // Fit the slope over a band well inside [fs/memory, fs/2].
        let (slope, _) = est.log_log_slope(fs / 1000.0, fs / 10.0).unwrap();
        assert!((slope + 1.0).abs() < 0.25, "slope {slope}");
    }

    #[test]
    fn one_over_f_level_is_calibrated() {
        let mut rng = StdRng::seed_from_u64(6);
        let fs = 1.0e6;
        let h1 = 4.0e-8;
        let mut src = FlickerNoise::from_one_over_f_level(h1, fs, 4096).unwrap();
        let samples = src.generate(&mut rng, 1 << 16);
        let est =
            ptrng_stats::spectral::welch_psd(&samples, fs, 4096, ptrng_stats::window::Window::Hann)
                .unwrap();
        // Compare the measured PSD against h1/f at a mid-band frequency by averaging the
        // ratio over a decade.
        let mut ratio_acc = 0.0;
        let mut count = 0;
        for (f, p) in est.iter() {
            if f > fs / 500.0 && f < fs / 50.0 {
                ratio_acc += p / (h1 / f);
                count += 1;
            }
        }
        let ratio = ratio_acc / count as f64;
        assert!((ratio - 1.0).abs() < 0.35, "ratio {ratio}");
    }

    #[test]
    fn generated_noise_is_serially_correlated() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut src = FlickerNoise::new(1.0, 1.0, 1.0, 1024).unwrap();
        let samples = src.generate(&mut rng, 20_000);
        let r1 = ptrng_stats::autocorr::autocorrelation(&samples, 1)
            .unwrap()
            .autocorrelation[1];
        assert!(
            r1 > 0.3,
            "flicker noise must be positively correlated, r1 = {r1}"
        );
        let lb = ptrng_stats::hypothesis::ljung_box(&samples, 20, 0.01).unwrap();
        assert!(lb.rejected());
    }

    #[test]
    fn fft_block_path_matches_the_scalar_fir_path() {
        // Identical innovation streams: both paths draw one single Gaussian per sample
        // in order, so the only difference is FFT round-off.
        for memory in [33usize, 256, 2048] {
            let mut scalar = FlickerNoise::new(1.0, 1.0, 1.0e6, memory).unwrap();
            let mut fft = scalar.clone();
            let mut rng_a = StdRng::seed_from_u64(42);
            let mut rng_b = StdRng::seed_from_u64(42);
            let len = 3 * memory + 17;
            let mut want = vec![0.0; len];
            scalar.fill_scalar(&mut rng_a, &mut want);
            let mut got = vec![0.0; len];
            fft.fill_block_fft(&mut rng_b, &mut got);
            for (i, (a, b)) in want.iter().zip(got.iter()).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "memory {memory}, sample {i}: scalar {a} vs fft {b}"
                );
            }
        }
    }

    #[test]
    fn block_and_scalar_paths_share_one_filter_state() {
        // Mixing the two evaluation paths mid-stream must continue the same process.
        let mut mixed = FlickerNoise::new(1.2, 0.7, 1.0, 128).unwrap();
        let mut scalar = mixed.clone();
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let mut head = vec![0.0; 300];
        mixed.fill_block_fft(&mut rng_a, &mut head);
        let tail_via_scalar: Vec<f64> = (0..64).map(|_| mixed.sample(&mut rng_a)).collect();
        let mut reference = vec![0.0; 300 + 64];
        scalar.fill_scalar(&mut rng_b, &mut reference);
        for (i, (a, b)) in head
            .iter()
            .chain(tail_via_scalar.iter())
            .zip(reference.iter())
            .enumerate()
        {
            assert!((a - b).abs() < 1e-12, "sample {i}: {a} vs {b}");
        }
    }

    #[test]
    fn short_requests_fall_back_to_the_scalar_path() {
        let src = FlickerNoise::new(1.0, 1.0, 1.0, 4096).unwrap();
        assert!(!src.fft_pays_off(16));
        assert!(src.fft_pays_off(1 << 16));
    }

    #[test]
    fn serde_round_trip_preserves_the_stream() {
        let mut src = FlickerNoise::new(1.0, 2.0, 1.0e3, 64).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let mut warmup = vec![0.0; 100];
        src.fill(&mut rng, &mut warmup);
        let mut restored = FlickerNoise::from_value(&src.to_value()).unwrap();
        let mut rng_a = StdRng::seed_from_u64(14);
        let mut rng_b = StdRng::seed_from_u64(14);
        let a = src.generate(&mut rng_a, 32);
        let b = restored.generate(&mut rng_b, 32);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-12, "{x} vs {y}");
        }
        assert!(FlickerNoise::from_value(&Value::Null).is_err());
    }

    #[test]
    fn serde_honors_hand_tuned_taps() {
        // Coefficients that do not follow the Kasdin recursion must round-trip
        // verbatim rather than being recomputed from alpha.
        let mut src = FlickerNoise::new(1.0, 1.0, 1.0, 8).unwrap();
        src.taps[3] = 0.123_456;
        let restored = FlickerNoise::from_value(&src.to_value()).unwrap();
        assert_eq!(restored.taps, src.taps);
    }

    #[test]
    fn constructor_validation() {
        assert!(FlickerNoise::new(0.0, 1.0, 1.0, 16).is_err());
        assert!(FlickerNoise::new(2.5, 1.0, 1.0, 16).is_err());
        assert!(FlickerNoise::new(1.0, 0.0, 1.0, 16).is_err());
        assert!(FlickerNoise::new(1.0, 1.0, 0.0, 16).is_err());
        assert!(FlickerNoise::new(1.0, 1.0, 1.0, 1).is_err());
        assert!(FlickerNoise::from_one_over_f_level(0.0, 1.0, 16).is_err());
    }
}
