//! Time-domain jitter generation for a ring oscillator described by a
//! [`PhaseNoiseModel`].
//!
//! The generator decomposes the period jitter into:
//!
//! * a **thermal** component — i.i.d. Gaussian with variance `b_th/f0³` (white FM noise),
//!   the component for which Bienaymé's identity holds exactly, and
//! * a **flicker** component — flicker-FM noise: the fractional frequency `y_k` of period
//!   `k` is a `1/f` process with one-sided PSD `S_y(f) = 2·b_fl/(f·f0²)`, contributing
//!   `y_k/f0` to the period.
//!
//! Two flicker synthesis back-ends are provided: exact block synthesis by spectral
//! shaping (default, `O(len·log len)`) and the streaming Kasdin fractional-difference
//! filter (`O(len·memory)`), which is what an embedded implementation would use.  The
//! two are compared in the `ablation_flicker_generators` benchmark.

use rand::RngCore;
use serde::{Deserialize, Serialize};

use ptrng_noise::flicker::FlickerNoise;
use ptrng_noise::synthesis::{synthesize_with, SpectralSynthesizer};
use ptrng_noise::white::{fill_standard_normal, WhiteNoise};
use ptrng_noise::NoiseSource;

use crate::edges::EdgeSeries;
use crate::phase::PhaseNoiseModel;
use crate::{OscError, Result};

/// How the flicker-FM component is synthesized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FlickerSynthesis {
    /// Exact block synthesis by spectral shaping (FFT); the default.
    #[default]
    Spectral,
    /// Streaming Kasdin–Walter fractional-difference filter with the given FIR memory.
    Kasdin {
        /// Number of FIR taps retained by the filter.
        memory: usize,
    },
    /// Ignore the flicker component entirely (thermal-only ablation).
    Disabled,
}

/// Generator of jittery period/edge series for one oscillator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JitterGenerator {
    model: PhaseNoiseModel,
    synthesis: FlickerSynthesis,
}

impl JitterGenerator {
    /// Creates a generator with the default (spectral) flicker synthesis.
    pub fn new(model: PhaseNoiseModel) -> Self {
        Self {
            model,
            synthesis: FlickerSynthesis::Spectral,
        }
    }

    /// Creates a generator with an explicit flicker synthesis back-end.
    pub fn with_synthesis(model: PhaseNoiseModel, synthesis: FlickerSynthesis) -> Self {
        Self { model, synthesis }
    }

    /// The phase-noise model driving the generator.
    pub fn model(&self) -> &PhaseNoiseModel {
        &self.model
    }

    /// The flicker synthesis back-end in use.
    pub fn synthesis(&self) -> FlickerSynthesis {
        self.synthesis
    }

    /// Standard deviation of the thermal period-jitter component, `sqrt(b_th/f0³)`.
    pub fn thermal_sigma(&self) -> f64 {
        self.model.thermal_period_jitter()
    }

    /// Generates `len` consecutive realizations of the period jitter `J(t_i)` in seconds.
    ///
    /// # Errors
    ///
    /// Returns an error when `len < 4` or an underlying noise generator rejects the
    /// derived parameters.
    pub fn generate_period_jitter(&self, rng: &mut dyn RngCore, len: usize) -> Result<Vec<f64>> {
        if len < 4 {
            return Err(OscError::InvalidParameter {
                name: "len",
                reason: format!("at least 4 periods are required, got {len}"),
            });
        }
        let f0 = self.model.frequency();
        let sigma_th = self.thermal_sigma();
        let mut jitter = if sigma_th > 0.0 {
            let mut white = WhiteNoise::new(sigma_th, f0)?;
            white.generate(rng, len)
        } else {
            vec![0.0; len]
        };

        let b_fl = self.model.b_flicker();
        if b_fl > 0.0 && self.synthesis != FlickerSynthesis::Disabled {
            // One-sided fractional-frequency PSD of flicker FM: S_y(f) = 2·b_fl/(f·f0²).
            let h1 = 2.0 * b_fl / (f0 * f0);
            let y = match self.synthesis {
                FlickerSynthesis::Spectral => synthesize_with(rng, len, f0, |f| h1 / f)?,
                FlickerSynthesis::Kasdin { memory } => {
                    let mut src = FlickerNoise::from_one_over_f_level(h1, f0, memory)?;
                    src.generate(rng, len)
                }
                FlickerSynthesis::Disabled => unreachable!("guarded above"),
            };
            for (j, yk) in jitter.iter_mut().zip(y.iter()) {
                *j += yk / f0;
            }
        }
        Ok(jitter)
    }

    /// Generates `len` consecutive oscillator periods `T(t_i) = 1/f0 + J(t_i)` in seconds.
    ///
    /// # Errors
    ///
    /// Same as [`JitterGenerator::generate_period_jitter`].
    pub fn generate_periods(&self, rng: &mut dyn RngCore, len: usize) -> Result<Vec<f64>> {
        let t0 = self.model.period();
        let mut jitter = self.generate_period_jitter(rng, len)?;
        for j in &mut jitter {
            *j += t0;
        }
        Ok(jitter)
    }

    /// Generates the rising-edge timestamps of `len` consecutive periods, starting at
    /// `start_time`.
    ///
    /// # Errors
    ///
    /// Same as [`JitterGenerator::generate_period_jitter`], plus an error if a generated
    /// period is not positive (which would require jitter comparable to the period
    /// itself — a sign of a mis-parameterized model).
    pub fn generate_edges(
        &self,
        rng: &mut dyn RngCore,
        start_time: f64,
        len: usize,
    ) -> Result<EdgeSeries> {
        let periods = self.generate_periods(rng, len)?;
        EdgeSeries::from_periods(start_time, &periods)
    }
}

/// Persistent block sampler for one oscillator's jitter/period/edge series.
///
/// [`JitterGenerator`]'s `generate_*` methods are one-shot: every call allocates fresh
/// vectors and (for the spectral back-end) re-plans an FFT.  `JitterSampler` is the
/// hot-path counterpart: it owns the synthesis state (preplanned [`SpectralSynthesizer`]
/// scratch, or a persistent Kasdin filter) and writes straight into caller buffers, so a
/// steady stream of same-sized blocks performs no allocation.
///
/// Differences from the one-shot API, by design:
///
/// * Gaussian draws use the paired Box–Muller batch primitive, so realizations differ
///   from `generate_*` under the same seed (the process distribution is identical).
/// * With the Kasdin back-end the filter history persists across calls: consecutive
///   blocks are one continuous `1/f` process rather than independent restarts.
#[derive(Debug, Clone)]
pub struct JitterSampler {
    generator: JitterGenerator,
    synth: SpectralSynthesizer,
    kasdin: Option<FlickerNoise>,
    flicker_buf: Vec<f64>,
}

impl JitterSampler {
    /// Creates a sampler for the generator's model and synthesis back-end.
    ///
    /// # Errors
    ///
    /// Returns an error when the Kasdin back-end rejects the derived filter parameters.
    pub fn new(generator: JitterGenerator) -> Result<Self> {
        let model = generator.model();
        let b_fl = model.b_flicker();
        let kasdin = match generator.synthesis() {
            FlickerSynthesis::Kasdin { memory } if b_fl > 0.0 => {
                let f0 = model.frequency();
                let h1 = 2.0 * b_fl / (f0 * f0);
                Some(FlickerNoise::from_one_over_f_level(h1, f0, memory)?)
            }
            _ => None,
        };
        Ok(Self {
            generator,
            synth: SpectralSynthesizer::new(),
            kasdin,
            flicker_buf: Vec::new(),
        })
    }

    /// Fills `out` with consecutive realizations of the period jitter `J(t_i)` in
    /// seconds (block analogue of [`JitterGenerator::generate_period_jitter`]).
    ///
    /// Generic over the RNG so monomorphized callers inline the Gaussian draw path;
    /// `&mut dyn RngCore` works too.
    ///
    /// # Errors
    ///
    /// Returns an error when `out.len() < 4` or an underlying noise generator rejects
    /// the derived parameters.
    pub fn fill_period_jitter<R: RngCore + ?Sized>(
        &mut self,
        mut rng: &mut R,
        out: &mut [f64],
    ) -> Result<()> {
        if out.len() < 4 {
            return Err(OscError::InvalidParameter {
                name: "len",
                reason: format!("at least 4 periods are required, got {}", out.len()),
            });
        }
        let model = self.generator.model();
        let f0 = model.frequency();
        let sigma_th = model.thermal_period_jitter();
        if sigma_th > 0.0 {
            fill_standard_normal(rng, out);
            for x in out.iter_mut() {
                *x *= sigma_th;
            }
        } else {
            out.fill(0.0);
        }

        let b_fl = model.b_flicker();
        if b_fl > 0.0 && self.generator.synthesis() != FlickerSynthesis::Disabled {
            // One-sided fractional-frequency PSD of flicker FM: S_y(f) = 2·b_fl/(f·f0²).
            let h1 = 2.0 * b_fl / (f0 * f0);
            self.flicker_buf.resize(out.len(), 0.0);
            match &mut self.kasdin {
                Some(filter) => filter.fill_block(&mut rng, &mut self.flicker_buf),
                None => self
                    .synth
                    .fill(&mut rng, f0, |f| h1 / f, &mut self.flicker_buf)?,
            }
            for (j, yk) in out.iter_mut().zip(self.flicker_buf.iter()) {
                *j += yk / f0;
            }
        }
        Ok(())
    }

    /// Fills `out` with consecutive oscillator periods `T(t_i) = 1/f0 + J(t_i)`.
    ///
    /// # Errors
    ///
    /// Same as [`JitterSampler::fill_period_jitter`].
    pub fn fill_periods<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        out: &mut [f64],
    ) -> Result<()> {
        self.fill_period_jitter(rng, out)?;
        let t0 = self.generator.model().period();
        for x in out.iter_mut() {
            *x += t0;
        }
        Ok(())
    }

    /// Fills `out` with the rising-edge timestamps of `out.len() - 1` consecutive
    /// periods, starting at `start_time` (`out[0] == start_time`).
    ///
    /// # Errors
    ///
    /// Same as [`JitterSampler::fill_period_jitter`] (with `out.len() - 1` periods),
    /// plus an error when a generated period is not strictly positive.
    pub fn fill_edge_times<R: RngCore + ?Sized>(
        &mut self,
        rng: &mut R,
        start_time: f64,
        out: &mut [f64],
    ) -> Result<()> {
        if out.len() < 2 {
            return Err(OscError::InvalidParameter {
                name: "len",
                reason: format!("at least one period is required, got {}", out.len()),
            });
        }
        self.fill_periods(rng, &mut out[1..])?;
        out[0] = start_time;
        let mut t = start_time;
        for (idx, slot) in out[1..].iter_mut().enumerate() {
            let period = *slot;
            if period <= 0.0 || !period.is_finite() {
                return Err(OscError::InvalidParameter {
                    name: "periods",
                    reason: format!("period {idx} is not strictly positive ({period})"),
                });
            }
            t += period;
            *slot = t;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::AccumulationModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use ptrng_stats::sn::{sigma2_n, sigma2_n_independent};

    fn assert_rel(a: f64, b: f64, rel: f64) {
        let scale = a.abs().max(b.abs()).max(1e-300);
        assert!((a - b).abs() / scale <= rel, "{a} vs {b} (rel {rel})");
    }

    #[test]
    fn thermal_only_jitter_satisfies_bienayme() {
        let model = PhaseNoiseModel::thermal_only(276.04, 103.0e6).unwrap();
        let generator = JitterGenerator::new(model);
        let mut rng = StdRng::seed_from_u64(101);
        let jitter = generator.generate_period_jitter(&mut rng, 200_000).unwrap();
        let sigma2 = generator.thermal_sigma().powi(2);
        for n in [1usize, 8, 64, 256] {
            let measured = sigma2_n(&jitter, n).unwrap();
            let predicted = sigma2_n_independent(n, sigma2);
            assert_rel(measured, predicted, 0.15);
        }
    }

    #[test]
    fn thermal_only_matches_closed_form_model() {
        let model = PhaseNoiseModel::thermal_only(276.04, 103.0e6).unwrap();
        let acc = AccumulationModel::new(model);
        let generator = JitterGenerator::new(model);
        let mut rng = StdRng::seed_from_u64(102);
        let jitter = generator.generate_period_jitter(&mut rng, 200_000).unwrap();
        for n in [1usize, 16, 128] {
            assert_rel(sigma2_n(&jitter, n).unwrap(), acc.sigma2_n(n), 0.15);
        }
    }

    #[test]
    fn flicker_dominated_jitter_grows_quadratically() {
        // Exaggerated flicker (K ≈ 20) so the N² regime is reached at small depths.
        let f0 = 1.0e8;
        let b_th = 100.0;
        let k = 20.0;
        let b_fl = 2.0 * b_th * f0 / (8.0 * std::f64::consts::LN_2 * k);
        let model = PhaseNoiseModel::new(b_th, b_fl, f0).unwrap();
        let generator = JitterGenerator::new(model);
        let mut rng = StdRng::seed_from_u64(103);
        let jitter = generator.generate_period_jitter(&mut rng, 1 << 18).unwrap();
        let v64 = sigma2_n(&jitter, 64).unwrap();
        let v256 = sigma2_n(&jitter, 256).unwrap();
        let ratio = v256 / v64;
        // Independence would force ratio = 4; the flicker-dominated model predicts ~14.6
        // (closed form); accept anything clearly superlinear and near the model.
        let acc = AccumulationModel::new(model);
        let predicted_ratio = acc.sigma2_n(256) / acc.sigma2_n(64);
        assert!(ratio > 8.0, "ratio {ratio}");
        assert_rel(ratio, predicted_ratio, 0.45);
    }

    #[test]
    fn date14_model_matches_closed_form_at_small_depths() {
        let model = PhaseNoiseModel::date14_experiment();
        let acc = AccumulationModel::new(model);
        let generator = JitterGenerator::new(model);
        let mut rng = StdRng::seed_from_u64(104);
        let jitter = generator.generate_period_jitter(&mut rng, 1 << 17).unwrap();
        for n in [1usize, 10, 100] {
            assert_rel(sigma2_n(&jitter, n).unwrap(), acc.sigma2_n(n), 0.2);
        }
    }

    #[test]
    fn kasdin_and_spectral_backends_produce_the_same_statistics() {
        let f0 = 1.0e8;
        let b_th = 100.0;
        let b_fl = 1.0e6;
        let model = PhaseNoiseModel::new(b_th, b_fl, f0).unwrap();
        let spectral = JitterGenerator::new(model);
        let kasdin =
            JitterGenerator::with_synthesis(model, FlickerSynthesis::Kasdin { memory: 4096 });
        let mut rng_a = StdRng::seed_from_u64(105);
        let mut rng_b = StdRng::seed_from_u64(106);
        let ja = spectral
            .generate_period_jitter(&mut rng_a, 1 << 16)
            .unwrap();
        let jb = kasdin.generate_period_jitter(&mut rng_b, 1 << 16).unwrap();
        for n in [8usize, 64, 512] {
            let va = sigma2_n(&ja, n).unwrap();
            let vb = sigma2_n(&jb, n).unwrap();
            assert_rel(va, vb, 0.4);
        }
    }

    #[test]
    fn disabled_flicker_reduces_to_thermal_only() {
        let model = PhaseNoiseModel::date14_experiment();
        let gen_disabled = JitterGenerator::with_synthesis(model, FlickerSynthesis::Disabled);
        let mut rng = StdRng::seed_from_u64(107);
        let jitter = gen_disabled
            .generate_period_jitter(&mut rng, 100_000)
            .unwrap();
        let sigma2 = model.thermal_period_jitter_variance();
        let measured = sigma2_n(&jitter, 512).unwrap();
        assert_rel(measured, sigma2_n_independent(512, sigma2), 0.2);
    }

    #[test]
    fn periods_average_to_the_nominal_period() {
        let model = PhaseNoiseModel::date14_experiment();
        let generator = JitterGenerator::new(model);
        let mut rng = StdRng::seed_from_u64(108);
        let periods = generator.generate_periods(&mut rng, 50_000).unwrap();
        let mean = periods.iter().sum::<f64>() / periods.len() as f64;
        assert_rel(mean, model.period(), 1e-4);
        assert!(periods.iter().all(|&p| p > 0.0));
    }

    #[test]
    fn edges_are_monotone_and_roughly_uniform() {
        let model = PhaseNoiseModel::date14_experiment();
        let generator = JitterGenerator::new(model);
        let mut rng = StdRng::seed_from_u64(109);
        let edges = generator.generate_edges(&mut rng, 0.0, 10_000).unwrap();
        assert_eq!(edges.times().len(), 10_001);
        let duration = edges.last_time().unwrap();
        assert_rel(duration, 10_000.0 * model.period(), 1e-3);
    }

    #[test]
    fn generation_is_deterministic_under_a_seed() {
        let model = PhaseNoiseModel::date14_experiment();
        let generator = JitterGenerator::new(model);
        let mut rng1 = StdRng::seed_from_u64(110);
        let mut rng2 = StdRng::seed_from_u64(110);
        let a = generator.generate_period_jitter(&mut rng1, 1024).unwrap();
        let b = generator.generate_period_jitter(&mut rng2, 1024).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_too_short_requests() {
        let generator = JitterGenerator::new(PhaseNoiseModel::date14_experiment());
        let mut rng = StdRng::seed_from_u64(111);
        assert!(generator.generate_period_jitter(&mut rng, 3).is_err());
    }

    #[test]
    fn sampler_matches_the_closed_form_model_thermal_only() {
        let model = PhaseNoiseModel::thermal_only(276.04, 103.0e6).unwrap();
        let acc = AccumulationModel::new(model);
        let mut sampler = JitterSampler::new(JitterGenerator::new(model)).unwrap();
        let mut rng = StdRng::seed_from_u64(120);
        let mut jitter = vec![0.0; 200_000];
        sampler.fill_period_jitter(&mut rng, &mut jitter).unwrap();
        for n in [1usize, 16, 128] {
            assert_rel(sigma2_n(&jitter, n).unwrap(), acc.sigma2_n(n), 0.15);
        }
    }

    #[test]
    fn sampler_matches_the_closed_form_model_with_flicker() {
        let model = PhaseNoiseModel::date14_experiment();
        let acc = AccumulationModel::new(model);
        let mut sampler = JitterSampler::new(JitterGenerator::new(model)).unwrap();
        let mut rng = StdRng::seed_from_u64(121);
        let mut jitter = vec![0.0; 1 << 17];
        sampler.fill_period_jitter(&mut rng, &mut jitter).unwrap();
        for n in [1usize, 10, 100] {
            assert_rel(sigma2_n(&jitter, n).unwrap(), acc.sigma2_n(n), 0.2);
        }
    }

    #[test]
    fn sampler_kasdin_backend_is_a_continuous_process() {
        // Exaggerated flicker (K ≈ 20, as in the flicker-dominated test above) so the
        // N² regime is unambiguous at these depths.
        let f0 = 1.0e8;
        let b_th = 100.0;
        let b_fl = 2.0 * b_th * f0 / (8.0 * std::f64::consts::LN_2 * 20.0);
        let model = PhaseNoiseModel::new(b_th, b_fl, f0).unwrap();
        let generator =
            JitterGenerator::with_synthesis(model, FlickerSynthesis::Kasdin { memory: 2048 });
        let mut sampler = JitterSampler::new(generator).unwrap();
        let mut rng = StdRng::seed_from_u64(122);
        // Two consecutive blocks of one continuous 1/f process: the overall series must
        // show the same superlinear σ²_N growth as a single long record (independence
        // would force a ratio of exactly 4).
        let mut jitter = vec![0.0; 1 << 16];
        let half = jitter.len() / 2;
        let (a, b) = jitter.split_at_mut(half);
        sampler.fill_period_jitter(&mut rng, a).unwrap();
        sampler.fill_period_jitter(&mut rng, b).unwrap();
        let v64 = sigma2_n(&jitter, 64).unwrap();
        let v256 = sigma2_n(&jitter, 256).unwrap();
        assert!(v256 / v64 > 8.0, "ratio {}", v256 / v64);
    }

    #[test]
    fn sampler_edge_times_accumulate_periods() {
        let model = PhaseNoiseModel::date14_experiment();
        let mut sampler = JitterSampler::new(JitterGenerator::new(model)).unwrap();
        let mut rng = StdRng::seed_from_u64(123);
        let mut times = vec![0.0; 10_001];
        sampler.fill_edge_times(&mut rng, 1.0, &mut times).unwrap();
        assert_eq!(times[0], 1.0);
        assert!(times.windows(2).all(|w| w[1] > w[0]));
        assert_rel(times[10_000] - 1.0, 10_000.0 * model.period(), 1e-3);
    }

    #[test]
    fn sampler_rejects_too_short_requests() {
        let model = PhaseNoiseModel::date14_experiment();
        let mut sampler = JitterSampler::new(JitterGenerator::new(model)).unwrap();
        let mut rng = StdRng::seed_from_u64(124);
        let mut tiny = vec![0.0; 3];
        assert!(sampler.fill_period_jitter(&mut rng, &mut tiny).is_err());
        let mut one = vec![0.0; 1];
        assert!(sampler.fill_edge_times(&mut rng, 0.0, &mut one).is_err());
    }
}
