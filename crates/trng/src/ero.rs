//! The elementary ring-oscillator TRNG: sampler and digitizer.
//!
//! `Osc1` (the *sampled* oscillator) runs freely; a D flip-flop captures its logic level
//! on every `division`-th rising edge of `Osc2` (the *sampling* oscillator).  The
//! captured level is the raw random bit.  Entropy comes from the relative jitter
//! accumulated over one sampling interval; increasing `division` accumulates more jitter
//! per bit at the cost of throughput.

use rand::RngCore;
use serde::{Deserialize, Serialize};

use ptrng_noise::white::GaussStream;
use ptrng_osc::jitter::{JitterGenerator, JitterSampler};
use ptrng_osc::phase::PhaseNoiseModel;

use crate::{Result, TrngError};

/// Configuration of an elementary RO-TRNG.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EroTrngConfig {
    /// Phase-noise model of the sampled oscillator (`Osc1`).
    pub sampled: PhaseNoiseModel,
    /// Phase-noise model of the sampling oscillator (`Osc2`).
    pub sampling: PhaseNoiseModel,
    /// Frequency-division factor applied to the sampling oscillator (`≥ 1`); one bit is
    /// produced every `division` periods of `Osc2`.
    pub division: u32,
    /// Duty cycle of the sampled oscillator's square wave, in `(0, 1)`.
    pub duty_cycle: f64,
}

impl EroTrngConfig {
    /// A configuration mirroring the paper's experiment: two 103 MHz oscillators carrying
    /// the fitted relative phase noise, with the given division factor.
    pub fn date14_experiment(division: u32) -> Self {
        let relative = PhaseNoiseModel::date14_experiment();
        let per_osc = PhaseNoiseModel::new(
            relative.b_thermal() / 2.0,
            relative.b_flicker() / 2.0,
            relative.frequency(),
        )
        .expect("halved paper coefficients are valid");
        // A small deliberate frequency offset between the rings avoids pathological
        // phase locking of the ideal (noise-free) part of the simulation.
        let sampling = PhaseNoiseModel::new(
            per_osc.b_thermal(),
            per_osc.b_flicker(),
            relative.frequency() * 0.9993,
        )
        .expect("offset frequency is valid");
        Self {
            sampled: per_osc,
            sampling,
            division,
            duty_cycle: 0.5,
        }
    }
}

/// The elementary RO-TRNG simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EroTrng {
    config: EroTrngConfig,
    sampled: JitterGenerator,
    sampling: JitterGenerator,
}

impl EroTrng {
    /// Creates a generator from a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error when `division == 0` or the duty cycle is outside `(0, 1)`.
    pub fn new(config: EroTrngConfig) -> Result<Self> {
        if config.division == 0 {
            return Err(TrngError::InvalidParameter {
                name: "division",
                reason: "the division factor must be at least 1".to_string(),
            });
        }
        if !(config.duty_cycle > 0.0 && config.duty_cycle < 1.0) {
            return Err(TrngError::InvalidParameter {
                name: "duty_cycle",
                reason: format!("must be in (0, 1), got {}", config.duty_cycle),
            });
        }
        Ok(Self {
            config,
            sampled: JitterGenerator::new(config.sampled),
            sampling: JitterGenerator::new(config.sampling),
        })
    }

    /// The configuration of the generator.
    pub fn config(&self) -> &EroTrngConfig {
        &self.config
    }

    /// Nominal bit rate in bits per second.
    pub fn bit_rate(&self) -> f64 {
        self.config.sampling.frequency() / self.config.division as f64
    }

    /// Creates a streaming sampler carrying the persistent phase state and scratch
    /// buffers of this generator (see [`EroSampler`]).
    ///
    /// # Errors
    ///
    /// Returns an error when the underlying jitter synthesis rejects its parameters.
    pub fn sampler(&self) -> Result<EroSampler> {
        EroSampler::new(*self)
    }

    /// Fills `out` with raw bits through a transient [`EroSampler`].
    ///
    /// Convenience entry point: both oscillators restart phase-aligned at `t = 0`, and
    /// the sampler's scratch is allocated and dropped within the call.  Callers on a hot
    /// path should hold an [`EroSampler`] (via [`EroTrng::sampler`]) instead, which is
    /// allocation-free in steady state and keeps the oscillator phases continuous
    /// across calls.
    ///
    /// # Errors
    ///
    /// Returns an error when the underlying simulation fails.
    pub fn fill_bits(&self, rng: &mut dyn RngCore, out: &mut [u8]) -> Result<()> {
        if out.is_empty() {
            return Ok(());
        }
        self.sampler()?.fill_bits(rng, out)
    }
}

/// Streaming bit sampler for an [`EroTrng`]: persistent oscillator phase plus reusable
/// scratch, so [`EroSampler::fill_bits`] performs no allocation in steady state.
///
/// Two internally-selected simulation strategies produce the same bit-process
/// distribution:
///
/// * **Telescoped** (both oscillators thermal-only) — the classical per-period walk is
///   collapsed using the independent-increment property of white-FM jitter: the
///   sampling oscillator advances one aggregated `N(D·T₀, D·σ²)` step per bit, and the
///   sampled oscillator block-skips to just short of the capture instant (one
///   aggregated normal draw aimed a `5σ` guard short of it) before resolving the final
///   straddling edges period-by-period.  The aggregation itself is exact in
///   distribution — a sum of independent Gaussian periods *is* the aggregated
///   Gaussian — and costs `O(1)` draws per bit instead of `O(division)`.  The skip is
///   not quite exact: when it overshoots the guard (about `3e-7` per skip), the
///   skipped straddling edge is approximated one nominal period before the next edge.
/// * **Record-based** (any flicker component) — correlated jitter cannot be aggregated,
///   so each call simulates edge records like the one-shot path, but into persistent
///   buffers via [`JitterSampler`] and with a linear merge walk (not a per-bit binary
///   search) for the capture comparisons.  As with the one-shot path, each call is an
///   independent realization restarting at `t = 0`.
#[derive(Debug, Clone)]
pub struct EroSampler {
    config: EroTrngConfig,
    mode: SamplerMode,
}

#[derive(Debug, Clone)]
enum SamplerMode {
    Telescoped(TelescopedState),
    Record(Box<RecordState>),
}

/// Phase state of the exact thermal-only streaming simulation.
#[derive(Debug, Clone)]
struct TelescopedState {
    gauss: GaussStream,
    /// Per-period jitter standard deviations.
    sigma_sampling: f64,
    sigma_sampled: f64,
    /// Time of the current (division-aligned) sampling edge.
    t: f64,
    /// Straddling edge pair of the sampled oscillator: `prev <= t < next` after
    /// advancing.
    prev: f64,
    next: f64,
    started: bool,
}

#[derive(Debug, Clone)]
struct RecordState {
    sampling: JitterSampler,
    sampled: JitterSampler,
    sampling_times: Vec<f64>,
    sampled_times: Vec<f64>,
}

impl EroSampler {
    fn new(trng: EroTrng) -> Result<Self> {
        let config = *trng.config();
        let thermal_only = config.sampled.b_flicker() == 0.0 && config.sampling.b_flicker() == 0.0;
        let mode = if thermal_only {
            SamplerMode::Telescoped(TelescopedState {
                gauss: GaussStream::new(),
                sigma_sampling: config.sampling.thermal_period_jitter(),
                sigma_sampled: config.sampled.thermal_period_jitter(),
                t: 0.0,
                prev: 0.0,
                next: 0.0,
                started: false,
            })
        } else {
            SamplerMode::Record(Box::new(RecordState {
                sampling: JitterSampler::new(JitterGenerator::new(config.sampling))
                    .map_err(TrngError::from)?,
                sampled: JitterSampler::new(JitterGenerator::new(config.sampled))
                    .map_err(TrngError::from)?,
                sampling_times: Vec::new(),
                sampled_times: Vec::new(),
            }))
        };
        Ok(Self { config, mode })
    }

    /// The configuration of the underlying generator.
    pub fn config(&self) -> &EroTrngConfig {
        &self.config
    }

    /// Fills `out` with raw bits (one `0`/`1` byte per bit).
    ///
    /// # Errors
    ///
    /// Returns an error when the underlying simulation fails (e.g. a generated period
    /// is not strictly positive, which requires jitter comparable to the period — a
    /// mis-parameterized model).
    /// Generic over the RNG so concrete callers get a fully monomorphized (inlined)
    /// draw path; `&mut dyn RngCore` works too.
    pub fn fill_bits<R: RngCore + ?Sized>(&mut self, rng: &mut R, out: &mut [u8]) -> Result<()> {
        if out.is_empty() {
            return Ok(());
        }
        match &mut self.mode {
            SamplerMode::Telescoped(state) => state.fill_bits(&self.config, rng, out),
            SamplerMode::Record(state) => state.fill_bits(&self.config, rng, out),
        }
    }
}

impl TelescopedState {
    fn fill_bits<R: RngCore + ?Sized>(
        &mut self,
        config: &EroTrngConfig,
        rng: &mut R,
        out: &mut [u8],
    ) -> Result<()> {
        let t0_spl = config.sampling.period();
        let t0_smp = config.sampled.period();
        let division = config.division as f64;
        let duty = config.duty_cycle;
        let step_mean = division * t0_spl;
        let step_sigma = division.sqrt() * self.sigma_sampling;
        let sigma_smp = self.sigma_sampled;
        let inv_t0_smp = 1.0 / t0_smp;
        // Guard coefficient of the block skip: 5σ of the aggregated jitter per √period,
        // in periods.
        let guard_c = 5.0 * sigma_smp * inv_t0_smp;
        let mut gauss = self.gauss;
        let (mut t, mut prev, mut next) = (self.t, self.prev, self.next);
        let mut started = self.started;
        // The walk runs entirely on locals; state is committed only on success.  On an
        // error (non-positive period — a mis-parameterized model) the sampler resets to
        // its initial phase state, so a retrying caller gets a clean fresh realization
        // instead of a half-advanced walk that never existed.
        let walk = (|| -> Result<()> {
            if !started {
                // Both oscillators start phase-aligned at t = 0; resolve the sampled
                // oscillator's first period.
                let first = t0_smp + sigma_smp * gauss.next(rng);
                if first <= 0.0 {
                    return Err(non_positive_period_error());
                }
                next = first;
                started = true;
            }
            // Rebase the time origin so the absolute timestamps cannot grow without
            // bound (subtracting a common offset leaves every difference, and hence
            // every bit, unchanged up to one ulp).
            if prev > 1.0e9 * t0_smp {
                t -= prev;
                next -= prev;
                prev = 0.0;
            }
            for bit in out.iter_mut() {
                // One aggregated draw advances the sampling oscillator by `division`
                // periods: Σ of D iid N(T₀, σ²) periods is N(D·T₀, D·σ²).
                t += step_mean + step_sigma * gauss.next(rng);
                if t <= prev {
                    return Err(non_positive_period_error());
                }
                // Block-skip across sampled edges that cannot straddle t: aim `guard`
                // periods short of t, where the guard keeps the overshoot probability
                // below ~3e-7 per skip (5σ of the aggregated jitter); a rare overshoot
                // is handled explicitly, so this is a speed/robustness knob, not a
                // correctness bound.  One skip per bit suffices — what remains after
                // it is of the guard's order and is resolved edge-by-edge.
                let whole = if next <= t {
                    ((t - next) * inv_t0_smp) as usize
                } else {
                    0
                };
                let guard = (guard_c * (whole as f64).sqrt()).ceil() as usize + 1;
                if whole > guard + 1 {
                    let k = (whole - guard) as f64;
                    let skip = k * t0_smp + k.sqrt() * sigma_smp * gauss.next(rng);
                    if skip <= 0.0 {
                        return Err(non_positive_period_error());
                    }
                    next += skip;
                }
                if next > t && prev < next - 2.0 * t0_smp {
                    // Beyond the 5σ guard: the straddling pair was skipped;
                    // approximate the missing edge one nominal period back.
                    prev = next - t0_smp;
                }
                // Resolve the remaining sampled edges one period at a time.
                while next <= t {
                    let period = t0_smp + sigma_smp * gauss.next(rng);
                    if period <= 0.0 {
                        return Err(non_positive_period_error());
                    }
                    prev = next;
                    next += period;
                }
                // fraction < duty  ⟺  t - prev < duty·(next - prev), sparing a
                // division.
                *bit = u8::from(t - prev < duty * (next - prev));
            }
            Ok(())
        })();
        match walk {
            Ok(()) => {
                self.gauss = gauss;
                self.t = t;
                self.prev = prev;
                self.next = next;
                self.started = started;
                Ok(())
            }
            Err(e) => {
                self.gauss = GaussStream::new();
                self.t = 0.0;
                self.prev = 0.0;
                self.next = 0.0;
                self.started = false;
                Err(e)
            }
        }
    }
}

fn non_positive_period_error() -> TrngError {
    TrngError::InvalidParameter {
        name: "periods",
        reason: "a generated period was not strictly positive (jitter comparable to the \
                 period — a mis-parameterized model)"
            .to_string(),
    }
}

impl RecordState {
    fn fill_bits<R: RngCore + ?Sized>(
        &mut self,
        config: &EroTrngConfig,
        mut rng: &mut R,
        out: &mut [u8],
    ) -> Result<()> {
        let division = config.division as usize;
        let count = out.len();
        let sampling_periods = (count * division).max(4);
        self.sampling_times.resize(sampling_periods + 1, 0.0);
        self.sampling
            .fill_edge_times(&mut rng, 0.0, &mut self.sampling_times)?;
        let duration = *self
            .sampling_times
            .last()
            .expect("edge buffer holds at least the starting edge");
        let ratio = config.sampled.frequency() / config.sampling.frequency();
        let sampled_periods = ((sampling_periods as f64) * ratio * 1.02) as usize + 16;
        self.sampled_times.resize(sampled_periods + 1, 0.0);
        self.sampled
            .fill_edge_times(&mut rng, 0.0, &mut self.sampled_times)?;
        if *self.sampled_times.last().expect("non-empty") < duration {
            return Err(TrngError::InvalidParameter {
                name: "sampled",
                reason: "sampled-oscillator record ended before the sampling record".to_string(),
            });
        }

        // Both edge series are monotone: one linear merge walk resolves every capture
        // instant, instead of a per-bit binary search.
        let mut idx = 0usize;
        for (k, bit) in out.iter_mut().enumerate() {
            let edge_index = (k + 1) * division;
            let t = self.sampling_times[edge_index];
            while idx < self.sampled_times.len() && self.sampled_times[idx] <= t {
                idx += 1;
            }
            if idx == 0 || idx >= self.sampled_times.len() {
                return Err(TrngError::InvalidParameter {
                    name: "count",
                    reason: "internal record was too short to produce every requested bit"
                        .to_string(),
                });
            }
            let start = self.sampled_times[idx - 1];
            let end = self.sampled_times[idx];
            let fraction = (t - start) / (end - start);
            *bit = u8::from(fraction < config.duty_cycle);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn jittery_config(division: u32) -> EroTrngConfig {
        // Strongly jittery oscillators so that even small divisions decorrelate the bits.
        let sampled = PhaseNoiseModel::new(5.0e5, 0.0, 103.0e6).unwrap();
        let sampling = PhaseNoiseModel::new(5.0e5, 0.0, 102.4e6).unwrap();
        EroTrngConfig {
            sampled,
            sampling,
            division,
            duty_cycle: 0.5,
        }
    }

    fn fill(trng: &EroTrng, seed: u64, count: usize) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bits = vec![0u8; count];
        trng.fill_bits(&mut rng, &mut bits).unwrap();
        bits
    }

    #[test]
    fn generates_the_requested_number_of_bits() {
        let trng = EroTrng::new(jittery_config(4)).unwrap();
        let bits = fill(&trng, 1, 5000);
        assert_eq!(bits.len(), 5000);
        assert!(bits.iter().all(|&b| b <= 1));
    }

    #[test]
    fn bits_are_roughly_balanced_for_a_jittery_source() {
        let trng = EroTrng::new(jittery_config(8)).unwrap();
        let bits = fill(&trng, 2, 20_000);
        let ones: usize = bits.iter().map(|&b| b as usize).sum();
        let p = ones as f64 / bits.len() as f64;
        assert!((p - 0.5).abs() < 0.05, "p(1) = {p}");
    }

    #[test]
    fn deterministic_under_a_seed() {
        let trng = EroTrng::new(jittery_config(4)).unwrap();
        assert_eq!(fill(&trng, 3, 1000), fill(&trng, 3, 1000));
    }

    #[test]
    fn sampler_streams_bits_identically_to_one_shot_requests() {
        // A persistent sampler drains the RNG bit-by-bit: two chunked calls must equal
        // one combined call.
        let trng = EroTrng::new(jittery_config(4)).unwrap();
        let mut chunked = vec![0u8; 1000];
        let mut rng = StdRng::seed_from_u64(7);
        let mut sampler = trng.sampler().unwrap();
        let (a, b) = chunked.split_at_mut(400);
        sampler.fill_bits(&mut rng, a).unwrap();
        sampler.fill_bits(&mut rng, b).unwrap();
        assert_eq!(chunked, fill(&trng, 7, 1000));
        assert_eq!(sampler.config(), trng.config());
        // Empty requests are a no-op.
        sampler.fill_bits(&mut rng, &mut []).unwrap();
    }

    #[test]
    fn telescoped_sampler_resets_cleanly_after_an_error() {
        // σ/T₀ = 0.25: a non-positive period (>4σ event) is certain within a million
        // draws, so the first large request errors; afterwards the sampler must be back
        // in its initial phase state, behaving exactly like a freshly-built one.
        let extreme = EroTrngConfig {
            sampled: PhaseNoiseModel::new(6.25e6, 0.0, 1.0e8).unwrap(),
            sampling: PhaseNoiseModel::new(6.25e6, 0.0, 0.993e8).unwrap(),
            division: 1,
            duty_cycle: 0.5,
        };
        let trng = EroTrng::new(extreme).unwrap();
        let mut sampler = trng.sampler().unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let mut big = vec![0u8; 1 << 20];
        assert!(sampler.fill_bits(&mut rng, &mut big).is_err());
        let mut fresh = trng.sampler().unwrap();
        let mut rng_a = StdRng::seed_from_u64(22);
        let mut rng_b = StdRng::seed_from_u64(22);
        let mut after_error = vec![0u8; 64];
        let mut from_fresh = vec![0u8; 64];
        let res_a = sampler.fill_bits(&mut rng_a, &mut after_error);
        let res_b = fresh.fill_bits(&mut rng_b, &mut from_fresh);
        assert_eq!(res_a.is_ok(), res_b.is_ok());
        assert_eq!(after_error, from_fresh);
    }

    #[test]
    fn telescoped_and_record_paths_agree_statistically() {
        // A vanishing flicker coefficient forces the record-based simulation while
        // leaving the physics indistinguishable from thermal-only; both strategies must
        // produce the same bit statistics.
        let thermal = jittery_config(8);
        let mut with_epsilon_flicker = thermal;
        with_epsilon_flicker.sampled = PhaseNoiseModel::new(
            thermal.sampled.b_thermal(),
            1e-30,
            thermal.sampled.frequency(),
        )
        .unwrap();
        let fast = EroTrng::new(thermal).unwrap();
        let record = EroTrng::new(with_epsilon_flicker).unwrap();
        let stats = |bits: &[u8]| {
            let series: Vec<f64> = bits.iter().map(|&b| b as f64).collect();
            let p = series.iter().sum::<f64>() / series.len() as f64;
            let r1 = ptrng_stats::autocorr::lag1_autocorrelation(&series).unwrap();
            (p, r1)
        };
        let (p_fast, r_fast) = stats(&fill(&fast, 11, 40_000));
        let (p_rec, r_rec) = stats(&fill(&record, 12, 40_000));
        assert!((p_fast - p_rec).abs() < 0.02, "bias {p_fast} vs {p_rec}");
        assert!(
            (r_fast - r_rec).abs() < 0.05,
            "lag-1 correlation {r_fast} vs {r_rec}"
        );
    }

    #[test]
    fn larger_division_reduces_serial_correlation() {
        // With almost no jitter per sampling period, adjacent bits are strongly
        // correlated; accumulating more periods per bit (larger division) weakens the
        // correlation.  This is the qualitative motivation for jitter accumulation.
        let weak_jitter = |division| EroTrngConfig {
            sampled: PhaseNoiseModel::new(2.0e3, 0.0, 103.0e6).unwrap(),
            sampling: PhaseNoiseModel::new(2.0e3, 0.0, 102.9e6).unwrap(),
            division,
            duty_cycle: 0.5,
        };
        let fast = EroTrng::new(weak_jitter(1)).unwrap();
        let slow = EroTrng::new(weak_jitter(64)).unwrap();
        let bits_fast: Vec<f64> = fill(&fast, 4, 20_000).iter().map(|&b| b as f64).collect();
        let bits_slow: Vec<f64> = fill(&slow, 4, 5_000).iter().map(|&b| b as f64).collect();
        let r_fast = ptrng_stats::autocorr::lag1_autocorrelation(&bits_fast)
            .unwrap()
            .abs();
        let r_slow = ptrng_stats::autocorr::lag1_autocorrelation(&bits_slow)
            .unwrap()
            .abs();
        assert!(
            r_slow < r_fast,
            "expected accumulation to reduce |lag-1 autocorrelation|: fast {r_fast}, slow {r_slow}"
        );
    }

    #[test]
    fn date14_configuration_produces_bits() {
        let trng = EroTrng::new(EroTrngConfig::date14_experiment(16)).unwrap();
        let bits = fill(&trng, 5, 2000);
        assert_eq!(bits.len(), 2000);
        assert!(bits.iter().all(|&b| b <= 1));
        assert!((trng.bit_rate() - 103.0e6 * 0.9993 / 16.0).abs() < 1.0);
    }

    #[test]
    fn constructor_and_request_validation() {
        let mut config = jittery_config(4);
        config.division = 0;
        assert!(EroTrng::new(config).is_err());
        let mut config = jittery_config(4);
        config.duty_cycle = 1.0;
        assert!(EroTrng::new(config).is_err());
    }
}
