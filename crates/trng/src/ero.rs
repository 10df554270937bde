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

    /// `Q = D·(f₁/f₂)·(σ₁f₁)² + D·(σ₂f₁)²`: the variance, in cycles², of the sampled
    /// ring's phase advance per bit from the rings' thermal jitter (`σᵢ` each ring's
    /// thermal period jitter).  The phase walk samples it; the entropy claim reads it.
    pub fn thermal_phase_variance(&self) -> f64 {
        let (f1, f2) = (self.sampled.frequency(), self.sampling.frequency());
        let division = f64::from(self.division);
        division * f1 / f2 * (self.sampled.thermal_period_jitter() * f1).powi(2)
            + division * (self.sampling.thermal_period_jitter() * f1).powi(2)
    }
}

/// The elementary RO-TRNG simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EroTrng {
    config: EroTrngConfig,
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
        Ok(Self { config })
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
    /// Convenience entry point: every call is a fresh realization starting at a uniform
    /// phase, and the sampler's scratch is allocated and dropped within the call.
    /// Callers on a hot path should hold an [`EroSampler`] (via [`EroTrng::sampler`])
    /// instead, which is allocation-free in steady state and keeps the oscillator
    /// phases continuous across calls.
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
/// Both internally-selected strategies carry the sampled oscillator's phase across
/// calls, and both start the first call at a uniform phase (the stationary law), so the
/// stream is stationary from bit 0:
///
/// * **Phase walk** (both oscillators thermal-only) — thermal jitter has independent
///   increments, so the sampled oscillator's phase at successive captures, in cycles,
///   is a Gaussian random walk `φ_k = φ_{k−1} + D·f₁/f₂ + N(0, Q)` with `Q` from
///   [`EroTrngConfig::thermal_phase_variance`].  The sampler keeps `frac(φ)` and
///   draws one standard Gaussian per bit; the bit is `frac(φ_k) < duty`.  This is the
///   phase law of Baudet's bound, which seeds the ledger; it approximates the
///   period-by-period edge walk, from which it differs visibly only at low jitter per
///   bit.  The walk also counts the sampled ring's rising edges in each bit's D
///   sampling periods, `⌊φ_k⌋ − ⌊φ_{k−1}⌋`: the paper's embedded counter
///   ([`EroSampler::edge_counts`]).
/// * **Record walk** (any flicker component) — correlated jitter has no such closed
///   form, so both rings' edge records are simulated period by period via
///   [`JitterSampler`], and a linear merge walk resolves each capture.  The records
///   continue across calls: each call's sampling record starts at the previous call's
///   last capture edge, and the sampled ring's edges past that capture are kept and
///   extended.
#[derive(Debug, Clone)]
pub struct EroSampler {
    config: EroTrngConfig,
    mode: SamplerMode,
}

#[derive(Debug, Clone)]
enum SamplerMode {
    Phase(PhaseWalk),
    Record(Box<RecordWalk>),
}

/// State of the thermal-only phase walk.
#[derive(Debug, Clone)]
struct PhaseWalk {
    gauss: GaussStream,
    /// `frac(D·f₁/f₂)`: the mean phase advance per bit, in cycles.
    drift: f64,
    /// `⌊D·f₁/f₂⌋`: the whole cycles of the mean advance, which `drift` leaves out.
    whole: f64,
    /// `√Q`: the standard deviation of the phase advance per bit, in cycles.
    sigma: f64,
    /// `frac(φ)` at the last capture; `None` until the first call draws it.
    phase: Option<f64>,
    /// The last call's rising-edge count per bit.
    counts: Vec<f64>,
}

/// State of the edge-record walk.
#[derive(Debug, Clone)]
struct RecordWalk {
    sampling: JitterSampler,
    sampled: JitterSampler,
    /// Scratch for one call's sampling-oscillator edges.
    sampling_times: Vec<f64>,
    /// Sampled-oscillator edges from the one at or before the last capture onwards, on
    /// a time axis whose origin is that capture; empty until the first call.
    sampled_times: Vec<f64>,
}

impl EroSampler {
    fn new(trng: EroTrng) -> Result<Self> {
        let config = *trng.config();
        let thermal_only = config.sampled.b_flicker() == 0.0 && config.sampling.b_flicker() == 0.0;
        let mode = if thermal_only {
            let mu = f64::from(config.division) * config.sampled.frequency()
                / config.sampling.frequency();
            SamplerMode::Phase(PhaseWalk {
                gauss: GaussStream::new(),
                drift: mu - mu.floor(),
                whole: mu.floor(),
                sigma: config.thermal_phase_variance().sqrt(),
                phase: None,
                counts: Vec::new(),
            })
        } else {
            SamplerMode::Record(Box::new(RecordWalk {
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

    /// The embedded counter: for each bit of the last [`EroSampler::fill_bits`] call,
    /// the number of the sampled ring's rising edges in its D sampling periods (empty
    /// before the first call).  `None` for the record walk, which does not count.
    pub fn edge_counts(&self) -> Option<&[f64]> {
        match &self.mode {
            SamplerMode::Phase(walk) => Some(&walk.counts),
            SamplerMode::Record(_) => None,
        }
    }

    /// Fills `out` with raw bits (one `0`/`1` byte per bit).
    ///
    /// Generic over the RNG so concrete callers get a fully monomorphized (inlined)
    /// draw path; `&mut dyn RngCore` works too.
    ///
    /// # Errors
    ///
    /// Returns an error when the record walk generates a period that is not strictly
    /// positive (jitter comparable to the period — a mis-parameterized model); the next
    /// call then starts afresh at a uniform phase.  The phase walk cannot fail.
    pub fn fill_bits<R: RngCore + ?Sized>(&mut self, rng: &mut R, out: &mut [u8]) -> Result<()> {
        if out.is_empty() {
            return Ok(());
        }
        let duty = self.config.duty_cycle;
        match &mut self.mode {
            SamplerMode::Phase(walk) => {
                walk.fill_bits(duty, rng, out);
                Ok(())
            }
            SamplerMode::Record(walk) => {
                let filled = walk.fill_bits(&self.config, rng, out);
                if filled.is_err() {
                    walk.sampled_times.clear();
                }
                filled
            }
        }
    }
}

/// A uniform draw from `[0, 1)` with 53 random bits.
fn uniform<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// `x.floor()` without a branch or a call.
///
/// The x86-64 baseline has no `roundsd`, so `f64::floor` compiles to a call into a
/// software routine that branches on the exponent and sign, and in the phase walk that
/// call sits on the loop-carried dependency.  Below 2^52 in magnitude the truncating
/// conversion through `i64` is exact, and stepping down by one where it rounded up
/// (negative non-integers) gives the floor.  Every float at or above 2^52 in magnitude
/// is already an integer, and ±∞ and NaN are their own floor, so those pass through.
///
/// The result equals `f64::floor` for every input, bit for bit, except that `−0.0`
/// gives `+0.0` (the two compare equal).  The walk never forms `−0.0`: its phase is
/// never negative, and neither a sum with a non-negative operand nor `x − floor(x)`
/// is `−0.0`.
#[inline]
fn floor(x: f64) -> f64 {
    const INTEGRAL: f64 = (1u64 << 52) as f64;
    let truncated = x as i64 as f64;
    let floored = truncated - f64::from(u8::from(truncated > x));
    if x.abs() < INTEGRAL {
        floored
    } else {
        x
    }
}

impl PhaseWalk {
    fn fill_bits<R: RngCore + ?Sized>(&mut self, duty: f64, rng: &mut R, out: &mut [u8]) {
        let mut phase = match self.phase {
            Some(phase) => phase,
            None => uniform(rng),
        };
        let mut gauss = self.gauss;
        self.counts.resize(out.len(), 0.0);
        for (bit, count) in out.iter_mut().zip(&mut self.counts) {
            phase += self.drift + self.sigma * gauss.next(rng);
            let edges = floor(phase);
            phase -= edges;
            *count = self.whole + edges;
            *bit = u8::from(phase < duty);
        }
        self.gauss = gauss;
        self.phase = Some(phase);
    }
}

impl RecordWalk {
    fn fill_bits<R: RngCore + ?Sized>(
        &mut self,
        config: &EroTrngConfig,
        mut rng: &mut R,
        out: &mut [u8],
    ) -> Result<()> {
        let division = config.division as usize;
        let t0_smp = config.sampled.period();
        if self.sampled_times.is_empty() {
            // The sampled oscillator's last edge before the first capture's origin,
            // placed so that its phase there is uniform.
            self.sampled_times.push(-uniform(rng) * t0_smp);
        }
        let captures = out.len() * division;
        self.sampling_times.resize(captures.max(4) + 1, 0.0);
        self.sampling
            .fill_edge_times(&mut rng, 0.0, &mut self.sampling_times)?;
        let last_capture = self.sampling_times[captures];
        // Extend the sampled record past the last capture (2 % slack on the nominal
        // edge count; the loop covers whatever the slack misses).
        loop {
            let from = self.sampled_times.len() - 1;
            let end = self.sampled_times[from];
            if end > last_capture {
                break;
            }
            let more = ((last_capture - end) / t0_smp * 1.02) as usize + 16;
            self.sampled_times.resize(from + more + 1, 0.0);
            self.sampled
                .fill_edge_times(&mut rng, end, &mut self.sampled_times[from..])?;
        }

        // Both edge series are monotone and the sampled record starts at or before 0
        // and ends after the last capture: one linear merge walk resolves every
        // capture instant, with `sampled_times[idx] <= t < sampled_times[idx + 1]`.
        let mut idx = 0usize;
        for (k, bit) in out.iter_mut().enumerate() {
            let t = self.sampling_times[(k + 1) * division];
            while self.sampled_times[idx + 1] <= t {
                idx += 1;
            }
            let (start, end) = (self.sampled_times[idx], self.sampled_times[idx + 1]);
            // fraction < duty  ⟺  t − start < duty·(end − start), sparing a division.
            *bit = u8::from(t - start < config.duty_cycle * (end - start));
        }
        // Keep the straddling edge and everything after it, rebased so the last capture
        // is the next call's origin (timestamps stay small, differences unchanged up to
        // one ulp).
        self.sampled_times.drain(..idx);
        for edge in &mut self.sampled_times {
            *edge -= last_capture;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::PI;

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

    /// The engine's `strong` profile at the given division: thermal-only rings at
    /// 103 and 102.3 MHz with `b_th = 1.2e6` Hz each.
    fn strong_config(division: u32) -> EroTrngConfig {
        EroTrngConfig {
            sampled: PhaseNoiseModel::new(1.2e6, 0.0, 103.0e6).unwrap(),
            sampling: PhaseNoiseModel::new(1.2e6, 0.0, 102.3e6).unwrap(),
            division,
            duty_cycle: 0.5,
        }
    }

    /// `count` bits drawn through one persistent sampler in 8192-bit calls, as the
    /// engine draws them.
    fn stream(config: EroTrngConfig, seed: u64, count: usize) -> Vec<u8> {
        let mut sampler = EroTrng::new(config).unwrap().sampler().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bits = vec![0u8; count];
        for chunk in bits.chunks_mut(8192) {
            sampler.fill_bits(&mut rng, chunk).unwrap();
        }
        bits
    }

    #[test]
    fn phase_walk_matches_the_odd_harmonic_series() {
        // With φ_k = φ_{k−1} + N(m·μ, m·Q) over m bits and a duty-0.5 square wave
        // (Fourier series Σ_{k odd} 4/(πk)·sin 2πkφ), the share of equal bits at lag m
        // is ½ + Σ_{k odd} 4/(π²k²)·e^{−2π²k²mQ}·cos(2πkmμ), μ = D·f₁/f₂ and Q the
        // config's thermal phase variance.
        //
        // Tolerance: Y_i = [b_i = b_{i+m}] − p is a function of φ_i … φ_{i+m}, and the
        // walk contracts every non-constant function of the phase by at least
        // ρ = e^{−2π²Q} per bit (its Fourier multipliers), so |Cov(Y_0, Y_j)| ≤ Var Y
        // for j ≤ m and ≤ Var Y·ρ^{j−m} beyond.  The estimate over N pairs then has a
        // standard deviation of at most √(τ/(4N)) with τ = 1 + 2m + 2ρ/(1 − ρ); the
        // test allows 5 of them.
        let n = 1 << 21;
        for (division, seed) in [(1u32, 31u64), (2, 32), (4, 33)] {
            let config = strong_config(division);
            let mu = f64::from(division) * config.sampled.frequency() / config.sampling.frequency();
            let q = config.thermal_phase_variance();
            let rho = (-2.0 * PI * PI * q).exp();
            let bits = stream(config, seed, n);
            for m in 1..=4usize {
                let lag = m as f64;
                let series = 0.5
                    + (1..200)
                        .step_by(2)
                        .map(|k| {
                            let k = k as f64;
                            4.0 / (PI * PI * k * k)
                                * (-2.0 * PI * PI * k * k * lag * q).exp()
                                * (2.0 * PI * k * lag * mu).cos()
                        })
                        .sum::<f64>();
                let pairs = n - m;
                let equal = bits.iter().zip(&bits[m..]).filter(|(a, b)| a == b).count();
                let share = equal as f64 / pairs as f64;
                let tau = 1.0 + 2.0 * lag + 2.0 * rho / (1.0 - rho);
                let tolerance = 5.0 * (tau / (4.0 * pairs as f64)).sqrt();
                assert!(
                    (share - series).abs() < tolerance,
                    "D = {division}, lag {m}: share {share} vs series {series} (±{tolerance})"
                );
            }
        }
    }

    #[test]
    fn floor_equals_f64_floor() {
        let below_one = 1.0 - f64::EPSILON / 2.0;
        let two_52 = (1u64 << 52) as f64;
        let two_63 = (1u64 << 63) as f64;
        let mut values = vec![
            0.0,
            0.5,
            below_one,
            1.0,
            1.0 + f64::EPSILON,
            2.0,
            41.0,
            two_52 - 0.5,
            two_52,
            two_52 + 1.0,
            two_63,
            2.0 * two_63,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::INFINITY,
        ];
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20_000 {
            let exponent = rng.gen_range(-40..70);
            values.push(rng.gen_range(0.0..1.0) * 2f64.powi(exponent));
        }
        for x in values.iter().flat_map(|&x| [x, -x]) {
            let expected = if x == 0.0 { 0.0 } else { x.floor() };
            assert_eq!(floor(x).to_bits(), expected.to_bits(), "x = {x:e}");
        }
        // The one sign difference, documented: −0.0 floors to +0.0 (equal as floats).
        assert_eq!(floor(-0.0), (-0.0f64).floor());
        assert!(floor(f64::NAN).is_nan());
    }

    #[test]
    fn phase_walk_equals_a_libm_floor_walk() {
        // The walk through `f64::floor`, from the same starting phase and Gaussians:
        // every bit, every edge count (the whole cycles of the mean advance plus the
        // integer the floor strips) and the carried phase must be the same, at a small
        // and a large phase step (the latter reaches negative sums every few bits).
        for division in [1u32, 16, 1024] {
            let whole = (f64::from(division) * 103.0e6 / 102.3e6).floor();
            let mut sampler = EroTrng::new(strong_config(division))
                .unwrap()
                .sampler()
                .unwrap();
            let SamplerMode::Phase(walk) = &sampler.mode else {
                panic!("strong rings are thermal-only")
            };
            let (drift, sigma) = (walk.drift, walk.sigma);
            let mut bits = vec![0u8; 1 << 16];
            sampler
                .fill_bits(&mut StdRng::seed_from_u64(u64::from(division)), &mut bits)
                .unwrap();

            let mut rng = StdRng::seed_from_u64(u64::from(division));
            let mut gauss = GaussStream::new();
            let mut phase = uniform(&mut rng);
            let mut negative_sums = 0;
            let counts = sampler.edge_counts().unwrap();
            assert_eq!(counts.len(), bits.len());
            for (k, (&bit, &count)) in bits.iter().zip(counts).enumerate() {
                phase += drift + sigma * gauss.next(&mut rng);
                negative_sums += usize::from(phase < 0.0);
                let edges = phase.floor();
                phase -= edges;
                assert_eq!(bit, u8::from(phase < 0.5), "D = {division}, bit {k}");
                assert_eq!(count, whole + edges, "D = {division}, count {k}");
            }
            let SamplerMode::Phase(walk) = &sampler.mode else {
                unreachable!()
            };
            assert_eq!(walk.phase.map(f64::to_bits), Some(phase.to_bits()));
            if division == 1024 {
                assert!(negative_sums > 1000, "{negative_sums} negative sums");
            }
        }
    }

    #[test]
    fn record_walk_restarts_cleanly_after_an_error() {
        // σ/T₀ = 0.25 with a vanishing flicker term (forcing the record walk): a
        // non-positive period (a > 4σ event) is certain within 2^18 periods, so the
        // first large request errors.  The walk keeps edges across calls, so the next
        // call must start afresh at a uniform phase, exactly like a new sampler.
        let extreme = EroTrngConfig {
            sampled: PhaseNoiseModel::new(6.25e6, 1e-30, 1.0e8).unwrap(),
            sampling: PhaseNoiseModel::new(6.25e6, 0.0, 0.993e8).unwrap(),
            division: 1,
            duty_cycle: 0.5,
        };
        let trng = EroTrng::new(extreme).unwrap();
        let mut sampler = trng.sampler().unwrap();
        let mut big = vec![0u8; 1 << 18];
        assert!(sampler
            .fill_bits(&mut StdRng::seed_from_u64(21), &mut big)
            .is_err());
        let mut after_error = vec![0u8; 64];
        let mut from_fresh = vec![0u8; 64];
        sampler
            .fill_bits(&mut StdRng::seed_from_u64(22), &mut after_error)
            .unwrap();
        trng.sampler()
            .unwrap()
            .fill_bits(&mut StdRng::seed_from_u64(22), &mut from_fresh)
            .unwrap();
        assert_eq!(after_error, from_fresh);
    }

    #[test]
    fn phase_and_record_walks_agree_statistically() {
        // A vanishing flicker coefficient forces the record walk while leaving the
        // physics indistinguishable from thermal-only.  At the deployment point
        // (`strong`, D = 16) the phase walk and the period-by-period edge walk must
        // produce the same 4-bit pattern frequencies: a χ² homogeneity test over the
        // 16 patterns of two equal-sized samples (15 degrees of freedom).
        let thermal = strong_config(16);
        let mut with_epsilon_flicker = thermal;
        with_epsilon_flicker.sampled = PhaseNoiseModel::new(
            thermal.sampled.b_thermal(),
            1e-30,
            thermal.sampled.frequency(),
        )
        .unwrap();
        let patterns = |bits: &[u8]| {
            let mut counts = [0u64; 16];
            for block in bits.chunks_exact(4) {
                counts[block.iter().fold(0, |acc, &b| (acc << 1) | usize::from(b))] += 1;
            }
            counts
        };
        let n = 1 << 17;
        let phase = patterns(&stream(thermal, 11, n));
        let record = patterns(&stream(with_epsilon_flicker, 12, n));
        let statistic: f64 = phase
            .iter()
            .zip(&record)
            .map(|(&a, &b)| (a as f64 - b as f64).powi(2) / (a + b) as f64)
            .sum();
        let p_value = ptrng_stats::special::chi_squared_sf(statistic, 15).unwrap();
        assert!(
            p_value > 1e-4,
            "4-bit patterns differ: χ² = {statistic}, p = {p_value}\n{phase:?}\n{record:?}"
        );
    }

    #[test]
    fn phase_walk_is_stationary_from_bit_0() {
        // Every fresh sampler draws its starting phase uniformly, so each of the first
        // bits reads one with probability `duty`.  Two configurations: `strong` at
        // D = 1, and the paper's ring pair without its flicker at D = 64.  On the
        // first, a phase-aligned start would sit on the 1 → 0 edge at φ = 0 and read
        // close to ½ anyway; on the second the phase drifts 0.045 cycles per bit
        // against 0.013 rms of jitter, so an aligned start would read ones.
        let paper = EroTrngConfig::date14_experiment(64);
        let without_flicker =
            |m: PhaseNoiseModel| PhaseNoiseModel::thermal_only(m.b_thermal(), m.frequency());
        let paper_thermal = EroTrngConfig {
            sampled: without_flicker(paper.sampled).unwrap(),
            sampling: without_flicker(paper.sampling).unwrap(),
            ..paper
        };
        let samplers = 2000;
        for (config, seed) in [(strong_config(1), 41u64), (paper_thermal, 42)] {
            let trng = EroTrng::new(config).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ones = [0usize; 8];
            for _ in 0..samplers {
                let mut bits = [0u8; 8];
                trng.sampler()
                    .unwrap()
                    .fill_bits(&mut rng, &mut bits)
                    .unwrap();
                for (count, &bit) in ones.iter_mut().zip(&bits) {
                    *count += usize::from(bit);
                }
            }
            let duty = config.duty_cycle;
            let tolerance = 4.0 * (duty * (1.0 - duty) / samplers as f64).sqrt();
            for (position, &count) in ones.iter().enumerate() {
                let p = count as f64 / samplers as f64;
                assert!(
                    (p - duty).abs() < tolerance,
                    "D = {}, bit {position}: P(1) = {p}, duty {duty} ± {tolerance}",
                    config.division
                );
            }
        }
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
