//! The two-oscillator differential measurement (Fig. 6 / Eq. 12 of the paper).
//!
//! `Osc2` (the *reference*) defines consecutive windows of `N` of its own periods; a
//! counter tallies the rising edges of `Osc1` (the *target*) in every window, and the
//! accumulated relative-jitter statistic is the scaled difference of consecutive counter
//! values.
//!
//! # Quantization floor
//!
//! A hardware counter resolves the window contents to ±1 edge.  The difference of two
//! consecutive counter values therefore carries a quantization noise of roughly half a
//! squared count, i.e. `≈ 0.5/f0²` in seconds².  Below that floor the relative jitter is
//! invisible to the counter — which is precisely the practical difficulty the paper
//! discusses when trying to measure the thermal contribution at small `N`.  The
//! period-domain estimator ([`DifferentialCircuit::measure_period_domain`]) does not
//! quantize and covers the full depth range; both estimators are compared in the
//! `ablation_sn_estimators` benchmark.

use rand::RngCore;
use serde::{Deserialize, Serialize};

use ptrng_osc::jitter::JitterGenerator;
use ptrng_osc::phase::PhaseNoiseModel;
use ptrng_stats::descriptive::sample_variance;
use ptrng_stats::sn::{sigma2_n_sweep, SnSampling};

use crate::counter::{count_in_reference_windows, counts_to_sn};
use crate::dataset::{DatasetPoint, Sigma2NDataset};
use crate::{MeasureError, Result};

/// Result of one counter-based acquisition at a fixed depth `N`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterRun {
    /// Accumulation depth `N`.
    pub n: usize,
    /// Raw counter values `Q_i^N`.
    pub counts: Vec<u64>,
    /// Realizations of `s_N` derived from the counts (Eq. 12).
    pub sn: Vec<f64>,
    /// Sample variance of the `s_N` realizations.
    pub sigma2_n: f64,
}

/// The differential measurement circuit: two simulated ring oscillators plus the counter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DifferentialCircuit {
    target: JitterGenerator,
    reference: JitterGenerator,
}

impl DifferentialCircuit {
    /// Creates a circuit from the phase-noise models of the two oscillators.
    pub fn new(target: PhaseNoiseModel, reference: PhaseNoiseModel) -> Self {
        Self {
            target: JitterGenerator::new(target),
            reference: JitterGenerator::new(reference),
        }
    }

    /// The paper's experimental setup: two identical oscillators, each carrying half of
    /// the fitted relative phase noise, at 103 MHz.
    ///
    /// The fit of Section IV-B characterizes the *relative* jitter of the pair; splitting
    /// it evenly over two independent, identical oscillators reproduces the same relative
    /// statistics.
    pub fn date14_experiment() -> Self {
        let relative = PhaseNoiseModel::date14_experiment();
        let per_oscillator = PhaseNoiseModel::new(
            relative.b_thermal() / 2.0,
            relative.b_flicker() / 2.0,
            relative.frequency(),
        )
        .expect("halved paper coefficients are valid");
        Self::new(per_oscillator, per_oscillator)
    }

    /// The jitter generator of the counted (target) oscillator.
    pub fn target(&self) -> &JitterGenerator {
        &self.target
    }

    /// The phase-noise model of the *relative* jitter seen by the counter (coefficients
    /// of the two oscillators add).
    ///
    /// # Errors
    ///
    /// Returns an error when the two nominal frequencies differ by more than 1 %.
    pub fn relative_model(&self) -> Result<PhaseNoiseModel> {
        Ok(self.target.model().relative_to(self.reference.model())?)
    }

    /// Estimated variance contributed by the ±1-count quantization of a hardware
    /// counter, in seconds² (≈ `0.5/f0²`).
    pub fn quantization_floor(&self) -> f64 {
        0.5 / (self.target.model().frequency() * self.target.model().frequency())
    }

    /// Runs the counter-based acquisition at depth `n`, collecting `windows` consecutive
    /// counter values.
    ///
    /// # Errors
    ///
    /// Returns an error when `n == 0`, `windows < 3`, or the underlying generation fails.
    pub fn measure_counters(
        &self,
        rng: &mut dyn RngCore,
        n: usize,
        windows: usize,
    ) -> Result<CounterRun> {
        if n == 0 {
            return Err(MeasureError::InvalidParameter {
                name: "n",
                reason: "accumulation depth must be at least 1".to_string(),
            });
        }
        if windows < 3 {
            return Err(MeasureError::InvalidParameter {
                name: "windows",
                reason: format!("at least 3 windows are required, got {windows}"),
            });
        }
        let reference_periods = n * windows;
        let reference_edges = self.reference.generate_edges(rng, 0.0, reference_periods)?;
        // The target must cover the full reference duration; its nominal frequency may
        // differ slightly, so add a 1 % + 16-period margin.
        let ratio = self.target.model().frequency() / self.reference.model().frequency();
        let target_periods = ((reference_periods as f64) * ratio * 1.01) as usize + 16;
        let target_edges = self.target.generate_edges(rng, 0.0, target_periods)?;

        let counts = count_in_reference_windows(&target_edges, &reference_edges, n)?;
        let sn = counts_to_sn(&counts, self.target.model().frequency())?;
        let sigma2_n = sample_variance(&sn)?;
        Ok(CounterRun {
            n,
            counts,
            sn,
            sigma2_n,
        })
    }

    /// Runs the period-domain acquisition: generates one record of `record_len` periods of
    /// the *relative* jitter process and evaluates `σ²_N` (Eq. 4) at every requested
    /// depth.
    ///
    /// # Errors
    ///
    /// Returns an error when the depths list is empty, the record is too short for every
    /// depth, or generation fails.
    pub fn measure_period_domain(
        &self,
        rng: &mut dyn RngCore,
        depths: &[usize],
        record_len: usize,
    ) -> Result<Sigma2NDataset> {
        let relative = self.relative_model()?;
        let generator = JitterGenerator::with_synthesis(relative, self.target.synthesis());
        let jitter = generator.generate_period_jitter(rng, record_len)?;
        let points = sigma2_n_sweep(&jitter, depths, SnSampling::Overlapping)?
            .into_iter()
            .map(|p| DatasetPoint {
                n: p.n,
                sigma2_n: p.sigma2_n,
                samples: p.samples,
            })
            .collect();
        Sigma2NDataset::new(relative.frequency(), "period-domain", points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptrng_osc::model::AccumulationModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_rel(a: f64, b: f64, rel: f64) {
        let scale = a.abs().max(b.abs()).max(1e-300);
        assert!((a - b).abs() / scale <= rel, "{a} vs {b} (rel {rel})");
    }

    #[test]
    fn date14_circuit_reconstructs_the_relative_model() {
        let circuit = DifferentialCircuit::date14_experiment();
        let relative = circuit.relative_model().unwrap();
        let paper = PhaseNoiseModel::date14_experiment();
        assert_rel(relative.b_thermal(), paper.b_thermal(), 1e-12);
        assert_rel(relative.b_flicker(), paper.b_flicker(), 1e-12);
    }

    #[test]
    fn counter_measurement_sees_large_jitter() {
        // Exaggerated thermal jitter so the accumulated jitter at N = 100 is far above
        // the counter quantization floor; the measured σ²_N must match Eq. 11 for the
        // relative model.
        let f0 = 1.0e8;
        let b_th = 2.0e6;
        let per_osc = PhaseNoiseModel::thermal_only(b_th / 2.0, f0).unwrap();
        let circuit = DifferentialCircuit::new(per_osc, per_osc);
        let mut rng = StdRng::seed_from_u64(7);
        let run = circuit.measure_counters(&mut rng, 100, 400).unwrap();
        assert_eq!(run.n, 100);
        assert!(run.counts.len() >= 399);
        assert_eq!(run.sn.len(), run.counts.len() - 1);
        let expected = AccumulationModel::new(circuit.relative_model().unwrap()).sigma2_n(100);
        assert!(expected > 4.0 * circuit.quantization_floor());
        assert_rel(run.sigma2_n, expected, 0.35);
    }

    #[test]
    fn counter_measurement_hits_the_quantization_floor_for_small_jitter() {
        // With the paper's (tiny) jitter and a small depth, the counter only sees its own
        // quantization noise — the practical limitation the paper discusses.
        let circuit = DifferentialCircuit::date14_experiment();
        let mut rng = StdRng::seed_from_u64(8);
        let run = circuit.measure_counters(&mut rng, 10, 200).unwrap();
        let floor = circuit.quantization_floor();
        let true_sigma2 = AccumulationModel::new(circuit.relative_model().unwrap()).sigma2_n(10);
        assert!(true_sigma2 < floor / 100.0);
        assert!(run.sigma2_n < 4.0 * floor);
        assert!(run.sigma2_n > floor / 100.0);
    }

    #[test]
    fn period_domain_matches_the_closed_form() {
        let circuit = DifferentialCircuit::date14_experiment();
        let mut rng = StdRng::seed_from_u64(9);
        let dataset = circuit
            .measure_period_domain(&mut rng, &[1, 4, 16, 64], 1 << 16)
            .unwrap();
        let acc = AccumulationModel::new(circuit.relative_model().unwrap());
        for p in dataset.points() {
            assert_rel(p.sigma2_n, acc.sigma2_n(p.n), 0.25);
        }
        assert_eq!(dataset.estimator(), "period-domain");
    }

    #[test]
    fn error_paths() {
        let circuit = DifferentialCircuit::date14_experiment();
        let mut rng = StdRng::seed_from_u64(10);
        assert!(circuit.measure_counters(&mut rng, 0, 10).is_err());
        assert!(circuit.measure_counters(&mut rng, 10, 2).is_err());
        assert!(circuit.measure_period_domain(&mut rng, &[], 1024).is_err());
        let a = PhaseNoiseModel::new(1.0, 1.0, 1.0e8).unwrap();
        let b = PhaseNoiseModel::new(1.0, 1.0, 2.0e8).unwrap();
        assert!(DifferentialCircuit::new(a, b).relative_model().is_err());
    }
}
