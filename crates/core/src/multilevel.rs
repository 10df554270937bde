//! The multilevel randomness-harvesting model (Fig. 3 of the paper).
//!
//! Instead of *assuming* properties of the raw random analog signal, the multilevel
//! approach derives them: transistor-level noise PSDs are propagated through the
//! oscillator's impulse sensitivity function into the excess-phase PSD, and from there
//! into the statistics of the accumulated jitter.  [`MultilevelModel`] packages that
//! pipeline and exposes every intermediate quantity, so the same object can answer both
//! "what does physics predict for `σ²_N`?" and "what entropy can be claimed for the
//! generator built on this oscillator?".

use serde::{Deserialize, Serialize};

use ptrng_noise::transistor::MosTransistor;
use ptrng_osc::model::AccumulationModel;
use ptrng_osc::phase::PhaseNoiseModel;
use ptrng_osc::ring::RingOscillator;
use ptrng_trng::stochastic::EntropyModel;

use crate::{CoreError, Result};

/// The full transistor-to-entropy pipeline for a pair of identical ring oscillators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultilevelModel {
    per_oscillator: PhaseNoiseModel,
    relative: PhaseNoiseModel,
}

impl MultilevelModel {
    /// Builds the model from a ring-oscillator description (two identical rings are
    /// assumed, as in the paper's measurement setup).
    ///
    /// # Errors
    ///
    /// Returns an error when the oscillator's ISF or device parameters are invalid.
    pub fn from_ring(oscillator: RingOscillator) -> Result<Self> {
        let per_oscillator = oscillator.phase_noise_model()?;
        let relative = per_oscillator.relative_to_identical();
        Ok(Self {
            per_oscillator,
            relative,
        })
    }

    /// Builds the model for a ring of `stages` inverters at frequency `frequency`, all
    /// using the given transistor.
    ///
    /// # Errors
    ///
    /// Returns an error when the structural parameters are invalid.
    pub fn from_device(device: MosTransistor, stages: usize, frequency: f64) -> Result<Self> {
        let ring = RingOscillator::builder()
            .device(device)
            .stages(stages)
            .frequency(frequency)
            .build()?;
        Self::from_ring(ring)
    }

    /// Builds the model directly from fitted phase-noise coefficients of the *relative*
    /// jitter (bypassing the transistor level), e.g. from the paper's own fit.
    ///
    /// # Errors
    ///
    /// Returns an error when the coefficients are invalid.
    pub fn from_relative_phase_noise(relative: PhaseNoiseModel) -> Result<Self> {
        let per_oscillator = PhaseNoiseModel::new(
            relative.b_thermal() / 2.0,
            relative.b_flicker() / 2.0,
            relative.frequency(),
        )?;
        Ok(Self {
            per_oscillator,
            relative,
        })
    }

    /// The model of the paper's experiment.
    pub fn date14_experiment() -> Self {
        Self::from_relative_phase_noise(PhaseNoiseModel::date14_experiment())
            .expect("paper coefficients are valid")
    }

    /// Phase noise of a single oscillator.
    pub fn per_oscillator(&self) -> &PhaseNoiseModel {
        &self.per_oscillator
    }

    /// Phase noise of the relative jitter between the two oscillators.
    pub fn relative(&self) -> &PhaseNoiseModel {
        &self.relative
    }

    /// The accumulated-jitter model (Eq. 11) of the relative jitter.
    pub fn accumulation(&self) -> AccumulationModel {
        AccumulationModel::new(self.relative)
    }

    /// The entropy model of an eRO-TRNG built from this oscillator pair.
    pub fn entropy(&self) -> EntropyModel {
        EntropyModel::new(self.relative)
    }

    /// Predicted `σ²_N` (closed form) at the given depths — the theoretical counterpart
    /// of an acquisition campaign.
    pub fn predicted_sigma2_n(&self, depths: &[usize]) -> Vec<(usize, f64)> {
        self.accumulation().sweep(depths)
    }

    /// The paper's headline numbers for this model: `(σ_thermal, σ/T0, K, N_95%)`.
    ///
    /// # Errors
    ///
    /// Never fails for a model with a thermal component; returns an error when the
    /// thermal coefficient is zero (the ratio is then undefined).
    pub fn headline_numbers(&self) -> Result<(f64, f64, Option<f64>, Option<u64>)> {
        if self.relative.b_thermal() == 0.0 {
            return Err(CoreError::InvalidParameter {
                name: "relative",
                reason: "the model has no thermal component".to_string(),
            });
        }
        let sigma = self.relative.thermal_period_jitter();
        let ratio = self.relative.thermal_jitter_ratio();
        let k = self.relative.rn_constant();
        let threshold = self.accumulation().independence_threshold(0.95)?;
        Ok((sigma, ratio, k, threshold))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_reproduces_headline_numbers() {
        let model = MultilevelModel::date14_experiment();
        let (sigma, ratio, k, threshold) = model.headline_numbers().unwrap();
        assert!((sigma - 15.89e-12).abs() < 0.05e-12);
        assert!((ratio - 1.6e-3).abs() < 0.05e-3);
        assert!((k.unwrap() - 5354.0).abs() < 1.0);
        assert_eq!(threshold, Some(281));
    }

    #[test]
    fn from_device_builds_the_full_pipeline() {
        let model =
            MultilevelModel::from_device(MosTransistor::typical_130nm(), 3, 103.0e6).unwrap();
        assert!(model.per_oscillator().b_thermal() > 0.0);
        assert!(model.per_oscillator().b_flicker() > 0.0);
        // Relative coefficients are exactly twice the per-oscillator ones.
        assert!(
            (model.relative().b_thermal() - 2.0 * model.per_oscillator().b_thermal()).abs() < 1e-12
        );
        let sweep = model.predicted_sigma2_n(&[1, 10, 100]);
        assert_eq!(sweep.len(), 3);
        assert!(sweep[2].1 > sweep[1].1);
    }

    #[test]
    fn technology_shrink_lowers_the_independence_threshold() {
        let device = MosTransistor::typical_130nm();
        let older = MultilevelModel::from_device(device, 3, 103.0e6).unwrap();
        let shrunk = device.scaled_geometry(0.5).unwrap();
        let newer = MultilevelModel::from_device(shrunk, 3, 103.0e6).unwrap();
        let t_old = older.headline_numbers().unwrap().3.unwrap();
        let t_new = newer.headline_numbers().unwrap().3.unwrap();
        assert!(
            t_new < t_old,
            "shrinking the device must reduce the independence threshold ({t_new} vs {t_old})"
        );
    }

    #[test]
    fn entropy_model_is_consistent_with_the_relative_noise() {
        let model = MultilevelModel::date14_experiment();
        let entropy = model.entropy();
        assert_eq!(entropy, EntropyModel::new(*model.relative()));
        assert!(entropy.entropy_bound_thermal(100_000) > 0.0);
    }

    #[test]
    fn headline_numbers_require_a_thermal_component() {
        let flicker_only = MultilevelModel::from_relative_phase_noise(
            PhaseNoiseModel::new(0.0, 1.0e6, 1.0e8).unwrap(),
        )
        .unwrap();
        assert!(flicker_only.headline_numbers().is_err());
    }

    #[test]
    fn from_ring_and_from_device_agree() {
        let ring = RingOscillator::builder()
            .device(MosTransistor::typical_130nm())
            .stages(5)
            .frequency(5.0e7)
            .build()
            .unwrap();
        let a = MultilevelModel::from_ring(ring).unwrap();
        let b = MultilevelModel::from_device(MosTransistor::typical_130nm(), 5, 5.0e7).unwrap();
        assert_eq!(a.relative().b_thermal(), b.relative().b_thermal());
        assert_eq!(a.relative().b_flicker(), b.relative().b_flicker());
    }
}
