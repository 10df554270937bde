//! Ring-oscillator structural description.
//!
//! A classical ring oscillator is a loop of an odd number of inverters; its nominal
//! frequency is `f0 = 1/(2·stages·t_stage)`.  [`RingOscillator`] ties the structural
//! description (number of stages, stage delay, transistor; every node has a 20 fF load
//! at a 1.2 V supply) to the transistor noise model and the ISF conversion, producing
//! the [`PhaseNoiseModel`] used by the rest of the workspace — the "multilevel" chain of
//! the paper.

use serde::{Deserialize, Serialize};

use ptrng_noise::transistor::MosTransistor;

use crate::isf::IsfModel;
use crate::phase::PhaseNoiseModel;
use crate::{check_positive, OscError, Result};

/// Number of noise-contributing transistors per inverter stage (NMOS + PMOS).
const TRANSISTORS_PER_STAGE: usize = 2;

/// Effective load capacitance of every node, in farads.
const NODE_LOAD_CAPACITANCE: f64 = 20.0e-15;

/// Supply voltage, in volts.
const SUPPLY_VOLTAGE: f64 = 1.2;

/// ISF harmonics kept per node.
const ISF_HARMONICS: usize = 16;

/// Waveform asymmetry: the DC coefficient of the ISF.
const ISF_ASYMMETRY: f64 = 0.15;

/// Structural and electrical description of a classical ring oscillator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RingOscillator {
    stages: usize,
    stage_delay: f64,
    device: MosTransistor,
}

/// Builder for [`RingOscillator`] (see C-BUILDER).
#[derive(Debug, Clone)]
pub struct RingOscillatorBuilder {
    stages: usize,
    frequency: f64,
    device: MosTransistor,
}

impl Default for RingOscillatorBuilder {
    fn default() -> Self {
        Self {
            stages: 3,
            frequency: 103.0e6,
            device: MosTransistor::typical_130nm(),
        }
    }
}

impl RingOscillatorBuilder {
    /// Starts a builder with the default 3-stage, 103 MHz oscillator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of inverter stages (must be odd for a classical ring).
    pub fn stages(mut self, stages: usize) -> Self {
        self.stages = stages;
        self
    }

    /// Sets the target oscillation frequency in hertz (the stage delay is derived).
    pub fn frequency(mut self, frequency: f64) -> Self {
        self.frequency = frequency;
        self
    }

    /// Sets the transistor model shared by every stage.
    pub fn device(mut self, device: MosTransistor) -> Self {
        self.device = device;
        self
    }

    /// Builds the oscillator.
    ///
    /// # Errors
    ///
    /// Returns an error when the stage count is even or zero, or the frequency is not
    /// positive.
    pub fn build(self) -> Result<RingOscillator> {
        if self.stages == 0 || self.stages.is_multiple_of(2) {
            return Err(OscError::InvalidParameter {
                name: "stages",
                reason: format!(
                    "a classical ring needs an odd number of stages, got {}",
                    self.stages
                ),
            });
        }
        let frequency = check_positive("frequency", self.frequency)?;
        Ok(RingOscillator {
            stages: self.stages,
            stage_delay: 1.0 / (2.0 * self.stages as f64 * frequency),
            device: self.device,
        })
    }
}

impl RingOscillator {
    /// Starts building a ring oscillator.
    pub fn builder() -> RingOscillatorBuilder {
        RingOscillatorBuilder::new()
    }

    /// Nominal oscillation frequency `1/(2·stages·t_stage)` in hertz.
    pub fn frequency(&self) -> f64 {
        1.0 / (2.0 * self.stages as f64 * self.stage_delay)
    }

    /// Number of noise-contributing transistors in the ring.
    pub fn transistor_count(&self) -> usize {
        self.stages * TRANSISTORS_PER_STAGE
    }

    /// The ISF model of one oscillator node.
    ///
    /// # Errors
    ///
    /// Returns an error when the node parameters are invalid, which the constants of
    /// this module never are.
    pub fn isf(&self) -> Result<IsfModel> {
        IsfModel::ring_oscillator(
            ISF_HARMONICS,
            ISF_ASYMMETRY,
            NODE_LOAD_CAPACITANCE,
            SUPPLY_VOLTAGE,
        )
    }

    /// The multilevel phase-noise model of this oscillator: transistor noise PSDs folded
    /// through the ISF of every stage.
    ///
    /// # Errors
    ///
    /// Returns an error when the ISF construction fails.
    pub fn phase_noise_model(&self) -> Result<PhaseNoiseModel> {
        self.isf()?
            .phase_noise_model(&self.device, self.transistor_count(), self.frequency())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_and_period_follow_stage_delay() {
        let osc = RingOscillator::builder()
            .stages(5)
            .frequency(1.0e8)
            .build()
            .unwrap();
        assert!((osc.stage_delay - 1.0e-9).abs() < 1e-21);
        assert!((osc.frequency() - 1.0e8).abs() < 1.0);
        assert_eq!(osc.stages, 5);
        assert_eq!(osc.transistor_count(), 10);
    }

    #[test]
    fn frequency_target_derives_stage_delay() {
        let osc = RingOscillator::builder()
            .stages(3)
            .frequency(103.0e6)
            .build()
            .unwrap();
        assert!((osc.frequency() - 103.0e6).abs() / 103.0e6 < 1e-12);
        assert!((osc.stage_delay - 1.0 / (6.0 * 103.0e6)).abs() < 1e-18);
    }

    #[test]
    fn date14_default_is_103_mhz() {
        let osc = RingOscillator::builder().build().unwrap();
        assert!((osc.frequency() - 103.0e6).abs() / 103.0e6 < 1e-12);
    }

    #[test]
    fn builder_rejects_even_or_zero_stages() {
        assert!(RingOscillator::builder().stages(4).build().is_err());
        assert!(RingOscillator::builder().stages(0).build().is_err());
    }

    #[test]
    fn builder_rejects_bad_electrical_parameters() {
        assert!(RingOscillator::builder().frequency(-1.0).build().is_err());
        assert!(RingOscillator::builder().frequency(0.0).build().is_err());
        assert!(RingOscillator::builder()
            .frequency(f64::NAN)
            .build()
            .is_err());
    }

    #[test]
    fn phase_noise_model_scales_with_stage_count() {
        let small = RingOscillator::builder()
            .stages(3)
            .frequency(1.0e8)
            .build()
            .unwrap();
        let large = RingOscillator::builder()
            .stages(9)
            .frequency(1.0e8)
            .build()
            .unwrap();
        let m_small = small.phase_noise_model().unwrap();
        let m_large = large.phase_noise_model().unwrap();
        assert!((m_large.b_thermal() / m_small.b_thermal() - 3.0).abs() < 1e-9);
        assert!((m_large.b_flicker() / m_small.b_flicker() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn isf_reflects_configuration() {
        let osc = RingOscillator::builder().build().unwrap();
        let isf = osc.isf().unwrap();
        assert_eq!(isf.dc_coefficient(), ISF_ASYMMETRY);
    }

    #[test]
    fn shrunk_technology_increases_flicker_share() {
        let device = MosTransistor::typical_130nm();
        let older = RingOscillator::builder()
            .device(device)
            .frequency(1.0e8)
            .build()
            .unwrap();
        let newer = RingOscillator::builder()
            .device(device.scaled_geometry(0.5).unwrap())
            .frequency(1.0e8)
            .build()
            .unwrap();
        let m_old = older.phase_noise_model().unwrap();
        let m_new = newer.phase_noise_model().unwrap();
        // The paper's observation: smaller geometries push the flicker/thermal balance
        // toward flicker, lowering the K constant of r_N = K/(K+N).
        let k_old = m_old.rn_constant().unwrap();
        let k_new = m_new.rn_constant().unwrap();
        assert!(k_new < k_old, "k_new {k_new} should be below k_old {k_old}");
    }
}
