//! Hajimiri impulse-sensitivity-function (ISF) conversion from drain-current noise to
//! oscillator phase noise.
//!
//! Following the linear-time-variant model the paper adopts (Section III-C-1), a
//! sinusoidal noise current of amplitude `I_i` at frequency `ν` injected into an
//! oscillator node is converted into an excess-phase sinusoid at the offset
//! `f = ν mod f0`, with amplitude `I_i·d_m / (2·C_L·V_DD·f)` where `m = ⌊ν/f0⌋` and
//! `d_m` is the `m`-th Fourier coefficient of the impulse sensitivity function.
//!
//! Summing the folded contributions of every harmonic gives the white-noise-to-phase
//! conversion (every `d_m` participates), while low-frequency flicker noise is folded
//! only through the DC coefficient `d_0`.  The result is exactly the paper's Eq. 10:
//! `Sφ(f) = b_th/f² + b_fl/f³`.

use serde::{Deserialize, Serialize};

use ptrng_noise::transistor::MosTransistor;

use crate::phase::PhaseNoiseModel;
use crate::{check_positive, OscError, Result};

/// Impulse-sensitivity-function description of one oscillator node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IsfModel {
    /// Fourier coefficients `d_0, d_1, …, d_M` of the ISF (dimensionless, in units of the
    /// maximum charge swing).
    fourier_coefficients: Vec<f64>,
    /// Effective load capacitance `C_L` at the node, in farads.
    load_capacitance: f64,
    /// Supply voltage `V_DD`, in volts.
    supply_voltage: f64,
}

impl IsfModel {
    /// Creates an ISF model from explicit Fourier coefficients.
    ///
    /// # Errors
    ///
    /// Returns an error when no coefficient is provided, a coefficient is non-finite,
    /// or `load_capacitance`/`supply_voltage` is not positive.
    pub fn new(
        fourier_coefficients: Vec<f64>,
        load_capacitance: f64,
        supply_voltage: f64,
    ) -> Result<Self> {
        if fourier_coefficients.is_empty() {
            return Err(OscError::InvalidParameter {
                name: "fourier_coefficients",
                reason: "at least the DC coefficient d_0 is required".to_string(),
            });
        }
        if fourier_coefficients.iter().any(|c| !c.is_finite()) {
            return Err(OscError::InvalidParameter {
                name: "fourier_coefficients",
                reason: "coefficients must be finite".to_string(),
            });
        }
        Ok(Self {
            fourier_coefficients,
            load_capacitance: check_positive("load_capacitance", load_capacitance)?,
            supply_voltage: check_positive("supply_voltage", supply_voltage)?,
        })
    }

    /// A generic single-ended CMOS ring-oscillator ISF with `harmonics` Fourier
    /// coefficients: a small DC value (rise/fall asymmetry) and harmonics decaying as
    /// `1/m` — the qualitative shape reported by Hajimiri for ring oscillators.
    ///
    /// # Errors
    ///
    /// Returns an error when `harmonics == 0` or the electrical parameters are invalid.
    pub fn ring_oscillator(
        harmonics: usize,
        asymmetry: f64,
        load_capacitance: f64,
        supply_voltage: f64,
    ) -> Result<Self> {
        if harmonics == 0 {
            return Err(OscError::InvalidParameter {
                name: "harmonics",
                reason: "at least one harmonic is required".to_string(),
            });
        }
        if !asymmetry.is_finite() || asymmetry < 0.0 {
            return Err(OscError::InvalidParameter {
                name: "asymmetry",
                reason: format!("must be non-negative and finite, got {asymmetry}"),
            });
        }
        let mut coeffs = Vec::with_capacity(harmonics + 1);
        coeffs.push(asymmetry); // d_0: vanishes for perfectly symmetric waveforms
        for m in 1..=harmonics {
            coeffs.push(1.0 / m as f64);
        }
        Self::new(coeffs, load_capacitance, supply_voltage)
    }

    /// DC Fourier coefficient `d_0` (responsible for flicker up-conversion).
    pub fn dc_coefficient(&self) -> f64 {
        self.fourier_coefficients[0]
    }

    /// Sum of the squared Fourier coefficients `Σ_m d_m²` (responsible for white-noise
    /// conversion).
    pub fn sum_squared_coefficients(&self) -> f64 {
        self.fourier_coefficients.iter().map(|d| d * d).sum()
    }

    /// Thermal phase-noise coefficient `b_th` produced by `n_devices` transistors whose
    /// white drain-current PSD is `thermal_current_psd` (A²/Hz) each:
    /// `b_th = n·S_th·Σ_m d_m² / (4·C_L²·V_DD²)` (two-sided convention).
    ///
    /// # Errors
    ///
    /// Returns an error when `n_devices == 0` or the PSD is negative/non-finite.
    pub fn thermal_phase_coefficient(
        &self,
        thermal_current_psd: f64,
        n_devices: usize,
    ) -> Result<f64> {
        check_devices(n_devices)?;
        if !thermal_current_psd.is_finite() || thermal_current_psd < 0.0 {
            return Err(OscError::InvalidParameter {
                name: "thermal_current_psd",
                reason: "must be non-negative and finite".to_string(),
            });
        }
        let denom = 4.0
            * self.load_capacitance
            * self.load_capacitance
            * self.supply_voltage
            * self.supply_voltage;
        Ok(n_devices as f64 * thermal_current_psd * self.sum_squared_coefficients() / denom)
    }

    /// Flicker phase-noise coefficient `b_fl` produced by `n_devices` transistors whose
    /// flicker drain-current PSD is `flicker_coefficient/f` (A²/Hz) each:
    /// `b_fl = n·c_fl·d_0² / (4·C_L²·V_DD²)`.
    ///
    /// # Errors
    ///
    /// Returns an error when `n_devices == 0` or the coefficient is negative/non-finite.
    pub fn flicker_phase_coefficient(
        &self,
        flicker_coefficient: f64,
        n_devices: usize,
    ) -> Result<f64> {
        check_devices(n_devices)?;
        if !flicker_coefficient.is_finite() || flicker_coefficient < 0.0 {
            return Err(OscError::InvalidParameter {
                name: "flicker_coefficient",
                reason: "must be non-negative and finite".to_string(),
            });
        }
        let d0 = self.dc_coefficient();
        let denom = 4.0
            * self.load_capacitance
            * self.load_capacitance
            * self.supply_voltage
            * self.supply_voltage;
        Ok(n_devices as f64 * flicker_coefficient * d0 * d0 / denom)
    }

    /// Full multilevel conversion: builds the phase-noise model of an oscillator at
    /// nominal frequency `frequency`, whose `n_devices` transistors are all described by
    /// `device`.
    ///
    /// # Errors
    ///
    /// Returns an error when `frequency` is not positive or `n_devices == 0`.
    pub fn phase_noise_model(
        &self,
        device: &MosTransistor,
        n_devices: usize,
        frequency: f64,
    ) -> Result<PhaseNoiseModel> {
        let b_th = self.thermal_phase_coefficient(device.thermal_current_psd(), n_devices)?;
        let b_fl =
            self.flicker_phase_coefficient(device.flicker_corner_coefficient(), n_devices)?;
        PhaseNoiseModel::new(b_th, b_fl, frequency)
    }
}

fn check_devices(n_devices: usize) -> Result<()> {
    if n_devices == 0 {
        return Err(OscError::InvalidParameter {
            name: "n_devices",
            reason: "at least one device is required".to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_isf() -> IsfModel {
        IsfModel::new(vec![0.1, 1.0, 0.5, 0.25], 20.0e-15, 1.2).unwrap()
    }

    #[test]
    fn coefficient_accessors() {
        let isf = demo_isf();
        assert_eq!(isf.dc_coefficient(), 0.1);
        assert_eq!(isf.fourier_coefficients.len(), 4);
        let expected_sum = 0.01 + 1.0 + 0.25 + 0.0625;
        assert!((isf.sum_squared_coefficients() - expected_sum).abs() < 1e-12);
        assert_eq!(isf.load_capacitance, 20.0e-15);
        assert_eq!(isf.supply_voltage, 1.2);
    }

    #[test]
    fn thermal_coefficient_uses_all_harmonics_flicker_only_dc() {
        let isf = demo_isf();
        let s_th = 2.0e-23;
        let c_fl = 1.0e-16;
        let denom = 4.0 * 20.0e-15f64.powi(2) * 1.2f64.powi(2);
        let b_th = isf.thermal_phase_coefficient(s_th, 3).unwrap();
        assert!((b_th - 3.0 * s_th * isf.sum_squared_coefficients() / denom).abs() / b_th < 1e-12);
        let b_fl = isf.flicker_phase_coefficient(c_fl, 3).unwrap();
        assert!((b_fl - 3.0 * c_fl * 0.01 / denom).abs() / b_fl < 1e-12);
    }

    #[test]
    fn symmetric_waveform_suppresses_flicker_upconversion() {
        // d_0 = 0: flicker noise does not convert into 1/f³ phase noise at all.
        let isf = IsfModel::ring_oscillator(8, 0.0, 10.0e-15, 1.2).unwrap();
        let b_fl = isf.flicker_phase_coefficient(1.0e-16, 6).unwrap();
        assert_eq!(b_fl, 0.0);
        let b_th = isf.thermal_phase_coefficient(1.0e-23, 6).unwrap();
        assert!(b_th > 0.0);
    }

    #[test]
    fn phase_noise_model_combines_device_and_isf() {
        let device = MosTransistor::typical_130nm();
        let isf = IsfModel::ring_oscillator(16, 0.2, 15.0e-15, 1.2).unwrap();
        let model = isf.phase_noise_model(&device, 6, 103.0e6).unwrap();
        assert!(model.b_thermal() > 0.0);
        assert!(model.b_flicker() > 0.0);
        assert_eq!(model.frequency(), 103.0e6);
        // The resulting thermal jitter must be physically tiny but non-zero.
        assert!(model.thermal_period_jitter() > 0.0);
        assert!(model.thermal_period_jitter() < 1.0e-9);
    }

    #[test]
    fn more_devices_mean_more_phase_noise() {
        let device = MosTransistor::typical_130nm();
        let isf = IsfModel::ring_oscillator(8, 0.1, 15.0e-15, 1.2).unwrap();
        let three = isf.phase_noise_model(&device, 3, 1.0e8).unwrap();
        let six = isf.phase_noise_model(&device, 6, 1.0e8).unwrap();
        assert!((six.b_thermal() / three.b_thermal() - 2.0).abs() < 1e-9);
        assert!((six.b_flicker() / three.b_flicker() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn constructor_validation() {
        assert!(IsfModel::new(vec![], 1.0e-15, 1.2).is_err());
        assert!(IsfModel::new(vec![f64::NAN], 1.0e-15, 1.2).is_err());
        assert!(IsfModel::new(vec![1.0], 0.0, 1.2).is_err());
        assert!(IsfModel::new(vec![1.0], 1.0e-15, 0.0).is_err());
        assert!(IsfModel::ring_oscillator(0, 0.1, 1.0e-15, 1.2).is_err());
        assert!(IsfModel::ring_oscillator(4, -0.1, 1.0e-15, 1.2).is_err());
        let isf = demo_isf();
        assert!(isf.thermal_phase_coefficient(1.0, 0).is_err());
        assert!(isf.thermal_phase_coefficient(-1.0, 1).is_err());
        assert!(isf.flicker_phase_coefficient(-1.0, 1).is_err());
    }
}
