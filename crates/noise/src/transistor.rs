//! MOS transistor noise models (Section III-A of the paper).
//!
//! The paper quotes the two drain-current noise PSDs that dominate bulk CMOS devices:
//!
//! * thermal noise (Brederlow et al.): `S_idsth(f) = (8/3)·T·k·g_m`,
//! * flicker noise (Hung, Ko, Hu): `S_idsfl(f) = α·T·k·I_D² / (W·L²·f)`.
//!
//! Because the two parasitic phenomena are physically independent, the total
//! drain-current noise PSD is their sum (Eq. 1).

use serde::{Deserialize, Serialize};

use crate::{check_positive, Result, BOLTZMANN};

/// Physical parameters of a MOS transistor relevant to its intrinsic noise.
///
/// # Example
///
/// ```
/// use ptrng_noise::transistor::MosTransistor;
///
/// # fn main() -> Result<(), ptrng_noise::NoiseError> {
/// let device = MosTransistor::new(300.0, 2.0e-3, 150.0e-6, 0.30e-6, 0.13e-6, 3.0e-8)?;
/// // Thermal PSD is flat, flicker falls off as 1/f: at a high enough frequency the
/// // thermal contribution dominates.
/// assert!(device.thermal_current_psd() > device.flicker_corner_coefficient() / 1.0e9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MosTransistor {
    /// Absolute temperature `T` in kelvin.
    pub temperature: f64,
    /// Transconductance `g_m` in siemens.
    pub transconductance: f64,
    /// Nominal drain-source current `I_D` in amperes.
    pub drain_current: f64,
    /// Channel width `W` in metres.
    pub width: f64,
    /// Channel length `L` in metres.
    pub length: f64,
    /// Dimensionless flicker constant `α` associated with the silicon crystallography.
    pub flicker_alpha: f64,
}

impl MosTransistor {
    /// Creates a transistor model, validating that every parameter is positive.
    ///
    /// # Errors
    ///
    /// Returns an error if any parameter is zero, negative, or non-finite.
    pub fn new(
        temperature: f64,
        transconductance: f64,
        drain_current: f64,
        width: f64,
        length: f64,
        flicker_alpha: f64,
    ) -> Result<Self> {
        Ok(Self {
            temperature: check_positive("temperature", temperature)?,
            transconductance: check_positive("transconductance", transconductance)?,
            drain_current: check_positive("drain_current", drain_current)?,
            width: check_positive("width", width)?,
            length: check_positive("length", length)?,
            flicker_alpha: check_positive("flicker_alpha", flicker_alpha)?,
        })
    }

    /// A representative 130 nm-node inverter transistor at room temperature.
    ///
    /// The values are round numbers typical of the technology the paper's FPGA target is
    /// manufactured in; they are intended as a plausible default, not as a
    /// characterization of any specific die.
    pub fn typical_130nm() -> Self {
        Self {
            temperature: 300.0,
            transconductance: 1.5e-3,
            drain_current: 120.0e-6,
            width: 0.32e-6,
            length: 0.13e-6,
            flicker_alpha: 3.0e-8,
        }
    }

    /// Thermal drain-current noise PSD `(8/3)·k·T·g_m` in A²/Hz (white, frequency
    /// independent).
    pub fn thermal_current_psd(&self) -> f64 {
        (8.0 / 3.0) * BOLTZMANN * self.temperature * self.transconductance
    }

    /// The coefficient `α·k·T·I_D²/(W·L²)` such that the flicker drain-current noise PSD
    /// is `coefficient/f` in A²/Hz.
    pub fn flicker_corner_coefficient(&self) -> f64 {
        self.flicker_alpha * BOLTZMANN * self.temperature * self.drain_current * self.drain_current
            / (self.width * self.length * self.length)
    }

    /// Returns a copy with the channel length and width scaled by `factor` (< 1 shrinks
    /// the device), keeping everything else constant.
    ///
    /// # Errors
    ///
    /// Returns an error when `factor` is not strictly positive.
    pub fn scaled_geometry(&self, factor: f64) -> Result<Self> {
        let factor = check_positive("factor", factor)?;
        Self::new(
            self.temperature,
            self.transconductance,
            self.drain_current,
            self.width * factor,
            self.length * factor,
            self.flicker_alpha,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thermal_psd_formula() {
        let t = MosTransistor::new(300.0, 1.0e-3, 1.0e-4, 1.0e-6, 1.0e-7, 1.0e-3).unwrap();
        let expected = (8.0 / 3.0) * BOLTZMANN * 300.0 * 1.0e-3;
        assert!((t.thermal_current_psd() - expected).abs() < 1e-30);
    }

    #[test]
    fn flicker_psd_formula_and_scaling() {
        let t = MosTransistor::new(300.0, 1.0e-3, 1.0e-4, 1.0e-6, 1.0e-7, 1.0e-3).unwrap();
        let expected_at_1hz = 1.0e-3 * BOLTZMANN * 300.0 * 1.0e-8 / (1.0e-6 * 1.0e-14);
        let got = t.flicker_corner_coefficient();
        assert!((got - expected_at_1hz).abs() / expected_at_1hz < 1e-12);
    }

    #[test]
    fn shrinking_geometry_increases_flicker() {
        let t = MosTransistor::typical_130nm();
        let shrunk = t.scaled_geometry(0.5).unwrap();
        assert!(
            shrunk.flicker_corner_coefficient() > t.flicker_corner_coefficient(),
            "flicker must grow as 1/(W·L²) when the device shrinks"
        );
        assert_eq!(shrunk.thermal_current_psd(), t.thermal_current_psd());
    }

    #[test]
    fn constructor_rejects_invalid_parameters() {
        assert!(MosTransistor::new(0.0, 1.0, 1.0, 1.0, 1.0, 1.0).is_err());
        assert!(MosTransistor::new(300.0, -1.0, 1.0, 1.0, 1.0, 1.0).is_err());
        assert!(MosTransistor::new(300.0, 1.0, 1.0, 1.0, f64::NAN, 1.0).is_err());
        let t = MosTransistor::typical_130nm();
        assert!(t.scaled_geometry(0.0).is_err());
    }
}
