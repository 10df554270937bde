//! The excess-phase PSD model `Sφ(f) = b_th/f² + b_fl/f³` (Eq. 10 of the paper).
//!
//! `b_th` captures the white (thermal) drain-current noise after its conversion to phase
//! and `b_fl` the flicker drain-current noise.  Both refer to the two-sided PSD evaluated
//! at positive frequencies — the paper's convention, under which the closed form Eq. 11
//! holds.

use serde::{Deserialize, Serialize};

use crate::{check_non_negative, check_positive, OscError, Result};

/// The paper's nominal oscillator frequency (103 MHz).
pub const DATE14_FREQUENCY: f64 = 103.0e6;

/// The thermal phase-noise coefficient fitted in the paper's experiment (Section IV-B).
pub const DATE14_B_THERMAL: f64 = 276.04;

/// The ratio constant of the paper's experiment: `r_N = K/(K+N)` with `K = 5354`.
pub const DATE14_RN_CONSTANT: f64 = 5354.0;

/// A two-coefficient phase-noise model tied to a nominal oscillator frequency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhaseNoiseModel {
    /// Thermal (white-FM) coefficient `b_th` in Hz (units of `rad²·Hz` at 1 Hz offset
    /// divided by `f²`).
    b_thermal: f64,
    /// Flicker (flicker-FM) coefficient `b_fl` in Hz².
    b_flicker: f64,
    /// Nominal oscillation frequency `f0` in Hz.
    frequency: f64,
}

impl PhaseNoiseModel {
    /// Creates a phase-noise model with the given coefficients and nominal frequency.
    ///
    /// # Errors
    ///
    /// Returns an error when `frequency` is not positive or a coefficient is negative or
    /// non-finite.
    pub fn new(b_thermal: f64, b_flicker: f64, frequency: f64) -> Result<Self> {
        Ok(Self {
            b_thermal: check_non_negative("b_thermal", b_thermal)?,
            b_flicker: check_non_negative("b_flicker", b_flicker)?,
            frequency: check_positive("frequency", frequency)?,
        })
    }

    /// A purely thermal model (no flicker noise): jitter realizations are mutually
    /// independent at every accumulation depth.
    ///
    /// # Errors
    ///
    /// Same as [`PhaseNoiseModel::new`].
    pub fn thermal_only(b_thermal: f64, frequency: f64) -> Result<Self> {
        Self::new(b_thermal, 0.0, frequency)
    }

    /// The model of the paper's experimental oscillator: `f0 = 103 MHz`,
    /// `b_th = 276.04 Hz`, and `b_fl` chosen so that `r_N = 5354/(5354+N)`.
    pub fn date14_experiment() -> Self {
        // r_N = (2·b_th/f0³·N) / (2·b_th/f0³·N + 8ln2·b_fl/f0⁴·N²) = K/(K+N)
        // with K = 2·b_th·f0 / (8·ln2·b_fl)  ⇒  b_fl = 2·b_th·f0 / (8·ln2·K).
        let b_flicker = 2.0 * DATE14_B_THERMAL * DATE14_FREQUENCY
            / (8.0 * std::f64::consts::LN_2 * DATE14_RN_CONSTANT);
        Self {
            b_thermal: DATE14_B_THERMAL,
            b_flicker,
            frequency: DATE14_FREQUENCY,
        }
    }

    /// Reconstructs the model from the coefficients of the fit
    /// `σ²_N = linear·N + quadratic·N²` (the inverse of Eq. 11):
    /// `b_th = linear·f0³/2`, `b_fl = quadratic·f0⁴/(8·ln2)`.
    ///
    /// # Errors
    ///
    /// Returns an error when `frequency` is not positive or a coefficient is negative
    /// (a slightly negative fitted quadratic term should be clamped by the caller).
    pub fn from_sigma_n_coefficients(linear: f64, quadratic: f64, frequency: f64) -> Result<Self> {
        let frequency = check_positive("frequency", frequency)?;
        let linear = check_non_negative("linear", linear)?;
        let quadratic = check_non_negative("quadratic", quadratic)?;
        Self::new(
            linear * frequency.powi(3) / 2.0,
            quadratic * frequency.powi(4) / (8.0 * std::f64::consts::LN_2),
            frequency,
        )
    }

    /// Thermal coefficient `b_th` in Hz.
    pub fn b_thermal(&self) -> f64 {
        self.b_thermal
    }

    /// Flicker coefficient `b_fl` in Hz².
    pub fn b_flicker(&self) -> f64 {
        self.b_flicker
    }

    /// Nominal oscillation frequency `f0` in Hz.
    pub fn frequency(&self) -> f64 {
        self.frequency
    }

    /// Nominal period `T0 = 1/f0` in seconds.
    pub fn period(&self) -> f64 {
        1.0 / self.frequency
    }

    /// Variance of a single period jitter realization caused by thermal noise alone:
    /// `σ² = b_th/f0³` (Section IV-A of the paper).
    pub fn thermal_period_jitter_variance(&self) -> f64 {
        self.b_thermal / self.frequency.powi(3)
    }

    /// Standard deviation of the thermal-only period jitter, `σ = sqrt(b_th/f0³)`.
    pub fn thermal_period_jitter(&self) -> f64 {
        self.thermal_period_jitter_variance().sqrt()
    }

    /// Thermal period jitter expressed as a fraction of the period, `σ·f0`
    /// (the paper reports 1.6 ‰ for its experiment).
    pub fn thermal_jitter_ratio(&self) -> f64 {
        self.thermal_period_jitter() * self.frequency
    }

    /// The constant `K` such that `r_N = K/(K+N)` (5354 in the paper's experiment).
    ///
    /// Returns `None` for a thermal-only model (`r_N ≡ 1`).
    pub fn rn_constant(&self) -> Option<f64> {
        if self.b_flicker > 0.0 {
            Some(
                2.0 * self.b_thermal * self.frequency
                    / (8.0 * std::f64::consts::LN_2 * self.b_flicker),
            )
        } else {
            None
        }
    }

    /// Returns a copy of the model describing the **relative** phase noise of two
    /// identical, independent oscillators (coefficients add).
    pub fn relative_to_identical(&self) -> Self {
        Self {
            b_thermal: 2.0 * self.b_thermal,
            b_flicker: 2.0 * self.b_flicker,
            frequency: self.frequency,
        }
    }

    /// Combines the phase noise of two independent oscillators sharing the same nominal
    /// frequency into the model of their relative jitter.
    ///
    /// # Errors
    ///
    /// Returns an error when the nominal frequencies differ by more than 1 %.
    pub fn relative_to(&self, other: &Self) -> Result<Self> {
        let rel = (self.frequency - other.frequency).abs() / self.frequency;
        if rel > 0.01 {
            return Err(OscError::InvalidParameter {
                name: "other.frequency",
                reason: format!(
                    "relative-jitter combination requires near-identical frequencies \
                     ({} vs {})",
                    self.frequency, other.frequency
                ),
            });
        }
        Self::new(
            self.b_thermal + other.b_thermal,
            self.b_flicker + other.b_flicker,
            0.5 * (self.frequency + other.frequency),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_rel(a: f64, b: f64, rel: f64) {
        let scale = a.abs().max(b.abs()).max(1e-300);
        assert!((a - b).abs() / scale <= rel, "{a} vs {b}");
    }

    #[test]
    fn date14_model_reproduces_reported_jitter() {
        let m = PhaseNoiseModel::date14_experiment();
        // σ = sqrt(276.04 / (103 MHz)³) ≈ 15.89 ps
        assert_rel(m.thermal_period_jitter(), 15.89e-12, 3e-3);
        // σ/T0 ≈ 1.6 permil
        assert_rel(m.thermal_jitter_ratio(), 1.6e-3, 0.03);
        // K = 5354
        assert_rel(m.rn_constant().unwrap(), 5354.0, 1e-9);
    }

    #[test]
    fn from_sigma_n_coefficients_inverts_the_closed_form() {
        let original = PhaseNoiseModel::date14_experiment();
        let f0 = original.frequency();
        let linear = 2.0 * original.b_thermal() / f0.powi(3);
        let quadratic = 8.0 * std::f64::consts::LN_2 * original.b_flicker() / f0.powi(4);
        let rebuilt = PhaseNoiseModel::from_sigma_n_coefficients(linear, quadratic, f0).unwrap();
        assert_rel(rebuilt.b_thermal(), original.b_thermal(), 1e-12);
        assert_rel(rebuilt.b_flicker(), original.b_flicker(), 1e-12);
    }

    #[test]
    fn paper_fit_value_of_linear_coefficient() {
        // The paper reports f0²·σ²_Nth = 5.36e-6·N, i.e. linear coefficient
        // 2·b_th/f0³ = 5.36e-6/f0².
        let m = PhaseNoiseModel::date14_experiment();
        let linear_times_f0_sq = 2.0 * m.b_thermal() / m.frequency();
        assert_rel(linear_times_f0_sq, 5.36e-6, 2e-3);
    }

    #[test]
    fn thermal_only_has_no_rn_constant() {
        let m = PhaseNoiseModel::thermal_only(100.0, 1.0e8).unwrap();
        assert!(m.rn_constant().is_none());
        assert_eq!(m.b_flicker(), 0.0);
    }

    #[test]
    fn relative_models_add_coefficients() {
        let m = PhaseNoiseModel::new(3.0, 7.0, 1.0e8).unwrap();
        let rel = m.relative_to_identical();
        assert_eq!(rel.b_thermal(), 6.0);
        assert_eq!(rel.b_flicker(), 14.0);

        let other = PhaseNoiseModel::new(1.0, 2.0, 1.002e8).unwrap();
        let combined = m.relative_to(&other).unwrap();
        assert_rel(combined.b_thermal(), 4.0, 1e-12);
        assert_rel(combined.b_flicker(), 9.0, 1e-12);
        assert_rel(combined.frequency(), 1.001e8, 1e-12);
    }

    #[test]
    fn relative_to_rejects_mismatched_frequencies() {
        let a = PhaseNoiseModel::new(1.0, 1.0, 1.0e8).unwrap();
        let b = PhaseNoiseModel::new(1.0, 1.0, 2.0e8).unwrap();
        assert!(a.relative_to(&b).is_err());
    }

    #[test]
    fn constructor_validation() {
        assert!(PhaseNoiseModel::new(-1.0, 0.0, 1.0e8).is_err());
        assert!(PhaseNoiseModel::new(1.0, -1.0, 1.0e8).is_err());
        assert!(PhaseNoiseModel::new(1.0, 1.0, 0.0).is_err());
        assert!(PhaseNoiseModel::new(1.0, 1.0, f64::NAN).is_err());
        assert!(PhaseNoiseModel::from_sigma_n_coefficients(-1.0, 0.0, 1.0e8).is_err());
    }
}
