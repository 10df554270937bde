//! Constants of the paper's own experiment (Sections III-E and IV-B).
//!
//! These values pin the simulated reproduction to the published measurement so that every
//! regenerated figure can be compared against the numbers quoted in the text.

/// Nominal frequency of the two ring oscillators: 103 MHz.
pub const FREQUENCY_HZ: f64 = 103.0e6;

/// Linear coefficient of the normalized fit reported in the paper:
/// `f0²·σ²_{N,th} = 5.36e-6 · N`.
pub const NORMALIZED_THERMAL_SLOPE: f64 = 5.36e-6;

/// Thermal phase-noise coefficient derived in Section IV-B: `b_th = 276.04 Hz`.
pub const B_THERMAL_HZ: f64 = 276.04;

/// Constant of the thermal-to-total ratio `r_N = K/(K+N)`: `K = 5354`.
pub const RN_CONSTANT: f64 = 5354.0;

/// Accumulation-depth threshold below which `r_N > 95 %`: `N < 281`.
pub const INDEPENDENCE_THRESHOLD_95: u64 = 281;

/// Thermal-only period jitter reported in Section IV-B: `σ ≈ 15.89 ps`.
pub const THERMAL_JITTER_SECONDS: f64 = 15.89e-12;

/// Relative thermal jitter reported in Section IV-B: `σ/T0 ≈ 1.6 ‰`.
pub const THERMAL_JITTER_RATIO: f64 = 1.6e-3;

#[cfg(test)]
mod tests {
    use super::*;
    use ptrng_osc::phase::PhaseNoiseModel;

    #[test]
    fn constants_are_mutually_consistent() {
        // 2·b_th/f0 must equal the normalized slope.
        let slope = 2.0 * B_THERMAL_HZ / FREQUENCY_HZ;
        assert!((slope - NORMALIZED_THERMAL_SLOPE).abs() / NORMALIZED_THERMAL_SLOPE < 5e-3);
        // sqrt(b_th/f0³) must equal the quoted jitter.
        let sigma = (B_THERMAL_HZ / FREQUENCY_HZ.powi(3)).sqrt();
        assert!((sigma - THERMAL_JITTER_SECONDS).abs() / THERMAL_JITTER_SECONDS < 5e-3);
        // σ·f0 must equal the quoted permil ratio.
        assert!((sigma * FREQUENCY_HZ - THERMAL_JITTER_RATIO).abs() / THERMAL_JITTER_RATIO < 0.05);
        // K·(1-p)/p at p = 0.95 floors to the quoted threshold.
        let threshold = (RN_CONSTANT * 0.05 / 0.95).floor() as u64;
        assert_eq!(threshold, INDEPENDENCE_THRESHOLD_95);
    }

    #[test]
    fn relative_model_matches_the_constants() {
        let model = PhaseNoiseModel::date14_experiment();
        assert_eq!(model.frequency(), FREQUENCY_HZ);
        assert_eq!(model.b_thermal(), B_THERMAL_HZ);
        assert!((model.rn_constant().unwrap() - RN_CONSTANT).abs() < 1e-6);
    }
}
