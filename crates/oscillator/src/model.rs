//! The accumulated-jitter variance model `σ²_N` (Eq. 9 and Eq. 11 of the paper).
//!
//! [`AccumulationModel`] evaluates, for a given [`PhaseNoiseModel`]:
//!
//! * the closed form `σ²_N = 2·b_th/f0³·N + 8·ln2·b_fl/f0⁴·N²` (Eq. 11),
//! * the spectral integral `σ²_N = 8/(π²·f0²)·∫ Sφ(f)·sin⁴(π·f·N/f0) df` (Eq. 9) by
//!   numerical quadrature — used to validate the closed form,
//! * the thermal/flicker decomposition, the ratio `r_N` and the independence threshold
//!   derived from it (Section III-E).

use serde::{Deserialize, Serialize};

use crate::phase::PhaseNoiseModel;
use crate::{OscError, Result};

/// Evaluator of the accumulated-jitter variance for a phase-noise model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccumulationModel {
    model: PhaseNoiseModel,
}

impl AccumulationModel {
    /// Wraps a phase-noise model.
    pub fn new(model: PhaseNoiseModel) -> Self {
        Self { model }
    }

    /// Thermal contribution `σ²_{N,th} = 2·b_th/f0³·N` (linear in `N`).
    pub fn thermal_component(&self, n: usize) -> f64 {
        2.0 * self.model.b_thermal() / self.model.frequency().powi(3) * n as f64
    }

    /// Flicker contribution `σ²_{N,fl} = 8·ln2·b_fl/f0⁴·N²` (quadratic in `N`).
    pub fn flicker_component(&self, n: usize) -> f64 {
        8.0 * std::f64::consts::LN_2 * self.model.b_flicker() / self.model.frequency().powi(4)
            * (n as f64)
            * (n as f64)
    }

    /// Closed-form accumulated variance `σ²_N` (Eq. 11).
    pub fn sigma2_n(&self, n: usize) -> f64 {
        self.thermal_component(n) + self.flicker_component(n)
    }

    /// Ratio `r_N = σ²_{N,th}/σ²_N` of the thermal contribution to the total (Sec. III-E).
    ///
    /// Returns 1 for `n == 0` or a thermal-only model.
    pub fn rn_ratio(&self, n: usize) -> f64 {
        let total = self.sigma2_n(n);
        if total == 0.0 {
            return 1.0;
        }
        self.thermal_component(n) / total
    }

    /// Largest accumulation depth `N` for which `r_N > min_ratio`, i.e. for which `2N`
    /// consecutive jitter realizations can still be treated as (almost) mutually
    /// independent.  The paper uses `min_ratio = 0.95` and obtains `N < 281`.
    ///
    /// Returns `None` for a thermal-only model (every depth qualifies).
    ///
    /// # Errors
    ///
    /// Returns an error when `min_ratio` is not in `(0, 1)`.
    pub fn independence_threshold(&self, min_ratio: f64) -> Result<Option<u64>> {
        if !(min_ratio > 0.0 && min_ratio < 1.0) {
            return Err(OscError::InvalidParameter {
                name: "min_ratio",
                reason: format!("must be in (0, 1), got {min_ratio}"),
            });
        }
        match self.model.rn_constant() {
            None => Ok(None),
            Some(k) => {
                // r_N = K/(K+N) > p  ⇔  N < K·(1-p)/p
                let threshold = k * (1.0 - min_ratio) / min_ratio;
                Ok(Some(threshold.floor().max(0.0) as u64))
            }
        }
    }

    /// Numerical evaluation of the spectral integral (Eq. 9):
    /// `σ²_N = 8/(π²·f0²) · ∫_0^∞ Sφ(f)·sin⁴(π·f·N/f0) df`.
    ///
    /// The integral is computed in the substituted variable `x = f·N/f0` with composite
    /// Simpson quadrature on `[0, x_max]` plus an analytic tail that replaces `sin⁴` by
    /// its mean value 3/8.
    ///
    /// # Errors
    ///
    /// Returns an error when `n == 0`.
    pub fn sigma2_n_numeric(&self, n: usize) -> Result<f64> {
        if n == 0 {
            return Err(OscError::InvalidParameter {
                name: "n",
                reason: "accumulation depth must be at least 1".to_string(),
            });
        }
        let f0 = self.model.frequency();
        let nf = n as f64;
        // After x = f·N/f0:  σ²_N = 8/(π²·f0²) · ∫ [b_th·N/(x²·f0) + b_fl·N²/(x³·f0²)]·sin⁴(πx) dx
        let a = self.model.b_thermal() * nf / f0;
        let b = self.model.b_flicker() * nf * nf / (f0 * f0);
        let integrand = |x: f64| -> f64 {
            if x <= 0.0 {
                return 0.0;
            }
            let s = (std::f64::consts::PI * x).sin();
            let s4 = s * s * s * s;
            (a / (x * x) + b / (x * x * x)) * s4
        };
        let x_max = 200.0;
        let steps = 400_000; // even
        let h = x_max / steps as f64;
        let mut sum = integrand(0.0) + integrand(x_max);
        for i in 1..steps {
            let x = i as f64 * h;
            sum += integrand(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
        }
        let body = sum * h / 3.0;
        // Tail: sin⁴ averages to 3/8 over each period.
        let tail = 0.375 * (a / x_max + b / (2.0 * x_max * x_max));
        Ok(8.0 / (std::f64::consts::PI.powi(2) * f0 * f0) * (body + tail))
    }

    /// Sweeps the closed-form `σ²_N` over a list of depths, returning `(N, σ²_N)` pairs.
    pub fn sweep(&self, depths: &[usize]) -> Vec<(usize, f64)> {
        depths.iter().map(|&n| (n, self.sigma2_n(n))).collect()
    }
}

impl From<PhaseNoiseModel> for AccumulationModel {
    fn from(model: PhaseNoiseModel) -> Self {
        Self::new(model)
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
    fn closed_form_matches_paper_normalized_fit() {
        // The paper's fit: σ²_N·f0² = 5.36e-6·N + quadratic term.
        let acc = AccumulationModel::new(PhaseNoiseModel::date14_experiment());
        let thermal_n1 = acc.thermal_component(1) * (103.0e6f64).powi(2);
        assert_rel(thermal_n1, 5.36e-6, 2e-3);
        // At N = K = 5354 thermal and flicker contributions are equal.
        assert_rel(
            acc.thermal_component(5354),
            acc.flicker_component(5354),
            1e-3,
        );
    }

    #[test]
    fn rn_ratio_follows_k_over_k_plus_n() {
        let acc = AccumulationModel::new(PhaseNoiseModel::date14_experiment());
        for n in [1usize, 10, 100, 1000, 5354, 30000] {
            let expected = 5354.0 / (5354.0 + n as f64);
            assert_rel(acc.rn_ratio(n), expected, 1e-6);
        }
        assert_eq!(acc.rn_ratio(0), 1.0);
    }

    #[test]
    fn independence_threshold_reproduces_the_paper_value() {
        let acc = AccumulationModel::new(PhaseNoiseModel::date14_experiment());
        let threshold = acc.independence_threshold(0.95).unwrap().unwrap();
        // K·(1-0.95)/0.95 = 5354/19 ≈ 281.8 → the paper quotes N < 281.
        assert_eq!(threshold, 281);
    }

    #[test]
    fn independence_threshold_edge_cases() {
        let thermal = AccumulationModel::new(PhaseNoiseModel::thermal_only(100.0, 1.0e8).unwrap());
        assert_eq!(thermal.independence_threshold(0.95).unwrap(), None);
        let acc = AccumulationModel::new(PhaseNoiseModel::date14_experiment());
        assert!(acc.independence_threshold(0.0).is_err());
        assert!(acc.independence_threshold(1.0).is_err());
        // A stricter ratio gives a smaller threshold.
        let strict = acc.independence_threshold(0.99).unwrap().unwrap();
        let loose = acc.independence_threshold(0.90).unwrap().unwrap();
        assert!(strict < loose);
    }

    #[test]
    fn thermal_only_model_is_exactly_linear() {
        let acc = AccumulationModel::new(PhaseNoiseModel::thermal_only(276.04, 103.0e6).unwrap());
        let s1 = acc.sigma2_n(1);
        for n in [2usize, 10, 100, 10_000] {
            assert_rel(acc.sigma2_n(n), s1 * n as f64, 1e-12);
            assert_eq!(acc.flicker_component(n), 0.0);
            assert_eq!(acc.rn_ratio(n), 1.0);
        }
    }

    #[test]
    fn flicker_dominates_at_large_depths() {
        let acc = AccumulationModel::new(PhaseNoiseModel::date14_experiment());
        let small = acc.sigma2_n(10);
        let large = acc.sigma2_n(20_000);
        // Pure linearity would give a factor 2000; flicker pushes it far beyond.
        assert!(large / small > 4000.0, "ratio {}", large / small);
    }

    #[test]
    fn numeric_integral_matches_closed_form_thermal_only() {
        let acc = AccumulationModel::new(PhaseNoiseModel::thermal_only(276.04, 103.0e6).unwrap());
        for n in [1usize, 7, 64, 500] {
            let closed = acc.sigma2_n(n);
            let numeric = acc.sigma2_n_numeric(n).unwrap();
            assert_rel(numeric, closed, 0.01);
        }
    }

    #[test]
    fn numeric_integral_matches_closed_form_full_model() {
        let acc = AccumulationModel::new(PhaseNoiseModel::date14_experiment());
        for n in [1usize, 100, 5354, 20_000] {
            let closed = acc.sigma2_n(n);
            let numeric = acc.sigma2_n_numeric(n).unwrap();
            assert_rel(numeric, closed, 0.02);
        }
    }

    #[test]
    fn numeric_integral_rejects_zero_depth() {
        let acc = AccumulationModel::new(PhaseNoiseModel::date14_experiment());
        assert!(acc.sigma2_n_numeric(0).is_err());
    }

    #[test]
    fn sweep_and_normalization() {
        let acc = AccumulationModel::new(PhaseNoiseModel::date14_experiment());
        let sweep = acc.sweep(&[1, 10, 100]);
        assert_eq!(sweep.len(), 3);
        assert!(sweep[2].1 > sweep[1].1);
    }

    #[test]
    fn conversion_from_phase_noise_model() {
        let acc: AccumulationModel = PhaseNoiseModel::date14_experiment().into();
        assert!(acc.sigma2_n(1) > 0.0);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn sigma2_n_is_monotone_in_n(
                b_th in 1.0f64..1e4,
                b_fl in 0.0f64..1e7,
                n in 1usize..10_000,
            ) {
                let acc = AccumulationModel::new(
                    PhaseNoiseModel::new(b_th, b_fl, 1.0e8).unwrap(),
                );
                prop_assert!(acc.sigma2_n(n + 1) > acc.sigma2_n(n));
                prop_assert!(acc.rn_ratio(n) >= acc.rn_ratio(n + 1) - 1e-12);
            }
        }
    }
}
