//! Stochastic entropy-per-bit models for the eRO-TRNG.
//!
//! The classical models (Baudet et al. 2011 and the works the paper's Section II cites)
//! assume the jitter accumulated between two samplings is Gaussian with **independent**
//! per-period increments and derive a lower bound on the Shannon entropy per raw bit as
//! a function of the quality factor `Q` — the accumulated jitter variance expressed in
//! squared periods of the sampled oscillator:
//!
//! ```text
//! H ≥ 1 − (4 / (π²·ln 2)) · exp(−4·π²·Q)
//! ```
//!
//! The paper shows that the *measured* accumulated variance contains a flicker-noise
//! contribution whose realizations are mutually dependent.  Plugging the total measured
//! variance into the bound therefore **over-estimates** the entropy; only the thermal
//! part may be credited.  [`EntropyModel`] exposes both readings so the over-estimation
//! can be quantified (the paper's security argument).

use serde::{Deserialize, Serialize};

use ptrng_osc::model::AccumulationModel;
use ptrng_osc::phase::PhaseNoiseModel;

use crate::{check_positive, Result, TrngError};

/// Entropy-per-bit model of an eRO-TRNG whose relative jitter follows a
/// [`PhaseNoiseModel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EntropyModel {
    relative: PhaseNoiseModel,
}

impl EntropyModel {
    /// Creates the model from the phase noise of the **relative** jitter between the
    /// sampled and the sampling oscillator.
    pub fn new(relative: PhaseNoiseModel) -> Self {
        Self { relative }
    }

    /// The model of the paper's experimental oscillator pair.
    pub fn date14_experiment() -> Self {
        Self::new(PhaseNoiseModel::date14_experiment())
    }

    /// Accumulated relative-jitter variance over `n` periods as a *naive* experimenter
    /// would infer it from a `σ²_N` measurement under the independence assumption
    /// (`σ²_N/2`, including the flicker contribution).
    pub fn accumulated_variance_naive(&self, n: usize) -> f64 {
        AccumulationModel::new(self.relative).sigma2_n(n) / 2.0
    }

    /// Accumulated relative-jitter variance over `n` periods crediting only the thermal
    /// (genuinely independent) contribution: `b_th·n/f0³`.
    pub fn accumulated_variance_thermal(&self, n: usize) -> f64 {
        AccumulationModel::new(self.relative).thermal_component(n) / 2.0
    }

    /// Quality factor `Q = V·f0²` for an accumulated variance `V` (dimensionless).
    pub fn quality_factor(&self, accumulated_variance: f64) -> f64 {
        accumulated_variance * self.relative.frequency() * self.relative.frequency()
    }

    /// Baudet-style lower bound on the Shannon entropy per raw bit for a quality factor
    /// `Q`, clamped to `[0, 1]`.
    pub fn entropy_lower_bound(quality_factor: f64) -> f64 {
        let h = 1.0
            - 4.0 / (std::f64::consts::PI.powi(2) * std::f64::consts::LN_2)
                * (-4.0 * std::f64::consts::PI.powi(2) * quality_factor).exp();
        h.clamp(0.0, 1.0)
    }

    /// Entropy per bit claimed by the **naive** model (total measured variance assumed to
    /// come from independent realizations) at accumulation depth `n`.
    pub fn entropy_bound_naive(&self, n: usize) -> f64 {
        Self::entropy_lower_bound(self.quality_factor(self.accumulated_variance_naive(n)))
    }

    /// Entropy per bit guaranteed by the **flicker-aware** model (only the thermal
    /// contribution credited) at accumulation depth `n`.
    pub fn entropy_bound_thermal(&self, n: usize) -> f64 {
        Self::entropy_lower_bound(self.quality_factor(self.accumulated_variance_thermal(n)))
    }

    /// Amount by which the naive model over-states the entropy at depth `n`
    /// (always ≥ 0; this is the security margin the paper warns about).
    pub fn entropy_overestimation(&self, n: usize) -> f64 {
        (self.entropy_bound_naive(n) - self.entropy_bound_thermal(n)).max(0.0)
    }

    /// Smallest accumulation depth `n` for which the flicker-aware (thermal-only) bound
    /// reaches `target` bits of entropy per raw bit.
    ///
    /// # Errors
    ///
    /// Returns an error when `target` is not in `(0, 1)` or the model has no thermal
    /// component at all.
    pub fn minimum_depth_for_entropy(&self, target: f64) -> Result<u64> {
        if !(target > 0.0 && target < 1.0) {
            return Err(TrngError::InvalidParameter {
                name: "target",
                reason: format!("the entropy target must be in (0, 1), got {target}"),
            });
        }
        let b_th = check_positive("b_thermal", self.relative.b_thermal()).map_err(|_| {
            TrngError::InvalidParameter {
                name: "relative",
                reason: "the model has no thermal component".to_string(),
            }
        })?;
        // Invert H = 1 - c·exp(-4π²Q):  Q = ln(c/(1-H)) / (4π²)
        let c = 4.0 / (std::f64::consts::PI.powi(2) * std::f64::consts::LN_2);
        let q = (c / (1.0 - target)).ln() / (4.0 * std::f64::consts::PI.powi(2));
        // Q = V_th·f0² = b_th·n/f0  ⇒  n = Q·f0/b_th
        let n = q * self.relative.frequency() / b_th;
        Ok(n.ceil().max(1.0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_bound_shape() {
        assert!(EntropyModel::entropy_lower_bound(0.0) < 0.45);
        assert!(EntropyModel::entropy_lower_bound(0.05) > 0.15);
        assert!(EntropyModel::entropy_lower_bound(0.2) > 0.99);
        assert!(EntropyModel::entropy_lower_bound(1.0) > 0.999_999);
        // Monotone in Q.
        let mut prev = 0.0;
        for i in 0..100 {
            let h = EntropyModel::entropy_lower_bound(i as f64 * 0.01);
            assert!(h >= prev);
            prev = h;
        }
    }

    #[test]
    fn naive_bound_is_never_below_the_thermal_bound() {
        let model = EntropyModel::date14_experiment();
        for n in [10usize, 100, 1000, 5354, 50_000, 500_000] {
            let naive = model.entropy_bound_naive(n);
            let thermal = model.entropy_bound_thermal(n);
            assert!(naive + 1e-12 >= thermal, "n = {n}");
            assert!(model.entropy_overestimation(n) >= 0.0);
        }
    }

    #[test]
    fn overestimation_grows_with_depth_in_the_transition_region() {
        // Deep in the flicker-dominated regime the naive model credits far more variance
        // than the thermal-only model; the entropy gap is the paper's warning.
        let model = EntropyModel::date14_experiment();
        let shallow = model.entropy_overestimation(2_000);
        let deep = model.entropy_overestimation(20_000);
        assert!(deep > shallow, "shallow {shallow}, deep {deep}");
        assert!(deep > 0.05, "transition-regime overestimation {deep}");
    }

    #[test]
    fn both_bounds_converge_to_one_for_very_long_accumulation() {
        let model = EntropyModel::date14_experiment();
        assert!(model.entropy_bound_thermal(5_000_000) > 0.999);
        assert!(model.entropy_bound_naive(5_000_000) > 0.999);
    }

    #[test]
    fn quality_factor_matches_the_paper_quantities() {
        let model = EntropyModel::date14_experiment();
        // At N periods, thermal accumulated variance is b_th·N/f0³; normalized by the
        // period it equals (σ/T0)²·N with σ/T0 ≈ 1.6e-3.
        let n = 10_000;
        let q = model.quality_factor(model.accumulated_variance_thermal(n));
        let expected = (1.6e-3f64).powi(2) * n as f64;
        assert!(
            (q - expected).abs() / expected < 0.05,
            "q {q} vs {expected}"
        );
    }

    #[test]
    fn minimum_depth_inverts_the_thermal_bound() {
        let model = EntropyModel::date14_experiment();
        let n = model.minimum_depth_for_entropy(0.997).unwrap();
        let achieved = model.entropy_bound_thermal(n as usize);
        assert!(achieved >= 0.997, "achieved {achieved} at n = {n}");
        // One step below the threshold must not reach the target (up to rounding).
        if n > 2 {
            let below = model.entropy_bound_thermal((n / 2) as usize);
            assert!(below < 0.997);
        }
    }

    #[test]
    fn minimum_depth_validation() {
        let model = EntropyModel::date14_experiment();
        assert!(model.minimum_depth_for_entropy(0.0).is_err());
        assert!(model.minimum_depth_for_entropy(1.0).is_err());
        let no_thermal = EntropyModel::new(PhaseNoiseModel::new(0.0, 1.0e6, 1.0e8).unwrap());
        assert!(no_thermal.minimum_depth_for_entropy(0.5).is_err());
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn bounds_are_probabilities_and_ordered(
                b_th in 1.0f64..1e4,
                b_fl in 0.0f64..1e7,
                n in 1usize..100_000,
            ) {
                let model = EntropyModel::new(PhaseNoiseModel::new(b_th, b_fl, 1.0e8).unwrap());
                let naive = model.entropy_bound_naive(n);
                let thermal = model.entropy_bound_thermal(n);
                prop_assert!((0.0..=1.0).contains(&naive));
                prop_assert!((0.0..=1.0).contains(&thermal));
                prop_assert!(naive + 1e-12 >= thermal);
            }
        }
    }
}
