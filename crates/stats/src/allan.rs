//! The overlapping Allan variance, for oscillator stability analysis.
//!
//! The paper's statistic `σ²_N` is closely related to the two-sample (Allan) variance:
//! Allan (1966) introduced it precisely because the ordinary variance of an oscillator's
//! frequency fluctuations diverges in the presence of flicker noise.  The estimator here
//! operates on a **phase (time-error)** series `x_k` in seconds, whose fractional
//! frequencies are `y_k = (x_{k+1} - x_k)/tau0`.

use crate::{ensure_finite, Result, StatsError};

fn check_tau0(tau0: f64) -> Result<()> {
    if tau0 <= 0.0 || !tau0.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "tau0",
            reason: format!("must be positive and finite, got {tau0}"),
        });
    }
    Ok(())
}

fn check_m(m: usize) -> Result<()> {
    if m == 0 {
        return Err(StatsError::InvalidParameter {
            name: "m",
            reason: "averaging factor must be at least 1".to_string(),
        });
    }
    Ok(())
}

/// Overlapping Allan variance computed from a phase series `x_k` (seconds).
///
/// Uses the standard estimator
/// `σ²_y(m·tau0) = Σ (x_{i+2m} - 2x_{i+m} + x_i)² / (2·(m·tau0)²·(M - 2m))`
/// where `M` is the number of phase samples.
///
/// # Errors
///
/// Returns an error when fewer than `2m + 1` phase samples are available or `tau0 <= 0`.
pub fn overlapping_allan_variance(phase: &[f64], tau0: f64, m: usize) -> Result<f64> {
    ensure_finite(phase)?;
    check_tau0(tau0)?;
    check_m(m)?;
    if phase.len() < 2 * m + 1 {
        return Err(StatsError::SeriesTooShort {
            len: phase.len(),
            needed: 2 * m + 1,
        });
    }
    let tau = m as f64 * tau0;
    let terms = phase.len() - 2 * m;
    let sum: f64 = (0..terms)
        .map(|i| {
            let d = phase[i + 2 * m] - 2.0 * phase[i + m] + phase[i];
            d * d
        })
        .sum();
    Ok(sum / (2.0 * tau * tau * terms as f64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The phase series (starting at 0) whose fractional frequencies are `freq`.
    fn integrate(freq: &[f64], tau0: f64) -> Vec<f64> {
        std::iter::once(0.0)
            .chain(freq.iter().scan(0.0, |acc, &y| {
                *acc += y * tau0;
                Some(*acc)
            }))
            .collect()
    }

    fn white_fm_phase(len: usize, sigma_y: f64, tau0: f64, seed: u64) -> Vec<f64> {
        // White frequency noise: y_k i.i.d. N(0, sigma_y²); x_k is the running integral.
        let mut rng = StdRng::seed_from_u64(seed);
        let freq: Vec<f64> = (0..len)
            .map(|_| {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                sigma_y * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect();
        integrate(&freq, tau0)
    }

    #[test]
    fn allan_variance_of_white_fm_scales_as_one_over_m() {
        // For white FM noise, σ²_y(τ) = σ_y²·tau0/τ, i.e. halving with each doubling of m.
        let tau0 = 1e-3;
        let sigma_y = 1e-9;
        let phase = white_fm_phase(200_000, sigma_y, tau0, 42);
        let v1 = overlapping_allan_variance(&phase, tau0, 1).unwrap();
        let v4 = overlapping_allan_variance(&phase, tau0, 4).unwrap();
        let v16 = overlapping_allan_variance(&phase, tau0, 16).unwrap();
        assert!((v1 / (sigma_y * sigma_y) - 1.0).abs() < 0.05, "v1 = {v1}");
        assert!((v1 / v4 - 4.0).abs() < 0.6, "ratio {}", v1 / v4);
        assert!((v4 / v16 - 4.0).abs() < 0.8, "ratio {}", v4 / v16);
    }

    #[test]
    fn error_paths() {
        assert!(overlapping_allan_variance(&[1.0, 2.0], 1.0, 1).is_err());
        assert!(overlapping_allan_variance(&[1.0, 2.0, 3.0], 0.0, 1).is_err());
        assert!(overlapping_allan_variance(&[1.0, 2.0, 3.0], 1.0, 0).is_err());
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn variances_are_nonnegative(
                freq in proptest::collection::vec(-1e-6f64..1e-6, 32..128),
                m in 1usize..8,
            ) {
                let phase = integrate(&freq, 1.0);
                prop_assume!(phase.len() > 3 * m);
                prop_assert!(overlapping_allan_variance(&phase, 1.0, m).unwrap() >= 0.0);
            }

            #[test]
            fn constant_frequency_has_zero_allan_variance(
                offset in -1e-3f64..1e-3,
                m in 1usize..5,
            ) {
                let freq = vec![offset; 64];
                let phase = integrate(&freq, 1.0);
                let v = overlapping_allan_variance(&phase, 1.0, m).unwrap();
                prop_assert!(v.abs() < 1e-20);
            }
        }
    }
}
