//! Special functions needed by the hypothesis tests: complementary error function,
//! log-gamma, regularized incomplete gamma, normal and chi-squared distribution functions.
//!
//! Implementations follow the classical Numerical-Recipes-style series/continued-fraction
//! expansions; accuracy (≈1e-10 relative) is far beyond what the statistical tests need.

use crate::{Result, StatsError};

/// Complementary error function `erfc(x)`.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    let ans = t
        * (-z * z - 1.26551223
            + t * (1.00002368
                + t * (0.37409196
                    + t * (0.09678418
                        + t * (-0.18628806
                            + t * (0.27886807
                                + t * (-1.13520398
                                    + t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal cumulative distribution function.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Natural logarithm of the gamma function (Lanczos approximation, g = 7, n = 9).
pub fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x)
    } else {
        let x = x - 1.0;
        let mut a = COEFFS[0];
        let t = x + 7.5;
        for (i, &c) in COEFFS.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
    }
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x) / Γ(a)`.
///
/// # Errors
///
/// Returns an error for `a <= 0` or `x < 0`, or when the expansion fails to converge.
pub fn gamma_p(a: f64, x: f64) -> Result<f64> {
    if a <= 0.0 || x < 0.0 || !a.is_finite() || !x.is_finite() {
        return Err(StatsError::InvalidParameter {
            name: "gamma_p",
            reason: format!("requires a > 0 and x >= 0, got a = {a}, x = {x}"),
        });
    }
    if x == 0.0 {
        return Ok(0.0);
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        Ok(1.0 - gamma_q_continued_fraction(a, x)?)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 - P(a, x)`.
///
/// # Errors
///
/// Same domain requirements as [`gamma_p`].
pub fn gamma_q(a: f64, x: f64) -> Result<f64> {
    Ok(1.0 - gamma_p(a, x)?)
}

fn gamma_p_series(a: f64, x: f64) -> Result<f64> {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-14;
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * EPS {
            return Ok(sum * (-x + a * x.ln() - ln_gamma(a)).exp());
        }
    }
    Err(StatsError::NoConvergence {
        routine: "gamma_p_series",
    })
}

fn gamma_q_continued_fraction(a: f64, x: f64) -> Result<f64> {
    const MAX_ITER: usize = 500;
    const EPS: f64 = 1e-14;
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            return Ok((-x + a * x.ln() - ln_gamma(a)).exp() * h);
        }
    }
    Err(StatsError::NoConvergence {
        routine: "gamma_q_continued_fraction",
    })
}

/// Survival function (upper tail probability) of the χ² distribution.
///
/// # Errors
///
/// Returns an error for `k == 0` or `x < 0`.
pub fn chi_squared_sf(x: f64, k: usize) -> Result<f64> {
    if k == 0 {
        return Err(StatsError::InvalidParameter {
            name: "k",
            reason: "degrees of freedom must be at least 1".to_string(),
        });
    }
    gamma_q(k as f64 / 2.0, x / 2.0)
}

/// Asymptotic Kolmogorov–Smirnov survival function
/// `Q_KS(λ) = 2 Σ_{j≥1} (-1)^{j-1} e^{-2 j² λ²}`.
pub fn kolmogorov_sf(lambda: f64) -> f64 {
    if lambda <= 0.0 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for j in 1..=100 {
        let term = (-2.0 * (j as f64) * (j as f64) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-16 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn erf_reference_values() {
        let erf = |x: f64| 1.0 - erfc(x);
        assert_close(erf(0.0), 0.0, 2e-7);
        assert_close(erf(1.0), 0.842_700_792_949_715, 2e-7);
        assert_close(erf(-1.0), -0.842_700_792_949_715, 2e-7);
        assert_close(erf(2.0), 0.995_322_265_018_953, 2e-7);
        assert_close(erfc(3.0), 2.209_049_699_858_544e-5, 1e-9);
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert_close(normal_cdf(0.0), 0.5, 2e-7);
        assert_close(normal_cdf(1.96), 0.975_002_104_851_78, 1e-6);
        assert_close(normal_cdf(-1.96), 0.024_997_895_148_22, 1e-6);
        assert_close(normal_cdf(1.6448536269514722), 0.95, 1e-6);
    }

    #[test]
    fn ln_gamma_reference_values() {
        assert_close(ln_gamma(1.0), 0.0, 1e-10);
        assert_close(ln_gamma(2.0), 0.0, 1e-10);
        assert_close(ln_gamma(5.0), (24.0f64).ln(), 1e-10);
        assert_close(ln_gamma(0.5), (std::f64::consts::PI.sqrt()).ln(), 1e-10);
        // ln Γ(10.3) ≈ 13.482 036 79 (Stirling series cross-check).
        assert_close(ln_gamma(10.3), 13.482_036_79, 1e-6);
    }

    #[test]
    fn gamma_p_matches_chi_squared_tables() {
        // The χ² CDF with k dof is P(k/2, x/2); with 2 dof it is 1 - e^{-x/2}.
        for x in [0.1, 1.0, 3.0, 10.0] {
            let expected = 1.0 - (-x / 2.0f64).exp();
            assert_close(gamma_p(1.0, x / 2.0).unwrap(), expected, 1e-10);
        }
        // Standard critical values: P(χ²_1 <= 3.841) ≈ 0.95, P(χ²_5 <= 11.070) ≈ 0.95.
        assert_close(gamma_p(0.5, 3.841 / 2.0).unwrap(), 0.95, 1e-3);
        assert_close(gamma_p(2.5, 11.070 / 2.0).unwrap(), 0.95, 1e-3);
        assert_close(chi_squared_sf(11.070, 5).unwrap(), 0.05, 1e-3);
    }

    #[test]
    fn gamma_p_q_sum_to_one() {
        for a in [0.5, 1.0, 3.7, 25.0] {
            for x in [0.01, 0.5, 2.0, 40.0] {
                let p = gamma_p(a, x).unwrap();
                let q = gamma_q(a, x).unwrap();
                assert_close(p + q, 1.0, 1e-10);
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn gamma_p_rejects_bad_domain() {
        assert!(gamma_p(0.0, 1.0).is_err());
        assert!(gamma_p(1.0, -1.0).is_err());
        assert!(chi_squared_sf(1.0, 0).is_err());
    }

    #[test]
    fn kolmogorov_sf_reference_values() {
        assert_close(kolmogorov_sf(0.0), 1.0, 1e-12);
        // Q_KS(1.3581) ≈ 0.05 and Q_KS(1.2238) ≈ 0.10 (classical critical values).
        assert_close(kolmogorov_sf(1.3581), 0.05, 2e-3);
        assert_close(kolmogorov_sf(1.2238), 0.10, 3e-3);
        assert!(kolmogorov_sf(5.0) < 1e-10);
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn normal_cdf_is_monotone(a in -6.0f64..6.0, b in -6.0f64..6.0) {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-12);
            }

            #[test]
            fn gamma_p_is_monotone_in_x(a in 0.1f64..20.0, x in 0.0f64..40.0, dx in 0.0f64..5.0) {
                let p1 = gamma_p(a, x).unwrap();
                let p2 = gamma_p(a, x + dx).unwrap();
                prop_assert!(p2 + 1e-12 >= p1);
            }

            #[test]
            fn erf_is_odd(x in -5.0f64..5.0) {
                // erf(x) + erf(-x) = 2 - erfc(x) - erfc(-x).
                prop_assert!((2.0 - erfc(x) - erfc(-x)).abs() < 1e-7);
            }
        }
    }
}
