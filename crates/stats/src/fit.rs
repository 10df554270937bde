//! Least-squares fitting.
//!
//! Besides generic linear and basis-function fits, this module provides the fit at the heart of
//! the paper's Section IV: `σ²_N = a·N + b·N²` (no intercept), from which the thermal and
//! flicker phase-noise coefficients are recovered as `a = 2·b_th/f0³` and
//! `b = 8·ln2·b_fl/f0⁴`.

use serde::{Deserialize, Serialize};

use crate::{ensure_finite, Result, StatsError};

/// Result of a simple linear regression `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination R².
    pub r_squared: f64,
    /// Residual variance (sum of squared residuals divided by `n - 2`, or 0 if `n <= 2`).
    pub residual_variance: f64,
}

/// Result of the paper's two-parameter fit `σ²_N = a·N + b·N²`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SigmaNFit {
    /// Linear coefficient `a = 2·b_th/f0³` (thermal contribution).
    pub linear: f64,
    /// Quadratic coefficient `b = 8·ln2·b_fl/f0⁴` (flicker contribution).
    pub quadratic: f64,
    /// Coefficient of determination R².
    pub r_squared: f64,
}

fn validate_xy(x: &[f64], y: &[f64], min_len: usize) -> Result<()> {
    ensure_finite(x)?;
    ensure_finite(y)?;
    if x.len() != y.len() {
        return Err(StatsError::InvalidParameter {
            name: "x/y",
            reason: format!("length mismatch: {} vs {}", x.len(), y.len()),
        });
    }
    if x.len() < min_len {
        return Err(StatsError::SeriesTooShort {
            len: x.len(),
            needed: min_len,
        });
    }
    Ok(())
}

fn r_squared(y: &[f64], predicted: impl Fn(usize) -> f64) -> f64 {
    let n = y.len() as f64;
    let mean = y.iter().sum::<f64>() / n;
    let ss_tot: f64 = y.iter().map(|v| (v - mean) * (v - mean)).sum();
    let ss_res: f64 = y
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let r = v - predicted(i);
            r * r
        })
        .sum();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Ordinary least-squares fit of `y = slope·x + intercept`.
///
/// # Errors
///
/// Returns an error for mismatched lengths, fewer than two points, non-finite values, or
/// degenerate `x` (all identical).
pub fn linear_fit(x: &[f64], y: &[f64]) -> Result<LinearFit> {
    validate_xy(x, y, 2)?;
    let n = x.len() as f64;
    let sx: f64 = x.iter().sum();
    let sy: f64 = y.iter().sum();
    let sxx: f64 = x.iter().map(|v| v * v).sum();
    let sxy: f64 = x.iter().zip(y.iter()).map(|(a, b)| a * b).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-300 {
        return Err(StatsError::SingularSystem {
            context: "linear_fit",
        });
    }
    let slope = (n * sxy - sx * sy) / denom;
    let intercept = (sy - slope * sx) / n;
    let r2 = r_squared(y, |i| slope * x[i] + intercept);
    let ss_res: f64 = x
        .iter()
        .zip(y.iter())
        .map(|(a, b)| {
            let r = b - (slope * a + intercept);
            r * r
        })
        .sum();
    let residual_variance = if x.len() > 2 {
        ss_res / (x.len() as f64 - 2.0)
    } else {
        0.0
    };
    Ok(LinearFit {
        slope,
        intercept,
        r_squared: r2,
        residual_variance,
    })
}

/// Solves the square linear system `A·x = b` by Gaussian elimination with partial
/// pivoting.  `a` is given row-major and is consumed as scratch space.
///
/// # Errors
///
/// Returns an error when the matrix is singular (pivot below `1e-300`).
pub fn solve_linear_system(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>> {
    let n = b.len();
    if a.len() != n || a.iter().any(|row| row.len() != n) {
        return Err(StatsError::InvalidParameter {
            name: "a",
            reason: "matrix must be square and match the right-hand side".to_string(),
        });
    }
    for col in 0..n {
        // Partial pivoting.
        let mut pivot = col;
        for row in col + 1..n {
            if a[row][col].abs() > a[pivot][col].abs() {
                pivot = row;
            }
        }
        if a[pivot][col].abs() < 1e-300 {
            return Err(StatsError::SingularSystem {
                context: "solve_linear_system",
            });
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            let (pivot_rows, rest) = a.split_at_mut(row);
            let pivot_row = &pivot_rows[col];
            for (entry, pivot_entry) in rest[0][col..].iter_mut().zip(&pivot_row[col..]) {
                *entry -= factor * pivot_entry;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in col + 1..n {
            acc -= a[col][k] * x[k];
        }
        x[col] = acc / a[col][col];
    }
    Ok(x)
}

/// Weighted least-squares fit against arbitrary basis functions.
///
/// `basis(i, x)` returns the value of the `i`-th basis function at `x`; `weights` may be
/// `None` for an unweighted fit.  Returns the coefficient vector.
///
/// # Errors
///
/// Returns an error for degenerate inputs or a singular normal system.
pub fn basis_fit(
    x: &[f64],
    y: &[f64],
    weights: Option<&[f64]>,
    n_basis: usize,
    basis: impl Fn(usize, f64) -> f64,
) -> Result<Vec<f64>> {
    validate_xy(x, y, n_basis.max(1))?;
    if n_basis == 0 {
        return Err(StatsError::InvalidParameter {
            name: "n_basis",
            reason: "at least one basis function is required".to_string(),
        });
    }
    if let Some(w) = weights {
        if w.len() != x.len() {
            return Err(StatsError::InvalidParameter {
                name: "weights",
                reason: "length must match x".to_string(),
            });
        }
        ensure_finite(w)?;
        if w.iter().any(|&v| v < 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "weights",
                reason: "weights must be non-negative".to_string(),
            });
        }
    }
    let mut ata = vec![vec![0.0; n_basis]; n_basis];
    let mut atb = vec![0.0; n_basis];
    for (k, (&xk, &yk)) in x.iter().zip(y.iter()).enumerate() {
        let w = weights.map_or(1.0, |w| w[k]);
        let phi: Vec<f64> = (0..n_basis).map(|i| basis(i, xk)).collect();
        for i in 0..n_basis {
            atb[i] += w * phi[i] * yk;
            for j in 0..n_basis {
                ata[i][j] += w * phi[i] * phi[j];
            }
        }
    }
    solve_linear_system(ata, atb)
}

/// The paper's fit `σ²_N = a·N + b·N²` (no intercept term).
///
/// `ns` are the accumulation depths and `sigma2` the measured variances.  An optional
/// weight per point can be supplied (e.g. the number of `s_N` realizations behind each
/// estimate).
///
/// # Errors
///
/// Returns an error for fewer than two points, mismatched lengths, non-finite values or
/// a singular normal system.
pub fn sigma_n_fit(ns: &[f64], sigma2: &[f64], weights: Option<&[f64]>) -> Result<SigmaNFit> {
    let coeffs = basis_fit(ns, sigma2, weights, 2, |i, n| match i {
        0 => n,
        _ => n * n,
    })?;
    let (a, b) = (coeffs[0], coeffs[1]);
    let r2 = r_squared(sigma2, |i| a * ns[i] + b * ns[i] * ns[i]);
    Ok(SigmaNFit {
        linear: a,
        quadratic: b,
        r_squared: r2,
    })
}

/// Fit of `σ²_N = a·N` alone (the model valid under mutual independence).
///
/// # Errors
///
/// Returns an error for empty inputs, mismatched lengths or non-finite values.
pub fn linear_through_origin_fit(ns: &[f64], sigma2: &[f64]) -> Result<LinearFit> {
    validate_xy(ns, sigma2, 1)?;
    let sxx: f64 = ns.iter().map(|v| v * v).sum();
    if sxx == 0.0 {
        return Err(StatsError::SingularSystem {
            context: "linear_through_origin_fit",
        });
    }
    let sxy: f64 = ns.iter().zip(sigma2.iter()).map(|(a, b)| a * b).sum();
    let slope = sxy / sxx;
    let r2 = r_squared(sigma2, |i| slope * ns[i]);
    let ss_res: f64 = ns
        .iter()
        .zip(sigma2.iter())
        .map(|(a, b)| {
            let r = b - slope * a;
            r * r
        })
        .sum();
    let residual_variance = if ns.len() > 1 {
        ss_res / (ns.len() as f64 - 1.0)
    } else {
        0.0
    };
    Ok(LinearFit {
        slope,
        intercept: 0.0,
        r_squared: r2,
        residual_variance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v - 7.0).collect();
        let fit = linear_fit(&x, &y).unwrap();
        assert_close(fit.slope, 3.0, 1e-10);
        assert_close(fit.intercept, -7.0, 1e-9);
        assert_close(fit.r_squared, 1.0, 1e-12);
        assert_close(fit.residual_variance, 0.0, 1e-12);
    }

    #[test]
    fn linear_fit_rejects_degenerate_x() {
        let x = vec![2.0; 10];
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        assert!(linear_fit(&x, &y).is_err());
    }

    #[test]
    fn solve_linear_system_known_solution() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let b = vec![5.0, 10.0];
        let x = solve_linear_system(a, b).unwrap();
        assert_close(x[0], 1.0, 1e-12);
        assert_close(x[1], 3.0, 1e-12);
    }

    #[test]
    fn solve_linear_system_needs_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let b = vec![2.0, 3.0];
        let x = solve_linear_system(a, b).unwrap();
        assert_close(x[0], 3.0, 1e-12);
        assert_close(x[1], 2.0, 1e-12);
    }

    #[test]
    fn solve_linear_system_detects_singularity() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let b = vec![1.0, 2.0];
        assert!(solve_linear_system(a, b).is_err());
    }

    #[test]
    fn sigma_n_fit_recovers_paper_shape() {
        // Use the paper's fitted values: σ²_N·f0² = 5.36e-6·N + quadratic term with
        // crossover at N = 5354.
        let a = 5.36e-6;
        let b = a / 5354.0;
        let ns: Vec<f64> = (1..=200).map(|i| (i * 50) as f64).collect();
        let sigma2: Vec<f64> = ns.iter().map(|n| a * n + b * n * n).collect();
        let fit = sigma_n_fit(&ns, &sigma2, None).unwrap();
        assert_close(fit.linear, a, a * 1e-6);
        assert_close(fit.quadratic, b, b * 1e-6);
        assert_close(fit.linear / fit.quadratic, 5354.0, 0.5);
    }

    #[test]
    fn sigma_n_fit_pure_thermal_has_no_crossover() {
        let ns: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let sigma2: Vec<f64> = ns.iter().map(|n| 2.0 * n).collect();
        let fit = sigma_n_fit(&ns, &sigma2, None).unwrap();
        assert_close(fit.linear, 2.0, 1e-9);
        assert!(fit.quadratic.abs() < 1e-9);
    }

    #[test]
    fn weighted_fit_prefers_heavily_weighted_points() {
        // Two inconsistent groups of points; weights select the first group.
        let ns = vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0];
        let sigma2 = vec![2.0, 4.0, 6.0, 20.0, 40.0, 60.0];
        let w_first = vec![1e6, 1e6, 1e6, 1e-6, 1e-6, 1e-6];
        let fit = sigma_n_fit(&ns, &sigma2, Some(&w_first)).unwrap();
        assert_close(fit.linear + fit.quadratic, 2.0, 1e-3);
    }

    #[test]
    fn linear_through_origin_fit_behaviour() {
        let ns: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let y: Vec<f64> = ns.iter().map(|n| 4.0 * n).collect();
        let fit = linear_through_origin_fit(&ns, &y).unwrap();
        assert_close(fit.slope, 4.0, 1e-12);
        assert_eq!(fit.intercept, 0.0);
        assert_close(fit.r_squared, 1.0, 1e-12);
    }

    #[test]
    fn basis_fit_validates_weights() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![1.0, 2.0, 3.0];
        assert!(basis_fit(&x, &y, Some(&[1.0, 1.0]), 1, |_, v| v).is_err());
        assert!(basis_fit(&x, &y, Some(&[1.0, -1.0, 1.0]), 1, |_, v| v).is_err());
        assert!(basis_fit(&x, &y, None, 0, |_, v| v).is_err());
    }

    #[test]
    fn fit_rejects_mismatched_and_non_finite() {
        assert!(linear_fit(&[1.0, 2.0], &[1.0]).is_err());
        assert!(linear_fit(&[1.0, f64::NAN], &[1.0, 2.0]).is_err());
        assert!(sigma_n_fit(&[1.0], &[1.0], None).is_err());
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn linear_fit_exact_on_noiseless_lines(
                slope in -100.0f64..100.0,
                intercept in -100.0f64..100.0,
            ) {
                let x: Vec<f64> = (0..20).map(|i| i as f64).collect();
                let y: Vec<f64> = x.iter().map(|v| slope * v + intercept).collect();
                let fit = linear_fit(&x, &y).unwrap();
                prop_assert!((fit.slope - slope).abs() < 1e-6);
                prop_assert!((fit.intercept - intercept).abs() < 1e-5);
            }

            #[test]
            fn sigma_n_fit_exact_on_noiseless_model(
                a in 1e-9f64..1e-3,
                b in 1e-12f64..1e-6,
            ) {
                let ns: Vec<f64> = (1..=50).map(|i| (i * 13) as f64).collect();
                let y: Vec<f64> = ns.iter().map(|n| a * n + b * n * n).collect();
                let fit = sigma_n_fit(&ns, &y, None).unwrap();
                prop_assert!((fit.linear - a).abs() / a < 1e-5);
                prop_assert!((fit.quadratic - b).abs() / b < 1e-5);
            }
        }
    }
}
