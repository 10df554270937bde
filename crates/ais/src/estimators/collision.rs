//! Collision estimate (SP 800-90B §6.3.2).
//!
//! Walks the sequence measuring the waiting time until the first repeated value
//! (for binary samples: 2 when the pair matches, 3 otherwise), pushes the mean
//! waiting time down to its 99 % lower confidence bound, and inverts the spec's
//! expected-waiting-time formula for the most-likely-sample probability `p`.
//!
//! The inversion uses the specification's `F(1/z) = Γ(3, z)·z⁻³·e^z` form; for
//! integer shape 3 the upper incomplete gamma has the closed form
//! `Γ(3, z) = e^{−z}(z² + 2z + 2)`, so `F(q) = q + 2q² + 2q³` and the expected
//! waiting time reduces to `E[t] = 2 + 2pq` — the bisection below converges on the
//! same value the spec's formula produces, kept in its published shape for
//! auditability.

use crate::bits::ensure_bits;
use crate::Result;

use super::{ensure_min_len, min_entropy_from_probability, EstimatorResult, Z_99};

/// The specification's `F(q) = Γ(3, 1/q)·q⁻³·e^{1/q}` in closed form.
fn f_of_q(q: f64) -> f64 {
    q + 2.0 * q * q + 2.0 * q * q * q
}

/// Expected collision waiting time for most-likely-sample probability `p` (binary).
fn expected_waiting_time(p: f64) -> f64 {
    let q = 1.0 - p;
    let inv_diff = 0.5 * (1.0 / p - 1.0 / q);
    p / (q * q) * (1.0 + inv_diff) * f_of_q(q) - p / q * inv_diff
}

/// Runs the collision estimate over a bit sequence.
///
/// # Errors
///
/// Returns an error for sequences too short to contain at least two collisions or
/// containing non-bit values.
pub fn collision_estimate(bits: &[u8]) -> Result<EstimatorResult> {
    ensure_bits(bits)?;
    ensure_min_len(bits, 16)?;
    let (n2, n3) = collision_counts(bits);
    Ok(collision_result_from_counts(n2, n3))
}

/// Counts the collision waiting times in one pass.  Binary samples collide
/// within two (equal pair, `n2`) or three (unequal pair resolved by a third
/// sample, `n3`) samples; a trailing unequal pair without its third sample is
/// discarded, as in the spec's scan.
pub(crate) fn collision_counts(bits: &[u8]) -> (u64, u64) {
    let (mut n2, mut n3) = (0u64, 0u64);
    let mut i = 0usize;
    while i + 1 < bits.len() {
        if bits[i] == bits[i + 1] {
            n2 += 1;
            i += 2;
        } else if i + 2 < bits.len() {
            n3 += 1;
            i += 3;
        } else {
            break;
        }
    }
    (n2, n3)
}

/// The estimate from the waiting-time counts.  All binary waiting times are 2
/// or 3, so mean and variance group exactly over the two counts — the same
/// sums a per-event pass produces, without materializing the event list.
pub(crate) fn collision_result_from_counts(n2: u64, n3: u64) -> EstimatorResult {
    let v = (n2 + n3) as usize;
    debug_assert!(v >= 2, "16 bits always contain two collisions");
    let mean = (2 * n2 + 3 * n3) as f64 / v as f64;
    let (d2, d3) = (2.0 - mean, 3.0 - mean);
    let var = (n2 as f64 * d2 * d2 + n3 as f64 * d3 * d3) / (v - 1) as f64;
    let mean_lo = mean - Z_99 * var.sqrt() / (v as f64).sqrt();

    // E[t] peaks at 2.5 for p = 1/2 and falls toward 2 as the bias grows; a lower
    // confidence bound at or above the peak means the data is indistinguishable
    // from ideal and the estimate saturates at p = 1/2.
    let p = if mean_lo >= expected_waiting_time(0.5) {
        0.5
    } else {
        bisect_probability(mean_lo)
    };
    let h = min_entropy_from_probability(p);
    EstimatorResult::new(
        "collision",
        h,
        format!("v {v}, X̄ {mean:.6}, X̄' {mean_lo:.6}, p {p:.6}"),
    )
}

/// Solves `expected_waiting_time(p) = target` for `p ∈ [1/2, 1)` (the function is
/// strictly decreasing on that interval).
fn bisect_probability(target: f64) -> f64 {
    let (mut lo, mut hi) = (0.5f64, 1.0 - 1e-12);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if expected_waiting_time(mid) > target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn waiting_time_formula_matches_the_closed_form() {
        // The spec's formula reduces to 2 + 2pq for binary samples.
        for &p in &[0.5, 0.6, 0.75, 0.9, 0.99] {
            let q = 1.0 - p;
            assert!(
                (expected_waiting_time(p) - (2.0 + 2.0 * p * q)).abs() < 1e-12,
                "p = {p}"
            );
        }
    }

    #[test]
    fn ideal_bits_assess_high_and_biased_bits_low() {
        let mut rng = StdRng::seed_from_u64(11);
        let ideal: Vec<u8> = (0..1 << 15).map(|_| rng.gen_range(0..=1)).collect();
        // The collision estimate is the battery's most conservative member: the
        // confidence slack enters p through a square root, so ideal data at 32 kbit
        // assesses ≈ 0.8 (NIST's reference tool shows the same small-n behavior).
        let high = collision_estimate(&ideal).unwrap().h_per_bit;
        assert!(high > 0.75, "ideal assessed {high}");

        let biased: Vec<u8> = (0..1 << 15).map(|_| u8::from(rng.gen_bool(0.85))).collect();
        let low = collision_estimate(&biased).unwrap().h_per_bit;
        // True min-entropy of p = 0.85 is −log2(0.85) ≈ 0.234.
        assert!(low < 0.45, "biased assessed {low}");
        assert!(low > 0.05, "biased assessed {low}");
    }

    #[test]
    fn alternating_bits_saturate_at_half() {
        // 0101…: every waiting time is 3, above the ideal mean of 2.5 → p = 1/2.
        let bits: Vec<u8> = (0..4096).map(|i| (i % 2) as u8).collect();
        let result = collision_estimate(&bits).unwrap();
        assert_eq!(result.h_per_bit, 1.0, "{}", result.detail);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(collision_estimate(&[0, 1, 0]).is_err());
        assert!(collision_estimate(&[2; 100]).is_err());
    }
}
