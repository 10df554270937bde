//! Most common value estimate (SP 800-90B §6.3.1).
//!
//! The frequency of the mode, pushed to its 99 % upper confidence bound, bounds the
//! probability of the most likely sample: `H = −log2(p_u)`.  For binary sequences
//! this is the estimator that catches plain bias; everything subtler (correlation,
//! periodicity) is left to the later estimators, which is why the battery reduces by
//! the minimum.

use crate::bits::ensure_bits;
use crate::Result;

use super::{
    ensure_min_len, min_entropy_from_probability, upper_probability_bound, EstimatorResult,
};

/// Runs the most common value estimate over a bit sequence.
///
/// # Errors
///
/// Returns an error for sequences shorter than 2 bits or containing non-bit values.
pub fn mcv_estimate(bits: &[u8]) -> Result<EstimatorResult> {
    ensure_bits(bits)?;
    ensure_min_len(bits, 2)?;
    let ones: usize = bits.iter().map(|&b| b as usize).sum();
    Ok(mcv_result_from_counts(ones, bits.len()))
}

/// The estimate from the ones count of `n` bits — shared by [`mcv_estimate`]
/// and the fused [`counting_estimates`](super::counting_estimates) pass.
pub(crate) fn mcv_result_from_counts(ones: usize, n: usize) -> EstimatorResult {
    debug_assert!(n >= 2 && ones <= n);
    let (mode, count) = if ones * 2 >= n {
        (1u8, ones)
    } else {
        (0u8, n - ones)
    };
    let p_hat = count as f64 / n as f64;
    let p_u = upper_probability_bound(p_hat, n);
    let h = min_entropy_from_probability(p_u);
    EstimatorResult::new(
        "mcv",
        h,
        format!("mode {mode} × {count}/{n}, p̂ {p_hat:.6}, p_u {p_u:.6}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hand_computed_example() {
        // 12 ones out of 20: p̂ = 0.6, p_u = 0.6 + 2.576·sqrt(0.24/19).
        let bits = [1u8, 0, 1, 1, 0, 1, 0, 1, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 0];
        let result = mcv_estimate(&bits).unwrap();
        let p_u = 0.6 + 2.576 * (0.24f64 / 19.0).sqrt();
        assert!((result.h_per_bit - (-p_u.log2())).abs() < 1e-12);
        assert!(result.detail.contains("mode 1"));
    }

    #[test]
    fn constant_sequence_assesses_zero() {
        let result = mcv_estimate(&[1u8; 100]).unwrap();
        assert_eq!(result.h_per_bit, 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(mcv_estimate(&[1]).is_err());
        assert!(mcv_estimate(&[0, 2]).is_err());
    }
}
