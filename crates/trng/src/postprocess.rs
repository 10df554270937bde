//! Algebraic post-processing of the raw binary sequence.
//!
//! AIS 31 distinguishes arithmetic/algebraic post-processing (entropy compaction, e.g.
//! XOR decimation or the von Neumann corrector) from cryptographic post-processing.
//! Only the former is modelled here; it is what the paper's Fig. 1 block diagram calls
//! the post-processing stage.

use ptrng_ais::bits::ensure_bits;

use crate::{Result, TrngError};

/// XOR decimation: each output bit is the XOR (parity) of `factor` consecutive raw bits.
///
/// Entropy per output bit increases monotonically with `factor` at the cost of an
/// exactly proportional throughput loss.  A trailing partial block is discarded.
///
/// # Errors
///
/// Returns an error when `factor == 0` or the input contains non-bit values.
pub fn xor_decimate(bits: &[u8], factor: usize) -> Result<Vec<u8>> {
    ensure_bits(bits)?;
    if factor == 0 {
        return Err(TrngError::InvalidParameter {
            name: "factor",
            reason: "the decimation factor must be at least 1".to_string(),
        });
    }
    Ok(bits
        .chunks_exact(factor)
        .map(|chunk| chunk.iter().fold(0u8, |acc, &b| acc ^ b))
        .collect())
}

/// Von Neumann corrector: consumes non-overlapping bit pairs, emits `0` for `01`, `1`
/// for `10`, and drops `00`/`11`.
///
/// The output of an independent-but-biased source is exactly unbiased; the price is a
/// data-dependent throughput of at most 25 %.
///
/// # Errors
///
/// Returns an error when the input contains non-bit values.
pub fn von_neumann(bits: &[u8]) -> Result<Vec<u8>> {
    ensure_bits(bits)?;
    Ok(bits
        .chunks_exact(2)
        .filter_map(|pair| match (pair[0], pair[1]) {
            (0, 1) => Some(0),
            (1, 0) => Some(1),
            _ => None,
        })
        .collect())
}

/// Theoretical bias of the XOR of `factor` independent bits that each have bias
/// `epsilon` (piling-up lemma): `2^{factor-1}·epsilon^{factor}`.
///
/// # Errors
///
/// Returns an error when `factor == 0` or `|epsilon| > 0.5`.
pub fn xor_output_bias(epsilon: f64, factor: usize) -> Result<f64> {
    if factor == 0 {
        return Err(TrngError::InvalidParameter {
            name: "factor",
            reason: "the decimation factor must be at least 1".to_string(),
        });
    }
    if epsilon.is_nan() || epsilon.abs() > 0.5 {
        return Err(TrngError::InvalidParameter {
            name: "epsilon",
            reason: format!("a bit bias cannot exceed 0.5 in magnitude, got {epsilon}"),
        });
    }
    Ok(2.0f64.powi(factor as i32 - 1) * epsilon.powi(factor as i32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn xor_decimation_parity() {
        let out = xor_decimate(&[1, 0, 1, 1, 1, 1, 0, 0, 1], 3).unwrap();
        assert_eq!(out, vec![0, 1, 1]);
        assert_eq!(xor_decimate(&[1, 0, 1], 1).unwrap(), vec![1, 0, 1]);
    }

    #[test]
    fn xor_decimation_reduces_bias() {
        let mut rng = StdRng::seed_from_u64(41);
        let biased: Vec<u8> = (0..200_000).map(|_| u8::from(rng.gen_bool(0.6))).collect();
        let out = xor_decimate(&biased, 4).unwrap();
        let p_in = biased.iter().map(|&b| b as f64).sum::<f64>() / biased.len() as f64;
        let p_out = out.iter().map(|&b| b as f64).sum::<f64>() / out.len() as f64;
        assert!((p_in - 0.6).abs() < 0.01);
        // Piling-up: output bias ≈ 2³·0.1⁴ = 8e-4.
        assert!((p_out - 0.5).abs() < 0.01, "p_out {p_out}");
        let predicted = xor_output_bias(0.1, 4).unwrap();
        assert!((predicted - 8.0e-4).abs() < 1e-12);
    }

    #[test]
    fn von_neumann_removes_bias_entirely() {
        let mut rng = StdRng::seed_from_u64(42);
        let biased: Vec<u8> = (0..400_000).map(|_| u8::from(rng.gen_bool(0.7))).collect();
        let out = von_neumann(&biased).unwrap();
        // Throughput: 2·p·(1-p) = 0.42 pairs kept → about 21 % of the input bit count.
        assert!(
            out.len() > 70_000 && out.len() < 95_000,
            "len {}",
            out.len()
        );
        let p_out = out.iter().map(|&b| b as f64).sum::<f64>() / out.len() as f64;
        assert!((p_out - 0.5).abs() < 0.01, "p_out {p_out}");
    }

    #[test]
    fn von_neumann_mapping_is_exact() {
        assert_eq!(
            von_neumann(&[0, 1, 1, 0, 0, 0, 1, 1, 1, 0]).unwrap(),
            vec![0, 1, 1]
        );
        assert_eq!(von_neumann(&[0, 0, 1, 1]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn error_paths() {
        assert!(xor_decimate(&[0, 1], 0).is_err());
        assert!(xor_decimate(&[0, 2], 2).is_err());
        assert!(von_neumann(&[0, 3]).is_err());
        assert!(xor_output_bias(0.6, 2).is_err());
        assert!(xor_output_bias(0.1, 0).is_err());
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Piling-up bias shrinks monotonically with the factor and stays in
            /// the valid bias domain.
            #[test]
            fn xor_output_bias_stays_in_domain(
                epsilon in 0.0f64..0.5,
                factor in 1usize..16,
            ) {
                let bias = xor_output_bias(epsilon, factor).unwrap();
                prop_assert!((0.0..0.5).contains(&bias));
                prop_assert!(bias <= epsilon.max(1e-300) + 1e-15);
            }
        }
    }
}
