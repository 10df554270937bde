//! Empirical entropy estimators for raw bit sequences.
//!
//! These estimators quantify the randomness actually present in a generated sequence and
//! are used to compare the stochastic-model *bounds* of [`crate::stochastic`] against
//! simulated generator output.

use ptrng_ais::bits::{blocks_as_integers, ensure_bit_len, ensure_bits};

use crate::{Result, TrngError};

/// Binary Shannon entropy `h(p) = -p·log2(p) - (1-p)·log2(1-p)`.
///
/// Returns 0 for `p ∈ {0, 1}`.
///
/// # Errors
///
/// Returns an error when `p` is outside `[0, 1]`.
pub fn binary_entropy(p: f64) -> Result<f64> {
    if !(0.0..=1.0).contains(&p) {
        return Err(TrngError::InvalidParameter {
            name: "p",
            reason: format!("a probability must lie in [0, 1], got {p}"),
        });
    }
    if p == 0.0 || p == 1.0 {
        return Ok(0.0);
    }
    Ok(-p * p.log2() - (1.0 - p) * (1.0 - p).log2())
}

/// Shannon entropy per bit estimated from the empirical bias of the sequence
/// (upper bound: ignores any serial dependence).
///
/// # Errors
///
/// Returns an error for an empty sequence or non-bit values.
pub fn shannon_entropy_from_bias(bits: &[u8]) -> Result<f64> {
    ensure_bit_len(bits, 1)?;
    let ones: usize = bits.iter().map(|&b| b as usize).sum();
    binary_entropy(ones as f64 / bits.len() as f64)
}

/// Shannon entropy per bit estimated from the distribution of non-overlapping
/// `block_bits`-bit blocks (captures dependences up to the block length).
///
/// # Errors
///
/// Returns an error when `block_bits` is outside `1..=16` or fewer than 8 complete
/// blocks are available.
pub fn block_entropy(bits: &[u8], block_bits: usize) -> Result<f64> {
    if block_bits == 0 || block_bits > 16 {
        return Err(TrngError::InvalidParameter {
            name: "block_bits",
            reason: format!("block width must be in 1..=16, got {block_bits}"),
        });
    }
    ensure_bit_len(bits, block_bits * 8)?;
    let blocks = blocks_as_integers(bits, block_bits)?;
    let mut counts = vec![0u64; 1 << block_bits];
    for b in &blocks {
        counts[*b as usize] += 1;
    }
    let total = blocks.len() as f64;
    let mut h = 0.0;
    for &c in &counts {
        if c > 0 {
            let p = c as f64 / total;
            h -= p * p.log2();
        }
    }
    Ok(h / block_bits as f64)
}

/// Entropy rate of the first-order Markov chain fitted to the sequence:
/// `H = Σ_s π(s)·h(p(1|s))`.
///
/// This captures exactly the kind of next-bit predictability introduced by serial
/// dependence between adjacent samples.
///
/// # Errors
///
/// Returns an error when fewer than 16 bits are provided, the sequence never leaves one
/// state, or values are not bits.
pub fn markov_entropy_rate(bits: &[u8]) -> Result<f64> {
    ensure_bits(bits)?;
    ensure_bit_len(bits, 16)?;
    let mut count = [0u64; 2];
    let mut ones_after = [0u64; 2];
    for w in bits.windows(2) {
        count[w[0] as usize] += 1;
        ones_after[w[0] as usize] += w[1] as u64;
    }
    if count[0] == 0 || count[1] == 0 {
        return Err(TrngError::InvalidParameter {
            name: "bits",
            reason: "the sequence never takes one of the two values".to_string(),
        });
    }
    let total = (count[0] + count[1]) as f64;
    let pi = [count[0] as f64 / total, count[1] as f64 / total];
    let mut h = 0.0;
    for s in 0..2 {
        let p1 = ones_after[s] as f64 / count[s] as f64;
        h += pi[s] * binary_entropy(p1)?;
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_bits(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(0..=1u8)).collect()
    }

    #[test]
    fn binary_entropy_reference_values() {
        assert_eq!(binary_entropy(0.0).unwrap(), 0.0);
        assert_eq!(binary_entropy(1.0).unwrap(), 0.0);
        assert!((binary_entropy(0.5).unwrap() - 1.0).abs() < 1e-12);
        assert!((binary_entropy(0.11).unwrap() - 0.4999).abs() < 1e-3);
        assert!(binary_entropy(-0.1).is_err());
    }

    #[test]
    fn uniform_bits_have_full_entropy_by_every_estimator() {
        let bits = random_bits(200_000, 51);
        assert!(shannon_entropy_from_bias(&bits).unwrap() > 0.9999);
        assert!(block_entropy(&bits, 8).unwrap() > 0.995);
        assert!(markov_entropy_rate(&bits).unwrap() > 0.9999);
    }

    #[test]
    fn biased_bits_have_reduced_entropy() {
        let mut rng = StdRng::seed_from_u64(52);
        let bits: Vec<u8> = (0..200_000).map(|_| u8::from(rng.gen_bool(0.75))).collect();
        let h = shannon_entropy_from_bias(&bits).unwrap();
        assert!((h - 0.8113).abs() < 0.01, "h = {h}");
    }

    #[test]
    fn correlated_bits_fool_the_bias_estimator_but_not_the_markov_one() {
        // Sticky Markov chain: balanced overall, but very predictable.
        let mut rng = StdRng::seed_from_u64(53);
        let mut bits = Vec::with_capacity(200_000);
        let mut current: u8 = 0;
        for _ in 0..200_000 {
            bits.push(current);
            if !rng.gen_bool(0.9) {
                current ^= 1;
            }
        }
        let h_bias = shannon_entropy_from_bias(&bits).unwrap();
        let h_markov = markov_entropy_rate(&bits).unwrap();
        let h_block = block_entropy(&bits, 8).unwrap();
        assert!(
            h_bias > 0.99,
            "bias estimator sees a balanced sequence ({h_bias})"
        );
        assert!((h_markov - binary_entropy(0.9).unwrap()).abs() < 0.01);
        assert!(
            h_block < 0.75,
            "block estimator must see the dependence ({h_block})"
        );
    }

    #[test]
    fn error_paths() {
        assert!(shannon_entropy_from_bias(&[]).is_err());
        assert!(block_entropy(&random_bits(100, 1), 0).is_err());
        assert!(block_entropy(&random_bits(100, 1), 17).is_err());
        assert!(block_entropy(&random_bits(10, 1), 8).is_err());
        assert!(markov_entropy_rate(&[1; 100]).is_err());
        assert!(markov_entropy_rate(&[0, 1, 2]).is_err());
    }
}
