//! AIS 31 Procedure B tests (T6–T8), applied to the raw (das) random bit sequence.
//!
//! * **T6 uniform distribution** — bounds the one-bit bias and the dependence of a bit on
//!   its predecessor.
//! * **T7 comparative multinomial test** — χ² homogeneity of the next-bit distribution
//!   conditioned on the previous bit.
//! * **T8 entropy test (Coron)** — Coron's universal entropy estimator over 8-bit blocks
//!   with the specification threshold 7.976 bit/byte.
//!
//! The block sizes and thresholds follow the AIS 20/31 specification; parameterized
//! variants are provided so reduced-size runs (unit tests, quick health checks) can reuse
//! the same code.

use crate::bits::{blocks_as_integers, ensure_bit_len};
use crate::{AisError, Result, TestResult};

/// Bits consumed by the standard T6a test.
pub const T6_BITS: usize = 100_000;

/// Number of initialization blocks of the standard T8 run.
pub const T8_INIT_BLOCKS: usize = 2_560;
/// Number of evaluated blocks of the standard T8 run.
pub const T8_TEST_BLOCKS: usize = 256_000;
/// Acceptance threshold of the standard T8 run (bits of entropy per 8-bit block).
pub const T8_THRESHOLD: f64 = 7.976;

/// T6a: the empirical probability of a one over `bits.len()` samples (at least
/// [`T6_BITS`] for the standard test) must satisfy `|p̂ − 0.5| < 0.025`.
///
/// # Errors
///
/// Returns an error when fewer than `needed` bits are provided.
pub fn t6_uniform_bias(bits: &[u8], needed: usize) -> Result<TestResult> {
    ensure_bit_len(bits, needed.max(2))?;
    let window = &bits[..needed.max(2)];
    let ones: usize = window.iter().map(|&b| b as usize).sum();
    let p = ones as f64 / window.len() as f64;
    Ok(TestResult::new(
        "T6a uniform distribution (bias)",
        p,
        (p - 0.5).abs() < 0.025,
        "|p(1) - 0.5| < 0.025",
    ))
}

/// T6b: the dependence of a bit on its predecessor,
/// `|p̂(1 | previous = 1) − p̂(1 | previous = 0)| < 0.02`.
///
/// # Errors
///
/// Returns an error when fewer than `needed` bits are provided or one of the conditional
/// sample sets is empty.
pub fn t6_conditional_bias(bits: &[u8], needed: usize) -> Result<TestResult> {
    ensure_bit_len(bits, needed.max(3))?;
    let window = &bits[..needed.max(3)];
    let mut count = [0u64; 2];
    let mut ones_after = [0u64; 2];
    for w in window.windows(2) {
        let prev = w[0] as usize;
        count[prev] += 1;
        ones_after[prev] += w[1] as u64;
    }
    if count[0] == 0 || count[1] == 0 {
        return Err(AisError::InvalidParameter {
            name: "bits",
            reason: "the sequence never takes one of the two values".to_string(),
        });
    }
    let p1_given_1 = ones_after[1] as f64 / count[1] as f64;
    let p1_given_0 = ones_after[0] as f64 / count[0] as f64;
    let statistic = (p1_given_1 - p1_given_0).abs();
    Ok(TestResult::new(
        "T6b uniform distribution (conditional)",
        statistic,
        statistic < 0.02,
        "|p(1|1) - p(1|0)| < 0.02",
    ))
}

/// T7: χ² homogeneity test comparing the next-bit distributions observed after a zero and
/// after a one.  The statistic is compared against the 10⁻⁶ quantile of χ²(1)
/// (≈ 23.9); large values indicate that the transition probabilities differ.
///
/// # Errors
///
/// Returns an error when fewer than `needed` bits are provided or a conditional sample
/// set is empty.
pub fn t7_transition_homogeneity(bits: &[u8], needed: usize) -> Result<TestResult> {
    ensure_bit_len(bits, needed.max(16))?;
    let window = &bits[..needed.max(16)];
    // Contingency table rows: previous bit, columns: next bit.
    let mut table = [[0f64; 2]; 2];
    for w in window.windows(2) {
        table[w[0] as usize][w[1] as usize] += 1.0;
    }
    let row: [f64; 2] = [table[0][0] + table[0][1], table[1][0] + table[1][1]];
    let col: [f64; 2] = [table[0][0] + table[1][0], table[0][1] + table[1][1]];
    let total = row[0] + row[1];
    if row[0] == 0.0 || row[1] == 0.0 || col[0] == 0.0 || col[1] == 0.0 {
        return Err(AisError::InvalidParameter {
            name: "bits",
            reason: "degenerate transition table".to_string(),
        });
    }
    let mut statistic = 0.0;
    for r in 0..2 {
        for c in 0..2 {
            let expected = row[r] * col[c] / total;
            let diff = table[r][c] - expected;
            statistic += diff * diff / expected;
        }
    }
    const THRESHOLD: f64 = 23.9; // χ²(1) quantile at 1 - 1e-6
    Ok(TestResult::new(
        "T7 transition homogeneity",
        statistic,
        statistic < THRESHOLD,
        "chi-squared(1) statistic < 23.9",
    ))
}

/// Coron's entropy estimator with explicit parameters.
///
/// For each of the `test_blocks` blocks following the `init_blocks` warm-up blocks, the
/// distance `A_n` to the previous occurrence of the same block value is accumulated as
/// `g(A_n) = (1/ln 2)·Σ_{k=1}^{A_n−1} 1/k`; the statistic is the mean of `g` and
/// estimates the per-block entropy of a stationary source.
///
/// # Errors
///
/// Returns an error for invalid parameters or an insufficient number of bits.
pub fn t8_entropy_with(
    bits: &[u8],
    block_bits: usize,
    init_blocks: usize,
    test_blocks: usize,
    threshold: f64,
) -> Result<TestResult> {
    if block_bits == 0 || block_bits > 16 {
        return Err(AisError::InvalidParameter {
            name: "block_bits",
            reason: format!("block width must be in 1..=16, got {block_bits}"),
        });
    }
    if init_blocks == 0 || test_blocks == 0 {
        return Err(AisError::InvalidParameter {
            name: "init_blocks/test_blocks",
            reason: "both the initialization and test segments must be non-empty".to_string(),
        });
    }
    let total_blocks = init_blocks + test_blocks;
    ensure_bit_len(bits, block_bits * total_blocks)?;
    let blocks = blocks_as_integers(&bits[..block_bits * total_blocks], block_bits)?;

    // last_seen[v] = index (1-based) of the most recent occurrence of value v.
    let mut last_seen = vec![0usize; 1 << block_bits];
    for (i, &v) in blocks[..init_blocks].iter().enumerate() {
        last_seen[v as usize] = i + 1;
    }
    // Precompute g(d) lazily via the harmonic series.
    let mut g_cache: Vec<f64> = vec![0.0; 2];
    let mut sum = 0.0;
    for (n, &v) in blocks[init_blocks..].iter().enumerate() {
        let index = init_blocks + n + 1;
        let prev = last_seen[v as usize];
        let distance = if prev == 0 { index } else { index - prev };
        while g_cache.len() <= distance {
            let k = g_cache.len() - 1;
            let prev_g = g_cache[k];
            g_cache.push(prev_g + 1.0 / k as f64);
        }
        sum += g_cache[distance] / std::f64::consts::LN_2;
        last_seen[v as usize] = index;
    }
    let statistic = sum / test_blocks as f64;
    Ok(TestResult::new(
        "T8 entropy (Coron)",
        statistic,
        statistic > threshold,
        format!("f > {threshold}"),
    ))
}

/// Runs T6, T7 and a reduced-size T8 on the provided bits, sizing every test to the
/// available data (intended for quick health checks; the standard full-size procedure is
/// available through the individual functions).
///
/// # Errors
///
/// Returns an error when fewer than 20 000 bits are provided.
pub fn run_reduced(bits: &[u8]) -> Result<Vec<TestResult>> {
    ensure_bit_len(bits, 20_000)?;
    let n = bits.len();
    let t8_blocks = (n / 8).min(T8_INIT_BLOCKS + T8_TEST_BLOCKS);
    let init = (t8_blocks / 100).max(16);
    let test = t8_blocks - init;
    Ok(vec![
        t6_uniform_bias(bits, n.min(T6_BITS))?,
        t6_conditional_bias(bits, n.min(T6_BITS))?,
        t7_transition_homogeneity(bits, n.min(T6_BITS))?,
        t8_entropy_with(bits, 8, init, test, T8_THRESHOLD)?,
    ])
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

    fn biased_bits(len: usize, p_one: f64, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len).map(|_| u8::from(rng.gen_bool(p_one))).collect()
    }

    fn markov_bits(len: usize, p_stay: f64, seed: u64) -> Vec<u8> {
        // A sticky Markov chain: the next bit repeats the previous one with prob p_stay.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bits = Vec::with_capacity(len);
        let mut current: u8 = rng.gen_range(0..=1);
        for _ in 0..len {
            bits.push(current);
            if !rng.gen_bool(p_stay) {
                current ^= 1;
            }
        }
        bits
    }

    #[test]
    fn good_bits_pass_t6_and_t7() {
        let bits = random_bits(100_000, 1);
        assert!(t6_uniform_bias(&bits, T6_BITS).unwrap().passed);
        assert!(t6_conditional_bias(&bits, T6_BITS).unwrap().passed);
        assert!(t7_transition_homogeneity(&bits, T6_BITS).unwrap().passed);
    }

    #[test]
    fn biased_bits_fail_t6a() {
        let bits = biased_bits(100_000, 0.55, 2);
        assert!(!t6_uniform_bias(&bits, T6_BITS).unwrap().passed);
    }

    #[test]
    fn markov_bits_fail_t6b_and_t7() {
        let bits = markov_bits(100_000, 0.6, 3);
        assert!(!t6_conditional_bias(&bits, T6_BITS).unwrap().passed);
        assert!(!t7_transition_homogeneity(&bits, T6_BITS).unwrap().passed);
    }

    #[test]
    fn coron_estimator_approaches_block_entropy_for_uniform_bits() {
        let bits = random_bits(8 * 40_000, 4);
        let result = t8_entropy_with(&bits, 8, 1_000, 38_000, T8_THRESHOLD).unwrap();
        assert!(
            result.statistic > 7.9 && result.statistic < 8.1,
            "statistic {}",
            result.statistic
        );
        assert!(result.passed);
    }

    #[test]
    fn coron_estimator_detects_low_entropy() {
        // Heavily biased bits: per-byte entropy far below 7.976.
        let bits = biased_bits(8 * 40_000, 0.75, 5);
        let result = t8_entropy_with(&bits, 8, 1_000, 38_000, T8_THRESHOLD).unwrap();
        assert!(!result.passed);
        assert!(result.statistic < 7.5, "statistic {}", result.statistic);
    }

    #[test]
    fn coron_estimator_on_smaller_blocks() {
        // 4-bit blocks of uniform bits have ≈ 4 bits of entropy each.
        let bits = random_bits(4 * 30_000, 6);
        let result = t8_entropy_with(&bits, 4, 500, 29_000, 3.9).unwrap();
        assert!(result.statistic > 3.9 && result.statistic < 4.1);
    }

    #[test]
    fn reduced_procedure_runs_all_tests() {
        let bits = random_bits(200_000, 7);
        let results = run_reduced(&bits).unwrap();
        assert_eq!(results.len(), 4);
        assert!(results.iter().all(|r| r.passed));
    }

    #[test]
    fn error_paths() {
        assert!(t6_uniform_bias(&[1, 0], 100).is_err());
        assert!(t6_conditional_bias(&[1; 100], 50).is_err());
        assert!(t8_entropy_with(&[0, 1], 0, 1, 1, 1.0).is_err());
        assert!(t8_entropy_with(&[0, 1], 8, 0, 1, 1.0).is_err());
        assert!(t8_entropy_with(&random_bits(100, 1), 8, 100, 100, 1.0).is_err());
        assert!(run_reduced(&random_bits(100, 1)).is_err());
    }
}
