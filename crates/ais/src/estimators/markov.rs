//! Markov estimate (SP 800-90B §6.3.3).
//!
//! Models the bit sequence as a first-order binary Markov chain, estimates the
//! initial and transition probabilities from the observed counts, and bounds the
//! probability of the most likely 128-sample path.  Six candidate paths exhaust the
//! maximum for a two-state chain: the two constant runs, the two alternating
//! phases, and the two one-switch paths.
//!
//! This is the first estimator in the battery that *sees dependence*: a source whose
//! jitter realizations are correlated (the paper's flicker regime) shows inflated
//! `P_{00}`/`P_{11}` transition probabilities, and the most likely path probability
//! grows accordingly — exactly the effect an independence-assuming model misses.

use crate::bits::ensure_bits;
use crate::Result;

use super::{ensure_min_len, EstimatorResult};

/// Path length over which the most likely sequence probability is evaluated.
const PATH_SAMPLES: u32 = 128;

/// Runs the Markov estimate over a bit sequence.
///
/// # Errors
///
/// Returns an error for sequences shorter than 2 bits or containing non-bit values.
pub fn markov_estimate(bits: &[u8]) -> Result<EstimatorResult> {
    ensure_bits(bits)?;
    ensure_min_len(bits, 2)?;
    let ones: usize = bits.iter().map(|&b| b as usize).sum();
    let mut pairs = [[0u64; 2]; 2];
    for w in bits.windows(2) {
        pairs[w[0] as usize][w[1] as usize] += 1;
    }
    Ok(markov_result_from_counts(ones, bits.len(), pairs))
}

/// The estimate from the ones and transition-pair counts of `n` bits — shared
/// by [`markov_estimate`] and the fused
/// [`counting_estimates`](super::counting_estimates) pass.
pub(crate) fn markov_result_from_counts(
    ones: usize,
    n: usize,
    pairs: [[u64; 2]; 2],
) -> EstimatorResult {
    debug_assert!(n >= 2 && ones <= n);
    let p1 = ones as f64 / n as f64;
    let p0 = 1.0 - p1;
    let from0 = pairs[0][0] + pairs[0][1];
    let from1 = pairs[1][0] + pairs[1][1];
    // A state never left from contributes probability-0 transitions; the candidate
    // paths through it then score 0, which is the correct degenerate reading.
    let t = |row: u64, count: u64| {
        if row == 0 {
            0.0
        } else {
            count as f64 / row as f64
        }
    };
    let p00 = t(from0, pairs[0][0]);
    let p01 = t(from0, pairs[0][1]);
    let p10 = t(from1, pairs[1][0]);
    let p11 = t(from1, pairs[1][1]);

    // log2-probability of the six candidate most-likely 128-sample paths; log space
    // keeps 127 multiplications of sub-unity probabilities from underflowing.
    let log2 = |p: f64| if p > 0.0 { p.log2() } else { f64::NEG_INFINITY };
    let half = (PATH_SAMPLES / 2) as f64; // 64 alternations...
    let half_less = half - 1.0; // ...and 63 back-transitions.
    let path = (PATH_SAMPLES - 1) as f64;
    let candidates = [
        ("0…0", log2(p0) + path * log2(p00)),
        ("0101…", log2(p0) + half * log2(p01) + half_less * log2(p10)),
        ("011…1", log2(p0) + log2(p01) + (path - 1.0) * log2(p11)),
        ("100…0", log2(p1) + log2(p10) + (path - 1.0) * log2(p00)),
        ("1010…", log2(p1) + half * log2(p10) + half_less * log2(p01)),
        ("1…1", log2(p1) + path * log2(p11)),
    ];
    let (label, log2_p_max) = candidates
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("six candidates");
    let h = (-log2_p_max / PATH_SAMPLES as f64).clamp(0.0, 1.0);
    EstimatorResult::new(
        "markov",
        h,
        format!(
            "P0 {p0:.4}, P00 {p00:.4}, P11 {p11:.4}, max path {label} \
             (log2 p {log2_p_max:.2})"
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ideal_bits_assess_near_one() {
        let mut rng = StdRng::seed_from_u64(21);
        let bits: Vec<u8> = (0..1 << 15).map(|_| rng.gen_range(0..=1)).collect();
        let h = markov_estimate(&bits).unwrap().h_per_bit;
        assert!(h > 0.97, "ideal assessed {h}");
    }

    #[test]
    fn sticky_chain_is_caught() {
        // P(stay) = 0.9: per-step min-entropy is −log2(0.9) ≈ 0.152 in the limit.
        let mut rng = StdRng::seed_from_u64(22);
        let mut bits = vec![0u8];
        for _ in 1..1 << 15 {
            let prev = *bits.last().unwrap();
            bits.push(if rng.gen_bool(0.9) { prev } else { 1 - prev });
        }
        let h = markov_estimate(&bits).unwrap().h_per_bit;
        assert!(h < 0.25, "sticky chain assessed {h}");
        assert!(h > 0.1, "sticky chain assessed {h}");
    }

    #[test]
    fn alternating_bits_assess_near_zero() {
        let bits: Vec<u8> = (0..4096).map(|i| (i % 2) as u8).collect();
        let result = markov_estimate(&bits).unwrap();
        assert!(result.h_per_bit < 0.02, "{}", result.detail);
        assert!(result.detail.contains("0101") || result.detail.contains("1010"));
    }

    #[test]
    fn hand_computed_small_case() {
        // 0,0,1,0,0,1,0,0,1,…: P0 = 2/3, P00 = 1/2, P01 = 1/2, P10 = 1.
        let bits: Vec<u8> = (0..999).map(|i| u8::from(i % 3 == 2)).collect();
        let result = markov_estimate(&bits).unwrap();
        // Best path alternates 64×(01) at (1/2·1)^… : log2 = log2(2/3) + 64·log2(1/2).
        // The constant-zero path scores log2(2/3) + 127·log2(1/2) — worse.  The
        // 0101… path: log2(2/3) + 64·log2(1/2) + 63·log2(1) = −64.585.
        let expected = (-((2.0f64 / 3.0).log2() + 64.0 * (0.5f64).log2())) / 128.0;
        assert!(
            (result.h_per_bit - expected).abs() < 1e-9,
            "{} vs {expected}",
            result.h_per_bit
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(markov_estimate(&[1]).is_err());
        assert!(markov_estimate(&[0, 1, 7]).is_err());
    }
}
