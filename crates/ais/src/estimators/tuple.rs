//! t-tuple and longest-repeated-substring estimates (SP 800-90B §6.3.5 / §6.3.6).
//!
//! Both estimators look for over-represented substrings in the sequence:
//!
//! * the **t-tuple estimate** covers the *frequent* range — tuples short enough to
//!   occur at least 35 times — and bounds the per-sample probability by the most
//!   over-represented tuple, normalized by its length,
//! * the **LRS estimate** covers the *sparse* tail — tuple lengths between the end
//!   of the frequent range and the longest substring that still repeats at all —
//!   using pair-collision statistics instead of raw counts.
//!
//! The per-width statistics come from one suffix-array + LCP construction
//! ([`super::suffix`], SA-IS + Kasai, `O(n)`) followed by a cheap linear scan per
//! width — the widths themselves stop at [`MAX_TUPLE_BITS`] bits, the same range
//! the original rolling-window hash-map scan covered.  Sequences whose repeated
//! structure extends beyond that are already flagged by the t-tuple estimate at
//! length 128 (such data is profoundly non-random), so the truncation never
//! rescues a bad source.  The hash-map scan is retained as a test oracle
//! (`t_tuple_and_lrs_estimates_reference`): the suffix-array path must reproduce
//! its counts *exactly* (identical integers, hence identical estimates), which
//! the proptest equivalence gate below and `tests/estimator_vectors.rs` enforce.

#[cfg(test)]
use std::collections::HashMap;

use crate::bits::ensure_bits;
use crate::Result;

use super::suffix::{lcp_array, suffix_array, width_stats};
use super::{
    ensure_min_len, min_entropy_from_probability, upper_probability_bound, EstimatorResult,
};

/// Longest tuple width examined by the estimators, in bits.
pub const MAX_TUPLE_BITS: usize = 128;

/// Tuples occurring at least this often count as *frequent* (spec threshold).
const FREQUENT_CUTOFF: u32 = 35;

/// Per-length tuple statistics (from the suffix-array scan, or from one pass with
/// a rolling 128-bit window in the reference implementation).
struct TupleCounts {
    /// Highest occurrence count of any tuple of this length.
    max_count: u32,
    /// `Σ C(count, 2)` over all tuples of this length.
    collision_pairs: f64,
}

#[cfg(test)]
fn count_tuples(bits: &[u8], width: usize) -> TupleCounts {
    debug_assert!((1..=MAX_TUPLE_BITS).contains(&width) && bits.len() >= width);
    let mask = if width == 128 {
        u128::MAX
    } else {
        (1u128 << width) - 1
    };
    // At most min(windows, 2^width) distinct tuples exist; sizing for the window
    // count alone would zero a multi-megabyte table per width at small widths.
    let windows = bits.len() - width + 1;
    let mut counts: HashMap<u128, u32> =
        HashMap::with_capacity(windows.min(1usize << width.min(20)));
    let mut window = 0u128;
    for (i, &bit) in bits.iter().enumerate() {
        window = ((window << 1) | bit as u128) & mask;
        if i + 1 >= width {
            *counts.entry(window).or_insert(0) += 1;
        }
    }
    let mut max_count = 0u32;
    let mut collision_pairs = 0.0f64;
    for &count in counts.values() {
        max_count = max_count.max(count);
        collision_pairs += count as f64 * (count as f64 - 1.0) / 2.0;
    }
    TupleCounts {
        max_count,
        collision_pairs,
    }
}

/// Derives both estimates from a per-width statistics source, sharing the loop
/// structure (and therefore the exact arithmetic) between the suffix-array path
/// and the reference scan.
fn estimates_from_counts(
    n: usize,
    mut counts_for: impl FnMut(usize) -> TupleCounts,
) -> (EstimatorResult, EstimatorResult) {
    // Frequent range: widths whose most frequent tuple reaches the cutoff.
    let mut t = 0usize;
    let mut t_tuple_p_hat = 0.0f64;
    let mut width = 1usize;
    let mut sparse_counts: Option<TupleCounts> = None;
    while width <= MAX_TUPLE_BITS && width < n {
        let counts = counts_for(width);
        if counts.max_count < FREQUENT_CUTOFF {
            // First sparse width: already counted, hand it to the LRS scan below.
            sparse_counts = Some(counts);
            break;
        }
        t = width;
        let p = (counts.max_count as f64 / (n - width + 1) as f64).powf(1.0 / width as f64);
        t_tuple_p_hat = t_tuple_p_hat.max(p);
        width += 1;
    }
    let t_tuple = {
        let p_u = upper_probability_bound(t_tuple_p_hat, n);
        let h = min_entropy_from_probability(p_u);
        EstimatorResult::new(
            "t-tuple",
            h,
            format!("t {t}, p̂ {t_tuple_p_hat:.6}, p_u {p_u:.6}"),
        )
    };

    // Sparse range: from the end of the frequent range up to the longest length
    // that still repeats (or the 128-bit width cap).
    let u = t + 1;
    let mut p_hat = 0.0f64;
    let mut v = t;
    let mut width = u;
    while width <= MAX_TUPLE_BITS && width < n {
        let counts = match sparse_counts.take() {
            Some(counts) => counts,
            None => counts_for(width),
        };
        if counts.collision_pairs < 1.0 {
            break;
        }
        v = width;
        let windows = (n - width + 1) as f64;
        let p_w = counts.collision_pairs / (windows * (windows - 1.0) / 2.0);
        p_hat = p_hat.max(p_w.powf(1.0 / width as f64));
        width += 1;
    }
    let lrs = if v < u {
        // Nothing in the sparse range repeats: the t-tuple estimate already covers
        // every repeated structure, and this estimator has no evidence to offer.
        EstimatorResult::new("lrs", 1.0, format!("no repeated substring of length ≥ {u}"))
    } else {
        let p_u = upper_probability_bound(p_hat, n);
        let h = min_entropy_from_probability(p_u);
        EstimatorResult::new(
            "lrs",
            h,
            format!("range {u}..={v}, p̂ {p_hat:.6}, p_u {p_u:.6}"),
        )
    };
    (t_tuple, lrs)
}

/// Runs the t-tuple and LRS estimates off one shared suffix-array construction.
///
/// The suffix and LCP arrays are built once (`O(n)`); each examined width then
/// costs one linear scan over them, and the loop stops at the same cutoffs the
/// specification defines (the frequent cutoff, the last width that repeats, the
/// [`MAX_TUPLE_BITS`] cap).
///
/// # Errors
///
/// Returns an error for sequences shorter than 70 bits (the 1-tuple cutoff needs
/// `Q[1] ≥ 35`) or containing non-bit values.
pub fn t_tuple_and_lrs_estimates(bits: &[u8]) -> Result<(EstimatorResult, EstimatorResult)> {
    ensure_bits(bits)?;
    ensure_min_len(bits, 2 * FREQUENT_CUTOFF as usize)?;
    let n = bits.len();
    let sa = suffix_array(bits);
    let lcp = lcp_array(bits, &sa);
    Ok(estimates_from_counts(n, |width| {
        let stats = width_stats(&sa, &lcp, n, width);
        TupleCounts {
            max_count: stats.max_count,
            collision_pairs: stats.collision_pairs,
        }
    }))
}

/// Reference implementation: the original per-width rolling-window hash-map scan.
///
/// Retained as the equivalence gate for the suffix-array path (the same
/// discipline the FIR-vs-FFT filters use): the fast path must reproduce these
/// estimates exactly, and the proptest below plus the golden vectors in
/// `tests/estimator_vectors.rs` keep that pinned.  `O(w_max·n)` with a heavy
/// hash-map constant.
///
/// # Errors
///
/// Returns an error for sequences shorter than 70 bits or containing non-bit
/// values.
#[cfg(test)]
fn t_tuple_and_lrs_estimates_reference(bits: &[u8]) -> Result<(EstimatorResult, EstimatorResult)> {
    ensure_bits(bits)?;
    ensure_min_len(bits, 2 * FREQUENT_CUTOFF as usize)?;
    Ok(estimates_from_counts(bits.len(), |width| {
        count_tuples(bits, width)
    }))
}

/// Runs the t-tuple estimate over a bit sequence.
///
/// # Errors
///
/// Returns an error for sequences shorter than 70 bits (the 1-tuple cutoff needs
/// `Q[1] ≥ 35`) or containing non-bit values.
pub fn t_tuple_estimate(bits: &[u8]) -> Result<EstimatorResult> {
    Ok(t_tuple_and_lrs_estimates(bits)?.0)
}

/// Runs the LRS estimate over a bit sequence.
///
/// # Errors
///
/// Returns an error for sequences shorter than 70 bits or containing non-bit
/// values.
pub fn lrs_estimate(bits: &[u8]) -> Result<EstimatorResult> {
    Ok(t_tuple_and_lrs_estimates(bits)?.1)
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

    fn assert_equivalent(bits: &[u8]) {
        let (fast_t, fast_l) = t_tuple_and_lrs_estimates(bits).unwrap();
        let (ref_t, ref_l) = t_tuple_and_lrs_estimates_reference(bits).unwrap();
        // The suffix-array path reproduces the reference *counts* exactly, so the
        // derived estimates are identical — the 1e-6 gate is the documented
        // contract, the equality assert is the actual behavior.
        assert!(
            (fast_t.h_per_bit - ref_t.h_per_bit).abs() < 1e-6,
            "t-tuple diverged: {} vs {}",
            fast_t.detail,
            ref_t.detail
        );
        assert!(
            (fast_l.h_per_bit - ref_l.h_per_bit).abs() < 1e-6,
            "lrs diverged: {} vs {}",
            fast_l.detail,
            ref_l.detail
        );
        assert_eq!(fast_t.detail, ref_t.detail, "t-tuple details diverged");
        assert_eq!(fast_l.detail, ref_l.detail, "lrs details diverged");
    }

    #[test]
    fn ideal_bits_assess_high() {
        let bits = random_bits(1 << 15, 41);
        let t = t_tuple_estimate(&bits).unwrap();
        let l = lrs_estimate(&bits).unwrap();
        assert!(t.h_per_bit > 0.9, "t-tuple {}", t.detail);
        assert!(l.h_per_bit > 0.9, "lrs {}", l.detail);
    }

    #[test]
    fn hand_computed_tuple_counts() {
        // 0 1 1 0 1 1 0: 2-tuples (01,11,10,01,11,10): max count 2; 1-tuples: four 1s.
        let bits = [0u8, 1, 1, 0, 1, 1, 0];
        let ones = count_tuples(&bits, 1);
        assert_eq!(ones.max_count, 4);
        // C(4,2) + C(3,2) = 6 + 3.
        assert!((ones.collision_pairs - 9.0).abs() < 1e-12);
        let pairs = count_tuples(&bits, 2);
        assert_eq!(pairs.max_count, 2);
    }

    #[test]
    fn repeated_pattern_is_caught() {
        // A 32-bit pattern repeated 512 times: long repeats at every length.
        let pattern = random_bits(32, 42);
        let bits: Vec<u8> = pattern.iter().cycle().take(32 * 512).copied().collect();
        let t = t_tuple_estimate(&bits).unwrap();
        assert!(t.h_per_bit < 0.1, "periodic data assessed {}", t.detail);
        assert_equivalent(&bits);
    }

    #[test]
    fn biased_bits_assess_near_their_true_entropy() {
        let mut rng = StdRng::seed_from_u64(43);
        let bits: Vec<u8> = (0..1 << 15).map(|_| u8::from(rng.gen_bool(0.75))).collect();
        let t = t_tuple_estimate(&bits).unwrap();
        // True −log2(0.75) ≈ 0.415; the tuple estimate sits at or below it.
        assert!(t.h_per_bit < 0.45, "{}", t.detail);
        assert!(t.h_per_bit > 0.2, "{}", t.detail);
    }

    #[test]
    fn suffix_array_path_matches_reference_on_adversarial_inputs() {
        // All-zeros: the frequent range runs all the way to the width cap.
        assert_equivalent(&vec![0u8; 4096]);
        // All-ones, same shape from the other symbol.
        assert_equivalent(&vec![1u8; 512]);
        // Alternating bits: period 2, fully repeated structure at every width.
        let alternating: Vec<u8> = (0..2048).map(|i| (i % 2) as u8).collect();
        assert_equivalent(&alternating);
        // Short periodic pattern (period 7, not a divisor of the length).
        let pattern = random_bits(7, 44);
        let periodic: Vec<u8> = pattern.iter().cycle().take(1000).copied().collect();
        assert_equivalent(&periodic);
        // Biased stream: long repeated runs of the majority symbol.
        let mut rng = StdRng::seed_from_u64(45);
        let biased: Vec<u8> = (0..8192).map(|_| u8::from(rng.gen_bool(0.9))).collect();
        assert_equivalent(&biased);
        // Minimum accepted length.
        assert_equivalent(&random_bits(70, 46));
    }

    #[test]
    fn rejects_short_input() {
        assert!(t_tuple_estimate(&[0, 1, 0, 1]).is_err());
        assert!(lrs_estimate(&[1; 32]).is_err());
        assert!(t_tuple_and_lrs_estimates_reference(&[1; 32]).is_err());
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The equivalence gate: on arbitrary bit mixtures the suffix-array
            /// path and the reference hash-map scan agree on both estimates.
            #[test]
            fn suffix_array_path_matches_reference(
                seed in 0u64..1 << 20,
                len in 70usize..2048,
                p_one in 0.05f64..0.95,
            ) {
                use rand::rngs::StdRng;
                use rand::{Rng, SeedableRng};
                let mut rng = StdRng::seed_from_u64(seed);
                let bits: Vec<u8> = (0..len).map(|_| u8::from(rng.gen_bool(p_one))).collect();
                let (fast_t, fast_l) = t_tuple_and_lrs_estimates(&bits).unwrap();
                let (ref_t, ref_l) = t_tuple_and_lrs_estimates_reference(&bits).unwrap();
                prop_assert!((fast_t.h_per_bit - ref_t.h_per_bit).abs() < 1e-6);
                prop_assert!((fast_l.h_per_bit - ref_l.h_per_bit).abs() < 1e-6);
                prop_assert_eq!(fast_t.detail, ref_t.detail);
                prop_assert_eq!(fast_l.detail, ref_l.detail);
            }
        }
    }
}
