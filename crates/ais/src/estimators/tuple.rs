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
//! The widths stop at [`MAX_TUPLE_BITS`] bits.  Sequences whose repeated structure
//! extends beyond that are already flagged by the t-tuple estimate at length 128
//! (such data is profoundly non-random), so the truncation never rescues a bad
//! source.  Because no width exceeds 128, one sort of the start positions by the
//! 128 bits that follow each, and one stack pass, yield every width's statistics
//! (`tuple_counts`).  The per-width rolling-window hash-map scan is retained as a
//! test oracle (`t_tuple_and_lrs_estimates_reference`): the fast path must
//! reproduce its counts *exactly* (identical integers, hence identical estimates),
//! which the proptest equivalence gate below and `tests/estimator_vectors.rs`
//! enforce.

#[cfg(test)]
use std::collections::HashMap;

use crate::bits::ensure_bits;
use crate::{AisError, Result};

use super::{
    ensure_min_len, min_entropy_from_probability, upper_probability_bound, EstimatorResult,
};

/// Longest tuple width examined by the estimators, in bits.
pub const MAX_TUPLE_BITS: usize = 128;

/// Tuples occurring at least this often count as *frequent* (spec threshold).
const FREQUENT_CUTOFF: u32 = 35;

/// Per-length tuple statistics (from the prefix-sort pass, or from one pass with
/// a rolling 128-bit window in the reference implementation).
#[derive(Clone, Copy)]
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
/// structure (and therefore the exact arithmetic) between the prefix-sort path
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

/// Every width's statistics, entry `w − 1` for width `w` in
/// `1..=min(MAX_TUPLE_BITS, n − 1)`, for `n < 2³²`.
///
/// Positions are sorted by the 128 bits that follow each, zero-padded past the
/// end, shorter suffix first on equal keys: suffix order truncated to 128 bits,
/// end of sequence smallest.  For every width `w ≤ 128` the suffixes sharing a
/// `w`-bit prefix are then contiguous, and one shorter than `w` sorts ahead of
/// the group it pads into instead of splitting it.  Neighbours share as many bits
/// as their keys' XOR has leading zeros, capped by both suffix lengths, and a
/// width-`w` group is a maximal run of neighbours sharing `≥ w` bits: an LCP
/// interval.  One stack pass visits each interval with its size, depth and
/// parent's depth; it is the group for every width in between.  Counts and pair
/// sums are integers below 2⁵³, so every statistic is exact.
fn tuple_counts(bits: &[u8]) -> Vec<TupleCounts> {
    let n = bits.len();
    let max_width = MAX_TUPLE_BITS.min(n - 1);
    // MSB-first words with two zero words of padding, so every key reads whole words.
    let mut words = vec![0u64; n.div_ceil(64) + 2];
    for (i, &bit) in bits.iter().enumerate() {
        words[i / 64] |= u64::from(bit) << (63 - i % 64);
    }
    // The 64 bits from position `i` on.
    let word_at = |i: u32| {
        let (k, shift) = (i as usize / 64, i % 64);
        (words[k] << shift) | (words[k + 1] >> 1 >> (63 - shift))
    };
    let key = |i: u32| (u128::from(word_at(i)) << 64) | u128::from(word_at(i + 64));
    let len = |i: u32| n - i as usize;
    // Counting-sort the positions by their top bits (one to two positions per
    // bucket, at most 2¹⁶ buckets), then sort each bucket by key, ties shorter
    // suffix first.
    let shift = 64 - n.ilog2().clamp(1, 16);
    let bucket = |i: u32| (word_at(i) >> shift) as usize;
    let mut bounds = vec![0u32; (1 << (64 - shift)) + 1];
    for i in 0..n as u32 {
        bounds[bucket(i)] += 1;
    }
    let mut end = 0;
    for bound in &mut bounds {
        end += *bound;
        *bound = end;
    }
    let mut order = vec![0u32; n];
    for i in (0..n as u32).rev() {
        let b = bucket(i);
        bounds[b] -= 1;
        order[bounds[b] as usize] = i;
    }
    for range in bounds.windows(2) {
        order[range[0] as usize..range[1] as usize]
            .sort_unstable_by(|&a, &b| key(a).cmp(&key(b)).then(b.cmp(&a)));
    }

    // `largest[d]`: the largest interval of depth exactly `d`; `pair_steps`:
    // Σ C(size, 2) as a difference array over widths.
    let mut largest = [0u32; MAX_TUPLE_BITS + 1];
    let mut pair_steps = [0i64; MAX_TUPLE_BITS + 2];
    // Open intervals as (depth, first row); depths strictly increase up the stack.
    let mut stack = vec![(0, 0)];
    let mut prev_key = key(order[0]);
    for row in 1..=n {
        let depth = if row < n {
            let next_key = key(order[row]);
            let common = (prev_key ^ next_key).leading_zeros() as usize;
            prev_key = next_key;
            common.min(len(order[row - 1])).min(len(order[row]))
        } else {
            0
        };
        let mut first = row - 1;
        while depth < stack[stack.len() - 1].0 {
            let (top, start) = stack.pop().expect("the depth-0 root is never popped");
            let parent = depth.max(stack[stack.len() - 1].0);
            let size = row - start;
            let pairs = (size * (size - 1) / 2) as i64;
            largest[top] = largest[top].max(size as u32);
            pair_steps[parent + 1] += pairs;
            pair_steps[top + 1] -= pairs;
            first = start;
        }
        if depth > stack[stack.len() - 1].0 {
            stack.push((depth, first));
        }
    }

    // A width-`w` group whose members all share `D > w` bits has a group of at
    // least its size and depth exactly `w`: the positions `D − w` bits further on,
    // where two of its members diverge right after `w` bits.  So the largest group
    // at width `w` is the largest interval of depth `w` (or a singleton).
    let mut pairs = 0i64;
    (1..=max_width)
        .map(|width| {
            pairs += pair_steps[width];
            TupleCounts {
                max_count: largest[width].max(1),
                collision_pairs: pairs as f64,
            }
        })
        .collect()
}

/// Runs the t-tuple and LRS estimates off one shared prefix sort.
///
/// `tuple_counts` yields every width's statistics in `O(n log n)`; the
/// estimates then stop at the same cutoffs the specification defines (the
/// frequent cutoff, the last width that repeats, the [`MAX_TUPLE_BITS`] cap).
///
/// # Errors
///
/// Returns an error for sequences shorter than 70 bits (the 1-tuple cutoff needs
/// `Q[1] ≥ 35`) or of 2³² bits and more, or containing non-bit values.
pub fn t_tuple_and_lrs_estimates(bits: &[u8]) -> Result<(EstimatorResult, EstimatorResult)> {
    ensure_bits(bits)?;
    ensure_min_len(bits, 2 * FREQUENT_CUTOFF as usize)?;
    if u32::try_from(bits.len()).is_err() {
        return Err(AisError::InvalidParameter {
            name: "bits",
            reason: format!("at most 2³² − 1 bits, got {}", bits.len()),
        });
    }
    let counts = tuple_counts(bits);
    Ok(estimates_from_counts(bits.len(), |width| counts[width - 1]))
}

/// Reference implementation: the original per-width rolling-window hash-map scan.
///
/// Retained as the equivalence gate for the prefix-sort path (the same
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

    /// The prefix-sort path reproduces the reference *counts* exactly at every
    /// width, so the derived estimates are identical to the bit.
    fn assert_equivalent(bits: &[u8]) {
        for (index, fast) in tuple_counts(bits).iter().enumerate() {
            let oracle = count_tuples(bits, index + 1);
            assert_eq!(fast.max_count, oracle.max_count, "width {}", index + 1);
            assert_eq!(
                fast.collision_pairs,
                oracle.collision_pairs,
                "width {}",
                index + 1
            );
        }
        let (fast_t, fast_l) = t_tuple_and_lrs_estimates(bits).unwrap();
        let (ref_t, ref_l) = t_tuple_and_lrs_estimates_reference(bits).unwrap();
        assert_eq!(
            fast_t.h_per_bit.to_bits(),
            ref_t.h_per_bit.to_bits(),
            "t-tuple diverged: {} vs {}",
            fast_t.detail,
            ref_t.detail
        );
        assert_eq!(
            fast_l.h_per_bit.to_bits(),
            ref_l.h_per_bit.to_bits(),
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
    fn prefix_sort_path_matches_reference_on_adversarial_inputs() {
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
        // A 48-bit word planted every 100 bits in noise: at the middle widths the
        // most frequent tuple's group shares far more bits than the width, and
        // only its shifted copy has depth exactly the width.
        let word = random_bits(48, 56);
        let mut planted = random_bits(8000, 57);
        for start in (0..8000).step_by(100) {
            planted[start..start + 48].copy_from_slice(&word);
        }
        assert_equivalent(&planted);
        // Equal 128-bit keys at the end of the sequence, where the shorter suffix
        // must sort first: a random head before constant tails longer than a key,
        // period 129 (every long suffix has a twin matching all 128 key bits), and
        // lengths around the key width, where the width cap is n − 1.
        for tail in [0u8, 1] {
            let mut bits = random_bits(300, 47);
            bits.resize(1000, tail);
            assert_equivalent(&bits);
        }
        let pattern = random_bits(129, 48);
        assert_equivalent(
            &pattern
                .iter()
                .cycle()
                .take(1600)
                .copied()
                .collect::<Vec<u8>>(),
        );
        for len in [70, 127, 128, 129, 200] {
            assert_equivalent(&random_bits(len, len as u64));
            assert_equivalent(&vec![0; len]);
        }
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
            /// The equivalence gate: on arbitrary bit mixtures the prefix-sort
            /// path and the reference hash-map scan agree on both estimates.
            #[test]
            fn prefix_sort_path_matches_reference(
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
                prop_assert_eq!(fast_t.h_per_bit.to_bits(), ref_t.h_per_bit.to_bits());
                prop_assert_eq!(fast_l.h_per_bit.to_bits(), ref_l.h_per_bit.to_bits());
                prop_assert_eq!(fast_t.detail, ref_t.detail);
                prop_assert_eq!(fast_l.detail, ref_l.detail);
            }
        }
    }
}
