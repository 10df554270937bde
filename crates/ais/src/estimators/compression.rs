//! Compression estimate (SP 800-90B §6.3.4).
//!
//! Maurer's universal statistic: the sequence is partitioned into 6-bit blocks, the
//! first 1000 blocks prime a last-occurrence dictionary, and the mean log-distance
//! to each test block's previous occurrence is pushed to its 99 % lower confidence
//! bound.  The bound is inverted against the statistic's expectation under the
//! spec's two-parameter family (one block value with probability `p`, the remaining
//! 63 sharing the rest) to recover `p`, and `H = −log2(p)/6` per bit.
//!
//! Correlated sources re-visit recent blocks sooner than an IID source of the same
//! marginal distribution, shrinking the mean log-distance — this estimator therefore
//! responds to exactly the dependence structure the paper warns about.

use crate::bits::{blocks_as_integers, ensure_bits};
use crate::Result;

use super::{ensure_min_len, EstimatorResult, Z_99};

/// Block width in bits (the specification fixes `b = 6`).
const BLOCK_BITS: usize = 6;

/// Number of blocks priming the dictionary (the specification fixes `d = 1000`).
const DICT_BLOCKS: usize = 1000;

/// Corrective factor on the sample standard deviation (spec: `c = 0.5907`).
const STD_CORRECTION: f64 = 0.5907;

/// Runs the compression estimate over a bit sequence.
///
/// # Errors
///
/// Returns an error when fewer than `6·(1000 + 2)` bits are provided or the input
/// contains non-bit values.
pub fn compression_estimate(bits: &[u8]) -> Result<EstimatorResult> {
    compression_estimate_with(bits, g_term)
}

/// The spec's `G(z)` evaluated over a `log2(u)` table of `total + 1` entries.
type GTerm = fn(f64, usize, &[f64]) -> f64;

fn compression_estimate_with(bits: &[u8], g: GTerm) -> Result<EstimatorResult> {
    ensure_bits(bits)?;
    ensure_min_len(bits, BLOCK_BITS * (DICT_BLOCKS + 2))?;
    let blocks = blocks_as_integers(bits, BLOCK_BITS)?;
    let total = blocks.len();
    let v = total - DICT_BLOCKS;

    // Distances to the previous occurrence of each test block (1-based positions,
    // first-ever occurrences score their own position, per spec).
    let mut last = [0usize; 1 << BLOCK_BITS];
    for (position, &block) in blocks.iter().take(DICT_BLOCKS).enumerate() {
        last[block as usize] = position + 1;
    }
    let mut sum = 0.0f64;
    let mut sum_sq = 0.0f64;
    for (index, &block) in blocks.iter().enumerate().skip(DICT_BLOCKS) {
        let position = index + 1;
        let seen = last[block as usize];
        let distance = if seen == 0 { position } else { position - seen };
        last[block as usize] = position;
        let x = (distance as f64).log2();
        sum += x;
        sum_sq += x * x;
    }
    let mean = sum / v as f64;
    let var = (sum_sq - sum * sum / v as f64) / (v - 1) as f64;
    let sigma = STD_CORRECTION * var.max(0.0).sqrt();
    let mean_lo = mean - Z_99 * sigma / (v as f64).sqrt();

    // Invert the expectation: G is strictly decreasing in p on [2⁻⁶, 1).
    let log2_table = log2_table(total);
    let uniform = 1.0 / (1 << BLOCK_BITS) as f64;
    let expectation = |p: f64| expected_statistic(g, p, total, v, &log2_table);
    let p = if mean_lo >= expectation(uniform) {
        uniform
    } else {
        let (mut lo, mut hi) = (uniform, 1.0 - 1e-9);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if expectation(mid) > mean_lo {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    };
    let h = ((-p.log2()) / BLOCK_BITS as f64).clamp(0.0, 1.0);
    Ok(EstimatorResult::new(
        "compression",
        h,
        format!("v {v}, X̄ {mean:.6}, X̄' {mean_lo:.6}, p {p:.6e}"),
    ))
}

/// Expectation of the mean log-distance under the spec's two-parameter block
/// distribution: `G(p) + 63·G(q)` with `q = (1 − p)/63`.
fn expected_statistic(g: GTerm, p: f64, total: usize, v: usize, log2_table: &[f64]) -> f64 {
    let q = (1.0 - p) / ((1 << BLOCK_BITS) - 1) as f64;
    (g(p, total, log2_table) + ((1 << BLOCK_BITS) - 1) as f64 * g(q, total, log2_table)) / v as f64
}

/// `log2(max(u, 1))` for `u` in `0..=total`.
fn log2_table(total: usize) -> Vec<f64> {
    (0..=total).map(|u| (u.max(1) as f64).log2()).collect()
}

/// The spec's `G(z)`: `Σ_{t=d+1}^{total} [Σ_{u<t} log2(u)·z²(1−z)^{u−1}
/// + log2(t)·z(1−z)^{t−1}]`, with the double sum collapsed into one pass over `u`
/// (each inner term appears for every `t > max(u, d)`).
///
/// Every 16 terms past the dictionary the pass checks whether a remaining term can
/// still change either running sum and stops once none can, so it returns the
/// bits of the full pass.  Past the dictionary every later inner term is at most
/// `log2(total)·z²·power·(total − u)` and every later tail term at most
/// `log2(total)·z·power`: `power` only shrinks, and rounding is monotone.  A term
/// under half the spacing above a sum rounds away, so once both bounds sit under
/// a quarter of that spacing the sums are final.  Without the stop, any `z < 0.5`
/// pins `power` at the smallest subnormal and the pass runs to `total` on
/// subnormal multiplies.
fn g_term(z: f64, total: usize, log2_table: &[f64]) -> f64 {
    let one_minus = 1.0 - z;
    let log2_total = log2_table[total];
    let mut inner = 0.0f64; // Σ log2(u)·z²(1−z)^{u−1}·(total − max(u, d))
    let mut tail = 0.0f64; // Σ_{t>d} log2(t)·z(1−z)^{t−1}
    let mut power = 1.0f64; // (1−z)^{u−1}
    for (u, &log2_u) in log2_table.iter().enumerate().take(total + 1).skip(1) {
        if u > DICT_BLOCKS {
            if u % 16 == 0
                && 4.0 * (log2_total * z * power) < tail.next_up() - tail
                && 4.0 * (log2_total * z * z * power * (total - u) as f64) < inner.next_up() - inner
            {
                break;
            }
            tail += log2_u * z * power;
        }
        if u < total {
            inner += log2_u * z * z * power * (total - u.max(DICT_BLOCKS)) as f64;
        }
        power *= one_minus;
    }
    inner + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ideal_bits_assess_high() {
        let mut rng = StdRng::seed_from_u64(31);
        let bits: Vec<u8> = (0..1 << 16).map(|_| rng.gen_range(0..=1)).collect();
        let h = compression_estimate(&bits).unwrap().h_per_bit;
        assert!(h > 0.75 && h <= 1.0, "ideal assessed {h}");
    }

    #[test]
    fn biased_bits_assess_lower() {
        let mut rng = StdRng::seed_from_u64(32);
        let biased: Vec<u8> = (0..1 << 16).map(|_| u8::from(rng.gen_bool(0.75))).collect();
        let h = compression_estimate(&biased).unwrap().h_per_bit;
        let mut rng = StdRng::seed_from_u64(33);
        let ideal: Vec<u8> = (0..1 << 16).map(|_| rng.gen_range(0..=1)).collect();
        let ideal_h = compression_estimate(&ideal).unwrap().h_per_bit;
        assert!(h < ideal_h - 0.1, "biased {h} vs ideal {ideal_h}");
    }

    #[test]
    fn constant_bits_assess_near_zero() {
        let bits = vec![1u8; BLOCK_BITS * (DICT_BLOCKS + 500)];
        let h = compression_estimate(&bits).unwrap().h_per_bit;
        assert!(h < 0.05, "constant assessed {h}");
    }

    #[test]
    fn rejects_short_input() {
        assert!(compression_estimate(&[0u8; 600]).is_err());
    }

    /// The full pass the early exit replaced: it stops only once `power` is zero.
    fn g_term_reference(z: f64, total: usize, log2_table: &[f64]) -> f64 {
        let one_minus = 1.0 - z;
        let mut inner = 0.0f64;
        let mut tail = 0.0f64;
        let mut power = 1.0f64;
        for (u, &log2_u) in log2_table.iter().enumerate().take(total + 1).skip(1) {
            if power == 0.0 {
                break;
            }
            if u < total {
                inner += log2_u * z * z * power * (total - u.max(DICT_BLOCKS)) as f64;
            }
            if u > DICT_BLOCKS {
                tail += log2_u * z * power;
            }
            power *= one_minus;
        }
        inner + tail
    }

    #[test]
    fn early_exit_matches_the_full_pass_bit_for_bit() {
        // Log-spaced from 1e-11 to the stall range, dense across the stall range
        // (0.032, 0.5) where `power` pins at the smallest subnormal, then up to
        // 1 − 1e-9, the top of the bisection bracket.
        let mut grid: Vec<f64> = (0..=24)
            .map(|k| 10f64.powf(-11.0 + 0.4 * k as f64))
            .collect();
        grid.extend((0..=48).map(|k| 0.032 + (0.5 - 0.032) * k as f64 / 48.0));
        grid.extend((1..=17).map(|k| 1.0 - 10f64.powf(-0.5 * k as f64 - 0.5)));
        // Totals of 2¹³, 2¹⁵, 2¹⁷ and 2²⁰ bits in 6-bit blocks.
        for total in [1365, 5461, 21845, 174_762] {
            let table = log2_table(total);
            for &z in &grid {
                assert_eq!(
                    g_term(z, total, &table).to_bits(),
                    g_term_reference(z, total, &table).to_bits(),
                    "z {z}, total {total}"
                );
            }
        }
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The whole estimate, bisection included, is unchanged by the early exit.
            #[test]
            fn estimate_matches_the_full_pass(
                seed in 0u64..1 << 20,
                len in 6012usize..=1 << 17,
                kind in 0u8..3,
                p in 0.5f64..0.95,
            ) {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut prev = 0u8;
                let bits: Vec<u8> = (0..len)
                    .map(|_| {
                        prev = match kind {
                            0 => rng.gen_range(0..=1),
                            1 => u8::from(rng.gen_bool(p)),
                            _ => prev ^ u8::from(!rng.gen_bool(p)),
                        };
                        prev
                    })
                    .collect();
                let fast = compression_estimate(&bits).unwrap();
                let full = compression_estimate_with(&bits, g_term_reference).unwrap();
                prop_assert_eq!(fast.h_per_bit.to_bits(), full.h_per_bit.to_bits());
                prop_assert_eq!(fast.detail, full.detail);
            }
        }
    }
}
