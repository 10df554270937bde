//! SP 800-90B §6.3 non-IID min-entropy estimator battery.
//!
//! The workspace's entropy ledger carries a *model-backed* min-entropy claim from the
//! noise source to the emitted bytes; this module is the **black-box cross-check**: a
//! hand-rolled implementation of the NIST SP 800-90B §6.3 non-IID estimator suite for
//! binary sequences, the same battery Saarinen and Skorski use to validate (or refute)
//! stochastic-model bounds against real generator output.  The battery deliberately
//! assumes nothing about the source — in particular not the mutual independence of
//! jitter realizations — so an independence-inflated claim shows up as the battery
//! estimate falling short of the claimed value.
//!
//! Estimators (spec section in parentheses), all operating on bits (`0`/`1` bytes):
//!
//! * [`mcv_estimate`] — most common value (§6.3.1),
//! * [`collision_estimate`] — collision times (§6.3.2),
//! * [`markov_estimate`] — first-order Markov chain, 128-sample paths (§6.3.3),
//! * [`compression_estimate`] — Maurer-style compression statistic (§6.3.4),
//! * [`t_tuple_estimate`] — frequent tuples (§6.3.5),
//! * [`lrs_estimate`] — longest repeated substring (§6.3.6),
//! * [`multi_mcw_estimate`] — MultiMCW sliding-window prediction (§6.3.7),
//! * [`lag_estimate`] — lag-subpredictor prediction (§6.3.8).
//!
//! [`EstimatorBattery::run`] executes all of them; the assessed min-entropy is the
//! **battery minimum** ([`EstimatorBattery::min_entropy_estimate`], the reducer SP
//! 800-90B §3.1.3 mandates).  Note the estimators are conservative by design (every
//! point estimate is pushed to a 99 % confidence bound), so even an ideal source
//! assesses measurably below 1 bit/bit at finite sample sizes — audit policies
//! compare against `claim − margin`, see `ptrng_engine`'s `EntropyAudit`.
//!
//! # Example
//!
//! ```
//! use ptrng_ais::estimators::EstimatorBattery;
//! use rand::rngs::StdRng;
//! use rand::{Rng, SeedableRng};
//!
//! # fn main() -> Result<(), ptrng_ais::AisError> {
//! let mut rng = StdRng::seed_from_u64(7);
//! let bits: Vec<u8> = (0..1 << 14).map(|_| rng.gen_range(0..=1)).collect();
//! let battery = EstimatorBattery::run(&bits)?;
//! let h = battery.min_entropy_estimate();
//! assert!(h > 0.5 && h <= 1.0, "ideal bits assess high: {h}");
//! # Ok(())
//! # }
//! ```

pub mod collision;
pub mod compression;
pub mod markov;
pub mod mcv;
pub mod prediction;
pub mod tuple;

pub use collision::collision_estimate;
pub use compression::compression_estimate;
pub use markov::markov_estimate;
pub use mcv::mcv_estimate;
pub use prediction::{lag_estimate, multi_mcw_estimate};
pub use tuple::{lrs_estimate, t_tuple_and_lrs_estimates, t_tuple_estimate};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::bits::ensure_bit_len;
use crate::{AisError, Result};

/// The normal quantile the specification uses for its one-sided 99 % upper
/// confidence bounds (`Z_{0.995}`, written `2.576` throughout SP 800-90B).
pub const Z_99: f64 = 2.576;

/// Smallest sequence the full battery accepts, in bits.
///
/// The binding constraint is the compression estimate's 1000-block dictionary (6000
/// bits) plus enough test blocks for a usable variance estimate; SP 800-90B itself
/// recommends one million samples — smaller windows simply widen every confidence
/// bound, which the audit margin has to absorb.
pub const MIN_BATTERY_BITS: usize = 8192;

/// Outcome of one estimator: the assessed min-entropy per bit plus a human-readable
/// breakdown of the statistic it was derived from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatorResult {
    /// Estimator name (`"mcv"`, `"collision"`, …).
    pub name: String,
    /// Assessed min-entropy per bit, in `[0, 1]`.
    pub h_per_bit: f64,
    /// Breakdown of the underlying statistic (point estimate, confidence bound, …).
    pub detail: String,
}

impl EstimatorResult {
    pub(crate) fn new(name: &str, h_per_bit: f64, detail: String) -> Self {
        Self {
            name: name.to_string(),
            h_per_bit,
            detail,
        }
    }
}

/// Wall-clock cost of one schedulable battery unit, for per-estimator histograms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatorTiming {
    /// Unit name — one of [`BATTERY_UNIT_NAMES`].
    pub name: String,
    /// Wall-clock nanoseconds the unit took (on this run's thread).
    pub ns: u64,
}

/// The battery's schedulable units, in specification order.
///
/// The t-tuple and LRS estimates share one sort of the window's start positions,
/// so they run (and are timed) as a single `"t-tuple+lrs"` unit; every other
/// estimator is its own unit.  The engine's per-estimator latency histograms use
/// these labels.
pub const BATTERY_UNIT_NAMES: [&str; 7] = [
    "mcv",
    "collision",
    "markov",
    "compression",
    "t-tuple+lrs",
    "multi-mcw",
    "lag",
];

type UnitFn = fn(&[u8]) -> Result<Vec<EstimatorResult>>;

/// The units behind [`BATTERY_UNIT_NAMES`], same order.
const BATTERY_UNITS: [UnitFn; 7] = [
    |bits| Ok(vec![mcv_estimate(bits)?]),
    |bits| Ok(vec![collision_estimate(bits)?]),
    |bits| Ok(vec![markov_estimate(bits)?]),
    |bits| Ok(vec![compression_estimate(bits)?]),
    |bits| {
        let (t_tuple, lrs) = t_tuple_and_lrs_estimates(bits)?;
        Ok(vec![t_tuple, lrs])
    },
    |bits| Ok(vec![multi_mcw_estimate(bits)?]),
    |bits| Ok(vec![lag_estimate(bits)?]),
];

/// Indices into [`BATTERY_UNITS`] in the order workers take them: longest first
/// (lag, t-tuple+LRS, MultiMCW, compression, then the counting trio), so the
/// longest unit starts at once and the short ones fill in behind it.
const DISPATCH_ORDER: [usize; 7] = [6, 4, 5, 3, 0, 1, 2];

/// The full §6.3 battery: every estimator's result, reduced by the battery minimum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EstimatorBattery {
    results: Vec<EstimatorResult>,
}

impl EstimatorBattery {
    /// Runs every estimator over the bit sequence.
    ///
    /// # Errors
    ///
    /// Returns an error when the sequence is shorter than [`MIN_BATTERY_BITS`] or
    /// contains non-bit values.
    pub fn run(bits: &[u8]) -> Result<Self> {
        Ok(Self::run_with_timings(bits)?.0)
    }

    /// Runs the battery and reports each unit's wall-clock cost.
    ///
    /// The seven units (see [`BATTERY_UNIT_NAMES`]) are independent, so on a
    /// multi-core host they run on a scoped thread pool sized by
    /// `available_parallelism`, which takes them longest first; on one CPU the
    /// battery degrades gracefully to a serial loop with no thread overhead.
    /// Results come back in specification order either way, and timings are per
    /// unit regardless of scheduling.
    ///
    /// # Errors
    ///
    /// Returns an error when the sequence is shorter than [`MIN_BATTERY_BITS`] or
    /// contains non-bit values.
    pub fn run_with_timings(bits: &[u8]) -> Result<(Self, Vec<EstimatorTiming>)> {
        ensure_bit_len(bits, MIN_BATTERY_BITS)?;
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(BATTERY_UNITS.len());
        let mut slots: Vec<Option<(Result<Vec<EstimatorResult>>, u64)>> = if workers <= 1 {
            BATTERY_UNITS
                .iter()
                .map(|unit| {
                    let start = Instant::now();
                    let outcome = unit(bits);
                    Some((outcome, start.elapsed().as_nanos() as u64))
                })
                .collect()
        } else {
            let next = AtomicUsize::new(0);
            let done = Mutex::new(Vec::with_capacity(BATTERY_UNITS.len()));
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        while let Some(&index) =
                            DISPATCH_ORDER.get(next.fetch_add(1, Ordering::Relaxed))
                        {
                            let start = Instant::now();
                            let outcome = BATTERY_UNITS[index](bits);
                            let ns = start.elapsed().as_nanos() as u64;
                            done.lock()
                                .expect("battery worker poisoned the result lock")
                                .push((index, outcome, ns));
                        }
                    });
                }
            });
            let mut slots: Vec<Option<_>> = (0..BATTERY_UNITS.len()).map(|_| None).collect();
            for (index, outcome, ns) in done
                .into_inner()
                .expect("battery worker poisoned the result lock")
            {
                slots[index] = Some((outcome, ns));
            }
            slots
        };
        let mut results = Vec::with_capacity(8);
        let mut timings = Vec::with_capacity(BATTERY_UNITS.len());
        for (slot, name) in slots.iter_mut().zip(BATTERY_UNIT_NAMES) {
            let (outcome, ns) = slot.take().expect("every battery unit ran exactly once");
            results.extend(outcome?);
            timings.push(EstimatorTiming {
                name: name.to_string(),
                ns,
            });
        }
        Ok((Self { results }, timings))
    }

    /// The individual estimator results, in specification order.
    pub fn results(&self) -> &[EstimatorResult] {
        &self.results
    }

    /// The assessed min-entropy per bit: the **minimum** over every estimator, the
    /// reducer SP 800-90B §3.1.3 prescribes for non-IID sources.
    pub fn min_entropy_estimate(&self) -> f64 {
        self.results
            .iter()
            .map(|r| r.h_per_bit)
            .fold(f64::INFINITY, f64::min)
    }

    /// The estimator that produced the battery minimum.
    pub fn weakest(&self) -> &EstimatorResult {
        self.results
            .iter()
            .min_by(|a, b| a.h_per_bit.total_cmp(&b.h_per_bit))
            .expect("the battery always holds at least one result")
    }
}

/// The three counting members of the battery — MCV (§6.3.1), collision (§6.3.2)
/// and Markov (§6.3.3) — computed in one fused pass over the window.
///
/// Returns exactly what [`mcv_estimate`], [`collision_estimate`] and
/// [`markov_estimate`] return (same count arithmetic, same results), but shares a
/// single validation sweep and counting loop instead of seven passes.  An audit
/// lane on a sparse cadence runs only this pass on most windows, so every-lane
/// deployments lean on it.
///
/// # Errors
///
/// Returns an error for sequences shorter than 16 bits or containing non-bit
/// values.
pub fn counting_estimates(bits: &[u8]) -> Result<Vec<EstimatorResult>> {
    ensure_bit_len(bits, 16)?;
    let mut prev = bits[0];
    let mut ones = usize::from(prev);
    let mut pairs = [[0u64; 2]; 2];
    for &bit in &bits[1..] {
        ones += usize::from(bit);
        pairs[usize::from(prev)][usize::from(bit)] += 1;
        prev = bit;
    }
    let (n2, n3) = collision::collision_counts(bits);
    Ok(vec![
        mcv::mcv_result_from_counts(ones, bits.len()),
        collision::collision_result_from_counts(n2, n3),
        markov::markov_result_from_counts(ones, bits.len(), pairs),
    ])
}

/// The specification's 99 % upper confidence bound on a probability point estimate:
/// `p_u = min(1, p̂ + 2.576·sqrt(p̂(1−p̂)/(n−1)))`.
pub(crate) fn upper_probability_bound(p_hat: f64, n: usize) -> f64 {
    debug_assert!(n >= 2);
    (p_hat + Z_99 * (p_hat * (1.0 - p_hat) / (n - 1) as f64).sqrt()).min(1.0)
}

/// `−log2(p)` clamped into `[0, 1]` — min-entropy per binary sample.
pub(crate) fn min_entropy_from_probability(p: f64) -> f64 {
    (-p.log2()).clamp(0.0, 1.0)
}

pub(crate) fn ensure_min_len(bits: &[u8], needed: usize) -> Result<()> {
    if bits.len() < needed {
        return Err(AisError::SequenceTooShort {
            len: bits.len(),
            needed,
        });
    }
    Ok(())
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
    fn battery_runs_and_reduces_to_the_minimum() {
        let bits = random_bits(1 << 14, 1);
        let battery = EstimatorBattery::run(&bits).unwrap();
        assert_eq!(battery.results().len(), 8);
        let min = battery.min_entropy_estimate();
        assert!(min > 0.0 && min <= 1.0, "min {min}");
        assert_eq!(battery.weakest().h_per_bit, min);
        for result in battery.results() {
            assert!(
                result.h_per_bit >= min,
                "{} below the reported minimum",
                result.name
            );
            assert!(!result.detail.is_empty());
        }
    }

    #[test]
    fn biased_bits_assess_below_ideal_bits() {
        let ideal = EstimatorBattery::run(&random_bits(1 << 14, 2)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let biased: Vec<u8> = (0..1 << 14).map(|_| u8::from(rng.gen_bool(0.8))).collect();
        let battery = EstimatorBattery::run(&biased).unwrap();
        assert!(
            battery.min_entropy_estimate() < ideal.min_entropy_estimate() - 0.1,
            "biased {} vs ideal {}",
            battery.min_entropy_estimate(),
            ideal.min_entropy_estimate()
        );
    }

    #[test]
    fn fused_counting_pass_matches_the_individual_estimators() {
        for seed in 0..4 {
            let bits = random_bits(1 << 14, 100 + seed);
            let fused = counting_estimates(&bits).unwrap();
            let separate = [
                mcv_estimate(&bits).unwrap(),
                collision_estimate(&bits).unwrap(),
                markov_estimate(&bits).unwrap(),
            ];
            assert_eq!(fused, separate, "seed {seed}");
        }
        // Biased data exercises the non-saturated collision branch too.
        let mut rng = StdRng::seed_from_u64(9);
        let biased: Vec<u8> = (0..1 << 14).map(|_| u8::from(rng.gen_bool(0.8))).collect();
        let fused = counting_estimates(&biased).unwrap();
        assert_eq!(fused[1], collision_estimate(&biased).unwrap());
        assert!(counting_estimates(&[0, 1, 0]).is_err());
        assert!(counting_estimates(&[2; 64]).is_err());
    }

    #[test]
    fn battery_rejects_short_and_invalid_input() {
        assert!(matches!(
            EstimatorBattery::run(&[0, 1, 0, 1]),
            Err(AisError::SequenceTooShort { .. })
        ));
        let mut bits = random_bits(MIN_BATTERY_BITS, 4);
        bits[17] = 3;
        assert!(matches!(
            EstimatorBattery::run(&bits),
            Err(AisError::NotABit { .. })
        ));
    }

    #[test]
    fn battery_serializes_for_reports() {
        let bits = random_bits(1 << 14, 5);
        let battery = EstimatorBattery::run(&bits).unwrap();
        let value = serde::Serialize::to_value(&battery);
        let back: EstimatorBattery = serde::Deserialize::from_value(&value).unwrap();
        assert_eq!(back, battery);
    }

    #[test]
    fn confidence_bound_behaves() {
        assert!((upper_probability_bound(1.0, 100) - 1.0).abs() < 1e-15);
        let p = upper_probability_bound(0.5, 10_001);
        assert!(p > 0.5 && p < 0.52, "p_u {p}");
        assert_eq!(min_entropy_from_probability(0.5), 1.0);
        assert_eq!(min_entropy_from_probability(1.0), 0.0);
    }
}
