//! Hand-rolled HDR-style log-linear histograms for latency recording.
//!
//! Values (nanoseconds) are binned into `2^SUB_BITS = 32` linear sub-buckets per
//! power of two, giving a bounded relative error of `2^-5 ≈ 3.1%` per bucket across
//! the whole range. Values below 32 get exact unit buckets; values above
//! [`MAX_TRACKED_NS`] (~4.6 minutes) are clamped into the top bucket and counted in
//! a separate saturation counter. Recording is lock-free (relaxed atomic adds), so
//! one histogram can be shared by every shard worker and HTTP thread.

use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per octave: `2^SUB_BITS`.
const SUB_BITS: u32 = 5;
/// Sub-bucket count per octave.
const SUB: usize = 1 << SUB_BITS;
/// Highest most-significant-bit position tracked exactly; values with a higher MSB
/// saturate.
const MAX_MSB: u32 = 37;
/// Total bucket count: the exact low range plus `SUB` buckets per tracked octave.
const BUCKETS: usize = (MAX_MSB - SUB_BITS + 2) as usize * SUB;

/// Largest value recorded without saturating, in nanoseconds (~274 s).
pub const MAX_TRACKED_NS: u64 = (1 << (MAX_MSB + 1)) - 1;

/// Default `le` bucket boundaries (nanoseconds) for Prometheus exposition of the
/// time histograms: 1 µs up to 10 s.
pub const DEFAULT_TIME_BOUNDS_NS: [u64; 14] = [
    1_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
    5_000_000_000,
    10_000_000_000,
];

/// Bucket index for a value.
fn bucket_index(value: u64) -> usize {
    let value = value.min(MAX_TRACKED_NS);
    if value < SUB as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let octave = (msb - SUB_BITS + 1) as usize;
    let sub = (value >> (msb - SUB_BITS)) as usize - SUB;
    octave * SUB + sub
}

/// Inclusive lower bound of a bucket.
fn bucket_lower(index: usize) -> u64 {
    if index < SUB {
        return index as u64;
    }
    let octave = index / SUB;
    let sub = index % SUB;
    ((SUB + sub) as u64) << (octave - 1)
}

/// Inclusive upper bound of a bucket (the value a quantile query reports).
fn bucket_upper(index: usize) -> u64 {
    if index + 1 >= BUCKETS {
        return MAX_TRACKED_NS;
    }
    bucket_lower(index + 1) - 1
}

/// Rank-based quantile over a bucket-count slice: the reported value is the upper
/// bound of the bucket holding the rank-`⌈q·n⌉` recorded value, so it lands in the
/// same bucket as the exact order statistic.
fn quantile_from_counts(counts: &[u64], count: u64, q: f64) -> Option<u64> {
    if count == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for (index, &bucket) in counts.iter().enumerate() {
        seen += bucket;
        if seen >= rank {
            return Some(bucket_upper(index));
        }
    }
    Some(MAX_TRACKED_NS)
}

/// A mergeable, lock-free log-linear histogram of nanosecond values.
#[derive(Debug)]
pub struct LogLinearHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    saturated: AtomicU64,
}

impl LogLinearHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            saturated: AtomicU64::new(0),
        }
    }

    /// Records one value (nanoseconds). Values above [`MAX_TRACKED_NS`] are clamped
    /// into the top bucket and counted as saturated.
    pub fn record(&self, value: u64) {
        if value > MAX_TRACKED_NS {
            self.saturated.fetch_add(1, Ordering::Relaxed);
        }
        let clamped = value.min(MAX_TRACKED_NS);
        self.buckets[bucket_index(clamped)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(clamped, Ordering::Relaxed);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded (clamped) values, nanoseconds.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Values clamped at [`MAX_TRACKED_NS`].
    pub fn saturated(&self) -> u64 {
        self.saturated.load(Ordering::Relaxed)
    }

    /// The rank-based `q`-quantile of recorded values, or `None` when empty.
    ///
    /// Exact in rank; the reported value is the upper bound of the bucket holding
    /// the order statistic, so it is within one bucket's relative error
    /// (`2^-5 ≈ 3.1%`) of the exact value.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge_from(&self, other: &LogLinearHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n != 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.saturated
            .fetch_add(other.saturated.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A point-in-time copy of the histogram state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            saturated: self.saturated.load(Ordering::Relaxed),
        }
    }
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A frozen copy of a [`LogLinearHistogram`], used for quantile queries and
/// Prometheus exposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    saturated: u64,
}

impl HistogramSnapshot {
    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded (clamped) values, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// The rank-based `q`-quantile (see [`LogLinearHistogram::quantile`]).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        quantile_from_counts(&self.counts, self.count, q)
    }

    /// Count of recorded values whose bucket lies at or below the bucket of
    /// `bound_ns` — the cumulative count a Prometheus `le` bucket reports.
    pub fn cumulative_le(&self, bound_ns: u64) -> u64 {
        let top = bucket_index(bound_ns);
        self.counts[..=top].iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference quantile: the rank-`⌈q·n⌉` order statistic of the raw values.
    fn reference_quantile(values: &mut [u64], q: f64) -> u64 {
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        values[rank - 1]
    }

    #[test]
    fn bucket_indexing_is_contiguous_and_monotone() {
        let mut last = 0usize;
        for value in 0..(1u64 << 14) {
            let index = bucket_index(value);
            assert!(index >= last, "index regressed at {value}");
            assert!(index <= last + 1, "index skipped a bucket at {value}");
            assert!(bucket_lower(index) <= value && value <= bucket_upper(index));
            last = index;
        }
        for exponent in 1..63u32 {
            for value in [(1u64 << exponent) - 1, 1u64 << exponent] {
                let clamped = value.min(MAX_TRACKED_NS);
                let index = bucket_index(value);
                assert!(bucket_lower(index) <= clamped && clamped <= bucket_upper(index));
            }
        }
        assert_eq!(bucket_index(MAX_TRACKED_NS), BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let h = LogLinearHistogram::new();
        for v in 0..SUB as u64 {
            h.record(v);
        }
        for v in 0..SUB as u64 {
            assert_eq!(h.quantile((v as f64 + 1.0) / SUB as f64), Some(v));
        }
    }

    #[test]
    fn quantiles_track_reference_within_a_bucket() {
        let h = LogLinearHistogram::new();
        let mut values: Vec<u64> = (0..1000u64).map(|i| i * i * 37 + 11).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let exact = reference_quantile(&mut values, q);
            let approx = h.quantile(q).expect("non-empty");
            assert_eq!(
                bucket_index(approx),
                bucket_index(exact),
                "q={q}: {approx} vs {exact}"
            );
            assert!(approx >= exact);
        }
    }

    #[test]
    fn saturation_is_counted_and_clamped() {
        let h = LogLinearHistogram::new();
        h.record(u64::MAX);
        h.record(MAX_TRACKED_NS + 1);
        h.record(5);
        assert_eq!(h.saturated(), 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(1.0), Some(MAX_TRACKED_NS));
        assert_eq!(h.sum(), 2 * MAX_TRACKED_NS + 5);
    }

    #[test]
    fn merge_adds_counts() {
        let a = LogLinearHistogram::new();
        let b = LogLinearHistogram::new();
        a.record(100);
        b.record(1_000_000);
        b.record(u64::MAX);
        a.merge_from(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.saturated(), 1);
        assert_eq!(a.snapshot().cumulative_le(MAX_TRACKED_NS), 3);
    }

    #[test]
    fn cumulative_le_matches_recorded_mass() {
        let h = LogLinearHistogram::new();
        for v in [500u64, 1_500, 900_000, 2_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.cumulative_le(1_000), 1);
        assert_eq!(snap.cumulative_le(1_000_000), 3);
        assert_eq!(snap.cumulative_le(MAX_TRACKED_NS), 4);
    }
}
