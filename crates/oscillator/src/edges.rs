//! Edge-time series utilities.
//!
//! The measurement circuit of the paper counts rising edges of one oscillator inside
//! windows defined by another oscillator.  These helpers convert between period series
//! and absolute edge timestamps and perform the window counting.

use serde::{Deserialize, Serialize};

use crate::{OscError, Result};

/// A monotonically increasing series of rising-edge timestamps, in seconds.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EdgeSeries {
    times: Vec<f64>,
}

impl EdgeSeries {
    /// Builds an edge series from consecutive periods, starting at time `t0`.
    ///
    /// The returned series contains `periods.len() + 1` edges (the starting edge plus one
    /// edge per period).
    ///
    /// # Errors
    ///
    /// Returns an error when any period is not strictly positive or `t0` is not finite.
    pub fn from_periods(t0: f64, periods: &[f64]) -> Result<Self> {
        if !t0.is_finite() {
            return Err(OscError::InvalidParameter {
                name: "t0",
                reason: "must be finite".to_string(),
            });
        }
        let mut times = Vec::with_capacity(periods.len() + 1);
        let mut t = t0;
        times.push(t);
        for (i, &p) in periods.iter().enumerate() {
            if p <= 0.0 || !p.is_finite() {
                return Err(OscError::InvalidParameter {
                    name: "periods",
                    reason: format!("period {i} is not strictly positive ({p})"),
                });
            }
            t += p;
            times.push(t);
        }
        Ok(Self { times })
    }

    /// The edge timestamps.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Timestamp of the last edge, if any.
    pub fn last_time(&self) -> Option<f64> {
        self.times.last().copied()
    }

    /// Number of edges with timestamp strictly before `t`.
    pub fn edges_before(&self, t: f64) -> usize {
        self.times.partition_point(|&x| x < t)
    }

    /// Number of edges in the half-open window `[start, end)`.
    ///
    /// # Errors
    ///
    /// Returns an error when `end < start` or either bound is not finite.
    pub fn edges_in_window(&self, start: f64, end: f64) -> Result<usize> {
        if !start.is_finite() || !end.is_finite() || end < start {
            return Err(OscError::InvalidParameter {
                name: "window",
                reason: format!("invalid window [{start}, {end})"),
            });
        }
        Ok(self.edges_before(end) - self.edges_before(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_periods_accumulates() {
        let e = EdgeSeries::from_periods(1.0, &[0.5, 0.25, 0.25]).unwrap();
        assert_eq!(e.times(), &[1.0, 1.5, 1.75, 2.0]);
        assert_eq!(e.last_time(), Some(2.0));
    }

    #[test]
    fn from_periods_rejects_non_positive_periods() {
        assert!(EdgeSeries::from_periods(0.0, &[1.0, 0.0]).is_err());
        assert!(EdgeSeries::from_periods(0.0, &[1.0, -0.1]).is_err());
        assert!(EdgeSeries::from_periods(f64::NAN, &[1.0]).is_err());
    }

    #[test]
    fn window_counting() {
        let e = EdgeSeries::from_periods(0.0, &[1.0; 4]).unwrap();
        assert_eq!(e.edges_before(2.5), 3);
        assert_eq!(e.edges_before(0.0), 0);
        assert_eq!(e.edges_in_window(1.0, 3.0).unwrap(), 2); // edges at 1.0 and 2.0
        assert_eq!(e.edges_in_window(0.5, 0.9).unwrap(), 0);
        assert_eq!(e.edges_in_window(0.0, 10.0).unwrap(), 5);
        assert!(e.edges_in_window(3.0, 1.0).is_err());
        assert!(e.edges_in_window(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn counting_is_consistent_with_a_jittery_grid() {
        // Edges every ~1 unit with small deterministic wiggle; windows of 10 units must
        // contain 10 ± 1 edges.
        let periods: Vec<f64> = (0..1000)
            .map(|i| 1.0 + 0.05 * ((i as f64) * 0.7).sin())
            .collect();
        let e = EdgeSeries::from_periods(0.0, &periods).unwrap();
        for k in 0..90 {
            let start = k as f64 * 10.0;
            let count = e.edges_in_window(start, start + 10.0).unwrap();
            assert!((9..=11).contains(&count), "window {k}: {count}");
        }
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn periods_roundtrip(
                t0 in -10.0f64..10.0,
                periods in proptest::collection::vec(1e-6f64..10.0, 1..64),
            ) {
                let e = EdgeSeries::from_periods(t0, &periods).unwrap();
                let back: Vec<f64> = e.times().windows(2).map(|w| w[1] - w[0]).collect();
                prop_assert_eq!(back.len(), periods.len());
                for (a, b) in back.iter().zip(periods.iter()) {
                    prop_assert!((a - b).abs() < 1e-9);
                }
            }

            #[test]
            fn window_counts_are_additive(
                periods in proptest::collection::vec(0.1f64..2.0, 8..64),
                split in 0.1f64..0.9,
            ) {
                let e = EdgeSeries::from_periods(0.0, &periods).unwrap();
                let end = e.last_time().unwrap() + 1.0;
                let mid = end * split;
                let whole = e.edges_in_window(0.0, end).unwrap();
                let parts = e.edges_in_window(0.0, mid).unwrap() + e.edges_in_window(mid, end).unwrap();
                prop_assert_eq!(whole, parts);
            }
        }
    }
}
