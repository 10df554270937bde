//! Reference-windowed edge counter.
//!
//! Models the FPGA counter of the paper's Fig. 6: the rising edges of the *target*
//! oscillator (`Osc1`) are counted during consecutive windows spanning `N` periods of the
//! *reference* oscillator (`Osc2`).  Each window yields one value `Q_i^N`.

use ptrng_osc::edges::EdgeSeries;

use crate::{MeasureError, Result};

/// Counts the target oscillator's rising edges inside consecutive windows of `n`
/// reference periods.
///
/// The `i`-th window spans `[r[i·n], r[(i+1)·n])` where `r` are the reference edge
/// timestamps.  Only complete windows fully covered by the target record are returned;
/// a final window that extends beyond the last target edge is discarded to avoid
/// truncation bias.
///
/// # Errors
///
/// Returns an error when `n == 0` or either edge series is too short to form at least
/// one complete window.
pub fn count_in_reference_windows(
    target: &EdgeSeries,
    reference: &EdgeSeries,
    n: usize,
) -> Result<Vec<u64>> {
    if n == 0 {
        return Err(MeasureError::InvalidParameter {
            name: "n",
            reason: "window length must be at least one reference period".to_string(),
        });
    }
    if reference.times().len() < n + 1 {
        return Err(MeasureError::InvalidParameter {
            name: "reference",
            reason: format!(
                "need at least {} reference edges for one window of {n} periods, got {}",
                n + 1,
                reference.times().len()
            ),
        });
    }
    let target_end = match target.last_time() {
        Some(t) => t,
        None => {
            return Err(MeasureError::InvalidParameter {
                name: "target",
                reason: "target edge series is empty".to_string(),
            })
        }
    };
    let ref_times = reference.times();
    let windows = (ref_times.len() - 1) / n;
    let mut counts = Vec::with_capacity(windows);
    for w in 0..windows {
        let start = ref_times[w * n];
        let end = ref_times[(w + 1) * n];
        if end > target_end {
            break;
        }
        counts.push(target.edges_in_window(start, end)? as u64);
    }
    if counts.is_empty() {
        return Err(MeasureError::InvalidParameter {
            name: "target",
            reason: "target record is too short to cover one reference window".to_string(),
        });
    }
    Ok(counts)
}

/// Converts consecutive counter values into realizations of the accumulated relative
/// jitter statistic `s_N(t_i) = (Q_{i+1}^N − Q_i^N)/f0` (Eq. 12), where `f0` is the
/// nominal frequency of the counted (target) oscillator.
///
/// # Errors
///
/// Returns an error when fewer than two counter values are supplied or `f0` is not
/// positive.
pub fn counts_to_sn(counts: &[u64], f0: f64) -> Result<Vec<f64>> {
    if counts.len() < 2 {
        return Err(MeasureError::InvalidParameter {
            name: "counts",
            reason: format!("need at least two counter values, got {}", counts.len()),
        });
    }
    if f0 <= 0.0 || !f0.is_finite() {
        return Err(MeasureError::InvalidParameter {
            name: "f0",
            reason: format!("must be positive and finite, got {f0}"),
        });
    }
    Ok(counts
        .windows(2)
        .map(|w| (w[1] as f64 - w[0] as f64) / f0)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn regular_edges(period: f64, len: usize) -> EdgeSeries {
        EdgeSeries::from_periods(0.0, &vec![period; len]).unwrap()
    }

    #[test]
    fn identical_oscillators_give_constant_counts() {
        let target = regular_edges(1.0, 1000);
        let reference = regular_edges(1.0, 1000);
        let counts = count_in_reference_windows(&target, &reference, 10).unwrap();
        assert!(!counts.is_empty());
        // Every window of 10 reference periods contains exactly 10 target edges
        // (boundary edges are half-open so there is no double counting).
        for &c in &counts {
            assert_eq!(c, 10);
        }
    }

    #[test]
    fn frequency_offset_shows_up_in_the_counts() {
        // Target runs 5 % faster than the reference: windows of 100 reference periods
        // contain about 105 target edges.
        let target = regular_edges(1.0 / 1.05, 4000);
        let reference = regular_edges(1.0, 3000);
        let counts = count_in_reference_windows(&target, &reference, 100).unwrap();
        for &c in &counts {
            assert!((104..=106).contains(&c), "count {c}");
        }
    }

    #[test]
    fn counts_cover_only_complete_windows() {
        let target = regular_edges(1.0, 55);
        let reference = regular_edges(1.0, 100);
        // Reference defines 10 windows of 10 periods, but the target record ends at t=55:
        // only the first 5 windows are fully covered.
        let counts = count_in_reference_windows(&target, &reference, 10).unwrap();
        assert_eq!(counts.len(), 5);
    }

    #[test]
    fn counts_to_sn_applies_eq_12() {
        let sn = counts_to_sn(&[100, 103, 99, 101], 1.0e8).unwrap();
        assert_eq!(sn.len(), 3);
        assert!((sn[0] - 3.0e-8).abs() < 1e-20);
        assert!((sn[1] + 4.0e-8).abs() < 1e-20);
        assert!((sn[2] - 2.0e-8).abs() < 1e-20);
    }

    #[test]
    fn error_paths() {
        let edges = regular_edges(1.0, 100);
        assert!(count_in_reference_windows(&edges, &edges, 0).is_err());
        let short = regular_edges(1.0, 3);
        assert!(count_in_reference_windows(&edges, &short, 10).is_err());
        let tiny_target = regular_edges(1.0, 2);
        assert!(count_in_reference_windows(&tiny_target, &edges, 50).is_err());
        assert!(counts_to_sn(&[1], 1.0).is_err());
        assert!(counts_to_sn(&[1, 2], 0.0).is_err());
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn total_count_is_conserved_across_windows(
                n in 1usize..20,
                target_period in 0.5f64..2.0,
            ) {
                let reference = regular_edges(1.0, 200);
                let target = regular_edges(target_period, (400.0 / target_period) as usize);
                let counts = count_in_reference_windows(&target, &reference, n).unwrap();
                let covered_end = reference.times()[counts.len() * n];
                let direct = target.edges_in_window(reference.times()[0], covered_end).unwrap();
                let summed: u64 = counts.iter().sum();
                prop_assert_eq!(summed, direct as u64);
            }
        }
    }
}
