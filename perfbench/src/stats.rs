//! Order statistics and the decision rules the reported numbers rest on: the
//! tail percentile a sample count supports, the spread across runs, backlog
//! detection on an open-loop rung, and the compare verdict.

/// Percentiles a tail metric may report, highest first.
pub const TAIL_LADDER: [f64; 4] = [0.999, 0.99, 0.9, 0.5];

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: f64 = 10.0;

/// The highest percentile of [`TAIL_LADDER`] with at least [`MIN_BEYOND`]
/// samples beyond it among `n` samples; `None` when even the median lacks them.
pub fn tail_quantile(n: usize) -> Option<f64> {
    // The tolerance absorbs `1 - 0.9` not being exact in binary.
    TAIL_LADDER
        .into_iter()
        .find(|q| n as f64 * (1.0 - q) >= MIN_BEYOND - 1e-6)
}

/// `values` sorted ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Nearest-rank quantile of an ascending sample: the smallest value with at
/// least a `q` share of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank median of an unsorted sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    quantile(&sorted(values), 0.5)
}

/// The median, over `windows` consecutive equal windows of `ordered`, of
/// each window's `q` quantile.  One stall lifts the tail of the window it
/// falls in, not the estimate; leftover samples past the last whole window
/// are not used.
///
/// # Panics
///
/// Panics when `ordered` holds fewer samples than `windows`.
pub fn windowed_quantile(ordered: &[f64], windows: usize, q: f64) -> f64 {
    let size = ordered.len() / windows;
    assert!(size > 0, "fewer samples than windows");
    let per_window: Vec<f64> = ordered
        .chunks_exact(size)
        .take(windows)
        .map(|window| quantile(&sorted(window), q))
        .collect();
    median(&per_window)
}

/// Most windows [`tail_estimate`] cuts a sample into.
pub const MAX_TAIL_WINDOWS: usize = 9;

/// The tail of a latency sample in send order at percentile `q`: the median,
/// over the largest odd number of consecutive windows (at most
/// [`MAX_TAIL_WINDOWS`]) that each hold [`MIN_BEYOND`] samples beyond `q`, of
/// each window's `q` quantile.  Tails on a shared machine are set by rare
/// scheduler stalls; the median window repeats from run to run where one
/// pooled quantile does not.  Returns the estimate and the samples per
/// window, or `None` when the sample is too small for one window.
pub fn tail_estimate(ordered: &[f64], q: f64) -> Option<(f64, usize)> {
    // The tolerance absorbs `1 - 0.99` not being exact in binary.
    let needed = (MIN_BEYOND / (1.0 - q) - 1e-6).ceil() as usize;
    let fit = (ordered.len() / needed.max(1)).min(MAX_TAIL_WINDOWS);
    let windows = if fit.is_multiple_of(2) {
        fit.saturating_sub(1)
    } else {
        fit
    };
    (windows > 0).then(|| {
        (
            windowed_quantile(ordered, windows, q),
            ordered.len() / windows,
        )
    })
}

/// Arithmetic mean (0 for an empty sample).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First quartile, median and third quartile computed the way Python's
/// `statistics.quantiles(values, n=4)` does (its default exclusive method),
/// so the spread printed here is the spread anyone recomputes from the
/// recorded runs.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    assert!(!data.is_empty(), "quartiles of an empty sample");
    if data.len() == 1 {
        return [data[0]; 3];
    }
    let len = data.len() as i64;
    let m = len + 1;
    [1i64, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m - j * 4) as f64;
        let (low, high) = (data[j as usize - 1], data[j as usize]);
        (low * (4.0 - delta) + high * delta) / 4.0
    })
}

/// Interquartile range as a share of the median: the run-to-run spread that
/// a metric's bound is checked against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q3 == q1 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Whether an open-loop rung built a backlog.  `latencies_ms` holds the
/// completed requests in send order.  The rung kept pace when all `sent`
/// requests completed and the median latency of its last quarter stayed
/// within `slack_ms` of the first quarter's: a growing queue shows up as
/// latency rising across the rung before requests go missing, while a
/// single stall only lifts the tail.
pub fn has_backlog(latencies_ms: &[f64], sent: usize, slack_ms: f64) -> bool {
    if latencies_ms.len() < sent {
        return true;
    }
    let quarter = latencies_ms.len() / 4;
    if quarter == 0 {
        return false;
    }
    let first = median(&latencies_ms[..quarter]);
    let last = median(&latencies_ms[latencies_ms.len() - quarter..]);
    last > first + slack_ms
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    /// The name `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much better `new` reads than `old` (negative: worse).
    pub fn gain(self, old: f64, new: f64) -> f64 {
        match self {
            Better::Lower => old - new,
            Better::Higher => new - old,
        }
    }
}

/// Outcome of comparing one metric across two result sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Comparison {
    pub verdict: Verdict,
    /// Pairs where the change reads strictly better (ties count for neither).
    pub wins: usize,
    pub pairs: usize,
}

/// Compares a metric's runs on the parent with its runs on a change, paired
/// by index (pair `i` ran the same seed on both):
///
/// * improved: the change wins at least nine tenths of the pairs and its
///   median is better by more than the parent's interquartile range;
/// * unresolved: the run-to-run spread of either side is wider than `bound`,
///   unless every run of the change reads better than every run of the parent;
/// * worse: the change's median is worse than the parent's by more than
///   `bound` as a share of the parent's median;
/// * within bound: anything else.
///
/// Without a bound (per-layer metrics) a change is worse only by the mirror
/// image of the improved rule.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> Comparison {
    let pairs = parent.len().min(change.len());
    let gains: Vec<f64> = parent
        .iter()
        .zip(change)
        .map(|(&old, &new)| better.gain(old, new))
        .collect();
    let wins = gains.iter().filter(|&&gain| gain > 0.0).count();
    let losses = gains.iter().filter(|&&gain| gain < 0.0).count();
    let decisive = |count: usize| pairs > 0 && count * 10 >= pairs * 9;
    let [p1, parent_median, p3] = quartiles(parent);
    let median_gain = better.gain(parent_median, quartiles(change)[1]);
    let parent_iqr = p3 - p1;
    let verdict = if decisive(wins) && median_gain > parent_iqr {
        Verdict::Improved
    } else if let Some(bound) = bound {
        let every_run_better = parent
            .iter()
            .all(|&old| change.iter().all(|&new| better.gain(old, new) > 0.0));
        if spread(parent).max(spread(change)) > bound && !every_run_better {
            Verdict::Unresolved
        } else if -median_gain > bound * parent_median.abs() {
            Verdict::Worse
        } else {
            Verdict::WithinBound
        }
    } else if decisive(losses) && -median_gain > parent_iqr {
        Verdict::Worse
    } else {
        Verdict::WithinBound
    };
    Comparison {
        verdict,
        wins,
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_follows_the_sample_count() {
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(99), Some(0.5));
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(19), None);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&data, 0.5), 50.0);
        assert_eq!(quantile(&data, 0.99), 99.0);
        assert_eq!(quantile(&data, 1.0), 100.0);
        assert_eq!(quantile(&data, 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        assert_eq!(spread(&ten), 1.0);
        assert_eq!(spread(&[3.0; 10]), 0.0);
    }

    #[test]
    fn windowed_quantile_is_the_median_window() {
        // Three windows of 100; a stall lifts the tail of the middle one only.
        let mut ordered = vec![1.0; 300];
        for latency in &mut ordered[150..160] {
            *latency = 50.0;
        }
        assert_eq!(quantile(&sorted(&ordered), 0.99), 50.0);
        assert_eq!(windowed_quantile(&ordered, 3, 0.99), 1.0);
        // Leftover samples past the last whole window are ignored.
        ordered.push(99.0);
        assert_eq!(windowed_quantile(&ordered, 3, 0.99), 1.0);
    }

    #[test]
    fn tail_estimate_uses_odd_windows_big_enough_for_the_percentile() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<f64>>();
        // p99 needs 1000 samples a window: 4000 make three windows.
        let (_, samples) = tail_estimate(&ramp(4000), 0.99).expect("three windows");
        assert_eq!(samples, 1333);
        assert_eq!(tail_estimate(&ramp(9000), 0.99).map(|(_, s)| s), Some(1000));
        assert_eq!(
            tail_estimate(&ramp(50_000), 0.99).map(|(_, s)| s),
            Some(5555)
        );
        assert_eq!(tail_estimate(&ramp(1500), 0.99).map(|(_, s)| s), Some(1500));
        assert_eq!(tail_estimate(&ramp(999), 0.99), None);
        // p90 needs 100.
        assert_eq!(tail_estimate(&ramp(250), 0.9).map(|(_, s)| s), Some(250));
    }

    #[test]
    fn backlog_needs_missing_requests_or_rising_latency() {
        let steady = vec![1.0; 400];
        assert!(!has_backlog(&steady, 400, 2.0));
        assert!(has_backlog(&steady, 401, 2.0), "a request never completed");
        let rising: Vec<f64> = (0..400).map(|i| 1.0 + f64::from(i) * 0.05).collect();
        assert!(
            has_backlog(&rising, 400, 2.0),
            "latency climbs across the rung"
        );
        let mut stalled = steady.clone();
        stalled[350] = 500.0;
        assert!(
            !has_backlog(&stalled, 400, 2.0),
            "one stall is a tail event"
        );
    }

    #[test]
    fn compare_follows_the_pair_and_spread_rules() {
        let parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let reordered: Vec<f64> = parent.iter().rev().copied().collect();
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.3).collect();
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 7.0];
        let lower = |change: &[f64]| compare(&parent, change, Better::Lower, Some(0.1)).verdict;
        assert_eq!(lower(&faster), Verdict::Improved);
        assert_eq!(lower(&reordered), Verdict::WithinBound);
        assert_eq!(lower(&slower), Verdict::Worse);
        assert_eq!(lower(&noisy), Verdict::Unresolved);
        // Eight wins in ten pairs do not make a gain.
        let mut mostly = faster.clone();
        mostly[0] = 20.0;
        mostly[1] = 20.0;
        let comparison = compare(&parent, &mostly, Better::Lower, Some(0.1));
        assert_eq!((comparison.wins, comparison.pairs), (8, 10));
        assert_ne!(comparison.verdict, Verdict::Improved);
        // The direction decides what a lower reading means.
        let higher = compare(&parent, &faster, Better::Higher, Some(0.1)).verdict;
        assert_eq!(higher, Verdict::Worse);
        // Without a bound only a decisive loss is worse.
        assert_eq!(
            compare(&parent, &slower, Better::Lower, None).verdict,
            Verdict::Worse
        );
        assert_eq!(
            compare(&parent, &reordered, Better::Lower, None).verdict,
            Verdict::WithinBound
        );
    }
}
