//! The paper's accumulation statistic `s_N` and its variance `σ²_N`.
//!
//! Following Haddad et al. (DATE 2014, Eq. 4), for a period-jitter series `J(t_i)` the
//! statistic
//!
//! ```text
//! s_N(t_i) = Σ_{j=0}^{2N-1} a_j · J(t_{i+j}),   a_j = -1 for 0 ≤ j ≤ N-1, +1 otherwise
//! ```
//!
//! is the difference between two adjacent accumulations of `N` oscillator periods.  Its
//! variance `σ²_N` is computable even in the presence of flicker noise (unlike the plain
//! variance of accumulated jitter), and under mutual independence of the `J(t_i)` it must
//! equal `2·N·σ²` (Eq. 6).  The deviation from that linear law is the paper's evidence of
//! dependence.

use serde::{Deserialize, Serialize};

#[cfg(test)]
use crate::descriptive::sample_variance;
use crate::{ensure_finite, ensure_len, Result, StatsError};

/// One point of a `σ²_N` vs `N` sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sigma2NPoint {
    /// Accumulation depth `N`.
    pub n: usize,
    /// Estimated variance of `s_N`.
    pub sigma2_n: f64,
    /// Number of `s_N` realizations the estimate is based on.
    pub samples: usize,
}

/// How consecutive realizations of `s_N` are extracted from the jitter series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SnSampling {
    /// Windows advance by one period: maximal number of (correlated) realizations.
    #[default]
    Overlapping,
    /// Windows advance by `2N` periods: strictly disjoint realizations.
    Disjoint,
    /// Windows advance by `N` periods, matching the counter read-out of the paper's
    /// measurement circuit (Eq. 12), where each counter value is reused once.
    HalfOverlapping,
}

impl SnSampling {
    /// Window advance (in periods) for accumulation depth `n`.
    pub fn stride(self, n: usize) -> usize {
        match self {
            SnSampling::Overlapping => 1,
            SnSampling::Disjoint => 2 * n,
            SnSampling::HalfOverlapping => n,
        }
    }
}

/// The series of `s_N` realizations of a period-jitter series, one window per `stride`:
/// the materialized form of the statistic, which the windowed reference sweep reduces
/// with a two-pass variance.
///
/// # Errors
///
/// Returns an error when `n == 0`, when the series is shorter than `2N`, or when the
/// series contains non-finite samples.
#[cfg(test)]
fn sn_series(jitter: &[f64], n: usize, sampling: SnSampling) -> Result<Vec<f64>> {
    if n == 0 {
        return Err(StatsError::InvalidParameter {
            name: "n",
            reason: "accumulation depth must be at least 1".to_string(),
        });
    }
    ensure_finite(jitter)?;
    ensure_len(jitter, 2 * n)?;

    // Prefix sums give each window sum in O(1):
    //   s_N(t_i) = [P(i+2N) - P(i+N)] - [P(i+N) - P(i)]
    let mut prefix = Vec::with_capacity(jitter.len() + 1);
    prefix.push(0.0);
    let mut acc = 0.0;
    for &x in jitter {
        acc += x;
        prefix.push(acc);
    }

    let stride = sampling.stride(n);
    let last_start = jitter.len() - 2 * n;
    let mut out = Vec::with_capacity(last_start / stride + 1);
    let mut i = 0;
    while i <= last_start {
        let second = prefix[i + 2 * n] - prefix[i + n];
        let first = prefix[i + n] - prefix[i];
        out.push(second - first);
        i += stride;
    }
    Ok(out)
}

/// Variance `σ²_N` of the accumulation statistic, using overlapping sampling.
///
/// # Errors
///
/// Returns an error when fewer than two realizations of `s_N` can be formed.
pub fn sigma2_n(jitter: &[f64], n: usize) -> Result<f64> {
    sigma2_n_with(jitter, n, SnSampling::Overlapping)
}

/// Variance `σ²_N` of the accumulation statistic with an explicit sampling strategy.
///
/// # Errors
///
/// Returns an error when fewer than two realizations of `s_N` can be formed.
pub fn sigma2_n_with(jitter: &[f64], n: usize, sampling: SnSampling) -> Result<f64> {
    if n == 0 {
        return Err(StatsError::InvalidParameter {
            name: "n",
            reason: "accumulation depth must be at least 1".to_string(),
        });
    }
    ensure_len(jitter, 2 * n)?;
    let prefix = checked_prefix_sums(jitter)?;
    match sigma2_n_over_prefix(&prefix, n, sampling.stride(n)) {
        Some((var, _)) => Ok(var),
        None => Err(StatsError::SeriesTooShort {
            len: jitter.len(),
            needed: 2 * n + sampling.stride(n),
        }),
    }
}

/// Prefix sums `P[i] = Σ_{t<i} x[t]` with `P[0] = 0`.
fn prefix_sums(jitter: &[f64]) -> Vec<f64> {
    let mut acc = 0.0;
    std::iter::once(0.0)
        .chain(jitter.iter().map(|&x| {
            acc += x;
            acc
        }))
        .collect()
}

/// Builds the prefix sums while accumulating the overlapping-window variance of one
/// depth `n` (which must fit: `jitter.len() >= 2n`, at least two windows) in the same
/// pass.  Window `i` completes as prefix entry `j = i + 2n` is produced; its two lagged
/// reads land on just-written entries, so this fused pass costs barely more than the
/// build alone.  Accumulation order over windows is ascending `i`, identical to
/// [`sigma2_n_over_prefix`].
fn prefix_sums_with_depth(jitter: &[f64], n: usize) -> (Vec<f64>, f64, usize) {
    let len = jitter.len();
    let count = (len - 2 * n) + 1;
    let mut prefix = Vec::with_capacity(len + 1);
    prefix.push(0.0);
    let mut acc = 0.0;
    let mut shift = 0.0;
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    for (idx, &x) in jitter.iter().enumerate() {
        acc += x;
        prefix.push(acc);
        let j = idx + 1;
        if j >= 2 * n {
            let raw = prefix[j] - 2.0 * prefix[j - n] + prefix[j - 2 * n];
            if j == 2 * n {
                shift = raw;
            }
            let s = raw - shift;
            sum += s;
            sum_sq += s * s;
        }
    }
    let m = count as f64;
    let var = ((sum_sq - sum * sum / m) / (m - 1.0)).max(0.0);
    (prefix, var, count)
}

/// Post-hoc finiteness policy of the prefix-sum paths: a non-finite sample leaves the
/// final prefix entry non-finite (NaN and ±∞ both propagate through the running sum),
/// in which case the full `ensure_finite` scan runs to produce the same error the
/// windowed implementation reports.  Finite series that merely overflow the running sum
/// fall through like the reference (non-finite variances, no error).
fn ensure_prefix_finite(jitter: &[f64], prefix: &[f64]) -> Result<()> {
    if let Some(&last) = prefix.last() {
        if !last.is_finite() {
            ensure_finite(jitter)?;
        }
    }
    Ok(())
}

/// Builds the prefix sums and applies [`ensure_prefix_finite`].
fn checked_prefix_sums(jitter: &[f64]) -> Result<Vec<f64>> {
    let prefix = prefix_sums(jitter);
    ensure_prefix_finite(jitter, &prefix)?;
    Ok(prefix)
}

/// Variance of `s_N` over the windows visited with `stride`, straight off a shared
/// prefix-sum array: `s_N(t_i) = P[i+2N] - 2·P[i+N] + P[i]`.
///
/// One fused pass per depth, no intermediate `s_N` vector.  The accumulation is shifted
/// by the first window value (the textbook shifted-data variance), which keeps the
/// single pass as accurate as the two-pass estimator for any series whose `s_N` values
/// cluster anywhere near their first realization — in particular for the near-constant
/// `s_N` of smooth series, where a naive `Σs²  - (Σs)²/M` loses all precision.
///
/// Returns `None` when fewer than two windows fit.
fn sigma2_n_over_prefix(prefix: &[f64], n: usize, stride: usize) -> Option<(f64, usize)> {
    let len = prefix.len() - 1;
    if len < 2 * n {
        return None;
    }
    let last_start = len - 2 * n;
    let count = last_start / stride + 1;
    if count < 2 {
        return None;
    }
    let shift = prefix[2 * n] - 2.0 * prefix[n] + prefix[0];
    let (sum, sum_sq) = if stride == 1 {
        // Dominant (overlapping) case: three zipped subslice walks, two independent
        // accumulator pairs to break the floating-point dependency chains.
        let p0 = &prefix[..last_start + 1];
        let p1 = &prefix[n..last_start + 1 + n];
        let p2 = &prefix[2 * n..last_start + 1 + 2 * n];
        let mut sums = [0.0f64; 4];
        let mut sqs = [0.0f64; 4];
        let mut i = 0;
        while i + 3 < count {
            for lane in 0..4 {
                let s = (p2[i + lane] - 2.0 * p1[i + lane] + p0[i + lane]) - shift;
                sums[lane] += s;
                sqs[lane] += s * s;
            }
            i += 4;
        }
        while i < count {
            let s = (p2[i] - 2.0 * p1[i] + p0[i]) - shift;
            sums[0] += s;
            sqs[0] += s * s;
            i += 1;
        }
        (sums.iter().sum(), sqs.iter().sum())
    } else {
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        let mut i = 0;
        while i <= last_start {
            let s = (prefix[i + 2 * n] - 2.0 * prefix[i + n] + prefix[i]) - shift;
            sum += s;
            sum_sq += s * s;
            i += stride;
        }
        (sum, sum_sq)
    };
    let m = count as f64;
    let var = ((sum_sq - sum * sum / m) / (m - 1.0)).max(0.0);
    Some((var, count))
}

/// Sweeps `σ²_N` over a list of accumulation depths.
///
/// Depths for which the series is too short are skipped (they are not an error: sweeps
/// are routinely requested beyond the acquisition length).
///
/// The prefix sums of the series are built once and every depth is reduced in a single
/// fused pass over them (no per-depth `s_N` vector, no per-depth finiteness re-scan), so
/// a full multi-depth sweep costs `O(len + Σ windows)` instead of the
/// `O(len·depths)`-with-allocations of the windowed reference implementation its
/// equivalence tests compare it against.
///
/// # Errors
///
/// Returns an error when the series contains non-finite samples, when `ns` is empty, or
/// when *no* requested depth could be evaluated.
pub fn sigma2_n_sweep(
    jitter: &[f64],
    ns: &[usize],
    sampling: SnSampling,
) -> Result<Vec<Sigma2NPoint>> {
    if ns.is_empty() {
        return Err(StatsError::InvalidParameter {
            name: "ns",
            reason: "at least one accumulation depth is required".to_string(),
        });
    }
    for &n in ns {
        if n == 0 {
            return Err(StatsError::InvalidParameter {
                name: "ns",
                reason: "accumulation depths must be at least 1".to_string(),
            });
        }
    }
    // Fuse the first fitting overlapping depth into the prefix-sum construction pass:
    // the lagged reads hit cache lines written moments earlier, so the most expensive
    // (cold) sweep pass comes for free with the build.
    let fused_first = match sampling {
        SnSampling::Overlapping => ns.iter().position(|&n| jitter.len() > 2 * n),
        _ => None,
    };
    let (prefix, first_point) = match fused_first {
        Some(pos) => {
            let (prefix, var, samples) = prefix_sums_with_depth(jitter, ns[pos]);
            (prefix, Some((pos, var, samples)))
        }
        None => (prefix_sums(jitter), None),
    };
    ensure_prefix_finite(jitter, &prefix)?;
    let mut out = Vec::with_capacity(ns.len());
    for (idx, &n) in ns.iter().enumerate() {
        if let Some((pos, var, samples)) = first_point {
            if idx == pos {
                out.push(Sigma2NPoint {
                    n,
                    sigma2_n: var,
                    samples,
                });
                continue;
            }
        }
        if jitter.len() < 2 * n {
            continue;
        }
        if let Some((var, samples)) = sigma2_n_over_prefix(&prefix, n, sampling.stride(n)) {
            out.push(Sigma2NPoint {
                n,
                sigma2_n: var,
                samples,
            });
        }
    }
    if out.is_empty() {
        return Err(StatsError::SeriesTooShort {
            len: jitter.len(),
            needed: 2 * ns.iter().copied().min().unwrap_or(1) + 1,
        });
    }
    Ok(out)
}

/// Reference implementation of [`sigma2_n_sweep`]: materializes the `s_N` window series
/// for every depth and takes its two-pass sample variance.  A test oracle for the
/// fused prefix-sum sweep.
///
/// # Errors
///
/// Same conditions as [`sigma2_n_sweep`].
#[cfg(test)]
fn sigma2_n_sweep_windowed(
    jitter: &[f64],
    ns: &[usize],
    sampling: SnSampling,
) -> Result<Vec<Sigma2NPoint>> {
    if ns.is_empty() {
        return Err(StatsError::InvalidParameter {
            name: "ns",
            reason: "at least one accumulation depth is required".to_string(),
        });
    }
    ensure_finite(jitter)?;
    let mut out = Vec::with_capacity(ns.len());
    for &n in ns {
        if n == 0 {
            return Err(StatsError::InvalidParameter {
                name: "ns",
                reason: "accumulation depths must be at least 1".to_string(),
            });
        }
        match sn_series(jitter, n, sampling) {
            Ok(s) if s.len() >= 2 => {
                let var = sample_variance(&s)?;
                out.push(Sigma2NPoint {
                    n,
                    sigma2_n: var,
                    samples: s.len(),
                });
            }
            _ => continue,
        }
    }
    if out.is_empty() {
        return Err(StatsError::SeriesTooShort {
            len: jitter.len(),
            needed: 2 * ns.iter().copied().min().unwrap_or(1) + 1,
        });
    }
    Ok(out)
}

/// Variance predicted by Bienaymé's identity for mutually independent realizations with
/// per-period variance `sigma2` (Eq. 6 of the paper): `σ²_N = 2·N·σ²`.
pub fn sigma2_n_independent(n: usize, sigma2: f64) -> f64 {
    2.0 * n as f64 * sigma2
}

/// Builds a deduplicated, sorted, approximately log-spaced list of accumulation depths in
/// `[min_n, max_n]` with at most `count` entries.
///
/// # Errors
///
/// Returns an error when `min_n == 0`, `max_n < min_n` or `count == 0`.
pub fn log_spaced_depths(min_n: usize, max_n: usize, count: usize) -> Result<Vec<usize>> {
    if min_n == 0 {
        return Err(StatsError::InvalidParameter {
            name: "min_n",
            reason: "must be at least 1".to_string(),
        });
    }
    if max_n < min_n {
        return Err(StatsError::InvalidParameter {
            name: "max_n",
            reason: format!("must be >= min_n ({min_n}), got {max_n}"),
        });
    }
    if count == 0 {
        return Err(StatsError::InvalidParameter {
            name: "count",
            reason: "must be at least 1".to_string(),
        });
    }
    if count == 1 || min_n == max_n {
        return Ok(vec![min_n]);
    }
    let lo = (min_n as f64).ln();
    let hi = (max_n as f64).ln();
    let mut out = Vec::with_capacity(count);
    for k in 0..count {
        let t = k as f64 / (count - 1) as f64;
        let v = (lo + t * (hi - lo)).exp().round() as usize;
        let v = v.clamp(min_n, max_n);
        if out.last() != Some(&v) {
            out.push(v);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Naive O(len · N) reference implementation of Eq. 4.
    fn sn_naive(jitter: &[f64], n: usize) -> Vec<f64> {
        let mut out = Vec::new();
        for i in 0..=(jitter.len() - 2 * n) {
            let mut s = 0.0;
            for j in 0..2 * n {
                let a = if j < n { -1.0 } else { 1.0 };
                s += a * jitter[i + j];
            }
            out.push(s);
        }
        out
    }

    fn pseudo_random(len: usize) -> Vec<f64> {
        // xorshift-style deterministic noise in [-0.5, 0.5)
        let mut state = 0x9e3779b97f4a7c15u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1_000_003) as f64 / 1_000_003.0 - 0.5
            })
            .collect()
    }

    #[test]
    fn sn_matches_naive_for_various_n() {
        let jitter = pseudo_random(257);
        for n in [1usize, 2, 3, 7, 16, 50] {
            let fast = sn_series(&jitter, n, SnSampling::Overlapping).unwrap();
            let naive = sn_naive(&jitter, n);
            assert_eq!(fast.len(), naive.len());
            for (a, b) in fast.iter().zip(naive.iter()) {
                assert!((a - b).abs() < 1e-9, "n={n}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn constant_offset_cancels() {
        let jitter = pseudo_random(128);
        let shifted: Vec<f64> = jitter.iter().map(|x| x + 42.0).collect();
        let a = sn_series(&jitter, 5, SnSampling::Overlapping).unwrap();
        let b = sn_series(&shifted, 5, SnSampling::Overlapping).unwrap();
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-7);
        }
    }

    #[test]
    fn disjoint_sampling_strides_correctly() {
        let jitter = pseudo_random(64);
        let overl = sn_series(&jitter, 4, SnSampling::Overlapping).unwrap();
        let disj = sn_series(&jitter, 4, SnSampling::Disjoint).unwrap();
        let half = sn_series(&jitter, 4, SnSampling::HalfOverlapping).unwrap();
        assert_eq!(overl.len(), 64 - 8 + 1);
        assert_eq!(disj.len(), 8); // floor((57 - 1)/8) + 1
        assert_eq!(half.len(), 15);
        assert_eq!(disj[0], overl[0]);
        assert_eq!(disj[1], overl[8]);
        assert_eq!(half[1], overl[4]);
    }

    #[test]
    fn sigma2_n_linear_for_iid_series() {
        let jitter = pseudo_random(200_000);
        let sigma2 = crate::descriptive::sample_variance(&jitter).unwrap();
        for n in [1usize, 4, 16, 64] {
            let measured = sigma2_n(&jitter, n).unwrap();
            let predicted = sigma2_n_independent(n, sigma2);
            let rel = (measured - predicted).abs() / predicted;
            assert!(
                rel < 0.1,
                "n={n}: measured {measured}, predicted {predicted}"
            );
        }
    }

    #[test]
    fn sigma2_n_detects_random_walk_excess() {
        // A random walk has strongly dependent increments once re-expressed as levels;
        // feeding the *levels* as if they were jitter must blow up σ²_N superlinearly.
        let steps = pseudo_random(50_000);
        let mut walk = Vec::with_capacity(steps.len());
        let mut acc = 0.0;
        for s in &steps {
            acc += s;
            walk.push(acc);
        }
        let sigma2 = crate::descriptive::sample_variance(&walk).unwrap();
        let n = 256;
        let measured = sigma2_n(&walk, n).unwrap();
        let predicted = sigma2_n_independent(n, sigma2);
        // The walk's σ²_N is far below 2Nσ² (σ² itself diverges with the record length)
        // but very far from linear in N: check the ratio at two depths instead.
        let m2 = sigma2_n(&walk, 2 * n).unwrap();
        assert!(
            m2 / measured > 3.0,
            "expected superlinear growth, got ratio {}",
            m2 / measured
        );
        assert!(predicted.is_finite());
    }

    #[test]
    fn sweep_skips_depths_that_do_not_fit() {
        let jitter = pseudo_random(100);
        let points = sigma2_n_sweep(&jitter, &[1, 10, 49, 60], SnSampling::Overlapping).unwrap();
        let depths: Vec<usize> = points.iter().map(|p| p.n).collect();
        assert_eq!(depths, vec![1, 10, 49]);
        for p in &points {
            assert!(p.samples >= 2);
            assert!(p.sigma2_n >= 0.0);
        }
    }

    #[test]
    fn fused_sweep_matches_windowed_reference() {
        let jitter = pseudo_random(4096);
        let depths = [1usize, 2, 5, 16, 100, 640, 2000];
        for sampling in [
            SnSampling::Overlapping,
            SnSampling::Disjoint,
            SnSampling::HalfOverlapping,
        ] {
            let fused = sigma2_n_sweep(&jitter, &depths, sampling).unwrap();
            let windowed = sigma2_n_sweep_windowed(&jitter, &depths, sampling).unwrap();
            assert_eq!(fused.len(), windowed.len());
            for (a, b) in fused.iter().zip(windowed.iter()) {
                assert_eq!(a.n, b.n);
                assert_eq!(a.samples, b.samples);
                let scale = a.sigma2_n.abs().max(b.sigma2_n.abs()).max(1e-300);
                assert!(
                    (a.sigma2_n - b.sigma2_n).abs() / scale < 1e-9,
                    "n={}: fused {} vs windowed {}",
                    a.n,
                    a.sigma2_n,
                    b.sigma2_n
                );
            }
        }
    }

    #[test]
    fn fused_sweep_is_stable_on_smooth_series() {
        // A linear series has a constant s_N (zero variance); the shifted one-pass
        // accumulation must not blow up through cancellation.
        let jitter: Vec<f64> = (0..2048).map(|i| 1e6 + 3.0 * i as f64).collect();
        let points = sigma2_n_sweep(&jitter, &[4, 32, 256], SnSampling::Overlapping).unwrap();
        for p in &points {
            let typical = (3.0 * (p.n * p.n) as f64).powi(2);
            assert!(
                p.sigma2_n.abs() / typical < 1e-12,
                "n={}: variance {} should vanish",
                p.n,
                p.sigma2_n
            );
        }
    }

    #[test]
    fn sweep_errors_when_nothing_fits() {
        let jitter = pseudo_random(10);
        assert!(sigma2_n_sweep(&jitter, &[100], SnSampling::Overlapping).is_err());
    }

    #[test]
    fn rejects_invalid_inputs() {
        assert!(sn_series(&[1.0, 2.0], 0, SnSampling::Overlapping).is_err());
        assert!(sn_series(&[1.0], 1, SnSampling::Overlapping).is_err());
        assert!(sn_series(&[1.0, f64::NAN], 1, SnSampling::Overlapping).is_err());
        assert!(sigma2_n_sweep(&[1.0, 2.0, 3.0], &[], SnSampling::Overlapping).is_err());
        assert!(sigma2_n_sweep(&[1.0, 2.0, 3.0], &[0], SnSampling::Overlapping).is_err());
    }

    #[test]
    fn log_spaced_depths_are_sorted_unique_and_bounded() {
        let depths = log_spaced_depths(1, 30_000, 40).unwrap();
        assert!(depths.len() <= 40);
        assert_eq!(*depths.first().unwrap(), 1);
        assert_eq!(*depths.last().unwrap(), 30_000);
        for w in depths.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn log_spaced_depths_edge_cases() {
        assert_eq!(log_spaced_depths(5, 5, 10).unwrap(), vec![5]);
        assert_eq!(log_spaced_depths(3, 100, 1).unwrap(), vec![3]);
        assert!(log_spaced_depths(0, 10, 5).is_err());
        assert!(log_spaced_depths(10, 5, 5).is_err());
        assert!(log_spaced_depths(1, 10, 0).is_err());
    }

    mod property {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn prefix_sum_matches_naive(
                data in proptest::collection::vec(-1e3f64..1e3, 8..200),
                n in 1usize..8,
            ) {
                prop_assume!(data.len() >= 2 * n);
                let fast = sn_series(&data, n, SnSampling::Overlapping).unwrap();
                let naive = sn_naive(&data, n);
                prop_assert_eq!(fast.len(), naive.len());
                for (a, b) in fast.iter().zip(naive.iter()) {
                    prop_assert!((a - b).abs() < 1e-6);
                }
            }

            #[test]
            fn sn_is_shift_invariant(
                data in proptest::collection::vec(-10.0f64..10.0, 16..128),
                shift in -1e3f64..1e3,
                n in 1usize..6,
            ) {
                prop_assume!(data.len() >= 2 * n);
                let shifted: Vec<f64> = data.iter().map(|x| x + shift).collect();
                let a = sn_series(&data, n, SnSampling::Overlapping).unwrap();
                let b = sn_series(&shifted, n, SnSampling::Overlapping).unwrap();
                for (x, y) in a.iter().zip(b.iter()) {
                    prop_assert!((x - y).abs() < 1e-6);
                }
            }

            #[test]
            fn fused_sweep_matches_windowed(
                data in proptest::collection::vec(-1e3f64..1e3, 16..300),
                depths in proptest::collection::vec(1usize..12, 1..6),
            ) {
                prop_assume!(data.len() > 2 * depths.iter().copied().max().unwrap_or(1));
                for sampling in [
                    SnSampling::Overlapping,
                    SnSampling::Disjoint,
                    SnSampling::HalfOverlapping,
                ] {
                    let fused = sigma2_n_sweep(&data, &depths, sampling).unwrap();
                    let windowed = sigma2_n_sweep_windowed(&data, &depths, sampling).unwrap();
                    prop_assert_eq!(fused.len(), windowed.len());
                    for (a, b) in fused.iter().zip(windowed.iter()) {
                        prop_assert_eq!(a.n, b.n);
                        prop_assert_eq!(a.samples, b.samples);
                        let scale = a.sigma2_n.abs().max(b.sigma2_n.abs()).max(1.0);
                        prop_assert!((a.sigma2_n - b.sigma2_n).abs() / scale < 1e-9);
                    }
                }
            }

            #[test]
            fn sigma2_n_is_nonnegative(
                data in proptest::collection::vec(-1.0f64..1.0, 32..256),
                n in 1usize..8,
            ) {
                prop_assume!(data.len() > 2 * n);
                let v = sigma2_n(&data, n).unwrap();
                prop_assert!(v >= 0.0);
            }
        }
    }
}
