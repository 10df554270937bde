//! Run the FIPS 140-2 battery over a file of packed random bytes (e.g. `ptrngd`
//! output): every full 20 000-bit block is tested.
//!
//! ```text
//! cargo run --release --example fips_check -- random.bin
//! ```
//!
//! The FIPS 140-2 intervals reject about 0.4 % of blocks of ideal data, so a few
//! failed blocks in a long file are expected.  The example exits 2 only when the
//! failed-block count reaches the smallest `k` that ideal data reaches with
//! probability below 2^-20, and prints the count ideal data would show next to the
//! count seen.  Fewer than three blocks can never reach that count.

use std::process::ExitCode;

use ptrng::ais::fips;
use ptrng::engine::stream::unpack_bits;

/// Share of ideal 20 000-bit blocks that fail at least one FIPS 140-2 test: 391 of
/// 100 000 `StdRng` blocks failed, mostly on the runs test.
const IDEAL_FAILURE_RATE: f64 = 0.004;

/// Ideal data reaches the alarm count with probability below `2^FALSE_ALARM_LOG2`.
const FALSE_ALARM_LOG2: f64 = -20.0;

/// The smallest `k` with `P(Bin(n, p) ≥ k) < 2^FALSE_ALARM_LOG2`, or `n + 1` when
/// even `n` failures are too likely.
///
/// The binomial tail is summed from `i = n` down in log space, so long files
/// neither underflow nor lose the tail to rounding.
fn alarm_count(n: usize, p: f64) -> usize {
    let ln_odds = (p / (1.0 - p)).ln();
    let bound = FALSE_ALARM_LOG2 * std::f64::consts::LN_2;
    // ln P(X = i), from P(n) = p^n and P(i − 1) = P(i)·i/(n − i + 1)·(1 − p)/p.
    let mut ln_pmf = n as f64 * p.ln();
    let mut ln_tail = f64::NEG_INFINITY;
    let mut k = n + 1;
    for i in (0..=n).rev() {
        // Add P(X = i) to the tail in log space, largest term first.
        let (hi, lo) = if ln_tail > ln_pmf {
            (ln_tail, ln_pmf)
        } else {
            (ln_pmf, ln_tail)
        };
        ln_tail = hi + (lo - hi).exp().ln_1p();
        if ln_tail >= bound {
            break;
        }
        k = i;
        if i > 0 {
            ln_pmf += (i as f64 / (n - i + 1) as f64).ln() - ln_odds;
        }
    }
    k
}

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: fips_check <file>");
        return ExitCode::FAILURE;
    };
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("fips_check: cannot read `{path}`: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bits = unpack_bits(&bytes);
    let blocks: Vec<&[u8]> = bits.chunks_exact(fips::FIPS_BLOCK_BITS).collect();
    if blocks.is_empty() {
        eprintln!(
            "fips_check: need at least {} bits ({} bytes), got {}",
            fips::FIPS_BLOCK_BITS,
            fips::FIPS_BLOCK_BITS / 8,
            bits.len()
        );
        return ExitCode::FAILURE;
    }
    let mut failed_blocks = 0usize;
    for (index, block) in blocks.iter().enumerate() {
        let results = fips::run_all(block).expect("block has the required length");
        let failures: Vec<String> = results
            .iter()
            .filter(|r| !r.passed)
            .map(|r| format!("{} ({})", r.name, r.statistic))
            .collect();
        if !failures.is_empty() {
            failed_blocks += 1;
            println!("block {index}: FAIL — {}", failures.join(", "));
        }
    }
    let n = blocks.len();
    let alarm = alarm_count(n, IDEAL_FAILURE_RATE);
    println!(
        "{}/{n} blocks passed the FIPS 140-2 battery: {failed_blocks} failed, \
         ideal data fails {:.1} on average and {alarm} or more with probability below 2^{}",
        n - failed_blocks,
        n as f64 * IDEAL_FAILURE_RATE,
        FALSE_ALARM_LOG2,
    );
    if failed_blocks >= alarm {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
