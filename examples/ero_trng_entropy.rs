//! eRO-TRNG entropy study: raw bits, statistical tests and the entropy over-estimation
//! caused by ignoring the flicker-induced dependence of jitter realizations.
//!
//! The example
//!
//! 1. builds an elementary RO-TRNG from the paper's oscillator pair,
//! 2. generates raw bits, runs the AIS 31 / FIPS battery on them,
//! 3. applies XOR post-processing and measures empirical entropy before/after,
//! 4. tabulates, as a function of the accumulation depth, the entropy per bit claimed by
//!    the naive (independence-assuming) model against the flicker-aware bound — the
//!    security gap the paper warns about.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example ero_trng_entropy
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use ptrng::ais::battery::{run_battery, BatteryConfig};
use ptrng::trng::entropy::{block_entropy, markov_entropy_rate, shannon_entropy_from_bias};
use ptrng::trng::ero::{EroTrng, EroTrngConfig};
use ptrng::trng::postprocess::xor_decimate;
use ptrng::trng::stochastic::EntropyModel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The generator: the paper's oscillators, one bit every 64 sampling periods.
    let config = EroTrngConfig::date14_experiment(64);
    let trng = EroTrng::new(config)?;
    println!("eRO-TRNG bit rate: {:.2} Mbit/s", trng.bit_rate() / 1.0e6);

    // 2. Raw bits and the statistical battery.
    let mut rng = StdRng::seed_from_u64(99);
    let mut raw = vec![0u8; 60_000];
    trng.fill_bits(&mut rng, &mut raw)?;
    println!(
        "raw bias                : {:.4}",
        raw.iter().map(|&b| b as f64).sum::<f64>() / raw.len() as f64
    );
    println!(
        "raw Shannon (bias)      : {:.4} bit/bit",
        shannon_entropy_from_bias(&raw)?
    );
    println!(
        "raw Markov rate         : {:.4} bit/bit",
        markov_entropy_rate(&raw)?
    );
    println!(
        "raw 8-bit block entropy : {:.4} bit/bit",
        block_entropy(&raw, 8)?
    );
    let battery = run_battery(&raw, &BatteryConfig::default())?;
    println!(
        "statistical battery     : {}/{} tests passed {}",
        battery.results.iter().filter(|r| r.passed).count(),
        battery.results.len(),
        if battery.all_passed() {
            "(all good)"
        } else {
            ""
        }
    );
    for failure in battery.failures() {
        println!("    failed: {failure}");
    }

    // 3. Algebraic post-processing.
    let processed = xor_decimate(&raw, 4)?;
    println!(
        "after XOR-4             : {} bits, Markov rate {:.4} bit/bit",
        processed.len(),
        markov_entropy_rate(&processed)?
    );

    // 4. Model entropy bounds: naive vs flicker-aware.
    let entropy_model = EntropyModel::date14_experiment();
    println!("\naccumulation depth N | naive bound | thermal-only bound | over-estimation");
    for n in [500usize, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000] {
        println!(
            "{n:20} | {:11.4} | {:18.4} | {:15.4}",
            entropy_model.entropy_bound_naive(n),
            entropy_model.entropy_bound_thermal(n),
            entropy_model.entropy_overestimation(n)
        );
    }
    let depth = entropy_model.minimum_depth_for_entropy(0.997)?;
    println!("\ndepth needed for 0.997 bit/bit under the flicker-aware model: N >= {depth}");
    Ok(())
}
