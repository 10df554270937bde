//! `ptrng` — P-TRNG jitter stochastic modeling toolkit.
//!
//! This facade crate re-exports the whole workspace, which reproduces
//! *"On the assumption of mutual independence of jitter realizations in P-TRNG stochastic
//! models"* (Haddad, Teglia, Bernard, Fischer — DATE 2014):
//!
//! | Crate | Contents |
//! |---|---|
//! | [`noise`] | transistor-level thermal/flicker noise models, `1/f^α` generators |
//! | [`stats`] | `σ²_N` statistic, overlapping Allan variance, Welch spectral estimation, fitting, Kolmogorov–Smirnov and Ljung–Box tests |
//! | [`osc`] | ring oscillators, ISF conversion, phase-noise model, jitter generation |
//! | [`measure`] | the differential counter measurement circuit and acquisition campaigns |
//! | [`trng`] | the eRO-TRNG, conditioning pipeline + entropy ledger, SHA-256, entropy bounds, online test |
//! | [`ais`] | AIS 31 / FIPS 140-2 / SP 800-90B statistical test batteries |
//! | [`core`] | the multilevel model, independence analysis, thermal extraction, reports |
//! | [`engine`] | sharded entropy generation runtime: pluggable sources, worker pool, continuous health monitoring, multi-consumer `EntropyTap` |
//! | [`obs`] | observability primitives: flight recorder, log-linear latency histograms, Prometheus text encoder, alarm postmortems, JSONL journal |
//! | [`serve`] | entropy-as-a-service: HTTP/1.1 server with ledger headers, rate limiting, Prometheus metrics; `ptrngd` + `ptrng-serve` CLIs |
//!
//! The repository book under `docs/` (architecture, stochastic model, operations)
//! ties the crates together.
//!
//! # Quickstart
//!
//! ```
//! use ptrng::prelude::*;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Simulate the paper's differential measurement and analyse the result.
//! let circuit = DifferentialCircuit::date14_experiment();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let depths = ptrng::stats::sn::log_spaced_depths(1, 256, 8)?;
//! let dataset = circuit.measure_period_domain(&mut rng, &depths, 1 << 15)?;
//! let report = AnalysisReport::from_dataset(&dataset, &[1_000, 20_000])?;
//! println!("{report}");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ptrng_ais as ais;
pub use ptrng_core as core;
pub use ptrng_engine as engine;
pub use ptrng_measure as measure;
pub use ptrng_noise as noise;
pub use ptrng_obs as obs;
pub use ptrng_osc as osc;
pub use ptrng_serve as serve;
pub use ptrng_stats as stats;
pub use ptrng_trng as trng;

/// Commonly used items, re-exported from [`ptrng_core::prelude`] plus the report type
/// and the generation runtime.
pub mod prelude {
    pub use ptrng_core::prelude::*;
    pub use ptrng_core::report::AnalysisReport;
    // Engine types (the crate's `Result`/`EngineError` stay namespaced to avoid
    // shadowing the analysis crates' aliases).
    pub use ptrng_engine::health::{HealthConfig, HealthMonitor, HealthState};
    pub use ptrng_engine::pool::{ConditionerSpec, Engine, EngineConfig, StageSpec};
    pub use ptrng_engine::source::{EntropySource, JitterProfile, SourceSpec};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_exposes_every_crate() {
        // A compile-time smoke test: one symbol per re-exported crate.
        let _ = crate::noise::BOLTZMANN;
        let _ = crate::stats::sn::sigma2_n_independent(1, 1.0);
        let _ = crate::osc::phase::DATE14_FREQUENCY;
        let _ = crate::measure::campaign::Estimator::PeriodDomain { record_len: 16 };
        let _ = crate::trng::postprocess::xor_output_bias(0.1, 2).unwrap();
        let _ = crate::ais::procedure_a::BLOCK_BITS;
        let _ = crate::core::paper::RN_CONSTANT;
        let _ = crate::engine::source::SourceSpec::parse("model");
        let _ = crate::obs::EventKind::Alarm.code();
        let _ = crate::serve::http::reason_phrase(503);
    }
}
