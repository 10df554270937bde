//! Sharded high-throughput entropy generation runtime.
//!
//! The analysis crates of this workspace study a P-TRNG's stochastic model; this crate
//! *runs* one at scale.  It turns the simulated generators into a serving system:
//!
//! * [`source`] — the [`source::EntropySource`] trait plus pluggable implementations:
//!   the paper's eRO-TRNG and a fast calibrated stochastic-model source for scale
//!   testing; every shard and every pool child draws its source through one
//!   crate-private raw-bit lane (`SourceLane`: RCT/APT, the `σ²_N` sweep cadence,
//!   an optional audit and an optional stall watchdog),
//! * [`pooled`] — the one XOR combiner ([`pooled::PoolSource`]): N child sources
//!   mixed bit for bit, each with its own health lanes and quarantine; the
//!   multi-ring `xor:K` spec is a pool of K identical eRO children,
//! * [`pool`] — a sharded worker pool: one independently-seeded source per shard, each
//!   feeding a bounded byte channel with batching and backpressure, its bits streamed
//!   through a declarative conditioning pipeline ([`pool::ConditionerSpec`]: XOR
//!   decimation, von Neumann, SHA-256 vetted conditioning) that folds an end-to-end
//!   entropy ledger from the source's dependent-jitter bound to the emitted bytes and
//!   refuses emission when the accounted entropy misses the configured floor,
//! * [`stream`] — the consumer side: ordered batches of packed bytes with shard
//!   attribution and a hard byte budget,
//! * [`tap`] — a shareable multi-consumer view of the stream ([`tap::EntropyTap`]):
//!   blocking and non-blocking byte draws from any number of threads, with the
//!   conditioned-output entropy ledger and the alarm trail attached — the interface
//!   the `ptrng-serve` HTTP layer is built on,
//! * [`expanded`] — the SP 800-90A Hash_DRBG expansion tier
//!   ([`expanded::ExpandedTap`]): ledger-accounted seeds, policy-driven reseeding
//!   and a hard per-seed output allowance, decoupling serving throughput from the
//!   physical source,
//! * [`health`] — continuous health monitoring per shard: a FIPS 140-2 startup battery,
//!   SP 800-90B repetition-count and adaptive-proportion tests on the raw bits, and the
//!   paper's `σ²_N` thermal-jitter online test, composed into a latching alarm state
//!   machine (with flicker-aware debouncing of the thermal estimate),
//! * [`audit`] — the black-box cross-check of the entropy ledger: a streaming
//!   [`audit::EntropyAudit`] runs the SP 800-90B §6.3 non-IID estimator battery over
//!   windows of raw and conditioned bits and raises an alarm when the battery
//!   estimate falls below the claimed min-entropy minus a calibrated margin (the
//!   paper's overclaim experiment as a runtime facility),
//! * [`metrics`] — lock-free per-shard counters and serializable snapshots,
//! * [`observatory`] — the engine's observability surface: per-shard flight
//!   recorders, latency histograms (batch, conditioning stage, audit battery, tap
//!   wait), alarm postmortems and the optional JSONL journal, built on `ptrng-obs`.
//!
//! The `ptrngd` and `ptrng-serve` binaries (in the `ptrng-serve` crate) wrap the pool
//! into a CLI that streams bytes to a file descriptor and an HTTP entropy server
//! respectively; see `docs/architecture.md` and `docs/operations.md` in the repository
//! book for the end-to-end dataflow and the runbook.
//!
//! # Quickstart
//!
//! ```
//! use ptrng_engine::pool::{Engine, EngineConfig};
//! use ptrng_engine::source::SourceSpec;
//!
//! # fn main() -> ptrng_engine::Result<()> {
//! let config = EngineConfig::new(SourceSpec::parse("model")?)
//!     .shards(2)
//!     .budget_bytes(Some(4096))
//!     .seed(7);
//! let mut engine = Engine::spawn(config)?;
//! let bytes = engine.read_to_end()?;
//! engine.join()?;
//! assert_eq!(bytes.len(), 4096);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod expanded;
pub mod fault;
pub mod health;
mod lane;
pub mod metrics;
pub mod observatory;
pub mod pool;
pub mod pooled;
pub mod source;
pub mod stream;
pub mod tap;

use thiserror::Error;

/// Errors produced by the generation runtime.
#[derive(Debug, Error)]
#[non_exhaustive]
pub enum EngineError {
    /// A parameter was outside its valid domain.
    #[error("invalid parameter {name}: {reason}")]
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Description of the violated constraint.
        reason: String,
    },
    /// A source specification string could not be parsed.
    #[error("invalid source spec `{spec}`: {reason}")]
    SpecParse {
        /// The offending specification string.
        spec: String,
        /// Why it was rejected.
        reason: String,
    },
    /// The accounted min-entropy per conditioned output bit fell below the configured
    /// emission threshold; the engine refuses to emit rather than overclaim.
    #[error(
        "refusing emission on shard {shard}: accounted min-entropy {accounted:.6}/bit \
         is below the required {required:.6}/bit [{ledger}]"
    )]
    EntropyDeficit {
        /// Index of the offending shard.
        shard: usize,
        /// Accounted min-entropy per conditioned output bit.
        accounted: f64,
        /// The configured `min_output_entropy` threshold.
        required: f64,
        /// The entropy ledger explaining the accounting; render it with
        /// [`ptrng_trng::conditioning::EntropyLedger::to_json`] for machine consumers
        /// (the `ptrng-serve` HTTP 503 body) or `Display` for humans.
        ledger: Box<ptrng_trng::conditioning::EntropyLedger>,
    },
    /// A shard's health monitor raised an alarm.
    #[error("health alarm on shard {shard}: {reason}")]
    HealthAlarm {
        /// Index of the alarming shard.
        shard: usize,
        /// Typed alarm classification (stable codes; see
        /// [`metrics::AlarmKind::code`]).
        kind: metrics::AlarmKind,
        /// Human-readable alarm reason.
        reason: String,
    },
    /// A shard worker terminated abnormally.
    #[error("shard worker {shard} panicked")]
    WorkerPanicked {
        /// Index of the dead shard.
        shard: usize,
    },
    /// A noise source (or an injected fault standing in for one) stopped producing
    /// bits — e.g. an intermittent-death fault window, or a pool whose serving
    /// children all quarantined.
    #[error("source fault: {reason}")]
    SourceFault {
        /// Description of the fault.
        reason: String,
    },
    /// A TRNG-model routine failed.
    #[error("trng model error: {0}")]
    Trng(#[from] ptrng_trng::TrngError),
    /// An oscillator-model routine failed.
    #[error("oscillator model error: {0}")]
    Osc(#[from] ptrng_osc::OscError),
    /// A statistical-test routine failed.
    #[error("test battery error: {0}")]
    Ais(#[from] ptrng_ais::AisError),
}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, EngineError>;

/// Commonly used items.
pub mod prelude {
    pub use crate::audit::{AuditConfig, AuditReport, AuditSnapshot, EntropyAudit, WindowAudit};
    pub use crate::expanded::{DrbgPolicy, DrbgSnapshot, ExpandedTap};
    pub use crate::fault::{FaultKind, FaultPlan, FaultSource};
    pub use crate::health::{AlarmReason, HealthConfig, HealthMonitor, HealthState};
    pub use crate::metrics::{AlarmKind, MetricsSnapshot, ShardAlarm};
    pub use crate::observatory::Observatory;
    pub use crate::pool::{ConditionerSpec, Engine, EngineConfig, StageSpec};
    pub use crate::pooled::{PoolOptions, PoolSource};
    pub use crate::source::{ChildStatus, EntropySource, JitterProfile, SourceEvent, SourceSpec};
    pub use crate::stream::Batch;
    pub use crate::tap::EntropyTap;
    pub use crate::{EngineError, Result};
    pub use ptrng_trng::conditioning::{ConditioningChain, ConditioningStage, EntropyLedger};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_readable_messages() {
        let e = EngineError::HealthAlarm {
            shard: 3,
            kind: metrics::AlarmKind::Thermal,
            reason: "thermal collapse".to_string(),
        };
        assert!(e.to_string().contains("shard 3"));
        let e: EngineError = ptrng_osc::OscError::InvalidParameter {
            name: "x",
            reason: "bad".to_string(),
        }
        .into();
        assert!(e.to_string().contains("oscillator model error"));
    }
}
