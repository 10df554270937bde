//! Observability substrate for the P-TRNG engine, conditioning, audit and serve stack.
//!
//! The entropy ledger of the conditioning pipeline makes the *claim* auditable; this
//! crate makes the *runtime* inspectable. It is deliberately std-only and hand-rolled,
//! in the same spirit as the rest of the workspace:
//!
//! * `recorder` — a lock-free per-shard **flight recorder** ([`FlightRecorder`]): a
//!   fixed-size ring of recent [`Event`]s (batch generated, conditioning stage applied,
//!   health verdict, audit window, tap wait, HTTP request, alarm) stamped with
//!   monotonic nanoseconds from a shared [`ObsClock`]. Recording costs a handful of
//!   atomic operations.
//! * `histogram` — hand-rolled HDR-style **log-linear histograms**
//!   ([`LogLinearHistogram`]): fixed buckets, lock-free recording, mergeable, exact
//!   rank-based quantile queries, explicit saturation at the bucket cap.
//! * `encoder` — one shared, escaping-correct **Prometheus text encoder**
//!   ([`TextEncoder`]) used by both `ptrngd --stats` and `/metrics`, including
//!   `_bucket`/`_sum`/`_count` rendering of the histograms above.
//! * [`probe`] — [`probe::Probe`] glues a histogram to an optional flight recorder so
//!   instrumented code records one duration into both with a single call.
//! * `postmortem` — when a shard alarms, the worker snapshots its flight recorder
//!   plus the current entropy ledger into a bounded [`PostmortemStore`], surfaced via
//!   `/healthz`, `GET /debug/trace` and the journal.
//! * `journal` — an optional append-only JSONL sink ([`Journal`]) behind the
//!   `--journal <path>` flag of `ptrngd` and `ptrng-serve`.
//!
//! # Example
//!
//! ```
//! use ptrng_obs::prelude::*;
//! use std::sync::Arc;
//!
//! let clock = ObsClock::new();
//! let recorder = Arc::new(FlightRecorder::new(clock, RING_EVENTS));
//! let histogram = Arc::new(LogLinearHistogram::new());
//! let probe = Probe::new(Arc::clone(&histogram), EventKind::BatchGenerated)
//!     .with_recorder(Arc::clone(&recorder), Some(0));
//! probe.record_ns(12_345);
//! assert_eq!(histogram.count(), 1);
//! assert_eq!(recorder.snapshot().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encoder;
mod event;
mod histogram;
mod journal;
mod postmortem;
pub mod probe;
mod recorder;

/// Convenient re-exports of the types instrumented layers actually touch.
pub mod prelude {
    pub use crate::encoder::{MetricKind, TextEncoder};
    pub use crate::event::{Event, EventKind};
    pub use crate::histogram::{
        HistogramSnapshot, LogLinearHistogram, DEFAULT_TIME_BOUNDS_NS, MAX_TRACKED_NS,
    };
    pub use crate::journal::Journal;
    pub use crate::postmortem::{Postmortem, PostmortemStore};
    pub use crate::probe::Probe;
    pub use crate::recorder::{FlightRecorder, ObsClock, RING_EVENTS};
}

pub use encoder::{MetricKind, TextEncoder};
pub use event::{Event, EventKind};
pub use histogram::{
    HistogramSnapshot, LogLinearHistogram, DEFAULT_TIME_BOUNDS_NS, MAX_TRACKED_NS,
};
pub use journal::Journal;
pub use postmortem::{Postmortem, PostmortemStore};
pub use probe::Probe;
pub use recorder::{FlightRecorder, ObsClock, RING_EVENTS};
