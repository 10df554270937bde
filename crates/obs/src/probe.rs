//! [`Probe`] — one handle that records a duration into a histogram and, when a
//! flight recorder is attached, emits the matching [`Event`] in the same call.
//!
//! Instrumented layers (conditioning stages, the audit battery, the tap, the HTTP
//! server) hold a `Probe` instead of wiring histogram + recorder + event metadata
//! separately.
//!
//! [`Event`]: crate::event::Event

use std::sync::Arc;
use std::time::Instant;

use crate::event::EventKind;
use crate::histogram::LogLinearHistogram;
use crate::recorder::FlightRecorder;

/// A histogram plus an optional flight-recorder binding.
#[derive(Debug, Clone)]
pub struct Probe {
    histogram: Arc<LogLinearHistogram>,
    recorder: Option<Arc<FlightRecorder>>,
    kind: EventKind,
    shard: Option<u32>,
    tag: u64,
}

impl Probe {
    /// Creates a histogram-only probe emitting events of `kind` once a recorder is
    /// attached.
    pub fn new(histogram: Arc<LogLinearHistogram>, kind: EventKind) -> Self {
        Self {
            histogram,
            recorder: None,
            kind,
            shard: None,
            tag: 0,
        }
    }

    /// Attaches a flight recorder; events carry the given shard.
    pub fn with_recorder(mut self, recorder: Arc<FlightRecorder>, shard: Option<u32>) -> Self {
        self.recorder = Some(recorder);
        self.shard = shard;
        self
    }

    /// Sets the kind-specific `extra` word emitted with every event (e.g. a stage
    /// or lane index).
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// The histogram this probe records into.
    pub fn histogram(&self) -> &Arc<LogLinearHistogram> {
        &self.histogram
    }

    /// Records one duration in nanoseconds (histogram always, recorder if attached).
    pub fn record_ns(&self, ns: u64) {
        self.record_tagged(ns, self.tag);
    }

    /// Records one duration with an explicit `extra` word instead of the probe tag.
    pub fn record_tagged(&self, ns: u64, extra: u64) {
        self.histogram.record(ns);
        if let Some(recorder) = &self.recorder {
            recorder.record(self.kind, self.shard, ns, extra);
        }
    }

    /// Times a closure and records its wall-clock duration.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record_ns(elapsed_ns(start));
        out
    }
}

/// Nanoseconds since `start`, saturating.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::ObsClock;

    #[test]
    fn probe_feeds_histogram_and_recorder() {
        let histogram = Arc::new(LogLinearHistogram::new());
        let recorder = Arc::new(FlightRecorder::new(ObsClock::new(), 4));
        let probe = Probe::new(Arc::clone(&histogram), EventKind::StageApplied)
            .with_recorder(Arc::clone(&recorder), Some(2))
            .with_tag(1);
        probe.record_ns(4_000);
        assert_eq!(histogram.count(), 1);
        let events = recorder.snapshot();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::StageApplied);
        assert_eq!(events[0].shard, Some(2));
        assert_eq!(events[0].value, 4_000);
        assert_eq!(events[0].extra, 1);
    }

    #[test]
    fn time_records_a_sample() {
        let histogram = Arc::new(LogLinearHistogram::new());
        let probe = Probe::new(Arc::clone(&histogram), EventKind::AuditWindow);
        let out = probe.time(|| 7);
        assert_eq!(out, 7);
        assert_eq!(histogram.count(), 1);
    }
}
