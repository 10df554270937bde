//! The engine's observability surface.
//!
//! One [`Observatory`] is built per [`Engine`](crate::pool::Engine) spawn and shared
//! (via `Arc`) by every shard worker, the [`EntropyTap`](crate::tap::EntropyTap)
//! and the `ptrng-serve` HTTP layer. It bundles:
//!
//! * a per-shard [`FlightRecorder`] plus one consumer-side recorder (tap waits),
//!   all stamped against a single [`ObsClock`] so events merge into one timeline,
//! * the latency histograms — batch generation, per-conditioning-stage, audit
//!   battery, tap blocking-wait — exported as Prometheus `_bucket`/`_sum`/`_count`
//!   families by [`Observatory::render_histograms`],
//! * the bounded [`PostmortemStore`] alarm postmortems land in,
//! * the optional `--journal` JSONL sink.

use std::sync::Arc;

use ptrng_ais::estimators::{EstimatorTiming, BATTERY_UNIT_NAMES};
use ptrng_obs::{
    Event, EventKind, FlightRecorder, Journal, LogLinearHistogram, ObsClock, PostmortemStore,
    TextEncoder, DEFAULT_TIME_BOUNDS_NS, RING_EVENTS,
};

use crate::audit::COUNTER_TIMING_LABEL;

/// Shared observability state of one running engine.
#[derive(Debug)]
pub struct Observatory {
    clock: ObsClock,
    /// One flight recorder per shard, written by that shard's worker.
    recorders: Vec<Arc<FlightRecorder>>,
    /// Consumer-side recorder: tap blocking waits.
    tap_recorder: Arc<FlightRecorder>,
    batch_ns: Arc<LogLinearHistogram>,
    /// One histogram per conditioning stage, labelled by the stage's own label.
    stage_ns: Vec<(String, Arc<LogLinearHistogram>)>,
    audit_ns: Arc<LogLinearHistogram>,
    /// One histogram per battery unit (plus the counting-only window's
    /// `counters` unit), decomposing `audit_ns` per estimator.
    estimator_ns: Vec<(String, Arc<LogLinearHistogram>)>,
    tap_wait_ns: Arc<LogLinearHistogram>,
    drbg_reseed_ns: Arc<LogLinearHistogram>,
    postmortems: Arc<PostmortemStore>,
    journal: Option<Arc<Journal>>,
}

impl Observatory {
    /// Builds the observatory for `shards` workers whose conditioning chains carry
    /// the given stage labels.
    pub(crate) fn new(
        shards: usize,
        stage_labels: Vec<String>,
        journal: Option<Arc<Journal>>,
    ) -> Self {
        let clock = ObsClock::new();
        Self {
            clock,
            recorders: (0..shards)
                .map(|_| Arc::new(FlightRecorder::new(clock, RING_EVENTS)))
                .collect(),
            tap_recorder: Arc::new(FlightRecorder::new(clock, RING_EVENTS)),
            batch_ns: Arc::new(LogLinearHistogram::new()),
            stage_ns: stage_labels
                .into_iter()
                .map(|label| (label, Arc::new(LogLinearHistogram::new())))
                .collect(),
            audit_ns: Arc::new(LogLinearHistogram::new()),
            estimator_ns: BATTERY_UNIT_NAMES
                .iter()
                .copied()
                .chain(std::iter::once(COUNTER_TIMING_LABEL))
                .map(|name| (name.to_string(), Arc::new(LogLinearHistogram::new())))
                .collect(),
            tap_wait_ns: Arc::new(LogLinearHistogram::new()),
            drbg_reseed_ns: Arc::new(LogLinearHistogram::new()),
            postmortems: Arc::new(PostmortemStore::default()),
            journal,
        }
    }

    /// The engine-wide monotonic clock every event is stamped against.
    pub fn clock(&self) -> ObsClock {
        self.clock
    }

    /// The alarming shard's flight recorder.
    pub fn recorder(&self, shard: usize) -> &Arc<FlightRecorder> {
        &self.recorders[shard]
    }

    /// The consumer-side (tap) flight recorder.
    pub fn tap_recorder(&self) -> &Arc<FlightRecorder> {
        &self.tap_recorder
    }

    /// Batch-generation latency histogram (all shards).
    pub fn batch_histogram(&self) -> &Arc<LogLinearHistogram> {
        &self.batch_ns
    }

    /// Per-conditioning-stage latency histograms, labelled by stage.
    pub fn stage_histograms(&self) -> &[(String, Arc<LogLinearHistogram>)] {
        &self.stage_ns
    }

    /// Audit estimator-battery duration histogram.
    pub fn audit_histogram(&self) -> &Arc<LogLinearHistogram> {
        &self.audit_ns
    }

    /// Per-estimator battery-unit histograms (the decomposition of
    /// [`audit_histogram`](Self::audit_histogram)), labelled by unit name.
    pub fn estimator_histograms(&self) -> &[(String, Arc<LogLinearHistogram>)] {
        &self.estimator_ns
    }

    /// Records the per-unit timings of one completed audit window.
    pub(crate) fn record_estimator_timings(&self, timings: &[EstimatorTiming]) {
        for timing in timings {
            if let Some((_, histogram)) = self
                .estimator_ns
                .iter()
                .find(|(name, _)| *name == timing.name)
            {
                histogram.record(timing.ns);
            }
        }
    }

    /// Tap blocking-wait histogram.
    pub fn tap_wait_histogram(&self) -> &Arc<LogLinearHistogram> {
        &self.tap_wait_ns
    }

    /// The bounded store alarm postmortems are pushed into.
    pub fn postmortems(&self) -> &Arc<PostmortemStore> {
        &self.postmortems
    }

    /// The optional JSONL journal sink.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// Merges every flight recorder (shards plus tap) into one time-ordered list.
    pub fn events(&self) -> Vec<Event> {
        let mut events: Vec<Event> = self
            .recorders
            .iter()
            .chain(std::iter::once(&self.tap_recorder))
            .flat_map(|recorder| recorder.snapshot())
            .collect();
        events.sort_by_key(|event| event.t_ns);
        events
    }

    /// Records a consumer blocking-wait of `ns` nanoseconds for `bytes` drawn.
    pub(crate) fn record_tap_wait(&self, ns: u64, bytes: u64) {
        self.tap_wait_ns.record(ns);
        self.tap_recorder
            .record(EventKind::TapWait, None, ns, bytes);
    }

    /// DRBG reseed latency histogram (seed draw + derivation per (re)seed).
    pub fn drbg_reseed_histogram(&self) -> &Arc<LogLinearHistogram> {
        &self.drbg_reseed_ns
    }

    /// Records one DRBG (re)seed: `ns` of wall-clock latency after
    /// `bytes_since_reseed` expanded output bytes.  The event rides the
    /// consumer-side recorder (the expansion tier draws like any consumer) and
    /// — like alarm postmortems — lands in the `--journal` sink.
    pub(crate) fn record_drbg_reseed(&self, ns: u64, bytes_since_reseed: u64) {
        self.drbg_reseed_ns.record(ns);
        self.tap_recorder
            .record(EventKind::DrbgReseed, None, ns, bytes_since_reseed);
        if let Some(journal) = self.journal() {
            journal.append(
                EventKind::DrbgReseed.code(),
                &Event {
                    t_ns: self.clock.now_ns(),
                    shard: None,
                    kind: EventKind::DrbgReseed,
                    value: ns,
                    extra: bytes_since_reseed,
                },
            );
        }
    }

    /// Renders the engine-side histogram families into a Prometheus exposition.
    ///
    /// Families: `ptrng_batch_generation_seconds`,
    /// `ptrng_conditioning_stage_seconds{stage="…"}`,
    /// `ptrng_audit_battery_seconds`,
    /// `ptrng_audit_estimator_seconds{estimator="…"}`, `ptrng_tap_wait_seconds`,
    /// `ptrng_drbg_reseed_seconds`.
    pub fn render_histograms(&self, enc: &mut TextEncoder) {
        enc.histogram(
            "ptrng_batch_generation_seconds",
            "Wall-clock time to generate, condition and publish one batch.",
            &[],
            &self.batch_ns.snapshot(),
            &DEFAULT_TIME_BOUNDS_NS,
        );
        if !self.stage_ns.is_empty() {
            enc.family(
                "ptrng_conditioning_stage_seconds",
                "Per-conditioning-stage processing time of one batch.",
                ptrng_obs::MetricKind::Histogram,
            );
            for (label, histogram) in &self.stage_ns {
                enc.histogram_series(
                    "ptrng_conditioning_stage_seconds",
                    &[("stage", label)],
                    &histogram.snapshot(),
                    &DEFAULT_TIME_BOUNDS_NS,
                );
            }
        }
        enc.histogram(
            "ptrng_audit_battery_seconds",
            "SP 800-90B estimator-battery duration per completed audit window.",
            &[],
            &self.audit_ns.snapshot(),
            &DEFAULT_TIME_BOUNDS_NS,
        );
        enc.family(
            "ptrng_audit_estimator_seconds",
            "Per-estimator battery-unit duration within completed audit windows.",
            ptrng_obs::MetricKind::Histogram,
        );
        for (label, histogram) in &self.estimator_ns {
            enc.histogram_series(
                "ptrng_audit_estimator_seconds",
                &[("estimator", label)],
                &histogram.snapshot(),
                &DEFAULT_TIME_BOUNDS_NS,
            );
        }
        enc.histogram(
            "ptrng_tap_wait_seconds",
            "Consumer blocking-wait time per tap draw.",
            &[],
            &self.tap_wait_ns.snapshot(),
            &DEFAULT_TIME_BOUNDS_NS,
        );
        enc.histogram(
            "ptrng_drbg_reseed_seconds",
            "DRBG expansion-tier (re)seed latency (seed draw + derivation).",
            &[],
            &self.drbg_reseed_ns.snapshot(),
            &DEFAULT_TIME_BOUNDS_NS,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_merge_across_recorders_in_time_order() {
        let obs = Observatory::new(2, vec!["xor:4".to_string()], None);
        obs.recorder(0)
            .record(EventKind::BatchGenerated, Some(0), 10, 0);
        obs.recorder(1)
            .record(EventKind::BatchGenerated, Some(1), 20, 0);
        obs.record_tap_wait(5, 64);
        let events = obs.events();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        assert!(events.iter().any(|e| e.kind == EventKind::TapWait));
        assert_eq!(obs.tap_wait_histogram().count(), 1);
    }

    #[test]
    fn histogram_families_render() {
        let obs = Observatory::new(1, vec!["sha256:2".to_string()], None);
        obs.batch_histogram().record(1_000_000);
        obs.stage_histograms()[0].1.record(250_000);
        obs.audit_histogram().record(90_000_000);
        obs.record_estimator_timings(&[
            EstimatorTiming {
                name: "compression".to_string(),
                ns: 60_000_000,
            },
            EstimatorTiming {
                name: COUNTER_TIMING_LABEL.to_string(),
                ns: 12_000,
            },
            // Unknown names are ignored rather than inventing label series.
            EstimatorTiming {
                name: "not-an-estimator".to_string(),
                ns: 1,
            },
        ]);
        obs.record_tap_wait(3_000, 32);
        let mut enc = TextEncoder::new();
        obs.render_histograms(&mut enc);
        let text = enc.finish();
        for needle in [
            "# TYPE ptrng_batch_generation_seconds histogram",
            "ptrng_batch_generation_seconds_count 1",
            "ptrng_conditioning_stage_seconds_bucket{stage=\"sha256:2\",le=\"0.001\"} 1",
            "ptrng_conditioning_stage_seconds_count{stage=\"sha256:2\"} 1",
            "ptrng_audit_battery_seconds_count 1",
            "# TYPE ptrng_audit_estimator_seconds histogram",
            "ptrng_audit_estimator_seconds_count{estimator=\"compression\"} 1",
            "ptrng_audit_estimator_seconds_count{estimator=\"counters\"} 1",
            "ptrng_audit_estimator_seconds_count{estimator=\"t-tuple+lrs\"} 0",
            "ptrng_tap_wait_seconds_count 1",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
        // The stage family header appears exactly once even with labelled series.
        assert_eq!(
            text.matches("# TYPE ptrng_conditioning_stage_seconds histogram")
                .count(),
            1
        );
        assert!(!text.contains("not-an-estimator"), "{text}");
    }
}
