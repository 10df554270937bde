//! Server-side counters and the Prometheus text exposition of `/metrics`.
//!
//! The engine already keeps lock-free per-shard counters
//! ([`ptrng_engine::metrics::MetricsSnapshot`]); this module adds the HTTP-layer
//! counters (requests, responses by status, bytes served, rate-limit refusals) and
//! renders both through the shared [`ptrng_obs::TextEncoder`] — the same
//! escaping-correct encoder `ptrngd --stats` uses, so the exposition format rules
//! live in exactly one place.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ptrng_engine::metrics::MetricsSnapshot;
use ptrng_obs::{MetricKind, TextEncoder};

/// HTTP-layer counters, updated lock-free on the request path (the per-status map
/// takes a short mutex: statuses are few and responses are large).
#[derive(Debug, Default)]
pub struct ServerMetrics {
    requests: AtomicU64,
    bytes_served: AtomicU64,
    rate_limited: AtomicU64,
    selftests: AtomicU64,
    selftest_overclaims: AtomicU64,
    responses_by_status: Mutex<BTreeMap<u16, u64>>,
}

impl ServerMetrics {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one received (parsed) request.
    pub fn record_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one response with the given status.
    pub fn record_response(&self, status: u16) {
        *self
            .responses_by_status
            .lock()
            .expect("metrics lock poisoned")
            .entry(status)
            .or_insert(0) += 1;
    }

    /// Counts one request refused by a per-client token bucket.  The per-IP
    /// connection gate's 429 is not counted here (only under its status).
    pub fn record_rate_limited(&self) {
        self.rate_limited.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `/entropy` (full-entropy tier) body bytes handed to clients.
    pub fn record_bytes_served(&self, bytes: u64) {
        self.bytes_served.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Counts one completed `/selftest` battery run (and whether it flagged an
    /// overclaim).
    pub fn record_selftest(&self, overclaim: bool) {
        self.selftests.fetch_add(1, Ordering::Relaxed);
        if overclaim {
            self.selftest_overclaims.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total `/entropy` body bytes served so far.
    pub fn bytes_served(&self) -> u64 {
        self.bytes_served.load(Ordering::Relaxed)
    }

    /// Total parsed requests so far.
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }
}

/// Renders the engine snapshot plus the server counters into an open encoder.
///
/// `min_entropy_per_bit` is the accounted ledger claim of the conditioned output
/// (`None` while the server is refusing on an entropy deficit — the gauge is then the
/// *refused* accounting, still exported so operators can see how far off it is).
/// The `/metrics` handler appends the latency-histogram families to the same
/// encoder afterwards.
pub fn render_prometheus_into(
    enc: &mut TextEncoder,
    engine: &MetricsSnapshot,
    server: &ServerMetrics,
    min_entropy_per_bit: f64,
    live_shards: usize,
    serving: bool,
) {
    // Engine-level totals.
    enc.scalar(
        "ptrng_raw_bits_total",
        "Raw bits drawn from the noise sources across all shards.",
        MetricKind::Counter,
        engine.total_raw_bits,
    );
    enc.scalar(
        "ptrng_output_bytes_total",
        "Conditioned output bytes published by the engine.",
        MetricKind::Counter,
        engine.total_output_bytes,
    );
    enc.scalar(
        "ptrng_batches_total",
        "Batches published across all shards.",
        MetricKind::Counter,
        engine.total_batches,
    );
    enc.scalar(
        "ptrng_accounted_entropy_bits_total",
        "Accounted min-entropy carried by the published output, in bits.",
        MetricKind::Counter,
        format_args!("{:.3}", engine.total_accounted_entropy_bits),
    );
    enc.scalar(
        "ptrng_alarms_total",
        "Entries on the alarm trail: terminal shard alarms (RCT, APT, startup battery, \
         thermal, audit overclaim, source failure) plus every non-terminal pool child \
         quarantine and reinstatement.",
        MetricKind::Counter,
        engine.alarms,
    );
    enc.scalar(
        "ptrng_min_entropy_per_output_bit",
        "Accounted min-entropy per conditioned output bit from the entropy ledger.",
        MetricKind::Gauge,
        format_args!("{min_entropy_per_bit:.6}"),
    );
    enc.scalar(
        "ptrng_live_shards",
        "Shards still producing output.",
        MetricKind::Gauge,
        live_shards,
    );
    enc.scalar(
        "ptrng_serving",
        "1 when the engine emits under its entropy policy, 0 when refusing.",
        MetricKind::Gauge,
        u8::from(serving),
    );
    enc.family(
        "ptrng_sha256_kernel_info",
        "SHA-256 compression kernel this process runs (sha-ni or scalar), for the \
         sha256 conditioner and the /random DRBG; always 1.",
        MetricKind::Gauge,
    );
    enc.sample(
        "ptrng_sha256_kernel_info",
        &[("kernel", ptrng_trng::sha256::kernel())],
        1,
    );

    // Per-shard breakdown.
    enc.family(
        "ptrng_shard_output_bytes_total",
        "Output bytes per shard.",
        MetricKind::Counter,
    );
    for shard in &engine.per_shard {
        enc.sample(
            "ptrng_shard_output_bytes_total",
            &[("shard", &shard.shard.to_string())],
            shard.output_bytes,
        );
    }
    enc.family(
        "ptrng_shard_raw_bits_total",
        "Raw source bits per shard.",
        MetricKind::Counter,
    );
    for shard in &engine.per_shard {
        enc.sample(
            "ptrng_shard_raw_bits_total",
            &[("shard", &shard.shard.to_string())],
            shard.raw_bits,
        );
    }

    // Entropy-audit lanes (populated when the engine runs with an audit, or via
    // /selftest's on-demand batteries recorded below).
    if !engine.audits.is_empty() {
        enc.family(
            "ptrng_audit_windows_total",
            "Estimator-battery windows completed per audit lane.",
            MetricKind::Counter,
        );
        for lane in &engine.audits {
            enc.sample(
                "ptrng_audit_windows_total",
                &[("lane", &lane.lane)],
                lane.windows,
            );
        }
        enc.family(
            "ptrng_audit_overclaims_total",
            "Windows whose battery estimate undercut the claim by more than the margin.",
            MetricKind::Counter,
        );
        for lane in &engine.audits {
            enc.sample(
                "ptrng_audit_overclaims_total",
                &[("lane", &lane.lane)],
                lane.overclaims,
            );
        }
        enc.family(
            "ptrng_audit_last_estimate",
            "Battery min-entropy estimate of the most recent audited window, per lane.",
            MetricKind::Gauge,
        );
        for lane in &engine.audits {
            enc.sample(
                "ptrng_audit_last_estimate",
                &[("lane", &lane.lane)],
                format_args!("{:.6}", lane.last_estimate),
            );
        }
    }

    // Pool child lifecycle (populated for pool sources only).
    if !engine.pool_children.is_empty() {
        let child_labels = |entry: &ptrng_engine::metrics::PoolChildSnapshot| {
            (entry.shard.to_string(), entry.status.child.to_string())
        };
        enc.family(
            "ptrng_pool_child_state",
            "Lifecycle lane of each pool child: 0 serving, 1 quarantined, 2 probation.",
            MetricKind::Gauge,
        );
        for entry in &engine.pool_children {
            let (shard, child) = child_labels(entry);
            let code = match entry.status.state.as_str() {
                "quarantined" => 1,
                "probation" => 2,
                _ => 0,
            };
            enc.sample(
                "ptrng_pool_child_state",
                &[("shard", &shard), ("child", &child)],
                code,
            );
        }
        enc.family(
            "ptrng_pool_child_entropy_per_bit",
            "Credited min-entropy per raw bit of each pool child (0 while not serving).",
            MetricKind::Gauge,
        );
        for entry in &engine.pool_children {
            let (shard, child) = child_labels(entry);
            enc.sample(
                "ptrng_pool_child_entropy_per_bit",
                &[("shard", &shard), ("child", &child)],
                format_args!("{:.6}", entry.status.credited_entropy_per_bit),
            );
        }
        enc.family(
            "ptrng_pool_child_quarantines_total",
            "Times each pool child entered quarantine.",
            MetricKind::Counter,
        );
        for entry in &engine.pool_children {
            let (shard, child) = child_labels(entry);
            enc.sample(
                "ptrng_pool_child_quarantines_total",
                &[("shard", &shard), ("child", &child)],
                entry.status.quarantines,
            );
        }
        enc.family(
            "ptrng_pool_child_reinstatements_total",
            "Times each pool child was reinstated after a clean probation.",
            MetricKind::Counter,
        );
        for entry in &engine.pool_children {
            let (shard, child) = child_labels(entry);
            enc.sample(
                "ptrng_pool_child_reinstatements_total",
                &[("shard", &shard), ("child", &child)],
                entry.status.reinstatements,
            );
        }
    }

    // HTTP layer.
    enc.scalar(
        "ptrng_http_requests_total",
        "Parsed HTTP requests.",
        MetricKind::Counter,
        server.requests(),
    );
    enc.scalar(
        "ptrng_http_selftests_total",
        "Completed /selftest estimator-battery runs.",
        MetricKind::Counter,
        server.selftests.load(Ordering::Relaxed),
    );
    enc.scalar(
        "ptrng_http_selftest_overclaims_total",
        "/selftest runs that flagged the ledger claim as overclaimed.",
        MetricKind::Counter,
        server.selftest_overclaims.load(Ordering::Relaxed),
    );
    enc.scalar(
        "ptrng_http_entropy_bytes_served_total",
        "/entropy (full-entropy tier) body bytes handed to clients; /random bytes are \
         ptrng_drbg_bytes_total.",
        MetricKind::Counter,
        server.bytes_served(),
    );
    enc.scalar(
        "ptrng_http_rate_limited_total",
        "Requests refused by the per-client token bucket (HTTP 429).",
        MetricKind::Counter,
        server.rate_limited.load(Ordering::Relaxed),
    );
    enc.family(
        "ptrng_http_responses_total",
        "Responses by HTTP status code.",
        MetricKind::Counter,
    );
    for (status, count) in server
        .responses_by_status
        .lock()
        .expect("metrics lock poisoned")
        .iter()
    {
        enc.sample(
            "ptrng_http_responses_total",
            &[("status", &status.to_string())],
            count,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptrng_engine::metrics::ShardSnapshot;

    #[test]
    fn rendering_contains_every_family_and_label() {
        let per_shard: Vec<ShardSnapshot> = (0..2)
            .map(|shard| ShardSnapshot {
                shard,
                raw_bits: 8192,
                output_bytes: 1024,
                batches: 1,
                entropy_per_output_bit: 0.9973,
                accounted_entropy_bits: 1024.0 * 8.0 * 0.9973,
            })
            .collect();
        let engine = MetricsSnapshot {
            total_raw_bits: 16384,
            total_output_bytes: 2048,
            total_batches: 2,
            total_accounted_entropy_bits: per_shard.iter().map(|s| s.accounted_entropy_bits).sum(),
            alarms: 0,
            audits: vec![ptrng_engine::audit::AuditSnapshot {
                lane: "raw".to_string(),
                claim: 0.9973,
                margin: 0.25,
                windows: 3,
                overclaims: 1,
                last_estimate: 0.8123,
                last_weakest: "compression".to_string(),
            }],
            pool_children: vec![
                ptrng_engine::metrics::PoolChildSnapshot {
                    shard: 0,
                    status: ptrng_engine::source::ChildStatus {
                        child: 0,
                        label: "model(p1=0.600)".to_string(),
                        state: "serving".to_string(),
                        entropy_per_bit: 0.7370,
                        credited_entropy_per_bit: 0.7370,
                        quarantines: 0,
                        reinstatements: 0,
                    },
                },
                ptrng_engine::metrics::PoolChildSnapshot {
                    shard: 0,
                    status: ptrng_engine::source::ChildStatus {
                        child: 1,
                        label: "ero(D=4)".to_string(),
                        state: "quarantined".to_string(),
                        entropy_per_bit: 0.4,
                        credited_entropy_per_bit: 0.0,
                        quarantines: 2,
                        reinstatements: 1,
                    },
                },
            ],
            per_shard,
        };
        let server = ServerMetrics::new();
        server.record_request();
        server.record_response(200);
        server.record_response(429);
        server.record_rate_limited();
        server.record_bytes_served(4096);
        server.record_selftest(false);
        server.record_selftest(true);

        let mut enc = TextEncoder::new();
        render_prometheus_into(&mut enc, &engine, &server, 0.9973, 2, true);
        let text = enc.finish();
        for family in [
            "ptrng_raw_bits_total 16384",
            "ptrng_output_bytes_total 2048",
            "ptrng_min_entropy_per_output_bit 0.997300",
            "ptrng_live_shards 2",
            "ptrng_serving 1",
            "ptrng_shard_output_bytes_total{shard=\"1\"} 1024",
            "ptrng_http_requests_total 1",
            "ptrng_http_entropy_bytes_served_total 4096",
            "ptrng_http_rate_limited_total 1",
            "ptrng_http_responses_total{status=\"200\"} 1",
            "ptrng_http_responses_total{status=\"429\"} 1",
            "ptrng_audit_windows_total{lane=\"raw\"} 3",
            "ptrng_audit_overclaims_total{lane=\"raw\"} 1",
            "ptrng_audit_last_estimate{lane=\"raw\"} 0.812300",
            "ptrng_http_selftests_total 2",
            "ptrng_http_selftest_overclaims_total 1",
            "ptrng_pool_child_state{shard=\"0\",child=\"0\"} 0",
            "ptrng_pool_child_state{shard=\"0\",child=\"1\"} 1",
            "ptrng_pool_child_entropy_per_bit{shard=\"0\",child=\"0\"} 0.737000",
            "ptrng_pool_child_entropy_per_bit{shard=\"0\",child=\"1\"} 0.000000",
            "ptrng_pool_child_quarantines_total{shard=\"0\",child=\"1\"} 2",
            "ptrng_pool_child_reinstatements_total{shard=\"0\",child=\"1\"} 1",
        ] {
            assert!(text.contains(family), "missing `{family}` in:\n{text}");
        }
        // Exposition-format hygiene: HELP/TYPE precede each family.
        assert!(text.contains("# TYPE ptrng_raw_bits_total counter"));
        assert!(text.contains("# TYPE ptrng_accounted_entropy_bits_total counter"));
        assert!(text.contains("# HELP ptrng_serving "));
        let kernel = ptrng_trng::sha256::kernel();
        assert!(
            text.contains(&format!(
                "\nptrng_sha256_kernel_info{{kernel=\"{kernel}\"}} 1\n"
            )),
            "the SHA-256 kernel is named on every scrape:\n{text}"
        );
    }
}
