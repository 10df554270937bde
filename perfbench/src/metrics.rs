//! The metric table (names, units, directions, bounds) and the result a run
//! prints as its last line.

use crate::stats::Better::{self, Higher, Lower};

/// One reported metric.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may worsen
    /// before a change counts as a regression (`None` for per-layer metrics).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Reported with tracing off (`--trace 0`), on every workload.
pub const END_TO_END: &[Spec] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("goodput_mb_s", "MB/s", Higher, 0.25),
    e2e("p50_ms", "ms", Lower, 0.25),
    e2e("tail_ms", "ms", Lower, 0.25),
    e2e("max_rps_slo", "1/s", Higher, 0.25),
    e2e("rss_mib", "MiB", Lower, 0.25),
    e2e("cpu_ms_per_mb", "ms/MB", Lower, 0.25),
];

/// Reported by the traced run (`--trace 1`), on every workload.
pub const PER_LAYER: &[Spec] = &[
    layer("ero.ns_per_bit", "ns/bit", Lower),
    layer("ero.bits_per_byte", "bit/B", Lower),
    layer("sn.sweep_us", "us", Lower),
    layer("sn.sweeps_per_mb", "1/MB", Lower),
    layer("health.ns_per_bit", "ns/bit", Lower),
    layer("health.startup_ms", "ms", Lower),
    layer("cond.sha256_ns_per_bit", "ns/bit", Lower),
    layer("cond.rate", "bit/bit", Higher),
    layer("stream.pack_ns_per_byte", "ns/B", Lower),
    layer("tap.wait_ms", "ms", Lower),
    layer("tap.short_draws", "count", Lower),
    layer("audit.window_ms", "ms", Lower),
    layer("ais.compression_ms", "ms", Lower),
    layer("ais.t-tuple_lrs_ms", "ms", Lower),
    layer("ais.lag_ms", "ms", Lower),
    layer("ais.multi-mcw_ms", "ms", Lower),
    layer("ais.counters_ms", "ms", Lower),
    layer("audit.overclaims", "count", Lower),
    layer("expanded.draw_us", "us", Lower),
    layer("expanded.lock_wait_us", "us", Lower),
    layer("expanded.reseeds", "count", Lower),
    layer("expanded.reseed_ms", "ms", Lower),
    layer("drbg.ns_per_byte", "ns/B", Lower),
    layer("drbg.generates_per_req", "count", Lower),
    layer("sha256.ns_per_block", "ns", Lower),
    layer("sha256.blocks_per_mb", "1/MB", Lower),
    layer("http.parse_us", "us", Lower),
    layer("http.head_us", "us", Lower),
    layer("http.frame_ns_per_kib", "ns/KiB", Lower),
    layer("net.connect_us", "us", Lower),
    layer("net.ttfb_us", "us", Lower),
    layer("net.body_us", "us", Lower),
    layer("server.residual_us", "us", Lower),
    layer("gen.late_ms", "ms", Lower),
    layer("trace.closure_pct", "%", Higher),
    layer("trace.overhead_pct", "%", Lower),
];

/// A run's outcome: the values behind the last line, and the problems that
/// make it read `"correct": false`.
#[derive(Debug, Default)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(&'static str, f64)>,
    pub problems: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    pub fn problem(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// Prints one line per metric and per problem, then the JSON result as
    /// the last line of standard output.
    pub fn print(mut self, workload: &str, specs: &[Spec]) {
        let mut metrics = Vec::with_capacity(specs.len());
        for spec in specs {
            let value = self
                .values
                .iter()
                .rev()
                .find(|(name, _)| *name == spec.name)
                .map(|&(_, value)| value);
            let value = match value {
                Some(value) if value.is_finite() => value,
                Some(value) => {
                    self.problem(format!("{} is not finite ({value})", spec.name));
                    0.0
                }
                None => {
                    self.problem(format!("{} was not measured", spec.name));
                    0.0
                }
            };
            println!("{workload} {:<24} {value:>16.6} {}", spec.name, spec.unit);
            metrics.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                spec.name, spec.unit
            ));
        }
        if self.attempted == 0 {
            self.problem("no request was attempted");
        }
        for problem in &self.problems {
            println!("{workload} problem: {problem}");
        }
        let correct = self.problems.is_empty() && self.failed == 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::{field, number};
    use serde::Value;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(Value::Array(entries)) = field(&json, key) else {
                panic!("BENCHMARK.json has no {key} list");
            };
            assert_eq!(entries.len(), specs.len(), "{key}");
            for (entry, spec) in entries.iter().zip(specs) {
                let text = |name: &str| match field(entry, name) {
                    Some(Value::Str(text)) => text.clone(),
                    other => panic!("{key}/{}: {name} is {other:?}", spec.name),
                };
                assert_eq!(text("name"), spec.name);
                assert_eq!(text("unit"), spec.unit, "{}", spec.name);
                assert_eq!(text("better"), spec.better.name(), "{}", spec.name);
                assert_eq!(
                    field(entry, "bound").and_then(number),
                    spec.bound,
                    "{}",
                    spec.name
                );
            }
        }
    }
}
