//! The metric registry and the run report.
//!
//! [`END_TO_END`] and [`per_layer`] name every metric the benchmark prints;
//! `BENCHMARK.json` lists the same names (a unit test keeps the two in
//! step). Every workload reports every end-to-end metric. A per-layer
//! metric of a layer the workload does not run reads 0: the layer tables
//! are one table for all three workloads, so a later change can show that a
//! layer it did not touch stayed flat.

use std::collections::BTreeMap;

use crate::RunConfig;

/// End-to-end metrics: `(name, unit)`.
///
/// `throughput_per_s` is the workload's own rate: completed requests per
/// second on `edge_closed`; on `server_open`, completed requests per second
/// with `SATURATION_DEPTH` requests kept in flight (the highest rate whose
/// p99 meets the limit is the per-layer `serve.slo_rate_rps`); training
/// samples per second on `train_mtl`. Rates and `cpu_ms_per_op` are
/// medians over the one-second slots of the measured window; the p99 is the
/// median of the p99s of 1000-operation windows.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Layer types of the benchmarked model whose spans the per-layer table
/// reports. A fused inference window is named after its first layer.
pub const LAYER_TYPES: [&str; 9] = [
    "Conv2d",
    "BatchNorm2d",
    "HardSwish",
    "DepthwiseConv2d",
    "PointwiseConv2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Linear",
    "Relu",
];

/// The three passes a layer span can belong to.
pub const LAYER_MODES: [&str; 3] = ["infer", "train_fwd", "backward"];

/// Per-layer metrics measured by timing public calls or reading counters:
/// `(name, unit)`.
const MEASURED_LAYER: [(&str, &str); 32] = [
    ("models.edge_forward_ms_p50", "ms"),
    ("models.edge_forward_ms_p99", "ms"),
    ("split.encode_us_p50", "us"),
    ("split.decode_us_p50", "us"),
    ("split.bytes_up_per_req", "B"),
    ("split.bytes_down_per_req", "B"),
    ("serve.roundtrip_ms_p50", "ms"),
    ("serve.roundtrip_ms_p99", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p95", "ms"),
    ("serve.decode_ms_p50", "ms"),
    ("serve.forward_ms_p50", "ms"),
    ("serve.forward_ms_p95", "ms"),
    ("serve.encode_ms_p50", "ms"),
    ("serve.mean_batch_size", "count"),
    ("serve.batches_per_req", "count"),
    ("serve.shed_rate", "ratio"),
    ("serve.errors", "count"),
    ("serve.evictions", "count"),
    ("serve.client_retries", "count"),
    ("serve.residual_ms_p50", "ms"),
    ("serve.slo_rate_rps", "1/s"),
    ("tensor.gemm_calls_per_op", "count"),
    ("tensor.gflop_per_op", "GFLOP"),
    ("tensor.im2col_mb_per_op", "MB"),
    ("nn.arena_misses_per_op", "count"),
    ("nn.allocs_per_op", "count"),
    ("core.train_step_ms_p50", "ms"),
    ("core.train_step_ms_p95", "ms"),
    ("bench.generator_lag_p99_ms", "ms"),
    ("bench.error_rate", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Name of the per-layer self-time metric of one layer type and pass.
pub fn layer_metric(layer: &str, mode: &str) -> String {
    format!("layer.{layer}.{mode}_self_ms")
}

/// Every per-layer metric: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = MEASURED_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for layer in LAYER_TYPES {
        for mode in LAYER_MODES {
            all.push((layer_metric(layer, mode), "ms"));
        }
    }
    all
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured windows.
    pub attempted: u64,
    /// Operations that failed, were shed or timed out.
    pub failed: u64,
    values: BTreeMap<String, f64>,
    /// Workload-specific figures printed and written to the full report
    /// only, e.g. the rung table of the rate ladder.
    notes: Vec<(String, String)>,
}

impl Report {
    /// An empty report whose per-layer metrics all read 0 until set.
    pub fn new() -> Self {
        let mut report = Self {
            correct: true,
            ..Self::default()
        };
        for (name, _) in per_layer() {
            report.values.insert(name, 0.0);
        }
        report
    }

    /// Sets a registered metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the registry: a typo here would
    /// otherwise silently leave the registered metric at 0.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END.iter().any(|&(n, _)| n == name)
            || per_layer().iter().any(|(n, _)| n == name);
        assert!(known, "metric {name} is not registered");
        self.values.insert(name.to_string(), value);
    }

    /// Records a free-form note.
    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        self.notes.push((key.to_string(), value.into()));
    }

    /// Marks the run incorrect with a reason.
    pub fn fail_check(&mut self, reason: impl Into<String>) {
        self.correct = false;
        self.note("check_failed", reason);
    }

    /// Human-readable lines: every metric that was set, then the notes.
    pub fn detail_lines(&self) -> Vec<String> {
        let units: BTreeMap<String, &str> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .chain(per_layer())
            .collect();
        let mut lines: Vec<String> = self
            .values
            .iter()
            .map(|(name, value)| format!("metric {name} = {value} {}", units[name]))
            .collect();
        lines.extend(self.notes.iter().map(|(k, v)| format!("note {k}: {v}")));
        lines
    }

    fn metrics_json(&self, names: &[(String, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = *self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }

    /// The contract's result line: end-to-end metrics for an untraced run,
    /// per-layer metrics for a traced one.
    ///
    /// # Errors
    ///
    /// A metric that was not measured or is not finite.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let names: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics_json(&names)?
        ))
    }

    /// The full report: configuration, machine, every metric set, notes.
    pub fn full_json(&self, config: &RunConfig, machine: &str) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .filter(|(_, v)| v.is_finite())
            .map(|(n, v)| format!("\"{n}\": {}", json_number(*v)))
            .collect();
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v)))
            .collect();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"machine\": {machine}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"metrics\": {{{}}}, \"notes\": {{{}}}}}\n",
            config.workload,
            config.seed,
            config.seconds,
            config.trace,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", "),
            notes.join(", ")
        )
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains(['.', 'e', 'E']) {
        text
    } else {
        format!("{text}.0")
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls every `"name": "..."` out of one JSON array section of
    /// `BENCHMARK.json` (the file uses no nested arrays in these sections).
    fn names_in(section: &str, json: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("section {section} missing"));
        let open = start + json[start..].find('[').expect("array");
        let close = open + json[open..].find(']').expect("array end");
        json[open..close]
            .split("\"name\":")
            .skip(1)
            .map(|rest| {
                let rest = rest.trim_start().trim_start_matches('"');
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_registered_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names_in("end_to_end", &json), e2e);
        let layer: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names_in("per_layer", &json), layer);
        let workloads: Vec<String> = crate::WORKLOADS.iter().map(|w| w.to_string()).collect();
        assert_eq!(names_in("workloads", &json), workloads);
    }

    #[test]
    fn result_line_refuses_unmeasured_and_non_finite_metrics() {
        let mut report = Report::new();
        assert!(report.result_line(false).is_err(), "no e2e metric set yet");
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        let line = report.result_line(false).expect("all set");
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        report.set("latency_p99_ms", f64::INFINITY);
        assert!(report.result_line(false).is_err());
        assert!(report.result_line(true).is_ok(), "per-layer default to 0");
    }
}
