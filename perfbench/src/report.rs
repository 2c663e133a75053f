//! Metric names, the metadata header and the result line.

use std::collections::BTreeMap;

use diversim_bench::json::Value;
use diversim_bench::registry;

use crate::schedule::Class;

/// Measured metrics by name.
pub type Metrics = BTreeMap<String, f64>;

/// The end-to-end metrics of every untraced run, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("warm_s", "s"),
    ("max_rate_rps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics every untraced run prints but the result line
/// leaves out: open-loop latencies on a shared 2-vCPU VM follow its
/// neighbours' load, and their run-to-run spread is wider than any
/// bound a regression check could use.
pub const PRINTED_ONLY: [(&str, &str); 2] = [("p50_ms", "ms"), ("p99_ms", "ms")];

/// The per-layer metrics of every traced run, with their units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = registry::all()
        .iter()
        .map(|spec| (format!("engine.experiment_s.{}", spec.slug), "s"))
        .collect();
    for (name, unit) in [
        ("engine.outside_cells_s", "s"),
        ("engine.render_ms", "ms"),
        ("sweep.cell_compute_s", "s"),
        ("sweep.cell_p50_ms", "ms"),
        ("sweep.cell_max_ms", "ms"),
        ("sweep.cells", "count"),
        ("sweep.store_save_us", "us"),
        ("sweep.store_load_us", "us"),
        ("sweep.store_bytes", "bytes"),
        ("sweep.computed", "count"),
        ("sweep.hits", "count"),
        ("sweep.corrupt", "count"),
        ("sweep.warm_computed", "count"),
        ("sweep.warm_hits", "count"),
        ("serve.parse_us", "us"),
        ("serve.emit_us", "us"),
        ("serve.response_bytes", "bytes"),
    ] {
        names.push((name.to_string(), unit));
    }
    for class in Class::HANDLED {
        names.push((format!("serve.handle_us.{}", class.name()), "us"));
    }
    for (name, unit) in [
        ("serve.world_build_ms", "ms"),
        ("serve.cache_hit_ratio", "ratio"),
        ("serve.cache_evictions", "count"),
        ("server.ping_p50_us", "us"),
        ("server.ping_p99_us", "us"),
        ("loadgen.late_p99_ms", "ms"),
        ("loadgen.sent", "count"),
        ("loadgen.ok", "count"),
        ("loadgen.samples", "count"),
        ("trace.overhead_ratio", "ratio"),
    ] {
        names.push((name.to_string(), unit));
    }
    names
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Measured metrics (end-to-end or per-layer).
    pub metrics: Metrics,
    /// Operations attempted: processes run, requests sent, results
    /// compared.
    pub attempted: u64,
    /// Of those, the ones that failed a correctness gate.
    pub failed: u64,
    /// Human-readable lines: gate failures, checks and predictions.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one gated operation, noting `what` if it failed.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Adds a note.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// `failed ÷ attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Renders the final result line over `declared` metrics. A declared
/// per-layer metric the workload never reached reads 0: that layer did
/// no work on this workload.
pub fn result_line(outcome: &Outcome, declared: &[(String, &str)]) -> String {
    let metrics = declared
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            (
                name.clone(),
                Value::Object(vec![
                    ("value".into(), Value::Number(value)),
                    ("unit".into(), Value::String((*unit).to_string())),
                ]),
            )
        })
        .collect();
    Value::Object(vec![
        ("correct".into(), Value::Bool(outcome.failed == 0)),
        ("attempted".into(), Value::Number(outcome.attempted as f64)),
        ("failed".into(), Value::Number(outcome.failed as f64)),
        ("metrics".into(), Value::Object(metrics)),
    ])
    .to_json()
}
