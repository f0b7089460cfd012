//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

use std::collections::BTreeMap;

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether `higher` or `lower` values are better.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("throughput_rps", "1/s", "higher"),
    m("latency_p50_ms", "ms", "lower"),
    m("latency_tail_ms", "ms", "lower"),
    m("cpu_ms_per_req", "ms", "lower"),
    m("peak_rss_mb", "MiB", "lower"),
    m("exec_time_min", "min", "lower"),
    m("devices", "count", "lower"),
    m("paths", "count", "lower"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m("svc.api.parse.calls", "count", "lower"),
    m("svc.api.parse.busy_ms", "ms", "lower"),
    m("svc.api.resolve.busy_ms", "ms", "lower"),
    m("svc.api.resolve.ops", "count", "lower"),
    m("svc.api.resolve.rejected_ms", "ms", "lower"),
    m("svc.api.rejected", "count", "lower"),
    m("core.layering.calls", "count", "lower"),
    m("core.layering.busy_ms", "ms", "lower"),
    m("core.layering.layers", "count", "lower"),
    m("core.synth.calls", "count", "lower"),
    m("core.synth.busy_ms", "ms", "lower"),
    m("core.synth.passes", "count", "lower"),
    m("core.synth.errors", "count", "lower"),
    m("core.synth.cpu_per_wall", "ratio", "higher"),
    m("core.heuristic.solves", "count", "lower"),
    m("core.heuristic.busy_ms", "ms", "lower"),
    m("core.heuristic.ops", "count", "lower"),
    m("core.sdc.solves", "count", "lower"),
    m("core.sdc.busy_ms", "ms", "lower"),
    m("core.ilp.solves", "count", "lower"),
    m("core.ilp.busy_ms", "ms", "lower"),
    m("ilp.lp_pivots", "count", "lower"),
    m("ilp.nodes", "count", "lower"),
    m("ilp.optimal_share", "ratio", "higher"),
    m("ilp.warm_start_rate", "ratio", "higher"),
    m("core.portfolio.races", "count", "lower"),
    m("core.portfolio.wins_heuristic", "count", "higher"),
    m("core.portfolio.wins_sdc", "count", "higher"),
    m("core.portfolio.wins_ilp", "count", "higher"),
    m("core.transport.calls", "count", "lower"),
    m("core.transport.busy_ms", "ms", "lower"),
    m("core.validate.calls", "count", "lower"),
    m("core.validate.busy_ms", "ms", "lower"),
    m("core.cache.key_busy_ms", "ms", "lower"),
    m("core.cache.exact_hits", "count", "higher"),
    m("core.cache.canonical_hits", "count", "higher"),
    m("core.cache.misses", "count", "lower"),
    m("core.cache.hit_share", "ratio", "higher"),
    m("core.delta.shape_busy_ms", "ms", "lower"),
    m("core.delta.lookup_busy_ms", "ms", "lower"),
    m("core.delta.hits", "count", "higher"),
    m("core.delta.hit_share", "ratio", "higher"),
    m("svc.api.respond.busy_ms", "ms", "lower"),
    m("svc.api.respond.bytes", "bytes", "lower"),
    m("svc.service.windows", "count", "lower"),
    m("svc.service.overhead_ms", "ms", "lower"),
    m("trace.overhead", "ratio", "lower"),
    m("failed_share", "ratio", "lower"),
];

/// Metric values of one run, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// A run's outcome: the checker's verdict and the metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests whose outcome failed the checker.
    pub failed: u64,
    /// Inputs failed to regenerate identically, or another check outside
    /// the requests failed.
    pub broken: Vec<String>,
    /// Metric values.
    pub values: Values,
}

impl Outcome {
    /// Share of attempted requests that failed the checker.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The last line of the benchmark's output: `correct`, `attempted`,
    /// `failed` and every metric of `defs` with its unit.
    ///
    /// # Errors
    ///
    /// A metric of `defs` that the run did not produce, or a value that
    /// is not a finite number.
    pub fn result_line(&self, defs: &[MetricDef]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for d in defs {
            let v = *self
                .values
                .get(d.name)
                .ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is {v}", d.name));
            }
            metrics.push(format!(
                r#""{}":{{"value":{v},"unit":"{}"}}"#,
                d.name, d.unit
            ));
        }
        Ok(format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.failed == 0 && self.broken.is_empty() && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        ))
    }
}
