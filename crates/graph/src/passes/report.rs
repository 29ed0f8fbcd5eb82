//! Pass instrumentation: per-pass operation accounting and spans.
//!
//! [`run_pass`] wraps a graph transformation, measuring it against the
//! tracer's clock (wall time in the trainer, manual in tests) and counting
//! operations before and after with [`graph_stats`]. The resulting
//! [`PassReport`] carries the Table V story — how many operations a pass
//! removed (packing) or added (interleaving supplements) — and can be
//! exported into a metrics registry.

use crate::spec::WdlSpec;
use crate::stats::graph_stats;
use picasso_obs::{Clock, MetricKind, MetricsRegistry, Tracer};

/// What one optimization pass did to the graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    /// Pass name, e.g. `d_packing`.
    pub pass: String,
    /// Total graph operations before the pass.
    pub ops_before: u64,
    /// Total graph operations after the pass.
    pub ops_after: u64,
    /// Embedding chains before the pass.
    pub chains_before: usize,
    /// Embedding chains after the pass.
    pub chains_after: usize,
    /// Pass duration against the tracer's clock, nanoseconds.
    pub duration_ns: u64,
}

impl PassReport {
    /// Operations kept per operation before the pass: `< 1` means the pass
    /// packed the graph, `> 1` means it supplemented operations
    /// (interleaving). `1.0` for an empty graph.
    pub fn packing_ratio(&self) -> f64 {
        if self.ops_before == 0 {
            1.0
        } else {
            self.ops_after as f64 / self.ops_before as f64
        }
    }

    /// Exports the report into `registry`, labeled by pass name.
    pub fn export(&self, registry: &MetricsRegistry) {
        registry.describe(
            "graph_passes_total",
            MetricKind::Counter,
            "Optimization passes applied",
        );
        registry.describe(
            "graph_pass_ops",
            MetricKind::Gauge,
            "Total graph operations around a pass (when = before / after)",
        );
        registry.describe(
            "graph_pass_packing_ratio",
            MetricKind::Gauge,
            "Operations kept per operation before the pass",
        );
        registry.describe(
            "graph_pass_duration_seconds",
            MetricKind::Gauge,
            "Pass wall-clock duration",
        );
        let labels = [("pass", self.pass.as_str())];
        registry.counter_add("graph_passes_total", &labels, 1);
        registry.gauge_set(
            "graph_pass_ops",
            &[("pass", self.pass.as_str()), ("when", "before")],
            self.ops_before as f64,
        );
        registry.gauge_set(
            "graph_pass_ops",
            &[("pass", self.pass.as_str()), ("when", "after")],
            self.ops_after as f64,
        );
        registry.gauge_set("graph_pass_packing_ratio", &labels, self.packing_ratio());
        registry.gauge_set(
            "graph_pass_duration_seconds",
            &labels,
            self.duration_ns as f64 / 1e9,
        );
    }
}

/// Runs pass `f` on `spec` in place, recording a span named after the pass
/// on the `passes` track of `tracer` (annotated with the op counts) and
/// returning the [`PassReport`]. Only `f` itself is timed — the
/// before/after op accounting stays outside the measured window, so
/// `duration_ns` is the cost of the rewrite alone.
pub fn run_pass<C: Clock>(
    name: &str,
    spec: &mut WdlSpec,
    tracer: &Tracer<C>,
    f: impl FnOnce(&mut WdlSpec),
) -> PassReport {
    let before = graph_stats(spec);
    let chains_before = spec.chains.len();
    let start_ns = tracer.clock().now_ns();
    f(spec);
    let end_ns = tracer.clock().now_ns();
    let after = graph_stats(spec);
    let report = PassReport {
        pass: name.to_string(),
        ops_before: before.total_ops,
        ops_after: after.total_ops,
        chains_before,
        chains_after: spec.chains.len(),
        duration_ns: end_ns.saturating_sub(start_ns),
    };
    tracer.record_span(
        "passes",
        name,
        start_ns,
        end_ns,
        &[
            ("ops_before", &before.total_ops.to_string()),
            ("ops_after", &after.total_ops.to_string()),
        ],
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{d_packing, k_packing};
    use crate::spec::{EmbeddingChain, MlpSpec};
    use picasso_obs::ManualClock;
    use std::collections::BTreeMap;

    fn spec(tables: usize) -> WdlSpec {
        WdlSpec {
            name: "t".into(),
            io_bytes_per_instance: 1.0,
            chains: (0..tables)
                .map(|t| EmbeddingChain::for_table(t, 8, vec![t as u32], 1.0))
                .collect(),
            modules: vec![],
            mlp: MlpSpec::new(8, vec![64, 1]),
            micro_batches: 1,
            group_deps: Vec::new(),
        }
    }

    #[test]
    fn packing_pass_reports_the_reduction() {
        let mut base = spec(40);
        let tracer = Tracer::new(ManualClock::new());
        tracer.clock().set_ns(100);
        let assign: BTreeMap<usize, usize> = (0..40).map(|t| (t, t / 10)).collect();
        let dp = run_pass("d_packing", &mut base, &tracer, |s| {
            tracer.clock().advance_ns(50);
            *s = d_packing::apply(s, &assign);
        });
        let kp = run_pass("k_packing", &mut base, &tracer, |s| {
            *s = k_packing::apply(s);
        });
        assert_eq!(dp.chains_before, 40);
        assert_eq!(dp.chains_after, 4);
        assert!(dp.packing_ratio() < 0.5, "ratio {}", dp.packing_ratio());
        assert!(kp.packing_ratio() <= 1.0);
        assert_eq!(dp.duration_ns, 50);
        // Spans landed on the passes track with op-count annotations.
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].track, "passes");
        assert_eq!(spans[0].name, "d_packing");
        assert_eq!(spans[0].start_ns, 100);
        assert!(spans[0]
            .args
            .iter()
            .any(|(k, v)| k == "ops_before" && v == &dp.ops_before.to_string()));
    }

    #[test]
    fn export_produces_labeled_series() {
        let mut base = spec(10);
        let tracer = Tracer::new(ManualClock::new());
        let report = run_pass("k_packing", &mut base, &tracer, |s| {
            *s = k_packing::apply(s);
        });
        let registry = MetricsRegistry::new();
        report.export(&registry);
        assert_eq!(
            registry.counter_value("graph_passes_total", &[("pass", "k_packing")]),
            1
        );
        assert_eq!(
            registry.gauge_value(
                "graph_pass_ops",
                &[("pass", "k_packing"), ("when", "before")]
            ),
            Some(report.ops_before as f64)
        );
        assert_eq!(
            registry.gauge_value("graph_pass_packing_ratio", &[("pass", "k_packing")]),
            Some(report.packing_ratio())
        );
    }

    #[test]
    fn empty_graph_has_unit_ratio() {
        let r = PassReport {
            pass: "noop".into(),
            ops_before: 0,
            ops_after: 0,
            chains_before: 0,
            chains_after: 0,
            duration_ns: 0,
        };
        assert_eq!(r.packing_ratio(), 1.0);
    }
}
