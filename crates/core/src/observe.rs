//! Run-level observability: one-call exporters for a finished training run.
//!
//! Ties the layers of the observability stack together: simulator and
//! scheduler metrics ([`picasso_exec::observe`]), per-pass accounting
//! ([`picasso_graph::PassReport`]), the Chrome trace with counter lanes,
//! the Prometheus text rendering, and the versioned JSON run report that
//! `repro <experiment> --json` writes.

use crate::report::TextTable;
use picasso_exec::RunArtifacts;
use picasso_obs::{prometheus, ChromeTrace, MetricsRegistry, RunReport};

/// Exports everything `artifacts` recorded into `registry`: simulator task
/// and timeline metrics, scheduler throughput gauges, per-pass graph
/// accounting, and the flight recorder's occupancy/drop gauges (a post-hoc
/// tap of the executed schedule, so the run itself stays unobserved).
pub fn export_metrics(artifacts: &RunArtifacts, registry: &MetricsRegistry) {
    picasso_exec::observe::export_metrics(&artifacts.output, registry);
    for pass in &artifacts.pass_reports {
        pass.export(registry);
    }
    for (table, cache) in &artifacts.warmup.caches {
        cache.export(&format!("table{table}"), registry);
    }
    picasso_exec::flight_record(&artifacts.output, &picasso_obs::FlightConfig::default())
        .export_metrics(registry);
}

/// Builds the full Chrome trace of a run — schedule spans, hardware lanes
/// with dependency flow arrows, per-iteration frame markers, and one
/// counter lane per exported time series. Load the JSON in
/// <https://ui.perfetto.dev>.
pub fn chrome_trace(artifacts: &RunArtifacts) -> ChromeTrace {
    let registry = MetricsRegistry::new();
    export_metrics(artifacts, &registry);
    let mut trace = picasso_exec::observe::chrome_trace(&artifacts.output);
    trace.add_counter_series(&registry.snapshot());
    trace
}

/// Renders the run's metrics in the Prometheus text exposition format.
pub fn prometheus_text(artifacts: &RunArtifacts) -> String {
    let registry = MetricsRegistry::new();
    export_metrics(artifacts, &registry);
    prometheus::render(&registry.snapshot())
}

/// Builds the versioned JSON run report for an experiment: every rendered
/// table as a payload document, plus (when a run is supplied) the full
/// telemetry report, any static-analysis findings the run survived with
/// (warnings — errors abort before a report exists), and the metrics dump.
pub fn run_report(
    experiment: &str,
    scale: &str,
    tables: &[TextTable],
    artifacts: Option<&RunArtifacts>,
) -> RunReport {
    let mut report = RunReport::new(experiment, scale);
    for table in tables {
        report.push(table.to_json());
    }
    if let Some(artifacts) = artifacts {
        report.push(artifacts.report.to_json());
        if !artifacts.lint.is_empty() {
            report.push(picasso_exec::LintReport::new(artifacts.lint.clone()).to_json());
        }
        let registry = MetricsRegistry::new();
        export_metrics(artifacts, &registry);
        report.set_metrics(&registry.snapshot());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PicassoConfig;
    use crate::session::Session;
    use picasso_exec::{ModelKind, WarmupConfig};
    use picasso_obs::Json;

    fn artifacts() -> RunArtifacts {
        let config = PicassoConfig {
            iterations: 3,
            warmup: WarmupConfig {
                batches: 4,
                batch_size: 256,
                max_vocab: 1000,
                hot_bytes: 1 << 24,
                seed: 1,
            },
            batch_per_executor: Some(1024),
            ..PicassoConfig::default()
        };
        Session::new(ModelKind::Dlrm, config).run_picasso()
    }

    #[test]
    fn trace_has_spans_counters_flows_and_frames() {
        let a = artifacts();
        let trace = chrome_trace(&a);
        let doc = picasso_obs::json::parse(&trace.to_json()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::items).unwrap();
        let count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .count()
        };
        assert!(count("X") > 0);
        assert!(count("C") > 0);
        assert!(count("s") > 0 && count("s") == count("f"));
        assert_eq!(
            events
                .iter()
                .filter(|e| e.get("s").and_then(Json::as_str) == Some("g"))
                .count(),
            3,
            "one frame marker per iteration"
        );
    }

    #[test]
    fn prometheus_output_round_trips() {
        let a = artifacts();
        let text = prometheus_text(&a);
        let doc = picasso_obs::prometheus::parse(&text).expect("valid exposition format");
        assert!(doc
            .find("sim_tasks_total", &[("category", "computation")])
            .is_some());
        assert!(doc.find("exec_ips_per_node", &[]).is_some());
        assert!(doc
            .find("graph_pass_packing_ratio", &[("pass", "d_packing")])
            .is_some());
        assert!(doc
            .find("embedding_lookups_total", &[("outcome", "hot")])
            .is_some());
        assert!(doc.find("flight_occupancy", &[]).is_some());
        assert!(doc
            .find("flight_events_seen_total", &[("category", "task")])
            .is_some());
    }

    #[test]
    fn run_report_validates_against_the_pinned_schema() {
        let a = artifacts();
        let mut table = TextTable::new("Fig. 11", &["framework", "sm%"]);
        table.row(vec!["PICASSO".into(), "88.0".into()]);
        let report = run_report("fig11", "quick", &[table], Some(&a));
        let text = report.to_json();
        let doc = RunReport::validate(&text).expect("document validates");
        let reports = doc.get("reports").and_then(Json::items).unwrap();
        // Table + telemetry, plus a lint payload when the run carried
        // warnings (errors never get this far).
        assert!(
            reports.len() == 2 + usize::from(!a.lint.is_empty()),
            "unexpected payload count {}",
            reports.len()
        );
        assert_eq!(
            reports[0].get("kind").and_then(Json::as_str),
            Some("picasso.table")
        );
        assert_eq!(reports[1].get("model").and_then(Json::as_str), Some("DLRM"));
        if let Some(lint) = reports.get(2) {
            assert_eq!(
                lint.get("kind").and_then(Json::as_str),
                Some("picasso.lint_report")
            );
        }
        assert!(doc.get("metrics").is_some());
    }

    #[test]
    fn run_report_carries_lint_warnings() {
        // A run that survives with warnings ships them in the report.
        let config = PicassoConfig {
            iterations: 3,
            warmup: WarmupConfig {
                batches: 4,
                batch_size: 256,
                max_vocab: 1000,
                hot_bytes: 1 << 24,
                seed: 1,
            },
            batch_per_executor: Some(1024),
            // Table 9999 backs no chain -> a guaranteed
            // `plan.excluded-unknown` warning that survives the run.
            excluded_tables: vec![9999],
            ..PicassoConfig::default()
        };
        let a = Session::new(ModelKind::Dlrm, config).run_picasso();
        assert!(!a.lint.is_empty(), "expected at least one finding");
        let report = run_report("lint", "quick", &[], Some(&a));
        let doc = RunReport::validate(&report.to_json()).unwrap();
        let reports = doc.get("reports").and_then(Json::items).unwrap();
        let lint = reports
            .iter()
            .find(|r| r.get("kind").and_then(Json::as_str) == Some("picasso.lint_report"))
            .expect("lint payload present");
        assert!(
            lint.get("diagnostics")
                .and_then(Json::items)
                .is_some_and(|d| !d.is_empty()),
            "diagnostics array populated"
        );
    }

    #[test]
    fn observability_does_not_perturb_the_run() {
        // Observation-only guarantee: a run exported three ways is
        // bit-identical to a run never observed at all.
        let plain = artifacts();
        let observed = artifacts();
        let _ = chrome_trace(&observed);
        let _ = prometheus_text(&observed);
        let _ = run_report("determinism", "quick", &[], Some(&observed));
        assert_eq!(
            plain.output.result.makespan,
            observed.output.result.makespan
        );
        assert_eq!(
            plain.output.result.records.len(),
            observed.output.result.records.len()
        );
        for (a, b) in plain
            .output
            .result
            .records
            .iter()
            .zip(&observed.output.result.records)
        {
            assert_eq!(a.start, b.start);
            assert_eq!(a.end, b.end);
            assert_eq!(a.resource, b.resource);
        }
        assert_eq!(plain.report.ips_per_node, observed.report.ips_per_node);
        assert_eq!(
            plain.report.cache_hit_ratio,
            observed.report.cache_hit_ratio
        );
    }
}
