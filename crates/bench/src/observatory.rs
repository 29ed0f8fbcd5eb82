//! The cross-run observatory: catching what single-run gates miss.
//!
//! Run reports and gate snapshots are ingested into an append-only
//! [`HistoryStore`], keyed by (scenario, metric), and every gated metric's
//! multi-run series is swept by the CUSUM change-point detector. A
//! change-point in the bad direction of a gate — slow drift the per-run
//! tolerance band absorbs run by run — surfaces as a
//! `run.regressing-trend` diagnostic and fails `repro history DIR trend`
//! with exit code 4. The detector's own regimes (silent on flat or
//! sub-slack-jittery history, firing on sustained steps either way) are
//! pinned by `obs::history`'s CUSUM tests.

use crate::snapshot::{BenchSnapshot, Direction, GATES, SERVE_GATES};
use picasso_core::graph::{Diagnostic, Severity, Span};
use picasso_core::obs::history::{
    cusum_change_point, keys, series, ChangePoint, HistoryStore, RunRecord, Shift,
};
use picasso_core::obs::json::Json;
use picasso_core::obs::report::RUN_REPORT_KIND;
use picasso_core::obs::RunReport;
use picasso_core::TextTable;
use std::collections::BTreeMap;

/// The per-run metric records one ingested document contributes: one
/// `(scenario, metrics)` pair per scenario the document covers.
pub type IngestRecords = Vec<(String, BTreeMap<String, f64>)>;

/// Extracts history records from a gate snapshot: one record per suite
/// scenario, carrying its gated headline metrics.
pub fn snapshot_records(snap: &BenchSnapshot) -> IngestRecords {
    snap.scenarios
        .iter()
        .map(|s| (s.name.clone(), s.metrics.clone()))
        .collect()
}

/// Extracts history records from a `picasso.run_report` document: the
/// experiment name becomes the scenario, and every label-free `exec_*`
/// gauge becomes a metric (prefix stripped, so `exec_secs_per_iteration`
/// lands under the same key a gate snapshot uses).
pub fn report_records(doc: &Json) -> Result<IngestRecords, String> {
    let experiment = doc
        .get("experiment")
        .and_then(Json::as_str)
        .ok_or("run report missing experiment")?
        .to_string();
    let gauges = doc
        .get("metrics")
        .and_then(|m| m.get("gauges"))
        .and_then(Json::items)
        .ok_or("run report missing metrics.gauges")?;
    let mut metrics = BTreeMap::new();
    for g in gauges {
        let Some(name) = g.get("name").and_then(Json::as_str) else {
            continue;
        };
        let labeled = g
            .get("labels")
            .is_some_and(|l| matches!(l, Json::Obj(pairs) if !pairs.is_empty()));
        if labeled {
            continue;
        }
        if let (Some(stripped), Some(value)) = (
            name.strip_prefix("exec_"),
            g.get("value").and_then(Json::as_f64),
        ) {
            metrics.insert(stripped.to_string(), value);
        }
    }
    if metrics.is_empty() {
        return Err("run report carries no label-free exec_* gauges".into());
    }
    Ok(vec![(experiment, metrics)])
}

/// Ingests one JSON document into the store, dispatching on its `kind`:
/// `picasso.bench_snapshot` contributes every suite scenario,
/// `picasso.run_report` its instrumented run. Both are validated first, so
/// a missing or unsupported `schema_version` is an `Err`. Returns the
/// sequence number the run received.
pub fn ingest_document(store: &mut HistoryStore, run_id: &str, doc: &Json) -> Result<u64, String> {
    let kind = doc.get("kind").and_then(Json::as_str).unwrap_or_default();
    let records = match kind {
        "picasso.bench_snapshot" => snapshot_records(&BenchSnapshot::from_json(doc)?),
        RUN_REPORT_KIND => {
            RunReport::validate_json(doc)?;
            report_records(doc)?
        }
        other => return Err(format!("cannot ingest documents of kind {other:?}")),
    };
    store
        .ingest(run_id, &records)
        .map_err(|e| format!("history ingest: {e}"))
}

/// Minimum series length before the trend sweep consults the detector:
/// with fewer runs a single outlier *is* the history.
pub const MIN_TREND_RUNS: usize = 3;

/// Which way a detected change-point moved relative to its gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrendVerdict {
    /// The shift moves the metric in the gate's bad direction.
    Regressing,
    /// The shift moves the metric in the gate's good direction.
    Improving,
}

/// One sustained change-point found by the cross-run sweep.
#[derive(Debug, Clone)]
pub struct TrendFinding {
    /// Scenario the series belongs to.
    pub scenario: String,
    /// Gated metric key.
    pub metric: String,
    /// Number of runs in the series.
    pub runs: usize,
    /// The detected change-point.
    pub change: ChangePoint,
    /// Regressing or improving, per the gate's direction.
    pub verdict: TrendVerdict,
}

/// Sweeps every gated (scenario, metric) series of the history for
/// sustained change-points. Ungated metrics are skipped — the observatory
/// only alarms on what the perf gate guards.
pub fn trend_report(records: &[RunRecord]) -> Vec<TrendFinding> {
    let mut out = Vec::new();
    for (scenario, metric) in keys(records) {
        let Some(gate) = GATES
            .iter()
            .chain(&SERVE_GATES)
            .find(|g| g.metric == metric)
        else {
            continue;
        };
        let s = series(records, &scenario, &metric);
        if s.len() < MIN_TREND_RUNS {
            continue;
        }
        let values: Vec<f64> = s.iter().map(|&(_, v)| v).collect();
        let Some(change) = cusum_change_point(&values) else {
            continue;
        };
        let bad = match gate.direction {
            Direction::HigherIsBetter => change.direction == Shift::Down,
            Direction::LowerIsBetter => change.direction == Shift::Up,
        };
        out.push(TrendFinding {
            scenario,
            metric,
            runs: s.len(),
            change,
            verdict: if bad {
                TrendVerdict::Regressing
            } else {
                TrendVerdict::Improving
            },
        });
    }
    out
}

/// True when any finding regresses (the `trend` action's failure
/// condition).
pub fn has_regression(findings: &[TrendFinding]) -> bool {
    findings
        .iter()
        .any(|f| f.verdict == TrendVerdict::Regressing)
}

/// Human-readable trend summary (printed by `repro history DIR trend`).
pub fn trend_table(findings: &[TrendFinding]) -> TextTable {
    let mut t = TextTable::new(
        "Cross-run observatory: sustained change-points".to_string(),
        &[
            "scenario", "metric", "runs", "at", "shift", "delta", "verdict",
        ],
    );
    for f in findings {
        t.row(vec![
            f.scenario.clone(),
            f.metric.clone(),
            f.runs.to_string(),
            f.change.at.to_string(),
            f.change.direction.to_string(),
            format!("{:+.1}%", f.change.rel_change * 100.0),
            format!("{:?}", f.verdict),
        ]);
    }
    t
}

/// Lowers regressing findings into `run.regressing-trend` diagnostics.
pub fn trend_diagnostics(findings: &[TrendFinding]) -> Vec<Diagnostic> {
    findings
        .iter()
        .filter(|f| f.verdict == TrendVerdict::Regressing)
        .map(|f| {
            Diagnostic::new(
                "run.regressing-trend",
                Severity::Warn,
                Span::Run(format!("{}/{}", f.scenario, f.metric)),
                format!(
                    "{}: {} shifted {} by {:+.1}% at run {} of {} — a sustained \
                     change-point in the regressing direction",
                    f.scenario,
                    f.metric,
                    f.change.direction,
                    f.change.rel_change * 100.0,
                    f.change.at,
                    f.runs
                ),
            )
            .with_hint(
                "bisect the runs around the change-point; per-run perf gates \
                 absorb drift this slow",
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::ScenarioResult;
    use std::fs;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("picasso-observatory-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn synthetic_snapshot(secs: f64) -> BenchSnapshot {
        let mut metrics = BTreeMap::new();
        metrics.insert("secs_per_iteration".to_string(), secs);
        metrics.insert("ips_per_node".to_string(), 1000.0 / secs);
        BenchSnapshot {
            version: 0,
            generated_unix_ms: 0,
            scenarios: vec![ScenarioResult {
                name: "wdl_base".into(),
                metrics,
                report: Json::Null,
                pass_wall_ns: BTreeMap::new(),
            }],
        }
    }

    #[test]
    fn synthetic_step_regression_is_flagged_within_three_runs() {
        // The acceptance invariant: a 20% secs_per_iteration step lands as
        // a Regressing finding within three ingested runs of the step, and
        // a clean series of the same length never fires.
        let dir = tmp_dir("step");
        let mut store = HistoryStore::open(&dir).unwrap();
        for i in 0..4 {
            let doc = synthetic_snapshot(0.5).to_json();
            ingest_document(&mut store, &format!("clean-{i}"), &doc).unwrap();
        }
        let clean = trend_report(&store.load().unwrap());
        assert!(
            !has_regression(&clean),
            "zero false positives on flat history: {clean:?}"
        );

        for i in 0..3 {
            let doc = synthetic_snapshot(0.6).to_json();
            ingest_document(&mut store, &format!("shifted-{i}"), &doc).unwrap();
        }
        let findings = trend_report(&store.load().unwrap());
        let f = findings
            .iter()
            .find(|f| f.metric == "secs_per_iteration")
            .expect("the step must be flagged");
        assert_eq!(f.verdict, TrendVerdict::Regressing);
        assert_eq!(f.change.at, 4, "regime starts at the first shifted run");
        assert!((f.change.rel_change - 0.2).abs() < 1e-9);
        // The throughput drop is flagged too (HigherIsBetter, Shift::Down).
        assert!(findings
            .iter()
            .any(|f| f.metric == "ips_per_node" && f.verdict == TrendVerdict::Regressing));

        let diags = trend_diagnostics(&findings);
        assert!(!diags.is_empty());
        assert!(diags.iter().all(|d| d.rule == "run.regressing-trend"));
        let table = trend_table(&findings).to_string();
        assert!(table.contains("secs_per_iteration"));
        assert!(table.contains("Regressing"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn improvements_report_but_never_fail() {
        let dir = tmp_dir("improve");
        let mut store = HistoryStore::open(&dir).unwrap();
        for (i, secs) in [0.6, 0.6, 0.6, 0.4, 0.4, 0.4].iter().enumerate() {
            let doc = synthetic_snapshot(*secs).to_json();
            ingest_document(&mut store, &format!("run-{i}"), &doc).unwrap();
        }
        let findings = trend_report(&store.load().unwrap());
        assert!(!findings.is_empty(), "the improvement is still reported");
        assert!(findings
            .iter()
            .all(|f| f.verdict == TrendVerdict::Improving));
        assert!(!has_regression(&findings));
        assert!(trend_diagnostics(&findings).is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_series_and_unknown_kinds_are_rejected_or_skipped() {
        let dir = tmp_dir("short");
        let mut store = HistoryStore::open(&dir).unwrap();
        // Two runs with a huge step: below MIN_TREND_RUNS, so no finding.
        for (i, secs) in [0.5, 5.0].iter().enumerate() {
            let doc = synthetic_snapshot(*secs).to_json();
            ingest_document(&mut store, &format!("run-{i}"), &doc).unwrap();
        }
        assert!(trend_report(&store.load().unwrap()).is_empty());
        // Unknown document kinds never ingest.
        let err = ingest_document(
            &mut store,
            "bad",
            &Json::obj([("kind", Json::str("picasso.mystery"))]),
        )
        .expect_err("unknown kind");
        assert!(err.contains("picasso.mystery"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_reports_ingest_under_snapshot_metric_keys() {
        let doc = Json::obj([
            ("kind", Json::str("picasso.run_report")),
            ("experiment", Json::str("fig13")),
            (
                "metrics",
                Json::obj([(
                    "gauges",
                    Json::Arr(vec![
                        Json::obj([
                            ("name", Json::str("exec_secs_per_iteration")),
                            ("labels", Json::obj([])),
                            ("value", Json::Num(0.5)),
                        ]),
                        Json::obj([
                            ("name", Json::str("exec_ips_per_node")),
                            ("labels", Json::obj([("model", Json::str("dlrm"))])),
                            ("value", Json::Num(9.0)),
                        ]),
                        Json::obj([
                            ("name", Json::str("flight_occupancy")),
                            ("labels", Json::obj([])),
                            ("value", Json::Num(3.0)),
                        ]),
                    ]),
                )]),
            ),
        ]);
        let records = report_records(&doc).unwrap();
        assert_eq!(records.len(), 1);
        let (scenario, metrics) = &records[0];
        assert_eq!(scenario, "fig13");
        assert_eq!(metrics.get("secs_per_iteration"), Some(&0.5));
        assert!(
            !metrics.contains_key("ips_per_node"),
            "labeled gauges stay out"
        );
        assert!(
            !metrics.contains_key("occupancy"),
            "non-exec gauges stay out"
        );
    }

    #[test]
    fn ingestion_rejects_unsupported_schema_versions() {
        let dir = tmp_dir("schema");
        let mut store = HistoryStore::open(&dir).unwrap();
        let run_report = |version: u64| {
            let mut doc = RunReport::new("fig13", "quick");
            doc.push(Json::obj([("framework", Json::str("PICASSO"))]));
            doc.metrics = Some(Json::obj([(
                "gauges",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("exec_secs_per_iteration")),
                    ("labels", Json::obj([])),
                    ("value", Json::Num(0.5)),
                ])]),
            )]));
            let text = doc.to_json().replacen(
                "\"schema_version\":1",
                &format!("\"schema_version\":{version}"),
                1,
            );
            picasso_core::obs::json::parse(&text).unwrap()
        };
        ingest_document(&mut store, "v1", &run_report(1)).expect("schema 1 ingests");
        let err = ingest_document(&mut store, "v2", &run_report(2)).expect_err("schema 2");
        assert!(err.contains("schema_version"), "{err}");

        let Json::Obj(mut snapshot) = synthetic_snapshot(0.5).to_json() else {
            unreachable!("a snapshot serializes to an object")
        };
        for (k, v) in &mut snapshot {
            if k == "schema_version" {
                *v = Json::UInt(2);
            }
        }
        let err = ingest_document(&mut store, "s2", &Json::Obj(snapshot)).expect_err("schema 2");
        assert!(err.contains("schema_version"), "{err}");
        assert_eq!(store.runs(), 1, "rejected documents leave no run behind");
        let _ = fs::remove_dir_all(&dir);
    }
}
