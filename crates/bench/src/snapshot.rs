//! Benchmark snapshots and the performance-regression gate.
//!
//! A snapshot runs a fixed suite of deterministic simulator scenarios —
//! baseline, +packing, +interleaving, +caching, over a small and a large
//! model — one thread per scenario, and records the headline metrics plus
//! the full run report of each. The serving suite's `srv_*` rows (latency
//! quantiles, service capacity, cache hit rate from the forward-only
//! replica) ride behind the training rows and are gated by their own
//! [`SERVE_GATES`] metric family. Snapshots serialize to versioned
//! `BENCH_<n>.json` files; `repro gate check` compares a fresh run against
//! the newest committed snapshot and fails when any gated metric moves past
//! its threshold in the bad direction. Everything under the
//! `volatile` key (the capture timestamp and optimization-pass wall times)
//! is excluded from the determinism guarantee; the rest of the document is
//! byte-reproducible. The pass wall times are gated per scenario on the
//! worst pass under the deliberately loose [`PASS_WALL_GATE`] so a
//! planning-cost blowup fails CI without wall-clock noise doing the same.
//! All other host time is measured by the repository's `hostbench/`
//! benchmark, which takes repeated serial samples split by layer.

use crate::scenarios::{
    self, perf_scenarios, recovery_scenarios, serve_scenarios, suite_config, Scenario,
};
use picasso_core::exec::lint_recovery;
use picasso_core::obs::json::{self, Json};
use picasso_core::obs::report::check_schema_version;
use picasso_core::serve::ServeReport;
use picasso_core::{si, LintReport, Session, TextTable, TrainError};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Schema version of the `BENCH_<n>.json` document.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// Runs the static analyzer over every suite scenario without simulating.
///
/// Perf scenarios are analyzed over the spec, plan, and lowered-stage-graph
/// surfaces; recovery scenarios over the run surface (fault plan +
/// checkpoint policy). Each diagnostic message is prefixed with its
/// scenario name so one aggregated report stays attributable. Planning
/// failures (an invalid pass list) surface as `Err` rather than
/// diagnostics.
pub fn lint_suite() -> Result<LintReport, String> {
    let mut all = Vec::new();
    for sc in perf_scenarios() {
        let config = suite_config().optimizations(sc.pipeline.clone());
        let diags = Session::new(sc.model, config)
            .try_lint()
            .map_err(|e| format!("{}: {e}", sc.name))?;
        for mut d in diags {
            d.message = format!("[{}] {}", sc.name, d.message);
            all.push(d);
        }
    }
    for sc in recovery_scenarios() {
        for mut d in lint_recovery(&sc.opts) {
            d.message = format!("[{}] {}", sc.name, d.message);
            all.push(d);
        }
    }
    Ok(LintReport::new(all))
}

/// Results of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// Gated headline metrics (deterministic).
    pub metrics: BTreeMap<String, f64>,
    /// The full run report (deterministic).
    pub report: Json,
    /// Wall-clock time of each optimization pass, nanoseconds (volatile).
    pub pass_wall_ns: BTreeMap<String, u64>,
}

/// Converts one serving report into its snapshot row. Serving metrics are
/// `srv_`-prefixed so the training gates ([`GATES`]) and the serving gates
/// ([`SERVE_GATES`]) skip each other's rows by key absence; the pass
/// wall-time records stay empty (the replica plans no passes).
pub fn serve_result(report: &ServeReport) -> ScenarioResult {
    let mut metrics = BTreeMap::new();
    metrics.insert("srv_p50_ns".into(), report.p50_ns as f64);
    metrics.insert("srv_p95_ns".into(), report.p95_ns as f64);
    metrics.insert("srv_p99_ns".into(), report.p99_ns as f64);
    metrics.insert("srv_capacity_rps".into(), report.capacity_rps());
    metrics.insert("srv_cache_hit_ratio".into(), report.cache_hit_ratio());
    metrics.insert("srv_mean_batch".into(), report.mean_batch());
    metrics.insert("srv_shed".into(), report.shed as f64);
    metrics.insert("srv_slo_violations".into(), report.slo_violations as f64);
    metrics.insert("srv_max_queue_depth".into(), report.max_queue_depth as f64);
    ScenarioResult {
        name: report.scenario.clone(),
        metrics,
        report: report.to_json(),
        pass_wall_ns: BTreeMap::new(),
    }
}

/// Runs one perf scenario and extracts its snapshot record.
pub fn run_scenario(sc: &Scenario) -> Result<ScenarioResult, TrainError> {
    let artifacts = scenarios::run(sc, 0)?;
    let mut metrics = BTreeMap::new();
    metrics.insert("ips_per_node".into(), artifacts.report.ips_per_node);
    metrics.insert(
        "secs_per_iteration".into(),
        artifacts.report.secs_per_iteration,
    );
    metrics.insert(
        "makespan_secs".into(),
        artifacts.output.result.makespan.as_secs_f64(),
    );
    metrics.insert("cache_hit_ratio".into(), artifacts.report.cache_hit_ratio);
    metrics.insert("sm_util_pct".into(), artifacts.report.sm_util_pct);
    let mut pass_wall_ns = BTreeMap::new();
    for p in &artifacts.pass_reports {
        pass_wall_ns.insert(p.pass.clone(), p.duration_ns);
    }
    Ok(ScenarioResult {
        name: sc.name.clone(),
        metrics,
        report: artifacts.report.to_json(),
        pass_wall_ns,
    })
}

/// A versioned benchmark snapshot.
#[derive(Debug, Clone)]
pub struct BenchSnapshot {
    /// Snapshot version (`BENCH_<version>.json`).
    pub version: u64,
    /// Wall-clock capture time, milliseconds since the Unix epoch (volatile).
    pub generated_unix_ms: u64,
    /// One result per suite scenario, in suite order.
    pub scenarios: Vec<ScenarioResult>,
}

impl BenchSnapshot {
    /// Runs the whole suite, one thread per scenario. `generated_unix_ms`
    /// is stamped by the caller (it lives in the volatile section either
    /// way).
    ///
    /// Scenarios are independent by construction — each thread builds its
    /// own `Session` and simulator — so they fan out across cores and land
    /// in their preassigned slots, keeping the result order (and therefore
    /// the serialized document) identical to a serial run. The first
    /// scenario that fails to run, in suite order, is the `Err`, prefixed
    /// with its name.
    pub fn capture(version: u64, generated_unix_ms: u64) -> Result<BenchSnapshot, String> {
        let suite = perf_scenarios();
        let mut slots: Vec<Option<Result<ScenarioResult, TrainError>>> =
            Vec::with_capacity(suite.len());
        slots.resize_with(suite.len(), || None);
        std::thread::scope(|scope| {
            for (slot, sc) in slots.iter_mut().zip(&suite) {
                scope.spawn(move || *slot = Some(run_scenario(sc)));
            }
        });
        let mut scenarios = Vec::with_capacity(suite.len());
        for (slot, sc) in slots.into_iter().zip(&suite) {
            let result =
                slot.ok_or_else(|| format!("{}: the scenario thread left no result", sc.name))?;
            scenarios.push(result.map_err(|e| format!("{}: {e}", sc.name))?);
        }
        // The serving suite rides behind the perf rows: the replica runs in
        // virtual time (milliseconds of wall clock per scenario), so a
        // serial pass keeps the document order fixed at no real cost.
        for sc in serve_scenarios() {
            let report =
                crate::serve::run_scenario(&sc).map_err(|e| format!("{}: {e}", sc.name))?;
            scenarios.push(serve_result(&report));
        }
        Ok(BenchSnapshot {
            version,
            generated_unix_ms,
            scenarios,
        })
    }

    /// Full JSON document, including the volatile section.
    pub fn to_json(&self) -> Json {
        let volatile = Json::obj([
            ("generated_unix_ms", self.generated_unix_ms.into()),
            (
                "pass_wall_ns",
                Json::Obj(
                    self.scenarios
                        .iter()
                        .map(|s| {
                            (
                                s.name.clone(),
                                Json::Obj(
                                    s.pass_wall_ns
                                        .iter()
                                        .map(|(k, &v)| (k.clone(), Json::UInt(v)))
                                        .collect(),
                                ),
                            )
                        })
                        .collect(),
                ),
            ),
        ]);
        self.json_with_volatile(volatile)
    }

    /// JSON with the volatile section nulled: two captures of the same code
    /// serialize to byte-identical canonical documents.
    pub fn canonical_json(&self) -> Json {
        self.json_with_volatile(Json::Null)
    }

    fn json_with_volatile(&self, volatile: Json) -> Json {
        Json::obj([
            ("schema_version", BENCH_SCHEMA_VERSION.into()),
            ("kind", Json::str("picasso.bench_snapshot")),
            ("version", self.version.into()),
            ("volatile", volatile),
            (
                "scenarios",
                Json::Arr(
                    self.scenarios
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("name", Json::str(&s.name)),
                                (
                                    "metrics",
                                    Json::Obj(
                                        s.metrics
                                            .iter()
                                            .map(|(k, &v)| (k.clone(), Json::Num(v)))
                                            .collect(),
                                    ),
                                ),
                                ("report", s.report.clone()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a snapshot document (the inverse of [`BenchSnapshot::to_json`];
    /// the volatile section is optional so canonical documents parse too,
    /// and volatile keys other than `generated_unix_ms` and `pass_wall_ns`,
    /// which older snapshots carry, are ignored). A missing or unsupported
    /// `schema_version` is rejected.
    pub fn from_json(doc: &Json) -> Result<BenchSnapshot, String> {
        let kind = doc.get("kind").and_then(Json::as_str).unwrap_or_default();
        if kind != "picasso.bench_snapshot" {
            return Err(format!("not a bench snapshot (kind {kind:?})"));
        }
        check_schema_version(doc, BENCH_SCHEMA_VERSION)?;
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or("missing version")?;
        let generated_unix_ms = doc
            .get("volatile")
            .and_then(|v| v.get("generated_unix_ms"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        let pass_walls = doc.get("volatile").and_then(|v| v.get("pass_wall_ns"));
        let mut out = Vec::new();
        for sc in doc
            .get("scenarios")
            .and_then(Json::items)
            .ok_or("missing scenarios")?
        {
            let name = sc
                .get("name")
                .and_then(Json::as_str)
                .ok_or("scenario missing name")?
                .to_string();
            let Some(Json::Obj(metric_pairs)) = sc.get("metrics") else {
                return Err(format!("scenario {name} missing metrics"));
            };
            let mut metrics = BTreeMap::new();
            for (k, v) in metric_pairs {
                metrics.insert(
                    k.clone(),
                    v.as_f64().ok_or_else(|| format!("bad metric {k}"))?,
                );
            }
            let mut pass_wall_ns = BTreeMap::new();
            if let Some(Json::Obj(walls)) = pass_walls.and_then(|w| w.get(&name)) {
                for (k, v) in walls {
                    pass_wall_ns.insert(k.clone(), v.as_u64().unwrap_or(0));
                }
            }
            out.push(ScenarioResult {
                name,
                metrics,
                report: sc.get("report").cloned().unwrap_or(Json::Null),
                pass_wall_ns,
            });
        }
        Ok(BenchSnapshot {
            version,
            generated_unix_ms,
            scenarios: out,
        })
    }

    /// Reads `BENCH_<n>.json` from disk.
    pub fn load(path: &Path) -> Result<BenchSnapshot, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        BenchSnapshot::from_json(&doc)
    }

    /// Writes the snapshot to `dir/BENCH_<version>.json`.
    pub fn save(&self, dir: &Path) -> Result<PathBuf, String> {
        let path = dir.join(format!("BENCH_{}.json", self.version));
        fs::write(&path, self.to_json().to_json() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}

/// Lists `(version, path)` of every `BENCH_<n>.json` in `dir`, sorted by
/// version.
pub fn snapshot_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(version) = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|num| num.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((version, entry.path()));
    }
    out.sort();
    out
}

/// The newest committed snapshot in `dir`, if any.
pub fn latest_snapshot(dir: &Path) -> Option<(u64, PathBuf)> {
    snapshot_files(dir).into_iter().next_back()
}

/// The version a fresh snapshot in `dir` should get.
pub fn next_version(dir: &Path) -> u64 {
    latest_snapshot(dir).map(|(v, _)| v + 1).unwrap_or(0)
}

/// Which way a gated metric is allowed to move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Bigger is better (throughput, hit ratios, utilization).
    HigherIsBetter,
    /// Smaller is better (latencies, makespans).
    LowerIsBetter,
}

/// A gated metric with its per-metric relative threshold.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Metric key inside [`ScenarioResult::metrics`].
    pub metric: &'static str,
    /// Good direction.
    pub direction: Direction,
    /// Maximum tolerated relative move in the bad direction.
    pub threshold: f64,
}

/// The gated metric set. Simulated metrics are deterministic, so thresholds
/// guard against model changes, not noise; they stay small.
pub const GATES: [Gate; 5] = [
    Gate {
        metric: "ips_per_node",
        direction: Direction::HigherIsBetter,
        threshold: 0.05,
    },
    Gate {
        metric: "secs_per_iteration",
        direction: Direction::LowerIsBetter,
        threshold: 0.05,
    },
    Gate {
        metric: "makespan_secs",
        direction: Direction::LowerIsBetter,
        threshold: 0.05,
    },
    Gate {
        metric: "cache_hit_ratio",
        direction: Direction::HigherIsBetter,
        threshold: 0.05,
    },
    Gate {
        metric: "sm_util_pct",
        direction: Direction::HigherIsBetter,
        threshold: 0.10,
    },
];

/// The serving gates over the `srv_*` rows of the snapshot. The replica's
/// virtual-time event loop is deterministic, so — like [`GATES`] — the
/// thresholds guard model changes, not noise. Scenarios missing a serving
/// metric on both sides (every training row) are skipped by key absence,
/// and a baseline predating the serving suite compares as `Added`, never
/// as a failure.
pub const SERVE_GATES: [Gate; 3] = [
    Gate {
        metric: "srv_p99_ns",
        direction: Direction::LowerIsBetter,
        threshold: 0.05,
    },
    Gate {
        metric: "srv_capacity_rps",
        direction: Direction::HigherIsBetter,
        threshold: 0.05,
    },
    Gate {
        metric: "srv_cache_hit_ratio",
        direction: Direction::HigherIsBetter,
        threshold: 0.05,
    },
];

/// The planning-time gate: each scenario's worst (maximum) per-pass wall
/// time, read from the volatile `pass_wall_ns` records. Unlike the
/// simulated [`GATES`], this is real wall-clock time, so the threshold is
/// generous — the gate exists to catch a pass whose planning cost blows up
/// asymptotically (the historical quadratic affinity scan), not to police
/// scheduler jitter. Scenarios missing pass-wall records on either side
/// (canonical documents, synthetic snapshots) are skipped, never failed.
pub const PASS_WALL_GATE: Gate = Gate {
    metric: "worst_pass_wall_ns",
    direction: Direction::LowerIsBetter,
    threshold: 3.0,
};

/// The worst `(scenario, pass, wall ns)` across a snapshot's volatile
/// planning-time records, if any were captured.
pub fn worst_pass_wall(snap: &BenchSnapshot) -> Option<(String, String, u64)> {
    snap.scenarios
        .iter()
        .flat_map(|s| {
            s.pass_wall_ns
                .iter()
                .map(move |(p, &ns)| (s.name.clone(), p.clone(), ns))
        })
        .max_by_key(|&(_, _, ns)| ns)
}

/// Verdict for one (scenario, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within threshold.
    Ok,
    /// Moved past threshold in the good direction.
    Improved,
    /// Moved past threshold in the bad direction — fails the gate.
    Regressed,
    /// Present now, absent in the baseline — informational.
    Added,
    /// Present in the baseline, absent now — fails the gate.
    Missing,
}

/// One row of the delta report.
#[derive(Debug, Clone)]
pub struct DeltaRow {
    /// Scenario name.
    pub scenario: String,
    /// Metric key.
    pub metric: String,
    /// Baseline value.
    pub old: Option<f64>,
    /// Current value.
    pub new: Option<f64>,
    /// Relative change, when defined.
    pub rel: Option<f64>,
    /// Gate verdict.
    pub verdict: Verdict,
}

/// Result of comparing a fresh run against a baseline snapshot.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Baseline snapshot version.
    pub baseline_version: u64,
    /// One row per gated (scenario, metric) pair.
    pub rows: Vec<DeltaRow>,
}

impl Comparison {
    /// Rows that fail the gate.
    pub fn regressions(&self) -> Vec<&DeltaRow> {
        self.rows
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Regressed | Verdict::Missing))
            .collect()
    }

    /// True when no gated metric regressed or went missing.
    pub fn passed(&self) -> bool {
        self.regressions().is_empty()
    }

    /// Human-readable delta table (also the CI job-summary artifact).
    pub fn delta_table(&self) -> TextTable {
        let mut t = TextTable::new(
            format!("Perf gate vs BENCH_{}", self.baseline_version),
            &[
                "scenario", "metric", "baseline", "current", "delta", "verdict",
            ],
        );
        let fmt = |v: Option<f64>| v.map(si).unwrap_or_else(|| "-".into());
        for row in &self.rows {
            t.row(vec![
                row.scenario.clone(),
                row.metric.clone(),
                fmt(row.old),
                fmt(row.new),
                row.rel
                    .map(|r| format!("{:+.1}%", r * 100.0))
                    .unwrap_or_else(|| "n/a".into()),
                format!("{:?}", row.verdict),
            ]);
        }
        t
    }
}

/// Relative change `new / old - 1`, or `None` when the baseline is zero or
/// either side is non-finite (a ratio against zero is meaningless, not
/// infinite regression).
fn rel_change(old: f64, new: f64) -> Option<f64> {
    if old == 0.0 || !old.is_finite() || !new.is_finite() {
        return None;
    }
    Some(new / old - 1.0)
}

fn judge(gate: &Gate, old: f64, new: f64) -> (Option<f64>, Verdict) {
    match rel_change(old, new) {
        None => {
            // Zero/degenerate baseline: only an exact match is comparable.
            if old == new {
                (None, Verdict::Ok)
            } else if matches!(gate.direction, Direction::HigherIsBetter) == (new > old) {
                (None, Verdict::Improved)
            } else {
                (None, Verdict::Regressed)
            }
        }
        Some(rel) => {
            let bad = match gate.direction {
                Direction::HigherIsBetter => rel < -gate.threshold,
                Direction::LowerIsBetter => rel > gate.threshold,
            };
            let good = match gate.direction {
                Direction::HigherIsBetter => rel > gate.threshold,
                Direction::LowerIsBetter => rel < -gate.threshold,
            };
            let verdict = if bad {
                Verdict::Regressed
            } else if good {
                Verdict::Improved
            } else {
                Verdict::Ok
            };
            (Some(rel), verdict)
        }
    }
}

/// Compares `current` against `baseline` over every gated metric of every
/// scenario in either snapshot.
pub fn compare(baseline: &BenchSnapshot, current: &BenchSnapshot) -> Comparison {
    let old_by_name: BTreeMap<&str, &ScenarioResult> = baseline
        .scenarios
        .iter()
        .map(|s| (s.name.as_str(), s))
        .collect();
    let new_by_name: BTreeMap<&str, &ScenarioResult> = current
        .scenarios
        .iter()
        .map(|s| (s.name.as_str(), s))
        .collect();
    let mut names: Vec<&str> = old_by_name
        .keys()
        .chain(new_by_name.keys())
        .copied()
        .collect();
    names.sort();
    names.dedup();

    let mut rows = Vec::new();
    for name in names {
        let old = old_by_name.get(name);
        let new = new_by_name.get(name);
        for gate in GATES.iter().chain(&SERVE_GATES) {
            let old_v = old.and_then(|s| s.metrics.get(gate.metric)).copied();
            let new_v = new.and_then(|s| s.metrics.get(gate.metric)).copied();
            let (rel, verdict) = match (old_v, new_v) {
                (Some(o), Some(n)) => judge(gate, o, n),
                (Some(_), None) => (None, Verdict::Missing),
                (None, Some(_)) => (None, Verdict::Added),
                // Absent on both sides: the metric belongs to the other
                // family (training gates on a serving row or vice versa).
                (None, None) => continue,
            };
            rows.push(DeltaRow {
                scenario: name.to_string(),
                metric: gate.metric.to_string(),
                old: old_v,
                new: new_v,
                rel,
                verdict,
            });
        }
        // Planning wall time, gated per scenario on the worst pass. Only
        // when both sides carry volatile pass-wall records: a canonical
        // document (or a synthetic test snapshot) has none, and wall time
        // absent on one side is not a regression.
        let worst = |s: &&ScenarioResult| s.pass_wall_ns.values().copied().max();
        if let (Some(o), Some(n)) = (
            old.and_then(worst).map(|v| v as f64),
            new.and_then(worst).map(|v| v as f64),
        ) {
            let (rel, verdict) = judge(&PASS_WALL_GATE, o, n);
            rows.push(DeltaRow {
                scenario: name.to_string(),
                metric: PASS_WALL_GATE.metric.to_string(),
                old: Some(o),
                new: Some(n),
                rel,
                verdict,
            });
        }
    }
    Comparison {
        baseline_version: baseline.version,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picasso_core::Optimizations;

    #[test]
    fn rel_change_guards_zero_and_non_finite() {
        assert_eq!(rel_change(100.0, 110.0), Some(0.10000000000000009));
        assert_eq!(rel_change(0.0, 5.0), None);
        assert_eq!(rel_change(f64::NAN, 5.0), None);
        assert_eq!(rel_change(5.0, f64::INFINITY), None);
        assert!((rel_change(200.0, 100.0).unwrap() + 0.5).abs() < 1e-12);
    }

    fn synthetic(name: &str, ips: f64, secs: f64) -> ScenarioResult {
        let mut metrics = BTreeMap::new();
        metrics.insert("ips_per_node".into(), ips);
        metrics.insert("secs_per_iteration".into(), secs);
        metrics.insert("makespan_secs".into(), secs * 2.0);
        metrics.insert("cache_hit_ratio".into(), 0.0);
        metrics.insert("sm_util_pct".into(), 40.0);
        ScenarioResult {
            name: name.into(),
            metrics,
            report: Json::Null,
            pass_wall_ns: BTreeMap::new(),
        }
    }

    fn synthetic_snapshot(version: u64, ips: f64) -> BenchSnapshot {
        BenchSnapshot {
            version,
            generated_unix_ms: 123,
            scenarios: vec![synthetic("wdl_cache", ips, 0.5)],
        }
    }

    #[test]
    fn identical_snapshots_pass_the_gate() {
        let a = synthetic_snapshot(0, 1000.0);
        let b = synthetic_snapshot(1, 1000.0);
        let cmp = compare(&a, &b);
        assert!(cmp.passed());
        assert!(cmp.rows.iter().all(|r| r.verdict == Verdict::Ok));
    }

    #[test]
    fn synthetic_regression_fails_the_gate() {
        // Baseline claims 1.5x the throughput the current run achieves:
        // a -33% move on a HigherIsBetter gate with a 5% threshold.
        let baseline = synthetic_snapshot(0, 1500.0);
        let current = synthetic_snapshot(1, 1000.0);
        let cmp = compare(&baseline, &current);
        assert!(!cmp.passed());
        let regressed: Vec<_> = cmp.regressions();
        assert_eq!(regressed.len(), 1);
        assert_eq!(regressed[0].metric, "ips_per_node");
        assert!((regressed[0].rel.unwrap() + 1.0 / 3.0).abs() < 1e-9);
        // The improvement direction does not fail.
        let cmp_up = compare(&current, &baseline);
        assert!(cmp_up.passed());
        assert!(cmp_up
            .rows
            .iter()
            .any(|r| r.verdict == Verdict::Improved && r.metric == "ips_per_node"));
    }

    #[test]
    fn missing_scenarios_fail_and_added_ones_inform() {
        let mut baseline = synthetic_snapshot(0, 1000.0);
        baseline.scenarios.push(synthetic("can_cache", 500.0, 1.0));
        let mut current = synthetic_snapshot(1, 1000.0);
        current.scenarios.push(synthetic("dlrm_new", 700.0, 1.0));
        let cmp = compare(&baseline, &current);
        assert!(!cmp.passed(), "a vanished scenario must fail the gate");
        assert!(cmp
            .rows
            .iter()
            .any(|r| r.scenario == "can_cache" && r.verdict == Verdict::Missing));
        assert!(cmp
            .rows
            .iter()
            .any(|r| r.scenario == "dlrm_new" && r.verdict == Verdict::Added));
    }

    #[test]
    fn zero_baseline_metrics_only_flag_real_moves() {
        // cache_hit_ratio is 0 in non-caching scenarios; 0 -> 0 must be Ok,
        // 0 -> positive on a HigherIsBetter gate is an improvement.
        let baseline = synthetic_snapshot(0, 1000.0);
        let mut current = synthetic_snapshot(1, 1000.0);
        current.scenarios[0]
            .metrics
            .insert("cache_hit_ratio".into(), 0.4);
        let cmp = compare(&baseline, &current);
        assert!(cmp.passed());
        assert!(cmp
            .rows
            .iter()
            .any(|r| r.metric == "cache_hit_ratio" && r.verdict == Verdict::Improved));
    }

    #[test]
    fn snapshot_json_round_trips() {
        let snap = synthetic_snapshot(3, 42.0);
        let doc = snap.to_json();
        let back = BenchSnapshot::from_json(&doc).unwrap();
        assert_eq!(back.version, 3);
        assert_eq!(back.generated_unix_ms, 123);
        assert_eq!(back.scenarios.len(), 1);
        assert_eq!(back.scenarios[0].metrics, snap.scenarios[0].metrics);
        // Canonical documents (no volatile section) parse too.
        let canon = BenchSnapshot::from_json(&snap.canonical_json()).unwrap();
        assert_eq!(canon.generated_unix_ms, 0);
        assert_eq!(canon.scenarios[0].metrics, snap.scenarios[0].metrics);
        // Wrong kind is rejected.
        assert!(BenchSnapshot::from_json(&Json::obj([("kind", Json::str("nope"))])).is_err());
    }

    #[test]
    fn unsupported_or_missing_schema_versions_are_rejected() {
        let with_version = |version: Option<u64>| {
            let Json::Obj(mut fields) = synthetic_snapshot(0, 1.0).to_json() else {
                unreachable!("a snapshot serializes to an object")
            };
            fields.retain(|(k, _)| k != "schema_version");
            if let Some(v) = version {
                fields.insert(0, ("schema_version".into(), Json::UInt(v)));
            }
            Json::Obj(fields)
        };
        assert!(BenchSnapshot::from_json(&with_version(Some(BENCH_SCHEMA_VERSION))).is_ok());
        let err = BenchSnapshot::from_json(&with_version(Some(2))).expect_err("schema 2");
        assert!(err.contains("schema_version"), "{err}");
        assert!(BenchSnapshot::from_json(&with_version(None)).is_err());
        // Every committed baseline carries a supported version.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks");
        for v in 0..=2 {
            let path = dir.join(format!("BENCH_{v}.json"));
            let snap = BenchSnapshot::load(&path).unwrap();
            assert_eq!(snap.version, v);
        }
    }

    #[test]
    fn suite_pipelines_validate_and_ladder_monotonically() {
        let suite = perf_scenarios();
        assert_eq!(suite.len(), 8);
        for sc in &suite {
            sc.pipeline.validate().unwrap();
        }
        // Each rung adds passes on top of the previous one.
        for pair in suite[..4].windows(2) {
            let (prev, next) = (&pair[0].pipeline, &pair[1].pipeline);
            assert!(prev.passes.len() < next.passes.len());
            assert!(prev.passes.iter().all(|id| next.enables(*id)));
        }
        assert_eq!(suite[3].pipeline, Optimizations::all());
    }

    /// The refactored default pipeline must reproduce the committed
    /// baseline byte-identically (outside the volatile section): the pass
    /// pipeline is a pure restructuring of the trainer, not a behavior
    /// change.
    #[test]
    fn default_suite_reproduces_committed_baseline_byte_identically() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks");
        let (version, path) = latest_snapshot(&dir).expect("a committed BENCH_<n>.json");
        let committed = BenchSnapshot::load(&path).unwrap();
        let fresh = BenchSnapshot::capture(version, 0).expect("suite runs");
        let want = committed.canonical_json().to_json();
        let got = fresh.canonical_json().to_json();
        if want != got {
            let at = want
                .bytes()
                .zip(got.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(want.len().min(got.len()));
            let ctx = |s: &str| s[at.saturating_sub(80)..(at + 80).min(s.len())].to_string();
            panic!(
                "canonical snapshot diverged from {} at byte {at}:\n  committed: …{}…\n  fresh:     …{}…",
                path.display(),
                ctx(&want),
                ctx(&got),
            );
        }
    }

    #[test]
    fn suite_lints_clean_of_errors() {
        // `repro lint` gates CI on this exact report: every committed
        // scenario must plan without error-severity findings.
        let report = lint_suite().expect("suite plans cleanly");
        assert!(
            report.is_clean(),
            "error diagnostics in the bench suite:\n{}",
            report.render_text("bench suite")
        );
    }

    #[test]
    fn snapshot_files_sort_and_version() {
        let dir = std::env::temp_dir().join(format!("perfgate-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_version(&dir), 0);
        for v in [2u64, 0, 1] {
            synthetic_snapshot(v, 100.0).save(&dir).unwrap();
        }
        fs::write(dir.join("BENCH_x.json"), "junk").unwrap();
        fs::write(dir.join("notes.txt"), "junk").unwrap();
        let files = snapshot_files(&dir);
        assert_eq!(files.iter().map(|(v, _)| *v).collect::<Vec<_>>(), [0, 1, 2]);
        let (latest, path) = latest_snapshot(&dir).unwrap();
        assert_eq!(latest, 2);
        assert_eq!(next_version(&dir), 3);
        let loaded = BenchSnapshot::load(&path).unwrap();
        assert_eq!(loaded.version, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pass_wall_gate_skips_absent_records_and_flags_blowups() {
        // No pass-wall records on either side: no gate row at all.
        let a = synthetic_snapshot(0, 1000.0);
        let b = synthetic_snapshot(1, 1000.0);
        assert!(compare(&a, &b)
            .rows
            .iter()
            .all(|r| r.metric != "worst_pass_wall_ns"));
        // Records on one side only: still no row (volatile data is optional).
        let mut with_walls = synthetic_snapshot(1, 1000.0);
        with_walls.scenarios[0]
            .pass_wall_ns
            .insert("k_interleaving".into(), 1_000_000);
        assert!(compare(&a, &with_walls)
            .rows
            .iter()
            .all(|r| r.metric != "worst_pass_wall_ns"));
        // Within the generous threshold (2x on a 3.0 gate): Ok, gate passes.
        let mut doubled = with_walls.clone();
        doubled.scenarios[0]
            .pass_wall_ns
            .insert("k_interleaving".into(), 2_000_000);
        let cmp = compare(&with_walls, &doubled);
        assert!(cmp.passed());
        assert!(cmp
            .rows
            .iter()
            .any(|r| r.metric == "worst_pass_wall_ns" && r.verdict == Verdict::Ok));
        // A 5x planning blowup fails the gate; the worst pass wins even
        // when another pass stayed flat.
        let mut blown = with_walls.clone();
        blown.scenarios[0]
            .pass_wall_ns
            .insert("d_packing".into(), 10);
        blown.scenarios[0]
            .pass_wall_ns
            .insert("k_interleaving".into(), 5_000_000);
        let cmp = compare(&with_walls, &blown);
        assert!(!cmp.passed());
        let row = cmp
            .rows
            .iter()
            .find(|r| r.metric == "worst_pass_wall_ns")
            .unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
        assert_eq!(row.new, Some(5_000_000.0));
    }

    #[test]
    fn worst_pass_wall_finds_the_global_maximum() {
        assert!(worst_pass_wall(&synthetic_snapshot(0, 1.0)).is_none());
        let mut snap = synthetic_snapshot(0, 1.0);
        snap.scenarios.push(synthetic("can_inter", 2.0, 0.5));
        snap.scenarios[0]
            .pass_wall_ns
            .insert("d_packing".into(), 40);
        snap.scenarios[1]
            .pass_wall_ns
            .insert("k_interleaving".into(), 900);
        let (sc, pass, ns) = worst_pass_wall(&snap).unwrap();
        assert_eq!(
            (sc.as_str(), pass.as_str(), ns),
            ("can_inter", "k_interleaving", 900)
        );
    }

    #[test]
    fn serve_gates_skip_training_rows_and_flag_serving_regressions() {
        // Training rows carry no srv_* metrics: the serving gates emit no
        // rows for them (skip-if-absent on both sides).
        let a = synthetic_snapshot(0, 1000.0);
        let b = synthetic_snapshot(1, 1000.0);
        assert!(compare(&a, &b)
            .rows
            .iter()
            .all(|r| !r.metric.starts_with("srv_")));
        // A serving row appearing against a pre-serving baseline is
        // informational, never a failure.
        let srv = |p99: f64, cap: f64| {
            let mut metrics = BTreeMap::new();
            metrics.insert("srv_p99_ns".into(), p99);
            metrics.insert("srv_capacity_rps".into(), cap);
            metrics.insert("srv_cache_hit_ratio".into(), 0.5);
            ScenarioResult {
                name: "srv_b256".into(),
                metrics,
                report: Json::Null,
                pass_wall_ns: BTreeMap::new(),
            }
        };
        let mut with_srv = synthetic_snapshot(1, 1000.0);
        with_srv.scenarios.push(srv(90e6, 2500.0));
        let cmp = compare(&a, &with_srv);
        assert!(cmp.passed(), "new serving rows must not fail the gate");
        assert!(cmp
            .rows
            .iter()
            .any(|r| r.metric == "srv_p99_ns" && r.verdict == Verdict::Added));
        // A tail-latency blowup against a serving baseline fails.
        let mut regressed = synthetic_snapshot(2, 1000.0);
        regressed.scenarios.push(srv(150e6, 2500.0));
        let cmp = compare(&with_srv, &regressed);
        assert!(!cmp.passed());
        let row = cmp.rows.iter().find(|r| r.metric == "srv_p99_ns").unwrap();
        assert_eq!(row.verdict, Verdict::Regressed);
        // The capacity gate guards the other direction of the tradeoff.
        let mut slower = synthetic_snapshot(3, 1000.0);
        slower.scenarios.push(srv(90e6, 1500.0));
        assert!(!compare(&with_srv, &slower).passed());
    }

    #[test]
    fn capture_order_matches_the_scenario_table() {
        // The parallel capture must keep suite order — the committed
        // snapshot document and the byte-identity test depend on it.
        let mut names: Vec<String> = perf_scenarios().into_iter().map(|s| s.name).collect();
        names.extend(serve_scenarios().into_iter().map(|s| s.name));
        let snap = BenchSnapshot::capture(0, 0).expect("suite runs");
        let got: Vec<&str> = snap.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(got, names.iter().map(String::as_str).collect::<Vec<_>>());
        let volatile = snap.to_json();
        let Some(Json::Obj(keys)) = volatile.get("volatile") else {
            panic!("snapshot document has a volatile section");
        };
        assert_eq!(
            keys.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["generated_unix_ms", "pass_wall_ns"],
            "the volatile section holds only the capture time and pass wall times"
        );
    }

    #[test]
    fn committed_baseline_loads_and_gates_pass_wall_time() {
        // BENCH_2 predates the trimmed volatile section: its retired keys
        // (analyzer and flight-tap wall times, the embedding micro-bench)
        // are ignored, and its pass wall times still feed the planning gate.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks/BENCH_2.json");
        let committed = BenchSnapshot::load(&path).unwrap();
        assert_eq!(committed.version, 2);
        let with_walls = committed
            .scenarios
            .iter()
            .filter(|s| !s.pass_wall_ns.is_empty())
            .count();
        assert!(with_walls > 0);
        let cmp = compare(&committed, &committed);
        assert!(cmp.passed());
        let pass_rows = cmp
            .rows
            .iter()
            .filter(|r| r.metric == "worst_pass_wall_ns")
            .count();
        assert_eq!(pass_rows, with_walls);
    }

    #[test]
    fn delta_table_renders_every_row() {
        let cmp = compare(
            &synthetic_snapshot(0, 1500.0),
            &synthetic_snapshot(1, 1000.0),
        );
        let table = cmp.delta_table();
        assert_eq!(table.rows.len(), cmp.rows.len());
        let text = table.to_string();
        assert!(text.contains("BENCH_0"));
        assert!(text.contains("Regressed"));
        assert!(text.contains("ips_per_node"));
    }
}
