//! The serving bench suite.
//!
//! Runs every [`ServeScenario`] — a seeded open-loop traffic plan against
//! one forward-only replica — and collects the deterministic
//! `picasso.serve_report` of each. The replica event loop is virtual-time
//! discrete-event simulation, so every latency quantile, queue depth, and
//! cache counter is bit-identical across repeated invocations; the
//! snapshot suite gates the `srv_*` metrics exactly like the training
//! ones.
//!
//! The serving plan itself reuses the training pass pipeline with the
//! backward/optimizer/collective stages pruned
//! ([`picasso_core::exec::prepare_serving`]), so the static analyzer —
//! including the `run.backward-stage-in-serving` and
//! `run.serve-no-admission` rules — covers exactly the graph the replica
//! prices.

use crate::scenarios::ServeScenario;
use picasso_core::data::DatasetSpec;
use picasso_core::exec::{prepare_serving, ModelKind, ServingPlan, TrainerOptions};
use picasso_core::obs::json::Json;
use picasso_core::serve::{
    serve, BatchPolicy, ReplicaConfig, ServeReport, SERVE_REPORT_KIND, SERVE_REPORT_SCHEMA_VERSION,
};
use picasso_core::{Severity, Strategy, TextTable};

/// The forward-only plan every serving scenario prices: the suite's
/// Wide&Deep model over the Criteo layout, lowered through the serving
/// pass pipeline on one EFLOPS node.
pub fn serving_plan(queue_capacity: Option<usize>) -> Result<ServingPlan, String> {
    let data = DatasetSpec::criteo().shared();
    let opts = TrainerOptions {
        batch_per_executor: Some(256),
        ..Default::default()
    };
    prepare_serving(
        ModelKind::WideDeep,
        &data,
        Strategy::Hybrid,
        &opts,
        queue_capacity,
    )
    .map_err(|e| e.to_string())
}

/// The replica configuration a scenario prescribes.
pub fn replica_config(sc: &ServeScenario) -> ReplicaConfig {
    ReplicaConfig {
        policy: BatchPolicy {
            max_batch: sc.max_batch,
            max_linger_ns: sc.max_linger_ns,
        },
        queue_capacity: sc.queue_capacity,
        ..ReplicaConfig::default()
    }
}

/// Runs one serving scenario to its deterministic report. Planning or
/// traffic-grammar failures surface as `Err` — a registered scenario that
/// cannot run is a suite bug, not a gate verdict.
pub fn run_scenario(sc: &ServeScenario) -> Result<ServeReport, String> {
    let plan = serving_plan(sc.queue_capacity)?;
    let traffic = sc
        .traffic
        .parse()
        .map_err(|e| format!("{}: bad traffic plan: {e}", sc.name))?;
    Ok(serve(&plan, &traffic, &replica_config(sc), &sc.name).report)
}

/// The JSON artifact the `serve` CI leg uploads: the aggregated
/// `picasso.serve_report` document, one per-scenario report (each with its
/// own digest) under `scenarios`.
pub fn suite_report_json(reports: &[ServeReport]) -> Json {
    Json::obj([
        ("kind", Json::str(SERVE_REPORT_KIND)),
        ("schema_version", Json::UInt(SERVE_REPORT_SCHEMA_VERSION)),
        (
            "scenarios",
            Json::Arr(reports.iter().map(ServeReport::to_json).collect()),
        ),
    ])
}

/// Human-readable summary (printed by `repro serve`).
pub fn summary_table(reports: &[ServeReport]) -> TextTable {
    let mut t = TextTable::new(
        "Serving: dynamic batching under open-loop traffic".to_string(),
        &[
            "scenario",
            "batch",
            "p50 ms",
            "p99 ms",
            "capacity rps",
            "hit ratio",
            "shed",
            "slo viol",
        ],
    );
    for r in reports {
        t.row(vec![
            r.scenario.clone(),
            format!("{:.0}/{}", r.mean_batch(), r.max_batch),
            format!("{:.2}", r.p50_ns as f64 / 1e6),
            format!("{:.2}", r.p99_ns as f64 / 1e6),
            format!("{:.0}", r.capacity_rps()),
            format!("{:.3}", r.cache_hit_ratio()),
            r.shed.to_string(),
            r.slo_violations.to_string(),
        ]);
    }
    t
}

/// True when the serving plan's static analysis carries an error-severity
/// diagnostic (`repro serve` exits 4 on this, mirroring `repro lint`).
pub fn has_errors(plan: &ServingPlan) -> bool {
    plan.diagnostics
        .iter()
        .any(|d| d.severity >= Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::serve_scenarios;

    fn scenario(name: &str) -> ServeScenario {
        serve_scenarios()
            .into_iter()
            .find(|sc| sc.name == name)
            .expect("registered serve scenario")
    }

    #[test]
    fn serve_suite_is_deterministic() {
        let sc = scenario("srv_b256");
        let a = run_scenario(&sc).unwrap();
        let b = run_scenario(&sc).unwrap();
        assert_eq!(a, b, "serve report must be bit-identical across runs");
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn tradeoff_scenarios_pin_the_batch_size_vs_latency_curve() {
        // The acceptance pair: the larger-batch rung must show BOTH a
        // higher p99 (it lingers for bigger batches) AND higher service
        // capacity (the ~46 ms launch floor amortizes over more requests).
        let small = run_scenario(&scenario("srv_b256")).unwrap();
        let large = run_scenario(&scenario("srv_b1024")).unwrap();
        assert!(
            large.p99_ns > small.p99_ns,
            "srv_b1024 p99 {} must exceed srv_b256 p99 {}",
            large.p99_ns,
            small.p99_ns
        );
        assert!(
            large.capacity_rps() > small.capacity_rps(),
            "srv_b1024 capacity {:.0} must exceed srv_b256 {:.0}",
            large.capacity_rps(),
            small.capacity_rps()
        );
        assert!(large.mean_batch() > small.mean_batch());
        // Both operating points are queue-stable: nothing shed.
        assert_eq!(small.shed, 0);
        assert_eq!(large.shed, 0);
    }

    #[test]
    fn shed_scenario_sheds_and_respects_the_admission_bound() {
        let sc = scenario("srv_shed");
        let r = run_scenario(&sc).unwrap();
        assert!(r.shed > 0, "overload scenario must shed");
        assert_eq!(r.served + r.shed, r.requests);
        assert!(r.max_queue_depth <= sc.queue_capacity.unwrap() as u64);
    }

    #[test]
    fn suite_report_names_every_scenario() {
        let reports: Vec<ServeReport> = serve_scenarios()
            .iter()
            .map(|sc| run_scenario(sc).unwrap())
            .collect();
        assert_eq!(reports.len(), serve_scenarios().len());
        let doc = suite_report_json(&reports);
        let parsed = picasso_core::obs::json::parse(&doc.to_json()).unwrap();
        assert_eq!(
            parsed.get("kind").and_then(Json::as_str),
            Some(SERVE_REPORT_KIND)
        );
        let scenarios = parsed.get("scenarios").and_then(Json::items).unwrap();
        assert_eq!(scenarios.len(), reports.len());
        for (doc, r) in scenarios.iter().zip(&reports) {
            assert_eq!(
                doc.get("scenario").and_then(Json::as_str),
                Some(r.scenario.as_str())
            );
        }
        let table = summary_table(&reports).to_string();
        for r in &reports {
            assert!(table.contains(&r.scenario));
        }
    }

    #[test]
    fn suite_serving_plan_lints_clean() {
        let plan = serving_plan(Some(4096)).unwrap();
        assert!(
            !has_errors(&plan),
            "serving plan has error diagnostics: {:?}",
            plan.diagnostics
        );
        // Dropping the admission bound draws the warn-severity
        // `run.serve-no-admission` rule but stays below the error gate.
        let unbounded = serving_plan(None).unwrap();
        assert!(!has_errors(&unbounded));
        assert!(
            unbounded
                .diagnostics
                .iter()
                .any(|d| d.rule == "run.serve-no-admission"),
            "unbounded queue must draw run.serve-no-admission: {:?}",
            unbounded.diagnostics
        );
    }
}
