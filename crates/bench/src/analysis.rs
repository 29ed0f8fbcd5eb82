//! The causal-analysis bench suite.
//!
//! Runs every perf scenario of the snapshot suite
//! ([`crate::scenarios::perf_scenarios`]) and rebuilds the executed DAG
//! from the scheduler's causal event log: the critical path, achieved
//! overlap per resource pair against the pipeline's planned D×K
//! interleaving, and per-lane idle-gap attribution. Each outcome is named
//! `ana_` + the perf scenario's name. The `analyze` CI job runs this
//! through `repro analyze` and uploads [`suite_report_json`] as its
//! artifact.
//!
//! Two invariants anchor the suite: the critical-path digest of every
//! scenario is bit-identical across repeated runs (the analysis inherits
//! the simulator's determinism), and the interleaving rungs of the ablation
//! ladder achieve strictly more comm-under-compute overlap than their
//! baselines (the overlap attribution actually measures what D/K-packing
//! buys).

use crate::scenarios::{self, Scenario};
use picasso_core::exec::{analysis_report_json, analyze_run};
use picasso_core::obs::json::Json;
use picasso_core::{TextTable, TrainError};

/// Schema identifier of the aggregated analysis-suite document.
pub const ANALYSIS_SUITE_KIND: &str = "picasso.analysis_suite";

/// The analysis of one scenario's executed DAG.
#[derive(Debug, Clone)]
pub struct AnalysisOutcome {
    /// Scenario name (`ana_*`).
    pub scenario: String,
    /// FNV-1a digest of the critical path (id, start, end per node).
    pub digest: u64,
    /// Achieved communication-under-computation overlap.
    pub comm_overlap: f64,
    /// Achieved host-under-device overlap.
    pub host_overlap: f64,
    /// Planned overlap from the pipeline's D×K interleaving (Eq. 2/Eq. 3).
    pub planned_overlap: f64,
    /// Fraction of the makespan explained by the critical path.
    pub critical_path_frac: f64,
    /// The full `picasso.analysis_report` document.
    pub report: Json,
}

/// Analyzes one perf scenario: simulate it, then analyze its executed DAG
/// against the planned interleaving the pass pipeline actually produced
/// (post-pass `micro_batches` × `group_count`).
pub fn run_scenario(sc: &Scenario) -> Result<AnalysisOutcome, TrainError> {
    let name = format!("ana_{}", sc.name);
    let artifacts = scenarios::run(sc, 0)?;
    let micro = artifacts.spec.micro_batches.max(1);
    let groups = artifacts.spec.group_count().max(1);
    let a = analyze_run(&artifacts.output, micro, groups);
    let overlap = |pair: &str| {
        a.overlaps
            .iter()
            .find(|o| o.pair == pair)
            .map(|o| o.achieved)
            .unwrap_or(0.0)
    };
    let planned_overlap = a.overlaps.first().map(|o| o.planned).unwrap_or(0.0);
    Ok(AnalysisOutcome {
        report: analysis_report_json(&name, &artifacts.output, micro, groups),
        scenario: name,
        digest: a.digest,
        comm_overlap: overlap("comm_under_compute"),
        host_overlap: overlap("host_under_device"),
        planned_overlap,
        critical_path_frac: a.critical_path_frac,
    })
}

/// The JSON artifact the `analyze` CI job uploads: one
/// `picasso.analysis_report` per scenario under an aggregated header.
pub fn suite_report_json(outcomes: &[AnalysisOutcome]) -> Json {
    Json::obj([
        ("kind", Json::str(ANALYSIS_SUITE_KIND)),
        (
            "reports",
            Json::Arr(outcomes.iter().map(|o| o.report.clone()).collect()),
        ),
    ])
}

/// Human-readable summary (printed by `repro analyze`).
pub fn summary_table(outcomes: &[AnalysisOutcome]) -> TextTable {
    let mut t = TextTable::new(
        "Causal analysis: executed-DAG critical path and overlap".to_string(),
        &[
            "scenario",
            "digest",
            "comm/compute",
            "host/device",
            "planned",
            "crit-frac",
        ],
    );
    for o in outcomes {
        t.row(vec![
            o.scenario.clone(),
            format!("{:016x}", o.digest),
            format!("{:.3}", o.comm_overlap),
            format!("{:.3}", o.host_overlap),
            format!("{:.3}", o.planned_overlap),
            format!("{:.3}", o.critical_path_frac),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::perf_scenarios;

    fn analyze(name: &str) -> AnalysisOutcome {
        let sc = perf_scenarios()
            .into_iter()
            .find(|sc| sc.name == name)
            .expect("registered perf scenario");
        run_scenario(&sc).expect("suite scenario runs")
    }

    #[test]
    fn critical_path_digests_are_bit_identical_across_runs() {
        let a = analyze("wdl_base");
        let b = analyze("wdl_base");
        assert_eq!(
            a.digest, b.digest,
            "the analysis must inherit the simulator's determinism"
        );
        assert_eq!(a.comm_overlap, b.comm_overlap);
        assert_eq!(a.critical_path_frac, b.critical_path_frac);
    }

    #[test]
    fn interleaving_achieves_more_comm_overlap_than_baseline() {
        // The acceptance invariant of the analysis suite: on the large
        // model, the +interleaving rung must *measurably* hide more
        // communication under compute than the unoptimized baseline —
        // otherwise the overlap attribution is not measuring what the
        // D/K passes buy.
        let base = analyze("can_base");
        let inter = analyze("can_inter");
        assert!(
            inter.comm_overlap > base.comm_overlap,
            "can_inter overlap {} must beat can_base {}",
            inter.comm_overlap,
            base.comm_overlap
        );
        assert!(
            inter.planned_overlap > 0.0,
            "the interleaving rung plans a non-trivial overlap"
        );
    }

    #[test]
    fn suite_report_aggregates_per_scenario_documents() {
        let o = analyze("wdl_base");
        let doc = suite_report_json(std::slice::from_ref(&o));
        let text = doc.to_json();
        let parsed = picasso_core::obs::json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("kind").and_then(Json::as_str),
            Some(ANALYSIS_SUITE_KIND)
        );
        let reports = parsed.get("reports").and_then(Json::items).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(
            reports[0].get("kind").and_then(Json::as_str),
            Some("picasso.analysis_report")
        );
        assert_eq!(
            reports[0].get("run").and_then(Json::as_str),
            Some("ana_wdl_base")
        );
        let table = summary_table(std::slice::from_ref(&o)).to_string();
        assert!(table.contains("ana_wdl_base"));
        assert!(table.contains(&format!("{:016x}", o.digest)));
    }
}
