//! The race-analysis bench suite.
//!
//! Runs every perf scenario of the snapshot suite
//! ([`crate::scenarios::perf_scenarios`]) through both halves of the
//! effect-based concurrency analyzer, naming each outcome `race_` + the
//! perf scenario's name:
//!
//! 1. **Static**: lower the post-pass spec to its stage graph and compute
//!    the may-happen-in-parallel races over the declared effect sets. The
//!    acceptance invariant is *zero findings on every suite scenario* —
//!    every conflicting stage pair of a real lowering has an ordering
//!    path, so any finding is a genuine modeling bug.
//! 2. **Dynamic**: simulate [`RACE_CHECK_RUNS`] seeded runs (the suite
//!    warm-up seed plus run index) and extract every observed conflicting
//!    task overlap from the causal event log, then cross-check the two
//!    sides with [`crosscheck_races`]: an observed conflict the static
//!    side never declared is a hard `race.undeclared-overlap` error; a
//!    static race that never manifests in any run is an informational
//!    `race.mhp-imprecision` note.
//!
//! The `races` CI leg runs this through `repro races` and uploads
//! [`suite_report_json`] as its artifact. Determinism is anchored the same
//! way as the causal-analysis suite: the race digest of every scenario is
//! bit-identical across repeated invocations.

use crate::scenarios::{self, suite_config, Scenario};
use picasso_core::exec::{
    crosscheck_races, observed_conflicts, stage_graph, Diagnostic, ObservedOverlap, SimConfig,
    StaticRace, RACE_CHECK_RUNS,
};
use picasso_core::obs::checksum::Fnv1a;
use picasso_core::obs::json::Json;
use picasso_core::{Severity, Strategy, TextTable, TrainError};

/// Schema identifier of the aggregated race-suite document.
pub const RACE_SUITE_KIND: &str = "picasso.race_suite";

/// The race analysis of one scenario.
#[derive(Debug, Clone)]
pub struct RaceOutcome {
    /// Scenario name (`race_*`).
    pub scenario: String,
    /// Statically-detected MHP races of the lowered stage graph.
    pub static_races: Vec<StaticRace>,
    /// Observed conflicting overlaps, one list per seeded run.
    pub observed: Vec<Vec<ObservedOverlap>>,
    /// Cross-check verdicts (undeclared overlaps, imprecision notes).
    pub diagnostics: Vec<Diagnostic>,
    /// FNV-1a digest over every static and observed signature, pinned
    /// bit-identical across repeated runs.
    pub digest: u64,
}

impl RaceOutcome {
    /// True when neither half found an error-severity problem.
    pub fn is_clean(&self) -> bool {
        self.static_races.is_empty()
            && self
                .diagnostics
                .iter()
                .all(|d| d.severity < Severity::Error)
    }
}

/// Race-checks one perf scenario: lower its pipeline once for the static
/// half, then simulate [`RACE_CHECK_RUNS`] seeded runs for the dynamic
/// half. Run `k` shifts the warm-up seed by `k`, so run 0 is exactly the
/// configuration the perf gate measures.
pub fn run_scenario(sc: &Scenario) -> Result<RaceOutcome, TrainError> {
    let mut observed = Vec::with_capacity(RACE_CHECK_RUNS);
    let mut static_races = Vec::new();
    for run in 0..RACE_CHECK_RUNS {
        let artifacts = scenarios::run(sc, run as u64)?;
        if run == 0 {
            // The static half analyzes the lowering of the canonical run:
            // the post-pass spec under the simulation shape it actually ran.
            let config = suite_config();
            let cfg = SimConfig {
                batch_per_executor: artifacts.output.batch,
                iterations: artifacts.output.iterations,
                machines: artifacts.output.machines,
                machine: config.machine,
                quantized_comm: config.quantized_comm,
            };
            let g = stage_graph(&artifacts.spec, Strategy::Hybrid, &cfg);
            static_races = g.static_races();
        }
        observed.push(observed_conflicts(&artifacts.output));
    }
    let diagnostics = crosscheck_races(&static_races, &observed);
    let mut digest = Fnv1a::default();
    for r in &static_races {
        digest.write(r.sig.to_string().as_bytes());
    }
    for (run, obs) in observed.iter().enumerate() {
        digest.write(&[run as u8]);
        for o in obs {
            digest.write(o.sig.to_string().as_bytes());
        }
    }
    Ok(RaceOutcome {
        scenario: format!("race_{}", sc.name),
        static_races,
        observed,
        diagnostics,
        digest: digest.finish(),
    })
}

fn race_json(r: &StaticRace) -> Json {
    Json::obj([
        ("rule", Json::str(&r.sig.rule)),
        ("resource", Json::str(&r.sig.resource)),
        ("stage_a", Json::str(&r.labels.0)),
        ("stage_b", Json::str(&r.labels.1)),
    ])
}

/// The JSON artifact the `races` CI leg uploads: per scenario, the static
/// race list, per-run observed-overlap counts, and the cross-check
/// verdicts. A separate document kind from the run report, so the pinned
/// `BENCH_<n>.json` baselines are untouched by construction.
pub fn suite_report_json(outcomes: &[RaceOutcome]) -> Json {
    Json::obj([
        ("kind", Json::str(RACE_SUITE_KIND)),
        ("runs_per_scenario", Json::UInt(RACE_CHECK_RUNS as u64)),
        (
            "scenarios",
            Json::Arr(
                outcomes
                    .iter()
                    .map(|o| {
                        Json::obj([
                            ("scenario", Json::str(&o.scenario)),
                            ("digest", Json::str(format!("{:016x}", o.digest))),
                            (
                                "static_races",
                                Json::Arr(o.static_races.iter().map(race_json).collect()),
                            ),
                            (
                                "observed_overlaps",
                                Json::Arr(
                                    o.observed
                                        .iter()
                                        .map(|run| Json::UInt(run.len() as u64))
                                        .collect(),
                                ),
                            ),
                            (
                                "diagnostics",
                                Json::Arr(o.diagnostics.iter().map(|d| d.to_json()).collect()),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Human-readable summary (printed by `repro races`).
pub fn summary_table(outcomes: &[RaceOutcome]) -> TextTable {
    let mut t = TextTable::new(
        "Race analysis: static MHP conflicts vs observed trace overlap".to_string(),
        &[
            "scenario", "digest", "static", "observed", "verdicts", "status",
        ],
    );
    for o in outcomes {
        let observed: usize = o.observed.iter().map(Vec::len).sum();
        t.row(vec![
            o.scenario.clone(),
            format!("{:016x}", o.digest),
            o.static_races.len().to_string(),
            observed.to_string(),
            o.diagnostics.len().to_string(),
            if o.is_clean() { "clean" } else { "RACE" }.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::perf_scenarios;

    fn race_check(name: &str) -> RaceOutcome {
        let sc = perf_scenarios()
            .into_iter()
            .find(|sc| sc.name == name)
            .expect("registered perf scenario");
        run_scenario(&sc).expect("suite scenario runs")
    }

    #[test]
    fn cached_scenario_is_race_free_and_deterministic() {
        // The caching rung exercises the full effect surface (hot-storage
        // reads and reduce-adds on top of shards, dirty sets, collectives).
        let a = race_check("wdl_cache");
        assert!(a.is_clean(), "{:?}", a.diagnostics);
        assert!(
            a.static_races.is_empty(),
            "suite lowerings must have ordering paths for every conflicting \
             pair: {:?}",
            a.static_races
        );
        assert_eq!(a.observed.len(), RACE_CHECK_RUNS);
        for (run, obs) in a.observed.iter().enumerate() {
            assert!(obs.is_empty(), "run {run} observed conflicts: {obs:?}");
        }
        let b = race_check("wdl_cache");
        assert_eq!(a.digest, b.digest, "race digest must be deterministic");
    }

    #[test]
    fn baseline_scenario_is_race_free() {
        let a = race_check("wdl_base");
        assert!(a.is_clean(), "{:?}", a.diagnostics);
        assert!(a.static_races.is_empty());
    }

    #[test]
    fn suite_report_names_every_scenario_and_verdict() {
        let o = race_check("wdl_base");
        let doc = suite_report_json(std::slice::from_ref(&o));
        let text = doc.to_json();
        let parsed = picasso_core::obs::json::parse(&text).unwrap();
        assert_eq!(
            parsed.get("kind").and_then(Json::as_str),
            Some(RACE_SUITE_KIND)
        );
        assert_eq!(
            parsed.get("runs_per_scenario").and_then(Json::as_u64),
            Some(RACE_CHECK_RUNS as u64)
        );
        let scenarios = parsed.get("scenarios").and_then(Json::items).unwrap();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(
            scenarios[0].get("scenario").and_then(Json::as_str),
            Some("race_wdl_base")
        );
        let table = summary_table(std::slice::from_ref(&o)).to_string();
        assert!(table.contains("race_wdl_base"));
        assert!(table.contains("clean"));
    }
}
