//! Causal analysis of a finished simulation.
//!
//! Joins the scheduler's causal event log ([`crate::scheduler::CausalStage`])
//! with the
//! engine's observed timestamps to build the executed DAG, then runs the
//! [`picasso_obs::analysis`] machinery over it: critical path + slack,
//! achieved overlap per resource pair versus the pass pipeline's planned
//! D×K interleaving, and per-lane idle-gap attribution. Everything derives
//! from the immutable [`SimulationOutput`] after the run — the analysis
//! can never perturb scheduling.

use crate::scheduler::SimulationOutput;
use picasso_lint::effects::{conflicts, ConflictKind, RaceAllowlist, RaceSig};
use picasso_lint::{Diagnostic, EffectSet, LintReport, Severity, Span, StaticRace};
use picasso_obs::analysis::{DagAnalysis, DagNode, ExecutedDag, PairSpec, PlannedInterleaving};
use picasso_obs::json::Json;
use picasso_obs::metrics::{MetricKind, MetricsRegistry};
use std::collections::BTreeSet;

/// Schema version of the `picasso.analysis_report` document.
pub const ANALYSIS_REPORT_SCHEMA_VERSION: u32 = 1;

/// Achieved overlap below this fraction of the planned overlap trips
/// `run.low-overlap`.
pub const LOW_OVERLAP_FRAC: f64 = 0.5;

/// A critical-path lane idle for more than this fraction of the makespan
/// trips `run.idle-dominant-resource`.
pub const IDLE_DOMINANT_FRAC: f64 = 0.5;

/// Builds the executed DAG: causal edges from the scheduler, timestamps
/// and lane assignment from the engine trace. Launcher dispatch nodes are
/// labeled `launch:<op>` on their launcher lane.
pub fn executed_dag(out: &SimulationOutput) -> ExecutedDag {
    let nodes = out
        .causal
        .iter()
        .map(|st| {
            let rec = &out.result.records[st.task.0];
            let res = &out.result.resources[rec.resource.0];
            let op = if st.launcher {
                format!("launch:{:?}", st.kind)
            } else {
                format!("{:?}", st.kind)
            };
            DagNode {
                id: st.task.0 as u64,
                op,
                lane: res.spec.name.clone(),
                res_kind: res.spec.kind.to_string(),
                category: rec.category.to_string(),
                start_ns: rec.start.as_nanos(),
                end_ns: rec.end.as_nanos(),
                deps: st.deps.iter().map(|d| d.0 as u64).collect(),
            }
        })
        .collect();
    ExecutedDag { nodes }
}

/// The two overlap pairs PICASSO's interleaving is supposed to win:
/// communication hidden under computation (Eq. 2/Eq. 3), and host-side
/// work (CPU + DRAM) hidden under device work (SM + device memory).
pub fn overlap_pairs() -> Vec<PairSpec> {
    vec![
        PairSpec {
            name: "comm_under_compute".into(),
            under_categories: vec!["communication".into()],
            over_categories: vec!["computation".into()],
            ..PairSpec::default()
        },
        PairSpec {
            name: "host_under_device".into(),
            under_kinds: vec!["cpu".into(), "dram".into()],
            over_kinds: vec!["gpu-sm".into(), "gpu-mem".into()],
            ..PairSpec::default()
        },
    ]
}

/// Runs the full causal analysis of a finished simulation against the
/// planned `micro_batches` × `groups` interleaving.
pub fn analyze_run(out: &SimulationOutput, micro_batches: usize, groups: usize) -> DagAnalysis {
    executed_dag(out).analyze(
        &overlap_pairs(),
        PlannedInterleaving {
            micro_batches,
            groups,
        },
    )
}

/// Exports the analysis as Prometheus-style gauges: `overlap_ratio{pair=}`
/// (achieved and planned), `critical_path_frac`, and the critical path's
/// per-category time share.
pub fn export_analysis_metrics(a: &DagAnalysis, registry: &MetricsRegistry) {
    registry.describe(
        "overlap_ratio",
        MetricKind::Gauge,
        "Achieved overlap per resource pair (fraction of hidden-side busy time)",
    );
    registry.describe(
        "overlap_planned_ratio",
        MetricKind::Gauge,
        "Planned overlap from the pass pipeline's D*K interleaving",
    );
    registry.describe(
        "critical_path_frac",
        MetricKind::Gauge,
        "Fraction of the makespan explained by the dependency-critical path",
    );
    registry.describe(
        "critical_path_category_frac",
        MetricKind::Gauge,
        "Critical-path time share per task category",
    );
    for o in &a.overlaps {
        registry.gauge_set("overlap_ratio", &[("pair", &o.pair)], o.achieved);
        registry.gauge_set("overlap_planned_ratio", &[("pair", &o.pair)], o.planned);
    }
    registry.gauge_set("critical_path_frac", &[], a.critical_path_frac);
    for (cat, frac) in &a.critical_frac_by_category {
        registry.gauge_set("critical_path_category_frac", &[("category", cat)], *frac);
    }
}

/// Lints the analysis:
///
/// * `run.low-overlap` — the pass pipeline planned D×K interleaving but the
///   achieved comm-under-compute overlap fell below [`LOW_OVERLAP_FRAC`] of
///   the plan: the schedule is not delivering the hiding it paid for.
/// * `run.idle-dominant-resource` — a lane that carries critical-path work
///   sat idle for more than [`IDLE_DOMINANT_FRAC`] of the makespan: the
///   resource that gates the run is mostly starved.
pub fn lint_analysis(
    dag: &ExecutedDag,
    a: &DagAnalysis,
    planned: PlannedInterleaving,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let planned_overlap = planned.planned_overlap();
    if planned_overlap > 0.0 {
        if let Some(o) = a.overlaps.iter().find(|o| o.pair == "comm_under_compute") {
            if o.achieved < planned_overlap * LOW_OVERLAP_FRAC {
                diags.push(
                    Diagnostic::new(
                        "run.low-overlap",
                        Severity::Warn,
                        Span::Run("overlap".into()),
                        format!(
                            "achieved comm-under-compute overlap {:.2} is below {:.0}% of the \
                             planned {:.2} (D={} micro-batches x K={} groups)",
                            o.achieved,
                            LOW_OVERLAP_FRAC * 100.0,
                            planned_overlap,
                            planned.micro_batches.max(1),
                            planned.groups.max(1),
                        ),
                    )
                    .with_hint(
                        "check the idle-gap attribution for the stage serializing the \
                         interleaved groups, or lower D/K to match the real dependency depth",
                    ),
                );
            }
        }
    }
    // Lanes that carry critical-path work but mostly idle.
    let critical_lanes: Vec<&str> = a
        .critical_path
        .iter()
        .filter_map(|id| dag.nodes.iter().find(|n| n.id == *id))
        .map(|n| n.lane.as_str())
        .collect();
    if let Some(worst) = a
        .lanes
        .iter()
        .filter(|l| critical_lanes.contains(&l.lane.as_str()))
        .filter(|l| {
            a.makespan_ns > 0 && l.idle_ns as f64 > a.makespan_ns as f64 * IDLE_DOMINANT_FRAC
        })
        .max_by(|x, y| x.idle_ns.cmp(&y.idle_ns).then(y.lane.cmp(&x.lane)))
    {
        diags.push(
            Diagnostic::new(
                "run.idle-dominant-resource",
                Severity::Warn,
                Span::Run(worst.lane.clone()),
                format!(
                    "lane {} carries critical-path work yet idles {:.0}% of the makespan \
                     ({} gaps, longest blocked on upstream work)",
                    worst.lane,
                    worst.idle_ns as f64 / a.makespan_ns as f64 * 100.0,
                    worst.gaps.len(),
                ),
            )
            .with_hint(
                "the run is gated by a mostly-starved resource; use the starved_by \
                 attribution in the analysis report to find the upstream stage to shrink",
            ),
        );
    }
    diags
}

/// The standalone `picasso.analysis_report` JSON document `repro analyze`
/// emits: planned interleaving, the full [`DagAnalysis`], and the analysis
/// lint findings.
pub fn analysis_report_json(
    run: &str,
    out: &SimulationOutput,
    micro_batches: usize,
    groups: usize,
) -> Json {
    let planned = PlannedInterleaving {
        micro_batches,
        groups,
    };
    let dag = executed_dag(out);
    let a = dag.analyze(&overlap_pairs(), planned);
    let lint = LintReport::new(lint_analysis(&dag, &a, planned));
    Json::obj([
        (
            "schema_version",
            Json::UInt(ANALYSIS_REPORT_SCHEMA_VERSION as u64),
        ),
        ("kind", Json::str("picasso.analysis_report")),
        ("run", Json::str(run)),
        (
            "planned",
            Json::obj([
                ("micro_batches", micro_batches.into()),
                ("groups", groups.into()),
                ("planned_overlap", planned.planned_overlap().into()),
            ]),
        ),
        ("tasks", Json::UInt(dag.nodes.len() as u64)),
        ("analysis", a.to_json(&dag)),
        ("lint", lint.to_json()),
    ])
}

// ----------------------------------------------------------------------
// Trace cross-check: declared effects vs observed overlap.
// ----------------------------------------------------------------------

/// Seeded runs per scenario in the race cross-check (`repro races`).
pub const RACE_CHECK_RUNS: usize = 3;

/// One observed conflicting overlap in an executed trace: two tasks whose
/// wall-clock intervals intersected and whose declared effects conflict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedOverlap {
    /// The order-independent conflict signature (rule, resource, op pair).
    pub sig: RaceSig,
    /// Engine task ids of the overlapping pair.
    pub tasks: (u64, u64),
    /// Iteration the pair ran in.
    pub iteration: usize,
    /// Executor the pair ran on.
    pub executor: usize,
}

/// One effectful task with its schedule-scope labels and observed
/// interval, extracted from the causal log + engine trace.
#[derive(Debug, Clone)]
struct EffectfulTask {
    id: u64,
    iteration: usize,
    executor: usize,
    micro: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    kind: String,
    effects: EffectSet,
}

/// The pairwise core, separated from trace extraction for testability:
/// flags every pair on the same (iteration, executor) that overlaps in
/// time, is not split across two *different* micro-batch windows, and
/// declares conflicting effects.
///
/// The micro-batch exclusion mirrors what the static stage graph models
/// (one executor, one iteration, the first micro-batch): cross-micro
/// overlap of commutative scatters is the *point* of D-interleaving and
/// is already classified benign statically, so comparing across micro
/// windows would only manufacture signatures the static side can never
/// declare.
fn conflicts_among(tasks: &[EffectfulTask], allow: &RaceAllowlist) -> Vec<ObservedOverlap> {
    let mut out = Vec::new();
    for (i, a) in tasks.iter().enumerate() {
        for b in &tasks[i + 1..] {
            if a.iteration != b.iteration || a.executor != b.executor {
                continue;
            }
            if let (Some(ma), Some(mb)) = (a.micro, b.micro) {
                if ma != mb {
                    continue;
                }
            }
            // Strict interval intersection: touching endpoints are ordered.
            if a.start_ns >= b.end_ns || b.start_ns >= a.end_ns {
                continue;
            }
            for c in conflicts(&a.effects, &b.effects, allow) {
                out.push(ObservedOverlap {
                    sig: RaceSig::new(c.kind.rule_id(), &c.resource, &a.kind, &b.kind),
                    tasks: (a.id, b.id),
                    iteration: a.iteration,
                    executor: a.executor,
                });
            }
        }
    }
    out
}

/// Extracts every conflicting observed overlap from a finished run, under
/// the default commutative allowlist.
pub fn observed_conflicts(out: &SimulationOutput) -> Vec<ObservedOverlap> {
    // Label every task id with its (iteration, executor, micro) scope.
    let n = out.result.records.len();
    let mut labels: Vec<Option<(usize, usize, Option<usize>)>> = vec![None; n];
    for it in &out.scopes.iterations {
        for ex in &it.executors {
            labels[ex.range.start..ex.range.end.min(n)].fill(Some((it.index, ex.executor, None)));
            for m in &ex.micro_batches {
                labels[m.range.start..m.range.end.min(n)].fill(Some((
                    it.index,
                    ex.executor,
                    Some(m.index),
                )));
            }
        }
    }
    let tasks: Vec<EffectfulTask> = out
        .causal
        .iter()
        .filter(|st| !st.effects.is_empty())
        .filter_map(|st| {
            let (iteration, executor, micro) = labels[st.task.0]?;
            let rec = &out.result.records[st.task.0];
            Some(EffectfulTask {
                id: st.task.0 as u64,
                iteration,
                executor,
                micro,
                start_ns: rec.start.as_nanos(),
                end_ns: rec.end.as_nanos(),
                kind: format!("{:?}", st.kind),
                effects: st.effects.clone(),
            })
        })
        .collect();
    conflicts_among(&tasks, &RaceAllowlist::default())
}

/// Verifies declared effects against executed traces:
///
/// * `race.undeclared-overlap` (error) — an observed conflicting overlap
///   whose signature the static race set does not contain: the effect
///   annotations no longer predict what actually ran.
/// * `race.mhp-imprecision` (info) — a statically-flagged conflicting
///   pair that never overlapped in *any* of the seeded runs: the static
///   relation is missing a modeled ordering edge.
pub fn crosscheck_races(
    static_races: &[StaticRace],
    observed_per_run: &[Vec<ObservedOverlap>],
) -> Vec<Diagnostic> {
    let static_sigs: BTreeSet<&RaceSig> = static_races.iter().map(|r| &r.sig).collect();
    let mut diags = Vec::new();
    // Undeclared overlaps, deduplicated by signature across runs.
    let mut reported: BTreeSet<&RaceSig> = BTreeSet::new();
    for (run, observed) in observed_per_run.iter().enumerate() {
        for o in observed {
            if static_sigs.contains(&o.sig) || !reported.insert(&o.sig) {
                continue;
            }
            diags.push(
                Diagnostic::new(
                    "race.undeclared-overlap",
                    Severity::Error,
                    Span::Run(o.sig.resource.clone()),
                    format!(
                        "run {run} observed `{}` overlapping `{}` on {} (tasks {} and {}, \
                         iteration {}, executor {}) but the static race set does not declare \
                         this conflict",
                        o.sig.ops.0,
                        o.sig.ops.1,
                        o.sig.resource,
                        o.tasks.0,
                        o.tasks.1,
                        o.iteration,
                        o.executor,
                    ),
                )
                .with_hint(
                    "the effect derivation table no longer predicts the lowering; update \
                     stage_effects (or add the missing ordering edge)",
                ),
            );
        }
    }
    // Static pairs that never manifested.
    let observed_sigs: BTreeSet<&RaceSig> =
        observed_per_run.iter().flatten().map(|o| &o.sig).collect();
    let mut flagged: BTreeSet<&RaceSig> = BTreeSet::new();
    for race in static_races {
        if observed_sigs.contains(&race.sig) || !flagged.insert(&race.sig) {
            continue;
        }
        // Hard races abort before scheduling, so "never observed" is only
        // meaningful evidence of imprecision for pairs a run can execute.
        let severity = Severity::Info;
        diags.push(
            Diagnostic::new(
                "race.mhp-imprecision",
                severity,
                Span::Stage(race.labels.0.clone()),
                format!(
                    "statically-MHP pair `{}` / `{}` ({} on {}) never overlapped in {} seeded \
                     run(s)",
                    race.labels.0,
                    race.labels.1,
                    match race.conflict.kind {
                        ConflictKind::BenignCommutative => "benign reduce-add pair",
                        _ => "conflict",
                    },
                    race.sig.resource,
                    observed_per_run.len(),
                ),
            )
            .with_hint(
                "the schedule orders this pair in practice; model the missing edge in the \
                 stage graph to shrink the MHP relation",
            ),
        );
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{simulate, SimConfig};
    use crate::strategy::Strategy;
    use picasso_data::DatasetSpec;
    use picasso_models::ModelKind;
    use picasso_sim::MachineSpec;

    fn run(micro: usize) -> (SimulationOutput, usize) {
        let data = DatasetSpec::criteo();
        let mut spec = ModelKind::Dlrm.build(&data);
        spec.micro_batches = micro;
        let cfg = SimConfig {
            batch_per_executor: 1024,
            iterations: 2,
            machines: 2,
            machine: MachineSpec::eflops(),
            quantized_comm: false,
        };
        let groups = spec.group_count().max(1);
        (simulate(&spec, Strategy::Hybrid, &cfg).unwrap(), groups)
    }

    #[test]
    fn causal_log_covers_every_executed_task() {
        let (out, _) = run(1);
        assert_eq!(
            out.causal.len(),
            out.result.records.len(),
            "every engine task must appear in the causal log"
        );
        // Ids are exactly 0..n in creation order, and edges point backward.
        for (i, st) in out.causal.iter().enumerate() {
            assert_eq!(st.task.0, i);
            for d in &st.deps {
                assert!(d.0 < i, "dependency edges must point to earlier tasks");
            }
        }
    }

    #[test]
    fn executed_dag_joins_timestamps_and_lanes() {
        let (out, _) = run(1);
        let dag = executed_dag(&out);
        assert_eq!(dag.nodes.len(), out.result.records.len());
        assert_eq!(
            dag.makespan_ns(),
            out.result.makespan.as_nanos(),
            "DAG makespan equals the engine makespan"
        );
        assert!(
            dag.nodes.iter().any(|n| n.op.starts_with("launch:")),
            "launcher dispatch nodes are labeled"
        );
        assert!(dag.nodes.iter().any(|n| n.res_kind == "gpu-sm"));
        assert!(dag.nodes.iter().all(|n| n.end_ns >= n.start_ns));
    }

    #[test]
    fn analysis_is_deterministic_across_repeated_runs() {
        let (a, ga) = run(2);
        let (b, gb) = run(2);
        assert_eq!(ga, gb);
        let ra = analyze_run(&a, 2, ga);
        let rb = analyze_run(&b, 2, gb);
        assert_eq!(ra.digest, rb.digest, "critical-path digest is bit-stable");
        assert_eq!(ra.critical_path, rb.critical_path);
        assert_eq!(ra.makespan_ns, rb.makespan_ns);
    }

    #[test]
    fn critical_path_runs_from_a_source_to_the_final_task() {
        let (out, g) = run(1);
        let a = analyze_run(&out, 1, g);
        assert!(!a.critical_path.is_empty());
        assert!(a.critical_path_frac > 0.0 && a.critical_path_frac <= 1.0);
        // The path ends at a task finishing at the makespan.
        let last = *a.critical_path.last().unwrap();
        let rec = &out.result.records[last as usize];
        assert_eq!(rec.end.as_nanos(), out.result.makespan.as_nanos());
        // The terminal node can finish no later; upstream path nodes may
        // carry dependency slack when the gap to their successor was a
        // resource wait rather than the edge itself, but slack is always
        // bounded by the makespan.
        assert_eq!(a.slack_ns[&last], 0, "the terminal node has no slack");
        for id in &a.critical_path {
            assert!(a.slack_ns[id] <= a.makespan_ns);
        }
    }

    #[test]
    fn metrics_export_includes_overlap_and_critical_path_gauges() {
        let (out, g) = run(2);
        let a = analyze_run(&out, 2, g);
        let reg = MetricsRegistry::new();
        export_analysis_metrics(&a, &reg);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.gauges.iter().map(|((n, _), _)| n.as_str()).collect();
        assert!(names.contains(&"overlap_ratio"));
        assert!(names.contains(&"critical_path_frac"));
        let pairs: Vec<&str> = snap
            .gauges
            .iter()
            .filter(|((n, _), _)| n == "overlap_ratio")
            .flat_map(|((_, l), _)| l.iter().map(|(_, v)| v.as_str()))
            .collect();
        assert!(pairs.contains(&"comm_under_compute"));
        assert!(pairs.contains(&"host_under_device"));
    }

    #[test]
    fn analysis_report_document_is_valid_json_with_the_new_kind() {
        let (out, g) = run(2);
        let doc = analysis_report_json("test", &out, 2, g);
        let parsed = picasso_obs::json::parse(&doc.to_json()).unwrap();
        assert_eq!(
            parsed.get("kind").and_then(Json::as_str),
            Some("picasso.analysis_report")
        );
        assert_eq!(parsed.get("schema_version").and_then(Json::as_u64), Some(1));
        let analysis = parsed.get("analysis").expect("analysis section");
        assert!(analysis.get("digest").and_then(Json::as_str).is_some());
        assert!(analysis
            .get("critical_path")
            .and_then(Json::items)
            .is_some());
        assert_eq!(
            parsed
                .get("lint")
                .and_then(|l| l.get("kind"))
                .and_then(Json::as_str),
            Some("picasso.lint_report")
        );
    }

    #[test]
    fn observation_only_analysis_does_not_change_the_run() {
        // Two identical simulations, one analyzed: identical traces.
        let (a, g) = run(1);
        let _ = analyze_run(&a, 1, g);
        let (b, _) = run(1);
        assert_eq!(a.result.makespan, b.result.makespan);
        assert_eq!(a.result.records.len(), b.result.records.len());
    }

    #[test]
    fn low_overlap_lint_fires_only_when_the_plan_is_missed() {
        use picasso_obs::analysis::DagNode;
        // Serial comm after compute with D*K planned = 4: achieved 0.
        let dag = ExecutedDag {
            nodes: vec![
                DagNode {
                    id: 0,
                    op: "Mlp".into(),
                    lane: "n0/gpu-sm".into(),
                    res_kind: "gpu-sm".into(),
                    category: "computation".into(),
                    start_ns: 0,
                    end_ns: 10,
                    deps: vec![],
                },
                DagNode {
                    id: 1,
                    op: "AllReduce".into(),
                    lane: "n0/network".into(),
                    res_kind: "network".into(),
                    category: "communication".into(),
                    start_ns: 10,
                    end_ns: 30,
                    deps: vec![0],
                },
            ],
        };
        let planned = PlannedInterleaving {
            micro_batches: 2,
            groups: 2,
        };
        let a = dag.analyze(&overlap_pairs(), planned);
        let diags = lint_analysis(&dag, &a, planned);
        assert!(diags.iter().any(|d| d.rule == "run.low-overlap"));
        // The GPU lane is on the critical path and idles 2/3 of the run.
        assert!(diags.iter().any(|d| d.rule == "run.idle-dominant-resource"));
        // With no interleaving planned there is nothing to miss.
        let unplanned = PlannedInterleaving {
            micro_batches: 1,
            groups: 1,
        };
        let a1 = dag.analyze(&overlap_pairs(), unplanned);
        let d1 = lint_analysis(&dag, &a1, unplanned);
        assert!(!d1.iter().any(|d| d.rule == "run.low-overlap"));
    }

    // ------------------------------------------------------------------
    // Trace cross-check.
    // ------------------------------------------------------------------

    use picasso_lint::{Resource, ResourceKind};

    fn task(
        id: u64,
        micro: Option<usize>,
        span: (u64, u64),
        kind: &str,
        effects: EffectSet,
    ) -> EffectfulTask {
        EffectfulTask {
            id,
            iteration: 0,
            executor: 0,
            micro,
            start_ns: span.0,
            end_ns: span.1,
            kind: kind.into(),
            effects,
        }
    }

    fn cache(key: &str) -> Resource {
        Resource::new(ResourceKind::CacheHot, key)
    }

    #[test]
    fn conflicting_overlap_in_the_same_micro_window_is_observed() {
        let tasks = vec![
            task(
                0,
                Some(0),
                (0, 10),
                "CacheRefresh",
                EffectSet::empty().write(cache("c0")),
            ),
            task(
                1,
                Some(0),
                (5, 15),
                "EmbeddingScatter",
                EffectSet::empty().write(cache("c0")),
            ),
        ];
        let obs = conflicts_among(&tasks, &RaceAllowlist::default());
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].sig.rule, "race.write-write");
        assert_eq!(obs[0].sig.resource, "cache:c0");
        assert_eq!(obs[0].tasks, (0, 1));
    }

    #[test]
    fn overlap_split_across_micro_windows_is_not_comparable() {
        // Cross-micro scatter overlap is the point of D-interleaving; the
        // static graph models one micro-batch, so the pair is skipped.
        let tasks = vec![
            task(
                0,
                Some(0),
                (0, 10),
                "EmbeddingScatter",
                EffectSet::empty().write(cache("c0")),
            ),
            task(
                1,
                Some(1),
                (5, 15),
                "EmbeddingScatter",
                EffectSet::empty().write(cache("c0")),
            ),
        ];
        assert!(conflicts_among(&tasks, &RaceAllowlist::default()).is_empty());
        // But a task outside any micro window compares against both.
        let tasks = vec![
            task(
                0,
                None,
                (0, 10),
                "CacheRefresh",
                EffectSet::empty().write(cache("c0")),
            ),
            task(
                1,
                Some(1),
                (5, 15),
                "EmbeddingScatter",
                EffectSet::empty().write(cache("c0")),
            ),
        ];
        assert_eq!(conflicts_among(&tasks, &RaceAllowlist::default()).len(), 1);
    }

    #[test]
    fn disjoint_intervals_and_disjoint_resources_are_silent() {
        // Touching endpoints are ordered, not overlapping.
        let tasks = vec![
            task(
                0,
                None,
                (0, 10),
                "CacheRefresh",
                EffectSet::empty().write(cache("c0")),
            ),
            task(
                1,
                None,
                (10, 20),
                "EmbeddingScatter",
                EffectSet::empty().write(cache("c0")),
            ),
            task(
                2,
                None,
                (0, 20),
                "CacheRefresh",
                EffectSet::empty().write(cache("c1")),
            ),
        ];
        assert!(conflicts_among(&tasks, &RaceAllowlist::default()).is_empty());
    }

    #[test]
    fn undeclared_overlap_is_a_hard_error_and_dedups_across_runs() {
        let o = ObservedOverlap {
            sig: RaceSig::new(
                "race.write-write",
                &cache("c0"),
                "CacheRefresh",
                "EmbeddingScatter",
            ),
            tasks: (3, 7),
            iteration: 0,
            executor: 1,
        };
        // The same signature observed in every run reports once.
        let diags = crosscheck_races(&[], &[vec![o.clone()], vec![o.clone()], vec![o]]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "race.undeclared-overlap");
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].span, Span::Run("cache:c0".into()));
    }

    #[test]
    fn statically_declared_overlap_is_not_undeclared() {
        let sig = RaceSig::new(
            "race.benign-commutative",
            &cache("c0"),
            "EmbeddingScatter",
            "EmbeddingScatter",
        );
        let races = vec![StaticRace {
            a: 0,
            b: 1,
            labels: ("chain0/bwd".into(), "chain0/bwd2".into()),
            conflict: picasso_lint::effects::Conflict {
                kind: ConflictKind::BenignCommutative,
                resource: cache("c0"),
                modes: (
                    picasso_lint::AccessMode::ReduceAdd,
                    picasso_lint::AccessMode::ReduceAdd,
                ),
            },
            sig: sig.clone(),
        }];
        let observed = vec![vec![ObservedOverlap {
            sig,
            tasks: (1, 2),
            iteration: 0,
            executor: 0,
        }]];
        let diags = crosscheck_races(&races, &observed);
        assert!(
            diags.is_empty(),
            "declared + observed pair must be silent: {diags:?}"
        );
    }

    #[test]
    fn never_observed_static_pair_reports_mhp_imprecision() {
        let sig = RaceSig::new(
            "race.benign-commutative",
            &cache("c0"),
            "EmbeddingScatter",
            "EmbeddingScatter",
        );
        let races = vec![StaticRace {
            a: 0,
            b: 1,
            labels: ("chain0/bwd".into(), "chain0/bwd2".into()),
            conflict: picasso_lint::effects::Conflict {
                kind: ConflictKind::BenignCommutative,
                resource: cache("c0"),
                modes: (
                    picasso_lint::AccessMode::ReduceAdd,
                    picasso_lint::AccessMode::ReduceAdd,
                ),
            },
            sig,
        }];
        let diags = crosscheck_races(&races, &[vec![], vec![], vec![]]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "race.mhp-imprecision");
        assert_eq!(diags[0].severity, Severity::Info);
    }

    #[test]
    fn crosscheck_is_clean_on_a_real_hybrid_run() {
        // The closed loop on a real lowering: the static race set of the
        // Hybrid DLRM graph is empty, and no executed trace may contain a
        // conflicting overlap the static side failed to declare.
        let data = DatasetSpec::criteo();
        let mut spec = ModelKind::Dlrm.build(&data);
        spec.micro_batches = 2;
        for chain in &mut spec.chains {
            chain.cache_hit_ratio = 0.5; // exercise the hot-cache effects
        }
        let cfg = SimConfig {
            batch_per_executor: 1024,
            iterations: 2,
            machines: 2,
            machine: MachineSpec::eflops(),
            quantized_comm: false,
        };
        let g = crate::lint::stage_graph(&spec, Strategy::Hybrid, &cfg);
        let races = g.static_races();
        assert!(
            races.is_empty(),
            "hybrid lowering must be race-free: {races:?}"
        );
        let mut observed = Vec::new();
        for _ in 0..2 {
            let out = simulate(&spec, Strategy::Hybrid, &cfg).unwrap();
            observed.push(observed_conflicts(&out));
        }
        for (run, obs) in observed.iter().enumerate() {
            assert!(
                obs.is_empty(),
                "run {run} observed undeclared conflicting overlap: {obs:?}"
            );
        }
        let diags = crosscheck_races(&races, &observed);
        assert!(diags.is_empty(), "cross-check must be silent: {diags:?}");
    }
}
