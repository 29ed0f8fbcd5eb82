//! Stage-surface static analysis: runs the `picasso-lint` stage rules on
//! the lowered [`StageGraph`] *before* the scheduler builds the real task
//! graph.
//!
//! The graph is the one lowering (`lower::Lowering`) the scheduler
//! replays: one executor, one iteration, the first micro-batch — enough to
//! expose every structural property the stage rules check
//! (control-dependency cycles from `WdlSpec::group_deps`, K-Packed fusion
//! membership, reachability from the data-load entry, and cost-model
//! sanity) without paying for a full cluster lowering. Declared group
//! dependencies are in the graph verbatim, *including* self and backward
//! edges the scheduler refuses to honor, precisely so the cycle rule can
//! reject them first.

use crate::lower::Lowering;
use crate::scheduler::SimConfig;
use crate::strategy::Strategy;
use picasso_graph::WdlSpec;
use picasso_lint::{
    Diagnostic, EffectSet, Resource, ResourceKind, Severity, Span, StageGraph, StageNode,
};

/// Test/fixture hook for the race analyzer: appends a HybridHash
/// hot-storage refresh stage for chain `ci` to an already-built graph.
/// The refresh *writes* `cache:c<ci>`, so it must be ordered against the
/// chain's device-memory gradient scatter; passing `ordered = false`
/// deliberately drops exactly that edge, seeding the race the analyzer
/// is required to find. Returns `None` when the chain has no
/// device-memory scatter (no cache hits configured).
pub fn inject_cache_refresh(g: &mut StageGraph, ci: usize, ordered: bool) -> Option<usize> {
    let scatter = g.nodes.iter().position(|n| {
        n.label.starts_with(&format!("chain{ci}/b"))
            && n.kind == "EmbeddingScatter"
            && n.class == "device_memory"
    })?;
    let entry = g.nodes.iter().position(|n| n.entry).unwrap_or(0);
    let refresh = g.push(
        StageNode::new(
            format!("cache{ci}/refresh"),
            "CacheRefresh",
            "device_memory",
            1.0,
            1,
        )
        .with_effects(
            EffectSet::empty().write(Resource::new(ResourceKind::CacheHot, format!("c{ci}"))),
        ),
    );
    // Reachability is kept either way; only the ordering edge against the
    // scatter is at stake.
    g.dep(entry, refresh);
    if ordered {
        g.dep(scatter, refresh);
    }
    Some(refresh)
}

/// Lowers `spec` into the analyzable stage graph (one executor, one
/// iteration, first micro-batch).
pub fn stage_graph(spec: &WdlSpec, strategy: Strategy, cfg: &SimConfig) -> StageGraph {
    Lowering::first(spec, strategy, cfg).g
}

/// Per-iteration simulator task budget above which `run.hot-path-alloc`
/// fires. The event engine preallocates its dense per-task state (SoA work
/// columns, CSR successor arrays, per-resource ready queues and channel
/// tables) from the task census before the event loop starts; a census past
/// this budget means hundreds of megabytes of bookkeeping and a setup phase
/// that rivals the simulation itself. The bench suite's largest scenario
/// sits around four orders of magnitude below this, so the rule flags
/// runaway configurations (huge cluster × micro-batch products), never the
/// committed models.
pub const HOT_PATH_TASK_BUDGET: usize = 5_000_000;

/// Estimated per-iteration simulator task count for `spec` under `cfg`:
/// the lowered stage graph covers one executor × one micro-batch, and the
/// scheduler replicates it across every executor and micro-batch.
pub fn estimated_tasks_per_iteration(g: &StageGraph, spec: &WdlSpec, cfg: &SimConfig) -> usize {
    let n_exec = (cfg.machines * cfg.machine.gpus_per_node.max(1)).max(1);
    g.nodes.len() * spec.micro_batches.max(1) * n_exec
}

/// The run-surface hot-path rule over an already-lowered graph: warns when
/// the estimated per-iteration task count exceeds
/// [`HOT_PATH_TASK_BUDGET`].
fn hot_path_lint(g: &StageGraph, spec: &WdlSpec, cfg: &SimConfig) -> Option<Diagnostic> {
    let estimated = estimated_tasks_per_iteration(g, spec, cfg);
    if estimated <= HOT_PATH_TASK_BUDGET {
        return None;
    }
    Some(
        Diagnostic::new(
            "run.hot-path-alloc",
            Severity::Warn,
            Span::Run("task-census".into()),
            format!(
                "the lowered graph implies ~{estimated} simulator tasks per iteration \
                 ({} stages x {} micro-batches x {} executors), above the engine's \
                 {HOT_PATH_TASK_BUDGET}-task preallocation budget",
                g.nodes.len(),
                spec.micro_batches.max(1),
                (cfg.machines * cfg.machine.gpus_per_node.max(1)).max(1),
            ),
        )
        .with_hint(
            "lower the micro-batch count or cluster size, or pack the graph harder so fewer \
             stages replicate per executor",
        ),
    )
}

/// Runs the stage-surface rules, plus the run-surface hot-path task-census
/// rule, on the lowered graph of `spec`.
pub fn stage_lints(spec: &WdlSpec, strategy: Strategy, cfg: &SimConfig) -> Vec<Diagnostic> {
    graph_lints(&stage_graph(spec, strategy, cfg), spec, cfg)
}

/// [`stage_lints`] over `g`, the already-built stage graph of `spec`.
pub(crate) fn graph_lints(g: &StageGraph, spec: &WdlSpec, cfg: &SimConfig) -> Vec<Diagnostic> {
    let mut out = g.analyze();
    out.extend(hot_path_lint(g, spec, cfg));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use picasso_data::DatasetSpec;
    use picasso_graph::k_interleaving;
    use picasso_models::ModelKind;
    use picasso_sim::MachineSpec;

    fn cfg() -> SimConfig {
        SimConfig {
            batch_per_executor: 1024,
            iterations: 1,
            machines: 2,
            machine: MachineSpec::eflops(),
            quantized_comm: false,
        }
    }

    #[test]
    fn lowered_dlrm_graph_is_lint_clean() {
        let data = DatasetSpec::criteo();
        let spec = ModelKind::Dlrm.build(&data);
        let diags = stage_lints(&spec, Strategy::Hybrid, &cfg());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn every_framework_strategy_lowers_clean() {
        let data = DatasetSpec::criteo();
        let spec = ModelKind::WideDeep.build(&data);
        for strategy in [
            Strategy::Hybrid,
            Strategy::DataParallel,
            Strategy::PsAsync { servers: 1 },
            Strategy::PsSync { servers: 1 },
        ] {
            let diags = stage_lints(&spec, strategy, &cfg());
            assert!(diags.is_empty(), "{strategy:?}: {diags:?}");
        }
    }

    #[test]
    fn injected_unordered_cache_refresh_is_a_write_write_race() {
        // The seeded-race fixture: a cache-refresh stage that writes the
        // same hot storage as chain 0's gradient scatter. With the
        // ordering edge the graph is clean; dropping it must surface a
        // `race.write-write` error on exactly that resource.
        let data = DatasetSpec::criteo();
        let mut spec = ModelKind::Dlrm.build(&data);
        for c in &mut spec.chains {
            c.cache_hit_ratio = 0.5; // materialize the GpuMem scatter
        }
        let mut g = stage_graph(&spec, Strategy::Hybrid, &cfg());
        inject_cache_refresh(&mut g, 0, true).expect("hot scatter present");
        assert!(g.static_races().is_empty(), "ordered refresh must be clean");
        assert!(g.analyze().is_empty());

        let mut g = stage_graph(&spec, Strategy::Hybrid, &cfg());
        inject_cache_refresh(&mut g, 0, false).expect("hot scatter present");
        let races = g.static_races();
        // The free-floating refresh races the gradient scatter (write-write)
        // and the forward hot gather (read after unordered write).
        let ww = races
            .iter()
            .find(|r| r.sig.rule == "race.write-write")
            .expect("scatter/refresh write-write race");
        assert_eq!(ww.sig.resource, "cache:c0");
        assert!(ww.labels.0.contains("chain0") || ww.labels.1.contains("chain0"));
        assert!(races
            .iter()
            .all(|r| r.sig.resource == "cache:c0" && r.labels.1 == "cache0/refresh"));
        let diags = g.analyze();
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "race.write-write" && d.severity == Severity::Error),
            "{diags:?}"
        );
    }

    #[test]
    fn fused_chains_record_same_class_fusions() {
        let data = DatasetSpec::criteo();
        let mut spec = ModelKind::Dlrm.build(&data);
        for c in &mut spec.chains {
            c.fused_unique_partition = true;
            c.fused_shuffle_stitch = true;
        }
        let g = stage_graph(&spec, Strategy::Hybrid, &cfg());
        assert_eq!(g.fusions.len(), spec.chains.len() * 2);
        let diags = g.analyze();
        assert!(
            diags.iter().all(|d| d.rule != "stage.cross-class-fusion"),
            "{diags:?}"
        );
    }

    #[test]
    fn hot_path_alloc_fires_on_runaway_census_and_stays_silent_at_suite_scale() {
        let data = DatasetSpec::criteo();
        let spec = ModelKind::Dlrm.build(&data);
        // The bench-suite shape (single-digit machines, one micro-batch)
        // sits far below the budget.
        let g = stage_graph(&spec, Strategy::Hybrid, &cfg());
        assert!(estimated_tasks_per_iteration(&g, &spec, &cfg()) * 100 < HOT_PATH_TASK_BUDGET);
        let diags = stage_lints(&spec, Strategy::Hybrid, &cfg());
        assert!(diags.iter().all(|d| d.rule != "run.hot-path-alloc"));
        // A runaway cluster x micro-batch product trips the rule.
        let mut spec = spec;
        spec.micro_batches = 64;
        let mut big = cfg();
        big.machines = 4096;
        let diags = stage_lints(&spec, Strategy::Hybrid, &big);
        let hit = diags
            .iter()
            .find(|d| d.rule == "run.hot-path-alloc")
            .expect("budget exceeded must warn");
        assert_eq!(hit.severity, picasso_lint::Severity::Warn);
    }

    #[test]
    fn backward_group_dep_closes_a_cycle() {
        let data = DatasetSpec::criteo();
        let mut spec = k_interleaving::apply(&ModelKind::Dlrm.build(&data), 3);
        assert!(spec.group_count() >= 2, "need at least two groups");
        spec.group_deps = vec![(1, 0)];
        let diags = stage_lints(&spec, Strategy::Hybrid, &cfg());
        assert!(
            diags.iter().any(|d| d.rule == "stage.dependency-cycle"),
            "{diags:?}"
        );
    }

    #[test]
    fn forward_group_dep_stays_acyclic() {
        let data = DatasetSpec::criteo();
        let mut spec = k_interleaving::apply(&ModelKind::Dlrm.build(&data), 3);
        spec.group_deps = vec![(0, spec.group_count() as u32 - 1)];
        let diags = stage_lints(&spec, Strategy::Hybrid, &cfg());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn out_of_range_group_deps_are_ignored_by_the_builder() {
        // The spec rule `spec.group-dep-range` warns on these; the builder
        // must not panic or fabricate edges.
        let data = DatasetSpec::criteo();
        let mut spec = ModelKind::Dlrm.build(&data);
        spec.group_deps = vec![(7, 9)];
        let diags = stage_lints(&spec, Strategy::Hybrid, &cfg());
        assert!(diags.iter().all(|d| d.rule != "stage.dependency-cycle"));
    }
}
