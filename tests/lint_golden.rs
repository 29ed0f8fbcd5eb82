//! Golden pins of the race analyzer and the serving-plan diagnostics.
//!
//! No suite graph has a race, so the `race.*` findings of a real lowering
//! are pinned on seeded ones: the `wdl_cache` and `can_cache` stage graphs
//! (the perf-suite rungs under the suite's session shape) with an
//! unordered HybridHash refresh stage injected for every chain that has a
//! device-memory gradient scatter
//! (`picasso::exec::lint::inject_cache_refresh`). A hand-built graph
//! covers all four conflict kinds, the checkpoint dirty-ID set, and a pair
//! that contends two resources at once.
//!
//! Every `StaticRace` field is rendered (node indices, labels, conflict
//! kind, resource, both access modes, signature), one race per line, in
//! the analyzer's output order. The serving half pins the rendered
//! `ServingPlan::diagnostics` of the three serving-suite plans
//! (`picasso_bench::scenarios::serve_scenarios`: admission bounds 4 096,
//! 4 096 and 512), which are clean, and of the same plan left unbounded,
//! which draws `run.serve-no-admission`.

use picasso::exec::lint::inject_cache_refresh;
use picasso::exec::{
    prepare_serving, stage_graph, SimConfig, StageGraph, StageNode, StaticRace, TrainerOptions,
    WarmupConfig,
};
use picasso::obs::checksum::Fnv1a;
use picasso::{ModelKind, Optimizations, PassId, PicassoConfig, Session, Strategy};
use picasso_lint::{EffectSet, Resource, ResourceKind};

/// `picasso_bench::scenarios::suite_config`: one node, two iterations,
/// fixed batch, seeded warm-up.
fn suite_config() -> PicassoConfig {
    PicassoConfig {
        iterations: 2,
        warmup: WarmupConfig {
            batches: 4,
            batch_size: 256,
            max_vocab: 1000,
            hot_bytes: 1 << 24,
            seed: 17,
        },
        batch_per_executor: Some(1024),
        ..PicassoConfig::default()
    }
    .machines(1)
}

fn render(r: &StaticRace) -> String {
    format!(
        "{} {} {} {} {:?} {} {} {} | {}",
        r.a,
        r.b,
        r.labels.0,
        r.labels.1,
        r.conflict.kind,
        r.conflict.resource,
        r.conflict.modes.0.name(),
        r.conflict.modes.1.name(),
        r.sig,
    )
}

/// The `cache` rung of `model`, lowered as the race suite lowers it, with
/// an unordered cache refresh injected on every chain with a hot scatter.
fn seeded_cache_graph(model: ModelKind, name: &str) -> StageGraph {
    let config = suite_config();
    let arts = Session::new(model, config.clone())
        .try_run_custom(
            Strategy::Hybrid,
            Optimizations::new(PassId::ALL.to_vec()),
            name,
        )
        .expect("scenario trains");
    let cfg = SimConfig {
        batch_per_executor: arts.output.batch,
        iterations: arts.output.iterations,
        machines: arts.output.machines,
        machine: config.machine,
        quantized_comm: config.quantized_comm,
    };
    let mut g = stage_graph(&arts.spec, Strategy::Hybrid, &cfg);
    let injected = (0..arts.spec.chains.len())
        .filter(|&ci| inject_cache_refresh(&mut g, ci, false).is_some())
        .count();
    assert!(injected > 0, "{name}: no chain has a hot scatter");
    g
}

/// Race count and FNV-1a digest over the rendered races.
fn races_digest(g: &StageGraph) -> (usize, String) {
    let races = g.static_races();
    let mut h = Fnv1a::default();
    for r in &races {
        h.write(render(r).as_bytes());
        h.write(b"\n");
    }
    (races.len(), format!("{:016x}", h.finish()))
}

#[test]
fn wdl_cache_seeded_races_are_pinned() {
    let g = seeded_cache_graph(ModelKind::WideDeep, "wdl_cache");
    assert_eq!(races_digest(&g), (30, "708877123bff00d2".to_string()));
}

#[test]
fn can_cache_seeded_races_are_pinned() {
    let g = seeded_cache_graph(ModelKind::Can, "can_cache");
    assert_eq!(races_digest(&g), (48, "79d17d878d3f8729".to_string()));
}

#[test]
fn hand_built_graph_races_are_pinned() {
    let shard = |k: &str| Resource::new(ResourceKind::EmbeddingShard, k);
    let cache = |k: &str| Resource::new(ResourceKind::CacheHot, k);
    let dirty = |k: &str| Resource::new(ResourceKind::CkptDirty, k);
    let params = || Resource::new(ResourceKind::DenseParams, "dense");
    let stage = |label: &str, kind: &'static str, effects: EffectSet| {
        StageNode::new(label, kind, "device_memory", 1.0, 1).with_effects(effects)
    };
    let mut g = StageGraph::default();
    let load = g.push(StageNode::new("load", "DataLoad", "io", 1.0, 1).entry());
    let gather = g.push(stage(
        "c0/gather",
        "Gather",
        EffectSet::empty().read(shard("c0")).read(cache("c0")),
    ));
    let scatter = g.push(stage(
        "c0/scatter",
        "EmbeddingScatter",
        EffectSet::empty()
            .reduce(shard("c0"))
            .write(cache("c0"))
            .reduce(dirty("c0")),
    ));
    let scatter2 = g.push(stage(
        "c0/scatter2",
        "EmbeddingScatter",
        EffectSet::empty().reduce(shard("c0")),
    ));
    let sweep = g.push(stage(
        "ckpt/sweep",
        "CkptSweep",
        EffectSet::empty().write(dirty("c0")).read(shard("c0")),
    ));
    let mlp = g.push(stage(
        "mlp/bwd",
        "MlpCompute",
        EffectSet::empty().read(params()).write(params()),
    ));
    let apply = g.push(stage(
        "opt/apply",
        "OptimizerApply",
        EffectSet::empty().write(params()),
    ));
    let ordered = g.push(stage(
        "c1/scatter",
        "EmbeddingScatter",
        EffectSet::empty().write(shard("c1")),
    ));
    let ordered2 = g.push(stage(
        "c1/refresh",
        "CacheRefresh",
        EffectSet::empty().write(shard("c1")),
    ));
    for n in [gather, scatter, scatter2, sweep, mlp, apply, ordered] {
        g.dep(load, n);
    }
    g.dep(ordered, ordered2);
    let rendered: Vec<String> = g.static_races().iter().map(render).collect();
    assert_eq!(
        rendered,
        [
        "1 2 c0/gather c0/scatter ReadWrite shard:c0 read reduce-add | race.read-after-unordered-write on shard:c0 (EmbeddingScatter vs Gather)",
        "1 2 c0/gather c0/scatter ReadWrite cache:c0 read write | race.read-after-unordered-write on cache:c0 (EmbeddingScatter vs Gather)",
        "1 3 c0/gather c0/scatter2 ReadWrite shard:c0 read reduce-add | race.read-after-unordered-write on shard:c0 (EmbeddingScatter vs Gather)",
        "2 3 c0/scatter c0/scatter2 BenignCommutative shard:c0 reduce-add reduce-add | race.benign-commutative on shard:c0 (EmbeddingScatter vs EmbeddingScatter)",
        "2 4 c0/scatter ckpt/sweep ReadWrite shard:c0 reduce-add read | race.read-after-unordered-write on shard:c0 (CkptSweep vs EmbeddingScatter)",
        "2 4 c0/scatter ckpt/sweep CkptDirty dirty:c0 reduce-add write | race.ckpt-dirty-unordered on dirty:c0 (CkptSweep vs EmbeddingScatter)",
        "3 4 c0/scatter2 ckpt/sweep ReadWrite shard:c0 reduce-add read | race.read-after-unordered-write on shard:c0 (CkptSweep vs EmbeddingScatter)",
        "5 6 mlp/bwd opt/apply WriteWrite params:dense write write | race.write-write on params:dense (MlpCompute vs OptimizerApply)",
        ]
    );
}

fn serving_diagnostics(queue_capacity: Option<usize>) -> Vec<String> {
    let opts = TrainerOptions {
        batch_per_executor: Some(256),
        ..Default::default()
    };
    let plan = prepare_serving(
        ModelKind::WideDeep,
        &picasso::data::DatasetSpec::criteo().shared(),
        Strategy::Hybrid,
        &opts,
        queue_capacity,
    )
    .expect("serving plan");
    plan.diagnostics.iter().map(|d| d.to_string()).collect()
}

#[test]
fn serving_suite_diagnostics_are_pinned() {
    for (name, capacity) in [("srv_b256", 4096), ("srv_b1024", 4096), ("srv_shed", 512)] {
        assert_eq!(
            serving_diagnostics(Some(capacity)),
            Vec::<String>::new(),
            "{name}"
        );
    }
}

#[test]
fn unbounded_serving_plan_diagnostics_are_pinned() {
    assert_eq!(
        serving_diagnostics(None),
        [
            "warn[run.serve-no-admission] run:queue-capacity: the serving queue is unbounded: \
             under sustained overload every queued request's latency grows without limit and no \
             load is shed (fix: set a queue capacity (admission control) so overload sheds \
             deterministically instead of stretching tail latency)"
        ]
    );
}
