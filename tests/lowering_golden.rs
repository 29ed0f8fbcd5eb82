//! Golden digests of the scheduler's lowering across every strategy.
//!
//! Pins one FNV-1a digest per strategy (`Hybrid`, `DataParallel`,
//! `ModelParallel`, `PsAsync{1}`, `PsSync{1}`). Each digest covers W&D,
//! CAN, DLRM and DIN on four nodes under five configs: the perf-suite rungs
//! base/pack/inter/cache, plus one uneven config (batch 1022 split
//! 341/341/340 over three micro-batches, three K-groups, forward
//! `group_deps`, table 0 excluded from interleaving, quantized
//! communication). Per run it hashes:
//!
//! - every `TaskRecord` field (ready/start/end ns, resource, category,
//!   work bits, binding);
//! - every `CausalStage` (task, kind, executor, launcher flag, deps,
//!   effects) and every `CostRecord`;
//! - the schedule scopes and the parameter-server resource handles.
//!
//! Task creation order, dependency-list order, launcher dispatch and the
//! PS-side work inflation all feed these bytes, so any change to how a
//! spec is lowered onto the engine moves one of these pins.

use picasso::exec::{RunArtifacts, SimulationOutput, WarmupConfig};
use picasso::obs::checksum::Fnv1a;
use picasso::{ModelKind, Optimizations, PassId, PicassoConfig, Session, Strategy};

/// The perf-suite session shape (`picasso_bench::scenarios::suite_config`)
/// on four nodes.
fn cluster_config() -> PicassoConfig {
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
    .machines(4)
}

/// The pass list of one rung of the perf-suite ladder.
fn rung(name: &str) -> Vec<PassId> {
    match name {
        "base" => vec![],
        "pack" => vec![PassId::DPacking, PassId::KPacking],
        "inter" => vec![
            PassId::DPacking,
            PassId::KPacking,
            PassId::KInterleaving,
            PassId::DInterleaving,
        ],
        "cache" | "uneven" => PassId::ALL.to_vec(),
        other => panic!("unknown rung {other}"),
    }
}

fn config(name: &str) -> PicassoConfig {
    match name {
        "uneven" => cluster_config()
            .batch(1022)
            .micro_batches(3)
            .interleaving_groups(3)
            .group_dependencies(vec![(0, 1), (0, 2), (1, 2)])
            .exclude_tables(vec![0])
            .quantized_communication(true),
        _ => cluster_config(),
    }
}

fn run(model: ModelKind, strategy: Strategy, name: &str) -> RunArtifacts {
    Session::new(model, config(name))
        .try_run_custom(strategy, Optimizations::new(rung(name)), name)
        .unwrap_or_else(|e| panic!("{model:?} {strategy:?} {name}: {e}"))
}

fn hash_output(h: &mut Fnv1a, out: &SimulationOutput) {
    for r in &out.result.records {
        h.write(&r.task.0.to_le_bytes());
        h.write(&r.ready.as_nanos().to_le_bytes());
        h.write(&r.start.as_nanos().to_le_bytes());
        h.write(&r.end.as_nanos().to_le_bytes());
        h.write(&r.resource.0.to_le_bytes());
        h.write(format!("{:?}", r.category).as_bytes());
        h.write(&r.work.to_bits().to_le_bytes());
        h.write(format!("{:?}", r.binding).as_bytes());
    }
    for c in out.causal() {
        h.write(format!("{c:?}").as_bytes());
    }
    for c in &out.costs {
        h.write(&c.task.0.to_le_bytes());
        h.write(format!("{:?}", c.kind).as_bytes());
        h.write(&c.predicted_secs.to_bits().to_le_bytes());
    }
    h.write(format!("{:?}", out.scopes).as_bytes());
    h.write(format!("{:?}", out.server_resources).as_bytes());
}

fn strategy_digest(strategy: Strategy) -> String {
    let mut h = Fnv1a::default();
    for model in [
        ModelKind::WideDeep,
        ModelKind::Can,
        ModelKind::Dlrm,
        ModelKind::Din,
    ] {
        for name in ["base", "pack", "inter", "cache", "uneven"] {
            hash_output(&mut h, &run(model, strategy, name).output);
        }
    }
    format!("{:016x}", h.finish())
}

#[test]
fn hybrid_lowering_is_pinned() {
    assert_eq!(strategy_digest(Strategy::Hybrid), "54e860831cfc42fa");
}

#[test]
fn data_parallel_lowering_is_pinned() {
    assert_eq!(strategy_digest(Strategy::DataParallel), "13f88692b8c80831");
}

#[test]
fn model_parallel_lowering_is_pinned() {
    assert_eq!(strategy_digest(Strategy::ModelParallel), "8f00f2700aa97b41");
}

#[test]
fn ps_async_lowering_is_pinned() {
    assert_eq!(
        strategy_digest(Strategy::PsAsync { servers: 1 }),
        "97b9d98930c3f2da"
    );
}

#[test]
fn ps_sync_lowering_is_pinned() {
    assert_eq!(
        strategy_digest(Strategy::PsSync { servers: 1 }),
        "8586d6dbf839d2b2"
    );
}
