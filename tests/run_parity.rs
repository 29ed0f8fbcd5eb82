//! `exec::run` simulates exactly what `exec::simulate` simulates.
//!
//! `run` lowers a planned spec once, checks that graph with the stage
//! rules and replays the same lowering on the engine. The public
//! `simulate` lowers for itself. For the eight perf-suite rungs
//! (`picasso_bench::scenarios::perf_scenarios` under `suite_config`) and
//! the W&D base and inter rungs on four nodes, the two must produce the
//! same schedule: every `TaskRecord` field bit for bit, and the makespan.

use picasso::exec::{simulate, SimConfig, WarmupConfig};
use picasso::{ModelKind, Optimizations, PassId, PicassoConfig, Session, Strategy};

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
        "cache" => PassId::ALL.to_vec(),
        other => panic!("unknown rung {other}"),
    }
}

fn assert_run_matches_simulate(model: ModelKind, suffix: &str, config: PicassoConfig) {
    let name = format!("{model:?}_{suffix}_x{}", config.machines);
    let arts = Session::new(model, config.clone())
        .try_run_custom(Strategy::Hybrid, Optimizations::new(rung(suffix)), &name)
        .expect("scenario trains");
    let cfg = SimConfig {
        batch_per_executor: arts.output.batch,
        iterations: arts.output.iterations,
        machines: arts.output.machines,
        machine: config.machine,
        quantized_comm: config.quantized_comm,
    };
    let sim = simulate(&arts.spec, Strategy::Hybrid, &cfg).expect("replay simulates");
    let (ran, replayed) = (&arts.output.result, &sim.result);
    assert_eq!(ran.makespan, replayed.makespan, "{name}: makespan");
    assert_eq!(ran.records.len(), replayed.records.len(), "{name}: tasks");
    for (a, b) in ran.records.iter().zip(&replayed.records) {
        let key = |r: &picasso::sim::TaskRecord| {
            (
                r.task,
                r.resource,
                r.category,
                r.ready,
                r.start,
                r.end,
                r.work.to_bits(),
                r.binding,
            )
        };
        assert_eq!(key(a), key(b), "{name}: task {:?}", a.task);
    }
}

#[test]
fn perf_rungs_run_what_simulate_simulates() {
    for model in [ModelKind::WideDeep, ModelKind::Can] {
        for suffix in ["base", "pack", "inter", "cache"] {
            assert_run_matches_simulate(model, suffix, suite_config());
        }
    }
}

#[test]
fn four_node_wdl_rungs_run_what_simulate_simulates() {
    for suffix in ["base", "inter"] {
        assert_run_matches_simulate(ModelKind::WideDeep, suffix, suite_config().machines(4));
    }
}
