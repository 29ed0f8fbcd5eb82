//! The single shared scenario table of the bench suite.
//!
//! Every consumer registers scenarios exactly once, from here:
//!
//! - [`perf_scenarios`] is the Table IV ladder. `repro gate` snapshots it,
//!   `repro analyze` and `repro races` overlay it, `repro lint` checks it,
//!   and `hostbench/` times it. Every simulation of a perf scenario goes
//!   through [`run`].
//! - [`recovery_scenarios`] is the crash-and-recover run behind
//!   `repro recover` (and the run surface `repro lint` checks).
//! - [`serve_scenarios`] is the serving suite behind `repro serve` and the
//!   `srv_*` snapshot rows.
//!
//! Adding a scenario in one consumer but not the others is therefore
//! impossible by construction.
//!
//! The perf scenario names and order are pinned by the committed
//! `BENCH_<n>.json` baselines (the gate compares by name and the
//! determinism test compares bytes) — append new perf scenarios at the
//! end, never rename or reorder the existing eight. Recovery scenarios
//! live in their own list precisely so they stay out of the snapshot
//! document.

use picasso_core::exec::{ModelKind, Optimizations, RecoveryOptions, RunArtifacts, WarmupConfig};
use picasso_core::sim::FaultPlan;
use picasso_core::{PassId, PicassoConfig, Session, Strategy, TrainError};

/// One perf scenario of the suite: a model and an optimization pipeline.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable scenario name (also the JSON key).
    pub name: String,
    /// Model to train.
    pub model: ModelKind,
    /// Optimization pipeline in effect, as a declarative pass list.
    pub pipeline: Optimizations,
}

/// One fault-tolerance scenario: a fault plan plus checkpoint cadence run
/// through the real trainer, verified bit-identical against an
/// uninterrupted run of the same seed.
#[derive(Debug, Clone)]
pub struct RecoveryScenario {
    /// Stable scenario name.
    pub name: String,
    /// Full run configuration, fault plan included.
    pub opts: RecoveryOptions,
}

/// One serving scenario: a seeded open-loop traffic plan driven through
/// one forward-only replica under a fixed dynamic-batching policy and
/// admission bound. The replica event loop is deterministic, so every
/// `srv_*` metric in the snapshot is bit-stable and gated like the
/// training metrics.
#[derive(Debug, Clone)]
pub struct ServeScenario {
    /// Stable scenario name (`srv_*`).
    pub name: String,
    /// Traffic plan in the `picasso_sim::TrafficPlan` grammar.
    pub traffic: String,
    /// Dynamic batcher: maximum coalesced batch size.
    pub max_batch: usize,
    /// Dynamic batcher: maximum linger delay in nanoseconds.
    pub max_linger_ns: u64,
    /// Admission bound (`None` = unbounded, drawing the
    /// `run.serve-no-admission` lint).
    pub queue_capacity: Option<usize>,
}

/// The fixed perf suite: {small = W&D, large = CAN} x {baseline, +packing,
/// +interleaving, +caching}. Each rung of the ladder is the previous pass
/// list plus one optimization family, mirroring the paper's ablation order,
/// so gate failures localize to the pass that regressed.
pub fn perf_scenarios() -> Vec<Scenario> {
    let rungs: [(&str, &[PassId]); 4] = [
        ("base", &[]),
        ("pack", &[PassId::DPacking, PassId::KPacking]),
        (
            "inter",
            &[
                PassId::DPacking,
                PassId::KPacking,
                PassId::KInterleaving,
                PassId::DInterleaving,
            ],
        ),
        ("cache", &PassId::ALL),
    ];
    let mut out = Vec::new();
    for (prefix, model) in [("wdl", ModelKind::WideDeep), ("can", ModelKind::Can)] {
        for (suffix, passes) in rungs {
            out.push(Scenario {
                name: format!("{prefix}_{suffix}"),
                model,
                pipeline: Optimizations::new(passes.to_vec()),
            });
        }
    }
    out
}

/// The fault-tolerance suite: one deterministic crash-and-recover run.
///
/// The plan crashes worker 0 one iteration after the third checkpoint, so
/// recovery restores an incremental chain (full at step 8, delta at 12)
/// and loses exactly one iteration of work.
pub fn recovery_scenarios() -> Vec<RecoveryScenario> {
    // The plan is a constant of the grammar `FaultPlan::parse` accepts.
    #[allow(clippy::expect_used)]
    let fault_plan = FaultPlan::parse("seed=41;crash@13").expect("static plan parses");
    vec![RecoveryScenario {
        name: "crash_recover".into(),
        opts: RecoveryOptions {
            iterations: 24,
            batch_size: 16,
            seed: 41,
            ckpt_every: 4,
            full_every: 2,
            keep_full: 2,
            fault_plan,
            ..RecoveryOptions::default()
        },
    }]
}

/// The serving suite: the batch-size-vs-latency tradeoff plus an
/// overload-shedding run.
///
/// The analytic forward latency of the suite's serving plan is about
/// 4.10 ms at batch 1, 4.18 ms at 64, 4.41 ms at 256 and 5.33 ms at 1024:
/// a per-batch floor that batching amortizes. A rung's service capacity is
/// therefore `max_batch / forward_latency(max_batch)`. The two tradeoff
/// scenarios share one 2 500 rps traffic plan and are both queue-stable
/// (capacities ~58 100 and ~192 000 rps); the long-linger rung forms
/// larger batches, buying higher `srv_capacity_rps` at the cost of higher
/// `srv_p99_ns` — the pair the perf gate pins. The shed scenario offers
/// 20 000 rps against a 64-request batch bound (~15 300 rps capacity)
/// behind a 512-entry admission gate, exercising deterministic shedding.
pub fn serve_scenarios() -> Vec<ServeScenario> {
    let tradeoff = "seed=29;poisson@2500;users=200000;zipf=105;ids=8;reqs=6000";
    vec![
        ServeScenario {
            name: "srv_b256".into(),
            traffic: tradeoff.into(),
            max_batch: 256,
            max_linger_ns: 1_000_000, // 1 ms
            queue_capacity: Some(4096),
        },
        ServeScenario {
            name: "srv_b1024".into(),
            traffic: tradeoff.into(),
            max_batch: 1024,
            max_linger_ns: 100_000_000, // 100 ms
            queue_capacity: Some(4096),
        },
        ServeScenario {
            name: "srv_shed".into(),
            traffic: "seed=29;poisson@20000;users=200000;zipf=105;ids=8;reqs=6000".into(),
            max_batch: 64,
            max_linger_ns: 1_000_000,
            queue_capacity: Some(512),
        },
    ]
}

/// The session shape every perf scenario runs under: one EFLOPS node, two
/// iterations, fixed batch, fully seeded warm-up — deterministic end to
/// end.
pub fn suite_config() -> PicassoConfig {
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

/// Simulates one perf scenario under [`suite_config`] with its warm-up
/// seed shifted by `seed_offset`. Offset 0 is the run the perf gate
/// measures; the race cross-check adds more. The run's label is the
/// scenario name. A pipeline or task graph the engine rejects is an `Err`,
/// never a panic.
pub fn run(sc: &Scenario, seed_offset: u64) -> Result<RunArtifacts, TrainError> {
    let mut config = suite_config();
    config.warmup.seed = config.warmup.seed.wrapping_add(seed_offset);
    Session::new(sc.model, config).try_run_custom(Strategy::Hybrid, sc.pipeline.clone(), &sc.name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_scenario_names_are_pinned_by_the_committed_baseline() {
        let names: Vec<_> = perf_scenarios().into_iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "wdl_base",
                "wdl_pack",
                "wdl_inter",
                "wdl_cache",
                "can_base",
                "can_pack",
                "can_inter",
                "can_cache"
            ],
            "BENCH_<n>.json compares scenarios by these exact names"
        );
    }

    #[test]
    fn scenario_names_are_unique_across_all_lists() {
        let mut names: Vec<String> = perf_scenarios().into_iter().map(|s| s.name).collect();
        names.extend(recovery_scenarios().into_iter().map(|s| s.name));
        names.extend(serve_scenarios().into_iter().map(|s| s.name));
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate scenario name");
    }

    #[test]
    fn serve_scenarios_parse_and_bound_their_queues() {
        let suite = serve_scenarios();
        assert!(!suite.is_empty());
        for sc in &suite {
            assert!(
                sc.name.starts_with("srv_"),
                "{}: not srv_-prefixed",
                sc.name
            );
            let plan: picasso_core::sim::TrafficPlan = sc.traffic.parse().unwrap_or_else(|e| {
                panic!("{}: bad traffic plan: {e}", sc.name);
            });
            assert_eq!(plan.to_string(), sc.traffic, "{}: not round-trip", sc.name);
            assert!(sc.max_batch >= 1);
            assert!(
                sc.queue_capacity.is_some(),
                "{}: suite scenarios must bound admission",
                sc.name
            );
        }
    }

    #[test]
    fn recovery_scenarios_checkpoint_and_schedule_a_crash() {
        for sc in recovery_scenarios() {
            assert!(
                sc.opts.ckpt_every > 0,
                "{}: checkpointing disabled",
                sc.name
            );
            assert!(
                sc.opts.ckpt_every <= sc.opts.iterations,
                "{}: no checkpoint fits the horizon",
                sc.name
            );
            assert!(
                !sc.opts.fault_plan.events.is_empty(),
                "{}: empty plan",
                sc.name
            );
        }
    }
}
