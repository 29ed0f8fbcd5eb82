//! The single shared scenario table of the bench suite.
//!
//! Every consumer registers scenarios exactly once, from here: the
//! `perfgate` snapshot suite runs [`perf_scenarios`], `repro --lint`
//! statically analyzes both [`perf_scenarios`] and [`recovery_scenarios`],
//! and the `recovery` CI job runs [`recovery_scenarios`] through
//! [`crate::recovery::run_scenario`]. The observatory adds two more
//! lists: [`flight_scenarios`] (the perf suite tapped through the flight
//! recorder) and [`history_scenarios`] (pinned synthetic series for the
//! cross-run change-point detector). The race analyzer wraps the perf
//! suite once more as [`race_scenarios`] (`repro --races`), and the
//! serving suite registers its own list, [`serve_scenarios`]
//! (`repro --serve` and the `srv_*` snapshot rows). Adding a scenario in
//! one consumer but not the others is therefore impossible by
//! construction.
//!
//! The perf scenario names and order are pinned by the committed
//! `BENCH_<n>.json` baselines (the gate compares by name and the
//! determinism test compares bytes) — append new perf scenarios at the
//! end, never rename or reorder the existing eight. Recovery scenarios
//! live in their own list precisely so they stay out of the snapshot
//! document.

use picasso_core::exec::{ModelKind, Optimizations, RecoveryOptions, WarmupConfig};
use picasso_core::obs::history::Shift;
use picasso_core::sim::FaultPlan;
use picasso_core::{PassId, PicassoConfig};

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

/// One causal-analysis scenario: a perf scenario whose executed DAG is
/// rebuilt and analyzed after the run (critical path, overlap attribution,
/// idle gaps). Wrapping the perf scenario — rather than naming it — keeps
/// the two lists consistent by construction.
#[derive(Debug, Clone)]
pub struct AnalysisScenario {
    /// Stable scenario name (`ana_` + the wrapped perf scenario's name).
    pub name: String,
    /// The perf scenario whose simulation gets analyzed.
    pub perf: Scenario,
}

/// One flight-recorder scenario: a perf scenario whose finished simulation
/// is tapped into the flight recorder after the fact, asserting the event
/// stream (and therefore the post-mortem dump digest) is deterministic.
/// Wrapping the perf scenario keeps the lists consistent by construction,
/// exactly like [`AnalysisScenario`].
#[derive(Debug, Clone)]
pub struct FlightScenario {
    /// Stable scenario name (`flt_` + the wrapped perf scenario's name).
    pub name: String,
    /// The perf scenario whose simulation gets tapped.
    pub perf: Scenario,
}

/// One race-analysis scenario: a perf scenario whose stage graph is
/// checked for may-happen-in-parallel effect conflicts and whose executed
/// traces (several seeded runs) verify the declared effects against
/// observed task overlap. Wrapping the perf scenario keeps the lists
/// consistent by construction, exactly like [`AnalysisScenario`].
#[derive(Debug, Clone)]
pub struct RaceScenario {
    /// Stable scenario name (`race_` + the wrapped perf scenario's name).
    pub name: String,
    /// The perf scenario whose lowering and traces get race-checked.
    pub perf: Scenario,
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

/// One run-history scenario: a synthetic metric series fed through the
/// observatory's change-point detector with a pinned expected verdict.
/// These exercise the detector itself (the cross-run trend math), not the
/// simulator, so their series are fixed literals.
#[derive(Debug, Clone)]
pub struct HistoryScenario {
    /// Stable scenario name (`hist_*`).
    pub name: String,
    /// The `secs_per_iteration` series, one value per synthetic run.
    pub values: Vec<f64>,
    /// The change-point direction the detector must report (`None` = the
    /// detector must stay silent).
    pub expect: Option<Shift>,
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
    vec![RecoveryScenario {
        name: "crash_recover".into(),
        opts: RecoveryOptions {
            iterations: 24,
            batch_size: 16,
            seed: 41,
            ckpt_every: 4,
            full_every: 2,
            keep_full: 2,
            fault_plan: FaultPlan::parse("seed=41;crash@13").expect("static plan parses"),
            ..RecoveryOptions::default()
        },
    }]
}

/// The causal-analysis suite: every perf scenario, analyzed. Deriving the
/// list from [`perf_scenarios`] keeps `repro --analyze` covering exactly
/// what the perf gate runs, so the two ablation ladders (`*_base` through
/// `*_cache`) can be compared by achieved overlap as well as throughput.
pub fn analysis_scenarios() -> Vec<AnalysisScenario> {
    perf_scenarios()
        .into_iter()
        .map(|sc| AnalysisScenario {
            name: format!("ana_{}", sc.name),
            perf: sc,
        })
        .collect()
}

/// The flight-recorder suite: every perf scenario, tapped. Deriving the
/// list from [`perf_scenarios`] mirrors [`analysis_scenarios`]: whatever
/// the perf gate runs is also what the flight recorder must replay with a
/// deterministic dump digest.
pub fn flight_scenarios() -> Vec<FlightScenario> {
    perf_scenarios()
        .into_iter()
        .map(|sc| FlightScenario {
            name: format!("flt_{}", sc.name),
            perf: sc,
        })
        .collect()
}

/// The race-analysis suite: every perf scenario, race-checked. Deriving
/// the list from [`perf_scenarios`] mirrors [`analysis_scenarios`]: the
/// effect annotations must hold (zero findings) on exactly the lowerings
/// the perf gate runs.
pub fn race_scenarios() -> Vec<RaceScenario> {
    perf_scenarios()
        .into_iter()
        .map(|sc| RaceScenario {
            name: format!("race_{}", sc.name),
            perf: sc,
        })
        .collect()
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

/// The run-history suite: pinned synthetic series covering the three
/// regimes the observatory must separate — a clean flat history (silent),
/// a sustained step regression (fires up), and a sustained improvement
/// (fires down). Sub-slack jitter rides on the flat case so the suite also
/// proves the slack band absorbs noise.
pub fn history_scenarios() -> Vec<HistoryScenario> {
    vec![
        HistoryScenario {
            name: "hist_flat".into(),
            values: vec![0.50, 0.505, 0.495, 0.50, 0.502, 0.498],
            expect: None,
        },
        HistoryScenario {
            name: "hist_step_up".into(),
            values: vec![0.50, 0.50, 0.50, 0.60, 0.60, 0.60],
            expect: Some(Shift::Up),
        },
        HistoryScenario {
            name: "hist_step_down".into(),
            values: vec![0.50, 0.50, 0.50, 0.40, 0.40, 0.40],
            expect: Some(Shift::Down),
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
        names.extend(analysis_scenarios().into_iter().map(|s| s.name));
        names.extend(flight_scenarios().into_iter().map(|s| s.name));
        names.extend(race_scenarios().into_iter().map(|s| s.name));
        names.extend(serve_scenarios().into_iter().map(|s| s.name));
        names.extend(history_scenarios().into_iter().map(|s| s.name));
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate scenario name");
    }

    #[test]
    fn analysis_scenarios_wrap_every_perf_scenario() {
        let ana = analysis_scenarios();
        let perf = perf_scenarios();
        assert_eq!(ana.len(), perf.len());
        for (a, p) in ana.iter().zip(&perf) {
            assert_eq!(a.name, format!("ana_{}", p.name));
            assert_eq!(a.perf.name, p.name);
        }
    }

    #[test]
    fn flight_scenarios_wrap_every_perf_scenario() {
        let flt = flight_scenarios();
        let perf = perf_scenarios();
        assert_eq!(flt.len(), perf.len());
        for (f, p) in flt.iter().zip(&perf) {
            assert_eq!(f.name, format!("flt_{}", p.name));
            assert_eq!(f.perf.name, p.name);
        }
    }

    #[test]
    fn race_scenarios_wrap_every_perf_scenario() {
        let race = race_scenarios();
        let perf = perf_scenarios();
        assert_eq!(race.len(), perf.len());
        for (r, p) in race.iter().zip(&perf) {
            assert_eq!(r.name, format!("race_{}", p.name));
            assert_eq!(r.perf.name, p.name);
        }
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
    fn history_scenarios_pin_all_three_detector_regimes() {
        let hist = history_scenarios();
        assert!(hist.iter().all(|h| h.name.starts_with("hist_")));
        assert!(hist.iter().all(|h| h.values.len() >= 3));
        assert!(hist.iter().any(|h| h.expect.is_none()));
        assert!(hist.iter().any(|h| h.expect == Some(Shift::Up)));
        assert!(hist.iter().any(|h| h.expect == Some(Shift::Down)));
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
            assert!(!sc.opts.fault_plan.is_empty(), "{}: empty plan", sc.name);
        }
    }
}
