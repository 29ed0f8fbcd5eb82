//! Property tests of the execution engine: scheduling invariants that must
//! hold for any model shape, strategy, and cluster size.

use picasso_exec::{simulate, stage_graph, SimConfig, Strategy as TrainStrategy};
use picasso_graph::{EmbeddingChain, InteractionModule, MlpSpec, ModuleKind, WdlSpec};
use picasso_sim::{MachineSpec, TaskId};
use proptest::prelude::*;

fn small_spec_strategy() -> impl Strategy<Value = WdlSpec> {
    (1usize..12, 1usize..4, 1usize..4).prop_map(|(n_tables, n_modules, micro)| {
        let chains: Vec<EmbeddingChain> = (0..n_tables)
            .map(|t| {
                let mut c = EmbeddingChain::for_table(t, 8, vec![t as u32], 1.0 + (t % 3) as f64);
                c.unique_ratio = 0.5;
                c.group = (t % 2) as u32;
                c
            })
            .collect();
        let modules: Vec<InteractionModule> = (0..n_modules)
            .map(|m| InteractionModule {
                kind: ModuleKind::DnnTower,
                input_fields: (0..n_tables as u32)
                    .filter(|f| *f as usize % n_modules == m)
                    .collect(),
                flops_per_instance: 1e4,
                bytes_per_instance: 64.0,
                params: 1e3,
                output_width: 16,
                micro_ops_forward: 12,
            })
            .collect();
        WdlSpec {
            name: "prop".into(),
            io_bytes_per_instance: 100.0,
            chains,
            modules,
            mlp: MlpSpec::new(16, vec![8, 1]),
            micro_batches: micro,
            group_deps: Vec::new(),
        }
    })
}

fn strategy_from(idx: usize) -> TrainStrategy {
    match idx % 5 {
        0 => TrainStrategy::Hybrid,
        1 => TrainStrategy::ModelParallel,
        2 => TrainStrategy::DataParallel,
        3 => TrainStrategy::PsAsync { servers: 1 },
        _ => TrainStrategy::PsSync { servers: 1 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every (spec, strategy, cluster) combination lowers to an acyclic
    /// graph that completes, with positive throughput.
    #[test]
    fn every_combination_simulates(
        spec in small_spec_strategy(),
        strat_idx in 0usize..5,
        machines in 1usize..4,
    ) {
        let cfg = SimConfig {
            batch_per_executor: 512,
            iterations: 2,
            machines,
            machine: MachineSpec::eflops(),
            quantized_comm: false,
        };
        let out = simulate(&spec, strategy_from(strat_idx), &cfg).unwrap();
        prop_assert!(out.result.makespan.as_secs_f64() > 0.0);
        prop_assert!(out.ips_per_node().is_finite() && out.ips_per_node() > 0.0);
        prop_assert_eq!(out.executors, machines);
    }

    /// More iterations cannot reduce total simulated time, and per-iteration
    /// time stays roughly stable (steady-state pipeline).
    #[test]
    fn iterations_scale_linearly(spec in small_spec_strategy()) {
        let mk = |iters: usize| SimConfig {
            batch_per_executor: 512,
            iterations: iters,
            machines: 2,
            machine: MachineSpec::eflops(),
            quantized_comm: false,
        };
        let two = simulate(&spec, TrainStrategy::Hybrid, &mk(2)).unwrap();
        let six = simulate(&spec, TrainStrategy::Hybrid, &mk(6)).unwrap();
        prop_assert!(six.result.makespan >= two.result.makespan);
        let ratio = six.secs_per_iteration() / two.secs_per_iteration();
        prop_assert!(
            (0.5..=1.5).contains(&ratio),
            "per-iteration time should be stable, ratio {ratio}"
        );
    }

    /// Larger batches cannot lower per-iteration throughput below a smaller
    /// batch's (work scales, overheads amortize).
    #[test]
    fn bigger_batches_amortize_overheads(spec in small_spec_strategy()) {
        let mk = |batch: usize| SimConfig {
            batch_per_executor: batch,
            iterations: 2,
            machines: 1,
            machine: MachineSpec::eflops(),
            quantized_comm: false,
        };
        let small = simulate(&spec, TrainStrategy::Hybrid, &mk(256)).unwrap();
        let large = simulate(&spec, TrainStrategy::Hybrid, &mk(4096)).unwrap();
        prop_assert!(
            large.ips_per_node() >= small.ips_per_node() * 0.9,
            "batch 4096 {} vs 256 {}",
            large.ips_per_node(),
            small.ips_per_node()
        );
    }

    /// The async strategy is never materially slower than its synchronous
    /// twin. A 1% tolerance absorbs Graham-style scheduling anomalies:
    /// dropping the barrier changes greedy resource-arbitration order, which
    /// for rare shapes delays the very last task slightly.
    #[test]
    fn async_never_slower_than_sync(spec in small_spec_strategy(), machines in 1usize..4) {
        let cfg = SimConfig {
            batch_per_executor: 512,
            iterations: 3,
            machines,
            machine: MachineSpec::eflops(),
            quantized_comm: false,
        };
        let sync = simulate(&spec, TrainStrategy::PsSync { servers: 1 }, &cfg).unwrap();
        let asyn = simulate(&spec, TrainStrategy::PsAsync { servers: 1 }, &cfg).unwrap();
        let sync_secs = sync.result.makespan.as_secs_f64();
        let asyn_secs = asyn.result.makespan.as_secs_f64();
        prop_assert!(
            asyn_secs <= sync_secs * 1.01,
            "async {asyn_secs} vs sync {sync_secs}"
        );
    }
}

/// Specs for the parity oracle: 1-11 chains with random fusion, caching,
/// K-group and interleave exclusion; modules that read only fields some
/// chain owns; random forward `group_deps` (duplicates and out-of-range
/// groups included); 1-4 micro-batches.
fn parity_spec_strategy() -> impl Strategy<Value = WdlSpec> {
    let chain = (
        1usize..4,
        0u32..4,
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
    );
    (
        proptest::collection::vec(chain, 1..12),
        proptest::collection::vec((0u32..4, 1u32..4), 0..4),
        0usize..4,
        1usize..5,
    )
        .prop_map(|(chains, deps, n_modules, micro)| {
            let n_tables = chains.len();
            let chains: Vec<EmbeddingChain> = chains
                .into_iter()
                .enumerate()
                .map(|(t, (ids, group, fuse_up, fuse_ss, cached, excluded))| {
                    let mut c = EmbeddingChain::for_table(t, 8, vec![t as u32], ids as f64);
                    c.unique_ratio = 0.5;
                    c.group = group;
                    c.fused_unique_partition = fuse_up;
                    c.fused_shuffle_stitch = fuse_ss;
                    c.cache_hit_ratio = if cached { 0.5 } else { 0.0 };
                    c.interleave_excluded = excluded;
                    c
                })
                .collect();
            let modules: Vec<InteractionModule> = (0..n_modules)
                .map(|m| InteractionModule {
                    kind: ModuleKind::DnnTower,
                    input_fields: (0..n_tables as u32)
                        .filter(|f| *f as usize % n_modules == m)
                        .collect(),
                    flops_per_instance: 1e4,
                    bytes_per_instance: 64.0,
                    params: 1e3,
                    output_width: 16,
                    micro_ops_forward: 12,
                })
                .collect();
            WdlSpec {
                name: "parity".into(),
                io_bytes_per_instance: 100.0,
                chains,
                modules,
                mlp: MlpSpec::new(16, vec![8, 1]),
                micro_batches: micro,
                // Forward edges only: `from < to`.
                group_deps: deps
                    .into_iter()
                    .map(|(from, gap)| (from, from + gap))
                    .collect(),
            }
        })
}

proptest! {
    /// The scheduler replays the stage graph the linter checks. On
    /// executor 0 in iteration 0, the hardware tasks of the load, of every
    /// micro-batch and of the dense sync match `stage_graph`'s nodes one to
    /// one and in order, with the same kind and effects. The load,
    /// micro-batch 0 and the sync also carry the node's work, except on
    /// parameter-server resources, whose work is inflated by the server's
    /// own dispatch. Seen through launcher tasks, each task waits for its
    /// node's in-edges, taken in the task's own micro-batch (every
    /// micro-batch for the sync's first stage); a chain's first stage in a
    /// later micro-batch also waits for one forward stage of the same chain
    /// in the previous micro-batch.
    #[test]
    fn scheduler_replays_the_stage_graph(
        spec in parity_spec_strategy(),
        strat_idx in 0usize..5,
        machines in 1usize..4,
        half_batch in 1usize..600,
    ) {
        let cfg = SimConfig {
            batch_per_executor: 2 * half_batch + 1,
            iterations: 2,
            machines,
            machine: MachineSpec::eflops(),
            quantized_comm: strat_idx % 2 == 0,
        };
        let strategy = strategy_from(strat_idx);
        let g = stage_graph(&spec, strategy, &cfg);
        let out = simulate(&spec, strategy, &cfg).unwrap();
        let exec0 = &out.scopes.iterations[0].executors[0];
        let micros = &exec0.micro_batches;
        let hardware =
            |r: std::ops::Range<usize>| r.filter(|&t| !out.stage(TaskId(t)).launcher).collect::<Vec<_>>();
        // Graph nodes in scheduling order: the load, the per-micro-batch
        // template, the sync stages.
        let template: Vec<usize> = (1..g.nodes.len())
            .filter(|&n| !g.nodes[n].label.starts_with("sync/"))
            .collect();
        let syncs: Vec<usize> = (template.len() + 1..g.nodes.len()).collect();
        // (task, micro-batch, node) for every hardware task of executor 0.
        let mut slots: Vec<(usize, Option<usize>, usize)> = Vec::new();
        let load = hardware(exec0.range.start..micros[0].range.start);
        prop_assert_eq!(load.len(), 1);
        slots.push((load[0], None, 0));
        for (m, scope) in micros.iter().enumerate() {
            let tasks = hardware(scope.range.start..scope.range.end);
            prop_assert_eq!(tasks.len(), template.len());
            slots.extend(tasks.into_iter().zip(&template).map(|(t, &n)| (t, Some(m), n)));
        }
        let sync = hardware(micros.last().unwrap().range.end..exec0.range.end);
        prop_assert_eq!(sync.len(), syncs.len());
        slots.extend(sync.into_iter().zip(&syncs).map(|(t, &n)| (t, None, n)));
        let task_of = |m: Option<usize>, n: usize| {
            slots.iter().find(|s| s.2 == n && (n == 0 || s.1 == m)).map(|s| s.0).unwrap()
        };
        for &(t, m, n) in &slots {
            let node = &g.nodes[n];
            let stage = out.stage(TaskId(t));
            let record = &out.result.records[t];
            prop_assert_eq!(stage.executor, 0);
            prop_assert_eq!(format!("{:?}", stage.kind), node.kind);
            prop_assert_eq!(stage.effects, &node.effects);
            if m.unwrap_or(0) == 0 && !out.server_resources.contains(&record.resource) {
                prop_assert_eq!(record.work.to_bits(), node.cost.to_bits());
            }
            let mut deps: Vec<usize> = Vec::new();
            for &d in out.result.deps(TaskId(t)) {
                if out.stage(d).launcher {
                    deps.extend(out.result.deps(d).iter().map(|d| d.0));
                } else {
                    deps.push(d.0);
                }
            }
            let mut in_edges: Vec<usize> = Vec::new();
            for e in g.edges.iter().filter(|e| e.to == n) {
                if !in_edges.contains(&e.from) {
                    in_edges.push(e.from);
                }
            }
            let expected: Vec<usize> = if m.is_none() && in_edges.iter().any(|e| template.contains(e)) {
                (0..micros.len())
                    .flat_map(|mm| in_edges.iter().map(move |&e| (mm, e)))
                    .map(|(mm, e)| task_of(Some(mm), e))
                    .collect()
            } else {
                in_edges.iter().map(|&e| task_of(m, e)).collect()
            };
            if let Some(mm) = m.filter(|&mm| mm > 0 && node.label.ends_with("/f0")) {
                // The D-interleaving gate rides right behind the load edge.
                let chain = node.label.split('/').next().unwrap();
                prop_assert!(deps.len() > 1, "{} in micro-batch {} lost its gate", node.label, mm);
                let prev = deps.remove(1);
                let &(_, pm, pn) = slots.iter().find(|s| s.0 == prev).unwrap();
                prop_assert_eq!(pm, Some(mm - 1));
                prop_assert!(g.nodes[pn].label.starts_with(&format!("{chain}/f")));
            }
            prop_assert_eq!(deps, expected, "node {} ({}) in micro-batch {:?}", n, node.label, m);
        }
    }
}
