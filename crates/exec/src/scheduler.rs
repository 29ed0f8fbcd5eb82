//! The scheduler: lowers a logical WDL graph onto the simulated cluster.
//!
//! It replays the one stage graph the linter checks (`lower::Lowering`):
//! for every executor, iteration and micro-batch it adds one engine task
//! per node (behind a launcher dispatch task for worker-side stages) and
//! maps the node's in-edges to task ids, so that overlap — or the lack of
//! it — emerges from the event engine:
//!
//! - chains within one K-group issue together; the next group's
//!   communication waits for this group's (the Fig. 8c stagger), plus any
//!   declared forward `group_deps` edge;
//! - D-interleaving splits each iteration into micro-batches whose compute
//!   overlaps the next micro-batch's embedding traffic: a chain's first
//!   stage waits for its own communication in the previous micro-batch;
//! - synchronous strategies end each iteration with a global barrier, while
//!   async PS lets every worker run free;
//! - data loading for iteration `i+1` prefetches during iteration `i`, and
//!   every edge from the load also carries the previous iteration's gate.

use crate::calibration::CostRecord;
use crate::costs::{ResTarget, StageTask};
use crate::lower::{EdgeKind, Lowering};
use crate::observe::{ExecutorScope, IterationScope, MicroBatchScope, ScheduleScopes, TaskRange};
use crate::strategy::Strategy;
use picasso_graph::{OpKind, WdlSpec};
use picasso_lint::EffectSet;
use picasso_sim::{
    Cluster, Engine, EngineError, MachineSpec, ResourceId, RunResult, Task, TaskCategory, TaskId,
};

/// Simulation shape.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Instances per executor per iteration.
    pub batch_per_executor: usize,
    /// Iterations to simulate.
    pub iterations: usize,
    /// Worker machines.
    pub machines: usize,
    /// Machine specification (Table I presets).
    pub machine: MachineSpec,
    /// Halve collective payloads (half-precision quantized communication).
    pub quantized_comm: bool,
}

/// One node of the causal event log: an executed stage with its true
/// dependency edges. The stage fields were recorded while the schedule was
/// built; the edges are the run's one edge table, [`RunResult::deps`].
/// That table and the run's records are the executed DAG the causal
/// analysis reads (see [`picasso_sim::analysis`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalStage<'a> {
    /// Engine task id (indexes `result.records`).
    pub task: TaskId,
    /// Operator the stage lowers (the launcher node carries its stage's op).
    pub kind: OpKind,
    /// Executor the stage was scheduled for.
    pub executor: usize,
    /// Whether this is the host-side launcher dispatch for its stage, as
    /// opposed to the hardware work itself.
    pub launcher: bool,
    /// The tasks this node waited for (exactly the engine dependency edges).
    pub deps: &'a [TaskId],
    /// Declared effect set over shared resources (empty for launcher
    /// dispatches and pure stages); derived by the same table the static
    /// race rules use, and verified against observed overlap by the
    /// trace cross-check.
    pub effects: &'a EffectSet,
}

/// What the causal log records per task besides its edges.
#[derive(Debug)]
struct StageInfo {
    kind: OpKind,
    executor: usize,
    launcher: bool,
    /// The stage's entry in [`SimulationOutput`]'s effect-set table.
    effects: usize,
}

/// A finished simulation plus its shape.
#[derive(Debug)]
pub struct SimulationOutput {
    /// Raw engine trace.
    pub result: RunResult,
    /// Instances per executor per iteration.
    pub batch: usize,
    /// Iterations simulated.
    pub iterations: usize,
    /// Executors (GPU workers).
    pub executors: usize,
    /// Worker machines.
    pub machines: usize,
    /// Task-id ranges of every iteration / executor / micro-batch / K-group,
    /// recorded while the graph was built (see [`crate::observe`]).
    pub scopes: ScheduleScopes,
    /// Model-predicted cost of every hardware stage, for calibration against
    /// the engine's observed durations (see [`crate::calibration`]). Launcher
    /// dispatch tasks are not predicted and not recorded.
    pub costs: Vec<CostRecord>,
    /// Stage fields of every executed task, indexed by task id; see
    /// [`SimulationOutput::causal`].
    stages: Vec<StageInfo>,
    /// The lowerings' effect sets, one per lowering node, that the stages
    /// refer to; entry 0 is the empty set of launchers and the barrier.
    effects: Vec<EffectSet>,
    /// Handles of every parameter-server resource, precomputed from the
    /// cluster topology so consumers never filter resources by name prefix.
    /// Empty for strategies without PS nodes.
    pub server_resources: Vec<ResourceId>,
}

impl SimulationOutput {
    /// Causal event log: every executed task (launcher and hardware alike)
    /// with its dependency edges, in creation order.
    pub fn causal(&self) -> impl ExactSizeIterator<Item = CausalStage<'_>> {
        (0..self.stages.len()).map(|t| self.stage(TaskId(t)))
    }

    /// The causal log's node for `task`.
    pub fn stage(&self, task: TaskId) -> CausalStage<'_> {
        let info = &self.stages[task.0];
        CausalStage {
            task,
            kind: info.kind,
            executor: info.executor,
            launcher: info.launcher,
            deps: self.result.deps(task),
            effects: &self.effects[info.effects],
        }
    }

    /// Training throughput in instances per second per machine (the paper's
    /// IPS metric). Zero for degenerate runs (no iterations, no machines, or
    /// an empty schedule) rather than NaN/infinity.
    pub fn ips_per_node(&self) -> f64 {
        let secs = self.result.makespan.as_secs_f64();
        if secs <= 0.0 || self.machines == 0 {
            return 0.0;
        }
        let total = (self.batch * self.executors * self.iterations) as f64;
        total / secs / self.machines as f64
    }

    /// Seconds per iteration; zero when no iterations were simulated.
    pub fn secs_per_iteration(&self) -> f64 {
        if self.iterations == 0 {
            return 0.0;
        }
        self.result.makespan.as_secs_f64() / self.iterations as f64
    }
}

/// Lowers and runs `spec` under `strategy` on the configured cluster.
pub fn simulate(
    spec: &WdlSpec,
    strategy: Strategy,
    cfg: &SimConfig,
) -> Result<SimulationOutput, EngineError> {
    simulate_lowered(spec, strategy, cfg, Lowering::first(spec, strategy, cfg))
}

/// [`simulate`] over `first`, the already-built [`Lowering::first`] of
/// the same `spec`, `strategy` and `cfg`. The run's causal log takes over
/// the lowerings' effect sets.
pub(crate) fn simulate_lowered(
    spec: &WdlSpec,
    strategy: Strategy,
    cfg: &SimConfig,
    first: Lowering,
) -> Result<SimulationOutput, EngineError> {
    let mut engine = Engine::new();
    let cluster = Cluster::build(
        cfg.machine.clone(),
        cfg.machines,
        strategy.server_count(),
        &mut engine,
    )?;
    let n_exec = cluster.executor_count();

    // One lowering per distinct micro-batch size: an uneven split has two,
    // the larger first. Empty micro-batches (more micro-batches than
    // instances) are skipped; they can only trail.
    let micro = spec.micro_batches.max(1);
    let last_b = split_batch(cfg.batch_per_executor, micro, micro - 1);
    let smaller =
        (last_b > 0 && last_b != first.b).then(|| Lowering::new(spec, strategy, cfg, last_b));
    // Slot 0 is `first`, slot 1 the smaller lowering; each micro-batch
    // replays the slot of its size.
    let mut lowerings: Vec<Lowering> = std::iter::once(first).chain(smaller).collect();
    let micro_slots: Vec<usize> = (0..micro)
        .map(|m| split_batch(cfg.batch_per_executor, micro, m))
        .take_while(|&b| b > 0)
        .map(|b| usize::from(lowerings.get(1).is_some_and(|l| l.b == b)))
        .collect();
    let nodes = lowerings[0].tasks.len();
    let sync_start = lowerings[0].sync_start;

    // Every node of every lowering, resolved once per executor; the
    // iterations and micro-batches that replay it reuse the entry. The
    // causal log refers to the lowerings' effect sets, moved here once.
    let mut effects = vec![EffectSet::empty()];
    let mut resolved: Vec<Resolved> = Vec::with_capacity(lowerings.len() * n_exec * nodes);
    for l in &mut lowerings {
        let effects_at = effects.len();
        effects.extend(l.g.nodes.iter_mut().map(|n| std::mem::take(&mut n.effects)));
        for e in 0..n_exec {
            resolved.extend(
                (0..nodes)
                    .map(|n| Resolved::new(&engine, &cluster, e, &l.tasks[n], effects_at + n)),
            );
        }
    }
    let first = &lowerings[0];
    let node_of = |slot: usize, e: usize, n: usize| &resolved[(slot * n_exec + e) * nodes + n];
    let barrier = Resolved::new(
        &engine,
        &cluster,
        0,
        &StageTask {
            kind: OpKind::Sync,
            target: ResTarget::Cpu,
            work: 1.0,
            launches: 1,
        },
        0,
    );

    // Predicted stage costs and the causal log's stage fields, appended as
    // tasks are created; the schedule never reads them back. The edges are
    // written once, into the engine.
    let mut costs: Vec<CostRecord> = Vec::new();
    let mut stages: Vec<StageInfo> = Vec::new();
    let mut add = |engine: &mut Engine,
                   exec: usize,
                   r: &Resolved,
                   deps: &[TaskId],
                   dispatch_scale: f64|
     -> Result<TaskId, EngineError> {
        let resource = r.resource.ok_or(EngineError::NoServer {
            task: TaskId(engine.task_count()),
        })?;
        let mut info = |launcher: bool, effects: usize| {
            stages.push(StageInfo {
                kind: r.kind,
                executor: exec,
                launcher,
                effects,
            })
        };
        // Framework op dispatch: the stage's `launches` graph operations are
        // scheduled by the executor's launcher threads before the hardware
        // sees them. This serialized host cost is what packing amortizes —
        // a packed stage dispatches once for many tables. Server-side work
        // is dispatched by the server process and skips the worker launcher.
        let launched;
        let mut stage_deps = deps;
        if !r.server_side && r.launches > 0 && dispatch_scale > 0.0 {
            let launcher = cluster.executors[exec].launcher;
            let launch = Task::new(launcher, r.dispatch_secs * dispatch_scale, r.category);
            launched = [engine.add_task(launch, deps)?];
            info(true, 0);
            stage_deps = &launched;
        }
        let id = engine.add_task(Task::new(resource, r.work, r.category), stage_deps)?;
        costs.push(CostRecord {
            task: id,
            kind: r.kind,
            predicted_secs: r.predicted_secs,
        });
        info(false, r.effects);
        Ok(id)
    };

    // Per executor: prefetch chain + iteration dependency.
    let mut prev_load: Vec<Option<TaskId>> = vec![None; n_exec];
    let mut iter_dep: Vec<Vec<TaskId>> = vec![Vec::new(); n_exec];
    // Node -> task of the executor being replayed: the load and sync
    // stages once per iteration, the rest once per micro-batch.
    let mut task: Vec<TaskId> = vec![TaskId(0); nodes];
    // Task count before each node of the micro-batch being replayed, for
    // the K-group scopes.
    let mut node_start: Vec<usize> = vec![0; nodes];
    // The dependencies of the task being added, rebuilt per task; the
    // engine copies them into its edge table.
    let mut deps: Vec<TaskId> = Vec::new();

    // Tasks are added contiguously per logical scope, so `task_count()`
    // snapshots delimit each scope as a half-open task-id range. This is
    // pure bookkeeping: it adds no tasks and reads no engine state that
    // scheduling depends on.
    let mut scopes = ScheduleScopes::default();

    for iter in 0..cfg.iterations {
        let iter_start = engine.task_count();
        let mut executor_scopes: Vec<ExecutorScope> = Vec::with_capacity(n_exec);
        let mut iter_ends: Vec<TaskId> = Vec::with_capacity(n_exec);
        for e in 0..n_exec {
            let exec_start = engine.task_count();
            let mut micro_scopes: Vec<MicroBatchScope> = Vec::new();
            // Data transmission (prefetched: depends only on the previous
            // load and the previous-iteration gate, not on compute).
            deps.clear();
            deps.extend(prev_load[e]);
            deps.extend(iter_dep[e].iter().copied());
            task[0] = add(&mut engine, e, node_of(0, e, 0), &deps, 1.0)?;
            prev_load[e] = Some(task[0]);

            // The first sync stage waits for every micro-batch's backward
            // ends.
            let mut bwd_ends: Vec<TaskId> = Vec::new();
            // D-interleaving pipeline gate: a chain's lookups in micro-batch
            // m wait for the same chain's communication step in m-1, so
            // micro-batches stream through the interconnects instead of
            // bursting all at once.
            let mut prev_micro_comm: Vec<Option<TaskId>> = vec![None; spec.chains.len()];
            for (m, &slot) in micro_slots.iter().enumerate() {
                let l = &lowerings[slot];
                let micro_start = engine.task_count();
                // First micro-batch pays full framework dispatch; repeats of
                // the same operations re-execute through a warm executor.
                let dispatch_scale = if m == 0 { 1.0 } else { 0.35 };
                for n in 1..sync_start {
                    deps.clear();
                    for &(from, kind) in l.in_edges(n) {
                        match kind {
                            EdgeKind::Wiring if from == 0 => {
                                deps.push(task[0]);
                                deps.extend(iter_dep[e].iter().copied());
                                if let Some(ci) = l.chain_start[n] {
                                    deps.extend(prev_micro_comm[ci]);
                                }
                            }
                            EdgeKind::Wiring => deps.push(task[from]),
                            EdgeKind::Declared => {
                                if !deps.contains(&task[from]) {
                                    deps.push(task[from]);
                                }
                            }
                            EdgeKind::Refused => {}
                        }
                    }
                    node_start[n] = engine.task_count();
                    task[n] = add(&mut engine, e, node_of(slot, e, n), &deps, dispatch_scale)?;
                }
                for (ci, &c) in l.chain_comm.iter().enumerate() {
                    prev_micro_comm[ci] = Some(task[c]);
                }
                bwd_ends.extend(l.in_edges(sync_start).iter().map(|&(from, _)| task[from]));
                micro_scopes.push(MicroBatchScope {
                    index: m,
                    range: TaskRange {
                        start: micro_start,
                        end: engine.task_count(),
                    },
                    groups: l
                        .groups
                        .iter()
                        .filter(|r| !r.is_empty())
                        .map(|r| TaskRange {
                            start: node_start[r.start],
                            end: node_start[r.end],
                        })
                        .collect(),
                });
            }

            // Dense parameter synchronization once per iteration.
            for n in sync_start..nodes {
                deps.clear();
                if n == sync_start {
                    deps.append(&mut bwd_ends);
                } else {
                    deps.extend(first.in_edges(n).iter().map(|&(from, _)| task[from]));
                }
                task[n] = add(&mut engine, e, node_of(0, e, n), &deps, 1.0)?;
            }
            iter_ends.push(task[nodes - 1]);
            executor_scopes.push(ExecutorScope {
                executor: e,
                range: TaskRange {
                    start: exec_start,
                    end: engine.task_count(),
                },
                micro_batches: micro_scopes,
            });
        }

        // Iteration boundary: synchronous strategies join all executors.
        if strategy.is_async() {
            for (e, &end) in iter_ends.iter().enumerate() {
                iter_dep[e] = vec![end];
            }
        } else {
            let b = add(&mut engine, 0, &barrier, &iter_ends, 1.0)?;
            for dep in iter_dep.iter_mut() {
                *dep = vec![b];
            }
        }
        scopes.iterations.push(IterationScope {
            index: iter,
            range: TaskRange {
                start: iter_start,
                end: engine.task_count(),
            },
            executors: executor_scopes,
        });
    }

    let server_resources = cluster.server_resource_ids();
    let result = engine.run()?;
    Ok(SimulationOutput {
        result,
        batch: cfg.batch_per_executor,
        iterations: cfg.iterations,
        executors: n_exec,
        machines: cfg.machines,
        scopes,
        costs,
        stages,
        effects,
        server_resources,
    })
}

/// One lowering node resolved for one executor: everything its tasks need
/// that the iterations and micro-batches replaying it share.
struct Resolved {
    kind: OpKind,
    category: TaskCategory,
    /// The stage's resource; `None` for a server-side stage on a cluster
    /// without servers, which fails when a task is added.
    resource: Option<ResourceId>,
    /// Server-side work is dispatched by the server process, without a
    /// worker launcher task.
    server_side: bool,
    launches: u32,
    /// Launcher dispatch seconds at full scale: `launches × op_dispatch`.
    dispatch_secs: f64,
    /// The stage's work, after any server-side inflation.
    work: f64,
    /// Model-predicted duration, seconds (see [`CostRecord`]).
    predicted_secs: f64,
    /// The stage's entry in the output's effect-set table.
    effects: usize,
}

impl Resolved {
    fn new(
        engine: &Engine,
        cluster: &Cluster,
        exec: usize,
        st: &StageTask,
        effects: usize,
    ) -> Resolved {
        let h = &cluster.executors[exec];
        let server = cluster.servers.get(exec % cluster.servers.len().max(1));
        let (resource, server_side) = match st.target {
            ResTarget::GpuSm => (Some(h.gpu_sm), false),
            ResTarget::GpuMem => (Some(h.gpu_mem), false),
            ResTarget::Pcie => (Some(h.pcie), false),
            ResTarget::Dram => (Some(h.dram), false),
            ResTarget::Cpu => (Some(h.cpu), false),
            ResTarget::Nic => (Some(h.nic), false),
            ResTarget::NvLink => (Some(h.nvlink.unwrap_or(h.nic)), false),
            ResTarget::ServerNic => (server.map(|s| s.nic), true),
            ResTarget::ServerDram => (server.map(|s| s.dram), true),
        };
        let mut work = st.work;
        let mut predicted_secs = 0.0;
        if let Some(resource) = resource {
            let spec = engine.resource_spec(resource);
            let overhead = spec.launch_overhead.as_secs_f64();
            if server_side && st.launches > 1 {
                // Server processes dispatch their own ops; charge the
                // multiplicity as inflated work on the server resource.
                work += (st.launches - 1) as f64 * overhead * spec.rate;
            }
            // Predict with the same closed-form the cost model uses —
            // overhead plus rate-scaled work, after any server-side
            // inflation — so the calibration gap isolates queueing and
            // congestion.
            predicted_secs = overhead + work / spec.rate;
        }
        let dispatch_secs = cluster.machine.overheads.op_dispatch.as_secs_f64();
        Resolved {
            kind: st.kind,
            category: st.kind.class().category(),
            resource,
            server_side,
            launches: st.launches,
            dispatch_secs: st.launches as f64 * dispatch_secs,
            work,
            predicted_secs,
            effects,
        }
    }
}

/// Splits `batch` into `micro` near-equal parts; part `m` gets the
/// remainder-adjusted share.
pub(crate) fn split_batch(batch: usize, micro: usize, m: usize) -> usize {
    let base = batch / micro;
    let rem = batch % micro;
    base + usize::from(m < rem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use picasso_data::DatasetSpec;
    use picasso_models::ModelKind;
    use picasso_sim::TaskCategory;

    fn quick_cfg() -> SimConfig {
        SimConfig {
            batch_per_executor: 1024,
            iterations: 3,
            machines: 2,
            machine: MachineSpec::eflops(),
            quantized_comm: false,
        }
    }

    #[test]
    fn split_batch_conserves_instances() {
        for batch in [10usize, 17, 1000] {
            for micro in 1..=7 {
                let total: usize = (0..micro).map(|m| split_batch(batch, micro, m)).sum();
                assert_eq!(total, batch);
            }
        }
    }

    /// `simulate` under `cfg` fails with [`EngineError::EmptyCluster`]
    /// under both a collective and a parameter-server strategy.
    fn assert_empty_cluster(cfg: SimConfig) {
        let spec = ModelKind::Dlrm.build(&DatasetSpec::criteo());
        let want = EngineError::EmptyCluster {
            machines: cfg.machines,
            gpus_per_node: cfg.machine.gpus_per_node,
        };
        for strategy in [Strategy::Hybrid, Strategy::PsAsync { servers: 1 }] {
            let err = simulate(&spec, strategy, &cfg).map(drop).unwrap_err();
            assert_eq!(err, want);
        }
    }

    #[test]
    fn zero_machines_is_an_error_not_a_panic() {
        assert_empty_cluster(SimConfig {
            machines: 0,
            ..quick_cfg()
        });
    }

    #[test]
    fn machines_without_gpus_are_an_error_not_a_panic() {
        let mut cfg = quick_cfg();
        cfg.machine.gpus_per_node = 0;
        assert_empty_cluster(cfg);
    }

    #[test]
    fn dlrm_simulates_end_to_end() {
        let data = DatasetSpec::criteo();
        let spec = ModelKind::Dlrm.build(&data);
        let out = simulate(&spec, Strategy::Hybrid, &quick_cfg()).unwrap();
        assert!(out.result.makespan.as_secs_f64() > 0.0);
        assert!(out.ips_per_node() > 0.0);
        assert_eq!(out.executors, 2);
        // Every category of work exists in the trace.
        for cat in [
            TaskCategory::DataIo,
            TaskCategory::Memory,
            TaskCategory::Communication,
            TaskCategory::Computation,
        ] {
            assert!(
                out.result.records.iter().any(|r| r.category == cat),
                "missing {cat}"
            );
        }
    }

    #[test]
    fn a_module_reading_a_field_no_chain_owns_still_simulates() {
        // The field contributes no edge, as in the stage graph.
        let data = DatasetSpec::criteo();
        let mut spec = ModelKind::Dlrm.build(&data);
        let past = spec
            .chains
            .iter()
            .flat_map(|c| c.fields.iter())
            .max()
            .unwrap()
            + 7;
        spec.modules[0].input_fields.push(past);
        let out = simulate(&spec, Strategy::Hybrid, &quick_cfg()).unwrap();
        assert!(out.ips_per_node() > 0.0);
    }

    #[test]
    fn an_mlp_without_embeddings_waits_for_the_data_load() {
        let data = DatasetSpec::criteo();
        let mut spec = ModelKind::Dlrm.build(&data);
        spec.chains.clear();
        spec.modules.clear();
        let out = simulate(&spec, Strategy::Hybrid, &quick_cfg()).unwrap();
        // The first task of each kind is its launcher dispatch.
        let first = |kind: OpKind| out.causal().find(|c| c.kind == kind).unwrap();
        let load = out
            .causal()
            .find(|c| !c.launcher && c.kind == OpKind::DataLoad);
        assert_eq!(first(OpKind::MlpCompute).deps, [load.unwrap().task]);
    }

    #[test]
    fn ps_uses_server_resources() {
        let data = DatasetSpec::criteo();
        let spec = ModelKind::Dlrm.build(&data);
        let out = simulate(&spec, Strategy::PsAsync { servers: 1 }, &quick_cfg()).unwrap();
        // Server node exists beyond the 2 worker machines; its NIC is busy.
        // The precomputed handle set replaces the old "ps0/" name-prefix scan.
        let handles: std::collections::HashSet<ResourceId> =
            out.server_resources.iter().copied().collect();
        assert!(
            !handles.is_empty(),
            "PS strategy must expose server handles"
        );
        let server_busy: f64 = handles
            .iter()
            .map(|&id| out.result.resources[id.0].busy.as_secs_f64())
            .sum();
        assert!(server_busy > 0.0, "PS server should carry load");
    }

    #[test]
    fn ps_without_servers_is_an_error() {
        let spec = ModelKind::Dlrm.build(&DatasetSpec::criteo());
        for strategy in [
            Strategy::PsAsync { servers: 0 },
            Strategy::PsSync { servers: 0 },
        ] {
            let err = simulate(&spec, strategy, &quick_cfg()).unwrap_err();
            assert!(matches!(err, EngineError::NoServer { .. }), "{err}");
        }
    }

    #[test]
    fn async_ps_is_faster_than_sync_ps_per_iteration() {
        let data = DatasetSpec::criteo();
        let spec = ModelKind::Dlrm.build(&data);
        let a = simulate(&spec, Strategy::PsAsync { servers: 1 }, &quick_cfg()).unwrap();
        let s = simulate(&spec, Strategy::PsSync { servers: 1 }, &quick_cfg()).unwrap();
        assert!(
            a.result.makespan <= s.result.makespan,
            "removing the barrier cannot slow things down"
        );
    }

    #[test]
    fn hybrid_beats_ps_on_throughput() {
        // At production batch sizes the PS servers congest; collectives win.
        let data = DatasetSpec::criteo();
        let spec = ModelKind::Dlrm.build(&data);
        let mut cfg = quick_cfg();
        cfg.batch_per_executor = 8192;
        cfg.machines = 4;
        let hybrid = simulate(&spec, Strategy::Hybrid, &cfg).unwrap();
        let ps = simulate(&spec, Strategy::PsAsync { servers: 1 }, &cfg).unwrap();
        assert!(
            hybrid.ips_per_node() > ps.ips_per_node(),
            "hybrid {} <= ps {}",
            hybrid.ips_per_node(),
            ps.ips_per_node()
        );
    }

    #[test]
    fn micro_batching_overlaps_phases() {
        let data = DatasetSpec::alibaba();
        let mut spec = ModelKind::Din.build(&data);
        let mut cfg = quick_cfg();
        cfg.batch_per_executor = 4096;
        let serial = simulate(&spec, Strategy::Hybrid, &cfg).unwrap();
        spec.micro_batches = 2;
        let pipelined = simulate(&spec, Strategy::Hybrid, &cfg).unwrap();
        // On an unpacked graph the re-dispatch cost can offset part of the
        // overlap, but pipelining must not be catastrophic.
        assert!(
            pipelined.result.makespan.as_secs_f64() < serial.result.makespan.as_secs_f64() * 1.15,
            "pipelining should not hurt badly: {} vs {}",
            pipelined.result.makespan,
            serial.result.makespan
        );
    }

    #[test]
    fn more_executors_increase_cluster_throughput() {
        let data = DatasetSpec::criteo();
        let spec = ModelKind::Dlrm.build(&data);
        let mut cfg = quick_cfg();
        cfg.machines = 1;
        let one = simulate(&spec, Strategy::Hybrid, &cfg).unwrap();
        cfg.machines = 4;
        let four = simulate(&spec, Strategy::Hybrid, &cfg).unwrap();
        let total_one = one.ips_per_node() * 1.0;
        let total_four = four.ips_per_node() * 4.0;
        assert!(
            total_four > 2.0 * total_one,
            "scaling out should help: 1 node {total_one}, 4 nodes {total_four}"
        );
    }
}
