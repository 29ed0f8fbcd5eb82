//! The discrete-event execution engine.
//!
//! The engine executes a DAG of [`Task`]s over a set of resources. A task
//! becomes *ready* when all of its dependencies have completed; ready tasks
//! are dispatched in ready-time order (FIFO per resource) onto the earliest
//! free channel of their resource, paying the resource's launch overhead plus
//! `work / rate` of service time. The result records the exact `(start, end)`
//! interval of every task, from which the metrics module derives utilization
//! timelines, bandwidth traces, and time breakdowns.

use crate::resource::{ResourceId, ResourceKind, ResourceSpec, ResourceState};
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// Identifies a task within one engine run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Coarse category of a task, used for time-breakdown attribution (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TaskCategory {
    /// Reading and decoding training data from remote storage.
    DataIo,
    /// Embedding lookup and other memory-bound work.
    Memory,
    /// Parameter / embedding exchange between executors.
    Communication,
    /// Dense arithmetic (feature interaction, MLP, gradients).
    Computation,
    /// Synchronization barriers and bookkeeping.
    Sync,
}

impl TaskCategory {
    /// All categories, in a fixed display order.
    pub const ALL: [TaskCategory; 5] = [
        TaskCategory::DataIo,
        TaskCategory::Memory,
        TaskCategory::Communication,
        TaskCategory::Computation,
        TaskCategory::Sync,
    ];

    /// The category's display name, e.g. `communication`.
    pub fn name(self) -> &'static str {
        match self {
            TaskCategory::DataIo => "io",
            TaskCategory::Memory => "memory",
            TaskCategory::Communication => "communication",
            TaskCategory::Computation => "computation",
            TaskCategory::Sync => "sync",
        }
    }
}

impl fmt::Display for TaskCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One node of the task DAG. Its dependency edges are passed to
/// [`Engine::add_task`] and stored once, in the engine's edge table.
#[derive(Debug, Clone)]
pub struct Task {
    /// Resource the task executes on.
    pub resource: ResourceId,
    /// Amount of work in the resource's units (FLOPs or bytes).
    pub work: f64,
    /// Attribution category for breakdowns.
    pub category: TaskCategory,
}

impl Task {
    /// Creates a task.
    pub fn new(resource: ResourceId, work: f64, category: TaskCategory) -> Self {
        Task {
            resource,
            work,
            category,
        }
    }
}

/// What delayed a task's start: the edge the critical path follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binding {
    /// Started the moment it was created (no wait).
    Immediate,
    /// Waited for a dependency to finish.
    Dependency(TaskId),
    /// Waited for its resource channel, held by this task.
    Resource(TaskId),
}

/// The execution record of one task.
#[derive(Debug, Clone, Copy)]
pub struct TaskRecord {
    /// Task this record belongs to.
    pub task: TaskId,
    /// Resource it ran on.
    pub resource: ResourceId,
    /// Attribution category.
    pub category: TaskCategory,
    /// Instant all dependencies were satisfied.
    pub ready: SimTime,
    /// Instant the resource channel started serving it (includes launch
    /// overhead).
    pub start: SimTime,
    /// Completion instant.
    pub end: SimTime,
    /// Work units served.
    pub work: f64,
    /// What the task waited on before starting.
    pub binding: Binding,
}

/// Per-resource summary after a run.
#[derive(Debug, Clone)]
pub struct ResourceSummary {
    /// Static description of the resource.
    pub spec: ResourceSpec,
    /// Total busy time summed over channels.
    pub busy: SimDuration,
    /// Total work units served.
    pub work_served: f64,
    /// Number of operations served.
    pub ops_served: u64,
}

/// The run's dependency edges, stored once: task `t`'s dependencies are
/// `ids[ends[t - 1]..ends[t]]` (from 0 for the first task), in the order
/// they were added.
#[derive(Debug, Clone, Default)]
struct Edges {
    ends: Vec<u32>,
    ids: Vec<TaskId>,
}

impl Edges {
    fn of(&self, task: usize) -> &[TaskId] {
        let start = if task == 0 { 0 } else { self.ends[task - 1] };
        &self.ids[start as usize..self.ends[task] as usize]
    }
}

/// Output of [`Engine::run`].
#[derive(Debug, Clone)]
pub struct RunResult {
    /// One record per task, indexed by `TaskId`.
    pub records: Vec<TaskRecord>,
    /// Completion time of the last task.
    pub makespan: SimTime,
    /// Per-resource summaries, indexed by `ResourceId`.
    pub resources: Vec<ResourceSummary>,
    /// The dependency edges the tasks were added with.
    edges: Edges,
}

impl RunResult {
    /// The tasks `task` waited for: exactly the slice it was added with.
    pub fn deps(&self, task: TaskId) -> &[TaskId] {
        self.edges.of(task.0)
    }

    /// Walks the chain of binding constraints back from the last-finishing
    /// task: the sequence of tasks whose waits determined the makespan,
    /// earliest first. The single most useful diagnostic for "why is this
    /// schedule slow" — a path dominated by `Resource` bindings on one kind
    /// names the bottleneck.
    pub fn critical_path(&self) -> Vec<TaskId> {
        let Some(last) = self
            .records
            .iter()
            .max_by_key(|r| (r.end, r.task.0))
            .map(|r| r.task)
        else {
            return Vec::new();
        };
        let mut path = vec![last];
        let mut cur = last;
        loop {
            match self.records[cur.0].binding {
                Binding::Immediate => break,
                Binding::Dependency(p) | Binding::Resource(p) => {
                    path.push(p);
                    cur = p;
                }
            }
        }
        path.reverse();
        path
    }

    /// Busy time along the critical path attributed per resource kind —
    /// where the makespan was actually spent.
    pub fn critical_path_by_kind(&self) -> Vec<(ResourceKind, SimDuration)> {
        let mut per: std::collections::BTreeMap<ResourceKind, SimDuration> =
            std::collections::BTreeMap::new();
        for &t in &self.critical_path() {
            let rec = &self.records[t.0];
            let kind = self.resources[rec.resource.0].spec.kind;
            *per.entry(kind).or_insert(SimDuration::ZERO) += rec.end - rec.start;
        }
        per.into_iter().collect()
    }
}

/// Errors from building or running a task DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A task references a dependency with an id not yet added.
    UnknownDependency {
        /// The referencing task.
        task: TaskId,
        /// The missing dependency.
        dep: TaskId,
    },
    /// A task references a resource that does not exist.
    UnknownResource {
        /// The referencing task.
        task: TaskId,
        /// The missing resource.
        resource: ResourceId,
    },
    /// A task's work is negative or not finite.
    InvalidWork {
        /// The task that would have been added.
        task: TaskId,
    },
    /// A task targets a resource that cannot serve it: one with no
    /// channels, or a rate that is not positive.
    InvalidResource {
        /// The task that would have been added.
        task: TaskId,
        /// The resource it targets.
        resource: ResourceId,
    },
    /// The DAG contains a cycle (some tasks never became ready).
    Cycle {
        /// Number of tasks that never completed.
        stuck: usize,
    },
    /// A task targets a parameter server, but the cluster has none.
    NoServer {
        /// The task that would have been added.
        task: TaskId,
    },
    /// The cluster would have no executor: no worker machine, or machines
    /// without GPUs.
    EmptyCluster {
        /// Worker machines requested.
        machines: usize,
        /// GPUs (executors) per machine.
        gpus_per_node: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::UnknownDependency { task, dep } => {
                write!(f, "task {} depends on unknown task {}", task.0, dep.0)
            }
            EngineError::UnknownResource { task, resource } => {
                write!(f, "task {} uses unknown resource {}", task.0, resource.0)
            }
            EngineError::InvalidWork { task } => {
                write!(f, "task {} has negative or non-finite work", task.0)
            }
            EngineError::InvalidResource { task, resource } => write!(
                f,
                "task {} targets resource {}, which has no channels or a non-positive rate",
                task.0, resource.0
            ),
            EngineError::Cycle { stuck } => {
                write!(
                    f,
                    "task graph has a cycle; {stuck} tasks never became ready"
                )
            }
            EngineError::NoServer { task } => write!(
                f,
                "task {} targets a parameter server, but the cluster has none",
                task.0
            ),
            EngineError::EmptyCluster {
                machines,
                gpus_per_node,
            } => write!(
                f,
                "a cluster of {machines} machines with {gpus_per_node} GPUs each has no executor"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// A discrete-event engine holding resources and a task DAG.
///
/// Every dependency edge is stored once, in one flat table of offsets plus
/// task ids that [`Engine::run`] hands on to its [`RunResult`]. The event
/// loop touches only flat integer-indexed arrays (the task array, CSR
/// successor lists, one channel arena) — no strings, hash maps, or nested
/// `Vec`s on the hot path.
#[derive(Debug, Default)]
pub struct Engine {
    resources: Vec<ResourceState>,
    tasks: Vec<Task>,
    edges: Edges,
}

impl Engine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Registers a resource and returns its id.
    pub fn add_resource(&mut self, spec: ResourceSpec) -> ResourceId {
        let id = ResourceId(self.resources.len());
        self.resources.push(ResourceState::new(spec));
        id
    }

    /// Number of registered tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Spec of a registered resource.
    pub fn resource_spec(&self, id: ResourceId) -> &ResourceSpec {
        &self.resources[id.0].spec
    }

    /// Adds a task that waits for `deps`; dependencies must already have
    /// been added (this enforces acyclicity by construction for the common
    /// builder pattern). The edges are appended to the engine's edge table.
    ///
    /// Invalid input is refused here, so [`Engine::run`] cannot panic on
    /// it: an unknown resource or dependency, a resource with no channels
    /// or a non-positive (or NaN) rate, and negative or non-finite work.
    pub fn add_task(&mut self, task: Task, deps: &[TaskId]) -> Result<TaskId, EngineError> {
        let id = TaskId(self.tasks.len());
        let Some(res) = self.resources.get(task.resource.0) else {
            return Err(EngineError::UnknownResource {
                task: id,
                resource: task.resource,
            });
        };
        if res.spec.channels == 0 || res.spec.rate.is_nan() || res.spec.rate <= 0.0 {
            return Err(EngineError::InvalidResource {
                task: id,
                resource: task.resource,
            });
        }
        if !task.work.is_finite() || task.work < 0.0 {
            return Err(EngineError::InvalidWork { task: id });
        }
        if let Some(&dep) = deps.iter().find(|d| d.0 >= id.0) {
            return Err(EngineError::UnknownDependency { task: id, dep });
        }
        self.tasks.push(task);
        self.edges.ids.extend_from_slice(deps);
        self.edges.ends.push(self.edges.ids.len() as u32);
        Ok(id)
    }

    /// Executes the DAG to completion and returns the full trace.
    ///
    /// Tasks are plain values (resource, work, category) with no heap
    /// fields. Before the loop starts, successor lists are built in CSR form
    /// from the edge table, and every resource's channels are laid out in a
    /// single arena sliced by per-resource offsets. The loop then pops
    /// `u32` handles off one global ready heap; it performs no string
    /// comparison or map lookup.
    pub fn run(mut self) -> Result<RunResult, EngineError> {
        let n = self.tasks.len();
        let n_res = self.resources.len();

        // In-degrees from the edge table, and successor lists in CSR form
        // from its ids, preserving per-dependency insertion order (tasks are
        // scanned in id order).
        let edges = &self.edges;
        let mut indegree: Vec<u32> = (0..n).map(|i| edges.of(i).len() as u32).collect();
        let mut succ_off: Vec<u32> = vec![0; n + 1];
        for &dep in &edges.ids {
            succ_off[dep.0 + 1] += 1;
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
        }
        let mut succ: Vec<u32> = vec![0; succ_off[n] as usize];
        let mut cursor: Vec<u32> = succ_off[..n].to_vec();
        for i in 0..n {
            for &dep in edges.of(i) {
                succ[cursor[dep.0] as usize] = i as u32;
                cursor[dep.0] += 1;
            }
        }

        // ready_at[t] = latest dep end; updated as deps finish.
        let mut ready_at: Vec<SimTime> = vec![SimTime::ZERO; n];
        // The dependency that set ready_at (u32::MAX = none), for
        // critical-path analysis.
        let mut ready_by: Vec<u32> = vec![u32::MAX; n];

        // One flat channel arena for all resources: next-free time and last
        // task served (u32::MAX = none) per channel, sliced by chan_off.
        let mut chan_off: Vec<u32> = Vec::with_capacity(n_res + 1);
        chan_off.push(0);
        for r in &self.resources {
            chan_off.push(chan_off[chan_off.len() - 1] + r.spec.channels as u32);
        }
        let n_chan = chan_off[n_res] as usize;
        let mut chan_free: Vec<SimTime> = vec![SimTime::ZERO; n_chan];
        let mut chan_last: Vec<u32> = vec![u32::MAX; n_chan];

        let mut records: Vec<Option<TaskRecord>> = vec![None; n];

        // Min-heap of (ready time, handle) so dispatch order is deterministic.
        let mut heap: BinaryHeap<Reverse<(SimTime, u32)>> = BinaryHeap::new();
        for (i, deg) in indegree.iter().enumerate() {
            if *deg == 0 {
                heap.push(Reverse((ready_at[i], i as u32)));
            }
        }

        // One dispatch per pop, in global ready order, which is also each
        // resource's FIFO order (a zero-duration task can release a
        // same-timestamp successor, so batching pops would reorder
        // dispatches).
        let mut completed = 0usize;
        let mut makespan = SimTime::ZERO;
        while let Some(Reverse((_, idx))) = heap.pop() {
            let i = idx as usize;
            let task = &self.tasks[i];
            let r = task.resource.0;
            let ready = ready_at[i];
            let lo = chan_off[r] as usize;
            let hi = chan_off[r + 1] as usize;
            let (ch, start, end) =
                self.resources[r].dispatch_on(&mut chan_free[lo..hi], ready, task.work);
            let binding = if start > ready {
                match chan_last[lo + ch] {
                    u32::MAX => Binding::Immediate,
                    last => Binding::Resource(TaskId(last as usize)),
                }
            } else {
                match ready_by[i] {
                    u32::MAX => Binding::Immediate,
                    by => Binding::Dependency(TaskId(by as usize)),
                }
            };
            chan_last[lo + ch] = idx;
            records[i] = Some(TaskRecord {
                task: TaskId(i),
                resource: ResourceId(r),
                category: task.category,
                ready,
                start,
                end,
                work: task.work,
                binding,
            });
            completed += 1;
            makespan = makespan.max(end);
            // Complete: release successors via the CSR edge list.
            for &edge in &succ[succ_off[i] as usize..succ_off[i + 1] as usize] {
                let s = edge as usize;
                if end >= ready_at[s] {
                    ready_at[s] = end;
                    ready_by[s] = idx;
                }
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    heap.push(Reverse((ready_at[s], s as u32)));
                }
            }
        }

        if completed != n {
            return Err(EngineError::Cycle {
                stuck: n - completed,
            });
        }

        let resources = self
            .resources
            .into_iter()
            .map(|r| ResourceSummary {
                spec: r.spec,
                busy: r.busy,
                work_served: r.work_served,
                ops_served: r.ops_served,
            })
            .collect();

        // The loop dispatched all `n` tasks (the cycle check returned
        // otherwise), and a dispatch sets its task's record.
        #[allow(clippy::expect_used)]
        let records = records
            .into_iter()
            .map(|r| r.expect("all tasks completed"))
            .collect();
        Ok(RunResult {
            records,
            makespan,
            resources,
            edges: self.edges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu(engine: &mut Engine) -> ResourceId {
        engine.add_resource(ResourceSpec::new("gpu", ResourceKind::GpuSm, 1e9, 0))
    }

    fn net(engine: &mut Engine) -> ResourceId {
        engine.add_resource(ResourceSpec::new("net", ResourceKind::Network, 1e9, 0))
    }

    #[test]
    fn chain_executes_in_order() {
        let mut e = Engine::new();
        let g = gpu(&mut e);
        let a = e
            .add_task(Task::new(g, 1e6, TaskCategory::Computation), &[])
            .unwrap();
        let b = e
            .add_task(Task::new(g, 1e6, TaskCategory::Computation), &[a])
            .unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.records[a.0].start, SimTime::ZERO);
        assert_eq!(r.records[b.0].start, r.records[a.0].end);
        assert_eq!(r.makespan.as_nanos(), 2_000_000);
    }

    #[test]
    fn independent_tasks_on_distinct_resources_overlap() {
        let mut e = Engine::new();
        let g = gpu(&mut e);
        let nw = net(&mut e);
        let a = e
            .add_task(Task::new(g, 1e6, TaskCategory::Computation), &[])
            .unwrap();
        let b = e
            .add_task(Task::new(nw, 1e6, TaskCategory::Communication), &[])
            .unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.records[a.0].start, SimTime::ZERO);
        assert_eq!(r.records[b.0].start, SimTime::ZERO);
        assert_eq!(r.makespan.as_nanos(), 1_000_000, "perfect overlap");
    }

    #[test]
    fn diamond_join_waits_for_slowest_parent() {
        let mut e = Engine::new();
        let g = gpu(&mut e);
        let nw = net(&mut e);
        let a = e
            .add_task(Task::new(g, 1e6, TaskCategory::Computation), &[])
            .unwrap();
        let b = e
            .add_task(Task::new(nw, 5e6, TaskCategory::Communication), &[])
            .unwrap();
        let c = e
            .add_task(Task::new(g, 1e6, TaskCategory::Computation), &[a, b])
            .unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.records[c.0].ready, r.records[b.0].end);
        assert_eq!(r.makespan.as_nanos(), 6_000_000);
    }

    #[test]
    fn launch_overhead_dominates_fragmentary_ops() {
        // The packing motivation: 1000 tiny ops pay 1000 overheads; one packed
        // op pays a single overhead for the same total work.
        let overhead = SimDuration::from_micros(10);
        let total_work = 1e6;

        let mut frag = Engine::new();
        let g = frag.add_resource(
            ResourceSpec::new("gpu", ResourceKind::GpuSm, 1e9, 0).with_launch_overhead(overhead),
        );
        for _ in 0..1000 {
            frag.add_task(Task::new(g, total_work / 1000.0, TaskCategory::Memory), &[])
                .unwrap();
        }
        let frag_time = frag.run().unwrap().makespan;

        let mut packed = Engine::new();
        let g = packed.add_resource(
            ResourceSpec::new("gpu", ResourceKind::GpuSm, 1e9, 0).with_launch_overhead(overhead),
        );
        packed
            .add_task(Task::new(g, total_work, TaskCategory::Memory), &[])
            .unwrap();
        let packed_time = packed.run().unwrap().makespan;

        assert!(
            frag_time.as_secs_f64() > 5.0 * packed_time.as_secs_f64(),
            "fragmentary {frag_time} should be >5x packed {packed_time}"
        );
    }

    #[test]
    fn forward_dependency_is_rejected() {
        let mut e = Engine::new();
        let g = gpu(&mut e);
        let err = e
            .add_task(Task::new(g, 1.0, TaskCategory::Computation), &[TaskId(7)])
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownDependency { .. }));
    }

    #[test]
    fn unknown_resource_is_rejected() {
        let mut e = Engine::new();
        let err = e
            .add_task(
                Task::new(ResourceId(3), 1.0, TaskCategory::Computation),
                &[],
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownResource { .. }));
    }

    #[test]
    fn a_resource_with_no_channels_is_rejected() {
        let mut e = Engine::new();
        let mut spec = ResourceSpec::new("gpu", ResourceKind::GpuSm, 1e9, 0);
        spec.channels = 0;
        let g = e.add_resource(spec);
        let err = e
            .add_task(Task::new(g, 1.0, TaskCategory::Computation), &[])
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::InvalidResource {
                task: TaskId(0),
                resource: g
            }
        );
    }

    #[test]
    fn a_resource_rate_that_is_not_positive_is_rejected() {
        for rate in [0.0, f64::NAN, -1.0] {
            let mut e = Engine::new();
            let mut spec = ResourceSpec::new("gpu", ResourceKind::GpuSm, 1e9, 0);
            spec.rate = rate;
            let g = e.add_resource(spec);
            let err = e
                .add_task(Task::new(g, 1.0, TaskCategory::Computation), &[])
                .unwrap_err();
            assert!(
                matches!(err, EngineError::InvalidResource { .. }),
                "rate {rate}"
            );
        }
    }

    #[test]
    fn work_that_is_negative_or_not_finite_is_rejected() {
        for work in [f64::INFINITY, -1.0, f64::NAN] {
            let mut e = Engine::new();
            let g = gpu(&mut e);
            let err = e
                .add_task(Task::new(g, work, TaskCategory::Computation), &[])
                .unwrap_err();
            assert_eq!(
                err,
                EngineError::InvalidWork { task: TaskId(0) },
                "work {work}"
            );
            assert_eq!(e.task_count(), 0, "a refused task is not added");
        }
    }

    #[test]
    fn summaries_report_busy_and_ops() {
        let mut e = Engine::new();
        let g = gpu(&mut e);
        e.add_task(Task::new(g, 2e9, TaskCategory::Computation), &[])
            .unwrap();
        e.add_task(Task::new(g, 2e9, TaskCategory::Computation), &[])
            .unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.resources[0].ops_served, 2);
        // Busy for the whole run: one channel, fully utilized.
        assert_eq!(r.resources[0].busy, r.makespan - SimTime::ZERO);
        assert_eq!(r.resources[0].busy, SimDuration::from_secs_f64(4.0));
        assert!(r
            .resources
            .iter()
            .all(|s| s.spec.kind != ResourceKind::Pcie || s.busy == SimDuration::ZERO));
    }

    #[test]
    fn critical_path_follows_the_slow_chain() {
        let mut e = Engine::new();
        let g = gpu(&mut e);
        let nw = net(&mut e);
        // Slow comm (5 ms) feeding compute (1 ms); a fast independent task.
        let slow = e
            .add_task(Task::new(nw, 5e6, TaskCategory::Communication), &[])
            .unwrap();
        let _fast = e
            .add_task(Task::new(g, 1e5, TaskCategory::Computation), &[])
            .unwrap();
        let tail = e
            .add_task(Task::new(g, 1e6, TaskCategory::Computation), &[slow])
            .unwrap();
        let r = e.run().unwrap();
        let path = r.critical_path();
        assert_eq!(path, vec![slow, tail]);
        let by_kind = r.critical_path_by_kind();
        let net_time = by_kind
            .iter()
            .find(|(k, _)| *k == ResourceKind::Network)
            .map(|(_, d)| *d)
            .unwrap();
        assert_eq!(net_time, SimDuration::from_millis(5), "network dominates");
    }

    #[test]
    fn critical_path_attributes_resource_queueing() {
        let mut e = Engine::new();
        let g = gpu(&mut e);
        // Two independent 1-ms tasks on one resource: the second queues.
        let a = e
            .add_task(Task::new(g, 1e6, TaskCategory::Computation), &[])
            .unwrap();
        let b = e
            .add_task(Task::new(g, 1e6, TaskCategory::Computation), &[])
            .unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.records[b.0].binding, Binding::Resource(a));
        assert_eq!(r.records[a.0].binding, Binding::Immediate);
        assert_eq!(r.critical_path(), vec![a, b]);
    }

    #[test]
    fn deterministic_across_runs() {
        let build = || {
            let mut e = Engine::new();
            let g = gpu(&mut e);
            let nw = net(&mut e);
            let mut prev = None;
            for i in 0..50 {
                let res = if i % 3 == 0 { nw } else { g };
                let t = Task::new(res, (i as f64 + 1.0) * 1e4, TaskCategory::Memory);
                let deps: Vec<TaskId> = prev.filter(|_| i % 2 == 0).into_iter().collect();
                prev = Some(e.add_task(t, &deps).unwrap());
            }
            e.run().unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(a.makespan, b.makespan);
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.start, y.start);
            assert_eq!(x.end, y.end);
        }
    }
}
