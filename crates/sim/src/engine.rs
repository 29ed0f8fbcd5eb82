//! The discrete-event execution engine.
//!
//! The engine executes a DAG of [`Task`]s over a set of resources. A task
//! becomes *ready* when all of its dependencies have completed; ready tasks
//! are dispatched in ready-time order (FIFO per resource) onto the earliest
//! free channel of their resource, paying the resource's launch overhead plus
//! `work / rate` of service time. The result records the exact `(start, end)`
//! interval of every task, from which the metrics module derives utilization
//! timelines, bandwidth traces, and time breakdowns.

use crate::intern::{NameId, NameInterner};
use crate::resource::{ResourceId, ResourceKind, ResourceSpec, ResourceState};
use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
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

/// One node of the task DAG.
#[derive(Debug, Clone)]
pub struct Task {
    /// Resource the task executes on.
    pub resource: ResourceId,
    /// Amount of work in the resource's units (FLOPs or bytes).
    pub work: f64,
    /// Attribution category for breakdowns.
    pub category: TaskCategory,
    /// Tasks that must complete before this one may start.
    pub deps: Vec<TaskId>,
    /// Earliest allowed start (e.g. data arrival), independent of deps.
    pub earliest: SimTime,
}

impl Task {
    /// Creates a task with no dependencies.
    pub fn new(resource: ResourceId, work: f64, category: TaskCategory) -> Self {
        Task {
            resource,
            work,
            category,
            deps: Vec::new(),
            earliest: SimTime::ZERO,
        }
    }

    /// Adds dependencies.
    pub fn after(mut self, deps: impl IntoIterator<Item = TaskId>) -> Self {
        self.deps.extend(deps);
        self
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

/// Output of [`Engine::run`].
#[derive(Debug, Clone)]
pub struct RunResult {
    /// One record per task, indexed by `TaskId`.
    pub records: Vec<TaskRecord>,
    /// Completion time of the last task.
    pub makespan: SimTime,
    /// Per-resource summaries, indexed by `ResourceId`.
    pub resources: Vec<ResourceSummary>,
}

impl RunResult {
    /// Record for a given task.
    pub fn record(&self, task: TaskId) -> &TaskRecord {
        &self.records[task.0]
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
    /// The DAG contains a cycle (some tasks never became ready).
    Cycle {
        /// Number of tasks that never completed.
        stuck: usize,
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
            EngineError::Cycle { stuck } => {
                write!(
                    f,
                    "task graph has a cycle; {stuck} tasks never became ready"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// A discrete-event engine holding resources and a task DAG.
///
/// Resource names are interned into dense [`NameId`] handles at registration
/// time; the event loop itself touches only flat integer-indexed arrays
/// (struct-of-arrays task fields, CSR successor lists, one channel arena) —
/// no strings, hash maps, or nested `Vec`s on the hot path.
#[derive(Debug, Default)]
pub struct Engine {
    resources: Vec<ResourceState>,
    tasks: Vec<Task>,
    /// Interner over resource names; handles are resolved at build time.
    names: NameInterner,
    /// Interned name per resource, indexed by `ResourceId`.
    name_ids: Vec<NameId>,
    /// First resource registered under each interned name, indexed by
    /// `NameId` (dense, since names are interned in registration order).
    name_owner: Vec<u32>,
}

impl Engine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        Engine::default()
    }

    /// Registers a resource and returns its id. The resource's name is
    /// interned here — this is the last point on the execution path where
    /// the name exists as a string.
    pub fn add_resource(&mut self, spec: ResourceSpec) -> ResourceId {
        let id = ResourceId(self.resources.len());
        let name_id = self.names.intern(&spec.name);
        if name_id.0 as usize == self.name_owner.len() {
            self.name_owner.push(id.0 as u32);
        }
        self.name_ids.push(name_id);
        self.resources.push(ResourceState::new(spec));
        id
    }

    /// Interned handle of a resource's name.
    pub fn resource_name_id(&self, id: ResourceId) -> NameId {
        self.name_ids[id.0]
    }

    /// The engine's name interner, for resolving handles back to strings at
    /// the reporting edges.
    pub fn names(&self) -> &NameInterner {
        &self.names
    }

    /// Looks up a resource by exact name through the interner (no scan over
    /// specs). If several resources share a name, the first one registered
    /// wins.
    pub fn resource_by_name(&self, name: &str) -> Option<ResourceId> {
        self.names
            .get(name)
            .map(|nid| ResourceId(self.name_owner[nid.0 as usize] as usize))
    }

    /// Number of registered tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Spec of a registered resource.
    pub fn resource_spec(&self, id: ResourceId) -> &ResourceSpec {
        &self.resources[id.0].spec
    }

    /// Adds a task; dependencies must already have been added (this enforces
    /// acyclicity by construction for the common builder pattern).
    pub fn add_task(&mut self, task: Task) -> Result<TaskId, EngineError> {
        let id = TaskId(self.tasks.len());
        if task.resource.0 >= self.resources.len() {
            return Err(EngineError::UnknownResource {
                task: id,
                resource: task.resource,
            });
        }
        for &dep in &task.deps {
            if dep.0 >= self.tasks.len() {
                return Err(EngineError::UnknownDependency { task: id, dep });
            }
        }
        self.tasks.push(task);
        Ok(id)
    }

    /// Executes the DAG to completion and returns the full trace.
    ///
    /// Before the loop starts, the DAG is flattened into dense arrays: the
    /// hot task fields (resource, work) as struct-of-arrays columns,
    /// successor lists in CSR form (one flat edge array plus offsets), and
    /// every resource's channels in a single arena sliced by per-resource
    /// offsets. The loop then moves `u32` handles between a global ready
    /// heap and preallocated per-resource FIFO queues — it performs no
    /// allocation, string comparison, or map lookup.
    pub fn run(mut self) -> Result<RunResult, EngineError> {
        let n = self.tasks.len();
        let n_res = self.resources.len();

        // Struct-of-arrays columns for the two task fields the loop reads
        // on every dispatch; `deps` stays behind in the cold Task structs.
        let task_res: Vec<u32> = self.tasks.iter().map(|t| t.resource.0 as u32).collect();
        let task_work: Vec<f64> = self.tasks.iter().map(|t| t.work).collect();

        // Successor lists in CSR form, preserving per-dependency insertion
        // order (tasks are scanned in id order, exactly the order the old
        // per-task Vec<TaskId> lists were appended in).
        let mut indegree: Vec<u32> = vec![0; n];
        let mut succ_off: Vec<u32> = vec![0; n + 1];
        for t in &self.tasks {
            for &dep in &t.deps {
                succ_off[dep.0 + 1] += 1;
            }
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
        }
        let mut succ: Vec<u32> = vec![0; succ_off[n] as usize];
        let mut cursor: Vec<u32> = succ_off[..n].to_vec();
        for (i, t) in self.tasks.iter().enumerate() {
            indegree[i] = t.deps.len() as u32;
            for &dep in &t.deps {
                succ[cursor[dep.0] as usize] = i as u32;
                cursor[dep.0] += 1;
            }
        }

        // ready_at[t] = max(earliest, latest dep end); updated as deps finish.
        let mut ready_at: Vec<SimTime> = self.tasks.iter().map(|t| t.earliest).collect();
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

        // Per-resource FIFO staging between the global event order and each
        // resource's dispatch order. Tasks drain immediately (per-resource
        // order must equal global ready order exactly — a zero-duration task
        // can release a same-timestamp successor, so batching pops would
        // reorder dispatches), but routing through the handle-indexed queues
        // keeps the loop free of any per-event allocation.
        let mut ready_q: Vec<VecDeque<u32>> =
            (0..n_res).map(|_| VecDeque::with_capacity(4)).collect();

        let mut completed = 0usize;
        let mut makespan = SimTime::ZERO;
        while let Some(Reverse((_, popped))) = heap.pop() {
            let r = task_res[popped as usize] as usize;
            ready_q[r].push_back(popped);
            while let Some(idx) = ready_q[r].pop_front() {
                let i = idx as usize;
                let ready = ready_at[i];
                let lo = chan_off[r] as usize;
                let hi = chan_off[r + 1] as usize;
                let (ch, start, end) =
                    self.resources[r].dispatch_on(&mut chan_free[lo..hi], ready, task_work[i]);
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
                    category: self.tasks[i].category,
                    ready,
                    start,
                    end,
                    work: task_work[i],
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

        Ok(RunResult {
            records: records
                .into_iter()
                .map(|r| r.expect("all tasks completed"))
                .collect(),
            makespan,
            resources,
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
            .add_task(Task::new(g, 1e6, TaskCategory::Computation))
            .unwrap();
        let b = e
            .add_task(Task::new(g, 1e6, TaskCategory::Computation).after([a]))
            .unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.record(a).start, SimTime::ZERO);
        assert_eq!(r.record(b).start, r.record(a).end);
        assert_eq!(r.makespan.as_nanos(), 2_000_000);
    }

    #[test]
    fn independent_tasks_on_distinct_resources_overlap() {
        let mut e = Engine::new();
        let g = gpu(&mut e);
        let nw = net(&mut e);
        let a = e
            .add_task(Task::new(g, 1e6, TaskCategory::Computation))
            .unwrap();
        let b = e
            .add_task(Task::new(nw, 1e6, TaskCategory::Communication))
            .unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.record(a).start, SimTime::ZERO);
        assert_eq!(r.record(b).start, SimTime::ZERO);
        assert_eq!(r.makespan.as_nanos(), 1_000_000, "perfect overlap");
    }

    #[test]
    fn diamond_join_waits_for_slowest_parent() {
        let mut e = Engine::new();
        let g = gpu(&mut e);
        let nw = net(&mut e);
        let a = e
            .add_task(Task::new(g, 1e6, TaskCategory::Computation))
            .unwrap();
        let b = e
            .add_task(Task::new(nw, 5e6, TaskCategory::Communication))
            .unwrap();
        let c = e
            .add_task(Task::new(g, 1e6, TaskCategory::Computation).after([a, b]))
            .unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.record(c).ready, r.record(b).end);
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
            frag.add_task(Task::new(g, total_work / 1000.0, TaskCategory::Memory))
                .unwrap();
        }
        let frag_time = frag.run().unwrap().makespan;

        let mut packed = Engine::new();
        let g = packed.add_resource(
            ResourceSpec::new("gpu", ResourceKind::GpuSm, 1e9, 0).with_launch_overhead(overhead),
        );
        packed
            .add_task(Task::new(g, total_work, TaskCategory::Memory))
            .unwrap();
        let packed_time = packed.run().unwrap().makespan;

        assert!(
            frag_time.as_secs_f64() > 5.0 * packed_time.as_secs_f64(),
            "fragmentary {frag_time} should be >5x packed {packed_time}"
        );
    }

    #[test]
    fn earliest_start_is_honoured() {
        let mut e = Engine::new();
        let g = gpu(&mut e);
        let mut t = Task::new(g, 1e6, TaskCategory::Computation);
        t.earliest = SimTime(42_000);
        let a = e.add_task(t).unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.record(a).start, SimTime(42_000));
    }

    #[test]
    fn forward_dependency_is_rejected() {
        let mut e = Engine::new();
        let g = gpu(&mut e);
        let err = e
            .add_task(Task::new(g, 1.0, TaskCategory::Computation).after([TaskId(7)]))
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownDependency { .. }));
    }

    #[test]
    fn unknown_resource_is_rejected() {
        let mut e = Engine::new();
        let err = e
            .add_task(Task::new(ResourceId(3), 1.0, TaskCategory::Computation))
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownResource { .. }));
    }

    #[test]
    fn summaries_report_busy_and_ops() {
        let mut e = Engine::new();
        let g = gpu(&mut e);
        e.add_task(Task::new(g, 2e9, TaskCategory::Computation))
            .unwrap();
        e.add_task(Task::new(g, 2e9, TaskCategory::Computation))
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
            .add_task(Task::new(nw, 5e6, TaskCategory::Communication))
            .unwrap();
        let _fast = e
            .add_task(Task::new(g, 1e5, TaskCategory::Computation))
            .unwrap();
        let tail = e
            .add_task(Task::new(g, 1e6, TaskCategory::Computation).after([slow]))
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
            .add_task(Task::new(g, 1e6, TaskCategory::Computation))
            .unwrap();
        let b = e
            .add_task(Task::new(g, 1e6, TaskCategory::Computation))
            .unwrap();
        let r = e.run().unwrap();
        assert_eq!(r.record(b).binding, Binding::Resource(a));
        assert_eq!(r.record(a).binding, Binding::Immediate);
        assert_eq!(r.critical_path(), vec![a, b]);
    }

    #[test]
    fn resource_names_are_interned_at_registration() {
        let mut e = Engine::new();
        let g = gpu(&mut e);
        let nw = net(&mut e);
        let gid = e.resource_name_id(g);
        let nid = e.resource_name_id(nw);
        assert_ne!(gid, nid);
        assert_eq!(e.names().resolve(gid), "gpu");
        assert_eq!(e.names().resolve(nid), "net");
        assert_eq!(e.resource_by_name("net"), Some(nw));
        assert_eq!(e.resource_by_name("tpu"), None);
    }

    #[test]
    fn duplicate_names_resolve_to_first_registration() {
        let mut e = Engine::new();
        let a = e.add_resource(ResourceSpec::new("x", ResourceKind::HostCpu, 1e9, 0));
        let b = e.add_resource(ResourceSpec::new("x", ResourceKind::HostCpu, 1e9, 1));
        assert_eq!(e.resource_name_id(a), e.resource_name_id(b));
        assert_eq!(e.resource_by_name("x"), Some(a));
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
                let mut t = Task::new(res, (i as f64 + 1.0) * 1e4, TaskCategory::Memory);
                if let Some(p) = prev {
                    if i % 2 == 0 {
                        t = t.after([p]);
                    }
                }
                prev = Some(e.add_task(t).unwrap());
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
