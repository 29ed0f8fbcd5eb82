//! The discrete-event engine against a plain reference simulator.
//!
//! The reference implements only what the `engine` module doc states, in
//! the most direct form: at every step it scans all tasks for the next
//! event (the released task with the earliest ready time, lowest id first),
//! puts it on the earliest free channel of its resource (lowest channel
//! first), and serves it for the launch overhead plus `work / rate`,
//! stretched by the resource's `CongestionSpec` slowdown for the time it
//! queued. It is O(n²) and keeps no heap, queue or edge index.
//!
//! On random DAGs with multi-channel resources, launch overheads,
//! congestion, zero-work tasks and many equal ready times, every
//! `TaskRecord`'s `(ready, start, end, resource, binding)` must equal the
//! reference's, and `RunResult::deps` must return exactly the dependency
//! slice each task was added with. `binding` names the task that held the
//! chosen channel, so it also pins the channel choice.

use picasso_sim::{
    Binding, CongestionSpec, Engine, ResourceId, ResourceKind, ResourceSpec, RunResult,
    SimDuration, SimTime, Task, TaskCategory, TaskId,
};
use proptest::prelude::*;

/// A random run: resources and a DAG over them.
#[derive(Debug, Clone)]
struct RunSpec {
    /// `(channels, launch overhead in µs, congestion alpha in quarters
    /// (0 = none), congestion tau in µs)`.
    resources: Vec<(usize, u64, u64, u64)>,
    /// `(resource, work class, work, deps)`. Work class 0 is zero work and
    /// class 1 a fixed 10 µs, so ends (and hence ready times) often tie.
    tasks: Vec<(usize, u64, f64, Vec<usize>)>,
}

fn run_strategy() -> impl Strategy<Value = RunSpec> {
    (1usize..5, 0usize..60).prop_flat_map(|(n_res, n_tasks)| {
        let resources =
            proptest::collection::vec((1usize..4, 0u64..3, 0u64..6, 1u64..40), n_res..n_res + 1);
        let tasks: Vec<_> = (0..n_tasks)
            .map(|i| {
                (
                    0..n_res,
                    0u64..4,
                    0.0f64..1e5,
                    proptest::collection::vec(0..i.max(1), 0..(i.min(3) + 1)),
                )
            })
            .collect();
        (resources, tasks).prop_map(|(resources, tasks)| RunSpec { resources, tasks })
    })
}

fn resource_specs(spec: &RunSpec) -> Vec<ResourceSpec> {
    spec.resources
        .iter()
        .enumerate()
        .map(|(i, &(channels, overhead_us, alpha_q, tau_us))| {
            let congestion = (alpha_q > 0).then(|| CongestionSpec {
                alpha: alpha_q as f64 / 4.0,
                tau: SimDuration::from_micros(tau_us),
            });
            ResourceSpec::new(format!("r{i}"), ResourceKind::ALL[i % 7], 1e9, 0)
                .with_channels(channels)
                .with_launch_overhead(SimDuration::from_micros(overhead_us))
                .with_congestion_opt(congestion)
        })
        .collect()
}

/// Work units of task `(class, work)`.
fn work_of(class: u64, work: f64) -> f64 {
    match class {
        0 => 0.0,
        1 => 1e4,
        _ => work,
    }
}

/// Task `i`'s dependency list as task ids (dependencies point backward;
/// the first task has none).
fn deps_of(spec: &RunSpec, i: usize) -> Vec<TaskId> {
    let deps = &spec.tasks[i].3;
    deps.iter()
        .filter(|&&d| d < i)
        .map(|&d| TaskId(d))
        .collect()
}

fn run(spec: &RunSpec) -> RunResult {
    let mut e = Engine::new();
    let rids: Vec<ResourceId> = resource_specs(spec)
        .into_iter()
        .map(|r| e.add_resource(r))
        .collect();
    for (i, &(r, class, work, _)) in spec.tasks.iter().enumerate() {
        let task = Task::new(rids[r], work_of(class, work), TaskCategory::Computation);
        e.add_task(task, &deps_of(spec, i)).unwrap();
    }
    e.run().unwrap()
}

/// The reference's record of one task.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Expected {
    ready: SimTime,
    start: SimTime,
    end: SimTime,
    resource: ResourceId,
    binding: Binding,
}

fn reference(spec: &RunSpec) -> Vec<Expected> {
    let resources = resource_specs(spec);
    let n = spec.tasks.len();
    let deps: Vec<Vec<TaskId>> = (0..n).map(|i| deps_of(spec, i)).collect();
    // Per resource and channel: (free from, last task served).
    let mut channels: Vec<Vec<(SimTime, Option<TaskId>)>> = resources
        .iter()
        .map(|r| vec![(SimTime::ZERO, None); r.channels])
        .collect();
    let mut done: Vec<Option<Expected>> = vec![None; n];
    // Dispatch step of every dispatched task: among dependencies that end
    // at the same instant, the one dispatched last set the ready time.
    let mut step_of: Vec<usize> = vec![0; n];
    for step in 0..n {
        // The next event: the earliest ready time among released tasks,
        // ties in task-id (creation) order.
        let mut next: Option<(SimTime, usize)> = None;
        for t in 0..n {
            if done[t].is_some() || deps[t].iter().any(|d| done[d.0].is_none()) {
                continue;
            }
            let ready = deps[t]
                .iter()
                .map(|d| done[d.0].unwrap().end)
                .max()
                .unwrap_or(SimTime::ZERO);
            if next.is_none_or(|(r, _)| ready < r) {
                next = Some((ready, t));
            }
        }
        let (ready, t) = next.expect("the DAG is acyclic");
        let (r, class, work, _) = spec.tasks[t];
        let res = &resources[r];
        let ch = (0..res.channels)
            .min_by_key(|&c| (channels[r][c].0, c))
            .unwrap();
        let (free, last) = channels[r][ch];
        let start = ready.max(free);
        let mut service = res.service_time(work_of(class, work));
        if let Some(c) = res.congestion {
            service = SimDuration::from_secs_f64(service.as_secs_f64() * c.slowdown(start - ready));
        }
        let end = start + res.launch_overhead + service;
        let binding = if start > ready {
            last.map_or(Binding::Immediate, Binding::Resource)
        } else {
            deps[t]
                .iter()
                .max_by_key(|d| (done[d.0].unwrap().end, step_of[d.0]))
                .map_or(Binding::Immediate, |&d| Binding::Dependency(d))
        };
        channels[r][ch] = (end, Some(TaskId(t)));
        step_of[t] = step;
        done[t] = Some(Expected {
            ready,
            start,
            end,
            resource: ResourceId(r),
            binding,
        });
    }
    done.into_iter().map(Option::unwrap).collect()
}

proptest! {
    /// Every record equals the reference's, and every task's stored
    /// dependency slice is the one it was added with.
    #[test]
    fn engine_matches_the_reference(spec in run_strategy()) {
        let result = run(&spec);
        let expected = reference(&spec);
        prop_assert_eq!(result.records.len(), expected.len());
        for (i, (rec, want)) in result.records.iter().zip(&expected).enumerate() {
            let got = Expected {
                ready: rec.ready,
                start: rec.start,
                end: rec.end,
                resource: rec.resource,
                binding: rec.binding,
            };
            prop_assert_eq!(got, *want, "task {} of {:?}", i, spec);
            prop_assert_eq!(result.deps(TaskId(i)), &deps_of(&spec, i)[..]);
        }
        let makespan = expected.iter().map(|x| x.end).max().unwrap_or(SimTime::ZERO);
        prop_assert_eq!(result.makespan, makespan);
    }
}
