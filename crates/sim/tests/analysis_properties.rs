//! The causal analyzer against brute force.
//!
//! Random runs go through the engine, in the shape of `engine_reference.rs`:
//! at most 30 tasks over 1–3 resources of 1–3 channels each, 0–2 ns launch
//! overhead, zero-work tasks, and rate 1e9, so one work unit is one
//! nanosecond. Each analysis is checked figure by figure:
//!
//! - per overlap pair, `under_busy_ns`, `hidden_ns` and `achieved`, and per
//!   lane, `busy_ns` and `idle_ns`, against a per-nanosecond sweep;
//! - the lanes are the resources that ran a task, in name order;
//! - the critical path equals [`critical_path`], starts at a task with no
//!   dependencies, ends at the last-finishing task, and each step is the
//!   last-finishing dependency of the next, the smaller id winning ties;
//! - every lane's idle gaps, starved task and `blocker` equal an
//!   all-pairs scan of the lane.
//!
//! The interval algebra the analyzer measures with is checked the same
//! way: [`IntervalSet`]'s spans, union, intersection and difference are
//! the maximal runs of a per-nanosecond sweep.

use picasso_sim::analysis::{analyze, critical_path, PairSpec, PlannedInterleaving};
use picasso_sim::{
    Engine, IntervalSet, ResourceId, ResourceKind, ResourceSpec, RunResult, SimDuration, SimTime,
    Task, TaskCategory, TaskId, TaskRecord,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Resource names, deliberately not in declaration order.
const NAMES: [&str; 3] = ["n1/sm", "n0/nic", "n0/cpu"];
const KINDS: [ResourceKind; 3] = [
    ResourceKind::GpuSm,
    ResourceKind::Network,
    ResourceKind::HostCpu,
];
const CATEGORIES: [TaskCategory; 3] = [
    TaskCategory::Computation,
    TaskCategory::Communication,
    TaskCategory::Memory,
];

/// A random run: `(channels, launch overhead ns, kind)` per resource and
/// `(resource, category, work, deps)` per task.
#[derive(Debug, Clone)]
struct RunSpec {
    resources: Vec<(usize, u64, usize)>,
    tasks: Vec<(usize, usize, u64, Vec<usize>)>,
}

fn run_strategy() -> impl Strategy<Value = RunSpec> {
    (1usize..4, 0usize..31).prop_flat_map(|(n_res, n_tasks)| {
        let resources = vec((1usize..4, 0u64..3, 0usize..KINDS.len()), n_res..n_res + 1);
        let tasks: Vec<_> = (0..n_tasks)
            .map(|i| {
                (
                    0..n_res,
                    0..CATEGORIES.len(),
                    0u64..6,
                    vec(0..i.max(1), 0..(i.min(3) + 1)),
                )
            })
            .collect();
        (resources, tasks).prop_map(|(resources, tasks)| RunSpec { resources, tasks })
    })
}

fn run(spec: &RunSpec) -> RunResult {
    let mut e = Engine::new();
    for (i, &(channels, overhead, kind)) in spec.resources.iter().enumerate() {
        let r = ResourceSpec::new(NAMES[i], KINDS[kind], 1e9, 0)
            .with_channels(channels)
            .with_launch_overhead(SimDuration::from_nanos(overhead));
        e.add_resource(r);
    }
    for (i, (r, cat, work, deps)) in spec.tasks.iter().enumerate() {
        let deps: Vec<TaskId> = deps
            .iter()
            .filter(|&&d| d < i)
            .map(|&d| TaskId(d))
            .collect();
        let task = Task::new(ResourceId(*r), *work as f64, CATEGORIES[*cat]);
        e.add_task(task, &deps).unwrap();
    }
    e.run().unwrap()
}

/// Pairs selecting by category, by resource kind, and by both at once.
fn pairs() -> Vec<PairSpec> {
    vec![
        PairSpec {
            name: "comm_under_compute".into(),
            under_categories: vec![TaskCategory::Communication],
            over_categories: vec![TaskCategory::Computation],
            ..PairSpec::default()
        },
        PairSpec {
            name: "network_under_sm".into(),
            under_kinds: vec![ResourceKind::Network],
            over_kinds: vec![ResourceKind::GpuSm],
            ..PairSpec::default()
        },
        PairSpec {
            name: "mixed".into(),
            under_categories: vec![TaskCategory::Memory],
            under_kinds: vec![ResourceKind::Network],
            over_categories: vec![TaskCategory::Communication],
            over_kinds: vec![ResourceKind::GpuSm, ResourceKind::HostCpu],
        },
    ]
}

/// Whether any record selected by `keep` runs during nanosecond `t`.
fn covered(result: &RunResult, t: u64, keep: impl Fn(&TaskRecord) -> bool) -> bool {
    let t = SimTime(t);
    (result.records.iter()).any(|r| keep(r) && r.start <= t && t < r.end)
}

fn selects(
    result: &RunResult,
    r: &TaskRecord,
    cats: &[TaskCategory],
    kinds: &[ResourceKind],
) -> bool {
    cats.contains(&r.category) || kinds.contains(&result.resources[r.resource.0].spec.kind)
}

/// Orders records by end, the smaller id first among equal ends.
fn finish_key(r: &TaskRecord) -> (SimTime, std::cmp::Reverse<TaskId>) {
    (r.end, std::cmp::Reverse(r.task))
}

proptest! {
    #[test]
    fn analysis_matches_a_per_nanosecond_sweep(spec in run_strategy()) {
        let result = run(&spec);
        let records = &result.records;
        let planned = PlannedInterleaving { micro_batches: 2, groups: 2 };
        let specs = pairs();
        let a = analyze(&result, &specs, planned);
        let makespan = records.iter().map(|r| r.end.as_nanos()).max().unwrap_or(0);
        prop_assert_eq!(a.makespan_ns, makespan);

        prop_assert_eq!(a.overlaps.len(), specs.len());
        for (pair, o) in specs.iter().zip(&a.overlaps) {
            let (mut busy, mut hidden) = (0, 0);
            for t in 0..makespan {
                let under = covered(&result, t, |r| {
                    selects(&result, r, &pair.under_categories, &pair.under_kinds)
                });
                let over = covered(&result, t, |r| {
                    selects(&result, r, &pair.over_categories, &pair.over_kinds)
                });
                busy += under as u64;
                hidden += (under && over) as u64;
            }
            prop_assert_eq!(o.under_busy_ns, busy, "{}", pair.name);
            prop_assert_eq!(o.hidden_ns, hidden, "{}", pair.name);
            let achieved = if busy == 0 { 1.0 } else { hidden as f64 / busy as f64 };
            prop_assert_eq!(o.achieved, achieved, "{}", pair.name);
        }

        let name = |r: usize| result.resources[r].spec.name.as_str();
        let mut present: Vec<usize> = records.iter().map(|r| r.resource.0).collect();
        present.sort_unstable_by_key(|&r| name(r));
        present.dedup();
        let reported: Vec<usize> = a.lanes.iter().map(|l| l.resource.0).collect();
        prop_assert_eq!(&reported, &present);
        for lane in &a.lanes {
            let busy = (0..makespan)
                .filter(|&t| covered(&result, t, |r| r.resource == lane.resource))
                .count() as u64;
            prop_assert_eq!(lane.busy_ns, busy, "{}", name(lane.resource.0));
            prop_assert_eq!(lane.idle_ns, makespan - busy, "{}", name(lane.resource.0));

            // The gaps by an all-pairs scan: a task starts a gap when every
            // task before it in (start, end, id) order ended earlier.
            let key = |r: &TaskRecord| (r.start, r.end, r.task);
            let on_lane: Vec<&TaskRecord> =
                records.iter().filter(|r| r.resource == lane.resource).collect();
            let mut want = Vec::new();
            for r in &on_lane {
                let before = on_lane.iter().filter(|o| key(o) < key(r));
                let cover = before.map(|o| o.end).max().unwrap_or(SimTime::ZERO);
                if r.start > cover {
                    let deps = result.deps(r.task);
                    let last = deps.iter().map(|d| records[d.0].end).max();
                    let blocker = (deps.iter())
                        .filter(|d| Some(records[d.0].end) == last)
                        .map(|d| d.0 as u64)
                        .min();
                    want.push((cover.as_nanos(), r.start.as_nanos(), r.task.0 as u64, blocker));
                }
            }
            want.sort_unstable();
            let got: Vec<_> = lane.gaps.iter().map(|g| (g.start_ns, g.end_ns, g.starved, g.blocker)).collect();
            prop_assert_eq!(got, want, "gaps of {}", name(lane.resource.0));
        }

        let path: Vec<u64> = critical_path(&result).iter().map(|t| t.0 as u64).collect();
        prop_assert_eq!(&path, &a.critical_path);
        prop_assert_eq!(path.is_empty(), records.is_empty());
        let rec = |id: u64| &records[id as usize];
        if let Some(&last) = path.last() {
            let max = records.iter().map(finish_key).max();
            prop_assert_eq!(Some(finish_key(rec(last))), max, "the path ends last");
        }
        if let Some(&first) = path.first() {
            prop_assert!(result.deps(TaskId(first as usize)).is_empty());
        }
        for step in path.windows(2) {
            let deps = result.deps(TaskId(step[1] as usize));
            let max = deps.iter().map(|d| finish_key(&records[d.0])).max();
            prop_assert_eq!(
                Some(finish_key(rec(step[0]))),
                max,
                "path step {} -> {} is not the last-finishing dependency",
                step[0],
                step[1]
            );
        }
    }
}

/// A span list in `0..32`, empty and inverted spans included.
fn spans_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    vec((0u64..32, 0u64..32), 0..8)
}

fn set(spans: &[(u64, u64)]) -> IntervalSet {
    IntervalSet::from_spans(
        spans
            .iter()
            .map(|&(s, e)| (SimTime(s), SimTime(e)))
            .collect(),
    )
}

fn covers(spans: &[(u64, u64)], t: u64) -> bool {
    spans.iter().any(|&(s, e)| s <= t && t < e)
}

/// The maximal runs of nanoseconds in `0..32` where `f` holds: the one
/// normalized form of the set they cover.
fn runs(f: impl Fn(u64) -> bool) -> Vec<(SimTime, SimTime)> {
    let mut out: Vec<(SimTime, SimTime)> = Vec::new();
    for t in (0..32).filter(|&t| f(t)) {
        match out.last_mut() {
            Some(last) if last.1 == SimTime(t) => last.1 = SimTime(t + 1),
            _ => out.push((SimTime(t), SimTime(t + 1))),
        }
    }
    out
}

proptest! {
    #[test]
    fn interval_sets_are_the_maximal_runs_of_a_sweep(
        a in spans_strategy(),
        b in spans_strategy(),
    ) {
        let (sa, sb) = (set(&a), set(&b));
        prop_assert_eq!(sa.spans(), &runs(|t| covers(&a, t))[..]);
        prop_assert_eq!(
            sa.union(&sb).spans(),
            &runs(|t| covers(&a, t) || covers(&b, t))[..]
        );
        prop_assert_eq!(
            sa.intersect(&sb).spans(),
            &runs(|t| covers(&a, t) && covers(&b, t))[..]
        );
        prop_assert_eq!(
            sa.subtract(&sb).spans(),
            &runs(|t| covers(&a, t) && !covers(&b, t))[..]
        );
        let width = (0..32).filter(|&t| covers(&a, t)).count() as u64;
        prop_assert_eq!(sa.measure(), SimDuration(width));
    }
}
