//! Property-based tests of the discrete-event engine and interval algebra.

use picasso_sim::{
    Engine, IntervalSet, ResourceKind, ResourceSpec, SimDuration, SimTime, Task, TaskCategory,
};
use proptest::prelude::*;

/// A randomly generated DAG description: each task picks a resource and may
/// depend on a subset of earlier tasks (guaranteeing acyclicity).
#[derive(Debug, Clone)]
struct DagSpec {
    n_resources: usize,
    tasks: Vec<(usize, f64, Vec<usize>)>, // (resource, work, deps < index)
}

fn dag_strategy() -> impl Strategy<Value = DagSpec> {
    (1usize..4, 1usize..60).prop_flat_map(|(n_resources, n_tasks)| {
        let task = (0..n_tasks).map(move |i| {
            (
                0..n_resources,
                0.0f64..1e7,
                proptest::collection::vec(0..i.max(1), 0..3.min(i + 1)),
            )
        });
        let tasks: Vec<_> = task.collect();
        tasks.prop_map(move |tasks| DagSpec {
            n_resources,
            tasks: tasks
                .into_iter()
                .enumerate()
                .map(|(i, (r, w, deps))| {
                    let deps = if i == 0 { vec![] } else { deps };
                    (r, w, deps)
                })
                .collect(),
        })
    })
}

fn run_dag(spec: &DagSpec) -> picasso_sim::RunResult {
    let mut e = Engine::new();
    let kinds = [
        ResourceKind::GpuSm,
        ResourceKind::Network,
        ResourceKind::Pcie,
    ];
    let mut rids = Vec::new();
    for r in 0..spec.n_resources {
        rids.push(
            e.add_resource(
                ResourceSpec::new(format!("r{r}"), kinds[r % kinds.len()], 1e9, 0)
                    .with_launch_overhead(SimDuration::from_micros(5)),
            ),
        );
    }
    let mut tids = Vec::new();
    for (r, w, deps) in &spec.tasks {
        let deps: Vec<_> = deps.iter().map(|&d| tids[d]).collect();
        let t = e
            .add_task(Task::new(rids[*r], *w, TaskCategory::Computation), &deps)
            .unwrap();
        tids.push(t);
    }
    e.run().unwrap()
}

proptest! {
    /// Every task starts no earlier than it became ready, and completes after
    /// all of its dependencies.
    #[test]
    fn start_respects_dependencies(spec in dag_strategy()) {
        let result = run_dag(&spec);
        for (i, (_, _, deps)) in spec.tasks.iter().enumerate() {
            let rec = &result.records[i];
            prop_assert!(rec.start >= rec.ready);
            prop_assert!(rec.end >= rec.start);
            for &d in deps {
                prop_assert!(rec.start >= result.records[d].end,
                    "task {i} started before dep {d} finished");
            }
        }
    }

    /// Per single-channel resource, task service intervals never overlap.
    #[test]
    fn single_channel_intervals_disjoint(spec in dag_strategy()) {
        let result = run_dag(&spec);
        for r in 0..spec.n_resources {
            let mut spans: Vec<(SimTime, SimTime)> = result
                .records
                .iter()
                .filter(|rec| rec.resource.0 == r && rec.end > rec.start)
                .map(|rec| (rec.start, rec.end))
                .collect();
            spans.sort_unstable();
            for w in spans.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap on resource {r}: {w:?}");
            }
        }
    }

    /// The engine is deterministic: two runs of the same DAG agree exactly.
    #[test]
    fn runs_are_deterministic(spec in dag_strategy()) {
        let a = run_dag(&spec);
        let b = run_dag(&spec);
        prop_assert_eq!(a.makespan, b.makespan);
        for (x, y) in a.records.iter().zip(&b.records) {
            prop_assert_eq!(x.start, y.start);
            prop_assert_eq!(x.end, y.end);
        }
    }

    /// Makespan is bounded below by the critical resource load and above by
    /// fully serial execution.
    #[test]
    fn makespan_bounds(spec in dag_strategy()) {
        let result = run_dag(&spec);
        let total_busy: f64 = result.resources.iter().map(|r| r.busy.as_secs_f64()).sum();
        let max_busy = result
            .resources
            .iter()
            .map(|r| r.busy.as_secs_f64() / r.spec.channels as f64)
            .fold(0.0, f64::max);
        let span = result.makespan.as_secs_f64();
        prop_assert!(span + 1e-12 >= max_busy, "makespan {span} < busiest resource {max_busy}");
        prop_assert!(span <= total_busy + 1e-9, "makespan {span} > serial bound {total_busy}");
    }
}

fn spans_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..1000, 0u64..200), 0..20)
        .prop_map(|v| v.into_iter().map(|(s, len)| (s, s + len)).collect())
}

fn to_set(spans: &[(u64, u64)]) -> IntervalSet {
    IntervalSet::from_spans(
        spans
            .iter()
            .map(|&(s, e)| (SimTime(s), SimTime(e)))
            .collect(),
    )
}

fn contains(set: &IntervalSet, t: u64) -> bool {
    set.spans().iter().any(|&(s, e)| s.0 <= t && t < e.0)
}

proptest! {
    /// Interval union/subtract/intersect agree with pointwise membership.
    #[test]
    fn interval_algebra_pointwise(a in spans_strategy(), b in spans_strategy()) {
        let sa = to_set(&a);
        let sb = to_set(&b);
        let union = sa.union(&sb);
        let diff = sa.subtract(&sb);
        let inter = sa.intersect(&sb);
        for t in (0..1300).step_by(7) {
            let ina = contains(&sa, t);
            let inb = contains(&sb, t);
            prop_assert_eq!(contains(&union, t), ina || inb, "union at {}", t);
            prop_assert_eq!(contains(&diff, t), ina && !inb, "diff at {}", t);
            prop_assert_eq!(contains(&inter, t), ina && inb, "inter at {}", t);
        }
    }

    /// measure(a) = measure(a\b) + measure(a∩b): subtraction and intersection
    /// partition a set.
    #[test]
    fn subtract_intersect_partition(a in spans_strategy(), b in spans_strategy()) {
        let sa = to_set(&a);
        let sb = to_set(&b);
        let lhs = sa.measure().as_nanos();
        let rhs = sa.subtract(&sb).measure().as_nanos() + sa.intersect(&sb).measure().as_nanos();
        prop_assert_eq!(lhs, rhs);
    }

    /// Bucketed overlap sums to total measure when buckets tile the horizon.
    #[test]
    fn bucket_overlaps_sum_to_measure(a in spans_strategy()) {
        let sa = to_set(&a);
        let mut total = 0u64;
        for b in 0..130 {
            total += sa
                .overlap_with(SimTime(b * 10), SimTime((b + 1) * 10))
                .as_nanos();
        }
        prop_assert_eq!(total, sa.measure().as_nanos());
    }
}
