//! The causal analyzer against a per-nanosecond sweep.
//!
//! Random executed DAGs of up to 30 nodes (timestamps in `0..64`, three
//! lanes, three categories, dependency edges pointing backward, ids that
//! are not node indices) are analyzed, and every figure is recomputed by
//! brute force, one nanosecond at a time:
//!
//! - per overlap pair, `under_busy_ns`, `hidden_ns` and `achieved`;
//! - per lane, `busy_ns` and `idle_ns`;
//! - the critical path: the ids of [`ExecutedDag::critical_path`] equal
//!   `analyze().critical_path`, every step follows a dependency edge, and
//!   the path ends at a node that finishes at the makespan.

use picasso_obs::analysis::{DagLane, DagNode, ExecutedDag, PairSpec, PlannedInterleaving};
use proptest::collection::vec;
use proptest::prelude::*;

const LANES: [&str; 3] = ["n0/gpu-sm", "n0/network", "n1/gpu-sm"];
const CATEGORIES: [&str; 3] = ["computation", "communication", "memory"];
const HORIZON: u64 = 64;

/// Node ids are `2i + 1`, so an analyzer that confuses ids with indices
/// fails.
fn id_of(i: usize) -> u64 {
    2 * i as u64 + 1
}

/// A generated DAG plus every node's dependency ids, kept to check the
/// path against the edges as drawn.
fn dag_strategy() -> impl Strategy<Value = (ExecutedDag, Vec<Vec<u64>>)> {
    let node = (
        0usize..LANES.len(),
        0usize..CATEGORIES.len(),
        0..HORIZON,
        0..HORIZON,
        vec(0usize..30, 0..4),
    );
    vec(node, 0..31).prop_map(|raw| {
        let deps: Vec<Vec<u64>> = raw
            .iter()
            .enumerate()
            .map(|(i, (.., deps))| match i {
                0 => Vec::new(),
                _ => deps.iter().map(|d| id_of(d % i)).collect(),
            })
            .collect();
        let nodes = raw
            .into_iter()
            .enumerate()
            .map(|(i, (lane, category, a, b, _))| DagNode {
                id: id_of(i),
                lane,
                category,
                start_ns: a.min(b),
                end_ns: a.max(b),
            })
            .collect();
        let lanes = LANES
            .iter()
            .map(|name| DagLane {
                name: name.to_string(),
                kind: name.split('/').next_back().unwrap().to_string(),
            })
            .collect();
        let categories = CATEGORIES.iter().map(|c| c.to_string()).collect();
        let dag = ExecutedDag::new(lanes, categories, nodes, deps.clone());
        (dag, deps)
    })
}

/// Pairs selecting by category, by resource kind, and by both at once.
fn pairs() -> Vec<PairSpec> {
    let strings = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    vec![
        PairSpec {
            name: "comm_under_compute".into(),
            under_categories: strings(&["communication"]),
            over_categories: strings(&["computation"]),
            ..PairSpec::default()
        },
        PairSpec {
            name: "network_under_sm".into(),
            under_kinds: strings(&["network"]),
            over_kinds: strings(&["gpu-sm"]),
            ..PairSpec::default()
        },
        PairSpec {
            name: "mixed".into(),
            under_categories: strings(&["memory"]),
            under_kinds: strings(&["network"]),
            over_categories: strings(&["communication"]),
            over_kinds: strings(&["gpu-sm"]),
        },
    ]
}

/// Whether any node selected by `keep` runs during nanosecond `t`.
fn covered(dag: &ExecutedDag, t: u64, keep: impl Fn(&DagNode) -> bool) -> bool {
    dag.nodes()
        .iter()
        .any(|n| keep(n) && n.start_ns <= t && t < n.end_ns)
}

fn selects(dag: &ExecutedDag, n: &DagNode, cats: &[String], kinds: &[String]) -> bool {
    cats.iter().any(|c| c == dag.category(n)) || kinds.iter().any(|k| *k == dag.lane(n).kind)
}

proptest! {
    #[test]
    fn analysis_matches_a_per_nanosecond_sweep(case in dag_strategy()) {
        let (dag, deps) = case;
        let planned = PlannedInterleaving { micro_batches: 2, groups: 2 };
        let specs = pairs();
        let a = dag.analyze(&specs, planned);
        let makespan = dag.nodes().iter().map(|n| n.end_ns).max().unwrap_or(0);
        prop_assert_eq!(a.makespan_ns, makespan);

        prop_assert_eq!(a.overlaps.len(), specs.len());
        for (spec, o) in specs.iter().zip(&a.overlaps) {
            let (mut busy, mut hidden) = (0, 0);
            for t in 0..HORIZON {
                let under = covered(&dag, t, |n| {
                    selects(&dag, n, &spec.under_categories, &spec.under_kinds)
                });
                let over = covered(&dag, t, |n| {
                    selects(&dag, n, &spec.over_categories, &spec.over_kinds)
                });
                busy += under as u64;
                hidden += (under && over) as u64;
            }
            prop_assert_eq!(o.under_busy_ns, busy, "{}", spec.name);
            prop_assert_eq!(o.hidden_ns, hidden, "{}", spec.name);
            let achieved = if busy == 0 { 1.0 } else { hidden as f64 / busy as f64 };
            prop_assert_eq!(o.achieved, achieved, "{}", spec.name);
        }

        let mut present: Vec<&str> = dag.nodes().iter().map(|n| LANES[n.lane]).collect();
        present.sort_unstable();
        present.dedup();
        let reported: Vec<&str> = a.lanes.iter().map(|l| l.lane.as_str()).collect();
        prop_assert_eq!(reported, present);
        for lane in &a.lanes {
            let busy = (0..HORIZON)
                .filter(|&t| covered(&dag, t, |n| dag.lane(n).name == lane.lane))
                .count() as u64;
            prop_assert_eq!(lane.busy_ns, busy, "{}", lane.lane);
            prop_assert_eq!(lane.idle_ns, makespan - busy, "{}", lane.lane);
        }

        let path: Vec<u64> = dag.critical_path().iter().map(|&i| dag.nodes()[i].id).collect();
        prop_assert_eq!(&path, &a.critical_path);
        prop_assert_eq!(path.is_empty(), dag.nodes().is_empty());
        let index = |id: u64| (id as usize - 1) / 2;
        if let Some(&last) = path.last() {
            prop_assert_eq!(dag.nodes()[index(last)].end_ns, makespan);
        }
        for step in path.windows(2) {
            prop_assert!(
                deps[index(step[1])].contains(&step[0]),
                "path step {} -> {} is not a dependency edge",
                step[0],
                step[1]
            );
        }
    }
}
