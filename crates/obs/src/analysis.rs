//! Causal performance analysis over an executed task DAG.
//!
//! The scheduler records every executed stage as a [`DagNode`]: its true
//! dependency edges plus the start/end timestamps the engine observed. From
//! that executed DAG this module reconstructs *why the run took as long as
//! it did*: [`ExecutedDag::analyze`] finds the dependency-critical path, the
//! *achieved* overlap ratio per resource pair (e.g. communication hidden
//! under compute) against the pass pipeline's planned interleaving
//! ([`PlannedInterleaving`]), and per-lane idle-gap attribution (which
//! upstream node starved each gap). [`ExecutedDag::critical_path`] computes
//! the path alone, for callers such as the Chrome trace that need nothing
//! else.
//!
//! The DAG is an in-memory view: its lane, resource-kind and category
//! columns borrow the names the simulation already holds. Everything here
//! is pure: analysis consumes immutable node records and never feeds back
//! into scheduling, preserving the observation-only guarantee of the rest
//! of the crate.

pub use crate::checksum::fnv1a64;
use crate::checksum::Fnv1a;
use crate::json::Json;
use std::collections::BTreeMap;

/// One executed task: a node of the causal DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagNode<'a> {
    /// Stable node id (the engine task id).
    pub id: u64,
    /// Concrete resource lane the node ran on, e.g. `node0/gpu-sm`.
    pub lane: &'a str,
    /// Hardware class of the lane, e.g. `gpu-sm` or `network`.
    pub res_kind: &'a str,
    /// Attribution category, e.g. `communication` or `computation`.
    pub category: &'a str,
    /// Observed start, simulated nanoseconds.
    pub start_ns: u64,
    /// Observed completion, simulated nanoseconds.
    pub end_ns: u64,
    /// Ids of the nodes this one waited for (true dependency edges).
    pub deps: Vec<u64>,
}

impl DagNode<'_> {
    /// Node duration in nanoseconds (zero when timestamps are inverted).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The executed DAG of one run: every node with its edges and timestamps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutedDag<'a> {
    /// Executed nodes, in creation order.
    pub nodes: Vec<DagNode<'a>>,
}

/// Planned interleaving the pass pipeline set up: `micro_batches`
/// (Eq. 2 D-Interleaving) times `groups` (Eq. 3 K-Interleaving) slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedInterleaving {
    /// D-Interleaving micro-batches in effect.
    pub micro_batches: usize,
    /// K-Interleaving groups in effect.
    pub groups: usize,
}

impl PlannedInterleaving {
    /// Fraction of non-compute work the plan *could* hide: with `D x K`
    /// interleaving slots, all but one slot's worth of communication can
    /// run under another slot's compute, so the planned overlap is
    /// `1 - 1/(D*K)` (zero for the unoptimized single-slot graph).
    pub fn planned_overlap(&self) -> f64 {
        let slots = (self.micro_batches.max(1) * self.groups.max(1)) as f64;
        1.0 - 1.0 / slots
    }
}

/// Selects the "hidden" and "hiding" node sets of one overlap pair. A node
/// matches a side when its category is listed in `*_categories` or its
/// resource kind is listed in `*_kinds`.
#[derive(Debug, Clone, Default)]
pub struct PairSpec {
    /// Pair name, e.g. `comm_under_compute`.
    pub name: String,
    /// Categories of the work that should be hidden.
    pub under_categories: Vec<String>,
    /// Resource kinds of the work that should be hidden.
    pub under_kinds: Vec<String>,
    /// Categories of the work that does the hiding.
    pub over_categories: Vec<String>,
    /// Resource kinds of the work that does the hiding.
    pub over_kinds: Vec<String>,
}

/// Achieved-vs-planned overlap of one resource pair.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlapReport {
    /// Pair name from the [`PairSpec`].
    pub pair: String,
    /// Fraction of the hidden side's busy time that ran concurrently with
    /// the hiding side (1.0 when the hidden side did no work at all).
    pub achieved: f64,
    /// The pass pipeline's planned overlap for comparison.
    pub planned: f64,
    /// Busy nanoseconds of the hidden side.
    pub under_busy_ns: u64,
    /// Nanoseconds of the hidden side that ran under the hiding side.
    pub hidden_ns: u64,
}

/// One idle gap on a lane, attributed to the upstream node that starved it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdleGap {
    /// Gap start, nanoseconds.
    pub start_ns: u64,
    /// Gap end (the starved node's start), nanoseconds.
    pub end_ns: u64,
    /// Node whose start ended the gap.
    pub starved: u64,
    /// The dependency the starved node was waiting for, when it had one.
    pub blocker: Option<u64>,
}

/// Busy/idle profile of one lane with its attributed gaps.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneIdle {
    /// Lane name.
    pub lane: String,
    /// Hardware class of the lane.
    pub res_kind: String,
    /// Busy nanoseconds (union of node intervals).
    pub busy_ns: u64,
    /// Idle nanoseconds within the makespan.
    pub idle_ns: u64,
    /// Gaps in start order, each attributed to its blocking upstream node.
    pub gaps: Vec<IdleGap>,
}

/// The full causal analysis of one executed DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct DagAnalysis {
    /// Latest completion over all nodes, nanoseconds.
    pub makespan_ns: u64,
    /// Node ids along the dependency-critical path, in execution order.
    pub critical_path: Vec<u64>,
    /// Summed duration of the critical-path nodes, nanoseconds.
    pub critical_len_ns: u64,
    /// `critical_len_ns / makespan_ns`: the fraction of the makespan
    /// explained by chained dependency work (the remainder is resource
    /// queueing and scheduling gaps).
    pub critical_path_frac: f64,
    /// Critical-path time share per category (sums to 1 when nonempty).
    pub critical_frac_by_category: Vec<(String, f64)>,
    /// Achieved overlap per requested resource pair.
    pub overlaps: Vec<OverlapReport>,
    /// Busy/idle profile and gap attribution per lane.
    pub lanes: Vec<LaneIdle>,
    /// FNV-1a digest over the critical path's `(id, start, end)` triples —
    /// bit-identical across repeated runs of a deterministic schedule.
    pub digest: u64,
}

impl DagAnalysis {
    /// The achieved overlap ratio of a pair, by name.
    pub fn overlap(&self, pair: &str) -> Option<f64> {
        self.overlaps
            .iter()
            .find(|o| o.pair == pair)
            .map(|o| o.achieved)
    }

    /// Serializes the analysis as a JSON section. Gap lists are summarized
    /// per lane (count, longest, and nanoseconds attributed per blocking
    /// lane) to keep the document readable.
    pub fn to_json(&self, dag: &ExecutedDag) -> Json {
        let lane_of: BTreeMap<u64, &str> = dag.nodes.iter().map(|n| (n.id, n.lane)).collect();
        let lanes = self
            .lanes
            .iter()
            .map(|l| {
                let mut starved_by: BTreeMap<String, u64> = BTreeMap::new();
                let mut longest = 0u64;
                for g in &l.gaps {
                    let width = g.end_ns.saturating_sub(g.start_ns);
                    longest = longest.max(width);
                    let who = g
                        .blocker
                        .and_then(|b| lane_of.get(&b).copied())
                        .unwrap_or("(no dependency)");
                    *starved_by.entry(who.to_string()).or_insert(0) += width;
                }
                Json::obj([
                    ("lane", Json::str(&l.lane)),
                    ("res_kind", Json::str(&l.res_kind)),
                    ("busy_ns", Json::UInt(l.busy_ns)),
                    ("idle_ns", Json::UInt(l.idle_ns)),
                    ("gap_count", Json::UInt(l.gaps.len() as u64)),
                    ("longest_gap_ns", Json::UInt(longest)),
                    (
                        "starved_by",
                        Json::Obj(
                            starved_by
                                .into_iter()
                                .map(|(k, v)| (k, Json::UInt(v)))
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("makespan_ns", Json::UInt(self.makespan_ns)),
            (
                "critical_path",
                Json::Arr(self.critical_path.iter().map(|&id| id.into()).collect()),
            ),
            ("critical_len_ns", Json::UInt(self.critical_len_ns)),
            ("critical_path_frac", self.critical_path_frac.into()),
            (
                "critical_frac_by_category",
                Json::Obj(
                    self.critical_frac_by_category
                        .iter()
                        .map(|(cat, frac)| (cat.clone(), Json::from(*frac)))
                        .collect(),
                ),
            ),
            (
                "overlaps",
                Json::Arr(
                    self.overlaps
                        .iter()
                        .map(|o| {
                            Json::obj([
                                ("pair", Json::str(&o.pair)),
                                ("achieved", o.achieved.into()),
                                ("planned", o.planned.into()),
                                ("under_busy_ns", Json::UInt(o.under_busy_ns)),
                                ("hidden_ns", Json::UInt(o.hidden_ns)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("lanes", Json::Arr(lanes)),
            ("digest", Json::str(format!("{:016x}", self.digest))),
        ])
    }
}

impl ExecutedDag<'_> {
    /// Latest completion over all nodes.
    pub fn makespan_ns(&self) -> u64 {
        self.nodes.iter().map(|n| n.end_ns).max().unwrap_or(0)
    }

    /// Runs the full causal analysis: critical path, achieved overlap per
    /// `pairs` entry versus `planned`, and idle-gap attribution per lane.
    pub fn analyze(&self, pairs: &[PairSpec], planned: PlannedInterleaving) -> DagAnalysis {
        let makespan_ns = self.makespan_ns();
        let by_id = self.index_by_id();
        let critical_path = self.walk_critical_path(&by_id);
        let critical_len_ns: u64 = critical_path
            .iter()
            .filter_map(|id| by_id.get(id))
            .map(|&i| self.nodes[i].duration_ns())
            .sum();
        let mut by_cat: BTreeMap<&str, u64> = BTreeMap::new();
        for id in &critical_path {
            if let Some(&i) = by_id.get(id) {
                let n = &self.nodes[i];
                *by_cat.entry(n.category).or_insert(0) += n.duration_ns();
            }
        }
        let critical_frac_by_category = by_cat
            .into_iter()
            .map(|(cat, ns)| (cat.to_string(), ns as f64 / (critical_len_ns.max(1)) as f64))
            .collect();

        let mut digest = Fnv1a::default();
        for id in &critical_path {
            if let Some(&i) = by_id.get(id) {
                let n = &self.nodes[i];
                for word in [n.id, n.start_ns, n.end_ns] {
                    digest.write(&word.to_le_bytes());
                }
            }
        }

        DagAnalysis {
            makespan_ns,
            critical_len_ns,
            critical_path_frac: critical_len_ns as f64 / (makespan_ns.max(1)) as f64,
            critical_frac_by_category,
            overlaps: pairs
                .iter()
                .map(|p| self.overlap_pair(p, planned))
                .collect(),
            lanes: self.lane_idle(&by_id, makespan_ns),
            critical_path,
            digest: digest.finish(),
        }
    }

    /// The dependency-critical path alone, first node first: the same ids
    /// as [`DagAnalysis::critical_path`], without computing overlap or idle
    /// gaps.
    pub fn critical_path(&self) -> Vec<u64> {
        self.walk_critical_path(&self.index_by_id())
    }

    /// Node index per id (the last node wins if a hand-built DAG repeats
    /// one).
    fn index_by_id(&self) -> BTreeMap<u64, usize> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.id, i))
            .collect()
    }

    /// Walks the dependency chain back from the last-finishing node,
    /// following at each step the dependency that finished last (ties break
    /// toward the smaller id, which keeps the walk deterministic).
    fn walk_critical_path(&self, by_id: &BTreeMap<u64, usize>) -> Vec<u64> {
        let Some(mut cur) = self
            .nodes
            .iter()
            .max_by(|a, b| (a.end_ns, b.id).cmp(&(b.end_ns, a.id)))
            .map(|n| n.id)
        else {
            return Vec::new();
        };
        let mut path = vec![cur];
        // Each step visits a new node index, so even a hand-built DAG with
        // a cycle stops within the node count.
        let mut visited = vec![false; self.nodes.len()];
        while let Some(&i) = by_id.get(&cur) {
            visited[i] = true;
            let next = self.nodes[i]
                .deps
                .iter()
                .filter_map(|d| by_id.get(d).map(|&j| (j, &self.nodes[j])))
                .max_by(|(_, a), (_, b)| (a.end_ns, b.id).cmp(&(b.end_ns, a.id)));
            match next {
                Some((j, n)) if !visited[j] => {
                    path.push(n.id);
                    cur = n.id;
                }
                _ => break,
            }
        }
        path.reverse();
        path
    }

    fn overlap_pair(&self, pair: &PairSpec, planned: PlannedInterleaving) -> OverlapReport {
        let matches = |n: &DagNode, cats: &[String], kinds: &[String]| {
            cats.iter().any(|c| c == n.category) || kinds.iter().any(|k| k == n.res_kind)
        };
        let spans = |cats: &[String], kinds: &[String]| {
            union(
                self.nodes
                    .iter()
                    .filter(|n| matches(n, cats, kinds) && n.end_ns > n.start_ns)
                    .map(|n| (n.start_ns, n.end_ns))
                    .collect(),
            )
        };
        let under = spans(&pair.under_categories, &pair.under_kinds);
        let over = spans(&pair.over_categories, &pair.over_kinds);
        let under_busy_ns = measure(&under);
        let hidden_ns = measure(&intersect(&under, &over));
        OverlapReport {
            pair: pair.name.clone(),
            achieved: if under_busy_ns == 0 {
                1.0
            } else {
                hidden_ns as f64 / under_busy_ns as f64
            },
            planned: planned.planned_overlap(),
            under_busy_ns,
            hidden_ns,
        }
    }

    /// Per-lane gap walk: any instant a lane sat idle before a node started
    /// is attributed to the last-finishing dependency of that node — the
    /// upstream task that starved the gap.
    fn lane_idle(&self, by_id: &BTreeMap<u64, usize>, makespan_ns: u64) -> Vec<LaneIdle> {
        let mut lanes: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, n) in self.nodes.iter().enumerate() {
            lanes.entry(n.lane).or_default().push(i);
        }
        lanes
            .into_iter()
            .map(|(lane, mut idx)| {
                idx.sort_by_key(|&i| (self.nodes[i].start_ns, self.nodes[i].end_ns));
                let mut gaps = Vec::new();
                let mut cover_end = 0u64;
                for &i in &idx {
                    let n = &self.nodes[i];
                    if n.start_ns > cover_end {
                        let blocker = n
                            .deps
                            .iter()
                            .filter_map(|d| by_id.get(d).map(|&j| &self.nodes[j]))
                            .max_by(|a, b| (a.end_ns, b.id).cmp(&(b.end_ns, a.id)))
                            .map(|b| b.id);
                        gaps.push(IdleGap {
                            start_ns: cover_end,
                            end_ns: n.start_ns,
                            starved: n.id,
                            blocker,
                        });
                    }
                    cover_end = cover_end.max(n.end_ns);
                }
                let busy_ns = measure(&union(
                    idx.iter()
                        .map(|&i| (self.nodes[i].start_ns, self.nodes[i].end_ns))
                        .filter(|(s, e)| e > s)
                        .collect(),
                ));
                LaneIdle {
                    lane: lane.to_string(),
                    res_kind: self.nodes[idx[0]].res_kind.to_string(),
                    busy_ns,
                    idle_ns: makespan_ns.saturating_sub(busy_ns),
                    gaps,
                }
            })
            .collect()
    }
}

/// Sorts and merges half-open spans into a disjoint union.
fn union(mut spans: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    spans.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(spans.len());
    for (s, e) in spans {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total width of disjoint spans.
fn measure(spans: &[(u64, u64)]) -> u64 {
    spans.iter().map(|(s, e)| e - s).sum()
}

/// Intersection of two disjoint sorted span lists (two-pointer walk).
fn intersect(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if s < e {
            out.push((s, e));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node<'a>(
        id: u64,
        lane: &'a str,
        cat: &'a str,
        start: u64,
        end: u64,
        deps: &[u64],
    ) -> DagNode<'a> {
        DagNode {
            id,
            lane,
            res_kind: lane.split('/').next_back().unwrap_or(lane),
            category: cat,
            start_ns: start,
            end_ns: end,
            deps: deps.to_vec(),
        }
    }

    fn pairs() -> Vec<PairSpec> {
        vec![PairSpec {
            name: "comm_under_compute".into(),
            under_categories: vec!["communication".into()],
            over_categories: vec!["computation".into()],
            ..PairSpec::default()
        }]
    }

    fn planned(d: usize, k: usize) -> PlannedInterleaving {
        PlannedInterleaving {
            micro_batches: d,
            groups: k,
        }
    }

    /// A(0-10 gpu) -> B(10-30 nic comm) -> C(30-40 gpu); D(0-40 gpu2) is
    /// independent compute that fully covers B.
    fn diamond() -> ExecutedDag<'static> {
        ExecutedDag {
            nodes: vec![
                node(0, "n0/gpu-sm", "computation", 0, 10, &[]),
                node(1, "n0/network", "communication", 10, 30, &[0]),
                node(2, "n0/gpu-sm", "computation", 30, 40, &[1]),
                node(3, "n1/gpu-sm", "computation", 0, 40, &[]),
            ],
        }
    }

    #[test]
    fn critical_path_follows_last_finishing_dependencies() {
        let a = diamond().analyze(&pairs(), planned(1, 1));
        assert_eq!(a.makespan_ns, 40);
        // Ties at end=40 break toward the smaller id: node 2's chain wins.
        assert_eq!(a.critical_path, vec![0, 1, 2]);
        assert_eq!(a.critical_len_ns, 40);
        assert!((a.critical_path_frac - 1.0).abs() < 1e-12);
        let by_cat: BTreeMap<_, _> = a.critical_frac_by_category.iter().cloned().collect();
        assert!((by_cat["communication"] - 0.5).abs() < 1e-12);
        assert!((by_cat["computation"] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlap_ratio_measures_hidden_communication() {
        let a = diamond().analyze(&pairs(), planned(2, 3));
        let o = &a.overlaps[0];
        // B (20 ns of comm) is fully covered by D's compute.
        assert_eq!(o.under_busy_ns, 20);
        assert_eq!(o.hidden_ns, 20);
        assert!((o.achieved - 1.0).abs() < 1e-12);
        assert!((o.planned - (1.0 - 1.0 / 6.0)).abs() < 1e-12);

        // Remove the covering compute: nothing hides the transfer.
        let mut dag = diamond();
        dag.nodes.remove(3);
        let a = dag.analyze(&pairs(), planned(1, 1));
        assert_eq!(a.overlaps[0].achieved, 0.0);
        assert_eq!(a.overlaps[0].planned, 0.0);

        // No communication at all: trivially fully hidden.
        let dag = ExecutedDag {
            nodes: vec![node(0, "g", "computation", 0, 10, &[])],
        };
        assert_eq!(
            dag.analyze(&pairs(), planned(1, 1)).overlaps[0].achieved,
            1.0
        );
    }

    #[test]
    fn idle_gaps_are_attributed_to_the_blocking_upstream_node() {
        let a = diamond().analyze(&pairs(), planned(1, 1));
        let gpu = a.lanes.iter().find(|l| l.lane == "n0/gpu-sm").unwrap();
        assert_eq!(gpu.busy_ns, 20);
        assert_eq!(gpu.idle_ns, 20);
        assert_eq!(gpu.gaps.len(), 1);
        let gap = &gpu.gaps[0];
        assert_eq!((gap.start_ns, gap.end_ns), (10, 30));
        assert_eq!(gap.starved, 2);
        assert_eq!(gap.blocker, Some(1), "the comm transfer starved the GPU");
        // The fully busy lane has no gaps and no idle time.
        let other = a.lanes.iter().find(|l| l.lane == "n1/gpu-sm").unwrap();
        assert!(other.gaps.is_empty());
        assert_eq!(other.idle_ns, 0);
    }

    #[test]
    fn digest_is_deterministic_and_sensitive_to_the_path() {
        let a1 = diamond().analyze(&pairs(), planned(1, 1));
        let a2 = diamond().analyze(&pairs(), planned(4, 2));
        assert_eq!(a1.digest, a2.digest, "planned factors do not move the path");
        let mut dag = diamond();
        dag.nodes[1].end_ns = 31;
        dag.nodes[2].start_ns = 31;
        let a3 = dag.analyze(&pairs(), planned(1, 1));
        assert_ne!(a1.digest, a3.digest);
    }

    #[test]
    fn empty_dag_analyzes_to_zeroes() {
        let a = ExecutedDag::default().analyze(&pairs(), planned(1, 1));
        assert_eq!(a.makespan_ns, 0);
        assert!(a.critical_path.is_empty());
        assert_eq!(a.critical_path_frac, 0.0);
        assert!(a.lanes.is_empty());
    }

    #[test]
    fn critical_path_alone_matches_the_full_analysis() {
        let dag = diamond();
        assert_eq!(
            dag.critical_path(),
            dag.analyze(&pairs(), planned(1, 1)).critical_path
        );
        assert!(ExecutedDag::default().critical_path().is_empty());
    }

    #[test]
    fn long_chains_return_the_whole_chain_and_cycles_terminate() {
        const N: u64 = 50_000;
        let chain = ExecutedDag {
            nodes: (0..N)
                .map(|i| {
                    let deps: &[u64] = if i == 0 { &[] } else { &[i - 1] };
                    node(i, "n0/gpu-sm", "computation", i, i + 1, deps)
                })
                .collect(),
        };
        assert_eq!(chain.critical_path(), (0..N).collect::<Vec<_>>());

        // 0 -> 1 -> 2 -> 0: no run produces a cycle, but `nodes` is public.
        let cyclic = ExecutedDag {
            nodes: vec![
                node(0, "n0/gpu-sm", "computation", 0, 10, &[2]),
                node(1, "n0/gpu-sm", "computation", 10, 20, &[0]),
                node(2, "n0/gpu-sm", "computation", 20, 30, &[1]),
            ],
        };
        assert_eq!(cyclic.critical_path(), vec![0, 1, 2]);
        assert_eq!(
            cyclic.analyze(&pairs(), planned(1, 1)).critical_path,
            vec![0, 1, 2]
        );
    }

    #[test]
    fn analysis_serializes_to_json() {
        let dag = diamond();
        let a = dag.analyze(&pairs(), planned(2, 2));
        let doc = crate::json::parse(&a.to_json(&dag).to_json()).unwrap();
        assert_eq!(doc.get("makespan_ns").and_then(Json::as_u64), Some(40));
        assert_eq!(
            doc.get("digest").and_then(Json::as_str),
            Some(format!("{:016x}", a.digest).as_str())
        );
        let lanes = doc.get("lanes").and_then(Json::items).unwrap();
        let gpu = lanes
            .iter()
            .find(|l| l.get("lane").and_then(Json::as_str) == Some("n0/gpu-sm"))
            .unwrap();
        assert_eq!(
            gpu.get("starved_by")
                .and_then(|s| s.get("n0/network"))
                .and_then(Json::as_u64),
            Some(20)
        );
    }
}
