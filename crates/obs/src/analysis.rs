//! Causal performance analysis over an executed task DAG.
//!
//! The scheduler records every executed stage as a [`DagNode`]: its lane,
//! its category and the start/end timestamps the engine observed.
//! [`ExecutedDag::new`] joins the nodes with their true dependency edges.
//! From that executed DAG this module reconstructs *why the run took as
//! long as it did*: [`ExecutedDag::analyze`] finds the dependency-critical
//! path, the *achieved* overlap ratio per resource pair (e.g.
//! communication hidden under compute) against the pass pipeline's planned
//! interleaving ([`PlannedInterleaving`]), and per-lane idle-gap
//! attribution (which upstream node starved each gap).
//!
//! A DAG is built once and then shared by every reader, as a run's
//! analysis, report and Chrome trace share theirs. Building it does the
//! work they have in common, once:
//!
//! - every dependency id resolves to a node index ([`ExecutedDag::index_of`]
//!   is the one resolution path; a run's ids are its node indices, a
//!   hand-built DAG's may be anything);
//! - the edges go into one flat table, with no per-node `Vec`;
//! - the critical path is walked ([`ExecutedDag::critical_path`]).
//!
//! Lanes and categories are small tables the nodes index, so grouping by
//! lane and selecting by category compare integers, not names. Everything
//! here is pure: analysis consumes immutable node records and never feeds
//! back into scheduling, preserving the observation-only guarantee of the
//! rest of the crate.

pub use crate::checksum::fnv1a64;
use crate::checksum::Fnv1a;
use crate::json::Json;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// One resource lane of an executed DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagLane {
    /// Concrete resource lane, e.g. `node0/gpu-sm`.
    pub name: String,
    /// Hardware class of the lane, e.g. `gpu-sm` or `network`.
    pub kind: String,
}

/// One executed task: a node of the causal DAG. Its dependency edges live
/// in the [`ExecutedDag`], in one table for every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagNode {
    /// Stable node id (the engine task id).
    pub id: u64,
    /// Index of the lane the node ran on in its DAG's lane table (see
    /// [`ExecutedDag::new`] and [`ExecutedDag::lane`]).
    pub lane: usize,
    /// Index of the node's attribution category (e.g. `communication`) in
    /// its DAG's category table (see [`ExecutedDag::category`]).
    pub category: usize,
    /// Observed start, simulated nanoseconds.
    pub start_ns: u64,
    /// Observed completion, simulated nanoseconds.
    pub end_ns: u64,
}

impl DagNode {
    /// Node duration in nanoseconds (zero when timestamps are inverted).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The executed DAG of one run: every node with its edges and timestamps.
///
/// It is built once, by [`ExecutedDag::new`], and then only read. Building
/// resolves every dependency id to a node index, stores the edges in one
/// flat table and walks the critical path; every later query reads those.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutedDag {
    lanes: Vec<DagLane>,
    categories: Vec<String>,
    nodes: Vec<DagNode>,
    /// Node `i`'s dependencies are `deps[ends[i - 1]..ends[i]]` (from 0
    /// for the first node).
    ends: Vec<u32>,
    /// Dependency edges as node indices, node by node.
    deps: Vec<u32>,
    /// `(id, node index)` sorted by id, or `None` when every node's id is
    /// its index, as in every run's DAG.
    by_id: Option<Vec<(u64, usize)>>,
    /// Node indices of the critical path, first node first.
    critical: Vec<usize>,
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
        let lanes = self
            .lanes
            .iter()
            .map(|l| {
                let mut starved_by: BTreeMap<&str, u64> = BTreeMap::new();
                let mut longest = 0u64;
                for g in &l.gaps {
                    let width = g.end_ns.saturating_sub(g.start_ns);
                    longest = longest.max(width);
                    let who = g
                        .blocker
                        .and_then(|b| dag.index_of(b))
                        .map_or("(no dependency)", |i| dag.lane(&dag.nodes[i]).name.as_str());
                    *starved_by.entry(who).or_insert(0) += width;
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
                                .map(|(k, v)| (k.to_string(), Json::UInt(v)))
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

/// Orders nodes by completion, a tie going to the smaller id: the maximum
/// is the node that finished last. Every walk uses it, which keeps them
/// deterministic.
fn later(a: &&DagNode, b: &&DagNode) -> Ordering {
    (a.end_ns, b.id).cmp(&(b.end_ns, a.id))
}

impl ExecutedDag {
    /// Builds the DAG from its lane and category tables, its nodes in
    /// creation order, and each node's dependency ids (one entry per node,
    /// in node order; missing entries mean no dependencies). Every id is
    /// resolved to a node index here, once: an id that names no node is
    /// dropped, and a repeated id resolves to its last node. Lane and
    /// category names are distinct.
    ///
    /// # Panics
    ///
    /// When a node's `lane` or `category` is outside its table, or when
    /// the nodes or edges number more than `u32::MAX`.
    pub fn new<D>(
        lanes: Vec<DagLane>,
        categories: Vec<String>,
        nodes: Vec<DagNode>,
        deps: impl IntoIterator<Item = D>,
    ) -> ExecutedDag
    where
        D: IntoIterator<Item = u64>,
    {
        assert!(u32::try_from(nodes.len()).is_ok(), "too many DAG nodes");
        for n in &nodes {
            assert!(
                n.lane < lanes.len() && n.category < categories.len(),
                "node {} names a lane or category outside the tables",
                n.id
            );
        }
        let by_id = nodes
            .iter()
            .enumerate()
            .any(|(i, n)| n.id != i as u64)
            .then(|| {
                let mut table: Vec<(u64, usize)> =
                    nodes.iter().enumerate().map(|(i, n)| (n.id, i)).collect();
                table.sort_unstable();
                // Of a repeated id's entries, keep the last node's.
                table.dedup_by(|next, kept| {
                    let same = next.0 == kept.0;
                    if same {
                        *kept = *next;
                    }
                    same
                });
                table
            });
        let mut dag = ExecutedDag {
            ends: Vec::with_capacity(nodes.len()),
            lanes,
            categories,
            nodes,
            deps: Vec::new(),
            by_id,
            critical: Vec::new(),
        };
        let mut deps = deps.into_iter();
        for _ in 0..dag.nodes.len() {
            for id in deps.next().into_iter().flatten() {
                if let Some(j) = dag.index_of(id) {
                    // Below the node count, which fits `u32`.
                    dag.deps.push(j as u32);
                }
            }
            let end = u32::try_from(dag.deps.len()).expect("too many DAG edges");
            dag.ends.push(end);
        }
        // A DAG lives as long as its run: drop the edge table's growth slack.
        dag.deps.shrink_to_fit();
        dag.critical = dag.walk_critical_path();
        dag
    }

    /// The index of the node with id `id` (the last one if ids repeat).
    pub fn index_of(&self, id: u64) -> Option<usize> {
        match &self.by_id {
            None => (id < self.nodes.len() as u64).then_some(id as usize),
            Some(table) => table
                .binary_search_by_key(&id, |&(k, _)| k)
                .ok()
                .map(|at| table[at].1),
        }
    }

    /// Executed nodes, in creation order.
    pub fn nodes(&self) -> &[DagNode] {
        &self.nodes
    }

    /// The lane `node` ran on.
    pub fn lane(&self, node: &DagNode) -> &DagLane {
        &self.lanes[node.lane]
    }

    /// The attribution category of `node`.
    pub fn category(&self, node: &DagNode) -> &str {
        &self.categories[node.category]
    }

    /// The nodes node `i` waited for, as node indices.
    pub fn deps(&self, i: usize) -> &[u32] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.deps[start as usize..self.ends[i] as usize]
    }

    /// The dependency-critical path as node indices, first node first:
    /// the nodes of [`DagAnalysis::critical_path`], walked once when the
    /// DAG was built.
    pub fn critical_path(&self) -> &[usize] {
        &self.critical
    }

    /// Latest completion over all nodes.
    pub fn makespan_ns(&self) -> u64 {
        self.nodes.iter().map(|n| n.end_ns).max().unwrap_or(0)
    }

    /// Runs the full causal analysis: critical path, achieved overlap per
    /// `pairs` entry versus `planned`, and idle-gap attribution per lane.
    pub fn analyze(&self, pairs: &[PairSpec], planned: PlannedInterleaving) -> DagAnalysis {
        let makespan_ns = self.makespan_ns();
        let path = || self.critical.iter().map(|&i| &self.nodes[i]);
        let critical_len_ns: u64 = path().map(DagNode::duration_ns).sum();
        let mut by_cat: BTreeMap<&str, u64> = BTreeMap::new();
        let mut digest = Fnv1a::default();
        for n in path() {
            *by_cat.entry(self.category(n)).or_insert(0) += n.duration_ns();
            for word in [n.id, n.start_ns, n.end_ns] {
                digest.write(&word.to_le_bytes());
            }
        }
        let critical_frac_by_category = by_cat
            .into_iter()
            .map(|(cat, ns)| (cat.to_string(), ns as f64 / (critical_len_ns.max(1)) as f64))
            .collect();
        let by_lane = self.by_lane();

        DagAnalysis {
            makespan_ns,
            critical_path: path().map(|n| n.id).collect(),
            critical_len_ns,
            critical_path_frac: critical_len_ns as f64 / (makespan_ns.max(1)) as f64,
            critical_frac_by_category,
            overlaps: pairs
                .iter()
                .map(|p| self.overlap_pair(p, planned, &by_lane))
                .collect(),
            lanes: self.lane_idle(makespan_ns, &by_lane),
            digest: digest.finish(),
        }
    }

    /// Walks the dependency chain back from the last-finishing node,
    /// following at each step the dependency that finished last.
    fn walk_critical_path(&self) -> Vec<usize> {
        let nodes = &self.nodes;
        let Some(mut cur) = (0..nodes.len()).max_by(|&a, &b| later(&&nodes[a], &&nodes[b])) else {
            return Vec::new();
        };
        let mut path = vec![cur];
        // Each step visits a new node, so even a hand-built DAG with a
        // cycle stops within the node count.
        let mut visited = vec![false; nodes.len()];
        loop {
            visited[cur] = true;
            let next = self
                .deps(cur)
                .iter()
                .map(|&j| j as usize)
                .max_by(|&a, &b| later(&&nodes[a], &&nodes[b]));
            match next {
                Some(j) if !visited[j] => {
                    path.push(j);
                    cur = j;
                }
                _ => break,
            }
        }
        path.reverse();
        path
    }

    /// Node indices grouped by lane (a counting sort), each lane's in
    /// `(start, end)` order with node order breaking ties. The overlap
    /// sides and the idle-gap walk both read it.
    fn by_lane(&self) -> ByLane {
        let mut starts = vec![0usize; self.lanes.len() + 1];
        for n in &self.nodes {
            starts[n.lane + 1] += 1;
        }
        for l in 0..self.lanes.len() {
            starts[l + 1] += starts[l];
        }
        // `(start, end, index)` keys are distinct, so an unstable sort
        // yields the stable order.
        let mut keyed = vec![(0u64, 0u64, 0usize); self.nodes.len()];
        let mut fill = starts.clone();
        for (i, n) in self.nodes.iter().enumerate() {
            keyed[fill[n.lane]] = (n.start_ns, n.end_ns, i);
            fill[n.lane] += 1;
        }
        for l in 0..self.lanes.len() {
            keyed[starts[l]..starts[l + 1]].sort_unstable();
        }
        let order = keyed.into_iter().map(|(.., i)| i).collect();
        ByLane { starts, order }
    }

    fn overlap_pair(
        &self,
        pair: &PairSpec,
        planned: PlannedInterleaving,
        by_lane: &ByLane,
    ) -> OverlapReport {
        // Whether a side selects each category and each lane, decided once
        // per table entry rather than once per node.
        let spans = |cats: &[String], kinds: &[String]| {
            let cat: Vec<bool> = self.categories.iter().map(|c| cats.contains(c)).collect();
            // Each lane's union is sorted; a stable sort merges those runs.
            let mut spans: Vec<(u64, u64)> = Vec::new();
            for (l, lane) in self.lanes.iter().enumerate() {
                let whole = kinds.contains(&lane.kind);
                spans.extend(union(
                    by_lane
                        .of(l)
                        .iter()
                        .map(|&i| &self.nodes[i])
                        .filter(|n| (whole || cat[n.category]) && n.end_ns > n.start_ns)
                        .map(|n| (n.start_ns, n.end_ns)),
                ));
            }
            spans.sort();
            union(spans.into_iter())
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
    /// upstream task that starved the gap. Lanes come out in name order.
    fn lane_idle(&self, makespan_ns: u64, by_lane: &ByLane) -> Vec<LaneIdle> {
        let mut present: Vec<usize> = (0..self.lanes.len())
            .filter(|&l| !by_lane.of(l).is_empty())
            .collect();
        present.sort_by(|&a, &b| self.lanes[a].name.cmp(&self.lanes[b].name));
        let mut out = Vec::with_capacity(present.len());
        for l in present {
            let idx = by_lane.of(l);
            let mut gaps = Vec::new();
            let mut cover_end = 0u64;
            for &i in idx {
                let n = &self.nodes[i];
                if n.start_ns > cover_end {
                    let blocker = self
                        .deps(i)
                        .iter()
                        .map(|&j| &self.nodes[j as usize])
                        .max_by(later)
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
                    .filter(|(s, e)| e > s),
            ));
            let lane = &self.lanes[l];
            out.push(LaneIdle {
                lane: lane.name.clone(),
                res_kind: lane.kind.clone(),
                busy_ns,
                idle_ns: makespan_ns.saturating_sub(busy_ns),
                gaps,
            });
        }
        out
    }
}

/// Node indices grouped by lane: lane `l` holds
/// `order[starts[l]..starts[l + 1]]`.
struct ByLane {
    starts: Vec<usize>,
    order: Vec<usize>,
}

impl ByLane {
    fn of(&self, lane: usize) -> &[usize] {
        &self.order[self.starts[lane]..self.starts[lane + 1]]
    }
}

/// Merges half-open spans, sorted by start, into a disjoint union.
fn union(sorted: impl Iterator<Item = (u64, u64)>) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (s, e) in sorted {
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

    /// One hand-built node: `(id, lane, category, start, end, deps)`.
    type Spec<'a> = (u64, &'a str, &'a str, u64, u64, &'a [u64]);

    /// Builds a DAG from node specs, interning lanes (kind = the name's
    /// last `/` segment) and categories in first-seen order.
    fn dag(specs: &[Spec]) -> ExecutedDag {
        fn intern(table: &mut Vec<String>, name: &str) -> usize {
            table.iter().position(|t| t == name).unwrap_or_else(|| {
                table.push(name.to_string());
                table.len() - 1
            })
        }
        let (mut lanes, mut categories) = (Vec::new(), Vec::new());
        let nodes = specs
            .iter()
            .map(|&(id, lane, cat, start_ns, end_ns, _)| DagNode {
                id,
                lane: intern(&mut lanes, lane),
                category: intern(&mut categories, cat),
                start_ns,
                end_ns,
            })
            .collect();
        let lanes = lanes
            .into_iter()
            .map(|name| DagLane {
                kind: name.split('/').next_back().unwrap_or(&name).to_string(),
                name,
            })
            .collect();
        let deps = specs.iter().map(|s| s.5.iter().copied());
        ExecutedDag::new(lanes, categories, nodes, deps)
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
    const DIAMOND: [Spec; 4] = [
        (0, "n0/gpu-sm", "computation", 0, 10, &[]),
        (1, "n0/network", "communication", 10, 30, &[0]),
        (2, "n0/gpu-sm", "computation", 30, 40, &[1]),
        (3, "n1/gpu-sm", "computation", 0, 40, &[]),
    ];

    fn diamond() -> ExecutedDag {
        dag(&DIAMOND)
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
        let a = dag(&DIAMOND[..3]).analyze(&pairs(), planned(1, 1));
        assert_eq!(a.overlaps[0].achieved, 0.0);
        assert_eq!(a.overlaps[0].planned, 0.0);

        // No communication at all: trivially fully hidden.
        let compute_only = dag(&[(0, "g", "computation", 0, 10, &[])]);
        assert_eq!(
            compute_only.analyze(&pairs(), planned(1, 1)).overlaps[0].achieved,
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
        let mut moved = DIAMOND;
        moved[1].4 = 31;
        moved[2].3 = 31;
        let a3 = dag(&moved).analyze(&pairs(), planned(1, 1));
        assert_ne!(a1.digest, a3.digest);
    }

    #[test]
    fn empty_dag_analyzes_to_zeroes() {
        assert_eq!(dag(&[]), ExecutedDag::default());
        let a = ExecutedDag::default().analyze(&pairs(), planned(1, 1));
        assert_eq!(a.makespan_ns, 0);
        assert!(a.critical_path.is_empty());
        assert_eq!(a.critical_path_frac, 0.0);
        assert!(a.lanes.is_empty());
    }

    /// The node ids of the DAG's own critical path.
    fn path_ids(dag: &ExecutedDag) -> Vec<u64> {
        dag.critical_path()
            .iter()
            .map(|&i| dag.nodes()[i].id)
            .collect()
    }

    #[test]
    fn critical_path_alone_matches_the_full_analysis() {
        let dag = diamond();
        assert_eq!(
            path_ids(&dag),
            dag.analyze(&pairs(), planned(1, 1)).critical_path
        );
        assert!(ExecutedDag::default().critical_path().is_empty());
    }

    #[test]
    fn ids_that_are_not_indices_resolve_once() {
        // Ids 10, 20, 30 in reverse creation order, one dangling edge (99)
        // and a repeated id (20) that resolves to its last node.
        let dag = dag(&[
            (30, "n0/gpu-sm", "computation", 0, 10, &[99]),
            (20, "n0/network", "communication", 10, 20, &[30]),
            (10, "n0/gpu-sm", "computation", 20, 30, &[20]),
            (20, "n1/gpu-sm", "computation", 30, 40, &[10]),
        ]);
        assert_eq!(dag.index_of(30), Some(0));
        assert_eq!(dag.index_of(20), Some(3), "the last node wins");
        assert_eq!(dag.index_of(99), None);
        assert!(dag.deps(0).is_empty(), "a dangling edge is dropped");
        assert_eq!(dag.deps(2), [3], "edges hold resolved node indices");
        // Node 3 waits for id 10 (node 2), which waits for id 20: node 3
        // again, so the walk stops there.
        assert_eq!(dag.critical_path(), [2, 3]);
        assert_eq!(path_ids(&dag), [10, 20]);
    }

    #[test]
    fn long_chains_return_the_whole_chain_and_cycles_terminate() {
        const N: u64 = 50_000;
        let preds: Vec<[u64; 1]> = (0..N).map(|i| [i.wrapping_sub(1)]).collect();
        let specs: Vec<Spec> = (0..N)
            .map(|i| {
                let deps: &[u64] = if i == 0 { &[] } else { &preds[i as usize] };
                (i, "n0/gpu-sm", "computation", i, i + 1, deps)
            })
            .collect();
        let chain = dag(&specs);
        assert_eq!(path_ids(&chain), (0..N).collect::<Vec<_>>());

        // 0 -> 1 -> 2 -> 0: no run produces a cycle, but a hand-built DAG
        // can.
        let cyclic = dag(&[
            (0, "n0/gpu-sm", "computation", 0, 10, &[2]),
            (1, "n0/gpu-sm", "computation", 10, 20, &[0]),
            (2, "n0/gpu-sm", "computation", 20, 30, &[1]),
        ]);
        assert_eq!(path_ids(&cyclic), vec![0, 1, 2]);
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
