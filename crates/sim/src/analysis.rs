//! Causal analysis of a finished run: why it took as long as it did.
//!
//! A run's records are its executed DAG. [`RunResult::records`] holds every
//! task's resource, category and timestamps, and [`RunResult::deps`] its
//! dependency edges, exactly as the engine stored them. [`analyze`] reads
//! both in place (no copy, no id table) and reports the dependency-critical
//! path, the *achieved* overlap ratio per resource pair (e.g. communication
//! hidden under compute) against the pass pipeline's planned interleaving
//! ([`PlannedInterleaving`]), and per-lane idle-gap attribution (which
//! upstream task starved each gap). A lane is one resource. Every union,
//! intersection and measure is an [`IntervalSet`] operation, the algebra
//! [`crate::measure`] uses.
//!
//! A run has two critical paths, for two questions:
//!
//! - [`RunResult::critical_path`] follows each task's [`crate::Binding`]:
//!   the dependency *or the resource channel* it last waited for, so the
//!   path includes resource queueing. Telemetry's `critical_path_secs`
//!   reads it.
//! - [`critical_path`] here follows the dependency edges only, stepping at
//!   each task to its last-finishing dependency. [`DagAnalysis`] and the
//!   Chrome critical-path track read it; `critical_path_frac` says how
//!   much of the makespan that chain explains.
//!
//! Everything here is pure: the analysis reads the immutable result and
//! never feeds back into scheduling.

use crate::engine::{RunResult, TaskCategory, TaskId, TaskRecord};
use crate::intervals::IntervalSet;
use crate::resource::{ResourceId, ResourceKind};
use crate::time::SimTime;
use picasso_obs::checksum::Fnv1a;
use picasso_obs::json::Json;
use std::cmp::Ordering;
use std::collections::BTreeMap;

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

/// Selects the "hidden" and "hiding" task sets of one overlap pair. A task
/// matches a side when its category is listed in `*_categories` or its
/// resource's kind is listed in `*_kinds`.
#[derive(Debug, Clone, Default)]
pub struct PairSpec {
    /// Pair name, e.g. `comm_under_compute`.
    pub name: String,
    /// Categories of the work that should be hidden.
    pub under_categories: Vec<TaskCategory>,
    /// Resource kinds of the work that should be hidden.
    pub under_kinds: Vec<ResourceKind>,
    /// Categories of the work that does the hiding.
    pub over_categories: Vec<TaskCategory>,
    /// Resource kinds of the work that does the hiding.
    pub over_kinds: Vec<ResourceKind>,
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

/// One idle gap on a lane, attributed to the upstream task that starved it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdleGap {
    /// Gap start, nanoseconds.
    pub start_ns: u64,
    /// Gap end (the starved task's start), nanoseconds.
    pub end_ns: u64,
    /// Task whose start ended the gap.
    pub starved: u64,
    /// The dependency the starved task was waiting for, when it had one.
    pub blocker: Option<u64>,
}

/// Busy/idle profile of one lane (resource) with its attributed gaps.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneIdle {
    /// The lane's resource.
    pub resource: ResourceId,
    /// Busy nanoseconds (union of task intervals).
    pub busy_ns: u64,
    /// Idle nanoseconds within the makespan.
    pub idle_ns: u64,
    /// Gaps in start order, each attributed to its blocking upstream task.
    pub gaps: Vec<IdleGap>,
}

/// The full causal analysis of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct DagAnalysis {
    /// Latest completion over all tasks, nanoseconds.
    pub makespan_ns: u64,
    /// Task ids along the dependency-critical path, in execution order.
    pub critical_path: Vec<u64>,
    /// Summed duration of the critical-path tasks, nanoseconds.
    pub critical_len_ns: u64,
    /// `critical_len_ns / makespan_ns`: the fraction of the makespan
    /// explained by chained dependency work (the remainder is resource
    /// queueing and scheduling gaps).
    pub critical_path_frac: f64,
    /// Critical-path time share per category name (sums to 1 when
    /// nonempty), in name order.
    pub critical_frac_by_category: Vec<(String, f64)>,
    /// Achieved overlap per requested resource pair.
    pub overlaps: Vec<OverlapReport>,
    /// Busy/idle profile and gap attribution per busy lane, in lane-name
    /// order.
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

    /// Serializes the analysis of `result` as a JSON section. Gap lists are
    /// summarized per lane (count, longest, and nanoseconds attributed per
    /// blocking lane) to keep the document readable.
    pub fn to_json(&self, result: &RunResult) -> Json {
        let spec = |r: ResourceId| &result.resources[r.0].spec;
        let lanes = self
            .lanes
            .iter()
            .map(|l| {
                let mut starved_by: BTreeMap<&str, u64> = BTreeMap::new();
                let mut longest = 0u64;
                for g in &l.gaps {
                    let width = g.end_ns - g.start_ns;
                    longest = longest.max(width);
                    let who = g.blocker.map_or("(no dependency)", |b| {
                        spec(result.records[b as usize].resource).name.as_str()
                    });
                    *starved_by.entry(who).or_insert(0) += width;
                }
                Json::obj([
                    ("lane", Json::str(&spec(l.resource).name)),
                    ("res_kind", Json::str(spec(l.resource).kind.name())),
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

/// Orders records by completion, a tie going to the smaller id: the maximum
/// is the task that finished last. Every walk uses it, which keeps them
/// deterministic.
fn later(a: &&TaskRecord, b: &&TaskRecord) -> Ordering {
    (a.end, b.task).cmp(&(b.end, a.task))
}

/// The dependency of `task` that finished last, if it has any.
fn last_dependency(result: &RunResult, task: TaskId) -> Option<&TaskRecord> {
    let deps = result.deps(task).iter().map(|d| &result.records[d.0]);
    deps.max_by(later)
}

/// The dependency-critical path, first task first: from the last-finishing
/// task, each step goes to the dependency that finished last. See the
/// module docs for how it differs from [`RunResult::critical_path`].
pub fn critical_path(result: &RunResult) -> Vec<TaskId> {
    let Some(mut cur) = result.records.iter().max_by(later) else {
        return Vec::new();
    };
    let mut path = vec![cur.task];
    // `Engine::add_task` rejects a dependency that is not an earlier task,
    // so every step lowers the id and the walk ends.
    while let Some(dep) = last_dependency(result, cur.task) {
        path.push(dep.task);
        cur = dep;
    }
    path.reverse();
    path
}

/// Runs the full causal analysis of `result`: the critical path, achieved
/// overlap per `pairs` entry versus `planned`, and idle-gap attribution per
/// lane.
pub fn analyze(
    result: &RunResult,
    pairs: &[PairSpec],
    planned: PlannedInterleaving,
) -> DagAnalysis {
    let records = &result.records;
    let makespan_ns = result.makespan.as_nanos();
    let path = critical_path(result);
    let mut critical_len_ns = 0;
    let mut by_cat: BTreeMap<&str, u64> = BTreeMap::new();
    let mut digest = Fnv1a::default();
    for t in &path {
        let r = &records[t.0];
        let ns = (r.end - r.start).as_nanos();
        critical_len_ns += ns;
        *by_cat.entry(r.category.name()).or_insert(0) += ns;
        for word in [t.0 as u64, r.start.as_nanos(), r.end.as_nanos()] {
            digest.write(&word.to_le_bytes());
        }
    }
    let critical_frac_by_category = by_cat
        .into_iter()
        .map(|(cat, ns)| (cat.to_string(), ns as f64 / critical_len_ns.max(1) as f64))
        .collect();

    let lanes = Lanes::of(result);
    DagAnalysis {
        makespan_ns,
        critical_path: path.iter().map(|t| t.0 as u64).collect(),
        critical_len_ns,
        critical_path_frac: critical_len_ns as f64 / makespan_ns.max(1) as f64,
        critical_frac_by_category,
        overlaps: pairs
            .iter()
            .map(|p| lanes.overlap(result, p, planned))
            .collect(),
        lanes: lanes.idle(result, makespan_ns),
        digest: digest.finish(),
    }
}

/// A run's records grouped by lane: lane `r` holds record indices
/// `order[starts[r]..starts[r + 1]]` in `(start, end)` order, task order
/// breaking ties, and `busy[r]` is the union of their intervals.
struct Lanes {
    starts: Vec<usize>,
    order: Vec<usize>,
    busy: Vec<IntervalSet>,
}

impl Lanes {
    /// Groups the records with a counting sort by resource.
    fn of(result: &RunResult) -> Lanes {
        let n_res = result.resources.len();
        let mut starts = vec![0usize; n_res + 1];
        for r in &result.records {
            starts[r.resource.0 + 1] += 1;
        }
        for l in 0..n_res {
            starts[l + 1] += starts[l];
        }
        // `(start, end, index)` keys are distinct, so an unstable sort
        // yields the stable order.
        let mut keyed = vec![(SimTime::ZERO, SimTime::ZERO, 0usize); result.records.len()];
        let mut fill = starts.clone();
        for (i, r) in result.records.iter().enumerate() {
            keyed[fill[r.resource.0]] = (r.start, r.end, i);
            fill[r.resource.0] += 1;
        }
        let busy = (0..n_res)
            .map(|l| {
                let lane = &mut keyed[starts[l]..starts[l + 1]];
                lane.sort_unstable();
                IntervalSet::from_spans(lane.iter().map(|&(s, e, _)| (s, e)).collect())
            })
            .collect();
        let order = keyed.into_iter().map(|(.., i)| i).collect();
        Lanes {
            starts,
            order,
            busy,
        }
    }

    fn lane(&self, r: usize) -> &[usize] {
        &self.order[self.starts[r]..self.starts[r + 1]]
    }

    /// The union of the intervals of every task one side selects: a lane
    /// whose kind the side names contributes its whole busy set, any other
    /// lane its tasks of the named categories.
    fn side(
        &self,
        result: &RunResult,
        cats: &[TaskCategory],
        kinds: &[ResourceKind],
    ) -> IntervalSet {
        let mut spans = Vec::new();
        for (r, res) in result.resources.iter().enumerate() {
            if kinds.contains(&res.spec.kind) {
                spans.extend_from_slice(self.busy[r].spans());
            } else {
                let picked = (self.lane(r).iter().map(|&i| &result.records[i]))
                    .filter(|rec| cats.contains(&rec.category))
                    .map(|rec| (rec.start, rec.end));
                spans.extend_from_slice(IntervalSet::from_spans(picked.collect()).spans());
            }
        }
        IntervalSet::from_spans(spans)
    }

    fn overlap(
        &self,
        result: &RunResult,
        pair: &PairSpec,
        planned: PlannedInterleaving,
    ) -> OverlapReport {
        let under = self.side(result, &pair.under_categories, &pair.under_kinds);
        let over = self.side(result, &pair.over_categories, &pair.over_kinds);
        let under_busy_ns = under.measure().as_nanos();
        let hidden_ns = under.intersect(&over).measure().as_nanos();
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

    /// Per-lane gap walk: any instant a lane sat idle before a task started
    /// is attributed to the last-finishing dependency of that task — the
    /// upstream task that starved the gap.
    fn idle(&self, result: &RunResult, makespan_ns: u64) -> Vec<LaneIdle> {
        let name = |r: usize| &result.resources[r].spec.name;
        let mut present: Vec<usize> = (0..result.resources.len())
            .filter(|&r| !self.lane(r).is_empty())
            .collect();
        present.sort_by(|&a, &b| name(a).cmp(name(b)));
        let mut out = Vec::with_capacity(present.len());
        for r in present {
            let mut gaps = Vec::new();
            let mut cover_end = SimTime::ZERO;
            for &i in self.lane(r) {
                let rec = &result.records[i];
                if rec.start > cover_end {
                    gaps.push(IdleGap {
                        start_ns: cover_end.as_nanos(),
                        end_ns: rec.start.as_nanos(),
                        starved: i as u64,
                        blocker: last_dependency(result, rec.task).map(|b| b.task.0 as u64),
                    });
                }
                cover_end = cover_end.max(rec.end);
            }
            let busy_ns = self.busy[r].measure().as_nanos();
            out.push(LaneIdle {
                resource: ResourceId(r),
                busy_ns,
                idle_ns: makespan_ns.saturating_sub(busy_ns),
                gaps,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Task};
    use crate::resource::ResourceSpec;
    use TaskCategory::{Communication, Computation};

    /// One task: `(lane, category, work, deps)`. Every lane serves one work
    /// unit per nanosecond, and its kind is its name's last `/` segment.
    type Spec<'a> = (&'a str, TaskCategory, u64, &'a [usize]);

    /// Runs the specs through the engine, adding each lane on first use.
    fn run(specs: &[Spec]) -> RunResult {
        let mut engine = Engine::new();
        let mut lanes: Vec<(&str, ResourceId)> = Vec::new();
        for &(lane, category, work, deps) in specs {
            let r = match lanes.iter().find(|(name, _)| *name == lane) {
                Some(&(_, r)) => r,
                None => {
                    let kind = ResourceKind::ALL
                        .into_iter()
                        .find(|k| lane.rsplit('/').next() == Some(k.name()))
                        .unwrap();
                    let r = engine.add_resource(ResourceSpec::new(lane, kind, 1e9, 0));
                    lanes.push((lane, r));
                    r
                }
            };
            let deps: Vec<TaskId> = deps.iter().map(|&d| TaskId(d)).collect();
            engine
                .add_task(Task::new(r, work as f64, category), &deps)
                .unwrap();
        }
        engine.run().unwrap()
    }

    fn pairs() -> Vec<PairSpec> {
        vec![PairSpec {
            name: "comm_under_compute".into(),
            under_categories: vec![Communication],
            over_categories: vec![Computation],
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
        ("n0/gpu-sm", Computation, 10, &[]),
        ("n0/network", Communication, 20, &[0]),
        ("n0/gpu-sm", Computation, 10, &[1]),
        ("n1/gpu-sm", Computation, 40, &[]),
    ];

    fn lane<'a>(result: &RunResult, a: &'a DagAnalysis, name: &str) -> &'a LaneIdle {
        a.lanes
            .iter()
            .find(|l| result.resources[l.resource.0].spec.name == name)
            .unwrap()
    }

    #[test]
    fn critical_path_follows_last_finishing_dependencies() {
        let a = analyze(&run(&DIAMOND), &pairs(), planned(1, 1));
        assert_eq!(a.makespan_ns, 40);
        // Ties at end=40 break toward the smaller id: task 2's chain wins.
        assert_eq!(a.critical_path, vec![0, 1, 2]);
        assert_eq!(a.critical_len_ns, 40);
        assert!((a.critical_path_frac - 1.0).abs() < 1e-12);
        let by_cat: BTreeMap<_, _> = a.critical_frac_by_category.iter().cloned().collect();
        assert!((by_cat["communication"] - 0.5).abs() < 1e-12);
        assert!((by_cat["computation"] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlap_ratio_measures_hidden_communication() {
        let a = analyze(&run(&DIAMOND), &pairs(), planned(2, 3));
        let o = &a.overlaps[0];
        // B (20 ns of comm) is fully covered by D's compute.
        assert_eq!(o.under_busy_ns, 20);
        assert_eq!(o.hidden_ns, 20);
        assert!((o.achieved - 1.0).abs() < 1e-12);
        assert!((o.planned - (1.0 - 1.0 / 6.0)).abs() < 1e-12);

        // Remove the covering compute: nothing hides the transfer.
        let a = analyze(&run(&DIAMOND[..3]), &pairs(), planned(1, 1));
        assert_eq!(a.overlaps[0].achieved, 0.0);
        assert_eq!(a.overlaps[0].planned, 0.0);

        // No communication at all: trivially fully hidden.
        let compute_only = run(&[("n0/gpu-sm", Computation, 10, &[])]);
        let a = analyze(&compute_only, &pairs(), planned(1, 1));
        assert_eq!(a.overlaps[0].achieved, 1.0);
    }

    #[test]
    fn idle_gaps_are_attributed_to_the_blocking_upstream_node() {
        let result = run(&DIAMOND);
        let a = analyze(&result, &pairs(), planned(1, 1));
        let gpu = lane(&result, &a, "n0/gpu-sm");
        assert_eq!(gpu.busy_ns, 20);
        assert_eq!(gpu.idle_ns, 20);
        assert_eq!(gpu.gaps.len(), 1);
        let gap = &gpu.gaps[0];
        assert_eq!((gap.start_ns, gap.end_ns), (10, 30));
        assert_eq!(gap.starved, 2);
        assert_eq!(gap.blocker, Some(1), "the comm transfer starved the GPU");
        // The fully busy lane has no gaps and no idle time.
        let other = lane(&result, &a, "n1/gpu-sm");
        assert!(other.gaps.is_empty());
        assert_eq!(other.idle_ns, 0);
    }

    #[test]
    fn digest_is_deterministic_and_sensitive_to_the_path() {
        let a1 = analyze(&run(&DIAMOND), &pairs(), planned(1, 1));
        let a2 = analyze(&run(&DIAMOND), &pairs(), planned(4, 2));
        assert_eq!(a1.digest, a2.digest, "planned factors do not move the path");
        // B ends at 31 and C runs 31-40: same path, other timestamps.
        let mut moved = DIAMOND;
        moved[1].2 = 21;
        moved[2].2 = 9;
        let a3 = analyze(&run(&moved), &pairs(), planned(1, 1));
        assert_eq!(a3.critical_path, a1.critical_path);
        assert_ne!(a1.digest, a3.digest);
    }

    #[test]
    fn empty_dag_analyzes_to_zeroes() {
        let a = analyze(&run(&[]), &pairs(), planned(1, 1));
        assert_eq!(a.makespan_ns, 0);
        assert!(a.critical_path.is_empty());
        assert_eq!(a.critical_path_frac, 0.0);
        assert!(a.lanes.is_empty());
    }

    /// The ids of the run's dependency-critical path.
    fn path_ids(result: &RunResult) -> Vec<u64> {
        critical_path(result).iter().map(|t| t.0 as u64).collect()
    }

    #[test]
    fn critical_path_alone_matches_the_full_analysis() {
        let result = run(&DIAMOND);
        let a = analyze(&result, &pairs(), planned(1, 1));
        assert_eq!(path_ids(&result), a.critical_path);
        assert!(critical_path(&run(&[])).is_empty());
    }

    #[test]
    fn long_chains_return_the_whole_chain() {
        const N: usize = 50_000;
        let preds: Vec<[usize; 1]> = (0..N).map(|i| [i.wrapping_sub(1)]).collect();
        let specs: Vec<Spec> = (0..N)
            .map(|i| {
                let deps: &[usize] = if i == 0 { &[] } else { &preds[i] };
                ("n0/gpu-sm", Computation, 1, deps)
            })
            .collect();
        assert_eq!(path_ids(&run(&specs)), (0..N as u64).collect::<Vec<_>>());
    }

    #[test]
    fn the_binding_path_and_the_dependency_path_differ_on_a_resource_wait() {
        // Two independent tasks on one lane: B queues behind A.
        let result = run(&[
            ("n0/gpu-sm", Computation, 10, &[]),
            ("n0/gpu-sm", Computation, 10, &[]),
        ]);
        // The binding path includes the resource wait; the dependency
        // path does not, so it explains only half the makespan.
        assert_eq!(result.critical_path(), vec![TaskId(0), TaskId(1)]);
        assert_eq!(critical_path(&result), vec![TaskId(1)]);
        let a = analyze(&result, &pairs(), planned(1, 1));
        assert_eq!(a.critical_path, vec![1]);
        assert!((a.critical_path_frac - 0.5).abs() < 1e-12);
    }

    #[test]
    fn analysis_serializes_to_json() {
        let result = run(&DIAMOND);
        let a = analyze(&result, &pairs(), planned(2, 2));
        let doc = picasso_obs::json::parse(&a.to_json(&result).to_json()).unwrap();
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
        assert_eq!(gpu.get("res_kind").and_then(Json::as_str), Some("gpu-sm"));
        assert_eq!(
            gpu.get("starved_by")
                .and_then(|s| s.get("n0/network"))
                .and_then(Json::as_u64),
            Some(20)
        );
    }
}
