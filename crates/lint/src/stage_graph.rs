//! A backend-agnostic model of the lowered execution graph, plus the
//! stage-surface rules.
//!
//! `picasso-exec` lowers a `WdlSpec` into per-resource stage tasks; this
//! module models just enough of that graph — labels, resource classes,
//! predicted costs, dependency edges, and which nodes were fused into one
//! kernel — for the analyzer to check the invariants that the simulation
//! engine either cannot see (a cyclic spec never reaches it) or would
//! only surface as silently-wrong numbers (zero-cost calibration points).

use crate::effects::{EffectSet, RaceAllowlist};
use crate::mhp::{self, MhpRelation};
use crate::{Diagnostic, Severity, Span};

/// One lowered stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageNode {
    /// Unique human-readable label (`chain2/shuffle_stitch`, `mlp/fwd`).
    pub label: String,
    /// Operator kind name (informational).
    pub kind: &'static str,
    /// Hardware resource class the stage is bound by (`compute`,
    /// `device_memory`, `host_memory`, `intra_comm`, `inter_comm`,
    /// `host_compute`, `io`).
    pub class: &'static str,
    /// Predicted cost in abstract work units (bytes or FLOPs).
    pub cost: f64,
    /// Kernel-launch count the stage contributes (dispatch overhead);
    /// a stage with zero cost *and* zero launches predicts zero time.
    pub launches: u32,
    /// True for graph entry points (stages with no intrinsic inputs,
    /// e.g. the data-load stage).
    pub entry: bool,
    /// Declared effect set over shared resources (empty = pure); checked
    /// by the `race.*` rules against the MHP relation.
    pub effects: EffectSet,
}

impl StageNode {
    /// A new stage node (non-entry).
    pub fn new(
        label: impl Into<String>,
        kind: &'static str,
        class: &'static str,
        cost: f64,
        launches: u32,
    ) -> StageNode {
        StageNode {
            label: label.into(),
            kind,
            class,
            cost,
            launches,
            entry: false,
            effects: EffectSet::empty(),
        }
    }

    /// Marks the node as a graph entry point (builder style).
    pub fn entry(mut self) -> StageNode {
        self.entry = true;
        self
    }

    /// Attaches the declared effect set (builder style).
    pub fn with_effects(mut self, effects: EffectSet) -> StageNode {
        self.effects = effects;
        self
    }
}

/// A control dependency: `to` may start only after `from` completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageEdge {
    /// Index of the prerequisite node.
    pub from: usize,
    /// Index of the dependent node.
    pub to: usize,
}

/// A set of stages fused into one kernel by K-Packing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageFusion {
    /// Label of the fused kernel (e.g. `chain0/shuffle_stitch`).
    pub label: String,
    /// Node indices lowered from the fused kernel. The fusion is legal
    /// only when every member is bound by the same resource class.
    pub nodes: Vec<usize>,
}

/// The lowered execution graph handed to the stage-surface rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageGraph {
    /// All stages.
    pub nodes: Vec<StageNode>,
    /// Control-dependency edges between stages.
    pub edges: Vec<StageEdge>,
    /// K-Packed kernels and the stages they lowered to.
    pub fusions: Vec<StageFusion>,
}

impl StageGraph {
    /// Adds a node and returns its index.
    pub fn push(&mut self, node: StageNode) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Adds a dependency edge `from -> to`.
    pub fn dep(&mut self, from: usize, to: usize) {
        self.edges.push(StageEdge { from, to });
    }

    /// Runs every stage-surface rule (including the `race.*` rules over
    /// the declared effect sets) and returns the findings. The cycle,
    /// reachability and race rules share one adjacency table of the edges.
    pub fn analyze(&self) -> Vec<Diagnostic> {
        let adj = Adjacency::of_graph(self);
        let mut out = Vec::new();
        self.check_edges(&mut out);
        self.check_cycles(&adj, &mut out);
        self.check_fusions(&mut out);
        self.check_reachability(&adj, &mut out);
        self.check_costs(&mut out);
        self.check_races(&adj, &mut out);
        out
    }

    /// Every statically-detected race: MHP pairs with conflicting
    /// declared effects, under the default commutative allowlist.
    pub fn static_races(&self) -> Vec<mhp::StaticRace> {
        mhp::static_races(self, &RaceAllowlist::default())
    }

    /// `race.*`: flags MHP pairs whose declared effects conflict.
    fn check_races(&self, adj: &Adjacency, out: &mut Vec<Diagnostic>) {
        let rel = MhpRelation::of_adjacency(adj);
        let races = mhp::races_under(self, &rel, &RaceAllowlist::default());
        out.extend(mhp::race_diagnostics(&races));
    }

    /// `stage.dangling-edge`: an edge naming a node past the end of the
    /// graph orders nothing. Every other rule skips such edges.
    fn check_edges(&self, out: &mut Vec<Diagnostic>) {
        let n = self.nodes.len();
        for e in &self.edges {
            let Some(bad) = [e.from, e.to].into_iter().find(|&i| i >= n) else {
                continue;
            };
            let anchor = [e.from, e.to].into_iter().find(|&i| i < n);
            let span = anchor.map_or_else(
                || format!("edge {} -> {}", e.from, e.to),
                |i| self.nodes[i].label.clone(),
            );
            out.push(
                Diagnostic::new(
                    "stage.dangling-edge",
                    Severity::Error,
                    Span::Stage(span),
                    format!(
                        "control dependency {} -> {} names node {bad}, but the graph has {n} \
                         stage(s)",
                        e.from, e.to,
                    ),
                )
                .with_hint("edges must connect lowered stages; drop or re-index the edge"),
            );
        }
    }

    /// `stage.dependency-cycle`: Kahn's algorithm; any node left with a
    /// nonzero in-degree sits on (or downstream of) a cycle. The cycle
    /// itself is recovered by walking unresolved predecessors.
    fn check_cycles(&self, adj: &Adjacency, out: &mut Vec<Diagnostic>) {
        let n = self.nodes.len();
        let mut indeg: Vec<usize> = (0..n).map(|i| adj.pred(i).len()).collect();
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut done = 0usize;
        while let Some(i) = ready.pop() {
            done += 1;
            for &j in adj.succ(i) {
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    ready.push(j);
                }
            }
        }
        if done == n {
            return;
        }
        // Recover one concrete cycle among the stuck nodes: repeatedly
        // step to the first unresolved predecessor (in edge order) until a
        // node repeats.
        let stuck: Vec<usize> = (0..n).filter(|&i| indeg[i] > 0).collect();
        let mut cur = stuck[0];
        let mut path = vec![cur];
        let cycle = loop {
            // A stuck node's remaining in-degree counts edges from stuck
            // nodes only, so it always has an unresolved predecessor.
            #[allow(clippy::expect_used)]
            let prev = *adj
                .pred(cur)
                .iter()
                .find(|&&p| indeg[p] > 0)
                .expect("a stuck node has a stuck predecessor");
            if let Some(pos) = path.iter().position(|&x| x == prev) {
                let mut cycle: Vec<usize> = path[pos..].to_vec();
                cycle.reverse();
                cycle.push(prev);
                break cycle;
            }
            path.push(prev);
            cur = prev;
        };
        let labels: Vec<&str> = cycle
            .iter()
            .map(|&i| self.nodes[i].label.as_str())
            .collect();
        out.push(
            Diagnostic::new(
                "stage.dependency-cycle",
                Severity::Error,
                Span::Stage(self.nodes[cycle[0]].label.clone()),
                format!(
                    "control dependencies form a cycle ({} stage(s) can never start): {}",
                    stuck.len(),
                    labels.join(" -> "),
                ),
            )
            .with_hint("break the cycle: group dependencies must point at earlier groups only"),
        );
    }

    /// `stage.cross-class-fusion`: every stage lowered from one fused
    /// kernel must be bound by the same resource class.
    fn check_fusions(&self, out: &mut Vec<Diagnostic>) {
        for fusion in &self.fusions {
            let mut classes: Vec<&str> = fusion
                .nodes
                .iter()
                .filter_map(|&i| self.nodes.get(i))
                .map(|node| node.class)
                .collect();
            classes.sort_unstable();
            classes.dedup();
            if classes.len() > 1 {
                out.push(
                    Diagnostic::new(
                        "stage.cross-class-fusion",
                        Severity::Error,
                        Span::Stage(fusion.label.clone()),
                        format!(
                            "fused kernel spans {} resource classes ({})",
                            classes.len(),
                            classes.join(", "),
                        ),
                    )
                    .with_hint("K-Packing may only fuse ops bound by the same resource class"),
                );
            }
        }
    }

    /// `stage.unreachable`: nodes not reachable from any entry node. With
    /// no declared entries the rule is vacuous (nothing to reach from).
    fn check_reachability(&self, adj: &Adjacency, out: &mut Vec<Diagnostic>) {
        if !self.nodes.iter().any(|node| node.entry) {
            return;
        }
        let n = self.nodes.len();
        let mut seen = vec![false; n];
        let mut stack: Vec<usize> = (0..n).filter(|&i| self.nodes[i].entry).collect();
        for &i in &stack {
            seen[i] = true;
        }
        while let Some(i) = stack.pop() {
            for &j in adj.succ(i) {
                if !seen[j] {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if !seen[i] {
                out.push(
                    Diagnostic::new(
                        "stage.unreachable",
                        Severity::Warn,
                        Span::Stage(node.label.clone()),
                        "stage is unreachable from the graph entry points and will never run",
                    )
                    .with_hint("connect the stage to the data-load entry or remove it"),
                );
            }
        }
    }

    /// `stage.cost-sanity` / `stage.zero-cost`: negative or non-finite
    /// predicted costs are errors; a stage with zero cost *and* zero
    /// launches predicts zero time, which calibration cannot divide by.
    fn check_costs(&self, out: &mut Vec<Diagnostic>) {
        for node in &self.nodes {
            if node.cost < 0.0 || !node.cost.is_finite() {
                out.push(
                    Diagnostic::new(
                        "stage.cost-sanity",
                        Severity::Error,
                        Span::Stage(node.label.clone()),
                        format!("stage predicts an invalid cost ({})", node.cost),
                    )
                    .with_hint("cost-model inputs must be finite and non-negative"),
                );
            } else if node.cost == 0.0 && node.launches == 0 {
                out.push(
                    Diagnostic::new(
                        "stage.zero-cost",
                        Severity::Warn,
                        Span::Stage(node.label.clone()),
                        "stage predicts exactly zero cost (no work, no launches)",
                    )
                    .with_hint("zero-cost stages corrupt calibration ratios; drop or cost them"),
                );
            }
        }
    }
}

/// The successor and predecessor lists of a graph's control edges in CSR
/// form: per direction, one flat index array plus per-node offsets. Each
/// node's lists keep edge order, duplicates included. Edges naming a node
/// out of range are dropped (`stage.dangling-edge` reports them).
#[derive(Debug)]
pub(crate) struct Adjacency {
    /// `succ[succ_at[i]..succ_at[i + 1]]` are node `i`'s successors.
    succ_at: Vec<usize>,
    succ: Vec<usize>,
    /// `pred[pred_at[i]..pred_at[i + 1]]` are node `i`'s predecessors.
    pred_at: Vec<usize>,
    pred: Vec<usize>,
}

impl Adjacency {
    /// The lists of `n` nodes joined by the `(from, to)` edges.
    pub(crate) fn new<I>(n: usize, edges: I) -> Adjacency
    where
        I: DoubleEndedIterator<Item = (usize, usize)> + Clone,
    {
        let edges = edges.filter(move |&(from, to)| from < n && to < n);
        let (succ_at, succ) = csr(n, edges.clone());
        let (pred_at, pred) = csr(n, edges.map(|(from, to)| (to, from)));
        Adjacency {
            succ_at,
            succ,
            pred_at,
            pred,
        }
    }

    /// The lists of `g`'s nodes and edges.
    pub(crate) fn of_graph(g: &StageGraph) -> Adjacency {
        Adjacency::new(g.nodes.len(), g.edges.iter().map(|e| (e.from, e.to)))
    }

    /// Number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.succ_at.len() - 1
    }

    /// Node `i`'s successors, in edge order.
    pub(crate) fn succ(&self, i: usize) -> &[usize] {
        &self.succ[self.succ_at[i]..self.succ_at[i + 1]]
    }

    /// Node `i`'s predecessors, in edge order.
    pub(crate) fn pred(&self, i: usize) -> &[usize] {
        &self.pred[self.pred_at[i]..self.pred_at[i + 1]]
    }
}

/// Groups `(key, value)` pairs by key in CSR form: key `k`'s values are
/// `values[at[k]..at[k + 1]]`, in input order. Every key must be below
/// `n`. Returns `(at, values)`.
pub fn csr<T, I>(n: usize, pairs: I) -> (Vec<usize>, Vec<T>)
where
    T: Copy + Default,
    I: DoubleEndedIterator<Item = (usize, T)> + Clone,
{
    // `at[k]` first counts key `k`, then becomes the end of its range, and
    // filling in reverse walks it back to the range's start.
    let mut at = vec![0usize; n + 1];
    for (k, _) in pairs.clone() {
        at[k] += 1;
    }
    let mut end = 0;
    for a in &mut at[..n] {
        end += *a;
        *a = end;
    }
    at[n] = end;
    let mut values = vec![T::default(); end];
    for (k, v) in pairs.rev() {
        at[k] -= 1;
        values[at[k]] = v;
    }
    (at, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// entry -> a -> b, all costed: clean for every rule.
    fn clean_graph() -> StageGraph {
        let mut g = StageGraph::default();
        let load = g.push(StageNode::new("load", "DataLoad", "io", 64.0, 1).entry());
        let a = g.push(StageNode::new(
            "chain0/gather",
            "Gather",
            "host_memory",
            32.0,
            1,
        ));
        let b = g.push(StageNode::new(
            "chain0/reduce",
            "SegmentReduce",
            "device_memory",
            8.0,
            1,
        ));
        g.dep(load, a);
        g.dep(a, b);
        g
    }

    #[test]
    fn clean_graph_has_no_findings() {
        assert!(clean_graph().analyze().is_empty());
    }

    #[test]
    fn cycle_is_detected_with_its_path() {
        let mut g = clean_graph();
        // b -> a closes a cycle with the existing a -> b.
        g.dep(2, 1);
        let diags = g.analyze();
        let cycle: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "stage.dependency-cycle")
            .collect();
        assert_eq!(cycle.len(), 1, "{diags:?}");
        assert_eq!(cycle[0].severity, Severity::Error);
        assert!(cycle[0].message.contains("chain0/gather"));
        assert!(cycle[0].message.contains("chain0/reduce"));
    }

    #[test]
    fn self_dependency_is_a_cycle() {
        let mut g = clean_graph();
        g.dep(1, 1);
        let diags = g.analyze();
        assert!(diags.iter().any(|d| d.rule == "stage.dependency-cycle"));
    }

    #[test]
    fn cycle_with_an_out_of_range_edge_is_reported_without_panicking() {
        let mut g = clean_graph();
        g.dep(2, 1);
        g.dep(99, 1);
        g.dep(1, 99);
        let diags = g.analyze();
        assert!(diags.iter().any(|d| d.rule == "stage.dependency-cycle"));
        assert_eq!(
            diags
                .iter()
                .filter(|d| d.rule == "stage.dangling-edge")
                .count(),
            2,
            "{diags:?}"
        );
    }

    #[test]
    fn dangling_edge_is_an_error() {
        let mut g = clean_graph();
        g.dep(1, 7);
        let diags = g.analyze();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "stage.dangling-edge");
        assert_eq!(diags[0].severity, Severity::Error);
        assert_eq!(diags[0].span, crate::Span::Stage("chain0/gather".into()));
        assert!(diags[0].message.contains("node 7"), "{}", diags[0].message);
    }

    #[test]
    fn same_class_fusion_is_clean() {
        let mut g = clean_graph();
        let s1 = g.push(StageNode::new(
            "chain0/shuffle",
            "Shuffle",
            "inter_comm",
            10.0,
            1,
        ));
        let s2 = g.push(StageNode::new(
            "chain0/stitch",
            "Stitch",
            "inter_comm",
            10.0,
            1,
        ));
        g.dep(0, s1);
        g.dep(s1, s2);
        g.fusions.push(StageFusion {
            label: "chain0/shuffle_stitch".into(),
            nodes: vec![s1, s2],
        });
        assert!(g.analyze().is_empty());
    }

    #[test]
    fn cross_class_fusion_is_an_error() {
        let mut g = clean_graph();
        let s1 = g.push(StageNode::new(
            "chain0/shuffle",
            "Shuffle",
            "inter_comm",
            10.0,
            1,
        ));
        let s2 = g.push(StageNode::new(
            "chain0/reduce2",
            "SegmentReduce",
            "compute",
            10.0,
            1,
        ));
        g.dep(0, s1);
        g.dep(0, s2);
        g.fusions.push(StageFusion {
            label: "chain0/bad_fuse".into(),
            nodes: vec![s1, s2],
        });
        let diags = g.analyze();
        let fusion: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "stage.cross-class-fusion")
            .collect();
        assert_eq!(fusion.len(), 1);
        assert!(fusion[0].message.contains("compute, inter_comm"));
    }

    #[test]
    fn disconnected_stage_is_unreachable() {
        let mut g = clean_graph();
        g.push(StageNode::new("orphan", "Gather", "host_memory", 5.0, 1));
        let diags = g.analyze();
        let unreachable: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "stage.unreachable")
            .collect();
        assert_eq!(unreachable.len(), 1);
        assert_eq!(unreachable[0].severity, Severity::Warn);
        assert_eq!(unreachable[0].span, crate::Span::Stage("orphan".into()));
    }

    #[test]
    fn reachability_is_vacuous_without_entries() {
        let mut g = StageGraph::default();
        g.push(StageNode::new("a", "Gather", "host_memory", 5.0, 1));
        assert!(g.analyze().iter().all(|d| d.rule != "stage.unreachable"));
    }

    #[test]
    fn negative_and_nan_costs_are_errors() {
        let mut g = clean_graph();
        let bad = g.push(StageNode::new("neg", "Gather", "host_memory", -1.0, 1));
        let nan = g.push(StageNode::new("nan", "Gather", "host_memory", f64::NAN, 1));
        g.dep(0, bad);
        g.dep(0, nan);
        let diags = g.analyze();
        let costs: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "stage.cost-sanity")
            .collect();
        assert_eq!(costs.len(), 2);
        assert!(costs.iter().all(|d| d.severity == Severity::Error));
    }

    #[test]
    fn analyze_runs_the_race_rules_over_declared_effects() {
        use crate::effects::{EffectSet, Resource, ResourceKind};
        let mut g = clean_graph();
        // Two unordered stages both writing chain 0's hot cache rows.
        let r = Resource::new(ResourceKind::CacheHot, "c0");
        let a = g.push(
            StageNode::new(
                "chain0/scatter",
                "EmbeddingScatter",
                "device_memory",
                4.0,
                1,
            )
            .with_effects(EffectSet::empty().write(r.clone())),
        );
        let b = g.push(
            StageNode::new("cache0/refresh", "CacheRefresh", "device_memory", 4.0, 1)
                .with_effects(EffectSet::empty().write(r)),
        );
        g.dep(0, a);
        g.dep(0, b);
        let diags = g.analyze();
        let races: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "race.write-write")
            .collect();
        assert_eq!(races.len(), 1, "{diags:?}");
        assert_eq!(races[0].severity, Severity::Error);
        // Ordering the pair silences the finding.
        g.dep(a, b);
        assert!(g.analyze().iter().all(|d| d.rule != "race.write-write"));
    }

    #[test]
    fn zero_cost_zero_launch_stage_warns_but_launches_excuse_zero_work() {
        let mut g = clean_graph();
        let free = g.push(StageNode::new("free", "Shuffle", "inter_comm", 0.0, 0));
        let overhead_only = g.push(StageNode::new("dispatch", "Shuffle", "inter_comm", 0.0, 2));
        g.dep(0, free);
        g.dep(0, overhead_only);
        let diags = g.analyze();
        let zero: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "stage.zero-cost")
            .collect();
        assert_eq!(zero.len(), 1);
        assert_eq!(zero[0].span, crate::Span::Stage("free".into()));
    }
}
