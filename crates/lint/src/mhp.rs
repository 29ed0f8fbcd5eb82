//! May-happen-in-parallel analysis over the lowered stage graph.
//!
//! Two stages *may happen in parallel* (MHP) when neither reaches the
//! other through the transitive closure of the control-dependency edges.
//! The scheduler is free to overlap exactly those pairs — that freedom is
//! the point of D/K-interleaving — so every MHP pair whose declared
//! effect sets conflict ([`crate::effects::conflicts`]) is a potential
//! race and is reported under the `race.*` rules.
//!
//! The closure is built in one pass in reverse topological order (Kahn's
//! algorithm over out-degrees): each node's reach row is the OR of every
//! successor's bit and row, `O(e·n/64)` word operations, with all rows in
//! one allocation and the successor and predecessor lists read from the
//! graph's CSR adjacency table. Nodes Kahn cannot close — on a cycle or
//! upstream of one — fall back to a DFS that stops at closed nodes and
//! ORs in their rows. Cyclic inputs are handled gracefully: a cycle is
//! already an error under `stage.dependency-cycle`, and nodes on it are
//! mutually reachable, hence ordered, hence never MHP — the race pass
//! stays quiet instead of double-reporting a broken graph.

use std::collections::HashMap;

use crate::effects::{
    conflicts, AccessMode, Conflict, ConflictKind, RaceAllowlist, RaceSig, Resource,
};
use crate::stage_graph::Adjacency;
use crate::{Diagnostic, Severity, Span, StageGraph};

/// The transitive ordering relation of a stage graph.
#[derive(Debug, Clone)]
pub struct MhpRelation {
    n: usize,
    /// `u64` words per row.
    words: usize,
    /// Row `i` (words `i * words..`) holds bit `j` when an ordering path
    /// `i -> ... -> j` exists (irreflexive unless `i` sits on a cycle
    /// through itself).
    reach: Vec<u64>,
}

impl MhpRelation {
    /// Computes the relation for `n` nodes and the given ordering edges.
    /// Out-of-range endpoints are ignored (`stage.dangling-edge` reports
    /// them).
    pub fn new(n: usize, edges: &[(usize, usize)]) -> MhpRelation {
        MhpRelation::of_adjacency(&Adjacency::new(n, edges.iter().copied()))
    }

    /// Builds the relation from a [`StageGraph`]'s edges.
    pub fn of_graph(g: &StageGraph) -> MhpRelation {
        MhpRelation::of_adjacency(&Adjacency::of_graph(g))
    }

    /// Computes the relation over an already-built adjacency table.
    pub(crate) fn of_adjacency(adj: &Adjacency) -> MhpRelation {
        let n = adj.len();
        let words = n.div_ceil(64);
        let mut reach = vec![0u64; n * words];
        let mut row = vec![0u64; words];
        // Kahn's algorithm over out-degrees closes nodes in reverse
        // topological order: a node's row is final once every successor's
        // is, and is the OR of each successor's bit and row.
        let mut open: Vec<usize> = (0..n).map(|i| adj.succ(i).len()).collect();
        let mut closed = vec![false; n];
        let mut ready: Vec<usize> = (0..n).filter(|&i| open[i] == 0).collect();
        while let Some(i) = ready.pop() {
            closed[i] = true;
            row.fill(0);
            for &j in adj.succ(i) {
                row[j / 64] |= 1u64 << (j % 64);
                or_into(&mut row, &reach[j * words..(j + 1) * words]);
            }
            reach[i * words..(i + 1) * words].copy_from_slice(&row);
            for &p in adj.pred(i) {
                open[p] -= 1;
                if open[p] == 0 {
                    ready.push(p);
                }
            }
        }
        // What Kahn leaves open sits on a cycle or upstream of one. Walk
        // those by DFS, stopping at closed nodes and taking their rows.
        let mut stack: Vec<usize> = Vec::new();
        for i in (0..n).filter(|&i| !closed[i]) {
            row.fill(0);
            stack.extend(adj.succ(i));
            while let Some(j) = stack.pop() {
                let (word, bit) = (j / 64, 1u64 << (j % 64));
                if row[word] & bit == 0 {
                    row[word] |= bit;
                    if closed[j] {
                        or_into(&mut row, &reach[j * words..(j + 1) * words]);
                    } else {
                        stack.extend(adj.succ(j));
                    }
                }
            }
            reach[i * words..(i + 1) * words].copy_from_slice(&row);
        }
        MhpRelation { n, words, reach }
    }

    /// True when an ordering path `from -> ... -> to` exists.
    pub fn reaches(&self, from: usize, to: usize) -> bool {
        from < self.n
            && to < self.n
            && self.reach[from * self.words + to / 64] & (1u64 << (to % 64)) != 0
    }

    /// True when the pair is ordered in either direction (or identical).
    pub fn ordered(&self, a: usize, b: usize) -> bool {
        a == b || self.reaches(a, b) || self.reaches(b, a)
    }

    /// True when `a` and `b` may happen in parallel: distinct, in range,
    /// and ordered in neither direction.
    pub fn mhp(&self, a: usize, b: usize) -> bool {
        a < self.n && b < self.n && !self.ordered(a, b)
    }

    /// Every MHP pair as `(a, b)` with `a < b`, in index order.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for a in 0..self.n {
            for b in (a + 1)..self.n {
                if self.mhp(a, b) {
                    out.push((a, b));
                }
            }
        }
        out
    }
}

/// ORs `src` into `dst` word by word.
fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// One statically-detected race: an MHP stage pair with conflicting
/// declared effects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticRace {
    /// Node indices of the unordered pair (`a < b`).
    pub a: usize,
    /// See `a`.
    pub b: usize,
    /// Labels of the two stages.
    pub labels: (String, String),
    /// The conflict that makes the pair a race.
    pub conflict: Conflict,
    /// The order-independent signature used by the trace cross-check.
    pub sig: RaceSig,
}

/// Finds every MHP pair of `g` whose declared effects conflict. Pairs
/// come out in `(a, b)` index order; multiple contended resources on the
/// same pair produce one `StaticRace` each.
///
/// Effects on distinct resources never conflict, and neither do two reads,
/// so only nodes that share a resource one of them mutates are paired:
/// each resource's bucket (hashed, so in no particular order) pairs its
/// mutators with each other and with its readers, and the unordered pairs
/// are sorted and de-duplicated (a pair may share several resources)
/// before [`conflicts`] classifies them.
pub fn static_races(g: &StageGraph, allow: &RaceAllowlist) -> Vec<StaticRace> {
    races_under(g, &MhpRelation::of_graph(g), allow)
}

/// The nodes that access one resource, in index order: `mutators` write
/// or reduce into it, `readers` read it. A node that does both sits in
/// both lists; pairing it with itself is ordered, so it adds no pair.
#[derive(Default)]
struct Bucket {
    readers: Vec<usize>,
    mutators: Vec<usize>,
}

/// [`static_races`] under `rel`, the already-built relation of `g`.
pub(crate) fn races_under(
    g: &StageGraph,
    rel: &MhpRelation,
    allow: &RaceAllowlist,
) -> Vec<StaticRace> {
    let mut buckets: HashMap<&Resource, Bucket> = HashMap::new();
    for (i, node) in g.nodes.iter().enumerate() {
        for e in &node.effects.effects {
            let bucket = buckets.entry(&e.resource).or_default();
            let nodes = match e.mode {
                AccessMode::Read => &mut bucket.readers,
                _ => &mut bucket.mutators,
            };
            if nodes.last() != Some(&i) {
                nodes.push(i);
            }
        }
    }
    // Two reads of a resource never conflict, so a pair is a candidate
    // only through a resource at least one of them mutates.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for bucket in buckets.values() {
        for (k, &a) in bucket.mutators.iter().enumerate() {
            pairs.extend(
                bucket.mutators[k + 1..]
                    .iter()
                    .chain(&bucket.readers)
                    .filter(|&&b| !rel.ordered(a, b))
                    .map(|&b| (a.min(b), a.max(b))),
            );
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    let mut out = Vec::new();
    for (a, b) in pairs {
        for conflict in conflicts(&g.nodes[a].effects, &g.nodes[b].effects, allow) {
            let sig = RaceSig::new(
                conflict.kind.rule_id(),
                &conflict.resource,
                g.nodes[a].kind,
                g.nodes[b].kind,
            );
            out.push(StaticRace {
                a,
                b,
                labels: (g.nodes[a].label.clone(), g.nodes[b].label.clone()),
                conflict,
                sig,
            });
        }
    }
    out
}

/// Renders static races as `race.*` diagnostics: hard conflicts are
/// errors, the commutative downgrade is informational.
pub fn race_diagnostics(races: &[StaticRace]) -> Vec<Diagnostic> {
    races
        .iter()
        .map(|race| {
            let severity = match race.conflict.kind {
                ConflictKind::BenignCommutative => Severity::Info,
                _ => Severity::Error,
            };
            let (ma, mb) = race.conflict.modes;
            let d = Diagnostic::new(
                race.conflict.kind.rule_id(),
                severity,
                Span::Stage(race.labels.0.clone()),
                format!(
                    "stages `{}` and `{}` may run in parallel (no ordering path) and both \
                     touch {}: {} vs {}",
                    race.labels.0,
                    race.labels.1,
                    race.conflict.resource,
                    ma.name(),
                    mb.name(),
                ),
            );
            match race.conflict.kind {
                ConflictKind::BenignCommutative => d.with_hint(
                    "commutative scatter-adds commute; allowlisted as benign — no edge needed",
                ),
                _ => d.with_hint(
                    "add a control-dependency edge ordering the pair, or declare the access \
                     commutative if a reduction",
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effects::{EffectSet, Resource, ResourceKind};
    use crate::StageNode;

    fn node(label: &str, effects: EffectSet) -> StageNode {
        StageNode::new(label, "Gather", "host_memory", 1.0, 1).with_effects(effects)
    }

    fn shard(key: &str) -> Resource {
        Resource::new(ResourceKind::EmbeddingShard, key)
    }

    #[test]
    fn chain_is_totally_ordered() {
        // 0 -> 1 -> 2: no MHP pairs.
        let rel = MhpRelation::new(3, &[(0, 1), (1, 2)]);
        assert!(rel.reaches(0, 2));
        assert!(rel.pairs().is_empty());
    }

    #[test]
    fn diamond_arms_are_mhp() {
        // 0 -> {1, 2} -> 3: only (1, 2) is unordered.
        let rel = MhpRelation::new(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(rel.pairs(), vec![(1, 2)]);
        assert!(rel.mhp(1, 2) && rel.mhp(2, 1));
        assert!(!rel.mhp(1, 1));
    }

    #[test]
    fn cycle_nodes_are_mutually_ordered_not_mhp() {
        let rel = MhpRelation::new(2, &[(0, 1), (1, 0)]);
        assert!(rel.pairs().is_empty());
    }

    #[test]
    fn disconnected_nodes_are_mhp() {
        let rel = MhpRelation::new(2, &[]);
        assert_eq!(rel.pairs(), vec![(0, 1)]);
    }

    #[test]
    fn out_of_range_edges_are_ignored() {
        let rel = MhpRelation::new(2, &[(0, 7), (9, 1)]);
        assert_eq!(rel.pairs(), vec![(0, 1)]);
        assert!(!rel.mhp(0, 7));
    }

    #[test]
    fn unordered_conflicting_pair_is_a_static_race() {
        let mut g = StageGraph::default();
        let a = g.push(node("a/scatter", EffectSet::empty().reduce(shard("c0"))));
        let b = g.push(
            StageNode::new("b/refresh", "CacheRefresh", "device_memory", 1.0, 1)
                .with_effects(EffectSet::empty().write(shard("c0"))),
        );
        let races = static_races(&g, &RaceAllowlist::default());
        assert_eq!(races.len(), 1);
        assert_eq!((races[0].a, races[0].b), (a, b));
        assert_eq!(races[0].conflict.kind, ConflictKind::WriteWrite);
        let diags = race_diagnostics(&races);
        assert_eq!(diags[0].rule, "race.write-write");
        assert_eq!(diags[0].severity, Severity::Error);
        assert!(diags[0].message.contains("shard:c0"));
    }

    #[test]
    fn ordering_edge_silences_the_race() {
        let mut g = StageGraph::default();
        let a = g.push(node("a/scatter", EffectSet::empty().reduce(shard("c0"))));
        let b = g.push(node("b/refresh", EffectSet::empty().write(shard("c0"))));
        g.dep(a, b);
        assert!(static_races(&g, &RaceAllowlist::default()).is_empty());
    }

    #[test]
    fn commutative_pair_downgrades_to_info() {
        let mut g = StageGraph::default();
        g.push(node("m0/scatter", EffectSet::empty().reduce(shard("c0"))));
        g.push(node("m1/scatter", EffectSet::empty().reduce(shard("c0"))));
        let races = static_races(&g, &RaceAllowlist::default());
        assert_eq!(races.len(), 1);
        let diags = race_diagnostics(&races);
        assert_eq!(diags[0].rule, "race.benign-commutative");
        assert_eq!(diags[0].severity, Severity::Info);
    }

    #[test]
    fn pure_stages_never_race() {
        let mut g = StageGraph::default();
        g.push(node("a", EffectSet::empty()));
        g.push(node("b", EffectSet::empty().write(shard("c0"))));
        assert!(static_races(&g, &RaceAllowlist::default()).is_empty());
    }
}
