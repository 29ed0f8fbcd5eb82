//! Property-based tests of the may-happen-in-parallel relation.
//!
//! The race rules are only as trustworthy as the relation under them, so
//! the algebra is pinned on random stage graphs (cyclic edges allowed —
//! the relation must degrade gracefully, the cycle rule owns the error):
//!
//! - **irreflexive**: no node is MHP with itself;
//! - **symmetric**: `mhp(a, b) == mhp(b, a)`;
//! - **anti-monotone under edge addition**: adding an ordering edge
//!   never creates a new MHP pair (it can only order formerly-free
//!   pairs), so tightening a schedule can never *introduce* a race;
//! - **closure matches a per-node DFS**: `reaches` agrees with a plain
//!   DFS from every node on cyclic and acyclic graphs of up to 200 nodes,
//!   so reach rows spanning several 64-bit words are covered;
//! - **the bucketed race scan matches an all-pairs scan**: `static_races`
//!   equals, element for element, a reference that checks every pair of
//!   effectful nodes, on random graphs whose effects draw from a small
//!   shared pool covering every resource kind and access mode.

use picasso_lint::effects::{conflicts, RaceSig};
use picasso_lint::mhp::static_races;
use picasso_lint::{
    EffectSet, MhpRelation, RaceAllowlist, Resource, ResourceKind, StageGraph, StageNode,
    StaticRace,
};
use proptest::prelude::*;

/// A random directed graph: `n` nodes and arbitrary (possibly cyclic,
/// possibly self-looping) edges.
fn graph_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (1usize..16).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..32);
        edges.prop_map(move |e| (n, e))
    })
}

/// A random graph of 1–200 nodes: either arbitrary edges (cycles and
/// self-loops allowed) or the same edges oriented low-to-high, which makes
/// it acyclic.
fn wide_graph_strategy() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (1usize..201, proptest::bool::ANY).prop_flat_map(|(n, acyclic)| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..2 * n);
        edges.prop_map(move |e| {
            let e = if acyclic {
                e.into_iter()
                    .filter(|&(a, b)| a != b)
                    .map(|(a, b)| (a.min(b), a.max(b)))
                    .collect()
            } else {
                e
            };
            (n, e)
        })
    })
}

/// Reference closure: a DFS over successor lists from every node, the
/// textbook `O(n·(n+e))` algorithm.
fn reference_reach(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<bool>> {
    let mut succ = vec![Vec::new(); n];
    for &(a, b) in edges {
        succ[a].push(b);
    }
    let mut reach = vec![vec![false; n]; n];
    for (i, row) in reach.iter_mut().enumerate() {
        let mut stack = succ[i].clone();
        while let Some(j) = stack.pop() {
            if !row[j] {
                row[j] = true;
                stack.extend(&succ[j]);
            }
        }
    }
    reach
}

fn assert_matches_reference(n: usize, edges: &[(usize, usize)]) {
    let rel = MhpRelation::new(n, edges);
    for (i, row) in reference_reach(n, edges).iter().enumerate() {
        for (j, &expected) in row.iter().enumerate() {
            assert_eq!(rel.reaches(i, j), expected, "reach({i}, {j}) on {edges:?}");
        }
    }
}

/// The shared resource pool effects draw from: every kind, with two keys
/// for the per-chain kinds so a key collides across kinds.
const POOL: [(ResourceKind, &str); 10] = [
    (ResourceKind::EmbeddingShard, "c0"),
    (ResourceKind::EmbeddingShard, "c1"),
    (ResourceKind::CacheHot, "c0"),
    (ResourceKind::CacheHot, "c1"),
    (ResourceKind::DenseParams, "dense"),
    (ResourceKind::OptimizerState, "dense"),
    (ResourceKind::CkptDirty, "c0"),
    (ResourceKind::CkptDirty, "c1"),
    (ResourceKind::CollectiveBuffer, "c0"),
    (ResourceKind::InputStream, "train"),
];

/// Builds a stage graph from per-node `(pool index, mode)` effect draws
/// (mode 0 = read, 1 = reduce-add, 2 = write) and arbitrary edges.
fn effect_graph(effects: &[Vec<(usize, usize)>], edges: &[(usize, usize)]) -> StageGraph {
    let mut g = StageGraph::default();
    for (i, draws) in effects.iter().enumerate() {
        let mut set = EffectSet::empty();
        for &(r, mode) in draws {
            let (kind, key) = POOL[r];
            let resource = Resource::new(kind, key);
            set = match mode {
                0 => set.read(resource),
                1 => set.reduce(resource),
                _ => set.write(resource),
            };
        }
        let kind = ["Gather", "EmbeddingScatter", "MlpCompute"][i % 3];
        g.push(StageNode::new(format!("s{i}"), kind, "compute", 1.0, 1).with_effects(set));
    }
    for &(from, to) in edges {
        g.dep(from, to);
    }
    g
}

/// A random effect graph: 1–40 nodes with up to four effects each and
/// arbitrary (possibly cyclic, possibly self-looping) edges, under either
/// the default or an empty commutative allowlist.
fn effect_graph_strategy() -> impl Strategy<Value = (StageGraph, bool)> {
    (1usize..41, proptest::bool::ANY).prop_flat_map(|(n, strict)| {
        let effects = proptest::collection::vec(
            proptest::collection::vec((0..POOL.len(), 0usize..3), 0..5),
            n..n + 1,
        );
        let edges = proptest::collection::vec((0..n, 0..n), 0..n + 1);
        (effects, edges).prop_map(move |(effects, edges)| (effect_graph(&effects, &edges), strict))
    })
}

/// Reference race scan: every pair of effectful nodes in index order,
/// skipping ordered pairs, one `StaticRace` per conflict.
fn reference_races(g: &StageGraph, allow: &RaceAllowlist) -> Vec<StaticRace> {
    let rel = MhpRelation::of_graph(g);
    let effectful: Vec<usize> = (0..g.nodes.len())
        .filter(|&i| !g.nodes[i].effects.is_empty())
        .collect();
    let mut out = Vec::new();
    for (ai, &a) in effectful.iter().enumerate() {
        for &b in &effectful[ai + 1..] {
            if rel.ordered(a, b) {
                continue;
            }
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
    }
    out
}

fn allowlist(strict: bool) -> RaceAllowlist {
    if strict {
        RaceAllowlist {
            commutative: vec![],
        }
    } else {
        RaceAllowlist::default()
    }
}

proptest! {
    #[test]
    fn race_scan_matches_an_all_pairs_reference(g in effect_graph_strategy()) {
        let (g, strict) = g;
        let allow = allowlist(strict);
        prop_assert_eq!(static_races(&g, &allow), reference_races(&g, &allow));
    }

    #[test]
    fn closure_matches_a_per_node_dfs(g in wide_graph_strategy()) {
        let (n, edges) = g;
        assert_matches_reference(n, &edges);
    }

    #[test]
    fn mhp_is_irreflexive(g in graph_strategy()) {
        let (n, edges) = g;
        let rel = MhpRelation::new(n, &edges);
        for i in 0..n {
            prop_assert!(!rel.mhp(i, i), "node {i} MHP with itself");
        }
    }

    #[test]
    fn mhp_is_symmetric(g in graph_strategy()) {
        let (n, edges) = g;
        let rel = MhpRelation::new(n, &edges);
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(rel.mhp(a, b), rel.mhp(b, a));
            }
        }
    }

    #[test]
    fn mhp_is_anti_monotone_under_edge_addition(
        g in graph_strategy(),
        extra in (0usize..16, 0usize..16),
    ) {
        let (n, edges) = g;
        let before = MhpRelation::new(n, &edges);
        let mut more = edges.clone();
        more.push((extra.0 % n, extra.1 % n));
        let after = MhpRelation::new(n, &more);
        // Every pair MHP after the extra edge was already MHP before:
        // adding an ordering edge can only shrink the relation.
        for (a, b) in after.pairs() {
            prop_assert!(
                before.mhp(a, b),
                "edge addition created MHP pair ({a}, {b})"
            );
        }
    }

    #[test]
    fn ordered_and_mhp_partition_distinct_pairs(g in graph_strategy()) {
        let (n, edges) = g;
        let rel = MhpRelation::new(n, &edges);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    prop_assert!(rel.ordered(a, b) != rel.mhp(a, b));
                }
            }
        }
    }
}

#[test]
fn transitive_closure_matches_a_reference_floyd_warshall() {
    // A fixed adversarial graph: two diamonds sharing a spine plus a
    // 3-cycle, checked against an O(n^3) reference closure.
    let n = 8;
    let edges = [
        (0, 1),
        (0, 2),
        (1, 3),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        (6, 4), // cycle 4 -> 5 -> 6 -> 4
        (0, 7),
    ];
    let mut reach = vec![vec![false; n]; n];
    for &(a, b) in &edges {
        reach[a][b] = true;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if reach[i][k] && reach[k][j] {
                    reach[i][j] = true;
                }
            }
        }
    }
    let rel = MhpRelation::new(n, &edges);
    for (i, row) in reach.iter().enumerate() {
        for (j, &expected) in row.iter().enumerate() {
            assert_eq!(rel.reaches(i, j), expected, "reach({i}, {j})");
        }
    }
}

#[test]
fn node_upstream_of_a_cycle_reaches_through_it() {
    // 0 feeds the cycle 1 <-> 2, which feeds 3: Kahn closes only 3, so
    // 0, 1 and 2 take the DFS path.
    let edges = [(0, 1), (1, 2), (2, 1), (2, 3)];
    let rel = MhpRelation::new(4, &edges);
    let row = |i: usize| (0..4).filter(|&j| rel.reaches(i, j)).collect::<Vec<_>>();
    assert_eq!(row(0), [1, 2, 3]);
    assert_eq!(row(1), [1, 2, 3]);
    assert_eq!(row(2), [1, 2, 3]);
    assert!(row(3).is_empty());
}

#[test]
fn pair_sharing_two_resources_and_a_repeated_effect_matches_the_reference() {
    // Node 0 reads and writes pool resource 0 (a repeated resource) and
    // writes resource 6; node 1 reduces into both, node 2 only into 6.
    // Nodes 3 and 4 touch resource 4 but are ordered by an edge.
    let g = effect_graph(
        &[
            vec![(0, 0), (0, 2), (6, 2)],
            vec![(6, 1), (0, 1)],
            vec![(6, 1)],
            vec![(4, 2)],
            vec![(4, 0)],
        ],
        &[(3, 4)],
    );
    for strict in [false, true] {
        let allow = allowlist(strict);
        let races = static_races(&g, &allow);
        assert_eq!(races, reference_races(&g, &allow));
        let pairs: Vec<(usize, usize)> = races.iter().map(|r| (r.a, r.b)).collect();
        assert_eq!(pairs, [(0, 1), (0, 1), (0, 2), (1, 2)]);
    }
}
