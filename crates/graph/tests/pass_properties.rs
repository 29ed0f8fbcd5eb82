//! Property tests of the PICASSO graph passes.

use picasso_graph::{
    d_interleaving, d_packing, graph_stats, k_interleaving, k_packing, EmbeddingChain,
    InteractionModule, MlpSpec, ModuleKind, WdlSpec,
};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Random spec: `n_tables` tables with dims from a small set, fields 1:1
/// with tables, and a couple of modules over field ranges.
fn spec_strategy() -> impl Strategy<Value = WdlSpec> {
    (2usize..40, proptest::collection::vec(0usize..4, 2..40)).prop_map(|(n_modules_seed, dims)| {
        let dim_of = |i: usize| [4usize, 8, 16, 32][dims[i % dims.len()]];
        let n = dims.len();
        let chains: Vec<EmbeddingChain> = (0..n)
            .map(|t| {
                let mut c =
                    EmbeddingChain::for_table(t, dim_of(t), vec![t as u32], 1.0 + (t % 5) as f64);
                c.unique_ratio = 0.3 + 0.1 * (t % 7) as f64;
                c
            })
            .collect();
        // Cap the module count at the table count: a module whose field
        // filter comes up empty would violate `spec.no-input-module`.
        let n_modules = (1 + n_modules_seed % 5).min(n);
        let modules: Vec<InteractionModule> = (0..n_modules)
            .map(|m| {
                let fields: Vec<u32> = (0..n as u32)
                    .filter(|f| (*f as usize) % n_modules == m)
                    .collect();
                InteractionModule {
                    kind: ModuleKind::Attention,
                    input_fields: fields,
                    flops_per_instance: 100.0 * (m + 1) as f64,
                    bytes_per_instance: 16.0,
                    params: 8.0,
                    output_width: 8,
                    micro_ops_forward: 10 + m as u32,
                }
            })
            .collect();
        WdlSpec {
            name: "prop".into(),
            io_bytes_per_instance: 64.0,
            chains,
            modules,
            mlp: MlpSpec::new(64, vec![32, 1]),
            micro_batches: 1,
            group_deps: Vec::new(),
        }
    })
}

/// A pack assignment grouping tables by dim (what the planner guarantees).
fn assignment_for(spec: &WdlSpec, shards_per_dim: usize) -> BTreeMap<usize, usize> {
    let mut next_pack: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut out = BTreeMap::new();
    let mut counter = 0usize;
    for (i, c) in spec.chains.iter().enumerate() {
        let key = (c.dim, i % shards_per_dim);
        let pack = *next_pack.entry(key).or_insert_with(|| {
            let p = counter;
            counter += 1;
            p
        });
        out.insert(c.tables[0], pack);
    }
    out
}

/// The pre-refactor K-interleaving: a full clone of the spec, affinity via
/// a per-chain linear scan over the modules (quadratic overall), groups
/// split by accumulated volume. Kept verbatim as the oracle the in-place
/// inverted-index implementation must reproduce chain for chain.
fn k_interleaving_reference(spec: &WdlSpec, n_groups: usize) -> WdlSpec {
    assert!(n_groups >= 1);
    let mut out = spec.clone();
    let affinity = |c: &picasso_graph::EmbeddingChain| -> usize {
        spec.modules
            .iter()
            .position(|m| m.input_fields.iter().any(|f| c.fields.contains(f)))
            .unwrap_or(usize::MAX)
    };
    let mut order: Vec<usize> = (0..spec.chains.len())
        .filter(|&i| !spec.chains[i].interleave_excluded)
        .collect();
    order.sort_by_key(|&i| (affinity(&spec.chains[i]), i));
    let total_bytes: f64 = order
        .iter()
        .map(|&i| spec.chains[i].embedding_bytes_per_instance())
        .sum();
    let per_group = total_bytes / n_groups as f64;
    let mut group = 0u32;
    let mut acc = 0.0;
    for &i in &order {
        out.chains[i].group = group;
        acc += out.chains[i].embedding_bytes_per_instance();
        if acc >= per_group * (group + 1) as f64 && (group as usize) < n_groups - 1 {
            group += 1;
        }
    }
    for c in out.chains.iter_mut().filter(|c| c.interleave_excluded) {
        c.group = 0;
    }
    out
}

/// The refactored pass reproduces the historical group assignment exactly
/// on every graph preset of the bench suite's model zoo.
#[test]
fn k_interleaving_matches_reference_on_model_presets() {
    use picasso_data::DatasetSpec;
    use picasso_models::ModelKind;
    let datasets = [DatasetSpec::criteo(), DatasetSpec::product2()];
    for data in &datasets {
        for kind in [ModelKind::WideDeep, ModelKind::Can, ModelKind::Dlrm] {
            let mut spec = kind.build(data);
            // Exclude a couple of chains so the group-0 forcing is covered.
            if spec.chains.len() > 3 {
                spec.chains[1].interleave_excluded = true;
                spec.chains[3].interleave_excluded = true;
            }
            for n_groups in 1..=6 {
                let got = k_interleaving::apply(&spec, n_groups);
                let want = k_interleaving_reference(&spec, n_groups);
                let groups = |s: &WdlSpec| s.chains.iter().map(|c| c.group).collect::<Vec<u32>>();
                assert_eq!(
                    groups(&got),
                    groups(&want),
                    "{kind:?}/{} with {n_groups} groups",
                    spec.name
                );
            }
        }
    }
}

proptest! {
    /// The in-place inverted-index K-interleaving assigns exactly the same
    /// group to every chain as the historical clone-and-scan pass, for any
    /// spec, group count, and exclusion pattern.
    #[test]
    fn k_interleaving_matches_reference(
        spec in spec_strategy(),
        n_groups in 1usize..8,
        excl_seed in 0u64..1024,
    ) {
        let mut spec = spec;
        for (i, c) in spec.chains.iter_mut().enumerate() {
            c.interleave_excluded = (excl_seed >> (i % 10)) & 1 == 1;
        }
        let got = k_interleaving::apply(&spec, n_groups);
        let want = k_interleaving_reference(&spec, n_groups);
        for (i, (a, b)) in got.chains.iter().zip(&want.chains).enumerate() {
            prop_assert_eq!(a.group, b.group, "chain {} diverged", i);
        }
    }

    /// D-packing preserves fields, ID volume, and embedding bytes exactly.
    #[test]
    fn d_packing_conserves_volume(spec in spec_strategy(), shards in 1usize..4) {
        let assign = assignment_for(&spec, shards);
        let packed = d_packing::apply(&spec, &assign);
        packed.validate().unwrap();
        let fields = |s: &WdlSpec| {
            let mut v: Vec<u32> = s.chains.iter().flat_map(|c| c.fields.clone()).collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(fields(&spec), fields(&packed));
        let vol = |s: &WdlSpec| s.embedding_bytes_per_instance();
        prop_assert!((vol(&spec) - vol(&packed)).abs() < 1e-9);
        let ids = |s: &WdlSpec| s.chains.iter().map(|c| c.ids_per_instance).sum::<f64>();
        prop_assert!((ids(&spec) - ids(&packed)).abs() < 1e-9);
        prop_assert!(packed.chains.len() <= spec.chains.len());
    }

    /// D-packing + K-packing never increase the operation count, and the
    /// reduction grows with consolidation.
    #[test]
    fn packing_monotonically_reduces_ops(spec in spec_strategy()) {
        let base_ops = graph_stats(&spec).total_ops;
        let coarse = k_packing::apply(&d_packing::apply(&spec, &assignment_for(&spec, 1)));
        let fine = k_packing::apply(&d_packing::apply(&spec, &assignment_for(&spec, 3)));
        let coarse_ops = graph_stats(&coarse).total_ops;
        let fine_ops = graph_stats(&fine).total_ops;
        prop_assert!(coarse_ops <= base_ops);
        prop_assert!(fine_ops <= base_ops);
        prop_assert!(coarse_ops <= fine_ops, "fewer packs => fewer ops");
    }

    /// K-interleaving assigns every chain a group < n_groups and leaves
    /// all volume fields untouched.
    #[test]
    fn k_interleaving_only_touches_groups(spec in spec_strategy(), n_groups in 1usize..8) {
        let out = k_interleaving::apply(&spec, n_groups);
        prop_assert!(out.group_count() <= n_groups);
        for (a, b) in spec.chains.iter().zip(&out.chains) {
            prop_assert_eq!(&a.fields, &b.fields);
            prop_assert_eq!(a.ids_per_instance, b.ids_per_instance);
            prop_assert_eq!(a.unique_ratio, b.unique_ratio);
            prop_assert!((b.group as usize) < n_groups);
        }
        out.validate().unwrap();
    }

    /// Group ids are dense: every group below group_count is nonempty.
    #[test]
    fn k_interleaving_groups_are_dense(spec in spec_strategy(), n_groups in 1usize..8) {
        let out = k_interleaving::apply(&spec, n_groups);
        let gc = out.group_count();
        for g in 0..gc {
            prop_assert!(
                out.chains.iter().any(|c| c.group as usize == g),
                "group {g} of {gc} is empty"
            );
        }
    }

    /// Eq. 2 and Eq. 3 are monotone in their bounds.
    #[test]
    fn capacity_formulas_are_monotone(bound in 1.0f64..1e12, cost in 1.0f64..1e6) {
        let base = d_interleaving::eq2_micro_batch(&[(bound, cost)]);
        let looser = d_interleaving::eq2_micro_batch(&[(bound * 2.0, cost)]);
        prop_assert!(looser >= base);
        let cap = k_interleaving::eq3_capacity(&[(bound, cost)]);
        let tighter = k_interleaving::eq3_capacity(&[(bound, cost * 2.0)]);
        prop_assert!(tighter <= cap);
    }
}
