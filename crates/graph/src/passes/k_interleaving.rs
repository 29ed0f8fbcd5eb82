//! K-Interleaving (§III-C): partition packed embedding operations into
//! groups that execute in a staggered pipeline.
//!
//! Chains are ordered by *downstream affinity* — the first interaction
//! module that consumes their output — and split into groups whose processed
//! parameter volume respects the Eq. 3 capacity. The execution engine then
//! chains control dependencies between consecutive groups so that group
//! `g+1`'s communication overlaps group `g`'s downstream compute, diffusing
//! the pulse-like resource usage of the unoptimized graph.
//!
//! The affinity ordering is computed from a field→module inverted index
//! built in one pass over the modules, and group assignment mutates the
//! spec in place: `Pipeline::run` ([`crate::passes::pipeline`]) computes
//! the ordering once while planning and hands it to the rewrite, so the
//! pass costs one linear scan plus one sort instead of the historical
//! quadratic module-position scan over a cloned spec.

use crate::spec::WdlSpec;

/// Eq. 3: `Capacity_g = min_op (RBound_op / RParam_op)` — the parameter
/// volume one interleaving group may process without being bounded by any
/// single resource. Each entry is `(RBound, RParam)` for one operator class:
/// the bound value of its dominant resource and the per-parameter cost on
/// that resource.
pub fn eq3_capacity(ops: &[(f64, f64)]) -> f64 {
    ops.iter()
        .filter(|&&(_, r_param)| r_param > 0.0)
        .map(|&(r_bound, r_param)| r_bound / r_param)
        .fold(f64::INFINITY, f64::min)
}

/// Per-chain exclusion flags for `spec` as [`mark_excluded_in_place`] would
/// set them: a chain is excluded if it already carries the flag or touches
/// one of `tables`. Lets planners reason about the post-exclusion graph
/// without cloning it.
pub fn exclusion_flags(spec: &WdlSpec, tables: &[usize]) -> Vec<bool> {
    spec.chains
        .iter()
        .map(|c| {
            c.interleave_excluded
                || (!tables.is_empty() && c.tables.iter().any(|t| tables.contains(t)))
        })
        .collect()
}

/// Affinity-sorted chain ordering: the non-excluded chains (per `excluded`,
/// one flag per chain) sorted by the smallest module index consuming any of
/// their fields, ties broken by chain index.
///
/// The smallest consuming module per field is an inverted index built in
/// one pass over the modules; a chain's affinity is the minimum over its
/// fields, which equals the first `modules.iter().position(..)` hit of the
/// historical per-chain scan.
pub fn order_by_affinity(spec: &WdlSpec, excluded: &[bool]) -> Vec<usize> {
    let max_field = spec
        .modules
        .iter()
        .flat_map(|m| m.input_fields.iter())
        .copied()
        .max()
        .map(|f| f as usize + 1)
        .unwrap_or(0);
    // first_module[f] = smallest module index consuming field f.
    let mut first_module = vec![usize::MAX; max_field];
    for (mi, m) in spec.modules.iter().enumerate() {
        for &f in &m.input_fields {
            let slot = &mut first_module[f as usize];
            if *slot == usize::MAX {
                *slot = mi;
            }
        }
    }
    let affinity = |i: usize| -> usize {
        spec.chains[i]
            .fields
            .iter()
            .map(|&f| first_module.get(f as usize).copied().unwrap_or(usize::MAX))
            .min()
            .unwrap_or(usize::MAX)
    };
    let mut order: Vec<(usize, usize)> = (0..spec.chains.len())
        .filter(|&i| !excluded.get(i).copied().unwrap_or(false))
        .map(|i| (affinity(i), i))
        .collect();
    order.sort_unstable();
    order.into_iter().map(|(_, i)| i).collect()
}

/// Assigns the chains listed in `order` to `n_groups` contiguous groups
/// balanced by embedding byte volume, in place. Excluded chains are forced
/// into group 0. `order` must be the affinity ordering of the non-excluded
/// chains (see [`order_by_affinity`]).
pub fn assign_groups(spec: &mut WdlSpec, n_groups: usize, order: &[usize]) {
    assert!(n_groups >= 1, "need at least one group");
    let total_bytes: f64 = order
        .iter()
        .map(|&i| spec.chains[i].embedding_bytes_per_instance())
        .sum();
    let per_group = total_bytes / n_groups as f64;

    let mut group = 0u32;
    let mut acc = 0.0;
    for &i in order {
        spec.chains[i].group = group;
        acc += spec.chains[i].embedding_bytes_per_instance();
        if acc >= per_group * (group + 1) as f64 && (group as usize) < n_groups - 1 {
            group += 1;
        }
    }
    for c in spec.chains.iter_mut().filter(|c| c.interleave_excluded) {
        c.group = 0;
    }
}

/// Assigns `spec`'s chains to `n_groups` interleaving groups, in place,
/// deriving the affinity ordering from the spec itself.
pub fn apply_in_place(spec: &mut WdlSpec, n_groups: usize) {
    let excluded: Vec<bool> = spec.chains.iter().map(|c| c.interleave_excluded).collect();
    let order = order_by_affinity(spec, &excluded);
    assign_groups(spec, n_groups, &order);
}

/// Returns `spec` with its chains assigned to `n_groups` interleaving
/// groups.
///
/// Chains are sorted by the smallest module index consuming any of their
/// fields (so a group's outputs feed a compact set of modules and its
/// downstream compute can start as soon as the group lands), then split into
/// contiguous groups balanced by embedding byte volume. Excluded chains
/// (`interleave_excluded`) stay in group 0 with no ordering constraint.
pub fn apply(spec: &WdlSpec, n_groups: usize) -> WdlSpec {
    let mut out = spec.clone();
    apply_in_place(&mut out, n_groups);
    out
}

/// Marks every chain touching one of `tables` as `interleave_excluded`, in
/// place (the paper's *preset excluded embedding*, §III-C: outputs that feed
/// no concatenation can advance their downstream freely).
pub fn mark_excluded_in_place(spec: &mut WdlSpec, tables: &[usize]) {
    if tables.is_empty() {
        return;
    }
    for chain in &mut spec.chains {
        if chain.tables.iter().any(|t| tables.contains(t)) {
            chain.interleave_excluded = true;
        }
    }
}

/// Chooses a group count from the Eq. 3 capacity: enough groups that no
/// group processes more than `capacity` parameters per instance, bounded by
/// the number of chains. `excluded` overrides the chains' own flags (one
/// per chain), so planners can evaluate a prospective exclusion without
/// materializing it.
pub fn auto_group_count_filtered(spec: &WdlSpec, capacity: f64, excluded: &[bool]) -> usize {
    if capacity <= 0.0 || !capacity.is_finite() {
        return 1;
    }
    let total_params_per_instance: f64 = spec
        .chains
        .iter()
        .enumerate()
        .filter(|&(i, _)| !excluded.get(i).copied().unwrap_or(false))
        .map(|(_, c)| c.ids_per_instance * c.dim as f64)
        .sum();
    let wanted = (total_params_per_instance / capacity).ceil() as usize;
    wanted.clamp(1, spec.chains.len().max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EmbeddingChain, InteractionModule, MlpSpec, ModuleKind};

    fn spec(n_chains: usize) -> WdlSpec {
        let chains: Vec<EmbeddingChain> = (0..n_chains)
            .map(|t| EmbeddingChain::for_table(t, 8, vec![t as u32], 1.0))
            .collect();
        // Two modules, each consuming half the fields.
        let half = n_chains / 2;
        let modules = vec![
            InteractionModule {
                kind: ModuleKind::Attention,
                input_fields: (0..half as u32).collect(),
                flops_per_instance: 10.0,
                bytes_per_instance: 8.0,
                params: 4.0,
                output_width: 8,
                micro_ops_forward: 10,
            },
            InteractionModule {
                kind: ModuleKind::Gru,
                input_fields: (half as u32..n_chains as u32).collect(),
                flops_per_instance: 10.0,
                bytes_per_instance: 8.0,
                params: 4.0,
                output_width: 8,
                micro_ops_forward: 10,
            },
        ];
        WdlSpec {
            name: "t".into(),
            io_bytes_per_instance: 1.0,
            chains,
            modules,
            mlp: MlpSpec::new(16, vec![1]),
            micro_batches: 1,
            group_deps: Vec::new(),
        }
    }

    #[test]
    fn eq3_takes_the_tightest_bound() {
        // PCIe: 16e9 B/s bound, 4 bytes/param => 4e9 params.
        // Network: 4e9 B/s bound, 8 bytes/param => 5e8 params.
        let cap = eq3_capacity(&[(16e9, 4.0), (4e9, 8.0)]);
        assert_eq!(cap, 5e8);
        assert_eq!(eq3_capacity(&[(1.0, 0.0)]), f64::INFINITY);
    }

    #[test]
    fn groups_are_contiguous_over_module_affinity() {
        let s = apply(&spec(8), 2);
        assert_eq!(s.group_count(), 2);
        // Chains feeding module 0 (fields 0..4) land in group 0; module 1's
        // in group 1 — downstream compute of group 0 can start early.
        for c in &s.chains {
            let g_expected = if c.fields[0] < 4 { 0 } else { 1 };
            assert_eq!(c.group, g_expected, "chain fields {:?}", c.fields);
        }
    }

    #[test]
    fn inverted_index_ordering_matches_the_module_position_scan() {
        // The reference affinity: the first module whose inputs intersect
        // the chain's fields, found by a linear scan over the modules —
        // the pre-refactor definition, kept here as the oracle.
        for n in [2usize, 5, 8, 13] {
            let s = spec(n);
            let reference = |chain_fields: &[u32]| -> usize {
                s.modules
                    .iter()
                    .position(|m| m.input_fields.iter().any(|f| chain_fields.contains(f)))
                    .unwrap_or(usize::MAX)
            };
            let mut expected: Vec<usize> = (0..s.chains.len()).collect();
            expected.sort_by_key(|&i| (reference(&s.chains[i].fields), i));
            let excluded = vec![false; s.chains.len()];
            assert_eq!(order_by_affinity(&s, &excluded), expected, "n={n}");
        }
    }

    #[test]
    fn unconsumed_fields_sort_last() {
        let mut s = spec(6);
        // Chain 0 now produces a field no module consumes.
        s.chains[0].fields = vec![99];
        let excluded = vec![false; s.chains.len()];
        let order = order_by_affinity(&s, &excluded);
        assert_eq!(*order.last().unwrap(), 0, "unconsumed chain sorts last");
    }

    #[test]
    fn group_volumes_are_balanced() {
        let s = apply(&spec(12), 3);
        let mut vol = [0.0f64; 3];
        for c in &s.chains {
            vol[c.group as usize] += c.embedding_bytes_per_instance();
        }
        let total: f64 = vol.iter().sum();
        for v in vol {
            assert!(v > total / 6.0, "unbalanced groups: {vol:?}");
        }
    }

    #[test]
    fn one_group_means_no_interleaving() {
        let s = apply(&spec(6), 1);
        assert!(s.chains.iter().all(|c| c.group == 0));
        assert_eq!(s.group_count(), 1);
    }

    #[test]
    fn excluded_chains_stay_in_group_zero() {
        let mut s = spec(8);
        s.chains[7].interleave_excluded = true;
        let s = apply(&s, 4);
        assert_eq!(s.chains[7].group, 0);
    }

    /// `spec` with every chain touching one of `tables` marked excluded.
    fn marked(spec: &WdlSpec, tables: &[usize]) -> WdlSpec {
        let mut out = spec.clone();
        mark_excluded_in_place(&mut out, tables);
        out
    }

    #[test]
    fn mark_excluded_flags_matching_chains_only() {
        let s = marked(&spec(8), &[2, 5]);
        for c in &s.chains {
            assert_eq!(c.interleave_excluded, c.tables == [2] || c.tables == [5]);
        }
        // Empty exclusion list marks nothing.
        let base = marked(&spec(4), &[]);
        assert!(base.chains.iter().all(|c| !c.interleave_excluded));
    }

    #[test]
    fn exclusion_flags_match_mark_excluded() {
        let s = spec(8);
        let flags = exclusion_flags(&s, &[2, 5]);
        let from_spec: Vec<bool> = marked(&s, &[2, 5])
            .chains
            .iter()
            .map(|c| c.interleave_excluded)
            .collect();
        assert_eq!(flags, from_spec);
        assert_eq!(exclusion_flags(&s, &[]), vec![false; 8]);
    }

    #[test]
    fn auto_group_count_scales_with_volume() {
        let s = spec(10); // 10 chains x 1 id x dim 8 = 80 params/instance
        assert_eq!(auto_group_count_filtered(&s, 40.0, &[]), 2);
        assert_eq!(auto_group_count_filtered(&s, 8.0, &[]), 10);
        assert_eq!(
            auto_group_count_filtered(&s, 1.0, &[]),
            10,
            "clamped to chain count"
        );
        assert_eq!(auto_group_count_filtered(&s, f64::INFINITY, &[]), 1);
        assert_eq!(auto_group_count_filtered(&s, 0.0, &[]), 1);
        // Excluded chains don't count toward the volume.
        let mut half = vec![false; 10];
        half[..5].fill(true);
        assert_eq!(auto_group_count_filtered(&s, 8.0, &half), 5);
    }

    #[test]
    fn more_groups_than_chains_is_clamped_by_assignment() {
        let s = apply(&spec(2), 8);
        // Only 2 chains exist; group ids stay dense and small.
        assert!(s.group_count() <= 2);
    }
}
