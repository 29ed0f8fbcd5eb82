//! D-Packing (§III-B): merge embedding chains that share a feature
//! dimension into packed operations.
//!
//! The pack assignment itself (which tables go together, how over-heavy
//! packs are sharded by Eq. 1) is computed by the embedding planner from
//! warm-up statistics; this pass rewrites the logical graph accordingly: the
//! chains of all tables assigned to one pack collapse into a single chain
//! whose stages launch once for the combined ID tensor.

use crate::spec::{EmbeddingChain, WdlSpec};
use std::collections::BTreeMap;

/// Applies a pack assignment to `spec`, merging chains.
///
/// `table_to_pack` maps every embedding table in the spec to its pack index.
/// Chains whose tables map to the same pack are merged; the merged chain's
/// volume fields are sums, and `unique_ratio` / `cache_hit_ratio` are
/// ID-weighted averages. Panics if two tables in one pack have different
/// dimensions (the planner groups by dimension, so this indicates a bug).
pub fn apply(spec: &WdlSpec, table_to_pack: &BTreeMap<usize, usize>) -> WdlSpec {
    let mut packs: BTreeMap<usize, Vec<&EmbeddingChain>> = BTreeMap::new();
    for chain in &spec.chains {
        // A baseline chain covers exactly one table; already-packed chains
        // keep their first table as the routing key.
        let table = chain.tables[0];
        let pack = *table_to_pack
            .get(&table)
            .unwrap_or_else(|| panic!("table {table} has no pack assignment"));
        packs.entry(pack).or_default().push(chain);
    }

    let mut chains = Vec::with_capacity(packs.len());
    for (_, members) in packs {
        let dim = members[0].dim;
        let mut merged = EmbeddingChain {
            fields: Vec::new(),
            tables: Vec::new(),
            dim,
            ids_per_instance: 0.0,
            pooled_rows_per_instance: 0.0,
            unique_ratio: 0.0,
            fused_unique_partition: members.iter().all(|c| c.fused_unique_partition),
            fused_shuffle_stitch: members.iter().all(|c| c.fused_shuffle_stitch),
            group: members[0].group,
            cache_hit_ratio: 0.0,
            interleave_excluded: members.iter().all(|c| c.interleave_excluded),
        };
        for c in members {
            assert_eq!(c.dim, dim, "pack mixes dimensions {dim} and {}", c.dim);
            merged.fields.extend_from_slice(&c.fields);
            merged.tables.extend_from_slice(&c.tables);
            merged.ids_per_instance += c.ids_per_instance;
            merged.pooled_rows_per_instance += c.pooled_rows_per_instance;
            merged.unique_ratio += c.unique_ratio * c.ids_per_instance;
            merged.cache_hit_ratio += c.cache_hit_ratio * c.ids_per_instance;
        }
        merged.unique_ratio /= merged.ids_per_instance;
        merged.cache_hit_ratio /= merged.ids_per_instance;
        merged.fields.sort_unstable();
        merged.tables.sort_unstable();
        chains.push(merged);
    }

    WdlSpec {
        chains,
        ..spec.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MlpSpec;

    fn spec_with_tables(dims: &[usize]) -> WdlSpec {
        let chains = dims
            .iter()
            .enumerate()
            .map(|(t, &dim)| EmbeddingChain::for_table(t, dim, vec![t as u32], 2.0))
            .collect();
        WdlSpec {
            name: "t".into(),
            io_bytes_per_instance: 10.0,
            chains,
            modules: vec![],
            mlp: MlpSpec::new(8, vec![1]),
            micro_batches: 1,
            group_deps: Vec::new(),
        }
    }

    fn assign(pairs: &[(usize, usize)]) -> BTreeMap<usize, usize> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn merges_same_pack_chains() {
        let spec = spec_with_tables(&[8, 8, 8, 16]);
        let packed = apply(&spec, &assign(&[(0, 0), (1, 0), (2, 0), (3, 1)]));
        assert_eq!(packed.chains.len(), 2);
        let p0 = &packed.chains[0];
        assert_eq!(p0.tables, vec![0, 1, 2]);
        assert_eq!(p0.ids_per_instance, 6.0);
        assert_eq!(p0.pooled_rows_per_instance, 3.0);
        assert_eq!(p0.dim, 8);
        packed.validate().unwrap();
    }

    #[test]
    fn preserves_total_volume() {
        let spec = spec_with_tables(&[8, 8, 16, 16, 16]);
        let packed = apply(&spec, &assign(&[(0, 0), (1, 0), (2, 1), (3, 1), (4, 1)]));
        let before: f64 = spec
            .chains
            .iter()
            .map(|c| c.embedding_bytes_per_instance())
            .sum();
        let after: f64 = packed
            .chains
            .iter()
            .map(|c| c.embedding_bytes_per_instance())
            .sum();
        assert!((before - after).abs() < 1e-9);
    }

    #[test]
    fn averages_ratios_by_id_weight() {
        let mut spec = spec_with_tables(&[8, 8]);
        spec.chains[0].unique_ratio = 0.2;
        spec.chains[0].ids_per_instance = 3.0;
        spec.chains[1].unique_ratio = 0.8;
        spec.chains[1].ids_per_instance = 1.0;
        let packed = apply(&spec, &assign(&[(0, 0), (1, 0)]));
        let want = (0.2 * 3.0 + 0.8 * 1.0) / 4.0;
        assert!((packed.chains[0].unique_ratio - want).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "mixes dimensions")]
    fn rejects_mixed_dims_in_one_pack() {
        let spec = spec_with_tables(&[8, 16]);
        let _ = apply(&spec, &assign(&[(0, 0), (1, 0)]));
    }

    #[test]
    #[should_panic(expected = "no pack assignment")]
    fn rejects_missing_assignment() {
        let spec = spec_with_tables(&[8, 8]);
        let _ = apply(&spec, &assign(&[(0, 0)]));
    }
}
