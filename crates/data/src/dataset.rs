//! Dataset specifications matching Table II of the paper.
//!
//! The public benchmark datasets (Criteo, Alibaba) and the three in-house
//! production datasets (Product-1/2/3) are reproduced as synthetic
//! generators whose *statistics* — field counts, sequence lengths, embedding
//! dimensions, parameter volume, and ID skew — match the table. Sequence
//! features are expanded into one field per position (the paper counts them
//! that way: Alibaba has "1,207 (7+12x100)" fields), with all positions of a
//! sequence sharing one embedding table.

use crate::distribution::IdDistribution;
use crate::field::FieldSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A dataset: numeric features plus a list of sparse fields.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Dataset name.
    pub name: String,
    /// Number of dense numeric features per instance.
    pub numeric: usize,
    /// Sparse fields (sequence features expanded per position).
    pub fields: Vec<FieldSpec>,
    /// Total instances, `None` for streaming/infinite production data.
    pub instances: Option<u64>,
}

impl DatasetSpec {
    /// Number of sparse feature fields (Table II's "# sparse feature fields").
    pub fn sparse_field_count(&self) -> usize {
        self.fields.len()
    }

    /// Number of distinct embedding tables.
    pub fn table_count(&self) -> usize {
        let mut groups: Vec<usize> = self.fields.iter().map(|f| f.table_group).collect();
        groups.sort_unstable();
        groups.dedup();
        groups.len()
    }

    /// Each embedding table's dim, indexed by table id: `None` for an id
    /// no field uses. Fields sharing a table should agree on its dim; when
    /// they do not, the last field wins.
    pub fn table_dims(&self) -> Vec<Option<usize>> {
        let n = self.fields.iter().map(|f| f.table_group + 1).max();
        let mut dims = vec![None; n.unwrap_or(0)];
        for f in &self.fields {
            dims[f.table_group] = Some(f.dim);
        }
        dims
    }

    /// Total logical embedding parameters (floats), counting shared tables
    /// once.
    pub fn total_params(&self) -> f64 {
        let mut per_table: BTreeMap<usize, f64> = BTreeMap::new();
        for f in &self.fields {
            per_table.entry(f.table_group).or_insert(f.table_params());
        }
        per_table.values().sum()
    }

    /// Average raw bytes per training instance (IDs + dense features).
    pub fn bytes_per_instance(&self) -> f64 {
        let ids: f64 = self.fields.iter().map(|f| f.id_bytes_per_instance()).sum();
        ids + self.numeric as f64 * 4.0
    }

    /// Wraps in an [`Arc`] for cheap sharing.
    pub fn shared(self) -> Arc<DatasetSpec> {
        Arc::new(self)
    }

    /// Criteo click logs: 4B instances, 13 numeric + 26 sparse fields,
    /// dim 128, ~6B parameters (DLRM / DeepFM benchmarks).
    pub fn criteo() -> DatasetSpec {
        // Top 20% of IDs cover ~75% of Criteo impressions (Fig. 3).
        let dist = IdDistribution::Zipf { s: 0.82 };
        let mut fields = Vec::with_capacity(26);
        for i in 0..26 {
            // A few huge ID spaces (user/item-like) plus many moderate ones,
            // sized so that sum(vocab)*128 ~ 6e9 parameters.
            let vocab = if i < 4 { 10_000_000 } else { 300_000 };
            fields.push(FieldSpec::one_hot(format!("cat{i}"), vocab, 128, dist, i));
        }
        DatasetSpec {
            name: "criteo".into(),
            numeric: 13,
            fields,
            instances: Some(4_000_000_000),
        }
    }

    /// Alibaba CTR: 13M instances, 1,207 sparse fields (7 + 12 sequences of
    /// length 100), dim 4, ~6B parameters (DIN / DIEN benchmarks).
    pub fn alibaba() -> DatasetSpec {
        // Behaviour logs are the most skewed public set (~90% coverage).
        let dist = IdDistribution::Zipf { s: 0.94 };
        let mut fields = Vec::with_capacity(1207);
        for i in 0..7 {
            fields.push(FieldSpec::one_hot(
                format!("base{i}"),
                8_000_000,
                4,
                dist,
                i,
            ));
        }
        for s in 0..12 {
            let table = 7 + s;
            for p in 0..100 {
                fields.push(FieldSpec::one_hot(
                    format!("seq{s}_pos{p}"),
                    120_000_000,
                    4,
                    dist,
                    table,
                ));
            }
        }
        DatasetSpec {
            name: "alibaba".into(),
            numeric: 0,
            fields,
            instances: Some(13_000_000),
        }
    }

    /// Product-1: streaming, 10 numeric + 204 sparse fields, dims 8–32,
    /// ~160B parameters (W&D workload; I/O & memory intensive).
    pub fn product1() -> DatasetSpec {
        // The flattest production distribution (~65% coverage).
        let dist = IdDistribution::Zipf { s: 0.73 };
        let dims = [8usize, 16, 32];
        let fields = (0..204)
            .map(|i| FieldSpec::one_hot(format!("f{i}"), 42_000_000, dims[i % dims.len()], dist, i))
            .collect();
        DatasetSpec {
            name: "product-1".into(),
            numeric: 10,
            fields,
            instances: None,
        }
    }

    /// Product-2: streaming, 1,834 sparse fields (334 + 30 sequences of
    /// length 50), dims 8–200, ~1T parameters (CAN workload; communication
    /// intensive).
    pub fn product2() -> DatasetSpec {
        // CAN's co-action features are heavily reused (~85% coverage).
        let dist = IdDistribution::Zipf { s: 0.90 };
        let dims = [8usize, 16, 32, 64, 128, 200];
        let mut fields = Vec::with_capacity(1834);
        for i in 0..334 {
            fields.push(FieldSpec::one_hot(
                format!("f{i}"),
                36_000_000,
                dims[i % dims.len()],
                dist,
                i,
            ));
        }
        for s in 0..30 {
            let table = 334 + s;
            let dim = dims[s % dims.len()];
            for p in 0..50 {
                fields.push(FieldSpec::one_hot(
                    format!("seq{s}_pos{p}"),
                    36_000_000,
                    dim,
                    dist,
                    table,
                ));
            }
        }
        DatasetSpec {
            name: "product-2".into(),
            numeric: 0,
            fields,
            instances: None,
        }
    }

    /// Product-3: streaming, 584 sparse fields (84 + 10 sequences of length
    /// 50), dims 12–128, ~1T parameters (MMoE workload; computation
    /// intensive).
    pub fn product3() -> DatasetSpec {
        // ~75% coverage for the MMoE workload.
        let dist = IdDistribution::Zipf { s: 0.82 };
        let dims = [12usize, 32, 64, 128];
        let mut fields = Vec::with_capacity(584);
        for i in 0..84 {
            fields.push(FieldSpec::one_hot(
                format!("f{i}"),
                180_000_000,
                dims[i % dims.len()],
                dist,
                i,
            ));
        }
        for s in 0..10 {
            let table = 84 + s;
            let dim = dims[s % dims.len()];
            for p in 0..50 {
                fields.push(FieldSpec::one_hot(
                    format!("seq{s}_pos{p}"),
                    180_000_000,
                    dim,
                    dist,
                    table,
                ));
            }
        }
        DatasetSpec {
            name: "product-3".into(),
            numeric: 0,
            fields,
            instances: None,
        }
    }

    /// The Table VIII synthetic dataset: Product-2's fields duplicated
    /// `multiple` times (364 tables per copy).
    pub fn product2_duplicated(multiple: usize) -> DatasetSpec {
        assert!(multiple >= 1, "need at least one copy");
        let base = DatasetSpec::product2();
        let tables_per_copy = base.table_count();
        let mut fields = Vec::with_capacity(base.fields.len() * multiple);
        for copy in 0..multiple {
            for f in &base.fields {
                let mut f = f.clone();
                f.name = format!("dup{copy}_{}", f.name);
                f.table_group += copy * tables_per_copy;
                fields.push(f);
            }
        }
        DatasetSpec {
            name: format!("product-2-x{multiple}"),
            numeric: 0,
            fields,
            instances: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The embedding dimensions `d`'s fields use.
    fn dims(d: &DatasetSpec) -> BTreeSet<usize> {
        d.fields.iter().map(|f| f.dim).collect()
    }

    #[test]
    fn criteo_matches_table_two() {
        let d = DatasetSpec::criteo();
        assert_eq!(d.numeric, 13);
        assert_eq!(d.sparse_field_count(), 26);
        assert_eq!(dims(&d), BTreeSet::from([128]));
        let params = d.total_params();
        assert!(
            (5e9..7e9).contains(&params),
            "criteo should have ~6B params, got {params:.2e}"
        );
    }

    #[test]
    fn alibaba_matches_table_two() {
        let d = DatasetSpec::alibaba();
        assert_eq!(d.sparse_field_count(), 1207);
        assert_eq!(d.table_count(), 19, "7 base + 12 sequence tables");
        assert_eq!(dims(&d), BTreeSet::from([4]));
        let params = d.total_params();
        assert!((5e9..7e9).contains(&params), "got {params:.2e}");
    }

    #[test]
    fn product1_matches_table_two() {
        let d = DatasetSpec::product1();
        assert_eq!(d.sparse_field_count(), 204);
        assert_eq!(d.numeric, 10);
        assert_eq!(dims(&d), BTreeSet::from([8, 16, 32]));
        let params = d.total_params();
        assert!(
            (1.3e11..2e11).contains(&params),
            "~160B params, got {params:.2e}"
        );
    }

    #[test]
    fn product2_matches_table_two() {
        let d = DatasetSpec::product2();
        assert_eq!(d.sparse_field_count(), 1834);
        assert_eq!(d.table_count(), 364, "334 base + 30 sequence tables");
        let params = d.total_params();
        assert!(
            (0.7e12..1.3e12).contains(&params),
            "~1T params, got {params:.2e}"
        );
    }

    #[test]
    fn product3_matches_table_two() {
        let d = DatasetSpec::product3();
        assert_eq!(d.sparse_field_count(), 584);
        assert_eq!(d.table_count(), 94);
        let params = d.total_params();
        assert!(
            (0.7e12..1.3e12).contains(&params),
            "~1T params, got {params:.2e}"
        );
    }

    #[test]
    fn duplication_multiplies_fields_and_tables() {
        let d = DatasetSpec::product2_duplicated(3);
        assert_eq!(d.sparse_field_count(), 1834 * 3);
        assert_eq!(d.table_count(), 364 * 3);
    }

    #[test]
    fn shared_tables_counted_once() {
        let base = DatasetSpec::alibaba();
        // 1207 fields but only 19 tables: params must be far below
        // naive per-field sum.
        let naive: f64 = base.fields.iter().map(|f| f.table_params()).sum();
        assert!(base.total_params() < naive / 10.0);
    }

    #[test]
    fn bytes_per_instance_positive() {
        for d in [
            DatasetSpec::criteo(),
            DatasetSpec::alibaba(),
            DatasetSpec::product1(),
        ] {
            assert!(d.bytes_per_instance() > 0.0);
        }
    }
}
