//! Feature-field specifications.
//!
//! A WDL model ingests up to thousands of *feature fields* (Fig. 2). Each
//! sparse field maps categorical IDs into an embedding table; several fields
//! (e.g. the positions of one behaviour sequence) may share a table.

use crate::distribution::IdDistribution;
use serde::{Deserialize, Serialize};

/// Description of one sparse feature field.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FieldSpec {
    /// Field name, e.g. `"user_id"` or `"seq3_pos17"`.
    pub name: String,
    /// Logical vocabulary size of the backing embedding table (used for
    /// parameter-volume cost modeling; materialized vocabularies are clamped
    /// by the batch generator).
    pub vocab: u64,
    /// Embedding dimension of the backing table.
    pub dim: usize,
    /// Average number of categorical IDs this field contributes per instance
    /// (1.0 for one-hot; >1 for multi-hot fields).
    pub avg_ids: f64,
    /// ID skew.
    pub dist: IdDistribution,
    /// Embedding-table identity: fields with equal `table_group` share one
    /// table (sequence positions typically do).
    pub table_group: usize,
}

impl FieldSpec {
    /// Creates a one-hot field with its own table.
    pub fn one_hot(
        name: impl Into<String>,
        vocab: u64,
        dim: usize,
        dist: IdDistribution,
        table_group: usize,
    ) -> Self {
        assert!(vocab > 0 && dim > 0, "vocab and dim must be positive");
        FieldSpec {
            name: name.into(),
            vocab,
            dim,
            avg_ids: 1.0,
            dist,
            table_group,
        }
    }

    /// Sets the average multi-hot length.
    pub fn with_avg_ids(mut self, avg_ids: f64) -> Self {
        assert!(avg_ids > 0.0, "avg_ids must be positive");
        self.avg_ids = avg_ids;
        self
    }

    /// Logical parameter count of this field's table (`vocab * dim`); shared
    /// tables are counted once at the dataset level.
    pub fn table_params(&self) -> f64 {
        self.vocab as f64 * self.dim as f64
    }

    /// Bytes of raw categorical-ID input per instance (8-byte IDs).
    pub fn id_bytes_per_instance(&self) -> f64 {
        self.avg_ids * 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_defaults() {
        let f = FieldSpec::one_hot("user", 1000, 16, IdDistribution::Uniform, 0);
        assert_eq!(f.avg_ids, 1.0);
        assert_eq!(f.table_params(), 16_000.0);
        assert_eq!(f.id_bytes_per_instance(), 8.0);
    }

    #[test]
    fn multi_hot_scales_bytes() {
        let f = FieldSpec::one_hot("seq", 1000, 8, IdDistribution::Zipf { s: 1.1 }, 1)
            .with_avg_ids(50.0);
        assert_eq!(f.id_bytes_per_instance(), 400.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dim_rejected() {
        let _ = FieldSpec::one_hot("bad", 10, 0, IdDistribution::Uniform, 0);
    }
}
