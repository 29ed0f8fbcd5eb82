//! The WDL model zoo.
//!
//! One constructor per published model architecture evaluated in the paper
//! (Tables III and VII). Every constructor takes a [`DatasetSpec`] and
//! produces the *unoptimized* logical graph — one embedding chain per table,
//! interaction modules wired to field subsets, and the MLP — which the
//! PICASSO passes then transform.

use picasso_data::DatasetSpec;
use picasso_graph::{EmbeddingChain, MlpSpec, WdlSpec};
use std::collections::BTreeMap;

pub mod atbrg;
pub mod can;
pub mod dcn;
pub mod deepfm;
pub mod dien;
pub mod din;
pub mod dlrm;
pub mod dsin;
pub mod lr;
pub mod mmoe;
pub mod star;
pub mod two_tower;
pub mod wide_deep;
pub mod xdeepfm;

/// Summary of one embedding table in a dataset.
#[derive(Debug, Clone)]
pub struct TableInfo {
    /// Table group id.
    pub table: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Field indices querying this table.
    pub fields: Vec<u32>,
    /// Total categorical IDs per instance across those fields.
    pub ids_per_instance: f64,
}

impl TableInfo {
    /// Whether this table backs a behaviour sequence (multiple positions or
    /// multi-hot fields).
    pub fn is_sequence(&self) -> bool {
        self.fields.len() > 1 || self.ids_per_instance > 1.5
    }

    /// Average sequence length seen by interaction modules.
    pub fn seq_len(&self) -> f64 {
        self.ids_per_instance
    }
}

/// Extracts per-table summaries from a dataset, ordered by table id.
pub fn tables(data: &DatasetSpec) -> Vec<TableInfo> {
    let mut map: BTreeMap<usize, TableInfo> = BTreeMap::new();
    for (i, f) in data.fields.iter().enumerate() {
        let e = map.entry(f.table_group).or_insert_with(|| TableInfo {
            table: f.table_group,
            dim: f.dim,
            fields: Vec::new(),
            ids_per_instance: 0.0,
        });
        e.fields.push(i as u32);
        e.ids_per_instance += f.avg_ids;
    }
    map.into_values().collect()
}

/// The unoptimized embedding layer: one chain per table (what Table V's
/// baseline "# of packed embedding" column counts).
pub fn baseline_chains(data: &DatasetSpec) -> Vec<EmbeddingChain> {
    tables(data)
        .into_iter()
        .map(|t| {
            let mut c = EmbeddingChain::for_table(t.table, t.dim, t.fields, t.ids_per_instance);
            // Pooling keeps one row per field position.
            c.pooled_rows_per_instance = c.fields.len() as f64;
            c
        })
        .collect()
}

/// Sum of pooled embedding widths over `field_subset` (the concatenated
/// input width interaction modules see).
pub fn width_of(data: &DatasetSpec, fields: &[u32]) -> usize {
    fields.iter().map(|&f| data.fields[f as usize].dim).sum()
}

/// All field indices of the dataset.
pub fn all_fields(data: &DatasetSpec) -> Vec<u32> {
    (0..data.fields.len() as u32).collect()
}

/// Representative field per table: the first position (used to wire a
/// module to "one field per table" inputs without exploding input lists).
pub fn representative_fields(tables: &[TableInfo]) -> Vec<u32> {
    tables.iter().map(|t| t.fields[0]).collect()
}

/// Assembles a full spec from parts.
pub fn assemble(
    name: &str,
    data: &DatasetSpec,
    modules: Vec<picasso_graph::InteractionModule>,
    mlp: MlpSpec,
) -> WdlSpec {
    let spec = WdlSpec {
        name: name.into(),
        io_bytes_per_instance: data.bytes_per_instance(),
        chains: baseline_chains(data),
        modules,
        mlp,
        micro_batches: 1,
        group_deps: Vec::new(),
    };
    debug_assert!(spec.validate().is_ok(), "{:?}", spec.validate());
    spec
}

/// The models evaluated in the paper, in Table VII order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Piece-wise linear logistic regression.
    Lr,
    /// Wide & Deep.
    WideDeep,
    /// Two-tower DNN retrieval model.
    TwoTowerDnn,
    /// Facebook DLRM.
    Dlrm,
    /// DeepFM.
    DeepFm,
    /// Deep & Cross Network.
    Dcn,
    /// xDeepFM.
    XDeepFm,
    /// Adaptive target-behaviour relational graph network.
    Atbrg,
    /// Deep Interest Network.
    Din,
    /// Deep Interest Evolution Network.
    Dien,
    /// Deep Session Interest Network.
    Dsin,
    /// CAN feature co-action network.
    Can,
    /// STAR multi-domain model.
    Star,
    /// Multi-gate mixture-of-experts (71 experts).
    MMoe,
}

impl ModelKind {
    /// All models, in Table VII order.
    pub const ALL: [ModelKind; 14] = [
        ModelKind::Lr,
        ModelKind::WideDeep,
        ModelKind::TwoTowerDnn,
        ModelKind::Dlrm,
        ModelKind::DeepFm,
        ModelKind::Dcn,
        ModelKind::XDeepFm,
        ModelKind::Atbrg,
        ModelKind::Din,
        ModelKind::Dien,
        ModelKind::Dsin,
        ModelKind::Can,
        ModelKind::Star,
        ModelKind::MMoe,
    ];

    /// The model's display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Lr => "LR",
            ModelKind::WideDeep => "W&D",
            ModelKind::TwoTowerDnn => "TwoTowerDNN",
            ModelKind::Dlrm => "DLRM",
            ModelKind::DeepFm => "DeepFM",
            ModelKind::Dcn => "DCN",
            ModelKind::XDeepFm => "xDeepFM",
            ModelKind::Atbrg => "ATBRG",
            ModelKind::Din => "DIN",
            ModelKind::Dien => "DIEN",
            ModelKind::Dsin => "DSIN",
            ModelKind::Can => "CAN",
            ModelKind::Star => "STAR",
            ModelKind::MMoe => "MMoE",
        }
    }

    /// Builds the unoptimized logical graph for `data`.
    pub fn build(self, data: &DatasetSpec) -> WdlSpec {
        match self {
            ModelKind::Lr => lr::build(data),
            ModelKind::WideDeep => wide_deep::build(data),
            ModelKind::TwoTowerDnn => two_tower::build(data),
            ModelKind::Dlrm => dlrm::build(data),
            ModelKind::DeepFm => deepfm::build(data),
            ModelKind::Dcn => dcn::build(data),
            ModelKind::XDeepFm => xdeepfm::build(data),
            ModelKind::Atbrg => atbrg::build(data),
            ModelKind::Din => din::build(data),
            ModelKind::Dien => dien::build(data),
            ModelKind::Dsin => dsin::build(data),
            ModelKind::Can => can::build(data),
            ModelKind::Star => star::build(data),
            ModelKind::MMoe => mmoe::build(data),
        }
    }

    /// The Table II dataset this model is benchmarked on.
    pub fn default_dataset(self) -> DatasetSpec {
        match self {
            ModelKind::Dlrm | ModelKind::DeepFm => DatasetSpec::criteo(),
            ModelKind::Din | ModelKind::Dien => DatasetSpec::alibaba(),
            ModelKind::Lr | ModelKind::WideDeep => DatasetSpec::product1(),
            ModelKind::Can
            | ModelKind::TwoTowerDnn
            | ModelKind::Dcn
            | ModelKind::XDeepFm
            | ModelKind::Atbrg
            | ModelKind::Dsin
            | ModelKind::Star => DatasetSpec::product2(),
            ModelKind::MMoe => DatasetSpec::product3(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_aggregate_fields() {
        let data = DatasetSpec::alibaba();
        let ts = tables(&data);
        assert_eq!(ts.len(), 19);
        let seqs: Vec<_> = ts.iter().filter(|t| t.is_sequence()).collect();
        assert_eq!(seqs.len(), 12);
        assert_eq!(seqs[0].fields.len(), 100);
    }

    #[test]
    fn baseline_chain_count_is_table_count() {
        for data in [DatasetSpec::product1(), DatasetSpec::product2()] {
            assert_eq!(baseline_chains(&data).len(), data.table_count());
        }
    }

    #[test]
    fn every_model_builds_on_its_default_dataset() {
        for kind in ModelKind::ALL {
            let data = kind.default_dataset();
            let spec = kind.build(&data);
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e:?}", kind.name()));
            assert!(!spec.chains.is_empty(), "{}", kind.name());
            assert!(spec.mlp.flops_per_instance > 0.0, "{}", kind.name());
            assert_eq!(spec.micro_batches, 1);
        }
    }

    #[test]
    fn every_model_builds_on_product2() {
        // Table VII runs the whole zoo on Product-2.
        let data = DatasetSpec::product2();
        for kind in ModelKind::ALL {
            let spec = kind.build(&data);
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e:?}", kind.name()));
        }
    }

    #[test]
    fn width_of_sums_dims() {
        let data = DatasetSpec::criteo();
        assert_eq!(width_of(&data, &[0, 1]), 256);
        assert_eq!(width_of(&data, &all_fields(&data)), 26 * 128);
    }
}
