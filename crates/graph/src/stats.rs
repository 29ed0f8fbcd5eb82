//! Graph statistics: the Table V accounting.
//!
//! Counts the TensorFlow-level operations a [`WdlSpec`] lowers to, forward
//! and backward, so the effect of packing (and the supplementary control
//! operations interleaving adds) can be compared against the paper's
//! "# of operations" and "# of packed embedding" columns.

use crate::ops::OpKind;
use crate::spec::WdlSpec;

/// Operation counts of one lowered training graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Total graph operations (forward + backward + supplements).
    pub total_ops: u64,
    /// Forward-pass operations.
    pub forward_ops: u64,
    /// Operations in the embedding chains (forward).
    pub chain_ops: u64,
    /// Operations in interaction modules (forward).
    pub module_ops: u64,
    /// Operations in the MLP (forward).
    pub mlp_ops: u64,
    /// Control/synchronization operations added by interleaving.
    pub sync_ops: u64,
    /// Number of embedding chains ("# of packed embedding" in Table V; for
    /// the unoptimized graph this equals the table count).
    pub packed_embeddings: usize,
}

/// Computes the operation counts of `spec`.
pub fn graph_stats(spec: &WdlSpec) -> GraphStats {
    let chain_ops: u64 = spec.chains.iter().map(|c| c.micro_ops_forward()).sum();
    let module_ops: u64 = spec
        .modules
        .iter()
        .map(|m| m.micro_ops_forward as u64)
        .sum();
    let mlp_ops = spec.mlp.depth() as u64 * OpKind::MlpCompute.micro_ops() as u64;
    let io_ops = OpKind::DataLoad.micro_ops() as u64;
    let comm_ops = OpKind::AllReduce.micro_ops() as u64 + OpKind::OptimizerApply.micro_ops() as u64;
    let forward_ops = chain_ops + module_ops + mlp_ops + io_ops;

    // Interleaving supplements: per extra group and per extra micro-batch,
    // control dependencies and split/concat bookkeeping ("the interleaving
    // optimization supplements a certain amount of operations").
    let groups = spec.group_count().max(1) as u64;
    let micro = spec.micro_batches as u64;
    let sync_ops = (groups - 1) * 6 + (micro - 1) * 8;

    let backward = (forward_ops as f64 * OpKind::BACKWARD_OP_FACTOR) as u64;
    GraphStats {
        total_ops: forward_ops + backward + comm_ops + sync_ops,
        forward_ops,
        chain_ops,
        module_ops,
        mlp_ops,
        sync_ops,
        packed_embeddings: spec.chains.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{d_packing, k_packing};
    use crate::spec::{EmbeddingChain, MlpSpec, WdlSpec};
    use std::collections::BTreeMap;

    fn spec(tables: usize) -> WdlSpec {
        WdlSpec {
            name: "t".into(),
            io_bytes_per_instance: 1.0,
            chains: (0..tables)
                .map(|t| EmbeddingChain::for_table(t, 8, vec![t as u32], 1.0))
                .collect(),
            modules: vec![],
            mlp: MlpSpec::new(8, vec![64, 1]),
            micro_batches: 1,
            group_deps: Vec::new(),
        }
    }

    #[test]
    fn baseline_counts_scale_with_tables() {
        let s1 = graph_stats(&spec(10));
        let s2 = graph_stats(&spec(100));
        assert_eq!(s1.packed_embeddings, 10);
        assert_eq!(s2.packed_embeddings, 100);
        assert!(s2.chain_ops > 9 * s1.chain_ops);
        assert!(s2.total_ops > s1.total_ops);
    }

    #[test]
    fn packing_reduces_ops_dramatically() {
        let base = spec(100);
        // Pack all 100 tables into 5 packs of 20.
        let assign: BTreeMap<usize, usize> = (0..100).map(|t| (t, t / 20)).collect();
        let packed = k_packing::apply(&d_packing::apply(&base, &assign));
        let sb = graph_stats(&base);
        let sp = graph_stats(&packed);
        assert_eq!(sp.packed_embeddings, 5);
        let ratio = sp.total_ops as f64 / sb.total_ops as f64;
        assert!(
            ratio < 0.25,
            "packing should reduce total ops to a small fraction, got {ratio:.3}"
        );
    }

    #[test]
    fn interleaving_supplements_ops() {
        let mut s = spec(10);
        let before = graph_stats(&s).total_ops;
        for (i, c) in s.chains.iter_mut().enumerate() {
            c.group = (i % 5) as u32;
        }
        s.micro_batches = 3;
        let after = graph_stats(&s);
        assert!(after.total_ops > before);
        assert_eq!(after.sync_ops, 4 * 6 + 2 * 8);
    }

    #[test]
    fn forward_parts_add_up() {
        let s = graph_stats(&spec(7));
        assert_eq!(
            s.forward_ops,
            s.chain_ops + s.module_ops + s.mlp_ops + 12 /* DataLoad */
        );
        assert!(s.total_ops > 2 * s.forward_ops, "backward roughly doubles");
    }
}
