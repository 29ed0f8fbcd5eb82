//! The logical WDL training graph.
//!
//! A [`WdlSpec`] is the structured description of one model's per-iteration
//! work, normalized *per training instance* so the execution engine can
//! scale it to any batch size: embedding lookup chains (one per embedding
//! table in the unoptimized graph; one per pack after D-packing), feature
//! interaction modules, and the MLP. The PICASSO passes transform this
//! structure; the execution engine lowers it onto the simulator.

use crate::ops::OpKind;
use serde::{Deserialize, Serialize};

/// One embedding lookup pipeline: Preprocess → Unique → Partition → Gather →
/// Shuffle → Stitch → SegmentReduce → H2D. In the baseline graph there is
/// one chain per embedding table; D-packing merges chains that share an
/// embedding dimension.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EmbeddingChain {
    /// Dataset field indices feeding this chain.
    pub fields: Vec<u32>,
    /// Embedding tables queried (baseline: exactly one).
    pub tables: Vec<usize>,
    /// Embedding dimension (identical across the chain's tables).
    pub dim: usize,
    /// Average categorical IDs per training instance across all fields.
    pub ids_per_instance: f64,
    /// Rows remaining per instance after segment pooling (one per field).
    pub pooled_rows_per_instance: f64,
    /// Expected fraction of IDs remaining after `Unique` (measured from real
    /// batches during warm-up; 1.0 = no duplicates).
    pub unique_ratio: f64,
    /// K-packing: `Unique` and `Partition` fused into one kernel.
    pub fused_unique_partition: bool,
    /// K-packing: `Shuffle` and `Stitch` fused into one kernel.
    pub fused_shuffle_stitch: bool,
    /// K-interleaving group this chain executes in (0-based).
    pub group: u32,
    /// Fraction of `Gather` traffic served from Hot-storage (HybridHash);
    /// 0.0 means no cache.
    pub cache_hit_ratio: f64,
    /// Excluded from K-interleaving control dependencies (the paper's
    /// *preset excluded embedding* whose output feeds no concatenation).
    pub interleave_excluded: bool,
}

impl EmbeddingChain {
    /// A baseline chain for one table.
    pub fn for_table(table: usize, dim: usize, fields: Vec<u32>, ids_per_instance: f64) -> Self {
        assert!(dim > 0 && ids_per_instance > 0.0);
        EmbeddingChain {
            pooled_rows_per_instance: fields.len() as f64,
            fields,
            tables: vec![table],
            dim,
            ids_per_instance,
            unique_ratio: 1.0,
            fused_unique_partition: false,
            fused_shuffle_stitch: false,
            group: 0,
            cache_hit_ratio: 0.0,
            interleave_excluded: false,
        }
    }

    /// Embedding bytes this chain produces per instance.
    pub fn embedding_bytes_per_instance(&self) -> f64 {
        self.ids_per_instance * self.dim as f64 * 4.0
    }

    /// Pooled output bytes per instance (what the interaction layer sees).
    pub fn output_bytes_per_instance(&self) -> f64 {
        self.pooled_rows_per_instance * self.dim as f64 * 4.0
    }

    /// The logical stages this chain lowers to, in dependency order.
    pub fn stages(&self) -> Vec<OpKind> {
        let mut v = Vec::with_capacity(8);
        v.push(OpKind::Preprocess);
        if self.fused_unique_partition {
            v.push(OpKind::UniquePartition);
        } else {
            v.push(OpKind::Unique);
            v.push(OpKind::Partition);
        }
        v.push(OpKind::Gather);
        if self.fused_shuffle_stitch {
            v.push(OpKind::ShuffleStitch);
        } else {
            v.push(OpKind::Shuffle);
            v.push(OpKind::Stitch);
        }
        v.push(OpKind::SegmentReduce);
        v.push(OpKind::HostToDevice);
        v
    }

    /// Forward micro-op count of this chain (Table V accounting): the chain
    /// stages apply once per chain regardless of how many tables were packed
    /// into it — that is D-packing's saving.
    pub fn micro_ops_forward(&self) -> u64 {
        self.stages().iter().map(|k| k.micro_ops() as u64).sum()
    }
}

/// Kinds of feature-interaction modules found in the model zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModuleKind {
    /// Plain linear/LR terms.
    Linear,
    /// Factorization-machine second-order interaction.
    Fm,
    /// DCN-style cross layers.
    Cross,
    /// xDeepFM compressed interaction network.
    Cin,
    /// DIN-style target attention.
    Attention,
    /// DIEN-style GRU interest evolution.
    Gru,
    /// Transformer block (DSIN session interest).
    Transformer,
    /// CAN feature co-action unit.
    CoAction,
    /// Mixture-of-experts expert tower (one module per expert).
    Expert,
    /// MMoE/STAR gating network.
    Gate,
    /// Graph-relational aggregation (ATBRG).
    GraphAgg,
    /// Plain DNN tower (TwoTower, deep part of W&D).
    DnnTower,
}

/// One feature-interaction module instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InteractionModule {
    /// Module kind.
    pub kind: ModuleKind,
    /// Dataset field indices whose embeddings this module consumes.
    pub input_fields: Vec<u32>,
    /// Dense FLOPs per instance (forward).
    pub flops_per_instance: f64,
    /// Activation bytes per instance (read+write, forward).
    pub bytes_per_instance: f64,
    /// Trainable dense parameters.
    pub params: f64,
    /// Output width (concatenated into the MLP input).
    pub output_width: usize,
    /// Forward micro-ops of this module's kernel constellation.
    pub micro_ops_forward: u32,
}

/// The final MLP.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MlpSpec {
    /// Hidden-layer widths, ending in the output width.
    pub widths: Vec<usize>,
    /// Dense FLOPs per instance (forward).
    pub flops_per_instance: f64,
    /// Activation bytes per instance (forward).
    pub bytes_per_instance: f64,
    /// Trainable dense parameters.
    pub params: f64,
}

impl MlpSpec {
    /// An MLP with the given input width and hidden widths; FLOPs and
    /// parameters derived from the matmul shapes.
    pub fn new(input_width: usize, widths: Vec<usize>) -> Self {
        assert!(!widths.is_empty(), "MLP needs at least one layer");
        let mut flops = 0.0;
        let mut params = 0.0;
        let mut bytes = input_width as f64 * 4.0;
        let mut prev = input_width;
        for &w in &widths {
            flops += 2.0 * prev as f64 * w as f64;
            params += prev as f64 * w as f64 + w as f64;
            bytes += w as f64 * 8.0; // activations read+written
            prev = w;
        }
        MlpSpec {
            widths,
            flops_per_instance: flops,
            bytes_per_instance: bytes,
            params,
        }
    }

    /// Number of matmul layers.
    pub fn depth(&self) -> usize {
        self.widths.len()
    }
}

/// The full logical training graph of one WDL model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WdlSpec {
    /// Model name (e.g. `"CAN"`).
    pub name: String,
    /// Raw training bytes streamed per instance (data transmission layer).
    pub io_bytes_per_instance: f64,
    /// Embedding lookup chains.
    pub chains: Vec<EmbeddingChain>,
    /// Feature-interaction modules.
    pub modules: Vec<InteractionModule>,
    /// Final MLP.
    pub mlp: MlpSpec,
    /// D-interleaving micro-batch count (1 = off), pipelined from the
    /// embedding layer on (Fig. 8b).
    pub micro_batches: usize,
    /// Extra control-dependency edges `(from, to)` between K-interleaving
    /// groups, on top of the implicit `g -> g+1` stagger chain (Fig. 8c).
    /// Group `to`'s communication gate additionally waits on group
    /// `from`'s. Only forward edges (`from < to`) are schedulable; the
    /// lint layer rejects self/backward edges (which would close a cycle
    /// with the implicit chain) before the scheduler ever sees them.
    pub group_deps: Vec<(u32, u32)>,
}

impl WdlSpec {
    /// Dense (non-embedding) parameter count: replicated under DP and
    /// aggregated by AllReduce.
    pub fn dense_params(&self) -> f64 {
        self.modules.iter().map(|m| m.params).sum::<f64>() + self.mlp.params
    }

    /// Total embedding activation bytes per instance entering interaction.
    pub fn embedding_output_bytes_per_instance(&self) -> f64 {
        self.chains
            .iter()
            .map(|c| c.output_bytes_per_instance())
            .sum()
    }

    /// Total embedding bytes per instance moved by the embedding layer.
    pub fn embedding_bytes_per_instance(&self) -> f64 {
        self.chains
            .iter()
            .map(|c| c.embedding_bytes_per_instance())
            .sum()
    }

    /// Peak feature-map bytes per instance (the Eq. 2 `RInstance` for GPU
    /// device memory): embedding outputs + interaction activations + MLP
    /// activations, forward + retained for backward.
    pub fn feature_map_bytes_per_instance(&self) -> f64 {
        let interaction: f64 = self.modules.iter().map(|m| m.bytes_per_instance).sum();
        2.0 * (self.embedding_output_bytes_per_instance()
            + interaction
            + self.mlp.bytes_per_instance)
    }

    /// Total dense FLOPs per instance (forward).
    pub fn dense_flops_per_instance(&self) -> f64 {
        self.modules
            .iter()
            .map(|m| m.flops_per_instance)
            .sum::<f64>()
            + self.mlp.flops_per_instance
    }

    /// Number of K-interleaving groups currently assigned.
    pub fn group_count(&self) -> usize {
        self.chains
            .iter()
            .filter(|c| !c.interleave_excluded)
            .map(|c| c.group)
            .max()
            .map(|g| g as usize + 1)
            .unwrap_or(0)
    }

    /// Validates internal consistency by running the spec-surface lint
    /// rules (see [`crate::lint::lint_spec`]) and keeping the
    /// error-severity findings. `Ok(())` means the spec is structurally
    /// sound; warnings (unused fields, out-of-range group deps) do not
    /// fail validation.
    pub fn validate(&self) -> Result<(), Vec<picasso_lint::Diagnostic>> {
        let errors: Vec<_> = crate::lint::lint_spec(self, None)
            .into_iter()
            .filter(|d| d.severity == picasso_lint::Severity::Error)
            .collect();
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(table: usize, dim: usize, fields: Vec<u32>) -> EmbeddingChain {
        let n = fields.len() as f64;
        EmbeddingChain::for_table(table, dim, fields, n)
    }

    fn small_spec() -> WdlSpec {
        WdlSpec {
            name: "test".into(),
            io_bytes_per_instance: 100.0,
            chains: vec![chain(0, 8, vec![0, 1]), chain(1, 16, vec![2])],
            modules: vec![InteractionModule {
                kind: ModuleKind::DnnTower,
                input_fields: vec![0, 1, 2],
                flops_per_instance: 1000.0,
                bytes_per_instance: 64.0,
                params: 500.0,
                output_width: 16,
                micro_ops_forward: 20,
            }],
            mlp: MlpSpec::new(16, vec![64, 1]),
            micro_batches: 1,
            group_deps: Vec::new(),
        }
    }

    #[test]
    fn mlp_flops_and_params_follow_shapes() {
        let m = MlpSpec::new(100, vec![50, 10]);
        assert_eq!(m.flops_per_instance, 2.0 * (100.0 * 50.0 + 50.0 * 10.0));
        assert_eq!(m.params, 100.0 * 50.0 + 50.0 + 50.0 * 10.0 + 10.0);
        assert_eq!(m.depth(), 2);
    }

    #[test]
    fn chain_stage_fusion_changes_stages() {
        let mut c = chain(0, 8, vec![0]);
        assert_eq!(c.stages().len(), 8);
        let unfused_ops = c.micro_ops_forward();
        c.fused_unique_partition = true;
        c.fused_shuffle_stitch = true;
        assert_eq!(c.stages().len(), 6);
        assert!(c.micro_ops_forward() < unfused_ops);
    }

    #[test]
    fn spec_aggregates_are_consistent() {
        let s = small_spec();
        assert_eq!(s.dense_params(), 500.0 + s.mlp.params);
        // chains: 2 fields*8 dims + 1 field*16 dims = (16+16)*4 bytes
        assert_eq!(
            s.embedding_output_bytes_per_instance(),
            (2.0 * 8.0 + 16.0) * 4.0
        );
        assert!(s.feature_map_bytes_per_instance() > s.embedding_output_bytes_per_instance());
        assert_eq!(s.group_count(), 1);
        s.validate().unwrap();
    }

    #[test]
    fn validate_catches_duplicate_fields() {
        let mut s = small_spec();
        s.chains[1].fields = vec![0];
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_catches_unknown_module_inputs() {
        let mut s = small_spec();
        s.modules[0].input_fields.push(99);
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_catches_zero_micro_batches() {
        let mut s = small_spec();
        s.micro_batches = 0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn validate_catches_empty_chain_fields() {
        let mut s = small_spec();
        s.chains[1].fields.clear();
        s.modules[0].input_fields = vec![0, 1];
        let errs = s.validate().unwrap_err();
        assert!(
            errs.iter().any(|d| d.rule == "spec.empty-chain"),
            "{errs:?}"
        );
    }

    #[test]
    fn validate_catches_module_with_no_inputs() {
        let mut s = small_spec();
        // Dense DnnTowers may take zero embedding inputs; an FM cannot.
        s.modules[0].kind = ModuleKind::Fm;
        s.modules[0].input_fields.clear();
        let errs = s.validate().unwrap_err();
        assert!(
            errs.iter().any(|d| d.rule == "spec.no-input-module"),
            "{errs:?}"
        );
    }

    #[test]
    fn validate_reports_every_violation_not_just_the_first() {
        let mut s = small_spec();
        s.chains[1].fields = vec![0]; // duplicate of chain 0's field
        s.micro_batches = 0;
        let errs = s.validate().unwrap_err();
        assert!(errs.iter().any(|d| d.rule == "spec.duplicate-field"));
        assert!(errs.iter().any(|d| d.rule == "spec.zero-micro-batches"));
    }
}
