//! K-Packing (§III-B): kernel fusion *within* a hardware-resource class.
//!
//! Unlike hand-written huge kernels (which would destroy cross-resource
//! interleaving opportunities) or compiler codegen (defeated by dynamic
//! shapes), PICASSO fuses only kernels bounded by the same resource:
//! `Unique`+`Partition` (host memory) and `Shuffle`+`Stitch` (network) in
//! the embedding chains, and the small dense kernels inside each
//! interaction module (compute).

use crate::spec::WdlSpec;

/// Fraction of a module's kernel launches remaining after fusing its
/// same-class compute kernels.
pub const DENSE_FUSION_FACTOR: f64 = 0.4;

/// Minimum micro-ops a fused module keeps (a module is at least one kernel
/// plus I/O glue).
pub const MIN_FUSED_MICRO_OPS: u32 = 4;

/// Applies kernel fusion to every chain and module of `spec`. Idempotent:
/// an already-fused spec (all chains carry both fusion flags) is returned
/// unchanged, so module kernels are never fused twice.
pub fn apply(spec: &WdlSpec) -> WdlSpec {
    let already_fused = !spec.chains.is_empty()
        && spec
            .chains
            .iter()
            .all(|c| c.fused_unique_partition && c.fused_shuffle_stitch);
    if already_fused {
        return spec.clone();
    }
    let mut out = spec.clone();
    for c in &mut out.chains {
        c.fused_unique_partition = true;
        c.fused_shuffle_stitch = true;
    }
    for m in &mut out.modules {
        let fused = (m.micro_ops_forward as f64 * DENSE_FUSION_FACTOR).round() as u32;
        m.micro_ops_forward = fused.max(MIN_FUSED_MICRO_OPS).min(m.micro_ops_forward);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EmbeddingChain, InteractionModule, MlpSpec, ModuleKind};

    fn spec() -> WdlSpec {
        WdlSpec {
            name: "t".into(),
            io_bytes_per_instance: 1.0,
            chains: vec![EmbeddingChain::for_table(0, 8, vec![0], 1.0)],
            modules: vec![InteractionModule {
                kind: ModuleKind::Attention,
                input_fields: vec![0],
                flops_per_instance: 100.0,
                bytes_per_instance: 10.0,
                params: 10.0,
                output_width: 8,
                micro_ops_forward: 30,
            }],
            mlp: MlpSpec::new(8, vec![1]),
            micro_batches: 1,
            group_deps: Vec::new(),
        }
    }

    #[test]
    fn fuses_chain_stages() {
        let fused = apply(&spec());
        assert!(fused.chains[0].fused_unique_partition);
        assert!(fused.chains[0].fused_shuffle_stitch);
        assert!(fused.chains[0].micro_ops_forward() < spec().chains[0].micro_ops_forward());
    }

    #[test]
    fn fuses_module_kernels_with_floor() {
        let fused = apply(&spec());
        assert_eq!(fused.modules[0].micro_ops_forward, 12);
        let mut tiny = spec();
        tiny.modules[0].micro_ops_forward = 5;
        let fused_tiny = apply(&tiny);
        assert_eq!(fused_tiny.modules[0].micro_ops_forward, 4, "floor applies");
        let mut minimal = spec();
        minimal.modules[0].micro_ops_forward = 2;
        let fused_min = apply(&minimal);
        assert_eq!(fused_min.modules[0].micro_ops_forward, 2, "never grows");
    }

    #[test]
    fn work_volumes_are_untouched() {
        let before = spec();
        let after = apply(&before);
        assert_eq!(
            before.modules[0].flops_per_instance,
            after.modules[0].flops_per_instance
        );
        assert_eq!(
            before.chains[0].embedding_bytes_per_instance(),
            after.chains[0].embedding_bytes_per_instance()
        );
    }

    #[test]
    fn idempotent() {
        let once = apply(&spec());
        let twice = apply(&once);
        assert_eq!(
            once.modules[0].micro_ops_forward,
            twice.modules[0].micro_ops_forward
        );
        assert_eq!(
            once.chains[0].micro_ops_forward(),
            twice.chains[0].micro_ops_forward()
        );
    }
}
