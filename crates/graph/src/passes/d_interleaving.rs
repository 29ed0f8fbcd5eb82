//! D-Interleaving (§III-C): micro-batch pipelining.
//!
//! Large batches are desirable for accuracy and throughput but blow through
//! GPU device memory (feature maps scale with batch size). D-interleaving
//! slices the batch into micro-batches and pipelines them. The paper can
//! start the split at the MLP, amortizing peak memory (Fig. 8a), or at the
//! embedding layer, overlapping the whole iteration (Fig. 8b); this
//! reproduction models only Fig. 8b, so every lowering pipelines from the
//! embedding layer. The micro-batch size comes from Eq. 2.

use crate::spec::WdlSpec;

/// Eq. 2: `BS_micro = min_op (RBound_op / RInstance_op)` — the largest
/// micro-batch no operator's dominant resource can be bounded by. Each entry
/// is `(RBound, RInstance)`: the resource's bound value and the per-instance
/// cost on it.
pub fn eq2_micro_batch(ops: &[(f64, f64)]) -> f64 {
    ops.iter()
        .filter(|&&(_, r_inst)| r_inst > 0.0)
        .map(|&(r_bound, r_inst)| r_bound / r_inst)
        .fold(f64::INFINITY, f64::min)
}

/// Returns `spec` with D-interleaving enabled: `micro_batches` slices,
/// pipelined from the embedding layer on (Fig. 8b).
pub fn apply(spec: &WdlSpec, micro_batches: usize) -> WdlSpec {
    assert!(micro_batches >= 1, "micro_batches must be >= 1");
    let mut spec = spec.clone();
    spec.micro_batches = micro_batches;
    spec
}

/// Micro-batch heuristic: compute-heavy models pipeline deeper (the Fig. 14
/// observation that CAN and MMoE profit from more micro-batches), but
/// fragmentary graphs (packing disabled) cap the depth — each extra
/// micro-batch re-dispatches every chain's operations, and with hundreds of
/// unpacked chains the framework dispatch cost outweighs the overlap.
pub fn default_micro_batches(spec: &WdlSpec) -> usize {
    let flops = spec.dense_flops_per_instance();
    let by_compute = if flops > 5e6 {
        4
    } else if flops > 5e5 {
        3
    } else {
        2
    };
    if spec.chains.len() > 64 {
        by_compute.min(2)
    } else {
        by_compute
    }
}

/// Derives the micro-batch count for a target `batch` size from the Eq. 2
/// estimate: `ceil(batch / BS_micro)`, at least 1.
pub fn micro_batch_count(batch: usize, bs_micro: f64) -> usize {
    if !bs_micro.is_finite() || bs_micro <= 0.0 {
        return 1;
    }
    (batch as f64 / bs_micro).ceil().max(1.0) as usize
}

/// The largest batch that fits GPU device memory (the Eq. 2 special case
/// used across the experiments): feature-map bytes per instance against the
/// memory left after parameters and Hot-storage.
pub fn memory_bound_batch(
    gpu_mem_bytes: f64,
    hot_storage_bytes: f64,
    resident_bytes: f64,
    feature_map_bytes_per_instance: f64,
) -> usize {
    let available = gpu_mem_bytes - hot_storage_bytes - resident_bytes;
    if available <= 0.0 || feature_map_bytes_per_instance <= 0.0 {
        return 0;
    }
    (available / feature_map_bytes_per_instance).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EmbeddingChain, MlpSpec};

    fn spec() -> WdlSpec {
        WdlSpec {
            name: "t".into(),
            io_bytes_per_instance: 1.0,
            chains: vec![EmbeddingChain::for_table(0, 8, vec![0], 1.0)],
            modules: vec![],
            mlp: MlpSpec::new(8, vec![1]),
            micro_batches: 1,
            group_deps: Vec::new(),
        }
    }

    #[test]
    fn eq2_takes_tightest_bound() {
        // GPU mem: 32 GB bound, 1 MB per instance => 32768 instances.
        // PCIe-ish: 1e9 bound, 1e6 per instance => 1000 instances.
        let bs = eq2_micro_batch(&[(32e9, 1e6), (1e9, 1e6)]);
        assert_eq!(bs, 1000.0);
        assert_eq!(eq2_micro_batch(&[(1.0, 0.0)]), f64::INFINITY);
    }

    #[test]
    fn apply_sets_fields() {
        let s = apply(&spec(), 4);
        assert_eq!(s.micro_batches, 4);
        s.validate().unwrap();
    }

    #[test]
    fn default_micro_batches_scales_with_compute() {
        let mut s = spec();
        assert_eq!(default_micro_batches(&s), 2, "light MLP pipelines shallow");
        s.mlp = MlpSpec::new(1024, vec![1024, 1024, 1]);
        assert!(
            default_micro_batches(&s) >= 3,
            "compute-heavy models pipeline deeper"
        );
        // Fragmentary graphs cap the depth regardless of compute.
        s.chains = (0..100)
            .map(|t| EmbeddingChain::for_table(t, 8, vec![t as u32], 1.0))
            .collect();
        assert_eq!(default_micro_batches(&s), 2);
    }

    #[test]
    fn micro_batch_count_rounds_up() {
        assert_eq!(micro_batch_count(1000, 300.0), 4);
        assert_eq!(micro_batch_count(1000, 1000.0), 1);
        assert_eq!(micro_batch_count(1000, f64::INFINITY), 1);
        assert_eq!(micro_batch_count(1000, 0.0), 1);
    }

    #[test]
    fn memory_bound_batch_accounts_for_cache() {
        // 32 GB GPU, 1 GB cache, 2 GB resident, 1 MB/instance.
        let b = memory_bound_batch(32e9, 1e9, 2e9, 1e6);
        assert_eq!(b, 29000);
        // Bigger cache shrinks the feasible batch — the Table VI effect.
        let b2 = memory_bound_batch(32e9, 4e9, 2e9, 1e6);
        assert!(b2 < b);
        assert_eq!(memory_bound_batch(1e9, 2e9, 0.0, 1e6), 0);
    }

    #[test]
    #[should_panic(expected = "micro_batches must be >= 1")]
    fn zero_micro_batches_rejected() {
        apply(&spec(), 0);
    }
}
