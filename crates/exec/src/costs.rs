//! Per-stage cost planning: turns logical chains/modules into resource
//! targeted work items the scheduler places onto the simulator.
//!
//! All volumes are computed for a concrete (micro-)batch size. Bandwidth
//! resources get efficiency derates reflecting random-access patterns and
//! protocol overhead on real hardware.

use crate::collectives;
use crate::scheduler::SimConfig;
use crate::strategy::{EmbeddingExchange, Strategy};
use picasso_graph::{EmbeddingChain, InteractionModule, MlpSpec, OpKind};

/// Effective fraction of peak DRAM bandwidth under random row access
/// (hashmap gather/scatter).
pub const DRAM_RANDOM_EFF: f64 = 0.30;
/// Effective fraction of peak HBM bandwidth under random row access.
pub const HBM_RANDOM_EFF: f64 = 0.35;
/// Effective fraction of NIC line rate after protocol overhead.
pub const NET_EFF: f64 = 0.70;
/// Effective fraction of PCIe peak for DMA bursts.
pub const PCIE_EFF: f64 = 0.80;
/// Effective fraction of GPU peak FLOPS for WDL-sized kernels.
pub const GPU_EFF: f64 = 0.45;
/// Host-side preprocessing cost per categorical ID (hashing, ragged
/// assembly), in CPU FLOPs-equivalent.
pub const PREPROCESS_FLOPS_PER_ID: f64 = 400.0;
/// Backward dense compute relative to forward.
pub const BACKWARD_FLOP_FACTOR: f64 = 2.0;

/// Which cluster resource a stage runs on (resolved per executor by the
/// scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResTarget {
    /// GPU streaming multiprocessors.
    GpuSm,
    /// GPU device memory.
    GpuMem,
    /// Host-device PCIe link.
    Pcie,
    /// Host DRAM.
    Dram,
    /// Host CPU.
    Cpu,
    /// Machine NIC.
    Nic,
    /// Intra-node NVLink fabric (scheduler falls back to NIC if absent).
    NvLink,
    /// A parameter-server node's NIC (round-robin over servers).
    ServerNic,
    /// A parameter-server node's DRAM.
    ServerDram,
}

/// One plannable unit of work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTask {
    /// Logical operator kind (drives categories and accounting).
    pub kind: OpKind,
    /// Resource this stage is bounded by.
    pub target: ResTarget,
    /// Work in the target's units (bytes or FLOPs), already derated.
    pub work: f64,
    /// Kernel/op launches this stage pays for.
    pub launches: u32,
}

impl StageTask {
    fn new(kind: OpKind, target: ResTarget, work: f64) -> StageTask {
        StageTask {
            kind,
            target,
            work: work.max(0.0),
            launches: kind.micro_ops(),
        }
    }
}

/// Cluster-shape context needed by the planners.
#[derive(Debug, Clone, Copy)]
pub struct PlanContext {
    /// Total executors.
    pub n_exec: usize,
    /// Executors per machine (NVLink domain size).
    pub per_node: usize,
    /// Whether the machine has an NVLink fabric.
    pub has_nvlink: bool,
    /// The training strategy.
    pub strategy: Strategy,
    /// Byte multiplier on collective payloads (0.5 under half-precision
    /// quantized communication, 1.0 otherwise).
    pub comm_scale: f64,
}

impl PlanContext {
    /// Full-precision context (tests and default paths).
    pub fn new(n_exec: usize, per_node: usize, has_nvlink: bool, strategy: Strategy) -> Self {
        PlanContext {
            n_exec,
            per_node,
            has_nvlink,
            strategy,
            comm_scale: 1.0,
        }
    }

    /// The cost-model context of `cfg`'s cluster under `strategy`.
    pub(crate) fn of(cfg: &SimConfig, strategy: Strategy) -> PlanContext {
        let per_node = cfg.machine.gpus_per_node.max(1);
        let mut ctx = PlanContext::new(
            (cfg.machines * per_node).max(1),
            per_node,
            cfg.machine.nvlink_bw.is_some(),
            strategy,
        );
        if cfg.quantized_comm {
            ctx.comm_scale = 0.5;
        }
        ctx
    }
}

/// Plans the forward embedding stages of one chain at `b` instances.
///
/// Returns the stages in dependency order; the index of the stage that
/// constitutes the chain's *communication* step (for K-interleaving group
/// gating) is returned alongside.
pub fn chain_forward(
    chain: &EmbeddingChain,
    b: usize,
    ctx: &PlanContext,
) -> (Vec<StageTask>, usize) {
    let ids = b as f64 * chain.ids_per_instance;
    let rows = ids * chain.unique_ratio;
    let row_bytes = chain.dim as f64 * 4.0;
    let mut stages = Vec::with_capacity(8);

    stages.push(StageTask::new(
        OpKind::Preprocess,
        ResTarget::Cpu,
        ids * PREPROCESS_FLOPS_PER_ID,
    ));
    if chain.fused_unique_partition {
        stages.push(StageTask::new(
            OpKind::UniquePartition,
            ResTarget::Dram,
            ids * 8.0 * 3.0,
        ));
    } else {
        stages.push(StageTask::new(
            OpKind::Unique,
            ResTarget::Dram,
            ids * 8.0 * 2.0,
        ));
        stages.push(StageTask::new(
            OpKind::Partition,
            ResTarget::Dram,
            ids * 8.0 * 2.0,
        ));
    }

    let comm_idx;
    match ctx.strategy.embedding_exchange() {
        EmbeddingExchange::ParameterServer => {
            // The server gathers rows from its DRAM and ships them through
            // its NIC; the worker receives on its own NIC. Server-side tasks
            // are planned here and placed on server resources by the
            // scheduler.
            let bytes = rows * row_bytes;
            let wire = bytes * ctx.comm_scale;
            stages.push(StageTask::new(
                OpKind::Gather,
                ResTarget::ServerDram,
                bytes * 2.0 / DRAM_RANDOM_EFF,
            ));
            comm_idx = stages.len();
            stages.push(StageTask::new(
                OpKind::PsPull,
                ResTarget::ServerNic,
                wire / NET_EFF,
            ));
            stages.push(StageTask::new(
                OpKind::PsPull,
                ResTarget::Nic,
                wire / NET_EFF,
            ));
            stages.push(StageTask::new(
                OpKind::HostToDevice,
                ResTarget::Pcie,
                bytes / PCIE_EFF,
            ));
        }
        EmbeddingExchange::Replicated => {
            // Lookups entirely local (tables replicated in host DRAM); the
            // full activation crosses PCIe. Gradient AllReduce carries the
            // sparse rows later.
            stages.push(StageTask::new(
                OpKind::Gather,
                ResTarget::Dram,
                rows * row_bytes * 2.0 / DRAM_RANDOM_EFF,
            ));
            comm_idx = stages.len();
            stages.push(StageTask::new(
                OpKind::HostToDevice,
                ResTarget::Pcie,
                rows * row_bytes / PCIE_EFF,
            ));
        }
        EmbeddingExchange::AllToAll => {
            // Hot rows served straight from device memory (HybridHash);
            // misses gathered from host DRAM and DMAed up.
            let hit = chain.cache_hit_ratio.clamp(0.0, 1.0);
            let hot_bytes = rows * hit * row_bytes;
            let cold_bytes = rows * (1.0 - hit) * row_bytes;
            if hot_bytes > 0.0 {
                // Hot-storage hits are served inside the same packed gather
                // kernel (HybridHash is not a separate graph operation), so
                // this stage adds no framework dispatches.
                let mut hot = StageTask::new(
                    OpKind::Gather,
                    ResTarget::GpuMem,
                    hot_bytes * 2.0 / HBM_RANDOM_EFF,
                );
                hot.launches = 1;
                stages.push(hot);
            }
            stages.push(StageTask::new(
                OpKind::Gather,
                ResTarget::Dram,
                cold_bytes * 2.0 / DRAM_RANDOM_EFF,
            ));
            stages.push(StageTask::new(
                OpKind::HostToDevice,
                ResTarget::Pcie,
                cold_bytes / PCIE_EFF,
            ));
            // AllToAllv of the remote share.
            let remote = collectives::alltoall_remote_bytes(rows * row_bytes, ctx.n_exec)
                * ctx.strategy.shuffle_imbalance()
                * ctx.comm_scale;
            let (nv, nic) = collectives::split_intra_inter(remote, ctx.n_exec, ctx.per_node);
            comm_idx = stages.len();
            let shuffle_kind = if chain.fused_shuffle_stitch {
                OpKind::ShuffleStitch
            } else {
                OpKind::Shuffle
            };
            if ctx.has_nvlink && ctx.strategy.uses_nvlink() && nv > 0.0 {
                stages.push(StageTask::new(shuffle_kind, ResTarget::NvLink, nv));
                stages.push(StageTask::new(shuffle_kind, ResTarget::Nic, nic / NET_EFF));
            } else {
                stages.push(StageTask::new(
                    shuffle_kind,
                    ResTarget::Nic,
                    (nv + nic) / NET_EFF,
                ));
            }
            if !chain.fused_shuffle_stitch {
                stages.push(StageTask::new(
                    OpKind::Stitch,
                    ResTarget::GpuMem,
                    rows * row_bytes * 2.0,
                ));
            }
        }
    }

    // Expand + pool on device.
    let expanded_bytes = ids * row_bytes;
    stages.push(StageTask::new(
        OpKind::SegmentReduce,
        ResTarget::GpuMem,
        expanded_bytes * 2.0,
    ));
    (stages, comm_idx)
}

/// Plans the backward embedding stages of one chain (gradient exchange and
/// sparse scatter).
pub fn chain_backward(chain: &EmbeddingChain, b: usize, ctx: &PlanContext) -> Vec<StageTask> {
    let ids = b as f64 * chain.ids_per_instance;
    let rows = ids * chain.unique_ratio;
    let row_bytes = chain.dim as f64 * 4.0;
    let mut stages = Vec::with_capacity(3);
    match ctx.strategy.embedding_exchange() {
        EmbeddingExchange::ParameterServer => {
            let wire = rows * row_bytes * ctx.comm_scale;
            stages.push(StageTask::new(
                OpKind::PsPush,
                ResTarget::Nic,
                wire / NET_EFF,
            ));
            stages.push(StageTask::new(
                OpKind::PsPush,
                ResTarget::ServerNic,
                wire / NET_EFF,
            ));
            stages.push(StageTask::new(
                OpKind::EmbeddingScatter,
                ResTarget::ServerDram,
                rows * row_bytes * 2.0 / DRAM_RANDOM_EFF,
            ));
        }
        EmbeddingExchange::Replicated => {
            // Sparse gradients ride the big AllReduce (planned separately);
            // here only the local scatter applies.
            stages.push(StageTask::new(
                OpKind::EmbeddingScatter,
                ResTarget::Dram,
                rows * row_bytes * 2.0 / DRAM_RANDOM_EFF,
            ));
        }
        EmbeddingExchange::AllToAll => {
            let remote = collectives::alltoall_remote_bytes(rows * row_bytes, ctx.n_exec)
                * ctx.strategy.shuffle_imbalance()
                * ctx.comm_scale;
            let (nv, nic) = collectives::split_intra_inter(remote, ctx.n_exec, ctx.per_node);
            if ctx.has_nvlink && ctx.strategy.uses_nvlink() && nv > 0.0 {
                stages.push(StageTask::new(OpKind::AllToAll, ResTarget::NvLink, nv));
                stages.push(StageTask::new(
                    OpKind::AllToAll,
                    ResTarget::Nic,
                    nic / NET_EFF,
                ));
            } else {
                stages.push(StageTask::new(
                    OpKind::AllToAll,
                    ResTarget::Nic,
                    (nv + nic) / NET_EFF,
                ));
            }
            let hit = chain.cache_hit_ratio.clamp(0.0, 1.0);
            stages.push(StageTask::new(
                OpKind::EmbeddingScatter,
                ResTarget::Dram,
                rows * (1.0 - hit) * row_bytes * 2.0 / DRAM_RANDOM_EFF,
            ));
            if hit > 0.0 {
                let mut hot = StageTask::new(
                    OpKind::EmbeddingScatter,
                    ResTarget::GpuMem,
                    rows * hit * row_bytes * 2.0 / HBM_RANDOM_EFF,
                );
                hot.launches = 1;
                stages.push(hot);
            }
        }
    }
    stages
}

/// Forward compute of one interaction module at `b` instances.
pub fn module_forward(m: &InteractionModule, b: usize) -> StageTask {
    StageTask {
        kind: OpKind::InteractionCompute,
        target: ResTarget::GpuSm,
        work: b as f64 * m.flops_per_instance / GPU_EFF,
        launches: m.micro_ops_forward,
    }
}

/// Backward compute of one interaction module.
pub fn module_backward(m: &InteractionModule, b: usize) -> StageTask {
    StageTask {
        kind: OpKind::InteractionCompute,
        target: ResTarget::GpuSm,
        work: b as f64 * m.flops_per_instance * BACKWARD_FLOP_FACTOR / GPU_EFF,
        launches: (m.micro_ops_forward as f64 * OpKind::BACKWARD_OP_FACTOR) as u32,
    }
}

/// Forward MLP compute.
pub fn mlp_forward(mlp: &MlpSpec, b: usize) -> StageTask {
    StageTask {
        kind: OpKind::MlpCompute,
        target: ResTarget::GpuSm,
        work: b as f64 * mlp.flops_per_instance / GPU_EFF,
        launches: mlp.depth() as u32 * OpKind::MlpCompute.micro_ops(),
    }
}

/// Backward MLP compute.
pub fn mlp_backward(mlp: &MlpSpec, b: usize) -> StageTask {
    let mut t = mlp_forward(mlp, b);
    t.work *= BACKWARD_FLOP_FACTOR;
    t.launches = (t.launches as f64 * OpKind::BACKWARD_OP_FACTOR) as u32;
    t
}

/// Dense-parameter synchronization stages, once per iteration per executor.
/// `sparse_grad_bytes` is nonzero only under pure data parallelism, where
/// embedding gradients ride the AllReduce too.
pub fn dense_sync_stages(
    dense_params: f64,
    sparse_grad_bytes: f64,
    ctx: &PlanContext,
) -> Vec<StageTask> {
    let dense_bytes = dense_params * 4.0;
    let mut stages = Vec::new();
    match ctx.strategy.dense_sync() {
        crate::strategy::DenseSync::AllReduce => {
            let payload = (dense_bytes + sparse_grad_bytes) * ctx.comm_scale;
            let per_worker = collectives::allreduce_bytes_per_worker(payload, ctx.n_exec);
            let (nv, nic) = collectives::split_intra_inter(per_worker, ctx.n_exec, ctx.per_node);
            if ctx.has_nvlink && nv > 0.0 {
                stages.push(StageTask::new(OpKind::AllReduce, ResTarget::NvLink, nv));
                stages.push(StageTask::new(
                    OpKind::AllReduce,
                    ResTarget::Nic,
                    nic / NET_EFF,
                ));
            } else if per_worker > 0.0 {
                stages.push(StageTask::new(
                    OpKind::AllReduce,
                    ResTarget::Nic,
                    per_worker / NET_EFF,
                ));
            }
        }
        crate::strategy::DenseSync::ParameterServer => {
            stages.push(StageTask::new(
                OpKind::PsPull,
                ResTarget::Nic,
                dense_bytes / NET_EFF,
            ));
            stages.push(StageTask::new(
                OpKind::PsPull,
                ResTarget::ServerNic,
                dense_bytes / NET_EFF,
            ));
            stages.push(StageTask::new(
                OpKind::PsPush,
                ResTarget::Nic,
                dense_bytes / NET_EFF,
            ));
            stages.push(StageTask::new(
                OpKind::PsPush,
                ResTarget::ServerNic,
                dense_bytes / NET_EFF,
            ));
        }
    }
    stages.push(StageTask::new(
        OpKind::OptimizerApply,
        ResTarget::GpuSm,
        dense_params * 4.0 / GPU_EFF,
    ));
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use picasso_graph::EmbeddingChain;

    fn ctx(strategy: Strategy, n: usize, per_node: usize, nvlink: bool) -> PlanContext {
        PlanContext::new(n, per_node, nvlink, strategy)
    }

    fn chain() -> EmbeddingChain {
        let mut c = EmbeddingChain::for_table(0, 16, vec![0, 1], 10.0);
        c.unique_ratio = 0.5;
        c
    }

    #[test]
    fn hybrid_chain_has_alltoall_comm() {
        let (stages, comm) = chain_forward(&chain(), 1000, &ctx(Strategy::Hybrid, 4, 1, false));
        assert_eq!(stages[comm].kind, OpKind::Shuffle);
        assert_eq!(stages[comm].target, ResTarget::Nic);
        // 1000 inst x 10 ids x 0.5 unique x 64B x 3/4 remote / NET_EFF
        let want = 5000.0 * 64.0 * 0.75 / NET_EFF;
        assert!((stages[comm].work - want).abs() < 1.0);
    }

    #[test]
    fn fused_chain_emits_fewer_stages() {
        let mut c = chain();
        let (plain, _) = chain_forward(&c, 100, &ctx(Strategy::Hybrid, 4, 1, false));
        c.fused_unique_partition = true;
        c.fused_shuffle_stitch = true;
        let (fused, _) = chain_forward(&c, 100, &ctx(Strategy::Hybrid, 4, 1, false));
        assert!(fused.len() < plain.len());
        let launches = |v: &[StageTask]| v.iter().map(|s| s.launches as u64).sum::<u64>();
        assert!(launches(&fused) < launches(&plain));
    }

    #[test]
    fn cache_moves_gather_to_device_memory() {
        let mut c = chain();
        c.cache_hit_ratio = 0.8;
        let (stages, _) = chain_forward(&c, 1000, &ctx(Strategy::Hybrid, 4, 1, false));
        let hbm: f64 = stages
            .iter()
            .filter(|s| s.target == ResTarget::GpuMem && s.kind == OpKind::Gather)
            .map(|s| s.work)
            .sum();
        let pcie: f64 = stages
            .iter()
            .filter(|s| s.target == ResTarget::Pcie)
            .map(|s| s.work)
            .sum();
        let (no_cache, _) = chain_forward(&chain(), 1000, &ctx(Strategy::Hybrid, 4, 1, false));
        let pcie0: f64 = no_cache
            .iter()
            .filter(|s| s.target == ResTarget::Pcie)
            .map(|s| s.work)
            .sum();
        assert!(hbm > 0.0);
        assert!(pcie < pcie0 * 0.3, "cache should slash PCIe traffic");
    }

    #[test]
    fn ps_chain_routes_through_server() {
        let (stages, comm) = chain_forward(
            &chain(),
            100,
            &ctx(Strategy::PsAsync { servers: 1 }, 4, 1, false),
        );
        assert!(stages.iter().any(|s| s.target == ResTarget::ServerNic));
        assert!(stages.iter().any(|s| s.target == ResTarget::ServerDram));
        assert_eq!(stages[comm].kind, OpKind::PsPull);
    }

    #[test]
    fn single_node_nvlink_carries_shuffle() {
        let (stages, _) = chain_forward(&chain(), 100, &ctx(Strategy::Hybrid, 8, 8, true));
        let nv: f64 = stages
            .iter()
            .filter(|s| s.target == ResTarget::NvLink)
            .map(|s| s.work)
            .sum();
        let nic: f64 = stages
            .iter()
            .filter(|s| s.target == ResTarget::Nic)
            .map(|s| s.work)
            .sum();
        assert!(nv > 0.0);
        assert_eq!(nic, 0.0, "all peers are local");
    }

    #[test]
    fn dp_chain_is_local_but_allreduce_is_heavy() {
        let c = chain();
        let (stages, _) = chain_forward(&c, 100, &ctx(Strategy::DataParallel, 4, 1, false));
        assert!(stages.iter().all(|s| s.target != ResTarget::Nic));
        let sync = dense_sync_stages(1e6, 5e6, &ctx(Strategy::DataParallel, 4, 1, false));
        let nic: f64 = sync
            .iter()
            .filter(|s| s.target == ResTarget::Nic)
            .map(|s| s.work)
            .sum();
        assert!(nic > 5e6, "sparse grads dominate the DP allreduce");
    }

    #[test]
    fn backward_mirrors_forward_comm() {
        let c = chain();
        let cx = ctx(Strategy::Hybrid, 4, 1, false);
        let bwd = chain_backward(&c, 1000, &cx);
        assert!(bwd.iter().any(|s| s.kind == OpKind::AllToAll));
        assert!(bwd.iter().any(|s| s.kind == OpKind::EmbeddingScatter));
    }

    #[test]
    fn ps_dense_sync_hits_server_nic_twice() {
        let sync = dense_sync_stages(
            1e6,
            0.0,
            &ctx(Strategy::PsAsync { servers: 1 }, 4, 1, false),
        );
        let server_tasks = sync
            .iter()
            .filter(|s| s.target == ResTarget::ServerNic)
            .count();
        assert_eq!(server_tasks, 2, "pull and push");
    }

    #[test]
    fn quantized_comm_halves_wire_bytes() {
        let mut q = ctx(Strategy::Hybrid, 4, 1, false);
        q.comm_scale = 0.5;
        let (full, ci) = chain_forward(&chain(), 1000, &ctx(Strategy::Hybrid, 4, 1, false));
        let (half, _) = chain_forward(&chain(), 1000, &q);
        assert!((half[ci].work - full[ci].work * 0.5).abs() < 1.0);
        // Memory-side work is precision-preserving and unchanged.
        assert_eq!(half[1].work, full[1].work);
    }

    #[test]
    fn module_backward_is_heavier() {
        let m = picasso_graph::InteractionModule {
            kind: picasso_graph::ModuleKind::DnnTower,
            input_fields: vec![0],
            flops_per_instance: 1000.0,
            bytes_per_instance: 10.0,
            params: 10.0,
            output_width: 8,
            micro_ops_forward: 10,
        };
        let f = module_forward(&m, 100);
        let b = module_backward(&m, 100);
        assert!(b.work > f.work);
        assert!(b.launches > f.launches);
    }

    #[test]
    fn single_executor_has_no_comm() {
        let (stages, _) = chain_forward(&chain(), 100, &ctx(Strategy::Hybrid, 1, 1, false));
        let nic: f64 = stages
            .iter()
            .filter(|s| s.target == ResTarget::Nic)
            .map(|s| s.work)
            .sum();
        assert_eq!(nic, 0.0);
        let sync = dense_sync_stages(1e6, 0.0, &ctx(Strategy::Hybrid, 1, 1, false));
        assert!(sync.iter().all(|s| s.target != ResTarget::Nic));
    }
}
