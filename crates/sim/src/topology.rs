//! Cluster topology: machine specifications and resource construction.
//!
//! Mirrors Table I of the paper. A *machine* (cluster node) hosts one or more
//! GPUs; each GPU plus its share of host resources forms one executor slot
//! (a PICASSO-Executor maps onto one machine in the paper, but contention is
//! per device, so we expose per-GPU handles and share NIC/DRAM/NVLink per
//! machine). Parameter-server strategies additionally use CPU-only server
//! nodes.

use crate::engine::{Engine, EngineError};
use crate::resource::{CongestionSpec, ResourceId, ResourceKind, ResourceSpec};
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Per-operation fixed overheads for each resource class.
///
/// These model CUDA kernel-launch latency, DMA setup, and RPC/message setup —
/// the costs that make fragmentary operations expensive and that packing
/// amortizes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadSpec {
    /// GPU kernel launch (issue to a CUDA stream + driver overhead).
    pub gpu_kernel: SimDuration,
    /// PCIe / NVLink DMA transfer setup.
    pub dma_setup: SimDuration,
    /// Network message setup (higher for TCP, lower for RDMA).
    pub net_msg: SimDuration,
    /// Host-side memory operation setup.
    pub dram_op: SimDuration,
    /// Host CPU task dispatch.
    pub cpu_op: SimDuration,
    /// Framework-level operation dispatch: the time the training runtime's
    /// executor threads spend scheduling ONE graph operation (TensorFlow
    /// executor + kernel launch path). With up to hundreds of thousands of
    /// operations per iteration (Table V) this serialized cost dominates
    /// unpacked WDL graphs — it is precisely what D-/K-packing amortize.
    pub op_dispatch: SimDuration,
}

impl OverheadSpec {
    /// Overheads typical of a TCP-connected commodity node.
    pub fn tcp() -> Self {
        OverheadSpec {
            gpu_kernel: SimDuration::from_micros(10),
            dma_setup: SimDuration::from_micros(8),
            net_msg: SimDuration::from_micros(30),
            dram_op: SimDuration::from_micros(2),
            cpu_op: SimDuration::from_micros(1),
            op_dispatch: SimDuration::from_micros(12),
        }
    }

    /// Overheads with an RDMA-capable NIC.
    pub fn rdma() -> Self {
        OverheadSpec {
            net_msg: SimDuration::from_micros(5),
            ..OverheadSpec::tcp()
        }
    }
}

/// One GPU device.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GpuSpec {
    /// Single-precision throughput, FLOPS.
    pub sm_flops: f64,
    /// Concurrent CUDA streams modeled as parallel channels.
    pub streams: usize,
    /// Device memory (HBM) capacity in bytes.
    pub mem_capacity: u64,
    /// Device memory bandwidth, bytes/s.
    pub mem_bw: f64,
}

impl GpuSpec {
    /// NVIDIA Tesla V100 (32 GB HBM2), per Table I.
    pub fn v100() -> Self {
        GpuSpec {
            sm_flops: 15.7e12,
            streams: 1,
            mem_capacity: 32 * (1 << 30),
            mem_bw: 900e9,
        }
    }
}

impl MachineSpec {
    /// Burst-congestion of the machine's NIC: TCP suffers incast collapse
    /// far more than RDMA. `None` when congestion modeling is disabled.
    pub fn nic_congestion(&self) -> Option<CongestionSpec> {
        if !self.burst_congestion {
            return None;
        }
        Some(if self.rdma {
            CongestionSpec {
                alpha: 0.6,
                tau: SimDuration::from_millis(2),
            }
        } else {
            CongestionSpec {
                alpha: 1.2,
                tau: SimDuration::from_millis(2),
            }
        })
    }

    /// Burst-congestion of a PCIe link under concurrent DMA.
    pub fn pcie_congestion(&self) -> Option<CongestionSpec> {
        if !self.burst_congestion {
            return None;
        }
        Some(CongestionSpec {
            alpha: 0.5,
            tau: SimDuration::from_millis(1),
        })
    }

    /// Disables burst-congestion modeling (design-choice ablation).
    pub fn without_congestion(mut self) -> MachineSpec {
        self.burst_congestion = false;
        self
    }

    /// Zeroes the framework op-dispatch cost (design-choice ablation).
    pub fn without_dispatch_cost(mut self) -> MachineSpec {
        self.overheads.op_dispatch = SimDuration::ZERO;
        self
    }
}

/// One machine (cluster node), per Table I.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Human-readable cluster name.
    pub name: String,
    /// GPUs per node (Gn6e: 8; EFLOPS: 1).
    pub gpus_per_node: usize,
    /// GPU device spec.
    pub gpu: GpuSpec,
    /// Effective host CPU throughput, FLOPS (the paper cites a 30x SP gap
    /// between V100 and a Xeon socket).
    pub cpu_flops: f64,
    /// Host DRAM capacity in bytes.
    pub dram_capacity: u64,
    /// Host DRAM bandwidth, bytes/s.
    pub dram_bw: f64,
    /// PCIe bandwidth per GPU, bytes/s.
    pub pcie_bw: f64,
    /// NVLink fabric bandwidth per machine, bytes/s (None if absent).
    pub nvlink_bw: Option<f64>,
    /// NIC bandwidth per machine, bytes/s.
    pub nic_bw: f64,
    /// Whether the NIC supports RDMA (affects message overhead).
    pub rdma: bool,
    /// Whether interconnects model burst congestion (disable to ablate the
    /// design choice; see DESIGN.md).
    pub burst_congestion: bool,
    /// Per-operation overheads.
    pub overheads: OverheadSpec,
}

impl MachineSpec {
    /// AliCloud Gn6e node: 8x V100-SXM2 with NVLink, 724 GB DDR4, 32 Gbps TCP.
    pub fn gn6e() -> Self {
        MachineSpec {
            name: "gn6e".into(),
            gpus_per_node: 8,
            gpu: GpuSpec::v100(),
            cpu_flops: 0.5e12,
            dram_capacity: 724 * (1 << 30),
            dram_bw: 100e9,
            pcie_bw: 16e9,
            nvlink_bw: Some(300e9),
            nic_bw: 4e9, // 32 Gbps
            rdma: false,
            burst_congestion: true,
            overheads: OverheadSpec::tcp(),
        }
    }

    /// EFLOPS node: 1x V100S-PCIe, 512 GB DDR4, 100 Gbps RDMA.
    pub fn eflops() -> Self {
        MachineSpec {
            name: "eflops".into(),
            gpus_per_node: 1,
            gpu: GpuSpec::v100(),
            cpu_flops: 0.55e12,
            dram_capacity: 512 * (1 << 30),
            dram_bw: 100e9,
            pcie_bw: 16e9,
            nvlink_bw: None,
            nic_bw: 12.5e9, // 100 Gbps
            rdma: true,
            burst_congestion: true,
            overheads: OverheadSpec::rdma(),
        }
    }
}

/// A CPU-only parameter-server node (same host platform, no GPU).
#[derive(Debug, Clone)]
pub struct ServerHandles {
    /// Host CPU resource.
    pub cpu: ResourceId,
    /// Host DRAM bandwidth resource.
    pub dram: ResourceId,
    /// NIC resource (workers pulling/pushing contend here).
    pub nic: ResourceId,
}

/// Resource handles of one executor slot (one GPU worker).
#[derive(Debug, Clone)]
pub struct ExecutorHandles {
    /// Machine index this executor lives on.
    pub node: usize,
    /// GPU streaming multiprocessors.
    pub gpu_sm: ResourceId,
    /// GPU device memory bandwidth.
    pub gpu_mem: ResourceId,
    /// PCIe link of this GPU.
    pub pcie: ResourceId,
    /// Host DRAM bandwidth (shared per machine).
    pub dram: ResourceId,
    /// Host CPU (shared per machine).
    pub cpu: ResourceId,
    /// Machine NIC (shared per machine).
    pub nic: ResourceId,
    /// NVLink fabric (shared per machine), if present.
    pub nvlink: Option<ResourceId>,
    /// The framework's op-dispatch threads for this executor (work units
    /// are seconds; rate 1.0).
    pub launcher: ResourceId,
}

/// A cluster's worth of resources registered in an engine.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Machine spec used for every node.
    pub machine: MachineSpec,
    /// One handle set per executor (machines x gpus_per_node).
    pub executors: Vec<ExecutorHandles>,
    /// Parameter-server nodes (empty unless a PS strategy is in use).
    pub servers: Vec<ServerHandles>,
}

impl Cluster {
    /// Registers `machines` worker machines (each contributing
    /// `machine.gpus_per_node` executors) and `ps_servers` CPU-only server
    /// nodes into `engine`. A cluster without executors (no machine, or
    /// machines without GPUs) is [`EngineError::EmptyCluster`], and nothing
    /// is registered.
    pub fn build(
        machine: MachineSpec,
        machines: usize,
        ps_servers: usize,
        engine: &mut Engine,
    ) -> Result<Cluster, EngineError> {
        if machines == 0 || machine.gpus_per_node == 0 {
            return Err(EngineError::EmptyCluster {
                machines,
                gpus_per_node: machine.gpus_per_node,
            });
        }
        let mut executors = Vec::with_capacity(machines * machine.gpus_per_node);
        for m in 0..machines {
            let dram = engine.add_resource(
                ResourceSpec::new(
                    format!("node{m}/dram"),
                    ResourceKind::DramBw,
                    machine.dram_bw,
                    m,
                )
                .with_launch_overhead(machine.overheads.dram_op),
            );
            let cpu = engine.add_resource(
                ResourceSpec::new(
                    format!("node{m}/cpu"),
                    ResourceKind::HostCpu,
                    machine.cpu_flops,
                    m,
                )
                .with_channels(4)
                .with_launch_overhead(machine.overheads.cpu_op),
            );
            let nic = engine.add_resource(
                ResourceSpec::new(
                    format!("node{m}/nic"),
                    ResourceKind::Network,
                    machine.nic_bw,
                    m,
                )
                .with_launch_overhead(machine.overheads.net_msg)
                .with_congestion_opt(machine.nic_congestion()),
            );
            let nvlink = machine.nvlink_bw.map(|bw| {
                engine.add_resource(
                    ResourceSpec::new(format!("node{m}/nvlink"), ResourceKind::NvLink, bw, m)
                        .with_channels(machine.gpus_per_node)
                        .with_launch_overhead(machine.overheads.dma_setup),
                )
            });
            for g in 0..machine.gpus_per_node {
                let launcher = engine.add_resource(
                    ResourceSpec::new(
                        format!("node{m}/gpu{g}/launcher"),
                        ResourceKind::HostCpu,
                        1.0,
                        m,
                    )
                    .with_channels(2),
                );
                let gpu_sm = engine.add_resource(
                    ResourceSpec::new(
                        format!("node{m}/gpu{g}/sm"),
                        ResourceKind::GpuSm,
                        machine.gpu.sm_flops,
                        m,
                    )
                    .with_channels(machine.gpu.streams)
                    .with_launch_overhead(machine.overheads.gpu_kernel),
                );
                let gpu_mem = engine.add_resource(
                    ResourceSpec::new(
                        format!("node{m}/gpu{g}/hbm"),
                        ResourceKind::GpuMem,
                        machine.gpu.mem_bw,
                        m,
                    )
                    .with_launch_overhead(machine.overheads.gpu_kernel),
                );
                let pcie = engine.add_resource(
                    ResourceSpec::new(
                        format!("node{m}/gpu{g}/pcie"),
                        ResourceKind::Pcie,
                        machine.pcie_bw,
                        m,
                    )
                    .with_launch_overhead(machine.overheads.dma_setup)
                    .with_congestion_opt(machine.pcie_congestion()),
                );
                executors.push(ExecutorHandles {
                    node: m,
                    gpu_sm,
                    gpu_mem,
                    pcie,
                    dram,
                    cpu,
                    nic,
                    nvlink,
                    launcher,
                });
            }
        }

        let mut servers = Vec::with_capacity(ps_servers);
        for s in 0..ps_servers {
            let node = machines + s;
            let cpu = engine.add_resource(
                ResourceSpec::new(
                    format!("ps{s}/cpu"),
                    ResourceKind::HostCpu,
                    machine.cpu_flops,
                    node,
                )
                .with_channels(8)
                .with_launch_overhead(machine.overheads.cpu_op),
            );
            let dram = engine.add_resource(
                ResourceSpec::new(
                    format!("ps{s}/dram"),
                    ResourceKind::DramBw,
                    machine.dram_bw,
                    node,
                )
                .with_launch_overhead(machine.overheads.dram_op),
            );
            let nic = engine.add_resource(
                ResourceSpec::new(
                    format!("ps{s}/nic"),
                    ResourceKind::Network,
                    machine.nic_bw,
                    node,
                )
                .with_launch_overhead(machine.overheads.net_msg)
                .with_congestion_opt(machine.nic_congestion()),
            );
            servers.push(ServerHandles { cpu, dram, nic });
        }

        Ok(Cluster {
            machine,
            executors,
            servers,
        })
    }

    /// Number of executors (GPU workers).
    pub fn executor_count(&self) -> usize {
        self.executors.len()
    }

    /// Resource handles of every parameter-server node, flattened in
    /// registration order. This is the precomputed handle set consumers
    /// filter by instead of matching on `"ps<N>/..."` name prefixes.
    pub fn server_resource_ids(&self) -> Vec<ResourceId> {
        self.servers
            .iter()
            .flat_map(|s| [s.cpu, s.dram, s.nic])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gn6e_matches_table_one() {
        let m = MachineSpec::gn6e();
        assert_eq!(m.gpus_per_node, 8);
        assert!(m.nvlink_bw.is_some());
        assert!(!m.rdma);
        assert_eq!(m.gpu.mem_capacity, 32 * (1 << 30));
        // 32 Gbps = 4 GB/s
        assert!((m.nic_bw - 4e9).abs() < 1.0);
    }

    #[test]
    fn eflops_matches_table_one() {
        let m = MachineSpec::eflops();
        assert_eq!(m.gpus_per_node, 1);
        assert!(m.nvlink_bw.is_none());
        assert!(m.rdma);
        assert!((m.nic_bw - 12.5e9).abs() < 1.0);
        assert!(m.overheads.net_msg < MachineSpec::gn6e().overheads.net_msg);
    }

    #[test]
    fn cluster_builds_executor_grid() {
        let mut e = Engine::new();
        let c = Cluster::build(MachineSpec::gn6e(), 2, 0, &mut e).unwrap();
        assert_eq!(c.executor_count(), 16);
        assert_eq!(c.executors[0].node, c.executors[7].node);
        assert_ne!(c.executors[0].node, c.executors[8].node);
        // Executors on one machine share dram/cpu/nic/nvlink.
        assert_eq!(c.executors[0].nic, c.executors[7].nic);
        assert_ne!(c.executors[0].nic, c.executors[8].nic);
        assert_eq!(c.executors[0].nvlink, c.executors[1].nvlink);
        assert_ne!(c.executors[0].gpu_sm, c.executors[1].gpu_sm);
    }

    #[test]
    fn eflops_cluster_has_no_nvlink() {
        let mut e = Engine::new();
        let c = Cluster::build(MachineSpec::eflops(), 4, 0, &mut e).unwrap();
        assert_eq!(c.executor_count(), 4);
        assert!(c.executors.iter().all(|x| x.nvlink.is_none()));
    }

    #[test]
    fn ps_servers_are_built() {
        let mut e = Engine::new();
        let c = Cluster::build(MachineSpec::eflops(), 2, 1, &mut e).unwrap();
        assert_eq!(c.servers.len(), 1);
        let nic = c.servers[0].nic;
        assert_eq!(e.resource_spec(nic).kind, ResourceKind::Network);
        assert_eq!(
            e.resource_spec(nic).node,
            2,
            "server occupies the next node index"
        );
    }

    #[test]
    fn zero_machines_rejected() {
        let mut e = Engine::new();
        let err = Cluster::build(MachineSpec::eflops(), 0, 0, &mut e).unwrap_err();
        assert_eq!(
            err,
            EngineError::EmptyCluster {
                machines: 0,
                gpus_per_node: 1
            }
        );
    }

    #[test]
    fn machines_without_gpus_are_rejected() {
        let mut e = Engine::new();
        let machine = MachineSpec {
            gpus_per_node: 0,
            ..MachineSpec::gn6e()
        };
        let err = Cluster::build(machine, 2, 1, &mut e).unwrap_err();
        assert_eq!(
            err,
            EngineError::EmptyCluster {
                machines: 2,
                gpus_per_node: 0
            }
        );
        assert!(err.to_string().contains("no executor"), "{err}");
    }

    #[test]
    fn v100_flops_ratio_to_cpu_is_about_30x() {
        let m = MachineSpec::eflops();
        let ratio = m.gpu.sm_flops / m.cpu_flops;
        assert!(
            (25.0..35.0).contains(&ratio),
            "paper cites ~30x V100-to-CPU SP gap, got {ratio}"
        );
    }
}
