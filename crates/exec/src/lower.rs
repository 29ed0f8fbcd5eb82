//! The one lowering of a spec onto stages.
//!
//! [`Lowering`] builds the [`StageGraph`] of one executor running one
//! micro-batch: the data load first, the grouped embedding forward with the
//! Fig. 8c comm gate and the declared group dependencies, the interaction
//! modules, the MLP, the backward mirror, and the dense sync last. Each node
//! carries its [`StageTask`] and its mechanically derived effect set.
//!
//! The stage and race rules check this graph ([`mod@crate::lint`]), serving
//! keeps its forward half ([`crate::serving`]), and the scheduler replays it
//! once per executor and micro-batch ([`crate::scheduler::simulate`]). Node
//! and edge insertion order is part of the contract: race digests hash node
//! indices, and the scheduler creates tasks in node order.

use crate::costs::{self, PlanContext, ResTarget, StageTask};
use crate::scheduler::{split_batch, SimConfig};
use crate::strategy::Strategy;
use picasso_graph::{OpKind, WdlSpec};
use picasso_lint::{csr, EffectSet, Resource, ResourceKind, StageFusion, StageGraph, StageNode};
use std::ops::Range;

/// How the scheduler replays one edge of the lowered graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum EdgeKind {
    /// Lowering wiring, replayed as is.
    #[default]
    Wiring,
    /// A declared `group_deps` edge from an earlier K-group, replayed once
    /// even when the wiring already carries it.
    Declared,
    /// A declared self or backward `group_deps` edge. It stays in the graph
    /// so the cycle rule can reject it, and is never scheduled.
    Refused,
}

/// The stage graph of one executor running one micro-batch of `b`
/// instances, with the hooks the scheduler replays it through.
#[derive(Default)]
pub(crate) struct Lowering {
    /// The graph: load first, dense sync last.
    pub g: StageGraph,
    /// The stage behind each node.
    pub tasks: Vec<StageTask>,
    /// How the scheduler replays each edge of `g.edges`, in edge order.
    edge_kinds: Vec<EdgeKind>,
    /// Node `n`'s in-edges are `in_list[in_at[n]..in_at[n + 1]]`, in edge
    /// order: the source node and how the scheduler replays the edge.
    /// Indexed once the graph is complete.
    in_at: Vec<usize>,
    in_list: Vec<(usize, EdgeKind)>,
    /// Per node, the chain whose forward stages it starts.
    pub chain_start: Vec<Option<usize>>,
    /// Per chain, its communication node: the same chain's lookups in the
    /// next micro-batch wait for it.
    pub chain_comm: Vec<usize>,
    /// Node range of each K-group's forward chain stages.
    pub groups: Vec<Range<usize>>,
    /// One past the MLP forward node: the serving graph's length.
    pub forward_end: usize,
    /// The first dense-sync node.
    pub sync_start: usize,
    /// Instances the micro-batch stages were costed at.
    pub b: usize,
}

impl Lowering {
    /// The lowering at the first micro-batch's size, the one the stage
    /// rules check.
    pub fn first(spec: &WdlSpec, strategy: Strategy, cfg: &SimConfig) -> Lowering {
        let micro = spec.micro_batches.max(1);
        Lowering::new(
            spec,
            strategy,
            cfg,
            split_batch(cfg.batch_per_executor, micro, 0).max(1),
        )
    }

    /// Lowers `spec` for one micro-batch of `b` instances. The load and the
    /// dense sync are sized by the whole per-executor batch.
    pub fn new(spec: &WdlSpec, strategy: Strategy, cfg: &SimConfig, b: usize) -> Lowering {
        let ctx = PlanContext::of(cfg, strategy);
        let mut l = Lowering {
            chain_comm: vec![0; spec.chains.len()],
            b,
            ..Lowering::default()
        };

        // Chains ordered into K-interleaving groups.
        let n_groups = spec.group_count().max(1);
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        for (i, c) in spec.chains.iter().enumerate() {
            groups[(c.group as usize).min(n_groups - 1)].push(i);
        }

        // field -> chain and chain -> consuming modules. A module field no
        // chain owns contributes no edge.
        let max_field = spec
            .chains
            .iter()
            .flat_map(|c| c.fields.iter())
            .copied()
            .max()
            .map(|f| f as usize + 1)
            .unwrap_or(0);
        let mut field_chain = vec![usize::MAX; max_field];
        for (i, c) in spec.chains.iter().enumerate() {
            for &f in &c.fields {
                field_chain[f as usize] = i;
            }
        }
        let mut chain_consumers: Vec<Vec<usize>> = vec![Vec::new(); spec.chains.len()];
        let mut module_chains: Vec<Vec<usize>> = Vec::with_capacity(spec.modules.len());
        for (mi, m) in spec.modules.iter().enumerate() {
            let mut chains: Vec<usize> = m
                .input_fields
                .iter()
                .filter_map(|&f| field_chain.get(f as usize).copied())
                .filter(|&c| c != usize::MAX)
                .collect();
            chains.sort_unstable();
            chains.dedup();
            for &c in &chains {
                chain_consumers[c].push(mi);
            }
            module_chains.push(chains);
        }

        let io = StageTask {
            kind: OpKind::DataLoad,
            target: ResTarget::Nic,
            work: cfg.batch_per_executor as f64 * spec.io_bytes_per_instance / costs::NET_EFF,
            launches: OpKind::DataLoad.micro_ops(),
        };
        let load = l.push(
            StageNode::new("load", "DataLoad", "io", io.work, io.launches)
                .entry()
                .with_effects(stage_effects(io.kind, io.target, EffectScope::Io)),
            io,
        );

        // Embedding forward, group by group, with the Fig. 8c comm gate.
        let mut chain_last: Vec<Option<usize>> = vec![None; spec.chains.len()];
        let mut group_comm: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        let mut gate: Vec<usize> = Vec::new();
        for (gi, group) in groups.iter().enumerate() {
            let group_start = l.tasks.len();
            let mut next_gate: Vec<usize> = Vec::new();
            for &ci in group {
                let chain = &spec.chains[ci];
                let (stages, comm_idx) = costs::chain_forward(chain, b, &ctx);
                let mut fused_unique: Vec<usize> = Vec::new();
                let mut fused_shuffle: Vec<usize> = Vec::new();
                let mut prev: Option<usize> = None;
                for (si, st) in stages.iter().enumerate() {
                    let node = l.stage(format!("chain{ci}/f{si}"), st, EffectScope::Chain(ci));
                    match prev {
                        Some(p) => l.dep(p, node),
                        None => {
                            l.dep(load, node);
                            l.chain_start[node] = Some(ci);
                        }
                    }
                    // K-interleaving (Fig. 8c): only the *communication*
                    // step is ordered behind the previous group's
                    // communication, so the interconnect sees paced, not
                    // bursty, arrivals.
                    if si == comm_idx {
                        l.chain_comm[ci] = node;
                        if !chain.interleave_excluded {
                            for &t in &gate {
                                l.dep(t, node);
                            }
                            next_gate.push(node);
                        }
                    }
                    match st.kind {
                        OpKind::UniquePartition => fused_unique.push(node),
                        OpKind::ShuffleStitch => fused_shuffle.push(node),
                        _ => {}
                    }
                    prev = Some(node);
                }
                chain_last[ci] = prev;
                for (label, nodes) in [
                    ("unique_partition", fused_unique),
                    ("shuffle_stitch", fused_shuffle),
                ] {
                    if !nodes.is_empty() {
                        l.g.fusions.push(StageFusion {
                            label: format!("chain{ci}/{label}"),
                            nodes,
                        });
                    }
                }
            }
            l.groups.push(group_start..l.tasks.len());
            group_comm[gi] = next_gate.clone();
            if !next_gate.is_empty() {
                gate = next_gate;
            }
        }
        // Declared inter-group dependencies, verbatim: a backward or self edge
        // combined with the implicit stagger closes a cycle the analyzer must
        // see, so no direction filtering happens here.
        for &(from, to) in &spec.group_deps {
            let (from, to) = (from as usize, to as usize);
            if from >= n_groups || to >= n_groups {
                continue;
            }
            let kind = if from < to {
                EdgeKind::Declared
            } else {
                EdgeKind::Refused
            };
            for &f in &group_comm[from] {
                for &t in &group_comm[to] {
                    l.edge(f, t, kind);
                }
            }
        }

        // Interaction modules.
        let mut module_fwd: Vec<usize> = Vec::with_capacity(spec.modules.len());
        for (mi, module) in spec.modules.iter().enumerate() {
            let node = l.stage(
                format!("module{mi}/fwd"),
                &costs::module_forward(module, b),
                EffectScope::Dense,
            );
            let deps: Vec<usize> = module_chains[mi]
                .iter()
                .filter_map(|&c| chain_last[c])
                .collect();
            if deps.is_empty() {
                l.dep(load, node);
            }
            for d in deps {
                l.dep(d, node);
            }
            module_fwd.push(node);
        }

        // MLP forward + backward.
        let fwd = l.stage(
            "mlp/fwd".into(),
            &costs::mlp_forward(&spec.mlp, b),
            EffectScope::Dense,
        );
        let fwd_deps: Vec<usize> = if module_fwd.is_empty() {
            chain_last.iter().filter_map(|&t| t).collect()
        } else {
            module_fwd
        };
        if fwd_deps.is_empty() {
            l.dep(load, fwd);
        }
        for d in fwd_deps {
            l.dep(d, fwd);
        }
        l.forward_end = fwd + 1;
        let bwd = l.stage(
            "mlp/bwd".into(),
            &costs::mlp_backward(&spec.mlp, b),
            EffectScope::Dense,
        );
        l.dep(fwd, bwd);

        // Module backward.
        let mut module_bwd: Vec<usize> = Vec::with_capacity(spec.modules.len());
        for (mi, module) in spec.modules.iter().enumerate() {
            let node = l.stage(
                format!("module{mi}/bwd"),
                &costs::module_backward(module, b),
                EffectScope::Dense,
            );
            l.dep(bwd, node);
            module_bwd.push(node);
        }

        // Embedding backward per chain.
        let mut bwd_ends: Vec<usize> = Vec::new();
        for (ci, chain) in spec.chains.iter().enumerate() {
            let deps: Vec<usize> = if chain_consumers[ci].is_empty() {
                vec![bwd]
            } else {
                chain_consumers[ci]
                    .iter()
                    .map(|&mi| module_bwd[mi])
                    .collect()
            };
            let mut prev: Option<usize> = None;
            for (si, st) in costs::chain_backward(chain, b, &ctx).iter().enumerate() {
                let node = l.stage(format!("chain{ci}/b{si}"), st, EffectScope::Chain(ci));
                match prev {
                    Some(p) => l.dep(p, node),
                    None => {
                        for &d in &deps {
                            l.dep(d, node);
                        }
                    }
                }
                prev = Some(node);
            }
            bwd_ends.extend(prev);
        }
        bwd_ends.push(bwd);
        bwd_ends.extend(module_bwd);

        // Dense parameter synchronization, once per iteration.
        let sparse_grad_bytes = if matches!(strategy, Strategy::DataParallel) {
            // Unique rows per iteration ride the allreduce under pure DP.
            spec.chains
                .iter()
                .map(|c| {
                    cfg.batch_per_executor as f64
                        * c.ids_per_instance
                        * c.unique_ratio
                        * c.dim as f64
                        * 4.0
                })
                .sum()
        } else {
            0.0
        };
        l.sync_start = l.tasks.len();
        let mut prev: Option<usize> = None;
        for (si, st) in costs::dense_sync_stages(spec.dense_params(), sparse_grad_bytes, &ctx)
            .iter()
            .enumerate()
        {
            let node = l.stage(format!("sync/{si}"), st, EffectScope::Dense);
            match prev {
                Some(p) => l.dep(p, node),
                None => {
                    for &d in &bwd_ends {
                        l.dep(d, node);
                    }
                }
            }
            prev = Some(node);
        }
        let edges = l.g.edges.iter().zip(&l.edge_kinds);
        (l.in_at, l.in_list) = csr(
            l.tasks.len(),
            edges.map(|(e, &kind)| (e.to, (e.from, kind))),
        );
        l
    }

    /// Node `n`'s in-edges in edge order: the source node and how the
    /// scheduler replays the edge.
    pub fn in_edges(&self, n: usize) -> &[(usize, EdgeKind)] {
        &self.in_list[self.in_at[n]..self.in_at[n + 1]]
    }

    /// The forward half: load through MLP forward, the serving graph.
    pub fn forward_half(self) -> StageGraph {
        let end = self.forward_end;
        let mut g = self.g;
        g.nodes.truncate(end);
        g.edges.retain(|e| e.to < end);
        g
    }

    fn push(&mut self, node: StageNode, st: StageTask) -> usize {
        self.tasks.push(st);
        self.chain_start.push(None);
        self.g.push(node)
    }

    fn stage(&mut self, label: String, st: &StageTask, scope: EffectScope) -> usize {
        let node = StageNode::new(
            label,
            st.kind.name(),
            class_of(st.target),
            st.work,
            st.launches,
        )
        .with_effects(stage_effects(st.kind, st.target, scope));
        self.push(node, *st)
    }

    fn dep(&mut self, from: usize, to: usize) {
        self.edge(from, to, EdgeKind::Wiring);
    }

    fn edge(&mut self, from: usize, to: usize, kind: EdgeKind) {
        self.edge_kinds.push(kind);
        self.g.dep(from, to);
    }
}

/// Resource class (the vocabulary of `stage.cross-class-fusion`) a stage
/// target is bound by.
fn class_of(target: ResTarget) -> &'static str {
    match target {
        ResTarget::GpuSm => "compute",
        ResTarget::GpuMem => "device_memory",
        ResTarget::Pcie => "intra_comm",
        ResTarget::Dram | ResTarget::ServerDram => "host_memory",
        ResTarget::Cpu => "host_compute",
        ResTarget::Nic | ResTarget::NvLink | ResTarget::ServerNic => "inter_comm",
    }
}

/// The namespace a stage's effects resolve their resource keys in:
/// an embedding chain (one Eq. 1 packed shard, cache, dirty set, and
/// collective buffer per chain) or the shared dense tower.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EffectScope {
    /// I/O stages: no chain or tower attribution.
    Io,
    /// Embedding chain `ci` (Eq. 1 packed shard).
    Chain(usize),
    /// The shared dense tower (interaction modules + MLP + optimizer).
    Dense,
}

impl EffectScope {
    fn key(self) -> String {
        match self {
            EffectScope::Io => "in".to_string(),
            EffectScope::Chain(ci) => format!("c{ci}"),
            EffectScope::Dense => "dense".to_string(),
        }
    }
}

/// Mechanical effect derivation: the declared effect set of one lowered
/// stage, from its op kind, hardware target, and scope. This is the
/// *only* source of effect annotations — they are never hand-written —
/// so the race rules check the lowering itself, and the trace
/// cross-check ([`crate::analysis::crosscheck_races`]) verifies this
/// table against observed overlap.
///
/// Per-micro-batch scratch ops (unique/partition/stitch/segment-reduce,
/// H2D staging) touch only private buffers and derive the empty set.
fn stage_effects(kind: OpKind, target: ResTarget, scope: EffectScope) -> EffectSet {
    // Pure stages, most of the graph, allocate no key.
    let res = |k: ResourceKind| Resource::new(k, scope.key());
    match kind {
        OpKind::DataLoad => EffectSet::empty().read(Resource::new(ResourceKind::InputStream, "in")),
        OpKind::Gather => match target {
            // HybridHash hot rows served from device memory.
            ResTarget::GpuMem => EffectSet::empty().read(res(ResourceKind::CacheHot)),
            _ => EffectSet::empty().read(res(ResourceKind::EmbeddingShard)),
        },
        OpKind::EmbeddingScatter => {
            let store = match target {
                ResTarget::GpuMem => ResourceKind::CacheHot,
                _ => ResourceKind::EmbeddingShard,
            };
            EffectSet::empty()
                .reduce(res(store))
                .reduce(res(ResourceKind::CkptDirty))
        }
        OpKind::Shuffle
        | OpKind::ShuffleStitch
        | OpKind::AllToAll
        | OpKind::AllReduce
        | OpKind::PsPull
        | OpKind::PsPush => EffectSet::empty().write(res(ResourceKind::CollectiveBuffer)),
        OpKind::InteractionCompute | OpKind::MlpCompute => {
            EffectSet::empty().read(Resource::new(ResourceKind::DenseParams, "dense"))
        }
        OpKind::OptimizerApply => EffectSet::empty()
            .write(Resource::new(ResourceKind::DenseParams, "dense"))
            .write(Resource::new(ResourceKind::OptimizerState, "dense")),
        OpKind::Preprocess
        | OpKind::Unique
        | OpKind::Partition
        | OpKind::UniquePartition
        | OpKind::Stitch
        | OpKind::SegmentReduce
        | OpKind::HostToDevice
        | OpKind::Sync => EffectSet::empty(),
    }
}
