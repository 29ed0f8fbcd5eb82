//! Forward-only serving lowering: the inference half of the train→serve
//! unification.
//!
//! Training and serving share the spec surface, the optimization-pass
//! pipeline, and the one lowering (`lower::Lowering`); serving keeps its
//! forward half, load through MLP forward — no backward stages, no
//! optimizer apply, no collective gradient exchange. The serving graph
//! carries the same mechanically derived effect sets as the training
//! graph, so the race analyzer covers it unchanged, and two
//! serving-specific run rules (`run.backward-stage-in-serving`,
//! `run.serve-no-admission`) guard the properties that make a graph
//! servable: it must be free of model-state mutation, and its request
//! queue must be bounded.
//!
//! The per-batch service time is *analytic*, not simulated per request: a
//! sequential walk over the forward stage costs against the machine's
//! resource rates and launch overheads. Serving latency is dominated by
//! queueing and batching policy, which the `picasso-serve` event loop
//! models exactly; the analytic service time keeps a million-request
//! sweep cheap while staying monotone in batch size with sublinear
//! per-request cost (launch overheads amortize — the same effect packing
//! exploits in training).

use std::sync::Arc;

use crate::costs::{self, PlanContext, ResTarget};
use crate::lower::Lowering;
use crate::scheduler::SimConfig;
use crate::strategy::Strategy;
use crate::trainer::{prepare, TrainError, TrainerOptions};
use picasso_data::DatasetSpec;
use picasso_graph::{OpKind, PipelineConfig, WdlSpec};
use picasso_lint::{AccessMode, Diagnostic, ResourceKind, Severity, Span, StageGraph};
use picasso_models::ModelKind;
use picasso_sim::MachineSpec;

/// Everything the serving layer needs from the shared preparation path:
/// the pass-optimized spec (serving pipeline: packing + caching, no
/// interleaving), the simulation shape, the analytic cache-hit ratio, and
/// the static-analysis findings from all surfaces including the serving
/// graph itself.
#[derive(Debug)]
pub struct ServingPlan {
    /// The spec after the serving pass pipeline.
    pub spec: WdlSpec,
    /// Parallelization strategy the forward lowering was planned for.
    pub strategy: Strategy,
    /// Machine/cluster shape; `batch_per_executor` is the *maximum*
    /// serving batch the plan was sized for.
    pub cfg: SimConfig,
    /// Analytic HybridHash hit ratio at the planned lookup granularity.
    pub hit: f64,
    /// Static-analysis findings (spec + plan + serving-graph surfaces).
    pub diagnostics: Vec<Diagnostic>,
}

/// Plans a forward-only serving deployment of `model`: runs the serving
/// pass pipeline (packing + caching), sizes batches, derives analytic
/// dedup/hit ratios, lowers the forward-only graph, and runs the stage
/// rules plus the serving-specific run rules over it.
///
/// `queue_capacity` is the admission-control bound of the deployment this
/// plan feeds; `None` means unbounded and draws the
/// `run.serve-no-admission` warning.
pub fn prepare_serving(
    model: ModelKind,
    data: &Arc<DatasetSpec>,
    strategy: Strategy,
    opts: &TrainerOptions,
    queue_capacity: Option<usize>,
) -> Result<ServingPlan, TrainError> {
    let p = prepare(model, data, strategy, PipelineConfig::serving(), opts)?;
    // The shared spec/plan surface findings, then the stage rules over the
    // forward half of the prepared lowering: the training graph's backward
    // half is never analyzed.
    let mut diagnostics = p.diagnostics;
    let g = p.lowering.forward_half();
    diagnostics.extend(g.analyze());
    diagnostics.extend(serving_lints(&g, queue_capacity));
    Ok(ServingPlan {
        spec: p.spec,
        strategy,
        cfg: p.cfg,
        hit: p.hit,
        diagnostics,
    })
}

/// Lowers `spec` into the forward-only serving stage graph (one executor,
/// one batch): data load, grouped embedding forward with declared group
/// dependencies, interaction modules, MLP forward — and nothing after it.
/// Node order matches the forward prefix of the training graph exactly.
pub fn serving_stage_graph(spec: &WdlSpec, strategy: Strategy, cfg: &SimConfig) -> StageGraph {
    Lowering::first(spec, strategy, cfg).forward_half()
}

fn rate_of(target: ResTarget, m: &MachineSpec) -> f64 {
    match target {
        ResTarget::GpuSm => m.gpu.sm_flops,
        ResTarget::GpuMem => m.gpu.mem_bw,
        ResTarget::Pcie => m.pcie_bw,
        ResTarget::Dram | ResTarget::ServerDram => m.dram_bw,
        ResTarget::Cpu => m.cpu_flops,
        ResTarget::Nic | ResTarget::ServerNic => m.nic_bw,
        ResTarget::NvLink => m.nvlink_bw.unwrap_or(m.nic_bw),
    }
}

fn launch_secs(target: ResTarget, m: &MachineSpec) -> f64 {
    let o = &m.overheads;
    let setup = match target {
        ResTarget::GpuSm | ResTarget::GpuMem => o.gpu_kernel,
        ResTarget::Pcie => o.dma_setup,
        ResTarget::Nic | ResTarget::ServerNic | ResTarget::NvLink => o.net_msg,
        ResTarget::Dram | ResTarget::ServerDram => o.dram_op,
        ResTarget::Cpu => o.cpu_op,
    };
    (setup + o.op_dispatch).as_secs_f64()
}

/// Analytic end-to-end forward service time for one batch of `batch`
/// requests, in nanoseconds: a sequential sum over every forward stage of
/// `work / rate(target) + launches x launch_overhead(target)`.
///
/// Sequential summation (no overlap credit) makes this an upper bound and
/// keeps it deterministic and strictly monotone in `batch`; launch
/// overheads are batch-independent, so per-request cost falls as batches
/// grow — the amortization the dynamic batcher trades latency for.
pub fn forward_latency_ns(
    spec: &WdlSpec,
    strategy: Strategy,
    cfg: &SimConfig,
    batch: usize,
) -> u64 {
    let batch = batch.max(1);
    let ctx = PlanContext::of(cfg, strategy);
    let m = &cfg.machine;
    let mut secs = 0.0;
    // Request ingress (the serving analogue of the data-load stage).
    secs += batch as f64 * spec.io_bytes_per_instance / costs::NET_EFF / m.nic_bw
        + OpKind::DataLoad.micro_ops() as f64 * launch_secs(ResTarget::Nic, m);
    let mut add = |work: f64, target: ResTarget, launches: u32| {
        secs += work / rate_of(target, m) + launches as f64 * launch_secs(target, m);
    };
    for chain in &spec.chains {
        let (stages, _) = costs::chain_forward(chain, batch, &ctx);
        for st in &stages {
            add(st.work, st.target, st.launches);
        }
    }
    for module in &spec.modules {
        let st = costs::module_forward(module, batch);
        add(st.work, st.target, st.launches);
    }
    let st = costs::mlp_forward(&spec.mlp, batch);
    add(st.work, st.target, st.launches);
    (secs * 1e9).round() as u64
}

/// The latency of a request that arrives at an idle replica and finds no
/// company: it waits out the linger bound `max_linger_ns`, then rides a
/// batch of one. At light load most requests see about this much, so an
/// SLO below it is missed at every low rate.
pub fn slo_floor_ns(plan: &ServingPlan, max_linger_ns: u64) -> u64 {
    max_linger_ns + forward_latency_ns(&plan.spec, plan.strategy, &plan.cfg, 1)
}

/// The service capacity, in requests per second, of a replica whose
/// batches hold at most `max_batch` requests: full batches back to back.
pub fn capacity_rps(plan: &ServingPlan, max_batch: usize) -> f64 {
    let batch_ns = forward_latency_ns(&plan.spec, plan.strategy, &plan.cfg, max_batch);
    max_batch as f64 * 1e9 / batch_ns as f64
}

/// Resource kinds whose mutation marks a stage as a *training* stage: all
/// persistent model state. A serving graph may read any of these (and
/// reduce into private scratch), but writing them means a gradient,
/// optimizer, or checkpoint stage leaked into the forward-only lowering.
const MODEL_STATE: [ResourceKind; 5] = [
    ResourceKind::EmbeddingShard,
    ResourceKind::CacheHot,
    ResourceKind::DenseParams,
    ResourceKind::OptimizerState,
    ResourceKind::CkptDirty,
];

/// The serving-specific run rules over an already-lowered graph:
///
/// * `run.backward-stage-in-serving` (error) — a stage mutates model
///   state (writes or reduce-adds into embedding shards, hot cache rows,
///   dense parameters, optimizer state, or checkpoint dirty sets), which
///   only backward/optimizer stages do;
/// * `run.serve-no-admission` (warning) — the deployment's request queue
///   is unbounded (`queue_capacity == None`), so a traffic burst grows the
///   queue (and tail latency) without limit instead of shedding.
pub fn serving_lints(g: &StageGraph, queue_capacity: Option<usize>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for node in &g.nodes {
        let mutated: Vec<String> = node
            .effects
            .effects
            .iter()
            .filter(|e| {
                matches!(e.mode, AccessMode::Write | AccessMode::ReduceAdd)
                    && MODEL_STATE.contains(&e.resource.kind)
            })
            .map(|e| e.resource.to_string())
            .collect();
        if !mutated.is_empty() {
            out.push(
                Diagnostic::new(
                    "run.backward-stage-in-serving",
                    Severity::Error,
                    Span::Stage(node.label.clone()),
                    format!(
                        "stage '{}' ({}) mutates model state ({}) — serving graphs are \
                         forward-only and must not contain gradient, optimizer, or \
                         checkpoint stages",
                        node.label,
                        node.kind,
                        mutated.join(", "),
                    ),
                )
                .with_hint(
                    "lower the spec through `serving_stage_graph` (or prune the backward \
                     half) instead of reusing a training lowering",
                ),
            );
        }
    }
    if queue_capacity.is_none() {
        out.push(
            Diagnostic::new(
                "run.serve-no-admission",
                Severity::Warn,
                Span::Run("queue-capacity".into()),
                "the serving queue is unbounded: under sustained overload every queued \
                 request's latency grows without limit and no load is shed",
            )
            .with_hint(
                "set a queue capacity (admission control) so overload sheds \
                 deterministically instead of stretching tail latency",
            ),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::stage_graph;
    use picasso_data::DatasetSpec;
    use picasso_models::ModelKind;
    use picasso_sim::MachineSpec;

    fn cfg() -> SimConfig {
        SimConfig {
            batch_per_executor: 256,
            iterations: 1,
            machines: 1,
            machine: MachineSpec::eflops(),
            quantized_comm: false,
        }
    }

    #[test]
    fn serving_graph_is_the_forward_prefix_of_the_training_graph() {
        let data = DatasetSpec::criteo();
        let spec = ModelKind::WideDeep.build(&data);
        let serve = serving_stage_graph(&spec, Strategy::Hybrid, &cfg());
        let train = stage_graph(&spec, Strategy::Hybrid, &cfg());
        assert!(serve.nodes.len() < train.nodes.len());
        for (s, t) in serve.nodes.iter().zip(train.nodes.iter()) {
            assert_eq!(s.label, t.label);
        }
        // The forward prefix ends at the MLP forward; nothing after it.
        assert_eq!(serve.nodes.last().unwrap().label, "mlp/fwd");
        assert!(serve
            .nodes
            .iter()
            .all(|n| !n.label.contains("/b") && !n.label.starts_with("sync")));
    }

    #[test]
    fn serving_graph_is_race_free_and_lint_clean() {
        let data = DatasetSpec::criteo();
        for model in [ModelKind::WideDeep, ModelKind::Dlrm] {
            let spec = model.build(&data);
            let g = serving_stage_graph(&spec, Strategy::Hybrid, &cfg());
            assert!(g.static_races().is_empty());
            assert!(g.analyze().is_empty());
            let diags = serving_lints(&g, Some(1024));
            assert!(diags.is_empty(), "{model:?}: {diags:?}");
        }
    }

    #[test]
    fn backward_stage_lint_fires_on_a_training_lowering() {
        let data = DatasetSpec::criteo();
        let spec = ModelKind::Dlrm.build(&data);
        let g = stage_graph(&spec, Strategy::Hybrid, &cfg());
        let diags = serving_lints(&g, Some(1024));
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "run.backward-stage-in-serving")
            .collect();
        assert!(!hits.is_empty(), "training graph must trip the rule");
        assert!(hits.iter().all(|d| d.severity == Severity::Error));
        // The optimizer-apply sync stage is among the flagged ones.
        assert!(hits
            .iter()
            .any(|d| matches!(&d.span, Span::Stage(l) if l.starts_with("sync"))));
    }

    #[test]
    fn unbounded_queue_warns_and_bounded_queue_does_not() {
        let data = DatasetSpec::criteo();
        let spec = ModelKind::WideDeep.build(&data);
        let g = serving_stage_graph(&spec, Strategy::Hybrid, &cfg());
        let diags = serving_lints(&g, None);
        let hit = diags
            .iter()
            .find(|d| d.rule == "run.serve-no-admission")
            .expect("unbounded queue must warn");
        assert_eq!(hit.severity, Severity::Warn);
        assert!(serving_lints(&g, Some(64))
            .iter()
            .all(|d| d.rule != "run.serve-no-admission"));
    }

    #[test]
    fn forward_latency_is_monotone_with_sublinear_per_request_cost() {
        let data = DatasetSpec::criteo();
        let spec = ModelKind::WideDeep.build(&data);
        let c = cfg();
        let l1 = forward_latency_ns(&spec, Strategy::Hybrid, &c, 1);
        let l16 = forward_latency_ns(&spec, Strategy::Hybrid, &c, 16);
        let l256 = forward_latency_ns(&spec, Strategy::Hybrid, &c, 256);
        assert!(l1 > 0);
        assert!(l1 < l16 && l16 < l256, "{l1} {l16} {l256}");
        // Launch overheads amortize: 256 requests cost far less than 256
        // single-request batches.
        assert!(l256 < 256 * l1 / 4, "{l256} vs {}", 256 * l1);
        // Deterministic.
        assert_eq!(l16, forward_latency_ns(&spec, Strategy::Hybrid, &c, 16));
    }

    #[test]
    fn prepare_serving_produces_a_clean_plan_for_suite_models() {
        let data = DatasetSpec::criteo().shared();
        let opts = TrainerOptions {
            batch_per_executor: Some(256),
            ..Default::default()
        };
        let plan = prepare_serving(
            ModelKind::WideDeep,
            &data,
            Strategy::Hybrid,
            &opts,
            Some(512),
        )
        .expect("plan");
        assert!(plan.diagnostics.is_empty(), "{:?}", plan.diagnostics);
        assert!(plan.hit >= 0.0 && plan.hit <= 1.0);
        assert_eq!(plan.cfg.batch_per_executor, 256);
        // Serving pipeline applied: no interleaving groups.
        assert!(plan.spec.micro_batches <= 1);
        // Unbounded queue propagates the admission warning.
        let warned =
            prepare_serving(ModelKind::WideDeep, &data, Strategy::Hybrid, &opts, None).unwrap();
        assert!(warned
            .diagnostics
            .iter()
            .any(|d| d.rule == "run.serve-no-admission"));
    }
}
