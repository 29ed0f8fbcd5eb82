//! The end-to-end training pipeline: warm-up on real data, optimization
//! passes, batch sizing, simulation, and reporting.

use crate::framework::{Framework, Optimizations};
use crate::lint::graph_lints;
use crate::lower::Lowering;
use crate::scheduler::{simulate_lowered, SimConfig, SimulationOutput};
use crate::strategy::Strategy;
use crate::telemetry::TrainingReport;
use crate::warmup::{count_warmup, lint_warmup, WarmupConfig, WarmupCounts};
use picasso_data::DatasetSpec;
use picasso_embedding::PackPlan;
use picasso_graph::{
    graph_stats, lint_spec, Diagnostic, PassId, PassReport, Pipeline, PipelineError, PlanContext,
    Severity, WdlSpec, MAX_BATCH, MIN_BATCH,
};
use picasso_lint::Span;
use picasso_models::ModelKind;
use picasso_obs::{Tracer, WallClock};
use picasso_sim::{EngineError, MachineSpec};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Why a training run could not produce a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The optimization pipeline failed validation (bad ordering,
    /// duplicate or unknown passes).
    Pipeline(PipelineError),
    /// Lowering produced an invalid task graph (a dependency cycle or a
    /// dangling reference the engine rejected).
    Lowering(EngineError),
    /// Static analysis found error-severity diagnostics; the run was
    /// aborted before scheduling. The payload holds only the errors —
    /// call [`lint`] for the full report including warnings.
    Lint(Vec<Diagnostic>),
    /// Fault recovery was exhausted or cannot start: every retry failed,
    /// the checkpoint store is unusable, the fault plan outlasts the retry
    /// budget, or a straggler event targets a worker the run does not
    /// have. The message names the failing component or event.
    Unrecoverable(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Pipeline(e) => write!(f, "invalid optimization pipeline: {e}"),
            TrainError::Lowering(e) => write!(f, "lowering produced an invalid task graph: {e}"),
            TrainError::Lint(diags) => {
                write!(
                    f,
                    "static analysis rejected the run: {} error(s)",
                    diags.len()
                )?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            TrainError::Unrecoverable(msg) => {
                write!(f, "training could not recover: {msg}")
            }
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Pipeline(e) => Some(e),
            TrainError::Lowering(e) => Some(e),
            TrainError::Lint(_) => None,
            TrainError::Unrecoverable(_) => None,
        }
    }
}

impl From<PipelineError> for TrainError {
    fn from(e: PipelineError) -> TrainError {
        TrainError::Pipeline(e)
    }
}

impl From<EngineError> for TrainError {
    fn from(e: EngineError) -> TrainError {
        TrainError::Lowering(e)
    }
}

/// Options for one training run.
#[derive(Debug, Clone)]
pub struct TrainerOptions {
    /// Worker machines.
    pub machines: usize,
    /// Machine preset.
    pub machine: MachineSpec,
    /// Iterations to simulate.
    pub iterations: usize,
    /// Fixed per-executor batch; `None` derives it from GPU memory.
    pub batch_per_executor: Option<usize>,
    /// Fixed micro-batch count; `None` uses the compute-intensity heuristic.
    pub micro_batches: Option<usize>,
    /// Fixed K-interleaving group count; `None` derives it from Eq. 3.
    pub groups: Option<usize>,
    /// HybridHash Hot-storage budget in bytes.
    pub hot_bytes: u64,
    /// Warm-up configuration. [`run`] takes the Hot-storage budget from
    /// [`TrainerOptions::hot_bytes`] (0 when the pipeline does not enable
    /// caching), not from `warmup.hot_bytes`.
    pub warmup: WarmupConfig,
    /// Upper bound on the derived batch size.
    pub max_batch: usize,
    /// Embedding tables excluded from K-interleaving control dependencies
    /// (the paper's *preset excluded embedding*: outputs that feed no
    /// concatenation can advance their downstream freely, §III-C).
    pub excluded_tables: Vec<usize>,
    /// Quantize collective communication to half precision (§V's
    /// "quantitative communication" extension; orthogonal to the PICASSO
    /// optimizations and off by default because it is precision-lossy).
    pub quantized_comm: bool,
    /// Extra control-dependency edges `(from, to)` between K-interleaving
    /// groups, layered over the implicit Fig. 8c stagger. Overrides the
    /// spec's own `group_deps` when nonempty. Self/backward edges are
    /// rejected by static analysis before the scheduler runs.
    pub group_deps: Vec<(u32, u32)>,
}

impl Default for TrainerOptions {
    fn default() -> Self {
        TrainerOptions {
            machines: 1,
            machine: MachineSpec::eflops(),
            iterations: 6,
            batch_per_executor: None,
            micro_batches: None,
            groups: None,
            hot_bytes: 1 << 30,
            warmup: WarmupConfig::default(),
            max_batch: MAX_BATCH,
            excluded_tables: Vec::new(),
            quantized_comm: false,
            group_deps: Vec::new(),
        }
    }
}

/// Everything a run produced: the report plus the optimized spec and
/// warm-up counts (for experiments that inspect them).
#[derive(Debug)]
pub struct RunArtifacts {
    /// The telemetry report.
    pub report: TrainingReport,
    /// The spec after all passes.
    pub spec: WdlSpec,
    /// The warm-up counts the run planned from: per-table Eq. 1 loads and
    /// `total_ids`. [`WarmupCounts::measure`] runs the full warm-up
    /// measurement (unique and hit ratios, cache counters) on demand.
    pub warmup: WarmupCounts,
    /// The raw simulation (task records and schedule scopes) the report was
    /// derived from, for trace/metrics export (see [`crate::observe`]).
    pub output: SimulationOutput,
    /// What each applied optimization pass did to the graph, in order.
    pub pass_reports: Vec<PassReport>,
    /// Every static-analysis finding (all of warning severity or below —
    /// errors abort the run with [`TrainError::Lint`] instead).
    pub lint: Vec<Diagnostic>,
}

/// Runs `model` on `data` under a named framework preset.
pub fn train(
    model: ModelKind,
    data: &Arc<DatasetSpec>,
    framework: Framework,
    opts: &TrainerOptions,
) -> Result<RunArtifacts, TrainError> {
    let strategy = framework.strategy(opts.machines);
    run(
        model,
        data,
        strategy,
        framework.optimizations(),
        framework.name(),
        opts,
    )
}

/// Runs the full static analyzer over the planned run without simulating:
/// spec rules (with the dataset's per-table dims as the Eq. 1 oracle),
/// plan rules on the pass pipeline, and stage rules on the lowered graph.
/// Returns *all* diagnostics, errors included. A warm-up shape no warm-up
/// can run (`run.warmup-shape`), trainer options no plan can meet
/// (`run.trainer-shape`) and a parameter-server strategy without servers
/// (`run.ps-without-servers`) are the findings returned as
/// [`TrainError::Lint`] instead, since planning cannot start without them.
pub fn lint(
    model: ModelKind,
    data: &Arc<DatasetSpec>,
    strategy: Strategy,
    optimizations: Optimizations,
    opts: &TrainerOptions,
) -> Result<Vec<Diagnostic>, TrainError> {
    let mut p = prepare(model, data, strategy, optimizations, opts)?;
    p.diagnostics
        .extend(graph_lints(&p.lowering.g, &p.spec, &p.cfg));
    Ok(p.diagnostics)
}

/// Runs `model` with an explicit strategy and optimization pipeline (used
/// by the Table IV ablation and the Fig. 14 sweeps).
pub fn run(
    model: ModelKind,
    data: &Arc<DatasetSpec>,
    strategy: Strategy,
    optimizations: Optimizations,
    label: &str,
    opts: &TrainerOptions,
) -> Result<RunArtifacts, TrainError> {
    let mut p = prepare(model, data, strategy, optimizations, opts)?;
    p.diagnostics
        .extend(graph_lints(&p.lowering.g, &p.spec, &p.cfg));
    let errors: Vec<Diagnostic> = p
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .cloned()
        .collect();
    if !errors.is_empty() {
        return Err(TrainError::Lint(errors));
    }
    let out = simulate_lowered(&p.spec, strategy, &p.cfg, p.lowering)?;
    let report = TrainingReport::from_simulation(
        label,
        p.spec.name.clone(),
        &out,
        graph_stats(&p.spec),
        p.micro,
        p.groups,
        p.hit,
    );
    Ok(RunArtifacts {
        report,
        spec: p.spec,
        warmup: p.warmup,
        output: out,
        pass_reports: p.pass_reports,
        lint: p.diagnostics,
    })
}

/// Everything [`prepare`] derives before the simulation gate: the planned
/// spec, measurement context, simulation shape, the spec and plan
/// findings, and the lowering the stage rules check and the scheduler
/// replays.
pub(crate) struct Prepared {
    pub(crate) spec: WdlSpec,
    pub(crate) lowering: Lowering,
    pub(crate) warmup: WarmupCounts,
    pub(crate) pass_reports: Vec<PassReport>,
    pub(crate) diagnostics: Vec<Diagnostic>,
    pub(crate) cfg: SimConfig,
    pub(crate) micro: usize,
    pub(crate) groups: usize,
    pub(crate) hit: f64,
}

/// Warm-up, pass pipeline, batch sizing, analytic ratios, spec and plan
/// analysis, and the first micro-batch's lowering — everything up to (but
/// excluding) the stage rules and the simulation.
pub(crate) fn prepare(
    model: ModelKind,
    data: &Arc<DatasetSpec>,
    strategy: Strategy,
    optimizations: Optimizations,
    opts: &TrainerOptions,
) -> Result<Prepared, TrainError> {
    let pipeline = Pipeline::from_config(&optimizations)?;
    let spec = model.build(data);
    let caching = optimizations.enables(PassId::Caching);

    // Warm-up counts over seeded batches: per-table ID masses for the
    // packing planner. (Dedup and hit ratios at the *training* batch size
    // are set analytically below, because working-vocabulary clamping would
    // distort them at production vocabulary scales — see DESIGN.md.)
    let mut wcfg = opts.warmup.clone();
    wcfg.hot_bytes = if caching { opts.hot_bytes } else { 0 };
    let mut errors = lint_warmup(&wcfg);
    errors.extend(lint_trainer_shape(opts));
    if let Strategy::PsAsync { servers: 0 } | Strategy::PsSync { servers: 0 } = strategy {
        errors.push(Diagnostic::new(
            "run.ps-without-servers",
            Severity::Error,
            Span::Run("strategy".into()),
            format!("{strategy:?} places its parameters on servers but has none"),
        ));
    }
    if !errors.is_empty() {
        return Err(TrainError::Lint(errors));
    }
    let warmup = count_warmup(data, &wcfg);

    // The plan context carries everything the pass planners consume:
    // machine preset, memory budgets, knob overrides, and the Eq. 1
    // table-to-pack mapping from the planner over the warm-up ID masses.
    let mut ctx = PlanContext::new(opts.machine.clone());
    ctx.hot_bytes = if caching { opts.hot_bytes } else { 0 };
    ctx.max_batch = opts.max_batch;
    ctx.micro_batches = opts.micro_batches;
    ctx.groups = opts.groups;
    ctx.excluded_tables = opts.excluded_tables.clone();
    if optimizations.enables(PassId::DPacking) {
        let plan = PackPlan::with_loads(data, &warmup.loads, warmup.total_ids);
        ctx.table_to_pack = plan.table_to_pack();
    }

    // The pipeline runs instrumented: wall-clock spans on the `passes`
    // track plus before/after op accounting (Table V). Every configured
    // pass reports, including ones whose planner derived a no-op.
    let pass_tracer = Tracer::new(WallClock::new());
    let (mut spec, pass_reports, mut diagnostics) = pipeline.run(&spec, &mut ctx, &pass_tracer);
    if !opts.group_deps.is_empty() {
        spec.group_deps = opts.group_deps.clone();
    }

    let micro = ctx.derived.micro_batches;
    let groups = ctx.derived.groups;
    let batch = match opts.batch_per_executor {
        Some(b) => b,
        None => {
            let base = ctx.plan_base_batch(&spec);
            if micro > 1 {
                ((base as f64 * micro as f64 * 0.9) as usize).min(opts.max_batch)
            } else {
                base
            }
        }
    };

    // Analytic dedup and cache-hit ratios at the actual lookup granularity
    // (one micro-batch) over the *real* vocabulary sizes and skews.
    let hit = apply_analytic_ratios(
        &mut spec,
        data,
        batch.div_ceil(micro),
        ctx.hot_bytes as f64,
        &warmup,
    );

    let cfg = SimConfig {
        batch_per_executor: batch,
        iterations: opts.iterations,
        machines: opts.machines,
        machine: opts.machine.clone(),
        quantized_comm: opts.quantized_comm,
    };

    // Spec rules against the dataset's per-table dims (the Eq. 1
    // homogeneity oracle), ahead of the plan findings `pipeline.run`
    // collected. The stage rules run over `lowering` in the caller, which
    // knows whether it checks the training graph or its forward half.
    let mut spec_diags = lint_spec(&spec, Some(&data.table_dims()));
    spec_diags.append(&mut diagnostics);
    let lowering = Lowering::first(&spec, strategy, &cfg);

    Ok(Prepared {
        spec,
        lowering,
        warmup,
        pass_reports,
        diagnostics: spec_diags,
        cfg,
        micro,
        groups,
        hit,
    })
}

/// `run.trainer-shape` errors: one per field of `opts` below the least
/// value planning accepts (a batch cap under [`MIN_BATCH`], or zero
/// micro-batches, groups, machines or GPUs per machine).
fn lint_trainer_shape(opts: &TrainerOptions) -> Vec<Diagnostic> {
    let checks = [
        ("max_batch", Some(opts.max_batch), MIN_BATCH),
        ("micro_batches", opts.micro_batches, 1),
        ("groups", opts.groups, 1),
        ("machines", Some(opts.machines), 1),
        ("machine.gpus_per_node", Some(opts.machine.gpus_per_node), 1),
    ];
    checks
        .into_iter()
        .filter_map(|(field, value, least)| {
            let value = value.filter(|&v| v < least)?;
            Some(Diagnostic::new(
                "run.trainer-shape",
                Severity::Error,
                Span::Run("trainer".into()),
                format!("trainer option {field} is {value}; it must be at least {least}"),
            ))
        })
        .collect()
}

/// Sets every chain's `unique_ratio` and `cache_hit_ratio` from the
/// analytic Zipf models at the real vocabulary scale, and returns the
/// ID-mass-weighted overall hit ratio.
///
/// - Dedup: `expected_unique_ratio(vocab, s, ids per lookup)` where a lookup
///   covers one micro-batch of one table. Presets give hundreds of tables
///   one shape, so the ratio is evaluated once per distinct
///   `(vocab, s, ids)` and memoized for this call only.
/// - Cache: HybridHash converges to holding the top-k rows, so the hit
///   ratio is the analytic frequency mass of the `k` rows the table's share
///   of Hot-storage can hold (the per-table share follows the warm-up ID
///   masses, mirroring how the planner splits the budget). Its normaliser
///   `harmonic_partial(vocab, s)` is likewise computed once per distinct
///   `(vocab, s)` in this call.
fn apply_analytic_ratios(
    spec: &mut WdlSpec,
    data: &DatasetSpec,
    micro_batch: usize,
    hot_bytes: f64,
    warmup: &WarmupCounts,
) -> f64 {
    use picasso_data::distribution::{
        coverage_top_k_with, expected_unique_ratio, harmonic_partial,
    };
    /// One table's aggregates over the dataset's fields.
    #[derive(Clone, Copy, Default)]
    struct Table {
        vocab: u64,
        skew: f64,
        dim: usize,
        ids: f64,
    }
    // Per-table aggregates from the dataset, indexed by table id; the last
    // field of a shared table sets its shape.
    let n_tables = data.fields.iter().map(|f| f.table_group + 1).max();
    let mut tables = vec![Table::default(); n_tables.unwrap_or(0)];
    for f in &data.fields {
        let t = &mut tables[f.table_group];
        t.vocab = f.vocab;
        t.skew = f.dist.exponent();
        t.dim = f.dim;
        t.ids += f.avg_ids;
    }
    let mut unique_by_shape: HashMap<(u64, u64, u64), f64> = HashMap::new();
    let mut norm_by_shape: HashMap<(u64, u64), f64> = HashMap::new();
    let mut overall_hit = 0.0;
    for chain in &mut spec.chains {
        let mut unique = 0.0;
        let mut hit = 0.0;
        let mut weight = 0.0;
        for &t in &chain.tables {
            let Table {
                vocab,
                skew: s,
                dim,
                ids,
            } = tables[t];
            let ids = ids * micro_batch as f64;
            let u = *unique_by_shape
                .entry((vocab, s.to_bits(), ids.to_bits()))
                .or_insert_with(|| expected_unique_ratio(vocab, s, ids));
            let mass = warmup.loads.get(&t).map_or(0.0, |l| l.freq_mass);
            let h = if hot_bytes > 0.0 {
                let rows = hot_bytes * mass / (dim as f64 * 4.0);
                coverage_top_k_with(vocab, s, rows, || {
                    *norm_by_shape
                        .entry((vocab, s.to_bits()))
                        .or_insert_with(|| harmonic_partial(vocab as f64, s))
                })
            } else {
                0.0
            };
            unique += u * ids;
            hit += h * ids;
            weight += ids;
            overall_hit += h * mass;
        }
        if weight > 0.0 {
            chain.unique_ratio = unique / weight;
            chain.cache_hit_ratio = hit / weight;
        }
    }
    overall_hit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> TrainerOptions {
        TrainerOptions {
            iterations: 3,
            warmup: WarmupConfig {
                batches: 4,
                batch_size: 256,
                max_vocab: 2000,
                hot_bytes: 1 << 26,
                seed: 3,
            },
            max_batch: 8192,
            ..TrainerOptions::default()
        }
    }

    #[test]
    fn picasso_beats_every_baseline_on_dlrm() {
        let data = DatasetSpec::criteo().shared();
        let opts = quick_opts();
        let picasso = train(ModelKind::Dlrm, &data, Framework::Picasso, &opts).unwrap();
        for baseline in [Framework::TfPs, Framework::Horovod, Framework::PyTorch] {
            let b = train(ModelKind::Dlrm, &data, baseline, &opts).unwrap();
            assert!(
                picasso.report.ips_per_node > b.report.ips_per_node,
                "PICASSO {} <= {} {}",
                picasso.report.ips_per_node,
                baseline.name(),
                b.report.ips_per_node
            );
        }
    }

    #[test]
    fn packing_reduces_chain_count() {
        let data = DatasetSpec::product1().shared();
        let opts = quick_opts();
        let full = train(ModelKind::WideDeep, &data, Framework::Picasso, &opts).unwrap();
        let base = train(ModelKind::WideDeep, &data, Framework::PicassoBase, &opts).unwrap();
        assert!(full.spec.chains.len() < base.spec.chains.len() / 3);
        assert!(
            full.report.op_stats.total_ops < base.report.op_stats.total_ops / 2,
            "packed {} vs baseline {}",
            full.report.op_stats.total_ops,
            base.report.op_stats.total_ops
        );
    }

    #[test]
    fn ablation_every_optimization_contributes() {
        let data = DatasetSpec::product1().shared();
        let opts = quick_opts();
        let full = run(
            ModelKind::WideDeep,
            &data,
            Strategy::Hybrid,
            Optimizations::all(),
            "full",
            &opts,
        )
        .unwrap();
        for (label, o) in [
            ("w/o packing", Optimizations::without_packing()),
            ("w/o interleaving", Optimizations::without_interleaving()),
            ("w/o caching", Optimizations::without_caching()),
        ] {
            let r = run(
                ModelKind::WideDeep,
                &data,
                Strategy::Hybrid,
                o,
                label,
                &opts,
            )
            .unwrap();
            assert!(
                r.report.ips_per_node <= full.report.ips_per_node * 1.03,
                "{label}: {} > full {}",
                r.report.ips_per_node,
                full.report.ips_per_node
            );
        }
    }

    #[test]
    fn caching_improves_cache_hit_and_batch_accounting() {
        let data = DatasetSpec::alibaba().shared();
        let opts = quick_opts();
        let with = train(ModelKind::Din, &data, Framework::Picasso, &opts).unwrap();
        assert!(with.report.cache_hit_ratio > 0.0);
        let without = run(
            ModelKind::Din,
            &data,
            Strategy::Hybrid,
            Optimizations::without_caching(),
            "w/o caching",
            &opts,
        )
        .unwrap();
        assert_eq!(without.report.cache_hit_ratio, 0.0);
    }

    #[test]
    fn explicit_knobs_are_respected() {
        let data = DatasetSpec::criteo().shared();
        let mut opts = quick_opts();
        opts.batch_per_executor = Some(1000);
        opts.micro_batches = Some(5);
        opts.groups = Some(3);
        let r = train(ModelKind::DeepFm, &data, Framework::Picasso, &opts).unwrap();
        assert_eq!(r.report.batch_per_executor, 1000);
        assert_eq!(r.report.micro_batches, 5);
        assert_eq!(r.report.groups, 3);
        assert_eq!(r.spec.micro_batches, 5);
    }

    #[test]
    fn every_configured_pass_reports_even_when_noop() {
        // Force both interleaving planners into a no-op (1 group, 1
        // micro-batch): the passes must still land in pass_reports so
        // ablation tables and metrics lanes stay complete.
        let data = DatasetSpec::criteo().shared();
        let mut opts = quick_opts();
        opts.micro_batches = Some(1);
        opts.groups = Some(1);
        let r = train(ModelKind::Dlrm, &data, Framework::Picasso, &opts).unwrap();
        let names: Vec<&str> = r.pass_reports.iter().map(|p| p.pass.as_str()).collect();
        assert_eq!(
            names,
            [
                "d_packing",
                "k_packing",
                "k_interleaving",
                "d_interleaving",
                "caching"
            ]
        );
        let noop = |name: &str| {
            let p = r.pass_reports.iter().find(|p| p.pass == name).unwrap();
            assert_eq!(p.ops_before, p.ops_after, "{name} should be a no-op");
        };
        noop("k_interleaving");
        noop("d_interleaving");
        assert_eq!(r.report.micro_batches, 1);
        assert_eq!(r.report.groups, 1);
    }

    #[test]
    fn cyclic_group_deps_are_rejected_before_scheduling() {
        let data = DatasetSpec::criteo().shared();
        let mut opts = quick_opts();
        opts.groups = Some(3);
        // Group 1 already waits on group 0 through the implicit stagger;
        // declaring 1 -> 0 closes a control-dependency cycle.
        opts.group_deps = vec![(1, 0)];
        let err = train(ModelKind::Dlrm, &data, Framework::Picasso, &opts).unwrap_err();
        match &err {
            TrainError::Lint(diags) => {
                assert!(
                    diags.iter().any(|d| d.rule == "stage.dependency-cycle"),
                    "{diags:?}"
                );
                assert!(diags.iter().all(|d| d.severity == Severity::Error));
            }
            other => panic!("expected a lint rejection, got {other:?}"),
        }
        assert!(err.to_string().contains("static analysis rejected the run"));
    }

    #[test]
    fn forward_group_deps_schedule_and_lint_clean() {
        let data = DatasetSpec::criteo().shared();
        let mut opts = quick_opts();
        opts.groups = Some(3);
        opts.group_deps = vec![(0, 2)];
        let r = train(ModelKind::Dlrm, &data, Framework::Picasso, &opts).unwrap();
        assert!(r.report.ips_per_node > 0.0);
        assert!(r.lint.iter().all(|d| d.severity < Severity::Error));
    }

    #[test]
    fn healthy_runs_carry_no_lint_errors() {
        let data = DatasetSpec::criteo().shared();
        let opts = quick_opts();
        for framework in [Framework::Picasso, Framework::TfPs, Framework::Horovod] {
            let r = train(ModelKind::Dlrm, &data, framework, &opts).unwrap();
            assert!(
                r.lint.iter().all(|d| d.severity < Severity::Error),
                "{framework:?}: {:?}",
                r.lint
            );
        }
    }

    #[test]
    fn lint_returns_all_diagnostics_without_simulating() {
        let data = DatasetSpec::criteo().shared();
        let mut opts = quick_opts();
        opts.groups = Some(2);
        opts.group_deps = vec![(1, 1)];
        // Unlike `run`, `lint` reports the errors instead of failing.
        let diags = lint(
            ModelKind::Dlrm,
            &data,
            Strategy::Hybrid,
            Optimizations::all(),
            &opts,
        )
        .unwrap();
        assert!(diags.iter().any(|d| d.rule == "stage.dependency-cycle"));
    }

    /// `run`, `lint` and `prepare_serving` all reject `warmup` with one
    /// `run.warmup-shape` error naming `knob`, before drawing anything.
    fn assert_warmup_shape_rejected(warmup: WarmupConfig, knob: &str) {
        let data = DatasetSpec::criteo().shared();
        let opts = TrainerOptions {
            warmup,
            ..quick_opts()
        };
        let picasso = Optimizations::all();
        let errors = [
            run(
                ModelKind::Dlrm,
                &data,
                Strategy::Hybrid,
                picasso.clone(),
                "bad",
                &opts,
            )
            .map(drop),
            lint(ModelKind::Dlrm, &data, Strategy::Hybrid, picasso, &opts).map(drop),
            crate::prepare_serving(ModelKind::Dlrm, &data, Strategy::Hybrid, &opts, Some(64))
                .map(drop),
        ];
        for err in errors {
            let Err(TrainError::Lint(diags)) = err else {
                panic!("expected a lint error, got {err:?}");
            };
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].rule, "run.warmup-shape");
            assert_eq!(diags[0].severity, Severity::Error);
            assert_eq!(diags[0].span, picasso_lint::Span::Run("warmup".into()));
            assert!(diags[0].message.contains(knob), "{}", diags[0].message);
        }
    }

    /// `run`, `lint` and `prepare_serving` all reject a parameter-server
    /// `strategy` without servers with one `run.ps-without-servers` error.
    fn assert_serverless_ps_rejected(strategy: Strategy) {
        let data = DatasetSpec::criteo().shared();
        let opts = quick_opts();
        let picasso = Optimizations::all();
        let errors = [
            run(
                ModelKind::Dlrm,
                &data,
                strategy,
                picasso.clone(),
                "bad",
                &opts,
            )
            .map(drop),
            lint(ModelKind::Dlrm, &data, strategy, picasso, &opts).map(drop),
            crate::prepare_serving(ModelKind::Dlrm, &data, strategy, &opts, Some(64)).map(drop),
        ];
        for err in errors {
            let Err(TrainError::Lint(diags)) = err else {
                panic!("expected a lint error, got {err:?}");
            };
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].rule, "run.ps-without-servers");
            assert_eq!(diags[0].severity, Severity::Error);
            assert_eq!(diags[0].span, Span::Run("strategy".into()));
        }
    }

    #[test]
    fn async_ps_without_servers_is_a_lint_error() {
        assert_serverless_ps_rejected(Strategy::PsAsync { servers: 0 });
    }

    #[test]
    fn sync_ps_without_servers_is_a_lint_error() {
        assert_serverless_ps_rejected(Strategy::PsSync { servers: 0 });
    }

    #[test]
    fn a_single_warmup_batch_is_a_lint_error() {
        let mut warmup = quick_opts().warmup;
        warmup.batches = 1;
        assert_warmup_shape_rejected(warmup, "batches");
    }

    #[test]
    fn an_empty_warmup_batch_is_a_lint_error() {
        let mut warmup = quick_opts().warmup;
        warmup.batch_size = 0;
        assert_warmup_shape_rejected(warmup, "batch_size");
    }

    #[test]
    fn an_empty_warmup_vocabulary_is_a_lint_error() {
        let mut warmup = quick_opts().warmup;
        warmup.max_vocab = 0;
        assert_warmup_shape_rejected(warmup, "max_vocab");
    }

    /// `train`, `run`, `lint` and `prepare_serving` all reject `opts` with
    /// one `run.trainer-shape` error naming `field`, instead of panicking.
    fn assert_trainer_shape_rejected(opts: TrainerOptions, field: &str) {
        let data = DatasetSpec::criteo().shared();
        let picasso = Optimizations::all();
        let errors = [
            train(ModelKind::Dlrm, &data, Framework::Picasso, &opts).map(drop),
            run(
                ModelKind::Dlrm,
                &data,
                Strategy::Hybrid,
                picasso.clone(),
                "bad",
                &opts,
            )
            .map(drop),
            lint(ModelKind::Dlrm, &data, Strategy::Hybrid, picasso, &opts).map(drop),
            crate::prepare_serving(ModelKind::Dlrm, &data, Strategy::Hybrid, &opts, Some(64))
                .map(drop),
        ];
        for err in errors {
            let Err(TrainError::Lint(diags)) = err else {
                panic!("expected a lint error, got {err:?}");
            };
            assert_eq!(diags.len(), 1, "{diags:?}");
            assert_eq!(diags[0].rule, "run.trainer-shape");
            assert_eq!(diags[0].severity, Severity::Error);
            assert_eq!(diags[0].span, Span::Run("trainer".into()));
            assert!(diags[0].message.contains(field), "{}", diags[0].message);
        }
    }

    #[test]
    fn a_batch_cap_under_the_floor_is_a_lint_error_even_with_a_fixed_batch() {
        let opts = TrainerOptions {
            max_batch: 100,
            batch_per_executor: Some(64),
            ..quick_opts()
        };
        assert_trainer_shape_rejected(opts, "max_batch is 100; it must be at least 256");
    }

    #[test]
    fn zero_micro_batches_is_a_lint_error() {
        let opts = TrainerOptions {
            micro_batches: Some(0),
            ..quick_opts()
        };
        assert_trainer_shape_rejected(opts, "micro_batches is 0");
    }

    #[test]
    fn zero_groups_is_a_lint_error() {
        let opts = TrainerOptions {
            groups: Some(0),
            ..quick_opts()
        };
        assert_trainer_shape_rejected(opts, "groups is 0");
    }

    #[test]
    fn zero_machines_is_a_lint_error() {
        let opts = TrainerOptions {
            machines: 0,
            ..quick_opts()
        };
        assert_trainer_shape_rejected(opts, "machines is 0");
    }

    #[test]
    fn zero_gpus_per_node_is_a_lint_error() {
        let mut opts = quick_opts();
        opts.machine.gpus_per_node = 0;
        assert_trainer_shape_rejected(opts, "machine.gpus_per_node is 0");
    }

    #[test]
    fn invalid_pipelines_surface_as_train_errors() {
        use picasso_graph::{PassId, PipelineError};
        let data = DatasetSpec::criteo().shared();
        let opts = quick_opts();
        let bad = Optimizations::new(vec![PassId::KInterleaving, PassId::DPacking]);
        let err = run(ModelKind::Dlrm, &data, Strategy::Hybrid, bad, "bad", &opts).unwrap_err();
        assert!(matches!(
            err,
            TrainError::Pipeline(PipelineError::OrderingViolation { .. })
        ));
        assert!(err.to_string().contains("invalid optimization pipeline"));
    }

    #[test]
    fn exclusion_rides_the_k_interleaving_pass() {
        let data = DatasetSpec::criteo().shared();
        let mut opts = quick_opts();
        opts.excluded_tables = vec![0];
        let with = train(ModelKind::Dlrm, &data, Framework::Picasso, &opts).unwrap();
        assert!(with.spec.chains.iter().any(|c| c.interleave_excluded));
        // Without the K-Interleaving pass, exclusion has nothing to ride.
        let without = run(
            ModelKind::Dlrm,
            &data,
            Strategy::Hybrid,
            Optimizations::none(),
            "base",
            &opts,
        )
        .unwrap();
        assert!(without.spec.chains.iter().all(|c| !c.interleave_excluded));
    }

    #[test]
    fn picasso_batch_exceeds_baseline_batch() {
        // The Table VII pattern: micro-batching lets PICASSO run larger
        // effective batches within the same device memory.
        let data = DatasetSpec::criteo().shared();
        let opts = quick_opts();
        let p = train(ModelKind::Dlrm, &data, Framework::Picasso, &opts).unwrap();
        let b = train(ModelKind::Dlrm, &data, Framework::PicassoBase, &opts).unwrap();
        assert!(p.report.batch_per_executor >= b.report.batch_per_executor);
    }
}
