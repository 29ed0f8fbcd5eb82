//! Property tests: every built-in pipeline preset lints clean on the
//! bench-suite model shapes.
//!
//! The perf-regression suite runs {W&D, CAN} x {base, pack, inter, cache};
//! those four rungs plus the ablation presets (`all`, `none`, `without_*`)
//! must never trip an error-severity rule on the committed models — the
//! analyzer exists to catch malformed specs and plans, not the shipped
//! configurations.

use picasso_graph::{
    lint_plan, lint_spec, Diagnostic, PassId, Pipeline, PipelineConfig, PlanContext, Severity,
    WdlSpec,
};
use picasso_models::ModelKind;
use picasso_obs::{ManualClock, Tracer};
use picasso_sim::MachineSpec;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Every built-in preset plus the two partial bench-suite rungs that are
/// not already a preset (`base` == `none()`, `cache` == `all()`).
fn presets() -> Vec<(&'static str, PipelineConfig)> {
    vec![
        ("all", PipelineConfig::all()),
        ("none", PipelineConfig::none()),
        ("without_packing", PipelineConfig::without_packing()),
        (
            "without_interleaving",
            PipelineConfig::without_interleaving(),
        ),
        ("without_caching", PipelineConfig::without_caching()),
        (
            "bench_pack",
            PipelineConfig::new(vec![PassId::DPacking, PassId::KPacking]),
        ),
        (
            "bench_inter",
            PipelineConfig::new(vec![
                PassId::DPacking,
                PassId::KPacking,
                PassId::KInterleaving,
                PassId::DInterleaving,
            ]),
        ),
    ]
}

/// The bench suite's models (the analyzer's plan rules are machine- and
/// pipeline-sensitive, not model-count-sensitive, so two shapes suffice).
const MODELS: [ModelKind; 2] = [ModelKind::WideDeep, ModelKind::Can];

/// An Eq. 1 mapping with the planner's guarantee: packs are
/// dim-homogeneous (tables only merge with tables of equal width).
fn eq1_mapping(spec: &WdlSpec) -> BTreeMap<usize, usize> {
    let mut packs: BTreeMap<usize, usize> = BTreeMap::new();
    let mut out = BTreeMap::new();
    for c in &spec.chains {
        let next = packs.len();
        let pack = *packs.entry(c.dim).or_insert(next);
        for &t in &c.tables {
            out.insert(t, pack);
        }
    }
    out
}

/// All error-severity findings for one (model, preset, overrides) cell:
/// spec rules on the base and transformed graphs, plan rules on the
/// derived plan.
fn error_findings(
    model: ModelKind,
    cfg: &PipelineConfig,
    groups: Option<usize>,
    micro: Option<usize>,
) -> Vec<Diagnostic> {
    let data = model.default_dataset();
    let spec = model.build(&data);
    let table_dims = data.table_dims();
    let pipeline = Pipeline::from_config(cfg).expect("preset validates");
    let mut ctx = PlanContext::new(MachineSpec::eflops());
    ctx.table_to_pack = eq1_mapping(&spec);
    ctx.groups = groups;
    ctx.micro_batches = micro;
    if cfg.enables(PassId::Caching) {
        ctx.hot_bytes = 1 << 24;
    }
    let tracer = Tracer::new(ManualClock::new());
    let (out, reports, plan_diags) = pipeline.run(&spec, &mut ctx, &tracer);
    assert_eq!(reports.len(), cfg.passes.len(), "one report per pass");
    lint_spec(&spec, Some(&table_dims))
        .into_iter()
        .chain(lint_spec(&out, Some(&table_dims)))
        .chain(lint_plan(&out, &ctx, cfg, &reports))
        .chain(plan_diags)
        .filter(|d| d.severity == Severity::Error)
        .collect()
}

/// The exact eight perf-gate scenarios, with the suite's default knobs.
#[test]
fn bench_suite_scenarios_lint_clean() {
    let rungs: [&[PassId]; 4] = [
        &[],
        &[PassId::DPacking, PassId::KPacking],
        &[
            PassId::DPacking,
            PassId::KPacking,
            PassId::KInterleaving,
            PassId::DInterleaving,
        ],
        &PassId::ALL,
    ];
    for model in MODELS {
        for passes in rungs {
            let cfg = PipelineConfig::new(passes.to_vec());
            let errors = error_findings(model, &cfg, None, None);
            assert!(
                errors.is_empty(),
                "{} x {passes:?}: {errors:?}",
                model.name()
            );
        }
    }
}

proptest! {
    // Each case runs every preset on a model; the default case count (or
    // `PROPTEST_CASES`, which CI's pass pipeline oracle sets to 1024)
    // covers the 96-cell override grid.
    /// No built-in preset produces an error-severity diagnostic on the
    /// committed bench models, under any explicit group / micro-batch
    /// override a config could plausibly set.
    #[test]
    fn builtin_presets_lint_clean_on_bench_models(
        model_pick in 0usize..MODELS.len(),
        groups_pick in 0usize..8,
        micro_pick in 0usize..6,
    ) {
        let model = MODELS[model_pick];
        // 0 means "no explicit override": the planners derive the value.
        let groups = (groups_pick > 0).then_some(groups_pick);
        let micro = (micro_pick > 0).then_some(micro_pick);
        for (name, cfg) in presets() {
            let errors = error_findings(model, &cfg, groups, micro);
            prop_assert!(
                errors.is_empty(),
                "preset {} on {}: {errors:?}",
                name,
                model.name()
            );
        }
    }
}
