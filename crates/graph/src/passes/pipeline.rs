//! The declarative optimization-pass pipeline.
//!
//! PICASSO's contribution is a *sequence of graph transformations* whose
//! parameters come from workload measurement (Eq. 1–3). This module turns
//! that sequence into a first-class, configurable object:
//!
//! - [`PassId`] names the five passes; [`PipelineConfig`] is the
//!   serializable, ordered pass list a run applies (ablations are pass
//!   lists, not flag structs).
//! - [`Pipeline`] validates a configuration — packing before interleaving,
//!   at most one application per pass, unknown passes rejected at parse
//!   time — and runs it: one `match` on each [`PassId`] plans the pass and
//!   then applies its rewrite through [`run_pass`], so every configured
//!   pass produces a [`PassReport`] even when it derives a no-op (e.g. an
//!   enabled interleaving pass whose planner lands on `groups == 1`).
//! - [`PlanContext`] carries what pass planners consume: the machine
//!   preset, the Hot-storage budget and batch cap, warm-up-derived planner
//!   inputs (the Eq. 1 table→pack mapping), explicit knob overrides, and
//!   the parameters the planners derive (Eq. 2 batch, micro-batch count,
//!   Eq. 3 group count).

use crate::passes::report::{run_pass, PassReport};
use crate::passes::{d_interleaving, d_packing, k_interleaving, k_packing};
use crate::spec::WdlSpec;
use picasso_obs::{Clock, Tracer};
use picasso_sim::MachineSpec;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Memory amplification of framework execution over the analytic
/// feature-map volume: retained per-op activations, gradient buffers,
/// allocator fragmentation and workspace. Applied when deriving the largest
/// feasible batch from GPU memory (Eq. 2's device-memory case).
pub const MEMORY_AMPLIFICATION: f64 = 16.0;

/// Pipeline-depth window used to derive the Eq. 3 group capacity: a group
/// should occupy its tightest resource for at most this long.
pub const GROUP_WINDOW_SECS: f64 = 0.002;

/// Lower clamp on the Eq. 2 batch the planners derive.
pub const MIN_BATCH: usize = 256;

/// Default upper clamp on a derived batch (`PlanContext::max_batch` and the
/// trainer's `max_batch` option start here).
pub const MAX_BATCH: usize = 65_536;

/// Identifier of one built-in optimization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PassId {
    /// D-Packing: merge per-table chains into packed operations (§III-B).
    DPacking,
    /// K-Packing: same-resource kernel fusion (§III-B).
    KPacking,
    /// K-Interleaving: staggered execution groups sized by Eq. 3 (§III-C).
    KInterleaving,
    /// D-Interleaving: micro-batch pipelining sized by Eq. 2 (§III-C).
    DInterleaving,
    /// HybridHash caching: reserve a Hot-storage budget on the GPU (§III-D).
    /// A bookkeeping pass — the graph is untouched; its presence routes the
    /// Hot-storage budget into warm-up and batch sizing.
    Caching,
}

impl PassId {
    /// Every built-in pass, in the canonical full-PICASSO order.
    pub const ALL: [PassId; 5] = [
        PassId::DPacking,
        PassId::KPacking,
        PassId::KInterleaving,
        PassId::DInterleaving,
        PassId::Caching,
    ];

    /// Stable pass name (also the telemetry / metrics label).
    pub fn name(self) -> &'static str {
        match self {
            PassId::DPacking => "d_packing",
            PassId::KPacking => "k_packing",
            PassId::KInterleaving => "k_interleaving",
            PassId::DInterleaving => "d_interleaving",
            PassId::Caching => "caching",
        }
    }

    /// Packing passes must run before interleaving passes.
    pub(crate) fn is_packing(self) -> bool {
        matches!(self, PassId::DPacking | PassId::KPacking)
    }

    pub(crate) fn is_interleaving(self) -> bool {
        matches!(self, PassId::KInterleaving | PassId::DInterleaving)
    }
}

impl fmt::Display for PassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a pipeline configuration was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// A pass appears more than once (at most one application per pass).
    DuplicatePass(PassId),
    /// A packing pass is listed after an interleaving pass; interleaving
    /// planners size groups and micro-batches against the *packed* graph.
    OrderingViolation {
        /// The offending packing pass.
        packing: PassId,
        /// The interleaving pass it was listed after.
        interleaving: PassId,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::DuplicatePass(id) => {
                write!(f, "pass '{id}' listed more than once")
            }
            PipelineError::OrderingViolation {
                packing,
                interleaving,
            } => write!(
                f,
                "pass '{packing}' must run before '{interleaving}': interleaving \
                 planners size their parameters against the packed graph"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

/// A serializable, ordered pass list: the declarative description of which
/// optimizations a run applies.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Passes to apply, in order.
    pub passes: Vec<PassId>,
}

impl PipelineConfig {
    /// A pipeline applying `passes` in order (validated when a
    /// [`Pipeline`] is built from it).
    pub fn new(passes: Vec<PassId>) -> PipelineConfig {
        PipelineConfig { passes }
    }

    /// The empty pipeline (baselines and PICASSO(Base)).
    pub fn none() -> PipelineConfig {
        PipelineConfig { passes: Vec::new() }
    }

    /// Every pass in canonical order (full PICASSO).
    pub fn all() -> PipelineConfig {
        PipelineConfig {
            passes: PassId::ALL.to_vec(),
        }
    }

    /// Full PICASSO minus both packing passes (Table IV "w/o Packing").
    pub fn without_packing() -> PipelineConfig {
        PipelineConfig::all().without(&[PassId::DPacking, PassId::KPacking])
    }

    /// Full PICASSO minus both interleaving passes (Table IV
    /// "w/o Interleaving").
    pub fn without_interleaving() -> PipelineConfig {
        PipelineConfig::all().without(&[PassId::KInterleaving, PassId::DInterleaving])
    }

    /// Full PICASSO minus caching (Table IV "w/o Caching").
    pub fn without_caching() -> PipelineConfig {
        PipelineConfig::all().without(&[PassId::Caching])
    }

    /// The forward-only serving pipeline: packing (fewer, larger kernel
    /// launches amortize per-request dispatch) and caching (HybridHash as a
    /// read-mostly serving cache), but no interleaving — interleaving
    /// staggers gradient collectives against backward compute, and a serving
    /// graph has neither.
    pub fn serving() -> PipelineConfig {
        PipelineConfig {
            passes: vec![PassId::DPacking, PassId::KPacking, PassId::Caching],
        }
    }

    /// This pipeline with `removed` filtered out (ablation construction).
    pub fn without(&self, removed: &[PassId]) -> PipelineConfig {
        PipelineConfig {
            passes: self
                .passes
                .iter()
                .copied()
                .filter(|id| !removed.contains(id))
                .collect(),
        }
    }

    /// Whether `id` is part of this pipeline.
    pub fn enables(&self, id: PassId) -> bool {
        self.passes.contains(&id)
    }

    /// Validates ordering (packing before interleaving) and uniqueness
    /// (at most one application per pass).
    pub fn validate(&self) -> Result<(), PipelineError> {
        for (i, &id) in self.passes.iter().enumerate() {
            if self.passes[..i].contains(&id) {
                return Err(PipelineError::DuplicatePass(id));
            }
            if id.is_packing() {
                if let Some(&inter) = self.passes[..i].iter().find(|p| p.is_interleaving()) {
                    return Err(PipelineError::OrderingViolation {
                        packing: id,
                        interleaving: inter,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Parameters the pass planners derived for this run.
#[derive(Debug, Clone)]
pub struct DerivedPlan {
    /// Eq. 2's device-memory batch bound (0 = not derived yet).
    pub base_batch: usize,
    /// D-interleaving micro-batch count (1 = off).
    pub micro_batches: usize,
    /// K-interleaving group count (1 = off).
    pub groups: usize,
}

impl Default for DerivedPlan {
    fn default() -> Self {
        DerivedPlan {
            base_batch: 0,
            micro_batches: 1,
            groups: 1,
        }
    }
}

/// Everything a pass planner may consult: machine preset, Hot-storage
/// budget, batch cap, warm-up-derived planner inputs, explicit knob
/// overrides — plus the [`DerivedPlan`] the planners fill in as the
/// pipeline runs.
#[derive(Debug, Clone)]
pub struct PlanContext {
    /// Machine preset of the cluster the run targets.
    pub machine: MachineSpec,
    /// HybridHash Hot-storage budget in bytes (0 = caching disabled).
    pub hot_bytes: u64,
    /// Upper clamp on the derived batch (the lower clamp is [`MIN_BATCH`]).
    pub max_batch: usize,
    /// Explicit micro-batch override (None = heuristic).
    pub micro_batches: Option<usize>,
    /// Explicit group-count override (None = Eq. 3 auto).
    pub groups: Option<usize>,
    /// Planner-provided Eq. 1 mapping: embedding table → pack index (from
    /// `picasso_embedding::PackPlan::table_to_pack`, the workspace's
    /// packing planner; empty means D-Packing is a no-op).
    pub table_to_pack: BTreeMap<usize, usize>,
    /// Embedding tables excluded from K-interleaving control dependencies
    /// (the paper's *preset excluded embedding*, §III-C).
    pub excluded_tables: Vec<usize>,
    /// Parameters derived by the pass planners.
    pub derived: DerivedPlan,
}

impl PlanContext {
    /// A context for `machine` with the trainer's default batch cap and no
    /// explicit overrides.
    pub fn new(machine: MachineSpec) -> PlanContext {
        PlanContext {
            machine,
            hot_bytes: 0,
            max_batch: MAX_BATCH,
            micro_batches: None,
            groups: None,
            table_to_pack: BTreeMap::new(),
            excluded_tables: Vec::new(),
            derived: DerivedPlan::default(),
        }
    }

    /// Eq. 2's device-memory batch bound for `spec`: feature-map bytes per
    /// instance (amplified) against the memory left after dense parameters
    /// (params + grads + optimizer slots) and Hot-storage. Derived once —
    /// the first caller (normally an interleaving planner, on the packed
    /// graph) fixes the value for the rest of the run.
    pub fn plan_base_batch(&mut self, spec: &WdlSpec) -> usize {
        if self.derived.base_batch == 0 {
            let resident = spec.dense_params() * 4.0 * 3.0;
            self.derived.base_batch = d_interleaving::memory_bound_batch(
                self.machine.gpu.mem_capacity as f64,
                self.hot_bytes as f64,
                resident,
                spec.feature_map_bytes_per_instance() * MEMORY_AMPLIFICATION,
            )
            .clamp(MIN_BATCH, self.max_batch);
        }
        self.derived.base_batch
    }
}

/// Eq. 3-derived group count for the machine's interconnect bounds. Shared
/// between the K-Interleaving planner and the plan-surface lint (which
/// re-derives the capacity-respecting count to flag explicit overrides
/// that overfill a group).
pub(crate) fn eq3_auto_groups(spec: &WdlSpec, ctx: &PlanContext, batch: usize) -> usize {
    let excluded: Vec<bool> = spec.chains.iter().map(|c| c.interleave_excluded).collect();
    eq3_auto_groups_filtered(spec, ctx, batch, &excluded)
}

/// [`eq3_auto_groups`] with explicit per-chain exclusion flags, so the
/// K-Interleaving planner can evaluate a prospective exclusion without
/// cloning the spec.
fn eq3_auto_groups_filtered(
    spec: &WdlSpec,
    ctx: &PlanContext,
    batch: usize,
    excluded: &[bool],
) -> usize {
    // Params one group may process per pipeline window on its tightest
    // resource (network and PCIe both move ~4 bytes per parameter).
    let capacity_batch = k_interleaving::eq3_capacity(&[
        (ctx.machine.nic_bw * GROUP_WINDOW_SECS, 4.0),
        (ctx.machine.pcie_bw * GROUP_WINDOW_SECS, 4.0),
    ]);
    let capacity_per_instance = capacity_batch / batch.max(1) as f64;
    k_interleaving::auto_group_count_filtered(spec, capacity_per_instance, excluded).clamp(1, 11)
}

/// A validated pass sequence: holding one proves [`PipelineConfig::validate`]
/// accepted the configuration it borrows.
#[derive(Debug)]
pub struct Pipeline<'a> {
    config: &'a PipelineConfig,
}

impl<'a> Pipeline<'a> {
    /// Validates `config` and borrows it as a runnable pipeline.
    pub fn from_config(config: &'a PipelineConfig) -> Result<Pipeline<'a>, PipelineError> {
        config.validate()?;
        Ok(Pipeline { config })
    }

    /// Plans and applies every pass in order, instrumented: each pass —
    /// including ones that derive a no-op — lands a span on the tracer's
    /// `passes` track and a [`PassReport`] in the returned list. A pass
    /// plans on the spec as earlier passes left it, outside the timed
    /// window, and rewrites it in place inside [`run_pass`], so
    /// `duration_ns` times the rewrite alone. The plan-surface analyzer
    /// then runs over the transformed spec and the derived plan; its
    /// findings are returned as the third element (enabled-but-no-op
    /// passes, Eq. 2 split problems, Eq. 3 capacity violations — see
    /// `crate::lint`).
    pub fn run<C: Clock>(
        &self,
        spec: &WdlSpec,
        ctx: &mut PlanContext,
        tracer: &Tracer<C>,
    ) -> (WdlSpec, Vec<PassReport>, Vec<picasso_lint::Diagnostic>) {
        let mut spec = spec.clone();
        let mut reports = Vec::with_capacity(self.config.passes.len());
        for &id in &self.config.passes {
            let name = id.name();
            let report = match id {
                // Without a planner mapping there is nothing to merge.
                PassId::DPacking => run_pass(name, &mut spec, tracer, |s| {
                    if !ctx.table_to_pack.is_empty() {
                        *s = d_packing::apply(s, &ctx.table_to_pack);
                    }
                }),
                PassId::KPacking => run_pass(name, &mut spec, tracer, |s| *s = k_packing::apply(s)),
                PassId::KInterleaving => {
                    // Exclusion is part of the pass: excluded chains (flags
                    // as the rewrite will set them) neither count toward the
                    // Eq. 3 volume nor appear in the affinity order.
                    let base = ctx.plan_base_batch(&spec);
                    let excluded = k_interleaving::exclusion_flags(&spec, &ctx.excluded_tables);
                    ctx.derived.groups = match ctx.groups {
                        Some(g) => g,
                        None => eq3_auto_groups_filtered(&spec, ctx, base, &excluded),
                    };
                    let order = k_interleaving::order_by_affinity(&spec, &excluded);
                    run_pass(name, &mut spec, tracer, |s| {
                        k_interleaving::mark_excluded_in_place(s, &ctx.excluded_tables);
                        k_interleaving::assign_groups(s, ctx.derived.groups, &order);
                    })
                }
                PassId::DInterleaving => {
                    // Fix the Eq. 2 bound on the spec as it stands (packed,
                    // pre-split); the trainer scales the final batch by the
                    // micro count against it.
                    ctx.plan_base_batch(&spec);
                    ctx.derived.micro_batches = ctx
                        .micro_batches
                        .unwrap_or_else(|| d_interleaving::default_micro_batches(&spec));
                    run_pass(name, &mut spec, tracer, |s| {
                        *s = d_interleaving::apply(s, ctx.derived.micro_batches);
                    })
                }
                // Bookkeeping only: the Hot-storage budget travels in
                // `ctx.hot_bytes` (warm-up and Eq. 2 batch sizing); the
                // logical graph is untouched.
                PassId::Caching => run_pass(name, &mut spec, tracer, |_| {}),
            };
            reports.push(report);
        }
        let diagnostics = crate::lint::lint_plan(&spec, ctx, self.config, &reports);
        (spec, reports, diagnostics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EmbeddingChain, MlpSpec};
    use picasso_obs::ManualClock;

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

    fn ctx() -> PlanContext {
        PlanContext::new(MachineSpec::eflops())
    }

    #[test]
    fn full_config_validates_and_lists_names() {
        let cfg = PipelineConfig::all();
        cfg.validate().unwrap();
        let names: Vec<&str> = cfg.passes.iter().map(|id| id.name()).collect();
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
        assert!(cfg.enables(PassId::Caching));
        assert!(!PipelineConfig::none().enables(PassId::DPacking));
    }

    #[test]
    fn ablation_constructors_drop_the_named_passes() {
        assert!(!PipelineConfig::without_packing().enables(PassId::DPacking));
        assert!(!PipelineConfig::without_packing().enables(PassId::KPacking));
        assert!(PipelineConfig::without_packing().enables(PassId::Caching));
        assert!(!PipelineConfig::without_interleaving().enables(PassId::DInterleaving));
        assert!(!PipelineConfig::without_interleaving().enables(PassId::KInterleaving));
        assert!(!PipelineConfig::without_caching().enables(PassId::Caching));
        assert!(PipelineConfig::without_caching().enables(PassId::DPacking));
        for cfg in [
            PipelineConfig::without_packing(),
            PipelineConfig::without_interleaving(),
            PipelineConfig::without_caching(),
        ] {
            cfg.validate().unwrap();
            assert_ne!(cfg, PipelineConfig::all());
        }
    }

    #[test]
    fn duplicate_passes_are_rejected() {
        let cfg = PipelineConfig::new(vec![PassId::DPacking, PassId::DPacking]);
        assert_eq!(
            cfg.validate(),
            Err(PipelineError::DuplicatePass(PassId::DPacking))
        );
        assert!(Pipeline::from_config(&cfg).is_err());
    }

    #[test]
    fn packing_after_interleaving_is_rejected() {
        let cfg = PipelineConfig::new(vec![PassId::KInterleaving, PassId::DPacking]);
        assert_eq!(
            cfg.validate(),
            Err(PipelineError::OrderingViolation {
                packing: PassId::DPacking,
                interleaving: PassId::KInterleaving,
            })
        );
        // Caching is unordered with respect to everything.
        PipelineConfig::new(vec![
            PassId::Caching,
            PassId::DPacking,
            PassId::KInterleaving,
        ])
        .validate()
        .unwrap();
    }

    #[test]
    fn serving_preset_is_valid_and_excludes_interleaving() {
        let cfg = PipelineConfig::serving();
        cfg.validate().unwrap();
        assert!(cfg.enables(PassId::DPacking));
        assert!(cfg.enables(PassId::KPacking));
        assert!(cfg.enables(PassId::Caching));
        assert!(!cfg.enables(PassId::KInterleaving));
        assert!(!cfg.enables(PassId::DInterleaving));
        Pipeline::from_config(&cfg).unwrap();
    }

    #[test]
    fn pipeline_records_a_report_per_configured_pass() {
        // Interleaving passes that derive a no-op (1 group / 1 micro-batch
        // on this tiny spec with explicit overrides) still report.
        let cfg = PipelineConfig::new(vec![PassId::KInterleaving, PassId::DInterleaving]);
        let pipeline = Pipeline::from_config(&cfg).unwrap();
        let mut ctx = ctx();
        ctx.groups = Some(1);
        ctx.micro_batches = Some(1);
        let tracer = Tracer::new(ManualClock::new());
        let base = spec(6);
        let (out, reports, diags) = pipeline.run(&base, &mut ctx, &tracer);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].pass, "k_interleaving");
        assert_eq!(reports[1].pass, "d_interleaving");
        for r in &reports {
            assert_eq!(r.ops_before, r.ops_after, "{} should be a no-op", r.pass);
        }
        assert_eq!(out.micro_batches, 1);
        assert_eq!(out.group_count(), 1);
        assert_eq!(tracer.spans().len(), 2);
        // Both passes were enabled but planned no-ops: the plan analyzer
        // flags each as a warning, never an error.
        let noops: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "plan.noop-pass")
            .collect();
        assert_eq!(noops.len(), 2, "{diags:?}");
        assert!(diags
            .iter()
            .all(|d| d.severity != picasso_lint::Severity::Error));
    }

    #[test]
    fn full_pipeline_packs_and_interleaves() {
        let base = spec(40);
        let mut ctx = ctx();
        ctx.table_to_pack = (0..40).map(|t| (t, t / 10)).collect();
        ctx.groups = Some(2);
        ctx.micro_batches = Some(3);
        let cfg = PipelineConfig::all();
        let pipeline = Pipeline::from_config(&cfg).unwrap();
        let tracer = Tracer::new(ManualClock::new());
        let (out, reports, diags) = pipeline.run(&base, &mut ctx, &tracer);
        assert!(
            diags
                .iter()
                .all(|d| d.severity != picasso_lint::Severity::Error),
            "{diags:?}"
        );
        assert_eq!(out.chains.len(), 4);
        assert_eq!(out.group_count(), 2);
        assert_eq!(out.micro_batches, 3);
        assert_eq!(reports.len(), 5);
        assert!(reports[0].packing_ratio() < 1.0, "d_packing packs");
        assert_eq!(ctx.derived.groups, 2);
        assert_eq!(ctx.derived.micro_batches, 3);
        out.validate().unwrap();
    }

    #[test]
    fn exclusion_is_part_of_k_interleaving() {
        let base = spec(8);
        let mut ctx = ctx();
        ctx.excluded_tables = vec![7];
        ctx.groups = Some(4);
        let cfg = PipelineConfig::new(vec![PassId::KInterleaving]);
        let pipeline = Pipeline::from_config(&cfg).unwrap();
        let tracer = Tracer::new(ManualClock::new());
        let (out, _, _) = pipeline.run(&base, &mut ctx, &tracer);
        let excluded: Vec<_> = out
            .chains
            .iter()
            .filter(|c| c.interleave_excluded)
            .collect();
        assert_eq!(excluded.len(), 1);
        assert_eq!(excluded[0].tables, vec![7]);
        assert_eq!(excluded[0].group, 0);
    }

    #[test]
    fn base_batch_derivation_is_cached_and_clamped() {
        let mut ctx = ctx();
        let s = spec(4);
        let b = ctx.plan_base_batch(&s);
        assert!(b >= MIN_BATCH && b <= ctx.max_batch);
        // Cached: changing the budget afterwards does not re-derive.
        ctx.hot_bytes = u64::MAX;
        assert_eq!(ctx.plan_base_batch(&s), b);
    }
}
