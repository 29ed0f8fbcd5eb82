//! Spec- and plan-surface rule traversals for `picasso-lint`.
//!
//! The diagnostics model, rule registry, and stage-graph rules live in the
//! foundation crate `picasso-lint`; this module implements the rules that
//! need to walk graph-crate data: [`lint_spec`] inspects a [`WdlSpec`]
//! before any pass runs, [`lint_plan`] inspects a planned pipeline (the
//! transformed spec, the shared [`PlanContext`], the configured pass list,
//! and the per-pass reports). [`crate::WdlSpec::validate`] is the
//! error-severity subset of [`lint_spec`]; `Pipeline::run` appends
//! [`lint_plan`]'s findings to its return value.

use std::collections::BTreeSet;

use picasso_lint::{Diagnostic, Severity, Span};

use crate::passes::pipeline::{eq3_auto_groups, PassId, PipelineConfig, PlanContext};
use crate::passes::report::PassReport;
use crate::spec::{ModuleKind, WdlSpec};

/// Runs every spec-surface rule on `spec`.
///
/// `table_dims` is an optional oracle holding, at each embedding table id,
/// its true embedding dim from the dataset (`None` for an id no field
/// uses; ids past the end are unknown too): a chain stores a single `dim`
/// for all its tables, so Eq. 1 dim homogeneity (`spec.dim-mismatch`) is
/// only checkable against an external source of per-table dims. Pass
/// `None` when no dataset is at hand; the other rules still run.
///
/// Fields are indexed densely by id, like the lowering's field-to-chain
/// table: the per-field state is sized by the largest field a chain
/// produces.
pub fn lint_spec(spec: &WdlSpec, table_dims: Option<&[Option<usize>]>) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // spec.duplicate-field: each feature field belongs to exactly one
    // chain (Eq. 1 assigns each field to one packed shard). A field is
    // produced exactly when it has an owner.
    let max_field = spec
        .chains
        .iter()
        .flat_map(|c| c.fields.iter())
        .copied()
        .max()
        .map_or(0, |f| f as usize + 1);
    let mut owner = vec![usize::MAX; max_field];
    for (ci, chain) in spec.chains.iter().enumerate() {
        for &f in &chain.fields {
            let first = owner[f as usize];
            if first != usize::MAX {
                out.push(
                    Diagnostic::new(
                        "spec.duplicate-field",
                        Severity::Error,
                        Span::Chain(ci),
                        format!("field {f} is already produced by chain {first}"),
                    )
                    .with_hint("assign each feature field to exactly one chain"),
                );
            } else {
                owner[f as usize] = ci;
            }
        }
    }

    // spec.empty-chain (a chain producing nothing still lowers to stages
    // that gate its group) and spec.zero-cardinality.
    for (ci, chain) in spec.chains.iter().enumerate() {
        if chain.fields.is_empty() {
            out.push(
                Diagnostic::new(
                    "spec.empty-chain",
                    Severity::Error,
                    Span::Chain(ci),
                    "chain produces no feature fields",
                )
                .with_hint("give the chain at least one field or remove it"),
            );
        }
        let mut zero = Vec::new();
        if chain.tables.is_empty() {
            zero.push("no embedding tables");
        }
        if chain.dim == 0 {
            zero.push("embedding dim is 0");
        }
        if chain.ids_per_instance <= 0.0 {
            zero.push("ids per instance is not positive");
        }
        if !zero.is_empty() {
            out.push(
                Diagnostic::new(
                    "spec.zero-cardinality",
                    Severity::Error,
                    Span::Chain(ci),
                    format!("chain has zero lookup volume: {}", zero.join(", ")),
                )
                .with_hint("chains must name tables with a positive dim and lookup rate"),
            );
        }
        // spec.dim-mismatch: Eq. 1 packs only dim-homogeneous tables.
        if let Some(dims) = table_dims {
            let bad: Vec<String> = chain
                .tables
                .iter()
                .filter_map(|&t| {
                    dims.get(t)
                        .copied()
                        .flatten()
                        .filter(|&d| d != chain.dim)
                        .map(|d| format!("table {t} has dim {d}"))
                })
                .collect();
            if !bad.is_empty() {
                out.push(
                    Diagnostic::new(
                        "spec.dim-mismatch",
                        Severity::Error,
                        Span::Chain(ci),
                        format!(
                            "chain dim is {} but {} (Eq. 1 packs only dim-homogeneous tables)",
                            chain.dim,
                            bad.join(", "),
                        ),
                    )
                    .with_hint("pack tables with equal dims, or split the chain"),
                );
            }
        }
    }

    // spec.dangling-input / spec.no-input-module.
    // Only chain fields are ever asked whether they are consumed, so a
    // field past `max_field` needs no slot.
    let mut consumed = vec![false; max_field];
    for (mi, module) in spec.modules.iter().enumerate() {
        // A DnnTower with no embedding inputs is a dense tower over the
        // numeric features (DLRM's bottom MLP); every other module kind
        // exists to combine embedding outputs and needs at least one.
        if module.input_fields.is_empty() && module.kind != ModuleKind::DnnTower {
            out.push(
                Diagnostic::new(
                    "spec.no-input-module",
                    Severity::Error,
                    Span::Module(mi),
                    format!("module {:?} consumes zero fields", module.kind),
                )
                .with_hint(
                    "interaction modules must combine at least one embedding output \
                     (only dense DnnTowers may take zero)",
                ),
            );
        }
        for &f in &module.input_fields {
            let produced = match consumed.get_mut(f as usize) {
                Some(seen) => {
                    *seen = true;
                    owner[f as usize] != usize::MAX
                }
                None => false,
            };
            if !produced {
                out.push(
                    Diagnostic::new(
                        "spec.dangling-input",
                        Severity::Error,
                        Span::Module(mi),
                        format!(
                            "module {:?} consumes field {f} not produced by any chain",
                            module.kind
                        ),
                    )
                    .with_hint("produce the field in a chain or drop it from the module"),
                );
            }
        }
    }

    // spec.unused-field: dead embedding output wastes Gather/Shuffle
    // volume. Only meaningful when modules exist (with none, the MLP
    // consumes every chain directly).
    if !spec.modules.is_empty() {
        for (ci, chain) in spec.chains.iter().enumerate() {
            let unused: Vec<String> = chain
                .fields
                .iter()
                .filter(|&&f| !consumed[f as usize])
                .map(|f| f.to_string())
                .collect();
            if !unused.is_empty() {
                out.push(
                    Diagnostic::new(
                        "spec.unused-field",
                        Severity::Warn,
                        Span::Chain(ci),
                        format!("field(s) {} are consumed by no module", unused.join(", ")),
                    )
                    .with_hint("drop dead fields to cut embedding-layer volume"),
                );
            }
        }
    }

    // spec.zero-micro-batches (Eq. 2 needs at least one split).
    if spec.micro_batches == 0 {
        out.push(
            Diagnostic::new(
                "spec.zero-micro-batches",
                Severity::Error,
                Span::Spec,
                "micro_batches is 0; D-interleaving needs at least one micro-batch",
            )
            .with_hint("set micro_batches to 1 to disable D-interleaving"),
        );
    }

    // spec.group-dep-range: declared group dependencies must point at
    // populated groups to have any effect.
    let domain = spec.group_count() as u32;
    for &(from, to) in &spec.group_deps {
        if from >= domain || to >= domain {
            out.push(
                Diagnostic::new(
                    "spec.group-dep-range",
                    Severity::Warn,
                    Span::Spec,
                    format!(
                        "group dependency ({from} -> {to}) references a group outside \
                         the populated range 0..{domain} and has no effect",
                    ),
                )
                .with_hint("declare dependencies between assigned group ids only"),
            );
        }
    }

    out
}

/// Runs every plan-surface rule on a planned pipeline: `spec` is the
/// transformed graph after all passes, `ctx` the shared planning context
/// (with its `derived` plan filled in), `config` the configured pass list,
/// and `reports` the per-pass op accounting.
pub fn lint_plan(
    spec: &WdlSpec,
    ctx: &PlanContext,
    config: &PipelineConfig,
    reports: &[PassReport],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // plan.pass-duplicate: the passes are idempotent rewrites; running
    // one twice double-applies its equation.
    let mut seen: Vec<PassId> = Vec::new();
    for &id in &config.passes {
        if seen.contains(&id) {
            out.push(
                Diagnostic::new(
                    "plan.pass-duplicate",
                    Severity::Error,
                    Span::Pass(id.name().to_string()),
                    format!("pass {} is listed more than once", id.name()),
                )
                .with_hint("list each pass at most once"),
            );
        } else {
            seen.push(id);
        }
    }

    // plan.pass-order: interleaving groups are formed over the packed
    // graph (§III-C), so packing must come first.
    let mut interleaving_seen: Option<PassId> = None;
    for &id in &config.passes {
        if id.is_interleaving() {
            interleaving_seen.get_or_insert(id);
        } else if id.is_packing() {
            if let Some(inter) = interleaving_seen {
                out.push(
                    Diagnostic::new(
                        "plan.pass-order",
                        Severity::Error,
                        Span::Pass(id.name().to_string()),
                        format!(
                            "packing pass {} runs after interleaving pass {}",
                            id.name(),
                            inter.name(),
                        ),
                    )
                    .with_hint("order packing passes before interleaving passes"),
                );
            }
        }
    }

    // plan.micro-split / plan.micro-uneven: Eq. 2 splits the base batch
    // into micro-batches.
    let base = ctx.derived.base_batch;
    let micro = ctx.derived.micro_batches;
    if base > 0 && micro > 1 {
        if micro > base {
            out.push(
                Diagnostic::new(
                    "plan.micro-split",
                    Severity::Error,
                    Span::Pass(PassId::DInterleaving.name().to_string()),
                    format!("{micro} micro-batches cannot split a base batch of {base} instances"),
                )
                .with_hint("derive fewer micro-batches or raise the batch"),
            );
        } else if !base.is_multiple_of(micro) {
            out.push(
                Diagnostic::new(
                    "plan.micro-uneven",
                    Severity::Info,
                    Span::Pass(PassId::DInterleaving.name().to_string()),
                    format!(
                        "base batch {base} does not divide into {micro} micro-batches; \
                         the last split carries the remainder",
                    ),
                )
                .with_hint("a divisible batch keeps Eq. 2 splits uniform"),
            );
        }
    }

    // plan.group-capacity: an explicit group override below the Eq. 3
    // capacity-respecting count overfills each group's window.
    if config.enables(PassId::KInterleaving) && base > 0 && ctx.derived.groups > 0 {
        let needed = eq3_auto_groups(spec, ctx, base);
        if ctx.derived.groups < needed {
            out.push(
                Diagnostic::new(
                    "plan.group-capacity",
                    Severity::Warn,
                    Span::Pass(PassId::KInterleaving.name().to_string()),
                    format!(
                        "{} group(s) leave per-group volume above the Eq. 3 capacity \
                         ({needed} needed for this machine's NIC/PCIe window)",
                        ctx.derived.groups,
                    ),
                )
                .with_hint("raise the group count or widen the pipeline window"),
            );
        }
    }

    // plan.excluded-unknown: preset-excluded tables must exist to take
    // effect.
    let covered: BTreeSet<usize> = spec.chains.iter().flat_map(|c| c.tables.clone()).collect();
    let unknown: Vec<String> = ctx
        .excluded_tables
        .iter()
        .filter(|t| !covered.contains(t))
        .map(|t| t.to_string())
        .collect();
    if !unknown.is_empty() {
        out.push(
            Diagnostic::new(
                "plan.excluded-unknown",
                Severity::Warn,
                Span::Pass(PassId::KInterleaving.name().to_string()),
                format!(
                    "excluded table(s) {} are covered by no chain",
                    unknown.join(", ")
                ),
            )
            .with_hint("exclude only table ids the model actually embeds"),
        );
    }

    // plan.noop-pass: an enabled pass that planned a no-op usually hides
    // a configuration mistake (downgraded to a warning by design).
    let noop = |id: PassId| -> Option<String> {
        let report = reports.iter().find(|r| r.pass == id.name());
        match id {
            PassId::DPacking => {
                if ctx.table_to_pack.is_empty() {
                    Some("no Eq. 1 table-to-pack mapping was planned".to_string())
                } else if report.is_some_and(|r| r.chains_before == r.chains_after) {
                    Some("the planned mapping merged no chains".to_string())
                } else {
                    None
                }
            }
            PassId::KPacking => report
                .filter(|r| r.ops_before == r.ops_after)
                .map(|_| "no kernels were fused".to_string()),
            PassId::KInterleaving => {
                (ctx.derived.groups <= 1).then(|| "planned a single group".to_string())
            }
            PassId::DInterleaving => {
                (ctx.derived.micro_batches <= 1).then(|| "planned a single micro-batch".to_string())
            }
            PassId::Caching => {
                (ctx.hot_bytes == 0).then(|| "Hot-storage budget is zero bytes".to_string())
            }
        }
    };
    for &id in &config.passes {
        if let Some(why) = noop(id) {
            out.push(
                Diagnostic::new(
                    "plan.noop-pass",
                    Severity::Warn,
                    Span::Pass(id.name().to_string()),
                    format!("pass {} is enabled but planned a no-op: {why}", id.name()),
                )
                .with_hint("disable the pass or fix the plan inputs"),
            );
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{EmbeddingChain, InteractionModule, MlpSpec, ModuleKind};
    use picasso_sim::MachineSpec;

    fn module(fields: Vec<u32>) -> InteractionModule {
        InteractionModule {
            kind: ModuleKind::DnnTower,
            input_fields: fields,
            flops_per_instance: 1000.0,
            bytes_per_instance: 64.0,
            params: 500.0,
            output_width: 16,
            micro_ops_forward: 20,
        }
    }

    fn spec(n_chains: usize) -> WdlSpec {
        let chains: Vec<EmbeddingChain> = (0..n_chains)
            .map(|t| EmbeddingChain::for_table(t, 8, vec![t as u32], 1.0))
            .collect();
        let fields: Vec<u32> = (0..n_chains as u32).collect();
        WdlSpec {
            name: "lint-test".into(),
            io_bytes_per_instance: 100.0,
            chains,
            modules: vec![module(fields)],
            mlp: MlpSpec::new(16, vec![64, 1]),
            micro_batches: 1,
            group_deps: Vec::new(),
        }
    }

    fn ctx() -> PlanContext {
        PlanContext::new(MachineSpec::eflops())
    }

    fn rules(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn well_formed_spec_lints_clean() {
        assert_eq!(lint_spec(&spec(4), None), Vec::new());
    }

    #[test]
    fn duplicate_field_triggers_with_both_chains_named() {
        let mut s = spec(3);
        s.chains[2].fields = vec![0];
        s.modules[0].input_fields = vec![0, 1];
        let diags = lint_spec(&s, None);
        assert!(rules(&diags).contains(&"spec.duplicate-field"), "{diags:?}");
        let d = diags
            .iter()
            .find(|d| d.rule == "spec.duplicate-field")
            .unwrap();
        assert_eq!(d.span, Span::Chain(2));
        assert!(d.message.contains("chain 0"));
    }

    #[test]
    fn dangling_input_triggers_on_unknown_field() {
        let mut s = spec(2);
        s.modules[0].input_fields.push(42);
        let diags = lint_spec(&s, None);
        assert!(rules(&diags).contains(&"spec.dangling-input"), "{diags:?}");
    }

    #[test]
    fn empty_chain_and_no_input_module_trigger() {
        let mut s = spec(2);
        s.chains[0].fields.clear();
        // An Attention module exists to combine embeddings; zero inputs is
        // an error for it (unlike a dense DnnTower, tested below).
        s.modules[0].kind = ModuleKind::Attention;
        s.modules[0].input_fields.clear();
        let diags = lint_spec(&s, None);
        assert!(rules(&diags).contains(&"spec.empty-chain"));
        assert!(rules(&diags).contains(&"spec.no-input-module"));
    }

    #[test]
    fn dense_dnn_tower_may_take_zero_embedding_inputs() {
        // DLRM's bottom MLP: a DnnTower over the numeric features only.
        let mut s = spec(2);
        s.modules[0].input_fields.clear();
        let diags = lint_spec(&s, None);
        assert!(
            !rules(&diags).contains(&"spec.no-input-module"),
            "{diags:?}"
        );
    }

    #[test]
    fn zero_cardinality_triggers_on_each_degenerate_axis() {
        let mut s = spec(3);
        s.chains[0].tables.clear();
        s.chains[1].dim = 0;
        s.chains[2].ids_per_instance = 0.0;
        let diags = lint_spec(&s, None);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "spec.zero-cardinality")
            .collect();
        assert_eq!(hits.len(), 3, "{diags:?}");
    }

    #[test]
    fn dim_mismatch_needs_the_oracle_and_triggers_with_it() {
        let s = spec(2);
        assert!(lint_spec(&s, None).is_empty());
        // Table 1 truly has dim 16, but its chain claims 8.
        let dims = [Some(8), Some(16)];
        let diags = lint_spec(&s, Some(&dims));
        let d = diags
            .iter()
            .find(|d| d.rule == "spec.dim-mismatch")
            .expect("mismatch");
        assert_eq!(d.span, Span::Chain(1));
        assert_eq!(d.severity, Severity::Error);
        // A matching oracle stays clean.
        let ok = [Some(8), Some(8)];
        assert!(lint_spec(&s, Some(&ok)).is_empty());
    }

    #[test]
    fn unused_field_warns_only_when_modules_exist() {
        let mut s = spec(3);
        s.modules[0].input_fields = vec![0, 1]; // field 2 now dead
        let diags = lint_spec(&s, None);
        let d = diags
            .iter()
            .find(|d| d.rule == "spec.unused-field")
            .expect("unused");
        assert_eq!(d.severity, Severity::Warn);
        assert_eq!(d.span, Span::Chain(2));
        // With no modules at all the MLP consumes chains directly.
        s.modules.clear();
        assert!(lint_spec(&s, None).is_empty());
    }

    #[test]
    fn zero_micro_batches_triggers() {
        let mut s = spec(2);
        s.micro_batches = 0;
        assert!(rules(&lint_spec(&s, None)).contains(&"spec.zero-micro-batches"));
    }

    #[test]
    fn group_dep_range_warns_on_unpopulated_groups() {
        let mut s = spec(4);
        for (i, c) in s.chains.iter_mut().enumerate() {
            c.group = (i as u32) % 2; // groups 0 and 1 populated
        }
        s.group_deps = vec![(0, 1), (1, 5)];
        let diags = lint_spec(&s, None);
        let hits: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "spec.group-dep-range")
            .collect();
        assert_eq!(hits.len(), 1, "{diags:?}");
        assert!(hits[0].message.contains("(1 -> 5)"));
        s.group_deps = vec![(0, 1)];
        assert!(lint_spec(&s, None).is_empty());
    }

    #[test]
    fn duplicate_and_misordered_passes_are_plan_errors() {
        let s = spec(2);
        let c = ctx();
        let cfg = PipelineConfig::new(vec![
            PassId::KInterleaving,
            PassId::DPacking,
            PassId::KInterleaving,
        ]);
        let diags = lint_plan(&s, &c, &cfg, &[]);
        assert!(rules(&diags).contains(&"plan.pass-duplicate"), "{diags:?}");
        assert!(rules(&diags).contains(&"plan.pass-order"), "{diags:?}");
        // The canonical order is clean on both rules.
        let diags = lint_plan(&s, &c, &PipelineConfig::all(), &[]);
        assert!(!rules(&diags).contains(&"plan.pass-duplicate"));
        assert!(!rules(&diags).contains(&"plan.pass-order"));
    }

    #[test]
    fn micro_split_errors_when_splits_exceed_instances() {
        let s = spec(2);
        let mut c = ctx();
        c.derived.base_batch = 4;
        c.derived.micro_batches = 8;
        let diags = lint_plan(&s, &c, &PipelineConfig::none(), &[]);
        assert!(rules(&diags).contains(&"plan.micro-split"), "{diags:?}");
        c.derived.micro_batches = 2;
        let diags = lint_plan(&s, &c, &PipelineConfig::none(), &[]);
        assert!(!rules(&diags).contains(&"plan.micro-split"));
    }

    #[test]
    fn uneven_micro_split_is_informational() {
        let s = spec(2);
        let mut c = ctx();
        c.derived.base_batch = 1000;
        c.derived.micro_batches = 3;
        let diags = lint_plan(&s, &c, &PipelineConfig::none(), &[]);
        let d = diags
            .iter()
            .find(|d| d.rule == "plan.micro-uneven")
            .expect("uneven");
        assert_eq!(d.severity, Severity::Info);
        c.derived.base_batch = 999;
        let diags = lint_plan(&s, &c, &PipelineConfig::none(), &[]);
        assert!(!rules(&diags).contains(&"plan.micro-uneven"));
    }

    #[test]
    fn group_capacity_warns_on_starved_override_only() {
        // Huge per-chain volume so Eq. 3 wants many groups.
        let mut s = spec(8);
        for c in s.chains.iter_mut() {
            c.ids_per_instance = 1e7;
        }
        let mut c = ctx();
        c.derived.base_batch = 1024;
        c.derived.groups = 1; // starved override
        let cfg = PipelineConfig::new(vec![PassId::KInterleaving]);
        let diags = lint_plan(&s, &c, &cfg, &[]);
        assert!(rules(&diags).contains(&"plan.group-capacity"), "{diags:?}");
        // The capacity-respecting count itself is clean.
        c.derived.groups = eq3_auto_groups(&s, &c, 1024);
        let diags = lint_plan(&s, &c, &cfg, &[]);
        assert!(!rules(&diags).contains(&"plan.group-capacity"), "{diags:?}");
        // And the rule only applies when K-Interleaving is enabled.
        c.derived.groups = 1;
        let diags = lint_plan(&s, &c, &PipelineConfig::none(), &[]);
        assert!(!rules(&diags).contains(&"plan.group-capacity"));
    }

    #[test]
    fn unknown_excluded_tables_warn() {
        let s = spec(3);
        let mut c = ctx();
        c.excluded_tables = vec![1, 99];
        let diags = lint_plan(&s, &c, &PipelineConfig::none(), &[]);
        let d = diags
            .iter()
            .find(|d| d.rule == "plan.excluded-unknown")
            .expect("unknown");
        assert!(d.message.contains("99"));
        assert!(!d.message.contains('1'), "{}", d.message);
        c.excluded_tables = vec![1];
        assert!(lint_plan(&s, &c, &PipelineConfig::none(), &[]).is_empty());
    }

    #[test]
    fn noop_passes_warn_per_cause() {
        let s = spec(2);
        let mut c = ctx();
        c.derived.groups = 1;
        c.derived.micro_batches = 1;
        c.hot_bytes = 0;
        // table_to_pack left empty: D-Packing planned nothing.
        let cfg = PipelineConfig::all();
        let diags = lint_plan(&s, &c, &cfg, &[]);
        let noops: Vec<_> = diags
            .iter()
            .filter(|d| d.rule == "plan.noop-pass")
            .collect();
        assert_eq!(noops.len(), 4, "{diags:?}"); // all but k_packing (needs a report)
        assert!(noops.iter().all(|d| d.severity == Severity::Warn));
        // A live plan is clean.
        c.table_to_pack = [(0, 0), (1, 0)].into_iter().collect();
        c.derived.groups = 2;
        c.derived.micro_batches = 2;
        c.hot_bytes = 1 << 20;
        let report = |pass: &str, before: u64, after: u64| PassReport {
            pass: pass.into(),
            ops_before: before,
            ops_after: after,
            chains_before: 2,
            chains_after: 1,
            duration_ns: 0,
        };
        let reports = vec![report("d_packing", 16, 8), report("k_packing", 8, 6)];
        let diags = lint_plan(&s, &c, &cfg, &reports);
        assert!(!rules(&diags).contains(&"plan.noop-pass"), "{diags:?}");
        // A k_packing report that fused nothing triggers its arm.
        let reports = vec![report("d_packing", 16, 8), report("k_packing", 8, 8)];
        let diags = lint_plan(&s, &c, &cfg, &reports);
        assert!(rules(&diags).contains(&"plan.noop-pass"));
    }

    #[test]
    fn every_emitted_rule_id_is_registered() {
        // Force a pile of diagnostics and check each id against the
        // registry, so docs and emissions cannot drift apart.
        let mut s = spec(3);
        s.chains[0].fields.clear();
        s.chains[1].dim = 0;
        s.micro_batches = 0;
        s.group_deps = vec![(0, 9)];
        s.modules[0].input_fields = vec![2, 42];
        s.modules.push(module(vec![]));
        let mut c = ctx();
        c.derived.base_batch = 10;
        c.derived.micro_batches = 20;
        c.excluded_tables = vec![77];
        let cfg = PipelineConfig::new(vec![PassId::KInterleaving, PassId::DPacking]);
        let mut diags = lint_spec(&s, None);
        diags.extend(lint_plan(&s, &c, &cfg, &[]));
        assert!(diags.len() >= 8, "{diags:?}");
        for d in &diags {
            assert!(
                picasso_lint::rules::rule(&d.rule).is_some(),
                "unregistered rule id {}",
                d.rule
            );
        }
    }
}
