//! The rule registry: every rule id the analyzer can emit, its surface,
//! default severity, and paper grounding.
//!
//! Rule ids are stable strings of the form `surface.rule-name`. The
//! registry is the single source of truth for documentation (`DESIGN.md`
//! §11 is generated from the same facts) and lets renderers and tests
//! check that no diagnostic is emitted under an unregistered id.

use crate::Severity;

/// Which artifact a rule inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// The `WdlSpec` before any pass runs.
    Spec,
    /// A planned pass pipeline (`PlanContext` + pass reports).
    Plan,
    /// The lowered execution stage graph.
    Stage,
    /// A run configuration (fault plan + checkpoint policy).
    Run,
    /// The may-happen-in-parallel relation over declared effect sets
    /// (static over the stage graph, dynamic via the trace cross-check).
    Race,
}

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable id, `surface.rule-name`.
    pub id: &'static str,
    /// Which artifact the rule inspects.
    pub surface: Surface,
    /// Severity the rule emits at (fixed per rule).
    pub severity: Severity,
    /// One-line description.
    pub summary: &'static str,
    /// Where in the paper the invariant comes from.
    pub grounding: &'static str,
}

/// Every rule the analyzer can emit, grouped by surface.
pub const RULES: &[RuleInfo] = &[
    // ------------------------------------------------------------------
    // Spec surface.
    // ------------------------------------------------------------------
    RuleInfo {
        id: "spec.duplicate-field",
        surface: Surface::Spec,
        severity: Severity::Error,
        summary: "a feature field is produced by more than one embedding chain",
        grounding: "Eq. 1 sharding assigns each field to exactly one packed shard",
    },
    RuleInfo {
        id: "spec.dangling-input",
        surface: Surface::Spec,
        severity: Severity::Error,
        summary: "an interaction module consumes a field no chain produces",
        grounding: "Fig. 2 WDL dataflow: every module input is an embedding output",
    },
    RuleInfo {
        id: "spec.empty-chain",
        surface: Surface::Spec,
        severity: Severity::Error,
        summary: "an embedding chain produces no fields",
        grounding: "a chain with no fields lowers to zero-volume stages that still gate groups",
    },
    RuleInfo {
        id: "spec.no-input-module",
        surface: Surface::Spec,
        severity: Severity::Error,
        summary: "an interaction module consumes zero fields",
        grounding: "Fig. 2 WDL dataflow: interaction ops combine embedding outputs",
    },
    RuleInfo {
        id: "spec.zero-cardinality",
        surface: Surface::Spec,
        severity: Severity::Error,
        summary: "a chain has no tables, a zero embedding dim, or no ids per instance",
        grounding: "Eq. 1/§III-B: packed shards are sized by table count × dim × lookups",
    },
    RuleInfo {
        id: "spec.dim-mismatch",
        surface: Surface::Spec,
        severity: Severity::Error,
        summary: "a chain packs tables whose embedding dims disagree with the chain dim",
        grounding: "Eq. 1: D-Packing merges only dim-homogeneous tables into one shard",
    },
    RuleInfo {
        id: "spec.unused-field",
        surface: Surface::Spec,
        severity: Severity::Warn,
        summary: "a produced field is consumed by no interaction module",
        grounding: "dead embedding output wastes Gather/Shuffle volume (§III-B)",
    },
    RuleInfo {
        id: "spec.zero-micro-batches",
        surface: Surface::Spec,
        severity: Severity::Error,
        summary: "micro_batches is zero",
        grounding: "Eq. 2: D-Interleaving divides the batch into at least one micro-batch",
    },
    RuleInfo {
        id: "spec.group-dep-range",
        surface: Surface::Spec,
        severity: Severity::Warn,
        summary: "a declared group dependency references a group no chain belongs to",
        grounding: "Fig. 8c: control dependencies only exist between populated groups",
    },
    // ------------------------------------------------------------------
    // Plan surface.
    // ------------------------------------------------------------------
    RuleInfo {
        id: "plan.pass-duplicate",
        surface: Surface::Plan,
        severity: Severity::Error,
        summary: "the same pass is listed twice in the pipeline",
        grounding: "§III passes are idempotent rewrites; re-running one double-applies Eq. 1/2/3",
    },
    RuleInfo {
        id: "plan.pass-order",
        surface: Surface::Plan,
        severity: Severity::Error,
        summary: "a packing pass runs after an interleaving pass",
        grounding: "§III-C: interleaving groups are formed over the packed graph",
    },
    RuleInfo {
        id: "plan.micro-split",
        surface: Surface::Plan,
        severity: Severity::Error,
        summary: "the derived micro-batch count cannot split the Eq. 2 base batch",
        grounding: "Eq. 2: micro-batches partition the batch; more splits than instances is degenerate",
    },
    RuleInfo {
        id: "plan.micro-uneven",
        surface: Surface::Plan,
        severity: Severity::Info,
        summary: "the base batch does not divide evenly into the derived micro-batches",
        grounding: "Eq. 2 assumes equal micro-batches; a remainder skews the last split",
    },
    RuleInfo {
        id: "plan.group-capacity",
        surface: Surface::Plan,
        severity: Severity::Warn,
        summary: "an explicit group count leaves per-group volume above the Eq. 3 capacity",
        grounding: "Eq. 3: RBound/RParam bounds the parameters one group may move per window",
    },
    RuleInfo {
        id: "plan.excluded-unknown",
        surface: Surface::Plan,
        severity: Severity::Warn,
        summary: "an excluded table id is covered by no chain",
        grounding: "§III-C preset excluded embedding must name real tables to take effect",
    },
    RuleInfo {
        id: "plan.noop-pass",
        surface: Surface::Plan,
        severity: Severity::Warn,
        summary: "an enabled pass planned a no-op",
        grounding: "an enabled-but-inert pass (1 group, 1 micro-batch, empty pack map) hides a config mistake",
    },
    // ------------------------------------------------------------------
    // Stage surface.
    // ------------------------------------------------------------------
    RuleInfo {
        id: "stage.dependency-cycle",
        surface: Surface::Stage,
        severity: Severity::Error,
        summary: "the control-dependency graph contains a cycle",
        grounding: "Fig. 8c chained control dependencies must stay acyclic or scheduling deadlocks",
    },
    RuleInfo {
        id: "stage.dangling-edge",
        surface: Surface::Stage,
        severity: Severity::Error,
        summary: "a control dependency names a node outside the stage graph",
        grounding: "Fig. 8c control dependencies order lowered stages; an edge to no stage orders nothing",
    },
    RuleInfo {
        id: "stage.cross-class-fusion",
        surface: Surface::Stage,
        severity: Severity::Error,
        summary: "a fused kernel spans more than one hardware resource class",
        grounding: "Fig. 7: K-Packing fuses ops bound by the same resource (e.g. Shuffle+Stitch on interconnect)",
    },
    RuleInfo {
        id: "stage.unreachable",
        surface: Surface::Stage,
        severity: Severity::Warn,
        summary: "a stage is unreachable from the graph entry points",
        grounding: "a disconnected stage never runs; its predicted cost silently vanishes from the makespan",
    },
    RuleInfo {
        id: "stage.cost-sanity",
        surface: Surface::Stage,
        severity: Severity::Error,
        summary: "a stage predicts a negative or non-finite cost",
        grounding: "§IV calibration divides by predicted cost; bad values corrupt the fit",
    },
    RuleInfo {
        id: "stage.zero-cost",
        surface: Surface::Stage,
        severity: Severity::Warn,
        summary: "a stage predicts exactly zero cost (no work and no launches)",
        grounding: "§IV calibration: a zero-cost stage yields an undefined observed/predicted ratio",
    },
    // ------------------------------------------------------------------
    // Run surface.
    // ------------------------------------------------------------------
    RuleInfo {
        id: "run.fault-without-ckpt",
        surface: Surface::Run,
        severity: Severity::Warn,
        summary: "the fault plan schedules a worker crash but checkpointing is disabled",
        grounding: "without a checkpoint every crash restarts training from iteration 0",
    },
    RuleInfo {
        id: "run.ckpt-beyond-horizon",
        surface: Surface::Run,
        severity: Severity::Warn,
        summary: "the checkpoint interval exceeds the configured iteration count",
        grounding: "a run shorter than one checkpoint interval never persists any state",
    },
    RuleInfo {
        id: "run.ckpt-keep-one",
        surface: Surface::Run,
        severity: Severity::Warn,
        summary: "checkpointing is on but retention keeps fewer than two full checkpoints",
        grounding: "retention counts a full checkpoint by its manifest without reading its \
                    data, so with one kept, a torn newest full costs the only chain a \
                    restore could use",
    },
    RuleInfo {
        id: "run.warmup-shape",
        surface: Surface::Run,
        severity: Severity::Error,
        summary: "the warm-up configuration has fewer than two batches, an empty batch or an \
                  empty working vocabulary",
        grounding: "§III-B warm-up feeds Eq. 1 from the IDs of seeded batches; with no batch or \
                    vocabulary there is no ID share to shard by, and its cache measurement \
                    warms on the first half of at least two batches",
    },
    RuleInfo {
        id: "run.trainer-shape",
        surface: Surface::Run,
        severity: Severity::Error,
        summary: "a trainer option is below the least value planning accepts: a batch cap \
                  under the 256-instance floor, or zero micro-batches, groups or machines",
        grounding: "§III-C sizes the batch by Eq. 2 between a floor and a cap, splits it into \
                    at least one micro-batch and its chains into at least one Eq. 3 group, \
                    and every run needs a worker to place them on",
    },
    RuleInfo {
        id: "run.ps-without-servers",
        surface: Surface::Run,
        severity: Severity::Error,
        summary: "a parameter-server strategy is configured with zero servers",
        grounding: "§II-C parameter-server training keeps the embedding and dense parameters on \
                    CPU server nodes; with none, every pull and push has nowhere to go",
    },
    RuleInfo {
        id: "run.low-overlap",
        surface: Surface::Run,
        severity: Severity::Warn,
        summary: "achieved comm-under-compute overlap fell far below the planned interleaving",
        grounding: "§V D/K-interleaving plans 1-1/(DK) of communication hidden under compute; \
                    a large shortfall means packing or scheduling failed to realize the plan",
    },
    RuleInfo {
        id: "run.idle-dominant-resource",
        surface: Surface::Run,
        severity: Severity::Warn,
        summary: "a resource lane on the critical path spent most of the run idle",
        grounding: "§III packing exists to keep the dominant resource busy; an idle-dominated \
                    critical lane indicates serialization the executed DAG can localize",
    },
    RuleInfo {
        id: "run.flight-overflow",
        surface: Surface::Run,
        severity: Severity::Warn,
        summary: "the flight recorder overwrote admitted events before a post-mortem captured them",
        grounding: "a post-mortem dump can only replay what the ring still holds; overwritten \
                    history is unrecoverable after a crash",
    },
    RuleInfo {
        id: "run.hot-path-alloc",
        surface: Surface::Run,
        severity: Severity::Warn,
        summary: "the lowered graph implies a per-iteration simulator task count above the \
                  engine's preallocation budget",
        grounding: "the event engine preallocates its task columns, ready queues, and channel \
                    tables from the task census; a census past the budget pushes setup cost and \
                    memory footprint into territory where the run spends more time building \
                    state than simulating it",
    },
    RuleInfo {
        id: "run.backward-stage-in-serving",
        surface: Surface::Run,
        severity: Severity::Error,
        summary: "a forward-only serving graph contains a stage that mutates model state \
                  (gradient, optimizer, or checkpoint stage)",
        grounding: "serving shares the training lowering up to the MLP forward; any stage \
                    writing embedding shards, dense parameters, optimizer state, or dirty \
                    sets past that point is a training stage that leaked into inference",
    },
    RuleInfo {
        id: "run.serve-no-admission",
        surface: Surface::Run,
        severity: Severity::Warn,
        summary: "the serving request queue is unbounded (no admission control)",
        grounding: "in an open-loop arrival model a queue without a capacity bound grows \
                    without limit under overload, stretching every queued request's latency \
                    instead of shedding deterministically",
    },
    RuleInfo {
        id: "run.regressing-trend",
        surface: Surface::Run,
        severity: Severity::Warn,
        summary: "a gated metric shows a sustained change-point in the regressing direction \
                  across recent runs",
        grounding: "single-run gates miss slow drift; a CUSUM change-point over the run history \
                    catches regressions the per-run tolerance band absorbs",
    },
    // ------------------------------------------------------------------
    // Race surface.
    // ------------------------------------------------------------------
    RuleInfo {
        id: "race.write-write",
        surface: Surface::Race,
        severity: Severity::Error,
        summary: "two unordered stages both mutate the same resource (last writer wins \
                  nondeterministically)",
        grounding: "§III overlap runs gathers, collectives, and dense compute concurrently; \
                    an unordered write pair on one shard is a silent lost update",
    },
    RuleInfo {
        id: "race.read-after-unordered-write",
        surface: Surface::Race,
        severity: Severity::Error,
        summary: "a stage reads a resource a concurrent unordered stage mutates",
        grounding: "a gather overlapping an unordered scatter/refresh observes either old or \
                    new rows depending on scheduling luck",
    },
    RuleInfo {
        id: "race.ckpt-dirty-unordered",
        surface: Surface::Race,
        severity: Severity::Error,
        summary: "a checkpoint dirty-ID set is mutated without ordering against its sweep",
        grounding: "an incremental-checkpoint sweep racing a dirty mark can persist a shard \
                    while dropping the mark, losing the update on recovery",
    },
    RuleInfo {
        id: "race.benign-commutative",
        surface: Surface::Race,
        severity: Severity::Info,
        summary: "two unordered commutative scatter-adds into an allowlisted resource (order \
                  cannot change the final value)",
        grounding: "sparse-SGD gradient scatter-adds commute; the explicit allowlist keeps \
                    the downgrade auditable",
    },
    RuleInfo {
        id: "race.undeclared-overlap",
        surface: Surface::Race,
        severity: Severity::Error,
        summary: "executed-trace replay observed a conflicting overlap the declared effects \
                  do not predict",
        grounding: "the causal event log records what actually overlapped; an undeclared \
                    conflict means the effect annotations have rotted",
    },
    RuleInfo {
        id: "race.mhp-imprecision",
        surface: Surface::Race,
        severity: Severity::Info,
        summary: "a statically-MHP conflicting pair never overlapped in any seeded run",
        grounding: "the static relation over-approximates the scheduler; pairs that never \
                    co-run flag where a modeled ordering edge is missing from the graph",
    },
];

/// Looks up a rule by id.
pub fn rule(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A surface's lowercase name, the prefix of its rule ids.
    fn name(surface: Surface) -> &'static str {
        match surface {
            Surface::Spec => "spec",
            Surface::Plan => "plan",
            Surface::Stage => "stage",
            Surface::Run => "run",
            Surface::Race => "race",
        }
    }

    #[test]
    fn rule_ids_are_unique_and_prefixed_by_surface() {
        let mut seen = std::collections::BTreeSet::new();
        for r in RULES {
            assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
            let prefix = format!("{}.", name(r.surface));
            assert!(
                r.id.starts_with(&prefix),
                "rule {} does not start with its surface prefix {prefix}",
                r.id
            );
        }
    }

    #[test]
    fn registry_covers_all_surfaces_with_ten_plus_rules() {
        assert!(
            RULES.len() >= 10,
            "expected >= 10 rules, got {}",
            RULES.len()
        );
        for surface in [
            Surface::Spec,
            Surface::Plan,
            Surface::Stage,
            Surface::Run,
            Surface::Race,
        ] {
            assert!(
                RULES.iter().any(|r| r.surface == surface),
                "no rules registered for surface {}",
                name(surface)
            );
        }
    }

    #[test]
    fn every_rule_documents_summary_and_grounding() {
        for r in RULES {
            assert!(!r.summary.is_empty(), "{} has no summary", r.id);
            assert!(!r.grounding.is_empty(), "{} has no grounding", r.id);
        }
    }

    #[test]
    fn lookup_finds_known_rules_only() {
        assert!(rule("spec.duplicate-field").is_some());
        assert!(rule("stage.dependency-cycle").is_some());
        assert!(rule("race.write-write").is_some());
        assert!(rule("spec.not-a-rule").is_none());
    }

    #[test]
    fn every_rule_id_is_documented_in_design_md() {
        // Doc-drift catch: DESIGN.md's rule tables (§11, §13–§17) must
        // name every registered rule id.
        let design = include_str!("../../../DESIGN.md");
        for r in RULES {
            assert!(
                design.contains(r.id),
                "rule {} is not documented in DESIGN.md",
                r.id
            );
        }
    }
}
