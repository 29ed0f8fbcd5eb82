//! # picasso-graph
//!
//! Logical WDL training graphs and the PICASSO optimization passes.
//!
//! A [`WdlSpec`] describes one model's per-iteration work — embedding lookup
//! chains, feature-interaction modules, and the MLP — normalized per
//! training instance. The passes in [`passes`] implement the paper's
//! packing and interleaving transformations, [`stats::graph_stats`]
//! reproduces the Table V operation accounting, and [`lint`] runs the
//! spec- and plan-surface rules of the `picasso-lint` static analyzer.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod lint;
pub mod ops;
pub mod passes;
pub mod spec;
pub mod stats;

pub use lint::{lint_plan, lint_spec};
pub use ops::{OpClass, OpKind};
pub use passes::pipeline::{
    DerivedPlan, PassId, Pipeline, PipelineConfig, PipelineError, PlanContext, GROUP_WINDOW_SECS,
    MAX_BATCH, MEMORY_AMPLIFICATION, MIN_BATCH,
};
pub use passes::report::{run_pass, PassReport};
pub use passes::{d_interleaving, d_packing, k_interleaving, k_packing};
pub use picasso_lint::{Diagnostic, LintReport, Severity, Span};
pub use spec::{EmbeddingChain, InteractionModule, MlpSpec, ModuleKind, WdlSpec};
pub use stats::{graph_stats, GraphStats};
