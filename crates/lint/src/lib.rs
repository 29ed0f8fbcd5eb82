//! # picasso-lint
//!
//! A rule-based static analyzer for the PICASSO reproduction. The
//! optimizations only pay off when their structural preconditions hold —
//! D-Packing requires dim-homogeneous chains (Eq. 1), K-Packing must fuse
//! only within one hardware resource class (Fig. 7), and K-Interleaving's
//! chained control dependencies (Eq. 3 groups, Fig. 8c) must stay acyclic
//! or the scheduler silently serializes. This crate turns those invariants
//! into named, testable rules.
//!
//! The crate is a *foundation* layer: it owns the [`Diagnostic`] model
//! (rule id, severity, span, message, fix hint), the [`rules`] registry
//! describing every rule across the three analysis surfaces, the
//! [`LintReport`] JSON/text renderers, and a generic [`StageGraph`] model
//! with the stage-surface rules. The traversals that *produce* spec and
//! plan diagnostics live next to the data they inspect (`picasso-graph`'s
//! `lint` module); the lowered stage graph is built by `picasso-exec`.
//!
//! Three analysis surfaces (see [`rules::Surface`]):
//!
//! - **spec** — invariants of a `WdlSpec` before any pass runs: field
//!   single-assignment, dangling module inputs, dim homogeneity,
//!   zero-cardinality chains, unused fields.
//! - **plan** — invariants of a planned pass pipeline: Eq. 2 micro-batch
//!   divisibility, Eq. 3 group capacity, excluded-table consistency,
//!   packing-after-interleaving ordering, enabled-but-no-op passes.
//! - **stage** — invariants of the lowered execution graph: control-
//!   dependency cycles, cross-resource-class fusion, unreachable stages,
//!   cost-model sanity.
//! - **race** — may-happen-in-parallel conflicts over declared effect
//!   sets ([`effects`], [`mhp`]): unordered stage pairs that both touch
//!   an embedding shard, cache hot storage, optimizer state, a dirty-ID
//!   set, or a collective buffer.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod diag;
pub mod effects;
pub mod mhp;
mod report;
pub mod rules;
mod stage_graph;

pub use diag::{Diagnostic, Severity, Span};
pub use effects::{AccessMode, Effect, EffectSet, RaceAllowlist, Resource, ResourceKind};
pub use mhp::{MhpRelation, StaticRace};
pub use report::LintReport;
pub use stage_graph::{csr, StageEdge, StageFusion, StageGraph, StageNode};
