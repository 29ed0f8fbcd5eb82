//! # picasso-exec
//!
//! The distributed execution engine of the PICASSO reproduction: training
//! strategies (PS / DP / MP / hybrid), collective-communication cost
//! models, warm-up measurement over real data, the scheduler that lowers
//! logical WDL graphs onto the simulated cluster, framework presets
//! (TF-PS, PyTorch, Horovod, XDL, PICASSO), and the end-to-end trainer
//! that produces the paper's telemetry.
//!
//! ```no_run
//! use picasso_data::DatasetSpec;
//! use picasso_exec::{train, Framework, ModelKind, TrainerOptions};
//!
//! let data = DatasetSpec::criteo().shared();
//! let run = train(ModelKind::Dlrm, &data, Framework::Picasso, &TrainerOptions::default())
//!     .expect("valid pipeline and task graph");
//! println!("{:.0} instances/sec/node", run.report.ips_per_node);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod calibration;
pub mod collectives;
pub mod costs;
pub mod framework;
pub mod lint;
mod lower;
pub mod observe;
pub mod recovery;
pub mod scheduler;
pub mod serving;
pub mod strategy;
pub mod telemetry;
pub mod trainer;
pub mod warmup;

pub use analysis::{
    analysis_report_json, analyze_run, crosscheck_races, lint_analysis, observed_conflicts,
    overlap_pairs, ObservedOverlap, RACE_CHECK_RUNS,
};
pub use calibration::{CalibrationReport, CalibrationStats, CostRecord};
pub use framework::{Framework, Optimizations};
pub use lint::{stage_graph, stage_lints};
pub use observe::{chrome_trace, flight_record, span_tracer, ScheduleScopes, TaskRange};
pub use picasso_graph::{Diagnostic, LintReport, PassId, PipelineConfig, PipelineError, Severity};
pub use picasso_lint::effects::RaceSig;
pub use picasso_lint::{StageEdge, StageFusion, StageGraph, StageNode, StaticRace};
pub use picasso_models::ModelKind;
pub use recovery::{
    lint_flight, lint_recovery, run_recovery, CkptRecord, RecoveryEvent, RecoveryOptions,
    RecoveryRun,
};
pub use scheduler::{simulate, CausalStage, SimConfig, SimulationOutput};
pub use serving::{
    capacity_rps, forward_latency_ns, prepare_serving, serving_lints, serving_stage_graph,
    slo_floor_ns, ServingPlan,
};
pub use strategy::{DenseSync, EmbeddingExchange, Strategy};
pub use telemetry::TrainingReport;
pub use trainer::{lint, run, train, RunArtifacts, TrainError, TrainerOptions};
pub use warmup::{count_warmup, run_warmup, TableStats, WarmupConfig, WarmupCounts, WarmupReport};
