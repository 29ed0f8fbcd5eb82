//! # picasso-core
//!
//! The PICASSO library facade: configuration, high-level training sessions,
//! text reporting, and the full experiment suite reproducing every table
//! and figure of the paper's evaluation.
//!
//! ```no_run
//! use picasso_core::{PicassoConfig, Session};
//! use picasso_core::ModelKind;
//!
//! let session = Session::new(ModelKind::Can, PicassoConfig::new().machines(16));
//! let report = session.report();
//! println!("CAN trains at {:.0} instances/sec/node", report.ips_per_node);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod experiments;
pub mod observe;
pub mod report;
pub mod session;

pub use config::PicassoConfig;
pub use experiments::Scale;
pub use report::{pct_delta, si, TextTable};
pub use session::Session;

// Re-export the component crates so downstream users need one dependency.
pub use picasso_ckpt as ckpt;
pub use picasso_data as data;
pub use picasso_embedding as embedding;
pub use picasso_exec as exec;
pub use picasso_graph as graph;
pub use picasso_models as models;
pub use picasso_obs as obs;
pub use picasso_serve as serve;
pub use picasso_sim as sim;
pub use picasso_train as train;

pub use picasso_exec::{
    Diagnostic, Framework, LintReport, ModelKind, Optimizations, PassId, PipelineConfig,
    PipelineError, Severity, Strategy, TrainError, TrainingReport,
};
