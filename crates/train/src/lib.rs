//! # picasso-train
//!
//! A real (CPU) trainer with manual backpropagation, used to reproduce the
//! Table III accuracy experiment: the same CTR models trained under
//! synchronous semantics (PICASSO / PyTorch / Horovod) versus asynchronous
//! stale-gradient parameter-server semantics (TF-PS), with AUC measured on
//! held-out synthetic click data whose ground truth comes from a hidden
//! logistic model.
//!
//! ```
//! use picasso_train::{auc_datasets, train_ctr, TrainConfig, Variant};
//!
//! let data = auc_datasets::criteo_like();
//! let cfg = TrainConfig { steps: 40, ..TrainConfig::default() };
//! let out = train_ctr(Variant::Deep, &data, &cfg);
//! assert!(out.auc > 0.5);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod metrics;
pub mod models;
pub mod nn;
pub mod optimizer;
pub mod tensor;
pub mod trainer;

pub use metrics::auc;
pub use models::{CtrModel, StepStats, Variant, EMB_DIM};
pub use nn::{bce_with_logits, predict, Linear};
pub use optimizer::{Adagrad, StalenessQueue};
pub use tensor::{Kernel, Matrix};
pub use trainer::{auc_datasets, train_ctr, SyncMode, TrainConfig, TrainOutcome};
