//! # picasso-models
//!
//! The WDL model zoo: operator-graph constructors for the fourteen
//! recommendation models the paper evaluates (Tables III and VII), from LR
//! through DLRM/DeepFM/DIN/DIEN to CAN, STAR and the 71-expert MMoE
//! variant, plus the interaction-module building blocks they share.
//!
//! ```
//! use picasso_data::DatasetSpec;
//! use picasso_models::ModelKind;
//!
//! let data = DatasetSpec::criteo();
//! let spec = ModelKind::Dlrm.build(&data);
//! assert_eq!(spec.chains.len(), 26); // one chain per embedding table
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod modules;
pub mod zoo;

pub use zoo::{all_fields, assemble, baseline_chains, tables, width_of, ModelKind, TableInfo};
