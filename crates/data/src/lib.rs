//! # picasso-data
//!
//! Synthetic WDL datasets and workload generation for the PICASSO
//! reproduction.
//!
//! Table II of the paper describes five datasets — Criteo, Alibaba CTR, and
//! three in-house production datasets — by their field counts, sequence
//! lengths, embedding dimensions and parameter volumes. This crate provides
//! matching [`DatasetSpec`] presets, Zipf-skewed ID samplers reproducing the
//! Fig. 3 frequency CDFs, a seeded [`BatchGenerator`] that materializes real
//! ID streams, and a hidden logistic [`ClickModel`] so the AUC experiments
//! measure genuine learning.
//!
//! ```
//! use picasso_data::{BatchGenerator, DatasetSpec};
//!
//! let spec = DatasetSpec::criteo().shared();
//! let mut gen = BatchGenerator::new(spec, 42);
//! let batch = gen.next_batch(256);
//! assert_eq!(batch.size, 256);
//! assert_eq!(batch.fields.len(), 26);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod dataset;
pub mod distribution;
pub mod field;
pub mod stats;
pub mod synthetic;

pub use batch::{Batch, BatchGenerator, FieldBatch, DEFAULT_MAX_WORKING_VOCAB};
pub use dataset::DatasetSpec;
pub use distribution::{IdDistribution, IdSampler};
pub use field::FieldSpec;
pub use stats::{FrequencyStats, IdHash};
pub use synthetic::{sigmoid, splitmix64, ClickModel};
