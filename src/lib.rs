//! # PICASSO (reproduction)
//!
//! A Rust reproduction of *"PICASSO: Unleashing the Potential of GPU-centric
//! Training for Wide-and-deep Recommender Systems"* (ICDE 2022): the
//! packing / interleaving / caching training-system optimizations, the WDL
//! model zoo, the distributed execution engine over a discrete-event
//! hardware simulator, real embedding tables and the HybridHash cache
//! policy, and a CPU trainer for the accuracy experiments.
//!
//! This crate re-exports [`picasso_core`]; see that crate (and `DESIGN.md`
//! in the repository root) for the architecture.
//!
//! ```no_run
//! use picasso::{ModelKind, PicassoConfig, Session};
//!
//! let session = Session::new(ModelKind::Can, PicassoConfig::new().machines(16));
//! println!("{:.0} instances/sec/node", session.report().ips_per_node);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub use picasso_core::*;
