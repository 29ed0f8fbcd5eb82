//! # picasso-bench
//!
//! The benchmark harness of the PICASSO reproduction: the scenario suites
//! behind the `repro` and `perfgate` binaries. The `repro` binary prints
//! every table and figure of the paper at either scale:
//!
//! ```text
//! cargo run --release -p picasso-bench --bin repro -- all quick
//! cargo run --release -p picasso-bench --bin repro -- fig13 full
//! ```
//!
//! `perfgate` gates the deterministic snapshot suite ([`snapshot`]) against
//! the committed `benchmarks/BENCH_<n>.json`. Host time is measured by the
//! separate `hostbench/` benchmark, which links this crate's scenario
//! tables.

#![warn(missing_docs)]

pub mod analysis;
pub mod observatory;
pub mod races;
pub mod recovery;
pub mod scenarios;
pub mod serve;
pub mod snapshot;
