//! # picasso-bench
//!
//! The benchmark harness of the PICASSO reproduction: the scenario suites
//! behind the `repro` binary. With an experiment name, `repro` prints the
//! paper's tables and figures at either scale:
//!
//! ```text
//! cargo run --release -p picasso-bench --bin repro -- all quick
//! cargo run --release -p picasso-bench --bin repro -- fig13 full
//! ```
//!
//! Its subcommands run the suites over the one scenario table
//! ([`scenarios`]): `lint`, `analyze` ([`analysis`]), `races` ([`races`]),
//! `serve` ([`serve`]), `recover` ([`recovery`]), `history`
//! ([`observatory`]) and `gate`, which gates the deterministic snapshot
//! suite ([`snapshot`]) against the committed `benchmarks/BENCH_<n>.json`.
//! Host time is measured by the separate `hostbench/` benchmark, which
//! links this crate's scenario tables.

#![warn(missing_docs)]

pub mod analysis;
pub mod observatory;
pub mod races;
pub mod recovery;
pub mod scenarios;
pub mod serve;
pub mod snapshot;
