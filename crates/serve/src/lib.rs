//! # picasso-serve
//!
//! Forward-only inference for the PICASSO reproduction: the serving half
//! of the train→serve unification.
//!
//! A production wide-and-deep recommender spends most of its life serving,
//! and its serving-side economics are dominated by *tail latency* under a
//! skewed, bursty request stream — not by training throughput. This crate
//! models that regime end to end, deterministically:
//!
//! * [`batcher`] — dynamic request batching under a max-batch-size +
//!   max-linger-delay policy: the knob that trades per-request latency for
//!   amortized launch overhead (the same effect D/K-packing exploits in
//!   training).
//! * [`replica`] — a virtual-time event-loop replica: admission control
//!   (bounded queue with deterministic shedding), the batcher, a FIFO
//!   batch queue, and one server whose per-batch service time is the
//!   analytic forward latency of a [`picasso_exec::ServingPlan`].
//!   Every batch's embedding IDs run through Algorithm 1's hit policy
//!   ([`picasso_embedding::HotSetPolicy`], without rows: service time
//!   never reads the gathered values), so cache hit/miss statistics
//!   reflect the actual Zipf request stream. The open-loop traffic is
//!   generated on a producer thread that runs ahead of the event loop and
//!   hands arrivals over in fixed-size chunks through a bounded channel;
//!   the loop consumes them in generation order, so the report is the
//!   same bit for bit as when one thread did both.
//! * [`report`] — the `picasso.serve_report` summary: exact p50/p95/p99
//!   latency, queue depth, SLO violations, cache hit rate, shed count, and
//!   capacity vs. achieved throughput, under a digest that two same-seed
//!   runs must reproduce bit-for-bit.
//!
//! Traffic comes from [`picasso_sim::TrafficPlan`] (seeded Poisson or
//! bursty MMPP arrivals over Zipf-distributed users); the forward-only
//! lowering, its effect-checked stage graph, and the serving lint rules
//! live in [`picasso_exec::serving`].
//!
//! ```
//! use picasso_data::DatasetSpec;
//! use picasso_exec::{prepare_serving, ModelKind, Strategy, TrainerOptions};
//! use picasso_serve::{serve, ReplicaConfig};
//! use picasso_sim::TrafficPlan;
//!
//! let data = DatasetSpec::criteo().shared();
//! let opts = TrainerOptions {
//!     batch_per_executor: Some(256),
//!     ..Default::default()
//! };
//! let cfg = ReplicaConfig::default();
//! let plan = prepare_serving(
//!     ModelKind::WideDeep, &data, Strategy::Hybrid, &opts,
//!     cfg.queue_capacity,
//! ).unwrap();
//! let traffic: TrafficPlan = "seed=7;poisson@20000;users=100000;zipf=105;ids=8;reqs=2000"
//!     .parse().unwrap();
//! let run = serve(&plan, &traffic, &cfg, "quickstart");
//! assert!(run.report.p99_ns >= run.report.p50_ns);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod batcher;
pub mod replica;
pub mod report;

pub use batcher::{Batch, BatchPolicy, Batcher, QueuedRequest};
pub use replica::{serve, ReplicaConfig, ServeRun};
pub use report::{ServeReport, SERVE_REPORT_KIND, SERVE_REPORT_SCHEMA_VERSION};
