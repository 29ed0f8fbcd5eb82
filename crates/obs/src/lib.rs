//! Unified observability layer for the PICASSO reproduction.
//!
//! Everything the workspace records about a run flows through this crate:
//!
//! * [`metrics`] — a labeled metrics registry (counters, gauges, fixed-bucket
//!   histograms) plus a time-series recorder for values sampled against a
//!   clock (SM busy, per-link bytes, queue depths, ...).
//! * [`span`] — scoped span and instant-event tracing against an explicit
//!   [`clock::Clock`], so the simulator records in simulated nanoseconds while
//!   the real trainer records wall time through the same API.
//! * [`detect`] — online anomaly detectors (straggler z-score, NIC
//!   degradation slope, queue-depth runaway) fed from the metrics stream.
//! * [`flight`] — an always-on bounded flight recorder: a fixed-capacity
//!   ring of compact structured events with per-category sampling and
//!   checksummed post-mortem dumps.
//! * [`history`] — an append-only run-history store (JSONL segments under
//!   a checksummed manifest) with CUSUM change-point detection over
//!   multi-run metric series.
//! * Exporters — [`chrome`] (Chrome trace-event JSON with counter lanes and
//!   flow arrows, loadable in Perfetto), [`prometheus`] (text exposition
//!   format), and [`report`] (versioned
//!   JSON run reports).
//! * [`json`] — the dependency-free JSON document model and parser the
//!   exporters are built on.
//! * [`checksum`] — FNV-1a 64 and its word-wise variant, the content
//!   checksums behind every digest and checkpoint shard, and splitmix64,
//!   the deterministic mixer behind every seeded stream.
//!
//! The crate has no dependencies and sits at the bottom of the workspace
//! graph; `sim`, `graph`, `embedding`, `exec`, and `core` all feed it. The
//! causal analysis of a run reads the simulator's records in place, so it
//! lives beside them, in `picasso_sim::analysis`.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod checksum;
pub mod chrome;
pub mod clock;
pub mod detect;
pub mod flight;
pub mod history;
pub mod json;
pub mod latency;
pub mod metrics;
pub mod prometheus;
pub mod report;
pub mod span;

pub use chrome::{ChromeTrace, FlowHeads, FlowLane, SliceHead, Track};
pub use clock::{Clock, ManualClock, WallClock};
pub use detect::{queue_runaway, stragglers, Anomaly, AnomalyKind, SlopeDetector};
pub use flight::{
    FlightCategory, FlightConfig, FlightDump, FlightEvent, FlightRecorder, FlightStats,
    SamplingConfig,
};
pub use history::{cusum_change_point, ChangePoint, HistoryError, HistoryStore, RunRecord, Shift};
pub use json::Json;
pub use latency::{exact_quantile, LatencyRecorder, SloTracker};
pub use metrics::{MetricKind, MetricsRegistry, MetricsSnapshot};
pub use report::{RunReport, RUN_REPORT_SCHEMA_VERSION};
pub use span::{SpanRecord, Tracer};
