//! # picasso-sim
//!
//! A deterministic discrete-event simulator of heterogeneous GPU-centric
//! training clusters — the hardware substrate underneath the PICASSO
//! reproduction.
//!
//! The paper evaluates on clusters of NVIDIA V100 machines (Table I). This
//! crate substitutes those testbeds with an event-driven model in which every
//! hardware component (GPU SMs, HBM, DRAM, PCIe, NVLink, NIC, host CPU) is a
//! rate server with per-operation launch overhead. All of PICASSO's headline
//! effects are *scheduling* effects — launch-overhead amortization (packing),
//! cross-resource overlap (interleaving), and service-rate selection
//! (caching) — so they emerge from the engine rather than being hard-coded.
//!
//! A finished [`RunResult`] is read in place by two layers: [`measure`]
//! (DCGM-style timelines and the Fig. 5 breakdown) and [`analysis`] (the
//! causal analysis: critical path, achieved overlap, idle-gap
//! attribution). Both do their interval work with [`IntervalSet`].
//!
//! ## Quick example
//!
//! ```
//! use picasso_sim::{Engine, Task, TaskCategory, ResourceKind, ResourceSpec};
//!
//! let mut engine = Engine::new();
//! let net = engine.add_resource(ResourceSpec::new("nic", ResourceKind::Network, 1e9, 0));
//! let gpu = engine.add_resource(ResourceSpec::new("gpu", ResourceKind::GpuSm, 1e12, 0));
//! let shuffle = engine
//!     .add_task(Task::new(net, 4e6, TaskCategory::Communication), &[])
//!     .unwrap();
//! let matmul = engine
//!     .add_task(Task::new(gpu, 1e9, TaskCategory::Computation), &[shuffle])
//!     .unwrap();
//! let result = engine.run().unwrap();
//! assert!(result.records[matmul.0].start >= result.records[shuffle.0].end);
//! assert_eq!(result.deps(matmul), &[shuffle]);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod analysis;
pub mod engine;
pub mod fault;
pub mod intervals;
pub mod metrics;
pub mod observe;
pub mod resource;
pub mod time;
pub mod topology;
pub mod traffic;

pub use engine::{Binding, Engine, EngineError, RunResult, Task, TaskCategory, TaskId, TaskRecord};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use intervals::IntervalSet;
pub use metrics::{measure, Breakdown, Measurement, ResourceTimeline, Timeline};
pub use observe::export_metrics;
pub use resource::{CongestionSpec, ResourceId, ResourceKind, ResourceSpec};
pub use time::{SimDuration, SimTime};
pub use topology::{Cluster, ExecutorHandles, GpuSpec, MachineSpec, OverheadSpec, ServerHandles};
pub use traffic::{ArrivalProcess, Request, TrafficGen, TrafficPlan};
