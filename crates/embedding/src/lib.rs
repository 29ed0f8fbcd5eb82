//! # picasso-embedding
//!
//! The embedding-layer substrate of the PICASSO reproduction: hashmap-backed
//! embedding tables over one row arena, the HybridHash cache (Algorithm 1)
//! as its hot-set policy, the Eq. 1 `CalcVParam` cost model, and the
//! D-Packing planner that groups tables into packed operations.
//!
//! The tables and the cache policy execute for real on the CPU: the trainer
//! looks rows up and applies gradients through [`EmbeddingTable`], and the
//! warm-up measures hit ratios through [`HotSetPolicy`]. The §II-D sparse
//! operators (Unique, Partition, Gather, Shuffle, Stitch,
//! SegmentReduction) are not executed here; `picasso_exec::costs` prices
//! them for the hardware simulator.
//!
//! ```
//! use picasso_embedding::{HotSetPolicy, HybridHashConfig};
//!
//! let cfg = HybridHashConfig { warmup_iters: 1, ..HybridHashConfig::default() };
//! let mut cache = HotSetPolicy::new(&cfg, 16, None);
//! cache.measure_batch(&[3, 1, 4, 1, 5]); // warm-up: served cold, then a flush
//! let report = cache.measure_batch(&[1, 9]);
//! assert_eq!((report.hot_hits, report.cold_hits), (1, 1));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod ckpt;
pub mod cost;
pub mod planner;
pub mod policy;
pub mod table;

pub use ckpt::TableSnapshot;
pub use cost::{calc_vparam, shard_count, TableLoad};
pub use planner::{Pack, PackPlan, PlannerConfig};
pub use policy::{CacheMetrics, CacheStats, HotSetPolicy, HybridHashConfig, LookupReport};
pub use table::{EmbeddingTable, RowArena};
