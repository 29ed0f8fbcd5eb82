//! # picasso-embedding
//!
//! The embedding-layer substrate of the PICASSO reproduction: hashmap-backed
//! embedding tables, the sparse operators of §II-D (Unique, Partition,
//! Gather, Shuffle, Stitch, SegmentReduction), the HybridHash cache
//! (Algorithm 1) as its hot-set policy, the Eq. 1 `CalcVParam` cost model,
//! and the D-Packing planner that groups tables into packed operations.
//!
//! Everything in this crate executes for real on the CPU over materialized
//! ID streams; the measured outputs (hit ratios, unique counts, comm bytes)
//! parameterize the hardware simulator.
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

pub mod ckpt;
pub mod cost;
pub mod ops;
pub mod planner;
pub mod policy;
pub mod table;

pub use ckpt::TableSnapshot;
pub use cost::{calc_vparam, shard_count, TableLoad};
pub use ops::{
    expand_unique, gather, partition, segment_reduce, shuffle_stitch, unique, OpCost,
    PartitionOutput, Reduction, UniqueOutput,
};
pub use planner::{Pack, PackPlan, PlannerConfig};
pub use policy::{CacheMetrics, CacheStats, HotSetPolicy, HybridHashConfig, LookupReport};
pub use table::{EmbeddingTable, RowArena, ShardedTable};
