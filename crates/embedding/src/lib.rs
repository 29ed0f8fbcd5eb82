//! # picasso-embedding
//!
//! The embedding-layer substrate of the PICASSO reproduction: hashmap-backed
//! embedding tables, the sparse operators of §II-D (Unique, Partition,
//! Gather, Shuffle, Stitch, SegmentReduction), the HybridHash two-level
//! cache (Algorithm 1) and its row-less hit policy, the Eq. 1 `CalcVParam` cost model, and the D-Packing
//! planner that groups tables into packed operations.
//!
//! Everything in this crate executes for real on the CPU over materialized
//! ID streams; the measured outputs (hit ratios, unique counts, comm bytes)
//! parameterize the hardware simulator.
//!
//! ```
//! use picasso_embedding::{EmbeddingTable, HybridHash, HybridHashConfig};
//!
//! let table = EmbeddingTable::new(16, 42);
//! let mut cache = HybridHash::new(table, HybridHashConfig::default());
//! let mut out = Vec::new();
//! cache.lookup_batch(&[3, 1, 4, 1, 5], &mut out);
//! assert_eq!(out.len(), 5 * 16);
//! ```

#![warn(missing_docs)]

pub mod ckpt;
pub mod cost;
pub mod hybrid_hash;
pub mod multi_level;
pub mod ops;
pub mod planner;
pub mod policy;
pub mod table;

pub use ckpt::{CacheSnapshot, TableSnapshot};
pub use cost::{calc_vparam, shard_count, TableLoad};
pub use hybrid_hash::{CacheMetrics, CacheStats, HybridHash, HybridHashConfig, LookupReport};
pub use multi_level::{CacheLevel, LevelStats, MultiLevelCache, MultiLevelConfig};
pub use ops::{
    expand_unique, gather, partition, segment_reduce, shuffle_stitch, unique, OpCost,
    PartitionOutput, Reduction, UniqueOutput,
};
pub use planner::{Pack, PackPlan, PlannerConfig};
pub use policy::{HotSetPolicy, PolicyStep};
pub use table::{EmbeddingTable, RowArena, ShardedTable};
