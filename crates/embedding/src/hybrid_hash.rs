//! HybridHash — the paper's Algorithm 1.
//!
//! The embedding hashmap (a sparse structure) lives in *Cold-storage* (DRAM:
//! large but bandwidth-bound); *Hot-storage* (GPU device memory: fast but
//! capacity-bound) is used purely as a scratchpad holding the top-k most
//! frequently queried rows. During `warmup_iters` iterations only the
//! host-side frequency counter is trained; afterwards every `flush_iters`
//! iterations the hot set is refreshed from the counter. If at flush time
//! the entire table fits in Hot-storage, everything is promoted. Those
//! decisions live in [`HotSetPolicy`]; this module adds the rows.

use crate::policy::HotSetPolicy;
use crate::table::{EmbeddingTable, RowArena};
use picasso_obs::{MetricKind, MetricsRegistry};

/// Configuration of a [`HybridHash`].
#[derive(Debug, Clone)]
pub struct HybridHashConfig {
    /// Iterations during which only statistics are collected (the paper uses
    /// 100 steps in the ablation).
    pub warmup_iters: u64,
    /// Refresh the hot set every this many iterations.
    pub flush_iters: u64,
    /// Capacity of Hot-storage in bytes (the Table VI sweep varies this from
    /// 256 MB to 4 GB).
    pub hot_bytes: u64,
}

impl Default for HybridHashConfig {
    fn default() -> Self {
        HybridHashConfig {
            warmup_iters: 100,
            flush_iters: 100,
            hot_bytes: 1 << 30, // 1 GB, the paper's default
        }
    }
}

/// Cumulative cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from Hot-storage.
    pub hot_hits: u64,
    /// Lookups served from Cold-storage after warm-up.
    pub cold_hits: u64,
    /// Lookups during warm-up (always cold).
    pub warmup_lookups: u64,
    /// Number of hot-set refreshes performed.
    pub flushes: u64,
    /// Rows demoted from Hot-storage across all refreshes.
    pub evictions: u64,
}

impl CacheStats {
    /// Post-warm-up hit ratio in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hot_hits + self.cold_hits;
        if total == 0 {
            0.0
        } else {
            self.hot_hits as f64 / total as f64
        }
    }
}

/// Per-call lookup report (drives the simulator's Gather cost split).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookupReport {
    /// IDs served from Hot-storage in this call.
    pub hot_hits: u64,
    /// IDs served from Cold-storage in this call.
    pub cold_hits: u64,
}

impl LookupReport {
    /// Hit ratio of this call.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hot_hits + self.cold_hits;
        if total == 0 {
            0.0
        } else {
            self.hot_hits as f64 / total as f64
        }
    }
}

/// A two-level embedding store per Algorithm 1: a [`HotSetPolicy`] that
/// decides which IDs are hot, the cold table, and the hot rows.
///
/// Hot-storage is a [`RowArena`] — the GPU-resident analogue of a contiguous
/// embedding cache — rebuilt wholesale at every flush, so between flushes
/// hot lookups read one dense buffer. It always holds exactly the policy's
/// hot IDs.
#[derive(Debug, Clone)]
pub struct HybridHash {
    policy: HotSetPolicy,
    cold: EmbeddingTable,
    hot: RowArena,
}

impl HybridHash {
    /// Wraps a cold table with a hot cache.
    pub fn new(cold: EmbeddingTable, cfg: HybridHashConfig) -> Self {
        let policy = HotSetPolicy::new(&cfg, cold.dim(), None);
        let hot = RowArena::new(cold.dim());
        HybridHash { policy, cold, hot }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.cold.dim()
    }

    /// Maximum rows Hot-storage can hold.
    pub fn hot_row_capacity(&self) -> usize {
        self.policy.capacity()
    }

    /// Rows currently resident in Hot-storage.
    pub fn hot_rows(&self) -> usize {
        self.hot.len()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.policy.stats()
    }

    /// Current iteration counter.
    pub fn iteration(&self) -> u64 {
        self.policy.iteration()
    }

    /// Read-only access to the cold table.
    pub fn cold(&self) -> &EmbeddingTable {
        &self.cold
    }

    /// The hit policy.
    pub fn policy(&self) -> &HotSetPolicy {
        &self.policy
    }

    /// Algorithm 1: queries a batch of IDs, appending `dim` floats per ID to
    /// `out`, and advances the iteration counter.
    pub fn lookup_batch(&mut self, ids: &[u64], out: &mut Vec<f32>) -> LookupReport {
        let (hot, cold) = (&self.hot, &mut self.cold);
        let step = self.policy.lookup_batch(ids, |id, may_hit| {
            if may_hit {
                if let Some(row) = hot.get(id) {
                    out.extend_from_slice(row);
                    return true;
                }
            }
            cold.gather_into(id, out);
            false
        });
        if step.flushed {
            self.reload_hot();
        }
        step.report
    }

    /// Applies a gradient to the row for `id`, keeping hot and cold copies
    /// coherent (the hot row is the working copy; cold is written through so
    /// a later flush cannot resurrect stale values).
    pub fn apply_gradient(&mut self, id: u64, grad: &[f32], lr: f32) {
        if let Some(row) = self.hot.get_mut(id) {
            for (w, g) in row.iter_mut().zip(grad) {
                *w -= lr * g;
            }
            let row = row.to_vec();
            self.cold.put(id, &row);
        } else {
            self.cold.apply_gradient(id, grad, lr);
        }
    }

    /// Rebuilds Hot-storage from the policy's hot IDs via one batched
    /// gather of their cold rows.
    fn reload_hot(&mut self) {
        let hot_ids = self.policy.hot_ids();
        let dim = self.cold.dim();
        let mut buf = Vec::new();
        self.cold.gather_rows(hot_ids, &mut buf);
        let mut hot = RowArena::with_capacity(dim, hot_ids.len());
        for (i, &id) in hot_ids.iter().enumerate() {
            hot.insert(id, &buf[i * dim..(i + 1) * dim]);
        }
        self.hot = hot;
    }

    /// Point-in-time metrics view, detachable from the cache (warm-up
    /// measurement caches are transient; the run-level exporters keep only
    /// this snapshot).
    pub fn metrics(&self) -> CacheMetrics {
        CacheMetrics::of(&self.policy)
    }

    /// Exports the cache's cumulative counters and occupancy into `registry`,
    /// labeled by `table`. Observation-only: lookups drive the same
    /// [`CacheStats`] whether or not this is ever called, and the
    /// counter-derived hit ratio equals [`CacheStats::hit_ratio`] exactly.
    pub fn export_metrics(&self, table: &str, registry: &MetricsRegistry) {
        self.metrics().export(table, registry)
    }

    /// The frequency counter for `id` (0 if never looked up).
    pub fn frequency(&self, id: u64) -> u64 {
        self.policy.counter().count(id)
    }

    /// IDs whose frequency counter changed since the last
    /// [`HybridHash::mark_clean`].
    pub fn touched_count(&self) -> usize {
        self.policy.touched_count()
    }

    /// Captures the complete cache state. Hot-storage *values* are not
    /// serialized: `apply_gradient` writes hot updates through to cold, so
    /// the hot row always equals the cold row and the hot set is fully
    /// described by its ID list.
    pub fn snapshot_full(&self) -> crate::ckpt::CacheSnapshot {
        crate::ckpt::CacheSnapshot {
            itr: self.policy.iteration(),
            stats: self.policy.stats(),
            counters: self.policy.counter().counts(),
            hot_ids: self.policy.hot_ids().to_vec(),
            cold: crate::ckpt::TableSnapshot::full(&self.cold),
        }
    }

    /// Captures only state touched since the last [`HybridHash::mark_clean`]:
    /// dirty cold rows and the (absolute) counters of touched IDs. The small
    /// scalar state — iteration, stats, hot ID list — is always included.
    pub fn snapshot_delta(&self) -> crate::ckpt::CacheSnapshot {
        crate::ckpt::CacheSnapshot {
            itr: self.policy.iteration(),
            stats: self.policy.stats(),
            counters: self.policy.touched_counts(),
            hot_ids: self.policy.hot_ids().to_vec(),
            cold: crate::ckpt::TableSnapshot::dirty(&self.cold),
        }
    }

    /// Clears the touched/dirty sets after a checkpoint captured them.
    pub fn mark_clean(&mut self) {
        self.policy.mark_clean();
        self.cold.mark_clean();
    }

    /// Resets the cache to exactly the state of a full snapshot. Ends clean.
    pub fn restore_full(&mut self, snap: &crate::ckpt::CacheSnapshot) {
        snap.cold.restore_full(&mut self.cold);
        self.restore_policy(snap, true);
    }

    /// Applies one incremental snapshot on top of the current state (which
    /// must be the snapshot's parent). Ends clean.
    pub fn apply_delta(&mut self, snap: &crate::ckpt::CacheSnapshot) {
        snap.cold.apply(&mut self.cold);
        self.restore_policy(snap, false);
    }

    fn restore_policy(&mut self, snap: &crate::ckpt::CacheSnapshot, full: bool) {
        self.policy
            .restore(snap.itr, snap.stats, &snap.counters, &snap.hot_ids, full);
        self.reload_hot();
        self.mark_clean();
    }
}

/// A point-in-time snapshot of a cache's exportable state.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheMetrics {
    /// Cumulative lookup/flush/eviction counters.
    pub stats: CacheStats,
    /// Rows resident in Hot-storage at snapshot time.
    pub hot_rows: usize,
    /// Maximum rows Hot-storage can hold.
    pub hot_capacity: usize,
}

impl CacheMetrics {
    /// The exportable state of `policy` (its hot set stands for the rows).
    pub fn of(policy: &HotSetPolicy) -> CacheMetrics {
        CacheMetrics {
            stats: policy.stats(),
            hot_rows: policy.hot_ids().len(),
            hot_capacity: policy.capacity(),
        }
    }

    /// Exports the snapshot into `registry`, labeled by `table`.
    pub fn export(&self, table: &str, registry: &MetricsRegistry) {
        registry.describe(
            "embedding_lookups_total",
            MetricKind::Counter,
            "HybridHash lookups, by outcome (hot / cold / warmup)",
        );
        registry.describe(
            "embedding_flushes_total",
            MetricKind::Counter,
            "Hot-set refreshes performed",
        );
        registry.describe(
            "embedding_evictions_total",
            MetricKind::Counter,
            "Rows demoted from Hot-storage across refreshes",
        );
        registry.describe(
            "embedding_hot_rows",
            MetricKind::Gauge,
            "Rows currently resident in Hot-storage",
        );
        registry.describe(
            "embedding_hot_occupancy",
            MetricKind::Gauge,
            "Hot-storage occupancy as a fraction of row capacity",
        );
        let labels = [("table", table)];
        let s = self.stats;
        registry.counter_add(
            "embedding_lookups_total",
            &[("table", table), ("outcome", "hot")],
            s.hot_hits,
        );
        registry.counter_add(
            "embedding_lookups_total",
            &[("table", table), ("outcome", "cold")],
            s.cold_hits,
        );
        registry.counter_add(
            "embedding_lookups_total",
            &[("table", table), ("outcome", "warmup")],
            s.warmup_lookups,
        );
        registry.counter_add("embedding_flushes_total", &labels, s.flushes);
        registry.counter_add("embedding_evictions_total", &labels, s.evictions);
        registry.gauge_set("embedding_hot_rows", &labels, self.hot_rows as f64);
        let occupancy = if self.hot_capacity == 0 {
            0.0
        } else {
            self.hot_rows as f64 / self.hot_capacity as f64
        };
        registry.gauge_set("embedding_hot_occupancy", &labels, occupancy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picasso_data::{IdDistribution, IdSampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cache(dim: usize, hot_bytes: u64, warmup: u64, flush: u64) -> HybridHash {
        HybridHash::new(
            EmbeddingTable::new(dim, 7),
            HybridHashConfig {
                warmup_iters: warmup,
                flush_iters: flush,
                hot_bytes,
            },
        )
    }

    #[test]
    fn warmup_serves_cold_and_counts() {
        let mut h = cache(4, 1 << 20, 2, 10);
        let mut out = Vec::new();
        let r = h.lookup_batch(&[1, 2, 1], &mut out);
        assert_eq!(r.cold_hits, 3);
        assert_eq!(r.hot_hits, 0);
        assert_eq!(out.len(), 12);
        assert_eq!(h.stats().warmup_lookups, 3);
    }

    #[test]
    fn hot_ids_hit_after_warmup() {
        let mut h = cache(4, 1 << 20, 1, 100);
        let mut out = Vec::new();
        h.lookup_batch(&[5, 5, 6], &mut out); // warm-up ends, flush happens
        out.clear();
        let r = h.lookup_batch(&[5, 6, 7], &mut out);
        // 5 and 6 were counted in warm-up and fit in the hot set; 7 is new.
        assert_eq!(r.hot_hits, 2);
        assert_eq!(r.cold_hits, 1);
    }

    #[test]
    fn returns_same_values_as_uncached_table() {
        let mut h = cache(8, 1 << 20, 1, 2);
        let mut reference = EmbeddingTable::new(8, 7);
        let ids = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3];
        let mut out = Vec::new();
        for chunk in ids.chunks(3) {
            out.clear();
            h.lookup_batch(chunk, &mut out);
            let mut want = Vec::new();
            for &id in chunk {
                want.extend_from_slice(reference.row(id));
            }
            assert_eq!(out, want, "cache must be value-transparent");
        }
    }

    #[test]
    fn capacity_bounds_hot_rows() {
        // Room for exactly 2 rows of dim 4 (32 bytes).
        let mut h = cache(4, 32, 1, 1);
        let mut out = Vec::new();
        h.lookup_batch(&[1, 1, 1, 2, 2, 3], &mut out);
        assert!(h.hot_rows() <= 2);
        out.clear();
        let r = h.lookup_batch(&[1, 2, 3], &mut out);
        assert_eq!(r.hot_hits, 2, "the two hottest ids are cached");
        assert_eq!(r.cold_hits, 1);
    }

    #[test]
    fn skewed_stream_reaches_high_hit_ratio() {
        let sampler = IdSampler::new(10_000, IdDistribution::Zipf { s: 1.2 });
        let mut rng = StdRng::seed_from_u64(11);
        // Hot storage for 2000 of 10000 ids (20%).
        let mut h = cache(4, 2000 * 16, 20, 20);
        let mut out = Vec::new();
        let mut ids = Vec::new();
        for _ in 0..200 {
            ids.clear();
            sampler.sample_into(&mut rng, 512, &mut ids);
            out.clear();
            h.lookup_batch(&ids, &mut out);
        }
        let ratio = h.stats().hit_ratio();
        assert!(
            ratio > 0.6,
            "zipf(1.2) with 20% cache should hit often, got {ratio:.3}"
        );
    }

    #[test]
    fn small_table_promotes_everything() {
        let mut h = cache(4, 1 << 20, 1, 5);
        let mut out = Vec::new();
        h.lookup_batch(&[1, 2, 3], &mut out);
        out.clear();
        let r = h.lookup_batch(&[1, 2, 3], &mut out);
        assert_eq!(r.hot_hits, 3, "entire table fits in hot storage");
        assert_eq!(h.stats().hit_ratio(), 1.0);
    }

    #[test]
    fn gradients_are_coherent_across_flushes() {
        let mut h = cache(2, 1 << 20, 1, 1);
        let mut out = Vec::new();
        h.lookup_batch(&[1], &mut out);
        // id 1 now hot; update it, then force flushes via more lookups.
        h.apply_gradient(1, &[1.0, 1.0], 0.1);
        let mut want = Vec::new();
        if let Some(r) = h.cold().peek(1) {
            want.extend_from_slice(r)
        }
        for _ in 0..3 {
            out.clear();
            h.lookup_batch(&[1], &mut out);
            assert_eq!(out, want, "updated value must survive flushes");
        }
    }

    #[test]
    fn flush_cadence_matches_config() {
        let mut h = cache(4, 1 << 20, 2, 3);
        let mut out = Vec::new();
        for _ in 0..11 {
            out.clear();
            h.lookup_batch(&[1], &mut out);
        }
        // Flush at end of warm-up (itr=2) + every 3 iters after (5, 8, 11).
        assert_eq!(h.stats().flushes, 4);
    }

    #[test]
    fn evictions_are_counted_when_the_hot_set_turns_over() {
        // Room for 2 rows; hammer {1,2}, then shift the workload to {3,4}.
        let mut h = cache(4, 32, 1, 1);
        let mut out = Vec::new();
        h.lookup_batch(&[1, 1, 2, 2], &mut out);
        for _ in 0..3 {
            out.clear();
            h.lookup_batch(&[3, 3, 3, 4, 4, 4], &mut out);
        }
        assert!(h.stats().evictions >= 2, "ids 1 and 2 must be demoted");
    }

    #[test]
    fn exported_counters_reproduce_the_hit_ratio() {
        let sampler = IdSampler::new(5_000, IdDistribution::Zipf { s: 1.2 });
        let mut rng = StdRng::seed_from_u64(7);
        let mut h = cache(4, 1000 * 16, 10, 10);
        let mut out = Vec::new();
        let mut ids = Vec::new();
        for _ in 0..100 {
            ids.clear();
            sampler.sample_into(&mut rng, 256, &mut ids);
            out.clear();
            h.lookup_batch(&ids, &mut out);
        }
        let registry = picasso_obs::MetricsRegistry::new();
        h.export_metrics("t0", &registry);
        let hot = registry.counter_value(
            "embedding_lookups_total",
            &[("table", "t0"), ("outcome", "hot")],
        );
        let cold = registry.counter_value(
            "embedding_lookups_total",
            &[("table", "t0"), ("outcome", "cold")],
        );
        let from_counters = hot as f64 / (hot + cold) as f64;
        assert!(
            (from_counters - h.stats().hit_ratio()).abs() < 1e-9,
            "counter-derived ratio {from_counters} != stats ratio {}",
            h.stats().hit_ratio()
        );
        assert_eq!(
            registry.counter_value("embedding_flushes_total", &[("table", "t0")]),
            h.stats().flushes
        );
        let occupancy = registry.gauge_value("embedding_hot_occupancy", &[("table", "t0")]);
        assert!(occupancy.is_some_and(|o| (0.0..=1.0).contains(&o) && o > 0.0));
    }

    #[test]
    fn zero_capacity_never_promotes() {
        let mut h = cache(4, 0, 1, 1);
        let mut out = Vec::new();
        for _ in 0..5 {
            out.clear();
            let r = h.lookup_batch(&[1, 2], &mut out);
            assert_eq!(r.hot_hits, 0);
        }
        assert_eq!(h.hot_rows(), 0);
    }
}
