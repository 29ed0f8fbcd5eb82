//! HybridHash — the paper's Algorithm 1, as the hot-set policy alone.
//!
//! The embedding hashmap (a sparse structure) lives in *Cold-storage* (DRAM:
//! large but bandwidth-bound); *Hot-storage* (GPU device memory: fast but
//! capacity-bound) is a scratchpad holding the top-k most frequently queried
//! rows. During `warmup_iters` iterations only the host-side frequency
//! counter is trained; afterwards every `flush_iters` iterations the hot set
//! is refreshed from the counter. If at flush time every counted ID fits in
//! Hot-storage, everything is promoted.
//!
//! [`HotSetPolicy`] decides *which* IDs Hot-storage holds; it owns the
//! iteration counter, the warm-up/flush cadence, the frequency counts, the
//! top-k flush and the cache statistics, but no embedding rows. Hit ratios
//! depend only on which IDs are hot, so warm-up and serving drive it alone
//! through [`HotSetPolicy::measure_batch`].
//!
//! Each counted ID has one slot holding its count and a hot bit
//! (`count << 1 | hot`), so a lookup is one probe that bumps the count and
//! reads the hit. With a known rank bound (a table's working vocabulary)
//! the slots are a dense array indexed by rank; without one (serving's
//! open-ended user IDs) they are a hashmap on [`picasso_data::IdHash`].
//! A flush re-marks the slots in place: while every counted ID fits it
//! sets every hot bit, and once they no longer fit, one selection finds
//! the k-th ID of the (count desc, ID asc) ranking and one pass marks the
//! IDs ranked at or before it. Neither sorts.

use picasso_data::IdHash;
use picasso_obs::{MetricKind, MetricsRegistry};
use std::collections::HashMap;

/// Configuration of the HybridHash cache.
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

/// One slot per counted ID: its count shifted left by one, and the hot bit
/// in bit 0, so a lookup bumps the count and reads the hit in one probe.
/// Dense by rank under a known bound, hashed otherwise.
#[derive(Debug, Clone)]
enum Slots {
    Dense { slots: Vec<u64>, distinct: usize },
    Hashed(HashMap<u64, u64, IdHash>),
}

/// One count in a slot's bits.
const ONE: u64 = 2;
/// The hot bit of a slot.
const HOT: u64 = 1;

impl Slots {
    fn distinct(&self) -> usize {
        match self {
            Slots::Dense { distinct, .. } => *distinct,
            Slots::Hashed(map) => map.len(),
        }
    }

    /// The slot of `id`, or 0 when it was never counted.
    fn get(&self, id: u64) -> u64 {
        match self {
            Slots::Dense { slots, .. } => usize::try_from(id)
                .ok()
                .and_then(|i| slots.get(i))
                .copied()
                .unwrap_or(0),
            Slots::Hashed(map) => map.get(&id).copied().unwrap_or(0),
        }
    }

    /// Counts every ID of `ids` once, returning how many were hot.
    fn count_hits(&mut self, ids: &[u64]) -> u64 {
        let mut hits = 0;
        match self {
            Slots::Dense { slots, distinct } => {
                for &id in ids {
                    let s = &mut slots[id as usize];
                    *distinct += usize::from(*s == 0);
                    *s += ONE;
                    hits += *s & HOT;
                }
            }
            Slots::Hashed(map) => {
                for &id in ids {
                    let s = map.entry(id).or_insert(0);
                    *s += ONE;
                    hits += *s & HOT;
                }
            }
        }
        hits
    }

    /// Calls `f` on every counted `(id, slot)`, in storage order.
    fn for_each(&mut self, mut f: impl FnMut(u64, &mut u64)) {
        match self {
            Slots::Dense { slots, .. } => {
                for (id, s) in slots.iter_mut().enumerate() {
                    if *s != 0 {
                        f(id as u64, s);
                    }
                }
            }
            Slots::Hashed(map) => {
                for (&id, s) in map.iter_mut() {
                    f(id, s);
                }
            }
        }
    }

    /// Every counted `(id, slot)`, ascending by ID.
    fn sorted(&self) -> Vec<(u64, u64)> {
        match self {
            Slots::Dense { slots, .. } => slots
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s != 0)
                .map(|(id, &s)| (id as u64, s))
                .collect(),
            Slots::Hashed(map) => {
                let mut items: Vec<(u64, u64)> = map.iter().map(|(&id, &s)| (id, s)).collect();
                items.sort_unstable();
                items
            }
        }
    }
}

/// Algorithm 1's hit policy: counts ID frequencies, and on the flush
/// cadence makes the top-k most frequent IDs hot (ties broken by ID), or
/// every counted ID when they all fit.
#[derive(Debug, Clone)]
pub struct HotSetPolicy {
    warmup_iters: u64,
    flush_iters: u64,
    capacity: usize,
    slots: Slots,
    /// Slots whose hot bit is set.
    hot: usize,
    itr: u64,
    stats: CacheStats,
}

impl HotSetPolicy {
    /// A policy with the cadence of `cfg` and room for `cfg.hot_bytes` of
    /// `dim`-float rows. With `bound`, IDs must be ranks below it and the
    /// slots are dense.
    pub fn new(cfg: &HybridHashConfig, dim: usize, bound: Option<usize>) -> Self {
        assert!(cfg.flush_iters > 0, "flush_iters must be positive");
        HotSetPolicy {
            warmup_iters: cfg.warmup_iters,
            flush_iters: cfg.flush_iters,
            capacity: (cfg.hot_bytes as usize) / (dim * 4),
            slots: match bound {
                Some(b) => Slots::Dense {
                    slots: vec![0; b],
                    distinct: 0,
                },
                None => Slots::Hashed(HashMap::default()),
            },
            hot: 0,
            itr: 0,
            stats: CacheStats::default(),
        }
    }

    /// Maximum IDs the hot set may hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of distinct IDs counted.
    pub fn distinct(&self) -> usize {
        self.slots.distinct()
    }

    /// How often `id` was counted.
    pub fn count(&self, id: u64) -> u64 {
        self.slots.get(id) >> 1
    }

    /// Every counted `(id, count)` pair, ascending by ID.
    pub fn counts(&self) -> Vec<(u64, u64)> {
        let slots = self.slots.sorted().into_iter();
        slots.map(|(id, s)| (id, s >> 1)).collect()
    }

    /// The hot IDs, ascending.
    pub fn hot_ids(&self) -> Vec<u64> {
        let slots = self.slots.sorted().into_iter();
        slots
            .filter(|&(_, s)| s & HOT != 0)
            .map(|(id, _)| id)
            .collect()
    }

    /// One iteration of Algorithm 1 over `ids`: an ID hits when it is in the
    /// hot set, and everything is served cold during warm-up. Returns where
    /// the IDs were served from.
    pub fn measure_batch(&mut self, ids: &[u64]) -> LookupReport {
        self.itr += 1;
        // L9-12: during warm-up only the counter trains; L14-21 afterwards.
        // The first flush ends the warm-up, so no ID is hot before it.
        let hot_hits = self.slots.count_hits(ids);
        let report = LookupReport {
            hot_hits,
            cold_hits: ids.len() as u64 - hot_hits,
        };
        let flush_due = if self.itr <= self.warmup_iters {
            debug_assert_eq!(hot_hits, 0, "an ID was hot during warm-up");
            self.stats.warmup_lookups += ids.len() as u64;
            self.itr == self.warmup_iters
        } else {
            self.stats.hot_hits += report.hot_hits;
            self.stats.cold_hits += report.cold_hits;
            // L23-26: periodic refresh of the hot set.
            (self.itr - self.warmup_iters).is_multiple_of(self.flush_iters)
        };
        if flush_due {
            self.flush();
        }
        report
    }

    /// Makes the top-k most frequent IDs hot (L24-25), or every counted ID
    /// when they all fit. Changes nothing when the hot set has no room at
    /// all.
    fn flush(&mut self) {
        if self.capacity == 0 {
            return;
        }
        self.stats.flushes += 1;
        let distinct = self.slots.distinct();
        if distinct <= self.capacity {
            // Every counted ID fits. The distinct count never falls, so
            // every earlier flush promoted all too: no hot ID leaves.
            self.slots.for_each(|_, s| *s |= HOT);
            self.hot = distinct;
            return;
        }
        // The k-th pair of the (count desc, ID asc) ranking: a slot is hot
        // when it ranks at or before it.
        let k = self.capacity;
        let mut ranked: Vec<(u64, u64)> = Vec::with_capacity(distinct);
        self.slots.for_each(|id, s| ranked.push((*s >> 1, id)));
        let (_, &mut (kc, kid), _) =
            ranked.select_nth_unstable_by(k - 1, |a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut evicted = 0;
        self.slots.for_each(|id, s| {
            let c = *s >> 1;
            let hot = u64::from(c > kc || (c == kc && id <= kid));
            evicted += *s & HOT & !hot;
            *s = c << 1 | hot;
        });
        self.hot = k;
        self.stats.evictions += evicted;
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
            hot_rows: policy.hot,
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

    fn cfg(warmup: u64, flush: u64, rows: u64) -> HybridHashConfig {
        HybridHashConfig {
            warmup_iters: warmup,
            flush_iters: flush,
            hot_bytes: rows * 4,
        }
    }

    /// A policy over one-float rows, hashed and dense.
    fn both(warmup: u64, flush: u64, rows: u64) -> [HotSetPolicy; 2] {
        let c = cfg(warmup, flush, rows);
        [
            HotSetPolicy::new(&c, 1, None),
            HotSetPolicy::new(&c, 1, Some(16)),
        ]
    }

    /// Drives `p` over `batches` seeded Zipf(1.2) batches of `size` IDs
    /// drawn from `vocab`.
    fn drive_zipf(p: &mut HotSetPolicy, vocab: u64, seed: u64, batches: usize, size: usize) {
        let sampler = IdSampler::new(vocab, IdDistribution::Zipf { s: 1.2 });
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids = Vec::new();
        for _ in 0..batches {
            ids.clear();
            sampler.sample_into(&mut rng, size, &mut ids);
            p.measure_batch(&ids);
        }
    }

    #[test]
    fn measuring_alone_serves_the_top_ids_hot() {
        for mut p in both(1, 10, 2) {
            let r = p.measure_batch(&[1, 1, 2, 2, 3]);
            assert_eq!((r.hot_hits, r.cold_hits), (0, 5), "warm-up is cold");
            assert_eq!(p.hot_ids(), [1, 2]);
            let r = p.measure_batch(&[1, 2, 3]);
            assert_eq!((r.hot_hits, r.cold_hits), (2, 1));
            assert_eq!(p.stats().flushes, 1);
        }
    }

    #[test]
    fn warmup_serves_cold_and_counts() {
        for mut p in both(2, 10, 1 << 10) {
            let r = p.measure_batch(&[1, 2, 1]);
            assert_eq!((r.hot_hits, r.cold_hits), (0, 3));
            assert_eq!(p.stats().warmup_lookups, 3);
            assert_eq!(p.count(1), 2);
            assert!(p.hot_ids().is_empty(), "no flush before warm-up ends");
        }
    }

    #[test]
    fn capacity_bounds_hot_rows() {
        for mut p in both(1, 1, 2) {
            p.measure_batch(&[1, 1, 1, 2, 2, 3]);
            assert_eq!(p.hot_ids(), [1, 2], "the two hottest ids are cached");
            let r = p.measure_batch(&[1, 2, 3]);
            assert_eq!((r.hot_hits, r.cold_hits), (2, 1));
        }
    }

    #[test]
    fn flush_cadence_matches_config() {
        for mut p in both(2, 3, 1 << 10) {
            for _ in 0..11 {
                p.measure_batch(&[1]);
            }
            // Flush at end of warm-up (itr=2) + every 3 iters after (5, 8, 11).
            assert_eq!(p.stats().flushes, 4);
        }
    }

    #[test]
    fn evictions_are_counted_when_the_hot_set_turns_over() {
        // Room for 2 rows; hammer {1,2}, then shift the workload to {3,4}.
        for mut p in both(1, 1, 2) {
            p.measure_batch(&[1, 1, 2, 2]);
            for _ in 0..3 {
                p.measure_batch(&[3, 3, 3, 4, 4, 4]);
            }
            assert_eq!(p.hot_ids(), [3, 4]);
            assert_eq!(p.stats().evictions, 2, "ids 1 and 2 are demoted");
        }
    }

    #[test]
    fn skewed_stream_reaches_high_hit_ratio() {
        // Hot storage for 2000 of 10000 ids (20%).
        let mut p = HotSetPolicy::new(&cfg(20, 20, 2000 * 4), 4, Some(10_000));
        drive_zipf(&mut p, 10_000, 11, 200, 512);
        let ratio = p.stats().hit_ratio();
        assert!(
            ratio > 0.6,
            "zipf(1.2) with 20% cache should hit often, got {ratio:.3}"
        );
    }

    #[test]
    fn exported_counters_reproduce_the_hit_ratio() {
        let mut p = HotSetPolicy::new(&cfg(10, 10, 1000 * 4), 4, None);
        drive_zipf(&mut p, 5_000, 7, 100, 256);
        let registry = MetricsRegistry::new();
        CacheMetrics::of(&p).export("t0", &registry);
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
            (from_counters - p.stats().hit_ratio()).abs() < 1e-9,
            "counter-derived ratio {from_counters} != stats ratio {}",
            p.stats().hit_ratio()
        );
        assert_eq!(
            registry.counter_value("embedding_flushes_total", &[("table", "t0")]),
            p.stats().flushes
        );
        let occupancy = registry.gauge_value("embedding_hot_occupancy", &[("table", "t0")]);
        assert!(occupancy.is_some_and(|o| (0.0..=1.0).contains(&o) && o > 0.0));
    }
}
