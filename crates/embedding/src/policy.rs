//! Algorithm 1's hot-set policy, apart from any row storage.
//!
//! [`HotSetPolicy`] decides *which* IDs Hot-storage holds; it owns the
//! iteration counter, the warm-up/flush cadence, the frequency counter, the
//! incremental-checkpoint `touched` set, the top-k flush and the cache
//! statistics, but no embedding rows. [`HybridHash`] pairs it with the
//! cold table and the hot row arena; the warm-up measurement drives it
//! alone, because hit ratios depend only on which IDs are hot.
//!
//! Counters follow the ID space: with a known rank bound (a table's working
//! vocabulary) the frequency counter, the touched set and the hot-set
//! membership are dense arrays indexed by rank; without one (serving's
//! open-ended user IDs) they are a hashmap and a hash set on
//! [`picasso_data::IdHash`], and a sorted list. The touched set is sorted
//! only when listed, so checkpoints still see it ascending.
//!
//! [`HybridHash`]: crate::HybridHash

use crate::hybrid_hash::{CacheStats, HybridHashConfig, LookupReport};
use picasso_data::{FrequencyStats, IdHash};
use std::collections::HashSet;

/// A set of IDs: marks by rank under a bound, a hash set otherwise.
#[derive(Debug, Clone)]
enum IdSet {
    Dense { marks: Vec<bool>, len: usize },
    Sparse(HashSet<u64, IdHash>),
}

impl IdSet {
    fn with_bound(bound: Option<usize>) -> IdSet {
        match bound {
            Some(b) => IdSet::Dense {
                marks: vec![false; b],
                len: 0,
            },
            None => IdSet::Sparse(HashSet::default()),
        }
    }

    #[inline]
    fn insert(&mut self, id: u64) {
        match self {
            IdSet::Dense { marks, len } => {
                let m = &mut marks[id as usize];
                *len += usize::from(!*m);
                *m = true;
            }
            IdSet::Sparse(set) => {
                set.insert(id);
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            IdSet::Dense { len, .. } => *len,
            IdSet::Sparse(set) => set.len(),
        }
    }

    /// Members, ascending.
    fn ids(&self) -> Vec<u64> {
        match self {
            IdSet::Dense { marks, len } => {
                let mut ids = Vec::with_capacity(*len);
                ids.extend((0..marks.len() as u64).filter(|&id| marks[id as usize]));
                ids
            }
            IdSet::Sparse(set) => {
                let mut ids: Vec<u64> = set.iter().copied().collect();
                ids.sort_unstable();
                ids
            }
        }
    }

    fn clear(&mut self) {
        match self {
            IdSet::Dense { marks, len } => {
                marks.fill(false);
                *len = 0;
            }
            IdSet::Sparse(set) => set.clear(),
        }
    }
}

/// The hot set: its IDs ascending, plus a mark per rank when IDs are
/// bounded so that membership is one load.
#[derive(Debug, Clone)]
struct HotSet {
    ids: Vec<u64>,
    marks: Option<Vec<bool>>,
}

impl HotSet {
    #[inline]
    fn contains(&self, id: u64) -> bool {
        match &self.marks {
            Some(marks) => marks.get(id as usize).copied().unwrap_or(false),
            None => self.ids.binary_search(&id).is_ok(),
        }
    }

    /// Replaces the members with `ids` (ascending, distinct), returning how
    /// many current members are not kept.
    fn replace(&mut self, ids: Vec<u64>) -> u64 {
        let kept = count_common(&self.ids, &ids);
        let evicted = (self.ids.len() - kept) as u64;
        if let Some(marks) = &mut self.marks {
            for &id in &self.ids {
                marks[id as usize] = false;
            }
            for &id in &ids {
                marks[id as usize] = true;
            }
        }
        self.ids = ids;
        evicted
    }
}

/// Number of IDs present in both ascending lists.
fn count_common(a: &[u64], b: &[u64]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// What one [`HotSetPolicy::lookup_batch`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStep {
    /// Where this call's IDs were served from.
    pub report: LookupReport,
    /// Whether the call ended with a flush that replaced the hot set; row
    /// storage must then reload [`HotSetPolicy::hot_ids`].
    pub flushed: bool,
}

/// Algorithm 1's hit policy: counts ID frequencies, and on the flush
/// cadence replaces the hot set with the top-k most frequent IDs (ties
/// broken by ID), or with every counted ID when they all fit.
#[derive(Debug, Clone)]
pub struct HotSetPolicy {
    warmup_iters: u64,
    flush_iters: u64,
    capacity: usize,
    counter: FrequencyStats,
    /// IDs whose counter changed since the last [`HotSetPolicy::mark_clean`].
    touched: IdSet,
    hot: HotSet,
    itr: u64,
    stats: CacheStats,
}

impl HotSetPolicy {
    /// A policy with the cadence of `cfg` and room for `cfg.hot_bytes` of
    /// `dim`-float rows. With `bound`, IDs must be ranks below it and every
    /// per-ID structure is dense.
    pub fn new(cfg: &HybridHashConfig, dim: usize, bound: Option<usize>) -> Self {
        assert!(cfg.flush_iters > 0, "flush_iters must be positive");
        HotSetPolicy {
            warmup_iters: cfg.warmup_iters,
            flush_iters: cfg.flush_iters,
            capacity: (cfg.hot_bytes as usize) / (dim * 4),
            counter: bound.map_or_else(FrequencyStats::new, FrequencyStats::dense),
            touched: IdSet::with_bound(bound),
            hot: HotSet {
                ids: Vec::new(),
                marks: bound.map(|b| vec![false; b]),
            },
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

    /// Current iteration counter.
    pub fn iteration(&self) -> u64 {
        self.itr
    }

    /// The frequency counter.
    pub fn counter(&self) -> &FrequencyStats {
        &self.counter
    }

    /// The hot IDs, ascending.
    pub fn hot_ids(&self) -> &[u64] {
        &self.hot.ids
    }

    /// Number of IDs whose counter changed since the last
    /// [`HotSetPolicy::mark_clean`].
    pub fn touched_count(&self) -> usize {
        self.touched.len()
    }

    /// `(id, count)` of every touched ID, ascending by ID.
    pub fn touched_counts(&self) -> Vec<(u64, u64)> {
        self.touched
            .ids()
            .into_iter()
            .map(|id| (id, self.counter.count(id)))
            .collect()
    }

    /// Clears the touched set after a checkpoint captured it.
    pub fn mark_clean(&mut self) {
        self.touched.clear();
    }

    /// One iteration of Algorithm 1 over `ids`. `serve(id, may_hit)` serves
    /// one ID and returns whether Hot-storage served it; `may_hit` is false
    /// during warm-up, when everything is served cold.
    pub fn lookup_batch(
        &mut self,
        ids: &[u64],
        mut serve: impl FnMut(u64, bool) -> bool,
    ) -> PolicyStep {
        self.step(ids, |_, id, may_hit| serve(id, may_hit))
    }

    /// One iteration of Algorithm 1 with no rows behind it: an ID hits when
    /// it is in the hot set. Returns where the IDs would have been served.
    pub fn measure_batch(&mut self, ids: &[u64]) -> LookupReport {
        self.step(ids, |hot, id, may_hit| may_hit && hot.contains(id))
            .report
    }

    fn step(
        &mut self,
        ids: &[u64],
        mut serve: impl FnMut(&HotSet, u64, bool) -> bool,
    ) -> PolicyStep {
        let mut report = LookupReport::default();
        self.itr += 1;
        // L9-12: during warm-up only the counter trains; L14-21 afterwards.
        let warm = self.itr <= self.warmup_iters;
        for &id in ids {
            if serve(&self.hot, id, !warm) {
                report.hot_hits += 1;
            } else {
                report.cold_hits += 1;
            }
            self.counter.record(id);
            self.touched.insert(id);
        }
        let flush_due = if warm {
            self.stats.warmup_lookups += ids.len() as u64;
            self.itr == self.warmup_iters
        } else {
            self.stats.hot_hits += report.hot_hits;
            self.stats.cold_hits += report.cold_hits;
            // L23-26: periodic refresh of the hot set.
            (self.itr - self.warmup_iters).is_multiple_of(self.flush_iters)
        };
        PolicyStep {
            report,
            flushed: flush_due && self.flush(),
        }
    }

    /// Replaces the hot set with the top-k most frequent IDs (L24-25), or
    /// with every counted ID when they all fit: the two select the same set
    /// then, and listing the counter avoids the ranking. Returns false, and
    /// changes nothing, when the hot set has no room at all.
    fn flush(&mut self) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.stats.flushes += 1;
        let hot_ids: Vec<u64> = if self.counter.distinct() <= self.capacity {
            self.counter
                .counts()
                .into_iter()
                .map(|(id, _)| id)
                .collect()
        } else {
            let mut top = self.counter.top_k(self.capacity);
            top.sort_unstable();
            top
        };
        self.stats.evictions += self.hot.replace(hot_ids);
        true
    }

    /// Resets the policy to a checkpointed state: iteration, statistics,
    /// hot set, and the counters (replacing all of them when `full`,
    /// overwriting just the listed ones otherwise). Ends clean.
    pub fn restore(
        &mut self,
        itr: u64,
        stats: CacheStats,
        counters: &[(u64, u64)],
        hot_ids: &[u64],
        full: bool,
    ) {
        if full {
            self.counter.clear();
        }
        for &(id, count) in counters {
            self.counter.set_count(id, count);
        }
        self.itr = itr;
        self.stats = stats;
        let mut ids = hot_ids.to_vec();
        ids.sort_unstable();
        ids.dedup();
        self.hot.replace(ids);
        self.mark_clean();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(warmup: u64, flush: u64, rows: u64) -> HybridHashConfig {
        HybridHashConfig {
            warmup_iters: warmup,
            flush_iters: flush,
            hot_bytes: rows * 4,
        }
    }

    #[test]
    fn measuring_alone_serves_the_top_ids_hot() {
        for bound in [None, Some(16)] {
            let mut p = HotSetPolicy::new(&cfg(1, 10, 2), 1, bound);
            let r = p.measure_batch(&[1, 1, 2, 2, 3]);
            assert_eq!((r.hot_hits, r.cold_hits), (0, 5), "warm-up is cold");
            assert_eq!(p.hot_ids(), &[1, 2]);
            let r = p.measure_batch(&[1, 2, 3]);
            assert_eq!((r.hot_hits, r.cold_hits), (2, 1));
            assert_eq!(p.stats().flushes, 1);
        }
    }

    #[test]
    fn touched_counts_are_ascending_and_cleared() {
        for bound in [None, Some(64)] {
            let mut p = HotSetPolicy::new(&cfg(5, 5, 8), 1, bound);
            p.measure_batch(&[40, 3, 40, 17]);
            assert_eq!(p.touched_count(), 3);
            assert_eq!(p.touched_counts(), vec![(3, 1), (17, 1), (40, 2)]);
            p.mark_clean();
            assert_eq!(p.touched_count(), 0);
            assert_eq!(p.counter().count(40), 2, "counters survive mark_clean");
        }
    }

    #[test]
    fn restore_replaces_or_overwrites_counters() {
        let mut p = HotSetPolicy::new(&cfg(1, 1, 8), 1, None);
        p.measure_batch(&[1, 2, 2]);
        p.restore(9, CacheStats::default(), &[(2, 7)], &[2], false);
        assert_eq!(p.counter().counts(), vec![(1, 1), (2, 7)]);
        p.restore(9, CacheStats::default(), &[(5, 1)], &[5, 5], true);
        assert_eq!(p.counter().counts(), vec![(5, 1)]);
        assert_eq!((p.iteration(), p.hot_ids()), (9, &[5u64][..]));
        assert_eq!(p.touched_count(), 0);
    }
}
