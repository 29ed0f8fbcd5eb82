//! Property tests: the hot-set policy decides identically over dense and
//! hashed counters, and identically to a plain reference model of
//! Algorithm 1, also over serving's open ID space where only the hashed
//! counters apply.

use picasso_data::{IdDistribution, IdSampler};
use picasso_embedding::{CacheMetrics, CacheStats, HotSetPolicy, HybridHashConfig, LookupReport};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

const VOCAB: u64 = 300;

/// `phases` groups of seeded Zipf batches; each phase rotates the ranks by
/// `shift`, so the hot set moves between phases.
fn zipf_stream(seed: u64, s: f64, phases: usize, per_phase: usize, shift: u64) -> Vec<Vec<u64>> {
    let sampler = IdSampler::new(VOCAB, IdDistribution::Zipf { s });
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batches = Vec::new();
    for phase in 0..phases as u64 {
        for _ in 0..per_phase {
            let mut ids = Vec::new();
            sampler.sample_into(&mut rng, 64, &mut ids);
            for id in &mut ids {
                *id = (*id + phase * shift) % VOCAB;
            }
            batches.push(ids);
        }
    }
    batches
}

fn config(warmup: u64, flush: u64, rows: usize) -> HybridHashConfig {
    HybridHashConfig {
        warmup_iters: warmup,
        flush_iters: flush,
        hot_bytes: (rows * 4) as u64,
    }
}

/// Algorithm 1 written plainly: ordered maps, and a full re-ranking by
/// (count desc, ID asc) on every flush of a cache with room.
struct Reference {
    cfg: HybridHashConfig,
    capacity: usize,
    counts: BTreeMap<u64, u64>,
    hot: BTreeSet<u64>,
    itr: u64,
    stats: CacheStats,
}

impl Reference {
    fn new(cfg: &HybridHashConfig, dim: usize) -> Reference {
        Reference {
            cfg: cfg.clone(),
            capacity: cfg.hot_bytes as usize / (dim * 4),
            counts: BTreeMap::new(),
            hot: BTreeSet::new(),
            itr: 0,
            stats: CacheStats::default(),
        }
    }

    fn measure_batch(&mut self, ids: &[u64]) -> LookupReport {
        self.itr += 1;
        let warm = self.itr <= self.cfg.warmup_iters;
        let mut report = LookupReport::default();
        for &id in ids {
            if !warm && self.hot.contains(&id) {
                report.hot_hits += 1;
            } else {
                report.cold_hits += 1;
            }
            *self.counts.entry(id).or_insert(0) += 1;
        }
        let due = if warm {
            self.stats.warmup_lookups += ids.len() as u64;
            self.itr == self.cfg.warmup_iters
        } else {
            self.stats.hot_hits += report.hot_hits;
            self.stats.cold_hits += report.cold_hits;
            (self.itr - self.cfg.warmup_iters).is_multiple_of(self.cfg.flush_iters)
        };
        if due && self.capacity > 0 {
            let mut ranked: Vec<(u64, u64)> = self.counts.iter().map(|(&i, &c)| (i, c)).collect();
            ranked.sort_by_key(|&(id, c)| (Reverse(c), id));
            let hot: BTreeSet<u64> = ranked.iter().take(self.capacity).map(|p| p.0).collect();
            self.stats.flushes += 1;
            self.stats.evictions += self.hot.difference(&hot).count() as u64;
            self.hot = hot;
        }
        report
    }

    fn hot_ids(&self) -> Vec<u64> {
        self.hot.iter().copied().collect()
    }
}

/// Drives a hashed and a dense policy and the reference over `batches`,
/// asserting all three agree after every batch; returns the dense one.
fn run_both(cfg: &HybridHashConfig, batches: &[Vec<u64>]) -> HotSetPolicy {
    let mut hashed = HotSetPolicy::new(cfg, 1, None);
    let mut dense = HotSetPolicy::new(cfg, 1, Some(VOCAB as usize));
    let mut reference = Reference::new(cfg, 1);
    for ids in batches {
        let want = reference.measure_batch(ids);
        assert_eq!(hashed.measure_batch(ids), want);
        assert_eq!(dense.measure_batch(ids), want);
        assert_eq!(hashed.stats(), reference.stats);
        assert_eq!(dense.stats(), reference.stats);
        assert_eq!(hashed.hot_ids(), reference.hot_ids());
        assert_eq!(dense.hot_ids(), reference.hot_ids());
        assert_eq!(CacheMetrics::of(&hashed).hot_rows, reference.hot.len());
        assert_eq!(CacheMetrics::of(&dense).hot_rows, reference.hot.len());
    }
    let counts: Vec<(u64, u64)> = reference.counts.into_iter().collect();
    assert_eq!(hashed.counts(), counts);
    assert_eq!(dense.counts(), counts);
    assert_eq!(hashed.distinct(), dense.distinct());
    dense
}

#[test]
fn top_k_path_agrees_and_breaks_ties_by_id() {
    // Capacity well below the distinct count: every flush ranks.
    let batches = zipf_stream(3, 1.05, 1, 12, 0);
    let p = run_both(&config(4, 4, 20), &batches);
    assert!(p.distinct() > 20);
    assert_eq!(p.hot_ids().len(), 20);
    // The hot set is a prefix of the (count desc, id asc) ranking, so every
    // ID left out with the boundary count has a larger ID than every ID
    // kept with it.
    let hot = p.hot_ids();
    let min_hot = hot.iter().map(|&id| p.count(id)).min().unwrap();
    let max_tied_hot = hot.iter().filter(|&&id| p.count(id) == min_hot).max();
    let mut ties_left_out = 0;
    for (id, c) in p.counts() {
        if hot.binary_search(&id).is_err() {
            assert!(c <= min_hot);
            if c == min_hot {
                assert!(Some(&id) > max_tied_hot, "tie at {id} broken by ID");
                ties_left_out += 1;
            }
        }
    }
    assert!(
        ties_left_out > 0,
        "the stream must put a tie on the boundary"
    );
}

#[test]
fn promote_all_path_agrees() {
    // Capacity at and above the distinct count: every counted ID is hot.
    let batches = zipf_stream(5, 1.2, 1, 6, 0);
    let distinct = run_both(&config(6, 6, 1000), &batches[..6]).distinct();
    for rows in [distinct, distinct + 1, 1000] {
        let p = run_both(&config(6, 6, rows), &batches);
        assert_eq!(
            p.hot_ids(),
            &p.counts().iter().map(|c| c.0).collect::<Vec<_>>()[..]
        );
    }
}

/// The distinct count at each flush of a policy that warms up for `flush`
/// batches and flushes every `flush` batches after.
fn distinct_at_flushes(flush: usize, batches: &[Vec<u64>]) -> Vec<usize> {
    let mut seen = BTreeSet::new();
    let mut at = Vec::new();
    for (i, ids) in batches.iter().enumerate() {
        seen.extend(ids.iter().copied());
        if (i + 1) % flush == 0 {
            at.push(seen.len());
        }
    }
    at
}

#[test]
fn distinct_count_crossing_capacity_between_flushes_agrees() {
    // The hot set moves every phase, so every flush sees new IDs.
    let batches = zipf_stream(21, 1.1, 4, 2, 61);
    let at = distinct_at_flushes(2, &batches);
    assert!(at.windows(2).all(|w| w[0] < w[1]), "{at:?}");
    let mut evictions = 0;
    for j in 0..at.len() - 1 {
        // Every flush up to j promotes all; every flush after ranks.
        for rows in [at[j], at[j] + 1, at[j + 1] - 1] {
            let p = run_both(&config(2, 2, rows), &batches);
            assert_eq!(p.hot_ids().len(), rows);
            evictions += p.stats().evictions;
        }
    }
    assert!(evictions > 0, "the ranked flushes must demote rows");
}

#[test]
fn flush_at_exactly_capacity_promotes_all_and_evicts_nothing() {
    let batches = zipf_stream(23, 1.1, 3, 2, 83);
    let at = distinct_at_flushes(2, &batches);
    for (j, &rows) in at.iter().enumerate() {
        // The stream ends on the flush that finds exactly `rows` IDs.
        let p = run_both(&config(2, 2, rows), &batches[..2 * (j + 1)]);
        assert_eq!(p.distinct(), rows);
        assert_eq!(
            p.hot_ids(),
            p.counts().iter().map(|c| c.0).collect::<Vec<_>>()
        );
        assert_eq!(p.stats().flushes, j as u64 + 1);
        assert_eq!(p.stats().evictions, 0);
    }
}

#[test]
fn shifting_hot_set_evicts_identically() {
    let batches = zipf_stream(7, 1.3, 4, 5, 97);
    let p = run_both(&config(2, 3, 16), &batches);
    assert!(p.stats().flushes >= 4);
    assert!(
        p.stats().evictions > 0,
        "the moving hot set must demote rows"
    );
}

#[test]
fn zero_capacity_agrees_and_never_flushes() {
    let batches = zipf_stream(9, 1.1, 2, 4, 50);
    let p = run_both(&config(1, 1, 0), &batches);
    assert_eq!(p.stats().flushes, 0);
    assert!(p.hot_ids().is_empty());
    assert_eq!(p.stats().hot_hits, 0);
}

proptest! {
    /// Over any seeded Zipf stream and cadence, the dense and hashed
    /// policies and the reference model agree.
    #[test]
    fn dense_hashed_and_reference_policies_agree(
        seed in 0u64..1_000_000,
        rows in 0usize..120,
        warmup in 1u64..4,
        flush in 1u64..4,
        shift in 0u64..VOCAB,
    ) {
        let batches = zipf_stream(seed, 1.1, 3, 3, shift);
        let policy = run_both(&config(warmup, flush, rows), &batches);
        prop_assert!(policy.hot_ids().len() <= rows);
    }
}

/// Serving's open ID space: Zipf ranks over three million users mixed with
/// IDs at or above 2^32 (distinct only in their high half) and IDs just
/// below `u64::MAX`.
fn open_id_stream(seed: u64, batches: usize) -> Vec<Vec<u64>> {
    let sampler = IdSampler::new(3_000_000, IdDistribution::Zipf { s: 0.8 });
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ranks = Vec::new();
    (0..batches)
        .map(|_| {
            ranks.clear();
            sampler.sample_into(&mut rng, 256, &mut ranks);
            ranks
                .iter()
                .enumerate()
                .map(|(i, &r)| match i % 4 {
                    0 | 1 => r,
                    2 => (1 + r % 4096) << 32 | 7,
                    _ => u64::MAX - r % 1024,
                })
                .collect()
        })
        .collect()
}

#[test]
fn hashed_policy_matches_the_reference_over_open_ids() {
    let dim = 2;
    // 300 hot rows, far fewer than the distinct IDs: every flush ranks.
    let cfg = config(3, 4, 300 * dim);
    let mut policy = HotSetPolicy::new(&cfg, dim, None);
    let mut reference = Reference::new(&cfg, dim);
    for (b, ids) in open_id_stream(13, 40).iter().enumerate() {
        let want = reference.measure_batch(ids);
        assert_eq!(policy.measure_batch(ids), want, "batch {b}");
        assert_eq!(policy.stats(), reference.stats, "batch {b}");
        assert_eq!(policy.hot_ids(), reference.hot_ids(), "batch {b}");
    }
    let stats = policy.stats();
    assert!(stats.flushes >= 9 && stats.hot_hits > 0 && stats.evictions > 0);
    assert_eq!(policy.hot_ids().len(), 300);
    assert!(policy.hot_ids().iter().any(|&id| id >= 1 << 32));
    assert!(policy.hot_ids().iter().any(|&id| id > u64::MAX - 1024));
    assert_eq!(
        policy.counts(),
        reference.counts.into_iter().collect::<Vec<_>>()
    );
}
