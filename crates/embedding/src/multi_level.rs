//! Multi-level HybridHash (§III-D's extension).
//!
//! The paper notes that HybridHash "can be extended to a multiple-level
//! cache system, including devices like Intel's persistent memory and SSD".
//! [`MultiLevelCache`] generalizes Algorithm 1 to an arbitrary storage
//! hierarchy: the bottom level holds the authoritative hashmap; every level
//! above it is a frequency-ranked scratchpad refreshed on the flush cadence,
//! with the hottest IDs in the fastest tier.

use crate::table::EmbeddingTable;
use picasso_data::FrequencyStats;
use std::collections::HashMap;

/// One storage tier of the hierarchy.
#[derive(Debug, Clone)]
pub struct CacheLevel {
    /// Human-readable tier name (e.g. `"hbm"`, `"dram"`, `"pmem"`).
    pub name: String,
    /// Capacity in bytes (ignored for the bottom, authoritative level).
    pub bytes: u64,
    /// Read bandwidth in bytes/s (used by cost attribution, not lookups).
    pub bandwidth: f64,
}

/// Per-level hit statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelStats {
    /// Lookups served by this level after warm-up.
    pub hits: u64,
}

/// Configuration of the hierarchy.
#[derive(Debug, Clone)]
pub struct MultiLevelConfig {
    /// Iterations of statistics-only warm-up.
    pub warmup_iters: u64,
    /// Refresh cadence.
    pub flush_iters: u64,
    /// Tiers, fastest first; the last is the authoritative store and its
    /// capacity is unbounded.
    pub levels: Vec<CacheLevel>,
}

impl MultiLevelConfig {
    /// The paper's example hierarchy: GPU HBM, DRAM, persistent memory,
    /// with an SSD-backed authoritative store.
    pub fn hbm_dram_pmem_ssd(hbm_bytes: u64, dram_bytes: u64, pmem_bytes: u64) -> Self {
        MultiLevelConfig {
            warmup_iters: 100,
            flush_iters: 100,
            levels: vec![
                CacheLevel {
                    name: "hbm".into(),
                    bytes: hbm_bytes,
                    bandwidth: 900e9,
                },
                CacheLevel {
                    name: "dram".into(),
                    bytes: dram_bytes,
                    bandwidth: 100e9,
                },
                CacheLevel {
                    name: "pmem".into(),
                    bytes: pmem_bytes,
                    bandwidth: 8e9,
                },
                CacheLevel {
                    name: "ssd".into(),
                    bytes: u64::MAX,
                    bandwidth: 2e9,
                },
            ],
        }
    }
}

/// A frequency-ranked multi-level embedding store.
#[derive(Debug)]
pub struct MultiLevelCache {
    cfg: MultiLevelConfig,
    /// The authoritative table (conceptually on the bottom level).
    store: EmbeddingTable,
    /// Cached rows per non-bottom level.
    tiers: Vec<HashMap<u64, Box<[f32]>>>,
    fcounter: FrequencyStats,
    itr: u64,
    stats: Vec<LevelStats>,
    warmup_lookups: u64,
}

impl MultiLevelCache {
    /// Wraps `store` with the configured hierarchy.
    ///
    /// # Panics
    /// If fewer than two levels are configured.
    pub fn new(store: EmbeddingTable, cfg: MultiLevelConfig) -> Self {
        assert!(
            cfg.levels.len() >= 2,
            "need at least one cache tier plus the store"
        );
        assert!(cfg.flush_iters > 0);
        let tiers = vec![HashMap::new(); cfg.levels.len() - 1];
        let stats = vec![LevelStats::default(); cfg.levels.len()];
        MultiLevelCache {
            cfg,
            store,
            tiers,
            fcounter: FrequencyStats::new(),
            itr: 0,
            stats,
            warmup_lookups: 0,
        }
    }

    /// Row capacity of tier `level`.
    pub fn tier_row_capacity(&self, level: usize) -> usize {
        (self.cfg.levels[level].bytes / (self.store.dim() as u64 * 4).max(1)) as usize
    }

    /// Per-level hit statistics (index matches `cfg.levels`; the last entry
    /// counts authoritative-store reads).
    pub fn stats(&self) -> &[LevelStats] {
        &self.stats
    }

    /// Fraction of post-warm-up lookups served above level `level`
    /// (cumulative hit ratio of the tiers faster than it).
    pub fn hit_ratio_above(&self, level: usize) -> f64 {
        let total: u64 = self.stats.iter().map(|s| s.hits).sum();
        if total == 0 {
            return 0.0;
        }
        let above: u64 = self.stats[..level].iter().map(|s| s.hits).sum();
        above as f64 / total as f64
    }

    /// Looks up a batch, appending `dim` floats per ID to `out`.
    pub fn lookup_batch(&mut self, ids: &[u64], out: &mut Vec<f32>) {
        self.itr += 1;
        if self.itr <= self.cfg.warmup_iters {
            for &id in ids {
                self.fcounter.record(id);
                self.store.gather_into(id, out);
            }
            self.warmup_lookups += ids.len() as u64;
            if self.itr == self.cfg.warmup_iters {
                self.flush();
            }
            return;
        }
        for &id in ids {
            self.fcounter.record(id);
            let mut served = false;
            for (li, tier) in self.tiers.iter().enumerate() {
                if let Some(row) = tier.get(&id) {
                    out.extend_from_slice(row);
                    self.stats[li].hits += 1;
                    served = true;
                    break;
                }
            }
            if !served {
                self.store.gather_into(id, out);
                let bottom = self.stats.len() - 1;
                self.stats[bottom].hits += 1;
            }
        }
        if (self.itr - self.cfg.warmup_iters).is_multiple_of(self.cfg.flush_iters) {
            self.flush();
        }
    }

    /// Ranks IDs by frequency and fills the tiers: hottest in tier 0, next
    /// band in tier 1, and so on.
    fn flush(&mut self) {
        let ranked = self.fcounter.top_k(self.fcounter.distinct());
        let mut cursor = 0usize;
        for li in 0..self.tiers.len() {
            let cap = self.tier_row_capacity(li);
            let end = (cursor + cap).min(ranked.len());
            let mut tier = HashMap::with_capacity(end - cursor);
            for &id in &ranked[cursor..end] {
                tier.insert(id, self.store.row(id).into());
            }
            self.tiers[li] = tier;
            cursor = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picasso_data::{IdDistribution, IdSampler};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(tier_rows: &[usize], dim: usize) -> MultiLevelConfig {
        let mut levels: Vec<CacheLevel> = tier_rows
            .iter()
            .enumerate()
            .map(|(i, &rows)| CacheLevel {
                name: format!("t{i}"),
                bytes: (rows * dim * 4) as u64,
                bandwidth: 1e9 / (i + 1) as f64,
            })
            .collect();
        levels.push(CacheLevel {
            name: "store".into(),
            bytes: u64::MAX,
            bandwidth: 1e8,
        });
        MultiLevelConfig {
            warmup_iters: 5,
            flush_iters: 50,
            levels,
        }
    }

    #[test]
    fn tiers_hold_frequency_bands() {
        let dim = 4;
        let mut cache = MultiLevelCache::new(EmbeddingTable::new(dim, 3), cfg(&[2, 4], dim));
        let mut out = Vec::new();
        // Frequencies: id 0 > 1 > 2 > ... > 9.
        for _ in 0..6 {
            let mut ids = Vec::new();
            for id in 0..10u64 {
                for _ in 0..(10 - id) {
                    ids.push(id);
                }
            }
            out.clear();
            cache.lookup_batch(&ids, &mut out);
        }
        // Tier 0 (2 rows) holds ids 0-1; tier 1 (4 rows) holds ids 2-5.
        assert!(cache.tiers[0].contains_key(&0) && cache.tiers[0].contains_key(&1));
        assert!(cache.tiers[1].contains_key(&2) && cache.tiers[1].contains_key(&5));
        assert!(!cache.tiers[1].contains_key(&0), "tiers are disjoint");
    }

    #[test]
    fn values_match_uncached_store() {
        let dim = 8;
        let mut cache = MultiLevelCache::new(EmbeddingTable::new(dim, 9), cfg(&[4, 8], dim));
        let mut reference = EmbeddingTable::new(dim, 9);
        let sampler = IdSampler::new(100, IdDistribution::Zipf { s: 1.0 });
        let mut rng = StdRng::seed_from_u64(4);
        let mut ids = Vec::new();
        let mut out = Vec::new();
        for _ in 0..20 {
            ids.clear();
            sampler.sample_into(&mut rng, 64, &mut ids);
            out.clear();
            cache.lookup_batch(&ids, &mut out);
            let mut want = Vec::new();
            for &id in &ids {
                want.extend_from_slice(reference.row(id));
            }
            assert_eq!(out, want);
        }
    }

    #[test]
    fn faster_tiers_serve_more_of_a_skewed_stream() {
        let dim = 4;
        let mut cache = MultiLevelCache::new(EmbeddingTable::new(dim, 1), cfg(&[100, 400], dim));
        let sampler = IdSampler::new(5_000, IdDistribution::Zipf { s: 1.1 });
        let mut rng = StdRng::seed_from_u64(8);
        let mut ids = Vec::new();
        let mut out = Vec::new();
        for _ in 0..60 {
            ids.clear();
            sampler.sample_into(&mut rng, 1024, &mut ids);
            out.clear();
            cache.lookup_batch(&ids, &mut out);
        }
        let s = cache.stats();
        // Tier 0 holds 2% of the vocab but serves far more than 2% of hits.
        let total: u64 = s.iter().map(|l| l.hits).sum();
        assert!(s[0].hits as f64 / total as f64 > 0.2, "{s:?}");
        // Cumulative ratios are monotone in the hierarchy.
        assert!(cache.hit_ratio_above(1) <= cache.hit_ratio_above(2));
        assert!(cache.hit_ratio_above(2) < 1.0);
    }

    #[test]
    fn paper_hierarchy_constructor() {
        let c = MultiLevelConfig::hbm_dram_pmem_ssd(1 << 30, 16 << 30, 64 << 30);
        assert_eq!(c.levels.len(), 4);
        assert_eq!(c.levels[0].name, "hbm");
        assert!(c.levels[0].bandwidth > c.levels[3].bandwidth);
    }

    #[test]
    #[should_panic(expected = "at least one cache tier")]
    fn single_level_rejected() {
        let _ = MultiLevelCache::new(
            EmbeddingTable::new(4, 0),
            MultiLevelConfig {
                warmup_iters: 1,
                flush_iters: 1,
                levels: vec![CacheLevel {
                    name: "only".into(),
                    bytes: 0,
                    bandwidth: 1.0,
                }],
            },
        );
    }
}
