//! Empirical frequency statistics over observed ID streams.
//!
//! Used to verify that generated workloads reproduce the Fig. 3 skew, and by
//! the warm-up phase of training to drive packing-shard and cache decisions.
//!
//! IDs are table-local ranks. When a stream's ranks are known to lie below
//! a bound (the working vocabulary of the fields feeding a table), the
//! counter is a dense `Vec` indexed by rank; otherwise (serving's
//! open-ended user IDs) it is a hashmap keyed through [`IdHash`], one
//! splitmix64 mix per ID. Both answer every query identically.

use crate::synthetic::splitmix64;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes `u64` IDs with one splitmix64 mix each. IDs come from seeded
/// generators, not from an adversary, so SipHash's flood resistance buys
/// nothing; the mix still spreads IDs that differ only in their high or only
/// in their low bits over every bucket.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, id: u64) {
        self.0 = splitmix64(self.0 ^ id);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// The [`std::hash::BuildHasher`] of hashed ID maps and sets.
pub type IdHash = BuildHasherDefault<IdHasher>;

/// Per-ID counts: dense by rank under a known bound, hashed otherwise.
#[derive(Debug, Clone)]
enum Counts {
    Hashed(HashMap<u64, u64, IdHash>),
    Dense { counts: Vec<u64>, distinct: usize },
}

/// Counts occurrences of categorical IDs.
#[derive(Debug, Clone)]
pub struct FrequencyStats {
    counts: Counts,
    total: u64,
}

impl Default for FrequencyStats {
    fn default() -> Self {
        FrequencyStats::new()
    }
}

impl FrequencyStats {
    /// Creates an empty counter over unbounded IDs.
    pub fn new() -> Self {
        FrequencyStats {
            counts: Counts::Hashed(HashMap::default()),
            total: 0,
        }
    }

    /// Creates an empty counter over IDs below `bound`, stored as one count
    /// per rank. Recording an ID at or above `bound` panics.
    pub fn dense(bound: usize) -> Self {
        FrequencyStats {
            counts: Counts::Dense {
                counts: vec![0; bound],
                distinct: 0,
            },
            total: 0,
        }
    }

    /// Records one observation of `id`.
    #[inline]
    pub fn record(&mut self, id: u64) {
        match &mut self.counts {
            Counts::Hashed(map) => *map.entry(id).or_insert(0) += 1,
            Counts::Dense { counts, distinct } => {
                let c = &mut counts[id as usize];
                *distinct += usize::from(*c == 0);
                *c += 1;
            }
        }
        self.total += 1;
    }

    /// Records a slice of observations.
    pub fn record_all(&mut self, ids: &[u64]) {
        for &id in ids {
            self.record(id);
        }
    }

    /// Number of distinct IDs observed.
    pub fn distinct(&self) -> usize {
        match &self.counts {
            Counts::Hashed(map) => map.len(),
            Counts::Dense { distinct, .. } => *distinct,
        }
    }

    /// Every observed `(id, count)` pair, in storage order.
    fn unordered(&self) -> Vec<(u64, u64)> {
        match &self.counts {
            Counts::Hashed(map) => map.iter().map(|(&id, &c)| (id, c)).collect(),
            Counts::Dense { counts, distinct } => {
                let mut items = Vec::with_capacity(*distinct);
                items.extend(
                    counts
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(id, &c)| (id as u64, c)),
                );
                items
            }
        }
    }

    /// Fraction of observations covered by the top `fraction` of *distinct*
    /// IDs — the empirical version of Fig. 3's coverage curve.
    pub fn coverage_of_top(&self, fraction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&fraction));
        if self.total == 0 {
            return 0.0;
        }
        let distinct = self.distinct();
        let k = ((distinct as f64 * fraction).floor() as usize).min(distinct);
        let mut freqs: Vec<u64> = self.unordered().into_iter().map(|(_, c)| c).collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let covered: u64 = freqs[..k].iter().sum();
        covered as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hashed and a dense counter; every test runs over both.
    fn both() -> [FrequencyStats; 2] {
        [FrequencyStats::new(), FrequencyStats::dense(128)]
    }

    #[test]
    fn counting_and_totals() {
        for mut s in both() {
            s.record_all(&[1, 1, 1, 2, 3]);
            assert_eq!(s.distinct(), 3);
        }
    }

    #[test]
    fn coverage_of_skewed_stream() {
        for mut s in both() {
            // One id covers 90 of 100 observations; 10 ids cover the rest.
            for _ in 0..90 {
                s.record(0);
            }
            for id in 1..=10 {
                s.record(id);
            }
            // Top ~9% of distinct ids (1 of 11) covers 90%.
            let cov = s.coverage_of_top(0.1);
            assert!((cov - 0.9).abs() < 1e-9, "coverage {cov}");
            assert!((s.coverage_of_top(1.0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_counter_is_sane() {
        for s in both() {
            assert_eq!(s.coverage_of_top(0.5), 0.0);
            assert_eq!(s.distinct(), 0);
        }
    }

    #[test]
    fn hashed_ids_differing_in_one_half_stay_distinct() {
        let mut s = FrequencyStats::new();
        let low = 0x0000_0000_dead_beefu64;
        // Same low 32 bits, different high halves; then the reverse.
        let ids: Vec<u64> = (0..64u64)
            .map(|h| h << 32 | low)
            .chain((0..64u64).map(|l| 0xdead_beef_0000_0000 | l))
            .chain([u64::MAX, u64::MAX - 1, u64::MAX << 32, u32::MAX as u64])
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            for _ in 0..=i % 3 {
                s.record(id);
            }
        }
        assert_eq!(s.distinct(), ids.len());
    }

    #[test]
    fn representations_agree_on_a_skewed_stream() {
        let [mut hashed, mut dense] = both();
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Squaring a uniform draw skews it towards small ranks.
            let u = (x >> 40) as f64 / (1u64 << 24) as f64;
            let id = (u * u * 128.0) as u64;
            hashed.record(id);
            dense.record(id);
        }
        assert_eq!(hashed.distinct(), dense.distinct());
        for f in [0.0, 0.1, 0.2, 0.5, 1.0] {
            assert_eq!(
                hashed.coverage_of_top(f).to_bits(),
                dense.coverage_of_top(f).to_bits()
            );
        }
    }
}
