//! Categorical-ID distributions.
//!
//! Section II-B of the paper observes that categorical feature IDs are
//! heavily skewed: sorted by frequency, the top 20 % of IDs cover 70 % of the
//! training data on average and up to 99 % (Fig. 3). We model every field's
//! ID stream as a (possibly uniform) Zipf distribution over its vocabulary,
//! sampled by exact CDF inversion so the empirical skew matches the analytic
//! coverage the caching experiments depend on. The inversion goes through a
//! guide table (indexed search, Chen & Asau 1974): a draw starts at the
//! first rank of its bucket and scans forward a step or two, and it returns
//! exactly the rank a binary search over the cumulative weights would.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The shape of a field's categorical-ID distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum IdDistribution {
    /// All IDs equally likely.
    Uniform,
    /// Zipf with the given exponent `s > 0`: weight of rank-k ID is `k^-s`.
    Zipf {
        /// Exponent; larger means more skew.
        s: f64,
    },
}

impl IdDistribution {
    /// Zipf exponent, or 0.0 for uniform.
    pub fn exponent(self) -> f64 {
        match self {
            IdDistribution::Uniform => 0.0,
            IdDistribution::Zipf { s } => s,
        }
    }
}

/// Guide-table buckets per rank. At one per rank the scan of a draw costs
/// more than a binary search at vocabulary 1,000; at four it costs less at
/// every vocabulary the workspace samples.
const GUIDE_PER_RANK: usize = 4;

/// A sampler over `0..vocab` ranks with precomputed cumulative weights.
///
/// Rank 0 is the most frequent ID. Samplers are cheap to clone (the weight
/// and guide tables are shared).
#[derive(Debug, Clone)]
pub struct IdSampler {
    cumulative: Arc<[f64]>,
    /// The last cumulative weight: the mass of the whole vocabulary.
    total: f64,
    /// `guide[j]` counts the ranks whose cumulative weight falls in a
    /// bucket below `j`: where a draw in bucket `j` starts looking.
    guide: Arc<[u32]>,
    /// `guide.len() / total`, the bucket width's inverse.
    scale: f64,
}

/// The guide bucket of weight `u` among `m` buckets of width `1 / scale`.
/// Monotone in `u`, which is all the exactness of a draw rests on.
#[inline]
fn bucket(u: f64, scale: f64, m: usize) -> usize {
    ((u * scale) as usize).min(m - 1)
}

impl IdSampler {
    /// Builds a sampler for a vocabulary of `vocab` IDs.
    ///
    /// # Panics
    /// If `vocab == 0`, if `vocab` does not fit the guide table's `u32`
    /// ranks, or if the Zipf exponent is not finite and positive.
    pub fn new(vocab: u64, dist: IdDistribution) -> Self {
        assert!(vocab > 0, "vocabulary must be nonempty");
        assert!(
            vocab <= u32::MAX as u64,
            "vocabulary must fit the guide table's u32 ranks"
        );
        let s = dist.exponent();
        assert!(s.is_finite() && s >= 0.0, "zipf exponent must be >= 0");
        let n = vocab as usize;
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for k in 1..=n {
            total += (k as f64).powf(-s);
            cumulative.push(total);
        }
        let m = GUIDE_PER_RANK * n;
        let scale = m as f64 / total;
        // Bucket indices are monotone in the weight, so one pointer walks
        // the cumulative weights once.
        let mut guide = Vec::with_capacity(m);
        let mut k = 0;
        for j in 0..m {
            while k < n && bucket(cumulative[k], scale, m) < j {
                k += 1;
            }
            guide.push(k as u32);
        }
        IdSampler {
            cumulative: cumulative.into(),
            total,
            guide: guide.into(),
            scale,
        }
    }

    /// Cumulative weights: entry `k` is the unnormalized mass of ranks
    /// `0..=k`, so the last entry is the total.
    pub fn cumulative(&self) -> &[f64] {
        &self.cumulative
    }

    /// Number of guide-table buckets, `m`: bucket `j` holds the draws `u`
    /// whose `u * m / total`, as the lookup rounds it, lies in `[j, j + 1)`
    /// (the last bucket also takes everything above).
    pub fn buckets(&self) -> usize {
        self.guide.len()
    }

    /// Draws one ID rank (0 = hottest).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen_range(0.0..self.total);
        self.rank_of(u) as u64
    }

    /// The first rank whose cumulative weight exceeds `u`: exactly
    /// `cumulative.partition_point(|&c| c <= u)`, found by a forward scan
    /// from `u`'s guide bucket. The scan never needs to step back: the
    /// bucket map is monotone, so every weight counted below the start
    /// sits in a lower bucket than `u` and is therefore below it.
    pub fn rank_of(&self, u: f64) -> usize {
        let c = &self.cumulative;
        let mut k = self.guide[bucket(u, self.scale, self.guide.len())] as usize;
        while k < c.len() && c[k] <= u {
            k += 1;
        }
        k
    }

    /// Fills `out` with `n` sampled IDs.
    pub fn sample_into<R: Rng + ?Sized>(&self, rng: &mut R, n: usize, out: &mut Vec<u64>) {
        out.reserve(n);
        for _ in 0..n {
            out.push(self.sample(rng));
        }
    }

    /// Analytic fraction of probability mass covered by the top
    /// `fraction` of IDs (by rank). This is the quantity plotted in Fig. 3.
    pub fn coverage_of_top(&self, fraction: f64) -> f64 {
        assert!((0.0..=1.0).contains(&fraction), "fraction in [0,1]");
        let n = self.cumulative.len();
        let k = ((n as f64 * fraction).floor() as usize).min(n);
        if k == 0 {
            return 0.0;
        }
        self.cumulative[k - 1] / self.cumulative[n - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_coverage_is_linear() {
        let s = IdSampler::new(1000, IdDistribution::Uniform);
        assert!((s.coverage_of_top(0.2) - 0.2).abs() < 1e-9);
        assert!((s.coverage_of_top(1.0) - 1.0).abs() < 1e-12);
        assert_eq!(s.coverage_of_top(0.0), 0.0);
    }

    #[test]
    fn zipf_top_20_percent_covers_most_mass() {
        // The Fig. 3 observation: 20% of IDs cover ~70% of data on average.
        let s = IdSampler::new(100_000, IdDistribution::Zipf { s: 1.1 });
        let cov = s.coverage_of_top(0.2);
        assert!(cov > 0.65, "zipf(1.1) coverage of top 20% was {cov}");
        let hot = IdSampler::new(100_000, IdDistribution::Zipf { s: 1.6 });
        assert!(hot.coverage_of_top(0.2) > 0.95);
    }

    #[test]
    fn empirical_frequencies_match_skew() {
        let s = IdSampler::new(1000, IdDistribution::Zipf { s: 1.2 });
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u64; 1000];
        let draws = 200_000;
        for _ in 0..draws {
            counts[s.sample(&mut rng) as usize] += 1;
        }
        // Rank 0 should be sampled close to its analytic probability.
        let p0 = s.cumulative()[0] / s.cumulative()[999];
        let emp = counts[0] as f64 / draws as f64;
        assert!((emp - p0).abs() / p0 < 0.05, "p0={p0} emp={emp}");
        // Monotone-ish: hottest rank clearly beats rank 100.
        assert!(counts[0] > counts[100] * 2);
    }

    #[test]
    fn sample_stays_in_vocab() {
        let s = IdSampler::new(17, IdDistribution::Zipf { s: 2.0 });
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!(s.sample(&mut rng) < 17);
        }
    }

    #[test]
    fn cdf_points_are_monotone() {
        let s = IdSampler::new(5000, IdDistribution::Zipf { s: 1.3 });
        let pts: Vec<f64> = (0..11)
            .map(|i| s.coverage_of_top(i as f64 / 10.0))
            .collect();
        for w in pts.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!((pts[10] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_into_appends() {
        let s = IdSampler::new(10, IdDistribution::Uniform);
        let mut rng = StdRng::seed_from_u64(3);
        let mut out = vec![99];
        s.sample_into(&mut rng, 5, &mut out);
        assert_eq!(out.len(), 6);
        assert_eq!(out[0], 99);
    }

    #[test]
    #[should_panic(expected = "vocabulary must be nonempty")]
    fn zero_vocab_rejected() {
        let _ = IdSampler::new(0, IdDistribution::Uniform);
    }

    #[test]
    #[should_panic(expected = "guide table's u32 ranks")]
    fn vocab_beyond_u32_ranks_rejected() {
        let _ = IdSampler::new(u32::MAX as u64 + 1, IdDistribution::Uniform);
    }
}

/// Approximate partial generalized harmonic number `H(v, s) = sum_{k=1..v}
/// k^-s` via the Euler–Maclaurin integral form. Accurate to well under 1%
/// for `v >= 1`.
pub fn harmonic_partial(v: f64, s: f64) -> f64 {
    assert!(v >= 1.0 && s >= 0.0);
    if v < 64.0 {
        return (1..=v as u64).map(|k| (k as f64).powf(-s)).sum();
    }
    let head: f64 = (1..=32u64).map(|k| (k as f64).powf(-s)).sum();
    let a = 32.5f64;
    let integral = if (s - 1.0).abs() < 1e-9 {
        (v / a).ln()
    } else {
        (v.powf(1.0 - s) - a.powf(1.0 - s)) / (1.0 - s)
    };
    head + integral
}

/// Analytic fraction of ID mass covered by the `k` most frequent IDs of a
/// Zipf(`s`) distribution over `vocab` IDs (the quantity HybridHash's hit
/// ratio converges to when Hot-storage holds `k` rows). The normaliser
/// `harmonic_partial(vocab, s)` is supplied by `norm`, which is called only
/// when the result needs it (`vocab >= 1`, `k >= 1`, `s != 0`), so a caller
/// covering many `k` over one `(vocab, s)` computes it once.
pub fn coverage_top_k_with(vocab: u64, s: f64, k: f64, norm: impl FnOnce() -> f64) -> f64 {
    if vocab == 0 {
        return 0.0;
    }
    let k = k.clamp(0.0, vocab as f64);
    if k < 1.0 {
        return 0.0;
    }
    if s == 0.0 {
        return k / vocab as f64;
    }
    harmonic_partial(k, s) / norm()
}

/// Expected fraction of IDs remaining after `Unique` when `draws` IDs are
/// sampled i.i.d. from Zipf(`s`) over `vocab`: `E[distinct] / draws`, with
/// `E[distinct] = sum_k (1 - exp(-draws * p_k))` evaluated by a head sum
/// plus a log-spaced integral over the tail.
pub fn expected_unique_ratio(vocab: u64, s: f64, draws: f64) -> f64 {
    if draws <= 0.0 || vocab == 0 {
        return 1.0;
    }
    let v = vocab as f64;
    let norm = harmonic_partial(v, s);
    let p = |k: f64| k.powf(-s) / norm;
    let head_n = 4096.min(vocab);
    let mut distinct: f64 = (1..=head_n)
        .map(|k| 1.0 - (-draws * p(k as f64)).exp())
        .sum();
    if (head_n as f64) < v {
        // Integrate 1 - exp(-draws * p(x)) over (head_n, v] on a log grid.
        let lo = head_n as f64;
        let steps = 512;
        let ratio = (v / lo).powf(1.0 / steps as f64);
        let mut x = lo;
        for _ in 0..steps {
            let x_next = x * ratio;
            let mid = (x * x_next).sqrt();
            distinct += (1.0 - (-draws * p(mid)).exp()) * (x_next - x);
            x = x_next;
        }
    }
    (distinct / draws).clamp(0.0, 1.0)
}

#[cfg(test)]
mod analytic_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn harmonic_matches_exact_sum() {
        for s in [0.0, 0.5, 0.9, 1.0, 1.3] {
            let exact: f64 = (1..=10_000u64).map(|k| (k as f64).powf(-s)).sum();
            let approx = harmonic_partial(10_000.0, s);
            assert!(
                (approx / exact - 1.0).abs() < 0.01,
                "s={s}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn coverage_matches_sampler() {
        let sampler = IdSampler::new(10_000, IdDistribution::Zipf { s: 0.9 });
        let analytic =
            coverage_top_k_with(10_000, 0.9, 2_000.0, || harmonic_partial(10_000.0, 0.9));
        let table = sampler.coverage_of_top(0.2);
        assert!((analytic - table).abs() < 0.01, "{analytic} vs {table}");
    }

    #[test]
    fn coverage_is_scale_free_below_one() {
        // For s < 1 the top-20% coverage barely depends on vocabulary size —
        // which is what makes the clamped working vocabularies faithful.
        let small = coverage_top_k_with(10_000, 0.8, 2_000.0, || harmonic_partial(10_000.0, 0.8));
        let large = coverage_top_k_with(100_000_000, 0.8, 20_000_000.0, || {
            harmonic_partial(100_000_000.0, 0.8)
        });
        assert!((small - large).abs() < 0.06, "{small} vs {large}");
    }

    #[test]
    fn unique_ratio_matches_empirical() {
        let vocab = 5_000u64;
        let s = 0.9;
        let draws = 20_000usize;
        let sampler = IdSampler::new(vocab, IdDistribution::Zipf { s });
        let mut rng = StdRng::seed_from_u64(5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..draws {
            seen.insert(sampler.sample(&mut rng));
        }
        let empirical = seen.len() as f64 / draws as f64;
        let analytic = expected_unique_ratio(vocab, s, draws as f64);
        assert!(
            (analytic - empirical).abs() < 0.02,
            "analytic {analytic} vs empirical {empirical}"
        );
    }

    #[test]
    fn unique_ratio_limits() {
        // Tiny draw counts barely collide.
        assert!(expected_unique_ratio(1_000_000, 0.9, 10.0) > 0.99);
        // Massive oversampling of a small vocab collapses.
        assert!(expected_unique_ratio(100, 0.9, 100_000.0) < 0.01);
        assert_eq!(expected_unique_ratio(100, 0.9, 0.0), 1.0);
    }
}
