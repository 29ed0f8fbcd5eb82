//! Warm-up over real data.
//!
//! The paper's optimizations are parameterized by statistics collected
//! during warm-up iterations (§III-B, §III-D): ID frequencies drive the
//! Eq. 1 pack sharding, deduplication rates size the Unique outputs, and
//! HybridHash hit ratios split Gather traffic between Hot- and
//! Cold-storage.
//!
//! A run reads only each table's share of the categorical IDs and their
//! total (Eq. 1's `N_t / N` and `N`; its dedup and hit ratios are
//! analytic). So [`count_warmup`], the run's warm-up, counts the IDs
//! seeded batches would draw, per table, without drawing one.
//! [`run_warmup`] is the full measurement: it draws the IDs of the same
//! batches (IDs only: warm-up reads no dense features or labels), counts
//! them per table in dense rank space, and replays each table's stream
//! through the policy (`HotSetPolicy`, the crate's one cache) to measure
//! hit ratios. [`WarmupCounts::measure`] reruns it for a run's exporters.

use picasso_data::{BatchGenerator, DatasetSpec, FrequencyStats};
use picasso_embedding::{CacheMetrics, HotSetPolicy, HybridHashConfig, TableLoad};
use picasso_lint::{Diagnostic, Severity, Span};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Warm-up configuration.
#[derive(Debug, Clone)]
pub struct WarmupConfig {
    /// Batches to run (first half trains the frequency counters, second
    /// half measures hit ratios).
    pub batches: usize,
    /// Instances per warm-up batch.
    pub batch_size: usize,
    /// Working-vocabulary clamp for materialized IDs.
    pub max_vocab: u64,
    /// Total Hot-storage budget in bytes (split across tables by observed
    /// ID mass); `0` disables the cache measurement. `exec::run` ignores
    /// this field: it measures with `TrainerOptions::hot_bytes` when the
    /// pipeline enables caching, else 0.
    pub hot_bytes: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WarmupConfig {
    fn default() -> Self {
        WarmupConfig {
            batches: 8,
            batch_size: 1024,
            max_vocab: 20_000,
            hot_bytes: 1 << 30,
            seed: 0xC0FFEE,
        }
    }
}

/// Measured statistics of one embedding table.
#[derive(Debug, Clone, Copy)]
pub struct TableStats {
    /// Fraction of a batch's IDs remaining after `Unique`.
    pub unique_ratio: f64,
    /// Hit ratio of the hot-set cache policy over the measured half of the
    /// batches (0.0 when caching disabled).
    pub hit_ratio: f64,
    /// Share of all observed categorical IDs hitting this table.
    pub id_mass: f64,
    /// Embedding dimension.
    pub dim: usize,
}

/// The warm-up report.
#[derive(Debug, Clone)]
pub struct WarmupReport {
    /// Per-table measurements.
    pub tables: BTreeMap<usize, TableStats>,
    /// Total categorical IDs observed (Eq. 1's `N`).
    pub total_ids: u64,
    /// Empirical coverage of the top 20% of distinct IDs (Fig. 3's
    /// headline statistic), ID-mass-weighted across tables.
    pub coverage_top20: f64,
    /// Aggregate hit ratio across tables, ID-mass-weighted.
    pub overall_hit_ratio: f64,
    /// Per-table snapshots of the measurement caches (counters, occupancy),
    /// kept for the run-level metrics exporters. Empty when caching is
    /// disabled.
    pub caches: BTreeMap<usize, CacheMetrics>,
}

impl WarmupReport {
    /// Per-table Eq. 1 loads for the D-packing planner.
    pub fn table_loads(&self) -> BTreeMap<usize, TableLoad> {
        self.tables
            .iter()
            .map(|(&t, s)| {
                (
                    t,
                    TableLoad {
                        dim: s.dim,
                        freq_mass: s.id_mass,
                    },
                )
            })
            .collect()
    }
}

/// What a run reads from its warm-up: each table's Eq. 1 load and the
/// total ID count, counted without drawing an ID (see [`count_warmup`]).
#[derive(Debug)]
pub struct WarmupCounts {
    /// Per-table Eq. 1 loads: the table's share of all IDs and the dim of
    /// its last field, exactly [`WarmupReport::table_loads`].
    pub loads: BTreeMap<usize, TableLoad>,
    /// Total categorical IDs (Eq. 1's `N`), exactly
    /// [`WarmupReport::total_ids`].
    pub total_ids: u64,
    data: Arc<DatasetSpec>,
    cfg: WarmupConfig,
}

impl WarmupCounts {
    /// The full warm-up measurement over the same batches:
    /// [`run_warmup`] on the counted dataset and configuration.
    pub fn measure(&self) -> WarmupReport {
        run_warmup(&self.data, &self.cfg)
    }
}

/// Counts the IDs [`run_warmup`] would draw over `data` under `cfg`, per
/// table, with [`BatchGenerator::count_ids`]: an all-one-hot dataset draws
/// no RNG word, and a multi-hot field draws only its instance lengths.
/// The loads and `total_ids` equal `run_warmup(data, cfg)`'s bit for bit.
///
/// # Panics
/// If `cfg.batch_size` or `cfg.max_vocab` is 0.
pub fn count_warmup(data: &Arc<DatasetSpec>, cfg: &WarmupConfig) -> WarmupCounts {
    let gen = BatchGenerator::with_max_vocab(Arc::clone(data), cfg.seed, cfg.max_vocab);
    let (tables, slots) = table_slots(data);
    let mut counts = vec![0; tables.len()];
    gen.count_ids(cfg.batches, cfg.batch_size, &slots, &mut counts);
    let total_ids: u64 = counts.iter().sum();
    let mut dims = vec![0; tables.len()];
    for (f, &slot) in data.fields.iter().zip(&slots) {
        dims[slot] = f.dim;
    }
    let loads = tables
        .iter()
        .zip(counts.iter().zip(dims))
        .map(|(&t, (&count, dim))| {
            let load = TableLoad {
                dim,
                freq_mass: count as f64 / total_ids as f64,
            };
            (t, load)
        })
        .collect();
    WarmupCounts {
        loads,
        total_ids,
        data: Arc::clone(data),
        cfg: cfg.clone(),
    }
}

/// `run.warmup-shape` errors: one per knob of `cfg` outside the shape
/// [`run_warmup`] and [`count_warmup`] accept (at least two batches, a
/// positive batch size and a nonempty working vocabulary).
pub(crate) fn lint_warmup(cfg: &WarmupConfig) -> Vec<Diagnostic> {
    let checks = [
        (cfg.batches < 2, "batches", cfg.batches as u64, "at least 2"),
        (cfg.batch_size == 0, "batch_size", 0, "positive"),
        (cfg.max_vocab == 0, "max_vocab", 0, "positive"),
    ];
    checks
        .into_iter()
        .filter(|&(bad, ..)| bad)
        .map(|(_, knob, value, want)| {
            Diagnostic::new(
                "run.warmup-shape",
                Severity::Error,
                Span::Run("warmup".into()),
                format!("warm-up {knob} is {value}; it must be {want}"),
            )
        })
        .collect()
}

/// The dataset's tables in order, and each field's dense slot among them.
fn table_slots(data: &DatasetSpec) -> (Vec<usize>, Vec<usize>) {
    let mut tables: Vec<usize> = data.fields.iter().map(|f| f.table_group).collect();
    tables.sort_unstable();
    tables.dedup();
    // `tables` holds every field's table, so each search hits.
    #[allow(clippy::expect_used)]
    let slots = data
        .fields
        .iter()
        .map(|f| {
            tables
                .binary_search(&f.table_group)
                .expect("every field's table has a slot")
        })
        .collect();
    (tables, slots)
}

/// Measurement dimension used for cache simulation: hit ratios depend on
/// *row* capacity, so tables are measured at a small dimension with the
/// byte budget rescaled to preserve row counts.
const MEASURE_DIM: usize = 8;

/// One table's drawn IDs across the warm-up batches.
#[derive(Debug, Default)]
struct TableStream {
    /// The table's `table_group`.
    table: usize,
    /// Embedding dimension.
    dim: usize,
    /// Rank bound: the largest working vocabulary of the table's fields.
    bound: usize,
    /// Every batch's IDs, batch after batch (field order within a batch).
    ids: Vec<u64>,
    /// End of each batch in `ids`.
    ends: Vec<usize>,
}

impl TableStream {
    fn batches(&self) -> impl Iterator<Item = &[u64]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(lo, &hi)| &self.ids[lo..hi])
    }
}

/// Per-batch distinct-ID counting with one epoch stamp per rank: a rank is
/// new in the current batch when its stamp is older than the epoch, so the
/// marks never need clearing between batches or tables.
#[derive(Debug)]
struct DistinctCounter {
    stamps: Vec<u32>,
    epoch: u32,
}

impl DistinctCounter {
    /// Distinct IDs in `ids`, all of which are ranks below the stamp
    /// array's length.
    fn count(&mut self, ids: &[u64]) -> u64 {
        self.epoch += 1;
        let mut distinct = 0;
        for &id in ids {
            let stamp = &mut self.stamps[id as usize];
            if *stamp != self.epoch {
                *stamp = self.epoch;
                distinct += 1;
            }
        }
        distinct
    }
}

/// Runs the warm-up over `data`.
///
/// Each batch draws its IDs only, straight into per-table streams (one
/// dense slot per table, in table order); each table is then counted on
/// its own in dense rank space, so at most one table's counters are live
/// at a time.
pub fn run_warmup(data: &Arc<DatasetSpec>, cfg: &WarmupConfig) -> WarmupReport {
    assert!(cfg.batches >= 2, "need at least two warm-up batches");
    let mut gen = BatchGenerator::with_max_vocab(Arc::clone(data), cfg.seed, cfg.max_vocab);

    let (tables, slots) = table_slots(data);
    let mut streams: Vec<TableStream> = tables
        .iter()
        .map(|&table| TableStream {
            table,
            ..TableStream::default()
        })
        .collect();
    for (fi, (f, &slot)) in data.fields.iter().zip(&slots).enumerate() {
        let s = &mut streams[slot];
        s.dim = f.dim;
        s.bound = s.bound.max(gen.working_vocab(fi) as usize);
    }
    let mut ids: Vec<Vec<u64>> = vec![Vec::new(); streams.len()];
    for _ in 0..cfg.batches {
        gen.next_ids_into(cfg.batch_size, &slots, &mut ids);
        for (s, ids) in streams.iter_mut().zip(&ids) {
            s.ends.push(ids.len());
        }
    }
    for (s, ids) in streams.iter_mut().zip(ids) {
        s.ids = ids;
    }
    let total_ids: u64 = streams.iter().map(|s| s.ids.len() as u64).sum();

    let warm = cfg.batches / 2;
    let mut distinct = DistinctCounter {
        stamps: vec![0; streams.iter().map(|s| s.bound).max().unwrap_or(0)],
        epoch: 0,
    };
    let mut tables = BTreeMap::new();
    let mut caches: BTreeMap<usize, CacheMetrics> = BTreeMap::new();
    let mut coverage = 0.0;
    let mut overall_hit = 0.0;
    for s in &streams {
        let mass = s.ids.len() as f64 / total_ids as f64;
        let unique: u64 = s.batches().map(|ids| distinct.count(ids)).sum();
        let mut freq = FrequencyStats::dense(s.bound);
        freq.record_all(&s.ids);
        let hit_ratio = if cfg.hot_bytes > 0 {
            // Cache measurement: a hot-set policy with the budget split by
            // mass, warm on the first half of the batches, measured on the
            // second half.
            let budget = cfg.hot_bytes as f64 * mass;
            let rows = budget / (s.dim as f64 * 4.0);
            let measure_bytes = (rows * (MEASURE_DIM * 4) as f64) as u64;
            let hh = HybridHashConfig {
                warmup_iters: warm as u64,
                flush_iters: cfg.batches as u64,
                hot_bytes: measure_bytes,
            };
            let mut policy = HotSetPolicy::new(&hh, MEASURE_DIM, Some(s.bound));
            for ids in s.batches() {
                policy.measure_batch(ids);
            }
            caches.insert(s.table, CacheMetrics::of(&policy));
            policy.stats().hit_ratio()
        } else {
            0.0
        };
        let coverage_top20 = freq.coverage_of_top(0.2);
        let t = s.ids.len() as u64;
        let table_stats = TableStats {
            unique_ratio: if t == 0 {
                1.0
            } else {
                unique as f64 / t as f64
            },
            hit_ratio,
            id_mass: mass,
            dim: s.dim,
        };
        coverage += coverage_top20 * mass;
        overall_hit += table_stats.hit_ratio * mass;
        tables.insert(s.table, table_stats);
    }

    WarmupReport {
        tables,
        total_ids,
        coverage_top20: coverage,
        overall_hit_ratio: overall_hit,
        caches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> WarmupConfig {
        WarmupConfig {
            batches: 6,
            batch_size: 256,
            max_vocab: 2000,
            hot_bytes: 1 << 22,
            seed: 7,
        }
    }

    #[test]
    fn warmup_measures_every_table() {
        let data = DatasetSpec::criteo().shared();
        let r = run_warmup(&data, &small_cfg());
        assert_eq!(r.tables.len(), 26);
        assert!(r.total_ids > 0);
        let mass: f64 = r.tables.values().map(|t| t.id_mass).sum();
        assert!((mass - 1.0).abs() < 1e-9, "masses sum to 1, got {mass}");
    }

    #[test]
    fn unique_ratio_is_a_ratio() {
        let data = DatasetSpec::criteo().shared();
        let r = run_warmup(&data, &small_cfg());
        for (t, s) in &r.tables {
            assert!(
                s.unique_ratio > 0.0 && s.unique_ratio <= 1.0,
                "table {t}: {}",
                s.unique_ratio
            );
        }
        // Zipf-skewed batches of 256 from a 2000-vocab must deduplicate some.
        let avg: f64 =
            r.tables.values().map(|s| s.unique_ratio).sum::<f64>() / r.tables.len() as f64;
        assert!(avg < 0.999, "expected some dedup, got {avg}");
    }

    #[test]
    fn skewed_data_hits_cache() {
        let data = DatasetSpec::alibaba().shared();
        let mut cfg = small_cfg();
        cfg.hot_bytes = 64 << 20;
        let r = run_warmup(&data, &cfg);
        assert!(
            r.overall_hit_ratio > 0.2,
            "zipf(1.2) should exceed the paper's 20% target, got {}",
            r.overall_hit_ratio
        );
        assert!(
            r.coverage_top20 > 0.5,
            "Fig. 3 skew, got {}",
            r.coverage_top20
        );
    }

    #[test]
    fn disabling_cache_zeroes_hit_ratios() {
        let data = DatasetSpec::criteo().shared();
        let mut cfg = small_cfg();
        cfg.hot_bytes = 0;
        let r = run_warmup(&data, &cfg);
        assert!(r.tables.values().all(|t| t.hit_ratio == 0.0));
        assert_eq!(r.overall_hit_ratio, 0.0);
    }

    #[test]
    fn bigger_cache_hits_more() {
        let data = DatasetSpec::criteo().shared();
        let mut small = small_cfg();
        small.hot_bytes = 1 << 20;
        let mut large = small_cfg();
        large.hot_bytes = 256 << 20;
        let rs = run_warmup(&data, &small);
        let rl = run_warmup(&data, &large);
        assert!(rl.overall_hit_ratio >= rs.overall_hit_ratio);
    }

    #[test]
    fn table_loads_feed_the_planner() {
        let data = DatasetSpec::criteo().shared();
        let r = run_warmup(&data, &small_cfg());
        let loads = r.table_loads();
        assert_eq!(loads.len(), 26);
        assert!(loads.values().all(|l| l.dim == 128));
    }
}
