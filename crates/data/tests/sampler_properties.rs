//! Property-based tests of ID sampling.
//!
//! Every warm-up statistic and every golden digest rests on two exactness
//! claims, pinned here on random inputs:
//!
//! - **guide lookup is binary search**: `IdSampler::rank_of(u)` equals
//!   `cumulative.partition_point(|&c| c <= u)` at random `u`, at `u = 0`
//!   and the total, at every guide-bucket edge and every cumulative value,
//!   and one ulp either side of each, for vocabularies of 1–50,000 under
//!   Zipf and uniform weights;
//! - **IDs-only batches are `next_batch`'s IDs**: on product-1, product-2,
//!   Criteo, Alibaba and random multi-hot specs, `next_ids_into` appends
//!   exactly the IDs `next_batch` draws (fields sharing a slot in spec
//!   order) and leaves the generator where `next_batch` would, so the
//!   batch after it is identical, dense features and labels included;
//! - **counting is drawing's lengths**: on the same specs,
//!   `BatchGenerator::count_ids` adds to each slot exactly the number of
//!   IDs that as many `next_ids_into` calls append to it, over up to four
//!   batches of one instance or more;
//! - **the split coverage is the whole one**: `coverage_top_k_with`, fed a
//!   normaliser computed once per `(vocab, s)` and reused across many `k`,
//!   equals the formula it was split from bit for bit,
//!   at `vocab = 0`, `s = 0`, `k < 1` and `k > vocab` included.

use picasso_data::distribution::{coverage_top_k_with, harmonic_partial};
use picasso_data::{BatchGenerator, DatasetSpec, FieldSpec, IdDistribution, IdSampler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::sync::Arc;

/// A sampler over 1–50,000 ranks, small vocabularies as likely as large
/// ones, with uniform or Zipf weights (exponent up to 2).
fn sampler_strategy() -> impl Strategy<Value = (u64, Option<f64>, u64)> {
    (0usize..3, proptest::bool::ANY, 0.0f64..2.0).prop_flat_map(|(band, uniform, s)| {
        let (lo, hi): (u64, u64) = [(1, 17), (17, 1_001), (1_001, 50_001)][band];
        (lo..hi, 0u64..u64::MAX).prop_map(move |(vocab, seed)| {
            let exponent = if uniform { None } else { Some(s) };
            (vocab, exponent, seed)
        })
    })
}

/// `x` and its neighbours one ulp below and above.
fn with_ulps(x: f64) -> [f64; 3] {
    [x.next_down(), x, x.next_up()]
}

fn assert_guide_matches_binary_search(sampler: &IdSampler, seed: u64) {
    let c = sampler.cumulative();
    let total = *c.last().unwrap();
    let m = sampler.buckets();
    let check = |u: f64| {
        assert_eq!(
            sampler.rank_of(u),
            c.partition_point(|&x| x <= u),
            "vocab {} at u = {u:e}",
            c.len()
        );
    };
    check(0.0);
    for u in with_ulps(total) {
        check(u);
    }
    for j in 0..m {
        // The bucket edge computed two ways: as an exact fraction of the
        // total, and as the lookup's `u * scale` rounds it.
        for u in with_ulps(j as f64 * total / m as f64) {
            check(u);
        }
        for u in with_ulps(j as f64 / (m as f64 / total)) {
            check(u);
        }
    }
    for &x in c {
        for u in with_ulps(x) {
            check(u);
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..512 {
        check(rng.gen_range(0.0..total));
    }
}

/// One of the four presets at a working vocabulary of up to 5,000, or a
/// random spec of up to six fields sharing tables, each one-hot or
/// multi-hot with a fractional or integer average length, and 0–20 dense
/// features.
fn spec_strategy() -> impl Strategy<Value = Arc<DatasetSpec>> {
    let fields = proptest::collection::vec((1u64..3_000, 0usize..6, 0usize..4), 1..7);
    (0usize..5, 0usize..21, fields).prop_map(|(preset, numeric, fields)| {
        let spec = match preset {
            0 => DatasetSpec::product1(),
            1 => DatasetSpec::product2(),
            2 => DatasetSpec::criteo(),
            3 => DatasetSpec::alibaba(),
            _ => DatasetSpec {
                name: "random".into(),
                numeric,
                fields: fields
                    .into_iter()
                    .enumerate()
                    .map(|(i, (vocab, len, table))| {
                        let dist = if i % 2 == 0 {
                            IdDistribution::Zipf { s: 1.1 }
                        } else {
                            IdDistribution::Uniform
                        };
                        FieldSpec::one_hot(format!("f{i}"), vocab, 8, dist, table)
                            .with_avg_ids([1.0, 0.5, 1.5, 2.5, 12.0, 31.0][len])
                    })
                    .collect(),
                instances: None,
            },
        };
        spec.shared()
    })
}

/// The top-`k` coverage as one expression, before its normaliser was split
/// out.
fn reference_coverage(vocab: u64, s: f64, k: f64) -> f64 {
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
    harmonic_partial(k, s) / harmonic_partial(vocab as f64, s)
}

/// A vocabulary of 0, 1–63 (the exact harmonic sum), 64–10⁵ or up to 10⁹
/// (the integral form); an exponent of exactly 0 or 1, or up to 2.5; and
/// 1–8 row counts from below 1 (negative included) to past the
/// vocabulary, some of them integers.
fn coverage_strategy() -> impl Strategy<Value = (u64, f64, Vec<f64>)> {
    let vocab = (
        0usize..4,
        1u64..64,
        64u64..100_001,
        100_001u64..1_000_000_001,
    )
        .prop_map(|(band, small, mid, large)| [0, small, mid, large][band]);
    let s = (0usize..4, 0.0f64..2.5).prop_map(|(pick, s)| [0.0, 1.0, s, s][pick]);
    let k = (0usize..4, -2.0f64..1.0, 0.0f64..1.5, proptest::bool::ANY);
    (vocab, s, proptest::collection::vec(k, 1..9)).prop_map(|(vocab, s, ks)| {
        let ks = ks
            .into_iter()
            .map(|(pick, small, frac, round)| {
                let k = match pick {
                    0 => small,
                    1 => vocab as f64 * frac + 1.0,
                    _ => vocab as f64 * frac,
                };
                if round {
                    k.round()
                } else {
                    k
                }
            })
            .collect();
        (vocab, s, ks)
    })
}

/// A batch size: a single instance half the time, else 2–47.
fn size_strategy() -> impl Strategy<Value = usize> {
    (proptest::bool::ANY, 2usize..48).prop_map(|(single, size)| if single { 1 } else { size })
}

proptest! {
    #[test]
    fn guide_lookup_equals_partition_point(case in sampler_strategy()) {
        let (vocab, exponent, seed) = case;
        let dist = match exponent {
            None => IdDistribution::Uniform,
            Some(s) => IdDistribution::Zipf { s },
        };
        assert_guide_matches_binary_search(&IdSampler::new(vocab, dist), seed);
    }

    #[test]
    fn ids_only_batches_equal_next_batch_ids(
        spec in spec_strategy(),
        max_vocab in 1u64..5_000,
        size in 1usize..48,
        seed in 0u64..u64::MAX,
    ) {
        let mut full = BatchGenerator::with_max_vocab(Arc::clone(&spec), seed, max_vocab);
        let mut ids_only = BatchGenerator::with_max_vocab(Arc::clone(&spec), seed, max_vocab);
        // One slot per table, as warm-up lays its streams out.
        let slots: Vec<usize> = spec.fields.iter().map(|f| f.table_group).collect();
        let n_slots = slots.iter().max().map_or(0, |&s| s + 1);

        let batch = full.next_batch(size);
        let mut want = vec![Vec::new(); n_slots];
        for fb in &batch.fields {
            want[slots[fb.field]].extend_from_slice(&fb.ids);
        }
        let mut got = vec![Vec::new(); n_slots];
        ids_only.next_ids_into(size, &slots, &mut got);
        prop_assert_eq!(&got, &want);

        let after_full = full.next_batch(size);
        let after_ids = ids_only.next_batch(size);
        for (a, b) in after_full.fields.iter().zip(&after_ids.fields) {
            prop_assert_eq!(&a.ids, &b.ids);
            prop_assert_eq!(&a.offsets, &b.offsets);
        }
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&after_full.dense), bits(&after_ids.dense));
        prop_assert_eq!(bits(&after_full.labels), bits(&after_ids.labels));
    }

    #[test]
    fn counted_ids_equal_drawn_lengths(
        spec in spec_strategy(),
        max_vocab in 1u64..5_000,
        batches in 0usize..5,
        size in size_strategy(),
        seed in 0u64..u64::MAX,
    ) {
        let slots: Vec<usize> = spec.fields.iter().map(|f| f.table_group).collect();
        let n_slots = slots.iter().max().map_or(0, |&s| s + 1);

        let mut drawing = BatchGenerator::with_max_vocab(Arc::clone(&spec), seed, max_vocab);
        let mut ids = vec![Vec::new(); n_slots];
        for _ in 0..batches {
            drawing.next_ids_into(size, &slots, &mut ids);
        }
        let want: Vec<u64> = ids.iter().map(|ids| ids.len() as u64).collect();

        let mut got = vec![0; n_slots];
        BatchGenerator::with_max_vocab(spec, seed, max_vocab).count_ids(batches, size, &slots, &mut got);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn split_coverage_equals_the_whole(case in coverage_strategy()) {
        let (vocab, s, ks) = case;
        let norm: Cell<Option<f64>> = Cell::new(None);
        let computed = Cell::new(0);
        let once = || match norm.get() {
            Some(h) => h,
            None => {
                computed.set(computed.get() + 1);
                let h = harmonic_partial(vocab as f64, s);
                norm.set(Some(h));
                h
            }
        };
        for &k in &ks {
            let want = reference_coverage(vocab, s, k).to_bits();
            prop_assert_eq!(
                coverage_top_k_with(vocab, s, k, once).to_bits(),
                want,
                "k = {}",
                k
            );
        }
        prop_assert!(computed.get() <= 1);
    }
}

#[test]
fn guide_lookup_covers_every_rank_of_a_uniform_vocabulary() {
    // Uniform weights are exact integers and the bucket width a quarter,
    // so every cumulative value sits exactly on a bucket edge: the tie case
    // of the scan.
    for vocab in [1, 2, 3, 7, 1_000] {
        let sampler = IdSampler::new(vocab, IdDistribution::Uniform);
        assert_guide_matches_binary_search(&sampler, vocab);
        for k in 0..vocab {
            assert_eq!(sampler.rank_of(k as f64), k as usize);
        }
    }
}
