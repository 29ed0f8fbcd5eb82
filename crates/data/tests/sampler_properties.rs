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
//!   batch after it is identical, dense features and labels included.

use picasso_data::{BatchGenerator, DatasetSpec, FieldSpec, IdDistribution, IdSampler};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
/// random spec of up to six fields, some multi-hot, sharing tables.
fn spec_strategy() -> impl Strategy<Value = Arc<DatasetSpec>> {
    let fields = proptest::collection::vec((1u64..3_000, 0usize..3, 0usize..4), 1..7);
    (0usize..5, 0usize..5, fields).prop_map(|(preset, numeric, fields)| {
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
                            .with_avg_ids([1.0, 2.5, 12.0][len])
                    })
                    .collect(),
                instances: None,
            },
        };
        spec.shared()
    })
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
