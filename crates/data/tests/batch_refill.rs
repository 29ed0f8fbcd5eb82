//! Property-based test of refilling a batch in place.
//!
//! `BatchGenerator::next_batch_into` refills one reused `Batch` and is the
//! only draw path (`next_batch` wraps it around an empty batch). A refill
//! must leave nothing of what the batch held before: over a random
//! sequence of sizes, growing and shrinking, on a batch first filled from
//! another spec with another field count, every refill equals what
//! `next_batch` draws on a twin generator, field by field, bit for bit.

use picasso_data::{Batch, BatchGenerator, DatasetSpec, FieldSpec, IdDistribution};
use proptest::prelude::*;
use std::sync::Arc;

/// A preset, or a random spec of 1–6 fields with one-hot and multi-hot
/// lengths and 0–20 numeric features.
fn spec_strategy() -> impl Strategy<Value = Arc<DatasetSpec>> {
    let fields = proptest::collection::vec((1u64..3_000, 0usize..6), 1..7);
    (0usize..4, 0usize..21, fields).prop_map(|(preset, numeric, fields)| {
        let spec = match preset {
            0 => DatasetSpec::product2(),
            1 => DatasetSpec::criteo(),
            _ => DatasetSpec {
                name: "random".into(),
                numeric,
                fields: fields
                    .into_iter()
                    .enumerate()
                    .map(|(i, (vocab, len))| {
                        let dist = if i % 2 == 0 {
                            IdDistribution::Zipf { s: 1.1 }
                        } else {
                            IdDistribution::Uniform
                        };
                        FieldSpec::one_hot(format!("f{i}"), vocab, 8, dist, i % 3)
                            .with_avg_ids([1.0, 0.5, 1.5, 2.5, 12.0, 31.0][len])
                    })
                    .collect(),
                instances: None,
            },
        };
        spec.shared()
    })
}

fn assert_same(got: &Batch, want: &Batch) {
    prop_assert_eq!(got.size, want.size);
    prop_assert_eq!(got.fields.len(), want.fields.len());
    for (g, w) in got.fields.iter().zip(&want.fields) {
        prop_assert_eq!(g.field, w.field);
        prop_assert_eq!(&g.ids, &w.ids);
        prop_assert_eq!(&g.offsets, &w.offsets);
    }
    let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&got.dense), bits(&want.dense));
    prop_assert_eq!(bits(&got.labels), bits(&want.labels));
}

proptest! {
    #[test]
    fn a_refilled_batch_equals_a_fresh_one(
        spec in spec_strategy(),
        stale_spec in spec_strategy(),
        stale_size in 1usize..64,
        sizes in proptest::collection::vec(1usize..64, 1..6),
        max_vocab in 1u64..5_000,
        seed in 0u64..u64::MAX,
    ) {
        let mut batch = BatchGenerator::new(stale_spec, !seed).next_batch(stale_size);
        let mut refill = BatchGenerator::with_max_vocab(Arc::clone(&spec), seed, max_vocab);
        let mut fresh = BatchGenerator::with_max_vocab(spec, seed, max_vocab);
        for &size in &sizes {
            refill.next_batch_into(size, &mut batch);
            assert_same(&batch, &fresh.next_batch(size));
        }
    }
}
