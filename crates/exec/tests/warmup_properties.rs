//! Property tests of the run's warm-up counts.
//!
//! `exec::run` plans from `count_warmup`, which counts the IDs warm-up
//! batches would draw without drawing them; `run_warmup` draws them and
//! measures. The D-packing plan, and so every run digest, rests on the two
//! agreeing exactly: `count_warmup`'s per-table loads (dim and ID-mass bits)
//! and `total_ids` equal `run_warmup(..).table_loads()` and `total_ids`, on
//! the five presets, on random multi-hot specs with up to 19 dense features
//! and average lengths up to 31, and on the CPU trainer's multi-hot
//! Alibaba-like set, with and without the cache measurement.

use picasso_data::{DatasetSpec, FieldSpec, IdDistribution};
use picasso_embedding::TableLoad;
use picasso_exec::{count_warmup, run_warmup, WarmupConfig};
use picasso_train::auc_datasets;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A preset, the Alibaba-like set, or a random spec of up to eight fields
/// sharing up to five tables, each one-hot or multi-hot with an average
/// length of 1–31.
fn spec_strategy() -> impl Strategy<Value = Arc<DatasetSpec>> {
    let fields = proptest::collection::vec(
        (
            1u64..3_000,
            proptest::bool::ANY,
            1.0f64..31.0,
            0usize..5,
            1usize..4,
        ),
        1..9,
    );
    (0usize..7, 0usize..20, fields).prop_map(|(preset, numeric, fields)| match preset {
        0 => DatasetSpec::criteo().shared(),
        1 => DatasetSpec::alibaba().shared(),
        2 => DatasetSpec::product1().shared(),
        3 => DatasetSpec::product2().shared(),
        4 => DatasetSpec::product3().shared(),
        5 => auc_datasets::alibaba_like(),
        _ => DatasetSpec {
            name: "random".into(),
            numeric,
            fields: fields
                .into_iter()
                .enumerate()
                .map(|(i, (vocab, multi_hot, avg_ids, table, dim))| {
                    let dist = if i % 2 == 0 {
                        IdDistribution::Zipf { s: 1.2 }
                    } else {
                        IdDistribution::Uniform
                    };
                    FieldSpec::one_hot(format!("f{i}"), vocab, 4 * dim, dist, table)
                        .with_avg_ids(if multi_hot { avg_ids } else { 1.0 })
                })
                .collect(),
            instances: None,
        }
        .shared(),
    })
}

proptest! {
    #[test]
    fn counted_warmup_equals_measured_loads(
        data in spec_strategy(),
        batches in 2usize..5,
        batch_size in 1usize..40,
        max_vocab in 1u64..2_000,
        cache in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let cfg = WarmupConfig {
            batches,
            batch_size,
            max_vocab,
            hot_bytes: if cache { 1 << 24 } else { 0 },
            seed,
        };
        let counts = count_warmup(&data, &cfg);
        let report = run_warmup(&data, &cfg);
        prop_assert_eq!(counts.total_ids, report.total_ids);
        let bits = |loads: &BTreeMap<usize, TableLoad>| {
            loads
                .iter()
                .map(|(&t, l)| (t, l.dim, l.freq_mass.to_bits()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(bits(&counts.loads), bits(&report.table_loads()));
    }
}
