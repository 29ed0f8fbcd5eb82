//! Golden digests of the warm-up statistics.
//!
//! Pins FNV-1a of the `Debug` text of `run_warmup`'s report for the W&D
//! (product-1), CAN (product-2) and Alibaba datasets and the CPU trainer's
//! multi-hot Alibaba-like set at warm-up seed 101, with the perf suite's
//! warm-up shape (4 batches of 256, working vocabulary 1000).
//! The base/pack/inter rungs measure no cache (`hot_bytes` 0); the cache
//! rungs measure with the 1 GiB default Hot-storage budget. Every derived
//! statistic — unique ratios, ID masses, coverage, hit ratios and the cache
//! counters — is in the digest, so any change to what warm-up counts moves
//! one of these pins.

use picasso::data::DatasetSpec;
use picasso::exec::{run_warmup, WarmupConfig};
use picasso::obs::checksum::fnv1a64;
use picasso::train::auc_datasets;

fn digest(data: DatasetSpec, hot_bytes: u64) -> String {
    let cfg = WarmupConfig {
        batches: 4,
        batch_size: 256,
        max_vocab: 1000,
        hot_bytes,
        seed: 101,
    };
    let report = run_warmup(&data.shared(), &cfg);
    format!("{:016x}", fnv1a64(format!("{report:?}").as_bytes()))
}

#[test]
fn wdl_warmup_without_cache_is_pinned() {
    assert_eq!(digest(DatasetSpec::product1(), 0), "24ab9ae7bff3c254");
}

#[test]
fn can_warmup_without_cache_is_pinned() {
    assert_eq!(digest(DatasetSpec::product2(), 0), "8d1b9b90a3a75f9b");
}

#[test]
fn wdl_warmup_with_cache_is_pinned() {
    assert_eq!(digest(DatasetSpec::product1(), 1 << 30), "039425642ccc4f1f");
}

#[test]
fn can_warmup_with_cache_is_pinned() {
    assert_eq!(digest(DatasetSpec::product2(), 1 << 30), "bca403599ea54bfd");
}

#[test]
fn alibaba_warmup_without_cache_is_pinned() {
    assert_eq!(digest(DatasetSpec::alibaba(), 0), "3cfdd8fb722ceaf7");
}

#[test]
fn alibaba_warmup_with_cache_is_pinned() {
    assert_eq!(digest(DatasetSpec::alibaba(), 1 << 30), "d2c5d6635787474b");
}

#[test]
fn multi_hot_warmup_without_cache_is_pinned() {
    assert_eq!(digest(alibaba_like(), 0), "b65ec0372568ac52");
}

#[test]
fn multi_hot_warmup_with_cache_is_pinned() {
    assert_eq!(digest(alibaba_like(), 1 << 30), "58c5f78fb68b0b18");
}

/// The CPU trainer's Alibaba-like set: the one dataset here whose
/// behaviour-sequence fields are multi-hot, so its pins cover the per-
/// instance length draws.
fn alibaba_like() -> DatasetSpec {
    (*auc_datasets::alibaba_like()).clone()
}
