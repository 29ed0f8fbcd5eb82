//! Golden digests of the batch generator's output.
//!
//! Pins FNV-1a over three consecutive `BatchGenerator::next_batch` results
//! at seed 101, 64 instances each: every field's index, IDs and offsets,
//! then the bits of the dense features and of the click labels. The
//! datasets cover W&D (product-1), CAN (product-2), Criteo and Alibaba,
//! which are one-hot, and the CPU trainer's Criteo-like (one-hot) and
//! Alibaba-like (multi-hot behaviour sequences) sets, each at a working
//! vocabulary of 1,000 and of 50,000. Any change to how an ID is
//! sampled, how many RNG words a batch draws, or how labels are made moves
//! one of these pins.

use picasso::data::{BatchGenerator, DatasetSpec};
use picasso::obs::checksum::Fnv1a;
use picasso::train::trainer::auc_datasets;
use std::sync::Arc;

fn digest(data: Arc<DatasetSpec>, max_vocab: u64) -> String {
    let mut gen = BatchGenerator::with_max_vocab(data, 101, max_vocab);
    let mut h = Fnv1a::default();
    for _ in 0..3 {
        let b = gen.next_batch(64);
        for fb in &b.fields {
            h.write(&(fb.field as u64).to_le_bytes());
            for id in &fb.ids {
                h.write(&id.to_le_bytes());
            }
            for off in &fb.offsets {
                h.write(&off.to_le_bytes());
            }
        }
        for x in &b.dense {
            h.write(&x.to_bits().to_le_bytes());
        }
        for y in &b.labels {
            h.write(&y.to_bits().to_le_bytes());
        }
    }
    format!("{:016x}", h.finish())
}

#[test]
fn wdl_batches_are_pinned() {
    let data = DatasetSpec::product1().shared();
    assert_eq!(digest(Arc::clone(&data), 1_000), "cb239082769a52af");
    assert_eq!(digest(data, 50_000), "1b42b34017caabcf");
}

#[test]
fn can_batches_are_pinned() {
    let data = DatasetSpec::product2().shared();
    assert_eq!(digest(Arc::clone(&data), 1_000), "3ce8321a4e5e5635");
    assert_eq!(digest(data, 50_000), "c4ef634059f24228");
}

#[test]
fn criteo_batches_are_pinned() {
    let data = DatasetSpec::criteo().shared();
    assert_eq!(digest(Arc::clone(&data), 1_000), "2f7896c0ee321190");
    assert_eq!(digest(data, 50_000), "cac6027e70c8c88d");
}

#[test]
fn alibaba_batches_are_pinned() {
    let data = DatasetSpec::alibaba().shared();
    assert_eq!(digest(Arc::clone(&data), 1_000), "2b986895a79c3552");
    assert_eq!(digest(data, 50_000), "c568168dd829d2a3");
}

#[test]
fn trainer_criteo_like_batches_are_pinned() {
    let data = auc_datasets::criteo_like();
    assert_eq!(digest(Arc::clone(&data), 1_000), "645c3914e75c22de");
    assert_eq!(digest(data, 50_000), "018b0780b3503290");
}

#[test]
fn trainer_multi_hot_alibaba_like_batches_are_pinned() {
    let data = auc_datasets::alibaba_like();
    assert_eq!(digest(Arc::clone(&data), 1_000), "689c32af2b68c526");
    assert_eq!(digest(data, 50_000), "b636633297a3780c");
}
