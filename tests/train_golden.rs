//! Golden bits of the CPU trainer.
//!
//! Pins, for each trainable variant on its dataset (Deep and DotDeep on the
//! Criteo-like set, Attention and Evolution on the Alibaba-like set), the
//! bits of every step's loss over ten synchronous steps at batch 128 and the
//! model's `state_digest` after them, plus `train_ctr`'s AUC and final-loss
//! bits under synchronous and stale (staleness 2) updates. A change to the
//! trainer's step path that reorders a single float operation — a product's
//! summation order, pooling, the sparse-gradient sums or their application —
//! moves one of these pins.

use picasso::data::{BatchGenerator, DatasetSpec};
use picasso::train::trainer::auc_datasets;
use picasso::train::{train_ctr, CtrModel, SyncMode, TrainConfig, Variant};
use std::sync::Arc;

/// Ten steps at batch 128, each applied at once: `(state_digest, loss bits)`.
fn ten_steps(variant: Variant, data: &Arc<DatasetSpec>) -> (u64, Vec<u64>) {
    let mut gen = BatchGenerator::new(Arc::clone(data), 101);
    let mut model = CtrModel::new(data, variant, 0.1, 7);
    let mut losses = Vec::with_capacity(10);
    for _ in 0..10 {
        let batch = gen.next_batch(128);
        let (stats, grads) = model.step(&batch, data);
        model.apply(&grads);
        losses.push(stats.loss.to_bits());
    }
    (model.state_digest(), losses)
}

/// `train_ctr` at a small scale: `(auc bits, final-loss bits)`.
fn trained(variant: Variant, data: &Arc<DatasetSpec>, mode: SyncMode) -> (u64, u64) {
    let cfg = TrainConfig {
        steps: 30,
        batch: 128,
        mode,
        eval_size: 1024,
        ..TrainConfig::default()
    };
    let out = train_ctr(variant, data, &cfg);
    (out.auc.to_bits(), out.final_loss.to_bits())
}

/// Checks one variant: the digest and loss bits of [`ten_steps`], then the
/// synchronous and stale `(auc, final loss)` bits of [`trained`].
fn check(
    variant: Variant,
    data: Arc<DatasetSpec>,
    digest: u64,
    losses: [u64; 10],
    runs: [(u64, u64); 2],
) {
    let (got_digest, got_losses) = ten_steps(variant, &data);
    assert_eq!(got_losses, losses, "{variant:?}: per-step loss bits");
    assert_eq!(got_digest, digest, "{variant:?}: state digest");
    let sync = trained(variant, &data, SyncMode::Synchronous);
    assert_eq!(sync, runs[0], "{variant:?}: synchronous (auc, loss) bits");
    let stale = trained(variant, &data, SyncMode::AsyncStale { staleness: 2 });
    assert_eq!(stale, runs[1], "{variant:?}: stale (auc, loss) bits");
}

#[test]
fn deep_on_criteo_like_is_pinned() {
    check(
        Variant::Deep,
        auc_datasets::criteo_like(),
        0x6fe92d84d3cf73d2,
        [
            0x3fe675457a88dff5,
            0x3fe44078376b0102,
            0x3fe5a83ce5721944,
            0x3fe2de0f537032d7,
            0x3fe45d7349a8dce9,
            0x3fe35e68ae9f330b,
            0x3fe64330a685410a,
            0x3fe39e673db69e1f,
            0x3fe478fe2ab73673,
            0x3fe43d225e5bca79,
        ],
        [
            (0x3fe3c8bab59c893e, 0x3fe43bfa546936d6),
            (0x3fe253587daa793c, 0x3fe3b66e64e2054a),
        ],
    );
}

#[test]
fn dot_deep_on_criteo_like_is_pinned() {
    check(
        Variant::DotDeep,
        auc_datasets::criteo_like(),
        0xf74059fb2e00ea9e,
        [
            0x3fe664081c33383e,
            0x3fe447b8b9eb3ed5,
            0x3fe57fb65de5e2a6,
            0x3fe303e26d80dfb5,
            0x3fe431af4efc3345,
            0x3fe389b5777399b6,
            0x3fe63c8739d36d51,
            0x3fe3a174392a6bde,
            0x3fe47d0d5d8393fe,
            0x3fe437d6dd25f579,
        ],
        [
            (0x3fe3aa20e16d34b2, 0x3fe425d3d246b9b5),
            (0x3fe2c63d5ddda6a4, 0x3fe39ee72a26ebae),
        ],
    );
}

#[test]
fn attention_on_alibaba_like_is_pinned() {
    check(
        Variant::Attention,
        auc_datasets::alibaba_like(),
        0x31a3c19d2ef21b8b,
        [
            0x3fe6443c3c0685a3,
            0x3fe3f016a800ccfd,
            0x3fe101d771bcd81b,
            0x3fe14e148c7561f1,
            0x3fe148edb9c7ec4a,
            0x3fddcfc542c63847,
            0x3fe48310fa6669ca,
            0x3fe3268785d6ba5d,
            0x3fe002bdf228132f,
            0x3fe3dbefdd26aedb,
        ],
        [
            (0x3fe489efb4a222a7, 0x3fe19ac3e376840a),
            (0x3fe431bb776b0bb5, 0x3fe205076ee0f84d),
        ],
    );
}

#[test]
fn evolution_on_alibaba_like_is_pinned() {
    check(
        Variant::Evolution,
        auc_datasets::alibaba_like(),
        0x972573ed7c8e5658,
        [
            0x3fe6440259fa5d0f,
            0x3fe3eb64f38837f5,
            0x3fe0f8344ad2e531,
            0x3fe14d9f09c8ce0b,
            0x3fe1426a706374f0,
            0x3fddcd9a8a994b40,
            0x3fe493b8043c27af,
            0x3fe32d9e57ea0469,
            0x3fe010076ddfe327,
            0x3fe3e3c83a982bfd,
        ],
        [
            (0x3fe48c95ae9bde47, 0x3fe1b1a5d04dc548),
            (0x3fe4305b8a2dcf71, 0x3fe20def14e71468),
        ],
    );
}
