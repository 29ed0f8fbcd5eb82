//! # picasso-ckpt
//!
//! The fault-tolerance foundation of the PICASSO reproduction: a versioned
//! on-disk checkpoint format and the store that manages it.
//!
//! Production WDL training jobs run for days; XDL2 (the productized
//! PICASSO) survives worker crashes by periodically persisting model state
//! and restoring the last valid snapshot. This crate owns that format:
//!
//! * [`codec`] — a deterministic little-endian binary codec plus the
//!   checksum every shard is integrity-checked with, `fnv1a64_words`
//!   (FNV-1a over 64-bit words, from `picasso_obs::checksum`). No external
//!   dependencies.
//! * [`manifest`] — the JSON manifest (schema v2) describing one
//!   checkpoint: its step, kind (full or incremental), parent link, and
//!   each shard's name, length and checksum.
//! * [`store`] — the directory-level store: one data file per checkpoint
//!   holding every shard, streamed as the shards arrive; atomic
//!   write-then-rename commits; length and checksum validation with
//!   fallback to the previous manifest; incremental-chain resolution; and
//!   retention/GC that never breaks a parent chain.
//!
//! What goes *into* a shard is the owning crate's business: embedding
//! tables serialize themselves in `picasso-embedding`, dense trainer
//! parameters in `picasso-train`, and
//! the recovery driver in `picasso-exec` ties them together.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod codec;
pub mod manifest;
pub mod store;

pub use codec::{fnv1a64_words, CodecError, Decoder, Encoder, Fnv1a};
pub use manifest::{CheckpointKind, Manifest, ShardEntry, CKPT_SCHEMA_VERSION};
pub use store::{
    ChainLink, CheckpointStore, CheckpointSummary, CheckpointWriter, GcReport, StoreError,
};
