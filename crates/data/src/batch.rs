//! Training-batch generation.
//!
//! Materializes actual categorical-ID streams for the parts of the system
//! that run for real: the warm-up's ID statistics, the embedding operators
//! and the AUC trainer. The trainer needs whole batches (`next_batch`); the
//! warm-up draws the same IDs alone (`next_ids_into`). Logical vocabularies
//! in the trillions are clamped to a working vocabulary so the weight
//! tables stay small; the *distributional* properties the optimizations
//! depend on (skew, multi-hot lengths) are preserved.

use crate::dataset::DatasetSpec;
use crate::distribution::IdSampler;
use crate::synthetic::ClickModel;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// The materialized IDs of one field across a batch, in ragged layout.
#[derive(Debug, Clone)]
pub struct FieldBatch {
    /// Index of the field in the dataset spec.
    pub field: usize,
    /// Flattened categorical IDs (table-local ranks).
    pub ids: Vec<u64>,
    /// Instance boundaries: `ids[offsets[i]..offsets[i+1]]` belongs to
    /// instance `i`; length is `batch_size + 1`.
    pub offsets: Vec<u32>,
}

impl FieldBatch {
    /// IDs of one instance.
    pub fn instance(&self, i: usize) -> &[u64] {
        &self.ids[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Whether the batch holds no instances.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One mini-batch of training data.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Instances in the batch.
    pub size: usize,
    /// Per-field ID lists (same order as `DatasetSpec::fields`).
    pub fields: Vec<FieldBatch>,
    /// Dense features, row-major `size x numeric`.
    pub dense: Vec<f32>,
    /// Binary click labels.
    pub labels: Vec<f32>,
}

impl Batch {
    /// Total categorical IDs across all fields.
    pub fn total_ids(&self) -> usize {
        self.fields.iter().map(|f| f.ids.len()).sum()
    }
}

/// Seeded generator of batches for a dataset.
#[derive(Debug)]
pub struct BatchGenerator {
    spec: Arc<DatasetSpec>,
    /// Per-field samplers over the clamped working vocabulary.
    samplers: Vec<IdSampler>,
    /// Working vocabulary per field (after clamping).
    working_vocab: Vec<u64>,
    click: ClickModel,
    rng: StdRng,
}

/// Default cap on materialized vocabulary size per table.
pub const DEFAULT_MAX_WORKING_VOCAB: u64 = 50_000;

impl BatchGenerator {
    /// Creates a generator with the default working-vocabulary cap.
    pub fn new(spec: Arc<DatasetSpec>, seed: u64) -> Self {
        BatchGenerator::with_max_vocab(spec, seed, DEFAULT_MAX_WORKING_VOCAB)
    }

    /// Creates a generator clamping each field's vocabulary to `max_vocab`.
    pub fn with_max_vocab(spec: Arc<DatasetSpec>, seed: u64, max_vocab: u64) -> Self {
        assert!(max_vocab > 0, "working vocabulary must be nonempty");
        // Samplers are cached per (vocab, skew-bits): presets reuse a handful
        // of combinations across hundreds of fields.
        let mut cache: HashMap<(u64, u64), IdSampler> = HashMap::new();
        let mut samplers = Vec::with_capacity(spec.fields.len());
        let mut working_vocab = Vec::with_capacity(spec.fields.len());
        for f in &spec.fields {
            let vocab = f.vocab.min(max_vocab);
            let key = (vocab, f.dist.exponent().to_bits());
            let sampler = cache
                .entry(key)
                .or_insert_with(|| IdSampler::new(vocab, f.dist))
                .clone();
            samplers.push(sampler);
            working_vocab.push(vocab);
        }
        BatchGenerator {
            click: ClickModel::new(seed ^ 0x9e37_79b9_7f4a_7c15),
            spec,
            samplers,
            working_vocab,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The dataset this generator draws from.
    pub fn spec(&self) -> &Arc<DatasetSpec> {
        &self.spec
    }

    /// Working vocabulary of a field after clamping.
    pub fn working_vocab(&self, field: usize) -> u64 {
        self.working_vocab[field]
    }

    /// Generates the next batch of `size` instances.
    pub fn next_batch(&mut self, size: usize) -> Batch {
        assert!(size > 0, "batch size must be positive");
        let spec = Arc::clone(&self.spec);
        let n_fields = spec.fields.len();
        let mut fields = Vec::with_capacity(n_fields);
        for (fi, fspec) in spec.fields.iter().enumerate() {
            let mut ids = Vec::with_capacity((size as f64 * fspec.avg_ids) as usize + size);
            let mut offsets = Vec::with_capacity(size + 1);
            offsets.push(0u32);
            self.draw_field(fi, size, &mut ids, Some(&mut offsets));
            fields.push(FieldBatch {
                field: fi,
                ids,
                offsets,
            });
        }
        let mut dense = Vec::with_capacity(size * self.spec.numeric);
        for _ in 0..size * self.spec.numeric {
            dense.push(self.rng.gen_range(-1.0f32..1.0));
        }
        let labels =
            self.click
                .label_batch(&fields, &dense, self.spec.numeric, size, &mut self.rng);
        Batch {
            size,
            fields,
            dense,
            labels,
        }
    }

    /// Draws the IDs of the next batch of `size` instances and nothing
    /// else: field `f`'s IDs are appended to `outs[slots[f]]`, fields in
    /// spec order, so fields sharing a slot share one stream.
    ///
    /// The IDs and the generator's state afterwards are exactly those of
    /// [`BatchGenerator::next_batch`]: the dense features and click labels
    /// are skipped rather than computed, one RNG word each (every
    /// `gen_range` and `gen_bool` draws exactly one).
    ///
    /// # Panics
    /// If `size == 0`, if `slots` does not hold one slot per field, or if a
    /// slot indexes past `outs`.
    pub fn next_ids_into(&mut self, size: usize, slots: &[usize], outs: &mut [Vec<u64>]) {
        assert!(size > 0, "batch size must be positive");
        assert_eq!(slots.len(), self.spec.fields.len(), "one slot per field");
        for (fi, &slot) in slots.iter().enumerate() {
            self.draw_field(fi, size, &mut outs[slot], None);
        }
        for _ in 0..size * (self.spec.numeric + 1) {
            self.rng.next_u64();
        }
    }

    /// Appends field `fi`'s IDs for `size` instances to `ids`, pushing each
    /// instance's end onto `offsets` when given.
    fn draw_field(
        &mut self,
        fi: usize,
        size: usize,
        ids: &mut Vec<u64>,
        mut offsets: Option<&mut Vec<u32>>,
    ) {
        let avg = self.spec.fields[fi].avg_ids;
        for _ in 0..size {
            let len = self.multi_hot_len(avg);
            self.samplers[fi].sample_into(&mut self.rng, len, ids);
            if let Some(offsets) = offsets.as_deref_mut() {
                offsets.push(ids.len() as u32);
            }
        }
    }

    /// Draws a multi-hot length around `avg` (uniform in `[avg/2, 3*avg/2]`,
    /// at least 1).
    fn multi_hot_len(&mut self, avg: f64) -> usize {
        if avg <= 1.0 {
            return 1;
        }
        let lo = (avg * 0.5).floor() as usize;
        let hi = (avg * 1.5).ceil() as usize;
        self.rng.gen_range(lo..=hi).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use crate::field::FieldSpec;

    fn tiny_spec() -> Arc<DatasetSpec> {
        use crate::distribution::IdDistribution;
        DatasetSpec {
            name: "tiny".into(),
            numeric: 3,
            fields: vec![
                FieldSpec::one_hot("a", 100, 8, IdDistribution::Zipf { s: 1.1 }, 0),
                FieldSpec::one_hot("b", 1000, 8, IdDistribution::Uniform, 1).with_avg_ids(10.0),
            ],
            instances: None,
        }
        .shared()
    }

    #[test]
    fn batch_shape_is_consistent() {
        let mut g = BatchGenerator::new(tiny_spec(), 42);
        let b = g.next_batch(16);
        assert_eq!(b.size, 16);
        assert_eq!(b.fields.len(), 2);
        assert_eq!(b.dense.len(), 16 * 3);
        assert_eq!(b.labels.len(), 16);
        for f in &b.fields {
            assert_eq!(f.len(), 16);
            assert_eq!(*f.offsets.last().unwrap() as usize, f.ids.len());
        }
        // One-hot field: exactly one id per instance.
        assert_eq!(b.fields[0].ids.len(), 16);
        // Multi-hot field: roughly 10 per instance.
        let avg = b.fields[1].ids.len() as f64 / 16.0;
        assert!((5.0..=15.0).contains(&avg), "avg multi-hot len {avg}");
    }

    #[test]
    fn ids_respect_working_vocab() {
        let mut g = BatchGenerator::with_max_vocab(tiny_spec(), 1, 50);
        let b = g.next_batch(64);
        assert_eq!(g.working_vocab(0), 50);
        for f in &b.fields {
            assert!(f.ids.iter().all(|&id| id < 1000));
        }
        assert!(b.fields[0].ids.iter().all(|&id| id < 50));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut g1 = BatchGenerator::new(tiny_spec(), 7);
        let mut g2 = BatchGenerator::new(tiny_spec(), 7);
        let b1 = g1.next_batch(8);
        let b2 = g2.next_batch(8);
        assert_eq!(b1.fields[0].ids, b2.fields[0].ids);
        assert_eq!(b1.labels, b2.labels);
        let mut g3 = BatchGenerator::new(tiny_spec(), 8);
        let b3 = g3.next_batch(8);
        assert_ne!(b1.fields[0].ids, b3.fields[0].ids);
    }

    #[test]
    fn labels_are_binary_and_mixed() {
        let mut g = BatchGenerator::new(tiny_spec(), 3);
        let b = g.next_batch(512);
        assert!(b.labels.iter().all(|&l| l == 0.0 || l == 1.0));
        let pos: f32 = b.labels.iter().sum();
        assert!(
            pos > 16.0 && pos < 496.0,
            "labels should be mixed, got {pos} positives"
        );
    }

    #[test]
    fn instance_accessor_matches_offsets() {
        let mut g = BatchGenerator::new(tiny_spec(), 5);
        let b = g.next_batch(4);
        let f = &b.fields[1];
        let mut total = 0;
        for i in 0..4 {
            total += f.instance(i).len();
        }
        assert_eq!(total, f.ids.len());
    }

    #[test]
    fn presets_generate() {
        // Smoke-test the big presets with a small working vocab.
        for spec in [DatasetSpec::alibaba(), DatasetSpec::product2()] {
            let mut g = BatchGenerator::with_max_vocab(spec.shared(), 1, 1000);
            let b = g.next_batch(2);
            assert_eq!(b.fields.len(), b.fields.capacity().min(b.fields.len()));
            assert!(b.total_ids() >= b.size * b.fields.len());
        }
    }
}
