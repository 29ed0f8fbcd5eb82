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
#[derive(Debug, Clone, Default)]
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
#[derive(Debug, Clone, Default)]
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

    /// Working vocabulary of a field after clamping.
    pub fn working_vocab(&self, field: usize) -> u64 {
        self.working_vocab[field]
    }

    /// An empty batch whose buffers already hold a batch of `size`
    /// instances, so that [`BatchGenerator::next_batch_into`] fills it
    /// without growing them (unless a multi-hot field draws more IDs than
    /// its average plus one per instance).
    pub fn empty_batch(&self, size: usize) -> Batch {
        let mut batch = Batch::default();
        self.clear_for(size, &mut batch);
        batch
    }

    /// Empties `batch` and sizes its buffers for `size` instances: one
    /// [`FieldBatch`] per field, numbered, with room for its IDs and
    /// offsets, and room for the dense features and labels.
    fn clear_for(&self, size: usize, batch: &mut Batch) {
        let fields = &self.spec.fields;
        batch.size = size;
        batch.fields.truncate(fields.len());
        batch.fields.resize_with(fields.len(), FieldBatch::default);
        for (fi, (fspec, fb)) in fields.iter().zip(&mut batch.fields).enumerate() {
            fb.field = fi;
            fb.ids.clear();
            fb.ids
                .reserve((size as f64 * fspec.avg_ids) as usize + size);
            fb.offsets.clear();
            fb.offsets.reserve(size + 1);
        }
        batch.dense.clear();
        batch.dense.reserve(size * self.spec.numeric);
        batch.labels.clear();
        batch.labels.reserve(size);
    }

    /// Generates the next batch of `size` instances.
    pub fn next_batch(&mut self, size: usize) -> Batch {
        let mut batch = Batch::default();
        self.next_batch_into(size, &mut batch);
        batch
    }

    /// Refills `batch` with the next batch of `size` instances, reusing its
    /// buffers: every field is replaced, whatever `batch` held before, so
    /// the result equals [`BatchGenerator::next_batch`]'s.
    ///
    /// # Panics
    /// If `size == 0`.
    pub fn next_batch_into(&mut self, size: usize, batch: &mut Batch) {
        assert!(size > 0, "batch size must be positive");
        self.clear_for(size, batch);
        for (fi, fb) in batch.fields.iter_mut().enumerate() {
            fb.offsets.push(0u32);
            self.draw_field(fi, size, &mut fb.ids, Some(&mut fb.offsets));
        }
        let numeric = self.spec.numeric;
        let rng = &mut self.rng;
        batch
            .dense
            .extend((0..size * numeric).map(|_| rng.gen_range(-1.0f32..1.0)));
        self.click.label_batch(
            &batch.fields,
            &batch.dense,
            numeric,
            size,
            &mut self.rng,
            &mut batch.labels,
        );
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

    /// Skips `batches` batches of `size` instances: the generator is left
    /// exactly where `batches` calls of [`BatchGenerator::next_batch`]
    /// would leave it, without sampling an ID or computing a label.
    ///
    /// It counts the batches' IDs as [`BatchGenerator::count_ids`] does,
    /// drawing only the multi-hot lengths, then steps past the words still
    /// owed after the last length draw.
    ///
    /// # Panics
    /// If `size == 0`.
    pub fn skip_batches(&mut self, batches: usize, size: usize) {
        let slots = vec![0; self.spec.fields.len()];
        let owed = self.count_ids_in_place(batches, size, &slots, &mut [0]);
        for _ in 0..owed {
            self.rng.next_u64();
        }
    }

    /// Adds to `counts[slots[f]]` the number of IDs that `batches` calls of
    /// [`BatchGenerator::next_ids_into`] with this `size` and `slots` would
    /// append for field `f`, without drawing an ID.
    ///
    /// A one-hot field (`avg_ids <= 1`) adds `size` per batch and draws
    /// nothing. A multi-hot field draws each instance's length from the
    /// same stream `next_ids_into` would, after stepping past the words
    /// owed since the previous length draw: one per ID sampled, and the
    /// dense and label words at each batch end. So a spec with only
    /// one-hot fields draws no RNG word at all. The words owed after the
    /// last length draw are never stepped, so the generator is consumed.
    ///
    /// # Panics
    /// If `size == 0`, if `slots` does not hold one slot per field, or if a
    /// slot indexes past `counts`.
    pub fn count_ids(mut self, batches: usize, size: usize, slots: &[usize], counts: &mut [u64]) {
        self.count_ids_in_place(batches, size, slots, counts);
    }

    /// [`BatchGenerator::count_ids`] on a borrowed generator. Returns the
    /// RNG words owed after the last length draw: the generator's state
    /// trails `next_ids_into`'s by exactly that many words.
    pub(crate) fn count_ids_in_place(
        &mut self,
        batches: usize,
        size: usize,
        slots: &[usize],
        counts: &mut [u64],
    ) -> usize {
        assert!(size > 0, "batch size must be positive");
        assert_eq!(slots.len(), self.spec.fields.len(), "one slot per field");
        let mut owed = 0;
        for _ in 0..batches {
            for (fi, &slot) in slots.iter().enumerate() {
                let avg = self.spec.fields[fi].avg_ids;
                if avg <= 1.0 {
                    counts[slot] += size as u64;
                    owed += size;
                    continue;
                }
                for _ in 0..size {
                    for _ in 0..owed {
                        self.rng.next_u64();
                    }
                    let len = self.multi_hot_len(avg);
                    counts[slot] += len as u64;
                    owed = len;
                }
            }
            owed += size * (self.spec.numeric + 1);
        }
        owed
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
    fn counting_one_hot_fields_draws_no_word() {
        use crate::distribution::IdDistribution;
        let spec = DatasetSpec {
            name: "one-hot".into(),
            numeric: 3,
            fields: vec![
                FieldSpec::one_hot("a", 100, 8, IdDistribution::Zipf { s: 1.1 }, 0),
                FieldSpec::one_hot("b", 1000, 8, IdDistribution::Uniform, 1),
                FieldSpec::one_hot("c", 10, 8, IdDistribution::Uniform, 0),
            ],
            instances: None,
        }
        .shared();
        let mut g = BatchGenerator::new(spec, 11);
        let before = format!("{:?}", g.rng);
        let mut counts = [0; 2];
        g.count_ids_in_place(5, 64, &[0, 1, 0], &mut counts);
        assert_eq!(counts, [5 * 64 * 2, 5 * 64]);
        assert_eq!(format!("{:?}", g.rng), before, "no RNG word stepped");
    }

    #[test]
    fn skipping_batches_leaves_the_generator_where_drawing_them_does() {
        use crate::distribution::IdDistribution;
        let one_hot = DatasetSpec {
            name: "one-hot".into(),
            numeric: 2,
            fields: vec![
                FieldSpec::one_hot("a", 100, 8, IdDistribution::Zipf { s: 1.1 }, 0),
                FieldSpec::one_hot("b", 1000, 8, IdDistribution::Uniform, 1),
            ],
            instances: None,
        }
        .shared();
        for spec in [one_hot, tiny_spec()] {
            for (batches, size) in [(0, 16), (1, 1), (3, 16), (12, 7)] {
                let mut drawn = BatchGenerator::new(Arc::clone(&spec), 31);
                for _ in 0..batches {
                    drawn.next_batch(size);
                }
                let mut skipped = BatchGenerator::new(Arc::clone(&spec), 31);
                skipped.skip_batches(batches, size);
                let (want, got) = (drawn.next_batch(5), skipped.next_batch(5));
                for (w, g) in want.fields.iter().zip(&got.fields) {
                    assert_eq!(w.ids, g.ids, "{} after {batches}x{size}", spec.name);
                    assert_eq!(w.offsets, g.offsets);
                }
                assert_eq!(want.dense, got.dense);
                assert_eq!(want.labels, got.labels);
                assert_eq!(format!("{:?}", drawn.rng), format!("{:?}", skipped.rng));
            }
        }
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
