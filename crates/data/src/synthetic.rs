//! Synthetic click ground truth.
//!
//! The AUC experiments (Table III) need labels that a model can actually
//! learn. We generate clicks from a hidden logistic model whose per-ID
//! weights are derived from a deterministic hash, so the ground truth is
//! consistent across batches, epochs, and training systems — any AUC above
//! 0.5 reflects real learning.

use crate::batch::FieldBatch;
use rand::Rng;

/// SplitMix64: a tiny, high-quality deterministic mixer.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hidden logistic click model.
#[derive(Debug, Clone)]
pub struct ClickModel {
    seed: u64,
    /// Global bias; negative so the positive rate is CTR-like (20–40 %).
    bias: f64,
    /// Scale of per-ID weights.
    scale: f64,
}

impl ClickModel {
    /// Creates a click model keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        ClickModel {
            seed,
            bias: -0.8,
            scale: 1.6,
        }
    }

    /// The hidden weight of `(field, id)`, in `[-scale/2, scale/2]`.
    pub fn weight(&self, field: usize, id: u64) -> f64 {
        let h = splitmix64(self.seed ^ splitmix64((field as u64) << 40 ^ id));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        (unit - 0.5) * self.scale
    }

    /// Adds instance `i`'s terms for one field to its logit `z`.
    #[inline]
    fn add_field_terms(&self, fb: &FieldBatch, i: usize, z: &mut f64) {
        let ids = fb.instance(i);
        if ids.is_empty() {
            return;
        }
        let norm = (ids.len() as f64).sqrt();
        for &id in ids {
            *z += self.weight(fb.field, id) / norm;
        }
    }

    /// The hidden weight of dense feature `j`.
    fn dense_weight(&self, j: usize) -> f64 {
        self.weight(usize::MAX - j, 0)
    }

    /// Draws binary labels for a whole batch into `labels`, replacing
    /// its contents.
    ///
    /// Logits accumulate field by field over the whole batch (each
    /// [`FieldBatch`] is walked once, contiguously), then the dense terms
    /// are added and the labels drawn in instance order. Every instance
    /// adds the same terms in the same order as a per-instance sum (bias,
    /// fields in order, then dense features), so the labels and the RNG
    /// stream are identical to drawing them instance by instance.
    pub fn label_batch<R: Rng + ?Sized>(
        &self,
        fields: &[FieldBatch],
        dense: &[f32],
        numeric: usize,
        size: usize,
        rng: &mut R,
        labels: &mut Vec<f32>,
    ) {
        let mut z = vec![self.bias; size];
        for fb in fields {
            for (i, zi) in z.iter_mut().enumerate() {
                self.add_field_terms(fb, i, zi);
            }
        }
        let dense_weights: Vec<f64> = (0..numeric).map(|j| self.dense_weight(j)).collect();
        for (zi, xs) in z.iter_mut().zip(dense.chunks_exact(numeric.max(1))) {
            for (w, &x) in dense_weights.iter().zip(xs) {
                *zi += w * x as f64 * 0.5;
            }
        }
        labels.clear();
        labels.extend(
            z.into_iter()
                .map(|zi| if rng.gen_bool(sigmoid(zi)) { 1.0 } else { 0.0 }),
        );
    }
}

/// Numerically stable logistic function.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn splitmix_is_deterministic_and_mixing() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        // Avalanche sanity: flipping one input bit flips many output bits.
        let d = (splitmix64(0) ^ splitmix64(1)).count_ones();
        assert!(d > 16, "poor mixing: only {d} bits differ");
    }

    #[test]
    fn weights_are_bounded_and_stable() {
        let m = ClickModel::new(9);
        for f in 0..10 {
            for id in 0..100 {
                let w = m.weight(f, id);
                assert!(w.abs() <= 0.8 + 1e-12);
                assert_eq!(w, m.weight(f, id));
            }
        }
    }

    #[test]
    fn different_seeds_give_different_models() {
        let a = ClickModel::new(1);
        let b = ClickModel::new(2);
        let diffs = (0..100)
            .filter(|&id| a.weight(0, id) != b.weight(0, id))
            .count();
        assert!(diffs > 90);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
        assert!(sigmoid(-1000.0) >= 0.0);
        assert!(sigmoid(1000.0) <= 1.0);
    }

    impl ClickModel {
        /// The hidden logit of one instance, summed on its own.
        fn logit(&self, fields: &[FieldBatch], dense: &[f32], numeric: usize, i: usize) -> f64 {
            let mut z = self.bias;
            for fb in fields {
                self.add_field_terms(fb, i, &mut z);
            }
            for (j, &x) in dense[i * numeric..(i + 1) * numeric].iter().enumerate() {
                z += self.dense_weight(j) * x as f64 * 0.5;
            }
            z
        }
    }

    #[test]
    fn logit_depends_on_ids() {
        let m = ClickModel::new(3);
        let fa = FieldBatch {
            field: 0,
            ids: vec![1, 2],
            offsets: vec![0, 1, 2],
        };
        let za = m.logit(std::slice::from_ref(&fa), &[], 0, 0);
        let zb = m.logit(std::slice::from_ref(&fa), &[], 0, 1);
        assert_ne!(za, zb);
    }

    /// The per-instance reference: one `logit` call per instance, labels
    /// drawn in instance order.
    fn labels_per_instance(
        m: &ClickModel,
        b: &crate::batch::Batch,
        numeric: usize,
        rng: &mut StdRng,
    ) -> Vec<f32> {
        (0..b.size)
            .map(|i| {
                let p = sigmoid(m.logit(&b.fields, &b.dense, numeric, i));
                if rng.gen_bool(p) {
                    1.0
                } else {
                    0.0
                }
            })
            .collect()
    }

    fn assert_field_major_matches(spec: crate::dataset::DatasetSpec, size: usize) {
        let numeric = spec.numeric;
        let mut gen = crate::batch::BatchGenerator::with_max_vocab(spec.shared(), 5, 1000);
        let b = gen.next_batch(size);
        let m = ClickModel::new(77);
        let mut rng = StdRng::seed_from_u64(9);
        // A stale, longer buffer is replaced, not appended to.
        let mut got = vec![0.5; b.size + 3];
        m.label_batch(&b.fields, &b.dense, numeric, b.size, &mut rng, &mut got);
        let mut reference = StdRng::seed_from_u64(9);
        let want = labels_per_instance(&m, &b, numeric, &mut reference);
        assert_eq!(got, want);
        // Both paths leave the RNG stream at the same point.
        assert_eq!(rng.gen::<f64>().to_bits(), reference.gen::<f64>().to_bits());
    }

    #[test]
    fn field_major_labels_match_the_per_instance_logits_on_can() {
        assert_field_major_matches(crate::dataset::DatasetSpec::product2(), 256);
    }

    #[test]
    fn field_major_labels_match_the_per_instance_logits_on_multi_hot() {
        use crate::distribution::IdDistribution;
        use crate::field::FieldSpec;
        let spec = crate::dataset::DatasetSpec {
            name: "multi-hot".into(),
            numeric: 3,
            fields: vec![
                FieldSpec::one_hot("a", 100, 8, IdDistribution::Zipf { s: 1.1 }, 0),
                FieldSpec::one_hot("b", 1000, 8, IdDistribution::Uniform, 1).with_avg_ids(10.0),
                FieldSpec::one_hot("c", 500, 8, IdDistribution::Zipf { s: 1.3 }, 1)
                    .with_avg_ids(4.0),
            ],
            instances: None,
        };
        assert_field_major_matches(spec, 64);
    }
}
