//! Trainable CTR models with manual backpropagation.
//!
//! Small but real versions of the Table III models: embeddings pooled per
//! table, an interaction stage (plain concat, pairwise dots, or target
//! attention), and a two-layer MLP head. Everything trains end to end —
//! embedding rows included — so measured AUC reflects genuine learning.

use crate::nn::{bce_with_logits, predict, Linear};
use crate::optimizer::Adagrad;
use crate::tensor::Matrix;
use picasso_data::{Batch, DatasetSpec, IdHash};
use picasso_embedding::EmbeddingTable;
use std::collections::{BTreeMap, HashMap};

/// The interaction stage of a trainable model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Concat pooled embeddings (W&D / DeepFM deep part).
    Deep,
    /// Concat plus pairwise dot products (DLRM / DeepFM FM part).
    DotDeep,
    /// Target attention over sequence tables (DIN).
    Attention,
    /// Target attention with a recency prior (DIEN-style interest
    /// evolution).
    Evolution,
}

/// Embedding dimension of the trainable models.
pub const EMB_DIM: usize = 8;

/// A trainable CTR model over a dataset's tables.
#[derive(Debug)]
pub struct CtrModel {
    variant: Variant,
    /// One embedding table per table group, in `table_order`.
    tables: Vec<EmbeddingTable>,
    /// Table ids in order (the feature layout).
    table_order: Vec<usize>,
    /// Which tables are sequences (attention-pooled under
    /// Attention/Evolution), in `table_order`.
    is_seq: Vec<bool>,
    l1: Linear,
    l2: Linear,
    opt1: Adagrad,
    opt2: Adagrad,
    emb_lr: f32,
    input_width: usize,
}

/// Per-step training telemetry.
#[derive(Debug, Clone, Copy)]
pub struct StepStats {
    /// Mean BCE loss of the batch.
    pub loss: f64,
}

/// Dense gradients of one step (delayed under async training).
#[derive(Debug)]
pub struct DenseGrads {
    dw1: Matrix,
    db1: Vec<f32>,
    dw2: Matrix,
    db2: Vec<f32>,
    /// Sparse gradients, one per distinct `(table index, id)` of the batch
    /// in first-occurrence order: (table index, id, grad).
    sparse: Vec<(usize, u64, [f32; EMB_DIM])>,
}

impl CtrModel {
    /// Builds a model for `data` (tables of `data` are embedded at
    /// [`EMB_DIM`] regardless of the spec's logical dims).
    pub fn new(data: &DatasetSpec, variant: Variant, lr: f32, seed: u64) -> CtrModel {
        let mut per_table_fields: BTreeMap<usize, usize> = BTreeMap::new();
        let mut multi_hot: BTreeMap<usize, bool> = BTreeMap::new();
        for f in &data.fields {
            *per_table_fields.entry(f.table_group).or_insert(0) += 1;
            if f.avg_ids > 1.5 {
                multi_hot.insert(f.table_group, true);
            }
        }
        let table_order: Vec<usize> = per_table_fields.keys().copied().collect();
        let tables = table_order
            .iter()
            .map(|&t| EmbeddingTable::new(EMB_DIM, seed ^ t as u64))
            .collect();
        let is_seq = per_table_fields
            .iter()
            .map(|(t, &n)| n > 1 || multi_hot.get(t).copied().unwrap_or(false))
            .collect();
        let n = table_order.len();
        let dots = if variant == Variant::DotDeep {
            n * (n - 1) / 2
        } else {
            0
        };
        let input_width = n * EMB_DIM + dots + data.numeric;
        let hidden = 32;
        CtrModel {
            variant,
            tables,
            table_order,
            is_seq,
            l1: Linear::new(input_width, hidden, true, seed ^ 0xAA),
            l2: Linear::new(hidden, 1, false, seed ^ 0xBB),
            opt1: Adagrad::new(input_width, hidden, lr),
            opt2: Adagrad::new(hidden, 1, lr),
            emb_lr: lr,
            input_width,
        }
    }

    /// Width of the MLP input.
    pub fn input_width(&self) -> usize {
        self.input_width
    }

    /// Pools one instance's IDs of table `ti` into the returned vector and
    /// writes each id's pooling weight into `weights` (attention weights, or
    /// uniform when not attending). `rows` is scratch for the gathered rows.
    fn pool(
        &mut self,
        ti: usize,
        ids: &[u64],
        target: Option<&[f32; EMB_DIM]>,
        weights: &mut [f32],
        rows: &mut Vec<[f32; EMB_DIM]>,
    ) -> [f32; EMB_DIM] {
        let mut out = [0.0f32; EMB_DIM];
        if ids.is_empty() {
            return out;
        }
        let attend = matches!(self.variant, Variant::Attention | Variant::Evolution)
            && self.is_seq[ti]
            && ids.len() > 1;
        let t = &mut self.tables[ti];
        rows.clear();
        rows.extend(ids.iter().map(|&id| {
            let mut r = [0.0f32; EMB_DIM];
            r.copy_from_slice(t.row(id));
            r
        }));
        match target {
            Some(tgt) if attend => {
                let scale = 1.0 / (EMB_DIM as f32).sqrt();
                let recency = matches!(self.variant, Variant::Evolution);
                for (i, (s, r)) in weights.iter_mut().zip(rows.iter()).enumerate() {
                    let dot: f32 = r.iter().zip(tgt).map(|(a, b)| a * b).sum();
                    let prior = if recency {
                        // Later positions (more recent behaviour) weigh more.
                        0.1 * (i as f32 - ids.len() as f32 + 1.0)
                    } else {
                        0.0
                    };
                    *s = dot * scale + prior;
                }
                let max = weights.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0;
                for s in weights.iter_mut() {
                    *s = (*s - max).exp();
                    sum += *s;
                }
                for s in weights.iter_mut() {
                    *s /= sum;
                }
            }
            _ => weights.fill(1.0 / ids.len() as f32),
        }
        for (r, &w) in rows.iter().zip(weights.iter()) {
            for (o, &v) in out.iter_mut().zip(r) {
                *o += w * v;
            }
        }
        out
    }

    /// Forward pass over a batch: builds the MLP input and returns logits
    /// plus the pooling bookkeeping needed for backward.
    fn forward(&mut self, batch: &Batch, data: &DatasetSpec) -> (Matrix, ForwardState) {
        let n_tables = self.table_order.len();
        // Each table's fields in spec order.
        let mut table_fields = vec![Vec::new(); n_tables];
        for (fi, f) in data.fields.iter().enumerate() {
            let ti = self.table_order.binary_search(&f.table_group);
            table_fields[ti.expect("known table")].push(fi);
        }
        let mut ids = Vec::new();
        let mut spans = Vec::with_capacity(batch.size * n_tables + 1);
        spans.push(0);
        for i in 0..batch.size {
            for fields in &table_fields {
                for &fi in fields {
                    ids.extend_from_slice(batch.fields[fi].instance(i));
                }
                spans.push(ids.len());
            }
        }
        let mut weights = vec![0.0f32; ids.len()];
        let mut pooled = vec![[0.0f32; EMB_DIM]; batch.size * n_tables];
        let mut rows = Vec::new();
        let mut x = Matrix::zeros(batch.size, self.input_width);
        // Target for attention: pooled first non-sequence table.
        let target = self.is_seq.iter().position(|&s| !s).unwrap_or(0);

        for i in 0..batch.size {
            let k = i * n_tables;
            // Pool the target table first; the others attend to it.
            let others = (0..n_tables).filter(|&ti| ti != target);
            for ti in std::iter::once(target).chain(others) {
                let span = spans[k + ti]..spans[k + ti + 1];
                let tgt = (ti != target).then(|| pooled[k + target]);
                let (ids, weights) = (&ids[span.clone()], &mut weights[span]);
                pooled[k + ti] = self.pool(ti, ids, tgt.as_ref(), weights, &mut rows);
            }
            let xrow = x.row_mut(i);
            for (ti, p) in pooled[k..k + n_tables].iter().enumerate() {
                xrow[ti * EMB_DIM..(ti + 1) * EMB_DIM].copy_from_slice(p);
            }
            // Pairwise dots.
            if self.variant == Variant::DotDeep {
                let mut c = n_tables * EMB_DIM;
                for a in 0..n_tables {
                    for b in (a + 1)..n_tables {
                        let (pa, pb) = (&pooled[k + a], &pooled[k + b]);
                        xrow[c] = pa.iter().zip(pb).map(|(x, y)| x * y).sum();
                        c += 1;
                    }
                }
            }
            // Dense features.
            let base = self.input_width - data.numeric;
            xrow[base..].copy_from_slice(&batch.dense[i * data.numeric..(i + 1) * data.numeric]);
        }

        let h = self.l1.forward(&x);
        let z = self.l2.forward(&h);
        (
            z,
            ForwardState {
                ids,
                spans,
                weights,
                pooled,
            },
        )
    }

    /// One training step: forward, loss, backward; returns the loss and the
    /// gradients (application is the caller's choice — immediate for
    /// synchronous training, delayed for async PS).
    pub fn step(&mut self, batch: &Batch, data: &DatasetSpec) -> (StepStats, DenseGrads) {
        let (z, state) = self.forward(batch, data);
        let (loss, dz) = bce_with_logits(&z, &batch.labels);

        let (mut dw2, mut db2) = self.l2.grad_buffers();
        let dh = self.l2.backward(dz, &mut dw2, &mut db2);
        let (mut dw1, mut db1) = self.l1.grad_buffers();
        let dx = self.l1.backward(dh, &mut dw1, &mut db1);

        let sparse = self.embedding_grads(&dx, &state);
        (
            StepStats { loss },
            DenseGrads {
                dw1,
                db1,
                dw2,
                db2,
                sparse,
            },
        )
    }

    /// Applies a (possibly stale) gradient.
    pub fn apply(&mut self, g: &DenseGrads) {
        self.opt1
            .step(&mut self.l1.w, &mut self.l1.b, &g.dw1, &g.db1);
        self.opt2
            .step(&mut self.l2.w, &mut self.l2.b, &g.dw2, &g.db2);
        for (ti, id, grad) in &g.sparse {
            self.tables[*ti].apply_gradient(*id, grad, self.emb_lr);
        }
    }

    /// Scores a batch (no caching of state).
    pub fn predict(&mut self, batch: &Batch, data: &DatasetSpec) -> Vec<f64> {
        let (z, _) = self.forward(batch, data);
        predict(&z)
    }

    /// Propagates `dx` (gradient of the MLP input) back into per-ID
    /// embedding gradients, through the pooling weights and pairwise dots,
    /// coalesced per `(table index, id)` in first-occurrence order.
    /// Attention weights are treated as constants (a straight-through
    /// approximation documented in DESIGN.md).
    fn embedding_grads(
        &self,
        dx: &Matrix,
        state: &ForwardState,
    ) -> Vec<(usize, u64, [f32; EMB_DIM])> {
        let n_tables = self.table_order.len();
        let mut slots: HashMap<(usize, u64), usize, IdHash> =
            HashMap::with_capacity_and_hasher(state.ids.len(), IdHash::default());
        let mut grads: Vec<(usize, u64, [f32; EMB_DIM])> = Vec::new();
        let mut dpooled = vec![[0.0f32; EMB_DIM]; n_tables];
        for i in 0..dx.rows() {
            let k = i * n_tables;
            // Gradient w.r.t. each pooled vector: direct slice + dot terms.
            let xrow = dx.row(i);
            for (ti, dp) in dpooled.iter_mut().enumerate() {
                dp.copy_from_slice(&xrow[ti * EMB_DIM..(ti + 1) * EMB_DIM]);
            }
            if self.variant == Variant::DotDeep {
                let mut c = n_tables * EMB_DIM;
                for a in 0..n_tables {
                    for b in (a + 1)..n_tables {
                        let g = xrow[c];
                        let (pa, pb) = (&state.pooled[k + a], &state.pooled[k + b]);
                        for j in 0..EMB_DIM {
                            dpooled[a][j] += g * pb[j];
                            dpooled[b][j] += g * pa[j];
                        }
                        c += 1;
                    }
                }
            }
            // Through the pooling weights to each id.
            for (ti, dp) in dpooled.iter().enumerate() {
                let span = state.spans[k + ti]..state.spans[k + ti + 1];
                for (&id, &weight) in state.ids[span.clone()].iter().zip(&state.weights[span]) {
                    let slot = *slots.entry((ti, id)).or_insert_with(|| {
                        grads.push((ti, id, [0.0; EMB_DIM]));
                        grads.len() - 1
                    });
                    let e = &mut grads[slot].2;
                    for j in 0..EMB_DIM {
                        e[j] += weight * dp[j];
                    }
                }
            }
        }
        grads
    }
}

fn encode_matrix(e: &mut picasso_ckpt::Encoder, m: &Matrix) {
    e.u64(m.rows() as u64);
    e.u64(m.cols() as u64);
    e.f32_slice(m.as_slice());
}

fn decode_matrix(
    d: &mut picasso_ckpt::Decoder<'_>,
    want_rows: usize,
    want_cols: usize,
) -> Result<Matrix, picasso_ckpt::CodecError> {
    let rows = d.u64()? as usize;
    let cols = d.u64()? as usize;
    if rows != want_rows || cols != want_cols {
        return Err(picasso_ckpt::CodecError::Invalid(format!(
            "matrix shape {rows}x{cols}, model expects {want_rows}x{want_cols}"
        )));
    }
    let data = d.f32_slice()?;
    if data.len() != rows * cols {
        return Err(picasso_ckpt::CodecError::Invalid(format!(
            "matrix payload {} values for {rows}x{cols}",
            data.len()
        )));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

fn decode_bias(
    d: &mut picasso_ckpt::Decoder<'_>,
    want: usize,
) -> Result<Vec<f32>, picasso_ckpt::CodecError> {
    let b = d.f32_slice()?;
    if b.len() != want {
        return Err(picasso_ckpt::CodecError::Invalid(format!(
            "bias length {}, model expects {want}",
            b.len()
        )));
    }
    Ok(b)
}

/// Checkpoint/restore surface of the model: dense parameters (MLP weights,
/// biases, Adagrad accumulators) serialize to one shard; embedding tables
/// are exposed so the recovery driver can shard them individually.
impl CtrModel {
    /// Serializes every dense parameter and optimizer accumulator.
    pub fn dense_snapshot(&self) -> Vec<u8> {
        let mut e = picasso_ckpt::Encoder::new();
        encode_matrix(&mut e, &self.l1.w);
        e.f32_slice(&self.l1.b);
        encode_matrix(&mut e, &self.l2.w);
        e.f32_slice(&self.l2.b);
        encode_matrix(&mut e, self.opt1.acc_w());
        e.f32_slice(self.opt1.acc_b());
        encode_matrix(&mut e, self.opt2.acc_w());
        e.f32_slice(self.opt2.acc_b());
        e.finish()
    }

    /// Restores dense parameters from [`CtrModel::dense_snapshot`] bytes.
    /// Shapes are validated against the live model.
    pub fn restore_dense(&mut self, bytes: &[u8]) -> Result<(), picasso_ckpt::CodecError> {
        let mut d = picasso_ckpt::Decoder::new(bytes);
        let w1 = decode_matrix(&mut d, self.l1.w.rows(), self.l1.w.cols())?;
        let b1 = decode_bias(&mut d, self.l1.b.len())?;
        let w2 = decode_matrix(&mut d, self.l2.w.rows(), self.l2.w.cols())?;
        let b2 = decode_bias(&mut d, self.l2.b.len())?;
        let a1w = decode_matrix(&mut d, self.l1.w.rows(), self.l1.w.cols())?;
        let a1b = decode_bias(&mut d, self.l1.b.len())?;
        let a2w = decode_matrix(&mut d, self.l2.w.rows(), self.l2.w.cols())?;
        let a2b = decode_bias(&mut d, self.l2.b.len())?;
        d.finish()?;
        self.l1.w = w1;
        self.l1.b = b1;
        self.l2.w = w2;
        self.l2.b = b2;
        self.opt1.restore_acc(a1w, a1b);
        self.opt2.restore_acc(a2w, a2b);
        Ok(())
    }

    /// Table-group IDs in feature order.
    pub fn table_groups(&self) -> Vec<usize> {
        self.table_order.clone()
    }

    /// Read access to one embedding table.
    pub fn table(&self, group: usize) -> Option<&EmbeddingTable> {
        let ti = self.table_order.binary_search(&group).ok()?;
        Some(&self.tables[ti])
    }

    /// Mutable access to one embedding table (checkpoint restore).
    pub fn table_mut(&mut self, group: usize) -> Option<&mut EmbeddingTable> {
        let ti = self.table_order.binary_search(&group).ok()?;
        Some(&mut self.tables[ti])
    }

    /// Clears the dirty sets of every table after a checkpoint captured them.
    pub fn mark_tables_clean(&mut self) {
        for t in &mut self.tables {
            t.mark_clean();
        }
    }

    /// An FNV-1a digest over every parameter bit of the model — dense
    /// weights, optimizer accumulators, and all materialized embedding rows
    /// in sorted order. Two models agree on this digest iff their trainable
    /// state is bit-identical; the crash-and-recover proof rests on it.
    pub fn state_digest(&self) -> u64 {
        let mut bytes = self.dense_snapshot();
        for (&group, table) in self.table_order.iter().zip(&self.tables) {
            let mut e = picasso_ckpt::Encoder::new();
            e.u64(group as u64);
            for id in table.materialized_ids() {
                e.u64(id);
                e.f32_slice(table.peek(id).expect("materialized"));
            }
            bytes.extend_from_slice(&e.finish());
        }
        picasso_ckpt::fnv1a64(&bytes)
    }
}

/// Forward bookkeeping for backward, flat over the batch: entry
/// `k = i * n_tables + ti` is instance `i`'s table `ti`.
struct ForwardState {
    /// Every instance's IDs, table by table, each table's fields in spec
    /// order; entry `k` owns `ids[spans[k]..spans[k + 1]]`.
    ids: Vec<u64>,
    /// Offsets into `ids`, `batch * n_tables + 1` of them.
    spans: Vec<usize>,
    /// The pooling weight of each entry of `ids`.
    weights: Vec<f32>,
    /// The pooled vector of each entry.
    pooled: Vec<[f32; EMB_DIM]>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use picasso_data::{BatchGenerator, FieldSpec, IdDistribution};
    use std::sync::Arc;

    fn tiny_data(with_seq: bool) -> Arc<DatasetSpec> {
        let dist = IdDistribution::Zipf { s: 1.1 };
        let mut fields = vec![
            FieldSpec::one_hot("a", 500, EMB_DIM, dist, 0),
            FieldSpec::one_hot("b", 500, EMB_DIM, dist, 1),
            FieldSpec::one_hot("c", 500, EMB_DIM, dist, 2),
        ];
        if with_seq {
            fields.push(FieldSpec::one_hot("seq", 500, EMB_DIM, dist, 3).with_avg_ids(10.0));
        }
        DatasetSpec {
            name: "tiny".into(),
            numeric: 2,
            fields,
            instances: None,
        }
        .shared()
    }

    fn train_steps(variant: Variant, with_seq: bool, steps: usize) -> (f64, f64) {
        let data = tiny_data(with_seq);
        let mut gen = BatchGenerator::new(Arc::clone(&data), 77);
        let eval = gen.next_batch(512);
        let mut model = CtrModel::new(&data, variant, 0.1, 5);
        let before = crate::metrics::auc(&model.predict(&eval, &data), &eval.labels);
        let mut last_loss = f64::INFINITY;
        for _ in 0..steps {
            let b = gen.next_batch(128);
            let (stats, grads) = model.step(&b, &data);
            model.apply(&grads);
            last_loss = stats.loss;
        }
        let after = crate::metrics::auc(&model.predict(&eval, &data), &eval.labels);
        assert!(last_loss.is_finite());
        (before, after)
    }

    #[test]
    fn deep_model_learns() {
        let (before, after) = train_steps(Variant::Deep, false, 150);
        assert!(
            after > before + 0.05 && after > 0.6,
            "AUC should improve: {before:.3} -> {after:.3}"
        );
    }

    #[test]
    fn dot_model_learns() {
        let (_, after) = train_steps(Variant::DotDeep, false, 60);
        assert!(after > 0.6, "AUC {after:.3}");
    }

    #[test]
    fn attention_model_learns_on_sequences() {
        let (_, after) = train_steps(Variant::Attention, true, 60);
        assert!(after > 0.6, "AUC {after:.3}");
    }

    #[test]
    fn evolution_model_learns_on_sequences() {
        let (_, after) = train_steps(Variant::Evolution, true, 60);
        assert!(after > 0.6, "AUC {after:.3}");
    }

    #[test]
    fn dense_snapshot_round_trips_bit_identically() {
        let data = tiny_data(false);
        let mut gen = BatchGenerator::new(Arc::clone(&data), 3);
        let mut model = CtrModel::new(&data, Variant::Deep, 0.1, 9);
        for _ in 0..5 {
            let b = gen.next_batch(64);
            let (_, g) = model.step(&b, &data);
            model.apply(&g);
        }
        let snap = model.dense_snapshot();
        let digest = model.state_digest();

        let mut other = CtrModel::new(&data, Variant::Deep, 0.1, 9);
        assert_ne!(other.state_digest(), digest, "trained state must differ");
        other.restore_dense(&snap).unwrap();
        for group in model.table_groups() {
            picasso_embedding::TableSnapshot::full(model.table(group).unwrap())
                .restore_full(other.table_mut(group).unwrap())
                .unwrap();
        }
        assert_eq!(other.state_digest(), digest, "restore reproduces every bit");
        assert_eq!(other.dense_snapshot(), snap);

        // Truncated payloads are rejected, leaving the model untouched.
        assert!(other.restore_dense(&snap[..snap.len() - 1]).is_err());
    }

    #[test]
    fn restore_dense_rejects_mismatched_shapes() {
        let data = tiny_data(false);
        let model = CtrModel::new(&data, Variant::Deep, 0.1, 1);
        // DotDeep has a wider input layer: its shard must not load.
        let mut other = CtrModel::new(&data, Variant::DotDeep, 0.1, 1);
        assert!(other.restore_dense(&model.dense_snapshot()).is_err());
    }

    #[test]
    fn input_width_accounts_for_dots_and_dense() {
        let data = tiny_data(false);
        let deep = CtrModel::new(&data, Variant::Deep, 0.1, 1);
        let dot = CtrModel::new(&data, Variant::DotDeep, 0.1, 1);
        assert_eq!(deep.input_width(), 3 * EMB_DIM + 2);
        assert_eq!(dot.input_width(), 3 * EMB_DIM + 3 + 2);
    }
}
