//! Trainable CTR models with manual backpropagation.
//!
//! Small but real versions of the Table III models: embeddings pooled per
//! table, an interaction stage (plain concat, pairwise dots, or target
//! attention), and a two-layer MLP head. Everything trains end to end —
//! embedding rows included — so measured AUC reflects genuine learning.

use crate::nn::{bce_with_logits, predict, Linear};
use crate::optimizer::Adagrad;
use crate::tensor::Matrix;
use picasso_ckpt::{CodecError, Decoder, Encoder, Fnv1a};
use picasso_data::{Batch, DatasetSpec};
use picasso_embedding::EmbeddingTable;
use std::collections::BTreeMap;

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

/// An empty entry of [`CtrModel`]'s slot→gradient index.
const NO_GRAD: u32 = u32::MAX;

/// A trainable CTR model over a dataset's tables.
#[derive(Debug)]
pub struct CtrModel {
    variant: Variant,
    /// One embedding table per table group, in `table_order`.
    tables: Vec<EmbeddingTable>,
    /// Table ids in order (the feature layout).
    table_order: Vec<usize>,
    /// Each table's fields in spec order, in `table_order`.
    table_fields: Vec<Vec<usize>>,
    /// Which tables are sequences (attention-pooled under
    /// Attention/Evolution), in `table_order`.
    is_seq: Vec<bool>,
    /// The table the others attend to: the first non-sequence one.
    target: usize,
    l1: Linear,
    l2: Linear,
    opt1: Adagrad,
    opt2: Adagrad,
    emb_lr: f32,
    input_width: usize,
    /// The last forward pass's bookkeeping, its buffers reused step to
    /// step.
    fwd: ForwardState,
    /// Per table, the index into a step's sparse gradients of the row in
    /// each arena slot, or [`NO_GRAD`]. Every entry is `NO_GRAD` between
    /// steps.
    grad_index: Vec<Vec<u32>>,
    /// Backward working buffer: the gradient of each table's pooled
    /// vector for one instance.
    dpooled: Vec<[f32; EMB_DIM]>,
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
    /// in first-occurrence order.
    sparse: Vec<SparseGrad>,
}

/// The gradient of one embedding row over a batch.
#[derive(Debug)]
struct SparseGrad {
    /// Table index (position in `table_order`).
    table: usize,
    /// The row's arena slot, resolved by the forward gather.
    slot: u32,
    /// The row's ID, which `slot` must still hold when the gradient lands.
    id: u64,
    grad: [f32; EMB_DIM],
}

impl CtrModel {
    /// Builds a model for `data` (tables of `data` are embedded at
    /// [`EMB_DIM`] regardless of the spec's logical dims).
    pub fn new(data: &DatasetSpec, variant: Variant, lr: f32, seed: u64) -> CtrModel {
        // Per table group: its fields in spec order, and whether one is
        // multi-hot.
        let mut groups: BTreeMap<usize, (Vec<usize>, bool)> = BTreeMap::new();
        for (fi, f) in data.fields.iter().enumerate() {
            let (fields, multi_hot) = groups.entry(f.table_group).or_default();
            fields.push(fi);
            *multi_hot |= f.avg_ids > 1.5;
        }
        let table_order: Vec<usize> = groups.keys().copied().collect();
        let tables = table_order
            .iter()
            .map(|&t| EmbeddingTable::new(EMB_DIM, seed ^ t as u64))
            .collect();
        let is_seq: Vec<bool> = groups
            .values()
            .map(|(fields, multi_hot)| fields.len() > 1 || *multi_hot)
            .collect();
        let table_fields = groups.into_values().map(|(fields, _)| fields).collect();
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
            table_fields,
            target: is_seq.iter().position(|&s| !s).unwrap_or(0),
            is_seq,
            l1: Linear::new(input_width, hidden, true, seed ^ 0xAA),
            l2: Linear::new(hidden, 1, false, seed ^ 0xBB),
            opt1: Adagrad::new(input_width, hidden, lr),
            opt2: Adagrad::new(hidden, 1, lr),
            emb_lr: lr,
            input_width,
            fwd: ForwardState::default(),
            grad_index: vec![Vec::new(); n],
            dpooled: vec![[0.0; EMB_DIM]; n],
        }
    }

    /// Pools the rows in `slots` of table `ti` into the returned vector and
    /// writes each row's pooling weight into `weights` (attention weights,
    /// or uniform when not attending).
    fn pool(
        &self,
        ti: usize,
        slots: &[u32],
        target: Option<&[f32; EMB_DIM]>,
        weights: &mut [f32],
    ) -> [f32; EMB_DIM] {
        let mut out = [0.0f32; EMB_DIM];
        if slots.is_empty() {
            return out;
        }
        let attend = matches!(self.variant, Variant::Attention | Variant::Evolution)
            && self.is_seq[ti]
            && slots.len() > 1;
        let t = &self.tables[ti];
        match target {
            Some(tgt) if attend => {
                let scale = 1.0 / (EMB_DIM as f32).sqrt();
                let recency = matches!(self.variant, Variant::Evolution);
                for (i, (s, &slot)) in weights.iter_mut().zip(slots).enumerate() {
                    let dot: f32 = t.row_at(slot).iter().zip(tgt).map(|(a, b)| a * b).sum();
                    let prior = if recency {
                        // Later positions (more recent behaviour) weigh more.
                        0.1 * (i as f32 - slots.len() as f32 + 1.0)
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
            _ => weights.fill(1.0 / slots.len() as f32),
        }
        // Rows are `EMB_DIM` long; saying so lets the compiler add the
        // lanes side by side (each lane's sum keeps its order).
        for (&slot, &w) in slots.iter().zip(weights.iter()) {
            for (o, &v) in out.iter_mut().zip(&t.row_at(slot)[..EMB_DIM]) {
                *o += w * v;
            }
        }
        out
    }

    /// Forward pass over a batch: gathers and pools the embeddings into
    /// the MLP input and returns the logits, leaving the pooling
    /// bookkeeping in `self.fwd` for backward.
    fn forward(&mut self, batch: &Batch, data: &DatasetSpec) -> Matrix {
        let n_tables = self.tables.len();
        let mut fwd = std::mem::take(&mut self.fwd);
        fwd.clear();
        // The gather: each ID occurrence resolves to its row's arena slot
        // once, instance by instance and table by table, so each table
        // materializes its rows in first-occurrence order.
        fwd.spans.push(0);
        for i in 0..batch.size {
            for (fields, table) in self.table_fields.iter().zip(&mut self.tables) {
                for &fi in fields {
                    for &id in batch.fields[fi].instance(i) {
                        fwd.ids.push(id);
                        fwd.slots.push(table.slot(id));
                    }
                }
                fwd.spans.push(fwd.ids.len());
            }
        }
        fwd.weights.resize(fwd.ids.len(), 0.0);
        fwd.pooled.resize(batch.size * n_tables, [0.0; EMB_DIM]);
        // The MLP input reuses the buffer the first layer kept.
        let mut x = self.l1.take_input();
        x.reset(batch.size, self.input_width);
        let target = self.target;

        for i in 0..batch.size {
            let k = i * n_tables;
            // Pool the target table first; the others attend to it.
            let others = (0..n_tables).filter(|&ti| ti != target);
            for ti in std::iter::once(target).chain(others) {
                let span = fwd.spans[k + ti]..fwd.spans[k + ti + 1];
                let tgt = (ti != target).then(|| fwd.pooled[k + target]);
                let (slots, weights) = (&fwd.slots[span.clone()], &mut fwd.weights[span]);
                fwd.pooled[k + ti] = self.pool(ti, slots, tgt.as_ref(), weights);
            }
            let xrow = x.row_mut(i);
            for (ti, p) in fwd.pooled[k..k + n_tables].iter().enumerate() {
                xrow[ti * EMB_DIM..(ti + 1) * EMB_DIM].copy_from_slice(p);
            }
            // Pairwise dots.
            if self.variant == Variant::DotDeep {
                let mut c = n_tables * EMB_DIM;
                for a in 0..n_tables {
                    for b in (a + 1)..n_tables {
                        let (pa, pb) = (&fwd.pooled[k + a], &fwd.pooled[k + b]);
                        xrow[c] = pa.iter().zip(pb).map(|(x, y)| x * y).sum();
                        c += 1;
                    }
                }
            }
            // Dense features.
            let base = self.input_width - data.numeric;
            xrow[base..].copy_from_slice(&batch.dense[i * data.numeric..(i + 1) * data.numeric]);
        }
        self.fwd = fwd;

        let h = self.l1.forward(x);
        self.l2.forward(h)
    }

    /// One training step: forward, loss, backward; returns the loss and the
    /// gradients (application is the caller's choice — immediate for
    /// synchronous training, delayed for async PS).
    pub fn step(&mut self, batch: &Batch, data: &DatasetSpec) -> (StepStats, DenseGrads) {
        let z = self.forward(batch, data);
        let (loss, dz) = bce_with_logits(&z, &batch.labels);

        let (mut dw2, mut db2) = self.l2.grad_buffers();
        let dh = self.l2.backward(dz, &mut dw2, &mut db2);
        let (mut dw1, mut db1) = self.l1.grad_buffers();
        let dx = self.l1.backward(dh, &mut dw1, &mut db1);

        let sparse = self.embedding_grads(&dx);
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

    /// Applies a (possibly stale) gradient. Each sparse gradient lands on
    /// the arena slot its step's gather resolved.
    ///
    /// # Panics
    /// If a table's rows were replaced (a restore) since the step that
    /// computed `g`, so that a slot no longer holds its row.
    pub fn apply(&mut self, g: &DenseGrads) {
        self.opt1
            .step(&mut self.l1.w, &mut self.l1.b, &g.dw1, &g.db1);
        self.opt2
            .step(&mut self.l2.w, &mut self.l2.b, &g.dw2, &g.db2);
        for s in &g.sparse {
            self.tables[s.table].apply_gradient_at(s.slot, s.id, &s.grad, self.emb_lr);
        }
    }

    /// Scores a batch (no caching of state).
    pub fn predict(&mut self, batch: &Batch, data: &DatasetSpec) -> Vec<f64> {
        predict(&self.forward(batch, data))
    }

    /// Propagates `dx` (gradient of the MLP input) back into per-row
    /// embedding gradients, through the pooling weights and pairwise dots,
    /// coalesced per `(table index, slot)` in first-occurrence order: each
    /// row's contributions are summed in (instance, table, position)
    /// order. Attention weights are treated as constants (a
    /// straight-through approximation documented in DESIGN.md).
    fn embedding_grads(&mut self, dx: &Matrix) -> Vec<SparseGrad> {
        let n_tables = self.tables.len();
        let fwd = &self.fwd;
        for (index, table) in self.grad_index.iter_mut().zip(&self.tables) {
            index.resize(table.len(), NO_GRAD);
        }
        let mut grads: Vec<SparseGrad> = Vec::new();
        for i in 0..dx.rows() {
            let k = i * n_tables;
            // Gradient w.r.t. each pooled vector: direct slice + dot terms.
            let xrow = dx.row(i);
            for (ti, dp) in self.dpooled.iter_mut().enumerate() {
                dp.copy_from_slice(&xrow[ti * EMB_DIM..(ti + 1) * EMB_DIM]);
            }
            if self.variant == Variant::DotDeep {
                let mut c = n_tables * EMB_DIM;
                for a in 0..n_tables {
                    for b in (a + 1)..n_tables {
                        let g = xrow[c];
                        let (pa, pb) = (&fwd.pooled[k + a], &fwd.pooled[k + b]);
                        for j in 0..EMB_DIM {
                            self.dpooled[a][j] += g * pb[j];
                            self.dpooled[b][j] += g * pa[j];
                        }
                        c += 1;
                    }
                }
            }
            // Through the pooling weights to each row.
            for (ti, (dp, index)) in self.dpooled.iter().zip(&mut self.grad_index).enumerate() {
                let span = fwd.spans[k + ti]..fwd.spans[k + ti + 1];
                let occurrences = fwd.slots[span.clone()]
                    .iter()
                    .zip(&fwd.ids[span.clone()])
                    .zip(&fwd.weights[span]);
                for ((&slot, &id), &weight) in occurrences {
                    let at = &mut index[slot as usize];
                    if *at == NO_GRAD {
                        *at = grads.len() as u32;
                        grads.push(SparseGrad {
                            table: ti,
                            slot,
                            id,
                            grad: [0.0; EMB_DIM],
                        });
                    }
                    let e = &mut grads[*at as usize].grad;
                    for j in 0..EMB_DIM {
                        e[j] += weight * dp[j];
                    }
                }
            }
        }
        for g in &grads {
            self.grad_index[g.table][g.slot as usize] = NO_GRAD;
        }
        grads
    }
}

/// Where the model's state goes byte by byte: a checkpoint shard's
/// [`Encoder`], or the [`Fnv1a`] of [`CtrModel::state_digest`], which
/// hashes the same bytes without buffering them.
trait StateSink {
    fn u64(&mut self, v: u64);
    /// A length-prefixed `f32` slice, as [`Encoder::f32_slice`] writes it.
    fn f32_slice(&mut self, vs: &[f32]);
}

impl StateSink for Encoder {
    fn u64(&mut self, v: u64) {
        Encoder::u64(self, v);
    }

    fn f32_slice(&mut self, vs: &[f32]) {
        Encoder::f32_slice(self, vs);
    }
}

impl StateSink for Fnv1a {
    fn u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn f32_slice(&mut self, vs: &[f32]) {
        self.write(&(vs.len() as u64).to_le_bytes());
        for v in vs {
            self.write(&v.to_bits().to_le_bytes());
        }
    }
}

fn encode_matrix(e: &mut impl StateSink, m: &Matrix) {
    e.u64(m.rows() as u64);
    e.u64(m.cols() as u64);
    e.f32_slice(m.as_slice());
}

fn decode_matrix(
    d: &mut Decoder<'_>,
    want_rows: usize,
    want_cols: usize,
) -> Result<Matrix, CodecError> {
    let rows = d.u64()? as usize;
    let cols = d.u64()? as usize;
    if rows != want_rows || cols != want_cols {
        return Err(CodecError::Invalid(format!(
            "matrix shape {rows}x{cols}, model expects {want_rows}x{want_cols}"
        )));
    }
    let data = d.f32_slice()?;
    if data.len() != rows * cols {
        return Err(CodecError::Invalid(format!(
            "matrix payload {} values for {rows}x{cols}",
            data.len()
        )));
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

fn decode_bias(d: &mut Decoder<'_>, want: usize) -> Result<Vec<f32>, CodecError> {
    let b = d.f32_slice()?;
    if b.len() != want {
        return Err(CodecError::Invalid(format!(
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
        let mut e = Encoder::new();
        self.write_dense(&mut e);
        e.finish()
    }

    /// Writes the dense shard's bytes: each layer's weights and bias, then
    /// each optimizer's accumulators.
    fn write_dense(&self, e: &mut impl StateSink) {
        let parts = [
            (&self.l1.w, &self.l1.b[..]),
            (&self.l2.w, &self.l2.b[..]),
            (self.opt1.acc_w(), self.opt1.acc_b()),
            (self.opt2.acc_w(), self.opt2.acc_b()),
        ];
        for (w, b) in parts {
            encode_matrix(e, w);
            e.f32_slice(b);
        }
    }

    /// Restores dense parameters from [`CtrModel::dense_snapshot`] bytes.
    /// Shapes are validated against the live model.
    pub fn restore_dense(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut d = Decoder::new(bytes);
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
    ///
    /// The hashed bytes are the dense shard's, then per table its group
    /// and each row's ID and length-prefixed values, ascending by ID; they
    /// stream through the hash as they are read.
    pub fn state_digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        self.write_dense(&mut h);
        for (&group, table) in self.table_order.iter().zip(&self.tables) {
            h.u64(group as u64);
            for (id, row) in table.rows_by_id() {
                h.u64(id);
                h.f32_slice(row);
            }
        }
        h.finish()
    }
}

/// Forward bookkeeping for backward, flat over the batch: entry
/// `k = i * n_tables + ti` is instance `i`'s table `ti`.
#[derive(Debug, Default)]
struct ForwardState {
    /// Every instance's IDs, table by table, each table's fields in spec
    /// order; entry `k` owns `ids[spans[k]..spans[k + 1]]`.
    ids: Vec<u64>,
    /// The arena slot of each entry of `ids` in its table.
    slots: Vec<u32>,
    /// Offsets into `ids`, `batch * n_tables + 1` of them.
    spans: Vec<usize>,
    /// The pooling weight of each entry of `ids`.
    weights: Vec<f32>,
    /// The pooled vector of each entry.
    pooled: Vec<[f32; EMB_DIM]>,
}

impl ForwardState {
    /// Empties every buffer, keeping its allocation.
    fn clear(&mut self) {
        self.ids.clear();
        self.slots.clear();
        self.spans.clear();
        self.weights.clear();
        self.pooled.clear();
    }
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
        assert_eq!(deep.input_width, 3 * EMB_DIM + 2);
        assert_eq!(dot.input_width, 3 * EMB_DIM + 3 + 2);
    }
}
