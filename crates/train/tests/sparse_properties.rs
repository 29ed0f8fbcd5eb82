//! Bit-exact oracle of the trainer's sparse path.
//!
//! `CtrModel::step` resolves each ID occurrence to its row's arena slot once,
//! in the forward gather, pools rows by slot, coalesces the gradients per
//! slot through a reusable index, and `apply` steps each row through the
//! slot its gather resolved. This file checks that path against a plain
//! test-side reference that does none of that: it keeps each table's rows
//! in a `HashMap` from ID to row, gathers and pools each instance's IDs
//! afresh, and coalesces gradients per `(table, id)` by a linear search in
//! first-occurrence order, summing every occurrence's contribution in
//! (instance, table, position) order. The dense layers and optimizers are
//! the crate's own `Linear` and `Adagrad` (the kernel oracle checks the
//! products), starting from the model's decoded dense shard.
//!
//! Specs are random: one to four fields over up to three tables, one-hot
//! and multi-hot, vocabularies of 1 to 12 so IDs repeat within and across
//! instances, 0 to 2 dense features, every variant, and gradients applied
//! at once or up to two steps late. After every step the loss bits must
//! match, and after the last apply every dense byte and every row of every
//! table, with the same set of materialized rows.

use picasso_ckpt::{Decoder, Encoder};
use picasso_data::{Batch, BatchGenerator, DatasetSpec, FieldSpec, IdDistribution};
use picasso_embedding::EmbeddingTable;
use picasso_train::{bce_with_logits, Adagrad, CtrModel, Linear, Matrix, Variant, EMB_DIM};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

const VARIANTS: [Variant; 4] = [
    Variant::Deep,
    Variant::DotDeep,
    Variant::Attention,
    Variant::Evolution,
];

/// One table of the reference: its fields in spec order, whether it is a
/// sequence, and its rows by ID.
struct RefTable {
    group: usize,
    fields: Vec<usize>,
    seq: bool,
    /// A table with the model's seed that nothing steps: the source of
    /// each row's initial value.
    init: EmbeddingTable,
    rows: HashMap<u64, [f32; EMB_DIM]>,
}

impl RefTable {
    /// `id`'s row, materialized from `init` on first access.
    fn row(&mut self, id: u64) -> [f32; EMB_DIM] {
        let init = &mut self.init;
        *self.rows.entry(id).or_insert_with(|| {
            let slot = init.slot(id);
            let mut row = [0.0; EMB_DIM];
            row.copy_from_slice(init.row_at(slot));
            row
        })
    }
}

/// One step's gradients in the reference.
struct RefGrads {
    dw1: Matrix,
    db1: Vec<f32>,
    dw2: Matrix,
    db2: Vec<f32>,
    /// `((table index, id), gradient)` in first-occurrence order.
    sparse: Vec<((usize, u64), [f32; EMB_DIM])>,
}

/// The reference trainer.
struct Reference {
    variant: Variant,
    tables: Vec<RefTable>,
    target: usize,
    numeric: usize,
    width: usize,
    l1: Linear,
    l2: Linear,
    opt1: Adagrad,
    opt2: Adagrad,
    lr: f32,
}

/// Decodes one `rows x cols` matrix and a bias from a dense shard.
fn decode_layer(d: &mut Decoder<'_>) -> (Matrix, Vec<f32>) {
    let rows = d.u64().unwrap() as usize;
    let cols = d.u64().unwrap() as usize;
    let w = Matrix::from_vec(rows, cols, d.f32_slice().unwrap());
    (w, d.f32_slice().unwrap())
}

impl Reference {
    /// A reference with `model`'s initial state (`model` must be fresh).
    fn new(data: &DatasetSpec, variant: Variant, lr: f32, model: &CtrModel) -> Reference {
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (fi, f) in data.fields.iter().enumerate() {
            groups.entry(f.table_group).or_default().push(fi);
        }
        let tables: Vec<RefTable> = groups
            .into_iter()
            .map(|(group, fields)| RefTable {
                group,
                seq: fields.len() > 1 || fields.iter().any(|&fi| data.fields[fi].avg_ids > 1.5),
                fields,
                init: model.table(group).unwrap().clone(),
                rows: HashMap::new(),
            })
            .collect();
        let snap = model.dense_snapshot();
        let mut d = Decoder::new(&snap);
        let layers: Vec<(Matrix, Vec<f32>)> = (0..4).map(|_| decode_layer(&mut d)).collect();
        d.finish().unwrap();
        let linear = |(w, b): &(Matrix, Vec<f32>), relu: bool| {
            let mut l = Linear::new(w.rows(), w.cols(), relu, 0);
            l.w = w.clone();
            l.b = b.clone();
            l
        };
        let adagrad = |(acc_w, acc_b): &(Matrix, Vec<f32>)| {
            let mut o = Adagrad::new(acc_w.rows(), acc_w.cols(), lr);
            o.restore_acc(acc_w.clone(), acc_b.clone());
            o
        };
        Reference {
            variant,
            target: tables.iter().position(|t| !t.seq).unwrap_or(0),
            numeric: data.numeric,
            width: layers[0].0.rows(),
            l1: linear(&layers[0], true),
            l2: linear(&layers[1], false),
            opt1: adagrad(&layers[2]),
            opt2: adagrad(&layers[3]),
            tables,
            lr,
        }
    }

    /// Pools one instance's rows of table `ti` (`rows`, in gather order)
    /// and returns the pooled vector and each row's pooling weight: the
    /// model's attention, or uniform when not attending.
    fn pool(
        &self,
        ti: usize,
        rows: &[[f32; EMB_DIM]],
        target: Option<&[f32; EMB_DIM]>,
    ) -> ([f32; EMB_DIM], Vec<f32>) {
        let mut out = [0.0f32; EMB_DIM];
        if rows.is_empty() {
            return (out, Vec::new());
        }
        let attend = matches!(self.variant, Variant::Attention | Variant::Evolution)
            && self.tables[ti].seq
            && rows.len() > 1;
        let mut weights = vec![0.0f32; rows.len()];
        match target {
            Some(tgt) if attend => {
                let scale = 1.0 / (EMB_DIM as f32).sqrt();
                for (i, (s, r)) in weights.iter_mut().zip(rows).enumerate() {
                    let dot: f32 = r.iter().zip(tgt).map(|(a, b)| a * b).sum();
                    let prior = if self.variant == Variant::Evolution {
                        0.1 * (i as f32 - rows.len() as f32 + 1.0)
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
            _ => weights.fill(1.0 / rows.len() as f32),
        }
        for (r, &w) in rows.iter().zip(&weights) {
            for (o, &v) in out.iter_mut().zip(r) {
                *o += w * v;
            }
        }
        (out, weights)
    }

    /// One step: the loss and the gradients.
    fn step(&mut self, batch: &Batch) -> (f64, RefGrads) {
        let n = self.tables.len();
        let mut x = Matrix::zeros(batch.size, self.width);
        // Per instance and table (in table order): each occurrence's ID
        // and pooling weight, and the pooled vector.
        let mut occurrences: Vec<Vec<Vec<(u64, f32)>>> = Vec::new();
        let mut pooled_all: Vec<Vec<[f32; EMB_DIM]>> = Vec::new();
        for i in 0..batch.size {
            let mut pooled = vec![[0.0f32; EMB_DIM]; n];
            let mut occ = vec![Vec::new(); n];
            let order = std::iter::once(self.target).chain((0..n).filter(|&t| t != self.target));
            for ti in order {
                let ids: Vec<u64> = self.tables[ti]
                    .fields
                    .iter()
                    .flat_map(|&fi| batch.fields[fi].instance(i).iter().copied())
                    .collect();
                let rows: Vec<[f32; EMB_DIM]> =
                    ids.iter().map(|&id| self.tables[ti].row(id)).collect();
                let tgt = (ti != self.target).then_some(pooled[self.target]);
                let (p, weights) = self.pool(ti, &rows, tgt.as_ref());
                pooled[ti] = p;
                occ[ti] = ids.into_iter().zip(weights).collect();
            }
            let xrow = x.row_mut(i);
            for (ti, p) in pooled.iter().enumerate() {
                xrow[ti * EMB_DIM..(ti + 1) * EMB_DIM].copy_from_slice(p);
            }
            let mut c = n * EMB_DIM;
            if self.variant == Variant::DotDeep {
                for a in 0..n {
                    for b in (a + 1)..n {
                        xrow[c] = pooled[a].iter().zip(&pooled[b]).map(|(x, y)| x * y).sum();
                        c += 1;
                    }
                }
            }
            xrow[c..].copy_from_slice(&batch.dense[i * self.numeric..(i + 1) * self.numeric]);
            occurrences.push(occ);
            pooled_all.push(pooled);
        }

        let h = self.l1.forward(x);
        let z = self.l2.forward(h);
        let (loss, dz) = bce_with_logits(&z, &batch.labels);
        let (mut dw2, mut db2) = self.l2.grad_buffers();
        let dh = self.l2.backward(dz, &mut dw2, &mut db2);
        let (mut dw1, mut db1) = self.l1.grad_buffers();
        let dx = self.l1.backward(dh, &mut dw1, &mut db1);

        let mut sparse: Vec<((usize, u64), [f32; EMB_DIM])> = Vec::new();
        for (i, (occ, pooled)) in occurrences.iter().zip(&pooled_all).enumerate() {
            let xrow = dx.row(i);
            let mut dpooled: Vec<[f32; EMB_DIM]> = (0..n)
                .map(|ti| {
                    let mut dp = [0.0; EMB_DIM];
                    dp.copy_from_slice(&xrow[ti * EMB_DIM..(ti + 1) * EMB_DIM]);
                    dp
                })
                .collect();
            if self.variant == Variant::DotDeep {
                let mut c = n * EMB_DIM;
                for a in 0..n {
                    for b in (a + 1)..n {
                        let g = xrow[c];
                        for j in 0..EMB_DIM {
                            dpooled[a][j] += g * pooled[b][j];
                            dpooled[b][j] += g * pooled[a][j];
                        }
                        c += 1;
                    }
                }
            }
            for (ti, dp) in dpooled.iter().enumerate() {
                for &(id, weight) in &occ[ti] {
                    let at = match sparse.iter().position(|(key, _)| *key == (ti, id)) {
                        Some(at) => at,
                        None => {
                            sparse.push(((ti, id), [0.0; EMB_DIM]));
                            sparse.len() - 1
                        }
                    };
                    for (e, &d) in sparse[at].1.iter_mut().zip(dp) {
                        *e += weight * d;
                    }
                }
            }
        }
        let grads = RefGrads {
            dw1,
            db1,
            dw2,
            db2,
            sparse,
        };
        (loss, grads)
    }

    fn apply(&mut self, g: &RefGrads) {
        self.opt1
            .step(&mut self.l1.w, &mut self.l1.b, &g.dw1, &g.db1);
        self.opt2
            .step(&mut self.l2.w, &mut self.l2.b, &g.dw2, &g.db2);
        for ((ti, id), grad) in &g.sparse {
            let row = self.tables[*ti].rows.get_mut(id).unwrap();
            for (w, g) in row.iter_mut().zip(grad) {
                *w -= self.lr * g;
            }
        }
    }

    /// The dense shard `CtrModel::dense_snapshot` would write.
    fn dense_snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        let parts = [
            (&self.l1.w, &self.l1.b[..]),
            (&self.l2.w, &self.l2.b[..]),
            (self.opt1.acc_w(), self.opt1.acc_b()),
            (self.opt2.acc_w(), self.opt2.acc_b()),
        ];
        for (w, b) in parts {
            e.u64(w.rows() as u64);
            e.u64(w.cols() as u64);
            e.f32_slice(w.as_slice());
            e.f32_slice(b);
        }
        e.finish()
    }
}

/// Row bits by ID, ascending.
fn row_bits<'a>(rows: impl Iterator<Item = (u64, &'a [f32])>) -> Vec<(u64, Vec<u32>)> {
    let mut out: Vec<(u64, Vec<u32>)> = rows
        .map(|(id, r)| (id, r.iter().map(|v| v.to_bits()).collect()))
        .collect();
    out.sort_by_key(|(id, _)| *id);
    out
}

/// One random field: `(table group, vocabulary, multi-hot length or 0,
/// Zipf exponent or 0 for uniform)`.
type FieldDraw = (usize, u64, usize, f64);

fn spec(fields: &[FieldDraw], numeric: usize) -> Arc<DatasetSpec> {
    DatasetSpec {
        name: "sparse-oracle".into(),
        numeric,
        fields: fields
            .iter()
            .enumerate()
            .map(|(i, &(group, vocab, avg, s))| {
                let dist = if s < 0.3 {
                    IdDistribution::Uniform
                } else {
                    IdDistribution::Zipf { s }
                };
                let f = FieldSpec::one_hot(format!("f{i}"), vocab, EMB_DIM, dist, group);
                if avg > 0 {
                    f.with_avg_ids(avg as f64)
                } else {
                    f
                }
            })
            .collect(),
        instances: None,
    }
    .shared()
}

proptest! {
    #[test]
    fn step_and_apply_match_the_reference_bit_for_bit(
        fields in proptest::collection::vec((0usize..3, 1u64..13, 0usize..5, 0.0f64..1.6), 1..5),
        numeric in 0usize..3,
        variant in 0usize..4,
        shape in (1usize..10, 1usize..5, 0usize..3),
        seed in 0u64..1_000_000,
    ) {
        let (batch, steps, staleness) = shape;
        let data = spec(&fields, numeric);
        let variant = VARIANTS[variant];
        let lr = 0.3;
        let mut model = CtrModel::new(&data, variant, lr, seed);
        let mut reference = Reference::new(&data, variant, lr, &model);
        let mut gen = BatchGenerator::new(Arc::clone(&data), seed ^ 0x5eed);
        let mut queue = VecDeque::new();
        for step in 0..steps {
            let b = gen.next_batch(batch);
            let (stats, grads) = model.step(&b, &data);
            let (loss, want) = reference.step(&b);
            prop_assert_eq!(stats.loss.to_bits(), loss.to_bits(), "step {} loss", step);
            queue.push_back((grads, want));
            if queue.len() > staleness {
                let (grads, want) = queue.pop_front().unwrap();
                model.apply(&grads);
                reference.apply(&want);
            }
        }
        for (grads, want) in queue.drain(..) {
            model.apply(&grads);
            reference.apply(&want);
        }
        prop_assert_eq!(model.dense_snapshot(), reference.dense_snapshot());
        for t in &reference.tables {
            let table = model.table(t.group).unwrap();
            prop_assert_eq!(
                row_bits(table.rows_by_id()),
                row_bits(t.rows.iter().map(|(&id, r)| (id, &r[..]))),
                "table {}", t.group
            );
        }
    }
}
