//! Dirty-set and shard-bytes oracle of `EmbeddingTable`.
//!
//! Random sequences of every operation that reads, writes, cleans or
//! restores a table must leave `dirty_ids()` and `dirty_count()` equal to a
//! `BTreeSet` model of the dirty IDs, and the IDs of `rows_by_id()` equal to a
//! second one of the materialized IDs. After every operation, the shard
//! bytes checkpoint capture writes straight from the arena
//! (`TableSnapshot::encode_full` / `encode_dirty`) must equal
//! `TableSnapshot::full` / `dirty(..).encode()`, and decode back to the
//! table's rows: every materialized row for the full shard, the dirty rows
//! for the delta, ascending by ID. IDs are drawn from a small pool so that
//! operations collide, and a fifth of them sit near `u64::MAX` so that slot
//! order and ID order disagree.

use picasso_embedding::{EmbeddingTable, TableSnapshot};
use proptest::prelude::*;
use std::collections::BTreeSet;

const DIM: usize = 3;

/// One table operation.
#[derive(Debug, Clone)]
enum Op {
    Row(u64),
    /// A batch's row lookups, one `slot` per ID, as the trainer's gather
    /// does them.
    Gather(Vec<u64>),
    Put(u64, f32),
    Gradient(u64, f32),
    /// A batch's gradient steps, one `apply_gradient_at` per ID through
    /// the slot its lookup resolved, as the trainer's apply does them.
    Scatter(Vec<u64>, f32),
    MarkClean,
    ClearRows,
    /// Decodes the table's arena-direct full (or dirty) shard into the
    /// snapshot later restores use.
    Stash {
        dirty_only: bool,
    },
    RestoreFull,
    Apply,
    /// Restores a snapshot of another dim, which must fail and change
    /// nothing.
    WrongDim,
}

fn id_of(raw: u64) -> u64 {
    if raw.is_multiple_of(5) {
        u64::MAX - raw
    } else {
        raw
    }
}

fn op() -> impl Strategy<Value = Op> {
    (
        0usize..11,
        proptest::collection::vec(0u64..40, 1..6),
        -1.0f32..1.0,
    )
        .prop_map(|(kind, raw, x)| {
            let ids: Vec<u64> = raw.into_iter().map(id_of).collect();
            match kind {
                0 => Op::Row(ids[0]),
                1 => Op::Gather(ids),
                2 => Op::Put(ids[0], x),
                3 => Op::Gradient(ids[0], x),
                4 => Op::Scatter(ids, x),
                5 => Op::MarkClean,
                6 => Op::ClearRows,
                7 => Op::Stash {
                    dirty_only: x < 0.0,
                },
                8 => Op::RestoreFull,
                9 => Op::Apply,
                _ => Op::WrongDim,
            }
        })
}

/// The shard bytes agree with the snapshot path and decode to `ids`' rows.
fn check_shard(
    table: &EmbeddingTable,
    bytes: &[u8],
    reference: &TableSnapshot,
    ids: &BTreeSet<u64>,
) {
    prop_assert_eq!(bytes, &reference.encode()[..]);
    let back = TableSnapshot::decode(bytes).expect("arena-direct bytes decode");
    prop_assert_eq!(back.dim as usize, DIM);
    prop_assert_eq!(
        back.rows.iter().map(|(id, _)| *id).collect::<Vec<u64>>(),
        ids.iter().copied().collect::<Vec<u64>>()
    );
    for (id, row) in &back.rows {
        prop_assert_eq!(&row[..], table.peek(*id).expect("materialized"));
    }
}

proptest! {
    #[test]
    fn dirty_set_and_shard_bytes_match_the_model(
        ops in proptest::collection::vec(op(), 1..40),
        seed in 0u64..50,
    ) {
        let mut table = EmbeddingTable::new(DIM, seed);
        let mut present: BTreeSet<u64> = BTreeSet::new();
        let mut dirty: BTreeSet<u64> = BTreeSet::new();
        let mut stash = TableSnapshot { dim: DIM as u32, rows: Vec::new() };
        for op in &ops {
            match op {
                Op::Row(id) => {
                    table.slot(*id);
                    if present.insert(*id) {
                        dirty.insert(*id);
                    }
                }
                Op::Gather(ids) => {
                    for id in ids {
                        let slot = table.slot(*id);
                        prop_assert_eq!(table.row_at(slot).len(), DIM);
                        if present.insert(*id) {
                            dirty.insert(*id);
                        }
                    }
                }
                Op::Put(id, x) => {
                    table.put(*id, &[*x; DIM]);
                    present.insert(*id);
                    dirty.insert(*id);
                }
                Op::Gradient(id, x) => {
                    let slot = table.slot(*id);
                    table.apply_gradient_at(slot, *id, &[*x; DIM], 0.1);
                    present.insert(*id);
                    dirty.insert(*id);
                }
                Op::Scatter(ids, x) => {
                    let grads: Vec<f32> = (0..ids.len() * DIM).map(|j| x * j as f32).collect();
                    let slots: Vec<u32> = ids.iter().map(|&id| table.slot(id)).collect();
                    for ((&id, &slot), grad) in ids.iter().zip(&slots).zip(grads.chunks(DIM)) {
                        table.apply_gradient_at(slot, id, grad, 0.05);
                    }
                    present.extend(ids);
                    dirty.extend(ids);
                }
                Op::MarkClean => {
                    table.mark_clean();
                    dirty.clear();
                }
                Op::ClearRows => {
                    table.clear_rows();
                    present.clear();
                    dirty.clear();
                }
                Op::Stash { dirty_only } => {
                    let bytes = if *dirty_only {
                        TableSnapshot::encode_dirty(&table)
                    } else {
                        TableSnapshot::encode_full(&table)
                    };
                    stash = TableSnapshot::decode(&bytes).expect("arena-direct bytes decode");
                }
                Op::RestoreFull => {
                    stash.restore_full(&mut table).expect("same dim");
                    prop_assert_eq!(&TableSnapshot::full(&table), &stash);
                    present = stash.rows.iter().map(|(id, _)| *id).collect();
                    dirty.clear();
                }
                Op::Apply => {
                    stash.apply(&mut table).expect("same dim");
                    present.extend(stash.rows.iter().map(|(id, _)| *id));
                    dirty.clear();
                }
                Op::WrongDim => {
                    let wide = TableSnapshot { dim: DIM as u32 + 1, rows: Vec::new() };
                    let before = TableSnapshot::full(&table);
                    prop_assert!(wide.restore_full(&mut table).is_err());
                    prop_assert!(wide.apply(&mut table).is_err());
                    prop_assert_eq!(&TableSnapshot::full(&table), &before);
                }
            }
            prop_assert_eq!(
                table.dirty_ids().collect::<Vec<u64>>(),
                dirty.iter().copied().collect::<Vec<u64>>(),
                "after {:?}", op
            );
            prop_assert_eq!(table.dirty_count(), dirty.len());
            prop_assert_eq!(
                table.rows_by_id().map(|(id, _)| id).collect::<Vec<u64>>(),
                present.iter().copied().collect::<Vec<u64>>()
            );
            let full = TableSnapshot::encode_full(&table);
            check_shard(&table, &full, &TableSnapshot::full(&table), &present);
            let delta = TableSnapshot::encode_dirty(&table);
            check_shard(&table, &delta, &TableSnapshot::dirty(&table), &dirty);
        }
    }
}
