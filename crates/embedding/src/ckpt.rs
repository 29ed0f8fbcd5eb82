//! Checkpoint serialization for embedding state.
//!
//! [`TableSnapshot`] holds rows of one [`EmbeddingTable`]. It encodes with
//! the `picasso-ckpt` codec — flat little-endian, rows sorted by ID — so the
//! same state always produces the same bytes and the crash-and-recover
//! proof can compare checkpoints bit for bit. Checkpoint capture writes
//! those bytes straight from the table's arena
//! ([`TableSnapshot::encode_full`], [`TableSnapshot::encode_dirty`]);
//! a `TableSnapshot` is what a shard decodes to and restores from.

use crate::table::EmbeddingTable;
use picasso_ckpt::{CodecError, Decoder, Encoder};

/// Rows of one embedding table, sorted by ID.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    /// Embedding dimension (shape check on restore).
    pub dim: u32,
    /// `(id, row)` pairs in ascending ID order.
    pub rows: Vec<(u64, Vec<f32>)>,
}

impl TableSnapshot {
    /// Captures the table's rows (dirty ones only when `dirty_only`),
    /// ascending by ID, read from the arena by slot.
    fn capture(table: &EmbeddingTable, dirty_only: bool) -> TableSnapshot {
        let arena = table.arena();
        let rows = table
            .sorted_rows(dirty_only)
            .into_iter()
            .map(|(id, slot)| (id, arena.row(slot).to_vec()))
            .collect();
        TableSnapshot {
            dim: table.dim() as u32,
            rows,
        }
    }

    /// Captures every materialized row of `table`.
    pub fn full(table: &EmbeddingTable) -> TableSnapshot {
        Self::capture(table, false)
    }

    /// Captures only rows dirtied since the table's last `mark_clean`.
    pub fn dirty(table: &EmbeddingTable) -> TableSnapshot {
        Self::capture(table, true)
    }

    /// Number of rows captured.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the snapshot holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Errors, leaving `table` untouched, when the snapshot's dim is not
    /// the table's: a checksum-valid shard of another model shape.
    fn check_dim(&self, table: &EmbeddingTable) -> Result<(), CodecError> {
        if self.dim as usize == table.dim() {
            Ok(())
        } else {
            Err(CodecError::Invalid(format!(
                "snapshot dim {} does not match table dim {}",
                self.dim,
                table.dim()
            )))
        }
    }

    /// Resets `table` to exactly this snapshot's rows; `table` ends clean.
    /// Errors without touching `table` on a dim mismatch.
    pub fn restore_full(&self, table: &mut EmbeddingTable) -> Result<(), CodecError> {
        self.check_dim(table)?;
        table.clear_rows();
        self.apply(table)
    }

    /// Overwrites this snapshot's rows into `table` (incremental restore on
    /// top of the parent state); `table` ends clean. Errors without
    /// touching `table` on a dim mismatch.
    pub fn apply(&self, table: &mut EmbeddingTable) -> Result<(), CodecError> {
        self.check_dim(table)?;
        for (id, row) in &self.rows {
            table.put(*id, row);
        }
        table.mark_clean();
        Ok(())
    }

    /// The bytes of `TableSnapshot::full(table).encode()`, written straight
    /// from the table's arena.
    pub fn encode_full(table: &EmbeddingTable) -> Vec<u8> {
        Self::encode_rows(table, false)
    }

    /// The bytes of `TableSnapshot::dirty(table).encode()`, written straight
    /// from the table's arena.
    pub fn encode_dirty(table: &EmbeddingTable) -> Vec<u8> {
        Self::encode_rows(table, true)
    }

    /// [`TableSnapshot::encode`]'s layout over the table's rows (dirty ones
    /// only when `dirty_only`), ascending by ID, read from the arena by slot
    /// into one buffer sized up front.
    fn encode_rows(table: &EmbeddingTable, dirty_only: bool) -> Vec<u8> {
        let rows = table.sorted_rows(dirty_only);
        let dim = table.dim();
        let mut e = Encoder::with_capacity(4 + 8 + rows.len() * (8 + 8 + 4 * dim));
        e.u32(dim as u32);
        e.u64(rows.len() as u64);
        let arena = table.arena();
        for (id, slot) in rows {
            e.u64(id);
            e.f32_slice(arena.row(slot));
        }
        e.finish()
    }

    /// Serializes the snapshot to shard bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.u32(self.dim);
        e.u64(self.rows.len() as u64);
        for (id, row) in &self.rows {
            e.u64(*id);
            e.f32_slice(row);
        }
        e.finish()
    }

    /// Parses shard bytes (inverse of [`TableSnapshot::encode`]).
    pub fn decode(bytes: &[u8]) -> Result<TableSnapshot, CodecError> {
        let mut d = Decoder::new(bytes);
        let dim = d.u32()?;
        if dim == 0 {
            return Err(CodecError::Invalid("table snapshot with dim 0".into()));
        }
        let n = d.u64()? as usize;
        let mut rows = Vec::new();
        let mut prev: Option<u64> = None;
        for _ in 0..n {
            let id = d.u64()?;
            if prev.is_some_and(|p| p >= id) {
                return Err(CodecError::Invalid(format!(
                    "row ids out of order at id {id}"
                )));
            }
            prev = Some(id);
            let row = d.f32_slice()?;
            if row.len() != dim as usize {
                return Err(CodecError::Invalid(format!(
                    "row {id} has {} values, dim is {dim}",
                    row.len()
                )));
            }
            rows.push((id, row));
        }
        d.finish()?;
        Ok(TableSnapshot { dim, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_eq(a: &EmbeddingTable, b: &EmbeddingTable) -> bool {
        TableSnapshot::full(a) == TableSnapshot::full(b)
    }

    #[test]
    fn table_snapshot_round_trips_bytes() {
        let mut t = EmbeddingTable::new(4, 9);
        for id in [5u64, 1, 99] {
            t.slot(id);
        }
        let slot = t.slot(5);
        t.apply_gradient_at(slot, 5, &[0.5; 4], 0.1);
        let snap = TableSnapshot::full(&t);
        let back = TableSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(TableSnapshot::encode_full(&t), snap.encode());
        let mut restored = EmbeddingTable::new(4, 9);
        back.restore_full(&mut restored).unwrap();
        assert!(table_eq(&t, &restored));
        assert_eq!(restored.dirty_count(), 0, "restore ends clean");
    }

    #[test]
    fn dirty_snapshot_covers_exactly_the_touched_rows() {
        let mut t = EmbeddingTable::new(2, 0);
        t.slot(1);
        t.slot(2);
        t.mark_clean();
        let slot = t.slot(2);
        t.apply_gradient_at(slot, 2, &[1.0, 1.0], 0.1);
        t.slot(3);
        let delta = TableSnapshot::dirty(&t);
        assert_eq!(
            delta.rows.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            [2, 3]
        );
        assert!(delta.len() < TableSnapshot::full(&t).len());
        assert_eq!(TableSnapshot::encode_dirty(&t), delta.encode());
    }

    #[test]
    fn capture_reads_rows_without_dirtying() {
        let mut t = EmbeddingTable::new(2, 5);
        t.slot(4);
        t.slot(1);
        t.mark_clean();
        let snap = TableSnapshot::full(&t);
        assert_eq!(snap.rows.len(), 2);
        assert_eq!(snap.rows[0].0, 1);
        assert_eq!(&snap.rows[0].1[..], t.peek(1).unwrap());
        assert!(TableSnapshot::dirty(&t).is_empty());
        assert_eq!(t.dirty_count(), 0, "capture must not dirty");
    }

    #[test]
    fn a_snapshot_of_another_dim_is_refused_and_leaves_the_table() {
        let mut wide = EmbeddingTable::new(4, 1);
        wide.slot(7);
        let snap = TableSnapshot::full(&wide);
        let mut t = EmbeddingTable::new(2, 1);
        t.slot(3);
        let before = TableSnapshot::full(&t);
        assert!(matches!(
            snap.restore_full(&mut t),
            Err(CodecError::Invalid(_))
        ));
        assert!(matches!(snap.apply(&mut t), Err(CodecError::Invalid(_))));
        assert_eq!(TableSnapshot::full(&t), before);
        assert_eq!(t.dirty_count(), 1, "the dirty set is untouched too");
    }

    #[test]
    fn decode_rejects_malformed_snapshots() {
        let mut t = EmbeddingTable::new(2, 0);
        t.slot(1);
        let good = TableSnapshot::full(&t).encode();
        // Truncated.
        assert!(TableSnapshot::decode(&good[..good.len() - 1]).is_err());
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(TableSnapshot::decode(&long).is_err());
        // dim 0.
        let mut e = Encoder::new();
        e.u32(0);
        e.u64(0);
        assert!(matches!(
            TableSnapshot::decode(&e.finish()),
            Err(CodecError::Invalid(_))
        ));
    }

    #[test]
    fn decode_rejects_a_row_length_of_u64_max() {
        let mut e = Encoder::new();
        e.u32(2);
        e.u64(1);
        e.u64(7); // row id
        e.u64(u64::MAX); // row length, with no payload behind it
        assert!(matches!(
            TableSnapshot::decode(&e.finish()),
            Err(CodecError::UnexpectedEof { .. })
        ));
    }
}
