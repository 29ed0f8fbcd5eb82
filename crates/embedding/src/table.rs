//! Embedding tables.
//!
//! Industrial WDL systems store embedding parameters in hashmaps so the
//! table can grow with newly-emerging categorical IDs (§III-B). Rows are
//! lazily initialized from a deterministic per-table hash so that every
//! training system variant sees bit-identical initial parameters — the
//! cache-consistency property tests depend on this.
//!
//! Storage is struct-of-arrays: all rows live in one contiguous `f32` arena
//! ([`RowArena`]) with a hashmap used only to translate an ID to its dense
//! slot. A caller resolves an ID to its slot once ([`EmbeddingTable::slot`])
//! and then reads and steps the row by slot, so row lookups, gradient steps
//! and checkpoint capture touch contiguous memory and hash each ID once.

use picasso_data::{splitmix64, IdHash};
use std::collections::HashMap;

/// A struct-of-arrays row store: one contiguous `Vec<f32>` holding all rows
/// (`dim` floats each, slot-major) plus an id→slot index hashed through
/// [`IdHash`] (one splitmix64 mix per ID). Rows are only appended or
/// overwritten, never removed individually, so slots stay dense and stable
/// for the arena's lifetime.
#[derive(Debug, Clone, Default)]
pub struct RowArena {
    dim: usize,
    data: Vec<f32>,
    index: HashMap<u64, u32, IdHash>,
    slot_ids: Vec<u64>,
}

impl RowArena {
    /// Creates an empty arena for rows of `dim` floats.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "row dimension must be positive");
        RowArena {
            dim,
            data: Vec::new(),
            index: HashMap::default(),
            slot_ids: Vec::new(),
        }
    }

    /// Row width in floats.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows stored.
    pub fn len(&self) -> usize {
        self.slot_ids.len()
    }

    /// Whether the arena holds no rows.
    pub fn is_empty(&self) -> bool {
        self.slot_ids.is_empty()
    }

    /// The row for `id`, if present.
    pub fn get(&self, id: u64) -> Option<&[f32]> {
        self.index.get(&id).map(|&s| self.row(s))
    }

    /// The row in slot `slot` (slots are handed out by [`RowArena::ensure_with`]).
    pub fn row(&self, slot: u32) -> &[f32] {
        let lo = slot as usize * self.dim;
        &self.data[lo..lo + self.dim]
    }

    /// Returns the slot for `id`, appending a fresh row filled by
    /// `init(j)` for each column `j` when absent. The bool is `true` iff the
    /// row was created by this call.
    pub fn ensure_with(&mut self, id: u64, mut init: impl FnMut(usize) -> f32) -> (u32, bool) {
        if let Some(&s) = self.index.get(&id) {
            return (s, false);
        }
        let slot = self.slot_ids.len() as u32;
        self.data.extend((0..self.dim).map(&mut init));
        self.slot_ids.push(id);
        self.index.insert(id, slot);
        (slot, true)
    }

    /// Overwrites the row for `id`, appending a new slot if absent, and
    /// returns its slot.
    pub fn insert(&mut self, id: u64, values: &[f32]) -> u32 {
        assert_eq!(values.len(), self.dim, "row length must equal dim");
        match self.index.get(&id) {
            Some(&s) => {
                let lo = s as usize * self.dim;
                self.data[lo..lo + self.dim].copy_from_slice(values);
                s
            }
            None => {
                let slot = self.slot_ids.len() as u32;
                self.data.extend_from_slice(values);
                self.slot_ids.push(id);
                self.index.insert(id, slot);
                slot
            }
        }
    }

    /// IDs of every row in slot (insertion) order.
    pub fn ids(&self) -> &[u64] {
        &self.slot_ids
    }

    /// Drops every row.
    pub fn clear(&mut self) {
        self.data.clear();
        self.index.clear();
        self.slot_ids.clear();
    }
}

/// A growable embedding table keyed by categorical ID, backed by a
/// [`RowArena`].
///
/// The table tracks which rows changed since [`EmbeddingTable::mark_clean`]
/// (materialization counts: an uninterrupted run and a restored run must
/// agree on *which* rows exist, not just their values). Incremental
/// checkpoints serialize only this dirty set. It is one flag per arena slot
/// plus a count of the set flags, so marking a row costs no lookup beyond
/// the one that found its slot; checkpoint capture sorts the flagged rows
/// when it asks for them.
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    seed: u64,
    arena: RowArena,
    /// `dirty[slot]`: whether the row in `slot` changed since the last
    /// `mark_clean`; as long as the arena.
    dirty: Vec<bool>,
    /// How many of `dirty` are set.
    dirty_count: usize,
}

impl EmbeddingTable {
    /// Creates an empty table with embedding dimension `dim`.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "embedding dimension must be positive");
        EmbeddingTable {
            seed,
            arena: RowArena::new(dim),
            dirty: Vec::new(),
            dirty_count: 0,
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.arena.dim()
    }

    /// Number of materialized rows.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// Whether no rows have been materialized.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// The deterministic initial value of `row[j]` for `id`.
    fn init_value(seed: u64, id: u64, j: usize) -> f32 {
        let h = splitmix64(seed ^ splitmix64(id.wrapping_add(j as u64) ^ (j as u64) << 32));
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        ((unit - 0.5) * 0.2) as f32
    }

    /// Flags the row in `slot` dirty; a slot one past the flags is the
    /// arena's newest row, whose flag is added here.
    fn mark_dirty(&mut self, slot: u32) {
        let slot = slot as usize;
        if slot == self.dirty.len() {
            self.dirty.push(false);
        }
        if !self.dirty[slot] {
            self.dirty[slot] = true;
            self.dirty_count += 1;
        }
    }

    /// The arena slot of `id`'s row, materializing the row (and flagging it
    /// dirty) on first access. A slot stays `id`'s until
    /// [`EmbeddingTable::clear_rows`], so a caller can resolve an ID once
    /// and then read and step its row by slot.
    pub fn slot(&mut self, id: u64) -> u32 {
        let seed = self.seed;
        let (slot, created) = self
            .arena
            .ensure_with(id, |j| Self::init_value(seed, id, j));
        if created {
            self.mark_dirty(slot);
        }
        slot
    }

    /// The row in `slot` (from [`EmbeddingTable::slot`]).
    #[inline]
    pub fn row_at(&self, slot: u32) -> &[f32] {
        self.arena.row(slot)
    }

    /// Returns the row for `id` without materializing; `None` if absent.
    pub fn peek(&self, id: u64) -> Option<&[f32]> {
        self.arena.get(id)
    }

    /// Overwrites the row for `id` (used by cache write-back).
    pub fn put(&mut self, id: u64, values: &[f32]) {
        let slot = self.arena.insert(id, values);
        self.mark_dirty(slot);
    }

    /// Applies a gradient step `row -= lr * grad` to the row in `slot`,
    /// which must still hold `id`'s row.
    ///
    /// # Panics
    /// If `slot` does not hold `id` (the rows were cleared since the slot
    /// was resolved), or if `grad` is not `dim` long.
    pub fn apply_gradient_at(&mut self, slot: u32, id: u64, grad: &[f32], lr: f32) {
        assert_eq!(grad.len(), self.dim(), "gradient length must equal dim");
        assert_eq!(
            self.arena.ids().get(slot as usize),
            Some(&id),
            "slot {slot} does not hold id {id}"
        );
        let dim = self.arena.dim;
        let lo = slot as usize * dim;
        for (w, g) in self.arena.data[lo..lo + dim].iter_mut().zip(grad) {
            *w -= lr * g;
        }
        self.mark_dirty(slot);
    }

    /// IDs of rows touched (materialized, written, or updated) since the last
    /// [`EmbeddingTable::mark_clean`], ascending.
    pub fn dirty_ids(&self) -> impl Iterator<Item = u64> {
        self.sorted_rows(true).into_iter().map(|(id, _)| id)
    }

    /// Number of dirty rows.
    pub fn dirty_count(&self) -> usize {
        self.dirty_count
    }

    /// Forgets the dirty set — called after a checkpoint captures it (and
    /// after a restore, which reconstructs a just-checkpointed state).
    pub fn mark_clean(&mut self) {
        self.dirty.fill(false);
        self.dirty_count = 0;
    }

    /// `(id, slot)` of every materialized row, or of every dirty one when
    /// `dirty_only`, ascending by ID (IDs are unique, so the order is
    /// total).
    pub(crate) fn sorted_rows(&self, dirty_only: bool) -> Vec<(u64, u32)> {
        let ids = self.arena.ids();
        let mut rows: Vec<(u64, u32)> = if dirty_only {
            let mut rows = Vec::with_capacity(self.dirty_count);
            for (slot, (&id, &dirty)) in ids.iter().zip(&self.dirty).enumerate() {
                if dirty {
                    rows.push((id, slot as u32));
                }
            }
            rows
        } else {
            ids.iter()
                .enumerate()
                .map(|(s, &id)| (id, s as u32))
                .collect()
        };
        rows.sort_unstable_by_key(|&(id, _)| id);
        rows
    }

    /// The row store (checkpoint capture reads rows by slot).
    pub(crate) fn arena(&self) -> &RowArena {
        &self.arena
    }

    /// Every materialized row with its ID, ascending by ID, read by slot
    /// from the arena.
    pub fn rows_by_id(&self) -> impl Iterator<Item = (u64, &[f32])> {
        self.sorted_rows(false)
            .into_iter()
            .map(|(id, slot)| (id, self.arena.row(slot)))
    }

    /// Drops all materialized rows and the dirty set (full-restore staging).
    pub fn clear_rows(&mut self) {
        self.arena.clear();
        self.dirty.clear();
        self.dirty_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `id`'s row, materialized on first access.
    fn row(t: &mut EmbeddingTable, id: u64) -> Vec<f32> {
        let slot = t.slot(id);
        t.row_at(slot).to_vec()
    }

    #[test]
    fn rows_are_deterministic() {
        let mut a = EmbeddingTable::new(8, 42);
        let mut b = EmbeddingTable::new(8, 42);
        assert_eq!(row(&mut a, 17), row(&mut b, 17));
        let mut c = EmbeddingTable::new(8, 43);
        assert_ne!(row(&mut a, 17), row(&mut c, 17), "different seeds differ");
    }

    #[test]
    fn rows_are_small_and_varied() {
        let mut t = EmbeddingTable::new(16, 1);
        let r = row(&mut t, 5);
        assert!(r.iter().all(|v| v.abs() <= 0.1));
        let distinct = r
            .iter()
            .map(|v| v.to_bits())
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 8, "row values should vary");
    }

    #[test]
    fn lazy_materialization() {
        let mut t = EmbeddingTable::new(4, 0);
        assert!(t.is_empty());
        assert!(t.peek(1).is_none());
        assert_eq!(t.slot(1), 0);
        assert_eq!(t.slot(1), 0, "a second lookup reuses the slot");
        assert_eq!(t.len(), 1);
        assert!(t.peek(1).is_some());
    }

    #[test]
    fn gradient_updates_row() {
        let mut t = EmbeddingTable::new(2, 0);
        let before = row(&mut t, 9);
        let slot = t.slot(9);
        t.apply_gradient_at(slot, 9, &[1.0, -1.0], 0.5);
        let after = t.peek(9).unwrap();
        assert!((after[0] - (before[0] - 0.5)).abs() < 1e-6);
        assert!((after[1] - (before[1] + 0.5)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "does not hold id")]
    fn a_gradient_through_a_stale_slot_is_refused() {
        let mut t = EmbeddingTable::new(2, 0);
        let slot = t.slot(9);
        t.clear_rows();
        t.slot(4);
        t.apply_gradient_at(slot, 9, &[1.0, -1.0], 0.5);
    }

    #[test]
    fn rows_by_id_reads_every_row_in_id_order() {
        let mut t = EmbeddingTable::new(2, 0);
        for id in [30, 10, 20] {
            t.slot(id);
        }
        let rows: Vec<(u64, Vec<f32>)> = t.rows_by_id().map(|(id, r)| (id, r.to_vec())).collect();
        let want: Vec<(u64, Vec<f32>)> = [10, 20, 30]
            .into_iter()
            .map(|id| (id, t.peek(id).unwrap().to_vec()))
            .collect();
        assert_eq!(rows, want);
    }

    #[test]
    fn put_overwrites() {
        let mut t = EmbeddingTable::new(2, 0);
        t.put(3, &[1.0, 2.0]);
        assert_eq!(t.peek(3).unwrap(), &[1.0, 2.0]);
    }

    #[test]
    fn arena_rows_are_contiguous_slots() {
        let mut a = RowArena::new(2);
        let (s0, c0) = a.ensure_with(50, |j| j as f32);
        let (s1, c1) = a.ensure_with(10, |j| 10.0 + j as f32);
        let (s0b, c0b) = a.ensure_with(50, |_| f32::NAN);
        assert!(c0 && c1 && !c0b);
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(s0b, s0);
        assert_eq!(a.ids(), &[50, 10], "slot order is insertion order");
        assert_eq!(a.row(0), &[0.0, 1.0], "re-ensure must not reinit");
        a.insert(10, &[9.0, 9.0]);
        assert_eq!(a.get(10).unwrap(), &[9.0, 9.0]);
        assert_eq!(a.len(), 2, "overwrite does not grow the arena");
    }

    #[test]
    #[should_panic(expected = "row length must equal dim")]
    fn put_rejects_wrong_dim() {
        let mut t = EmbeddingTable::new(3, 0);
        t.put(0, &[1.0]);
    }
}
