//! Checkpoint property tests: `restore(save(state)) == state` for
//! embedding tables (full and incremental snapshots), over arbitrary
//! lookup/update streams.

use picasso_embedding::{EmbeddingTable, TableSnapshot};
use proptest::prelude::*;

const DIM: usize = 4;

/// Drives a table through a mixed stream: even ops are lookups (which
/// lazily materialize), odd ops are gradient updates.
fn drive_table(table: &mut EmbeddingTable, ops: &[(u64, f32)]) {
    for (i, &(id, v)) in ops.iter().enumerate() {
        let slot = table.slot(id);
        if i % 2 == 1 {
            table.apply_gradient_at(slot, id, &[v; DIM], 0.1);
        }
    }
}

proptest! {
    /// A full snapshot decodes back to exactly the rows it encoded, and
    /// restoring it reproduces the source table bit for bit — including
    /// the set of materialized rows, which the lazy seeded init makes
    /// observable.
    #[test]
    fn full_snapshot_round_trips(
        ops in proptest::collection::vec((0u64..300, -1.0f32..1.0), 1..80),
        seed in 0u64..50,
    ) {
        let mut table = EmbeddingTable::new(DIM, seed);
        drive_table(&mut table, &ops);

        let snap = TableSnapshot::full(&table);
        let decoded = TableSnapshot::decode(&snap.encode()).unwrap();
        prop_assert_eq!(&decoded, &snap);

        let mut restored = EmbeddingTable::new(DIM, seed);
        decoded.restore_full(&mut restored).unwrap();
        prop_assert_eq!(
            restored.rows_by_id().collect::<Vec<_>>(),
            table.rows_by_id().collect::<Vec<_>>()
        );
        // Restore leaves the table clean, like a just-written checkpoint.
        prop_assert_eq!(restored.dirty_count(), 0);
    }

    /// Splitting a stream at an arbitrary point and checkpointing as
    /// full-at-split + delta-at-end reproduces the same state as one full
    /// snapshot at the end.
    #[test]
    fn incremental_chain_equals_full_snapshot(
        ops in proptest::collection::vec((0u64..300, -1.0f32..1.0), 2..80),
        split_pct in 0usize..100,
        seed in 0u64..50,
    ) {
        let split = ops.len() * split_pct / 100;
        let mut table = EmbeddingTable::new(DIM, seed);
        drive_table(&mut table, &ops[..split]);
        let base = TableSnapshot::full(&table);
        table.mark_clean();
        drive_table(&mut table, &ops[split..]);
        let delta = TableSnapshot::dirty(&table);
        // The delta holds exactly the rows touched since the base.
        prop_assert_eq!(delta.len(), table.dirty_count());

        let mut restored = EmbeddingTable::new(DIM, seed);
        TableSnapshot::decode(&base.encode()).unwrap().restore_full(&mut restored).unwrap();
        TableSnapshot::decode(&delta.encode()).unwrap().apply(&mut restored).unwrap();

        prop_assert_eq!(&TableSnapshot::full(&restored), &TableSnapshot::full(&table));
    }
}
