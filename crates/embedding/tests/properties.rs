//! Property tests: the arena table against a per-row model, and planner
//! invariants.

use picasso_data::{DatasetSpec, FieldSpec, IdDistribution};
use picasso_embedding::{EmbeddingTable, PackPlan};
use proptest::prelude::*;

/// `id`'s initial row, read from `init`, a table nothing else steps.
fn first_touch(init: &mut EmbeddingTable, id: u64) -> Vec<f32> {
    let slot = init.slot(id);
    init.row_at(slot).to_vec()
}

proptest! {
    /// The SoA arena table is observationally identical to a per-row model
    /// (the old `HashMap<u64, Box<[f32]>>` storage): same values, same
    /// materialized-ID set, same dirty-ID tracking, under any interleaving
    /// of row/put/gradient/mark-clean ops. Rows are read and stepped
    /// through the slot API, one `slot` lookup per access.
    #[test]
    fn arena_table_matches_per_row_reference_model(
        ops in proptest::collection::vec((0usize..4, 0u64..60, -1.0f32..1.0), 1..60),
    ) {
        let dim = 4;
        let mut table = EmbeddingTable::new(dim, 42);
        // First-touch values come from a second table with the same seed
        // (init depends only on (seed, id)), so the reference shares no
        // storage or bookkeeping with the arena under test.
        let mut init = EmbeddingTable::new(dim, 42);
        let mut rows: std::collections::HashMap<u64, Vec<f32>> = Default::default();
        let mut dirty: std::collections::BTreeSet<u64> = Default::default();
        for &(kind, id, x) in &ops {
            match kind {
                0 => {
                    let want = rows.entry(id).or_insert_with(|| {
                        dirty.insert(id);
                        first_touch(&mut init, id)
                    }).clone();
                    let slot = table.slot(id);
                    prop_assert_eq!(table.row_at(slot), &want[..]);
                }
                1 => {
                    let vals: Vec<f32> = (0..dim).map(|j| x + j as f32).collect();
                    table.put(id, &vals);
                    rows.insert(id, vals);
                    dirty.insert(id);
                }
                2 => {
                    let grad: Vec<f32> = (0..dim).map(|j| x * (j + 1) as f32).collect();
                    let slot = table.slot(id);
                    table.apply_gradient_at(slot, id, &grad, 0.1);
                    let row = rows.entry(id).or_insert_with(|| first_touch(&mut init, id));
                    for (w, g) in row.iter_mut().zip(&grad) {
                        *w -= 0.1 * g;
                    }
                    dirty.insert(id);
                }
                _ => {
                    table.mark_clean();
                    dirty.clear();
                }
            }
        }
        // Final state agrees exactly: values, materialization, dirtiness.
        let mut want_ids: Vec<u64> = rows.keys().copied().collect();
        want_ids.sort_unstable();
        prop_assert_eq!(table.rows_by_id().map(|(id, _)| id).collect::<Vec<u64>>(), want_ids);
        prop_assert_eq!(
            table.dirty_ids().collect::<Vec<u64>>(),
            dirty.iter().copied().collect::<Vec<u64>>()
        );
        for (id, want) in &rows {
            prop_assert_eq!(table.peek(*id).unwrap(), &want[..], "row {}", id);
        }
    }

    /// 17 to 40 tables of one dim are more than one pack may hold, so the
    /// planner always splits them by width: no pack holds more than 16
    /// tables, and every table and every field lands in exactly one pack.
    #[test]
    fn planner_partitions_fields(
        tables in proptest::collection::vec((1u64..1_000_000, 1u32..50), 17..41),
    ) {
        let spec = DatasetSpec {
            name: "one-dim".into(),
            numeric: 0,
            fields: tables
                .iter()
                .enumerate()
                .map(|(t, &(vocab, ids))| FieldSpec {
                    avg_ids: f64::from(ids),
                    ..FieldSpec::one_hot(format!("f{t}"), vocab, 16, IdDistribution::Uniform, t)
                })
                .collect(),
            instances: None,
        };
        let plan = PackPlan::plan(&spec);
        let mut table_seen = vec![0; tables.len()];
        let mut field_seen = vec![0; spec.fields.len()];
        for p in &plan.packs {
            prop_assert!(p.tables.len() <= 16, "{} tables in one pack", p.tables.len());
            for &t in &p.tables {
                table_seen[t] += 1;
            }
            for &f in &p.fields {
                field_seen[f] += 1;
            }
        }
        prop_assert!(table_seen.iter().all(|&n| n == 1), "{:?}", table_seen);
        prop_assert!(field_seen.iter().all(|&n| n == 1), "{:?}", field_seen);
    }
}
