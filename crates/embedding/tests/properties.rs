//! Property tests: the arena table against a per-row model, and planner
//! invariants.

use picasso_data::DatasetSpec;
use picasso_embedding::{EmbeddingTable, PackPlan, PlannerConfig};
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

    /// The planner always covers every field exactly once and respects the
    /// width cap, for any cap.
    #[test]
    fn planner_partitions_fields(cap in 1usize..40) {
        let spec = DatasetSpec::product3();
        let plan = PackPlan::plan(&spec, &PlannerConfig { max_tables_per_pack: cap });
        let mut seen = vec![false; spec.fields.len()];
        for p in &plan.packs {
            for &f in &p.fields {
                prop_assert!(!seen[f], "field {f} in two packs");
                seen[f] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Total Eq.1 volume is conserved across shardings of the same spec.
        let v: f64 = plan.packs.iter().map(|p| p.vparam).sum();
        let base = PackPlan::plan(&spec, &PlannerConfig::default());
        let vb: f64 = base.packs.iter().map(|p| p.vparam).sum();
        prop_assert!((v - vb).abs() < vb * 1e-9 + 1e-9);
    }
}
