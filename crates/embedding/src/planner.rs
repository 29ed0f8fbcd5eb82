//! The D-Packing planner (§III-B).
//!
//! Decides how a dataset's embedding tables are combined into *packed
//! operations*: tables sharing an embedding dimension go into one pack, and
//! packs whose estimated `CalcVParam` (Eq. 1) exceeds the average — or which
//! would funnel too many concurrent hashmap queries — are evenly split into
//! shards. The resulting pack count is what Table V reports as "# of packed
//! embedding".

use crate::cost::{calc_vparam, shard_count, TableLoad};
use picasso_data::DatasetSpec;
use std::collections::BTreeMap;

/// One packed embedding operation: a set of tables plus the field indices
/// that feed it.
#[derive(Debug, Clone)]
pub struct Pack {
    /// Embedding dimension shared by all tables in the pack.
    pub dim: usize,
    /// Table groups covered.
    pub tables: Vec<usize>,
    /// Dataset field indices routed into this pack.
    pub fields: Vec<usize>,
    /// Estimated Eq. 1 volume.
    pub vparam: f64,
}

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Upper bound on tables per pack, limiting concurrent hashmap queries
    /// into one packed operation (§III-B's throughput concern).
    pub max_tables_per_pack: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            max_tables_per_pack: 16,
        }
    }
}

/// The result of planning: the packed operations, in deterministic order
/// (ascending dim, then shard index).
#[derive(Debug, Clone)]
pub struct PackPlan {
    /// Packed operations.
    pub packs: Vec<Pack>,
    /// For every dataset field index, the pack it is routed to.
    pub field_to_pack: Vec<usize>,
}

impl PackPlan {
    /// The Eq. 1 assignment in the form the D-Packing pass consumes:
    /// embedding table group → pack index.
    pub fn table_to_pack(&self) -> BTreeMap<usize, usize> {
        let mut out = BTreeMap::new();
        for (p, pack) in self.packs.iter().enumerate() {
            for &t in &pack.tables {
                out.insert(t, p);
            }
        }
        out
    }

    /// Plans packs for `spec`.
    ///
    /// Without warm-up statistics the planner assumes each field contributes
    /// ID mass proportional to its `avg_ids` (exact for the synthetic
    /// generators); with statistics, callers can re-plan via
    /// [`PackPlan::with_loads`].
    pub fn plan(spec: &DatasetSpec, cfg: &PlannerConfig) -> PackPlan {
        // Estimated per-table frequency mass: share of all categorical IDs.
        let total_ids: f64 = spec.fields.iter().map(|f| f.avg_ids).sum();
        let mut table_mass: BTreeMap<usize, f64> = BTreeMap::new();
        let mut table_dim: BTreeMap<usize, usize> = BTreeMap::new();
        for f in &spec.fields {
            *table_mass.entry(f.table_group).or_insert(0.0) += f.avg_ids / total_ids;
            table_dim.insert(f.table_group, f.dim);
        }
        let loads: BTreeMap<usize, TableLoad> = table_mass
            .iter()
            .map(|(&t, &mass)| {
                (
                    t,
                    TableLoad {
                        dim: table_dim[&t],
                        freq_mass: mass,
                    },
                )
            })
            .collect();
        PackPlan::with_loads(spec, cfg, &loads, 1_000_000)
    }

    /// Plans packs using measured per-table loads (from warm-up iterations).
    ///
    /// # Panics
    /// If `cfg.max_tables_per_pack` is 0, or if `loads` lacks the table of
    /// one of `spec`'s fields.
    pub fn with_loads(
        spec: &DatasetSpec,
        cfg: &PlannerConfig,
        loads: &BTreeMap<usize, TableLoad>,
        total_ids: u64,
    ) -> PackPlan {
        assert!(cfg.max_tables_per_pack > 0, "pack size must be positive");
        // Group tables by dim.
        let mut by_dim: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (&t, load) in loads {
            by_dim.entry(load.dim).or_default().push(t);
        }
        // Eq. 1 volume per dim-group, and the cross-group average.
        let volumes: BTreeMap<usize, f64> = by_dim
            .iter()
            .map(|(&dim, tables)| {
                let tl: Vec<TableLoad> = tables.iter().map(|t| loads[t]).collect();
                (dim, calc_vparam(&tl, total_ids))
            })
            .collect();
        let avg = volumes.values().sum::<f64>() / volumes.len().max(1) as f64;

        // Field routing: map table -> pack later; build packs per dim group.
        let mut packs = Vec::new();
        let mut table_to_pack: BTreeMap<usize, usize> = BTreeMap::new();
        for (&dim, tables) in &by_dim {
            let by_volume = shard_count(volumes[&dim], avg);
            let by_width = tables.len().div_ceil(cfg.max_tables_per_pack);
            let shards = by_volume.max(by_width).min(tables.len());
            // Round-robin tables into shards to balance volume.
            let mut shard_tables: Vec<Vec<usize>> = vec![Vec::new(); shards];
            for (i, &t) in tables.iter().enumerate() {
                shard_tables[i % shards].push(t);
            }
            for st in shard_tables {
                let pack_idx = packs.len();
                for &t in &st {
                    table_to_pack.insert(t, pack_idx);
                }
                let tl: Vec<TableLoad> = st.iter().map(|t| loads[t]).collect();
                packs.push(Pack {
                    dim,
                    vparam: calc_vparam(&tl, total_ids),
                    tables: st,
                    fields: Vec::new(),
                });
            }
        }
        // Route fields to packs through their tables.
        let mut field_to_pack = Vec::with_capacity(spec.fields.len());
        for (i, f) in spec.fields.iter().enumerate() {
            // Invariant: `loads` holds every field's table, so every table
            // a field names was packed above. `plan` derives `loads` from
            // the fields, and the warm-up counts one load per field table.
            #[allow(clippy::expect_used)]
            let p = *table_to_pack
                .get(&f.table_group)
                .expect("every field's table has a load entry");
            packs[p].fields.push(i);
            field_to_pack.push(p);
        }
        PackPlan {
            packs,
            field_to_pack,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picasso_data::DatasetSpec;

    #[test]
    fn packs_cover_all_fields_exactly_once() {
        for spec in [
            DatasetSpec::criteo(),
            DatasetSpec::alibaba(),
            DatasetSpec::product1(),
            DatasetSpec::product2(),
            DatasetSpec::product3(),
        ] {
            let plan = PackPlan::plan(&spec, &PlannerConfig::default());
            let covered: usize = plan.packs.iter().map(|p| p.fields.len()).sum();
            assert_eq!(covered, spec.fields.len(), "{}", spec.name);
            assert_eq!(plan.field_to_pack.len(), spec.fields.len());
            for (i, &p) in plan.field_to_pack.iter().enumerate() {
                assert!(plan.packs[p].fields.contains(&i));
                assert_eq!(plan.packs[p].dim, spec.fields[i].dim);
            }
            // The table-to-pack view is consistent with the pack list.
            let t2p = plan.table_to_pack();
            for (p, pack) in plan.packs.iter().enumerate() {
                for t in &pack.tables {
                    assert_eq!(t2p[t], p, "{}", spec.name);
                }
            }
        }
    }

    #[test]
    fn pack_counts_are_table_five_shaped() {
        let cfg = PlannerConfig::default();
        // Paper Table V: W&D 204 tables -> 16 packs, CAN 364 -> 19,
        // MMoE 94 -> 11. We assert the same order of magnitude: packs are
        // 3-15% of the table count.
        for (spec, paper_packs) in [
            (DatasetSpec::product1(), 16usize),
            (DatasetSpec::product2(), 19),
            (DatasetSpec::product3(), 11),
        ] {
            let plan = PackPlan::plan(&spec, &cfg);
            let tables = spec.table_count();
            let packs = plan.packs.len();
            assert!(
                packs >= paper_packs / 3 && packs <= paper_packs * 3,
                "{}: {packs} packs for {tables} tables (paper: {paper_packs})",
                spec.name
            );
            assert!(
                packs < tables / 3,
                "{}: packing should consolidate",
                spec.name
            );
        }
    }

    #[test]
    fn packs_group_by_dim() {
        let spec = DatasetSpec::product1();
        let plan = PackPlan::plan(&spec, &PlannerConfig::default());
        for p in &plan.packs {
            for &t in &p.tables {
                // All fields of table t share the pack's dim by construction.
                let f = spec.fields.iter().find(|f| f.table_group == t).unwrap();
                assert_eq!(f.dim, p.dim);
            }
        }
    }

    #[test]
    fn width_cap_limits_tables_per_pack() {
        let spec = DatasetSpec::product2();
        let cfg = PlannerConfig {
            max_tables_per_pack: 8,
        };
        let plan = PackPlan::plan(&spec, &cfg);
        for p in &plan.packs {
            assert!(p.tables.len() <= 8 + 1, "pack too wide: {}", p.tables.len());
        }
        // Tighter cap means more packs.
        let loose = PackPlan::plan(&spec, &PlannerConfig::default());
        assert!(plan.packs.len() >= loose.packs.len());
    }

    #[test]
    fn single_dim_dataset_still_splits_by_width() {
        let spec = DatasetSpec::criteo(); // 26 tables, all dim 128
        let plan = PackPlan::plan(
            &spec,
            &PlannerConfig {
                max_tables_per_pack: 10,
            },
        );
        assert!(plan.packs.len() >= 3, "26 tables / cap 10 -> >= 3 packs");
    }
}
