//! Execution-cost estimation for packed embedding operations (Eq. 1).
//!
//! `CalcVParam(T) = N * sum_{t in T} (t_dim * sum_{ID in t} ID_freq)`
//! estimates the parameter volume (floats) processed by a packed operation
//! over the tables `T`, where `N` is the total number of categorical IDs and
//! the frequencies come from warm-up statistics.

/// Per-table inputs to Eq. 1: dimension and the warm-up relative frequency
/// mass of the IDs hitting it.
#[derive(Debug, Clone, Copy)]
pub struct TableLoad {
    /// Embedding dimension of the table.
    pub dim: usize,
    /// Sum of the relative frequencies of the table's observed IDs: the
    /// fraction of all categorical IDs that query this table.
    pub freq_mass: f64,
}

impl TableLoad {
    /// This table's contribution to Eq. 1: `N * t_dim * sum_{ID in t}
    /// ID_freq` floats, given `total_ids = N` observed IDs. Calibration
    /// tooling uses the per-table term directly; [`calc_vparam`] sums it
    /// over a pack.
    pub fn volume(&self, total_ids: u64) -> f64 {
        total_ids as f64 * self.dim as f64 * self.freq_mass
    }
}

/// Eq. 1: estimated parameter volume (floats) processed by a packed
/// operation covering `tables`, given `total_ids = N` observed IDs.
pub fn calc_vparam(tables: &[TableLoad], total_ids: u64) -> f64 {
    tables.iter().map(|t| t.volume(total_ids)).sum()
}

/// Number of shards a packed operation should be split into so that no shard
/// exceeds the average volume across packs (§III-B: packs with
/// above-average `CalcVParam` are evenly split).
pub fn shard_count(pack_volume: f64, avg_volume: f64) -> usize {
    if avg_volume <= 0.0 || pack_volume <= avg_volume {
        1
    } else {
        (pack_volume / avg_volume).round().max(1.0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vparam_scales_with_dim_and_mass() {
        let small = [TableLoad {
            dim: 8,
            freq_mass: 0.5,
        }];
        let large = [TableLoad {
            dim: 32,
            freq_mass: 0.5,
        }];
        assert_eq!(calc_vparam(&large, 1000), 4.0 * calc_vparam(&small, 1000));
        // The paper's example: dim-32 tables get 4 shards relative to dim-8.
        let v8 = calc_vparam(&small, 1000);
        let v32 = calc_vparam(&large, 1000);
        let avg = v8; // imagine the average volume equals the dim-8 pack's
        assert_eq!(shard_count(v32, avg), 4);
        assert_eq!(shard_count(v8, avg), 1);
    }

    #[test]
    fn vparam_of_multiple_tables_adds() {
        let t = TableLoad {
            dim: 4,
            freq_mass: 0.25,
        };
        let one = calc_vparam(&[t], 100);
        let two = calc_vparam(&[t, t], 100);
        assert!((two - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    fn per_table_volume_sums_to_vparam() {
        let a = TableLoad {
            dim: 8,
            freq_mass: 0.5,
        };
        let b = TableLoad {
            dim: 32,
            freq_mass: 0.25,
        };
        assert_eq!(a.volume(1000), 1000.0 * 8.0 * 0.5);
        assert!((calc_vparam(&[a, b], 1000) - (a.volume(1000) + b.volume(1000))).abs() < 1e-9);
        assert_eq!(a.volume(0), 0.0);
    }

    #[test]
    fn shard_count_edge_cases() {
        assert_eq!(shard_count(10.0, 0.0), 1);
        assert_eq!(shard_count(0.0, 10.0), 1);
        assert_eq!(shard_count(10.0, 10.0), 1);
        assert_eq!(shard_count(25.0, 10.0), 3, "rounds 2.5 up");
    }
}
