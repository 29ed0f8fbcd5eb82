//! Table VI: HybridHash hit ratio and throughput by Hot-storage size.
//!
//! Reproduces both effects: hit ratio saturates past ~2 GB (marginal
//! returns), and oversized caches shrink the feasible batch enough to cost
//! throughput — there is no need to chase a high hit ratio.

use crate::experiments::Scale;
use crate::report::{pct_delta, TextTable};
use crate::{PicassoConfig, Session};
use picasso_exec::ModelKind;

/// Hot-storage sizes swept (bytes).
pub const SIZES: [(u64, &str); 5] = [
    (256 << 20, "256MB"),
    (512 << 20, "512MB"),
    (1 << 30, "1GB"),
    (2 << 30, "2GB"),
    (4 << 30, "4GB"),
];

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct CachePoint {
    /// Hot-storage bytes.
    pub bytes: u64,
    /// The run's hit ratio.
    pub hit_ratio: f64,
    /// IPS at this size.
    pub ips: f64,
}

/// Sweeps the cache size for one model. The run's hit ratio is analytic,
/// from the Hot-storage size at the real vocabulary scale.
pub fn sweep(kind: ModelKind, scale: Scale) -> Vec<CachePoint> {
    SIZES
        .iter()
        .map(|&(bytes, _)| {
            let cfg: PicassoConfig = scale.eflops_config().hot_storage(bytes);
            let run = Session::new(kind, cfg).run_picasso();
            CachePoint {
                bytes,
                hit_ratio: run.report.cache_hit_ratio,
                ips: run.report.ips_per_node,
            }
        })
        .collect()
}

/// Runs Table VI for the three workloads.
pub fn run(scale: Scale) -> TextTable {
    let mut table = TextTable::new(
        "Tab. VI — hit ratio and IPS by Hot-storage size (IPS relative to 1GB)",
        &["model", "hot-storage", "hit ratio", "IPS delta"],
    );
    for kind in [ModelKind::WideDeep, ModelKind::Can, ModelKind::MMoe] {
        let points = sweep(kind, scale);
        let base = points[2].ips; // 1GB reference, as in the paper
        for (p, &(_, label)) in points.iter().zip(SIZES.iter()) {
            table.row(vec![
                kind.name().into(),
                label.into(),
                format!("{:.0}%", p.hit_ratio * 100.0),
                pct_delta(p.ips, base),
            ]);
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratio_grows_with_cache_size() {
        let points = sweep(ModelKind::Can, Scale::Quick);
        assert!(points
            .windows(2)
            .all(|w| w[1].hit_ratio >= w[0].hit_ratio - 1e-9));
        assert!(points.last().unwrap().hit_ratio > points[0].hit_ratio);
    }

    #[test]
    fn oversized_cache_does_not_raise_throughput_proportionally() {
        // The paper's marginal effect: 4GB should not beat 1GB by much, as
        // the occupied device memory compresses the batch.
        let points = sweep(ModelKind::WideDeep, Scale::Quick);
        let at_1g = points[2].ips;
        let at_4g = points[4].ips;
        assert!(
            at_4g < at_1g * 1.15,
            "4GB cache {at_4g} should not dominate 1GB {at_1g}"
        );
    }
}
