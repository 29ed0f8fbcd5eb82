//! The experiment suite: one module per table/figure of the paper's
//! evaluation (§IV, §V).
//!
//! Every module exposes `run(scale) -> TextTable` (plus structured output
//! types where callers need the numbers). `Scale::Quick` shrinks cluster
//! sizes and warm-up volumes so tests and CI stay fast;
//! `Scale::Full` reproduces the paper's cluster shapes.

use crate::config::PicassoConfig;
use picasso_exec::WarmupConfig;
use picasso_sim::MachineSpec;

pub mod fig01_util_trend;
pub mod fig03_id_cdf;
pub mod fig05_breakdown;
pub mod fig10_walltime;
pub mod fig11_sm_cdf;
pub mod fig12_bandwidth;
pub mod fig13_ips;
pub mod fig14_groups;
pub mod fig15_scaling;
pub mod tab03_auc;
pub mod tab04_ablation;
pub mod tab05_opcount;
pub mod tab06_cache;
pub mod tab07_zoo;
pub mod tab08_fields;
pub mod tab09_production;
pub mod tab10_scale;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small clusters / few iterations: for benches and tests.
    Quick,
    /// Paper-shaped clusters (16 EFLOPS nodes, 128-worker scaling sweep).
    Full,
}

impl Scale {
    /// The EFLOPS cluster size used by the system-design evaluation
    /// (the paper uses 16 nodes).
    pub fn eflops_nodes(self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Full => 16,
        }
    }

    /// Iterations simulated per run.
    pub fn iterations(self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Full => 6,
        }
    }

    /// Scaling-sweep worker counts (Fig. 15 goes to 128).
    pub fn scaling_workers(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![1, 2, 4, 8],
            Scale::Full => vec![1, 2, 4, 8, 16, 32, 64, 128],
        }
    }

    /// Warm-up measurement configuration.
    pub fn warmup(self) -> WarmupConfig {
        match self {
            Scale::Quick => WarmupConfig {
                batches: 4,
                batch_size: 256,
                max_vocab: 2_000,
                hot_bytes: 1 << 26,
                seed: 11,
            },
            Scale::Full => WarmupConfig {
                batches: 8,
                batch_size: 1024,
                max_vocab: 20_000,
                hot_bytes: 1 << 30,
                seed: 11,
            },
        }
    }

    /// Base config on the EFLOPS cluster at this scale.
    pub fn eflops_config(self) -> PicassoConfig {
        PicassoConfig {
            machines: self.eflops_nodes(),
            machine: MachineSpec::eflops(),
            iterations: self.iterations(),
            warmup: self.warmup(),
            ..PicassoConfig::default()
        }
    }

    /// Base config on one Gn6e node (the public-benchmark testbed).
    pub fn gn6e_config(self) -> PicassoConfig {
        PicassoConfig {
            machines: 1,
            machine: MachineSpec::gn6e(),
            iterations: self.iterations(),
            warmup: self.warmup(),
            ..PicassoConfig::default()
        }
    }

    /// Per-executor batch cap for the quick scale (keeps simulated batches
    /// small where the experiment fixes its own batch).
    pub fn quick_batch(self) -> Option<usize> {
        match self {
            Scale::Quick => Some(8192),
            Scale::Full => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(Scale::Full.eflops_nodes() > Scale::Quick.eflops_nodes());
        assert_eq!(Scale::Full.scaling_workers().last(), Some(&128));
        assert!(Scale::Quick.quick_batch().is_some());
        assert!(Scale::Full.quick_batch().is_none());
    }

    #[test]
    fn configs_carry_scale() {
        let c = Scale::Quick.eflops_config();
        assert_eq!(c.machines, 4);
        assert_eq!(c.iterations, 3);
        let g = Scale::Quick.gn6e_config();
        assert_eq!(g.machines, 1);
        assert_eq!(g.machine.gpus_per_node, 8);
    }
}
