//! Training-framework presets.
//!
//! The paper compares PICASSO against TensorFlow-PS, PyTorch (hybrid with
//! AllToAll), Horovod (DDP AllReduce), and the in-house XDL (synchronous
//! PS). Each preset is a distribution strategy plus the set of
//! graph-optimization passes it applies — PICASSO differs from
//! "PICASSO(Base)" only by the software-system optimizations, which is what
//! the Fig. 13 / Table IV ablation isolates.

use crate::strategy::Strategy;
use picasso_graph::PipelineConfig;
use serde::{Deserialize, Serialize};

/// Which optimizations a framework applies: a declarative, ordered pass
/// pipeline. The `Optimizations::all()` / `none()` / `without_*()`
/// constructors mirror the paper's ablation vocabulary; arbitrary pass
/// lists come from [`PipelineConfig::new`].
pub type Optimizations = PipelineConfig;

/// A named framework preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Framework {
    /// TensorFlow 1.15 with one CPU parameter server, asynchronous.
    TfPs,
    /// PyTorch 1.8 hybrid: manual table placement + AllToAll.
    PyTorch,
    /// Horovod on PyTorch DDP: full replication + AllReduce.
    Horovod,
    /// In-house XDL: synchronous PS with a server per four workers.
    Xdl,
    /// PICASSO's hybrid strategy without software-system optimizations.
    PicassoBase,
    /// Full PICASSO.
    Picasso,
}

impl Framework {
    /// The four frameworks of the public benchmark (Figs. 10-12, Tab. III).
    pub const BENCHMARK: [Framework; 4] = [
        Framework::Picasso,
        Framework::PyTorch,
        Framework::TfPs,
        Framework::Horovod,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Framework::TfPs => "TF-PS",
            Framework::PyTorch => "PyTorch",
            Framework::Horovod => "Horovod",
            Framework::Xdl => "XDL",
            Framework::PicassoBase => "PICASSO(Base)",
            Framework::Picasso => "PICASSO",
        }
    }

    /// The distribution strategy for a cluster of `machines` worker nodes.
    pub fn strategy(self, machines: usize) -> Strategy {
        match self {
            Framework::TfPs => Strategy::PsAsync { servers: 1 },
            Framework::Xdl => Strategy::PsSync {
                servers: machines.div_ceil(4),
            },
            Framework::PyTorch => Strategy::ModelParallel,
            Framework::Horovod => Strategy::DataParallel,
            Framework::PicassoBase | Framework::Picasso => Strategy::Hybrid,
        }
    }

    /// The optimization pipeline this preset applies.
    pub fn optimizations(self) -> Optimizations {
        match self {
            Framework::Picasso => Optimizations::all(),
            _ => Optimizations::none(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_picasso_optimizes() {
        let all = [
            Framework::TfPs,
            Framework::PyTorch,
            Framework::Horovod,
            Framework::Xdl,
            Framework::PicassoBase,
            Framework::Picasso,
        ];
        for f in all {
            let o = f.optimizations();
            if f == Framework::Picasso {
                assert_eq!(o, Optimizations::all());
            } else {
                assert_eq!(o, Optimizations::none(), "{}", f.name());
            }
        }
    }

    #[test]
    fn strategies_match_paper_setup() {
        assert_eq!(
            Framework::TfPs.strategy(16),
            Strategy::PsAsync { servers: 1 }
        );
        assert_eq!(Framework::Xdl.strategy(16), Strategy::PsSync { servers: 4 });
        assert_eq!(Framework::Horovod.strategy(4), Strategy::DataParallel);
        assert_eq!(Framework::PyTorch.strategy(4), Strategy::ModelParallel);
        assert_eq!(Framework::Picasso.strategy(4), Strategy::Hybrid);
    }

    #[test]
    fn ablation_configs_differ_from_full() {
        use picasso_graph::PassId;
        let all = Optimizations::all();
        assert_ne!(Optimizations::without_packing(), all);
        assert_ne!(Optimizations::without_interleaving(), all);
        assert_ne!(Optimizations::without_caching(), all);
        assert!(!Optimizations::without_packing().enables(PassId::DPacking));
        assert!(Optimizations::without_packing().enables(PassId::Caching));
        assert!(!Optimizations::without_interleaving().enables(PassId::DInterleaving));
        assert!(!Optimizations::without_caching().enables(PassId::Caching));
        assert!(Optimizations::without_caching().enables(PassId::DPacking));
    }
}
