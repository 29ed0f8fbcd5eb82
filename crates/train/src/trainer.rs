//! The Table III experiment: the same model trained under the semantics of
//! the four compared systems, with AUC measured on held-out data.
//!
//! PICASSO, PyTorch and Horovod all train *synchronously* — they differ in
//! feasible batch size, not update semantics — while TF-PS applies
//! gradients asynchronously with staleness. The experiment therefore
//! contrasts synchronous updates at several batch sizes against stale
//! updates, reproducing the paper's observation that synchronous training
//! preserves (and on the attention models slightly improves) AUC.

use crate::metrics::auc;
use crate::models::{CtrModel, Variant};
use crate::optimizer::StalenessQueue;
use picasso_data::{BatchGenerator, DatasetSpec};
use std::sync::Arc;

/// Update semantics of a training system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// Synchronous data-parallel SGD (PICASSO / PyTorch / Horovod).
    Synchronous,
    /// Asynchronous parameter server: gradients applied `staleness` steps
    /// after they were computed (TF-PS).
    AsyncStale {
        /// Number of steps a gradient lags.
        staleness: usize,
    },
}

/// Learning rate (Adagrad) of every model [`train_ctr`] trains.
const LR: f32 = 0.1;

/// One training configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Optimization steps.
    pub steps: usize,
    /// Instances per step.
    pub batch: usize,
    /// Update semantics.
    pub mode: SyncMode,
    /// Data / init seed.
    pub seed: u64,
    /// Held-out evaluation instances.
    pub eval_size: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            steps: 120,
            batch: 256,
            mode: SyncMode::Synchronous,
            seed: 42,
            eval_size: 2048,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// AUC on the held-out evaluation batch.
    pub auc: f64,
    /// Final training loss.
    pub final_loss: f64,
    /// Loss at every step.
    pub loss_curve: Vec<f64>,
}

/// Trains `variant` on `data` under `cfg` and evaluates AUC.
pub fn train_ctr(variant: Variant, data: &Arc<DatasetSpec>, cfg: &TrainConfig) -> TrainOutcome {
    let mut gen = BatchGenerator::new(Arc::clone(data), cfg.seed);
    let eval = gen.next_batch(cfg.eval_size);
    let mut model = CtrModel::new(data, variant, LR, cfg.seed ^ 0x5151);

    let staleness = match cfg.mode {
        SyncMode::Synchronous => 0,
        SyncMode::AsyncStale { staleness } => staleness,
    };
    let mut queue = StalenessQueue::new(staleness);
    let mut loss_curve = Vec::with_capacity(cfg.steps);
    for _ in 0..cfg.steps {
        let batch = gen.next_batch(cfg.batch);
        let (stats, grads) = model.step(&batch, data);
        loss_curve.push(stats.loss);
        if let Some(due) = queue.exchange(grads) {
            model.apply(&due);
        }
    }
    // Late gradients still land (workers drain at the end of the epoch).
    let rest: Vec<_> = queue.drain().collect();
    for g in rest {
        model.apply(&g);
    }

    let scores = model.predict(&eval, data);
    TrainOutcome {
        auc: auc(&scores, &eval.labels),
        final_loss: *loss_curve.last().unwrap_or(&f64::NAN),
        loss_curve,
    }
}

/// Small datasets for the AUC benchmarks: shaped like Criteo (one-hot
/// fields, numeric features) and Alibaba (behaviour sequences), scaled to
/// CPU-trainable size.
pub mod auc_datasets {
    use picasso_data::{DatasetSpec, FieldSpec, IdDistribution};
    use std::sync::Arc;

    /// A Criteo-like dataset: 8 one-hot fields + 4 numeric features.
    pub fn criteo_like() -> Arc<DatasetSpec> {
        let dist = IdDistribution::Zipf { s: 1.05 };
        DatasetSpec {
            name: "criteo-like".into(),
            numeric: 4,
            fields: (0..8)
                .map(|i| FieldSpec::one_hot(format!("c{i}"), 2000, 8, dist, i))
                .collect(),
            instances: None,
        }
        .shared()
    }

    /// An Alibaba-like dataset: 4 one-hot profile fields + 2 behaviour
    /// sequences of average length 12.
    pub fn alibaba_like() -> Arc<DatasetSpec> {
        let dist = IdDistribution::Zipf { s: 1.2 };
        let mut fields: Vec<FieldSpec> = (0..4)
            .map(|i| FieldSpec::one_hot(format!("b{i}"), 2000, 8, dist, i))
            .collect();
        for s in 0..2 {
            fields.push(
                FieldSpec::one_hot(format!("seq{s}"), 4000, 8, dist, 4 + s).with_avg_ids(12.0),
            );
        }
        DatasetSpec {
            name: "alibaba-like".into(),
            numeric: 0,
            fields,
            instances: None,
        }
        .shared()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_training_reaches_good_auc() {
        let data = auc_datasets::criteo_like();
        let out = train_ctr(Variant::DotDeep, &data, &TrainConfig::default());
        assert!(out.auc > 0.65, "AUC {:.3}", out.auc);
        // Loss should trend downward.
        let early: f64 = out.loss_curve[..10].iter().sum::<f64>() / 10.0;
        let late: f64 = out.loss_curve[out.loss_curve.len() - 10..]
            .iter()
            .sum::<f64>()
            / 10.0;
        assert!(late < early, "loss {early:.4} -> {late:.4}");
    }

    #[test]
    fn stale_gradients_do_not_beat_synchronous() {
        let data = auc_datasets::alibaba_like();
        let mut cfg = TrainConfig {
            steps: 160,
            ..TrainConfig::default()
        };
        let sync = train_ctr(Variant::Attention, &data, &cfg);
        cfg.mode = SyncMode::AsyncStale { staleness: 4 };
        let stale = train_ctr(Variant::Attention, &data, &cfg);
        assert!(
            stale.auc <= sync.auc + 0.01,
            "stale {:.4} should not exceed sync {:.4}",
            stale.auc,
            sync.auc
        );
        assert!(
            stale.auc > 0.55,
            "stale training still learns: {:.3}",
            stale.auc
        );
    }

    #[test]
    fn outcomes_are_deterministic() {
        let data = auc_datasets::criteo_like();
        let cfg = TrainConfig {
            steps: 30,
            ..TrainConfig::default()
        };
        let a = train_ctr(Variant::Deep, &data, &cfg);
        let b = train_ctr(Variant::Deep, &data, &cfg);
        assert_eq!(a.auc, b.auc);
        assert_eq!(a.loss_curve, b.loss_curve);
    }
}
