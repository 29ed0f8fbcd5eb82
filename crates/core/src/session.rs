//! High-level training sessions.

use crate::config::PicassoConfig;
use picasso_data::DatasetSpec;
use picasso_exec::{Framework, ModelKind, RunArtifacts, Strategy, TrainError, TrainingReport};
use std::sync::Arc;

/// A configured model + dataset + cluster, ready to run under any
/// framework.
#[derive(Debug, Clone)]
pub struct Session {
    model: ModelKind,
    data: Arc<DatasetSpec>,
    config: PicassoConfig,
}

impl Session {
    /// Creates a session for `model` on its Table II default dataset.
    pub fn new(model: ModelKind, config: PicassoConfig) -> Session {
        Session {
            data: model.default_dataset().shared(),
            model,
            config,
        }
    }

    /// Creates a session with an explicit dataset.
    pub fn with_dataset(
        model: ModelKind,
        data: Arc<DatasetSpec>,
        config: PicassoConfig,
    ) -> Session {
        Session {
            model,
            data,
            config,
        }
    }

    /// Trains under full PICASSO, surfacing pipeline-validation and
    /// graph-lowering failures instead of panicking.
    pub fn try_run_picasso(&self) -> Result<RunArtifacts, TrainError> {
        picasso_exec::run(
            self.model,
            &self.data,
            Strategy::Hybrid,
            self.config.optimizations.clone(),
            "PICASSO",
            &self.config.trainer_options(),
        )
    }

    /// Trains under full PICASSO.
    ///
    /// Panics on an invalid pipeline or task graph; use
    /// [`Session::try_run_picasso`] to handle those as errors.
    pub fn run_picasso(&self) -> RunArtifacts {
        self.try_run_picasso()
            .unwrap_or_else(|e| panic!("PICASSO run failed: {e}"))
    }

    /// Trains under a named framework preset (baselines ignore the
    /// session's optimization pipeline), surfacing failures as errors.
    pub fn try_run_framework(&self, framework: Framework) -> Result<RunArtifacts, TrainError> {
        picasso_exec::train(
            self.model,
            &self.data,
            framework,
            &self.config.trainer_options(),
        )
    }

    /// Trains under a named framework preset (baselines ignore the
    /// session's optimization pipeline).
    ///
    /// Panics on an invalid pipeline or task graph; use
    /// [`Session::try_run_framework`] to handle those as errors.
    pub fn run_framework(&self, framework: Framework) -> RunArtifacts {
        self.try_run_framework(framework)
            .unwrap_or_else(|e| panic!("{} run failed: {e}", framework.name()))
    }

    /// Trains with an explicit strategy + pipeline combination, surfacing
    /// failures as errors.
    pub fn try_run_custom(
        &self,
        strategy: Strategy,
        optimizations: picasso_exec::Optimizations,
        label: &str,
    ) -> Result<RunArtifacts, TrainError> {
        picasso_exec::run(
            self.model,
            &self.data,
            strategy,
            optimizations,
            label,
            &self.config.trainer_options(),
        )
    }

    /// Runs the static analyzer over the session's planned PICASSO run
    /// without simulating: spec, plan, and stage surfaces, all severities.
    pub fn try_lint(&self) -> Result<Vec<picasso_exec::Diagnostic>, TrainError> {
        picasso_exec::lint(
            self.model,
            &self.data,
            Strategy::Hybrid,
            self.config.optimizations.clone(),
            &self.config.trainer_options(),
        )
    }

    /// Trains with an explicit strategy + pipeline combination.
    ///
    /// Panics on an invalid pipeline or task graph; use
    /// [`Session::try_run_custom`] to handle those as errors.
    pub fn run_custom(
        &self,
        strategy: Strategy,
        optimizations: picasso_exec::Optimizations,
        label: &str,
    ) -> RunArtifacts {
        self.try_run_custom(strategy, optimizations, label)
            .unwrap_or_else(|e| panic!("{label} run failed: {e}"))
    }

    /// Convenience: just the report of a full PICASSO run.
    pub fn report(&self) -> TrainingReport {
        self.run_picasso().report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use picasso_exec::WarmupConfig;

    fn quick() -> PicassoConfig {
        PicassoConfig {
            iterations: 3,
            warmup: WarmupConfig {
                batches: 4,
                batch_size: 256,
                max_vocab: 1000,
                hot_bytes: 1 << 24,
                seed: 1,
            },
            batch_per_executor: Some(1024),
            ..PicassoConfig::default()
        }
    }

    #[test]
    fn session_runs_picasso_and_baseline() {
        let s = Session::new(ModelKind::Dlrm, quick());
        let p = s.run_picasso();
        let b = s.run_framework(Framework::TfPs);
        assert!(p.report.ips_per_node > b.report.ips_per_node);
        assert_eq!(p.report.model, "DLRM");
    }

    #[test]
    fn invalid_pipelines_return_errors_instead_of_reports() {
        use picasso_exec::{Optimizations, PassId, Strategy, TrainError};
        let s = Session::new(ModelKind::Dlrm, quick());
        let bad = Optimizations::new(vec![PassId::Caching, PassId::Caching]);
        let err = s.try_run_custom(Strategy::Hybrid, bad, "dup").unwrap_err();
        assert!(matches!(err, TrainError::Pipeline(_)));
        assert!(s.try_run_picasso().is_ok());
    }

    #[test]
    fn lint_surfaces_cycles_the_run_would_reject() {
        use picasso_exec::{Optimizations, Severity};
        // Packing disabled so DLRM keeps all 26 chains and the 3 requested
        // groups all exist (a declared dep on a missing group is ignored).
        let mut cfg = quick()
            .optimizations(Optimizations::without_packing())
            .interleaving_groups(3);
        cfg.group_deps = vec![(2, 0)];
        let s = Session::new(ModelKind::Dlrm, cfg);
        let diags = s.try_lint().expect("valid pipeline");
        assert!(diags.iter().any(|d| d.rule == "stage.dependency-cycle"));
        let err = s.try_run_picasso().unwrap_err();
        assert!(matches!(err, TrainError::Lint(_)));
        // A healthy session lints clean of errors.
        let clean = (Session::new(ModelKind::Dlrm, quick()).try_lint()).expect("valid pipeline");
        assert!(
            clean.iter().all(|d| d.severity < Severity::Error),
            "{clean:?}"
        );
    }

    #[test]
    fn session_respects_custom_dataset() {
        let data = DatasetSpec::product1().shared();
        let s = Session::with_dataset(ModelKind::Lr, data, quick());
        assert_eq!(s.data.name, "product-1");
        let r = s.report();
        assert!(r.ips_per_node > 0.0);
    }
}
