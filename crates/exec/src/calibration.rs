//! Cost-model calibration: predicted stage cost vs. observed simulated time.
//!
//! The scheduler's cost model ([`crate::costs`]) predicts each stage's
//! duration as `launch_overhead + work / rate` on its target resource. The
//! engine then adds everything the closed-form model leaves out — channel
//! queueing and congestion slowdown — so the gap between prediction and the
//! observed record is exactly the run's emergent contention. This module
//! aggregates that gap per resource class and per operator kind, both for the
//! run report (`calibration` section) and as error histograms in the metrics
//! registry. Everything is derived after the run from immutable outputs, so
//! calibration is observation-only.

use crate::scheduler::SimulationOutput;
use picasso_graph::OpKind;
use picasso_obs::{Json, MetricKind, MetricsRegistry};
use picasso_sim::{TaskCategory, TaskId};
use std::collections::BTreeMap;

/// Predicted cost of one scheduled stage, recorded while the graph is built.
#[derive(Debug, Clone, Copy)]
pub struct CostRecord {
    /// Engine task the prediction is for.
    pub task: TaskId,
    /// Logical operator the stage implements.
    pub kind: OpKind,
    /// Model-predicted duration, seconds (overhead + work / rate).
    pub predicted_secs: f64,
}

/// Accumulated prediction error for one group of stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct CalibrationStats {
    /// Stages aggregated.
    pub tasks: u64,
    /// Total predicted duration, seconds.
    pub predicted_secs: f64,
    /// Total observed duration, seconds.
    pub observed_secs: f64,
    /// Sum of per-stage absolute relative errors.
    pub sum_abs_rel_error: f64,
    /// Largest per-stage absolute relative error.
    pub max_abs_rel_error: f64,
}

impl CalibrationStats {
    fn observe(&mut self, predicted: f64, observed: f64) {
        self.tasks += 1;
        self.predicted_secs += predicted;
        self.observed_secs += observed;
        if let Some(err) = rel_error(predicted, observed) {
            self.sum_abs_rel_error += err.abs();
            self.max_abs_rel_error = self.max_abs_rel_error.max(err.abs());
        }
    }

    /// Mean absolute relative error across stages.
    pub fn mean_abs_rel_error(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.sum_abs_rel_error / self.tasks as f64
        }
    }

    /// Aggregate bias `observed / predicted - 1`: positive when the model
    /// underestimates (contention dominates), negative when it overestimates.
    pub fn bias(&self) -> f64 {
        rel_error(self.predicted_secs, self.observed_secs).unwrap_or(0.0)
    }
}

/// Relative error `(observed - predicted) / predicted`; `None` when the
/// prediction is zero or either side is non-finite.
fn rel_error(predicted: f64, observed: f64) -> Option<f64> {
    if predicted <= 0.0 || !predicted.is_finite() || !observed.is_finite() {
        return None;
    }
    Some((observed - predicted) / predicted)
}

/// Calibration of the cost model against one finished simulation.
#[derive(Debug, Clone, Default)]
pub struct CalibrationReport {
    /// Error stats per resource class (the task's attribution category).
    pub per_class: BTreeMap<TaskCategory, CalibrationStats>,
    /// Error stats per logical operator kind (`Debug` name).
    pub per_kind: BTreeMap<String, CalibrationStats>,
}

impl CalibrationReport {
    /// Joins the scheduler's predicted costs with the engine's observed
    /// records.
    pub fn from_simulation(out: &SimulationOutput) -> CalibrationReport {
        let mut report = CalibrationReport::default();
        // Per kind, indexed by discriminant; each kind's name is rendered
        // once, after the loop.
        let mut per_kind: Vec<Option<(OpKind, CalibrationStats)>> = Vec::new();
        for (cost, secs, category) in joined(out) {
            report
                .per_class
                .entry(category)
                .or_default()
                .observe(cost.predicted_secs, secs);
            let at = cost.kind as usize;
            if per_kind.len() <= at {
                per_kind.resize(at + 1, None);
            }
            per_kind[at]
                .get_or_insert((cost.kind, CalibrationStats::default()))
                .1
                .observe(cost.predicted_secs, secs);
        }
        report.per_kind = per_kind
            .into_iter()
            .flatten()
            .map(|(kind, stats)| (format!("{kind:?}"), stats))
            .collect();
        report
    }

    /// JSON form: `{"classes": {...}, "kinds": {...}}` with per-group
    /// predicted/observed totals, bias, and error summaries.
    pub fn to_json(&self) -> Json {
        let stats_json = |s: &CalibrationStats| {
            Json::obj([
                ("tasks", Json::UInt(s.tasks)),
                ("predicted_secs", Json::Num(s.predicted_secs)),
                ("observed_secs", Json::Num(s.observed_secs)),
                ("bias", Json::Num(s.bias())),
                ("mean_abs_rel_error", Json::Num(s.mean_abs_rel_error())),
                ("max_abs_rel_error", Json::Num(s.max_abs_rel_error)),
            ])
        };
        let classes = Json::Obj(
            self.per_class
                .iter()
                .map(|(cat, stats)| (cat.to_string(), stats_json(stats)))
                .collect(),
        );
        let kinds = Json::Obj(
            self.per_kind
                .iter()
                .map(|(kind, stats)| (kind.clone(), stats_json(stats)))
                .collect(),
        );
        Json::obj([("classes", classes), ("kinds", kinds)])
    }
}

/// Histogram bounds for per-stage absolute relative error.
pub const REL_ERROR_BOUNDS: [f64; 7] = [0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0];

/// Records per-stage absolute relative errors into `registry` as the
/// `exec_cost_rel_error` histogram, labeled by resource class.
pub fn export_metrics(out: &SimulationOutput, registry: &MetricsRegistry) {
    registry.describe(
        "exec_cost_rel_error",
        MetricKind::Histogram,
        "Absolute relative error of the stage cost model, by class",
    );
    registry.histogram_buckets("exec_cost_rel_error", &REL_ERROR_BOUNDS);
    for (cost, secs, category) in joined(out) {
        if let Some(err) = rel_error(cost.predicted_secs, secs) {
            registry.histogram_observe(
                "exec_cost_rel_error",
                &[("class", category.name())],
                err.abs(),
            );
        }
    }
}

/// Each predicted stage with its task's observed duration (seconds) and
/// category. `records` is indexed by task id; a prediction for a task the
/// run has no record of is skipped.
fn joined(out: &SimulationOutput) -> impl Iterator<Item = (&CostRecord, f64, TaskCategory)> {
    out.costs.iter().filter_map(|cost| {
        let rec = out.result.records.get(cost.task.0)?;
        Some((cost, (rec.end - rec.start).as_secs_f64(), rec.category))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{simulate, SimConfig};
    use crate::strategy::Strategy;
    use picasso_data::DatasetSpec;
    use picasso_models::ModelKind;
    use picasso_sim::MachineSpec;

    fn sample_output() -> SimulationOutput {
        let data = DatasetSpec::criteo();
        let spec = ModelKind::Dlrm.build(&data);
        let cfg = SimConfig {
            batch_per_executor: 1024,
            iterations: 2,
            machines: 1,
            machine: MachineSpec::eflops(),
            quantized_comm: false,
        };
        simulate(&spec, Strategy::Hybrid, &cfg).unwrap()
    }

    #[test]
    fn rel_error_guards_degenerate_predictions() {
        assert_eq!(rel_error(1.0, 1.5), Some(0.5));
        assert_eq!(rel_error(0.0, 1.0), None);
        assert_eq!(rel_error(-1.0, 1.0), None);
        assert_eq!(rel_error(1.0, f64::NAN), None);
    }

    #[test]
    fn calibration_joins_every_predicted_stage() {
        let out = sample_output();
        assert!(!out.costs.is_empty(), "scheduler should record predictions");
        let report = CalibrationReport::from_simulation(&out);
        assert!(!report.per_class.is_empty());
        let total: u64 = report.per_class.values().map(|s| s.tasks).sum();
        assert_eq!(total, out.costs.len() as u64);
        let by_kind: u64 = report.per_kind.values().map(|s| s.tasks).sum();
        assert_eq!(by_kind, total);
        // The model omits queueing/congestion, so the aggregate can only be
        // underestimated or exact — never overestimated.
        for (cat, stats) in &report.per_class {
            assert!(
                stats.bias() >= -1e-9,
                "{cat}: model overestimated, bias {}",
                stats.bias()
            );
            assert!(stats.predicted_secs > 0.0);
            assert!(stats.observed_secs >= stats.predicted_secs - 1e-9);
        }
    }

    #[test]
    fn calibration_json_has_classes_and_kinds() {
        let out = sample_output();
        let json = CalibrationReport::from_simulation(&out).to_json();
        let Some(Json::Obj(classes)) = json.get("classes") else {
            panic!("classes must be an object");
        };
        let (_, first) = classes.first().expect("nonempty classes");
        assert!(first.get("tasks").and_then(Json::as_u64).unwrap() > 0);
        assert!(first.get("bias").and_then(Json::as_f64).is_some());
        let Some(Json::Obj(kinds)) = json.get("kinds") else {
            panic!("kinds must be an object");
        };
        assert!(!kinds.is_empty());
    }

    #[test]
    fn export_metrics_records_error_histogram() {
        let out = sample_output();
        let registry = MetricsRegistry::new();
        export_metrics(&out, &registry);
        let snap = registry.snapshot();
        let total: u64 = snap
            .histograms
            .iter()
            .filter(|((name, _), _)| name == "exec_cost_rel_error")
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(total, out.costs.len() as u64);
    }
}
