//! Training-run telemetry: the DCGM-style measurements the paper reports.
//!
//! [`TrainingReport::from_simulation`] measures the run once, at
//! [`telemetry_bucket`], and keeps that [`Measurement`]. The report's
//! headline fields are derived from it, and the metrics exporters
//! ([`crate::observe::export_metrics`]) publish it as it is.

use crate::calibration::CalibrationReport;
use crate::observe::telemetry_bucket;
use crate::scheduler::SimulationOutput;
use picasso_graph::GraphStats;
use picasso_obs::Json;
use picasso_sim::{measure, Measurement, ResourceKind, SimDuration, TaskCategory};
use std::collections::BTreeMap;

/// All metrics of one training run (one framework x model x cluster).
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Framework preset name.
    pub framework: String,
    /// Model name.
    pub model: String,
    /// Instances per second per machine.
    pub ips_per_node: f64,
    /// Seconds per training iteration.
    pub secs_per_iteration: f64,
    /// Instances per executor per iteration.
    pub batch_per_executor: usize,
    /// D-interleaving micro-batches in effect.
    pub micro_batches: usize,
    /// K-interleaving groups in effect.
    pub groups: usize,
    /// Mean GPU SM utilization in percent (DCGM-style).
    pub sm_util_pct: f64,
    /// GPU SM utilization CDF points `(utilization, fraction)` (Fig. 11).
    pub sm_util_cdf: Vec<(f64, f64)>,
    /// Mean PCIe bandwidth in GB/s (Fig. 12 / Table IV).
    pub pcie_gbps: f64,
    /// Mean NVLink bandwidth in GB/s (Fig. 12).
    pub nvlink_gbps: f64,
    /// Mean network bandwidth in Gbit/s (Table IV "Comm.").
    pub network_gbps: f64,
    /// Exposed-time fraction of the makespan per category (Fig. 5).
    pub exposed: BTreeMap<TaskCategory, f64>,
    /// Busy-time fraction per category (may overlap).
    pub busy: BTreeMap<TaskCategory, f64>,
    /// Graph operation statistics (Table V).
    pub op_stats: GraphStats,
    /// Measured HybridHash hit ratio (0 when caching is off).
    pub cache_hit_ratio: f64,
    /// Makespan attribution along the engine's critical path, per resource
    /// kind in seconds — names the bottleneck.
    pub critical_path_secs: Vec<(ResourceKind, f64)>,
    /// Cost-model calibration: predicted vs. observed stage durations per
    /// resource class and operator kind.
    pub calibration: CalibrationReport,
    /// The run's measurement: SM, link and per-resource timelines and the
    /// category breakdown. Its `resources` are the report's `utilization`
    /// section (a Fig. 5-style profile of every device, link and thread
    /// pool).
    pub measured: Measurement,
    /// Executors in the run.
    pub executors: usize,
    /// Worker machines in the run.
    pub machines: usize,
}

impl TrainingReport {
    /// Builds the report from a finished simulation.
    pub fn from_simulation(
        framework: impl Into<String>,
        model: impl Into<String>,
        out: &SimulationOutput,
        op_stats: GraphStats,
        micro_batches: usize,
        groups: usize,
        cache_hit_ratio: f64,
    ) -> TrainingReport {
        let measured = measure(&out.result, telemetry_bucket(&out.result));
        let breakdown = &measured.breakdown;

        // Degenerate shapes (zero executors or machines) divide by 1 instead:
        // the per-device bandwidth fields then report cluster totals rather
        // than poisoning the report with NaN/infinity.
        let per_exec = out.executors.max(1) as f64;
        let per_node = out.machines.max(1) as f64;
        let mut exposed = BTreeMap::new();
        let mut busy = BTreeMap::new();
        for cat in TaskCategory::ALL {
            exposed.insert(cat, breakdown.exposed_fraction(cat));
            let b = breakdown
                .busy
                .get(&cat)
                .copied()
                .unwrap_or(SimDuration::ZERO);
            busy.insert(
                cat,
                b.as_secs_f64() / out.result.makespan.as_secs_f64().max(1e-12),
            );
        }

        let critical_path_secs = out
            .result
            .critical_path_by_kind()
            .into_iter()
            .map(|(k, d)| (k, d.as_secs_f64()))
            .collect();
        TrainingReport {
            framework: framework.into(),
            model: model.into(),
            ips_per_node: out.ips_per_node(),
            secs_per_iteration: out.secs_per_iteration(),
            batch_per_executor: out.batch,
            micro_batches,
            groups,
            sm_util_pct: measured.sm.mean() * 100.0,
            sm_util_cdf: measured
                .sm
                .cdf()
                .into_iter()
                .map(|(u, f)| (u * 100.0, f))
                .collect(),
            pcie_gbps: measured.pcie.mean() / per_exec / 1e9,
            nvlink_gbps: measured.nvlink.mean() / per_node / 1e9,
            network_gbps: measured.network.mean() / per_node * 8.0 / 1e9,
            exposed,
            busy,
            op_stats,
            cache_hit_ratio,
            critical_path_secs,
            calibration: CalibrationReport::from_simulation(out),
            measured,
            executors: out.executors,
            machines: out.machines,
        }
    }

    /// The resource kind that dominates the critical path (the bottleneck).
    pub fn bottleneck(&self) -> Option<ResourceKind> {
        self.critical_path_secs
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|&(k, _)| k)
    }

    /// GPU-core-hours to process `instances` at this throughput with
    /// `gpus_total` devices (the Fig. 10 / Table X walltime metric). Zero
    /// when the run had no throughput (degenerate shapes) rather than
    /// infinity.
    pub fn gpu_core_hours(&self, instances: f64) -> f64 {
        let cluster_ips = self.ips_per_node * self.machines as f64;
        if cluster_ips <= 0.0 {
            return 0.0;
        }
        let hours = instances / cluster_ips / 3600.0;
        hours * self.executors as f64
    }

    /// Serializes the report as a JSON document. The field set is pinned by
    /// a golden test; extend it deliberately (and bump the run-report schema
    /// version in `picasso-obs` when the envelope changes shape).
    pub fn to_json(&self) -> Json {
        let fractions = |m: &BTreeMap<TaskCategory, f64>| {
            Json::Obj(
                m.iter()
                    .map(|(cat, v)| (cat.to_string(), Json::from(*v)))
                    .collect(),
            )
        };
        Json::obj([
            ("framework", Json::str(&self.framework)),
            ("model", Json::str(&self.model)),
            ("ips_per_node", self.ips_per_node.into()),
            ("secs_per_iteration", self.secs_per_iteration.into()),
            ("batch_per_executor", self.batch_per_executor.into()),
            ("micro_batches", self.micro_batches.into()),
            ("groups", self.groups.into()),
            ("sm_util_pct", self.sm_util_pct.into()),
            (
                "sm_util_cdf",
                Json::Arr(
                    self.sm_util_cdf
                        .iter()
                        .map(|&(u, f)| Json::Arr(vec![u.into(), f.into()]))
                        .collect(),
                ),
            ),
            ("pcie_gbps", self.pcie_gbps.into()),
            ("nvlink_gbps", self.nvlink_gbps.into()),
            ("network_gbps", self.network_gbps.into()),
            ("exposed", fractions(&self.exposed)),
            ("busy", fractions(&self.busy)),
            (
                "op_stats",
                Json::obj([
                    ("total_ops", self.op_stats.total_ops.into()),
                    ("forward_ops", self.op_stats.forward_ops.into()),
                    ("chain_ops", self.op_stats.chain_ops.into()),
                    ("module_ops", self.op_stats.module_ops.into()),
                    ("mlp_ops", self.op_stats.mlp_ops.into()),
                    ("sync_ops", self.op_stats.sync_ops.into()),
                    ("packed_embeddings", self.op_stats.packed_embeddings.into()),
                ]),
            ),
            ("cache_hit_ratio", self.cache_hit_ratio.into()),
            (
                "critical_path_secs",
                Json::Obj(
                    self.critical_path_secs
                        .iter()
                        .map(|&(kind, secs)| (kind.to_string(), Json::from(secs)))
                        .collect(),
                ),
            ),
            ("calibration", self.calibration.to_json()),
            (
                "utilization",
                Json::Arr(
                    self.measured
                        .resources
                        .iter()
                        .map(|lane| {
                            Json::obj([
                                ("resource", Json::str(&lane.resource)),
                                ("kind", Json::str(lane.kind.to_string())),
                                ("node", lane.node.into()),
                                ("busy_fraction", lane.busy_fraction.into()),
                                ("idle_fraction", lane.idle_fraction().into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("executors", self.executors.into()),
            ("machines", self.machines.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{simulate, SimConfig};
    use crate::strategy::Strategy;
    use picasso_data::DatasetSpec;
    use picasso_graph::graph_stats;
    use picasso_models::ModelKind;
    use picasso_sim::MachineSpec;

    fn report() -> TrainingReport {
        let data = DatasetSpec::criteo();
        let spec = ModelKind::Dlrm.build(&data);
        let cfg = SimConfig {
            batch_per_executor: 2048,
            iterations: 3,
            machines: 1,
            machine: MachineSpec::eflops(),
            quantized_comm: false,
        };
        let out = simulate(&spec, Strategy::Hybrid, &cfg).unwrap();
        TrainingReport::from_simulation("test", "DLRM", &out, graph_stats(&spec), 1, 1, 0.0)
    }

    #[test]
    fn report_fields_are_sane() {
        let r = report();
        assert!(r.ips_per_node > 0.0);
        assert!(r.secs_per_iteration > 0.0);
        assert!((0.0..=100.0).contains(&r.sm_util_pct), "{}", r.sm_util_pct);
        assert!(!r.sm_util_cdf.is_empty());
        assert!(r.pcie_gbps >= 0.0);
        assert!(r.network_gbps >= 0.0);
        let exposed_total: f64 = r.exposed.values().sum();
        assert!(
            exposed_total <= 1.0 + 1e-9,
            "exposures partition the makespan"
        );
    }

    #[test]
    fn gpu_core_hours_scale_with_instances() {
        let r = report();
        let h1 = r.gpu_core_hours(1e9);
        let h2 = r.gpu_core_hours(2e9);
        assert!((h2 / h1 - 2.0).abs() < 1e-9);
        assert!(h1 > 0.0);
    }

    #[test]
    fn bottleneck_is_reported() {
        let r = report();
        assert!(!r.critical_path_secs.is_empty());
        assert!(r.bottleneck().is_some());
        let total: f64 = r.critical_path_secs.iter().map(|&(_, s)| s).sum();
        assert!(total > 0.0 && total <= r.secs_per_iteration * 3.0 * 1.01);
    }

    #[test]
    fn to_json_pins_the_field_set() {
        let r = report();
        let json = r.to_json();
        let Json::Obj(fields) = &json else {
            panic!("report serializes to an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        // Golden field set: additions/removals/renames must be deliberate —
        // downstream run-report consumers key on these names.
        assert_eq!(
            keys,
            [
                "framework",
                "model",
                "ips_per_node",
                "secs_per_iteration",
                "batch_per_executor",
                "micro_batches",
                "groups",
                "sm_util_pct",
                "sm_util_cdf",
                "pcie_gbps",
                "nvlink_gbps",
                "network_gbps",
                "exposed",
                "busy",
                "op_stats",
                "cache_hit_ratio",
                "critical_path_secs",
                "calibration",
                "utilization",
                "executors",
                "machines",
            ]
        );
        // The document round-trips through the parser with values intact.
        let parsed = picasso_obs::json::parse(&json.to_json()).unwrap();
        assert_eq!(parsed.get("model").and_then(Json::as_str), Some("DLRM"));
        assert_eq!(
            parsed.get("ips_per_node").and_then(Json::as_f64),
            Some(r.ips_per_node)
        );
        assert_eq!(
            parsed
                .get("op_stats")
                .and_then(|o| o.get("total_ops"))
                .and_then(Json::as_u64),
            Some(r.op_stats.total_ops)
        );
        assert_eq!(
            parsed
                .get("exposed")
                .and_then(|o| o.get("communication"))
                .and_then(Json::as_f64),
            r.exposed.get(&TaskCategory::Communication).copied()
        );
    }

    #[test]
    fn report_carries_calibration_and_utilization() {
        let r = report();
        assert!(!r.calibration.per_class.is_empty());
        let profiled = &r.measured.resources;
        assert!(!profiled.is_empty());
        // Every executor's SM shows up as a profiled resource, and at least
        // one resource did real work.
        assert!(profiled.iter().any(|l| l.kind == ResourceKind::GpuSm));
        assert!(profiled.iter().any(|l| l.busy_fraction > 0.0));
        let json = r.to_json();
        let lanes = json.get("utilization").and_then(Json::items).unwrap();
        assert_eq!(lanes.len(), profiled.len());
        let first = &lanes[0];
        let busy = first.get("busy_fraction").and_then(Json::as_f64).unwrap();
        let idle = first.get("idle_fraction").and_then(Json::as_f64).unwrap();
        assert!((busy + idle - 1.0).abs() < 1e-9);
        assert!(first.get("node").and_then(Json::as_u64).is_some());
    }

    #[test]
    fn zero_iteration_run_reports_zeroes_not_nan() {
        let data = DatasetSpec::criteo();
        let spec = ModelKind::Dlrm.build(&data);
        let cfg = SimConfig {
            batch_per_executor: 1024,
            iterations: 0,
            machines: 1,
            machine: MachineSpec::eflops(),
            quantized_comm: false,
        };
        let out = simulate(&spec, Strategy::Hybrid, &cfg).unwrap();
        assert!(out.result.records.is_empty());
        assert_eq!(out.ips_per_node(), 0.0);
        assert_eq!(out.secs_per_iteration(), 0.0);
        let r = TrainingReport::from_simulation("t", "DLRM", &out, graph_stats(&spec), 1, 1, 0.0);
        assert_eq!(r.ips_per_node, 0.0);
        assert_eq!(r.secs_per_iteration, 0.0);
        assert_eq!(r.gpu_core_hours(1e9), 0.0, "no throughput, not infinity");
        assert!(r.sm_util_cdf.is_empty());
        // The degenerate report still serializes cleanly.
        assert!(picasso_obs::json::parse(&r.to_json().to_json()).is_ok());
    }

    #[test]
    fn empty_graph_simulates_and_reports() {
        // A spec with no chains and no modules still has IO + MLP + sync.
        let spec = picasso_graph::WdlSpec {
            name: "empty".into(),
            io_bytes_per_instance: 8.0,
            chains: vec![],
            modules: vec![],
            mlp: picasso_graph::MlpSpec::new(8, vec![16, 1]),
            micro_batches: 1,
            group_deps: Vec::new(),
        };
        let cfg = SimConfig {
            batch_per_executor: 256,
            iterations: 2,
            machines: 1,
            machine: MachineSpec::eflops(),
            quantized_comm: false,
        };
        let out = simulate(&spec, Strategy::Hybrid, &cfg).unwrap();
        assert!(out.result.makespan.as_secs_f64() > 0.0);
        let r = TrainingReport::from_simulation("t", "empty", &out, graph_stats(&spec), 1, 1, 0.0);
        assert!(r.ips_per_node > 0.0);
        assert!(r.gpu_core_hours(1e6).is_finite());
    }

    #[test]
    fn machines_zero_is_guarded_everywhere() {
        let mut r = report();
        r.machines = 0;
        r.ips_per_node = 0.0;
        assert_eq!(r.gpu_core_hours(1e9), 0.0);
    }

    #[test]
    fn cdf_is_normalized() {
        let r = report();
        let last = r.sm_util_cdf.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-9);
        for w in r.sm_util_cdf.windows(2) {
            assert!(w[1].0 >= w[0].0);
        }
    }
}
