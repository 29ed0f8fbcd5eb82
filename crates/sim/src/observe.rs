//! Exports a finished run into the [`picasso_obs`] metrics registry.
//!
//! This is the simulator side of the observability layer. It publishes the
//! run's one [`Measurement`] — exposed fractions, SM busy fraction, per-link
//! bytes/s and per-resource busy lanes — and walks the records only for what
//! the measurement does not hold: task counts, per-resource service totals,
//! task-duration and queue-wait histograms, queue depth and congestion
//! backlog. Everything is derived from the immutable [`RunResult`], so
//! exporting is observation-only and cannot perturb the schedule.

use crate::engine::{RunResult, TaskCategory};
use crate::metrics::Measurement;
use crate::resource::ResourceKind;
use picasso_obs::{MetricKind, MetricsRegistry};

/// Histogram bounds for task service and queue-wait times, seconds.
pub const TASK_SECONDS_BOUNDS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// Records a run's metrics into `registry`. `measured` is the run's
/// measurement ([`crate::measure`] of `result`); its time series are
/// published at its bucket width.
pub fn export_metrics(result: &RunResult, measured: &Measurement, registry: &MetricsRegistry) {
    registry.describe(
        "sim_tasks_total",
        MetricKind::Counter,
        "Tasks executed, by category",
    );
    registry.describe(
        "sim_ops_total",
        MetricKind::Counter,
        "Operations served, by resource kind",
    );
    registry.describe(
        "sim_makespan_seconds",
        MetricKind::Gauge,
        "Completion time of the last task",
    );
    registry.describe(
        "sim_exposed_fraction",
        MetricKind::Gauge,
        "Fraction of the makespan a category blocks alone",
    );
    registry.describe(
        "sim_task_seconds",
        MetricKind::Histogram,
        "Task service time, by category",
    );
    registry.describe(
        "sim_queue_wait_seconds",
        MetricKind::Histogram,
        "Time between readiness and service start, by resource kind",
    );
    registry.describe(
        "sim_sm_busy",
        MetricKind::TimeSeries,
        "Mean GPU SM busy fraction per bucket",
    );
    registry.describe(
        "sim_link_bytes_per_sec",
        MetricKind::TimeSeries,
        "Interconnect throughput per bucket, by link",
    );
    registry.describe(
        "sim_resource_busy",
        MetricKind::TimeSeries,
        "Busy fraction per bucket, by concrete resource",
    );
    registry.describe(
        "sim_queue_depth",
        MetricKind::TimeSeries,
        "Tasks ready but not yet served, all resources",
    );
    registry.describe(
        "sim_congestion_backlog_seconds",
        MetricKind::TimeSeries,
        "Queue backlog observed at each service start on congested links",
    );
    registry.histogram_buckets("sim_task_seconds", &TASK_SECONDS_BOUNDS);
    registry.histogram_buckets("sim_queue_wait_seconds", &TASK_SECONDS_BOUNDS);

    registry.gauge_set("sim_makespan_seconds", &[], result.makespan.as_secs_f64());

    for rec in &result.records {
        let category = rec.category.name();
        let kind = result.resources[rec.resource.0].spec.kind.name();
        registry.counter_add("sim_tasks_total", &[("category", category)], 1);
        registry.histogram_observe(
            "sim_task_seconds",
            &[("category", category)],
            (rec.end - rec.start).as_secs_f64(),
        );
        registry.histogram_observe(
            "sim_queue_wait_seconds",
            &[("kind", kind)],
            (rec.start - rec.ready).as_secs_f64(),
        );
    }
    for summary in &result.resources {
        let kind = summary.spec.kind.name();
        registry.counter_add("sim_ops_total", &[("kind", kind)], summary.ops_served);
    }

    for cat in TaskCategory::ALL {
        registry.gauge_set(
            "sim_exposed_fraction",
            &[("category", cat.name())],
            measured.breakdown.exposed_fraction(cat),
        );
    }

    if result.makespan.as_nanos() == 0 {
        // Zero-length run: totals above are still valid; there is no
        // timeline to sample.
        return;
    }

    let at = |i: usize| i as u64 * measured.bucket.as_nanos();
    for (i, &value) in measured.sm.samples.iter().enumerate() {
        registry.record_sample("sim_sm_busy", &[], at(i), value);
    }
    for (kind, bw) in [
        (ResourceKind::Pcie, &measured.pcie),
        (ResourceKind::NvLink, &measured.nvlink),
        (ResourceKind::Network, &measured.network),
    ] {
        for (i, &value) in bw.samples.iter().enumerate() {
            registry.record_sample(
                "sim_link_bytes_per_sec",
                &[("link", kind.name())],
                at(i),
                value,
            );
        }
    }

    // One counter lane per resource that ever served work; all-idle resources
    // still show up in the report's utilization block but would only clutter
    // the trace here.
    for lane in &measured.resources {
        if lane.busy_fraction == 0.0 {
            continue;
        }
        let labels = [
            ("resource", lane.resource.as_str()),
            ("kind", lane.kind.name()),
        ];
        for (i, &value) in lane.timeline.samples.iter().enumerate() {
            registry.record_sample("sim_resource_busy", &labels, at(i), value);
        }
    }

    // Queue depth: +1 when a task becomes ready, -1 when it starts serving.
    let mut edges: Vec<(u64, i64)> = Vec::with_capacity(result.records.len() * 2);
    for rec in &result.records {
        if rec.start > rec.ready {
            edges.push((rec.ready.as_nanos(), 1));
            edges.push((rec.start.as_nanos(), -1));
        }
    }
    edges.sort();
    let mut depth = 0i64;
    let mut i = 0;
    while i < edges.len() {
        let t = edges[i].0;
        while i < edges.len() && edges[i].0 == t {
            depth += edges[i].1;
            i += 1;
        }
        registry.record_sample("sim_queue_depth", &[], t, depth as f64);
    }

    // Congestion backlog at each service start on links that model it.
    for rec in &result.records {
        let spec = &result.resources[rec.resource.0].spec;
        if spec.congestion.is_some() {
            registry.record_sample(
                "sim_congestion_backlog_seconds",
                &[("link", spec.kind.name())],
                rec.start.as_nanos(),
                (rec.start - rec.ready).as_secs_f64(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Task};
    use crate::resource::{CongestionSpec, ResourceSpec};
    use crate::time::SimDuration;

    fn export(result: &RunResult) -> MetricsRegistry {
        let registry = MetricsRegistry::new();
        let measured = crate::measure(result, SimDuration::from_micros(100));
        export_metrics(result, &measured, &registry);
        registry
    }

    fn run_with_queueing() -> RunResult {
        let mut e = Engine::new();
        let g = e.add_resource(ResourceSpec::new("gpu", ResourceKind::GpuSm, 1e9, 0));
        let nw = e.add_resource(
            ResourceSpec::new("net", ResourceKind::Network, 1e9, 0).with_congestion_opt(Some(
                CongestionSpec {
                    alpha: 0.0,
                    tau: SimDuration::from_millis(1),
                },
            )),
        );
        // Two independent network tasks (second queues) feeding one compute.
        let a = e
            .add_task(Task::new(nw, 1e6, TaskCategory::Communication), &[])
            .unwrap();
        let b = e
            .add_task(Task::new(nw, 1e6, TaskCategory::Communication), &[])
            .unwrap();
        e.add_task(Task::new(g, 1e6, TaskCategory::Computation), &[a, b])
            .unwrap();
        e.run().unwrap()
    }

    #[test]
    fn exports_counters_histograms_and_series() {
        let result = run_with_queueing();
        let registry = export(&result);

        assert_eq!(
            registry.counter_value("sim_tasks_total", &[("category", "communication")]),
            2
        );
        assert_eq!(
            registry.counter_value("sim_tasks_total", &[("category", "computation")]),
            1
        );
        assert_eq!(
            registry.gauge_value("sim_makespan_seconds", &[]),
            Some(result.makespan.as_secs_f64())
        );

        let snap = registry.snapshot();
        let sm: Vec<_> = snap
            .series
            .iter()
            .filter(|((name, _), _)| name == "sim_sm_busy")
            .collect();
        assert_eq!(sm.len(), 1);
        // GPU is busy only in the last 1 ms of the 3 ms run.
        let samples = &sm[0].1.samples;
        assert_eq!(samples.len(), 30);
        assert!(samples.iter().rev().take(10).all(|&(_, v)| v > 0.99));

        // The queued task contributes a nonzero queue-depth sample.
        let depth = snap
            .series
            .iter()
            .find(|((name, _), _)| name == "sim_queue_depth")
            .expect("queue depth series");
        assert!(depth.1.samples.iter().any(|&(_, v)| v >= 1.0));

        // Congested network resource reports backlog at each start.
        let backlog = snap
            .series
            .iter()
            .find(|((name, _), _)| name == "sim_congestion_backlog_seconds")
            .expect("backlog series");
        assert_eq!(backlog.1.samples.len(), 2);
        assert!(backlog.1.samples.iter().any(|&(_, v)| v > 0.0));
    }

    #[test]
    fn per_resource_busy_lanes_skip_idle_resources() {
        let mut e = Engine::new();
        let g0 = e.add_resource(ResourceSpec::new("gpu0", ResourceKind::GpuSm, 1e9, 0));
        let _g1 = e.add_resource(ResourceSpec::new("gpu1", ResourceKind::GpuSm, 1e9, 0));
        e.add_task(Task::new(g0, 1e6, TaskCategory::Computation), &[])
            .unwrap();
        let result = e.run().unwrap();
        let registry = export(&result);

        let snap = registry.snapshot();
        let lanes: Vec<_> = snap
            .series
            .iter()
            .filter(|((name, _), _)| name == "sim_resource_busy")
            .collect();
        // Only the busy gpu0 gets a lane; idle gpu1 is suppressed.
        assert_eq!(lanes.len(), 1);
        let (key, series) = lanes[0];
        assert!(key.1.iter().any(|(k, v)| k == "resource" && v == "gpu0"));
        assert!(key.1.iter().any(|(k, v)| k == "kind" && v == "gpu-sm"));
        assert!(series.samples.iter().all(|&(_, v)| (v - 1.0).abs() < 1e-9));
    }

    #[test]
    fn empty_run_exports_without_timeline() {
        let result = Engine::new().run().unwrap();
        let registry = export(&result);
        assert_eq!(registry.gauge_value("sim_makespan_seconds", &[]), Some(0.0));
        let snap = registry.snapshot();
        assert!(snap.series.is_empty());
        assert!(snap.counters.is_empty());
    }
}
