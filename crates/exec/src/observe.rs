//! Scheduler-level observability: iteration, executor, micro-batch, and
//! K-group spans derived from a finished simulation.
//!
//! The scheduler emits tasks contiguously per logical scope, so
//! [`ScheduleScopes`] records each scope as a half-open range of engine
//! task ids captured with `Engine::task_count()` snapshots while the graph
//! is built. Spans are then derived *after* the run from the immutable
//! [`RunResult`], which makes the whole layer observation-only: exporting
//! (or not exporting) cannot perturb the schedule, so a run with
//! observability on is bit-identical to one with it off.
//!
//! [`chrome_trace`]'s critical-path track walks
//! [`picasso_sim::analysis::critical_path`] over the run's records, the
//! path the causal analysis reports. Its record loop writes each task
//! record from fragments rendered once per run: a slice head per
//! (resource, category) and a flow lane per resource.

use crate::scheduler::SimulationOutput;
use picasso_obs::flight::{FlightConfig, FlightRecorder};
use picasso_obs::{ChromeTrace, FlowLane, ManualClock, MetricKind, MetricsRegistry, Tracer, Track};
use picasso_sim::{Binding, Measurement, RunResult, SimDuration, TaskCategory};

/// Half-open `[start, end)` range of engine task ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaskRange {
    /// First task id in the range.
    pub start: usize,
    /// One past the last task id.
    pub end: usize,
}

impl TaskRange {
    /// The `[min start, max end]` wall-clock interval (in sim nanoseconds)
    /// covered by the range's task records, or `None` for an empty range.
    pub fn interval(&self, result: &RunResult) -> Option<(u64, u64)> {
        let end = self.end.min(result.records.len());
        if end <= self.start {
            return None;
        }
        let recs = &result.records[self.start..end];
        let start_ns = recs.iter().map(|r| r.start.as_nanos()).min()?;
        let end_ns = recs.iter().map(|r| r.end.as_nanos()).max()?;
        Some((start_ns, end_ns))
    }
}

/// Tasks of one D-interleaving micro-batch on one executor.
#[derive(Debug, Clone, Default)]
pub struct MicroBatchScope {
    /// Micro-batch index within the iteration.
    pub index: usize,
    /// All tasks of the micro-batch.
    pub range: TaskRange,
    /// Per-K-group sub-ranges of the embedding layer.
    pub groups: Vec<TaskRange>,
}

/// Tasks of one executor within one iteration.
#[derive(Debug, Clone, Default)]
pub struct ExecutorScope {
    /// Executor (GPU worker) index.
    pub executor: usize,
    /// All tasks the executor contributes to the iteration, including the
    /// data prefetch and the dense parameter synchronization.
    pub range: TaskRange,
    /// The executor's micro-batches (only those with a nonzero share).
    pub micro_batches: Vec<MicroBatchScope>,
}

/// Tasks of one training iteration across all executors.
#[derive(Debug, Clone, Default)]
pub struct IterationScope {
    /// Iteration index.
    pub index: usize,
    /// All tasks of the iteration, including the global barrier under
    /// synchronous strategies.
    pub range: TaskRange,
    /// Per-executor sub-scopes.
    pub executors: Vec<ExecutorScope>,
}

/// The scheduler's task-id bookkeeping for a whole run.
#[derive(Debug, Clone, Default)]
pub struct ScheduleScopes {
    /// One scope per simulated iteration, in order.
    pub iterations: Vec<IterationScope>,
}

/// Derives iteration / executor / micro-batch / K-group spans from the
/// finished run, plus iteration-to-iteration flow edges on the `schedule`
/// track. Span timestamps are simulation time (nanoseconds).
pub fn span_tracer(out: &SimulationOutput) -> Tracer<ManualClock> {
    let tracer = Tracer::new(ManualClock::new());
    let result = &out.result;
    let mut prev_end: Option<u64> = None;
    for iter in &out.scopes.iterations {
        let iter_idx = iter.index.to_string();
        if let Some((s, e)) = iter.range.interval(result) {
            tracer.record_span("schedule", "iteration", s, e, &[("iteration", &iter_idx)]);
            if let Some(pe) = prev_end {
                tracer.flow("iteration", "schedule", pe, "schedule", s);
            }
            prev_end = Some(e);
        }
        for ex in &iter.executors {
            let track = format!("exec{}", ex.executor);
            if let Some((s, e)) = ex.range.interval(result) {
                tracer.record_span(&track, "executor", s, e, &[("iteration", &iter_idx)]);
            }
            // Pipelined micro-batches (and staggered K-groups) partially
            // overlap; Perfetto nests overlapping slices by depth, so they
            // share one track per executor.
            let micro_track = format!("{track}/micro");
            let group_track = format!("{track}/groups");
            for mb in &ex.micro_batches {
                let micro_idx = mb.index.to_string();
                if let Some((s, e)) = mb.range.interval(result) {
                    tracer.record_span(
                        &micro_track,
                        "micro_batch",
                        s,
                        e,
                        &[("iteration", &iter_idx), ("micro", &micro_idx)],
                    );
                }
                for (gi, g) in mb.groups.iter().enumerate() {
                    if let Some((s, e)) = g.interval(result) {
                        let group_idx = gi.to_string();
                        tracer.record_span(
                            &group_track,
                            "k_group",
                            s,
                            e,
                            &[("group", &group_idx), ("micro", &micro_idx)],
                        );
                    }
                }
            }
        }
    }
    tracer
}

/// Builds the full Chrome trace of a run: scheduler span tracks on top,
/// one hardware lane per resource below (pinned in declaration order),
/// task slices with dependency flow arrows, and a global frame marker at
/// each iteration start. Counter lanes are added separately from a metrics
/// snapshot via [`ChromeTrace::add_counter_series`].
pub fn chrome_trace(out: &SimulationOutput) -> ChromeTrace {
    let result = &out.result;
    let spans = span_tracer(out);
    let span_tracks = spans.tracks();
    let names = (["schedule", "critical path"].into_iter())
        .chain(span_tracks.iter().map(String::as_str))
        .chain(result.resources.iter().map(|r| r.spec.name.as_str()));
    let mut trace = ChromeTrace::new(names);
    // Scheduler tracks first so they sort above the hardware lanes.
    let schedule = trace.track("schedule");
    trace.set_sort_index(schedule, -1);
    trace.add_tracer(&spans);
    // One track per resource, resolved once; records index it by resource.
    let lanes: Vec<Track> = (result.resources.iter().enumerate())
        .map(|(i, r)| {
            let lane = trace.track(&r.spec.name);
            trace.set_sort_index(lane, 1000 + i as i64);
            lane
        })
        .collect();
    // Every record's fixed fields, rendered once: a slice head per lane
    // and category (indexed in `TaskCategory::ALL` order, which is
    // declaration order) and a flow lane per resource.
    let heads: Vec<_> = (lanes.iter())
        .map(|&lane| TaskCategory::ALL.map(|c| trace.slice_head(lane, c.name(), c.name())))
        .collect();
    let flow_lanes: Vec<FlowLane> = lanes.iter().map(|&lane| trace.flow_lane(lane)).collect();
    let dep = trace.flow_heads("dep");
    for rec in &result.records {
        let resource = rec.resource.0;
        let start = rec.start.as_nanos();
        let head = &heads[resource][rec.category as usize];
        trace.task_slice(head, start, rec.end.as_nanos(), rec.work, rec.task.0 as u64);
        if let Binding::Dependency(producer) = rec.binding {
            let prod = &result.records[producer.0];
            let (from, to) = (&flow_lanes[prod.resource.0], &flow_lanes[resource]);
            trace.flow_between(&dep, from, prod.end.as_nanos(), to, start);
        }
    }
    for iter in &out.scopes.iterations {
        if let Some((s, _)) = iter.range.interval(result) {
            trace.frame_marker(&format!("iteration {}", iter.index), s);
        }
    }
    // Critical-path highlighting: the causal chain that explains the
    // makespan gets its own track between the schedule and hardware lanes,
    // with chained flow arrows so Perfetto draws the path across lanes.
    // The path is the one the analysis reports.
    let critical = trace.track("critical path");
    trace.set_sort_index(critical, 0);
    let mut prev_end: Option<u64> = None;
    for t in picasso_sim::analysis::critical_path(result) {
        let rec = &result.records[t.0];
        let stage = out.stage(t);
        let name = if stage.launcher {
            format!("launch:{:?}", stage.kind)
        } else {
            format!("{:?}", stage.kind)
        };
        let (start, end) = (rec.start.as_nanos(), rec.end.as_nanos());
        let task = t.0.to_string();
        let lane = &result.resources[rec.resource.0].spec.name;
        trace.complete(
            critical,
            &name,
            "critical",
            start,
            end,
            &[("task", &task), ("lane", lane)],
        );
        if let Some(pe) = prev_end {
            trace.flow("critical", critical, pe, critical, start);
        }
        prev_end = Some(end);
    }
    trace
}

/// Replays a finished run into a bounded flight recorder: per iteration, a
/// span open/close pair, one causal-task event per executed task record
/// (code = task category, timestamped at the task's end on the simulated
/// clock), and an `iteration_secs` metric sample.
///
/// Like every exporter in this module the tap is derived post-hoc from the
/// immutable [`RunResult`], so the recorder observes the run without ever
/// perturbing it, and its dumps digest deterministically for a fixed
/// scenario and config. An iteration's task events go in as one
/// [`FlightRecorder::tasks`] run, timed once.
pub fn flight_record(out: &SimulationOutput, config: &FlightConfig) -> FlightRecorder {
    let mut rec = FlightRecorder::with_config(config);
    let result = &out.result;
    for iter in &out.scopes.iterations {
        let Some((s, e)) = iter.range.interval(result) else {
            continue;
        };
        let idx = iter.index as u64;
        rec.span_open("iteration", idx, s);
        let end = iter.range.end.min(result.records.len());
        rec.tasks(
            idx,
            result.records[iter.range.start..end].iter().map(|r| {
                let dur_s = (r.end.as_nanos() - r.start.as_nanos()) as f64 / 1e9;
                (r.category.name(), r.end.as_nanos(), dur_s)
            }),
        );
        rec.metric("iteration_secs", idx, e, (e - s) as f64 / 1e9);
        rec.span_close("iteration", idx, e, (e - s) as f64 / 1e9);
    }
    rec
}

/// The bucket every run is measured at: 1/200th of the makespan, clamped to
/// `[20 µs, 10 ms]`. Long runs get DCGM's 10 ms; short ones still get about
/// 200 samples, enough for a usable utilization CDF.
pub fn telemetry_bucket(result: &RunResult) -> SimDuration {
    SimDuration::from_nanos((result.makespan.as_nanos() / 200).clamp(20_000, 10_000_000))
}

/// Exports the run into `registry`: everything
/// [`picasso_sim::export_metrics`] records from `measured` (the run's
/// measurement, as [`crate::TrainingReport`] keeps it), plus the cost-model
/// calibration, scheduler-level throughput gauges and a per-iteration
/// duration histogram.
pub fn export_metrics(out: &SimulationOutput, measured: &Measurement, registry: &MetricsRegistry) {
    picasso_sim::export_metrics(&out.result, measured, registry);
    crate::calibration::export_metrics(out, registry);
    registry.describe(
        "exec_ips_per_node",
        MetricKind::Gauge,
        "Training throughput, instances per second per machine",
    );
    registry.describe(
        "exec_secs_per_iteration",
        MetricKind::Gauge,
        "Mean seconds per training iteration",
    );
    registry.describe(
        "exec_executors",
        MetricKind::Gauge,
        "GPU workers in the run",
    );
    registry.describe(
        "exec_machines",
        MetricKind::Gauge,
        "Worker machines in the run",
    );
    registry.describe(
        "exec_iterations_total",
        MetricKind::Counter,
        "Training iterations simulated",
    );
    registry.describe(
        "exec_iteration_seconds",
        MetricKind::Histogram,
        "Wall-clock span of each training iteration",
    );
    registry.gauge_set("exec_ips_per_node", &[], out.ips_per_node());
    registry.gauge_set("exec_secs_per_iteration", &[], out.secs_per_iteration());
    registry.gauge_set("exec_executors", &[], out.executors as f64);
    registry.gauge_set("exec_machines", &[], out.machines as f64);
    for iter in &out.scopes.iterations {
        registry.counter_add("exec_iterations_total", &[], 1);
        if let Some((s, e)) = iter.range.interval(&out.result) {
            registry.histogram_observe("exec_iteration_seconds", &[], (e - s) as f64 / 1e9);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{simulate, SimConfig};
    use crate::strategy::Strategy;
    use picasso_data::DatasetSpec;
    use picasso_models::ModelKind;
    use picasso_sim::MachineSpec;

    fn export(out: &SimulationOutput, registry: &MetricsRegistry) {
        let measured = picasso_sim::measure(&out.result, telemetry_bucket(&out.result));
        export_metrics(out, &measured, registry);
    }

    fn run(micro: usize) -> SimulationOutput {
        let data = DatasetSpec::criteo();
        let mut spec = ModelKind::Dlrm.build(&data);
        spec.micro_batches = micro;
        let cfg = SimConfig {
            batch_per_executor: 1024,
            iterations: 3,
            machines: 2,
            machine: MachineSpec::eflops(),
            quantized_comm: false,
        };
        simulate(&spec, Strategy::Hybrid, &cfg).unwrap()
    }

    #[test]
    fn scopes_partition_every_task() {
        let out = run(2);
        assert_eq!(out.scopes.iterations.len(), 3);
        // Iteration ranges are contiguous and cover the whole task list.
        let mut cursor = 0;
        for iter in &out.scopes.iterations {
            assert_eq!(iter.range.start, cursor);
            cursor = iter.range.end;
            // Executor ranges tile the iteration (barrier excluded).
            assert_eq!(iter.executors.len(), out.executors);
            let mut e_cursor = iter.range.start;
            for ex in &iter.executors {
                assert_eq!(ex.range.start, e_cursor);
                e_cursor = ex.range.end;
                assert_eq!(ex.micro_batches.len(), 2);
                for mb in &ex.micro_batches {
                    assert!(mb.range.end > mb.range.start);
                    assert!(mb.range.start >= ex.range.start);
                    assert!(mb.range.end <= ex.range.end);
                    assert!(!mb.groups.is_empty());
                }
            }
            assert!(e_cursor <= iter.range.end);
        }
        assert_eq!(cursor, out.result.records.len());
        let covered: usize = out
            .scopes
            .iterations
            .iter()
            .map(|i| i.range.end - i.range.start)
            .sum();
        assert_eq!(covered, out.result.records.len());
    }

    #[test]
    fn spans_nest_and_cover_the_makespan() {
        let out = run(2);
        let tracer = span_tracer(&out);
        let spans = tracer.spans();
        let iters: Vec<_> = spans.iter().filter(|s| s.name == "iteration").collect();
        assert_eq!(iters.len(), 3);
        assert_eq!(iters[0].start_ns, 0);
        assert_eq!(
            iters.iter().map(|s| s.end_ns).max().unwrap(),
            out.result.makespan.as_nanos()
        );
        let execs = spans.iter().filter(|s| s.name == "executor").count();
        assert_eq!(execs, 3 * out.executors);
        let micros = spans.iter().filter(|s| s.name == "micro_batch").count();
        assert_eq!(micros, 3 * out.executors * 2);
        assert!(spans.iter().any(|s| s.name == "k_group"));
        // Consecutive iterations are linked by flow edges.
        assert_eq!(tracer.flows().len(), 2);
    }

    #[test]
    fn chrome_trace_parses_and_marks_frames() {
        let out = run(1);
        let mut trace = chrome_trace(&out);
        let registry = MetricsRegistry::new();
        export(&out, &registry);
        trace.add_counter_series(&registry.snapshot());
        let doc = picasso_obs::json::parse(&trace.to_json()).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(picasso_obs::Json::items)
            .unwrap();
        let count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(picasso_obs::Json::as_str) == Some(ph))
                .count()
        };
        // One slice per task record + one per derived span.
        assert!(count("X") > out.result.records.len());
        // 3 global frame markers, one per iteration.
        let frames = events
            .iter()
            .filter(|e| e.get("s").and_then(picasso_obs::Json::as_str) == Some("g"))
            .count();
        assert_eq!(frames, 3);
        assert!(count("C") > 0, "counter lanes present");
        assert!(count("s") > 0 && count("s") == count("f"), "flow pairs");
    }

    #[test]
    fn chrome_trace_highlights_the_critical_path() {
        let out = run(2);
        let trace = chrome_trace(&out);
        let doc = picasso_obs::json::parse(&trace.to_json()).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(picasso_obs::Json::items)
            .unwrap();
        // The critical-path track exists (thread-name metadata + slices).
        let critical_track = events.iter().any(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(picasso_obs::Json::as_str)
                == Some("critical path")
        });
        assert!(critical_track, "critical-path track is named");
        // Its slices carry the `critical` category and chained flows exist.
        let slices: Vec<&str> = events
            .iter()
            .filter(|e| {
                e.get("cat").and_then(picasso_obs::Json::as_str) == Some("critical")
                    && e.get("ph").and_then(picasso_obs::Json::as_str) == Some("X")
            })
            .filter_map(|e| e.get("name").and_then(picasso_obs::Json::as_str))
            .collect();
        assert!(slices.len() > 1, "critical path has more than one node");
        assert!(
            slices.iter().any(|n| n.starts_with("launch:")),
            "launcher dispatch nodes are labeled"
        );
        let critical_flows = events
            .iter()
            .filter(|e| {
                e.get("name").and_then(picasso_obs::Json::as_str) == Some("critical")
                    && e.get("ph").and_then(picasso_obs::Json::as_str) == Some("s")
            })
            .count();
        assert_eq!(critical_flows, slices.len() - 1, "one flow per path edge");
    }

    #[test]
    fn chrome_critical_track_lists_the_analyzed_critical_path() {
        let out = run(2);
        let doc = picasso_obs::json::parse(&chrome_trace(&out).to_json()).unwrap();
        let events = doc
            .get("traceEvents")
            .and_then(picasso_obs::Json::items)
            .unwrap();
        let listed: Vec<u64> = events
            .iter()
            .filter(|e| {
                e.get("cat").and_then(picasso_obs::Json::as_str) == Some("critical")
                    && e.get("ph").and_then(picasso_obs::Json::as_str) == Some("X")
            })
            .map(|e| {
                let task = e.get("args").and_then(|a| a.get("task"));
                task.and_then(picasso_obs::Json::as_str)
                    .unwrap()
                    .parse()
                    .unwrap()
            })
            .collect();
        let analyzed = crate::analysis::analyze_run(&out, 2, 1).critical_path;
        assert!(!analyzed.is_empty());
        assert_eq!(
            listed, analyzed,
            "the track and the analysis share one path"
        );
    }

    #[test]
    fn flight_tap_is_deterministic_and_covers_every_task() {
        let out = run(2);
        let config = FlightConfig {
            capacity: 1 << 14,
            ..FlightConfig::default()
        };
        let rec = flight_record(&out, &config);
        let stats = rec.stats();
        // 2 span events + 1 metric per iteration + 1 task event per record.
        assert_eq!(
            stats.seen_total(),
            (out.result.records.len() + 3 * out.scopes.iterations.len()) as u64
        );
        assert_eq!(stats.overwritten, 0, "capacity covers the whole run");
        // Same run, same config → byte-identical dump digests.
        let again = flight_record(&out, &config);
        let full = rec.occupancy();
        assert_eq!(rec.dump(full).digest(), again.dump(full).digest());
        // A cramped ring still digests deterministically, just shorter.
        let tiny = FlightConfig {
            capacity: 8,
            ..FlightConfig::default()
        };
        let cramped = flight_record(&out, &tiny);
        assert!(cramped.stats().overwritten > 0);
        assert_eq!(
            cramped.dump(8).digest(),
            flight_record(&out, &tiny).dump(8).digest()
        );
    }

    #[test]
    fn metrics_include_scheduler_gauges() {
        let out = run(1);
        let registry = MetricsRegistry::new();
        export(&out, &registry);
        assert_eq!(
            registry.gauge_value("exec_ips_per_node", &[]),
            Some(out.ips_per_node())
        );
        assert_eq!(registry.counter_value("exec_iterations_total", &[]), 3);
        let snap = registry.snapshot();
        assert!(snap
            .histograms
            .iter()
            .any(|((name, _), h)| name == "exec_iteration_seconds" && h.count == 3));
        assert!(snap
            .series
            .iter()
            .any(|((name, _), _)| name == "sim_sm_busy"));
    }
}
