//! Chrome-trace export of simulation runs.
//!
//! Serializes a [`RunResult`] into the Trace Event Format understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): one lane per
//! resource, one complete event per task. Invaluable for eyeballing why a
//! schedule serializes — the pulse-like baseline patterns of Fig. 4/11 are
//! immediately visible.

use crate::engine::RunResult;
use picasso_obs::json::write_escaped;
use std::fmt::Write as _;

/// Renders the run as a Chrome Trace Event Format JSON string.
///
/// Resources become "threads" (tid = resource index, pinned in that order by
/// `thread_sort_index` metadata), tasks become complete (`"ph":"X"`) events
/// with microsecond timestamps; the task's category and work volume ride
/// along as arguments. Control dependencies ([`crate::Binding::Dependency`]) are
/// exported as flow arrows (`"ph":"s"` at the producer's completion,
/// `"ph":"f"` binding to the consumer's enclosing slice), so Perfetto draws
/// the task graph over the lanes.
pub fn to_chrome_trace(result: &RunResult) -> String {
    let mut out = String::with_capacity(result.records.len() * 160 + 1024);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    // Thread name + sort-index metadata per resource, keeping lanes in
    // resource-declaration order (machines group together) in the viewer.
    for (i, r) in result.resources.iter().enumerate() {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"args\":{{\"name\":"
        );
        write_escaped(&r.spec.name, &mut out);
        out.push_str("}}");
        let _ = write!(
            out,
            ",{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"args\":{{\"sort_index\":{i}}}}}"
        );
    }
    for rec in &result.records {
        let dur_us = (rec.end.as_nanos() - rec.start.as_nanos()) as f64 / 1e3;
        let ts_us = rec.start.as_nanos() as f64 / 1e3;
        let _ = write!(
            out,
            ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"work\":{},\"task\":{}}}}}",
            rec.category,
            rec.category,
            rec.resource.0,
            ts_us,
            dur_us,
            rec.work,
            rec.task.0
        );
        // One flow arrow per control dependency the scheduler actually
        // waited on, from producer end to consumer start. Resource bindings
        // (queueing) are omitted: they are visible as lane occupancy already.
        if let crate::engine::Binding::Dependency(producer) = rec.binding {
            let prod = &result.records[producer.0];
            let prod_end_us = prod.end.as_nanos() as f64 / 1e3;
            let _ = write!(
                out,
                ",{{\"name\":\"dep\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":{},\"pid\":1,\"tid\":{},\"ts\":{:.3}}}",
                rec.task.0,
                prod.resource.0,
                prod_end_us
            );
            let _ = write!(
                out,
                ",{{\"name\":\"dep\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\"pid\":1,\"tid\":{},\"ts\":{:.3}}}",
                rec.task.0,
                rec.resource.0,
                ts_us
            );
        }
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Task, TaskCategory};
    use crate::resource::{ResourceKind, ResourceSpec};

    fn small_run() -> RunResult {
        let mut e = Engine::new();
        let g = e.add_resource(ResourceSpec::new("gpu\"0\"", ResourceKind::GpuSm, 1e9, 0));
        let n = e.add_resource(ResourceSpec::new("nic", ResourceKind::Network, 1e9, 0));
        let a = e
            .add_task(Task::new(n, 1e6, TaskCategory::Communication))
            .unwrap();
        e.add_task(Task::new(g, 2e6, TaskCategory::Computation).after([a]))
            .unwrap();
        e.run().unwrap()
    }

    #[test]
    fn trace_is_valid_jsonish_and_complete() {
        let r = small_run();
        let json = to_chrome_trace(&r);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // 2 thread_name + 2 thread_sort_index metadata, 2 task events.
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 4);
        assert_eq!(json.matches("\"thread_sort_index\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"communication\""));
        assert!(json.contains("gpu\\\"0\\\""), "names are escaped");
        // Balanced braces (cheap structural sanity).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn dependencies_become_flow_pairs() {
        let r = small_run();
        let json = to_chrome_trace(&r);
        // One control dependency (comm -> compute) -> one s/f pair sharing
        // the consumer's task id, source stamped at the producer's end.
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
        let consumer = r.records[1].task.0;
        assert!(json.contains(&format!(
            "\"ph\":\"s\",\"id\":{consumer},\"pid\":1,\"tid\":1,\"ts\":1000.000"
        )));
        assert!(json.contains(&format!("\"ph\":\"f\",\"bp\":\"e\",\"id\":{consumer}")));
    }

    #[test]
    fn timestamps_are_microseconds() {
        let r = small_run();
        let json = to_chrome_trace(&r);
        // The compute task runs [1ms, 3ms] -> ts 1000us dur 2000us.
        assert!(json.contains("\"ts\":1000.000,\"dur\":2000.000"), "{json}");
    }
}
