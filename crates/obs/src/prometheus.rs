//! Prometheus text exposition format: the renderer.
//!
//! [`render`] turns a [`MetricsSnapshot`] into the `text/plain; version=0.0.4`
//! format: `# HELP`/`# TYPE` headers, one `name{labels} value` line per
//! series, and the `_bucket`/`_sum`/`_count` expansion for histograms
//! (cumulative `le` buckets ending in `+Inf`). Time series are flattened to
//! their final value and exposed as gauges, since the exposition format is a
//! point-in-time scrape.
//!
//! Label cardinality is capped per metric family
//! ([`MAX_SERIES_PER_FAMILY`]): snapshot sections are sorted, so the surviving
//! series are deterministic, and every eviction is counted in an
//! `obs_dropped_series_total{family=...}` counter instead of silently
//! growing the scrape without bound.

use crate::metrics::{Labels, MetricKind, MetricsSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maximum series rendered per metric family; the rest are evicted and
/// counted in `obs_dropped_series_total`.
pub const MAX_SERIES_PER_FAMILY: usize = 256;

/// Renders a snapshot in Prometheus text exposition format.
pub fn render(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let mut last_header: Option<String> = None;
    let mut header = |out: &mut String, name: &str, default_kind: MetricKind| {
        if last_header.as_deref() == Some(name) {
            return;
        }
        last_header = Some(name.to_string());
        let (kind, help) = snapshot
            .help
            .get(name)
            .cloned()
            .unwrap_or((default_kind, String::new()));
        if !help.is_empty() {
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&help));
        }
        let _ = writeln!(out, "# TYPE {name} {}", kind_str(kind));
    };
    // Per-family admission: sections are sorted maps, so the first
    // `MAX_SERIES_PER_FAMILY` series of a family (by label order) survive
    // deterministically.
    let mut kept: BTreeMap<String, usize> = BTreeMap::new();
    let mut dropped: BTreeMap<String, u64> = BTreeMap::new();
    let mut admit = |name: &str| -> bool {
        let n = kept.entry(name.to_string()).or_insert(0);
        if *n < MAX_SERIES_PER_FAMILY {
            *n += 1;
            true
        } else {
            *dropped.entry(name.to_string()).or_insert(0) += 1;
            false
        }
    };

    for ((name, labels), value) in &snapshot.counters {
        if !admit(name) {
            continue;
        }
        header(&mut out, name, MetricKind::Counter);
        let _ = writeln!(out, "{name}{} {value}", render_labels(labels, &[]));
    }
    for ((name, labels), value) in &snapshot.gauges {
        if !admit(name) {
            continue;
        }
        header(&mut out, name, MetricKind::Gauge);
        let _ = writeln!(
            out,
            "{name}{} {}",
            render_labels(labels, &[]),
            render_value(*value)
        );
    }
    for ((name, labels), series) in &snapshot.series {
        if !admit(name) {
            continue;
        }
        header(&mut out, name, MetricKind::Gauge);
        let last = series.samples.last().map(|&(_, v)| v).unwrap_or(0.0);
        let _ = writeln!(
            out,
            "{name}{} {}",
            render_labels(labels, &[]),
            render_value(last)
        );
    }
    for ((name, labels), histogram) in &snapshot.histograms {
        if !admit(name) {
            continue;
        }
        header(&mut out, name, MetricKind::Histogram);
        let cumulative = histogram.cumulative();
        for (i, &bound) in histogram.bounds.iter().enumerate() {
            let _ = writeln!(
                out,
                "{name}_bucket{} {}",
                render_labels(labels, &[("le", &render_value(bound))]),
                cumulative[i]
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{} {}",
            render_labels(labels, &[("le", "+Inf")]),
            histogram.count
        );
        let _ = writeln!(
            out,
            "{name}_sum{} {}",
            render_labels(labels, &[]),
            render_value(histogram.sum)
        );
        let _ = writeln!(
            out,
            "{name}_count{} {}",
            render_labels(labels, &[]),
            histogram.count
        );
    }
    if !dropped.is_empty() {
        let _ = writeln!(
            out,
            "# HELP obs_dropped_series_total Series evicted by the per-family cardinality cap"
        );
        let _ = writeln!(out, "# TYPE obs_dropped_series_total counter");
        for (family, count) in &dropped {
            let _ = writeln!(
                out,
                "obs_dropped_series_total{} {count}",
                render_labels(&Labels::default(), &[("family", family)])
            );
        }
    }
    out
}

fn kind_str(kind: MetricKind) -> &'static str {
    match kind {
        MetricKind::Counter => "counter",
        MetricKind::Gauge | MetricKind::TimeSeries => "gauge",
        MetricKind::Histogram => "histogram",
    }
}

fn render_value(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x == f64::INFINITY {
        "+Inf".to_string()
    } else if x == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{x}")
    }
}

fn render_labels(labels: &Labels, extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    parts.extend(
        extra
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))),
    );
    format!("{{{}}}", parts.join(","))
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_help(v: &str) -> String {
    v.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    /// The value of the sample line whose name and label set read exactly
    /// `series`, if there is one.
    fn value(text: &str, series: &str) -> Option<f64> {
        text.lines()
            .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
            .map(|v| match v {
                "+Inf" => f64::INFINITY,
                v => v.parse().expect("numeric sample value"),
            })
    }

    #[test]
    fn renders_and_parses_all_metric_kinds() {
        let reg = MetricsRegistry::new();
        reg.describe("cache_hits_total", MetricKind::Counter, "HybridHash hits");
        reg.counter_add("cache_hits_total", &[("storage", "hot")], 42);
        reg.gauge_set("hot_occupancy", &[], 0.75);
        reg.histogram_buckets("task_secs", &[0.001, 0.01]);
        reg.histogram_observe("task_secs", &[("kind", "comm")], 0.005);
        reg.histogram_observe("task_secs", &[("kind", "comm")], 0.5);
        reg.record_sample("sm_busy", &[("gpu", "0")], 10, 0.25);
        reg.record_sample("sm_busy", &[("gpu", "0")], 20, 0.5);

        let text = render(&reg.snapshot());

        assert!(text.contains("# HELP cache_hits_total HybridHash hits\n"));
        assert!(text.contains("# TYPE cache_hits_total counter\n"));
        assert_eq!(
            value(&text, "cache_hits_total{storage=\"hot\"}"),
            Some(42.0)
        );
        assert_eq!(value(&text, "hot_occupancy"), Some(0.75));
        // Time series flatten to their last value, exposed as gauges.
        assert!(text.contains("# TYPE sm_busy gauge\n"));
        assert_eq!(value(&text, "sm_busy{gpu=\"0\"}"), Some(0.5));
        // Histogram: cumulative buckets with +Inf, sum, count.
        assert!(text.contains("# TYPE task_secs histogram\n"));
        let bucket = |le: &str| {
            value(
                &text,
                &format!("task_secs_bucket{{kind=\"comm\",le=\"{le}\"}}"),
            )
        };
        assert_eq!(bucket("0.001"), Some(0.0));
        assert_eq!(bucket("0.01"), Some(1.0));
        assert_eq!(bucket("+Inf"), Some(2.0));
        assert_eq!(value(&text, "task_secs_count{kind=\"comm\"}"), Some(2.0));
        let sum = value(&text, "task_secs_sum{kind=\"comm\"}").expect("sum present");
        assert!((sum - 0.505).abs() < 1e-12);
        // Every line is a header or one of the 8 samples above.
        let samples = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(samples, 8);
    }

    #[test]
    fn labeled_histogram_series_round_trip_independently() {
        // One histogram name, three label sets (two labels each): every
        // series keeps its own buckets/sum/count, and the TYPE header is
        // emitted exactly once.
        let reg = MetricsRegistry::new();
        reg.describe("stage_secs", MetricKind::Histogram, "Stage durations");
        reg.histogram_buckets("stage_secs", &[0.1, 1.0]);
        reg.histogram_observe("stage_secs", &[("class", "compute"), ("node", "0")], 0.05);
        reg.histogram_observe("stage_secs", &[("class", "compute"), ("node", "0")], 0.5);
        reg.histogram_observe("stage_secs", &[("class", "comm"), ("node", "0")], 2.0);
        reg.histogram_observe("stage_secs", &[("class", "comm"), ("node", "1")], 0.5);

        let text = render(&reg.snapshot());

        assert_eq!(
            text.matches("# TYPE stage_secs histogram").count(),
            1,
            "one TYPE header for all series of a name"
        );
        let compute_count = "stage_secs_count{class=\"compute\",node=\"0\"}";
        assert_eq!(value(&text, compute_count), Some(2.0));
        let comm0 = |le: &str| {
            let series = format!("stage_secs_bucket{{class=\"comm\",node=\"0\",le=\"{le}\"}}");
            value(&text, &series)
        };
        assert_eq!(comm0("+Inf"), Some(1.0));
        // The 2.0 observation overflows every finite bucket of comm/node=0.
        assert_eq!(comm0("1"), Some(0.0));
        let comm1_le1 = "stage_secs_bucket{class=\"comm\",node=\"1\",le=\"1\"}";
        assert_eq!(value(&text, comm1_le1), Some(1.0));
        let comm1_sum = value(&text, "stage_secs_sum{class=\"comm\",node=\"1\"}").unwrap();
        assert!((comm1_sum - 0.5).abs() < 1e-12);
        // Exactly 3 series x (2 finite + 1 inf bucket + sum + count) lines.
        let lines = text.lines().filter(|l| l.starts_with("stage_secs")).count();
        assert_eq!(lines, 15);
    }

    #[test]
    fn label_escaping_round_trips() {
        let reg = MetricsRegistry::new();
        reg.counter_add("c", &[("model", "w\"d\\l\nx")], 1);
        let text = render(&reg.snapshot());
        assert_eq!(text, "# TYPE c counter\nc{model=\"w\\\"d\\\\l\\nx\"} 1\n");
    }

    #[test]
    fn label_values_with_separators_round_trip() {
        let reg = MetricsRegistry::new();
        let values = ["a}b", "{x}", "a,b=c", "two words", "} 1", "\\}\""];
        for (i, v) in values.iter().enumerate() {
            reg.counter_add("x_total", &[("lane", v)], i as u64 + 1);
        }
        let text = render(&reg.snapshot());
        for (i, v) in values.iter().enumerate() {
            let series = format!("x_total{{lane=\"{}\"}}", escape_label(v));
            assert_eq!(value(&text, &series), Some(i as f64 + 1.0), "{v}");
        }
        assert!(text.contains("x_total{lane=\"\\\\}\\\"\"} 6\n"));
    }

    #[test]
    fn per_family_cap_evicts_and_counts_drops() {
        let reg = MetricsRegistry::new();
        for i in 0..MAX_SERIES_PER_FAMILY + 10 {
            reg.gauge_set("wide_family", &[("shard", &format!("{i:04}"))], i as f64);
        }
        reg.gauge_set("small_family", &[], 1.0);

        let text = render(&reg.snapshot());
        let wide = text
            .lines()
            .filter(|l| l.starts_with("wide_family{"))
            .count();
        assert_eq!(wide, MAX_SERIES_PER_FAMILY);
        // The first series by label order survive.
        assert!(value(&text, "wide_family{shard=\"0255\"}").is_some());
        assert!(value(&text, "wide_family{shard=\"0256\"}").is_none());
        let drops = "obs_dropped_series_total{family=\"wide_family\"}";
        assert_eq!(value(&text, drops), Some(10.0), "drop counter present");
        assert!(
            value(&text, "small_family").is_some(),
            "other families untouched"
        );
        assert!(text.contains("# TYPE obs_dropped_series_total counter\n"));
    }

    #[test]
    fn default_cap_is_256_series_per_family() {
        let reg = MetricsRegistry::new();
        for i in 0..300 {
            reg.counter_add("big", &[("k", &format!("{i:04}"))], 1);
        }
        let text = render(&reg.snapshot());
        assert_eq!(text.lines().filter(|l| l.starts_with("big{")).count(), 256);
        let drops = "obs_dropped_series_total{family=\"big\"}";
        assert_eq!(value(&text, drops), Some(44.0));
    }

    #[test]
    fn cap_is_absent_when_nothing_drops() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("g", &[], 1.0);
        let text = render(&reg.snapshot());
        assert!(!text.contains("obs_dropped_series_total"));
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        let reg = MetricsRegistry::new();
        let text = render(&reg.snapshot());
        assert!(text.is_empty());
    }
}
