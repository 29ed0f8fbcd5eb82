//! Prometheus text exposition format: renderer and (for round-trip tests)
//! parser.
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

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct PromSample {
    /// Metric name (including `_bucket`/`_sum`/`_count` suffixes).
    pub name: String,
    /// Label pairs in appearance order.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

/// A parsed exposition document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PromDoc {
    /// `# TYPE` declarations in order.
    pub types: Vec<(String, String)>,
    /// Sample lines in order.
    pub samples: Vec<PromSample>,
}

impl PromDoc {
    /// First sample with this exact name and label subset.
    pub fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&PromSample> {
        self.samples.iter().find(|s| {
            s.name == name
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
    }
}

/// Parses the text exposition format produced by [`render`]. Strict enough
/// to catch malformed output in round-trip tests.
pub fn parse(input: &str) -> Result<PromDoc, String> {
    let mut doc = PromDoc::default();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("").to_string();
            let kind = parts.next().unwrap_or("").trim().to_string();
            if name.is_empty() || kind.is_empty() {
                return Err(format!("line {}: malformed TYPE", lineno + 1));
            }
            doc.types.push((name, kind));
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP or comment
        }
        doc.samples.push(parse_sample(line, lineno + 1)?);
    }
    Ok(doc)
}

fn parse_sample(line: &str, lineno: usize) -> Result<PromSample, String> {
    let err = |msg: &str| format!("line {lineno}: {msg}");
    let (name, labels, value_text) = match line.find('{') {
        Some(open) => {
            // Label values may hold `}`, so the set closes at the first `}`
            // outside a quoted value.
            let body = &line[open + 1..];
            let close = label_set_len(body).ok_or_else(|| err("unterminated label set"))?;
            (
                line[..open].to_string(),
                parse_labels(&body[..close], lineno)?,
                body[close + 1..].trim(),
            )
        }
        None => {
            let (name, value) = line.split_once(' ').ok_or_else(|| err("missing value"))?;
            (name.to_string(), Vec::new(), value.trim())
        }
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(err("bad metric name"));
    }
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        text => text.parse::<f64>().map_err(|_| err("bad value"))?,
    };
    Ok(PromSample {
        name,
        labels,
        value,
    })
}

/// Byte length of a label-set body up to its closing `}`, skipping quoted
/// values and their escapes; `None` when the set never closes.
fn label_set_len(body: &str) -> Option<usize> {
    let mut quoted = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if quoted => escaped = true,
            '"' => quoted = !quoted,
            '}' if !quoted => return Some(i),
            _ => {}
        }
    }
    None
}

fn parse_labels(body: &str, lineno: usize) -> Result<Vec<(String, String)>, String> {
    let err = |msg: &str| format!("line {lineno}: {msg}");
    let mut labels = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest.find('=').ok_or_else(|| err("label missing '='"))?;
        let key = rest[..eq].trim().to_string();
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(err("label value must be quoted"));
        }
        rest = &rest[1..];
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut consumed = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => match chars.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    _ => return Err(err("bad escape in label value")),
                },
                '"' => {
                    consumed = Some(i + 1);
                    break;
                }
                c => value.push(c),
            }
        }
        let end = consumed.ok_or_else(|| err("unterminated label value"))?;
        labels.push((key, value));
        rest = rest[end..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return Err(err("expected ',' between labels"));
        }
    }
    Ok(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

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
        let doc = parse(&text).expect("round trip");

        assert!(doc
            .types
            .contains(&("cache_hits_total".to_string(), "counter".to_string())));
        assert!(text.contains("# HELP cache_hits_total HybridHash hits"));
        let hits = doc
            .find("cache_hits_total", &[("storage", "hot")])
            .expect("counter present");
        assert_eq!(hits.value, 42.0);
        assert_eq!(doc.find("hot_occupancy", &[]).unwrap().value, 0.75);
        // Time series flatten to their last value.
        assert_eq!(doc.find("sm_busy", &[("gpu", "0")]).unwrap().value, 0.5);
        // Histogram: cumulative buckets with +Inf, sum, count.
        let inf = doc
            .find("task_secs_bucket", &[("le", "+Inf")])
            .expect("+Inf bucket");
        assert_eq!(inf.value, 2.0);
        assert_eq!(
            doc.find("task_secs_bucket", &[("le", "0.01")])
                .unwrap()
                .value,
            1.0
        );
        assert_eq!(doc.find("task_secs_count", &[]).unwrap().value, 2.0);
        assert!((doc.find("task_secs_sum", &[]).unwrap().value - 0.505).abs() < 1e-12);
    }

    #[test]
    fn labeled_histogram_series_round_trip_independently() {
        // One histogram name, three label sets (two labels each): every
        // series keeps its own buckets/sum/count through render + parse, and
        // the TYPE header is emitted exactly once.
        let reg = MetricsRegistry::new();
        reg.describe("stage_secs", MetricKind::Histogram, "Stage durations");
        reg.histogram_buckets("stage_secs", &[0.1, 1.0]);
        reg.histogram_observe("stage_secs", &[("class", "compute"), ("node", "0")], 0.05);
        reg.histogram_observe("stage_secs", &[("class", "compute"), ("node", "0")], 0.5);
        reg.histogram_observe("stage_secs", &[("class", "comm"), ("node", "0")], 2.0);
        reg.histogram_observe("stage_secs", &[("class", "comm"), ("node", "1")], 0.5);

        let text = render(&reg.snapshot());
        let doc = parse(&text).expect("round trip");

        assert_eq!(
            text.matches("# TYPE stage_secs histogram").count(),
            1,
            "one TYPE header for all series of a name"
        );
        let compute_count = doc
            .find("stage_secs_count", &[("class", "compute"), ("node", "0")])
            .unwrap();
        assert_eq!(compute_count.value, 2.0);
        let comm0_inf = doc
            .find(
                "stage_secs_bucket",
                &[("class", "comm"), ("node", "0"), ("le", "+Inf")],
            )
            .unwrap();
        assert_eq!(comm0_inf.value, 1.0);
        // The 2.0 observation overflows every finite bucket of comm/node=0.
        assert_eq!(
            doc.find(
                "stage_secs_bucket",
                &[("class", "comm"), ("node", "0"), ("le", "1")],
            )
            .unwrap()
            .value,
            0.0
        );
        assert_eq!(
            doc.find(
                "stage_secs_bucket",
                &[("class", "comm"), ("node", "1"), ("le", "1")],
            )
            .unwrap()
            .value,
            1.0
        );
        let comm1_sum = doc
            .find("stage_secs_sum", &[("class", "comm"), ("node", "1")])
            .unwrap();
        assert!((comm1_sum.value - 0.5).abs() < 1e-12);
        // Exactly 3 series x (2 finite + 1 inf bucket + sum + count) lines.
        let lines = doc
            .samples
            .iter()
            .filter(|s| s.name.starts_with("stage_secs"))
            .count();
        assert_eq!(lines, 15);
    }

    #[test]
    fn label_escaping_round_trips() {
        let reg = MetricsRegistry::new();
        reg.counter_add("c", &[("model", "w\"d\\l\nx")], 1);
        let text = render(&reg.snapshot());
        let doc = parse(&text).unwrap();
        assert_eq!(doc.samples[0].labels[0].1, "w\"d\\l\nx");
    }

    #[test]
    fn label_values_with_separators_round_trip() {
        let reg = MetricsRegistry::new();
        let values = ["a}b", "{x}", "a,b=c", "two words", "} 1", "\\}\""];
        for (i, v) in values.iter().enumerate() {
            reg.counter_add("x_total", &[("lane", v)], i as u64 + 1);
        }
        let doc = parse(&render(&reg.snapshot())).expect("round trip");
        for (i, v) in values.iter().enumerate() {
            let sample = doc.find("x_total", &[("lane", v)]).expect(v);
            assert_eq!(sample.labels, [("lane".to_string(), v.to_string())]);
            assert_eq!(sample.value, i as f64 + 1.0);
        }
        let line = parse("x_total{lane=\"a}b\",k=\"v\"} 1").unwrap();
        assert_eq!(line.samples[0].labels[0].1, "a}b");
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse("name{le=0.5} 1").is_err()); // unquoted label
        assert!(parse("na me 1").is_err()); // space in name
        assert!(parse("name abc").is_err()); // bad value
        assert!(parse("name{k=\"v\"").is_err()); // unterminated
    }

    #[test]
    fn per_family_cap_evicts_and_counts_drops() {
        let reg = MetricsRegistry::new();
        for i in 0..MAX_SERIES_PER_FAMILY + 10 {
            reg.gauge_set("wide_family", &[("shard", &format!("{i:04}"))], i as f64);
        }
        reg.gauge_set("small_family", &[], 1.0);

        let doc = parse(&render(&reg.snapshot())).expect("round trip");
        let wide = doc
            .samples
            .iter()
            .filter(|s| s.name == "wide_family")
            .count();
        assert_eq!(wide, MAX_SERIES_PER_FAMILY);
        // The first series by label order survive.
        assert!(doc.find("wide_family", &[("shard", "0255")]).is_some());
        assert!(doc.find("wide_family", &[("shard", "0256")]).is_none());
        assert_eq!(
            doc.find("obs_dropped_series_total", &[("family", "wide_family")])
                .expect("drop counter present")
                .value,
            10.0
        );
        assert!(
            doc.find("small_family", &[]).is_some(),
            "other families untouched"
        );
        assert!(doc.types.contains(&(
            "obs_dropped_series_total".to_string(),
            "counter".to_string()
        )));
    }

    #[test]
    fn default_cap_is_256_series_per_family() {
        let reg = MetricsRegistry::new();
        for i in 0..300 {
            reg.counter_add("big", &[("k", &format!("{i:04}"))], 1);
        }
        let doc = parse(&render(&reg.snapshot())).unwrap();
        assert_eq!(doc.samples.iter().filter(|s| s.name == "big").count(), 256);
        assert_eq!(
            doc.find("obs_dropped_series_total", &[("family", "big")])
                .unwrap()
                .value,
            44.0
        );
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
        assert_eq!(parse(&text).unwrap().samples.len(), 0);
    }
}
