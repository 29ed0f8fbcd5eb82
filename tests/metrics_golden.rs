//! Golden bytes of the Prometheus text a finished run exports.
//!
//! Pins the byte length and FNV-1a of `picasso::observe::prometheus_text`
//! for two runs: the DLRM facade run whose Chrome trace
//! `chrome_golden.rs` pins, and the `can_cache` perf-suite rung under the
//! suite's session shape (`picasso_bench::scenarios::suite_config`). Both
//! enable caching, so the text carries the per-table hot-set cache
//! counters as well as the simulator, scheduler, pass and flight-recorder
//! families. Any change to a metric's value, name, labels or rendering
//! moves one of these pins. The samples of the two wall-clock families
//! (pass durations and the flight recorder's self-measured overhead) are
//! left out of the pinned text; their `HELP` and `TYPE` lines stay in.
//!
//! Before pinning, each text is parsed whole (wall-clock samples included)
//! by the strict exposition parser below, and the families every layer
//! exports must be present.

use picasso::exec::{RunArtifacts, WarmupConfig};
use picasso::obs::checksum::fnv1a64;
use picasso::{ModelKind, Optimizations, PassId, PicassoConfig, Session, Strategy};

/// Metric families whose samples are wall-clock measurements.
const WALL_CLOCK: [&str; 2] = ["graph_pass_duration_seconds", "flight_overhead_ns"];

/// Whether `line` is a sample of a wall-clock family.
fn is_wall_clock_sample(line: &str) -> bool {
    WALL_CLOCK.iter().any(|name| {
        line.strip_prefix(name)
            .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
    })
}

/// One sample of each layer's families: simulator, scheduler, passes,
/// embedding cache and flight recorder.
const FAMILIES: [(&str, &[(&str, &str)]); 6] = [
    ("sim_tasks_total", &[("category", "computation")]),
    ("exec_ips_per_node", &[]),
    ("graph_pass_packing_ratio", &[("pass", "d_packing")]),
    ("embedding_lookups_total", &[]),
    ("flight_occupancy", &[]),
    ("flight_events_seen_total", &[("category", "task")]),
];

/// Length and FNV-1a of the run's Prometheus text without its wall-clock
/// samples, once the whole text parses and carries every layer's families.
fn pin(arts: &RunArtifacts) -> (usize, String) {
    let text = picasso::observe::prometheus_text(arts);
    let doc = parse(&text).expect("valid exposition format");
    for (name, labels) in FAMILIES {
        assert!(
            doc.find(name, labels).is_some(),
            "{name} {labels:?} present"
        );
    }
    assert!(
        doc.types
            .iter()
            .any(|(name, kind)| name == "sim_tasks_total" && kind == "counter"),
        "TYPE lines parsed"
    );
    let kept: String = text
        .lines()
        .filter(|line| !is_wall_clock_sample(line))
        .flat_map(|line| [line, "\n"])
        .collect();
    (kept.len(), format!("{:016x}", fnv1a64(kept.as_bytes())))
}

#[test]
fn dlrm_facade_metrics_are_pinned() {
    let config = PicassoConfig {
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
    };
    let arts = Session::new(ModelKind::Dlrm, config).run_picasso();
    assert_eq!(pin(&arts), (24_679, "467462487a67617b".to_string()));
}

#[test]
fn can_cache_metrics_are_pinned() {
    let config = PicassoConfig {
        iterations: 2,
        warmup: WarmupConfig {
            batches: 4,
            batch_size: 256,
            max_vocab: 1000,
            hot_bytes: 1 << 24,
            seed: 17,
        },
        batch_per_executor: Some(1024),
        ..PicassoConfig::default()
    }
    .machines(1);
    let arts = Session::new(ModelKind::Can, config)
        .try_run_custom(
            Strategy::Hybrid,
            Optimizations::new(PassId::ALL.to_vec()),
            "can_cache",
        )
        .expect("scenario trains");
    assert_eq!(pin(&arts), (80_575, "9305e90885a9ba4c".to_string()));
}

#[test]
fn parser_rejects_malformed_lines() {
    assert!(parse("name{le=0.5} 1").is_err()); // unquoted label
    assert!(parse("na me 1").is_err()); // space in name
    assert!(parse("name abc").is_err()); // bad value
    assert!(parse("name{k=\"v\"").is_err()); // unterminated
}

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
struct PromSample {
    /// Metric name (including `_bucket`/`_sum`/`_count` suffixes).
    name: String,
    /// Label pairs in appearance order.
    labels: Vec<(String, String)>,
    /// Sample value.
    value: f64,
}

/// A parsed exposition document.
#[derive(Debug, Clone, Default, PartialEq)]
struct PromDoc {
    /// `# TYPE` declarations in order.
    types: Vec<(String, String)>,
    /// Sample lines in order.
    samples: Vec<PromSample>,
}

impl PromDoc {
    /// First sample with this exact name and label subset.
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<&PromSample> {
        self.samples.iter().find(|s| {
            s.name == name
                && labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(lk, lv)| lk == k && lv == v))
        })
    }
}

/// Parses the text exposition format `picasso_obs::prometheus::render`
/// produces. Strict enough to catch malformed output.
fn parse(input: &str) -> Result<PromDoc, String> {
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
