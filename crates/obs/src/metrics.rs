//! Labeled metrics registry: counters, gauges, fixed-bucket histograms, and
//! clock-stamped time series.
//!
//! The registry is internally synchronized (`&self` methods) so one instance
//! can be threaded through the scheduler, the cache, and the graph passes
//! without plumbing `&mut`. All reads go through [`MetricsRegistry::snapshot`],
//! which exporters consume; the snapshot is an owned, deterministic
//! (name- and label-sorted) view.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// What a metric name measures; drives the Prometheus `# TYPE` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Fixed-bucket distribution.
    Histogram,
    /// Clock-stamped samples (exported as counter lanes in Chrome traces;
    /// rendered as a last-value gauge in Prometheus).
    TimeSeries,
}

/// Sorted `key=value` label pairs identifying one series of a metric.
pub type Labels = Vec<(String, String)>;

fn canon_labels(labels: &[(&str, &str)]) -> Labels {
    let mut out: Labels = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    out.sort();
    out
}

/// A histogram with caller-fixed upper bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Inclusive upper bounds, ascending; an implicit `+Inf` bucket follows.
    pub bounds: Vec<f64>,
    /// `counts[i]` = observations `<= bounds[i]`, cumulative style is NOT
    /// used here: each slot counts its own bucket. `counts.len() ==
    /// bounds.len() + 1`, the last slot being the `+Inf` bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total number of observations.
    pub count: u64,
}

impl Histogram {
    fn new(bounds: Vec<f64>) -> Histogram {
        let slots = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; slots],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Cumulative count of observations `<= bounds[i]`, Prometheus-style.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut acc = 0;
        self.counts
            .iter()
            .map(|&c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Mean of all observed values (exact — the registry tracks the sum),
    /// `0.0` for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One clock-stamped sample stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    /// `(t_ns, value)` in recording order.
    pub samples: Vec<(u64, f64)>,
}

#[derive(Debug, Default)]
struct Inner {
    help: BTreeMap<String, (MetricKind, String)>,
    counters: BTreeMap<(String, Labels), u64>,
    gauges: BTreeMap<(String, Labels), f64>,
    histogram_bounds: BTreeMap<String, Vec<f64>>,
    histograms: BTreeMap<(String, Labels), Histogram>,
    series: BTreeMap<(String, Labels), TimeSeries>,
}

/// The registry. Cheap to create; share by reference.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Inner>,
}

const DEFAULT_BOUNDS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Attaches help text to a metric name (shown in Prometheus output).
    pub fn describe(&self, name: &str, kind: MetricKind, help: &str) {
        let mut inner = self.inner.lock().unwrap();
        inner
            .help
            .insert(name.to_string(), (kind, help.to_string()));
    }

    /// Adds `delta` to a counter series, creating it at zero first.
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let mut inner = self.inner.lock().unwrap();
        let key = (name.to_string(), canon_labels(labels));
        *inner.counters.entry(key).or_insert(0) += delta;
    }

    /// Reads a counter series (0 if never written).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        let inner = self.inner.lock().unwrap();
        let key = (name.to_string(), canon_labels(labels));
        inner.counters.get(&key).copied().unwrap_or(0)
    }

    /// Sets a gauge series.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let mut inner = self.inner.lock().unwrap();
        let key = (name.to_string(), canon_labels(labels));
        inner.gauges.insert(key, value);
    }

    /// Reads a gauge series.
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let inner = self.inner.lock().unwrap();
        let key = (name.to_string(), canon_labels(labels));
        inner.gauges.get(&key).copied()
    }

    /// Fixes the bucket upper bounds for a histogram name. Must be called
    /// before the first observation of that name; later calls are ignored.
    pub fn histogram_buckets(&self, name: &str, bounds: &[f64]) {
        let mut inner = self.inner.lock().unwrap();
        inner
            .histogram_bounds
            .entry(name.to_string())
            .or_insert_with(|| bounds.to_vec());
    }

    /// Records one observation into a histogram series. Names without
    /// declared buckets get a log-spaced default covering 1µs–10s.
    pub fn histogram_observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        let mut inner = self.inner.lock().unwrap();
        let bounds = inner
            .histogram_bounds
            .entry(name.to_string())
            .or_insert_with(|| DEFAULT_BOUNDS.to_vec())
            .clone();
        let key = (name.to_string(), canon_labels(labels));
        inner
            .histograms
            .entry(key)
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    }

    /// Appends one `(t_ns, value)` sample to a time series.
    pub fn record_sample(&self, name: &str, labels: &[(&str, &str)], t_ns: u64, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        let key = (name.to_string(), canon_labels(labels));
        inner
            .series
            .entry(key)
            .or_default()
            .samples
            .push((t_ns, value));
    }

    /// An owned, deterministic view of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            help: inner.help.clone(),
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            series: inner
                .series
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

/// Owned view of a registry; what exporters consume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Help text and declared kind per metric name.
    pub help: BTreeMap<String, (MetricKind, String)>,
    /// Counter series, sorted by (name, labels).
    pub counters: Vec<((String, Labels), u64)>,
    /// Gauge series, sorted by (name, labels).
    pub gauges: Vec<((String, Labels), f64)>,
    /// Histogram series, sorted by (name, labels).
    pub histograms: Vec<((String, Labels), Histogram)>,
    /// Time series, sorted by (name, labels).
    pub series: Vec<((String, Labels), TimeSeries)>,
}

impl MetricsSnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let reg = MetricsRegistry::new();
        reg.counter_add("hits", &[("table", "user")], 2);
        reg.counter_add("hits", &[("table", "user")], 3);
        reg.counter_add("hits", &[("table", "item")], 1);
        assert_eq!(reg.counter_value("hits", &[("table", "user")]), 5);
        assert_eq!(reg.counter_value("hits", &[("table", "item")]), 1);
        assert_eq!(reg.counter_value("hits", &[("table", "absent")]), 0);
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = MetricsRegistry::new();
        reg.counter_add("c", &[("a", "1"), ("b", "2")], 1);
        reg.counter_add("c", &[("b", "2"), ("a", "1")], 1);
        assert_eq!(reg.counter_value("c", &[("a", "1"), ("b", "2")]), 2);
    }

    #[test]
    fn histogram_buckets_and_cumulative() {
        let reg = MetricsRegistry::new();
        reg.histogram_buckets("lat", &[1.0, 2.0]);
        for v in [0.5, 1.5, 1.5, 5.0] {
            reg.histogram_observe("lat", &[], v);
        }
        let snap = reg.snapshot();
        let (_, h) = &snap.histograms[0];
        assert_eq!(h.counts, vec![1, 2, 1]);
        assert_eq!(h.cumulative(), vec![1, 3, 4]);
        assert_eq!(h.count, 4);
        assert!((h.sum - 8.5).abs() < 1e-12);
    }

    #[test]
    fn boundary_values_fall_in_lower_bucket() {
        let reg = MetricsRegistry::new();
        reg.histogram_buckets("h", &[1.0]);
        reg.histogram_observe("h", &[], 1.0);
        let snap = reg.snapshot();
        assert_eq!(snap.histograms[0].1.counts, vec![1, 0]);
    }

    #[test]
    fn histogram_mean_is_exact_and_zero_when_empty() {
        let reg = MetricsRegistry::new();
        reg.histogram_buckets("lat", &[1.0, 2.0, 4.0]);
        for v in [0.5, 1.5, 1.5, 3.0] {
            reg.histogram_observe("lat", &[], v);
        }
        let snap = reg.snapshot();
        let h = &snap.histograms[0].1;
        assert!((h.mean() - 1.625).abs() < 1e-12);

        // Empty histograms summarize to zero, not NaN.
        let empty = Histogram {
            bounds: vec![1.0],
            counts: vec![0, 0],
            sum: 0.0,
            count: 0,
        };
        assert_eq!(empty.mean(), 0.0);
    }

    #[test]
    fn mean_saturates_instead_of_overflowing() {
        // Huge observations accumulate in an f64 sum: the mean loses
        // precision gracefully (IEEE saturation to +Inf at the extreme)
        // rather than wrapping the way an integer accumulator would.
        let mut h = Histogram {
            bounds: vec![1.0],
            counts: vec![0, 0],
            sum: 0.0,
            count: 0,
        };
        for _ in 0..4 {
            h.sum += f64::MAX / 2.0;
            h.count += 1;
            h.counts[1] += 1;
        }
        assert!(h.sum.is_infinite() && h.sum > 0.0);
        assert!(h.mean().is_infinite(), "mean follows the saturated sum");
        // And a count of u64::MAX with a finite sum stays finite and tiny.
        let wide = Histogram {
            bounds: vec![1.0],
            counts: vec![0, 0],
            sum: 1.0,
            count: u64::MAX,
        };
        let m = wide.mean();
        assert!(m.is_finite() && (0.0..1e-18).contains(&m));
    }

    #[test]
    fn series_keep_recording_order() {
        let reg = MetricsRegistry::new();
        reg.record_sample("sm_busy", &[("gpu", "0")], 10, 0.5);
        reg.record_sample("sm_busy", &[("gpu", "0")], 20, 0.9);
        let snap = reg.snapshot();
        assert_eq!(snap.series[0].1.samples, vec![(10, 0.5), (20, 0.9)]);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        reg.gauge_set("z", &[], 1.0);
        reg.gauge_set("a", &[("k", "2")], 2.0);
        reg.gauge_set("a", &[("k", "1")], 3.0);
        let snap = reg.snapshot();
        let names: Vec<_> = snap
            .gauges
            .iter()
            .map(|((n, l), _)| (n.clone(), l.clone()))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert_eq!(snap, reg.snapshot());
    }
}
