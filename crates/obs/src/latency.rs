//! Request-latency measurement for the serving path: exact quantiles over
//! collected samples, log-spaced latency histograms for export, SLO-violation
//! tracking, and queue-depth timelines.
//!
//! Serving reports tail latency (p50/p95/p99), not throughput, so precision
//! at the tail matters. The recorder therefore keeps every sample (serving
//! scenarios observe tens of thousands of requests — cheap) and computes
//! *exact* nearest-rank quantiles; the fixed-bucket [`crate::metrics::Histogram`]
//! is only an export format for Prometheus/Chrome, never the source of truth.

use crate::metrics::MetricsRegistry;

/// Log-spaced latency bucket upper bounds in nanoseconds: 1µs → 100s at four
/// buckets per decade (×~1.78 steps). Suitable for the export histogram of
/// any latency whose interesting range spans microseconds to seconds.
pub fn latency_bounds_ns() -> Vec<f64> {
    // Each bound computed independently (no accumulated multiplication
    // error): 10^(3 + k/4) for k = 0..=32, i.e. 1e3 .. 1e11 ns.
    (0..=32)
        .map(|k| 10f64.powf(3.0 + 0.25 * k as f64))
        .collect()
}

/// Exact `q`-quantile (`0.0 <= q <= 1.0`) of a **sorted ascending** slice via
/// the nearest-rank method: the smallest element such that at least
/// `ceil(q * n)` elements are `<=` it. `q = 0` yields the minimum, `q = 1`
/// the maximum; an empty slice yields 0.
///
/// Nearest-rank (rather than interpolation) keeps the result an actually
/// observed integer sample, which is what makes serving reports bit-stable
/// across runs.
pub fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
    if sorted.is_empty() {
        return 0;
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.max(1).min(n) - 1]
}

/// Tracks violations of a single latency SLO budget.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SloTracker {
    /// Latency budget in nanoseconds; anything strictly above violates.
    pub budget_ns: u64,
    /// Number of observed requests.
    pub total: u64,
    /// Number of requests whose latency exceeded the budget.
    pub violations: u64,
}

impl SloTracker {
    /// A tracker with the given budget and no observations.
    pub fn new(budget_ns: u64) -> SloTracker {
        SloTracker {
            budget_ns,
            total: 0,
            violations: 0,
        }
    }

    /// Record one request latency.
    pub fn observe(&mut self, latency_ns: u64) {
        self.total += 1;
        if latency_ns > self.budget_ns {
            self.violations += 1;
        }
    }

    /// Fraction of observed requests violating the budget (0 when empty).
    pub fn violation_ratio(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.violations as f64 / self.total as f64
        }
    }
}

/// Collects per-request latencies plus a queue-depth timeline, and exports
/// both into a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<u64>,
    queue_depth: Vec<(u64, u32)>,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> LatencyRecorder {
        LatencyRecorder::default()
    }

    /// Record one completed request's end-to-end latency.
    pub fn observe(&mut self, latency_ns: u64) {
        self.samples.push(latency_ns);
    }

    /// Record the pending-queue depth at a point in virtual time.
    pub fn sample_queue_depth(&mut self, t_ns: u64, depth: u32) {
        self.queue_depth.push((t_ns, depth));
    }

    /// Number of recorded latencies.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no latency has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All recorded latencies, sorted ascending — the reference distribution
    /// exact quantiles are computed from.
    pub fn sorted_ns(&self) -> Vec<u64> {
        let mut v = self.samples.clone();
        v.sort_unstable();
        v
    }

    /// The queue-depth timeline in recording order.
    pub fn queue_depth(&self) -> &[(u64, u32)] {
        &self.queue_depth
    }

    /// Maximum queue depth ever sampled (0 when never sampled).
    pub fn max_queue_depth(&self) -> u32 {
        self.queue_depth.iter().map(|&(_, d)| d).max().unwrap_or(0)
    }

    /// Exact nearest-rank quantile of the recorded latencies.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        exact_quantile(&self.sorted_ns(), q)
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().map(|&s| s as f64).sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Export the latency distribution, summary quantiles, and queue-depth
    /// timeline under `prefix` (e.g. `srv`) into `registry`:
    ///
    /// * `<prefix>_latency_ns` — fixed-bucket histogram over
    ///   [`latency_bounds_ns`];
    /// * `<prefix>_latency_p50_ns` / `_p95_ns` / `_p99_ns` — exact-quantile
    ///   gauges;
    /// * `<prefix>_queue_depth` — time series of sampled depths.
    pub fn export_metrics(&self, prefix: &str, registry: &MetricsRegistry) {
        let hist = format!("{prefix}_latency_ns");
        registry.describe(
            &hist,
            crate::metrics::MetricKind::Histogram,
            "End-to-end request latency in nanoseconds",
        );
        let bounds = latency_bounds_ns();
        registry.histogram_buckets(&hist, &bounds);
        for &s in &self.samples {
            registry.histogram_observe(&hist, &[], s as f64);
        }
        let sorted = self.sorted_ns();
        for (q, tag) in [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")] {
            let name = format!("{prefix}_latency_{tag}_ns");
            registry.describe(
                &name,
                crate::metrics::MetricKind::Gauge,
                "Exact nearest-rank latency quantile in nanoseconds",
            );
            registry.gauge_set(&name, &[], exact_quantile(&sorted, q) as f64);
        }
        let depth = format!("{prefix}_queue_depth");
        registry.describe(
            &depth,
            crate::metrics::MetricKind::TimeSeries,
            "Pending-request queue depth over virtual time",
        );
        for &(t, d) in &self.queue_depth {
            registry.record_sample(&depth, &[], t, d as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn bounds_are_sorted_log_spaced_and_span_the_range() {
        let b = latency_bounds_ns();
        assert!(b.windows(2).all(|w| w[0] < w[1]));
        assert!(b[0] <= 1e3 + 1.0);
        assert!(*b.last().unwrap() >= 1e11);
        // Four buckets per decade: ratio ~10^0.25.
        let ratio = b[1] / b[0];
        assert!((ratio - 10f64.powf(0.25)).abs() < 1e-9);
    }

    #[test]
    fn exact_quantile_matches_nearest_rank_definition() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(exact_quantile(&v, 0.0), 1);
        assert_eq!(exact_quantile(&v, 0.5), 50);
        assert_eq!(exact_quantile(&v, 0.95), 95);
        assert_eq!(exact_quantile(&v, 0.99), 99);
        assert_eq!(exact_quantile(&v, 1.0), 100);
        assert_eq!(exact_quantile(&[], 0.5), 0);
        assert_eq!(exact_quantile(&[42], 0.01), 42);
        assert_eq!(exact_quantile(&[42], 0.99), 42);
    }

    #[test]
    fn slo_tracker_counts_strict_excess_only() {
        let mut slo = SloTracker::new(1_000);
        slo.observe(999);
        slo.observe(1_000);
        slo.observe(1_001);
        slo.observe(5_000);
        assert_eq!(slo.total, 4);
        assert_eq!(slo.violations, 2);
        assert!((slo.violation_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(SloTracker::new(1).violation_ratio(), 0.0);
    }

    #[test]
    fn recorder_quantiles_and_depth_summary() {
        let mut rec = LatencyRecorder::new();
        for s in [300u64, 100, 200, 500, 400] {
            rec.observe(s);
        }
        rec.sample_queue_depth(0, 1);
        rec.sample_queue_depth(10, 7);
        rec.sample_queue_depth(20, 3);
        assert_eq!(rec.len(), 5);
        assert_eq!(rec.quantile_ns(0.5), 300);
        assert_eq!(rec.quantile_ns(1.0), 500);
        assert_eq!(rec.max_queue_depth(), 7);
        assert!((rec.mean_ns() - 300.0).abs() < 1e-12);
    }

    #[test]
    fn export_writes_histogram_quantiles_and_timeline() {
        let mut rec = LatencyRecorder::new();
        for i in 1..=1000u64 {
            rec.observe(i * 1_000); // 1µs .. 1ms
        }
        rec.sample_queue_depth(5, 2);
        let reg = MetricsRegistry::new();
        rec.export_metrics("srv", &reg);
        let snap = reg.snapshot();
        let hist = snap
            .histograms
            .iter()
            .find(|((name, _), _)| name == "srv_latency_ns")
            .map(|(_, h)| h)
            .expect("histogram exported");
        assert_eq!(hist.count, 1000);
        let p99 = snap
            .gauges
            .iter()
            .find(|((name, _), _)| name == "srv_latency_p99_ns")
            .map(|(_, v)| *v)
            .expect("p99 gauge exported");
        assert_eq!(p99, 990_000.0);
        assert!(snap
            .series
            .iter()
            .any(|((name, _), _)| name == "srv_queue_depth"));
    }
}
