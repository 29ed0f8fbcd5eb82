//! Request-latency measurement for the serving path: exact quantiles over
//! collected samples, SLO-violation tracking, and queue-depth timelines.
//!
//! Serving reports tail latency (p50/p95/p99), not throughput, so precision
//! at the tail matters. The recorder therefore keeps every sample (serving
//! scenarios observe tens of thousands of requests — cheap) and computes
//! *exact* nearest-rank quantiles; the fixed-bucket [`crate::metrics::Histogram`]
//! is only an export format for Prometheus/Chrome, never the source of truth.

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
}

/// Collects per-request latencies plus a queue-depth timeline.
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

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().map(|&s| s as f64).sum::<f64>() / self.samples.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // The serving report's quantiles: nearest rank over `sorted_ns`.
        let sorted = rec.sorted_ns();
        assert_eq!(sorted, [100, 200, 300, 400, 500]);
        assert_eq!(exact_quantile(&sorted, 0.5), 300);
        assert_eq!(exact_quantile(&sorted, 1.0), 500);
        assert_eq!(rec.max_queue_depth(), 7);
        assert!((rec.mean_ns() - 300.0).abs() < 1e-12);
    }
}
