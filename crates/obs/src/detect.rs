//! Online anomaly detectors over the run-time metrics stream.
//!
//! These consume per-iteration observations *during* a run (the recovery
//! loop feeds them) and flag the three degradations a PICASSO-style
//! synchronous trainer cares about:
//!
//! * [`stragglers`] — cross-worker z-score over per-worker stage
//!   latencies; a straggler drags every synchronous step, so one slow
//!   worker among healthy peers stands far outside the step's own spread.
//! * [`SlopeDetector`] — least-squares slope over a sliding window of
//!   collective latencies; a degrading NIC shows up as a sustained upward
//!   trend rather than a single spike.
//! * [`queue_runaway`] — retry/queue-depth runaway; a partitioned network
//!   makes the collective retry queue grow past any healthy bound.
//!
//! Detectors are pure functions of the numbers they are fed (the slope
//! detector keeps only its window): no clocks, no randomness, so
//! detections are as deterministic as the metrics stream itself.

use std::fmt;

/// What kind of degradation a detector flagged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AnomalyKind {
    /// One worker's stage latency is a cross-worker outlier.
    Straggler,
    /// Collective latency is trending upward across the window.
    NicDegradation,
    /// The retry/backoff queue depth crossed its runaway limit.
    QueueRunaway,
}

impl fmt::Display for AnomalyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AnomalyKind::Straggler => "straggler",
            AnomalyKind::NicDegradation => "nic-degradation",
            AnomalyKind::QueueRunaway => "queue-runaway",
        })
    }
}

/// One detection: what fired, where, and against which threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Anomaly {
    /// Degradation class.
    pub kind: AnomalyKind,
    /// Iteration the detector fired at.
    pub at_iter: u64,
    /// Offending worker, when the signal is per-worker.
    pub worker: Option<usize>,
    /// Observed statistic (z-score, slope, or queue depth).
    pub value: f64,
    /// Threshold the statistic crossed.
    pub threshold: f64,
}

/// Minimum z-score for a straggler to fire. One outlier among n workers
/// has z = sqrt(n-1) against the population stddev (1.73 at n=4); 1.5
/// catches it with margin while two-sided noise stays well below.
const STRAGGLER_Z: f64 = 1.5;
/// Minimum relative excess over the step's mean for a straggler to fire
/// (0.2 = 20% slower).
const STRAGGLER_MIN_REL: f64 = 0.2;
/// Samples in the slope detector's window; it is silent until it fills.
const SLOPE_WINDOW: usize = 4;
/// Queue depth at which the retry queue counts as running away.
const QUEUE_LIMIT: u64 = 2;

/// Cross-worker straggler detection by z-score.
///
/// Scores one step's per-worker latencies of one synchronous stage and
/// returns every worker that fired. A worker fires when its z-score
/// against that step's own mean/stddev exceeds 1.5 *and* its latency
/// exceeds the mean by at least 20% — the relative floor keeps
/// numerically-tight steps (where stddev is nearly zero) from flagging
/// noise. Fewer than two workers can never fire (no spread to test).
pub fn stragglers(at_iter: u64, latencies: &[f64]) -> Vec<Anomaly> {
    let n = latencies.len();
    if n < 2 {
        return Vec::new();
    }
    let mean = latencies.iter().sum::<f64>() / n as f64;
    let var = latencies.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
    let sd = var.sqrt();
    if sd <= f64::EPSILON * mean.abs().max(1.0) {
        return Vec::new();
    }
    latencies
        .iter()
        .enumerate()
        .filter_map(|(w, &x)| {
            let z = (x - mean) / sd;
            let rel = if mean > 0.0 { x / mean - 1.0 } else { 0.0 };
            (z > STRAGGLER_Z && rel >= STRAGGLER_MIN_REL).then_some(Anomaly {
                kind: AnomalyKind::Straggler,
                at_iter,
                worker: Some(w),
                value: z,
                threshold: STRAGGLER_Z,
            })
        })
        .collect()
}

/// Trend detection by least-squares slope over a sliding window of 4
/// samples.
#[derive(Debug, Clone)]
pub struct SlopeDetector {
    /// Minimum per-sample slope to fire.
    pub min_slope: f64,
    samples: Vec<f64>,
}

impl SlopeDetector {
    /// A detector firing when the latest 4 samples trend upward by more
    /// than `min_slope` per sample.
    pub fn new(min_slope: f64) -> SlopeDetector {
        SlopeDetector {
            min_slope,
            samples: Vec::new(),
        }
    }

    /// Feeds one sample; fires once the window is full and trending.
    pub fn observe(&mut self, at_iter: u64, sample: f64) -> Option<Anomaly> {
        self.samples.push(sample);
        if self.samples.len() > SLOPE_WINDOW {
            self.samples.remove(0);
        }
        if self.samples.len() < SLOPE_WINDOW {
            return None;
        }
        let slope = least_squares_slope(&self.samples);
        (slope > self.min_slope).then_some(Anomaly {
            kind: AnomalyKind::NicDegradation,
            at_iter,
            worker: None,
            value: slope,
            threshold: self.min_slope,
        })
    }

    /// Drops buffered samples (e.g. across a recovery rewind, so the
    /// post-restore window is not polluted by pre-crash latencies).
    pub fn reset(&mut self) {
        self.samples.clear();
    }
}

/// Per-sample slope of the least-squares line through `ys` at x = 0..n.
fn least_squares_slope(ys: &[f64]) -> f64 {
    let n = ys.len() as f64;
    let mean_x = (n - 1.0) / 2.0;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &y) in ys.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (y - mean_y);
        den += dx * dx;
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Queue-depth runaway detection: fires whenever the observed depth
/// reaches 2.
pub fn queue_runaway(at_iter: u64, depth: u64) -> Option<Anomaly> {
    (depth >= QUEUE_LIMIT).then_some(Anomaly {
        kind: AnomalyKind::QueueRunaway,
        at_iter,
        worker: None,
        value: depth as f64,
        threshold: QUEUE_LIMIT as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straggler_fires_on_the_slow_worker_only() {
        // Worker 2 at 2x among four: z = sqrt(3) > 1.5, rel = 60% > 20%.
        let hits = stragglers(7, &[0.05, 0.05, 0.10, 0.05]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].worker, Some(2));
        assert_eq!(hits[0].at_iter, 7);
        assert!(hits[0].value > 1.5);
    }

    #[test]
    fn straggler_is_silent_on_uniform_and_tiny_inputs() {
        assert!(stragglers(0, &[0.05, 0.05, 0.05, 0.05]).is_empty());
        assert!(stragglers(0, &[0.05]).is_empty());
        assert!(stragglers(0, &[]).is_empty());
        // Jitter below the relative floor stays silent even if z is large.
        assert!(stragglers(0, &[0.050, 0.050, 0.055, 0.050]).is_empty());
    }

    #[test]
    fn slope_fires_on_a_sustained_rise_not_a_flat_line() {
        let mut d = SlopeDetector::new(0.005);
        for (i, s) in [0.01, 0.01, 0.01, 0.01].iter().enumerate() {
            assert!(d.observe(i as u64, *s).is_none(), "flat baseline");
        }
        // Degrading NIC: latency climbs each iteration.
        let mut fired = None;
        for (i, s) in [0.01, 0.02, 0.03, 0.04].iter().enumerate() {
            if let Some(a) = d.observe(10 + i as u64, *s) {
                fired = Some(a);
            }
        }
        let a = fired.expect("rising window fires");
        assert_eq!(a.kind, AnomalyKind::NicDegradation);
        assert!(a.value > 0.005);
    }

    #[test]
    fn slope_is_silent_until_the_window_fills_and_after_reset() {
        let mut d = SlopeDetector::new(0.001);
        assert!(d.observe(0, 0.0).is_none());
        assert!(d.observe(1, 1.0).is_none());
        assert!(d.observe(2, 2.0).is_none());
        assert!(d.observe(3, 3.0).is_some(), "window full and rising");
        d.reset();
        assert!(d.observe(4, 4.0).is_none(), "reset empties the window");
    }

    #[test]
    fn queue_depth_fires_at_the_limit() {
        assert!(queue_runaway(0, 0).is_none());
        assert!(queue_runaway(0, 1).is_none());
        let a = queue_runaway(3, 2).expect("limit reached");
        assert_eq!(a.kind, AnomalyKind::QueueRunaway);
        assert_eq!(a.value, 2.0);
        assert!(queue_runaway(3, 5).is_some());
    }

    #[test]
    fn anomaly_kinds_render_stable_names() {
        assert_eq!(AnomalyKind::Straggler.to_string(), "straggler");
        assert_eq!(AnomalyKind::NicDegradation.to_string(), "nic-degradation");
        assert_eq!(AnomalyKind::QueueRunaway.to_string(), "queue-runaway");
    }
}
