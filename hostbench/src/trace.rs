//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! An op records *layer* spans around the public calls it makes; those
//! spans partition the op, so its end-to-end time is their sum plus an
//! `other.ms` remainder. A layer whose entry point is reached only through
//! another call (warm-up inside `exec::run`, say) is timed by a *probe*: a
//! second call of its public function on the same inputs, made after the
//! op's timed window, whose time is carved out of the enclosing span.
//! *Details* are nested times, counts and ratios that are reported but do
//! not take part in the partition. With tracing off every method is a
//! plain call, so the untraced run pays nothing for the instrumentation.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-op span and count recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    /// Spans that partition the op, milliseconds.
    layers: BTreeMap<&'static str, f64>,
    /// Spans that enclose probed layers; split by [`Tracer::carve`].
    outer: BTreeMap<&'static str, f64>,
    /// Nested times, counts and ratios outside the partition.
    details: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            ..Tracer::default()
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn timed<T>(on: bool, f: impl FnOnce() -> T) -> (T, f64) {
        if !on {
            return (f(), 0.0);
        }
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64() * 1e3)
    }

    /// Times `f` as (part of) layer `name` of the op.
    pub fn layer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, ms) = Self::timed(self.on, f);
        if self.on {
            *self.layers.entry(name).or_default() += ms;
        }
        out
    }

    /// Times `f` as an enclosing span whose probed sub-layers are carved out
    /// of it after the op.
    pub fn outer<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (out, ms) = Self::timed(self.on, f);
        if self.on {
            *self.outer.entry(name).or_default() += ms;
        }
        out
    }

    /// Times `f` as a probe: a repeat of a layer's public call, outside the
    /// op's timed window. Returns the result and its time in milliseconds.
    pub fn probe<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        Self::timed(self.on, f)
    }

    /// Splits enclosing span `outer` into the probed `parts` and a
    /// `self_name` remainder (clamped at zero), all recorded as layers.
    /// Returns the enclosing span's time in milliseconds.
    pub fn carve(
        &mut self,
        outer: &str,
        parts: &[(&'static str, f64)],
        self_name: &'static str,
    ) -> f64 {
        let total = self.outer.remove(outer).unwrap_or(0.0);
        let ms: Vec<f64> = parts.iter().map(|&(_, ms)| ms).collect();
        for &(name, ms) in parts {
            *self.layers.entry(name).or_default() += ms;
        }
        *self.layers.entry(self_name).or_default() += stats::other_ms(total, &ms);
        total
    }

    /// Records a detail value (a nested time, a count or a ratio).
    pub fn detail(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.details.insert(name, value);
        }
    }

    /// Closes the op whose timed window lasted `e2e_ms`: returns every
    /// layer, detail and the `other.ms` remainder, and clears the recorder
    /// for the next op.
    pub fn finish(&mut self, e2e_ms: f64) -> BTreeMap<&'static str, f64> {
        let mut row = std::mem::take(&mut self.details);
        // An enclosing span nobody carved stays whole in the partition.
        for (name, ms) in std::mem::take(&mut self.outer) {
            *self.layers.entry(name).or_default() += ms;
        }
        let layers = std::mem::take(&mut self.layers);
        let spans: Vec<f64> = layers.values().copied().collect();
        row.insert("other.ms", stats::other_ms(e2e_ms, &spans));
        row.insert("op.ms", e2e_ms);
        row.extend(layers);
        row
    }
}

/// The per-op spans that partition an op's end-to-end time; the layer
/// share table sums these (plus `other.ms`).
pub const PARTITION: &[&str] = &[
    "exec.warmup.ms",
    "exec.prepare.self_ms",
    "lint.stage.ms",
    "exec.simulate.ms",
    "exec.telemetry.ms",
    "obs.analysis.ms",
    "obs.flight.ms",
    "obs.chrome.ms",
    "sim.traffic.ms",
    "serve.replica.ms",
    "train.baseline.ms",
    "exec.recovery.ms",
    "other.ms",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.layer("exec.simulate.ms", || 7), 7);
        tr.detail("graph.ops", 3.0);
        let row = tr.finish(5.0);
        assert_eq!(row.get("other.ms"), Some(&5.0));
        assert!(!row.contains_key("graph.ops"));
    }

    #[test]
    fn carve_splits_the_outer_span_and_keeps_other_non_negative() {
        let mut tr = Tracer::new(true);
        tr.outer.insert("exec.run", 10.0);
        tr.layers.insert("obs.flight.ms", 2.0);
        tr.carve(
            "exec.run",
            &[("exec.warmup.ms", 6.0), ("exec.simulate.ms", 3.0)],
            "exec.prepare.self_ms",
        );
        let row = tr.finish(13.0);
        assert_eq!(row["exec.prepare.self_ms"], 1.0);
        assert_eq!(row["other.ms"], 1.0);
        let sum: f64 = PARTITION.iter().filter_map(|k| row.get(k)).sum();
        assert!((sum - 13.0).abs() < 1e-12);

        // Probes that overshoot their enclosing span clamp to zero.
        tr.outer.insert("exec.run", 4.0);
        tr.carve(
            "exec.run",
            &[("exec.warmup.ms", 6.0)],
            "exec.prepare.self_ms",
        );
        let row = tr.finish(5.0);
        assert_eq!(row["exec.prepare.self_ms"], 0.0);
        assert_eq!(row["other.ms"], 0.0);
    }
}
