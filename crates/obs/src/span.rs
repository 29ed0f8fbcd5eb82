//! Span and instant-event tracing.
//!
//! A [`Tracer`] collects [`SpanRecord`]s on named tracks, each recorded
//! with explicit timestamps through [`Tracer::record_span`]: live code reads
//! the tracer's [`Clock`] before and after the work it times, post-hoc
//! analysis (e.g. deriving iteration spans from simulator task records)
//! passes the records' own times. Flow edges connect spans across tracks —
//! the Chrome exporter turns them into `"s"/"f"` arrows.

use crate::clock::Clock;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name, e.g. `iteration` or `micro_batch`.
    pub name: String,
    /// Track (rendered as a thread lane) the span belongs to.
    pub track: String,
    /// Start time in nanoseconds.
    pub start_ns: u64,
    /// End time in nanoseconds (`>= start_ns`).
    pub end_ns: u64,
    /// Free-form key/value annotations.
    pub args: Vec<(String, String)>,
}

/// An instant event (zero duration).
#[derive(Debug, Clone, PartialEq)]
pub struct InstantRecord {
    /// Event name.
    pub name: String,
    /// Track the event belongs to.
    pub track: String,
    /// Timestamp in nanoseconds.
    pub t_ns: u64,
}

/// A directed dependency between two points in time, rendered as a flow
/// arrow from `(from_track, from_ns)` to `(to_track, to_ns)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRecord {
    /// Source track.
    pub from_track: String,
    /// Source timestamp (typically a span end).
    pub from_ns: u64,
    /// Destination track.
    pub to_track: String,
    /// Destination timestamp (typically a span start).
    pub to_ns: u64,
    /// Flow name/category.
    pub name: String,
}

#[derive(Debug, Default)]
struct TraceStore {
    spans: Vec<SpanRecord>,
    instants: Vec<InstantRecord>,
    flows: Vec<FlowRecord>,
}

/// Collects spans, instants, and flows against an explicit clock.
pub struct Tracer<C: Clock> {
    clock: C,
    store: Mutex<TraceStore>,
}

impl<C: Clock> Tracer<C> {
    /// A tracer timing live spans against `clock`.
    pub fn new(clock: C) -> Tracer<C> {
        Tracer {
            clock,
            store: Mutex::new(TraceStore::default()),
        }
    }

    /// The tracer's clock.
    pub fn clock(&self) -> &C {
        &self.clock
    }

    /// The record store. A poisoned lock is taken as is: records are
    /// pushed whole, so a thread that panicked while holding it left no
    /// record half written.
    fn store(&self) -> MutexGuard<'_, TraceStore> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records a span with explicit timestamps (post-hoc tracing).
    pub fn record_span(
        &self,
        track: &str,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        args: &[(&str, &str)],
    ) {
        let mut store = self.store();
        store.spans.push(SpanRecord {
            name: name.to_string(),
            track: track.to_string(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            args: args
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }

    /// Records an instant event with an explicit timestamp.
    pub fn instant_at(&self, track: &str, name: &str, t_ns: u64) {
        let mut store = self.store();
        store.instants.push(InstantRecord {
            name: name.to_string(),
            track: track.to_string(),
            t_ns,
        });
    }

    /// Records a flow edge with explicit endpoints.
    pub fn flow(&self, name: &str, from_track: &str, from_ns: u64, to_track: &str, to_ns: u64) {
        let mut store = self.store();
        store.flows.push(FlowRecord {
            from_track: from_track.to_string(),
            from_ns,
            to_track: to_track.to_string(),
            to_ns,
            name: name.to_string(),
        });
    }

    /// All completed spans so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.store().spans.clone()
    }

    /// All instant events so far.
    pub fn instants(&self) -> Vec<InstantRecord> {
        self.store().instants.clone()
    }

    /// All flow edges so far.
    pub fn flows(&self) -> Vec<FlowRecord> {
        self.store().flows.clone()
    }

    /// The distinct tracks the spans, instants and flows so far name,
    /// sorted: the lanes a [`crate::ChromeTrace`] importing this tracer
    /// declares.
    pub fn tracks(&self) -> Vec<String> {
        let store = self.store();
        let mut names: Vec<&str> = (store.spans.iter().map(|s| s.track.as_str()))
            .chain(store.instants.iter().map(|i| i.track.as_str()))
            .chain((store.flows.iter()).flat_map(|f| [f.from_track.as_str(), f.to_track.as_str()]))
            .collect();
        names.sort_unstable();
        names.dedup();
        names.into_iter().map(str::to_string).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    #[test]
    fn explicit_records_clamp_backwards_spans() {
        let tracer = Tracer::new(ManualClock::new());
        tracer.record_span("t", "s", 50, 20, &[]);
        assert_eq!(tracer.spans()[0].end_ns, 50);
    }

    #[test]
    fn tracks_lists_every_named_track_once_sorted() {
        let tracer = Tracer::new(ManualClock::new());
        assert!(tracer.tracks().is_empty());
        tracer.record_span("sched", "s", 0, 1, &[]);
        tracer.instant_at("frames", "i", 0);
        tracer.flow("dep", "sched", 1, "comm", 2);
        tracer.record_span("frames", "s", 0, 1, &[]);
        assert_eq!(tracer.tracks(), ["comm", "frames", "sched"]);
    }

    #[test]
    fn instants_and_flows_are_kept() {
        let tracer = Tracer::new(ManualClock::new());
        tracer.instant_at("frames", "iteration 0", 5);
        tracer.instant_at("frames", "iteration 1", 9);
        tracer.flow("dep", "a", 1, "b", 2);
        assert_eq!(tracer.instants().len(), 2);
        assert_eq!(tracer.instants()[0].t_ns, 5);
        assert_eq!(tracer.flows()[0].to_ns, 2);
    }
}
