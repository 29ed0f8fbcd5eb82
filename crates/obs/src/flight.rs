//! Always-on bounded flight recorder.
//!
//! A [`FlightRecorder`] keeps the last moments of a run in a fixed-capacity
//! ring buffer of compact structured events — span open/close, metric
//! samples, causal tasks, and fault/recovery transitions — so a crash
//! leaves evidence behind without the run ever paying for unbounded
//! telemetry. Recording is observation-only bookkeeping: event timestamps
//! come from the caller's (usually simulated) clock, admission is decided
//! by a seeded hash, and nothing the recorder does feeds back into the
//! run. The only wall-clock state is the self-measured overhead counter,
//! which is excluded from every checksum and digest so dumps stay
//! deterministic.
//!
//! [`FlightDump`] freezes the last N events into a checksummed post-mortem
//! artifact (`picasso.flight_dump`): the FNV-1a 64 checksum covers the
//! canonical payload, and [`FlightDump::validate`] rejects documents whose
//! recomputed checksum disagrees — a truncated or hand-edited dump cannot
//! masquerade as evidence.

pub use crate::checksum::fnv1a64;
use crate::checksum::splitmix64;
use crate::json::{self, Json};
use crate::metrics::{MetricKind, MetricsRegistry};

/// Schema identifier of the post-mortem dump document.
pub const FLIGHT_DUMP_KIND: &str = "picasso.flight_dump";
/// Schema version of the post-mortem dump document.
pub const FLIGHT_DUMP_SCHEMA_VERSION: u64 = 1;

/// What kind of moment an event captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlightCategory {
    /// A span opening or closing (iterations, phases).
    Span,
    /// A sampled metric value (loss, latency).
    Metric,
    /// A causal task the schedule executed (compute, collective).
    Task,
    /// A fault transition (crash, NIC degradation, straggler window).
    Fault,
    /// A recovery transition (restore, checkpoint commit).
    Recovery,
}

impl FlightCategory {
    /// Every category, in stable serialization order.
    pub const ALL: [FlightCategory; 5] = [
        FlightCategory::Span,
        FlightCategory::Metric,
        FlightCategory::Task,
        FlightCategory::Fault,
        FlightCategory::Recovery,
    ];

    /// Stable lower-case name (the JSON `cat` field and metric label).
    pub fn name(&self) -> &'static str {
        match self {
            FlightCategory::Span => "span",
            FlightCategory::Metric => "metric",
            FlightCategory::Task => "task",
            FlightCategory::Fault => "fault",
            FlightCategory::Recovery => "recovery",
        }
    }

    /// Parses a name produced by [`FlightCategory::name`].
    pub fn parse(s: &str) -> Option<FlightCategory> {
        FlightCategory::ALL.into_iter().find(|c| c.name() == s)
    }

    fn index(self) -> usize {
        match self {
            FlightCategory::Span => 0,
            FlightCategory::Metric => 1,
            FlightCategory::Task => 2,
            FlightCategory::Fault => 3,
            FlightCategory::Recovery => 4,
        }
    }
}

/// One compact recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Admission sequence number (gaps mark sampled-out events).
    pub seq: u64,
    /// Event timestamp on the caller's clock, nanoseconds.
    pub t_ns: u64,
    /// Event category.
    pub category: FlightCategory,
    /// Short code naming the event (`"iteration"`, `"collective"`,
    /// `"crash"`, ...).
    pub code: String,
    /// Iteration the event belongs to.
    pub iter: u64,
    /// Payload value (duration, metric sample, or `0.0`). A non-finite
    /// value is written as `null`, which reads back as NaN.
    pub value: f64,
}

impl FlightEvent {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::UInt(self.seq)),
            ("t_ns", Json::UInt(self.t_ns)),
            ("cat", Json::str(self.category.name())),
            ("code", Json::str(&self.code)),
            ("iter", Json::UInt(self.iter)),
            ("value", Json::Num(self.value)),
        ])
    }

    fn from_json(doc: &Json) -> Result<FlightEvent, String> {
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("event missing {k:?}"));
        let cat = field("cat")?.as_str().ok_or("event cat not a string")?;
        Ok(FlightEvent {
            seq: field("seq")?.as_u64().ok_or("bad event seq")?,
            t_ns: field("t_ns")?.as_u64().ok_or("bad event t_ns")?,
            category: FlightCategory::parse(cat)
                .ok_or_else(|| format!("unknown event category {cat:?}"))?,
            code: field("code")?
                .as_str()
                .ok_or("event code not a string")?
                .to_string(),
            iter: field("iter")?.as_u64().ok_or("bad event iter")?,
            value: match field("value")? {
                Json::Null => f64::NAN,
                v => v.as_f64().ok_or("bad event value")?,
            },
        })
    }
}

/// Per-category admission sampling: keep one event in `keep_1_in[cat]`,
/// decided by a seeded hash of the event's sequence number so the kept set
/// is a pure function of `(seed, sequence)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Hash seed; two recorders with the same seed keep the same events.
    pub seed: u64,
    /// Per-category keep rate, indexed like [`FlightCategory::ALL`];
    /// `0` and `1` both mean "keep everything".
    pub keep_1_in: [u32; 5],
}

impl Default for SamplingConfig {
    fn default() -> SamplingConfig {
        SamplingConfig {
            seed: 0,
            keep_1_in: [1; 5],
        }
    }
}

impl SamplingConfig {
    /// Whether the event with this sequence number is admitted.
    pub fn keep(&self, category: FlightCategory, seq: u64) -> bool {
        let n = self.keep_1_in[category.index()] as u64;
        if n <= 1 {
            return true;
        }
        splitmix64(self.seed ^ seq.wrapping_mul(0x9e37_79b9) ^ (category.index() as u64) << 56)
            .is_multiple_of(n)
    }
}

/// Recorder shape: ring capacity, post-mortem length, and sampling knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightConfig {
    /// Ring-buffer capacity in events (at least 1).
    pub capacity: usize,
    /// How many trailing events a post-mortem dump keeps.
    pub dump_last: usize,
    /// Per-category admission sampling.
    pub sampling: SamplingConfig,
}

impl Default for FlightConfig {
    fn default() -> FlightConfig {
        FlightConfig {
            capacity: 512,
            dump_last: 64,
            sampling: SamplingConfig::default(),
        }
    }
}

/// Lifetime accounting of one recorder, overhead included.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightStats {
    /// Ring capacity.
    pub capacity: usize,
    /// Events currently held.
    pub occupancy: usize,
    /// Events offered per category (admitted or not).
    pub seen: [u64; 5],
    /// Events rejected by sampling, per category.
    pub sampled_out: [u64; 5],
    /// Events admitted to the ring over the recorder's lifetime.
    pub recorded: u64,
    /// Admitted events later overwritten by ring wraparound.
    pub overwritten: u64,
    /// Self-measured wall-clock cost of recording, nanoseconds: each
    /// `record` call is timed on its own, each `tasks` run as a whole.
    /// Volatile: excluded from dumps, checksums, and digests.
    pub overhead_ns: u64,
}

impl FlightStats {
    /// Total events offered across categories.
    pub fn seen_total(&self) -> u64 {
        self.seen.iter().sum()
    }

    /// Total events rejected by sampling.
    pub fn sampled_out_total(&self) -> u64 {
        self.sampled_out.iter().sum()
    }
}

/// The bounded ring-buffer recorder.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    config: FlightConfig,
    ring: Vec<FlightEvent>,
    head: usize,
    next_seq: u64,
    seen: [u64; 5],
    sampled_out: [u64; 5],
    recorded: u64,
    overwritten: u64,
    overhead_ns: u64,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::with_config(&FlightConfig::default())
    }
}

impl FlightRecorder {
    /// A recorder with explicit capacity, dump length, and sampling.
    pub fn with_config(config: &FlightConfig) -> FlightRecorder {
        let config = FlightConfig {
            capacity: config.capacity.max(1),
            dump_last: config.dump_last.max(1),
            sampling: config.sampling,
        };
        FlightRecorder {
            ring: Vec::with_capacity(config.capacity),
            config,
            head: 0,
            next_seq: 0,
            seen: [0; 5],
            sampled_out: [0; 5],
            recorded: 0,
            overwritten: 0,
            overhead_ns: 0,
        }
    }

    /// Offers one event; sampling decides admission, wraparound evicts the
    /// oldest admitted event once the ring is full. The call is timed into
    /// [`FlightStats::overhead_ns`].
    pub fn record(
        &mut self,
        category: FlightCategory,
        code: &str,
        iter: u64,
        t_ns: u64,
        value: f64,
    ) {
        let t0 = std::time::Instant::now();
        self.admit(category, code, iter, t_ns, value);
        self.overhead_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Offers one iteration's causal-task completions, `(code, t_ns,
    /// dur_s)` each, in order. The recorder ends in the state one
    /// [`FlightRecorder::task`] call per event would leave, except that
    /// the whole run is timed once into [`FlightStats::overhead_ns`] (the
    /// iterator's own work included): two clock reads per run instead of
    /// two per event.
    pub fn tasks<'a>(&mut self, iter: u64, events: impl IntoIterator<Item = (&'a str, u64, f64)>) {
        let t0 = std::time::Instant::now();
        for (code, t_ns, dur_s) in events {
            self.admit(FlightCategory::Task, code, iter, t_ns, dur_s);
        }
        self.overhead_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Admits one event, untimed: sequence number, sampling, ring write
    /// and accounting.
    fn admit(&mut self, category: FlightCategory, code: &str, iter: u64, t_ns: u64, value: f64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.seen[category.index()] += 1;
        if !self.config.sampling.keep(category, seq) {
            self.sampled_out[category.index()] += 1;
            return;
        }
        if self.ring.len() < self.config.capacity {
            self.ring.push(FlightEvent {
                seq,
                t_ns,
                category,
                code: code.to_string(),
                iter,
                value,
            });
        } else {
            // Evict the oldest event in place, reusing its code buffer.
            let slot = &mut self.ring[self.head];
            slot.seq = seq;
            slot.t_ns = t_ns;
            slot.category = category;
            slot.code.clear();
            slot.code.push_str(code);
            slot.iter = iter;
            slot.value = value;
            self.head = (self.head + 1) % self.config.capacity;
            self.overwritten += 1;
        }
        self.recorded += 1;
    }

    /// Records a span opening.
    pub fn span_open(&mut self, code: &str, iter: u64, t_ns: u64) {
        self.record(FlightCategory::Span, code, iter, t_ns, 0.0);
    }

    /// Records a span closing; `dur_s` is the span's length in seconds.
    pub fn span_close(&mut self, code: &str, iter: u64, t_ns: u64, dur_s: f64) {
        self.record(FlightCategory::Span, code, iter, t_ns, dur_s);
    }

    /// Records a metric sample.
    pub fn metric(&mut self, code: &str, iter: u64, t_ns: u64, value: f64) {
        self.record(FlightCategory::Metric, code, iter, t_ns, value);
    }

    /// Records a causal task completion; `dur_s` is its service time.
    pub fn task(&mut self, code: &str, iter: u64, t_ns: u64, dur_s: f64) {
        self.record(FlightCategory::Task, code, iter, t_ns, dur_s);
    }

    /// Records a fault transition.
    pub fn fault(&mut self, code: &str, iter: u64, t_ns: u64) {
        self.record(FlightCategory::Fault, code, iter, t_ns, 0.0);
    }

    /// Records a recovery transition (restore, checkpoint commit).
    pub fn recovery(&mut self, code: &str, iter: u64, t_ns: u64, value: f64) {
        self.record(FlightCategory::Recovery, code, iter, t_ns, value);
    }

    /// Events currently held.
    pub fn occupancy(&self) -> usize {
        self.ring.len()
    }

    /// The held events, oldest first.
    pub fn events(&self) -> Vec<&FlightEvent> {
        let (tail, head) = self.ring.split_at(self.head);
        head.iter().chain(tail.iter()).collect()
    }

    /// Lifetime accounting.
    pub fn stats(&self) -> FlightStats {
        FlightStats {
            capacity: self.config.capacity,
            occupancy: self.ring.len(),
            seen: self.seen,
            sampled_out: self.sampled_out,
            recorded: self.recorded,
            overwritten: self.overwritten,
            overhead_ns: self.overhead_ns,
        }
    }

    /// Freezes the last `last_n` events into a checksummed post-mortem.
    pub fn dump(&self, last_n: usize) -> FlightDump {
        let events = self.events();
        let skip = events.len().saturating_sub(last_n.max(1));
        FlightDump::new(
            events[skip..].iter().map(|e| (*e).clone()).collect(),
            self.recorded,
            self.overwritten,
            self.sampled_out_total(),
        )
    }

    /// Freezes the configured post-mortem window ([`FlightConfig::dump_last`]).
    pub fn post_mortem(&self) -> FlightDump {
        self.dump(self.config.dump_last)
    }

    fn sampled_out_total(&self) -> u64 {
        self.sampled_out.iter().sum()
    }

    /// Publishes occupancy and drop accounting into a metrics registry.
    pub fn export_metrics(&self, m: &MetricsRegistry) {
        self.stats().export_metrics(m);
    }
}

impl FlightStats {
    /// Publishes this accounting snapshot into a metrics registry:
    /// occupancy/capacity gauges, per-category seen/sampled-out counters,
    /// the wraparound-drop counter, and the (volatile) overhead gauge.
    pub fn export_metrics(&self, m: &MetricsRegistry) {
        m.describe(
            "flight_capacity",
            MetricKind::Gauge,
            "Flight-recorder ring capacity in events",
        );
        m.describe(
            "flight_occupancy",
            MetricKind::Gauge,
            "Events currently held by the flight recorder",
        );
        m.describe(
            "flight_events_seen_total",
            MetricKind::Counter,
            "Events offered to the flight recorder, by category",
        );
        m.describe(
            "flight_events_sampled_out_total",
            MetricKind::Counter,
            "Events rejected by admission sampling, by category",
        );
        m.describe(
            "flight_events_overwritten_total",
            MetricKind::Counter,
            "Admitted events evicted by ring wraparound",
        );
        m.describe(
            "flight_overhead_ns",
            MetricKind::Gauge,
            "Self-measured wall-clock recording overhead, nanoseconds (volatile)",
        );
        m.gauge_set("flight_capacity", &[], self.capacity as f64);
        m.gauge_set("flight_occupancy", &[], self.occupancy as f64);
        for c in FlightCategory::ALL {
            let labels = [("category", c.name())];
            if self.seen[c.index()] > 0 {
                m.counter_add("flight_events_seen_total", &labels, self.seen[c.index()]);
            }
            if self.sampled_out[c.index()] > 0 {
                m.counter_add(
                    "flight_events_sampled_out_total",
                    &labels,
                    self.sampled_out[c.index()],
                );
            }
        }
        m.counter_add("flight_events_overwritten_total", &[], self.overwritten);
        m.gauge_set("flight_overhead_ns", &[], self.overhead_ns as f64);
    }
}

/// A checksummed post-mortem artifact: the recorder's trailing events plus
/// enough lifetime accounting to judge how much history was lost.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Trailing events, oldest first.
    pub events: Vec<FlightEvent>,
    /// Events admitted over the recorder's lifetime.
    pub recorded_total: u64,
    /// Admitted events lost to ring wraparound.
    pub dropped: u64,
    /// Events rejected by sampling.
    pub sampled_out: u64,
    /// FNV-1a 64 over the canonical payload.
    pub checksum: u64,
}

impl FlightDump {
    /// Builds a dump, computing its checksum.
    pub fn new(
        events: Vec<FlightEvent>,
        recorded_total: u64,
        dropped: u64,
        sampled_out: u64,
    ) -> FlightDump {
        let mut dump = FlightDump {
            events,
            recorded_total,
            dropped,
            sampled_out,
            checksum: 0,
        };
        dump.checksum = fnv1a64(dump.payload().to_json().as_bytes());
        dump
    }

    /// The deterministic checksum (also the scenario digest).
    pub fn digest(&self) -> u64 {
        self.checksum
    }

    /// The last event of a category, if any.
    pub fn last_of(&self, category: FlightCategory) -> Option<&FlightEvent> {
        self.events.iter().rev().find(|e| e.category == category)
    }

    fn payload(&self) -> Json {
        Json::obj([
            ("schema_version", Json::UInt(FLIGHT_DUMP_SCHEMA_VERSION)),
            ("kind", Json::str(FLIGHT_DUMP_KIND)),
            ("recorded_total", Json::UInt(self.recorded_total)),
            ("dropped", Json::UInt(self.dropped)),
            ("sampled_out", Json::UInt(self.sampled_out)),
            (
                "events",
                Json::Arr(self.events.iter().map(FlightEvent::to_json).collect()),
            ),
        ])
    }

    /// The full document, checksum included.
    pub fn to_json(&self) -> Json {
        let Json::Obj(mut pairs) = self.payload() else {
            unreachable!("payload is an object");
        };
        pairs.push((
            "checksum".to_string(),
            Json::str(format!("{:016x}", self.checksum)),
        ));
        Json::Obj(pairs)
    }

    /// Parses and checksum-validates a dump document.
    pub fn validate(doc: &Json) -> Result<FlightDump, String> {
        let kind = doc.get("kind").and_then(Json::as_str).unwrap_or_default();
        if kind != FLIGHT_DUMP_KIND {
            return Err(format!("not a flight dump (kind {kind:?})"));
        }
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .ok_or("missing schema_version")?;
        if version != FLIGHT_DUMP_SCHEMA_VERSION {
            return Err(format!("unsupported flight-dump schema {version}"));
        }
        let want = doc
            .get("checksum")
            .and_then(Json::as_str)
            .ok_or("missing checksum")?;
        let want = u64::from_str_radix(want, 16).map_err(|_| "malformed checksum".to_string())?;
        let mut events = Vec::new();
        for e in doc
            .get("events")
            .and_then(Json::items)
            .ok_or("missing events")?
        {
            events.push(FlightEvent::from_json(e)?);
        }
        let take = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing {k}"))
        };
        let rebuilt = FlightDump::new(
            events,
            take("recorded_total")?,
            take("dropped")?,
            take("sampled_out")?,
        );
        if rebuilt.checksum != want {
            return Err(format!(
                "flight-dump checksum mismatch: document says {want:016x}, \
                 payload hashes to {:016x}",
                rebuilt.checksum
            ));
        }
        Ok(rebuilt)
    }

    /// Parses and validates a serialized dump.
    pub fn from_text(text: &str) -> Result<FlightDump, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        FlightDump::validate(&doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(capacity: usize) -> FlightRecorder {
        FlightRecorder::with_config(&FlightConfig {
            capacity,
            ..FlightConfig::default()
        })
    }

    fn fill(rec: &mut FlightRecorder, n: u64) {
        for i in 0..n {
            rec.task("compute", i, i * 1_000, 0.05);
        }
    }

    #[test]
    fn ring_keeps_the_latest_capacity_events() {
        let mut rec = ring(4);
        fill(&mut rec, 10);
        assert_eq!(rec.occupancy(), 4);
        let seqs: Vec<u64> = rec.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [6, 7, 8, 9], "oldest-first, trailing window");
        let stats = rec.stats();
        assert_eq!(stats.recorded, 10);
        assert_eq!(stats.overwritten, 6);
        assert_eq!(stats.seen_total(), 10);
        assert_eq!(stats.sampled_out_total(), 0);
    }

    #[test]
    fn sampling_is_deterministic_per_seed_and_counts_rejects() {
        let config = FlightConfig {
            capacity: 1024,
            dump_last: 64,
            sampling: SamplingConfig {
                seed: 7,
                keep_1_in: [1, 1, 4, 1, 1],
            },
        };
        let mut a = FlightRecorder::with_config(&config);
        let mut b = FlightRecorder::with_config(&config);
        fill(&mut a, 200);
        fill(&mut b, 200);
        let sa: Vec<u64> = a.events().iter().map(|e| e.seq).collect();
        let sb: Vec<u64> = b.events().iter().map(|e| e.seq).collect();
        assert_eq!(sa, sb, "same seed keeps the same events");
        let stats = a.stats();
        assert!(stats.sampled_out[FlightCategory::Task.index()] > 0);
        assert_eq!(
            stats.recorded + stats.sampled_out_total(),
            stats.seen_total()
        );
    }

    #[test]
    fn dump_round_trips_and_validates() {
        let mut rec = ring(8);
        fill(&mut rec, 20);
        rec.fault("crash", 20, 20_000);
        let dump = rec.dump(5);
        assert_eq!(dump.events.len(), 5);
        assert_eq!(dump.recorded_total, 21);
        let text = dump.to_json().to_json();
        let back = FlightDump::from_text(&text).expect("validates");
        assert_eq!(back, dump);
        assert_eq!(back.digest(), dump.digest());
        assert_eq!(
            back.last_of(FlightCategory::Fault).map(|e| e.iter),
            Some(20)
        );
    }

    #[test]
    fn non_finite_values_round_trip_with_their_checksum() {
        let mut rec = ring(8);
        rec.metric("loss", 0, 10, f64::NAN);
        rec.metric("loss", 1, 20, f64::INFINITY);
        rec.task("compute", 2, 30, f64::NEG_INFINITY);
        rec.metric("loss", 3, 40, 0.25);
        let dump = rec.post_mortem();
        let text = dump.to_json().to_json();
        assert!(!text.contains("NaN") && !text.contains("inf"), "{text}");
        let back = FlightDump::from_text(&text).expect("a written dump decodes");
        assert_eq!(back.digest(), dump.digest());
        assert_eq!(back.to_json().to_json(), text);
        assert!(back.events[..3].iter().all(|e| e.value.is_nan()));
        assert_eq!(back.events[3].value, 0.25);
    }

    #[test]
    fn a_wrapped_ring_reuses_its_slots() {
        let mut rec = ring(2);
        rec.task("a-long-code", 0, 0, 0.0);
        rec.task("b", 1, 1, 0.0);
        let buffer = rec.ring[0].code.as_ptr();
        // The third event evicts the first and writes into its buffer.
        rec.task("c", 2, 2, 0.5);
        assert_eq!(rec.ring[0].code.as_ptr(), buffer);
        let events: Vec<(u64, &str, u64, f64)> = rec
            .events()
            .iter()
            .map(|e| (e.seq, e.code.as_str(), e.iter, e.value))
            .collect();
        assert_eq!(events, [(1, "b", 1, 0.0), (2, "c", 2, 0.5)]);
    }

    #[test]
    fn tampered_dump_is_rejected() {
        let mut rec = ring(8);
        fill(&mut rec, 4);
        let text = rec.dump(4).to_json().to_json();
        let tampered = text.replace("\"iter\":3", "\"iter\":4");
        assert_ne!(tampered, text, "tampering changed the payload");
        let err = FlightDump::from_text(&tampered).expect_err("checksum catches it");
        assert!(err.contains("checksum mismatch"), "{err}");
        assert!(FlightDump::from_text("{\"kind\":\"nope\"}").is_err());
    }

    #[test]
    fn overhead_is_accounted_but_not_checksummed() {
        let mut a = ring(8);
        let mut b = ring(8);
        fill(&mut a, 8);
        fill(&mut b, 8);
        assert!(a.stats().overhead_ns > 0, "recording costs something");
        // Overhead differs run to run; digests must not.
        assert_eq!(a.dump(8).digest(), b.dump(8).digest());
    }

    #[test]
    fn a_task_run_is_accounted_and_timed() {
        let mut rec = ring(8);
        rec.tasks(3, (0..100).map(|i| ("compute", i * 1_000, 0.05)));
        let stats = rec.stats();
        assert_eq!(stats.seen_total(), 100);
        assert_eq!((stats.recorded, stats.overwritten), (100, 92));
        assert!(stats.overhead_ns > 0, "the run is timed");
        let last = rec.events()[7];
        assert_eq!((last.seq, last.iter, last.t_ns), (99, 3, 99_000));
    }

    #[test]
    fn export_metrics_publishes_occupancy_and_drops() {
        let mut rec = ring(2);
        fill(&mut rec, 5);
        let m = MetricsRegistry::new();
        rec.export_metrics(&m);
        assert_eq!(m.gauge_value("flight_occupancy", &[]), Some(2.0));
        assert_eq!(m.gauge_value("flight_capacity", &[]), Some(2.0));
        assert_eq!(
            m.counter_value("flight_events_seen_total", &[("category", "task")]),
            5
        );
        assert_eq!(m.counter_value("flight_events_overwritten_total", &[]), 3);
    }

    #[test]
    fn category_names_round_trip() {
        for c in FlightCategory::ALL {
            assert_eq!(FlightCategory::parse(c.name()), Some(c));
        }
        assert_eq!(FlightCategory::parse("nope"), None);
    }
}
