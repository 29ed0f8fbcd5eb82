//! Chrome trace-event exporter (Perfetto / `chrome://tracing` compatible).
//!
//! Builds a `{"traceEvents": [...]}` document from spans, instants, counter
//! samples, and flow edges. Tracks map to thread lanes. The trace takes its
//! lane set when it is created ([`ChromeTrace::new`]) and numbers the lanes
//! by name: the lane that sorts first gets tid 1, the next tid 2, and so
//! on. [`ChromeTrace::track`] resolves a declared name to a [`Track`]
//! handle, writing the lane's `thread_name` metadata event the first time
//! the name is used, and every lane event takes the handle.
//! [`ChromeTrace::set_sort_index`] pins a track's position in the UI with a
//! `thread_sort_index` metadata event. Counter lanes use `"ph":"C"`
//! events, dependencies use `"ph":"s"`/`"ph":"f"` flow pairs, and frame
//! markers are global instants (`"ph":"i","s":"g"`).
//!
//! A caller that writes many events with the same fixed fields renders
//! those fields once. [`ChromeTrace::slice_head`] renders a span's opening
//! on one track with one name and category, up to its start time;
//! [`ChromeTrace::flow_lane`] renders a track's flow-event fields and
//! [`ChromeTrace::flow_heads`] a flow name's two event openings.
//! [`ChromeTrace::task_slice`] and [`ChromeTrace::flow_between`] then write
//! an event from those fragments plus its times, id and arguments. Each
//! fragment has one writer, which [`ChromeTrace::complete`] and
//! [`ChromeTrace::flow`] also render through, so both paths write the same
//! bytes. Building a fragment writes nothing into the document.

use crate::json::{write_escaped, write_f64, write_micros, write_rounded, write_u64};
use crate::metrics::MetricsSnapshot;
use crate::span::Tracer;
use crate::Clock;
use std::fmt::Write as _;

/// A track (thread lane) of a [`ChromeTrace`], from [`ChromeTrace::track`].
/// Lane events take the handle, so a track's name is resolved once, not
/// once per event. A handle belongs to the trace that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Track(usize);

impl Track {
    /// The lane's tid: its rank among the declared names, plus 1.
    fn tid(self) -> u64 {
        self.0 as u64 + 1
    }
}

/// A complete span's opening on one track, with one name and category,
/// rendered once by [`ChromeTrace::slice_head`]: every field before the
/// start time.
#[derive(Debug, Clone)]
pub struct SliceHead(String);

/// A track's flow-event fields, rendered once by [`ChromeTrace::flow_lane`]:
/// everything between a flow event's id and its time.
#[derive(Debug, Clone)]
pub struct FlowLane(String);

/// A flow name's `"s"` and `"f"` event openings, rendered once by
/// [`ChromeTrace::flow_heads`]: every field before the flow id.
#[derive(Debug, Clone)]
pub struct FlowHeads {
    start: String,
    finish: String,
}

/// The fields that set a flow's source event apart, after its name.
const FLOW_START: &str = ",\"cat\":\"flow\",\"ph\":\"s\",\"id\":";
/// The fields that set a flow's destination event apart, after its name.
const FLOW_FINISH: &str = ",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":";

/// Writes a complete span's opening: `{"name":..,"cat":..,"ph":"X",`
/// `"pid":1,"tid":<N>,"ts":`. The one writer of the span's fixed fields.
fn write_slice_head(track: Track, name: &str, cat: &str, out: &mut String) {
    out.push_str("{\"name\":");
    write_escaped(name, out);
    out.push_str(",\"cat\":");
    write_escaped(cat, out);
    out.push_str(",\"ph\":\"X\",\"pid\":1,\"tid\":");
    write_u64(track.tid(), out);
    out.push_str(",\"ts\":");
}

/// Writes a flow event's opening, `{"name":..` then `fields` (which end
/// in `"id":`). The one writer of a flow event's fixed fields.
fn write_flow_head(name: &str, fields: &str, out: &mut String) {
    out.push_str("{\"name\":");
    write_escaped(name, out);
    out.push_str(fields);
}

/// Writes a flow event's lane fields, `,"pid":1,"tid":<N>,"ts":`. The one
/// writer of a flow event's lane.
fn write_flow_lane(track: Track, out: &mut String) {
    out.push_str(",\"pid\":1,\"tid\":");
    write_u64(track.tid(), out);
    out.push_str(",\"ts\":");
}

/// Incrementally built Chrome trace document.
///
/// Each event is rendered to JSON once, when it is added, into the
/// document itself: the lane set is fixed at creation, so every lane
/// event's tid is final when it is written, and [`ChromeTrace::to_json`]
/// only closes the document.
#[derive(Debug)]
pub struct ChromeTrace {
    /// The document so far: its opening, then the rendered events,
    /// comma-separated.
    text: String,
    /// The declared lane names, sorted and deduplicated; a lane's tid is
    /// its index + 1.
    lanes: Vec<String>,
    /// Whether each lane's `thread_name` event has been written.
    named: Vec<bool>,
    events: usize,
    flows: u64,
}

impl ChromeTrace {
    /// An empty trace over the lanes named in `lanes`. Duplicates are
    /// dropped, and the names in sorted order get tids 1, 2, ... (tid 0
    /// is the global frame markers'). Declare exactly the lanes that get
    /// events: a declared lane that never does still takes a tid, which
    /// shifts the tids of the lanes that sort after it.
    pub fn new<I>(lanes: I) -> ChromeTrace
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut lanes: Vec<String> = lanes.into_iter().map(Into::into).collect();
        lanes.sort_unstable();
        lanes.dedup();
        ChromeTrace {
            text: "{\"traceEvents\":[".to_string(),
            named: vec![false; lanes.len()],
            lanes,
            events: 0,
            flows: 0,
        }
    }

    /// The track named `name`. Its `thread_name` metadata event is written
    /// the first time the name is used, so lane metadata appears in
    /// first-use order.
    ///
    /// # Panics
    ///
    /// If `name` is not one of the lanes the trace was created with: the
    /// lane set fixes every tid, so an undeclared lane is a caller bug.
    pub fn track(&mut self, name: &str) -> Track {
        let Ok(rank) = self.lanes.binary_search_by(|lane| lane.as_str().cmp(name)) else {
            panic!("Chrome trace lane {name:?} was not declared");
        };
        let track = Track(rank);
        if !self.named[rank] {
            self.named[rank] = true;
            self.open("thread_name");
            self.lane(",\"ph\":\"M\",\"pid\":1,\"tid\":", track);
            self.text.push_str(",\"args\":{\"name\":");
            write_escaped(name, &mut self.text);
            self.text.push_str("}}");
        }
        track
    }

    /// Counts an event and writes its separator.
    fn separate(&mut self) {
        if self.events > 0 {
            self.text.push(',');
        }
        self.events += 1;
    }

    /// Starts an event: the separator, then its `name` field.
    fn open(&mut self, name: &str) {
        self.separate();
        self.text.push_str("{\"name\":");
        write_escaped(name, &mut self.text);
    }

    /// Writes `fields` (ending in `"tid":`) and the track's tid.
    fn lane(&mut self, fields: &str, track: Track) {
        self.text.push_str(fields);
        write_u64(track.tid(), &mut self.text);
    }

    /// Writes `key` and a nanosecond time in microseconds.
    fn ts(&mut self, key: &str, ns: u64) {
        self.text.push_str(key);
        write_micros(ns, &mut self.text);
    }

    /// Pins a track's vertical position in the viewer.
    pub fn set_sort_index(&mut self, track: Track, sort_index: i64) {
        self.open("thread_sort_index");
        self.lane(",\"ph\":\"M\",\"pid\":1,\"tid\":", track);
        let _ = write!(self.text, ",\"args\":{{\"sort_index\":{sort_index}}}}}");
    }

    /// Adds a complete (`"ph":"X"`) span.
    pub fn complete(
        &mut self,
        track: Track,
        name: &str,
        cat: &str,
        start_ns: u64,
        end_ns: u64,
        args: &[(&str, &str)],
    ) {
        self.slice(
            |out| write_slice_head(track, name, cat, out),
            start_ns,
            end_ns,
        );
        for (i, (k, v)) in args.iter().enumerate() {
            self.text.push_str(if i == 0 { ",\"args\":{" } else { "," });
            write_escaped(k, &mut self.text);
            self.text.push(':');
            write_escaped(v, &mut self.text);
        }
        self.text.push_str(if args.is_empty() { "}" } else { "}}" });
    }

    /// Writes a complete span up to its arguments: the separator, the
    /// opening `head` writes, the start time and the duration.
    fn slice(&mut self, head: impl FnOnce(&mut String), start_ns: u64, end_ns: u64) {
        self.separate();
        head(&mut self.text);
        write_micros(start_ns, &mut self.text);
        self.ts(",\"dur\":", end_ns.saturating_sub(start_ns));
    }

    /// The opening of every complete span on `track` named `name` in
    /// category `cat`, for [`ChromeTrace::task_slice`]. Writes nothing into
    /// the document.
    pub fn slice_head(&self, track: Track, name: &str, cat: &str) -> SliceHead {
        let mut head = String::new();
        write_slice_head(track, name, cat, &mut head);
        SliceHead(head)
    }

    /// Adds a simulated task's complete span from its pre-rendered `head`,
    /// with the two arguments every task record carries: `work` rounded to
    /// an integer and the task id. The same bytes as [`ChromeTrace::complete`]
    /// with the head's track, name and category and the args
    /// `[("work", &format!("{work:.0}")), ("task", &task.to_string())]`:
    /// both values are digits, a sign or a non-finite word, which need no
    /// escape.
    pub fn task_slice(
        &mut self,
        head: &SliceHead,
        start_ns: u64,
        end_ns: u64,
        work: f64,
        task: u64,
    ) {
        self.slice(|out| out.push_str(&head.0), start_ns, end_ns);
        self.text.push_str(",\"args\":{\"work\":\"");
        write_rounded(work, &mut self.text);
        self.text.push_str("\",\"task\":\"");
        write_u64(task, &mut self.text);
        self.text.push_str("\"}}");
    }

    /// Adds a thread-scoped instant event.
    pub fn instant(&mut self, track: Track, name: &str, t_ns: u64) {
        self.open(name);
        self.lane(",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":", track);
        self.ts(",\"ts\":", t_ns);
        self.text.push('}');
    }

    /// Adds a global frame marker (`"ph":"i","s":"g"`), e.g. an iteration
    /// boundary visible across every lane.
    pub fn frame_marker(&mut self, name: &str, t_ns: u64) {
        self.open(name);
        self.ts(
            ",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":",
            t_ns,
        );
        self.text.push('}');
    }

    /// Adds a counter (`"ph":"C"`) sample; each entry of `values` becomes a
    /// stacked series of the lane named `name`.
    pub fn counter(&mut self, name: &str, t_ns: u64, values: &[(&str, f64)]) {
        self.open(name);
        self.ts(",\"ph\":\"C\",\"pid\":1,\"ts\":", t_ns);
        self.text.push_str(",\"args\":{");
        for (i, &(k, v)) in values.iter().enumerate() {
            if i > 0 {
                self.text.push(',');
            }
            write_escaped(k, &mut self.text);
            self.text.push(':');
            write_f64(v, &mut self.text);
        }
        self.text.push_str("}}");
    }

    /// Adds a flow arrow: an `"s"` event at the source and a matching `"f"`
    /// (binding enclosing slice) at the destination, sharing a fresh id.
    pub fn flow(&mut self, name: &str, from: Track, from_ns: u64, to: Track, to_ns: u64) {
        let id = self.next_flow();
        for (fields, track, ns) in [(FLOW_START, from, from_ns), (FLOW_FINISH, to, to_ns)] {
            self.flow_event(
                |out| write_flow_head(name, fields, out),
                id,
                |out| write_flow_lane(track, out),
                ns,
            );
        }
    }

    /// The `"s"` and `"f"` event openings of every flow named `name`, for
    /// [`ChromeTrace::flow_between`]. Writes nothing into the document.
    pub fn flow_heads(&self, name: &str) -> FlowHeads {
        let (mut start, mut finish) = (String::new(), String::new());
        write_flow_head(name, FLOW_START, &mut start);
        write_flow_head(name, FLOW_FINISH, &mut finish);
        FlowHeads { start, finish }
    }

    /// The flow-event lane fields of `track`, for
    /// [`ChromeTrace::flow_between`]. Writes nothing into the document.
    pub fn flow_lane(&self, track: Track) -> FlowLane {
        let mut lane = String::new();
        write_flow_lane(track, &mut lane);
        FlowLane(lane)
    }

    /// Adds a flow arrow from pre-rendered fragments: the same bytes as
    /// [`ChromeTrace::flow`] with the heads' name and the lanes' tracks.
    pub fn flow_between(
        &mut self,
        heads: &FlowHeads,
        from: &FlowLane,
        from_ns: u64,
        to: &FlowLane,
        to_ns: u64,
    ) {
        let id = self.next_flow();
        for (head, lane, ns) in [(&heads.start, from, from_ns), (&heads.finish, to, to_ns)] {
            self.flow_event(
                |out| out.push_str(head),
                id,
                |out| out.push_str(&lane.0),
                ns,
            );
        }
    }

    /// A fresh flow id.
    fn next_flow(&mut self) -> u64 {
        self.flows += 1;
        self.flows - 1
    }

    /// Writes one flow event: the separator, the opening `head` writes, the
    /// flow id, the lane fields `lane` writes, the time.
    fn flow_event(
        &mut self,
        head: impl FnOnce(&mut String),
        id: u64,
        lane: impl FnOnce(&mut String),
        ns: u64,
    ) {
        self.separate();
        head(&mut self.text);
        write_u64(id, &mut self.text);
        lane(&mut self.text);
        write_micros(ns, &mut self.text);
        self.text.push('}');
    }

    /// Imports everything a [`Tracer`] recorded: spans as `"X"`, instants as
    /// thread instants, and flows as `"s"/"f"` pairs. Every track the
    /// tracer used ([`Tracer::tracks`]) must be declared.
    pub fn add_tracer<C: Clock>(&mut self, tracer: &Tracer<C>) {
        for span in tracer.spans() {
            let args: Vec<(&str, &str)> = span
                .args
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let track = self.track(&span.track);
            self.complete(track, &span.name, "span", span.start_ns, span.end_ns, &args);
        }
        for instant in tracer.instants() {
            let track = self.track(&instant.track);
            self.instant(track, &instant.name, instant.t_ns);
        }
        for flow in tracer.flows() {
            let from = self.track(&flow.from_track);
            let to = self.track(&flow.to_track);
            self.flow(&flow.name, from, flow.from_ns, to, flow.to_ns);
        }
    }

    /// Exports every time series in a metrics snapshot as counter lanes.
    /// The lane is named after the metric; the series key within the lane
    /// comes from the label values (or `value` when unlabeled).
    pub fn add_counter_series(&mut self, snapshot: &MetricsSnapshot) {
        for ((name, labels), series) in &snapshot.series {
            let key = if labels.is_empty() {
                "value".to_string()
            } else {
                labels
                    .iter()
                    .map(|(_, v)| v.as_str())
                    .collect::<Vec<_>>()
                    .join("/")
            };
            for &(t_ns, value) in &series.samples {
                self.counter(name, t_ns, &[(key.as_str(), value)]);
            }
        }
    }

    /// Number of events added so far (a flow counts as its two events).
    pub fn len(&self) -> usize {
        self.events
    }

    /// True when no events have been added.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// The finished document. Closing it is all that is left to do:
    /// every event, tid included, was written when it was added.
    pub fn to_json(mut self) -> String {
        self.text.push_str("],\"displayTimeUnit\":\"ms\"}");
        self.text
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use crate::json::{self, Json};

    fn phase_count(doc: &Json, ph: &str) -> usize {
        doc.get("traceEvents")
            .and_then(Json::items)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .count()
    }

    #[test]
    fn serializes_every_event_kind_byte_for_byte() {
        let mut t = ChromeTrace::new(["zeta \"lane\"", "beta", "alpha", "beta"]);
        let zeta = t.track("zeta \"lane\"");
        t.set_sort_index(zeta, -1);
        t.complete(
            zeta,
            "op\n1",
            "cat",
            1_500,
            4_000,
            &[("k", "v\t"), ("task", "7")],
        );
        let alpha = t.track("alpha");
        t.complete(alpha, "bare", "c", 2_000, 1_000, &[]);
        t.instant(alpha, "tick", 999);
        t.frame_marker("iteration 0", 0);
        t.counter("bytes", 12_345, &[("pcie", 0.5), ("nvlink", 3.0)]);
        let beta = t.track("beta");
        t.flow("dep", alpha, 10, beta, 1_000_000_001);
        assert_eq!(t.len(), 11, "a flow counts as two events");
        let want = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"zeta \"lane\""}},"#,
            r#"{"name":"thread_sort_index","ph":"M","pid":1,"tid":3,"args":{"sort_index":-1}},"#,
            r#"{"name":"op\n1","cat":"cat","ph":"X","pid":1,"tid":3,"ts":1.5,"dur":2.5,"args":{"k":"v\t","task":"7"}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"alpha"}},"#,
            r#"{"name":"bare","cat":"c","ph":"X","pid":1,"tid":1,"ts":2.0,"dur":0.0},"#,
            r#"{"name":"tick","ph":"i","s":"t","pid":1,"tid":1,"ts":0.999},"#,
            r#"{"name":"iteration 0","ph":"i","s":"g","pid":1,"tid":0,"ts":0.0},"#,
            r#"{"name":"bytes","ph":"C","pid":1,"ts":12.345,"args":{"pcie":0.5,"nvlink":3.0}},"#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"beta"}},"#,
            r#"{"name":"dep","cat":"flow","ph":"s","id":0,"pid":1,"tid":1,"ts":0.01},"#,
            r#"{"name":"dep","cat":"flow","ph":"f","bp":"e","id":0,"pid":1,"tid":2,"ts":1000000.001}"#,
            r#"],"displayTimeUnit":"ms"}"#,
        );
        assert_eq!(t.to_json(), want);
    }

    #[test]
    fn tracks_get_stable_tids_and_metadata() {
        let mut trace = ChromeTrace::new(["b", "a"]);
        let a = trace.track("a");
        trace.instant(a, "x", 0);
        let b = trace.track("b");
        trace.instant(b, "x", 0);
        assert_eq!(trace.track("a"), a, "a name resolves to its one track");
        trace.instant(a, "x", 0);
        trace.set_sort_index(a, -1);
        let doc = json::parse(&trace.to_json()).unwrap();
        assert_eq!(phase_count(&doc, "M"), 3); // 2 names + 1 sort index
        let events = doc.get("traceEvents").and_then(Json::items).unwrap();
        let tids: Vec<u64> = events
            .iter()
            .map(|e| e.get("tid").and_then(Json::as_u64).unwrap())
            .collect();
        // name a, instant, name b, instant, instant, sort index of a.
        assert_eq!(tids, vec![1, 1, 2, 2, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "Chrome trace lane \"gamma\" was not declared")]
    fn an_undeclared_lane_is_a_caller_bug() {
        let mut t = ChromeTrace::new(["alpha", "beta"]);
        t.track("gamma");
    }

    #[test]
    fn a_declared_lane_takes_its_tid_with_or_without_events() {
        let mut t = ChromeTrace::new(["a", "b", "c"]);
        let c = t.track("c");
        t.instant(c, "x", 0);
        assert_eq!(
            t.to_json(),
            concat!(
                r#"{"traceEvents":["#,
                r#"{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"c"}},"#,
                r#"{"name":"x","ph":"i","s":"t","pid":1,"tid":3,"ts":0.0}"#,
                r#"],"displayTimeUnit":"ms"}"#,
            )
        );
    }

    #[test]
    fn far_timestamps_and_non_finite_counters_serialize() {
        // One nanosecond past 2^43 µs the float fallback takes over: the
        // nearest f64 to 8796093022208.001 prints as ...208.002.
        let far = (1 << 43) * 1000 + 1;
        let mut t = ChromeTrace::new(["lane"]);
        let lane = t.track("lane");
        t.complete(lane, "late", "c", far, far + 1_500, &[]);
        t.counter("gauge", far, &[("nan", f64::NAN), ("inf", f64::INFINITY)]);
        let want = concat!(
            r#"{"traceEvents":["#,
            r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"lane"}},"#,
            r#"{"name":"late","cat":"c","ph":"X","pid":1,"tid":1,"ts":8796093022208.002,"dur":1.5},"#,
            r#"{"name":"gauge","ph":"C","pid":1,"ts":8796093022208.002,"args":{"nan":null,"inf":null}}"#,
            r#"],"displayTimeUnit":"ms"}"#,
        );
        assert_eq!(t.to_json(), want);
    }

    #[test]
    fn serialized_tids_are_name_sorted_regardless_of_insertion_order() {
        // Build two traces registering the same lanes in opposite orders;
        // the serialized documents must number tracks identically.
        let span = |trace: &mut ChromeTrace, name: &str| {
            let track = trace.track(name);
            trace.complete(track, "t", "span", 0, 10, &[]);
        };
        let mut forward = ChromeTrace::new(["alpha", "beta"]);
        span(&mut forward, "alpha");
        span(&mut forward, "beta");
        let mut reverse = ChromeTrace::new(["beta", "alpha"]);
        span(&mut reverse, "beta");
        span(&mut reverse, "alpha");

        for text in [forward.to_json(), reverse.to_json()] {
            let doc = json::parse(&text).unwrap();
            let events = doc.get("traceEvents").and_then(Json::items).unwrap();
            let tid_of = |track: &str| {
                events
                    .iter()
                    .find(|e| {
                        e.get("ph").and_then(Json::as_str) == Some("M")
                            && e.get("args")
                                .and_then(|a| a.get("name"))
                                .and_then(Json::as_str)
                                == Some(track)
                    })
                    .and_then(|e| e.get("tid").and_then(Json::as_u64))
                    .unwrap()
            };
            assert_eq!(tid_of("alpha"), 1, "alpha sorts first");
            assert_eq!(tid_of("beta"), 2);
            // Slices follow their lane's tid.
            let slice_tids: Vec<u64> = events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
                .map(|e| e.get("tid").and_then(Json::as_u64).unwrap())
                .collect();
            let mut sorted = slice_tids.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![1, 2]);
        }
    }

    #[test]
    fn frame_marker_tid_zero_survives_the_remap() {
        let mut trace = ChromeTrace::new(["zeta"]);
        let zeta = trace.track("zeta");
        trace.complete(zeta, "t", "span", 0, 10, &[]);
        trace.frame_marker("iteration 0", 0);
        let doc = json::parse(&trace.to_json()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::items).unwrap();
        let frame = events
            .iter()
            .find(|e| e.get("s").and_then(Json::as_str) == Some("g"))
            .unwrap();
        assert_eq!(frame.get("tid").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn flows_pair_s_and_f_with_same_id() {
        let mut trace = ChromeTrace::new(["a", "b"]);
        let (a, b) = (trace.track("a"), trace.track("b"));
        trace.flow("dep", a, 10, b, 20);
        trace.flow("dep", a, 30, b, 40);
        let doc = json::parse(&trace.to_json()).unwrap();
        let events = doc.get("traceEvents").and_then(Json::items).unwrap();
        let flows: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.get("ph").and_then(Json::as_str), Some("s" | "f")))
            .collect();
        assert_eq!(flows.len(), 4);
        assert_eq!(
            flows[0].get("id").and_then(Json::as_u64),
            flows[1].get("id").and_then(Json::as_u64)
        );
        assert_ne!(
            flows[0].get("id").and_then(Json::as_u64),
            flows[2].get("id").and_then(Json::as_u64)
        );
        assert_eq!(flows[1].get("bp").and_then(Json::as_str), Some("e"));
    }

    #[test]
    fn counters_and_frames_export() {
        let mut trace = ChromeTrace::new(Vec::<String>::new());
        trace.counter("sm_busy", 1_000, &[("gpu0", 0.5)]);
        trace.frame_marker("iteration 0", 0);
        let doc = json::parse(&trace.to_json()).unwrap();
        assert_eq!(phase_count(&doc, "C"), 1);
        assert_eq!(phase_count(&doc, "i"), 1);
        let events = doc.get("traceEvents").and_then(Json::items).unwrap();
        let frame = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .unwrap();
        assert_eq!(frame.get("s").and_then(Json::as_str), Some("g"));
    }

    #[test]
    fn tracer_import_covers_all_record_kinds() {
        let tracer = Tracer::new(ManualClock::new());
        tracer.record_span("sched", "iteration", 0, 2_000, &[("iter", "0")]);
        tracer.instant_at("sched", "flush", 1_000);
        tracer.flow("dep", "sched", 2_000, "comm", 2_500);
        let mut trace = ChromeTrace::new(tracer.tracks());
        trace.add_tracer(&tracer);
        let doc = json::parse(&trace.to_json()).unwrap();
        assert_eq!(phase_count(&doc, "X"), 1);
        assert_eq!(phase_count(&doc, "i"), 1);
        assert_eq!(phase_count(&doc, "s"), 1);
        assert_eq!(phase_count(&doc, "f"), 1);
        // ns → µs conversion.
        let events = doc.get("traceEvents").and_then(Json::items).unwrap();
        let x = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        assert_eq!(x.get("dur").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn counter_series_lane_naming() {
        use crate::metrics::MetricsRegistry;
        let reg = MetricsRegistry::new();
        reg.record_sample("link_bytes", &[("link", "pcie")], 0, 1.0);
        reg.record_sample("link_bytes", &[("link", "nvlink")], 0, 2.0);
        reg.record_sample("queue_depth", &[], 5, 3.0);
        let mut trace = ChromeTrace::new(Vec::<String>::new());
        trace.add_counter_series(&reg.snapshot());
        let doc = json::parse(&trace.to_json()).unwrap();
        assert_eq!(phase_count(&doc, "C"), 3);
        let events = doc.get("traceEvents").and_then(Json::items).unwrap();
        let unlabeled = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("queue_depth"))
            .unwrap();
        assert!(unlabeled.get("args").unwrap().get("value").is_some());
    }
}
