//! Property test of the Chrome exporter against a reference copy of the
//! exporter it replaced.
//!
//! The reference renders each event into a text arena with a hole where
//! the tid goes, numbers lanes provisionally in first-seen order, and on
//! export remaps them to their name-sorted rank + 1 while copying the
//! arena into a fresh string. [`ChromeTrace`] must produce the same bytes
//! on random event programs: lanes used in random order, names with
//! quotes, backslashes, control characters and non-ASCII, spans with 0–3
//! args, instants, flows (a lane to itself included), frame markers,
//! counters with NaN and infinities, negative sort indices, timestamps
//! past 2^43 µs and tracer imports. The programs also write task spans and
//! flows from pre-rendered fragments (`slice_head` + `task_slice`,
//! `flow_heads` + `flow_lane` + `flow_between`) on the same lanes as the
//! plain calls; the reference writes those as `complete` with the
//! arguments formatted by `{:.0}` and `{}`, and as `flow`. Every document
//! must also parse under the strict JSON parser, with one array item per
//! event.

use picasso_obs::checksum::splitmix64;
use picasso_obs::json::{self, write_f64, write_micros, write_u64, Json};
use picasso_obs::{ChromeTrace, ManualClock, Tracer};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The string escaper the reference exporter used, byte for byte.
fn ref_escaped(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x20.. => continue,
            _ => "",
        };
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The reference exporter: provisional first-seen tids, a hole table, and
/// a remap to name-sorted ranks as the arena is copied out.
#[derive(Default)]
struct RefTrace {
    text: String,
    holes: Vec<(usize, usize)>,
    tids: BTreeMap<String, usize>,
    events: usize,
    flows: u64,
}

impl RefTrace {
    fn track(&mut self, name: &str) -> usize {
        if let Some(&tid) = self.tids.get(name) {
            return tid;
        }
        let tid = self.tids.len() + 1;
        self.tids.insert(name.to_string(), tid);
        self.open("thread_name");
        self.lane(",\"ph\":\"M\",\"pid\":1,\"tid\":", tid);
        self.text.push_str(",\"args\":{\"name\":");
        ref_escaped(name, &mut self.text);
        self.text.push_str("}}");
        tid
    }

    fn open(&mut self, name: &str) {
        if self.events > 0 {
            self.text.push(',');
        }
        self.events += 1;
        self.text.push_str("{\"name\":");
        ref_escaped(name, &mut self.text);
    }

    fn lane(&mut self, fields: &str, tid: usize) {
        self.text.push_str(fields);
        self.holes.push((self.text.len(), tid));
    }

    fn ts(&mut self, key: &str, ns: u64) {
        self.text.push_str(key);
        write_micros(ns, &mut self.text);
    }

    fn set_sort_index(&mut self, tid: usize, sort_index: i64) {
        self.open("thread_sort_index");
        self.lane(",\"ph\":\"M\",\"pid\":1,\"tid\":", tid);
        let _ = write!(self.text, ",\"args\":{{\"sort_index\":{sort_index}}}}}");
    }

    fn complete(
        &mut self,
        tid: usize,
        name: &str,
        cat: &str,
        start_ns: u64,
        end_ns: u64,
        args: &[(&str, &str)],
    ) {
        self.open(name);
        self.text.push_str(",\"cat\":");
        ref_escaped(cat, &mut self.text);
        self.lane(",\"ph\":\"X\",\"pid\":1,\"tid\":", tid);
        self.ts(",\"ts\":", start_ns);
        self.ts(",\"dur\":", end_ns.saturating_sub(start_ns));
        for (i, (k, v)) in args.iter().enumerate() {
            self.text.push_str(if i == 0 { ",\"args\":{" } else { "," });
            ref_escaped(k, &mut self.text);
            self.text.push(':');
            ref_escaped(v, &mut self.text);
        }
        self.text.push_str(if args.is_empty() { "}" } else { "}}" });
    }

    fn instant(&mut self, tid: usize, name: &str, t_ns: u64) {
        self.open(name);
        self.lane(",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":", tid);
        self.ts(",\"ts\":", t_ns);
        self.text.push('}');
    }

    fn frame_marker(&mut self, name: &str, t_ns: u64) {
        self.open(name);
        self.ts(
            ",\"ph\":\"i\",\"s\":\"g\",\"pid\":1,\"tid\":0,\"ts\":",
            t_ns,
        );
        self.text.push('}');
    }

    fn counter(&mut self, name: &str, t_ns: u64, values: &[(&str, f64)]) {
        self.open(name);
        self.ts(",\"ph\":\"C\",\"pid\":1,\"ts\":", t_ns);
        self.text.push_str(",\"args\":{");
        for (i, &(k, v)) in values.iter().enumerate() {
            if i > 0 {
                self.text.push(',');
            }
            ref_escaped(k, &mut self.text);
            self.text.push(':');
            write_f64(v, &mut self.text);
        }
        self.text.push_str("}}");
    }

    fn flow(&mut self, name: &str, from: usize, from_ns: u64, to: usize, to_ns: u64) {
        let id = self.flows;
        self.flows += 1;
        let start = ",\"cat\":\"flow\",\"ph\":\"s\",\"id\":";
        let finish = ",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":";
        for (fields, tid, ns) in [(start, from, from_ns), (finish, to, to_ns)] {
            self.open(name);
            self.text.push_str(fields);
            write_u64(id, &mut self.text);
            self.lane(",\"pid\":1,\"tid\":", tid);
            self.ts(",\"ts\":", ns);
            self.text.push('}');
        }
    }

    fn add_tracer(&mut self, tracer: &Tracer<ManualClock>) {
        for span in tracer.spans() {
            let args: Vec<(&str, &str)> = span
                .args
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            let tid = self.track(&span.track);
            self.complete(tid, &span.name, "span", span.start_ns, span.end_ns, &args);
        }
        for instant in tracer.instants() {
            let tid = self.track(&instant.track);
            self.instant(tid, &instant.name, instant.t_ns);
        }
        for flow in tracer.flows() {
            let from = self.track(&flow.from_track);
            let to = self.track(&flow.to_track);
            self.flow(&flow.name, from, flow.from_ns, to, flow.to_ns);
        }
    }

    fn to_json(&self) -> String {
        let mut remap = vec![String::new(); self.tids.len() + 1];
        for (rank, &provisional) in self.tids.values().enumerate() {
            remap[provisional] = (rank + 1).to_string();
        }
        let mut out = String::new();
        out.push_str("{\"traceEvents\":[");
        let mut copied = 0;
        for &(at, tid) in &self.holes {
            out.push_str(&self.text[copied..at]);
            out.push_str(&remap[tid]);
            copied = at;
        }
        out.push_str(&self.text[copied..]);
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

/// The fragment-based calls, which only [`ChromeTrace`] has. The
/// reference writes the same events with its plain calls.
trait Fragments {
    /// Task spans on lane `lane`, all named `name` in category `cat`:
    /// `(start, end, work, task)` each.
    fn task_slices(&mut self, lane: &str, name: &str, cat: &str, slices: &[TaskSlice]);
    /// Flows named `name` from lane `from` to lane `to`: `(from_ns,
    /// to_ns)` each.
    fn flows_between(&mut self, name: &str, from: &str, to: &str, times: &[(u64, u64)]);
}

/// One task span written from a pre-rendered head: start, end, work and
/// task id.
type TaskSlice = (u64, u64, f64, u64);

impl Fragments for RefTrace {
    fn task_slices(&mut self, lane: &str, name: &str, cat: &str, slices: &[TaskSlice]) {
        let tid = self.track(lane);
        for &(s, e, work, task) in slices {
            let (work, task) = (format!("{work:.0}"), task.to_string());
            self.complete(tid, name, cat, s, e, &[("work", &work), ("task", &task)]);
        }
    }

    fn flows_between(&mut self, name: &str, from: &str, to: &str, times: &[(u64, u64)]) {
        let (from, to) = (self.track(from), self.track(to));
        for &(s, e) in times {
            self.flow(name, from, s, to, e);
        }
    }
}

impl Fragments for ChromeTrace {
    fn task_slices(&mut self, lane: &str, name: &str, cat: &str, slices: &[TaskSlice]) {
        let track = self.track(lane);
        let head = self.slice_head(track, name, cat);
        for &(s, e, work, task) in slices {
            self.task_slice(&head, s, e, work, task);
        }
    }

    fn flows_between(&mut self, name: &str, from: &str, to: &str, times: &[(u64, u64)]) {
        let (from, to) = (self.track(from), self.track(to));
        let (heads, from, to) = (
            self.flow_heads(name),
            self.flow_lane(from),
            self.flow_lane(to),
        );
        for &(s, e) in times {
            self.flow_between(&heads, &from, s, &to, e);
        }
    }
}

/// A seeded splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// A short name drawn from characters that need every kind of escape.
    fn name(&mut self) -> String {
        const CHARS: [char; 16] = [
            'a', 'b', 'z', ' ', '/', '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{1f}', '\u{7f}', 'é',
            '✓', '😀',
        ];
        let len = self.below(5);
        (0..len)
            .map(|_| CHARS[self.below(CHARS.len() as u64) as usize])
            .collect()
    }

    /// A timestamp: small, around the 2^43 µs cutoff, or anywhere in `u64`.
    fn ns(&mut self) -> u64 {
        const CUTOFF_NS: u64 = (1 << 43) * 1000;
        match self.below(3) {
            0 => self.below(1 << 32),
            1 => CUTOFF_NS - 5_000 + self.below(10_000),
            _ => self.next(),
        }
    }

    /// A counter value: finite, signed zero, NaN or an infinity.
    fn value(&mut self) -> f64 {
        match self.below(6) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => self.below(1 << 20) as f64,
            _ => f64::from_bits(self.next()),
        }
    }

    /// A task's work: a counter value, a rounding tie, or a value around
    /// 2^53, where rounding hands over to the formatter.
    fn work(&mut self) -> f64 {
        match self.below(3) {
            0 => self.value(),
            1 => (self.below(1 << 20) as f64 + 0.5) * if self.below(2) == 0 { 1.0 } else { -1.0 },
            _ => 9_007_199_254_740_992.0 + (self.below(64) as f64 - 32.0) * 0.5,
        }
    }
}

/// One call on the exporter. Lanes are indices into the program's lane
/// pool.
#[derive(Debug)]
enum Op {
    Track(usize),
    SortIndex(usize, i64),
    Complete(usize, String, String, u64, u64, Vec<(String, String)>),
    Instant(usize, String, u64),
    Frame(String, u64),
    Counter(String, u64, Vec<(String, f64)>),
    Flow(String, usize, u64, usize, u64),
    Tracer(Vec<TracerOp>),
    TaskSlices(usize, String, String, Vec<TaskSlice>),
    FlowsBetween(String, usize, usize, Vec<(u64, u64)>),
}

/// One record of an imported tracer.
#[derive(Debug)]
enum TracerOp {
    Span(usize, String, u64, u64, Vec<(String, String)>),
    Instant(usize, String, u64),
    Flow(String, usize, u64, usize, u64),
}

/// A random program over a pool of 1–8 lane names.
fn program(seed: u64) -> (Vec<String>, Vec<Op>) {
    let mut rng = Rng(seed);
    let lanes: Vec<String> = (0..1 + rng.below(8)).map(|_| rng.name()).collect();
    let lane = |rng: &mut Rng| rng.below(lanes.len() as u64) as usize;
    let args = |rng: &mut Rng| -> Vec<(String, String)> {
        (0..rng.below(4))
            .map(|_| (rng.name(), rng.name()))
            .collect()
    };
    let mut ops = Vec::new();
    for _ in 0..rng.below(40) {
        let op = match rng.below(11) {
            0 => Op::Track(lane(&mut rng)),
            1 => Op::SortIndex(lane(&mut rng), rng.next() as i64),
            2 | 3 => Op::Complete(
                lane(&mut rng),
                rng.name(),
                rng.name(),
                rng.ns(),
                rng.ns(),
                args(&mut rng),
            ),
            4 => Op::Instant(lane(&mut rng), rng.name(), rng.ns()),
            5 => Op::Frame(rng.name(), rng.ns()),
            6 => Op::Counter(
                rng.name(),
                rng.ns(),
                (0..rng.below(4))
                    .map(|_| (rng.name(), rng.value()))
                    .collect(),
            ),
            7 => {
                let from = lane(&mut rng);
                let to = if rng.below(3) == 0 {
                    from
                } else {
                    lane(&mut rng)
                };
                Op::Flow(rng.name(), from, rng.ns(), to, rng.ns())
            }
            8 => Op::TaskSlices(
                lane(&mut rng),
                rng.name(),
                rng.name(),
                (0..rng.below(4))
                    .map(|_| (rng.ns(), rng.ns(), rng.work(), rng.next()))
                    .collect(),
            ),
            9 => {
                let from = lane(&mut rng);
                let to = if rng.below(3) == 0 {
                    from
                } else {
                    lane(&mut rng)
                };
                let times = (0..rng.below(4)).map(|_| (rng.ns(), rng.ns())).collect();
                Op::FlowsBetween(rng.name(), from, to, times)
            }
            _ => Op::Tracer(
                (0..rng.below(6))
                    .map(|_| match rng.below(3) {
                        0 => TracerOp::Span(
                            lane(&mut rng),
                            rng.name(),
                            rng.ns(),
                            rng.ns(),
                            args(&mut rng),
                        ),
                        1 => TracerOp::Instant(lane(&mut rng), rng.name(), rng.ns()),
                        _ => {
                            let (name, from, from_ns) = (rng.name(), lane(&mut rng), rng.ns());
                            TracerOp::Flow(name, from, from_ns, lane(&mut rng), rng.ns())
                        }
                    })
                    .collect(),
            ),
        };
        ops.push(op);
    }
    (lanes, ops)
}

/// The lane names a program gets events on, once per use, in a
/// shuffled order: a declaration the exporter must sort and deduplicate.
fn used_lanes(seed: u64, lanes: &[String], ops: &[Op]) -> Vec<String> {
    let mut used = Vec::new();
    for op in ops {
        match op {
            Op::Track(l)
            | Op::SortIndex(l, _)
            | Op::Instant(l, ..)
            | Op::Complete(l, ..)
            | Op::TaskSlices(l, ..) => used.push(*l),
            Op::Flow(_, a, _, b, _) | Op::FlowsBetween(_, a, b, _) => used.extend([*a, *b]),
            Op::Tracer(records) => {
                for r in records {
                    match r {
                        TracerOp::Span(l, ..) | TracerOp::Instant(l, ..) => used.push(*l),
                        TracerOp::Flow(_, a, _, b, _) => used.extend([*a, *b]),
                    }
                }
            }
            Op::Frame(..) | Op::Counter(..) => {}
        }
    }
    let mut rng = Rng(!seed);
    let mut names: Vec<String> = used.iter().map(|&l| lanes[l].clone()).collect();
    for i in (1..names.len()).rev() {
        names.swap(i, rng.below(i as u64 + 1) as usize);
    }
    names
}

fn tracer(lanes: &[String], records: &[TracerOp]) -> Tracer<ManualClock> {
    let tracer = Tracer::new(ManualClock::new());
    for r in records {
        match r {
            TracerOp::Span(l, name, s, e, args) => {
                let args: Vec<(&str, &str)> =
                    args.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                tracer.record_span(&lanes[*l], name, *s, *e, &args);
            }
            TracerOp::Instant(l, name, t) => tracer.instant_at(&lanes[*l], name, *t),
            TracerOp::Flow(name, a, s, b, t) => tracer.flow(name, &lanes[*a], *s, &lanes[*b], *t),
        }
    }
    tracer
}

/// Runs a program's ops through an exporter. The reference and
/// [`ChromeTrace`] take the same calls, so one body drives both.
macro_rules! drive {
    ($trace:expr, $lanes:expr, $ops:expr) => {{
        let (t, lanes) = (&mut $trace, $lanes);
        for op in $ops {
            match op {
                Op::Track(l) => {
                    t.track(&lanes[*l]);
                }
                Op::SortIndex(l, i) => {
                    let track = t.track(&lanes[*l]);
                    t.set_sort_index(track, *i);
                }
                Op::Complete(l, name, cat, s, e, args) => {
                    let args: Vec<(&str, &str)> =
                        args.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
                    let track = t.track(&lanes[*l]);
                    t.complete(track, name, cat, *s, *e, &args);
                }
                Op::Instant(l, name, ts) => {
                    let track = t.track(&lanes[*l]);
                    t.instant(track, name, *ts);
                }
                Op::Frame(name, ts) => t.frame_marker(name, *ts),
                Op::Counter(name, ts, values) => {
                    let values: Vec<(&str, f64)> =
                        values.iter().map(|(k, v)| (k.as_str(), *v)).collect();
                    t.counter(name, *ts, &values);
                }
                Op::Flow(name, a, s, b, e) => {
                    let (from, to) = (t.track(&lanes[*a]), t.track(&lanes[*b]));
                    t.flow(name, from, *s, to, *e);
                }
                Op::Tracer(records) => t.add_tracer(&tracer(lanes, records)),
                Op::TaskSlices(l, name, cat, slices) => {
                    t.task_slices(&lanes[*l], name, cat, slices)
                }
                Op::FlowsBetween(name, a, b, times) => {
                    t.flows_between(name, &lanes[*a], &lanes[*b], times)
                }
            }
        }
    }};
}

proptest! {
    /// The exporter writes the reference's bytes, and the document parses
    /// with one item per event.
    #[test]
    fn exporter_matches_the_reference_byte_for_byte(seed in 0u64..u64::MAX) {
        let (lanes, ops) = program(seed);
        let declared = used_lanes(seed, &lanes, &ops);
        let mut reference = RefTrace::default();
        drive!(reference, &lanes, &ops);
        let want_events = reference.events;
        let want = reference.to_json();
        let mut trace = ChromeTrace::new(declared);
        drive!(trace, &lanes, &ops);
        let got_events = trace.len();
        let got = trace.to_json();
        prop_assert_eq!(&got, &want, "seed {}: {:?}", seed, ops);
        prop_assert_eq!(got_events, want_events);
        let doc = json::parse(&got).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{got}"));
        let items = doc.get("traceEvents").and_then(Json::items).map(<[Json]>::len);
        prop_assert_eq!(items, Some(got_events));
    }
}
