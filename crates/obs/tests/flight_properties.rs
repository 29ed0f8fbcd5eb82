//! Property tests for the flight recorder: ring wraparound, sampling
//! determinism under a fixed seed, overhead-counter accounting, dump
//! checksum integrity, and the batched task tap against one `task` call
//! per event.

use picasso_obs::flight::{
    FlightCategory, FlightConfig, FlightDump, FlightRecorder, FlightStats, SamplingConfig,
};
use proptest::prelude::*;

/// Task codes the batch oracle draws from.
const CODES: [&str; 4] = ["compute", "collective", "", "h2d \"copy\""];

/// One step of a recorder program: a run of one iteration's tasks, or a
/// single span, metric, fault or recovery event.
type Step = (u8, u64, Vec<(usize, u64, f64)>);

/// A recorder holding at most `capacity` events, no sampling.
fn ring(capacity: usize) -> FlightRecorder {
    FlightRecorder::with_config(&FlightConfig {
        capacity,
        ..FlightConfig::default()
    })
}

/// Replays `steps`, offering each task run through `tasks` when `batched`
/// and as one `task` call per event otherwise.
fn replay(config: &FlightConfig, steps: &[Step], batched: bool) -> FlightRecorder {
    let mut rec = FlightRecorder::with_config(config);
    for (i, (kind, iter, tasks)) in steps.iter().enumerate() {
        let (iter, t_ns) = (*iter, i as u64 * 1_000);
        match kind {
            0 => rec.span_open("iteration", iter, t_ns),
            1 => rec.span_close("iteration", iter, t_ns, 0.25),
            2 => rec.metric("iteration_secs", iter, t_ns, iter as f64 * 0.5),
            3 => rec.fault("crash", iter, t_ns),
            4 => rec.recovery("restore", iter, t_ns, 1.5),
            _ => {
                let events = tasks.iter().map(|&(c, t, d)| (CODES[c], t, d));
                if batched {
                    rec.tasks(iter, events);
                } else {
                    for (code, t, d) in events {
                        rec.task(code, iter, t, d);
                    }
                }
            }
        }
    }
    rec
}

/// Drives a recorder with a reproducible event stream.
fn drive(rec: &mut FlightRecorder, events: &[(u8, u64)]) {
    for (i, &(cat, iter)) in events.iter().enumerate() {
        let category = FlightCategory::ALL[cat as usize % FlightCategory::ALL.len()];
        rec.record(category, "e", iter, i as u64 * 100, i as f64 * 0.5);
    }
}

proptest! {
    /// After any stream, the ring holds exactly the trailing admitted
    /// events, oldest first, and never exceeds capacity.
    #[test]
    fn ring_wraparound_keeps_the_trailing_window(
        capacity in 1usize..32,
        events in proptest::collection::vec((0u8..5, 0u64..100), 0..200),
    ) {
        let mut rec = ring(capacity);
        drive(&mut rec, &events);
        let stats = rec.stats();
        prop_assert!(rec.occupancy() <= capacity);
        prop_assert_eq!(stats.occupancy, rec.occupancy());
        prop_assert_eq!(stats.seen_total(), events.len() as u64);
        prop_assert_eq!(stats.sampled_out_total(), 0, "no sampling configured");
        prop_assert_eq!(stats.recorded, events.len() as u64);
        prop_assert_eq!(
            stats.overwritten,
            (events.len() as u64).saturating_sub(capacity as u64)
        );
        // Held events are exactly the trailing window, in order.
        let seqs: Vec<u64> = rec.events().iter().map(|e| e.seq).collect();
        let first = (events.len()).saturating_sub(capacity) as u64;
        let expect: Vec<u64> = (first..events.len() as u64).collect();
        prop_assert_eq!(seqs, expect);
    }

    /// Sampling is a pure function of (seed, sequence): two recorders with
    /// the same config admit the same events; admitted + rejected = seen.
    #[test]
    fn sampling_is_deterministic_and_accounted(
        seed in 0u64..u64::MAX,
        rates in proptest::collection::vec(0u32..6, 5..6),
        events in proptest::collection::vec((0u8..5, 0u64..100), 0..200),
    ) {
        let keep_1_in: [u32; 5] = rates.clone().try_into().unwrap();
        let config = FlightConfig {
            capacity: 64,
            sampling: SamplingConfig { seed, keep_1_in },
        };
        let mut a = FlightRecorder::with_config(&config);
        let mut b = FlightRecorder::with_config(&config);
        drive(&mut a, &events);
        drive(&mut b, &events);
        let ea: Vec<_> = a.events().into_iter().cloned().collect();
        let eb: Vec<_> = b.events().into_iter().cloned().collect();
        prop_assert_eq!(ea, eb, "same seed, same kept set");
        let stats = a.stats();
        prop_assert_eq!(
            stats.recorded + stats.sampled_out_total(),
            stats.seen_total()
        );
        for c in FlightCategory::ALL {
            let i = FlightCategory::ALL.iter().position(|x| *x == c).unwrap();
            prop_assert!(stats.sampled_out[i] <= stats.seen[i]);
        }
    }

    /// A different seed with real sampling rates is allowed to keep a
    /// different set, but accounting invariants still hold.
    #[test]
    fn overhead_counts_every_record_call(
        events in proptest::collection::vec((0u8..5, 0u64..100), 1..100),
    ) {
        let mut rec = ring(8);
        let mut last = 0u64;
        for (i, &(cat, iter)) in events.iter().enumerate() {
            let category = FlightCategory::ALL[cat as usize % FlightCategory::ALL.len()];
            rec.record(category, "e", iter, i as u64, 0.0);
            let now = rec.stats().overhead_ns;
            prop_assert!(now >= last, "overhead accumulates monotonically");
            last = now;
        }
        prop_assert!(rec.stats().overhead_ns > 0, "work is never free");
    }

    /// Dumps round-trip through serialization and validation, and any
    /// single-byte corruption of a digit is caught by the checksum (or the
    /// parser) — never silently accepted with different content.
    #[test]
    fn dump_validation_rejects_corruption(
        events in proptest::collection::vec((0u8..5, 0u64..100), 1..50),
        last_n in 1usize..64,
        flip in 0usize..1_000_000,
    ) {
        let mut rec = ring(32);
        drive(&mut rec, &events);
        let dump = rec.dump(last_n);
        let text = dump.to_json().to_json();
        let back = FlightDump::from_text(&text).expect("clean dump validates");
        prop_assert_eq!(&back, &dump);

        // Flip one digit somewhere in the document.
        let bytes = text.as_bytes();
        let digit_positions: Vec<usize> = bytes
            .iter()
            .enumerate()
            .filter(|(_, b)| b.is_ascii_digit())
            .map(|(i, _)| i)
            .collect();
        let pos = digit_positions[flip % digit_positions.len()];
        let mut corrupted = text.clone().into_bytes();
        corrupted[pos] = if corrupted[pos] == b'9' { b'8' } else { b'9' };
        let corrupted = String::from_utf8(corrupted).unwrap();
        // Accepting is only sound if the parse normalized back to the
        // exact same dump (e.g. a flipped digit inside the checksum
        // field itself can never do that; a value digit changes the
        // payload hash).
        if let Ok(reparsed) = FlightDump::from_text(&corrupted) {
            prop_assert_eq!(reparsed, dump);
        }
    }

    /// Offering a run through `tasks` leaves the recorder exactly where the
    /// same `task` calls one by one do: held events, accounting apart from
    /// the wall-clock overhead, and the post-mortem with its digest.
    #[test]
    fn batched_tasks_match_one_call_per_event(
        capacity in 1usize..65,
        seed in 0u64..u64::MAX,
        rates in proptest::collection::vec(0u32..6, 5..6),
        steps in proptest::collection::vec(
            (
                0u8..8,
                0u64..100,
                proptest::collection::vec((0usize..4, 0u64..1 << 40, 0.0f64..1.0), 0..12),
            ),
            0..40,
        ),
    ) {
        let config = FlightConfig {
            capacity,
            sampling: SamplingConfig {
                seed,
                keep_1_in: rates.clone().try_into().unwrap(),
            },
        };
        let batched = replay(&config, &steps, true);
        let single = replay(&config, &steps, false);
        prop_assert_eq!(batched.events(), single.events());
        let volatile_free = |rec: &FlightRecorder| FlightStats {
            overhead_ns: 0,
            ..rec.stats()
        };
        prop_assert_eq!(volatile_free(&batched), volatile_free(&single));
        let (a, b) = (batched.post_mortem(), single.post_mortem());
        prop_assert_eq!(a.digest(), b.digest());
        prop_assert_eq!(a, b);
    }
}
