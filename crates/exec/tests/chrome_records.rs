//! Property test of `chrome_trace`'s record loop against a reference copy
//! of the exporter it replaced.
//!
//! The reference builds the same document from `ChromeTrace`'s plain
//! calls only: every task record is a `complete` span whose name and
//! category go through the escaper and whose `work` and `task` arguments
//! are formatted into strings (`{:.0}` and `{}`), and every dependency is
//! a `flow` by track. `chrome_trace` writes the records from fragments
//! rendered once per run, so the two must agree byte for byte on random
//! W&D and CAN suite rungs, 1 to 4 machines, 1 to 3 iterations and
//! random warm-up seeds.

use picasso_exec::{
    chrome_trace, run, span_tracer, Optimizations, PassId, SimulationOutput, Strategy,
    TrainerOptions, WarmupConfig,
};
use picasso_models::ModelKind;
use picasso_obs::{ChromeTrace, Track};
use picasso_sim::Binding;
use proptest::prelude::*;

/// The exporter before its records were written from pre-rendered
/// fragments, from public API only.
fn reference(out: &SimulationOutput) -> String {
    let result = &out.result;
    let spans = span_tracer(out);
    let span_tracks = spans.tracks();
    let names = (["schedule", "critical path"].into_iter())
        .chain(span_tracks.iter().map(String::as_str))
        .chain(result.resources.iter().map(|r| r.spec.name.as_str()));
    let mut trace = ChromeTrace::new(names);
    let schedule = trace.track("schedule");
    trace.set_sort_index(schedule, -1);
    trace.add_tracer(&spans);
    let lanes: Vec<Track> = (result.resources.iter().enumerate())
        .map(|(i, r)| {
            let lane = trace.track(&r.spec.name);
            trace.set_sort_index(lane, 1000 + i as i64);
            lane
        })
        .collect();
    for rec in &result.records {
        let lane = lanes[rec.resource.0];
        let cat = rec.category.name();
        let work = format!("{:.0}", rec.work);
        let task = rec.task.0.to_string();
        trace.complete(
            lane,
            cat,
            cat,
            rec.start.as_nanos(),
            rec.end.as_nanos(),
            &[("work", &work), ("task", &task)],
        );
        if let Binding::Dependency(producer) = rec.binding {
            let prod = &result.records[producer.0];
            trace.flow(
                "dep",
                lanes[prod.resource.0],
                prod.end.as_nanos(),
                lane,
                rec.start.as_nanos(),
            );
        }
    }
    for iter in &out.scopes.iterations {
        if let Some((s, _)) = iter.range.interval(result) {
            trace.frame_marker(&format!("iteration {}", iter.index), s);
        }
    }
    let critical = trace.track("critical path");
    trace.set_sort_index(critical, 0);
    let mut prev_end: Option<u64> = None;
    for t in picasso_sim::analysis::critical_path(result) {
        let rec = &result.records[t.0];
        let stage = out.stage(t);
        let name = if stage.launcher {
            format!("launch:{:?}", stage.kind)
        } else {
            format!("{:?}", stage.kind)
        };
        let (start, end) = (rec.start.as_nanos(), rec.end.as_nanos());
        let task = t.0.to_string();
        let lane = &result.resources[rec.resource.0].spec.name;
        trace.complete(
            critical,
            &name,
            "critical",
            start,
            end,
            &[("task", &task), ("lane", lane)],
        );
        if let Some(pe) = prev_end {
            trace.flow("critical", critical, pe, critical, start);
        }
        prev_end = Some(end);
    }
    trace.to_json()
}

/// The pass list of one rung of the perf-suite ladder.
fn rung(index: usize) -> Vec<PassId> {
    match index {
        0 => vec![],
        1 => vec![PassId::DPacking, PassId::KPacking],
        2 => vec![
            PassId::DPacking,
            PassId::KPacking,
            PassId::KInterleaving,
            PassId::DInterleaving,
        ],
        _ => PassId::ALL.to_vec(),
    }
}

/// One suite rung under the perf suite's session shape, with the given
/// machines, iterations and warm-up seed.
fn simulate_rung(
    model: ModelKind,
    rung_index: usize,
    machines: usize,
    iterations: usize,
    seed: u64,
) -> SimulationOutput {
    let opts = TrainerOptions {
        machines,
        iterations,
        batch_per_executor: Some(1024),
        hot_bytes: 1 << 24,
        warmup: WarmupConfig {
            batches: 4,
            batch_size: 256,
            max_vocab: 1000,
            hot_bytes: 1 << 24,
            seed,
        },
        ..TrainerOptions::default()
    };
    let data = model.default_dataset().shared();
    let pipeline = Optimizations::new(rung(rung_index));
    run(model, &data, Strategy::Hybrid, pipeline, "rung", &opts)
        .expect("suite rung trains")
        .output
}

proptest! {
    /// `chrome_trace` writes the reference's bytes.
    #[test]
    fn record_loop_matches_the_reference_byte_for_byte(
        can in proptest::bool::ANY,
        rung_index in 0usize..4,
        machines in 1usize..5,
        iterations in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let model = if can { ModelKind::Can } else { ModelKind::WideDeep };
        let out = simulate_rung(model, rung_index, machines, iterations, seed);
        let got = chrome_trace(&out).to_json();
        let want = reference(&out);
        prop_assert!(
            got == want,
            "{:?} rung {} x{} for {} iterations, seed {}: {} vs {} bytes",
            model,
            rung_index,
            machines,
            iterations,
            seed,
            got.len(),
            want.len()
        );
    }
}
