//! Host-time benchmark of the PICASSO reproduction, split by layer.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload ablation_ladder --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Runs one workload closed-loop on one thread — one op at a time — for
//! the given number of seconds (whole cycles of the workload's ops, and at
//! least [`MIN_OPS`] ops), checks every op's output, and prints a table of
//! all end-to-end metrics followed by one JSON line. With `--trace 0` the
//! JSON line carries the gated host metrics; `--trace 1` records spans
//! around each layer's public calls and carries the per-layer metrics
//! instead. See README.md.

mod ckpt;
mod serving;
mod stats;
mod trace;
mod training;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use trace::{Tracer, PARTITION};

/// Fewest ops a run measures: the p90 must leave ten samples above it.
const MIN_OPS: usize = 100;
/// Samples a tail percentile must leave beyond it.
const MIN_BEYOND: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// A run stops starting cycles after this long, whatever `MIN_OPS` says.
const HARD_STOP_S: f64 = 150.0;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = [
    "ablation_ladder",
    "cluster_trace",
    "serve_sweep",
    "ckpt_recover",
];

/// One workload: a fixed cycle of ops, each checked after its timed window.
pub trait Workload {
    /// Ops per cycle; a run measures whole cycles.
    fn cycle(&self) -> usize;
    /// Name of op `i` of the cycle.
    fn name(&self, i: usize) -> String;
    /// Runs op `i` of the cycle: the timed window.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String>;
    /// Checks op `i`'s output after its window and, when tracing, times
    /// the probed layers.
    fn check(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String>;
    /// The run's simulated results.
    fn sim(&self) -> Sim;
}

/// Simulated (deterministic, modelled-hardware) results of a run;
/// `None` where the workload has no such result.
#[derive(Debug, Default)]
pub struct Sim {
    ips_per_node: Option<f64>,
    slo_miss_frac: Option<f64>,
    max_rate_rps: Option<f64>,
    time_to_recover_s: Option<f64>,
    train_loss: Option<f64>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Layer times measured during set-up rather than per op.
type SetupLayers = Vec<(&'static str, f64)>;

/// Builds the workload's inputs from the seed: dataset specs, the serving
/// plan and traffic, the checkpoint store. Returns the workload and its
/// set-up-time layer details.
fn setup(args: &Args) -> Result<(Box<dyn Workload>, SetupLayers), String> {
    let mut details = Vec::new();
    let w: Box<dyn Workload> = match args.workload.as_str() {
        "ablation_ladder" => Box::new(training::Training::ablation_ladder(args.seed)),
        "cluster_trace" => Box::new(training::Training::cluster_trace(args.seed)),
        "serve_sweep" => {
            let s = serving::Serving::new(args.seed)?;
            details.push(("exec.serving_plan.ms", s.plan_ms()));
            Box::new(s)
        }
        "ckpt_recover" => Box::new(ckpt::Recovery::new(args.seed)?),
        other => return Err(format!("unknown workload '{other}'")),
    };
    Ok((w, details))
}

/// Runs one untimed cycle, which records the outputs every later repeat
/// must reproduce and lets lazy state fill before timing starts.
fn reference_cycle(w: &mut dyn Workload) -> Result<(), String> {
    let mut off = Tracer::new(false);
    for i in 0..w.cycle() {
        w.op(i, &mut off)?;
        w.check(i, &mut off)?;
    }
    Ok(())
}

/// Runs op `i` and its check, turning a panic into an error.
fn guarded(
    w: &mut dyn Workload,
    i: usize,
    tr: &mut Tracer,
) -> (Result<(), String>, f64, Result<(), String>) {
    let t = Instant::now();
    let op = catch_unwind(AssertUnwindSafe(|| w.op(i, tr)))
        .unwrap_or_else(|_| Err("op panicked".into()));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let check = if op.is_ok() {
        catch_unwind(AssertUnwindSafe(|| w.check(i, tr)))
            .unwrap_or_else(|_| Err("check panicked".into()))
    } else {
        Ok(())
    };
    (op, ms, check)
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(name, unit, kind, better)` of every end-to-end metric the table
/// prints.
const E2E: [(&str, &str, &str, &str); 12] = [
    ("setup_s", "s", "host", "lower"),
    ("ops_per_s", "op/s", "host", "higher"),
    ("op_ms_p50", "ms", "host", "lower"),
    ("cycle_ms_min", "ms", "host", "lower"),
    ("peak_rss_mb", "MiB", "host", "lower"),
    ("op_ms_p90", "ms", "host", "lower"),
    ("error_rate", "ratio", "host", "lower"),
    ("sim_ips_per_node", "samples/s", "sim", "higher"),
    ("srv_slo_miss_frac", "ratio", "sim", "lower"),
    ("srv_max_rate_rps", "req/s", "sim", "higher"),
    ("sim_time_to_recover_s", "s", "sim", "lower"),
    ("train_loss", "BCE", "sim", "lower"),
];
/// End-to-end metrics in the untraced JSON line: host metrics every
/// workload has, never zero, and steady enough on a shared machine to
/// compare commits on (see README.md). The traced JSON line carries the
/// rest after the per-layer metrics.
const GATED: [&str; 3] = ["setup_s", "cycle_ms_min", "peak_rss_mb"];

/// `(name, unit)` of every per-layer metric; the traced run reports each
/// as its median over ops, zero where the workload never enters the layer.
const PER_LAYER: [(&str, &str); 41] = [
    ("exec.warmup.ms", "ms"),
    ("data.batches.ms", "ms"),
    ("exec.warmup.ids", "count"),
    ("exec.prepare.self_ms", "ms"),
    ("graph.pass.ms", "ms"),
    ("lint.stage.ms", "ms"),
    ("exec.simulate.ms", "ms"),
    ("exec.simulate.tasks", "count"),
    ("exec.simulate.ns_per_task", "ns"),
    ("exec.telemetry.ms", "ms"),
    ("obs.analysis.ms", "ms"),
    ("obs.flight.ms", "ms"),
    ("obs.flight.events", "count"),
    ("obs.chrome.ms", "ms"),
    ("obs.chrome.bytes", "bytes"),
    ("exec.serving_plan.ms", "ms"),
    ("sim.traffic.ms", "ms"),
    ("serve.replica.ms", "ms"),
    ("serve.ns_per_request", "ns"),
    ("serve.batches", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.mean_batch", "count"),
    ("serve.shed", "count"),
    ("serve.max_queue_depth", "count"),
    ("train.baseline.ms", "ms"),
    ("exec.recovery.ms", "ms"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.checkpoints", "count"),
    ("ckpt.validate.ms", "ms"),
    ("train.lost_iterations", "count"),
    ("train.collective_retries", "count"),
    ("sim.exposed.data_io", "ratio"),
    ("sim.exposed.memory", "ratio"),
    ("sim.exposed.communication", "ratio"),
    ("sim.exposed.computation", "ratio"),
    ("sim.exposed.sync", "ratio"),
    ("sim.overlap.comm_under_compute", "ratio"),
    ("sim.cache_hit_ratio", "ratio"),
    ("graph.ops", "count"),
    ("other.ms", "ms"),
    ("op.ms", "ms"),
];

fn json_metrics(values: &[(&str, &str, f64)]) -> String {
    let fields: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            assert!(stats::valid_metric_name(name), "bad metric name {name}");
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map(|v| format!("{v:.6}")).unwrap_or_else(|| "n/a".into())
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };

    // Set-up, repeated: the inputs and the reference cycle, which is all
    // the work before the first timed op. The first is timed from process
    // start; the last instance is the one measured.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut setup_details: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut workload = None;
    for k in 0..SETUPS {
        drop(workload.take());
        let t = if k == 0 { start } else { Instant::now() };
        let built = setup(&args)
            .and_then(|(mut w, details)| reference_cycle(w.as_mut()).map(|()| (w, details)));
        match built {
            Ok((w, details)) => {
                setup_s.push(t.elapsed().as_secs_f64());
                for (name, v) in details {
                    setup_details.entry(name).or_default().push(v);
                }
                workload = Some(w);
            }
            Err(e) => {
                eprintln!("hostbench: set-up of {} failed: {e}", args.workload);
                return ExitCode::from(1);
            }
        }
    }
    let mut w = workload.expect("at least one set-up ran");

    // The measured loop: whole cycles until the time is up and enough ops
    // have been sampled.
    let mut tr = Tracer::new(args.trace);
    let mut op_ms = Vec::new();
    let mut by_op: Vec<Vec<f64>> = vec![Vec::new(); w.cycle()];
    let mut rows: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let t_loop = Instant::now();
    loop {
        for (i, samples) in by_op.iter_mut().enumerate() {
            let (op, ms, check) = guarded(w.as_mut(), i, &mut tr);
            attempted += 1;
            if let Err(e) = op.and(check) {
                failed += 1;
                if failed <= 3 {
                    eprintln!("hostbench: op {attempted} failed: {e}");
                }
            }
            op_ms.push(ms);
            samples.push(ms);
            if tr.on() {
                rows.push(tr.finish(ms));
            }
        }
        let elapsed = t_loop.elapsed().as_secs_f64();
        if (elapsed >= args.seconds && op_ms.len() >= MIN_OPS) || elapsed >= HARD_STOP_S {
            break;
        }
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    let sim = w.sim();
    let names: Vec<String> = (0..w.cycle()).map(|i| w.name(i)).collect();
    drop(w);

    let setup_med = stats::median(&setup_s).expect("set-up times recorded");
    let p50 = stats::median(&op_ms).expect("ops recorded");
    let p90 = stats::tail_percentile(&op_ms, 0.90, MIN_BEYOND);
    let cycle_min: f64 = by_op
        .iter()
        .map(|xs| stats::low_percentile(xs, 0.0).expect("every op ran"))
        .sum();
    let rss = peak_rss_mb().unwrap_or(0.0);
    let error_rate = failed as f64 / attempted as f64;
    let (q1, _, q3) = stats::quartiles(&op_ms).unwrap_or((p50, p50, p50));
    let spread = stats::iqr_share(&op_ms).unwrap_or(0.0);
    let e2e_values = [
        Some(setup_med),
        Some(op_ms.len() as f64 / loop_s),
        Some(p50),
        Some(cycle_min),
        Some(rss),
        p90,
        Some(error_rate),
        sim.ips_per_node,
        sim.slo_miss_frac,
        sim.max_rate_rps,
        sim.time_to_recover_s,
        sim.train_loss,
    ];

    println!(
        "hostbench {} seed={} trace={} ops={} loop_s={loop_s:.3} op_ms q1={q1:.4} q3={q3:.4} iqr/median={spread:.4} samples_above_p90>={MIN_BEYOND}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        op_ms.len()
    );
    println!(
        "{:<16} {:>6} {:>12} {:>12} {:>12}",
        "op", "n", "min_ms", "p10_ms", "p50_ms"
    );
    for (name, xs) in names.iter().zip(&by_op) {
        println!(
            "{name:<16} {:>6} {:>12.4} {:>12.4} {:>12.4}",
            xs.len(),
            stats::low_percentile(xs, 0.0).unwrap_or(0.0),
            stats::low_percentile(xs, 0.10).unwrap_or(0.0),
            stats::median(xs).unwrap_or(0.0)
        );
    }
    println!(
        "{:<24} {:>16} {:<10} {:<5} better",
        "metric", "value", "unit", "kind"
    );
    for ((name, unit, kind, better), v) in E2E.iter().zip(&e2e_values) {
        println!(
            "{name:<24} {:>16} {unit:<10} {kind:<5} {better}",
            fmt_opt(*v)
        );
    }

    let e2e: Vec<(&str, &str, f64)> = E2E
        .iter()
        .zip(&e2e_values)
        .map(|(&(name, unit, ..), v)| (name, unit, v.unwrap_or(0.0)))
        .collect();
    let metrics = if args.trace {
        let mut per_layer: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, _) in PER_LAYER {
            let xs: Vec<f64> = rows.iter().filter_map(|r| r.get(name).copied()).collect();
            if let Some(m) = stats::median(&xs) {
                per_layer.insert(name, m);
            }
        }
        for (name, xs) in &setup_details {
            per_layer.insert(name, stats::median(xs).unwrap_or(0.0));
        }

        // Layer shares: each partition span's total over the op total.
        let total: f64 = op_ms.iter().sum();
        println!("{:<24} {:>10} {:>12}", "layer", "share", "median_ms");
        for name in PARTITION {
            let sum: f64 = rows.iter().filter_map(|r| r.get(name)).sum();
            if sum > 0.0 {
                let med = per_layer.get(name).copied().unwrap_or(0.0);
                println!("{name:<24} {:>10.4} {med:>12.4}", sum / total);
            }
        }
        let mut values: Vec<(&str, &str, f64)> = PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, per_layer.get(name).copied().unwrap_or(0.0)))
            .collect();
        values.extend(e2e.iter().filter(|m| !GATED.contains(&m.0)));
        json_metrics(&values)
    } else {
        let values: Vec<(&str, &str, f64)> =
            e2e.into_iter().filter(|m| GATED.contains(&m.0)).collect();
        json_metrics(&values)
    };
    let correct = failed == 0 && p90.is_some() && rss > 0.0;
    if p90.is_none() {
        eprintln!("hostbench: too few ops for a p90 with {MIN_BEYOND} samples beyond it");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
    ExitCode::SUCCESS
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_follows_the_grammar_and_is_unique() {
        for name in GATED {
            assert!(
                E2E.iter().any(|m| m.0 == name),
                "{name} is not an end-to-end metric"
            );
        }
        let mut names: Vec<&str> = E2E.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for n in &names {
            assert!(stats::valid_metric_name(n), "{n}");
        }
        let per_layer: std::collections::BTreeSet<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(per_layer.len(), PER_LAYER.len(), "duplicate per-layer name");
        for name in PARTITION {
            assert!(per_layer.contains(name), "{name} is not reported");
        }
    }
}
