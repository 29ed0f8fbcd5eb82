//! Export a Chrome/Perfetto trace of one training iteration schedule for
//! PICASSO and the XDL baseline — open the JSON files in
//! https://ui.perfetto.dev to see the pulse-like baseline and the
//! interleaved PICASSO schedule side by side.
//!
//! ```text
//! cargo run --release --example export_trace [model]
//! ```

use picasso::embedding::PackPlan;
use picasso::exec::{chrome_trace, observe, simulate, SimConfig, Strategy};
use picasso::graph::{d_packing, k_packing};
use picasso::obs::{prometheus, MetricsRegistry};
use picasso::sim::{measure, MachineSpec};
use picasso::ModelKind;
use std::collections::BTreeMap;

fn main() {
    let kind = match std::env::args().nth(1).as_deref() {
        Some("can") => ModelKind::Can,
        Some("mmoe") => ModelKind::MMoe,
        _ => ModelKind::WideDeep,
    };
    let data = kind.default_dataset();
    let cfg = SimConfig {
        batch_per_executor: 8192,
        iterations: 2,
        machines: 2,
        machine: MachineSpec::eflops(),
        quantized_comm: false,
    };

    // Baseline: the unoptimized graph under synchronous PS.
    let base_spec = kind.build(&data);
    let base = simulate(&base_spec, Strategy::PsSync { servers: 1 }, &cfg).unwrap();
    std::fs::write("trace_baseline.json", chrome_trace(&base).to_json()).unwrap();

    // PICASSO: packed graph under the hybrid strategy.
    let plan = PackPlan::plan(&data);
    let assign: BTreeMap<usize, usize> = plan
        .packs
        .iter()
        .enumerate()
        .flat_map(|(p, pack)| pack.tables.iter().map(move |&t| (t, p)))
        .collect();
    let mut packed = k_packing::apply(&d_packing::apply(&base_spec, &assign));
    packed.micro_batches = 3;
    let picasso = simulate(&packed, Strategy::Hybrid, &cfg).unwrap();
    std::fs::write("trace_picasso.json", chrome_trace(&picasso).to_json()).unwrap();

    // Metrics registry dump of the PICASSO run in Prometheus text format,
    // publishing one measurement at the telemetry bucket.
    let measured = measure(&picasso.result, observe::telemetry_bucket(&picasso.result));
    let registry = MetricsRegistry::new();
    observe::export_metrics(&picasso, &measured, &registry);
    std::fs::write(
        "metrics_picasso.prom",
        prometheus::render(&registry.snapshot()),
    )
    .unwrap();

    println!("{}:", kind.name());
    println!(
        "  baseline (sync PS): {:.0} IPS/node, {} tasks -> trace_baseline.json",
        base.ips_per_node(),
        base.result.records.len()
    );
    println!(
        "  PICASSO (packed):   {:.0} IPS/node, {} tasks -> trace_picasso.json",
        picasso.ips_per_node(),
        picasso.result.records.len()
    );
    println!("  metrics registry    -> metrics_picasso.prom");
    println!("open both traces in https://ui.perfetto.dev to compare the schedules");
}
