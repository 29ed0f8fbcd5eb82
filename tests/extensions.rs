//! Integration tests of the §V extensions: quantized communication,
//! preset-excluded embeddings, and the Chrome-trace exporter.

use picasso::experiments::Scale;
use picasso::{ModelKind, PicassoConfig, Session};

fn quick() -> PicassoConfig {
    let mut cfg: PicassoConfig = Scale::Quick.eflops_config();
    cfg.machines = 2;
    cfg.iterations = 3;
    cfg.batch_per_executor = Some(4096);
    cfg
}

#[test]
fn quantized_communication_speeds_up_the_comm_bound_model() {
    let full = Session::new(ModelKind::Can, quick()).report();
    let quant = Session::new(ModelKind::Can, quick().quantized_communication(true)).report();
    assert!(
        quant.ips_per_node > full.ips_per_node,
        "halving wire bytes must help CAN: {} vs {}",
        quant.ips_per_node,
        full.ips_per_node
    );
    // And it halves the measured network consumption per instance.
    let full_bytes_per_inst = full.network_gbps / full.ips_per_node;
    let quant_bytes_per_inst = quant.network_gbps / quant.ips_per_node;
    assert!(
        quant_bytes_per_inst < full_bytes_per_inst * 0.75,
        "wire bytes/instance should drop markedly"
    );
}

#[test]
fn excluded_tables_do_not_change_workload_volume() {
    let base = Session::new(ModelKind::Din, quick()).run_picasso();
    let excl = Session::new(ModelKind::Din, quick().exclude_tables(vec![0, 1, 2])).run_picasso();
    // Same data volume either way; exclusion only relaxes ordering.
    assert_eq!(
        base.spec.embedding_bytes_per_instance(),
        excl.spec.embedding_bytes_per_instance()
    );
    assert!(excl.spec.chains.iter().any(|c| c.interleave_excluded));
    assert!(excl.report.ips_per_node > 0.0);
}

#[test]
fn simulation_exports_a_chrome_trace() {
    use picasso::exec::{chrome_trace, simulate, SimConfig, Strategy};
    use picasso::sim::MachineSpec;
    let data = ModelKind::Dlrm.default_dataset();
    let spec = ModelKind::Dlrm.build(&data);
    let out = simulate(
        &spec,
        Strategy::Hybrid,
        &SimConfig {
            batch_per_executor: 1024,
            iterations: 2,
            machines: 1,
            machine: MachineSpec::eflops(),
            quantized_comm: false,
        },
    )
    .unwrap();
    let trace = chrome_trace(&out).to_json();
    assert!(trace.contains("\"traceEvents\""));
    assert!(
        trace.matches("\"ph\":\"X\"").count() > 100,
        "real runs have many events"
    );
    assert!(trace.contains("gpu0/sm") || trace.contains("node0/gpu0/sm"));
}
