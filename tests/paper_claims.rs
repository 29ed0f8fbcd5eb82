//! Integration tests pinning the paper's qualitative claims, one per
//! experiment family (the full tables live in `picasso-core`'s experiment
//! modules; these assert the cross-cutting shapes).

use picasso::data::{BatchGenerator, DatasetSpec, FrequencyStats};
use picasso::experiments::Scale;
use picasso::graph::graph_stats;
use picasso::sim::MachineSpec;
use picasso::train::{auc_datasets, train_ctr, SyncMode, TrainConfig, Variant};
use picasso::{Framework, ModelKind, PicassoConfig, Session};

#[test]
fn fig3_claim_skewed_ids_cover_most_data() {
    // 20% of IDs cover 70% on average across the five datasets.
    let mut avg = 0.0;
    for data in [
        DatasetSpec::criteo(),
        DatasetSpec::alibaba(),
        DatasetSpec::product1(),
        DatasetSpec::product2(),
        DatasetSpec::product3(),
    ] {
        let shared = data.shared();
        let mut gen = BatchGenerator::with_max_vocab(shared.clone(), 3, 10_000);
        let mut stats = FrequencyStats::new();
        for _ in 0..4 {
            let b = gen.next_batch(512);
            for f in &b.fields {
                stats.record_all(&f.ids);
            }
        }
        avg += stats.coverage_of_top(0.2) / 5.0;
    }
    assert!(
        (0.55..0.95).contains(&avg),
        "average top-20% coverage {avg:.2} outside the Fig. 3 band"
    );
}

#[test]
fn tab5_claim_packing_collapses_operations() {
    let data = DatasetSpec::product2();
    let base = ModelKind::Can.build(&data);
    let session = Session::new(ModelKind::Can, {
        let mut c: PicassoConfig = Scale::Quick.eflops_config();
        c.machines = 1;
        c.batch_per_executor = Some(1024);
        c
    });
    let packed = session.run_picasso().spec;
    let b = graph_stats(&base);
    let p = graph_stats(&packed);
    assert_eq!(b.packed_embeddings, 364);
    assert!(p.packed_embeddings <= 60);
    let ratio = p.total_ops as f64 / b.total_ops as f64;
    assert!(ratio < 0.35, "op ratio {ratio:.3}");
}

#[test]
fn tab3_claim_sync_training_preserves_auc() {
    let data = auc_datasets::criteo_like();
    let sync = train_ctr(
        Variant::DotDeep,
        &data,
        &TrainConfig {
            steps: 80,
            ..TrainConfig::default()
        },
    );
    let stale = train_ctr(
        Variant::DotDeep,
        &data,
        &TrainConfig {
            steps: 80,
            mode: SyncMode::AsyncStale { staleness: 4 },
            ..TrainConfig::default()
        },
    );
    assert!(sync.auc > 0.62, "sync AUC {:.3}", sync.auc);
    assert!(
        stale.auc <= sync.auc + 0.015,
        "stale {:.3} vs sync {:.3}",
        stale.auc,
        sync.auc
    );
}

#[test]
fn tab7_claim_picasso_lifts_batch_and_throughput() {
    let data = DatasetSpec::product2().shared();
    let mut cfg: PicassoConfig = Scale::Quick.eflops_config();
    cfg.machines = 2;
    let session = Session::with_dataset(ModelKind::Dcn, data, cfg);
    let xdl = session.run_framework(Framework::Xdl).report;
    let picasso = session.run_framework(Framework::Picasso).report;
    assert!(picasso.batch_per_executor >= xdl.batch_per_executor);
    assert!(picasso.ips_per_node > xdl.ips_per_node);
}

/// IPS per node for the design ablations below: two quick-scale EFLOPS
/// machines at batch 8192 on the given hardware model.
fn ablation_ips(kind: ModelKind, machine: MachineSpec, fw: Framework) -> f64 {
    let mut cfg: PicassoConfig = Scale::Quick.eflops_config();
    cfg.machine = machine;
    cfg.machines = 2;
    cfg.batch_per_executor = Some(8192);
    Session::new(kind, cfg)
        .run_framework(fw)
        .report
        .ips_per_node
}

#[test]
fn design_claim_dispatch_cost_is_what_packing_amortizes() {
    // Without the op-dispatch cost model the baseline's fragmentary
    // operations launch for free, so packing's speedup over the hybrid base
    // must shrink.
    let speedup = |m: MachineSpec| {
        ablation_ips(ModelKind::WideDeep, m.clone(), Framework::Picasso)
            / ablation_ips(ModelKind::WideDeep, m, Framework::PicassoBase)
    };
    let with = speedup(MachineSpec::eflops());
    let without = speedup(MachineSpec::eflops().without_dispatch_cost());
    assert!(
        with > without,
        "dispatch model must be load-bearing for packing: {with:.2}x vs {without:.2}x"
    );
}

#[test]
fn design_claim_burst_congestion_costs_throughput() {
    // An idealized interconnect (no burst congestion) is an upper bound on
    // what full PICASSO achieves on CAN.
    let m = MachineSpec::eflops();
    let with = ablation_ips(ModelKind::Can, m.clone(), Framework::Picasso);
    let without = ablation_ips(ModelKind::Can, m.without_congestion(), Framework::Picasso);
    assert!(
        without > with,
        "congestion model must cost throughput: {with:.0} vs {without:.0} IPS"
    );
}
