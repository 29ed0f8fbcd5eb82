//! Golden bytes of the Chrome trace exporter and the analysis report.
//!
//! Pins the byte length and FNV-1a of serialized Chrome traces for two
//! 4-node W&D runs (the `cluster_trace` host-benchmark rungs, warm-up seed
//! 101) and for one facade trace that carries counter lanes. Any change to
//! event order, field order, tid numbering, number formatting or escaping
//! moves one of these pins. The two W&D runs also pin their
//! `picasso.analysis_report` document, the one `repro analyze` writes per
//! scenario: critical path, overlap, idle-gap attribution and the analysis
//! lints. A crash-and-recover run pins the trace `RecoveryRun` renders:
//! checkpoint spans with args, crash instants and fractional-second times.

use picasso::ckpt::CheckpointStore;
use picasso::exec::{
    analysis_report_json, chrome_trace, run, run_recovery, RecoveryOptions, RunArtifacts,
    WarmupConfig,
};
use picasso::obs::checksum::fnv1a64;
use picasso::sim::FaultPlan;
use picasso::train::auc_datasets;
use picasso::{ModelKind, Optimizations, PassId, PicassoConfig, Session, Strategy};

/// The perf-suite session shape (`picasso_bench::scenarios::suite_config`)
/// on four nodes, with the warm-up seed the benchmark's first run uses.
fn cluster_config() -> PicassoConfig {
    PicassoConfig {
        iterations: 2,
        warmup: WarmupConfig {
            batches: 4,
            batch_size: 256,
            max_vocab: 1000,
            hot_bytes: 1 << 24,
            seed: 101,
        },
        batch_per_executor: Some(1024),
        ..PicassoConfig::default()
    }
    .machines(4)
}

fn wdl_run(name: &str, passes: &[PassId]) -> RunArtifacts {
    let model = ModelKind::WideDeep;
    let data = model.default_dataset().shared();
    run(
        model,
        &data,
        Strategy::Hybrid,
        Optimizations::new(passes.to_vec()),
        name,
        &cluster_config().trainer_options(),
    )
    .expect("scenario trains")
}

fn pin(text: &str) -> (usize, String) {
    (text.len(), format!("{:016x}", fnv1a64(text.as_bytes())))
}

/// The analysis report of a run against its planned D×K interleaving.
fn report_pin(name: &str, arts: &RunArtifacts) -> (usize, String) {
    let spec = &arts.spec;
    pin(&analysis_report_json(
        name,
        &arts.output,
        spec.micro_batches.max(1),
        spec.group_count().max(1),
    )
    .to_string())
}

#[test]
fn wdl_base_trace_bytes_are_pinned() {
    let arts = wdl_run("wdl_base", &[]);
    let got = pin(&chrome_trace(&arts.output).to_json());
    assert_eq!(got, (5_746_280, "fe817e956f79c875".to_string()));
    assert_eq!(
        report_pin("wdl_base", &arts),
        (6_637, "8a6dc345fd02fe28".to_string())
    );
}

#[test]
fn wdl_inter_trace_bytes_are_pinned() {
    let arts = wdl_run(
        "wdl_inter",
        &[
            PassId::DPacking,
            PassId::KPacking,
            PassId::KInterleaving,
            PassId::DInterleaving,
        ],
    );
    let got = pin(&chrome_trace(&arts.output).to_json());
    assert_eq!(got, (1_279_546, "a0920e0891953334".to_string()));
    assert_eq!(
        report_pin("wdl_inter", &arts),
        (6_803, "7f79da04ede33ebb".to_string())
    );
}

#[test]
fn trace_with_counter_lanes_is_pinned() {
    let config = PicassoConfig {
        iterations: 3,
        warmup: WarmupConfig {
            batches: 4,
            batch_size: 256,
            max_vocab: 1000,
            hot_bytes: 1 << 24,
            seed: 1,
        },
        batch_per_executor: Some(1024),
        ..PicassoConfig::default()
    };
    let arts = Session::new(ModelKind::Dlrm, config).run_picasso();
    let text = picasso::observe::chrome_trace(&arts).to_json();
    assert!(text.contains("\"ph\":\"C\""), "counter lanes present");
    assert_eq!(pin(&text), (418_199, "1dae62552137e1d6".to_string()));
}

#[test]
fn recovery_trace_bytes_are_pinned() {
    let dir = std::env::temp_dir().join(format!("picasso-chrome-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("open temp store");
    let opts = RecoveryOptions {
        iterations: 12,
        batch_size: 16,
        seed: 23,
        ckpt_every: 2,
        full_every: 3,
        fault_plan: FaultPlan::parse("seed=9;crash@5").expect("plan parses"),
        ..RecoveryOptions::default()
    };
    let recovered = run_recovery(&auc_datasets::criteo_like(), Some(&store), &opts).expect("run");
    let _ = std::fs::remove_dir_all(&dir);
    let text = recovered.chrome_trace().to_json();
    assert!(text.contains("crash@5") && text.contains("restore->"));
    assert_eq!(pin(&text), (1_281, "38e5caa12ed76f09".to_string()));
}
