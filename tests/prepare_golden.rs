//! Golden digests of what `exec::prepare` plans.
//!
//! Pins one FNV-1a digest per run over the analytic ratios prepare writes
//! and the diagnostics it collects:
//!
//! - the bits of every chain's `unique_ratio` and `cache_hit_ratio`;
//! - the bits of the report's ID-mass-weighted `cache_hit_ratio`;
//! - every rendered diagnostic in `RunArtifacts::lint` (rule, severity,
//!   span, message), one per line.
//!
//! The runs are the eight perf-suite rungs
//! (`picasso_bench::scenarios::perf_scenarios`) under the suite's session
//! shape (`picasso_bench::scenarios::suite_config`), plus the W&D base and
//! inter rungs on four nodes. Any change to the per-table Zipf ratios, their
//! accumulation order, or the stage lints moves one of these pins.

use picasso::exec::{RunArtifacts, WarmupConfig};
use picasso::obs::checksum::Fnv1a;
use picasso::{ModelKind, Optimizations, PassId, PicassoConfig, Session, Strategy};

/// `picasso_bench::scenarios::suite_config`: one node, two iterations,
/// fixed batch, seeded warm-up.
fn suite_config() -> PicassoConfig {
    PicassoConfig {
        iterations: 2,
        warmup: WarmupConfig {
            batches: 4,
            batch_size: 256,
            max_vocab: 1000,
            hot_bytes: 1 << 24,
            seed: 17,
        },
        batch_per_executor: Some(1024),
        ..PicassoConfig::default()
    }
    .machines(1)
}

/// The pass list of one rung of the perf-suite ladder.
fn rung(name: &str) -> Vec<PassId> {
    match name {
        "base" => vec![],
        "pack" => vec![PassId::DPacking, PassId::KPacking],
        "inter" => vec![
            PassId::DPacking,
            PassId::KPacking,
            PassId::KInterleaving,
            PassId::DInterleaving,
        ],
        "cache" => PassId::ALL.to_vec(),
        other => panic!("unknown rung {other}"),
    }
}

fn run(model: ModelKind, prefix: &str, suffix: &str, config: PicassoConfig) -> RunArtifacts {
    Session::new(model, config)
        .try_run_custom(
            Strategy::Hybrid,
            Optimizations::new(rung(suffix)),
            &format!("{prefix}_{suffix}"),
        )
        .expect("scenario trains")
}

fn digest(arts: &RunArtifacts) -> String {
    let mut h = Fnv1a::default();
    for chain in &arts.spec.chains {
        h.write(&chain.unique_ratio.to_bits().to_le_bytes());
        h.write(&chain.cache_hit_ratio.to_bits().to_le_bytes());
    }
    h.write(&arts.report.cache_hit_ratio.to_bits().to_le_bytes());
    for d in &arts.lint {
        h.write(d.to_string().as_bytes());
        h.write(b"\n");
    }
    format!("{:016x}", h.finish())
}

fn wdl(suffix: &str, config: PicassoConfig) -> String {
    digest(&run(ModelKind::WideDeep, "wdl", suffix, config))
}

fn can(suffix: &str) -> String {
    digest(&run(ModelKind::Can, "can", suffix, suite_config()))
}

#[test]
fn wdl_base_prepare_is_pinned() {
    assert_eq!(wdl("base", suite_config()), "486ffc0a6058b115");
}

#[test]
fn wdl_pack_prepare_is_pinned() {
    assert_eq!(wdl("pack", suite_config()), "c40c2893c0e1bdac");
}

#[test]
fn wdl_inter_prepare_is_pinned() {
    assert_eq!(wdl("inter", suite_config()), "e4979cf75c1d4f9e");
}

#[test]
fn wdl_cache_prepare_is_pinned() {
    assert_eq!(wdl("cache", suite_config()), "abef7a77bb9b8a88");
}

#[test]
fn can_base_prepare_is_pinned() {
    assert_eq!(can("base"), "7f1a7d5c3c2f27c1");
}

#[test]
fn can_pack_prepare_is_pinned() {
    assert_eq!(can("pack"), "ef82d7301b1bda6d");
}

#[test]
fn can_inter_prepare_is_pinned() {
    assert_eq!(can("inter"), "56d16826883055c1");
}

#[test]
fn can_cache_prepare_is_pinned() {
    assert_eq!(can("cache"), "bfc02db3dbddb2cd");
}

#[test]
fn wdl_base_on_four_nodes_prepare_is_pinned() {
    assert_eq!(wdl("base", suite_config().machines(4)), "486ffc0a6058b115");
}

#[test]
fn wdl_inter_on_four_nodes_prepare_is_pinned() {
    assert_eq!(wdl("inter", suite_config().machines(4)), "e4979cf75c1d4f9e");
}
