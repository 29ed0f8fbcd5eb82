//! Golden bytes of the Prometheus text a finished run exports.
//!
//! Pins the byte length and FNV-1a of `picasso::observe::prometheus_text`
//! for two runs: the DLRM facade run whose Chrome trace
//! `chrome_golden.rs` pins, and the `can_cache` perf-suite rung under the
//! suite's session shape (`picasso_bench::scenarios::suite_config`). Both
//! enable caching, so the text carries the per-table hot-set cache
//! counters as well as the simulator, scheduler, pass and flight-recorder
//! families. Any change to a metric's value, name, labels or rendering
//! moves one of these pins. The samples of the two wall-clock families
//! (pass durations and the flight recorder's self-measured overhead) are
//! left out of the pinned text; their `HELP` and `TYPE` lines stay in.

use picasso::exec::{RunArtifacts, WarmupConfig};
use picasso::obs::checksum::fnv1a64;
use picasso::{ModelKind, Optimizations, PassId, PicassoConfig, Session, Strategy};

/// Metric families whose samples are wall-clock measurements.
const WALL_CLOCK: [&str; 2] = ["graph_pass_duration_seconds", "flight_overhead_ns"];

/// Whether `line` is a sample of a wall-clock family.
fn is_wall_clock_sample(line: &str) -> bool {
    WALL_CLOCK.iter().any(|name| {
        line.strip_prefix(name)
            .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
    })
}

/// Length and FNV-1a of the run's Prometheus text without its wall-clock
/// samples.
fn pin(arts: &RunArtifacts) -> (usize, String) {
    let text = picasso::observe::prometheus_text(arts);
    assert!(
        text.contains("embedding_lookups_total"),
        "cache counters present"
    );
    let kept: String = text
        .lines()
        .filter(|line| !is_wall_clock_sample(line))
        .flat_map(|line| [line, "\n"])
        .collect();
    (kept.len(), format!("{:016x}", fnv1a64(kept.as_bytes())))
}

#[test]
fn dlrm_facade_metrics_are_pinned() {
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
    assert_eq!(pin(&arts), (24_679, "467462487a67617b".to_string()));
}

#[test]
fn can_cache_metrics_are_pinned() {
    let config = PicassoConfig {
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
    .machines(1);
    let arts = Session::new(ModelKind::Can, config)
        .try_run_custom(
            Strategy::Hybrid,
            Optimizations::new(PassId::ALL.to_vec()),
            "can_cache",
        )
        .expect("scenario trains");
    assert_eq!(pin(&arts), (80_575, "9305e90885a9ba4c".to_string()));
}
