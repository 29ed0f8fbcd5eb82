//! End-to-end acceptance criteria of the observatory: the seeded crash
//! leaves a checksummed post-mortem that pins the crashed iteration's
//! final causal task, and the cross-run store flags a 20% step regression
//! within three ingested runs while staying silent on clean history.

use picasso_bench::observatory::{
    has_regression, ingest_document, snapshot_records, trend_report, TrendVerdict,
};
use picasso_bench::recovery::run_scenario;
use picasso_bench::scenarios::recovery_scenarios;
use picasso_bench::snapshot::{BenchSnapshot, ScenarioResult};
use picasso_core::obs::flight::{FlightCategory, FlightDump};
use picasso_core::obs::history::HistoryStore;
use picasso_core::obs::json::Json;
use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "picasso-bench-observatory-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

#[test]
fn seeded_crash_leaves_a_validating_post_mortem_with_the_final_causal_task() {
    let ckpt = tmp_dir("ckpt");
    let sc = recovery_scenarios()
        .into_iter()
        .next()
        .expect("the suite registers a recovery scenario");
    let crash_at = 13; // pinned by the scenario's "seed=41;crash@13" plan
    let outcome = run_scenario(&sc, Some(&ckpt)).expect("scenario runs");

    // The post-mortem artifact exists, serializes, and survives the full
    // checksum validation round trip.
    let dump = outcome.post_mortem();
    assert!(!dump.events.is_empty(), "post-mortem captured events");
    let text = dump.to_json().to_json() + "\n";
    let back = FlightDump::from_text(&text).expect("checksum validates");
    assert_eq!(&back, dump);

    // It pins the crash: the last fault event is the crash at iteration
    // 13, and the last causal task is the collective of iteration 12 —
    // the final task that completed before the crash fired.
    let fault = dump.last_of(FlightCategory::Fault).expect("fault recorded");
    assert_eq!(fault.code, "crash");
    assert_eq!(fault.iter, crash_at);
    let task = dump.last_of(FlightCategory::Task).expect("task recorded");
    assert_eq!(task.code, "collective");
    assert_eq!(task.iter, crash_at - 1);

    // Same plan, same dump: the artifact is deterministic.
    let ckpt2 = tmp_dir("ckpt2");
    let again = run_scenario(&sc, Some(&ckpt2)).expect("scenario reruns");
    assert_eq!(again.post_mortem().digest(), dump.digest());

    let _ = fs::remove_dir_all(&ckpt);
    let _ = fs::remove_dir_all(&ckpt2);
}

fn synthetic_snapshot(secs: f64) -> Json {
    let mut metrics = BTreeMap::new();
    metrics.insert("secs_per_iteration".to_string(), secs);
    BenchSnapshot {
        version: 0,
        generated_unix_ms: 0,
        scenarios: vec![ScenarioResult {
            name: "wdl_base".into(),
            metrics,
            report: Json::Null,
            pass_wall_ns: BTreeMap::new(),
        }],
    }
    .to_json()
}

#[test]
fn step_regression_is_flagged_within_three_runs_across_store_reopens() {
    // Each ingest reopens the store from disk, exactly like successive CI
    // runs would; the detector must flag a 20% secs_per_iteration step
    // within three ingested runs of the step landing, with zero false
    // positives while the series is clean.
    let dir = tmp_dir("history");
    for i in 0..5 {
        let mut store = HistoryStore::open(&dir).unwrap();
        ingest_document(&mut store, &format!("clean-{i}"), &synthetic_snapshot(0.5)).unwrap();
        let findings = trend_report(&store.load().unwrap());
        assert!(
            !has_regression(&findings),
            "false positive on clean run {i}: {findings:?}"
        );
    }
    let mut flagged_after = None;
    for i in 0..3 {
        let mut store = HistoryStore::open(&dir).unwrap();
        ingest_document(
            &mut store,
            &format!("shifted-{i}"),
            &synthetic_snapshot(0.6),
        )
        .unwrap();
        let findings = trend_report(&store.load().unwrap());
        if has_regression(&findings) {
            let f = findings
                .iter()
                .find(|f| f.verdict == TrendVerdict::Regressing)
                .unwrap();
            assert_eq!(f.scenario, "wdl_base");
            assert_eq!(f.metric, "secs_per_iteration");
            assert_eq!(f.change.at, 5, "regime starts at the first shifted run");
            assert!((f.change.rel_change - 0.2).abs() < 1e-9);
            flagged_after = Some(i + 1);
            break;
        }
    }
    assert!(
        flagged_after.is_some_and(|n| n <= 3),
        "the step must be flagged within three ingested runs"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn real_suite_snapshots_ingest_and_stay_trend_clean() {
    // Two identical captures of the real perf suite: everything ingests
    // under the pinned scenario names and the trend sweep stays silent.
    let dir = tmp_dir("real");
    let snap = BenchSnapshot::capture(0, 0).expect("suite runs");
    let records = snapshot_records(&snap);
    assert_eq!(
        records.len(),
        11,
        "one record per perf scenario plus one per serving scenario"
    );
    let mut store = HistoryStore::open(&dir).unwrap();
    for run in ["a", "b", "c"] {
        ingest_document(&mut store, run, &snap.to_json()).unwrap();
    }
    let loaded = store.load().unwrap();
    assert_eq!(loaded.len(), 33);
    let findings = trend_report(&loaded);
    assert!(
        findings.is_empty(),
        "identical captures cannot produce change-points: {findings:?}"
    );
    let _ = fs::remove_dir_all(&dir);
}
