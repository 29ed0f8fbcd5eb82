//! End-to-end guarantees of the perf-gate suite: two captures of the same
//! code produce byte-identical canonical snapshots, a saved baseline
//! round-trips through disk and passes the gate against a fresh run, and a
//! doctored baseline is caught as a regression.

use picasso_bench::snapshot::{compare, BenchSnapshot};
use std::fs;

#[test]
fn suite_is_deterministic_and_gates_round_trip() {
    // Byte-identical modulo the volatile section (timestamp + pass wall
    // times), which canonical_json() nulls out.
    let a = BenchSnapshot::capture(0, 111).expect("suite runs");
    let b = BenchSnapshot::capture(0, 222).expect("suite runs");
    assert_eq!(
        a.canonical_json().to_json(),
        b.canonical_json().to_json(),
        "two runs of the suite must serialize byte-identically"
    );
    assert_eq!(a.scenarios.len(), 11, "8 training rows + 3 serving rows");
    let (train, srv): (Vec<_>, Vec<_>) = a
        .scenarios
        .iter()
        .partition(|sc| !sc.name.starts_with("srv_"));
    assert_eq!((train.len(), srv.len()), (8, 3));
    for sc in &train {
        assert!(
            sc.metrics["ips_per_node"] > 0.0,
            "{}: throughput must be positive",
            sc.name
        );
        // The run report rides along with calibration + utilization intact.
        let report = &sc.report;
        assert!(report.get("calibration").is_some(), "{}", sc.name);
        assert!(
            !report
                .get("utilization")
                .and_then(picasso_core::obs::Json::items)
                .unwrap()
                .is_empty(),
            "{}",
            sc.name
        );
    }
    for sc in &srv {
        assert!(
            sc.metrics["srv_p99_ns"] >= sc.metrics["srv_p50_ns"],
            "{}: quantiles must be ordered",
            sc.name
        );
        assert!(sc.metrics["srv_capacity_rps"] > 0.0, "{}", sc.name);
        // The full serve report rides along as the row's report document.
        assert_eq!(
            sc.report
                .get("kind")
                .and_then(picasso_core::obs::Json::as_str),
            Some("picasso.serve_report"),
            "{}",
            sc.name
        );
    }
    // Caching scenarios actually cache; the ladder is ordered by speedup.
    let by_name = |name: &str| &a.scenarios.iter().find(|s| s.name == name).unwrap().metrics;
    assert!(by_name("wdl_cache")["cache_hit_ratio"] > 0.0);
    assert_eq!(by_name("wdl_base")["cache_hit_ratio"], 0.0);
    assert!(by_name("wdl_cache")["ips_per_node"] > by_name("wdl_base")["ips_per_node"]);

    // Save/load round-trip, then gate the second capture against it.
    let dir = std::env::temp_dir().join(format!("perfgate-e2e-{}", std::process::id()));
    fs::create_dir_all(&dir).unwrap();
    let path = a.save(&dir).unwrap();
    let baseline = BenchSnapshot::load(&path).unwrap();
    let cmp = compare(&baseline, &b);
    assert!(cmp.passed(), "identical code must pass its own gate");

    // Synthetic regression: a baseline claiming 1.5x the real throughput.
    let mut doctored = baseline.clone();
    for sc in &mut doctored.scenarios {
        if let Some(&ips) = sc.metrics.get("ips_per_node") {
            sc.metrics.insert("ips_per_node".into(), ips * 1.5);
        }
    }
    let cmp = compare(&doctored, &b);
    assert!(!cmp.passed(), "a 33% throughput drop must fail the gate");
    // Only the training rows carry ips_per_node; the serving rows are
    // untouched by the doctoring and must not fail.
    assert_eq!(cmp.regressions().len(), 8);
    fs::remove_dir_all(&dir).unwrap();
}
