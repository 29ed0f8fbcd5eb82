//! Property tests for the run-history store and change-point detection:
//! append/reload round-trips, truncated-segment rejection, and CUSUM
//! firing on seeded step regressions while staying silent on flat series.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use picasso_obs::history::{cusum_change_point, series, HistoryError, HistoryStore, Shift};
use proptest::prelude::*;

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "picasso-history-prop-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn metrics(value: f64) -> BTreeMap<String, f64> {
    BTreeMap::from([("secs_per_iteration".to_string(), value)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever is ingested comes back verbatim after reopen + verified
    /// load, in ingestion order with per-run sequence numbers.
    #[test]
    fn append_reload_round_trip(
        values in proptest::collection::vec(0.001f64..1000.0, 1..20),
    ) {
        let dir = tmp_dir("roundtrip");
        let mut store = HistoryStore::open(&dir).unwrap();
        for (i, &v) in values.iter().enumerate() {
            let seq = store
                .ingest(&format!("run-{i}"), &[("wdl_base".to_string(), metrics(v))])
                .unwrap();
            prop_assert_eq!(seq, i as u64);
        }
        let reopened = HistoryStore::open(&dir).unwrap();
        prop_assert_eq!(reopened.next_seq(), values.len() as u64);
        let records = reopened.load().expect("verified load");
        prop_assert_eq!(records.len(), values.len());
        let got = series(&records, "wdl_base", "secs_per_iteration");
        let want: Vec<(u64, f64)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64, v))
            .collect();
        prop_assert_eq!(got, want);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Chopping any suffix off a segment (even one byte) is detected as
    /// corruption on load.
    #[test]
    fn truncated_segments_are_rejected(
        values in proptest::collection::vec(0.001f64..1000.0, 2..10),
        cut in 1usize..64,
    ) {
        let dir = tmp_dir("truncate");
        let mut store = HistoryStore::open(&dir).unwrap();
        for (i, &v) in values.iter().enumerate() {
            store
                .ingest(&format!("run-{i}"), &[("s".to_string(), metrics(v))])
                .unwrap();
        }
        let seg = dir.join("seg-0.jsonl");
        let bytes = fs::read(&seg).unwrap();
        let keep = bytes.len().saturating_sub(cut.min(bytes.len() - 1));
        fs::write(&seg, &bytes[..keep]).unwrap();

        let store = HistoryStore::open(&dir).unwrap();
        let err = store.load().expect_err("truncation must not load");
        prop_assert!(matches!(err, HistoryError::Corrupt(_)));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A seeded step regression of >= 20% fires within two shifted samples
    /// (so within three ingested runs of the step landing), upward for a
    /// lower-is-better metric.
    #[test]
    fn change_point_fires_on_seeded_step(
        base in 0.01f64..100.0,
        clean_runs in 2usize..8,
        step_rel in 0.2f64..0.8,
    ) {
        let mut series: Vec<f64> = vec![base; clean_runs];
        let shifted = base * (1.0 + step_rel);
        series.push(shifted);
        series.push(shifted);
        series.push(shifted);
        let cp = cusum_change_point(&series).expect("step must be flagged");
        prop_assert_eq!(cp.direction, Shift::Up);
        prop_assert_eq!(cp.at, clean_runs, "regime starts at the step");
        prop_assert!((cp.rel_change - step_rel).abs() < 1e-6);
        // Detection latency: at most two shifted samples were needed.
        let within_two = cusum_change_point(&series[..clean_runs + 2]);
        prop_assert!(within_two.is_some(), "fires within two shifted runs");
    }

    /// Flat series never fire, whatever their level or length: zero false
    /// positives on clean history.
    #[test]
    fn change_point_is_silent_on_flat_series(
        level in 0.001f64..1000.0,
        runs in 1usize..50,
    ) {
        let series = vec![level; runs];
        prop_assert!(cusum_change_point(&series).is_none());
    }

    /// Jitter inside the slack band never fires either.
    #[test]
    fn change_point_tolerates_sub_slack_jitter(
        level in 0.01f64..100.0,
        signs in proptest::collection::vec(proptest::bool::ANY, 3..30),
    ) {
        // +/- 2% jitter: under the 5% slack, so nothing accumulates.
        let series: Vec<f64> = signs
            .iter()
            .map(|&up| if up { level * 1.02 } else { level * 0.98 })
            .collect();
        prop_assert!(cusum_change_point(&series).is_none());
    }
}
