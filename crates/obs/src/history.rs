//! Append-only run-history store and cross-run trend detection.
//!
//! Perfgate judges a run against one pinned baseline; the observatory
//! judges it against *history*. [`HistoryStore`] persists one
//! [`RunRecord`] per `(run, scenario)` into append-only JSONL segments
//! under a checksummed manifest index, so ingestion never rewrites old
//! evidence and a truncated or edited segment is detected on load, not
//! silently averaged into a trend.
//!
//! On top of the store, [`cusum_change_point`] runs a two-sided CUSUM over
//! a metric's multi-run series (slack and decision threshold scale with
//! the first sample, so one detector fits seconds and ratios alike). It
//! is a pure function of the series: same history, same verdict.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::checksum::fnv1a64;
use crate::json::{self, Json};

/// Schema identifier of the manifest document.
pub const HISTORY_MANIFEST_KIND: &str = "picasso.history_manifest";
/// Schema version of the manifest and record documents.
pub const HISTORY_SCHEMA_VERSION: u64 = 1;
/// Records per segment before the store rolls a new one.
pub const SEGMENT_MAX_RECORDS: usize = 256;

/// Why a store operation failed.
#[derive(Debug)]
pub enum HistoryError {
    /// The filesystem said no.
    Io(String),
    /// A manifest or segment failed validation (truncation, checksum
    /// mismatch, malformed JSON).
    Corrupt(String),
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::Io(m) => write!(f, "history io error: {m}"),
            HistoryError::Corrupt(m) => write!(f, "history store corrupt: {m}"),
        }
    }
}

impl std::error::Error for HistoryError {}

fn io_err<E: fmt::Display>(what: &str, e: E) -> HistoryError {
    HistoryError::Io(format!("{what}: {e}"))
}

/// One scenario's metrics from one ingested run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Monotone ingestion sequence; every record of one ingested run
    /// shares it, so it orders runs, not lines.
    pub seq: u64,
    /// Caller-chosen run identifier (commit, CI run id, "local").
    pub run_id: String,
    /// Scenario the metrics belong to.
    pub scenario: String,
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
}

impl RunRecord {
    fn canonical(&self) -> Json {
        Json::obj([
            ("seq", Json::UInt(self.seq)),
            ("run_id", Json::str(&self.run_id)),
            ("scenario", Json::str(&self.scenario)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    fn to_line(&self) -> String {
        let canonical = self.canonical();
        let fnv = fnv1a64(canonical.to_json().as_bytes());
        let Json::Obj(mut pairs) = canonical else {
            unreachable!("canonical is an object");
        };
        pairs.push(("fnv".to_string(), Json::str(format!("{fnv:016x}"))));
        Json::Obj(pairs).to_json()
    }

    fn from_line(line: &str) -> Result<RunRecord, HistoryError> {
        let doc = json::parse(line)
            .map_err(|e| HistoryError::Corrupt(format!("bad record line: {e}")))?;
        let str_field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| HistoryError::Corrupt(format!("record missing {k:?}")))
        };
        let mut metrics = BTreeMap::new();
        let metrics_doc = doc
            .get("metrics")
            .ok_or_else(|| HistoryError::Corrupt("record missing metrics".into()))?;
        if let Json::Obj(pairs) = metrics_doc {
            for (k, v) in pairs {
                let v = v
                    .as_f64()
                    .ok_or_else(|| HistoryError::Corrupt(format!("metric {k:?} not a number")))?;
                metrics.insert(k.clone(), v);
            }
        } else {
            return Err(HistoryError::Corrupt("record metrics not an object".into()));
        }
        let record = RunRecord {
            seq: doc
                .get("seq")
                .and_then(Json::as_u64)
                .ok_or_else(|| HistoryError::Corrupt("record missing seq".into()))?,
            run_id: str_field("run_id")?,
            scenario: str_field("scenario")?,
            metrics,
        };
        let want = str_field("fnv")?;
        let want = u64::from_str_radix(&want, 16)
            .map_err(|_| HistoryError::Corrupt("malformed record fnv".into()))?;
        let got = fnv1a64(record.canonical().to_json().as_bytes());
        if got != want {
            return Err(HistoryError::Corrupt(format!(
                "record fnv mismatch (line says {want:016x}, content hashes to {got:016x})"
            )));
        }
        Ok(record)
    }
}

#[derive(Debug, Clone)]
struct Segment {
    file: String,
    records: usize,
    fnv: u64,
}

/// The on-disk store: `manifest.json` plus `seg-<n>.jsonl` segments.
#[derive(Debug)]
pub struct HistoryStore {
    dir: PathBuf,
    next_seq: u64,
    segments: Vec<Segment>,
}

impl HistoryStore {
    /// Opens (creating if absent) the store under `dir` and reads its
    /// manifest. Segment contents are verified by [`HistoryStore::load`].
    pub fn open(dir: &Path) -> Result<HistoryStore, HistoryError> {
        fs::create_dir_all(dir).map_err(|e| io_err("create history dir", e))?;
        let manifest = dir.join("manifest.json");
        if !manifest.exists() {
            return Ok(HistoryStore {
                dir: dir.to_path_buf(),
                next_seq: 0,
                segments: Vec::new(),
            });
        }
        let text = fs::read_to_string(&manifest).map_err(|e| io_err("read manifest", e))?;
        let doc =
            json::parse(&text).map_err(|e| HistoryError::Corrupt(format!("bad manifest: {e}")))?;
        let kind = doc.get("kind").and_then(Json::as_str).unwrap_or_default();
        if kind != HISTORY_MANIFEST_KIND {
            return Err(HistoryError::Corrupt(format!(
                "not a history manifest (kind {kind:?})"
            )));
        }
        let version = doc
            .get("schema_version")
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if version != HISTORY_SCHEMA_VERSION {
            return Err(HistoryError::Corrupt(format!(
                "unsupported history schema {version}"
            )));
        }
        let next_seq = doc
            .get("next_seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| HistoryError::Corrupt("manifest missing next_seq".into()))?;
        let mut segments = Vec::new();
        for seg in doc
            .get("segments")
            .and_then(Json::items)
            .ok_or_else(|| HistoryError::Corrupt("manifest missing segments".into()))?
        {
            let file = seg
                .get("file")
                .and_then(Json::as_str)
                .ok_or_else(|| HistoryError::Corrupt("segment missing file".into()))?;
            let records = seg
                .get("records")
                .and_then(Json::as_u64)
                .ok_or_else(|| HistoryError::Corrupt("segment missing records".into()))?;
            let fnv = seg
                .get("fnv")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| HistoryError::Corrupt("segment missing fnv".into()))?;
            segments.push(Segment {
                file: file.to_string(),
                records: records as usize,
                fnv,
            });
        }
        Ok(HistoryStore {
            dir: dir.to_path_buf(),
            next_seq,
            segments,
        })
    }

    /// The sequence number the next ingested run will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of runs ingested so far.
    pub fn runs(&self) -> u64 {
        self.next_seq
    }

    /// Appends one run's scenario metrics. Every record shares one new
    /// sequence number; returns it.
    pub fn ingest(
        &mut self,
        run_id: &str,
        scenarios: &[(String, BTreeMap<String, f64>)],
    ) -> Result<u64, HistoryError> {
        let seq = self.next_seq;
        for (scenario, metrics) in scenarios {
            let record = RunRecord {
                seq,
                run_id: run_id.to_string(),
                scenario: scenario.clone(),
                metrics: metrics.clone(),
            };
            self.append_record(&record)?;
        }
        self.next_seq = seq + 1;
        self.write_manifest()?;
        Ok(seq)
    }

    fn append_record(&mut self, record: &RunRecord) -> Result<(), HistoryError> {
        let needs_new = match self.segments.last() {
            Some(seg) => seg.records >= SEGMENT_MAX_RECORDS,
            None => true,
        };
        if needs_new {
            self.segments.push(Segment {
                file: format!("seg-{}.jsonl", self.segments.len()),
                records: 0,
                fnv: 0,
            });
        }
        // Not empty: a missing or full last segment was just replaced.
        let last = self.segments.len() - 1;
        let seg = &mut self.segments[last];
        let path = self.dir.join(&seg.file);
        let mut fh = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open segment", e))?;
        let mut line = record.to_line();
        line.push('\n');
        fh.write_all(line.as_bytes())
            .map_err(|e| io_err("append record", e))?;
        drop(fh);
        seg.records += 1;
        seg.fnv = fnv1a64(&fs::read(&path).map_err(|e| io_err("re-read segment", e))?);
        Ok(())
    }

    fn write_manifest(&self) -> Result<(), HistoryError> {
        let doc = Json::obj([
            ("schema_version", Json::UInt(HISTORY_SCHEMA_VERSION)),
            ("kind", Json::str(HISTORY_MANIFEST_KIND)),
            ("next_seq", Json::UInt(self.next_seq)),
            (
                "segments",
                Json::Arr(
                    self.segments
                        .iter()
                        .map(|s| {
                            Json::obj([
                                ("file", Json::str(&s.file)),
                                ("records", Json::UInt(s.records as u64)),
                                ("fnv", Json::str(format!("{:016x}", s.fnv))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let tmp = self.dir.join("manifest.json.tmp");
        fs::write(&tmp, doc.to_json()).map_err(|e| io_err("write manifest", e))?;
        fs::rename(&tmp, self.dir.join("manifest.json"))
            .map_err(|e| io_err("commit manifest", e))?;
        Ok(())
    }

    /// Reads and fully verifies every segment: file checksum, per-record
    /// checksum, and record count must all match the manifest. Returns
    /// records in ingestion order.
    pub fn load(&self) -> Result<Vec<RunRecord>, HistoryError> {
        let mut records = Vec::new();
        for seg in &self.segments {
            let path = self.dir.join(&seg.file);
            let bytes = fs::read(&path).map_err(|e| {
                HistoryError::Corrupt(format!("segment {} unreadable: {e}", seg.file))
            })?;
            let got = fnv1a64(&bytes);
            if got != seg.fnv {
                return Err(HistoryError::Corrupt(format!(
                    "segment {} checksum mismatch (manifest says {:016x}, file hashes to \
                     {got:016x}) — truncated or edited",
                    seg.file, seg.fnv
                )));
            }
            let text = String::from_utf8(bytes)
                .map_err(|_| HistoryError::Corrupt(format!("segment {} not utf-8", seg.file)))?;
            let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
            if lines.len() != seg.records {
                return Err(HistoryError::Corrupt(format!(
                    "segment {} holds {} records, manifest says {}",
                    seg.file,
                    lines.len(),
                    seg.records
                )));
            }
            for line in lines {
                records.push(RunRecord::from_line(line)?);
            }
        }
        Ok(records)
    }
}

/// The multi-run series of one scenario/metric pair, ordered by run
/// sequence: `(seq, value)` per run that reported the metric.
pub fn series(records: &[RunRecord], scenario: &str, metric: &str) -> Vec<(u64, f64)> {
    let mut out: Vec<(u64, f64)> = records
        .iter()
        .filter(|r| r.scenario == scenario)
        .filter_map(|r| r.metrics.get(metric).map(|v| (r.seq, *v)))
        .collect();
    out.sort_by_key(|(seq, _)| *seq);
    out
}

/// Every `(scenario, metric)` pair present in the records, sorted.
pub fn keys(records: &[RunRecord]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = records
        .iter()
        .flat_map(|r| {
            r.metrics
                .keys()
                .map(|m| (r.scenario.clone(), m.clone()))
                .collect::<Vec<_>>()
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Which way a detected shift moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shift {
    /// The metric stepped up.
    Up,
    /// The metric stepped down.
    Down,
}

impl fmt::Display for Shift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Shift::Up => "up",
            Shift::Down => "down",
        })
    }
}

/// A detected mean shift in a multi-run series.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangePoint {
    /// Index into the series where the shifted regime starts.
    pub at: usize,
    /// Direction of the shift.
    pub direction: Shift,
    /// Mean of the samples before the shift.
    pub mean_before: f64,
    /// Mean of the samples from the shift onward.
    pub mean_after: f64,
    /// `(mean_after - mean_before) / |mean_before|`.
    pub rel_change: f64,
    /// The CUSUM statistic at detection, in baseline-mean units.
    pub stat: f64,
}

/// CUSUM slack per sample, as a fraction of the baseline (the series'
/// first sample, so one band fits seconds, ratios, and throughput alike);
/// deviations below it never accumulate.
const CUSUM_K_REL: f64 = 0.05;
/// CUSUM decision threshold, as a fraction of the baseline. A 20% step
/// contributes 0.20 - 0.05 = 0.15 baseline units per sample, crossing it
/// after two shifted samples — inside the "three ingested runs" budget —
/// while deterministic flat series accumulate exactly zero.
const CUSUM_H_REL: f64 = 0.25;

/// Two-sided CUSUM over a series of values against its first sample;
/// returns the first detected mean shift, or `None` when the series never
/// leaves its baseline band.
pub fn cusum_change_point(values: &[f64]) -> Option<ChangePoint> {
    if values.len() < 2 {
        return None;
    }
    let reference = values[0];
    let scale = reference.abs().max(f64::MIN_POSITIVE);
    let mut s_up = 0.0_f64;
    let mut s_down = 0.0_f64;
    // Onset of the current excursion on each side: the first index that
    // contributed to a nonzero statistic since its last reset.
    let mut up_onset = 0;
    let mut down_onset = 0;
    for (i, &v) in values.iter().enumerate() {
        let dev = (v - reference) / scale;
        if s_up <= 0.0 {
            up_onset = i;
        }
        s_up = (s_up + dev - CUSUM_K_REL).max(0.0);
        if s_down <= 0.0 {
            down_onset = i;
        }
        s_down = (s_down - dev - CUSUM_K_REL).max(0.0);
        let (fired, onset, direction, stat) = if s_up > CUSUM_H_REL {
            (true, up_onset, Shift::Up, s_up)
        } else if s_down > CUSUM_H_REL {
            (true, down_onset, Shift::Down, s_down)
        } else {
            (false, 0, Shift::Up, 0.0)
        };
        if fired {
            let at = onset.max(1);
            let mean_before = values[..at].iter().sum::<f64>() / at as f64;
            let after = &values[at..];
            let mean_after = after.iter().sum::<f64>() / after.len() as f64;
            let rel_change = (mean_after - mean_before) / mean_before.abs().max(f64::MIN_POSITIVE);
            return Some(ChangePoint {
                at,
                direction,
                mean_before,
                mean_after,
                rel_change,
                stat,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("picasso-history-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn metrics(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn ingest_reload_round_trip() {
        let dir = tmp_dir("roundtrip");
        let mut store = HistoryStore::open(&dir).expect("open");
        let seq0 = store
            .ingest(
                "run-a",
                &[
                    ("wdl_base".to_string(), metrics(&[("secs", 1.0)])),
                    ("wdl_pack".to_string(), metrics(&[("secs", 0.8)])),
                ],
            )
            .expect("ingest");
        let seq1 = store
            .ingest(
                "run-b",
                &[("wdl_base".to_string(), metrics(&[("secs", 1.1)]))],
            )
            .expect("ingest");
        assert_eq!((seq0, seq1), (0, 1));

        let reopened = HistoryStore::open(&dir).expect("reopen");
        assert_eq!(reopened.next_seq(), 2);
        let records = reopened.load().expect("load verifies");
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].run_id, "run-a");
        assert_eq!(
            series(&records, "wdl_base", "secs"),
            vec![(0, 1.0), (1, 1.1)]
        );
        assert_eq!(
            keys(&records),
            vec![
                ("wdl_base".to_string(), "secs".to_string()),
                ("wdl_pack".to_string(), "secs".to_string()),
            ]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_segment_is_rejected() {
        let dir = tmp_dir("truncate");
        let mut store = HistoryStore::open(&dir).expect("open");
        for i in 0..3 {
            store
                .ingest(
                    &format!("run-{i}"),
                    &[("s".to_string(), metrics(&[("m", i as f64)]))],
                )
                .expect("ingest");
        }
        // Truncate the segment behind the manifest's back.
        let seg = dir.join("seg-0.jsonl");
        let text = fs::read_to_string(&seg).unwrap();
        let keep: Vec<&str> = text.lines().take(2).collect();
        fs::write(&seg, format!("{}\n", keep.join("\n"))).unwrap();

        let store = HistoryStore::open(&dir).expect("manifest still opens");
        let err = store.load().expect_err("truncation detected");
        assert!(matches!(err, HistoryError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn edited_record_is_rejected_even_with_fixed_file_checksum() {
        let line = RunRecord {
            seq: 3,
            run_id: "r".into(),
            scenario: "s".into(),
            metrics: metrics(&[("m", 2.0)]),
        }
        .to_line();
        let edited = line.replace("2.0", "1.0");
        assert!(RunRecord::from_line(&line).is_ok());
        let err = RunRecord::from_line(&edited).expect_err("record fnv catches edits");
        assert!(err.to_string().contains("fnv mismatch"), "{err}");
    }

    #[test]
    fn segments_roll_at_the_record_cap() {
        let dir = tmp_dir("roll");
        let mut store = HistoryStore::open(&dir).expect("open");
        let one = |i: usize| vec![("s".to_string(), metrics(&[("m", i as f64)]))];
        for i in 0..(SEGMENT_MAX_RECORDS + 2) {
            store.ingest(&format!("r{i}"), &one(i)).expect("ingest");
        }
        assert!(dir.join("seg-1.jsonl").exists(), "second segment rolled");
        let records = HistoryStore::open(&dir).unwrap().load().expect("verifies");
        assert_eq!(records.len(), SEGMENT_MAX_RECORDS + 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cusum_flags_a_twenty_percent_step_within_two_shifted_samples() {
        // Clean history, then a 20% regression lands.
        let series = [1.0, 1.0, 1.0, 1.2, 1.2];
        let cp = cusum_change_point(&series).expect("fires");
        assert_eq!(cp.direction, Shift::Up);
        assert_eq!(cp.at, 3, "shifted regime starts at the step");
        assert!((cp.rel_change - 0.2).abs() < 1e-9, "{:?}", cp);
        // Detection latency: fires on the second shifted sample.
        assert!(cusum_change_point(&series[..4]).is_none());
        assert!(cusum_change_point(&series[..5]).is_some());
        // The same step at another level and with a longer tail.
        let series = [0.50, 0.50, 0.50, 0.60, 0.60, 0.60];
        let cp = cusum_change_point(&series).expect("fires");
        assert_eq!(cp.direction, Shift::Up);
        assert_eq!(cp.at, 3);
    }

    #[test]
    fn cusum_is_silent_on_flat_and_mildly_noisy_series() {
        assert!(cusum_change_point(&[1.0; 8]).is_none());
        assert!(cusum_change_point(&[1.0]).is_none());
        let jitter = [1.0, 1.02, 0.99, 1.01, 1.0, 0.98, 1.03];
        assert!(cusum_change_point(&jitter).is_none());
        let jitter = [0.50, 0.505, 0.495, 0.50, 0.502, 0.498];
        assert!(cusum_change_point(&jitter).is_none());
    }

    #[test]
    fn cusum_detects_downward_steps_too() {
        let series = [1.0, 1.0, 0.7, 0.7];
        let cp = cusum_change_point(&series).expect("fires");
        assert_eq!(cp.direction, Shift::Down);
        assert!(cp.rel_change < -0.25);
        let series = [0.50, 0.50, 0.50, 0.40, 0.40, 0.40];
        let cp = cusum_change_point(&series).expect("fires");
        assert_eq!(cp.direction, Shift::Down);
        assert!((cp.rel_change + 0.2).abs() < 1e-9, "{cp:?}");
    }
}
