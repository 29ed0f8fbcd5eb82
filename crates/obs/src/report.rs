//! Versioned JSON run reports.
//!
//! A [`RunReport`] is the machine-readable artifact of one reproduction run:
//! an envelope (schema version, experiment, scale) around arbitrary payload
//! documents (e.g. `TrainingReport::to_json` output per framework) and an
//! optional metrics dump. The schema is pinned by [`RunReport::validate`],
//! which both the exporter tests and downstream consumers use; bump
//! [`RUN_REPORT_SCHEMA_VERSION`] whenever a required field changes shape.

use crate::json::{self, Json};
use crate::metrics::{MetricsSnapshot, TimeSeries};

/// Version of the envelope layout produced by [`RunReport::to_json`].
pub const RUN_REPORT_SCHEMA_VERSION: u64 = 1;

/// Identifies run-report documents among other JSON artifacts.
pub const RUN_REPORT_KIND: &str = "picasso.run_report";

/// One run's machine-readable report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Experiment name, e.g. `fig11`.
    pub experiment: String,
    /// Scale label, e.g. `quick` or `full`.
    pub scale: String,
    /// Payload documents, one per framework/model measured.
    pub reports: Vec<Json>,
    /// Optional metrics dump for the run.
    pub metrics: Option<Json>,
}

impl RunReport {
    /// An empty report for an experiment.
    pub fn new(experiment: impl Into<String>, scale: impl Into<String>) -> RunReport {
        RunReport {
            experiment: experiment.into(),
            scale: scale.into(),
            reports: Vec::new(),
            metrics: None,
        }
    }

    /// Appends one payload document.
    pub fn push(&mut self, payload: Json) {
        self.reports.push(payload);
    }

    /// Attaches a metrics snapshot dump.
    pub fn set_metrics(&mut self, snapshot: &MetricsSnapshot) {
        self.metrics = Some(metrics_json(snapshot));
    }

    /// Serializes the versioned envelope.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            (
                "schema_version".to_string(),
                Json::UInt(RUN_REPORT_SCHEMA_VERSION),
            ),
            ("kind".to_string(), Json::str(RUN_REPORT_KIND)),
            ("experiment".to_string(), Json::str(&self.experiment)),
            ("scale".to_string(), Json::str(&self.scale)),
            ("reports".to_string(), Json::Arr(self.reports.clone())),
        ];
        if let Some(metrics) = &self.metrics {
            fields.push(("metrics".to_string(), metrics.clone()));
        }
        Json::Obj(fields).to_json()
    }

    /// Checks that `text` is a valid run-report document of the current
    /// schema version. Returns the parsed document on success.
    pub fn validate(text: &str) -> Result<Json, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        RunReport::validate_json(&doc)?;
        Ok(doc)
    }

    /// [`RunReport::validate`] over an already-parsed document.
    pub fn validate_json(doc: &Json) -> Result<(), String> {
        check_schema_version(doc, RUN_REPORT_SCHEMA_VERSION)?;
        match doc.get("kind").and_then(Json::as_str) {
            Some(RUN_REPORT_KIND) => {}
            other => return Err(format!("bad kind: {other:?}")),
        }
        for key in ["experiment", "scale"] {
            if doc.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("missing string field '{key}'"));
            }
        }
        let reports = doc
            .get("reports")
            .and_then(Json::items)
            .ok_or("missing reports array")?;
        for (i, payload) in reports.iter().enumerate() {
            if !matches!(payload, Json::Obj(_)) {
                return Err(format!("reports[{i}] is not an object"));
            }
        }
        Ok(())
    }
}

/// Rejects a document whose `schema_version` is missing or differs from
/// the one version its reader supports.
pub fn check_schema_version(doc: &Json, supported: u64) -> Result<(), String> {
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != supported {
        return Err(format!("schema_version {version} != supported {supported}"));
    }
    Ok(())
}

/// Serializes a metrics snapshot as a JSON object with one section per
/// metric family.
pub fn metrics_json(snapshot: &MetricsSnapshot) -> Json {
    fn labels_json(labels: &[(String, String)]) -> Json {
        Json::Obj(
            labels
                .iter()
                .map(|(k, v)| (k.clone(), Json::str(v.as_str())))
                .collect(),
        )
    }
    fn series_json(series: &TimeSeries) -> Json {
        Json::Arr(
            series
                .samples
                .iter()
                .map(|&(t, v)| Json::Arr(vec![Json::UInt(t), Json::Num(v)]))
                .collect(),
        )
    }
    Json::obj([
        (
            "counters",
            Json::Arr(
                snapshot
                    .counters
                    .iter()
                    .map(|((name, labels), value)| {
                        Json::obj([
                            ("name", Json::str(name.as_str())),
                            ("labels", labels_json(labels)),
                            ("value", Json::UInt(*value)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "gauges",
            Json::Arr(
                snapshot
                    .gauges
                    .iter()
                    .map(|((name, labels), value)| {
                        Json::obj([
                            ("name", Json::str(name.as_str())),
                            ("labels", labels_json(labels)),
                            ("value", Json::Num(*value)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Arr(
                snapshot
                    .histograms
                    .iter()
                    .map(|((name, labels), h)| {
                        Json::obj([
                            ("name", Json::str(name.as_str())),
                            ("labels", labels_json(labels)),
                            (
                                "bounds",
                                Json::Arr(h.bounds.iter().map(|&b| Json::Num(b)).collect()),
                            ),
                            (
                                "counts",
                                Json::Arr(h.counts.iter().map(|&c| Json::UInt(c)).collect()),
                            ),
                            ("sum", Json::Num(h.sum)),
                            ("count", Json::UInt(h.count)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "series",
            Json::Arr(
                snapshot
                    .series
                    .iter()
                    .map(|((name, labels), series)| {
                        Json::obj([
                            ("name", Json::str(name.as_str())),
                            ("labels", labels_json(labels)),
                            ("samples", series_json(series)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn envelope_round_trips_and_validates() {
        let mut report = RunReport::new("fig11", "quick");
        report.push(Json::obj([("framework", Json::str("Picasso"))]));
        let reg = MetricsRegistry::new();
        reg.counter_add("hits", &[], 3);
        reg.record_sample("busy", &[], 7, 0.5);
        report.set_metrics(&reg.snapshot());

        let text = report.to_json();
        let doc = RunReport::validate(&text).expect("valid document");
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("fig11"));
        let metrics = doc.get("metrics").expect("metrics present");
        let counters = metrics.get("counters").and_then(Json::items).unwrap();
        assert_eq!(counters[0].get("value").and_then(Json::as_u64), Some(3));
        let series = metrics.get("series").and_then(Json::items).unwrap();
        let samples = series[0].get("samples").and_then(Json::items).unwrap();
        assert_eq!(samples[0].items().unwrap()[0].as_u64(), Some(7));
    }

    #[test]
    fn validate_pins_the_schema() {
        assert!(RunReport::validate("not json").is_err());
        assert!(RunReport::validate("{}").is_err());
        let wrong_version = r#"{"schema_version":999,"kind":"picasso.run_report","experiment":"e","scale":"s","reports":[]}"#;
        assert!(RunReport::validate(wrong_version)
            .unwrap_err()
            .contains("schema_version"));
        let wrong_kind =
            r#"{"schema_version":1,"kind":"other","experiment":"e","scale":"s","reports":[]}"#;
        assert!(RunReport::validate(wrong_kind)
            .unwrap_err()
            .contains("kind"));
        let bad_payload = r#"{"schema_version":1,"kind":"picasso.run_report","experiment":"e","scale":"s","reports":[1]}"#;
        assert!(RunReport::validate(bad_payload)
            .unwrap_err()
            .contains("reports[0]"));
        let minimal = r#"{"schema_version":1,"kind":"picasso.run_report","experiment":"e","scale":"s","reports":[]}"#;
        assert!(RunReport::validate(minimal).is_ok());
    }
}
