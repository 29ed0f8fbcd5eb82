//! Aggregated lint results with JSON and text rendering.

use crate::diag::escape_control;
use crate::{Diagnostic, Severity};
use picasso_obs::json::Json;

/// Schema version stamped into the JSON form.
pub const LINT_REPORT_SCHEMA_VERSION: u32 = 1;

/// A collection of diagnostics with severity accounting and renderers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// A report over `diagnostics`, sorted worst-first (then by rule id)
    /// so rendering is deterministic regardless of emission order.
    pub fn new(mut diagnostics: Vec<Diagnostic>) -> LintReport {
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.rule.cmp(&b.rule))
                .then_with(|| a.message.cmp(&b.message))
        });
        LintReport { diagnostics }
    }

    fn at(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }

    /// How many diagnostics sit at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.at(severity).count()
    }

    /// True when there are no error-severity diagnostics. (Warnings and
    /// infos do not make a report dirty.)
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Error) == 0
    }

    /// The structured JSON form (`picasso.lint_report`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "schema_version",
                Json::UInt(LINT_REPORT_SCHEMA_VERSION as u64),
            ),
            ("kind", Json::str("picasso.lint_report")),
            (
                "counts",
                Json::obj([
                    ("error", Json::UInt(self.count(Severity::Error) as u64)),
                    ("warn", Json::UInt(self.count(Severity::Warn) as u64)),
                    ("info", Json::UInt(self.count(Severity::Info) as u64)),
                ]),
            ),
            (
                "diagnostics",
                Json::Arr(self.diagnostics.iter().map(Diagnostic::to_json).collect()),
            ),
        ])
    }

    /// Plain-text rendering: one line per diagnostic plus a summary line.
    /// Control characters are escaped (see [`Diagnostic`]'s `Display`).
    pub fn render_text(&self, title: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("lint: {}\n", escape_control(title)));
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        out.push_str(&format!(
            "  {} error(s), {} warning(s), {} info(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warn),
            self.count(Severity::Info),
        ));
        out
    }
}

impl std::fmt::Display for LintReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render_text("report"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Span;
    use picasso_obs::json;

    fn sample() -> LintReport {
        LintReport::new(vec![
            Diagnostic::new(
                "spec.unused-field",
                Severity::Warn,
                Span::Chain(0),
                "field 3 is consumed by no module",
            ),
            Diagnostic::new(
                "spec.duplicate-field",
                Severity::Error,
                Span::Chain(1),
                "field 7 already produced by chain 0",
            )
            .with_hint("assign field 7 to exactly one chain"),
            Diagnostic::new(
                "plan.micro-uneven",
                Severity::Info,
                Span::Pass("d_interleaving".into()),
                "1000 instances over 3 micro-batches leaves a remainder",
            ),
        ])
    }

    #[test]
    fn sorts_worst_first_and_counts_by_severity() {
        let r = sample();
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warn), 1);
        assert_eq!(r.count(Severity::Info), 1);
        assert!(!r.is_clean());
        assert!(LintReport::new(vec![]).is_clean());
    }

    #[test]
    fn json_round_trips_exactly() {
        let r = sample();
        let text = r.to_json().to_json();
        let v = json::parse(&text).unwrap();
        let diagnostics = v.get("diagnostics").and_then(Json::items).unwrap();
        assert_eq!(diagnostics.len(), 3);
        assert_eq!(
            diagnostics[0].get("rule").and_then(Json::as_str),
            Some("spec.duplicate-field")
        );
        let span = diagnostics[0].get("span").unwrap();
        assert_eq!(span.get("kind").and_then(Json::as_str), Some("chain"));
        assert_eq!(span.get("index").and_then(Json::as_u64), Some(1));
        let span = diagnostics[2].get("span").unwrap();
        assert_eq!(span.get("kind").and_then(Json::as_str), Some("pass"));
        assert_eq!(
            span.get("name").and_then(Json::as_str),
            Some("d_interleaving")
        );
        assert_eq!(
            v.get("counts").unwrap().get("error").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(v.get("kind").unwrap().as_str(), Some("picasso.lint_report"));
    }

    #[test]
    fn text_rendering_escapes_control_characters() {
        let r = LintReport::new(vec![Diagnostic::new(
            "spec.duplicate-field",
            Severity::Error,
            Span::Spec,
            "bad\u{1b}[31mname\r\n",
        )]);
        let text = r.render_text("scenario\twith\ttabs");
        assert!(!text.contains('\u{1b}'), "ANSI escape leaked: {text:?}");
        assert!(!text.contains('\r'));
        assert!(text.contains("bad\\u{1b}[31mname\\u{0d}\\u{0a}"));
        assert!(text.contains("scenario\\u{09}with\\u{09}tabs"));
        assert!(text.ends_with("1 error(s), 0 warning(s), 0 info(s)\n"));
    }

    #[test]
    fn json_escapes_control_characters_in_messages() {
        let r = LintReport::new(vec![Diagnostic::new(
            "spec.duplicate-field",
            Severity::Error,
            Span::Spec,
            "line\nbreak",
        )]);
        let text = r.to_json().to_json();
        assert!(!text.contains('\n'), "raw newline in JSON output: {text:?}");
        let v = json::parse(&text).unwrap();
        let message = v.get("diagnostics").and_then(Json::items).unwrap()[0].get("message");
        assert_eq!(message.and_then(Json::as_str), Some("line\nbreak"));
    }
}
