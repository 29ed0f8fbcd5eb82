//! The structured diagnostic model shared by every analysis surface.

use picasso_obs::json::Json;
use serde::{Deserialize, Serialize};

/// How bad a finding is.
///
/// `Error` diagnostics abort a run before scheduling (`TrainError::Lint`,
/// repro exit code 4); `Warn` and `Info` flow into the observability run
/// report but never block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational: worth surfacing, never actionable on its own.
    Info,
    /// Suspicious but survivable; the run proceeds.
    Warn,
    /// A broken invariant; the run must not proceed.
    Error,
}

impl Severity {
    /// Stable lowercase name used in JSON and text rendering.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a diagnostic points at.
///
/// There is no source text in this system, so spans name structural
/// locations instead of byte ranges: a chain or module index inside the
/// spec, a pass in the pipeline, or a stage in the lowered graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Span {
    /// The spec as a whole.
    Spec,
    /// The `i`-th embedding chain of the spec.
    Chain(usize),
    /// The `i`-th interaction module of the spec.
    Module(usize),
    /// A pass in the pipeline, by stable pass name.
    Pass(String),
    /// A stage in the lowered execution graph, by stage label.
    Stage(String),
    /// A run-configuration surface (fault plan / checkpoint policy), by
    /// the offending flag or field name.
    Run(String),
}

impl Span {
    fn to_json(&self) -> Json {
        match self {
            Span::Spec => Json::obj([("kind", Json::str("spec"))]),
            Span::Chain(i) => Json::obj([
                ("kind", Json::str("chain")),
                ("index", Json::UInt(*i as u64)),
            ]),
            Span::Module(i) => Json::obj([
                ("kind", Json::str("module")),
                ("index", Json::UInt(*i as u64)),
            ]),
            Span::Pass(name) => Json::obj([("kind", Json::str("pass")), ("name", Json::str(name))]),
            Span::Stage(label) => {
                Json::obj([("kind", Json::str("stage")), ("name", Json::str(label))])
            }
            Span::Run(field) => Json::obj([("kind", Json::str("run")), ("name", Json::str(field))]),
        }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Span::Spec => write!(f, "spec"),
            Span::Chain(i) => write!(f, "chain#{i}"),
            Span::Module(i) => write!(f, "module#{i}"),
            Span::Pass(name) => write!(f, "pass:{name}"),
            Span::Stage(label) => write!(f, "stage:{label}"),
            Span::Run(field) => write!(f, "run:{field}"),
        }
    }
}

/// One finding: a rule id, a severity, a structural span, a human message,
/// and an optional fix hint.
///
/// Fields are plain strings/enums (no floats) so diagnostics stay `Eq` and
/// can ride inside `TrainError` variants.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable rule id (`surface.rule-name`, e.g. `spec.duplicate-field`);
    /// every id is described in [`crate::rules`].
    pub rule: String,
    /// How bad the finding is.
    pub severity: Severity,
    /// What the finding points at.
    pub span: Span,
    /// Human-readable description of the violation.
    pub message: String,
    /// Suggested fix, empty when there is no mechanical suggestion.
    pub hint: String,
}

impl Diagnostic {
    /// A new diagnostic with no fix hint.
    pub fn new(
        rule: &str,
        severity: Severity,
        span: Span,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            rule: rule.to_string(),
            severity,
            span,
            message: message.into(),
            hint: String::new(),
        }
    }

    /// Attaches a fix hint (builder style).
    pub fn with_hint(mut self, hint: impl Into<String>) -> Diagnostic {
        self.hint = hint.into();
        self
    }

    /// The structured JSON form used by `repro lint --json` and the run report.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("rule", Json::str(&self.rule)),
            ("severity", Json::str(self.severity.name())),
            ("span", self.span.to_json()),
            ("message", Json::str(&self.message)),
            ("hint", Json::str(&self.hint)),
        ])
    }
}

impl std::fmt::Display for Diagnostic {
    /// One text line: `error[spec.duplicate-field] chain#1: message (fix:
    /// hint)`. Control characters in the message/hint are escaped as
    /// `\u{..}` so a hostile spec name cannot corrupt terminal output.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity,
            self.rule,
            self.span,
            escape_control(&self.message)
        )?;
        if !self.hint.is_empty() {
            write!(f, " (fix: {})", escape_control(&self.hint))?;
        }
        Ok(())
    }
}

/// Escapes ASCII control characters as `\u{..}` (and backslash as `\\` so
/// the escaping stays unambiguous), mirroring the JSON escaper in
/// `picasso-obs`.
pub(crate) fn escape_control(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if c == '\\' {
            out.push_str("\\\\");
        } else if (c as u32) < 0x20 || c == '\u{7f}' {
            out.push_str(&format!("\\u{{{:02x}}}", c as u32));
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_info_below_warn_below_error() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn diagnostic_display_includes_rule_span_and_hint() {
        let d = Diagnostic::new(
            "spec.duplicate-field",
            Severity::Error,
            Span::Chain(1),
            "field 7 already produced by chain 0",
        )
        .with_hint("assign field 7 to exactly one chain");
        let line = d.to_string();
        assert!(line.starts_with("error[spec.duplicate-field] chain#1:"));
        assert!(line.contains("(fix: assign field 7"));
    }

    #[test]
    fn display_escapes_control_characters() {
        let d = Diagnostic::new(
            "spec.duplicate-field",
            Severity::Warn,
            Span::Spec,
            "evil\nname\u{7}",
        );
        let line = d.to_string();
        assert!(!line.contains('\n'));
        assert!(!line.contains('\u{7}'));
        assert!(line.contains("evil\\u{0a}name\\u{07}"));
    }

    #[test]
    fn display_escapes_backslash_unambiguously() {
        let d = Diagnostic::new("x", Severity::Info, Span::Spec, "a\\u{0a}b");
        // A literal backslash in the message must not read back as an
        // escaped newline.
        assert!(d.to_string().contains("a\\\\u{0a}b"));
    }
}
