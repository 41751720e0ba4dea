//! The structured diagnostic model and its renderers.
//!
//! Every problem the toolchain can report — frontend errors, IR validation
//! failures, Datalog rule-program verification findings, and IR lint
//! warnings — is expressed as a [`Diagnostic`]: a stable code, a severity,
//! a message, and an optional source span / context. One model, two
//! renderers (human-readable text and line-oriented JSON), so the CLI, the
//! library API and the test suite all agree on what a finding looks like.
//!
//! ## Code index
//!
//! | code | severity | meaning |
//! |------|----------|---------|
//! | E001 | error | program has no entry point |
//! | E002 | error | entry point is not a self-contained static method |
//! | E003 | error | instruction uses a variable of another method |
//! | E004 | error | call-site arity mismatch |
//! | E005 | error | call instruction / invocation-site kind mismatch |
//! | E006 | error | static/instance field accessed with the wrong shape |
//! | E007 | error | lexical or syntax error in a `.jir` source |
//! | E008 | error | name-resolution / lowering error |
//! | E010 | error | Datalog rule: head variable not bound by the body |
//! | E011 | error | Datalog rule: atom arity does not match the relation |
//! | E012 | error | Datalog rule: ill-formed functor binding |
//! | E020 | error | malformed line in a `pta check` source/sink spec |
//! | E021 | error | check spec names a method the program does not define |
//! | E030 | error | CLI usage error (unknown flag, bad value, bad combination) |
//! | E031 | error | CLI I/O error (missing or unreadable input file) |
//! | W001 | warning | method unreachable from the entry points (CHA) |
//! | W002 | warning | local variable used before its first assignment |
//! | W003 | warning | cast can never succeed (no allocation of the type) |
//! | W004 | warning | virtual call has zero dispatch targets |
//! | W005 | warning | field is written but never read |
//! | W006 | warning | allocation result is never used |
//! | W007 | warning | method demoted to context-insensitive by graceful degradation |
//! | W010 | warning | Datalog rule can never fire (empty, underivable body) |
//! | W011 | warning | Datalog relation declared but never used |
//! | W020 | warning | taint: a sink may receive an object tainted by a source |
//! | W021 | warning | escape: an allocation site may escape its allocating thread |
//! | W022 | warning | nullness: a dereference base may be null |
//! | W023 | warning | check findings come from a partial (budget-bounded) result |
//!
//! `W007` is an *analysis-time* diagnostic: `pta analyze --degrade` emits
//! one per demoted method. It is never produced by the static lint passes
//! (a program is not wrong for being expensive), so lint-clean inputs stay
//! lint-clean. The `W02x`/`E02x` block belongs to the `pta check` client
//! suite (`pta_clients::check`): findings are computed from a points-to
//! result, so — like `W007` — they never appear in `pta lint` output.
//! `E030`/`E031` are *driver* diagnostics: the `pta` binary reports flag
//! and input-file problems through them (always exit code 2), so even
//! usage errors are machine-readable.

use std::fmt;

use pta_ir::SrcLoc;
use pta_obs::escape;

/// How bad a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The input is ill-formed; no analysis result is meaningful.
    Error,
    /// The input is suspicious but analyzable.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One finding, in the shape every layer of the toolchain shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`E0xx` for errors, `W0xx` for lint warnings).
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable description of this specific finding.
    pub message: String,
    /// Source location, when the finding maps to a `.jir` span.
    pub span: Option<SrcLoc>,
    /// Enclosing context — usually a qualified method name or a rule label.
    pub context: Option<String>,
}

impl Diagnostic {
    /// Creates an error diagnostic.
    pub fn error(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Error,
            message: message.into(),
            span: None,
            context: None,
        }
    }

    /// Creates a warning diagnostic.
    pub fn warning(code: &'static str, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: Severity::Warning,
            message: message.into(),
            span: None,
            context: None,
        }
    }

    /// Attaches a source span (ignored when `loc` is unknown).
    #[must_use]
    pub fn with_span(mut self, loc: SrcLoc) -> Diagnostic {
        if loc.is_known() {
            self.span = Some(loc);
        }
        self
    }

    /// Attaches a context label (method name, rule label, …).
    #[must_use]
    pub fn with_context(mut self, context: impl Into<String>) -> Diagnostic {
        self.context = Some(context.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        match (&self.span, &self.context) {
            (Some(s), Some(c)) => write!(f, " (at {s}, in {c})"),
            (Some(s), None) => write!(f, " (at {s})"),
            (None, Some(c)) => write!(f, " (in {c})"),
            (None, None) => Ok(()),
        }
    }
}

/// Human-readable description of a diagnostic code, for `--explain`-style
/// help and the README index. Returns `None` for unknown codes.
#[must_use]
pub fn code_description(code: &str) -> Option<&'static str> {
    Some(match code {
        "E001" => "program has no entry point",
        "E002" => "entry point is not a self-contained static method",
        "E003" => "instruction uses a variable belonging to another method",
        "E004" => "call site passes the wrong number of arguments",
        "E005" => "call instruction disagrees with its invocation site's kind",
        "E006" => "static/instance field accessed with the wrong instruction shape",
        "E007" => "lexical or syntax error in a .jir source file",
        "E008" => "name-resolution or lowering error in a .jir source file",
        "E010" => "Datalog rule: head variable not bound by any body atom or functor output",
        "E011" => "Datalog rule: atom term count does not match the relation arity",
        "E012" => "Datalog rule: functor binding is ill-formed",
        "E020" => "malformed line in a pta check source/sink specification",
        "E021" => "check specification names a method the program does not define",
        "E030" => "CLI usage error: unknown flag, bad flag value, or invalid combination",
        "E031" => "CLI I/O error: an input file is missing or unreadable",
        "W001" => "method is unreachable from the entry points (CHA call graph)",
        "W002" => "local variable is used before its first assignment",
        "W003" => "cast can never succeed: no allocation in the program has the target type",
        "W004" => "virtual call has zero dispatch targets in the class hierarchy",
        "W005" => "field is written but never read",
        "W006" => "allocated object is never used",
        "W007" => {
            "method was demoted to the context-insensitive constructor mid-run: its context \
             fan-out crossed the --degrade watermark (emitted by `pta analyze`, not `pta lint`)"
        }
        "W010" => "Datalog rule can never fire: a body relation is empty and underivable",
        "W011" => "Datalog relation is declared but never used by any rule or fact",
        "W020" => {
            "taint: a sink call site may receive an object allocated in a source method \
             without passing through a sanitizer"
        }
        "W021" => {
            "escape: an allocation site may escape its allocating thread (reachable from a \
             static field or an uncaught exception)"
        }
        "W022" => "nullness: the base of a dereference may be null at this site",
        "W023" => {
            "check findings were computed from a partial result (budget exhausted or \
             degraded run): absent findings are not proof of absence"
        }
        _ => return None,
    })
}

/// All diagnostic codes, in index order (for documentation generators).
pub const ALL_CODES: &[&str] = &[
    "E001", "E002", "E003", "E004", "E005", "E006", "E007", "E008", "E010", "E011", "E012", "E020",
    "E021", "E030", "E031", "W001", "W002", "W003", "W004", "W005", "W006", "W007", "W010", "W011",
    "W020", "W021", "W022", "W023",
];

/// Renders diagnostics as human-readable text, one per line, followed by a
/// summary line. The empty set renders as a single "no issues" line.
#[must_use]
pub fn render_text(diags: &[Diagnostic]) -> String {
    if diags.is_empty() {
        return "no issues found\n".to_owned();
    }
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    let errors = diags
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .count();
    let warnings = diags.len() - errors;
    out.push_str(&format!("{errors} error(s), {warnings} warning(s)\n"));
    out
}

/// Renders diagnostics as a JSON array (one object per line). Spans render
/// as `"line"`/`"column"` numbers; absent spans and contexts as `null`.
#[must_use]
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut body = Vec::with_capacity(diags.len());
    for d in diags {
        let (line, column) = match d.span {
            Some(s) => (s.line.to_string(), s.column.to_string()),
            None => ("null".to_owned(), "null".to_owned()),
        };
        let context = match &d.context {
            Some(c) => format!("\"{}\"", escape(c)),
            None => "null".to_owned(),
        };
        body.push(format!(
            "  {{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\",\
             \"line\":{line},\"column\":{column},\"context\":{context}}}",
            d.code,
            d.severity,
            escape(&d.message),
        ));
    }
    format!("[\n{}\n]\n", body.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_span_and_context() {
        let d = Diagnostic::warning("W001", "method is unreachable")
            .with_span(SrcLoc::new(12, 5))
            .with_context("Main.helper");
        assert_eq!(
            d.to_string(),
            "warning[W001]: method is unreachable (at 12:5, in Main.helper)"
        );
    }

    #[test]
    fn unknown_span_is_dropped() {
        let d = Diagnostic::error("E001", "no entry point").with_span(SrcLoc::UNKNOWN);
        assert_eq!(d.span, None);
        assert_eq!(d.to_string(), "error[E001]: no entry point");
    }

    #[test]
    fn text_rendering_counts_severities() {
        let diags = vec![
            Diagnostic::error("E001", "a"),
            Diagnostic::warning("W001", "b"),
            Diagnostic::warning("W002", "c"),
        ];
        let text = render_text(&diags);
        assert!(text.ends_with("1 error(s), 2 warning(s)\n"));
        assert!(render_text(&[]).contains("no issues"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let diags = vec![
            Diagnostic::warning("W002", "use of \"x\" before assignment")
                .with_span(SrcLoc::new(3, 9)),
        ];
        let json = render_json(&diags);
        assert!(json.contains("\"code\":\"W002\""));
        assert!(json.contains("\"line\":3"));
        assert!(json.contains("\\\"x\\\""));
        let empty = render_json(&[]);
        assert!(empty.starts_with("[\n") && empty.trim_end().ends_with(']'));
    }

    #[test]
    fn every_code_has_a_description() {
        for code in ALL_CODES {
            assert!(code_description(code).is_some(), "{code}");
        }
        assert!(code_description("E999").is_none());
    }
}
