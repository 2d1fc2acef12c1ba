//! Compile-time diagnostics.

use crate::span::Span;

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Error,
    Warning,
}

/// One compiler message with a source location and an optional lint code
/// (`UC1xx` codes are produced by the static-analysis passes of
/// [`crate::analysis`]; parse/sema diagnostics carry no code).
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    pub severity: Severity,
    pub span: Span,
    pub message: String,
    pub code: Option<&'static str>,
}

impl Diagnostic {
    pub fn error(span: Span, message: impl Into<String>) -> Self {
        Diagnostic { severity: Severity::Error, span, message: message.into(), code: None }
    }

    pub fn warning(span: Span, message: impl Into<String>) -> Self {
        Diagnostic { severity: Severity::Warning, span, message: message.into(), code: None }
    }

    /// Attach a lint code (builder style).
    pub fn with_code(mut self, code: &'static str) -> Self {
        self.code = Some(code);
        self
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        match self.code {
            Some(code) => write!(f, "{sev}[{code}]: {} at {}", self.message, self.span),
            None => write!(f, "{sev}: {} at {}", self.message, self.span),
        }
    }
}

/// A list of diagnostics; compilation fails iff it contains an error.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Diagnostics {
    pub items: Vec<Diagnostic>,
}

impl Diagnostics {
    pub fn error(&mut self, span: Span, message: impl Into<String>) {
        self.items.push(Diagnostic::error(span, message));
    }

    pub fn warning(&mut self, span: Span, message: impl Into<String>) {
        self.items.push(Diagnostic::warning(span, message));
    }

    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn warning_count(&self) -> usize {
        self.items.iter().filter(|d| d.severity == Severity::Warning).count()
    }

    /// Render every diagnostic prefixed with a file path, the
    /// `path:line:col: severity: message` shape editors and CI annotate.
    pub fn render_with_path(&self, path: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for d in &self.items {
            let sev = match d.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
            };
            let _ = match d.code {
                Some(code) => {
                    writeln!(out, "{path}:{}: {sev}[{code}]: {}", d.span, d.message)
                }
                None => writeln!(out, "{path}:{}: {sev}: {}", d.span, d.message),
            };
        }
        out
    }

    /// Make the list deterministic for golden tests and CI diffs: sort by
    /// span (then code, severity, message) and drop duplicates. Two coded
    /// diagnostics are duplicates when their `(code, span)` pair is
    /// identical (the same lint refiring on the same site, e.g. from an
    /// access analysed both as a read and as a write); uncoded diagnostics
    /// are deduped only when the full message also matches.
    pub fn normalize(&mut self) {
        self.items.sort_by(|a, b| {
            (a.span.start, a.span.end, a.code, a.severity, &a.message).cmp(&(
                b.span.start,
                b.span.end,
                b.code,
                b.severity,
                &b.message,
            ))
        });
        self.items.dedup_by(|a, b| {
            a.span == b.span
                && a.code == b.code
                && (a.code.is_some() || (a.message == b.message && a.severity == b.severity))
        });
    }

    /// Escalate every warning to an error (`--deny warnings`).
    pub fn promote_warnings(&mut self) {
        for d in &mut self.items {
            if d.severity == Severity::Warning {
                d.severity = Severity::Error;
            }
        }
    }
}

impl std::fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in &self.items {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_and_formatting() {
        let mut ds = Diagnostics::default();
        assert!(!ds.has_errors());
        ds.warning(Span::new(0, 1, 1, 1), "minor");
        assert!(!ds.has_errors());
        assert!(!ds.is_empty());
        ds.error(Span::new(5, 9, 2, 3), "bad thing");
        assert!(ds.has_errors());
        let text = ds.to_string();
        assert!(text.contains("warning: minor at 1:1"));
        assert!(text.contains("error: bad thing at 2:3"));
    }

    #[test]
    fn codes_render_in_brackets() {
        let d = Diagnostic::warning(Span::new(0, 1, 4, 2), "races").with_code("UC101");
        assert_eq!(d.to_string(), "warning[UC101]: races at 4:2");
    }

    #[test]
    fn normalize_sorts_by_span() {
        let mut ds = Diagnostics::default();
        ds.warning(Span::new(20, 25, 3, 1), "later");
        ds.error(Span::new(5, 9, 1, 6), "earlier");
        ds.normalize();
        assert_eq!(ds.items[0].message, "earlier");
        assert_eq!(ds.items[1].message, "later");
    }

    #[test]
    fn normalize_dedupes_coded_pairs() {
        let span = Span::new(5, 9, 2, 3);
        let mut ds = Diagnostics::default();
        ds.push(Diagnostic::warning(span, "read via router").with_code("UC110"));
        ds.push(Diagnostic::warning(span, "write via router").with_code("UC110"));
        // Different code at the same span survives.
        ds.push(Diagnostic::warning(span, "other lint").with_code("UC120"));
        // Uncoded duplicates need identical messages.
        ds.push(Diagnostic::warning(span, "plain"));
        ds.push(Diagnostic::warning(span, "plain"));
        ds.push(Diagnostic::warning(span, "distinct"));
        ds.normalize();
        let coded: Vec<_> = ds.items.iter().filter(|d| d.code.is_some()).collect();
        assert_eq!(coded.len(), 2);
        let uncoded: Vec<_> = ds.items.iter().filter(|d| d.code.is_none()).collect();
        assert_eq!(uncoded.len(), 2);
    }

    #[test]
    fn promote_warnings_escalates() {
        let mut ds = Diagnostics::default();
        ds.warning(Span::default(), "w");
        assert!(!ds.has_errors());
        ds.promote_warnings();
        assert!(ds.has_errors());
    }
}
