//! Static analysis behind `uc check`: four lint passes, each a plain
//! function over [`Checked`].
//!
//! The paper's §4 describes three optimization classes — standard code
//! optimizations, processor optimization, and communication-cost
//! optimization. The executor *applies* them silently; this module
//! surfaces the same analyses as compiler diagnostics with stable lint
//! codes, so `uc check` reports what the optimizer knows:
//!
//! | code  | pass      | finding |
//! |-------|-----------|---------|
//! | UC101 | races     | par write-write conflict on a mono array location |
//! | UC110 | comm      | regular grid shift through the general router (a read displaced on 2+ axes, a store on any) |
//! | UC111 | comm      | regular access misaligned with the iteration space |
//! | UC120 | context   | statement or reduction operand under a constant-false (empty) context |
//! | UC121 | context   | index set declared but never used |
//! | UC130 | liveness  | local scalar read before initialisation |
//! | UC131 | liveness  | dead store (value overwritten before any read) |
//! | UC132 | liveness  | function never called from `main` |
//!
//! Each pass module exports one `run(&Checked, &mut Vec<Finding>)`, and
//! [`analyze`] calls the four in the table's order. [`Checked`] is the
//! AST sema resolved and the tables its references index: the index sets every
//! construct and reduction names by [`crate::ast::SetId`], the locals of
//! each function by [`crate::ast::LocalId`], the global arrays by id. No
//! pass keeps a scope of its own or looks a spelling up: a binder is the
//! set a `Ref::Elem` names, a variable the local a `Ref::Local` names,
//! and spellings appear only in the messages — so the same passes can
//! later run over the compiled IR (ROADMAP item 8) without changing
//! their reporting. Only `liveness` walks the AST, for its dataflow; the
//! others report what sema recorded as it checked the program:
//! `Checked::races` (UC101), `Checked::routed` (UC110/UC111),
//! `Checked::empty_guards` (UC120) and `IndexSetInfo::used` (UC121).

mod comm;
mod context;
mod liveness;
mod races;

use crate::diag::{Diagnostic, Diagnostics, Severity};
use crate::json::{self, Value};
use crate::sema::{self, Checked};
use crate::span::Span;

/// One lint finding. Findings become [`Diagnostic`]s once a
/// [`LintConfig`] has decided their severity.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub code: &'static str,
    pub span: Span,
    pub message: String,
}

/// Every lint code the passes emit.
pub const LINTS: &[&str] =
    &["UC101", "UC110", "UC111", "UC120", "UC121", "UC130", "UC131", "UC132"];

/// Look a code up in [`LINTS`].
pub fn lint(code: &str) -> Option<&'static str> {
    LINTS.iter().copied().find(|&l| l == code)
}

/// Run the four passes and return the findings sorted by source
/// position (then code) — deterministic regardless of pass order or table
/// iteration order.
pub fn analyze(checked: &Checked) -> Vec<Finding> {
    let mut out = Vec::new();
    races::run(checked, &mut out);
    comm::run(checked, &mut out);
    context::run(checked, &mut out);
    liveness::run(checked, &mut out);
    out.sort_by(|a, b| {
        (a.span.start, a.span.end, a.code, &a.message).cmp(&(
            b.span.start,
            b.span.end,
            b.code,
            &b.message,
        ))
    });
    out
}

/// Per-invocation lint policy: `--deny`/`--allow` flags.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// `--deny warnings`: every warning (lint or sema) becomes an error.
    pub deny_warnings: bool,
    /// Codes promoted to errors.
    pub deny: Vec<String>,
    /// Codes suppressed entirely.
    pub allow: Vec<String>,
}

impl LintConfig {
    /// Record one `--deny` argument. `warnings` is the catch-all.
    pub fn deny(&mut self, what: &str) -> Result<(), String> {
        if what == "warnings" {
            self.deny_warnings = true;
            return Ok(());
        }
        if lint(what).is_none() {
            return Err(format!("unknown lint code `{what}`"));
        }
        self.deny.push(what.to_string());
        Ok(())
    }

    /// Record one `--allow` argument.
    pub fn allow(&mut self, what: &str) -> Result<(), String> {
        if lint(what).is_none() {
            return Err(format!("unknown lint code `{what}`"));
        }
        self.allow.push(what.to_string());
        Ok(())
    }

    fn severity_of(&self, code: &str) -> Option<Severity> {
        if self.allow.iter().any(|c| c == code) {
            return None;
        }
        if self.deny_warnings || self.deny.iter().any(|c| c == code) {
            Some(Severity::Error)
        } else {
            Some(Severity::Warning)
        }
    }

    /// Convert findings to diagnostics under this policy.
    pub fn apply(&self, findings: Vec<Finding>, diags: &mut Diagnostics) {
        for f in findings {
            if let Some(severity) = self.severity_of(f.code) {
                let d = Diagnostic { severity, span: f.span, message: f.message, code: Some(f.code) };
                diags.push(d);
            }
        }
    }
}

/// Front-end + analysis entry point used by `uc check`: the one front end
/// ([`sema::front_end`]: parse, the `-D` overrides, sema and the map
/// section), then the four lint passes under `cfg`. The returned diagnostics are normalized
/// (sorted, deduped); with `--deny warnings` all warnings come back as
/// errors.
pub fn check_source(src: &str, defines: &[(&str, i64)], cfg: &LintConfig) -> Diagnostics {
    let mut diags = Diagnostics::default();
    if let Some(checked) = sema::front_end(src, defines, &mut diags) {
        cfg.apply(analyze(&checked), &mut diags);
    }
    if cfg.deny_warnings {
        diags.promote_warnings();
    }
    diags.normalize();
    diags
}

// ---- JSON output ---------------------------------------------------------

/// Serialise diagnostics as a JSON array (`uc check --format json`)
/// through [`crate::json`]. Each is an object of `code` (omitted for
/// uncoded parse/sema diagnostics), `severity`, `message`, `line`, `col`,
/// `start` and `end`.
pub fn diagnostics_to_json(diags: &Diagnostics) -> String {
    let items = diags.items.iter().map(|d| {
        let severity = match d.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        let code = d.code.map(|code| ("code".to_string(), Value::Str(code.to_string())));
        let fields = code.into_iter().chain([
            ("severity".to_string(), Value::Str(severity.to_string())),
            ("message".to_string(), Value::Str(d.message.clone())),
            ("line".to_string(), Value::Num(d.span.line.into())),
            ("col".to_string(), Value::Num(d.span.col.into())),
            ("start".to_string(), Value::Num(d.span.start as u64)),
            ("end".to_string(), Value::Num(d.span.end as u64)),
        ]);
        Value::Obj(fields.collect())
    });
    json::to_string_pretty(&Value::Arr(items.collect()))
}

#[cfg(test)]
pub(crate) fn check_str(src: &str) -> Checked {
    let mut d = Diagnostics::default();
    let unit = crate::parser::parse(src, &mut d).expect("parse");
    sema::check(unit, &mut d).unwrap_or_else(|| panic!("sema failed:\n{d}"))
}

#[cfg(test)]
pub(crate) fn codes_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.code).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        // Codes are unique and each resolves.
        let mut codes = LINTS.to_vec();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), LINTS.len());
        for c in LINTS {
            assert_eq!(lint(c), Some(*c));
        }
        assert!(lint("UC101").is_some());
        assert!(lint("UC999").is_none());
    }

    #[test]
    fn lint_config_policies() {
        let mut cfg = LintConfig::default();
        assert!(cfg.deny("UC101").is_ok());
        assert!(cfg.allow("UC131").is_ok());
        assert!(cfg.deny("bogus").is_err());
        assert!(cfg.allow("bogus").is_err());
        let findings = vec![
            Finding { code: "UC101", span: Span::default(), message: "a".into() },
            Finding { code: "UC120", span: Span::default(), message: "b".into() },
            Finding { code: "UC131", span: Span::default(), message: "c".into() },
        ];
        let mut diags = Diagnostics::default();
        cfg.apply(findings, &mut diags);
        assert_eq!(diags.items.len(), 2, "allowed code dropped");
        assert_eq!(diags.items[0].severity, Severity::Error, "denied code escalated");
        assert_eq!(diags.items[1].severity, Severity::Warning);
    }

    #[test]
    fn check_source_reports_and_denies() {
        let src = "index_set I:i = {0..7};\nint a[8];\nmain() { par (I) a[0] = i; }";
        let diags = check_source(src, &[], &LintConfig::default());
        assert!(!diags.has_errors());
        assert!(diags.items.iter().any(|d| d.code == Some("UC101")), "{diags}");

        let mut deny = LintConfig::default();
        deny.deny("warnings").unwrap();
        let diags = check_source(src, &[], &deny);
        assert!(diags.has_errors());
    }

    #[test]
    fn check_source_applies_defines() {
        // With the default N=4 the guard `N > 2` is constant-true; the
        // `-D N=1` override makes it constant-false (dead context).
        let src = "#define N 4\nindex_set I:i = {0..7};\nint a[8];\nmain() { par (I) st (N > 2) a[i] = 1; }";
        let clean = check_source(src, &[], &LintConfig::default());
        assert!(!clean.items.iter().any(|d| d.code == Some("UC120")), "{clean}");
        let dead = check_source(src, &[("N", 1)], &LintConfig::default());
        assert!(dead.items.iter().any(|d| d.code == Some("UC120")), "{dead}");
    }

    #[test]
    fn json_output_shape() {
        let src = "index_set I:i = {0..7};\nint a[8];\nmain() { par (I) a[0] = i; }";
        let diags = check_source(src, &[], &LintConfig::default());
        // One diagnostic's `--format json` text, byte for byte.
        assert_eq!(
            diagnostics_to_json(&diags),
            "[\n  {\n    \"code\": \"UC101\",\n    \"severity\": \"warning\",\n    \"message\": \
             \"write-write race in `par`: the stored value varies with `i` but every enabled element \
             stores to the same location `a[0]` — distinct values collide without a combining \
             reduction (§3.4)\",\n    \"line\": 3,\n    \"col\": 23,\n    \"start\": 56,\n    \
             \"end\": 57\n  }\n]"
        );
        // An uncoded (parse/sema) diagnostic has no `code` field.
        let parse_error =
            diagnostics_to_json(&check_source("main() {", &[], &LintConfig::default()));
        assert!(parse_error.starts_with("[\n  {\n    \"severity\": \"error\",\n"), "{parse_error}");
        // Empty list prints a bare array.
        assert_eq!(diagnostics_to_json(&Diagnostics::default()), "[]");
    }

    /// The lints bind a `par` element as `axis + lo` exactly when the
    /// executor does (`IndexSetInfo::contiguous_lo`): an ascending list
    /// counts as `{lo..hi}`, any other list is a gather.
    #[test]
    fn contiguity() {
        let codes = |sets: &str| {
            let src = format!(
                "index_set {sets};\nint a[4][4], b[4][4];\n\
                 main() {{ par (I, J) b[i][j] = a[i-1][j-1]; }}"
            );
            let diags = check_source(&src, &[], &LintConfig::default());
            diags.items.iter().filter_map(|d| d.code).collect::<Vec<_>>()
        };
        assert_eq!(codes("I:i = {0, 1, 2, 3}, J:j = I"), ["UC110"]);
        assert!(codes("I:i = {0, 2, 1, 3}, J:j = I").is_empty());
        // `INF + 1` does not exist: not contiguous, and not an overflow.
        assert!(codes("I:i = {INF, 0, 1, 2}, J:j = {0..3}").is_empty());
    }
}
