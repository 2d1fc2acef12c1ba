//! Static analysis behind `uc check`: one formatter over the facts sema
//! records as it checks the program.
//!
//! The paper's §4 describes three optimization classes — standard code
//! optimizations, processor optimization, and communication-cost
//! optimization. The executor *applies* them silently; `uc check` reports
//! the same analyses as compiler diagnostics with stable lint codes. Each
//! code is one fact of [`Checked`], which [`analyze`] words:
//!
//! | code  | finding | fact |
//! |-------|---------|------|
//! | UC101 | par write-write conflict on a mono array location | `Checked::races` |
//! | UC110 | regular grid shift through the general router (a read displaced on 2+ axes, a store on any) | `Checked::routed` |
//! | UC111 | regular access misaligned with the iteration space, or routed by its array's mapping | `Checked::routed` |
//! | UC120 | statement or reduction operand under a constant-false (empty) context | `Checked::empty_guards` |
//! | UC121 | index set declared but never used | `IndexSetInfo::used` |
//! | UC130 | local scalar read before initialisation | `Checked::uninit_reads` |
//! | UC131 | dead store (value overwritten before any read) | `Checked::dead_stores` |
//! | UC132 | function never called from `main` | `Checked::reachable` |
//!
//! Sema decides each rule where it checks what the rule is about: a store
//! races by the step table and the access plan (`Checker::check_race`), an
//! access routes by the executor's own path rules valued with the
//! `#define`s, a guard is empty when it values to 0 with them, a set is
//! used when a construct, reduction, alias or map section resolves to it,
//! and the dataflow of UC130/UC131 runs over each function body in
//! evaluation order. UC110/UC111 judge each access under its array's
//! mapping, which sema fixes before it checks any body. This module keeps
//! no scope, walks no AST and looks no spelling up: names appear only in
//! the messages.

use crate::diag::{Diagnostic, Diagnostics, Severity};
use crate::json::{self, Value};
use crate::opt::Routing;
use crate::sema::{self, Checked, LocalUse};
use crate::span::Span;

/// One lint finding. Findings become [`Diagnostic`]s once a
/// [`LintConfig`] has decided their severity.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub code: &'static str,
    pub span: Span,
    pub message: String,
}

/// Every lint code [`analyze`] emits.
pub const LINTS: &[&str] =
    &["UC101", "UC110", "UC111", "UC120", "UC121", "UC130", "UC131", "UC132"];

/// Look a code up in [`LINTS`].
pub fn lint(code: &str) -> Option<&'static str> {
    LINTS.iter().copied().find(|&l| l == code)
}

/// Word every fact sema recorded as a finding, sorted by source position
/// (then code): deterministic whatever order sema met them in.
pub fn analyze(checked: &Checked) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut push = |code, span, message| out.push(Finding { code, span, message });
    for race in &checked.races {
        let (step, elem, target) = (race.step, &checked.sets[race.elem].elem, &race.target);
        let location = if race.moves {
            format!("the location `{target}` does not tell the elements apart")
        } else {
            format!("every enabled element stores to the same location `{target}`")
        };
        push(
            "UC101",
            race.span,
            format!(
                "write-write race in `{step}`: the stored value varies with `{elem}` but \
                 {location} — distinct values collide without a combining reduction (§3.4)"
            ),
        );
    }
    for routed in &checked.routed {
        let access = &routed.access;
        let message = match routed.why {
            Routing::Shift { displaced, store: true } => format!(
                "`{access}` stores a regular grid shift on {displaced} {} through the \
                 general router, since no store takes NEWS; storing in place and reading \
                 the operand shifted the other way, one axis per NEWS shift, is cheaper \
                 (§4 communication cost)",
                if displaced == 1 { "axis" } else { "axes" },
            ),
            Routing::Shift { displaced, store: false } => format!(
                "`{access}` is a regular grid shift on {displaced} axes but goes \
                 through the general router; splitting it into single-axis NEWS \
                 shifts (or a `map permute`) is cheaper (§4 communication cost)"
            ),
            Routing::Misaligned { transposed } => {
                let reason = if transposed {
                    "its axes are transposed relative to the iteration space"
                } else {
                    "the array's shape does not conform to the iteration space"
                };
                format!(
                    "`{access}` is a regular access pattern but {reason}, so it goes through \
                     the general router under any `map` declaration (§4 communication cost)"
                )
            }
            Routing::Mapped => format!(
                "`{access}` would be local or a NEWS shift under the default layout, but \
                 the map section's layout of its array sends it through the general router \
                 (§4 communication cost)"
            ),
        };
        let code = if let Routing::Shift { .. } = routed.why { "UC110" } else { "UC111" };
        push(code, routed.span, message);
    }
    for guard in &checked.empty_guards {
        let what = match guard.what {
            "st" => "`st` predicate is constant-false: the context is empty".to_string(),
            keyword => format!("`{keyword}` condition is constant-false"),
        };
        let guarded = if guard.operand { "operand" } else { "statement" };
        let message = format!("{what}; the guarded {guarded} can never execute (§3.4 context)");
        push("UC120", guard.span, message);
    }
    for set in checked.sets.iter().filter(|set| !set.used) {
        let message = format!(
            "index set `{}` is never used by any construct, reduction, \
             alias or map declaration (§4 processor optimization)",
            set.name
        );
        push("UC121", set.span, message);
    }
    let local = |u: &LocalUse| &checked.func_infos[u.func].locals[u.local as usize].name;
    for read in &checked.uninit_reads {
        let message =
            format!("local `{}` is read before any assignment initialises it (§4 dataflow)", local(read));
        push("UC130", read.span, message);
    }
    for store in &checked.dead_stores {
        let message = format!(
            "value stored to `{}` is overwritten before it is ever read (§4 dead code)",
            local(store)
        );
        push("UC131", store.span, message);
    }
    let funcs = checked.funcs_in_order().zip(&checked.reachable);
    for (f, _) in funcs.filter(|(_, &reached)| !reached) {
        let message = format!("function `{}` is never called from `main` (§4 dead code)", f.name);
        push("UC132", f.span, message);
    }
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
/// section), then [`analyze`]'s findings under `cfg`. The returned
/// diagnostics are normalized (sorted, deduped); with `--deny warnings`
/// all warnings come back as errors.
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
mod tests {
    use super::*;

    pub(super) fn codes_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.code).collect()
    }

    /// [`analyze`]'s findings on `src` whose code is one of `codes`.
    pub(super) fn findings_of(src: &str, codes: &[&str]) -> Vec<Finding> {
        let mut d = Diagnostics::default();
        let unit = crate::parser::parse(src, &mut d).expect("parse");
        let checked = sema::check(unit, &mut d).unwrap_or_else(|| panic!("sema failed:\n{d}"));
        analyze(&checked).into_iter().filter(|f| codes.contains(&f.code)).collect()
    }

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

/// UC101's unit tests.
#[cfg(test)]
mod races {
    mod tests {
        use crate::analysis::tests::{codes_of, findings_of};
        use crate::analysis::Finding;

        fn findings(src: &str) -> Vec<Finding> {
            findings_of(src, &["UC101"])
        }

        #[test]
        fn constant_element_race_detected() {
            let f = findings("index_set I:i = {0..7};\nint a[8];\nmain() { par (I) a[0] = i; }");
            assert_eq!(codes_of(&f), vec!["UC101"]);
            assert!(f[0].message.contains("a[0]"));
            assert_eq!(f[0].span.line, 3);
        }

        #[test]
        fn missing_axis_race_detected() {
            let f = findings(
                "index_set I:i = {0..3}, J:j = I;\nint a[4];\nmain() { par (I, J) a[i] = j; }",
            );
            assert_eq!(codes_of(&f), vec!["UC101"]);
            assert!(f[0].message.contains("`j`"));
        }

        #[test]
        fn same_value_stores_are_clean() {
            // Every element stores 1 — identical values are allowed (§3.4).
            let f = findings("index_set I:i = {0..7};\nint s, a[8];\nmain() { par (I) st (a[i] > 0) s = 1; }");
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn guard_mentioning_element_suppresses() {
            let f = findings("index_set I:i = {0..7};\nint a[8];\nmain() { par (I) st (i == 0) a[0] = i; }");
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn reduction_combines_cleanly() {
            let f = findings(
                "index_set I:i = {0..7}, J:j = I;\nint a[8], rank[8];\n\
                 main() { par (I) rank[i] = $+(J st (a[j] < a[i]) 1); }",
            );
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn per_vp_locals_are_clean() {
            let f = findings(
                "index_set I:i = {0..7};\nint a[8];\nmain() { par (I) { int t; t = i; a[i] = t; } }",
            );
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn a_per_vp_subscript_varies_with_every_element() {
            // `rank` differs per element (a ranksort): no two store together.
            let f = findings(
                "index_set I:i = {0..7}, J:j = I;\nint a[8], sorted[8];\n\
                 main() { par (I) { int rank; rank = $+(J st (a[j] < a[i]) 1); \
                 sorted[rank] = a[i]; } }",
            );
            assert!(f.is_empty(), "{f:?}");
            // A front-end local is one value for every element: still a race.
            let f = findings(
                "index_set I:i = {0..7};\nint a[8];\nmain() { int k; k = 0; par (I) a[k] = i; }",
            );
            assert_eq!(codes_of(&f), vec!["UC101"]);
        }

        #[test]
        fn seq_is_sequential() {
            let f = findings("index_set I:i = {0..7};\nint s;\nmain() { seq (I) s = i; }");
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn a_per_vp_value_varies_with_the_space_that_declared_it() {
            // Read in place: `t` is `i` at every point.
            let f = findings(
                "index_set I:i = {0..7};\nint a[8];\nmain() { par (I) { int t; t = i; a[0] = t; } }",
            );
            assert_eq!(codes_of(&f), vec!["UC101"]);
            // Lifted into a nested `par`: `t` still varies with `i`, which the
            // location `c[j]` does not.
            let f = findings(
                "index_set I:i = {0..3}, J:j = I;\nint c[4];\n\
                 main() { par (I) { int t; t = i; par (J) c[j] = t; } }",
            );
            assert_eq!(codes_of(&f), vec!["UC101"]);
            assert!(f[0].message.contains("`i`"), "{f:?}");
            // A subscript lifted the same way varies with `i` only.
            let f = findings(
                "index_set I:i = {0..3}, J:j = I;\nint c[4];\n\
                 main() { par (I) { int t; t = i; par (J) c[t] = j; } }",
            );
            assert!(f[0].message.contains("`j`"), "{f:?}");
        }

        #[test]
        fn rand_varies_with_every_open_axis() {
            let f = findings("index_set I:i = {0..7};\nint a[8];\nmain() { par (I) a[0] = rand(); }");
            assert_eq!(codes_of(&f), vec!["UC101"]);
            let f = findings("index_set I:i = {0..7};\nint a[8];\nmain() { par (I) a[i] = rand(); }");
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn only_a_pinning_guard_removes_an_axis() {
            let race = |guarded: &str| {
                let src = format!(
                    "index_set I:i = {{0..7}}, J:j = I;\nint a[8], b[8], x[8];\nmain() {{ {guarded} }}"
                );
                codes_of(&findings(&src))
            };
            assert_eq!(race("par (I) st (i < 2) a[0] = b[i];"), ["UC101"]);
            assert_eq!(race("par (I) st (b[i] == 0) a[0] = i;"), ["UC101"]);
            assert!(race("par (I) st (i == 3 && b[i] > 0) a[0] = b[i];").is_empty());
            assert!(race("par (I, J) st (i == j) x[j] = b[i];").is_empty());
            assert!(race("par (I, J) st (j == i) x[j] = b[i];").is_empty());
            // `j` varies along an axis the location `x[0]` does not.
            assert_eq!(race("par (I, J) st (i == j) x[0] = b[i];"), ["UC101"]);
            // `others` runs where every arm predicate fails.
            assert!(race("par (I) st (i != 0) b[i] = 1; others x[0] = b[i];").is_empty());
            assert_eq!(race("par (I) st (i == 0) b[i] = 1; others x[0] = b[i];"), ["UC101"]);
            // A disjunct pins nothing.
            assert_eq!(race("par (I) st (i == 0 || i == 1) a[0] = i;"), ["UC101"]);
        }

        #[test]
        fn a_swap_is_two_stores() {
            let f = findings(
                "index_set I:i = {0..7};\nint x[8];\nmain() { par (I) st (i > 0) swap(x[0], x[i]); }",
            );
            assert_eq!(codes_of(&f), vec!["UC101"]);
            assert!(f[0].message.contains("`x[0]`"), "{f:?}");
            let f = findings("index_set I:i = {0..7};\nint x[8];\nmain() { par (I) swap(x[i], x[7 - i]); }");
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn the_step_that_runs_the_store_decides() {
            // A store in a reduction's operand runs on the reduction's space,
            // which traps like a `par`, also under a `*solve`.
            let f = findings(
                "index_set I:i = {0..3}, J:j = I;\nint a[4], s[4];\nmain() { par (I) s[i] = $+(J; a[0] = j); }",
            );
            assert_eq!(codes_of(&f), vec!["UC101"]);
            assert!(f[0].message.contains("race in `$+`"), "{f:?}");
            let f = findings(
                "index_set I:i = {0..3}, J:j = I;\nint a[4], s[4];\nmain() { *solve (I) s[i] = $+(J; a[0] = j); }",
            );
            assert_eq!(codes_of(&f), vec!["UC101"]);
            // A `*solve` stores without the check.
            let f = findings(
                "index_set I:i = {0..3}, J:j = I;\nint a[4];\nmain() { par (I) *solve (J) a[0] = i; }",
            );
            assert!(f.is_empty(), "{f:?}");
            // A `seq` under a `par` runs its stores as the `par`'s steps.
            let f = findings(
                "index_set I:i = {0..3}, K:k = I;\nint a[4];\nmain() { par (I) seq (K) a[0] = i; }",
            );
            assert_eq!(codes_of(&f), vec!["UC101"]);
            assert!(f[0].message.contains("race in `par`"), "{f:?}");
            // Nor does a store nested in a `*solve`'s right-hand side.
            let f = findings(
                "index_set I:i = {0..3};\nint a[4], b[1];\nmain() { *solve (I) a[i] = (b[0] = i); }",
            );
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn a_subscript_that_folds_elements_together_races() {
            let race = |store: &str| {
                let src = format!(
                    "#define N 8\nindex_set I:i = {{0..N-1}}, J:j = I, K:k = {{0..8191}};\n\
                     int a[2*N], m[N][N], p[N], q[N*N], w[8192];\nmain() {{ {store} }}"
                );
                codes_of(&findings(&src))
            };
            assert_eq!(race("par (I) a[i / 2] = i;"), ["UC101"]);
            assert_eq!(race("par (I) a[i % 2] = i;"), ["UC101"]);
            assert_eq!(race("par (I, J) q[i + j] = i;"), ["UC101"]);
            // Distinct at every point: a location each.
            for clean in [
                "par (I) a[2*i] = i;",
                "par (I) a[N-1-i] = i;",
                "par (I) a[(i + 3) % N] = i;",
                "par (I, J) q[i*N + j] = i - j;",
                // `i / 2` folds only `I`, along which the value does not vary.
                "par (I, J) m[i / 2][j] = j;",
                // Data in a subscript, or more points than the cap: as if
                // every point had its own location.
                "par (I) a[p[i] / 2] = i;",
                "par (K) w[k / 2] = k;",
            ] {
                assert!(race(clean).is_empty(), "{clean}");
            }
            // A list that repeats an element gives two points one location.
            let f = findings(
                "index_set K:k = {3, 3};\nint a[8];\nmain() { par (K) { int t; t = rand(); a[k] = t; } }",
            );
            assert_eq!(codes_of(&f), vec!["UC101"]);
        }

        #[test]
        fn points_that_share_a_location_race_only_on_distinct_values() {
            let race = |decls: &str, store: &str| {
                findings(&format!(
                    "#define N 8\nindex_set I:i = {{0..N-1}}{decls};\nint a[N], p[N];\nmain() {{ {store} }}"
                ))
            };
            for clean in ["par (I) a[i / 2] = (i / 2) * 10;", "par (I) a[i % 2] = i % 2 + N;"] {
                assert!(race("", clean).is_empty(), "{clean}");
            }
            assert!(race(", K:k = {3, 3, 5}", "par (K) a[k] = k * 2;").is_empty());
            // A value that differs, or reads data, at points sharing a location.
            for store in ["par (I) a[i / 2] = i;", "par (I) a[i / 2] = i / 2 + p[0];"] {
                let f = race("", store);
                assert_eq!(codes_of(&f), vec!["UC101"], "{store}");
                assert!(f[0].message.contains("`a[i / 2]` does not tell the elements apart"), "{f:?}");
            }
            let f = race("", "par (I) a[0] = i;");
            assert!(f[0].message.contains("every enabled element stores to the same location `a[0]`"));
        }

        #[test]
        fn compound_assignment_reads_target() {
            // a[i] += i varies with i in both value and location: clean.
            let f = findings("index_set I:i = {0..7};\nint a[8];\nmain() { par (I) a[i] += i; }");
            assert!(f.is_empty(), "{f:?}");
            // a[0] += i still races on the shared location.
            let f = findings("index_set I:i = {0..7};\nint a[8];\nmain() { par (I) a[0] += i; }");
            assert_eq!(codes_of(&f), vec!["UC101"]);
        }
    }
}

/// UC110/UC111's unit tests.
#[cfg(test)]
mod comm {
    mod tests {
        use crate::analysis::tests::{codes_of, findings_of};
        use crate::analysis::Finding;

        fn findings(src: &str) -> Vec<Finding> {
            findings_of(src, &["UC110", "UC111"])
        }

        const GRID: &str = "index_set I:i = {0..7}, J:j = I;\nint a[8][8], b[8][8];\n";

        #[test]
        fn multi_axis_shift_is_flagged() {
            let f = findings(&format!("{GRID}main() {{ par (I, J) b[i][j] = a[i-1][j-1]; }}"));
            assert_eq!(codes_of(&f), vec!["UC110"]);
            assert!(f[0].message.contains("a[i - 1][j - 1]"), "{}", f[0].message);
        }

        #[test]
        fn single_axis_news_is_clean() {
            let f = findings(&format!(
                "{GRID}main() {{ par (I, J) b[i][j] = (a[i-1][j] + a[i+1][j] + a[i][j-1] + a[i][j+1]) / 4; }}"
            ));
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn transposed_axes_are_flagged() {
            let f = findings(&format!("{GRID}main() {{ par (I, J) b[i][j] = a[j][i]; }}"));
            assert_eq!(codes_of(&f), vec!["UC111"]);
            assert!(f[0].message.contains("transposed"), "{}", f[0].message);
        }

        #[test]
        fn shape_mismatch_is_flagged() {
            let f = findings(
                "index_set I:i = {0..7};\nint a[16], b[8];\nmain() { par (I) b[i] = a[i]; }",
            );
            assert_eq!(codes_of(&f), vec!["UC111"]);
            assert!(f[0].message.contains("conform"), "{}", f[0].message);
        }

        /// Only a base sema resolved to a global array is classified: a
        /// function-local array that shares the spelling of a non-conforming
        /// global one is not that array.
        #[test]
        fn a_local_array_is_not_the_global_it_shadows() {
            let global = "index_set I:i = {0..7};\nint a[16], b[8];\n";
            let f = findings(&format!("{global}main() {{ par (I) b[i] = a[i]; }}"));
            assert_eq!(codes_of(&f), vec!["UC111"]);
            let f = findings(&format!("{global}main() {{ int a[8]; par (I) b[i] = a[i]; }}"));
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn partial_rank_gather_is_clean() {
            // `a[j]` under the reduction runs on the extended [8, 8] space:
            // genuine router traffic, not a liftable regular pattern.
            let f = findings(
                "index_set I:i = {0..7}, J:j = I;\nint a[8], rank[8];\n\
                 main() { par (I) rank[i] = $+(J st (a[j] < a[i]) 1); }",
            );
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn diagonal_gather_is_clean() {
            let f = findings(&format!("{GRID}main() {{ par (I, J) b[i][j] = a[i][i]; }}"));
            assert!(f.is_empty(), "{f:?}");
        }

        /// Each access is judged under its array's mapping: a `permute`d
        /// read that one toroidal shift serves is clean, while a store to the
        /// re-mapped array and a read of a folded one take the router.
        #[test]
        fn mapped_arrays_are_judged_under_their_mapping() {
            let f = findings(
                "index_set I:i = {0..7};\nint a[8], b[8], c[8];\n\
                 map (I) { permute (I) a[i+1] :- b[i]; fold (I) c[i] :- c[7-i]; }\n\
                 main() {\npar (I) b[i] = a[i-1];\npar (I) a[i] = c[i];\n}",
            );
            let at: Vec<_> = f.iter().map(|f| (f.code, f.span.line, f.span.col)).collect();
            assert_eq!(at, [("UC111", 6, 9), ("UC111", 6, 16)]);
            assert!(f.iter().all(|f| f.message.contains("under the default layout")), "{f:?}");
        }

        /// A `solve` and a `*solve` run their accesses unclassified, a
        /// reduction under a `*solve` included.
        #[test]
        fn solve_leaves_shifts_unclassified() {
            for body in [
                "solve (I, J) b[i][j] = a[i-1][j-1];",
                "*solve (I, J) b[i][j] = a[i-1][j-1];",
                "*solve (I) c[i] = $+(J; a[i-1][j-1]);",
            ] {
                let f = findings(&format!("{GRID}int c[8];\nmain() {{ {body} }}"));
                assert!(f.is_empty(), "{body}: {f:?}");
            }
        }

        /// A `oneof` opens its axes as a `par` does, and a reduction extends
        /// the space its operand runs on: a full-rank access there is judged.
        #[test]
        fn oneof_and_reduction_spaces_are_classified() {
            let f = findings(&format!("{GRID}main() {{ oneof (I, J) b[i][j] = a[i-1][j-1]; }}"));
            assert_eq!(codes_of(&f), vec!["UC110"]);
            let f = findings(&format!(
                "{GRID}int c[8];\nmain() {{ par (I) c[i] = $+(J; a[i-1][j-1]) + $+(J; a[j][i]); }}"
            ));
            assert_eq!(codes_of(&f), vec!["UC110", "UC111"]);
        }

        /// `a[i]` is one access id under `par (I)` and under `par (I) par (J)`,
        /// but only the first is full-rank: each occurrence is judged on the
        /// space it runs on.
        #[test]
        fn each_occurrence_is_judged_on_its_own_space() {
            let f = findings(
                "index_set I:i = {0..7}, J:j = I;\nint a[16], b[8];\n\
                 main() {\npar (I) b[i] = a[i];\npar (I) par (J) b[i] = a[i];\n}",
            );
            assert_eq!(codes_of(&f), vec!["UC111"]);
            assert_eq!(f[0].span.line, 4);
        }

        /// A store takes the router wherever it is displaced, so one displaced
        /// axis is enough; the same shift read takes NEWS.
        #[test]
        fn displaced_stores_are_flagged() {
            let f = findings(&format!(
                "{GRID}main() {{ par (I, J) st (i > 0) b[i-1][j] = a[i][j]; par (I, J) b[i][j] = a[i-1][j]; }}"
            ));
            assert_eq!(codes_of(&f), vec!["UC110"]);
            assert!(f[0].message.contains("`b[i - 1][j]` stores a regular grid shift on 1 axis"), "{}", f[0].message);
            let f = findings(&format!("{GRID}main() {{ par (I, J) st (i > 0 && j > 0) b[i-1][j-1] = a[i][j]; }}"));
            assert!(f[0].message.contains("stores") && f[0].message.contains("2 axes"), "{}", f[0].message);
        }

        /// A map section's patterns are no accesses: a source pattern that
        /// would not conform as an access reports nothing.
        #[test]
        fn map_patterns_are_no_accesses() {
            let f = findings(
                "index_set I:i = {0..7};\nint a[16], b[8];\n\
                 map (I) { permute (I) b[i+1] :- a[i]; }\n\
                 main() {}",
            );
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn front_end_access_is_clean() {
            let f = findings("int a[4][4];\nmain() { a[0][1] = 3; }");
            assert!(f.is_empty(), "{f:?}");
        }
    }
}

/// UC120/UC121's unit tests.
#[cfg(test)]
mod context {
    mod tests {
        use crate::analysis::tests::{codes_of, findings_of};
        use crate::analysis::Finding;

        fn findings(src: &str) -> Vec<Finding> {
            findings_of(src, &["UC120", "UC121"])
        }

        #[test]
        fn constant_false_predicate_is_flagged() {
            let f = findings(
                "index_set I:i = {0..7};\nint a[8];\nmain() { par (I) st (0) a[i] = 1; }",
            );
            assert_eq!(codes_of(&f), vec!["UC120"]);
            assert_eq!(f[0].span.line, 3);
        }

        #[test]
        fn constant_false_if_and_while_are_flagged() {
            let f = findings("main() { int x; x = 1; if (0) x = 2; while (1 > 2) x = 3; }");
            assert_eq!(codes_of(&f), vec!["UC120", "UC120"]);
        }

        #[test]
        fn constant_false_for_and_defined_zero_are_flagged() {
            let f = findings("#define OFF 0\nmain() { int x; x = 1; for (;0;) x = 2; if (OFF) x = 3; }");
            assert_eq!(codes_of(&f), vec!["UC120", "UC120"]);
            assert!(f[0].message.starts_with("`for` condition"), "{}", f[0].message);
            assert!(f[1].message.starts_with("`if` condition"), "{}", f[1].message);
        }

        /// A reduction's `st` predicate guards its operand.
        #[test]
        fn constant_false_reduction_arm_is_flagged() {
            let f = findings(
                "index_set I:i = {0..7}, J:j = I;\nint a[8], s;\n\
                 main() { par (I) a[i] = $+(J st (0) 1); s = $+(I st (1 > 2) a[i]); }",
            );
            assert_eq!(codes_of(&f), vec!["UC120", "UC120"]);
            assert!(f[0].message.contains("the guarded operand"), "{}", f[0].message);
        }

        #[test]
        fn runtime_predicates_are_clean() {
            let f = findings(
                "index_set I:i = {0..7};\nint a[8];\n\
                 main() { int x; x = 0; if (x) x = 2; par (I) st (a[i] > 0) a[i] = 1; }",
            );
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn unused_set_is_flagged() {
            let f = findings(
                "index_set I:i = {0..7}, J:jj = {0..3};\nint a[8];\nmain() { par (I) a[i] = 1; }",
            );
            assert_eq!(codes_of(&f), vec!["UC121"]);
            assert!(f[0].message.contains("`J`"));
            assert_eq!(f[0].span.line, 1);
        }

        #[test]
        fn reduction_and_alias_uses_count() {
            let f = findings(
                "index_set I:i = {0..7}, J:j = I, K:k = {0..3};\nint a[8], s;\n\
                 main() { s = $+(J; a[j]); seq (K) s = s + 1; }",
            );
            // I is used as J's alias source; J by the reduction; K by `seq`.
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn map_section_uses_count() {
            let f = findings(
                "index_set I:i = {0..7};\nint a[8], b[8];\n\
                 map (I) { permute (I) a[i+1] :- b[i]; }\nmain() { int x; x = 0; }",
            );
            assert!(f.is_empty(), "{f:?}");
        }
    }
}

/// UC130–UC132's unit tests.
#[cfg(test)]
mod liveness {
    mod tests {
        use crate::analysis::tests::{codes_of, findings_of};
        use crate::analysis::Finding;

        fn findings(src: &str) -> Vec<Finding> {
            findings_of(src, &["UC130", "UC131", "UC132"])
        }

        #[test]
        fn use_before_init_detected() {
            let f = findings("main() { int x, y; y = x + 1; }");
            assert_eq!(codes_of(&f), vec!["UC130"]);
            assert!(f[0].message.contains("`x`"));
        }

        #[test]
        fn init_on_every_branch_is_clean() {
            let f = findings(
                "main() { int x, y; y = 0; if (y) x = 1; else x = 2; y = x; }",
            );
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn init_on_one_branch_is_not_definite() {
            // Maybe-uninitialised is not flagged (no false positives).
            let f = findings("main() { int x, y; y = 0; if (y) x = 1; y = x; }");
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn par_assignment_initialises() {
            let f = findings(
                "index_set I:i = {0..7};\nint a[8];\n\
                 main() { int x; par (I) st (i == 0) x = 0; x = x + 1; }",
            );
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn dead_store_detected() {
            let f = findings("main() { int x, y; x = 1; x = 2; y = x; }");
            assert_eq!(codes_of(&f), vec!["UC131"]);
            assert_eq!(f[0].span.line, 1);
        }

        /// Two locals that share a spelling are two variables: a store to
        /// the inner one neither overwrites nor initialises the outer one.
        #[test]
        fn a_shadowing_local_is_its_own_variable() {
            let f = findings("int s, t;\nmain() { int x; x = 1; { int x; x = 2; s = x; } t = x; }");
            assert!(f.is_empty(), "{f:?}");
            let f = findings("int t;\nmain() { int x; { int x; x = 2; t = x; } t = x; }");
            assert_eq!(codes_of(&f), vec!["UC130"]);
            assert_eq!(f[0].span.col, 46, "the read of the outer `x`");
        }

        #[test]
        fn read_between_stores_is_clean() {
            let f = findings("main() { int x, y; x = 1; y = x; x = 2; y = y + x; }");
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn control_flow_clears_dead_store_tracking() {
            // The read happens inside the loop: not a dead store.
            let f = findings(
                "main() { int x, y, i; x = 1; for (i = 0; i < 3; i = i + 1) y = x; x = 2; y = x; }",
            );
            assert!(f.is_empty(), "{f:?}");
        }

        #[test]
        fn unused_function_detected() {
            let f = findings(
                "int helper(int v) { return v + 1; }\nint orphan() { return 3; }\n\
                 main() { int x; x = helper(1); }",
            );
            assert_eq!(codes_of(&f), vec!["UC132"]);
            assert!(f[0].message.contains("`orphan`"));
        }

        #[test]
        fn transitive_calls_are_reachable() {
            let f = findings(
                "int inner() { return 1; }\nint outer() { return inner(); }\n\
                 main() { int x; x = outer(); }",
            );
            assert!(f.is_empty(), "{f:?}");
        }

        /// The source text of each finding's span, in order.
        fn spans<'s>(src: &'s str, f: &[Finding]) -> Vec<(&'static str, &'s str)> {
            f.iter().map(|f| (f.code, &src[f.span.start..f.span.end])).collect()
        }

        /// A declaration reads its initialiser, then stores: `int x = x`
        /// reads the outer `x`, and the store waits for a read like an
        /// assignment's.
        #[test]
        fn a_declaration_reads_its_initialiser_then_stores() {
            let src = "int s;\nmain() { int x; { int x = x + 1; s = x; } }";
            let f = findings(src);
            assert_eq!(spans(src, &f), [("UC130", "x")]);
            assert_eq!(f[0].span.start, src.find("x + 1").unwrap(), "the outer `x`");
            let src = "int s;\nmain() { int x = 1; x = 2; s = x; }";
            let f = findings(src);
            assert_eq!(codes_of(&f), ["UC131"]);
            assert!(f[0].span.start < src.find("x = 2").unwrap(), "the declaration's store");
        }

        /// An assignment reads its value, then stores its target.
        #[test]
        fn an_assignment_reads_its_value_then_stores() {
            let src = "int s;\nmain() { int x; x = x + 1; s = x; }";
            let f = findings(src);
            assert_eq!(spans(src, &f), [("UC130", "x")]);
            assert_eq!(f[0].span.start, src.find("x + 1").unwrap(), "the value's `x`");
            assert!(findings("int s;\nmain() { int x; x = 1; x = x + 1; s = x; }").is_empty());
        }

        /// A compound assignment reads its target, then stores it.
        #[test]
        fn a_compound_assignment_reads_its_target_then_stores() {
            let src = "int s;\nmain() { int x; x += 1; s = x; }";
            let f = findings(src);
            assert_eq!(spans(src, &f), [("UC130", "x")]);
            assert_eq!(f[0].span.start, src.find("x += 1").unwrap(), "the target");
            assert!(findings("int s;\nmain() { int x; x = 1; x += 2; s = x; }").is_empty());
        }

        /// A `for`'s step runs after its body: it reads what the body
        /// stored, and its store overwrites the body's last one.
        #[test]
        fn a_for_step_runs_after_the_body() {
            let clean = "int s;\nmain() { int i, d; for (i = 0; i < 9; i = i + d) d = 1; s = i; }";
            assert!(findings(clean).is_empty(), "{:?}", findings(clean));
            let src = "int s;\nmain() { int i, d; for (i = 0; i < 9; d = 2) { d = 1; i = i + 1; } s = i; }";
            let f = findings(src);
            assert_eq!(codes_of(&f), ["UC131"]);
            assert_eq!(f[0].span.start, src.find("= 1").unwrap(), "the body's store");
        }

        /// A `seq` under a `par` is a construct like any other: its arms
        /// start from the state before it, and it ends the straight-line
        /// run of the `par`'s body.
        #[test]
        fn a_seq_under_a_par_forks_and_joins() {
            let src = "index_set I:i = {0..7}, K:k = {0..2};\nint a[8];\n\
                       main() { par (I) { int t; seq (K) a[i] = t; t = 1; seq (K) t = k; a[i] = t; } }";
            let f = findings(src);
            assert_eq!(spans(src, &f), [("UC130", "t")]);
            assert_eq!(f[0].span.start, src.find("t; t = 1").unwrap(), "the read in the first `seq`");
            let f = findings(
                "index_set I:i = {0..7}, K:k = {0..2};\nint a[8];\n\
                 main() { par (I) { int t; seq (K) st (k == 0) t = 1; a[i] = t; } }",
            );
            assert!(f.is_empty(), "maybe-initialised: {f:?}");
        }

        /// `others` starts from the state before the construct, as every
        /// arm does: a store in the last arm is not overwritten by one in
        /// `others`, which runs where the arms do not.
        #[test]
        fn others_starts_a_straight_line_run_of_its_own() {
            let f = findings(
                "index_set I:i = {0..7}, K:k = {0..2};\nint a[8];\n\
                 main() { par (I) { int t; seq (K) st (k == 0) t = i; others t = 2 * i; a[i] = t; } }",
            );
            assert!(f.is_empty(), "{f:?}");
            let f = findings("index_set K:k = {0..2};\nint s;\nmain() { int x; seq (K) st (k > 0) x = k; others s = x; }");
            assert_eq!(codes_of(&f), ["UC130"], "`others` does not see the arm's store");
        }
    }
}
