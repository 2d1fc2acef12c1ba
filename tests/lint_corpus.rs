//! Golden lint corpus.
//!
//! Every `tests/corpus/*.uc` file declares the exact findings `uc check`
//! must report in a leading `// expect: CODE@LINE ...` header (an empty
//! list marks a program every lint must stay silent on). The harness
//! runs the full pipeline — lex, parse, sema (which resolves and
//! interprets the map section and records what the lints report), the
//! lints — and compares code + line against the header, so lint spans are
//! pinned by the corpus, not just by unit tests. `lints.txt` pins every
//! diagnostic's column and message too.

use std::fs;
use std::path::{Path, PathBuf};

use uc::lang::analysis::{self, LintConfig, LINTS};
use uc::lang::diag::Diagnostics;
use uc::lang::sema;
use uc::lang::{ExecConfig, ExecLimits, Program, RunError, RuntimeError};

fn corpus() -> Vec<(PathBuf, String)> {
    programs_in("tests/corpus")
}

/// The `.uc` files of `dir`, relative to the repository, sorted, with
/// their text.
fn programs_in(dir: &str) -> Vec<(PathBuf, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("the corpus directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "uc"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let src = fs::read_to_string(&p).expect("readable corpus file");
            (p, src)
        })
        .collect()
}

/// The `CODE@LINE` entries from the `// expect:` header, sorted.
fn expectations(path: &Path, src: &str) -> Vec<String> {
    let first = src.lines().next().unwrap_or("");
    let Some(rest) = first.strip_prefix("// expect:") else {
        panic!("{} is missing its `// expect:` header", path.display());
    };
    let mut out: Vec<String> = rest.split_whitespace().map(str::to_string).collect();
    out.sort();
    out
}

#[test]
fn corpus_findings_match_headers() {
    let files = corpus();
    assert!(files.len() >= 10, "corpus shrank to {} files", files.len());
    for (path, src) in &files {
        let expected = expectations(path, src);
        let diags = analysis::check_source(src, &[], &LintConfig::default());
        assert!(
            !diags.has_errors(),
            "{} must be a valid program:\n{diags}",
            path.display()
        );
        let mut got: Vec<String> = diags
            .items
            .iter()
            .filter_map(|d| d.code.map(|c| format!("{c}@{}", d.span.line)))
            .collect();
        got.sort();
        assert_eq!(got, expected, "{} findings diverge from header", path.display());
    }
}

/// Every diagnostic `uc check` reports on every committed program — the
/// lint corpus, the hostile corpus, the examples and the figure
/// programs — as its code, `line:col` and message, byte for byte: a
/// `// expect:` header pins only `CODE@LINE`. To refresh the golden after
/// a deliberate change to a message or a span:
///
/// ```text
/// cargo build --release
/// for f in tests/corpus/*.uc tests/corpus/hostile/*.uc examples/uc/*.uc crates/bench/programs/*.uc; do
///     ./target/release/uc check "$f" 2>&1 >/dev/null
/// done > tests/corpus/golden/lints.txt    # under LC_ALL=C, so the globs sort by byte
/// ```
#[test]
fn every_diagnostic_matches_the_lint_golden() {
    let mut got = String::new();
    for dir in ["tests/corpus", "tests/corpus/hostile", "examples/uc", "crates/bench/programs"] {
        for (path, src) in programs_in(dir) {
            let name = format!("{dir}/{}", path.file_name().unwrap().to_string_lossy());
            let diags = analysis::check_source(&src, &[], &LintConfig::default());
            got.push_str(&diags.render_with_path(&name));
        }
    }
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/golden/lints.txt");
    let golden = fs::read_to_string(&golden).expect("the lint golden exists");
    for (k, (got, want)) in got.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "lints.txt line {} differs", k + 1);
    }
    assert_eq!(got.lines().count(), golden.lines().count(), "lints.txt line count");
    assert_eq!(got, golden);
}

#[test]
fn corpus_covers_every_lint_code() {
    let mut covered: Vec<&str> = Vec::new();
    for (path, src) in &corpus() {
        for entry in expectations(path, src) {
            let code = entry.split('@').next().unwrap();
            let code = analysis::lint(code)
                .unwrap_or_else(|| panic!("{}: unknown code {code}", path.display()));
            covered.push(code);
        }
    }
    for code in LINTS {
        assert!(covered.contains(code), "no positive corpus program triggers {code}");
    }
}

/// Every code a pass emits is one `--deny`/`--allow` accepts.
#[test]
fn every_finding_code_is_a_lint_code() {
    for (path, src) in &corpus() {
        let mut diags = Diagnostics::default();
        let checked = sema::front_end(src, &[], &mut diags)
            .unwrap_or_else(|| panic!("{} must be a valid program:\n{diags}", path.display()));
        for f in analysis::analyze(&checked) {
            assert_eq!(analysis::lint(f.code), Some(f.code), "{}: {}", path.display(), f.message);
        }
    }
}

#[test]
fn deny_warnings_fails_positive_and_passes_clean_programs() {
    let mut cfg = LintConfig::default();
    cfg.deny("warnings").unwrap();
    for (path, src) in &corpus() {
        let expected = expectations(path, src);
        let diags = analysis::check_source(src, &[], &cfg);
        assert_eq!(
            diags.has_errors(),
            !expected.is_empty(),
            "{} under --deny warnings",
            path.display()
        );
    }
}

#[test]
fn allowing_a_code_silences_it() {
    let (path, src) = corpus()
        .into_iter()
        .find(|(p, _)| p.ends_with("race_mono_element.uc"))
        .expect("race_mono_element.uc in corpus");
    let mut cfg = LintConfig::default();
    cfg.allow("UC101").unwrap();
    let diags = analysis::check_source(&src, &[], &cfg);
    assert!(
        diags.items.iter().all(|d| d.code != Some("UC101")),
        "{}: UC101 still reported under --allow UC101",
        path.display()
    );
}

/// The lint and the trap are one rule (ROADMAP law 1(d)): every corpus
/// program whose run ends in `MultipleAssignment` has a UC101 naming the
/// same step and array, and no `clean_*.uc` run ends in one. The hostile
/// programs run under tight budgets, the others under a deadline only.
#[test]
fn every_collision_trap_has_its_uc101() {
    let hostile = programs_in("tests/corpus/hostile").into_iter().map(|(p, src)| (p, src, true));
    let mut traps = 0;
    for (path, src, tight) in corpus().into_iter().map(|(p, src)| (p, src, false)).chain(hostile) {
        let limits = match tight {
            true => ExecLimits { fuel: Some(2_000_000), max_iterations: 1_000, ..Default::default() },
            false => ExecLimits::default(),
        };
        let limits = ExecLimits { timeout_ms: Some(5_000), ..limits };
        let Ok(mut p) = Program::compile_with(&src, ExecConfig { limits, ..Default::default() }) else {
            continue;
        };
        let Err(RunError { error: RuntimeError::MultipleAssignment { step, name }, .. }) = p.run() else {
            continue;
        };
        traps += 1;
        let file = path.file_name().unwrap().to_string_lossy();
        assert!(!file.starts_with("clean_"), "{file} traps on distinct values in `{step}`");
        let (step_text, location) = (format!("race in `{step}`"), format!("location `{name}["));
        let diags = analysis::check_source(&src, &[], &LintConfig::default());
        let named = diags.items.iter().any(|d| {
            d.code == Some("UC101") && d.message.contains(&step_text) && d.message.contains(&location)
        });
        assert!(named, "{file} traps in `{step}` on `{name}`, and no UC101 says so:\n{diags}");
    }
    assert!(traps >= 10, "only {traps} programs trap on distinct values");
}
