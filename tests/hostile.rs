//! Hostile-input stress harness.
//!
//! Every program in `tests/corpus/hostile/` is written to break the
//! implementation: infinite loops, unbounded recursion, huge or empty
//! geometries, conflicting sends, division storms. The contract under
//! test is fault containment — each one must end in a structured
//! compile diagnostic or a structured [`RuntimeError`], never a panic,
//! a hang or an OOM, under both default and tightened budgets.
//!
//! A seeded generator (driven through the proptest shim so failures
//! shrink to a minimal statement list) extends the curated corpus with
//! arbitrary small programs assembled from the same attack fragments.

mod support;

use proptest::prelude::*;
use support::{render_program, FRAGMENTS};
use uc::cm::cost::Tally;
use uc::lang::{ExecConfig, ExecLimits, Program, RunError, RuntimeError};

fn corpus() -> Vec<(String, String)> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/hostile");
    let mut programs = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "uc") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            programs.push((name, std::fs::read_to_string(&path).unwrap()));
        }
    }
    programs.sort();
    assert!(programs.len() >= 10, "hostile corpus shrank to {}", programs.len());
    programs
}

/// The budgets `uc run` applies when no flags are given, plus a
/// wall-clock deadline: several corpus programs terminate only via the
/// 2^22-iteration cap, which takes minutes in debug builds. The
/// deadline is itself one of the budgets under test, so leaning on it
/// keeps the run honest *and* fast.
fn default_budgets() -> ExecConfig {
    let limits = ExecLimits { timeout_ms: Some(3_000), ..Default::default() };
    ExecConfig { limits, ..Default::default() }
}

/// The budgets a hosting service would impose per request.
fn tight_budgets() -> ExecConfig {
    let limits = ExecLimits {
        fuel: Some(50_000),
        max_mem_bytes: Some(1 << 20),
        max_call_depth: 16,
        max_iterations: 1_000,
        timeout_ms: Some(2_000),
    };
    ExecConfig { limits, ..Default::default() }
}

/// Compile and run one hostile program, asserting containment: a
/// structured rejection or a structured runtime error — in particular
/// never `RuntimeError::Internal`, which would mean a caught panic.
/// Returns the program and what its run left, for a re-run.
fn assert_contained(
    name: &str,
    src: &str,
    cfg: ExecConfig,
    label: &str,
) -> Option<(Program, Observed)> {
    let mut p = match Program::compile_with(src, cfg) {
        // A compile diagnostic is a structured rejection; it just has
        // to say something.
        Err(diags) => {
            assert!(!diags.to_string().is_empty(), "{name} [{label}]: empty diagnostics");
            return None;
        }
        Ok(p) => p,
    };
    let run = observe(&mut p);
    let err =
        run.0.as_ref().expect_err(&format!("{name} [{label}]: hostile program ran to completion"));
    assert!(
        !matches!(err.error, RuntimeError::Internal(_)),
        "{name} [{label}]: contained a panic instead of trapping cleanly: {err}"
    );
    assert!(!err.to_string().is_empty(), "{name} [{label}]: silent failure");
    Some((p, run))
}

/// A run's outcome, its tally and the fields live after it.
type Observed = (Result<(), RunError>, Tally, usize);

/// Run `p` on a fresh clock.
fn observe(p: &mut Program) -> Observed {
    p.reset_clock();
    let result = p.run();
    (result, *p.machine().tally(), p.machine().live_fields())
}

#[test]
fn corpus_is_contained_under_default_budgets() {
    for (name, src) in corpus() {
        assert_contained(&name, &src, default_budgets(), "default");
    }
}

/// Under budgets that trap before the deadline, a re-run of one program
/// repeats the trap exactly: the same error, span and call stack, the same
/// tally and the same fields left live.
#[test]
fn corpus_is_contained_under_tight_budgets() {
    for (name, src) in corpus() {
        if let Some((mut p, first)) = assert_contained(&name, &src, tight_budgets(), "tight") {
            assert_eq!(first, observe(&mut p), "{name}: a re-run differs");
        }
    }
}

/// Budget traps must read as budget traps: the CLI greps for this
/// phrase, and so do users' scripts.
#[test]
fn budget_traps_mention_the_budget() {
    let (name, src) = corpus()
        .into_iter()
        .find(|(name, _)| name == "infinite_machine_loop.uc")
        .expect("corpus lists infinite_machine_loop.uc");
    let limits = ExecLimits { fuel: Some(10_000), ..Default::default() };
    let mut p = Program::compile_with(&src, ExecConfig { limits, ..Default::default() })
        .unwrap_or_else(|d| panic!("{name}: {d}"));
    let err = p.run().expect_err("must exhaust fuel");
    assert!(err.to_string().contains("budget exceeded"), "{err}");
}

// Generated programs: arbitrary compositions of attack fragments
// (`support::render_program`).

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any sequence of attack fragments, at any small size, either runs
    /// to completion or traps with a structured, non-internal error
    /// under service budgets. The shrinker reduces a failure to the
    /// shortest offending statement list.
    #[test]
    fn generated_programs_are_contained(
        ops in prop::collection::vec(0usize..FRAGMENTS.len(), 0..10),
        n in 1i64..9,
    ) {
        let src = render_program(&ops, n);
        match Program::compile_with(&src, tight_budgets()) {
            Err(diags) => prop_assert!(!diags.to_string().is_empty(), "empty diagnostics"),
            Ok(mut p) => {
                let first = observe(&mut p);
                if let Err(e) = &first.0 {
                    prop_assert!(
                        !matches!(e.error, RuntimeError::Internal(_)),
                        "caught a panic from:\n{src}\n{e}"
                    );
                }
                prop_assert_eq!(&first, &observe(&mut p), "a re-run differs:\n{}", src);
            }
        }
    }
}
