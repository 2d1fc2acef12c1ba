//! Boundary behaviour of the executor's resource budgets: each limit is
//! exact — spending a budget to the last unit succeeds, the first unit
//! past it traps — and every trap is a structured error.

use uc_cm::CmError;
use uc_core::{ExecConfig, ExecLimits, Program, RuntimeError};

fn with_limits(src: &str, limits: ExecLimits) -> Program {
    let cfg = ExecConfig { limits, ..Default::default() };
    Program::compile_with(src, cfg).unwrap_or_else(|d| panic!("compile failed:\n{d}"))
}

/// A recursion of depth `n` plus the `main` activation itself.
const RECURSE: &str = r#"
    int out;
    int f(int n) {
        if (n <= 1) return 1;
        return f(n - 1) + 1;
    }
    main() { out = f(DEPTH); }
"#;

fn recurse_to(depth: i64, max_call_depth: usize) -> Result<(), uc_core::RunError> {
    let src = RECURSE.replace("DEPTH", &depth.to_string());
    let limits = ExecLimits { max_call_depth, ..Default::default() };
    with_limits(&src, limits).run()
}

#[test]
fn recursion_at_exactly_max_depth_succeeds() {
    // f(7) keeps 7 activations live below main: 8 frames == the budget.
    recurse_to(7, 8).expect("a stack exactly at the budget is legal");
}

#[test]
fn recursion_one_past_max_depth_traps() {
    let err = recurse_to(8, 8).expect_err("the ninth frame must trap");
    assert!(
        matches!(err.error, RuntimeError::CallDepthExceeded { max: 8 }),
        "{err}"
    );
    assert!(err.to_string().contains("budget exceeded"), "{err}");
}

const MACHINE_WORK: &str = r#"
    #define N 16
    index_set I:i = {0..N-1};
    int a[N], s;
    main() {
        par (I) a[i] = i * 3;
        s = $+(I; a[i]);
    }
"#;

#[test]
fn zero_fuel_traps_on_the_first_machine_op() {
    let limits = ExecLimits { fuel: Some(0), ..Default::default() };
    let err = with_limits(MACHINE_WORK, limits).run().expect_err("no fuel");
    assert!(
        matches!(err.error, RuntimeError::Cm(CmError::FuelExhausted { limit: 0 })),
        "{err}"
    );
}

#[test]
fn fuel_boundary_is_exact() {
    // Measure the program's true cost unmetered, then re-run with the
    // budget set to exactly that: it must succeed. One cycle less traps.
    let mut free = with_limits(MACHINE_WORK, ExecLimits::default());
    free.run().expect("unlimited run succeeds");
    let cost = free.cycles();
    assert!(cost > 0);

    let exact = ExecLimits { fuel: Some(cost), ..Default::default() };
    let mut p = with_limits(MACHINE_WORK, exact);
    p.run().expect("spending exactly the budget is fine");
    assert_eq!(p.read_int("s"), Some((0..16).map(|i| 3 * i).sum()));

    let starved = ExecLimits { fuel: Some(cost - 1), ..Default::default() };
    let err = with_limits(MACHINE_WORK, starved).run().expect_err("one short");
    assert!(
        matches!(err.error, RuntimeError::Cm(CmError::FuelExhausted { .. })),
        "{err}"
    );
}

#[test]
fn oversized_index_sets_are_rejected_at_compile_time() {
    // Index-set bounds are compile-time constants, so the front end can
    // (and must) refuse a 2^24-element materialisation before any
    // allocation happens; nothing evaluates a set after the front end.
    let src = "index_set J:j = {0..16777216};\nint s;\nmain() { s = $+(J; 1); }";
    let diags = Program::compile(src).expect_err("2^24 + 1 elements must be refused");
    let msg = diags.to_string();
    assert!(msg.contains("materialises") && msg.contains("limit"), "{msg}");
}

#[test]
fn memory_budget_flows_through_to_the_machine() {
    // 4096 ints = 32 KiB of field storage: over a 16 KiB budget the
    // global allocation itself is refused, as a compile diagnostic.
    let src = r#"
        #define N 4096
        index_set I:i = {0..N-1};
        int a[N];
        main() { par (I) a[i] = i; }
    "#;
    let limits = ExecLimits { max_mem_bytes: Some(16 * 1024), ..Default::default() };
    let cfg = ExecConfig { limits, ..Default::default() };
    let diags = Program::compile_with(src, cfg).expect_err("allocation must be refused");
    assert!(diags.to_string().contains("budget exceeded"), "{diags}");
}

#[test]
fn wall_clock_deadline_bounds_front_end_loops() {
    let limits = ExecLimits { timeout_ms: Some(50), ..Default::default() };
    let err = with_limits("main() { while (1) ; }", limits)
        .run()
        .expect_err("the spin must hit either the deadline or the iteration cap");
    assert!(
        matches!(
            err.error,
            RuntimeError::Cm(CmError::DeadlineExceeded { .. }) | RuntimeError::IterationLimit(_)
        ),
        "{err}"
    );
}
