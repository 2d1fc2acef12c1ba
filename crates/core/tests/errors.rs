//! Error behaviour: compile-time diagnostics and runtime failures, each
//! exercising a rule of the paper.

use uc_core::analysis::{check_source, LintConfig};
use uc_core::{Program, RuntimeError};

fn compile_err(src: &str) -> String {
    match Program::compile(src) {
        Err(d) => d.to_string(),
        Ok(_) => panic!("expected compile failure"),
    }
}

fn runtime_err(src: &str) -> RuntimeError {
    let mut p = Program::compile(src).unwrap_or_else(|d| panic!("compile failed:\n{d}"));
    p.run().expect_err("expected runtime failure").error
}

// ---- compile-time -----------------------------------------------------------

#[test]
fn goto_is_rejected() {
    let msg = compile_err("main() { goto done; }");
    assert!(msg.contains("goto"), "{msg}");
}

#[test]
fn unknown_index_set() {
    let msg = compile_err("main() { par (Nope) ; }");
    assert!(msg.contains("Nope"), "{msg}");
}

#[test]
fn index_element_is_read_only() {
    let msg = compile_err("index_set I:i = {0..3};\nmain() { par (I) i = 0; }");
    assert!(msg.contains("read-only"), "{msg}");
}

#[test]
fn assignment_to_define_constant() {
    let msg = compile_err("#define N 4\nmain() { N = 5; }");
    assert!(msg.contains("constant"), "{msg}");
}

#[test]
fn wrong_subscript_arity() {
    let msg = compile_err(
        "#define N 4\nint d[N][N];\nindex_set I:i = {0..N-1};\nmain() { par (I) d[i] = 0; }",
    );
    assert!(msg.contains("rank"), "{msg}");
}

#[test]
fn empty_index_set_range() {
    let msg = compile_err("index_set I:i = {5..2};\nmain() {}");
    assert!(msg.contains("empty") || msg.contains("reversed"), "{msg}");
}

#[test]
fn solve_double_assignment() {
    let msg = compile_err(
        "#define N 4\nindex_set I:i = {0..N-1};\nint a[N];\nmain() { solve (I) { a[i] = 1; a[i] = 2; } }",
    );
    assert!(msg.contains("more than one"), "{msg}");
}

#[test]
fn solve_with_loops_inside() {
    let msg = compile_err(
        "#define N 4\nindex_set I:i = {0..N-1};\nint a[N];\nmain() { solve (I) for (;;) a[i] = 0; }",
    );
    assert!(msg.contains("assignment"), "{msg}");
}

#[test]
fn bad_reduction_syntax() {
    let msg = compile_err(
        "index_set I:i = {0..3};\nint s;\nmain() { s = $+(I i); }",
    );
    assert!(msg.contains(";"), "{msg}");
}

#[test]
fn unsupported_preprocessor() {
    let msg = compile_err("#include <stdio.h>\nmain() {}");
    assert!(msg.contains("include") || msg.contains("directive"), "{msg}");
}

#[test]
fn negative_array_extent() {
    let msg = compile_err("#define N 0\nint a[N];\nmain() {}");
    assert!(msg.contains("positive"), "{msg}");
}

#[test]
fn seq_over_multiple_sets() {
    let msg = compile_err(
        "index_set I:i = {0..3}, J:j = I;\nint a[4];\nmain() { seq (I, J) a[i] = j; }",
    );
    assert!(msg.contains("single"), "{msg}");
}

#[test]
fn diagnostics_carry_positions() {
    let msg = compile_err("int a[4];\n\nmain() { b = 1; }");
    assert!(msg.contains("3:"), "line number expected: {msg}");
}

/// Constant expressions wrap like the run-time arithmetic, so the three
/// overflowing forms (`i64::MIN / -1`, `-i64::MIN`, `i64::MIN % -1`) end in
/// a spanned diagnostic from `compile` and from `uc check` alike — a
/// host-side `/`, `-` or `%` would abort with an overflow panic.
#[test]
fn overflowing_constants_are_diagnostics() {
    for (src, expected, at) in [
        (
            "int a[(0-INF-1) / (0-1)];\nmain() {}",
            "array extent must be positive, got -9223372036854775808",
            "1:17",
        ),
        (
            "index_set I:i = {0 .. -(0-INF-1)};\nmain() {}",
            "index-set range {0..-9223372036854775808} is empty or reversed",
            "1:11",
        ),
        ("int a[(0-INF-1) % (0-1)];\nmain() {}", "array extent must be positive, got 0", "1:17"),
    ] {
        let msg = compile_err(src);
        assert!(msg.contains(expected) && msg.contains(at), "{src}: {msg}");
        let checked = check_source(src, &[], &LintConfig::default());
        assert!(checked.has_errors(), "{src}");
        let msg = checked.to_string();
        assert!(msg.contains(expected) && msg.contains(at), "{src}: {msg}");
    }
}

/// Facts that are lexical or constant, so `uc check` reports them
/// instead of `uc run` discovering them: both entry points give the same
/// spanned diagnostic, and legal neighbours of each still compile.
#[test]
fn what_cannot_run_is_a_compile_error() {
    let prelude = "index_set I:i = {0..3}, J:j = I;\nint a[4], s;\n";
    for (body, expected, at) in [
        ("int t[0];", "array extent must be positive, got 0", "3:16"),
        (
            "par (I) { int t[2]; a[i] = 1; }",
            "array declarations inside a parallel construct",
            "3:24",
        ),
        (
            "oneof (I) st (a[i] > 0) a[i] = 0; others a[i] = 1;",
            "`others` is not supported on `oneof` statements",
            "3:10",
        ),
        (
            "solve (I) st (i > 0) a[i] = 1;",
            "`st` predicates are not supported on `solve` statements",
            "3:26",
        ),
        (
            "*solve (I) st (i > 0) a[i] = 1;",
            "`st` predicates are not supported on `solve` statements",
            "3:27",
        ),
        ("solve (I) s = 1;", "solve targets must be array elements", "3:20"),
        ("*solve (I) s = s + 1;", "solve targets must be array elements", "3:21"),
        (
            "par (I) { int r; par (J) r = j; a[i] = r; }",
            "cannot assign to `r` from a more deeply nested construct",
            "3:35",
        ),
        (
            "par (I) { int r; a[i] = $+(J; r = j); }",
            "cannot assign to `r` from a more deeply nested construct",
            "3:40",
        ),
        (
            "par (I) { int r; r = 0; par (J) swap(r, a[j]); }",
            "cannot assign to `r` from a more deeply nested construct",
            "3:47",
        ),
        // `swap` stores to both operands.
        ("par (I) swap(i, a[i]);", "cannot assign to index element `i` (read-only)", "3:23"),
        ("seq (I) swap(a[i], i);", "cannot assign to index element `i` (read-only)", "3:29"),
    ] {
        let src = format!("{prelude}main() {{ {body} }}");
        let msg = compile_err(&src);
        assert!(msg.contains(expected) && msg.contains(at), "{body}: {msg}");
        let checked = check_source(&src, &[], &LintConfig::default());
        assert!(checked.has_errors(), "{body}");
        let msg = checked.to_string();
        assert!(msg.contains(expected) && msg.contains(at), "{body}: {msg}");
    }
    for body in [
        "int t[2]; par (I) a[i] = 1;",
        // Reading a per-processor local from a nested construct lifts it.
        "par (I) { int r; r = i; par (J) a[j] = r; }",
        // The reduction is nested; the assignment is not.
        "par (I) { int r; r = $+(J; j); a[i] = r; }",
        // A front-end local is one scalar wherever it is assigned from.
        "int n; n = 0; par (I) n = 1;",
        "*solve (I) a[i] = a[i] / 2;",
    ] {
        let src = format!("{prelude}main() {{ {body} }}");
        Program::compile(&src).unwrap_or_else(|d| panic!("{body}: {d}"));
    }
}

// ---- runtime ----------------------------------------------------------------

#[test]
fn distinct_multiple_assignment() {
    let err = runtime_err(
        r#"
        #define N 4
        index_set I:i = {0..N-1}, J:j = I;
        int a[N], b[N];
        main() {
            par (I) b[i] = i;
            par (I, J) a[i] = b[j];
        }
        "#,
    );
    assert!(matches!(err, RuntimeError::MultipleAssignment { ref name } if name == "a"), "{err}");
}

#[test]
fn out_of_bounds_parallel_write() {
    let err = runtime_err(
        r#"
        #define N 4
        index_set I:i = {0..N-1};
        int a[N];
        main() { par (I) a[i + 1] = 0; }
        "#,
    );
    assert!(matches!(err, RuntimeError::OutOfBounds { ref name } if name == "a"), "{err}");
}

/// `i + INF` over `{1..N}`: the offset `1 + INF` overflows. The lint and
/// the executor share one classifier, which calls the subscript general
/// instead of aborting, so `uc check` stays clean and the run traps.
#[test]
fn overflowing_subscript_offset_is_out_of_bounds() {
    let src = "#define N 4\nindex_set I:i = {1..N};\nint a[8];\nmain() { par (I) a[i + INF] = 0; }";
    let checked = check_source(src, &[], &LintConfig::default());
    assert!(checked.items.is_empty(), "{checked}");
    let mut p = Program::compile(src).unwrap_or_else(|d| panic!("{d}"));
    let err = p.run().expect_err("the write is out of bounds");
    assert!(matches!(err.error, RuntimeError::OutOfBounds { ref name } if name == "a"), "{err}");
    assert_eq!(err.span.line, 4, "{err}");
}

#[test]
fn out_of_bounds_front_end_access() {
    let err = runtime_err(
        r#"
        #define N 4
        int a[N], x;
        main() { x = a[9]; }
        "#,
    );
    assert!(matches!(err, RuntimeError::OutOfBounds { .. }), "{err}");
}

#[test]
fn division_by_zero_parallel() {
    let err = runtime_err(
        r#"
        #define N 4
        index_set I:i = {0..N-1};
        int a[N];
        main() { par (I) a[i] = 10 / i; }
        "#,
    );
    assert!(matches!(err, RuntimeError::Cm(_)), "{err}");
}

#[test]
fn division_by_zero_guarded_is_fine() {
    let mut p = Program::compile(
        r#"
        #define N 4
        index_set I:i = {0..N-1};
        int a[N];
        main() { par (I) st (i != 0) a[i] = 12 / i; }
        "#,
    )
    .unwrap();
    p.run().unwrap();
    assert_eq!(p.read_int_array("a").unwrap(), vec![0, 12, 6, 4]);
}

#[test]
fn division_by_zero_front_end() {
    let err = runtime_err("int x;\nmain() { x = 1 / (x - x); }");
    assert!(matches!(err, RuntimeError::DivideByZero), "{err}");
}

#[test]
fn iteration_limit_on_divergent_star_par() {
    let src = r#"
        #define N 4
        index_set I:i = {0..N-1};
        int a[N];
        main() { *par (I) st (1) a[i] = a[i] + 1; }
    "#;
    let limits = uc_core::ExecLimits { max_iterations: 100, ..Default::default() };
    let cfg = uc_core::ExecConfig { limits, ..Default::default() };
    let mut p = Program::compile_with(src, cfg).unwrap();
    let err = p.run().expect_err("must hit the iteration cap");
    assert!(matches!(err.error, RuntimeError::IterationLimit(_)), "{err}");
}

#[test]
fn iteration_limit_on_infinite_while() {
    let src = "main() { while (1) ; }";
    let limits = uc_core::ExecLimits { max_iterations: 100, ..Default::default() };
    let cfg = uc_core::ExecConfig { limits, ..Default::default() };
    let mut p = Program::compile_with(src, cfg).unwrap();
    let err = p.run().expect_err("must hit the iteration cap");
    assert!(matches!(err.error, RuntimeError::IterationLimit(_)));
}

#[test]
fn front_end_control_inside_par_rejected() {
    let msg = compile_err(
        r#"
        #define N 4
        index_set I:i = {0..N-1};
        int a[N];
        main() { par (I) while (a[i] < 3) a[i] += 1; }
        "#,
    );
    assert!(msg.contains("`while` inside a parallel construct"), "{msg}");
    assert!(msg.contains("5:26"), "diagnostic must carry the statement's position: {msg}");
}

#[test]
fn main_with_parameters_rejected() {
    let msg = compile_err("int out;\nmain(int n) { out = n; }");
    assert!(msg.contains("`main` takes no parameters"), "{msg}");
    assert!(msg.contains("2:1"), "diagnostic must carry main's position: {msg}");
}

/// A function too large for the 65 535-slot register file cannot run at
/// all (the VM is the only executor): a compile diagnostic names it.
#[test]
fn register_file_overflow_is_a_compile_error() {
    let mut src = String::from("int out;\nint huge() {\n");
    for k in 0..=u16::MAX as usize {
        src.push_str(&format!("int v{k};\n"));
    }
    src.push_str("return 1;\n}\nmain() { out = huge(); }\n");
    let msg = compile_err(&src);
    assert!(msg.contains("function `huge` needs more than 65535 registers"), "{msg}");
    assert!(!msg.contains("`main`"), "{msg}");
}

#[test]
fn scalar_assigned_parallel_value_rejected() {
    let err = runtime_err(
        r#"
        #define N 4
        index_set I:i = {0..N-1};
        int s;
        main() { par (I) s = i; }
        "#,
    );
    assert!(matches!(err, RuntimeError::NotSupported(_)), "{err}");
}

#[test]
fn runtime_errors_display_cleanly() {
    let e = RuntimeError::MultipleAssignment { name: "a".into() };
    assert!(e.to_string().contains("distinct values"));
    let e = RuntimeError::OutOfBounds { name: "a".into() };
    assert!(e.to_string().contains("bounds"));
    let e = RuntimeError::IterationLimit("*par");
    assert!(e.to_string().contains("*par"));
}

#[test]
fn compile_error_recovery_reports_several() {
    let msg = compile_err(
        "index_set I:i = {0..3};\nmain() { x = 1; y = 2; par (Q) ; }",
    );
    assert!(msg.matches("error").count() >= 3, "{msg}");
}
