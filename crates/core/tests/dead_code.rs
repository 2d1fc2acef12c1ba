//! Only what `main` reaches is compiled: a function it never calls,
//! directly or through other calls, decides nothing about compilation —
//! neither the register-file check nor whether a run stays on the
//! calling thread — while one called only from a parallel construct or a
//! reduction is reached like any other.

use uc_core::Program;

fn compile(src: &str) -> Program {
    Program::compile(src).unwrap_or_else(|d| panic!("compile failed:\n{d}"))
}

/// `errors.rs::register_file_overflow_is_a_compile_error` calls the same
/// function from `main`; here nothing does, so it is never lowered.
#[test]
fn an_unreachable_function_may_overflow_the_register_file() {
    let mut src = String::from("int out;\nint huge() {\n");
    for k in 0..=u16::MAX as usize {
        src.push_str(&format!("int v{k};\n"));
    }
    src.push_str("return 1;\n}\nmain() { out = 7; }\n");
    let mut p = compile(&src);
    p.run().unwrap_or_else(|e| panic!("runtime error: {e}"));
    assert_eq!(p.read_int("out"), Some(7));
    assert!(!p.emit_ir().contains("huge"));
}

/// A user call inside a tree escape sends a run to the big-stack thread
/// (`inline=no`) only when the function holding it can run.
#[test]
fn an_unreachable_escaped_call_leaves_the_run_inline() {
    let program = |main: &str| {
        format!(
            "index_set I:i = {{0..3}};\nint a[4], g;\nint one() {{ return 1; }}\n\
             int dead() {{ par (I) a[i] = one(); return 0; }}\nmain() {{ {main} }}"
        )
    };
    let header = |p: &Program| p.emit_ir().lines().next().unwrap_or_default().to_string();
    let mut p = compile(&program("g = 1;"));
    assert_eq!(header(&p), ";; uc register ir, inline=yes");
    p.run().unwrap_or_else(|e| panic!("runtime error: {e}"));
    assert_eq!(p.read_int("g"), Some(1));
    // The same escape, reached, does decide it.
    let p = compile(&program("g = dead();"));
    assert_eq!(header(&p), ";; uc register ir, inline=no");
}

/// A function called only from a `par` body or a reduction, or from such
/// a function, is lowered, and its results are right.
#[test]
fn a_function_called_only_from_escapes_is_lowered() {
    let mut p = compile(
        "#define N 8\nindex_set I:i = {0..N-1};\nint a[N], s;\n\
         int twice(int v) { return 2 * v; }\nint inner() { return 1; }\n\
         int three() { return inner() + 2; }\n\
         main() { par (I) a[i] = i + twice(5); s = $+(I; i * three()); }",
    );
    let ir = p.emit_ir();
    for f in ["twice", "inner", "three", "main"] {
        assert!(
            ir.contains(&format!("func {f}(")),
            "`{f}` is not lowered:\n{ir}"
        );
    }
    p.run().unwrap_or_else(|e| panic!("runtime error: {e}"));
    assert_eq!(
        p.read_int_array("a").unwrap(),
        (10..18).collect::<Vec<i64>>()
    );
    assert_eq!(p.read_int("s"), Some(3 * 28));
}
