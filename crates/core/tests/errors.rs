//! Error behaviour: compile-time diagnostics and runtime failures, each
//! exercising a rule of the paper.

use std::path::Path;

use uc_core::analysis::{check_source, LintConfig};
use uc_core::ast::*;
use uc_core::parser::parse;
use uc_core::{sema, Diagnostics, Program, RuntimeError, Severity, Span};

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

/// Facts that are lexical, constant or a matter of rank (front-end scalar
/// or one value per virtual processor), so `uc check` reports them
/// instead of `uc run` discovering them: both entry points give the same
/// spanned diagnostic, and legal neighbours of each still compile.
#[test]
fn what_cannot_run_is_a_compile_error() {
    let prelude = "index_set I:i = {0..3}, J:j = I;\n\
                   int a[4], b[4], s, x; int f(int n) { return n + 1; }\n";
    let to_scalar = |name: &str| {
        format!("cannot store a parallel value to front-end scalar `{name}` (combine the values")
    };
    let to_f = "a parallel value is passed to `f` (user functions run on the front end)";
    let in_solve = "a `solve` right-hand side cannot contain an assignment or a reduction";
    for (body, expected, at) in [
        // A front-end scalar holds one value: an element, a per-processor
        // local, an array read and a nested reduction each have one per
        // virtual processor, whatever the guard.
        ("par (I) s = i;", &*to_scalar("s"), "3:18"),
        ("par (I) { int k; k = i; s = k; }", &*to_scalar("s"), "3:34"),
        ("par (I) s = a[0];", &*to_scalar("s"), "3:18"),
        ("par (I) st (i == 0) s = $+(I; a[i]);", &*to_scalar("s"), "3:30"),
        ("par (I) s += i;", &*to_scalar("s"), "3:18"),
        ("par (I) swap(s, a[i]);", &*to_scalar("s"), "3:23"),
        ("par (I) swap(a[i], x);", &*to_scalar("x"), "3:29"),
        // A user function runs once, on the front end.
        ("par (I) a[i] = f(i);", to_f, "3:27"),
        ("par (I) a[i] = f(s) + f(rand());", to_f, "3:34"),
        ("x = swap(a[0], a[1]);", "`swap` is a statement: it has no value", "3:14"),
        ("solve (I) a[i] = $+(J; b[j]);", in_solve, "3:27"),
        ("solve (I) a[i] = (b[i] = 1);", in_solve, "3:33"),
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
        // Front-end values stay front-end values inside a construct...
        "par (I) a[i] = f(s);",
        "par (I) st (a[i] > 1) a[i] = f(2);",
        "par (I) s = 3;",
        "par (I) { int k; k = i; s = (a[i] = 3); x = (k = 4); }",
        // ...and outside every construct a reduction folds to one.
        "s = $+(I; a[i]);",
        "s = f($+(I; a[i]) + a[0]);",
        "*solve (I) a[i] = min(a[i], $<(J; a[j]));",
    ] {
        let src = format!("{prelude}main() {{ {body} }}");
        Program::compile(&src).unwrap_or_else(|d| panic!("{body}: {d}"));
    }
}

/// Sema keeps going: five unrelated rank and call-shape errors in one
/// `main` are five spanned diagnostics, from both entry points.
#[test]
fn independent_errors_yield_one_diagnostic_each() {
    let src = "index_set I:i = {0..3}, J:j = I;\n\
               int a[4], s, x; int f(int n) { return n + 1; }\n\
               main() { par (I) s = f(i); x = swap(s, x) + 1; solve (I) a[i] = $+(J; a[j]); \
               par (J) { int k; k = j; x = k; } par (I) swap(a[i], s); }";
    let at = ["3:24", "3:32", "3:65", "3:102", "3:130"];
    let compiled = compile_err(src);
    let checked = check_source(src, &[], &LintConfig::default());
    assert_eq!(checked.items.len(), at.len(), "{checked}");
    for (d, at) in checked.items.iter().zip(at) {
        assert_eq!(d.severity, uc_core::Severity::Error, "{d}");
        assert_eq!(d.span.to_string(), at, "{d}");
        assert!(compiled.contains(&d.to_string()), "{d} is not among\n{compiled}");
    }
}

/// A failed definition stays bound: the uses of an empty set, of its
/// element, of an alias of it and of an array with a zero extent report
/// nothing beyond the two errors, from both entry points.
#[test]
fn a_failed_definition_reports_no_follow_on_errors() {
    let src = "#define N 4\nindex_set I:i = {0..N-1};\n\
               index_set J:j = {0..N-5}, K:k = J;\nint a[N-4];\n\
               main() { par (I) a[i] = i; par (J) a[j] = j; par (K) a[k] = k; a[0] = 1; }";
    let expected = [
        "error: index-set range {0..-1} is empty or reversed at 3:11",
        "error: array extent must be positive, got 0 at 4:8",
    ];
    let compiled = compile_err(src);
    assert_eq!(compiled.lines().collect::<Vec<_>>(), expected, "{compiled}");
    let checked = check_source(src, &[], &LintConfig::default());
    let lines: Vec<String> = checked.items.iter().map(|d| d.to_string()).collect();
    assert_eq!(lines, expected, "{checked}");
}

/// One scope declares a name once, as in C — and a function's parameters
/// and its body's outer block are one scope. Each redeclaration is one
/// spanned error, from both entry points.
#[test]
fn a_name_is_declared_once_per_scope() {
    for (src, expected) in [
        (
            "int s;\nint f(int x, int x) { return x; }\nmain() { s = f(1, 2); }",
            "error: `x` is already declared in this scope at 2:18",
        ),
        (
            "int s;\nmain() { { int y; int y; } s = 1; }",
            "error: `y` is already declared in this scope at 2:23",
        ),
        (
            "int s;\nint f(int x) { int x; x = 3; return x; }\nmain() { s = f(1); }",
            "error: `x` is already declared in this scope at 2:20",
        ),
    ] {
        let compiled = compile_err(src);
        assert_eq!(compiled.lines().collect::<Vec<_>>(), [expected], "{src}");
        let checked = check_source(src, &[], &LintConfig::default());
        let lines: Vec<String> = checked.items.iter().map(|d| d.to_string()).collect();
        assert_eq!(lines, [expected], "{src}");
    }
    // A nested block is a scope of its own: shadowing stays legal.
    let src = "int s, t;\nint f(int x) { { int x; x = 3; t = x; } return x; }\nmain() { s = f(1); }";
    let mut p = Program::compile(src).unwrap_or_else(|d| panic!("compile failed:\n{d}"));
    p.run().unwrap();
    assert_eq!((p.read_int("s"), p.read_int("t")), (Some(1), Some(3)));
}

/// An index set is defined once per scope, and one global namespace
/// holds scalars, arrays and functions, as in C. Each second declaration is one
/// spanned error at that declaration, from both entry points.
#[test]
fn a_set_or_a_global_name_is_defined_once() {
    for (src, expected) in [
        (
            "int a[4];\nindex_set I:i = {0..3};\nindex_set I:i = {0..1};\nmain() { par (I) a[i] = 1; }",
            "error: index set `I` redefined at 3:11",
        ),
        (
            "int a[4];\nmain() { index_set I:i = {0..3};\n index_set I:i = {0..1}; par (I) a[i] = 1; }",
            "error: `I` is already declared in this scope at 3:12",
        ),
        (
            "int g;\nint g(int x) { return x + 1; }\nmain() { g = g(3); }",
            "error: `g` is already declared as a variable at 2:5",
        ),
        (
            "int g[2];\nint g(int x) { return x + 1; }\nmain() { g[0] = g(3); }",
            "error: `g` is already declared as a variable at 2:5",
        ),
        (
            "int g(int x) { return x + 1; }\nint g;\nmain() { g = g(3); }",
            "error: `g` is already declared as a function at 2:5",
        ),
        ("int a;\nint a[4];\nmain() { a = 1; }", "error: `a` is already declared as a variable at 2:5"),
        ("int a[4];\nint a;\nmain() { a[0] = 1; }", "error: `a` is already declared as an array at 2:5"),
    ] {
        let compiled = compile_err(src);
        assert_eq!(compiled.lines().collect::<Vec<_>>(), [expected], "{src}");
        let checked = check_source(src, &[], &LintConfig::default());
        let lines: Vec<String> = checked.items.iter().map(|d| d.to_string()).collect();
        assert_eq!(lines, [expected], "{src}");
    }
    // An index set in an inner scope still shadows an outer one.
    let src = "int s;\nindex_set I:i = {0..3};\nmain() { { index_set I:i = {0..1}; s = $+(I; i); } }";
    let mut p = Program::compile(src).unwrap_or_else(|d| panic!("compile failed:\n{d}"));
    p.run().unwrap();
    assert_eq!(p.read_int("s"), Some(1));
}

/// A second declaration of each name `unit` declares, in the same scope:
/// where to insert it in `src`, and its text. It goes after a global's,
/// local's or index set's statement (as another arm after a guarded
/// arm's), after a function, and after a parameter in its list.
fn redeclarations(src: &str, unit: &Unit) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for item in &unit.items {
        match item {
            Item::Var(v) => out.push(redeclare_var(src, v, "")),
            Item::IndexSets(defs) => out.extend(defs.iter().map(|def| redeclare_set(src, def))),
            Item::Func(f) => {
                out.push((f.span.end, format!("\nint {}() {{ return 0; }}", f.name)));
                out.extend(f.params.iter().map(|(_, name, span)| (span.end, format!(", int {name}"))));
                redeclare_locals(src, &f.body.stmts, &mut out);
            }
            Item::Map(_) => {}
        }
    }
    out
}

/// Every local and index set declared in the block `stmts` or below it.
fn redeclare_locals(src: &str, stmts: &[Stmt], out: &mut Vec<(usize, String)>) {
    for s in stmts {
        match s {
            Stmt::Decl(v) => out.push(redeclare_var(src, v, "")),
            Stmt::IndexSets(defs) => out.extend(defs.iter().map(|def| redeclare_set(src, def))),
            _ => {}
        }
        redeclare_nested(src, s, out);
    }
}

fn redeclare_nested(src: &str, s: &Stmt, out: &mut Vec<(usize, String)>) {
    match s {
        Stmt::Block(b) => return redeclare_locals(src, &b.stmts, out),
        // A guarded arm's declaration is in the construct's scope, so the
        // second is another arm.
        Stmt::Uc(uc) => {
            for arm in &uc.arms {
                if let (Some(_), Stmt::Decl(v)) = (&arm.pred, &arm.body) {
                    out.push(redeclare_var(src, v, " st (1)"));
                }
            }
        }
        _ => {}
    }
    s.for_each_child(|n| {
        if let Node::Stmt(s) = n {
            redeclare_nested(src, s, out);
        }
    });
}

/// The end of the statement whose declaration ends at `span`.
fn after_statement(src: &str, span: Span) -> usize {
    span.end + src[span.end..].find(';').expect("a `;`") + 1
}

fn redeclare_var(src: &str, v: &VarDecl, arm: &str) -> (usize, String) {
    let dims = if v.dims.is_empty() { "" } else { "[1]" };
    (after_statement(src, v.span), format!("{arm} int {}{dims};", v.name))
}

fn redeclare_set(src: &str, def: &IndexSetDef) -> (usize, String) {
    (after_statement(src, def.span), format!(" index_set {}:again = {{0..0}};", def.name))
}

/// The redeclaration law: in every program of the examples, the lint
/// corpus and the figures, a second declaration of any name it declares —
/// a global, a parameter, a local, an index set, an array or a function —
/// in the same scope is exactly one error, at the second declaration.
#[test]
fn every_redeclaration_is_one_error_at_the_second() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (mut cases, mut wrong) = (0, Vec::new());
    for dir in ["examples/uc", "tests/corpus", "crates/bench/programs"] {
        let mut files: Vec<_> = std::fs::read_dir(root.join(dir))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "uc"))
            .collect();
        files.sort();
        for path in files {
            let src = std::fs::read_to_string(&path).unwrap();
            let unit = parse(&src, &mut Diagnostics::default()).expect("the program parses");
            for (at, text) in redeclarations(&src, &unit) {
                let redeclared = format!("{}{text}{}", &src[..at], &src[at..]);
                let mut diags = Diagnostics::default();
                sema::front_end(&redeclared, &[], &mut diags);
                let errors: Vec<_> = diags.items.iter().filter(|d| d.severity == Severity::Error).collect();
                let inserted = at..at + text.len();
                if errors.len() != 1 || !inserted.contains(&errors[0].span.start) {
                    wrong.push(format!("{} + `{}` at byte {at}:\n{diags}", path.display(), text.trim()));
                }
                cases += 1;
            }
        }
    }
    assert!(cases > 200, "only {cases} declarations");
    assert!(wrong.is_empty(), "{} of {cases} cases:\n{}", wrong.len(), wrong.join("\n"));
}

/// A literal that does not fit in 64 bits, and a character outside the
/// language's ASCII alphabet, are each one spanned lexical error naming
/// what is wrong, from both entry points.
#[test]
fn lexical_errors_name_the_whole_lexeme_once() {
    for (src, expected) in [
        (
            "int x;\nmain() { x = 99999999999999999999; }",
            "error: integer literal does not fit in 64 bits at 2:14",
        ),
        ("int x\u{e9};\nmain() {}", "error: unexpected character `\u{e9}` at 1:6"),
    ] {
        let compiled = compile_err(src);
        assert_eq!(compiled.lines().collect::<Vec<_>>(), [expected], "{src}");
        let checked = check_source(src, &[], &LintConfig::default());
        let lines: Vec<String> = checked.items.iter().map(|d| d.to_string()).collect();
        assert_eq!(lines, [expected], "{src}");
    }
    // The largest literal still lexes.
    let mut p = Program::compile("int x;\nmain() { x = 9223372036854775807; }").unwrap();
    p.run().unwrap();
    assert_eq!(p.read_int("x"), Some(i64::MAX));
}

/// A `void` variable is bound as an `int`: its uses report nothing
/// beyond the two real errors, from both entry points.
#[test]
fn a_void_variable_reports_no_follow_on_errors() {
    let src = "int s;\nvoid v; void w[4];\nmain() { v = 1; w[0] = 2; s = v + w[1]; }";
    let expected = [
        "error: variables cannot have type void at 2:6",
        "error: variables cannot have type void at 2:14",
    ];
    let compiled = compile_err(src);
    assert_eq!(compiled.lines().collect::<Vec<_>>(), expected, "{compiled}");
    let checked = check_source(src, &[], &LintConfig::default());
    let lines: Vec<String> = checked.items.iter().map(|d| d.to_string()).collect();
    assert_eq!(lines, expected, "{checked}");
}

/// The map section is resolved like the rest of a program: an unknown
/// set, a pattern element no set binds and a second mapping of one array
/// are spanned sema errors from `compile` and `uc check` alike.
#[test]
fn map_section_names_and_arrays_are_checked() {
    let prelude = "index_set I:i = {0..7};\nint a[8], b[8];\n";
    let main = "\nmain() { par (I) b[i] = a[i] + i; }";
    for (map, expected, at) in [
        ("map (Z) { permute (Q) b[i+1] :- a[i]; }", "unknown index set `Z` in map section", "3:1"),
        ("map (Z) { permute (Q) b[i+1] :- a[i]; }", "unknown index set `Q` in mapping", "3:11"),
        ("map (I) { permute (I) b[x+1] :- a[x]; }", "unknown identifier `x`", "3:25"),
        (
            "map (I) { permute (I) b[i+1] :- a[i]; permute (I) b[i+2] :- a[i]; }",
            "array `b` is mapped a second time",
            "3:39",
        ),
    ] {
        let src = format!("{prelude}{map}{main}");
        let msg = compile_err(&src);
        assert!(msg.contains(&format!("error: {expected} at {at}")), "{map}: {msg}");
        let checked = check_source(&src, &[], &LintConfig::default());
        assert!(checked.has_errors(), "{map}");
        let msg = checked.to_string();
        assert!(msg.contains(&format!("error: {expected} at {at}")), "{map}: {msg}");
    }
}

/// A builtin's name is taken: a definition could never be called.
#[test]
fn a_function_named_like_a_builtin_is_rejected() {
    let src = "int s;\nint abs(int x) { return 7; }\nmain() { s = abs(0-3); }";
    let expected = "function `abs` redefines a builtin";
    let msg = compile_err(src);
    assert!(msg.contains(expected) && msg.contains("2:5"), "{msg}");
    let msg = check_source(src, &[], &LintConfig::default()).to_string();
    assert!(msg.contains(expected) && msg.contains("2:5"), "{msg}");
}

/// `abs`, `min` and `max` have their operands' type, as at run time: a
/// float one truncates into an int (a warning, like `n = f;`) and is no
/// subscript.
#[test]
fn builtin_results_are_typed_by_their_operands() {
    let prelude = "int n, a[4];\nfloat f;\n";
    for stmt in ["n = abs(f);", "n = min(f, 1);"] {
        let src = format!("{prelude}main() {{ {stmt} }}");
        let checked = check_source(&src, &[], &LintConfig::default());
        assert!(!checked.has_errors(), "{stmt}: {checked}");
        assert!(checked.to_string().contains("float value truncated"), "{stmt}: {checked}");
    }
    let msg = compile_err(&format!("{prelude}main() {{ a[max(f, 0.5)] = 1; }}"));
    assert!(msg.contains("array subscripts must be integers") && msg.contains("3:12"), "{msg}");
    // The values were always the operands': 2.5 truncates on the store only.
    let mut p = Program::compile("float f;\nint n;\nmain() { f = 0 - 2.5; f = abs(f) * 2; n = f; }")
        .unwrap_or_else(|d| panic!("{d}"));
    p.run().unwrap();
    assert_eq!(p.read_int("n"), Some(5));
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

/// A trap is reported at the statement that owns the trapping
/// instruction, not at the last statement that happened to run: a loop
/// condition re-evaluated after the body, an `if` reached by a back
/// edge, the iteration cap of a loop with a body, and the call site of a
/// condition whose callee traps.
#[test]
fn a_trap_after_a_back_edge_names_its_own_statement() {
    let limits = uc_core::ExecLimits { max_iterations: 100, ..Default::default() };
    let run = |src: &str| {
        let cfg = uc_core::ExecConfig { limits: limits.clone(), ..Default::default() };
        let mut p = Program::compile_with(src, cfg).unwrap_or_else(|d| panic!("{src}\n{d}"));
        p.run().expect_err("expected runtime failure")
    };
    let at = |e: &uc_core::RunError| (e.span.line, e.span.col);

    let e = run("int x;\nmain() {\n    int k;\n    x = 2;\n    k = 0;\n    while (10 / x > 0) {\n        k = k + 1;\n        x = x - 1;\n    }\n}\n");
    assert!(matches!(e.error, RuntimeError::DivideByZero), "{e}");
    assert_eq!(at(&e), (6, 5), "the `while`, not the body's last statement: {e}");

    let e = run("int x;\nmain() {\n    int k;\n    for (x = 2; 10 / x > 0; x = x - 1) {\n        k = k + 1;\n    }\n}\n");
    assert!(matches!(e.error, RuntimeError::DivideByZero), "{e}");
    assert_eq!(at(&e), (4, 5), "the `for`: {e}");

    let e = run("int x;\nmain() {\n    int k;\n    for (x = 2; x > 0 - 5; x = x - 1) {\n        if (10 / x > 3)\n            k = 1;\n        k = k + 1;\n    }\n}\n");
    assert!(matches!(e.error, RuntimeError::DivideByZero), "{e}");
    assert_eq!(at(&e), (5, 9), "the `if`, reached by the back edge: {e}");

    let e = run("int x;\nmain() {\n    while (1) {\n        x = x + 1;\n    }\n}\n");
    assert!(matches!(e.error, RuntimeError::IterationLimit("while loop")), "{e}");
    assert_eq!(at(&e), (3, 5), "the loop that ran out of iterations: {e}");

    let e = run("int x;\nint inv(int d) {\n    return 10 / d;\n}\nmain() {\n    x = 2;\n    while (inv(x) > 0) {\n        x = x - 1;\n    }\n}\n");
    assert!(matches!(e.error, RuntimeError::DivideByZero), "{e}");
    assert_eq!(at(&e), (3, 5), "the `return` inside the callee: {e}");
    let sites: Vec<_> = e.stack.iter().map(|(f, s)| (f.as_str(), s.line, s.col)).collect();
    assert_eq!(sites[1], ("inv", 7, 5), "called from the `while`: {sites:?}");
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

    // Constants are registers too: one per distinct literal.
    let mut src = String::from("int out;\nmain() {\n");
    for k in 0..=u16::MAX as usize {
        src.push_str(&format!("out = out + {};\n", k + 2));
    }
    src.push_str("}\n");
    let msg = compile_err(&src);
    assert!(msg.contains("function `main` needs more than 65535 registers"), "{msg}");
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
