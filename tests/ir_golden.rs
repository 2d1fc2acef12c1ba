//! Golden-file tests for `--emit ir`.
//!
//! The rendered IR is a public, line-oriented artifact (`uc run --emit
//! ir` / `uc check --emit ir`): these tests pin it byte-for-byte for a
//! few corpus programs so lowering and renderer changes
//! are always deliberate — the operands (a register, or the value of a
//! constant one) and, as a trailing `; line:col` where it changes, the
//! statement each instruction reports a trap at. Loop state is registers:
//! a loop's counter and a `seq`'s cursor are zeroed by a `const` where
//! the construct starts, and `seq_next r<elem>, r<more> = <set>[r<cursor>]`
//! advances a sweep. To refresh after an intentional change:
//!
//! ```text
//! uc run <input> --emit ir > tests/corpus/golden/<name>.ir
//! ```

use std::path::Path;
use std::process::Command;

fn emit(cmd: &str, input: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_uc"))
        .args([cmd, root.join(input).to_str().unwrap(), "--emit", "ir"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{cmd} {input} --emit ir failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus/golden").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn shortest_path_ir_is_stable() {
    assert_eq!(emit("run", "examples/uc/shortest_path.uc"), golden("shortest_path.ir"));
}

/// The scalar benchmark's program, and the shape of its hot loop: one
/// Collatz step runs straight off the locals and constant registers —
/// from the `while` test to the back jump at most 12 instructions, none
/// of them a `const` or a `copy`.
#[test]
fn collatz_ir_is_stable_and_its_loop_has_no_copies() {
    let ir = emit("run", "examples/uc/collatz.uc");
    assert_eq!(ir, golden("collatz.ir"));
    let body: Vec<&str> = ir
        .lines()
        .skip_while(|l| !l.contains("bin") || !l.contains("!="))
        .take_while(|l| !l.contains("ret"))
        .collect();
    assert!(body.last().is_some_and(|l| l.contains("jump ")), "{body:#?}");
    assert!(body.len() <= 12, "{} instructions per Collatz step:\n{body:#?}", body.len());
    assert!(!body.iter().any(|l| l.contains("const ") || l.contains("copy ")), "{body:#?}");
}

#[test]
fn dead_store_ir_is_stable() {
    assert_eq!(emit("run", "tests/corpus/dead_store.uc"), golden("dead_store.ir"));
}

/// Front-end `seq` with `st` arms and `others` lowers to a VM loop: a
/// cursor register zeroed by a `const`, and `seq_next` reading the set at
/// it, around ordinary register code.
#[test]
fn seq_ir_is_stable() {
    assert_eq!(emit("run", "tests/corpus/seq_st_others.uc"), golden("seq_st_others.ir"));
}

/// Only what `main` reaches is lowered and printed: `used` and `main`,
/// not `orphan`.
#[test]
fn unused_function_ir_is_stable_and_has_no_dead_function() {
    let ir = emit("run", "tests/corpus/unused_function.uc");
    assert_eq!(ir, golden("unused_function.ir"));
    assert!(ir.contains("func used()") && ir.contains("func main()"), "{ir}");
    assert!(!ir.contains("orphan"), "{ir}");
}

/// `uc check --emit ir` prints the same artifact after the lint passes.
#[test]
fn check_emits_the_same_ir() {
    assert_eq!(emit("check", "examples/uc/jacobi.uc"), golden("jacobi.ir"));
    assert_eq!(
        emit("run", "examples/uc/jacobi.uc"),
        emit("check", "examples/uc/jacobi.uc")
    );
}

/// Every function in every committed example lowers: the examples have
/// no dead code (CI lints them with `--deny warnings`, UC132 included),
/// so the IR prints each function the source defines.
#[test]
fn examples_lower_without_fallback() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/uc");
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "uc") {
            let rel = path.strip_prefix(env!("CARGO_MANIFEST_DIR")).unwrap();
            let ir = emit("run", rel.to_str().unwrap());
            let src = std::fs::read_to_string(&path).unwrap();
            let mut diags = uc::lang::Diagnostics::default();
            let checked = uc::lang::sema::front_end(&src, &[], &mut diags).unwrap();
            for f in checked.funcs_in_order() {
                assert!(ir.contains(&format!("func {}(", f.name)), "{}:\n{ir}", path.display());
            }
            assert!(ir.contains("inline="), "{}:\n{ir}", path.display());
        }
    }
}

/// Tree code runs only inside the iteration space it opens: in every
/// corpus, example and benchmark program that compiles, a `tree` line is
/// a parallel construct or a local array declaration, and an `eval` or
/// `effect` line is one reduction — everything else is VM instructions.
#[test]
fn every_escape_opens_an_iteration_space() {
    // `$op(...)` whose first parenthesis closes at the end.
    let one_reduction = |frag: &str| {
        let (mut depth, open) = (0, frag.find('(').unwrap_or(frag.len()));
        frag.starts_with('$')
            && frag[open..].char_indices().all(|(i, c)| {
                depth += (c == '(') as i32 - (c == ')') as i32;
                depth > 0 || open + i == frag.len() - 1
            })
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut escapes = 0;
    let dirs = [
        "examples/uc",
        "tests/corpus",
        "tests/corpus/hostile",
        "crates/bench/programs",
        "benchmark/programs",
    ];
    for dir in dirs {
        for entry in std::fs::read_dir(root.join(dir)).unwrap() {
            let path = entry.unwrap().path();
            let Ok(src) = std::fs::read_to_string(&path) else { continue };
            // The scalar benchmark's harness prepends its `#define A`.
            let compile = |src: &str| uc::lang::Program::compile(src);
            let Ok(p) = compile(&src).or_else(|_| compile(&format!("#define A 7\n{src}"))) else {
                continue;
            };
            for line in p.emit_ir().lines() {
                let (op, frag) = (line.split_whitespace().nth(1), line.split('`').nth(1));
                let ok = match (op, frag) {
                    (Some("tree"), Some(f)) => {
                        let f = f.trim_start_matches('*');
                        let starts = |ks: &[&str]| ks.iter().any(|k| f.starts_with(k));
                        starts(&["par ", "oneof ", "solve "])
                            || starts(&["int ", "float "]) && f.ends_with("];")
                    }
                    (Some("eval" | "effect"), Some(f)) => one_reduction(f),
                    _ => continue,
                };
                assert!(ok, "{}: {line}", path.display());
                escapes += 1;
            }
        }
    }
    assert!(escapes > 50, "only {escapes} escapes seen");
}
