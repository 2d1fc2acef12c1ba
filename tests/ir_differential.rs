//! Pinned-observable regression tier for the executor.
//!
//! Every observable of a run is pinned in `tests/corpus/pinned_digests.txt`,
//! one line per program, in columns: an FNV digest of the results — the
//! global scalars and arrays (floats by bit pattern), or on a trap the
//! full `RunError` with span and UC call stack — then the simulated
//! cycles, the six per-class op counts (ALU, NEWS, router, scan, context,
//! front end) and the name. A change that moves cost on purpose shows in
//! the cost columns only. The results were recorded from the AST
//! tree-walker at commit 72174e8, the last one that carried it, where the
//! differential suite proved the walker and the register VM agreed on
//! every entry; they now pin the VM to that behaviour. Entries added
//! since were recorded from the VM: the four `shadow_*.uc` programs, whose
//! values `crates/core/tests/language.rs` and the generated model check
//! in `tests/cross_crate.rs` witness independently.
//!
//! The corpus is every committed example, the lint corpus (including the
//! `seq_*.uc` programs that exercise front-end `seq`, `seq` under `par`,
//! calls from parallel arms and recursion through front-end expressions),
//! the hostile corpus under tight deterministic budgets, and the
//! `uc_bench` figure kernels at small sizes.
//!
//! A subprocess leg recomputes every column under `UC_THREADS=1`, `2` and
//! `8` (the worker pool is env-sized once per process, so each thread
//! count needs a child — same protocol as `determinism.rs`).
//!
//! To refresh the table after a deliberate behaviour change:
//!
//! ```text
//! UC_IR_DIFF_CHILD=1 cargo test --test ir_differential \
//!     emit_pinned_digests_when_asked -- --exact --nocapture \
//!     | sed -n 's/^ROW //p' > tests/corpus/pinned_digests.txt
//! ```

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use uc::lang::{ExecConfig, ExecLimits, Program};

/// Every observable of one program run, ready for exact comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// `Ok` is the rendered globals; `Err` the full structured error.
    result: Result<Vec<String>, String>,
    cycles: u64,
    counters: Vec<u64>,
}

/// One corpus entry: a program, its `#define` overrides and budgets.
struct Case {
    name: String,
    src: String,
    defines: Vec<(&'static str, i64)>,
    limits: ExecLimits,
}

fn observe(case: &Case, optimize_access: bool) -> Result<Outcome, String> {
    let cfg = ExecConfig { limits: case.limits.clone(), optimize_access, ..Default::default() };
    let mut p =
        Program::compile_with_defines(&case.src, cfg, &case.defines).map_err(|d| d.to_string())?;
    let run = p.run();
    // Capture the cost model before reading arrays back.
    let cycles = p.cycles();
    let k = p.machine().counters();
    let counters = vec![k.alu, k.news, k.router, k.scan, k.context, k.front_end];
    let result = match run {
        Err(e) => Err(format!("{e:?}")),
        Ok(()) => {
            let mut state = Vec::new();
            let mut scalars = p.scalar_names();
            scalars.sort();
            for name in scalars {
                if let Some(v) = p.read_scalar(&name) {
                    state.push(format!("{name} = {v:?}"));
                }
            }
            let mut arrays = p.array_names();
            arrays.sort();
            for name in arrays {
                if let Ok(data) = p.read_int_array(&name) {
                    state.push(format!("{name} = {data:?}"));
                } else if let Ok(data) = p.read_float_array(&name) {
                    let bits: Vec<u64> = data.iter().map(|f| f.to_bits()).collect();
                    state.push(format!("{name} = {bits:?}"));
                }
            }
            Ok(state)
        }
    };
    Ok(Outcome { result, cycles, counters })
}

/// Deterministic tight budgets for the hostile corpus: every attack
/// program must trap on fuel, memory, depth or the iteration cap —
/// never the wall clock, whose timing would make the digest flaky.
fn hostile_limits() -> ExecLimits {
    ExecLimits {
        fuel: Some(50_000),
        max_mem_bytes: Some(1 << 20),
        max_call_depth: 16,
        max_iterations: 1_000,
        ..Default::default()
    }
}

/// The `.uc` files of one directory, named by repo-relative path.
fn uc_files(dir: &str, limits: ExecLimits, out: &mut Vec<Case>) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(root.join(dir))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".uc"))
        .collect();
    names.sort();
    for n in names {
        let name = format!("{dir}/{n}");
        let src = std::fs::read_to_string(root.join(&name)).unwrap();
        out.push(Case { name, src, defines: Vec::new(), limits: limits.clone() });
    }
}

/// All pinned inputs with the defines and limits they run under.
fn corpus() -> Vec<Case> {
    let mut cases = Vec::new();
    uc_files("examples/uc", ExecLimits::default(), &mut cases);
    uc_files("tests/corpus", ExecLimits::default(), &mut cases);
    uc_files("tests/corpus/hostile", hostile_limits(), &mut cases);
    for (name, src, defines) in [
        ("uc_bench/fig6", uc_bench::UC_APSP_N2, vec![("N", 6)]),
        ("uc_bench/fig7", uc_bench::UC_APSP_N3, vec![("N", 8), ("LOGN", 3)]),
        ("uc_bench/grid", uc_bench::UC_GRID_GOAL, vec![("N", 8)]),
        ("uc_bench/shift", uc_bench::UC_SHIFT_KERNEL, vec![("N", 64), ("ITERS", 4)]),
        ("uc_bench/shift_mapped", uc_bench::UC_SHIFT_KERNEL_MAPPED, vec![("N", 64), ("ITERS", 4)]),
    ] {
        cases.push(Case {
            name: name.into(),
            src: src.into(),
            defines,
            limits: ExecLimits::default(),
        });
    }
    assert!(cases.len() >= 40, "pinned corpus shrank to {}", cases.len());
    cases
}

/// A program's row without its name: the FNV-1a digest of its results,
/// its cycles and its six op counts. A compile rejection is all zeroes.
fn row(case: &Case) -> String {
    let Ok(o) = observe(case, true) else { return format!("{:016} 0 0 0 0 0 0 0", 0) };
    let counts: Vec<String> = o.counters.iter().map(u64::to_string).collect();
    format!("{} {} {}", digest(&o), o.cycles, counts.join(" "))
}

/// The FNV-1a digest of a run's results: the first column of its row.
fn digest(o: &Outcome) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in format!("{:?}", o.result).bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// `name -> row` from `<row> <name>` lines.
fn rows<'a>(lines: impl Iterator<Item = &'a str>) -> BTreeMap<String, String> {
    let split = |l: &'a str| l.rsplit_once(' ').map(|(r, name)| (name.to_string(), r.to_string()));
    lines.filter_map(split).collect()
}

/// The headline guarantee: on every input the VM reproduces the walker's
/// recorded observables exactly, including error spans and call stacks
/// on the hostile corpus.
#[test]
fn pinned_digests_match_on_every_corpus_program() {
    let computed: BTreeMap<String, String> =
        corpus().iter().map(|c| (c.name.clone(), row(c))).collect();
    assert_eq!(computed, rows(include_str!("corpus/pinned_digests.txt").lines()));
}

/// §4's law: the communication optimisations change cost, never results.
/// With `optimize_access` off every gather and scatter goes through the
/// router and builds its address from its subscripts, so every program
/// outside the hostile corpus (whose budgets trap on cycles) must end
/// with the same results, or the same error, either way. An access with a
/// constant subscript is routed either way, so the routed results are
/// also held to the pinned digest.
#[test]
fn access_optimisation_changes_cycles_never_results() {
    let pinned = rows(include_str!("corpus/pinned_digests.txt").lines());
    let cases: Vec<Case> = corpus().into_iter().filter(|c| !c.name.contains("/hostile/")).collect();
    assert!(cases.len() >= 45, "only {} programs", cases.len());
    for case in &cases {
        let [on, off] = [true, false].map(|on| observe(case, on).unwrap());
        assert_eq!(on.result, off.result, "{}", case.name);
        assert!(pinned[&case.name].starts_with(&digest(&off)), "{}", case.name);
    }
}

/// Child half of the subprocess protocol: inert unless `UC_IR_DIFF_CHILD`
/// is set. Prints one `ROW <row> <name>` line per program.
#[test]
fn emit_pinned_digests_when_asked() {
    if std::env::var("UC_IR_DIFF_CHILD").is_err() {
        return;
    }
    for case in corpus() {
        println!("ROW {} {}", row(&case), case.name);
    }
}

fn rows_under(threads: &str) -> BTreeMap<String, String> {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args(["emit_pinned_digests_when_asked", "--exact", "--nocapture", "--test-threads=1"])
        .env("UC_IR_DIFF_CHILD", "1")
        .env("UC_THREADS", threads)
        .output()
        .expect("spawn child test binary");
    assert!(
        out.status.success(),
        "child under UC_THREADS={threads} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    rows(String::from_utf8_lossy(&out.stdout).lines().filter_map(|l| l.split("ROW ").nth(1)))
}

/// Every column of the pins must hold at every thread count.
#[test]
fn pinned_digests_hold_under_one_two_and_eight_threads() {
    if std::env::var("UC_IR_DIFF_CHILD").is_ok() {
        return; // don't recurse when the whole binary runs in a child
    }
    let pinned = rows(include_str!("corpus/pinned_digests.txt").lines());
    for threads in ["1", "2", "8"] {
        assert_eq!(rows_under(threads), pinned, "UC_THREADS={threads}");
    }
}
