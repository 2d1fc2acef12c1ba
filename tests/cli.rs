//! End-to-end tests of the `uc` command-line driver.

use std::io::Write;
use std::process::Command;

fn uc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_uc"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const PROGRAM: &str = r#"
    #define N 8
    index_set I:i = {0..N-1};
    int a[N], s;
    main() {
        par (I) a[i] = i * i;
        s = $+(I; a[i]);
    }
"#;

#[test]
fn run_prints_globals_and_cycles() {
    let path = write_temp("uc_cli_run.uc", PROGRAM);
    let out = uc().args(["run", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("s = 140"), "{stdout}");
    assert!(stdout.contains("a[8] = [0, 1, 4, 9, 16, 25, 36, 49]"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cycles on a 16384-processor CM"), "{stderr}");
}

/// `uc run` reports the cycles of the program's own run: printing the
/// globals reads them back uncharged, so the count is the in-process cold
/// run's, not one front-end tick per array more.
#[test]
fn run_prints_the_cold_cycle_count() {
    let path = write_temp("uc_cli_cycles.uc", PROGRAM);
    let out = uc().args(["run", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut p = uc::lang::Program::compile(PROGRAM).unwrap();
    p.run().unwrap();
    let line = format!("-- {} cycles on a 16384-processor CM (", p.cycles());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&line), "want `{line}` in {stderr}");
}

#[test]
fn define_overrides_from_the_command_line() {
    let path = write_temp("uc_cli_define.uc", PROGRAM);
    let out = uc()
        .args(["run", path.to_str().unwrap(), "-D", "N=4"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("s = 14"), "{stdout}");
}

#[test]
fn check_reports_ok_and_errors() {
    let good = write_temp("uc_cli_good.uc", PROGRAM);
    let out = uc().args(["check", good.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());

    let bad = write_temp("uc_cli_bad.uc", "main() { goto x; }");
    let out = uc().args(["check", bad.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("goto"));
}

#[test]
fn runtime_errors_are_reported() {
    let src = r#"
        #define N 4
        index_set I:i = {0..N-1};
        int a[N];
        main() { par (I) a[i + 1] = 0; }
    "#;
    let path = write_temp("uc_cli_rterr.uc", src);
    let out = uc().args(["run", path.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("bounds"));
}

/// `--fuel` must kill a program that would otherwise never terminate,
/// with a nonzero exit and a diagnostic that names the spent budget.
#[test]
fn fuel_flag_kills_an_infinite_loop() {
    let src = r#"
        #define N 8
        index_set I:i = {0..N-1};
        int a[N];
        main() { while (1) par (I) a[i] = a[i] + 1; }
    "#;
    let path = write_temp("uc_cli_fuel.uc", src);
    let out = uc()
        .args(["run", path.to_str().unwrap(), "--fuel", "50000"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("budget exceeded"), "{stderr}");
    // The failure is located: file, line and column of the trapping
    // statement, rendered through the shared diagnostics path.
    assert!(stderr.contains("uc_cli_fuel.uc:"), "{stderr}");
}

/// `--timeout-ms` bounds even loops that never touch the machine.
#[test]
fn timeout_flag_kills_a_front_end_spin() {
    let path = write_temp("uc_cli_spin.uc", "main() { while (1) ; }");
    let out = uc()
        .args(["run", path.to_str().unwrap(), "--timeout-ms", "200"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("budget exceeded"), "{stderr}");
}

/// `--max-depth` turns runaway recursion into a located diagnostic with
/// a UC-level call stack.
#[test]
fn max_depth_flag_reports_a_call_stack() {
    let src = r#"
        int out;
        int down(int n) { return down(n + 1); }
        main() { out = down(0); }
    "#;
    let path = write_temp("uc_cli_depth.uc", src);
    let out = uc()
        .args(["run", path.to_str().unwrap(), "--max-depth", "12"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("budget exceeded"), "{stderr}");
    assert!(stderr.contains("in `down`"), "{stderr}");
}

/// Recursion through a tree escape re-enters the VM on the host stack:
/// however far `--max-depth` lets it go, the run traps with a diagnostic
/// before that stack overflows (which would abort the process).
#[test]
fn escaped_recursion_traps_before_the_host_stack_overflows() {
    let path =
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/hostile/escaped_recursion_deep.uc");
    let out = uc().args(["run", path, "--max-depth", "1000000"]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("budget exceeded"), "{stderr}");
}

/// A program with one deliberate UC101 race for the lint-flag tests.
const RACY: &str = r#"
    index_set I:i = {0..7};
    int a[8];
    main() { par (I) a[0] = i; }
"#;

#[test]
fn check_reports_lints_as_warnings() {
    let path = write_temp("uc_cli_racy.uc", RACY);
    let out = uc().args(["check", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "plain warnings must not fail the check");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warning[UC101]"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok (1 warnings)"));
}

/// The store facts hold an axis of any depth: 70 nested `par`s, each
/// over a one-element set, race only where the innermost element goes
/// into a location the outermost picks.
#[test]
fn check_tracks_seventy_nested_axes() {
    let sets: Vec<String> = (1..70).map(|k| format!(", I{k}:i{k} = I0")).collect();
    let pars: Vec<String> = (0..70).map(|k| format!("par (I{k}) ")).collect();
    let src = format!(
        "index_set I0:i0 = {{0..0}}{};\nint a[1];\nmain() {{\n{}{{ a[i0] = i69; a[i69] = i69; }}\n}}\n",
        sets.concat(),
        pars.concat()
    );
    let path = write_temp("uc_cli_deep_axes.uc", &src);
    let out = uc().args(["check", path.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr.matches("warning[UC101]").count(), 1, "{stderr}");
    assert!(stderr.contains(":4:") && stderr.contains("varies with `i69`"), "{stderr}");
    assert!(stderr.contains("location `a[i0]`"), "{stderr}");
}

#[test]
fn deny_warnings_fails_the_check() {
    let path = write_temp("uc_cli_racy_deny.uc", RACY);
    let out = uc()
        .args(["check", "--deny", "warnings", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error[UC101]"));
}

#[test]
fn allow_silences_a_lint_code() {
    let path = write_temp("uc_cli_racy_allow.uc", RACY);
    let out = uc()
        .args(["check", "--allow", "UC101", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stderr).contains("UC101"));
    assert!(String::from_utf8_lossy(&out.stdout).contains("ok (0 warnings)"));
}

#[test]
fn unknown_lint_code_is_rejected() {
    let path = write_temp("uc_cli_racy_unknown.uc", RACY);
    let out = uc()
        .args(["check", "--deny", "UC999", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown lint code"));
}

/// `--format json` output must round-trip through the workspace's one
/// JSON module (`uc_core::json`, which the figures also use), with the
/// documented fields intact.
#[test]
fn json_format_round_trips() {
    use uc::lang::json::parse;

    let path = write_temp("uc_cli_racy_json.uc", RACY);
    let out = uc()
        .args(["check", "--format", "json", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let value = parse(stdout.trim()).expect("valid JSON");
    let diags = value.as_array().expect("top-level array");
    assert_eq!(diags.len(), 1);
    let d = &diags[0];
    assert_eq!(d.get("code").and_then(|v| v.as_str()), Some("UC101"));
    assert_eq!(d.get("severity").and_then(|v| v.as_str()), Some("warning"));
    assert_eq!(d.get("line").and_then(|v| v.as_u64()), Some(4));
    assert!(d
        .get("message")
        .and_then(|v| v.as_str())
        .is_some_and(|m| m.contains("race")));
}

/// The committed examples are the dogfood corpus: every one must stay
/// clean under `--deny warnings` and actually execute. CI runs the same
/// loop against the release binary.
#[test]
fn examples_stay_lint_clean_and_run() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/uc");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "uc") {
            continue;
        }
        let out = uc()
            .args(["check", "--deny", "warnings", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        let out = uc().args(["run", path.to_str().unwrap()]).output().unwrap();
        assert!(
            out.status.success(),
            "{}: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
        seen += 1;
    }
    assert!(seen >= 3, "expected at least 3 UC examples, found {seen}");
}

/// A reader that stops early (`uc run … | head -c 100`) ends the run
/// quietly: the output is larger than a pipe buffer, so the write fails
/// whenever the reader goes, and that is an exit of 0 or 1, not a panic.
#[test]
fn closed_stdout_is_not_a_panic() {
    let src = "index_set I:i = {0..65535};\nint a[65536];\nmain() { par (I) a[i] = i; }\n";
    let path = write_temp("uc_cli_pipe.uc", src);
    let mut child = uc()
        .args(["run", path.to_str().unwrap()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(matches!(out.status.code(), Some(0 | 1)), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn usage_errors() {
    let out = uc().output().unwrap();
    assert!(!out.status.success());
    let out = uc().args(["frobnicate", "x.uc"]).output().unwrap();
    assert!(!out.status.success());
}

/// There is one compilation pipeline, so there is no level to pick: an
/// optimisation flag is an unknown option, reported before anything runs.
#[test]
fn an_unknown_option_is_an_error() {
    let path = write_temp("uc_cli_unknown_option.uc", PROGRAM);
    let out = uc()
        .args(["run", "--ir-opt", "aggressive", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error: unknown option --ir-opt"), "{stderr}");
}

/// `--emit ir` prints the IR as text, so asking for it as JSON is an
/// error that names both flags, in either order, and prints nothing.
#[test]
fn emit_ir_and_json_format_are_rejected_together() {
    let path = write_temp("uc_cli_emit_json.uc", PROGRAM);
    let path = path.to_str().unwrap();
    for args in [
        ["check", "--format", "json", "--emit", "ir", path],
        ["check", "--emit", "ir", "--format", "json", path],
    ] {
        let out = uc().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error: --emit ir and --format json"), "{args:?}: {stderr}");
    }
}
