//! `uc` — the command-line driver.
//!
//! ```text
//! uc run <file.uc> [-D NAME=VALUE]... [limits]   compile and run on the simulated CM
//! uc check <file.uc> [options]                   parse, sema + static-analysis lints
//! ```
//!
//! Every program is lowered to a register IR (see `uc_core::ir`) that
//! the executor's VM runs. `run` and `check` both accept `--emit ir`,
//! which prints that IR instead of running the program. There is one
//! compilation pipeline and no optimisation level to pick: what a
//! program costs is set by its code and its map section.
//!
//! `run` resource limits (see `ExecLimits` for the semantics):
//!
//! ```text
//! --fuel N          simulated-cycle budget (default unlimited)
//! --max-mem BYTES   live machine memory budget (default 256 MiB)
//! --max-depth N     UC call-stack depth (default 256)
//! --timeout-ms N    wall-clock deadline for the run (default none)
//! ```
//!
//! Exceeding any budget stops the program with a structured
//! `... budget exceeded` diagnostic and a nonzero exit code — never a
//! panic, hang, or OOM.
//!
//! `check` options:
//!
//! ```text
//! --deny warnings|UC1xx   escalate all warnings, or one lint code, to errors
//! --allow UC1xx           suppress one lint code
//! --format text|json      diagnostic output format (default text)
//! ```
//!
//! `run` executes `main()` and then prints every global scalar and array
//! together with the simulated cycle count and instruction mix — the
//! numbers the paper's figures plot. Every command renders diagnostics
//! as `file:line:col: error: ...` (`warning[UC1xx]` for lints); a runtime
//! failure is followed by the UC call stack.
//!
//! The simulator's hot loops run on a work-stealing thread pool sized
//! from the `UC_THREADS` environment variable when set (clamped to
//! 1..=256; `UC_THREADS=1` disables threading entirely), else from the
//! host's available parallelism. Results are bit-identical regardless of
//! the thread count — the variable only affects wall-clock time.

use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Mutex;

use uc::lang::analysis::{self, LintConfig};
use uc::lang::{Diagnostics, ExecConfig, Program, RunError, RuntimeError, Span};

/// Location line captured by the silent panic hook, appended to
/// `RuntimeError::Internal` diagnostics. The hook must not print: the
/// panic is contained at the `Program::run` boundary and reported as a
/// structured error instead.
static PANIC_INFO: Mutex<Option<String>> = Mutex::new(None);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprintln!("usage: uc <run|check> <file.uc> [options]");
            eprintln!("  --emit ir          (run, check) print the compiled register IR instead of running");
            eprintln!("  env UC_THREADS=N   simulator thread count (default: all cores; results identical for any N)");
            return ExitCode::FAILURE;
        }
    };
    let mut path: Option<&str> = None;
    let mut defines: Vec<(String, i64)> = Vec::new();
    let mut cfg = LintConfig::default();
    let mut format = Format::Text;
    let mut emit_ir = false;
    let mut exec_cfg = ExecConfig::default();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--fuel" | "--max-mem" | "--max-depth" | "--timeout-ms" if cmd == "run" => {
                let flag = a.as_str();
                let Some(raw) = it.next() else {
                    eprintln!("error: {flag} needs a number");
                    return ExitCode::FAILURE;
                };
                let Ok(n) = raw.parse::<u64>() else {
                    eprintln!("error: {flag} {raw}: expected a non-negative integer");
                    return ExitCode::FAILURE;
                };
                match flag {
                    "--fuel" => exec_cfg.limits.fuel = Some(n),
                    "--max-mem" => exec_cfg.limits.max_mem_bytes = Some(n),
                    "--max-depth" => exec_cfg.limits.max_call_depth = n as usize,
                    _ => exec_cfg.limits.timeout_ms = Some(n),
                }
            }
            "-D" => {
                let Some(spec) = it.next() else {
                    eprintln!("error: -D needs NAME=VALUE");
                    return ExitCode::FAILURE;
                };
                match spec.split_once('=') {
                    Some((n, v)) => match v.parse::<i64>() {
                        Ok(v) => defines.push((n.to_string(), v)),
                        Err(_) => {
                            eprintln!("error: -D {spec}: value must be an integer");
                            return ExitCode::FAILURE;
                        }
                    },
                    None => {
                        eprintln!("error: -D {spec}: expected NAME=VALUE");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--emit" if cmd == "run" || cmd == "check" => {
                let Some(what) = it.next() else {
                    eprintln!("error: --emit needs `ir`");
                    return ExitCode::FAILURE;
                };
                if what != "ir" {
                    eprintln!("error: --emit {what}: only `ir` is supported");
                    return ExitCode::FAILURE;
                }
                emit_ir = true;
            }
            "--deny" if cmd == "check" => {
                let Some(what) = it.next() else {
                    eprintln!("error: --deny needs `warnings` or a lint code");
                    return ExitCode::FAILURE;
                };
                if let Err(e) = cfg.deny(what) {
                    eprintln!("error: --deny {what}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            "--allow" if cmd == "check" => {
                let Some(what) = it.next() else {
                    eprintln!("error: --allow needs a lint code");
                    return ExitCode::FAILURE;
                };
                if let Err(e) = cfg.allow(what) {
                    eprintln!("error: --allow {what}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            "--format" if cmd == "check" => {
                let Some(f) = it.next() else {
                    eprintln!("error: --format needs `text` or `json`");
                    return ExitCode::FAILURE;
                };
                format = match f.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => {
                        eprintln!("error: --format {other}: expected `text` or `json`");
                        return ExitCode::FAILURE;
                    }
                };
            }
            other if other.starts_with('-') => {
                eprintln!("error: unknown option {other}");
                return ExitCode::FAILURE;
            }
            file => {
                if let Some(first) = path {
                    eprintln!("error: multiple input files ({first}, {file})");
                    return ExitCode::FAILURE;
                }
                path = Some(file);
            }
        }
    }
    if emit_ir && format == Format::Json {
        eprintln!("error: --emit ir and --format json cannot be combined: the IR is text");
        return ExitCode::FAILURE;
    }
    let Some(path) = path else {
        eprintln!("error: missing input file");
        return ExitCode::FAILURE;
    };
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let define_refs: Vec<(&str, i64)> =
        defines.iter().map(|(n, v)| (n.as_str(), *v)).collect();

    if cmd == "check" {
        return check(path, &src, &define_refs, &cfg, format, emit_ir);
    }

    let program = Program::compile_with_defines(&src, exec_cfg, &define_refs);
    let mut program = match program {
        Ok(p) => p,
        Err(diags) => {
            eprint!("{}", diags.render_with_path(path));
            return ExitCode::FAILURE;
        }
    };

    match cmd {
        "run" => {
            if emit_ir {
                return emit(ExitCode::SUCCESS, |out| out.write_all(program.emit_ir().as_bytes()));
            }
            // Contain internal panics: Program::run catches them and
            // reports RuntimeError::Internal; the hook keeps the default
            // "thread panicked" banner off stderr and saves the location.
            std::panic::set_hook(Box::new(|info| {
                *PANIC_INFO.lock().unwrap() = Some(info.to_string());
            }));
            let result = program.run();
            let _ = std::panic::take_hook();
            if let Err(e) = result {
                render_run_error(path, &e);
                return ExitCode::FAILURE;
            }
            emit(ExitCode::SUCCESS, |out| report(&program, out))
        }
        other => {
            eprintln!("error: unknown command `{other}` (run | check)");
            ExitCode::FAILURE
        }
    }
}

/// Writes a command's output through one locked stdout and ends with
/// `status`. A reader that closed the pipe early (`uc run … | head`) took
/// what it wanted, so a broken pipe ends the command quietly with `status`
/// too; any other write error is reported and fails it.
fn emit(status: ExitCode, write: impl FnOnce(&mut io::StdoutLock) -> io::Result<()>) -> ExitCode {
    let mut out = io::stdout().lock();
    match write(&mut out).and_then(|()| out.flush()) {
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            eprintln!("error: cannot write output: {e}");
            ExitCode::FAILURE
        }
        _ => status,
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
}

/// Render a runtime failure as a diagnostic — `file:line:col: error: ...`
/// — followed by the UC call stack, innermost call first.
fn render_run_error(path: &str, e: &RunError) {
    let mut diags = Diagnostics::default();
    diags.error(e.span, format!("runtime error: {}", e.error));
    if e.span == Span::default() {
        // No statement span (e.g. `main` missing): skip the 0:0 position.
        eprintln!("{path}: runtime error: {}", e.error);
    } else {
        eprint!("{}", diags.render_with_path(path));
    }
    let frames: Vec<&(String, Span)> = e.stack.iter().rev().collect();
    for (k, (name, site)) in frames.iter().enumerate() {
        // Deep recursion would print hundreds of identical lines; show
        // the innermost frames and summarise the rest.
        if k == 8 && frames.len() > 10 {
            eprintln!("    ... {} more frames ...", frames.len() - 9);
        }
        if k >= 8 && k + 1 < frames.len() && frames.len() > 10 {
            continue;
        }
        if *site == Span::default() {
            eprintln!("    in `{name}`");
        } else {
            eprintln!("    in `{name}` called at {path}:{site}");
        }
    }
    if matches!(e.error, RuntimeError::Internal(_)) {
        if let Some(info) = PANIC_INFO.lock().unwrap().take() {
            eprintln!("    panic origin: {info}");
        }
    }
}

/// `uc check`: full front end plus every lint pass; exit failure iff the
/// diagnostics contain an error (parse/sema, or a denied lint).
fn check(
    path: &str,
    src: &str,
    defines: &[(&str, i64)],
    cfg: &LintConfig,
    format: Format,
    emit_ir: bool,
) -> ExitCode {
    let diags = analysis::check_source(src, defines, cfg);
    if emit_ir && !diags.has_errors() {
        // Lints passed: print the compiled register IR instead of the
        // usual summary line.
        eprint!("{}", diags.render_with_path(path));
        return match Program::compile_with_defines(src, ExecConfig::default(), defines) {
            Ok(p) => emit(ExitCode::SUCCESS, |out| out.write_all(p.emit_ir().as_bytes())),
            Err(diags) => {
                eprint!("{}", diags.render_with_path(path));
                ExitCode::FAILURE
            }
        };
    }
    let status = if diags.has_errors() { ExitCode::FAILURE } else { ExitCode::SUCCESS };
    match format {
        Format::Json => {
            emit(status, |out| writeln!(out, "{}", analysis::diagnostics_to_json(&diags)))
        }
        Format::Text => {
            eprint!("{}", diags.render_with_path(path));
            if diags.has_errors() {
                return status;
            }
            emit(status, |out| writeln!(out, "{path}: ok ({} warnings)", diags.warning_count()))
        }
    }
}

/// Writes every global, one write each, then the cycle line on stderr.
fn report(p: &Program, out: &mut impl Write) -> io::Result<()> {
    let mut scalars: Vec<String> = p.scalar_names();
    scalars.sort();
    for name in scalars {
        if let Some(v) = p.read_scalar(&name) {
            match v {
                uc::cm::Scalar::Float(f) => writeln!(out, "{name} = {f}")?,
                other => writeln!(out, "{name} = {}", other.as_int())?,
            }
        }
    }
    let mut arrays: Vec<String> = p.array_names();
    arrays.sort();
    for name in arrays {
        let shape = p.shape(&name).unwrap_or(&[]).to_vec();
        if let Ok(data) = p.read_int_array(&name) {
            writeln!(out, "{name}{shape:?} = {data:?}")?;
        } else if let Ok(data) = p.read_float_array(&name) {
            writeln!(out, "{name}{shape:?} = {data:?}")?;
        }
    }
    let k = p.machine().counters();
    eprintln!(
        "-- {} cycles on a {}-processor CM ({} alu, {} news, {} router, {} scan, {} context, {} front-end)",
        p.cycles(),
        p.machine().phys_procs(),
        k.alu,
        k.news,
        k.router,
        k.scan,
        k.context,
        k.front_end,
    );
    Ok(())
}
