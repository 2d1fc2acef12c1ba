//! The end-to-end harness (untraced pass) and the `compare` subcommand.
//!
//! One client, closed loop: each operation starts when the previous one
//! has finished and been checked. Uses only the stable surface listed in
//! the library docs, so it keeps building when a layer's internals move.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use uc_benchmark::alloc::{self, Counting};
use uc_benchmark::json::Value;
use uc_benchmark::measure::{self, ms, reps_for, same_cycles, sample, Tally, UcBin};
use uc_benchmark::report::{samples_for, Args, RunRecord, USAGE};
use uc_benchmark::stats::Summary;
use uc_benchmark::workloads::{Instance, Workload};
use uc_benchmark::{compare, host};
use uc_core::Program;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Times the whole set-up is repeated; `setup_s` is the fastest.
const SETUP_REPS: usize = 5;
/// Fresh compile + first run repetitions behind `peak_heap_mb`.
const PEAK_REPS: usize = 3;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.split_first() {
        Some((cmd, rest)) if cmd == "compare" => compare_files(rest),
        _ => bench(&argv),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("ucbench: {message}");
            ExitCode::from(2)
        }
    }
}

fn compare_files(paths: &[String]) -> Result<ExitCode, String> {
    let [base, change] = paths else {
        return Err(format!("compare needs two result files\n{USAGE}"));
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, regressed) = compare::compare(&read(base)?, &read(change)?)?;
    print!("{table}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn bench(argv: &[String]) -> Result<ExitCode, String> {
    let args = Args::parse(argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if args.trace {
        return Err("--trace 1 is the probe binary's pass; run it through benchmark/run.sh".into());
    }
    let threads = host::pin_environment();
    let uc = UcBin::locate()?;
    for w in args.selected() {
        let record = run_workload(w, &args, &uc, threads)?;
        print!("{}", record.table());
        if let Some(path) = &args.out {
            record.append_to(path)?;
        }
        println!("{}", record.result_line());
    }
    Ok(ExitCode::SUCCESS)
}

/// Everything that exists before the first timed sample.
struct Prepared {
    instance: Instance,
    file: PathBuf,
    /// Compiled and run twice, so caches are filled and the pool is up.
    program: Program,
    /// Simulated cycles of the three kinds of run. They differ by a few
    /// front-end charges — a fresh program fills geometry caches that a
    /// warmed one reuses, and `uc run` reads the globals back to print
    /// them — so each kind is held to its own first value.
    cycles: Cycles,
    compile_reps: u32,
    exec_reps: u32,
    check_reps: u32,
}

#[derive(Clone, Copy)]
struct Cycles {
    /// First run of a freshly compiled program: the reported `sim_cycles`.
    cold: u64,
    /// Any later run of the same program.
    warm: u64,
    /// What `uc run` prints on stderr.
    cli: u64,
}

/// Generate the program from the seed, compute its reference output,
/// write the source file, and warm every path that will be timed. A
/// program that cannot be compiled or run at all is a harness error, not
/// a failed operation: there would be nothing to measure.
fn prepare(w: &Workload, seed: u64, uc: &UcBin) -> Result<Prepared, String> {
    let instance = w.instance(seed);
    let file = measure::write_program(&format!("{}-{seed}.uc", w.name), &instance.source)?;
    let (_, cli) = uc.warm_up(&file)?;

    let start = Instant::now();
    let mut program = measure::compile(&instance.source)?;
    let compile_once = start.elapsed();
    let cold = measure::run_once(&mut program)?;
    let start = Instant::now();
    let warm = measure::run_once(&mut program)?;
    let exec_once = start.elapsed();
    let start = Instant::now();
    measure::check(w, &instance.source)?;
    let check_once = start.elapsed();

    Ok(Prepared {
        instance,
        file,
        program,
        cycles: Cycles { cold, warm, cli },
        compile_reps: reps_for(compile_once),
        exec_reps: reps_for(exec_once),
        check_reps: reps_for(check_once),
    })
}

fn run_workload(
    w: &'static Workload,
    args: &Args,
    uc: &UcBin,
    threads: usize,
) -> Result<RunRecord, String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        // One live program at a time, as in a fresh process: a second one
        // changes where the allocator finds memory for the machine fields.
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(prepare(w, args.seed, uc)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let Prepared {
        instance,
        file,
        mut program,
        cycles,
        compile_reps,
        exec_reps,
        check_reps,
    } = prepared.expect("SETUP_REPS is at least one");
    let (source, expected) = (&instance.source, &instance.expected);

    let n = samples_for(args.seconds);
    let mut tally = Tally::default();

    let mut peak_mb = Vec::with_capacity(PEAK_REPS);
    for _ in 0..PEAK_REPS {
        let (ran, heap) = alloc::measured(|| {
            measure::compile(source).and_then(|mut p| measure::run_once(&mut p))
        });
        tally.record("cold run", ran.and_then(|c| same_cycles(c, cycles.cold)));
        peak_mb.push(heap.peak_bytes as f64 / (1024.0 * 1024.0));
    }

    let (mut wall, mut compile, mut exec, mut check) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Round-robin, so that slow drift of the host reaches every metric
    // alike instead of landing on whichever was sampled last.
    for _ in 0..n {
        let out = uc.run(&file, None)?;
        wall.push(ms(out.wall));
        tally.record("uc run", measure::check_uc_run(&out, expected, cycles.cli));

        let compiled = sample(compile_reps, || measure::compile(source));
        tally.record("compile", compiled.map(|t| compile.push(t)));

        let ran = sample(exec_reps, || {
            same_cycles(measure::run_once(&mut program)?, cycles.warm)
        });
        let ran = ran.and_then(|t| expected.check_program(&mut program).map(|()| exec.push(t)));
        tally.record("exec", ran);

        let checked = sample(check_reps, || measure::check(w, source));
        tally.record("check", checked.map(|t| check.push(t)));
    }
    for (name, samples) in [
        ("run_wall_ms", &wall),
        ("compile_ms", &compile),
        ("exec_ms", &exec),
        ("check_ms", &check),
    ] {
        if samples.is_empty() {
            return Err(format!("{}: every {name} sample failed", w.name));
        }
    }

    let mut host = host::facts(threads, args.seed, args.seconds);
    let reps = [compile_reps, exec_reps, check_reps].map(|r| Value::Num(f64::from(r)));
    host.extend([
        ("samples", Value::Num(n as f64)),
        ("setup_reps", Value::Num(SETUP_REPS as f64)),
        (
            "reps_per_sample_compile_exec_check",
            Value::Arr(reps.to_vec()),
        ),
    ]);
    let mut record = RunRecord {
        workload: w.name,
        seed: args.seed,
        trace: false,
        tally,
        metrics: Vec::new(),
        host,
    };
    record.push("run_wall_ms", Summary::fastest(&wall));
    record.push("compile_ms", Summary::fastest(&compile));
    record.push("exec_ms", Summary::fastest(&exec));
    record.push("check_ms", Summary::fastest(&check));
    record.push("sim_cycles", Summary::exact(cycles.cold as f64));
    record.push("peak_heap_mb", Summary::of(&peak_mb));
    record.push("setup_s", Summary::fastest(&setup_s));
    assert!(
        record.is_complete(),
        "the untraced pass must report every end-to-end metric"
    );
    Ok(record)
}
