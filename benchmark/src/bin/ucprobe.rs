//! The traced pass: per-layer metrics from the outside in.
//!
//! Every number here comes from timing or counting at a call into a
//! layer's public function — `lexer::lex`, `parser::parse`,
//! `opt::fold_unit`, `sema::check`, `mapping::interpret_maps`,
//! `ir::lower_program`, `analysis::analyze`, `Program::*`, `uc_cm::Machine`
//! ops, the `rayon` pool, the `uc` executable. Each call is one span
//! (sub-microsecond micro-kernels share one span per batch of calls); the
//! spans are kept in memory and written to `benchmark/out/trace.json` when
//! the run ends. Nothing inside the program under test is instrumented.
//!
//! This binary names internals (`fold_unit`, `Instr::Tree`, `IrOpt`) that
//! later refactors may delete. When that happens it is this file that
//! changes; `ucbench` does not depend on it.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use uc_benchmark::alloc::{self, Counting};
use uc_benchmark::host;
use uc_benchmark::json::Value;
use uc_benchmark::measure::{self, ms, reps_for, same_cycles, Tally, UcBin, OUT_DIR};
use uc_benchmark::report::{samples_for, Args, RunRecord, USAGE};
use uc_benchmark::stats::{fastest, percentile, Summary};
use uc_benchmark::workloads::{Expected, RouterUse, Workload};
use uc_cm::news::Border;
use uc_cm::par::{chunk_count, PAR_THRESHOLD};
use uc_cm::{BinOp, Combine, Machine, ReduceOp, Scalar};
use uc_core::diag::Diagnostics;
use uc_core::ir::Instr;
use uc_core::{analysis, ir, lexer, mapping, opt, parser, sema, ExecConfig, IrOpt, Program};

#[global_allocator]
static ALLOC: Counting = Counting;

/// `cli.run_wall_p75_ms` needs ten samples beyond the 75th percentile.
const MIN_CLI_SAMPLES: usize = 40;
/// Fresh compile + first run pairs behind `exec.first_ms`.
const COLD_REPS: usize = 5;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match probe(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ucprobe: {message}");
            ExitCode::from(2)
        }
    }
}

fn probe(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    let threads = host::pin_environment();
    let uc = UcBin::locate()?;
    let mut tracer = Tracer::new();
    for w in args.selected() {
        let record = probe_workload(w, &args, &uc, threads, &mut tracer)?;
        print!("{}", record.table());
        print!("{}", tracer.self_time_table(w.name));
        if let Some(path) = &args.out {
            record.append_to(path)?;
        }
        println!("{}", record.result_line());
    }
    tracer.write(&Path::new(OUT_DIR).join("trace.json"))
}

// ---- spans ------------------------------------------------------------------

struct Span {
    workload: &'static str,
    name: &'static str,
    /// Back-to-back calls the span covers: 1, except for micro-kernels
    /// far below a microsecond, which are timed in batches.
    calls: u32,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder. `enabled = false` turns `timed` into a bare
/// stopwatch, which is how the untraced half of the overhead A/B runs.
struct Tracer {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    open: Vec<usize>,
    enabled: bool,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            workload: "",
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    fn enter(&mut self, name: &'static str) {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.open.push(self.spans.len());
        let parent = self.open.iter().rev().nth(1).copied();
        self.spans.push(Span {
            workload: self.workload,
            name,
            calls: 1,
            start_ns: now,
            end_ns: now,
            parent,
        });
    }

    fn exit(&mut self) {
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Run `f` inside a span and return what it took.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed());
        }
        self.enter(name);
        let out = f();
        self.exit();
        let span = self.spans.last().expect("span just recorded");
        (out, Duration::from_nanos(span.end_ns - span.start_ns))
    }

    /// Run `f` as the children of one parent span.
    fn group<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// Self time per span name: duration minus the children's durations.
    fn self_time_table(&self, workload: &str) -> String {
        let mut own: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        let mut by_name: BTreeMap<&str, (i64, usize)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(own) {
            if s.workload == workload {
                let e = by_name.entry(s.name).or_default();
                e.0 += own;
                e.1 += s.calls as usize;
            }
        }
        let mut out = format!(
            "{:<34} {:>8} {:>14}\n",
            "span (self time)", "calls", "total ms"
        );
        for (name, (ns, calls)) in by_name {
            out.push_str(&format!(
                "{name:<34} {calls:>8} {:>14.3}\n",
                ns as f64 / 1e6
            ));
        }
        out
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let spans = self.spans.iter().map(|s| {
            Value::obj([
                ("workload", Value::from(s.workload)),
                ("name", s.name.into()),
                ("calls", Value::Num(f64::from(s.calls))),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
            ])
        });
        let text = Value::obj([("spans", Value::Arr(spans.collect()))]).render();
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Fastest ms per call of `n` samples, each one span around `reps` calls.
fn sampled(t: &mut Tracer, name: &'static str, n: usize, reps: u32, mut op: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let ((), d) = t.timed(name, || (0..reps).for_each(|_| op()));
            if t.enabled {
                t.spans.last_mut().expect("span just recorded").calls = reps;
            }
            ms(d) / f64::from(reps)
        })
        .collect();
    fastest(&samples)
}

/// One sample of the traced-against-untraced A/B: `reps` calls of `op`,
/// each in its own span when tracing is on. Returns the mean ms per call
/// and the first failure.
fn batch(
    t: &mut Tracer,
    name: &'static str,
    reps: u32,
    mut op: impl FnMut() -> Result<(), String>,
) -> (f64, Result<(), String>) {
    let mut total = Duration::ZERO;
    let mut outcome = Ok(());
    for _ in 0..reps {
        let (result, d) = t.timed(name, &mut op);
        total += d;
        outcome = outcome.and(result);
    }
    (ms(total) / f64::from(reps), outcome)
}

/// Like [`sampled`] with `reps` chosen so one sample lasts ≥ 20 ms.
fn sampled_auto(t: &mut Tracer, name: &'static str, n: usize, mut op: impl FnMut()) -> f64 {
    op();
    let start = Instant::now();
    op();
    sampled(t, name, n, reps_for(start.elapsed()), op)
}

// ---- one workload -----------------------------------------------------------

fn probe_workload(
    w: &'static Workload,
    args: &Args,
    uc: &UcBin,
    threads: usize,
    t: &mut Tracer,
) -> Result<RunRecord, String> {
    t.workload = w.name;
    let n = samples_for(args.seconds);
    let instance = w.instance(args.seed);
    let (source, expected) = (&instance.source, &instance.expected);
    let file = measure::write_program(&format!("{}-{}.uc", w.name, args.seed), source)?;

    let mut record = RunRecord {
        workload: w.name,
        seed: args.seed,
        trace: true,
        tally: Tally::default(),
        metrics: Vec::new(),
        host: host::facts(threads, args.seed, args.seconds),
    };
    let mut put = |name: &'static str, value: f64| record.push(name, Summary::exact(value));

    let front = t.group("probe.front_end", |t| front_end(t, source, n))?;
    put("lexer.ms", front.lex_ms);
    put("lexer.tokens", front.tokens as f64);
    put(
        "lexer.mtok_per_s",
        front.tokens as f64 / 1e3 / front.lex_ms.max(1e-9),
    );
    let parser_ms = front.parse_ms - front.lex_ms;
    put("parser.ms", parser_ms);
    put("parser.src_bytes", source.len() as f64);
    put(
        "parser.mb_per_s",
        source.len() as f64 / 1e3 / parser_ms.max(1e-9),
    );
    put("opt.fold_ms", front.fold_ms);
    put("sema.ms", front.sema_ms);
    put("mapping.ms", front.maps_ms);
    put("ir.lower_ms", front.lower_ms);
    put("ir.instrs", front.instrs as f64);
    put("ir.tree_escapes", front.tree_escapes as f64);
    put("ir.inline_ok", f64::from(u8::from(front.inline_ok)));
    put("analysis.ms", front.analyze_ms);
    put("analysis.findings", front.findings as f64);

    let mut tally = Tally::default();
    let prog = t.group("probe.program", |t| {
        program(t, source, expected, n, &mut tally)
    })?;
    let phases = front.parse_ms + front.fold_ms + front.sema_ms + front.maps_ms + front.lower_ms;
    put("exec.first_ms", prog.first_ms);
    put("exec.setup_ms", prog.compile_ms - phases);
    put("exec.allocs_per_run", prog.allocs as f64);
    put("exec.alloc_kb_per_run", prog.alloc_bytes as f64 / 1024.0);
    let ops = &prog.ops;
    let machine_ops = ops.alu + ops.context + ops.news + ops.router + ops.scan + ops.front_end;
    put(
        "exec.us_per_op",
        prog.exec_ms * 1e3 / machine_ops.max(1) as f64,
    );
    put("cm.ops_alu", ops.alu as f64);
    put("cm.ops_context", ops.context as f64);
    put("cm.ops_news", ops.news as f64);
    put("cm.ops_router", ops.router as f64);
    put("cm.ops_scan", ops.scan as f64);
    put("cm.ops_front_end", ops.front_end as f64);
    put("cm.mem_kb", prog.mem_bytes as f64 / 1024.0);
    put("cm.scratch_high_water", prog.scratch_high_water as f64);
    put("trace.overhead_share", prog.trace_overhead_share);

    let us = t
        .group("probe.cm", |t| machine_kernels(t, w.geometry))
        .map_err(|e| format!("cm probe: {e}"))?;
    put("cm.us_alu", us.alu);
    put("cm.us_context", us.context);
    put("cm.us_news", us.news);
    put("cm.us_router_get", us.router_get);
    put("cm.us_router_send", us.router_send);
    put("cm.us_scan", us.scan);
    put("cm.us_reduce", us.reduce);
    let router_us = if w.router_use == RouterUse::Get {
        us.router_get
    } else {
        us.router_send
    };
    // The workloads' scan-class ops are all reductions and any-active
    // tests; none runs a prefix scan.
    let est_ms = (ops.alu as f64 * us.alu
        + ops.context as f64 * us.context
        + ops.news as f64 * us.news
        + ops.router as f64 * router_us
        + ops.scan as f64 * us.reduce)
        / 1e3;
    put("cm.est_ms", est_ms);
    put("exec.overhead_ms", prog.exec_ms - est_ms);
    put(
        "exec.overhead_share",
        (prog.exec_ms - est_ms) / prog.exec_ms,
    );

    let (scope_us, chunks_us) = t.group("probe.pool", pool);
    put("pool.threads", rayon::current_num_threads() as f64);
    put("pool.scope_us", scope_us);
    put("pool.chunks_us", chunks_us);

    let cli = t.group("probe.cli", |t| cli(t, uc, &file, expected, n, &mut tally))?;
    put("pool.run_wall_t1_ms", cli.wall_t1_ms);
    put("pool.speedup", cli.wall_t1_ms / cli.wall_ms);
    put("cli.startup_ms", cli.startup_ms);
    put(
        "cli.overhead_ms",
        cli.wall_ms - prog.compile_ms - prog.first_ms,
    );
    put("cli.stdout_bytes", cli.stdout_bytes as f64);
    put("cli.run_wall_p75_ms", cli.wall_p75_ms);

    let cycles = t.group("probe.mapping", mapping_kernel)?;
    put("mapping.cycles_router", cycles[0] as f64);
    put("mapping.cycles_news", cycles[1] as f64);
    put("mapping.cycles_local", cycles[2] as f64);
    put("mapping.gain", cycles[0] as f64 / cycles[2] as f64);

    record.tally = tally;
    assert!(
        record.is_complete(),
        "the traced pass must report every per-layer metric"
    );
    Ok(record)
}

// ---- front end: lexer, parser, opt, sema, mapping, ir, analysis -------------

struct FrontEnd {
    lex_ms: f64,
    /// `parser::parse` lexes internally, so this includes `lex_ms`.
    parse_ms: f64,
    fold_ms: f64,
    sema_ms: f64,
    maps_ms: f64,
    lower_ms: f64,
    analyze_ms: f64,
    tokens: usize,
    instrs: usize,
    tree_escapes: usize,
    inline_ok: bool,
    findings: usize,
}

/// One pass through the phases `Program::compile_with_defines` and
/// `analysis::check_source` chain together, a span around each.
fn front_end(t: &mut Tracer, source: &str, n: usize) -> Result<FrontEnd, String> {
    let mut times: [Vec<f64>; 7] = Default::default();
    let mut counts = None;
    for _ in 0..n {
        let mut diags = Diagnostics::default();
        let (lexed, lex) = t.timed("lexer::lex", || lexer::lex(source, &mut diags));
        let (unit, parse) = t.timed("parser::parse", || parser::parse(source, &mut diags));
        let mut unit = unit.ok_or_else(|| format!("parse failed:\n{diags}"))?;
        let ((), fold) = t.timed("opt::fold_unit", || opt::fold_unit(&mut unit));
        let (checked, sema) = t.timed("sema::check", || sema::check(unit, &mut diags));
        let checked = checked.ok_or_else(|| format!("sema failed:\n{diags}"))?;
        let (_, maps) = t.timed("mapping::interpret_maps", || {
            mapping::interpret_maps(&checked, &mut diags)
        });
        // Global slots as `Program` assigns them: scalars in name order.
        let mut names: Vec<&String> = checked.scalars.keys().collect();
        names.sort();
        let globals: HashMap<String, u32> = names
            .into_iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i as u32))
            .collect();
        let (lowered, lower) = t.timed("ir::lower_program", || {
            ir::lower_program(&checked, &globals, IrOpt::Balanced)
        });
        let (findings, analyze) = t.timed("analysis::analyze", || analysis::analyze(&checked));
        for (slot, d) in times
            .iter_mut()
            .zip([lex, parse, fold, sema, maps, lower, analyze])
        {
            slot.push(ms(d));
        }
        let code = || {
            lowered
                .funcs
                .iter()
                .filter_map(|f| f.body.as_ref())
                .flat_map(|b| &b.code)
        };
        let escapes = code().filter(|i| {
            matches!(
                i,
                Instr::Tree { .. } | Instr::EvalExpr { .. } | Instr::EvalEffect { .. }
            )
        });
        counts = Some((
            lexed.tokens.len(),
            code().count(),
            escapes.count(),
            lowered.inline_ok,
            findings.len(),
        ));
    }
    let (tokens, instrs, tree_escapes, inline_ok, findings) =
        counts.ok_or("no front-end sample")?;
    let [lex_ms, parse_ms, fold_ms, sema_ms, maps_ms, lower_ms, analyze_ms] =
        times.map(|v| fastest(&v));
    Ok(FrontEnd {
        lex_ms,
        parse_ms,
        fold_ms,
        sema_ms,
        maps_ms,
        lower_ms,
        analyze_ms,
        tokens,
        instrs,
        tree_escapes,
        inline_ok,
        findings,
    })
}

// ---- exec: Program::compile_with_defines and Program::run -------------------

struct ProgramProbe {
    compile_ms: f64,
    first_ms: f64,
    exec_ms: f64,
    trace_overhead_share: f64,
    allocs: u64,
    alloc_bytes: u64,
    ops: uc_cm::cost::OpCounters,
    mem_bytes: u64,
    scratch_high_water: usize,
}

fn program(
    t: &mut Tracer,
    source: &str,
    expected: &Expected,
    n: usize,
    tally: &mut Tally,
) -> Result<ProgramProbe, String> {
    // Cold: a fresh program's compile and first run (cache fill, and for
    // the first of them pool spin-up).
    let mut first = Vec::with_capacity(COLD_REPS);
    let mut warm = None;
    for _ in 0..COLD_REPS {
        // As in a fresh `uc` process, no other program is alive: a second
        // live machine changes where the allocator finds the field memory
        // and made this run 40 % slower on apsp_n3.
        drop(warm.take());
        let (p, _) = t.timed("Program::compile_with_defines", || measure::compile(source));
        let mut p = p?;
        let (ran, d) = t.timed("Program::run (first)", || measure::run_once(&mut p));
        ran?;
        first.push(ms(d));
        warm = Some(p);
    }
    let mut p = warm.expect("COLD_REPS is at least one");
    let warm_cycles = measure::run_once(&mut p)?;

    // Traced against untraced, alternating, half the samples each.
    let compile_reps = {
        let start = Instant::now();
        measure::compile(source)?;
        reps_for(start.elapsed())
    };
    let exec_reps = {
        let start = Instant::now();
        measure::run_once(&mut p)?;
        reps_for(start.elapsed())
    };
    let mut compile = [Vec::new(), Vec::new()];
    let mut exec = [Vec::new(), Vec::new()];
    for k in 0..2 * n.div_ceil(2) {
        let traced = k % 2 == 0;
        t.enabled = traced;
        let (took, compiled) = batch(t, "Program::compile_with_defines", compile_reps, || {
            measure::compile(source).map(drop)
        });
        tally.record("compile", compiled);
        compile[usize::from(traced)].push(took);

        let (took, ran) = batch(t, "Program::run", exec_reps, || {
            same_cycles(measure::run_once(&mut p)?, warm_cycles)
        });
        tally.record("exec", ran.and_then(|()| expected.check_program(&mut p)));
        exec[usize::from(traced)].push(took);
    }
    t.enabled = true;
    let [compile_plain, compile_traced] = compile.map(|v| fastest(&v));
    let [exec_plain, exec_traced] = exec.map(|v| fastest(&v));
    let plain = compile_plain + exec_plain;

    let (ran, heap) = alloc::measured(|| measure::run_once(&mut p));
    ran?;
    let machine = p.machine();
    Ok(ProgramProbe {
        compile_ms: compile_plain,
        first_ms: fastest(&first),
        exec_ms: exec_plain,
        trace_overhead_share: (compile_traced + exec_traced - plain) / plain,
        allocs: heap.allocs,
        alloc_bytes: heap.bytes,
        ops: machine.counters().clone(),
        mem_bytes: machine.mem_bytes(),
        scratch_high_water: machine.scratch_high_water(),
    })
}

// ---- cm: one macro-instruction of each class, driven directly --------------

struct KernelUs {
    alu: f64,
    context: f64,
    news: f64,
    router_get: f64,
    router_send: f64,
    scan: f64,
    reduce: f64,
}

/// µs per macro-instruction on a warmed machine at `geometry`. Integer
/// fields throughout, the only element type the workloads use.
fn machine_kernels(t: &mut Tracer, geometry: &[usize]) -> uc_cm::Result<KernelUs> {
    const N: usize = 15;
    let mut m = Machine::with_defaults();
    let vp = m.new_vp_set("probe", geometry)?;
    let size = m.vp_size(vp)? as i64;
    let last = *geometry.last().expect("geometry has an axis") as i64;
    let (a, b, c) = (
        m.alloc_int(vp, "a")?,
        m.alloc_int(vp, "b")?,
        m.alloc_int(vp, "c")?,
    );
    let (gather, combine) = (m.alloc_int(vp, "gather")?, m.alloc_int(vp, "combine")?);
    let even = m.alloc_bool(vp, "even")?;
    m.iota(a)?;
    m.binop_imm(BinOp::Mul, b, a, Scalar::Int(3))?;
    // A permutation of the addresses (odd multiplier, power-of-two size)…
    m.binop_imm(BinOp::Mul, gather, a, Scalar::Int(40503))?;
    m.binop_imm(BinOp::Add, gather, gather, Scalar::Int(7))?;
    m.binop_imm(BinOp::Mod, gather, gather, Scalar::Int(size))?;
    // …and the many-to-one pattern of a reduction over the last axis.
    m.binop_imm(BinOp::Div, combine, a, Scalar::Int(last))?;
    m.binop_imm(BinOp::Mod, c, a, Scalar::Int(2))?;
    m.binop_imm(BinOp::Eq, even, c, Scalar::Int(0))?;

    let mut failed = None;
    let mut run = |t: &mut Tracer,
                   name: &'static str,
                   op: &mut dyn FnMut(&mut Machine) -> uc_cm::Result<()>| {
        let us = 1e3
            * sampled_auto(t, name, N, || {
                if let Err(e) = op(&mut m) {
                    failed.get_or_insert(e);
                }
            });
        us
    };
    let us = KernelUs {
        alu: run(t, "Machine::binop", &mut |m| m.binop(BinOp::Add, c, a, b)),
        // A push and its pop are two context-class instructions.
        context: run(t, "Machine::push_context+pop_context", &mut |m| {
            m.push_context(even)?;
            m.pop_context(vp)
        }) / 2.0,
        news: run(t, "Machine::news_shift", &mut |m| {
            m.news_shift(c, a, 0, 1, Border::Fill(Scalar::Int(0)))
        }),
        router_get: run(t, "Machine::get", &mut |m| m.get(c, gather, b)),
        router_send: run(t, "Machine::send", &mut |m| {
            m.send(c, combine, b, Combine::Min)
        }),
        scan: run(t, "Machine::scan", &mut |m| {
            m.scan(c, a, ReduceOp::Add, true, None)
        }),
        reduce: run(t, "Machine::reduce", &mut |m| {
            m.reduce(a, ReduceOp::Min).map(drop)
        }),
    };
    match failed {
        Some(e) => Err(e),
        None => Ok(us),
    }
}

// ---- pool: fork/join cost of the worker pool --------------------------------

/// `(scope_us, chunks_us)`: an empty `rayon::scope`, and `run_chunks` over
/// as many no-op chunks as a `PAR_THRESHOLD`-element op fans out to.
fn pool(t: &mut Tracer) -> (f64, f64) {
    const N: usize = 15;
    let chunks = chunk_count(PAR_THRESHOLD);
    let scope_ms = sampled_auto(t, "rayon::scope", N, || rayon::scope(|_| {}));
    let chunks_ms = sampled_auto(t, "rayon::pool::run_chunks", N, || {
        rayon::pool::run_chunks(chunks, &|_| {})
    });
    (scope_ms * 1e3, chunks_ms * 1e3)
}

// ---- cli: the `uc` executable -----------------------------------------------

struct Cli {
    wall_ms: f64,
    wall_p75_ms: f64,
    wall_t1_ms: f64,
    startup_ms: f64,
    stdout_bytes: usize,
}

fn cli(
    t: &mut Tracer,
    uc: &UcBin,
    file: &Path,
    expected: &Expected,
    n: usize,
    tally: &mut Tally,
) -> Result<Cli, String> {
    let empty = measure::write_program("empty.uc", include_str!("../../programs/empty.uc"))?;
    let (warm, cycles) = uc.warm_up(file)?;
    uc.run(&empty, None)?;

    let (mut wall, mut wall_t1, mut startup) = (Vec::new(), Vec::new(), Vec::new());
    let run = |t: &mut Tracer, name: &'static str, threads: Option<usize>, tally: &mut Tally| {
        let (out, _) = t.timed(name, || uc.run(file, threads));
        out.map(|out| {
            tally.record(name, measure::check_uc_run(&out, expected, cycles));
            ms(out.wall)
        })
    };
    // Interleaved so that both thread counts see the same host conditions.
    for k in 0..n.max(MIN_CLI_SAMPLES) {
        wall.push(run(t, "uc run", None, tally)?);
        if k < n {
            wall_t1.push(run(t, "uc run (UC_THREADS=1)", Some(1), tally)?);
            let (out, _) = t.timed("uc run (empty program)", || uc.run(&empty, None));
            let out = out?;
            tally.record(
                "uc run (empty program)",
                if out.success {
                    Ok(())
                } else {
                    Err(out.stderr.clone())
                },
            );
            startup.push(ms(out.wall));
        }
    }
    Ok(Cli {
        wall_ms: fastest(&wall),
        wall_p75_ms: percentile(&wall, 75.0),
        wall_t1_ms: fastest(&wall_t1),
        startup_ms: fastest(&startup),
        stdout_bytes: warm.stdout.len(),
    })
}

// ---- mapping: what §4's map section saves, in simulated cycles --------------

const SHIFT_KERNEL: &str = "
    #define N 4096
    #define ITERS 64
    index_set I:i = {0..N-1}, T:t = {0..ITERS-1};
    int a[N], b[N];
    MAP
    main() {
        par (I) { a[i] = i; b[i] = i * 2; }
        seq (T)
            par (I) st (i < N - 1)
                a[i] = a[i] + b[i+1];
    }
";

/// Cycles of `a[i] = a[i] + b[i+1]` with every access routed, with the
/// default mapping (NEWS), and with the paper's `permute` mapping (local).
fn mapping_kernel(t: &mut Tracer) -> Result<[u64; 3], String> {
    let routed = ExecConfig {
        optimize_access: false,
        ..ExecConfig::default()
    };
    let variants = [
        ("mapping kernel (router)", routed, ""),
        ("mapping kernel (news)", ExecConfig::default(), ""),
        (
            "mapping kernel (local)",
            ExecConfig::default(),
            "map (I) { permute (I) b[i+1] :- a[i]; }",
        ),
    ];
    let mut cycles = [0; 3];
    for (slot, (name, config, map)) in cycles.iter_mut().zip(variants) {
        let source = SHIFT_KERNEL.replace("MAP", map);
        let (ran, _) = t.timed(name, || {
            let mut p = Program::compile_with(&source, config).map_err(|d| d.to_string())?;
            p.run().map_err(|e| e.to_string())?;
            Ok::<u64, String>(p.cycles())
        });
        *slot = ran?;
    }
    Ok(cycles)
}
