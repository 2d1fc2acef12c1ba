//! The UC executor.
//!
//! Runs a checked UC program on the Connection Machine simulator. The
//! execution model mirrors the paper's implementation:
//!
//! * the **front end** runs sequential statements, `seq` sweeps and user
//!   function calls, and holds scalar variables — this is the register
//!   VM in `vm`, executing the IR that [`crate::ir`] lowers every
//!   function to;
//! * every *parallel construct* materialises an **iteration space** — a VP
//!   set whose geometry is the Cartesian product of the construct's index
//!   sets (nested constructs extend the enclosing space, so parallelism
//!   multiplies, §3.4's matrix-multiply example) — which definitions
//!   those are, and their elements, is sema's answer (`Checked::sets`
//!   by `SetId`), as is what every identifier and array base denotes
//!   (the `Ref` on it), what every call calls (its `Callee`) and which
//!   values are front-end scalars; nothing here evaluates an index set,
//!   looks a name up or reports a misuse of a parallel value — only the
//!   host accessors (`read_int_array(name)`, …) take names, and find them
//!   by position in sema's name-ordered tables;
//! * `st` predicates compile to context-flag pushes;
//! * array accesses are classified as **local**, **NEWS** or **router**
//!   (the communication classes whose costs the map section optimises);
//! * reductions evaluate their operand on the extended space and combine
//!   into the enclosing space through the router's combining sends;
//! * the `par` single-assignment rule ("multiple values assigned to one
//!   variable must be identical") is enforced by the router's collision
//!   detection.
//!
//! The VM hands each parallel construct, reduction and local array
//! declaration — the tree escapes — to the evaluators in the other
//! submodules, which run only inside the iteration space it opens:
//! `space` (iteration spaces and lifting), `expr` (expression
//! evaluation), `access` (array access paths), `reduce` (reduction
//! evaluation), `stmt` (the parallel constructs and the statements that
//! may appear inside them). A user call met there re-enters the VM.
//!
//! Every construct and reduction takes the same step, whose helpers live
//! in `stmt`: open the iteration space, evaluate all predicates into masks
//! before any arm runs, run each arm under its mask (`others` under none
//! of them), free the masks, and — for the `*` forms, a nested `seq` and
//! `solve` — repeat while the step did work, within
//! [`ExecLimits::max_iterations`]. The constructs differ only in which
//! arms a step runs and in what ends the repetition.
//!
//! A trap unwinds nothing: the failing op's error returns through `?`,
//! leaving masks pushed and fields live. The executor's per-run state
//! goes with the `Run` that [`Program::run`] builds for each run; only
//! the machine's fields and masks wait for the next run's
//! `Machine::retain`, or for the `Program`'s drop.

mod access;
mod expr;
mod reduce;
mod space;
mod stmt;
mod vm;

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use uc_cm::{CmError, ElemType, FieldId, Machine, MachineConfig, MachineLimits, Scalar, VpSetId};

use crate::ast::{Ref, ValueId};
use crate::diag::Diagnostics;
use crate::ir::IrProgram;
use crate::mapping::ArrayMapping;
use crate::opt;
use crate::sema::{self, Checked};
use crate::span::Span;

pub use space::ParCtx;

// Scalar semantics shared by the tree evaluators, the IR passes' constant
// folder and the register VM, so all three compute bit-identical values.
pub(crate) use expr::{
    front_end_rand, int_binary, scalar_abs, scalar_binary, scalar_minmax, scalar_unary,
};
pub(crate) use space::coerce_scalar;

/// Native stack for the interpreter thread. Sized so the default
/// [`ExecLimits::max_call_depth`] of 256 UC activations fits even in
/// debug builds when every call re-enters the VM from a tree escape
/// (20–31 KiB of host stack per re-entry); `vm` caps the re-entries at
/// what this holds with a 2× margin.
const EXEC_STACK_BYTES: usize = 16 * 1024 * 1024;

/// Resource budgets governing one program, replacing the hard-coded caps
/// the executor used to scatter through `stmt.rs`. The defaults are what
/// `uc run` uses without flags; a hosting service (ROADMAP item 4) should
/// tighten every one of them per request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecLimits {
    /// Simulated-cycle budget (`None` = unlimited). Checked by the
    /// machine on every charged instruction; front-end-only statements
    /// don't consume fuel, so pair this with `max_iterations` or
    /// `timeout_ms` to bound pure front-end loops.
    pub fuel: Option<u64>,
    /// Bytes of live machine storage — fields plus context masks —
    /// charged *before* allocation (`None` = unlimited). Default 256 MiB,
    /// so a hostile geometry traps instead of OOMing the process.
    pub max_mem_bytes: Option<u64>,
    /// Maximum concurrently-live function activations. A call that would
    /// make the stack deeper than this traps. Default 256.
    pub max_call_depth: usize,
    /// Cap on the iterations of any single `while`/`for` loop or
    /// `*`-construct fixpoint. Default `1 << 22`.
    pub max_iterations: u64,
    /// Wall-clock deadline for one [`Program::run`], in milliseconds
    /// (`None` = none). Armed when `run` starts, checked on every charged
    /// machine instruction and every front-end loop iteration.
    pub timeout_ms: Option<u64>,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            fuel: None,
            max_mem_bytes: Some(256 * 1024 * 1024),
            max_call_depth: 256,
            max_iterations: 1 << 22,
            timeout_ms: None,
        }
    }
}

/// A vestige of the removed second pipeline: one variant, read by no
/// one. `benchmark/src/bin/ucprobe.rs` still names `IrOpt::Balanced`
/// and passes it to [`crate::ir::lower_program`]; ROADMAP item 13(b)
/// deletes this type together with the probe's import.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IrOpt {
    /// The one pipeline every program is compiled by.
    Balanced,
}

/// Seed of the machine's deterministic `rand()` stream.
const RAND_SEED: u64 = 0x5EED;

/// Executor configuration.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Physical processors of the simulated CM (the paper used 16K).
    pub phys_procs: usize,
    /// Enable the communication-class optimization (local/NEWS detection).
    /// Off ⇒ every array access uses the general router, which is what the
    /// mapping ablation compares against.
    pub optimize_access: bool,
    /// Enable the processor optimization of §4 (reduction VP-set
    /// minimisation for histogram-style reductions).
    pub procopt: bool,
    /// Resource budgets (fuel, memory, recursion, loop caps, deadline).
    pub limits: ExecLimits,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            phys_procs: 16 * 1024,
            optimize_access: true,
            procopt: true,
            limits: ExecLimits::default(),
        }
    }
}

/// Runtime failures of a UC program.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// An error surfaced by the simulated machine.
    Cm(CmError),
    /// The `par` rule of §3.4: two enabled index elements assigned
    /// distinct values to one variable.
    MultipleAssignment { name: String },
    /// An enabled index element wrote outside an array.
    OutOfBounds { name: String },
    /// A `*`-construct or loop exceeded [`ExecLimits::max_iterations`].
    IterationLimit(&'static str),
    /// A call would exceed [`ExecLimits::max_call_depth`] live frames.
    CallDepthExceeded { max: usize },
    /// The host asked an accessor for what the named global is not (an int
    /// array read as floats, data of another length). A *program* cannot
    /// raise it: where a value must be a front-end scalar, and what a call
    /// or a `solve` may contain, are sema diagnostics.
    NotSupported(String),
    /// Division by zero on the front end.
    DivideByZero,
    /// The host asked for a global by a name the program does not have.
    Unbound(String),
    /// A panic escaped the executor internals and was caught at the
    /// [`Program::run`] boundary. Always a bug, but contained: the
    /// process survives and the caller gets the panic message.
    Internal(String),
}

impl From<CmError> for RuntimeError {
    fn from(e: CmError) -> Self {
        RuntimeError::Cm(e)
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Cm(e) => write!(f, "machine error: {e}"),
            RuntimeError::MultipleAssignment { name } => write!(
                f,
                "par statement assigned distinct values to a single element of `{name}`"
            ),
            RuntimeError::OutOfBounds { name } => {
                write!(f, "parallel write outside the bounds of `{name}`")
            }
            RuntimeError::IterationLimit(what) => {
                write!(f, "iteration budget exceeded in {what}")
            }
            RuntimeError::CallDepthExceeded { max } => {
                write!(f, "call-depth budget exceeded: recursion deeper than {max} frames")
            }
            RuntimeError::NotSupported(what) => write!(f, "not supported: {what}"),
            RuntimeError::DivideByZero => write!(f, "division by zero"),
            RuntimeError::Unbound(name) => write!(f, "unbound identifier `{name}`"),
            RuntimeError::Internal(msg) => {
                write!(f, "internal executor error (caught panic): {msg}")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A [`RuntimeError`] annotated with where it happened: the span of the
/// statement that was executing and the UC call stack (outermost first,
/// each entry the callee's name and the span of its call site).
/// [`Program::run`] returns this so `uc run` can render a real
/// diagnostic instead of a bare message.
#[derive(Debug, Clone, PartialEq)]
pub struct RunError {
    pub error: RuntimeError,
    /// Statement being executed when the error surfaced.
    pub span: Span,
    /// UC call stack, outermost first: `(function, call-site span)`.
    pub stack: Vec<(String, Span)>,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.error)?;
        if self.span != Span::default() {
            write!(f, " at {}", self.span)?;
        }
        Ok(())
    }
}

impl std::error::Error for RunError {}

pub(crate) type RResult<T> = Result<T, RuntimeError>;

/// A parallel value: either a front-end scalar (broadcast on demand) or a
/// field on the current iteration space.
#[derive(Debug, Clone, Copy)]
pub(crate) enum PV {
    Scalar(Scalar),
    /// `owned` fields are temporaries freed by the consumer.
    Field { id: FieldId, owned: bool },
}

impl PV {
    pub(crate) fn owned(id: FieldId) -> PV {
        PV::Field { id, owned: true }
    }
}

/// Storage of one UC array on the machine.
#[derive(Debug)]
pub(crate) struct ArrayStorage {
    pub field: FieldId,
    pub ty: ElemType,
    /// Logical shape (the declared `a[N][M]` extents).
    pub shape: Vec<usize>,
    pub mapping: ArrayMapping,
}

impl ArrayStorage {
    /// The array in logical (row-major) order, from its storage `raw`.
    fn logical<T: Copy>(&self, raw: &[T]) -> Vec<T> {
        let size: usize = self.shape.iter().product();
        (0..size).map(|i| raw[self.mapping.storage_index(i, &self.shape, 0)]).collect()
    }
}

/// A machine-backed local of a live activation (`sema::LocalKind::PerVp`
/// or `Array`); a front-end scalar is a register instead.
#[derive(Debug)]
pub(crate) enum LocalVar {
    /// Per-VP variable declared inside a parallel body; `level` is the
    /// context-stack depth it lives at.
    ParField { field: FieldId, level: usize },
    /// Function-local array.
    Array(ArrayStorage),
}

/// What an array access reads or writes: the array its base was resolved
/// to, or a `solve` defined-bitmap in [`Run::defined`]. The access
/// paths look it up where they use it, holding no handle across an `eval`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Storage {
    Array(Ref),
    Defined(usize),
}

/// The executor caches' hasher, FxHash's multiply-rotate: their keys come
/// from the program text and each entry holds machine storage charged to
/// the memory budget, so SipHash's flooding resistance buys nothing.
#[derive(Default)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let word = u64::from_ne_bytes(word);
            self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// One function activation — the only record of it: which function,
/// where its registers sit in [`Run::regs`], what the VM needs to
/// resume its caller, and its machine-backed locals.
#[derive(Debug)]
pub(crate) struct Frame {
    /// Position in `ir.funcs` and `checked.func_infos`.
    pub func: usize,
    /// Its register file starts at `regs[base]`. A `LocalKind::Reg` local
    /// is the register sema numbered it; tree-evaluated fragments read
    /// and write it there ([`Run::reg`]).
    pub base: usize,
    /// Where the VM resumes this activation when its callee returns, and
    /// the caller's register that receives this activation's value.
    pub pc: usize,
    pub ret_dst: crate::ir::Reg,
    /// Open front-end `seq` sweeps, innermost last: the set's elements
    /// and the position of the next one.
    pub seqs: Vec<(Arc<Vec<i64>>, usize)>,
    /// Indexed by `LocalId`; `Some` between a machine-backed local's
    /// declaration and the exit of its block. Empty (and unallocated) for
    /// a function that declares none.
    pub locals: Vec<Option<LocalVar>>,
}

/// A compiled, runnable UC program.
///
/// See the crate docs for a quickstart. `Program` owns the simulated
/// machine; [`Program::cycles`] exposes the elapsed simulated time that
/// the paper's figures plot. It holds what compile built and what
/// outlives a run; each run's own state is a `Run`.
#[derive(Debug)]
pub struct Program {
    pub(crate) checked: Checked,
    pub(crate) config: ExecConfig,
    pub(crate) machine: Machine,
    /// Iteration-space / array-shape VP sets, keyed by geometry.
    pub(crate) spaces: FxMap<Vec<usize>, VpSetId>,
    /// Global arrays, by `Ref::Array` id (`checked.array_names` order).
    pub(crate) arrays: Vec<ArrayStorage>,
    /// Global scalar values, by `Ref::Global` id
    /// (`checked.global_names` order).
    pub(crate) globals: Vec<Scalar>,
    /// The lowered register IR the VM executes.
    pub(crate) ir: IrProgram,
    /// The last run's buffers, for the next.
    spare: Spare,
}

/// The buffers a [`Run`] leaves, empty, kept only for their capacity, so
/// a warm run allocates nothing (`exec_alloc.rs`, `call_alloc.rs`). Each
/// is the `Run` field of its name.
#[derive(Debug, Default)]
struct Spare {
    ctx: Vec<ParCtx>,
    ctx_spare: Vec<space::CtxBuffers>,
    mask_spare: Vec<Vec<Option<FieldId>>>,
    defined: Vec<ArrayStorage>,
    forms: Vec<opt::IdxForm>,
    frames: Vec<Frame>,
    regs: Vec<Scalar>,
    cse_stack: Vec<Vec<(VpSetId, Option<ValueId>, FieldId)>>,
    geo_cache: FxMap<(VpSetId, space::Geo), FieldId>,
    call_stack: Vec<(usize, Span)>,
}

/// One run of a [`Program`]: the executor's per-run state, which
/// [`Run::new`] starts fresh and which goes when the run does, beside
/// borrows of the compiled parts and of what outlives runs — the machine,
/// the VP sets and the global scalars.
pub(crate) struct Run<'p> {
    checked: &'p Checked,
    config: &'p ExecConfig,
    ir: &'p IrProgram,
    arrays: &'p [ArrayStorage],
    machine: &'p mut Machine,
    spaces: &'p mut FxMap<Vec<usize>, VpSetId>,
    globals: &'p mut [Scalar],
    /// The defined-bitmaps of the open `solve`s, innermost last.
    defined: Vec<ArrayStorage>,
    /// Parallel-context stack (innermost last).
    ctx: Vec<ParCtx>,
    /// The buffers of popped levels, cleared, for the next `push_space`.
    ctx_spare: Vec<space::CtxBuffers>,
    /// Cleared arm-mask lists, for the next step's predicates.
    mask_spare: Vec<Vec<Option<FieldId>>>,
    /// The resolved subscript forms of the accesses in progress,
    /// innermost last.
    forms: Vec<opt::IdxForm>,
    /// Function activation stack.
    frames: Vec<Frame>,
    /// The registers of every live activation, innermost last: entering
    /// a function appends its image, returning truncates.
    regs: Vec<Scalar>,
    rand_counter: u64,
    oneof_cursor: usize,
    /// Common-subexpression cache for the values sema marks within one
    /// synchronous step (§4 "common sub-expression detection"), gathers
    /// and computed values alike: a stack of per-step lists of (space,
    /// value, field) — a step caches a handful, so a scan beats hashing.
    /// Filled while predicates evaluate, consumed by arm bodies. A write
    /// makes an entry stale (`None`); its field lives on until the step
    /// ends, so a value already handed out stays readable. Levels from
    /// `cse_depth` up are spare: empty, kept for their capacity.
    cse_stack: Vec<Vec<(VpSetId, Option<ValueId>, FieldId)>>,
    cse_depth: usize,
    /// Whether values may currently be inserted into the cache: while a
    /// step's predicates evaluate, under the step's own context.
    cse_fill: bool,
    /// The geometry cache: fields that depend only on a VP set's geometry
    /// ([`space::Geo`]), which `spaces` maps one-to-one to a VP set. Each
    /// is built on every VP when a run first needs it, charged then, and
    /// kept for the rest of the run, so re-entering a construct (e.g. a
    /// `par` nested in a front-end loop) reuses it instead of recomputing,
    /// as a compiler hoists it out of loops.
    geo_cache: FxMap<(VpSetId, space::Geo), FieldId>,
    /// Span of the statement currently executing, for [`RunError`].
    exec_span: Span,
    /// Live UC call stack, outermost first: `(callee, call-site span)`,
    /// the callee by position in `ir.funcs`. Entries are popped on
    /// successful return only, so on error the stack still describes
    /// where execution was.
    call_stack: Vec<(usize, Span)>,
    /// Live native entries of the VM (`vm::call`): `main`'s, and one per
    /// user call met by tree-evaluated code.
    reentries: usize,
}

impl Program {
    /// Compile UC source with the default configuration.
    pub fn compile(src: &str) -> Result<Program, Diagnostics> {
        Self::compile_with(src, ExecConfig::default())
    }

    /// Compile UC source with an explicit configuration.
    pub fn compile_with(src: &str, config: ExecConfig) -> Result<Program, Diagnostics> {
        Self::compile_with_defines(src, config, &[])
    }

    /// Compile with `#define` overrides — the benchmark harness uses this
    /// to sweep problem sizes without editing source text.
    pub fn compile_with_defines(
        src: &str,
        config: ExecConfig,
        defines: &[(&str, i64)],
    ) -> Result<Program, Diagnostics> {
        let mut diags = Diagnostics::default();
        let Some(checked) = sema::front_end(src, defines, &mut diags) else {
            return Err(diags);
        };
        let globals = global_scalars(&checked);
        let ir = crate::ir::lower_program(&checked, &HashMap::new(), IrOpt::Balanced);
        // The VM is the only executor, so a reachable function the
        // lowering gave up on (`body: None`) cannot run at all.
        let unlowered = (checked.funcs_in_order().zip(&ir.funcs).zip(&checked.reachable))
            .find(|((_, f), &reached)| reached && f.body.is_none());
        if let Some(((def, f), _)) = unlowered {
            let (name, max) = (&f.name, crate::ir::Reg::MAX);
            let msg = format!("function `{name}` needs more than {max} registers; split it up");
            diags.error(def.span, msg);
            return Err(diags);
        }
        let mut machine = Machine::new(MachineConfig {
            phys_procs: config.phys_procs,
            limits: MachineLimits {
                fuel: config.limits.fuel,
                max_mem_bytes: config.limits.max_mem_bytes,
            },
            ..MachineConfig::default()
        });
        let mut spaces = FxMap::default();
        let arrays = allocate_arrays(&checked, &mut machine, &mut spaces).map_err(|e| {
            let mut d = Diagnostics::default();
            d.error(crate::span::Span::default(), format!("allocation failed: {e}"));
            d
        })?;
        let spare = Spare::default();
        Ok(Program { checked, config, machine, spaces, arrays, globals, ir, spare })
    }

    /// The optimized register IR in its stable text form (`uc run
    /// --emit ir`). See [`crate::ir`] for the format.
    pub fn emit_ir(&self) -> String {
        crate::ir::text::render(&self.ir, &self.checked)
    }

    /// Run `main()` to completion.
    ///
    /// Errors come back as a [`RunError`] carrying the span of the failing
    /// statement and the UC call stack. The run is a fault boundary: a
    /// panic escaping the executor internals is caught here and reported
    /// as [`RuntimeError::Internal`] instead of aborting the process. It is
    /// the only recovery: the machine first frees all but the global
    /// arrays, and the executor's state is a fresh `Run`, so no run
    /// depends on how the last one ended.
    pub fn run(&mut self) -> Result<(), RunError> {
        // Only the global arrays' storage survives on the machine. The
        // geometry cache is the `Run`'s, so every run pays for its fills
        // and a program's tally does not depend on the runs before it.
        let arrays = &self.arrays;
        self.machine.retain(|f| arrays.iter().any(|a| a.field == f));
        if let Some(ms) = self.config.limits.timeout_ms {
            self.machine.arm_deadline(ms);
        }
        // The VM keeps its activations on the heap, so its native
        // recursion is bounded by the nesting of one tree escape — unless
        // an escape contains a user call, which re-enters the VM natively
        // once per UC activation and at the default 256-frame budget
        // would overrun a 2 MiB thread stack in debug builds. When the
        // lowered program certifies the bound (`inline_ok`) the run stays
        // on the calling thread, skipping a ~50 µs thread spawn that
        // would dominate short repeated runs; otherwise it gets a
        // dedicated thread with enough stack that the call-depth budget —
        // not the host stack — is the limit.
        let (main, inline) = (self.checked.main, self.ir.inline_ok);
        let mut run = Run::new(self);
        let mut go = || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| vm::call(&mut run, main, &[])))
        };
        let outcome = if inline {
            go()
        } else {
            std::thread::scope(|scope| {
                std::thread::Builder::new()
                    .name("uc-exec".into())
                    .stack_size(EXEC_STACK_BYTES)
                    .spawn_scoped(scope, go)
                    .expect("spawn uc-exec thread")
                    .join()
                    .unwrap_or_else(Err)
            })
        };
        run.machine.clear_deadline();
        let result = match outcome {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(error)) => Err(run.run_error(error)),
            Err(payload) => {
                let msg = payload.downcast_ref::<&str>().map(|s| s.to_string());
                let msg = msg.or_else(|| payload.downcast_ref::<String>().cloned());
                let msg = msg.unwrap_or_else(|| "unknown panic payload".to_string());
                Err(run.run_error(RuntimeError::Internal(msg)))
            }
        };
        self.spare = run.finish();
        result
    }

    /// Elapsed simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.machine.cycles()
    }

    /// Clear the machine's tally, and with it the simulated clock (e.g.
    /// after initialisation, before the timed phase of a benchmark).
    pub fn reset_clock(&mut self) {
        self.machine.reset_clock();
    }

    /// Borrow the underlying machine (instruction counters, etc.).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// A global array's position in `arrays`, by name (the host API's
    /// lookup: position in the name-ordered table).
    fn global_array(&self, name: &str) -> RResult<usize> {
        let names = &self.checked.array_names;
        let found = names.binary_search_by(|n| n.as_str().cmp(name));
        found.map_err(|_| RuntimeError::Unbound(name.into()))
    }

    /// Logical shape of a global array.
    pub fn shape(&self, name: &str) -> Option<&[usize]> {
        self.global_array(name).ok().map(|a| self.checked.arrays[a].shape.as_slice())
    }

    /// Read a global integer array in logical (row-major) order,
    /// inverting any mapping. Host reads are not charged: they leave the
    /// tally as the run left it.
    pub fn read_int_array(&self, name: &str) -> RResult<Vec<i64>> {
        let st = &self.arrays[self.global_array(name)?];
        let not_int = |_| RuntimeError::NotSupported(format!("`{name}` is not an int array"));
        Ok(st.logical(self.machine.int_data(st.field).map_err(not_int)?))
    }

    /// Read a global float array in logical order, uncharged.
    pub fn read_float_array(&self, name: &str) -> RResult<Vec<f64>> {
        let st = &self.arrays[self.global_array(name)?];
        let not_float = |_| RuntimeError::NotSupported(format!("`{name}` is not a float array"));
        Ok(st.logical(self.machine.float_data(st.field).map_err(not_float)?))
    }

    /// Overwrite a global integer array from logical-order data (applies
    /// the array's mapping, writing every replica). Charged as the one
    /// front-end write; reading the old storage is not.
    pub fn write_int_array(&mut self, name: &str, data: &[i64]) -> RResult<()> {
        let st = &self.arrays[self.global_array(name)?];
        let size: usize = st.shape.iter().product();
        if data.len() != size {
            return Err(RuntimeError::NotSupported(format!(
                "`{name}` has {size} elements, got {}",
                data.len()
            )));
        }
        let not_int = |_| RuntimeError::NotSupported(format!("`{name}` is not an int array"));
        let mut raw = self.machine.int_data(st.field).map_err(not_int)?.to_vec();
        for r in 0..st.mapping.replicas() {
            for (i, &v) in data.iter().enumerate() {
                raw[st.mapping.storage_index(i, &st.shape, r)] = v;
            }
        }
        self.machine.write_all(st.field, uc_cm::FieldData::I64(raw))?;
        Ok(())
    }

    /// Read a global scalar variable.
    pub fn read_scalar(&self, name: &str) -> Option<Scalar> {
        let names = &self.checked.global_names;
        names.binary_search_by(|n| n.as_str().cmp(name)).ok().map(|g| self.globals[g])
    }

    /// Names of all global scalar variables.
    pub fn scalar_names(&self) -> Vec<String> {
        self.checked.global_names.clone()
    }

    /// Names of all global arrays.
    pub fn array_names(&self) -> Vec<String> {
        self.checked.array_names.clone()
    }

    /// Read a global int scalar.
    pub fn read_int(&self, name: &str) -> Option<i64> {
        self.read_scalar(name).map(|v| v.as_int())
    }

    /// The value of a `#define` constant after overrides (its last
    /// definition, as sema resolves it).
    pub fn define(&self, name: &str) -> Option<i64> {
        self.checked.unit.defines.iter().rev().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

impl<'p> Run<'p> {
    /// A fresh run of `p`, its buffers taken from `p`'s spare ones. Every
    /// per-run field starts here, so one missing from this literal does
    /// not compile.
    fn new(p: &'p mut Program) -> Self {
        let Program { checked, config, machine, spaces, arrays, globals, ir, spare } = p;
        let s = std::mem::take(spare);
        Run {
            checked, config, ir, arrays, machine, spaces, globals,
            defined: s.defined,
            ctx: s.ctx,
            ctx_spare: s.ctx_spare,
            mask_spare: s.mask_spare,
            forms: s.forms,
            frames: s.frames,
            regs: s.regs,
            rand_counter: 0,
            oneof_cursor: 0,
            cse_stack: s.cse_stack,
            cse_depth: 0,
            cse_fill: false,
            geo_cache: s.geo_cache,
            exec_span: Span::default(),
            call_stack: s.call_stack,
            reentries: 0,
        }
    }

    /// End the run, handing its buffers back emptied: what a trap left in
    /// them goes here, and the fields it names wait for the next run's
    /// `Machine::retain`.
    fn finish(mut self) -> Spare {
        fn empty<T>(mut v: Vec<T>) -> Vec<T> {
            v.clear();
            v
        }
        self.cse_stack.iter_mut().for_each(Vec::clear);
        self.geo_cache.clear();
        Spare {
            ctx: empty(self.ctx),
            ctx_spare: self.ctx_spare,
            mask_spare: self.mask_spare,
            defined: empty(self.defined),
            forms: empty(self.forms),
            frames: empty(self.frames),
            regs: empty(self.regs),
            cse_stack: self.cse_stack,
            geo_cache: self.geo_cache,
            call_stack: empty(self.call_stack),
        }
    }

    /// Annotate `error` with where the run was, naming the call stack's
    /// functions.
    fn run_error(&self, error: RuntimeError) -> RunError {
        let stack = self.call_stack.iter().map(|&(f, site)| (self.ir.funcs[f].name.clone(), site));
        RunError { error, span: self.exec_span, stack: stack.collect() }
    }

    // ---- internals shared by the exec submodules -------------------------

    /// The geometry-cache field `geo` on `vp`, which `build` makes valid
    /// on every VP on its first use in a run.
    pub(crate) fn geo_field(
        &mut self,
        vp: VpSetId,
        geo: space::Geo,
        build: impl FnOnce(&mut Self) -> RResult<FieldId>,
    ) -> RResult<FieldId> {
        let key = (vp, geo);
        if let Some(&f) = self.geo_cache.get(&key) {
            return Ok(f);
        }
        let f = build(self)?;
        self.geo_cache.insert(key, f);
        Ok(f)
    }

    /// The innermost parallel context. Tree code runs only inside one, and
    /// a parallel value exists only under one (sema's rank rule); a
    /// violation is an executor bug, contained by the `catch_unwind` in
    /// [`Program::run`].
    pub(crate) fn cur_ctx(&self) -> &ParCtx {
        self.ctx.last().expect("inside a parallel construct")
    }

    /// Register `r` of the innermost activation.
    pub(crate) fn reg(&mut self, r: crate::ir::Reg) -> &mut Scalar {
        let base = self.frames.last().expect("frame").base;
        &mut self.regs[base + r as usize]
    }

    /// A fresh deterministic seed for one `rand()` instruction.
    pub(crate) fn next_rand_seed(&mut self) -> u64 {
        self.rand_counter += 1;
        RAND_SEED.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(self.rand_counter)
    }

    /// Release a PV's temporary field, if it owns one.
    pub(crate) fn release(&mut self, pv: PV) {
        if let PV::Field { id, owned: true } = pv {
            let _ = self.machine.free(id);
        }
    }
}

/// Get (or create) the VP set for a geometry. Arrays and iteration
/// spaces of the same shape share a VP set, which is exactly the paper's
/// default mapping: conforming arrays live on common processors and
/// element-wise operations are local.
fn space_vp(
    machine: &mut Machine,
    spaces: &mut FxMap<Vec<usize>, VpSetId>,
    dims: &[usize],
) -> RResult<VpSetId> {
    if let Some(vp) = spaces.get(dims) {
        return Ok(*vp);
    }
    let vp = machine.new_vp_set("space", dims)?;
    spaces.insert(dims.to_vec(), vp);
    Ok(vp)
}

/// The storage of the global arrays, by `Ref::Array` id, each laid out as
/// the map section says.
fn allocate_arrays(
    checked: &Checked,
    machine: &mut Machine,
    spaces: &mut FxMap<Vec<usize>, VpSetId>,
) -> RResult<Vec<ArrayStorage>> {
    let mut arrays = Vec::new();
    for (id, name) in checked.array_names.iter().enumerate() {
        let sema::ArrayInfo { ty, shape, mapping } = checked.array(id as u32).clone();
        let vp = space_vp(machine, spaces, &mapping.storage_shape(&shape))?;
        let ty = elem_type(ty);
        let field = machine.alloc(vp, name, ty)?;
        arrays.push(ArrayStorage { field, ty, shape, mapping });
    }
    Ok(arrays)
}

/// Initial values of the global scalars, in `Ref::Global` order.
fn global_scalars(checked: &Checked) -> Vec<Scalar> {
    let value = |name: &String| {
        let (ty, init) = checked.scalars[name];
        coerce_scalar(Scalar::Int(init.unwrap_or(0)), elem_type(ty))
    };
    checked.global_names.iter().map(value).collect()
}

/// The machine element type of a declared UC type.
pub(crate) fn elem_type(ty: crate::ast::Type) -> ElemType {
    match ty {
        crate::ast::Type::Float => ElemType::Float,
        _ => ElemType::Int,
    }
}
