//! The compiled register IR.
//!
//! Front-end scalar work charges no simulated cycles, so interpreting it
//! node by node would be pure host-side overhead. This module lowers
//! each checked function into a flat instruction sequence over a
//! per-activation register file, which the register VM in `exec::vm`
//! runs without any native recursion of its own. The VM is the only
//! driver of execution: every user call and all sequential control flow
//! go through these instructions.
//!
//! ## Shape of the IR
//!
//! A function body is a `Vec<Instr>`, a span per instruction, and two
//! side tables of AST fragments. Three instruction families split the work:
//!
//! * **Registers** (`Const`, `Copy`, `Bin`, `Un`, `StoreSlot`,
//!   `LoadGlobal`, `StoreGlobal`, `LoadElem`, `StoreElem`, `Jump*`,
//!   `IterCheck`, `Call`, `Rand`, `Ret`) — front-end control flow, its
//!   iteration caps and deadline polls included, scalar arithmetic
//!   (`Bin`/`Un` carry `min`, `max`, `abs` and `power2` too, one op each,
//!   as the machine's elementwise ops do; the 0/1 value of `&&`/`||` is a
//!   `Bin` `!=` against the constant 0) and array elements, fully
//!   compiled, over four register families, lowest first: **named** —
//!   every front-end scalar local (parameter, declaration, `seq` element)
//!   is the register sema numbered it (`sema::LocalKind::Reg`);
//!   **loop** — iteration counters, `seq` cursors and `seq` flags, set
//!   by `Const`; **temporaries**, reset per statement; **constants** — one
//!   per distinct literal, `#define` or `INF` of the function, preloaded
//!   by [`IrFunc::image`], never written. A local or a constant is an
//!   operand as it stands, and a value that already has a slot's declared
//!   representation is computed straight into it; `StoreSlot` coerces the
//!   rest. A front-end `seq` or `*seq` sweeps the set sema resolved it to
//!   from a cursor register (`SeqNext`): the element binding, the `st`
//!   arms, `others` and the repeat-while-enabled test are ordinary
//!   register code around it.
//! * **Tree escapes** (`Tree`, `EvalExpr`, `EvalEffect`) — one parallel
//!   construct (a `seq` nested in one runs under its masks), one
//!   reduction or one local array declaration — the work of ROADMAP item
//!   6 — evaluated by `crate::exec` on the AST fragment in a side table,
//!   inside the iteration space it opens. A fragment and the code around
//!   it agree on every name without any run-time bookkeeping: sema wrote
//!   what each identifier denotes on the AST, so the fragment reads a
//!   lowered local from its register and keeps a machine-backed one
//!   (per-VP scalar, local array) in the activation's table by `LocalId`.
//!   `FreeLocals` is the one trace of scoping left: it frees the local
//!   arrays of a block at its exit.
//!
//! The statement an instruction belongs to is not an instruction:
//! [`IrBody::spans`] holds, per pc, the span of the innermost statement
//! that owns it — what a `RunError` raised there reports, and the key a
//! per-statement profile would use — at no cost to a run. A read of a
//! local copies to a temporary only when the statement-level expression
//! assigns below its root chain of assignments (`x + (x = 3)`).
//!
//! A function whose lowering would overflow the register file keeps
//! `body: None`, which `Program::compile_with_defines` reports as a
//! compile error.
//!
//! ## No pass pipeline
//!
//! The VM runs exactly what the lowerer emits. Front-end code is
//! uncharged, so folding or deleting it could only save host time, and
//! measured it saved none; what the machine is charged for is the
//! program as written (and as mapped, §4).
//!
//! `uc run --emit ir` (and `uc check --emit ir`) print the program in
//! the stable text form produced by [`text::render`], which takes its
//! names from sema's tables.

pub mod lower;
pub mod text;

pub use lower::lower_program;

use uc_cm::Scalar;

use crate::ast::{BinaryOp, Expr, LocalId, Ref, SetId, Stmt, UnaryOp};
use crate::span::Span;

/// Register index. Slots `0..n_perm` are parameters, named locals and
/// loop registers, `n_perm..const_base` per-statement temporaries, and
/// `const_base..` the function's constants.
pub type Reg = u16;

/// Instruction index (jump target).
pub type Target = u32;

/// One IR instruction. See the module docs for the three families.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `r[dst] = v` — where a value is assigned (a loop register); a
    /// constant *operand* is a register of its own.
    Const { dst: Reg, v: Scalar },
    /// `r[dst] = r[src]`
    Copy { dst: Reg, src: Reg },
    /// `r[dst] = r[a] op r[b]` (front-end C semantics, wrapping ints;
    /// traps on division by zero), `min`/`max` included.
    Bin { op: BinaryOp, dst: Reg, a: Reg, b: Reg },
    /// `r[dst] = op r[a]`, `abs` and `power2` included.
    Un { op: UnaryOp, dst: Reg, a: Reg },
    /// `r[slot] = coerce(r[src], float or int)` — assignment to a named
    /// local, coercing to its declared type, or an assignment's value as
    /// its target's type.
    StoreSlot { slot: Reg, src: Reg, float: bool },
    /// `r[dst] = globals[g]`
    LoadGlobal { dst: Reg, g: u32 },
    /// `globals[g] = coerce(r[src], type of globals[g])`; drops the gather
    /// cache of an open step (a callee of a `par` arm).
    StoreGlobal { g: u32, src: Reg },
    /// `r[dst] = array[r[subs[0]]]...`, each subscript bounds-checked
    /// against its axis; `array` is a global or local array.
    LoadElem { dst: Reg, array: Ref, subs: Box<[Reg]> },
    /// `array[r[subs[0]]]... = coerce(r[src], its type)`, into every
    /// replica; drops the cached gathers that read `array`.
    StoreElem { array: Ref, subs: Box<[Reg]>, src: Reg },
    /// Unconditional jump.
    Jump { t: Target },
    /// Jump when `r[c]` is zero.
    JumpIfFalse { c: Reg, t: Target },
    /// Jump when `r[c]` is non-zero.
    JumpIfTrue { c: Reg, t: Target },
    /// Bump the counter, trap on [`crate::exec::ExecLimits::max_iterations`],
    /// poll the wall-clock deadline. Placed after a loop's condition and
    /// before its body, or at the top of a `seq` sweep.
    IterCheck { slot: Reg, label: &'static str },
    /// Call a function: arity-matched, scalar args from registers,
    /// `r[dst]` receives the return value (0 when the callee returns
    /// nothing).
    Call { dst: Reg, f: u32, args: Box<[Reg]> },
    /// `r[dst] = rand()` — consumes one seed from the deterministic
    /// stream shared with the parallel `rand()`.
    Rand { dst: Reg },
    /// Return from the current activation (`None` returns int 0; the
    /// lowering has coerced a value to the declared return type),
    /// freeing the frame's machine-backed locals.
    Ret { src: Option<Reg> },
    /// Free whichever of the locals `lo..hi` are live — emitted where
    /// control leaves a block that declares a local array (its exit, a
    /// `break`/`continue` out of it).
    FreeLocals { lo: LocalId, hi: LocalId },
    /// `r[dst] = exprs[e]`, a reduction the tree evaluator folds to a
    /// front-end scalar.
    EvalExpr { dst: Reg, e: u32 },
    /// Evaluate the reduction `exprs[e]` for effect by the tree evaluator.
    EvalEffect { e: u32 },
    /// Execute `stmts[s]` by the tree evaluator: a parallel construct or a
    /// local array declaration. Neither transfers control.
    Tree { s: u32 },
    /// Advance a front-end `seq` sweep over `sets[set]`, the definition
    /// sema resolved the construct's set name to, whose position is
    /// `r[pos]`: `r[elem]` = the element there, `r[pos]` += 1 and
    /// `r[more] = 1`, or `r[more] = 0` once the sweep is exhausted — which
    /// also rewinds `r[pos]` to 0, so `*seq` can sweep again.
    SeqNext { set: SetId, pos: Reg, elem: Reg, more: Reg },
}

impl Instr {
    /// Visit every register operand once, written or read.
    pub(crate) fn for_each_reg(&mut self, mut f: impl FnMut(&mut Reg)) {
        match self {
            Instr::Const { dst: r, .. }
            | Instr::LoadGlobal { dst: r, .. }
            | Instr::Rand { dst: r }
            | Instr::EvalExpr { dst: r, .. }
            | Instr::IterCheck { slot: r, .. }
            | Instr::StoreGlobal { src: r, .. }
            | Instr::JumpIfFalse { c: r, .. }
            | Instr::JumpIfTrue { c: r, .. }
            | Instr::Ret { src: Some(r) } => f(r),
            Instr::Copy { dst, src: a }
            | Instr::StoreSlot { slot: dst, src: a, .. }
            | Instr::Un { dst, a, .. } => {
                f(dst);
                f(a);
            }
            Instr::Bin { dst, a, b, .. } | Instr::SeqNext { pos: dst, elem: a, more: b, .. } => {
                f(dst);
                f(a);
                f(b);
            }
            Instr::Call { dst, args: subs, .. }
            | Instr::LoadElem { dst, subs, .. }
            | Instr::StoreElem { src: dst, subs, .. } => {
                f(dst);
                subs.iter_mut().for_each(f);
            }
            Instr::Jump { .. }
            | Instr::Ret { src: None }
            | Instr::FreeLocals { .. }
            | Instr::EvalEffect { .. }
            | Instr::Tree { .. } => {}
        }
    }
}

/// A lowered function body: code, the statement each instruction belongs
/// to, and the AST fragments its tree escapes reference.
#[derive(Debug, Clone, PartialEq)]
pub struct IrBody {
    pub code: Vec<Instr>,
    /// Per instruction of `code`, the span of the statement that owns it
    /// — what a `RunError` raised at that pc reports.
    pub spans: Vec<Span>,
    /// Statements referenced by [`Instr::Tree`].
    pub stmts: Vec<Stmt>,
    /// Reductions referenced by [`Instr::EvalExpr`] / [`Instr::EvalEffect`].
    pub exprs: Vec<Expr>,
}

/// One lowered function.
#[derive(Debug, Clone, PartialEq)]
pub struct IrFunc {
    pub name: String,
    /// Parameter coercion: `true` = float, `false` = int (everything
    /// non-float coerces to int).
    pub params: Vec<bool>,
    /// Registers `0..n_perm` are named locals / parameters / loop
    /// registers; `n_perm..const_base` are statement temporaries.
    pub n_perm: u16,
    /// Registers from `const_base` up hold the function's constants.
    pub const_base: u16,
    /// The register file of a fresh activation: zeros below `const_base`,
    /// the constants above.
    pub image: Vec<Scalar>,
    /// `None` for a function `main` never reaches, which is not lowered,
    /// or when lowering overflowed the register file — a program where a
    /// reachable function did is rejected at compile time.
    pub body: Option<IrBody>,
}

/// The lowered program.
#[derive(Debug, Clone, PartialEq)]
pub struct IrProgram {
    /// In `Checked::funcs_in_order` order: a `Callee::Func` indexes both.
    pub funcs: Vec<IrFunc>,
    /// Whether the whole program may run on the caller's thread: every
    /// reachable function lowered, no user calls inside their tree escapes
    /// (a call from a parallel construct or a reduction re-enters the VM
    /// natively, once per UC activation), and every escape's AST shallow
    /// enough that tree recursion stays within a small bound. When false,
    /// [`crate::exec::Program::run`] spawns a big-stack interpreter thread.
    pub inline_ok: bool,
}
