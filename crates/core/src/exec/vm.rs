//! The register VM: the front end of the execution model.
//!
//! Executes [`crate::ir::IrProgram`] bodies. It owns every user call and
//! all sequential control flow — `if`/loops/`return`, front-end `seq`
//! sweeps, recursion — keeping UC activations on two heap stacks, so the
//! VM itself never recurses natively: a [`Frame`] per activation on
//! [`Run::frames`], the call stack a [`super::RunError`] reports, and
//! every activation's registers, its loops' counters and cursors among
//! them, end to end on [`Run::regs`] (entering appends the function's
//! image, returning truncates). It reads and writes array elements too.
//! Parallel constructs, reductions and local array declarations are tree
//! escapes into the sibling modules; a user call met inside one comes
//! back through [`call`].
//!
//! The loop keeps the running activation's code, register base and pc in
//! locals and reloads them only on `Call` and `Ret`. The statement it is
//! in is `spans[pc]`, copied to [`Run::exec_span`] only where someone
//! can look: before a call (the callee frame's site), before a reduction,
//! and on every trap.

use uc_cm::{ElemType, Scalar};

use super::{
    coerce_scalar, front_end_rand, int_binary, scalar_binary, scalar_unary, Frame, RResult, Run,
    RuntimeError, Storage, EXEC_STACK_BYTES, PV,
};
use crate::ast::Ref;
use crate::ir::{Instr, IrBody, IrProgram, Reg};

/// How many native `exec`s one run may nest: each user call met by
/// tree-evaluated code re-enters the VM on the host stack, under the tree
/// evaluators that met it. A debug build measured 20 KiB per re-entry
/// for a call in a `par` arm and 31 KiB for one in a reduction under two
/// nested `par`s; 64 KiB each keeps at least twice that within
/// [`EXEC_STACK_BYTES`], so recursion through a tree escape traps before
/// the stack overflows, whatever `max_call_depth` allows.
const MAX_REENTRIES: usize = EXEC_STACK_BYTES / (64 * 1024);

/// Run function `fi` to completion and return its value (0 when it
/// returns none). This is the entry for `main` and the re-entry for user
/// calls met by tree-evaluated code, which nests one native `exec` per
/// such call.
pub(crate) fn call(p: &mut Run, fi: usize, args: &[Scalar]) -> RResult<Scalar> {
    if p.reentries == MAX_REENTRIES {
        // The host stack, not the frame budget, is the limit here.
        return Err(RuntimeError::CallDepthExceeded { max: p.frames.len() });
    }
    p.reentries += 1;
    // A user function runs on the front end even when called from a
    // parallel construct: its arguments are scalars.
    let v = p.detached(|p| exec(p, fi, args))?;
    p.reentries -= 1;
    Ok(v)
}

/// Drop the innermost frame — its registers, and its machine-backed
/// locals innermost-first — and say which register of the caller its
/// value goes to.
fn pop_frame(p: &mut Run) -> Reg {
    let frame = p.frames.pop().expect("frame per activation");
    p.regs.truncate(frame.base);
    for var in frame.locals.into_iter().rev().flatten() {
        p.free_local(var);
    }
    frame.ret_dst
}

/// Push an activation of `fi`: depth check, a fresh register file, the
/// frame. Returns the base of its registers; the caller stores the
/// arguments with [`typed`].
fn enter(p: &mut Run, fi: usize, ret_dst: Reg) -> RResult<usize> {
    let max_depth = p.config.limits.max_call_depth;
    if p.frames.len() >= max_depth {
        // `max_depth` frames may be live; the call creating one more traps.
        return Err(RuntimeError::CallDepthExceeded { max: max_depth });
    }
    let base = p.regs.len();
    p.regs.extend_from_slice(&p.ir.funcs[fi].image);
    let info = &p.checked.func_infos[fi];
    let n_locals = if info.machine_locals { info.locals.len() } else { 0 };
    let locals = std::iter::repeat_with(|| None).take(n_locals).collect();
    // exec_span points at the calling statement: the call site.
    p.frames.push(Frame { func: fi, site: p.exec_span, base, pc: 0, ret_dst, locals });
    Ok(base)
}

/// `v` as a parameter or slot of the declared type holds it.
fn typed(v: Scalar, float: bool) -> Scalar {
    coerce_scalar(v, if float { ElemType::Float } else { ElemType::Int })
}

/// The row-major index of `array[subs...]`, the subscripts in registers
/// from `base`, each checked against its axis.
fn elem_index(p: &Run, base: usize, array: Ref, subs: &[Reg]) -> RResult<usize> {
    let shape = &p.storage(Storage::Array(array)).shape;
    let mut logical = 0;
    for (s, &n) in subs.iter().zip(shape) {
        let v = p.regs[base + *s as usize].as_int();
        if v < 0 || v as usize >= n {
            let name = match array {
                Ref::Array(id) => &p.checked.array_names[id as usize],
                Ref::Local(id) => &p.local(id).name,
                to => unreachable!("sema resolves every array base; this is {to:?}"),
            };
            return Err(RuntimeError::OutOfBounds { name: name.clone() });
        }
        logical = logical * n + v as usize;
    }
    Ok(logical)
}

/// `array[subs...]`: one front-end read. Out of line, as is `store_elem`:
/// inlined into `exec`, they slow the dispatch of every instruction.
#[inline(never)]
fn load_elem(p: &mut Run, base: usize, array: Ref, subs: &[Reg]) -> RResult<Scalar> {
    let logical = elem_index(p, base, array, subs)?;
    let st = p.storage(Storage::Array(array));
    let (field, idx) = (st.field, st.mapping.storage_index(logical, &st.shape, 0));
    Ok(p.machine.read_elem(field, idx)?)
}

/// `array[subs...] = v` as the array's type: one front-end write per
/// replica. A gather cached by an open step that reads `array` is stale.
#[inline(never)]
fn store_elem(p: &mut Run, base: usize, array: Ref, subs: &[Reg], v: Scalar) -> RResult<()> {
    p.cse_invalidate(Some(array));
    let logical = elem_index(p, base, array, subs)?;
    let st = p.storage(Storage::Array(array));
    let (field, v) = (st.field, coerce_scalar(v, st.ty));
    for r in 0..st.mapping.replicas() {
        let st = p.storage(Storage::Array(array));
        let idx = st.mapping.storage_index(logical, &st.shape, r);
        p.machine.write_elem(field, idx, v)?;
    }
    Ok(())
}

fn body_of(ir: &IrProgram, fi: usize) -> &IrBody {
    ir.funcs[fi].body.as_ref().expect("compile rejects unlowered functions")
}

fn exec(p: &mut Run, entry: usize, args: &[Scalar]) -> RResult<Scalar> {
    // This `exec` returns when the frame it pushes here pops.
    let (ir, floor) = (p.ir, p.frames.len());
    let max_iterations = p.config.limits.max_iterations;
    let mut base = enter(p, entry, 0)?;
    for (i, (&v, &float)) in args.iter().zip(&ir.funcs[entry].params).enumerate() {
        p.regs[base + i] = typed(v, float);
    }
    let mut body = body_of(ir, entry);
    let mut pc = 0;
    loop {
        let at = pc;
        pc += 1;
        // Register `$r` of the running activation.
        macro_rules! r {
            ($r:expr) => {
                p.regs[base + *$r as usize]
            };
        }
        // Fail at the statement that owns this instruction.
        macro_rules! trap {
            ($e:expr) => {{
                p.exec_span = body.spans[at];
                return Err($e.into());
            }};
        }
        match &body.code[at] {
            Instr::Const { dst, v } => r!(dst) = *v,
            Instr::Copy { dst, src } => r!(dst) = r!(src),
            Instr::Bin { op, dst, a, b } => {
                r!(dst) = match (r!(a), r!(b)) {
                    (Scalar::Int(x), Scalar::Int(y)) => match int_binary(*op, x, y) {
                        Some(v) => Scalar::Int(v),
                        None => trap!(RuntimeError::DivideByZero),
                    },
                    (x, y) => match scalar_binary(*op, x, y) {
                        Ok(v) => v,
                        Err(e) => trap!(e),
                    },
                }
            }
            Instr::Un { op, dst, a } => r!(dst) = scalar_unary(*op, r!(a)),
            Instr::StoreSlot { slot, src, float } => r!(slot) = typed(r!(src), *float),
            Instr::LoadGlobal { dst, g } => r!(dst) = p.globals[*g as usize],
            Instr::StoreGlobal { g, src } => {
                // Under an open step (a callee of a `par` arm) a cached
                // gather may subscript through the global.
                if p.cse_depth > 0 {
                    p.cse_invalidate(None);
                }
                let g = &mut p.globals[*g as usize];
                *g = coerce_scalar(p.regs[base + *src as usize], g.elem_type());
            }
            Instr::LoadElem { dst, array, subs } => match load_elem(p, base, *array, subs) {
                Ok(v) => r!(dst) = v,
                Err(e) => trap!(e),
            },
            Instr::StoreElem { array, subs, src } => {
                if let Err(e) = store_elem(p, base, *array, subs, r!(src)) {
                    trap!(e);
                }
            }
            Instr::Jump { t } => pc = *t as usize,
            Instr::JumpIfFalse { c, t } => {
                if !r!(c).as_bool() {
                    pc = *t as usize;
                }
            }
            Instr::JumpIfTrue { c, t } => {
                if r!(c).as_bool() {
                    pc = *t as usize;
                }
            }
            Instr::IterCheck { slot, label } => {
                let n = r!(slot).as_int() + 1;
                r!(slot) = Scalar::Int(n);
                if n as u64 > max_iterations {
                    trap!(RuntimeError::IterationLimit(label));
                }
                if let Err(e) = p.machine.poll_deadline() {
                    trap!(e);
                }
            }
            Instr::Call { dst, f, args } => {
                let f = *f as usize;
                p.exec_span = body.spans[at];
                p.frames.last_mut().expect("active function").pc = pc;
                let callee = enter(p, f, *dst)?;
                for (i, (r, &float)) in args.iter().zip(&ir.funcs[f].params).enumerate() {
                    p.regs[callee + i] = typed(r!(r), float);
                }
                (base, body, pc) = (callee, body_of(ir, f), 0);
            }
            Instr::Rand { dst } => {
                let seed = p.next_rand_seed();
                r!(dst) = Scalar::Int(front_end_rand(seed));
            }
            Instr::Ret { src } => {
                // A valueless return yields 0.
                let v = src.as_ref().map_or(Scalar::Int(0), |src| r!(src));
                let ret_dst = pop_frame(p);
                if p.frames.len() == floor {
                    return Ok(v);
                }
                let caller = p.frames.last().expect("a frame above the floor");
                (base, body, pc) = (caller.base, body_of(ir, caller.func), caller.pc);
                r!(&ret_dst) = v;
            }
            Instr::FreeLocals { lo, hi } => p.free_locals(*lo..*hi),
            Instr::EvalExpr { dst, e } => {
                p.exec_span = body.spans[at];
                let PV::Scalar(v) = p.eval(&body.exprs[*e as usize])? else {
                    unreachable!("a reduction opens its own space and folds to a scalar")
                };
                r!(dst) = v;
            }
            Instr::EvalEffect { e } => {
                p.exec_span = body.spans[at];
                p.eval(&body.exprs[*e as usize])?;
            }
            Instr::Tree { s } => p.exec_stmt(&body.stmts[*s as usize])?,
            Instr::SeqNext { set, pos, elem, more } => {
                let i = r!(pos).as_int();
                let next = p.checked.sets[*set].elements.get(i as usize).copied();
                // An exhausted sweep rewinds, ready for `*seq` to repeat it.
                r!(pos) = Scalar::Int(if next.is_some() { i + 1 } else { 0 });
                if let Some(v) = next {
                    r!(elem) = Scalar::Int(v);
                }
                r!(more) = Scalar::Int(next.is_some() as i64);
            }
        }
    }
}
