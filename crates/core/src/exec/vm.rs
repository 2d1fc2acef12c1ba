//! The register VM: the front end of the execution model.
//!
//! Executes [`crate::ir::IrProgram`] bodies over per-activation register
//! files. It owns every user call and all sequential control flow —
//! `if`/loops/`return`, front-end `seq` sweeps, recursion — keeping UC
//! activations on an explicit heap stack (`Act`), so the VM itself never
//! recurses natively. Parallel constructs and the expressions lowering
//! could not compile are tree escapes into the sibling modules; a user
//! call met inside one comes back through [`call`].

use std::sync::Arc;

use uc_cm::{ElemType, Scalar};

use super::{
    coerce_scalar, front_end_rand, scalar_abs, scalar_binary, scalar_minmax, scalar_unary, Frame,
    Program, RResult, RuntimeError,
};
use crate::ir::{Instr, IrProgram, Reg};
use crate::stdlib;

/// One UC activation being executed by the VM.
struct Act {
    func: usize,
    pc: usize,
    /// Caller register receiving the return value.
    ret_dst: Reg,
    /// Open front-end `seq` sweeps, innermost last: the set's elements
    /// and the position of the next one.
    seqs: Vec<(Arc<Vec<i64>>, usize)>,
}

/// Run function `fi` to completion and return its value (0 when it
/// returns none). This is the entry for `main` and the re-entry for user
/// calls met by tree-evaluated code, which nests one native `exec` per
/// such call.
pub(crate) fn call(p: &mut Program, fi: usize, args: Vec<Scalar>) -> RResult<Scalar> {
    let ir = p.ir.clone();
    let base_frames = p.frames.len();
    // A user function runs on the front end even when called from a
    // parallel construct (its arguments are scalars); hide the caller's
    // iteration spaces for the duration of the call. The machine-side
    // context masks stay pushed — front-end element access ignores them.
    let saved_ctx = std::mem::take(&mut p.ctx);
    let result = exec(p, &ir, fi, args);
    p.ctx = saved_ctx;
    if result.is_err() {
        // Free every frame this call opened, so the caller unwinds over
        // its own frame. The call stack is left intact for the error
        // report.
        while p.frames.len() > base_frames {
            pop_frame(p);
        }
    }
    result
}

/// Drop the innermost frame, freeing its machine-backed locals
/// innermost-first.
fn pop_frame(p: &mut Program) {
    let frame = p.frames.pop().expect("frame per activation");
    for var in frame.locals.into_iter().rev().flatten() {
        p.free_local(var);
    }
}

/// Push an activation: depth check, register file with coerced
/// parameters, runtime frame, call-stack entry.
fn enter(
    p: &mut Program,
    ir: &IrProgram,
    fi: usize,
    acts: &mut Vec<Act>,
    ret_dst: Reg,
    args: Vec<Scalar>,
) -> RResult<()> {
    let max_depth = p.config.limits.max_call_depth;
    if p.frames.len() >= max_depth {
        // `max_depth` frames may be live; the call creating one more traps.
        return Err(RuntimeError::CallDepthExceeded { max: max_depth });
    }
    let f = &ir.funcs[fi];
    let mut regs = vec![Scalar::Int(0); f.n_slots as usize];
    for (i, (&float, v)) in f.params.iter().zip(args).enumerate() {
        regs[i] = coerce_scalar(v, if float { ElemType::Float } else { ElemType::Int });
    }
    let info = &p.checked.func_infos[fi];
    let n_locals = if info.machine_locals { info.locals.len() } else { 0 };
    let locals = std::iter::repeat_with(|| None).take(n_locals).collect();
    p.frames.push(Frame { func: fi, regs, locals });
    // exec_span still points at the calling statement — that is the call
    // site recorded for the error stack. Popped on return only, so a
    // failing run still shows where it was.
    p.call_stack.push((fi, p.exec_span));
    acts.push(Act { func: fi, pc: 0, ret_dst, seqs: Vec::new() });
    Ok(())
}

fn exec(p: &mut Program, ir: &IrProgram, entry: usize, args: Vec<Scalar>) -> RResult<Scalar> {
    let mut acts: Vec<Act> = Vec::with_capacity(8);
    enter(p, ir, entry, &mut acts, 0, args)?;
    loop {
        let act = acts.last_mut().expect("active function");
        let fi = act.func;
        let pc = act.pc;
        act.pc += 1;
        let body = ir.funcs[fi].body.as_ref().expect("compile rejects unlowered functions");
        match &body.code[pc] {
            Instr::Const { dst, v } => set(p, *dst, *v),
            Instr::Copy { dst, src } => {
                let v = get(p, *src);
                set(p, *dst, v);
            }
            Instr::Bin { op, dst, a, b } => {
                let v = scalar_binary(*op, get(p, *a), get(p, *b))?;
                set(p, *dst, v);
            }
            Instr::Un { op, dst, a } => {
                let v = scalar_unary(*op, get(p, *a));
                set(p, *dst, v);
            }
            Instr::Truthy { dst, src } => {
                let v = Scalar::Int(get(p, *src).as_bool() as i64);
                set(p, *dst, v);
            }
            Instr::StoreSlot { slot, src, float } => {
                let ty = if *float { ElemType::Float } else { ElemType::Int };
                let v = coerce_scalar(get(p, *src), ty);
                set(p, *slot, v);
            }
            Instr::LoadGlobal { dst, g } => {
                let v = p.globals[*g as usize];
                set(p, *dst, v);
            }
            Instr::StoreGlobal { g, src } => {
                let g = *g as usize;
                let v = get(p, *src);
                let ty = p.globals[g].elem_type();
                p.globals[g] = coerce_scalar(v, ty);
            }
            Instr::Jump { t } => acts.last_mut().expect("active").pc = *t as usize,
            Instr::JumpIfFalse { c, t } => {
                if !get(p, *c).as_bool() {
                    let t = *t as usize;
                    acts.last_mut().expect("active").pc = t;
                }
            }
            Instr::JumpIfTrue { c, t } => {
                if get(p, *c).as_bool() {
                    let t = *t as usize;
                    acts.last_mut().expect("active").pc = t;
                }
            }
            Instr::SetSpan { span } => p.exec_span = *span,
            Instr::IterInit { slot } => set(p, *slot, Scalar::Int(0)),
            Instr::IterCheck { slot, label } => {
                let n = get(p, *slot).as_int() + 1;
                set(p, *slot, Scalar::Int(n));
                if n as u64 > p.config.limits.max_iterations {
                    return Err(RuntimeError::IterationLimit(label));
                }
                p.machine.poll_deadline()?;
            }
            Instr::Call { dst, f, args } => {
                let vals: Vec<Scalar> = args.iter().map(|&r| get(p, r)).collect();
                enter(p, ir, *f as usize, &mut acts, *dst, vals)?;
            }
            Instr::Rand { dst } => {
                let seed = p.next_rand_seed();
                set(p, *dst, Scalar::Int(front_end_rand(seed)));
            }
            Instr::Power2 { dst, a } => {
                let v = Scalar::Int(stdlib::power2(get(p, *a).as_int()));
                set(p, *dst, v);
            }
            Instr::Abs { dst, a } => {
                let v = scalar_abs(get(p, *a));
                set(p, *dst, v);
            }
            Instr::MinMax { dst, a, b, is_min } => {
                let v = scalar_minmax(get(p, *a), get(p, *b), *is_min);
                set(p, *dst, v);
            }
            Instr::Ret { src } => {
                // A valueless return yields 0.
                let v = src.map_or(Scalar::Int(0), |r| get(p, r));
                let done = acts.pop().expect("active");
                pop_frame(p);
                p.call_stack.pop();
                if acts.is_empty() {
                    return Ok(v);
                }
                set(p, done.ret_dst, v);
            }
            Instr::FreeLocals { lo, hi } => p.free_locals(*lo..*hi),
            Instr::EvalExpr { dst, e } => {
                let v = p.eval_scalar(&body.exprs[*e as usize])?;
                set(p, *dst, v);
            }
            Instr::EvalEffect { e } => {
                let v = p.eval(&body.exprs[*e as usize])?;
                p.release(v);
            }
            Instr::Tree { s } => p.exec_stmt(&body.stmts[*s as usize])?,
            Instr::SeqEnter { set } => {
                let elements = p.checked.sets[*set].elements.clone();
                acts.last_mut().expect("active").seqs.push((elements, 0));
            }
            Instr::SeqNext { elem, more } => {
                let (elements, pos) =
                    acts.last_mut().expect("active").seqs.last_mut().expect("inside a seq");
                let next = elements.get(*pos).copied();
                // An exhausted sweep rewinds, ready for `*seq` to repeat it.
                *pos = if next.is_some() { *pos + 1 } else { 0 };
                if let Some(v) = next {
                    set(p, *elem, Scalar::Int(v));
                }
                set(p, *more, Scalar::Int(next.is_some() as i64));
            }
            Instr::SeqExit => {
                acts.last_mut().expect("active").seqs.pop();
            }
            Instr::Nop => {}
        }
    }
}

#[inline]
fn get(p: &Program, r: Reg) -> Scalar {
    p.frames.last().expect("frame").regs[r as usize]
}

#[inline]
fn set(p: &mut Program, r: Reg, v: Scalar) {
    p.frames.last_mut().expect("frame").regs[r as usize] = v;
}
