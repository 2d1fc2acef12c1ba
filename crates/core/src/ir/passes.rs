//! Per-instruction optimization passes over lowered bodies, plus the
//! aggressive AST-level rewrites.
//!
//! The instruction passes ([`optimize`]) rewrite only *uncharged*
//! front-end instructions, so under [`IrOpt::Balanced`] results,
//! simulated cycles, fuel, and errors are exactly those of the
//! unoptimized instruction stream. The AST rewrites ([`aggressive_rewrite`], run only under
//! [`IrOpt::Aggressive`]) remove charged machine work — dead-context
//! elimination and communication coalescing — so cycle counts may drop;
//! results of error-free programs are unchanged, but a program whose
//! only error was raised inside an eliminated dead arm may now succeed.
//!
//! [`IrOpt::Balanced`]: crate::exec::IrOpt::Balanced
//! [`IrOpt::Aggressive`]: crate::exec::IrOpt::Aggressive

use std::collections::{HashMap, HashSet, VecDeque};

use uc_cm::{ElemType, Scalar};

use super::{Instr, IrBody, IrFunc, Reg};
use crate::ast::{BinaryOp, Block, Expr, FuncDef, Stmt, UcKind, UcStmt};
use crate::exec::{coerce_scalar, scalar_abs, scalar_binary, scalar_minmax, scalar_unary};
use crate::stdlib;

/// Run the balanced pass pipeline over one lowered function.
pub fn optimize(f: &mut IrFunc) {
    let Some(body) = &mut f.body else { return };
    const_fold(&mut body.code, f.n_perm, f.const_base, &f.image);
    reachability(&mut body.code);
    dead_stores(&mut body.code, f.n_perm..f.const_base);
    compact(body);
    fallthrough_jumps(body);
}

/// After compaction, a jump whose target is the very next instruction —
/// typically left behind by a branch folded on a known condition — is a
/// no-op; drop it and re-compact.
fn fallthrough_jumps(body: &mut IrBody) {
    let mut changed = false;
    for (i, ins) in body.code.iter_mut().enumerate() {
        if let Instr::Jump { t } = ins {
            if *t as usize == i + 1 {
                *ins = Instr::Nop;
                changed = true;
            }
        }
    }
    if changed {
        compact(body);
    }
}

// ---- constant folding -------------------------------------------------

/// Fold constants within basic blocks and simplify conditional jumps on
/// known conditions. Register knowledge is dropped at every jump target
/// (block join) and across instructions that can write a local's
/// register (tree escapes clobber named slots; calls clobber only their
/// destination — callees cannot reach the caller's frame). A constant
/// register (`const_base..`, its value in `image`) is known everywhere.
fn const_fold(code: &mut [Instr], n_perm: u16, const_base: Reg, image: &[Scalar]) {
    let targets: HashSet<u32> = (code.iter())
        .filter_map(|ins| match ins {
            Instr::Jump { t } | Instr::JumpIfFalse { t, .. } | Instr::JumpIfTrue { t, .. } => {
                Some(*t)
            }
            _ => None,
        })
        .collect();
    let mut known: HashMap<Reg, Scalar> = HashMap::new();
    for (i, ins) in code.iter_mut().enumerate() {
        if targets.contains(&(i as u32)) {
            known.clear();
        }
        let val = |r: &Reg| {
            if *r >= const_base { Some(image[*r as usize]) } else { known.get(r).copied() }
        };
        // What the instruction computes, when its operands are known.
        let value = match &*ins {
            Instr::Const { v, .. } => Some(*v),
            Instr::Copy { src, .. } => val(src),
            Instr::Bin { op, a, b, .. } => {
                val(a).zip(val(b)).and_then(|(x, y)| scalar_binary(*op, x, y).ok())
            }
            Instr::Un { op, a, .. } => val(a).map(|x| scalar_unary(*op, x)),
            Instr::Truthy { src, .. } => val(src).map(|x| Scalar::Int(x.as_bool() as i64)),
            Instr::Power2 { a, .. } => val(a).map(|x| Scalar::Int(stdlib::power2(x.as_int()))),
            Instr::Abs { a, .. } => val(a).map(scalar_abs),
            Instr::MinMax { a, b, is_min, .. } => {
                val(a).zip(val(b)).map(|(x, y)| scalar_minmax(x, y, *is_min))
            }
            Instr::StoreSlot { src, float, .. } => {
                let ty = if *float { ElemType::Float } else { ElemType::Int };
                val(src).map(|v| coerce_scalar(v, ty))
            }
            _ => None,
        };
        // A known condition decides its jump.
        let decided = match &*ins {
            Instr::JumpIfFalse { c, t } => val(c).map(|v| (!v.as_bool(), *t)),
            Instr::JumpIfTrue { c, t } => val(c).map(|v| (v.as_bool(), *t)),
            _ => None,
        };
        if let Some((taken, t)) = decided {
            *ins = if taken { Instr::Jump { t } } else { Instr::Nop };
        }
        match ins {
            Instr::Jump { .. } | Instr::Ret { .. } => known.clear(),
            Instr::EvalExpr { .. } | Instr::EvalEffect { .. } | Instr::Tree { .. } => {
                known.retain(|&r, _| r >= n_perm)
            }
            _ => {}
        }
        // What it writes now holds what it computed, or is unknown.
        let mut dst = None;
        ins.for_each_reg(|r, written| {
            if written {
                known.remove(r);
                dst = Some(*r);
            }
        });
        if let (Some(dst), Some(v)) = (dst, value) {
            known.insert(dst, v);
            *ins = Instr::Const { dst, v };
        }
    }
}

// ---- dead code --------------------------------------------------------

/// Nop out instructions no path from the entry reaches.
fn reachability(code: &mut [Instr]) {
    if code.is_empty() {
        return;
    }
    let mut seen = vec![false; code.len()];
    let mut work = VecDeque::from([0usize]);
    while let Some(i) = work.pop_front() {
        if i >= code.len() || seen[i] {
            continue;
        }
        seen[i] = true;
        match &code[i] {
            Instr::Jump { t } => work.push_back(*t as usize),
            Instr::JumpIfFalse { t, .. } | Instr::JumpIfTrue { t, .. } => {
                work.push_back(i + 1);
                work.push_back(*t as usize);
            }
            Instr::Ret { .. } => {}
            _ => work.push_back(i + 1),
        }
    }
    for (i, ins) in code.iter_mut().enumerate() {
        if !seen[i] {
            *ins = Instr::Nop;
        }
    }
}

/// Remove pure writes to temporaries (`temps`) that are never read.
/// Named slots are exempt — tree escapes read them too. Iterated to a
/// fixpoint so chains of dead temporaries collapse.
fn dead_stores(code: &mut [Instr], temps: std::ops::Range<Reg>) {
    loop {
        let mut read = HashSet::new();
        for ins in code.iter_mut() {
            ins.for_each_reg(|r, written| {
                if !written {
                    read.insert(*r);
                }
            });
        }
        let mut changed = false;
        for ins in code.iter_mut() {
            let dst = match ins {
                Instr::Const { dst, .. }
                | Instr::Copy { dst, .. }
                | Instr::Un { dst, .. }
                | Instr::Truthy { dst, .. }
                | Instr::LoadGlobal { dst, .. }
                | Instr::Power2 { dst, .. }
                | Instr::Abs { dst, .. }
                | Instr::MinMax { dst, .. } => *dst,
                // Div/Mod can trap; Rand consumes the seed stream.
                Instr::Bin { op, dst, .. }
                    if !matches!(op, BinaryOp::Div | BinaryOp::Mod) =>
                {
                    *dst
                }
                _ => continue,
            };
            if temps.contains(&dst) && !read.contains(&dst) {
                *ins = Instr::Nop;
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
}

/// Drop `Nop`s — and their entries of the span table, which stays in
/// step with the code — and remap jump targets. A target that pointed at
/// a `Nop` lands on the next kept instruction.
fn compact(body: &mut IrBody) {
    let IrBody { code, spans, .. } = body;
    let mut map = vec![0u32; code.len() + 1];
    let mut kept = 0u32;
    for (i, ins) in code.iter().enumerate() {
        map[i] = kept;
        if !matches!(ins, Instr::Nop) {
            kept += 1;
        }
    }
    map[code.len()] = kept;
    let old = std::mem::take(code);
    let old_spans = std::mem::take(spans);
    code.reserve(kept as usize);
    spans.reserve(kept as usize);
    for (mut ins, span) in old.into_iter().zip(old_spans) {
        if matches!(ins, Instr::Nop) {
            continue;
        }
        spans.push(span);
        if let Instr::Jump { t } | Instr::JumpIfFalse { t, .. } | Instr::JumpIfTrue { t, .. } =
            &mut ins
        {
            *t = map[*t as usize];
        }
        code.push(ins);
    }
}

// ---- aggressive AST rewrites ------------------------------------------

/// Rewrite parallel constructs before lowering ([`crate::exec::IrOpt::Aggressive`]
/// only): drop `par` arms with literally-false predicates whose bodies
/// have no front-end effects (dead-context elimination), strip
/// literally-true predicates, and merge adjacent compatible `par`
/// statements over the same index sets (communication coalescing).
pub(crate) fn aggressive_rewrite(f: &mut FuncDef) {
    rewrite_block(&mut f.body);
}

fn rewrite_block(b: &mut Block) {
    for s in &mut b.stmts {
        rewrite_stmt(s);
    }
    coalesce(&mut b.stmts);
}

fn rewrite_stmt(s: &mut Stmt) {
    match s {
        Stmt::Block(b) => rewrite_block(b),
        Stmt::If { then_branch, else_branch, .. } => {
            rewrite_stmt(then_branch);
            if let Some(e) = else_branch {
                rewrite_stmt(e);
            }
        }
        Stmt::While { body, .. } | Stmt::For { body, .. } => rewrite_stmt(body),
        Stmt::Uc(uc) => {
            for arm in &mut uc.arms {
                rewrite_stmt(&mut arm.body);
            }
            if let Some(o) = &mut uc.others {
                rewrite_stmt(o);
            }
            rewrite_uc(uc);
            // Every arm eliminated and nothing left to mask: the whole
            // construct — space setup included — does no work.
            if uc.kind == UcKind::Par && uc.arms.is_empty() && uc.others.is_none() {
                *s = Stmt::Empty;
            }
        }
        _ => {}
    }
}

fn rewrite_uc(uc: &mut UcStmt) {
    if uc.kind != UcKind::Par {
        // `oneof` arm selection and `seq`/`solve` arm handling depend on
        // the arm list itself; leave them alone.
        return;
    }
    // Dead-context elimination: a literally-false predicate masks every
    // write in the arm body, so if the body also has no front-end
    // effects (calls, scalar assignments, declarations, control flow)
    // the whole arm — predicate broadcast included — is dead.
    uc.arms.retain(|arm| {
        match arm.pred.as_ref().and_then(lit_truth) {
            Some(false) => !droppable_stmt(&arm.body),
            _ => true,
        }
    });
    // A literally-true predicate is the full mask; with no `others`
    // clause (whose mask is the OR-complement of *predicated* arms) and
    // no `*` iteration (whose termination test ORs predicated arms'
    // masks) the predicate broadcast is pure overhead.
    if uc.others.is_none() && !uc.star {
        for arm in &mut uc.arms {
            if arm.pred.as_ref().and_then(lit_truth) == Some(true) {
                arm.pred = None;
            }
        }
    }
}

/// Merge `par (I) A; par (I) B;` into `par (I) { A-arms, B-arms }` when
/// the second statement's arms are unpredicated and neither has an
/// `others` clause or `*` iteration. `run_arms` evaluates all predicates
/// before any body, so appending predicate-free arms preserves the
/// exact evaluation order while saving a space push/pop.
fn coalesce(stmts: &mut Vec<Stmt>) {
    let mut i = 0;
    while i + 1 < stmts.len() {
        let can = match (&stmts[i], &stmts[i + 1]) {
            (Stmt::Uc(a), Stmt::Uc(b)) => {
                a.kind == UcKind::Par
                    && b.kind == UcKind::Par
                    && !a.star
                    && !b.star
                    && a.sets == b.sets
                    && a.others.is_none()
                    && b.others.is_none()
                    && b.arms.iter().all(|arm| arm.pred.is_none())
            }
            _ => false,
        };
        if can {
            let Stmt::Uc(b) = stmts.remove(i + 1) else { unreachable!() };
            let Stmt::Uc(a) = &mut stmts[i] else { unreachable!() };
            a.arms.extend(b.arms);
        } else {
            i += 1;
        }
    }
}

/// Truthiness of a predicate built purely from literals — no names, so
/// no shadowing or runtime-value concerns.
fn lit_truth(e: &Expr) -> Option<bool> {
    crate::opt::eval_pure(e, |_| None).ok().map(|s| s.as_bool())
}

/// Whether a masked-false arm body is free of front-end effects: only
/// blocks and expression statements, no calls (user calls and `rand()`
/// run unmasked on the front end), and assignments only through array
/// subscripts (scalar assignments are unmasked).
fn droppable_stmt(s: &Stmt) -> bool {
    match s {
        Stmt::Empty => true,
        Stmt::Block(b) => b.stmts.iter().all(droppable_stmt),
        Stmt::Expr(e) => droppable_expr(e),
        _ => false,
    }
}

fn droppable_expr(e: &Expr) -> bool {
    !e.any(&mut |x| match x {
        Expr::Call { .. } => true,
        Expr::Assign { target, .. } => !matches!(**target, Expr::Index { .. }),
        _ => false,
    })
}
