//! Per-instruction optimization passes over lowered bodies.
//!
//! The passes ([`optimize`]) rewrite only *uncharged* front-end
//! instructions, so results, simulated cycles, fuel and errors are
//! exactly those of the unoptimized instruction stream. Nothing here
//! removes machine work: what a parallel construct costs is decided by
//! the program and its map section (§4), not by a compiler setting.

use std::collections::{HashMap, HashSet, VecDeque};

use uc_cm::{ElemType, Scalar};

use super::{Instr, IrBody, IrFunc, Reg};
use crate::ast::BinaryOp;
use crate::exec::{coerce_scalar, scalar_binary, scalar_unary};

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
                | Instr::LoadGlobal { dst, .. } => *dst,
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
