//! Stable text rendering of a lowered program (`uc run --emit ir`).
//!
//! The format is line-oriented and deterministic: golden-file tests pin
//! it, so gratuitous changes are breaking. A constant register prints as
//! its value, the first instruction of each run owned by one statement
//! ends in `; line:col` (the span table), and tree-escape fragments are
//! pretty-printed UC source collapsed onto one line.

use std::fmt::Write;

use uc_cm::Scalar;

use super::{Instr, IrBody, IrFunc, IrProgram, Reg};
use crate::ast::Ref;
use crate::pretty;
use crate::sema::Checked;
use crate::span::Span;

/// Render a whole program; names come from the tables of the `checked`
/// program it was lowered from.
pub fn render(p: &IrProgram, checked: &Checked) -> String {
    let mut out = String::new();
    let _ = writeln!(out, ";; uc register ir, inline={}", if p.inline_ok { "yes" } else { "no" });
    if !checked.global_names.is_empty() {
        let _ = write!(out, ";; globals:");
        for (i, n) in checked.global_names.iter().enumerate() {
            let _ = write!(out, " g{i}={n}");
        }
        out.push('\n');
    }
    for f in &p.funcs {
        out.push('\n');
        let params = f
            .params
            .iter()
            .map(|&fl| if fl { "float" } else { "int" })
            .collect::<Vec<_>>()
            .join(", ");
        let (name, slots, perm) = (&f.name, f.image.len(), f.n_perm);
        let consts = slots - f.const_base as usize;
        let _ = writeln!(out, "func {name}({params}) slots={slots} perm={perm} consts={consts}");
        match &f.body {
            None => {
                out.push_str("  <unlowered: register file overflow>\n");
            }
            Some(body) => {
                let mut owner = Span::default();
                for (i, (ins, &span)) in body.code.iter().zip(&body.spans).enumerate() {
                    let _ = write!(out, "  {i:>4}  {}", instr(ins, f, body, checked));
                    if span != owner && span != Span::default() {
                        let _ = write!(out, "  ; {span}");
                    }
                    owner = span;
                    out.push('\n');
                }
            }
        }
    }
    out
}

fn scalar(v: &Scalar) -> String {
    match v {
        Scalar::Int(x) => format!("{x}"),
        Scalar::Float(x) => format!("{x:?}"),
        Scalar::Bool(b) => format!("{b}"),
    }
}

/// Collapse a pretty-printed AST fragment onto one line.
fn frag(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

fn instr(ins: &Instr, f: &IrFunc, body: &IrBody, checked: &Checked) -> String {
    // An operand: a register, or the value of a constant one.
    let r = |r: &Reg| match f.image.get(*r as usize) {
        Some(v) if *r >= f.const_base => scalar(v),
        _ => format!("r{r}"),
    };
    // An element: a global array by name, a local one by id.
    let elem = |array: &Ref, subs: &[Reg]| {
        let subs: String = subs.iter().map(|s| format!("[{}]", r(s))).collect();
        match array {
            Ref::Array(id) => format!("{}{subs}", checked.array_names[*id as usize]),
            Ref::Local(id) => format!("l{id}{subs}"),
            to => unreachable!("sema resolves every array base; this is {to:?}"),
        }
    };
    match ins {
        Instr::Const { dst, v } => format!("const      r{dst} = {}", scalar(v)),
        Instr::Copy { dst, src } => format!("copy       r{dst} = {}", r(src)),
        Instr::Bin { op, dst, a, b } => {
            format!("bin        r{dst} = {} {} {}", r(a), op.symbol(), r(b))
        }
        Instr::Un { op, dst, a } => {
            let sym = match op {
                crate::ast::UnaryOp::Neg => "-",
                crate::ast::UnaryOp::Not => "!",
                crate::ast::UnaryOp::BitNot => "~",
            };
            format!("un         r{dst} = {sym}{}", r(a))
        }
        Instr::Truthy { dst, src } => format!("truthy     r{dst} = ({} != 0)", r(src)),
        Instr::StoreSlot { slot, src, float } => format!(
            "store      r{slot} = {} as {}",
            r(src),
            if *float { "float" } else { "int" }
        ),
        Instr::LoadGlobal { dst, g } => format!("load_g     r{dst} = g{g}"),
        Instr::StoreGlobal { g, src } => format!("store_g    g{g} = {}", r(src)),
        Instr::LoadElem { dst, array, subs } => {
            format!("load_e     r{dst} = {}", elem(array, subs))
        }
        Instr::StoreElem { array, subs, src } => {
            format!("store_e    {} = {}", elem(array, subs), r(src))
        }
        Instr::Jump { t } => format!("jump       @{t}"),
        Instr::JumpIfFalse { c, t } => format!("jump_if_f  {} -> @{t}", r(c)),
        Instr::JumpIfTrue { c, t } => format!("jump_if_t  {} -> @{t}", r(c)),
        Instr::IterInit { slot } => format!("iter_init  r{slot}"),
        Instr::IterCheck { slot, label } => format!("iter_check r{slot} ({label})"),
        Instr::Call { dst, f, args } => {
            let args = args.iter().map(r).collect::<Vec<_>>().join(", ");
            format!("call       r{dst} = fn#{f}({args})")
        }
        Instr::Rand { dst } => format!("rand       r{dst}"),
        Instr::Power2 { dst, a } => format!("power2     r{dst} = power2({})", r(a)),
        Instr::Abs { dst, a } => format!("abs        r{dst} = abs({})", r(a)),
        Instr::MinMax { dst, a, b, is_min } => format!(
            "minmax     r{dst} = {}({}, {})",
            if *is_min { "min" } else { "max" },
            r(a),
            r(b)
        ),
        Instr::Ret { src: Some(src) } => format!("ret        {}", r(src)),
        Instr::Ret { src: None } => "ret".into(),
        Instr::FreeLocals { lo, hi } => format!("free       l{lo}..l{hi}"),
        Instr::EvalExpr { dst, e } => format!(
            "eval       r{dst} = `{}`",
            frag(&pretty::expr(&body.exprs[*e as usize]))
        ),
        Instr::EvalEffect { e } => {
            format!("effect     `{}`", frag(&pretty::expr(&body.exprs[*e as usize])))
        }
        Instr::Tree { s } => format!(
            "tree       `{}`",
            frag(&pretty::stmt_to_string(&body.stmts[*s as usize], 0))
        ),
        Instr::SeqEnter { set } => format!("seq_enter  {}", checked.sets[*set].name),
        Instr::SeqNext { elem, more } => format!("seq_next   r{elem}, r{more}"),
        Instr::SeqExit => "seq_exit".into(),
        Instr::Nop => "nop".into(),
    }
}
