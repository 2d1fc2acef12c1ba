//! Stable text rendering of a lowered program (`uc run --emit ir`).
//!
//! The format is line-oriented and deterministic: golden-file tests pin
//! it, so gratuitous changes are breaking. Tree-escape fragments are
//! pretty-printed UC source collapsed onto one line.

use std::fmt::Write;

use uc_cm::Scalar;

use super::{Instr, IrProgram};
use crate::exec::IrOpt;
use crate::pretty;

/// Render a whole program.
pub fn render(p: &IrProgram) -> String {
    let mut out = String::new();
    let opt = match p.opt {
        IrOpt::Balanced => "balanced",
        IrOpt::Aggressive => "aggressive",
    };
    let _ = writeln!(
        out,
        ";; uc register ir, opt={opt}, inline={}",
        if p.inline_ok { "yes" } else { "no" }
    );
    if !p.global_names.is_empty() {
        let _ = write!(out, ";; globals:");
        for (i, n) in p.global_names.iter().enumerate() {
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
        let _ = writeln!(
            out,
            "func {}({params}) slots={} perm={}",
            f.name, f.n_slots, f.n_perm
        );
        match &f.body {
            None => {
                out.push_str("  <unlowered: register file overflow>\n");
            }
            Some(body) => {
                for (i, ins) in body.code.iter().enumerate() {
                    let _ = writeln!(out, "  {i:>4}  {}", instr(ins, body, p));
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

fn instr(ins: &Instr, body: &super::IrBody, p: &IrProgram) -> String {
    match ins {
        Instr::Const { dst, v } => format!("const      r{dst} = {}", scalar(v)),
        Instr::Copy { dst, src } => format!("copy       r{dst} = r{src}"),
        Instr::Bin { op, dst, a, b } => {
            format!("bin        r{dst} = r{a} {} r{b}", op.symbol())
        }
        Instr::Un { op, dst, a } => {
            let sym = match op {
                crate::ast::UnaryOp::Neg => "-",
                crate::ast::UnaryOp::Not => "!",
                crate::ast::UnaryOp::BitNot => "~",
            };
            format!("un         r{dst} = {sym}r{a}")
        }
        Instr::Truthy { dst, src } => format!("truthy     r{dst} = (r{src} != 0)"),
        Instr::StoreSlot { slot, src, float } => format!(
            "store      r{slot} = r{src} as {}",
            if *float { "float" } else { "int" }
        ),
        Instr::LoadGlobal { dst, g } => format!("load_g     r{dst} = g{g}"),
        Instr::StoreGlobal { g, src } => format!("store_g    g{g} = r{src}"),
        Instr::Jump { t } => format!("jump       @{t}"),
        Instr::JumpIfFalse { c, t } => format!("jump_if_f  r{c} -> @{t}"),
        Instr::JumpIfTrue { c, t } => format!("jump_if_t  r{c} -> @{t}"),
        Instr::SetSpan { span } => format!("span       {span}"),
        Instr::IterInit { slot } => format!("iter_init  r{slot}"),
        Instr::IterCheck { slot, label } => format!("iter_check r{slot} ({label})"),
        Instr::Call { dst, f, args } => {
            let args =
                args.iter().map(|r| format!("r{r}")).collect::<Vec<_>>().join(", ");
            format!("call       r{dst} = fn#{f}({args})")
        }
        Instr::Rand { dst } => format!("rand       r{dst}"),
        Instr::Power2 { dst, a } => format!("power2     r{dst} = power2(r{a})"),
        Instr::Abs { dst, a } => format!("abs        r{dst} = abs(r{a})"),
        Instr::MinMax { dst, a, b, is_min } => format!(
            "minmax     r{dst} = {}(r{a}, r{b})",
            if *is_min { "min" } else { "max" }
        ),
        Instr::Ret { src: Some(r) } => format!("ret        r{r}"),
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
        Instr::SeqEnter { set } => format!("seq_enter  {}", p.set_names[*set]),
        Instr::SeqNext { elem, more } => format!("seq_next   r{elem}, r{more}"),
        Instr::SeqExit => "seq_exit".into(),
        Instr::Nop => "nop".into(),
    }
}
