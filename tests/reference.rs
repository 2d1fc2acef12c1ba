//! A reference interpreter for §3 of the paper, and the test that holds
//! the implementation to it.
//!
//! The interpreter walks sema's `Checked` program point by point, on
//! plain `Vec`s. It shares no code with `uc_core::exec` or `uc_cm`: no
//! fields, no masks, no cost model, no arithmetic helpers. Its rules are
//! the paper's, written out directly:
//!
//! * a `par` step evaluates every predicate first, then runs each arm on
//!   the points where its predicate holds; every statement of an arm
//!   reads everything, for every point, before it writes anything;
//! * `st` and `others` are filters: `others` keeps the points where no
//!   predicate holds;
//! * a reduction is a fold, per enclosing point, over the points its
//!   sets add; with no point to fold it is the operator's identity;
//! * `solve` runs each assignment where its target is undefined and all
//!   its right-hand side reads is defined, until a round makes no
//!   progress; `*solve` repeats its assignments until no target changes;
//! * `seq` runs its elements in set order;
//! * a parallel read outside an array gives INF; a write outside one, or
//!   two different values written to one element by a step, is an error
//!   — but directly in a `*solve`, whose stores drop single assignment,
//!   nested ones included, the last write wins;
//! * as in C, an assignment's value is the value it stored, in the
//!   target's type, and a `?:` has its arms' joined type.
//!
//! `oneof` may run any enabled arm. This one takes them in rotation, the
//! executor's documented choice, so that the corpus's `oneof` programs
//! compare too. `rand()` may give any value: this one counts its draws,
//! one per point, so the one corpus program that calls it
//! (`race_rand.uc`) compares by the rule it traps on.

use std::collections::HashMap;
use std::path::Path;

use uc::lang::ast::*;
use uc::lang::sema::{self, Checked, LocalKind};
use uc::lang::stdlib::Builtin;
use uc::lang::token::RedOpToken;
use uc::lang::{Diagnostics, ExecConfig, Program};

type R<T> = Result<T, String>;

/// A value: a C int (a truth value is 0 or 1) or a float.
#[derive(Clone, Copy, Debug, PartialEq)]
enum V {
    I(i64),
    F(f64),
}

impl V {
    fn int(self) -> i64 {
        match self {
            V::I(x) => x,
            V::F(x) => x as i64,
        }
    }
    fn float(self) -> f64 {
        match self {
            V::I(x) => x as f64,
            V::F(x) => x,
        }
    }
    fn truth(self) -> bool {
        match self {
            V::I(x) => x != 0,
            V::F(x) => x != 0.0,
        }
    }
    fn is_float(self) -> bool {
        matches!(self, V::F(_))
    }
    /// The value as a variable of that type holds it.
    fn to(self, float: bool) -> V {
        if float { V::F(self.float()) } else { V::I(self.int()) }
    }
}

fn inf(float: bool) -> V {
    if float { V::F(f64::INFINITY) } else { V::I(i64::MAX) }
}

fn bit(b: bool) -> V {
    V::I(b as i64)
}

/// C's binary operators, ints wrapping; `None` is a division by zero.
fn binary(op: BinaryOp, a: V, b: V) -> Option<V> {
    use BinaryOp::*;
    let (x, y) = (a.float(), b.float());
    if a.is_float() || b.is_float() {
        match op {
            Add => return Some(V::F(x + y)),
            Sub => return Some(V::F(x - y)),
            Mul => return Some(V::F(x * y)),
            Div => return Some(V::F(x / y)),
            Min => return Some(V::F(x.min(y))),
            Max => return Some(V::F(x.max(y))),
            Lt => return Some(bit(x < y)),
            Le => return Some(bit(x <= y)),
            Gt => return Some(bit(x > y)),
            Ge => return Some(bit(x >= y)),
            Eq => return Some(bit(x == y)),
            Ne => return Some(bit(x != y)),
            _ => {}
        }
    }
    let (x, y) = (a.int(), b.int());
    Some(V::I(match op {
        Add => x.wrapping_add(y),
        Sub => x.wrapping_sub(y),
        Mul => x.wrapping_mul(y),
        Div | Mod if y == 0 => return None,
        Div => x.wrapping_div(y),
        Mod => x.wrapping_rem(y),
        Shl => x.wrapping_shl(y as u32),
        Shr => x.wrapping_shr(y as u32),
        BitAnd => x & y,
        BitOr => x | y,
        BitXor => x ^ y,
        Lt => (x < y) as i64,
        Le => (x <= y) as i64,
        Gt => (x > y) as i64,
        Ge => (x >= y) as i64,
        Eq => (x == y) as i64,
        Ne => (x != y) as i64,
        LogAnd => (a.truth() && b.truth()) as i64,
        LogOr => (a.truth() || b.truth()) as i64,
        Min => x.min(y),
        Max => x.max(y),
    }))
}

fn unary(op: UnaryOp, a: V) -> V {
    match (op, a) {
        (UnaryOp::Neg, V::I(x)) => V::I(x.wrapping_neg()),
        (UnaryOp::Neg, V::F(x)) => V::F(-x),
        (UnaryOp::Not, a) => bit(!a.truth()),
        (UnaryOp::BitNot, a) => V::I(!a.int()),
        (UnaryOp::Abs, V::I(x)) => V::I(x.wrapping_abs()),
        (UnaryOp::Abs, V::F(x)) => V::F(x.abs()),
        // `1 << k` on a 64-bit shifter, which takes the count mod 64.
        (UnaryOp::Power2, k) => V::I(1 << (k.int() & 63)),
    }
}

/// One step of a fold, and the fold of two partial results. Logical
/// operands are 0/1 ints by then.
fn fold(op: RedOpToken, a: V, b: V) -> V {
    let float = a.is_float() || b.is_float();
    match op {
        RedOpToken::Add => binary(BinaryOp::Add, a, b).unwrap(),
        RedOpToken::Mul => binary(BinaryOp::Mul, a, b).unwrap(),
        RedOpToken::Min | RedOpToken::And => binary(BinaryOp::Min, a, b).unwrap(),
        RedOpToken::Max | RedOpToken::Or => binary(BinaryOp::Max, a, b).unwrap(),
        RedOpToken::Xor => V::I((a.int() + b.int()) % 2),
        RedOpToken::Arb if a.to(float) != inf(float) => a.to(float),
        RedOpToken::Arb => b.to(float),
    }
}

fn identity(op: RedOpToken, float: bool) -> V {
    let of = |i, f| if float { V::F(f) } else { V::I(i) };
    match op {
        RedOpToken::Add | RedOpToken::Or | RedOpToken::Xor => of(0, 0.0),
        RedOpToken::Mul | RedOpToken::And => of(1, 1.0),
        RedOpToken::Min | RedOpToken::Arb => inf(float),
        RedOpToken::Max => of(i64::MIN, f64::NEG_INFINITY),
    }
}

/// An expression's value: one front-end scalar, or one value per point.
#[derive(Clone, Debug)]
enum Val {
    S(V),
    P(Vec<V>),
}

impl Val {
    fn at(&self, k: usize) -> V {
        match self {
            Val::S(v) => *v,
            Val::P(vs) => vs[k],
        }
    }
    fn is_float(&self) -> bool {
        match self {
            Val::S(v) => v.is_float(),
            Val::P(vs) => vs.iter().any(|v| v.is_float()),
        }
    }
    fn to(&self, float: bool) -> Val {
        match self {
            Val::S(v) => Val::S(v.to(float)),
            Val::P(vs) => Val::P(vs.iter().map(|v| v.to(float)).collect()),
        }
    }
}

/// What a point binds: the element of a set, or a per-point local.
#[derive(Clone, Copy, PartialEq)]
enum Key {
    Elem(u32),
    Local(u32),
}

type Point = Vec<(Key, V)>;

/// The points of the open spaces, innermost bindings last; which are on
/// (enabled, and under every filter around); how many spaces are open
/// (0 is the front end, one point).
struct Space {
    pts: Vec<Point>,
    on: Vec<bool>,
    depth: usize,
    /// Whether a store here is checked for distinct values: everywhere
    /// but directly in a `*solve`, which drops single assignment.
    checks: bool,
}

#[derive(Clone, PartialEq)]
struct Arr {
    float: bool,
    shape: Vec<usize>,
    data: Vec<V>,
}

impl Arr {
    fn new(ty: Type, shape: &[usize]) -> Arr {
        let float = ty == Type::Float;
        let zero = V::I(0).to(float);
        Arr { float, shape: shape.to_vec(), data: vec![zero; shape.iter().product()] }
    }
    /// Row-major position of a subscript tuple, if it is inside.
    fn index(&self, subs: impl Iterator<Item = i64>) -> Option<usize> {
        let mut k = 0;
        for (s, &n) in subs.zip(&self.shape) {
            if s < 0 || s as usize >= n {
                return None;
            }
            k = k * n + s as usize;
        }
        Some(k)
    }
}

struct Frame {
    func: usize,
    regs: Vec<V>,
    arrays: HashMap<LocalId, Arr>,
}

enum Flow {
    Next,
    Break,
    Continue,
    Return(Option<V>),
}

/// Loop iterations and construct steps a run may take: every pinned
/// program needs far fewer, so a reference that diverges fails fast.
const BUDGET: u64 = 1 << 20;

struct Interp<'c> {
    c: &'c Checked,
    funcs: Vec<&'c FuncDef>,
    globals: Vec<V>,
    arrays: Vec<Arr>,
    frames: Vec<Frame>,
    oneof_cursor: usize,
    /// `rand()`'s draws so far.
    draws: i64,
    budget: u64,
}

impl<'c> Interp<'c> {
    fn new(c: &'c Checked) -> Interp<'c> {
        let globals = c.global_names.iter().map(|n| {
            let (ty, init) = c.scalars[n];
            V::I(init.unwrap_or(0)).to(ty == Type::Float)
        });
        Interp {
            c,
            funcs: c.funcs_in_order().collect(),
            globals: globals.collect(),
            arrays: c.arrays.iter().map(|a| Arr::new(a.ty, &a.shape)).collect(),
            frames: Vec::new(),
            oneof_cursor: 0,
            draws: 0,
            budget: BUDGET,
        }
    }

    /// Charge one loop iteration or construct step.
    fn tick(&mut self) -> R<()> {
        self.budget = self.budget.checked_sub(1).ok_or("iteration budget exceeded")?;
        Ok(())
    }

    fn frame(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("in a function")
    }

    fn kind(&self, id: LocalId) -> &'c LocalKind {
        let c: &'c Checked = self.c;
        &c.func_infos[self.frames.last().expect("in a function").func].locals[id as usize].kind
    }

    fn local_float(&self, id: LocalId) -> bool {
        let func = self.frames.last().expect("in a function").func;
        self.c.func_infos[func].locals[id as usize].ty == Type::Float
    }

    fn call(&mut self, f: usize, args: &[V]) -> R<V> {
        if self.frames.len() >= 256 {
            return Err("call depth".into());
        }
        let (def, info) = (self.funcs[f], &self.c.func_infos[f]);
        let mut regs: Vec<V> =
            info.locals.iter().map(|l| V::I(0).to(l.ty == Type::Float)).collect();
        for (k, a) in args.iter().enumerate() {
            regs[k] = a.to(info.locals[k].ty == Type::Float);
        }
        self.frames.push(Frame { func: f, regs, arrays: HashMap::new() });
        let mut front = Space { pts: vec![Vec::new()], on: vec![true], depth: 0, checks: true };
        let flow = self.block(&def.body, &mut front)?;
        self.frames.pop();
        let value = match flow {
            Flow::Return(Some(v)) => v,
            _ => V::I(0),
        };
        Ok(match def.ret {
            Type::Void => value,
            ty => value.to(ty == Type::Float),
        })
    }

    fn block(&mut self, b: &Block, sp: &mut Space) -> R<Flow> {
        for s in &b.stmts {
            match self.stmt(s, sp)? {
                Flow::Next => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Next)
    }

    fn scalar(&mut self, e: &Expr, sp: &mut Space) -> R<V> {
        match self.eval(e, sp)? {
            Val::S(v) => Ok(v),
            Val::P(_) => Err(format!("a parallel value where the front end needs one: {e:?}")),
        }
    }

    fn stmt(&mut self, s: &Stmt, sp: &mut Space) -> R<Flow> {
        match s {
            Stmt::Expr(Expr::Call { callee: Callee::Builtin(Builtin::Swap), args, .. }) => {
                let (a, b) = (self.eval(&args[0], sp)?, self.eval(&args[1], sp)?);
                self.store(&args[1], &a, sp)?;
                self.store(&args[0], &b, sp)?;
            }
            Stmt::Expr(e) => _ = self.eval(e, sp)?,
            Stmt::Decl(v) => self.decl(v, sp)?,
            Stmt::IndexSets(_) | Stmt::Empty => {}
            Stmt::Block(b) => return self.block(b, sp),
            Stmt::If { cond, then_branch, else_branch, .. } => {
                if self.scalar(cond, sp)?.truth() {
                    return self.stmt(then_branch, sp);
                } else if let Some(e) = else_branch {
                    return self.stmt(e, sp);
                }
            }
            Stmt::While { cond, body, .. } => {
                while self.scalar(cond, sp)?.truth() {
                    self.tick()?;
                    match self.stmt(body, sp)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
            }
            Stmt::For { init, cond, step, body, .. } => {
                if let Some(e) = init {
                    self.eval(e, sp)?;
                }
                while match cond {
                    Some(c) => self.scalar(c, sp)?.truth(),
                    None => true,
                } {
                    self.tick()?;
                    match self.stmt(body, sp)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    if let Some(e) = step {
                        self.eval(e, sp)?;
                    }
                }
            }
            Stmt::Return(e, _) => {
                let v = e.as_ref().map(|e| self.scalar(e, sp)).transpose()?;
                return Ok(Flow::Return(v));
            }
            Stmt::Break(_) => return Ok(Flow::Break),
            Stmt::Continue(_) => return Ok(Flow::Continue),
            Stmt::Uc(uc) => self.construct(uc, sp)?,
        }
        Ok(Flow::Next)
    }

    fn decl(&mut self, v: &VarDecl, sp: &mut Space) -> R<()> {
        let float = self.local_float(v.local);
        match self.kind(v.local) {
            LocalKind::Reg(_) => {
                let init = match &v.init {
                    Some(e) => self.scalar(e, sp)?,
                    None => V::I(0),
                };
                self.frame().regs[v.local as usize] = init.to(float);
            }
            LocalKind::PerVp => {
                let init = v.init.as_ref().map(|e| self.eval(e, sp)).transpose()?;
                for (k, pt) in sp.pts.iter_mut().enumerate() {
                    let value = match &init {
                        Some(init) if sp.on[k] => init.at(k).to(float),
                        _ => V::I(0).to(float),
                    };
                    bind(pt, Key::Local(v.local), value);
                }
            }
            LocalKind::Array(shape) => {
                let arr = Arr::new(v.ty, shape);
                self.frame().arrays.insert(v.local, arr);
            }
        }
        Ok(())
    }

    // ---- constructs ---------------------------------------------------

    fn construct(&mut self, uc: &UcStmt, sp: &mut Space) -> R<()> {
        if uc.kind == UcKind::Seq {
            return self.seq(uc, sp);
        }
        let (mut inner, _) = self.extend(sp, &uc.sets);
        inner.checks = !(uc.kind == UcKind::Solve && uc.star);
        match uc.kind {
            UcKind::Par => {
                while self.step(uc, &mut inner, uc.star)? {
                    self.tick()?;
                }
                Ok(())
            }
            UcKind::Oneof => self.oneof(uc, &mut inner),
            UcKind::Solve if uc.star => self.star_solve(uc, &mut inner),
            _ => self.solve(uc, &mut inner),
        }
    }

    /// The space `sp` extended by `sets`, row-major, and each new point's
    /// enclosing point.
    fn extend(&self, sp: &Space, sets: &[SetId]) -> (Space, Vec<usize>) {
        let mut tuples: Vec<Point> = vec![Vec::new()];
        for &set in sets {
            let elems = &self.c.sets[set].elements;
            tuples = tuples
                .iter()
                .flat_map(|t| elems.iter().map(move |&v| [&t[..], &[(Key::Elem(set as u32), V::I(v))]].concat()))
                .collect();
        }
        let mut inner = Space { pts: Vec::new(), on: Vec::new(), depth: sp.depth + 1, checks: true };
        let mut parent = Vec::new();
        for (k, pt) in sp.pts.iter().enumerate() {
            for t in &tuples {
                inner.pts.push([&pt[..], &t[..]].concat());
                inner.on.push(sp.on[k]);
                parent.push(k);
            }
        }
        (inner, parent)
    }

    /// Each predicate's truth per point (`None`: no predicate).
    fn masks<'e>(
        &mut self,
        preds: impl Iterator<Item = Option<&'e Expr>>,
        sp: &mut Space,
    ) -> R<Vec<Option<Vec<bool>>>> {
        let mut masks = Vec::new();
        for pred in preds {
            let m = match pred {
                Some(p) => {
                    let v = self.eval(p, sp)?;
                    Some((0..sp.pts.len()).map(|k| v.at(k).truth()).collect())
                }
                None => None,
            };
            masks.push(m);
        }
        Ok(masks)
    }

    /// Run `f` on the points of `sp` that are on and in `keep`.
    fn filtered<T>(
        &mut self,
        sp: &mut Space,
        keep: impl Fn(usize) -> bool,
        f: impl FnOnce(&mut Self, &mut Space) -> R<T>,
    ) -> R<T> {
        let outer = sp.on.clone();
        sp.on = outer.iter().enumerate().map(|(k, &on)| on && keep(k)).collect();
        let result = f(self, sp);
        sp.on = outer;
        result
    }

    fn any_on(sp: &Space, mask: &Option<Vec<bool>>) -> bool {
        (0..sp.pts.len()).any(|k| sp.on[k] && mask.as_ref().is_none_or(|m| m[k]))
    }

    /// One synchronous step of a `par` (or of a `seq` element under one):
    /// every predicate, then every arm where its own holds, then `others`.
    /// Whether some arm was enabled.
    fn step(&mut self, uc: &UcStmt, sp: &mut Space, star: bool) -> R<bool> {
        let masks = self.masks(uc.arms.iter().map(|a| a.pred.as_ref()), sp)?;
        let enabled = star && masks.iter().any(|m| Self::any_on(sp, m));
        for (arm, mask) in uc.arms.iter().zip(&masks) {
            let keep = |k: usize| mask.as_ref().is_none_or(|m| m[k]);
            self.filtered(sp, keep, |p, sp| p.stmt(&arm.body, sp).map(drop))?;
        }
        if let Some(others) = &uc.others {
            let none = |k: usize| !masks.iter().any(|m| m.as_ref().is_none_or(|m| m[k]));
            self.filtered(sp, none, |p, sp| p.stmt(others, sp).map(drop))?;
        }
        Ok(enabled)
    }

    fn seq(&mut self, uc: &UcStmt, sp: &mut Space) -> R<()> {
        let elements = self.c.sets[uc.sets[0]].elements.clone();
        loop {
            self.tick()?;
            let mut swept = false;
            for &v in elements.iter() {
                self.frame().regs[uc.elem as usize] = V::I(v);
                if sp.depth > 0 {
                    swept |= self.step(uc, sp, uc.star)?;
                    continue;
                }
                // On the front end each arm's predicate is read just
                // before the arm, after the arms before it ran.
                let mut matched = false;
                for arm in &uc.arms {
                    if arm.pred.as_ref().map(|p| self.scalar(p, sp)).transpose()?.is_none_or(|c| c.truth()) {
                        matched = true;
                        self.stmt(&arm.body, sp)?;
                    }
                }
                swept |= matched;
                if let (false, Some(others)) = (matched, &uc.others) {
                    self.stmt(others, sp)?;
                }
            }
            if !(uc.star && swept) {
                return Ok(());
            }
        }
    }

    fn oneof(&mut self, uc: &UcStmt, sp: &mut Space) -> R<()> {
        loop {
            self.tick()?;
            let masks = self.masks(uc.arms.iter().map(|a| a.pred.as_ref()), sp)?;
            let enabled: Vec<usize> = (0..masks.len()).filter(|&k| Self::any_on(sp, &masks[k])).collect();
            if enabled.is_empty() {
                return Ok(());
            }
            let k = enabled[self.oneof_cursor % enabled.len()];
            self.oneof_cursor += 1;
            let mask = &masks[k];
            self.filtered(sp, |q| mask.as_ref().is_none_or(|m| m[q]), |p, sp| {
                p.stmt(&uc.arms[k].body, sp).map(drop)
            })?;
            if !uc.star {
                return Ok(());
            }
        }
    }

    fn solve(&mut self, uc: &UcStmt, sp: &mut Space) -> R<()> {
        let mut defined: Vec<(Ref, Vec<bool>)> = Vec::new();
        for (target, ..) in assignments(uc) {
            let Expr::Index { base, .. } = target else { unreachable!("sema admits elements") };
            if !defined.iter().any(|(r, _)| *r == base.to) {
                let n = self.storage(base.to).data.len();
                defined.push((base.to, vec![false; n]));
            }
        }
        loop {
            self.tick()?;
            let mut progress = false;
            for (target, _, value) in assignments(uc) {
                let Expr::Index { base, subs, .. } = target else { unreachable!() };
                let undefined = self.defined_at(base.to, subs, &defined, sp)?;
                let rhs = self.rhs_defined(value, &defined, sp)?;
                let ready: Vec<bool> = (0..sp.pts.len()).map(|k| sp.on[k] && !undefined[k] && rhs[k]).collect();
                if !ready.contains(&true) {
                    continue;
                }
                progress = true;
                let subs_now = self.filtered(sp, |k| ready[k], |p, sp| {
                    let v = p.eval(value, sp)?;
                    p.store(target, &v, sp)?;
                    subs.iter().map(|s| p.eval(s, sp)).collect::<R<Vec<Val>>>()
                })?;
                let arr = self.storage(base.to).clone();
                let bits = &mut defined.iter_mut().find(|(r, _)| *r == base.to).unwrap().1;
                for k in (0..sp.pts.len()).filter(|&k| ready[k]) {
                    if let Some(at) = arr.index(subs_now.iter().map(|s| s.at(k).int())) {
                        bits[at] = true;
                    }
                }
            }
            if !progress {
                return Ok(());
            }
        }
    }

    /// Per point: whether the element `base[subs]` is defined (a solve
    /// target's, by `defined`; any other array's always). Outside the
    /// array it is not.
    fn defined_at(&mut self, base: Ref, subs: &[Expr], defined: &[(Ref, Vec<bool>)], sp: &mut Space) -> R<Vec<bool>> {
        let n = sp.pts.len();
        let Some((_, bits)) = defined.iter().find(|(r, _)| *r == base) else { return Ok(vec![true; n]) };
        let subs: Vec<Val> = subs.iter().map(|s| self.eval(s, sp)).collect::<R<_>>()?;
        let arr = self.storage(base);
        Ok((0..n).map(|k| arr.index(subs.iter().map(|s| s.at(k).int())).is_some_and(|at| bits[at])).collect())
    }

    /// Per point: whether everything `e` reads is defined.
    fn rhs_defined(&mut self, e: &Expr, defined: &[(Ref, Vec<bool>)], sp: &mut Space) -> R<Vec<bool>> {
        let n = sp.pts.len();
        let all = |p: &mut Self, sp: &mut Space, mut acc: Vec<bool>, es: &[&Expr]| -> R<Vec<bool>> {
            for e in es {
                let d = p.rhs_defined(e, defined, sp)?;
                acc.iter_mut().zip(d).for_each(|(a, d)| *a &= d);
            }
            Ok(acc)
        };
        match e {
            Expr::Index { base, subs, .. } => {
                let here = self.defined_at(base.to, subs, defined, sp)?;
                all(self, sp, here, &subs.iter().collect::<Vec<_>>())
            }
            Expr::Unary { expr, .. } => self.rhs_defined(expr, defined, sp),
            Expr::Binary { ops, .. } => all(self, sp, vec![true; n], &[&ops[0], &ops[1]]),
            Expr::Call { args, .. } => all(self, sp, vec![true; n], &args.iter().collect::<Vec<_>>()),
            Expr::Ternary { ops, .. } => {
                let [cond, then_e, else_e] = &**ops;
                let c = self.rhs_defined(cond, defined, sp)?;
                let (t, f) = (self.rhs_defined(then_e, defined, sp)?, self.rhs_defined(else_e, defined, sp)?);
                if t.iter().chain(&f).all(|&d| d) {
                    return Ok(c);
                }
                let which = self.eval(cond, sp)?;
                Ok((0..n).map(|k| c[k] && if which.at(k).truth() { t[k] } else { f[k] }).collect())
            }
            _ => Ok(vec![true; n]),
        }
    }

    fn star_solve(&mut self, uc: &UcStmt, sp: &mut Space) -> R<()> {
        loop {
            self.tick()?;
            let snapshot = (self.arrays.clone(), self.frame().arrays.clone());
            for (target, op, value) in assignments(uc) {
                let v = match op {
                    Some(op) => {
                        let t = self.eval(target, sp)?;
                        let v = self.eval(value, sp)?;
                        self.zip(op, &t, &v, sp)?
                    }
                    None => self.eval(value, sp)?,
                };
                self.store(target, &v, sp)?;
            }
            let locals = &self.frames.last().expect("in a function").arrays;
            if (&self.arrays, locals) == (&snapshot.0, &snapshot.1) {
                return Ok(());
            }
        }
    }

    // ---- expressions --------------------------------------------------

    fn storage(&mut self, base: Ref) -> &mut Arr {
        match base {
            Ref::Array(id) => &mut self.arrays[id as usize],
            Ref::Local(id) => self.frame().arrays.get_mut(&id).expect("a declared local array"),
            to => unreachable!("sema resolves every array base; this is {to:?}"),
        }
    }

    fn eval(&mut self, e: &Expr, sp: &mut Space) -> R<Val> {
        let n = sp.pts.len();
        Ok(match e {
            Expr::IntLit(v, _) => Val::S(V::I(*v)),
            Expr::FloatLit(v, _) => Val::S(V::F(*v)),
            Expr::Inf(_) => Val::S(V::I(i64::MAX)),
            Expr::Ident(name, _) => match name.to {
                Ref::Const(id) => Val::S(V::I(self.c.unit.defines[id as usize].1)),
                Ref::Global(g) => Val::S(self.globals[g as usize]),
                Ref::Local(id) if matches!(self.kind(id), LocalKind::Reg(_)) => {
                    Val::S(self.frame().regs[id as usize])
                }
                Ref::Local(id) => Val::P(sp.pts.iter().map(|pt| bound(pt, Key::Local(id))).collect()),
                Ref::Elem(set) => Val::P(sp.pts.iter().map(|pt| bound(pt, Key::Elem(set))).collect()),
                to => unreachable!("sema resolves every identifier; this is {to:?}"),
            },
            Expr::Index { base, subs, .. } => {
                let subs: Vec<Val> = subs.iter().map(|s| self.eval(s, sp)).collect::<R<_>>()?;
                let front = sp.depth == 0;
                let arr = self.storage(base.to);
                let read = |k: usize| match arr.index(subs.iter().map(|s| s.at(k).int())) {
                    Some(at) => Ok(arr.data[at]),
                    None if front => Err(format!("`{base}` read out of bounds")),
                    None => Ok(inf(arr.float)),
                };
                if subs.iter().all(|s| matches!(s, Val::S(_))) {
                    Val::S(read(0)?)
                } else {
                    Val::P((0..n).map(read).collect::<R<_>>()?)
                }
            }
            Expr::Call { callee: Callee::Func(f), args, .. } => {
                let args: Vec<V> = args.iter().map(|a| self.scalar(a, sp)).collect::<R<_>>()?;
                Val::S(self.call(*f as usize, &args)?)
            }
            Expr::Call { callee: Callee::Builtin(Builtin::Rand), .. } => {
                let mut draw = || {
                    self.draws += 1;
                    V::I(self.draws)
                };
                if sp.depth == 0 { Val::S(draw()) } else { Val::P((0..n).map(|_| draw()).collect()) }
            }
            Expr::Call { .. } => unreachable!("sema resolves every call; `abs` and `min` are operators"),
            Expr::Unary { op, expr, .. } => {
                let a = self.eval(expr, sp)?;
                lanes(n, &[a], |vs| Ok(unary(*op, vs[0])))?
            }
            Expr::Binary { op: op @ (BinaryOp::LogAnd | BinaryOp::LogOr), ops, .. } if sp.depth == 0 => {
                let [lhs, rhs] = &**ops;
                let l = self.scalar(lhs, sp)?.truth();
                if l == (*op == BinaryOp::LogOr) {
                    return Ok(Val::S(bit(l)));
                }
                Val::S(bit(self.scalar(rhs, sp)?.truth()))
            }
            Expr::Binary { op, ops, .. } => {
                let (a, b) = (self.eval(&ops[0], sp)?, self.eval(&ops[1], sp)?);
                self.zip(*op, &a, &b, sp)?
            }
            // As in C, the value has the arms' joined type.
            Expr::Ternary { ops, float, .. } if sp.depth == 0 => {
                let [cond, then_e, else_e] = &**ops;
                let taken = if self.scalar(cond, sp)?.truth() { then_e } else { else_e };
                Val::S(self.scalar(taken, sp)?.to(*float))
            }
            Expr::Ternary { ops, .. } => {
                let [cond, then_e, else_e] = &**ops;
                let c = self.eval(cond, sp)?;
                let (t, f) = (self.eval(then_e, sp)?, self.eval(else_e, sp)?);
                let float = t.is_float() || f.is_float();
                Val::P((0..n).map(|k| if c.at(k).truth() { t.at(k) } else { f.at(k) }.to(float)).collect())
            }
            Expr::Assign { op, ops, .. } => {
                let [target, value] = &**ops;
                let v = self.eval(value, sp)?;
                let v = match op {
                    Some(op) => {
                        let old = self.eval(target, sp)?;
                        self.zip(*op, &old, &v, sp)?
                    }
                    None => v,
                };
                // As in C, the value is the one stored: the target's type.
                let float = self.store(target, &v, sp)?;
                v.to(float)
            }
            Expr::Reduce(r) => self.reduce(r, sp)?,
        })
    }

    /// `a op b` lane by lane. A division by zero is an error on a point
    /// that is on, or on the front end.
    fn zip(&self, op: BinaryOp, a: &Val, b: &Val, sp: &Space) -> R<Val> {
        if let (Val::S(x), Val::S(y)) = (a, b) {
            return binary(op, *x, *y).map(Val::S).ok_or("division by zero".into());
        }
        let lane = |k: usize| match binary(op, a.at(k), b.at(k)) {
            Some(v) => Ok(v),
            None if sp.on[k] => Err("division by zero".to_string()),
            None => Ok(V::I(0)),
        };
        Ok(Val::P((0..sp.pts.len()).map(lane).collect::<R<_>>()?))
    }

    fn reduce(&mut self, r: &ReduceExpr, sp: &mut Space) -> R<Val> {
        let (mut inner, parent) = self.extend(sp, &r.sets);
        let masks = self.masks(r.arms.iter().map(|(p, _)| p.as_ref()), &mut inner)?;
        let logical = matches!(r.op, RedOpToken::And | RedOpToken::Or | RedOpToken::Xor);
        let mut partials: Vec<Vec<V>> = Vec::new();
        let operands = r.arms.iter().map(|(_, e)| e).chain(&r.others);
        for (arm, operand) in operands.enumerate() {
            let keep = |k: usize| match masks.get(arm) {
                Some(m) => m.as_ref().is_none_or(|m| m[k]),
                None => !masks.iter().any(|m| m.as_ref().is_none_or(|m| m[k])),
            };
            let (v, on) = self.filtered(&mut inner, keep, |p, sp| Ok((p.eval(operand, sp)?, sp.on.clone())))?;
            let float = !logical && v.is_float();
            let mut acc = vec![identity(r.op, float); sp.pts.len()];
            for k in (0..inner.pts.len()).filter(|&k| on[k]) {
                let x = if logical { bit(v.at(k).truth()) } else { v.at(k).to(float) };
                acc[parent[k]] = fold(r.op, acc[parent[k]], x);
            }
            partials.push(acc);
        }
        let mut acc = partials.remove(0);
        for p in partials {
            acc.iter_mut().zip(p).for_each(|(a, b)| *a = fold(r.op, *a, b));
        }
        Ok(if sp.depth == 0 { Val::S(acc[0]) } else { Val::P(acc) })
    }

    /// Store `v` to `target` on every point that is on: an error where a
    /// subscript leaves the array, or, where the space checks, where two
    /// points write different values to one element. Says whether the
    /// target holds floats.
    fn store(&mut self, target: &Expr, v: &Val, sp: &mut Space) -> R<bool> {
        let n = sp.pts.len();
        Ok(match target {
            Expr::Ident(name, _) => match name.to {
                Ref::Global(g) => {
                    let float = self.globals[g as usize].is_float();
                    self.globals[g as usize] = v.at(0).to(float);
                    float
                }
                Ref::Local(id) => {
                    let float = self.local_float(id);
                    if let LocalKind::Reg(_) = self.kind(id) {
                        self.frame().regs[id as usize] = v.at(0).to(float);
                    } else {
                        for k in (0..n).filter(|&k| sp.on[k]) {
                            bind(&mut sp.pts[k], Key::Local(id), v.at(k).to(float));
                        }
                    }
                    float
                }
                to => unreachable!("sema admits only variables as targets; this is {to:?}"),
            },
            Expr::Index { base, subs, .. } => {
                let subs: Vec<Val> = subs.iter().map(|s| self.eval(s, sp)).collect::<R<_>>()?;
                let arr = self.storage(base.to);
                let mut writes: Vec<(usize, V)> = Vec::new();
                for k in (0..n).filter(|&k| sp.on[k]) {
                    let at = arr.index(subs.iter().map(|s| s.at(k).int()));
                    let at = at.ok_or_else(|| format!("`{base}` written out of bounds"))?;
                    let value = v.at(k).to(arr.float);
                    if sp.checks && writes.iter().any(|&(a, w)| a == at && w != value) {
                        return Err(format!("distinct values assigned to an element of `{base}`"));
                    }
                    writes.push((at, value));
                }
                for (at, value) in writes {
                    arr.data[at] = value;
                }
                arr.float
            }
            other => unreachable!("sema admits only lvalues as targets, not {other:?}"),
        })
    }
}

/// `f` over the lanes of `args`: one scalar if every argument is one.
fn lanes(n: usize, args: &[Val], f: impl Fn(&[V]) -> R<V>) -> R<Val> {
    if args.iter().all(|a| matches!(a, Val::S(_))) {
        let vs: Vec<V> = args.iter().map(|a| a.at(0)).collect();
        return Ok(Val::S(f(&vs)?));
    }
    let lane = |k: usize| f(&args.iter().map(|a| a.at(k)).collect::<Vec<_>>());
    Ok(Val::P((0..n).map(lane).collect::<R<_>>()?))
}

/// What `key` is bound to at a point, innermost binding first.
fn bound(pt: &Point, key: Key) -> V {
    pt.iter().rev().find(|(k, _)| *k == key).map_or(V::I(0), |&(_, v)| v)
}

fn bind(pt: &mut Point, key: Key, v: V) {
    match pt.iter_mut().rev().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = v,
        None => pt.push((key, v)),
    }
}

/// A `solve`'s assignments in program order: `(target, op, value)`.
fn assignments(uc: &UcStmt) -> Vec<(&Expr, Option<BinaryOp>, &Expr)> {
    fn walk<'s>(s: &'s Stmt, out: &mut Vec<(&'s Expr, Option<BinaryOp>, &'s Expr)>) {
        match s {
            Stmt::Expr(Expr::Assign { op, ops, .. }) => out.push((&ops[0], *op, &ops[1])),
            Stmt::Block(b) => b.stmts.iter().for_each(|s| walk(s, out)),
            _ => {}
        }
    }
    let mut out = Vec::new();
    uc.arms.iter().for_each(|arm| walk(&arm.body, &mut out));
    out
}

/// The final globals and arrays as `name = value` lines, floats by bit
/// pattern, or the run's error.
fn reference_state(src: &str, defines: &[(&str, i64)]) -> R<Vec<String>> {
    let mut diags = Diagnostics::default();
    let checked = sema::front_end(src, defines, &mut diags).ok_or_else(|| diags.to_string())?;
    let mut it = Interp::new(&checked);
    it.call(checked.main, &[])?;
    let show = |v: V| match v {
        V::I(x) => x.to_string(),
        V::F(x) => format!("{:#x}", x.to_bits()),
    };
    let mut state: Vec<String> =
        checked.global_names.iter().zip(&it.globals).map(|(n, &v)| format!("{n} = {}", show(v))).collect();
    for (n, a) in checked.array_names.iter().zip(&it.arrays) {
        state.push(format!("{n} = {:?}", a.data.iter().map(|&v| show(v)).collect::<Vec<_>>()));
    }
    Ok(state)
}

fn real_state(src: &str, defines: &[(&str, i64)]) -> R<Vec<String>> {
    let mut p = Program::compile_with_defines(src, ExecConfig::default(), defines)
        .map_err(|d| d.to_string())?;
    p.run().map_err(|e| format!("{e:?}"))?;
    let show = |v: uc::cm::Scalar| match v {
        uc::cm::Scalar::Float(x) => format!("{:#x}", x.to_bits()),
        v => v.as_int().to_string(),
    };
    let mut state: Vec<String> =
        p.scalar_names().iter().map(|n| format!("{n} = {}", show(p.read_scalar(n).unwrap()))).collect();
    for n in p.array_names() {
        let values: Vec<String> = match p.read_int_array(&n) {
            Ok(xs) => xs.iter().map(i64::to_string).collect(),
            Err(_) => p.read_float_array(&n).unwrap().iter().map(|x| format!("{:#x}", x.to_bits())).collect(),
        };
        state.push(format!("{n} = {values:?}"));
    }
    Ok(state)
}

/// A program's name, source and `#define` overrides.
type Case = (String, String, Vec<(&'static str, i64)>);

/// Every program the pinned table holds outside the hostile corpus.
fn pinned_programs() -> Vec<Case> {
    let bench = [
        ("uc_bench/fig6", uc_bench::UC_APSP_N2, vec![("N", 6)]),
        ("uc_bench/fig7", uc_bench::UC_APSP_N3, vec![("N", 8), ("LOGN", 3)]),
        ("uc_bench/grid", uc_bench::UC_GRID_GOAL, vec![("N", 8)]),
        ("uc_bench/shift", uc_bench::UC_SHIFT_KERNEL, vec![("N", 64), ("ITERS", 4)]),
        ("uc_bench/shift_mapped", uc_bench::UC_SHIFT_KERNEL_MAPPED, vec![("N", 64), ("ITERS", 4)]),
    ];
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let names = include_str!("corpus/pinned_digests.txt").lines().filter_map(|l| l.rsplit(' ').next());
    names
        .filter(|name| !name.contains("/hostile/"))
        .map(|name| match bench.iter().find(|b| b.0 == name) {
            Some((_, src, defines)) => (name.to_string(), src.to_string(), defines.clone()),
            None => {
                let src = std::fs::read_to_string(root.join(name)).unwrap();
                (name.to_string(), src, Vec::new())
            }
        })
        .collect()
}

/// The implementation's final state equals the reference's on every
/// non-hostile pinned program.
#[test]
fn every_pinned_program_ends_as_the_reference_interpreter_says() {
    let programs = pinned_programs();
    assert!(programs.len() >= 50, "only {} programs", programs.len());
    let mut wrong = Vec::new();
    for (name, src, defines) in &programs {
        let (reference, real) = (reference_state(src, defines), real_state(src, defines));
        match (&reference, &real) {
            (Ok(r), Ok(x)) if r == x => {}
            // Both trap, on the same rule.
            (Err(r), Err(x)) if r.contains("distinct") == x.contains("MultipleAssignment") => {}
            _ => wrong.push(format!("{name}:\n  reference {reference:?}\n  real      {real:?}")),
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// The interpreter is a second reading of §3, not a copy of the
/// executor: a few hand-checked programs.
#[test]
fn the_reference_reads_the_paper() {
    let state = |src: &str| reference_state(src, &[]).unwrap().join("; ");
    // Synchronous `par`: every point reads before any writes.
    let shift = "index_set I:i = {0..3};\nint a[4];\n\
                 main() { par (I) a[i] = i; par (I) st (i > 0) a[i] = a[i - 1]; }";
    assert_eq!(state(shift), "a = [\"0\", \"0\", \"1\", \"2\"]");
    // A reduction per enclosing point, `others`, and INF off the edge.
    let rank = "index_set I:i = {0..3}, J:j = I;\nint a[4], r[4], e[4];\n\
                main() { par (I) a[i] = 3 - i; par (I) r[i] = $+(J st (a[j] < a[i]) 1);\n\
                par (I) st (i < 2) e[i] = a[i + 2]; others e[i] = a[i + 2] == INF; }";
    assert_eq!(
        state(rank),
        "a = [\"3\", \"2\", \"1\", \"0\"]; e = [\"1\", \"0\", \"1\", \"1\"]; r = [\"3\", \"2\", \"1\", \"0\"]"
    );
    // `solve` orders single assignments by definedness.
    let prefix = "index_set I:i = {0..3};\nint s[4];\n\
                  main() { solve (I) s[i] = i == 0 ? 1 : s[i - 1] * 2; }";
    assert_eq!(state(prefix), "s = [\"1\", \"2\", \"4\", \"8\"]");
    // Two values to one element is an error, but not in a `*solve`,
    // where the last store wins.
    let race = "index_set I:i = {0..3};\nint a[4];\nmain() { par (I) a[0] = i; }";
    assert!(reference_state(race, &[]).is_err());
    let star = "index_set I:i = {0..3};\nint a[4], b[1];\nmain() { *solve (I) a[i] = (b[0] = i); }";
    assert_eq!(state(star), "a = [\"0\", \"1\", \"2\", \"3\"]; b = [\"3\"]");
    // A `?:` has its arms' joined type: 1.0 / 2 on the front end.
    let joined = "int c = 1;\nfloat g;\nmain() { g = (c ? 1 : 2.5) / 2; }";
    assert_eq!(state(joined), format!("c = 1; g = {:#x}", 0.5f64.to_bits()));
}
