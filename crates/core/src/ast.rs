//! Abstract syntax of UC, and the one traversal of it.
//!
//! UC is C restricted (no `goto`, no general pointers) and extended with
//! index sets, reductions, the four dependency constructs (`par`, `seq`,
//! `solve`, `oneof`, each optionally `*`-iterated) and the map section.
//!
//! Which children a node has, and in what order, is written down once:
//! [`Expr::for_each_child`] and [`Stmt::for_each_child`] (plus their
//! `_mut` twins, generated from the same match) hand a closure each
//! direct child in source order without allocating. [`Expr::walk`],
//! [`Expr::any`] and [`Stmt::for_each_expr`] are the deep forms built on
//! them. Every pass that does not care about a node kind — the folder,
//! the escape statistics, the lint walkers outside the binders, guards
//! and stores they treat specially — delegates to these instead of
//! spelling out its own pass-through arms.

use std::sync::Arc;

use crate::span::Span;
use crate::token::RedOpToken;

/// Scalar types of UC (arrays are types plus dimension lists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Type {
    Int,
    Float,
    Void,
}

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Unit {
    pub items: Vec<Item>,
    /// `#define` constants, in source order, seeded before anything else.
    pub defines: Vec<(String, i64)>,
}

impl Unit {
    /// Apply `-D NAME=VALUE` overrides: each replaces every `#define` of
    /// that name — sema binds the last — or adds one.
    pub fn override_defines(&mut self, defines: &[(&str, i64)]) {
        for &(name, value) in defines {
            if !self.defines.iter().any(|(n, _)| n == name) {
                self.defines.push((name.to_string(), value));
            }
            self.defines.iter_mut().filter(|(n, _)| n == name).for_each(|slot| slot.1 = value);
        }
    }
}

/// Top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    IndexSets(Vec<IndexSetDef>),
    Var(VarDecl),
    Func(FuncDef),
    /// The optional map section of §4.
    Map(MapSection),
}

/// Which index-set definition a use site denotes: its position in
/// [`crate::sema::Checked::sets`]. Sema resolves every set name to one,
/// under the scope rules of §3.4, and no later layer looks a name up again.
pub type SetId = usize;

/// Which parameter or declaration of the enclosing function a use site
/// denotes: its position in that function's
/// [`crate::sema::FuncInfo::locals`].
pub type LocalId = u32;

/// What an identifier denotes. Empty from the parser; sema — the one
/// resolver, walking every body under the scope rules of §3.4 (innermost
/// scope outwards, then globals, then `#define`s) — fills it in place,
/// and every later layer indexes the table the variant names instead of
/// looking the spelling up again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ref {
    /// Not resolved: straight from the parser, or a name only ever read
    /// by spelling (constant extents and bounds).
    #[default]
    Unresolved,
    /// A `#define`: its position in [`Unit::defines`].
    Const(u32),
    /// A global scalar: its position in [`crate::sema::Checked::global_names`].
    Global(u32),
    /// A parameter, local scalar, `seq` element or local array of the
    /// enclosing function.
    Local(LocalId),
    /// The index element of an open `par`/`oneof`/`solve` or reduction
    /// over this set (a [`SetId`]; the innermost such construct).
    Elem(u32),
    /// A global array: its position in [`crate::sema::Checked::array_names`].
    Array(u32),
}

/// One occurrence of an identifier: its spelling, for diagnostics and
/// rendering, and what sema resolved it to.
///
/// The spelling is shared: the parser allocates one `Arc<str>` per
/// distinct identifier of a source and hands every occurrence a clone,
/// so a name costs a reference count, not an allocation, and dropping
/// the tree frees each spelling once. An `Arc<str>` is two words, so a
/// `Name` is the size of a `String`.
#[derive(Debug, Clone, PartialEq)]
pub struct Name {
    pub text: Arc<str>,
    pub to: Ref,
}

impl Name {
    pub fn new(text: impl Into<Arc<str>>) -> Name {
        Name { text: text.into(), to: Ref::Unresolved }
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// What an [`Expr::Call`] calls. The parser recognises a builtin by its
/// spelling — a call of `abs`, `power2`, `min` or `max` with the right
/// number of arguments is an operator node instead — sema resolves every
/// other call, and no later layer compares a name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callee {
    /// Not a builtin, and sema has not looked the function up yet.
    Unresolved,
    Builtin(crate::stdlib::Builtin),
    /// A user function: its position in
    /// [`crate::sema::Checked::funcs_in_order`] and `ir.funcs`.
    Func(u32),
}

/// Which value the executor may keep a node's result as: its position in
/// [`crate::sema::Checked::values`]. Every [`Expr::Index`] has one (two
/// accesses share it iff their resolved bases and subscripts are
/// structurally equal); an operator node has one only where sema
/// decided its result is worth keeping, and [`NO_VALUE`] elsewhere.
pub type ValueId = u32;

/// The id of a node whose result is recomputed wherever it is evaluated:
/// what the parser writes, and what sema leaves on most nodes.
pub const NO_VALUE: ValueId = ValueId::MAX;

/// One `NAME : elem = init` definition inside an `index_set` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexSetDef {
    pub name: String,
    pub elem: String,
    pub init: IndexSetInit,
    pub span: Span,
}

/// The right-hand side of an index-set definition.
#[derive(Debug, Clone, PartialEq)]
pub enum IndexSetInit {
    /// `{lo .. hi}` — inclusive on both ends, like the paper's `{0..N-1}`.
    Range(Expr, Expr),
    /// `{4, 2, 9}` — explicit ordered elements.
    List(Vec<Expr>),
    /// `= J` — same elements as a previously declared set.
    Alias(String),
}

/// A variable declaration (scalar or array).
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    pub ty: Type,
    pub name: String,
    /// Per-dimension extents; empty for scalars.
    pub dims: Vec<Expr>,
    pub init: Option<Expr>,
    pub span: Span,
    /// For a declaration inside a function: which local it declares —
    /// 0 from the parser, filled by sema.
    pub local: LocalId,
}

/// A function definition. The paper's programs use `main()` plus small
/// helpers; parameters are by-value scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    pub ret: Type,
    pub name: String,
    /// Each parameter's type, name and the span of its name.
    pub params: Vec<(Type, String, Span)>,
    pub body: Block,
    pub span: Span,
}

/// A `{ ... }` statement sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// Statements. A declaration and a `for` header are boxed: they are
/// rare, and inline they would set the size of every statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Expr(Expr),
    Decl(Box<VarDecl>),
    IndexSets(Vec<IndexSetDef>),
    Block(Block),
    If { cond: Expr, then_branch: Box<Stmt>, else_branch: Option<Box<Stmt>>, span: Span },
    While { cond: Expr, body: Box<Stmt>, span: Span },
    For {
        init: Option<Box<Expr>>,
        cond: Option<Box<Expr>>,
        step: Option<Box<Expr>>,
        body: Box<Stmt>,
        span: Span,
    },
    Return(Option<Expr>, Span),
    Break(Span),
    Continue(Span),
    /// `par` / `seq` / `solve` / `oneof`.
    Uc(UcStmt),
    /// An empty statement `;`.
    Empty,
}

impl Stmt {
    /// Source span of a statement, when it carries one (blocks and `;`
    /// do not: an error inside them reports the enclosing statement).
    pub fn span(&self) -> Option<Span> {
        match self {
            Stmt::Expr(e) => Some(e.span()),
            Stmt::Decl(v) => Some(v.span),
            Stmt::IndexSets(defs) => defs.first().map(|d| d.span),
            Stmt::If { span, .. }
            | Stmt::While { span, .. }
            | Stmt::For { span, .. }
            | Stmt::Return(_, span)
            | Stmt::Break(span)
            | Stmt::Continue(span) => Some(*span),
            Stmt::Uc(uc) => Some(uc.span),
            Stmt::Block(_) | Stmt::Empty => None,
        }
    }
}

/// Which UC construct a [`UcStmt`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UcKind {
    Par,
    Seq,
    Solve,
    Oneof,
}

impl UcKind {
    pub fn keyword(self) -> &'static str {
        match self {
            UcKind::Par => "par",
            UcKind::Seq => "seq",
            UcKind::Solve => "solve",
            UcKind::Oneof => "oneof",
        }
    }
}

/// What a level of iteration belongs to: a construct, by its kind and
/// whether it is a `*` form, or a reduction, by its operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opener {
    Construct(UcKind, bool),
    Reduce(RedOpToken),
}

/// The step table: what runs a store at a level that `opener` opens
/// inside a level whose step is `enclosing`, if that step traps on
/// distinct values stored to one element (§3.4). A `seq` takes its
/// enclosing step; `*solve` has none, since it drops single assignment
/// (§3.6); any other construct has its keyword, and a reduction its
/// operator. Sema's UC101 facts and the executor's collision check both
/// read it.
pub fn step(opener: Opener, enclosing: Option<&'static str>) -> Option<&'static str> {
    match opener {
        Opener::Construct(UcKind::Seq, _) => enclosing,
        Opener::Construct(UcKind::Solve, true) => None,
        Opener::Construct(kind, _) => Some(kind.keyword()),
        Opener::Reduce(op) => Some(op.symbol()),
    }
}

/// One `st (pred) stmt` arm. A construct with a bare statement is a single
/// arm with no predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct ScBlock {
    pub pred: Option<Expr>,
    pub body: Stmt,
}

/// A `[*] par|seq|solve|oneof ( I, J, ... ) arms [others stmt]` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct UcStmt {
    pub kind: UcKind,
    pub star: bool,
    pub idxs: Vec<String>,
    /// The definition each name in `idxs` denotes — empty from the
    /// parser, filled by sema.
    pub sets: Vec<SetId>,
    /// For a `seq`: the local its element is — a front-end scalar,
    /// rebound once per step, wherever the `seq` sits. Filled by sema.
    pub elem: LocalId,
    pub arms: Vec<ScBlock>,
    pub others: Option<Box<Stmt>>,
    pub span: Span,
}

/// Unary expression operators: C's, and the builtins `abs`/`ABS` and
/// `power2`, which the parser reads as operators ([`crate::stdlib`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
    BitNot,
    /// Keeps an int or a float; a bool becomes an int.
    Abs,
    /// `1 << k`, an int.
    Power2,
}

impl UnaryOp {
    /// C operator spelling, or the builtin's name.
    pub fn symbol(self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Not => "!",
            UnaryOp::BitNot => "~",
            UnaryOp::Abs => "abs",
            UnaryOp::Power2 => "power2",
        }
    }

    /// Whether it is written as a call: `abs(x)`.
    pub fn is_call(self) -> bool {
        matches!(self, UnaryOp::Abs | UnaryOp::Power2)
    }
}

/// Binary expression operators: a C subset, and the builtins `min` and
/// `max` (float if either operand is).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Mul,
    Div,
    Mod,
    Add,
    Sub,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitXor,
    BitOr,
    LogAnd,
    LogOr,
    Min,
    Max,
}

impl BinaryOp {
    /// C operator spelling, or the builtin's name.
    pub fn symbol(self) -> &'static str {
        use BinaryOp::*;
        match self {
            Mul => "*",
            Div => "/",
            Mod => "%",
            Add => "+",
            Sub => "-",
            Shl => "<<",
            Shr => ">>",
            Lt => "<",
            Le => "<=",
            Gt => ">",
            Ge => ">=",
            Eq => "==",
            Ne => "!=",
            BitAnd => "&",
            BitXor => "^",
            BitOr => "|",
            LogAnd => "&&",
            LogOr => "||",
            Min => "min",
            Max => "max",
        }
    }

    /// Whether it is written as a call: `min(a, b)`.
    pub fn is_call(self) -> bool {
        matches!(self, BinaryOp::Min | BinaryOp::Max)
    }

    /// Whether the result is boolean (0/1) in C.
    pub fn is_comparison(self) -> bool {
        use BinaryOp::*;
        matches!(self, Lt | Le | Gt | Ge | Eq | Ne)
    }
}

/// Expressions.
///
/// The allocation rule: one block per operator node, none per operand
/// and none per identifier. An operator's operands sit side by side in
/// one box (`[lhs, rhs]` of an [`Expr::Binary`] or an [`Expr::Assign`],
/// `[cond, then, else]` of an [`Expr::Ternary`]; a match destructures
/// them with `let [lhs, rhs] = &**ops;`), and an identifier shares its
/// spelling ([`Name`]). The reason is the tree's drop, which frees every
/// block one at a time: a box per operand and a string per occurrence
/// make a large program's tree take as long to free as to parse, most of
/// it in the allocator consolidating small blocks.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    IntLit(i64, Span),
    FloatLit(f64, Span),
    /// The predefined `INF` constant of §3.2.
    Inf(Span),
    Ident(Name, Span),
    /// `a[e][e]...`; `access` is 0 from the parser, filled by sema.
    /// `borrow` is false from the parser; sema sets it where the read's
    /// consumer is done with the value before anything can write the
    /// array, so a local read may hand it the array's own storage.
    Index { base: Name, subs: Vec<Expr>, span: Span, access: ValueId, borrow: bool },
    /// `name(args...)`; `name` is the spelling, shared as a [`Name`]'s
    /// is, for diagnostics and rendering. No call's value is kept:
    /// `rand()` draws anew, a user function may do anything, and `swap`
    /// is a statement. The three operator nodes' `value` is [`NO_VALUE`]
    /// from the parser; sema may fill it.
    Call { name: Arc<str>, callee: Callee, args: Vec<Expr>, span: Span },
    Unary { op: UnaryOp, expr: Box<Expr>, span: Span, value: ValueId },
    /// `lhs op rhs`, its operands `[lhs, rhs]`.
    Binary { op: BinaryOp, ops: Box<[Expr; 2]>, span: Span, value: ValueId },
    /// `cond ? then : else`, its operands `[cond, then, else]`; `float`
    /// is false from the parser, and sema sets it where the arms' joined
    /// type is a float, which both arms are coerced to.
    Ternary { ops: Box<[Expr; 3]>, span: Span, value: ValueId, float: bool },
    /// `target = value` or a compound assignment `target op= value`, its
    /// operands `[target, value]`.
    Assign { op: Option<BinaryOp>, ops: Box<[Expr; 2]>, span: Span },
    Reduce(Box<ReduceExpr>),
}

impl Expr {
    pub fn span(&self) -> Span {
        match self {
            Expr::IntLit(_, s)
            | Expr::FloatLit(_, s)
            | Expr::Inf(s)
            | Expr::Ident(_, s)
            | Expr::Index { span: s, .. }
            | Expr::Call { span: s, .. }
            | Expr::Unary { span: s, .. }
            | Expr::Binary { span: s, .. }
            | Expr::Ternary { span: s, .. }
            | Expr::Assign { span: s, .. } => *s,
            Expr::Reduce(r) => r.span,
        }
    }

    /// The value id sema gave this node, if any: an access's always.
    pub fn value(&self) -> Option<ValueId> {
        match *self {
            Expr::Index { access: v, .. }
            | Expr::Unary { value: v, .. }
            | Expr::Binary { value: v, .. }
            | Expr::Ternary { value: v, .. } => (v != NO_VALUE).then_some(v),
            _ => None,
        }
    }

    /// Where an operator node keeps its value id; `None` for every other
    /// node.
    pub fn value_slot(&mut self) -> Option<&mut ValueId> {
        match self {
            Expr::Unary { value, .. }
            | Expr::Binary { value, .. }
            | Expr::Ternary { value, .. } => Some(value),
            _ => None,
        }
    }
}

/// A reduction expression `$op ( I, J [st (p) e]+ [others e] )` or the
/// simple form `$op ( I ; e )`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceExpr {
    pub op: RedOpToken,
    pub idxs: Vec<String>,
    /// The definition each name in `idxs` denotes — empty from the
    /// parser, filled by sema.
    pub sets: Vec<SetId>,
    /// `(predicate, operand)` arms; a simple reduction has one arm with no
    /// predicate.
    pub arms: Vec<(Option<Expr>, Expr)>,
    pub others: Option<Expr>,
    pub span: Span,
    /// Sema's mark for §4's processor optimisation: this reduction is a
    /// histogram whose key is this side of its `==`. `None` from the parser.
    pub histogram: Option<HistogramKey>,
}

/// Which operand of a histogram's `key == elem` is the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramKey {
    Lhs,
    Rhs,
}

/// The declarative map section: `map (I) { permute (I) b[i+1] :- a[i]; }`.
#[derive(Debug, Clone, PartialEq)]
pub struct MapSection {
    pub idxs: Vec<String>,
    pub decls: Vec<MapDecl>,
    pub span: Span,
}

/// Which of the three mapping classes of §4 a declaration uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapKind {
    Permute,
    Fold,
    Copy,
}

/// One mapping declaration: `kind (I) target_pattern :- source_pattern;`.
#[derive(Debug, Clone, PartialEq)]
pub struct MapDecl {
    pub kind: MapKind,
    pub idxs: Vec<String>,
    /// The array being re-mapped, with index expressions over `idxs`.
    pub target: ArrayPattern,
    /// The array it is aligned against.
    pub source: ArrayPattern,
    pub span: Span,
}

/// `name[e][e]...` in a map declaration. Sema resolves `array` to a
/// [`Ref::Array`] and every identifier of a subscript to a [`Ref::Elem`]
/// of the section's or the declaration's sets, or to a [`Ref::Const`].
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayPattern {
    pub array: Name,
    pub subs: Vec<Expr>,
    pub span: Span,
}

/// One direct child of a statement, as [`Stmt::for_each_child`] yields it.
pub enum Node<'a> {
    Expr(&'a Expr),
    Stmt(&'a Stmt),
}

/// One direct child of a statement, as [`Stmt::for_each_child_mut`]
/// yields it.
pub enum NodeMut<'a> {
    Expr(&'a mut Expr),
    Stmt(&'a mut Stmt),
}

/// The child lists of `Expr` and `Stmt`, instantiated once for `&` and
/// once for `&mut` so the two can never disagree.
macro_rules! child_walkers {
    ($expr_children:ident, $stmt_children:ident, $node:ident $(, $mt:tt)?) => {
        impl Expr {
            /// Call `f` on every direct sub-expression, in source order.
            pub fn $expr_children<'a>(&'a $($mt)? self, mut f: impl FnMut(&'a $($mt)? Expr)) {
                match self {
                    Expr::IntLit(..) | Expr::FloatLit(..) | Expr::Inf(_) | Expr::Ident(..) => {}
                    Expr::Index { subs: es, .. } | Expr::Call { args: es, .. } => {
                        for e in es {
                            f(e);
                        }
                    }
                    Expr::Unary { expr, .. } => f(expr),
                    Expr::Binary { ops, .. } | Expr::Assign { ops, .. } => {
                        for e in &$($mt)? **ops {
                            f(e);
                        }
                    }
                    Expr::Ternary { ops, .. } => {
                        for e in &$($mt)? **ops {
                            f(e);
                        }
                    }
                    Expr::Reduce(r) => {
                        for (pred, operand) in &$($mt)? r.arms {
                            if let Some(p) = pred {
                                f(p);
                            }
                            f(operand);
                        }
                        if let Some(o) = &$($mt)? r.others {
                            f(o);
                        }
                    }
                }
            }
        }

        impl Stmt {
            /// Call `f` on every direct child — expressions and nested
            /// statements — in source order.
            pub fn $stmt_children<'a>(&'a $($mt)? self, mut f: impl FnMut($node<'a>)) {
                match self {
                    Stmt::Expr(e) => f($node::Expr(e)),
                    Stmt::Decl(v) => {
                        for d in &$($mt)? v.dims {
                            f($node::Expr(d));
                        }
                        if let Some(e) = &$($mt)? v.init {
                            f($node::Expr(e));
                        }
                    }
                    Stmt::IndexSets(defs) => {
                        for def in defs {
                            match &$($mt)? def.init {
                                IndexSetInit::Range(lo, hi) => {
                                    f($node::Expr(lo));
                                    f($node::Expr(hi));
                                }
                                IndexSetInit::List(es) => {
                                    for e in es {
                                        f($node::Expr(e));
                                    }
                                }
                                IndexSetInit::Alias(_) => {}
                            }
                        }
                    }
                    Stmt::Block(b) => {
                        for s in &$($mt)? b.stmts {
                            f($node::Stmt(s));
                        }
                    }
                    Stmt::If { cond, then_branch, else_branch, .. } => {
                        f($node::Expr(cond));
                        f($node::Stmt(then_branch));
                        if let Some(e) = else_branch {
                            f($node::Stmt(e));
                        }
                    }
                    Stmt::While { cond, body, .. } => {
                        f($node::Expr(cond));
                        f($node::Stmt(body));
                    }
                    Stmt::For { init, cond, step, body, .. } => {
                        for e in [init, cond, step].into_iter().flatten() {
                            f($node::Expr(e));
                        }
                        f($node::Stmt(body));
                    }
                    Stmt::Return(e, _) => {
                        if let Some(e) = e {
                            f($node::Expr(e));
                        }
                    }
                    Stmt::Uc(uc) => {
                        for arm in &$($mt)? uc.arms {
                            if let Some(p) = &$($mt)? arm.pred {
                                f($node::Expr(p));
                            }
                            f($node::Stmt(&$($mt)? arm.body));
                        }
                        if let Some(o) = &$($mt)? uc.others {
                            f($node::Stmt(o));
                        }
                    }
                    Stmt::Break(_) | Stmt::Continue(_) | Stmt::Empty => {}
                }
            }
        }
    };
}

child_walkers!(for_each_child, for_each_child, Node);
child_walkers!(for_each_child_mut, for_each_child_mut, NodeMut, mut);

impl Expr {
    /// Visit `self` and every sub-expression, parents first.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        self.for_each_child(|c| c.walk(f));
    }

    /// Whether `pred` holds for `self` or any sub-expression; stops at the
    /// first hit.
    pub fn any(&self, pred: &mut impl FnMut(&Expr) -> bool) -> bool {
        let mut hit = pred(self);
        self.for_each_child(|c| hit = hit || c.any(pred));
        hit
    }
}

impl Stmt {
    /// Visit every expression held by `self` or by a statement nested in
    /// it (the expressions themselves, not their sub-expressions).
    pub fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.for_each_child(|n| match n {
            Node::Expr(e) => f(e),
            Node::Stmt(s) => s.for_each_expr(f),
        });
    }

    /// Mutable form of [`Stmt::for_each_expr`].
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut Expr)) {
        self.for_each_child_mut(|n| match n {
            NodeMut::Expr(e) => f(e),
            NodeMut::Stmt(s) => s.for_each_expr_mut(f),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_op_metadata() {
        assert_eq!(BinaryOp::Add.symbol(), "+");
        assert_eq!(BinaryOp::Shl.symbol(), "<<");
        assert!(BinaryOp::Le.is_comparison());
        assert!(!BinaryOp::Add.is_comparison());
    }

    #[test]
    fn uc_kind_keywords() {
        assert_eq!(UcKind::Par.keyword(), "par");
        assert_eq!(UcKind::Solve.keyword(), "solve");
    }

    #[test]
    fn expr_spans() {
        let s = Span::new(1, 2, 1, 2);
        assert_eq!(Expr::IntLit(4, s).span(), s);
        let e = Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(Expr::IntLit(4, s)),
            span: s,
            value: NO_VALUE,
        };
        assert_eq!(e.span(), s);
    }

    /// The statements of `main() { <body> }`.
    fn body(src: &str) -> Vec<Stmt> {
        let mut diags = crate::diag::Diagnostics::default();
        let unit = crate::parser::parse(&format!("main() {{ {src} }}"), &mut diags)
            .unwrap_or_else(|| panic!("{diags}"));
        let Some(Item::Func(main)) = unit.items.into_iter().next() else { panic!("no main") };
        main.body.stmts
    }

    /// `Index` and `Call` set the size; a resolved reference, a value id
    /// and a callee ride in what the base's `String` and the padding used
    /// to take. An `if` sets a statement's size (a declaration and a `for`
    /// header are boxed), and a token carries no text.
    #[test]
    fn a_resolved_expr_is_no_bigger_than_a_parsed_one_was() {
        assert!(std::mem::size_of::<Ref>() <= 8 && std::mem::size_of::<Callee>() <= 8);
        assert_eq!(std::mem::size_of::<Name>(), std::mem::size_of::<String>());
        assert_eq!(std::mem::size_of::<Expr>(), 80);
        assert!(std::mem::size_of::<Stmt>() <= 128);
        assert!(std::mem::size_of::<crate::token::Token>() <= 40);
    }

    /// The VM walks a `Vec<Instr>`: `LoadElem`'s array and subscript list
    /// set the size, and a constant or a span riding in an instruction
    /// must not raise it.
    #[test]
    fn an_instruction_is_no_bigger_than_a_call() {
        assert!(std::mem::size_of::<crate::ir::Instr>() <= 32);
    }

    #[test]
    fn children_come_in_source_order_at_every_level() {
        let stmts = body(
            "int t[n] = a; for (b; c; d) e; \
             par (I) st (f) { g = h ? k[l] : m(o); } others p = $+(J st (q) r others s);",
        );
        let mut names = Vec::new();
        for s in &stmts {
            s.for_each_expr(&mut |e| {
                e.walk(&mut |x| {
                    match x {
                        Expr::Ident(n, _) | Expr::Index { base: n, .. } => names.push(&*n.text),
                        Expr::Call { name, .. } => names.push(name),
                        _ => {}
                    }
                })
            });
        }
        assert_eq!(names.concat(), "nabcdefghklmopqrs");
    }

    #[test]
    fn any_stops_at_the_first_hit() {
        let stmts = body("x = a + b * c;");
        let Stmt::Expr(e) = &stmts[0] else { panic!() };
        let mut seen = Vec::new();
        let hit = e.any(&mut |x| {
            if let Expr::Ident(n, _) = x {
                seen.push(n.to_string());
            }
            matches!(x, Expr::Ident(n, _) if &*n.text == "a")
        });
        assert!(hit);
        assert_eq!(seen, ["x", "a"]);
        assert!(!e.any(&mut |x| matches!(x, Expr::Call { .. })));
    }

    #[test]
    fn the_mutable_walk_reaches_what_the_shared_one_does() {
        let mut stmts = body("if (a) { while (b) c = d[e]; } else return f;");
        let count = |stmts: &[Stmt], name: &str| {
            let mut n = 0;
            for s in stmts {
                s.for_each_expr(&mut |e| {
                    e.walk(&mut |x| n += matches!(x, Expr::Ident(i, _) if &*i.text == name) as usize)
                });
            }
            n
        };
        assert_eq!(count(&stmts, "z"), 0);
        fn rename(e: &mut Expr) {
            if let Expr::Ident(n, _) = e {
                *n = Name::new("z");
            }
            e.for_each_child_mut(rename);
        }
        for s in &mut stmts {
            s.for_each_expr_mut(&mut rename);
        }
        assert_eq!(count(&stmts, "z"), 5, "a, b, c, e, f (d is an array base)");
    }
}
