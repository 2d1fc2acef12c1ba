//! Abstract syntax of UC.
//!
//! UC is C restricted (no `goto`, no general pointers) and extended with
//! index sets, reductions, the four dependency constructs (`par`, `seq`,
//! `solve`, `oneof`, each optionally `*`-iterated) and the map section.

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

/// Top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    IndexSets(Vec<IndexSetDef>),
    Var(VarDecl),
    Func(FuncDef),
    /// The optional map section of §4.
    Map(MapSection),
}

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
}

/// A function definition. The paper's programs use `main()` plus small
/// helpers; parameters are by-value scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncDef {
    pub ret: Type,
    pub name: String,
    pub params: Vec<(Type, String)>,
    pub body: Block,
    pub span: Span,
}

/// A `{ ... }` statement sequence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Expr(Expr),
    Decl(VarDecl),
    IndexSets(Vec<IndexSetDef>),
    Block(Block),
    If { cond: Expr, then_branch: Box<Stmt>, else_branch: Option<Box<Stmt>>, span: Span },
    While { cond: Expr, body: Box<Stmt>, span: Span },
    For {
        init: Option<Expr>,
        cond: Option<Expr>,
        step: Option<Expr>,
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
    pub arms: Vec<ScBlock>,
    pub others: Option<Box<Stmt>>,
    pub span: Span,
}

/// Unary expression operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
    BitNot,
}

/// Binary expression operators (C subset).
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
}

impl BinaryOp {
    /// C operator spelling.
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
        }
    }

    /// Whether the result is boolean (0/1) in C.
    pub fn is_comparison(self) -> bool {
        use BinaryOp::*;
        matches!(self, Lt | Le | Gt | Ge | Eq | Ne)
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    IntLit(i64, Span),
    FloatLit(f64, Span),
    /// The predefined `INF` constant of §3.2.
    Inf(Span),
    Ident(String, Span),
    /// `a[e][e]...`
    Index { base: String, subs: Vec<Expr>, span: Span },
    Call { name: String, args: Vec<Expr>, span: Span },
    Unary { op: UnaryOp, expr: Box<Expr>, span: Span },
    Binary { op: BinaryOp, lhs: Box<Expr>, rhs: Box<Expr>, span: Span },
    Ternary { cond: Box<Expr>, then_e: Box<Expr>, else_e: Box<Expr>, span: Span },
    /// `lhs = value` or a compound assignment `lhs op= value`.
    Assign { target: Box<Expr>, op: Option<BinaryOp>, value: Box<Expr>, span: Span },
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
}

/// A reduction expression `$op ( I, J [st (p) e]+ [others e] )` or the
/// simple form `$op ( I ; e )`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReduceExpr {
    pub op: RedOpToken,
    pub idxs: Vec<String>,
    /// `(predicate, operand)` arms; a simple reduction has one arm with no
    /// predicate.
    pub arms: Vec<(Option<Expr>, Expr)>,
    pub others: Option<Expr>,
    pub span: Span,
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

impl MapKind {
    pub fn keyword(self) -> &'static str {
        match self {
            MapKind::Permute => "permute",
            MapKind::Fold => "fold",
            MapKind::Copy => "copy",
        }
    }
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

/// `name[e][e]...` in a map declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayPattern {
    pub array: String,
    pub subs: Vec<Expr>,
    pub span: Span,
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
        assert_eq!(MapKind::Copy.keyword(), "copy");
    }

    #[test]
    fn expr_spans() {
        let s = Span::new(1, 2, 1, 2);
        assert_eq!(Expr::IntLit(4, s).span(), s);
        let e = Expr::Unary { op: UnaryOp::Neg, expr: Box::new(Expr::IntLit(4, s)), span: s };
        assert_eq!(e.span(), s);
    }
}
