//! Recursive-descent parser for UC.
//!
//! The grammar follows §3 of the paper: C expressions and statements
//! (minus `goto`, which is rejected with a diagnostic), `index_set`
//! declarations, reduction expressions, the four constructs with their
//! `st`/`others` arms and `*` iteration prefix, and the map section of §4.
//!
//! Tokens are `Copy` and carry no text; the parser reads an identifier's
//! spelling from the source through its span, and allocates a name only
//! where the AST keeps one.
//!
//! `sc-block` binding follows the paper's dangling-`else`-style rule: an
//! `st`/`others` arm binds to the innermost construct; braces force a
//! different binding.

use crate::ast::*;
use crate::diag::Diagnostics;
use crate::lexer::{lex, LexOutput};
use crate::span::Span;
use crate::stdlib::Builtin;
use crate::token::{Token, TokenKind, TokenKind as T};

/// Parse a UC translation unit. Returns `None` if errors were found (all
/// recorded in `diags`).
pub fn parse(src: &str, diags: &mut Diagnostics) -> Option<Unit> {
    let LexOutput { tokens, defines } = lex(src, diags);
    if diags.has_errors() {
        return None;
    }
    let mut p = Parser { src, tokens, pos: 0, diags };
    let unit = p.unit(defines);
    if p.diags.has_errors() {
        None
    } else {
        Some(unit)
    }
}

struct Parser<'a> {
    src: &'a str,
    tokens: Vec<Token>,
    pos: usize,
    diags: &'a mut Diagnostics,
}

type PResult<T> = Result<T, ()>;

impl<'a> Parser<'a> {
    // ---- token plumbing ---------------------------------------------------

    fn cur(&self) -> Token {
        self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek(&self) -> TokenKind {
        self.cur().kind
    }

    fn peek2(&self) -> TokenKind {
        self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.cur().span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1).min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.cur();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    /// The source text a token covers: an identifier's spelling.
    fn text(&self, t: Token) -> &'a str {
        &self.src[t.span.start..t.span.end]
    }

    /// A token as a diagnostic names it: its kind, with an identifier's
    /// spelling.
    fn describe(&self, t: Token) -> String {
        match t.kind {
            T::Ident => format!("Ident({:?})", self.text(t)),
            k => format!("{k:?}"),
        }
    }

    fn at(&self, k: TokenKind) -> bool {
        self.peek() == k
    }

    fn eat(&mut self, k: TokenKind) -> bool {
        if self.at(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, k: TokenKind, what: &str) -> PResult<()> {
        if self.eat(k) {
            Ok(())
        } else {
            self.expected(what)
        }
    }

    /// Report that the current token is not `what`.
    fn expected<X>(&mut self, what: &str) -> PResult<X> {
        let msg = format!("expected {what}, found {}", self.describe(self.cur()));
        self.diags.error(self.span(), msg);
        Err(())
    }

    fn ident(&mut self, what: &str) -> PResult<&'a str> {
        if self.at(T::Ident) {
            let t = self.bump();
            Ok(self.text(t))
        } else {
            self.expected(what)
        }
    }

    /// Skip to the next statement boundary after an error.
    fn synchronize(&mut self) {
        loop {
            match self.peek() {
                T::Semi => {
                    self.bump();
                    return;
                }
                T::RBrace | T::Eof => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    // ---- top level --------------------------------------------------------

    fn unit(&mut self, defines: Vec<(String, i64)>) -> Unit {
        let mut items = Vec::new();
        while !self.at(T::Eof) {
            let before = self.pos;
            match self.item() {
                Ok(batch) => items.extend(batch),
                Err(()) => self.synchronize(),
            }
            // `synchronize` stops *before* `}` (it must not eat the brace
            // when recovering inside a block), so a stray `}` at top level
            // would otherwise leave the cursor parked and loop forever.
            if self.pos == before && !self.at(T::Eof) {
                self.bump();
            }
        }
        Unit { items, defines }
    }

    fn item(&mut self) -> PResult<Vec<Item>> {
        match self.peek() {
            T::KwIndexSet => Ok(vec![Item::IndexSets(self.index_set_decl()?)]),
            T::KwMap => Ok(vec![Item::Map(self.map_section()?)]),
            T::KwInt | T::KwFloat | T::KwVoid => {
                let ty = self.type_name()?;
                let name = self.ident("a declarator name")?;
                if self.at(T::LParen) {
                    Ok(vec![self.func_rest(ty, name)?])
                } else {
                    let (first, rest) = self.var_decl_rest(ty, name)?;
                    let mut items = vec![Item::Var(first)];
                    items.extend(rest.into_iter().map(Item::Var));
                    Ok(items)
                }
            }
            T::Ident if self.peek2() == T::LParen => {
                // `main() { ... }` — return type defaults to int, as in C.
                let name = self.ident("a function name")?;
                Ok(vec![self.func_rest(Type::Int, name)?])
            }
            _ => self.expected("a declaration"),
        }
    }

    fn type_name(&mut self) -> PResult<Type> {
        let t = self.bump();
        match t.kind {
            T::KwInt => Ok(Type::Int),
            T::KwFloat => Ok(Type::Float),
            T::KwVoid => Ok(Type::Void),
            _ => {
                let msg = format!("expected a type, found {}", self.describe(t));
                self.diags.error(self.prev_span(), msg);
                Err(())
            }
        }
    }

    // ---- declarations -----------------------------------------------------

    fn index_set_decl(&mut self) -> PResult<Vec<IndexSetDef>> {
        self.expect(T::KwIndexSet, "`index_set`")?;
        let mut defs = Vec::new();
        loop {
            let start = self.span();
            let name = self.ident("an index-set name")?.to_string();
            self.expect(T::Colon, "`:` between set and element names")?;
            let elem = self.ident("an element identifier")?.to_string();
            self.expect(T::Assign, "`=` in index-set definition")?;
            let init = if self.eat(T::LBrace) {
                let first = self.expr()?;
                if self.eat(T::DotDot) {
                    let hi = self.expr()?;
                    self.expect(T::RBrace, "`}` after range")?;
                    IndexSetInit::Range(first, hi)
                } else {
                    let mut elems = vec![first];
                    while self.eat(T::Comma) {
                        elems.push(self.expr()?);
                    }
                    self.expect(T::RBrace, "`}` after element list")?;
                    IndexSetInit::List(elems)
                }
            } else {
                IndexSetInit::Alias(self.ident("an index-set name to alias")?.to_string())
            };
            defs.push(IndexSetDef { name, elem, init, span: start.to(self.prev_span()) });
            if !self.eat(T::Comma) {
                break;
            }
        }
        self.expect(T::Semi, "`;` after index-set declaration")?;
        Ok(defs)
    }

    /// Parse the declarators of a variable declaration after `ty name`.
    /// Returns the first declaration plus any further comma declarators.
    fn var_decl_rest(&mut self, ty: Type, name: &str) -> PResult<(VarDecl, Vec<VarDecl>)> {
        let first = self.one_declarator(ty, name)?;
        let mut rest = Vec::new();
        while self.eat(T::Comma) {
            let name = self.ident("a declarator name")?;
            rest.push(self.one_declarator(ty, name)?);
        }
        self.expect(T::Semi, "`;` after declaration")?;
        Ok((first, rest))
    }

    fn one_declarator(&mut self, ty: Type, name: &str) -> PResult<VarDecl> {
        let start = self.prev_span();
        let mut dims = Vec::new();
        while self.eat(T::LBracket) {
            dims.push(self.expr()?);
            self.expect(T::RBracket, "`]` after array extent")?;
        }
        let init = if self.eat(T::Assign) { Some(self.expr()?) } else { None };
        let span = start.to(self.prev_span());
        Ok(VarDecl { ty, name: name.to_string(), dims, init, span, local: 0 })
    }

    fn func_rest(&mut self, ret: Type, name: &str) -> PResult<Item> {
        let start = self.prev_span();
        self.expect(T::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.at(T::RParen) {
            loop {
                let ty = self.type_name()?;
                let pname = self.ident("a parameter name")?;
                params.push((ty, pname.to_string(), self.prev_span()));
                if !self.eat(T::Comma) {
                    break;
                }
            }
        }
        self.expect(T::RParen, "`)` after parameters")?;
        let body = self.block()?;
        let (name, span) = (name.to_string(), start.to(self.prev_span()));
        Ok(Item::Func(FuncDef { ret, name, params, body, span }))
    }

    fn map_section(&mut self) -> PResult<MapSection> {
        let start = self.span();
        self.expect(T::KwMap, "`map`")?;
        let idxs = self.idx_list()?;
        self.expect(T::LBrace, "`{` opening the map section")?;
        let mut decls = Vec::new();
        while !self.at(T::RBrace) && !self.at(T::Eof) {
            let dstart = self.span();
            let t = self.bump();
            let kind = match t.kind {
                T::KwPermute => MapKind::Permute,
                T::KwFold => MapKind::Fold,
                T::KwCopy => MapKind::Copy,
                _ => {
                    let msg = format!(
                        "expected `permute`, `fold` or `copy`, found {}",
                        self.describe(t)
                    );
                    self.diags.error(self.prev_span(), msg);
                    return Err(());
                }
            };
            let idxs = self.idx_list()?;
            let target = self.array_pattern()?;
            self.expect(T::MapsTo, "`:-` between mapping patterns")?;
            let source = self.array_pattern()?;
            self.expect(T::Semi, "`;` after mapping declaration")?;
            let span = dstart.to(self.prev_span());
            decls.push(MapDecl { kind, idxs, target, source, span });
        }
        self.expect(T::RBrace, "`}` closing the map section")?;
        Ok(MapSection { idxs, decls, span: start.to(self.prev_span()) })
    }

    fn array_pattern(&mut self) -> PResult<ArrayPattern> {
        let start = self.span();
        let array = Name::new(self.ident("an array name")?);
        let mut subs = Vec::new();
        while self.eat(T::LBracket) {
            subs.push(self.expr()?);
            self.expect(T::RBracket, "`]`")?;
        }
        Ok(ArrayPattern { array, subs, span: start.to(self.prev_span()) })
    }

    fn idx_list(&mut self) -> PResult<Vec<String>> {
        self.expect(T::LParen, "`(` before index-set list")?;
        let idxs = self.set_names()?;
        self.expect(T::RParen, "`)` after index-set list")?;
        Ok(idxs)
    }

    /// `I, J, ...`: one or more index-set names.
    fn set_names(&mut self) -> PResult<Vec<String>> {
        let mut idxs = vec![self.ident("an index-set name")?.to_string()];
        while self.eat(T::Comma) {
            idxs.push(self.ident("an index-set name")?.to_string());
        }
        Ok(idxs)
    }

    // ---- statements -------------------------------------------------------

    fn block(&mut self) -> PResult<Block> {
        self.expect(T::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while !self.at(T::RBrace) && !self.at(T::Eof) {
            // Parse declarations here (not via `stmt`) so a multi-
            // declarator `int x, y;` contributes every name to *this*
            // block's scope.
            let parsed = match self.peek() {
                T::KwInt | T::KwFloat => self.decl_stmts().map(|ds| stmts.extend(ds)),
                _ => self.stmt().map(|s| stmts.push(s)),
            };
            if parsed.is_err() {
                self.synchronize();
            }
        }
        self.expect(T::RBrace, "`}`")?;
        Ok(Block { stmts })
    }

    /// `int|float declarator (, declarator)* ;` as one `Stmt::Decl` each.
    fn decl_stmts(&mut self) -> PResult<Vec<Stmt>> {
        let ty = self.type_name()?;
        let name = self.ident("a declarator name")?;
        let (first, rest) = self.var_decl_rest(ty, name)?;
        let mut stmts = vec![Stmt::Decl(Box::new(first))];
        stmts.extend(rest.into_iter().map(|v| Stmt::Decl(Box::new(v))));
        Ok(stmts)
    }

    fn stmt(&mut self) -> PResult<Stmt> {
        let span = self.span();
        match self.peek() {
            T::Semi => {
                self.bump();
                Ok(Stmt::Empty)
            }
            T::LBrace => Ok(Stmt::Block(self.block()?)),
            T::KwIndexSet => Ok(Stmt::IndexSets(self.index_set_decl()?)),
            T::KwInt | T::KwFloat => {
                // A declaration in single-statement position (e.g. an
                // unbraced `if` branch): scope it to a synthetic block.
                let mut stmts = self.decl_stmts()?;
                if stmts.len() == 1 {
                    Ok(stmts.pop().unwrap())
                } else {
                    Ok(Stmt::Block(Block { stmts }))
                }
            }
            T::KwGoto => {
                self.diags.error(span, "UC disallows `goto` statements (§3 of the paper)");
                Err(())
            }
            T::KwIf => {
                self.bump();
                self.expect(T::LParen, "`(` after `if`")?;
                let cond = self.expr()?;
                self.expect(T::RParen, "`)` after condition")?;
                let then_branch = Box::new(self.stmt()?);
                let else_branch = if self.eat(T::KwElse) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If { cond, then_branch, else_branch, span })
            }
            T::KwWhile => {
                self.bump();
                self.expect(T::LParen, "`(` after `while`")?;
                let cond = self.expr()?;
                self.expect(T::RParen, "`)` after condition")?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::While { cond, body, span })
            }
            T::KwFor => {
                self.bump();
                self.expect(T::LParen, "`(` after `for`")?;
                let init = if self.at(T::Semi) { None } else { Some(Box::new(self.expr()?)) };
                self.expect(T::Semi, "`;` in for header")?;
                let cond = if self.at(T::Semi) { None } else { Some(Box::new(self.expr()?)) };
                self.expect(T::Semi, "`;` in for header")?;
                let step = if self.at(T::RParen) { None } else { Some(Box::new(self.expr()?)) };
                self.expect(T::RParen, "`)` after for header")?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::For { init, cond, step, body, span })
            }
            T::KwReturn => {
                self.bump();
                let e = if self.at(T::Semi) { None } else { Some(self.expr()?) };
                self.expect(T::Semi, "`;` after return")?;
                Ok(Stmt::Return(e, span))
            }
            T::KwBreak => {
                self.bump();
                self.expect(T::Semi, "`;` after break")?;
                Ok(Stmt::Break(span))
            }
            T::KwContinue => {
                self.bump();
                self.expect(T::Semi, "`;` after continue")?;
                Ok(Stmt::Continue(span))
            }
            T::Star | T::KwPar | T::KwSeq | T::KwSolve | T::KwOneof
                if self.is_uc_stmt_start() =>
            {
                self.uc_stmt()
            }
            _ => {
                let e = self.expr()?;
                self.expect(T::Semi, "`;` after expression statement")?;
                Ok(Stmt::Expr(e))
            }
        }
    }

    /// `*` starts a UC statement only when followed by a construct keyword
    /// (there is no unary deref in UC — pointers are disallowed).
    fn is_uc_stmt_start(&self) -> bool {
        match self.peek() {
            T::KwPar | T::KwSeq | T::KwSolve | T::KwOneof => true,
            T::Star => matches!(
                self.peek2(),
                T::KwPar | T::KwSeq | T::KwSolve | T::KwOneof
            ),
            _ => false,
        }
    }

    fn uc_stmt(&mut self) -> PResult<Stmt> {
        let span = self.span();
        let star = self.eat(T::Star);
        let t = self.bump();
        let kind = match t.kind {
            T::KwPar => UcKind::Par,
            T::KwSeq => UcKind::Seq,
            T::KwSolve => UcKind::Solve,
            T::KwOneof => UcKind::Oneof,
            _ => {
                let msg = format!("expected a UC construct keyword, found {}", self.describe(t));
                self.diags.error(self.prev_span(), msg);
                return Err(());
            }
        };
        let idxs = self.idx_list()?;
        let mut arms = Vec::new();
        let mut others = None;
        if self.at(T::KwSt) {
            while self.eat(T::KwSt) {
                self.expect(T::LParen, "`(` after `st`")?;
                let pred = self.expr()?;
                self.expect(T::RParen, "`)` after predicate")?;
                let body = self.stmt()?;
                arms.push(ScBlock { pred: Some(pred), body });
            }
            if self.eat(T::KwOthers) {
                others = Some(Box::new(self.stmt()?));
            }
        } else {
            let body = self.stmt()?;
            arms.push(ScBlock { pred: None, body });
        }
        Ok(Stmt::Uc(UcStmt {
            kind,
            star,
            idxs,
            sets: Vec::new(),
            elem: 0,
            arms,
            others,
            span: span.to(self.prev_span()),
        }))
    }

    // ---- expressions -------------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.assignment()
    }

    fn assignment(&mut self) -> PResult<Expr> {
        let lhs = self.ternary()?;
        let op = match self.peek() {
            T::Assign => None,
            T::PlusAssign => Some(BinaryOp::Add),
            T::MinusAssign => Some(BinaryOp::Sub),
            T::StarAssign => Some(BinaryOp::Mul),
            T::SlashAssign => Some(BinaryOp::Div),
            T::PercentAssign => Some(BinaryOp::Mod),
            _ => return Ok(lhs),
        };
        let span = self.span();
        self.bump();
        if !matches!(lhs, Expr::Ident(..) | Expr::Index { .. }) {
            self.diags.error(lhs.span(), "assignment target must be a variable or array element");
            return Err(());
        }
        let value = self.assignment()?; // right associative
        Ok(Expr::Assign {
            target: Box::new(lhs),
            op,
            value: Box::new(value),
            span,
        })
    }

    fn ternary(&mut self) -> PResult<Expr> {
        let cond = self.binary(0)?;
        if self.eat(T::Question) {
            let span = self.prev_span();
            let then_e = self.expr()?;
            self.expect(T::Colon, "`:` in conditional expression")?;
            let else_e = self.ternary()?;
            Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_e: Box::new(then_e),
                else_e: Box::new(else_e),
                span,
                value: NO_VALUE,
                float: false,
            })
        } else {
            Ok(cond)
        }
    }

    /// Precedence-climbing binary expression parser (C precedence).
    fn binary(&mut self, min_prec: u8) -> PResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let (op, prec) = match self.peek() {
                T::Star => (BinaryOp::Mul, 10),
                T::Slash => (BinaryOp::Div, 10),
                T::Percent => (BinaryOp::Mod, 10),
                T::Plus => (BinaryOp::Add, 9),
                T::Minus => (BinaryOp::Sub, 9),
                T::Shl => (BinaryOp::Shl, 8),
                T::Shr => (BinaryOp::Shr, 8),
                T::Lt => (BinaryOp::Lt, 7),
                T::Le => (BinaryOp::Le, 7),
                T::Gt => (BinaryOp::Gt, 7),
                T::Ge => (BinaryOp::Ge, 7),
                T::EqEq => (BinaryOp::Eq, 6),
                T::NotEq => (BinaryOp::Ne, 6),
                T::Amp => (BinaryOp::BitAnd, 5),
                T::Caret => (BinaryOp::BitXor, 4),
                T::Pipe => (BinaryOp::BitOr, 3),
                T::AmpAmp => (BinaryOp::LogAnd, 2),
                T::PipePipe => (BinaryOp::LogOr, 1),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            let span = self.span();
            self.bump();
            let rhs = self.binary(prec + 1)?;
            let (l, r) = (Box::new(lhs), Box::new(rhs));
            lhs = Expr::Binary { op, lhs: l, rhs: r, span, value: NO_VALUE };
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> PResult<Expr> {
        let span = self.span();
        match self.peek() {
            T::Minus => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Unary { op: UnaryOp::Neg, expr: Box::new(e), span, value: NO_VALUE })
            }
            T::Bang => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Unary { op: UnaryOp::Not, expr: Box::new(e), span, value: NO_VALUE })
            }
            T::Tilde => {
                self.bump();
                let e = self.unary()?;
                Ok(Expr::Unary { op: UnaryOp::BitNot, expr: Box::new(e), span, value: NO_VALUE })
            }
            T::Plus => {
                self.bump();
                self.unary()
            }
            T::PlusPlus | T::MinusMinus => {
                let op = if self.bump().kind == T::PlusPlus { BinaryOp::Add } else { BinaryOp::Sub };
                let e = self.unary()?;
                self.desugar_incdec(e, op, span)
            }
            _ => self.postfix(),
        }
    }

    fn desugar_incdec(&mut self, e: Expr, op: BinaryOp, span: Span) -> PResult<Expr> {
        if !matches!(e, Expr::Ident(..) | Expr::Index { .. }) {
            self.diags.error(span, "++/-- requires a variable or array element");
            return Err(());
        }
        Ok(Expr::Assign {
            target: Box::new(e),
            op: Some(op),
            value: Box::new(Expr::IntLit(1, span)),
            span,
        })
    }

    fn postfix(&mut self) -> PResult<Expr> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                T::LBracket => {
                    let (name, span) = match e {
                        Expr::Ident(name, span) => (name, span),
                        other => {
                            self.diags
                                .error(other.span(), "only named arrays can be subscripted in UC");
                            return Err(());
                        }
                    };
                    let mut subs = Vec::new();
                    while self.eat(T::LBracket) {
                        subs.push(self.expr()?);
                        self.expect(T::RBracket, "`]`")?;
                    }
                    let span = span.to(self.prev_span());
                    e = Expr::Index { base: name, subs, span, access: 0, borrow: false };
                }
                T::PlusPlus => {
                    let span = self.span();
                    self.bump();
                    e = self.desugar_incdec(e, BinaryOp::Add, span)?;
                }
                T::MinusMinus => {
                    let span = self.span();
                    self.bump();
                    e = self.desugar_incdec(e, BinaryOp::Sub, span)?;
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary(&mut self) -> PResult<Expr> {
        let t = self.cur();
        let span = t.span;
        match t.kind {
            T::IntLit(v) => {
                self.bump();
                Ok(Expr::IntLit(v, span))
            }
            T::FloatLit(v) => {
                self.bump();
                Ok(Expr::FloatLit(v, span))
            }
            T::KwInf => {
                self.bump();
                Ok(Expr::Inf(span))
            }
            T::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(T::RParen, "`)`")?;
                Ok(e)
            }
            T::Reduce(op) => {
                self.bump();
                self.reduction(op, span)
            }
            T::Ident => {
                self.bump();
                let name = self.text(t);
                if self.eat(T::LParen) {
                    let mut args = Vec::new();
                    if !self.at(T::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(T::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(T::RParen, "`)` after arguments")?;
                    Ok(call(name, args, span.to(self.prev_span())))
                } else {
                    Ok(Expr::Ident(Name::new(name), span))
                }
            }
            _ => self.expected("an expression"),
        }
    }

    /// `$op ( I, J  (';' expr | ['st' '(' p ')' expr]+ ) [others expr] )`
    fn reduction(&mut self, op: crate::token::RedOpToken, span: Span) -> PResult<Expr> {
        self.expect(T::LParen, "`(` after reduction operator")?;
        let idxs = self.set_names()?;
        let semi = self.eat(T::Semi);
        let mut arms = Vec::new();
        let mut others = None;
        if self.at(T::KwSt) {
            while self.eat(T::KwSt) {
                self.expect(T::LParen, "`(` after `st`")?;
                let pred = self.expr()?;
                self.expect(T::RParen, "`)` after predicate")?;
                let operand = self.expr()?;
                arms.push((Some(pred), operand));
            }
            if self.eat(T::KwOthers) {
                others = Some(self.expr()?);
            }
        } else {
            if !semi {
                self.diags.error(
                    self.span(),
                    "a simple reduction needs `;` between the index sets and the operand",
                );
            }
            let operand = self.expr()?;
            arms.push((None, operand));
        }
        self.expect(T::RParen, "`)` closing the reduction")?;
        Ok(Expr::Reduce(Box::new(ReduceExpr {
            op,
            idxs,
            sets: Vec::new(),
            arms,
            others,
            span: span.to(self.prev_span()),
            histogram: None,
        })))
    }
}

/// A call of `name`. One of the builtins `abs`/`ABS`, `power2`, `min` and
/// `max` with its number of arguments is an operator node; every other
/// call stays a call, so sema reports a wrong number of arguments.
fn call(name: &str, mut args: Vec<Expr>, span: Span) -> Expr {
    let builtin = Builtin::named(name);
    let unary = |op, mut args: Vec<Expr>| {
        let expr = Box::new(args.pop().expect("one argument"));
        Expr::Unary { op, expr, span, value: NO_VALUE }
    };
    match (builtin, args.len()) {
        (Some(Builtin::Abs), 1) => unary(UnaryOp::Abs, args),
        (Some(Builtin::Power2), 1) => unary(UnaryOp::Power2, args),
        (Some(b @ (Builtin::Min | Builtin::Max)), 2) => {
            let op = if b == Builtin::Min { BinaryOp::Min } else { BinaryOp::Max };
            let rhs = Box::new(args.pop().expect("two arguments"));
            let lhs = Box::new(args.pop().expect("two arguments"));
            Expr::Binary { op, lhs, rhs, span, value: NO_VALUE }
        }
        _ => {
            let callee = builtin.map_or(Callee::Unresolved, Callee::Builtin);
            Expr::Call { name: name.into(), callee, args, span }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> Unit {
        let mut d = Diagnostics::default();
        let u = parse(src, &mut d);
        assert!(u.is_some(), "parse failed: {d}");
        u.unwrap()
    }

    fn parse_err(src: &str) -> Diagnostics {
        let mut d = Diagnostics::default();
        let u = parse(src, &mut d);
        assert!(u.is_none(), "expected parse failure");
        d
    }

    #[test]
    fn index_sets() {
        let u = parse_ok("index_set I:i = {0..9}, J:j = I, K:k = {4,2,9};");
        let Item::IndexSets(defs) = &u.items[0] else { panic!() };
        assert_eq!(defs.len(), 3);
        assert_eq!(defs[0].name, "I");
        assert_eq!(defs[0].elem, "i");
        assert!(matches!(defs[0].init, IndexSetInit::Range(..)));
        assert!(matches!(defs[1].init, IndexSetInit::Alias(ref a) if a == "I"));
        assert!(matches!(defs[2].init, IndexSetInit::List(ref l) if l.len() == 3));
    }

    #[test]
    fn variables_and_functions() {
        let u = parse_ok(
            "#define N 8\nint s, a[N], d[N][N];\nfloat avg;\nmain() { s = 1; }",
        );
        assert_eq!(u.defines, vec![("N".to_string(), 8)]);
        let vars: Vec<_> = u
            .items
            .iter()
            .filter_map(|i| if let Item::Var(v) = i { Some(v) } else { None })
            .collect();
        assert_eq!(vars.len(), 4);
        assert_eq!(vars[1].dims.len(), 1);
        assert_eq!(vars[2].dims.len(), 2);
        assert!(matches!(u.items.last(), Some(Item::Func(f)) if f.name == "main"));
    }

    #[test]
    fn par_with_predicate() {
        let u = parse_ok(
            "index_set I:i = {0..9};\nint a[10];\nmain() { par (I) st (a[i] != 0) a[i] = 1; }",
        );
        let Item::Func(f) = u.items.last().unwrap() else { panic!() };
        let Stmt::Uc(uc) = &f.body.stmts[0] else { panic!() };
        assert_eq!(uc.kind, UcKind::Par);
        assert!(!uc.star);
        assert_eq!(uc.idxs, vec!["I"]);
        assert_eq!(uc.arms.len(), 1);
        assert!(uc.arms[0].pred.is_some());
        assert!(uc.others.is_none());
    }

    #[test]
    fn par_with_others_and_multiple_arms() {
        let u = parse_ok(
            "index_set I:i = {0..9};\nint a[10];\nmain() {\n par (I)\n st (i%2==1) a[i] = 0;\n others a[i] = 1;\n}",
        );
        let Item::Func(f) = u.items.last().unwrap() else { panic!() };
        let Stmt::Uc(uc) = &f.body.stmts[0] else { panic!() };
        assert_eq!(uc.arms.len(), 1);
        assert!(uc.others.is_some());
    }

    #[test]
    fn starred_constructs() {
        let u = parse_ok(
            "index_set I:i = {0..9};\nint x[10];\nmain() {\n *oneof (I)\n st (i%2==0 && x[i]>x[i+1]) swap(x[i], x[i+1]);\n st (i%2!=0 && x[i]>x[i+1]) swap(x[i], x[i+1]);\n}",
        );
        let Item::Func(f) = u.items.last().unwrap() else { panic!() };
        let Stmt::Uc(uc) = &f.body.stmts[0] else { panic!() };
        assert_eq!(uc.kind, UcKind::Oneof);
        assert!(uc.star);
        assert_eq!(uc.arms.len(), 2);
    }

    #[test]
    fn reductions() {
        let u = parse_ok(
            "index_set I:i = {0..9}, J:j = I;\nint a[10], s;\nmain() {\n s = $+(I; a[i]);\n s = $<(I st (a[i]==0) i);\n s = $+(I st (a[i]>0) a[i] others -a[i]);\n s = $>(J st (a[j]==$>(J; a[j])) j);\n}",
        );
        let Item::Func(f) = u.items.last().unwrap() else { panic!() };
        assert_eq!(f.body.stmts.len(), 4);
        let Stmt::Expr(Expr::Assign { value, .. }) = &f.body.stmts[2] else { panic!() };
        let Expr::Reduce(r) = value.as_ref() else { panic!() };
        assert!(r.others.is_some());
    }

    #[test]
    fn solve_and_ternary() {
        let u = parse_ok(
            "#define N 4\nindex_set I:i = {0..N-1}, J:j = I;\nint a[N][N];\nmain() {\n solve (I,J) a[i][j] = (i==0 || j==0) ? 1 : a[i-1][j] + a[i-1][j-1] + a[i][j-1];\n}",
        );
        let Item::Func(f) = u.items.last().unwrap() else { panic!() };
        let Stmt::Uc(uc) = &f.body.stmts[0] else { panic!() };
        assert_eq!(uc.kind, UcKind::Solve);
        assert_eq!(uc.idxs.len(), 2);
    }

    #[test]
    fn nested_seq_in_par() {
        let u = parse_ok(
            "#define N 8\n#define LOGN 3\nindex_set I:i = {0..N-1}, J:j = {0..LOGN-1};\nint a[N];\nmain() {\n par (I) {\n  a[i] = i;\n  seq (J) st (i - power2(j) >= 0)\n   a[i] = a[i] + a[i - power2(j)];\n }\n}",
        );
        let Item::Func(f) = u.items.last().unwrap() else { panic!() };
        let Stmt::Uc(uc) = &f.body.stmts[0] else { panic!() };
        let Stmt::Block(b) = &uc.arms[0].body else { panic!() };
        assert!(matches!(&b.stmts[1], Stmt::Uc(inner) if inner.kind == UcKind::Seq));
    }

    #[test]
    fn map_sections() {
        let u = parse_ok(
            "index_set I:i = {0..9};\nint a[10], b[10];\nmap (I) {\n permute (I) b[i+1] :- a[i];\n copy (I) a[i] :- a[i];\n}",
        );
        let Item::Map(m) = u.items.last().unwrap() else { panic!() };
        assert_eq!(m.decls.len(), 2);
        assert_eq!(m.decls[0].kind, MapKind::Permute);
        assert_eq!(&*m.decls[0].target.array.text, "b");
        assert_eq!(&*m.decls[0].source.array.text, "a");
    }

    #[test]
    fn goto_rejected() {
        let d = parse_err("main() { goto end; }");
        assert!(d.to_string().contains("goto"));
    }

    #[test]
    fn control_flow_statements() {
        let u = parse_ok(
            "main() { int i; for (i = 0; i < 4; i++) { if (i == 2) continue; else i += 1; } while (i > 0) i--; return 0; }",
        );
        let Item::Func(f) = u.items.last().unwrap() else { panic!() };
        assert!(matches!(f.body.stmts[1], Stmt::For { .. }));
    }

    #[test]
    fn error_recovery_collects_multiple() {
        let d = parse_err("int a[;\nint b(;\n");
        assert!(d.items.len() >= 2);
    }

    #[test]
    fn precedence() {
        let u = parse_ok("main() { int x; x = 1 + 2 * 3 == 7 && 1; }");
        let Item::Func(f) = u.items.last().unwrap() else { panic!() };
        let Stmt::Expr(Expr::Assign { value, .. }) = &f.body.stmts[1] else { panic!() };
        // Top node must be `&&`.
        let Expr::Binary { op: BinaryOp::LogAnd, .. } = value.as_ref() else {
            panic!("expected && at top, got {value:?}")
        };
    }
}
