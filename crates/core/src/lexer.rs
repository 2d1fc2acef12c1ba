//! The UC lexer.
//!
//! Hand-written scanner producing a token vector. Handles C and C++
//! comments, `#define NAME <integer>` directives (the only preprocessor
//! feature the paper's programs use — they configure problem sizes with
//! it), decimal/float literals, and the `$op` reduction sigils.
//!
//! A word is a slice of the source: keywords and `#define` names are
//! matched on it, and an identifier token keeps only its span, whose
//! source slice is its text. Lexing allocates the token vector and the
//! defines table, nothing per token.

use crate::diag::Diagnostics;
use crate::span::Span;
use crate::token::{RedOpToken, Token, TokenKind};

/// Output of lexing: tokens plus the `#define` constant table.
#[derive(Debug, Clone)]
pub struct LexOutput {
    pub tokens: Vec<Token>,
    /// `#define` name → integer value, in source order.
    pub defines: Vec<(String, i64)>,
}

/// Lex UC source. Lexical errors are reported in `diags`; scanning
/// continues so later errors are also found.
pub fn lex(src: &str, diags: &mut Diagnostics) -> LexOutput {
    Lexer { src, pos: 0, line: 1, col: 1, diags }.run()
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
    diags: &'a mut Diagnostics,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> LexOutput {
        let mut tokens = Vec::new();
        let mut defines = Vec::new();
        loop {
            self.skip_trivia();
            let start = self.pos;
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else {
                tokens.push(Token {
                    kind: TokenKind::Eof,
                    span: Span::new(start, start, line, col),
                });
                break;
            };
            match c {
                b'#' => {
                    if let Some((name, value)) = self.directive() {
                        defines.push((name.to_string(), value));
                    }
                }
                b'0'..=b'9' => {
                    let kind = self.number();
                    tokens.push(self.tok(kind, start, line, col));
                }
                b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                    let kind = self.ident();
                    tokens.push(self.tok(kind, start, line, col));
                }
                b'$' => {
                    self.bump();
                    let kind = match self.peek() {
                        Some(b'+') => {
                            self.bump();
                            TokenKind::Reduce(RedOpToken::Add)
                        }
                        Some(b'*') => {
                            self.bump();
                            TokenKind::Reduce(RedOpToken::Mul)
                        }
                        Some(b'>') => {
                            self.bump();
                            TokenKind::Reduce(RedOpToken::Max)
                        }
                        Some(b'<') => {
                            self.bump();
                            TokenKind::Reduce(RedOpToken::Min)
                        }
                        Some(b'^') => {
                            self.bump();
                            TokenKind::Reduce(RedOpToken::Xor)
                        }
                        Some(b',') => {
                            self.bump();
                            TokenKind::Reduce(RedOpToken::Arb)
                        }
                        Some(b'&') => {
                            self.bump();
                            if self.peek() == Some(b'&') {
                                self.bump();
                            } else {
                                self.diags.error(
                                    Span::new(start, self.pos, line, col),
                                    "expected `$&&` (logical-and reduction)",
                                );
                            }
                            TokenKind::Reduce(RedOpToken::And)
                        }
                        Some(b'|') => {
                            self.bump();
                            if self.peek() == Some(b'|') {
                                self.bump();
                            } else {
                                self.diags.error(
                                    Span::new(start, self.pos, line, col),
                                    "expected `$||` (logical-or reduction)",
                                );
                            }
                            TokenKind::Reduce(RedOpToken::Or)
                        }
                        _ => {
                            self.diags.error(
                                Span::new(start, self.pos, line, col),
                                "`$` must be followed by a reduction operator (+ * && || > < ^ ,)",
                            );
                            continue;
                        }
                    };
                    tokens.push(self.tok(kind, start, line, col));
                }
                _ => {
                    if let Some(kind) = self.punct() {
                        tokens.push(self.tok(kind, start, line, col));
                    }
                }
            }
        }
        LexOutput { tokens, defines }
    }

    fn tok(&self, kind: TokenKind, start: usize, line: u32, col: u32) -> Token {
        Token { kind, span: Span::new(start, self.pos, line, col) }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    fn bump(&mut self) {
        if let Some(&c) = self.src.as_bytes().get(self.pos) {
            self.pos += 1;
            if c == b'\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
    }

    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => self.bump(),
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    let (line, col, start) = (self.line, self.col, self.pos);
                    self.bump();
                    self.bump();
                    let mut closed = false;
                    while let Some(c) = self.peek() {
                        if c == b'*' && self.peek2() == Some(b'/') {
                            self.bump();
                            self.bump();
                            closed = true;
                            break;
                        }
                        self.bump();
                    }
                    if !closed {
                        self.diags.error(
                            Span::new(start, self.pos, line, col),
                            "unterminated block comment",
                        );
                    }
                }
                _ => break,
            }
        }
    }

    /// `#define NAME <integer>`; other directives are reported as errors.
    fn directive(&mut self) -> Option<(&'a str, i64)> {
        let (line, col, start) = (self.line, self.col, self.pos);
        self.bump(); // '#'
        let word = self.word();
        if word != "define" {
            self.diags.error(
                Span::new(start, self.pos, line, col),
                format!("unsupported preprocessor directive `#{word}` (only #define NAME <int>)"),
            );
            self.skip_to_eol();
            return None;
        }
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.bump();
        }
        let name = self.word();
        if name.is_empty() {
            self.diags.error(Span::new(start, self.pos, line, col), "#define needs a name");
            self.skip_to_eol();
            return None;
        }
        if TokenKind::keyword(name).is_some() {
            // The lexer would keep producing the keyword token, so the
            // constant could never be referenced.
            self.diags.error(
                Span::new(start, self.pos, line, col),
                format!("#define {name}: `{name}` is a reserved word"),
            );
            self.skip_to_eol();
            return None;
        }
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.bump();
        }
        let digits = self.pos;
        if self.peek() == Some(b'-') {
            self.bump();
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        let digits = &self.src[digits..self.pos];
        self.skip_to_eol();
        match digits.parse::<i64>() {
            Ok(v) => Some((name, v)),
            Err(_) => {
                self.diags.error(
                    Span::new(start, self.pos, line, col),
                    format!("#define {name}: expected an integer value"),
                );
                None
            }
        }
    }

    fn skip_to_eol(&mut self) {
        while let Some(c) = self.peek() {
            if c == b'\n' {
                break;
            }
            self.bump();
        }
    }

    /// The identifier-shaped word at the cursor (possibly empty), as a
    /// slice of the source.
    fn word(&mut self) -> &'a str {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.bump();
        }
        &self.src[start..self.pos]
    }

    fn number(&mut self) -> TokenKind {
        let (start, line, col) = (self.pos, self.line, self.col);
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.bump();
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') && matches!(self.peek2(), Some(c) if c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.bump();
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            let save = (self.pos, self.col);
            self.bump();
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.bump();
            }
            if matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                is_float = true;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.bump();
                }
            } else {
                (self.pos, self.col) = save; // not an exponent: `e` starts an ident
            }
        }
        let text = &self.src[start..self.pos];
        if is_float {
            return TokenKind::FloatLit(text.parse().unwrap_or(0.0));
        }
        // Only digits: the parse fails on overflow alone.
        TokenKind::IntLit(text.parse().unwrap_or_else(|_| {
            self.diags.error(
                Span::new(start, self.pos, line, col),
                "integer literal does not fit in 64 bits",
            );
            0
        }))
    }

    fn ident(&mut self) -> TokenKind {
        TokenKind::keyword(self.word()).unwrap_or(TokenKind::Ident)
    }

    fn punct(&mut self) -> Option<TokenKind> {
        use TokenKind::*;
        let (line, col, start) = (self.line, self.col, self.pos);
        let c = self.peek()?;
        self.bump();
        let two = |l: &mut Self, next: u8, yes: TokenKind, no: TokenKind| {
            if l.peek() == Some(next) {
                l.bump();
                yes
            } else {
                no
            }
        };
        Some(match c {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'?' => Question,
            b':' => two(self, b'-', MapsTo, Colon),
            b'.' => {
                if self.peek() == Some(b'.') {
                    self.bump();
                    DotDot
                } else {
                    self.diags.error(
                        Span::new(start, self.pos, line, col),
                        "stray `.` (ranges are written `{lo..hi}`)",
                    );
                    return None;
                }
            }
            b'=' => two(self, b'=', EqEq, Assign),
            b'!' => two(self, b'=', NotEq, Bang),
            b'<' => {
                if self.peek() == Some(b'<') {
                    self.bump();
                    Shl
                } else {
                    two(self, b'=', Le, Lt)
                }
            }
            b'>' => {
                if self.peek() == Some(b'>') {
                    self.bump();
                    Shr
                } else {
                    two(self, b'=', Ge, Gt)
                }
            }
            b'+' => {
                if self.peek() == Some(b'+') {
                    self.bump();
                    PlusPlus
                } else {
                    two(self, b'=', PlusAssign, Plus)
                }
            }
            b'-' => {
                if self.peek() == Some(b'-') {
                    self.bump();
                    MinusMinus
                } else {
                    two(self, b'=', MinusAssign, Minus)
                }
            }
            b'*' => two(self, b'=', StarAssign, Star),
            b'/' => two(self, b'=', SlashAssign, Slash),
            b'%' => two(self, b'=', PercentAssign, Percent),
            b'&' => two(self, b'&', AmpAmp, Amp),
            b'|' => two(self, b'|', PipePipe, Pipe),
            b'^' => Caret,
            b'~' => Tilde,
            _ => {
                // One error for the whole character, however many bytes
                // it takes: `start` is a character boundary, since only
                // this arm consumes a non-ASCII byte outside a comment.
                let other = self.src[start..].chars().next().expect("a byte was peeked");
                self.pos = start + other.len_utf8();
                self.diags.error(
                    Span::new(start, self.pos, line, col),
                    format!("unexpected character `{other}`"),
                );
                return None;
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind::*;

    /// Each token but `Eof`, with the source text its span covers.
    fn lexemes(src: &str) -> Vec<(TokenKind, &str)> {
        let mut d = Diagnostics::default();
        let out = lex(src, &mut d);
        assert!(!d.has_errors(), "unexpected lex errors: {d}");
        let text = |t: &Token| &src[t.span.start..t.span.end];
        out.tokens.iter().filter(|t| t.kind != Eof).map(|t| (t.kind, text(t))).collect()
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        lexemes(src).into_iter().map(|(k, _)| k).collect()
    }

    /// The text of each identifier, read through its span.
    fn idents(src: &str) -> Vec<&str> {
        lexemes(src).into_iter().filter(|(k, _)| *k == Ident).map(|(_, t)| t).collect()
    }

    #[test]
    fn lexes_index_set_declaration() {
        let src = "index_set I:i = {0..N-1}, idx2:j = {4,2,9};";
        assert_eq!(idents(src), ["I", "i", "N", "idx2", "j"]);
        let ks = kinds(src);
        assert_eq!(
            ks,
            vec![
                KwIndexSet,
                Ident,
                Colon,
                Ident,
                Assign,
                LBrace,
                IntLit(0),
                DotDot,
                Ident,
                Minus,
                IntLit(1),
                RBrace,
                Comma,
                Ident,
                Colon,
                Ident,
                Assign,
                LBrace,
                IntLit(4),
                Comma,
                IntLit(2),
                Comma,
                IntLit(9),
                RBrace,
                Semi,
            ]
        );
    }

    #[test]
    fn lexes_reductions() {
        let ks = kinds("$+ $* $&& $|| $> $< $^ $,");
        use crate::token::RedOpToken::*;
        assert_eq!(
            ks,
            vec![
                Reduce(Add),
                Reduce(Mul),
                Reduce(And),
                Reduce(Or),
                Reduce(Max),
                Reduce(Min),
                Reduce(Xor),
                Reduce(Arb),
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(kinds("42 3.5 1e3 2E-2 7"), vec![
            IntLit(42),
            FloatLit(3.5),
            FloatLit(1000.0),
            FloatLit(0.02),
            IntLit(7)
        ]);
    }

    #[test]
    fn number_then_ident_e() {
        // `3element` lexes as 3 then `element` (error-free split).
        assert_eq!(lexemes("3 elements"), [(IntLit(3), "3"), (Ident, "elements")]);
    }

    #[test]
    fn defines_collected() {
        let mut d = Diagnostics::default();
        let out = lex("#define N 32\n#define LOGN 5\nint a[N];", &mut d);
        assert!(!d.has_errors());
        assert_eq!(out.defines, vec![("N".to_string(), 32), ("LOGN".to_string(), 5)]);
        assert!(out.tokens.iter().any(|t| t.kind == KwInt));
    }

    #[test]
    fn define_of_reserved_word_rejected() {
        for word in ["INF", "par", "int"] {
            let mut d = Diagnostics::default();
            let out = lex(&format!("#define {word} 9999\nint a[4];"), &mut d);
            assert!(d.to_string().contains("reserved word"), "{word}: {d}");
            assert!(out.defines.is_empty());
        }
    }

    #[test]
    fn comments_skipped() {
        assert_eq!(idents("a /* inline */ b // trailing\nc"), ["a", "b", "c"]);
        assert_eq!(kinds("a /* inline */ b // trailing\nc"), [Ident, Ident, Ident]);
    }

    #[test]
    fn maps_to_vs_colon() {
        assert_eq!(lexemes("a :- b : c"), [
            (Ident, "a"),
            (MapsTo, ":-"),
            (Ident, "b"),
            (Colon, ":"),
            (Ident, "c")
        ]);
    }

    #[test]
    fn operators() {
        let ks = kinds("a += b << 2 && c || !d ^ ~e % 3 != f >= g <= h");
        assert!(ks.contains(&PlusAssign));
        assert!(ks.contains(&Shl));
        assert!(ks.contains(&AmpAmp));
        assert!(ks.contains(&PipePipe));
        assert!(ks.contains(&Bang));
        assert!(ks.contains(&Caret));
        assert!(ks.contains(&Tilde));
        assert!(ks.contains(&NotEq));
        assert!(ks.contains(&Ge));
        assert!(ks.contains(&Le));
    }

    #[test]
    fn errors_reported() {
        let mut d = Diagnostics::default();
        lex("int a @ b;", &mut d);
        assert!(d.has_errors());
        let mut d = Diagnostics::default();
        lex("/* never closed", &mut d);
        assert!(d.has_errors());
        let mut d = Diagnostics::default();
        lex("#include <stdio.h>", &mut d);
        assert!(d.has_errors());
        let mut d = Diagnostics::default();
        lex("$#", &mut d);
        assert!(d.has_errors());
    }

    #[test]
    fn a_keyword_is_no_identifier_and_a_longer_word_is() {
        assert_eq!(lexemes("par parx int_ INF"), [
            (KwPar, "par"),
            (Ident, "parx"),
            (Ident, "int_"),
            (KwInf, "INF")
        ]);
    }

    #[test]
    fn an_overflowing_integer_literal_is_one_spanned_error() {
        let src = "x = 99999999999999999999;";
        let mut d = Diagnostics::default();
        lex(src, &mut d);
        assert_eq!(d.items.len(), 1, "{d}");
        assert!(d.items[0].message.contains("does not fit in 64 bits"), "{d}");
        let span = d.items[0].span;
        assert_eq!(&src[span.start..span.end], "99999999999999999999");
        assert_eq!(kinds("9223372036854775807"), [IntLit(i64::MAX)]);
    }

    #[test]
    fn a_non_ascii_character_is_one_error_naming_it() {
        let src = "int x\u{e9};";
        let mut d = Diagnostics::default();
        let out = lex(src, &mut d);
        assert_eq!(d.items.len(), 1, "{d}");
        assert_eq!(d.items[0].message, "unexpected character `\u{e9}`");
        let span = d.items[0].span;
        assert_eq!((&src[span.start..span.end], span.col), ("\u{e9}", 6));
        // Scanning goes on after the whole character.
        assert_eq!(out.tokens.iter().map(|t| t.kind).collect::<Vec<_>>(), [KwInt, Ident, Semi, Eof]);
    }

    #[test]
    fn a_failed_exponent_leaves_the_column_where_the_ident_starts() {
        let mut d = Diagnostics::default();
        for (src, ident) in [("x = 3ex;", "ex"), ("x = 3e-y;", "e"), ("x = 3.5E+z;", "E")] {
            let out = lex(src, &mut d);
            let t = out.tokens[3];
            assert_eq!((t.kind, &src[t.span.start..t.span.end]), (Ident, ident), "{src}");
            assert_eq!(t.span.col as usize, t.span.start + 1, "{src}");
        }
        assert!(!d.has_errors(), "{d}");
    }

    #[test]
    fn spans_track_lines() {
        let mut d = Diagnostics::default();
        let out = lex("a\n  b", &mut d);
        assert_eq!(out.tokens[0].span.line, 1);
        assert_eq!(out.tokens[1].span.line, 2);
        assert_eq!(out.tokens[1].span.col, 3);
    }
}
