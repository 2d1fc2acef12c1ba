//! Token kinds of the UC language.
//!
//! UC is "a simple enhancement of C": C's expression and statement tokens,
//! plus the keywords `index_set`, `par`, `seq`, `solve`, `oneof`, `st`,
//! `others`, `map`, `permute`, `fold`, `copy`, and the reduction sigil `$`.
//! `goto` is recognised so the parser can reject it with a proper message.
//!
//! A token carries no text: an identifier's spelling is the source slice
//! its span covers (`&src[span.start..span.end]`), so tokens are `Copy`
//! and lexing allocates nothing per token.

use crate::span::Span;

/// A lexed token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    pub kind: TokenKind,
    pub span: Span,
}

/// All UC token kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TokenKind {
    // Literals and identifiers
    IntLit(i64),
    FloatLit(f64),
    /// An identifier; its text is the source its token's span covers.
    Ident,

    // Keywords
    KwIndexSet,
    KwInt,
    KwFloat,
    KwVoid,
    KwIf,
    KwElse,
    KwWhile,
    KwFor,
    KwReturn,
    KwBreak,
    KwContinue,
    KwPar,
    KwSeq,
    KwSolve,
    KwOneof,
    KwSt,
    KwOthers,
    KwMap,
    KwPermute,
    KwFold,
    KwCopy,
    KwGoto,
    KwInf,
    KwDefine,

    // Punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Colon,
    Question,
    DotDot,
    /// `:-` — the map-section alignment operator.
    MapsTo,
    /// `$` followed by a reduction operator, e.g. `$+`, `$<`, `$,`.
    Reduce(RedOpToken),

    // Operators
    Assign,
    PlusAssign,
    MinusAssign,
    StarAssign,
    SlashAssign,
    PercentAssign,
    Star,
    Slash,
    Percent,
    Plus,
    Minus,
    PlusPlus,
    MinusMinus,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    EqEq,
    NotEq,
    Amp,
    Caret,
    Pipe,
    AmpAmp,
    PipePipe,
    Bang,
    Tilde,

    Eof,
}

/// The operator of a reduction expression (`$+`, `$*`, `$&&`, `$||`,
/// `$>` = max, `$<` = min, `$^` = logical xor, `$,` = arbitrary).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RedOpToken {
    Add,
    Mul,
    And,
    Or,
    Max,
    Min,
    Xor,
    Arb,
}

impl RedOpToken {
    pub fn symbol(self) -> &'static str {
        match self {
            RedOpToken::Add => "$+",
            RedOpToken::Mul => "$*",
            RedOpToken::And => "$&&",
            RedOpToken::Or => "$||",
            RedOpToken::Max => "$>",
            RedOpToken::Min => "$<",
            RedOpToken::Xor => "$^",
            RedOpToken::Arb => "$,",
        }
    }
}

impl std::fmt::Display for RedOpToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.symbol())
    }
}

impl TokenKind {
    /// Keyword lookup for an identifier-shaped lexeme.
    pub fn keyword(s: &str) -> Option<TokenKind> {
        Some(match s {
            "index_set" => TokenKind::KwIndexSet,
            "int" => TokenKind::KwInt,
            "float" | "double" => TokenKind::KwFloat,
            "void" => TokenKind::KwVoid,
            "if" => TokenKind::KwIf,
            "else" => TokenKind::KwElse,
            "while" => TokenKind::KwWhile,
            "for" => TokenKind::KwFor,
            "return" => TokenKind::KwReturn,
            "break" => TokenKind::KwBreak,
            "continue" => TokenKind::KwContinue,
            "par" => TokenKind::KwPar,
            "seq" => TokenKind::KwSeq,
            "solve" => TokenKind::KwSolve,
            "oneof" => TokenKind::KwOneof,
            "st" => TokenKind::KwSt,
            "others" => TokenKind::KwOthers,
            "map" => TokenKind::KwMap,
            "permute" => TokenKind::KwPermute,
            "fold" => TokenKind::KwFold,
            "copy" => TokenKind::KwCopy,
            "goto" => TokenKind::KwGoto,
            "INF" => TokenKind::KwInf,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keywords_resolve() {
        assert_eq!(TokenKind::keyword("par"), Some(TokenKind::KwPar));
        assert_eq!(TokenKind::keyword("index_set"), Some(TokenKind::KwIndexSet));
        assert_eq!(TokenKind::keyword("double"), Some(TokenKind::KwFloat));
        assert_eq!(TokenKind::keyword("INF"), Some(TokenKind::KwInf));
        assert_eq!(TokenKind::keyword("banana"), None);
    }

    #[test]
    fn red_op_display() {
        assert_eq!(RedOpToken::Add.to_string(), "$+");
        assert_eq!(RedOpToken::Arb.to_string(), "$,");
        assert_eq!(RedOpToken::Min.to_string(), "$<");
    }
}
