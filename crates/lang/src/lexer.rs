//! Tokenizer for the `.jir` surface syntax.
//!
//! Tokens borrow their identifiers from the source text (`Token<'src>`),
//! so lexing allocates the token vector and nothing per token.

use crate::error::{LangError, Location};

/// A lexical token kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind<'src> {
    /// `class`
    KwClass,
    /// `field`
    KwField,
    /// `method`
    KwMethod,
    /// `static`
    KwStatic,
    /// `new`
    KwNew,
    /// `return`
    KwReturn,
    /// `throw`
    KwThrow,
    /// `catch`
    KwCatch,
    /// `entry`
    KwEntry,
    /// An identifier (`[A-Za-z_$][A-Za-z0-9_$]*`), borrowed from the
    /// source.
    Ident(&'src str),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `=`
    Eq,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// End of input.
    Eof,
}

impl TokenKind<'_> {
    /// A short display form used in parse-error messages.
    pub fn describe(&self) -> String {
        match self {
            TokenKind::Ident(s) => format!("identifier `{s}`"),
            TokenKind::KwClass => "`class`".into(),
            TokenKind::KwField => "`field`".into(),
            TokenKind::KwMethod => "`method`".into(),
            TokenKind::KwStatic => "`static`".into(),
            TokenKind::KwNew => "`new`".into(),
            TokenKind::KwReturn => "`return`".into(),
            TokenKind::KwThrow => "`throw`".into(),
            TokenKind::KwCatch => "`catch`".into(),
            TokenKind::KwEntry => "`entry`".into(),
            TokenKind::LBrace => "`{`".into(),
            TokenKind::RBrace => "`}`".into(),
            TokenKind::LParen => "`(`".into(),
            TokenKind::RParen => "`)`".into(),
            TokenKind::Eq => "`=`".into(),
            TokenKind::Semi => "`;`".into(),
            TokenKind::Comma => "`,`".into(),
            TokenKind::Colon => "`:`".into(),
            TokenKind::Dot => "`.`".into(),
            TokenKind::Eof => "end of input".into(),
        }
    }
}

/// A token with its source location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'src> {
    /// What was lexed.
    pub kind: TokenKind<'src>,
    /// Where it starts.
    pub location: Location,
}

/// Tokenizes `source`. `//` line comments and `/* */` block comments are
/// skipped.
///
/// # Errors
///
/// Returns [`LangError::Lex`] on an unexpected character or unterminated
/// block comment.
pub fn lex(source: &str) -> Result<Vec<Token<'_>>, LangError> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! bump {
        () => {{
            if bytes[i] == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        let loc = Location { line, column: col };
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => bump!(),
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    bump!();
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                bump!();
                bump!();
                let mut closed = false;
                while i + 1 < bytes.len() {
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        bump!();
                        bump!();
                        closed = true;
                        break;
                    }
                    bump!();
                }
                if !closed {
                    return Err(LangError::Lex {
                        location: loc,
                        message: "unterminated block comment".into(),
                    });
                }
            }
            b'{' | b'}' | b'(' | b')' | b'=' | b';' | b',' | b':' | b'.' => {
                let kind = match c {
                    b'{' => TokenKind::LBrace,
                    b'}' => TokenKind::RBrace,
                    b'(' => TokenKind::LParen,
                    b')' => TokenKind::RParen,
                    b'=' => TokenKind::Eq,
                    b';' => TokenKind::Semi,
                    b',' => TokenKind::Comma,
                    b':' => TokenKind::Colon,
                    _ => TokenKind::Dot,
                };
                tokens.push(Token {
                    kind,
                    location: loc,
                });
                bump!();
            }
            c if c.is_ascii_alphabetic() || c == b'_' || c == b'$' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b'$')
                {
                    bump!();
                }
                let word = &source[start..i];
                let kind = match word {
                    "class" => TokenKind::KwClass,
                    "field" => TokenKind::KwField,
                    "method" => TokenKind::KwMethod,
                    "static" => TokenKind::KwStatic,
                    "new" => TokenKind::KwNew,
                    "return" => TokenKind::KwReturn,
                    "throw" => TokenKind::KwThrow,
                    "catch" => TokenKind::KwCatch,
                    "entry" => TokenKind::KwEntry,
                    _ => TokenKind::Ident(word),
                };
                tokens.push(Token {
                    kind,
                    location: loc,
                });
            }
            other => {
                return Err(LangError::Lex {
                    location: loc,
                    message: format!("unexpected character {:?}", other as char),
                });
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        location: Location { line, column: col },
    });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_keywords_and_idents() {
        assert_eq!(
            kinds("class Foo : Bar {"),
            vec![
                TokenKind::KwClass,
                TokenKind::Ident("Foo"),
                TokenKind::Colon,
                TokenKind::Ident("Bar"),
                TokenKind::LBrace,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            kinds("x // comment\n/* multi\nline */ = y;"),
            vec![
                TokenKind::Ident("x"),
                TokenKind::Eq,
                TokenKind::Ident("y"),
                TokenKind::Semi,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn tracks_locations() {
        let toks = lex("a\n  b").unwrap();
        assert_eq!(toks[0].location, Location { line: 1, column: 1 });
        assert_eq!(toks[1].location, Location { line: 2, column: 3 });
    }

    #[test]
    fn rejects_unknown_characters() {
        let err = lex("a # b").unwrap_err();
        assert!(matches!(err, LangError::Lex { .. }));
        assert!(err.to_string().contains("1:3"));
    }

    #[test]
    fn rejects_unterminated_block_comment() {
        assert!(matches!(lex("/* oops"), Err(LangError::Lex { .. })));
    }

    #[test]
    fn dollar_names_are_identifiers() {
        assert_eq!(
            kinds("$ret x$1"),
            vec![
                TokenKind::Ident("$ret"),
                TokenKind::Ident("x$1"),
                TokenKind::Eof
            ]
        );
    }
}
