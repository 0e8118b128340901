//! SQL lexer.

use std::fmt;

use crate::ast::LiteralClass;
use crate::{Result, SqlError};

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Token {
    /// Keyword or identifier (keywords are recognised by the parser, not the lexer,
    /// except that the lexer upper-cases nothing — the raw text is preserved).
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Decimal literal: scaled units and scale (e.g. `12.34` → units 1234, scale 2).
    Decimal(i64, u8),
    /// Single-quoted string literal (quotes stripped, `''` unescaped).
    Str(String),
    /// A numbered statement parameter, `$i`.
    Param(usize),
    /// Slot `i` of a lifted literal of the given class (never lexed from
    /// text: [`crate::lift::lift_literals`] puts it in place of the
    /// literal). It parses as the parameter `$i`.
    Slot(usize, LiteralClass),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Int(v) => write!(f, "{v}"),
            Token::Decimal(units, scale) => {
                let div = 10i64.pow(u32::from(*scale));
                write!(
                    f,
                    "{}.{:0width$}",
                    units / div,
                    (units % div).abs(),
                    width = *scale as usize
                )
            }
            Token::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Token::Param(i) | Token::Slot(i, _) => write!(f, "${i}"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Semicolon => write!(f, ";"),
            Token::Dot => write!(f, "."),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::Eq => write!(f, "="),
            Token::NotEq => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::LtEq => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::GtEq => write!(f, ">="),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// Streaming lexer over a SQL string.
pub struct Lexer<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `input`.
    pub fn new(input: &'a str) -> Self {
        Lexer {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    /// Tokenises the whole input.
    pub fn tokenize(mut self) -> Result<Vec<Token>> {
        let mut tokens = Vec::new();
        loop {
            let token = self.next_token()?;
            let done = token == Token::Eof;
            tokens.push(token);
            if done {
                return Ok(tokens);
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn peek_at(&self, offset: usize) -> Option<u8> {
        self.input.get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_whitespace_and_comments(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                // `--` line comment
                Some(b'-') if self.peek_at(1) == Some(b'-') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    fn next_token(&mut self) -> Result<Token> {
        self.skip_whitespace_and_comments();
        let start = self.pos;
        let c = match self.bump() {
            None => return Ok(Token::Eof),
            Some(c) => c,
        };
        match c {
            b'(' => Ok(Token::LParen),
            b')' => Ok(Token::RParen),
            b',' => Ok(Token::Comma),
            b';' => Ok(Token::Semicolon),
            b'.' => Ok(Token::Dot),
            b'*' => Ok(Token::Star),
            b'+' => Ok(Token::Plus),
            b'-' => Ok(Token::Minus),
            b'/' => Ok(Token::Slash),
            b'%' => Ok(Token::Percent),
            b'=' => Ok(Token::Eq),
            b'!' if self.peek() == Some(b'=') => {
                self.pos += 1;
                Ok(Token::NotEq)
            }
            b'<' => match self.peek() {
                Some(b'=') => {
                    self.pos += 1;
                    Ok(Token::LtEq)
                }
                Some(b'>') => {
                    self.pos += 1;
                    Ok(Token::NotEq)
                }
                _ => Ok(Token::Lt),
            },
            b'>' => {
                if self.peek() == Some(b'=') {
                    self.pos += 1;
                    Ok(Token::GtEq)
                } else {
                    Ok(Token::Gt)
                }
            }
            b'\'' => self.lex_string(start),
            b'$' => self.lex_param(start),
            c if c.is_ascii_digit() => self.lex_number(start),
            c if c.is_ascii_alphabetic() || c == b'_' => self.lex_ident(start),
            c => Err(SqlError::Lex {
                position: start,
                detail: format!("unexpected character '{}'", c as char),
            }),
        }
    }

    fn lex_string(&mut self, start: usize) -> Result<Token> {
        let mut out = String::new();
        loop {
            // The text up to the next quote, as the UTF-8 it is: the input
            // is a `str` and a quote is one byte, so the slice is whole.
            let from = self.pos;
            while matches!(self.peek(), Some(c) if c != b'\'') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.input[from..self.pos]).expect("split at quotes"),
            );
            if self.bump().is_none() {
                return Err(SqlError::Lex {
                    position: start,
                    detail: "unterminated string literal".into(),
                });
            }
            // '' is an escaped quote.
            if self.peek() != Some(b'\'') {
                return Ok(Token::Str(out));
            }
            self.pos += 1;
            out.push('\'');
        }
    }

    fn lex_param(&mut self, start: usize) -> Result<Token> {
        let digits = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.input[digits..self.pos]).expect("ascii digits");
        text.parse().map(Token::Param).map_err(|_| SqlError::Lex {
            position: start,
            detail: "'$' must be followed by a parameter number".into(),
        })
    }

    fn lex_number(&mut self, start: usize) -> Result<Token> {
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        // A decimal point only counts if followed by a digit (so `1.` in `t1.c` is
        // not treated as a decimal; qualified names are lexed as Ident Dot Ident).
        let mut is_decimal = false;
        if self.peek() == Some(b'.') && matches!(self.peek_at(1), Some(c) if c.is_ascii_digit()) {
            is_decimal = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.input[start..self.pos]).expect("ascii digits");
        if is_decimal {
            let dot = text.find('.').expect("decimal point present");
            let int_part = &text[..dot];
            let frac_part = &text[dot + 1..];
            let scale = frac_part.len().min(18) as u8;
            let combined = format!("{int_part}{frac_part}");
            let units: i64 = combined.parse().map_err(|_| SqlError::Lex {
                position: start,
                detail: format!("decimal literal out of range: {text}"),
            })?;
            Ok(Token::Decimal(units, scale))
        } else {
            let v: i64 = text.parse().map_err(|_| SqlError::Lex {
                position: start,
                detail: format!("integer literal out of range: {text}"),
            })?;
            Ok(Token::Int(v))
        }
    }

    fn lex_ident(&mut self, start: usize) -> Result<Token> {
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
            self.pos += 1;
        }
        let text =
            std::str::from_utf8(&self.input[start..self.pos]).map_err(|_| SqlError::Lex {
                position: start,
                detail: "identifier is not valid UTF-8".into(),
            })?;
        Ok(Token::Ident(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lex(s: &str) -> Vec<Token> {
        Lexer::new(s).tokenize().unwrap()
    }

    #[test]
    fn basic_tokens() {
        let toks = lex("SELECT a, b FROM t WHERE a >= 10;");
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert_eq!(toks[2], Token::Comma);
        assert!(toks.contains(&Token::GtEq));
        assert!(toks.contains(&Token::Int(10)));
        assert_eq!(*toks.last().unwrap(), Token::Eof);
    }

    #[test]
    fn numbers_and_decimals() {
        assert_eq!(lex("42")[0], Token::Int(42));
        assert_eq!(lex("12.34")[0], Token::Decimal(1234, 2));
        assert_eq!(lex("0.05")[0], Token::Decimal(5, 2));
        // Qualified name is not a decimal.
        let toks = lex("t1.c2");
        assert_eq!(
            toks[..3],
            [
                Token::Ident("t1".into()),
                Token::Dot,
                Token::Ident("c2".into())
            ]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(lex("'hello'")[0], Token::Str("hello".into()));
        assert_eq!(lex("'it''s'")[0], Token::Str("it's".into()));
        assert!(Lexer::new("'unterminated").tokenize().is_err());
    }

    #[test]
    fn string_literals_keep_their_utf8() {
        assert_eq!(lex("'é'")[0], Token::Str("é".into()));
        assert_eq!(lex("'日本'")[0], Token::Str("日本".into()));
        assert_eq!(lex("'d''é''jà'")[0], Token::Str("d'é'jà".into()));
        assert_eq!(
            lex("'é' = x")[1],
            Token::Eq,
            "the lexer resumes after the literal"
        );
        assert!(Lexer::new("'日本").tokenize().is_err());
    }

    #[test]
    fn a_string_token_displays_as_the_literal_it_was_lexed_from() {
        assert_eq!(Token::Str("it's".into()).to_string(), "'it''s'");
        assert_eq!(Token::Str("''".into()).to_string(), "''''''");
        assert_eq!(Token::Str(String::new()).to_string(), "''");
    }

    use proptest::prelude::*;

    /// Pieces of string literals: quotes, non-ASCII, spaces, comment and
    /// operator characters a literal must carry as text.
    const PIECES: [&str; 12] = [
        "a", "Z", "'", "''", "é", "日本", " ", "--", "$1", "\u{1f}", ";", "ß",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Displaying a lexed stream and lexing it again gives the same
        /// tokens: every token's display is SQL that lexes back to it.
        #[test]
        fn lex_display_lex_round_trips(
            literals in proptest::collection::vec(
                proptest::collection::vec(0usize..PIECES.len(), 0..6),
                1..5,
            ),
            number in 0i64..1_000_000,
        ) {
            let texts: Vec<String> = (literals.iter())
                .map(|pieces| pieces.iter().map(|&p| PIECES[p]).collect())
                .collect();
            let mut sql = String::from("SELECT");
            for (i, text) in texts.iter().enumerate() {
                let literal = Token::Str(text.clone()).to_string();
                sql.push_str(&format!(" {literal} <> c{i} ,"));
            }
            sql.push_str(&format!(" {number} , 12.50 ;"));
            let tokens = lex(&sql);
            let lexed: Vec<&Token> = (tokens.iter())
                .filter(|token| matches!(token, Token::Str(_)))
                .collect();
            let written: Vec<Token> = texts.iter().cloned().map(Token::Str).collect();
            prop_assert_eq!(lexed, written.iter().collect::<Vec<_>>());
            let shown: Vec<String> = tokens[..tokens.len() - 1]
                .iter()
                .map(Token::to_string)
                .collect();
            prop_assert_eq!(lex(&shown.join(" ")), tokens);
        }
    }

    #[test]
    fn operators() {
        let toks = lex("a <> b != c <= d >= e < f > g = h");
        let ops: Vec<&Token> = toks
            .iter()
            .filter(|t| !matches!(t, Token::Ident(_) | Token::Eof))
            .collect();
        assert_eq!(
            ops,
            vec![
                &Token::NotEq,
                &Token::NotEq,
                &Token::LtEq,
                &Token::GtEq,
                &Token::Lt,
                &Token::Gt,
                &Token::Eq
            ]
        );
    }

    #[test]
    fn comments_skipped() {
        let toks = lex("SELECT -- this is a comment\n 1");
        assert_eq!(toks[0], Token::Ident("SELECT".into()));
        assert_eq!(toks[1], Token::Int(1));
    }

    #[test]
    fn unexpected_character_errors() {
        assert!(Lexer::new("SELECT @x").tokenize().is_err());
    }

    #[test]
    fn arithmetic_tokens() {
        let toks = lex("a + b - c * d / e % f");
        assert!(toks.contains(&Token::Plus));
        assert!(toks.contains(&Token::Minus));
        assert!(toks.contains(&Token::Star));
        assert!(toks.contains(&Token::Slash));
        assert!(toks.contains(&Token::Percent));
    }
}
