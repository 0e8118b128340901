//! A recursive-descent JSON parser producing a content tree.

use serde::content::Content;

use crate::{Error, Result};

/// The deepest nesting of arrays and objects the parser accepts: the real
/// crate's recursion limit. Deeper input is an error, not a stack overflow.
pub(crate) const MAX_DEPTH: usize = 128;

pub(crate) fn parse(text: &str) -> Result<Content> {
    let mut parser = Parser { bytes: text.as_bytes(), position: 0, depth: 0 };
    parser.skip_whitespace();
    let value = parser.parse_value()?;
    parser.skip_whitespace();
    if parser.position != parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    position: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> Error {
        Error::new(format!("{message} at byte {}", self.position))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.position).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let byte = self.peek()?;
        self.position += 1;
        Some(byte)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.position += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<()> {
        if self.bump() == Some(byte) {
            Ok(())
        } else {
            self.position = self.position.saturating_sub(1);
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Content> {
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Content::Null),
            Some(b't') => self.parse_keyword("true", Content::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Content::Bool(false)),
            Some(b'"') => Ok(Content::Str(self.parse_string()?)),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.error(&format!("unexpected character `{}`", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Parses one array or object, or fails past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Content>) -> Result<Content> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, keyword: &str, value: Content) -> Result<Content> {
        if self.bytes[self.position..].starts_with(keyword.as_bytes()) {
            self.position += keyword.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{keyword}`")))
        }
    }

    fn parse_array(&mut self) -> Result<Content> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.position += 1;
            return Ok(Content::Seq(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Content::Seq(items)),
                _ => {
                    self.position = self.position.saturating_sub(1);
                    return Err(self.error("expected `,` or `]` in array"));
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Content> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.position += 1;
            return Ok(Content::Map(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            entries.push((Content::Str(key), value));
            self.skip_whitespace();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Content::Map(entries)),
                _ => {
                    self.position = self.position.saturating_sub(1);
                    return Err(self.error("expected `,` or `}` in object"));
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{08}'),
                    Some(b'f') => out.push('\u{0c}'),
                    Some(b'u') => {
                        let first = self.parse_hex4()?;
                        let scalar = if (0xd800..0xdc00).contains(&first) {
                            // Surrogate pair: expect the low half next.
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.error("unpaired surrogate in string"));
                            }
                            let second = self.parse_hex4()?;
                            if !(0xdc00..0xe000).contains(&second) {
                                return Err(self.error("invalid low surrogate"));
                            }
                            0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
                        } else {
                            first
                        };
                        out.push(
                            char::from_u32(scalar)
                                .ok_or_else(|| self.error("invalid unicode escape"))?,
                        );
                    }
                    _ => return Err(self.error("invalid escape sequence")),
                },
                Some(byte) => {
                    // Re-assemble UTF-8 multibyte sequences from the raw input.
                    if byte < 0x80 {
                        out.push(byte as char);
                    } else {
                        let start = self.position - 1;
                        let width = utf8_width(byte)
                            .ok_or_else(|| self.error("invalid UTF-8 in string"))?;
                        let end = start + width;
                        if end > self.bytes.len() {
                            return Err(self.error("truncated UTF-8 in string"));
                        }
                        let chunk = std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.error("invalid UTF-8 in string"))?;
                        out.push_str(chunk);
                        self.position = end;
                    }
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut value = 0u32;
        for _ in 0..4 {
            let byte = self.bump().ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = (byte as char)
                .to_digit(16)
                .ok_or_else(|| self.error("invalid hex digit in \\u escape"))?;
            value = value * 16 + digit;
        }
        Ok(value)
    }

    fn parse_number(&mut self) -> Result<Content> {
        let start = self.position;
        if self.peek() == Some(b'-') {
            self.position += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.position += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.position += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.position += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.position += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.position += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.position += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.position])
            .expect("number bytes are ASCII");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Content::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Content::I64(v));
            }
            if let Ok(v) = text.parse::<u128>() {
                return Ok(Content::U128(v));
            }
            if let Ok(v) = text.parse::<i128>() {
                return Ok(Content::I128(v));
            }
        }
        text.parse::<f64>()
            .map(Content::F64)
            .map_err(|_| self.error("invalid number"))
    }
}

fn utf8_width(first_byte: u8) -> Option<usize> {
    match first_byte {
        0xc0..=0xdf => Some(2),
        0xe0..=0xef => Some(3),
        0xf0..=0xf7 => Some(4),
        _ => None,
    }
}
