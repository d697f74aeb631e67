//! JSON text primitives: the workspace's one parser and one string escaper.
//!
//! Every flipper document is emitted by hand — the `flipper-results/v1`
//! sink, the `flipper-trace/v1` exporter, the lint report and its baseline
//! — and each of those emitters quotes its strings with [`push_string`].
//! Every reader — `flipper results-diff`, trace validation, the lint
//! baseline — parses with [`parse`]. One of each means a string a writer
//! emits always reads back as the same string: `parse` inverts
//! `push_string` for every `char`. (`push_string` never writes a `\u`
//! surrogate pair, and `parse` rejects them.)

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON value (minimal model: numbers are `f64`, which is exact
/// for integers up to 2^53 — for a trace's nanosecond fields, about 104
/// days).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys sorted; a repeated key keeps its last value.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The string, when this value is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// Member `key` of an object; `None` for a missing key or a non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }
}

/// A document that is not valid JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonError {}

/// Parse a JSON document: one value, optionally surrounded by whitespace.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text, pos: 0 };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return p.err("trailing data after document");
    }
    Ok(value)
}

/// Append `s` to `out` as a quoted JSON string literal: `"` and `\` are
/// backslash-escaped, every control character below U+0020 is written as
/// `\u00XX`, and everything else — `/`, DEL, any non-ASCII character — is
/// copied verbatim.
pub fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected '{}'", b as char))
        }
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn parse_value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => self.err(format!("unexpected '{}'", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err(format!("expected '{lit}'"))
        }
    }

    fn parse_number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        // Only ASCII was consumed, so the range is on char boundaries.
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => self.err(format!("bad number '{text}'")),
        }
    }

    fn parse_string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self.text.get(self.pos + 1..self.pos + 5);
                            let code = hex
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            match code.and_then(char::from_u32) {
                                Some(c) => out.push(c),
                                None => return self.err("bad \\u escape"),
                            }
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy a run of plain text verbatim; it ends at an
                    // ASCII byte, so the range is on char boundaries.
                    let start = self.pos;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quoted(s: &str) -> String {
        let mut out = String::new();
        push_string(&mut out, s);
        out
    }

    #[test]
    fn parser_handles_escapes_numbers_and_nesting() {
        let doc =
            parse(r#"{"s":"a\"b\\c\ndA","n":-12.5e1,"a":[1,2,{"x":null,"y":true}]}"#).unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("a\"b\\c\ndA"));
        assert_eq!(doc.get("n"), Some(&Json::Num(-125.0)));
        match doc.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items.len(), 3);
                assert_eq!(items[2].get("y"), Some(&Json::Bool(true)));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "{} trailing",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "\"\\ud83d\"",
            "\"\\ude00\\ud83d\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        let err = parse("[1, }").unwrap_err();
        assert_eq!(err.offset, 4);
        assert_eq!(
            err.to_string(),
            "JSON parse error at byte 4: unexpected '}'"
        );
    }

    #[test]
    fn escape_then_parse_round_trips() {
        // Every control character, the two escaped ones, `/`, DEL,
        // non-ASCII and an astral-plane character; alone, then all in one.
        let mut cases: Vec<String> = (0u32..0x20)
            .filter_map(char::from_u32)
            .chain("\"\\/\u{7f}é中\u{1F600}".chars())
            .map(String::from)
            .collect();
        cases.push(cases.concat());
        cases.push(String::new());
        for s in &cases {
            let text = quoted(s);
            assert_eq!(parse(&text), Ok(Json::Str(s.clone())), "{text:?}");
        }
        // Control characters are spelled \u00XX, never \n-style.
        assert_eq!(quoted("\n\t\r"), "\"\\u000a\\u0009\\u000d\"");
        assert_eq!(quoted("/\u{7f}é"), "\"/\u{7f}é\"");
    }
}
