//! Tiny JSON encoder/decoder over the vendored serde [`Value`] tree.
//!
//! The workspace has no `serde_json`; every exporter builds a `Value` by
//! hand and only needs plain RFC 8259 JSON, so this module provides exactly
//! that: encode a `serde::Value` to a string and parse a string back into
//! one. Parsing reads files from outside the process (`omega-cli profile`
//! reads a trace, the benchmark reads metrics JSONL), so it returns a
//! [`ParseError`] on any malformed or too deeply nested input rather than
//! panicking.

use serde::Value;

/// A JSON object with `fields` in the order given: how every exporter
/// builds its rows.
pub fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Map(fields.map(|(k, v)| (k.to_string(), v)).into())
}

/// Encode a value tree as compact JSON.
pub fn to_string(v: &Value) -> String {
    let mut out = String::new();
    write_value(v, &mut out);
    out
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            if x.is_finite() {
                // Guarantee a numeric token that round-trips as f64.
                let s = format!("{x}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null"); // JSON has no NaN/Inf
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// JSON parse error with a byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Deepest array/object nesting [`parse`] accepts. The exporters emit at
/// most a handful of levels; the cap keeps hostile input from overflowing
/// the stack of the recursive parser.
const MAX_DEPTH: usize = 128;

/// Parse a JSON document into a value tree.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => {
                self.eat_keyword("null")?;
                Ok(Value::Null)
            }
            Some(b't') => {
                self.eat_keyword("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.eat_keyword("false")?;
                Ok(Value::Bool(false))
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.nested(Self::seq),
            Some(b'{') => self.nested(Self::map),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
                                .ok_or_else(|| self.err("\\u escape needs four hex digits"))?;
                            let code = hex
                                .iter()
                                .fold(0, |acc, &b| acc * 16 + (b as char).to_digit(16).unwrap());
                            // Surrogate pairs are not needed by our exporters.
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the maximal run up to the next quote or escape in
                    // one go; validating UTF-8 per chunk (not per character
                    // against the whole remaining input) keeps parsing linear
                    // in the document size.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| self.err("bad number"))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| self.err("bad number"))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| self.err("bad number"))
        }
    }

    fn seq(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn map(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_document() {
        let v = Value::Map(vec![
            (
                "name".to_string(),
                Value::Str("spmm.eata_assign".to_string()),
            ),
            ("ts".to_string(), Value::F64(1.5)),
            ("pid".to_string(), Value::U64(1)),
            ("neg".to_string(), Value::I64(-3)),
            ("ok".to_string(), Value::Bool(true)),
            ("none".to_string(), Value::Null),
            (
                "args".to_string(),
                Value::Seq(vec![Value::U64(1), Value::Str("a\"b\\c\n".to_string())]),
            ),
        ]);
        let text = to_string(&v);
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = parse("  { \"a\" : [ 1 , 2.5 , { \"b\" : null } ] }  ").unwrap();
        assert_eq!(
            v.get("a").and_then(|a| a.as_seq()).map(<[Value]>::len),
            Some(3)
        );
        assert_eq!(v.get("a").unwrap().as_seq().unwrap()[1], Value::F64(2.5));
    }

    #[test]
    fn float_tokens_round_trip_as_floats() {
        // An integral f64 must still parse back as F64, not U64.
        let text = to_string(&Value::F64(4.0));
        assert_eq!(text, "4.0");
        assert_eq!(parse(&text).unwrap(), Value::F64(4.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("tru").is_err());
        assert!(parse("1 2").is_err());
    }

    #[test]
    fn rejects_nesting_past_the_cap() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
        // Hostile input is an error, not a stack overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn unicode_escape_takes_exactly_four_hex_digits() {
        assert_eq!(
            parse(r#""\u0041\u00e9""#).unwrap(),
            Value::Str("Aé".to_string())
        );
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04""#,
            r#""\u""#,
        ] {
            assert!(parse(bad).is_err(), "{bad} parsed");
        }
    }
}
