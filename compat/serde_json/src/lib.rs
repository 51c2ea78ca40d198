//! In-tree JSON data format for the serde compatibility shim.
//!
//! Provides the four entry points the WBAM workspace uses —
//! [`to_string`], [`to_vec`], [`from_str`], [`from_slice`] — implemented as a
//! plain recursive-descent JSON parser and printer over the shim's
//! [`serde::value::Value`] tree, which typed values reach through
//! [`serde::value::to_value`] / [`serde::value::from_value`]. JSON carries
//! `DeploySpec`s, delivery logs and the benchmark's reference frame bodies,
//! none of them on a deployed hot path, so it keeps the tree. Full round-trip fidelity is guaranteed for
//! everything the shim can represent: `u64`/`i64` exactly, `f64` via Rust's
//! shortest round-trip formatting, strings with standard JSON escapes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

use serde::de::DeserializeOwned;
use serde::value::Value;
use serde::Serialize;

/// An error produced while serialising to or parsing JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for Error {}

/// A specialised `Result` for JSON conversions.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialises a value to a JSON string.
///
/// # Errors
///
/// Returns an error if the value contains a non-finite float, which JSON
/// cannot represent.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &serde::value::to_value(value))?;
    Ok(out)
}

/// Serialises a value to a JSON byte vector.
///
/// # Errors
///
/// Same conditions as [`to_string`].
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Deserialises a value from a JSON string.
///
/// # Errors
///
/// Returns an error on malformed JSON, trailing input, or a mismatch between
/// the JSON shape and the target type.
pub fn from_str<T: DeserializeOwned>(input: &str) -> Result<T> {
    let mut parser = Parser::new(input);
    let value = parser.parse_value()?;
    parser.skip_ws();
    if !parser.at_end() {
        return Err(Error::new("trailing characters after JSON value"));
    }
    serde::value::from_value(&value).map_err(|e| Error::new(e.to_string()))
}

/// Deserialises a value from JSON bytes.
///
/// # Errors
///
/// Same conditions as [`from_str`], plus invalid UTF-8.
pub fn from_slice<T: DeserializeOwned>(input: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(input).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

fn write_value(out: &mut String, v: &Value) -> Result<()> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            if !x.is_finite() {
                return Err(Error::new("JSON cannot represent non-finite floats"));
            }
            // `{:?}` is Rust's shortest round-trip formatting; its output
            // (e.g. `1.0`, `2.5e-9`) is valid JSON for finite values.
            out.push_str(&format!("{x:?}"));
        }
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item)?;
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, k);
                out.push(':');
                write_value(out, val)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char,
                self.pos.saturating_sub(1)
            )))
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(Error::new(format!("invalid JSON at byte {}", self.pos)))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            None => Err(Error::new("unexpected end of JSON input")),
            Some(b'n') => self.expect_keyword("null").map(|()| Value::Null),
            Some(b't') => self.expect_keyword("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.expect_keyword("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.parse_seq(),
            Some(b'{') => self.parse_map(),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(other) => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn parse_seq(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Seq(items)),
                _ => return Err(Error::new("expected `,` or `]` in array")),
            }
        }
    }

    fn parse_map(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Map(entries)),
                _ => return Err(Error::new("expected `,` or `}` in object")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Consume a run of plain bytes in one go.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error::new(format!("invalid UTF-8 in string: {e}")))?,
            );
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let first = self.parse_hex4()?;
                        let c = if (0xD800..0xDC00).contains(&first) {
                            // High surrogate: require a following \uXXXX low
                            // surrogate and combine the pair.
                            self.expect(b'\\')?;
                            self.expect(b'u')?;
                            let low = self.parse_hex4()?;
                            if !(0xDC00..0xE000).contains(&low) {
                                return Err(Error::new("unpaired surrogate in string"));
                            }
                            let cp = 0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00);
                            char::from_u32(cp)
                        } else {
                            char::from_u32(first)
                        };
                        out.push(c.ok_or_else(|| Error::new("invalid unicode escape"))?);
                    }
                    _ => return Err(Error::new("invalid escape sequence")),
                },
                _ => return Err(Error::new("unterminated string")),
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut n = 0u32;
        for _ in 0..4 {
            let b = self
                .bump()
                .ok_or_else(|| Error::new("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| Error::new("invalid hex digit in \\u escape"))?;
            n = n * 16 + digit;
        }
        Ok(n)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert!(from_str::<bool>("true").unwrap());
        assert_eq!(to_string(&u64::MAX).unwrap(), u64::MAX.to_string());
        assert_eq!(from_str::<u64>(&u64::MAX.to_string()).unwrap(), u64::MAX);
        assert_eq!(from_str::<i64>("-42").unwrap(), -42);
        assert_eq!(from_str::<f64>("2.5e-3").unwrap(), 2.5e-3);
        let x: f64 = from_str(&to_string(&0.1f64).unwrap()).unwrap();
        assert_eq!(x, 0.1);
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "line\nquote\"slash\\tab\tunicode✓\u{1}";
        let json = to_string(&s.to_string()).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
        assert_eq!(
            from_str::<String>("\"\\u00e9\\ud83d\\ude00\"").unwrap(),
            "é😀"
        );
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>(&json).unwrap(), v);
        let o: Option<u32> = None;
        assert_eq!(to_string(&o).unwrap(), "null");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("7").unwrap(), Some(7));
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(from_str::<bool>("tru").is_err());
        assert!(from_str::<Vec<u32>>("[1,2").is_err());
        assert!(from_str::<u32>("1 2").is_err());
        assert!(from_str::<String>("\"unterminated").is_err());
        assert!(from_str::<u32>("{").is_err());
    }
}
