//! One small JSON value, reader and writer — std only.
//!
//! [`Json`] serves both directions. Numbers keep their text, so a `u64`
//! parses exactly and the writer controls every digit: integers are
//! written exactly, an `f64` in Rust's shortest round-trip `{}` form,
//! and [`Json::fixed`] pins the places after the point for records that
//! promise fixed digits. JSON has no NaN or infinity, so a non-finite
//! float is written as `null`. Object keys keep insertion order.
//!
//! `Display` writes compact JSON (one JSONL line); [`Json::pretty`]
//! writes 2-space-indented JSON, with arrays of scalars kept on one
//! line. [`parse`] reads any JSON document and rejects what is not JSON,
//! such as a bare `NaN`.
//!
//! ```
//! use verus_trace::json::{self, Json};
//! let v = Json::object()
//!     .field("name", "verus")
//!     .field("points", vec![(1.0, 2.5), (2.0, f64::NAN)])
//!     .field("p95_ms", Json::fixed(40.125, 1));
//! assert_eq!(v.to_string(), r#"{"name":"verus","points":[[1,2.5],[2,null]],"p95_ms":40.1}"#);
//! assert_eq!(json::parse(&v.pretty()).unwrap(), v);
//! ```

use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its JSON text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object, to be filled with [`Json::field`].
    #[must_use]
    pub fn object() -> Self {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    /// Panics when `self` is not an object.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Self {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("Json::field on a non-object: {other:?}"),
        }
        self
    }

    /// `v` with exactly `places` digits after the point (`null` when
    /// `v` is not finite).
    #[must_use]
    pub fn fixed(v: f64, places: usize) -> Self {
        if v.is_finite() {
            Json::Num(format!("{v:.places$}"))
        } else {
            Json::Null
        }
    }

    /// The value under `key` when `self` is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The number as an `f64`.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The number as a `u64` (`None` for fractions and negatives).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array's items.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The object's fields, in order.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// 2-space-indented JSON. Arrays whose items are all scalars stay on
    /// one line.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = self.write(&mut out, true, 0);
        out
    }

    fn write<W: fmt::Write>(&self, out: &mut W, pretty: bool, depth: usize) -> fmt::Result {
        let newline = |out: &mut W, depth: usize| write!(out, "\n{:1$}", "", 2 * depth);
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(b) => write!(out, "{b}"),
            Json::Num(raw) => out.write_str(raw),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let nested = items
                    .iter()
                    .any(|v| matches!(v, Json::Arr(_) | Json::Obj(_)));
                let broken = pretty && nested;
                out.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.write_str(if pretty && !broken { ", " } else { "," })?;
                    }
                    if broken {
                        newline(out, depth + 1)?;
                    }
                    item.write(out, pretty, depth + 1)?;
                }
                if broken {
                    newline(out, depth)?;
                }
                out.write_char(']')
            }
            Json::Obj(fields) => {
                out.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.write_char(',')?;
                    }
                    if pretty {
                        newline(out, depth + 1)?;
                    }
                    write_str(out, key)?;
                    out.write_str(if pretty { ": " } else { ":" })?;
                    value.write(out, pretty, depth + 1)?;
                }
                if pretty && !fields.is_empty() {
                    newline(out, depth)?;
                }
                out.write_char('}')
            }
        }
    }
}

/// A string literal: quotes, backslashes and control characters escaped.
fn write_str<W: fmt::Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_char('"')
}

/// Compact JSON.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, false, 0)
    }
}

impl From<f64> for Json {
    /// Shortest round-trip text; `null` when not finite.
    fn from(v: f64) -> Self {
        if v.is_finite() {
            Json::Num(format!("{v}"))
        } else {
            Json::Null
        }
    }
}

macro_rules! from_integer {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Self {
                Json::Num(v.to_string())
            }
        }
    )*};
}
from_integer!(u32, u64, usize, i64);

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        v.into_iter().collect()
    }
}

/// A pair is a two-item array (`[x, y]`, the shape of every plotted point).
impl<A: Into<Json>, B: Into<Json>> From<(A, B)> for Json {
    fn from((a, b): (A, B)) -> Self {
        Json::Arr(vec![a.into(), b.into()])
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Json::Arr(iter.into_iter().map(Into::into).collect())
    }
}

// ---------------------------------------------------------------- reader

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
/// Returns a message with the byte offset of the first thing that is
/// not JSON, including trailing garbage and non-finite literals.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(value)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {} (found {:?})",
                c as char,
                self.i,
                self.b.get(self.i).map(|&x| x as char)
            ))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.i).copied()
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!("unexpected token {other:?} at byte {}", self.i)),
        }
    }

    fn literal(&mut self, word: &str, val: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(val)
        } else {
            Err(format!("expected {word:?} at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let raw = std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| "non-utf8 number".to_string())?;
        if raw.parse::<f64>().is_err() {
            return Err(format!("bad number {raw:?}"));
        }
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy each run up to the next quote or backslash whole: both
            // are ASCII, so every run ends on a UTF-8 boundary.
            let start = self.i;
            while self.b.get(self.i).is_some_and(|&c| c != b'"' && c != b'\\') {
                self.i += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.b[start..self.i]).map_err(|_| "bad utf8 in string")?,
            );
            let Some(&c) = self.b.get(self.i) else {
                return Err("unterminated string".to_string());
            };
            self.i += 1;
            if c == b'"' {
                return Ok(out);
            }
            let esc = self.b.get(self.i).copied().ok_or("truncated escape")?;
            self.i += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self
                        .b
                        .get(self.i..self.i + 4)
                        .ok_or("truncated \\u escape")?;
                    self.i += 4;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                        16,
                    )
                    .map_err(|_| "bad \\u escape")?;
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                other => return Err(format!("bad escape \\{}", other as char)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut items = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(items));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            items.push((key, val));
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(items));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_round_trip_through_the_parser() {
        let v = Json::object()
            .field("s", "a\"b\\c\n\u{1}")
            .field("utf8", "δ₁ → ✅")
            .field("n", 18_446_744_073_709_551_615u64)
            .field("x", -0.1)
            .field("none", None::<f64>)
            .field("flag", true)
            .field("pairs", vec![(1u64, 2.5), (3, 4.0)])
            .field("empty", Json::object())
            .field("nested", Json::object().field("list", Vec::<f64>::new()));
        assert_eq!(parse(&v.to_string()), Ok(v.clone()));
        assert_eq!(parse(&v.pretty()), Ok(v.clone()));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(u64::MAX));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("a\"b\\c\n\u{1}"));
    }

    #[test]
    fn pretty_indents_by_two_and_keeps_scalar_arrays_inline() {
        let v = Json::object()
            .field("a", vec![1u64, 2])
            .field("b", vec![(1u64, 2u64)])
            .field("c", Json::object());
        assert_eq!(
            v.pretty(),
            "{\n  \"a\": [1, 2],\n  \"b\": [\n    [1, 2]\n  ],\n  \"c\": {}\n}"
        );
    }

    #[test]
    fn floats_are_shortest_round_trip_or_fixed() {
        assert_eq!(Json::from(1.0).to_string(), "1");
        assert_eq!(Json::from(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Json::fixed(1659.0, 3).to_string(), "1659.000");
        assert_eq!(Json::fixed(2.4, 0).to_string(), "2");
        assert_eq!(Json::fixed(f64::NAN, 2), Json::Null);
    }

    #[test]
    fn parser_rejects_what_is_not_json() {
        for bad in [
            "NaN",
            "[1, NaN]",
            "{\"a\": inf}",
            "-",
            "[1,]",
            "{\"a\" 1}",
            "1 2",
            "\"open",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }
}
