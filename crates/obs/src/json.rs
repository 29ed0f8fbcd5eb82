//! Dependency-free JSON document model, writer, and parser.
//!
//! The exporters in this crate hand-roll JSON because the build container has
//! no registry access (see `vendor/README.md`); this module centralizes the
//! escaping and number-formatting rules so every artifact stays valid. Object
//! keys preserve insertion order, which keeps exported documents stable for
//! golden tests.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer, written without a fraction (exact past 2^53,
    /// unlike `Num` — nanosecond timestamps need this).
    UInt(u64),
    /// Signed integer, written without a fraction.
    Int(i64),
    /// Finite float. Non-finite values are written as `null`.
    Num(f64),
    /// String (escaped on write).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object; insertion order is preserved on write.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs.
    pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn items(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric content widened to `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::UInt(u) => Some(*u as f64),
            Json::Int(i) => Some(*i as f64),
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Unsigned integer content, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// Serializes to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Num(x) => write_f64(*x, out),
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_json())
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<u32> for Json {
    fn from(u: u32) -> Json {
        Json::UInt(u as u64)
    }
}
impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}
impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::UInt(u as u64)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// Writes a float the way [`Json::Num`] serializes: finite values with
/// enough precision to round-trip, integral ones below 1e15 with a `.0` so
/// they re-parse as floats; non-finite values (which JSON cannot represent)
/// become `null`.
pub fn write_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 1e15 {
        let _ = write!(out, "{x:.1}");
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Writes `n` in decimal, as `{n}` formats it, without the formatting
/// machinery.
pub fn write_u64(mut n: u64, out: &mut String) {
    let mut buf = [0u8; 20];
    let mut start = buf.len();
    loop {
        start -= 1;
        buf[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(buf[start..].iter().map(|&d| char::from(d)));
}

/// Below this magnitude (2^53) every `f64` rounds to an integer that `u64`
/// holds exactly.
const EXACT_INTEGERS_BELOW: f64 = 9_007_199_254_740_992.0;

/// Writes `x` rounded to an integer, byte for byte as `{x:.0}` formats it:
/// ties round to even, and a negative sign (`-0.0` included) prints as `-`.
/// Below 2^53 it prints the integer digits; non-finite and larger values
/// take the `{x:.0}` formatter.
pub fn write_rounded(x: f64, out: &mut String) {
    if x.abs() >= EXACT_INTEGERS_BELOW || x.is_nan() {
        let _ = write!(out, "{x:.0}");
        return;
    }
    if x.is_sign_negative() {
        out.push('-');
    }
    write_u64(x.abs().round_ties_even() as u64, out);
}

/// Nanosecond times below this (2^43 µs) print exactly as three-decimal
/// microseconds: the f64 spacing there is under 0.001 µs, so the trimmed
/// three-decimal string is the shortest one that round-trips.
const EXACT_MICROS_BELOW_NS: u64 = (1 << 43) * 1000;

/// Writes `ns` nanoseconds as microseconds, byte for byte as
/// `write_f64(ns as f64 / 1e3)`, from integer digits: `ns / 1000`, a `.`,
/// then the digits of `ns % 1000` with trailing zeros trimmed (`.0` when
/// it is 0). At or above 2^43 µs it falls back to [`write_f64`].
pub fn write_micros(ns: u64, out: &mut String) {
    if ns >= EXACT_MICROS_BELOW_NS {
        return write_f64(ns as f64 / 1e3, out);
    }
    write_u64(ns / 1000, out);
    let frac = ns % 1000;
    let digits = [
        b'.',
        b'0' + (frac / 100) as u8,
        b'0' + (frac / 10 % 10) as u8,
        b'0' + (frac % 10) as u8,
    ];
    let mut end = digits.len();
    while end > 2 && digits[end - 1] == b'0' {
        end -= 1;
    }
    out.extend(digits[..end].iter().map(|&d| char::from(d)));
}

/// Writes `s` as a quoted JSON string literal: `"`, `\`, `\n`, `\r` and
/// `\t` get short escapes, other control characters `\u00XX`. Runs of
/// characters that need no escape are copied in one piece.
pub fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x20.. => continue,
            _ => "",
        };
        // Every escaped byte is ASCII, so `run..i` ends on a char boundary.
        out.push_str(&s[run..i]);
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// How deeply arrays and objects may nest. The deepest document the
/// workspace writes nests fewer than 10 levels; the limit keeps a hostile
/// document from overflowing the parser's stack.
const MAX_DEPTH: usize = 256;

/// Parses a JSON document. Intended for validating this crate's own
/// exports in tests; it accepts standard JSON (RFC 8259), without
/// extensions, with arrays and objects nested at most 256 levels deep.
/// Numbers take no leading zeros and need digits after a `.` and in an
/// exponent; strings take no raw control characters, and a `\u` escape
/// is exactly four hex digits. One departure: a `\u` escape of a UTF-16
/// surrogate is rejected, pairs included, because the workspace writes
/// every non-ASCII character as UTF-8 and never needs one.
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(value)
}

/// Error from [`parse`], with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.at, self.message)
    }
}

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
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
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parses an array or object one level deeper, refusing to go past
    /// `MAX_DEPTH`.
    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, ParseError>,
    ) -> Result<Json, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nested too deeply"));
        }
        self.depth += 1;
        let value = container(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                            let code = self.hex4()?;
                            // Surrogates are not needed for our exports.
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad code point"))?,
                            );
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(0..0x20) => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy up to the next quote, backslash or control
                    // character. Each is ASCII, so the run ends on a char
                    // boundary.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.text[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape (the cursor is on the
    /// `u`, and is left on the last digit).
    fn hex4(&mut self) -> Result<u32, ParseError> {
        let digits = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let mut code = 0;
        for &b in digits {
            let digit = char::from(b).to_digit(16);
            code = code * 16 + digit.ok_or_else(|| self.err("bad \\u escape"))?;
        }
        self.pos += 4;
        Ok(code)
    }

    /// Skips a run of ASCII digits; an error unless there is at least one.
    fn digits(&mut self, what: &str) -> Result<(), ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err(what));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("leading zero"));
            }
        } else {
            self.digits("expected digits")?;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.digits("expected fraction digits")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("expected exponent digits")?;
        }
        let text = &self.text[start..self.pos];
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
        }
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_round_trip() {
        let doc = Json::obj([
            ("name", Json::str("fig11 \"quick\"\n")),
            ("count", Json::UInt(u64::MAX)),
            ("delta", Json::Int(-3)),
            ("ratio", Json::Num(0.25)),
            ("whole", Json::Num(2.0)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            ("xs", Json::Arr(vec![Json::UInt(1), Json::Num(1.5)])),
        ]);
        let text = doc.to_json();
        let back = parse(&text).expect("round trip");
        assert_eq!(back, doc);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_json(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn preserves_key_order() {
        let doc = Json::obj([("z", Json::UInt(1)), ("a", Json::UInt(2))]);
        assert_eq!(doc.to_json(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn parses_escapes_and_whitespace() {
        let doc = parse(" { \"k\" : [ \"a\\u0041\\n\" , -2.5e1 ] } ").unwrap();
        let items = doc.get("k").unwrap().items().unwrap();
        assert_eq!(items[0].as_str(), Some("aA\n"));
        assert_eq!(items[1].as_f64(), Some(-25.0));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn rejects_leading_zeros() {
        for text in ["01", "00", "-01.5", "-00", "[01]", "{\"a\":007}"] {
            assert!(parse(text).is_err(), "{text}");
        }
        for text in ["0", "-0", "0.5", "-0.0e1", "10", "[0,0]"] {
            assert!(parse(text).is_ok(), "{text}");
        }
    }

    #[test]
    fn rejects_numbers_without_fraction_or_exponent_digits() {
        for text in ["1.", "1.e5", "-.5", ".5", "-", "1e", "1e+", "[1.]"] {
            assert!(parse(text).is_err(), "{text}");
        }
        for text in ["1.0", "1.5e5", "-0.5", "1e5", "1E-5", "1e+05"] {
            assert!(parse(text).is_ok(), "{text}");
        }
    }

    #[test]
    fn rejects_u_escapes_that_are_not_four_hex_digits() {
        for text in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u04g1""#,
            r#""\u041""#,
            "\"\\u00é\"",
        ] {
            assert!(parse(text).is_err(), "{text}");
        }
        assert_eq!(parse(r#""\u004a\u004B""#).unwrap().as_str(), Some("JK"));
    }

    #[test]
    fn rejects_raw_control_characters_in_strings() {
        for c in ['\n', '\t', '\r', '\u{0}', '\u{1f}'] {
            let text = format!("\"a{c}b\"");
            assert!(parse(&text).is_err(), "{text:?}");
        }
        // DEL and non-ASCII need no escape.
        assert_eq!(parse("\"a\u{7f}é✓\"").unwrap().as_str(), Some("a\u{7f}é✓"));
    }

    #[test]
    fn numbers_write_exactly_and_round_trip() {
        let cases = [
            (Json::UInt(0), "0"),
            (Json::UInt(u64::MAX), "18446744073709551615"),
            (Json::Int(i64::MIN), "-9223372036854775808"),
            (Json::Num(12.0), "12.0"),
            (Json::Num(1e15), "1000000000000000"),
            (Json::Num(1e-7), "0.0000001"),
            (Json::Num(0.1 + 0.2), "0.30000000000000004"),
            (Json::Num(f64::NAN), "null"),
        ];
        for (value, text) in cases {
            assert_eq!(value.to_json(), text);
            let back = parse(text).unwrap();
            match value {
                Json::Num(x) if x.is_nan() => assert_eq!(back, Json::Null),
                Json::Num(x) => assert_eq!(back.as_f64(), Some(x)),
                _ => assert_eq!(back, value),
            }
        }
    }

    #[test]
    fn escape_handles_specials() {
        let esc = |s: &str| {
            let mut out = String::new();
            write_escaped(s, &mut out);
            out
        };
        assert_eq!(esc("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(esc("\u{1}\r\t"), "\"\\u0001\\r\\t\"");
        assert_eq!(esc("gpu·0 ✓"), "\"gpu·0 ✓\"", "non-ASCII passes through");
        let tricky = "é\u{1f}x\"ü\\\u{7f}";
        assert_eq!(parse(&esc(tricky)).unwrap().as_str(), Some(tricky));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"a\":"] {
            let err = parse(&open.repeat(100_000)).expect_err(open);
            assert_eq!(err.message, "nested too deeply");
        }
        let nest = |depth| format!("{}0{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn integral_float_keeps_fraction_marker() {
        assert_eq!(Json::Num(3.0).to_json(), "3.0");
        assert_eq!(Json::UInt(3).to_json(), "3");
    }
}
