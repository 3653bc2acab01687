//! Dependency-free JSON for the wire protocol.
//!
//! The build environment has no crates.io access, so the server carries its
//! own minimal JSON layer: a [`Json`] tree, a panic-free recursive-descent
//! parser with a depth cap, and a serializer whose `f64` formatting is
//! Rust's shortest-round-trip `Display` — `parse(serialize(x)) == x`
//! **bit-identically** for every finite `f64`, which is what lets the
//! server-vs-session differential suite demand exact row equality through
//! the wire.
//!
//! Objects are insertion-ordered `Vec`s of pairs, never hash maps: the
//! serialized byte sequence of a response is a deterministic function of how
//! the protocol layer built it (and `deterministic-iteration` stays happy).
//!
//! Non-finite numbers have no JSON spelling; [`Json::Num`] with a NaN or
//! infinity serializes as `null`. The protocol layer encodes non-finite
//! *cells* as tagged strings before they get here (see
//! [`crate::protocol::cell_to_json`]).

use std::fmt;

/// Maximum nesting depth the parser accepts — far beyond any protocol
/// message, small enough that a hostile `[[[[…` line cannot exhaust the
/// stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Serialized with shortest-round-trip `Display`; non-finite
    /// values serialize as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as a `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Parse one JSON document; trailing non-whitespace is an error.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(true) => f.write_str("true"),
            Json::Bool(false) => f.write_str("false"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Write a JSON string literal, escaping quotes, backslashes, and control
/// characters.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// A parse failure: byte offset plus a short description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
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

    fn consume(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        let end = self.pos + word.len();
        if self.bytes.get(self.pos..end) == Some(word.as_bytes()) {
            self.pos = end;
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.consume(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
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

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.consume(b'{')?;
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
            self.consume(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
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

    fn string(&mut self) -> Result<String, JsonError> {
        self.consume(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            // Copy the longest escape-free ASCII/UTF-8 run in one slice.
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so any slice between byte positions
                // we advanced over whole UTF-8 sequences of is valid; the
                // loop above only stops on ASCII bytes, which never split a
                // multi-byte sequence.
                match std::str::from_utf8(&self.bytes[start..self.pos]) {
                    Ok(run) => out.push_str(run),
                    Err(_) => return Err(self.err("invalid UTF-8 in string")),
                }
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let b = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: require a low surrogate escape next.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.consume(b'u')?;
                        let lo = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&lo) {
                            return Err(self.err("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        char::from_u32(code)
                            .ok_or_else(|| self.err("invalid surrogate pair"))?
                    } else {
                        return Err(self.err("unpaired high surrogate"));
                    }
                } else {
                    char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            _ => return Err(self.err("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self.peek().ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.err("non-hex digit in \\u escape")),
            };
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(j: &Json) -> Json {
        Json::parse(&j.to_string()).expect("serialized JSON must reparse")
    }

    #[test]
    fn scalars_roundtrip() {
        for j in [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(0.0),
            Json::Num(-0.0),
            Json::Num(1.5),
            Json::Num(1e300),
            Json::Num(f64::MIN_POSITIVE),
            Json::Str(String::new()),
            Json::Str("line\nbreak \"quoted\" back\\slash \u{1}".to_string()),
            Json::Str("ünïcødé 🦀".to_string()),
        ] {
            assert_eq!(roundtrip(&j), j, "{j}");
        }
    }

    #[test]
    fn f64_roundtrip_is_bit_identical() {
        // Shortest-round-trip Display + correctly-rounded parse: exact.
        for bits in [
            0x3FF0_0000_0000_0001u64, // 1.0 + 1 ulp
            0x3FB9_9999_9999_999Au64, // 0.1
            0x7FEF_FFFF_FFFF_FFFFu64, // f64::MAX
            0x0000_0000_0000_0001u64, // smallest subnormal
            0x8000_0000_0000_0000u64, // -0.0
        ] {
            let x = f64::from_bits(bits);
            let back = roundtrip(&Json::Num(x)).as_f64().unwrap();
            assert_eq!(back.to_bits(), bits, "{x}");
        }
    }

    #[test]
    fn nested_structures_roundtrip_in_order() {
        let j = Json::Obj(vec![
            ("z".to_string(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("a".to_string(), Json::Obj(vec![("k".to_string(), Json::Str("v".into()))])),
            ("z".to_string(), Json::Bool(false)), // duplicate keys survive
        ]);
        assert_eq!(roundtrip(&j), j);
        assert_eq!(j.to_string(), r#"{"z":[1,null],"a":{"k":"v"},"z":false}"#);
        assert_eq!(j.get("z"), Some(&Json::Arr(vec![Json::Num(1.0), Json::Null])));
    }

    #[test]
    fn parser_accepts_whitespace_and_escapes() {
        let j = Json::parse(" { \"a\" : [ 1 , \"\\u0041\\u00e9\\ud83e\\udd80\\n\" ] } ")
            .unwrap();
        assert_eq!(
            j.get("a").and_then(|a| a.as_arr()).map(|a| a.len()),
            Some(2)
        );
        assert_eq!(
            j.get("a").unwrap().as_arr().unwrap()[1].as_str(),
            Some("Aé🦀\n")
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 unpaired\"",
            "[1] trailing",
            "nan",
            "1e999", // overflows to infinity: not representable
            "\u{1}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
        // Depth cap trips instead of blowing the stack.
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn non_finite_numbers_serialize_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn accessors_are_typed() {
        let j = Json::parse(r#"{"n":3,"s":"x","b":true,"f":2.5,"neg":-1}"#).unwrap();
        assert_eq!(j.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("f").and_then(Json::as_u64), None);
        assert_eq!(j.get("neg").and_then(Json::as_u64), None);
        assert_eq!(j.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(j.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(j.get("missing"), None);
        assert!(Json::Null.is_null());
        assert_eq!(Json::Null.get("k"), None);
    }
}
