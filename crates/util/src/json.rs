//! A minimal JSON value type, serializer, parser and derive-style macros.
//!
//! Replaces `serde`/`serde_json` for the workspace's needs: writing bench
//! reports, round-tripping configuration structs, and the `json!` literal
//! macro. Numbers are stored exactly for integers ([`Json::Int`] /
//! [`Json::UInt`]) and as `f64` otherwise; objects preserve insertion
//! order so serialized output is deterministic.
//!
//! # Examples
//!
//! ```
//! use uvm_util::{json, Json};
//!
//! let mut v = json!({ "policy": "LRU", "hit_rate": 0.75 });
//! v["runs"] = json!(3u32);
//! assert_eq!(v["policy"].as_str(), Some("LRU"));
//! let text = v.to_string();
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back, v);
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::ops::{Index, IndexMut};

/// A JSON document or fragment.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact signed integer (only produced for negative values).
    Int(i64),
    /// An exact unsigned integer.
    UInt(u64),
    /// A floating-point number. Non-finite values serialize as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, Json)>),
}

/// Error produced by [`Json::parse`] and [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
    /// Where the error arose, from the document root
    /// (`fixtures[0].seed`); empty for the root itself. Decoders prefix
    /// it as the error passes up ([`Self::at_key`], [`Self::at_index`]).
    path: String,
    /// For an unknown or a missing key, which of the two (the key ends
    /// `path`).
    field: Option<&'static str>,
}

impl JsonError {
    /// Creates an error with the given message, at the root until a
    /// caller prefixes its path.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError {
            msg: msg.into(),
            path: String::new(),
            field: None,
        }
    }

    /// The error for an unknown `key`; `hint` follows the key's path.
    pub(crate) fn unknown_field(key: &str, hint: String) -> Self {
        JsonError {
            msg: hint,
            path: key.to_string(),
            field: Some("unknown"),
        }
    }

    /// The error for a required `key` that the object lacks.
    pub fn missing_field(key: &str) -> Self {
        JsonError {
            msg: String::new(),
            path: key.to_string(),
            field: Some("missing"),
        }
    }

    /// Prefixes the error's path with the object field `key` it arose
    /// under (`width` becomes `window.width`).
    #[must_use]
    pub fn at_key(self, key: &str) -> Self {
        self.prefixed(key)
    }

    /// Prefixes the error's path with the array index `i` it arose under
    /// (`width` becomes `[3].width`).
    #[must_use]
    pub fn at_index(self, i: usize) -> Self {
        self.prefixed(&format!("[{i}]"))
    }

    fn prefixed(mut self, segment: &str) -> Self {
        self.path = match self.path.as_str() {
            "" => segment.to_string(),
            path if path.starts_with('[') => format!("{segment}{path}"),
            path => format!("{segment}.{path}"),
        };
        self
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.field, self.path.as_str()) {
            (Some(what), path) => write!(f, "json error: {what} field `{path}`{}", self.msg),
            (None, "") => write!(f, "json error: {}", self.msg),
            (None, path) => write!(f, "json error: at `{path}`: {}", self.msg),
        }
    }
}

impl std::error::Error for JsonError {}

const NULL: Json = Json::Null;

impl Json {
    /// An empty object.
    pub fn object() -> Self {
        Json::Object(Vec::new())
    }

    /// Inserts (or replaces) `key` in an object.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[expect(clippy::panic, reason = "documented panic contract")]
    pub fn insert(&mut self, key: impl Into<String>, value: Json) {
        let Json::Object(entries) = self else {
            panic!("Json::insert on non-object");
        };
        let key = key.into();
        if let Some(slot) = entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            entries.push((key, value));
        }
    }

    /// The value at `key`, if `self` is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean value, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::UInt(u) => Some(*u),
            Json::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            Json::UInt(u) if *u <= i64::MAX as u64 => Some(*u as i64),
            _ => None,
        }
    }

    /// The value as `f64`, for any numeric variant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Float(f) => Some(*f),
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            _ => None,
        }
    }

    /// The string value, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if any.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(xs) => Some(xs),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Pretty-prints with two-space indentation and a trailing newline-free
    /// body (like `serde_json::to_string_pretty`).
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Array(xs) if !xs.is_empty() => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    x.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Object(entries) if !entries.is_empty() => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    indent(out, depth + 1);
                    write_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::UInt(u) => out.push_str(&u.to_string()),
            Json::Float(f) => {
                if f.is_finite() {
                    out.push_str(&format_f64(*f));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Array(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input, trailing garbage, or
    /// arrays and objects nested deeper than [`MAX_DEPTH`].
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(format!(
                "trailing characters at byte {}",
                p.pos
            )));
        }
        Ok(v)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Formats a finite `f64` so it re-parses as a float when fractional and
/// as an integer otherwise (both read back identically through
/// [`FromJson`] for `f64`).
fn format_f64(f: f64) -> String {
    let s = format!("{f}");
    debug_assert!(!s.contains("inf") && !s.contains("NaN"));
    s
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

impl Index<&str> for Json {
    type Output = Json;

    /// Indexing a missing key (or a non-object) yields `Json::Null`.
    fn index(&self, key: &str) -> &Json {
        self.get(key).unwrap_or(&NULL)
    }
}

impl IndexMut<&str> for Json {
    /// Auto-vivifies: indexing `Null` turns it into an object, and missing
    /// keys are inserted as `Null` (so `v["k"] = json!(..)` works).
    #[expect(clippy::panic, reason = "documented panic contract, as `insert`'s")]
    fn index_mut(&mut self, key: &str) -> &mut Json {
        if self.is_null() {
            *self = Json::object();
        }
        let Json::Object(entries) = self else {
            panic!("cannot index non-object Json with a string key");
        };
        if let Some(i) = entries.iter().position(|(k, _)| k == key) {
            return &mut entries[i].1;
        }
        entries.push((key.to_string(), Json::Null));
        let last = entries.len() - 1;
        &mut entries[last].1
    }
}

impl Index<usize> for Json {
    type Output = Json;

    fn index(&self, i: usize) -> &Json {
        match self {
            Json::Array(xs) => xs.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

// ---------------------------------------------------------------------------
// Conversion traits.

/// Conversion into a [`Json`] value (the `Serialize` analogue).
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Conversion from a [`Json`] value (the `Deserialize` analogue).
pub trait FromJson: Sized {
    /// Reads `Self` back from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] describing the first mismatch.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Decodes the required field `key` of the object `v`; an error's path
/// starts at `key`.
///
/// # Errors
///
/// Returns [`JsonError`] if `v` lacks `key` or its value does not decode.
pub fn field<T: FromJson>(v: &Json, key: &str) -> Result<T, JsonError> {
    let x = v.get(key).ok_or_else(|| JsonError::missing_field(key))?;
    T::from_json(x).map_err(|e| e.at_key(key))
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Json, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<bool, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::new("expected bool"))
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::UInt(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<$t, JsonError> {
                let u = v.as_u64().ok_or_else(|| JsonError::new(
                    concat!("expected unsigned integer for ", stringify!($t)),
                ))?;
                <$t>::try_from(u).map_err(|_| JsonError::new(
                    concat!("integer out of range for ", stringify!($t)),
                ))
            }
        }
    )*};
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                let i = *self as i64;
                if i >= 0 {
                    Json::UInt(i as u64)
                } else {
                    Json::Int(i)
                }
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<$t, JsonError> {
                let i = v.as_i64().ok_or_else(|| JsonError::new(
                    concat!("expected integer for ", stringify!($t)),
                ))?;
                <$t>::try_from(i).map_err(|_| JsonError::new(
                    concat!("integer out of range for ", stringify!($t)),
                ))
            }
        }
    )*};
}

impl_json_int!(i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<f64, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::new("expected number"))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Float(f64::from(*self))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<String, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::new("expected string"))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Option<T>, JsonError> {
        if v.is_null() {
            Ok(None)
        } else {
            T::from_json(v).map(Some)
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Vec<T>, JsonError> {
        v.as_array()
            .ok_or_else(|| JsonError::new("expected array"))?
            .iter()
            .enumerate()
            .map(|(i, x)| T::from_json(x).map_err(|e| e.at_index(i)))
            .collect()
    }
}

impl<T: ToJson> ToJson for VecDeque<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Array(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Json) -> Result<(A, B), JsonError> {
        let xs = v
            .as_array()
            .ok_or_else(|| JsonError::new("expected 2-element array"))?;
        if xs.len() != 2 {
            return Err(JsonError::new("expected 2-element array"));
        }
        Ok((
            A::from_json(&xs[0]).map_err(|e| e.at_index(0))?,
            B::from_json(&xs[1]).map_err(|e| e.at_index(1))?,
        ))
    }
}

// ---------------------------------------------------------------------------
// Parser.

/// How deeply [`Json::parse`] lets arrays and objects nest. The parser
/// recurses once per level, so the cap turns a hostile document (say
/// 50,000 `[`) into a [`JsonError`] instead of a stack overflow. Every
/// document the workspace writes nests at most 6 levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(JsonError::new(format!(
                "expected '{}' at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{' | b'[') if self.depth == MAX_DEPTH => Err(JsonError::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ))),
            Some(open @ (b'{' | b'[')) => {
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(JsonError::new(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(xs));
        }
        loop {
            self.skip_ws();
            xs.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(xs));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected ',' or ']' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError::new("invalid utf-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| JsonError::new("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| JsonError::new("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError::new("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed for our own
                            // output (we never escape above U+001F).
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError::new("bad \\u code point"))?,
                            );
                        }
                        _ => return Err(JsonError::new("unknown escape")),
                    }
                }
                _ => return Err(JsonError::new("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new("invalid number"))?;
        if float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| JsonError::new(format!("invalid number '{text}'")))
        } else if let Some(stripped) = text.strip_prefix('-') {
            stripped
                .parse::<i64>()
                .map(|i| Json::Int(-i))
                .map_err(|_| JsonError::new(format!("invalid number '{text}'")))
        } else {
            text.parse::<u64>()
                .map(Json::UInt)
                .map_err(|_| JsonError::new(format!("invalid number '{text}'")))
        }
    }
}

// ---------------------------------------------------------------------------
// Macros.

/// Builds a [`Json`] value from a literal-shaped expression.
///
/// Supports flat objects `json!({ "k": expr, .. })`, arrays
/// `json!([a, b])`, `json!(null)`, and any [`ToJson`] leaf `json!(expr)`.
/// Unlike `serde_json::json!`, nested object literals must be built with
/// nested `json!` calls — which is how every call site in this workspace
/// already writes them.
#[macro_export]
macro_rules! json {
    (null) => {
        $crate::json::Json::Null
    };
    ({}) => {
        $crate::json::Json::object()
    };
    ({ $($key:tt : $value:expr),+ $(,)? }) => {{
        let mut obj = $crate::json::Json::object();
        $( obj.insert($key, $crate::json::ToJson::to_json(&$value)); )*
        obj
    }};
    ([ $($value:expr),* $(,)? ]) => {
        $crate::json::Json::Array(vec![ $( $crate::json::ToJson::to_json(&$value) ),* ])
    };
    ($value:expr) => {
        $crate::json::ToJson::to_json(&$value)
    };
}

/// Derives [`ToJson`] + [`FromJson`] for a plain struct with named fields.
///
/// Fields listed with `= default` fall back to that expression when the
/// key is absent (the `#[serde(default)]` analogue). Decoding is strict:
/// a key outside the field list is an error naming its full path and
/// the nearest field ([`crate::strict`]). A list ending in `..` makes
/// the type's own level lenient instead, for documents that carry keys
/// the reader does not model; its nested derived fields stay strict.
/// Every other error names its path too (``at `fixtures[0].seed`:
/// expected unsigned integer for u64``, ``missing field `x` ``),
/// prefixed by [`JsonError::at_key`]/[`JsonError::at_index`] as it
/// passes up.
///
/// When every field has a default, the macro also implements
/// `Default` from those defaults, so the type must not derive or write
/// its own: `T::default()` and `T::from_json({})` agree by
/// construction.
///
/// ```
/// use uvm_util::impl_json_struct;
///
/// #[derive(Debug, PartialEq)]
/// struct P { x: u32, y: u32 }
/// impl_json_struct!(P { x, y = 7 });
///
/// use uvm_util::{FromJson, Json, ToJson};
/// let p = P { x: 1, y: 2 };
/// let back = P::from_json(&p.to_json()).unwrap();
/// assert_eq!(back, p);
/// let sparse = Json::parse(r#"{"x": 3}"#).unwrap();
/// assert_eq!(P::from_json(&sparse).unwrap(), P { x: 3, y: 7 });
/// let typo = Json::parse(r#"{"x": 3, "z": 1}"#).unwrap();
/// let err = P::from_json(&typo).unwrap_err().to_string();
/// assert!(err.contains("unknown field `z`"));
/// let bad = Json::parse(r#"{"x": "3"}"#).unwrap();
/// let err = P::from_json(&bad).unwrap_err().to_string();
/// assert!(err.contains("at `x`: expected unsigned integer"));
///
/// #[derive(Debug, PartialEq)]
/// struct Q { y: u32 }
/// impl_json_struct!(Q { y = 7 });
/// assert_eq!(Q::default(), Q { y: 7 });
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident = $default:expr),+ , .. $(,)? }) => {
        $crate::impl_json_struct!(@derive $ty, false, $($field = $default),+);
        $crate::impl_json_struct!(@default $ty, $($field = $default),+);
    };
    ($ty:ident { $($field:ident $(= $default:expr)?),+ , .. $(,)? }) => {
        $crate::impl_json_struct!(@derive $ty, false, $($field $(= $default)?),+);
    };
    ($ty:ident { $($field:ident = $default:expr),+ $(,)? }) => {
        $crate::impl_json_struct!(@derive $ty, true, $($field = $default),+);
        $crate::impl_json_struct!(@default $ty, $($field = $default),+);
    };
    ($ty:ident { $($field:ident $(= $default:expr)?),+ $(,)? }) => {
        $crate::impl_json_struct!(@derive $ty, true, $($field $(= $default)?),+);
    };
    (@default $ty:ident, $($field:ident = $default:expr),+) => {
        impl ::core::default::Default for $ty {
            fn default() -> Self {
                $ty {
                    $( $field: $default, )+
                }
            }
        }
    };
    (@derive $ty:ident, $strict:literal, $($field:ident $(= $default:expr)?),+) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                let mut obj = $crate::json::Json::object();
                $( obj.insert(
                    stringify!($field),
                    $crate::json::ToJson::to_json(&self.$field),
                ); )+
                obj
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                if $strict {
                    $crate::strict::reject_unknown_keys(v, &[$(stringify!($field)),+])?;
                }
                Ok($ty {
                    $( $field: $crate::impl_json_struct!(
                        @field v, $field $(, $default)?
                    ), )+
                })
            }
        }
    };
    (@field $v:ident, $field:ident) => {
        $crate::json::field($v, stringify!($field))?
    };
    (@field $v:ident, $field:ident, $default:expr) => {
        match $v.get(stringify!($field)) {
            Some(x) => $crate::json::FromJson::from_json(x)
                .map_err(|e| e.at_key(stringify!($field)))?,
            None => $default,
        }
    };
}

/// Derives [`ToJson`] + [`FromJson`] for an enum of unit variants,
/// serialized as their name strings (the serde externally-tagged form).
#[macro_export]
macro_rules! impl_json_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Str(
                    match self {
                        $( $ty::$variant => stringify!($variant), )+
                    }
                    .to_string(),
                )
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                match v.as_str() {
                    $( Some(stringify!($variant)) => Ok($ty::$variant), )+
                    _ => Err($crate::json::JsonError::new(concat!(
                        "invalid variant for ", stringify!($ty)
                    ))),
                }
            }
        }
    };
}

/// Derives [`ToJson`] + [`FromJson`] for a single-field tuple struct
/// (newtype), serialized transparently as its inner value.
#[macro_export]
macro_rules! impl_json_newtype {
    ($($ty:ident),+ $(,)?) => {$(
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::ToJson::to_json(&self.0)
            }
        }

        impl $crate::json::FromJson for $ty {
            fn from_json(
                v: &$crate::json::Json,
            ) -> Result<Self, $crate::json::JsonError> {
                Ok($ty($crate::json::FromJson::from_json(v)?))
            }
        }
    )+};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_macro_builds_objects_and_arrays() {
        let v = crate::json!({ "a": 1u32, "b": "two", "c": 0.5, "d": true });
        assert_eq!(v["a"].as_u64(), Some(1));
        assert_eq!(v["b"].as_str(), Some("two"));
        assert_eq!(v["c"].as_f64(), Some(0.5));
        assert_eq!(v["d"].as_bool(), Some(true));
        assert!(v["missing"].is_null());

        let arr = crate::json!([1u64, 2u64, 3u64]);
        assert_eq!(arr[1].as_u64(), Some(2));
        assert!(crate::json!(null).is_null());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let at_cap = nested(MAX_DEPTH, open, close).replace("{\"a\":}", "{\"a\":1}");
            assert!(Json::parse(&at_cap).is_ok(), "{open} x {MAX_DEPTH}");
            let over = nested(MAX_DEPTH + 1, open, close).replace("{\"a\":}", "{\"a\":1}");
            let e = Json::parse(&over).unwrap_err();
            let cap = format!("nesting deeper than {MAX_DEPTH} levels");
            assert!(e.to_string().contains(&cap), "{e}");
        }
        // Far past the cap: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(50_000)).is_err());
        // Siblings do not add up: depth is per path.
        let wide = format!("[{}]", vec![nested(MAX_DEPTH - 1, "[", "]"); 3].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn compact_serialization_is_stable() {
        let v = crate::json!({ "b": 2u32, "a": 1u32, "s": "x\"y\n" });
        assert_eq!(v.to_string(), r#"{"b":2,"a":1,"s":"x\"y\n"}"#);
    }

    #[test]
    fn pretty_matches_shape() {
        let v = crate::json!({ "a": 1u32, "xs": crate::json!([1u32]) });
        assert_eq!(v.pretty(), "{\n  \"a\": 1,\n  \"xs\": [\n    1\n  ]\n}");
        assert_eq!(Json::object().pretty(), "{}");
    }

    #[test]
    fn roundtrip_through_parser() {
        let v = crate::json!({
            "neg": -5i64,
            "big": u64::MAX,
            "f": 0.25,
            "nested": crate::json!({ "xs": crate::json!([1u32, 2u32]) }),
            "none": Option::<u64>::None,
            "esc": "tab\tquote\"backslash\\",
        });
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        let pretty = v.pretty();
        assert_eq!(Json::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("tru").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn index_mut_autovivifies() {
        let mut v = Json::Null;
        v["hpe"] = crate::json!({ "x": 1u32 });
        v["hpe"]["y"] = crate::json!(2u32);
        assert_eq!(v["hpe"]["x"].as_u64(), Some(1));
        assert_eq!(v["hpe"]["y"].as_u64(), Some(2));
    }

    #[test]
    fn numbers_convert_across_variants() {
        assert_eq!(u32::from_json(&Json::UInt(7)).unwrap(), 7);
        assert!(u32::from_json(&Json::UInt(u64::MAX)).is_err());
        assert_eq!(i64::from_json(&Json::Int(-3)).unwrap(), -3);
        assert_eq!(f64::from_json(&Json::UInt(20)).unwrap(), 20.0);
        assert_eq!(f64::from_json(&Json::Float(0.3)).unwrap(), 0.3);
        assert!(u64::from_json(&Json::Str("x".into())).is_err());
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        assert_eq!(crate::json!(f64::NAN).to_string(), "null");
        assert_eq!(crate::json!(f64::INFINITY).to_string(), "null");
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        a: u32,
        b: f64,
        c: Option<String>,
    }
    crate::impl_json_struct!(Demo { a, b = 1.5, c });

    #[test]
    fn struct_macro_roundtrips_with_defaults() {
        let d = Demo {
            a: 4,
            b: 2.25,
            c: Some("hi".into()),
        };
        assert_eq!(Demo::from_json(&d.to_json()).unwrap(), d);
        let sparse = Json::parse(r#"{"a": 9, "c": null}"#).unwrap();
        assert_eq!(
            Demo::from_json(&sparse).unwrap(),
            Demo {
                a: 9,
                b: 1.5,
                c: None
            }
        );
        assert!(Demo::from_json(&Json::parse(r#"{"b": 1.0}"#).unwrap()).is_err());
    }

    #[derive(Debug)]
    struct Fixture {
        seed: u64,
    }
    crate::impl_json_struct!(Fixture { seed });

    #[derive(Debug)]
    struct Spec {
        fixtures: Vec<Fixture>,
        pairs: Vec<(u64, u32)>,
    }
    crate::impl_json_struct!(Spec {
        fixtures,
        pairs = Vec::new()
    });

    #[test]
    fn every_decode_error_names_its_path() {
        let err = |text: &str| {
            let v = Json::parse(text).unwrap();
            Spec::from_json(&v).unwrap_err().to_string()
        };
        assert_eq!(
            err(r#"{"fixtures": [{"seed": "x"}]}"#),
            "json error: at `fixtures[0].seed`: expected unsigned integer for u64"
        );
        assert_eq!(
            err(r#"{"fixtures": [{"seed": 1}, {}]}"#),
            "json error: missing field `fixtures[1].seed`"
        );
        assert_eq!(
            err(r#"{"fixtures": [], "pairs": [[1, 2], [3, -4]]}"#),
            "json error: at `pairs[1][1]`: expected unsigned integer for u32"
        );
        assert_eq!(
            err(r#"{"fixtures": 5}"#),
            "json error: at `fixtures`: expected array"
        );
        assert_eq!(err("{}"), "json error: missing field `fixtures`");
        assert_eq!(err("[]"), "json error: expected object");
    }

    #[derive(Debug, PartialEq)]
    enum Color {
        Red,
        Green,
    }
    crate::impl_json_enum!(Color { Red, Green });

    #[derive(Debug, PartialEq)]
    struct Wrapped(u64);
    crate::impl_json_newtype!(Wrapped);

    #[test]
    fn enum_and_newtype_macros_roundtrip() {
        assert_eq!(Color::Red.to_json().as_str(), Some("Red"));
        assert_eq!(
            Color::from_json(&Json::Str("Green".into())).unwrap(),
            Color::Green
        );
        assert!(Color::from_json(&Json::Str("Blue".into())).is_err());
        let w = Wrapped(99);
        assert_eq!(w.to_json().as_u64(), Some(99));
        assert_eq!(Wrapped::from_json(&w.to_json()).unwrap(), w);
    }

    #[test]
    fn tuples_and_collections() {
        let pairs: Vec<(u64, u32)> = vec![(1, 2), (3, 4)];
        let j = pairs.to_json();
        assert_eq!(j.to_string(), "[[1,2],[3,4]]");
        let back: Vec<(u64, u32)> = Vec::from_json(&j).unwrap();
        assert_eq!(back, pairs);
    }
}
