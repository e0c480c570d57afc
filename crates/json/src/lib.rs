//! Minimal, dependency-free JSON for the simulator's interchange formats.
//!
//! The workspace builds in fully offline environments, so scenario/result
//! (de)serialization cannot rely on `serde`/`serde_json`. This crate provides
//! the small slice we need with compatible text output:
//!
//! * [`Value`] — an ordered JSON document model (object key order is
//!   preserved, so struct fields round-trip in declaration order);
//! * [`Value::parse`] — a strict recursive-descent parser;
//! * compact and pretty printers matching `serde_json`'s formatting
//!   conventions (2-space pretty indent, `180.0` for fraction-less floats);
//! * [`ToJson`] / [`FromJson`] traits with impls for primitives, tuples,
//!   `Option`, `Vec`, and `BTreeMap`, plus the [`json_struct!`] /
//!   [`json_transparent!`] macros that stand in for `#[derive(Serialize,
//!   Deserialize)]` on plain structs and newtypes.
//!
//! Enums with data-carrying variants (externally tagged, e.g.
//! `{"Static":{"guard_bus":10}}`) are few enough that their impls are
//! hand-written at the definition site.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer token (no fraction or exponent) that fits `i64`.
    Int(i64),
    /// An integer token that only fits `u64`.
    UInt(u64),
    /// Any other number token.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion-ordered.
    Object(Vec<(String, Value)>),
}

/// Error from parsing or from typed extraction.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl JsonError {
    /// Error for a struct field absent from an object.
    pub fn missing_field(name: &str) -> Self {
        JsonError(format!("missing field `{name}`"))
    }

    /// Error for a type mismatch at extraction time.
    pub fn expected(what: &str, got: &Value) -> Self {
        JsonError(format!("expected {what}, got {}", got.kind()))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) | Value::UInt(_) | Value::Float(_) => "number",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Looks up an object key (linear scan; objects are small).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Parses a JSON document, requiring it to span the entire input.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(v)
    }

    /// Serializes without whitespace (`{"a":1}`).
    pub fn to_compact_string(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Serializes with 2-space indentation, `serde_json`-style.
    pub fn to_pretty_string(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(v) => write_f64(out, *v),
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Value::Array(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Object(fields) if !fields.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// Prints an `f64` the way `serde_json` does: fraction-less finite values
/// keep a trailing `.0` so the token stays a float on re-parse.
fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        // serde_json refuses non-finite floats; `null` is the JSON-legal
        // stand-in and our documents never contain them in practice.
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e16 {
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError(format!("{msg} at byte {}", self.pos))
    }

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

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{kw}`")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null").map(|()| Value::Null),
            Some(b't') => self.eat_keyword("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8"))?,
            );
            match self.peek() {
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
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{08}'),
                        Some(b'f') => s.push('\u{0C}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            s.push(c.ok_or_else(|| self.err("invalid unicode escape"))?);
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated unicode escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("invalid unicode escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !fractional {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Int(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::UInt(n));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| JsonError(format!("invalid number `{text}`")))
    }
}

/// Serialization to the [`Value`] model.
pub trait ToJson {
    /// Converts `self` to a JSON value.
    fn to_json(&self) -> Value;
}

/// Deserialization from the [`Value`] model.
pub trait FromJson: Sized {
    /// Extracts `Self` from a JSON value.
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

/// Serializes to a compact JSON string (cf. `serde_json::to_string`).
pub fn to_string<T: ToJson + ?Sized>(t: &T) -> String {
    t.to_json().to_compact_string()
}

/// Serializes to an indented JSON string (cf. `serde_json::to_string_pretty`).
pub fn to_string_pretty<T: ToJson + ?Sized>(t: &T) -> String {
    t.to_json().to_pretty_string()
}

/// Parses a typed value from JSON text (cf. `serde_json::from_str`).
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Value::parse(text)?)
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(JsonError::expected("bool", other)),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(JsonError::expected("string", other)),
        }
    }
}

impl ToJson for std::sync::Arc<str> {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl FromJson for std::sync::Arc<str> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        String::from_json(v).map(Into::into)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Float(x) => Ok(*x),
            Value::Int(n) => Ok(*n as f64),
            Value::UInt(n) => Ok(*n as f64),
            other => Err(JsonError::expected("number", other)),
        }
    }
}

macro_rules! impl_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::UInt(*self as u64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                let n = match v {
                    Value::UInt(n) => *n,
                    Value::Int(n) if *n >= 0 => *n as u64,
                    other => return Err(JsonError::expected("unsigned integer", other)),
                };
                <$t>::try_from(n)
                    .map_err(|_| JsonError(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                let n = match v {
                    Value::Int(n) => *n,
                    Value::UInt(n) => i64::try_from(*n)
                        .map_err(|_| JsonError(format!("{n} out of range for i64")))?,
                    other => return Err(JsonError::expected("integer", other)),
                };
                <$t>::try_from(n)
                    .map_err(|_| JsonError(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}
impl_json_int!(i8, i16, i32, i64);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(t) => t.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_json).collect(),
            other => Err(JsonError::expected("array", other)),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Array(items) if items.len() == 2 => {
                Ok((A::from_json(&items[0])?, B::from_json(&items[1])?))
            }
            other => Err(JsonError::expected("2-element array", other)),
        }
    }
}

/// Map keys usable in JSON objects (serialized as strings, like `serde_json`).
pub trait JsonKey: Ord + Sized {
    /// The string form of the key.
    fn to_key(&self) -> String;
    /// Parses the key back from its string form.
    fn from_key(key: &str) -> Result<Self, JsonError>;
}

impl JsonKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(key: &str) -> Result<Self, JsonError> {
        Ok(key.to_string())
    }
}

macro_rules! impl_json_key_int {
    ($($t:ty),*) => {$(
        impl JsonKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(key: &str) -> Result<Self, JsonError> {
                key.parse()
                    .map_err(|_| JsonError(format!("invalid map key `{key}`")))
            }
        }
    )*};
}
impl_json_key_int!(u8, u16, u32, u64, usize, i32, i64);

impl<K: JsonKey, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_key(), v.to_json()))
                .collect(),
        )
    }
}

impl<K: JsonKey, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::from_json(v)?)))
                .collect(),
            other => Err(JsonError::expected("object", other)),
        }
    }
}

/// Derives [`ToJson`]/[`FromJson`] for a plain struct, listing every field.
///
/// Fields serialize in the listed order; unknown keys are ignored on input
/// and missing keys are an error (matching our own output exactly).
#[macro_export]
macro_rules! json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                $crate::Value::Object(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::ToJson::to_json(&self.$field),
                    ),)+
                ])
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Value) -> Result<Self, $crate::JsonError> {
                $(
                    let $field = $crate::FromJson::from_json(
                        v.get(stringify!($field))
                            .ok_or_else(|| $crate::JsonError::missing_field(stringify!($field)))?,
                    )?;
                )+
                Ok(Self { $($field),+ })
            }
        }
    };
}

/// Derives [`ToJson`]/[`FromJson`] for a single-field tuple struct,
/// serializing as the bare inner value (cf. `#[serde(transparent)]`).
#[macro_export]
macro_rules! json_transparent {
    ($ty:ty) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                $crate::ToJson::to_json(&self.0)
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Value) -> Result<Self, $crate::JsonError> {
                Ok(Self($crate::FromJson::from_json(v)?))
            }
        }
    };
}

/// Derives [`ToJson`]/[`FromJson`] for a fieldless enum, serializing each
/// variant as its name string (serde's externally-tagged unit form).
#[macro_export]
macro_rules! json_unit_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Value {
                let name = match self {
                    $($ty::$variant => stringify!($variant),)+
                };
                $crate::Value::Str(name.to_string())
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(v: &$crate::Value) -> Result<Self, $crate::JsonError> {
                match v {
                    $crate::Value::Str(s) => match s.as_str() {
                        $(stringify!($variant) => Ok($ty::$variant),)+
                        other => Err($crate::JsonError(format!(
                            "unknown {} variant `{other}`",
                            stringify!($ty)
                        ))),
                    },
                    other => Err($crate::JsonError::expected("variant string", other)),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_prints_scalars() {
        assert_eq!(Value::parse("null").unwrap(), Value::Null);
        assert_eq!(Value::parse("true").unwrap(), Value::Bool(true));
        assert_eq!(Value::parse("-5").unwrap(), Value::Int(-5));
        assert_eq!(Value::parse("180.0").unwrap(), Value::Float(180.0));
        assert_eq!(Value::parse("1e-3").unwrap(), Value::Float(1e-3));
        assert_eq!(
            Value::parse("18446744073709551615").unwrap(),
            Value::UInt(u64::MAX)
        );
        assert_eq!(Value::Float(180.0).to_compact_string(), "180.0");
        assert_eq!(Value::Float(0.25).to_compact_string(), "0.25");
        assert_eq!(Value::Int(-5).to_compact_string(), "-5");
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "a\"b\\c\nd\te\u{08}\u{0C}\u{1}é𝄞";
        let printed = Value::Str(original.to_string()).to_compact_string();
        assert_eq!(Value::parse(&printed).unwrap(), Value::Str(original.into()));
        // Escaped input forms parse too.
        assert_eq!(Value::parse(r#""A𝄞""#).unwrap(), Value::Str("A𝄞".into()));
    }

    #[test]
    fn object_order_preserved_and_lossless() {
        let text = r#"{"b":1,"a":[1,2.5,null],"c":{"x":true}}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.to_compact_string(), text);
        // Pretty output re-parses to the same value.
        assert_eq!(Value::parse(&v.to_pretty_string()).unwrap(), v);
    }

    #[test]
    fn pretty_format_matches_serde_json_conventions() {
        let v = Value::Object(vec![
            ("a".into(), Value::UInt(1)),
            ("b".into(), Value::Array(vec![Value::Bool(true)])),
            ("empty".into(), Value::Object(vec![])),
        ]);
        assert_eq!(
            v.to_pretty_string(),
            "{\n  \"a\": 1,\n  \"b\": [\n    true\n  ],\n  \"empty\": {}\n}"
        );
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"abc", "{'a':1}",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn typed_roundtrip_with_macros() {
        #[derive(Debug, PartialEq)]
        struct Inner(u32);
        json_transparent!(Inner);

        #[derive(Debug, PartialEq)]
        enum Mode {
            Fast,
            Careful,
        }
        json_unit_enum!(Mode { Fast, Careful });

        #[derive(Debug, PartialEq)]
        struct Config {
            id: Inner,
            ratio: f64,
            mode: Mode,
            range: (f64, f64),
            tags: Vec<String>,
            opt: Option<u64>,
        }
        json_struct!(Config {
            id,
            ratio,
            mode,
            range,
            tags,
            opt
        });

        let original = Config {
            id: Inner(7),
            ratio: 0.5,
            mode: Mode::Careful,
            range: (80.0, 120.0),
            tags: vec!["a".into()],
            opt: None,
        };
        let text = to_string_pretty(&original);
        assert_eq!(from_str::<Config>(&text), Ok(original));
        assert!(text.contains("\"mode\": \"Careful\""));
        assert!(text.contains("\"opt\": null"));
    }

    #[test]
    fn map_keys_stringify() {
        let mut m = BTreeMap::new();
        m.insert(4u32, vec![1.5f64]);
        assert_eq!(to_string(&m), r#"{"4":[1.5]}"#);
        assert_eq!(
            from_str::<BTreeMap<u32, Vec<f64>>>(r#"{"4":[1.5]}"#).unwrap(),
            m
        );
    }
}
