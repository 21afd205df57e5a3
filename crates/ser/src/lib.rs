//! # gddr-ser
//!
//! In-tree JSON serialization for the GDDR reproduction — the hermetic
//! replacement for `serde` + the serializer that previously lived in
//! `gddr-bench::json`.
//!
//! The workspace serializes three kinds of artifacts: experiment
//! results (the figure JSON files under `results/`), experiment
//! configs, and parameter checkpoints. All are trees of numbers,
//! strings, arrays and objects, so the machinery is a small explicit
//! value model ([`Json`]) plus two traits:
//!
//! - [`ToJson`] — build a [`Json`] tree, then [`Json::to_string`]
//!   writes compact JSON identical in shape to what the old
//!   serde-based path produced;
//! - [`FromJson`] — rebuild a value from a parsed [`Json`] tree
//!   ([`Json::parse`]).
//!
//! Structs and tagged enums get both impls from one declaration:
//! [`json_struct!`] and [`json_enum!`] wrap the type's definition and
//! expand to the same `Json::obj([...])` calls a hand-written impl
//! makes, so the output is byte-identical to it (the
//! `integration_wire` fixtures pin this). Decoding builds the value
//! with a struct literal, so no field can be skipped. Integers decode
//! exactly: a fractional number, one outside the target type, or one
//! above 2^53 in magnitude is an error, never a silent cast.
//!
//! ```
//! use gddr_ser::{FromJson, Json, ToJson};
//!
//! let v: Vec<(usize, f64)> = vec![(10, -1.5)];
//! let text = v.to_json().to_string();
//! assert_eq!(text, "[[10,-1.5]]");
//! let back = Vec::<(usize, f64)>::from_json(&Json::parse(&text).unwrap()).unwrap();
//! assert_eq!(back, v);
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// A JSON value.
///
/// Numbers are kept as `f64` (JSON has a single number type); object
/// keys are ordered by insertion via a `Vec` to keep output stable and
/// match struct-field declaration order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

/// Serialization / deserialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

impl JsonError {
    fn new(msg: impl Into<String>) -> Self {
        JsonError(msg.into())
    }
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("string write");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl Json {
    /// An object builder: `Json::obj([("k", v.to_json()), ...])`.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a field of an object.
    ///
    /// # Errors
    ///
    /// Fails if `self` is not an object or the key is absent.
    pub fn field<'a>(&'a self, key: &str) -> Result<&'a Json, JsonError> {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| JsonError::new(format!("missing field {key:?}"))),
            other => Err(JsonError::new(format!(
                "expected object with field {key:?}, got {}",
                other.kind()
            ))),
        }
    }

    /// The array elements.
    ///
    /// # Errors
    ///
    /// Fails if `self` is not an array.
    pub fn elements(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(JsonError::new(format!(
                "expected array, got {}",
                other.kind()
            ))),
        }
    }

    /// The number as an exact integer.
    ///
    /// # Errors
    ///
    /// Fails unless `self` is a finite, integral number of magnitude
    /// at most 2^53: above that, `f64` no longer holds every integer,
    /// so the value on the wire may not be the value that was written.
    fn integer(&self) -> Result<i64, JsonError> {
        const MAX_EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Num(v) if v.fract() == 0.0 && v.abs() <= MAX_EXACT => Ok(*v as i64),
            Json::Num(v) => Err(JsonError::new(format!(
                "expected an integer of magnitude at most 2^53, got {v}"
            ))),
            other => Err(JsonError::new(format!(
                "expected number, got {}",
                other.kind()
            ))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Writes compact JSON.
    ///
    /// Integral floats print without a decimal point (`10000`, not
    /// `10000.0`), matching the previous serializer's output so
    /// existing artifact shapes are unchanged.
    ///
    /// # Panics
    ///
    /// Panics on non-finite numbers: results containing NaN or
    /// infinity indicate a bug upstream and must fail loudly rather
    /// than emit invalid JSON.
    #[allow(clippy::inherent_to_string)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                assert!(v.is_finite(), "non-finite float {v} cannot be serialised");
                write!(out, "{v}").expect("string write");
            }
            Json::Str(s) => escape_into(out, s),
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
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Fails on malformed input or trailing non-whitespace.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(JsonError::new(format!(
                "trailing characters at byte {}",
                p.pos
            )));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
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
                "expected {:?} at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(JsonError::new(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError::new(format!(
                "unexpected {:?} at byte {}",
                other as char, self.pos
            ))),
            None => Err(JsonError::new("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
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
                _ => return Err(JsonError::new(format!("bad array at byte {}", self.pos))),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(JsonError::new(format!("bad object at byte {}", self.pos))),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError::new("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| JsonError::new("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| JsonError::new("bad \\u escape"))?;
                            // Only BMP escapes are produced by the
                            // writer; surrogate pairs are rejected.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError::new("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(JsonError::new("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one UTF-8 character (input is valid UTF-8
                    // by construction of `&str`).
                    let s = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| JsonError::new("invalid utf-8"))?;
                    let c = s.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err(JsonError::new("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::new("invalid utf-8 in number"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError::new(format!("bad number {text:?} at byte {start}")))
    }
}

/// Types that serialize to a [`Json`] tree.
pub trait ToJson {
    /// Builds the JSON representation.
    fn to_json(&self) -> Json;
}

/// Types that deserialize from a [`Json`] tree.
pub trait FromJson: Sized {
    /// Rebuilds a value from JSON.
    ///
    /// # Errors
    ///
    /// Fails on shape or type mismatches.
    fn from_json(json: &Json) -> Result<Self, JsonError>;
}

/// Serializes a value to a compact JSON string — the drop-in
/// replacement for the old serde-based `to_json`.
///
/// # Errors
///
/// This signature keeps the old fallible contract; the current
/// implementation only fails by panicking on non-finite floats.
pub fn to_json_string<T: ToJson>(value: &T) -> Result<String, JsonError> {
    Ok(value.to_json().to_string())
}

/// Parses a JSON string into a value.
///
/// # Errors
///
/// Fails on malformed JSON or shape mismatches.
pub fn from_json_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

// --- impls for primitives and std containers -------------------------

macro_rules! float_impls {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(json: &Json) -> Result<Self, JsonError> {
                match json {
                    Json::Num(v) => Ok(*v as $t),
                    other => Err(JsonError::new(format!(
                        "expected number, got {}", other.kind()
                    ))),
                }
            }
        }
    )*};
}
float_impls!(f64, f32);

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(json: &Json) -> Result<Self, JsonError> {
                let v = json.integer()?;
                <$t>::try_from(v).map_err(|_| {
                    JsonError::new(format!("integer {v} is out of range for {}", stringify!($t)))
                })
            }
        }
    )*};
}
int_impls!(usize, u64, u32, u16, u8, isize, i64, i32, i16, i8);

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::new(format!(
                "expected bool, got {}",
                other.kind()
            ))),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Str(s) => Ok(s.clone()),
            other => Err(JsonError::new(format!(
                "expected string, got {}",
                other.kind()
            ))),
        }
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(json.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        json.elements()?.iter().map(T::from_json).collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.elements()? {
            [a, b] => Ok((A::from_json(a)?, B::from_json(b)?)),
            other => Err(JsonError::new(format!(
                "expected 2-element array, got {} elements",
                other.len()
            ))),
        }
    }
}

impl<A: ToJson, B: ToJson, C: ToJson> ToJson for (A, B, C) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json(), self.2.to_json()])
    }
}

impl<A: FromJson, B: FromJson, C: FromJson> FromJson for (A, B, C) {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json.elements()? {
            [a, b, c] => Ok((A::from_json(a)?, B::from_json(b)?, C::from_json(c)?)),
            other => Err(JsonError::new(format!(
                "expected 3-element array, got {} elements",
                other.len()
            ))),
        }
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        match json {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
                .collect(),
            other => Err(JsonError::new(format!(
                "expected object, got {}",
                other.kind()
            ))),
        }
    }
}

/// Field codec for `Vec<(String, T)>` written as a JSON object, with
/// keys in vector order: `[("a", 1)]` ↔ `{"a":1}`. Use it on a
/// declared field with `as named` (see [`json_struct!`]).
pub mod named {
    use super::{FromJson, Json, JsonError, ToJson};

    /// Encodes the pairs as one object, order preserved.
    pub fn to_json<T: ToJson>(pairs: &[(String, T)]) -> Json {
        Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), v.to_json()))
                .collect(),
        )
    }

    /// Decodes an object into its pairs, order preserved.
    ///
    /// # Errors
    ///
    /// Fails if `json` is not an object or a value does not decode.
    pub fn from_json<T: FromJson>(json: &Json) -> Result<Vec<(String, T)>, JsonError> {
        match json {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| Ok((k.clone(), T::from_json(v)?)))
                .collect(),
            other => Err(JsonError::new(format!(
                "expected object, got {}",
                other.kind()
            ))),
        }
    }
}

/// Field codec for `[u64; N]` written as decimal strings, exact beyond
/// the 2^53 that JSON numbers hold (e.g. PRNG state words).
pub mod u64_strings {
    use super::{Json, JsonError};

    /// Encodes each word as a decimal string.
    pub fn to_json<const N: usize>(words: &[u64; N]) -> Json {
        Json::Arr(words.iter().map(|w| Json::Str(w.to_string())).collect())
    }

    /// Decodes exactly `N` decimal-string words.
    ///
    /// # Errors
    ///
    /// Fails on a wrong word count or a word that is not a decimal
    /// `u64` string.
    pub fn from_json<const N: usize>(json: &Json) -> Result<[u64; N], JsonError> {
        let words = match json {
            Json::Arr(items) if items.len() == N => items,
            _ => return Err(JsonError::new(format!("expected {N} u64 words"))),
        };
        let mut out = [0u64; N];
        for (slot, w) in out.iter_mut().zip(words) {
            *slot = match w {
                Json::Str(text) => text
                    .parse::<u64>()
                    .map_err(|e| JsonError::new(format!("bad u64 word {text:?}: {e}")))?,
                _ => return Err(JsonError::new("u64 word must be a string")),
            };
        }
        Ok(out)
    }
}

// --- declarative codecs ----------------------------------------------

/// Declares a struct and its [`ToJson`] / [`FromJson`] impls from one
/// field list.
///
/// The struct is written as usual, attributes and doc comments
/// included. It encodes as one object with a key per field, named
/// after the field, in declaration order. Each field goes through its
/// type's own `ToJson` / `FromJson`, or through the `to_json` /
/// `from_json` functions of a codec module named after `as` (e.g.
/// [`named`]). An optional `validate = check` names a
/// `fn(&Self) -> Result<(), JsonError>` that runs on every decoded
/// value.
///
/// The output is byte-identical to the hand-written
/// `Json::obj([("field", self.field.to_json()), ...])` it replaces,
/// and decoding builds the value with a struct literal, so every field
/// is decoded.
///
/// ```
/// use gddr_ser::{from_json_str, json_struct, named, JsonError, ToJson};
///
/// json_struct! {
///     /// A labelled tally.
///     #[derive(Debug, PartialEq)]
///     pub struct Tally {
///         /// What is counted.
///         pub label: String,
///         /// Count per bucket.
///         pub counts: Vec<(String, u64)> as named,
///     }
///     validate = non_empty
/// }
///
/// fn non_empty(t: &Tally) -> Result<(), JsonError> {
///     if t.label.is_empty() {
///         return Err(JsonError("empty label".into()));
///     }
///     Ok(())
/// }
///
/// let t = Tally { label: "hits".into(), counts: vec![("a".into(), 2)] };
/// let text = t.to_json().to_string();
/// assert_eq!(text, r#"{"label":"hits","counts":{"a":2}}"#);
/// assert_eq!(from_json_str::<Tally>(&text).unwrap(), t);
/// assert!(from_json_str::<Tally>(r#"{"label":"","counts":{}}"#).is_err());
/// ```
#[macro_export]
macro_rules! json_struct {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $ty:ty $(as $($codec:ident)::+)?
            ),* $(,)?
        }
        $(validate = $check:path)?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
        }

        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::obj([$(
                    (
                        stringify!($field),
                        $crate::__json_field!(enc &self.$field $(, $($codec)::+)?),
                    ),
                )*])
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(
                json: &$crate::Json,
            ) -> ::std::result::Result<Self, $crate::JsonError> {
                let value = $name {
                    $( $field: $crate::__json_field!(dec json, $field $(, $($codec)::+)?), )*
                };
                $( $check(&value)?; )?
                Ok(value)
            }
        }
    };
}

/// Declares an enum of struct-like variants and its [`ToJson`] /
/// [`FromJson`] impls from one variant list.
///
/// Each variant encodes as one object: first the tag key named after
/// `tagged`, holding the variant's wire tag, then its fields exactly
/// as [`json_struct!`] writes them. Decoding dispatches on the tag;
/// an unknown tag is an error.
///
/// The expansion also gives the enum:
/// - `SCHEMA`, each wire tag in declaration order with its fields as
///   `(name, type)` strings (`"Vec<(String, String)> as named"` for a
///   field with a codec), so a generator can build every kind without
///   a second list;
/// - `kind()`, the wire tag of a value.
///
/// A trailing `fn name(&self) -> Type;` declares one more method, and
/// then every variant ends in `=> expr`: the method's value for that
/// variant, evaluated with its fields bound by reference. Per-variant
/// facts (a counter, an owner) thus sit next to the fields they read;
/// a variant without one, or an `=> expr` without the method, fails
/// to compile.
///
/// ```
/// use gddr_ser::{json_enum, FromJson, Json, ToJson};
///
/// json_enum! {
///     #[derive(Debug, PartialEq)]
///     pub enum Shape tagged "type" {
///         Circle = "circle" { r: f64 } => None,
///         Tile = "tile" { side: f64, owner: u64 } => Some(*owner),
///     }
///     /// Who owns the shape, if anyone.
///     pub fn owner(&self) -> Option<u64>;
/// }
///
/// let tile = Shape::Tile { side: 2.0, owner: 7 };
/// let text = tile.to_json().to_string();
/// assert_eq!(text, r#"{"type":"tile","side":2,"owner":7}"#);
/// assert_eq!(Shape::from_json(&Json::parse(&text).unwrap()).unwrap(), tile);
/// assert_eq!((tile.kind(), tile.owner()), ("tile", Some(7)));
/// assert_eq!(Shape::SCHEMA[1], ("tile", &[("side", "f64"), ("owner", "u64")][..]));
/// ```
#[macro_export]
macro_rules! json_enum {
    (@facts $name:ident [$( $variant:ident { $($field:ident)* } ),*]) => {};
    (
        @facts $name:ident [$( $variant:ident { $($field:ident)* } => $facts:expr ),*]
        $(#[$meta:meta])* $vis:vis fn $method:ident(&self) -> $ty:ty;
    ) => {
        impl $name {
            $(#[$meta])*
            #[inline]
            #[allow(unused_variables)]
            $vis fn $method(&self) -> $ty {
                match self {
                    $( $name::$variant { $($field),* } => $facts, )*
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident tagged $tag_key:literal {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal {
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident : $ty:ty $(as $($codec:ident)::+)?
                    ),* $(,)?
                } $(=> $facts:expr)?
            ),* $(,)?
        }
        $($method:tt)*
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant { $( $(#[$fmeta])* $field: $ty, )* },
            )*
        }

        impl $name {
            /// Each wire tag with its fields as `(name, type)`, in wire
            /// order; a field with a codec reads `"<type> as <codec>"`.
            pub const SCHEMA: &'static [(&'static str, &'static [(&'static str, &'static str)])] = &[$(
                ($tag, &[$(
                    (
                        stringify!($field),
                        concat!(stringify!($ty) $(, " as ", stringify!($($codec)::+))?),
                    ),
                )*]),
            )*];

            /// The wire tag of this value's variant.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( $name::$variant { .. } => $tag, )*
                }
            }
        }

        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                match self {
                    $(
                        $name::$variant { $($field),* } => $crate::Json::obj([
                            ($tag_key, $crate::ToJson::to_json(&$tag)),
                            $(
                                (
                                    stringify!($field),
                                    $crate::__json_field!(enc $field $(, $($codec)::+)?),
                                ),
                            )*
                        ]),
                    )*
                }
            }
        }

        impl $crate::FromJson for $name {
            fn from_json(
                json: &$crate::Json,
            ) -> ::std::result::Result<Self, $crate::JsonError> {
                let tag = <String as $crate::FromJson>::from_json(json.field($tag_key)?)?;
                match tag.as_str() {
                    $(
                        $tag => Ok($name::$variant {
                            $( $field: $crate::__json_field!(dec json, $field $(, $($codec)::+)?), )*
                        }),
                    )*
                    other => Err($crate::JsonError(format!(
                        "unknown {} {} {other:?}",
                        stringify!($name),
                        $tag_key,
                    ))),
                }
            }
        }

        $crate::json_enum!(@facts $name [$( $variant { $($field)* } $(=> $facts)? ),*] $($method)*);
    };
}

/// One field of a [`json_struct!`] / [`json_enum!`] expansion.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_field {
    (enc $value:expr) => {
        $crate::ToJson::to_json($value)
    };
    (enc $value:expr, $($codec:ident)::+) => {
        $($codec)::+::to_json($value)
    };
    (dec $json:ident, $field:ident) => {
        $crate::FromJson::from_json($json.field(stringify!($field))?)?
    };
    (dec $json:ident, $field:ident, $($codec:ident)::+) => {
        $($codec)::+::from_json($json.field(stringify!($field))?)?
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        for text in ["null", "true", "false", "1", "-2.5", "1e3", "\"hi\""] {
            let v = Json::parse(text).unwrap();
            let back = Json::parse(&v.to_string()).unwrap();
            assert_eq!(v, back, "{text}");
        }
    }

    #[test]
    fn integral_floats_print_without_decimal_point() {
        assert_eq!(Json::Num(10000.0).to_string(), "10000");
        assert_eq!(Json::Num(2.5).to_string(), "2.5");
    }

    #[test]
    fn struct_shape_matches_old_serializer() {
        // The exact output the serde-based serializer produced for the
        // same logical value (see the old gddr-bench::json tests).
        let s = Json::obj([
            ("name", "fig6".to_json()),
            ("values", vec![1.0, 2.5].to_json()),
            ("pair", (3usize, 4.5f64).to_json()),
            ("flag", true.to_json()),
            ("missing", (None as Option<u32>).to_json()),
            ("present", Some(7u32).to_json()),
        ]);
        assert_eq!(
            s.to_string(),
            r#"{"name":"fig6","values":[1,2.5],"pair":[3,4.5],"flag":true,"missing":null,"present":7}"#
        );
    }

    #[test]
    fn string_escaping_round_trips() {
        let original = "a\"b\\c\nd\te\u{1}";
        let text = Json::Str(original.to_string()).to_string();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(original.to_string()));
    }

    #[test]
    fn unicode_survives() {
        let s = "ρ→λ graph ☂";
        let text = Json::Str(s.to_string()).to_string();
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(s.to_string()));
    }

    #[test]
    fn nested_structures_round_trip() {
        let text = r#"{"a":[1,[2,3],{"b":null}],"c":{"d":[true,false]}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
    }

    #[test]
    fn whitespace_tolerated_on_parse() {
        let v = Json::parse(" { \"a\" : [ 1 , 2 ] } ").unwrap();
        assert_eq!(v.to_string(), r#"{"a":[1,2]}"#);
    }

    #[test]
    fn parse_errors_are_reported() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_floats_panic() {
        Json::Num(f64::NAN).to_string();
    }

    #[test]
    fn tuples_and_options_round_trip() {
        let log: Vec<(usize, f64)> = vec![(10, -1.5), (20, 0.25)];
        let text = log.to_json().to_string();
        assert_eq!(text, "[[10,-1.5],[20,0.25]]");
        let back: Vec<(usize, f64)> = from_json_str(&text).unwrap();
        assert_eq!(back, log);

        let triple: Vec<(usize, f64, f64)> = vec![(1, 2.0, -3.5)];
        let back3: Vec<(usize, f64, f64)> = from_json_str(&triple.to_json().to_string()).unwrap();
        assert_eq!(back3, triple);

        let opt: Option<u32> = None;
        assert_eq!(opt.to_json().to_string(), "null");
        assert_eq!(from_json_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_json_str::<Option<u32>>("5").unwrap(), Some(5));
    }

    #[test]
    fn maps_round_trip() {
        let mut m = BTreeMap::new();
        m.insert("k1".to_string(), 1u32);
        m.insert("k2".to_string(), 2u32);
        let text = m.to_json().to_string();
        assert_eq!(text, r#"{"k1":1,"k2":2}"#);
        let back: BTreeMap<String, u32> = from_json_str(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn field_lookup_and_errors() {
        let v = Json::parse(r#"{"a":1}"#).unwrap();
        assert_eq!(f64::from_json(v.field("a").unwrap()).unwrap(), 1.0);
        assert!(v.field("b").is_err());
        assert!(Json::Num(1.0).field("a").is_err());
        assert!(Json::Num(1.0).elements().is_err());
        assert!(String::from_json(&Json::Num(1.0)).is_err());
        assert!(bool::from_json(&Json::Null).is_err());
        assert!(u32::from_json(&Json::Str("x".into())).is_err());
    }

    #[test]
    fn numbers_round_trip_precisely() {
        for v in [0.1, 1.0 / 3.0, 1e-300, 123456789.123456, -0.0] {
            let text = Json::Num(v).to_string();
            match Json::parse(&text).unwrap() {
                Json::Num(back) => assert_eq!(back, v, "{text}"),
                other => panic!("expected number, got {other:?}"),
            }
        }
    }

    #[test]
    fn integers_reject_lossy_numbers() {
        // A saturating `as` cast would read these as 0, 2, u64::MAX and
        // 2^53 + 2, which f64 cannot tell apart from 2^53 + 1.
        for text in ["-1", "2.5", "1e300", "9007199254740994", "1e400", "-1e400"] {
            let json = Json::parse(text).unwrap();
            assert!(u64::from_json(&json).is_err(), "u64 from {text}");
            assert!(usize::from_json(&json).is_err(), "usize from {text}");
            assert!(u32::from_json(&json).is_err(), "u32 from {text}");
        }
        assert!(u8::from_json(&Json::Num(256.0)).is_err());
        assert!(i8::from_json(&Json::Num(-129.0)).is_err());
        assert!(u64::from_json(&Json::Num(f64::NAN)).is_err());
    }

    #[test]
    fn in_range_integers_round_trip() {
        for v in [0u64, 1, 255, (1 << 53) - 1, 1 << 53] {
            let back: u64 = from_json_str(&v.to_json().to_string()).unwrap();
            assert_eq!(back, v);
        }
        for v in [i64::from(i8::MIN), -1, 0, -(1 << 53)] {
            let back: i64 = from_json_str(&v.to_json().to_string()).unwrap();
            assert_eq!(back, v);
        }
        assert_eq!(from_json_str::<i8>("-128").unwrap(), i8::MIN);
        assert_eq!(from_json_str::<u8>("255").unwrap(), u8::MAX);
        assert_eq!(from_json_str::<usize>("1e3").unwrap(), 1000);
    }

    #[test]
    fn u64_strings_are_exact_and_checked() {
        let words = [u64::MAX, (1 << 53) + 1, 0];
        let json = u64_strings::to_json(&words);
        assert_eq!(
            json.to_string(),
            r#"["18446744073709551615","9007199254740993","0"]"#
        );
        assert_eq!(u64_strings::from_json::<3>(&json).unwrap(), words);
        for bad in [
            r#"["1","2"]"#,
            r#"["1","2",3]"#,
            r#"["1","2","-3"]"#,
            r#"{"a":"1"}"#,
        ] {
            let json = Json::parse(bad).unwrap();
            assert!(u64_strings::from_json::<3>(&json).is_err(), "{bad}");
        }
    }

    json_struct! {
        #[derive(Debug, PartialEq)]
        struct Probe {
            id: u32,
            tags: Vec<(String, f64)> as named,
            note: Option<String>,
        }
        validate = probe_is_sorted
    }

    fn probe_is_sorted(p: &Probe) -> Result<(), JsonError> {
        if p.tags.windows(2).any(|w| w[0].0 > w[1].0) {
            return Err(JsonError::new("tags out of order"));
        }
        Ok(())
    }

    #[test]
    fn declared_struct_encodes_fields_in_order_and_validates() {
        let p = Probe {
            id: 3,
            tags: vec![("a".into(), 0.5), ("b".into(), -1.0)],
            note: None,
        };
        let text = p.to_json().to_string();
        assert_eq!(text, r#"{"id":3,"tags":{"a":0.5,"b":-1},"note":null}"#);
        assert_eq!(from_json_str::<Probe>(&text).unwrap(), p);
        for bad in [
            r#"{"id":3,"tags":{"b":1,"a":2},"note":null}"#,
            r#"{"id":3,"tags":[],"note":null}"#,
            r#"{"id":-3,"tags":{},"note":null}"#,
            r#"{"id":3,"tags":{}}"#,
        ] {
            assert!(from_json_str::<Probe>(bad).is_err(), "{bad}");
        }
    }

    mod doubled {
        use super::super::{FromJson, Json, JsonError, ToJson};

        pub fn to_json(v: &u64) -> Json {
            (v * 2).to_json()
        }

        pub fn from_json(json: &Json) -> Result<u64, JsonError> {
            Ok(u64::from_json(json)? / 2)
        }
    }

    json_enum! {
        #[derive(Debug, PartialEq)]
        enum Note tagged "kind" {
            Empty = "empty" {} => 0,
            Pair = "pair" { left: u64 as doubled, right: String } => *left,
        }
        fn weight(&self) -> u64;
    }

    #[test]
    fn declared_enum_tags_dispatch_and_reports_facts() {
        let notes = [
            Note::Empty {},
            Note::Pair {
                left: 4,
                right: "x".into(),
            },
        ];
        let texts: Vec<String> = notes.iter().map(|n| n.to_json().to_string()).collect();
        assert_eq!(
            texts,
            [
                r#"{"kind":"empty"}"#,
                r#"{"kind":"pair","left":8,"right":"x"}"#
            ]
        );
        for (note, text) in notes.iter().zip(&texts) {
            assert_eq!(&from_json_str::<Note>(text).unwrap(), note);
        }
        assert_eq!(Note::SCHEMA[0], ("empty", &[][..]));
        assert_eq!(
            Note::SCHEMA[1],
            (
                "pair",
                &[("left", "u64 as doubled"), ("right", "String")][..]
            )
        );
        assert_eq!((notes[0].weight(), notes[1].weight()), (0, 4));
        assert_eq!(notes[1].kind(), "pair");
        for bad in [
            r#"{"kind":"trio"}"#,
            r#"{"left":1}"#,
            r#"{"kind":"pair","left":2}"#,
        ] {
            assert!(from_json_str::<Note>(bad).is_err(), "{bad}");
        }
    }
}
