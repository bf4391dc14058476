//! The workspace's one JSON reader and writer.
//!
//! Every artifact the workspace emits — ledger and history lines,
//! `manifest.json`, `crit.json`/`search.json`/`quality.json`, BENCH
//! records, the trace and event streams, the live routes — is written by
//! hand in a pinned field order, and read back by the inspectors and
//! gates. Both directions share this module:
//!
//! * **write**: [`string`] (the escaper), [`num`] (shortest round-trip
//!   form, `null` when non-finite), [`fixed`] (fixed decimals, `null`
//!   when non-finite), [`u64_array`] / [`f64_array`], and the
//!   [`Value::render`] pretty-printer behind the [`ToJson`] trait for
//!   data artifacts;
//! * **read**: [`parse`], a small strict recursive-descent parser, plus
//!   typed field accessors ([`Value::str_at`], [`Value::u64_at`], …)
//!   whose errors name the offending field.
//!
//! Objects preserve key order (they're backed by a `Vec`). Integer
//! literals (no fraction, no exponent) parse as exact [`Value::Int`]s,
//! so seeds and counts above 2^53 survive a round trip; everything else
//! parses as an `f64`. The full escape set of [`string`]
//! (`\" \\ \n \r \t \uXXXX`) plus `\/ \b \f` is accepted.

use std::fmt::Write as _;

// ---------------------------------------------------------------- writer

/// JSON string literal (quotes included) with the mandatory escapes.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A float in its shortest round-trip form (`Display`, deterministic
/// across platforms); non-finite values become `null`, since JSON has no
/// NaN or infinity.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A float with exactly `decimals` fractional digits; non-finite values
/// become `null`.
pub fn fixed(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// `[1,2,3]` — compact, no spaces.
pub fn u64_array(vs: &[u64]) -> String {
    let mut out = String::with_capacity(2 + vs.len() * 4);
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// `[0.5,2,null]` — compact, each element via [`num`].
pub fn f64_array(vs: &[f64]) -> String {
    let mut out = String::with_capacity(2 + vs.len() * 8);
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&num(*v));
    }
    out.push(']');
    out
}

// ----------------------------------------------------------------- value

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction or exponent), kept exact.
    Int(i128),
    /// Any other JSON number.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, preserving key order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number in this value, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(n) => Some(*n as f64),
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a float, reading `null` (the writers' encoding of a
    /// non-finite float) back as NaN.
    fn as_f64_or_nan(&self) -> Option<f64> {
        match self {
            Value::Null => Some(f64::NAN),
            other => other.as_f64(),
        }
    }

    /// The number as a `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(n) => u64::try_from(*n).ok(),
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The string in this value, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Required member `key`.
    pub fn req(&self, key: &str) -> Result<&Value, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field '{key}'"))
    }

    fn typed<'a, T>(
        &'a self,
        key: &str,
        what: &str,
        read: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, String> {
        read(self.req(key)?).ok_or_else(|| format!("field '{key}' is not {what}"))
    }

    /// Required string member.
    pub fn str_at(&self, key: &str) -> Result<&str, String> {
        self.typed(key, "a string", Value::as_str)
    }

    /// Required non-negative integer member.
    pub fn u64_at(&self, key: &str) -> Result<u64, String> {
        self.typed(key, "a non-negative integer", Value::as_u64)
    }

    /// Required numeric member; `null` reads as NaN.
    pub fn f64_at(&self, key: &str) -> Result<f64, String> {
        self.typed(key, "a number", Value::as_f64_or_nan)
    }

    /// Required boolean member.
    pub fn bool_at(&self, key: &str) -> Result<bool, String> {
        self.typed(key, "a boolean", |v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// Required array member.
    pub fn arr_at(&self, key: &str) -> Result<&[Value], String> {
        self.typed(key, "an array", Value::as_arr)
    }

    /// Required object member.
    pub fn obj_at(&self, key: &str) -> Result<&[(String, Value)], String> {
        self.typed(key, "an object", Value::as_obj)
    }

    /// Required array-of-integers member.
    pub fn u64s_at(&self, key: &str) -> Result<Vec<u64>, String> {
        self.typed(key, "an integer array", Value::u64s)
    }

    /// Required array-of-numbers member; `null` items read as NaN.
    pub fn f64s_at(&self, key: &str) -> Result<Vec<f64>, String> {
        self.typed(key, "a number array", Value::f64s)
    }

    /// Required array-of-strings member.
    pub fn strs_at(&self, key: &str) -> Result<Vec<String>, String> {
        self.typed(key, "a string array", |v| {
            v.as_arr()?
                .iter()
                .map(|s| s.as_str().map(str::to_string))
                .collect()
        })
    }

    /// This array's elements as integers.
    pub fn u64s(&self) -> Option<Vec<u64>> {
        self.as_arr()?.iter().map(Value::as_u64).collect()
    }

    /// This array's elements as floats; `null` items read as NaN.
    pub fn f64s(&self) -> Option<Vec<f64>> {
        self.as_arr()?.iter().map(Value::as_f64_or_nan).collect()
    }
}

// ---------------------------------------------------------------- parser

/// Parse a complete JSON document. Trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            bytes.get(*pos).map(|b| *b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        other => Err(format!(
            "unexpected {:?} at byte {}",
            other.map(|b| *b as char),
            *pos
        )),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit() || matches!(bytes[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).unwrap_or("");
    // Integer literals stay exact; `-0` is a float (the writers' form of
    // negative zero), as is anything too wide for an i128.
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(n) = text.parse::<i128>() {
            return Ok(if n == 0 && text.starts_with('-') {
                Value::Num(-0.0)
            } else {
                Value::Int(n)
            });
        }
    }
    text.parse::<f64>()
        .ok()
        .filter(|n| n.is_finite())
        .map(Value::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape digits")?;
                        // Surrogate pairs don't occur in our writers; map
                        // lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => {
                        return Err(format!("bad escape {:?}", other.map(|b| *b as char)));
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is a &str, so the
                // byte stream is valid UTF-8 by construction).
                let rest = unsafe { std::str::from_utf8_unchecked(&bytes[*pos..]) };
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            other => {
                return Err(format!(
                    "expected ',' or ']' at byte {} (found {:?})",
                    *pos,
                    other.map(|b| *b as char)
                ));
            }
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => {
                *pos += 1;
            }
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {} (found {:?})",
                    *pos,
                    other.map(|b| *b as char)
                ));
            }
        }
    }
}

// ---------------------------------------------------------- pretty print

impl Value {
    /// Pretty-print with 2-space indentation. Numbers use [`num`], so a
    /// render → [`parse`] → render cycle is a fixpoint.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Num(n) => out.push_str(&num(*n)),
            Value::Str(s) => out.push_str(&string(s)),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Value::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    out.push_str(&string(k));
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

/// Conversion into a [`Value`], for pretty-printed data artifacts
/// (score tables, ALE bands, sweep rows).
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Value;
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Num(*self)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Value {
        Value::Int(*self as i128)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Value {
        Value::Int(i128::from(*self))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        self.as_slice().to_json()
    }
}

impl<T: ToJson> ToJson for std::collections::BTreeMap<String, T> {
    fn to_json(&self) -> Value {
        Value::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_is_a_fixpoint() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("a \"quoted\"\nline".into())),
            (
                "rows".into(),
                Value::Arr(vec![
                    Value::Num(1.5),
                    Value::Num(-0.000125),
                    Value::Int(-7),
                    Value::Bool(true),
                    Value::Null,
                ]),
            ),
            ("empty_arr".into(), Value::Arr(vec![])),
            ("empty_obj".into(), Value::Obj(vec![])),
        ]);
        let rendered = v.render();
        let reparsed = parse(&rendered).expect("own writer parses");
        assert_eq!(reparsed, v);
        assert_eq!(reparsed.render(), rendered);
    }

    #[test]
    fn writers_emit_null_for_non_finite() {
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
        assert_eq!(num(f64::NEG_INFINITY), "null");
        assert_eq!(fixed(f64::NAN, 6), "null");
    }

    #[test]
    fn float_formatters_pin_their_forms() {
        assert_eq!(num(0.25), "0.25");
        assert_eq!(num(1.0), "1");
        assert_eq!(num(1e-7), "0.0000001");
        assert_eq!(fixed(0.5, 6), "0.500000");
        assert_eq!(fixed(2.0 / 3.0, 3), "0.667");
        assert_eq!(f64_array(&[0.5, 2.0, f64::NAN]), "[0.5,2,null]");
        assert_eq!(u64_array(&[]), "[]");
        assert_eq!(u64_array(&[1, 20]), "[1,20]");
    }

    #[test]
    fn string_escapes_control_characters() {
        assert_eq!(string("a\"b\\c\n\t\r"), "\"a\\\"b\\\\c\\n\\t\\r\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(string("µs ✓"), "\"µs ✓\"");
        let back = parse(&string("x\u{1f}\u{7f}y")).unwrap();
        assert_eq!(back.as_str(), Some("x\u{1f}\u{7f}y"));
    }

    #[test]
    fn to_json_builds_expected_tree() {
        let mut map = std::collections::BTreeMap::new();
        map.insert("xs".to_string(), vec![1.0f64, 2.5]);
        let v = map.to_json();
        assert_eq!(
            v,
            Value::Obj(vec![(
                "xs".into(),
                Value::Arr(vec![Value::Num(1.0), Value::Num(2.5)])
            )])
        );
        assert_eq!("s".to_string().to_json(), Value::Str("s".into()));
        assert_eq!(3usize.to_json(), Value::Int(3));
        assert_eq!(true.to_json(), Value::Bool(true));
        assert_eq!(u64::MAX.to_json().render(), u64::MAX.to_string());
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("-1.5e2").unwrap(), Value::Num(-150.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn integers_stay_exact_above_two_to_the_53() {
        let big = (1u64 << 53) + 1;
        let v = parse(&format!("{{\"seed\":{big}}}")).unwrap();
        assert_eq!(v.u64_at("seed"), Ok(big));
        let v = parse(&format!("{{\"seed\":{}}}", u64::MAX)).unwrap();
        assert_eq!(v.u64_at("seed"), Ok(u64::MAX));
        // Negative integers and negative zero.
        assert_eq!(parse("-3").unwrap(), Value::Int(-3));
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        let z = parse("-0").unwrap().as_f64().unwrap();
        assert!(z == 0.0 && z.is_sign_negative());
        // Wider than an i128: falls back to a float.
        let wide = "1".repeat(45);
        assert!(matches!(parse(&wide).unwrap(), Value::Num(_)));
    }

    #[test]
    fn parses_nested_structures_preserving_key_order() {
        let v = parse(r#"{"b": [1, {"x": "y"}], "a": {}}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj[0].0, "b");
        assert_eq!(obj[1].0, "a");
        let arr = v.arr_at("b").unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].str_at("x"), Ok("y"));
        assert_eq!(v.obj_at("a").unwrap().len(), 0);
    }

    #[test]
    fn unescapes_strings() {
        let v = parse(r#""a\"b\\c\nd\u0041""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1 2",
            "{\"a\" 1}",
            "\"\\q\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn typed_accessors_name_the_field() {
        let v = parse(r#"{"s":"x","n":null,"f":1.5,"xs":[1,null],"b":true,"ss":["a"]}"#).unwrap();
        assert_eq!(v.str_at("s"), Ok("x"));
        assert!(v.f64_at("n").unwrap().is_nan());
        assert_eq!(v.bool_at("b"), Ok(true));
        assert_eq!(v.strs_at("ss"), Ok(vec!["a".to_string()]));
        let xs = v.f64s_at("xs").unwrap();
        assert_eq!(xs[0], 1.0);
        assert!(xs[1].is_nan());
        assert_eq!(v.u64_at("gone").unwrap_err(), "missing field 'gone'");
        assert_eq!(
            v.u64_at("s").unwrap_err(),
            "field 's' is not a non-negative integer"
        );
        assert!(v.u64s_at("xs").unwrap_err().contains("'xs'"));
    }

    #[test]
    fn round_trips_the_manifest_writer() {
        // The manifest is the most complex document the pretty writers
        // produce; it must parse cleanly.
        let manifest = crate::Manifest {
            binary: "weird\"name\\x".into(),
            seed: 7,
            scale: 0.05,
            threads: 2,
            git: "abc".into(),
            telemetry: "summary".into(),
            wall_time_s: 1.5,
            snapshot: crate::Snapshot::default(),
        };
        let v = parse(&manifest.to_json()).unwrap();
        assert_eq!(v.u64_at("seed"), Ok(7));
        assert_eq!(v.str_at("binary"), Ok("weird\"name\\x"));
        assert_eq!(v.obj_at("spans").unwrap().len(), 0);
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Value::Num(1.5).as_u64(), None);
        assert_eq!(Value::Num(-2.0).as_u64(), None);
        assert_eq!(Value::Num(3.0).as_u64(), Some(3));
        assert_eq!(Value::Num(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Int(-1).as_u64(), None);
    }
}
