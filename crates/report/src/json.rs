//! A tiny hand-rolled JSON writer and reader.
//!
//! The workspace builds offline with no serde; the harness binaries
//! emit flat JSON (benchmark records, table dumps), and the
//! bench-regression gate reads the previous CI run's records back.
//! [`Json::parse`] is a minimal recursive-descent reader covering
//! exactly the JSON this module writes (objects, arrays, strings with
//! the standard escapes, finite numbers, booleans, null).

use std::fmt::Write as _;

/// A JSON value under construction.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Finite numbers render via `f64` shortest round-trip; non-finite
    /// values render as `null` (JSON has no NaN/Inf).
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Starts an empty object.
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds or replaces `key` on an object (builder style).
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        let Json::Obj(entries) = &mut self else {
            panic!("Json::set on a non-object");
        };
        match entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = value.into(),
            None => entries.push((key.to_string(), value.into())),
        }
        self
    }

    /// Renders compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`JsonParseError`] (with a byte offset) on malformed
    /// input or trailing garbage.
    pub fn parse(text: &str) -> Result<Json, JsonParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            at: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// The value under `key`, when `self` is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walks nested objects by a `.`-separated path (`"permutation.parallel_gates_per_sec"`).
    pub fn get_path(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |v, key| v.get(key))
    }

    /// The numeric value, when `self` is a finite number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, when `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, when `self` is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
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
            Json::Obj(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
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

/// Parse failure: a message plus the byte offset it occurred at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl std::fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Maximum container nesting the parser accepts. The recursive-descent
/// `value()` recurses once per `{`/`[` level, so an adversarial line of
/// bare brackets could otherwise overflow the stack; no legitimate
/// protocol document nests anywhere near this deep.
const MAX_PARSE_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
    depth: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> JsonParseError {
        JsonParseError {
            message: message.to_string(),
            at: self.at,
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonParseError> {
        if self.bytes.get(self.at) == Some(&b) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.at..].starts_with(lit.as_bytes()) {
            self.at += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, JsonParseError> {
        match self.bytes.get(self.at) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn enter(&mut self) -> Result<(), JsonParseError> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(self.error("document nests deeper than 128 levels"));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b'}') {
            self.at += 1;
            self.depth -= 1;
            return Ok(Json::Obj(entries));
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
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonParseError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&b']') {
            self.at += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go.
            // Both are ASCII, so the run ends on a char boundary.
            let Some(run) = self.bytes[self.at..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.at = self.bytes.len();
                return Err(self.error("unterminated string"));
            };
            out.push_str(&self.text[self.at..self.at + run]);
            self.at += run;
            if self.bytes[self.at] == b'"' {
                self.at += 1;
                return Ok(out);
            }
            self.at += 1;
            match self.bytes.get(self.at) {
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
                        .text
                        .get(self.at + 1..self.at + 5)
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .ok_or_else(|| self.error("bad \\u escape"))?;
                    // Surrogates (from writers other than ours) are
                    // replaced rather than rejected.
                    out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                    self.at += 4;
                }
                _ => return Err(self.error("bad escape")),
            }
            self.at += 1;
        }
    }

    fn number(&mut self) -> Result<Json, JsonParseError> {
        let start = self.at;
        while matches!(
            self.bytes.get(self.at),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.at += 1;
        }
        self.text[start..self.at]
            .parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("malformed number"))
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    // Every byte that needs escaping is ASCII, so each run of bytes
    // between two of them is whole UTF-8 and copies in one go.
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}

impl From<i64> for Json {
    fn from(x: i64) -> Json {
        Json::Num(x as f64)
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

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn renders_nested_structures() {
        let j = Json::object()
            .set("name", "qft20")
            .set("gates_per_sec", 1.5e6)
            .set("ok", true)
            .set("samples", vec![1.0, 2.5]);
        assert_eq!(
            j.render(),
            r#"{"name":"qft20","gates_per_sec":1500000,"ok":true,"samples":[1,2.5]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let j = Json::from("a\"b\\c\nd\u{1}");
        assert_eq!(j.render(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn set_replaces_existing_key() {
        let j = Json::object().set("k", 1.0).set("k", 2.0);
        assert_eq!(j.render(), r#"{"k":2}"#);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let j = Json::object()
            .set("name", "qft20")
            .set("rate", 1.5e6)
            .set("ok", true)
            .set("missing", Json::Null)
            .set("samples", vec![1.0, 2.5, -3.25])
            .set(
                "nested",
                Json::object().set("k", "va\"l\nue").set("n", -0.125),
            );
        let text = j.render();
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn parse_accepts_whitespace_and_escapes() {
        let j = Json::parse(" { \"a\" : [ 1 , \"x\\u0041\\t\" ] , \"b\" : null } ").unwrap();
        assert_eq!(j.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            j.get("a").unwrap().as_array().unwrap()[1].as_str(),
            Some("xA\t")
        );
        assert_eq!(j.get("b"), Some(&Json::Null));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("[1,,2]").is_err());
        let err = Json::parse("nul").unwrap_err();
        assert!(err.to_string().contains("byte 0"));
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        // One past the cap fails with a structured error…
        let over = "[".repeat(MAX_PARSE_DEPTH + 1);
        let err = Json::parse(&over).unwrap_err();
        assert!(err.to_string().contains("nests deeper"), "{err}");
        // …and a pathologically deep line (the adversarial case the cap
        // exists for) fails the same way instead of overflowing.
        let hostile = format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000));
        assert!(Json::parse(&hostile).is_err());
        // At the cap, documents still parse; siblings do not accumulate
        // depth.
        let at_cap = format!(
            "{}1{}",
            "[".repeat(MAX_PARSE_DEPTH),
            "]".repeat(MAX_PARSE_DEPTH)
        );
        assert!(Json::parse(&at_cap).is_ok());
        let wide = format!("[{}]", vec!["[1]"; 1000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    /// One piece of a generated string: a control character, a quote, a
    /// backslash, a multibyte scalar, a long run that needs no escaping,
    /// or a single printable ASCII character.
    fn piece() -> impl Strategy<Value = String> {
        let scalar = |c: u32| char::from_u32(c).expect("valid scalar").to_string();
        prop_oneof![
            (0u32..0x20).prop_map(scalar),
            Just("\"".to_string()),
            Just("\\".to_string()),
            (0x80u32..0xd800).prop_map(scalar),
            (0xe000u32..0x11_0000).prop_map(scalar),
            (1usize..3000, 0x20u8..0x7f).prop_map(|(n, b)| {
                let c = if matches!(b, b'"' | b'\\') {
                    'x'
                } else {
                    b as char
                };
                c.to_string().repeat(n)
            }),
            (0x20u32..0x7f).prop_map(scalar),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn string_render_then_parse_round_trips(pieces in prop::collection::vec(piece(), 0..24)) {
            let s = pieces.concat();
            let text = Json::from(s.as_str()).render();
            prop_assert_eq!(Json::parse(&text), Ok(Json::Str(s)));
        }
    }

    #[test]
    fn string_errors_report_the_same_offsets() {
        let err = Json::parse("{\"k\":\"abc").unwrap_err();
        assert_eq!((err.message.as_str(), err.at), ("unterminated string", 9));
        // A long run (multibyte included) before a bad escape: the offset
        // is the byte after the backslash.
        let run = "é".repeat(2000) + &"a".repeat(3000);
        let err = Json::parse(&format!("\"{run}\\q\"")).unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.at),
            ("bad escape", 1 + run.len() + 1)
        );
        let err = Json::parse(&format!("\"{run}\\u12\"")).unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.at),
            ("bad \\u escape", 1 + run.len() + 1)
        );
        let err = Json::parse(&format!("\"{run}\\")).unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.at),
            ("bad escape", 1 + run.len() + 1)
        );
    }

    #[test]
    fn get_path_walks_nested_objects() {
        let j = Json::object().set("outer", Json::object().set("inner", 7.0));
        assert_eq!(j.get_path("outer.inner").and_then(Json::as_f64), Some(7.0));
        assert_eq!(j.get_path("outer.missing"), None);
        assert_eq!(j.get_path("missing.inner"), None);
    }
}
