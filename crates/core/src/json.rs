//! Minimal JSON emission *and parsing* for the figures pipeline.
//!
//! The build environment has no registry access, so this module is the
//! workspace's one serializer: the hand-rolled writer/reader pair that lets
//! experiment results survive a run on disk and come back for baseline
//! comparisons. The writer emits standard JSON
//! (RFC 8259): escaped strings, `null` for non-finite numbers, and
//! deterministic key order (insertion order). The reader
//! ([`JsonValue::parse`]) accepts standard JSON and reconstructs the same
//! [`JsonValue`] tree, so `parse(v.to_json()) == v` for every tree the
//! writer can produce; typed accessors ([`JsonValue::field`],
//! [`JsonValue::as_f64`], …) then lift trees back into
//! [`RunRecord`](crate::RunRecord) series — see
//! [`ExperimentReport::read_json`](crate::ExperimentReport::read_json).
//!
//! Panic policy: every *reader* path returns `Err` on malformed input —
//! missing fields, wrong shapes, bad escapes, non-finite numbers — never
//! panics; the only panics in this module are the two writer-side builder
//! guards ([`JsonValue::set`] / [`JsonValue::push`] on the wrong variant),
//! which are waived programming-error assertions, not data errors.

use crate::error::CoreError;
use std::fmt::Write as _;

/// A JSON value tree, built imperatively and rendered to a string.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object.
    pub fn object() -> Self {
        JsonValue::Object(Vec::new())
    }

    /// An empty array.
    pub fn array() -> Self {
        JsonValue::Array(Vec::new())
    }

    /// Insert a field into an object (panics if `self` is not an object —
    /// a programming error in the serializer, not a data error).
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<JsonValue>) -> &mut Self {
        match self {
            JsonValue::Object(fields) => fields.push((key.into(), value.into())),
            #[expect(
                clippy::panic,
                reason = "builder misuse is a programming error in the serializer, not a data error — reader paths return Err"
            )]
            other => panic!("set() on non-object JSON value {other:?}"),
        }
        self
    }

    /// Append an element to an array (panics if `self` is not an array).
    pub fn push(&mut self, value: impl Into<JsonValue>) -> &mut Self {
        match self {
            JsonValue::Array(items) => items.push(value.into()),
            #[expect(
                clippy::panic,
                reason = "builder misuse is a programming error in the serializer, not a data error — reader paths return Err"
            )]
            other => panic!("push() on non-array JSON value {other:?}"),
        }
        self
    }

    /// Render to a compact single-line JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, None, 0);
        out
    }

    /// Render to an indented multi-line JSON string (2-space indent).
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.render(&mut out, Some(2), 0);
        out
    }

    fn render(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                if n.is_finite() {
                    // Integral values render without a trailing ".0"; JSON
                    // has one number type, so this is purely cosmetic.
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::String(s) => escape_into(out, s),
            JsonValue::Array(items) => {
                render_sequence(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].render(out, indent, depth + 1);
                });
            }
            JsonValue::Object(fields) => {
                render_sequence(out, indent, depth, '{', '}', fields.len(), |out, i| {
                    let (key, value) = &fields[i];
                    escape_into(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.render(out, indent, depth + 1);
                });
            }
        }
    }
}

impl JsonValue {
    /// Parse a JSON document into a value tree. Accepts standard RFC 8259
    /// JSON (the writer's output always round-trips); trailing non-space
    /// content is an error.
    pub fn parse(src: &str) -> Result<Self, CoreError> {
        let mut parser = Parser {
            src,
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != src.len() {
            return Err(parser.error("trailing content after the document"));
        }
        Ok(value)
    }

    /// The value of an object field, if `self` is an object holding it.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Like [`get`](Self::get), but a missing field is an error naming the
    /// key — the ergonomic spine of the typed readers.
    pub fn field(&self, key: &str) -> Result<&JsonValue, CoreError> {
        self.get(key)
            .ok_or_else(|| CoreError::invalid(format!("missing JSON field '{key}'")))
    }

    /// The numeric value, if `self` is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if `self` is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if `self` is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if `self` is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields in insertion order, if `self` is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The value of a field that later-vintage writers added: a key that is
    /// absent and a key holding `null` both read as `None`. This is the one
    /// statement of the presence rule — writers omit such a key when they
    /// have nothing to say, so a report from before the key existed
    /// re-serializes byte-identically.
    pub fn optional(&self, key: &str) -> Option<&JsonValue> {
        match self.get(key) {
            None | Some(JsonValue::Null) => None,
            present => present,
        }
    }

    /// A required numeric field of an object.
    pub fn f64_field(&self, key: &str) -> Result<f64, CoreError> {
        self.field(key)?.number(key)
    }

    /// A required numeric field read as a non-negative integer.
    pub fn usize_field(&self, key: &str) -> Result<usize, CoreError> {
        self.field(key)?.count(key)
    }

    /// A required array field whose every element is a number.
    pub fn f64_array_field(&self, key: &str) -> Result<Vec<f64>, CoreError> {
        self.array_field(key)?
            .iter()
            .map(|item| item.number(key))
            .collect()
    }

    /// A required array field whose every element is a non-negative integer
    /// — [`usize_field`](Self::usize_field)'s rule, applied per element.
    pub fn usize_array_field(&self, key: &str) -> Result<Vec<usize>, CoreError> {
        self.array_field(key)?
            .iter()
            .map(|item| item.count(key))
            .collect()
    }

    /// `self` as a number; `key` names the field it was read for.
    fn number(&self, key: &str) -> Result<f64, CoreError> {
        self.as_f64()
            .ok_or_else(|| CoreError::invalid(format!("JSON field '{key}' holds a non-number")))
    }

    /// `self` as a non-negative integer; negative or fractional numbers are
    /// errors, never truncated.
    fn count(&self, key: &str) -> Result<usize, CoreError> {
        let n = self.number(key)?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(CoreError::invalid(format!(
                "JSON field '{key}' holds {n}, not a non-negative integer"
            )));
        }
        Ok(n as usize)
    }

    /// A required string field of an object.
    pub fn str_field(&self, key: &str) -> Result<&str, CoreError> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| CoreError::invalid(format!("JSON field '{key}' is not a string")))
    }

    /// A required array field of an object.
    pub fn array_field(&self, key: &str) -> Result<&[JsonValue], CoreError> {
        self.field(key)?
            .as_array()
            .ok_or_else(|| CoreError::invalid(format!("JSON field '{key}' is not an array")))
    }

    /// A required boolean field of an object.
    pub fn bool_field(&self, key: &str) -> Result<bool, CoreError> {
        self.field(key)?
            .as_bool()
            .ok_or_else(|| CoreError::invalid(format!("JSON field '{key}' is not a boolean")))
    }
}

/// Deepest array/object nesting the parser descends into. Recursive descent
/// spends stack per level, so an unbounded `[[[[…` from disk would overflow
/// it; reports nest 7 deep.
const MAX_NESTING: usize = 128;

/// Recursive-descent JSON parser over a byte cursor; string content is
/// decoded per escape, everything else is sliced from the source.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> CoreError {
        CoreError::invalid(format!("JSON at byte {}: {}", self.pos, message.into()))
    }

    fn bytes(&self) -> &[u8] {
        self.src.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect_byte(&mut self, byte: u8) -> Result<(), CoreError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, CoreError> {
        if self.src[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{text}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, CoreError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_NESTING {
                    return Err(self.error(format!("nesting deeper than {MAX_NESTING}")));
                }
                self.depth += 1;
                let value = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                value
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.error(format!("unexpected '{}'", other as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn number(&mut self) -> Result<JsonValue, CoreError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        match text.parse::<f64>() {
            // An overflowing literal like `1e999` parses to infinity; the
            // writer renders non-finite numbers as `null`, so a non-finite
            // parse can only mean an out-of-range document.
            Ok(n) if n.is_finite() => Ok(JsonValue::Number(n)),
            Ok(_) => Err(self.error(format!("non-finite number '{text}'"))),
            Err(_) => Err(self.error(format!("invalid number '{text}'"))),
        }
    }

    fn string(&mut self) -> Result<String, CoreError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.src[self.pos..];
            let mut chars = rest.chars();
            match chars.next() {
                None => return Err(self.error("unterminated string")),
                Some('"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some('\\') => {
                    self.pos += 1;
                    let escape = self.src[self.pos..]
                        .chars()
                        .next()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += escape.len_utf8();
                    match escape {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => out.push(self.unicode_escape()?),
                        other => {
                            return Err(self.error(format!("invalid escape '\\{other}'")));
                        }
                    }
                }
                Some(c) => {
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// The four hex digits of a `\u` escape, combining UTF-16 surrogate
    /// pairs when the first unit is a high surrogate.
    fn unicode_escape(&mut self) -> Result<char, CoreError> {
        let high = self.hex4()?;
        if (0xD800..0xDC00).contains(&high) {
            if !self.src[self.pos..].starts_with("\\u") {
                return Err(self.error("unpaired UTF-16 high surrogate"));
            }
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.error("invalid UTF-16 low surrogate"));
            }
            let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
            return char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"));
        }
        char::from_u32(high).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, CoreError> {
        let digits = self
            .src
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let code = u32::from_str_radix(digits, 16)
            .map_err(|_| self.error(format!("invalid \\u digits '{digits}'")))?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<JsonValue, CoreError> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, CoreError> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect_byte(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }
}

fn render_sequence(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
    out.push(close);
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for JsonValue {
    fn from(n: f64) -> Self {
        JsonValue::Number(n)
    }
}

impl From<usize> for JsonValue {
    fn from(n: usize) -> Self {
        JsonValue::Number(n as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(b: bool) -> Self {
        JsonValue::Bool(b)
    }
}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.into())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(items: Vec<T>) -> Self {
        JsonValue::Array(items.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(value: Option<T>) -> Self {
        value.map_or(JsonValue::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render_as_json() {
        assert_eq!(JsonValue::Null.to_json(), "null");
        assert_eq!(JsonValue::from(true).to_json(), "true");
        assert_eq!(JsonValue::from(3.0).to_json(), "3");
        assert_eq!(JsonValue::from(3.25).to_json(), "3.25");
        assert_eq!(JsonValue::from(f64::NAN).to_json(), "null");
        assert_eq!(JsonValue::from(f64::INFINITY).to_json(), "null");
        assert_eq!(JsonValue::from(7usize).to_json(), "7");
        assert_eq!(JsonValue::from("hi").to_json(), "\"hi\"");
        assert_eq!(JsonValue::from(None::<f64>).to_json(), "null");
        assert_eq!(JsonValue::from(Some(2.0)).to_json(), "2");
    }

    #[test]
    fn strings_are_escaped() {
        let s = JsonValue::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(s.to_json(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn objects_and_arrays_nest() {
        let mut obj = JsonValue::object();
        obj.set("name", "8B,0W").set("time", 12.5);
        let mut arr = JsonValue::array();
        arr.push(1.0).push(2.0);
        obj.set("series", arr);
        obj.set("empty", JsonValue::array());
        assert_eq!(
            obj.to_json(),
            "{\"name\":\"8B,0W\",\"time\":12.5,\"series\":[1,2],\"empty\":[]}"
        );
        let pretty = obj.to_json_pretty();
        assert!(pretty.contains("\n  \"name\": \"8B,0W\""), "{pretty}");
        assert!(pretty.ends_with('}'));
        // Pretty output round-trips the same structure (no trailing commas).
        assert!(!pretty.contains(",\n}"));
    }

    #[test]
    fn vec_conversions_build_arrays() {
        let v: JsonValue = vec![0.5, 0.25].into();
        assert_eq!(v.to_json(), "[0.5,0.25]");
        let v: JsonValue = vec!["a".to_string(), "b".to_string()].into();
        assert_eq!(v.to_json(), "[\"a\",\"b\"]");
    }

    #[test]
    #[should_panic(expected = "set() on non-object")]
    fn set_on_array_panics() {
        JsonValue::array().set("k", 1.0);
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut obj = JsonValue::object();
        obj.set("name", "8B,0W")
            .set("time", 12.5)
            .set("count", 7usize)
            .set("escaped", "a\"b\\c\nd\te")
            .set("missing", JsonValue::Null)
            .set("flag", true);
        let mut arr = JsonValue::array();
        arr.push(1.0).push(-2.5e3).push(JsonValue::array());
        obj.set("series", arr);
        let mut nested = JsonValue::object();
        nested.set("performance", 0.75);
        obj.set("normalized", nested);
        // Compact and pretty renderings parse back to the identical tree.
        assert_eq!(JsonValue::parse(&obj.to_json()).unwrap(), obj);
        assert_eq!(JsonValue::parse(&obj.to_json_pretty()).unwrap(), obj);
    }

    #[test]
    fn parse_handles_standard_json() {
        let v = JsonValue::parse(r#"  { "a" : [ 1 , 2.5e-1, null ], "b": "xAé" } "#).unwrap();
        assert_eq!(v.field("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(v.array_field("a").unwrap()[1].as_f64(), Some(0.25));
        assert_eq!(v.array_field("a").unwrap()[2], JsonValue::Null);
        assert_eq!(v.str_field("b").unwrap(), "xAé");
        // Surrogate pairs decode to one scalar value.
        let v = JsonValue::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
    }

    #[test]
    fn parse_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\" 1}",
            "{\"a\": 1,}x",
            "nul",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 unpaired\"",
            "01x",
            "{} trailing",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Hostile nesting is an error naming the byte where the limit was
        // hit, not a stack overflow (these inputs used to abort the process).
        for (unit, byte) in [("[", MAX_NESTING), ("{\"a\":", 5 * MAX_NESTING)] {
            let err = JsonValue::parse(&unit.repeat(200_000)).unwrap_err();
            let expected = format!("JSON at byte {byte}: nesting deeper than {MAX_NESTING}");
            assert!(err.to_string().contains(&expected), "{err}");
        }
        // The limit itself is inclusive: exactly MAX_NESTING levels parse.
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        assert!(JsonValue::parse(&nested(MAX_NESTING)).is_ok());
        assert!(JsonValue::parse(&nested(MAX_NESTING + 1)).is_err());
        // Well-formed JSON of the wrong shape: an integer array holding a
        // negative, a fraction, a string, or not an array at all is an
        // error naming the key — it used to truncate (`[-3, 1.5]` read as
        // `[0, 1]`) and re-emit different bytes. Checked through the
        // accessor and through the record reader that uses it.
        let stats = |queued: &str| {
            let doc = format!(
                r#"{{"scheduler": "fcfs", "offered_qps": 1, "achieved_qps": 1, "arrivals": 2,
                "completed": 2, "dropped": 0, "timed_out": 0, "drop_rate": 0, "p50_s": 1,
                "p95_s": 1, "p99_s": 1, "mean_latency_s": 1, "mean_wait_s": 0,
                "energy_per_query_j": 5, "pool_mean_depth": [0.5, 1],
                "pool_max_queued": {queued}}}"#
            );
            JsonValue::parse(&doc).unwrap()
        };
        for hostile in ["[-3, 1]", "[1.5]", "7", r#"[1, "2"]"#] {
            let doc = stats(hostile);
            for err in [
                doc.usize_array_field("pool_max_queued").unwrap_err(),
                crate::ServingStats::from_json(&doc).unwrap_err(),
            ] {
                assert!(matches!(err, CoreError::Invalid(_)), "{hostile}: {err}");
                assert!(err.to_string().contains("'pool_max_queued'"), "{err}");
            }
            // Fractions and negatives are fine where any number is.
            assert_eq!(doc.f64_array_field("pool_mean_depth").unwrap(), [0.5, 1.0]);
        }
        let good = crate::ServingStats::from_json(&stats("[3, 0]")).unwrap();
        assert_eq!(good.pool_max_queued, [3, 0]);
        // `null` under a later-vintage key reads like an absent key.
        let nulled = crate::ServingStats::from_json(&stats("null")).unwrap();
        assert!(nulled.pool_max_queued.is_empty());
        assert!(stats("null").optional("pool_max_queued").is_none());
        assert!(stats("null").optional("no_such_key").is_none());
        assert!(stats("[]").optional("pool_max_queued").is_some());
    }

    #[test]
    fn parse_rejects_trailing_garbage_with_position() {
        // Structurally complete documents followed by junk: the error names
        // the byte where the junk starts, not a generic parse failure.
        for (bad, at) in [("{} trailing", 3), ("[1] 2", 4), ("\"s\"x", 3), ("1,", 1)] {
            let err = JsonValue::parse(bad).unwrap_err().to_string();
            assert!(err.contains("trailing content"), "{bad:?}: {err}");
            assert!(err.contains(&format!("byte {at}")), "{bad:?}: {err}");
        }
    }

    #[test]
    fn parse_rejects_unterminated_strings_and_escapes() {
        for bad in [
            "\"open",
            "\"esc\\",
            "\"\\u12",
            "\"\\uZZZZ\"",
            "{\"k",
            "{\"k\": \"v",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = JsonValue::parse("\"open").unwrap_err().to_string();
        assert!(err.contains("unterminated string"), "{err}");
        let err = JsonValue::parse("\"\\u12\"").unwrap_err().to_string();
        assert!(err.contains("\\u"), "{err}");
    }

    #[test]
    fn parse_rejects_bad_surrogates() {
        // High surrogate followed by: nothing, a non-escape, another high
        // surrogate, or a non-surrogate unit; and a bare low surrogate.
        for bad in [
            "\"\\ud800\"",
            "\"\\ud800x\"",
            "\"\\ud800\\ud800\"",
            "\"\\ud800\\u0041\"",
        ] {
            let err = JsonValue::parse(bad).unwrap_err().to_string();
            assert!(err.contains("surrogate"), "{bad:?}: {err}");
        }
        // A bare low surrogate is not a valid scalar value either.
        assert!(JsonValue::parse("\"\\udc00\"").is_err());
        // A proper pair still decodes.
        assert_eq!(
            JsonValue::parse("\"\\ud83d\\ude00\"").unwrap().as_str(),
            Some("😀")
        );
    }

    #[test]
    fn parse_rejects_non_finite_numbers() {
        // JSON has no literal for NaN/Infinity, and overflowing literals
        // must not silently become f64::INFINITY.
        for bad in [
            "1e999",
            "-1e999",
            "1e400",
            "[1, 1e999]",
            "NaN",
            "Infinity",
            "-Infinity",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = JsonValue::parse("1e999").unwrap_err().to_string();
        assert!(err.contains("non-finite"), "{err}");
        // Large-but-finite literals still parse.
        assert_eq!(JsonValue::parse("1e308").unwrap().as_f64(), Some(1e308));
        assert_eq!(JsonValue::parse("-2.5e-3").unwrap().as_f64(), Some(-0.0025));
    }

    #[test]
    fn typed_accessors_surface_shape_errors() {
        let v = JsonValue::parse(r#"{"n": 1.5, "s": "x", "a": [], "i": 3, "neg": -1, "b": true}"#)
            .unwrap();
        assert_eq!(v.f64_field("n").unwrap(), 1.5);
        assert!(v.bool_field("b").unwrap());
        assert!(v.bool_field("n").is_err());
        assert!(v.bool_field("missing").is_err());
        assert_eq!(v.usize_field("i").unwrap(), 3);
        assert_eq!(v.str_field("s").unwrap(), "x");
        assert!(v.array_field("a").unwrap().is_empty());
        assert_eq!(v.as_bool(), None);
        assert_eq!(JsonValue::Bool(true).as_bool(), Some(true));
        assert!(v.get("missing").is_none());
        assert!(v.field("missing").is_err());
        assert!(v.f64_field("s").is_err());
        assert!(v.str_field("n").is_err());
        assert!(v.array_field("n").is_err());
        assert!(v.usize_field("n").is_err(), "1.5 is not an integer");
        assert!(v.usize_field("neg").is_err());
        // Non-objects have no fields.
        assert!(JsonValue::Null.get("k").is_none());
        assert!(JsonValue::Null.as_object().is_none());
        assert_eq!(v.as_object().unwrap().len(), 6);
    }
}
