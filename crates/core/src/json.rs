//! Minimal JSON emission *and parsing* for the figures pipeline.
//!
//! The build environment has no registry access, so this module is the
//! workspace's one serializer: the hand-rolled writer/reader pair that lets
//! experiment results survive a run on disk and come back for baseline
//! comparisons.
//!
//! **One writer.** Every byte of JSON text comes from one crate-internal
//! streaming writer over a single `String`: it alone decides separators,
//! indentation (pushed from a constant run of spaces, so a pretty line
//! allocates nothing), string escapes and number text. The report structs
//! ([`ExperimentReport`](crate::ExperimentReport) down to
//! [`PhaseRecord`](crate::PhaseRecord)) stream their fields straight into it
//! without building a [`JsonValue`] tree first — enum labels go in as
//! `&'static str` — and [`JsonValue::to_json`] /
//! [`JsonValue::to_json_pretty`] walk a tree into the same writer. Output is
//! standard JSON (RFC 8259): escaped strings, `null` for non-finite numbers,
//! deterministic key order (insertion order), integral numbers below 10^15
//! without a trailing `.0`, every other finite number in Rust's shortest
//! round-trip `Display` form. The writer does each piece of work once per
//! document: it keeps a number memo for the whole document, keyed by
//! `f64::to_bits`, so each distinct number is formatted once and every
//! repeat re-pushes its text (a report holds ≈ 17 numbers per distinct bit
//! pattern), and it writes each run of a string between bytes that need
//! escaping in one piece.
//!
//! **The reader** ([`JsonValue::parse`]) accepts exactly RFC 8259 JSON and
//! reconstructs the same [`JsonValue`] tree, so `parse(v.to_json()) == v`
//! for every tree the writer can produce (non-finite numbers read back as
//! `null`). Numbers are checked against the RFC's §6 grammar
//! (`-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`) while they are
//! scanned, so `01`, `1.`, `-.5` and `1.e3` are errors, and raw control
//! characters (U+0000–U+001F) inside strings are errors; every error names
//! the byte offset where the document stopped being JSON. String content
//! between escapes is sliced from the source in one piece, a number spelled
//! like the previous one reuses its value, and every array and object is
//! allocated once, at its final size: elements wait on one stack shared by
//! the document until their container closes. Typed accessors
//! ([`JsonValue::field`], [`JsonValue::as_f64`], …) then lift trees back
//! into [`RunRecord`](crate::RunRecord) series — see
//! [`ExperimentReport::read_json`](crate::ExperimentReport::read_json).
//!
//! **Who reads.** No library path reads a report back, but the reader is
//! live code. The repository's `benchmark/` package parses its own result
//! files and `BENCHMARK.json` with [`JsonValue::parse`] and walks them with
//! the tree API; its `report_roundtrip` workload times the parse and the
//! [`ExperimentReport::from_json`](crate::ExperimentReport::from_json)
//! decode of a four-lens report; and core's round-trip tests hold
//! `parse(to_json(v)) == v` and `read_json(write_json(r)) == r`.
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
        let mut writer = JsonWriter::new(false);
        self.write(&mut writer);
        writer.finish()
    }

    /// Render to an indented multi-line JSON string (2-space indent).
    pub fn to_json_pretty(&self) -> String {
        let mut writer = JsonWriter::new(true);
        self.write(&mut writer);
        writer.finish()
    }

    fn write(&self, w: &mut JsonWriter) {
        match self {
            JsonValue::Null => w.null(),
            JsonValue::Bool(b) => w.bool(*b),
            JsonValue::Number(n) => w.number(*n),
            JsonValue::String(s) => w.string(s),
            JsonValue::Array(items) => {
                w.begin_array();
                for item in items {
                    item.write(w);
                }
                w.end_array();
            }
            JsonValue::Object(fields) => {
                w.begin_object();
                for (key, value) in fields {
                    w.key(key);
                    value.write(w);
                }
                w.end_object();
            }
        }
    }
}

/// A run of spaces that pretty indentation is sliced from; deeper levels
/// push it more than once.
const SPACES: &str = "                                                                ";

/// The one JSON text writer: a cursor over a single output `String` that
/// owns every separator, indent, escape and number format the crate emits.
/// Callers open and close containers, name object keys, and push values;
/// the writer inserts the `,` / newline / indent each position needs.
pub(crate) struct JsonWriter {
    out: String,
    /// Two-space indented, one element per line (`to_json_pretty`).
    pretty: bool,
    /// Containers currently open.
    depth: usize,
    /// The innermost open container has no element yet.
    empty: bool,
    /// A key was just written; the next value completes its member.
    after_key: bool,
    /// The text of every distinct finite number written so far.
    numbers: NumberMemo,
}

impl JsonWriter {
    /// An empty writer; `pretty` selects the indented layout.
    pub(crate) fn new(pretty: bool) -> Self {
        Self {
            out: String::new(),
            pretty,
            depth: 0,
            empty: true,
            after_key: false,
            numbers: NumberMemo::new(),
        }
    }

    /// The text written so far.
    pub(crate) fn finish(self) -> String {
        self.out
    }

    /// Position the cursor for the next value: after a key nothing is
    /// needed; inside a container, a comma after the first element, and in
    /// pretty mode a newline indented to the container's depth.
    fn element(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if self.depth == 0 {
            return;
        }
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        if self.pretty {
            self.newline();
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        let mut width = 2 * self.depth;
        while width > 0 {
            let run = width.min(SPACES.len());
            self.out.push_str(&SPACES[..run]);
            width -= run;
        }
    }

    fn open(&mut self, bracket: char) {
        self.element();
        self.out.push(bracket);
        self.depth += 1;
        self.empty = true;
    }

    fn close(&mut self, bracket: char) {
        self.depth -= 1;
        if !self.empty && self.pretty {
            self.newline();
        }
        self.out.push(bracket);
        // The closed container is itself an element of its parent.
        self.empty = false;
    }

    /// Open an object; name each member with [`key`](Self::key).
    pub(crate) fn begin_object(&mut self) {
        self.open('{');
    }

    /// Close the innermost object.
    pub(crate) fn end_object(&mut self) {
        self.close('}');
    }

    /// Open an array.
    pub(crate) fn begin_array(&mut self) {
        self.open('[');
    }

    /// Close the innermost array.
    pub(crate) fn end_array(&mut self) {
        self.close(']');
    }

    /// Name the next member of the innermost object; the next value written
    /// is its value.
    pub(crate) fn key(&mut self, key: &str) -> &mut Self {
        self.element();
        escape_into(&mut self.out, key);
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
        self.after_key = true;
        self
    }

    /// `null`.
    pub(crate) fn null(&mut self) {
        self.element();
        self.out.push_str("null");
    }

    /// `true` / `false`.
    pub(crate) fn bool(&mut self, b: bool) {
        self.element();
        self.out.push_str(if b { "true" } else { "false" });
    }

    /// A string, escaped.
    pub(crate) fn string(&mut self, s: &str) {
        self.element();
        escape_into(&mut self.out, s);
    }

    /// A number; non-finite values write `null`. Integral values below
    /// 10^15 render without a trailing ".0" (JSON has one number type, so
    /// this is purely cosmetic).
    pub(crate) fn number(&mut self, n: f64) {
        self.element();
        if n.is_finite() {
            self.out.push_str(self.numbers.text(n));
        } else {
            self.out.push_str("null");
        }
    }

    /// An array of numbers.
    pub(crate) fn numbers(&mut self, items: impl IntoIterator<Item = f64>) {
        self.begin_array();
        for n in items {
            self.number(n);
        }
        self.end_array();
    }
}

/// One document's number texts, keyed by `f64::to_bits`: each distinct
/// number is formatted once and its text re-pushed on every repeat (a
/// report of 560 designs writes ≈ 155,000 numbers with ≈ 9,000 distinct
/// bit patterns). Keying on bits keeps `0.0` and `-0.0` apart.
///
/// The texts sit back to back in one arena; an open-addressing table with
/// linear probing maps bits to a text's range. The table only answers
/// lookups — nothing iterates it — so output never depends on its layout.
/// It starts at [`NumberMemo::FIRST_SLOTS`] slots and doubles when half
/// full.
struct NumberMemo {
    /// Every distinct number's text, back to back.
    texts: String,
    /// A power-of-two number of slots.
    slots: Vec<MemoSlot>,
    /// Occupied slots.
    len: usize,
}

/// A table slot: a number's bits and the range of its text in
/// [`NumberMemo::texts`]. A number's text is never empty, so `end == 0`
/// marks a free slot.
#[derive(Clone, Copy, Default)]
struct MemoSlot {
    bits: u64,
    start: usize,
    end: usize,
}

impl NumberMemo {
    const FIRST_SLOTS: usize = 64;

    fn new() -> Self {
        Self {
            texts: String::new(),
            slots: vec![MemoSlot::default(); Self::FIRST_SLOTS],
            len: 0,
        }
    }

    /// The home slot of `bits` in a table of `mask + 1` slots: the high
    /// half folded onto the low (the bits that tell nearby numbers apart
    /// sit low in the mantissa, their magnitude high in the exponent), then
    /// a Fibonacci multiply whose upper half indexes the table.
    fn home(bits: u64, mask: usize) -> usize {
        let hash = (bits ^ (bits >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (hash >> 32) as usize & mask
    }

    /// The text of the finite number `n`: integral values below 10^15
    /// without a trailing ".0", every other in Rust's shortest round-trip
    /// `Display` form — formatted on its first occurrence only.
    fn text(&mut self, n: f64) -> &str {
        let bits = n.to_bits();
        let mask = self.slots.len() - 1;
        let mut at = Self::home(bits, mask);
        loop {
            let slot = self.slots[at];
            if slot.end == 0 {
                break;
            }
            if slot.bits == bits {
                return &self.texts[slot.start..slot.end];
            }
            at = (at + 1) & mask;
        }
        let start = self.texts.len();
        if n.fract() == 0.0 && n.abs() < 1e15 {
            let _ = write!(self.texts, "{}", n as i64);
        } else {
            let _ = write!(self.texts, "{n}");
        }
        let end = self.texts.len();
        self.slots[at] = MemoSlot { bits, start, end };
        self.len += 1;
        if 2 * self.len >= self.slots.len() {
            self.grow();
        }
        &self.texts[start..end]
    }

    /// Double the table and re-place every occupied slot.
    fn grow(&mut self) {
        let doubled = vec![MemoSlot::default(); 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|slot| slot.end != 0) {
            let mut at = Self::home(slot.bits, mask);
            while self.slots[at].end != 0 {
                at = (at + 1) & mask;
            }
            self.slots[at] = slot;
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
            last_number: ("", 0.0),
            values: Vec::new(),
            fields: Vec::new(),
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
    fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if `self` is an array.
    fn as_array(&self) -> Option<&[JsonValue]> {
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
    /// errors, never truncated, and so are numbers from `usize::MAX as f64`
    /// (2^64 on 64-bit targets) up, which the cast would saturate.
    fn count(&self, key: &str) -> Result<usize, CoreError> {
        let n = self.number(key)?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(CoreError::invalid(format!(
                "JSON field '{key}' holds {n}, not a non-negative integer"
            )));
        }
        if n >= usize::MAX as f64 {
            return Err(CoreError::invalid(format!(
                "JSON field '{key}' holds {n}, too large for a count"
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

/// Recursive-descent JSON parser over a byte cursor; string content between
/// escapes, and every number's text, is sliced from the source. Open arrays
/// and objects push their elements onto two stacks shared by the whole
/// document and take them off when they close, so each container is
/// allocated once, at its final size.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
    /// The previous number's text and value: a number spelled the same
    /// reuses the value instead of converting the text again.
    last_number: (&'a str, f64),
    /// Elements of the open arrays, innermost last.
    values: Vec<JsonValue>,
    /// Members of the open objects, innermost last.
    fields: Vec<(String, JsonValue)>,
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

    /// Skip a run of ASCII digits; true when there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos > start
    }

    /// A number, scanned against the RFC 8259 §6 grammar
    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` — looser
    /// spellings `f64::from_str` would take (`01`, `1.`, `-.5`) are errors
    /// at the byte where the grammar breaks.
    fn number(&mut self) -> Result<JsonValue, CoreError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("leading zero in number"));
            }
        } else if !self.digits() {
            return Err(self.error("expected a digit"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return Err(self.error("expected a digit after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return Err(self.error("expected a digit in the exponent"));
            }
        }
        let text = &self.src[start..self.pos];
        if text == self.last_number.0 {
            return Ok(JsonValue::Number(self.last_number.1));
        }
        match text.parse::<f64>() {
            // An overflowing literal like `1e999` parses to infinity; the
            // writer renders non-finite numbers as `null`, so a non-finite
            // parse can only mean an out-of-range document.
            Ok(n) if n.is_finite() => {
                self.last_number = (text, n);
                Ok(JsonValue::Number(n))
            }
            Ok(_) => Err(self.error(format!("non-finite number '{text}'"))),
            Err(_) => Err(self.error(format!("invalid number '{text}'"))),
        }
    }

    /// A string: each run up to the next quote, backslash or control byte
    /// is sliced from the source in one piece (all three are ASCII, so a
    /// run always ends on a char boundary); escapes are decoded one by one.
    fn string(&mut self) -> Result<String, CoreError> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let stop = self.bytes()[self.pos..]
                .iter()
                .enumerate()
                .find(|&(_, &b)| b == b'"' || b == b'\\' || b < 0x20);
            let Some((run, &byte)) = stop else {
                self.pos = self.src.len();
                return Err(self.error("unterminated string"));
            };
            out.push_str(&self.src[self.pos..self.pos + run]);
            self.pos += run;
            match byte {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
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
                control => {
                    return Err(
                        self.error(format!("raw control character U+{control:04X} in string"))
                    );
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
        // Digit by digit: `u32::from_str_radix` would also take a sign.
        let code = digits
            .chars()
            .try_fold(0, |code, c| Some(code * 16 + c.to_digit(16)?))
            .ok_or_else(|| self.error(format!("invalid \\u digits '{digits}'")))?;
        self.pos += 4;
        Ok(code)
    }

    fn array(&mut self) -> Result<JsonValue, CoreError> {
        self.expect_byte(b'[')?;
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(Vec::new()));
        }
        let mark = self.values.len();
        loop {
            self.skip_whitespace();
            let value = self.value()?;
            self.values.push(value);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(self.values.drain(mark..).collect()));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, CoreError> {
        self.expect_byte(b'{')?;
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(Vec::new()));
        }
        let mark = self.fields.len();
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect_byte(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            self.fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(self.fields.drain(mark..).collect()));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }
}

/// `s` as a quoted JSON string. Each run between bytes that need escaping
/// is pushed in one piece; those bytes (quote, backslash, U+0000–U+001F)
/// are all ASCII, so every run starts and ends on a char boundary.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (at, byte) in s.bytes().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&s[run..at]);
        run = at + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            control => {
                let _ = write!(out, "\\u{control:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
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
    use crate::lens::{Analytical, Behavioural};
    use crate::{Experiment, SweepJoin};
    use eedc_pstore::{ClusterSpec, JoinQuerySpec};
    use eedc_simkit::catalog::{cluster_v_node, laptop_b};

    // ---- The oracle: the recursive tree renderer the streaming writer
    // replaced, kept as the reference the writer is checked against.

    fn oracle(value: &JsonValue, indent: Option<usize>) -> String {
        let mut out = String::new();
        render(value, &mut out, indent, 0);
        out
    }

    fn render(value: &JsonValue, out: &mut String, indent: Option<usize>, depth: usize) {
        match value {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 1e15 {
                        let _ = write!(out, "{}", *n as i64);
                    } else {
                        let _ = write!(out, "{n}");
                    }
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::String(s) => escape_chars(out, s),
            JsonValue::Array(items) => {
                render_sequence(out, indent, depth, '[', ']', items.len(), |out, i| {
                    render(&items[i], out, indent, depth + 1);
                });
            }
            JsonValue::Object(fields) => {
                render_sequence(out, indent, depth, '{', '}', fields.len(), |out, i| {
                    let (key, value) = &fields[i];
                    escape_chars(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    render(value, out, indent, depth + 1);
                });
            }
        }
    }

    /// The escape the writer replaced: one `char` at a time.
    fn escape_chars(out: &mut String, s: &str) {
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

    /// Finite numbers a document must carry exactly: signed zeros, the
    /// integer-rendering cutoff at 10^15, 2^53, subnormals and the extremes.
    const EDGE_NUMBERS: [f64; 20] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        -2.5e-3,
        1.0 / 3.0,
        1e15 - 1.0,
        1e15,
        1e15 + 1.0,
        -1e15,
        9_007_199_254_740_992.0,
        9_007_199_254_740_994.0,
        f64::MIN_POSITIVE,
        5e-324,
        -1.5e-310,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        123_456.789,
    ];

    /// String pieces: the escaped ASCII, every named and a few `\u00XX`
    /// control characters, DEL, two- and three-byte text, astral-plane
    /// characters.
    const STRING_PIECES: [&str; 19] = [
        "a",
        "key",
        " ",
        "\"",
        "\\",
        "/",
        "\n",
        "\r",
        "\t",
        "\u{0}",
        "\u{1}",
        "\u{8}",
        "\u{c}",
        "\u{1f}",
        "\u{7f}",
        "é",
        "日本",
        "😀",
        "\u{10ffff}",
    ];

    /// SplitMix64 with a memory of the last finite number drawn: a seeded,
    /// dependency-free generator of documents and mutations.
    struct Rng {
        state: u64,
        last: f64,
    }

    impl Rng {
        fn new(seed: u64) -> Self {
            Self {
                state: seed,
                last: 0.0,
            }
        }

        fn next(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// A number: often the last finite one again (runs of bit-equal
        /// values, and a non-finite draw lands between two equal finite
        /// ones), its negation (`-0.0` next to `0.0`), an edge value, any
        /// bit pattern, an integer, or NaN / ±inf.
        fn number(&mut self) -> f64 {
            let n = match self.below(10) {
                0..=3 => self.last,
                4 => -self.last,
                5 | 6 => EDGE_NUMBERS[self.below(EDGE_NUMBERS.len())],
                7 => f64::from_bits(self.next()),
                8 => (self.next() % 2_000_001) as f64 - 1e6,
                _ => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][self.below(3)],
            };
            if n.is_finite() {
                self.last = n;
            }
            n
        }

        fn string(&mut self) -> String {
            (0..self.below(5))
                .map(|_| STRING_PIECES[self.below(STRING_PIECES.len())])
                .collect()
        }

        /// A tree at most `depth` containers deep; number arrays stand in
        /// for a record's per-node arrays.
        fn tree(&mut self, depth: usize) -> JsonValue {
            match self.below(if depth == 0 { 4 } else { 8 }) {
                0 => JsonValue::Null,
                1 => JsonValue::Bool(self.below(2) == 0),
                2 => JsonValue::Number(self.number()),
                3 => JsonValue::String(self.string()),
                4 => JsonValue::Array(
                    (0..self.below(12))
                        .map(|_| JsonValue::Number(self.number()))
                        .collect(),
                ),
                5 | 6 => {
                    JsonValue::Array((0..self.below(5)).map(|_| self.tree(depth - 1)).collect())
                }
                _ => JsonValue::Object(
                    (0..self.below(5))
                        .map(|_| (self.string(), self.tree(depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    /// The tree a document reads back as: non-finite numbers become `null`.
    fn as_read_back(value: &JsonValue) -> JsonValue {
        match value {
            JsonValue::Number(n) if !n.is_finite() => JsonValue::Null,
            JsonValue::Array(items) => JsonValue::Array(items.iter().map(as_read_back).collect()),
            JsonValue::Object(fields) => JsonValue::Object(
                fields
                    .iter()
                    .map(|(key, value)| (key.clone(), as_read_back(value)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn writer_matches_the_oracle_bit_for_bit_and_round_trips() {
        let mut rng = Rng::new(27);
        let mut numbers = 0;
        for _ in 0..3_000 {
            let tree = rng.tree(6);
            let (compact, pretty) = (tree.to_json(), tree.to_json_pretty());
            assert_eq!(compact, oracle(&tree, None));
            assert_eq!(pretty, oracle(&tree, Some(2)));
            let expected = as_read_back(&tree);
            assert_eq!(JsonValue::parse(&compact).unwrap(), expected, "{compact}");
            assert_eq!(JsonValue::parse(&pretty).unwrap(), expected, "{pretty}");
            numbers += compact.matches(|c: char| c.is_ascii_digit()).count();
        }
        assert!(numbers > 100_000, "the generator must exercise numbers");
        // The memo keys on bits, so a non-finite value between two equal
        // finite ones never leaks `null` into the second, and each signed
        // zero is formatted for itself.
        let runs = JsonValue::from(vec![1.5, f64::NAN, 1.5, f64::INFINITY, 1.5, -0.0, 0.0, 2.0]);
        assert_eq!(runs.to_json(), "[1.5,null,1.5,null,1.5,0,0,2]");
    }

    #[test]
    fn writer_matches_the_oracle_under_memo_pressure() {
        let mut rng = Rng::new(33);
        // More than 10,000 distinct numbers, so the memo's table doubles
        // from 64 slots to 32,768: integers, fractions, arbitrary bit
        // patterns.
        let mut distinct: Vec<f64> = (0..4_000).map(f64::from).collect();
        distinct.extend((0..4_000).map(|i| f64::from(i) / 7.0));
        distinct.extend((0..4_000).map(|_| f64::from_bits(rng.next())));
        // Signed zeros side by side, the integer-rendering cutoff at 10^15
        // from both sides, and non-finite values, which write `null` and
        // are never memoized.
        let edges = [
            0.0,
            -0.0,
            1e15 - 1.0,
            1e15 - 0.5,
            1e15,
            1e15 + 2.0,
            -(1e15 - 1.0),
            -1e15,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        // Numbers a few ulps apart that share one home slot in the first
        // table, written first and then again: each lookup among them walks
        // past the others' slots.
        let crowd: Vec<f64> = (0..)
            .map(|ulps| f64::from_bits(0.1f64.to_bits() + ulps))
            .filter(|n| NumberMemo::home(n.to_bits(), NumberMemo::FIRST_SLOTS - 1) == 0)
            .take(24)
            .collect();
        let mut tree = JsonValue::object();
        tree.set("crowd", [&crowd[..], &crowd[..]].concat());
        for (i, chunk) in distinct.chunks(97).enumerate() {
            let mut items = Vec::new();
            for (j, &n) in chunk.iter().enumerate() {
                items.push(n);
                match j % 4 {
                    // A run of repeats.
                    0 => items.extend([n; 3]),
                    // Repeats interleaved with other numbers.
                    1 => items.extend([chunk[0], n, chunk[0]]),
                    2 => items.push(edges[(i + j) % edges.len()]),
                    _ => {}
                }
            }
            items.extend(edges);
            // Keys and strings with and without bytes that need escaping.
            let piece = STRING_PIECES[i % STRING_PIECES.len()];
            let text = STRING_PIECES[(i * 7 + 3) % STRING_PIECES.len()];
            tree.set(format!("series {i}{piece}"), items);
            tree.set(
                format!("{piece}label"),
                format!("{text}node {i}{piece}{text}"),
            );
            tree.set("plain", format!("node_utilization_{i}"));
        }
        let finite: std::collections::BTreeSet<u64> = distinct
            .iter()
            .chain(&edges)
            .chain(&crowd)
            .filter(|n| n.is_finite())
            .map(|n| n.to_bits())
            .collect();
        assert!(finite.len() > 10_000, "{}", finite.len());
        for pretty in [false, true] {
            let mut writer = JsonWriter::new(pretty);
            tree.write(&mut writer);
            // Each distinct number was formatted once, into its own slot.
            assert_eq!(writer.numbers.len, finite.len());
            assert!(writer.numbers.slots.len() >= 2 * finite.len());
            let expected = oracle(&tree, pretty.then_some(2));
            assert!(writer.finish() == expected, "pretty: {pretty}");
        }
    }

    /// The byte offset an error names (`JSON at byte N: …`).
    fn error_offset(err: &CoreError) -> usize {
        let text = err.to_string();
        text.split_once("JSON at byte ")
            .and_then(|(_, rest)| rest.split_once(':'))
            .and_then(|(at, _)| at.parse().ok())
            .unwrap_or_else(|| panic!("no byte offset in '{text}'"))
    }

    /// A real report: three designs under two lenses.
    fn small_report() -> String {
        Experiment::new(&SweepJoin::section_5_4(JoinQuerySpec::q3_dual_shuffle()))
            .designs([
                ClusterSpec::homogeneous(cluster_v_node(), 4).unwrap(),
                ClusterSpec::homogeneous(cluster_v_node(), 2).unwrap(),
                ClusterSpec::heterogeneous(cluster_v_node(), 2, laptop_b(), 2).unwrap(),
            ])
            .estimator(Analytical)
            .estimator(Behavioural)
            .run()
            .unwrap()
            .to_json_string()
    }

    #[test]
    fn parsed_containers_are_allocated_at_their_final_size() {
        fn walk(value: &JsonValue, containers: &mut usize) {
            match value {
                JsonValue::Array(items) => {
                    assert_eq!(items.capacity(), items.len());
                    *containers += 1;
                    items.iter().for_each(|item| walk(item, containers));
                }
                JsonValue::Object(fields) => {
                    assert_eq!(fields.capacity(), fields.len());
                    *containers += 1;
                    fields.iter().for_each(|(_, value)| walk(value, containers));
                }
                _ => {}
            }
        }
        let mut containers = 0;
        walk(&JsonValue::parse(&small_report()).unwrap(), &mut containers);
        assert!(containers > 40, "{containers}");
        // An error inside the innermost container MAX_NESTING deep, with an
        // element already on the stack at every level, still names its byte.
        for (doc, at, message) in [
            (
                "[0,".repeat(MAX_NESTING) + "1,}",
                3 * MAX_NESTING + 2,
                "unexpected '}'",
            ),
            (
                "{\"a\":".repeat(MAX_NESTING - 1) + "{\"k\" 1}",
                5 * MAX_NESTING,
                "expected ':'",
            ),
        ] {
            let err = JsonValue::parse(&doc).unwrap_err().to_string();
            let expected = format!("JSON at byte {at}: {message}");
            assert!(err.contains(&expected), "{err}");
        }
    }

    #[test]
    fn parse_survives_hostile_mutations_of_a_real_report() {
        let text = small_report();
        // Never a panic; an error names a byte inside the input (or its
        // end); a document that parses re-renders to text that parses back
        // to the same tree.
        let check = |doc: &str| match JsonValue::parse(doc) {
            Ok(tree) => {
                let again = JsonValue::parse(&tree.to_json()).unwrap();
                assert_eq!(again, tree, "{doc}");
            }
            Err(err) => assert!(error_offset(&err) <= doc.len(), "{err} in {doc:?}"),
        };
        for end in (0..=text.len().min(4_096)).filter(|&end| text.is_char_boundary(end)) {
            check(&text[..end]);
        }
        let mut rng = Rng::new(3);
        let mut mutated = 0;
        while mutated < 5_000 {
            let mut bytes = text.clone().into_bytes();
            let at = rng.below(bytes.len());
            let syntax = b"0123456789.-+eE\"\\{}[],: \n";
            let byte = match rng.below(3) {
                0 => syntax[rng.below(syntax.len())],
                _ => rng.next() as u8,
            };
            match rng.below(3) {
                0 => bytes[at] ^= 1 << rng.below(8),
                1 => bytes.insert(at, byte),
                _ => {
                    bytes.remove(at);
                }
            }
            if let Ok(doc) = String::from_utf8(bytes) {
                check(&doc);
                mutated += 1;
            }
        }
    }

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
        // What RFC 8259 forbids and the parser used to take: numbers outside
        // the grammar that `f64::from_str` accepts, raw control characters
        // in a string, a signed `\u` escape. Each error names the byte where
        // the document stopped being JSON.
        for (bad, at) in [
            ("[01]", 2),
            ("[1.]", 3),
            ("[-.5]", 2),
            ("[1.e3]", 3),
            ("[-01.5]", 3),
            ("\"a\u{0}b\"", 2),
            ("\"tab\there\"", 4),
            ("{\"k\u{1f}\": 1}", 3),
            ("\"\\u+041\"", 3),
        ] {
            let err = JsonValue::parse(bad).map(|v| format!("accepted {bad:?} as {v:?}"));
            let err = err.unwrap_err().to_string();
            assert!(
                err.contains(&format!("JSON at byte {at}:")),
                "{bad:?}: {err}"
            );
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
        // A count the `as usize` cast would saturate is an error naming the
        // field, not `usize::MAX`; the largest double below 2^64 still reads.
        let big = JsonValue::parse(
            r#"{"e300": 1e300, "two64": 18446744073709551616, "two53": 9007199254740992,
            "below64": 18446744073709549568, "counts": [1, 1e300]}"#,
        )
        .unwrap();
        for key in ["e300", "two64"] {
            let err = big.usize_field(key).unwrap_err().to_string();
            assert!(err.contains(&format!("'{key}'")), "{err}");
        }
        let err = big.usize_array_field("counts").unwrap_err().to_string();
        assert!(err.contains("'counts'"), "{err}");
        assert_eq!(big.usize_field("two53").unwrap(), 1 << 53);
        assert_eq!(
            big.usize_field("below64").unwrap(),
            18_446_744_073_709_549_568
        );
        // Non-objects have no fields.
        assert!(JsonValue::Null.get("k").is_none());
        assert!(JsonValue::Null.as_object().is_none());
        assert_eq!(v.as_object().unwrap().len(), 6);
    }
}
