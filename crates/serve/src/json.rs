//! A minimal self-contained JSON value, parser and emitter.
//!
//! The vendored `serde` stub has no runtime, so JSON is hand-rolled here,
//! once, for the wire and for the artifacts: requests and responses are
//! single-line JSON objects built from and parsed into [`Json`] trees
//! ([`Json::emit`]), and every `fig11` and `serve_bench` artifact is written
//! by [`Pretty`]. Emission is deterministic — object keys keep insertion
//! order and floats print through Rust's `{}` formatting (shortest
//! round-trip representation; non-finite values become `null`).

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// Field lookup on an object (first match, like every JSON decoder).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer view of a number (rejects fractional and out-of-range values).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a complete JSON document (trailing garbage is an error).
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut p = Parser { bytes, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Emits the value as compact single-line JSON (the wire form).
    pub fn emit(&self) -> String {
        let mut out = String::new();
        self.emit_into::<false>(&mut out);
        out
    }

    /// Emits the value on one line with `", "` and `": "` separators: the
    /// form of every value an artifact writes inline (see [`Pretty`]).
    pub fn emit_inline(&self) -> String {
        let mut out = String::new();
        self.emit_into::<true>(&mut out);
        out
    }

    fn emit_into<const SPACED: bool>(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => emit_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        push_separator::<SPACED>(out, ',');
                    }
                    item.emit_into::<SPACED>(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        push_separator::<SPACED>(out, ',');
                    }
                    emit_string(k, out);
                    push_separator::<SPACED>(out, ':');
                    v.emit_into::<SPACED>(out);
                }
                out.push('}');
            }
        }
    }
}

/// The separator `c`, followed by a space in the inline form.
fn push_separator<const SPACED: bool>(out: &mut String, c: char) {
    out.push(c);
    if SPACED {
        out.push(' ');
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

/// Numbers are `f64`, so an integer above 2^53 would be written rounded:
/// every count the artifacts write is far below that, and `fig11` refuses
/// larger seeds.
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::str(v)
    }
}

/// `None` is written as `null`.
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

/// The writer of the pretty-printed artifacts. The caller opens the block
/// objects and arrays, which hold one member per line at a two-space
/// indent and close on a line of their own, and writes every other value
/// inline ([`Json::emit_inline`]). So every member of a block has a line to
/// itself: CI drops the `"solve_ms"` wall times with a line filter.
pub struct Pretty {
    out: String,
    depth: usize,
}

impl Pretty {
    /// A document whose root is the block object `build` fills, ending in
    /// a newline.
    pub fn document(build: impl FnOnce(&mut Pretty)) -> String {
        let mut w = Pretty {
            out: String::new(),
            depth: 0,
        };
        w.block('{', '}', build);
        w.out.push('\n');
        w.out
    }

    /// The member `"key": value` of the open block object, inline.
    pub fn field(&mut self, key: &str, value: impl Into<Json>) {
        self.member(Some(key));
        value.into().emit_into::<true>(&mut self.out);
    }

    /// An item of the open block array, inline.
    pub fn item(&mut self, value: impl Into<Json>) {
        self.member(None);
        value.into().emit_into::<true>(&mut self.out);
    }

    /// The member `key` of the open block object: a block object.
    pub fn object(&mut self, key: &str, build: impl FnOnce(&mut Pretty)) {
        self.member(Some(key));
        self.block('{', '}', build);
    }

    /// The member `key` of the open block object: a block array.
    pub fn array(&mut self, key: &str, build: impl FnOnce(&mut Pretty)) {
        self.member(Some(key));
        self.block('[', ']', build);
    }

    /// An item of the open block array: a block object.
    pub fn item_object(&mut self, build: impl FnOnce(&mut Pretty)) {
        self.member(None);
        self.block('{', '}', build);
    }

    /// Starts a member on a line of its own. Only a block's opening
    /// bracket can precede its first member (a value never ends in one),
    /// so every other member follows a comma.
    fn member(&mut self, key: Option<&str>) {
        if !self.out.ends_with(['{', '[']) {
            self.out.push(',');
        }
        self.newline();
        if let Some(key) = key {
            emit_string(key, &mut self.out);
            self.out.push_str(": ");
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n("  ", self.depth));
    }

    fn block(&mut self, open: char, close: char, build: impl FnOnce(&mut Pretty)) {
        self.out.push(open);
        self.depth += 1;
        build(self);
        self.depth -= 1;
        self.newline();
        self.out.push(close);
    }
}

fn emit_string(s: &str, out: &mut String) {
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

const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err("unterminated string".to_string());
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    let esc = *rest.get(1).ok_or("unterminated escape")?;
                    self.pos += 2;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-utf8 \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("invalid \\u escape '{hex}'"))?;
                            self.pos += 4;
                            // Surrogate pairs are replaced rather than joined;
                            // the protocol never emits them.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        c => return Err(format!("invalid escape '\\{}'", c as char)),
                    }
                }
                _ => {
                    // Advance one UTF-8 scalar at a time.
                    let s = std::str::from_utf8(rest).map_err(|_| "non-utf8 string")?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
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
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let text = r#"{"a":[1,2.5,null,true],"b":{"c":"x\"y\n"},"d":-3e2}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("d").unwrap().as_f64(), Some(-300.0));
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\"y\n")
        );
        let emitted = v.emit();
        assert_eq!(Json::parse(&emitted).unwrap(), v);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "{\"a\":1}x",
            "\"unterminated",
            "nul",
            "1.2.3",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn numbers_emit_like_rust_display() {
        assert_eq!(Json::Num(3.0).emit(), "3");
        assert_eq!(Json::Num(0.25).emit(), "0.25");
        assert_eq!(Json::Num(f64::INFINITY).emit(), "null");
    }

    #[test]
    fn pretty_nests_blocks_around_inline_values_and_parses_back() {
        let inline = Json::obj(vec![("x", Json::Null), ("y", Json::Arr(vec![1u64.into()]))]);
        let text = Pretty::document(|w| {
            w.field("a", 1u64);
            w.object("b", |w| {
                w.array("c", |w| {
                    w.item_object(|w| w.field("d", true));
                    w.item(inline.clone());
                });
                w.array("e", |_| {});
            });
            w.object("f", |_| {});
        });
        let expected = "{\n  \"a\": 1,\n  \"b\": {\n    \"c\": [\n      {\n        \"d\": true\n      },\n      \
                        {\"x\": null, \"y\": [1]}\n    ],\n    \"e\": [\n    ]\n  },\n  \"f\": {\n  }\n}\n";
        assert_eq!(text, expected);
        let c = Json::Arr(vec![Json::obj(vec![("d", true.into())]), inline]);
        let b = Json::obj(vec![("c", c), ("e", Json::Arr(Vec::new()))]);
        let tree = Json::obj(vec![
            ("a", 1u64.into()),
            ("b", b),
            ("f", Json::obj(Vec::new())),
        ]);
        assert_eq!(Json::parse(&text).unwrap(), tree);
        assert_eq!(tree.emit(), text.split_whitespace().collect::<String>());
    }

    #[test]
    fn pretty_escapes_keys_and_writes_non_finite_numbers_as_null() {
        let text = Pretty::document(|w| {
            w.field("say \"hi\"\n", f64::NAN);
            w.field(
                "inf",
                Json::Arr(vec![f64::INFINITY.into(), None::<u64>.into()]),
            );
        });
        let expected = "{\n  \"say \\\"hi\\\"\\n\": null,\n  \"inf\": [null, null]\n}\n";
        assert_eq!(text, expected);
        assert_eq!(
            Json::parse(&text).unwrap().get("say \"hi\"\n"),
            Some(&Json::Null)
        );
    }

    #[test]
    fn whitespace_and_unicode_escapes_parse() {
        let v = Json::parse(" { \"k\" : [ \"\\u0041\" ] } ").unwrap();
        assert_eq!(v.get("k").unwrap().as_arr().unwrap()[0].as_str(), Some("A"));
    }

    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Characters that stress every emitter path: escapes, control
    /// characters, multi-byte UTF-8.
    const PALETTE: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é',
        '→', '🦀',
    ];

    fn arbitrary_string(rng: &mut StdRng) -> String {
        let len = rng.gen_range(0..8usize);
        (0..len)
            .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
            .collect()
    }

    fn arbitrary_json(rng: &mut StdRng, depth: usize) -> Json {
        let choice = if depth == 0 {
            rng.gen_range(0..4u32)
        } else {
            rng.gen_range(0..6u32)
        };
        match choice {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_range(0..2u32) == 1),
            2 => {
                // Finite doubles across signs and magnitudes (integers
                // included); non-finite values emit as `null` by design and
                // so cannot round-trip.
                let mantissa: f64 = rng.gen_range(-1.0e6..1.0e6);
                let exp = rng.gen_range(-3i32..4);
                Json::Num(mantissa * 10f64.powi(exp))
            }
            3 => Json::Str(arbitrary_string(rng)),
            4 => Json::Arr(
                (0..rng.gen_range(0..4usize))
                    .map(|_| arbitrary_json(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.gen_range(0..4usize))
                    .map(|_| (arbitrary_string(rng), arbitrary_json(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn parse_inverts_emit(seed in 0u64..1_000_000_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let value = arbitrary_json(&mut rng, 4);
            let line = value.emit();
            let back = Json::parse(&line).map_err(|message| TestCaseError { message })?;
            prop_assert_eq!(&back, &value);
            // Emission is a fixed point of the round trip.
            prop_assert_eq!(back.emit(), line);
            // The artifacts' inline form parses back to the same tree.
            prop_assert_eq!(Json::parse(&value.emit_inline()).ok(), Some(value));
        }
    }

    #[test]
    fn truncated_documents_error_without_panic() {
        let line = r#"{"a":[1,-2.5e3,null,true,"x\"y\n\u0001"],"b":{"c":[[]],"d":"é→"}}"#;
        assert!(Json::parse(line).is_ok());
        for cut in 0..line.len() {
            if !line.is_char_boundary(cut) {
                continue;
            }
            assert!(
                Json::parse(&line[..cut]).is_err(),
                "accepted truncation at byte {cut}"
            );
        }
    }

    #[test]
    fn malformed_corpus_returns_structured_errors() {
        for bad in [
            "[1 2]",
            "{\"a\" 1}",
            "{a:1}",
            "tru",
            "falsey",
            "+1",
            ".5",
            "--1",
            "1e",
            "\"\\q\"",
            "\"\\u12\"",
            "\"\\u12zz\"",
            "[,1]",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,}",
            "\u{0}",
            "[}",
        ] {
            let err = Json::parse(bad).expect_err(&format!("accepted {bad:?}"));
            assert!(!err.is_empty(), "empty error message for {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_a_structured_error_not_a_stack_overflow() {
        for opener in ["[", "{\"k\":"] {
            let deep = opener.repeat(100_000);
            let err = Json::parse(&deep).unwrap_err();
            assert!(err.contains("nesting too deep"), "got: {err}");
        }
        // Depth just inside the bound still parses.
        let ok = format!("{}1{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&ok).is_ok());
        let over = format!(
            "{}1{}",
            "[".repeat(MAX_DEPTH + 1),
            "]".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&over).unwrap_err().contains("nesting too deep"));
    }
}
