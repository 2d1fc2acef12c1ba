//! The workspace's one JSON module: a [`Value`] tree, its parser and its
//! pretty writer.
//!
//! The build environment has no registry access, so instead of
//! serde_json this module covers what the workspace's producers emit —
//! `uc_bench`'s figure dumps and `uc check --format json` — and nothing
//! more: numbers are non-negative integers, and there are no floats,
//! booleans or nulls. [`to_string_pretty`] prints the layout
//! `serde_json::to_string_pretty` would: two-space indent, `"key": value`,
//! and `[]` / `{}` for an empty array or object.

use std::fmt::Write;

/// One JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Num(u64),
    Str(String),
    Arr(Vec<Value>),
    /// An object, its keys in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

// ---- writing -------------------------------------------------------------

/// Pretty-print `v` (2-space indent, serde_json-compatible).
pub fn to_string_pretty(v: &Value) -> String {
    let mut out = String::new();
    write_value(v, 0, &mut out);
    out
}

fn write_value(v: &Value, depth: usize, out: &mut String) {
    match v {
        Value::Num(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Str(s) => write_str(s, out),
        Value::Arr(items) => {
            write_seq(items, ['[', ']'], depth, out, |item, out| write_value(item, depth + 1, out))
        }
        Value::Obj(fields) => write_seq(fields, ['{', '}'], depth, out, |(key, v), out| {
            write_str(key, out);
            out.push_str(": ");
            write_value(v, depth + 1, out);
        }),
    }
}

/// `items` between `brackets`, one per line at `depth + 1`.
fn write_seq<T>(
    items: &[T],
    [open, close]: [char; 2],
    depth: usize,
    out: &mut String,
    mut write_item: impl FnMut(&T, &mut String),
) {
    out.push(open);
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        write_item(item, out);
    }
    if !items.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

fn write_str(s: &str, out: &mut String) {
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

// ---- parsing -------------------------------------------------------------

/// Parse one JSON value (whitespace-insensitive) that fills `s`.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut parser = Parser { bytes: s.as_bytes(), pos: 0 };
    let v = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.err("trailing data");
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("json parse error at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\n' | b'\r' | b'\t') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(&format!("expected `{}`", b as char))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'0'..=b'9') => self.number(),
            Some(c) => self.err(&format!("unexpected `{}`", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos).copied() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos).copied() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let code = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|hex| std::str::from_utf8(hex).ok())
                                .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                                .and_then(char::from_u32);
                            match code {
                                Some(c) => out.push(c),
                                None => return self.err("bad \\u escape"),
                            }
                            self.pos += 4;
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && self.bytes[self.pos] & 0xC0 == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b'0'..=b'9') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<u64>().map(Value::Num).map_err(|e| e.to_string())
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn text(s: &str) -> Value {
        Value::Str(s.to_string())
    }

    #[test]
    fn roundtrip_with_escapes_and_empty_series() {
        let v = Value::Obj(vec![
            ("id".into(), text("fig6")),
            ("title".into(), text("Shortest \"Path\"")),
            ("x_label".into(), text("N\nnodes")),
            (
                "series".into(),
                Value::Arr(vec![
                    Value::Obj(vec![
                        ("label".into(), text("UC")),
                        (
                            "points".into(),
                            Value::Arr(vec![Value::Arr(vec![Value::Num(4), Value::Num(100)])]),
                        ),
                    ]),
                    Value::Obj(vec![
                        ("label".into(), text("C*")),
                        ("points".into(), Value::Arr(vec![])),
                    ]),
                ]),
            ),
        ]);
        let json = to_string_pretty(&v);
        assert_eq!(
            json,
            "{\n  \"id\": \"fig6\",\n  \"title\": \"Shortest \\\"Path\\\"\",\n  \"x_label\": \"N\\nnodes\",\n  \
             \"series\": [\n    {\n      \"label\": \"UC\",\n      \"points\": [\n        [\n          4,\n          \
             100\n        ]\n      ]\n    },\n    {\n      \"label\": \"C*\",\n      \"points\": []\n    }\n  ]\n}"
        );
        assert_eq!(parse(&json).unwrap(), v);
        assert_eq!(to_string_pretty(&Value::Obj(vec![])), "{}");
    }

    #[test]
    fn parses_compact_layout() {
        let compact = r#"{"id":"t","series":[{"label":"aé\/","points":[[1,10]]}]}"#;
        let v = parse(compact).unwrap();
        let series = &v.get("series").and_then(Value::as_array).unwrap()[0];
        assert_eq!(series.get("label").and_then(Value::as_str), Some("aé/"));
        let point = series.get("points").and_then(Value::as_array).unwrap()[0].as_array().unwrap();
        assert_eq!(point, [Value::Num(1), Value::Num(10)]);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "[1 2]",
            r#"{"a" 1}"#,
            r#"{"a": 1,}"#,
            r#""\q""#,
            r#""\ud800""#,
            "-1",
            "1.5",
            "null",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        assert_eq!(parse("[1] x"), Err("json parse error at byte 4: trailing data".to_string()));
    }

    #[test]
    fn parse_value_and_accessors() {
        let v = parse(r#"[{"code": "UC101", "line": 3}, {"line": 4}]"#).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("code").and_then(Value::as_str), Some("UC101"));
        assert_eq!(items[0].get("line").and_then(Value::as_u64), Some(3));
        assert_eq!(items[1].get("code"), None);
        assert_eq!(items[1].as_str(), None);
        assert_eq!(v.get("line"), None);
        assert!(parse("[1, 2] trailing").is_err());
    }

    /// A string drawn from `tape`: quotes, backslashes, every control
    /// character class the writer escapes, and non-ASCII text.
    fn string(tape: &mut dyn Iterator<Item = u32>) -> String {
        const PIECES: &[&str] = &[
            "", "a", "\"", "\\", "\n", "\r", "\t", "\u{0}", "\u{8}", "\u{1f}", "\u{7f}", "é", "→",
            "𝄞", "/", "key",
        ];
        let len = tape.next().unwrap_or(0) % 5;
        (0..len).map(|_| PIECES[tape.next().unwrap_or(0) as usize % PIECES.len()]).collect()
    }

    /// A value drawn from `tape` (exhausted tape reads as zeros), nested
    /// at most `depth` deep.
    fn value(tape: &mut dyn Iterator<Item = u32>, depth: u32) -> Value {
        let shape =
            if depth == 0 { tape.next().unwrap_or(0) % 2 } else { tape.next().unwrap_or(0) % 4 };
        let len = tape.next().unwrap_or(0) % 4;
        match shape {
            0 => Value::Num(u64::from(tape.next().unwrap_or(0)) << (tape.next().unwrap_or(0) % 48)),
            1 => Value::Str(string(tape)),
            2 => Value::Arr((0..len).map(|_| value(tape, depth - 1)).collect()),
            _ => Value::Obj((0..len).map(|_| (string(tape), value(tape, depth - 1))).collect()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// What the writer prints, the parser reads back as the same value.
        #[test]
        fn pretty_output_parses_back_to_the_value(
            tape in prop::collection::vec(0u32..1 << 16, 4..96),
        ) {
            let v = value(&mut tape.into_iter(), 4);
            let json = to_string_pretty(&v);
            prop_assert_eq!(parse(&json), Ok(v), "{}", json);
        }
    }
}
