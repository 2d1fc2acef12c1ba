//! Hand-rolled JSON for [`Figure`](crate::Figure) dumps.
//!
//! The build environment has no registry access, so instead of
//! serde/serde_json this module prints and parses the one fixed schema the
//! figure harness needs. The emitted layout matches what
//! `serde_json::to_string_pretty` would produce for the same structs.

use crate::{Figure, Series};

// ---- serialisation -------------------------------------------------------

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Pretty-print a figure (2-space indent, serde_json-compatible).
pub fn to_string_pretty(fig: &Figure) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"id\": \"{}\",\n", escape(&fig.id)));
    out.push_str(&format!("  \"title\": \"{}\",\n", escape(&fig.title)));
    out.push_str(&format!("  \"x_label\": \"{}\",\n", escape(&fig.x_label)));
    out.push_str("  \"series\": [");
    for (si, s) in fig.series.iter().enumerate() {
        if si > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n");
        out.push_str(&format!("      \"label\": \"{}\",\n", escape(&s.label)));
        out.push_str("      \"points\": [");
        for (pi, (x, y)) in s.points.iter().enumerate() {
            if pi > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n        [\n          {x},\n          {y}\n        ]"));
        }
        if !s.points.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }");
    }
    if !fig.series.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}");
    out
}

// ---- parsing -------------------------------------------------------------

/// Minimal recursive-descent JSON value: figures round-trip through it,
/// and other workspace tools (e.g. `uc check --format json`) use it to
/// validate their output against a real parse.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Num(u64),
    Str(String),
    Arr(Vec<Value>),
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

/// Parse any JSON value (the schema-free counterpart of [`from_str`]).
pub fn parse_value(s: &str) -> Result<Value, String> {
    let mut parser = Parser::new(s);
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

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { bytes: s.as_bytes(), pos: 0 }
    }

    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("json parse error at byte {}: {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\n' || b == b'\r' || b == b'\t' {
                self.pos += 1;
            } else {
                break;
            }
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(
                                char::from_u32(code).ok_or("invalid \\u escape".to_string())?,
                            );
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
        self.skip_ws();
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if start == self.pos {
            return self.err("expected number");
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

fn get<'v>(obj: &'v [(String, Value)], key: &str) -> Result<&'v Value, String> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn as_str(v: &Value) -> Result<String, String> {
    match v {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!("expected string, got {other:?}")),
    }
}

fn as_u64(v: &Value) -> Result<u64, String> {
    match v {
        Value::Num(n) => Ok(*n),
        other => Err(format!("expected number, got {other:?}")),
    }
}

fn series_from(v: &Value) -> Result<Series, String> {
    let Value::Obj(fields) = v else {
        return Err(format!("expected series object, got {v:?}"));
    };
    let Value::Arr(raw_points) = get(fields, "points")? else {
        return Err("`points` must be an array".to_string());
    };
    let mut points = Vec::with_capacity(raw_points.len());
    for p in raw_points {
        let Value::Arr(pair) = p else {
            return Err(format!("expected [x, y] point, got {p:?}"));
        };
        if pair.len() != 2 {
            return Err(format!("expected 2-element point, got {} elements", pair.len()));
        }
        points.push((as_u64(&pair[0])? as usize, as_u64(&pair[1])?));
    }
    Ok(Series { label: as_str(get(fields, "label")?)?, points })
}

/// Parse a figure from JSON in the layout [`to_string_pretty`] emits
/// (whitespace-insensitive).
pub fn from_str(s: &str) -> Result<Figure, String> {
    let mut parser = Parser::new(s);
    let root = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return parser.err("trailing data");
    }
    let Value::Obj(fields) = &root else {
        return Err("top level must be an object".to_string());
    };
    let Value::Arr(raw_series) = get(fields, "series")? else {
        return Err("`series` must be an array".to_string());
    };
    Ok(Figure {
        id: as_str(get(fields, "id")?)?,
        title: as_str(get(fields, "title")?)?,
        x_label: as_str(get(fields, "x_label")?)?,
        series: raw_series.iter().map(series_from).collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        Figure {
            id: "fig6".into(),
            title: "Shortest \"Path\"".into(),
            x_label: "N\nnodes".into(),
            series: vec![
                Series { label: "UC".into(), points: vec![(4, 100), (8, 400)] },
                Series { label: "C*".into(), points: vec![] },
            ],
        }
    }

    #[test]
    fn roundtrip_with_escapes_and_empty_series() {
        let fig = sample();
        let json = to_string_pretty(&fig);
        assert_eq!(from_str(&json).unwrap(), fig);
    }

    #[test]
    fn parses_compact_layout() {
        let compact = r#"{"id":"t","title":"T","x_label":"n","series":[{"label":"a","points":[[1,10]]}]}"#;
        let fig = from_str(compact).unwrap();
        assert_eq!(fig.series[0].points, vec![(1, 10)]);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str("").is_err());
        assert!(from_str("{").is_err());
        assert!(from_str(r#"{"id": "t"}"#).is_err());
        assert!(from_str(r#"{"id":"t","title":"T","x_label":"n","series":[{}]}"#).is_err());
    }

    #[test]
    fn parse_value_and_accessors() {
        let v = parse_value(r#"[{"code": "UC101", "line": 3}, {"line": 4}]"#).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].get("code").and_then(Value::as_str), Some("UC101"));
        assert_eq!(items[0].get("line").and_then(Value::as_u64), Some(3));
        assert_eq!(items[1].get("code"), None);
        assert!(parse_value("[1, 2] trailing").is_err());
    }
}
