//! A minimal JSON value: parser and writer.
//!
//! The analyze pass persists one machine-readable artifact, the
//! checked-in finding baseline (`analyze-baseline.json`), and must read
//! it back. The build environment has no registry access, so instead of
//! `serde_json` this is a small hand-rolled recursive descent parser
//! over exactly the JSON this crate itself emits (objects, arrays,
//! strings, integers, booleans, null). Unknown or malformed input
//! returns `None`; callers treat that as "no baseline".

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One JSON value. Numbers are kept as `i64` — every number this
/// crate persists (lines, hashes as decimal strings excepted) fits.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(i64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object map, if it is one.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// Member lookup on an object; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// Serializes the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => out.push_str(&quote(s)),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&quote(k));
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Builds an object value from key/value pairs.
pub fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// JSON string escaping (RFC 8259: quote, backslash, control chars).
pub fn quote(s: &str) -> String {
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

/// Parses one JSON document. `None` on any syntax error or trailing
/// garbage.
pub fn parse(src: &str) -> Option<Value> {
    let chars: Vec<char> = src.chars().collect();
    let mut p = Parser { chars, at: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.at == p.chars.len() {
        Some(v)
    } else {
        None
    }
}

struct Parser {
    chars: Vec<char>,
    at: usize,
}

impl Parser {
    fn skip_ws(&mut self) {
        while self
            .chars
            .get(self.at)
            .is_some_and(|c| c.is_ascii_whitespace())
        {
            self.at += 1;
        }
    }

    fn eat(&mut self, c: char) -> Option<()> {
        self.skip_ws();
        if self.chars.get(self.at) == Some(&c) {
            self.at += 1;
            Some(())
        } else {
            None
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.chars.get(self.at).copied()
    }

    fn value(&mut self) -> Option<Value> {
        match self.peek()? {
            '{' => self.object(),
            '[' => self.array(),
            '"' => self.string().map(Value::Str),
            't' => self.keyword("true", Value::Bool(true)),
            'f' => self.keyword("false", Value::Bool(false)),
            'n' => self.keyword("null", Value::Null),
            '-' | '0'..='9' => self.number(),
            _ => None,
        }
    }

    fn keyword(&mut self, word: &str, v: Value) -> Option<Value> {
        self.skip_ws();
        for expected in word.chars() {
            if self.chars.get(self.at) != Some(&expected) {
                return None;
            }
            self.at += 1;
        }
        Some(v)
    }

    fn number(&mut self) -> Option<Value> {
        self.skip_ws();
        let start = self.at;
        if self.chars.get(self.at) == Some(&'-') {
            self.at += 1;
        }
        while self.chars.get(self.at).is_some_and(|c| c.is_ascii_digit()) {
            self.at += 1;
        }
        if self.at == start {
            return None;
        }
        let text: String = self.chars[start..self.at].iter().collect();
        text.parse().ok().map(Value::Num)
    }

    fn string(&mut self) -> Option<String> {
        self.eat('"')?;
        let mut out = String::new();
        loop {
            let c = *self.chars.get(self.at)?;
            self.at += 1;
            match c {
                '"' => return Some(out),
                '\\' => {
                    let esc = *self.chars.get(self.at)?;
                    self.at += 1;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let d = *self.chars.get(self.at)?;
                                self.at += 1;
                                code = code * 16 + d.to_digit(16)?;
                            }
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                c => out.push(c),
            }
        }
    }

    fn array(&mut self) -> Option<Value> {
        self.eat('[')?;
        let mut items = Vec::new();
        if self.peek() == Some(']') {
            self.at += 1;
            return Some(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                ',' => self.at += 1,
                ']' => {
                    self.at += 1;
                    return Some(Value::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn object(&mut self) -> Option<Value> {
        self.eat('{')?;
        let mut map = BTreeMap::new();
        if self.peek() == Some('}') {
            self.at += 1;
            return Some(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(':')?;
            map.insert(key, self.value()?);
            match self.peek()? {
                ',' => self.at += 1,
                '}' => {
                    self.at += 1;
                    return Some(Value::Obj(map));
                }
                _ => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = obj(vec![
            ("schema", Value::Num(1)),
            (
                "items",
                Value::Arr(vec![Value::Str("a\"b".into()), Value::Str("c\\d".into())]),
            ),
            (
                "inner",
                obj(vec![("n", Value::Num(-7)), ("flag", Value::Bool(true))]),
            ),
            ("nothing", Value::Null),
        ]);
        let text = doc.render();
        assert_eq!(parse(&text), Some(doc));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,", "{\"a\": }", "tru", "1 2", "\"\\x\""] {
            assert_eq!(parse(bad), None, "{bad:?} must not parse");
        }
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = parse(r#"{"s": "a\n\t\u0041\"", "n": -12}"#).expect("parses");
        assert_eq!(v.get("s").and_then(Value::as_str), Some("a\n\tA\""));
        assert_eq!(v.get("n"), Some(&Value::Num(-12)));
    }

    #[test]
    fn accessors_are_type_safe() {
        let v = parse(r#"{"a": [1, "x"]}"#).expect("parses");
        assert!(v.get("a").and_then(Value::as_arr).is_some());
        assert!(v.get("a").and_then(Value::as_str).is_none());
        assert!(v.get("missing").is_none());
    }
}
