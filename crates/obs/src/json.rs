//! The crate's one JSON reader, plus the shared string escaper and the
//! run-provenance header every JSONL artifact opens with.
//!
//! The repo is zero-dependency by policy, so every artifact the stack emits
//! (run summaries, `analyze --json` and `profile --json` documents, span and
//! health JSONL lines) is read back through this small general (nested) JSON parser.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as f64; fine for the magnitudes we store).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Key order is not preserved (sorted map) — irrelevant for
    /// reading our own artifacts back.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    /// A description of the first syntax problem found.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            chars: text.chars().peekable(),
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.chars.next().is_some() {
            return Err("trailing characters after document".into());
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Parses one JSONL line that must hold a JSON object.
    pub(crate) fn parse_object(line: &str) -> Result<Json, String> {
        match Json::parse(line)? {
            obj @ Json::Obj(_) => Ok(obj),
            _ => Err("expected a JSON object".into()),
        }
    }

    /// Required object field.
    pub(crate) fn field(&self, key: &str) -> Result<&Json, String> {
        self.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// Required numeric object field.
    pub(crate) fn num_field(&self, key: &str) -> Result<f64, String> {
        self.field(key)?
            .as_f64()
            .ok_or_else(|| format!("{key} must be a number"))
    }

    /// Required string object field.
    pub(crate) fn str_field(&self, key: &str) -> Result<&str, String> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| format!("{key} must be a string"))
    }
}

/// Run provenance embedded as the first line of a JSONL artifact: which run
/// (seed + configuration digest) produced the file, so downstream tooling
/// (`fabricsim diff`) can verify it is comparing like with like.
///
/// The line is a flat object with a `"provenance":1` discriminator field so
/// record parsers can skip it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunProvenance {
    /// RNG seed of the run that produced the artifact.
    pub seed: u64,
    /// `SimConfig::digest()` of the run's configuration.
    pub config_digest: String,
}

impl RunProvenance {
    /// Serializes the provenance as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"provenance\":1,\"seed\":{},\"config_digest\":\"{}\"}}",
            self.seed,
            escape(&self.config_digest)
        )
    }

    /// Parses one provenance line produced by [`RunProvenance::to_json`].
    ///
    /// # Errors
    /// A description of the first syntax or schema problem found.
    pub fn from_json(line: &str) -> Result<RunProvenance, String> {
        let obj = Json::parse_object(line)?;
        match obj.field("provenance")? {
            // Version discriminator: the writer emits the literal `1`.
            Json::Num(n) if (*n - 1.0).abs() < f64::EPSILON => {}
            _ => return Err("provenance version must be the number 1".into()),
        }
        let seed = match obj.field("seed")? {
            Json::Num(n) if *n >= 0.0 => *n as u64,
            _ => return Err("seed must be a non-negative number".into()),
        };
        Ok(RunProvenance {
            seed,
            config_digest: obj.str_field("config_digest")?.to_string(),
        })
    }
}

/// Cheap test for a provenance line: the substring check filters the hot
/// path (record lines never contain the key), the parse confirms it is the
/// object's *key*, not a string value.
pub(crate) fn is_provenance_line(line: &str) -> bool {
    line.contains("\"provenance\"")
        && Json::parse(line).is_ok_and(|obj| obj.get("provenance").is_some())
}

/// JSON string escaping for the characters that can occur in station/tx names
/// (plus full control-character coverage for safety).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

struct Parser<'a> {
    chars: std::iter::Peekable<std::str::Chars<'a>>,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.chars.peek(), Some(c) if c.is_whitespace()) {
            self.chars.next();
        }
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        match self.chars.next() {
            Some(c) if c == want => Ok(()),
            other => Err(format!("expected {want:?}, found {other:?}")),
        }
    }

    fn keyword(&mut self, rest: &str, value: Json) -> Result<Json, String> {
        for want in rest.chars() {
            self.expect(want)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.chars.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Json::Str(self.string()?)),
            Some('t') => {
                self.chars.next();
                self.keyword("rue", Json::Bool(true))
            }
            Some('f') => {
                self.chars.next();
                self.keyword("alse", Json::Bool(false))
            }
            Some('n') => {
                self.chars.next();
                self.keyword("ull", Json::Null)
            }
            Some(c) if c.is_ascii_digit() || *c == '-' => self.number(),
            other => Err(format!("unexpected value start {other:?}")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.chars.peek() == Some(&'}') {
            self.chars.next();
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.chars.next() {
                Some(',') => continue,
                Some('}') => return Ok(Json::Obj(map)),
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.chars.peek() == Some(&']') {
            self.chars.next();
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.chars.next() {
                Some(',') => continue,
                Some(']') => return Ok(Json::Arr(items)),
                other => return Err(format!("expected ',' or ']', found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.chars.next() {
                None => return Err("unterminated string".into()),
                Some('"') => return Ok(out),
                Some('\\') => match self.chars.next() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('r') => out.push('\r'),
                    Some('t') => out.push('\t'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let hex: String = (0..4).filter_map(|_| self.chars.next()).collect();
                        let code = u32::from_str_radix(&hex, 16)
                            .map_err(|e| format!("bad \\u escape {hex:?}: {e}"))?;
                        out.push(char::from_u32(code).ok_or("invalid \\u codepoint")?);
                    }
                    other => return Err(format!("bad escape {other:?}")),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let mut num = String::new();
        while let Some(&c) = self.chars.peek() {
            if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E') {
                num.push(c);
                self.chars.next();
            } else {
                break;
            }
        }
        num.parse()
            .map(Json::Num)
            .map_err(|e| format!("bad number {num:?}: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#" {"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": null}, "e": true} "#;
        let v = Json::parse(doc).expect("parses");
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "{\"a\":1} extra",
            "\"unterminated",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn round_trips_empty_containers() {
        assert_eq!(Json::parse("{}").unwrap(), Json::Obj(BTreeMap::new()));
        assert_eq!(Json::parse("[]").unwrap(), Json::Arr(Vec::new()));
    }

    #[test]
    fn decodes_string_escapes() {
        // \uXXXX (BMP), backslash, quote, and the short escapes together.
        let v = Json::parse(r#""Aé中 \\ \" \/ \n\r\t\b\f""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé中 \\ \" / \n\r\t\u{8}\u{c}"));
        // Escapes are also decoded in object keys.
        let v = Json::parse(r#"{"a\"b\\c": 1}"#).unwrap();
        assert_eq!(v.get("a\"b\\c").and_then(Json::as_f64), Some(1.0));
    }

    #[test]
    fn rejects_bad_unicode_escapes() {
        for bad in [
            r#""\uD800""#, // lone surrogate is not a scalar value
            r#""\u12""#,   // truncated hex
            r#""\uZZZZ""#, // not hex
            r#""\x41""#,   // unknown escape letter
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn parses_deeply_nested_containers() {
        let depth = 200;
        let deep_arr = "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&deep_arr).is_ok(), "deep arrays parse");
        let deep_obj = "{\"k\":".repeat(depth) + "null" + &"}".repeat(depth);
        let mut v = &Json::parse(&deep_obj).expect("deep objects parse");
        for _ in 0..depth {
            v = v.get("k").expect("every level has k");
        }
        assert_eq!(v, &Json::Null);
        // Unbalanced deep nesting still errors rather than hanging.
        assert!(Json::parse(&"[".repeat(depth)).is_err());
    }

    #[test]
    fn parses_exponent_form_numbers() {
        for (text, want) in [
            ("1e3", 1000.0),
            ("1E3", 1000.0),
            ("2.5e-2", 0.025),
            ("-1.5E+10", -1.5e10),
            ("0.0001e4", 1.0),
            ("-0", 0.0),
        ] {
            let v = Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(v.as_f64(), Some(want), "{text}");
        }
    }

    #[test]
    fn escaping_round_trips_special_characters() {
        let name = "we\"ird\\name\twith\ncontrol\u{1}";
        let doc = format!("{{\"station\":\"{}\"}}", escape(name));
        let v = Json::parse(&doc).expect("escaped string parses");
        assert_eq!(v.str_field("station"), Ok(name));
    }

    #[test]
    fn provenance_round_trips() {
        let prov = RunProvenance {
            seed: 42,
            config_digest: "ab12cd34ef56ab78".into(),
        };
        let line = prov.to_json();
        assert!(is_provenance_line(&line));
        assert_eq!(RunProvenance::from_json(&line), Ok(prov));
    }

    #[test]
    fn provenance_parser_rejects_bad_lines() {
        for bad in [
            "{\"provenance\":2,\"seed\":1,\"config_digest\":\"x\"}",
            "{\"provenance\":1,\"config_digest\":\"x\"}",
            "{\"provenance\":1,\"seed\":-3,\"config_digest\":\"x\"}",
            "{\"provenance\":1,\"seed\":1,\"config_digest\":7}",
            "{\"seed\":1,\"config_digest\":\"x\"}",
        ] {
            assert!(RunProvenance::from_json(bad).is_err(), "{bad} should fail");
        }
        // A value "provenance" inside a record line must not trip the
        // discriminator (the parse requires the *key*).
        assert!(!is_provenance_line(
            "{\"trace\":\"\\\"provenance\\\"\",\"kind\":\"endorse\"}"
        ));
    }

    #[test]
    fn malformed_input_rejection_table() {
        for (bad, why) in [
            ("", "empty document"),
            ("   ", "whitespace only"),
            ("{", "unterminated object"),
            ("[", "unterminated array"),
            ("[1,]", "trailing comma in array"),
            ("{\"a\":1,}", "trailing comma in object"),
            ("{\"a\"}", "missing colon"),
            ("{\"a\":}", "missing value"),
            ("{a:1}", "unquoted key"),
            ("[1 2]", "missing comma"),
            ("tru", "truncated keyword"),
            ("nul", "truncated null"),
            ("TRUE", "wrong case keyword"),
            ("{\"a\":1} extra", "trailing characters"),
            ("\"unterminated", "unterminated string"),
            ("1.2.3", "double decimal point"),
            ("1e", "dangling exponent"),
            ("--1", "double sign"),
            ("'single'", "single quotes"),
            (",", "bare comma"),
        ] {
            assert!(Json::parse(bad).is_err(), "{why}: {bad:?} should fail");
        }
    }
}
