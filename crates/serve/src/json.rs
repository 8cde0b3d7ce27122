//! Minimal hand-rolled JSON.
//!
//! The workspace's vendored `serde` is a no-op stand-in (derives compile,
//! nothing serializes), and the container forbids new dependencies — so
//! the wire protocol carries this ~200-line JSON instead. It covers
//! exactly what the protocol needs: objects, arrays, strings with escape
//! handling, finite numbers, booleans, null.
//!
//! Numbers render through Rust's shortest-roundtrip `{:?}` float
//! formatting, so an `epsilon` survives a client→server trip bit-for-bit.
//! Values that may exceed 2⁵³ (seeds, keys) travel as strings; the typed
//! accessors ([`Json::as_u64`]) accept either form.

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on render.
    Obj(Vec<(String, Json)>),
}

/// Parse failure: message plus byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// A `u64`, from either an integral number or a decimal string
    /// (the wire form for values that may exceed 2⁵³).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// A `usize` via [`Json::as_u64`].
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A `u64` rendered as a decimal string (exact at any magnitude).
    pub fn u64(v: u64) -> Json {
        Json::Str(v.to_string())
    }

    /// Renders to canonical text (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => {
                // {:?} is Rust's shortest round-trip form; JSON has no
                // non-finite literals, so those are rejected at build time
                // by the protocol layer and never reach here in practice.
                if v.is_finite() {
                    out.push_str(&format!("{v:?}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a JSON string literal, copying each run of bytes that
/// needs no escape with one `push_str`. Only `"`, `\` and controls below
/// 0x20 are escaped; they are ASCII, so every run ends on a char boundary.
fn render_string(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_str(&format!("\\u{b:04x}")),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so the cap keeps a hostile frame from
/// overflowing a handler thread's stack; protocol payloads nest a handful
/// of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON value; trailing non-whitespace is an error, and so is
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(text, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err("trailing data", pos));
    }
    Ok(value)
}

fn err(message: &str, at: usize) -> JsonError {
    JsonError {
        message: message.to_string(),
        at,
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(err(&format!("expected {:?}", b as char), *pos))
    }
}

/// Parses the value at `pos`, inside `depth` open arrays and objects.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input", *pos)),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(err("nesting too deep", *pos)),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, pos, depth + 1)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(pairs));
                    }
                    _ => return Err(err("expected ',' or '}'", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err("expected ',' or ']'", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(&format!("expected {lit}"), *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| err("bad number", start))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err("bad number", start))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy the run of unescaped bytes up to the next quote or
        // backslash in one slice. Both are ASCII, so the run starts and
        // ends on char boundaries and `text` is already valid UTF-8:
        // nothing is re-validated.
        let start = *pos;
        while *pos < bytes.len() && !matches!(bytes[*pos], b'"' | b'\\') {
            *pos += 1;
        }
        out.push_str(&text[start..*pos]);
        match bytes.get(*pos) {
            None => return Err(err("unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // The run stopped at a backslash: one escape follows.
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
                            .ok_or_else(|| err("bad \\u escape", *pos))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| err("bad \\u escape", *pos))?,
                            16,
                        )
                        .map_err(|_| err("bad \\u escape", *pos))?;
                        // Surrogate pairs are not needed by this protocol;
                        // lone surrogates map to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err("bad escape", *pos)),
                }
                *pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_values() {
        let v = Json::obj([
            ("type", Json::Str("submit".into())),
            ("n", Json::Num(7.0)),
            ("eps", Json::Num(1e-6)),
            ("seed", Json::u64(u64::MAX)),
            (
                "ids",
                Json::Arr(vec![Json::Str("E1".into()), Json::Str("E2".into())]),
            ),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
        ]);
        let text = v.render();
        let back = parse(&text).unwrap();
        assert_eq!(back, v);
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(back.get("eps").unwrap().as_f64(), Some(1e-6));
    }

    #[test]
    fn floats_roundtrip_bit_for_bit() {
        for v in [1e-6, 0.1 + 0.2, f64::MIN_POSITIVE, 12345.678901234567] {
            let text = Json::Num(v).render();
            let back = parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{text}");
        }
    }

    #[test]
    fn escapes_roundtrip() {
        let s = "line1\nline\"2\"\\ tab\t unicode é";
        let text = Json::Str(s.into()).render();
        assert_eq!(parse(&text).unwrap().as_str(), Some(s));
    }

    #[test]
    fn multibyte_runs_between_escapes_roundtrip() {
        // The run-based scanner must stop exactly at quote/backslash
        // bytes and stitch multi-byte runs back together around escapes.
        let s = "αβγ\\δε\"ζ\nηθ🎯 plain tail";
        let text = Json::Str(s.into()).render();
        assert_eq!(parse(&text).unwrap().as_str(), Some(s));
        let big = "x".repeat(200_000) + "→" + &"y".repeat(200_000);
        let text = Json::Str(big.clone()).render();
        assert_eq!(parse(&text).unwrap().as_str(), Some(big.as_str()));
    }

    #[test]
    fn nesting_parses_up_to_max_depth_and_no_further() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        assert_eq!(parse(&arrays(MAX_DEPTH + 1)).unwrap_err().at, MAX_DEPTH);
        assert!(parse(&objects(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn hostile_nesting_is_an_error_on_a_default_stack() {
        // One megabyte of `[`, far under the frame cap, on a thread with
        // the default stack — how the daemon's handlers run.
        let text = "[".repeat(1_000_000);
        let result = std::thread::spawn(move || parse(&text))
            .join()
            .expect("the parser must not overflow its stack");
        assert!(result.is_err());
    }

    /// The per-char renderer `render_string` replaced: the oracle the
    /// run-copying one must match byte for byte.
    fn render_string_per_char(s: &str, out: &mut String) {
        out.push('"');
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
        out.push('"');
    }

    /// Strings covering every escape class, every control character,
    /// multi-byte runs next to escapes, and what `\u` escapes decode to,
    /// lone surrogates included.
    fn string_corpus() -> Vec<String> {
        let mut corpus: Vec<String> = [
            "",
            "plain ascii",
            "\"quoted\" and \\backslashed\\",
            "\n\r\t",
            "\u{0}\u{1}\u{8}\u{b}\u{c}\u{1f}\u{7f} \u{80}\u{85}",
            "αβγ\\δε\"ζ\nηθ🎯 tail",
            "é\u{1}é",
            "\u{2028}\u{2029}\u{feff}\u{fffd}",
            "0 1\n0 2\n1 0\n",
        ]
        .map(String::from)
        .to_vec();
        corpus.push((0u8..0x80).map(char::from).collect());
        corpus.push((0x80u32..0x800).filter_map(char::from_u32).collect());
        for escaped in [
            r#""\ud800""#,
            r#""a\udfffb""#,
            r#""\ud83c\udfaf""#,
            r#""\u0000\u001f\u00e9\u20ac""#,
            r#""\b\f\/\"\\""#,
        ] {
            corpus.push(parse(escaped).unwrap().as_str().unwrap().to_string());
        }
        corpus
    }

    #[test]
    fn render_string_matches_the_per_char_renderer() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let pool: Vec<char> = "\"\\\n\r\t\u{0}\u{1f}\u{7f}ab é€🎯\u{2028}\u{fffd}"
            .chars()
            .collect();
        let mut rng = StdRng::seed_from_u64(16);
        let random = (0..500).map(|_| {
            let len = rng.random_range(0..40);
            (0..len)
                .map(|_| pool[rng.random_range(0..pool.len())])
                .collect::<String>()
        });
        for s in string_corpus().into_iter().chain(random) {
            let (mut runs, mut per_char) = (String::new(), String::new());
            render_string(&s, &mut runs);
            render_string_per_char(&s, &mut per_char);
            assert_eq!(runs, per_char, "{s:?}");
            assert_eq!(parse(&runs).unwrap().as_str(), Some(s.as_str()));
        }
    }

    #[test]
    fn unicode_escapes_decode_and_lone_surrogates_become_replacements() {
        let decoded = |text: &str| parse(text).unwrap().as_str().unwrap().to_string();
        assert_eq!(decoded(r#""\u00e9\u20ac""#), "é€");
        assert_eq!(decoded(r#""a\ud800b""#), "a\u{fffd}b");
        assert_eq!(decoded(r#""\ud83c\udfaf""#), "\u{fffd}\u{fffd}");
        assert!(parse(r#""\u12""#).is_err());
        assert!(parse(r#""\u12zz""#).is_err());
        assert!(parse(r#""\q""#).is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("").is_err());
    }
}
