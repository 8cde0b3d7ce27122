//! Minimal hand-rolled JSON.
//!
//! The workspace's vendored `serde` is a no-op stand-in (derives compile,
//! nothing serializes), and the container forbids new dependencies — so
//! the wire protocol carries this small JSON instead. It covers exactly
//! what the protocol needs: objects, arrays, strings with escape
//! handling, finite numbers, booleans, null.
//!
//! Numbers render through Rust's shortest-roundtrip `{:?}` float
//! formatting, so an `epsilon` survives a client→server trip bit-for-bit.
//! Values that may exceed 2⁵³ (seeds, keys) travel as strings; the typed
//! accessors ([`Json::as_u64`]) accept either form.
//!
//! # Strings, a word at a time
//!
//! A submit frame is mostly one string: the job's edge list, about 100 KB
//! with a `\n` escape every few bytes. Both directions move such a string
//! 8 bytes at a time into a byte buffer sized once:
//!
//! - **Rendering** sizes the whole text first (each string's escapes are
//!   counted in a loop that vectorizes), so the buffer never grows. Each
//!   step loads one `u64`, and a mask flags the bytes that need an escape
//!   (`"`, `\\` and controls below 0x20). A word with no flag is copied
//!   whole. Otherwise each run between flags is copied by writing the
//!   whole (shifted) word and keeping the run's bytes, and each flagged
//!   byte is escaped.
//! - **Parsing** copies a string with no escape as one slice. Otherwise it
//!   first finds the closing quote (the first quote after an even run of
//!   backslashes), so the unescaped text, which is never longer than the
//!   escaped span, gets a buffer of that size. The same word step then
//!   copies the runs between backslashes, and a table turns each short
//!   escape into its byte; `\\u` escapes and errors take a slower path.
//!
//! The masks are exact: adding 0x7f to a byte's low seven bits never
//! carries into the next byte, so every flagged byte is a true hit. (The
//! shorter borrow trick, `(w - 0x01…01) & !w & 0x80…80`, also flags bytes
//! above a true hit and could only be trusted at its lowest flag.) Every
//! flagged byte is ASCII, so each run ends on a char boundary. Runs shorter
//! than a word at a string's end go a byte at a time.
//!
//! Built values may borrow their strings ([`Json::Str`] holds a
//! [`Cow`]): a client renders a 100 KB graph straight from its job
//! without copying it into a value first. [`parse`] returns owned
//! strings.

use std::borrow::Cow;
use std::fmt;

/// A JSON value, borrowing its strings for `'a` where it was built from
/// borrowed data.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object; insertion order is preserved on render.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
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

impl<'a> Json<'a> {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json<'a>)>>(pairs: I) -> Json<'a> {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (Cow::Borrowed(k), v))
                .collect(),
        )
    }

    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json<'a>> {
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
    pub fn as_arr(&self) -> Option<&[Json<'a>]> {
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
    pub fn u64(v: u64) -> Json<'a> {
        Json::Str(Cow::Owned(v.to_string()))
    }

    /// The same value with every string owned, so it outlives what it
    /// borrowed.
    pub(crate) fn into_owned(self) -> Json<'static> {
        let owned = |s: Cow<'_, str>| Cow::Owned(s.into_owned());
        match self {
            Json::Null => Json::Null,
            Json::Bool(b) => Json::Bool(b),
            Json::Num(v) => Json::Num(v),
            Json::Str(s) => Json::Str(owned(s)),
            Json::Arr(items) => Json::Arr(items.into_iter().map(Json::into_owned).collect()),
            Json::Obj(pairs) => Json::Obj(
                pairs
                    .into_iter()
                    .map(|(k, v)| (owned(k), v.into_owned()))
                    .collect(),
            ),
        }
    }

    /// Renders to canonical text (no whitespace).
    pub fn render(&self) -> String {
        let mut out = Vec::with_capacity(self.rendered_len());
        self.render_into(&mut out);
        String::from_utf8(out).expect("rendered JSON is UTF-8")
    }

    /// The exact byte length of [`Json::render`]'s text, so a caller can
    /// size the buffer [`Json::render_into`] writes to once.
    pub(crate) fn rendered_len(&self) -> usize {
        match self {
            Json::Null => 4,
            Json::Bool(true) => 4,
            Json::Bool(false) => 5,
            Json::Num(v) if v.is_finite() => {
                let mut len = Len(0);
                // Counting bytes cannot fail.
                let _ = fmt::Write::write_fmt(&mut len, format_args!("{v:?}"));
                len.0
            }
            Json::Num(_) => 4,
            Json::Str(s) => escaped_len(s),
            Json::Arr(items) => {
                1 + items.len().max(1) + items.iter().map(Json::rendered_len).sum::<usize>()
            }
            Json::Obj(pairs) => {
                1 + pairs.len().max(1)
                    + pairs
                        .iter()
                        .map(|(k, v)| escaped_len(k) + 1 + v.rendered_len())
                        .sum::<usize>()
            }
        }
    }

    /// Appends the canonical text to `out`. With [`Json::rendered_len`]
    /// bytes reserved first, `out` never grows while it is written.
    pub(crate) fn render_into(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Num(v) => {
                // {:?} is Rust's shortest round-trip form; JSON has no
                // non-finite literals, so those are rejected at build time
                // by the protocol layer and never reach here in practice.
                if v.is_finite() {
                    // Writing to a `Vec` cannot fail.
                    let _ = std::io::Write::write_fmt(out, format_args!("{v:?}"));
                } else {
                    out.extend_from_slice(b"null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.render_into(out);
                }
                out.push(b']');
            }
            Json::Obj(pairs) => {
                out.push(b'{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    render_string(k, out);
                    out.push(b':');
                    v.render_into(out);
                }
                out.push(b'}');
            }
        }
    }
}

/// A `fmt::Write` sink that only counts bytes.
struct Len(usize);

impl fmt::Write for Len {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

/// `0x01` in every byte of a word.
const ONES: u64 = u64::from_le_bytes([1; 8]);
/// The low seven bits of every byte of a word.
const LOW7: u64 = u64::from_le_bytes([0x7f; 8]);
/// The high bit of every byte of a word.
const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);

/// Flags (sets the high bit of) each byte of `word` equal to `b`. Adding
/// 0x7f to a byte's low seven bits never carries into the next byte, so
/// every flag is exact.
#[inline]
fn bytes_equal(word: u64, b: u8) -> u64 {
    let diff = word ^ (ONES * u64::from(b));
    !(((diff & LOW7) + LOW7) | diff) & HIGHS
}

/// Flags each control byte (below 0x20) of `word`, exactly.
#[inline]
fn controls(word: u64) -> u64 {
    !(((word & LOW7) + ONES * 0x60) | word) & HIGHS
}

/// Flags the bytes a rendered string escapes: `"`, `\\` and controls.
#[inline]
fn needs_escape(word: u64) -> u64 {
    controls(word) | bytes_equal(word, b'"') | bytes_equal(word, b'\\')
}

/// The 8-byte word at `i`, if the slice holds one.
#[inline]
fn word_at(bytes: &[u8], i: usize) -> Option<[u8; 8]> {
    bytes.get(i..i + 8).map(|w| w.try_into().expect("8 bytes"))
}

/// The index of the lowest flagged byte of a non-zero mask.
#[inline]
fn first_flagged(mask: u64) -> usize {
    (mask.trailing_zeros() / 8) as usize
}

/// `mask` without its flags below byte `from`.
#[inline]
fn flags_from(mask: u64, from: usize) -> u64 {
    mask & u64::MAX.checked_shl(8 * from as u32).unwrap_or(0)
}

/// Appends the low `len` bytes of `word`. The whole word is copied and
/// the output cut back, so the caller must leave 8 bytes of capacity.
#[inline]
fn push_low(out: &mut Vec<u8>, word: u64, len: usize) {
    out.extend_from_slice(&word.to_le_bytes());
    out.truncate(out.len() - 8 + len);
}

/// The first index at or after `from` whose byte `hit` accepts, or
/// `bytes.len()`. Each 64-byte chunk is tested by a fold with no early
/// exit, which vectorizes; only the chunk that holds a hit is searched.
#[inline]
fn find(bytes: &[u8], from: usize, hit: impl Fn(u8) -> bool) -> usize {
    let mut at = from;
    for chunk in bytes[from..].chunks(64) {
        if chunk.iter().fold(0u8, |any, &b| any | u8::from(hit(b))) != 0 {
            return at
                + chunk
                    .iter()
                    .position(|&b| hit(b))
                    .expect("the chunk holds a hit");
        }
        at += chunk.len();
    }
    bytes.len()
}

/// Lower-case hex digits, for `\\u00XX` escapes.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// The escape of one flagged byte.
fn escape(b: u8, out: &mut Vec<u8>) {
    match b {
        b'"' => out.extend_from_slice(b"\\\""),
        b'\\' => out.extend_from_slice(b"\\\\"),
        b'\n' => out.extend_from_slice(b"\\n"),
        b'\r' => out.extend_from_slice(b"\\r"),
        b'\t' => out.extend_from_slice(b"\\t"),
        _ => out.extend_from_slice(&[
            b'\\',
            b'u',
            b'0',
            b'0',
            HEX[usize::from(b >> 4)],
            HEX[usize::from(b & 0xf)],
        ]),
    }
}

/// The rendered length of `s` as a JSON string literal: its bytes, the
/// quotes, and one more byte per two-byte escape or five per `\\u00XX`.
/// The sum runs over 48-byte chunks, so a `u8` lane (at most 5 per byte)
/// cannot overflow and the loop vectorizes.
fn escaped_len(s: &str) -> usize {
    let growth: usize = s
        .as_bytes()
        .chunks(48)
        .map(|chunk| {
            let sum: u8 = chunk
                .iter()
                .map(|&b| match b {
                    b'"' | b'\\' | b'\n' | b'\r' | b'\t' => 1,
                    0..=0x1f => 5,
                    _ => 0,
                })
                .sum();
            usize::from(sum)
        })
        .sum();
    s.len() + 2 + growth
}

/// Appends `s` as a JSON string literal. Only `"`, `\\` and controls below
/// 0x20 are escaped.
fn render_string(s: &str, out: &mut Vec<u8>) {
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut i = 0;
    // A word at a time while another follows it. The caller sized `out`
    // for the escaped text, which from any byte of this word on is at
    // least 9 bytes long, so no 8-byte copy grows the buffer.
    while i + 16 <= bytes.len() {
        let word = word_at(bytes, i).expect("i + 16 <= len");
        let w = u64::from_le_bytes(word);
        let mut flags = needs_escape(w);
        let mut from = 0;
        while flags != 0 {
            let at = first_flagged(flags);
            push_low(out, w >> (8 * from), at - from);
            escape(word[at], out);
            from = at + 1;
            flags &= flags - 1;
        }
        if from < 8 {
            push_low(out, w >> (8 * from), 8 - from);
        }
        i += 8;
    }
    for &b in &bytes[i..] {
        if b < 0x20 || b == b'"' || b == b'\\' {
            escape(b, out);
        } else {
            out.push(b);
        }
    }
    out.push(b'"');
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so the cap keeps a hostile frame from
/// overflowing a handler thread's stack; protocol payloads nest a handful
/// of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON value; trailing non-whitespace is an error, and so is
/// nesting deeper than [`MAX_DEPTH`]. Every string in the result is owned.
pub fn parse(text: &str) -> Result<Json<'static>, JsonError> {
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
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json<'static>, JsonError> {
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
                let key = Cow::Owned(parse_string(text, pos)?);
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
        Some(b'"') => Ok(Json::Str(Cow::Owned(parse_string(text, pos)?))),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: Json<'static>,
) -> Result<Json<'static>, JsonError> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(err(&format!("expected {lit}"), *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json<'static>, JsonError> {
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

/// Parses the string literal at `pos`.
fn parse_string(text: &str, pos: &mut usize) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let start = *pos;
    // The run up to the first quote or backslash. Both are ASCII, so the
    // run is a char-aligned slice of valid UTF-8, copied as one.
    let first = find(bytes, start, |b| b == b'"' || b == b'\\');
    match bytes.get(first) {
        None => Err(err("unterminated string", first)),
        Some(b'"') => {
            *pos = first + 1;
            Ok(text[start..first].to_owned())
        }
        Some(_) => unescape(text, start, first, pos),
    }
}

/// The index of the closing quote of a string with an escape at or
/// before `from`: the first quote after an even run of backslashes, or
/// `None` if the text ends first.
fn closing_quote(bytes: &[u8], mut from: usize) -> Option<usize> {
    loop {
        let quote = find(bytes, from, |b| b == b'"');
        if quote == bytes.len() {
            return None;
        }
        let backslashes = bytes[..quote]
            .iter()
            .rev()
            .take_while(|&&b| b == b'\\')
            .count();
        if backslashes % 2 == 0 {
            return Some(quote);
        }
        from = quote + 1;
    }
}

/// What each short escape's second byte stands for; 0 where a `\\u`
/// escape or an error follows the backslash instead.
const SHORT_ESCAPES: [u8; 256] = {
    let mut table = [0; 256];
    table[b'"' as usize] = b'"';
    table[b'\\' as usize] = b'\\';
    table[b'/' as usize] = b'/';
    table[b'n' as usize] = b'\n';
    table[b'r' as usize] = b'\r';
    table[b't' as usize] = b'\t';
    table[b'b' as usize] = 0x08;
    table[b'f' as usize] = 0x0c;
    table
};

/// An output buffer sized before it is written and the index the next
/// byte goes to.
struct Out {
    buf: Vec<u8>,
    at: usize,
}

impl Out {
    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.at..self.at + bytes.len()].copy_from_slice(bytes);
        self.at += bytes.len();
    }

    /// Appends the low `len` bytes of `word`. The whole word is written,
    /// so the buffer must hold 8 bytes past `at`.
    #[inline]
    fn put_low(&mut self, word: u64, len: usize) {
        self.buf[self.at..self.at + 8].copy_from_slice(&word.to_le_bytes());
        self.at += len;
    }
}

/// Unescapes the string whose text starts at `start` and whose first
/// backslash is at `backslash`, leaving `pos` after its closing quote.
fn unescape(
    text: &str,
    start: usize,
    backslash: usize,
    pos: &mut usize,
) -> Result<String, JsonError> {
    let bytes = text.as_bytes();
    // Escapes only shorten the text, so the escaped span sizes the buffer
    // once. Without a closing quote the walk below reports the first bad
    // escape, or an unterminated string at the end.
    let end = closing_quote(bytes, backslash).unwrap_or(bytes.len());
    let mut out = Out {
        buf: vec![0; end - start],
        at: 0,
    };
    out.put(&bytes[start..backslash]);
    let mut i = backslash;
    // A word at a time while another follows it. The output is never
    // longer than the input consumed, so an 8-byte write from within
    // this word stays inside the buffer.
    while i + 16 <= end {
        let word = word_at(bytes, i).expect("i + 16 <= end");
        let w = u64::from_le_bytes(word);
        let mut flags = bytes_equal(w, b'\\');
        let mut from = 0;
        let mut next = i + 8;
        while flags != 0 {
            let at = first_flagged(flags);
            out.put_low(w >> (8 * from), at - from);
            let after = unescape_one(bytes, i + at, &mut out)?;
            if after > next {
                // The escape ran into the next word, which starts after it.
                next = after;
                from = 8;
                break;
            }
            from = after - i;
            flags = flags_from(flags, from);
        }
        if from < 8 {
            out.put_low(w >> (8 * from), 8 - from);
        }
        i = next;
    }
    while i < end {
        if bytes[i] == b'\\' {
            i = unescape_one(bytes, i, &mut out)?;
        } else {
            out.put(&[bytes[i]]);
            i += 1;
        }
    }
    if end == bytes.len() {
        return Err(err("unterminated string", end));
    }
    *pos = end + 1;
    let Out { mut buf, at } = out;
    buf.truncate(at);
    // Runs end at ASCII bytes and escapes write whole chars, so this
    // never fails.
    String::from_utf8(buf).map_err(|_| err("string is not UTF-8", start))
}

/// Appends the escape at `bytes[at]`, a backslash, and returns the index
/// after it.
#[inline]
fn unescape_one(bytes: &[u8], at: usize, out: &mut Out) -> Result<usize, JsonError> {
    match bytes.get(at + 1).map(|&b| SHORT_ESCAPES[usize::from(b)]) {
        Some(0) | None => unescape_unicode(bytes, at, out),
        Some(byte) => {
            out.put(&[byte]);
            Ok(at + 2)
        }
    }
}

/// [`unescape_one`] for a `\\u` escape, or the error for a bad escape.
#[cold]
fn unescape_unicode(bytes: &[u8], at: usize, out: &mut Out) -> Result<usize, JsonError> {
    let kind = at + 1;
    if bytes.get(kind) != Some(&b'u') {
        return Err(err("bad escape", kind));
    }
    let bad = || err("bad \\u escape", kind);
    let hex = bytes.get(kind + 1..kind + 5).ok_or_else(bad)?;
    let hex = std::str::from_utf8(hex).map_err(|_| bad())?;
    let code = u32::from_str_radix(hex, 16).map_err(|_| bad())?;
    // Surrogate pairs are not needed by this protocol; lone surrogates map
    // to the replacement character.
    let c = char::from_u32(code).unwrap_or('\u{fffd}');
    out.put(c.encode_utf8(&mut [0; 4]).as_bytes());
    Ok(kind + 5)
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
        let text = Json::Str(big.as_str().into()).render();
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
    /// word-at-a-time one must match byte for byte.
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
        let pool: Vec<char> = "\"\\\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}ab #]0 é€🎯\u{2028}\u{fffd}"
            .chars()
            .collect();
        let mut rng = StdRng::seed_from_u64(16);
        let mut draw = |len: usize| -> String {
            (0..len)
                .map(|_| pool[rng.random_range(0..pool.len())])
                .collect()
        };
        // Every length 0–40, then strings of 64 KB and more: random, one
        // shaped like an edge list (a `\n` every few bytes), one plain.
        let mut random: Vec<String> = (0..=40)
            .flat_map(|len| std::iter::repeat_n(len, 40))
            .map(&mut draw)
            .collect();
        random.extend([65_536, 70_001].map(&mut draw));
        random.push(
            (0..12_000)
                .map(|i| format!("{} {}\n", i % 128, i / 97))
                .collect(),
        );
        random.push("x".repeat(70_000));
        assert!(random.iter().rev().take(4).all(|s| s.len() >= 64 * 1024));
        for s in string_corpus().into_iter().chain(random) {
            assert_kernels_match_the_oracle(&s);
        }
    }

    /// `s` renders as the per-char oracle renders it, into a buffer its
    /// rendered length sizes exactly, and parses back to itself; the
    /// oracle's text also unescapes like the per-escape parser.
    fn assert_kernels_match_the_oracle(s: &str) {
        let value = Json::Str(s.into());
        let mut words = Vec::with_capacity(value.rendered_len());
        render_string(s, &mut words);
        let mut per_char = String::new();
        render_string_per_char(s, &mut per_char);
        assert_eq!(words, per_char.as_bytes(), "{s:?}");
        assert_eq!(words.len(), words.capacity(), "{s:?}: sized once, exactly");
        assert_eq!(parse(&per_char).unwrap().as_str(), Some(s));
        assert_unescapes_like_the_per_escape_parser(&per_char);
    }

    /// The per-escape unescaper `parse_string` replaced: the oracle it
    /// must match on any literal, in value, end position and error.
    fn parse_string_per_escape(text: &str, pos: &mut usize) -> Result<String, JsonError> {
        let bytes = text.as_bytes();
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
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
                                std::str::from_utf8(hex)
                                    .map_err(|_| err("bad \\u escape", *pos))?,
                                16,
                            )
                            .map_err(|_| err("bad \\u escape", *pos))?;
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

    fn assert_unescapes_like_the_per_escape_parser(literal: &str) {
        let (mut at, mut oracle_at) = (0, 0);
        let got = parse_string(literal, &mut at);
        let want = parse_string_per_escape(literal, &mut oracle_at);
        assert_eq!(got, want, "{literal:?}");
        if got.is_ok() {
            assert_eq!(at, oracle_at, "{literal:?}");
        }
    }

    /// Every byte the renderer escapes, and the bytes a borrow out of a
    /// true hit can also flag (`#` after `"`, `]` after `\\`, space after a
    /// control), at every offset of two words. A padding of 16 bytes puts
    /// each case inside the word loop as well as in the byte tail.
    #[test]
    fn every_special_byte_at_every_offset_matches_the_oracle() {
        let specials = (0u8..0x20).chain([b'"', b'\\']);
        for special in specials {
            let special = char::from(special).to_string();
            for offset in 0..16 {
                for tail in ["", "z", "\n", " ", "#", "]", "é€🎯", "abcdefghijklmnopq"] {
                    let s = "a".repeat(offset) + &special + tail;
                    assert_kernels_match_the_oracle(&s);
                    assert_kernels_match_the_oracle(&(s + &"z".repeat(16)));
                }
                // Two specials in one word, the second just above the
                // first or further up.
                for gap in 1..9 {
                    let s = "a".repeat(offset) + &special + &"b".repeat(gap - 1) + "\"x";
                    assert_kernels_match_the_oracle(&(s + &"z".repeat(16)));
                }
            }
        }
    }

    /// Multibyte characters that straddle a word edge, with and without an
    /// escape in the same word, inside the word loop and in the tail.
    #[test]
    fn multibyte_chars_straddling_word_edges_match_the_oracle() {
        for c in ['é', '€', '🎯', '\u{2028}', '\u{7f}', '\u{80}'] {
            for before in 0..17 {
                for after in ["", "\n", "x\"", "\\", "tail of the text"] {
                    for pad in ["", "0123456789abcdef"] {
                        let s = "a".repeat(before) + &c.to_string() + after + pad;
                        assert_kernels_match_the_oracle(&s);
                        let s = "\n".repeat(before) + &c.to_string().repeat(3) + after + pad;
                        assert_kernels_match_the_oracle(&s);
                    }
                }
            }
        }
    }

    /// Every form a `\u` escape takes, valid or not, at every offset of a
    /// word, in the word loop and in the byte tail, unescapes like the
    /// per-escape parser: same text, same end, same error at the same
    /// byte.
    #[test]
    fn every_unicode_escape_form_unescapes_like_the_oracle() {
        let forms = [
            r"\u0000",
            r"\u001f",
            r"\u001F",
            r"\u0022",
            r"\u005c",
            r"\u005C",
            r"\u002f",
            r"\u007f",
            r"\u0080",
            r"\u00e9",
            r"\u00E9",
            r"\u20ac",
            r"\u2028",
            r"\uffff",
            r"\uFFFD",
            r"\ud800",
            r"\uDBFF",
            r"\udc00",
            r"\udfff",
            r"\ud83c\udfaf",
            r"\u+123",
            r"\u12",
            r"\u12zz",
            r"\u",
            r"\u00é",
            r"\u-001",
        ];
        for form in forms {
            for before in 0..10 {
                for after in ["", "x", "\\n", "\\\\", "\\\"", "abcdefgh", "é"] {
                    for pad in ["", "0123456789abcdef"] {
                        let body = "a".repeat(before) + form + after + pad;
                        assert_unescapes_like_the_per_escape_parser(&format!("\"{body}\""));
                        assert_unescapes_like_the_per_escape_parser(&format!("\"{body}"));
                    }
                }
            }
        }
    }

    /// Hand-built literals, valid and not: backslash runs before quotes,
    /// escapes at the end of the text, bad escapes and missing quotes, each
    /// at every offset of a word; then raw characters with no structure.
    #[test]
    fn escape_sequences_and_bad_literals_unescape_like_the_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let tokens = [
            "a",
            "é",
            "🎯",
            " ",
            r"\n",
            r"\r",
            r"\t",
            r"\b",
            r"\f",
            r"\/",
            r"\\",
            r#"\""#,
            r"\\\\",
            r#"\\\""#,
            r#"\\\\\""#,
            r"\q",
            r"\ ",
            "\\\n",
            r"\u00e9",
            "\"",
        ];
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..4000 {
            let len = rng.random_range(0..24);
            let body: String = (0..len)
                .map(|_| tokens[rng.random_range(0..tokens.len())])
                .collect();
            assert_unescapes_like_the_per_escape_parser(&format!("\"{body}\"rest"));
            assert_unescapes_like_the_per_escape_parser(&format!("\"{body}"));
            assert_unescapes_like_the_per_escape_parser(&format!("\"{body}\\"));
        }
        let big: String = (0..20_000)
            .map(|_| tokens[rng.random_range(0..tokens.len() - 3)])
            .collect();
        assert_unescapes_like_the_per_escape_parser(&format!("\"{big}\""));
        // Raw characters with no structure: backslashes and quotes land
        // anywhere, `\u` windows cross the closing quote and the text's end.
        let raw: Vec<char> = "\\\"u0e9nFa é🎯".chars().collect();
        for _ in 0..4000 {
            let len = rng.random_range(0..80);
            let body: String = (0..len)
                .map(|_| raw[rng.random_range(0..raw.len())])
                .collect();
            assert_unescapes_like_the_per_escape_parser(&format!("\"{body}"));
            assert_unescapes_like_the_per_escape_parser(&format!("\"{body}\"0123456789abcdef"));
        }
    }

    /// The length a value reports is the length it renders to.
    #[test]
    fn rendered_len_is_the_rendered_length() {
        let values = [
            Json::Null,
            Json::Bool(true),
            Json::Bool(false),
            Json::Num(f64::NAN),
            Json::Arr(vec![]),
            Json::Obj(vec![]),
            Json::obj([
                (
                    "a\"b",
                    Json::Arr(vec![Json::Null, Json::Str("\u{1}\n".into())]),
                ),
                ("", Json::obj([])),
                ("n", Json::Num(-0.0)),
            ]),
        ];
        let numbers = [
            0.0,
            -1.0,
            1e-7,
            -2.2250738585072014e-308,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            123456789012345680.0,
            0.1 + 0.2,
            -1.2345678901234567e-5,
        ];
        for v in values.iter().cloned().chain(numbers.map(Json::Num)) {
            assert_eq!(v.rendered_len(), v.render().len(), "{v:?}");
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
        // Random punctuation, quotes and escapes parse or fail; none panics.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let soup: Vec<char> = "{}[]\":,\\u0e9n1.-tfl é🎯\n".chars().collect();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..4000 {
            let len = rng.random_range(0..100);
            let text: String = (0..len)
                .map(|_| soup[rng.random_range(0..soup.len())])
                .collect();
            let _ = parse(&text);
        }
    }
}
