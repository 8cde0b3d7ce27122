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
//! # Strings, many bytes per step
//!
//! A submit frame is mostly one string: the job's edge list, about 100 KB
//! with a `\n` escape every few bytes. Both directions move strings into a
//! byte buffer sized once: rendering sizes the whole text first (each
//! string's escapes are counted in a loop that vectorizes), and parsing
//! first finds a string's closing quote (the first quote after an even
//! run of backslashes), so the unescaped text, which is never longer than
//! the escaped span, gets a buffer of that size. The string kernels come
//! in two levels, and both write the same bytes:
//!
//! - **Words** (portable, every host), 8 bytes per step. Rendering loads
//!   one `u64`, and a mask flags the bytes that need an escape (`"`, `\\`
//!   and controls below 0x20). A word with no flag is copied whole.
//!   Otherwise each run between flags is copied by writing the whole
//!   (shifted) word and keeping the run's bytes, and each flagged byte is
//!   escaped. Parsing copies a string with no escape as one slice;
//!   otherwise the same word step copies the runs between backslashes, and
//!   a table turns each short escape into its byte; `\\u` escapes and
//!   errors take a slower per-escape path.
//! - **VBMI2** (x86-64 with AVX-512 VBMI2), byte compress and expand.
//!   Rendering reads 32 bytes per step and writes up to 64: one compare
//!   pass flags the bytes that take a two-byte escape, an expand
//!   (`vpexpandb`) opens a hole before each of them that takes the
//!   backslash, and each flagged byte becomes its escape letter. A block
//!   holding a control that needs `\\u00XX` runs the word step. Parsing
//!   reads 64 escaped bytes per step: the escaping backslashes are found
//!   from the backslash runs (with a carry into the next step), the byte
//!   after each goes through the same short-escape table, and a compress
//!   (`vpcompressb`) drops the backslashes. A `\\u` escape or a bad one
//!   hands the string to the per-escape path at that backslash, so values,
//!   errors and their byte offsets are the word level's. Tails use masked
//!   loads and stores, so no step reads or writes past its slice.
//!
//! The level is picked at run time: `Isa::best` takes VBMI2 when the
//! CPU reports every feature its kernels are compiled for, and the words
//! otherwise. There is no option; the tests run every level the host has
//! against per-char and per-escape oracles and print which ones ran.
//!
//! The word masks are exact: adding 0x7f to a byte's low seven bits never
//! carries into the next byte, so every flagged byte is a true hit. (The
//! shorter borrow trick, `(w - 0x01…01) & !w & 0x80…80`, also flags bytes
//! above a true hit and could only be trusted at its lowest flag.) Every
//! flagged byte is ASCII, so each run ends on a char boundary. Runs shorter
//! than a word at a string's end go a byte at a time.
//!
//! Built values may borrow their strings ([`Json::Str`] holds a
//! [`Cow`]): a client renders a 100 KB graph straight from its job
//! without copying it into a value first. [`parse`] returns owned
//! strings, and a decoder moves them out of a parsed object.

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

    /// Moves the member [`Json::get`] finds out of an object, leaving
    /// `null` in its place.
    pub(crate) fn take(&mut self, key: &str) -> Option<Json<'a>> {
        match self {
            Json::Obj(pairs) => pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Json::Null)),
            _ => None,
        }
    }

    /// The string payload by value, if this is a string: a move when the
    /// string is owned.
    pub(crate) fn into_string(self) -> Option<String> {
        match self {
            Json::Str(s) => Some(s.into_owned()),
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
        self.render_at(Isa::best(), out);
    }

    /// [`Json::render_into`] with the string kernels of `isa`.
    fn render_at(&self, isa: Isa, out: &mut Vec<u8>) {
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
            Json::Str(s) => render_string(isa, s, out),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.render_at(isa, out);
                }
                out.push(b']');
            }
            Json::Obj(pairs) => {
                out.push(b'{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    render_string(isa, k, out);
                    out.push(b':');
                    v.render_at(isa, out);
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

/// A level the string kernels are compiled for (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// The portable word kernels: 8 bytes per step.
    Words,
    /// AVX-512 VBMI2 byte expand and compress: 32 input bytes per render
    /// step, 64 per parse step.
    #[cfg(target_arch = "x86_64")]
    Vbmi2,
}

impl Isa {
    /// The widest level this host supports.
    fn best() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if Isa::Vbmi2.detected() {
            return Isa::Vbmi2;
        }
        Isa::Words
    }

    /// Whether this host supports the level. The detection macro caches
    /// in a process-wide static, so this is a few loads and tests.
    fn detected(self) -> bool {
        match self {
            Isa::Words => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Vbmi2 => {
                std::arch::is_x86_feature_detected!("avx512bw")
                    && std::arch::is_x86_feature_detected!("avx512vbmi")
                    && std::arch::is_x86_feature_detected!("avx512vbmi2")
                    && std::arch::is_x86_feature_detected!("bmi2")
                    && std::arch::is_x86_feature_detected!("popcnt")
            }
        }
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

/// Appends `s` as a JSON string literal, with the kernels of `isa`. Only
/// `"`, `\\` and controls below 0x20 are escaped.
fn render_string(isa: Isa, s: &str, out: &mut Vec<u8>) {
    let bytes = s.as_bytes();
    out.push(b'"');
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Vbmi2 if isa.detected() => {
            // SAFETY: the guard detected every feature the kernel is
            // compiled for.
            unsafe { vbmi2::render(bytes, out) }
        }
        _ => render_words(bytes, 0, bytes.len(), out),
    }
    out.push(b'"');
}

/// Escapes `bytes[i..end]` onto `out`: a word at a time while another
/// word of `bytes` follows it, then a byte at a time.
fn render_words(bytes: &[u8], mut i: usize, end: usize, out: &mut Vec<u8>) {
    // The caller sized `out` for the escaped text, which from any byte of
    // this word on is at least 9 bytes long (the next word and the closing
    // quote), so no 8-byte copy grows the buffer.
    while i + 8 <= end && i + 16 <= bytes.len() {
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
    for &b in &bytes[i..end] {
        if b < 0x20 || b == b'"' || b == b'\\' {
            escape(b, out);
        } else {
            out.push(b);
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so the cap keeps a hostile frame from
/// overflowing a handler thread's stack; protocol payloads nest a handful
/// of levels.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON value; trailing non-whitespace is an error, and so is
/// nesting deeper than [`MAX_DEPTH`]. Every string in the result is owned.
pub fn parse(text: &str) -> Result<Json<'static>, JsonError> {
    parse_at(Isa::best(), text)
}

/// [`parse`] with the string kernels of `isa`.
fn parse_at(isa: Isa, text: &str) -> Result<Json<'static>, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(isa, text, &mut pos, 0)?;
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
fn parse_value(
    isa: Isa,
    text: &str,
    pos: &mut usize,
    depth: usize,
) -> Result<Json<'static>, JsonError> {
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
                let key = Cow::Owned(parse_string(isa, text, pos)?);
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(isa, text, pos, depth + 1)?;
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
                items.push(parse_value(isa, text, pos, depth + 1)?);
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
        Some(b'"') => Ok(Json::Str(Cow::Owned(parse_string(isa, text, pos)?))),
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

/// Parses the string literal at `pos`, with the kernels of `isa`.
fn parse_string(isa: Isa, text: &str, pos: &mut usize) -> Result<String, JsonError> {
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
        Some(_) => unescape(isa, text, start, first, pos),
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
    isa: Isa,
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
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Vbmi2 if isa.detected() => {
            // SAFETY: the guard detected every feature the kernel is
            // compiled for.
            unsafe { vbmi2::unescape(bytes, backslash, end, &mut out) }?
        }
        _ => unescape_words(bytes, backslash, end, &mut out)?,
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

/// Unescapes `bytes[i..end]` onto `out` a word at a time, then a byte at
/// a time. An escape is read whole even where it crosses `end`.
fn unescape_words(bytes: &[u8], mut i: usize, end: usize, out: &mut Out) -> Result<(), JsonError> {
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
            let after = unescape_one(bytes, i + at, out)?;
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
            i = unescape_one(bytes, i, out)?;
        } else {
            out.put(&[bytes[i]]);
            i += 1;
        }
    }
    Ok(())
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

/// The AVX-512 VBMI2 string kernels (see the module docs). Each is
/// compiled for the features `Isa::Vbmi2` detects, so its caller must have
/// detected them.
#[cfg(target_arch = "x86_64")]
mod vbmi2 {
    use std::arch::x86_64::*;

    use super::{render_words, unescape_one, JsonError, Out, SHORT_ESCAPES};

    /// Bits 0, 2, 4, … of a mask.
    const EVEN_BITS: u64 = 0x5555_5555_5555_5555;
    /// Bits 1, 3, 5, … of a mask.
    const ODD_BITS: u64 = !EVEN_BITS;

    /// The low `n` bits, for `n` up to 64.
    #[inline]
    #[target_feature(enable = "bmi2")]
    fn low_bits(n: usize) -> u64 {
        _bzhi_u64(u64::MAX, n as u32)
    }

    /// Escapes `bytes` onto `out`, 32 input bytes per step.
    #[target_feature(enable = "avx512bw,avx512vbmi,avx512vbmi2,bmi2,popcnt")]
    pub(super) fn render(bytes: &[u8], out: &mut Vec<u8>) {
        let quote = _mm512_set1_epi8(b'"' as i8);
        let backslash = _mm512_set1_epi8(b'\\' as i8);
        let space = _mm512_set1_epi8(b' ' as i8);
        let tab = _mm512_set1_epi8(b'\t' as i8);
        let newline = _mm512_set1_epi8(b'\n' as i8);
        let carriage_return = _mm512_set1_epi8(b'\r' as i8);
        let mut i = 0;
        while i < bytes.len() {
            let n = (bytes.len() - i).min(32);
            let lanes = low_bits(n);
            // SAFETY: the mask reads bytes i..i + n, all inside `bytes`;
            // masked-off lanes are not read.
            let x = unsafe { _mm512_maskz_loadu_epi8(lanes, bytes.as_ptr().add(i).cast()) };
            let controls = _mm512_mask_cmplt_epu8_mask(lanes, x, space);
            let tabs = _mm512_mask_cmpeq_epi8_mask(lanes, x, tab);
            let newlines = _mm512_mask_cmpeq_epi8_mask(lanes, x, newline);
            let returns = _mm512_mask_cmpeq_epi8_mask(lanes, x, carriage_return);
            let short = tabs | newlines | returns;
            if controls != short {
                // A control that takes `\u00XX`: this block goes a word
                // at a time.
                render_words(bytes, i, i + n, out);
                i += n;
                continue;
            }
            let flagged = short
                | _mm512_mask_cmpeq_epi8_mask(lanes, x, quote)
                | _mm512_mask_cmpeq_epi8_mask(lanes, x, backslash);
            // Each flagged byte becomes its escape letter; `"` and `\` are
            // their own.
            let letters = _mm512_mask_mov_epi8(x, tabs, _mm512_set1_epi8(b't' as i8));
            let letters = _mm512_mask_mov_epi8(letters, newlines, _mm512_set1_epi8(b'n' as i8));
            let letters = _mm512_mask_mov_epi8(letters, returns, _mm512_set1_epi8(b'r' as i8));
            // The output lanes that take an input byte: byte k owns the odd
            // bit 2k + 1 and, when flagged, the even bit 2k below it, a hole
            // for its backslash; packing the owned bits in order leaves a 0
            // for each hole and a 1 for each byte.
            let owned = ODD_BITS | _pdep_u64(flagged, EVEN_BITS);
            let escaped = _mm512_mask_expand_epi8(backslash, _pext_u64(ODD_BITS, owned), letters);
            let len = n + flagged.count_ones() as usize;
            out.reserve(len);
            // SAFETY: `reserve` left room for `len` bytes past the end of
            // `out`, and the mask writes exactly those, so `set_len` counts
            // only written bytes.
            unsafe {
                _mm512_mask_storeu_epi8(
                    out.as_mut_ptr().add(out.len()).cast(),
                    low_bits(len),
                    escaped,
                );
                out.set_len(out.len() + len);
            }
            i += n;
        }
    }

    /// The bytes a backslash escapes in a 64-byte block, from the block's
    /// backslashes and `carry`, 1 when the block's first byte is escaped by
    /// the byte before it. A run of backslashes escapes in pairs from its
    /// start, and a run of odd length also escapes the byte after it;
    /// `carry` becomes 1 when that byte is the next block's first. (The
    /// odd-run addition of simdjson's string scanner.)
    #[inline]
    fn escaped_bytes(backslashes: u64, carry: &mut u64) -> u64 {
        let backslashes = backslashes & !*carry;
        let follows = (backslashes << 1) | *carry;
        let odd_starts = backslashes & ODD_BITS & !follows;
        let (sum, overflow) = odd_starts.overflowing_add(backslashes);
        *carry = u64::from(overflow);
        (EVEN_BITS ^ (sum << 1)) & follows
    }

    /// Appends the bytes of `v` that `keep` selects, in lane order.
    #[inline]
    #[target_feature(enable = "avx512bw,avx512vbmi,avx512vbmi2,bmi2,popcnt")]
    fn put_compressed(out: &mut Out, keep: u64, v: __m512i) {
        let len = keep.count_ones() as usize;
        let dst = &mut out.buf[out.at..out.at + len];
        // SAFETY: the mask writes the `len` bytes of `dst`.
        unsafe {
            _mm512_mask_storeu_epi8(
                dst.as_mut_ptr().cast(),
                low_bits(len),
                _mm512_maskz_compress_epi8(keep, v),
            );
        }
        out.at += len;
    }

    /// Unescapes `bytes[i..end]` onto `out`, 64 input bytes per step. A
    /// `\u` escape or a bad one goes to [`unescape_one`] at its backslash,
    /// which reads it whole even where it crosses `end`.
    #[target_feature(enable = "avx512bw,avx512vbmi,avx512vbmi2,bmi2,popcnt")]
    pub(super) fn unescape(
        bytes: &[u8],
        mut i: usize,
        end: usize,
        out: &mut Out,
    ) -> Result<(), JsonError> {
        // Every load below stays inside `bytes[..end]`.
        assert!(end <= bytes.len(), "the escaped span ends inside the text");
        let backslash = _mm512_set1_epi8(b'\\' as i8);
        // SAFETY: each half of the table is 64 bytes long.
        let (table_low, table_high) = unsafe {
            (
                _mm512_loadu_si512(SHORT_ESCAPES[..64].as_ptr().cast()),
                _mm512_loadu_si512(SHORT_ESCAPES[64..128].as_ptr().cast()),
            )
        };
        let mut carry = 0;
        while i < end {
            let n = (end - i).min(64);
            let lanes = low_bits(n);
            // SAFETY: the mask reads bytes i..i + n, all before `end`, so
            // inside `bytes`; masked-off lanes are not read.
            let x = unsafe { _mm512_maskz_loadu_epi8(lanes, bytes.as_ptr().add(i).cast()) };
            let backslashes = _mm512_mask_cmpeq_epi8_mask(lanes, x, backslash);
            let escaped = escaped_bytes(backslashes, &mut carry);
            // The backslashes that escape a byte of this block or the next
            // block's first.
            let escapers = (escaped >> 1) | (carry << 63);
            let in_block = escaped & lanes;
            // Each ASCII byte's short escape, from the table's first 128
            // entries; 0 for a `u`, a bad escape or a non-ASCII byte.
            let letters = _mm512_maskz_mov_epi8(
                !_mm512_movepi8_mask(x),
                _mm512_permutex2var_epi8(table_low, x, table_high),
            );
            let short = _mm512_mask_test_epi8_mask(in_block, letters, letters);
            let mapped = _mm512_mask_mov_epi8(x, in_block, letters);
            // An escaped byte the table does not map, or one past the text
            // (only where the text ends in an escaping backslash).
            let long = (in_block & !short) | (escaped & !lanes);
            if long != 0 {
                // The escape's backslash is at i + at - 1, in this block or,
                // for at = 0, the last of the previous one.
                let at = long.trailing_zeros() as usize;
                put_compressed(
                    out,
                    lanes & !escapers & low_bits(at.saturating_sub(1)),
                    mapped,
                );
                i = unescape_one(bytes, i + at - 1, out)?;
                carry = 0;
                continue;
            }
            put_compressed(out, lanes & !escapers, mapped);
            i += n;
        }
        if carry != 0 {
            // The text ends in an escaping backslash.
            unescape_one(bytes, end - 1, out)?;
        }
        Ok(())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The string-kernel levels this host runs, words first.
    fn detected_levels() -> Vec<Isa> {
        let mut levels = vec![Isa::Words];
        #[cfg(target_arch = "x86_64")]
        levels.extend(Some(Isa::Vbmi2).filter(|isa| isa.detected()));
        levels
    }

    /// The offsets around the first three step edges of both VBMI2 kernels
    /// (32 input bytes per render step, 64 per parse step).
    fn near_step_edges() -> impl Iterator<Item = usize> + Clone {
        [28..37, 60..69, 92..101, 124..133].into_iter().flatten()
    }

    /// Prints which levels a test checks, so a log shows when a host
    /// without VBMI2 checked only the words.
    fn checked_levels() -> Vec<Isa> {
        let levels = detected_levels();
        println!("json string kernels checked at levels: {levels:?}");
        levels
    }

    /// At every level, `value` renders byte for byte as the per-char
    /// string oracle renders it, into a buffer its rendered length sizes
    /// exactly, and parses back to itself.
    pub(crate) fn assert_frame_matches_the_oracle(value: &Json<'_>) {
        let mut per_char = String::new();
        render_per_char(value, &mut per_char);
        for isa in checked_levels() {
            let mut out = Vec::with_capacity(value.rendered_len());
            value.render_at(isa, &mut out);
            // `assert!`, so a failure does not print a 100 KB frame.
            assert!(out == per_char.as_bytes(), "{isa:?}: the frame differs");
            assert_eq!(out.len(), out.capacity(), "{isa:?}: sized once, exactly");
            assert!(parse_at(isa, &per_char).unwrap() == *value, "{isa:?}");
        }
    }

    /// `value` rendered with the per-char string oracle.
    fn render_per_char(value: &Json<'_>, out: &mut String) {
        match value {
            Json::Str(s) => render_string_per_char(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_per_char(item, out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string_per_char(k, out);
                    out.push(':');
                    render_per_char(v, out);
                }
                out.push('}');
            }
            scalar => out.push_str(&scalar.render()),
        }
    }

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

    /// Every escape class, controls that take `\u00XX`, ASCII and
    /// multibyte characters: the pool random strings are drawn from.
    const ESCAPE_HEAVY: &str = "\"\\\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}ab #]0 é€🎯\u{2028}\u{fffd}";

    #[test]
    fn render_string_matches_the_per_char_renderer() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        checked_levels();
        let pool: Vec<char> = ESCAPE_HEAVY.chars().collect();
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

    /// At every level, `s` renders as the per-char oracle renders it, into
    /// a buffer its rendered length sizes exactly, and parses back to
    /// itself; the oracle's text also unescapes like the per-escape parser.
    fn assert_kernels_match_the_oracle(s: &str) {
        let value = Json::Str(s.into());
        let mut per_char = String::new();
        render_string_per_char(s, &mut per_char);
        for isa in detected_levels() {
            let mut rendered = Vec::with_capacity(value.rendered_len());
            render_string(isa, s, &mut rendered);
            assert_eq!(rendered, per_char.as_bytes(), "{isa:?}: {s:?}");
            assert_eq!(
                rendered.len(),
                rendered.capacity(),
                "{isa:?}: {s:?}: sized once"
            );
            assert_eq!(
                parse_at(isa, &per_char).unwrap().as_str(),
                Some(s),
                "{isa:?}"
            );
        }
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

    /// At every level, `literal` unescapes to the per-escape parser's
    /// value or error, and a value ends where the oracle's does.
    fn assert_unescapes_like_the_per_escape_parser(literal: &str) {
        let mut oracle_at = 0;
        let want = parse_string_per_escape(literal, &mut oracle_at);
        for isa in detected_levels() {
            let mut at = 0;
            let got = parse_string(isa, literal, &mut at);
            assert_eq!(got, want, "{isa:?}: {literal:?}");
            if got.is_ok() {
                assert_eq!(at, oracle_at, "{isa:?}: {literal:?}");
            }
        }
    }

    /// Every byte the renderer escapes, and the bytes a borrow out of a
    /// true hit can also flag (`#` after `"`, `]` after `\\`, space after a
    /// control), at every offset of two words and around the first step
    /// edges of the VBMI2 render. A padding of 16 bytes puts each case
    /// inside the word loop as well as in the byte tail.
    #[test]
    fn every_special_byte_at_every_offset_matches_the_oracle() {
        checked_levels();
        let specials = (0u8..0x20).chain([b'"', b'\\']);
        for special in specials {
            let special = char::from(special).to_string();
            for offset in (0..16).chain(near_step_edges()) {
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

    /// Multibyte characters that straddle a word edge or a VBMI2 step
    /// edge, with and without an escape in the same word, inside the word
    /// loop and in the tail.
    #[test]
    fn multibyte_chars_straddling_word_edges_match_the_oracle() {
        checked_levels();
        for c in ['é', '€', '🎯', '\u{2028}', '\u{7f}', '\u{80}'] {
            for before in (0..17).chain(near_step_edges()) {
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

    /// Every form a `\u` escape takes, valid or not, and bad escapes, at
    /// every offset of a word, in the word loop and in the byte tail, and
    /// (behind a first escape, where the VBMI2 parse steps start) around
    /// its first step edges, unescapes like the per-escape parser: same
    /// text, same end, same error at the same byte.
    #[test]
    fn every_unicode_escape_form_unescapes_like_the_oracle() {
        checked_levels();
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
            r"\q",
            r"\U0041",
            "\\é",
            "\\\n",
        ];
        let offsets = (0..10)
            .map(|before| ("", before))
            .chain(near_step_edges().map(|before| (r"\n", before)));
        for form in forms {
            for (prefix, before) in offsets.clone() {
                for after in ["", "x", "\\n", "\\\\", "\\\"", "abcdefgh", "é"] {
                    for pad in ["", "0123456789abcdef"] {
                        let body = prefix.to_string() + &"a".repeat(before) + form + after + pad;
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
        checked_levels();
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

    /// Runs of one to five backslashes (escaped text, so a run's parity
    /// decides what follows it) ending at and around a parse step edge,
    /// then a short escape, a `\u` escape, a bad escape, the quote, a
    /// multibyte char or the text's end.
    #[test]
    fn backslash_runs_ending_on_a_step_edge_unescape_like_the_oracle() {
        checked_levels();
        for run in 1..=5 {
            for end in near_step_edges() {
                for prefix in [r"\n", "a"] {
                    // The run's last backslash is byte `end` of the body.
                    let filler = "b".repeat(end + 1 - run - prefix.len());
                    let head = prefix.to_string() + &filler + &"\\".repeat(run);
                    for next in ["n", "\"", "u00e9", "u12", "q", "é", "x\\\\", ""] {
                        let body = head.clone() + next;
                        assert_unescapes_like_the_per_escape_parser(&format!("\"{body}\"rest"));
                        assert_unescapes_like_the_per_escape_parser(&format!("\"{body}"));
                    }
                }
            }
        }
    }

    /// Every byte the renderer escapes at every offset of an edge list,
    /// whose `\n` every few bytes is the serve wire's common case. A
    /// control that takes `\u00XX` sends its render block to the word
    /// step while the blocks around it stay on the level's own kernel.
    #[test]
    fn every_special_byte_amid_an_edge_list_matches_the_oracle() {
        checked_levels();
        let edge_list: String = (0..30).map(|i| format!("{} {}\n", i % 7, i / 2)).collect();
        for special in (0u8..0x20).chain([b'"', b'\\']).map(char::from) {
            for at in 0..=edge_list.len() {
                let mut s = edge_list.clone();
                s.insert(at, special);
                assert_kernels_match_the_oracle(&s);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(256))]

        /// Strings drawn from the escape-heavy pool render as the per-char
        /// oracle renders them and parse back to themselves, at every level.
        #[test]
        fn escape_heavy_strings_roundtrip_at_every_level(
            chars in proptest::collection::vec(
                proptest::sample::select(ESCAPE_HEAVY.chars().collect::<Vec<char>>()),
                0..300,
            ),
        ) {
            let s: String = chars.into_iter().collect();
            assert_kernels_match_the_oracle(&s);
        }
    }
}
