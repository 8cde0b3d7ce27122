//! The wire protocol: length-prefixed JSON frames.
//!
//! # Frame format
//!
//! ```text
//! len   u32 LE    byte length of the JSON text (≤ 64 MiB)
//! body  len bytes UTF-8 JSON, one value per frame
//! ```
//!
//! # Requests (client → server, one per connection)
//!
//! ```text
//! {"type":"submit","job":{...}}     run or fetch a job (see crate::job)
//! {"type":"query","key":"<16hex>"}  fetch a stored payload by key
//! {"type":"compact"}                rewrite the journal to live records
//! {"type":"shutdown"}               stop the daemon after this connection
//! ```
//!
//! # Responses (server → client, streamed)
//!
//! ```text
//! {"type":"progress","done":k,"total":t,"label":"..."}   per-cell progress
//! {"type":"result","cache":"hit"|"miss","key":"<16hex>",
//!  "hits":h,"misses":m,"payload":"<hex>"}                terminal
//! {"type":"absent","key":"<16hex>"}                      query miss
//! {"type":"compacted","records_before":a,"records_after":b,
//!  "bytes_before":x,"bytes_after":y,"orphans_removed":o} compact done
//! {"type":"error","message":"..."}                       terminal
//! ```
//!
//! Payload bytes travel hex-encoded, so a client can byte-compare two
//! responses without decoding the payload format at all — exactly what the
//! CI smoke test does.

use std::io::{Read, Write};

use crate::job::JobSpec;
use crate::json::{self, Json};
use crate::store::RunKey;
use crate::ServeError;

/// Upper bound on a frame body, guarding the daemon against hostile or
/// corrupt length prefixes.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Writes one frame. The length prefix and body go out in a single
/// `write_all` — two small writes on a Nagle-enabled socket cost a
/// delayed-ACK round trip (~40 ms) per frame, which dwarfs a cache hit.
pub fn write_frame(w: &mut impl Write, value: &Json) -> std::io::Result<()> {
    let body = value.render();
    let len = body.len() as u32;
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(body.as_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` on clean EOF before a length prefix.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Json>, ServeError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(ServeError::Io(e.to_string())),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(ServeError::Protocol(format!(
            "frame of {len} bytes exceeds cap"
        )));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)
        .map_err(|e| ServeError::Io(e.to_string()))?;
    let text = String::from_utf8(body)
        .map_err(|_| ServeError::Protocol("frame body is not UTF-8".into()))?;
    json::parse(&text)
        .map(Some)
        .map_err(|e| ServeError::Protocol(e.to_string()))
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or fetch) a job.
    Submit(JobSpec),
    /// Fetch a stored payload by key.
    Query(RunKey),
    /// Rewrite the journal to live records and sweep orphaned objects.
    Compact,
    /// Stop the daemon after this connection closes.
    Shutdown,
}

impl Request {
    /// Renders to the wire form.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Submit(job) => {
                Json::obj([("type", Json::Str("submit".into())), ("job", job.to_json())])
            }
            Request::Query(key) => Json::obj([
                ("type", Json::Str("query".into())),
                ("key", Json::Str(key.hex())),
            ]),
            Request::Compact => Json::obj([("type", Json::Str("compact".into()))]),
            Request::Shutdown => Json::obj([("type", Json::Str("shutdown".into()))]),
        }
    }

    /// Parses the wire form.
    pub fn from_json(json: &Json) -> Result<Request, ServeError> {
        match json.get("type").and_then(Json::as_str) {
            Some("submit") => {
                let job = json
                    .get("job")
                    .ok_or_else(|| ServeError::Protocol("submit missing \"job\"".into()))?;
                Ok(Request::Submit(JobSpec::from_json(job)?))
            }
            Some("query") => {
                let key = json
                    .get("key")
                    .and_then(Json::as_str)
                    .and_then(RunKey::from_hex)
                    .ok_or_else(|| ServeError::Protocol("query needs a 16-hex \"key\"".into()))?;
                Ok(Request::Query(key))
            }
            Some("compact") => Ok(Request::Compact),
            Some("shutdown") => Ok(Request::Shutdown),
            other => Err(ServeError::Protocol(format!(
                "unknown request type {other:?}"
            ))),
        }
    }
}

/// A server frame as seen by a client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Per-cell progress while a miss computes.
    Progress {
        /// Cells finished so far.
        done: usize,
        /// Total cells in the job.
        total: usize,
        /// The cell being reported.
        label: String,
    },
    /// Terminal success.
    Result {
        /// `true` iff the payload came from the store.
        cache_hit: bool,
        /// The job's run key.
        key: RunKey,
        /// Per-cell store hits while executing (sweep jobs).
        hits: usize,
        /// Per-cell store misses while executing (sweep jobs).
        misses: usize,
        /// The payload bytes.
        payload: Vec<u8>,
    },
    /// Query miss: the key names no stored object.
    Absent {
        /// The queried key.
        key: RunKey,
    },
    /// Compaction finished (see [`crate::store::CompactionStats`]).
    Compacted {
        /// Journal records before the rewrite.
        records_before: usize,
        /// Journal records after (= live objects).
        records_after: usize,
        /// Journal file size before, in bytes.
        bytes_before: u64,
        /// Journal file size after, in bytes.
        bytes_after: u64,
        /// Orphaned object files removed.
        orphans_removed: usize,
    },
    /// Terminal failure.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

/// Lower-case hex digits: the one nibble table behind [`to_hex`],
/// [`from_hex`] and [`RunKey`]'s hex form.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// The inverse of [`HEX_DIGITS`]: each byte's nibble value, or `0xff` for
/// a byte that is not a lower-case hex digit.
const NIBBLES: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut nibble = 0;
    while nibble < 16 {
        table[HEX_DIGITS[nibble] as usize] = nibble as u8;
        nibble += 1;
    }
    table
};

/// Hex-encodes payload bytes for the wire.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 0xf)]));
    }
    out
}

/// Decodes wire hex back to bytes. Only the form [`to_hex`] writes is
/// accepted: an even number of lower-case hex digits.
pub fn from_hex(text: &str) -> Result<Vec<u8>, ServeError> {
    if !text.len().is_multiple_of(2) {
        return Err(ServeError::Protocol("odd-length hex payload".into()));
    }
    text.as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let (hi, lo) = (NIBBLES[usize::from(pair[0])], NIBBLES[usize::from(pair[1])]);
            if (hi | lo) > 0xf {
                return Err(ServeError::Protocol("bad hex payload".into()));
            }
            Ok((hi << 4) | lo)
        })
        .collect()
}

impl Response {
    /// Renders to the wire form.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Progress { done, total, label } => Json::obj([
                ("type", Json::Str("progress".into())),
                ("done", Json::Num(*done as f64)),
                ("total", Json::Num(*total as f64)),
                ("label", Json::Str(label.clone())),
            ]),
            Response::Result {
                cache_hit,
                key,
                hits,
                misses,
                payload,
            } => Json::obj([
                ("type", Json::Str("result".into())),
                (
                    "cache",
                    Json::Str(if *cache_hit { "hit" } else { "miss" }.into()),
                ),
                ("key", Json::Str(key.hex())),
                ("hits", Json::Num(*hits as f64)),
                ("misses", Json::Num(*misses as f64)),
                ("payload", Json::Str(to_hex(payload))),
            ]),
            Response::Absent { key } => Json::obj([
                ("type", Json::Str("absent".into())),
                ("key", Json::Str(key.hex())),
            ]),
            Response::Compacted {
                records_before,
                records_after,
                bytes_before,
                bytes_after,
                orphans_removed,
            } => Json::obj([
                ("type", Json::Str("compacted".into())),
                ("records_before", Json::Num(*records_before as f64)),
                ("records_after", Json::Num(*records_after as f64)),
                ("bytes_before", Json::Num(*bytes_before as f64)),
                ("bytes_after", Json::Num(*bytes_after as f64)),
                ("orphans_removed", Json::Num(*orphans_removed as f64)),
            ]),
            Response::Error { message } => Json::obj([
                ("type", Json::Str("error".into())),
                ("message", Json::Str(message.clone())),
            ]),
        }
    }

    /// Parses the wire form.
    pub fn from_json(json: &Json) -> Result<Response, ServeError> {
        match json.get("type").and_then(Json::as_str) {
            Some("progress") => Ok(Response::Progress {
                done: json.get("done").and_then(Json::as_usize).unwrap_or(0),
                total: json.get("total").and_then(Json::as_usize).unwrap_or(0),
                label: json
                    .get("label")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            }),
            Some("result") => Ok(Response::Result {
                cache_hit: json.get("cache").and_then(Json::as_str) == Some("hit"),
                key: json
                    .get("key")
                    .and_then(Json::as_str)
                    .and_then(RunKey::from_hex)
                    .ok_or_else(|| ServeError::Protocol("result missing key".into()))?,
                hits: json.get("hits").and_then(Json::as_usize).unwrap_or(0),
                misses: json.get("misses").and_then(Json::as_usize).unwrap_or(0),
                payload: from_hex(
                    json.get("payload")
                        .and_then(Json::as_str)
                        .ok_or_else(|| ServeError::Protocol("result missing payload".into()))?,
                )?,
            }),
            Some("absent") => Ok(Response::Absent {
                key: json
                    .get("key")
                    .and_then(Json::as_str)
                    .and_then(RunKey::from_hex)
                    .ok_or_else(|| ServeError::Protocol("absent missing key".into()))?,
            }),
            Some("compacted") => Ok(Response::Compacted {
                records_before: json
                    .get("records_before")
                    .and_then(Json::as_usize)
                    .unwrap_or(0),
                records_after: json
                    .get("records_after")
                    .and_then(Json::as_usize)
                    .unwrap_or(0),
                bytes_before: json
                    .get("bytes_before")
                    .and_then(Json::as_usize)
                    .unwrap_or(0) as u64,
                bytes_after: json
                    .get("bytes_after")
                    .and_then(Json::as_usize)
                    .unwrap_or(0) as u64,
                orphans_removed: json
                    .get("orphans_removed")
                    .and_then(Json::as_usize)
                    .unwrap_or(0),
            }),
            Some("error") => Ok(Response::Error {
                message: json
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
            }),
            other => Err(ServeError::Protocol(format!(
                "unknown response type {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        let req = Request::Submit(JobSpec::Sweep {
            ids: vec!["E1".into()],
        });
        write_frame(&mut buf, &req.to_json()).unwrap();
        write_frame(&mut buf, &Request::Compact.to_json()).unwrap();
        write_frame(&mut buf, &Request::Shutdown.to_json()).unwrap();
        let mut cursor = &buf[..];
        let first = Request::from_json(&read_frame(&mut cursor).unwrap().unwrap()).unwrap();
        let second = Request::from_json(&read_frame(&mut cursor).unwrap().unwrap()).unwrap();
        let third = Request::from_json(&read_frame(&mut cursor).unwrap().unwrap()).unwrap();
        assert_eq!(first, req);
        assert_eq!(second, Request::Compact);
        assert_eq!(third, Request::Shutdown);
        assert_eq!(read_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn responses_roundtrip() {
        let responses = [
            Response::Progress {
                done: 3,
                total: 12,
                label: "experiments[id=E4]".into(),
            },
            Response::Result {
                cache_hit: true,
                key: RunKey(0xffee_0011_2233_4455),
                hits: 12,
                misses: 0,
                payload: vec![0, 1, 2, 0xff, 0x80],
            },
            Response::Absent { key: RunKey(99) },
            Response::Compacted {
                records_before: 40,
                records_after: 7,
                bytes_before: 1320,
                bytes_after: 231,
                orphans_removed: 2,
            },
            Response::Error {
                message: "bad job".into(),
            },
        ];
        for response in responses {
            let back =
                Response::from_json(&crate::json::parse(&response.to_json().render()).unwrap())
                    .unwrap();
            assert_eq!(back, response);
        }
    }

    #[test]
    fn hex_roundtrips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert!(from_hex("0g").is_err());
        assert!(from_hex("abc").is_err());
        let formatted: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(to_hex(&bytes), formatted);
    }

    /// A multi-byte character must be an error, not a slice through a
    /// char boundary, and each byte has exactly one accepted spelling.
    #[test]
    fn hex_decoding_is_strict() {
        for bad in [
            "a\u{e9}b",
            "\u{e9}\u{e9}",
            "+1",
            "-1",
            " 1",
            "1 ",
            "0x",
            "AB",
            "aB",
            "0\n",
        ] {
            assert!(
                matches!(from_hex(bad), Err(ServeError::Protocol(_))),
                "{bad:?}"
            );
        }
        // A corrupt result frame is a protocol error for the client, not
        // a panic.
        let frame =
            r#"{"type":"result","cache":"hit","key":"0123456789abcdef","payload":"a\u00e9b"}"#;
        let parsed = crate::json::parse(frame).unwrap();
        assert!(matches!(
            Response::from_json(&parsed),
            Err(ServeError::Protocol(_))
        ));
    }
}
