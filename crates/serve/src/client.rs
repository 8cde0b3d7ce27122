//! Thin TCP clients for the frame protocol — what `iabc submit` and
//! `iabc query` call.

use std::net::TcpStream;

use crate::job::JobSpec;
use crate::protocol::{read_frame, write_frame, Request, Response};
use crate::store::{CompactionStats, RunKey};
use crate::ServeError;

/// Everything a submit returns: the terminal result plus any progress
/// labels streamed while a miss computed.
#[derive(Debug, Clone)]
pub struct SubmitOutcome {
    /// `true` iff the daemon answered from its store.
    pub cache_hit: bool,
    /// The job's run key (hex form is the on-disk object name).
    pub key: RunKey,
    /// Per-cell store hits while the job executed.
    pub hits: usize,
    /// Per-cell store misses while the job executed.
    pub misses: usize,
    /// The payload bytes.
    pub payload: Vec<u8>,
    /// Progress labels, in arrival order.
    pub progress: Vec<String>,
}

fn connect(addr: &str) -> Result<TcpStream, ServeError> {
    let stream =
        TcpStream::connect(addr).map_err(|e| ServeError::Io(format!("connect {addr}: {e}")))?;
    // Request/response frames must not sit in Nagle's buffer waiting for
    // a delayed ACK: a cache hit is a single small exchange.
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Submits a job and collects the streamed response.
pub fn submit(addr: &str, job: &JobSpec) -> Result<SubmitOutcome, ServeError> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, &Request::submit_json(job))
        .map_err(|e| ServeError::Io(e.to_string()))?;
    let mut progress = Vec::new();
    loop {
        let frame = read_frame(&mut stream)?
            .ok_or_else(|| ServeError::Protocol("connection closed mid-response".into()))?;
        match Response::from_json(&frame)? {
            Response::Progress { label, .. } => progress.push(label),
            Response::Result {
                cache_hit,
                key,
                hits,
                misses,
                payload,
            } => {
                return Ok(SubmitOutcome {
                    cache_hit,
                    key,
                    hits,
                    misses,
                    payload,
                    progress,
                })
            }
            Response::Absent { key } => {
                return Err(ServeError::Protocol(format!(
                    "unexpected absent frame for {key}"
                )))
            }
            Response::Compacted { .. } => {
                return Err(ServeError::Protocol("unexpected compacted frame".into()))
            }
            Response::Error { message } => return Err(ServeError::Server(message)),
        }
    }
}

/// Fetches a stored payload by key; `Ok(None)` when the key is absent.
pub fn query(addr: &str, key: RunKey) -> Result<Option<Vec<u8>>, ServeError> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, &Request::Query(key).to_json())
        .map_err(|e| ServeError::Io(e.to_string()))?;
    let frame = read_frame(&mut stream)?
        .ok_or_else(|| ServeError::Protocol("connection closed mid-response".into()))?;
    match Response::from_json(&frame)? {
        Response::Result { payload, .. } => Ok(Some(payload)),
        Response::Absent { .. } => Ok(None),
        Response::Error { message } => Err(ServeError::Server(message)),
        other => Err(ServeError::Protocol(format!("unexpected frame {other:?}"))),
    }
}

/// Asks the daemon to compact its journal (rewrite to live records and
/// sweep orphaned objects); returns the rewrite stats.
pub fn compact(addr: &str) -> Result<CompactionStats, ServeError> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, &Request::Compact.to_json())
        .map_err(|e| ServeError::Io(e.to_string()))?;
    let frame = read_frame(&mut stream)?
        .ok_or_else(|| ServeError::Protocol("connection closed mid-response".into()))?;
    match Response::from_json(&frame)? {
        Response::Compacted {
            records_before,
            records_after,
            bytes_before,
            bytes_after,
            orphans_removed,
        } => Ok(CompactionStats {
            records_before,
            records_after,
            bytes_before,
            bytes_after,
            orphans_removed,
        }),
        Response::Error { message } => Err(ServeError::Server(message)),
        other => Err(ServeError::Protocol(format!("unexpected frame {other:?}"))),
    }
}

/// Asks the daemon to stop after this connection.
pub fn shutdown(addr: &str) -> Result<(), ServeError> {
    let mut stream = connect(addr)?;
    write_frame(&mut stream, &Request::Shutdown.to_json())
        .map_err(|e| ServeError::Io(e.to_string()))?;
    // The daemon acknowledges with a terminal frame; ignore its content.
    let _ = read_frame(&mut stream);
    Ok(())
}
