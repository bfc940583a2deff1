//! Transport loops: stdio (single client) and unix socket (concurrent
//! clients, one thread per connection, shared session).

use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use tels_metrics::instruments as metrics;

use crate::protocol::{error_reply, read_json_frame, write_json_frame, FrameError};
use crate::ServeSession;

/// Process-wide connection ids for the `tels_serve_frames_total{conn=…}`
/// series. Ids are assigned per connection loop (stdio counts as one), so
/// the series distinguishes chatty peers without any API change.
static NEXT_CONN_ID: AtomicU64 = AtomicU64::new(0);

/// Why a connection loop returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnectionEnd {
    /// The peer closed the stream cleanly (EOF at a frame boundary).
    Eof,
    /// The peer sent a `shutdown` request (acknowledged before returning).
    Shutdown,
    /// The stream became unrecoverable (oversized length prefix, or EOF in
    /// the middle of a frame) and was dropped after a best-effort error
    /// reply.
    Aborted,
}

/// Runs the request/reply protocol over one byte stream until the peer
/// disconnects or asks for shutdown.
///
/// Error containment: a frame that parses as a frame but not as JSON gets
/// an error reply and the connection *continues*; an oversized length
/// prefix or a truncated frame cannot be resynchronized, so the connection
/// ends (with an error reply when the stream still accepts one). Neither
/// case takes the session down.
///
/// # Errors
///
/// Only genuine transport failures (write errors, unexpected read errors)
/// surface as `Err`; everything protocol-level is a [`ConnectionEnd`].
pub fn serve_connection(
    session: &ServeSession,
    r: &mut impl Read,
    w: &mut impl Write,
) -> io::Result<ConnectionEnd> {
    let conn = NEXT_CONN_ID.fetch_add(1, Ordering::Relaxed) as usize;
    metrics::SERVE_CONNECTIONS_OPEN.add(1);
    let end = serve_frames(session, r, w, conn);
    metrics::SERVE_CONNECTIONS_OPEN.add(-1);
    end
}

fn serve_frames(
    session: &ServeSession,
    r: &mut impl Read,
    w: &mut impl Write,
    conn: usize,
) -> io::Result<ConnectionEnd> {
    loop {
        match read_json_frame(r) {
            Ok(None) => return Ok(ConnectionEnd::Eof),
            Ok(Some(Ok(doc))) => {
                metrics::SERVE_FRAMES.inc(conn);
                let (reply, shutdown) = session.handle(doc);
                write_json_frame(w, &reply)?;
                if shutdown {
                    return Ok(ConnectionEnd::Shutdown);
                }
            }
            Ok(Some(Err(parse_err))) => {
                session.note_bad_frame();
                write_json_frame(
                    w,
                    &error_reply(None, &format!("malformed frame: {parse_err}")),
                )?;
            }
            Err(FrameError::TooLarge(n)) => {
                session.note_bad_frame();
                let _ = write_json_frame(
                    w,
                    &error_reply(None, &format!("frame length {n} exceeds cap; closing")),
                );
                return Ok(ConnectionEnd::Aborted);
            }
            Err(FrameError::Io(e)) if e.kind() == io::ErrorKind::UnexpectedEof => {
                session.note_bad_frame();
                return Ok(ConnectionEnd::Aborted);
            }
            Err(FrameError::Io(e)) => return Err(e),
        }
    }
}

/// Serves one client over stdin/stdout — the embedding mode, where a build
/// system holds the daemon as a child process. Saves the cache file (when
/// configured) before returning, whether the client disconnected or asked
/// for shutdown.
///
/// # Errors
///
/// Transport failures on stdin/stdout, or a failure writing the cache file.
pub fn serve_stdio(session: &ServeSession) -> io::Result<ConnectionEnd> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    let end = serve_connection(session, &mut stdin.lock(), &mut stdout.lock())?;
    session.persist_now()?;
    session.persist_metrics_now()?;
    Ok(end)
}

/// Listens on a unix socket and serves concurrent clients; jobs from all
/// connections share the session's pool and caches. Returns once a client
/// sends `shutdown`: the listener stops accepting, in-flight connections
/// are joined, and the cache file (when configured) is saved. A stale
/// socket file at `path` is replaced.
///
/// # Errors
///
/// Bind/accept failures, or a failure writing the cache file at shutdown.
pub fn serve_unix(session: Arc<ServeSession>, path: &Path) -> io::Result<()> {
    // Replace a stale socket from a previous run; bind() refuses to reuse
    // the inode otherwise.
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    // Flight-recorder sampler: one frame per interval until shutdown, so
    // `metrics` with `recorder: true` (and the post-mortem dump) shows a
    // rolling window of recent daemon state, not just on-demand snapshots.
    let sampler = session.metrics_on().then(|| {
        let session = Arc::clone(&session);
        std::thread::spawn(move || {
            while !session.shutting_down() {
                session.record_frame();
                // Sleep in short ticks so shutdown isn't delayed by a
                // full interval at coarse sampling rates.
                let mut left = session.metrics_interval();
                while !left.is_zero() && !session.shutting_down() {
                    let tick = left.min(std::time::Duration::from_millis(50));
                    std::thread::sleep(tick);
                    left -= tick;
                }
            }
        })
    });
    let mut connections = Vec::new();
    for stream in listener.incoming() {
        if session.shutting_down() {
            break;
        }
        let stream = stream?;
        let session = Arc::clone(&session);
        let wake = path.to_path_buf();
        connections.push(std::thread::spawn(move || {
            let mut reader = match stream.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            };
            let mut writer = stream;
            let end = serve_connection(&session, &mut reader, &mut writer);
            if matches!(end, Ok(ConnectionEnd::Shutdown)) {
                // The accept loop is blocked in `incoming()`; poke it with
                // a throwaway connection so it observes the shutdown flag.
                let _ = UnixStream::connect(&wake);
            }
        }));
    }
    for handle in connections {
        let _ = handle.join();
    }
    if let Some(handle) = sampler {
        let _ = handle.join();
    }
    session.persist_now()?;
    session.persist_metrics_now()?;
    std::fs::remove_file(path).ok();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{synth_request_json, write_frame, JobRequest};
    use crate::ServeOptions;
    use tels_trace::json::Json;

    fn read_reply(stream: &mut &[u8]) -> Json {
        let inner = read_json_frame(stream).unwrap().expect("a reply frame");
        inner.expect("reply must be valid JSON")
    }

    #[test]
    fn connection_survives_malformed_frames() {
        let session = ServeSession::new(ServeOptions::default()).unwrap();
        let mut input = Vec::new();
        write_frame(&mut input, br#"{"op": "ping"}"#).unwrap();
        write_frame(&mut input, b"{this is not json").unwrap();
        let req = JobRequest {
            blif: ".model t\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n".to_string(),
            ..JobRequest::default()
        };
        write_frame(&mut input, synth_request_json(&req).to_string().as_bytes()).unwrap();
        let mut output = Vec::new();
        let end = serve_connection(&session, &mut input.as_slice(), &mut output).unwrap();
        assert_eq!(end, ConnectionEnd::Eof);
        let mut replies = output.as_slice();
        let pong = read_reply(&mut replies);
        assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));
        let err = read_reply(&mut replies);
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
        let synth = read_reply(&mut replies);
        assert_eq!(synth.get("ok"), Some(&Json::Bool(true)), "{synth}");
        assert!(synth.get("tnet").and_then(Json::as_str).is_some());
        let stats = session.stats_json();
        assert_eq!(stats.get("bad_frames").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn oversized_frame_aborts_with_error_reply() {
        let session = ServeSession::new(ServeOptions::default()).unwrap();
        let mut input = (crate::protocol::MAX_FRAME + 1).to_be_bytes().to_vec();
        input.extend_from_slice(b"junk");
        let mut output = Vec::new();
        let end = serve_connection(&session, &mut input.as_slice(), &mut output).unwrap();
        assert_eq!(end, ConnectionEnd::Aborted);
        let mut replies = output.as_slice();
        let err = read_reply(&mut replies);
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
    }

    #[test]
    fn shutdown_request_ends_connection() {
        let session = ServeSession::new(ServeOptions::default()).unwrap();
        let mut input = Vec::new();
        write_frame(&mut input, br#"{"op": "shutdown"}"#).unwrap();
        write_frame(&mut input, br#"{"op": "ping"}"#).unwrap();
        let mut output = Vec::new();
        let end = serve_connection(&session, &mut input.as_slice(), &mut output).unwrap();
        assert_eq!(end, ConnectionEnd::Shutdown);
        assert!(session.shutting_down());
        let mut replies = output.as_slice();
        let ack = read_reply(&mut replies);
        assert_eq!(ack.get("shutting_down"), Some(&Json::Bool(true)));
        // The trailing ping was never processed.
        assert!(read_json_frame(&mut replies).unwrap().is_none());
    }

    #[test]
    fn deeply_nested_frame_is_a_recoverable_error() {
        // Unbounded recursion on 100 000 `[` would overflow a connection
        // thread's 2 MiB stack, which aborts the whole daemon process.
        let mut input = Vec::new();
        write_frame(&mut input, "[".repeat(100_000).as_bytes()).unwrap();
        write_frame(&mut input, br#"{"op": "ping"}"#).unwrap();
        let connection = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let session = ServeSession::new(ServeOptions::default()).unwrap();
                let mut output = Vec::new();
                let end = serve_connection(&session, &mut input.as_slice(), &mut output);
                (end.unwrap(), output)
            })
            .unwrap();
        let (end, output) = connection.join().expect("connection thread survived");
        assert_eq!(end, ConnectionEnd::Eof);
        let mut replies = output.as_slice();
        let err = read_reply(&mut replies);
        assert_eq!(err.get("ok"), Some(&Json::Bool(false)));
        let message = err.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(message.starts_with("malformed frame"), "{message}");
        let pong = read_reply(&mut replies);
        assert_eq!(pong.get("pong"), Some(&Json::Bool(true)));
    }

    #[test]
    fn truncated_length_prefix_aborts() {
        for cut in 1..4 {
            let session = ServeSession::new(ServeOptions::default()).unwrap();
            let mut input = Vec::new();
            write_frame(&mut input, br#"{"op": "ping"}"#).unwrap();
            input.extend_from_slice(&[0; 3][..cut]);
            let mut output = Vec::new();
            let end = serve_connection(&session, &mut input.as_slice(), &mut output).unwrap();
            assert_eq!(end, ConnectionEnd::Aborted, "{cut} prefix bytes");
            let mut replies = output.as_slice();
            assert_eq!(
                read_reply(&mut replies).get("pong"),
                Some(&Json::Bool(true))
            );
            let stats = session.stats_json();
            assert_eq!(stats.get("bad_frames").and_then(Json::as_u64), Some(1));
        }
    }
}
