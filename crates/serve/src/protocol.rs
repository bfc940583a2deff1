//! Length-prefixed JSON framing and the request/response schema.
//!
//! Every message on a serve connection — either direction — is one frame:
//! a 4-byte big-endian length followed by that many bytes of UTF-8 JSON
//! (the in-tree [`tels_trace::json`] value; no external serializer). The
//! length prefix makes message boundaries explicit on a byte stream, so a
//! client can pipeline requests and the daemon never scans for delimiters
//! inside payloads.
//!
//! Error containment is per-frame: malformed JSON inside a well-formed
//! frame yields an error *reply* and the connection continues; a frame
//! whose length prefix is oversized is unrecoverable (the stream can no
//! longer be resynchronized) and closes the connection after an error
//! reply.

use std::io::{self, Read, Write};

use tels_core::{SplitHeuristic, SynthStrategy, TelsConfig};
use tels_trace::json::Json;

/// Hard cap on a frame payload (16 MiB): far above any legitimate netlist,
/// small enough that a garbage length prefix cannot trigger a huge
/// allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Why reading a frame failed.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (including EOF mid-frame).
    Io(io::Error),
    /// The length prefix exceeds [`MAX_FRAME`]; the stream cannot be
    /// resynchronized.
    TooLarge(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte cap")
            }
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Reads one frame. `Ok(None)` is a clean end of stream (EOF exactly at a
/// frame boundary); EOF inside a frame, length prefix included, is an
/// error.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len = [0u8; 4];
    loop {
        match r.read(&mut len[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    r.read_exact(&mut len[1..])?;
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    tels_metrics::instruments::SERVE_BYTES_IN.add(4 + u64::from(len));
    Ok(Some(payload))
}

/// Writes one frame and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&[0; 4]);
    frame.extend_from_slice(payload);
    send_frame(w, frame)
}

/// Serializes a JSON value into one frame: the compact text goes straight
/// into the frame buffer behind a length placeholder.
pub fn write_json_frame(w: &mut impl Write, value: &Json) -> io::Result<()> {
    let mut text = String::from("\0\0\0\0");
    value.write_compact(&mut text);
    send_frame(w, text.into_bytes())
}

/// Patches the payload length into `frame[..4]`, then sends the whole
/// frame with one `write_all` and flushes.
fn send_frame(w: &mut impl Write, mut frame: Vec<u8>) -> io::Result<()> {
    let len = u32::try_from(frame.len() - 4)
        .ok()
        .filter(|&n| n <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    frame[..4].copy_from_slice(&len.to_be_bytes());
    w.write_all(&frame)?;
    tels_metrics::instruments::SERVE_BYTES_OUT.add(4 + u64::from(len));
    w.flush()
}

/// Reads one frame and parses it as JSON. The outer `Option`/`FrameError`
/// mirror [`read_frame`]; the inner `Result` is a *recoverable* parse
/// failure (reply with an error, keep the connection).
pub fn read_json_frame(r: &mut impl Read) -> Result<Option<Result<Json, String>>, FrameError> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let parsed = match std::str::from_utf8(&payload) {
        Ok(text) => tels_trace::json::parse(text),
        Err(e) => Err(format!("frame is not UTF-8: {e}")),
    };
    Ok(Some(parsed))
}

/// One synthesis job.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Client-chosen id echoed in the reply (assigned by the session when
    /// absent).
    pub id: Option<u64>,
    /// The circuit, as BLIF text.
    pub blif: String,
    /// Apply `script_algebraic` before synthesis — the required input form
    /// (§V) and what one-shot `tels synth` does by default.
    pub factor: bool,
    /// Additionally verify the result against the input by simulation
    /// (what one-shot `tels synth` always does; off by default here for
    /// throughput).
    pub verify: bool,
    /// Synthesis configuration (defaults + any per-request overrides).
    pub config: TelsConfig,
}

impl Default for JobRequest {
    fn default() -> JobRequest {
        JobRequest {
            id: None,
            blif: String::new(),
            factor: true,
            verify: false,
            config: TelsConfig::default(),
        }
    }
}

/// A parsed request frame.
#[derive(Debug)]
pub enum Request {
    /// Synthesize one circuit.
    Synth(Box<JobRequest>),
    /// Liveness probe.
    Ping,
    /// Server statistics snapshot.
    Stats,
    /// Live metrics snapshot (JSON or Prometheus text exposition),
    /// optionally with the flight-recorder ring.
    Metrics {
        /// Render Prometheus text format instead of the JSON snapshot.
        prometheus: bool,
        /// Include the flight-recorder ring dump in the reply.
        recorder: bool,
    },
    /// Save the cache (when configured) and stop the server.
    Shutdown,
}

/// Non-panicking configuration validation (wire requests must never be
/// able to trip the library's `assert_valid`).
pub fn validate_config(config: &TelsConfig) -> Result<(), String> {
    if config.psi < 2 {
        return Err("psi must be at least 2".to_string());
    }
    if config.delta_on < 0 {
        return Err("delta_on must be non-negative".to_string());
    }
    if config.delta_off < 1 {
        return Err("delta_off must be at least 1".to_string());
    }
    if config.weight_cap.is_some_and(|cap| cap < 1) {
        return Err("weight_cap must be at least 1".to_string());
    }
    Ok(())
}

fn field_u64(doc: &Json, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("`{key}` must be a non-negative integer")),
    }
}

fn field_i64(doc: &Json, key: &str) -> Result<Option<i64>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) if n.fract() == 0.0 => Ok(Some(*n as i64)),
        Some(_) => Err(format!("`{key}` must be an integer")),
    }
}

fn field_bool(doc: &Json, key: &str) -> Result<Option<bool>, String> {
    match doc.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(format!("`{key}` must be a boolean")),
    }
}

/// Applies the `config` object of a synth request on top of the defaults.
/// Unknown keys are ignored, so clients that still send fields a newer
/// daemon has retired keep working.
fn parse_config(doc: &Json) -> Result<TelsConfig, String> {
    let mut config = TelsConfig::default();
    if let Some(v) = field_u64(doc, "psi")? {
        config.psi = v as usize;
    }
    if let Some(v) = field_i64(doc, "delta_on")? {
        config.delta_on = v;
    }
    if let Some(v) = field_i64(doc, "delta_off")? {
        config.delta_off = v;
    }
    if let Some(v) = field_i64(doc, "weight_cap")? {
        config.weight_cap = Some(v);
    }
    if let Some(v) = field_bool(doc, "use_tier0")? {
        config.use_tier0 = v;
    }
    if let Some(v) = field_bool(doc, "use_tier05")? {
        config.use_tier05 = v;
    }
    match doc.get("strategy").and_then(Json::as_str) {
        None => {}
        Some("paper") => config.strategy = SynthStrategy::PaperBackward,
        Some("shannon") => config.strategy = SynthStrategy::Shannon,
        Some(other) => return Err(format!("unknown strategy `{other}`")),
    }
    match doc.get("split").and_then(Json::as_str) {
        None => {}
        Some("frequency") => config.split_heuristic = SplitHeuristic::Frequency,
        Some("halves") => config.split_heuristic = SplitHeuristic::Halves,
        Some(other) => return Err(format!("unknown split heuristic `{other}`")),
    }
    validate_config(&config)?;
    Ok(config)
}

/// Parses a request frame. Errors are recoverable: the server replies with
/// the message and keeps the connection. Takes the document by value so a
/// synth request's BLIF text moves into its [`JobRequest`] uncopied.
pub fn parse_request(mut doc: Json) -> Result<Request, String> {
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or("request must be an object with a string `op`")?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "metrics" => {
            let prometheus = match doc.get("format").and_then(Json::as_str) {
                None | Some("json") => false,
                Some("prometheus") => true,
                Some(other) => return Err(format!("unknown metrics format `{other}`")),
            };
            Ok(Request::Metrics {
                prometheus,
                recorder: field_bool(&doc, "recorder")?.unwrap_or(false),
            })
        }
        "shutdown" => Ok(Request::Shutdown),
        "synth" => {
            let blif =
                take_str(&mut doc, "blif").ok_or("synth request requires a `blif` string")?;
            let config = match doc.get("config") {
                None | Some(Json::Null) => TelsConfig::default(),
                Some(cfg) => parse_config(cfg)?,
            };
            Ok(Request::Synth(Box::new(JobRequest {
                id: field_u64(&doc, "id")?,
                blif,
                factor: field_bool(&doc, "factor")?.unwrap_or(true),
                verify: field_bool(&doc, "verify")?.unwrap_or(false),
                config,
            })))
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Moves the string member `key` out of an object document, leaving an
/// empty string in its place (`None` when absent or not a string).
fn take_str(doc: &mut Json, key: &str) -> Option<String> {
    let Json::Obj(pairs) = doc else {
        return None;
    };
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some((_, Json::Str(s))) => Some(std::mem::take(s)),
        _ => None,
    }
}

/// Builds the JSON body of a synth request (the client side of
/// [`parse_request`]). Only non-default config fields are emitted.
pub fn synth_request_json(req: &JobRequest) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![
        ("op".to_string(), Json::str("synth")),
        ("blif".to_string(), Json::str(req.blif.clone())),
    ];
    if let Some(id) = req.id {
        pairs.push(("id".to_string(), Json::Num(id as f64)));
    }
    if !req.factor {
        pairs.push(("factor".to_string(), Json::Bool(false)));
    }
    if req.verify {
        pairs.push(("verify".to_string(), Json::Bool(true)));
    }
    let d = TelsConfig::default();
    let c = &req.config;
    let mut cfg: Vec<(String, Json)> = Vec::new();
    let mut num = |k: &str, v: f64| cfg.push((k.to_string(), Json::Num(v)));
    if c.psi != d.psi {
        num("psi", c.psi as f64);
    }
    if c.delta_on != d.delta_on {
        num("delta_on", c.delta_on as f64);
    }
    if c.delta_off != d.delta_off {
        num("delta_off", c.delta_off as f64);
    }
    if let Some(cap) = c.weight_cap {
        num("weight_cap", cap as f64);
    }
    for (key, ours, default) in [
        ("use_tier0", c.use_tier0, d.use_tier0),
        ("use_tier05", c.use_tier05, d.use_tier05),
    ] {
        if ours != default {
            cfg.push((key.to_string(), Json::Bool(ours)));
        }
    }
    if c.strategy != d.strategy {
        cfg.push((
            "strategy".to_string(),
            Json::str(match c.strategy {
                SynthStrategy::PaperBackward => "paper",
                SynthStrategy::Shannon => "shannon",
            }),
        ));
    }
    if c.split_heuristic != d.split_heuristic {
        cfg.push((
            "split".to_string(),
            Json::str(match c.split_heuristic {
                SplitHeuristic::Frequency => "frequency",
                SplitHeuristic::Halves => "halves",
            }),
        ));
    }
    if !cfg.is_empty() {
        pairs.push(("config".to_string(), Json::Obj(cfg)));
    }
    Json::Obj(pairs)
}

/// Builds the JSON body of a `metrics` request (the client side of
/// [`parse_request`]).
pub fn metrics_request_json(prometheus: bool, recorder: bool) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![("op".to_string(), Json::str("metrics"))];
    if prometheus {
        pairs.push(("format".to_string(), Json::str("prometheus")));
    }
    if recorder {
        pairs.push(("recorder".to_string(), Json::Bool(true)));
    }
    Json::Obj(pairs)
}

/// Builds an error reply.
pub fn error_reply(id: Option<u64>, message: &str) -> Json {
    let mut pairs: Vec<(String, Json)> = Vec::new();
    if let Some(id) = id {
        pairs.push(("id".to_string(), Json::Num(id as f64)));
    }
    pairs.push(("ok".to_string(), Json::Bool(false)));
    pairs.push(("error".to_string(), Json::str(message)));
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\": \"ping\"}").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"{\"op\": \"ping\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = (MAX_FRAME + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(b"garbage");
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn truncated_length_prefix_is_io_error() {
        for cut in 1..4 {
            let buf = 7u32.to_be_bytes();
            match read_frame(&mut &buf[..cut]) {
                Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                other => panic!("{cut} prefix bytes: {other:?}"),
            }
        }
    }

    #[test]
    fn json_frame_is_one_write() {
        /// Counts `write` calls.
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let doc = Json::obj([("op", Json::str("ping")), ("blif", Json::str("a\"b\n"))]);
        let mut w = Writes(Vec::new());
        write_json_frame(&mut w, &doc).unwrap();
        assert_eq!(w.0.len(), 1);
        let text = doc.to_string();
        assert_eq!(w.0[0][..4], (text.len() as u32).to_be_bytes());
        assert_eq!(w.0[0][4..], *text.as_bytes());
    }

    #[test]
    fn truncated_frame_is_io_error() {
        let mut buf = 100u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"short");
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn malformed_json_is_recoverable() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{not json").unwrap();
        let inner = read_json_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert!(inner.is_err());
    }

    #[test]
    fn synth_request_roundtrip() {
        let req = JobRequest {
            id: Some(42),
            blif: ".model m\n.inputs a\n.outputs f\n.names a f\n1 1\n.end\n".to_string(),
            factor: false,
            verify: true,
            config: TelsConfig {
                psi: 5,
                use_tier0: false,
                use_tier05: false,
                ..TelsConfig::default()
            },
        };
        let doc = synth_request_json(&req);
        match parse_request(doc).unwrap() {
            Request::Synth(parsed) => {
                assert_eq!(parsed.id, Some(42));
                assert_eq!(parsed.blif, req.blif);
                assert!(!parsed.factor);
                assert!(parsed.verify);
                assert_eq!(parsed.config, req.config);
            }
            other => panic!("expected synth, got {other:?}"),
        }
    }

    #[test]
    fn unknown_config_fields_are_ignored() {
        // `use_theorem1` was a config field until the Theorem-1 refutation
        // became the checker's 2-monotonicity test; older clients still
        // send it. With tier 0 off, that test refutes x₀x₁ ∨ x₂x₃ at
        // ψ = 4. The BLIF text is JSON-escaped.
        let blif =
            r".model m\n.inputs a b c d\n.outputs f\n.names a b c d f\n11-- 1\n--11 1\n.end\n";
        let request = |config: &str| {
            let doc = tels_trace::json::parse(&format!(
                r#"{{"op": "synth", "blif": "{blif}", "config": {config}}}"#
            ))
            .unwrap();
            match parse_request(doc).unwrap() {
                Request::Synth(parsed) => parsed,
                other => panic!("expected synth, got {other:?}"),
            }
        };
        let old = request(
            r#"{"psi": 4, "use_tier0": false, "use_theorem1": false, "retired_flag": false,
                "retired_count": 0}"#,
        );
        assert_eq!(
            old.config,
            TelsConfig {
                psi: 4,
                use_tier0: false,
                ..TelsConfig::default()
            }
        );
        // The served bytes equal those of a request without the key.
        let tnet = |req: &JobRequest| {
            let session = crate::ServeSession::new(crate::ServeOptions::default()).unwrap();
            session.submit(req).unwrap().tn.to_tnet()
        };
        assert_eq!(
            tnet(&old),
            tnet(&request(r#"{"psi": 4, "use_tier0": false}"#))
        );
    }

    #[test]
    fn bad_requests_are_errors_not_panics() {
        for bad in [
            r#"{"no_op": 1}"#,
            r#"{"op": "warp"}"#,
            r#"{"op": "synth"}"#,
            r#"{"op": "synth", "blif": ".model m\n.end\n", "config": {"psi": 1}}"#,
            r#"{"op": "synth", "blif": ".model m\n.end\n", "config": {"delta_off": 0}}"#,
            r#"{"op": "synth", "blif": ".model m\n.end\n", "config": {"strategy": "magic"}}"#,
        ] {
            let doc = tels_trace::json::parse(bad).unwrap();
            assert!(parse_request(doc).is_err(), "{bad} should be rejected");
        }
    }
}
