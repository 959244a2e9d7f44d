//! `DPSV` version 3 — the length-prefixed, checksummed frame protocol the
//! networked profiling service speaks.
//!
//! The paper's pipeline decouples event production from dependence
//! analysis; this protocol carries that decoupling across a socket. A
//! client (`depprof push`) streams the instrumentation event stream of a
//! recorded trace to a server (`depprof serve`), which feeds it into a
//! profiling engine and returns the dependence report.
//!
//! ## Wire layout
//!
//! Each direction of a connection starts with a 5-byte preamble — the
//! magic `DPSV` and a version byte — followed by a sequence of frames.
//! A frame is exactly the section unit the `DPCK` checkpoint container
//! uses ([`crate::wire::write_section`]):
//!
//! ```text
//! preamble := "DPSV" version:u8
//! frame    := tag:u8 len:u32 payload[len] checksum:u8
//! ```
//!
//! with the checksum being [`xor_fold`](crate::wire::xor_fold) over tag
//! and payload. Sharing the framing unit means a torn, bit-flipped or
//! truncated frame corrupts — and is detected — exactly like a damaged
//! checkpoint section, and one property-test suite covers both.
//!
//! ## Frames
//!
//! | tag | frame        | direction | payload |
//! |-----|--------------|-----------|---------|
//! | 1   | `Hello`      | C → S     | session name, opaque engine spec, checkpoint interval, variable-name table |
//! | 2   | `HelloAck`   | S → C     | session id, resume position |
//! | 3   | `Chunk`      | C → S     | absolute stream position of the first event + that many events, accesses and control events mixed in stream order |
//! | 4   | —            |           | retired (v2's per-event `LoopEvent`); decodes as an unknown frame |
//! | 5   | `Sync`       | C → S     | client-chosen nonce; the server answers with `SyncAck` |
//! | 6   | `Finish`     | C → S     | empty; server finalizes and replies `Report` |
//! | 7   | `StatsRequest` | C → S   | empty; server replies `Stats` |
//! | 8   | `Stats`      | S → C     | per-session metrics as JSON |
//! | 9   | `Report`     | S → C     | the rendered dependence report |
//! | 10  | `Error`      | S → C     | numeric code + message; the connection closes after it |
//! | 11  | `SyncAck`    | S → C     | the `Sync` nonce plus the server's durable stream position (watermark) |
//! | 12  | `Busy`       | S → C     | typed backpressure: retry the `Hello` after `retry_after_ms` |
//! | 13  | `Query`      | C → S     | ask for a live analysis snapshot: correlation id + [`query_kind`] selector |
//! | 14  | `QueryResult`| S → C     | the snapshot: echoed id + kind, JSON report answered from incremental state |
//!
//! Each `Chunk` event is one record of the shared event codec
//! ([`crate::codec`]), the bytes a trace file stores minus the
//! per-record checksum. Since v3 a control event no longer costs a chunk
//! flush plus a frame of its own.
//!
//! `Query` (new in v2) may arrive at any point between `HelloAck` and
//! `Finish`; the server answers from the online analysis state it folds
//! as chunks merge, so a query never stalls the feed behind a full
//! re-analysis. The first `Query` of a session lazily enables delta
//! tracking — sessions that never query pay nothing.
//!
//! `Chunk` frames are *positional*: they carry the absolute index of
//! their first event in the session's logical event stream, and event
//! `i` of the chunk sits at `base + i`. A server that already profiled
//! `N` events skips anything below `N` exactly — resend overlap after a
//! reconnect and wire-level duplicate delivery both dedupe to
//! exactly-once profiling.
//!
//! The engine spec inside `Hello` is an opaque blob by design: this crate
//! cannot see the profiler's configuration types, so the spec is encoded
//! and decoded by `dp-core` and merely carried here — the same pattern
//! the checkpoint container uses for its CONFIG section.

use crate::codec::{self, NameTableError};
use crate::event::TraceEvent;
use crate::wire::{read_section, write_section, ByteReader, ByteWriter, WireError};
use std::fmt;
use std::io::{self, Read, Write};

/// Connection preamble magic.
pub const PROTOCOL_MAGIC: [u8; 4] = *b"DPSV";
/// Current protocol version. v2 added the `Query`/`QueryResult` frames
/// (live analysis snapshots); v3 made `Chunk` carry control events
/// mixed with accesses and retired the `LoopEvent` frame, so a v2 peer
/// is refused at the preamble.
pub const PROTOCOL_VERSION: u8 = 3;

/// Default upper bound on a frame's payload length. A frame header
/// announcing more than this is rejected before any allocation — the
/// bounded read buffer that keeps a malicious or corrupt length prefix
/// from ballooning server memory.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
/// Tag of [`Frame::Chunk`].
pub const TAG_CHUNK: u8 = 3;
/// Tag of [`Frame::Sync`].
pub const TAG_SYNC: u8 = 5;
const TAG_FINISH: u8 = 6;
const TAG_STATS_REQUEST: u8 = 7;
const TAG_STATS: u8 = 8;
const TAG_REPORT: u8 = 9;
const TAG_ERROR: u8 = 10;
const TAG_SYNC_ACK: u8 = 11;
const TAG_BUSY: u8 = 12;
const TAG_QUERY: u8 = 13;
const TAG_QUERY_RESULT: u8 = 14;

/// Selectors carried by [`Frame::Query`]: which live-analysis sections
/// the client wants in the [`Frame::QueryResult`] JSON.
pub mod query_kind {
    /// Loop classification, communication matrix and race hints.
    pub const ALL: u8 = 0;
    /// Table-II loop classification only.
    pub const LOOPS: u8 = 1;
    /// Communication matrix only.
    pub const COMM: u8 = 2;
    /// Race hints only.
    pub const RACES: u8 = 3;
}

/// Error codes carried by [`Frame::Error`].
pub mod error_code {
    /// The server is at its concurrent-session cap.
    pub const AT_CAPACITY: u16 = 1;
    /// A frame arrived malformed or out of protocol order.
    pub const BAD_FRAME: u16 = 2;
    /// The server is shutting down (signal); in-flight sessions were
    /// checkpointed and can be resumed by reconnecting.
    pub const SHUTDOWN: u16 = 3;
    /// The profiling engine rejected the session configuration or failed.
    pub const ENGINE: u16 = 4;
    /// The session was hibernated to the checkpoint store after sitting
    /// idle; reconnecting with the same `Hello` rehydrates it exactly.
    pub const HIBERNATED: u16 = 5;
}

/// Everything that can go wrong speaking DPSV.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying stream failed.
    Io(io::Error),
    /// A frame or payload was structurally damaged (truncated mid-frame,
    /// checksum mismatch, impossible field value).
    Wire(WireError),
    /// The peer's preamble does not start with `DPSV`.
    BadMagic,
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion(u8),
    /// A frame carried a tag the protocol does not define.
    UnknownFrame {
        /// The undefined tag byte.
        tag: u8,
    },
    /// A frame header announced a payload longer than the reader's
    /// bound; the stream cannot be resynchronized and must close.
    FrameTooLarge {
        /// Announced payload length.
        len: usize,
        /// The reader's configured maximum.
        max: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "protocol i/o error: {e}"),
            ProtocolError::Wire(e) => write!(f, "malformed frame: {e}"),
            ProtocolError::BadMagic => write!(f, "peer is not speaking DPSV (bad magic)"),
            ProtocolError::UnsupportedVersion(v) => {
                write!(f, "unsupported DPSV version {v} (this build speaks {PROTOCOL_VERSION})")
            }
            ProtocolError::UnknownFrame { tag } => write!(f, "unknown frame tag {tag}"),
            ProtocolError::FrameTooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte bound")
            }
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<WireError> for ProtocolError {
    fn from(e: WireError) -> Self {
        ProtocolError::Wire(e)
    }
}

/// The `Hello` frame a client opens its session with.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Hello {
    /// Session name. Identifies the session for resume: reconnecting
    /// with the name of a checkpointed session continues it.
    pub session: String,
    /// Opaque engine specification (encoded/decoded by `dp-core`).
    pub spec: Vec<u8>,
    /// Checkpoint the session every this many events (0 = the server's
    /// default policy).
    pub checkpoint_every: u64,
    /// Variable-name table, in id order, so the served report resolves
    /// names exactly like an offline replay of the same trace.
    pub names: Vec<String>,
}

/// One DPSV frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session opening (client → server).
    Hello(Hello),
    /// Session accepted (server → client).
    HelloAck {
        /// Server-assigned session id (unique within the server run).
        session_id: u64,
        /// Events the server has already profiled for this session name
        /// (restored from a checkpoint); the client skips this many.
        resume_from: u64,
    },
    /// A run of consecutive stream events — accesses and control events
    /// mixed, in stream order. The whole event stream travels in these.
    Chunk {
        /// Absolute index of the first event in the session's logical
        /// event stream; event `i` sits at `base + i`. The server skips
        /// any prefix it has already profiled, so resends and duplicates
        /// dedupe exactly.
        base: u64,
        /// The batched events.
        events: Vec<TraceEvent>,
    },
    /// Watermark probe: the server answers with [`Frame::SyncAck`] once
    /// every frame before it has been consumed.
    Sync {
        /// Caller-chosen correlation value.
        nonce: u64,
    },
    /// End of stream; the server finalizes the session and replies with
    /// [`Frame::Report`].
    Finish,
    /// Ask the server for the session's metrics snapshot.
    StatsRequest,
    /// Per-session metrics, JSON-encoded (server → client).
    Stats {
        /// Stable-keyed JSON object.
        json: String,
    },
    /// The rendered dependence report (server → client, after `Finish`).
    Report {
        /// Report text, byte-identical to an offline replay's output.
        text: String,
    },
    /// Terminal failure notice (server → client).
    Error {
        /// One of [`error_code`]'s constants.
        code: u16,
        /// Human-readable description.
        message: String,
    },
    /// Answer to [`Frame::Sync`]: the nonce plus the server's event
    /// position — the durable watermark a retrying client can trust.
    SyncAck {
        /// The `Sync` frame's nonce, for correlation.
        nonce: u64,
        /// Events the server has consumed for this session so far.
        position: u64,
    },
    /// Typed backpressure (server → client): the server is at its
    /// live-session cap; retry the same `Hello` after the hint elapses.
    /// The connection closes after this frame.
    Busy {
        /// Suggested delay before reconnecting, in milliseconds.
        retry_after_ms: u64,
    },
    /// Mid-session analysis snapshot request (client → server, v2).
    /// Answered from the server's incremental analysis state with a
    /// [`Frame::QueryResult`]; never stalls the event feed.
    Query {
        /// Caller-chosen correlation value, echoed in the result.
        id: u64,
        /// One of [`query_kind`]'s selectors.
        kind: u8,
    },
    /// Live analysis snapshot (server → client, v2).
    QueryResult {
        /// The `Query` frame's correlation id.
        id: u64,
        /// The selector the snapshot answers (echoed).
        kind: u8,
        /// The requested report sections as a JSON object.
        json: String,
    },
}

fn get_string(r: &mut ByteReader<'_>) -> Result<String, WireError> {
    String::from_utf8(r.blob()?.to_vec()).map_err(|_| WireError::Invalid("string is not UTF-8"))
}

impl Frame {
    /// The frame's wire tag.
    pub fn tag(&self) -> u8 {
        match self {
            Frame::Hello(_) => TAG_HELLO,
            Frame::HelloAck { .. } => TAG_HELLO_ACK,
            Frame::Chunk { .. } => TAG_CHUNK,
            Frame::Sync { .. } => TAG_SYNC,
            Frame::Finish => TAG_FINISH,
            Frame::StatsRequest => TAG_STATS_REQUEST,
            Frame::Stats { .. } => TAG_STATS,
            Frame::Report { .. } => TAG_REPORT,
            Frame::Error { .. } => TAG_ERROR,
            Frame::SyncAck { .. } => TAG_SYNC_ACK,
            Frame::Busy { .. } => TAG_BUSY,
            Frame::Query { .. } => TAG_QUERY,
            Frame::QueryResult { .. } => TAG_QUERY_RESULT,
        }
    }

    /// Length of [`Frame::encode_payload`]'s output, computed from the
    /// field widths and the event codec's length table without encoding.
    pub fn payload_len(&self) -> usize {
        let blob = |b: &[u8]| 4 + b.len();
        match self {
            Frame::Hello(h) => {
                blob(h.session.as_bytes())
                    + blob(&h.spec)
                    + 8
                    + 4
                    + h.names.iter().map(|n| blob(n.as_bytes())).sum::<usize>()
            }
            Frame::HelloAck { .. } | Frame::SyncAck { .. } => 16,
            Frame::Chunk { events, .. } => {
                12 + events.iter().map(codec::encoded_len).sum::<usize>()
            }
            Frame::Sync { .. } | Frame::Busy { .. } => 8,
            Frame::Finish | Frame::StatsRequest => 0,
            Frame::Stats { json } => blob(json.as_bytes()),
            Frame::Report { text } => blob(text.as_bytes()),
            Frame::Error { message, .. } => 2 + blob(message.as_bytes()),
            Frame::Query { .. } => 9,
            Frame::QueryResult { json, .. } => 9 + blob(json.as_bytes()),
        }
    }

    /// Encodes the payload (everything between the length prefix and the
    /// checksum).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(self.payload_len());
        match self {
            Frame::Hello(h) => {
                w.blob(h.session.as_bytes());
                w.blob(&h.spec);
                w.u64(h.checkpoint_every);
                codec::write_name_table(&mut w, &h.names);
            }
            Frame::HelloAck { session_id, resume_from } => {
                w.u64(*session_id);
                w.u64(*resume_from);
            }
            Frame::Chunk { base, events } => {
                w.u64(*base);
                w.u32(events.len() as u32);
                for ev in events {
                    codec::encode(ev, &mut w);
                }
            }
            Frame::Sync { nonce } => w.u64(*nonce),
            Frame::Finish | Frame::StatsRequest => {}
            Frame::Stats { json } => w.blob(json.as_bytes()),
            Frame::Report { text } => w.blob(text.as_bytes()),
            Frame::Error { code, message } => {
                w.u16(*code);
                w.blob(message.as_bytes());
            }
            Frame::SyncAck { nonce, position } => {
                w.u64(*nonce);
                w.u64(*position);
            }
            Frame::Busy { retry_after_ms } => w.u64(*retry_after_ms),
            Frame::Query { id, kind } => {
                w.u64(*id);
                w.u8(*kind);
            }
            Frame::QueryResult { id, kind, json } => {
                w.u64(*id);
                w.u8(*kind);
                w.blob(json.as_bytes());
            }
        }
        debug_assert_eq!(w.len(), self.payload_len(), "payload_len disagrees with encoding");
        w.into_bytes()
    }

    /// Decodes a frame from its tag and payload. Every malformation is a
    /// typed error; trailing bytes after a well-formed payload are
    /// rejected (a frame is exactly its announced content).
    pub fn decode(tag: u8, payload: &[u8]) -> Result<Frame, ProtocolError> {
        let mut r = ByteReader::new(payload);
        let frame = match tag {
            TAG_HELLO => {
                let session = get_string(&mut r)?;
                let spec = r.blob()?.to_vec();
                let checkpoint_every = r.u64()?;
                let table = codec::read_name_table(&mut r).map_err(|e| match e {
                    NameTableError::Invalid(why) => WireError::Invalid(why),
                    NameTableError::Truncated | NameTableError::Io(_) => WireError::Truncated,
                })?;
                let names = table.names().to_vec();
                Frame::Hello(Hello { session, spec, checkpoint_every, names })
            }
            TAG_HELLO_ACK => Frame::HelloAck { session_id: r.u64()?, resume_from: r.u64()? },
            TAG_CHUNK => {
                let base = r.u64()?;
                let n = r.u32()? as usize;
                if n.saturating_mul(codec::MIN_RECORD_LEN) > r.remaining() {
                    // Reject an impossible count before reserving for it.
                    return Err(WireError::Invalid("event count exceeds payload size").into());
                }
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    events.push(codec::decode(&mut r)?);
                }
                Frame::Chunk { base, events }
            }
            TAG_SYNC => Frame::Sync { nonce: r.u64()? },
            TAG_FINISH => Frame::Finish,
            TAG_STATS_REQUEST => Frame::StatsRequest,
            TAG_STATS => Frame::Stats { json: get_string(&mut r)? },
            TAG_REPORT => Frame::Report { text: get_string(&mut r)? },
            TAG_ERROR => Frame::Error { code: r.u16()?, message: get_string(&mut r)? },
            TAG_SYNC_ACK => Frame::SyncAck { nonce: r.u64()?, position: r.u64()? },
            TAG_BUSY => Frame::Busy { retry_after_ms: r.u64()? },
            TAG_QUERY => Frame::Query { id: r.u64()?, kind: r.u8()? },
            TAG_QUERY_RESULT => {
                Frame::QueryResult { id: r.u64()?, kind: r.u8()?, json: get_string(&mut r)? }
            }
            tag => return Err(ProtocolError::UnknownFrame { tag }),
        };
        if !r.is_done() {
            return Err(WireError::Invalid("trailing bytes after frame payload").into());
        }
        Ok(frame)
    }
}

/// Writes the connection preamble (`DPSV` + version).
pub fn write_preamble(w: &mut impl Write) -> io::Result<()> {
    w.write_all(&PROTOCOL_MAGIC)?;
    w.write_all(&[PROTOCOL_VERSION])
}

/// Reads and validates the peer's preamble.
pub fn read_preamble(r: &mut impl Read) -> Result<(), ProtocolError> {
    let mut hdr = [0u8; 5];
    r.read_exact(&mut hdr).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtocolError::Wire(WireError::Truncated)
        } else {
            ProtocolError::Io(e)
        }
    })?;
    if hdr[..4] != PROTOCOL_MAGIC {
        return Err(ProtocolError::BadMagic);
    }
    if hdr[4] != PROTOCOL_VERSION {
        return Err(ProtocolError::UnsupportedVersion(hdr[4]));
    }
    Ok(())
}

/// Writes one frame (section framing + checksum) to the stream.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), ProtocolError> {
    let payload = frame.encode_payload();
    let mut out = ByteWriter::new();
    write_section(&mut out, frame.tag(), &payload);
    w.write_all(&out.into_bytes())?;
    Ok(())
}

/// Reads one frame from the stream, bounding the payload at `max_bytes`.
///
/// Returns `Ok(None)` on a clean end-of-stream (EOF at a frame
/// boundary); EOF inside a frame is a typed
/// [`WireError::Truncated`] — the network analogue of the trace
/// format's torn-record classification.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> Result<Option<Frame>, ProtocolError> {
    let mut head = [0u8; 5];
    match r.read_exact(&mut head[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    read_mid_frame(r, &mut head, max_bytes).map(Some)
}

/// Reads the remainder of a frame whose tag byte was already consumed —
/// for servers that poll the first byte with a read timeout (to observe
/// a shutdown flag between frames) and then finish the frame blocking.
pub fn resume_frame(r: &mut impl Read, tag: u8, max_bytes: usize) -> Result<Frame, ProtocolError> {
    let mut head = [0u8; 5];
    head[0] = tag;
    read_mid_frame(r, &mut head, max_bytes)
}

fn read_mid_frame(
    r: &mut impl Read,
    head: &mut [u8; 5],
    max_bytes: usize,
) -> Result<Frame, ProtocolError> {
    let eof_is_torn = |e: io::Error| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtocolError::Wire(WireError::Truncated)
        } else {
            ProtocolError::Io(e)
        }
    };
    r.read_exact(&mut head[1..]).map_err(eof_is_torn)?;
    let tag = head[0];
    let len = u32::from_le_bytes(head[1..].try_into().unwrap()) as usize;
    let max = MAX_FRAME_BYTES.min(max_bytes.max(1));
    if len > max {
        return Err(ProtocolError::FrameTooLarge { len, max });
    }
    let mut body = vec![0u8; len + 1]; // payload + checksum byte
    r.read_exact(&mut body).map_err(eof_is_torn)?;
    // Re-assemble the section and run it through the shared validator so
    // frame and checkpoint-section corruption take the same code path.
    let mut section = ByteWriter::new();
    section.u8(tag);
    section.u32(len as u32);
    section.bytes(&body);
    let bytes = section.into_bytes();
    let mut reader = ByteReader::new(&bytes);
    let (tag, payload) = read_section(&mut reader)?;
    Frame::decode(tag, payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::MemAccess;
    use crate::loc::loc;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello(Hello {
                session: "sess-1".into(),
                spec: vec![1, 2, 3],
                checkpoint_every: 1000,
                names: vec!["*".into(), "alpha".into()],
            }),
            Frame::HelloAck { session_id: 42, resume_from: 12_345 },
            Frame::Chunk {
                base: 1_000_000,
                events: vec![
                    TraceEvent::LoopBegin { loop_id: 3, loc: loc(1, 10), thread: 0, ts: 1 },
                    TraceEvent::LoopIter { loop_id: 3, iter: 9, thread: 0, ts: 2 },
                    TraceEvent::Access(MemAccess::write(0xdead_beef, 3, loc(2, 60), 7, 1)),
                    TraceEvent::Access(MemAccess::read(0xdead_beef, 4, loc(2, 61), 7, 2)),
                    TraceEvent::CallBegin { func: 5, thread: 1, ts: 4 },
                    TraceEvent::CallEnd { func: 5, thread: 1, ts: 5 },
                    TraceEvent::Dealloc { base: 0x100, len: 64, thread: 0, ts: 6 },
                    TraceEvent::LoopEnd {
                        loop_id: 3,
                        loc: loc(1, 20),
                        iters: 10,
                        thread: 0,
                        ts: 3,
                    },
                ],
            },
            Frame::Chunk { base: 0, events: Vec::new() },
            Frame::Sync { nonce: 7 },
            Frame::Finish,
            Frame::StatsRequest,
            Frame::Stats { json: "{\"events\":1}".into() },
            Frame::Report { text: "BGN loop ...".into() },
            Frame::Error { code: error_code::AT_CAPACITY, message: "server full".into() },
            Frame::SyncAck { nonce: 7, position: 1_000_002 },
            Frame::Busy { retry_after_ms: 250 },
            Frame::Query { id: 9, kind: query_kind::ALL },
            Frame::QueryResult { id: 9, kind: query_kind::LOOPS, json: "{\"loops\":[]}".into() },
        ]
    }

    #[test]
    fn every_frame_roundtrips() {
        let mut buf = Vec::new();
        write_preamble(&mut buf).unwrap();
        for f in sample_frames() {
            assert_eq!(f.payload_len(), f.encode_payload().len(), "{f:?}");
            write_frame(&mut buf, &f).unwrap();
        }
        let mut r = &buf[..];
        read_preamble(&mut r).unwrap();
        for expect in sample_frames() {
            let got = read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap();
            assert_eq!(got, expect);
        }
        assert!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn preamble_rejects_wrong_magic_and_version() {
        assert!(matches!(read_preamble(&mut &b"DPCK\x01"[..]), Err(ProtocolError::BadMagic)));
        // A v2 peer would still send per-event LoopEvent frames.
        assert!(matches!(
            read_preamble(&mut &b"DPSV\x02"[..]),
            Err(ProtocolError::UnsupportedVersion(2))
        ));
        assert!(matches!(
            read_preamble(&mut &b"DPSV\x09"[..]),
            Err(ProtocolError::UnsupportedVersion(9))
        ));
        assert!(matches!(
            read_preamble(&mut &b"DP"[..]),
            Err(ProtocolError::Wire(WireError::Truncated))
        ));
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.push(TAG_CHUNK);
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let got = read_frame(&mut &buf[..], 1024);
        assert!(matches!(got, Err(ProtocolError::FrameTooLarge { max: 1024, .. })), "{got:?}");
    }

    #[test]
    fn truncation_inside_a_frame_is_typed() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::Sync { nonce: 1 }).unwrap();
        for cut in 1..buf.len() {
            let got = read_frame(&mut &buf[..cut], MAX_FRAME_BYTES);
            assert!(
                matches!(got, Err(ProtocolError::Wire(WireError::Truncated))),
                "cut at {cut}: {got:?}"
            );
        }
    }

    #[test]
    fn bit_flips_fail_checksum_or_typed() {
        let mut clean = Vec::new();
        let chunk = Frame::Chunk {
            base: 0,
            events: vec![TraceEvent::Access(MemAccess::read(8, 1, loc(1, 1), 0, 0))],
        };
        write_frame(&mut clean, &chunk).unwrap();
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x20;
            // Never a panic; always a typed error or (for a tag flip that
            // still checksums, impossible here) a different frame.
            let _ = read_frame(&mut &bad[..], MAX_FRAME_BYTES);
        }
        // Payload flips specifically must be caught by the checksum.
        let mut bad = clean.clone();
        bad[6] ^= 0x01;
        assert!(matches!(
            read_frame(&mut &bad[..], MAX_FRAME_BYTES),
            Err(ProtocolError::Wire(WireError::Checksum { .. }))
        ));
    }

    #[test]
    fn impossible_event_count_is_rejected_before_allocation() {
        let mut w = ByteWriter::new();
        w.u64(0);
        w.u32(u32::MAX);
        let got = Frame::decode(TAG_CHUNK, w.as_bytes());
        assert!(matches!(got, Err(ProtocolError::Wire(WireError::Invalid(_)))), "{got:?}");
    }

    #[test]
    fn unknown_tag_is_typed() {
        // Tag 4 is v2's retired LoopEvent: sequence number + one record.
        let mut loop_event = ByteWriter::new();
        loop_event.u64(11);
        codec::encode(&TraceEvent::CallBegin { func: 5, thread: 1, ts: 4 }, &mut loop_event);
        for (tag, payload) in [(4, loop_event.as_bytes()), (200, b"whatever")] {
            let mut out = ByteWriter::new();
            write_section(&mut out, tag, payload);
            let got = read_frame(&mut &out.into_bytes()[..], MAX_FRAME_BYTES);
            assert!(
                matches!(got, Err(ProtocolError::UnknownFrame { tag: t }) if t == tag),
                "{got:?}"
            );
        }
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut payload = Frame::Sync { nonce: 3 }.encode_payload();
        payload.push(0);
        assert!(matches!(
            Frame::decode(TAG_SYNC, &payload),
            Err(ProtocolError::Wire(WireError::Invalid(_)))
        ));
    }
}
