//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! Every frame is `[magic "SWPC"][u32 LE payload length][payload]`; the
//! payload starts with a message kind and a protocol version. Fields are
//! written in the workspace's one byte format ([`showdown::codec`]): a
//! request's loops are the same canonical body the schedule-cache key
//! hashes, followed by their names, so the key of a decoded loop is the
//! key of the loop the client sent. The decoder is written for
//! *adversarial* input: every length is bounds-checked against the bytes
//! actually present before anything is allocated, strings are
//! size-capped, enums reject out-of-range tags, and decoded loops pass
//! through [`Loop::from_raw_parts`] so a hostile client cannot construct
//! a structurally invalid body. A malformed frame yields a structured
//! [`ProtoError`] — never a panic — because the server's contract is
//! that a bad client must not take the service down.
//!
//! Volatile fields (nanosecond timings, thread counts) are deliberately
//! *absent* from [`LoopOk`]: a reply served from the disk store must be
//! bit-identical to the reply a cold compile would have produced, and
//! any host-dependent field would break that equation.

use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};

use showdown::codec::{decode_loop, encode_loop, Dec, DecodeError, Sink, Tag};
use showdown::{OptLevel, VerifyLevel};
use swp_ir::Loop;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SWPC";

/// Protocol version carried in every payload. Version 2 writes each loop
/// as the shared codec's canonical body followed by its names.
pub const VERSION: u8 = 2;

/// Hard ceiling on a frame's payload size. A length prefix above this is
/// rejected *before* any allocation — the memory-bomb guard.
pub const MAX_FRAME: usize = 8 << 20;

/// Why a frame or payload failed to decode. Every variant is a protocol
/// outcome, not a crash: the server reports it and keeps serving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Underlying transport error.
    Io(String),
    /// The stream ended inside a frame (header or payload cut short).
    /// Clean EOF *between* frames is not an error — `read_message`
    /// returns `Ok(None)` for that.
    MidFrameEof {
        /// Bytes obtained before the stream ended.
        got: usize,
        /// Bytes the frame still owed.
        want: usize,
    },
    /// The frame did not start with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The length prefix exceeded [`MAX_FRAME`].
    Oversized(usize),
    /// Unknown protocol version.
    BadVersion(u8),
    /// Unknown message kind.
    BadKind(u8),
    /// The payload ended before a field it promised.
    Truncated(&'static str),
    /// A field decoded but made no sense (bad enum tag, string cap,
    /// loop-structure violation, …).
    Malformed(String),
    /// Bytes remained after the last field of the payload.
    TrailingBytes(usize),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(m) => write!(f, "io error: {m}"),
            ProtoError::MidFrameEof { got, want } => {
                write!(
                    f,
                    "stream ended mid-frame ({got} bytes read, {want} more owed)"
                )
            }
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            ProtoError::Oversized(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte cap")
            }
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::BadKind(k) => write!(f, "unknown message kind {k}"),
            ProtoError::Truncated(what) => write!(f, "payload truncated at {what}"),
            ProtoError::Malformed(m) => write!(f, "malformed payload: {m}"),
            ProtoError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> ProtoError {
        match e {
            DecodeError::Truncated(what) => ProtoError::Truncated(what),
            DecodeError::Malformed(m) => ProtoError::Malformed(m),
            DecodeError::TrailingBytes(n) => ProtoError::TrailingBytes(n),
        }
    }
}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> ProtoError {
        ProtoError::Io(e.to_string())
    }
}

/// Scheduler the client asks for. The ladder is the service default; the
/// direct choices exist for experiments that bypass degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireChoice {
    /// The full degradation ladder (ILP → SAT → heuristic → escalated →
    /// sequential), subject to admission-control demotion.
    Ladder,
    /// The heuristic pipeliner only.
    Heuristic,
    /// The ILP scheduler with default budgets (demotable under load).
    Ilp,
    /// The CDCL SAT scheduler with default budgets (demotable under load).
    Sat,
    /// Race ILP, SAT, and the heuristic; fixed-priority winner. The
    /// race outcome is deterministic, so results are cacheable.
    Portfolio,
}

// The wire tag is the position in this table; new choices must be
// appended so existing clients' tags stay stable.
impl Tag for WireChoice {
    const ALL: &'static [Self] = &[
        WireChoice::Ladder,
        WireChoice::Heuristic,
        WireChoice::Ilp,
        WireChoice::Sat,
        WireChoice::Portfolio,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// A batch of loops one client submits in a single frame.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestBatch {
    /// Client-chosen id, echoed in the response.
    pub batch_id: u64,
    /// Client name; the admission token bucket is keyed by it.
    pub client: String,
    /// Per-loop wall-clock deadline in milliseconds; 0 = none. Each loop
    /// gets one deadline, counted from when its compile is looked up and
    /// shared by the opt stage and every optimal backend the choice runs.
    /// It is not part of the cache key, so a loop already compiled is
    /// answered whatever the deadline. A result the deadline cut short is
    /// never memoized or persisted (it is host-dependent).
    pub deadline_ms: u32,
    /// Which scheduler to run.
    pub choice: WireChoice,
    /// Mid-end optimization level.
    pub opt: OptLevel,
    /// Audit level of the compile.
    pub verify: VerifyLevel,
    /// The loop bodies to compile.
    pub loops: Vec<Loop>,
}

/// A successful per-loop compile result. See the module docs for why no
/// timing field appears here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopOk {
    /// Degradation-ladder rung that produced the code; `None` for direct
    /// (non-ladder) compiles.
    pub rung: Option<u8>,
    /// Admission demotion level the request was compiled under.
    pub demotion: u8,
    /// Achieved initiation interval.
    pub ii: u32,
    /// MinII bound of the body.
    pub min_ii: u32,
    /// Whether rate-optimality at MinII was certified.
    pub optimal: bool,
    /// Whether the ILP path fell back to the heuristic.
    pub fell_back: bool,
    /// Values spilled.
    pub spills: u32,
    /// Branch-and-bound nodes (ILP) or backtracks (heuristic).
    pub search_effort: u64,
    /// Simplex pivots across all solves.
    pub pivots: u64,
    /// Stable fingerprint of the emitted code (schedule, kernel,
    /// prologue/epilogue, register usage). Two replies with equal
    /// fingerprints denote bit-identical code — the kill-and-restart
    /// test's equality witness.
    pub code_fp: u64,
    /// The ladder's attempt trace, one rendered line per rung.
    pub diagnostics: Vec<String>,
}

/// One loop's outcome inside a response batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopReply {
    /// Loop name, echoed from the request.
    pub name: String,
    /// The compile outcome; `Err` carries the rendered [`showdown::CompileError`].
    pub outcome: Result<LoopOk, String>,
}

/// The server's answer to a [`RequestBatch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseBatch {
    /// Echo of the request's batch id.
    pub batch_id: u64,
    /// One reply per requested loop, in request order.
    pub results: Vec<LoopReply>,
}

/// Any frame either peer can send.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client → server.
    Request(RequestBatch),
    /// Server → client.
    Response(ResponseBatch),
    /// Server → client: the previous frame could not be decoded. The
    /// server closes the connection after sending this (framing may be
    /// lost), but the *server* stays up.
    Error(String),
}

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_ERROR: u8 = 3;

// ---------------------------------------------------------------------------
// Encoding: the shared codec (`showdown::codec`) into a `Vec<u8>`.

fn enc_loop_ok(e: &mut Vec<u8>, ok: &LoopOk) {
    e.opt(ok.rung, Sink::u8);
    e.u8(ok.demotion);
    e.u32(ok.ii);
    e.u32(ok.min_ii);
    e.bool(ok.optimal);
    e.bool(ok.fell_back);
    e.u32(ok.spills);
    e.u64(ok.search_effort);
    e.u64(ok.pivots);
    e.u64(ok.code_fp);
    e.list(&ok.diagnostics, |e, line| e.str(line));
}

fn dec_loop_ok(d: &mut Dec) -> Result<LoopOk, DecodeError> {
    Ok(LoopOk {
        rung: d.opt("ok.rung", |d| d.u8("ok.rung"))?,
        demotion: d.u8("ok.demotion")?,
        ii: d.u32("ok.ii")?,
        min_ii: d.u32("ok.min_ii")?,
        optimal: d.bool("ok.optimal")?,
        fell_back: d.bool("ok.fell_back")?,
        spills: d.u32("ok.spills")?,
        search_effort: d.u64("ok.search_effort")?,
        pivots: d.u64("ok.pivots")?,
        code_fp: d.u64("ok.code_fp")?,
        diagnostics: d.list(4, "ok.diagnostics", |d, _| d.str("ok.diagnostic"))?,
    })
}

/// Encode a [`LoopOk`] standalone — the disk store's record payload.
pub fn encode_result(ok: &LoopOk) -> Vec<u8> {
    let mut e = Vec::new();
    enc_loop_ok(&mut e, ok);
    e
}

/// Decode a standalone [`LoopOk`] — the disk store's record payload.
///
/// # Errors
///
/// Structured [`ProtoError`] on any malformation; the store maps every
/// such error to "corrupt entry, recompile".
pub fn decode_result(bytes: &[u8]) -> Result<LoopOk, ProtoError> {
    let mut d = Dec::new(bytes);
    let ok = dec_loop_ok(&mut d)?;
    d.finish()?;
    Ok(ok)
}

/// Serialize a message into a complete frame (header included).
pub fn encode_message(msg: &Message) -> Vec<u8> {
    // The header's length is patched in once the payload is written.
    let mut e = Vec::with_capacity(256);
    e.put(&MAGIC);
    e.u32(0);
    match msg {
        Message::Request(req) => {
            e.u8(KIND_REQUEST);
            e.u8(VERSION);
            e.u64(req.batch_id);
            e.str(&req.client);
            e.u32(req.deadline_ms);
            e.tag(req.choice);
            e.tag(req.opt);
            e.tag(req.verify);
            e.list(&req.loops, encode_loop);
        }
        Message::Response(resp) => {
            e.u8(KIND_RESPONSE);
            e.u8(VERSION);
            e.u64(resp.batch_id);
            e.list(&resp.results, |e, r| {
                e.str(&r.name);
                e.bool(r.outcome.is_err());
                match &r.outcome {
                    Ok(ok) => enc_loop_ok(e, ok),
                    Err(msg) => e.str(msg),
                }
            });
        }
        Message::Error(msg) => {
            e.u8(KIND_ERROR);
            e.u8(VERSION);
            e.str(msg);
        }
    }
    let len = (e.len() - 8) as u32;
    e[4..8].copy_from_slice(&len.to_le_bytes());
    e
}

/// Decode one payload (the bytes after the frame header).
///
/// # Errors
///
/// Structured [`ProtoError`]; never panics on any byte sequence.
pub fn decode_payload(payload: &[u8]) -> Result<Message, ProtoError> {
    let mut d = Dec::new(payload);
    let kind = d.u8("kind")?;
    let version = d.u8("version")?;
    if version != VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    let msg = match kind {
        KIND_REQUEST => Message::Request(RequestBatch {
            batch_id: d.u64("req.batch_id")?,
            client: d.str("req.client")?,
            deadline_ms: d.u32("req.deadline_ms")?,
            choice: d.tag("req.choice")?,
            opt: d.tag("req.opt")?,
            verify: d.tag("req.verify")?,
            // A loop is at least its body's three counts and its name.
            loops: d.list(16, "req.loops", |d, _| decode_loop(d))?,
        }),
        KIND_RESPONSE => Message::Response(ResponseBatch {
            batch_id: d.u64("resp.batch_id")?,
            results: d.list(5, "resp.results", |d, _| {
                Ok(LoopReply {
                    name: d.str("reply.name")?,
                    outcome: match d.bool("reply.failed")? {
                        false => Ok(dec_loop_ok(d)?),
                        true => Err(d.str("reply.error")?),
                    },
                })
            })?,
        }),
        KIND_ERROR => Message::Error(d.str("error.message")?),
        k => return Err(ProtoError::BadKind(k)),
    };
    d.finish()?;
    Ok(msg)
}

/// Read one complete message from a blocking stream. Returns `Ok(None)`
/// on clean EOF at a frame boundary; EOF anywhere *inside* a frame is
/// [`ProtoError::MidFrameEof`], and a read timeout set on the stream is
/// [`ProtoError::Io`].
///
/// # Errors
///
/// Structured [`ProtoError`] on transport failure or any malformation.
pub fn read_message(r: &mut impl Read) -> Result<Option<Message>, ProtoError> {
    match read_frame(r, None)? {
        Some(payload) => decode_payload(&payload).map(Some),
        None => Ok(None),
    }
}

/// Read one frame and return its payload, or `Ok(None)` on clean EOF at
/// a frame boundary. The one frame reader, for clients and the server:
/// with a `shutdown` flag, read timeouts are ticks that re-check it (see
/// [`read_full`]), and a flag seen before a header completes also ends
/// the stream quietly with `Ok(None)`. A flag seen mid-payload is an
/// error: the peer still owed the rest.
pub(crate) fn read_frame(
    r: &mut impl Read,
    shutdown: Option<&AtomicBool>,
) -> Result<Option<Vec<u8>>, ProtoError> {
    let stopping = || shutdown.is_some_and(|f| f.load(Ordering::SeqCst));
    let mut header = [0u8; 8];
    match read_full(r, &mut header, shutdown)? {
        8 => {}
        0 => return Ok(None),
        _ if stopping() => return Ok(None),
        got => return Err(ProtoError::MidFrameEof { got, want: 8 - got }),
    }
    let magic: [u8; 4] = header[..4].try_into().unwrap();
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
    if len > MAX_FRAME {
        return Err(ProtoError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    match read_full(r, &mut payload, shutdown)? {
        got if got == len => Ok(Some(payload)),
        _ if stopping() => Err(ProtoError::Io("server shutting down".into())),
        got => Err(ProtoError::MidFrameEof {
            got,
            want: len - got,
        }),
    }
}

/// Fill `buf` from `r` and return how many bytes arrived: `buf.len()`,
/// or fewer if the stream ended or the `shutdown` flag was set first.
/// Without a flag a read timeout is a [`ProtoError::Io`] error — a
/// client's bound on a silent server. With one, a timeout just
/// re-checks the flag and re-arms the read, so a slow peer is fine and
/// a dead one is bounded by shutdown.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    shutdown: Option<&AtomicBool>,
) -> Result<usize, ProtoError> {
    let mut got = 0;
    while got < buf.len() && !shutdown.is_some_and(|f| f.load(Ordering::SeqCst)) {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if shutdown.is_some()
                    && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(got)
}

/// Write one message as a frame.
///
/// # Errors
///
/// [`ProtoError::Io`] on transport failure.
pub fn write_message(w: &mut impl Write, msg: &Message) -> Result<(), ProtoError> {
    let frame = encode_message(msg);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}
