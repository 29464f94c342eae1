//! The wire protocol: length-prefixed binary frames over a byte stream.
//!
//! Every frame is `[magic "SWPC"][u32 LE payload length][payload]`; the
//! payload starts with a message kind and a protocol version. Encoding is
//! hand-rolled (no serde in this workspace) and the decoder is written
//! for *adversarial* input: every length is bounds-checked against the
//! bytes actually present before anything is allocated, strings are
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

use showdown::{OptLevel, VerifyLevel};
use swp_ir::{ArrayId, ArrayInfo, Loop, MemAccess, Op, OpId, Operand, Sem, ValueId, ValueInfo};
use swp_machine::{OpClass, RegClass};

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SWPC";

/// Protocol version carried in every payload.
pub const VERSION: u8 = 1;

/// Hard ceiling on a frame's payload size. A length prefix above this is
/// rejected *before* any allocation — the memory-bomb guard.
pub const MAX_FRAME: usize = 8 << 20;

/// Hard ceiling on any single string on the wire.
pub const MAX_STR: usize = 4096;

/// 64-bit FNV-1a, the workspace's stable hash. Used for store checksums
/// and code fingerprints; must never change across versions that share a
/// store directory (the record format version covers evolution).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

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
    /// The ILP scheduler with quick budgets (demotable under load).
    Ilp,
    /// The CDCL SAT scheduler with quick budgets (demotable under load).
    Sat,
    /// Race ILP, SAT, and the heuristic; fixed-priority winner. The
    /// race outcome is deterministic, so results are cacheable.
    Portfolio,
}

impl WireChoice {
    // Wire encoding is the position in this array; new choices must be
    // appended so existing clients' indices stay stable.
    const ALL: [WireChoice; 5] = [
        WireChoice::Ladder,
        WireChoice::Heuristic,
        WireChoice::Ilp,
        WireChoice::Sat,
        WireChoice::Portfolio,
    ];
}

/// A batch of loops one client submits in a single frame.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestBatch {
    /// Client-chosen id, echoed in the response.
    pub batch_id: u64,
    /// Client name; the admission token bucket is keyed by it.
    pub client: String,
    /// Per-loop wall-clock deadline in milliseconds; 0 = none. Deadline
    /// results are never memoized or persisted (they are host-dependent).
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
// Encoding

/// Little-endian byte sink for payloads.
#[derive(Default)]
pub(crate) struct Enc {
    pub(crate) buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn str(&mut self, s: &str) {
        debug_assert!(s.len() <= MAX_STR);
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader over a payload.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated(what));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, what: &'static str) -> Result<u8, ProtoError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn bool(&mut self, what: &'static str) -> Result<bool, ProtoError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(ProtoError::Malformed(format!("bad bool {v} in {what}"))),
        }
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self, what: &'static str) -> Result<i64, ProtoError> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// A count of items each at least `min_item_bytes` long. Checking the
    /// count against the bytes actually present makes a forged
    /// billion-element prefix fail *before* `Vec::with_capacity`.
    pub(crate) fn count(
        &mut self,
        min_item_bytes: usize,
        what: &'static str,
    ) -> Result<usize, ProtoError> {
        let n = self.u32(what)? as usize;
        if n.saturating_mul(min_item_bytes.max(1)) > self.remaining() {
            return Err(ProtoError::Malformed(format!(
                "count {n} in {what} exceeds the {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(n)
    }

    pub(crate) fn str(&mut self, what: &'static str) -> Result<String, ProtoError> {
        let n = self.u32(what)? as usize;
        if n > MAX_STR {
            return Err(ProtoError::Malformed(format!(
                "string of {n} bytes in {what} exceeds the {MAX_STR}-byte cap"
            )));
        }
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ProtoError::Malformed(format!("non-UTF-8 string in {what}")))
    }

    pub(crate) fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(ProtoError::TrailingBytes(self.remaining()))
        }
    }
}

fn enc_opt_u32(e: &mut Enc, v: Option<u32>) {
    match v {
        None => e.u8(0),
        Some(x) => {
            e.u8(1);
            e.u32(x);
        }
    }
}

fn dec_opt_u32(d: &mut Dec, what: &'static str) -> Result<Option<u32>, ProtoError> {
    match d.u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(d.u32(what)?)),
        v => Err(ProtoError::Malformed(format!(
            "bad option tag {v} in {what}"
        ))),
    }
}

fn enc_loop(e: &mut Enc, lp: &Loop) {
    e.str(lp.name());
    e.u32(lp.ops().len() as u32);
    for op in lp.ops() {
        let class = OpClass::ALL.iter().position(|c| *c == op.class).unwrap();
        let sem = SEM_ALL.iter().position(|s| *s == op.sem).unwrap();
        e.u8(class as u8);
        e.u8(sem as u8);
        enc_opt_u32(e, op.result.map(|v| v.0));
        e.u32(op.operands.len() as u32);
        for operand in &op.operands {
            e.u32(operand.value.0);
            e.u32(operand.distance);
        }
        match op.mem {
            None => e.u8(0),
            Some(m) => {
                e.u8(1);
                e.u32(m.array.0);
                e.i64(m.offset);
                e.i64(m.stride);
                e.bool(m.indirect);
            }
        }
    }
    e.u32(lp.values().len() as u32);
    for v in lp.values() {
        let class = RegClass::ALL.iter().position(|c| *c == v.class).unwrap();
        e.u8(class as u8);
        enc_opt_u32(e, v.def.map(|d| d.0));
        e.str(&v.name);
        match v.literal {
            None => e.u8(0),
            Some(bits) => {
                e.u8(1);
                e.u64(bits);
            }
        }
    }
    e.u32(lp.arrays().len() as u32);
    for a in lp.arrays() {
        e.str(&a.name);
        e.u32(a.elem_bytes);
        e.u64(a.base_align);
    }
}

/// `Sem` variants in wire order. Appending is fine; reordering is a
/// protocol version bump.
const SEM_ALL: [Sem; 11] = [
    Sem::Add,
    Sem::Sub,
    Sem::Mul,
    Sem::Div,
    Sem::Sqrt,
    Sem::Madd,
    Sem::Lt,
    Sem::Select,
    Sem::Copy,
    Sem::Load,
    Sem::Store,
];

fn dec_loop(d: &mut Dec) -> Result<Loop, ProtoError> {
    let name = d.str("loop.name")?;
    let n_ops = d.count(8, "loop.ops")?;
    let mut ops = Vec::with_capacity(n_ops);
    for i in 0..n_ops {
        let class_idx = d.u8("op.class")? as usize;
        let class = *OpClass::ALL
            .get(class_idx)
            .ok_or_else(|| ProtoError::Malformed(format!("bad op class {class_idx}")))?;
        let sem_idx = d.u8("op.sem")? as usize;
        let sem = *SEM_ALL
            .get(sem_idx)
            .ok_or_else(|| ProtoError::Malformed(format!("bad op sem {sem_idx}")))?;
        let result = dec_opt_u32(d, "op.result")?.map(ValueId);
        let n_operands = d.count(8, "op.operands")?;
        let mut operands = Vec::with_capacity(n_operands);
        for _ in 0..n_operands {
            let value = ValueId(d.u32("operand.value")?);
            let distance = d.u32("operand.distance")?;
            operands.push(Operand { value, distance });
        }
        let mem = match d.u8("op.mem")? {
            0 => None,
            1 => Some(MemAccess {
                array: ArrayId(d.u32("mem.array")?),
                offset: d.i64("mem.offset")?,
                stride: d.i64("mem.stride")?,
                indirect: d.bool("mem.indirect")?,
            }),
            v => return Err(ProtoError::Malformed(format!("bad mem tag {v}"))),
        };
        ops.push(Op {
            id: OpId(i as u32),
            class,
            sem,
            result,
            operands,
            mem,
        });
    }
    let n_values = d.count(7, "loop.values")?;
    let mut values = Vec::with_capacity(n_values);
    for _ in 0..n_values {
        let class_idx = d.u8("value.class")? as usize;
        let class = *RegClass::ALL
            .get(class_idx)
            .ok_or_else(|| ProtoError::Malformed(format!("bad reg class {class_idx}")))?;
        let def = dec_opt_u32(d, "value.def")?.map(OpId);
        let name = d.str("value.name")?;
        let literal = match d.u8("value.literal")? {
            0 => None,
            1 => Some(d.u64("value.literal")?),
            v => return Err(ProtoError::Malformed(format!("bad literal tag {v}"))),
        };
        values.push(ValueInfo {
            class,
            def,
            name,
            literal,
        });
    }
    let n_arrays = d.count(16, "loop.arrays")?;
    let mut arrays = Vec::with_capacity(n_arrays);
    for _ in 0..n_arrays {
        let name = d.str("array.name")?;
        let elem_bytes = d.u32("array.elem_bytes")?;
        let base_align = d.u64("array.base_align")?;
        arrays.push(ArrayInfo {
            name,
            elem_bytes,
            base_align,
        });
    }
    Loop::from_raw_parts(name, ops, values, arrays).map_err(ProtoError::Malformed)
}

pub(crate) fn enc_loop_ok(e: &mut Enc, ok: &LoopOk) {
    enc_opt_u32(e, ok.rung.map(u32::from));
    e.u8(ok.demotion);
    e.u32(ok.ii);
    e.u32(ok.min_ii);
    e.bool(ok.optimal);
    e.bool(ok.fell_back);
    e.u32(ok.spills);
    e.u64(ok.search_effort);
    e.u64(ok.pivots);
    e.u64(ok.code_fp);
    e.u32(ok.diagnostics.len() as u32);
    for line in &ok.diagnostics {
        e.str(line);
    }
}

pub(crate) fn dec_loop_ok(d: &mut Dec) -> Result<LoopOk, ProtoError> {
    let rung = match dec_opt_u32(d, "ok.rung")? {
        None => None,
        Some(r) if r <= u8::MAX as u32 => Some(r as u8),
        Some(r) => return Err(ProtoError::Malformed(format!("bad rung {r}"))),
    };
    let demotion = d.u8("ok.demotion")?;
    let ii = d.u32("ok.ii")?;
    let min_ii = d.u32("ok.min_ii")?;
    let optimal = d.bool("ok.optimal")?;
    let fell_back = d.bool("ok.fell_back")?;
    let spills = d.u32("ok.spills")?;
    let search_effort = d.u64("ok.search_effort")?;
    let pivots = d.u64("ok.pivots")?;
    let code_fp = d.u64("ok.code_fp")?;
    let n = d.count(4, "ok.diagnostics")?;
    let mut diagnostics = Vec::with_capacity(n);
    for _ in 0..n {
        diagnostics.push(d.str("ok.diagnostic")?);
    }
    Ok(LoopOk {
        rung,
        demotion,
        ii,
        min_ii,
        optimal,
        fell_back,
        spills,
        search_effort,
        pivots,
        code_fp,
        diagnostics,
    })
}

/// Encode a [`LoopOk`] standalone — the disk store's record payload.
pub fn encode_result(ok: &LoopOk) -> Vec<u8> {
    let mut e = Enc::default();
    enc_loop_ok(&mut e, ok);
    e.buf
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

fn level3(tag: u8) -> Result<u8, ProtoError> {
    if tag <= 2 {
        Ok(tag)
    } else {
        Err(ProtoError::Malformed(format!("bad level tag {tag}")))
    }
}

/// Serialize a message into a complete frame (header included).
pub fn encode_message(msg: &Message) -> Vec<u8> {
    let mut e = Enc::default();
    match msg {
        Message::Request(req) => {
            e.u8(KIND_REQUEST);
            e.u8(VERSION);
            e.u64(req.batch_id);
            e.str(&req.client);
            e.u32(req.deadline_ms);
            e.u8(WireChoice::ALL
                .iter()
                .position(|c| *c == req.choice)
                .unwrap() as u8);
            e.u8(match req.opt {
                OptLevel::Off => 0,
                OptLevel::Basic => 1,
                OptLevel::Full => 2,
            });
            e.u8(match req.verify {
                VerifyLevel::Off => 0,
                VerifyLevel::Schedule => 1,
                VerifyLevel::Full => 2,
            });
            e.u32(req.loops.len() as u32);
            for lp in &req.loops {
                enc_loop(&mut e, lp);
            }
        }
        Message::Response(resp) => {
            e.u8(KIND_RESPONSE);
            e.u8(VERSION);
            e.u64(resp.batch_id);
            e.u32(resp.results.len() as u32);
            for r in &resp.results {
                e.str(&r.name);
                match &r.outcome {
                    Ok(ok) => {
                        e.u8(0);
                        enc_loop_ok(&mut e, ok);
                    }
                    Err(msg) => {
                        e.u8(1);
                        e.str(msg);
                    }
                }
            }
        }
        Message::Error(msg) => {
            e.u8(KIND_ERROR);
            e.u8(VERSION);
            e.str(msg);
        }
    }
    let mut frame = Vec::with_capacity(8 + e.buf.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&(e.buf.len() as u32).to_le_bytes());
    frame.extend_from_slice(&e.buf);
    frame
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
        KIND_REQUEST => {
            let batch_id = d.u64("req.batch_id")?;
            let client = d.str("req.client")?;
            let deadline_ms = d.u32("req.deadline_ms")?;
            let choice = *WireChoice::ALL
                .get(d.u8("req.choice")? as usize)
                .ok_or_else(|| ProtoError::Malformed("bad scheduler choice".into()))?;
            let opt = match level3(d.u8("req.opt")?)? {
                0 => OptLevel::Off,
                1 => OptLevel::Basic,
                _ => OptLevel::Full,
            };
            let verify = match level3(d.u8("req.verify")?)? {
                0 => VerifyLevel::Off,
                1 => VerifyLevel::Schedule,
                _ => VerifyLevel::Full,
            };
            let n = d.count(4, "req.loops")?;
            let mut loops = Vec::with_capacity(n);
            for _ in 0..n {
                loops.push(dec_loop(&mut d)?);
            }
            Message::Request(RequestBatch {
                batch_id,
                client,
                deadline_ms,
                choice,
                opt,
                verify,
                loops,
            })
        }
        KIND_RESPONSE => {
            let batch_id = d.u64("resp.batch_id")?;
            let n = d.count(5, "resp.results")?;
            let mut results = Vec::with_capacity(n);
            for _ in 0..n {
                let name = d.str("reply.name")?;
                let outcome = match d.u8("reply.status")? {
                    0 => Ok(dec_loop_ok(&mut d)?),
                    1 => Err(d.str("reply.error")?),
                    v => {
                        return Err(ProtoError::Malformed(format!("bad reply status {v}")));
                    }
                };
                results.push(LoopReply { name, outcome });
            }
            Message::Response(ResponseBatch { batch_id, results })
        }
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
/// the stream quietly with `Ok(None)`.
pub(crate) fn read_frame(
    r: &mut impl Read,
    shutdown: Option<&AtomicBool>,
) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut header = [0u8; 8];
    match read_full(r, &mut header, shutdown)? {
        FullRead::Complete => {}
        FullRead::CleanEof | FullRead::Shutdown => return Ok(None),
        FullRead::MidEof { got } => {
            return Err(ProtoError::MidFrameEof { got, want: 8 - got });
        }
    }
    read_payload_after_header(r, &header, shutdown).map(Some)
}

/// Validate a frame header and read the payload it promises. A shutdown
/// seen mid-payload is an error: the peer still owed the rest.
fn read_payload_after_header(
    r: &mut impl Read,
    header: &[u8; 8],
    shutdown: Option<&AtomicBool>,
) -> Result<Vec<u8>, ProtoError> {
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
        FullRead::Complete => Ok(payload),
        FullRead::CleanEof => Err(ProtoError::MidFrameEof { got: 0, want: len }),
        FullRead::MidEof { got } => Err(ProtoError::MidFrameEof {
            got,
            want: len - got,
        }),
        FullRead::Shutdown => Err(ProtoError::Io("server shutting down".into())),
    }
}

/// Outcome of trying to fill a buffer from a stream.
enum FullRead {
    /// Buffer filled.
    Complete,
    /// Zero bytes then EOF.
    CleanEof,
    /// Some bytes then EOF.
    MidEof { got: usize },
    /// The shutdown flag was set before the buffer filled.
    Shutdown,
}

/// Fill `buf` from `r`. Without a `shutdown` flag a read timeout is a
/// [`ProtoError::Io`] error — a client's bound on a silent server. With
/// one, a timeout just re-checks the flag and re-arms the read, so a
/// slow peer is fine and a dead one is bounded by shutdown.
fn read_full(
    r: &mut impl Read,
    buf: &mut [u8],
    shutdown: Option<&AtomicBool>,
) -> Result<FullRead, ProtoError> {
    let mut got = 0;
    while got < buf.len() {
        if shutdown.is_some_and(|f| f.load(Ordering::SeqCst)) {
            return Ok(FullRead::Shutdown);
        }
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Ok(if got == 0 {
                    FullRead::CleanEof
                } else {
                    FullRead::MidEof { got }
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e)
                if shutdown.is_some()
                    && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(FullRead::Complete)
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
