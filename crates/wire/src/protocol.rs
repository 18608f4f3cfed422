//! The length-prefixed binary wire protocol.
//!
//! Every frame is a `u32` little-endian body length followed by the body;
//! the first body byte is the opcode. A session is:
//!
//! ```text
//! client → HELLO("PLSV", VERSION)
//! server → HELLO_OK(VERSION, scheme tag, n)
//! client → BATCH | STATS | TRACE_DUMP | HEALTH | MAP_GET | MAP_SET | LABELS
//! server → the matching reply, at opcode 0x80 | request   (any number, any order)
//! client → GOODBYE
//! server → GOODBYE_OK, close
//! ```
//!
//! Frames are capped at [`MAX_FRAME`] bytes so a hostile length prefix
//! cannot drive an allocation; every parser here returns
//! [`ProtocolError`] on malformed input, never panics.

use std::io::{IoSlice, Read, Write};

use pl_obs::TraceContext;

use crate::stats::Stats;

/// The one protocol version this build speaks. HELLO and HELLO_OK must
/// both carry exactly this byte: a server answers any other offer with
/// an `unsupported protocol version` ERROR and closes, and a client
/// refuses a HELLO_OK claiming any other, so two builds with different
/// frame layouts never misparse each other's frames. Every frame has one
/// layout: `BATCH_REPLY` is always checksummed, `BATCH` may carry the
/// `TRACE_CTX` trailer, `TRACE_DUMP` always carries its flag byte,
/// `STATS_REPLY` carries the server registry's samples ([`Stats`]), and
/// every reply sits at `0x80 | op` of its request. Any change to a frame
/// layout, an opcode or the histogram bucket layout bumps this number.
pub const VERSION: u8 = 9;

/// Handshake magic, first bytes of the HELLO body after the opcode.
pub const MAGIC: [u8; 4] = *b"PLSV";

/// Hard cap on frame body size; larger length prefixes are rejected
/// before any allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Most queries a single BATCH may carry (fits the `u16` count field).
pub const MAX_BATCH: usize = u16::MAX as usize;

/// Tag byte opening the optional `TRACE_CTX` extension trailer on a
/// `BATCH` body (`'T'`).
pub const EXT_TRACE_CTX: u8 = 0x54;

/// Total size of the `TRACE_CTX` trailer: tag byte + 128-bit trace id +
/// 64-bit parent span id.
pub const TRACE_CTX_LEN: usize = 1 + 8 + 8 + 8;

/// Flag bits for the `TRACE_DUMP` flag byte; 0 is the consuming drain.
pub mod trace_dump_flags {
    /// Non-consuming snapshot: the reader watermark stays put, so two
    /// concurrent drainers both see the full stream instead of
    /// splitting it.
    pub const SNAPSHOT: u8 = 0x01;
    /// Every bit a server understands; others are rejected.
    pub const ALL: u8 = SNAPSHOT;
}

/// Frame opcodes. Requests have the high bit clear; each request's
/// reply is `0x80 | op`. `OVERLOADED` and `ERROR` answer no particular
/// request.
pub mod opcode {
    /// Client handshake: magic + version.
    pub const HELLO: u8 = 0x00;
    /// Batched queries.
    pub const BATCH: u8 = 0x01;
    /// Request a metrics snapshot.
    pub const STATS: u8 = 0x02;
    /// Orderly close; server replies `GOODBYE_OK` after draining.
    pub const GOODBYE: u8 = 0x03;
    /// Drain the server's trace rings: reply is `TRACE_REPLY`.
    pub const TRACE_DUMP: u8 = 0x04;
    /// Ask for shard liveness: reply is `HEALTH_REPLY`.
    pub const HEALTH: u8 = 0x05;
    /// Read the peer's current cluster map: reply is `MAP_REPLY`.
    pub const MAP_GET: u8 = 0x06;
    /// Push an epoch-bumped cluster map: prepare, commit, abort, or
    /// shrink-apply. Reply is `MAP_OK`.
    pub const MAP_SET: u8 = 0x07;
    /// Stream full labels for re-owned vertices into a gaining backend
    /// during a rebalance, as vertex ids plus one `PLL2` labeling
    /// container: reply is `LABELS_OK`.
    pub const LABELS: u8 = 0x08;
    /// Handshake accepted: version + scheme tag + vertex count.
    pub const HELLO_OK: u8 = 0x80;
    /// Answers, one per query, in order.
    pub const BATCH_REPLY: u8 = 0x81;
    /// The peer registry's samples, as [`Stats`](crate::stats::Stats).
    pub const STATS_REPLY: u8 = 0x82;
    /// Acknowledges `GOODBYE`; the server closes after sending it.
    pub const GOODBYE_OK: u8 = 0x83;
    /// Drained trace events as UTF-8 JSONL (possibly truncated to the
    /// frame cap at a line boundary).
    pub const TRACE_REPLY: u8 = 0x84;
    /// Shard-liveness report: status byte + per-shard flags.
    pub const HEALTH_REPLY: u8 = 0x85;
    /// The peer's current cluster map, if it has one.
    pub const MAP_REPLY: u8 = 0x86;
    /// Outcome of a `MAP_SET`: status byte + the peer's epoch.
    pub const MAP_OK: u8 = 0x87;
    /// Outcome of a `LABELS` push: status byte + labels received.
    pub const LABELS_OK: u8 = 0x88;
    /// Sent *instead of* `HELLO_OK` when the server sheds the
    /// connection at its cap; the server closes after sending it.
    pub const OVERLOADED: u8 = 0x8E;
    /// Fatal per-connection error, body is a UTF-8 message.
    pub const ERROR: u8 = 0x8F;
}

/// What a single query asks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum QueryKind {
    /// "Is {u, v} an edge?"
    Adjacent = 0,
    /// "What is dist(u, v)?" (bounded-distance schemes only).
    Distance = 1,
}

/// One query in a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    pub kind: QueryKind,
    pub u: u32,
    pub v: u32,
}

impl Query {
    /// An adjacency query.
    #[must_use]
    pub fn adjacent(u: u32, v: u32) -> Self {
        Self {
            kind: QueryKind::Adjacent,
            u,
            v,
        }
    }

    /// A distance query.
    #[must_use]
    pub fn distance(u: u32, v: u32) -> Self {
        Self {
            kind: QueryKind::Distance,
            u,
            v,
        }
    }
}

/// The server's answer to one [`Query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// Adjacency: the pair is not an edge.
    NotAdjacent,
    /// Adjacency: the pair is an edge.
    Adjacent,
    /// Distance: the exact distance.
    Distance(u32),
    /// Distance: beyond the scheme's bound `f` (or disconnected).
    Unreachable,
    /// A vertex id was `≥ n`.
    OutOfRange,
    /// The loaded scheme cannot answer this query kind.
    Unsupported,
    /// A label involved in the query was corrupt; the query fails but
    /// the connection (and server) stay up.
    MalformedLabel,
    /// The server could not serve this query right now (shard-store I/O
    /// error or shedding); the query is safe to retry.
    Overloaded,
    /// A partial (cluster-partitioned) store holds only a stub for one
    /// of the queried vertices and cannot answer locally; a router
    /// should re-ask a replica owning the other endpoint. Retrying the
    /// *same* backend is useless, so this is not
    /// [retryable](Answer::is_retryable).
    NotOwned,
}

impl Answer {
    /// `true` for transient statuses a client may retry verbatim.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self, Self::Overloaded)
    }
}

const ANS_NOT_ADJACENT: u8 = 0;
const ANS_ADJACENT: u8 = 1;
const ANS_DISTANCE: u8 = 2;
const ANS_UNREACHABLE: u8 = 3;
const ANS_NOT_OWNED: u8 = 0xFA;
const ANS_OVERLOADED: u8 = 0xFB;
const ANS_MALFORMED: u8 = 0xFC;
const ANS_OUT_OF_RANGE: u8 = 0xFD;
const ANS_UNSUPPORTED: u8 = 0xFE;

/// Malformed or unexpected wire input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// Length prefix exceeded [`MAX_FRAME`].
    FrameTooLarge(u32),
    /// HELLO magic mismatch.
    BadMagic,
    /// Peer speaks a version this build does not.
    UnsupportedVersion(u8),
    /// Opcode valid but body malformed.
    Malformed(&'static str),
    /// An opcode that makes no sense in the current state.
    UnexpectedOpcode(u8),
    /// A checksummed body failed verification — the frame was
    /// corrupted in flight; safe to retry.
    ChecksumMismatch,
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::FrameTooLarge(len) => write!(f, "frame of {len} bytes exceeds cap {MAX_FRAME}"),
            Self::BadMagic => write!(f, "bad handshake magic"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            Self::Malformed(what) => write!(f, "malformed frame: {what}"),
            Self::UnexpectedOpcode(op) => write!(f, "unexpected opcode {op:#04x}"),
            Self::ChecksumMismatch => write!(f, "reply checksum mismatch (corrupted in flight)"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Writes one frame (length prefix + body) with a single vectored
/// syscall for header + body, continuing on short writes and retrying on
/// `Interrupted`. The body is never copied, and a healthy socket sees
/// one write per frame. Both ends of a connection write through this.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> std::io::Result<()> {
    debug_assert!(body.len() <= MAX_FRAME);
    let len = (body.len() as u32).to_le_bytes();
    let total = 4 + body.len();
    let mut written = 0;
    while written < total {
        let result = if written < 4 {
            w.write_vectored(&[IoSlice::new(&len[written..]), IoSlice::new(body)])
        } else {
            w.write(&body[written - 4..])
        };
        match result {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "failed to write whole frame",
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Blocking read of one frame body. The client reads every reply
/// through this from a buffered stream; the server side uses
/// [`FrameBuffer`] instead so it can poll for shutdown and deadlines.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len as usize > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            ProtocolError::FrameTooLarge(len).to_string(),
        ));
    }
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Incremental frame reassembly for non-blocking reads: feed raw socket
/// bytes with [`push`](Self::push), pull complete frame bodies with
/// [`next_frame_into`](Self::next_frame_into).
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// A fresh, empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Copies the next complete frame body into `out` (cleared first)
    /// and returns `true`, or returns `false` when no full frame has
    /// arrived yet. Reusing one `out` buffer across frames saves the
    /// allocation a `Vec`-returning pop would make per frame.
    pub fn next_frame_into(&mut self, out: &mut Vec<u8>) -> Result<bool, ProtocolError> {
        if self.buf.len() < 4 {
            return Ok(false);
        }
        let len = crate::bytes::le_u32(&self.buf[..4]);
        if len as usize > MAX_FRAME {
            return Err(ProtocolError::FrameTooLarge(len));
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(false);
        }
        out.clear();
        out.extend_from_slice(&self.buf[4..total]);
        self.buf.drain(..total);
        Ok(true)
    }

    /// Bytes buffered but not yet consumed as frames.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// Builds the HELLO body: opcode, magic, [`VERSION`].
#[must_use]
pub fn encode_hello() -> Vec<u8> {
    let mut b = vec![opcode::HELLO];
    b.extend_from_slice(&MAGIC);
    b.push(VERSION);
    b
}

/// Parses a HELLO body (opcode byte included); the offered version must
/// be exactly [`VERSION`].
pub fn parse_hello(body: &[u8]) -> Result<(), ProtocolError> {
    if body.len() != 6 || body[0] != opcode::HELLO {
        return Err(ProtocolError::Malformed("hello"));
    }
    if body[1..5] != MAGIC {
        return Err(ProtocolError::BadMagic);
    }
    check_version(body[5])
}

fn check_version(version: u8) -> Result<(), ProtocolError> {
    if version != VERSION {
        return Err(ProtocolError::UnsupportedVersion(version));
    }
    Ok(())
}

/// Builds a HELLO_OK body: opcode, [`VERSION`], scheme tag, `n`.
#[must_use]
pub fn encode_hello_ok(tag: u8, n: u32) -> Vec<u8> {
    let mut b = Vec::new();
    encode_hello_ok_into(tag, n, &mut b);
    b
}

/// [`encode_hello_ok`] into a reusable buffer (cleared first).
pub fn encode_hello_ok_into(tag: u8, n: u32, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&[opcode::HELLO_OK, VERSION, tag]);
    out.extend_from_slice(&n.to_le_bytes());
}

/// Parses a HELLO_OK body into `(scheme tag, n)`. A server claiming any
/// version but [`VERSION`] is refused, like a client offering one.
pub fn parse_hello_ok(body: &[u8]) -> Result<(u8, u32), ProtocolError> {
    if body.len() != 7 || body[0] != opcode::HELLO_OK {
        return Err(ProtocolError::Malformed("hello_ok"));
    }
    check_version(body[1])?;
    Ok((body[2], crate::bytes::le_u32(&body[3..7])))
}

/// Checks a request that is its opcode alone: exactly the byte `op`.
fn parse_bare(body: &[u8], op: u8, what: &'static str) -> Result<(), ProtocolError> {
    if body != [op] {
        return Err(ProtocolError::Malformed(what));
    }
    Ok(())
}

/// Parses a STATS request body (the opcode alone).
pub fn parse_stats(body: &[u8]) -> Result<(), ProtocolError> {
    parse_bare(body, opcode::STATS, "stats")
}

/// Parses a HEALTH request body (the opcode alone).
pub fn parse_health(body: &[u8]) -> Result<(), ProtocolError> {
    parse_bare(body, opcode::HEALTH, "health")
}

/// Parses a GOODBYE request body (the opcode alone).
pub fn parse_goodbye(body: &[u8]) -> Result<(), ProtocolError> {
    parse_bare(body, opcode::GOODBYE, "goodbye")
}

/// Builds a BATCH body.
///
/// # Errors
///
/// Returns [`ProtocolError::Malformed`] if `queries.len() > MAX_BATCH`
/// (the count would not fit the `u16` field), so a buggy caller gets a
/// wire-level error instead of a panic killing its thread.
pub fn encode_batch(queries: &[Query]) -> Result<Vec<u8>, ProtocolError> {
    if queries.len() > MAX_BATCH {
        return Err(ProtocolError::Malformed("batch too large"));
    }
    let mut b = Vec::with_capacity(3 + queries.len() * 9);
    b.push(opcode::BATCH);
    b.extend_from_slice(&(queries.len() as u16).to_le_bytes());
    for q in queries {
        b.push(q.kind as u8);
        b.extend_from_slice(&q.u.to_le_bytes());
        b.extend_from_slice(&q.v.to_le_bytes());
    }
    Ok(b)
}

/// Parses a BATCH body.
pub fn parse_batch(body: &[u8]) -> Result<Vec<Query>, ProtocolError> {
    if body.len() < 3 || body[0] != opcode::BATCH {
        return Err(ProtocolError::Malformed("batch header"));
    }
    let count = crate::bytes::le_u16(&body[1..3]) as usize;
    let entries = &body[3..];
    if entries.len() != count * 9 {
        return Err(ProtocolError::Malformed("batch length"));
    }
    let mut queries = Vec::with_capacity(count);
    for e in entries.chunks_exact(9) {
        let kind = match e[0] {
            0 => QueryKind::Adjacent,
            1 => QueryKind::Distance,
            _ => return Err(ProtocolError::Malformed("query kind")),
        };
        queries.push(Query {
            kind,
            u: crate::bytes::le_u32(&e[1..5]),
            v: crate::bytes::le_u32(&e[5..9]),
        });
    }
    Ok(queries)
}

/// Builds a BATCH body, appending the `TRACE_CTX` extension trailer
/// when a set context is supplied.
///
/// `_version` is unused, kept only for the frozen `loadbench` benchmark's calls.
///
/// # Errors
///
/// Same as [`encode_batch`]: `Malformed` when the count exceeds
/// [`MAX_BATCH`].
pub fn encode_batch_ctx(
    queries: &[Query],
    ctx: Option<&TraceContext>,
    _version: u8,
) -> Result<Vec<u8>, ProtocolError> {
    let mut b = encode_batch(queries)?;
    if let Some(ctx) = ctx.filter(|c| c.is_set()) {
        b.reserve(TRACE_CTX_LEN);
        b.push(EXT_TRACE_CTX);
        b.extend_from_slice(&ctx.trace_hi.to_le_bytes());
        b.extend_from_slice(&ctx.trace_lo.to_le_bytes());
        b.extend_from_slice(&ctx.parent_span.to_le_bytes());
    }
    Ok(b)
}

/// Parses a BATCH body; an optional trailing [`EXT_TRACE_CTX`] block
/// yields the propagated context.
///
/// `_version` is unused, kept only for the frozen `loadbench` benchmark's calls.
pub fn parse_batch_ctx(
    body: &[u8],
    _version: u8,
) -> Result<(Vec<Query>, Option<TraceContext>), ProtocolError> {
    if body.len() < 3 || body[0] != opcode::BATCH {
        return Err(ProtocolError::Malformed("batch header"));
    }
    let count = crate::bytes::le_u16(&body[1..3]) as usize;
    let entries_end = 3 + count * 9;
    let ctx = match body.len() {
        l if l == entries_end => None,
        l if l == entries_end + TRACE_CTX_LEN => {
            let ext = &body[entries_end..];
            if ext[0] != EXT_TRACE_CTX {
                return Err(ProtocolError::Malformed("batch extension tag"));
            }
            Some(TraceContext {
                trace_hi: crate::bytes::le_u64(&ext[1..9]),
                trace_lo: crate::bytes::le_u64(&ext[9..17]),
                parent_span: crate::bytes::le_u64(&ext[17..25]),
            })
        }
        _ => return Err(ProtocolError::Malformed("batch length")),
    };
    let queries = parse_batch(&body[..entries_end])?;
    Ok((queries, ctx))
}

/// Builds a TRACE_DUMP body: opcode + flag byte (0 = consuming drain).
#[must_use]
pub fn encode_trace_dump(flags: u8) -> Vec<u8> {
    vec![opcode::TRACE_DUMP, flags]
}

/// Parses a TRACE_DUMP body into its flag byte. Unknown flag bits are
/// malformed so a client cannot silently get the wrong drain semantics.
pub fn parse_trace_dump(body: &[u8]) -> Result<u8, ProtocolError> {
    match body {
        [op, flags] if *op == opcode::TRACE_DUMP => {
            if *flags & !trace_dump_flags::ALL != 0 {
                return Err(ProtocolError::Malformed("trace dump flags"));
            }
            Ok(*flags)
        }
        _ => Err(ProtocolError::Malformed("trace dump")),
    }
}

/// FNV-1a (32-bit) over `bytes` — the reply checksum. One flipped byte
/// anywhere in a checksummed body changes the digest, so response
/// corruption surfaces as a parse error the client can retry instead of
/// a silently wrong answer.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811C_9DC5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Builds a BATCH_REPLY body: opcode, count, one status (plus payload)
/// per answer, then a 4-byte FNV-1a checksum of everything before it.
#[must_use]
pub fn encode_batch_reply(answers: &[Answer]) -> Vec<u8> {
    let mut b = Vec::with_capacity(3 + answers.len() * 5 + 4);
    encode_batch_reply_into(answers, VERSION, &mut b);
    b
}

/// [`encode_batch_reply`] into a reusable buffer (cleared first).
///
/// `_version` is unused, kept only for the frozen `loadbench` benchmark's calls.
pub fn encode_batch_reply_into(answers: &[Answer], _version: u8, b: &mut Vec<u8>) {
    b.clear();
    b.push(opcode::BATCH_REPLY);
    b.extend_from_slice(&(answers.len() as u16).to_le_bytes());
    for a in answers {
        match a {
            Answer::NotAdjacent => b.push(ANS_NOT_ADJACENT),
            Answer::Adjacent => b.push(ANS_ADJACENT),
            Answer::Distance(d) => {
                b.push(ANS_DISTANCE);
                b.extend_from_slice(&d.to_le_bytes());
            }
            Answer::Unreachable => b.push(ANS_UNREACHABLE),
            Answer::OutOfRange => b.push(ANS_OUT_OF_RANGE),
            Answer::Unsupported => b.push(ANS_UNSUPPORTED),
            Answer::MalformedLabel => b.push(ANS_MALFORMED),
            Answer::Overloaded => b.push(ANS_OVERLOADED),
            Answer::NotOwned => b.push(ANS_NOT_OWNED),
        }
    }
    let sum = checksum(b);
    b.extend_from_slice(&sum.to_le_bytes());
}

/// Parses a BATCH_REPLY body, verifying and stripping the trailing
/// checksum first.
///
/// `_version` is unused, kept only for the frozen `loadbench` benchmark's calls.
pub fn parse_batch_reply(body: &[u8], _version: u8) -> Result<Vec<Answer>, ProtocolError> {
    if body.len() < 7 || body[0] != opcode::BATCH_REPLY {
        return Err(ProtocolError::Malformed("batch reply header"));
    }
    let (body, sum) = body.split_at(body.len() - 4);
    if checksum(body) != crate::bytes::le_u32(sum) {
        return Err(ProtocolError::ChecksumMismatch);
    }
    let count = crate::bytes::le_u16(&body[1..3]) as usize;
    let mut answers = Vec::with_capacity(count.min(MAX_BATCH));
    let mut pos = 3;
    for _ in 0..count {
        let status = *body
            .get(pos)
            .ok_or(ProtocolError::Malformed("truncated reply"))?;
        pos += 1;
        answers.push(match status {
            ANS_NOT_ADJACENT => Answer::NotAdjacent,
            ANS_ADJACENT => Answer::Adjacent,
            ANS_DISTANCE => {
                let d = body
                    .get(pos..pos + 4)
                    .ok_or(ProtocolError::Malformed("truncated distance"))?;
                pos += 4;
                Answer::Distance(crate::bytes::le_u32(d))
            }
            ANS_UNREACHABLE => Answer::Unreachable,
            ANS_OUT_OF_RANGE => Answer::OutOfRange,
            ANS_UNSUPPORTED => Answer::Unsupported,
            ANS_MALFORMED => Answer::MalformedLabel,
            ANS_OVERLOADED => Answer::Overloaded,
            ANS_NOT_OWNED => Answer::NotOwned,
            _ => return Err(ProtocolError::Malformed("answer status")),
        });
    }
    if pos != body.len() {
        return Err(ProtocolError::Malformed("trailing reply bytes"));
    }
    Ok(answers)
}

/// A server's shard-liveness report, the payload of `HEALTH_REPLY`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Every shard live?
    pub healthy: bool,
    /// Per-shard liveness flags, in shard order.
    pub shards: Vec<bool>,
}

/// Builds a HEALTH_REPLY body from per-shard liveness flags.
#[must_use]
pub fn encode_health_reply(shards: &[bool]) -> Vec<u8> {
    let mut b = Vec::with_capacity(4 + shards.len());
    encode_health_reply_into(shards, &mut b);
    b
}

/// [`encode_health_reply`] into a reusable buffer (cleared first).
pub fn encode_health_reply_into(shards: &[bool], b: &mut Vec<u8>) {
    let healthy = shards.iter().all(|&s| s);
    b.clear();
    b.push(opcode::HEALTH_REPLY);
    b.push(u8::from(healthy));
    b.extend_from_slice(&(shards.len() as u16).to_le_bytes());
    b.extend(shards.iter().map(|&s| u8::from(s)));
}

/// Parses a HEALTH_REPLY body.
pub fn parse_health_reply(body: &[u8]) -> Result<HealthReport, ProtocolError> {
    if body.len() < 4 || body[0] != opcode::HEALTH_REPLY {
        return Err(ProtocolError::Malformed("health reply header"));
    }
    let count = crate::bytes::le_u16(&body[2..4]) as usize;
    let flags = &body[4..];
    if flags.len() != count || flags.iter().any(|&f| f > 1) {
        return Err(ProtocolError::Malformed("health reply body"));
    }
    let shards: Vec<bool> = flags.iter().map(|&f| f == 1).collect();
    let healthy = body[1] == 1;
    if healthy != shards.iter().all(|&s| s) {
        return Err(ProtocolError::Malformed("health status inconsistent"));
    }
    Ok(HealthReport { healthy, shards })
}

/// The sentinel value of the `MAP_SET` backend-index field addressing a
/// router rather than a backend: routers dual-route during the window,
/// backends install partitions, and the index field tells the receiver
/// which role (and which partition) the pushed map assigns it.
pub const MAP_TARGET_ROUTER: u32 = u32::MAX;

/// What a `MAP_SET` push asks the receiver to do with the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MapSetMode {
    /// Stage the epoch-bumped map without serving from it yet. A
    /// backend buffers it and starts accepting `LABELS` for its epoch;
    /// a router opens the dual-routing window (try new owners first,
    /// fall back to the old map on `ANS_NOT_OWNED`).
    Prepare = 0,
    /// Make the prepared map current. A backend swaps in the rebuilt
    /// store (pushed labels merged); a router retires the old map.
    Commit = 1,
    /// Discard the prepared map and return to the current epoch.
    Abort = 2,
    /// Post-commit cleanup on a losing backend: shrink labels the
    /// current map no longer assigns to it back to prelude stubs.
    Shrink = 3,
}

impl MapSetMode {
    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => Self::Prepare,
            1 => Self::Commit,
            2 => Self::Abort,
            3 => Self::Shrink,
            _ => return None,
        })
    }
}

/// The receiver's verdict on a `MAP_SET`, carried in `MAP_OK` together
/// with the receiver's (possibly unchanged) current epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MapSetStatus {
    /// The map is staged; `LABELS` pushes for its epoch are accepted.
    Prepared = 0,
    /// The staged map is now current.
    Committed = 1,
    /// The staged map was discarded.
    Aborted = 2,
    /// Re-homed labels were shrunk back to prelude stubs.
    Shrunk = 3,
    /// The pushed epoch is not newer than the receiver's current epoch
    /// (stale or equal) — the epoch field of the reply carries the
    /// receiver's current epoch so the pusher can re-read and retry.
    Stale = 4,
    /// The receiving engine does not participate in reconfiguration.
    Unsupported = 5,
    /// The request was well-formed but could not be applied (no staged
    /// map to commit, map parameters disagree with the serving store,
    /// a pushed label failed verification, ...).
    Failed = 6,
}

impl MapSetStatus {
    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => Self::Prepared,
            1 => Self::Committed,
            2 => Self::Aborted,
            3 => Self::Shrunk,
            4 => Self::Stale,
            5 => Self::Unsupported,
            6 => Self::Failed,
            _ => return None,
        })
    }
}

/// The receiver's verdict on a `LABELS` push, carried in `LABELS_OK`
/// together with the count of labels accepted so far this epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum LabelsStatus {
    /// The frame's labels were parsed and buffered.
    Ok = 0,
    /// The frame's epoch does not match the staged map's epoch.
    WrongEpoch = 1,
    /// The labels did not parse as one `PLL2` container of exactly one
    /// label per vertex, or a vertex was out of range — the whole frame
    /// is discarded.
    Rejected = 2,
    /// The receiving engine does not accept label pushes.
    Unsupported = 3,
}

impl LabelsStatus {
    fn from_byte(b: u8) -> Option<Self> {
        Some(match b {
            0 => Self::Ok,
            1 => Self::WrongEpoch,
            2 => Self::Rejected,
            3 => Self::Unsupported,
            _ => return None,
        })
    }
}

/// A parsed `MAP_SET` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapSetRequest {
    /// What to do with the map.
    pub mode: MapSetMode,
    /// The receiver's index in the pushed map's backend list, or
    /// [`MAP_TARGET_ROUTER`] when the receiver is a router.
    pub backend: u32,
    /// On a router `Commit`: the number of vertices whose ownership the
    /// new map moved (feeds `plcluster_reconfig_vertices_moved_total`).
    /// Zero otherwise.
    pub moved: u64,
    /// The serialized cluster map, already structurally validated
    /// ([`validate_map_blob`]).
    pub map: Vec<u8>,
}

/// Magic opening every serialized cluster map (`pl_serve::map`).
pub const MAP_MAGIC: [u8; 4] = *b"PLCM";

/// The one check of the map envelope: the [`MAP_MAGIC`], the minimum
/// fixed-layout size, and the trailing FNV-1a-32 self-checksum.
/// Returns the blob without its checksum. The wire rejects a
/// bit-flipped or truncated push here, before any engine sees it;
/// `ClusterMap::from_bytes` runs the same check before it reads a field.
pub fn validate_map_blob(map: &[u8]) -> Result<&[u8], ProtocolError> {
    if map.len() < 36 || map[..4] != MAP_MAGIC {
        return Err(ProtocolError::Malformed("map blob"));
    }
    let (payload, sum) = map.split_at(map.len() - 4);
    if checksum(payload) != crate::bytes::le_u32(sum) {
        return Err(ProtocolError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Builds a MAP_GET body (opcode only).
#[must_use]
pub fn encode_map_get() -> Vec<u8> {
    vec![opcode::MAP_GET]
}

/// Parses a MAP_GET body (the opcode alone).
pub fn parse_map_get(body: &[u8]) -> Result<(), ProtocolError> {
    parse_bare(body, opcode::MAP_GET, "map get")
}

/// Builds a MAP_REPLY body: a presence byte, then the map blob when the
/// peer has one.
#[must_use]
pub fn encode_map_reply(map: Option<&[u8]>) -> Vec<u8> {
    let mut b = Vec::with_capacity(2 + map.map_or(0, <[u8]>::len));
    b.push(opcode::MAP_REPLY);
    match map {
        Some(bytes) => {
            b.push(1);
            b.extend_from_slice(bytes);
        }
        None => b.push(0),
    }
    b
}

/// Parses a MAP_REPLY body; a present map blob is structurally
/// validated before it is returned.
pub fn parse_map_reply(body: &[u8]) -> Result<Option<Vec<u8>>, ProtocolError> {
    match body {
        [op, 0] if *op == opcode::MAP_REPLY => Ok(None),
        [op, 1, rest @ ..] if *op == opcode::MAP_REPLY => {
            validate_map_blob(rest)?;
            Ok(Some(rest.to_vec()))
        }
        _ => Err(ProtocolError::Malformed("map reply")),
    }
}

/// Builds a MAP_SET body:
///
/// ```text
/// 0x07 | mode u8 | backend u32 | moved u64 | map blob
/// ```
///
/// # Errors
///
/// `Malformed`/`ChecksumMismatch` if the map blob fails
/// [`validate_map_blob`] — a pusher cannot emit a push its receiver
/// would reject — or if the frame would exceed [`MAX_FRAME`].
pub fn encode_map_set(
    mode: MapSetMode,
    backend: u32,
    moved: u64,
    map: &[u8],
) -> Result<Vec<u8>, ProtocolError> {
    validate_map_blob(map)?;
    if 14 + map.len() > MAX_FRAME {
        return Err(ProtocolError::Malformed("map set too large"));
    }
    let mut b = Vec::with_capacity(14 + map.len());
    b.push(opcode::MAP_SET);
    b.push(mode as u8);
    b.extend_from_slice(&backend.to_le_bytes());
    b.extend_from_slice(&moved.to_le_bytes());
    b.extend_from_slice(map);
    Ok(b)
}

/// Parses a MAP_SET body, structurally validating the map blob (a
/// checksum-tampered push fails here with
/// [`ProtocolError::ChecksumMismatch`]).
pub fn parse_map_set(body: &[u8]) -> Result<MapSetRequest, ProtocolError> {
    if body.len() < 14 || body[0] != opcode::MAP_SET {
        return Err(ProtocolError::Malformed("map set header"));
    }
    let mode = MapSetMode::from_byte(body[1]).ok_or(ProtocolError::Malformed("map set mode"))?;
    let backend = crate::bytes::le_u32(&body[2..6]);
    let moved = crate::bytes::le_u64(&body[6..14]);
    let map = &body[14..];
    validate_map_blob(map)?;
    Ok(MapSetRequest {
        mode,
        backend,
        moved,
        map: map.to_vec(),
    })
}

/// Builds a MAP_OK body: status byte + the receiver's current epoch
/// (after the request took effect, or unchanged when it was refused).
#[must_use]
pub fn encode_map_ok(status: MapSetStatus, epoch: u64) -> Vec<u8> {
    let mut b = Vec::with_capacity(10);
    b.push(opcode::MAP_OK);
    b.push(status as u8);
    b.extend_from_slice(&epoch.to_le_bytes());
    b
}

/// Parses a MAP_OK body into `(status, epoch)`.
pub fn parse_map_ok(body: &[u8]) -> Result<(MapSetStatus, u64), ProtocolError> {
    if body.len() != 10 || body[0] != opcode::MAP_OK {
        return Err(ProtocolError::Malformed("map ok"));
    }
    let status = MapSetStatus::from_byte(body[1]).ok_or(ProtocolError::Malformed("map status"))?;
    let epoch = crate::bytes::le_u64(&body[2..10]);
    Ok((status, epoch))
}

/// Builds a LABELS body:
///
/// ```text
/// 0x08 | epoch u64 | count u16 | count × vertex u32 | labels
///      | FNV-1a-32 u32 over every preceding body byte
/// ```
///
/// `labels` is one `PLL2` labeling container holding the `count`
/// labels in `ids` order: the same bytes a `.plab` file carries after
/// its tag (see `crates/labeling/FORMAT.md`). This layer treats them as
/// opaque; the receiving engine parses them. The trailing checksum
/// makes migration pushes tamper-evident end to end: a flipped label
/// bit is caught on arrival, never merged into a store.
///
/// # Errors
///
/// `Malformed` if `ids` exceeds [`MAX_BATCH`] or the frame would exceed
/// [`MAX_FRAME`].
pub fn encode_labels(epoch: u64, ids: &[u32], labels: &[u8]) -> Result<Vec<u8>, ProtocolError> {
    if ids.len() > MAX_BATCH {
        return Err(ProtocolError::Malformed("too many labels"));
    }
    let len = 11 + 4 * ids.len() + labels.len() + 4;
    if len > MAX_FRAME {
        return Err(ProtocolError::Malformed("labels frame too large"));
    }
    let mut b = Vec::with_capacity(len);
    b.push(opcode::LABELS);
    b.extend_from_slice(&epoch.to_le_bytes());
    b.extend_from_slice(&(ids.len() as u16).to_le_bytes());
    for id in ids {
        b.extend_from_slice(&id.to_le_bytes());
    }
    b.extend_from_slice(labels);
    let sum = checksum(&b);
    b.extend_from_slice(&sum.to_le_bytes());
    Ok(b)
}

/// Parses a LABELS body into `(epoch, ids, labels)`, verifying the
/// trailing checksum first — corruption anywhere in the frame surfaces
/// as [`ProtocolError::ChecksumMismatch`] before an id is read.
/// `labels` borrows the opaque `PLL2` container from `body`.
pub fn parse_labels(body: &[u8]) -> Result<(u64, Vec<u32>, &[u8]), ProtocolError> {
    if body.len() < 15 || body[0] != opcode::LABELS {
        return Err(ProtocolError::Malformed("labels header"));
    }
    let (payload, sum) = body.split_at(body.len() - 4);
    let declared = crate::bytes::le_u32(sum);
    if checksum(payload) != declared {
        return Err(ProtocolError::ChecksumMismatch);
    }
    let epoch = crate::bytes::le_u64(&payload[1..9]);
    let ids_end = 11 + 4 * crate::bytes::le_u16(&payload[9..11]) as usize;
    let ids = payload
        .get(11..ids_end)
        .ok_or(ProtocolError::Malformed("truncated label ids"))?
        .chunks_exact(4)
        .map(crate::bytes::le_u32)
        .collect();
    Ok((epoch, ids, &payload[ids_end..]))
}

/// Builds a LABELS_OK body: status byte + labels accepted so far this
/// epoch (u32 LE).
#[must_use]
pub fn encode_labels_ok(status: LabelsStatus, received: u32) -> Vec<u8> {
    let mut b = Vec::with_capacity(6);
    b.push(opcode::LABELS_OK);
    b.push(status as u8);
    b.extend_from_slice(&received.to_le_bytes());
    b
}

/// Parses a LABELS_OK body into `(status, received)`.
pub fn parse_labels_ok(body: &[u8]) -> Result<(LabelsStatus, u32), ProtocolError> {
    if body.len() != 6 || body[0] != opcode::LABELS_OK {
        return Err(ProtocolError::Malformed("labels ok"));
    }
    let status =
        LabelsStatus::from_byte(body[1]).ok_or(ProtocolError::Malformed("labels status"))?;
    let received = crate::bytes::le_u32(&body[2..6]);
    Ok((status, received))
}

/// Builds a STATS_REPLY body into a reusable buffer (cleared first):
/// opcode + [`Stats::encode_into`].
pub fn encode_stats_reply_into(s: &Stats, b: &mut Vec<u8>) {
    b.clear();
    b.push(opcode::STATS_REPLY);
    s.encode_into(b);
}

/// Parses a STATS_REPLY body.
pub fn parse_stats_reply(body: &[u8]) -> Result<Stats, ProtocolError> {
    match body.split_first() {
        Some((&opcode::STATS_REPLY, rest)) => Stats::parse(rest),
        _ => Err(ProtocolError::Malformed("stats reply header")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hello_round_trip() {
        assert_eq!(parse_hello(&encode_hello()), Ok(()));
        assert_eq!(parse_hello(&[]), Err(ProtocolError::Malformed("hello")));
        let mut bad = encode_hello();
        bad[2] = b'X';
        assert_eq!(parse_hello(&bad), Err(ProtocolError::BadMagic));
        // Only VERSION itself is accepted: older, newer and zero offers
        // are all refused.
        for other in [0, 1, VERSION - 1, VERSION + 1, 99] {
            let mut offer = encode_hello();
            offer[5] = other;
            assert_eq!(
                parse_hello(&offer),
                Err(ProtocolError::UnsupportedVersion(other))
            );
        }
    }

    #[test]
    fn hello_ok_round_trip_and_version_check() {
        let body = encode_hello_ok(1, 54_321);
        assert_eq!(body[1], VERSION);
        assert_eq!(parse_hello_ok(&body), Ok((1, 54_321)));
        for other in [2, VERSION - 1, 99] {
            let mut claim = body.clone();
            claim[1] = other;
            assert_eq!(
                parse_hello_ok(&claim),
                Err(ProtocolError::UnsupportedVersion(other))
            );
        }
    }

    #[test]
    fn batch_round_trip() {
        let queries = vec![
            Query::adjacent(0, 7),
            Query::distance(u32::MAX, 3),
            Query::adjacent(5, 5),
        ];
        assert_eq!(
            parse_batch(&encode_batch(&queries).unwrap()).unwrap(),
            queries
        );
    }

    #[test]
    fn batch_ctx_round_trip() {
        let queries = vec![Query::adjacent(1, 2), Query::distance(3, 4)];
        let ctx = TraceContext {
            trace_hi: 0x1111_2222_3333_4444,
            trace_lo: 0x5555_6666_7777_8888,
            parent_span: 0x9999_AAAA_BBBB_CCCC,
        };

        let traced = encode_batch_ctx(&queries, Some(&ctx), VERSION).unwrap();
        assert_eq!(
            parse_batch_ctx(&traced, VERSION).unwrap(),
            (queries.clone(), Some(ctx))
        );

        // Without a context the body is byte-identical to the plain
        // encoding.
        let bare = encode_batch_ctx(&queries, None, VERSION).unwrap();
        assert_eq!(bare, encode_batch(&queries).unwrap());
        assert_eq!(
            parse_batch_ctx(&bare, VERSION).unwrap(),
            (queries.clone(), None)
        );

        // An unset context is never shipped.
        let zero = TraceContext {
            trace_hi: 0,
            trace_lo: 0,
            parent_span: 7,
        };
        let unset = encode_batch_ctx(&queries, Some(&zero), VERSION).unwrap();
        assert_eq!(unset, encode_batch(&queries).unwrap());

        // The entry-only parse keeps its exact-length check.
        assert_eq!(
            parse_batch(&traced),
            Err(ProtocolError::Malformed("batch length"))
        );

        // Corrupt trailers are malformed, never mis-parsed.
        let mut bad_tag = traced.clone();
        let tag_at = bad_tag.len() - TRACE_CTX_LEN;
        bad_tag[tag_at] = 0x55;
        assert!(parse_batch_ctx(&bad_tag, VERSION).is_err());
        let truncated = &traced[..traced.len() - 1];
        assert!(parse_batch_ctx(truncated, VERSION).is_err());
    }

    #[test]
    fn trace_dump_flags_round_trip() {
        assert_eq!(encode_trace_dump(0), vec![opcode::TRACE_DUMP, 0]);
        assert_eq!(parse_trace_dump(&encode_trace_dump(0)), Ok(0));
        let snap = encode_trace_dump(trace_dump_flags::SNAPSHOT);
        assert_eq!(snap, vec![opcode::TRACE_DUMP, trace_dump_flags::SNAPSHOT]);
        assert_eq!(parse_trace_dump(&snap), Ok(trace_dump_flags::SNAPSHOT));
        // Unknown flag bits, a missing flag byte and junk bodies are
        // malformed.
        assert!(parse_trace_dump(&[opcode::TRACE_DUMP, 0x80]).is_err());
        assert!(parse_trace_dump(&[opcode::TRACE_DUMP]).is_err());
        assert!(parse_trace_dump(&[opcode::BATCH]).is_err());
        assert!(parse_trace_dump(&[]).is_err());
        assert!(parse_trace_dump(&[opcode::TRACE_DUMP, 1, 2]).is_err());
    }

    #[test]
    fn oversized_batch_is_a_wire_error_not_a_panic() {
        let queries = vec![Query::adjacent(0, 0); MAX_BATCH + 1];
        assert_eq!(
            encode_batch(&queries),
            Err(ProtocolError::Malformed("batch too large"))
        );
        let exactly_max = vec![Query::adjacent(0, 0); MAX_BATCH];
        assert!(encode_batch(&exactly_max).is_ok());
    }

    #[test]
    fn into_encoders_match_their_allocating_twins() {
        let answers = vec![Answer::Adjacent, Answer::Distance(9), Answer::Overloaded];
        // Pre-fill each buffer with junk: `_into` must clear first.
        let mut buf = vec![0xAA; 32];
        encode_batch_reply_into(&answers, VERSION, &mut buf);
        assert_eq!(buf, encode_batch_reply(&answers));
        encode_hello_ok_into(1, 77, &mut buf);
        assert_eq!(buf, encode_hello_ok(1, 77));
        encode_health_reply_into(&[true, false], &mut buf);
        assert_eq!(buf, encode_health_reply(&[true, false]));
    }

    /// The frame `write_frame` must produce: little-endian length, body.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(body);
        wire
    }

    /// A writer that takes at most `chunk` bytes per call, fails its
    /// first `interrupts` calls with `Interrupted`, and counts calls.
    struct MockWriter {
        out: Vec<u8>,
        chunk: usize,
        interrupts: usize,
        vectored_calls: usize,
        plain_calls: usize,
    }

    impl MockWriter {
        fn new(chunk: usize, interrupts: usize) -> Self {
            Self {
                out: Vec::new(),
                chunk,
                interrupts,
                vectored_calls: 0,
                plain_calls: 0,
            }
        }

        fn take(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            if self.interrupts > 0 {
                self.interrupts -= 1;
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let start = self.out.len();
            for b in bufs {
                let room = self.chunk - (self.out.len() - start);
                self.out.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.out.len() - start)
        }
    }

    impl Write for MockWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.plain_calls += 1;
            self.take(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.vectored_calls += 1;
            self.take(bufs)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    const BODIES: [&[u8]; 3] = [&[], &[7], &[1, 2, 3, 4, 5]];

    #[test]
    fn write_frame_emits_length_then_body() {
        for body in BODIES {
            let mut wire = Vec::new();
            write_frame(&mut wire, body).unwrap();
            assert_eq!(wire, framed(body));
        }
    }

    #[test]
    fn healthy_frame_takes_one_vectored_write() {
        for body in BODIES {
            let mut w = MockWriter::new(usize::MAX, 0);
            write_frame(&mut w, body).unwrap();
            assert_eq!(w.out, framed(body));
            assert_eq!((w.vectored_calls, w.plain_calls), (1, 0));
        }
    }

    #[test]
    fn frame_completes_through_one_byte_writes() {
        for body in BODIES {
            let mut w = MockWriter::new(1, 0);
            write_frame(&mut w, body).unwrap();
            assert_eq!(w.out, framed(body));
            assert_eq!(w.vectored_calls + w.plain_calls, 4 + body.len());
        }
    }

    #[test]
    fn frame_completes_after_an_interrupted_write() {
        for body in BODIES {
            let mut w = MockWriter::new(usize::MAX, 1);
            write_frame(&mut w, body).unwrap();
            assert_eq!(w.out, framed(body));
            assert_eq!((w.vectored_calls, w.plain_calls), (2, 0));
        }
    }

    #[test]
    fn batch_reply_round_trip() {
        let answers = vec![
            Answer::NotAdjacent,
            Answer::Adjacent,
            Answer::Distance(42),
            Answer::Unreachable,
            Answer::OutOfRange,
            Answer::Unsupported,
            Answer::MalformedLabel,
            Answer::Overloaded,
            Answer::NotOwned,
        ];
        assert_eq!(
            parse_batch_reply(&encode_batch_reply(&answers), VERSION).unwrap(),
            answers
        );
        // Overloaded is a same-backend retry signal; NotOwned is a
        // routing signal, not a retry signal.
        assert!(Answer::Overloaded.is_retryable());
        assert!(!Answer::NotOwned.is_retryable());
    }

    #[test]
    fn every_single_byte_flip_of_a_reply_is_detected() {
        let answers = vec![
            Answer::Adjacent,
            Answer::NotAdjacent,
            Answer::Distance(7),
            Answer::Adjacent,
        ];
        let body = encode_batch_reply(&answers);
        for pos in 0..body.len() {
            for bit in 0..8 {
                let mut corrupted = body.clone();
                corrupted[pos] ^= 1 << bit;
                assert!(
                    parse_batch_reply(&corrupted, VERSION).is_err(),
                    "flip of byte {pos} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn reply_without_checksum_is_rejected() {
        let body = encode_batch_reply(&[Answer::Adjacent]);
        let unsummed = &body[..body.len() - 4];
        assert!(parse_batch_reply(unsummed, VERSION).is_err());
    }

    #[test]
    fn health_reply_round_trip() {
        let all_up = encode_health_reply(&[true, true, true]);
        assert_eq!(
            parse_health_reply(&all_up).unwrap(),
            HealthReport {
                healthy: true,
                shards: vec![true, true, true],
            }
        );
        let degraded = encode_health_reply(&[true, false]);
        let report = parse_health_reply(&degraded).unwrap();
        assert!(!report.healthy);
        assert_eq!(report.shards, vec![true, false]);
        assert!(parse_health_reply(&[]).is_err());
        // Inconsistent status byte vs flags is rejected.
        let mut lying = encode_health_reply(&[false]);
        lying[1] = 1;
        assert!(parse_health_reply(&lying).is_err());
    }

    /// A minimal, structurally valid map blob: the map magic, arbitrary
    /// body bytes up to the fixed-layout minimum, trailing FNV-1a-32
    /// self-checksum.
    fn fake_map_blob() -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&MAP_MAGIC);
        b.push(1); // map format version
        b.extend_from_slice(&7u64.to_le_bytes()); // epoch
        b.extend_from_slice(&0xDEAD_BEEFu64.to_le_bytes()); // seed
        b.extend_from_slice(&2u32.to_le_bytes()); // replicas
        b.extend_from_slice(&100u32.to_le_bytes()); // n
        b.push(2); // scheme tag
        b.extend_from_slice(&1u16.to_le_bytes()); // backend count
        b.extend_from_slice(&4u16.to_le_bytes());
        b.extend_from_slice(b"a:91");
        let sum = checksum(&b);
        b.extend_from_slice(&sum.to_le_bytes());
        b
    }

    #[test]
    fn map_get_round_trip() {
        assert_eq!(parse_map_get(&encode_map_get()), Ok(()));
        assert!(parse_map_get(&[]).is_err());
        assert!(parse_map_get(&[opcode::MAP_GET, 0]).is_err());
        assert!(parse_map_get(&[opcode::BATCH]).is_err());
    }

    #[test]
    fn map_reply_round_trip() {
        let blob = fake_map_blob();
        assert_eq!(
            parse_map_reply(&encode_map_reply(Some(&blob))).unwrap(),
            Some(blob.clone())
        );
        assert_eq!(parse_map_reply(&encode_map_reply(None)).unwrap(), None);
        // A tampered blob inside the reply is caught by the
        // self-checksum, not passed through.
        let mut tampered = encode_map_reply(Some(&blob));
        tampered[10] ^= 0x01;
        assert_eq!(
            parse_map_reply(&tampered),
            Err(ProtocolError::ChecksumMismatch)
        );
        assert!(parse_map_reply(&[opcode::MAP_REPLY]).is_err());
        assert!(parse_map_reply(&[opcode::MAP_REPLY, 2]).is_err());
    }

    #[test]
    fn map_set_round_trip() {
        let blob = fake_map_blob();
        for (mode, backend, moved) in [
            (MapSetMode::Prepare, 0u32, 0u64),
            (MapSetMode::Commit, MAP_TARGET_ROUTER, 1234),
            (MapSetMode::Abort, 3, 0),
            (MapSetMode::Shrink, 2, 0),
        ] {
            let body = encode_map_set(mode, backend, moved, &blob).unwrap();
            let req = parse_map_set(&body).unwrap();
            assert_eq!(req.mode, mode);
            assert_eq!(req.backend, backend);
            assert_eq!(req.moved, moved);
            assert_eq!(req.map, blob);
        }
        // Unknown mode byte is malformed.
        let mut bad_mode = encode_map_set(MapSetMode::Prepare, 0, 0, &blob).unwrap();
        bad_mode[1] = 9;
        assert!(parse_map_set(&bad_mode).is_err());
    }

    #[test]
    fn checksum_tampered_map_push_is_rejected() {
        let blob = fake_map_blob();
        let body = encode_map_set(MapSetMode::Prepare, 1, 0, &blob).unwrap();
        // Flip every bit of the embedded map blob in turn: each flip
        // must surface as a checksum (or structural) error, never as a
        // successfully parsed push.
        for pos in 14..body.len() {
            for bit in 0..8 {
                let mut corrupted = body.clone();
                corrupted[pos] ^= 1 << bit;
                assert!(
                    parse_map_set(&corrupted).is_err(),
                    "map blob flip at byte {pos} bit {bit} went undetected"
                );
            }
        }
        // A truncated blob is structural, not a checksum coincidence.
        let mut short = blob.clone();
        short.truncate(20);
        assert_eq!(
            encode_map_set(MapSetMode::Prepare, 0, 0, &short),
            Err(ProtocolError::Malformed("map blob"))
        );
        // The encoder refuses to emit a push its receiver would reject.
        let mut bad = blob;
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        assert_eq!(
            encode_map_set(MapSetMode::Prepare, 0, 0, &bad),
            Err(ProtocolError::ChecksumMismatch)
        );
    }

    #[test]
    fn map_ok_round_trip() {
        for (status, epoch) in [
            (MapSetStatus::Prepared, 8u64),
            (MapSetStatus::Committed, 8),
            (MapSetStatus::Aborted, 7),
            (MapSetStatus::Shrunk, 8),
            (MapSetStatus::Stale, 7),
            (MapSetStatus::Unsupported, 0),
            (MapSetStatus::Failed, 7),
        ] {
            let body = encode_map_ok(status, epoch);
            assert_eq!(parse_map_ok(&body), Ok((status, epoch)));
        }
        assert!(parse_map_ok(&[opcode::MAP_OK, 7]).is_err());
        let mut bad = encode_map_ok(MapSetStatus::Prepared, 1);
        bad[1] = 99;
        assert!(parse_map_ok(&bad).is_err());
    }

    #[test]
    fn labels_round_trip() {
        let ids = [3, 99, 7];
        let body = encode_labels(42, &ids, b"PLL2 opaque").unwrap();
        assert_eq!(
            parse_labels(&body).unwrap(),
            (42, ids.to_vec(), &b"PLL2 opaque"[..])
        );
        // An empty push is valid on the wire (a gaining backend may
        // gain nothing); the engine judges the empty container.
        let empty = encode_labels(42, &[], &[]).unwrap();
        assert_eq!(parse_labels(&empty).unwrap(), (42, vec![], &[][..]));
        // Ids that run past the payload are malformed, not a panic.
        let mut short = encode_labels(1, &[5, 6], &[]).unwrap();
        short.truncate(15);
        short[9] = 9;
        let sum = checksum(&short[..11]);
        short[11..15].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            parse_labels(&short),
            Err(ProtocolError::Malformed("truncated label ids"))
        );
    }

    #[test]
    fn every_single_byte_flip_of_a_labels_push_is_detected() {
        let body = encode_labels(9, &[1, 2], &[0xAB, 0xCD, 0x11]).unwrap();
        for pos in 0..body.len() {
            for bit in 0..8 {
                let mut corrupted = body.clone();
                corrupted[pos] ^= 1 << bit;
                assert!(
                    parse_labels(&corrupted).is_err(),
                    "labels flip at byte {pos} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn labels_ok_round_trip() {
        for (status, received) in [
            (LabelsStatus::Ok, 17u32),
            (LabelsStatus::WrongEpoch, 0),
            (LabelsStatus::Rejected, 3),
            (LabelsStatus::Unsupported, 0),
        ] {
            let body = encode_labels_ok(status, received);
            assert_eq!(parse_labels_ok(&body), Ok((status, received)));
        }
        let mut bad = encode_labels_ok(LabelsStatus::Ok, 1);
        bad[1] = 9;
        assert!(parse_labels_ok(&bad).is_err());
        assert!(parse_labels_ok(&[opcode::LABELS_OK, 0]).is_err());
    }

    #[test]
    fn oversized_labels_push_is_a_wire_error_not_a_panic() {
        let big = vec![0u8; MAX_FRAME];
        assert_eq!(
            encode_labels(1, &[0], &big),
            Err(ProtocolError::Malformed("labels frame too large"))
        );
    }

    #[test]
    fn checksum_changes_on_any_input_change() {
        assert_ne!(checksum(b"hello"), checksum(b"hellp"));
        assert_ne!(checksum(b""), checksum(b"\0"));
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
    }

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let mut fb = FrameBuffer::new();
        let mut wire = Vec::new();
        write_frame(&mut wire, &[1, 2, 3]).unwrap();
        write_frame(&mut wire, &[4]).unwrap();
        // Feed one byte at a time.
        let mut frames = Vec::new();
        let mut frame = Vec::new();
        for &b in &wire {
            fb.push(&[b]);
            while fb.next_frame_into(&mut frame).unwrap() {
                frames.push(frame.clone());
            }
        }
        assert_eq!(frames, vec![vec![1, 2, 3], vec![4]]);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocating() {
        let mut fb = FrameBuffer::new();
        fb.push(&u32::MAX.to_le_bytes());
        assert_eq!(
            fb.next_frame_into(&mut Vec::new()),
            Err(ProtocolError::FrameTooLarge(u32::MAX))
        );
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(read_frame(&mut wire.as_slice()).is_err());
    }

    proptest! {
        #[test]
        fn parsers_never_panic_on_random_bytes(body in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = parse_hello(&body);
            let _ = parse_hello_ok(&body);
            let _ = parse_batch(&body);
            let _ = parse_batch_ctx(&body, VERSION);
            let _ = parse_stats(&body);
            let _ = parse_health(&body);
            let _ = parse_goodbye(&body);
            let _ = parse_trace_dump(&body);
            let _ = parse_batch_reply(&body, VERSION);
            let _ = parse_stats_reply(&body);
            let _ = parse_health_reply(&body);
            let _ = parse_map_get(&body);
            let _ = parse_map_reply(&body);
            let _ = parse_map_set(&body);
            let _ = parse_map_ok(&body);
            let _ = parse_labels(&body);
            let _ = parse_labels_ok(&body);
            let _ = validate_map_blob(&body);
        }

        #[test]
        fn batch_round_trips_random(
            raw in proptest::collection::vec((0u8..2, any::<u32>(), any::<u32>()), 0..64),
        ) {
            let queries: Vec<Query> = raw
                .iter()
                .map(|&(k, u, v)| if k == 0 { Query::adjacent(u, v) } else { Query::distance(u, v) })
                .collect();
            prop_assert_eq!(parse_batch(&encode_batch(&queries).unwrap()).unwrap(), queries);
        }
    }
}
