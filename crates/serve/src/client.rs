//! Blocking client, the retrying [`ResilientClient`], and the load
//! generator.
//!
//! [`Client`] is a thin synchronous wrapper over one TCP connection:
//! handshake on connect, then batched request/reply in lockstep, with
//! replies read through a [`BufReader`] (one read syscall each). Every
//! failure surfaces as a raw [`io::Error`]; [`ClientError::classify`]
//! sorts those into [`Retryable`](ClientError::Retryable) vs
//! [`Fatal`](ClientError::Fatal), and [`ResilientClient`] acts on that
//! taxonomy — per-request deadlines, bounded exponential backoff with
//! jitter, and automatic reconnect-and-replay, which is sound because
//! `BATCH` is idempotent (labels are immutable, answers are pure reads).
//! The [`loadgen`] module drives many clients from worker threads,
//! replaying uniform or Zipf-skewed adjacency query mixes against a
//! server and optionally verifying every answer against the source
//! graph.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pl_obs::TraceContext;
use pl_wire::protocol::{
    encode_batch_ctx, encode_hello, encode_labels, encode_map_get, encode_map_set,
    encode_trace_dump, opcode, parse_batch_reply, parse_health_reply, parse_hello_ok,
    parse_labels_ok, parse_map_ok, parse_map_reply, parse_stats_reply, read_frame,
    trace_dump_flags, write_frame, Answer, HealthReport, LabelsStatus, MapSetMode, MapSetStatus,
    Query, VERSION,
};
use pl_wire::stats::Snapshot;

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// One connection to a pl-serve server, already past the handshake.
#[derive(Debug)]
pub struct Client {
    /// Replies are read through the buffer; requests bypass it.
    stream: BufReader<TcpStream>,
    tag: u8,
    n: u32,
}

impl Client {
    /// Connects and performs the HELLO handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_deadline(addr, None)
    }

    /// [`connect`](Self::connect) with the socket deadline applied
    /// *before* the handshake bytes, so a stalled (rather than dead)
    /// server cannot wedge the connect forever. The deadline stays in
    /// force for subsequent requests, as with
    /// [`set_io_deadline`](Self::set_io_deadline).
    pub fn connect_deadline(
        addr: impl ToSocketAddrs,
        deadline: Option<Duration>,
    ) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(deadline)?;
        stream.set_write_timeout(deadline)?;
        write_frame(&mut stream, &encode_hello())?;
        let mut stream = BufReader::new(stream);
        let reply = read_frame(&mut stream)?;
        match reply.first() {
            Some(&opcode::HELLO_OK) => {
                let (tag, n) = parse_hello_ok(&reply).map_err(|e| bad_data(e.to_string()))?;
                Ok(Self { stream, tag, n })
            }
            Some(&opcode::ERROR) => Err(bad_data(format!(
                "server rejected handshake: {}",
                String::from_utf8_lossy(&reply[1..])
            ))),
            Some(&opcode::OVERLOADED) => Err(bad_data("server overloaded, connection shed")),
            _ => Err(bad_data("unexpected handshake reply")),
        }
    }

    /// Sets (or clears) the socket read/write deadline for every
    /// subsequent request on this connection.
    pub fn set_io_deadline(&self, deadline: Option<Duration>) -> io::Result<()> {
        self.stream.get_ref().set_read_timeout(deadline)?;
        self.stream.get_ref().set_write_timeout(deadline)
    }

    /// Scheme tag byte the server is serving.
    #[must_use]
    pub fn tag(&self) -> u8 {
        self.tag
    }

    /// Vertex count of the served labeling.
    #[must_use]
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Sends one batch and reads the matching reply (answers in query
    /// order).
    pub fn batch(&mut self, queries: &[Query]) -> io::Result<Vec<Answer>> {
        self.batch_ctx(queries, None)
    }

    /// [`batch`](Self::batch) with an optional trace context, which
    /// rides the `TRACE_CTX` trailer so the server's spans parent to the
    /// caller.
    pub fn batch_ctx(
        &mut self,
        queries: &[Query],
        ctx: Option<&TraceContext>,
    ) -> io::Result<Vec<Answer>> {
        self.send_batch_ctx(queries, ctx)?;
        self.recv_batch(queries.len())
    }

    /// Writes one BATCH without waiting for its reply, so a caller can
    /// put a batch on each of several connections before it reads any.
    /// Pair every call with one [`recv_batch`](Self::recv_batch).
    fn send_batch_ctx(&mut self, queries: &[Query], ctx: Option<&TraceContext>) -> io::Result<()> {
        let body = encode_batch_ctx(queries, ctx, VERSION).map_err(|e| bad_data(e.to_string()))?;
        write_frame(self.stream.get_mut(), &body)
    }

    /// Reads the reply to the BATCH of `count` queries that
    /// [`send_batch_ctx`](Self::send_batch_ctx) wrote.
    fn recv_batch(&mut self, count: usize) -> io::Result<Vec<Answer>> {
        let reply = self.read_reply(opcode::BATCH_REPLY, "batch reply")?;
        let answers = parse_batch_reply(&reply, VERSION).map_err(|e| bad_data(e.to_string()))?;
        if answers.len() != count {
            return Err(bad_data("reply count mismatch"));
        }
        Ok(answers)
    }

    /// Writes `body`, then reads the reply frame, which must open with
    /// `reply_op`; an ERROR reply becomes a "server error" I/O error.
    fn round_trip(&mut self, body: &[u8], reply_op: u8, what: &str) -> io::Result<Vec<u8>> {
        write_frame(self.stream.get_mut(), body)?;
        self.read_reply(reply_op, what)
    }

    fn read_reply(&mut self, reply_op: u8, what: &str) -> io::Result<Vec<u8>> {
        let reply = read_frame(&mut self.stream)?;
        match reply.first() {
            Some(&op) if op == reply_op => Ok(reply),
            Some(&opcode::ERROR) => Err(bad_data(format!(
                "server error: {}",
                String::from_utf8_lossy(&reply[1..])
            ))),
            _ => Err(bad_data(format!("unexpected {what}"))),
        }
    }

    /// Single adjacency query.
    pub fn adjacent(&mut self, u: u32, v: u32) -> io::Result<bool> {
        match self.batch(&[Query::adjacent(u, v)])?[0] {
            Answer::Adjacent => Ok(true),
            Answer::NotAdjacent => Ok(false),
            other => Err(bad_data(format!("unexpected answer {other:?}"))),
        }
    }

    /// Single distance query; `None` = beyond the scheme's bound.
    pub fn distance(&mut self, u: u32, v: u32) -> io::Result<Option<u32>> {
        match self.batch(&[Query::distance(u, v)])?[0] {
            Answer::Distance(d) => Ok(Some(d)),
            Answer::Unreachable => Ok(None),
            other => Err(bad_data(format!("unexpected answer {other:?}"))),
        }
    }

    /// Fetches the server's metrics snapshot.
    pub fn stats(&mut self) -> io::Result<Snapshot> {
        let reply = self.round_trip(&[opcode::STATS], opcode::STATS_REPLY, "stats reply")?;
        parse_stats_reply(&reply).map_err(|e| bad_data(e.to_string()))
    }

    /// Fetches the server's liveness report.
    pub fn health(&mut self) -> io::Result<HealthReport> {
        let reply = self.round_trip(&[opcode::HEALTH], opcode::HEALTH_REPLY, "health reply")?;
        parse_health_reply(&reply).map_err(|e| bad_data(e.to_string()))
    }

    /// Drains the server's trace ring buffers as JSONL (one event per
    /// line, possibly empty).
    pub fn trace_dump(&mut self) -> io::Result<String> {
        self.trace_dump_with(0)
    }

    /// Non-consuming [`trace_dump`](Self::trace_dump): the server's
    /// reader watermark stays put, so concurrent observers each see the
    /// full stream.
    pub fn trace_snapshot(&mut self) -> io::Result<String> {
        self.trace_dump_with(trace_dump_flags::SNAPSHOT)
    }

    /// `TRACE_DUMP` with explicit flag bits (0 = the consuming drain).
    pub fn trace_dump_with(&mut self, flags: u8) -> io::Result<String> {
        let reply = self.round_trip(
            &encode_trace_dump(flags),
            opcode::TRACE_REPLY,
            "trace reply",
        )?;
        String::from_utf8(reply[1..].to_vec()).map_err(|_| bad_data("trace reply is not UTF-8"))
    }

    /// Fetches the peer's current serialized cluster map (`None` when
    /// it serves no map yet).
    pub fn map_get(&mut self) -> io::Result<Option<Vec<u8>>> {
        let reply = self.round_trip(&encode_map_get(), opcode::MAP_REPLY, "map reply")?;
        parse_map_reply(&reply).map_err(|e| bad_data(e.to_string()))
    }

    /// Pushes a map-state transition (`prepare`/`commit`/`abort`/
    /// `shrink`) and returns the peer's verdict plus its current epoch.
    /// `backend` is the receiver's index in the pushed map (or
    /// [`pl_wire::protocol::MAP_TARGET_ROUTER`]); `moved` is only
    /// meaningful on a router commit.
    pub fn map_set(
        &mut self,
        mode: MapSetMode,
        backend: u32,
        moved: u64,
        map: &[u8],
    ) -> io::Result<(MapSetStatus, u64)> {
        let body =
            encode_map_set(mode, backend, moved, map).map_err(|e| bad_data(e.to_string()))?;
        let reply = self.round_trip(&body, opcode::MAP_OK, "map ok")?;
        parse_map_ok(&reply).map_err(|e| bad_data(e.to_string()))
    }

    /// Streams one frame of migrating labels for the staged epoch and
    /// returns the peer's verdict plus its buffered-label count.
    pub fn push_labels(
        &mut self,
        epoch: u64,
        entries: &[(u32, &[u8])],
    ) -> io::Result<(LabelsStatus, u32)> {
        let body = encode_labels(epoch, entries).map_err(|e| bad_data(e.to_string()))?;
        let reply = self.round_trip(&body, opcode::LABELS_OK, "labels ok")?;
        parse_labels_ok(&reply).map_err(|e| bad_data(e.to_string()))
    }

    /// Orderly close: GOODBYE, await GOODBYE_OK.
    pub fn goodbye(mut self) -> io::Result<()> {
        self.round_trip(&[opcode::GOODBYE], opcode::GOODBYE_OK, "goodbye reply")
            .map(drop)
    }

    /// Low-level escape hatch for protocol tests: send raw body, read
    /// raw reply.
    pub fn raw_round_trip(&mut self, body: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(self.stream.get_mut(), body)?;
        read_frame(&mut self.stream)
    }
}

/// Why a retryable request failed — attached to
/// [`ClientError::Retryable`] so callers (and tests) can see what the
/// retry loop is absorbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryKind {
    /// The request exceeded its I/O deadline.
    Timeout,
    /// The connection died (reset, refused, EOF mid-frame, ...);
    /// reconnect and replay.
    Io,
    /// The reply arrived but failed validation (checksum mismatch,
    /// short frame); re-ask for a clean copy.
    Corrupt,
    /// The server said it is overloaded (shed frame or
    /// [`Answer::Overloaded`]); back off, then retry.
    Overloaded,
}

/// The client-side error taxonomy: every failure is either worth
/// retrying (transient transport/overload conditions, given that BATCH
/// requests are idempotent) or fatal (the request itself can never
/// succeed, e.g. a handshake rejection).
#[derive(Debug)]
pub enum ClientError {
    /// Transient; [`ResilientClient`] reconnects and replays.
    Retryable { kind: RetryKind, source: io::Error },
    /// Permanent; retrying verbatim cannot help.
    Fatal(io::Error),
}

impl ClientError {
    /// Sorts a raw I/O error into the taxonomy.
    #[must_use]
    pub fn classify(e: io::Error) -> Self {
        use io::ErrorKind as K;
        match e.kind() {
            K::TimedOut | K::WouldBlock => Self::Retryable {
                kind: RetryKind::Timeout,
                source: e,
            },
            K::ConnectionReset
            | K::ConnectionAborted
            | K::ConnectionRefused
            | K::BrokenPipe
            | K::NotConnected
            | K::UnexpectedEof
            | K::Interrupted => Self::Retryable {
                kind: RetryKind::Io,
                source: e,
            },
            K::InvalidData => {
                let msg = e.to_string();
                if msg.contains("overloaded") {
                    Self::Retryable {
                        kind: RetryKind::Overloaded,
                        source: e,
                    }
                } else if msg.contains("rejected handshake")
                    || msg.contains("unsupported protocol version")
                {
                    Self::Fatal(e)
                } else {
                    // Checksum mismatches, short frames, garbled
                    // replies: the *bytes* are suspect, not the
                    // request. A fresh connection gets a fresh copy.
                    Self::Retryable {
                        kind: RetryKind::Corrupt,
                        source: e,
                    }
                }
            }
            _ => Self::Fatal(e),
        }
    }

    /// `true` for the [`Retryable`](Self::Retryable) arm.
    #[must_use]
    pub fn is_retryable(&self) -> bool {
        matches!(self, Self::Retryable { .. })
    }

    /// The underlying I/O error.
    #[must_use]
    pub fn source_io(&self) -> &io::Error {
        match self {
            Self::Retryable { source, .. } => source,
            Self::Fatal(e) => e,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Retryable { kind, source } => write!(f, "retryable ({kind:?}): {source}"),
            Self::Fatal(e) => write!(f, "fatal: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// Retry/deadline policy for [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries = 3` allows
    /// four tries total).
    pub max_retries: u32,
    /// Per-request socket read/write deadline; `None` blocks forever.
    pub deadline: Option<Duration>,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the backoff jitter (deterministic for tests).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            deadline: Some(Duration::from_secs(1)),
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_secs(1),
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (0-based): exponential
    /// with full lower-half jitter, `d/2 + U(0, d/2)` where
    /// `d = min(base · 2^attempt, cap)`. Public because the cluster
    /// router reuses it for quarantine re-probe pacing (and the property
    /// tests pin the bounds the router depends on).
    pub fn backoff(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let base = self.backoff_base.as_nanos() as u64;
        let cap = self.backoff_cap.as_nanos() as u64;
        let d = base.saturating_mul(1u64 << attempt.min(20)).min(cap.max(1));
        let jitter: f64 = rng.gen();
        Duration::from_nanos(d / 2 + ((d / 2) as f64 * jitter) as u64)
    }
}

/// A [`Client`] wrapped in deadlines, bounded exponential backoff with
/// jitter, and automatic reconnect-and-replay.
///
/// Replaying a `BATCH` verbatim is safe because the request is
/// idempotent: labels are immutable and answers are pure reads, so a
/// request that died mid-flight can be re-asked without double effects.
/// Every absorbed failure increments the process-global
/// `plserve_retries_total` counter and the [`retries`](Self::retries)
/// tally.
#[derive(Debug)]
pub struct ResilientClient {
    addrs: Vec<SocketAddr>,
    policy: RetryPolicy,
    client: Option<Client>,
    rng: StdRng,
    retries: u64,
}

impl ResilientClient {
    /// Resolves `addr` and connects (with retries per `policy`).
    pub fn connect(addr: impl ToSocketAddrs, policy: RetryPolicy) -> Result<Self, ClientError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(ClientError::classify)?
            .collect();
        if addrs.is_empty() {
            return Err(ClientError::Fatal(bad_data("no addresses resolved")));
        }
        let rng = StdRng::seed_from_u64(policy.seed);
        let mut this = Self {
            addrs,
            policy,
            client: None,
            rng,
            retries: 0,
        };
        this.with_retries(|_| Ok(()))?;
        Ok(this)
    }

    /// Failures absorbed by the retry loop so far.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The active retry policy.
    #[must_use]
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Vertex count of the served labeling (from the most recent
    /// handshake).
    pub fn n(&mut self) -> Result<u32, ClientError> {
        self.with_retries(|c| Ok(c.n()))
    }

    /// Sends one batch, replaying on transient failures. Transport
    /// errors replay the whole batch (inside [`with_retries`]); an
    /// [`Answer::Overloaded`] in an otherwise healthy reply re-asks
    /// only the shed queries — settled answers are kept, so one
    /// overloaded shard cannot force the rest of a large batch to
    /// re-roll its luck every round. Both are sound because the batch
    /// is idempotent.
    ///
    /// [`with_retries`]: Self::with_retries
    pub fn batch(&mut self, queries: &[Query]) -> Result<Vec<Answer>, ClientError> {
        self.batch_ctx(queries, None)
    }

    /// [`batch`](Self::batch) with an optional trace context; every
    /// retry and per-query re-ask re-sends the same context, so a
    /// replayed request stays attributable to the original trace.
    pub fn batch_ctx(
        &mut self,
        queries: &[Query],
        ctx: Option<&TraceContext>,
    ) -> Result<Vec<Answer>, ClientError> {
        self.settle(queries, ctx, None)
    }

    /// First half of a pipelined [`batch_ctx`](Self::batch_ctx): writes
    /// the BATCH on the current connection (dialing once if there is
    /// none) and returns without waiting, so a caller can put one batch
    /// on each of several servers before reading any reply. No retries
    /// here: a failure only drops the connection, and the paired
    /// [`finish_batch`](Self::finish_batch) counts it as the first
    /// attempt.
    pub fn start_batch(&mut self, queries: &[Query], ctx: Option<&TraceContext>) {
        let sent = self.ensure_connected().and_then(|c| {
            c.send_batch_ctx(queries, ctx)
                .map_err(ClientError::classify)
        });
        if sent.is_err() {
            self.client = None;
        }
    }

    /// Second half of a pipelined batch: reads the reply to the
    /// [`start_batch`](Self::start_batch) made with the same `queries`
    /// and `ctx`. From there it continues exactly as
    /// [`batch_ctx`](Self::batch_ctx) after its first attempt: a failed
    /// write or read reconnects and replays, and retryable slots are
    /// re-asked, within the same retry budget.
    pub fn finish_batch(
        &mut self,
        queries: &[Query],
        ctx: Option<&TraceContext>,
    ) -> Result<Vec<Answer>, ClientError> {
        let first = match &mut self.client {
            Some(client) => client.recv_batch(queries.len()),
            None => Err(io::ErrorKind::NotConnected.into()),
        };
        self.settle(queries, ctx, Some(first))
    }

    /// The [`batch_ctx`](Self::batch_ctx) loop; `first`, when given, is
    /// the outcome of an attempt already made for the whole batch.
    fn settle(
        &mut self,
        queries: &[Query],
        ctx: Option<&TraceContext>,
        mut first: Option<io::Result<Vec<Answer>>>,
    ) -> Result<Vec<Answer>, ClientError> {
        let mut answers: Vec<Option<Answer>> = vec![None; queries.len()];
        let mut pending: Vec<usize> = (0..queries.len()).collect();
        let mut round = 0u32;
        loop {
            let subset: Vec<Query> = pending.iter().map(|&i| queries[i]).collect();
            let got = self.retry_after(first.take(), |c| c.batch_ctx(&subset, ctx))?;
            let mut still_pending = Vec::new();
            for (&slot, answer) in pending.iter().zip(got) {
                if answer.is_retryable() {
                    still_pending.push(slot);
                } else {
                    answers[slot] = Some(answer);
                }
            }
            if still_pending.is_empty() {
                return Ok(answers
                    .into_iter()
                    .map(|a| a.expect("every slot settled")) // lint: panic-ok(still_pending is empty here, so every slot was filled by the loop above)
                    .collect());
            }
            if round >= self.policy.max_retries {
                return Err(ClientError::Retryable {
                    kind: RetryKind::Overloaded,
                    source: io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "server overloaded for {} of {} queries after {round} re-asks",
                            still_pending.len(),
                            queries.len()
                        ),
                    ),
                });
            }
            pending = still_pending;
            round += 1;
            self.note_retry(round - 1);
        }
    }

    /// Single adjacency query with retries.
    pub fn adjacent(&mut self, u: u32, v: u32) -> Result<bool, ClientError> {
        match self.batch(&[Query::adjacent(u, v)])?[0] {
            Answer::Adjacent => Ok(true),
            Answer::NotAdjacent => Ok(false),
            other => Err(ClientError::Fatal(bad_data(format!(
                "unexpected answer {other:?}"
            )))),
        }
    }

    /// Fetches a stats snapshot with retries.
    pub fn stats(&mut self) -> Result<Snapshot, ClientError> {
        self.with_retries(Client::stats)
    }

    /// Fetches the liveness report with retries.
    pub fn health(&mut self) -> Result<HealthReport, ClientError> {
        self.with_retries(Client::health)
    }

    /// Drains (or, with [`trace_dump_flags::SNAPSHOT`], snapshots) the
    /// server's trace rings as JSONL, with retries. The router's merged
    /// cluster drain pulls each backend's ring through this.
    pub fn trace_dump_with(&mut self, flags: u8) -> Result<String, ClientError> {
        self.with_retries(|c| c.trace_dump_with(flags))
    }

    /// Best-effort orderly close.
    pub fn goodbye(mut self) {
        if let Some(client) = self.client.take() {
            let _ = client.goodbye();
        }
    }

    /// Runs `op` against a live connection, reconnecting and replaying
    /// on retryable failures, with backoff between attempts.
    fn with_retries<T>(
        &mut self,
        op: impl FnMut(&mut Client) -> io::Result<T>,
    ) -> Result<T, ClientError> {
        self.retry_after(None, op)
    }

    /// [`with_retries`](Self::with_retries) whose first attempt, when
    /// `first` is given, was already made and had that outcome.
    fn retry_after<T>(
        &mut self,
        mut first: Option<io::Result<T>>,
        mut op: impl FnMut(&mut Client) -> io::Result<T>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0u32;
        loop {
            let result = match first.take() {
                Some(done) => done.map_err(ClientError::classify),
                None => self
                    .ensure_connected()
                    .and_then(|client| op(client).map_err(ClientError::classify)),
            };
            let err = match result {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            // Anything that failed leaves the stream in an unknown
            // framing state; only a fresh connection is trustworthy.
            self.client = None;
            if !err.is_retryable() || attempt >= self.policy.max_retries {
                return Err(err);
            }
            self.note_retry(attempt);
            attempt += 1;
        }
    }

    /// Books one absorbed failure (tally, global counter, trace event)
    /// and sleeps the backoff for `attempt`.
    fn note_retry(&mut self, attempt: u32) {
        self.retries += 1;
        pl_obs::global().counter("plserve_retries_total").inc();
        pl_obs::event!("client.retry", attempt);
        std::thread::sleep(self.policy.backoff(attempt, &mut self.rng));
    }

    fn ensure_connected(&mut self) -> Result<&mut Client, ClientError> {
        match &mut self.client {
            Some(client) => Ok(client),
            slot => {
                // The deadline covers the handshake too: a stalled server
                // must not wedge the connect beyond the policy's budget.
                let client = Client::connect_deadline(&self.addrs[..], self.policy.deadline)
                    .map_err(ClientError::classify)?;
                Ok(slot.insert(client))
            }
        }
    }
}

pub mod loadgen {
    //! Multi-connection load generator.

    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::{Answer, Client, Query, ResilientClient, RetryPolicy};

    /// Vertex-selection distribution for generated queries.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum Skew {
        /// Both endpoints uniform over `0..n`.
        Uniform,
        /// Endpoints Zipf-distributed with this exponent: vertex of rank
        /// `r` drawn with probability ∝ `r^{-s}`. Rank order is
        /// [`LoadgenConfig::hot_order`] when given, else vertex id.
        Zipf(f64),
    }

    /// Load-generator parameters.
    #[derive(Debug, Clone)]
    pub struct LoadgenConfig {
        /// Concurrent connections (worker threads).
        pub connections: usize,
        /// Queries each connection issues.
        pub requests_per_conn: usize,
        /// Queries per BATCH frame.
        pub batch: usize,
        /// Endpoint distribution.
        pub skew: Skew,
        /// Base RNG seed; connection `i` uses `seed + i`.
        pub seed: u64,
        /// Optional rank → vertex map for [`Skew::Zipf`] (e.g. vertices
        /// in degree-descending order, making the hot set the hubs).
        /// Must be a permutation of `0..n` when present.
        pub hot_order: Option<Vec<u32>>,
        /// When set, workers use [`ResilientClient`] with this policy
        /// (worker `i` jitters from `policy.seed + i`): transient
        /// failures are retried, and batches that exhaust their retries
        /// are counted in [`LoadReport::failed`] instead of aborting
        /// the run. `None` keeps the original fail-fast behaviour.
        pub retry: Option<RetryPolicy>,
    }

    impl Default for LoadgenConfig {
        fn default() -> Self {
            Self {
                connections: 4,
                requests_per_conn: 10_000,
                batch: 64,
                skew: Skew::Uniform,
                seed: 0x1abe1,
                hot_order: None,
                retry: None,
            }
        }
    }

    /// What a load run observed.
    #[derive(Debug, Clone, Copy)]
    pub struct LoadReport {
        /// Queries answered across all connections.
        pub queries: u64,
        /// Of those, answered "adjacent".
        pub adjacent_true: u64,
        /// Answers disagreeing with the reference graph (always 0
        /// without a reference; see [`run_verified`]).
        pub mismatches: u64,
        /// Wall-clock seconds for the whole run.
        pub elapsed_secs: f64,
        /// Client-side aggregate throughput.
        pub qps: f64,
        /// Transient failures absorbed by the retry loops (0 without
        /// [`LoadgenConfig::retry`]).
        pub retries: u64,
        /// Queries abandoned after exhausting their retries (0 without
        /// [`LoadgenConfig::retry`], where any failure aborts instead).
        pub failed: u64,
        /// 99th-percentile client-observed batch round-trip, ns
        /// (histogram bucket upper edge; 0 if nothing completed).
        pub p99_batch_ns: u64,
    }

    impl LoadReport {
        /// Fraction of issued queries that eventually succeeded,
        /// in `[0, 1]` (1.0 when nothing was issued).
        #[must_use]
        pub fn success_rate(&self) -> f64 {
            let attempted = self.queries + self.failed;
            if attempted == 0 {
                1.0
            } else {
                self.queries as f64 / attempted as f64
            }
        }
    }

    /// Rank sampler: inverse-CDF over `P(r) ∝ (r+1)^{-s}`, or uniform.
    struct VertexSampler {
        n: u32,
        /// Cumulative probabilities for Zipf; empty = uniform.
        cdf: Vec<f64>,
    }

    impl VertexSampler {
        fn new(n: u32, skew: Skew) -> Self {
            let cdf = match skew {
                Skew::Uniform => Vec::new(),
                Skew::Zipf(s) => {
                    let mut weights: Vec<f64> = (0..n).map(|r| (r as f64 + 1.0).powf(-s)).collect();
                    let total: f64 = weights.iter().sum();
                    let mut acc = 0.0;
                    for w in &mut weights {
                        acc += *w / total;
                        *w = acc;
                    }
                    weights
                }
            };
            Self { n, cdf }
        }

        /// Draws a rank in `0..n`.
        fn sample(&self, rng: &mut StdRng) -> u32 {
            if self.cdf.is_empty() {
                return rng.gen_range(0..self.n);
            }
            let x: f64 = rng.gen();
            self.cdf
                .partition_point(|&c| c < x)
                .min(self.n as usize - 1) as u32
        }
    }

    fn generate_batch(
        sampler: &VertexSampler,
        hot_order: Option<&[u32]>,
        rng: &mut StdRng,
        len: usize,
    ) -> Vec<Query> {
        (0..len)
            .map(|_| {
                let mut pick = || {
                    let rank = sampler.sample(rng);
                    match hot_order {
                        Some(order) => order[rank as usize],
                        None => rank,
                    }
                };
                Query::adjacent(pick(), pick())
            })
            .collect()
    }

    /// Per-run shared tallies, bumped by every worker.
    struct Tallies {
        queries: AtomicU64,
        adjacent_true: AtomicU64,
        mismatches: AtomicU64,
        retries: AtomicU64,
        failed: AtomicU64,
        batch_latency: pl_obs::Histogram,
    }

    /// Checks one answered batch into the tallies; `Err` on an answer
    /// the workload should never see (out of range, malformed, ...).
    fn tally_batch(
        tallies: &Tallies,
        batch: &[Query],
        answers: &[Answer],
        reference: Option<&pl_graph::Graph>,
    ) -> std::io::Result<()> {
        for (q, a) in batch.iter().zip(answers) {
            match a {
                Answer::Adjacent => {
                    tallies.adjacent_true.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(loadgen tally; workers are joined before the totals are read, and join provides the happens-before)
                }
                Answer::NotAdjacent => {}
                other => return Err(super::bad_data(format!("unexpected answer {other:?}"))),
            }
            if let Some(g) = reference {
                let expected = g.has_edge(q.u, q.v);
                let got = *a == Answer::Adjacent;
                if expected != got {
                    tallies.mismatches.fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(loadgen tally; read only after worker join)
                }
            }
        }
        tallies
            .queries
            .fetch_add(batch.len() as u64, Ordering::Relaxed); // lint: relaxed-ok(loadgen tally; read only after worker join)
        Ok(())
    }

    /// Original fail-fast worker: any error aborts the run.
    fn worker_failfast(
        addr: std::net::SocketAddr,
        config: &LoadgenConfig,
        conn_idx: usize,
        tallies: &Tallies,
        reference: Option<&pl_graph::Graph>,
    ) -> std::io::Result<()> {
        let mut client = Client::connect(addr)?;
        let sampler = VertexSampler::new(client.n(), config.skew);
        let mut rng = StdRng::seed_from_u64(config.seed + conn_idx as u64);
        let mut remaining = config.requests_per_conn;
        while remaining > 0 {
            let len = remaining.min(config.batch);
            let batch = generate_batch(&sampler, config.hot_order.as_deref(), &mut rng, len);
            let t0 = Instant::now();
            let answers = client.batch(&batch)?;
            tallies.batch_latency.record(t0.elapsed().as_nanos() as u64);
            tally_batch(tallies, &batch, &answers, reference)?;
            remaining -= len;
        }
        client.goodbye()
    }

    /// Resilient worker: transient failures retry inside
    /// [`ResilientClient`]; a batch that exhausts its retries is
    /// counted as failed and the run continues. Only fatal errors
    /// abort.
    fn worker_resilient(
        addr: std::net::SocketAddr,
        config: &LoadgenConfig,
        policy: &RetryPolicy,
        conn_idx: usize,
        tallies: &Tallies,
        reference: Option<&pl_graph::Graph>,
    ) -> std::io::Result<()> {
        let policy = RetryPolicy {
            seed: policy.seed.wrapping_add(conn_idx as u64),
            ..policy.clone()
        };
        let mut client = ResilientClient::connect(addr, policy)
            .map_err(|e| std::io::Error::new(e.source_io().kind(), e.to_string()))?;
        let n = client
            .n()
            .map_err(|e| std::io::Error::new(e.source_io().kind(), e.to_string()))?;
        let sampler = VertexSampler::new(n, config.skew);
        let mut rng = StdRng::seed_from_u64(config.seed + conn_idx as u64);
        let mut remaining = config.requests_per_conn;
        let result = loop {
            if remaining == 0 {
                break Ok(());
            }
            let len = remaining.min(config.batch);
            remaining -= len;
            let batch = generate_batch(&sampler, config.hot_order.as_deref(), &mut rng, len);
            let t0 = Instant::now();
            match client.batch(&batch) {
                Ok(answers) => {
                    tallies.batch_latency.record(t0.elapsed().as_nanos() as u64);
                    if tally_batch(tallies, &batch, &answers, reference).is_err() {
                        // An impossible answer is a correctness bug,
                        // not load noise — surface it as a mismatch so
                        // verified runs fail loudly.
                        tallies
                            .mismatches
                            .fetch_add(batch.len() as u64, Ordering::Relaxed); // lint: relaxed-ok(loadgen tally; read only after worker join)
                    }
                }
                Err(e) if e.is_retryable() => {
                    tallies.failed.fetch_add(len as u64, Ordering::Relaxed); // lint: relaxed-ok(loadgen tally; read only after worker join)
                }
                Err(e) => {
                    break Err(std::io::Error::new(e.source_io().kind(), e.to_string()));
                }
            }
        };
        tallies
            .retries
            .fetch_add(client.retries(), Ordering::Relaxed); // lint: relaxed-ok(loadgen tally; read only after worker join)
        client.goodbye();
        result
    }

    fn run_inner(
        addr: std::net::SocketAddr,
        config: &LoadgenConfig,
        reference: Option<&pl_graph::Graph>,
    ) -> std::io::Result<LoadReport> {
        assert!(config.connections >= 1, "need at least one connection");
        assert!(config.batch >= 1, "need a positive batch size");
        let tallies = Tallies {
            queries: AtomicU64::new(0),
            adjacent_true: AtomicU64::new(0),
            mismatches: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batch_latency: pl_obs::Histogram::default(),
        };
        let started = Instant::now();
        let result: std::io::Result<()> = std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(config.connections);
            for conn_idx in 0..config.connections {
                let tallies = &tallies;
                workers.push(scope.spawn(move || -> std::io::Result<()> {
                    match &config.retry {
                        Some(policy) => {
                            worker_resilient(addr, config, policy, conn_idx, tallies, reference)
                        }
                        None => worker_failfast(addr, config, conn_idx, tallies, reference),
                    }
                }));
            }
            for w in workers {
                w.join().expect("loadgen worker panicked")?; // lint: panic-ok(loadgen is an operator-run bench tool; relaying a worker panic to the terminal is the intended failure mode)
            }
            Ok(())
        });
        result?;
        let elapsed_secs = started.elapsed().as_secs_f64();
        let total = tallies.queries.load(Ordering::Relaxed);
        Ok(LoadReport {
            queries: total,
            adjacent_true: tallies.adjacent_true.load(Ordering::Relaxed),
            mismatches: tallies.mismatches.load(Ordering::Relaxed),
            elapsed_secs,
            qps: total as f64 / elapsed_secs.max(1e-9),
            retries: tallies.retries.load(Ordering::Relaxed),
            failed: tallies.failed.load(Ordering::Relaxed),
            p99_batch_ns: tallies.batch_latency.snapshot().quantile_ns(0.99),
        })
    }

    /// Runs the configured load against a server.
    pub fn run(addr: std::net::SocketAddr, config: &LoadgenConfig) -> std::io::Result<LoadReport> {
        run_inner(addr, config, None)
    }

    /// Like [`run`], but checks every adjacency answer against `g`;
    /// disagreements are counted in [`LoadReport::mismatches`].
    pub fn run_verified(
        addr: std::net::SocketAddr,
        config: &LoadgenConfig,
        g: &pl_graph::Graph,
    ) -> std::io::Result<LoadReport> {
        run_inner(addr, config, Some(g))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn zipf_sampler_skews_toward_low_ranks() {
            let sampler = VertexSampler::new(1_000, Skew::Zipf(1.2));
            let mut rng = StdRng::seed_from_u64(42);
            let mut head = 0usize;
            let draws = 20_000;
            for _ in 0..draws {
                if sampler.sample(&mut rng) < 10 {
                    head += 1;
                }
            }
            // Top-10 ranks carry far more than the uniform 1% of mass.
            assert!(
                head as f64 > draws as f64 * 0.25,
                "only {head}/{draws} draws in the head"
            );
        }

        #[test]
        fn uniform_sampler_covers_the_range() {
            let sampler = VertexSampler::new(8, Skew::Uniform);
            let mut rng = StdRng::seed_from_u64(7);
            let mut seen = [false; 8];
            for _ in 0..1_000 {
                seen[sampler.sample(&mut rng) as usize] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }

        #[test]
        fn zipf_samples_stay_in_range() {
            for n in [1u32, 2, 17] {
                let sampler = VertexSampler::new(n, Skew::Zipf(0.9));
                let mut rng = StdRng::seed_from_u64(u64::from(n));
                for _ in 0..500 {
                    assert!(sampler.sample(&mut rng) < n);
                }
            }
        }
    }
}
