//! The generic hardened TCP front-end, parameterized over a
//! [`QueryEngine`].
//!
//! One implementation of accept loop, per-connection lifecycle, HELLO
//! handshake, shedding, deadlines, drain-on-shutdown, and fault
//! injection serves both the single-node server (`pl_serve::server`)
//! and the cluster router (`pl_cluster::route`): each supplies only an
//! engine answering batches and reporting stats/health. The front-end
//! owns everything transport:
//!
//! - **Shedding**: [`FrontendOptions::max_conns`] caps concurrent
//!   connections; the cap is checked (and the slot claimed) in the
//!   accept loop so racing accepts cannot both squeeze past it. Shed
//!   peers get a single `OVERLOADED` frame (`plserve_shed_total`).
//! - **Deadlines**: [`FrontendOptions::idle_timeout`] reaps silent
//!   connections (`plserve_idle_reaped_total`);
//!   [`FrontendOptions::stall_timeout`] bounds a peer stalled mid-frame
//!   and doubles as the socket write timeout
//!   (`plserve_deadline_closes_total`).
//! - **Drain-on-shutdown**: after shutdown is signalled, connections
//!   serve every fully received frame and linger through a short quiet
//!   window for bytes still in flight before closing.
//! - **Fault injection**: a [`FaultPlan`] drives the deterministic
//!   harness of [`crate::fault`] — read/write delays, dropped and
//!   truncated reply frames, flipped `BATCH_REPLY` bytes (the reply
//!   checksum catches them), and per-query simulated store errors
//!   rolled *ahead* of engine dispatch.
//!
//! Per-connection reply encoding and frame reassembly reuse scratch
//! buffers, and frames go out through the shared vectored `write_frame`,
//! so the steady-state reply path performs no per-frame allocation.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pl_obs::MetricsRegistry;

use crate::fault::{FaultCounters, FaultInjector, FaultKind, FaultPlan};
use crate::protocol::{
    encode_batch_reply_into, encode_health_reply_into, encode_hello_ok_into, encode_labels_ok,
    encode_map_ok, encode_map_reply, encode_stats_reply_into, opcode, parse_batch_ctx,
    parse_goodbye, parse_health, parse_hello, parse_labels, parse_map_get, parse_map_set,
    parse_stats, parse_trace_dump, trace_dump_flags, write_frame, Answer, FrameBuffer,
    LabelsStatus, MapSetRequest, MapSetStatus, Query, MAX_FRAME, VERSION,
};
use crate::stats::{Metrics, Stats};

/// Poll interval for the accept loop and connection read timeout.
const POLL: Duration = Duration::from_millis(20);

/// After shutdown is signalled, a connection closes once it has seen no
/// new bytes for this long — frames already on the wire still get served.
const DRAIN_QUIET: Duration = Duration::from_millis(150);

/// What a front-end serves: anything that can answer query batches and
/// describe itself for HELLO/STATS/HEALTH/TRACE replies.
///
/// Implementations: the single-node label store (`pl_serve`) and the
/// scatter-gather cluster router (`pl_cluster`), which therefore share
/// one hardened transport.
pub trait QueryEngine: Send + Sync + 'static {
    /// Per-connection engine state (e.g. pooled downstream clients or
    /// reusable scratch). Created once per accepted connection.
    type Session: Send;

    /// Fresh state for a newly accepted connection.
    fn new_session(&self) -> Self::Session;

    /// Scheme tag byte for the HELLO_OK reply.
    fn scheme_tag(&self) -> u8;

    /// Vertex-universe size for the HELLO_OK reply.
    fn n(&self) -> u32;

    /// Answers `queries` in order, pushing exactly `queries.len()`
    /// answers. `answers` arrives cleared.
    fn answer_batch(
        &self,
        session: &mut Self::Session,
        queries: &[Query],
        answers: &mut Vec<Answer>,
    );

    /// Per-shard (or per-backend) liveness flags for HEALTH replies.
    fn health(&self) -> Vec<bool>;

    /// JSONL trace payload for TRACE_DUMP replies; the front-end
    /// truncates it to the frame cap at a line boundary, keeping the
    /// newest lines. `snapshot` selects the non-consuming read (the
    /// `TRACE_DUMP` `SNAPSHOT` flag). A router merges downstream backend
    /// rings here, which may use the session's pooled connections.
    fn trace_jsonl(&self, session: &mut Self::Session, snapshot: bool) -> String {
        let _ = session;
        if snapshot {
            pl_obs::trace::snapshot_jsonl()
        } else {
            pl_obs::trace::drain_jsonl()
        }
    }

    /// The engine's current serialized cluster map, answering a
    /// `MAP_GET`. Engines that serve no cluster map (a standalone
    /// backend before any map push, or a plain single-node server)
    /// return `None`, which the front-end encodes as an empty
    /// `MAP_REPLY`.
    fn map_payload(&self, session: &mut Self::Session) -> Option<Vec<u8>> {
        let _ = session;
        None
    }

    /// Applies a `MAP_SET` push (prepare/commit/abort/shrink an
    /// epoch-bumped cluster map) and returns the verdict plus the
    /// engine's current epoch afterwards. The blob arrives already
    /// structurally validated (magic + self-checksum); semantic
    /// validation — epoch ordering, map parameters — is the engine's.
    /// The default refuses: reconfiguration is opt-in per engine.
    fn map_install(&self, session: &mut Self::Session, req: &MapSetRequest) -> (MapSetStatus, u64) {
        let _ = (session, req);
        (MapSetStatus::Unsupported, 0)
    }

    /// Buffers a `LABELS` migration push for the staged epoch and
    /// returns the verdict plus the labels accepted so far this epoch.
    /// `labels` is the frame's opaque `PLL2` container, one label per
    /// id in `ids` order. The frame checksum has already been verified;
    /// parsing the container is the engine's. The default refuses.
    fn labels_install(
        &self,
        session: &mut Self::Session,
        epoch: u64,
        ids: &[u32],
        labels: &[u8],
    ) -> (LabelsStatus, u32) {
        let _ = (session, epoch, ids, labels);
        (LabelsStatus::Unsupported, 0)
    }

    /// The samples answering a wire `STATS` request, given `own`: the
    /// front-end registry's samples, engine and transport families
    /// alike. A router merges every reachable backend's samples in
    /// here, over the session's pooled connections; the default
    /// answers `own` alone.
    fn wire_stats(&self, session: &mut Self::Session, own: Stats) -> Stats {
        let _ = session;
        own
    }
}

/// The front-end's own instruments.
struct FrontStats {
    /// Wire metrics (`plserve_*` families).
    metrics: Metrics,
    /// Fault-injection counters (`plserve_faults_injected_total{kind}`).
    faults: FaultCounters,
}

/// Transport tuning knobs, shared by every front-end consumer.
#[derive(Debug, Clone, Default)]
pub struct FrontendOptions {
    /// Registry for the front-end's instruments; a fresh private
    /// registry when `None`. Pass the engine's registry so all families
    /// land on one scrape surface (instruments dedup by name+labels).
    pub registry: Option<Arc<MetricsRegistry>>,
    /// Maximum concurrent connections; further accepts are shed with an
    /// `OVERLOADED` frame (`plserve_shed_total`). `None` means no cap.
    pub max_conns: Option<usize>,
    /// Fault-injection plan for chaos testing; `None` (or an all-zero
    /// plan) serves faithfully.
    pub fault_plan: Option<FaultPlan>,
    /// Connections that send no bytes for this long are reaped
    /// (`plserve_idle_reaped_total`). `None` lets idle connections live
    /// until shutdown.
    pub idle_timeout: Option<Duration>,
    /// Deadline for a peer stalled mid-frame, and the socket write
    /// timeout for a peer that stops reading replies
    /// (`plserve_deadline_closes_total`). `None` disables both.
    pub stall_timeout: Option<Duration>,
}

/// Everything a connection thread needs, behind one `Arc`.
struct FrontShared<E: QueryEngine> {
    engine: Arc<E>,
    stats: FrontStats,
    registry: Arc<MetricsRegistry>,
    /// Connection cap; `usize::MAX` disables.
    max_conns: usize,
    fault_plan: Option<FaultPlan>,
    idle_timeout: Option<Duration>,
    stall_timeout: Option<Duration>,
    /// Connections currently being served (authoritative for shedding).
    live_conns: AtomicUsize,
    /// Join handles currently held by the accept loop (diagnostic; see
    /// [`FrontendHandle::conn_handle_count`]).
    conn_handles: AtomicUsize,
    /// Monotonic connection ids, feeding per-connection fault streams.
    conn_seq: AtomicU64,
    shutdown: AtomicBool,
}

/// Decrements the live-connection accounting when a connection thread
/// exits, however it exits.
struct ConnGuard<'a, E: QueryEngine>(&'a FrontShared<E>);

impl<E: QueryEngine> Drop for ConnGuard<'_, E> {
    fn drop(&mut self) {
        self.0.live_conns.fetch_sub(1, Ordering::SeqCst);
        self.0.stats.metrics.open_conns.add(-1);
    }
}

/// A running front-end. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) aborts rather than drains.
pub struct FrontendHandle<E: QueryEngine> {
    addr: SocketAddr,
    shared: Arc<FrontShared<E>>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl<E: QueryEngine> FrontendHandle<E> {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine this front-end serves.
    #[must_use]
    pub fn engine(&self) -> &Arc<E> {
        &self.shared.engine
    }

    /// The registry the front-end's instruments live in.
    #[must_use]
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// Connections currently being served.
    #[must_use]
    pub fn live_connections(&self) -> usize {
        self.shared.live_conns.load(Ordering::SeqCst)
    }

    /// Join handles the accept loop is currently holding. Finished
    /// handles are reaped every loop pass, so this stays bounded by the
    /// live-connection count (plus at most one poll interval of lag)
    /// rather than growing with every connection ever accepted.
    #[must_use]
    pub fn conn_handle_count(&self) -> usize {
        self.shared.conn_handles.load(Ordering::SeqCst)
    }

    /// Signals shutdown, waits for every connection to drain, and
    /// returns the registry's final samples.
    pub fn shutdown(mut self) -> Stats {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        Stats::of(&self.shared.registry)
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `engine` until
/// [`FrontendHandle::shutdown`].
pub fn bind<E: QueryEngine>(
    engine: Arc<E>,
    addr: impl ToSocketAddrs,
    options: FrontendOptions,
) -> std::io::Result<FrontendHandle<E>> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let registry = options
        .registry
        .unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
    let shared = Arc::new(FrontShared {
        engine,
        stats: FrontStats {
            metrics: Metrics::new(&registry),
            faults: FaultCounters::new(&registry),
        },
        registry,
        max_conns: options.max_conns.unwrap_or(usize::MAX),
        fault_plan: options.fault_plan.filter(FaultPlan::is_active),
        idle_timeout: options.idle_timeout,
        stall_timeout: options.stall_timeout,
        live_conns: AtomicUsize::new(0),
        conn_handles: AtomicUsize::new(0),
        conn_seq: AtomicU64::new(0),
        shutdown: AtomicBool::new(false),
    });
    let accept_shared = Arc::clone(&shared);
    let accept_thread = std::thread::Builder::new()
        .name("plwire-accept".into())
        .spawn(move || accept_loop(&listener, &accept_shared))?;
    Ok(FrontendHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
    })
}

fn accept_loop<E: QueryEngine>(listener: &TcpListener, shared: &Arc<FrontShared<E>>) {
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        // Reap finished connection threads every pass — not only when
        // accepts are quiet — so the handle vector tracks live
        // connections instead of every connection ever accepted.
        conns.retain(|c| !c.is_finished());
        shared.conn_handles.store(conns.len(), Ordering::SeqCst);
        match listener.accept() {
            Ok((mut stream, _)) => {
                // The cap is checked (and the slot claimed) here in the
                // accept loop, not in the connection thread, so two
                // racing accepts cannot both squeeze past the limit.
                if shared.live_conns.load(Ordering::SeqCst) >= shared.max_conns {
                    shared.stats.metrics.shed.inc();
                    pl_obs::event!("serve.shed");
                    // Best effort: tell the peer why before closing.
                    let _ = write_frame(&mut stream, &[opcode::OVERLOADED]);
                    continue;
                }
                shared.live_conns.fetch_add(1, Ordering::SeqCst);
                shared.stats.metrics.open_conns.add(1);
                shared.stats.metrics.connections.inc();
                pl_obs::event!("serve.accept");
                let conn_id = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
                let conn_shared = Arc::clone(shared);
                conns.push(std::thread::spawn(move || {
                    let _guard = ConnGuard(&conn_shared);
                    // Per-connection I/O errors just end that connection.
                    let _ = serve_connection(stream, &conn_shared, conn_id);
                }));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(POLL);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
    for c in conns {
        let _ = c.join();
    }
    shared.conn_handles.store(0, Ordering::SeqCst);
}

/// Per-connection state: the engine session plus reusable scratch, so
/// the steady-state frame loop allocates nothing.
struct Conn<'a, E: QueryEngine> {
    shared: &'a FrontShared<E>,
    session: E::Session,
    injector: Option<FaultInjector>,
    /// Whether HELLO has been accepted.
    handshaken: bool,
    /// Reply-encoding scratch, reused across frames.
    reply: Vec<u8>,
    /// Answer scratch, reused across batches.
    answers: Vec<Answer>,
}

fn serve_connection<E: QueryEngine>(
    mut stream: TcpStream,
    shared: &Arc<FrontShared<E>>,
    conn_id: u64,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL))?;
    stream.set_write_timeout(shared.stall_timeout)?;
    let mut conn = Conn {
        shared,
        session: shared.engine.new_session(),
        injector: shared
            .fault_plan
            .as_ref()
            .map(|plan| FaultInjector::new(plan, conn_id)),
        handshaken: false,
        reply: Vec::new(),
        answers: Vec::new(),
    };
    let mut fb = FrameBuffer::new();
    let mut read_buf = [0u8; 16 * 1024];
    // Decoded-frame scratch, reused across frames.
    let mut frame = Vec::new();
    let mut quiet_since: Option<Instant> = None;
    let mut last_activity = Instant::now();
    loop {
        match stream.read(&mut read_buf) {
            Ok(0) => return Ok(()), // peer closed
            Ok(len) => {
                quiet_since = None;
                last_activity = Instant::now();
                shared.stats.metrics.bytes_in.add(len as u64);
                if let Some(inj) = conn.injector.as_mut() {
                    if inj.roll(FaultKind::ReadDelay) {
                        shared.stats.faults.record(FaultKind::ReadDelay);
                        pl_obs::event!("serve.fault.read_delay", conn_id);
                        std::thread::sleep(inj.delay());
                    }
                }
                fb.push(&read_buf[..len]);
                loop {
                    match fb.next_frame_into(&mut frame) {
                        Ok(true) => {
                            if !conn.process_frame(&frame, &mut stream)? {
                                return stream.flush();
                            }
                        }
                        Ok(false) => break,
                        Err(e) => {
                            conn.reject(&mut stream, &e.to_string())?;
                            return stream.flush();
                        }
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // Drain: keep listening for DRAIN_QUIET in case a
                    // request is still in flight, then close.
                    let since = *quiet_since.get_or_insert_with(Instant::now);
                    if since.elapsed() >= DRAIN_QUIET {
                        return stream.flush();
                    }
                } else if fb.pending() > 0 {
                    // Mid-frame stall: the peer sent a partial frame and
                    // went quiet. A hub client wedged here used to hold
                    // its thread forever.
                    if let Some(stall) = shared.stall_timeout {
                        if last_activity.elapsed() >= stall {
                            shared.stats.metrics.deadline_closes.inc();
                            pl_obs::event!("serve.deadline_close", conn_id);
                            return stream.flush();
                        }
                    }
                } else if let Some(idle) = shared.idle_timeout {
                    if last_activity.elapsed() >= idle {
                        shared.stats.metrics.idle_reaped.inc();
                        pl_obs::event!("serve.idle_reap", conn_id);
                        return stream.flush();
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

impl<E: QueryEngine> Conn<'_, E> {
    /// Handles one frame; returns `false` when the connection should
    /// close.
    fn process_frame(&mut self, body: &[u8], stream: &mut TcpStream) -> std::io::Result<bool> {
        let op = body.first().copied();
        if !self.handshaken {
            if op != Some(opcode::HELLO) {
                return self.reject(stream, "expected HELLO");
            }
            if let Err(e) = parse_hello(body) {
                return self.reject(stream, &e.to_string());
            }
            self.handshaken = true;
            encode_hello_ok_into(
                self.shared.engine.scheme_tag(),
                self.shared.engine.n(),
                &mut self.reply,
            );
            return self.send_reply(stream);
        }
        match op {
            Some(opcode::BATCH) => {
                let (queries, ctx) = match parse_batch_ctx(body, VERSION) {
                    Ok(parsed) => parsed,
                    Err(e) => return self.reject(stream, &e.to_string()),
                };
                // Adopt the propagated context *before* opening the span
                // so serve.batch (and everything the engine records on
                // this thread) parents to the remote caller and carries
                // its trace id.
                let _ctx_guard = ctx.map(pl_obs::trace::adopt);
                let _batch_span = pl_obs::span!("serve.batch", queries.len());
                self.answer_with_faults(&queries);
                self.shared.stats.metrics.batches.inc();
                encode_batch_reply_into(&self.answers, VERSION, &mut self.reply);
                self.send_reply(stream)
            }
            Some(opcode::STATS) => {
                if let Err(e) = parse_stats(body) {
                    return self.reject(stream, &e.to_string());
                }
                let own = Stats::of(&self.shared.registry);
                let stats = self.shared.engine.wire_stats(&mut self.session, own);
                encode_stats_reply_into(&stats, &mut self.reply);
                self.send_reply(stream)
            }
            Some(opcode::HEALTH) => {
                if let Err(e) = parse_health(body) {
                    return self.reject(stream, &e.to_string());
                }
                encode_health_reply_into(&self.shared.engine.health(), &mut self.reply);
                self.send_reply(stream)
            }
            Some(opcode::TRACE_DUMP) => {
                let flags = match parse_trace_dump(body) {
                    Ok(f) => f,
                    Err(e) => return self.reject(stream, &e.to_string()),
                };
                let snapshot = flags & trace_dump_flags::SNAPSHOT != 0;
                let jsonl = self.shared.engine.trace_jsonl(&mut self.session, snapshot);
                self.reply.clear();
                self.reply.push(opcode::TRACE_REPLY);
                // Truncate to the frame cap at a line boundary, keeping
                // the *newest* lines: a consuming drain has already
                // emptied the rings, so whatever is cut here is gone,
                // and the events worth keeping are the ones closest to
                // now (the trace you just sent a probe for).
                let budget = MAX_FRAME - 1;
                let bytes = jsonl.as_bytes();
                let from = if bytes.len() <= budget {
                    0
                } else {
                    let cut = bytes.len() - budget;
                    bytes[cut..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(bytes.len(), |p| cut + p + 1)
                };
                self.reply.extend_from_slice(&bytes[from..]);
                self.send_reply(stream)
            }
            Some(opcode::MAP_GET) => {
                if let Err(e) = parse_map_get(body) {
                    return self.reject(stream, &e.to_string());
                }
                let map = self.shared.engine.map_payload(&mut self.session);
                self.reply = encode_map_reply(map.as_deref());
                self.send_reply(stream)
            }
            Some(opcode::MAP_SET) => {
                // A checksum-tampered or truncated map push dies here,
                // before the engine ever sees it.
                let req = match parse_map_set(body) {
                    Ok(req) => req,
                    Err(e) => return self.reject(stream, &e.to_string()),
                };
                let (status, epoch) = self.shared.engine.map_install(&mut self.session, &req);
                self.reply = encode_map_ok(status, epoch);
                self.send_reply(stream)
            }
            Some(opcode::LABELS) => {
                let (epoch, ids, labels) = match parse_labels(body) {
                    Ok(parsed) => parsed,
                    Err(e) => return self.reject(stream, &e.to_string()),
                };
                let (status, received) =
                    self.shared
                        .engine
                        .labels_install(&mut self.session, epoch, &ids, labels);
                self.reply = encode_labels_ok(status, received);
                self.send_reply(stream)
            }
            Some(opcode::GOODBYE) => {
                if let Err(e) = parse_goodbye(body) {
                    return self.reject(stream, &e.to_string());
                }
                send(
                    stream,
                    &self.shared.stats,
                    &mut self.injector,
                    &[opcode::GOODBYE_OK],
                )?;
                Ok(false)
            }
            _ => self.reject(stream, "unknown opcode"),
        }
    }

    /// Sends the encoded `self.reply`; the connection stays open.
    fn send_reply(&mut self, stream: &mut TcpStream) -> std::io::Result<bool> {
        send(stream, &self.shared.stats, &mut self.injector, &self.reply)?;
        Ok(true)
    }

    /// Counts a protocol error and answers it with ERROR; the connection
    /// then closes.
    fn reject(&mut self, stream: &mut TcpStream, msg: &str) -> std::io::Result<bool> {
        self.shared.stats.metrics.protocol_errors.inc();
        self.reply.clear();
        self.reply.push(opcode::ERROR);
        self.reply.extend_from_slice(msg.as_bytes());
        self.send_reply(stream)?;
        Ok(false)
    }

    /// Fills `self.answers` for `queries`, rolling the per-query
    /// `store_err` fault *ahead* of engine dispatch: a faulted query is
    /// answered [`Answer::Overloaded`] without reaching the engine. The
    /// roll consumes one RNG draw per query whenever a plan is active,
    /// keeping each connection's fault stream deterministic regardless
    /// of how the engine batches internally.
    fn answer_with_faults(&mut self, queries: &[Query]) {
        self.answers.clear();
        let Some(inj) = self.injector.as_mut() else {
            self.shared
                .engine
                .answer_batch(&mut self.session, queries, &mut self.answers);
            return;
        };
        let mut faulted = vec![false; queries.len()];
        let mut live: Vec<Query> = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            if inj.roll(FaultKind::StoreErr) {
                self.shared.stats.faults.record(FaultKind::StoreErr);
                let (u, v) = (q.u, q.v);
                pl_obs::event!("serve.fault.store_err", u, v);
                faulted[i] = true;
            } else {
                live.push(*q);
            }
        }
        if live.len() == queries.len() {
            self.shared
                .engine
                .answer_batch(&mut self.session, queries, &mut self.answers);
            return;
        }
        let mut sub: Vec<Answer> = Vec::with_capacity(live.len());
        self.shared
            .engine
            .answer_batch(&mut self.session, &live, &mut sub);
        let mut settled = sub.into_iter();
        for hit in faulted {
            self.answers.push(if hit {
                Answer::Overloaded
            } else {
                settled.next().unwrap_or(Answer::Overloaded)
            });
        }
    }
}

/// Writes one reply frame, applying write-side faults when a plan is
/// active. Rolls happen in a fixed order (write_delay, drop, truncate,
/// flip) so a given `(seed, conn_id)` replays the same fault sequence.
///
/// Byte flips are confined to `BATCH_REPLY` bodies: that is the surface
/// the reply checksum covers, so an injected flip is always *detectable*
/// corruption (the client re-asks) rather than a silently wrong
/// handshake parameter.
fn send(
    stream: &mut TcpStream,
    stats: &FrontStats,
    injector: &mut Option<FaultInjector>,
    body: &[u8],
) -> std::io::Result<()> {
    if let Some(inj) = injector.as_mut() {
        if inj.roll(FaultKind::WriteDelay) {
            stats.faults.record(FaultKind::WriteDelay);
            pl_obs::event!("serve.fault.write_delay");
            std::thread::sleep(inj.delay());
        }
        if inj.roll(FaultKind::Drop) {
            stats.faults.record(FaultKind::Drop);
            pl_obs::event!("serve.fault.drop");
            // Close without replying: the peer sees EOF mid-request.
            return Err(std::io::Error::new(
                ErrorKind::ConnectionAborted,
                "injected connection drop",
            ));
        }
        if inj.roll(FaultKind::Truncate) && !body.is_empty() {
            stats.faults.record(FaultKind::Truncate);
            pl_obs::event!("serve.fault.truncate");
            // Promise the full frame, deliver part of it, close. The
            // peer's frame reassembly stalls and its deadline fires.
            let keep = inj.truncate_at(body.len());
            let mut partial = Vec::with_capacity(4 + keep);
            partial.extend_from_slice(&(body.len() as u32).to_le_bytes());
            partial.extend_from_slice(&body[..keep]);
            stream.write_all(&partial)?;
            stream.flush()?;
            stats.metrics.bytes_out.add(partial.len() as u64);
            return Err(std::io::Error::new(
                ErrorKind::ConnectionAborted,
                "injected frame truncation",
            ));
        }
        if inj.roll(FaultKind::Flip) && body.first() == Some(&opcode::BATCH_REPLY) && body.len() > 1
        {
            stats.faults.record(FaultKind::Flip);
            pl_obs::event!("serve.fault.flip");
            let mut corrupted = body.to_vec();
            // Never byte 0: a flipped opcode would change the frame's
            // meaning before the checksum is even consulted.
            let pos = 1 + inj.flip_position(body.len() - 1);
            corrupted[pos] ^= 1 << (pos % 8);
            write_frame(stream, &corrupted)?;
            stats.metrics.bytes_out.add(4 + corrupted.len() as u64);
            return Ok(());
        }
    }
    write_frame(stream, body)?;
    stats.metrics.bytes_out.add(4 + body.len() as u64);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{
        encode_batch, encode_hello, encode_map_get, parse_batch_reply, parse_hello_ok,
        parse_map_reply, read_frame,
    };

    /// A constant-answer engine: NotAdjacent for everything.
    struct EchoEngine;

    impl QueryEngine for EchoEngine {
        type Session = ();
        fn new_session(&self) {}
        fn scheme_tag(&self) -> u8 {
            7
        }
        fn n(&self) -> u32 {
            100
        }
        fn answer_batch(&self, _s: &mut (), queries: &[Query], answers: &mut Vec<Answer>) {
            answers.extend(queries.iter().map(|_| Answer::NotAdjacent));
        }
        fn health(&self) -> Vec<bool> {
            vec![true]
        }
    }

    #[test]
    fn handshake_batch_and_shed_through_a_dummy_engine() {
        let front = bind(
            Arc::new(EchoEngine),
            "127.0.0.1:0",
            FrontendOptions {
                max_conns: Some(1),
                ..FrontendOptions::default()
            },
        )
        .expect("bind");

        let mut stream = TcpStream::connect(front.addr()).expect("connect");
        write_frame(&mut stream, &encode_hello()).expect("hello");
        let ok = read_frame(&mut stream).expect("hello_ok");
        assert_eq!(parse_hello_ok(&ok), Ok((7, 100)));

        let queries = vec![Query::adjacent(1, 2), Query::adjacent(3, 4)];
        write_frame(&mut stream, &encode_batch(&queries).unwrap()).expect("batch");
        let reply = read_frame(&mut stream).expect("reply");
        assert_eq!(
            parse_batch_reply(&reply, VERSION).unwrap(),
            vec![Answer::NotAdjacent; 2]
        );

        // A second connection over the cap is shed with OVERLOADED.
        let mut extra = TcpStream::connect(front.addr()).expect("connect extra");
        let shed = read_frame(&mut extra).expect("shed frame");
        assert_eq!(shed, vec![opcode::OVERLOADED]);

        drop(stream);
        drop(extra);
        let stats = front.shutdown();
        assert_eq!(stats.counter("plserve_batches_total"), 1);
        let shed = stats.counter("plserve_shed_total");
        assert!(shed >= 1, "shed counter: {shed}");
    }

    #[test]
    fn map_get_on_a_mapless_engine_answers_an_empty_reply() {
        let front = bind(
            Arc::new(EchoEngine),
            "127.0.0.1:0",
            FrontendOptions::default(),
        )
        .expect("bind");

        let mut stream = TcpStream::connect(front.addr()).expect("connect");
        write_frame(&mut stream, &encode_hello()).expect("hello");
        let ok = read_frame(&mut stream).expect("hello_ok");
        assert_eq!(parse_hello_ok(&ok), Ok((7, 100)));
        write_frame(&mut stream, &encode_map_get()).expect("map_get");
        let reply = read_frame(&mut stream).expect("map_reply");
        assert_eq!(parse_map_reply(&reply), Ok(None));

        drop(stream);
        front.shutdown();
    }
}
