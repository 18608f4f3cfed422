//! The TCP server: the shared [`pl_wire`] front-end over a
//! [`LabelStore`] engine.
//!
//! Since PR 6 the transport — accept loop, per-connection lifecycle,
//! HELLO negotiation, `--max-conns` shedding, idle/stall deadlines,
//! drain-on-shutdown, and fault injection — lives in
//! [`pl_wire::frontend`] and is shared with the `pl-cluster` router.
//! This module supplies only the engine: [`StoreEngine`] implements
//! [`QueryEngine`] by answering each batch against the store query by
//! query ([`LabelStore::adjacent_batch_traced`]). The store is an
//! immutable arena, so the answer path takes no lock.
//!
//! ## Degradation under load and failure
//!
//! The front-end degrades gracefully rather than wedging (see
//! RELIABILITY.md):
//!
//! - [`ServeOptions::max_conns`] caps concurrent connections; excess
//!   accepts are *shed* — answered with a single `OVERLOADED` frame and
//!   closed, counted in `plserve_shed_total` — instead of queueing
//!   unboundedly behind a stuck hub connection.
//! - [`ServeOptions::idle_timeout`] reaps connections that have sent
//!   nothing for too long; [`ServeOptions::stall_timeout`] bounds both a
//!   peer that stalls mid-frame and a peer that stops reading its
//!   replies (it doubles as the socket write timeout).
//! - Finished connection threads are reaped every accept-loop pass, so
//!   the handle vector stays bounded by the number of *live*
//!   connections ([`ServerHandle::conn_handle_count`]).
//! - A [`FaultPlan`] ([`ServeOptions::fault_plan`]) turns on the
//!   deterministic fault-injection harness of [`pl_wire::fault`] for
//!   chaos testing: injected read/write delays, dropped and truncated
//!   reply frames, flipped reply bytes (protocol v3 checksums catch
//!   them), and simulated store errors.
//!
//! ## Observability
//!
//! Every server owns a [`MetricsRegistry`] (per-instance, so parallel
//! servers in one process — e.g. tests — never share counters). The
//! serve path is instrumented with [`pl_obs`] spans (`serve.batch`,
//! `store.adjacent`) and a threshold-triggered slow-query log: a query
//! at or over [`ServeOptions::slow_query_ns`] increments
//! `plserve_slow_queries_total` and records a `serve.slow_query` trace
//! event carrying the vertex pair and the query path
//! ([`QueryPath`](crate::QueryPath)).
//! Resilience events land in `plserve_faults_injected_total{kind}`,
//! `plserve_shed_total`, `plserve_idle_reaped_total`,
//! `plserve_deadline_closes_total`, and the `plserve_open_conns` gauge.
//! [`ServerHandle::prometheus_text`] renders the registry (plus the
//! process-global encode metrics) in Prometheus text format — `plab
//! serve --prom` exposes it over HTTP.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use pl_labeling::bits::BitWriter;
use pl_labeling::codec::{SchemeTag, TaggedLabeling};
use pl_labeling::{Label, LabelingBuilder};
use pl_obs::MetricsRegistry;
use pl_wire::fault::FaultPlan;
use pl_wire::frontend::{self, FrontStats, FrontendHandle, FrontendOptions, QueryEngine};
use pl_wire::protocol::{
    Answer, LabelsStatus, MapSetMode, MapSetRequest, MapSetStatus, Query, QueryKind,
};
use pl_wire::stats::{Metrics, Snapshot};

use crate::map::ClusterMap;
use crate::store::{BatchOutcome, LabelStore, StoreConfig, StoreError};

/// Server tuning knobs beyond the store itself.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Metrics registry to register the server's instruments in; a
    /// fresh private registry when `None`.
    pub registry: Option<Arc<MetricsRegistry>>,
    /// Queries taking at least this many nanoseconds are counted in
    /// `plserve_slow_queries_total` and logged as `serve.slow_query`
    /// trace events. `None` disables the slow-query log.
    pub slow_query_ns: Option<u64>,
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
    /// Highest protocol version this server will negotiate; `None`
    /// means the build's newest. Used by downgrade tests to stand in
    /// for an older server binary.
    pub max_version: Option<u8>,
}

/// [`LabelStore`] as a [`QueryEngine`]: answers batches query by query,
/// records per-query latency and the slow-query log.
///
/// Since protocol v6 the store is *swappable*: a `MAP_SET` push stages
/// an epoch-bumped [`ClusterMap`], `LABELS` pushes buffer re-owned
/// vertices' full labels (verified byte-identical on arrival), and the
/// commit rebuilds a replacement store off the serving path and swaps
/// it in atomically — in-flight batches finish against the store they
/// started on, so no query is ever dropped or answered from a
/// half-built store.
pub struct StoreEngine {
    store: RwLock<Arc<LabelStore>>,
    metrics: Metrics,
    /// Slow-query threshold; `u64::MAX` disables.
    slow_query_ns: u64,
    /// The v6 map-install state machine.
    reconfig: Mutex<ReconfigState>,
}

/// The backend's view of cluster reconfiguration: the committed epoch
/// plus an optional staged (prepared but uncommitted) map with the
/// labels streamed in for it so far.
#[derive(Default)]
struct ReconfigState {
    /// Committed epoch; 0 until the first map push.
    epoch: u64,
    /// Serialized current map, answering `MAP_GET`.
    map: Option<Vec<u8>>,
    /// This backend's index in the current map.
    index: u32,
    pending: Option<PendingMap>,
}

/// A prepared-but-uncommitted map push.
struct PendingMap {
    epoch: u64,
    map_bytes: Vec<u8>,
    /// This backend's index in the pending map.
    index: u32,
    /// Labels streamed in for the pending epoch, keyed by vertex.
    labels: HashMap<u32, Vec<u8>>,
}

/// Reduces a label to its prelude stub (id width, scheme id, fat flag —
/// nothing after). Total: a stub of a stub is the same stub.
fn stub_label(label: pl_labeling::LabelRef<'_>) -> Option<Label> {
    let mut r = label.reader();
    let w = r.try_read_bits(6)? as usize;
    let id = r.try_read_bits(w)?;
    let fat = r.try_read_bit()?;
    let mut wr = BitWriter::new();
    wr.write_bits(w as u64, 6);
    wr.write_bits(id, w);
    wr.write_bit(fat);
    Some(Label::from(wr))
}

/// Per-connection scratch for [`StoreEngine`]: reused across batches so
/// the steady-state answer path allocates nothing.
#[derive(Default)]
pub struct StoreSession {
    pairs: Vec<(u32, u32)>,
    slots: Vec<usize>,
    outcomes: Vec<BatchOutcome>,
}

fn store_error_answer(e: StoreError) -> Answer {
    match e {
        StoreError::OutOfRange => Answer::OutOfRange,
        StoreError::Unsupported => Answer::Unsupported,
        StoreError::Malformed => Answer::MalformedLabel,
        StoreError::NotOwned => Answer::NotOwned,
    }
}

impl StoreEngine {
    /// The store currently serving queries.
    #[must_use]
    pub fn store(&self) -> Arc<LabelStore> {
        Arc::clone(&pl_wire::sync::read_recover(&self.store))
    }

    /// The committed reconfiguration epoch (0 until the first map push).
    #[must_use]
    pub fn reconfig_epoch(&self) -> u64 {
        pl_wire::sync::lock_recover(&self.reconfig).epoch
    }

    /// Stages an epoch-bumped map: semantic validation (parameters must
    /// match the serving store), epoch fencing (must be newer than the
    /// committed epoch), then buffer it for `LABELS` pushes.
    fn prepare(&self, req: &MapSetRequest) -> (MapSetStatus, u64) {
        let store = self.store();
        let mut state = pl_wire::sync::lock_recover(&self.reconfig);
        let Ok(map) = ClusterMap::from_bytes(&req.map) else {
            return (MapSetStatus::Failed, state.epoch);
        };
        if map.n != store.n()
            || map.tag != store.tag().as_u8()
            || (req.backend as usize) >= map.backends.len()
            || map.replicas == 0
        {
            return (MapSetStatus::Failed, state.epoch);
        }
        if map.epoch <= state.epoch {
            return (MapSetStatus::Stale, state.epoch);
        }
        let epoch = map.epoch;
        // A newer prepare supersedes any staged one (its labels die
        // with it — the coordinator restreams for the new epoch).
        state.pending = Some(PendingMap {
            epoch,
            map_bytes: req.map.clone(),
            index: req.backend,
            labels: HashMap::new(),
        });
        (MapSetStatus::Prepared, epoch)
    }

    /// Commits the staged map: rebuilds the store with the pushed
    /// labels merged (streamed-in labels override, every other vertex
    /// keeps its current label bit for bit), swaps it in, and advances
    /// the epoch. The rebuild runs against a snapshot of the current
    /// store while that store keeps serving; only the final pointer
    /// swap takes the write lock.
    fn commit(&self, req: &MapSetRequest) -> (MapSetStatus, u64) {
        let old = self.store();
        let pending = {
            let mut state = pl_wire::sync::lock_recover(&self.reconfig);
            let Ok(map) = ClusterMap::from_bytes(&req.map) else {
                return (MapSetStatus::Failed, state.epoch);
            };
            if map.epoch <= state.epoch {
                return (MapSetStatus::Stale, state.epoch);
            }
            match state.pending.take() {
                Some(p) if p.epoch == map.epoch => p,
                other => {
                    state.pending = other;
                    return (MapSetStatus::Failed, state.epoch);
                }
            }
        };
        let mut builder = LabelingBuilder::new();
        for v in 0..old.n() {
            if let Some(bytes) = pending.labels.get(&v) {
                // Verified byte-identical on arrival; decode cannot fail.
                let (label, _) = Label::from_bytes(bytes).expect("verified label"); // lint: panic-ok(bytes round-tripped Label::to_bytes on arrival in map_set; decode of our own encoding cannot fail)
                builder.push_label(&label);
            } else {
                let current = old.label(v).expect("v < n"); // lint: panic-ok(v iterates 0..old.n(), the store's own bound)
                builder.push_label(&current.to_label());
            }
        }
        let rebuilt = Arc::new(
            LabelStore::new(
                TaggedLabeling {
                    tag: old.tag(),
                    labeling: builder.finish(),
                },
                StoreConfig::default(),
            )
            .with_partial(old.is_partial()),
        );
        let mut state = pl_wire::sync::lock_recover(&self.reconfig);
        *pl_wire::sync::write_recover(&self.store) = rebuilt;
        state.epoch = pending.epoch;
        state.map = Some(pending.map_bytes);
        state.index = pending.index;
        (MapSetStatus::Committed, pending.epoch)
    }

    /// Post-commit cleanup on a losing backend: labels the *current*
    /// map no longer assigns to this backend shrink back to prelude
    /// stubs. Threshold labelings only — the same restriction as
    /// splitting.
    fn shrink(&self, req: &MapSetRequest) -> (MapSetStatus, u64) {
        let old = self.store();
        let (epoch, part, index) = {
            let state = pl_wire::sync::lock_recover(&self.reconfig);
            let Ok(map) = ClusterMap::from_bytes(&req.map) else {
                return (MapSetStatus::Failed, state.epoch);
            };
            if map.epoch != state.epoch {
                return (MapSetStatus::Stale, state.epoch);
            }
            if old.tag() != SchemeTag::Threshold || (req.backend as usize) >= map.backends.len() {
                return (MapSetStatus::Failed, state.epoch);
            }
            (state.epoch, map.partitioner(), req.backend)
        };
        let mut builder = LabelingBuilder::new();
        for v in 0..old.n() {
            let current = old.label(v).expect("v < n"); // lint: panic-ok(v iterates 0..old.n(), the store's own bound)
            if part.owns(index, v) {
                builder.push_label(&current.to_label());
            } else {
                let Some(stub) = stub_label(current) else {
                    return (
                        MapSetStatus::Failed,
                        pl_wire::sync::lock_recover(&self.reconfig).epoch,
                    );
                };
                builder.push_label(&stub);
            }
        }
        let rebuilt = Arc::new(
            LabelStore::new(
                TaggedLabeling {
                    tag: old.tag(),
                    labeling: builder.finish(),
                },
                StoreConfig::default(),
            )
            .with_partial(true),
        );
        *pl_wire::sync::write_recover(&self.store) = rebuilt;
        (MapSetStatus::Shrunk, epoch)
    }

    /// Buffers one `LABELS` frame for the staged epoch. All-or-nothing:
    /// if any label fails verification the whole frame is discarded.
    /// Verification is byte-identity — the label must decode, consume
    /// every pushed byte, and re-encode to exactly the pushed bytes.
    fn buffer_labels(&self, epoch: u64, entries: &[(u32, Vec<u8>)]) -> (LabelsStatus, u32) {
        let n = self.store().n();
        let mut state = pl_wire::sync::lock_recover(&self.reconfig);
        let Some(pending) = state.pending.as_mut() else {
            return (LabelsStatus::WrongEpoch, 0);
        };
        if epoch != pending.epoch {
            return (LabelsStatus::WrongEpoch, pending.labels.len() as u32);
        }
        for (v, bytes) in entries {
            let verified = Label::from_bytes(bytes)
                .ok()
                .filter(|(label, used)| *used == bytes.len() && label.to_bytes() == *bytes)
                .is_some();
            if *v >= n || !verified {
                return (LabelsStatus::Rejected, pending.labels.len() as u32);
            }
        }
        for (v, bytes) in entries {
            pending.labels.insert(*v, bytes.clone());
        }
        (LabelsStatus::Ok, pending.labels.len() as u32)
    }

    /// Records one query's latency and, at or over the threshold, the
    /// slow-query counter and trace event. The span window is
    /// reconstructed only on the (rare) slow branch so the hot path
    /// stays at two clock reads.
    fn record_latency(&self, u: u32, v: u32, ns: u64, path_word: u64) {
        self.metrics.query_latency.record(ns);
        if ns >= self.slow_query_ns {
            self.metrics.slow_queries.inc();
            let end = pl_obs::trace::now_ns();
            pl_obs::trace::record_complete(
                "serve.slow_query",
                end.saturating_sub(ns),
                ns,
                (u64::from(u) << 32) | u64::from(v),
                path_word,
            );
        }
    }
}

impl QueryEngine for StoreEngine {
    type Session = StoreSession;

    fn new_session(&self) -> StoreSession {
        StoreSession::default()
    }

    fn scheme_tag(&self) -> u8 {
        self.store().tag().as_u8()
    }

    fn n(&self) -> u32 {
        self.store().n()
    }

    fn answer_batch(&self, s: &mut StoreSession, queries: &[Query], answers: &mut Vec<Answer>) {
        // One store snapshot per batch: a mid-batch map commit swaps
        // the engine's store, but this batch finishes coherently
        // against the store it started on.
        let store = self.store();
        answers.clear();
        answers.resize(queries.len(), Answer::Overloaded);
        s.pairs.clear();
        s.slots.clear();
        for (i, q) in queries.iter().enumerate() {
            match q.kind {
                QueryKind::Adjacent => {
                    self.metrics.adj_queries.inc();
                    s.pairs.push((q.u, q.v));
                    s.slots.push(i);
                }
                QueryKind::Distance => {
                    self.metrics.dist_queries.inc();
                    let t0 = Instant::now();
                    let answer = match store.distance(q.u, q.v) {
                        Ok(Some(d)) => Answer::Distance(d),
                        Ok(None) => Answer::Unreachable,
                        Err(e) => store_error_answer(e),
                    };
                    self.record_latency(q.u, q.v, t0.elapsed().as_nanos() as u64, u64::MAX);
                    answers[i] = answer;
                }
            }
        }
        store.adjacent_batch_traced(&s.pairs, &mut s.outcomes);
        for ((&(u, v), &slot), outcome) in s.pairs.iter().zip(&s.slots).zip(&s.outcomes) {
            let (answer, path) = match outcome.result {
                Ok((true, p)) => (Answer::Adjacent, Some(p)),
                Ok((false, p)) => (Answer::NotAdjacent, Some(p)),
                Err(e) => (store_error_answer(e), None),
            };
            self.record_latency(u, v, outcome.ns, path.map_or(u64::MAX, |p| p.as_u64()));
            answers[slot] = answer;
        }
    }

    /// One always-live entry: the store is an immutable arena with no
    /// lock that a panicking thread could poison.
    fn health(&self) -> Vec<bool> {
        vec![true]
    }

    fn map_payload(&self, _s: &mut StoreSession) -> Option<Vec<u8>> {
        pl_wire::sync::lock_recover(&self.reconfig).map.clone()
    }

    fn map_install(&self, _s: &mut StoreSession, req: &MapSetRequest) -> (MapSetStatus, u64) {
        match req.mode {
            MapSetMode::Prepare => self.prepare(req),
            MapSetMode::Commit => self.commit(req),
            MapSetMode::Abort => {
                let mut state = pl_wire::sync::lock_recover(&self.reconfig);
                state.pending = None;
                (MapSetStatus::Aborted, state.epoch)
            }
            MapSetMode::Shrink => self.shrink(req),
        }
    }

    fn labels_install(
        &self,
        _s: &mut StoreSession,
        epoch: u64,
        entries: &[(u32, Vec<u8>)],
    ) -> (LabelsStatus, u32) {
        self.buffer_labels(epoch, entries)
    }

    fn wire_stats(&self, _s: &mut StoreSession, front: &FrontStats) -> Snapshot {
        self.local_snapshot(front)
    }

    fn local_snapshot(&self, front: &FrontStats) -> Snapshot {
        front.metrics.snapshot(front.started, front.faults.total())
    }
}

/// Prometheus text: the server registry and the process-global
/// registry (encode-phase timings and label-size histograms),
/// deduplicated if they are the same.
fn prometheus_text(registry: &MetricsRegistry) -> String {
    let mut p = pl_obs::prom::PromText::new();
    p.registry(registry);
    if !std::ptr::eq(registry, pl_obs::global()) {
        p.registry(pl_obs::global());
    }
    p.finish()
}

/// A running server. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) aborts rather than drains.
pub struct ServerHandle {
    front: FrontendHandle<StoreEngine>,
    registry: Arc<MetricsRegistry>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// A live metrics snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        self.front.snapshot()
    }

    /// The registry this server's instruments live in.
    #[must_use]
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.registry)
    }

    /// Connections currently being served.
    #[must_use]
    pub fn live_connections(&self) -> usize {
        self.front.live_connections()
    }

    /// Join handles the accept loop is currently holding. Finished
    /// handles are reaped every loop pass, so this stays bounded by the
    /// live-connection count (plus at most one poll interval of lag)
    /// rather than growing with every connection ever accepted.
    #[must_use]
    pub fn conn_handle_count(&self) -> usize {
        self.front.conn_handle_count()
    }

    /// Current metrics in Prometheus text format (server registry and
    /// process-global encode metrics).
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        prometheus_text(&self.registry)
    }

    /// A closure rendering [`prometheus_text`](Self::prometheus_text)
    /// on demand — plug it straight into [`pl_obs::http::expose`].
    #[must_use]
    pub fn prometheus_renderer(&self) -> pl_obs::http::RenderFn {
        let registry = Arc::clone(&self.registry);
        Arc::new(move || prometheus_text(&registry))
    }

    /// The committed reconfiguration epoch (0 until the first map
    /// push).
    #[must_use]
    pub fn reconfig_epoch(&self) -> u64 {
        self.front.engine().reconfig_epoch()
    }

    /// Signals shutdown, waits for every connection to drain, and
    /// returns the final metrics snapshot.
    pub fn shutdown(self) -> Snapshot {
        self.front.shutdown()
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves `store` until
/// [`ServerHandle::shutdown`], with default [`ServeOptions`].
pub fn serve(store: Arc<LabelStore>, addr: &str) -> std::io::Result<ServerHandle> {
    serve_with(store, addr, ServeOptions::default())
}

/// Binds `addr` and serves `store` with explicit [`ServeOptions`].
pub fn serve_with(
    store: Arc<LabelStore>,
    addr: &str,
    options: ServeOptions,
) -> std::io::Result<ServerHandle> {
    let registry = options
        .registry
        .unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
    let engine = Arc::new(StoreEngine {
        store: RwLock::new(store),
        metrics: Metrics::new(&registry),
        slow_query_ns: options.slow_query_ns.unwrap_or(u64::MAX),
        reconfig: Mutex::new(ReconfigState::default()),
    });
    let front = frontend::bind(
        engine,
        addr,
        FrontendOptions {
            registry: Some(Arc::clone(&registry)),
            max_conns: options.max_conns,
            fault_plan: options.fault_plan,
            idle_timeout: options.idle_timeout,
            stall_timeout: options.stall_timeout,
            max_version: options.max_version,
        },
    )?;
    Ok(ServerHandle { front, registry })
}
