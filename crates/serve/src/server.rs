//! The TCP server: the shared [`pl_wire`] front-end over a
//! [`LabelStore`] engine.
//!
//! The transport — accept loop, per-connection lifecycle, HELLO
//! handshake, `--max-conns` shedding, idle/stall deadlines,
//! drain-on-shutdown and fault injection — is [`pl_wire::frontend`],
//! shared with the `pl-cluster` router; [`ServeOptions`] passes its
//! knobs through (RELIABILITY.md §Server-side degradation). This module
//! supplies only the engine: [`StoreEngine`] implements [`QueryEngine`]
//! by answering each batch against the store query by query
//! ([`LabelStore::adjacent_batch_traced`]). The store is an immutable
//! arena, so the answer path takes no lock. Its `MAP_SET` and `LABELS`
//! verdicts follow the one reconfiguration policy of [`crate::map`].
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
//! ([`QueryPath`](crate::QueryPath)). The front-end's resilience events
//! land in the same registry. [`ServerHandle::prometheus_text`] renders
//! it (plus the process-global encode metrics) in Prometheus text
//! format — `plab serve --prom` exposes it over HTTP.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use pl_labeling::codec::SchemeTag;
use pl_labeling::threshold::cut;
use pl_labeling::{Label, Labeling, LabelingBuilder};
use pl_obs::registry::merge_samples;
use pl_obs::MetricsRegistry;
use pl_wire::fault::FaultPlan;
use pl_wire::frontend::{self, FrontendHandle, FrontendOptions, QueryEngine};
use pl_wire::protocol::{
    Answer, LabelsStatus, MapSetMode, MapSetRequest, MapSetStatus, Query, QueryKind,
};
use pl_wire::stats::{Metrics, Stats};

use crate::map::{ClusterMap, EpochFence, MapVerdict};
use crate::store::{BatchOutcome, LabelStore, StoreError};

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
}

/// [`LabelStore`] as a [`QueryEngine`]: answers batches query by query,
/// records per-query latency and the slow-query log.
///
/// The store is *swappable*: a `MAP_SET` push stages
/// an epoch-bumped [`ClusterMap`], `LABELS` pushes buffer re-owned
/// vertices' full labels (parsed once, on arrival), and the
/// commit rebuilds a replacement store off the serving path and swaps
/// it in atomically — in-flight batches finish against the store they
/// started on, so no query is ever dropped or answered from a
/// half-built store.
pub struct StoreEngine {
    store: RwLock<Arc<LabelStore>>,
    metrics: Metrics,
    /// Slow-query threshold; `u64::MAX` disables.
    slow_query_ns: u64,
    /// The map-install state machine.
    reconfig: Mutex<ReconfigState>,
}

/// The backend's view of cluster reconfiguration: the epoch fence
/// (committed epoch, 0 until the first map push, plus the staged map
/// with the labels streamed in for it so far) and the committed map.
struct ReconfigState {
    fence: EpochFence<PendingMap>,
    /// Serialized current map, answering `MAP_GET`.
    map: Option<Vec<u8>>,
}

/// A prepared-but-uncommitted map push.
struct PendingMap {
    map_bytes: Vec<u8>,
    /// Labels streamed in for the pending epoch, keyed by vertex.
    labels: HashMap<u32, Label>,
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
        pl_wire::sync::lock_recover(&self.reconfig)
            .fence
            .committed()
    }

    /// Stages an epoch-bumped map for `LABELS` pushes. The map must
    /// serve this store's labeling and name this backend.
    fn prepare(
        &self,
        state: &mut ReconfigState,
        req: &MapSetRequest,
        map: &ClusterMap,
    ) -> MapVerdict {
        let store = self.store();
        if map.check_labeling(store.n(), store.tag().as_u8()).is_err()
            || req.backend as usize >= map.backends.len()
        {
            return (MapSetStatus::Failed, state.fence.committed());
        }
        let pending = PendingMap {
            map_bytes: req.map.clone(),
            labels: HashMap::new(),
        };
        state.fence.prepare(map.epoch, pending)
    }

    /// Commits the staged map: rebuilds the store with the pushed
    /// labels merged (streamed-in labels override, every other vertex
    /// keeps its current label bit for bit) and swaps it in. The
    /// current store keeps serving during the rebuild; only the final
    /// pointer swap takes the write lock.
    fn commit(&self, state: &mut ReconfigState, map: &ClusterMap) -> MapVerdict {
        let pending = match state.fence.commit(map.epoch) {
            Ok(pending) => pending,
            Err(refused) => return refused,
        };
        let old = self.store();
        let mut builder = LabelingBuilder::new();
        for (v, current) in old.labeling().iter() {
            builder.push_ref(pending.labels.get(&v).map_or(current, Label::view));
        }
        *pl_wire::sync::write_recover(&self.store) = Arc::new(old.relabeled(builder.finish()));
        state.map = Some(pending.map_bytes);
        (MapSetStatus::Committed, map.epoch)
    }

    /// Post-commit cleanup on a losing backend: labels the *current*
    /// map no longer assigns to this backend shrink back to prelude
    /// stubs. Threshold labelings only — the same restriction as
    /// splitting.
    fn shrink(&self, state: &ReconfigState, backend: u32, map: &ClusterMap) -> MapVerdict {
        if let Err(refused) = state.fence.check_committed(map.epoch) {
            return refused;
        }
        let failed = (MapSetStatus::Failed, map.epoch);
        let old = self.store();
        if old.tag() != SchemeTag::Threshold || backend as usize >= map.backends.len() {
            return failed;
        }
        let part = map.partitioner();
        let Ok(labeling) = cut(old.labeling(), |v| part.owns(backend, v)) else {
            return failed;
        };
        *pl_wire::sync::write_recover(&self.store) =
            Arc::new(old.relabeled(labeling).with_partial(true));
        (MapSetStatus::Shrunk, map.epoch)
    }

    /// Buffers one `LABELS` frame for the staged epoch. All-or-nothing:
    /// the frame is rejected whole unless `labels` parses as one
    /// canonical `PLL2` container holding exactly one label per id, and
    /// every id is a vertex of this store.
    fn buffer_labels(&self, epoch: u64, ids: &[u32], labels: &[u8]) -> (LabelsStatus, u32) {
        let n = self.store().n();
        let chunk = Labeling::from_bytes(labels)
            .ok()
            .filter(|chunk| chunk.len() == ids.len() && ids.iter().all(|&v| v < n));
        let mut state = pl_wire::sync::lock_recover(&self.reconfig);
        let received = |p: &PendingMap| p.labels.len() as u32;
        let Some(pending) = state.fence.staged_at(epoch) else {
            return (
                LabelsStatus::WrongEpoch,
                state.fence.staged().map_or(0, received),
            );
        };
        let Some(chunk) = chunk else {
            return (LabelsStatus::Rejected, received(pending));
        };
        for (&v, (_, label)) in ids.iter().zip(chunk.iter()) {
            pending.labels.insert(v, label.to_label());
        }
        (LabelsStatus::Ok, received(pending))
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

    /// The backend's side of the reconfiguration state machine. The
    /// lock is held through a commit's rebuild, so the epoch, the
    /// `MAP_GET` map and the serving store move together.
    fn map_install(&self, _s: &mut StoreSession, req: &MapSetRequest) -> MapVerdict {
        let mut state = pl_wire::sync::lock_recover(&self.reconfig);
        let committed = state.fence.committed();
        match (req.mode, ClusterMap::from_bytes(&req.map)) {
            (MapSetMode::Abort, _) => {
                state.fence.abort();
                (MapSetStatus::Aborted, committed)
            }
            (_, Err(_)) => (MapSetStatus::Failed, committed),
            (MapSetMode::Prepare, Ok(map)) => self.prepare(&mut state, req, &map),
            (MapSetMode::Commit, Ok(map)) => self.commit(&mut state, &map),
            (MapSetMode::Shrink, Ok(map)) => self.shrink(&state, req.backend, &map),
        }
    }

    fn labels_install(
        &self,
        _s: &mut StoreSession,
        epoch: u64,
        ids: &[u32],
        labels: &[u8],
    ) -> (LabelsStatus, u32) {
        self.buffer_labels(epoch, ids, labels)
    }
}

/// Prometheus text: the server registry's samples (what `STATS`
/// carries) merged with the process-global registry's (encode-phase
/// timings and label-size histograms), unless they are the same.
fn prometheus_text(registry: &MetricsRegistry) -> String {
    let mut samples = registry.samples();
    if !std::ptr::eq(registry, pl_obs::global()) {
        merge_samples(&mut samples, &pl_obs::global().samples());
    }
    pl_obs::prom::render(&samples)
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

    /// The registry's samples now.
    #[must_use]
    pub fn snapshot(&self) -> Stats {
        Stats::of(&self.registry)
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
    /// returns the registry's final samples.
    pub fn shutdown(self) -> Stats {
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
        reconfig: Mutex::new(ReconfigState {
            fence: EpochFence::new(0),
            map: None,
        }),
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
        },
    )?;
    Ok(ServerHandle { front, registry })
}
