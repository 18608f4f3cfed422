//! The scatter-gather router.
//!
//! Upward the router *is* a wire-protocol server — `plab loadgen`, the
//! blocking client, and every existing tool connect to it unchanged.
//! The upward transport is not the router's own: it is the shared
//! hardened front-end of [`pl_wire::frontend`], the same accept loop,
//! handshake, shedding, deadlines, drain-on-shutdown, and fault
//! injection that `pl_serve` uses, parameterized here over
//! [`RouterEngine`]. The router itself is *only* an engine: candidate
//! chains, failover, quarantine, and stat merging.
//!
//! Downward it speaks the same protocol to the backends through
//! [`pl_serve::ResilientClient`], so transport-level trouble (dropped
//! connections, truncated frames, checksum-failing flipped bytes) is
//! already retried against the *same* backend before the router ever
//! sees it.
//!
//! What the router adds is **replica failover**. Each query `{u, v}`
//! carries its HRW candidate list `owners(u) ∪ owners(v)`, owners of
//! both endpoints first; the query is first sent to its foremost live
//! candidate (batched per backend — the scatter, one pipelined round on
//! the session thread), and any slot that comes back `NOT_OWNED` (the
//! partial store could not answer one-sidedly), `OVERLOADED` (the
//! backend's own retries were exhausted), or on a dead connection
//! advances to its next candidate for the following round. A query
//! whose candidates are exhausted answers `OVERLOADED` upward — never a
//! wrong answer. With `2R > B` every query has an owner of both
//! endpoints, so a healthy cluster answers each batch in one round.
//!
//! Backends that fail are **quarantined**: skipped when ordering
//! candidates (still usable as a last resort) and re-probed by a
//! background prober with `HEALTH`, paced by the retry policy's seeded
//! exponential backoff, so a SIGKILLed backend stops eating a connect
//! timeout per batch within one round-trip of dying.
//!
//! A rebalance stages the next map in the router's [`EpochFence`] (the
//! one epoch rule, `pl_serve::map`) and dual-routes until it commits.
//!
//! Observability: the `plcluster_*` families of OBSERVABILITY.md and,
//! in the same registry, the front-end's `plserve_*` transport families
//! ([`RouterHandle::prometheus_text`]). A `STATS` request upward
//! returns the router's own samples merged with every reachable
//! backend's under one rule ([`merge_samples`]): counters and gauges
//! sum, histograms add bucket by bucket. So `plserve_query_latency_ns`
//! is the cluster-wide decode latency, and the router's batch latency
//! is `plcluster_batch_ns`.

use std::collections::{BTreeMap, HashMap};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use pl_obs::hist::Histogram;
use pl_obs::registry::{merge_samples, Counter};
use pl_obs::trace::{self, SpanGuard, TraceContext};
use pl_obs::MetricsRegistry;
use pl_serve::map::MapVerdict;
use pl_serve::{ClientError, ClusterMap, EpochFence, Partitioner, ResilientClient, RetryPolicy};
use pl_wire::frontend::{self, FrontendHandle, FrontendOptions, QueryEngine};
use pl_wire::protocol::{trace_dump_flags, MapSetMode, MapSetRequest, MapSetStatus};
use pl_wire::{Answer, Query, Stats};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace_merge;

/// Prober pacing floor (the front-end has its own accept-loop poll).
const POLL: Duration = Duration::from_millis(20);

/// Router tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Downward transport policy (per-backend retries, deadline) — also
    /// the source of the quarantine re-probe backoff.
    pub retry: RetryPolicy,
    /// How often the prober wakes to re-check quarantined backends.
    pub probe_interval: Duration,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            retry: RetryPolicy {
                max_retries: 2,
                deadline: Some(Duration::from_millis(500)),
                backoff_base: Duration::from_millis(5),
                backoff_cap: Duration::from_millis(100),
                seed: 0xC105,
            },
            probe_interval: Duration::from_millis(100),
        }
    }
}

/// Health state and instruments of one backend, identified by its
/// *slot* in the router's append-only backend table. Slots are stable
/// across reconfigurations: a backend that survives an epoch change
/// keeps its slot (and its counters); a joining backend gets a new one.
struct BackendState {
    addr: String,
    /// Skipped when ordering candidates; re-probed by the prober.
    quarantined: AtomicBool,
    /// Consecutive failed probes/serves — the backoff exponent.
    strikes: AtomicU64,
    /// Earliest next probe, in ns since router start.
    next_probe_ns: AtomicU64,
    /// Sub-batches sent here (`plcluster_fanout_total{partition}`).
    fanout: Arc<Counter>,
    /// Queries moved *off* this backend (`plcluster_failover_total`).
    failover: Arc<Counter>,
    /// Quarantine entries (`plcluster_quarantine_total`).
    quarantines: Arc<Counter>,
    /// Downward round-trip ns (`plcluster_backend_ns`).
    backend_ns: Arc<Histogram>,
}

impl BackendState {
    fn new(addr: String, slot: usize, registry: &MetricsRegistry) -> Self {
        let label = slot.to_string();
        Self {
            addr,
            quarantined: AtomicBool::new(false),
            strikes: AtomicU64::new(0),
            next_probe_ns: AtomicU64::new(0),
            fanout: registry.counter_with("plcluster_fanout_total", &[("partition", &label)]),
            failover: registry.counter_with("plcluster_failover_total", &[("backend", &label)]),
            quarantines: registry
                .counter_with("plcluster_quarantine_total", &[("backend", &label)]),
            backend_ns: registry.histogram_with("plcluster_backend_ns", &[("backend", &label)]),
        }
    }
}

/// One map's routing view: the parsed map, its partitioner, and the
/// translation from map backend indices to backend-table slots.
struct RouteView {
    map: ClusterMap,
    part: Partitioner,
    /// `ids[i]` is the table slot of the map's backend `i`.
    ids: Vec<u32>,
}

/// The router's routing state: the committed map, and the epoch fence
/// that stages the next-epoch map during a reconfiguration window.
/// While a map is staged the router *dual-routes*: each query tries the
/// new map's owners first and falls back to the old owners on
/// `NOT_OWNED` — so a vertex whose labels are still in flight keeps
/// answering from its old owner, and one already migrated answers from
/// its new owner.
struct RouteState {
    current: RouteView,
    next: EpochFence<RouteView>,
}

struct Shared {
    route: RwLock<RouteState>,
    /// Append-only backend table; candidate lists and `Downstream`
    /// pools are keyed by slot, never by map index.
    table: RwLock<Vec<Arc<BackendState>>>,
    config: RouterConfig,
    registry: Arc<MetricsRegistry>,
    /// Upward batch service time, ns.
    batch_ns: Arc<Histogram>,
    batches: Arc<Counter>,
    queries: Arc<Counter>,
    /// Queries whose whole candidate list failed (answered Overloaded).
    exhausted: Arc<Counter>,
    connections: Arc<Counter>,
    /// Committed epoch bumps (`plcluster_reconfig_epochs_total`).
    reconfig_epochs: Arc<Counter>,
    /// Vertices whose ownership moved across committed epochs.
    reconfig_moved: Arc<Counter>,
    /// Queries routed during a dual-map window.
    reconfig_dual: Arc<Counter>,
    /// Prepared windows torn down by ABORT.
    reconfig_rollbacks: Arc<Counter>,
    shutdown: AtomicBool,
    started: Instant,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    fn backend(&self, slot: u32) -> Arc<BackendState> {
        Arc::clone(&pl_wire::sync::read_recover(&self.table)[slot as usize])
    }

    fn routing(&self) -> RwLockReadGuard<'_, RouteState> {
        pl_wire::sync::read_recover(&self.route)
    }

    fn table_len(&self) -> usize {
        pl_wire::sync::read_recover(&self.table).len()
    }

    /// The table slot serving `addr`, appending a fresh entry (with
    /// fresh counters) the first time an address is seen.
    fn slot_for(&self, addr: &str) -> u32 {
        {
            let table = pl_wire::sync::read_recover(&self.table);
            if let Some(slot) = table.iter().position(|s| s.addr == addr) {
                return slot as u32;
            }
        }
        let mut table = pl_wire::sync::write_recover(&self.table);
        if let Some(slot) = table.iter().position(|s| s.addr == addr) {
            return slot as u32;
        }
        let slot = table.len();
        table.push(Arc::new(BackendState::new(
            addr.to_string(),
            slot,
            &self.registry,
        )));
        slot as u32
    }

    fn quarantine(&self, b: u32) {
        let state = self.backend(b);
        if !state.quarantined.swap(true, Ordering::Relaxed) {
            state.quarantines.inc();
        }
        let strikes = state.strikes.fetch_add(1, Ordering::Relaxed) + 1; // lint: relaxed-ok(strike count only feeds jittered backoff; an approximate read is fine and the value is never a synchronization signal)
        let mut rng = StdRng::seed_from_u64(self.config.retry.seed ^ u64::from(b) ^ strikes);
        let delay = self
            .config
            .retry
            .backoff(strikes.min(u64::from(u32::MAX)) as u32, &mut rng);
        state
            .next_probe_ns
            .store(self.now_ns() + delay.as_nanos() as u64, Ordering::Relaxed);
    }

    fn mark_healthy(&self, b: u32) {
        let state = self.backend(b);
        state.quarantined.store(false, Ordering::Relaxed);
        state.strikes.store(0, Ordering::Relaxed);
    }

    fn is_quarantined(&self, b: u32) -> bool {
        self.backend(b).quarantined.load(Ordering::Relaxed)
    }

    /// Per-backend liveness flags in current-map order, the upward
    /// HEALTH payload.
    fn liveness(&self) -> Vec<bool> {
        let slots = self.current_slots();
        slots.into_iter().map(|b| !self.is_quarantined(b)).collect()
    }

    /// The table slots of the current map's backends, in map order.
    fn current_slots(&self) -> Vec<u32> {
        self.routing().current.ids.clone()
    }

    /// Stages `map` and opens the dual-routing window. The map must
    /// serve the labeling the current map serves.
    fn prepare_map(&self, map: ClusterMap) -> MapVerdict {
        let epoch = map.epoch;
        let _span = pl_obs::span!("router.reconfig", epoch, 0u64);
        // Resolve slots before taking the route lock: slot_for may
        // append to the table.
        let ids: Vec<u32> = map.backends.iter().map(|a| self.slot_for(a)).collect();
        let mut route = pl_wire::sync::write_recover(&self.route);
        let current = &route.current.map;
        if map.check_labeling(current.n, current.tag).is_err() {
            return (MapSetStatus::Failed, route.next.committed());
        }
        let view = RouteView {
            part: map.partitioner(),
            map,
            ids,
        };
        let reply = route.next.prepare(epoch, view);
        if reply.0 == MapSetStatus::Prepared {
            pl_obs::event!("router.reconfig.prepare", epoch);
        }
        reply
    }

    /// Commits the map staged at `epoch`: closes the window and retires
    /// the old map.
    fn commit_map(&self, epoch: u64, moved: u64) -> MapVerdict {
        let _span = pl_obs::span!("router.reconfig", epoch, 1u64);
        let mut route = pl_wire::sync::write_recover(&self.route);
        match route.next.commit(epoch) {
            Ok(view) => {
                route.current = view;
                self.reconfig_epochs.inc();
                self.reconfig_moved.add(moved);
                pl_obs::event!("router.reconfig.commit", epoch, moved);
                (MapSetStatus::Committed, epoch)
            }
            Err(refused) => refused,
        }
    }

    /// Rolls an open window back; a window that was open counts as a
    /// rollback.
    fn abort_map(&self) -> MapVerdict {
        let mut route = pl_wire::sync::write_recover(&self.route);
        let epoch = route.next.committed();
        let _span = pl_obs::span!("router.reconfig", epoch, 2u64);
        if route.next.abort().is_some() {
            self.reconfig_rollbacks.inc();
            pl_obs::event!("router.reconfig.abort", epoch);
        }
        (MapSetStatus::Aborted, epoch)
    }

    /// One query's candidate slots. Outside a reconfiguration window
    /// this is the current map's HRW candidate list translated to
    /// slots; inside the window the pending map's candidates come
    /// first (new owners may already hold the migrated labels) with
    /// the current map's as fallback — `NOT_OWNED` failover walks from
    /// new owners to old owners automatically.
    fn candidate_slots(&self, u: u32, v: u32) -> Vec<u32> {
        let route = pl_wire::sync::read_recover(&self.route);
        let to_slots = |view: &RouteView| -> Vec<u32> {
            view.part
                .candidates(u, v)
                .into_iter()
                .map(|b| view.ids[b as usize])
                .collect()
        };
        let mut slots = match route.next.staged() {
            Some(pending) => {
                self.reconfig_dual.inc();
                let mut out = to_slots(pending);
                for slot in to_slots(&route.current) {
                    if !out.contains(&slot) {
                        out.push(slot);
                    }
                }
                out
            }
            None => to_slots(&route.current),
        };
        slots.dedup();
        slots
    }
}

/// The router as a [`QueryEngine`]: the shared front-end owns the
/// upward transport, this engine owns candidate chains, failover, and
/// stat merging. Its per-connection session is the [`Downstream`]
/// client pool, so each upward connection keeps its own lazily dialed
/// backend connections, exactly as before the front-end was extracted.
pub struct RouterEngine {
    shared: Arc<Shared>,
}

impl QueryEngine for RouterEngine {
    type Session = Downstream;

    fn new_session(&self) -> Downstream {
        self.shared.connections.inc();
        Downstream::new()
    }

    fn scheme_tag(&self) -> u8 {
        self.shared.routing().current.map.tag
    }

    fn n(&self) -> u32 {
        self.shared.routing().current.map.n
    }

    fn answer_batch(&self, session: &mut Downstream, queries: &[Query], answers: &mut Vec<Answer>) {
        answers.extend(answer_batch(&self.shared, session, queries));
    }

    fn health(&self) -> Vec<bool> {
        self.shared.liveness()
    }

    fn map_payload(&self, _session: &mut Downstream) -> Option<Vec<u8>> {
        Some(self.shared.routing().current.map.to_bytes())
    }

    /// The router's side of the reconfiguration state machine:
    /// `Prepare` opens the dual-routing window for an epoch-bumped map,
    /// `Commit` retires the old map, `Abort` rolls the window back.
    /// Routers never `Shrink` (they hold no labels).
    fn map_install(&self, _session: &mut Downstream, req: &MapSetRequest) -> MapVerdict {
        let shared = &self.shared;
        let committed = shared.routing().next.committed();
        match (req.mode, ClusterMap::from_bytes(&req.map)) {
            (MapSetMode::Abort, _) => shared.abort_map(),
            (_, Err(_)) => (MapSetStatus::Failed, committed),
            (MapSetMode::Prepare, Ok(map)) => shared.prepare_map(map),
            (MapSetMode::Commit, Ok(map)) => shared.commit_map(map.epoch, req.moved),
            (MapSetMode::Shrink, Ok(_)) => (MapSetStatus::Unsupported, committed),
        }
    }

    /// A cluster-wide trace dump: the router's own rings tagged
    /// `origin:"router"` plus every reachable backend's rings (dumped
    /// over this session's pooled connections and tagged
    /// `origin:"b{i}"`), merged causally by trace id. `snapshot`
    /// propagates downward, so a non-consuming read consumes nothing
    /// anywhere in the cluster.
    fn trace_jsonl(&self, session: &mut Downstream, snapshot: bool) -> String {
        cluster_trace_jsonl(&self.shared, session, snapshot)
    }

    /// The cluster-wide `STATS`: the router's own samples merged with
    /// each reachable backend's, fetched over this session's pooled
    /// connections. A backend that fails the fetch is quarantined.
    fn wire_stats(&self, session: &mut Downstream, mut own: Stats) -> Stats {
        let shared = &self.shared;
        for b in shared.current_slots() {
            let Ok(mut client) = session.take(shared, b) else {
                continue;
            };
            match client.stats() {
                Ok(s) => {
                    merge_samples(&mut own.samples, &s.samples);
                    session.put(b, client);
                }
                Err(_) => shared.quarantine(b),
            }
        }
        own
    }
}

/// A handle to a running router; dropping it does *not* stop the
/// router — call [`shutdown`](Self::shutdown).
pub struct RouterHandle {
    front: FrontendHandle<RouterEngine>,
    shared: Arc<Shared>,
    prober_thread: Option<std::thread::JoinHandle<()>>,
}

impl RouterHandle {
    /// The bound upward address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// The router's metrics registry (the `plcluster_*` families, plus
    /// the shared front-end's `plserve_*` transport families).
    #[must_use]
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// Renders the router registry as Prometheus text.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        pl_obs::prom::render(&self.shared.registry.samples())
    }

    /// A boxed renderer for [`pl_obs::http::expose`].
    #[must_use]
    pub fn prometheus_renderer(&self) -> Arc<dyn Fn() -> String + Send + Sync> {
        let shared = Arc::clone(&self.shared);
        Arc::new(move || pl_obs::prom::render(&shared.registry.samples()))
    }

    /// Per-backend liveness as the router currently believes it.
    #[must_use]
    pub fn backend_liveness(&self) -> Vec<bool> {
        self.shared.liveness()
    }

    /// Queries that exhausted their whole candidate list.
    #[must_use]
    pub fn exhausted(&self) -> u64 {
        self.shared.exhausted.get()
    }

    /// The committed cluster-map epoch the router is routing on.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.shared.routing().next.committed()
    }

    /// Whether a prepared (dual-routing) reconfiguration window is open.
    #[must_use]
    pub fn reconfiguring(&self) -> bool {
        self.shared.routing().next.staged().is_some()
    }

    /// Signals shutdown, drains the front-end and joins the prober, and
    /// returns the router registry's final samples (no backend merge).
    pub fn shutdown(self) -> Stats {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let snap = self.front.shutdown();
        if let Some(t) = self.prober_thread {
            t.join().ok();
        }
        snap
    }
}

/// The cluster-wide trace dump behind an upward `TRACE_DUMP`: the
/// router's own rings plus each reachable backend's, origin-tagged and
/// causally merged (see [`trace_merge`]). Backend dumps ride the
/// session's pooled downward connections; a backend that fails the dump
/// is quarantined exactly like a failed STATS dial.
fn cluster_trace_jsonl(shared: &Shared, down: &mut Downstream, snapshot: bool) -> String {
    let own = if snapshot {
        trace::snapshot_jsonl()
    } else {
        trace::drain_jsonl()
    };
    let mut streams = vec![("router".to_string(), own)];
    let flags = if snapshot {
        trace_dump_flags::SNAPSHOT
    } else {
        0
    };
    for b in shared.current_slots() {
        let Ok(mut client) = down.take(shared, b) else {
            continue;
        };
        match client.trace_dump_with(flags) {
            Ok(jsonl) => {
                streams.push((format!("b{b}"), jsonl));
                down.put(b, client);
            }
            Err(_) => shared.quarantine(b),
        }
    }
    trace_merge::merge(&streams)
}

/// Starts a router for `map`, listening upward on `addr`, with default
/// transport options (no shedding cap, no deadlines, no faults).
pub fn route(
    map: ClusterMap,
    addr: impl ToSocketAddrs,
    config: RouterConfig,
) -> std::io::Result<RouterHandle> {
    route_with(map, addr, config, FrontendOptions::default())
}

/// Starts a router with explicit front-end transport options. The
/// router inherits shedding (`max_conns`), idle/stall deadlines, and
/// fault injection from the shared front-end — the same hardening as
/// the single-node server, configured the same way.
pub fn route_with(
    map: ClusterMap,
    addr: impl ToSocketAddrs,
    config: RouterConfig,
    front: FrontendOptions,
) -> std::io::Result<RouterHandle> {
    let registry = front
        .registry
        .clone()
        .unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
    let table: Vec<Arc<BackendState>> = map
        .backends
        .iter()
        .enumerate()
        .map(|(slot, addr)| Arc::new(BackendState::new(addr.clone(), slot, &registry)))
        .collect();
    let part = map.partitioner();
    let ids: Vec<u32> = (0..map.backends.len() as u32).collect();
    let shared = Arc::new(Shared {
        route: RwLock::new(RouteState {
            next: EpochFence::new(map.epoch),
            current: RouteView { map, part, ids },
        }),
        table: RwLock::new(table),
        config,
        registry: Arc::clone(&registry),
        batch_ns: registry.histogram("plcluster_batch_ns"),
        batches: registry.counter("plcluster_batches_total"),
        queries: registry.counter("plcluster_queries_total"),
        exhausted: registry.counter("plcluster_exhausted_total"),
        connections: registry.counter("plcluster_connections_total"),
        reconfig_epochs: registry.counter("plcluster_reconfig_epochs_total"),
        reconfig_moved: registry.counter("plcluster_reconfig_vertices_moved_total"),
        reconfig_dual: registry.counter("plcluster_reconfig_dual_routed_total"),
        reconfig_rollbacks: registry.counter("plcluster_reconfig_rollbacks_total"),
        shutdown: AtomicBool::new(false),
        started: Instant::now(),
    });

    let engine = Arc::new(RouterEngine {
        shared: Arc::clone(&shared),
    });
    let front = frontend::bind(
        engine,
        addr,
        FrontendOptions {
            registry: Some(Arc::clone(&registry)),
            ..front
        },
    )?;
    let prober_shared = Arc::clone(&shared);
    let prober_thread = std::thread::Builder::new()
        .name("plcluster-probe".into())
        .spawn(move || prober_loop(&prober_shared))?;
    Ok(RouterHandle {
        front,
        shared,
        prober_thread: Some(prober_thread),
    })
}

/// Background health prober: quarantined backends whose backoff expired
/// get a `HEALTH` round-trip; success lifts the quarantine, failure
/// doubles the pause (seeded jitter included, via the retry policy).
fn prober_loop(shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(shared.config.probe_interval.min(POLL * 5));
        let now = shared.now_ns();
        for b in 0..shared.table_len() as u32 {
            if shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let state = shared.backend(b);
            if !state.quarantined.load(Ordering::Relaxed)
                || state.next_probe_ns.load(Ordering::Relaxed) > now
            {
                continue;
            }
            if probe(shared, &state.addr) {
                shared.mark_healthy(b);
            } else {
                shared.quarantine(b);
            }
        }
    }
}

/// One health probe: connect, HELLO, HEALTH, all under a short deadline.
fn probe(shared: &Shared, addr: &str) -> bool {
    let deadline = shared
        .config
        .retry
        .deadline
        .unwrap_or(Duration::from_millis(500));
    let Ok(mut client) = pl_serve::Client::connect(addr) else {
        return false;
    };
    if client.set_io_deadline(Some(deadline)).is_err() {
        return false;
    }
    client.health().map(|r| r.healthy).unwrap_or(false)
}

/// Lazily connected downward clients, one per backend, owned by one
/// upward connection's thread (it is the [`RouterEngine`] session).
pub struct Downstream {
    clients: HashMap<u32, ResilientClient>,
}

impl Downstream {
    fn new() -> Self {
        Self {
            clients: HashMap::new(),
        }
    }

    fn take(&mut self, shared: &Shared, b: u32) -> Result<ResilientClient, ClientError> {
        if let Some(c) = self.clients.remove(&b) {
            return Ok(c);
        }
        ResilientClient::connect(&shared.backend(b).addr, shared.config.retry.clone())
    }

    fn put(&mut self, b: u32, client: ResilientClient) {
        self.clients.insert(b, client);
    }
}

/// Answers one upward BATCH: scatter along each query's candidate list,
/// gather in request order, failing over per query until its list is
/// exhausted.
///
/// Each round is pipelined on this session thread: every backend's
/// BATCH is written on its pooled connection first, then the replies
/// are read in turn, so the backends work concurrently without a thread
/// per leg. A leg whose write or read fails, or whose reply has
/// retryable slots, carries on in that backend's retrying client.
fn answer_batch(shared: &Shared, down: &mut Downstream, queries: &[Query]) -> Vec<Answer> {
    shared.batches.inc();
    shared.queries.add(queries.len() as u64);
    let scatter_span = pl_obs::span!("router.scatter", queries.len());
    // Several legs are open at once on this thread; each opens under
    // this context so that all of them parent to the scatter span.
    let (trace_hi, trace_lo) = trace::current().map_or((0, 0), |c| (c.trace_hi, c.trace_lo));
    let scatter_ctx = TraceContext {
        trace_hi,
        trace_lo,
        parent_span: scatter_span.as_ref().map_or(0, SpanGuard::span_id),
    };
    let t0 = Instant::now();
    // Candidate lists in HRW order, live backends first (stable, so the
    // HRW preference is kept within each liveness class).
    let candidates: Vec<Vec<u32>> = queries
        .iter()
        .map(|q| {
            let cand = shared.candidate_slots(q.u, q.v);
            let (live, dead): (Vec<u32>, Vec<u32>) =
                cand.into_iter().partition(|&b| !shared.is_quarantined(b));
            live.into_iter().chain(dead).collect()
        })
        .collect();
    let mut next_candidate = vec![0usize; queries.len()];
    let mut answers: Vec<Option<Answer>> = vec![None; queries.len()];
    let max_rounds = candidates.iter().map(Vec::len).max().unwrap_or(0);
    for _round in 0..=max_rounds {
        let mut groups: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (i, cand) in candidates.iter().enumerate() {
            if answers[i].is_some() {
                continue;
            }
            match cand.get(next_candidate[i]) {
                Some(&b) => groups.entry(b).or_default().push(i),
                None => {
                    shared.exhausted.inc();
                    answers[i] = Some(Answer::Overloaded);
                }
            }
        }
        if groups.is_empty() {
            break;
        }
        let legs: Vec<_> = groups
            .into_iter()
            .map(|(b, slots)| {
                let batch: Vec<Query> = slots.iter().map(|&i| queries[i]).collect();
                let sent = down.take(shared, b).map(|mut client| {
                    shared.backend(b).fanout.inc();
                    let _home = trace::adopt(scatter_ctx);
                    let span = pl_obs::span!("router.leg", u64::from(b), batch.len());
                    // The leg span is the parent the backend's spans see.
                    let forward = trace::current();
                    let started = Instant::now();
                    client.start_batch(&batch, forward.as_ref());
                    (client, span, forward, started)
                });
                (b, slots, batch, sent)
            })
            .collect();
        for (b, slots, batch, sent) in legs {
            let state = shared.backend(b);
            let out = sent.and_then(|(mut client, span, forward, started)| {
                let out = client.finish_batch(&batch, forward.as_ref());
                state.backend_ns.record(started.elapsed().as_nanos() as u64);
                drop(span);
                out.map(|got| (client, got))
            });
            // A dead connection fails the whole leg over.
            let got = match out {
                Ok((client, got)) => {
                    down.put(b, client);
                    shared.mark_healthy(b);
                    got
                }
                Err(_) => {
                    shared.quarantine(b);
                    vec![Answer::Overloaded; slots.len()]
                }
            };
            for (&i, answer) in slots.iter().zip(got) {
                match answer {
                    // The partial store couldn't answer there, or the
                    // backend's own retries ran dry: move the query to
                    // its next candidate.
                    Answer::NotOwned | Answer::Overloaded => {
                        state.failover.inc();
                        next_candidate[i] += 1;
                    }
                    settled => answers[i] = Some(settled),
                }
            }
        }
    }
    shared.batch_ns.record(t0.elapsed().as_nanos() as u64);
    answers
        .into_iter()
        .map(|a| a.unwrap_or(Answer::Overloaded))
        .collect()
}
