//! Live-reconfiguration end-to-end tests: real sockets, in-process
//! backends, a verified workload hammering the router *throughout* the
//! rollout.
//!
//! The acceptance core: a 3-backend × 2-replica cluster scales out to a
//! fourth backend (booted from an all-stub store) and then scales one
//! backend out of rotation — epoch 1 → 2 → 3 — while a continuous
//! `loadgen --verify` workload sees 100% success and zero mismatches.
//! The rollback test kills the gaining backend mid-migration and
//! demands the cluster come back *unchanged* at the old epoch.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pl_cluster::{
    rebalance, route, split_all, stub_all, ClusterMap, Partitioner, RebalanceAction,
    RebalanceOptions, RouterConfig, RouterHandle,
};
use pl_labeling::scheme::AdjacencyScheme;
use pl_labeling::ThresholdScheme;
use pl_serve::client::loadgen::{self, LoadgenConfig, Skew};
use pl_serve::{
    Client, LabelStore, Query, RetryPolicy, SchemeTag, ServeOptions, ServerHandle, StoreConfig,
    TaggedLabeling,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0xEB0C;

fn power_law(n: usize, seed: u64) -> pl_graph::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    pl_gen::chung_lu_power_law(n, 2.5, 4.0, &mut rng)
}

fn encode(g: &pl_graph::Graph, tau: usize) -> TaggedLabeling {
    TaggedLabeling {
        tag: SchemeTag::Threshold,
        labeling: ThresholdScheme::with_tau(tau).encode(g),
    }
}

/// Backends over partial sub-stores + the epoch-1 map pointing at them.
fn spin_backends(
    tagged: &TaggedLabeling,
    backends: usize,
    replicas: usize,
) -> (Vec<ServerHandle>, ClusterMap) {
    let part = Partitioner::new(SEED, backends, replicas);
    let (parts, _) = split_all(tagged, &part).expect("split");
    let handles: Vec<ServerHandle> = parts
        .into_iter()
        .map(|sub| {
            let store = Arc::new(LabelStore::new(sub, StoreConfig::default()).with_partial(true));
            pl_serve::serve_with(store, "127.0.0.1:0", ServeOptions::default())
                .expect("bind backend")
        })
        .collect();
    let map = ClusterMap {
        epoch: 1,
        seed: SEED,
        replicas: replicas as u32,
        n: tagged.labeling.len() as u32,
        tag: tagged.tag as u8,
        backends: handles.iter().map(|h| h.addr().to_string()).collect(),
    };
    (handles, map)
}

/// A joining backend: serves the all-stub sub-store (`NotOwned` for
/// everything) until a rebalance streams its share of labels in.
fn spin_joiner(tagged: &TaggedLabeling) -> ServerHandle {
    let (stub, report) = stub_all(tagged).expect("stub");
    assert_eq!(report.owned, 0);
    let store = Arc::new(LabelStore::new(stub, StoreConfig::default()).with_partial(true));
    pl_serve::serve_with(store, "127.0.0.1:0", ServeOptions::default()).expect("bind joiner")
}

fn router_config() -> RouterConfig {
    RouterConfig {
        retry: RetryPolicy {
            max_retries: 3,
            deadline: Some(Duration::from_millis(400)),
            backoff_base: Duration::from_millis(2),
            backoff_cap: Duration::from_millis(40),
            seed: SEED,
        },
        probe_interval: Duration::from_millis(50),
    }
}

/// Sums a counter family across its labeled children.
fn counter_total(router: &RouterHandle, name: &str) -> u64 {
    router
        .registry()
        .samples()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            pl_obs::registry::MetricValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

/// Continuous verified load until `stop`: returns the accumulated
/// `(rounds, mismatches, failed)`.
fn background_load(
    addr: std::net::SocketAddr,
    g: Arc<pl_graph::Graph>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<(u64, u64, u64)> {
    std::thread::spawn(move || {
        let config = LoadgenConfig {
            connections: 2,
            requests_per_conn: 20,
            batch: 32,
            skew: Skew::Uniform,
            seed: 0xF00D,
            hot_order: None,
            retry: RetryPolicy::default(),
        };
        let (mut rounds, mut mismatches, mut failed) = (0u64, 0u64, 0u64);
        while !stop.load(Ordering::Relaxed) {
            let report = loadgen::run_verified(addr, &config, &g).expect("loadgen round");
            rounds += 1;
            mismatches += report.mismatches;
            failed += report.failed;
        }
        (rounds, mismatches, failed)
    })
}

/// A byte-forwarding TCP proxy that can be severed abruptly — unlike
/// [`ServerHandle::shutdown`], which *drains* open connections (and so
/// politely serves a migration to completion), killing this is a crash:
/// established sockets reset mid-frame and new connects are refused.
/// It can also be *paused*: bytes stop flowing but sockets stay open,
/// which freezes a label migration mid-stream and holds the router's
/// dual-routing window provably open.
struct Chopper {
    addr: SocketAddr,
    kill: Arc<AtomicBool>,
    paused: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

/// One proxy direction: forward bytes until EOF/error, stalling while
/// the proxy is paused (a kill unblocks the stall).
fn relay(mut from: TcpStream, mut to: TcpStream, paused: Arc<AtomicBool>, kill: Arc<AtomicBool>) {
    let mut buf = [0u8; 4096];
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        while paused.load(Ordering::Relaxed) && !kill.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_micros(200));
        }
        if kill.load(Ordering::Relaxed) || to.write_all(&buf[..n]).is_err() {
            break;
        }
    }
    to.shutdown(Shutdown::Both).ok();
}

impl Chopper {
    fn start(target: SocketAddr) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("proxy addr");
        let kill = Arc::new(AtomicBool::new(false));
        let paused = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::default();
        let (kill2, paused2, conns2) = (Arc::clone(&kill), Arc::clone(&paused), Arc::clone(&conns));
        std::thread::spawn(move || {
            while !kill2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((up, _)) => {
                        let Ok(down) = TcpStream::connect(target) else {
                            continue;
                        };
                        let mut ends = conns2.lock().expect("conns lock");
                        ends.push(up.try_clone().expect("clone"));
                        ends.push(down.try_clone().expect("clone"));
                        drop(ends);
                        let (u, d) = (
                            up.try_clone().expect("clone"),
                            down.try_clone().expect("clone"),
                        );
                        let (p, k) = (Arc::clone(&paused2), Arc::clone(&kill2));
                        std::thread::spawn(move || relay(u, d, p, k));
                        let (p, k) = (Arc::clone(&paused2), Arc::clone(&kill2));
                        std::thread::spawn(move || relay(down, up, p, k));
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(_) => break,
                }
            }
            // Dropping the listener here refuses all later connects.
        });
        Self {
            addr,
            kill,
            paused,
            conns,
        }
    }

    /// Stall every relayed byte until [`Self::resume`] (or a kill).
    fn pause(&self) {
        self.paused.store(true, Ordering::Relaxed);
    }

    fn resume(&self) {
        self.paused.store(false, Ordering::Relaxed);
    }

    /// Crash: sever every established connection and stop listening.
    fn kill(&self) {
        self.kill.store(true, Ordering::Relaxed);
        for end in self.conns.lock().expect("conns lock").drain(..) {
            end.shutdown(Shutdown::Both).ok();
        }
    }
}

#[test]
fn scale_out_then_in_under_continuous_verified_load() {
    let g = Arc::new(power_law(400, 17));
    let tagged = encode(&g, 5);
    let (backends, map) = spin_backends(&tagged, 3, 2);
    let router = route(map, "127.0.0.1:0", router_config()).expect("router");
    assert_eq!(router.epoch(), 1);

    let joiner = spin_joiner(&tagged);
    // The joiner sits behind a pausable proxy so the test can freeze
    // the label migration mid-stream and query *inside* the provably
    // open dual-routing window.
    let chopper = Chopper::start(joiner.addr());
    let joiner_addr = chopper.addr.to_string();

    // Hammer the router for the whole double-rollout.
    let stop = Arc::new(AtomicBool::new(false));
    let load = background_load(router.addr(), Arc::clone(&g), Arc::clone(&stop));

    // Small chunks stretch the dual-routing window across many label
    // round-trips, so the pause below lands mid-migration.
    let options = RebalanceOptions { chunk_bytes: 48 };

    // Scale out: epoch 1 -> 2, the joiner gains its HRW share. Run it
    // in a thread so this one can hold the window open and query it.
    let rollout = {
        let tagged = tagged.clone();
        let router_addr = router.addr().to_string();
        let joiner_addr = joiner_addr.clone();
        let options = options.clone();
        std::thread::spawn(move || {
            rebalance(
                &tagged,
                &router_addr,
                RebalanceAction::Add(joiner_addr),
                &options,
            )
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !router.reconfiguring() {
        assert!(Instant::now() < deadline, "dual window never opened");
        std::thread::yield_now();
    }
    // Freeze the migration: the coordinator is stalled mid-stream, so
    // the window cannot close under us. Every query answered now is
    // dual-routed (new owners first, fallback to the old map) and must
    // still be correct — the frozen joiner forces the fallback path.
    chopper.pause();
    let mut during = Client::connect(router.addr()).expect("connect during window");
    let answers = during
        .batch(&[Query::adjacent(0, 1), Query::adjacent(2, 3)])
        .expect("batch during window");
    for (a, (u, v)) in answers.into_iter().zip([(0, 1), (2, 3)]) {
        let want = if g.has_edge(u, v) {
            pl_serve::Answer::Adjacent
        } else {
            pl_serve::Answer::NotAdjacent
        };
        assert_eq!(a, want, "({u},{v}) inside the dual window");
    }
    assert!(
        counter_total(&router, "plcluster_reconfig_dual_routed_total") > 0,
        "no query ever dual-routed"
    );
    chopper.resume();
    let report = rollout
        .join()
        .expect("rollout thread")
        .expect("scale-out rebalance");
    assert_eq!((report.old_epoch, report.new_epoch), (1, 2));
    assert!(report.moved > 0, "scale-out moved no vertices");
    assert_eq!(report.gained.len(), 1, "only the joiner gains on add");
    assert_eq!(report.gained[0].0, joiner_addr);
    assert!(!report.shrunk.is_empty(), "no displaced owner shrank");
    assert_eq!(router.epoch(), 2);
    assert!(!router.reconfiguring(), "window left open after commit");

    // Scale in: epoch 2 -> 3, backend 0 leaves the rotation and the
    // survivors absorb its share.
    let report_in = rebalance(
        &tagged,
        &router.addr().to_string(),
        RebalanceAction::Remove(0),
        &options,
    )
    .expect("scale-in rebalance");
    assert_eq!((report_in.old_epoch, report_in.new_epoch), (2, 3));
    assert!(report_in.moved > 0, "scale-in moved no vertices");
    assert_eq!(router.epoch(), 3);

    stop.store(true, Ordering::Relaxed);
    let (rounds, mismatches, failed) = load.join().expect("load thread");
    assert!(rounds > 0, "workload never ran");
    assert_eq!(mismatches, 0, "wrong answers during reconfiguration");
    assert_eq!(failed, 0, "failed queries during reconfiguration");

    // The reconfiguration counters observed both rollouts.
    assert_eq!(counter_total(&router, "plcluster_reconfig_epochs_total"), 2);
    assert_eq!(
        counter_total(&router, "plcluster_reconfig_vertices_moved_total"),
        report.moved + report_in.moved
    );
    assert_eq!(
        counter_total(&router, "plcluster_reconfig_rollbacks_total"),
        0
    );

    // One last verified pass against the settled epoch-3 cluster.
    let report = loadgen::run_verified(
        router.addr(),
        &LoadgenConfig {
            connections: 2,
            requests_per_conn: 40,
            batch: 32,
            skew: Skew::Zipf(1.1),
            seed: 0xBEEF,
            hot_order: None,
            retry: RetryPolicy::default(),
        },
        &g,
    )
    .expect("settled loadgen");
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.failed, 0);

    router.shutdown();
    joiner.shutdown();
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn killing_the_gaining_backend_rolls_the_cluster_back() {
    let g = Arc::new(power_law(600, 23));
    let tagged = encode(&g, 5);
    let (backends, map) = spin_backends(&tagged, 3, 2);
    let router = route(map, "127.0.0.1:0", router_config()).expect("router");
    let joiner = spin_joiner(&tagged);
    // The cluster reaches the joiner only through the severable proxy.
    let chopper = Chopper::start(joiner.addr());
    let joiner_addr = chopper.addr.to_string();

    let stop = Arc::new(AtomicBool::new(false));
    let load = background_load(router.addr(), Arc::clone(&g), Arc::clone(&stop));

    // Tiny chunks: hundreds of round-trips to the joiner, a wide
    // mid-migration window for the kill below to land in.
    let options = RebalanceOptions { chunk_bytes: 48 };
    let rollout = {
        let tagged = tagged.clone();
        let router_addr = router.addr().to_string();
        std::thread::spawn(move || {
            rebalance(
                &tagged,
                &router_addr,
                RebalanceAction::Add(joiner_addr),
                &options,
            )
        })
    };

    // The dual window opening means every backend prepared and label
    // streaming is under way — freeze the stream so the rollout cannot
    // finish before the crash lands, then crash the gaining backend.
    let deadline = Instant::now() + Duration::from_secs(10);
    while !router.reconfiguring() {
        assert!(Instant::now() < deadline, "dual window never opened");
        std::thread::yield_now();
    }
    chopper.pause();
    chopper.kill();

    let err = rollout
        .join()
        .expect("rollout thread")
        .expect_err("rebalance must fail once the gaining backend dies");
    let msg = err.to_string();
    assert!(
        msg.contains("transport") || msg.contains("refused"),
        "unexpected failure: {msg}"
    );

    // Rolled back: old epoch, window closed, rollback counted — and the
    // aborted push never became observable.
    assert_eq!(router.epoch(), 1, "epoch moved despite the rollback");
    assert!(!router.reconfiguring(), "dual window left open");
    assert!(
        counter_total(&router, "plcluster_reconfig_rollbacks_total") > 0,
        "rollback not counted"
    );
    assert_eq!(counter_total(&router, "plcluster_reconfig_epochs_total"), 0);

    stop.store(true, Ordering::Relaxed);
    let (rounds, mismatches, failed) = load.join().expect("load thread");
    assert!(rounds > 0);
    assert_eq!(mismatches, 0, "wrong answers during the aborted rollout");
    assert_eq!(failed, 0, "failed queries during the aborted rollout");

    router.shutdown();
    joiner.shutdown();
    for b in backends {
        b.shutdown();
    }
}
