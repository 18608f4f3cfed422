//! The one reconfiguration policy, seen from outside: a backend and a
//! router answer the same `MAP_SET` sequence with the same verdicts,
//! and a rebalance whose commit is refused rolls the router back and
//! leaves the cluster able to take the next rebalance.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pl_cluster::{
    rebalance, route, split_all, stub_all, ClusterMap, Partitioner, RebalanceAction,
    RebalanceOptions, RouterConfig, RouterHandle,
};
use pl_labeling::scheme::AdjacencyScheme;
use pl_labeling::ThresholdScheme;
use pl_serve::client::loadgen::{self, LoadgenConfig, Skew};
use pl_serve::{
    Client, LabelStore, RetryPolicy, SchemeTag, ServeOptions, ServerHandle, StoreConfig,
    TaggedLabeling,
};
use pl_wire::frontend::{self, FrontendHandle, FrontendOptions, QueryEngine};
use pl_wire::protocol::{
    Answer, LabelsStatus, MapSetMode, MapSetRequest, MapSetStatus, Query, MAP_TARGET_ROUTER,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 0xFE0CE;

fn encode(n: usize, seed: u64) -> (pl_graph::Graph, TaggedLabeling) {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = pl_gen::chung_lu_power_law(n, 2.5, 4.0, &mut rng);
    let tagged = TaggedLabeling {
        tag: SchemeTag::Threshold,
        labeling: ThresholdScheme::with_tau(5).encode(&g),
    };
    (g, tagged)
}

fn map(tagged: &TaggedLabeling, epoch: u64, replicas: u32, backends: &[String]) -> ClusterMap {
    ClusterMap {
        epoch,
        seed: SEED,
        replicas,
        n: tagged.labeling.len() as u32,
        tag: tagged.tag.as_u8(),
        backends: backends.to_vec(),
    }
}

fn serve(tagged: TaggedLabeling) -> ServerHandle {
    let store = Arc::new(LabelStore::new(tagged, StoreConfig::default()).with_partial(true));
    pl_serve::serve_with(store, "127.0.0.1:0", ServeOptions::default()).expect("bind backend")
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

/// The same `MAP_SET` sequence to a backend and to a router, both
/// committed at epoch 1: every step where both apply gets the same
/// `(status, epoch)` at both.
#[test]
fn backend_and_router_give_the_same_map_set_verdicts() {
    let (_, tagged) = encode(120, 3);
    let backend = serve(tagged.clone());
    let addrs = vec![backend.addr().to_string(), "127.0.0.1:9".to_string()];
    let router = route(map(&tagged, 1, 2, &addrs), "127.0.0.1:0", router_config()).expect("route");
    let mut to_backend = Client::connect(backend.addr()).expect("connect backend");
    let mut to_router = Client::connect(router.addr()).expect("connect router");

    // Bring the backend to the router's epoch.
    let map1 = map(&tagged, 1, 2, &addrs).to_bytes();
    for mode in [MapSetMode::Prepare, MapSetMode::Commit] {
        to_backend
            .map_set(mode, 0, 0, &map1)
            .expect("backend setup");
    }
    assert_eq!(backend.reconfig_epoch(), 1);

    let bytes =
        |epoch, replicas, backends: &[String]| map(&tagged, epoch, replicas, backends).to_bytes();
    let mut check = |what: &str, mode, blob: Vec<u8>, want: (MapSetStatus, u64)| {
        let at_backend = to_backend.map_set(mode, 0, 0, &blob);
        let at_router = to_router.map_set(mode, MAP_TARGET_ROUTER, 0, &blob);
        assert_eq!(at_backend.expect("backend"), want, "{what} at the backend");
        assert_eq!(at_router.expect("router"), want, "{what} at the router");
    };
    use MapSetMode::{Abort, Commit, Prepare};
    use MapSetStatus::{Aborted, Committed, Failed, Prepared, Stale};
    check("prepare E+1", Prepare, bytes(2, 2, &addrs), (Prepared, 2));
    check("stale prepare", Prepare, map1, (Stale, 1));
    check("wrong commit", Commit, bytes(3, 2, &addrs), (Failed, 1));
    check("commit", Commit, bytes(2, 2, &addrs), (Committed, 2));
    check("abort", Abort, bytes(2, 2, &addrs), (Aborted, 2));
    check("3 of 2 replicas", Prepare, bytes(3, 3, &addrs), (Failed, 2));
    check("no backends", Prepare, bytes(3, 1, &[]), (Failed, 2));
    assert_eq!((backend.reconfig_epoch(), router.epoch()), (2, 2));
    assert!(!router.reconfiguring());

    router.shutdown();
    backend.shutdown();
}

/// A backend that prepares and takes labels but refuses every commit,
/// and answers every query `NOT_OWNED` (it holds nothing).
struct RefusesCommit {
    tag: u8,
    n: u32,
}

impl QueryEngine for RefusesCommit {
    type Session = ();

    fn new_session(&self) {}

    fn scheme_tag(&self) -> u8 {
        self.tag
    }

    fn n(&self) -> u32 {
        self.n
    }

    fn answer_batch(&self, _: &mut (), queries: &[Query], answers: &mut Vec<Answer>) {
        answers.clear();
        answers.resize(queries.len(), Answer::NotOwned);
    }

    fn health(&self) -> Vec<bool> {
        vec![true]
    }

    fn map_install(&self, _: &mut (), req: &MapSetRequest) -> (MapSetStatus, u64) {
        match (req.mode, ClusterMap::from_bytes(&req.map)) {
            (MapSetMode::Prepare, Ok(map)) => (MapSetStatus::Prepared, map.epoch),
            (MapSetMode::Abort, _) => (MapSetStatus::Aborted, 0),
            _ => (MapSetStatus::Failed, 0),
        }
    }

    fn labels_install(&self, _: &mut (), _: u64, ids: &[u32], _: &[u8]) -> (LabelsStatus, u32) {
        (LabelsStatus::Ok, ids.len() as u32)
    }
}

/// A commit refused after another backend already committed: the
/// rollout aborts the router (back at epoch 1, window closed, rollback
/// counted) and every backend, and the retried scale-out picks an
/// epoch past the backend that committed, so it commits. Verified load
/// runs throughout and sees no wrong or failed answer.
#[test]
fn a_refused_commit_rolls_back_and_the_retry_commits() {
    let (g, tagged) = encode(400, 29);
    let g = Arc::new(g);
    let part = Partitioner::new(SEED, 3, 2);
    let (parts, _) = split_all(&tagged, &part).expect("split");
    let backends: Vec<ServerHandle> = parts.into_iter().map(serve).collect();
    let addrs: Vec<String> = backends.iter().map(|b| b.addr().to_string()).collect();
    let router = route(map(&tagged, 1, 2, &addrs), "127.0.0.1:0", router_config()).expect("route");
    let joiner = serve(stub_all(&tagged).expect("stub").0);
    let refuser: FrontendHandle<RefusesCommit> = frontend::bind(
        Arc::new(RefusesCommit {
            tag: tagged.tag.as_u8(),
            n: tagged.labeling.len() as u32,
        }),
        "127.0.0.1:0",
        FrontendOptions::default(),
    )
    .expect("bind refuser");

    let stop = Arc::new(AtomicBool::new(false));
    let load = {
        let (addr, g, stop) = (router.addr(), Arc::clone(&g), Arc::clone(&stop));
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
    };

    // Both newcomers gain labels, so both commit before the old
    // backends: the joiner first, then the refuser refuses.
    let joiner_addr = joiner.addr().to_string();
    let mut grown = addrs.clone();
    grown.extend([joiner_addr.clone(), refuser.addr().to_string()]);
    let options = RebalanceOptions::default();
    let err = rebalance(
        &tagged,
        &router.addr().to_string(),
        RebalanceAction::Map(map(&tagged, 0, 2, &grown)),
        &options,
    )
    .expect_err("the refused commit must fail the rebalance");
    assert!(err.to_string().contains("refused commit"), "{err}");
    assert_eq!(joiner.reconfig_epoch(), 2, "the joiner committed first");
    assert_eq!(router.epoch(), 1, "the router left epoch 1");
    assert!(!router.reconfiguring(), "the dual window was left open");
    assert_eq!(
        counter_total(&router, "plcluster_reconfig_rollbacks_total"),
        1
    );

    // The retry prepares past the joiner's epoch 2.
    let report = rebalance(
        &tagged,
        &router.addr().to_string(),
        RebalanceAction::Add(joiner_addr),
        &options,
    )
    .expect("the retried scale-out commits");
    assert_eq!((report.old_epoch, report.new_epoch), (1, 3));
    assert!(report.moved > 0);
    assert_eq!(router.epoch(), 3);
    assert!(!router.reconfiguring());
    assert_eq!(counter_total(&router, "plcluster_reconfig_epochs_total"), 1);

    stop.store(true, Ordering::Relaxed);
    let (rounds, mismatches, failed) = load.join().expect("load thread");
    assert!(rounds > 0, "the workload never ran");
    assert_eq!(mismatches, 0, "wrong answers around the refused commit");
    assert_eq!(failed, 0, "failed queries around the refused commit");

    router.shutdown();
    joiner.shutdown();
    refuser.shutdown();
    for b in backends {
        b.shutdown();
    }
}
