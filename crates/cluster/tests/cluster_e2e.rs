//! End-to-end cluster tests: real sockets, in-process backends.
//!
//! The backends are `pl_serve` servers over partial sub-stores cut by
//! [`pl_cluster::split_all`]; the router is started on top and queried
//! through the ordinary [`pl_serve::Client`] / loadgen — exactly the
//! zero-client-changes contract the router promises. The kill test is
//! the acceptance core: with `R = 2`, shutting one backend down
//! mid-workload must not produce a single wrong answer.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pl_cluster::{route, split_all, ClusterMap, Partitioner, RouterConfig};
use pl_labeling::scheme::AdjacencyScheme;
use pl_labeling::ThresholdScheme;
use pl_serve::client::loadgen::{self, LoadgenConfig, Skew};
use pl_serve::{
    Answer, Client, LabelStore, Query, RetryPolicy, SchemeTag, ServeOptions, ServerHandle,
    StoreConfig, TaggedLabeling,
};
use pl_wire::protocol::{encode_hello_ok, opcode, parse_hello, read_frame, write_frame};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 0xC1E2E;

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

/// Backends over partial sub-stores + the map pointing at them.
fn spin_backends(
    tagged: &TaggedLabeling,
    backends: usize,
    replicas: usize,
    fault_plan: Option<&str>,
) -> (Vec<ServerHandle>, ClusterMap) {
    let part = Partitioner::new(SEED, backends, replicas);
    let (parts, _) = split_all(tagged, &part).expect("split");
    let handles: Vec<ServerHandle> = parts
        .into_iter()
        .map(|sub| {
            let store = Arc::new(LabelStore::new(sub, StoreConfig::default()).with_partial(true));
            pl_serve::serve_with(
                store,
                "127.0.0.1:0",
                ServeOptions {
                    fault_plan: fault_plan.map(|s| pl_serve::FaultPlan::parse(s).expect("plan")),
                    ..ServeOptions::default()
                },
            )
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

#[test]
fn router_answers_like_a_single_server() {
    let g = power_law(300, 5);
    let tagged = encode(&g, 5);
    let (backends, map) = spin_backends(&tagged, 3, 2, None);
    let router = route(map, "127.0.0.1:0", router_config()).expect("router");

    let mut client = Client::connect(router.addr()).expect("connect via router");
    assert_eq!(client.n(), 300);
    assert_eq!(client.tag(), SchemeTag::Threshold as u8);

    // Every pair of a vertex sample, in batches, vs graph truth.
    let mut rng = StdRng::seed_from_u64(7);
    let queries: Vec<Query> = (0..2_000)
        .map(|_| Query::adjacent(rng.gen_range(0..300), rng.gen_range(0..300)))
        .collect();
    for chunk in queries.chunks(64) {
        let answers = client.batch(chunk).expect("batch");
        for (q, a) in chunk.iter().zip(answers) {
            let want = if g.has_edge(q.u, q.v) {
                pl_serve::Answer::Adjacent
            } else {
                pl_serve::Answer::NotAdjacent
            };
            assert_eq!(a, want, "({}, {}) through router", q.u, q.v);
        }
    }

    // Out-of-range ids answer per-query statuses, not errors.
    let answers = client
        .batch(&[Query::adjacent(0, 300), Query::adjacent(500, 600)])
        .expect("oor batch");
    assert_eq!(answers[0], pl_serve::Answer::OutOfRange);
    assert_eq!(answers[1], pl_serve::Answer::OutOfRange);

    // HEALTH reports one flag per backend; STATS merges their counters.
    let health = client.health().expect("health");
    assert!(health.healthy);
    assert_eq!(health.shards.len(), 3);
    let stats = client.stats().expect("stats");
    assert!(stats.adj_queries >= 2_000, "merged adj_queries: {stats}");
    assert!(stats.shard_cache.is_empty(), "no cache slots: {stats}");

    client.goodbye().expect("goodbye");
    let snap = router.shutdown();
    assert!(snap.batches > 0);
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn killing_one_backend_loses_no_answers_with_two_replicas() {
    let g = power_law(400, 9);
    let tagged = encode(&g, 6);
    let (mut backends, map) = spin_backends(&tagged, 3, 2, None);
    let router = route(map, "127.0.0.1:0", router_config()).expect("router");

    // Warm: prove the cluster answers before the kill.
    let report = loadgen::run_verified(
        router.addr(),
        &LoadgenConfig {
            connections: 2,
            requests_per_conn: 40,
            batch: 32,
            skew: Skew::Uniform,
            seed: 0xA,
            hot_order: None,
            retry: Some(RetryPolicy::default()),
        },
        &g,
    )
    .expect("warm loadgen");
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.failed, 0);

    // Kill backend 0 outright, then hammer the router again: every
    // query must still answer correctly via the surviving replicas.
    backends.remove(0).shutdown();
    let report = loadgen::run_verified(
        router.addr(),
        &LoadgenConfig {
            connections: 4,
            requests_per_conn: 60,
            batch: 32,
            skew: Skew::Zipf(1.1),
            seed: 0xB,
            hot_order: None,
            retry: Some(RetryPolicy::default()),
        },
        &g,
    )
    .expect("post-kill loadgen");
    assert_eq!(report.mismatches, 0, "wrong answers after backend kill");
    assert_eq!(
        report.failed,
        0,
        "failed queries after backend kill (success {:.2}%)",
        report.success_rate() * 100.0
    );

    // The failover counter moved and the metrics surface shows it.
    let prom = router.prometheus_text();
    assert!(
        prom.contains("plcluster_failover_total"),
        "missing family in:\n{prom}"
    );
    let failovers: u64 = router
        .registry()
        .samples()
        .iter()
        .filter(|s| s.name == "plcluster_failover_total")
        .map(|s| match s.value {
            pl_obs::registry::MetricValue::Counter(c) => c,
            _ => 0,
        })
        .sum();
    assert!(failovers > 0, "no failovers counted despite a dead backend");

    // The dead backend lands in quarantine, visible via HEALTH.
    let mut deadline = 100;
    let degraded = loop {
        let live = router.backend_liveness();
        if !live[0] || deadline == 0 {
            break !live[0];
        }
        deadline -= 1;
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(degraded, "backend 0 never quarantined");

    let snap = router.shutdown();
    assert!(snap.batches > 0);
    for b in backends {
        b.shutdown();
    }
}

#[test]
fn chaos_flips_on_survivors_stay_correct() {
    // Byte flips + truncations on every backend: the router's resilient
    // downward clients must absorb them (checksum catch + replay), so
    // zero wrong answers reach the upward client.
    let g = power_law(250, 13);
    let tagged = encode(&g, 5);
    let plan = "seed=3,flip=0.05,truncate=0.03,drop=0.02,delay_ms=1";
    let (backends, map) = spin_backends(&tagged, 3, 2, Some(plan));
    let router = route(map, "127.0.0.1:0", router_config()).expect("router");

    let report = loadgen::run_verified(
        router.addr(),
        &LoadgenConfig {
            connections: 3,
            requests_per_conn: 50,
            batch: 24,
            skew: Skew::Zipf(1.2),
            seed: 0xC,
            hot_order: None,
            retry: Some(RetryPolicy::default()),
        },
        &g,
    )
    .expect("chaos loadgen");
    assert_eq!(report.mismatches, 0, "corruption reached a client");
    assert!(
        report.success_rate() > 0.99,
        "success {:.2}%",
        report.success_rate() * 100.0
    );

    let faults: u64 = backends.iter().map(|b| b.snapshot().faults_injected).sum();
    assert!(faults > 0, "no faults injected — chaos plan inert");

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// Sum of a router counter family, optionally for one `backend` or
/// `partition` label value.
fn counter(router: &pl_cluster::RouterHandle, name: &str, label: Option<&str>) -> u64 {
    router
        .registry()
        .samples()
        .iter()
        .filter(|s| {
            s.name == name
                && (label.is_none() || s.labels.iter().any(|(_, v)| Some(v.as_str()) == label))
        })
        .map(|s| match s.value {
            pl_obs::registry::MetricValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

#[test]
fn healthy_three_by_two_cluster_never_reasks() {
    // 2R > B: every pair has a backend owning both endpoints, which
    // answers every fat/thin case, so a healthy cluster routes each
    // query right the first time — one leg per backend at most.
    let g = power_law(400, 21);
    let tagged = encode(&g, 6);
    let (backends, map) = spin_backends(&tagged, 3, 2, None);
    let router = route(map, "127.0.0.1:0", router_config()).expect("router");

    let report = loadgen::run_verified(
        router.addr(),
        &LoadgenConfig {
            connections: 2,
            requests_per_conn: 640,
            batch: 32,
            skew: Skew::Zipf(1.2),
            seed: 0xD,
            // Hubs hottest, so fat/thin pairs are common.
            hot_order: Some(pl_graph::degree::vertices_by_degree_desc(&g)),
            retry: None,
        },
        &g,
    )
    .expect("verified loadgen");
    assert_eq!(report.mismatches, 0);
    assert_eq!(report.queries, 1_280);

    assert_eq!(
        counter(&router, "plcluster_failover_total", None),
        0,
        "a healthy 3x2 cluster re-asked queries"
    );
    let batches = counter(&router, "plcluster_batches_total", None);
    let fanout = counter(&router, "plcluster_fanout_total", None);
    assert!(batches >= 40, "only {batches} batches counted");
    assert!(
        fanout <= 3 * batches,
        "{fanout} legs over {batches} batches: more than one round"
    );

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// A stand-in backend that completes every handshake, reads one request
/// and closes without replying. Returns its address, its count of BATCH
/// requests read, and a stopper that joins its accept thread.
fn spin_dropper(tag: u8, n: u32) -> (SocketAddr, Arc<AtomicU64>, impl FnOnce()) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind dropper");
    let addr = listener.local_addr().expect("dropper addr");
    let batches = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let (batches, stop) = (Arc::clone(&batches), Arc::clone(&stop));
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(mut stream) = stream else { continue };
                // A peer that never sends must not wedge the stopper.
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let Ok(version) = read_frame(&mut stream).and_then(|hello| {
                    parse_hello(&hello).map_err(|e| std::io::Error::other(e.to_string()))
                }) else {
                    continue;
                };
                if write_frame(&mut stream, &encode_hello_ok(version, tag, n)).is_err() {
                    continue;
                }
                if read_frame(&mut stream).is_ok_and(|req| req.first() == Some(&opcode::BATCH)) {
                    batches.fetch_add(1, Ordering::SeqCst);
                }
            }
        })
    };
    let stopper = move || {
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        thread.join().expect("dropper thread");
    };
    (addr, batches, stopper)
}

#[test]
fn backend_dropping_a_read_batch_fails_only_its_leg_over() {
    let g = power_law(400, 17);
    let tagged = encode(&g, 6);
    let (mut backends, mut map) = spin_backends(&tagged, 3, 2, None);
    // Backend 0 reads each BATCH, then hangs up without a reply.
    backends.remove(0).shutdown();
    let (dropper, dropped, stop_dropper) = spin_dropper(tagged.tag as u8, 400);
    map.backends[0] = dropper.to_string();
    let router = route(map, "127.0.0.1:0", router_config()).expect("router");

    // Pairs whose endpoints share both owners: after backend 0 every
    // query's next candidate owns both endpoints and answers, so each
    // query reaches exactly one live backend exactly once.
    let part = Partitioner::new(SEED, 3, 2);
    let mut rng = StdRng::seed_from_u64(0xD0);
    let mut queries = Vec::new();
    while queries.len() < 96 {
        let (u, v) = (rng.gen_range(0..400), rng.gen_range(0..400));
        let (mut ou, mut ov) = (part.owners(u), part.owners(v));
        ou.sort_unstable();
        ov.sort_unstable();
        if ou == ov {
            queries.push(Query::adjacent(u, v));
        }
    }
    let first_at_dropper = queries
        .iter()
        .filter(|q| part.candidates(q.u, q.v)[0] == 0)
        .count() as u64;
    assert!((1..96).contains(&first_at_dropper), "{first_at_dropper}");

    let mut client = Client::connect(router.addr()).expect("connect via router");
    let answers = client.batch(&queries).expect("batch");
    for (q, a) in queries.iter().zip(answers) {
        let want = if g.has_edge(q.u, q.v) {
            Answer::Adjacent
        } else {
            Answer::NotAdjacent
        };
        assert_eq!(a, want, "({}, {}) through router", q.u, q.v);
    }

    // The dropped leg's queries, and only those, failed over.
    assert!(dropped.load(Ordering::SeqCst) >= 1, "dropper read no BATCH");
    assert_eq!(
        counter(&router, "plcluster_failover_total", Some("0")),
        first_at_dropper
    );
    assert_eq!(
        counter(&router, "plcluster_failover_total", None),
        first_at_dropper
    );
    // The other legs' replies were used, not re-asked: the live
    // backends answered each query once.
    let served: u64 = backends.iter().map(|b| b.snapshot().adj_queries).sum();
    assert_eq!(served, queries.len() as u64, "live backends re-asked");
    // And the dropper is quarantined.
    assert!(!router.backend_liveness()[0], "dropper not quarantined");
    assert!(counter(&router, "plcluster_quarantine_total", Some("0")) >= 1);

    client.goodbye().ok();
    router.shutdown();
    stop_dropper();
    for b in backends {
        b.shutdown();
    }
}
