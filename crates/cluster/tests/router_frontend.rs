//! The router's upward transport is the shared `pl_wire` front-end.
//!
//! These tests pin the behaviours the router inherited from the
//! refactor rather than implementing itself: byte-identical wire
//! replies across every protocol version, connection shedding at
//! `max_conns`, and front-end fault injection — all of which the old
//! private router transport lacked (shedding, faults) or duplicated
//! (framing).

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use pl_cluster::{route_with, split_all, ClusterMap, Partitioner, RouterConfig, RouterHandle};
use pl_labeling::scheme::AdjacencyScheme;
use pl_labeling::ThresholdScheme;
use pl_serve::client::loadgen::{self, LoadgenConfig, Skew};
use pl_serve::{
    Client, LabelStore, Query, RetryPolicy, SchemeTag, ServerHandle, StoreConfig, TaggedLabeling,
};
use pl_wire::fault::FaultPlan;
use pl_wire::protocol::{encode_batch, encode_hello_version, opcode, read_frame, write_frame};
use pl_wire::FrontendOptions;

const SEED: u64 = 0xF00D;

fn retry_config() -> RouterConfig {
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

/// One-backend, one-replica cluster over `tagged`; every vertex is
/// owned, so the router's answers match a single server's exactly.
fn single_backend_cluster(
    tagged: &TaggedLabeling,
    front: FrontendOptions,
) -> (Vec<ServerHandle>, RouterHandle) {
    let part = Partitioner::new(SEED, 1, 1);
    let (parts, _) = split_all(tagged, &part).expect("split");
    let backends: Vec<ServerHandle> = parts
        .into_iter()
        .map(|sub| {
            let store = Arc::new(LabelStore::new(sub, StoreConfig::default()).with_partial(true));
            pl_serve::serve(store, "127.0.0.1:0").expect("bind backend")
        })
        .collect();
    let map = ClusterMap {
        epoch: 1,
        seed: SEED,
        replicas: 1,
        n: tagged.labeling.len() as u32,
        tag: tagged.tag as u8,
        backends: backends.iter().map(|h| h.addr().to_string()).collect(),
    };
    let router = route_with(map, "127.0.0.1:0", retry_config(), front).expect("router");
    (backends, router)
}

fn path_labeling() -> TaggedLabeling {
    let g = pl_graph::builder::from_edges(8, [(0, 1), (1, 2), (2, 3)]);
    TaggedLabeling {
        tag: SchemeTag::Threshold,
        labeling: ThresholdScheme::with_tau(4).encode(&g),
    }
}

fn counter_sum(registry: &pl_obs::MetricsRegistry, name: &str) -> u64 {
    registry
        .samples()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match s.value {
            pl_obs::registry::MetricValue::Counter(c) => c,
            _ => 0,
        })
        .sum()
}

/// The router must put the same bytes on the wire as a single server:
/// the identical golden frames `front_equivalence.rs` pins for
/// `pl_serve`, here through the scatter-gather path, on every version.
#[test]
fn router_replies_with_the_same_golden_bytes_as_a_server() {
    let (backends, router) = single_backend_cluster(&path_labeling(), FrontendOptions::default());
    for version in 1..=4u8 {
        let mut stream = TcpStream::connect(router.addr()).expect("connect");
        write_frame(&mut stream, &encode_hello_version(version)).expect("hello");
        let hello_ok = read_frame(&mut stream).expect("hello_ok");
        assert_eq!(
            hello_ok,
            vec![0x80, version, 0x01, 0x08, 0x00, 0x00, 0x00],
            "router HELLO_OK drifted on v{version}"
        );

        let queries = [Query::adjacent(0, 1), Query::adjacent(0, 3)];
        write_frame(&mut stream, &encode_batch(&queries).expect("encode")).expect("batch");
        let reply = read_frame(&mut stream).expect("reply");
        let mut golden = vec![0x81, 0x02, 0x00, 0x01, 0x00];
        if version >= 3 {
            golden.extend_from_slice(&[0x57, 0x9F, 0x20, 0x3E]); // FNV-1a-32 LE
        }
        assert_eq!(reply, golden, "router BATCH_REPLY drifted on v{version}");

        write_frame(&mut stream, &[opcode::GOODBYE]).expect("goodbye");
        assert_eq!(
            read_frame(&mut stream).expect("bye"),
            vec![opcode::GOODBYE_OK]
        );
    }
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// `--max-conns` now works on the router: with a cap of 1 and one
/// handshaken client holding the slot, the next connection is shed with
/// a single `OVERLOADED` frame and the shed counters move — both in the
/// router's registry and in the merged upward STATS.
#[test]
fn router_sheds_connections_over_max_conns() {
    let (backends, router) = single_backend_cluster(
        &path_labeling(),
        FrontendOptions {
            max_conns: Some(1),
            ..FrontendOptions::default()
        },
    );

    // A fully handshaken client guarantees the one slot is claimed.
    let mut client = Client::connect(router.addr()).expect("first connection");
    assert_eq!(client.n(), 8);

    let mut extra = TcpStream::connect(router.addr()).expect("connect over cap");
    let shed = read_frame(&mut extra).expect("shed frame");
    assert_eq!(shed, vec![opcode::OVERLOADED], "expected a shed notice");

    assert!(
        counter_sum(&router.registry(), "plserve_shed_total") >= 1,
        "router registry must count the shed"
    );
    let stats = client.stats().expect("stats via router");
    assert!(stats.shed >= 1, "shed missing from merged STATS: {stats}");

    client.goodbye().ok();
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}

/// `--fault-plan` now works on the router: per-query `store_err` faults
/// injected at the router's own front-end answer `OVERLOADED` upward,
/// the retrying load generator re-asks them to correct answers, and
/// `plserve_faults_injected_total` moves in the router registry and in
/// the merged upward STATS.
#[test]
fn router_injects_faults_under_a_fault_plan() {
    let mut rng_free_graph = {
        use rand::SeedableRng as _;
        rand::rngs::StdRng::seed_from_u64(21)
    };
    let g = pl_gen::chung_lu_power_law(300, 2.5, 4.0, &mut rng_free_graph);
    let tagged = TaggedLabeling {
        tag: SchemeTag::Threshold,
        labeling: ThresholdScheme::with_tau(5).encode(&g),
    };
    let (backends, router) = single_backend_cluster(
        &tagged,
        FrontendOptions {
            fault_plan: Some(FaultPlan::parse("seed=11,store_err=0.2").expect("plan")),
            ..FrontendOptions::default()
        },
    );

    let report = loadgen::run_verified(
        router.addr(),
        &LoadgenConfig {
            connections: 2,
            requests_per_conn: 60,
            batch: 24,
            skew: Skew::Zipf(1.1),
            seed: 0xD,
            hot_order: None,
            // Generous re-ask budget: each faulted query re-rolls at
            // p=0.2, so 8 rounds make a stuck query vanishingly rare.
            retry: Some(RetryPolicy {
                max_retries: 8,
                ..RetryPolicy::default()
            }),
        },
        &g,
    )
    .expect("loadgen through faulty router");
    assert_eq!(report.mismatches, 0, "a fault leaked a wrong answer");
    assert_eq!(report.failed, 0, "retries must absorb injected store_errs");

    assert!(
        counter_sum(&router.registry(), "plserve_faults_injected_total") > 0,
        "no faults counted — router plan inert"
    );
    let mut client = Client::connect(router.addr()).expect("stats connection");
    let stats = client.stats().expect("stats");
    assert!(
        stats.faults_injected > 0,
        "faults missing from merged STATS: {stats}"
    );
    client.goodbye().ok();

    router.shutdown();
    for b in backends {
        b.shutdown();
    }
}
