//! Resilience acceptance tests: fault-injected servers, reconnecting
//! clients, overload shedding, idle/stall deadlines, and the HEALTH
//! surface — all over real TCP sockets.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pl_graph::degree::vertices_by_degree_desc;
use pl_labeling::scheme::AdjacencyScheme;
use pl_labeling::ThresholdScheme;
use pl_serve::client::loadgen::{self, LoadgenConfig, Skew};
use pl_serve::client::{ClientError, RetryKind};
use pl_serve::{
    Answer, Client, FaultPlan, LabelStore, Query, ResilientClient, RetryPolicy, SchemeTag,
    ServeOptions, StoreConfig, TaggedLabeling,
};
use pl_wire::protocol::{
    encode_batch_reply, encode_hello, encode_hello_ok, opcode, parse_batch, read_frame,
    write_frame, VERSION,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn chung_lu(n: usize, seed: u64) -> pl_graph::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    pl_gen::chung_lu_power_law(n, 2.5, 5.0, &mut rng)
}

fn threshold_store(g: &pl_graph::Graph, tau: usize, config: StoreConfig) -> Arc<LabelStore> {
    Arc::new(LabelStore::new(
        TaggedLabeling {
            tag: SchemeTag::Threshold,
            labeling: ThresholdScheme::with_tau(tau).encode(g),
        },
        config,
    ))
}

fn fast_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_retries: 6,
        deadline: Some(Duration::from_millis(500)),
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        seed,
    }
}

/// The headline chaos test: a server injecting >10% frame faults plus
/// simulated store errors serves a Chung–Lu graph to retrying Zipf
/// workers; every answer that comes back must match the graph, and the
/// retry loop must absorb (not surface) the injected failures.
#[test]
fn faulted_server_never_answers_wrong() {
    let g = chung_lu(4_000, 42);
    let store = threshold_store(&g, 8, StoreConfig::default());
    let plan = FaultPlan::parse(
        "seed=7,flip=0.05,truncate=0.04,drop=0.03,store_err=0.05,write_delay=0.02,read_delay=0.02,delay_ms=1",
    )
    .expect("plan parses");
    assert!(plan.frame_fault_rate() >= 0.05, "the gate needs ≥5%");
    let handle = pl_serve::serve_with(
        store,
        "127.0.0.1:0",
        ServeOptions {
            fault_plan: Some(plan),
            ..ServeOptions::default()
        },
    )
    .expect("bind");

    let config = LoadgenConfig {
        connections: 4,
        requests_per_conn: 2_000,
        batch: 32,
        skew: Skew::Zipf(1.2),
        seed: 3,
        hot_order: Some(vertices_by_degree_desc(&g)),
        retry: fast_policy(0x7E57),
    };
    let report = loadgen::run_verified(handle.addr(), &config, &g).expect("chaos run completes");

    assert_eq!(report.mismatches, 0, "a retried answer must never be wrong");
    assert!(
        report.success_rate() >= 0.99,
        "expected ≥99% success after retries, got {:.4} ({} ok, {} failed)",
        report.success_rate(),
        report.queries,
        report.failed
    );
    assert!(report.retries > 0, "the plan must actually bite");

    let stats = handle.shutdown();
    assert!(
        stats.counter("plserve_faults_injected_total") > 0,
        "server must report injected faults: {stats}"
    );
}

/// Reconnect-and-replay across a full server restart: the client loses
/// its server mid-workload, keeps retrying through the refused
/// connections, and finishes with correct answers once the same port is
/// serving again.
#[test]
fn client_replays_across_server_restart() {
    let g = chung_lu(1_000, 9);
    let store = threshold_store(&g, 8, StoreConfig::default());
    // Reserve a concrete port, then free it for the server: restarts
    // must land on the *same* address for the replay to mean anything.
    let addr = TcpListener::bind("127.0.0.1:0")
        .expect("probe bind")
        .local_addr()
        .expect("probe addr");

    let handle = pl_serve::serve(Arc::clone(&store), &addr.to_string()).expect("first bind");
    let policy = RetryPolicy {
        max_retries: 60,
        ..fast_policy(11)
    };
    let mut client = ResilientClient::connect(addr, policy).expect("connect");
    let edges: Vec<(u32, u32)> = g.edges().take(50).collect();
    for &(u, v) in &edges {
        assert!(client.adjacent(u, v).expect("pre-restart answer"));
    }
    assert_eq!(client.retries(), 0, "healthy server needs no retries");

    handle.shutdown();
    // Restart on the same port after a visible outage window.
    let restart = std::thread::spawn({
        let store = Arc::clone(&store);
        move || {
            std::thread::sleep(Duration::from_millis(300));
            pl_serve::serve(store, &addr.to_string()).expect("rebind same port")
        }
    });

    // Queries issued into the outage must replay, not fail and not lie.
    for &(u, v) in &edges {
        assert!(
            client.adjacent(u, v).expect("post-restart answer"),
            "replayed query ({u}, {v}) answered wrong"
        );
    }
    assert!(
        client.retries() > 0,
        "the outage must have forced at least one replay"
    );
    client.goodbye();
    restart.join().expect("restart thread").shutdown();
}

/// Regression: finished connection handles used to pile up in the
/// accept loop until shutdown. Open and close many short-lived
/// connections and require the held-handle count to come back down.
#[test]
fn finished_connection_handles_are_reaped() {
    let g = chung_lu(300, 4);
    let store = threshold_store(&g, 8, StoreConfig::default());
    let handle = pl_serve::serve(store, "127.0.0.1:0").expect("bind");

    let total = 60;
    for i in 0..total {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let _ = client.adjacent(i % 300, (i + 1) % 300).expect("query");
        client.goodbye().expect("goodbye");
    }
    assert_eq!(
        handle.snapshot().counter("plserve_connections_total"),
        u64::from(total)
    );

    // Give the accept loop a few poll ticks to observe the exits.
    let mut held = usize::MAX;
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(20));
        held = handle.conn_handle_count();
        if held == 0 {
            break;
        }
    }
    assert!(
        held <= 4,
        "accept loop still holds {held} handles after {total} closed connections"
    );
    assert_eq!(handle.live_connections(), 0);
    handle.shutdown();
}

/// At the connection cap the server sheds: the refused peer gets an
/// OVERLOADED frame (not silence), the shed counter moves, and accepted
/// connections keep working.
#[test]
fn connection_cap_sheds_with_overloaded_frame() {
    let g = chung_lu(300, 6);
    let store = threshold_store(&g, 8, StoreConfig::default());
    let handle = pl_serve::serve_with(
        store,
        "127.0.0.1:0",
        ServeOptions {
            max_conns: Some(1),
            ..ServeOptions::default()
        },
    )
    .expect("bind");

    // First connection owns the only slot.
    let mut first = Client::connect(handle.addr()).expect("first connect");
    assert!(first.adjacent(0, 1).is_ok());

    // Second connection is shed with an explanatory frame. Send nothing:
    // the server sheds at accept, and an unread HELLO at close time
    // would RST away the buffered OVERLOADED frame.
    let mut raw = TcpStream::connect(handle.addr()).expect("tcp connect");
    raw.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let reply = read_frame(&mut raw).expect("shed frame");
    assert_eq!(reply, vec![opcode::OVERLOADED]);

    // Through the Client it surfaces as a retryable error: Overloaded
    // when the shed frame wins the race with the close, Io when the
    // in-flight HELLO draws a reset instead. Never fatal, never a hang.
    let err = Client::connect(handle.addr()).expect_err("must be shed");
    let classified = ClientError::classify(err);
    assert!(
        matches!(
            classified,
            ClientError::Retryable {
                kind: RetryKind::Overloaded | RetryKind::Io,
                ..
            }
        ),
        "expected retryable shed error, got {classified}"
    );
    // The surviving connection is unaffected, and the shed is counted.
    assert!(first.adjacent(1, 2).is_ok());
    first.goodbye().expect("goodbye");
    let stats = handle.shutdown();
    assert!(stats.counter("plserve_shed_total") >= 2, "{stats}");
}

/// Idle connections are reaped after `idle_timeout`, freeing their
/// threads and cap slots.
#[test]
fn idle_connections_are_reaped() {
    let g = chung_lu(300, 8);
    let store = threshold_store(&g, 8, StoreConfig::default());
    let handle = pl_serve::serve_with(
        store,
        "127.0.0.1:0",
        ServeOptions {
            idle_timeout: Some(Duration::from_millis(100)),
            ..ServeOptions::default()
        },
    )
    .expect("bind");

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    write_frame(&mut stream, &encode_hello()).expect("hello");
    let _ = read_frame(&mut stream).expect("hello ok");
    // Go quiet past the deadline; the server must close on us.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let eof = read_frame(&mut stream);
    assert!(eof.is_err(), "server should have closed the idle peer");

    let mut deadline_ok = false;
    for _ in 0..50 {
        if handle.snapshot().gauge("plserve_open_conns") == 0 {
            deadline_ok = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(deadline_ok, "idle connection still counted as open");
    let prom = handle.prometheus_text();
    assert!(
        prom.contains("plserve_idle_reaped_total 1"),
        "idle reap not counted in:\n{prom}"
    );
    let stats = handle.shutdown();
    assert_eq!(stats.gauge("plserve_open_conns"), 0);
    assert_eq!(
        stats.counter("plserve_faults_injected_total"),
        0,
        "no faults were configured"
    );
}

/// A peer that stalls mid-frame (length prefix promising bytes that
/// never come) is closed at `stall_timeout` instead of pinning a thread
/// forever — the wedged-hub scenario from the issue.
#[test]
fn stalled_mid_frame_peer_is_deadline_closed() {
    use std::io::Write;

    let g = chung_lu(300, 10);
    let store = threshold_store(&g, 8, StoreConfig::default());
    let handle = pl_serve::serve_with(
        store,
        "127.0.0.1:0",
        ServeOptions {
            stall_timeout: Some(Duration::from_millis(100)),
            ..ServeOptions::default()
        },
    )
    .expect("bind");

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    write_frame(&mut stream, &encode_hello()).expect("hello");
    let _ = read_frame(&mut stream).expect("hello ok");
    // Promise a 100-byte frame, deliver 3 bytes, stall.
    stream.write_all(&100u32.to_le_bytes()).unwrap();
    stream.write_all(&[opcode::BATCH, 1, 0]).unwrap();
    stream.flush().unwrap();

    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let eof = read_frame(&mut stream);
    assert!(eof.is_err(), "server should have closed the stalled peer");

    let mut stats = handle.snapshot();
    for _ in 0..50 {
        if stats.gauge("plserve_open_conns") == 0 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        stats = handle.snapshot();
    }
    let prom = handle.prometheus_text();
    assert!(
        prom.contains("plserve_deadline_closes_total 1"),
        "stall close not counted in:\n{prom}"
    );
    let final_stats = handle.shutdown();
    assert_eq!(final_stats.gauge("plserve_open_conns"), 0, "{final_stats}");
}

/// HEALTH over the wire: the store's single always-live entry.
#[test]
fn health_reports_shard_liveness() {
    let g = chung_lu(500, 13);
    let store = threshold_store(&g, 8, StoreConfig::default());
    let handle = pl_serve::serve(store, "127.0.0.1:0").expect("bind");

    let mut client = Client::connect(handle.addr()).expect("connect");
    let report = client.health().expect("health");
    assert!(report.healthy);
    assert_eq!(report.shards, vec![true]);
    client.goodbye().expect("goodbye");

    handle.shutdown();
}

/// Two identical servers with the same plan and the same single-client
/// workload produce *valid* runs with faults injected; determinism of
/// the per-connection decision stream itself is pinned in fault.rs unit
/// tests (socket read chunking makes end-to-end counts advisory).
#[test]
fn chaos_run_with_single_connection_stays_correct() {
    let g = chung_lu(800, 17);
    let plan = FaultPlan::parse("seed=21,drop=0.1,flip=0.1,store_err=0.1").expect("plan");
    for round in 0..2u64 {
        let store = threshold_store(&g, 8, StoreConfig::default());
        let handle = pl_serve::serve_with(
            store,
            "127.0.0.1:0",
            ServeOptions {
                fault_plan: Some(plan.clone()),
                ..ServeOptions::default()
            },
        )
        .expect("bind");
        let config = LoadgenConfig {
            connections: 1,
            requests_per_conn: 1_000,
            batch: 25,
            skew: Skew::Uniform,
            seed: 100 + round,
            hot_order: None,
            retry: fast_policy(round),
        };
        let report = loadgen::run_verified(handle.addr(), &config, &g).expect("run");
        assert_eq!(report.mismatches, 0);
        assert!(report.retries > 0, "10%+10% frame faults must bite");
        let stats = handle.shutdown();
        assert!(stats.counter("plserve_faults_injected_total") > 0);
    }
}

/// A stand-in server for `n = 100` that serves one connection at a time:
/// it completes each handshake, then passes every BATCH, numbered from 0
/// across connections, to `reply`, which gives the reply body or `None`
/// to hang up. Returns its address, its BATCH count, and a stopper that
/// joins its thread once the client has gone.
fn fake_server(
    reply: impl Fn(u64, &[Query]) -> Option<Vec<u8>> + Send + 'static,
) -> (SocketAddr, Arc<AtomicU64>, impl FnOnce()) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().expect("fake server addr");
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
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                if read_frame(&mut stream).is_err()
                    || write_frame(&mut stream, &encode_hello_ok(0x02, 100)).is_err()
                {
                    continue;
                }
                while let Ok(req) = read_frame(&mut stream) {
                    if req.first() != Some(&opcode::BATCH) {
                        let _ = write_frame(&mut stream, &[opcode::GOODBYE_OK]);
                        break;
                    }
                    let queries = parse_batch(&req).expect("fake server parses BATCH");
                    let k = batches.fetch_add(1, Ordering::SeqCst);
                    match reply(k, &queries) {
                        Some(body) if write_frame(&mut stream, &body).is_ok() => {}
                        _ => break,
                    }
                }
            }
        })
    };
    let stopper = move || {
        stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(addr);
        thread.join().expect("fake server thread");
    };
    (addr, batches, stopper)
}

/// One budget: each attempt costs one retry, whether a dropped
/// connection replays the batch or a reply's shed slots are re-asked.
/// A server that drops a batch `r` times and then sheds all of it sees
/// exactly `r + 1` BATCH frames from a client allowed `r` retries.
#[test]
fn a_batch_makes_at_most_max_retries_plus_one_attempts() {
    for r in 1..=3u32 {
        let cycle = u64::from(r) + 1;
        let (addr, frames, stop) = fake_server(move |k, queries| {
            (k % cycle == cycle - 1)
                .then(|| encode_batch_reply(&vec![Answer::Overloaded; queries.len()]))
        });
        let policy = RetryPolicy {
            max_retries: r,
            ..fast_policy(u64::from(r))
        };
        let mut client = ResilientClient::connect(addr, policy).expect("connect");
        let err = client
            .batch(&[Query::adjacent(1, 2), Query::adjacent(3, 4)])
            .expect_err("a fully shed batch never settles");
        assert!(
            matches!(
                err,
                ClientError::Retryable {
                    kind: RetryKind::Overloaded,
                    ..
                }
            ),
            "{err}"
        );
        let sent = frames.load(Ordering::SeqCst);
        assert_eq!(sent, cycle, "BATCH frames at max_retries {r}");
        assert_eq!(client.retries(), sent - 1, "retries at max_retries {r}");
        drop(client);
        stop();
    }
}

/// An `ERROR` reply is the server refusing the request itself, so it is
/// fatal at once: one frame, no retry, the server's text kept.
#[test]
fn an_error_reply_is_fatal_after_one_frame() {
    let (addr, frames, stop) =
        fake_server(|_, _| Some([&[opcode::ERROR][..], b"batch length"].concat()));
    let mut client = ResilientClient::connect(addr, fast_policy(3)).expect("connect");
    let err = client.batch(&[Query::adjacent(1, 2)]).expect_err("refused");
    assert!(matches!(err, ClientError::Fatal(_)), "{err}");
    assert_eq!(err.to_string(), "fatal: server error: batch length");
    assert_eq!(frames.load(Ordering::SeqCst), 1);
    assert_eq!(client.retries(), 0);
    drop(client);
    stop();
}

/// A reply with shed slots re-asks only those queries, and the answers
/// that did settle are kept in their slots.
#[test]
fn only_shed_slots_are_re_asked() {
    let truth = |q: &Query| {
        if q.u < q.v {
            Answer::Adjacent
        } else {
            Answer::NotAdjacent
        }
    };
    let asked = Arc::new(Mutex::new(Vec::new()));
    let (addr, frames, stop) = fake_server({
        let asked = Arc::clone(&asked);
        move |k, queries| {
            asked.lock().expect("asked log").push(queries.to_vec());
            let answers: Vec<Answer> = queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    if k == 0 && i % 2 == 1 {
                        Answer::Overloaded
                    } else {
                        truth(q)
                    }
                })
                .collect();
            Some(encode_batch_reply(&answers))
        }
    });
    let queries: Vec<Query> = (0..6).map(|i| Query::adjacent(i, 5 - i)).collect();
    let mut client = ResilientClient::connect(addr, fast_policy(4)).expect("connect");
    let answers = client.batch(&queries).expect("settles on the re-ask");
    assert_eq!(answers, queries.iter().map(truth).collect::<Vec<_>>());
    assert_eq!(frames.load(Ordering::SeqCst), 2);
    assert_eq!(client.retries(), 1);
    let odd: Vec<Query> = queries.iter().copied().skip(1).step_by(2).collect();
    assert_eq!(asked.lock().expect("asked log")[1], odd);
    drop(client);
    stop();
}

/// An answer an adjacency workload can never see ends the load run with
/// an error naming it; it is not retried and not tallied as a mismatch.
#[test]
fn loadgen_ends_on_an_impossible_answer() {
    let (addr, _, stop) = fake_server(|_, queries| {
        Some(encode_batch_reply(&vec![
            Answer::MalformedLabel;
            queries.len()
        ]))
    });
    let config = LoadgenConfig {
        connections: 1,
        requests_per_conn: 64,
        batch: 16,
        retry: fast_policy(5),
        ..LoadgenConfig::default()
    };
    let err = loadgen::run(addr, &config).expect_err("the run must end");
    assert!(err.to_string().contains("MalformedLabel"), "{err}");
    stop();
}

/// The handshake replies a client sorts by what the server said, not by
/// the message text: a shed connection is retryable, a refused handshake
/// or another protocol version is fatal. Each message is kept verbatim.
#[test]
fn handshake_verdicts_classify_by_type() {
    let replies: Vec<Vec<u8>> = vec![
        vec![opcode::OVERLOADED],
        [&[opcode::ERROR][..], b"unsupported protocol version 9"].concat(),
        vec![opcode::HELLO_OK, VERSION - 1, 0x02, 100, 0, 0, 0],
    ];
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn({
        let replies = replies.clone();
        move || {
            for reply in replies {
                let (mut stream, _) = listener.accept().expect("accept");
                read_frame(&mut stream).expect("hello");
                write_frame(&mut stream, &reply).expect("handshake reply");
            }
        }
    });
    let classified: Vec<String> = replies
        .iter()
        .map(|_| ClientError::classify(Client::connect(addr).expect_err("refused")).to_string())
        .collect();
    peer.join().expect("fake peer");
    assert_eq!(
        classified,
        [
            "retryable (Overloaded): server overloaded, connection shed".to_string(),
            "fatal: server rejected handshake: unsupported protocol version 9".to_string(),
            format!("fatal: unsupported protocol version {}", VERSION - 1),
        ]
    );
}

/// A batch the client cannot even encode (more than `MAX_BATCH`
/// queries) is the caller's error: fatal on the first attempt, with the
/// encoder's message, and no reconnect is spent on it.
#[test]
fn an_unencodable_batch_is_fatal_without_a_retry() {
    let g = chung_lu(200, 11);
    let handle = pl_serve::serve_with(
        threshold_store(&g, 8, StoreConfig::default()),
        "127.0.0.1:0",
        ServeOptions::default(),
    )
    .expect("bind");
    let mut client = ResilientClient::connect(handle.addr(), fast_policy(9)).expect("connect");
    let queries = vec![Query::adjacent(0, 1); pl_wire::protocol::MAX_BATCH + 1];
    let err = client
        .batch(&queries)
        .expect_err("65 536 queries do not fit a BATCH");
    assert!(matches!(err, ClientError::Fatal(_)), "{err}");
    assert!(err.to_string().contains("batch"), "{err}");
    assert_eq!(client.retries(), 0);
    drop(client);
    assert_eq!(handle.shutdown().counter("plserve_connections_total"), 1);
}
