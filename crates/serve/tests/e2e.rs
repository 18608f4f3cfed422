//! End-to-end acceptance tests: a real server on a real TCP socket,
//! driven by the load generator and raw protocol clients.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use pl_graph::degree::vertices_by_degree_desc;
use pl_labeling::scheme::AdjacencyScheme;
use pl_labeling::ThresholdScheme;
use pl_serve::client::loadgen::{self, LoadgenConfig, Skew};
use pl_serve::{Client, LabelStore, RetryPolicy, SchemeTag, StoreConfig, TaggedLabeling};
use pl_wire::protocol::{
    encode_batch, encode_hello, opcode, parse_batch_reply, read_frame, write_frame, Query,
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

/// The headline acceptance test: a 10⁴-vertex Chung–Lu graph served over
/// TCP to four concurrent Zipf-skewed connections; every answer checked
/// against the graph, shutdown drains cleanly.
#[test]
fn serves_chung_lu_over_tcp_with_verified_answers() {
    let g = chung_lu(10_000, 42);
    let store = threshold_store(&g, 8, StoreConfig::default());
    let handle = pl_serve::serve(store, "127.0.0.1:0").expect("bind");
    let addr = handle.addr();

    // Zipf-skewed load whose hot set is the hubs (degree-descending
    // rank → vertex map): mostly fat–fat pairs.
    let config = LoadgenConfig {
        connections: 4,
        requests_per_conn: 5_000,
        batch: 50,
        skew: Skew::Zipf(1.2),
        seed: 7,
        hot_order: Some(vertices_by_degree_desc(&g)),
        retry: RetryPolicy::default(),
    };
    let report = loadgen::run_verified(addr, &config, &g).expect("load run");
    assert_eq!(report.queries, 20_000);
    assert_eq!(
        report.mismatches, 0,
        "every adjacency answer must match Graph::has_edge"
    );
    assert!(
        report.adjacent_true > 0,
        "skewed load over hubs should hit some edges"
    );

    // STATS over the wire: every query counted, with its latency.
    let mut client = Client::connect(addr).expect("stats connection");
    let stats = client.stats().expect("stats fetch");
    assert_eq!(stats.counter("plserve_adj_queries_total"), 20_000);
    assert!(stats.counter("plserve_batches_total") >= 4 * (5_000 / 50));
    assert!(
        stats.counter("plserve_bytes_in_total") > 0 && stats.counter("plserve_bytes_out_total") > 0
    );
    assert_eq!(stats.counter("plserve_protocol_errors_total"), 0);
    let latency = stats
        .histogram("plserve_query_latency_ns")
        .expect("latency");
    assert_eq!(latency.count(), 20_000);
    assert!(latency.quantile_ns(0.99) >= latency.quantile_ns(0.5));
    client.goodbye().expect("goodbye");

    let final_stats = handle.shutdown();
    assert!(final_stats.counter("plserve_adj_queries_total") >= 20_000);
}

/// Graceful shutdown must answer requests already on the wire: write a
/// batch, shut the server down *before reading the reply*, and check the
/// full reply still arrives.
#[test]
fn shutdown_drains_in_flight_requests() {
    let g = chung_lu(2_000, 3);
    let store = threshold_store(&g, 8, StoreConfig::default());
    let handle = pl_serve::serve(store, "127.0.0.1:0").expect("bind");

    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    write_frame(&mut stream, &encode_hello()).expect("hello");
    let hello_ok = read_frame(&mut stream).expect("hello reply");
    assert_eq!(hello_ok.first(), Some(&opcode::HELLO_OK));

    let queries: Vec<Query> = (0..500)
        .map(|i| Query::adjacent(i, (i + 1) % 2_000))
        .collect();
    write_frame(&mut stream, &encode_batch(&queries).expect("encode batch")).expect("send batch");

    // Shutdown blocks until every connection drains; the batch above is
    // in flight and must be answered, not dropped.
    let final_stats = handle.shutdown();
    assert!(
        final_stats.counter("plserve_adj_queries_total") >= 500,
        "drained queries must be counted: {final_stats}"
    );

    let reply = read_frame(&mut stream).expect("reply survives shutdown");
    let answers = parse_batch_reply(&reply, pl_wire::protocol::VERSION).expect("well-formed reply");
    assert_eq!(answers.len(), 500, "no response may be dropped");
}

/// Protocol-level rejections over a real socket: bad magic and unknown
/// opcodes produce an ERROR frame (and a counted protocol error), not a
/// hang or a crash.
#[test]
fn malformed_frames_get_error_replies() {
    let g = chung_lu(500, 1);
    let store = threshold_store(&g, 8, StoreConfig::default());
    let handle = pl_serve::serve(store, "127.0.0.1:0").expect("bind");

    // Bad magic.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    write_frame(&mut stream, &[opcode::HELLO, b'N', b'O', b'P', b'E', 1]).expect("send");
    let reply = read_frame(&mut stream).expect("error reply");
    assert_eq!(reply.first(), Some(&opcode::ERROR));

    // Unknown opcode after a good handshake.
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    write_frame(&mut stream, &encode_hello()).expect("hello");
    let _ = read_frame(&mut stream).expect("hello ok");
    write_frame(&mut stream, &[0x77]).expect("send junk");
    let reply = read_frame(&mut stream).expect("error reply");
    assert_eq!(reply.first(), Some(&opcode::ERROR));

    let stats = handle.shutdown();
    assert!(
        stats.counter("plserve_protocol_errors_total") >= 2,
        "{stats}"
    );
}

/// The requests that are their opcode alone must be exactly that one
/// byte: a trailing byte is a protocol error, answered with ERROR, like
/// any other malformed frame.
#[test]
fn one_byte_requests_with_trailing_bytes_get_error_replies() {
    let g = chung_lu(500, 2);
    let store = threshold_store(&g, 8, StoreConfig::default());
    let handle = pl_serve::serve(store, "127.0.0.1:0").expect("bind");

    for op in [opcode::STATS, opcode::HEALTH, opcode::GOODBYE] {
        let mut client = Client::connect(handle.addr()).expect("connect");
        let reply = client.raw_round_trip(&[op, 0xFF]).expect("reply");
        assert_eq!(
            reply.first(),
            Some(&opcode::ERROR),
            "{op:#04x} with a trailing byte was answered"
        );
    }

    let stats = handle.shutdown();
    assert_eq!(stats.counter("plserve_protocol_errors_total"), 3, "{stats}");
}

/// The client checks the version byte a server claims in HELLO_OK: a
/// frame that is well-formed in every other byte is refused, so the
/// client never talks to a peer with another frame layout.
#[test]
fn client_refuses_a_hello_ok_claiming_another_version() {
    for claimed in [2u8, 99] {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            read_frame(&mut stream).expect("hello");
            write_frame(
                &mut stream,
                &[opcode::HELLO_OK, claimed, 0x01, 0x08, 0x00, 0x00, 0x00],
            )
            .expect("hello_ok");
        });
        let err = Client::connect(addr).expect_err("HELLO_OK claiming another version accepted");
        assert!(
            err.to_string().contains("unsupported protocol version"),
            "{err}"
        );
        server.join().expect("fake server");
    }
}

/// The client reads each reply through its buffer whatever the peer's
/// write pattern: a HELLO_OK and a BATCH_REPLY that arrive one byte per
/// write, then a ~20 KiB reply, larger than the read buffer.
#[test]
fn client_reads_replies_split_byte_by_byte_and_larger_than_its_buffer() {
    use pl_wire::protocol::{encode_batch_reply, encode_hello_ok, parse_batch};
    use pl_wire::Answer;
    use std::io::Write;

    fn answer(q: &Query) -> Answer {
        Answer::Distance(q.u ^ q.v)
    }

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_nodelay(true).expect("nodelay");
        let trickle = |stream: &mut TcpStream, body: &[u8]| {
            let mut frame = Vec::new();
            write_frame(&mut frame, body).expect("frame");
            for b in frame {
                stream.write_all(&[b]).expect("trickle");
            }
        };
        read_frame(&mut stream).expect("hello");
        trickle(&mut stream, &encode_hello_ok(0x02, 1_000));
        let small = parse_batch(&read_frame(&mut stream).expect("batch")).expect("parse");
        trickle(
            &mut stream,
            &encode_batch_reply(&small.iter().map(answer).collect::<Vec<_>>()),
        );
        let large = parse_batch(&read_frame(&mut stream).expect("batch")).expect("parse");
        let reply = encode_batch_reply(&large.iter().map(answer).collect::<Vec<_>>());
        assert!(reply.len() > 8 * 1024, "reply of {} bytes", reply.len());
        write_frame(&mut stream, &reply).expect("large reply");
    });
    let mut client = Client::connect(addr).expect("connect");
    assert_eq!((client.tag(), client.n()), (0x02, 1_000));
    let queries = |count: u32| -> Vec<Query> {
        (0..count)
            .map(|i| Query::distance(i, i.wrapping_mul(7)))
            .collect()
    };
    for count in [3, 4_096] {
        let batch = queries(count);
        let want: Vec<Answer> = batch.iter().map(answer).collect();
        assert_eq!(client.batch(&batch).expect("batch"), want);
    }
    peer.join().expect("fake peer");
}

/// The server answers distance queries when serving a distance labeling,
/// and reports Unsupported for distance queries against an adjacency
/// scheme.
#[test]
fn distance_scheme_served_end_to_end() {
    use pl_labeling::distance::DistanceScheme;
    use pl_serve::Answer;

    let g = chung_lu(600, 12);
    let scheme = DistanceScheme::new(2.5, 2);
    let store = Arc::new(LabelStore::new(
        TaggedLabeling {
            tag: SchemeTag::Distance,
            labeling: scheme.encode(&g),
        },
        StoreConfig::default(),
    ));
    let handle = pl_serve::serve(store, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.tag(), SchemeTag::Distance.as_u8());

    let (u, v) = g.edges().next().expect("graph has edges");
    assert_eq!(client.distance(u, v).expect("distance"), Some(1));
    assert!(client.adjacent(u, v).expect("adjacency via distance"));

    // An adjacency store must refuse distance queries.
    let adj_store = threshold_store(&g, 8, StoreConfig::default());
    let adj_handle = pl_serve::serve(adj_store, "127.0.0.1:0").expect("bind");
    let mut adj_client = Client::connect(adj_handle.addr()).expect("connect");
    let answers = adj_client
        .batch(&[pl_serve::Query::distance(u, v)])
        .expect("batch");
    assert_eq!(answers[0], Answer::Unsupported);

    client.goodbye().expect("goodbye");
    adj_client.goodbye().expect("goodbye");
    handle.shutdown();
    adj_handle.shutdown();
}

/// Out-of-range vertices come back as a per-query status, not an error
/// that kills the batch.
#[test]
fn out_of_range_is_a_per_query_status() {
    use pl_serve::Answer;

    let g = chung_lu(100, 5);
    let store = threshold_store(&g, 4, StoreConfig::default());
    let handle = pl_serve::serve(store, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let (u, v) = g.edges().next().expect("graph has edges");
    let answers = client
        .batch(&[
            pl_serve::Query::adjacent(u, v),
            pl_serve::Query::adjacent(0, 100),
            pl_serve::Query::adjacent(u32::MAX, 0),
        ])
        .expect("batch");
    assert_eq!(answers[0], Answer::Adjacent);
    assert_eq!(answers[1], Answer::OutOfRange);
    assert_eq!(answers[2], Answer::OutOfRange);
    client.goodbye().expect("goodbye");
    handle.shutdown();
}

/// A tampered `.plab` file — the container parses, but one fat label
/// declares more bitmap bits than it carries — must surface as a
/// per-query malformed status over the wire, with the server staying up
/// to answer healthy queries afterwards.
#[test]
fn tampered_plab_answers_malformed_and_server_survives() {
    use pl_labeling::bits::BitWriter;
    use pl_labeling::{Label, Labeling};
    use pl_serve::Answer;

    // Vertex 0: fat-flagged, gamma-coded k = 50, but only 3 of the 50
    // declared bitmap bits present. Vertex 1: a healthy fat label whose
    // bitmap marks fat id 0.
    let truncated = {
        let mut w = BitWriter::new();
        w.write_bits(6, 6);
        w.write_bits(0, 6);
        w.write_bit(true);
        w.write_gamma(51);
        for _ in 0..3 {
            w.write_bit(false);
        }
        Label::from(w)
    };
    let good = {
        let mut w = BitWriter::new();
        w.write_bits(6, 6);
        w.write_bits(1, 6);
        w.write_bit(true);
        w.write_gamma(51);
        w.write_bit(true);
        for _ in 1..50 {
            w.write_bit(false);
        }
        Label::from(w)
    };
    let tampered = TaggedLabeling {
        tag: SchemeTag::Threshold,
        labeling: Labeling::new(vec![truncated, good]),
    };

    // Round-trip through a real file: the container itself is valid v2,
    // so loading succeeds — the corruption is inside a label's bits.
    let path = std::env::temp_dir().join(format!("pl-e2e-tampered-{}.plab", std::process::id()));
    tampered.save(&path).expect("write tampered .plab");
    let loaded = TaggedLabeling::load(&path).expect("container still parses");
    std::fs::remove_file(&path).ok();
    assert_eq!(loaded, tampered);

    let store = Arc::new(LabelStore::new(loaded, StoreConfig::default()));
    let handle = pl_serve::serve(store, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let answers = client
        .batch(&[
            Query::adjacent(0, 1), // needs vertex 0's truncated bitmap
            Query::adjacent(1, 0), // decodes vertex 1's healthy bitmap
        ])
        .expect("batch survives the corrupt label");
    assert_eq!(answers[0], Answer::MalformedLabel);
    assert_eq!(answers[1], Answer::Adjacent);

    // The connection and server are still healthy after the bad answer.
    assert!(client.adjacent(1, 0).expect("follow-up query"));
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.counter("plserve_protocol_errors_total"),
        0,
        "malformed labels are per-query statuses, not protocol errors"
    );
    client.goodbye().expect("goodbye");
    handle.shutdown();
}

/// A served adjacency-list store with one truncated label: every pair
/// that label decides comes back `MalformedLabel`, and the same
/// connection then answers a batch of healthy pairs correctly.
#[test]
fn served_adjlist_answers_malformed_and_keeps_the_connection() {
    use pl_labeling::baseline::AdjListScheme;
    use pl_labeling::{Label, Labeling};
    use pl_serve::Answer;

    let g = chung_lu(300, 21);
    let bad = g
        .vertices()
        .find(|&v| g.degree(v) >= 2)
        .expect("a vertex of degree 2");
    let full = AdjListScheme.encode(&g);
    // Cut the last bit off `bad`'s neighbour list.
    let labels: Vec<Label> = full
        .iter()
        .map(|(v, l)| {
            if v == bad {
                l.prefix(l.bit_len() - 1)
            } else {
                l
            }
            .to_label()
        })
        .collect();
    let store = Arc::new(LabelStore::new(
        TaggedLabeling {
            tag: SchemeTag::AdjList,
            labeling: Labeling::new(labels),
        },
        StoreConfig::default(),
    ));
    let handle = pl_serve::serve(store, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert_eq!(client.tag(), SchemeTag::AdjList.as_u8());

    let nbr = g.neighbors(bad)[0];
    let answers = client
        .batch(&[Query::adjacent(bad, nbr), Query::adjacent(bad, bad ^ 1)])
        .expect("batch survives the corrupt label");
    assert_eq!(answers, vec![Answer::MalformedLabel; 2]);

    // An AdjList pair is decided by its first label's list, so every
    // pair led by another vertex is healthy.
    let pairs: Vec<(u32, u32)> = g
        .vertices()
        .filter(|&u| u != bad)
        .flat_map(|u| [(u, bad), (u, (u * 7 + 3) % 300)])
        .collect();
    let queries: Vec<Query> = pairs.iter().map(|&(u, v)| Query::adjacent(u, v)).collect();
    let answers = client.batch(&queries).expect("healthy batch");
    for (&(u, v), answer) in pairs.iter().zip(&answers) {
        let want = if g.has_edge(u, v) {
            Answer::Adjacent
        } else {
            Answer::NotAdjacent
        };
        assert_eq!(*answer, want, "({u}, {v})");
    }
    client.goodbye().expect("goodbye");
    handle.shutdown();
}

/// The whole observability surface over one live server: the v2 STATS
/// reply with extended latency quantiles, the slow-query log,
/// TRACE_DUMP over the wire, and the Prometheus rendering.
///
/// This is the only test in this binary that drains the trace rings
/// (via TRACE_DUMP) — draining consumes the process-global buffers, so
/// a second drainer would race it.
#[test]
fn observability_surface_end_to_end() {
    use pl_serve::{ServeOptions, StoreConfig};

    let g = chung_lu(3_000, 99);
    let registry = Arc::new(pl_obs::MetricsRegistry::new());
    let store = threshold_store(&g, 8, StoreConfig::default());
    let handle = pl_serve::serve_with(
        store,
        "127.0.0.1:0",
        ServeOptions {
            registry: Some(Arc::clone(&registry)),
            // Threshold 0: every query is "slow", so the log must fire.
            slow_query_ns: Some(0),
            ..ServeOptions::default()
        },
    )
    .expect("bind");

    pl_obs::set_tracing(true);
    let config = LoadgenConfig {
        connections: 2,
        requests_per_conn: 1_000,
        batch: 50,
        skew: Skew::Zipf(1.2),
        seed: 11,
        hot_order: Some(vertices_by_degree_desc(&g)),
        retry: RetryPolicy::default(),
    };
    loadgen::run(handle.addr(), &config).expect("load run");

    let mut client = Client::connect(handle.addr()).expect("connect");

    let stats = client.stats().expect("stats");
    assert_eq!(stats.counter("plserve_adj_queries_total"), 2_000);
    let latency = stats
        .histogram("plserve_query_latency_ns")
        .expect("latency");
    let q = |p| latency.quantile_ns(p);
    assert!(q(0.5) <= q(0.9) && q(0.9) <= q(0.99) && q(0.99) <= q(0.999));
    assert!(latency.min <= latency.max);
    assert!(latency.max > 0, "latencies were recorded");
    assert_eq!(
        stats.counter("plserve_slow_queries_total"),
        2_000,
        "threshold 0 flags every query"
    );

    // Trace dump over the wire: the slow-query log and the store spans
    // were recorded while tracing was on.
    let jsonl = client.trace_dump().expect("trace dump");
    assert!(
        jsonl.contains("\"serve.slow_query\""),
        "slow-query events missing from: {}",
        &jsonl[..jsonl.len().min(400)]
    );
    assert!(jsonl
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));
    pl_obs::set_tracing(false);

    // Prometheus text: server counters and latency summary; no cache
    // families.
    let prom = handle.prometheus_text();
    for needle in [
        "plserve_adj_queries_total 2000",
        "plserve_slow_queries_total 2000",
        "plserve_query_latency_ns{quantile=\"0.999\"}",
    ] {
        assert!(prom.contains(needle), "missing {needle:?} in:\n{prom}");
    }
    assert!(!prom.contains("plserve_cache"), "{prom}");

    client.goodbye().expect("goodbye");
    handle.shutdown();
}
