//! A server's metrics leave it two ways, the `/metrics` scrape and the
//! wire `STATS` reply, and both carry the same samples through the same
//! renderer. This is its own test binary so that the process-global
//! registry, which `/metrics` merges in, holds only this test's encode
//! metrics and stays still while the test compares.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pl_labeling::scheme::AdjacencyScheme;
use pl_labeling::ThresholdScheme;
use pl_obs::registry::{merge_samples, MetricValue};
use pl_serve::{Client, LabelStore, SchemeTag, StoreConfig, TaggedLabeling};
use pl_wire::protocol::encode_stats_reply_into;

#[test]
fn an_idle_servers_scrape_and_stats_render_the_same_lines() {
    let g = pl_graph::builder::from_edges(8, [(0, 1), (1, 2), (2, 3), (0, 7)]);
    let store = Arc::new(LabelStore::new(
        TaggedLabeling {
            tag: SchemeTag::Threshold,
            labeling: ThresholdScheme::with_tau(2).encode(&g),
        },
        StoreConfig::default(),
    ));
    let handle = pl_serve::serve(store, "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    assert!(client.adjacent(0, 1).expect("query"));
    let stats = client.stats().expect("stats");

    // The server samples its registry before it writes the reply, and
    // counts the reply's bytes once they are written: wait for that
    // count, and advance it in the STATS samples too.
    let mut reply = Vec::new();
    encode_stats_reply_into(&stats, &mut reply);
    let bytes_out = stats.counter("plserve_bytes_out_total") + 4 + reply.len() as u64;
    let counted = handle.registry().counter("plserve_bytes_out_total");
    let deadline = Instant::now() + Duration::from_secs(5);
    while counted.get() < bytes_out && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut expected = stats.clone();
    for s in &mut expected.samples {
        if s.name == "plserve_bytes_out_total" {
            s.value = MetricValue::Counter(bytes_out);
        }
    }
    // `/metrics` adds the process-global encode metrics.
    merge_samples(&mut expected.samples, &pl_obs::global().samples());

    let scrape = (handle.prometheus_renderer())();
    assert_eq!(
        scrape.lines().collect::<Vec<_>>(),
        pl_obs::prom::render(&expected.samples)
            .lines()
            .collect::<Vec<_>>()
    );
    assert!(scrape.contains("plserve_adj_queries_total 1\n"), "{scrape}");
    assert!(
        scrape.contains("plserve_query_latency_ns_count 1\n"),
        "{scrape}"
    );
    assert!(scrape.contains("plab_encode_runs_total 1\n"), "{scrape}");

    client.goodbye().expect("goodbye");
    handle.shutdown();
}
