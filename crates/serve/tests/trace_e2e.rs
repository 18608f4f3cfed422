//! End-to-end tests for distributed tracing on a single server:
//! context propagation into the server's rings and the non-consuming
//! snapshot dump.
//!
//! Every test here touches the process-global trace rings and tracing
//! flag, so they serialize on one mutex — tests within one integration
//! binary run concurrently, and a second drainer would otherwise race
//! the assertions.

use std::sync::{Arc, Mutex};

use pl_labeling::scheme::AdjacencyScheme;
use pl_labeling::ThresholdScheme;
use pl_obs::TraceContext;
use pl_serve::{Client, LabelStore, Query, SchemeTag, StoreConfig, TaggedLabeling};
use rand::rngs::StdRng;
use rand::SeedableRng;

static RING_LOCK: Mutex<()> = Mutex::new(());

fn serve_small() -> (pl_serve::ServerHandle, pl_graph::Graph) {
    let mut rng = StdRng::seed_from_u64(7);
    let g = pl_gen::chung_lu_power_law(500, 2.5, 5.0, &mut rng);
    let store = Arc::new(LabelStore::new(
        TaggedLabeling {
            tag: SchemeTag::Threshold,
            labeling: ThresholdScheme::with_tau(8).encode(&g),
        },
        StoreConfig::default(),
    ));
    let handle = pl_serve::serve(store, "127.0.0.1:0").expect("bind");
    (handle, g)
}

/// `"key":value` extraction for the JSONL assertions (string values are
/// never escaped by `pl_obs`).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.find('"').map(|end| &stripped[..end])
    } else {
        rest.find([',', '}']).map(|end| rest[..end].trim())
    }
}

/// A traced batch lands in the server's rings with the propagated trace
/// id and correct parent links: `serve.batch` parents to the client's
/// context span, `store.adjacent` parents to `serve.batch`.
#[test]
fn trace_context_propagates_into_server_rings() {
    let _guard = RING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, g) = serve_small();
    let _ = pl_obs::trace::drain_jsonl();
    pl_obs::set_tracing(true);

    let ctx = TraceContext {
        parent_span: 42,
        ..TraceContext::root()
    };
    let (u, v) = g.edges().next().expect("graph has edges");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let answers = client
        .batch_ctx(&[Query::adjacent(u, v)], Some(&ctx))
        .expect("traced batch");
    assert_eq!(answers.len(), 1);

    let jsonl = client.trace_dump().expect("trace dump");
    pl_obs::set_tracing(false);
    let hex = ctx.trace_hex();
    let batch_line = jsonl
        .lines()
        .find(|l| field(l, "name") == Some("serve.batch") && field(l, "trace") == Some(&hex))
        .unwrap_or_else(|| panic!("no traced serve.batch in:\n{jsonl}"));
    assert_eq!(
        field(batch_line, "parent"),
        Some("42"),
        "serve.batch must parent to the propagated context span"
    );
    let batch_span = field(batch_line, "span").expect("span id").to_string();
    let store_line = jsonl
        .lines()
        .find(|l| field(l, "name") == Some("store.adjacent") && field(l, "trace") == Some(&hex))
        .unwrap_or_else(|| panic!("no traced store.adjacent in:\n{jsonl}"));
    assert_eq!(
        field(store_line, "parent"),
        Some(batch_span.as_str()),
        "store.adjacent must parent to serve.batch"
    );

    client.goodbye().ok();
    handle.shutdown();
}

/// The `SNAPSHOT` flag reads without consuming: two drainers both
/// see the full stream, a consuming drain afterwards still gets it, and
/// only then is the ring empty.
#[test]
fn snapshot_dump_is_non_consuming() {
    let _guard = RING_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (handle, g) = serve_small();
    let _ = pl_obs::trace::drain_jsonl();
    pl_obs::set_tracing(true);

    let ctx = TraceContext::root();
    let (u, v) = g.edges().next().expect("graph has edges");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .batch_ctx(&[Query::adjacent(u, v)], Some(&ctx))
        .expect("traced batch");
    pl_obs::set_tracing(false);

    let hex = ctx.trace_hex();
    let snap1 = client.trace_snapshot().expect("first snapshot");
    let snap2 = client.trace_snapshot().expect("second snapshot");
    assert!(snap1.contains(&hex), "first snapshot missing the trace");
    assert_eq!(snap1, snap2, "snapshots must not consume");

    let drained = client.trace_dump().expect("consuming drain");
    assert!(
        drained.contains(&hex),
        "snapshots must leave the events for the consuming drain"
    );
    let empty = client.trace_dump().expect("second consuming drain");
    assert!(
        !empty.contains(&hex),
        "consuming drain must advance the watermark"
    );

    client.goodbye().ok();
    handle.shutdown();
}
