//! E21 — distributed serving audit, emitting `BENCH_cluster.json`.
//!
//! The `pl-cluster` layer splits one threshold labeling into partial
//! per-backend sub-stores (HRW ownership, replication factor `R`) and
//! fronts them with a scatter-gather router speaking the unmodified
//! wire protocol. This experiment measures what that buys and what it
//! costs, against the source graph as ground truth:
//!
//! * **topology grid** — throughput and client-observed p99 across
//!   `backends × replicas`, same workload, same machine. The 1×1 row is
//!   the degenerate cluster (router + one full-ish backend) anchoring
//!   the router's own overhead;
//! * **kill-one-replica** — with `R = 2`, one backend is shut down
//!   between the two halves of the load run, so the second half's
//!   router sessions find it dead. (A shut-down server drains: it keeps
//!   serving connections that stay busy, so a kill timed into a run the
//!   router already has pooled connections for goes unnoticed.) The
//!   gate demands **zero wrong answers**, ≥ 99% request success, and a
//!   failover counter that actually moved — the paper-level claim that
//!   replicated HRW ownership turns a backend loss into latency, not
//!   data loss.
//!
//! Backends are in-process [`pl_serve::serve_with`] servers on real
//! sockets, so the numbers include genuine TCP round-trips for both
//! hops (client → router → backend).

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use pl_bench::{banner, f1, quick_mode, rng, Table};
use pl_cluster::{route, split_all, ClusterMap, Partitioner, RouterConfig};
use pl_graph::degree::vertices_by_degree_desc;
use pl_labeling::threshold::encode_with_stats_threads;
use pl_labeling::PowerLawScheme;
use pl_obs::registry::MetricValue;
use pl_serve::client::loadgen::{self, LoadgenConfig, Skew};
use pl_serve::{
    LabelStore, RetryPolicy, SchemeTag, ServeOptions, ServerHandle, StoreConfig, TaggedLabeling,
};

/// Per-request deadline; also the tail-latency bound the gate enforces.
const DEADLINE: Duration = Duration::from_millis(500);

struct Row {
    scenario: String,
    backends: usize,
    replicas: usize,
    queries: u64,
    failed: u64,
    success_pct: f64,
    mismatches: u64,
    failovers: u64,
    dead_backends: usize,
    p99_batch_ms: f64,
    qps: f64,
    /// Each backend's share of `plcluster_fanout_total`, in map order —
    /// shows any load skew from the router's candidate ordering.
    fanout_share: Vec<f64>,
}

/// Spins up `backends` partial-store servers plus the router, runs the
/// loadgen through the router (killing backend 0 halfway when asked),
/// and tears everything down.
fn run_scenario(
    scenario: &str,
    g: &pl_graph::Graph,
    tagged: &TaggedLabeling,
    backends: usize,
    replicas: usize,
    kill_halfway: bool,
    requests_per_conn: usize,
) -> Row {
    let part = Partitioner::new(0xE21, backends, replicas);
    let (parts, _) = split_all(tagged, &part).expect("split");
    let mut handles: Vec<ServerHandle> = parts
        .into_iter()
        .map(|sub| {
            let store = Arc::new(LabelStore::new(sub, StoreConfig::default()).with_partial(true));
            pl_serve::serve_with(store, "127.0.0.1:0", ServeOptions::default()).expect("bind")
        })
        .collect();
    let map = ClusterMap {
        epoch: 1,
        seed: 0xE21,
        replicas: part.replicas() as u32,
        n: tagged.labeling.len() as u32,
        tag: tagged.tag as u8,
        backends: handles.iter().map(|h| h.addr().to_string()).collect(),
    };
    let router = route(
        map,
        "127.0.0.1:0",
        RouterConfig {
            retry: RetryPolicy {
                max_retries: 3,
                deadline: Some(DEADLINE),
                backoff_base: Duration::from_millis(3),
                backoff_cap: Duration::from_millis(50),
                seed: 0xE21,
            },
            probe_interval: Duration::from_millis(50),
        },
    )
    .expect("router");

    let config = LoadgenConfig {
        connections: 4,
        requests_per_conn: if kill_halfway {
            requests_per_conn / 2
        } else {
            requests_per_conn
        },
        batch: 32,
        skew: Skew::Zipf(1.2),
        seed: 0xE21,
        hot_order: Some(vertices_by_degree_desc(g)),
        retry: RetryPolicy {
            max_retries: 6,
            deadline: Some(DEADLINE),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(80),
            seed: 0xE21,
        },
    };
    let mut report = loadgen::run_verified(router.addr(), &config, g).expect("cluster run");
    if kill_halfway {
        handles.remove(0).shutdown();
        let rest = loadgen::run_verified(router.addr(), &config, g).expect("post-kill run");
        let elapsed_secs = report.elapsed_secs + rest.elapsed_secs;
        report = loadgen::LoadReport {
            queries: report.queries + rest.queries,
            adjacent_true: report.adjacent_true + rest.adjacent_true,
            mismatches: report.mismatches + rest.mismatches,
            elapsed_secs,
            qps: (report.queries + rest.queries) as f64 / elapsed_secs.max(1e-9),
            retries: report.retries + rest.retries,
            failed: report.failed + rest.failed,
            p99_batch_ns: report.p99_batch_ns.max(rest.p99_batch_ns),
        };
    }
    // How many backends the router has quarantined — the kill scenario
    // demands the loss was actually *felt*, not slept through.
    let dead_backends = router.backend_liveness().iter().filter(|l| !**l).count();

    let samples = router.registry().samples();
    let per_backend = |name: &str| -> Vec<u64> {
        (0..backends)
            .map(|b| {
                let b = b.to_string();
                samples
                    .iter()
                    .filter(|s| s.name == name && s.labels.iter().any(|(_, v)| *v == b))
                    .map(|s| match s.value {
                        MetricValue::Counter(c) => c,
                        _ => 0,
                    })
                    .sum()
            })
            .collect()
    };
    let failovers = per_backend("plcluster_failover_total").iter().sum();
    let fanout = per_backend("plcluster_fanout_total");
    let legs = fanout.iter().sum::<u64>().max(1) as f64;
    let fanout_share = fanout.iter().map(|&f| f as f64 / legs).collect();
    router.shutdown();
    for h in handles {
        h.shutdown();
    }

    Row {
        scenario: scenario.to_string(),
        backends,
        replicas,
        queries: report.queries,
        failed: report.failed,
        success_pct: report.success_rate() * 100.0,
        mismatches: report.mismatches,
        failovers,
        dead_backends,
        p99_batch_ms: report.p99_batch_ns as f64 / 1e6,
        qps: report.qps,
        fanout_share,
    }
}

/// Fanout shares as `0.33, 0.33, 0.34`.
fn shares(share: &[f64]) -> String {
    share
        .iter()
        .map(|s| format!("{s:.3}"))
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    banner(
        "E21",
        "cluster: partitioned backends, scatter-gather router",
    );
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| "BENCH_cluster.json".to_string())
    };
    let (n, requests_per_conn) = if quick_mode() {
        (3_000, 800)
    } else {
        (8_000, 2_500)
    };

    let mut g_rng = rng(0xE21);
    let g = pl_gen::chung_lu_power_law(n, 2.5, 5.0, &mut g_rng);
    let tau = PowerLawScheme::new(2.5).tau(n);
    let tagged = TaggedLabeling {
        tag: SchemeTag::Threshold,
        labeling: encode_with_stats_threads(&g, tau, 1).0,
    };

    // Topology grid, then the failover scenario on the 3×2 topology.
    let grid: [(usize, usize); 4] = [(1, 1), (3, 1), (3, 2), (5, 2)];
    let mut rows: Vec<Row> = grid
        .iter()
        .map(|&(b, r)| {
            run_scenario(
                &format!("{b}x{r}"),
                &g,
                &tagged,
                b,
                r,
                false,
                requests_per_conn,
            )
        })
        .collect();
    rows.push(run_scenario(
        "kill-one",
        &g,
        &tagged,
        3,
        2,
        true,
        requests_per_conn,
    ));

    let mut table = Table::new(&[
        "scenario",
        "backends",
        "replicas",
        "queries",
        "failed",
        "success %",
        "wrong",
        "failovers",
        "p99 ms",
        "qps",
        "fanout share",
        "status",
    ]);
    let mut gate_ok = true;
    for r in &rows {
        let kill = r.scenario == "kill-one";
        // Steady-state topologies must be flawless; the kill scenario
        // may shed a few in-flight batches but never a wrong answer —
        // and must show the failover machinery actually engaging.
        let ok = r.mismatches == 0
            && if kill {
                r.success_pct >= 99.0 && r.failovers > 0 && r.dead_backends >= 1
            } else {
                r.failed == 0
            };
        gate_ok &= ok;
        table.row(vec![
            r.scenario.clone(),
            r.backends.to_string(),
            r.replicas.to_string(),
            r.queries.to_string(),
            r.failed.to_string(),
            f1(r.success_pct),
            r.mismatches.to_string(),
            r.failovers.to_string(),
            f1(r.p99_batch_ms),
            f1(r.qps),
            shares(&r.fanout_share),
            (if ok { "ok" } else { "FAIL" }).to_string(),
        ]);
    }
    table.print();
    println!(
        "\ngate: zero wrong answers everywhere; steady topologies lose nothing; \
         kill-one keeps ≥99% success with failovers > 0"
    );

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("available_parallelism: {cores}");
    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            json,
            "  {{\"scenario\": \"{}\", \"backends\": {}, \"replicas\": {}, \"queries\": {}, \
             \"failed\": {}, \"success_pct\": {:.2}, \"mismatches\": {}, \"failovers\": {}, \
             \"dead_backends\": {}, \"p99_batch_ms\": {:.3}, \"qps\": {:.0}, \
             \"fanout_share\": [{}], \"available_parallelism\": {cores}}}{sep}",
            r.scenario,
            r.backends,
            r.replicas,
            r.queries,
            r.failed,
            r.success_pct,
            r.mismatches,
            r.failovers,
            r.dead_backends,
            r.p99_batch_ms,
            r.qps,
            shares(&r.fanout_share),
        )
        .expect("write to String");
    }
    json.push_str("]\n");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");

    assert!(gate_ok, "E21 acceptance gate failed (see table)");
    println!("E21 gate: PASS");
}
