//! E20 — chaos serving audit, emitting `BENCH_chaos.json`.
//!
//! PR 4 added the fault-injection harness ([`pl_serve::FaultPlan`]) and
//! the retrying client ([`pl_serve::ResilientClient`]). This experiment
//! is the acceptance gate for that pair: a server deliberately
//! injecting frame faults (dropped connections, truncated frames,
//! flipped reply bytes) plus simulated store errors serves a Chung–Lu
//! graph to Zipf-skewed retrying workers, and every answer that comes
//! back is checked against the source graph.
//!
//! The contract, per scenario:
//!
//! * **zero wrong answers** — corruption is detected (protocol v3
//!   checksums) and retried, never returned;
//! * **≥ 99% request success** after bounded retries, even with >10% of
//!   reply frames faulted;
//! * **bounded tail latency** — client-observed p99 batch round-trip
//!   stays under the per-request deadline.
//!
//! The baseline row (no faults, same retry policy) anchors the
//! throughput and latency cost of the chaos itself.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use pl_bench::{banner, f1, quick_mode, rng, Table};
use pl_graph::degree::vertices_by_degree_desc;
use pl_labeling::threshold::encode_with_stats_threads;
use pl_labeling::PowerLawScheme;
use pl_serve::client::loadgen::{self, LoadgenConfig, Skew};
use pl_serve::{
    FaultPlan, LabelStore, RetryPolicy, SchemeTag, ServeOptions, StoreConfig, TaggedLabeling,
};

/// Per-request deadline; also the tail-latency bound the gate enforces.
const DEADLINE: Duration = Duration::from_millis(500);

struct Row {
    scenario: &'static str,
    queries: u64,
    failed: u64,
    retries: u64,
    faults_injected: u64,
    success_pct: f64,
    mismatches: u64,
    p99_batch_ms: f64,
    qps: f64,
}

fn run_scenario(
    scenario: &'static str,
    g: &pl_graph::Graph,
    tagged: &TaggedLabeling,
    plan: Option<&str>,
    requests_per_conn: usize,
) -> Row {
    let plan = plan.map(|spec| FaultPlan::parse(spec).expect("valid plan spec"));
    if let Some(p) = &plan {
        assert!(
            p.frame_fault_rate() >= 0.05,
            "{scenario}: the gate wants ≥5% frame faults, plan gives {}",
            p.frame_fault_rate()
        );
    }
    let store = Arc::new(LabelStore::new(tagged.clone(), StoreConfig::default()));
    let handle = pl_serve::serve_with(
        store,
        "127.0.0.1:0",
        ServeOptions {
            fault_plan: plan,
            ..ServeOptions::default()
        },
    )
    .expect("bind");

    let config = LoadgenConfig {
        connections: 4,
        requests_per_conn,
        batch: 32,
        skew: Skew::Zipf(1.2),
        seed: 0xE20,
        hot_order: Some(vertices_by_degree_desc(g)),
        retry: Some(RetryPolicy {
            max_retries: 6,
            deadline: Some(DEADLINE),
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(80),
            seed: 0xE20,
        }),
    };
    let report = loadgen::run_verified(handle.addr(), &config, g).expect("chaos run");
    let stats = handle.shutdown();
    Row {
        scenario,
        queries: report.queries,
        failed: report.failed,
        retries: report.retries,
        faults_injected: stats.faults_injected,
        success_pct: report.success_rate() * 100.0,
        mismatches: report.mismatches,
        p99_batch_ms: report.p99_batch_ns as f64 / 1e6,
        qps: report.qps,
    }
}

fn main() {
    banner("E20", "chaos: fault-injected serving vs retrying clients");
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| "BENCH_chaos.json".to_string())
    };
    let (n, requests_per_conn) = if quick_mode() {
        (4_000, 1_500)
    } else {
        (10_000, 5_000)
    };

    let mut g_rng = rng(0xE20);
    let g = pl_gen::chung_lu_power_law(n, 2.5, 5.0, &mut g_rng);
    let tau = PowerLawScheme::new(2.5).tau(n);
    let tagged = TaggedLabeling {
        tag: SchemeTag::Threshold,
        labeling: encode_with_stats_threads(&g, tau, 1).0,
    };

    // Frame-fault rates: light ≈ 5% of replies, heavy ≈ 12% — both past
    // the ≥5% acceptance bar; store_err adds per-query shed on top.
    let scenarios: [(&'static str, Option<&str>); 3] = [
        ("baseline", None),
        (
            "light",
            Some("seed=7,flip=0.02,truncate=0.02,drop=0.01,store_err=0.02,write_delay=0.02,read_delay=0.01,delay_ms=1"),
        ),
        (
            "heavy",
            Some("seed=7,flip=0.05,truncate=0.04,drop=0.03,store_err=0.05,write_delay=0.03,read_delay=0.02,delay_ms=1"),
        ),
    ];

    let rows: Vec<Row> = scenarios
        .iter()
        .map(|(name, plan)| run_scenario(name, &g, &tagged, *plan, requests_per_conn))
        .collect();

    let mut table = Table::new(&[
        "scenario",
        "queries",
        "faults",
        "retries",
        "failed",
        "success %",
        "wrong",
        "p99 ms",
        "qps",
        "status",
    ]);
    let mut gate_ok = true;
    for r in &rows {
        let ok = r.mismatches == 0
            && r.success_pct >= 99.0
            && Duration::from_nanos((r.p99_batch_ms * 1e6) as u64) <= DEADLINE;
        gate_ok &= ok;
        table.row(vec![
            r.scenario.to_string(),
            r.queries.to_string(),
            r.faults_injected.to_string(),
            r.retries.to_string(),
            r.failed.to_string(),
            f1(r.success_pct),
            r.mismatches.to_string(),
            f1(r.p99_batch_ms),
            f1(r.qps),
            (if ok { "ok" } else { "FAIL" }).to_string(),
        ]);
    }
    table.print();

    let chaos_faults: u64 = rows
        .iter()
        .filter(|r| r.scenario != "baseline")
        .map(|r| r.faults_injected)
        .sum();
    println!(
        "\ngate: zero wrong answers, ≥99% success, p99 ≤ {}ms, faults > 0",
        DEADLINE.as_millis()
    );

    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            json,
            "  {{\"scenario\": \"{}\", \"queries\": {}, \"faults_injected\": {}, \
             \"retries\": {}, \"failed\": {}, \"success_pct\": {:.2}, \"mismatches\": {}, \
             \"p99_batch_ms\": {:.3}, \"qps\": {:.0}}}{sep}",
            r.scenario,
            r.queries,
            r.faults_injected,
            r.retries,
            r.failed,
            r.success_pct,
            r.mismatches,
            r.p99_batch_ms,
            r.qps
        )
        .expect("write to String");
    }
    json.push_str("]\n");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("wrote {out_path}");

    assert!(chaos_faults > 0, "chaos scenarios must inject faults");
    assert!(gate_ok, "E20 acceptance gate failed (see table)");
    println!("E20 gate: PASS");
}
