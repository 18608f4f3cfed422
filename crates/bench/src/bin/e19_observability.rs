//! E19 — observability overhead audit, emitting `BENCH_obs.json`.
//!
//! PR 3 threaded `pl-obs` instrumentation through the encode pipeline
//! and the serve path: always-on metrics (atomic counters + log2
//! histograms) and gated tracing (per-thread ring buffers behind one
//! relaxed `AtomicBool`). The contract is that the gate is cheap: with
//! tracing *disabled*, the instrumented paths must stay within ~5% of
//! their uninstrumented twins.
//!
//! Three workloads, three modes each where applicable:
//!
//! * `store.query` — in-process adjacency via [`LabelStore::adjacent`]
//!   (lean, no spans) vs [`LabelStore::adjacent_traced`] with tracing
//!   off and on. This isolates the pure span/event gate cost with no
//!   network noise.
//! * `serve.tcp` — loadgen QPS against a real TCP server with tracing
//!   off vs on (the server path always uses the traced store calls).
//! * `encode` — whole-labeling build with tracing off vs on (phase
//!   metrics are always recorded; tracing adds ring pushes).
//!
//! The overhead column is informative, not a hard gate — wall-clock
//! noise on a loaded CI box exceeds 5% easily — but the JSON record
//! keeps the trend auditable across commits.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pl_bench::{banner, f1, quick_mode, rng, Table};
use pl_labeling::threshold::encode_with_stats_threads;
use pl_labeling::PowerLawScheme;
use pl_serve::client::loadgen::{self, LoadgenConfig, Skew};
use pl_serve::{LabelStore, RetryPolicy, SchemeTag, StoreConfig, TaggedLabeling};
use rand::Rng;

struct Row {
    workload: &'static str,
    mode: &'static str,
    ns_per_op: f64,
    /// Percent vs the workload's baseline mode; 0 for the baseline row.
    overhead_pct: f64,
}

fn store_rows(n: usize, queries: usize, rows: &mut Vec<Row>) {
    let mut g_rng = rng(0xE19);
    let g = pl_gen::chung_lu_power_law(n, 2.5, 5.0, &mut g_rng);
    let tau = PowerLawScheme::new(2.5).tau(n);
    let store = LabelStore::new(
        TaggedLabeling {
            tag: SchemeTag::Threshold,
            labeling: encode_with_stats_threads(&g, tau, 1).0,
        },
        StoreConfig::default(),
    );
    let mut q_rng = rng(0xE19 ^ 0xDEC);
    let pairs: Vec<(u32, u32)> = (0..queries)
        .map(|_| (q_rng.gen_range(0..n as u32), q_rng.gen_range(0..n as u32)))
        .collect();

    let time_it = |f: &dyn Fn(u32, u32) -> bool| {
        // One warm-up pass so every mode sees a hot cache.
        let mut hits = 0usize;
        for &(u, v) in &pairs {
            hits += usize::from(f(u, v));
        }
        let start = Instant::now();
        for &(u, v) in &pairs {
            hits += usize::from(f(u, v));
        }
        std::hint::black_box(hits);
        start.elapsed().as_nanos() as f64 / queries as f64
    };

    pl_obs::set_tracing(false);
    let lean = time_it(&|u, v| store.adjacent(u, v).unwrap_or(false));
    let off = time_it(&|u, v| store.adjacent_traced(u, v).map(|(a, _)| a).unwrap_or(false));
    pl_obs::set_tracing(true);
    let on = time_it(&|u, v| store.adjacent_traced(u, v).map(|(a, _)| a).unwrap_or(false));
    pl_obs::set_tracing(false);
    let _ = pl_obs::trace::drain_jsonl();

    let pct = |x: f64| (x - lean) / lean * 100.0;
    rows.push(Row {
        workload: "store.query",
        mode: "lean",
        ns_per_op: lean,
        overhead_pct: 0.0,
    });
    rows.push(Row {
        workload: "store.query",
        mode: "traced-off",
        ns_per_op: off,
        overhead_pct: pct(off),
    });
    rows.push(Row {
        workload: "store.query",
        mode: "traced-on",
        ns_per_op: on,
        overhead_pct: pct(on),
    });
}

fn serve_rows(n: usize, requests: usize, rows: &mut Vec<Row>) {
    let mut g_rng = rng(0xE19 ^ 0x5E);
    let g = pl_gen::chung_lu_power_law(n, 2.5, 5.0, &mut g_rng);
    let tau = PowerLawScheme::new(2.5).tau(n);
    let tagged = TaggedLabeling {
        tag: SchemeTag::Threshold,
        labeling: encode_with_stats_threads(&g, tau, 1).0,
    };
    let run_once = |tracing: bool| {
        pl_obs::set_tracing(tracing);
        let store = Arc::new(LabelStore::new(tagged.clone(), StoreConfig::default()));
        let handle = pl_serve::serve(store, "127.0.0.1:0").expect("bind");
        let config = LoadgenConfig {
            connections: 2,
            requests_per_conn: requests,
            batch: 64,
            skew: Skew::Zipf(1.2),
            seed: 0xE19,
            hot_order: None,
            retry: RetryPolicy::default(),
        };
        // Warm-up half-run, then the measured run.
        loadgen::run(handle.addr(), &config).expect("warm-up");
        let report = loadgen::run(handle.addr(), &config).expect("load run");
        handle.shutdown();
        pl_obs::set_tracing(false);
        let _ = pl_obs::trace::drain_jsonl();
        1e9 / report.qps
    };
    let off = run_once(false);
    let on = run_once(true);
    rows.push(Row {
        workload: "serve.tcp",
        mode: "traced-off",
        ns_per_op: off,
        overhead_pct: 0.0,
    });
    rows.push(Row {
        workload: "serve.tcp",
        mode: "traced-on",
        ns_per_op: on,
        overhead_pct: (on - off) / off * 100.0,
    });
}

fn encode_rows(n: usize, rows: &mut Vec<Row>) {
    let mut g_rng = rng(0xE19 ^ 0xEC);
    let g = pl_gen::chung_lu_power_law(n, 2.5, 5.0, &mut g_rng);
    let tau = PowerLawScheme::new(2.5).tau(n);
    let reps = if n <= 20_000 { 3 } else { 1 };
    let run_once = |tracing: bool| {
        pl_obs::set_tracing(tracing);
        let _ = encode_with_stats_threads(&g, tau, 1); // warm-up
        let start = Instant::now();
        for _ in 0..reps {
            let _ = encode_with_stats_threads(&g, tau, 1);
        }
        let ns = start.elapsed().as_nanos() as f64 / reps as f64;
        pl_obs::set_tracing(false);
        let _ = pl_obs::trace::drain_jsonl();
        ns / n as f64
    };
    let off = run_once(false);
    let on = run_once(true);
    rows.push(Row {
        workload: "encode",
        mode: "traced-off",
        ns_per_op: off,
        overhead_pct: 0.0,
    });
    rows.push(Row {
        workload: "encode",
        mode: "traced-on",
        ns_per_op: on,
        overhead_pct: (on - off) / off * 100.0,
    });
}

fn main() {
    banner("E19", "observability overhead (metrics + trace gate)");
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| "BENCH_obs.json".to_string())
    };
    let (n, queries, requests) = if quick_mode() {
        (5_000, 50_000, 3_000)
    } else {
        (20_000, 200_000, 20_000)
    };

    let mut rows = Vec::new();
    store_rows(n, queries, &mut rows);
    serve_rows(n, requests, &mut rows);
    encode_rows(n, &mut rows);

    let mut table = Table::new(&["workload", "mode", "ns/op", "overhead %", "status"]);
    for r in &rows {
        let status = if r.overhead_pct <= 5.0 { "ok" } else { "HIGH" };
        table.row(vec![
            r.workload.to_string(),
            r.mode.to_string(),
            f1(r.ns_per_op),
            f1(r.overhead_pct),
            status.to_string(),
        ]);
    }
    table.print();
    let worst_off = rows
        .iter()
        .filter(|r| r.mode == "traced-off")
        .map(|r| r.overhead_pct)
        .fold(0.0f64, f64::max);
    println!("\nworst tracing-disabled overhead: {worst_off:.1}% (target < 5%)");

    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            json,
            "  {{\"workload\": \"{}\", \"mode\": \"{}\", \"ns_per_op\": {:.1}, \"overhead_pct\": {:.1}}}{sep}",
            r.workload, r.mode, r.ns_per_op, r.overhead_pct
        )
        .expect("write to String");
    }
    json.push_str("]\n");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("\nwrote {out_path}");
}
