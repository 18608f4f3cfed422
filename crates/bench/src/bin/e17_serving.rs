//! E17 — serving throughput: scheme × query skew.
//!
//! Puts the pl-serve engine under load: one in-process server per
//! configuration, a multi-connection Zipf/uniform load over real TCP,
//! and the paper's threshold scheme against the adjacency-list baseline.
//! The store answers every query in place from its label arena (a
//! fat–fat pair is one bit read), so there is no cache or shard axis
//! left to sweep. Expected shape: the threshold scheme holds its
//! throughput while shipping far smaller labels than the baseline.

use std::fmt::Write as _;
use std::sync::Arc;

use pl_bench::{banner, f1, quick_mode, rng, Table};
use pl_graph::degree::vertices_by_degree_desc;
use pl_labeling::baseline::AdjListScheme;
use pl_labeling::codec::{SchemeTag, TaggedLabeling};
use pl_labeling::scheme::AdjacencyScheme;
use pl_labeling::PowerLawScheme;
use pl_serve::client::loadgen::{self, LoadgenConfig, Skew};
use pl_serve::{Client, LabelStore, RetryPolicy, StoreConfig};

fn skew_name(skew: Skew) -> String {
    match skew {
        Skew::Uniform => "uniform".to_string(),
        Skew::Zipf(s) => format!("zipf({s})"),
    }
}

struct RunResult {
    qps: f64,
    p50_ns: u64,
    p99_ns: u64,
}

fn run_one(
    tagged: TaggedLabeling,
    skew: Skew,
    hot_order: &[u32],
    requests_per_conn: usize,
) -> RunResult {
    let store = Arc::new(LabelStore::new(tagged, StoreConfig::default()));
    let handle = pl_serve::serve(store, "127.0.0.1:0").expect("bind");
    let config = LoadgenConfig {
        connections: 4,
        requests_per_conn,
        batch: 64,
        skew,
        seed: 0xE17,
        hot_order: Some(hot_order.to_vec()),
        retry: RetryPolicy::default(),
    };
    let report = loadgen::run(handle.addr(), &config).expect("load run");
    let mut client = Client::connect(handle.addr()).expect("stats connection");
    let stats = client.stats().expect("stats");
    let _ = client.goodbye();
    handle.shutdown();
    let latency = stats
        .histogram("plserve_query_latency_ns")
        .expect("decode latency histogram");
    RunResult {
        qps: report.qps,
        p50_ns: latency.quantile_ns(0.5),
        p99_ns: latency.quantile_ns(0.99),
    }
}

fn main() {
    banner("E17", "serving throughput: scheme x skew");
    // JSON report only on request: the smoke test runs this binary from
    // the package dir, which must stay free of generated artifacts.
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
    };
    let alpha = 2.5;
    let (n, requests_per_conn) = if quick_mode() {
        (3_000, 1_500)
    } else {
        (20_000, 12_000)
    };
    let mut r = rng(1_700);
    let g = pl_gen::chung_lu_power_law(n, alpha, 5.0, &mut r);
    let hot_order = vertices_by_degree_desc(&g);

    let threshold_scheme = PowerLawScheme::with_c_prime(alpha, 1.0);
    let threshold = TaggedLabeling {
        tag: SchemeTag::Threshold,
        labeling: threshold_scheme.encode(&g),
    };
    let adjlist = TaggedLabeling {
        tag: SchemeTag::AdjList,
        labeling: AdjListScheme.encode(&g),
    };
    println!(
        "chung-lu alpha = {alpha}, n = {}, m = {}; threshold tau = {} \
         (max label {} bits) vs adjlist (max label {} bits)\n",
        g.vertex_count(),
        g.edge_count(),
        threshold_scheme.tau(n),
        threshold.labeling.max_bits(),
        adjlist.labeling.max_bits(),
    );

    let skews = [Skew::Uniform, Skew::Zipf(1.2)];
    let mut rows: Vec<(&str, String, RunResult)> = Vec::new();
    for (scheme, tagged) in [("threshold", &threshold), ("adjlist", &adjlist)] {
        for skew in skews {
            let res = run_one(tagged.clone(), skew, &hot_order, requests_per_conn);
            rows.push((scheme, skew_name(skew), res));
        }
    }

    let mut table = Table::new(&["scheme", "skew", "kqps", "p50 ns", "p99 ns"]);
    for (scheme, skew, res) in &rows {
        table.row(vec![
            (*scheme).to_string(),
            skew.clone(),
            f1(res.qps / 1_000.0),
            res.p50_ns.to_string(),
            res.p99_ns.to_string(),
        ]);
    }
    table.print();

    if let Some(out_path) = out_path {
        let mut json = String::from("[\n");
        for (i, (scheme, skew, res)) in rows.iter().enumerate() {
            let sep = if i + 1 == rows.len() { "" } else { "," };
            writeln!(
                json,
                "  {{\"scheme\": \"{scheme}\", \"skew\": \"{skew}\", \"qps\": {:.0}, \
                 \"p50_ns\": {}, \"p99_ns\": {}}}{sep}",
                res.qps, res.p50_ns, res.p99_ns
            )
            .expect("write to String");
        }
        json.push_str("]\n");
        std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
        println!("wrote {out_path}");
    }
    println!(
        "\nexpected: threshold decode stays competitive with adjlist scans while\n\
         its labels are a fraction of the size."
    );
}
