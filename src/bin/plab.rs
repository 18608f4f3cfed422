//! `plab` — command-line front end for the power-law labeling toolkit.
//!
//! ```text
//! plab gen     --model chung-lu --n 10000 --alpha 2.5 [--avg-degree 5]
//!              [--m-param 3] [--edges 30000] [--seed 1] [--out graph.el]
//! plab stats   <graph.el> [--ddist]
//! plab fit     <graph.el>
//! plab encode  --scheme powerlaw|sparse|adjlist|orientation|moon|distance|tau:N
//!              [--alpha 2.5] [--f 3] [--threads N] <graph.el> --out labels.plab
//! plab query   <labels.plab> <u> <v>
//! plab query   <labels.plab> --stdin          # one "u v" pair per line
//! plab serve   <labels.plab> [--addr HOST:PORT] [--duration SECS]
//!              [--prom HOST:PORT] [--trace] [--slow-us U]
//!              [--max-conns N] [--idle-ms MS] [--stall-ms MS]
//!              [--fault-plan SPEC]             # chaos testing
//!              [--partial]                     # cluster sub-store mode
//! plab cluster split  <labels.plab> --backends B [--replicas R] [--seed S]
//!                     [--out DIR]             # cut per-partition stores
//! plab cluster launch <labels.plab> --backends B [--replicas R] [--seed S]
//!                     [--addr HOST:PORT] [--prom HOST:PORT] [--dir DIR]
//!                     [--duration SECS] [--fault-plan SPEC] [--trace]
//!                     [--max-conns N] [--idle-ms MS] [--stall-ms MS]
//! plab cluster stats  <HOST:PORT>             # merged stats via router
//! plab loadgen <HOST:PORT> [--connections N] [--requests R] [--batch B]
//!              [--skew uniform|zipf:S] [--seed X] [--retries N]
//!              [--deadline-ms MS] [--backoff-ms MS] [--verify graph.el]
//! plab health  <HOST:PORT>                    # liveness (v3)
//! plab stats   <HOST:PORT> [--prom]           # live server metrics
//! plab trace   <HOST:PORT> [--snapshot] [--probe] [--out FILE]
//! plab trace   --cluster <ROUTER> [--probe] [--explain ID|probe]
//! plab trace   --in FILE --explain ID         # offline breakdown
//! ```
//!
//! Graphs travel as plain edge lists (`n m` header plus `u v` lines);
//! labelings travel as [`TaggedLabeling`] files — a 1-byte scheme tag
//! followed by the [`pl_labeling::Labeling`] wire format — so `query` and
//! `serve` know which decoder to apply.
//!
//! Observability: `serve --prom` exposes a Prometheus-text scrape
//! endpoint, `serve --trace` turns on the in-process trace ring (drained
//! remotely by `plab trace`), `encode --trace FILE` writes the encode
//! pipeline's phase spans as JSONL, and `stats <HOST:PORT> --prom`
//! renders a server's STATS snapshot in Prometheus text form. With
//! protocol v5, `cluster launch --trace` enables tracing cluster-wide:
//! a traced batch (`plab trace --probe`) carries its trace context
//! across the router to every backend, and `plab trace --cluster
//! <router>` returns the causally merged, origin-tagged span stream
//! (`--explain` breaks one trace down hop by hop).
//!
//! Resilience (see RELIABILITY.md): `serve --fault-plan` turns on the
//! deterministic chaos harness, `--max-conns` sheds excess connections,
//! `--idle-ms`/`--stall-ms` set the connection deadlines, and `loadgen
//! --retries --deadline-ms` drives the retrying client — with `--verify`
//! the run exits nonzero if any answer disagrees with the graph.

use std::fs;
use std::io::BufRead;
use std::process::ExitCode;

use pl_cluster::{
    rebalance, split_all, stub_all, ClusterMap, LaunchOptions, Partitioner, RebalanceAction,
    RebalanceOptions, RouterConfig,
};
use pl_graph::Graph;
use pl_labeling::baseline::{AdjListScheme, MoonScheme};
use pl_labeling::codec::{decode_adjacent, SchemeTag, TaggedLabeling};
use pl_labeling::distance::DistanceScheme;
use pl_labeling::forest::OrientationScheme;
use pl_labeling::scheme::AdjacencyScheme;
use pl_labeling::threshold::encode_with_stats_threads;
use pl_labeling::{Labeling, PowerLawScheme, SparseScheme};
use pl_serve::client::loadgen::{self, LoadgenConfig, Skew};
use pl_serve::{Client, FaultPlan, LabelStore, ResilientClient, RetryPolicy, StoreConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("fit") => cmd_fit(&args[1..]),
        Some("encode") => cmd_encode(&args[1..]),
        Some("query") => cmd_query(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("cluster") => cmd_cluster(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("health") => cmd_health(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            eprintln!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("plab: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  plab gen     --model <chung-lu|ba|er|waxman|pl|hierarchical> --n N
               [--alpha A] [--avg-degree D] [--m-param M] [--edges M]
               [--seed S] [--out FILE]
  plab stats   <graph.el> [--ddist]
  plab stats   <HOST:PORT> [--prom]
  plab fit     <graph.el>
  plab encode  --scheme <powerlaw|sparse|adjlist|orientation|moon|distance|tau:N>
               [--alpha A] [--f F] [--threads N] [--trace FILE]
               <graph.el> --out <labels.plab>
  plab query   <labels.plab> <u> <v>
  plab query   <labels.plab> --stdin
  plab serve   <labels.plab> [--addr HOST:PORT] [--duration SECS]
               [--prom HOST:PORT] [--trace] [--slow-us U]
               [--max-conns N] [--idle-ms MS] [--stall-ms MS]
               [--fault-plan seed=S,drop=P,flip=P,truncate=P,store_err=P,...]
               [--partial]
  plab cluster split  <labels.plab> --backends B [--replicas R] [--seed S]
               [--out DIR]
  plab cluster launch <labels.plab> --backends B [--replicas R] [--seed S]
               [--addr HOST:PORT] [--prom HOST:PORT] [--dir DIR]
               [--duration SECS] [--fault-plan SPEC] [--trace]
               [--max-conns N] [--idle-ms MS] [--stall-ms MS]
  plab cluster stats  <HOST:PORT>
  plab cluster stub   <labels.plab> --out <stub.plab>
  plab cluster rebalance <labels.plab> --router HOST:PORT
               (--add HOST:PORT | --remove N | --map FILE) [--chunk-bytes B]
  plab loadgen <HOST:PORT> [--connections N] [--requests R] [--batch B]
               [--skew uniform|zipf:S] [--seed X] [--retries N]
               [--deadline-ms MS] [--backoff-ms MS] [--verify graph.el]
  plab health  <HOST:PORT>
  plab trace   <HOST:PORT|--cluster ROUTER> [--snapshot] [--probe]
               [--explain ID|probe] [--in FILE] [--out FILE]";

/// Minimal flag parser: `--key value` pairs plus positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                // A flag followed by another flag (or nothing) is boolean.
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        flags.push((key.to_string(), it.next().expect("peeked").clone()));
                    }
                    _ => flags.push((key.to_string(), "true".to_string())),
                }
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Self { flags, positional })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot parse {v:?}")),
        }
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }
}

fn load_graph(path: &str) -> Result<Graph, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    pl_graph::io::from_edge_list(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn emit(out: Option<&str>, content: &str) -> Result<(), String> {
    match out {
        Some(path) => fs::write(path, content).map_err(|e| format!("writing {path}: {e}")),
        None => {
            print!("{content}");
            Ok(())
        }
    }
}

fn cmd_gen(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let model = args.require("model")?.to_string();
    let n: usize = args.get_parsed("n", 0)?;
    if n == 0 {
        return Err("missing or zero --n".into());
    }
    let alpha: f64 = args.get_parsed("alpha", 2.5)?;
    let avg: f64 = args.get_parsed("avg-degree", 5.0)?;
    let seed: u64 = args.get_parsed("seed", 1)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let g = match model.as_str() {
        "chung-lu" => pl_gen::chung_lu_power_law(n, alpha, avg, &mut rng),
        "ba" => {
            let m: usize = args.get_parsed("m-param", 3)?;
            pl_gen::barabasi_albert(n, m, &mut rng).graph
        }
        "er" => {
            let m: usize = args.get_parsed("edges", (avg * n as f64 / 2.0) as usize)?;
            pl_gen::er::gnm(n, m, &mut rng)
        }
        "waxman" => pl_gen::waxman::waxman(n, 0.9, 0.05, &mut rng),
        "pl" => pl_gen::pl_family::p_l_random(n, alpha, &mut rng).graph,
        "hierarchical" => {
            let domains = (n as f64).sqrt().ceil() as usize;
            pl_gen::hierarchical::hierarchical(
                pl_gen::hierarchical::HierarchicalParams {
                    domains,
                    domain_size: n.div_ceil(domains),
                    p_intra: avg / n.div_ceil(domains) as f64,
                    p_inter: 0.5,
                },
                &mut rng,
            )
        }
        other => return Err(format!("unknown model `{other}`")),
    };
    emit(args.get("out"), &pl_graph::io::to_edge_list(&g))?;
    eprintln!(
        "generated {model}: n = {}, m = {}",
        g.vertex_count(),
        g.edge_count()
    );
    Ok(())
}

fn cmd_stats(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let path = args.positional.first().ok_or("missing graph file")?;
    // `stats <HOST:PORT>` queries a live server instead of a graph file.
    if !std::path::Path::new(path).exists() {
        if let Ok(addr) = path.parse::<std::net::SocketAddr>() {
            return server_stats(addr, args.get("prom").is_some_and(|v| v != "false"));
        }
    }
    let g = load_graph(path)?;
    let comps = pl_graph::components::connected_components(&g);
    let degeneracy = pl_graph::degeneracy::degeneracy_ordering(&g).degeneracy;
    println!("vertices       {}", g.vertex_count());
    println!("edges          {}", g.edge_count());
    println!("max degree     {}", g.max_degree());
    println!("sparsity m/n   {:.3}", g.sparsity());
    println!("components     {}", comps.count());
    println!("degeneracy     {degeneracy}");
    println!(
        "diameter (est) {}",
        pl_graph::traversal::double_sweep_diameter(&g, 0)
    );
    if args.get("ddist").is_some_and(|v| v != "false") {
        let h = pl_graph::degree::DegreeHistogram::of(&g);
        println!("\ndegree  count  ddist     |V>=k|");
        let total_classes = h.nonzero().count();
        for (printed, (k, c)) in h.nonzero().enumerate() {
            if printed >= 20 {
                println!("… ({} more classes)", total_classes - printed);
                break;
            }
            println!("{k:>6}  {c:>5}  {:<8.6}  {}", h.ddist(k), h.tail_count(k));
        }
    }
    Ok(())
}

/// `plab stats <HOST:PORT>`: fetch a live server's snapshot; `--prom`
/// renders it in Prometheus text form instead of the human layout.
fn server_stats(addr: std::net::SocketAddr, prom: bool) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let stats = client.stats().map_err(|e| format!("fetching stats: {e}"))?;
    if prom {
        print!("{}", snapshot_prom(&stats));
    } else {
        println!("{stats}");
    }
    client.goodbye().ok();
    Ok(())
}

/// Renders a STATS snapshot as Prometheus text — the client-side twin of
/// the server's own scrape endpoint, fed over the wire instead of from
/// the live registry (quantiles arrive precomputed, so they are emitted
/// as labeled gauges rather than a summary).
fn snapshot_prom(s: &pl_serve::Snapshot) -> String {
    let mut p = pl_obs::prom::PromText::new();
    let no_labels = Vec::new();
    for (name, v) in [
        ("plserve_adj_queries_total", s.adj_queries),
        ("plserve_dist_queries_total", s.dist_queries),
        ("plserve_batches_total", s.batches),
        ("plserve_connections_total", s.connections),
        ("plserve_bytes_in_total", s.bytes_in),
        ("plserve_bytes_out_total", s.bytes_out),
        ("plserve_protocol_errors_total", s.protocol_errors),
        ("plserve_slow_queries_total", s.slow_queries),
        ("plserve_faults_injected_total", s.faults_injected),
        ("plserve_shed_total", s.shed),
    ] {
        p.counter(name, &no_labels, v);
    }
    p.gauge("plserve_open_conns", &no_labels, s.open_conns as i64);
    for (q, v) in [
        ("0.5", s.p50_ns),
        ("0.9", s.p90_ns),
        ("0.99", s.p99_ns),
        ("0.999", s.p999_ns),
    ] {
        let labels = vec![("quantile".to_string(), q.to_string())];
        p.gauge("plserve_query_latency_ns", &labels, v as i64);
    }
    p.gauge("plserve_query_latency_ns_min", &no_labels, s.min_ns as i64);
    p.gauge("plserve_query_latency_ns_max", &no_labels, s.max_ns as i64);
    p.gauge_f64("plserve_qps", &no_labels, s.qps());
    p.finish()
}

fn cmd_fit(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let path = args.positional.first().ok_or("missing graph file")?;
    let g = load_graph(path)?;
    let degrees: Vec<u64> = g
        .vertices()
        .map(|v| g.degree(v) as u64)
        .filter(|&d| d > 0)
        .collect();
    let max_x_min = (g.vertex_count() as f64).sqrt().ceil() as u64;
    match pl_stats::fit_power_law(&degrees, max_x_min.max(10), 10) {
        Some(fit) => {
            println!("alpha          {:.4}", fit.alpha);
            println!("x_min          {}", fit.x_min);
            println!("KS distance    {:.4}", fit.ks);
            println!("tail samples   {}", fit.n_tail);
            let k = pl_stats::paper::PaperConstants::new(g.vertex_count().max(1), fit.alpha);
            println!("paper C        {:.4}", k.c);
            println!("paper i1       {}", k.i1);
            println!("paper C'       {:.1}", k.c_prime);
            Ok(())
        }
        None => Err("not enough degree data to fit a power law".into()),
    }
}

fn cmd_encode(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let scheme_name = args.require("scheme")?.to_string();
    let path = args.positional.first().ok_or("missing graph file")?;
    let out = args.require("out")?.to_string();
    let g = load_graph(path)?;
    let n = g.vertex_count();
    let threads: usize = args.get_parsed("threads", 1)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    // Only the threshold-family encoders are chunked; parallelism is a
    // no-op (with a warning) for the rest.
    let warn_threads = |scheme: &str| {
        if threads > 1 {
            eprintln!("plab: --threads ignored for scheme `{scheme}`");
        }
    };

    // `--trace FILE`: turn the trace ring on for the encode and dump the
    // phase spans as JSONL afterwards.
    let trace_out = args.get("trace").map(str::to_string);
    if trace_out.is_some() {
        pl_obs::set_tracing(true);
        // Discard anything recorded before the encode begins.
        let _ = pl_obs::trace::drain_jsonl();
    }

    let mut paper_bound: Option<f64> = None;
    let (tag, labeling, desc): (SchemeTag, Labeling, String) = match scheme_name.as_str() {
        "powerlaw" => {
            let s = match args.get("alpha") {
                Some(a) => {
                    PowerLawScheme::new(a.parse().map_err(|_| "--alpha: bad number".to_string())?)
                }
                None => {
                    PowerLawScheme::fitted(&g).ok_or("cannot fit alpha; pass --alpha explicitly")?
                }
            };
            let tau = s.tau(n);
            let desc = format!("powerlaw alpha={:.2} tau={tau}", s.alpha());
            paper_bound = Some(s.guaranteed_bits(n));
            let (labeling, _) = encode_with_stats_threads(&g, tau, threads);
            (SchemeTag::Threshold, labeling, desc)
        }
        "sparse" => {
            let s = SparseScheme::for_graph(&g);
            let tau = s.tau(n);
            let desc = format!("sparse c={:.2} tau={tau}", s.c());
            paper_bound = Some(s.guaranteed_bits(n));
            let (labeling, _) = encode_with_stats_threads(&g, tau, threads);
            (SchemeTag::Threshold, labeling, desc)
        }
        "adjlist" => {
            warn_threads("adjlist");
            (
                SchemeTag::AdjList,
                AdjListScheme.encode(&g),
                "adjlist".into(),
            )
        }
        "orientation" => {
            warn_threads("orientation");
            (
                SchemeTag::Orientation,
                OrientationScheme.encode(&g),
                "orientation".into(),
            )
        }
        "moon" => {
            warn_threads("moon");
            (SchemeTag::Moon, MoonScheme.encode(&g), "moon".into())
        }
        "distance" => {
            warn_threads("distance");
            let alpha: f64 = args.get_parsed("alpha", 2.5)?;
            let f: u32 = args.get_parsed("f", 3)?;
            let s = DistanceScheme::new(alpha, f);
            let desc = format!("distance alpha={alpha:.2} f={f}");
            (SchemeTag::Distance, s.encode(&g), desc)
        }
        other => match other.strip_prefix("tau:") {
            Some(t) => {
                let tau: usize = t.parse().map_err(|_| format!("bad tau in {other:?}"))?;
                let (labeling, _) = encode_with_stats_threads(&g, tau, threads);
                (
                    SchemeTag::Threshold,
                    labeling,
                    format!("threshold tau={tau}"),
                )
            }
            None => return Err(format!("unknown scheme `{other}`")),
        },
    };

    let tagged = TaggedLabeling { tag, labeling };
    tagged
        .save(&out)
        .map_err(|e| format!("writing {out}: {e}"))?;
    let labeling = &tagged.labeling;
    eprintln!(
        "encoded {desc}: {} labels, max {} bits, avg {:.1} bits, {} bytes on disk",
        labeling.len(),
        labeling.max_bits(),
        labeling.avg_bits(),
        tagged.to_bytes().len()
    );
    // Standing health check: observed max label size vs the paper's
    // guarantee (Theorem 3 for sparse, Theorem 4 for powerlaw). The bound
    // only binds for graphs actually in the paper's family, so out-of-
    // family inputs report the excess rather than failing.
    if let Some(bound) = paper_bound {
        let max = labeling.max_bits() as f64;
        let verdict = if max <= bound.ceil() {
            "within bound"
        } else {
            "EXCEEDS bound (input may be outside the paper's graph family)"
        };
        eprintln!("paper bound: max {max:.0} bits vs guaranteed {bound:.0} bits — {verdict}");
    }
    if let Some(path) = trace_out {
        let jsonl = pl_obs::trace::drain_jsonl();
        let events = jsonl.lines().count();
        fs::write(&path, jsonl).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("trace: {events} events -> {path}");
    }
    Ok(())
}

fn load_labeling(path: &str) -> Result<TaggedLabeling, String> {
    TaggedLabeling::load(path).map_err(|e| format!("{path}: {e}"))
}

fn cmd_query(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    if args.get("stdin").is_some_and(|v| v != "false") {
        let [path] = args.positional.as_slice() else {
            return Err("usage: plab query <labels.plab> --stdin".into());
        };
        return query_stdin(path);
    }
    let [path, u, v] = args.positional.as_slice() else {
        return Err("usage: plab query <labels.plab> <u> <v>  (or --stdin)".into());
    };
    let tagged = load_labeling(path)?;
    let u: u32 = u.parse().map_err(|_| format!("bad vertex id {u:?}"))?;
    let v: u32 = v.parse().map_err(|_| format!("bad vertex id {v:?}"))?;
    let n = tagged.labeling.len();
    if (u as usize) >= n || (v as usize) >= n {
        return Err(format!("vertex out of range (n = {n})"));
    }
    let (a, b) = (tagged.labeling.label(u), tagged.labeling.label(v));
    println!("{}", decode_adjacent(tagged.tag, a, b));
    Ok(())
}

/// Batch mode: the labeling is loaded once, then one `u v` pair per stdin
/// line is answered per output line. Any malformed or out-of-range pair
/// aborts with a non-zero exit so pipelines fail loudly.
fn query_stdin(path: &str) -> Result<(), String> {
    let tagged = load_labeling(path)?;
    let n = tagged.labeling.len();
    let stdin = std::io::stdin();
    for (line_no, line) in stdin.lock().lines().enumerate() {
        let line = line.map_err(|e| format!("reading stdin: {e}"))?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (Some(u), Some(v), None) = (parts.next(), parts.next(), parts.next()) else {
            return Err(format!(
                "line {}: expected `u v`, got {line:?}",
                line_no + 1
            ));
        };
        let parse = |s: &str| -> Result<u32, String> {
            s.parse()
                .map_err(|_| format!("line {}: bad vertex id {s:?}", line_no + 1))
        };
        let (u, v) = (parse(u)?, parse(v)?);
        if (u as usize) >= n || (v as usize) >= n {
            return Err(format!(
                "line {}: vertex out of range (n = {n})",
                line_no + 1
            ));
        }
        let (a, b) = (tagged.labeling.label(u), tagged.labeling.label(v));
        println!("{}", decode_adjacent(tagged.tag, a, b));
    }
    Ok(())
}

fn cmd_serve(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let path = args.positional.first().ok_or("missing labeling file")?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7401");
    let duration: u64 = args.get_parsed("duration", 0)?;
    let slow_us: u64 = args.get_parsed("slow-us", 0)?;
    let max_conns: usize = args.get_parsed("max-conns", 0)?;
    let idle_ms: u64 = args.get_parsed("idle-ms", 0)?;
    let stall_ms: u64 = args.get_parsed("stall-ms", 0)?;
    let fault_plan = match args.get("fault-plan") {
        Some(spec) => {
            let plan = FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?;
            eprintln!("chaos mode: injecting faults ({plan})");
            Some(plan)
        }
        None => None,
    };
    if args.get("trace").is_some_and(|v| v != "false") {
        pl_obs::set_tracing(true);
        eprintln!("tracing on (drain with `plab trace {addr}`)");
    }
    let partial = args.get("partial").is_some_and(|v| v != "false");
    let tagged = load_labeling(path)?;
    let store =
        std::sync::Arc::new(LabelStore::new(tagged, StoreConfig::default()).with_partial(partial));
    eprintln!(
        "serving {} labels ({} scheme{}) on {}",
        store.n(),
        store.tag().name(),
        if partial { ", partial" } else { "" },
        addr,
    );
    let options = pl_serve::ServeOptions {
        registry: None,
        slow_query_ns: (slow_us > 0).then_some(slow_us * 1_000),
        max_conns: (max_conns > 0).then_some(max_conns),
        fault_plan,
        idle_timeout: (idle_ms > 0).then(|| std::time::Duration::from_millis(idle_ms)),
        stall_timeout: (stall_ms > 0).then(|| std::time::Duration::from_millis(stall_ms)),
        max_version: None,
    };
    let handle =
        pl_serve::serve_with(store, addr, options).map_err(|e| format!("binding {addr}: {e}"))?;
    eprintln!("listening on {}", handle.addr());
    // Prometheus sidecar: a plain-HTTP /metrics endpoint rendering the
    // server registry on every scrape.
    let _prom_handle = match args.get("prom") {
        Some(prom_addr) => {
            let h = pl_obs::http::expose(prom_addr, handle.prometheus_renderer())
                .map_err(|e| format!("binding prometheus endpoint {prom_addr}: {e}"))?;
            eprintln!("prometheus metrics on http://{}/metrics", h.addr());
            Some(h)
        }
        None => None,
    };
    if duration == 0 {
        // No signal handling in std: run until killed.
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    std::thread::sleep(std::time::Duration::from_secs(duration));
    let final_stats = handle.shutdown();
    eprintln!("--- final stats ---\n{final_stats}");
    Ok(())
}

/// `plab cluster <split|launch|stats|stub|rebalance>`: the distributed
/// serving front end (see `crates/cluster`). `split` cuts per-partition
/// sub-stores, `launch` runs a local backends-plus-router process
/// group, `stats` prints a router's merged snapshot, `stub` writes the
/// all-stub sub-store a joining backend boots from, and `rebalance`
/// drives a live epoch-bumped reconfiguration through a router.
fn cmd_cluster(raw: &[String]) -> Result<(), String> {
    match raw.first().map(String::as_str) {
        Some("split") => cluster_split(&raw[1..]),
        Some("launch") => cluster_launch(&raw[1..]),
        Some("stats") => cluster_stats(&raw[1..]),
        Some("stub") => cluster_stub(&raw[1..]),
        Some("rebalance") => cluster_rebalance(&raw[1..]),
        _ => Err(format!(
            "expected `plab cluster <split|launch|stats|stub|rebalance>`\n{USAGE}"
        )),
    }
}

/// Shared `--backends/--replicas/--seed` parsing for the cluster verbs.
fn cluster_shape(args: &Args) -> Result<(usize, usize, u64), String> {
    let backends: usize = args.get_parsed("backends", 0)?;
    if backends == 0 {
        return Err("missing or zero --backends".into());
    }
    let replicas: usize = args.get_parsed("replicas", 2)?;
    if replicas == 0 {
        return Err("--replicas must be at least 1".into());
    }
    let seed: u64 = args.get_parsed("seed", 1)?;
    Ok((backends, replicas, seed))
}

fn cluster_split(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let path = args.positional.first().ok_or("missing labeling file")?;
    let (backends, replicas, seed) = cluster_shape(&args)?;
    let dir = std::path::PathBuf::from(args.get("out").unwrap_or("."));
    fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let tagged = load_labeling(path)?;
    let part = Partitioner::new(seed, backends, replicas);
    let (parts, reports) = split_all(&tagged, &part).map_err(|e| e.to_string())?;
    let full_bits = tagged.labeling.total_bits() as u64;
    for (b, (sub, report)) in parts.iter().zip(&reports).enumerate() {
        let out = dir.join(format!("part_{b}.plab"));
        sub.save(&out)
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        eprintln!(
            "backend {b}: {} owned + {} stubbed, {} bits ({:.1}% of full) -> {}",
            report.owned,
            report.stubbed,
            report.bits,
            report.bits as f64 / full_bits.max(1) as f64 * 100.0,
            out.display()
        );
    }
    // Epoch-0 map: the assignment parameters without live addresses;
    // `cluster launch` writes the epoch-1 map with real ones.
    let map = ClusterMap {
        epoch: 0,
        seed,
        replicas: part.replicas() as u32,
        n: u32::try_from(tagged.labeling.len()).map_err(|_| "labeling too large".to_string())?,
        tag: tagged.tag as u8,
        backends: vec![String::new(); backends],
    };
    let map_path = dir.join("cluster.plcm");
    map.save(&map_path)
        .map_err(|e| format!("writing {}: {e}", map_path.display()))?;
    eprintln!("map (epoch 0) -> {}", map_path.display());
    Ok(())
}

fn cluster_launch(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let path = args.positional.first().ok_or("missing labeling file")?;
    let (backends, replicas, seed) = cluster_shape(&args)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:7400");
    let dir = args.get("dir").unwrap_or("cluster-data");
    let duration: u64 = args.get_parsed("duration", 0)?;
    let max_conns: usize = args.get_parsed("max-conns", 0)?;
    let idle_ms: u64 = args.get_parsed("idle-ms", 0)?;
    let stall_ms: u64 = args.get_parsed("stall-ms", 0)?;
    // One --fault-plan drives chaos end to end: the raw spec is
    // forwarded to every backend's CLI, and the parsed plan is injected
    // at the router's own front-end too.
    let (fault_plan, router_fault_plan) = match args.get("fault-plan") {
        Some(spec) => {
            // Validated here so a typo fails fast instead of as an
            // opaque "backend exited before binding".
            let plan = FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?;
            eprintln!("chaos mode: backends and router injecting faults ({plan})");
            (Some(spec.to_string()), Some(plan))
        }
        None => (None, None),
    };
    let trace = args.get("trace").is_some_and(|v| v != "false");
    if trace {
        eprintln!("tracing on cluster-wide (drain with `plab trace --cluster {addr}`)");
    }
    let tagged = load_labeling(path)?;
    let exe = std::env::current_exe().map_err(|e| format!("resolving own binary: {e}"))?;
    let opts = LaunchOptions {
        exe,
        dir: dir.into(),
        backends,
        replicas,
        seed,
        router_addr: addr.to_string(),
        fault_plan,
        config: RouterConfig::default(),
        max_conns: (max_conns > 0).then_some(max_conns),
        idle_timeout: (idle_ms > 0).then(|| std::time::Duration::from_millis(idle_ms)),
        stall_timeout: (stall_ms > 0).then(|| std::time::Duration::from_millis(stall_ms)),
        router_fault_plan,
        trace,
    };
    let handle = pl_cluster::launch(&tagged, &opts)?;
    for ((b, child, addr), report) in handle.children.iter().zip(&handle.reports) {
        eprintln!(
            "backend {b}: pid {} addr {} ({} owned + {} stubbed)",
            child.id(),
            addr,
            report.owned,
            report.stubbed
        );
    }
    eprintln!(
        "router listening on {} ({} backends, {} replicas, epoch {})",
        handle.router.addr(),
        handle.map.backends.len(),
        handle.map.replicas,
        handle.map.epoch
    );
    let _prom_handle = match args.get("prom") {
        Some(prom_addr) => {
            let h = pl_obs::http::expose(prom_addr, handle.router.prometheus_renderer())
                .map_err(|e| format!("binding prometheus endpoint {prom_addr}: {e}"))?;
            eprintln!("prometheus metrics on http://{}/metrics", h.addr());
            Some(h)
        }
        None => None,
    };
    if duration == 0 {
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    std::thread::sleep(std::time::Duration::from_secs(duration));
    let final_stats = handle.shutdown();
    eprintln!("--- final router stats ---\n{final_stats}");
    Ok(())
}

/// `plab cluster stub`: the all-stub sub-store of a labeling — what a
/// joining backend serves (with `--partial`) until a rebalance streams
/// its share of full labels in.
fn cluster_stub(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let path = args.positional.first().ok_or("missing labeling file")?;
    let out = args.get("out").ok_or("missing --out")?;
    let tagged = load_labeling(path)?;
    let full_bits = tagged.labeling.total_bits() as u64;
    let (stub, report) = stub_all(&tagged).map_err(|e| e.to_string())?;
    stub.save(out).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!(
        "stubbed all {} vertices, {} bits ({:.1}% of full) -> {out}",
        report.stubbed,
        report.bits,
        report.bits as f64 / full_bits.max(1) as f64 * 100.0,
    );
    Ok(())
}

/// `plab cluster rebalance`: live reconfiguration through a router —
/// epoch-bump the cluster map (`--add`/`--remove`/`--map`), stream
/// re-owned labels into gaining backends while the router dual-routes,
/// commit, shrink the losers. Zero downtime; rolled back on failure.
fn cluster_rebalance(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let path = args.positional.first().ok_or("missing labeling file")?;
    let router = args.get("router").ok_or("missing --router")?;
    let action = match (args.get("add"), args.get("remove"), args.get("map")) {
        (Some(addr), None, None) => RebalanceAction::Add(addr.to_string()),
        (None, Some(i), None) => {
            RebalanceAction::Remove(i.parse().map_err(|_| format!("bad --remove index {i:?}"))?)
        }
        (None, None, Some(file)) => RebalanceAction::Map(
            ClusterMap::load(file).map_err(|e| format!("reading {file}: {e}"))?,
        ),
        _ => return Err("need exactly one of --add, --remove, --map".into()),
    };
    let mut options = RebalanceOptions::default();
    if let Some(chunk) = args.get("chunk-bytes") {
        options.chunk_bytes = chunk
            .parse()
            .map_err(|_| format!("bad --chunk-bytes {chunk:?}"))?;
    }
    let tagged = load_labeling(path)?;
    let report = rebalance(&tagged, router, action, &options).map_err(|e| e.to_string())?;
    for (addr, count) in &report.gained {
        eprintln!("backend {addr}: +{count} vertices");
    }
    for addr in &report.shrunk {
        eprintln!("backend {addr}: shrunk to new partition");
    }
    println!(
        "rebalanced epoch {} -> {} ({} vertices moved)",
        report.old_epoch, report.new_epoch, report.moved
    );
    Ok(())
}

fn cluster_stats(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let addr = args.positional.first().ok_or("missing router address")?;
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| format!("bad router address {addr:?}"))?;
    let mut client = Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    println!("{stats}");
    client.goodbye().ok();
    Ok(())
}

/// `plab trace <HOST:PORT>`: drain the server's trace ring buffers over
/// the wire and print (or save) the JSONL. A plain dump consumes the
/// drained events; `--snapshot` (protocol v5) reads without consuming.
/// Against a router the dump is already cluster-wide: the router merges
/// its own rings with every backend's, origin-tagged (`--cluster` is
/// accepted for clarity but the merge happens server-side). `--probe`
/// first pushes one traced batch through the target so a fresh trace
/// exists, and prints its trace id; `--explain ID` (or `--explain
/// probe`) renders that trace as a causal span tree with the per-hop
/// latency decomposition. `--in FILE` explains a previously saved dump
/// without connecting anywhere.
fn cmd_trace(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let snapshot = args.get("snapshot").is_some_and(|v| v != "false");
    let probe = args.get("probe").is_some_and(|v| v != "false");
    let mut explain_id = args.get("explain").map(str::to_string);

    let jsonl = if let Some(path) = args.get("in") {
        fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?
    } else {
        // `--cluster <router>` and a bare positional address are
        // interchangeable: the router merges origins server-side, so
        // the client-side dance is identical either way.
        let addr = args
            .positional
            .first()
            .map(String::as_str)
            .or_else(|| args.get("cluster").filter(|v| *v != "true"))
            .ok_or("missing server address")?;
        let addr: std::net::SocketAddr = addr
            .parse()
            .map_err(|_| format!("bad server address {addr:?}"))?;
        let mut client = Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
        if probe {
            if client.version() < 5 {
                return Err(format!(
                    "--probe needs protocol v5, server speaks v{}",
                    client.version()
                ));
            }
            let ctx = pl_obs::TraceContext::root();
            let queries = [pl_serve::Query::adjacent(0, 0)];
            client
                .batch_ctx(&queries, Some(&ctx))
                .map_err(|e| format!("probe batch: {e}"))?;
            eprintln!("probe trace id: {}", ctx.trace_hex());
            if explain_id.as_deref() == Some("probe") {
                explain_id = Some(ctx.trace_hex());
            }
        }
        let out = if snapshot {
            client
                .trace_snapshot()
                .map_err(|e| format!("trace snapshot: {e}"))?
        } else {
            client
                .trace_dump()
                .map_err(|e| format!("trace dump: {e}"))?
        };
        client.goodbye().ok();
        out
    };
    eprintln!("{} trace events", jsonl.lines().count());
    if let Some(id) = explain_id {
        match pl_cluster::explain_trace(&jsonl, &id) {
            Some(text) => println!("{text}"),
            None => return Err(format!("trace {id} not found in dump")),
        }
        if let Some(out) = args.get("out") {
            emit(Some(out), &jsonl)?;
        }
        return Ok(());
    }
    emit(args.get("out"), &jsonl)?;
    Ok(())
}

fn cmd_loadgen(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let addr = args.positional.first().ok_or("missing server address")?;
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| format!("bad server address {addr:?}"))?;
    let skew = match args.get("skew").unwrap_or("uniform") {
        "uniform" => Skew::Uniform,
        other => match other.strip_prefix("zipf:") {
            Some(s) => Skew::Zipf(
                s.parse()
                    .map_err(|_| format!("bad zipf exponent in {other:?}"))?,
            ),
            None => return Err(format!("unknown skew {other:?}")),
        },
    };
    // Any retry-shaped flag opts the run into the resilient workers;
    // omitting them all keeps the original fail-fast behaviour.
    let retries: u32 = args.get_parsed("retries", 0)?;
    let deadline_ms: u64 = args.get_parsed("deadline-ms", 0)?;
    let backoff_ms: u64 = args.get_parsed("backoff-ms", 0)?;
    let retry = (retries > 0 || deadline_ms > 0 || backoff_ms > 0).then(|| {
        let defaults = RetryPolicy::default();
        RetryPolicy {
            max_retries: if retries > 0 {
                retries
            } else {
                defaults.max_retries
            },
            deadline: if deadline_ms > 0 {
                Some(std::time::Duration::from_millis(deadline_ms))
            } else {
                defaults.deadline
            },
            backoff_base: if backoff_ms > 0 {
                std::time::Duration::from_millis(backoff_ms)
            } else {
                defaults.backoff_base
            },
            ..defaults
        }
    });
    let reference = match args.get("verify") {
        Some(path) => Some(load_graph(path)?),
        None => None,
    };
    let config = LoadgenConfig {
        connections: args.get_parsed("connections", 4)?,
        requests_per_conn: args.get_parsed("requests", 10_000)?,
        batch: args.get_parsed("batch", 64)?,
        skew,
        seed: args.get_parsed("seed", 0x1abe1)?,
        hot_order: None,
        retry: retry.clone(),
    };
    let report = match &reference {
        Some(g) => loadgen::run_verified(addr, &config, g),
        None => loadgen::run(addr, &config),
    }
    .map_err(|e| format!("load run failed: {e}"))?;
    println!(
        "{} queries over {} connections in {:.3}s: {:.0} qps ({} adjacent)",
        report.queries, config.connections, report.elapsed_secs, report.qps, report.adjacent_true
    );
    if retry.is_some() {
        println!(
            "resilience: {} retries absorbed, {} queries failed, {:.2}% success, p99 batch {:.3}ms",
            report.retries,
            report.failed,
            report.success_rate() * 100.0,
            report.p99_batch_ns as f64 / 1e6
        );
    }
    if reference.is_some() {
        println!(
            "verified against reference graph: {} mismatches",
            report.mismatches
        );
    }
    // Fetch closing stats with retries when resilience is on: under an
    // injected-fault plan a bare connection may itself be dropped.
    let stats = match retry {
        Some(policy) => {
            let mut client = ResilientClient::connect(addr, policy)
                .map_err(|e| format!("stats connection: {e}"))?;
            let stats = client.stats().map_err(|e| format!("fetching stats: {e}"))?;
            client.goodbye();
            stats
        }
        None => {
            let mut client = Client::connect(addr).map_err(|e| format!("stats connection: {e}"))?;
            let stats = client.stats().map_err(|e| format!("fetching stats: {e}"))?;
            client.goodbye().ok();
            stats
        }
    };
    println!("--- server stats ---\n{stats}");
    if report.mismatches > 0 {
        return Err(format!(
            "{} answers disagreed with the reference graph",
            report.mismatches
        ));
    }
    Ok(())
}

/// `plab health <HOST:PORT>`: the liveness report (protocol v3) — one
/// always-live entry from a server, one entry per backend from a
/// router. Exit code is the health status, so scripts can gate on it
/// directly.
fn cmd_health(raw: &[String]) -> Result<(), String> {
    let args = Args::parse(raw)?;
    let addr = args.positional.first().ok_or("missing server address")?;
    let addr: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| format!("bad server address {addr:?}"))?;
    let mut client = Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let report = client.health().map_err(|e| format!("health check: {e}"))?;
    for (i, up) in report.shards.iter().enumerate() {
        println!("entry {i}: {}", if *up { "ok" } else { "DOWN" });
    }
    client.goodbye().ok();
    if report.healthy {
        println!("healthy ({} entries)", report.shards.len());
        Ok(())
    } else {
        Err("server reports unhealthy entries".into())
    }
}
