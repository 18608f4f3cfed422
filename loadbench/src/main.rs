//! End-to-end benchmark of the label-serving stack.
//!
//! ```text
//! cargo run --release --manifest-path loadbench/Cargo.toml -- \
//!     --workload <serve-zipf-b64|serve-uniform-b1|cluster-zipf-b32> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run generates its inputs from `--seed` (a Chung–Lu power-law
//! graph and one query pool per load connection), sets the serving stack
//! up several times (reporting the median set-up time), then drives it
//! from two load connections:
//!
//! * `--trace 0` — open-loop windows (fixed schedule, latency timed
//!   from each batch's due time) alternating with closed-loop windows
//!   (capacity), and prints the end-to-end metrics;
//! * `--trace 1` — open-loop windows untraced and traced, alternating
//!   with closed-loop windows, then times each layer from outside, and
//!   prints the per-layer metrics with the layer budget.
//!
//! Every answer is checked against `Graph::has_edge` after the timed
//! phases; a single wrong answer fails the run. The last line of
//! standard output is one JSON object with the result.

mod deploy;
mod layers;
mod load;
mod stats;
mod sys;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use pl_graph::degree::vertices_by_degree_desc;
use pl_labeling::PowerLawScheme;
use pl_obs::registry::MetricValue;
use pl_obs::MetricsRegistry;
use pl_serve::{LabelStore, StoreConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use deploy::{Deployment, Servers, SetupTimes, Workload, ALPHA, AVG_DEGREE, CONNECTIONS, N};
use load::{ConnRun, Pool, Tally};
use stats::{count_above, median, quantile, Schedule};

const USAGE: &str =
    "usage: pl-loadbench --workload <serve-zipf-b64|serve-uniform-b1|cluster-zipf-b32> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run; set-up metrics are their medians.
const SETUPS: usize = 5;
/// Timed windows per phase; phase metrics are medians over them.
const WINDOWS: usize = 20;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = deploy::WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("loadbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The result line.
struct Report {
    correct: bool,
    tally: Tally,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let mut m = String::new();
        if self.correct {
            for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
                let sep = if i == 0 { "" } else { ", " };
                let value = if value.is_finite() { *value } else { 0.0 };
                let _ = write!(
                    m,
                    "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                );
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.tally.attempted, self.tally.failed
        )
    }
}

/// Runs one phase on every load connection at once, one thread each.
/// Generator `c` is pinned to CPU `c`: left to the scheduler, the
/// generators and the server threads they wake land on a different mix
/// of CPUs in every window, and on the batch-of-one workload that
/// placement alone moved the median latency and CPU per query by about
/// a tenth from run to run.
fn on_all_connections(
    dep: &mut Deployment,
    pools: &[Pool],
    phase: impl Fn(&mut pl_serve::Client, &Pool, usize) -> std::io::Result<ConnRun> + Sync,
) -> Result<Vec<ConnRun>, String> {
    let cpus = thread::available_parallelism().map_or(1, usize::from);
    thread::scope(|s| {
        let workers: Vec<_> = dep
            .clients
            .iter_mut()
            .zip(pools)
            .enumerate()
            .map(|(c, (client, pool))| {
                let phase = &phase;
                s.spawn(move || {
                    sys::pin_to_cpu(c % cpus);
                    phase(client, pool, c)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .map_err(|_| "a load thread panicked".to_string())?
                    .map_err(|e| format!("load connection failed: {e}"))
            })
            .collect()
    })
}

/// One timed window of one phase, on every connection.
struct Window {
    runs: Vec<ConnRun>,
    /// Process CPU time used during the window, ns.
    cpu_ns: f64,
    /// Wall time the window took, s.
    secs: f64,
}

impl Window {
    fn answered(&self) -> u64 {
        self.runs.iter().map(ConnRun::answered).sum()
    }
}

/// Runs one window of `phase` on every connection, starting together.
fn timed_window(
    dep: &mut Deployment,
    pools: &[Pool],
    phase: impl Fn(&mut pl_serve::Client, &Pool, usize, Instant) -> std::io::Result<ConnRun> + Sync,
) -> Result<Window, String> {
    let cpu0 = sys::process_cpu();
    let start = Instant::now() + Duration::from_millis(2);
    let runs = on_all_connections(dep, pools, |client, pool, c| phase(client, pool, c, start))?;
    Ok(Window {
        runs,
        cpu_ns: (sys::process_cpu() - cpu0).as_nanos() as f64,
        secs: start.elapsed().as_secs_f64(),
    })
}

/// One open-loop window of `span`: connection `c` of `C` sends at `1/C`
/// of the workload rate, offset by `c/C` of a period.
fn open_window(
    dep: &mut Deployment,
    pools: &[Pool],
    w: &Workload,
    span: Duration,
) -> Result<Window, String> {
    let per_conn_batches = w.rate_qps / CONNECTIONS as f64 / w.batch as f64;
    timed_window(dep, pools, |client, pool, c, start| {
        let schedule = Schedule::new(per_conn_batches, c as f64 / CONNECTIONS as f64);
        load::open_loop(client, pool, w.batch, schedule, start, span)
    })
}

/// One closed-loop window of `span`.
fn closed_window(
    dep: &mut Deployment,
    pools: &[Pool],
    w: &Workload,
    span: Duration,
) -> Result<Window, String> {
    timed_window(dep, pools, |client, pool, _, start| {
        load::closed_loop(client, pool, w.batch, start + span)
    })
}

/// Exact latency order statistics of an open-loop phase: each quantile
/// is computed from every batch of a window, and the phase reports the
/// median over its windows.
struct Latency {
    p50_us: f64,
    p99_us: f64,
    samples: usize,
    beyond_p99: usize,
    lag_p99_us: f64,
}

fn latency(windows: &[Window]) -> Latency {
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut lag99 = Vec::new();
    let (mut samples, mut beyond_p99) = (0, 0);
    for w in windows {
        let mut lat: Vec<u64> = w
            .runs
            .iter()
            .flat_map(|r| r.latency_ns.iter().copied())
            .collect();
        let mut lag: Vec<u64> = w
            .runs
            .iter()
            .flat_map(|r| r.lag_ns.iter().copied())
            .collect();
        if lat.is_empty() {
            continue;
        }
        lat.sort_unstable();
        lag.sort_unstable();
        let q99 = quantile(&lat, 0.99);
        p50.push(quantile(&lat, 0.5) as f64 / 1e3);
        p99.push(q99 as f64 / 1e3);
        lag99.push(quantile(&lag, 0.99) as f64 / 1e3);
        samples += lat.len();
        beyond_p99 += count_above(&lat, q99);
    }
    Latency {
        p50_us: median(&p50),
        p99_us: median(&p99),
        samples,
        beyond_p99,
        lag_p99_us: median(&lag99),
    }
}

/// Closed-loop capacity: the median over windows of queries answered
/// per second.
fn closed_qps(windows: &[Window]) -> f64 {
    let per_window: Vec<f64> = windows
        .iter()
        .map(|win| ratio(win.answered() as f64, win.secs))
        .collect();
    median(&per_window)
}

/// The router counters the per-layer metrics read, summed over labels.
#[derive(Debug, Default, Clone, Copy)]
struct RouterCounters {
    queries: u64,
    batches: u64,
    failover: u64,
    fanout: u64,
    exhausted: u64,
    backend_ns_sum: u64,
    backend_ns_count: u64,
}

impl RouterCounters {
    fn read(dep: &Deployment) -> Self {
        let Servers::Cluster { router, .. } = &dep.servers else {
            return Self::default();
        };
        let reg: Arc<MetricsRegistry> = router.registry();
        let mut c = Self::default();
        for s in reg.samples() {
            match (s.name.as_str(), &s.value) {
                ("plcluster_queries_total", MetricValue::Counter(v)) => c.queries += v,
                ("plcluster_batches_total", MetricValue::Counter(v)) => c.batches += v,
                ("plcluster_failover_total", MetricValue::Counter(v)) => c.failover += v,
                ("plcluster_fanout_total", MetricValue::Counter(v)) => c.fanout += v,
                ("plcluster_exhausted_total", MetricValue::Counter(v)) => c.exhausted += v,
                ("plcluster_backend_ns", MetricValue::Histogram(h)) => {
                    c.backend_ns_sum += h.sum;
                    c.backend_ns_count += h.count();
                }
                _ => {}
            }
        }
        c
    }

    fn since(self, before: Self) -> Self {
        Self {
            queries: self.queries - before.queries,
            batches: self.batches - before.batches,
            failover: self.failover - before.failover,
            fanout: self.fanout - before.fanout,
            exhausted: self.exhausted - before.exhausted,
            backend_ns_sum: self.backend_ns_sum - before.backend_ns_sum,
            backend_ns_count: self.backend_ns_count - before.backend_ns_count,
        }
    }

    fn plus(self, other: Self) -> Self {
        Self {
            queries: self.queries + other.queries,
            batches: self.batches + other.batches,
            failover: self.failover + other.failover,
            fanout: self.fanout + other.fanout,
            exhausted: self.exhausted + other.exhausted,
            backend_ns_sum: self.backend_ns_sum + other.backend_ns_sum,
            backend_ns_count: self.backend_ns_count + other.backend_ns_count,
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let threads = thread::available_parallelism().map_or(1, usize::from);

    // Inputs, all from the seed.
    let mut rng = StdRng::seed_from_u64(args.seed);
    let g = pl_gen::chung_lu_power_law(N, ALPHA, AVG_DEGREE, &mut rng);
    let tau = PowerLawScheme::new(ALPHA).tau(N);
    let hot = vertices_by_degree_desc(&g);
    let pools: Vec<Pool> = (0..CONNECTIONS)
        .map(|c| Pool::generate(&g, &hot, w.endpoints, &mut rng_for(args.seed, c)))
        .collect();

    // Set-up, several times; the last deployment serves the run.
    let mut tally = Tally::default();
    let mut setups: Vec<SetupTimes> = Vec::with_capacity(SETUPS);
    let mut dep = None;
    for i in 0..SETUPS {
        let (d, times) = deploy::set_up(w, &g, tau, threads, args.seed, &pools)?;
        for (pool, run) in pools.iter().zip(&d.warmup) {
            tally.check(pool, run);
        }
        setups.push(times);
        if i + 1 < SETUPS {
            d.shut_down();
        } else {
            dep = Some(d);
        }
    }
    let mut dep = dep.expect("SETUPS is at least 1");
    // Warm-up answers count toward correctness, not toward the load.
    let warm_mismatches = tally.mismatches;
    let warm_failed = tally.failed;
    tally = Tally::default();
    let setup_med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    let total = Duration::from_secs_f64(args.seconds);
    let mut metrics: Vec<(&'static str, f64, &'static str)> = Vec::new();
    let mut info = format!(
        "# workload={} seed={} n={N} tau={tau} available_parallelism={threads} connections={CONNECTIONS} \
         batch={} open_rate_qps={} setups={SETUPS}",
        w.name, args.seed, w.batch, w.rate_qps
    );

    if args.trace {
        // Untraced open-loop, traced open-loop and closed-loop windows
        // alternate; the cache and router counters are read around the
        // untraced open-loop ones only.
        let span = total.mul_f64(0.35 / WINDOWS as f64);
        let closed_span = total.mul_f64(0.2 / WINDOWS as f64);
        let mut untraced = Vec::with_capacity(WINDOWS);
        let mut traced = Vec::with_capacity(WINDOWS);
        let mut closed = Vec::with_capacity(WINDOWS);
        let (mut hits, mut misses) = (0, 0);
        let mut router = RouterCounters::default();
        for _ in 0..WINDOWS {
            let cache0 = dep.cache_counts();
            let router0 = RouterCounters::read(&dep);
            untraced.push(open_window(&mut dep, &pools, w, span)?);
            let cache1 = dep.cache_counts();
            hits += cache1.0 - cache0.0;
            misses += cache1.1 - cache0.1;
            router = router.plus(RouterCounters::read(&dep).since(router0));
            pl_obs::set_tracing(true);
            let window = open_window(&mut dep, &pools, w, span);
            pl_obs::set_tracing(false);
            let _ = pl_obs::trace::drain_jsonl();
            traced.push(window?);
            closed.push(closed_window(&mut dep, &pools, w, closed_span)?);
        }
        let lat = latency(&untraced);
        let lat_traced = latency(&traced);
        let qps = closed_qps(&closed);
        for window in untraced.iter().chain(&traced).chain(&closed) {
            for (pool, run) in pools.iter().zip(&window.runs) {
                tally.check(pool, run);
            }
        }

        // Layer timings on a full store: the serving one, or for the
        // cluster one built (untimed) from the labeling the backends
        // were split from, with its own server for the single-hop
        // round trip.
        let (full_store, single, router_addr) = match &dep.servers {
            Servers::Single { store, .. } => (Arc::clone(store), None, None),
            Servers::Cluster { full, router, .. } => {
                let store = Arc::new(LabelStore::new(full.clone(), StoreConfig::default()));
                let server = pl_serve::serve(Arc::clone(&store), "127.0.0.1:0")
                    .map_err(|e| format!("binding the single-hop server: {e}"))?;
                (store, Some(server), Some(router.addr()))
            }
        };
        let single_addr = single.as_ref().map_or_else(|| dep.addr(), |s| s.addr());
        let costs = layers::measure(&full_store, &pools, w.batch);
        let rtt = layers::unloaded_rtt_ns(single_addr, &pools[0], w.batch)
            .map_err(|e| format!("single-hop round trips: {e}"))?;
        let (router_rtt, probe) = match router_addr {
            Some(addr) => (
                layers::unloaded_rtt_ns(addr, &pools[0], w.batch)
                    .map_err(|e| format!("router round trips: {e}"))?,
                Some(
                    layers::traced_probe(addr, pools[0].batch(0, w.batch))
                        .map_err(|e| format!("traced probe: {e}"))?,
                ),
            ),
            None => (0.0, None),
        };
        if let Some(s) = single {
            s.shutdown();
        }

        let batch = w.batch as f64;
        let store_batch = costs.store_ns * batch;
        let wire_batch = costs.wire_per_batch_ns();
        let residual = rtt - store_batch - wire_batch;
        let router_added = if router_addr.is_some() {
            router_rtt - rtt
        } else {
            0.0
        };
        let mut budget = format!(
            "# layer budget, ns per batch of {}: decode {:.0} -> store {:.0} -> +wire {:.0} \
             -> frontend rtt {rtt:.0} (unexplained residual {residual:.0})",
            w.batch,
            costs.decode_ns * batch,
            store_batch,
            store_batch + wire_batch,
        );
        if router_addr.is_some() {
            let _ = write!(
                budget,
                " -> router rtt {router_rtt:.0} (router added {router_added:.0})"
            );
        }
        println!("{budget}");
        if let Some(p) = &probe {
            println!(
                "# traced probe: router serve.batch {} ns, slowest backend serve.batch {} ns, \
                 hop {} ns vs router.added_ns {router_added:.0}",
                p.router_batch_ns,
                p.backend_batch_ns,
                p.hop_ns()
            );
            eprintln!("{}", p.explained);
        }
        let _ = write!(
            info,
            " open_samples={} beyond_p99={} traced_open_samples={}",
            lat.samples, lat.beyond_p99, lat_traced.samples
        );

        metrics.extend([
            ("labeling.decode_ns", costs.decode_ns, "ns"),
            ("labeling.fat_fat_share", costs.fat_fat_share, "ratio"),
            (
                "labeling.encode_ns_per_vertex",
                setup_med(|t| t.encode) * 1e9 / N as f64,
                "ns",
            ),
            ("store.ns_per_query", costs.store_ns, "ns"),
            ("store.ns_per_query_2t", costs.store_2t_ns, "ns"),
            (
                "store.over_decode_ns",
                costs.store_ns - costs.decode_ns,
                "ns",
            ),
            (
                "store.cache_hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
                "ratio",
            ),
            ("store.build_s", setup_med(|t| t.store_build), "s"),
            ("wire.req_encode_ns", costs.req_encode_ns, "ns"),
            ("wire.req_parse_ns", costs.req_parse_ns, "ns"),
            ("wire.reply_encode_ns", costs.reply_encode_ns, "ns"),
            ("wire.reply_parse_ns", costs.reply_parse_ns, "ns"),
            ("wire.bytes_per_query", costs.bytes_per_query, "bytes"),
            ("frontend.rtt_ns", rtt, "ns"),
            ("frontend.residual_ns", residual, "ns"),
            ("router.rtt_ns", router_rtt, "ns"),
            ("router.added_ns", router_added, "ns"),
            (
                "router.reask_ratio",
                ratio(router.failover as f64, router.queries as f64),
                "ratio",
            ),
            (
                "router.legs_per_batch",
                ratio(router.fanout as f64, router.batches as f64),
                "count",
            ),
            (
                "router.backend_ns_mean",
                ratio(router.backend_ns_sum as f64, router.backend_ns_count as f64),
                "ns",
            ),
            ("router.exhausted", router.exhausted as f64, "count"),
            (
                "router.trace_hop_ns",
                probe.as_ref().map_or(0.0, |p| p.hop_ns() as f64),
                "ns",
            ),
            ("setup.split_s", setup_med(|t| t.split), "s"),
            ("setup.bind_s", setup_med(|t| t.bind), "s"),
            ("setup.warmup_s", setup_med(|t| t.warmup), "s"),
            ("loadgen.open_p99_us", lat.p99_us, "us"),
            ("loadgen.closed_qps", qps, "1/s"),
            ("loadgen.send_lag_p99_us", lat.lag_p99_us, "us"),
            (
                "loadgen.fail_ratio",
                ratio(tally.failed as f64, tally.attempted as f64),
                "ratio",
            ),
            (
                "obs.trace_overhead_pct",
                ratio(lat_traced.p50_us - lat.p50_us, lat.p50_us) * 100.0,
                "%",
            ),
        ]);
    } else {
        // Open and closed windows alternate, so a stretch of time when
        // the machine is busy with other work lands in both phases
        // instead of in all of one.
        let open_span = total.mul_f64(0.55 / WINDOWS as f64);
        let closed_span = total.mul_f64(0.45 / WINDOWS as f64);
        let mut open = Vec::with_capacity(WINDOWS);
        let mut closed = Vec::with_capacity(WINDOWS);
        for _ in 0..WINDOWS {
            open.push(open_window(&mut dep, &pools, w, open_span)?);
            closed.push(closed_window(&mut dep, &pools, w, closed_span)?);
        }
        let lat = latency(&open);
        let cpu_per_query: Vec<f64> = open
            .iter()
            .map(|win| ratio(win.cpu_ns, win.answered() as f64))
            .collect();
        let qps_per_window: Vec<f64> = closed
            .iter()
            .map(|win| ratio(win.answered() as f64, win.secs))
            .collect();
        for window in open.iter().chain(&closed) {
            for (pool, run) in pools.iter().zip(&window.runs) {
                tally.check(pool, run);
            }
        }
        let qps = closed_qps(&closed);
        let per_window: Vec<Latency> = open
            .iter()
            .map(|win| latency(std::slice::from_ref(win)))
            .collect();
        eprintln!(
            "loadbench: per window: p50_us {:.1?} p99_us {:.0?} send_lag_p99_us {:.0?} \
             cpu_ns_per_query {:.0?} qps {:.0?}",
            per_window.iter().map(|l| l.p50_us).collect::<Vec<_>>(),
            per_window.iter().map(|l| l.p99_us).collect::<Vec<_>>(),
            per_window.iter().map(|l| l.lag_p99_us).collect::<Vec<_>>(),
            cpu_per_query,
            qps_per_window
        );
        if lat.beyond_p99 < 10 {
            eprintln!(
                "loadbench: only {} samples beyond p99; the p99 is not resolved",
                lat.beyond_p99
            );
        }
        let _ = write!(
            info,
            " open_samples={} beyond_p99={} p99_us={:.1} send_lag_p99_us={:.1} closed_qps={qps:.0}",
            lat.samples, lat.beyond_p99, lat.p99_us, lat.lag_p99_us
        );
        metrics.extend([
            ("p50_us", lat.p50_us, "us"),
            ("cpu_ns_per_query", median(&cpu_per_query), "ns"),
            (
                "answered_ratio",
                ratio(
                    (tally.attempted - tally.failed) as f64,
                    tally.attempted as f64,
                ),
                "ratio",
            ),
            ("setup_s", setup_med(SetupTimes::total), "s"),
            ("rss_mb", sys::peak_rss_mb(), "MiB"),
            ("label_bits_avg", dep.label_bits_avg, "bits"),
            ("label_bits_max", dep.label_bits_max as f64, "bits"),
        ]);
    }
    dep.shut_down();

    let _ = write!(
        info,
        " attempted={} failed={} fail_ratio={:.6} mismatches={} warmup_mismatches={warm_mismatches} \
         warmup_failed={warm_failed}",
        tally.attempted,
        tally.failed,
        ratio(tally.failed as f64, tally.attempted as f64),
        tally.mismatches
    );
    println!("{info}");
    let correct = tally.mismatches == 0 && warm_mismatches == 0 && tally.attempted > 0;
    if !correct {
        eprintln!(
            "loadbench: {} answers disagree with Graph::has_edge ({} in warm-up)",
            tally.mismatches + warm_mismatches,
            warm_mismatches
        );
    }
    Ok(Report {
        correct,
        tally,
        metrics,
    })
}

/// The query stream of load connection `c`, independent of the graph's
/// random stream.
fn rng_for(seed: u64, c: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(c as u64 + 1))
}
