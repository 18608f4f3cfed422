//! E23 — distributed-tracing overhead audit, emitting `BENCH_trace.json`.
//!
//! Protocol v5 added the `TRACE_CTX` extension trailer on `BATCH` and
//! context adoption in the front-end. The contract is that the
//! *untraced* path stays free: a v5 session carrying no context must
//! encode, parse, and serve within ~5% of the pre-v5 code path. That
//! is the gated number; the cost of actually shipping and recording a
//! context is reported alongside as an informative row.
//!
//! Three workloads:
//!
//! * `wire.encode` — `encode_batch` (pre-v5) vs `encode_batch_ctx`
//!   with no context on a v5 session (the gate) vs with a context
//!   (informative: +25 trailer bytes).
//! * `wire.parse` — `parse_batch` vs `parse_batch_ctx` on the same
//!   bodies, same three modes.
//! * `serve.tcp` — a real client/server batch loop: a v4 session
//!   (pre-v5 parse path) vs a v5 session without context (the gate)
//!   vs a v5 session with context and tracing on (informative: ring
//!   pushes on every span).
//!
//! Each gated mode is the *minimum* of three interleaved runs — on a
//! loaded CI box the min is far more noise-robust than the mean, and
//! the gate compares two hot in-process loops, so the min is fair.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use pl_bench::{banner, f1, quick_mode, rng, Table};
use pl_labeling::threshold::encode_with_stats_threads;
use pl_labeling::PowerLawScheme;
use pl_obs::TraceContext;
use pl_serve::{Client, LabelStore, Query, SchemeTag, StoreConfig, TaggedLabeling};
use pl_wire::protocol::{encode_batch, encode_batch_ctx, parse_batch, parse_batch_ctx};
use rand::Rng;

struct Row {
    workload: &'static str,
    mode: &'static str,
    ns_per_op: f64,
    /// Percent vs the workload's baseline mode; 0 for the baseline row.
    overhead_pct: f64,
    /// Whether the 5% ceiling applies to this row (untraced-path modes).
    gated: bool,
}

/// Times every mode `reps` times in *interleaved* rounds and returns
/// the per-mode minimum. Interleaving matters: timing mode A's reps
/// back-to-back and then mode B's hands whichever ran later a warmer
/// (or thermally throttled) machine, and the "overhead" column would
/// measure CPU frequency drift instead of code.
fn race(reps: usize, iters: usize, modes: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; modes.len()];
    for rep in 0..reps {
        // Rotate the order each round so no mode always runs first (or
        // always runs right after another's cache-warming).
        for k in 0..modes.len() {
            let i = (rep + k) % modes.len();
            let start = Instant::now();
            for _ in 0..iters {
                modes[i]();
            }
            best[i] = best[i].min(start.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    best
}

fn wire_rows(iters: usize, rows: &mut Vec<Row>) {
    let mut q_rng = rng(0xE23);
    // A large batch so each timed iteration is microseconds, not
    // nanoseconds: the 25-byte trailer's cost is per-batch, and the
    // gate asks about per-query overhead on realistic batch sizes.
    let queries: Vec<Query> = (0..512)
        .map(|_| Query::adjacent(q_rng.gen_range(0..100_000), q_rng.gen_range(0..100_000)))
        .collect();
    let ctx = TraceContext {
        trace_hi: 0x1234_5678_9ABC_DEF0,
        trace_lo: 0x0FED_CBA9_8765_4321,
        parent_span: 99,
    };

    // Encode: plain vs v5-no-ctx (gate) vs v5-with-ctx.
    let timings = race(
        11,
        iters,
        &mut [
            &mut || {
                std::hint::black_box(encode_batch(&queries).expect("encode"));
            },
            &mut || {
                std::hint::black_box(encode_batch_ctx(&queries, None, 5).expect("encode"));
            },
            &mut || {
                std::hint::black_box(encode_batch_ctx(&queries, Some(&ctx), 5).expect("encode"));
            },
        ],
    );
    let (plain, gate, with_ctx) = (timings[0], timings[1], timings[2]);
    let pct = |x: f64, base: f64| (x - base) / base * 100.0;
    rows.push(Row {
        workload: "wire.encode",
        mode: "pre-v5",
        ns_per_op: plain,
        overhead_pct: 0.0,
        gated: false,
    });
    rows.push(Row {
        workload: "wire.encode",
        mode: "v5-no-ctx",
        ns_per_op: gate,
        overhead_pct: pct(gate, plain),
        gated: true,
    });
    rows.push(Row {
        workload: "wire.encode",
        mode: "v5-ctx",
        ns_per_op: with_ctx,
        overhead_pct: pct(with_ctx, plain),
        gated: false,
    });

    // Parse: same three modes over the matching bodies.
    let bare = encode_batch(&queries).expect("encode");
    let traced = encode_batch_ctx(&queries, Some(&ctx), 5).expect("encode");
    let timings = race(
        11,
        iters,
        &mut [
            &mut || {
                std::hint::black_box(parse_batch(&bare).expect("parse"));
            },
            &mut || {
                std::hint::black_box(parse_batch_ctx(&bare, 5).expect("parse"));
            },
            &mut || {
                std::hint::black_box(parse_batch_ctx(&traced, 5).expect("parse"));
            },
        ],
    );
    let (plain, gate, with_ctx) = (timings[0], timings[1], timings[2]);
    rows.push(Row {
        workload: "wire.parse",
        mode: "pre-v5",
        ns_per_op: plain,
        overhead_pct: 0.0,
        gated: false,
    });
    rows.push(Row {
        workload: "wire.parse",
        mode: "v5-no-ctx",
        ns_per_op: gate,
        overhead_pct: pct(gate, plain),
        gated: true,
    });
    rows.push(Row {
        workload: "wire.parse",
        mode: "v5-ctx",
        ns_per_op: with_ctx,
        overhead_pct: pct(with_ctx, plain),
        gated: false,
    });
}

fn serve_rows(n: usize, batches: usize, rows: &mut Vec<Row>) {
    let mut g_rng = rng(0xE23 ^ 0x5E);
    let g = pl_gen::chung_lu_power_law(n, 2.5, 5.0, &mut g_rng);
    let tau = PowerLawScheme::new(2.5).tau(n);
    let store = Arc::new(LabelStore::new(
        TaggedLabeling {
            tag: SchemeTag::Threshold,
            labeling: encode_with_stats_threads(&g, tau, 1).0,
        },
        StoreConfig::default(),
    ));
    let handle = pl_serve::serve(store, "127.0.0.1:0").expect("bind");
    let mut q_rng = rng(0xE23 ^ 0xDEC);
    let queries: Vec<Query> = (0..64)
        .map(|_| Query::adjacent(q_rng.gen_range(0..n as u32), q_rng.gen_range(0..n as u32)))
        .collect();

    // ns per *query*, three sessions timed in interleaved rounds (see
    // [`race`]): v4, v5 without context, v5 traced.
    let mut clients = [
        Client::connect_version(handle.addr(), 4).expect("connect v4"),
        Client::connect_version(handle.addr(), 5).expect("connect v5"),
        Client::connect_version(handle.addr(), 5).expect("connect v5 traced"),
    ];
    let ctxs: [Option<TraceContext>; 3] = [None, None, Some(TraceContext::root())];
    let mut best = [f64::INFINITY; 3];
    pl_obs::set_tracing(false);
    for _ in 0..9 {
        for i in 0..3 {
            pl_obs::set_tracing(i == 2);
            // Warm-up quarter-run, then the measured run.
            for _ in 0..batches / 4 {
                clients[i]
                    .batch_ctx(&queries, ctxs[i].as_ref())
                    .expect("batch");
            }
            let start = Instant::now();
            for _ in 0..batches {
                clients[i]
                    .batch_ctx(&queries, ctxs[i].as_ref())
                    .expect("batch");
            }
            best[i] =
                best[i].min(start.elapsed().as_nanos() as f64 / (batches * queries.len()) as f64);
            pl_obs::set_tracing(false);
            let _ = pl_obs::trace::drain_jsonl();
        }
    }
    for c in clients {
        c.goodbye().ok();
    }
    let (v4, gate, traced) = (best[0], best[1], best[2]);
    handle.shutdown();

    rows.push(Row {
        workload: "serve.tcp",
        mode: "v4",
        ns_per_op: v4,
        overhead_pct: 0.0,
        gated: false,
    });
    rows.push(Row {
        workload: "serve.tcp",
        mode: "v5-no-ctx",
        ns_per_op: gate,
        overhead_pct: (gate - v4) / v4 * 100.0,
        gated: true,
    });
    rows.push(Row {
        workload: "serve.tcp",
        mode: "v5-traced",
        ns_per_op: traced,
        overhead_pct: (traced - v4) / v4 * 100.0,
        gated: false,
    });
}

fn main() {
    banner("E23", "trace-context propagation overhead (protocol v5)");
    let out_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--out")
            .and_then(|i| args.get(i + 1).cloned())
            .unwrap_or_else(|| "BENCH_trace.json".to_string())
    };
    let (wire_iters, n, batches) = if quick_mode() {
        (5_000, 5_000, 100)
    } else {
        (25_000, 20_000, 400)
    };

    let mut rows = Vec::new();
    wire_rows(wire_iters, &mut rows);
    serve_rows(n, batches, &mut rows);

    let mut table = Table::new(&["workload", "mode", "ns/op", "overhead %", "status"]);
    for r in &rows {
        let status = if !r.gated {
            "info"
        } else if r.overhead_pct <= 5.0 {
            "ok"
        } else {
            "HIGH"
        };
        table.row(vec![
            r.workload.to_string(),
            r.mode.to_string(),
            f1(r.ns_per_op),
            f1(r.overhead_pct),
            status.to_string(),
        ]);
    }
    table.print();
    let worst_gated = rows
        .iter()
        .filter(|r| r.gated)
        .map(|r| r.overhead_pct)
        .fold(0.0f64, f64::max);
    println!("\nworst untraced-path overhead: {worst_gated:.1}% (target < 5%)");

    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        writeln!(
            json,
            "  {{\"workload\": \"{}\", \"mode\": \"{}\", \"ns_per_op\": {:.1}, \"overhead_pct\": {:.1}, \"gated\": {}}}{sep}",
            r.workload, r.mode, r.ns_per_op, r.overhead_pct, r.gated
        )
        .expect("write to String");
    }
    json.push_str("]\n");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    println!("\nwrote {out_path}");
}
