//! Per-layer costs for the traced run, each timed from outside the layer
//! by calling its public functions on the workload's own queries:
//!
//! * labeling — `ThresholdDecoder::adjacent` on two `LabelRef`s;
//! * store — `LabelStore::adjacent_batch_traced`, alone and with a
//!   second thread on the same store;
//! * wire — the four codec calls one batch round trip makes;
//! * front-end and router — unloaded round trips through
//!   `pl_serve::Client`, plus one traced probe through the router whose
//!   merged trace is decomposed per hop.
//!
//! Every figure is the median of several repetitions.

use std::hint::black_box;
use std::io;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::thread;
use std::time::Instant;

use pl_labeling::scheme::AdjacencyDecoder;
use pl_labeling::threshold::ThresholdDecoder;
use pl_obs::TraceContext;
use pl_serve::{Client, LabelStore, QueryPath};
use pl_wire::protocol::{
    encode_batch_ctx, encode_batch_reply_into, parse_batch_ctx, parse_batch_reply, VERSION,
};
use pl_wire::{Answer, Query};

use crate::load::Pool;
use crate::stats::{median, quantile};

/// Queries per timed repetition.
const SAMPLE: usize = 1 << 15;
/// Repetitions behind each median.
const REPS: usize = 7;
/// Batches behind each unloaded round-trip median.
const RTT_BATCHES: usize = 2_000;
/// Parent span id the traced probe claims, to find the router's batch
/// span in the merged dump.
const PROBE_PARENT: u64 = 7;

/// In-process layer costs on one workload's queries.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCosts {
    /// `ThresholdDecoder::adjacent` per query, ns.
    pub decode_ns: f64,
    /// Share of queries with both endpoints fat.
    pub fat_fat_share: f64,
    /// `adjacent_batch_traced` per query, one thread, ns.
    pub store_ns: f64,
    /// The same with two threads on one store, per query per thread, ns.
    pub store_2t_ns: f64,
    /// Codec calls per batch, ns.
    pub req_encode_ns: f64,
    pub req_parse_ns: f64,
    pub reply_encode_ns: f64,
    pub reply_parse_ns: f64,
    /// Request plus reply frame bytes (with length headers) per query.
    pub bytes_per_query: f64,
}

impl LayerCosts {
    /// The four codec calls of one batch round trip, ns.
    #[must_use]
    pub fn wire_per_batch_ns(&self) -> f64 {
        self.req_encode_ns + self.req_parse_ns + self.reply_encode_ns + self.reply_parse_ns
    }
}

/// Median over [`REPS`] runs of `f`, in ns per op for `ops` ops a run.
fn per_op_ns(ops: usize, mut f: impl FnMut()) -> f64 {
    let runs: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&runs)
}

fn store_pass(store: &LabelStore, pairs: &[(u32, u32)], batch: usize) {
    let mut out = Vec::with_capacity(batch);
    for chunk in pairs.chunks(batch) {
        store.adjacent_batch_traced(chunk, &mut out);
        black_box(&out);
    }
}

/// Times the labeling, store and wire layers on a full store.
#[must_use]
pub fn measure(store: &LabelStore, pools: &[Pool], batch: usize) -> LayerCosts {
    let pairs = pools[0].pairs(SAMPLE);
    let mut costs = LayerCosts::default();

    let labels: Vec<_> = pairs
        .iter()
        .map(|&(u, v)| {
            (
                store.label(u).expect("pool vertex in range"),
                store.label(v).expect("pool vertex in range"),
            )
        })
        .collect();
    costs.decode_ns = per_op_ns(SAMPLE, || {
        for &(a, b) in &labels {
            black_box(ThresholdDecoder.adjacent(a, b));
        }
    });

    let mut out = Vec::new();
    store.adjacent_batch_traced(&pairs, &mut out);
    let fat_fat = out
        .iter()
        .filter(|o| matches!(o.result, Ok((_, QueryPath::FatFat { .. }))))
        .count();
    costs.fat_fat_share = fat_fat as f64 / SAMPLE as f64;

    costs.store_ns = per_op_ns(SAMPLE, || store_pass(store, &pairs, batch));
    let other = pools[1 % pools.len()].pairs(SAMPLE);
    let barrier = Barrier::new(2);
    costs.store_2t_ns = thread::scope(|s| {
        let threads: Vec<_> = [&pairs, &other]
            .into_iter()
            .map(|p| {
                let barrier = &barrier;
                s.spawn(move || {
                    let runs: Vec<f64> = (0..REPS)
                        .map(|_| {
                            barrier.wait();
                            let t = Instant::now();
                            store_pass(store, p, batch);
                            t.elapsed().as_nanos() as f64 / SAMPLE as f64
                        })
                        .collect();
                    median(&runs)
                })
            })
            .collect();
        let per_thread: Vec<f64> = threads
            .into_iter()
            .map(|t| t.join().expect("store timing thread panicked"))
            .collect();
        per_thread.iter().sum::<f64>() / per_thread.len() as f64
    });

    let chunks: Vec<&[Query]> = pools[0].head(SAMPLE).chunks(batch).collect();
    let batches = chunks.len();
    let bodies: Vec<Vec<u8>> = chunks
        .iter()
        .map(|c| encode_batch_ctx(c, None, VERSION).expect("batch within protocol limits"))
        .collect();
    let answers: Vec<Vec<Answer>> = chunks
        .iter()
        .map(|c| {
            c.iter()
                .map(|q| match store.adjacent(q.u, q.v) {
                    Ok(true) => Answer::Adjacent,
                    _ => Answer::NotAdjacent,
                })
                .collect()
        })
        .collect();
    let replies: Vec<Vec<u8>> = answers
        .iter()
        .map(|a| {
            let mut b = Vec::new();
            encode_batch_reply_into(a, VERSION, &mut b);
            b
        })
        .collect();
    costs.req_encode_ns = per_op_ns(batches, || {
        for c in &chunks {
            black_box(encode_batch_ctx(c, None, VERSION).expect("batch within protocol limits"));
        }
    });
    costs.req_parse_ns = per_op_ns(batches, || {
        for b in &bodies {
            black_box(parse_batch_ctx(b, VERSION).expect("well-formed batch"));
        }
    });
    let mut buf = Vec::new();
    costs.reply_encode_ns = per_op_ns(batches, || {
        for a in &answers {
            encode_batch_reply_into(a, VERSION, &mut buf);
            black_box(&buf);
        }
    });
    costs.reply_parse_ns = per_op_ns(batches, || {
        for r in &replies {
            black_box(parse_batch_reply(r, VERSION).expect("well-formed reply"));
        }
    });
    let frame_bytes: usize = bodies
        .iter()
        .zip(&replies)
        .map(|(q, a)| 4 + q.len() + 4 + a.len())
        .sum();
    costs.bytes_per_query = frame_bytes as f64 / SAMPLE as f64;
    costs
}

/// Median round trip of one batch on a fresh, otherwise idle connection
/// to `addr`, ns.
pub fn unloaded_rtt_ns(addr: SocketAddr, pool: &Pool, batch: usize) -> io::Result<f64> {
    let mut client = Client::connect(addr)?;
    for i in 0..RTT_BATCHES / 10 {
        client.batch(pool.batch(i, batch))?;
    }
    let mut rtts = Vec::with_capacity(RTT_BATCHES);
    for i in 0..RTT_BATCHES {
        let t = Instant::now();
        client.batch(pool.batch(i, batch))?;
        rtts.push(t.elapsed().as_nanos() as u64);
    }
    let _ = client.goodbye();
    rtts.sort_unstable();
    Ok(quantile(&rtts, 0.5) as f64)
}

/// One traced batch through the router, decomposed from the router's
/// merged trace dump.
#[derive(Debug, Default)]
pub struct Probe {
    /// The router's own `serve.batch` span, ns.
    pub router_batch_ns: u64,
    /// The slowest backend `serve.batch` span of the same trace, ns.
    pub backend_batch_ns: u64,
    /// `pl_cluster::explain_trace`'s rendering of the trace.
    pub explained: String,
}

impl Probe {
    /// What the router hop added on top of the slowest backend, ns.
    #[must_use]
    pub fn hop_ns(&self) -> u64 {
        self.router_batch_ns.saturating_sub(self.backend_batch_ns)
    }
}

/// Sends `queries` through the router with a trace context, fetches the
/// router's merged cluster trace and decomposes it. The probe's upward
/// connection first sends `queries` untraced a few times, so the router
/// has dialed its backend legs before the traced batch. Tracing is on
/// only for the probe.
pub fn traced_probe(router: SocketAddr, queries: &[Query]) -> io::Result<Probe> {
    let mut client = Client::connect(router)?;
    for _ in 0..RTT_BATCHES / 100 {
        client.batch(queries)?;
    }
    let _ = pl_obs::trace::drain_jsonl();
    pl_obs::set_tracing(true);
    let ctx = TraceContext {
        parent_span: PROBE_PARENT,
        ..TraceContext::root()
    };
    let sent = client.batch_ctx(queries, Some(&ctx));
    let dump = client.trace_dump();
    pl_obs::set_tracing(false);
    let _ = client.goodbye();
    sent?;
    let jsonl = dump?;
    let hex = ctx.trace_hex();
    let lines: Vec<_> = pl_cluster::trace_merge::parse_stream(&jsonl, "router")
        .into_iter()
        .filter(|l| l.trace == hex && l.name == "serve.batch")
        .collect();
    let router_batch_ns = lines
        .iter()
        .filter(|l| l.parent == PROBE_PARENT)
        .map(|l| l.dur_ns)
        .max()
        .unwrap_or(0);
    let backend_batch_ns = lines
        .iter()
        .filter(|l| l.parent != PROBE_PARENT)
        .map(|l| l.dur_ns)
        .max()
        .unwrap_or(0);
    Ok(Probe {
        router_batch_ns,
        backend_batch_ns,
        explained: pl_cluster::explain_trace(&jsonl, &hex).unwrap_or_default(),
    })
}
