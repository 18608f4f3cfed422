//! Query streams and the two load shapes that replay them.
//!
//! Each connection replays its own [`Pool`]: a fixed query sequence
//! generated from the seed before anything is timed, together with the
//! answer `Graph::has_edge` gives for each query. Generating up front
//! keeps the sampler's cost off the generator threads (which share the
//! machine's cores with the servers), and makes checking trivial: the
//! `k`-th answer a connection receives in a phase belongs to query
//! `k mod len` of its pool.

use std::io;
use std::thread;
use std::time::{Duration, Instant};

use pl_graph::Graph;
use pl_serve::Client;
use pl_wire::{Answer, Query};
use rand::rngs::StdRng;
use rand::Rng;

use crate::stats::Schedule;
use crate::sys;

/// Queries in each connection's pool: a multiple of every batch size,
/// large enough that a batch sequence does not repeat within a
/// warm-up.
pub const POOL_LEN: usize = 1 << 18;

/// How a query's endpoints are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Endpoints {
    /// Both endpoints uniform over all vertices.
    Uniform,
    /// Both endpoints Zipf(s) over vertex ranks, rank 0 being the
    /// highest-degree vertex.
    Zipf(f64),
}

/// One connection's fixed query sequence and its ground truth.
pub struct Pool {
    queries: Vec<Query>,
    expected: Vec<bool>,
}

impl Pool {
    /// Draws [`POOL_LEN`] adjacency queries and looks up each true
    /// answer in `g`. `hot_order` lists vertices by rank for Zipf draws.
    #[must_use]
    pub fn generate(g: &Graph, hot_order: &[u32], endpoints: Endpoints, rng: &mut StdRng) -> Self {
        let n = g.vertex_count() as u32;
        let cdf: Vec<f64> = match endpoints {
            Endpoints::Uniform => Vec::new(),
            Endpoints::Zipf(s) => {
                let weights: Vec<f64> = (0..n).map(|r| (f64::from(r) + 1.0).powf(-s)).collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                weights
                    .iter()
                    .map(|w| {
                        acc += w / total;
                        acc
                    })
                    .collect()
            }
        };
        let draw = |rng: &mut StdRng| -> u32 {
            if cdf.is_empty() {
                return rng.gen_range(0..n);
            }
            let x: f64 = rng.gen();
            let rank = cdf.partition_point(|&c| c < x).min(n as usize - 1);
            hot_order[rank]
        };
        let queries: Vec<Query> = (0..POOL_LEN)
            .map(|_| {
                let u = draw(rng);
                Query::adjacent(u, draw(rng))
            })
            .collect();
        let expected = queries.iter().map(|q| g.has_edge(q.u, q.v)).collect();
        Self { queries, expected }
    }

    /// The `i`-th batch of `batch` queries, wrapping around the pool.
    #[must_use]
    pub fn batch(&self, i: usize, batch: usize) -> &[Query] {
        let start = (i * batch) % POOL_LEN;
        &self.queries[start..start + batch]
    }

    /// The first `len` queries as `(u, v)` pairs, for the per-layer
    /// timings that call the store directly.
    #[must_use]
    pub fn pairs(&self, len: usize) -> Vec<(u32, u32)> {
        self.queries[..len].iter().map(|q| (q.u, q.v)).collect()
    }

    /// The first `len` queries.
    #[must_use]
    pub fn head(&self, len: usize) -> &[Query] {
        &self.queries[..len]
    }
}

/// What one connection saw in one phase.
///
/// Answers are kept one bit each (set = adjacent), so that what the
/// benchmark records stays small next to what the serving stack holds
/// and the peak-RSS figure describes the stack.
#[derive(Debug, Default)]
pub struct ConnRun {
    /// Queries sent.
    sent: u64,
    /// Bit `k` set: the `k`-th query was answered "adjacent".
    adjacent: Vec<u64>,
    /// Indices of queries answered with anything but a yes or a no
    /// (overloaded, not owned, …).
    non_answers: Vec<u64>,
    /// Per batch (open loop only): reply time minus the time the batch
    /// was due, ns.
    pub latency_ns: Vec<u64>,
    /// Per batch (open loop only): actual send time minus due time, ns.
    pub lag_ns: Vec<u64>,
    /// Queries scheduled but never sent because the phase overran.
    pub unsent: u64,
}

impl ConnRun {
    fn record(&mut self, answers: &[Answer]) {
        for a in answers {
            let k = self.sent;
            if k.is_multiple_of(64) {
                self.adjacent.push(0);
            }
            match a {
                Answer::Adjacent => {
                    if let Some(word) = self.adjacent.last_mut() {
                        *word |= 1 << (k % 64);
                    }
                }
                Answer::NotAdjacent => {}
                _ => self.non_answers.push(k),
            }
            self.sent += 1;
        }
    }

    /// Queries answered with a yes or a no.
    #[must_use]
    pub fn answered(&self) -> u64 {
        self.sent - self.non_answers.len() as u64
    }
}

/// Attempted, failed and wrong queries, summed over connections and
/// phases.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
}

impl Tally {
    /// Checks every recorded answer of `run` against the pool's ground
    /// truth. Runs after the timed window.
    pub fn check(&mut self, pool: &Pool, run: &ConnRun) {
        self.attempted += run.sent + run.unsent;
        self.failed += run.unsent + run.non_answers.len() as u64;
        let mut non_answers = run.non_answers.iter().peekable();
        for k in 0..run.sent {
            if non_answers.next_if_eq(&&k).is_some() {
                continue;
            }
            let got = run.adjacent[(k / 64) as usize] >> (k % 64) & 1 == 1;
            if got != pool.expected[k as usize % POOL_LEN] {
                self.mismatches += 1;
            }
        }
    }
}

/// Sends `pool`'s batches on `schedule` for `window` after `start`,
/// timing each batch from when it was due. A generator that falls
/// behind sends late batches back to back, and their wait counts in
/// their latency. Sends still pending a whole window after the phase
/// should have ended are abandoned and counted as unsent.
pub fn open_loop(
    client: &mut Client,
    pool: &Pool,
    batch: usize,
    schedule: Schedule,
    start: Instant,
    window: Duration,
) -> io::Result<ConnRun> {
    sys::tighten_timer_slack();
    let window_ns = window.as_nanos() as u64;
    let total = schedule.sends_within(window_ns);
    let give_up = start + 2 * window;
    let mut run = ConnRun {
        latency_ns: Vec::with_capacity(total as usize),
        lag_ns: Vec::with_capacity(total as usize),
        ..ConnRun::default()
    };
    for i in 0..total {
        let due = start + Duration::from_nanos(schedule.due_ns(i));
        let now = Instant::now();
        if now > give_up {
            run.unsent = (total - i) * batch as u64;
            break;
        }
        if due > now {
            thread::sleep(due - now);
        }
        let sent = Instant::now();
        let answers = client.batch(pool.batch(i as usize, batch))?;
        let done = Instant::now();
        run.lag_ns
            .push(sent.saturating_duration_since(due).as_nanos() as u64);
        run.latency_ns
            .push(done.saturating_duration_since(due).as_nanos() as u64);
        run.record(&answers);
    }
    Ok(run)
}

/// Sends `pool`'s batches back to back, each as soon as the previous
/// reply arrives, until `end`.
pub fn closed_loop(
    client: &mut Client,
    pool: &Pool,
    batch: usize,
    end: Instant,
) -> io::Result<ConnRun> {
    let mut run = ConnRun::default();
    let mut i = 0;
    loop {
        if Instant::now() >= end {
            return Ok(run);
        }
        let answers = client.batch(pool.batch(i, batch))?;
        run.record(&answers);
        i += 1;
    }
}

/// Sends the first `batches` batches of `pool` back to back (the
/// untimed warm-up).
pub fn warm_up(
    client: &mut Client,
    pool: &Pool,
    batch: usize,
    batches: usize,
) -> io::Result<ConnRun> {
    let mut run = ConnRun::default();
    for i in 0..batches {
        let answers = client.batch(pool.batch(i, batch))?;
        run.record(&answers);
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(expected: &[bool]) -> Pool {
        let queries = (0..POOL_LEN as u32)
            .map(|i| Query::adjacent(i, i + 1))
            .collect();
        let expected = (0..POOL_LEN)
            .map(|k| expected[k % expected.len()])
            .collect();
        Pool { queries, expected }
    }

    #[test]
    fn check_counts_wrong_and_missing_answers() {
        let p = pool(&[true, false, false]);
        let mut run = ConnRun::default();
        // 130 answers spanning three bitset words, all correct ...
        let answers: Vec<Answer> = (0..130)
            .map(|k| {
                if k % 3 == 0 {
                    Answer::Adjacent
                } else {
                    Answer::NotAdjacent
                }
            })
            .collect();
        run.record(&answers);
        let mut t = Tally::default();
        t.check(&p, &run);
        assert_eq!((t.attempted, t.failed, t.mismatches), (130, 0, 0));
        assert_eq!(run.answered(), 130);

        // ... then one wrong answer, one overload, and two unsent.
        run.record(&[Answer::Adjacent, Answer::Overloaded]);
        run.unsent = 2;
        let mut t = Tally::default();
        t.check(&p, &run);
        // Query 130 expects `false` (130 % 3 == 1); query 131 was shed.
        assert_eq!((t.attempted, t.failed, t.mismatches), (134, 3, 1));
        assert_eq!(run.answered(), 131);
    }

    #[test]
    fn batches_wrap_around_the_pool() {
        let p = pool(&[false]);
        assert_eq!(p.batch(0, 64)[0].u, 0);
        assert_eq!(p.batch(POOL_LEN / 64, 64)[0].u, 0);
        assert_eq!(p.batch(POOL_LEN / 64 - 1, 64)[63].u, POOL_LEN as u32 - 1);
    }
}
