//! Front-end metrics, built on the [`pl_obs`] metrics registry and
//! shared by every consumer of the wire front-end (single-node server
//! and cluster router alike).
//!
//! Every instrument is an `Arc` handed out by a
//! [`MetricsRegistry`] — counters under `plserve_*_total`, the query
//! latency under `plserve_query_latency_ns` — so the same numbers that
//! feed the binary `STATS` reply are scrapeable as Prometheus text from
//! the exposition sidecar. The hot query path still pays only a handful
//! of uncontended relaxed fetch-adds. [`LatencyHistogram`] is
//! [`pl_obs::Histogram`]: 64 power-of-two nanosecond buckets plus exact
//! sum/min/max.

use std::sync::Arc;
use std::time::Instant;

use pl_obs::registry::{Counter, Gauge};
use pl_obs::MetricsRegistry;

/// Power-of-two latency histogram (see [`pl_obs::Histogram`]).
pub type LatencyHistogram = pl_obs::Histogram;

/// The server's counters, registered in a [`MetricsRegistry`]. One
/// instance is shared (via `Arc`d instruments) by every connection
/// thread.
#[derive(Debug)]
pub struct Metrics {
    /// Adjacency queries answered (`plserve_adj_queries_total`).
    pub adj_queries: Arc<Counter>,
    /// Distance queries answered (`plserve_dist_queries_total`).
    pub dist_queries: Arc<Counter>,
    /// Batch frames processed (`plserve_batches_total`).
    pub batches: Arc<Counter>,
    /// Connections accepted (`plserve_connections_total`).
    pub connections: Arc<Counter>,
    /// Bytes read off sockets (`plserve_bytes_in_total`).
    pub bytes_in: Arc<Counter>,
    /// Bytes written to sockets (`plserve_bytes_out_total`).
    pub bytes_out: Arc<Counter>,
    /// Malformed frames rejected (`plserve_protocol_errors_total`).
    pub protocol_errors: Arc<Counter>,
    /// Queries at or over the slow-query threshold
    /// (`plserve_slow_queries_total`).
    pub slow_queries: Arc<Counter>,
    /// Connections refused at the cap with an `OVERLOADED` frame
    /// (`plserve_shed_total`).
    pub shed: Arc<Counter>,
    /// Idle connections reaped by the server (`plserve_idle_reaped_total`).
    pub idle_reaped: Arc<Counter>,
    /// Connections closed for stalling mid-frame past the read deadline
    /// (`plserve_deadline_closes_total`).
    pub deadline_closes: Arc<Counter>,
    /// Currently open connections (`plserve_open_conns`).
    pub open_conns: Arc<Gauge>,
    /// Per-query decode latency (`plserve_query_latency_ns`).
    pub query_latency: Arc<LatencyHistogram>,
}

impl Metrics {
    /// Registers every instrument in `registry`.
    #[must_use]
    pub fn new(registry: &MetricsRegistry) -> Self {
        Self {
            adj_queries: registry.counter("plserve_adj_queries_total"),
            dist_queries: registry.counter("plserve_dist_queries_total"),
            batches: registry.counter("plserve_batches_total"),
            connections: registry.counter("plserve_connections_total"),
            bytes_in: registry.counter("plserve_bytes_in_total"),
            bytes_out: registry.counter("plserve_bytes_out_total"),
            protocol_errors: registry.counter("plserve_protocol_errors_total"),
            slow_queries: registry.counter("plserve_slow_queries_total"),
            shed: registry.counter("plserve_shed_total"),
            idle_reaped: registry.counter("plserve_idle_reaped_total"),
            deadline_closes: registry.counter("plserve_deadline_closes_total"),
            open_conns: registry.gauge("plserve_open_conns"),
            query_latency: registry.histogram("plserve_query_latency_ns"),
        }
    }

    /// Immutable snapshot of all counters; `elapsed` is measured against
    /// `started` for the QPS figure, `faults_injected` is the fault
    /// harness's total (0 when no plan is active). The reserved cache
    /// words are 0 and the shard array is empty.
    #[must_use]
    pub fn snapshot(&self, started: Instant, faults_injected: u64) -> Snapshot {
        let adj = self.adj_queries.get();
        let dist = self.dist_queries.get();
        let secs = started.elapsed().as_secs_f64().max(1e-9);
        let lat = self.query_latency.snapshot();
        Snapshot {
            adj_queries: adj,
            dist_queries: dist,
            batches: self.batches.get(),
            connections: self.connections.get(),
            cache_hits: 0,
            cache_misses: 0,
            bytes_in: self.bytes_in.get(),
            bytes_out: self.bytes_out.get(),
            protocol_errors: self.protocol_errors.get(),
            p50_ns: lat.quantile_ns(0.50),
            p90_ns: lat.quantile_ns(0.90),
            p99_ns: lat.quantile_ns(0.99),
            p999_ns: lat.quantile_ns(0.999),
            min_ns: lat.min,
            max_ns: lat.max,
            qps_milli: (((adj + dist) as f64 / secs) * 1000.0) as u64,
            slow_queries: self.slow_queries.get(),
            shard_cache: Vec::new(),
            faults_injected,
            shed: self.shed.get(),
            open_conns: self.open_conns.get().max(0) as u64,
        }
    }
}

/// Number of fixed `u64` fields in the version-1 `STATS` wire layout.
const V1_FIELDS: usize = 12;

/// Number of fixed `u64` fields in the version-2 layout, before the
/// per-shard pairs.
const V2_FIXED_FIELDS: usize = 18;

/// Number of `u64` fields version 3 appends *after* the per-shard pairs
/// (faults injected, shed, open connections). Deliberately odd, so a v3
/// body can never be mistaken for a v2 body with extra shard pairs.
const V3_TRAILER_FIELDS: usize = 3;

/// A point-in-time copy of [`Metrics`], also the payload of the wire
/// `STATS` reply.
///
/// Three wire layouts exist: version 1 is the original twelve fixed
/// `u64`s; version 2 appends p90/p999, min/max, the slow-query count,
/// and the per-shard cache pairs; version 3 appends three resilience
/// fields after the shard pairs. [`from_bytes`](Self::from_bytes) tells
/// them apart by length against the declared shard count (96 bytes is
/// v1; v2 is exactly `18 + 2s` words; v3 is `18 + 2s + 3` words — the
/// odd trailer keeps the lengths disjoint).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub adj_queries: u64,
    pub dist_queries: u64,
    pub batches: u64,
    pub connections: u64,
    /// Reserved: sent as 0 (the servers keep no decode cache); the
    /// word stays so the wire layouts are unchanged.
    pub cache_hits: u64,
    /// Reserved: sent as 0, like `cache_hits`.
    pub cache_misses: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub protocol_errors: u64,
    /// Estimated median decode latency, ns (bucket upper edge).
    pub p50_ns: u64,
    /// Estimated 90th-percentile decode latency, ns (v2; 0 from v1).
    pub p90_ns: u64,
    /// Estimated 99th-percentile decode latency, ns.
    pub p99_ns: u64,
    /// Estimated 99.9th-percentile decode latency, ns (v2; 0 from v1).
    pub p999_ns: u64,
    /// Smallest observed decode latency, ns (v2; 0 from v1).
    pub min_ns: u64,
    /// Largest observed decode latency, ns (v2; 0 from v1).
    pub max_ns: u64,
    /// Queries per second × 1000, measured over the server's lifetime.
    pub qps_milli: u64,
    /// Queries at or over the slow-query threshold (v2; 0 from v1).
    pub slow_queries: u64,
    /// Reserved per-shard pairs (v2; empty from v1): sent empty, kept
    /// so the wire layouts are unchanged.
    pub shard_cache: Vec<(u64, u64)>,
    /// Faults injected by the chaos harness (v3; 0 from v1/v2).
    pub faults_injected: u64,
    /// Connections shed at the connection cap (v3; 0 from v1/v2).
    pub shed: u64,
    /// Connections open when the snapshot was taken (v3; 0 from v1/v2).
    pub open_conns: u64,
}

impl Snapshot {
    /// Serializes the version-2 `STATS` reply body.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut fields = vec![
            self.adj_queries,
            self.dist_queries,
            self.batches,
            self.connections,
            self.cache_hits,
            self.cache_misses,
            self.bytes_in,
            self.bytes_out,
            self.protocol_errors,
            self.p50_ns,
            self.p90_ns,
            self.p99_ns,
            self.p999_ns,
            self.min_ns,
            self.max_ns,
            self.qps_milli,
            self.slow_queries,
            self.shard_cache.len() as u64,
        ];
        debug_assert_eq!(fields.len(), V2_FIXED_FIELDS);
        for &(h, m) in &self.shard_cache {
            fields.push(h);
            fields.push(m);
        }
        let mut out = Vec::with_capacity(fields.len() * 8);
        for f in fields {
            out.extend_from_slice(&f.to_le_bytes());
        }
        out
    }

    /// Serializes the version-3 `STATS` reply body: the v2 layout plus a
    /// three-word resilience trailer (faults injected, shed, open
    /// connections) after the per-shard pairs.
    #[must_use]
    pub fn to_bytes_v3(&self) -> Vec<u8> {
        let mut out = self.to_bytes();
        for f in [self.faults_injected, self.shed, self.open_conns] {
            out.extend_from_slice(&f.to_le_bytes());
        }
        out
    }

    /// Serializes the legacy version-1 reply body (twelve `u64`s); the
    /// extended fields are dropped.
    #[must_use]
    pub fn to_bytes_v1(&self) -> Vec<u8> {
        let fields = [
            self.adj_queries,
            self.dist_queries,
            self.batches,
            self.connections,
            self.cache_hits,
            self.cache_misses,
            self.bytes_in,
            self.bytes_out,
            self.protocol_errors,
            self.p50_ns,
            self.p99_ns,
            self.qps_milli,
        ];
        let mut out = Vec::with_capacity(fields.len() * 8);
        for f in fields {
            out.extend_from_slice(&f.to_le_bytes());
        }
        out
    }

    /// Parses a `STATS` reply body of either wire version.
    #[must_use]
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        if !buf.len().is_multiple_of(8) {
            return None;
        }
        let words: Vec<u64> = buf.chunks_exact(8).map(crate::bytes::le_u64).collect();
        if words.len() == V1_FIELDS {
            return Some(Self {
                adj_queries: words[0],
                dist_queries: words[1],
                batches: words[2],
                connections: words[3],
                cache_hits: words[4],
                cache_misses: words[5],
                bytes_in: words[6],
                bytes_out: words[7],
                protocol_errors: words[8],
                p50_ns: words[9],
                p99_ns: words[10],
                qps_milli: words[11],
                ..Self::default()
            });
        }
        if words.len() < V2_FIXED_FIELDS {
            return None;
        }
        let shard_count = usize::try_from(words[V2_FIXED_FIELDS - 1]).ok()?;
        let expected = shard_count
            .checked_mul(2)
            .and_then(|x| x.checked_add(V2_FIXED_FIELDS))?;
        // A v2 body is exactly `expected` words; a v3 body carries the
        // three-word trailer. Any other length is malformed. (The two
        // cannot collide: a v2 body's length always matches its declared
        // shard count exactly, and the trailer is odd-sized.)
        let (faults_injected, shed, open_conns) = if words.len() == expected {
            (0, 0, 0)
        } else if words.len() == expected + V3_TRAILER_FIELDS {
            (words[expected], words[expected + 1], words[expected + 2])
        } else {
            return None;
        };
        let shard_cache = words[V2_FIXED_FIELDS..expected]
            .chunks_exact(2)
            .map(|p| (p[0], p[1]))
            .collect();
        Some(Self {
            adj_queries: words[0],
            dist_queries: words[1],
            batches: words[2],
            connections: words[3],
            cache_hits: words[4],
            cache_misses: words[5],
            bytes_in: words[6],
            bytes_out: words[7],
            protocol_errors: words[8],
            p50_ns: words[9],
            p90_ns: words[10],
            p99_ns: words[11],
            p999_ns: words[12],
            min_ns: words[13],
            max_ns: words[14],
            qps_milli: words[15],
            slow_queries: words[16],
            shard_cache,
            faults_injected,
            shed,
            open_conns,
        })
    }

    /// Queries per second.
    #[must_use]
    pub fn qps(&self) -> f64 {
        self.qps_milli as f64 / 1000.0
    }
}

impl std::fmt::Display for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "queries: {} adj + {} dist in {} batches over {} connections",
            self.adj_queries, self.dist_queries, self.batches, self.connections
        )?;
        writeln!(
            f,
            "throughput: {:.1} qps, latency p50 < {} ns, p90 < {} ns, p99 < {} ns, p999 < {} ns (min {} ns, max {} ns)",
            self.qps(),
            self.p50_ns,
            self.p90_ns,
            self.p99_ns,
            self.p999_ns,
            self.min_ns,
            self.max_ns
        )?;
        writeln!(f, "slow queries: {}", self.slow_queries)?;
        writeln!(
            f,
            "resilience: {} faults injected, {} conns shed, {} conns open",
            self.faults_injected, self.shed, self.open_conns
        )?;
        write!(
            f,
            "wire: {} bytes in, {} bytes out, {} protocol errors",
            self.bytes_in, self.bytes_out, self.protocol_errors
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The histogram semantics themselves are covered in pl-obs; here we
    // only pin that the re-exported type keeps the serve-side contract.
    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_ns(0.5), 0);
        for _ in 0..99 {
            h.record(100); // bucket 6: [64, 128)
        }
        h.record(1 << 20);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_ns(0.5), 128);
        assert_eq!(h.quantile_ns(0.98), 128);
        assert_eq!(h.quantile_ns(1.0), 1 << 21);
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            adj_queries: 1,
            dist_queries: 2,
            batches: 3,
            connections: 4,
            cache_hits: 9,
            cache_misses: 6,
            bytes_in: 7,
            bytes_out: 8,
            protocol_errors: 9,
            p50_ns: 10,
            p90_ns: 11,
            p99_ns: 12,
            p999_ns: 13,
            min_ns: 2,
            max_ns: 99,
            qps_milli: 12_500,
            slow_queries: 1,
            shard_cache: vec![(4, 1), (5, 5), (0, 0)],
            faults_injected: 17,
            shed: 3,
            open_conns: 2,
        }
    }

    #[test]
    fn snapshot_round_trips_v2() {
        let s = sample_snapshot();
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), (18 + 2 * 3) * 8);
        let parsed = Snapshot::from_bytes(&bytes).expect("v2 parses");
        // The v2 layout drops the resilience trailer.
        assert_eq!(parsed.faults_injected, 0);
        assert_eq!(parsed.shed, 0);
        assert_eq!(parsed.open_conns, 0);
        assert_eq!(
            parsed,
            Snapshot {
                faults_injected: 0,
                shed: 0,
                open_conns: 0,
                ..s.clone()
            }
        );
        assert_eq!(Snapshot::from_bytes(&bytes[..bytes.len() - 1]), None);
        assert_eq!(Snapshot::from_bytes(&bytes[..bytes.len() - 16]), None);
        assert!((s.qps() - 12.5).abs() < 1e-9);
    }

    #[test]
    fn snapshot_round_trips_v3() {
        let s = sample_snapshot();
        let bytes = s.to_bytes_v3();
        assert_eq!(bytes.len(), (18 + 2 * 3 + 3) * 8);
        assert_eq!(Snapshot::from_bytes(&bytes), Some(s.clone()));
        // Truncating the trailer down to the v2 length still parses (as
        // v2, zeroing the trailer); any partial trailer is rejected.
        let v2_len = bytes.len() - 3 * 8;
        assert!(Snapshot::from_bytes(&bytes[..v2_len]).is_some());
        assert_eq!(Snapshot::from_bytes(&bytes[..v2_len + 8]), None);
        assert_eq!(Snapshot::from_bytes(&bytes[..v2_len + 16]), None);
    }

    #[test]
    fn snapshot_v3_trailer_cannot_masquerade_as_shards() {
        // A v3 body reinterpreted with a larger shard count would need
        // an even number of extra words; the trailer is three. Claiming
        // one more shard over a v3 body must fail.
        let s = sample_snapshot();
        let mut bytes = s.to_bytes_v3();
        let idx = (V2_FIXED_FIELDS - 1) * 8;
        bytes[idx..idx + 8].copy_from_slice(&4u64.to_le_bytes());
        assert_eq!(Snapshot::from_bytes(&bytes), None);
    }

    #[test]
    fn snapshot_v1_layout_still_parses() {
        let s = sample_snapshot();
        let v1 = s.to_bytes_v1();
        assert_eq!(v1.len(), 96);
        let parsed = Snapshot::from_bytes(&v1).expect("v1 parses");
        assert_eq!(parsed.adj_queries, s.adj_queries);
        assert_eq!(parsed.p50_ns, s.p50_ns);
        assert_eq!(parsed.p99_ns, s.p99_ns);
        assert_eq!(parsed.qps_milli, s.qps_milli);
        // Extended fields degrade to zero/empty.
        assert_eq!(parsed.p90_ns, 0);
        assert_eq!(parsed.p999_ns, 0);
        assert!(parsed.shard_cache.is_empty());
    }

    #[test]
    fn snapshot_rejects_inconsistent_shard_count() {
        let s = sample_snapshot();
        let mut bytes = s.to_bytes();
        // Claim one more shard than the body carries.
        let idx = (V2_FIXED_FIELDS - 1) * 8;
        bytes[idx..idx + 8].copy_from_slice(&4u64.to_le_bytes());
        assert_eq!(Snapshot::from_bytes(&bytes), None);
        // Absurd shard count must not allocate or wrap.
        bytes[idx..idx + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(Snapshot::from_bytes(&bytes), None);
    }

    #[test]
    fn snapshot_counts_and_qps() {
        let reg = MetricsRegistry::new();
        let m = Metrics::new(&reg);
        m.adj_queries.add(10);
        m.query_latency.record(500);
        m.shed.add(2);
        m.open_conns.set(5);
        let s = m.snapshot(Instant::now() - std::time::Duration::from_secs(1), 7);
        assert_eq!(s.adj_queries, 10);
        assert_eq!(s.faults_injected, 7);
        assert_eq!(s.shed, 2);
        assert_eq!(s.open_conns, 5);
        assert!(s.qps() > 1.0, "ten queries over ~1s");
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 0);
        assert!(s.shard_cache.is_empty());
        assert_eq!(s.min_ns, 500);
        assert_eq!(s.max_ns, 500);
        assert!(s.p90_ns >= s.p50_ns);
        assert!(s.p999_ns >= s.p99_ns);
        // The same numbers are visible through the registry.
        let text = pl_obs::prom::render(&reg);
        assert!(text.contains("plserve_adj_queries_total 10"), "{text}");
        assert!(text.contains("plserve_query_latency_ns_count 1"));
    }
}
