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
    /// harness's total (0 when no plan is active).
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
            faults_injected,
            shed: self.shed.get(),
            open_conns: self.open_conns.get().max(0) as u64,
        }
    }
}

/// Number of `u64` words in the `STATS` wire layout.
const FIELDS: usize = 18;

/// A point-in-time copy of [`Metrics`], also the payload of the wire
/// `STATS` reply: exactly [`FIELDS`] little-endian `u64` words, in field
/// declaration order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub adj_queries: u64,
    pub dist_queries: u64,
    pub batches: u64,
    pub connections: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub protocol_errors: u64,
    /// Estimated median decode latency, ns (bucket upper edge).
    pub p50_ns: u64,
    /// Estimated 90th-percentile decode latency, ns.
    pub p90_ns: u64,
    /// Estimated 99th-percentile decode latency, ns.
    pub p99_ns: u64,
    /// Estimated 99.9th-percentile decode latency, ns.
    pub p999_ns: u64,
    /// Smallest observed decode latency, ns.
    pub min_ns: u64,
    /// Largest observed decode latency, ns.
    pub max_ns: u64,
    /// Queries per second × 1000, measured over the server's lifetime.
    pub qps_milli: u64,
    /// Queries at or over the slow-query threshold.
    pub slow_queries: u64,
    /// Faults injected by the chaos harness.
    pub faults_injected: u64,
    /// Connections shed at the connection cap.
    pub shed: u64,
    /// Connections open when the snapshot was taken.
    pub open_conns: u64,
}

impl Snapshot {
    /// Serializes the `STATS` reply body.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let words: [u64; FIELDS] = [
            self.adj_queries,
            self.dist_queries,
            self.batches,
            self.connections,
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
            self.faults_injected,
            self.shed,
            self.open_conns,
        ];
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    /// Parses a `STATS` reply body; any length but `8 ×` [`FIELDS`] is
    /// malformed.
    #[must_use]
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        if buf.len() != FIELDS * 8 {
            return None;
        }
        // Struct fields evaluate in the order written: the wire order.
        let mut words = buf.chunks_exact(8).map(crate::bytes::le_u64);
        let mut next = || words.next().unwrap_or_default();
        Some(Self {
            adj_queries: next(),
            dist_queries: next(),
            batches: next(),
            connections: next(),
            bytes_in: next(),
            bytes_out: next(),
            protocol_errors: next(),
            p50_ns: next(),
            p90_ns: next(),
            p99_ns: next(),
            p999_ns: next(),
            min_ns: next(),
            max_ns: next(),
            qps_milli: next(),
            slow_queries: next(),
            faults_injected: next(),
            shed: next(),
            open_conns: next(),
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
            faults_injected: 17,
            shed: 3,
            open_conns: 2,
        }
    }

    #[test]
    fn snapshot_round_trips_at_exactly_its_length() {
        let s = sample_snapshot();
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), FIELDS * 8);
        assert_eq!(Snapshot::from_bytes(&bytes), Some(s.clone()));
        // One byte or one word short or long is malformed.
        assert_eq!(Snapshot::from_bytes(&bytes[..bytes.len() - 1]), None);
        assert_eq!(Snapshot::from_bytes(&bytes[..bytes.len() - 8]), None);
        let mut long = bytes.clone();
        long.extend_from_slice(&[0; 8]);
        assert_eq!(Snapshot::from_bytes(&long), None);
        assert_eq!(Snapshot::from_bytes(&[]), None);
        assert!((s.qps() - 12.5).abs() < 1e-9);
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
