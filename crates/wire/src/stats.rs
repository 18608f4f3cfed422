//! Front-end metrics, built on the [`pl_obs`] metrics registry and
//! shared by every consumer of the wire front-end (single-node server
//! and cluster router alike), and the `STATS_REPLY` payload that
//! carries a registry's samples over the wire.
//!
//! Every instrument is an `Arc` handed out by a [`MetricsRegistry`] —
//! counters under `plserve_*_total`, the per-query decode latency under
//! `plserve_query_latency_ns` — so the hot query path pays only a
//! handful of uncontended relaxed fetch-adds and never takes the
//! registry mutex. A `STATS` request reads the registry's
//! [`samples`](MetricsRegistry::samples) into [`Stats`]: the same
//! samples the Prometheus sidecar renders, so `/metrics` and
//! `plab stats` cannot disagree.

use std::fmt;
use std::sync::Arc;

use pl_obs::hist::HistogramSnapshot;
use pl_obs::registry::{Counter, Gauge, MetricSample, MetricValue};
use pl_obs::{Histogram, MetricsRegistry, BUCKETS};

use crate::protocol::ProtocolError;

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
    pub query_latency: Arc<Histogram>,
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
}

/// The kind bytes of a sample on the wire.
const KIND_COUNTER: u8 = 0;
const KIND_GAUGE: u8 = 1;
const KIND_HISTOGRAM: u8 = 2;

/// Fewest bytes one encoded sample can take: an empty name, no labels,
/// the kind byte and an 8-byte value.
const MIN_SAMPLE: usize = 4 + 4 + 1 + 8;

/// A registry's samples: the payload of the wire `STATS` reply, and
/// what a front-end returns at shutdown.
///
/// Wire layout (all integers little-endian): a `u32` sample count, then
/// per sample its name, a `u32` label count and that many key/value
/// pairs (every string a `u32` byte length plus UTF-8), a kind byte,
/// and the value: a `u64` counter, an `i64` gauge, or a histogram as a
/// `u32` bucket count (always [`BUCKETS`]), the buckets as `u64`s, then
/// the sum, min and max. Samples are sorted by
/// [`MetricSample::key`] and unique.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Sorted by [`MetricSample::key`], unique.
    pub samples: Vec<MetricSample>,
}

impl Stats {
    /// Every sample `registry` holds now.
    #[must_use]
    pub fn of(registry: &MetricsRegistry) -> Self {
        Self {
            samples: registry.samples(),
        }
    }

    /// Sum of the counters named `name` over all their label sets; 0
    /// when there is none.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        let named = self.samples.iter().filter(|s| s.name == name);
        named.fold(0, |sum, s| match s.value {
            MetricValue::Counter(c) => sum.saturating_add(c),
            _ => sum,
        })
    }

    /// Sum of the gauges named `name` over all their label sets; 0 when
    /// there is none.
    #[must_use]
    pub fn gauge(&self, name: &str) -> i64 {
        let named = self.samples.iter().filter(|s| s.name == name);
        named.fold(0, |sum, s| match s.value {
            MetricValue::Gauge(g) => sum.saturating_add(g),
            _ => sum,
        })
    }

    /// The unlabeled histogram `name`, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.samples.iter().find_map(|s| match &s.value {
            MetricValue::Histogram(h) if s.name == name && s.labels.is_empty() => Some(&**h),
            _ => None,
        })
    }

    /// Appends the wire encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let put_str = |out: &mut Vec<u8>, s: &str| {
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        };
        out.extend_from_slice(&(self.samples.len() as u32).to_le_bytes());
        for s in &self.samples {
            put_str(out, &s.name);
            out.extend_from_slice(&(s.labels.len() as u32).to_le_bytes());
            for (k, v) in &s.labels {
                put_str(out, k);
                put_str(out, v);
            }
            match &s.value {
                MetricValue::Counter(c) => {
                    out.push(KIND_COUNTER);
                    out.extend_from_slice(&c.to_le_bytes());
                }
                MetricValue::Gauge(g) => {
                    out.push(KIND_GAUGE);
                    out.extend_from_slice(&g.to_le_bytes());
                }
                MetricValue::Histogram(h) => {
                    out.push(KIND_HISTOGRAM);
                    out.extend_from_slice(&(BUCKETS as u32).to_le_bytes());
                    for w in h.counts.iter().chain([&h.sum, &h.min, &h.max]) {
                        out.extend_from_slice(&w.to_le_bytes());
                    }
                }
            }
        }
    }

    /// Parses the wire encoding. Every length and count is checked
    /// against the bytes left before anything is allocated for it; a
    /// bucket count other than [`BUCKETS`], an unknown kind, a
    /// non-UTF-8 string, a sample out of order or repeated, and any
    /// trailing byte are all malformed.
    pub fn parse(buf: &[u8]) -> Result<Self, ProtocolError> {
        let mut r = Reader(buf);
        let count = r.count(MIN_SAMPLE)?;
        let mut samples: Vec<MetricSample> = Vec::with_capacity(count);
        for _ in 0..count {
            let name = r.string()?;
            let n_labels = r.count(8)?;
            let mut labels = Vec::with_capacity(n_labels);
            for _ in 0..n_labels {
                labels.push((r.string()?, r.string()?));
            }
            let value = match r.take(1)?[0] {
                KIND_COUNTER => MetricValue::Counter(r.u64()?),
                KIND_GAUGE => MetricValue::Gauge(r.u64()? as i64),
                KIND_HISTOGRAM => {
                    if r.u32()? as usize != BUCKETS {
                        return Err(ProtocolError::Malformed("stats bucket count"));
                    }
                    let mut h = Histogram::new().snapshot();
                    for w in h
                        .counts
                        .iter_mut()
                        .chain([&mut h.sum, &mut h.min, &mut h.max])
                    {
                        *w = r.u64()?;
                    }
                    MetricValue::Histogram(Box::new(h))
                }
                _ => return Err(ProtocolError::Malformed("stats sample kind")),
            };
            let sample = MetricSample {
                name,
                labels,
                value,
            };
            if samples.last().is_some_and(|p| p.key() >= sample.key()) {
                return Err(ProtocolError::Malformed("stats sample order"));
            }
            samples.push(sample);
        }
        if !r.0.is_empty() {
            return Err(ProtocolError::Malformed("stats trailing bytes"));
        }
        Ok(Self { samples })
    }
}

/// A cursor over an untrusted `STATS` body.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        if n > self.0.len() {
            return Err(ProtocolError::Malformed("stats body truncated"));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, ProtocolError> {
        self.take(4).map(crate::bytes::le_u32)
    }

    fn u64(&mut self) -> Result<u64, ProtocolError> {
        self.take(8).map(crate::bytes::le_u64)
    }

    /// A `u32` count of items of at least `min_bytes` each, refused
    /// when the bytes left cannot hold that many.
    fn count(&mut self, min_bytes: usize) -> Result<usize, ProtocolError> {
        let n = self.u32()? as usize;
        if n > self.0.len() / min_bytes {
            return Err(ProtocolError::Malformed("stats count exceeds body"));
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, ProtocolError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_string)
            .map_err(|_| ProtocolError::Malformed("stats string not UTF-8"))
    }
}

/// The quantile line of one latency histogram.
fn latency(h: &HistogramSnapshot) -> String {
    format!(
        "p50 < {} ns, p90 < {} ns, p99 < {} ns, p999 < {} ns (min {} ns, max {} ns)",
        h.quantile_ns(0.5),
        h.quantile_ns(0.9),
        h.quantile_ns(0.99),
        h.quantile_ns(0.999),
        h.min,
        h.max
    )
}

/// The human `plab stats` view. A router's samples add a `router:`
/// line with its own batch latency (`plcluster_batch_ns`).
impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "queries: {} adj + {} dist in {} batches over {} connections",
            self.counter("plserve_adj_queries_total"),
            self.counter("plserve_dist_queries_total"),
            self.counter("plserve_batches_total"),
            self.counter("plserve_connections_total")
        )?;
        if let Some(h) = self.histogram("plserve_query_latency_ns") {
            writeln!(f, "decode latency: {}", latency(h))?;
        }
        writeln!(
            f,
            "slow queries: {}",
            self.counter("plserve_slow_queries_total")
        )?;
        writeln!(
            f,
            "resilience: {} faults injected, {} conns shed, {} conns open",
            self.counter("plserve_faults_injected_total"),
            self.counter("plserve_shed_total"),
            self.gauge("plserve_open_conns")
        )?;
        write!(
            f,
            "wire: {} bytes in, {} bytes out, {} protocol errors",
            self.counter("plserve_bytes_in_total"),
            self.counter("plserve_bytes_out_total"),
            self.counter("plserve_protocol_errors_total")
        )?;
        if let Some(h) = self.histogram("plcluster_batch_ns") {
            write!(
                f,
                "\nrouter: {} queries in {} batches, {} exhausted, batch latency {}",
                self.counter("plcluster_queries_total"),
                self.counter("plcluster_batches_total"),
                self.counter("plcluster_exhausted_total"),
                latency(h)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample(name: &str, labels: &[(&str, &str)], value: MetricValue) -> MetricSample {
        MetricSample {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        }
    }

    fn encoded(stats: &Stats) -> Vec<u8> {
        let mut out = Vec::new();
        stats.encode_into(&mut out);
        out
    }

    #[test]
    fn a_registry_round_trips_through_the_wire() {
        let reg = MetricsRegistry::new();
        let m = Metrics::new(&reg);
        m.adj_queries.add(10);
        m.query_latency.record(500);
        m.open_conns.set(-2);
        reg.counter_with("plserve_faults_injected_total", &[("kind", "drop")])
            .add(3);
        let stats = Stats::of(&reg);
        assert_eq!(Stats::parse(&encoded(&stats)), Ok(stats.clone()));
        assert_eq!(stats.counter("plserve_adj_queries_total"), 10);
        assert_eq!(stats.counter("plserve_faults_injected_total"), 3);
        assert_eq!(stats.gauge("plserve_open_conns"), -2);
        let h = stats
            .histogram("plserve_query_latency_ns")
            .expect("latency");
        assert_eq!((h.count(), h.min, h.max, h.sum), (1, 500, 500, 500));
        assert!(stats
            .to_string()
            .starts_with("queries: 10 adj + 0 dist in 0 batches over 0 connections\n"));
    }

    #[test]
    fn empty_stats_are_four_zero_bytes() {
        assert_eq!(encoded(&Stats::default()), [0; 4]);
        assert_eq!(Stats::parse(&[0; 4]), Ok(Stats::default()));
        assert!(Stats::parse(&[]).is_err());
        assert!(Stats::parse(&[0; 5]).is_err(), "trailing byte");
    }

    #[test]
    fn unsorted_duplicate_and_non_utf8_entries_are_malformed() {
        let a = sample("a", &[], MetricValue::Counter(1));
        let b = sample("b", &[], MetricValue::Counter(2));
        let unsorted = Stats {
            samples: vec![b.clone(), a.clone()],
        };
        let duplicate = Stats {
            samples: vec![a.clone(), a.clone()],
        };
        for bad in [unsorted, duplicate] {
            assert_eq!(
                Stats::parse(&encoded(&bad)),
                Err(ProtocolError::Malformed("stats sample order"))
            );
        }
        let mut bytes = encoded(&Stats { samples: vec![a] });
        bytes[8] = 0xFF; // the name's one byte
        assert_eq!(
            Stats::parse(&bytes),
            Err(ProtocolError::Malformed("stats string not UTF-8"))
        );
    }

    #[test]
    fn a_bucket_count_other_than_buckets_is_malformed() {
        let h = sample(
            "h",
            &[],
            MetricValue::Histogram(Box::new(Histogram::new().snapshot())),
        );
        let mut bytes = encoded(&Stats { samples: vec![h] });
        // count, name "h", no labels, kind: the bucket count follows.
        let at = 4 + 4 + 1 + 4 + 1;
        bytes[at..at + 4].copy_from_slice(&(BUCKETS as u32 - 1).to_le_bytes());
        assert_eq!(
            Stats::parse(&bytes),
            Err(ProtocolError::Malformed("stats bucket count"))
        );
    }

    /// Short strings over a small alphabet (with multi-byte UTF-8), so
    /// that names and labels collide often.
    fn arb_string() -> impl Strategy<Value = String> {
        proptest::collection::vec(0usize..4, 0..4)
            .prop_map(|c| c.into_iter().map(|i| ['a', 'z', 'é', '→'][i]).collect())
    }

    fn arb_value() -> impl Strategy<Value = MetricValue> {
        (
            0u8..3,
            any::<u64>(),
            proptest::collection::vec(any::<u64>(), BUCKETS + 3),
        )
            .prop_map(|(kind, v, words)| match kind {
                0 => MetricValue::Counter(v),
                1 => MetricValue::Gauge(v as i64),
                _ => MetricValue::Histogram(Box::new(HistogramSnapshot {
                    counts: std::array::from_fn(|i| words[i]),
                    sum: words[BUCKETS],
                    min: words[BUCKETS + 1],
                    max: words[BUCKETS + 2],
                })),
            })
    }

    proptest! {
        #[test]
        fn arbitrary_sample_sets_round_trip(
            raw in proptest::collection::vec(
                (arb_string(), proptest::collection::vec((arb_string(), arb_string()), 0..3), arb_value()),
                0..12,
            ),
        ) {
            let mut samples: Vec<MetricSample> = raw
                .into_iter()
                .map(|(name, labels, value)| MetricSample { name, labels, value })
                .collect();
            samples.sort_by(|a, b| a.key().cmp(&b.key()));
            samples.dedup_by(|a, b| a.key() == b.key());
            let stats = Stats { samples };
            let bytes = encoded(&stats);
            prop_assert_eq!(Stats::parse(&bytes), Ok(stats));
            // Proper prefixes are refused.
            for cut in (0..bytes.len()).step_by(bytes.len() / 32 + 1) {
                prop_assert!(Stats::parse(&bytes[..cut]).is_err());
            }
        }
    }
}
