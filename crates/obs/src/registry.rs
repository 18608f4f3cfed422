//! A registry of named metrics: counters, gauges, and histograms, with
//! optional label sets forming families (per-shard, per-phase, …).
//!
//! Registration is get-or-create keyed on `(name, labels)` and hands
//! back an `Arc` to the instrument; callers cache that `Arc` and update
//! it with relaxed atomics, so the registry mutex is only touched at
//! setup and scrape time, never on the hot path.
//!
//! A process-wide [`global`] registry exists for instrumentation that
//! has no natural owner (e.g. encode phases deep inside `pl-labeling`).
//! Components with an owner — a server instance, a test — should carry
//! their own `Arc<MetricsRegistry>` so parallel instances don't bleed
//! into each other's numbers.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::{Histogram, HistogramSnapshot};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed); // lint: relaxed-ok(counters are pure statistics; scrapes tolerate slightly stale values and publish no other memory)
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts by `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed); // lint: relaxed-ok(gauge adjustments are pure statistics; no other memory is published through them)
    }

    /// Raises the gauge to `v` if `v` is larger (high-water mark).
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed); // lint: relaxed-ok(high-water mark is a statistic; no other memory is published through it)
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Owned label set: `(key, value)` pairs, order-significant.
pub type Labels = Vec<(String, String)>;

fn to_labels(pairs: &[(&str, &str)]) -> Labels {
    pairs
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

struct Family<T> {
    name: String,
    members: Vec<(Labels, Arc<T>)>,
}

impl<T: Default> Family<T> {
    fn get_or_create(&mut self, labels: Labels) -> Arc<T> {
        if let Some((_, m)) = self.members.iter().find(|(l, _)| *l == labels) {
            return m.clone();
        }
        let m = Arc::new(T::default());
        self.members.push((labels, m.clone()));
        m
    }
}

#[derive(Default)]
struct State {
    counters: Vec<Family<Counter>>,
    gauges: Vec<Family<Gauge>>,
    histograms: Vec<Family<Histogram>>,
}

fn family<'a, T: Default>(fams: &'a mut Vec<Family<T>>, name: &str) -> &'a mut Family<T> {
    if let Some(i) = fams.iter().position(|f| f.name == name) {
        return &mut fams[i];
    }
    fams.push(Family {
        name: name.to_string(),
        members: Vec::new(),
    });
    fams.last_mut().unwrap()
}

/// The value captured for one metric instance at scrape time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(i64),
    /// A histogram snapshot.
    Histogram(Box<HistogramSnapshot>),
}

impl MetricValue {
    /// Adds `other` in under the one merge rule: counters and gauges
    /// sum, histograms add bucket by bucket. A kind mismatch leaves
    /// `self` unchanged.
    fn merge(&mut self, other: &Self) {
        match (self, other) {
            (Self::Counter(a), Self::Counter(b)) => *a = a.saturating_add(*b),
            (Self::Gauge(a), Self::Gauge(b)) => *a = a.saturating_add(*b),
            (Self::Histogram(a), Self::Histogram(b)) => a.merge(b),
            _ => {}
        }
    }
}

/// One `(name, labels, value)` triple from [`MetricsRegistry::samples`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Metric family name.
    pub name: String,
    /// Label set (empty for unlabeled metrics).
    pub labels: Labels,
    /// Captured value.
    pub value: MetricValue,
}

impl MetricSample {
    /// The sort key: name, then labels.
    #[must_use]
    pub fn key(&self) -> (&str, &[(String, String)]) {
        (&self.name, &self.labels)
    }
}

/// Merges `from` into `into`, both sorted by [`MetricSample::key`] as
/// [`MetricsRegistry::samples`] returns them, under one rule: under a
/// key both hold, counters and gauges sum and histograms add bucket by
/// bucket, and a kind mismatch keeps `into`'s value. Any other sample
/// of `from` is inserted in order.
pub fn merge_samples(into: &mut Vec<MetricSample>, from: &[MetricSample]) {
    for s in from {
        match into.binary_search_by(|t| t.key().cmp(&s.key())) {
            Ok(i) => into[i].value.merge(&s.value),
            Err(i) => into.insert(i, s.clone()),
        }
    }
}

/// A collection of named metric families. See the module docs for the
/// ownership model (per-component instances vs [`global`]).
#[derive(Default)]
pub struct MetricsRegistry {
    state: Mutex<State>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("samples", &self.samples().len())
            .finish()
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create the unlabeled counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// Get-or-create the counter `name{labels}`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut s = self.state.lock().unwrap();
        family(&mut s.counters, name).get_or_create(to_labels(labels))
    }

    /// Get-or-create the unlabeled gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// Get-or-create the gauge `name{labels}`.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let mut s = self.state.lock().unwrap();
        family(&mut s.gauges, name).get_or_create(to_labels(labels))
    }

    /// Get-or-create the unlabeled histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// Get-or-create the histogram `name{labels}`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let mut s = self.state.lock().unwrap();
        family(&mut s.histograms, name).get_or_create(to_labels(labels))
    }

    /// Captures every registered metric, sorted by
    /// [`MetricSample::key`] for deterministic output.
    #[must_use]
    pub fn samples(&self) -> Vec<MetricSample> {
        let s = self.state.lock().unwrap();
        let mut out = Vec::new();
        for f in &s.counters {
            for (labels, c) in &f.members {
                out.push(MetricSample {
                    name: f.name.clone(),
                    labels: labels.clone(),
                    value: MetricValue::Counter(c.get()),
                });
            }
        }
        for f in &s.gauges {
            for (labels, g) in &f.members {
                out.push(MetricSample {
                    name: f.name.clone(),
                    labels: labels.clone(),
                    value: MetricValue::Gauge(g.get()),
                });
            }
        }
        for f in &s.histograms {
            for (labels, h) in &f.members {
                out.push(MetricSample {
                    name: f.name.clone(),
                    labels: labels.clone(),
                    value: MetricValue::Histogram(Box::new(h.snapshot())),
                });
            }
        }
        out.sort_by(|a, b| a.key().cmp(&b.key()));
        out
    }
}

/// The process-wide registry for ownerless instrumentation (encode
/// phases, label-size histograms). Server-side metrics live in
/// per-instance registries instead.
#[must_use]
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::{bucket_edge, bucket_of};

    #[test]
    fn get_or_create_is_stable() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("hits");
        let b = reg.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));

        let s0 = reg.counter_with("shard_hits", &[("shard", "0")]);
        let s1 = reg.counter_with("shard_hits", &[("shard", "1")]);
        assert!(!Arc::ptr_eq(&s0, &s1));
        s1.inc();
        assert_eq!(s0.get(), 0);
        assert_eq!(s1.get(), 1);
    }

    #[test]
    fn gauge_set_max() {
        let g = Gauge::default();
        g.set(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(g.get(), 9);
        g.add(-4);
        assert_eq!(g.get(), 5);
    }

    /// The nearest-rank quantile of `sorted`, as loadbench's `stats.rs`
    /// computes it: the smallest sample with at least `q · len` samples
    /// at or below it.
    fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn merged_histograms_answer_the_pooled_quantile_buckets() {
        // Values spread over some 30 octaves, 0 included.
        let xs: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (34 + i % 30))
            .collect();
        let (left, right) = xs.split_at(170);
        let (a, b) = (MetricsRegistry::new(), MetricsRegistry::new());
        for (reg, part) in [(&a, left), (&b, right)] {
            let h = reg.histogram("lat");
            part.iter().for_each(|&x| h.record(x));
            reg.counter("n").add(part.len() as u64);
            reg.gauge("open").set(2);
        }
        let mut merged = a.samples();
        merge_samples(&mut merged, &b.samples());
        // An empty histogram merges in without touching min or max.
        let empty = MetricsRegistry::new();
        empty.histogram("lat");
        merge_samples(&mut merged, &empty.samples());

        let names: Vec<_> = merged.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["lat", "n", "open"]);
        assert_eq!(merged[1].value, MetricValue::Counter(500));
        assert_eq!(merged[2].value, MetricValue::Gauge(4));
        let MetricValue::Histogram(h) = &merged[0].value else {
            panic!("expected a histogram, got {:?}", merged[0].value);
        };
        let mut pooled = xs.clone();
        pooled.sort_unstable();
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let x = nearest_rank(&pooled, q);
            assert_eq!(h.quantile_ns(q), bucket_edge(bucket_of(x)), "q = {q}");
        }
        assert_eq!(h.count(), 500);
        assert_eq!(h.sum, xs.iter().sum::<u64>());
        assert_eq!((h.min, h.max), (pooled[0], pooled[499]));
    }

    #[test]
    fn a_kind_mismatch_keeps_the_first_value() {
        let a = MetricsRegistry::new();
        a.counter("x").add(3);
        let b = MetricsRegistry::new();
        b.gauge("x").set(9);
        b.histogram("x");
        let mut merged = a.samples();
        merge_samples(&mut merged, &b.samples());
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].value, MetricValue::Counter(3));
    }

    #[test]
    fn samples_are_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.gauge("z_gauge").set(-7);
        reg.counter("a_count").add(4);
        reg.histogram("m_hist").record(100);
        let samples = reg.samples();
        let names: Vec<_> = samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a_count", "m_hist", "z_gauge"]);
        assert_eq!(samples[0].value, MetricValue::Counter(4));
        assert_eq!(samples[2].value, MetricValue::Gauge(-7));
        match &samples[1].value {
            MetricValue::Histogram(h) => assert_eq!(h.count(), 1),
            other => panic!("expected histogram, got {other:?}"),
        }
    }
}
