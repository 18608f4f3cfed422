//! Lock-free log₂-bucketed histograms.
//!
//! Bucket `i` covers `[2^i, 2^{i+1})` (values clamped below at 1), so
//! `record` is branch-free (`ilog2` + one `fetch_add`) and quantile
//! estimates are exact to within a factor of two — plenty for latency
//! percentiles over a load test or label-size distributions over an
//! encode. Alongside the buckets the histogram tracks the exact sum,
//! minimum, and maximum, all with `Relaxed` atomics: recording from any
//! number of threads is wait-free and never blocks the observed path.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of buckets; covers the full `u64` range.
pub const BUCKETS: usize = 64;

/// Exclusive upper edge of bucket `i` (saturating at `u64::MAX`).
#[must_use]
pub fn bucket_edge(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        u64::MAX
    } else {
        1u64 << (i + 1)
    }
}

/// A lock-free histogram with power-of-two buckets plus exact
/// sum/min/max side channels.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// The bucket holding `v`: `⌊log₂ v⌋`, with 0 counted as 1.
#[must_use]
pub(crate) fn bucket_of(v: u64) -> usize {
    (v.max(1).ilog2() as usize).min(BUCKETS - 1)
}

impl Histogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed); // lint: relaxed-ok(per-bucket stat counter; snapshots tolerate torn cross-field reads by design)
        self.sum.fetch_add(v, Ordering::Relaxed); // lint: relaxed-ok(stat accumulator; snapshots tolerate torn cross-field reads by design)
        self.min.fetch_min(v, Ordering::Relaxed); // lint: relaxed-ok(monotone min tracker; no other memory is published through it)
        self.max.fetch_max(v, Ordering::Relaxed); // lint: relaxed-ok(monotone max tracker; no other memory is published through it)
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of all recorded values.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded value; 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        let m = self.min.load(Ordering::Relaxed);
        if m == u64::MAX && self.count() == 0 {
            0
        } else {
            m
        }
    }

    /// Largest recorded value; 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Upper edge (exclusive) of the bucket containing quantile
    /// `q ∈ [0, 1]`; 0 when the histogram is empty. Monotone in `q`.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        self.snapshot().quantile_ns(q)
    }

    /// A point-in-time copy of the bucket counts and side channels.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
        }
    }
}

/// An owned copy of a [`Histogram`]'s state, safe to inspect at leisure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts.
    pub counts: [u64; BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value; 0 when empty.
    pub min: u64,
    /// Largest recorded value; 0 when empty.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Total observations (saturating: a snapshot may come off the wire).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().fold(0, |a, &c| a.saturating_add(c))
    }

    /// Adds `other` in bucket by bucket. The sum adds; min and max are
    /// taken over the non-empty sides only, since an empty snapshot
    /// reports 0 for both.
    pub fn merge(&mut self, other: &Self) {
        if other.count() == 0 {
            return;
        }
        if self.count() == 0 {
            (self.min, self.max) = (other.min, other.max);
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(b);
        }
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Upper edge (exclusive) of the bucket containing quantile
    /// `q ∈ [0, 1]`; 0 when empty. Monotone in `q` by construction: the
    /// rank is non-decreasing in `q` and the cumulative scan walks the
    /// buckets in value order.
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return bucket_edge(i);
            }
        }
        u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_and_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile_ns(0.5), 0);
        for _ in 0..99 {
            h.record(100); // bucket 6: [64, 128)
        }
        h.record(1 << 20);
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_ns(0.5), 128);
        assert_eq!(h.quantile_ns(0.98), 128);
        assert_eq!(h.quantile_ns(1.0), 1 << 21);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), 1 << 20);
        assert_eq!(h.sum(), 99 * 100 + (1 << 20));
    }

    #[test]
    fn extremes_do_not_panic() {
        let h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile_ns(1.0) > 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn empty_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.snapshot().quantile_ns(0.99), 0);
    }

    #[test]
    fn edges_saturate() {
        assert_eq!(bucket_edge(0), 2);
        assert_eq!(bucket_edge(62), 1u64 << 63);
        assert_eq!(bucket_edge(63), u64::MAX);
    }
}
