//! Exact order statistics and the open-loop send schedule.
//!
//! Quantiles here are computed from every recorded sample, never from
//! histogram buckets: a log2 bucket edge (as in `pl_obs::Histogram`) can
//! only say "somewhere below 2^k ns", which hides any change smaller than
//! a factor of two.

/// The `q`-quantile of `sorted` by the nearest-rank rule: the smallest
/// sample with at least `q · len` samples at or below it.
///
/// # Panics
/// If `sorted` is empty.
#[must_use]
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Number of samples in `sorted` strictly above `threshold`.
#[must_use]
pub fn count_above(sorted: &[u64], threshold: u64) -> usize {
    sorted.len() - sorted.partition_point(|&x| x <= threshold)
}

/// Median of `values` (mean of the two middle values for an even
/// count); 0 for no values.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// When an open-loop generator is due to send: send `i` is due at
/// `offset + i · period` after the phase starts, whatever happened to
/// the sends before it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule {
    period_ns: f64,
    offset_ns: f64,
}

impl Schedule {
    /// `sends_per_sec` evenly spaced sends, shifted by `phase` (a
    /// fraction of one period, in `[0, 1)`) so that several generators
    /// at the same rate interleave instead of sending in bursts.
    ///
    /// # Panics
    /// If the rate is not positive or the phase is outside `[0, 1)`.
    #[must_use]
    pub fn new(sends_per_sec: f64, phase: f64) -> Self {
        assert!(sends_per_sec > 0.0, "send rate must be positive");
        assert!((0.0..1.0).contains(&phase), "phase must be in [0, 1)");
        let period_ns = 1e9 / sends_per_sec;
        Self {
            period_ns,
            offset_ns: phase * period_ns,
        }
    }

    /// Nanoseconds after the phase start at which send `i` is due.
    #[must_use]
    pub fn due_ns(&self, i: u64) -> u64 {
        (self.offset_ns + i as f64 * self.period_ns) as u64
    }

    /// How many sends fall due strictly before `window_ns`.
    #[must_use]
    pub fn sends_within(&self, window_ns: u64) -> u64 {
        let mut i = ((window_ns as f64 - self.offset_ns) / self.period_ns).max(0.0) as u64;
        // Float rounding can land one off either way; settle exactly.
        while i > 0 && self.due_ns(i - 1) >= window_ns {
            i -= 1;
        }
        while self.due_ns(i) < window_ns {
            i += 1;
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&v, 0.0), 1);
        assert_eq!(quantile(&[7], 0.99), 7);
        // 1000 samples: p99 is the 990th, so exactly ten lie beyond it.
        let v: Vec<u64> = (1..=1000).collect();
        let p99 = quantile(&v, 0.99);
        assert_eq!(p99, 990);
        assert_eq!(count_above(&v, p99), 10);
    }

    #[test]
    fn count_above_handles_ties() {
        let v = [1, 2, 2, 2, 3, 9];
        assert_eq!(count_above(&v, 2), 2);
        assert_eq!(count_above(&v, 9), 0);
        assert_eq!(count_above(&v, 0), 6);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn schedule_spaces_sends_evenly() {
        // 10 000 sends a second: one every 100 µs.
        let s = Schedule::new(10_000.0, 0.0);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(1), 100_000);
        assert_eq!(s.due_ns(250), 25_000_000);
        assert_eq!(s.sends_within(1_000_000_000), 10_000);
        assert_eq!(s.sends_within(1), 1);
        assert_eq!(s.sends_within(0), 0);
    }

    #[test]
    fn schedule_phase_interleaves_generators() {
        let a = Schedule::new(1_000.0, 0.0);
        let b = Schedule::new(1_000.0, 0.5);
        for i in 0..100 {
            assert_eq!(b.due_ns(i) - a.due_ns(i), 500_000);
            assert!(b.due_ns(i) < a.due_ns(i + 1));
        }
        // Both send the same number of times in a whole number of periods.
        assert_eq!(a.sends_within(1_000_000_000), 1_000);
        assert_eq!(b.sends_within(1_000_000_000), 1_000);
    }

    #[test]
    fn sends_within_matches_due_times() {
        let s = Schedule::new(3_125.0, 0.25);
        for window in [0u64, 1, 80_000, 320_000, 320_001, 5_000_000_007] {
            let k = s.sends_within(window);
            assert!(k == 0 || s.due_ns(k - 1) < window);
            assert!(s.due_ns(k) >= window);
        }
    }
}
