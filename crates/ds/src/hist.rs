//! Streaming histograms with percentile queries.
//!
//! The evaluation aggregates thousands of per-trace results into percentile
//! summaries (Fig. 6, Fig. 11) and per-eviction distributions (Fig. 4
//! frequency-at-eviction, eviction ages). [`Histogram`] covers wide-range
//! integer data with logarithmic buckets; [`summarize`] computes the exact
//! percentiles the figures report from a list of floats.

/// A log2-bucketed histogram over `u64` samples.
///
/// Bucket `i` holds values in `[2^(i-1), 2^i)` (bucket 0 holds the value 0),
/// giving ≤ 2× relative error on percentile queries over any range — plenty
/// for eviction-age distributions.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Approximate value at quantile `q ∈ [0, 1]` (`None` when empty).
    ///
    /// Returns the geometric midpoint of the bucket containing the quantile,
    /// clamped to the observed min/max.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                let rep = if i == 0 {
                    0
                } else {
                    // Geometric middle of [2^(i-1), 2^i).
                    let lo = 1u64 << (i - 1);
                    lo + lo / 2
                };
                return Some(rep.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Fraction of samples equal to zero. Used for the one-hit-wonder share
    /// of the frequency-at-eviction distribution (Fig. 4).
    pub fn zero_fraction(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.buckets[0] as f64 / self.count as f64
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Percentile summary of a set of float observations (one per trace), as
/// used in Fig. 6 and Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// 10th percentile.
    pub p10: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of observations.
    pub n: usize,
}

/// Exact percentile of a sorted slice using linear interpolation
/// (the same convention as numpy's default).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

/// Computes the percentile [`Summary`] of `values` (need not be sorted).
///
/// # Panics
///
/// Panics when `values` is empty.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize of empty slice");
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in summary input"));
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    Summary {
        p10: percentile_sorted(&v, 0.10),
        p25: percentile_sorted(&v, 0.25),
        p50: percentile_sorted(&v, 0.50),
        p75: percentile_sorted(&v, 0.75),
        p90: percentile_sorted(&v, 0.90),
        mean,
        n: v.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_and_mean() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 2.0).abs() < 1e-12);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(4));
    }

    #[test]
    fn zero_fraction_tracks_zeros() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(5);
        h.record(9);
        assert!((h.zero_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_monotone() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let q1 = h.quantile(0.1).unwrap();
        let q5 = h.quantile(0.5).unwrap();
        let q9 = h.quantile(0.9).unwrap();
        assert!(q1 <= q5 && q5 <= q9);
    }

    #[test]
    fn quantile_of_empty_is_none() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
    }

    /// Regression pin (PR 4 audit, see TESTING.md): an empty histogram's
    /// min/max must be `None`, never the internal `u64::MAX`/`0` sentinels
    /// — an exporter trusting raw sentinel values would print
    /// 18446744073709551615 as a "minimum".
    #[test]
    fn empty_min_max_never_leak_sentinels() {
        let h = Histogram::new();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), None, "q={q}");
        }
        // One sample flips every accessor to Some of that sample.
        let mut h = h;
        h.record(7);
        assert_eq!(h.min(), Some(7));
        assert_eq!(h.max(), Some(7));
        assert_eq!(h.quantile(0.5), Some(7));
    }

    /// Merging with an empty histogram must not poison min/max with the
    /// empty side's sentinels, in either direction.
    #[test]
    fn merge_with_empty_keeps_min_max_honest() {
        let empty = Histogram::new();
        let mut a = Histogram::new();
        a.record(10);
        a.record(20);
        a.merge(&empty);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(20));
        let mut b = Histogram::new();
        b.merge(&a);
        assert_eq!(b.min(), Some(10));
        assert_eq!(b.max(), Some(20));
        let mut c = Histogram::new();
        c.merge(&empty);
        assert_eq!(c.min(), None, "empty ∪ empty stays empty");
        assert_eq!(c.max(), None);
    }

    #[test]
    fn quantile_within_factor_two() {
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(100);
        }
        let q = h.quantile(0.5).unwrap() as f64;
        assert!((50.0..=200.0).contains(&q), "q = {q}");
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        a.record(1);
        let mut b = Histogram::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(100));
    }

    #[test]
    fn percentile_exact_values() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!((percentile_sorted(&v, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile_sorted(&v, 1.0) - 5.0).abs() < 1e-12);
        assert!((percentile_sorted(&v, 0.5) - 3.0).abs() < 1e-12);
        assert!((percentile_sorted(&v, 0.25) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_fields_ordered() {
        let vals: Vec<f64> = (0..101).map(|i| i as f64).collect();
        let s = summarize(&vals);
        assert!(s.p10 <= s.p25 && s.p25 <= s.p50 && s.p50 <= s.p75 && s.p75 <= s.p90);
        assert!((s.mean - 50.0).abs() < 1e-9);
        assert_eq!(s.n, 101);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn summary_of_empty_panics() {
        summarize(&[]);
    }

    #[test]
    fn singleton_percentile() {
        assert_eq!(percentile_sorted(&[7.0], 0.9), 7.0);
    }
}
