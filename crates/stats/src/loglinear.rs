//! Log-linear histogram over `u64` samples with mergeable state.
//!
//! Shares the bucket layout of [`qres_obs::loglin`] (16 linear sub-buckets
//! per power-of-two octave, ≤ 6.25% relative bucket error over the full
//! `u64` range) but is a plain, clonable, mergeable value type — the shape
//! wanted for offline analysis and property testing, complementing the
//! per-thread `qres_obs::AtomicHistogram` used on hot paths.

use qres_obs::loglin::{bucket_index, lower_bound, upper_bound, NUM_BUCKETS};

/// A mergeable log-linear histogram (latency-style distributions).
///
/// Covers all of `u64` with bounded *relative* error and needs no bounds
/// up front, which suits long-tailed timing data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogLinearHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogLinearHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogLinearHistogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Sample mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Merges another histogram into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &LogLinearHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of samples `<= v` (exact at bucket upper bounds; counts the
    /// whole bucket containing `v` otherwise, so it is an upper bound).
    pub fn cdf_count(&self, v: u64) -> u64 {
        let idx = bucket_index(v);
        self.buckets[..=idx].iter().sum()
    }

    /// An approximate quantile for `0.0 <= q <= 1.0`: the lower bound of
    /// the bucket holding the `ceil(q * count)`-th smallest sample.
    /// `None` when empty.
    ///
    /// Guarantee: the true `q`-quantile sample lies in the returned
    /// bucket, i.e. within `[value, upper_bound(bucket_of(value))]`.
    pub fn value_at_quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if n > 0 && seen >= target {
                return Some(lower_bound(i));
            }
        }
        None
    }

    /// The inclusive upper edge of the bucket that `v` falls in.
    pub fn bucket_upper_bound(v: u64) -> u64 {
        upper_bound(bucket_index(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = LogLinearHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), None);
        assert_eq!(h.value_at_quantile(0.5), None);
        assert_eq!(h.cdf_count(u64::MAX), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogLinearHistogram::new();
        for v in [0u64, 1, 1, 2, 15] {
            h.add(v);
        }
        assert_eq!(h.value_at_quantile(0.0), Some(0));
        assert_eq!(h.value_at_quantile(0.5), Some(1));
        assert_eq!(h.value_at_quantile(1.0), Some(15));
        assert_eq!(h.cdf_count(1), 3);
        assert_eq!(h.mean(), Some(19.0 / 5.0));
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = LogLinearHistogram::new();
        let mut b = LogLinearHistogram::new();
        let mut all = LogLinearHistogram::new();
        for (i, v) in [3u64, 900, 17, 65_000, 12, 7_000_000].iter().enumerate() {
            if i % 2 == 0 {
                a.add(*v);
            } else {
                b.add(*v);
            }
            all.add(*v);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    /// Non-empty `(bucket lower bound, count)` pairs, ascending.
    fn nonzero_buckets(h: &LogLinearHistogram) -> Vec<(u64, u64)> {
        let buckets = h.buckets.iter().enumerate();
        let nonzero = buckets.filter(|&(_, &n)| n > 0);
        nonzero.map(|(i, &n)| (lower_bound(i), n)).collect()
    }

    #[test]
    fn merge_with_disjoint_octaves() {
        // Two histograms whose populations live in completely different
        // octaves (~1 µs timings vs. ~1 ms ones). Merging must preserve
        // both sub-populations exactly: counts per bucket, totals, and
        // both ends of the quantile range.
        let mut low = LogLinearHistogram::new();
        let mut high = LogLinearHistogram::new();
        for i in 0..100u64 {
            low.add(1_000 + i); // octave of 2^10
            high.add(1_000_000 + 1_000 * i); // octave of 2^20
        }
        let low_buckets = nonzero_buckets(&low);
        let high_buckets = nonzero_buckets(&high);
        // Genuinely disjoint: no bucket appears in both.
        for (ub, _) in &low_buckets {
            assert!(high_buckets.iter().all(|(hb, _)| hb != ub));
        }

        let mut merged = low.clone();
        merged.merge(&high);
        assert_eq!(merged.count(), 200);
        assert_eq!(merged.sum(), low.sum() + high.sum());
        // Every source bucket survives with its exact count.
        let merged_buckets = nonzero_buckets(&merged);
        for (ub, n) in low_buckets.iter().chain(&high_buckets) {
            assert_eq!(
                merged_buckets
                    .iter()
                    .find(|(mb, _)| mb == ub)
                    .map(|(_, m)| m),
                Some(n),
                "bucket {ub} lost samples in the merge"
            );
        }
        // The low population owns the lower half of the quantile range,
        // the high population the upper half; each keeps its error bound.
        let p25 = merged.value_at_quantile(0.25).unwrap() as f64;
        let p75 = merged.value_at_quantile(0.75).unwrap() as f64;
        assert!((p25 - 1_025.0).abs() / 1_025.0 <= 0.0625, "p25 = {p25}");
        assert!(
            (p75 - 1_050_000.0).abs() / 1_050_000.0 <= 0.0625,
            "p75 = {p75}"
        );
        // Merging in the other order is identical.
        let mut merged_rev = high.clone();
        merged_rev.merge(&low);
        assert_eq!(merged_rev, merged);
        // Merging an empty histogram is a no-op in both directions.
        let mut copy = merged.clone();
        copy.merge(&LogLinearHistogram::new());
        assert_eq!(copy, merged);
        let mut empty = LogLinearHistogram::new();
        empty.merge(&merged);
        assert_eq!(empty, merged);
    }
}
