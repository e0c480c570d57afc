//! Numerically stable sample statistics (Welford's online algorithm).

/// Online sample mean/variance accumulator.
///
/// Used for per-admission-test sample statistics such as `N_calc` — the
/// average number of `B_r` calculations per admission test (paper Fig. 13) —
/// and for aggregating per-run results across seeds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Unbiased sample variance; `None` with fewer than two samples.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Sample standard deviation; `None` with fewer than two samples.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator (Chan's parallel update).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_none() {
        let w = Welford::new();
        assert_eq!(w.mean(), None);
        assert_eq!(w.variance(), None);
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
    }

    #[test]
    fn single_sample() {
        let mut w = Welford::new();
        w.add(3.0);
        assert_eq!(w.mean(), Some(3.0));
        assert_eq!(w.variance(), None);
        assert_eq!(w.min(), Some(3.0));
        assert_eq!(w.max(), Some(3.0));
    }

    #[test]
    fn known_values() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.add(x);
        }
        assert!((w.mean().unwrap() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic set is 32/7.
        assert!((w.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), Some(2.0));
        assert_eq!(w.max(), Some(9.0));
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..50).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Welford::new();
        for &x in &data {
            all.add(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &data[..20] {
            a.add(x);
        }
        for &x in &data[20..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean().unwrap() - all.mean().unwrap()).abs() < 1e-9);
        assert!((a.variance().unwrap() - all.variance().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = Welford::new();
        a.add(1.0);
        let b = Welford::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = Welford::new();
        c.merge(&a);
        assert_eq!(c.mean(), Some(1.0));
    }
}
