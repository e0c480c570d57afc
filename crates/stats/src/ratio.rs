//! Event-ratio counters for `P_CB` and `P_HD`.

/// Wilson-score confidence interval for a binomial proportion:
/// `(low, high)` bounds for the true success probability given `hits`
/// successes out of `trials` at normal quantile `z` (1.96 for 95%).
/// Implemented in `qres-obs` (which this crate depends on, like the
/// shared `loglin` bucket layout) and re-exported here next to
/// [`RatioCounter`], its natural companion.
pub use qres_obs::qos::wilson_interval;

/// Counts trials and "hits" and reports their ratio.
///
/// The paper's headline metrics are both of this shape:
/// * `P_CB` — connection-blocking probability: hits = blocked new-connection
///   requests, trials = all new-connection requests;
/// * `P_HD` — hand-off dropping probability: hits = dropped hand-offs,
///   trials = attempted hand-offs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RatioCounter {
    trials: u64,
    hits: u64,
}

impl RatioCounter {
    /// A fresh counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one trial; `hit` marks it as a blocking/dropping event.
    pub fn record(&mut self, hit: bool) {
        self.trials += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// Total trials recorded.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Total hits recorded.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// The hit ratio; `None` with zero trials (undefined, *not* zero —
    /// a cell that saw no hand-offs has no measured `P_HD`).
    pub fn ratio(&self) -> Option<f64> {
        if self.trials == 0 {
            None
        } else {
            Some(self.hits as f64 / self.trials as f64)
        }
    }

    /// The hit ratio, defaulting to `0.0` when no trials were seen.
    /// Matches the paper's tables, which print `0.` for idle cells.
    pub fn ratio_or_zero(&self) -> f64 {
        self.ratio().unwrap_or(0.0)
    }

    /// Wilson-score confidence interval for the hit ratio at normal
    /// quantile `z` (see [`wilson_interval`]).
    pub fn wilson_interval(&self, z: f64) -> (f64, f64) {
        wilson_interval(self.hits, self.trials, z)
    }

    /// Merges another counter into this one (for aggregating per-cell
    /// counters into a system-wide figure).
    pub fn merge(&mut self, other: &RatioCounter) {
        self.trials += other.trials;
        self.hits += other.hits;
    }

    /// Resets to empty.
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

qres_json::json_struct!(RatioCounter { trials, hits });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ratio_is_none() {
        let c = RatioCounter::new();
        assert_eq!(c.ratio(), None);
        assert_eq!(c.ratio_or_zero(), 0.0);
    }

    #[test]
    fn counts_and_ratio() {
        let mut c = RatioCounter::new();
        for i in 0..100 {
            c.record(i % 4 == 0);
        }
        assert_eq!(c.trials(), 100);
        assert_eq!(c.hits(), 25);
        assert_eq!(c.ratio(), Some(0.25));
    }

    #[test]
    fn merge_aggregates() {
        let mut a = RatioCounter::new();
        let mut b = RatioCounter::new();
        a.record(true);
        a.record(false);
        b.record(true);
        a.merge(&b);
        assert_eq!(a.trials(), 3);
        assert_eq!(a.hits(), 2);
    }

    #[test]
    fn wilson_no_trials_is_vacuous() {
        // n = 0: no information, the interval is the whole unit interval.
        assert_eq!(wilson_interval(0, 0, 1.96), (0.0, 1.0));
    }

    #[test]
    fn wilson_single_trial_stays_in_unit_interval() {
        // n = 1 must not collapse to a point nor escape [0, 1].
        let (lo_hit, hi_hit) = wilson_interval(1, 1, 1.96);
        assert!(lo_hit > 0.0 && lo_hit < 0.5, "low bound {lo_hit}");
        assert!((hi_hit - 1.0).abs() < 1e-12, "high bound {hi_hit}");
        let (lo_miss, hi_miss) = wilson_interval(0, 1, 1.96);
        assert!((lo_miss - 0.0).abs() < 1e-12, "low bound {lo_miss}");
        assert!(hi_miss > 0.5 && hi_miss < 1.0, "high bound {hi_miss}");
        // Symmetry: one hit and one miss mirror each other around 1/2.
        assert!((lo_hit - (1.0 - hi_miss)).abs() < 1e-12);
    }

    #[test]
    fn wilson_contains_point_estimate_and_narrows_with_n() {
        let (lo_s, hi_s) = wilson_interval(25, 100, 1.96);
        assert!(lo_s < 0.25 && 0.25 < hi_s);
        let (lo_l, hi_l) = wilson_interval(2500, 10000, 1.96);
        assert!(hi_l - lo_l < hi_s - lo_s);
        assert!(lo_l < 0.25 && 0.25 < hi_l);
    }

    #[test]
    fn wilson_on_counter_matches_free_function() {
        let mut c = RatioCounter::new();
        for i in 0..40 {
            c.record(i % 5 == 0);
        }
        assert_eq!(c.wilson_interval(1.96), wilson_interval(8, 40, 1.96));
    }

    #[test]
    fn reset_clears() {
        let mut c = RatioCounter::new();
        c.record(true);
        c.reset();
        assert_eq!(c.trials(), 0);
        assert_eq!(c.ratio(), None);
    }
}
