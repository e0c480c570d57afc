//! Atomic metrics registry: counters, max-gauges, and log-linear timing
//! histograms, all `const`-constructible statics so instrumentation sites
//! pay no registration cost.
//!
//! All operations use relaxed atomics — metrics are telemetry, not
//! synchronization. Hot-path discipline: callers must gate both the
//! `Instant::now()` pair *and* the `record` call behind
//! [`crate::recorder::enabled`], so the disabled path stays a single
//! atomic load and branch.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::loglin::{bucket_index, lower_bound, NUM_BUCKETS};

/// A monotonically increasing counter.
pub struct Counter {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Creates a named counter (for use in `static` items).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        Counter {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Metric name (Prometheus-style, `_total` suffix by convention).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Help text.
    pub fn help(&self) -> &'static str {
        self.help
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A gauge that tracks the maximum value observed (high-water mark).
pub struct MaxGauge {
    name: &'static str,
    help: &'static str,
    value: AtomicU64,
}

impl MaxGauge {
    /// Creates a named max-gauge (for use in `static` items).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        MaxGauge {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// Raises the gauge to `v` if larger than the current value.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current high-water mark.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Help text.
    pub fn help(&self) -> &'static str {
        self.help
    }

    fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A lock-free log-linear histogram over `u64` samples (nanoseconds, by
/// convention), using the bucket layout of [`crate::loglin`].
pub struct AtomicHistogram {
    name: &'static str,
    help: &'static str,
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// A point-in-time copy of an [`AtomicHistogram`], with only the occupied
/// buckets materialized.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Help text.
    pub help: &'static str,
    /// `(bucket lower bound, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
    /// Sum of all recorded samples.
    pub sum: u64,
    /// Number of recorded samples.
    pub count: u64,
}

impl HistogramSnapshot {
    /// An approximate quantile: the lower bound of the bucket holding the
    /// `q`-th sample (`0.0 <= q <= 1.0`). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for &(lb, n) in &self.buckets {
            seen += n;
            if seen >= target {
                return Some(lb);
            }
        }
        self.buckets.last().map(|&(lb, _)| lb)
    }

    /// Mean of the recorded samples; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

impl AtomicHistogram {
    /// Creates a named histogram (for use in `static` items).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        AtomicHistogram {
            name,
            help,
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a wall-clock duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Help text.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies out the occupied buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((lower_bound(i), n));
            }
        }
        HistogramSnapshot {
            name: self.name,
            help: self.help,
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }
}

/// Does nothing: timing histograms are not split by cell. Exists only for
/// `qres-perf`'s traced replay, and goes with that call in the next change
/// to the benchmark.
pub fn ensure_cell_shards(_: usize) {}

// ---------------------------------------------------------------------------
// The well-known instruments. Names follow Prometheus conventions:
// `_ns` histograms are wall-clock nanoseconds, `_total` are counters.
// ---------------------------------------------------------------------------

/// Wall-clock time of one new-connection admission test (`qres-core`).
pub static ADMISSION_TEST_NS: AtomicHistogram = AtomicHistogram::new(
    "qres_admission_test_ns",
    "Wall-clock nanoseconds per new-connection admission test",
);

/// Wall-clock time of one full `compute_br` call (Eqs. 5-6, all neighbor
/// terms).
pub static BR_COMPUTE_NS: AtomicHistogram = AtomicHistogram::new(
    "qres_br_compute_ns",
    "Wall-clock nanoseconds per full B_r target computation (Eqs. 5-6)",
);

/// Wall-clock time of one `B_i,0` evaluation: the Eq.-4 pass over a
/// neighbor's connections in `qres_core::neighbor_contribution`,
/// calibration staging included.
pub static BATCHED_CONTRIBUTION_NS: AtomicHistogram = AtomicHistogram::new(
    "qres_batched_contribution_ns",
    "Wall-clock nanoseconds per B_i,0 evaluation (one Eq.-4 pass over a neighbor cell)",
);

/// Wall-clock time of a `compute_br` neighbor term served from the memo.
pub static BR_TERM_HIT_NS: AtomicHistogram = AtomicHistogram::new(
    "qres_br_term_hit_ns",
    "Wall-clock nanoseconds per compute_br neighbor term served from the epoch memo",
);

/// Wall-clock time of a `compute_br` neighbor term recomputed via Eq. 4.
pub static BR_TERM_MISS_NS: AtomicHistogram = AtomicHistogram::new(
    "qres_br_term_miss_ns",
    "Wall-clock nanoseconds per compute_br neighbor term recomputed through Eq. 4",
);

/// Wall-clock time of one DES handler dispatch (`qres-des`).
pub static EVENT_DISPATCH_NS: AtomicHistogram = AtomicHistogram::new(
    "qres_event_dispatch_ns",
    "Wall-clock nanoseconds per discrete-event handler dispatch",
);

/// Wall-clock time of one offered-load sweep point (`qres-sim`).
pub static SWEEP_POINT_NS: AtomicHistogram = AtomicHistogram::new(
    "qres_sweep_point_ns",
    "Wall-clock nanoseconds per offered-load sweep point (full scenario run)",
);

/// Messages sent over the wired backbone.
pub static BACKBONE_MSGS_TOTAL: Counter = Counter::new(
    "qres_backbone_msgs_total",
    "Signaling messages sent over the wired backbone",
);

/// Bytes sent over the wired backbone (nominal message sizes).
pub static BACKBONE_BYTES_TOTAL: Counter = Counter::new(
    "qres_backbone_bytes_total",
    "Nominal bytes sent over the wired backbone",
);

/// Quadruplets inserted into HOE caches.
pub static HOE_INSERTS_TOTAL: Counter = Counter::new(
    "qres_hoe_inserts_total",
    "Hand-off event quadruplets inserted into HOE caches",
);

/// Quadruplets evicted from HOE caches.
pub static HOE_EVICTS_TOTAL: Counter = Counter::new(
    "qres_hoe_evicts_total",
    "Hand-off event quadruplets evicted from HOE caches (N_quad / retention)",
);

/// `T_est` window increases (Fig. 6 upward adaptation).
pub static T_EST_INCREASES_TOTAL: Counter = Counter::new(
    "qres_t_est_increases_total",
    "Adaptive-window T_est increases (including capped)",
);

/// `T_est` window decreases (Fig. 6 downward adaptation).
pub static T_EST_DECREASES_TOTAL: Counter = Counter::new(
    "qres_t_est_decreases_total",
    "Adaptive-window T_est decreases (including floored)",
);

/// `compute_br` neighbor terms served from the epoch memo.
pub static BR_MEMO_HITS_TOTAL: Counter = Counter::new(
    "qres_br_memo_hits_total",
    "compute_br neighbor terms served from the epoch memo",
);

/// `compute_br` neighbor terms recomputed through Eq. 4.
pub static BR_TERMS_RECOMPUTED_TOTAL: Counter = Counter::new(
    "qres_br_terms_recomputed_total",
    "compute_br neighbor terms recomputed through Eq. 4",
);

/// Individual `B_i,0` connection terms evaluated in Eq.-4 passes.
pub static B_I0_EVALS_TOTAL: Counter = Counter::new(
    "qres_b_i0_evals_total",
    "Individual B_i,0 connection terms evaluated during Eq.-4 passes",
);

/// Events accepted by the recorder.
pub static EVENTS_RECORDED_TOTAL: Counter = Counter::new(
    "qres_obs_events_recorded_total",
    "Structured events accepted by the recorder",
);

/// Events lost to ring overwrites (no spill file configured).
pub static EVENTS_DROPPED_TOTAL: Counter = Counter::new(
    "qres_obs_events_dropped_total",
    "Structured events lost to ring-buffer overwrites",
);

/// Debug-tier events skipped by 1-in-N sampling (not recorded, not
/// dropped; rescale scraped rates by `qres_obs_sample_rate`).
pub static EVENTS_SAMPLED_OUT_TOTAL: Counter = Counter::new(
    "qres_obs_events_sampled_out_total",
    "High-frequency events skipped by 1-in-N debug-tier sampling",
);

/// Offered-load sweep points planned (enqueued by `sweep_offered_load`).
pub static SWEEP_POINTS_PLANNED_TOTAL: Counter = Counter::new(
    "qres_sweep_points_planned_total",
    "Offered-load sweep points enqueued for execution",
);

/// Offered-load sweep points completed; with the planned counter this is
/// the live progress gauge a scraper watches during a long sweep.
pub static SWEEP_POINTS_DONE_TOTAL: Counter = Counter::new(
    "qres_sweep_points_done_total",
    "Offered-load sweep points completed",
);

/// Every registered histogram, in export order.
pub fn histograms() -> [&'static AtomicHistogram; 7] {
    [
        &BATCHED_CONTRIBUTION_NS,
        &BR_TERM_HIT_NS,
        &BR_TERM_MISS_NS,
        &EVENT_DISPATCH_NS,
        &SWEEP_POINT_NS,
        &ADMISSION_TEST_NS,
        &BR_COMPUTE_NS,
    ]
}

/// Every registered counter, in export order.
pub fn counters() -> [&'static Counter; 14] {
    [
        &BACKBONE_MSGS_TOTAL,
        &BACKBONE_BYTES_TOTAL,
        &HOE_INSERTS_TOTAL,
        &HOE_EVICTS_TOTAL,
        &T_EST_INCREASES_TOTAL,
        &T_EST_DECREASES_TOTAL,
        &BR_MEMO_HITS_TOTAL,
        &BR_TERMS_RECOMPUTED_TOTAL,
        &B_I0_EVALS_TOTAL,
        &EVENTS_RECORDED_TOTAL,
        &EVENTS_DROPPED_TOTAL,
        &EVENTS_SAMPLED_OUT_TOTAL,
        &SWEEP_POINTS_PLANNED_TOTAL,
        &SWEEP_POINTS_DONE_TOTAL,
    ]
}

/// Every registered max-gauge, in export order.
pub fn gauges() -> [&'static MaxGauge; 2] {
    [&QUEUE_HIGH_WATER, &ACTIVE_MOBILES]
}

/// High-water mark of live events in the DES queue.
pub static QUEUE_HIGH_WATER: MaxGauge = MaxGauge::new(
    "qres_des_queue_high_water",
    "High-water mark of live (non-cancelled) events in the DES queue",
);

/// High-water mark of simultaneously active mobiles.
pub static ACTIVE_MOBILES: MaxGauge = MaxGauge::new(
    "qres_active_mobiles_high_water",
    "High-water mark of simultaneously active mobile connections",
);

/// Zeroes every instrument in the registry (between runs / tests).
pub fn reset_metrics() {
    for h in histograms() {
        h.reset();
    }
    for c in counters() {
        c.reset();
    }
    for g in gauges() {
        g.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        static C: Counter = Counter::new("t_total", "test");
        static G: MaxGauge = MaxGauge::new("t_gauge", "test");
        C.add(2);
        C.add(3);
        assert_eq!(C.get(), 5);
        G.observe(7);
        G.observe(3);
        assert_eq!(G.get(), 7);
    }

    #[test]
    fn histogram_snapshot_and_quantiles() {
        static H: AtomicHistogram = AtomicHistogram::new("t_ns", "test");
        for v in [1u64, 1, 2, 100, 1_000_000] {
            H.record(v);
        }
        let s = H.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1_000_104);
        assert!(s.buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(s.quantile(0.0), Some(1));
        assert_eq!(s.quantile(0.5), Some(2));
        // p100 lands in the bucket containing 1e6 (within 1/16 relative).
        let top = s.quantile(1.0).unwrap();
        assert!(top <= 1_000_000 && 1_000_000 - top <= 1_000_000 / 16);
        assert_eq!(s.mean(), Some(1_000_104.0 / 5.0));
    }

    #[test]
    fn registry_shapes() {
        assert_eq!(histograms().len(), 7);
        assert_eq!(counters().len(), 14);
        assert_eq!(gauges().len(), 2);
        let names: Vec<_> = histograms().iter().map(|h| h.name()).collect();
        assert!(names.contains(&"qres_event_dispatch_ns"));
        assert!(names.contains(&"qres_admission_test_ns"));
        assert!(names.contains(&"qres_br_compute_ns"));
        let gauge_names: Vec<_> = gauges().iter().map(|g| g.name()).collect();
        assert!(gauge_names.contains(&"qres_des_queue_high_water"));
    }
}
