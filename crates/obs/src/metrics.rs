//! The metrics registry: counters, max-gauges, and log-linear timing
//! histograms.
//!
//! The values live in the calling thread's [`crate::Obs`] (a
//! `Registry` of relaxed atomics, so workers sharing a handle can add
//! to it concurrently). The `metrics::*` names are immutable descriptors
//! — a name and a slot in the registry — so instrumentation
//! sites pay no registration cost. All operations use relaxed atomics:
//! metrics are telemetry, not synchronization. Hot-path discipline:
//! callers must gate both the `Instant::now()` pair *and* the `record`
//! call behind [`crate::enabled`], so the disabled path stays
//! one thread-local read and a branch.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::loglin::{bucket_index, lower_bound, NUM_BUCKETS};

const COUNTERS: usize = 8;
const GAUGES: usize = 2;
const HISTOGRAMS: usize = 5;

/// The metric values of one [`crate::Obs`], indexed by descriptor slot.
pub(crate) struct Registry {
    counters: [AtomicU64; COUNTERS],
    gauges: [AtomicU64; GAUGES],
    histograms: [HistogramCells; HISTOGRAMS],
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            counters: [const { AtomicU64::new(0) }; COUNTERS],
            gauges: [const { AtomicU64::new(0) }; GAUGES],
            histograms: [const { HistogramCells::new() }; HISTOGRAMS],
        }
    }
}

/// The buckets, sum and count of one histogram.
struct HistogramCells {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistogramCells {
    const fn new() -> Self {
        HistogramCells {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// A monotonically increasing counter.
pub struct Counter {
    slot: usize,
    name: &'static str,
}

impl Counter {
    const fn new(slot: usize, name: &'static str) -> Self {
        Counter { slot, name }
    }

    /// This counter's value in `obs`.
    pub(crate) fn cell<'a>(&self, obs: &'a crate::Obs) -> &'a AtomicU64 {
        &obs.metrics.counters[self.slot]
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        crate::with(|o| self.cell(o).fetch_add(n, Ordering::Relaxed));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        crate::with(|o| self.cell(o).load(Ordering::Relaxed))
    }

    /// Metric name (`_total` suffix by convention).
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A gauge that tracks the maximum value observed (high-water mark).
pub struct MaxGauge {
    slot: usize,
    name: &'static str,
}

impl MaxGauge {
    const fn new(slot: usize, name: &'static str) -> Self {
        MaxGauge { slot, name }
    }

    fn cell<'a>(&self, obs: &'a crate::Obs) -> &'a AtomicU64 {
        &obs.metrics.gauges[self.slot]
    }

    /// Raises the gauge to `v` if larger than the current value.
    #[inline]
    pub fn observe(&self, v: u64) {
        crate::with(|o| self.cell(o).fetch_max(v, Ordering::Relaxed));
    }

    /// Current high-water mark.
    pub fn get(&self) -> u64 {
        crate::with(|o| self.cell(o).load(Ordering::Relaxed))
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// A log-linear histogram over `u64` samples (nanoseconds, by
/// convention), using the bucket layout of [`crate::loglin`]; lock-free,
/// its cells are atomics.
pub struct AtomicHistogram {
    slot: usize,
    name: &'static str,
}

/// A point-in-time copy of an [`AtomicHistogram`], with only the occupied
/// buckets materialized.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: &'static str,
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
    const fn new(slot: usize, name: &'static str) -> Self {
        AtomicHistogram { slot, name }
    }

    fn cells<'a>(&self, obs: &'a crate::Obs) -> &'a HistogramCells {
        &obs.metrics.histograms[self.slot]
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        crate::with(|o| {
            let h = self.cells(o);
            h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
        });
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

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        crate::with(|o| self.cells(o).count.load(Ordering::Relaxed))
    }

    /// Copies out the occupied buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        crate::with(|o| {
            let h = self.cells(o);
            HistogramSnapshot {
                name: self.name,
                buckets: (h.buckets.iter().enumerate())
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then(|| (lower_bound(i), n))
                    })
                    .collect(),
                sum: h.sum.load(Ordering::Relaxed),
                count: h.count.load(Ordering::Relaxed),
            }
        })
    }
}

/// Does nothing: timing histograms are not split by cell. Exists only for
/// `qres-perf`'s traced replay, and goes with that call in the next change
/// to the benchmark.
pub fn ensure_cell_shards(_: usize) {}

/// Declares the instruments of one kind: a descriptor static per entry,
/// owning the registry slot of its position, and `$list()`, which returns
/// them all in that order, the export order.
macro_rules! instruments {
    ($ty:ident, $list:ident, $slot:ident, $len:ident;
     $($(#[$doc:meta])* $id:ident: $name:literal;)*) => {
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        enum $slot { $($id),* }
        $($(#[$doc])* pub static $id: $ty = $ty::new($slot::$id as usize, $name);)*
        #[doc = concat!("Every registered [`", stringify!($ty), "`], in export order.")]
        pub fn $list() -> [&'static $ty; $len] {
            [$(&$id),*]
        }
    };
}

// The well-known instruments. `_ns` histograms are wall-clock
// nanoseconds, `_total` are counters.

instruments! {
    AtomicHistogram, histograms, HistogramSlot, HISTOGRAMS;
    /// Wall-clock time of one `B_i,0` evaluation: the Eq.-4 pass over a
    /// neighbor's connections in `qres_core::neighbor_contribution`,
    /// calibration staging included.
    BATCHED_CONTRIBUTION_NS: "qres_batched_contribution_ns";
    /// Wall-clock time of one DES handler dispatch (`qres-des`).
    EVENT_DISPATCH_NS: "qres_event_dispatch_ns";
    /// Wall-clock time of one offered-load sweep point (`qres-sim`).
    SWEEP_POINT_NS: "qres_sweep_point_ns";
    /// Wall-clock time of one new-connection admission test (`qres-core`).
    ADMISSION_TEST_NS: "qres_admission_test_ns";
    /// Wall-clock time of one full `compute_br` call (Eqs. 5-6, all neighbor
    /// terms).
    BR_COMPUTE_NS: "qres_br_compute_ns";
}

instruments! {
    Counter, counters, CounterSlot, COUNTERS;
    /// Messages sent over the wired backbone.
    BACKBONE_MSGS_TOTAL: "qres_backbone_msgs_total";
    /// Bytes sent over the wired backbone (nominal message sizes).
    BACKBONE_BYTES_TOTAL: "qres_backbone_bytes_total";
    /// Quadruplets inserted into HOE caches.
    HOE_INSERTS_TOTAL: "qres_hoe_inserts_total";
    /// Quadruplets evicted from HOE caches (past `N_quad` or retention).
    HOE_EVICTS_TOTAL: "qres_hoe_evicts_total";
    /// `T_est` window increases (Fig. 6 upward adaptation), capped ones
    /// included.
    T_EST_INCREASES_TOTAL: "qres_t_est_increases_total";
    /// `T_est` window decreases (Fig. 6 downward adaptation), floored ones
    /// included.
    T_EST_DECREASES_TOTAL: "qres_t_est_decreases_total";
    /// `compute_br` neighbor terms recomputed through Eq. 4.
    BR_TERMS_RECOMPUTED_TOTAL: "qres_br_terms_recomputed_total";
    /// Connections Eq. 4 was evaluated for in `B_i,0` passes: the
    /// candidates of the `T_est` window only, not the connections outside
    /// it, whose term is known to be zero without an evaluation.
    B_I0_EVALS_TOTAL: "qres_b_i0_evals_total";
}

instruments! {
    MaxGauge, gauges, GaugeSlot, GAUGES;
    /// High-water mark of live (not cancelled) events in the DES queue.
    QUEUE_HIGH_WATER: "qres_des_queue_high_water";
    /// High-water mark of simultaneously active mobiles.
    ACTIVE_MOBILES: "qres_active_mobiles_high_water";
}

/// Zeroes every instrument in this thread's registry (between runs).
pub fn reset_metrics() {
    crate::with(|o| {
        let m = &o.metrics;
        let cells = m
            .histograms
            .iter()
            .flat_map(|h| (h.buckets.iter()).chain([&h.sum, &h.count]));
        for v in m.counters.iter().chain(&m.gauges).chain(cells) {
            v.store(0, Ordering::Relaxed);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let (c, g) = (&BACKBONE_MSGS_TOTAL, &QUEUE_HIGH_WATER);
        c.add(2);
        c.add(3);
        assert_eq!(c.get(), 5);
        g.observe(7);
        g.observe(3);
        assert_eq!(g.get(), 7);
        reset_metrics();
        assert_eq!((c.get(), g.get()), (0, 0));
    }

    #[test]
    fn histogram_snapshot_and_quantiles() {
        let h = &SWEEP_POINT_NS;
        for v in [1u64, 1, 2, 100, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1_000_104);
        assert!(s.buckets.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(s.quantile(0.0), Some(1));
        assert_eq!(s.quantile(0.5), Some(2));
        // p100 lands in the bucket containing 1e6 (within 1/16 relative).
        let top = s.quantile(1.0).unwrap();
        assert!(top <= 1_000_000 && 1_000_000 - top <= 1_000_000 / 16);
        assert_eq!(s.mean(), Some(1_000_104.0 / 5.0));
        reset_metrics();
        assert_eq!(h.count(), 0);
        assert!(h.snapshot().buckets.is_empty());
    }

    #[test]
    fn registry_shapes() {
        let names: Vec<_> = histograms().iter().map(|h| h.name()).collect();
        assert!(names.contains(&"qres_event_dispatch_ns"));
        assert!(names.contains(&"qres_admission_test_ns"));
        assert!(names.contains(&"qres_br_compute_ns"));
        let gauge_names: Vec<_> = gauges().iter().map(|g| g.name()).collect();
        assert!(gauge_names.contains(&"qres_des_queue_high_water"));
    }
}
