//! Atomic metrics registry: counters, max-gauges, and log-linear timing
//! histograms — global and `CellId`-sharded — all `const`-constructible
//! statics so instrumentation sites pay no registration cost.
//!
//! All operations use relaxed atomics — metrics are telemetry, not
//! synchronization. Hot-path discipline: callers must gate both the
//! `Instant::now()` pair *and* the `record` call behind
//! [`crate::recorder::enabled`], so the disabled path stays a single
//! atomic load and branch.

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

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

/// The nameless interior of a log-linear histogram: bucket array plus
/// sum/count, shared by [`AtomicHistogram`] (one instance) and
/// [`ShardedHistogram`] (one per cell shard).
struct HistCore {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistCore {
    const fn new() -> Self {
        HistCore {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Adds this core's occupied buckets into `dense` (a `NUM_BUCKETS`
    /// array) and returns `(sum, count)`.
    fn accumulate(&self, dense: &mut [u64; NUM_BUCKETS]) -> (u64, u64) {
        for (d, b) in dense.iter_mut().zip(&self.buckets) {
            *d += b.load(Ordering::Relaxed);
        }
        (
            self.sum.load(Ordering::Relaxed),
            self.count.load(Ordering::Relaxed),
        )
    }

    fn snapshot(&self, name: &'static str, help: &'static str) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((lower_bound(i), n));
            }
        }
        HistogramSnapshot {
            name,
            help,
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.count.store(0, Ordering::Relaxed);
    }

    /// Adds this core's contents into `dst` (slab resize carry-over).
    fn merge_into(&self, dst: &HistCore) {
        for (src, d) in self.buckets.iter().zip(&dst.buckets) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                d.fetch_add(n, Ordering::Relaxed);
            }
        }
        dst.sum
            .fetch_add(self.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        dst.count
            .fetch_add(self.count.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// A lock-free log-linear histogram over `u64` samples (nanoseconds, by
/// convention), using the bucket layout of [`crate::loglin`].
pub struct AtomicHistogram {
    name: &'static str,
    help: &'static str,
    core: HistCore,
}

/// A point-in-time copy of an [`AtomicHistogram`] (or one shard / the
/// merged view of a [`ShardedHistogram`]), with only the occupied buckets
/// materialized.
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
            core: HistCore::new(),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.core.record(v);
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
        self.core.count()
    }

    /// Copies out the occupied buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.core.snapshot(self.name, self.help)
    }

    pub(crate) fn reset(&self) {
        self.core.reset();
    }
}

/// Default number of exact cell shards; cells with ids `>=` the live
/// limit fold into one shared overflow shard (labelled `"other"`). Runs
/// on larger topologies raise the limit with [`configure_cell_shards`] /
/// [`ensure_cell_shards`] so per-cell attribution survives metro scale.
pub const CELL_SHARDS: usize = 64;

/// Ceiling on configurable shard counts (per histogram) so a corrupt
/// topology size cannot balloon the registry.
const MAX_CELL_SHARDS: usize = 1 << 20;

/// The live shard limit; new slabs size themselves from it.
static CELL_SHARD_LIMIT: AtomicUsize = AtomicUsize::new(CELL_SHARDS);

/// The number of exact per-cell shards currently configured (ids `>=`
/// this fold into `"other"`). Starts at [`CELL_SHARDS`].
pub fn cell_shards() -> usize {
    CELL_SHARD_LIMIT.load(Ordering::Relaxed)
}

/// Sets the shard limit and resizes every registered sharded histogram,
/// carrying existing samples over (shards without an exact slot in the
/// new layout fold into `"other"`). Intended for run setup — the sim
/// engine calls [`ensure_cell_shards`] with the topology size before
/// events flow.
pub fn configure_cell_shards(n: usize) {
    let limit = n.clamp(1, MAX_CELL_SHARDS);
    CELL_SHARD_LIMIT.store(limit, Ordering::Relaxed);
    for h in sharded_histograms() {
        h.resize(limit);
    }
}

/// Grow-only form of [`configure_cell_shards`]: raises the limit to at
/// least `n`, never shrinks (concurrent runs in one process keep the
/// largest topology's attribution).
pub fn ensure_cell_shards(n: usize) {
    if n > cell_shards() {
        configure_cell_shards(n);
    }
}

/// Heap slab backing one [`ShardedHistogram`]: `limit` exact per-cell
/// cores plus the trailing overflow core. The slab carries its own
/// length, so a recorder that loaded it just before a resize still
/// indexes in bounds.
struct Slab {
    shards: Box<[HistCore]>,
}

impl Slab {
    fn with_limit(limit: usize) -> Box<Slab> {
        Box::new(Slab {
            shards: (0..=limit).map(|_| HistCore::new()).collect(),
        })
    }

    /// Index of the overflow shard (= number of exact shards).
    fn limit(&self) -> usize {
        self.shards.len() - 1
    }
}

/// A [`AtomicHistogram`] sharded by `CellId`, for attributing hot-path
/// cost to individual cells under skewed mobility.
///
/// Shard `i < limit` holds exactly cell `i`; one extra overflow shard
/// aggregates every larger id. The shard count follows the process-wide
/// [`cell_shards`] limit (topology-aware via [`ensure_cell_shards`]);
/// the slab allocates lazily on first record. Shards share the
/// [`crate::loglin`] bucket layout, so any subset merges losslessly —
/// the exporter's global view sums the shard buckets directly, and
/// `qres_stats::LogLinearHistogram` (the mergeable value-type twin) can
/// re-aggregate per-cell snapshots offline to the identical result.
pub struct ShardedHistogram {
    name: &'static str,
    help: &'static str,
    slab: AtomicPtr<Slab>,
}

impl ShardedHistogram {
    /// Creates a named sharded histogram (for use in `static` items).
    pub const fn new(name: &'static str, help: &'static str) -> Self {
        ShardedHistogram {
            name,
            help,
            slab: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    /// The live slab, allocated on first touch at the current
    /// [`cell_shards`] limit.
    fn slab(&self) -> &Slab {
        let p = self.slab.load(Ordering::Acquire);
        if !p.is_null() {
            return unsafe { &*p };
        }
        let fresh = Box::into_raw(Slab::with_limit(cell_shards()));
        match self.slab.compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => unsafe { &*fresh },
            Err(winner) => {
                // Another thread initialized first; discard ours.
                drop(unsafe { Box::from_raw(fresh) });
                unsafe { &*winner }
            }
        }
    }

    /// Swaps in a slab sized for `limit`, carrying existing samples over
    /// (old shards without an exact slot, and the old overflow shard,
    /// fold into the new overflow shard). The old slab is intentionally
    /// leaked: a concurrent recorder may still hold a reference, and
    /// resizes happen O(1) times per run at setup, so the leak is
    /// bounded.
    fn resize(&self, limit: usize) {
        loop {
            let old_ptr = self.slab.load(Ordering::Acquire);
            if !old_ptr.is_null() && unsafe { &*old_ptr }.limit() == limit {
                return;
            }
            let new = Slab::with_limit(limit);
            if !old_ptr.is_null() {
                let old = unsafe { &*old_ptr };
                let old_limit = old.limit();
                for (i, core) in old.shards.iter().enumerate() {
                    let dst = if i == old_limit { limit } else { i.min(limit) };
                    core.merge_into(&new.shards[dst]);
                }
            }
            let new_ptr = Box::into_raw(new);
            match self
                .slab
                .compare_exchange(old_ptr, new_ptr, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                // Lost a race with init/another resize: retry against the
                // winner's slab so its samples carry over too.
                Err(_) => drop(unsafe { Box::from_raw(new_ptr) }),
            }
        }
    }

    /// The shard index a cell id lands in under the current limit.
    #[inline]
    pub fn shard_of(cell: u32) -> usize {
        (cell as usize).min(cell_shards())
    }

    /// The `cell` label value for a shard index (`"7"`, or `"other"` for
    /// this histogram's overflow shard).
    pub fn shard_label(&self, shard: usize) -> String {
        if shard < self.slab().limit() {
            shard.to_string()
        } else {
            "other".to_string()
        }
    }

    /// Records one sample attributed to `cell`. Ids that fold into the
    /// overflow shard bump [`SHARD_OVERFLOW_TOTAL`], making a topology
    /// that outgrew the configured shard limit visible in the scrape
    /// instead of silently blurring per-cell attribution.
    #[inline]
    pub fn record_cell(&self, cell: u32, v: u64) {
        let slab = self.slab();
        let limit = slab.limit();
        let shard = (cell as usize).min(limit);
        if shard == limit {
            SHARD_OVERFLOW_TOTAL.add(1);
        }
        slab.shards[shard].record(v);
    }

    /// Records a wall-clock duration (nanoseconds) attributed to `cell`.
    #[inline]
    pub fn record_cell_duration(&self, cell: u32, d: std::time::Duration) {
        self.record_cell(cell, d.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    /// Metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Help text.
    pub fn help(&self) -> &'static str {
        self.help
    }

    /// Total samples across all shards.
    pub fn count(&self) -> u64 {
        self.slab().shards.iter().map(HistCore::count).sum()
    }

    /// Samples recorded in the shard `cell` lands in (delta-friendly for
    /// tests that share the process-global registry).
    pub fn shard_count(&self, cell: u32) -> u64 {
        let slab = self.slab();
        slab.shards[(cell as usize).min(slab.limit())].count()
    }

    /// Shard indices with at least one sample, ascending.
    pub fn nonempty_shards(&self) -> Vec<usize> {
        let slab = self.slab();
        (0..slab.shards.len())
            .filter(|&i| slab.shards[i].count() > 0)
            .collect()
    }

    /// Snapshot of one shard.
    pub fn shard_snapshot(&self, shard: usize) -> HistogramSnapshot {
        self.slab().shards[shard].snapshot(self.name, self.help)
    }

    /// The global view: all shards merged bucket-wise (the shards share
    /// one bucket layout, so this is a lossless sum).
    pub fn merged_snapshot(&self) -> HistogramSnapshot {
        let mut dense = [0u64; NUM_BUCKETS];
        let mut sum = 0u64;
        let mut count = 0u64;
        for shard in self.slab().shards.iter() {
            let (s, c) = shard.accumulate(&mut dense);
            sum = sum.saturating_add(s);
            count += c;
        }
        let buckets = dense
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (lower_bound(i), n))
            .collect();
        HistogramSnapshot {
            name: self.name,
            help: self.help,
            buckets,
            sum,
            count,
        }
    }

    fn reset(&self) {
        let p = self.slab.load(Ordering::Acquire);
        if p.is_null() {
            return;
        }
        for shard in unsafe { &*p }.shards.iter() {
            shard.reset();
        }
    }
}

// ---------------------------------------------------------------------------
// The well-known instruments. Names follow Prometheus conventions:
// `_ns` histograms are wall-clock nanoseconds, `_total` are counters.
// ---------------------------------------------------------------------------

/// Wall-clock time of one new-connection admission test (`qres-core`),
/// sharded by requesting cell.
pub static ADMISSION_TEST_NS: ShardedHistogram = ShardedHistogram::new(
    "qres_admission_test_ns",
    "Wall-clock nanoseconds per new-connection admission test",
);

/// Wall-clock time of one full `compute_br` call (Eqs. 5-6, all neighbor
/// terms), sharded by the cell whose `B_r` was computed.
pub static BR_COMPUTE_NS: ShardedHistogram = ShardedHistogram::new(
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

/// Samples recorded against the overflow shard of any [`ShardedHistogram`]
/// (cell id `>=` the configured [`cell_shards`] limit); non-zero means
/// per-cell attribution is lossy and the run's setup forgot to call
/// [`ensure_cell_shards`] for this topology.
pub static SHARD_OVERFLOW_TOTAL: Counter = Counter::new(
    "qres_obs_shard_overflow_total",
    "Sharded-histogram samples folded into the 'other' shard (cell id >= shard limit)",
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

/// Every registered global (unsharded) histogram, in export order.
pub fn histograms() -> [&'static AtomicHistogram; 5] {
    [
        &BATCHED_CONTRIBUTION_NS,
        &BR_TERM_HIT_NS,
        &BR_TERM_MISS_NS,
        &EVENT_DISPATCH_NS,
        &SWEEP_POINT_NS,
    ]
}

/// Every registered cell-sharded histogram, in export order.
pub fn sharded_histograms() -> [&'static ShardedHistogram; 2] {
    [&ADMISSION_TEST_NS, &BR_COMPUTE_NS]
}

/// Every registered counter, in export order.
pub fn counters() -> [&'static Counter; 15] {
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
        &SHARD_OVERFLOW_TOTAL,
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
    for h in sharded_histograms() {
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

    /// Serializes tests that record into overflow shards, so delta
    /// assertions on the process-global `SHARD_OVERFLOW_TOTAL` hold.
    static OVERFLOW_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn sharded_histogram_attributes_and_merges() {
        let _guard = OVERFLOW_LOCK.lock().unwrap();
        static S: ShardedHistogram = ShardedHistogram::new("t_sharded_ns", "test");
        S.record_cell(2, 10);
        S.record_cell(2, 20);
        S.record_cell(7, 1_000);
        // Overflow cells fold into the shared "other" shard.
        S.record_cell(CELL_SHARDS as u32, 5);
        S.record_cell(CELL_SHARDS as u32 + 100, 7);
        assert_eq!(S.nonempty_shards(), vec![2, 7, CELL_SHARDS]);
        assert_eq!(S.shard_label(2), "2");
        assert_eq!(S.shard_label(CELL_SHARDS), "other");

        let cell2 = S.shard_snapshot(2);
        assert_eq!(cell2.count, 2);
        assert_eq!(cell2.sum, 30);
        assert_eq!(S.shard_snapshot(CELL_SHARDS).count, 2);

        // The merged view equals the sum of the shards, bucket for bucket.
        let merged = S.merged_snapshot();
        assert_eq!(merged.count, 5);
        assert_eq!(merged.sum, 10 + 20 + 1_000 + 5 + 7);
        let shard_bucket_total: u64 = S
            .nonempty_shards()
            .iter()
            .flat_map(|&i| S.shard_snapshot(i).buckets)
            .map(|(_, n)| n)
            .sum();
        let merged_bucket_total: u64 = merged.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(shard_bucket_total, merged_bucket_total);
    }

    #[test]
    fn overflow_fold_bumps_shard_overflow_counter() {
        let _guard = OVERFLOW_LOCK.lock().unwrap();
        static S: ShardedHistogram = ShardedHistogram::new("t_overflow_ns", "test");
        let before = SHARD_OVERFLOW_TOTAL.get();
        S.record_cell(CELL_SHARDS as u32 - 1, 1); // exact shard: no overflow
        assert_eq!(SHARD_OVERFLOW_TOTAL.get(), before);
        S.record_cell(CELL_SHARDS as u32, 1);
        S.record_cell(u32::MAX, 1);
        assert_eq!(SHARD_OVERFLOW_TOTAL.get(), before + 2);
    }

    #[test]
    fn registry_shapes() {
        assert_eq!(histograms().len(), 5);
        assert_eq!(sharded_histograms().len(), 2);
        assert_eq!(counters().len(), 15);
        assert_eq!(gauges().len(), 2);
        let names: Vec<_> = histograms().iter().map(|h| h.name()).collect();
        assert!(names.contains(&"qres_event_dispatch_ns"));
        let sharded: Vec<_> = sharded_histograms().iter().map(|h| h.name()).collect();
        assert!(sharded.contains(&"qres_admission_test_ns"));
        assert!(sharded.contains(&"qres_br_compute_ns"));
        let counter_names: Vec<_> = counters().iter().map(|c| c.name()).collect();
        assert!(counter_names.contains(&"qres_obs_shard_overflow_total"));
        let gauge_names: Vec<_> = gauges().iter().map(|g| g.name()).collect();
        assert!(gauge_names.contains(&"qres_des_queue_high_water"));
    }

    #[test]
    fn runtime_resize_preserves_samples_and_stops_overflow() {
        let _guard = OVERFLOW_LOCK.lock().unwrap();
        static S: ShardedHistogram = ShardedHistogram::new("t_resize_ns", "test");
        S.record_cell(3, 10);
        S.record_cell(700, 5); // folds under the default 64-shard limit
        let overflow_before = SHARD_OVERFLOW_TOTAL.get();
        // Grow the slab the way `configure_cell_shards` does for the
        // registered histograms (S is a local test instrument).
        S.resize(1024);
        S.record_cell(700, 7); // now has an exact shard
        assert_eq!(SHARD_OVERFLOW_TOTAL.get(), overflow_before);
        assert_eq!(S.shard_count(700), 1);
        assert_eq!(S.shard_label(700), "700");
        assert_eq!(S.shard_label(1024), "other");
        // Pre-resize samples survive the swap: the exact shard carries
        // over, the previously folded one stays attributed to "other".
        let merged = S.merged_snapshot();
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum, 22);
        assert_eq!(S.shard_count(3), 1);
        assert_eq!(S.shard_snapshot(1024).count, 1);
    }

    /// The engine grows the shard slab with `ensure_cell_shards` while
    /// other threads may already be recording (a concurrent sweep point,
    /// or a second larger run in the same process). Under concurrent record
    /// the grow must neither fold in-bounds cells (the overflow counter
    /// stays flat) nor drop samples that were in the slab when the copy
    /// started — including previously folded ones, which carry into the
    /// new overflow shard.
    #[test]
    fn ensure_cell_shards_grows_safely_under_concurrent_record() {
        let _guard = OVERFLOW_LOCK.lock().unwrap();
        static S: ShardedHistogram = ShardedHistogram::new("t_concurrent_grow_ns", "test");

        // Pre-grow: exact shards under the seed limit, plus two samples
        // that fold (cell 700 has no exact slot yet).
        for c in 0..8u32 {
            S.record_cell(c, 1);
        }
        S.record_cell(700, 5);
        S.record_cell(700, 5);
        let overflow_after_fold = SHARD_OVERFLOW_TOTAL.get();

        // Hammer in-bounds cells from four threads while the main thread
        // grows the slab through three layouts — the same resize path
        // `ensure_cell_shards` drives on engine setup.
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let stop = &stop;
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        S.record_cell(8 + t, 1);
                    }
                });
            }
            for limit in [256usize, 1024, 4096] {
                S.resize(limit);
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(
            SHARD_OVERFLOW_TOTAL.get(),
            overflow_after_fold,
            "in-bounds records across a mid-run grow must never fold"
        );

        // Every pre-grow sample survived the chained copies: the exact
        // shards carried over slot-for-slot, and the two folded samples
        // moved overflow-shard-to-overflow-shard.
        for c in 0..8u32 {
            assert_eq!(S.shard_count(c), 1, "cell {c} sample lost in grow");
        }
        let other = S.shard_snapshot(4096);
        assert_eq!(other.count, 2);
        assert_eq!(other.sum, 10);

        // Post-grow, cell 700 has an exact slot and records cleanly.
        S.record_cell(700, 7);
        assert_eq!(S.shard_count(700), 1);
        assert_eq!(S.shard_label(700), "700");
        assert_eq!(SHARD_OVERFLOW_TOTAL.get(), overflow_after_fold);

        // The grow-only global limit behaves the same way for the
        // registered histograms (no fold after an ensure).
        ensure_cell_shards(4096);
        let before = SHARD_OVERFLOW_TOTAL.get();
        ADMISSION_TEST_NS.record_cell(3000, 9);
        assert_eq!(SHARD_OVERFLOW_TOTAL.get(), before);
        configure_cell_shards(CELL_SHARDS);
    }

    #[test]
    fn configure_cell_shards_is_topology_aware() {
        let _guard = OVERFLOW_LOCK.lock().unwrap();
        configure_cell_shards(2048);
        assert_eq!(cell_shards(), 2048);
        let before = SHARD_OVERFLOW_TOTAL.get();
        ADMISSION_TEST_NS.record_cell(1500, 9);
        assert_eq!(
            SHARD_OVERFLOW_TOTAL.get(),
            before,
            "cell inside the configured limit must not fold"
        );
        // Grow-only: ensure never shrinks an already larger limit.
        ensure_cell_shards(64);
        assert_eq!(cell_shards(), 2048);
        // Restore the default so sibling tests see the seed layout.
        configure_cell_shards(CELL_SHARDS);
        assert_eq!(cell_shards(), CELL_SHARDS);
    }
}
