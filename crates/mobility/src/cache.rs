//! The per-cell hand-off estimation function cache.
//!
//! A [`HoeCache`] is the state one BS keeps to evaluate its hand-off
//! estimation function `F_HOE(t_o, prev, next, T_soj)`:
//!
//! * raw quadruplet storage per `(prev, next)` pair, in event-time order,
//!   pruned by the window retention rule (finite `T_int`) or capped at
//!   `N_quad` most-recent (infinite `T_int`, where older events can never
//!   outrank newer ones);
//! * an indexed **snapshot** per pair — the `≤ N_quad` quadruplets selected
//!   by the paper's priority rule (smaller window index `n` first, then
//!   smaller shifted-time distance from `t_o`), sorted by sojourn time with
//!   prefix-summed weights, so the estimator's numerator/denominator
//!   (Eq. 4) are two binary searches instead of a linear scan.
//!
//! Snapshots are built lazily, by the first query. After that:
//!
//! * infinite `T_int`: each recorded quadruplet updates its pair's
//!   snapshot **in place** (evicted sojourn out, new sojourn in at its
//!   sorted position). This is exact: every member carries weight `w_0`,
//!   so `prefix[i]` depends only on `i`, and membership does not drift
//!   with `t_o`. A store that is never queried only appends.
//! * finite `T_int`, where window membership drifts with `t_o`: the
//!   snapshot is rebuilt on the first query after it is older than a
//!   configurable refresh interval (default 30 simulated seconds, far
//!   finer than the 1-hour `T_int` the paper uses).
//!
//! With weekday/weekend separation enabled, quadruplets are routed into two
//! independent stores by the [`Calendar`] class of their event time, and
//! queries read the store matching the class of `t_o` (Section 3.1's
//! special-day sets).

use std::collections::{BTreeMap, VecDeque};

use qres_cellnet::CellId;
use qres_des::{Duration, SimTime};

use crate::calendar::{Calendar, DayClass};
use crate::quadruplet::HandoffEvent;
use crate::windows::WindowConfig;

/// The `prev` key of a pair store (`None` = connection started in-cell).
pub type PrevKey = Option<CellId>;

/// Configuration of one cell's estimation-function cache.
#[derive(Debug, Clone, PartialEq)]
pub struct HoeConfig {
    /// `N_quad` — the maximum number of quadruplets used per `(prev, next)`
    /// pair (paper: 100).
    pub n_quad: usize,
    /// Window structure for the regular (weekday) pattern.
    pub weekday_window: WindowConfig,
    /// Window structure for the weekend/holiday pattern; `None` disables
    /// calendar separation (all quadruplets share one store).
    pub weekend_window: Option<WindowConfig>,
    /// The calendar used to classify days when separation is enabled.
    pub calendar: Calendar,
    /// How stale a finite-`T_int` snapshot may get before rebuild.
    pub snapshot_refresh: Duration,
}

impl HoeConfig {
    /// The paper's stationary-scenario configuration:
    /// `N_quad = 100`, `T_int = ∞`, no calendar separation.
    pub fn stationary() -> Self {
        HoeConfig {
            n_quad: 100,
            weekday_window: WindowConfig::stationary(),
            weekend_window: None,
            calendar: Calendar::starting_monday(),
            snapshot_refresh: Duration::from_secs(30.0),
        }
    }

    /// The paper's time-varying configuration: `N_quad = 100`,
    /// `T_int = 1 h`, `N_win_days = 1`, `w_0 = w_1 = 1`.
    pub fn paper_time_varying() -> Self {
        HoeConfig {
            n_quad: 100,
            weekday_window: WindowConfig::paper_time_varying(),
            weekend_window: None,
            calendar: Calendar::starting_monday(),
            snapshot_refresh: Duration::from_secs(30.0),
        }
    }

    /// Validates sub-configurations. Panics on violation.
    pub fn validate(&self) {
        assert!(self.n_quad > 0, "N_quad must be positive");
        self.weekday_window.validate();
        if let Some(w) = &self.weekend_window {
            w.validate();
        }
        assert!(
            self.snapshot_refresh.is_positive(),
            "snapshot refresh must be positive"
        );
    }
}

/// Selected, sojourn-sorted quadruplets of one `(prev, next)` pair.
#[derive(Debug, Clone, Default)]
pub struct PairSnapshot {
    /// Sojourn times, ascending.
    sojourns: Vec<f64>,
    /// `prefix[i]` = total weight of `sojourns[..i]`; `prefix.len() ==
    /// sojourns.len() + 1`.
    prefix: Vec<f64>,
}

impl PairSnapshot {
    fn build(mut selected: Vec<(f64, f64)>) -> Self {
        // (t_soj, weight) pairs, sorted by sojourn.
        selected.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("sojourns are NaN-free"));
        let mut prefix = Vec::with_capacity(selected.len() + 1);
        prefix.push(0.0);
        let mut acc = 0.0;
        let mut sojourns = Vec::with_capacity(selected.len());
        for (s, w) in selected {
            acc += w;
            sojourns.push(s);
            prefix.push(acc);
        }
        PairSnapshot { sojourns, prefix }
    }

    /// Total selected weight.
    pub fn total_weight(&self) -> f64 {
        *self.prefix.last().unwrap_or(&0.0)
    }

    /// Number of selected quadruplets.
    pub fn len(&self) -> usize {
        self.sojourns.len()
    }

    /// True when no quadruplets were selected.
    pub fn is_empty(&self) -> bool {
        self.sojourns.is_empty()
    }

    /// Weight of quadruplets with `t_soj > a` (strict).
    pub fn weight_gt(&self, a: f64) -> f64 {
        let idx = self.sojourns.partition_point(|&s| s <= a);
        self.total_weight() - self.prefix[idx]
    }

    /// Weight of quadruplets with `a < t_soj ≤ b`.
    pub fn weight_in(&self, a: f64, b: f64) -> f64 {
        debug_assert!(b >= a);
        (self.weight_gt(a) - self.weight_gt(b)).max(0.0)
    }

    /// The largest selected sojourn, if any.
    pub fn max_sojourn(&self) -> Option<f64> {
        self.sojourns.last().copied()
    }

    /// The selected sojourns (ascending) — for footprint export.
    pub fn sojourns(&self) -> &[f64] {
        &self.sojourns
    }

    /// Applies one recorded quadruplet to an infinite-`T_int` snapshot:
    /// `dropped`, the sojourn the `N_quad` cap evicted, leaves, and
    /// `sojourn` enters at its sorted position. Every member weighs
    /// `weight`, so `prefix[i]` is the `i`-fold sum of `weight` and only
    /// grows with the count: the result is bit-identical to
    /// [`Self::build`] over the same members.
    fn shift_in(&mut self, dropped: Option<f64>, sojourn: f64, weight: f64) {
        match dropped {
            Some(old) => {
                let i = self.sojourns.partition_point(|&s| s < old);
                debug_assert_eq!(self.sojourns.get(i), Some(&old), "evicted a non-member");
                self.sojourns.remove(i);
            }
            None => self.prefix.push(self.total_weight() + weight),
        }
        let i = self.sojourns.partition_point(|&s| s <= sojourn);
        self.sojourns.insert(i, sojourn);
    }
}

#[derive(Debug, Clone, Default)]
struct Snapshot {
    built_at: Option<SimTime>,
    pairs: BTreeMap<(PrevKey, CellId), PairSnapshot>,
    max_sojourn: Option<f64>,
}

impl Snapshot {
    /// Keeps an infinite-`T_int` snapshot current across one recorded
    /// quadruplet of pair `key` (see [`PairSnapshot::shift_in`]).
    fn shift_in(
        &mut self,
        key: (PrevKey, CellId),
        dropped: Option<f64>,
        sojourn: f64,
        weight: f64,
    ) {
        self.pairs
            .entry(key)
            .or_insert_with(|| PairSnapshot::build(Vec::new()))
            .shift_in(dropped, sojourn, weight);
        self.max_sojourn = match self.max_sojourn {
            Some(max) if dropped != Some(max) => Some(max.max(sojourn)),
            // The maximum itself may have left: rescan, in the same key
            // order as `ClassStore::rebuild`.
            _ => self
                .pairs
                .values()
                .filter_map(PairSnapshot::max_sojourn)
                .reduce(f64::max),
        };
    }
}

/// Raw quadruplet storage for one `(prev, next)` pair.
///
/// * Infinite `T_int`: only the `N_quad` most recent events can ever be
///   selected, so a recency-capped deque suffices.
/// * Finite `T_int`: events from any past day can re-enter a window, so
///   events are held in **time buckets** of width `T_int`, each capped at
///   `N_quad`. A rebuild touches only the buckets overlapping the active
///   windows, keeping rebuild cost `O(windows · N_quad)` instead of
///   `O(total stored)`. The per-bucket cap is the paper's own
///   memory-reduction rule ("we don't need the quadruplets from previous
///   days if we observed enough during the last `T_int` interval") applied
///   per interval: no selection ever uses more than `N_quad` quadruplets
///   from one pair, so buckets holding more than `N_quad` contribute only
///   statistically interchangeable extras.
#[derive(Debug, Clone)]
enum PairStore {
    Recent(VecDeque<HandoffEvent>),
    Bucketed(BTreeMap<i64, Vec<HandoffEvent>>),
}

impl PairStore {
    fn len(&self) -> usize {
        match self {
            PairStore::Recent(d) => d.len(),
            PairStore::Bucketed(b) => b.values().map(Vec::len).sum(),
        }
    }
}

#[derive(Debug, Clone, Default)]
struct ClassStore {
    pairs: BTreeMap<(PrevKey, CellId), PairStore>,
    last_event_time: Option<SimTime>,
    snapshot: Snapshot,
    /// Bumped once per recorded quadruplet (including its pruning and the
    /// in-place snapshot update) and once per snapshot build: any change
    /// to what a query could answer. Infinite-`T_int` stores build only
    /// at their first query.
    epoch: u64,
}

/// Bucket width for the finite-`T_int` store, in seconds.
fn bucket_width(window: &WindowConfig) -> f64 {
    window.t_int.as_secs().max(1.0)
}

impl ClassStore {
    /// Records one event; returns how many stored quadruplets the insert
    /// evicted (`N_quad` caps and retention pruning).
    fn record(&mut self, event: HandoffEvent, window: &WindowConfig, n_quad: usize) -> usize {
        if let Some(last) = self.last_event_time {
            assert!(
                event.t_event >= last,
                "quadruplets must be recorded in event-time order"
            );
        }
        self.last_event_time = Some(event.t_event);
        let infinite = window.t_int.is_infinite();
        let key = (event.prev, event.next);
        let store = self.pairs.entry(key).or_insert_with(|| {
            if infinite {
                PairStore::Recent(VecDeque::new())
            } else {
                PairStore::Bucketed(BTreeMap::new())
            }
        });
        let mut evicted = 0usize;
        match store {
            PairStore::Recent(deque) => {
                deque.push_back(event);
                // Only the N_quad most recent can ever be selected.
                let dropped = if deque.len() > n_quad {
                    deque.pop_front()
                } else {
                    None
                };
                evicted = usize::from(dropped.is_some());
                if self.snapshot.built_at.is_some() {
                    self.snapshot.shift_in(
                        key,
                        dropped.map(|e| e.t_soj.as_secs()),
                        event.t_soj.as_secs(),
                        window.weights[0],
                    );
                }
            }
            PairStore::Bucketed(buckets) => {
                let bw = bucket_width(window);
                let idx = (event.t_event.as_secs() / bw).floor() as i64;
                let bucket = buckets.entry(idx).or_default();
                bucket.push(event);
                if bucket.len() > n_quad {
                    bucket.remove(0);
                    evicted += 1;
                }
                if let Some(retention) = window.retention() {
                    let cutoff = ((event.t_event - retention).as_secs() / bw).floor() as i64;
                    while let Some((&first, _)) = buckets.iter().next() {
                        if first < cutoff {
                            if let Some(gone) = buckets.remove(&first) {
                                evicted += gone.len();
                            }
                        } else {
                            break;
                        }
                    }
                }
            }
        }
        self.epoch += 1;
        evicted
    }

    fn snapshot_fresh(&self, t_o: SimTime, window: &WindowConfig, refresh: Duration) -> bool {
        match self.snapshot.built_at {
            None => false,
            // Infinite windows: `record` keeps a built snapshot current.
            Some(_) if window.t_int.is_infinite() => true,
            // Finite windows: rebuild on refresh expiry (new events become
            // visible within `refresh` of recording — rebuilding on every
            // record would cost a rebuild per hand-off, quadratic under
            // load).
            Some(at) => t_o >= at && t_o - at <= refresh,
        }
    }

    fn rebuild(&mut self, t_o: SimTime, window: &WindowConfig, n_quad: usize) {
        let mut pairs = BTreeMap::new();
        let mut max_sojourn: Option<f64> = None;
        for (&key, store) in &self.pairs {
            // (n, distance, sojourn, weight) of candidate members.
            let mut members: Vec<(u32, f64, f64, f64)> = Vec::new();
            let mut consider = |e: &HandoffEvent| {
                if let Some(m) = window.membership(t_o, e.t_event) {
                    members.push((m.n, m.distance, e.t_soj.as_secs(), m.weight));
                }
            };
            match store {
                PairStore::Recent(deque) => deque.iter().for_each(&mut consider),
                PairStore::Bucketed(buckets) => {
                    // Touch only buckets overlapping some window
                    // [t_o − T_int − nP, t_o + T_int − nP). The index set is
                    // deduplicated so overlapping windows (2·T_int > period)
                    // cannot double-count an event; membership() itself
                    // resolves each event to its unique smallest n.
                    let bw = bucket_width(window);
                    let t_int = window.t_int.as_secs();
                    let period = window.period.as_secs();
                    let mut indices = std::collections::BTreeSet::new();
                    for n in 0..window.num_windows() {
                        let lo = t_o.as_secs() - t_int - f64::from(n) * period;
                        let hi = t_o.as_secs() + t_int - f64::from(n) * period;
                        let b_lo = (lo / bw).floor() as i64;
                        let b_hi = (hi / bw).floor() as i64;
                        indices.extend(buckets.range(b_lo..=b_hi).map(|(&i, _)| i));
                    }
                    for idx in indices {
                        buckets[&idx].iter().for_each(&mut consider);
                    }
                }
            }
            if members.is_empty() {
                continue;
            }
            // Priority: smaller n, then smaller shifted-time distance.
            members.sort_by(|a, b| {
                a.0.cmp(&b.0)
                    .then(a.1.partial_cmp(&b.1).expect("distances are NaN-free"))
            });
            members.truncate(n_quad);
            let selected: Vec<(f64, f64)> =
                members.into_iter().map(|(_, _, s, w)| (s, w)).collect();
            let snap = PairSnapshot::build(selected);
            if let Some(ms) = snap.max_sojourn() {
                max_sojourn = Some(max_sojourn.map_or(ms, |m: f64| m.max(ms)));
            }
            pairs.insert(key, snap);
        }
        self.snapshot = Snapshot {
            built_at: Some(t_o),
            pairs,
            max_sojourn,
        };
        self.epoch += 1;
    }

    /// Makes the snapshot answer for `t_o`. With infinite `T_int`, `t_o`
    /// must not precede the last recorded event: the in-place snapshot
    /// holds every stored quadruplet, which equals a rebuild at `t_o` only
    /// when none of them lies in `t_o`'s future. The simulator queries at
    /// its clock, which never runs behind a recorded hand-off.
    fn ensure_snapshot(
        &mut self,
        t_o: SimTime,
        window: &WindowConfig,
        n_quad: usize,
        refresh: Duration,
    ) {
        debug_assert!(
            !(window.t_int.is_infinite()
                && matches!(self.last_event_time, Some(last) if t_o < last)),
            "an infinite-window query must not precede the last recorded event"
        );
        if !self.snapshot_fresh(t_o, window, refresh) {
            self.rebuild(t_o, window, n_quad);
        }
    }

    fn stored_events(&self) -> usize {
        self.pairs.values().map(PairStore::len).sum()
    }
}

/// One cell's hand-off estimation function state (Section 3.1).
#[derive(Debug, Clone)]
pub struct HoeCache {
    config: HoeConfig,
    weekday: ClassStore,
    weekend: ClassStore,
    /// Owning cell id for telemetry events (`u32::MAX` = unattributed).
    obs_owner: u32,
}

impl HoeCache {
    /// Creates an empty cache.
    pub fn new(config: HoeConfig) -> Self {
        config.validate();
        HoeCache {
            config,
            weekday: ClassStore::default(),
            weekend: ClassStore::default(),
            obs_owner: u32::MAX,
        }
    }

    /// Tags this cache with its owning cell id, used only to attribute
    /// insert/evict telemetry events (no effect on estimation).
    pub fn set_obs_owner(&mut self, cell: u32) {
        self.obs_owner = cell;
    }

    /// The configuration.
    pub fn config(&self) -> &HoeConfig {
        &self.config
    }

    fn class_of(&self, t: SimTime) -> DayClass {
        if self.config.weekend_window.is_some() {
            self.config.calendar.classify(t)
        } else {
            DayClass::Weekday
        }
    }

    fn window_for(&self, class: DayClass) -> &WindowConfig {
        match class {
            DayClass::Weekday => &self.config.weekday_window,
            DayClass::Weekend => self
                .config
                .weekend_window
                .as_ref()
                .expect("weekend store only used when configured"),
        }
    }

    /// Records one observed hand-off out of this cell.
    ///
    /// Events must arrive in event-time order (the simulator guarantees
    /// this).
    pub fn record(&mut self, event: HandoffEvent) {
        let class = self.class_of(event.t_event);
        let window = self.window_for(class).clone();
        let store = match class {
            DayClass::Weekday => &mut self.weekday,
            DayClass::Weekend => &mut self.weekend,
        };
        let obs_on = qres_obs::enabled();
        let (prev, next, sojourn_secs) = (event.prev, event.next, event.t_soj.as_secs());
        let evicted = store.record(event, &window, self.config.n_quad);
        if obs_on {
            qres_obs::metrics::HOE_INSERTS_TOTAL.add(1);
            qres_obs::record(qres_obs::ObsEvent::HoeInsert {
                t: qres_obs::sim_time(),
                cell: self.obs_owner,
                prev: prev.map_or(u32::MAX, |c| c.0),
                next: next.0,
                sojourn_secs,
            });
            if evicted > 0 {
                qres_obs::metrics::HOE_EVICTS_TOTAL.add(evicted as u64);
                qres_obs::record(qres_obs::ObsEvent::HoeEvict {
                    t: qres_obs::sim_time(),
                    cell: self.obs_owner,
                    evicted: evicted as u32,
                });
            }
        }
    }

    fn store_for_query(&mut self, t_o: SimTime) -> (&mut ClassStore, WindowConfig) {
        let class = self.class_of(t_o);
        let window = self.window_for(class).clone();
        let store = match class {
            DayClass::Weekday => &mut self.weekday,
            DayClass::Weekend => &mut self.weekend,
        };
        (store, window)
    }

    /// A version counter that changes whenever a query's answer could:
    /// once per recorded quadruplet (including the pruning and in-place
    /// snapshot update it triggers) and once per snapshot build — the
    /// first query of an infinite-`T_int` store, and every refresh of a
    /// finite-`T_int` one, whose membership drifts with `t_o`. Two queries
    /// with equal `(t_o, arguments)` bracketing an unchanged version return
    /// identical results — the invalidation key of the epoch-memoized
    /// `B_r` computation upstream.
    pub fn version(&self) -> u64 {
        // Each mutation bumps exactly one class epoch, so the sum is
        // strictly monotone over mutations.
        self.weekday.epoch + self.weekend.epoch
    }

    /// The rebuilt, query-ready snapshot pairs at `t_o` — the streaming
    /// estimator's entry point (see [`crate::batch`]).
    pub(crate) fn pairs_for_query(
        &mut self,
        t_o: SimTime,
    ) -> &BTreeMap<(PrevKey, CellId), PairSnapshot> {
        let n_quad = self.config.n_quad;
        let refresh = self.config.snapshot_refresh;
        let (store, window) = self.store_for_query(t_o);
        store.ensure_snapshot(t_o, &window, n_quad, refresh);
        &store.snapshot.pairs
    }

    /// Denominator of Eq. 4: total selected weight, over **all** next
    /// cells, of quadruplets with matching `prev` and `t_soj > t_ext`.
    ///
    /// Zero means no cached mobile with this history stayed longer than
    /// `t_ext` — the paper's *stationary* classification.
    pub fn weight_prev_gt(&mut self, t_o: SimTime, prev: PrevKey, t_ext: Duration) -> f64 {
        let n_quad = self.config.n_quad;
        let refresh = self.config.snapshot_refresh;
        let (store, window) = self.store_for_query(t_o);
        store.ensure_snapshot(t_o, &window, n_quad, refresh);
        let a = t_ext.as_secs();
        store
            .snapshot
            .pairs
            .range((prev, CellId(0))..=(prev, CellId(u32::MAX)))
            .map(|(_, snap)| snap.weight_gt(a))
            .sum()
    }

    /// Numerator of Eq. 4: selected weight of quadruplets with matching
    /// `(prev, next)` and `t_ext < t_soj ≤ t_ext + t_est`.
    pub fn weight_pair_in(
        &mut self,
        t_o: SimTime,
        prev: PrevKey,
        next: CellId,
        t_ext: Duration,
        t_est: Duration,
    ) -> f64 {
        let n_quad = self.config.n_quad;
        let refresh = self.config.snapshot_refresh;
        let (store, window) = self.store_for_query(t_o);
        store.ensure_snapshot(t_o, &window, n_quad, refresh);
        match store.snapshot.pairs.get(&(prev, next)) {
            Some(snap) => snap.weight_in(t_ext.as_secs(), (t_ext + t_est).as_secs()),
            None => 0.0,
        }
    }

    /// Denominator restricted to one `(prev, next)` pair — used by the
    /// known-route extension (Section 7) where the next cell is given.
    pub fn weight_pair_gt(
        &mut self,
        t_o: SimTime,
        prev: PrevKey,
        next: CellId,
        t_ext: Duration,
    ) -> f64 {
        let n_quad = self.config.n_quad;
        let refresh = self.config.snapshot_refresh;
        let (store, window) = self.store_for_query(t_o);
        store.ensure_snapshot(t_o, &window, n_quad, refresh);
        match store.snapshot.pairs.get(&(prev, next)) {
            Some(snap) => snap.weight_gt(t_ext.as_secs()),
            None => 0.0,
        }
    }

    /// The largest sojourn time among selected quadruplets — the cell's
    /// contribution to `T_soj,max`, which caps the adaptive `T_est`
    /// (Fig. 6). `None` if the cache has no usable quadruplets.
    pub fn max_sojourn(&mut self, t_o: SimTime) -> Option<Duration> {
        let n_quad = self.config.n_quad;
        let refresh = self.config.snapshot_refresh;
        let (store, window) = self.store_for_query(t_o);
        store.ensure_snapshot(t_o, &window, n_quad, refresh);
        store.snapshot.max_sojourn.map(Duration::from_secs)
    }

    /// The selected `(next, sojourns)` footprint for a given `prev` —
    /// the data behind the paper's Fig. 4.
    pub fn footprint_pairs(&mut self, t_o: SimTime, prev: PrevKey) -> Vec<(CellId, Vec<f64>)> {
        let n_quad = self.config.n_quad;
        let refresh = self.config.snapshot_refresh;
        let (store, window) = self.store_for_query(t_o);
        store.ensure_snapshot(t_o, &window, n_quad, refresh);
        store
            .snapshot
            .pairs
            .range((prev, CellId(0))..=(prev, CellId(u32::MAX)))
            .map(|(&(_, next), snap)| (next, snap.sojourns().to_vec()))
            .collect()
    }

    /// Total quadruplets currently in raw storage (both day classes).
    pub fn stored_events(&self) -> usize {
        self.weekday.stored_events() + self.weekend.stored_events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, prev: Option<u32>, next: u32, soj: f64) -> HandoffEvent {
        HandoffEvent::new(
            SimTime::from_secs(t),
            prev.map(CellId),
            CellId(next),
            Duration::from_secs(soj),
        )
    }

    fn s(x: f64) -> Duration {
        Duration::from_secs(x)
    }

    fn stationary_cache() -> HoeCache {
        HoeCache::new(HoeConfig::stationary())
    }

    #[test]
    fn empty_cache_yields_zero_weights() {
        let mut c = stationary_cache();
        let now = SimTime::from_secs(100.0);
        assert_eq!(c.weight_prev_gt(now, Some(CellId(1)), s(0.0)), 0.0);
        assert_eq!(
            c.weight_pair_in(now, Some(CellId(1)), CellId(2), s(0.0), s(10.0)),
            0.0
        );
        assert_eq!(c.max_sojourn(now), None);
        assert_eq!(c.stored_events(), 0);
    }

    #[test]
    fn weights_count_matching_events() {
        let mut c = stationary_cache();
        c.record(ev(10.0, Some(1), 2, 30.0));
        c.record(ev(11.0, Some(1), 2, 40.0));
        c.record(ev(12.0, Some(1), 3, 50.0));
        c.record(ev(13.0, Some(9), 2, 60.0)); // different prev
        c.record(ev(14.0, None, 2, 70.0)); // started in-cell
        let now = SimTime::from_secs(100.0);
        // prev=1, t_soj > 0: three events.
        assert_eq!(c.weight_prev_gt(now, Some(CellId(1)), s(0.0)), 3.0);
        // prev=1, t_soj > 35: events 40 and 50.
        assert_eq!(c.weight_prev_gt(now, Some(CellId(1)), s(35.0)), 2.0);
        // pair (1,2) in (25, 45]: events 30? no (30>25 yes, <=45 yes) and 40.
        assert_eq!(
            c.weight_pair_in(now, Some(CellId(1)), CellId(2), s(25.0), s(20.0)),
            2.0
        );
        // pair (1,2) in (35, 45]: only 40.
        assert_eq!(
            c.weight_pair_in(now, Some(CellId(1)), CellId(2), s(35.0), s(10.0)),
            1.0
        );
        // prev=None matches only the in-cell start.
        assert_eq!(c.weight_prev_gt(now, None, s(0.0)), 1.0);
        assert_eq!(c.max_sojourn(now), Some(s(70.0)));
    }

    #[test]
    fn boundary_strictness_matches_eq4() {
        // Denominator: t_soj > t_ext strictly; numerator upper edge
        // inclusive.
        let mut c = stationary_cache();
        c.record(ev(1.0, Some(1), 2, 30.0));
        let now = SimTime::from_secs(10.0);
        assert_eq!(c.weight_prev_gt(now, Some(CellId(1)), s(30.0)), 0.0);
        assert_eq!(c.weight_prev_gt(now, Some(CellId(1)), s(29.999)), 1.0);
        assert_eq!(
            c.weight_pair_in(now, Some(CellId(1)), CellId(2), s(20.0), s(10.0)),
            1.0,
            "upper edge t_ext + t_est = 30 is inclusive"
        );
        assert_eq!(
            c.weight_pair_in(now, Some(CellId(1)), CellId(2), s(30.0), s(10.0)),
            0.0,
            "lower edge is exclusive"
        );
    }

    #[test]
    fn n_quad_caps_selection_most_recent_first() {
        let mut config = HoeConfig::stationary();
        config.n_quad = 3;
        let mut c = HoeCache::new(config);
        for i in 0..10 {
            // Sojourn encodes the order: event i has sojourn 10 + i.
            c.record(ev(i as f64, Some(1), 2, 10.0 + i as f64));
        }
        let now = SimTime::from_secs(100.0);
        // Only the 3 most recent (sojourns 17, 18, 19) are selected.
        assert_eq!(c.weight_prev_gt(now, Some(CellId(1)), s(0.0)), 3.0);
        assert_eq!(c.weight_prev_gt(now, Some(CellId(1)), s(16.5)), 3.0);
        assert_eq!(c.weight_prev_gt(now, Some(CellId(1)), s(18.5)), 1.0);
        // Raw storage is capped too in infinite-window mode.
        assert_eq!(c.stored_events(), 3);
    }

    #[test]
    fn n_quad_is_per_pair() {
        let mut config = HoeConfig::stationary();
        config.n_quad = 2;
        let mut c = HoeCache::new(config);
        for i in 0..5 {
            c.record(ev(i as f64, Some(1), 2, 10.0));
        }
        for i in 5..10 {
            c.record(ev(i as f64, Some(1), 3, 10.0));
        }
        let now = SimTime::from_secs(100.0);
        assert_eq!(c.weight_prev_gt(now, Some(CellId(1)), s(0.0)), 4.0);
    }

    #[test]
    fn finite_window_selects_current_and_previous_day() {
        let mut c = HoeCache::new(HoeConfig::paper_time_varying());
        // Yesterday 11:40 and 13:30; today 11:30.
        c.record(ev(11.0 * 3600.0 + 2400.0, Some(1), 2, 30.0));
        c.record(ev(13.5 * 3600.0, Some(1), 2, 40.0));
        c.record(ev(24.0 * 3600.0 + 11.5 * 3600.0, Some(1), 2, 50.0));
        // Query today at 12:00: window n=0 = [11:00, 12:00) today,
        // n=1 = [11:00, 13:00) yesterday.
        let now = SimTime::from_hours(36.0);
        // Selected: today's 11:30 (n=0) + yesterday's 11:40 (n=1);
        // yesterday's 13:30 is outside.
        assert_eq!(c.weight_prev_gt(now, Some(CellId(1)), s(0.0)), 2.0);
        assert_eq!(
            c.weight_pair_in(now, Some(CellId(1)), CellId(2), s(45.0), s(10.0)),
            1.0,
            "only today's sojourn-50 event in (45, 55]"
        );
    }

    #[test]
    fn finite_window_snapshot_refreshes_as_time_drifts() {
        let mut c = HoeCache::new(HoeConfig::paper_time_varying());
        c.record(ev(10.0 * 3600.0, Some(1), 2, 30.0)); // 10:00
                                                       // At 10:30 the event is in the n=0 window.
        assert_eq!(
            c.weight_prev_gt(SimTime::from_hours(10.5), Some(CellId(1)), s(0.0)),
            1.0
        );
        // At 11:30 it has drifted out ([10:30, 11:30) misses 10:00... the
        // n=0 window is [10:30, 12:30) shifted: window = [t_o - 1h, t_o);
        // 10:00 < 10:30 so excluded).
        assert_eq!(
            c.weight_prev_gt(SimTime::from_hours(11.5), Some(CellId(1)), s(0.0)),
            0.0
        );
    }

    #[test]
    fn finite_window_prunes_expired_storage() {
        let mut c = HoeCache::new(HoeConfig::paper_time_varying());
        c.record(ev(0.0, Some(1), 2, 5.0));
        assert_eq!(c.stored_events(), 1);
        // Retention is T_int + N_win*T_day = 25 h; an event 26 h later
        // triggers pruning of the first.
        c.record(ev(26.0 * 3600.0, Some(1), 2, 6.0));
        assert_eq!(c.stored_events(), 1);
    }

    #[test]
    fn weekend_events_route_to_separate_store() {
        let mut config = HoeConfig::paper_time_varying();
        config.weekend_window = Some(WindowConfig {
            t_int: Duration::from_hours(1.0),
            period: Duration::WEEK,
            weights: vec![1.0, 1.0],
        });
        let mut c = HoeCache::new(config);
        // Day 2 (Wednesday) noon: weekday store.
        c.record(ev((2.0 * 24.0 + 12.0) * 3600.0, Some(1), 2, 30.0));
        // Day 5 (Saturday) noon: weekend store.
        c.record(ev((5.0 * 24.0 + 12.0) * 3600.0, Some(1), 2, 99.0));
        // Weekday query (day 3, 12:30) sees only the weekday event via n=1.
        let wd = SimTime::from_hours(3.0 * 24.0 + 12.5);
        assert_eq!(c.weight_prev_gt(wd, Some(CellId(1)), s(0.0)), 1.0);
        assert_eq!(c.max_sojourn(wd), Some(s(30.0)));
        // Weekend query (day 12 = next Saturday, 12:30) sees the weekend
        // event via the weekly n=1 window.
        let we = SimTime::from_hours(12.0 * 24.0 + 12.5);
        assert_eq!(c.weight_prev_gt(we, Some(CellId(1)), s(0.0)), 1.0);
        assert_eq!(c.max_sojourn(we), Some(s(99.0)));
    }

    #[test]
    fn footprint_lists_next_cells() {
        let mut c = stationary_cache();
        c.record(ev(1.0, Some(1), 2, 30.0));
        c.record(ev(2.0, Some(1), 4, 50.0));
        c.record(ev(3.0, Some(1), 4, 55.0));
        c.record(ev(4.0, Some(7), 2, 10.0));
        let fp = c.footprint_pairs(SimTime::from_secs(10.0), Some(CellId(1)));
        assert_eq!(fp.len(), 2);
        assert_eq!(fp[0].0, CellId(2));
        assert_eq!(fp[0].1, vec![30.0]);
        assert_eq!(fp[1].0, CellId(4));
        assert_eq!(fp[1].1, vec![50.0, 55.0]);
    }

    #[test]
    #[should_panic(expected = "event-time order")]
    fn out_of_order_recording_panics() {
        let mut c = stationary_cache();
        c.record(ev(10.0, Some(1), 2, 5.0));
        c.record(ev(5.0, Some(1), 2, 5.0));
    }

    #[test]
    fn pair_snapshot_weight_arithmetic() {
        let snap = PairSnapshot::build(vec![(10.0, 1.0), (20.0, 0.5), (30.0, 1.0)]);
        assert_eq!(snap.total_weight(), 2.5);
        assert_eq!(snap.weight_gt(0.0), 2.5);
        assert_eq!(snap.weight_gt(10.0), 1.5);
        assert_eq!(snap.weight_gt(30.0), 0.0);
        assert_eq!(snap.weight_in(5.0, 25.0), 1.5);
        assert_eq!(snap.weight_in(10.0, 30.0), 1.5);
        assert_eq!(snap.max_sojourn(), Some(30.0));
        assert_eq!(snap.len(), 3);
        assert!(!snap.is_empty());
    }
}
