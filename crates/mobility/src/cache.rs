//! The per-cell hand-off estimation function cache.
//!
//! A [`HoeCache`] is the state one BS keeps to evaluate its hand-off
//! estimation function `F_HOE(t_o, prev, next, T_soj)`. Each day class
//! keeps it flat:
//!
//! * a **key table** of the `(prev, next)` pairs seen so far, ascending
//!   (`prev = None`, in-cell starts, first), with a per-`prev` index of
//!   the runs of keys that share a `prev` — at most seven on a hex cell —
//!   so a query finds its pairs with a scan of a few entries instead of a
//!   tree descent;
//! * the raw quadruplet store of each pair, aligned with the key table by
//!   index, in event-time order, pruned by the window retention rule
//!   (finite `T_int`) or capped at `N_quad` most-recent (infinite `T_int`,
//!   where older events can never outrank newer ones);
//! * a **snapshot**: for each pair, again by index, the `≤ N_quad`
//!   quadruplets selected by the paper's priority rule (smaller window
//!   index `n` first, then smaller shifted-time distance from `t_o`),
//!   sorted by sojourn time with prefix-summed weights, so the estimator's
//!   numerator/denominator (Eq. 4) are two binary searches instead of a
//!   linear scan. All pairs share one `f64` **arena**: pair `i` holds its
//!   `len` ascending sojourns and then their `len + 1` prefix weights, and
//!   the pairs follow each other in key order.
//!
//! Snapshots are built lazily, by the first query. After that:
//!
//! * infinite `T_int`: each recorded quadruplet updates its pair's
//!   snapshot **in place** (evicted sojourn out, new sojourn in at its
//!   sorted position). This is exact: every member carries weight `w_0`,
//!   so `prefix[i]` depends only on `i`, and membership does not drift
//!   with `t_o`. Only the arena moves: an eviction shifts sojourns within
//!   the pair, and a pair below the `N_quad` cap grows by one sojourn and
//!   one prefix weight, which shifts the later pairs' regions by two. A
//!   store that is never queried only appends.
//! * finite `T_int`, where window membership drifts with `t_o`: the
//!   snapshot is **patched** on the first query after it is older than a
//!   configurable refresh interval (default 30 simulated seconds, far
//!   finer than the 1-hour `T_int` the paper uses), or earlier than its
//!   build. Each pair finds its new selection with no sort: binary
//!   searches place each window's members among the time-ordered
//!   quadruplets, and a window that overflows the `N_quad` budget takes its
//!   members closest to the window's centre by walking outward from it.
//!   The quadruplets carry sequence numbers, so the new selection is
//!   compared with the last build's as a few stretches of them, plus what
//!   the `N_quad` cap and retention evicted of it since; only the entries
//!   that left or entered are merged into the pair's sojourn-sorted run,
//!   whose prefix weights are then rewritten. A pair's arena region depends
//!   only on the multiset of its selected `(sojourn, n)` — equal `n`, equal
//!   weight; the selection's stable sojourn sort left equal sojourns in
//!   priority order, `n` ascending — so ordering the run by `(sojourn, n)`
//!   answers bit-identically to a rebuild. The first build patches empty
//!   selections.
//!
//! With weekday/weekend separation enabled, quadruplets are routed into two
//! independent stores by the [`Calendar`] class of their event time, and
//! queries read the store matching the class of `t_o` (Section 3.1's
//! special-day sets).

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use qres_cellnet::CellId;
use qres_des::{Duration, SimTime};

use crate::calendar::{Calendar, DayClass};
use crate::quadruplet::HandoffEvent;
use crate::windows::{partition, WindowConfig};

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
    /// How stale a finite-`T_int` snapshot may get before it is refreshed.
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

/// One pair of the key table: its `next` (its `prev` is its run's) and
/// where its selection lives in the arena — `len` sojourns, ascending,
/// from `start`, then their `len + 1` prefix weights.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pair {
    next: CellId,
    start: u32,
    len: u32,
}

impl Pair {
    /// One past the pair's last prefix weight.
    fn end(self) -> usize {
        self.start as usize + 2 * self.len as usize + 1
    }
}

/// The pairs `start..end` of the key table, which share `prev`.
#[derive(Debug, Clone, Copy)]
struct PrevRun {
    prev: PrevKey,
    start: u32,
    end: u32,
}

impl PrevRun {
    fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// Checks that every offset into an arena of `len` values fits the `u32`s
/// of [`Pair`] and [`PrevRun`]; each place that grows an arena calls it
/// before a query can read a truncated offset.
fn assert_offsets(len: usize) {
    assert!(
        u32::try_from(len).is_ok(),
        "a class store's arena holds under 2^32 values"
    );
}

/// One pair's selected, sojourn-sorted quadruplets, read from the arena.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairView<'a> {
    /// Sojourn times, ascending.
    sojourns: &'a [f64],
    /// `prefix[i]` = total weight of `sojourns[..i]`; `prefix.len() ==
    /// sojourns.len() + 1`.
    prefix: &'a [f64],
}

impl<'a> PairView<'a> {
    fn new(arena: &'a [f64], pair: Pair) -> Self {
        let (sojourns, prefix) = arena[pair.start as usize..pair.end()].split_at(pair.len as usize);
        PairView { sojourns, prefix }
    }

    /// Total selected weight.
    pub(crate) fn total_weight(&self) -> f64 {
        self.prefix[self.sojourns.len()]
    }

    /// True when no quadruplets were selected.
    pub(crate) fn is_empty(&self) -> bool {
        self.sojourns.is_empty()
    }

    /// Weight of quadruplets with `t_soj > a` (strict).
    pub(crate) fn weight_gt(&self, a: f64) -> f64 {
        let idx = self.sojourns.partition_point(|&s| s <= a);
        self.total_weight() - self.prefix[idx]
    }

    /// Weight of quadruplets with `a < t_soj ≤ b`.
    pub(crate) fn weight_in(&self, a: f64, b: f64) -> f64 {
        debug_assert!(b >= a);
        (self.weight_gt(a) - self.weight_gt(b)).max(0.0)
    }

    /// The largest selected sojourn, if any.
    pub(crate) fn max_sojourn(&self) -> Option<f64> {
        self.sojourns.last().copied()
    }

    /// The selected sojourns (ascending) — for footprint export.
    pub(crate) fn sojourns(&self) -> &'a [f64] {
        self.sojourns
    }
}

/// One stored quadruplet of a pair (whose `prev` and `next` are the key):
/// its event time, its sojourn, and its sequence number in the pair's
/// store, which ascends with the event time.
#[derive(Debug, Clone, Copy)]
struct Stamped {
    t: SimTime,
    sojourn: f64,
    seq: u64,
}

/// A stretch of a snapshot's selection: the quadruplets with sequence
/// numbers in `seqs` that the store held when it was built, all in window
/// `n`.
#[derive(Debug, Clone)]
struct Chosen {
    n: u32,
    seqs: Range<u64>,
}

/// A selected quadruplet as the arena orders it: `(sojourn, n)`.
type Entry = (f64, u32);

/// Sojourn first, then window index: the order of a pair's selection in
/// the arena. Equal sojourns left the priority sort in priority order,
/// which is `n` ascending, and equal `(sojourn, n)` weigh the same, so a
/// run sorted this way is the one a stable sojourn sort of the priority
/// order gives.
fn entry_order(a: &Entry, b: &Entry) -> Ordering {
    a.0.partial_cmp(&b.0)
        .expect("sojourns are NaN-free")
        .then(a.1.cmp(&b.1))
}

/// Raw quadruplet storage for one `(prev, next)` pair, in event-time
/// order.
///
/// * Infinite `T_int`: only the `N_quad` most recent events can ever be
///   selected, so the store is capped at `N_quad`.
/// * Finite `T_int`: events from any past day can re-enter a window, so
///   the store is cut into **time buckets** of width `T_int`, each capped
///   at its `N_quad` most recent. The per-bucket cap is the paper's own
///   memory-reduction rule ("we don't need the quadruplets from previous
///   days if we observed enough during the last `T_int` interval") applied
///   per interval: no selection ever uses more than `N_quad` quadruplets
///   from one pair, so buckets holding more than `N_quad` contribute only
///   statistically interchangeable extras. A refresh finds each window's
///   members by binary search, so its cost does not grow with the store.
#[derive(Debug, Clone, Default)]
struct PairStore {
    events: VecDeque<Stamped>,
    /// The sequence number the next recorded quadruplet gets.
    next_seq: u64,
    /// Finite `T_int`: `(bucket index, events)` of each bucket, oldest
    /// first, tiling `events` but for the excess.
    buckets: VecDeque<(i64, usize)>,
    /// Finite `T_int`: how many of the newest bucket's oldest events the
    /// `N_quad` cap has evicted that still sit in `events`, just before the
    /// bucket's `N_quad` stored ones. Removing each one as it goes would
    /// move the bucket's newer events every time; they leave together at
    /// the next [`Self::trim`].
    excess: usize,
    /// The last snapshot build's selection, which finite-`T_int` refreshes
    /// patch. An infinite-`T_int` store holds one only while its single
    /// build runs, which keeps the many pairs of a large stationary grid
    /// small.
    selection: Option<Box<Selection>>,
}

/// A pair's last snapshot build's selection.
#[derive(Debug, Clone, Default)]
struct Selection {
    /// The selected stretches, ascending.
    chosen: Vec<Chosen>,
    /// What the `N_quad` cap and retention have evicted of them since.
    gone: Vec<Entry>,
    /// The selection as the arena holds it, sorted by [`entry_order`].
    run: Vec<Entry>,
}

/// The selection at `t_o` among a pair's time-ordered `events` under the
/// paper's priority rule (smaller window index `n` first, then smaller
/// shifted-time distance from `t_o`, then the older event, up to
/// `N_quad`), into `chosen`, ascending.
///
/// Window `n`'s members are one run of the events
/// ([`WindowConfig::span`]), older for larger `n`, and their distances
/// fall toward the window's centre `t_o − n·period` from both sides. A
/// window that does not fit the remaining budget gives it to its closest
/// members by walking outward from the centre: no sort.
fn select(
    events: &[Stamped],
    t_o: SimTime,
    window: &WindowConfig,
    n_quad: usize,
    chosen: &mut Vec<Chosen>,
) {
    let offset = |i: usize, n: u32| window.offset((t_o - events[i].t).as_secs(), n);
    // Newest stretch first; reversed at the end.
    let mut take = |n: u32, r: Range<usize>| {
        if !r.is_empty() {
            chosen.push(Chosen {
                n,
                seqs: events[r.start].seq..events[r.end - 1].seq + 1,
            });
        }
    };
    let mut budget = n_quad;
    let mut below = events.len();
    for n in 0..window.num_windows() {
        if budget == 0 {
            break;
        }
        let Range { start: a, end: b } = window.span(t_o, n, 0..below, |i| events[i].t);
        below = a;
        if b - a <= budget {
            budget -= b - a;
            take(n, a..b);
            continue;
        }
        let dist = |i: usize| offset(i, n).abs();
        // Members before the centre are older than those after it and win
        // ties against them.
        let centre = partition(a..b, |i| offset(i, n) >= 0.0);
        let (mut l, mut r) = (centre, centre);
        while budget > 0 {
            if r == b {
                l -= budget;
                break;
            }
            if l == a {
                r += budget;
                break;
            }
            if dist(l - 1) <= dist(r) {
                l -= 1;
            } else {
                r += 1;
            }
            budget -= 1;
        }
        budget = 0;
        // The cut may split a run of equal distances before the centre,
        // which the walk entered from its newer end: the priority rule
        // takes the run's older members instead.
        if a < l && l < centre && dist(l - 1) == dist(l) {
            let d = dist(l);
            let first = partition(a..l, |i| dist(i) > d);
            let last = partition(l..centre, |i| dist(i) >= d);
            take(n, last..r);
            take(n, first..first + (last - l));
        } else {
            take(n, l..r);
        }
    }
    chosen.reverse();
}

impl Selection {
    /// What turns the last build's selection into `new`, both over the
    /// pair's `events`: the entries `removed` from the run and `added` to
    /// it. The evicted part of the old selection leaves as
    /// [`Self::evicted`] noted it. The rest is read off the stretches of
    /// sequence numbers where the two selections disagree: a stored
    /// quadruplet only the old one took leaves, one only the new one takes
    /// enters, and one whose window index changed does both.
    fn changes(
        &mut self,
        events: &[Stamped],
        new: &[Chosen],
        removed: &mut Vec<Entry>,
        added: &mut Vec<Entry>,
    ) {
        removed.clear();
        added.clear();
        removed.append(&mut self.gone);
        let index = |seq: u64| events.partition_point(|e| e.seq < seq);
        disagreements(&self.chosen, new, |seqs, was, now| {
            for e in &events[index(seqs.start)..index(seqs.end)] {
                if let Some(n) = was {
                    removed.push((e.sojourn, n));
                }
                if let Some(n) = now {
                    added.push((e.sojourn, n));
                }
            }
        });
    }

    /// Notes that the store evicted `e`: when the last build selected it,
    /// the next one removes it.
    fn evicted(&mut self, e: &Stamped) {
        if let Some(c) = self.chosen.iter().find(|c| c.seqs.contains(&e.seq)) {
            self.gone.push((e.sojourn, c.n));
        }
    }
}

impl PairStore {
    /// Removes `events[range]`, noting each for the selection.
    fn evict(&mut self, range: Range<usize>) {
        for e in self.events.drain(range) {
            if let Some(selection) = &mut self.selection {
                selection.evicted(&e);
            }
        }
    }

    /// Removes the excess from `events`.
    fn trim(&mut self) {
        let excess = std::mem::take(&mut self.excess);
        if excess > 0 {
            let live = self.buckets.back().map_or(0, |&(_, count)| count);
            let start = self.events.len() - live - excess;
            self.evict(start..start + excess);
        }
    }
}

/// Calls `f` with each stretch of sequence numbers on which the selections
/// `old` and `new` (each ascending) give different window indices, and the
/// index each gives (`None`: not selected).
fn disagreements(
    old: &[Chosen],
    new: &[Chosen],
    mut f: impl FnMut(Range<u64>, Option<u32>, Option<u32>),
) {
    let (mut old, mut new) = (old.iter().peekable(), new.iter().peekable());
    let mut at = 0;
    loop {
        while old.next_if(|c| c.seqs.end <= at).is_some() {}
        while new.next_if(|c| c.seqs.end <= at).is_some() {}
        let (o, n) = (old.peek(), new.peek());
        if o.is_none() && n.is_none() {
            break;
        }
        let covering = |c: Option<&&Chosen>| c.filter(|c| c.seqs.start <= at).map(|c| c.n);
        let edge = |c: Option<&&Chosen>| {
            c.map_or(u64::MAX, |c| {
                if c.seqs.start > at {
                    c.seqs.start
                } else {
                    c.seqs.end
                }
            })
        };
        let next = edge(o).min(edge(n));
        let (was, now) = (covering(o), covering(n));
        if was != now {
            f(at..next, was, now);
        }
        at = next;
    }
}

/// The index of `prev`'s run, or where it would go.
fn find_run(prevs: &[PrevRun], prev: PrevKey) -> Result<usize, usize> {
    prevs.binary_search_by(|run| run.prev.cmp(&prev))
}

/// The quadruplets and the snapshot of one day class.
///
/// The key table is `pairs`, cut into runs of one `prev` by `prevs`; both
/// ascend, `prev = None` first, `next` within a run. `stores[i]` holds
/// the quadruplets of pair `i` and `pairs[i]` places its selection in
/// `arena`, where the pairs follow each other in key order. A pair with
/// nothing selected holds the single prefix weight `0.0`.
#[derive(Debug, Clone, Default)]
struct ClassStore {
    prevs: Vec<PrevRun>,
    pairs: Vec<Pair>,
    stores: Vec<PairStore>,
    arena: Vec<f64>,
    /// When the snapshot was last built; `None` before the first query.
    built_at: Option<SimTime>,
    /// The largest selected sojourn.
    max_sojourn: Option<f64>,
    last_event_time: Option<SimTime>,
    /// Buffers a snapshot build reuses pair to pair and build to build;
    /// made by the first build and kept only by finite-`T_int` stores.
    scratch: Option<Box<Scratch>>,
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

/// Buffers a snapshot build reuses.
#[derive(Debug, Clone, Default)]
struct Scratch {
    chosen: Vec<Chosen>,
    removed: Vec<Entry>,
    added: Vec<Entry>,
    run: Vec<Entry>,
    arena: Vec<f64>,
}

/// `run` less `removed`, plus `added`, into `out`: all sorted by
/// [`entry_order`], and every removed entry one of `run`'s. The unchanged
/// stretches between the changes are found by scanning forward, which
/// streams a run that other cells' work has evicted from the cache, and
/// are copied whole.
fn merge(mut run: &[Entry], removed: &[Entry], added: &[Entry], out: &mut Vec<Entry>) {
    out.clear();
    let (mut removed, mut added) = (removed.iter().peekable(), added.iter().peekable());
    loop {
        match (removed.peek(), added.peek()) {
            (Some(&x), next) if next.is_none_or(|y| entry_order(x, y).is_le()) => {
                let at = run
                    .iter()
                    .position(|e| entry_order(e, x).is_ge())
                    .unwrap_or(run.len());
                debug_assert_eq!(run.get(at), Some(x), "removed a non-member");
                out.extend_from_slice(&run[..at]);
                run = &run[at + 1..];
                removed.next();
            }
            (_, Some(&y)) => {
                let at = run
                    .iter()
                    .position(|e| entry_order(e, y).is_gt())
                    .unwrap_or(run.len());
                out.extend_from_slice(&run[..at]);
                out.push(*y);
                run = &run[at..];
                added.next();
            }
            (_, None) => break,
        }
    }
    out.extend_from_slice(run);
}

impl ClassStore {
    /// The key index of `(prev, next)`, adding the pair, with an empty
    /// store and an empty selection, when it is new.
    fn slot_or_insert(&mut self, prev: PrevKey, next: CellId) -> usize {
        let run = find_run(&self.prevs, prev);
        let range = match run {
            Ok(r) => self.prevs[r].range(),
            Err(r) => {
                let at = self
                    .prevs
                    .get(r)
                    .map_or(self.pairs.len(), |run| run.start as usize);
                at..at
            }
        };
        let at = range.start + self.pairs[range.clone()].partition_point(|p| p.next < next);
        if at < range.end && self.pairs[at].next == next {
            return at;
        }
        let r = run.unwrap_or_else(|r| {
            let start = at as u32;
            self.prevs.insert(
                r,
                PrevRun {
                    prev,
                    start,
                    end: start,
                },
            );
            r
        });
        self.prevs[r].end += 1;
        for run in &mut self.prevs[r + 1..] {
            run.start += 1;
            run.end += 1;
        }
        let start = self
            .pairs
            .get(at)
            .map_or(self.arena.len(), |p| p.start as usize);
        self.arena.insert(start, 0.0);
        assert_offsets(self.arena.len());
        for pair in &mut self.pairs[at..] {
            pair.start += 1;
        }
        self.pairs.insert(
            at,
            Pair {
                next,
                start: start as u32,
                len: 0,
            },
        );
        self.stores.insert(at, PairStore::default());
        debug_assert!(self.key_table_is_sorted(), "key table out of order");
        at
    }

    /// The runs ascend by `prev` (`None` first) and tile the key table,
    /// `next` ascends within each run, and the pairs tile the arena.
    fn key_table_is_sorted(&self) -> bool {
        let runs_tile = self.prevs.windows(2).all(|w| w[0].prev < w[1].prev)
            && self.prevs.first().is_none_or(|run| run.start == 0)
            && self.prevs.windows(2).all(|w| w[0].end == w[1].start)
            && self.prevs.last().map_or(0, |run| run.end as usize) == self.pairs.len();
        let nexts_ascend = self.prevs.iter().all(|&run| {
            self.pairs[run.range()]
                .windows(2)
                .all(|w| w[0].next < w[1].next)
        });
        let pairs_tile = self.pairs.first().is_none_or(|p| p.start == 0)
            && self
                .pairs
                .windows(2)
                .all(|w| w[0].end() == w[1].start as usize)
            && self.pairs.last().map_or(0, |p| p.end()) == self.arena.len();
        runs_tile && nexts_ascend && pairs_tile && self.stores.len() == self.pairs.len()
    }

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
        let i = self.slot_or_insert(event.prev, event.next);
        let store = &mut self.stores[i];
        let sojourn = event.t_soj.as_secs();
        let stamped = Stamped {
            t: event.t_event,
            sojourn,
            seq: store.next_seq,
        };
        store.next_seq += 1;
        let mut evicted = 0usize;
        match window.retention() {
            None => {
                store.events.push_back(stamped);
                // Only the N_quad most recent can ever be selected.
                let dropped = if store.events.len() > n_quad {
                    store.events.pop_front()
                } else {
                    None
                };
                evicted = usize::from(dropped.is_some());
                if self.built_at.is_some() {
                    self.shift_in(i, dropped.map(|e| e.sojourn), sojourn, window.weights[0]);
                }
            }
            Some(retention) => {
                let bw = bucket_width(window);
                let idx = (event.t_event.as_secs() / bw).floor() as i64;
                // Event times never decrease, so neither do bucket indices.
                match store.buckets.back_mut() {
                    Some((last, count)) if *last == idx => {
                        if *count == n_quad {
                            // The bucket's oldest leaves.
                            store.excess += 1;
                            evicted += 1;
                        } else {
                            *count += 1;
                        }
                    }
                    _ => {
                        debug_assert!(store.buckets.back().is_none_or(|&(last, _)| last < idx));
                        store.trim();
                        store.buckets.push_back((idx, 1));
                    }
                }
                store.events.push_back(stamped);
                if store.excess >= n_quad {
                    store.trim();
                }
                // The current bucket, the only one with an excess, is never
                // this old.
                let cutoff = ((event.t_event - retention).as_secs() / bw).floor() as i64;
                while let Some(&(first, count)) = store.buckets.front() {
                    if first >= cutoff {
                        break;
                    }
                    store.buckets.pop_front();
                    store.evict(0..count);
                    evicted += count;
                }
            }
        }
        self.epoch += 1;
        evicted
    }

    /// Keeps an infinite-`T_int` snapshot current across one recorded
    /// quadruplet of pair `i`: `dropped`, the sojourn the `N_quad` cap
    /// evicted, leaves, and `sojourn` enters at its sorted position. Every
    /// member weighs `weight`, so `prefix[k]` is the `k`-fold sum of
    /// `weight` and only grows with the count: the result is bit-identical
    /// to a rebuild over the same members.
    fn shift_in(&mut self, i: usize, dropped: Option<f64>, sojourn: f64, weight: f64) {
        let (start, len) = (self.pairs[i].start as usize, self.pairs[i].len as usize);
        match dropped {
            Some(old) => {
                // Close the evicted sojourn's gap, then open one at the new
                // sojourn's position; the prefix weights stay.
                let sojourns = &mut self.arena[start..start + len];
                let out = sojourns.partition_point(|&s| s < old);
                debug_assert_eq!(sojourns.get(out), Some(&old), "evicted a non-member");
                sojourns.copy_within(out + 1.., out);
                let at = sojourns[..len - 1].partition_point(|&s| s <= sojourn);
                sojourns.copy_within(at..len - 1, at + 1);
                sojourns[at] = sojourn;
            }
            None => {
                // The pair grows by one sojourn and one prefix weight: the
                // later pairs move two slots up, the prefix weights one.
                let end = start + 2 * len + 1;
                let total = self.arena[end - 1];
                let tail = self.arena.len();
                assert_offsets(tail + 2);
                self.arena.resize(tail + 2, 0.0);
                self.arena.copy_within(end..tail, end + 2);
                self.arena.copy_within(start + len..end, start + len + 1);
                self.arena[end + 1] = total + weight;
                let sojourns = &mut self.arena[start..=start + len];
                let at = sojourns[..len].partition_point(|&s| s <= sojourn);
                sojourns.copy_within(at..len, at + 1);
                sojourns[at] = sojourn;
                self.pairs[i].len += 1;
                for pair in &mut self.pairs[i + 1..] {
                    pair.start += 2;
                }
            }
        }
        self.max_sojourn = match self.max_sojourn {
            Some(max) if dropped != Some(max) => Some(max.max(sojourn)),
            // The maximum itself may have left: rescan, in key order as a
            // rebuild does.
            _ => self
                .pairs
                .iter()
                .filter_map(|&pair| PairView::new(&self.arena, pair).max_sojourn())
                .reduce(f64::max),
        };
    }

    fn snapshot_fresh(&self, t_o: SimTime, window: &WindowConfig, refresh: Duration) -> bool {
        match self.built_at {
            None => false,
            // Infinite windows: `record` keeps a built snapshot current.
            Some(_) if window.t_int.is_infinite() => true,
            // Finite windows: refresh on expiry (new events become visible
            // within `refresh` of recording — refreshing on every record
            // would cost a refresh per hand-off).
            Some(at) => t_o >= at && t_o - at <= refresh,
        }
    }

    /// Brings every pair's selection to `t_o` and refills the arena.
    ///
    /// Each pair compares its new selection with the last build's
    /// ([`Selection::changes`]) and merges only the entries that left or
    /// entered into its sorted run, whose prefix weights are then
    /// rewritten; an unchanged pair's region is copied. The first build
    /// patches empty selections. An infinite-`T_int` store builds only
    /// once and [`Self::shift_in`] keeps its arena current after, so it
    /// drops the selections and the buffers.
    fn refresh(&mut self, t_o: SimTime, window: &WindowConfig, n_quad: usize) {
        let ClassStore {
            pairs,
            stores,
            arena,
            scratch,
            ..
        } = self;
        let Scratch {
            chosen,
            removed,
            added,
            run,
            arena: spare,
        } = &mut **scratch.get_or_insert_with(Box::default);
        spare.clear();
        let mut max_sojourn: Option<f64> = None;
        for (pair, store) in pairs.iter_mut().zip(stores.iter_mut()) {
            store.trim();
            let events = &*store.events.make_contiguous();
            let p = store.selection.get_or_insert_with(Box::default);
            chosen.clear();
            select(events, t_o, window, n_quad, chosen);
            p.changes(events, chosen, removed, added);
            std::mem::swap(&mut p.chosen, chosen);
            let start = spare.len();
            if removed.is_empty() && added.is_empty() {
                spare.extend_from_slice(&arena[pair.start as usize..pair.end()]);
            } else {
                removed.sort_unstable_by(entry_order);
                added.sort_unstable_by(entry_order);
                merge(&p.run, removed, added, run);
                std::mem::swap(&mut p.run, run);
                let len = p.run.len();
                spare.resize(start + 2 * len + 1, 0.0);
                let (sojourns, prefix) = spare[start..].split_at_mut(len);
                let mut acc = 0.0;
                for ((s, w), &(sojourn, n)) in sojourns.iter_mut().zip(&mut prefix[1..]).zip(&p.run)
                {
                    *s = sojourn;
                    acc += window.weights[n as usize];
                    *w = acc;
                }
            }
            pair.start = start as u32;
            pair.len = p.run.len() as u32;
            if let Some(&(top, _)) = p.run.last() {
                max_sojourn = Some(max_sojourn.map_or(top, |m: f64| m.max(top)));
            }
        }
        std::mem::swap(arena, spare);
        assert_offsets(arena.len());
        if window.t_int.is_infinite() {
            for store in stores.iter_mut() {
                store.selection = None;
            }
            *scratch = None;
        }
        self.built_at = Some(t_o);
        self.max_sojourn = max_sojourn;
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
            self.refresh(t_o, window, n_quad);
        }
    }

    fn view(&self) -> SnapshotView<'_> {
        SnapshotView {
            prevs: &self.prevs,
            pairs: &self.pairs,
            arena: &self.arena,
        }
    }

    fn stored_events(&self) -> usize {
        self.stores
            .iter()
            .map(|store| store.events.len() - store.excess)
            .sum()
    }
}

/// A class store's query-ready snapshot, borrowed: the key table with its
/// per-`prev` runs, and the arena.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SnapshotView<'a> {
    prevs: &'a [PrevRun],
    pairs: &'a [Pair],
    arena: &'a [f64],
}

impl<'a> SnapshotView<'a> {
    /// The `(prev, ·)` pairs, in key order.
    pub(crate) fn pairs_of(&self, prev: PrevKey) -> &'a [Pair] {
        match find_run(self.prevs, prev) {
            Ok(r) => &self.pairs[self.prevs[r].range()],
            Err(_) => &[],
        }
    }

    /// The `(prev, ·)` pairs, in key order, and the position among them
    /// of `(prev, next)`, if it was ever recorded.
    pub(crate) fn lookup(&self, prev: PrevKey, next: CellId) -> (&'a [Pair], Option<usize>) {
        let pairs = self.pairs_of(prev);
        (pairs, pairs.iter().position(|p| p.next == next))
    }

    /// The selection of `pair`.
    pub(crate) fn pair(&self, pair: Pair) -> PairView<'a> {
        PairView::new(self.arena, pair)
    }
}

/// One cell's hand-off estimation function state (Section 3.1).
#[derive(Debug, Clone)]
pub struct HoeCache {
    config: Arc<HoeConfig>,
    weekday: ClassStore,
    weekend: ClassStore,
}

impl HoeCache {
    /// Creates an empty cache. Caches built from clones of one
    /// `Arc<HoeConfig>` share it.
    pub fn new(config: impl Into<Arc<HoeConfig>>) -> Self {
        let config = config.into();
        config.validate();
        HoeCache {
            config,
            weekday: ClassStore::default(),
            weekend: ClassStore::default(),
        }
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

    /// Records one observed hand-off out of this cell.
    ///
    /// Events must arrive in event-time order (the simulator guarantees
    /// this).
    pub fn record(&mut self, event: HandoffEvent) {
        let n_quad = self.config.n_quad;
        let (store, window) = self.class_store(event.t_event);
        let evicted = store.record(event, window, n_quad);
        if qres_obs::enabled() {
            qres_obs::metrics::HOE_INSERTS_TOTAL.add(1);
            if evicted > 0 {
                qres_obs::metrics::HOE_EVICTS_TOTAL.add(evicted as u64);
            }
        }
    }

    /// The store of `t`'s day class and that class's window, borrowed
    /// disjointly from `self`.
    fn class_store(&mut self, t: SimTime) -> (&mut ClassStore, &WindowConfig) {
        let class = self.class_of(t);
        let HoeCache {
            config,
            weekday,
            weekend,
        } = self;
        match class {
            DayClass::Weekday => (weekday, &config.weekday_window),
            DayClass::Weekend => (
                weekend,
                config
                    .weekend_window
                    .as_ref()
                    .expect("weekend store only used when configured"),
            ),
        }
    }

    /// The store answering queries at `t_o`, its snapshot made current
    /// for `t_o`.
    fn current(&mut self, t_o: SimTime) -> &ClassStore {
        let (n_quad, refresh) = (self.config.n_quad, self.config.snapshot_refresh);
        let (store, window) = self.class_store(t_o);
        store.ensure_snapshot(t_o, window, n_quad, refresh);
        store
    }

    /// The snapshot answering queries at `t_o`, made current for `t_o` —
    /// the streaming estimator's entry point (see [`crate::batch`]).
    pub(crate) fn snapshot_at(&mut self, t_o: SimTime) -> SnapshotView<'_> {
        self.current(t_o).view()
    }

    /// The selection of `(prev, next)` at `t_o`, if the pair was ever
    /// recorded.
    fn pair_at(&mut self, t_o: SimTime, prev: PrevKey, next: CellId) -> Option<PairView<'_>> {
        let view = self.snapshot_at(t_o);
        let (pairs, slot) = view.lookup(prev, next);
        slot.map(|k| view.pair(pairs[k]))
    }

    /// A version counter that changes whenever a query's answer could:
    /// once per recorded quadruplet (including the pruning and in-place
    /// snapshot update it triggers) and once per snapshot build — the
    /// first query of an infinite-`T_int` store, and every refresh of a
    /// finite-`T_int` one, whose membership drifts with `t_o`. Two queries
    /// with equal `(t_o, arguments)` bracketing an unchanged version return
    /// identical results. It also counts the cache's mutations (the
    /// `mobility.hoe_mutations` benchmark row).
    pub fn version(&self) -> u64 {
        // Each mutation bumps exactly one class epoch, so the sum is
        // strictly monotone over mutations.
        self.weekday.epoch + self.weekend.epoch
    }

    /// Denominator of Eq. 4: total selected weight, over **all** next
    /// cells, of quadruplets with matching `prev` and `t_soj > t_ext`.
    ///
    /// Zero means no cached mobile with this history stayed longer than
    /// `t_ext` — the paper's *stationary* classification.
    pub fn weight_prev_gt(&mut self, t_o: SimTime, prev: PrevKey, t_ext: Duration) -> f64 {
        let a = t_ext.as_secs();
        let view = self.snapshot_at(t_o);
        // Pairs with nothing selected add no term: an empty sum is -0.0.
        view.pairs_of(prev)
            .iter()
            .map(|&pair| view.pair(pair))
            .filter(|pair| !pair.is_empty())
            .map(|pair| pair.weight_gt(a))
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
        match self.pair_at(t_o, prev, next) {
            Some(pair) => pair.weight_in(t_ext.as_secs(), (t_ext + t_est).as_secs()),
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
        match self.pair_at(t_o, prev, next) {
            Some(pair) => pair.weight_gt(t_ext.as_secs()),
            None => 0.0,
        }
    }

    /// The largest sojourn time among selected quadruplets — the cell's
    /// contribution to `T_soj,max`, which caps the adaptive `T_est`
    /// (Fig. 6). `None` if the cache has no usable quadruplets.
    pub fn max_sojourn(&mut self, t_o: SimTime) -> Option<Duration> {
        self.current(t_o).max_sojourn.map(Duration::from_secs)
    }

    /// The selected `(next, sojourns)` footprint for a given `prev` —
    /// the data behind the paper's Fig. 4. Pairs with nothing selected
    /// are left out.
    pub fn footprint_pairs(&mut self, t_o: SimTime, prev: PrevKey) -> Vec<(CellId, Vec<f64>)> {
        let view = self.snapshot_at(t_o);
        view.pairs_of(prev)
            .iter()
            .filter(|&&pair| !view.pair(pair).is_empty())
            .map(|&pair| (pair.next, view.pair(pair).sojourns().to_vec()))
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
        // Two pairs of one arena: sojourns 10, 20, 30 weighing 1, 0.5
        // and 1, and an empty one.
        let arena = [10.0, 20.0, 30.0, 0.0, 1.0, 1.5, 2.5, 0.0];
        let pair = |start, len| Pair {
            next: CellId(0),
            start,
            len,
        };
        let snap = PairView::new(&arena, pair(0, 3));
        assert_eq!(snap.total_weight(), 2.5);
        assert_eq!(snap.weight_gt(0.0), 2.5);
        assert_eq!(snap.weight_gt(10.0), 1.5);
        assert_eq!(snap.weight_gt(30.0), 0.0);
        assert_eq!(snap.weight_in(5.0, 25.0), 1.5);
        assert_eq!(snap.weight_in(10.0, 30.0), 1.5);
        assert_eq!(snap.max_sojourn(), Some(30.0));
        assert_eq!(snap.sojourns(), [10.0, 20.0, 30.0]);
        assert!(!snap.is_empty());
        let empty = PairView::new(&arena, pair(7, 0));
        assert!(empty.is_empty());
        assert_eq!(empty.weight_gt(0.0).to_bits(), 0.0f64.to_bits());
    }
}
