//! Randomized tests of the HOE cache against a naive reference: the indexed
//! snapshot must answer exactly like a direct scan of Eq. 2 / Eq. 3 over the
//! same quadruplets. (Seeded-RNG loops stand in for proptest, which is
//! unavailable offline.)

use std::collections::{BTreeMap, BTreeSet};

use qres_cellnet::CellId;
use qres_des::{Duration, SimTime, StreamRng};
use qres_mobility::{ContributionPass, DayClass, HandoffEvent, HoeCache, HoeConfig, WindowConfig};

type RawEvent = (f64, Option<u32>, u32, f64); // (gap, prev, next, sojourn)

fn random_events(rng: &mut StreamRng) -> Vec<RawEvent> {
    let len = rng.gen_range(1usize..80);
    (0..len)
        .map(|_| {
            (
                rng.gen_range_f64(0.0, 500.0),
                if rng.gen_bool(0.5) {
                    Some(rng.gen_range(0u32..4))
                } else {
                    None
                },
                rng.gen_range(0u32..4),
                rng.gen_range_f64(0.1, 300.0),
            )
        })
        .collect()
}

fn random_prev(rng: &mut StreamRng) -> Option<u32> {
    if rng.gen_bool(0.5) {
        Some(rng.gen_range(0u32..4))
    } else {
        None
    }
}

fn materialize(raw: &[RawEvent]) -> Vec<HandoffEvent> {
    let mut t = 0.0;
    raw.iter()
        .map(|&(gap, prev, next, soj)| {
            t += gap;
            HandoffEvent::new(
                SimTime::from_secs(t),
                prev.map(CellId),
                CellId(next),
                Duration::from_secs(soj),
            )
        })
        .collect()
}

/// Naive Eq. 4 numerator/denominator over the full event list (infinite
/// window, N_quad large enough to select everything).
fn naive_weights(
    events: &[HandoffEvent],
    prev: Option<CellId>,
    next: CellId,
    ext: f64,
    t_est: f64,
) -> (f64, f64) {
    let mut num = 0.0;
    let mut den = 0.0;
    for e in events {
        if e.prev != prev {
            continue;
        }
        let s = e.t_soj.as_secs();
        if s > ext {
            den += 1.0;
            if e.next == next && s <= ext + t_est {
                num += 1.0;
            }
        }
    }
    (num, den)
}

/// With N_quad large, the indexed snapshot equals the naive scan.
#[test]
fn snapshot_matches_naive_scan() {
    let mut rng = StreamRng::seed_from_u64(0xCAC4_0001);
    for _ in 0..300 {
        let raw = random_events(&mut rng);
        let events = materialize(&raw);
        let mut config = HoeConfig::stationary();
        config.n_quad = 10_000;
        let mut cache = HoeCache::new(config);
        for e in &events {
            cache.record(*e);
        }
        let now = SimTime::from_secs(events.last().unwrap().t_event.as_secs() + 1.0);
        let prev = random_prev(&mut rng).map(CellId);
        let next = CellId(rng.gen_range(0u32..4));
        let ext = rng.gen_range_f64(0.0, 200.0);
        let t_est = rng.gen_range_f64(0.0, 200.0);
        let (num, den) = naive_weights(&events, prev, next, ext, t_est);
        let got_den = cache.weight_prev_gt(now, prev, Duration::from_secs(ext));
        let got_num = cache.weight_pair_in(
            now,
            prev,
            next,
            Duration::from_secs(ext),
            Duration::from_secs(t_est),
        );
        assert!(
            (got_den - den).abs() < 1e-9,
            "den: got {got_den}, want {den}"
        );
        assert!(
            (got_num - num).abs() < 1e-9,
            "num: got {got_num}, want {num}"
        );
    }
}

/// With a small N_quad in infinite-window mode, only the most recent N_quad
/// per (prev, next) pair are selected — equal to the naive scan over each
/// pair's last N_quad events.
#[test]
fn n_quad_selects_most_recent() {
    let mut rng = StreamRng::seed_from_u64(0xCAC4_0002);
    for _ in 0..300 {
        let raw = random_events(&mut rng);
        let events = materialize(&raw);
        let n_quad = rng.gen_range(1usize..10);
        let mut config = HoeConfig::stationary();
        config.n_quad = n_quad;
        let mut cache = HoeCache::new(config);
        for e in &events {
            cache.record(*e);
        }
        let now = SimTime::from_secs(events.last().unwrap().t_event.as_secs() + 1.0);
        let prev = random_prev(&mut rng).map(CellId);
        let ext = rng.gen_range_f64(0.0, 200.0);
        // Reference: last n_quad events per (prev, next) pair.
        let mut expected = 0.0;
        for next in 0..4u32 {
            let pair_events: Vec<&HandoffEvent> = events
                .iter()
                .filter(|e| e.prev == prev && e.next == CellId(next))
                .collect();
            let keep = pair_events.len().saturating_sub(n_quad);
            for e in &pair_events[keep..] {
                if e.t_soj.as_secs() > ext {
                    expected += 1.0;
                }
            }
        }
        let got = cache.weight_prev_gt(now, prev, Duration::from_secs(ext));
        assert!((got - expected).abs() < 1e-9, "got {got}, want {expected}");
    }
}

/// Finite-window membership: the cache's selection agrees with a naive
/// Eq. 2 scan when every bucket is under-full (no per-bucket capping).
#[test]
fn finite_window_matches_naive_membership() {
    let mut rng = StreamRng::seed_from_u64(0xCAC4_0003);
    for _ in 0..300 {
        let n = rng.gen_range(1usize..40);
        let raw: Vec<(f64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range_f64(600.0, 2_000.0),
                    rng.gen_range_f64(0.1, 300.0),
                )
            })
            .collect();
        let query_hour = rng.gen_range_f64(0.0, 50.0);
        let window = WindowConfig::paper_time_varying();
        let mut config = HoeConfig::paper_time_varying();
        config.n_quad = 10_000;
        let mut cache = HoeCache::new(config);
        let mut t = 0.0;
        let mut events = Vec::new();
        for &(gap, soj) in &raw {
            t += gap;
            let e = HandoffEvent::new(
                SimTime::from_secs(t),
                Some(CellId(1)),
                CellId(2),
                Duration::from_secs(soj),
            );
            cache.record(e);
            events.push(e);
        }
        let now = SimTime::from_secs(t + query_hour * 3_600.0 + 1.0);
        let expected: f64 = events
            .iter()
            .filter_map(|e| window.membership(now, e.t_event).map(|m| m.weight))
            .sum();
        let got = cache.weight_prev_gt(now, Some(CellId(1)), Duration::ZERO);
        assert!((got - expected).abs() < 1e-9, "got {got}, want {expected}");
    }
}

/// Every Eq.-4 weight and `max_sojourn` of `live`, compared by bits with
/// `fresh`, over all `(prev, next)` pairs at random thresholds — some of
/// them equal to a sojourn of the duplicate-heavy grid in
/// [`in_place_snapshot_matches_fresh_build`].
fn assert_same_answers(
    live: &mut HoeCache,
    fresh: &mut HoeCache,
    now: SimTime,
    rng: &mut StreamRng,
) {
    let threshold = |rng: &mut StreamRng| {
        Duration::from_secs(if rng.gen_bool(0.5) {
            f64::from(rng.gen_range(0u32..5)) * 10.0
        } else {
            rng.gen_range_f64(0.0, 60.0)
        })
    };
    for prev in [None, Some(0u32), Some(1), Some(2)].map(|p| p.map(CellId)) {
        let ext = threshold(rng);
        assert_eq!(
            live.weight_prev_gt(now, prev, ext).to_bits(),
            fresh.weight_prev_gt(now, prev, ext).to_bits(),
            "weight_prev_gt({prev:?}, {ext:?}) at {now:?}"
        );
        for next in (0u32..3).map(CellId) {
            let (ext, t_est) = (threshold(rng), threshold(rng));
            assert_eq!(
                live.weight_pair_in(now, prev, next, ext, t_est).to_bits(),
                fresh.weight_pair_in(now, prev, next, ext, t_est).to_bits(),
                "weight_pair_in({prev:?}, {next:?}, {ext:?}, {t_est:?}) at {now:?}"
            );
            assert_eq!(
                live.weight_pair_gt(now, prev, next, ext).to_bits(),
                fresh.weight_pair_gt(now, prev, next, ext).to_bits(),
                "weight_pair_gt({prev:?}, {next:?}, {ext:?}) at {now:?}"
            );
        }
    }
    assert_eq!(
        live.max_sojourn(now).map(|d| d.as_secs().to_bits()),
        fresh.max_sojourn(now).map(|d| d.as_secs().to_bits()),
        "max_sojourn at {now:?}"
    );
}

/// Interleaved records and queries on infinite-window caches: a cache
/// whose snapshot is kept current record by record answers bit-identically
/// to a fresh cache fed the same events and queried once, which builds its
/// snapshot from scratch. Small `N_quad` forces evictions, sojourns repeat,
/// `w_0` is non-unit in most cases, and half the cases route weekends into
/// a second infinite-window class (gaps of up to half a day cross
/// weekends).
#[test]
fn in_place_snapshot_matches_fresh_build() {
    let mut rng = StreamRng::seed_from_u64(0xCAC4_0005);
    for case in 0..200 {
        let mut config = HoeConfig::stationary();
        // Short caps evict often; long ones grow prefix sums far enough
        // for a non-unit w_0 to round differently under another summation.
        config.n_quad = if case % 4 < 2 {
            rng.gen_range(1usize..6)
        } else {
            rng.gen_range(8usize..24)
        };
        config.weekday_window.weights = vec![[1.0, 0.7, 0.1][case % 3]];
        if case % 2 == 1 {
            config.weekend_window = Some(WindowConfig {
                t_int: Duration::INFINITE,
                period: Duration::WEEK,
                weights: vec![0.7],
            });
        }
        let mut live = HoeCache::new(config.clone());
        let mut events = Vec::new();
        let mut t = 0.0;
        for _ in 0..rng.gen_range(1usize..150) {
            t += rng.gen_range_f64(0.0, 43_200.0);
            let sojourn = if rng.gen_bool(0.7) {
                f64::from(rng.gen_range(1u32..5)) * 10.0
            } else {
                rng.gen_range_f64(0.1, 60.0)
            };
            let e = HandoffEvent::new(
                SimTime::from_secs(t),
                random_prev(&mut rng).map(|p| CellId(p % 2)),
                CellId(rng.gen_range(0u32..2)),
                Duration::from_secs(sojourn),
            );
            live.record(e);
            events.push(e);
            if rng.gen_bool(0.5) {
                let now = SimTime::from_secs(t + rng.gen_range_f64(0.0, 10.0));
                let mut fresh = HoeCache::new(config.clone());
                for e in &events {
                    fresh.record(*e);
                }
                assert_same_answers(&mut live, &mut fresh, now, &mut rng);
            }
        }
    }
}

/// max_sojourn equals the maximum over the selected quadruplets.
#[test]
fn max_sojourn_matches() {
    let mut rng = StreamRng::seed_from_u64(0xCAC4_0004);
    for _ in 0..300 {
        let raw = random_events(&mut rng);
        let events = materialize(&raw);
        let mut config = HoeConfig::stationary();
        config.n_quad = 10_000;
        let mut cache = HoeCache::new(config);
        for e in &events {
            cache.record(*e);
        }
        let now = SimTime::from_secs(events.last().unwrap().t_event.as_secs() + 1.0);
        let expected = events
            .iter()
            .map(|e| e.t_soj.as_secs())
            .fold(f64::NEG_INFINITY, f64::max);
        let got = cache.max_sojourn(now).unwrap().as_secs();
        assert!((got - expected).abs() < 1e-12);
    }
}

/// A `(prev, next)` pair.
type Key = (Option<CellId>, CellId);

/// A pair's selected sojourns, ascending, and their prefix weights.
type Selection = (Vec<f64>, Vec<f64>);

/// One class of [`ModelCache`]: the raw stores and the selections, each a
/// `BTreeMap` keyed by `(prev, next)`.
#[derive(Default)]
struct ModelClass {
    raw: BTreeMap<Key, ModelStore>,
    built_at: Option<SimTime>,
    /// Recorded into since the last build.
    dirty: bool,
    /// Pairs with nothing selected are absent.
    pairs: BTreeMap<Key, Selection>,
    max_sojourn: Option<f64>,
    /// The window index of each quadruplet the last build selected, by id.
    selected: BTreeMap<u64, u32>,
}

/// A recorded quadruplet and its id (its recording ordinal).
type Stored = (u64, HandoffEvent);

enum ModelStore {
    Recent(Vec<Stored>),
    Bucketed(BTreeMap<i64, Vec<Stored>>),
}

/// The HOE cache as the rules state it, with no in-place updates: every
/// stale query rebuilds the selections from the raw stores. An infinite
/// window's snapshot counts as built once (later rebuilds stand for the
/// in-place updates, which change no answer and bump no version).
struct ModelCache {
    config: HoeConfig,
    weekday: ModelClass,
    weekend: ModelClass,
    version: u64,
    /// What the builds have met, for [`Coverage`].
    seen: Coverage,
}

impl ModelCache {
    fn new(config: HoeConfig) -> Self {
        ModelCache {
            config,
            weekday: ModelClass::default(),
            weekend: ModelClass::default(),
            version: 0,
            seen: Coverage::default(),
        }
    }

    fn class(&mut self, t: SimTime) -> (&mut ModelClass, WindowConfig) {
        match &self.config.weekend_window {
            Some(w) if self.config.calendar.classify(t) == DayClass::Weekend => {
                (&mut self.weekend, w.clone())
            }
            _ => (&mut self.weekday, self.config.weekday_window.clone()),
        }
    }

    /// Records `e`; returns whether its pair is new to a built snapshot,
    /// and the sojourn the `N_quad` cap evicted, if any.
    fn record(&mut self, e: HandoffEvent) -> (bool, Option<f64>) {
        let n_quad = self.config.n_quad;
        self.version += 1;
        let id = self.version;
        let mut seen = std::mem::take(&mut self.seen);
        let (class, window) = self.class(e.t_event);
        let new_key = !class.raw.contains_key(&(e.prev, e.next)) && class.built_at.is_some();
        class.dirty = true;
        let store = class.raw.entry((e.prev, e.next)).or_insert_with(|| {
            if window.t_int.is_infinite() {
                ModelStore::Recent(Vec::new())
            } else {
                ModelStore::Bucketed(BTreeMap::new())
            }
        });
        let selected = &class.selected;
        let evicted = match store {
            ModelStore::Recent(events) => {
                events.push((id, e));
                (events.len() > n_quad).then(|| events.remove(0))
            }
            ModelStore::Bucketed(buckets) => {
                let bw = window.t_int.as_secs().max(1.0);
                let bucket = buckets
                    .entry((e.t_event.as_secs() / bw).floor() as i64)
                    .or_default();
                bucket.push((id, e));
                let evicted = (bucket.len() > n_quad).then(|| bucket.remove(0));
                seen.selected_capped |= evicted.is_some_and(|(id, _)| selected.contains_key(&id));
                let retention = window.retention().expect("finite window");
                let cutoff = ((e.t_event - retention).as_secs() / bw).floor() as i64;
                let retired = buckets.range(..cutoff).flat_map(|(_, b)| b);
                seen.selected_retired |= retired.clone().any(|(id, _)| selected.contains_key(id));
                buckets.retain(|&idx, _| idx >= cutoff);
                evicted
            }
        };
        self.seen = seen;
        (new_key, evicted.map(|(_, e)| e.t_soj.as_secs()))
    }

    /// The quadruplets the stores hold.
    fn stored(&self) -> usize {
        [&self.weekday, &self.weekend]
            .iter()
            .flat_map(|class| class.raw.values())
            .map(|store| match store {
                ModelStore::Recent(events) => events.len(),
                ModelStore::Bucketed(buckets) => buckets.values().map(Vec::len).sum(),
            })
            .sum()
    }

    /// Makes the selections answer for `t_o`; returns whether the cache
    /// counts a build.
    fn ensure(&mut self, t_o: SimTime) -> bool {
        let (n_quad, refresh) = (self.config.n_quad, self.config.snapshot_refresh);
        let mut seen = std::mem::take(&mut self.seen);
        let (class, window) = self.class(t_o);
        let infinite = window.t_int.is_infinite();
        let stale = match class.built_at {
            None => true,
            Some(_) if infinite => false,
            Some(at) => !(t_o >= at && t_o - at <= refresh),
        };
        if stale && !infinite {
            if let Some(at) = class.built_at {
                seen.refresh_without_record |= !class.dirty;
                seen.query_before_build |= t_o < at;
            }
        }
        if stale || (infinite && class.dirty) {
            class.rebuild(t_o, &window, n_quad, &mut seen);
        }
        self.seen = seen;
        self.version += u64::from(stale);
        stale
    }

    fn pairs(&mut self, t_o: SimTime) -> &ModelClass {
        self.ensure(t_o);
        self.class(t_o).0
    }

    fn weight_prev_gt(&mut self, t_o: SimTime, prev: Option<CellId>, t_ext: Duration) -> f64 {
        let a = t_ext.as_secs();
        self.pairs(t_o)
            .pairs
            .range((prev, CellId(0))..=(prev, CellId(u32::MAX)))
            .map(|(_, pair)| model_weight_gt(pair, a))
            .sum()
    }

    fn weight_pair_in(
        &mut self,
        t_o: SimTime,
        prev: Option<CellId>,
        next: CellId,
        t_ext: Duration,
        t_est: Duration,
    ) -> f64 {
        match self.pairs(t_o).pairs.get(&(prev, next)) {
            Some(pair) => (model_weight_gt(pair, t_ext.as_secs())
                - model_weight_gt(pair, (t_ext + t_est).as_secs()))
            .max(0.0),
            None => 0.0,
        }
    }

    fn weight_pair_gt(
        &mut self,
        t_o: SimTime,
        prev: Option<CellId>,
        next: CellId,
        t_ext: Duration,
    ) -> f64 {
        match self.pairs(t_o).pairs.get(&(prev, next)) {
            Some(pair) => model_weight_gt(pair, t_ext.as_secs()),
            None => 0.0,
        }
    }

    fn max_sojourn(&mut self, t_o: SimTime) -> Option<f64> {
        self.pairs(t_o).max_sojourn
    }

    fn footprint_pairs(&mut self, t_o: SimTime, prev: Option<CellId>) -> Vec<(CellId, Vec<f64>)> {
        self.pairs(t_o)
            .pairs
            .range((prev, CellId(0))..=(prev, CellId(u32::MAX)))
            .map(|(&(_, next), (sojourns, _))| (next, sojourns.clone()))
            .collect()
    }

    /// Eq. 4 as `handoff_probability` (no declared next cell) and
    /// `known_next_probability` (declared `next`) compute it.
    fn p_h(&mut self, t_o: SimTime, prev: Option<CellId>, known: bool, conn: Query) -> f64 {
        let (next, t_ext, t_est) = conn;
        let den = if known {
            self.weight_pair_gt(t_o, prev, next, t_ext)
        } else {
            self.weight_prev_gt(t_o, prev, t_ext)
        };
        if den <= 0.0 {
            return 0.0;
        }
        (self.weight_pair_in(t_o, prev, next, t_ext, t_est) / den).clamp(0.0, 1.0)
    }
}

/// `(next, T_ext-soj, T_est)` of one Eq.-4 query.
type Query = (CellId, Duration, Duration);

fn model_weight_gt((sojourns, prefix): &Selection, a: f64) -> f64 {
    let idx = sojourns.partition_point(|&s| s <= a);
    prefix[sojourns.len()] - prefix[idx]
}

impl ModelClass {
    /// The selections at `t_o` by the paper's rules, rebuilt from the raw
    /// stores with two stable sorts; notes in `seen` what the selection met.
    fn rebuild(&mut self, t_o: SimTime, window: &WindowConfig, n_quad: usize, seen: &mut Coverage) {
        self.pairs.clear();
        self.max_sojourn = None;
        let overlapping = 2.0 * window.t_int.as_secs() > window.period.as_secs();
        let mut chosen = BTreeMap::new();
        for (&key, store) in &self.raw {
            // (n, distance, sojourn, weight, id, event time, offset from the
            // window's centre).
            let mut members: Vec<(u32, f64, f64, f64, u64, f64, f64)> = Vec::new();
            let mut consider = |&(id, e): &Stored| {
                if let Some(m) = window.membership(t_o, e.t_event) {
                    let offset =
                        (t_o - e.t_event).as_secs() - f64::from(m.n) * window.period.as_secs();
                    members.push((
                        m.n,
                        m.distance,
                        e.t_soj.as_secs(),
                        m.weight,
                        id,
                        e.t_event.as_secs(),
                        offset,
                    ));
                }
            };
            match store {
                ModelStore::Recent(events) => events.iter().for_each(&mut consider),
                ModelStore::Bucketed(buckets) => {
                    let bw = window.t_int.as_secs().max(1.0);
                    let (t_int, period) = (window.t_int.as_secs(), window.period.as_secs());
                    let mut indices = BTreeSet::new();
                    for n in 0..window.num_windows() {
                        let lo = t_o.as_secs() - t_int - f64::from(n) * period;
                        let hi = t_o.as_secs() + t_int - f64::from(n) * period;
                        let range = (lo / bw).floor() as i64..=(hi / bw).floor() as i64;
                        indices.extend(buckets.range(range).map(|(&idx, _)| idx));
                    }
                    for idx in indices {
                        buckets[&idx].iter().for_each(&mut consider);
                    }
                }
            }
            if members.is_empty() {
                continue;
            }
            members.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.partial_cmp(&b.1).unwrap()));
            if let (Some(kept), Some(cut)) = (members.get(n_quad - 1), members.get(n_quad)) {
                // Equal sojourns would hide a wrong pick.
                if (kept.0, kept.1) == (cut.0, cut.1) && kept.2 != cut.2 {
                    seen.equal_time_tie_at_cut |= kept.5 == cut.5;
                    seen.mirror_tie_at_cut |= kept.6 > 0.0 && cut.6 < 0.0;
                }
            }
            members.truncate(n_quad);
            for m in &members {
                seen.n_changed |= overlapping && self.selected.get(&m.4).is_some_and(|&n| n != m.0);
                chosen.insert(m.4, m.0);
            }
            let mut selected: Vec<(f64, f64)> = members.iter().map(|m| (m.2, m.3)).collect();
            selected.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            let sojourns: Vec<f64> = selected.iter().map(|s| s.0).collect();
            let mut prefix = vec![0.0];
            for &(_, w) in &selected {
                prefix.push(prefix.last().unwrap() + w);
            }
            let top = *sojourns.last().unwrap();
            self.max_sojourn = Some(self.max_sojourn.map_or(top, |m: f64| m.max(top)));
            self.pairs.insert(key, (sojourns, prefix));
        }
        self.built_at = Some(t_o);
        self.dirty = false;
        self.selected = chosen;
    }
}

/// The cases [`flat_cache_matches_btreemap_model`] must reach. The last
/// seven are what a finite-`T_int` refresh must patch right.
#[derive(Default, Debug)]
struct Coverage {
    none_prev: bool,
    spill: bool,
    key_after_build: bool,
    max_evicted: bool,
    finite: bool,
    infinite: bool,
    weekend_queried: bool,
    /// Overlapping windows (`2·T_int > period`) moved a quadruplet that
    /// two builds in a row selected to another window index.
    n_changed: bool,
    /// The `N_quad` cut fell between two members of equal priority but
    /// unequal sojourns, with equal event times...
    equal_time_tie_at_cut: bool,
    /// ...or on either side of a window's centre at the same distance.
    mirror_tie_at_cut: bool,
    /// A bucket's `N_quad` cap evicted a quadruplet the last build
    /// selected.
    selected_capped: bool,
    /// Retention pruned a quadruplet the last build selected.
    selected_retired: bool,
    /// A stale snapshot refreshed with nothing recorded since its build.
    refresh_without_record: bool,
    /// A query before the snapshot's build time refreshed it.
    query_before_build: bool,
}

/// Finite windows for [`flat_cache_matches_btreemap_model`]: the paper's,
/// and four hourly windows with `T_int` = 20 min (disjoint) and 40 min
/// (overlapping), whose centres a few hours of quadruplets reach.
fn finite_window(kind: usize) -> WindowConfig {
    match kind {
        0 => WindowConfig::paper_time_varying(),
        1 => WindowConfig {
            t_int: Duration::from_secs(1_200.0),
            period: Duration::from_hours(1.0),
            weights: vec![1.0, 0.8, 0.5, 0.3],
        },
        _ => WindowConfig {
            t_int: Duration::from_secs(2_400.0),
            period: Duration::from_hours(1.0),
            weights: vec![1.0, 0.7, 0.7, 0.2],
        },
    }
}

/// Seeded record/query sequences against [`ModelCache`]: every answer
/// bit-identical, `footprint_pairs` in the same order, and `version()`
/// bumped by each record and by each build the model counts, and by
/// nothing else. The sequences cover in-cell starts, up to 14 distinct
/// `prev`s (the streaming pass keeps 8 inline and spills the rest), pairs
/// first seen after the snapshot was built, evictions of the largest
/// selected sojourn, finite and infinite windows, and the weekend store.
/// Finite windows also meet the cases of a refresh: overlapping windows,
/// priority ties at the `N_quad` cut (event times on a 10-s grid in half
/// the cases, so equal times and mirror distances occur), selected
/// quadruplets evicted between builds, refreshes with nothing recorded,
/// and queries before the snapshot's build time.
#[test]
fn flat_cache_matches_btreemap_model() {
    let mut rng = StreamRng::seed_from_u64(0xCAC4_0006);
    let mut seen = Coverage::default();
    for case in 0..160 {
        let infinite = case % 2 == 0;
        let mut config = if infinite {
            HoeConfig::stationary()
        } else {
            HoeConfig {
                weekday_window: finite_window(case / 2 % 3),
                ..HoeConfig::paper_time_varying()
            }
        };
        config.n_quad = if case % 4 < 2 {
            rng.gen_range(1usize..6)
        } else {
            rng.gen_range(8usize..30)
        };
        if rng.gen_bool(0.5) {
            let w = &mut config.weekday_window.weights;
            w[0] = 0.7;
            if w.len() > 1 {
                w[1] = 0.3;
            }
            w.truncate(2);
        }
        if case % 3 == 0 {
            config.weekend_window = Some(WindowConfig {
                t_int: if infinite {
                    Duration::INFINITE
                } else {
                    Duration::from_hours(1.0)
                },
                period: Duration::WEEK,
                weights: if infinite { vec![0.6] } else { vec![1.0, 0.6] },
            });
        }
        seen.finite |= !infinite;
        seen.infinite |= infinite;
        // Event and query times on a 1-min grid, over four pairs: equal
        // times, and equal distances from a window's centre, abound.
        let grid = case / 4 % 2 == 1;
        let prevs = if grid { 1 } else { [3u32, 7, 13][case % 3] };
        let draw_prev = |rng: &mut StreamRng| {
            let p = rng.gen_range(0..prevs + 1);
            (p < prevs).then_some(CellId(p))
        };
        let gap = |rng: &mut StreamRng, hi: f64| {
            if grid {
                60.0 * f64::from(rng.gen_range(0u32..(hi / 60.0).ceil() as u32))
            } else {
                rng.gen_range_f64(0.0, hi)
            }
        };
        let nexts = if grid { 2 } else { 4 };
        let mut cache = HoeCache::new(config.clone());
        let mut model = ModelCache::new(config.clone());
        let mut t = 0.0;
        for _ in 0..rng.gen_range(1usize..200) {
            t += match rng.gen_range(0u32..20) {
                0 => gap(&mut rng, 108_000.0),
                1..=5 => gap(&mut rng, 7_200.0),
                _ => gap(&mut rng, 300.0),
            };
            // Ties in time need distinct sojourns to show.
            let sojourn = if rng.gen_bool(if grid { 0.2 } else { 0.6 }) {
                f64::from(rng.gen_range(1u32..5)) * 10.0
            } else {
                rng.gen_range_f64(0.1, 60.0)
            };
            let e = HandoffEvent::new(
                SimTime::from_secs(t),
                draw_prev(&mut rng),
                CellId(rng.gen_range(0u32..nexts)),
                Duration::from_secs(sojourn),
            );
            seen.none_prev |= e.prev.is_none();
            let max_before = model.class(e.t_event).0.max_sojourn;
            let built = model.class(e.t_event).0.built_at.is_some();
            let (new_key, evicted) = model.record(e);
            seen.key_after_build |= new_key;
            seen.max_evicted |= built && infinite && evicted.is_some() && evicted == max_before;
            let before = cache.version();
            cache.record(e);
            assert_eq!(cache.version(), before + 1, "case {case}: record");
            assert_eq!(cache.stored_events(), model.stored(), "case {case}: stored");
            if rng.gen_bool(0.4) {
                t += gap(&mut rng, 60.0);
                let mut queries = vec![t];
                // A finite snapshot also refreshes with nothing recorded,
                // later or earlier than its build. Up to an hour later,
                // the hourly windows' first past centre lies among the
                // last quadruplets, with few in the current window.
                if !infinite && rng.gen_bool(0.3) {
                    let away = 60.0 + gap(&mut rng, 3_600.0);
                    if rng.gen_bool(0.5) {
                        t += away;
                        queries.push(t);
                    } else {
                        queries.push(t - away);
                    }
                }
                for now in queries.into_iter().map(SimTime::from_secs) {
                    seen.weekend_queried |= config.weekend_window.is_some()
                        && config.calendar.classify(now) == DayClass::Weekend;
                    let ctx = format!("case {case} at {now:?}");
                    compare_with_model(&mut cache, &mut model, now, prevs, &mut rng, &ctx);
                    seen.spill |= check_pass(&mut cache, &mut model, now, prevs, &mut rng, &ctx);
                }
            }
        }
        seen.merge(&model.seen);
    }
    assert!(
        seen.none_prev
            && seen.spill
            && seen.key_after_build
            && seen.max_evicted
            && seen.finite
            && seen.infinite
            && seen.weekend_queried
            && seen.n_changed
            && seen.equal_time_tie_at_cut
            && seen.mirror_tie_at_cut
            && seen.selected_capped
            && seen.selected_retired
            && seen.refresh_without_record
            && seen.query_before_build,
        "uncovered: {seen:?}"
    );
}

impl Coverage {
    /// Adds what a model's builds met.
    fn merge(&mut self, model: &Coverage) {
        self.n_changed |= model.n_changed;
        self.equal_time_tie_at_cut |= model.equal_time_tie_at_cut;
        self.mirror_tie_at_cut |= model.mirror_tie_at_cut;
        self.selected_capped |= model.selected_capped;
        self.selected_retired |= model.selected_retired;
        self.refresh_without_record |= model.refresh_without_record;
        self.query_before_build |= model.query_before_build;
    }
}

/// A threshold on the sojourn grid of the model test (so ties occur) or
/// off it.
fn model_threshold(rng: &mut StreamRng) -> Duration {
    Duration::from_secs(if rng.gen_bool(0.5) {
        f64::from(rng.gen_range(0u32..5)) * 10.0
    } else {
        rng.gen_range_f64(0.0, 60.0)
    })
}

/// Every query of `cache` against `model` at `now`, over the `prevs`
/// seen plus an unseen one, and next cells 0–3 plus an unseen one.
fn compare_with_model(
    cache: &mut HoeCache,
    model: &mut ModelCache,
    now: SimTime,
    prevs: u32,
    rng: &mut StreamRng,
    ctx: &str,
) {
    let before = cache.version();
    let max = cache.max_sojourn(now).map(|d| d.as_secs().to_bits());
    let built = model.ensure(now);
    assert_eq!(cache.version(), before + u64::from(built), "{ctx}: version");
    assert_eq!(max, model.max_sojourn(now).map(f64::to_bits), "{ctx}: max");
    let version = cache.version();
    // Cell `prevs` never hands in.
    for prev in (0..=prevs).map(|p| Some(CellId(p))).chain([None]) {
        let ext = model_threshold(rng);
        assert_eq!(
            cache.weight_prev_gt(now, prev, ext).to_bits(),
            model.weight_prev_gt(now, prev, ext).to_bits(),
            "{ctx}: weight_prev_gt({prev:?}, {ext:?})"
        );
        assert_eq!(
            cache.footprint_pairs(now, prev),
            model.footprint_pairs(now, prev),
            "{ctx}: footprint_pairs({prev:?})"
        );
        for next in (0u32..5).map(CellId) {
            let (ext, t_est) = (model_threshold(rng), model_threshold(rng));
            assert_eq!(
                cache.weight_pair_in(now, prev, next, ext, t_est).to_bits(),
                model.weight_pair_in(now, prev, next, ext, t_est).to_bits(),
                "{ctx}: weight_pair_in({prev:?}, {next:?}, {ext:?}, {t_est:?})"
            );
            assert_eq!(
                cache.weight_pair_gt(now, prev, next, ext).to_bits(),
                model.weight_pair_gt(now, prev, next, ext).to_bits(),
                "{ctx}: weight_pair_gt({prev:?}, {next:?}, {ext:?})"
            );
        }
    }
    assert_eq!(cache.version(), version, "{ctx}: a fresh snapshot rebuilt");
}

/// One streaming pass toward a random target over a population drawn
/// from every `prev`, each probability equal by bits to the model's
/// Eq. 4 and each target span to the model's pair; returns whether the
/// pass resolved more `prev`s than it keeps inline.
fn check_pass(
    cache: &mut HoeCache,
    model: &mut ModelCache,
    now: SimTime,
    prevs: u32,
    rng: &mut StreamRng,
    ctx: &str,
) -> bool {
    let target = CellId(rng.gen_range(0u32..4));
    let t_est = model_threshold(rng);
    let conns: Vec<(Option<CellId>, Option<CellId>, Duration)> = (0..30)
        .map(|_| {
            let p = rng.gen_range(0..prevs + 1);
            let known = match rng.gen_range(0u32..6) {
                0 => Some(target),
                1 => Some(CellId(9)),
                _ => None,
            };
            (
                (p < prevs).then_some(CellId(p)),
                known,
                model_threshold(rng),
            )
        })
        .collect();
    let mut pass = ContributionPass::new(cache, now, target, t_est);
    let mut distinct = BTreeSet::new();
    for &(prev, known, ext) in &conns {
        let got = pass.probability(prev, known, ext);
        let expect = match known {
            Some(declared) if declared != target => 0.0,
            _ => model.p_h(now, prev, known.is_some(), (target, ext, t_est)),
        };
        assert_eq!(
            got.to_bits(),
            expect.to_bits(),
            "{ctx}: p_h({prev:?}, {known:?}, {ext:?}) toward {target:?}"
        );
        let span = model.pairs(now).pairs.get(&(prev, target)).map(|(s, _)| {
            (
                s.first().copied().unwrap().to_bits(),
                s.last().copied().unwrap().to_bits(),
            )
        });
        assert_eq!(
            pass.target_span(prev)
                .map(|(lo, hi)| (lo.to_bits(), hi.to_bits())),
            span,
            "{ctx}: target_span({prev:?})"
        );
        distinct.insert(prev);
    }
    distinct.len() > 8
}
