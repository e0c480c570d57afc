//! Randomized tests of the HOE cache against a naive reference: the indexed
//! snapshot must answer exactly like a direct scan of Eq. 2 / Eq. 3 over the
//! same quadruplets. (Seeded-RNG loops stand in for proptest, which is
//! unavailable offline.)

use qres_cellnet::CellId;
use qres_des::{Duration, SimTime, StreamRng};
use qres_mobility::{HandoffEvent, HoeCache, HoeConfig, WindowConfig};

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
