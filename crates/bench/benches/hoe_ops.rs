//! Micro-benchmarks of the hand-off estimation function cache: quadruplet
//! recording, Eq. 4 probability queries, the per-hand-off record + query
//! step, and finite-window snapshot builds, cold and refreshed — the inner
//! loop of every `B_r` computation.

use qres_cellnet::CellId;
use qres_des::{Duration, SimTime};
use qres_microbench::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qres_mobility::{handoff_probability, HandoffEvent, HandoffQuery, HoeCache, HoeConfig};

/// The `i`-th quadruplet of a trained cache, one second after the one
/// before: six `(prev, next)` pairs in turn.
fn event(i: usize) -> HandoffEvent {
    let prev = match i % 3 {
        0 => Some(CellId(1)),
        1 => Some(CellId(2)),
        _ => None,
    };
    let next = if i.is_multiple_of(2) {
        CellId(1)
    } else {
        CellId(2)
    };
    HandoffEvent::new(
        SimTime::from_secs((i + 1) as f64),
        prev,
        next,
        Duration::from_secs(20.0 + (i % 50) as f64),
    )
}

fn trained_cache(events: usize, stationary: bool) -> (HoeCache, SimTime) {
    let config = if stationary {
        HoeConfig::stationary()
    } else {
        HoeConfig::paper_time_varying()
    };
    let mut cache = HoeCache::new(config);
    for i in 0..events {
        cache.record(event(i));
    }
    (cache, SimTime::from_secs(events as f64 + 1.0))
}

fn bench_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("hoe_record");
    for (label, stationary) in [("stationary", true), ("time_varying", false)] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let (cache, _) = trained_cache(1_000, stationary);
                black_box(cache.stored_events())
            })
        });
    }
    group.finish();
}

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("hoe_query");
    for &events in &[100usize, 1_000, 10_000] {
        let (mut cache, now) = trained_cache(events, true);
        // Warm the snapshot so we measure the steady-state query path.
        let _ = cache.max_sojourn(now);
        group.bench_with_input(BenchmarkId::new("p_h_warm", events), &events, |b, _| {
            let mut ext = 0.0f64;
            b.iter(|| {
                ext = (ext + 1.0) % 60.0;
                black_box(handoff_probability(
                    &mut cache,
                    HandoffQuery {
                        now,
                        prev: Some(CellId(1)),
                        extant_sojourn: Duration::from_secs(ext),
                        next: CellId(2),
                        t_est: Duration::from_secs(10.0),
                    },
                ))
            })
        });
    }
    group.finish();
}

fn bench_record_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("hoe_record_query");
    // 600 events over 6 (prev, next) pairs = 100 per pair: every pair sits
    // at its N_quad cap, so each record also evicts — the per-hand-off
    // steady state of a queried stationary cache, whose snapshot is kept
    // current in place.
    let (mut cache, start) = trained_cache(600, true);
    let _ = cache.max_sojourn(start);
    let mut t = start.as_secs();
    let mut i = 0usize;
    group.bench_function("stationary", |b| {
        b.iter(|| {
            t += 1.0;
            i += 1;
            let now = SimTime::from_secs(t);
            cache.record(HandoffEvent::new(
                now,
                Some(CellId(1)),
                CellId(1 + (i % 2) as u32),
                Duration::from_secs(20.0 + (i % 50) as f64),
            ));
            black_box(handoff_probability(
                &mut cache,
                HandoffQuery {
                    now,
                    prev: Some(CellId(1)),
                    extant_sojourn: Duration::from_secs((i % 60) as f64),
                    next: CellId(2),
                    t_est: Duration::from_secs(10.0),
                },
            ))
        })
    });
    group.finish();
}

fn bench_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("hoe_snapshot_rebuild");
    let (cache, now) = trained_cache(5_000, false);
    group.bench_function("time_varying", |b| {
        b.iter_batched(
            || cache.clone(),
            |mut cache| {
                // A fresh clone has no snapshot: the first query builds.
                black_box(cache.max_sojourn(now))
            },
            qres_microbench::BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_refresh(c: &mut Criterion) {
    let mut group = c.benchmark_group("hoe_snapshot_refresh");
    // A time-varying snapshot built at `built`, then 30 quadruplets in the
    // next 30 s, five per pair. Each pair's current 1-h bucket is full, so
    // each of them evicts one its pair selected. The queries alternate
    // between 30.5 s after `built` and 0.5 s before it: each finds the
    // snapshot built more than the 30-s snapshot_refresh away and patches
    // it by five removals and five insertions per pair, as a time-varying
    // run refreshes a cell (which never queries backwards; the query
    // before `built` stands in for rolling the records back, and keeps the
    // buffers warm as a run's are).
    let (mut cache, built) = trained_cache(5_000, false);
    let mut cold = cache.clone();
    let _ = cache.max_sojourn(built);
    for i in 5_000..5_030 {
        cache.record(event(i));
        cold.record(event(i));
    }
    let times = [
        built + Duration::from_secs(30.5),
        built - Duration::from_secs(0.5),
    ];
    for now in times {
        assert_same_answers(&mut cache, &mut cold.clone(), now);
    }
    group.bench_function("time_varying", |b| {
        let mut times = times.into_iter().cycle();
        b.iter(|| {
            let now = times.next().expect("cycles");
            black_box(cache.max_sojourn(now))
        })
    });
    group.finish();
}

/// Panics unless `refreshed` answers every Eq.-4 weight and `max_sojourn`
/// at `now` with the same bits as `cold`, whose first query builds it.
fn assert_same_answers(refreshed: &mut HoeCache, cold: &mut HoeCache, now: SimTime) {
    let bits = |x: f64| x.to_bits();
    assert_eq!(
        refreshed.max_sojourn(now).map(|d| bits(d.as_secs())),
        cold.max_sojourn(now).map(|d| bits(d.as_secs())),
        "max_sojourn"
    );
    for prev in [None, Some(CellId(1)), Some(CellId(2))] {
        for ext in (0..8).map(|k| Duration::from_secs(f64::from(k) * 10.0)) {
            assert_eq!(
                bits(refreshed.weight_prev_gt(now, prev, ext)),
                bits(cold.weight_prev_gt(now, prev, ext)),
                "weight_prev_gt({prev:?}, {ext:?})"
            );
            for next in [CellId(1), CellId(2)] {
                let t_est = Duration::from_secs(15.0);
                assert_eq!(
                    bits(refreshed.weight_pair_in(now, prev, next, ext, t_est)),
                    bits(cold.weight_pair_in(now, prev, next, ext, t_est)),
                    "weight_pair_in({prev:?}, {next:?}, {ext:?})"
                );
            }
        }
    }
}

criterion_group!(
    benches,
    bench_record,
    bench_query,
    bench_record_query,
    bench_rebuild,
    bench_refresh
);
criterion_main!(benches);
