//! Micro-benchmarks of the hand-off estimation function cache: quadruplet
//! recording, Eq. 4 probability queries, the per-hand-off record + query
//! step, and finite-window snapshot rebuilds — the inner loop of every
//! `B_r` computation.

use qres_cellnet::CellId;
use qres_des::{Duration, SimTime};
use qres_microbench::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qres_mobility::{handoff_probability, HandoffEvent, HandoffQuery, HoeCache, HoeConfig};

fn trained_cache(events: usize, stationary: bool) -> (HoeCache, SimTime) {
    let config = if stationary {
        HoeConfig::stationary()
    } else {
        HoeConfig::paper_time_varying()
    };
    let mut cache = HoeCache::new(config);
    let mut t = 0.0;
    for i in 0..events {
        t += 1.0;
        let prev = match i % 3 {
            0 => Some(CellId(1)),
            1 => Some(CellId(2)),
            _ => None,
        };
        let next = if i % 2 == 0 { CellId(1) } else { CellId(2) };
        let soj = 20.0 + (i % 50) as f64;
        cache.record(HandoffEvent::new(
            SimTime::from_secs(t),
            prev,
            next,
            Duration::from_secs(soj),
        ));
    }
    (cache, SimTime::from_secs(t + 1.0))
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

criterion_group!(
    benches,
    bench_record,
    bench_query,
    bench_record_query,
    bench_rebuild
);
criterion_main!(benches);
