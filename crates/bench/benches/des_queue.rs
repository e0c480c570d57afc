//! Micro-benchmarks of the discrete-event queue — the substrate every
//! simulated second rides on.

use qres_des::{EventQueue, SimTime, StreamRng};
use qres_microbench::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn schedule_pop(c: &mut Criterion) {
    let mut group = c.benchmark_group("des_queue");
    for &n in &[1_000usize, 10_000, 100_000] {
        group.bench_with_input(BenchmarkId::new("schedule_then_drain", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::with_capacity(n);
                for i in 0..n {
                    // Pseudo-random times via a multiplicative hash.
                    let t = ((i.wrapping_mul(2_654_435_761)) % 1_000_000) as f64;
                    q.schedule(SimTime::from_secs(t), i);
                }
                let mut sum = 0usize;
                while let Some((_, v)) = q.pop() {
                    sum += v;
                }
                black_box(sum)
            })
        });
    }
    group.bench_function("interleaved_schedule_pop", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(64);
            let mut clock = 0.0;
            // A self-scheduling chain like the simulator's arrival process.
            q.schedule(SimTime::from_secs(0.0), 0u64);
            for _ in 0..10_000 {
                let (t, v) = q.pop().unwrap();
                clock = t.as_secs();
                q.schedule(SimTime::from_secs(clock + 1.0 + (v % 7) as f64), v + 1);
            }
            black_box(clock)
        })
    });
    group.bench_function("cancellation_heavy", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(2_048);
            let mut handles = Vec::with_capacity(1_024);
            for i in 0..1_024u32 {
                handles.push(q.schedule(SimTime::from_secs(f64::from(i)), i));
            }
            // Cancel every other event.
            for h in handles.iter().step_by(2) {
                q.cancel(*h);
            }
            let mut seen = 0u32;
            while q.pop().is_some() {
                seen += 1;
            }
            black_box(seen)
        })
    });
    group.bench_function("engine_mix", |b| b.iter(|| black_box(engine_mix(50_000))));
    group.finish();
}

/// The kinds of event in the simulator's mix. A hand-off carries its
/// connection's expiry, as the simulator's carries the mobile.
#[derive(Clone, Copy)]
enum Mix {
    Arrival { cell: u32 },
    Handoff { end_at: f64 },
    End,
}

/// [`Mix`] padded to the 40 bytes of `qres_sim`'s event enum.
struct MixEvent(Mix, #[allow(dead_code)] [u64; 3]);

const _: () = assert!(std::mem::size_of::<MixEvent>() == 40);

/// Schedules a connection's one pending event: its expiry at `end_at` if
/// that comes no later than its crossing at `crossing_at`, else the
/// hand-off.
fn schedule_next(q: &mut EventQueue<MixEvent>, end_at: f64, crossing_at: f64) {
    let (at, event) = if end_at <= crossing_at {
        (end_at, Mix::End)
    } else {
        (crossing_at, Mix::Handoff { end_at })
    };
    q.schedule(SimTime::from_secs(at), MixEvent(event, [0; 3]));
}

/// Replays `events` dispatches of `ring_static`'s queue traffic: a Poisson
/// arrival chain per cell, 60 % of arrivals admitted, and per admitted
/// connection one pending event, the earlier of its exponential lifetime
/// expiry (mean 120 s) and its next boundary crossing (the first uniform
/// in 0–36 s, then every 36 s). Returns the number of expiries.
fn engine_mix(events: usize) -> usize {
    const CELLS: u32 = 10;
    let mut rng = StreamRng::seed_from_u64(0xDE50_0005);
    let exp = |rng: &mut StreamRng, mean: f64| -mean * (1.0 - rng.gen_f64()).ln();
    let mut q = EventQueue::with_capacity(4_096);
    for cell in 0..CELLS {
        let at = SimTime::from_secs(exp(&mut rng, 1.0));
        q.schedule(at, MixEvent(Mix::Arrival { cell }, [0; 3]));
    }
    let mut expired = 0;
    for _ in 0..events {
        let (now, MixEvent(event, _)) = q.pop().expect("arrivals never stop");
        let now = now.as_secs();
        match event {
            Mix::Arrival { cell } => {
                if rng.gen_bool(0.6) {
                    let end_at = now + exp(&mut rng, 120.0);
                    schedule_next(&mut q, end_at, now + 36.0 * rng.gen_f64());
                }
                let at = SimTime::from_secs(now + exp(&mut rng, 1.0));
                q.schedule(at, MixEvent(Mix::Arrival { cell }, [0; 3]));
            }
            Mix::Handoff { end_at } => schedule_next(&mut q, end_at, now + 36.0),
            Mix::End => expired += 1,
        }
    }
    expired
}

criterion_group!(benches, schedule_pop);
criterion_main!(benches);
