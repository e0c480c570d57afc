//! Micro-benchmark of the `B_i,0` contribution computation (Eq. 5) as the
//! neighbor-cell population grows — the dominant cost of an admission test.
//!
//! Runs the streaming estimator (`neighbor_contribution`) side by side with
//! the per-connection reference (`neighbor_contribution_naive`) on the same
//! populations, so its speedup is read directly off the `batched/N` vs
//! `naive/N` pairs. The synthetic populations `10`–`200` share extant
//! sojourns (`entered_at = t − (j % 60)`); `ring_shape` is what a
//! paper-ring cell under AC3 actually holds: 82 connections with distinct
//! entry times from three previous cells, against four `(prev, next)`
//! pairs of 100 sojourns each. `ring_shape` cycles through the ten cells
//! of a ring, whose data (about 0.3 MB) fits a typical L2 cache;
//! `ring_shape_cold` cycles through 1,000 such cells (about 30 MB), so
//! each call finds its cell's data evicted, as an admission test does
//! between the other events of a simulation.

use qres_cellnet::{Bandwidth, Cell, CellId, ConnInfo, ConnectionId};
use qres_core::{neighbor_contribution, neighbor_contribution_naive};
use qres_des::{Duration, SimTime};
use qres_microbench::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use qres_mobility::{HandoffEvent, HoeCache, HoeConfig};

fn setup(population: usize) -> (Cell, HoeCache, SimTime) {
    let mut cache = HoeCache::new(HoeConfig::stationary());
    let mut t = 0.0;
    for i in 0..200usize {
        t += 1.0;
        let prev = if i % 2 == 0 { Some(CellId(2)) } else { None };
        let next = if i % 3 == 0 { CellId(0) } else { CellId(2) };
        cache.record(HandoffEvent::new(
            SimTime::from_secs(t),
            prev,
            next,
            Duration::from_secs(20.0 + (i % 40) as f64),
        ));
    }
    let mut cell = Cell::new(CellId(1), Bandwidth::from_bus(4 * population as u32 + 1));
    for j in 0..population {
        cell.insert(ConnInfo {
            id: ConnectionId(j as u64),
            bandwidth: Bandwidth::from_bus(if j % 2 == 0 { 1 } else { 4 }),
            prev: if j % 3 == 0 { Some(CellId(2)) } else { None },
            entered_at: SimTime::from_secs(t - (j % 60) as f64),
            known_next: None,
        })
        .unwrap();
    }
    (cell, cache, SimTime::from_secs(t + 1.0))
}

/// Ring cells between cells 0 and 2: mobiles from either neighbor or
/// started in-cell, leaving toward 0 or 2 after 30–45 s (1 km at
/// 80–120 km/h). Each of the `cells` cases has its own estimation history
/// and population, and calls cycle through them: one repeated input would
/// keep its data in the L1 cache and let the branch predictor learn a
/// data-dependent kernel's branches, which real admissions never allow.
fn setup_ring_shape(cells: usize) -> (Vec<(Cell, HoeCache)>, SimTime) {
    let mut t = 0.0;
    let mut caches = vec![HoeCache::new(HoeConfig::stationary()); cells];
    for i in 0..400usize {
        t += 0.5;
        let (prev, next) = match i % 4 {
            0 => (Some(CellId(0)), CellId(2)),
            1 => (Some(CellId(2)), CellId(0)),
            2 => (None, CellId(0)),
            _ => (None, CellId(2)),
        };
        for (v, cache) in caches.iter_mut().enumerate() {
            let sojourn = 30.0 + ((i + v) * 37 % 151) as f64 / 10.0;
            cache.record(HandoffEvent::new(
                SimTime::from_secs(t),
                prev,
                next,
                Duration::from_secs(sojourn),
            ));
        }
    }
    let cases = caches
        .into_iter()
        .enumerate()
        .map(|(v, cache)| {
            let mut cell = Cell::new(CellId(1), Bandwidth::from_bus(400));
            for j in 0..82usize {
                // Distinct entry times, not in id order (a connection's id
                // dates its admission, possibly in another cell): odd
                // multipliers below 41 permute 0..82.
                let slot = (j * (2 * (v % 19) + 3) + v) % 82;
                cell.insert(ConnInfo {
                    id: ConnectionId(j as u64),
                    bandwidth: Bandwidth::from_bus(if j % 5 == 0 { 4 } else { 1 }),
                    prev: [Some(CellId(0)), Some(CellId(2)), None][(j + v) % 3],
                    entered_at: SimTime::from_secs(t - 0.53 * slot as f64),
                    known_next: None,
                })
                .unwrap();
            }
            (cell, cache)
        })
        .collect();
    (cases, SimTime::from_secs(t + 0.25))
}

fn bench_contribution(c: &mut Criterion) {
    let mut group = c.benchmark_group("reservation_b_i0");
    let mut cases: Vec<(String, _)> = [10usize, 50, 100, 200]
        .iter()
        .map(|&population| {
            let (cell, cache, now) = setup(population);
            (population.to_string(), (vec![(cell, cache)], now))
        })
        .collect();
    cases.push(("ring_shape".to_string(), setup_ring_shape(10)));
    cases.push(("ring_shape_cold".to_string(), setup_ring_shape(1_000)));
    let t_est = Duration::from_secs(10.0);
    for (case, (mut cells, now)) in cases {
        // Warm the snapshots.
        for (cell, cache) in &mut cells {
            let _ = neighbor_contribution(cell, cache, now, CellId(0), t_est);
        }
        let mut k = 0;
        group.bench_function(BenchmarkId::new("batched", &case), |b| {
            b.iter(|| {
                k = (k + 1) % cells.len();
                let (cell, cache) = &mut cells[k];
                black_box(neighbor_contribution(cell, cache, now, CellId(0), t_est))
            })
        });
        group.bench_function(BenchmarkId::new("naive", &case), |b| {
            b.iter(|| {
                k = (k + 1) % cells.len();
                let (cell, cache) = &mut cells[k];
                black_box(neighbor_contribution_naive(
                    cell,
                    cache,
                    now,
                    CellId(0),
                    t_est,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_contribution);
criterion_main!(benches);
