//! Micro-benchmark of the `B_i,0` contribution computation (Eq. 5) as the
//! neighbor-cell population grows — the dominant cost of an admission test.
//!
//! Runs the candidate-window kernel (`neighbor_contribution`) side by side
//! with the per-connection reference (`neighbor_contribution_naive`) on the
//! same populations, so its speedup is read directly off the `batched/N` vs
//! `naive/N` pairs. Before timing, every case's every cell must give the
//! two bit-identical totals. The synthetic populations `10`–`200` share extant
//! sojourns (`entered_at = t − (j % 60)`); `ring_shape` is what a
//! paper-ring cell under AC3 actually holds: 82 connections with distinct
//! entry times from three previous cells, against four `(prev, next)`
//! pairs of 100 sojourns each. `ring_shape` cycles through the ten cells
//! of a ring, whose data (about 0.3 MB) fits a typical L2 cache;
//! `ring_shape_cold` cycles through 1,000 such cells (about 30 MB), so
//! each call finds its cell's data evicted, as an admission test does
//! between the other events of a simulation. `metro_shape_cold` is a
//! 1,024-cell hex-grid cell under AC3, also cycled through 1,000 cells: 59
//! connections from its six neighbors and in-cell starts, against the
//! `(prev, next)` pairs of mostly-straight crossings, with about 11 % of
//! the connections heading into the target within `T_est`.
//! `metro_early_cold` is the same hex cell as the metro benchmark run finds
//! it 55 simulated seconds into a repetition, cycled through 1,000 cells:
//! about 80 quadruplets over 30 `(prev, next)` pairs, two or three per
//! pair (`metro_shape_cold` holds 200 per pair), against 59 connections
//! with extant sojourns under 53 s.

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

/// A hex cell between six neighbors (`CellId(0)`, the target, and
/// `CellId(2..=6)`): a mobile from the neighbor in direction `d` crosses
/// straight to direction `d + 3` eight times in ten and turns to `d ± 2`
/// otherwise, after 30–45 s; one started in-cell leaves toward any
/// neighbor after 0–45 s. Every cell case holds 59 connections spread over
/// the seven `prev`s, with extant sojourns up to 145 s (slow mobiles
/// outlast the history and count as stationary).
fn setup_metro_shape(cells: usize) -> (Vec<(Cell, HoeCache)>, SimTime) {
    const NEIGHBORS: [u32; 6] = [0, 2, 3, 4, 5, 6];
    let mut t = 0.0;
    let mut caches = vec![HoeCache::new(HoeConfig::stationary()); cells];
    for i in 0..1_400usize {
        t += 0.5;
        let d = i % 7;
        let k = i / 7;
        let (prev, next, base, span) = if d == 6 {
            (None, NEIGHBORS[k % 6], 0.0, 451)
        } else {
            let turn = [3, 3, 3, 3, 3, 3, 3, 3, 2, 4][k % 10];
            (
                Some(CellId(NEIGHBORS[d])),
                NEIGHBORS[(d + turn) % 6],
                30.0,
                151,
            )
        };
        for (v, cache) in caches.iter_mut().enumerate() {
            let sojourn = base + ((i + v) * 37 % span) as f64 / 10.0;
            cache.record(HandoffEvent::new(
                SimTime::from_secs(t),
                prev,
                CellId(next),
                Duration::from_secs(sojourn),
            ));
        }
    }
    let cases = caches
        .into_iter()
        .enumerate()
        .map(|(v, cache)| {
            let mut cell = Cell::new(CellId(1), Bandwidth::from_bus(400));
            for j in 0..59usize {
                // Odd multipliers coprime to 59 permute 0..59.
                let slot = (j * (2 * (v % 23) + 3) + v) % 59;
                let d = (j + v) % 7;
                cell.insert(ConnInfo {
                    id: ConnectionId(j as u64),
                    bandwidth: Bandwidth::from_bus(if j % 5 == 0 { 4 } else { 1 }),
                    prev: (d < 6).then(|| CellId(NEIGHBORS[d])),
                    entered_at: SimTime::from_secs(t - 2.5 * slot as f64),
                    known_next: None,
                })
                .unwrap();
            }
            (cell, cache)
        })
        .collect();
    (cases, SimTime::from_secs(t + 0.25))
}

/// The hex cell of [`setup_metro_shape`] early in a run: 80 hand-offs,
/// one every 0.5 s from 15 s on. A mobile from the neighbor in direction `d` leaves
/// toward `d + 3`, `d + 2`, `d + 4` or `d + 1`, in turn, after 30–45 s;
/// one started in-cell toward any neighbor after 0–45 s. That makes 30
/// pairs of two or three quadruplets each. The 59 connections entered up
/// to 52 s before the query.
fn setup_metro_early(cells: usize) -> (Vec<(Cell, HoeCache)>, SimTime) {
    const NEIGHBORS: [u32; 6] = [0, 2, 3, 4, 5, 6];
    let mut t = 15.0;
    let mut caches = vec![HoeCache::new(HoeConfig::stationary()); cells];
    for i in 0..80usize {
        t += 0.5;
        let d = i % 7;
        let k = i / 7;
        let (prev, next, base, span) = if d == 6 {
            (None, NEIGHBORS[k % 6], 0.0, 451)
        } else {
            let turn = [3, 2, 4, 1][k % 4];
            (
                Some(CellId(NEIGHBORS[d])),
                NEIGHBORS[(d + turn) % 6],
                30.0,
                151,
            )
        };
        for (v, cache) in caches.iter_mut().enumerate() {
            let sojourn = base + ((i + v) * 37 % span) as f64 / 10.0;
            cache.record(HandoffEvent::new(
                SimTime::from_secs(t),
                prev,
                CellId(next),
                Duration::from_secs(sojourn),
            ));
        }
    }
    let cases = caches
        .into_iter()
        .enumerate()
        .map(|(v, cache)| {
            let mut cell = Cell::new(CellId(1), Bandwidth::from_bus(400));
            for j in 0..59usize {
                // Odd multipliers coprime to 59 permute 0..59.
                let slot = (j * (2 * (v % 23) + 3) + v) % 59;
                let d = (j + v) % 7;
                cell.insert(ConnInfo {
                    id: ConnectionId(j as u64),
                    bandwidth: Bandwidth::from_bus(if j % 5 == 0 { 4 } else { 1 }),
                    prev: (d < 6).then(|| CellId(NEIGHBORS[d])),
                    entered_at: SimTime::from_secs(t - 0.9 * slot as f64),
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
    cases.push(("metro_shape_cold".to_string(), setup_metro_shape(1_000)));
    cases.push(("metro_early_cold".to_string(), setup_metro_early(1_000)));
    let t_est = Duration::from_secs(10.0);
    for (case, (mut cells, now)) in cases {
        // Warm the snapshots and arrival indexes, and refuse to time a
        // kernel that disagrees with the reference on any cell.
        for (v, (cell, cache)) in cells.iter_mut().enumerate() {
            let got = neighbor_contribution(cell, cache, now, CellId(0), t_est);
            let expect = neighbor_contribution_naive(cell, cache, now, CellId(0), t_est);
            assert_eq!(got.to_bits(), expect.to_bits(), "{case}, cell {v}");
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
