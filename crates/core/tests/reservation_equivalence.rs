//! Differential tests: the candidate-window `B_r` path must answer exactly
//! like the naive per-connection Eq.-4/Eq.-5 computation.
//! (Seeded-RNG loops stand in for proptest, which is unavailable offline.)

use qres_cellnet::{Bandwidth, BsNetworkKind, Cell, CellId, ConnInfo, ConnectionId, Topology};
use qres_core::{
    neighbor_contribution, neighbor_contribution_naive, AcKind, QresConfig, ReservationSystem,
    SchemeConfig,
};
use qres_des::{Duration, SimTime, StreamRng};
use qres_mobility::{
    handoff_probability, known_next_probability, ContributionPass, HandoffEvent, HandoffQuery,
    HoeCache, HoeConfig,
};

const NUM_CELLS: u32 = 6;

/// A stationary cache with `w_0 = weight`, fed up to `max_events`
/// hand-offs among `cells` cells.
fn random_cache(
    rng: &mut StreamRng,
    n_quad: usize,
    weight: f64,
    cells: u32,
    max_events: usize,
) -> HoeCache {
    let mut config = HoeConfig::stationary();
    config.n_quad = n_quad;
    config.weekday_window.weights = vec![weight];
    let mut cache = HoeCache::new(config);
    let n = rng.gen_range(0usize..max_events);
    let mut t = 0.0;
    for _ in 0..n {
        t += rng.gen_range_f64(0.0, 50.0);
        let prev = if rng.gen_bool(0.7) {
            Some(CellId(rng.gen_range(0u32..cells)))
        } else {
            None
        };
        cache.record(HandoffEvent::new(
            SimTime::from_secs(t),
            prev,
            CellId(rng.gen_range(0u32..cells)),
            Duration::from_secs(rng.gen_range_f64(0.1, 400.0)),
        ));
    }
    cache
}

/// Up to 120 connections of cell 1 whose `prev`/`known_next` are drawn
/// from `cells` cells and whose extant sojourns come from `extant`.
fn random_population(
    rng: &mut StreamRng,
    now: f64,
    cells: u32,
    mut extant: impl FnMut(&mut StreamRng) -> f64,
) -> Cell {
    let population = rng.gen_range(0usize..120);
    let mut cell = Cell::new(CellId(1), Bandwidth::from_bus(4 * population as u32 + 1));
    for j in 0..population {
        let prev = if rng.gen_bool(0.6) {
            Some(CellId(rng.gen_range(0u32..cells)))
        } else {
            None
        };
        // Route-aware mix: some mobiles declare their next cell.
        let known_next = if rng.gen_bool(0.3) {
            Some(CellId(rng.gen_range(0u32..cells)))
        } else {
            None
        };
        cell.insert(ConnInfo {
            id: ConnectionId(j as u64),
            bandwidth: Bandwidth::from_bus(if rng.gen_bool(0.5) { 1 } else { 4 }),
            prev,
            entered_at: SimTime::from_secs(now - extant(rng)),
            known_next,
        })
        .unwrap();
    }
    cell
}

/// The batched evaluation equals the per-connection reference, bit for bit,
/// over random histories, populations, `T_est`, and `now` — including
/// route-aware (`known_next`) and stationary-mobile cases.
#[test]
fn batched_matches_naive_per_connection() {
    let mut rng = StreamRng::seed_from_u64(0xB47C_0001);
    for case in 0..200 {
        let n_quad = [3usize, 25, 10_000][case % 3];
        let mut cache = random_cache(&mut rng, n_quad, 1.0, NUM_CELLS, 150);
        // After the whole history (at most 150 events 50 s apart): queries
        // never precede a recorded hand-off.
        let now = 7_500.0 + rng.gen_range_f64(0.0, 1_000.0);
        // Entry times up to 500 s back: many extant sojourns outlast every
        // cached history (stationary classification) by construction.
        let mut cell = random_population(&mut rng, now, NUM_CELLS, |rng| {
            rng.gen_range_f64(0.0, 500.0)
        });
        let target = CellId(0);
        let t_est = Duration::from_secs(rng.gen_range_f64(0.0, 300.0));
        let now = SimTime::from_secs(now);
        let batched = neighbor_contribution(&mut cell, &mut cache, now, target, t_est);
        let naive = neighbor_contribution_naive(&cell, &mut cache, now, target, t_est);
        assert!(
            (batched - naive).abs() < 1e-9,
            "case {case}: batched {batched} != naive {naive}"
        );
        // The paths are designed to agree exactly, not just within
        // tolerance.
        assert_eq!(batched, naive, "case {case}");
    }
}

/// With `w_0` fractional, weights are no longer integers and a
/// denominator summed over the `(prev, ·)` snapshots in any other order
/// than the reference's would differ in its last bits. `prev` keys come
/// from up to 40 cells (more than any fixed-size lookup table holds) and
/// connections share entry times. The total and every connection's `p_h`
/// — the values the calibration read-out stages — must equal the
/// reference by `f64::to_bits`.
#[test]
fn streamed_matches_naive_bit_for_bit_with_fractional_weights() {
    let mut rng = StreamRng::seed_from_u64(0xB47C_0003);
    for case in 0..200 {
        let weight = [0.7, 0.1][case % 2];
        let n_quad = [3usize, 25, 10_000][case % 3];
        let cells = rng.gen_range(3u32..41);
        let mut cache = random_cache(&mut rng, n_quad, weight, cells, 600);
        // After the whole history (at most 600 events 50 s apart).
        let now = 30_000.0 + rng.gen_range_f64(0.0, 1_000.0);
        let entries: Vec<f64> = (0..rng.gen_range(1usize..6))
            .map(|_| rng.gen_range_f64(0.0, 300.0))
            .collect();
        let mut cell = random_population(&mut rng, now, cells, |rng| {
            entries[rng.gen_index(entries.len())]
        });
        let target = CellId(0);
        let t_est = Duration::from_secs(rng.gen_range_f64(0.0, 300.0));
        let now = SimTime::from_secs(now);
        let streamed = neighbor_contribution(&mut cell, &mut cache, now, target, t_est);
        let naive = neighbor_contribution_naive(&cell, &mut cache, now, target, t_est);
        assert_eq!(streamed.to_bits(), naive.to_bits(), "case {case}");
        let mut pass_cache = cache.clone();
        let mut pass = ContributionPass::new(&mut pass_cache, now, target, t_est);
        for conn in cell.connections() {
            let ext = conn.extant_sojourn(now);
            let got = pass.probability(conn.prev, conn.known_next, ext);
            let query = HandoffQuery {
                now,
                prev: conn.prev,
                extant_sojourn: ext,
                next: target,
                t_est,
            };
            let expect = match conn.known_next {
                Some(declared) if declared == target => known_next_probability(&mut cache, query),
                Some(_) => 0.0,
                None => handoff_probability(&mut cache, query),
            };
            assert_eq!(
                got.to_bits(),
                expect.to_bits(),
                "case {case}, {:?}",
                conn.id
            );
        }
    }
}

/// System-level: after random traffic, the memoized `B_r` the system
/// reports equals a from-scratch naive recomputation over its neighbors.
#[test]
fn memoized_br_matches_naive_recomputation() {
    let mut rng = StreamRng::seed_from_u64(0xB47C_0002);
    for case in 0..20 {
        let kind = [AcKind::Ac1, AcKind::Ac2, AcKind::Ac3][case % 3];
        let config = QresConfig::paper_stationary(SchemeConfig::Predictive { kind });
        let mut sys = ReservationSystem::new(
            config,
            Topology::ring(NUM_CELLS as usize),
            BsNetworkKind::FullyConnected,
        );
        // Random traffic: arrivals, hand-offs (some route-aware), ends.
        let mut t = 0.0;
        let mut next_id = 0u64;
        let mut live: Vec<(ConnectionId, CellId)> = Vec::new();
        for _ in 0..rng.gen_range(30usize..200) {
            t += rng.gen_range_f64(0.01, 5.0);
            let now = SimTime::from_secs(t);
            match rng.gen_range(0u32..4) {
                0 | 1 => {
                    let cell = CellId(rng.gen_range(0u32..NUM_CELLS));
                    let id = ConnectionId(next_id);
                    next_id += 1;
                    let admitted = sys
                        .request_new_connection(
                            now,
                            qres_core::NewConnectionRequest {
                                cell,
                                id,
                                bandwidth: Bandwidth::from_bus(if rng.gen_bool(0.5) {
                                    1
                                } else {
                                    4
                                }),
                                known_next: None,
                            },
                        )
                        .is_admitted();
                    if admitted {
                        live.push((id, cell));
                    }
                }
                2 if !live.is_empty() => {
                    let k = rng.gen_index(live.len());
                    let (id, from) = live.swap_remove(k);
                    let neighbors = sys.topology().neighbors(from);
                    let to = neighbors[rng.gen_index(neighbors.len())];
                    let known_next = if rng.gen_bool(0.4) {
                        let onward = sys.topology().neighbors(to);
                        Some(onward[rng.gen_index(onward.len())])
                    } else {
                        None
                    };
                    if !sys
                        .attempt_handoff_routed(now, id, from, to, known_next)
                        .is_dropped()
                    {
                        live.push((id, to));
                    }
                }
                _ if !live.is_empty() => {
                    let k = rng.gen_index(live.len());
                    let (id, cell) = live.swap_remove(k);
                    sys.end_connection(now, id, cell);
                }
                _ => {}
            }
        }
        // Force a B_r computation at a fresh instant and cross-check it.
        t += 1.0;
        let now = SimTime::from_secs(t);
        let target = CellId(rng.gen_range(0u32..NUM_CELLS));
        sys.request_new_connection(
            now,
            qres_core::NewConnectionRequest {
                cell: target,
                id: ConnectionId(next_id),
                bandwidth: Bandwidth::from_bus(1),
                known_next: None,
            },
        );
        let reported = sys.last_br(target);
        let t_est = sys.t_est(target);
        let neighbors: Vec<CellId> = sys.topology().neighbors(target).to_vec();
        let mut naive = 0.0;
        for nb in neighbors {
            let cell = sys.cell(nb).clone();
            naive += neighbor_contribution_naive(&cell, sys.hoe_cache_mut(nb), now, target, t_est);
        }
        assert!(
            (reported - naive).abs() < 1e-9,
            "case {case}: memoized B_r {reported} != naive {naive}"
        );
    }
}

/// `neighbor_contribution` and the reference on `cell`, each against its
/// own copy of `cache`: equal by `to_bits`, and both leave the snapshot at
/// the same version (a finite-`T_int` snapshot is rebuilt by both or by
/// neither). Returns the total.
fn assert_exact(cell: &mut Cell, cache: &HoeCache, now: f64, t_est: f64, ctx: &str) -> f64 {
    let (now, t_est) = (SimTime::from_secs(now), Duration::from_secs(t_est));
    let (mut fast, mut naive) = (cache.clone(), cache.clone());
    let got = neighbor_contribution(cell, &mut fast, now, CellId(0), t_est);
    let expect = neighbor_contribution_naive(cell, &mut naive, now, CellId(0), t_est);
    assert_eq!(got.to_bits(), expect.to_bits(), "{ctx}: {got} != {expect}");
    assert_eq!(fast.version(), naive.version(), "{ctx}: snapshot version");
    got
}

fn conn(id: u64, bw: u32, prev: Option<u32>, entered_at: f64, known_next: Option<u32>) -> ConnInfo {
    ConnInfo {
        id: ConnectionId(id),
        bandwidth: Bandwidth::from_bus(bw),
        prev: prev.map(CellId),
        entered_at: SimTime::from_secs(entered_at),
        known_next: known_next.map(CellId),
    }
}

/// Cell 1's history: from cell 2 into the target 0 after 25, 30 or 35 s,
/// into cell 3 after 40 s; from cell 3 only into cell 2.
fn edge_cache(config: HoeConfig) -> HoeCache {
    let mut cache = HoeCache::new(config);
    for (t, prev, next, soj) in [
        (1.0, 2, 0, 25.0),
        (2.0, 2, 0, 30.0),
        (3.0, 2, 0, 35.0),
        (4.0, 2, 3, 40.0),
        (5.0, 3, 2, 28.0),
    ] {
        cache.record(HandoffEvent::new(
            SimTime::from_secs(t),
            Some(CellId(prev)),
            CellId(next),
            Duration::from_secs(soj),
        ));
    }
    cache
}

/// Connections on the edges of the candidate window, alone and together:
/// extant sojourn exactly `s_max` (zero) and just below it (nonzero);
/// `a + T_est` exactly `s_min` (nonzero) and just below it (zero); and
/// runs of tied entry times straddling both edges.
#[test]
fn window_edges_match_naive() {
    let cache = edge_cache(HoeConfig::stationary());
    let now = 1_000.0;
    // (id, extant sojourn, nonzero at T_est = 10)
    let edges = [
        (1, 35.0, false), // a = s_max
        (2, 34.5, true),  // just below s_max
        (3, 15.0, true),  // a + T_est = s_min
        (4, 14.5, false), // a + T_est just below s_min
        (5, 35.0 - 1e-9, true),
    ];
    for &(id, a, nonzero) in &edges {
        for known_next in [None, Some(0)] {
            let mut cell = Cell::new(CellId(1), Bandwidth::from_bus(100));
            cell.insert(conn(id, 4, Some(2), now - a, known_next))
                .unwrap();
            let b = assert_exact(&mut cell, &cache, now, 10.0, &format!("edge {id}"));
            assert_eq!(b > 0.0, nonzero, "edge {id}, known_next {known_next:?}");
        }
    }
    // All together, with ties: three connections entered at each edge time.
    let mut cell = Cell::new(CellId(1), Bandwidth::from_bus(200));
    let mut id = 10;
    for &(_, a, _) in &edges {
        for _ in 0..3 {
            id += 1;
            cell.insert(conn(id, 1 + (id % 4) as u32, Some(2), now - a, None))
                .unwrap();
        }
    }
    for t_est in [0.0, 1e-9, 0.5, 10.0, 20.0, 1e6] {
        assert_exact(
            &mut cell,
            &cache,
            now,
            t_est,
            &format!("ties, T_est = {t_est}"),
        );
    }
}

/// `T_est = 0` leaves an empty numerator interval `(a, a]`: every term is
/// zero, on whichever side of each sojourn `a` falls, including exactly on
/// one.
#[test]
fn zero_t_est_matches_naive() {
    let cache = edge_cache(HoeConfig::stationary());
    let mut cell = Cell::new(CellId(1), Bandwidth::from_bus(100));
    for (id, a) in [
        (1, 0.0),
        (2, 25.0),
        (3, 29.0),
        (4, 30.0),
        (5, 35.0),
        (6, 50.0),
    ] {
        cell.insert(conn(id, 4, Some(2), 500.0 - a, None)).unwrap();
    }
    assert_eq!(
        assert_exact(&mut cell, &cache, 500.0, 0.0, "T_est = 0"),
        0.0
    );
}

/// Route-aware cells whose connections all declare another next cell make
/// no forecast toward the target, so a stale finite-`T_int` snapshot must
/// not be rebuilt; one eligible connection, even with an absent target
/// pair, rebuilds it, as the reference does.
#[test]
fn declared_elsewhere_cells_do_not_rebuild_the_snapshot() {
    let cache = edge_cache(HoeConfig::paper_time_varying());
    let now = 100.0;
    let mut cell = Cell::new(CellId(1), Bandwidth::from_bus(100));
    for (id, prev, next) in [(1, 2, 3), (2, 3, 2), (3, 2, 2)] {
        cell.insert(conn(id, 1, Some(prev), now - 20.0, Some(next)))
            .unwrap();
    }
    let before = cache.version();
    let mut probe = cache.clone();
    neighbor_contribution(
        &mut cell,
        &mut probe,
        SimTime::from_secs(now),
        CellId(0),
        Duration::from_secs(30.0),
    );
    assert_eq!(probe.version(), before, "declared elsewhere: no rebuild");
    assert_exact(&mut cell, &cache, now, 30.0, "declared elsewhere");
    // An eligible connection from cell 3, whose (3, 0) pair is absent.
    cell.insert(conn(4, 1, Some(3), now - 20.0, None)).unwrap();
    let mut probe = cache.clone();
    neighbor_contribution(
        &mut cell,
        &mut probe,
        SimTime::from_secs(now),
        CellId(0),
        Duration::from_secs(30.0),
    );
    assert_ne!(probe.version(), before, "eligible connection: rebuild");
    assert_exact(&mut cell, &cache, now, 30.0, "one eligible");
    // It leaves again: its group is now empty and must not count.
    cell.remove(ConnectionId(4)).unwrap();
    assert_exact(&mut cell, &cache, now, 30.0, "emptied group");
}

/// The arrival index is built by the first query, after a cell has seen
/// inserts and removes (out of time order, with ties), and is kept current
/// by the mutations that follow: every query matches the reference, and
/// the cell's invariants, which cover the index, hold throughout.
#[test]
fn index_built_after_mutations_matches_naive() {
    let mut rng = StreamRng::seed_from_u64(0xB47C_0004);
    for case in 0..40 {
        let config = if case % 2 == 0 {
            HoeConfig::stationary()
        } else {
            HoeConfig::paper_time_varying()
        };
        let mut cache = HoeCache::new(config);
        for k in 0..200 {
            cache.record(HandoffEvent::new(
                SimTime::from_secs(k as f64 * 5.0),
                Some(CellId(rng.gen_range(2u32..NUM_CELLS))),
                CellId(rng.gen_range(0u32..NUM_CELLS)),
                Duration::from_secs(rng.gen_range(1u32..60) as f64),
            ));
        }
        let mut now = 1_000.0;
        let mut cell = Cell::new(CellId(1), Bandwidth::from_bus(1_000));
        let mut live: Vec<ConnectionId> = Vec::new();
        let first_query = rng.gen_range(0usize..60);
        for step in 0..150usize {
            now += rng.gen_range(0u32..3) as f64;
            if live.is_empty() || rng.gen_bool(0.6) {
                let id = ConnectionId(step as u64);
                // Mostly at `now`, as the simulator does; sometimes earlier,
                // on a whole second, so entries tie and arrive out of order.
                let back = if rng.gen_bool(0.7) {
                    0.0
                } else {
                    rng.gen_range(0u32..60) as f64
                };
                let prev = [None, Some(2), Some(3), Some(4)][rng.gen_index(4)];
                let known_next = [None, None, Some(0), Some(3)][rng.gen_index(4)];
                cell.insert(conn(
                    id.0,
                    1 + rng.gen_range(0u32..4),
                    prev,
                    now - back,
                    known_next,
                ))
                .unwrap();
                live.push(id);
            } else {
                let id = live.swap_remove(rng.gen_index(live.len()));
                cell.remove(id).unwrap();
            }
            if step >= first_query {
                let t_est = [0.0, 5.0, 17.5, 60.0][rng.gen_index(4)];
                assert_exact(
                    &mut cell,
                    &cache,
                    now,
                    t_est,
                    &format!("case {case}, step {step}"),
                );
                assert!(cell.check_invariants(), "case {case}, step {step}");
            }
        }
    }
}
