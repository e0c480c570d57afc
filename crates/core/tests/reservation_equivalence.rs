//! Differential tests: the batched, epoch-memoized `B_r` path must answer
//! exactly like the naive per-connection Eq.-4/Eq.-5 computation.
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
        let cell = random_population(&mut rng, now, NUM_CELLS, |rng| {
            rng.gen_range_f64(0.0, 500.0)
        });
        let target = CellId(0);
        let t_est = Duration::from_secs(rng.gen_range_f64(0.0, 300.0));
        let now = SimTime::from_secs(now);
        let batched = neighbor_contribution(&cell, &mut cache, now, target, t_est);
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
        let cell = random_population(&mut rng, now, cells, |rng| {
            entries[rng.gen_index(entries.len())]
        });
        let target = CellId(0);
        let t_est = Duration::from_secs(rng.gen_range_f64(0.0, 300.0));
        let now = SimTime::from_secs(now);
        let streamed = neighbor_contribution(&cell, &mut cache, now, target, t_est);
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
