//! Target reservation bandwidth (Eqs. 5–6).
//!
//! For a target cell 0 with adaptive window `T_est,0`, each adjacent cell
//! `i` contributes the expected bandwidth of its connections' hand-offs
//! into cell 0 within that window:
//!
//! ```text
//! B_i,0 = Σ_{j ∈ C_i} b(C_i,j) · p_h(C_i,j → 0)        (Eq. 5)
//! B_r,0 = Σ_{i ∈ A_0} B_i,0                             (Eq. 6)
//! ```
//!
//! where `p_h` conditions on each connection's previous cell and extant
//! sojourn time against cell `i`'s own hand-off estimation function
//! (Eq. 4, [`qres_mobility::handoff_probability`]). Because `p_h` is
//! non-decreasing in `T_est`, so is `B_r,0` — the monotonicity the adaptive
//! window controller relies on.
//!
//! [`neighbor_contribution`] sums Eq. 5 in one pass over the neighbor's
//! connections in registry order ([`qres_mobility::ContributionPass`]);
//! with telemetry on, the same pass stages each connection's `p_h` for the
//! calibration tracker. [`neighbor_contribution_naive`], one estimator
//! query per connection, is the reference it is bit-identical to.

use qres_cellnet::{Cell, CellId};
use qres_des::{Duration, SimTime};
use qres_mobility::{
    handoff_probability, known_next_probability, ContributionPass, HandoffQuery, HoeCache,
};

/// Computes one neighbor's contribution `B_i,0` (Eq. 5): the fractional
/// bandwidth cell `i` (= `neighbor_cell`, with estimation state
/// `neighbor_cache`) expects to hand off into `target` within
/// `t_est_of_target`.
///
/// In deployment this computation runs *in cell `i`'s BS* after receiving
/// the target's `T_est` announcement (the caller accounts that exchange on
/// the signaling fabric).
///
/// Evaluates Eq. 4 in one pass over the cell's connections
/// ([`qres_mobility::ContributionPass`]), which looks up the estimation
/// snapshots once per distinct `prev` instead of once per connection. The
/// result is bit-identical to [`neighbor_contribution_naive`].
pub fn neighbor_contribution(
    neighbor_cell: &Cell,
    neighbor_cache: &mut HoeCache,
    now: SimTime,
    target: CellId,
    t_est_of_target: Duration,
) -> f64 {
    debug_assert_ne!(
        neighbor_cell.id(),
        target,
        "a cell does not hand off to itself"
    );
    let obs = qres_obs::enabled();
    let t0 = obs.then(std::time::Instant::now);
    let deadline = now.as_secs() + t_est_of_target.as_secs();
    let mut p_h_sum = 0.0;
    let mut live = 0u32;
    let mut pass = ContributionPass::new(neighbor_cache, now, target, t_est_of_target);
    let mut total = 0.0;
    for conn in neighbor_cell.connections() {
        let p_h = pass.probability(conn.prev, conn.known_next, conn.extant_sojourn(now));
        total += conn.bandwidth.as_f64() * p_h;
        // Calibration read-out: stage each forecast about `target` (a
        // connection declared toward another cell makes none). Staging is
        // a thread-local push; the forecasts move into the global
        // calibration store later, in `compute_br`, after the timing
        // record ([`qres_obs::flush_staged`]).
        if obs && !matches!(conn.known_next, Some(declared) if declared != target) {
            p_h_sum += p_h;
            live += 1;
            qres_obs::stage_prediction(
                neighbor_cell.id().0,
                target.0,
                conn.id.0,
                conn.prev.map(|c| c.0),
                p_h,
                deadline,
            );
        }
    }
    if let Some(t0) = t0 {
        qres_obs::metrics::BATCHED_CONTRIBUTION_NS.record_duration(t0.elapsed());
        qres_obs::metrics::B_I0_EVALS_TOTAL.add(neighbor_cell.connection_count() as u64);
        if qres_obs::flight::flight_enabled() {
            // Leave the Eq.-4 internals (Σ p_h over the forecasts toward
            // `target`, count of contributing connections) in TLS for the
            // caller to attach to its flight-record term (see
            // `CellSite::contribution_into`).
            qres_obs::flight::stage_eval_detail(p_h_sum, live);
        }
    }
    total
}

/// The one-connection-at-a-time reference evaluation of `B_i,0` — the
/// specification [`neighbor_contribution`] is verified against (see the
/// differential tests and the `reservation_b_i0` benchmark's side-by-side).
pub fn neighbor_contribution_naive(
    neighbor_cell: &Cell,
    neighbor_cache: &mut HoeCache,
    now: SimTime,
    target: CellId,
    t_est_of_target: Duration,
) -> f64 {
    debug_assert_ne!(
        neighbor_cell.id(),
        target,
        "a cell does not hand off to itself"
    );
    let mut total = 0.0;
    for conn in neighbor_cell.connections() {
        let query = HandoffQuery {
            now,
            prev: conn.prev,
            extant_sojourn: conn.extant_sojourn(now),
            next: target,
            t_est: t_est_of_target,
        };
        let p = match conn.known_next {
            // Route-aware mode (Section 7 extension): the next cell is
            // declared, so the estimation function is used "to estimate
            // the sojourn time of a mobile only" — and the connection
            // contributes nothing toward any other cell.
            Some(declared) if declared == target => known_next_probability(neighbor_cache, query),
            Some(_) => 0.0,
            None => handoff_probability(neighbor_cache, query),
        };
        total += conn.bandwidth.as_f64() * p;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use qres_cellnet::{Bandwidth, ConnInfo, ConnectionId};
    use qres_mobility::{HandoffEvent, HoeConfig};

    fn s(x: f64) -> Duration {
        Duration::from_secs(x)
    }

    /// Cell 1's history: mobiles from cell 0 cross into cell 2 with
    /// sojourns 20/30/40 s; mobiles from cell 2 cross into cell 0 with
    /// sojourns 25/35 s.
    fn trained_cache() -> HoeCache {
        let mut c = HoeCache::new(HoeConfig::stationary());
        let mut t = 0.0;
        for soj in [20.0, 30.0, 40.0] {
            t += 1.0;
            c.record(HandoffEvent::new(
                SimTime::from_secs(t),
                Some(CellId(0)),
                CellId(2),
                s(soj),
            ));
        }
        for soj in [25.0, 35.0] {
            t += 1.0;
            c.record(HandoffEvent::new(
                SimTime::from_secs(t),
                Some(CellId(2)),
                CellId(0),
                s(soj),
            ));
        }
        c
    }

    fn cell_with(conns: &[(u64, u32, Option<u32>, f64)]) -> Cell {
        let mut cell = Cell::new(CellId(1), Bandwidth::from_bus(100));
        for &(id, bw, prev, entered) in conns {
            cell.insert(ConnInfo {
                id: ConnectionId(id),
                bandwidth: Bandwidth::from_bus(bw),
                prev: prev.map(CellId),
                entered_at: SimTime::from_secs(entered),
                known_next: None,
            })
            .unwrap();
        }
        cell
    }

    #[test]
    fn empty_cell_contributes_nothing() {
        let cell = cell_with(&[]);
        let mut cache = trained_cache();
        let b = neighbor_contribution(
            &cell,
            &mut cache,
            SimTime::from_secs(100.0),
            CellId(0),
            s(60.0),
        );
        assert_eq!(b, 0.0);
    }

    #[test]
    fn contribution_weighs_bandwidth_by_probability() {
        // One video connection (4 BU) that arrived from cell 2 at t = 100;
        // at t = 110 its extant sojourn is 10 s. Histories from prev = 2:
        // sojourns 25 and 35, both > 10 and both toward cell 0.
        // Within T_est = 20: (10, 30] covers 25 → p = 1/2.
        let cell = cell_with(&[(1, 4, Some(2), 100.0)]);
        let mut cache = trained_cache();
        let b = neighbor_contribution(
            &cell,
            &mut cache,
            SimTime::from_secs(110.0),
            CellId(0),
            s(20.0),
        );
        assert!((b - 4.0 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn mobiles_heading_elsewhere_contribute_less() {
        // A connection from prev = 0 historically exits to cell 2, never to
        // cell 0 → zero contribution toward cell 0.
        let cell = cell_with(&[(1, 1, Some(0), 100.0)]);
        let mut cache = trained_cache();
        let b = neighbor_contribution(
            &cell,
            &mut cache,
            SimTime::from_secs(105.0),
            CellId(0),
            s(1_000.0),
        );
        assert_eq!(b, 0.0);
        // But toward cell 2 it contributes fully with a huge window.
        let b2 = neighbor_contribution(
            &cell,
            &mut cache,
            SimTime::from_secs(105.0),
            CellId(2),
            s(1_000.0),
        );
        assert!((b2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contribution_monotone_in_t_est() {
        let cell = cell_with(&[(1, 4, Some(2), 100.0), (2, 1, Some(2), 90.0)]);
        let mut cache = trained_cache();
        let now = SimTime::from_secs(110.0);
        let mut last = 0.0;
        for t_est in [1.0, 5.0, 10.0, 20.0, 30.0, 60.0] {
            let b = neighbor_contribution(&cell, &mut cache, now, CellId(0), s(t_est));
            assert!(b >= last - 1e-12, "B_i,0 must be non-decreasing in T_est");
            last = b;
        }
    }

    #[test]
    fn contribution_bounded_by_cell_usage() {
        let cell = cell_with(&[(1, 4, Some(2), 100.0), (2, 1, Some(0), 100.0)]);
        let mut cache = trained_cache();
        let b = neighbor_contribution(
            &cell,
            &mut cache,
            SimTime::from_secs(100.0),
            CellId(0),
            s(10_000.0),
        );
        assert!(b <= cell.used().as_f64() + 1e-12);
    }

    #[test]
    fn route_aware_concentrates_contribution() {
        // Two identical connections from prev = 2, one declaring next =
        // cell 0 and one declaring next = cell 2. Only the first
        // contributes toward cell 0, via the pair-conditioned estimator.
        let mut cell = Cell::new(CellId(1), Bandwidth::from_bus(100));
        for (id, declared) in [(1u64, CellId(0)), (2u64, CellId(2))] {
            cell.insert(ConnInfo {
                id: ConnectionId(id),
                bandwidth: Bandwidth::from_bus(4),
                prev: Some(CellId(2)),
                entered_at: SimTime::from_secs(100.0),
                known_next: Some(declared),
            })
            .unwrap();
        }
        let mut cache = trained_cache();
        // Pair (prev=2, next=0) histories: sojourns 25, 35. At extant
        // sojourn 10 with T_est = 20: (10, 30] covers the 25 → p = 1/2.
        let b = neighbor_contribution(
            &cell,
            &mut cache,
            SimTime::from_secs(110.0),
            CellId(0),
            s(20.0),
        );
        assert!((b - 4.0 * 0.5).abs() < 1e-12, "b = {b}");
        // With a window covering everything, the declared connection
        // contributes its full bandwidth — route knowledge is sharper than
        // the unconditioned estimate.
        let b_full = neighbor_contribution(
            &cell,
            &mut cache,
            SimTime::from_secs(110.0),
            CellId(0),
            s(1_000.0),
        );
        assert!((b_full - 4.0).abs() < 1e-12, "b_full = {b_full}");
    }

    #[test]
    fn batched_path_equals_naive_reference_exactly() {
        let cell = cell_with(&[
            (1, 4, Some(2), 100.0),
            (2, 1, Some(2), 100.0), // same (prev, extant) as above
            (3, 1, Some(0), 95.0),
            (4, 4, None, 90.0),
            (5, 1, Some(7), 80.0), // unknown history
        ]);
        for t_est in [1.0, 10.0, 30.0, 1_000.0] {
            for now in [100.0, 105.0, 120.0] {
                let b = neighbor_contribution(
                    &cell,
                    &mut trained_cache(),
                    SimTime::from_secs(now),
                    CellId(0),
                    s(t_est),
                );
                let naive = neighbor_contribution_naive(
                    &cell,
                    &mut trained_cache(),
                    SimTime::from_secs(now),
                    CellId(0),
                    s(t_est),
                );
                assert_eq!(b, naive, "now = {now}, T_est = {t_est}");
            }
        }
    }

    #[test]
    fn stationary_mobiles_contribute_nothing() {
        // Extant sojourn 90 s exceeds every cached sojourn for prev = 2 →
        // estimated stationary.
        let cell = cell_with(&[(1, 4, Some(2), 10.0)]);
        let mut cache = trained_cache();
        let b = neighbor_contribution(
            &cell,
            &mut cache,
            SimTime::from_secs(100.0),
            CellId(0),
            s(1_000.0),
        );
        assert_eq!(b, 0.0);
    }
}
