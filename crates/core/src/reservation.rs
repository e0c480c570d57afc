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
//! [`neighbor_contribution`] evaluates Eq. 4 only where it can be
//! nonzero. `p_h` has a zero numerator unless some recorded sojourn `s` of
//! the connection's `(prev, target)` pair satisfies `a < s ≤ a + T_est`,
//! `a` being its extant sojourn. The neighbor's arrival index
//! ([`qres_cellnet::ArrivalIndex`]) keeps each `(prev, known_next)` group
//! in `entered_at` order, so those candidates form one contiguous run per
//! group: the suffix with `a < s_max` cut at the prefix with
//! `a + T_est ≥ s_min`. The candidates go through one
//! [`qres_mobility::ContributionPass`]; their nonzero terms are summed in
//! connection-id order. Every skipped connection's `p_h` is exactly `+0.0`,
//! and adding `+0.0` to a non-negative sum changes no bit, so the total is
//! bit-identical to [`neighbor_contribution_naive`], one estimator query
//! per connection. With telemetry on, the pass also stages its forecasts
//! for the calibration tracker in the [`AdmissionBuffer`]: each group's
//! nonzero `p_h` and how many of its connections forecast zero.

use qres_cellnet::{Bandwidth, Cell, CellId, ConnectionId};
use qres_des::{Duration, SimTime};
use qres_mobility::{
    handoff_probability, known_next_probability, ContributionPass, HandoffQuery, HoeCache,
};

/// One candidate connection's nonzero Eq.-4 result.
#[derive(Debug)]
struct Term {
    id: ConnectionId,
    bandwidth: Bandwidth,
    p_h: f64,
}

/// The scratch of the `B_i,0` evaluations in one admission test: the
/// Eq.-4 terms of the latest evaluation and the admission's staged
/// telemetry. [`crate::ReservationSystem`] owns one and reuses it for
/// every admission; a caller of [`neighbor_contribution`] passes its own.
#[derive(Debug, Default)]
pub struct AdmissionBuffer {
    terms: Vec<Term>,
    pub(crate) telemetry: qres_obs::Staging,
}

/// Computes one neighbor's contribution `B_i,0` (Eq. 5): the fractional
/// bandwidth cell `i` (= `neighbor_cell`, with estimation state
/// `neighbor_cache`) expects to hand off into `target` within
/// `t_est_of_target`.
///
/// In deployment this computation runs *in cell `i`'s BS* after receiving
/// the target's `T_est` announcement (the caller accounts that exchange on
/// the signaling fabric).
///
/// Evaluates Eq. 4 only for the connections that can hand off within
/// `t_est_of_target` (see the module docs); the first call on a cell
/// builds its arrival index, hence `&mut`. The snapshot is resolved (and,
/// when stale, rebuilt) when some connection not declared toward another
/// cell exists, as on the one-at-a-time path. The result is bit-identical
/// to [`neighbor_contribution_naive`].
/// `buffer` is the caller's scratch; the call begins an admission on it
/// (with telemetry on, its forecasts stay there, published nowhere).
pub fn neighbor_contribution(
    neighbor_cell: &mut Cell,
    neighbor_cache: &mut HoeCache,
    now: SimTime,
    target: CellId,
    t_est_of_target: Duration,
    buffer: &mut AdmissionBuffer,
) -> f64 {
    buffer.telemetry.begin();
    contribution(
        neighbor_cell,
        neighbor_cache,
        now,
        target,
        t_est_of_target,
        buffer,
    )
    .0
}

/// [`neighbor_contribution`] inside an admission that began on `buffer`.
/// Returns `B_i,0` and, with the flight recorder on, its Eq.-4 detail:
/// `Σ p_h` over the forecasts in id order (zeros adding nothing) and the
/// number of connections forecast.
pub(crate) fn contribution(
    neighbor_cell: &mut Cell,
    neighbor_cache: &mut HoeCache,
    now: SimTime,
    target: CellId,
    t_est_of_target: Duration,
    buffer: &mut AdmissionBuffer,
) -> (f64, f64, u32) {
    let AdmissionBuffer { terms, telemetry } = buffer;
    terms.clear();
    let cell_id = neighbor_cell.id();
    debug_assert_ne!(cell_id, target, "a cell does not hand off to itself");
    let obs = telemetry.on();
    let t0 = obs.then(std::time::Instant::now);
    if obs {
        telemetry.forecasts.evaluation(
            cell_id.0,
            target.0,
            now.as_secs(),
            now.as_secs() + t_est_of_target.as_secs(),
        );
    }
    let mut pass = ContributionPass::new(neighbor_cache, now, target, t_est_of_target);
    let mut evaluated = 0usize;
    let mut eligible = 0u32;
    for group in neighbor_cell.arrivals().groups() {
        if group.arrivals.is_empty()
            || matches!(group.known_next, Some(declared) if declared != target)
        {
            continue;
        }
        eligible += group.arrivals.len() as u32;
        let first = terms.len();
        if let Some((s_min, s_max)) = pass.target_span(group.prev) {
            // The same float expressions `probability` compares: `a < s_max`
            // holds on a suffix of the group, `a + T_est >= s_min` on a
            // prefix.
            let arrivals = group.arrivals;
            let lo = arrivals.partition_point(|x| (now - x.entered_at).as_secs() >= s_max);
            let hi = arrivals
                .partition_point(|x| ((now - x.entered_at) + t_est_of_target).as_secs() >= s_min);
            let candidates = &arrivals[lo..hi.max(lo)];
            evaluated += candidates.len();
            for x in candidates {
                let p_h = pass.probability(group.prev, group.known_next, now - x.entered_at);
                if p_h != 0.0 {
                    terms.push(Term {
                        id: x.id,
                        bandwidth: x.bandwidth,
                        p_h,
                    });
                }
            }
        }
        if obs {
            // Calibration read-out: the group's nonzero forecasts; the
            // rest of the group forecast zero. The admission publishes
            // them after its timing record ([`qres_obs::Staging`]).
            telemetry.forecasts.group(
                group.prev.map(|c| c.0),
                group.arrivals.len(),
                terms[first..].iter().map(|t| (t.id.0, t.p_h)),
            );
        }
    }
    terms.sort_unstable_by_key(|t| t.id);
    let total = terms
        .iter()
        .fold(0.0, |total, t| total + t.bandwidth.as_f64() * t.p_h);
    if let Some(t0) = t0 {
        qres_obs::metrics::BATCHED_CONTRIBUTION_NS.record_duration(t0.elapsed());
        qres_obs::metrics::B_I0_EVALS_TOTAL.add(evaluated as u64);
    }
    let p_h_sum = if telemetry.flight() {
        terms.iter().fold(0.0, |sum, t| sum + t.p_h)
    } else {
        0.0
    };
    (total, p_h_sum, eligible)
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
        let mut cell = cell_with(&[]);
        let mut cache = trained_cache();
        let b = neighbor_contribution(
            &mut cell,
            &mut cache,
            SimTime::from_secs(100.0),
            CellId(0),
            s(60.0),
            &mut AdmissionBuffer::default(),
        );
        assert_eq!(b, 0.0);
    }

    #[test]
    fn contribution_weighs_bandwidth_by_probability() {
        // One video connection (4 BU) that arrived from cell 2 at t = 100;
        // at t = 110 its extant sojourn is 10 s. Histories from prev = 2:
        // sojourns 25 and 35, both > 10 and both toward cell 0.
        // Within T_est = 20: (10, 30] covers 25 → p = 1/2.
        let mut cell = cell_with(&[(1, 4, Some(2), 100.0)]);
        let mut cache = trained_cache();
        let b = neighbor_contribution(
            &mut cell,
            &mut cache,
            SimTime::from_secs(110.0),
            CellId(0),
            s(20.0),
            &mut AdmissionBuffer::default(),
        );
        assert!((b - 4.0 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn mobiles_heading_elsewhere_contribute_less() {
        // A connection from prev = 0 historically exits to cell 2, never to
        // cell 0 → zero contribution toward cell 0.
        let mut cell = cell_with(&[(1, 1, Some(0), 100.0)]);
        let mut cache = trained_cache();
        let b = neighbor_contribution(
            &mut cell,
            &mut cache,
            SimTime::from_secs(105.0),
            CellId(0),
            s(1_000.0),
            &mut AdmissionBuffer::default(),
        );
        assert_eq!(b, 0.0);
        // But toward cell 2 it contributes fully with a huge window.
        let b2 = neighbor_contribution(
            &mut cell,
            &mut cache,
            SimTime::from_secs(105.0),
            CellId(2),
            s(1_000.0),
            &mut AdmissionBuffer::default(),
        );
        assert!((b2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contribution_monotone_in_t_est() {
        let mut cell = cell_with(&[(1, 4, Some(2), 100.0), (2, 1, Some(2), 90.0)]);
        let mut cache = trained_cache();
        let now = SimTime::from_secs(110.0);
        let mut last = 0.0;
        for t_est in [1.0, 5.0, 10.0, 20.0, 30.0, 60.0] {
            let b = neighbor_contribution(
                &mut cell,
                &mut cache,
                now,
                CellId(0),
                s(t_est),
                &mut AdmissionBuffer::default(),
            );
            assert!(b >= last - 1e-12, "B_i,0 must be non-decreasing in T_est");
            last = b;
        }
    }

    #[test]
    fn contribution_bounded_by_cell_usage() {
        let mut cell = cell_with(&[(1, 4, Some(2), 100.0), (2, 1, Some(0), 100.0)]);
        let mut cache = trained_cache();
        let b = neighbor_contribution(
            &mut cell,
            &mut cache,
            SimTime::from_secs(100.0),
            CellId(0),
            s(10_000.0),
            &mut AdmissionBuffer::default(),
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
            &mut cell,
            &mut cache,
            SimTime::from_secs(110.0),
            CellId(0),
            s(20.0),
            &mut AdmissionBuffer::default(),
        );
        assert!((b - 4.0 * 0.5).abs() < 1e-12, "b = {b}");
        // With a window covering everything, the declared connection
        // contributes its full bandwidth — route knowledge is sharper than
        // the unconditioned estimate.
        let b_full = neighbor_contribution(
            &mut cell,
            &mut cache,
            SimTime::from_secs(110.0),
            CellId(0),
            s(1_000.0),
            &mut AdmissionBuffer::default(),
        );
        assert!((b_full - 4.0).abs() < 1e-12, "b_full = {b_full}");
    }

    #[test]
    fn batched_path_equals_naive_reference_exactly() {
        let mut cell = cell_with(&[
            (1, 4, Some(2), 100.0),
            (2, 1, Some(2), 100.0), // same (prev, extant) as above
            (3, 1, Some(0), 95.0),
            (4, 4, None, 90.0),
            (5, 1, Some(7), 80.0), // unknown history
        ]);
        for t_est in [1.0, 10.0, 30.0, 1_000.0] {
            for now in [100.0, 105.0, 120.0] {
                let b = neighbor_contribution(
                    &mut cell,
                    &mut trained_cache(),
                    SimTime::from_secs(now),
                    CellId(0),
                    s(t_est),
                    &mut AdmissionBuffer::default(),
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

    /// `qres_b_i0_evals_total` counts the connections Eq. 4 was evaluated
    /// for, not the cell's residents.
    #[test]
    fn evals_counter_counts_only_window_candidates() {
        qres_obs::set_level(qres_obs::Level::Info);
        let evals = &qres_obs::metrics::B_I0_EVALS_TOTAL;
        // Extant sojourns 10 s and 100 s; prev = 2's recorded sojourns are
        // 25 and 35 s.
        let mut cell = cell_with(&[(1, 4, Some(2), 100.0), (2, 1, Some(2), 10.0)]);
        let mut cache = trained_cache();
        let now = SimTime::from_secs(110.0);
        // (10, 11] and (100, 101] hold no recorded sojourn: nothing to
        // evaluate.
        neighbor_contribution(
            &mut cell,
            &mut cache,
            now,
            CellId(0),
            s(1.0),
            &mut AdmissionBuffer::default(),
        );
        assert_eq!(evals.get(), 0);
        // (10, 30] holds 25 s; the 100-s connection outlived every record.
        neighbor_contribution(
            &mut cell,
            &mut cache,
            now,
            CellId(0),
            s(20.0),
            &mut AdmissionBuffer::default(),
        );
        assert_eq!(evals.get(), 1);
    }

    #[test]
    fn stationary_mobiles_contribute_nothing() {
        // Extant sojourn 90 s exceeds every cached sojourn for prev = 2 →
        // estimated stationary.
        let mut cell = cell_with(&[(1, 4, Some(2), 10.0)]);
        let mut cache = trained_cache();
        let b = neighbor_contribution(
            &mut cell,
            &mut cache,
            SimTime::from_secs(100.0),
            CellId(0),
            s(1_000.0),
            &mut AdmissionBuffer::default(),
        );
        assert_eq!(b, 0.0);
    }
}
