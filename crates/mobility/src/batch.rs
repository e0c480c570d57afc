//! Streaming Eq.-4 evaluation — one cell's whole `B_i,0` contribution in a
//! single pass over its connections.
//!
//! The reservation computation (Eq. 5) evaluates `p_h` once per resident
//! connection. Evaluated one at a time ([`crate::handoff_probability`]),
//! every connection pays two lookups in the estimation snapshot besides
//! the binary searches the probability itself needs: the `(prev, ·)` key
//! range for its denominator and the `(prev, next)` pair for its
//! numerator.
//!
//! A [`ContributionPass`] does those lookups once per distinct `prev` in
//! the population — the first time a connection with that `prev` comes by —
//! and keeps them as key-table indices into the snapshot (see
//! [`crate::cache`]); each connection is then answered with its binary
//! searches alone, numerator first. `weight_gt(T_ext-soj)` and
//! `weight_gt(T_ext-soj + T_est)` on the `(prev, target)` pair give the
//! numerator; only when it is positive is `weight_gt(T_ext-soj)` summed
//! over the `(prev, ·)` pairs' slice of the snapshot, in key order, for
//! the denominator, with the target pair's term taken from the
//! numerator's first edge. Since the numerator never exceeds the
//! denominator, `p_h = 0` exactly when the numerator is zero, so most
//! connections — those not about to hand off into the target — never
//! touch the other pairs' sojourns.
//!
//! [`ContributionPass::target_span`] tells a caller which connections can
//! have a nonzero numerator at all: those whose extant sojourn `a` has
//! `a < s_max` and `a + T_est ≥ s_min` on the `(prev, target)` pair. The
//! reservation computation asks it once per group of connections and
//! calls [`ContributionPass::probability`] only for those candidates; every
//! other connection's `p_h` is exactly `+0.0`.
//!
//! Every probability is computed by the same floating-point operations in
//! the same order as the one-at-a-time path, and every zero is `+0.0`, so a
//! caller summing `b(C_i,j) · p_h` in its connection order gets a
//! **bit-identical** total and the simulator's trajectories do not depend
//! on the path.
//!
//! Grouping connections by `(prev, T_ext-soj)` and answering each group
//! with merged sweeps over the snapshots' sorted arrays was measured and
//! replaced: real populations never share an extant sojourn, so the
//! grouping, sorting and deduplication were pure overhead.

use qres_cellnet::CellId;
use qres_des::{Duration, SimTime};

use crate::cache::{HoeCache, Pair, PairView, PrevKey, SnapshotView};

/// Distinct `prev`s whose lookups live inline in a [`ContributionPass`]: a
/// hexagonal cell's six neighbors plus in-cell starts, with room to spare.
/// More spill to the heap.
const INLINE_PREVS: usize = 8;

/// One distinct `prev`'s snapshot lookups.
#[derive(Clone, Copy)]
struct PrevLookup<'a> {
    prev: PrevKey,
    /// Every `(prev, ·)` pair of the key table, in key order: the Eq.-4
    /// denominator.
    pairs: &'a [Pair],
    /// The `(prev, target)` pair's position in `pairs` and its selection:
    /// the Eq.-4 numerator.
    to_target: Option<(usize, PairView<'a>)>,
}

/// Evaluates `p_h(C_i,j → target)` (Eq. 4) for the connections of one
/// cell against `cache`, the cell's own estimation state, one connection
/// at a time with the snapshot lookups shared (see the module docs).
///
/// The snapshot is first needed — and, when stale, rebuilt — by the first
/// connection that is not declared toward another cell, exactly when the
/// one-at-a-time path would need it.
pub struct ContributionPass<'a> {
    cache: Option<&'a mut HoeCache>,
    /// The snapshot, once the first lookup resolved it (empty before).
    snapshot: SnapshotView<'a>,
    t_o: SimTime,
    target: CellId,
    t_est: Duration,
    inline: [Option<PrevLookup<'a>>; INLINE_PREVS],
    spill: Vec<PrevLookup<'a>>,
}

impl<'a> ContributionPass<'a> {
    /// Prepares a pass at time `t_o` toward `target`, whose estimation
    /// window is `t_est`.
    pub fn new(cache: &'a mut HoeCache, t_o: SimTime, target: CellId, t_est: Duration) -> Self {
        debug_assert!(t_est.as_secs() >= 0.0, "T_est cannot be negative");
        ContributionPass {
            cache: Some(cache),
            snapshot: SnapshotView::default(),
            t_o,
            target,
            t_est,
            inline: [None; INLINE_PREVS],
            spill: Vec::new(),
        }
    }

    /// `p_h` of one connection with previous cell `prev`, declared next
    /// cell `known_next` and extant sojourn `extant_sojourn` — bit-identical
    /// to [`crate::handoff_probability`] when no next cell is declared, to
    /// [`crate::known_next_probability`] when `target` is, and `0.0` when
    /// another cell is.
    ///
    /// The numerator `weight_in(a, a + T_est)` on the target pair comes
    /// first, from its two edges `weight_gt(a)` and `weight_gt(a + T_est)`;
    /// a zero numerator returns `+0.0` before the denominator is summed,
    /// exactly what `0 / den` (or the stationary case `den = 0`) gives.
    pub fn probability(
        &mut self,
        prev: PrevKey,
        known_next: Option<CellId>,
        extant_sojourn: Duration,
    ) -> f64 {
        debug_assert!(
            extant_sojourn.as_secs() >= 0.0,
            "extant sojourn cannot be negative"
        );
        let (target, t_est) = (self.target, self.t_est);
        if matches!(known_next, Some(declared) if declared != target) {
            return 0.0;
        }
        let a = extant_sojourn.as_secs();
        // Resolve the lookups (and with them the snapshot) even when the
        // target pair turns out empty: the first eligible connection builds
        // the snapshot, as on the one-at-a-time path.
        let lookup = self.lookup(prev);
        let Some((target_at, to_target)) = lookup.to_target else {
            return 0.0;
        };
        let above_a = to_target.weight_gt(a);
        if above_a <= 0.0 {
            return 0.0;
        }
        // weight_in(a, a + t_est), as the scalar path computes it.
        let num = (above_a - to_target.weight_gt((extant_sojourn + t_est).as_secs())).max(0.0);
        if num <= 0.0 {
            return 0.0;
        }
        let den = match known_next {
            // Known route: the target pair is the whole denominator.
            Some(_) => above_a,
            // The target pair's term is `above_a`, already in hand.
            None => {
                let snapshot = self.snapshot;
                lookup
                    .pairs
                    .iter()
                    .enumerate()
                    .fold(0.0, |den, (k, &pair)| {
                        den + if k == target_at {
                            above_a
                        } else {
                            snapshot.pair(pair).weight_gt(a)
                        }
                    })
            }
        };
        debug_assert!(
            num <= den + 1e-9,
            "numerator {num} exceeds denominator {den}"
        );
        (num / den).clamp(0.0, 1.0)
    }

    /// The smallest and largest recorded sojourn of the `(prev, target)`
    /// pair, or `None` when the pair is absent or empty.
    ///
    /// Resolves `prev`'s lookups (and with them, on a pass's first call,
    /// the snapshot) as [`Self::probability`] does. A connection with
    /// extant sojourn `a` has a zero numerator unless `a < max` and
    /// `a + T_est >= min`, both compared as `probability` computes them, so
    /// a caller may skip the others: their `p_h` is exactly `+0.0`.
    pub fn target_span(&mut self, prev: PrevKey) -> Option<(f64, f64)> {
        let sojourns = self.lookup(prev).to_target?.1.sojourns();
        Some((*sojourns.first()?, *sojourns.last()?))
    }

    /// The lookups for `prev`, resolved on its first use.
    fn lookup(&mut self, prev: PrevKey) -> PrevLookup<'a> {
        // Slots fill in first-use order, so the first empty one means
        // `prev` is new.
        for i in 0..INLINE_PREVS {
            match self.inline[i] {
                Some(lookup) if lookup.prev == prev => return lookup,
                Some(_) => {}
                None => {
                    let lookup = self.resolve(prev);
                    self.inline[i] = Some(lookup);
                    return lookup;
                }
            }
        }
        if let Some(&lookup) = self.spill.iter().find(|l| l.prev == prev) {
            return lookup;
        }
        let lookup = self.resolve(prev);
        self.spill.push(lookup);
        lookup
    }

    /// Reads `prev`'s pairs off the snapshot, which the pass's first
    /// lookup makes current.
    fn resolve(&mut self, prev: PrevKey) -> PrevLookup<'a> {
        if let Some(cache) = self.cache.take() {
            self.snapshot = cache.snapshot_at(self.t_o);
        }
        let (pairs, slot) = self.snapshot.lookup(prev, self.target);
        PrevLookup {
            prev,
            pairs,
            to_target: slot.map(|k| (k, self.snapshot.pair(pairs[k]))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::HoeConfig;
    use crate::estimator::{handoff_probability, known_next_probability, HandoffQuery};
    use crate::quadruplet::HandoffEvent;

    fn s(x: f64) -> Duration {
        Duration::from_secs(x)
    }

    fn trained_cache() -> HoeCache {
        weighted_cache(1.0)
    }

    /// The stationary history with member weight `w_0`. Prev 4 has left
    /// only toward cell 2, so its `(4, 0)` pair is absent.
    fn weighted_cache(w_0: f64) -> HoeCache {
        let mut config = HoeConfig::stationary();
        config.weekday_window.weights = vec![w_0];
        let mut c = HoeCache::new(config);
        let mut t = 0.0;
        for (prev, next, soj) in [
            (Some(1), 0, 20.0),
            (Some(1), 0, 30.0),
            (Some(1), 2, 40.0),
            (Some(1), 2, 55.0),
            (Some(3), 0, 25.0),
            (Some(4), 2, 50.0),
            (None, 0, 15.0),
            (None, 2, 45.0),
        ] {
            t += 1.0;
            c.record(HandoffEvent::new(
                SimTime::from_secs(t),
                prev.map(CellId),
                CellId(next),
                s(soj),
            ));
        }
        c
    }

    /// `(prev, known_next, T_ext-soj)` of one connection.
    type Conn = (Option<u32>, Option<u32>, f64);

    fn scalar(cache: &mut HoeCache, now: SimTime, t_est: Duration, c: Conn) -> f64 {
        let query = HandoffQuery {
            now,
            prev: c.0.map(CellId),
            extant_sojourn: s(c.2),
            next: CellId(0),
            t_est,
        };
        match c.1 {
            Some(0) => known_next_probability(cache, query),
            Some(_) => 0.0,
            None => handoff_probability(cache, query),
        }
    }

    fn streamed(cache: &mut HoeCache, now: SimTime, t_est: Duration, conns: &[Conn]) -> Vec<f64> {
        let mut pass = ContributionPass::new(cache, now, CellId(0), t_est);
        conns
            .iter()
            .map(|&(prev, next, ext)| pass.probability(prev.map(CellId), next.map(CellId), s(ext)))
            .collect()
    }

    #[test]
    fn matches_scalar_path_exactly() {
        let now = SimTime::from_secs(100.0);
        let mut conns = vec![
            (Some(1), None, 10.0),
            (Some(1), None, 10.0), // shares (prev, ext) with above
            (Some(1), None, 35.0),
            (Some(3), None, 5.0),
            (Some(9), None, 5.0), // unknown prev → stationary
            (None, None, 12.0),
            (Some(1), Some(0), 10.0), // declared toward target
            (Some(1), Some(2), 10.0), // declared elsewhere → 0
            (Some(1), None, 60.0),    // outlasts history → stationary
        ];
        // More distinct prevs than the inline table holds.
        conns.extend((10..30).map(|p| (Some(p), None, 1.0)));
        conns.push((Some(3), None, 2.0));
        for t_est in [0.0, 5.0, 17.0, 40.0, 200.0] {
            let got = streamed(&mut trained_cache(), now, s(t_est), &conns);
            let mut cache = trained_cache();
            for (j, &c) in conns.iter().enumerate() {
                let expect = scalar(&mut cache, now, s(t_est), c);
                assert_eq!(
                    got[j].to_bits(),
                    expect.to_bits(),
                    "T_est = {t_est}, conn {j}"
                );
            }
        }
    }

    #[test]
    fn numerator_first_exit_matches_scalar_path() {
        let now = SimTime::from_secs(100.0);
        let conns = [
            (Some(4), None, 10.0),    // (prev, target) pair absent
            (Some(1), None, 30.0),    // T_ext-soj = the pair's largest sojourn
            (Some(1), None, 29.5),    // just below it: contributes
            (Some(1), None, 19.8),    // contributes unless T_est = 0
            (Some(1), None, 40.0),    // zero numerator, positive denominator
            (Some(4), Some(0), 10.0), // declared toward target, pair absent
            (Some(1), Some(0), 30.0), // declared toward target, past its pair
            (Some(1), Some(0), 10.0), // declared toward target, contributes
            (Some(9), None, 0.0),     // unknown prev
            (None, None, 14.0),       // in-cell start, contributes
        ];
        for w_0 in [1.0, 0.7, 0.1] {
            for t_est in [0.0, 0.5, 5.0, 17.0] {
                let got = streamed(&mut weighted_cache(w_0), now, s(t_est), &conns);
                let mut cache = weighted_cache(w_0);
                for (j, &c) in conns.iter().enumerate() {
                    let expect = scalar(&mut cache, now, s(t_est), c);
                    let ctx = format!("w_0 = {w_0}, T_est = {t_est}, conn {j}");
                    assert_eq!(got[j].to_bits(), expect.to_bits(), "{ctx}");
                    if got[j] == 0.0 {
                        assert_eq!(got[j].to_bits(), 0.0f64.to_bits(), "{ctx}: -0.0");
                    }
                }
                // The edge cases land on the side they are meant to.
                assert_eq!(got[0], 0.0);
                assert_eq!(got[1], 0.0);
                assert_eq!(got[5], 0.0);
                assert_eq!(got[6], 0.0);
                assert_eq!(got[3] > 0.0, t_est > 0.0, "w_0 = {w_0}, T_est = {t_est}");
            }
        }
    }

    #[test]
    fn snapshot_is_built_only_for_a_contributing_connection() {
        // A finite-T_int store rebuilds on its first query: a pass whose
        // connections all head elsewhere must not trigger that rebuild.
        let mut cache = HoeCache::new(HoeConfig::paper_time_varying());
        cache.record(HandoffEvent::new(
            SimTime::from_secs(10.0),
            Some(CellId(1)),
            CellId(0),
            s(30.0),
        ));
        let now = SimTime::from_secs(20.0);
        let before = cache.version();
        streamed(&mut cache, now, s(30.0), &[(Some(1), Some(2), 5.0)]);
        assert_eq!(cache.version(), before);
        streamed(
            &mut cache,
            now,
            s(30.0),
            &[(Some(1), Some(2), 5.0), (Some(1), None, 5.0)],
        );
        assert_ne!(cache.version(), before);
        // Once the snapshot is stale (older than the 30-s refresh), the
        // first eligible connection rebuilds it even when it returns zero
        // before its denominator: an absent target pair, then an extant
        // sojourn past the pair's largest.
        for (at, conn) in [(60.0, (Some(5), None, 5.0)), (100.0, (Some(1), None, 40.0))] {
            let now = SimTime::from_secs(at);
            let before = cache.version();
            let p = streamed(&mut cache, now, s(30.0), &[(Some(1), Some(2), 5.0), conn]);
            assert_eq!(p, [0.0, 0.0]);
            assert_ne!(cache.version(), before, "no rebuild at t = {at}");
        }
    }

    #[test]
    fn empty_cache_is_all_stationary() {
        let mut c = HoeCache::new(HoeConfig::stationary());
        let p = streamed(
            &mut c,
            SimTime::from_secs(10.0),
            s(100.0),
            &[
                (Some(1), None, 0.0),
                (None, None, 0.0),
                (None, Some(0), 0.0),
            ],
        );
        assert_eq!(p, [0.0; 3]);
    }
}
