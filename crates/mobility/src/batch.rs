//! Streaming Eq.-4 evaluation — one cell's whole `B_i,0` contribution in a
//! single pass over its connections.
//!
//! The reservation computation (Eq. 5) evaluates `p_h` once per resident
//! connection. Evaluated one at a time ([`crate::handoff_probability`]),
//! every connection pays two `BTreeMap` descents into the estimation
//! snapshot besides the binary searches the probability itself needs: the
//! `(prev, ·)` range for its denominator and the `(prev, next)` pair for
//! its numerator.
//!
//! A [`ContributionPass`] does those lookups once per distinct `prev` in
//! the population — the first time a connection with that `prev` comes by —
//! and then answers each connection with its binary searches alone:
//! `weight_gt(T_ext-soj)` on every `(prev, ·)` snapshot, summed in range
//! order for the denominator, where the target pair's term doubles as the
//! numerator's lower edge, plus one `weight_gt(T_ext-soj + T_est)` on the
//! target pair for the upper edge.
//!
//! Every probability is computed by the same floating-point operations in
//! the same order as the one-at-a-time path, so a caller summing
//! `b(C_i,j) · p_h` in its connection order gets a **bit-identical** total
//! and the simulator's trajectories do not depend on the path.
//!
//! Grouping connections by `(prev, T_ext-soj)` and answering each group
//! with merged sweeps over the snapshots' sorted arrays was measured and
//! replaced: real populations never share an extant sojourn, so the
//! grouping, sorting and deduplication were pure overhead.

use std::collections::btree_map::{BTreeMap, Range};

use qres_cellnet::CellId;
use qres_des::{Duration, SimTime};

use crate::cache::{HoeCache, PairSnapshot, PrevKey};

type Pairs = BTreeMap<(PrevKey, CellId), PairSnapshot>;

/// Distinct `prev`s whose lookups live inline in a [`ContributionPass`]: a
/// hexagonal cell's six neighbors plus in-cell starts, with room to spare.
/// More spill to the heap.
const INLINE_PREVS: usize = 8;

/// One distinct `prev`'s snapshot lookups.
struct PrevLookup<'a> {
    prev: PrevKey,
    /// Every `(prev, ·)` snapshot in key order: the Eq.-4 denominator.
    range: Range<'a, (PrevKey, CellId), PairSnapshot>,
    /// The `(prev, target)` snapshot: the Eq.-4 numerator.
    to_target: Option<&'a PairSnapshot>,
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
    pairs: Option<&'a Pairs>,
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
            pairs: None,
            t_o,
            target,
            t_est,
            inline: Default::default(),
            spill: Vec::new(),
        }
    }

    /// `p_h` of one connection with previous cell `prev`, declared next
    /// cell `known_next` and extant sojourn `extant_sojourn` — bit-identical
    /// to [`crate::handoff_probability`] when no next cell is declared, to
    /// [`crate::known_next_probability`] when `target` is, and `0.0` when
    /// another cell is.
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
        let lookup = self.lookup(prev);
        // The denominator, and `weight_gt(a)` on the target pair (the
        // numerator's lower edge) picked up on the way.
        let (den, above_a) = match known_next {
            // Known route: the target pair is the whole denominator.
            Some(_) => {
                let w = lookup.to_target.map_or(0.0, |snap| snap.weight_gt(a));
                (w, w)
            }
            None => lookup
                .range
                .clone()
                .fold((0.0, 0.0), |(den, above_a), (&(_, next), snap)| {
                    let w = snap.weight_gt(a);
                    (den + w, if next == target { w } else { above_a })
                }),
        };
        if den <= 0.0 {
            return 0.0; // estimated stationary
        }
        // weight_in(a, a + t_est), as the scalar path computes it.
        let num = lookup.to_target.map_or(0.0, |snap| {
            (above_a - snap.weight_gt((extant_sojourn + t_est).as_secs())).max(0.0)
        });
        debug_assert!(
            num <= den + 1e-9,
            "numerator {num} exceeds denominator {den}"
        );
        (num / den).clamp(0.0, 1.0)
    }

    /// The lookups for `prev`, resolved on its first use.
    fn lookup(&mut self, prev: PrevKey) -> &PrevLookup<'a> {
        let (cache, pairs, t_o, target) = (&mut self.cache, &mut self.pairs, self.t_o, self.target);
        let mut resolve = || {
            let pairs = *pairs.get_or_insert_with(|| {
                cache
                    .take()
                    .expect("the cache is taken only once")
                    .pairs_for_query(t_o)
            });
            PrevLookup {
                prev,
                range: pairs.range((prev, CellId(0))..=(prev, CellId(u32::MAX))),
                to_target: pairs.get(&(prev, target)),
            }
        };
        // Slots fill in first-use order, so the first empty one means
        // `prev` is new.
        for slot in &mut self.inline {
            let lookup = slot.get_or_insert_with(&mut resolve);
            if lookup.prev == prev {
                return lookup;
            }
        }
        match self.spill.iter().position(|l| l.prev == prev) {
            Some(i) => &self.spill[i],
            None => {
                self.spill.push(resolve());
                self.spill.last().expect("just pushed")
            }
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
        let mut c = HoeCache::new(HoeConfig::stationary());
        let mut t = 0.0;
        for (prev, next, soj) in [
            (Some(1), 0, 20.0),
            (Some(1), 0, 30.0),
            (Some(1), 2, 40.0),
            (Some(1), 2, 55.0),
            (Some(3), 0, 25.0),
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
