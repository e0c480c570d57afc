//! Per-cell capacity bookkeeping.
//!
//! A [`Cell`] is the state a base station keeps about its wireless link:
//! the fixed FCA capacity `C(i)`, the bandwidth in use by existing
//! connections `Σ_j b(C_i,j)`, and a registry of those connections with the
//! attributes the mobility estimator and the reservation computation need —
//! each connection's bandwidth, the cell it came from (`prev`), and when it
//! entered the cell (from which the *extant sojourn time* `T_ext-soj` is
//! derived, Section 4.1).
//!
//! Beside its id-sorted registry a cell can keep an [`ArrivalIndex`]: the
//! same connections grouped by `(prev, known_next)` and ordered by
//! `entered_at` within each group. Eq. 4 gives a connection a nonzero
//! hand-off probability only while its extant sojourn lies within `T_est`
//! of a recorded sojourn of its `(prev, target)` pair, and in arrival order
//! those connections form one contiguous run of their group, which two
//! binary searches find. The first [`Cell::arrivals`] call builds the
//! index; [`Cell::insert`] and [`Cell::remove`] keep it current from then
//! on, so a cell whose `B_i,0` is never queried (static guard band, the NS
//! baseline) never pays for it.

use qres_des::SimTime;

use crate::bu::Bandwidth;
use crate::ids::{CellId, ConnectionId};

/// What a base station knows about one connection residing in its cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConnInfo {
    /// The connection's identifier.
    pub id: ConnectionId,
    /// Its required bandwidth `b(C_i,j)`.
    pub bandwidth: Bandwidth,
    /// The cell the mobile resided in before entering this cell;
    /// `None` if the connection was established here (the paper's
    /// `prev = 0` convention).
    pub prev: Option<CellId>,
    /// When the mobile entered this cell (connection setup or hand-off).
    pub entered_at: SimTime,
    /// The mobile's *declared* next cell, when route information is
    /// available (the paper's Section 7 ITS/GPS extension: "mobiles'
    /// path/direction information … can also be utilized"). `None` in the
    /// baseline system — the estimator predicts the next cell itself.
    pub known_next: Option<CellId>,
}

impl ConnInfo {
    /// The extant sojourn time `T_ext-soj(C_0,j)` at time `now` — how long
    /// the mobile has been in this cell so far.
    pub fn extant_sojourn(&self, now: SimTime) -> qres_des::Duration {
        now - self.entered_at
    }
}

/// Errors from cell capacity operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellError {
    /// Inserting the connection would exceed the wireless link capacity.
    InsufficientCapacity,
    /// The connection id is already present in the cell.
    DuplicateConnection,
    /// The connection id is not present in the cell.
    UnknownConnection,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::InsufficientCapacity => write!(f, "insufficient wireless link capacity"),
            CellError::DuplicateConnection => write!(f, "connection already present in cell"),
            CellError::UnknownConnection => write!(f, "connection not present in cell"),
        }
    }
}

impl std::error::Error for CellError {}

/// One connection's entry in an [`ArrivalIndex`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// When the mobile entered the cell.
    pub entered_at: SimTime,
    /// The connection's identifier.
    pub id: ConnectionId,
    /// Its required bandwidth `b(C_i,j)`.
    pub bandwidth: Bandwidth,
}

/// The connections of one `(prev, known_next)` group, oldest arrival first.
#[derive(Debug, Clone, Copy)]
pub struct ArrivalGroup<'a> {
    /// The group's previous cell ([`ConnInfo::prev`]).
    pub prev: Option<CellId>,
    /// The group's declared next cell ([`ConnInfo::known_next`]).
    pub known_next: Option<CellId>,
    /// The group's connections in `entered_at` order; may be empty.
    pub arrivals: &'a [Arrival],
}

/// One group's key and where its arrivals end in the shared `Vec`.
#[derive(Debug, Clone, Copy)]
struct GroupHead {
    prev: Option<CellId>,
    known_next: Option<CellId>,
    end: usize,
}

/// A cell's connections grouped by `(prev, known_next)`, each group in
/// `entered_at` order (see the module docs).
///
/// All groups share one `Vec` of entries, in group order, so the entries
/// are one allocation however many groups a cell has. A group that empties
/// keeps its head: a cell meets few distinct `(prev, known_next)` keys.
#[derive(Debug, Clone, Default)]
pub struct ArrivalIndex {
    /// In first-seen order; group `g` holds
    /// `entries[groups[g - 1].end..groups[g].end]`.
    groups: Vec<GroupHead>,
    entries: Vec<Arrival>,
}

impl ArrivalIndex {
    /// Iterates the groups in first-seen order.
    pub fn groups(&self) -> impl Iterator<Item = ArrivalGroup<'_>> {
        let mut start = 0;
        self.groups.iter().map(move |head| {
            let arrivals = &self.entries[start..head.end];
            start = head.end;
            ArrivalGroup {
                prev: head.prev,
                known_next: head.known_next,
                arrivals,
            }
        })
    }

    /// The group `info` belongs to and its arrivals' range in `entries`.
    fn group_of(&self, info: &ConnInfo) -> Option<(usize, usize, usize)> {
        let g = self
            .groups
            .iter()
            .position(|h| h.prev == info.prev && h.known_next == info.known_next)?;
        let start = g.checked_sub(1).map_or(0, |p| self.groups[p].end);
        Some((g, start, self.groups[g].end))
    }

    fn insert(&mut self, info: &ConnInfo) {
        let (g, start, end) = self.group_of(info).unwrap_or_else(|| {
            let end = self.entries.len();
            self.groups.push(GroupHead {
                prev: info.prev,
                known_next: info.known_next,
                end,
            });
            (self.groups.len() - 1, end, end)
        });
        // After any ties; the simulator inserts at `now`, so this is
        // normally the group's end.
        let at =
            start + self.entries[start..end].partition_point(|x| x.entered_at <= info.entered_at);
        self.entries.insert(
            at,
            Arrival {
                entered_at: info.entered_at,
                id: info.id,
                bandwidth: info.bandwidth,
            },
        );
        for head in &mut self.groups[g..] {
            head.end += 1;
        }
    }

    fn remove(&mut self, info: &ConnInfo) {
        let (g, start, end) = self.group_of(info).expect("every connection is indexed");
        let group = &self.entries[start..end];
        let first = group.partition_point(|x| x.entered_at < info.entered_at);
        let at = group[first..]
            .iter()
            .position(|x| x.id == info.id)
            .expect("every connection is indexed");
        self.entries.remove(start + first + at);
        for head in &mut self.groups[g..] {
            head.end -= 1;
        }
    }

    /// Whether the index holds exactly the connections of `conns` (sorted
    /// by id), each in its group and each group in `entered_at` order.
    fn matches(&self, conns: &[ConnInfo]) -> bool {
        let ends_ok = self.groups.windows(2).all(|w| w[0].end <= w[1].end)
            && self.groups.last().map_or(0, |h| h.end) == self.entries.len();
        let mut ids: Vec<ConnectionId> = self.entries.iter().map(|a| a.id).collect();
        ids.sort_unstable();
        let same_ids = ids.iter().eq(conns.iter().map(|c| &c.id));
        ends_ok
            && same_ids
            && self.groups().all(|group| {
                group
                    .arrivals
                    .windows(2)
                    .all(|w| w[0].entered_at <= w[1].entered_at)
                    && group.arrivals.iter().all(|a| {
                        conns.binary_search_by_key(&a.id, |c| c.id).is_ok_and(|at| {
                            let c = &conns[at];
                            (c.prev, c.known_next, c.entered_at, c.bandwidth)
                                == (group.prev, group.known_next, a.entered_at, a.bandwidth)
                        })
                    })
            })
    }
}

/// One cell's wireless-link state.
///
/// The registry is a `Vec` kept sorted by connection id, so iteration
/// order is deterministic — the reservation computation sums Eq. 5 over a
/// neighbor cell's connections in this order, and run reproducibility
/// requires a stable one — and the Eq.-4 pass reads the records from one
/// contiguous block. Insertion and removal shift the tail: a cell holds at
/// most `C / b_min` connections (100 at the paper's capacity of 100 BUs),
/// so a shift moves at most about 4 KB.
#[derive(Debug, Clone)]
pub struct Cell {
    id: CellId,
    capacity: Bandwidth,
    used: Bandwidth,
    /// Sorted by `id`, ids unique.
    conns: Vec<ConnInfo>,
    /// Built by the first [`Cell::arrivals`] call, then kept current.
    arrivals: Option<ArrivalIndex>,
}

impl Cell {
    /// Creates an empty cell with wireless link capacity `capacity`.
    pub fn new(id: CellId, capacity: Bandwidth) -> Self {
        Cell {
            id,
            capacity,
            used: Bandwidth::ZERO,
            conns: Vec::new(),
            arrivals: None,
        }
    }

    /// This cell's id.
    pub fn id(&self) -> CellId {
        self.id
    }

    /// The fixed link capacity `C(i)`.
    pub fn capacity(&self) -> Bandwidth {
        self.capacity
    }

    /// Bandwidth currently used by existing connections `Σ_j b(C_i,j)`.
    pub fn used(&self) -> Bandwidth {
        self.used
    }

    /// Unused capacity `C(i) − Σ_j b(C_i,j)`.
    pub fn free(&self) -> Bandwidth {
        self.capacity - self.used
    }

    /// Number of connections residing in the cell.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// Whether `bandwidth` more BUs fit within the raw link capacity —
    /// the *hand-off* admission test (reserved bandwidth is usable by
    /// hand-offs, so only physical capacity limits them).
    pub fn fits(&self, bandwidth: Bandwidth) -> bool {
        self.used + bandwidth <= self.capacity
    }

    /// Whether `bandwidth` more BUs fit while leaving `reserve` BUs free —
    /// the *new-connection* admission test shape of Eq. 1:
    /// `Σ b + b_new ≤ C − B_r`. The reserve is a real-valued target, so the
    /// comparison is done in `f64`.
    pub fn fits_with_reserve(&self, bandwidth: Bandwidth, reserve: f64) -> bool {
        assert!(reserve >= 0.0, "reservation target cannot be negative");
        (self.used + bandwidth).as_f64() <= self.capacity.as_f64() - reserve
    }

    /// Registers a connection, consuming its bandwidth.
    ///
    /// Fails (without mutating) if capacity would be exceeded or the id is
    /// already present. Callers are expected to have run an admission test
    /// first; the capacity check here is a hard invariant, not policy.
    pub fn insert(&mut self, info: ConnInfo) -> Result<(), CellError> {
        let Err(at) = self.position(info.id) else {
            return Err(CellError::DuplicateConnection);
        };
        if !self.fits(info.bandwidth) {
            return Err(CellError::InsufficientCapacity);
        }
        self.used += info.bandwidth;
        self.conns.insert(at, info);
        if let Some(index) = &mut self.arrivals {
            index.insert(&info);
        }
        Ok(())
    }

    /// Removes a connection, releasing its bandwidth. Returns its record.
    pub fn remove(&mut self, id: ConnectionId) -> Result<ConnInfo, CellError> {
        let at = self
            .position(id)
            .map_err(|_| CellError::UnknownConnection)?;
        let info = self.conns.remove(at);
        self.used -= info.bandwidth;
        if let Some(index) = &mut self.arrivals {
            index.remove(&info);
        }
        Ok(info)
    }

    /// Looks up a connection's record.
    pub fn get(&self, id: ConnectionId) -> Option<&ConnInfo> {
        self.position(id).ok().map(|at| &self.conns[at])
    }

    /// Iterates connections in deterministic (id) order.
    pub fn connections(&self) -> std::slice::Iter<'_, ConnInfo> {
        self.conns.iter()
    }

    /// The arrival index, built from the registry on first use (see the
    /// module docs).
    pub fn arrivals(&mut self) -> &ArrivalIndex {
        let conns = &self.conns;
        self.arrivals.get_or_insert_with(|| {
            let mut index = ArrivalIndex::default();
            for c in conns {
                index.insert(c);
            }
            index
        })
    }

    /// Where `id` is in the registry (`Ok`), or where it would go (`Err`).
    fn position(&self, id: ConnectionId) -> Result<usize, usize> {
        self.conns.binary_search_by_key(&id, |c| c.id)
    }

    /// Internal invariant check: the registry is strictly id-ordered,
    /// `used` equals the sum of registered bandwidths and never exceeds
    /// capacity, and a built arrival index holds exactly the registry's
    /// connections in `entered_at` order. Used by tests and debug
    /// assertions in the simulator.
    pub fn check_invariants(&self) -> bool {
        let sorted = self.conns.windows(2).all(|w| w[0].id < w[1].id);
        let sum: Bandwidth = self.conns.iter().map(|c| c.bandwidth).sum();
        let indexed = self
            .arrivals
            .as_ref()
            .is_none_or(|ix| ix.matches(&self.conns));
        sorted && sum == self.used && self.used <= self.capacity && indexed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(id: u64, bw: u32, at: f64) -> ConnInfo {
        ConnInfo {
            id: ConnectionId(id),
            bandwidth: Bandwidth::from_bus(bw),
            prev: None,
            entered_at: SimTime::from_secs(at),
            known_next: None,
        }
    }

    #[test]
    fn insert_and_remove_track_usage() {
        let mut cell = Cell::new(CellId(0), Bandwidth::from_bus(10));
        cell.insert(info(1, 4, 0.0)).unwrap();
        cell.insert(info(2, 1, 0.0)).unwrap();
        assert_eq!(cell.used().as_bus(), 5);
        assert_eq!(cell.free().as_bus(), 5);
        assert_eq!(cell.connection_count(), 2);
        let removed = cell.remove(ConnectionId(1)).unwrap();
        assert_eq!(removed.bandwidth.as_bus(), 4);
        assert_eq!(cell.used().as_bus(), 1);
        assert!(cell.check_invariants());
    }

    #[test]
    fn capacity_is_enforced() {
        let mut cell = Cell::new(CellId(0), Bandwidth::from_bus(5));
        cell.insert(info(1, 4, 0.0)).unwrap();
        assert_eq!(
            cell.insert(info(2, 4, 0.0)),
            Err(CellError::InsufficientCapacity)
        );
        // Failed insert must not mutate.
        assert_eq!(cell.used().as_bus(), 4);
        assert_eq!(cell.connection_count(), 1);
        // Exactly filling is fine.
        cell.insert(info(3, 1, 0.0)).unwrap();
        assert_eq!(cell.free().as_bus(), 0);
    }

    #[test]
    fn duplicate_rejected() {
        let mut cell = Cell::new(CellId(0), Bandwidth::from_bus(10));
        cell.insert(info(1, 1, 0.0)).unwrap();
        assert_eq!(
            cell.insert(info(1, 1, 0.0)),
            Err(CellError::DuplicateConnection)
        );
    }

    #[test]
    fn unknown_removal_rejected() {
        let mut cell = Cell::new(CellId(0), Bandwidth::from_bus(10));
        assert_eq!(
            cell.remove(ConnectionId(9)),
            Err(CellError::UnknownConnection)
        );
    }

    #[test]
    fn fits_with_reserve_matches_eq1() {
        let mut cell = Cell::new(CellId(0), Bandwidth::from_bus(100));
        cell.insert(info(1, 80, 0.0)).unwrap();
        // 80 + 4 <= 100 - 10 -> false; 80 + 4 <= 100 - 16 -> false; edge:
        assert!(cell.fits_with_reserve(Bandwidth::from_bus(4), 16.0));
        assert!(!cell.fits_with_reserve(Bandwidth::from_bus(4), 16.1));
        // Hand-off test ignores the reserve.
        assert!(cell.fits(Bandwidth::from_bus(20)));
        assert!(!cell.fits(Bandwidth::from_bus(21)));
    }

    #[test]
    fn extant_sojourn() {
        let c = info(1, 1, 100.0);
        assert_eq!(c.extant_sojourn(SimTime::from_secs(130.0)).as_secs(), 30.0);
    }

    #[test]
    fn iteration_is_id_ordered() {
        let mut cell = Cell::new(CellId(0), Bandwidth::from_bus(100));
        for id in [5u64, 1, 9, 3] {
            cell.insert(info(id, 1, 0.0)).unwrap();
        }
        let ids: Vec<u64> = cell.connections().map(|c| c.id.0).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
    }

    #[test]
    fn registry_matches_btreemap_model() {
        use qres_des::StreamRng;
        use std::collections::btree_map::{BTreeMap, Entry};

        // Ids from a small range so duplicates and unknown ids are common;
        // bandwidths up to 6 BUs against 40 so inserts often overflow.
        // Entry times repeat and run backwards, and three `prev`s and two
        // declared next cells make several arrival groups; the index is
        // built after 2,000 steps of mutations.
        let mut rng = StreamRng::seed_from_u64(0x5EED);
        let mut cell = Cell::new(CellId(3), Bandwidth::from_bus(40));
        let mut model: BTreeMap<ConnectionId, ConnInfo> = BTreeMap::new();
        let mut model_used = 0u32;
        // Outcomes seen: Ok, Duplicate, InsufficientCapacity, Unknown.
        let mut seen = [0usize; 4];
        for step in 0..10_000 {
            let id = ConnectionId(rng.gen_range(0u64..48));
            let outcome = match rng.gen_index(3) {
                0 => {
                    let bw = rng.gen_range(1u32..7);
                    let c = ConnInfo {
                        prev: [None, Some(CellId(1)), Some(CellId(2))][step % 3],
                        known_next: id.0.is_multiple_of(4).then_some(CellId(5)),
                        ..info(id.0, bw, (step * 37 % 101) as f64)
                    };
                    let expect = match model.entry(id) {
                        Entry::Occupied(_) => Err(CellError::DuplicateConnection),
                        Entry::Vacant(_) if model_used + bw > 40 => {
                            Err(CellError::InsufficientCapacity)
                        }
                        Entry::Vacant(slot) => {
                            slot.insert(c);
                            model_used += bw;
                            Ok(())
                        }
                    };
                    let got = cell.insert(c);
                    assert_eq!(got, expect, "step {step}: insert {id:?}");
                    got
                }
                1 => {
                    let expect = model.remove(&id).ok_or(CellError::UnknownConnection);
                    if let Ok(c) = &expect {
                        model_used -= c.bandwidth.as_bus();
                    }
                    let got = cell.remove(id);
                    assert_eq!(got, expect, "step {step}: remove {id:?}");
                    got.map(|_| ())
                }
                _ => {
                    assert_eq!(cell.get(id), model.get(&id), "step {step}: get {id:?}");
                    continue;
                }
            };
            seen[match outcome {
                Ok(()) => 0,
                Err(CellError::DuplicateConnection) => 1,
                Err(CellError::InsufficientCapacity) => 2,
                Err(CellError::UnknownConnection) => 3,
            }] += 1;
            assert!(cell.connections().eq(model.values()), "step {step}: order");
            assert_eq!(cell.used().as_bus(), model_used, "step {step}: used");
            assert_eq!(cell.connection_count(), model.len(), "step {step}");
            assert!(cell.check_invariants(), "step {step}: invariants");
            if step >= 2_000 {
                let mut indexed: Vec<ConnInfo> = cell
                    .arrivals()
                    .groups()
                    .flat_map(|g| {
                        assert!(g.arrivals.is_sorted_by_key(|a| a.entered_at), "step {step}");
                        g.arrivals.iter().map(move |a| ConnInfo {
                            id: a.id,
                            bandwidth: a.bandwidth,
                            prev: g.prev,
                            entered_at: a.entered_at,
                            known_next: g.known_next,
                        })
                    })
                    .collect();
                indexed.sort_by_key(|c| c.id);
                assert!(indexed.iter().eq(model.values()), "step {step}: index");
            }
        }
        assert!(seen.iter().all(|&n| n > 100), "outcome coverage {seen:?}");
    }

    #[test]
    fn error_display() {
        assert!(CellError::InsufficientCapacity
            .to_string()
            .contains("capacity"));
        assert!(CellError::UnknownConnection
            .to_string()
            .contains("not present"));
    }
}
