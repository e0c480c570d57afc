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
//! The registry is an unordered `Vec` with an open-addressing index from
//! connection id to position, so a connection event (set-up, hand-off,
//! end) costs a probe or two whatever the cell holds. Whoever needs the
//! deterministic id order asks [`Cell::connections`], which sorts on
//! demand.
//!
//! Beside its registry a cell can keep an [`ArrivalIndex`]: the same
//! connections grouped by `(prev, known_next)` and ordered by `entered_at`
//! within each group. Eq. 4 gives a connection a nonzero hand-off
//! probability only while its extant sojourn lies within `T_est` of a
//! recorded sojourn of its `(prev, target)` pair, and in arrival order
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
    fn matches(&self, conns: &[&ConnInfo]) -> bool {
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
/// The registry is a `Vec` in no particular order: an insert pushes, a
/// removal `swap_remove`s, and an open-addressing index finds a
/// connection by id. Iteration in id order, which run reproducibility
/// requires wherever records are summed, is [`Cell::connections`]' job;
/// only the naive `B_i,0` reference and tests call it, since the Eq.-4
/// pass reads the [`ArrivalIndex`] instead.
#[derive(Debug, Clone)]
pub struct Cell {
    id: CellId,
    capacity: Bandwidth,
    used: Bandwidth,
    /// Unordered, ids unique.
    conns: Vec<ConnInfo>,
    /// Where each of `conns`' ids is.
    index: IdIndex,
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
            index: IdIndex::default(),
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
        if self.index.find(&self.conns, info.id).is_some() {
            return Err(CellError::DuplicateConnection);
        }
        if !self.fits(info.bandwidth) {
            return Err(CellError::InsufficientCapacity);
        }
        self.index.push(&self.conns, info.id);
        self.reserve_one();
        self.used += info.bandwidth;
        self.conns.push(info);
        if let Some(index) = &mut self.arrivals {
            index.insert(&info);
        }
        Ok(())
    }

    /// Makes room for one more record: by doubling, as `Vec::push` would,
    /// but not past `C` records while fewer are held. A connection takes
    /// at least one BU, so a full 100-BU cell holds 100 records, where
    /// doubling would have left room for 128; that slack pays for the id
    /// index. Past `C` records (zero-BU connections) it doubles.
    fn reserve_one(&mut self) {
        let len = self.conns.len();
        if len == self.conns.capacity() {
            let bound = self.capacity.as_bus() as usize;
            let extra = len.max(4);
            self.conns.reserve_exact(if len < bound {
                extra.min(bound - len)
            } else {
                extra
            });
        }
    }

    /// Removes a connection, releasing its bandwidth. Returns its record.
    pub fn remove(&mut self, id: ConnectionId) -> Result<ConnInfo, CellError> {
        let slot = self
            .index
            .find(&self.conns, id)
            .ok_or(CellError::UnknownConnection)?;
        let at = self.index.erase(&self.conns, slot);
        // The last record moves into the gap; its slot follows it.
        let last = self.conns.len() - 1;
        if at != last {
            self.index.repoint(&self.conns, self.conns[last].id, at);
        }
        let info = self.conns.swap_remove(at);
        self.used -= info.bandwidth;
        if let Some(index) = &mut self.arrivals {
            index.remove(&info);
        }
        Ok(info)
    }

    /// Looks up a connection's record.
    pub fn get(&self, id: ConnectionId) -> Option<&ConnInfo> {
        let slot = self.index.find(&self.conns, id)?;
        Some(&self.conns[self.index.position(slot)])
    }

    /// Iterates connections in deterministic (id) order, sorting the
    /// registry's records on each call.
    pub fn connections(&self) -> std::vec::IntoIter<&ConnInfo> {
        by_id(&self.conns).into_iter()
    }

    /// The arrival index, built from the registry on first use (see the
    /// module docs). It is built in id order, so its groups come in the
    /// order their first connections' ids do.
    pub fn arrivals(&mut self) -> &ArrivalIndex {
        let conns = &self.conns;
        self.arrivals.get_or_insert_with(|| {
            let mut index = ArrivalIndex::default();
            for c in by_id(conns) {
                index.insert(c);
            }
            index
        })
    }

    /// Internal invariant check: ids are unique and the id index finds
    /// every record, `used` equals the sum of registered bandwidths and
    /// never exceeds capacity, and a built arrival index holds exactly the
    /// registry's connections in `entered_at` order. Used by tests and
    /// debug assertions in the simulator.
    pub fn check_invariants(&self) -> bool {
        let sorted = by_id(&self.conns);
        let unique = sorted.windows(2).all(|w| w[0].id < w[1].id);
        let sum: Bandwidth = self.conns.iter().map(|c| c.bandwidth).sum();
        let indexed = self.arrivals.as_ref().is_none_or(|ix| ix.matches(&sorted));
        unique
            && self.index.matches(&self.conns)
            && sum == self.used
            && self.used <= self.capacity
            && indexed
    }
}

/// `conns` in id order.
fn by_id(conns: &[ConnInfo]) -> Vec<&ConnInfo> {
    let mut sorted: Vec<&ConnInfo> = conns.iter().collect();
    sorted.sort_unstable_by_key(|c| c.id);
    sorted
}

/// An open-addressing hash index from connection id to registry
/// position.
///
/// `slots[s]` holds a position plus one, `0` marking an empty slot. A
/// multiplicative hash picks an id's home slot and linear probing walks
/// on from there, wrapping at the table's end. The table is a power of two
/// at least twice the registry's length, so every probe ends at an empty
/// slot within a few steps. A deletion shifts the rest of its probe run
/// back into the hole, so no tombstones build up. The table is allocated
/// by the first insert and never shrinks: at 100 connections it is 256
/// slots, 1 KB. Ids come from the simulator's allocator, not from outside
/// input, so the hash need not resist keys crafted to collide.
#[derive(Debug, Clone, Default)]
struct IdIndex {
    slots: Vec<u32>,
}

impl IdIndex {
    /// The first table's size.
    const MIN_SLOTS: usize = 16;

    /// `id`'s home slot: the top bits of `id · 2^64/φ` (Fibonacci
    /// hashing), so consecutive ids spread over the whole table.
    fn home(&self, id: ConnectionId) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The registry position slot `slot` holds.
    fn position(&self, slot: usize) -> usize {
        self.slots[slot] as usize - 1
    }

    /// The slot that holds `id`, which is in `conns` if anywhere.
    fn find(&self, conns: &[ConnInfo], id: ConnectionId) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut s = self.home(id);
        loop {
            match self.slots[s] {
                0 => return None,
                p if conns[p as usize - 1].id == id => return Some(s),
                _ => s = (s + 1) & self.mask(),
            }
        }
    }

    /// Indexes `id` at position `conns.len()`, where the caller is about
    /// to push it, first doubling the table (and re-indexing `conns`) if
    /// the push would fill more than half of it.
    fn push(&mut self, conns: &[ConnInfo], id: ConnectionId) {
        let len = conns.len() + 1;
        if 2 * len > self.slots.len() {
            self.slots = vec![0; (2 * len).next_power_of_two().max(Self::MIN_SLOTS)];
            for (at, c) in conns.iter().enumerate() {
                self.place(c.id, at);
            }
        }
        self.place(id, conns.len());
    }

    /// Writes position `at` into the first empty slot of `id`'s run.
    fn place(&mut self, id: ConnectionId, at: usize) {
        let mut s = self.home(id);
        while self.slots[s] != 0 {
            s = (s + 1) & self.mask();
        }
        self.slots[s] = Self::entry(at);
    }

    /// Points `id`'s slot at position `at`; `conns` still holds `id` at
    /// its old position.
    fn repoint(&mut self, conns: &[ConnInfo], id: ConnectionId, at: usize) {
        let slot = self.find(conns, id).expect("every connection is indexed");
        self.slots[slot] = Self::entry(at);
    }

    /// The slot entry for position `at`.
    fn entry(at: usize) -> u32 {
        u32::try_from(at + 1).expect("a cell holds fewer than 2^32 connections")
    }

    /// Empties `slot` and returns the position it held. Each later entry
    /// of the probe run moves back into the hole unless its home lies
    /// cyclically after the hole (between the hole and the entry), where
    /// a probe from its home would no longer reach it.
    fn erase(&mut self, conns: &[ConnInfo], slot: usize) -> usize {
        let at = self.position(slot);
        let mask = self.mask();
        let mut hole = slot;
        let mut s = slot;
        loop {
            s = (s + 1) & mask;
            let p = self.slots[s];
            if p == 0 {
                break;
            }
            let home = self.home(conns[p as usize - 1].id);
            if s.wrapping_sub(home) & mask >= s.wrapping_sub(hole) & mask {
                self.slots[hole] = p;
                hole = s;
            }
        }
        self.slots[hole] = 0;
        at
    }

    /// Whether the table is at most half full and maps each of `conns`'
    /// ids to its position, and nothing else.
    fn matches(&self, conns: &[ConnInfo]) -> bool {
        let sized = self.slots.len() >= 2 * conns.len()
            && (self.slots.is_empty() || self.slots.len().is_power_of_two());
        let occupied = self.slots.iter().filter(|&&p| p != 0).count();
        let in_range = self.slots.iter().all(|&p| p as usize <= conns.len());
        sized
            && occupied == conns.len()
            && in_range
            && conns.iter().enumerate().all(|(at, c)| {
                self.find(conns, c.id)
                    .is_some_and(|slot| self.position(slot) == at)
            })
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
    fn zero_bandwidth_connections_outnumber_capacity() {
        // The registry stops doubling at `C` records, unless it holds more.
        let mut cell = Cell::new(CellId(0), Bandwidth::from_bus(3));
        for id in 0..40 {
            cell.insert(info(id, 0, 0.0)).unwrap();
        }
        assert_eq!(cell.connection_count(), 40);
        assert!(cell.check_invariants());
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

    /// Fill-and-drain cycles over ids that stress the id index: runs that
    /// collide at the table's last slot and wrap to its first, multiples
    /// of 2^16, ids straddling 2^32, and a dense run. Each cycle starts
    /// from a new cell, so the index grows from nothing to 256 slots; every
    /// step is checked against a `BTreeMap` model.
    #[test]
    fn registry_survives_colliding_and_wrapping_ids() {
        use qres_des::StreamRng;
        use std::collections::BTreeMap;

        const CAPACITY: u32 = 100;
        let n = CAPACITY as u64;
        // Homes at 256 slots are the top 8 bits of the hash, so an id
        // homed at slot 255 is homed at the last slot of every smaller
        // table too, and one homed at 0 at the first.
        let table = &IdIndex {
            slots: vec![0; 256],
        };
        let homed_at = |slot: usize| {
            (0u64..)
                .filter(move |&id| table.home(ConnectionId(id)) == slot)
                .take(CAPACITY as usize / 2)
        };
        let wrapping: Vec<u64> = homed_at(255)
            .zip(homed_at(0))
            .flat_map(|(a, b)| [a, b])
            .collect();
        let families: [(&str, Vec<u64>); 4] = [
            ("wrapping", wrapping),
            ("multiples of 2^16", (1..=n).map(|k| k << 16).collect()),
            (
                "straddling 2^32",
                (0..n).map(|k| (1 << 32) - n / 2 + k).collect(),
            ),
            ("dense", (0..n).collect()),
        ];

        let mut rng = StreamRng::seed_from_u64(0xC011_1DE5);
        let mut shuffle = |v: &mut Vec<u64>| {
            for i in (1..v.len()).rev() {
                v.swap(i, rng.gen_index(i + 1));
            }
        };
        for (name, ids) in &families {
            assert_eq!(ids.len(), CAPACITY as usize, "{name}");
            for cycle in 0..6 {
                let mut cell = Cell::new(CellId(0), Bandwidth::from_bus(CAPACITY));
                let mut model: BTreeMap<ConnectionId, ConnInfo> = BTreeMap::new();
                let check = |cell: &Cell, model: &BTreeMap<ConnectionId, ConnInfo>, step: &str| {
                    for &id in ids {
                        let id = ConnectionId(id);
                        assert_eq!(
                            cell.get(id),
                            model.get(&id),
                            "{name} {cycle} {step}: get {id:?}"
                        );
                    }
                    assert!(
                        cell.connections().eq(model.values()),
                        "{name} {cycle} {step}: order"
                    );
                    assert!(cell.check_invariants(), "{name} {cycle} {step}: invariants");
                };
                // Fill in a random order; odd cycles keep an arrival index
                // from the first connection on.
                let mut order = ids.clone();
                shuffle(&mut order);
                for (k, &id) in order.iter().enumerate() {
                    let c = ConnInfo {
                        prev: [None, Some(CellId(1))][k % 2],
                        ..info(id, 1, k as f64)
                    };
                    assert_eq!(cell.insert(c), Ok(()), "{name} {cycle}: insert {id}");
                    model.insert(c.id, c);
                    assert_eq!(
                        cell.insert(c),
                        Err(CellError::DuplicateConnection),
                        "{name} {cycle}: reinsert {id}"
                    );
                    if k == 0 && cycle % 2 == 1 {
                        cell.arrivals();
                    }
                    check(&cell, &model, &format!("insert {k}"));
                }
                assert_eq!(
                    cell.insert(info(u64::MAX, 1, 0.0)),
                    Err(CellError::InsufficientCapacity),
                    "{name} {cycle}: full"
                );
                check(&cell, &model, "full");
                // Drain in another random order.
                shuffle(&mut order);
                for (k, &id) in order.iter().enumerate() {
                    let id = ConnectionId(id);
                    assert_eq!(
                        cell.remove(id),
                        Ok(model[&id]),
                        "{name} {cycle}: remove {id:?}"
                    );
                    model.remove(&id);
                    assert_eq!(
                        cell.remove(id),
                        Err(CellError::UnknownConnection),
                        "{name} {cycle}: remove {id:?} again"
                    );
                    check(&cell, &model, &format!("remove {k}"));
                }
                assert_eq!(cell.used(), Bandwidth::ZERO, "{name} {cycle}");
            }
        }
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
