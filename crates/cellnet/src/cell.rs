//! Per-cell capacity bookkeeping.
//!
//! A [`Cell`] is the state a base station keeps about its wireless link:
//! the fixed FCA capacity `C(i)`, the bandwidth in use by existing
//! connections `Σ_j b(C_i,j)`, and a registry of those connections with the
//! attributes the mobility estimator and the reservation computation need —
//! each connection's bandwidth, the cell it came from (`prev`), and when it
//! entered the cell (from which the *extant sojourn time* `T_ext-soj` is
//! derived, Section 4.1).

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
}

impl Cell {
    /// Creates an empty cell with wireless link capacity `capacity`.
    pub fn new(id: CellId, capacity: Bandwidth) -> Self {
        Cell {
            id,
            capacity,
            used: Bandwidth::ZERO,
            conns: Vec::new(),
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
        Ok(())
    }

    /// Removes a connection, releasing its bandwidth. Returns its record.
    pub fn remove(&mut self, id: ConnectionId) -> Result<ConnInfo, CellError> {
        let at = self
            .position(id)
            .map_err(|_| CellError::UnknownConnection)?;
        let info = self.conns.remove(at);
        self.used -= info.bandwidth;
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

    /// Where `id` is in the registry (`Ok`), or where it would go (`Err`).
    fn position(&self, id: ConnectionId) -> Result<usize, usize> {
        self.conns.binary_search_by_key(&id, |c| c.id)
    }

    /// Internal invariant check: the registry is strictly id-ordered,
    /// `used` equals the sum of registered bandwidths and never exceeds
    /// capacity. Used by tests and debug assertions in the simulator.
    pub fn check_invariants(&self) -> bool {
        let sorted = self.conns.windows(2).all(|w| w[0].id < w[1].id);
        let sum: Bandwidth = self.conns.iter().map(|c| c.bandwidth).sum();
        sorted && sum == self.used && self.used <= self.capacity
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
                    let c = info(id.0, bw, step as f64);
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
