//! 1-D road geometry.
//!
//! The evaluation environment (Section 5.1): "mobiles are traveling along a
//! straight road (e.g., cars on a highway)" through 10 linearly-arranged
//! cells of 1 km diameter each (A1), appearing anywhere in a cell with equal
//! probability (A2), moving in either direction at a constant speed drawn
//! from `[SP_min, SP_max]` km/h, never turning around (A4).
//!
//! [`RoadGeometry`] answers the two questions the simulator needs:
//! *when does a mobile at position `x` moving at speed `v` hit its next cell
//! boundary?* and *which cell is on the other side?* (possibly none, when a
//! mobile exits a non-ring border — Table 3's disconnected configuration).

use qres_des::Duration;

use crate::ids::CellId;

/// Travel direction along the road.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Toward increasing cell indices (cell 1 → cell 10 in the paper).
    Up,
    /// Toward decreasing cell indices.
    Down,
}

impl Direction {
    /// +1.0 for `Up`, −1.0 for `Down`.
    pub fn sign(self) -> f64 {
        match self {
            Direction::Up => 1.0,
            Direction::Down => -1.0,
        }
    }

    /// The opposite direction.
    pub fn reversed(self) -> Direction {
        match self {
            Direction::Up => Direction::Down,
            Direction::Down => Direction::Up,
        }
    }
}

/// Geometry of a straight road segmented into equal-diameter cells,
/// optionally closed into a ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadGeometry {
    num_cells: usize,
    diameter_km: f64,
    ring: bool,
}

impl RoadGeometry {
    /// Creates a road of `num_cells` cells, each `diameter_km` long.
    /// `ring` connects the two border cells (Section 5.1's default).
    pub fn new(num_cells: usize, diameter_km: f64, ring: bool) -> Self {
        assert!(num_cells >= 1, "road needs at least one cell");
        assert!(diameter_km > 0.0, "cell diameter must be positive");
        RoadGeometry {
            num_cells,
            diameter_km,
            ring,
        }
    }

    /// The paper's configuration: 10 cells × 1 km, ring-connected.
    pub fn paper_default() -> Self {
        Self::new(10, 1.0, true)
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.num_cells
    }

    /// Cell diameter in km.
    pub fn diameter_km(&self) -> f64 {
        self.diameter_km
    }

    /// Total road length in km.
    pub fn total_length_km(&self) -> f64 {
        self.num_cells as f64 * self.diameter_km
    }

    /// The cell containing global position `pos_km ∈ [0, total_length)`.
    pub fn cell_of(&self, pos_km: f64) -> CellId {
        assert!(
            (0.0..self.total_length_km()).contains(&pos_km),
            "position {pos_km} outside road [0, {})",
            self.total_length_km()
        );
        CellId((pos_km / self.diameter_km) as u32)
    }

    /// Global position of a point inside `cell` at fraction
    /// `frac ∈ [0, 1)` of the cell (A2 samples `frac` uniformly).
    pub fn position_in_cell(&self, cell: CellId, frac: f64) -> f64 {
        assert!((0.0..1.0).contains(&frac), "fraction must be in [0,1)");
        assert!(cell.index() < self.num_cells, "cell out of range");
        (cell.index() as f64 + frac) * self.diameter_km
    }

    /// Distance (km) from `pos_km` to the boundary of its cell in `dir`.
    pub fn distance_to_boundary(&self, pos_km: f64, dir: Direction) -> f64 {
        let cell = self.cell_of(pos_km);
        let lo = cell.index() as f64 * self.diameter_km;
        let hi = lo + self.diameter_km;
        match dir {
            Direction::Up => hi - pos_km,
            Direction::Down => pos_km - lo,
        }
    }

    /// Travel time to the next cell boundary at `speed_kmh`.
    ///
    /// A mobile sitting exactly on its lower boundary moving down (or any
    /// boundary ahead of it) gets a strictly positive crossing time only if
    /// the distance is positive; a zero distance means an immediate
    /// crossing, which the simulator schedules at `now` (FIFO ordering keeps
    /// this sound).
    pub fn time_to_boundary(&self, pos_km: f64, speed_kmh: f64, dir: Direction) -> Duration {
        assert!(speed_kmh > 0.0, "speed must be positive");
        let dist = self.distance_to_boundary(pos_km, dir);
        Duration::from_secs(dist / speed_kmh * 3_600.0)
    }

    /// Time to cross one full cell at `speed_kmh` — the sojourn of a mobile
    /// that enters at a boundary and runs straight through.
    pub fn full_crossing_time(&self, speed_kmh: f64) -> Duration {
        assert!(speed_kmh > 0.0, "speed must be positive");
        Duration::from_secs(self.diameter_km / speed_kmh * 3_600.0)
    }

    /// The cell entered when leaving `cell` in direction `dir`; `None` when
    /// the mobile exits the system at a non-ring border.
    pub fn next_cell(&self, cell: CellId, dir: Direction) -> Option<CellId> {
        assert!(cell.index() < self.num_cells, "cell out of range");
        let n = self.num_cells as i64;
        let next = cell.index() as i64 + dir.sign() as i64;
        if (0..n).contains(&next) {
            Some(CellId(next as u32))
        } else if self.ring {
            Some(CellId(next.rem_euclid(n) as u32))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn road() -> RoadGeometry {
        RoadGeometry::paper_default()
    }

    #[test]
    fn paper_default_dimensions() {
        let r = road();
        assert_eq!(r.num_cells(), 10);
        assert_eq!(r.diameter_km(), 1.0);
        assert_eq!(r.total_length_km(), 10.0);
    }

    #[test]
    fn cell_of_position() {
        let r = road();
        assert_eq!(r.cell_of(0.0), CellId(0));
        assert_eq!(r.cell_of(0.999), CellId(0));
        assert_eq!(r.cell_of(1.0), CellId(1));
        assert_eq!(r.cell_of(9.5), CellId(9));
    }

    #[test]
    #[should_panic(expected = "outside road")]
    fn out_of_range_position_panics() {
        let _ = road().cell_of(10.0);
    }

    #[test]
    fn position_in_cell_roundtrips() {
        let r = road();
        let pos = r.position_in_cell(CellId(3), 0.25);
        assert_eq!(pos, 3.25);
        assert_eq!(r.cell_of(pos), CellId(3));
    }

    #[test]
    fn boundary_distances() {
        let r = road();
        assert_eq!(r.distance_to_boundary(3.25, Direction::Up), 0.75);
        assert_eq!(r.distance_to_boundary(3.25, Direction::Down), 0.25);
    }

    #[test]
    fn crossing_times() {
        let r = road();
        // 100 km/h over 0.5 km = 18 s.
        let t = r.time_to_boundary(3.5, 100.0, Direction::Up);
        assert!((t.as_secs() - 18.0).abs() < 1e-9);
        // A full 1 km cell at 120 km/h = 30 s; at 40 km/h = 90 s — the
        // paper's high/low mobility sojourn scales.
        assert!((r.full_crossing_time(120.0).as_secs() - 30.0).abs() < 1e-9);
        assert!((r.full_crossing_time(40.0).as_secs() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn ring_wraps_both_ways() {
        let r = road();
        assert_eq!(r.next_cell(CellId(9), Direction::Up), Some(CellId(0)));
        assert_eq!(r.next_cell(CellId(0), Direction::Down), Some(CellId(9)));
        assert_eq!(r.next_cell(CellId(4), Direction::Up), Some(CellId(5)));
    }

    #[test]
    fn linear_borders_exit() {
        let r = RoadGeometry::new(10, 1.0, false);
        assert_eq!(r.next_cell(CellId(9), Direction::Up), None);
        assert_eq!(r.next_cell(CellId(0), Direction::Down), None);
        assert_eq!(r.next_cell(CellId(0), Direction::Up), Some(CellId(1)));
    }

    #[test]
    fn direction_helpers() {
        assert_eq!(Direction::Up.sign(), 1.0);
        assert_eq!(Direction::Down.sign(), -1.0);
        assert_eq!(Direction::Up.reversed(), Direction::Down);
        assert_eq!(Direction::Down.reversed(), Direction::Up);
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_rejected() {
        let _ = road().full_crossing_time(0.0);
    }
}
