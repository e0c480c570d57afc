//! Hexagonal 2-D cell grids (paper Fig. 2b; the Section 7 extension).
//!
//! The paper evaluates a 1-D road but indexes two-dimensional cellular
//! structures with six neighbors per cell and names them as planned future
//! work. [`HexGrid`] provides the coordinate layer for that extension:
//! "odd-r" offset coordinates (odd rows shifted right), six named
//! directions, and direction-based neighbor lookup so a mobile with a
//! persistent heading can be walked across the grid. The adjacency agrees
//! with [`crate::Topology::hex_grid`] (tested).

use crate::ids::CellId;
use crate::topology::Topology;

/// The six hexagonal travel directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HexDir {
    /// East.
    E,
    /// North-east.
    Ne,
    /// North-west.
    Nw,
    /// West.
    W,
    /// South-west.
    Sw,
    /// South-east.
    Se,
}

impl HexDir {
    /// All six directions, counter-clockwise from east.
    pub const ALL: [HexDir; 6] = [
        HexDir::E,
        HexDir::Ne,
        HexDir::Nw,
        HexDir::W,
        HexDir::Sw,
        HexDir::Se,
    ];

    /// Index in `[0, 6)` (counter-clockwise from east).
    pub fn index(self) -> u8 {
        match self {
            HexDir::E => 0,
            HexDir::Ne => 1,
            HexDir::Nw => 2,
            HexDir::W => 3,
            HexDir::Sw => 4,
            HexDir::Se => 5,
        }
    }

    /// Direction from an index (mod 6).
    pub fn from_index(i: u8) -> HexDir {
        Self::ALL[(i % 6) as usize]
    }

    /// The opposite direction.
    pub fn reversed(self) -> HexDir {
        Self::from_index(self.index() + 3)
    }

    /// Rotated by `steps` sixths of a turn (counter-clockwise).
    pub fn rotated(self, steps: u8) -> HexDir {
        Self::from_index(self.index() + steps)
    }
}

/// A `rows × cols` hexagonal grid in odd-r offset coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HexGrid {
    rows: usize,
    cols: usize,
}

impl HexGrid {
    /// Creates a grid.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1, "grid must be non-empty");
        HexGrid { rows, cols }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total cells.
    pub fn num_cells(&self) -> usize {
        self.rows * self.cols
    }

    /// The cell at `(row, col)`.
    pub fn cell(&self, row: usize, col: usize) -> CellId {
        assert!(row < self.rows && col < self.cols, "coords out of range");
        CellId((row * self.cols + col) as u32)
    }

    /// The `(row, col)` of a cell.
    pub fn coords(&self, cell: CellId) -> (usize, usize) {
        let i = cell.index();
        assert!(i < self.num_cells(), "cell out of range");
        (i / self.cols, i % self.cols)
    }

    /// The neighbor in direction `dir`, or `None` at the grid edge.
    pub fn neighbor(&self, cell: CellId, dir: HexDir) -> Option<CellId> {
        let (r, c) = self.coords(cell);
        let (r, c) = (r as i64, c as i64);
        let odd = r % 2 != 0;
        let (nr, nc) = match (dir, odd) {
            (HexDir::E, _) => (r, c + 1),
            (HexDir::W, _) => (r, c - 1),
            (HexDir::Ne, false) => (r - 1, c),
            (HexDir::Nw, false) => (r - 1, c - 1),
            (HexDir::Ne, true) => (r - 1, c + 1),
            (HexDir::Nw, true) => (r - 1, c),
            (HexDir::Se, false) => (r + 1, c),
            (HexDir::Sw, false) => (r + 1, c - 1),
            (HexDir::Se, true) => (r + 1, c + 1),
            (HexDir::Sw, true) => (r + 1, c),
        };
        if (0..self.rows as i64).contains(&nr) && (0..self.cols as i64).contains(&nc) {
            Some(self.cell(nr as usize, nc as usize))
        } else {
            None
        }
    }

    /// The adjacency graph of this grid (same edges as
    /// [`Topology::hex_grid`]).
    pub fn topology(&self) -> Topology {
        Topology::hex_grid(self.rows, self.cols)
    }

    /// Rows of the metro-scale reference grid.
    pub const METRO_ROWS: usize = 32;
    /// Columns of the metro-scale reference grid.
    pub const METRO_COLS: usize = 32;

    /// The metro-scale reference grid: `32 × 32` = 1024 cells, the
    /// smallest square hex grid past the thousand-cell mark: the
    /// metro-scale scenario's topology.
    pub fn metro() -> Self {
        HexGrid::new(Self::METRO_ROWS, Self::METRO_COLS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coordinates_roundtrip() {
        let g = HexGrid::new(4, 5);
        for r in 0..4 {
            for c in 0..5 {
                assert_eq!(g.coords(g.cell(r, c)), (r, c));
            }
        }
        assert_eq!(g.num_cells(), 20);
    }

    #[test]
    fn direction_arithmetic() {
        assert_eq!(HexDir::E.reversed(), HexDir::W);
        assert_eq!(HexDir::Ne.reversed(), HexDir::Sw);
        assert_eq!(HexDir::E.rotated(1), HexDir::Ne);
        assert_eq!(HexDir::Se.rotated(1), HexDir::E);
        for d in HexDir::ALL {
            assert_eq!(HexDir::from_index(d.index()), d);
            assert_eq!(d.reversed().reversed(), d);
        }
    }

    #[test]
    fn interior_cell_has_six_distinct_neighbors() {
        let g = HexGrid::new(5, 5);
        let center = g.cell(2, 2);
        let mut neighbors: Vec<CellId> = HexDir::ALL
            .iter()
            .filter_map(|&d| g.neighbor(center, d))
            .collect();
        assert_eq!(neighbors.len(), 6);
        neighbors.sort();
        neighbors.dedup();
        assert_eq!(neighbors.len(), 6, "all distinct");
    }

    #[test]
    fn edges_return_none() {
        let g = HexGrid::new(3, 3);
        assert_eq!(g.neighbor(g.cell(0, 0), HexDir::W), None);
        assert_eq!(g.neighbor(g.cell(0, 0), HexDir::Ne), None);
        assert_eq!(g.neighbor(g.cell(2, 2), HexDir::E), None);
        assert_eq!(g.neighbor(g.cell(2, 2), HexDir::Se), None);
    }

    #[test]
    fn walking_east_then_west_returns() {
        let g = HexGrid::new(3, 4);
        let start = g.cell(1, 1);
        let east = g.neighbor(start, HexDir::E).unwrap();
        assert_eq!(g.neighbor(east, HexDir::W), Some(start));
    }

    #[test]
    fn direction_neighbors_are_reciprocal() {
        let g = HexGrid::new(5, 6);
        for i in 0..g.num_cells() as u32 {
            let cell = CellId(i);
            for d in HexDir::ALL {
                if let Some(nb) = g.neighbor(cell, d) {
                    assert_eq!(
                        g.neighbor(nb, d.reversed()),
                        Some(cell),
                        "{cell} --{d:?}--> {nb} not reciprocal"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_topology_adjacency() {
        let g = HexGrid::new(4, 6);
        let topo = g.topology();
        for i in 0..g.num_cells() as u32 {
            let cell = CellId(i);
            let mut from_dirs: Vec<CellId> = HexDir::ALL
                .iter()
                .filter_map(|&d| g.neighbor(cell, d))
                .collect();
            from_dirs.sort();
            assert_eq!(
                from_dirs.as_slice(),
                topo.neighbors(cell),
                "direction-based and edge-based adjacency disagree at {cell}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_coords_rejected() {
        HexGrid::new(2, 2).cell(2, 0);
    }

    #[test]
    fn metro_grid_is_1024_cells_with_consistent_adjacency() {
        let g = HexGrid::metro();
        assert_eq!(g.num_cells(), 1024);
        assert!(g.num_cells() >= 1024, "metro preset must reach metro scale");
        let topo = g.topology();
        assert_eq!(topo.num_cells(), 1024);
        // Interior cells keep the full six-neighbor hex structure.
        let center = g.cell(16, 16);
        assert_eq!(topo.neighbors(center).len(), 6);
    }
}
