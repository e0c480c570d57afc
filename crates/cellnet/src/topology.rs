//! Cell adjacency.
//!
//! The paper indexes "all cells around each cell A" (Fig. 2): a linear road
//! where each interior cell has two neighbors (1-D, Fig. 2a) and a
//! hexagonal layout where each cell has six (2-D, Fig. 2b). The evaluation
//! uses 10 linearly-arranged cells whose border cells are artificially
//! connected into a **ring** (Section 5.1) — except the one-directional
//! experiment of Table 3, which disconnects them again.
//!
//! [`Topology`] is a precomputed adjacency structure; neighbor lists are
//! sorted, so iteration over `A_i` is deterministic.

use crate::ids::CellId;

/// A fixed cell-adjacency graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    adjacency: Vec<Vec<CellId>>,
}

impl Topology {
    /// Builds a topology from raw undirected edges over `num_cells` cells.
    ///
    /// Panics on out-of-range endpoints or self-loops; duplicate edges are
    /// collapsed.
    pub fn from_edges(num_cells: usize, edges: &[(u32, u32)]) -> Self {
        let mut adjacency = vec![Vec::new(); num_cells];
        for &(a, b) in edges {
            assert!(
                (a as usize) < num_cells && (b as usize) < num_cells,
                "edge ({a},{b}) out of range for {num_cells} cells"
            );
            assert_ne!(a, b, "self-loop on cell {a}");
            adjacency[a as usize].push(CellId(b));
            adjacency[b as usize].push(CellId(a));
        }
        for list in &mut adjacency {
            list.sort_unstable();
            list.dedup();
        }
        Topology { adjacency }
    }

    /// A linear road of `num_cells` cells: cell `i` adjacent to `i±1`
    /// (paper Fig. 2a, used by the Table 3 one-directional experiment).
    pub fn linear(num_cells: usize) -> Self {
        assert!(num_cells >= 1);
        let edges: Vec<(u32, u32)> = (0..num_cells.saturating_sub(1))
            .map(|i| (i as u32, i as u32 + 1))
            .collect();
        Self::from_edges(num_cells, &edges)
    }

    /// A linear road closed into a ring — the paper's main evaluation
    /// topology ("we connected two border cells … so the whole cellular
    /// system forms a ring", Section 5.1).
    pub fn ring(num_cells: usize) -> Self {
        assert!(
            num_cells >= 3,
            "a ring needs at least 3 cells to avoid duplicate edges"
        );
        let mut edges: Vec<(u32, u32)> = (0..num_cells - 1)
            .map(|i| (i as u32, i as u32 + 1))
            .collect();
        edges.push((num_cells as u32 - 1, 0));
        Self::from_edges(num_cells, &edges)
    }

    /// A hexagonal 2-D grid with `rows × cols` cells (paper Fig. 2b; the
    /// future-work extension of Section 7). Uses "odd-r" offset coordinates:
    /// odd rows are shifted right, giving each interior cell six neighbors.
    pub fn hex_grid(rows: usize, cols: usize) -> Self {
        assert!(rows >= 1 && cols >= 1);
        let idx = |r: usize, c: usize| (r * cols + c) as u32;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                // East neighbor.
                if c + 1 < cols {
                    edges.push((idx(r, c), idx(r, c + 1)));
                }
                if r + 1 < rows {
                    // Offsets of the two "south" neighbors depend on row
                    // parity in odd-r layout.
                    let (sw, se) = if r % 2 == 0 {
                        (c.checked_sub(1), Some(c))
                    } else {
                        (Some(c), (c + 1 < cols).then_some(c + 1))
                    };
                    if let Some(cc) = sw {
                        edges.push((idx(r, c), idx(r + 1, cc)));
                    }
                    if let Some(cc) = se {
                        edges.push((idx(r, c), idx(r + 1, cc)));
                    }
                }
            }
        }
        Self::from_edges(rows * cols, &edges)
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.adjacency.len()
    }

    /// All cell ids.
    pub fn cells(&self) -> impl Iterator<Item = CellId> + '_ {
        (0..self.adjacency.len() as u32).map(CellId)
    }

    /// The adjacent-cell set `A_i` of `cell`, sorted ascending.
    pub fn neighbors(&self, cell: CellId) -> &[CellId] {
        &self.adjacency[cell.index()]
    }

    /// Whether two distinct cells are adjacent.
    pub fn are_adjacent(&self, a: CellId, b: CellId) -> bool {
        self.adjacency[a.index()].binary_search(&b).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_endpoints_have_one_neighbor() {
        let t = Topology::linear(10);
        assert_eq!(t.num_cells(), 10);
        assert_eq!(t.neighbors(CellId(0)), &[CellId(1)]);
        assert_eq!(t.neighbors(CellId(9)), &[CellId(8)]);
        assert_eq!(t.neighbors(CellId(4)), &[CellId(3), CellId(5)]);
    }

    #[test]
    fn ring_closes_the_border() {
        let t = Topology::ring(10);
        assert_eq!(t.neighbors(CellId(0)), &[CellId(1), CellId(9)]);
        assert_eq!(t.neighbors(CellId(9)), &[CellId(0), CellId(8)]);
        assert!(t.are_adjacent(CellId(0), CellId(9)));
        assert!(!t.are_adjacent(CellId(0), CellId(5)));
        for c in t.cells() {
            assert_eq!(t.neighbors(c).len(), 2, "every ring cell has degree 2");
        }
    }

    #[test]
    fn single_cell_topology() {
        let t = Topology::linear(1);
        assert_eq!(t.num_cells(), 1);
        assert!(t.neighbors(CellId(0)).is_empty());
    }

    #[test]
    fn hex_interior_has_six_neighbors() {
        let t = Topology::hex_grid(5, 5);
        assert_eq!(t.num_cells(), 25);
        // Cell (2,2) = id 12 is interior.
        assert_eq!(t.neighbors(CellId(12)).len(), 6);
        // Corner (0,0) has fewer.
        assert!(t.neighbors(CellId(0)).len() <= 3);
    }

    #[test]
    fn hex_adjacency_is_symmetric() {
        let t = Topology::hex_grid(4, 6);
        for a in t.cells() {
            for &b in t.neighbors(a) {
                assert!(t.are_adjacent(b, a), "{a} -> {b} not symmetric");
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn duplicate_edges_collapse() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
        assert_eq!(t.neighbors(CellId(1)), &[CellId(0), CellId(2)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let _ = Topology::from_edges(3, &[(1, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        let _ = Topology::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn neighbors_are_sorted_for_determinism() {
        let t = Topology::from_edges(4, &[(2, 3), (2, 0), (2, 1)]);
        assert_eq!(t.neighbors(CellId(2)), &[CellId(0), CellId(1), CellId(3)]);
    }
}
