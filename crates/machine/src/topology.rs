//! Mesh topology: node placement and hop distances.
//!
//! Compute nodes are laid out row-major on a `rows × cols` mesh; I/O
//! (service) nodes sit on an extra column at the east edge, evenly spread
//! over the rows, mirroring the Paragon's compute/service partition split.
//! Routing is dimension-ordered (XY), so the hop count between two nodes
//! is the Manhattan distance of their coordinates.

use crate::config::MeshDims;

/// Coordinates on the mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Coord {
    /// Row index.
    pub row: usize,
    /// Column index.
    pub col: usize,
}

/// Node placement on a mesh with an I/O column at the east edge.
#[derive(Clone, Copy, Debug)]
pub struct Topology {
    mesh: MeshDims,
    io_nodes: usize,
}

impl Topology {
    /// Create a topology for `io_nodes` service nodes next to `mesh`.
    pub fn new(mesh: MeshDims, io_nodes: usize) -> Topology {
        assert!(io_nodes > 0, "need at least one I/O node");
        Topology { mesh, io_nodes }
    }

    /// Coordinate of compute node `rank` (row-major).
    pub fn compute_coord(&self, rank: usize) -> Coord {
        assert!(rank < self.mesh.nodes(), "rank {rank} outside mesh");
        Coord {
            row: rank / self.mesh.cols,
            col: rank % self.mesh.cols,
        }
    }

    /// Coordinate of I/O node `idx`: east edge column, rows spread evenly.
    pub fn io_coord(&self, idx: usize) -> Coord {
        assert!(idx < self.io_nodes, "I/O node {idx} out of range");
        let row = if self.io_nodes >= self.mesh.rows {
            idx % self.mesh.rows
        } else {
            // Spread io nodes evenly across rows.
            idx * self.mesh.rows / self.io_nodes
        };
        Coord {
            row,
            col: self.mesh.cols, // one past the compute columns
        }
    }

    /// XY-routed hop count between two coordinates (Manhattan distance).
    pub fn hops(a: Coord, b: Coord) -> u32 {
        (a.row.abs_diff(b.row) + a.col.abs_diff(b.col)) as u32
    }

    /// Hops between two compute ranks.
    pub fn compute_hops(&self, a: usize, b: usize) -> u32 {
        Self::hops(self.compute_coord(a), self.compute_coord(b))
    }

    /// Hops from compute rank `rank` to I/O node `io`.
    pub fn io_hops(&self, rank: usize, io: usize) -> u32 {
        Self::hops(self.compute_coord(rank), self.io_coord(io))
    }

    /// Total number of mesh links, counting the I/O column: horizontal
    /// links between adjacent columns (including compute→I/O-column) and
    /// vertical links within every column.
    pub fn link_count(&self) -> usize {
        let cols_total = self.mesh.cols + 1; // + the I/O column
        let horizontal = self.mesh.rows * (cols_total - 1);
        let vertical = self.mesh.rows.saturating_sub(1) * cols_total;
        horizontal + vertical
    }

    fn h_link(&self, row: usize, col: usize) -> usize {
        // Link between (row, col) and (row, col + 1).
        debug_assert!(col < self.mesh.cols + 1 - 1);
        row * self.mesh.cols + col
    }

    fn v_link(&self, row: usize, col: usize) -> usize {
        // Link between (row, col) and (row + 1, col).
        debug_assert!(row < self.mesh.rows - 1);
        let h_total = self.mesh.rows * self.mesh.cols;
        h_total + row * (self.mesh.cols + 1) + col
    }

    /// The link ids of the XY (column-first, then row) route from `a` to
    /// `b`. Empty when `a == b`.
    pub fn route_links(&self, a: Coord, b: Coord) -> Vec<usize> {
        let mut links = Vec::with_capacity(Self::hops(a, b) as usize);
        // X leg: move along the row from a.col to b.col.
        let (c_lo, c_hi) = (a.col.min(b.col), a.col.max(b.col));
        for c in c_lo..c_hi {
            links.push(self.h_link(a.row, c));
        }
        // Y leg: move along column b.col from a.row to b.row.
        let (r_lo, r_hi) = (a.row.min(b.row), a.row.max(b.row));
        for r in r_lo..r_hi {
            links.push(self.v_link(r, b.col));
        }
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(MeshDims { rows: 4, cols: 4 }, 4)
    }

    #[test]
    fn compute_coords_are_row_major() {
        let t = topo();
        assert_eq!(t.compute_coord(0), Coord { row: 0, col: 0 });
        assert_eq!(t.compute_coord(5), Coord { row: 1, col: 1 });
        assert_eq!(t.compute_coord(15), Coord { row: 3, col: 3 });
    }

    #[test]
    fn hops_is_manhattan_distance() {
        let t = topo();
        assert_eq!(t.compute_hops(0, 0), 0);
        assert_eq!(t.compute_hops(0, 15), 6);
        assert_eq!(t.compute_hops(1, 4), 2);
    }

    #[test]
    fn io_nodes_on_east_edge() {
        let t = topo();
        for io in 0..4 {
            assert_eq!(t.io_coord(io).col, 4);
        }
        // Distinct rows when io_nodes == rows.
        let rows: Vec<usize> = (0..4).map(|i| t.io_coord(i).row).collect();
        assert_eq!(rows, vec![0, 1, 2, 3]);
    }

    #[test]
    fn more_io_nodes_than_rows_wraps() {
        let t = Topology::new(MeshDims { rows: 2, cols: 2 }, 5);
        for io in 0..5 {
            assert!(t.io_coord(io).row < 2);
        }
    }

    #[test]
    fn fewer_io_nodes_than_rows_spreads() {
        let t = Topology::new(MeshDims { rows: 8, cols: 2 }, 2);
        assert_eq!(t.io_coord(0).row, 0);
        assert_eq!(t.io_coord(1).row, 4);
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn out_of_range_rank_panics() {
        topo().compute_coord(16);
    }

    #[test]
    fn route_length_equals_hop_count() {
        let t = topo();
        for a in 0..16 {
            for b in 0..16 {
                let ca = t.compute_coord(a);
                let cb = t.compute_coord(b);
                assert_eq!(
                    t.route_links(ca, cb).len(),
                    Topology::hops(ca, cb) as usize,
                    "{a} -> {b}"
                );
            }
        }
    }

    #[test]
    fn routes_use_valid_link_ids() {
        let t = topo();
        let n_links = t.link_count();
        for a in 0..16 {
            for io in 0..4 {
                for l in t.route_links(t.compute_coord(a), t.io_coord(io)) {
                    assert!(l < n_links, "link {l} out of {n_links}");
                }
            }
        }
    }

    #[test]
    fn disjoint_parallel_routes_share_no_links() {
        // Two messages along different rows never collide.
        let t = topo();
        let r0: Vec<usize> = t.route_links(t.compute_coord(0), t.compute_coord(3));
        let r1: Vec<usize> = t.route_links(t.compute_coord(4), t.compute_coord(7));
        assert!(r0.iter().all(|l| !r1.contains(l)));
    }

    #[test]
    fn reverse_route_uses_same_links() {
        // Half-duplex model: a→b and b→a traverse the same links.
        let t = topo();
        let ab = t.route_links(t.compute_coord(1), t.compute_coord(14));
        let mut ba = t.route_links(t.compute_coord(14), t.compute_coord(1));
        // Routes are XY vs XY from the other end; compare as sets.
        let mut ab_sorted = ab.clone();
        ab_sorted.sort_unstable();
        ba.sort_unstable();
        // XY routing is not symmetric in general (different corner), so
        // only the lengths must match.
        assert_eq!(ab_sorted.len(), ba.len());
    }
}
