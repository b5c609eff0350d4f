//! The 2-D lattice of SOM units.
//!
//! Each unit has a *location vector* `r_i` on the map plane (the paper's
//! Figure 1). The distance `||r_c - r_i||` between locations drives the
//! neighborhood kernel during training.

use serde::{Deserialize, Serialize};

/// The lattice arrangement of units.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
#[derive(Default)]
pub enum GridTopology {
    /// Square lattice; location vectors are integer `(x, y)` coordinates.
    #[default]
    Rectangular,
    /// Hexagonal lattice; odd rows are shifted by half a unit and rows are
    /// `sqrt(3)/2` apart, so each unit has six equidistant neighbors.
    Hexagonal,
    /// Square lattice with wrap-around edges: unit distances are computed
    /// on the torus, eliminating the border effect (edge units otherwise
    /// have fewer neighbors and attract outliers). Note that the *location
    /// vectors* exposed to downstream clustering are still planar
    /// coordinates, so the clustering stage keeps its Euclidean metric.
    Toroidal,
}

/// A fixed `width x height` lattice of SOM units.
///
/// Units are indexed row-major: unit `i` sits at column `i % width`, row
/// `i / width`.
///
/// # Example
///
/// ```
/// use hiermeans_som::{Grid, GridTopology};
///
/// let g = Grid::new(8, 8, GridTopology::Rectangular);
/// assert_eq!(g.len(), 64);
/// assert_eq!(g.coords(9), (1, 1));
/// assert!((g.unit_distance(0, 9) - 2f64.sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Grid {
    width: usize,
    height: usize,
    topology: GridTopology,
}

impl Grid {
    /// Creates a `width x height` grid.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero; construct grids through
    /// [`crate::SomBuilder`] for a fallible interface.
    pub fn new(width: usize, height: usize, topology: GridTopology) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be positive");
        Grid {
            width,
            height,
            topology,
        }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn height(&self) -> usize {
        self.height
    }

    /// The lattice arrangement.
    pub fn topology(&self) -> GridTopology {
        self.topology
    }

    /// Total number of units.
    pub fn len(&self) -> usize {
        self.width * self.height
    }

    /// Returns `true` if the grid has no units (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Integer `(column, row)` coordinates of unit `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn coords(&self, index: usize) -> (usize, usize) {
        assert!(index < self.len(), "unit index out of bounds");
        (index % self.width, index / self.width)
    }

    /// Unit index at integer `(column, row)` coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are outside the grid.
    pub fn index(&self, col: usize, row: usize) -> usize {
        assert!(
            col < self.width && row < self.height,
            "coords out of bounds"
        );
        row * self.width + col
    }

    /// The location vector `r_i` of unit `index` on the map plane.
    pub fn location(&self, index: usize) -> [f64; 2] {
        let (col, row) = self.coords(index);
        let (shift, y) = self.row_frame(row);
        [col as f64 + shift, y]
    }

    /// The `x` shift and the `y` coordinate shared by every unit of lattice
    /// row `row`: unit `(col, row)` sits at `[col + shift, y]`. Hexagonal
    /// grids shift odd rows by half a unit and space rows `sqrt(3)/2` apart.
    fn row_frame(&self, row: usize) -> (f64, f64) {
        match self.topology {
            GridTopology::Rectangular | GridTopology::Toroidal => (0.0, row as f64),
            GridTopology::Hexagonal => {
                let shift = if row % 2 == 1 { 0.5 } else { 0.0 };
                (shift, row as f64 * (3.0f64.sqrt() / 2.0))
            }
        }
    }

    /// Distance between the location vectors of two units: Euclidean, except
    /// on the torus, where each axis wraps around the grid edge.
    pub fn unit_distance(&self, a: usize, b: usize) -> f64 {
        self.separation(self.location(a), self.location(b))
    }

    /// Writes the distance from unit `from` to every unit into `out`, in
    /// unit order: `out[u]` equals [`Grid::unit_distance`]`(from, u)` bit
    /// for bit. The row-by-row loop needs no per-unit index division.
    ///
    /// # Panics
    ///
    /// Panics if `from >= len()` or `out.len() != len()`.
    pub fn distances_from(&self, from: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.len(), "distance row length");
        let ra = self.location(from);
        for (row, units) in out.chunks_exact_mut(self.width).enumerate() {
            let (shift, y) = self.row_frame(row);
            for (col, o) in units.iter_mut().enumerate() {
                *o = self.separation(ra, [col as f64 + shift, y]);
            }
        }
    }

    /// The distance between two map-plane locations under the topology.
    fn separation(&self, ra: [f64; 2], rb: [f64; 2]) -> f64 {
        let mut dx = (ra[0] - rb[0]).abs();
        let mut dy = (ra[1] - rb[1]).abs();
        if self.topology == GridTopology::Toroidal {
            dx = dx.min(self.width as f64 - dx);
            dy = dy.min(self.height as f64 - dy);
        }
        (dx * dx + dy * dy).sqrt()
    }

    /// Indices of the immediate lattice neighbors of `index`.
    ///
    /// For rectangular grids these are the 4-connected neighbors; for
    /// hexagonal grids the (up to) 6 adjacent cells; on the torus the
    /// wrap-around 4-connected neighbors, sorted and without repeats.
    pub fn neighbors(&self, index: usize) -> Vec<usize> {
        let (units, len) = self.neighbor_list(index);
        let mut out = units[..len].to_vec();
        if self.topology == GridTopology::Toroidal {
            out.sort_unstable();
            out.dedup();
        }
        out
    }

    /// Returns `true` if units `a` and `b` are immediate lattice neighbors.
    /// Every map-quality row asks this, so it reads [`Grid::neighbors`]'s
    /// list without allocating.
    pub fn are_neighbors(&self, a: usize, b: usize) -> bool {
        let (units, len) = self.neighbor_list(a);
        units[..len].contains(&b)
    }

    /// The lattice neighbors of `index` as a fixed-size list: its first
    /// `len` entries, in candidate order. Off-grid candidates are dropped;
    /// on the torus candidates wrap around, one that wraps onto `index`
    /// itself (a grid one unit wide or tall) is dropped, and on grids two
    /// units wide or tall two candidates can name the same unit.
    fn neighbor_list(&self, index: usize) -> ([usize; 6], usize) {
        let (col, row) = self.coords(index);
        let (c, r) = (col as isize, row as isize);
        let (w, h) = (self.width as isize, self.height as isize);
        let mut units = [0; 6];
        let mut len = 0;
        let mut push = |(cc, rr): (isize, isize)| {
            let unit = if self.topology == GridTopology::Toroidal {
                self.index(cc.rem_euclid(w) as usize, rr.rem_euclid(h) as usize)
            } else if (0..w).contains(&cc) && (0..h).contains(&rr) {
                self.index(cc as usize, rr as usize)
            } else {
                return;
            };
            if unit != index {
                units[len] = unit;
                len += 1;
            }
        };
        match self.topology {
            GridTopology::Rectangular | GridTopology::Toroidal => {
                [(c - 1, r), (c + 1, r), (c, r - 1), (c, r + 1)]
                    .into_iter()
                    .for_each(&mut push);
            }
            // Offset coordinates: odd rows are shifted right.
            GridTopology::Hexagonal if row % 2 == 0 => {
                [
                    (c - 1, r),
                    (c + 1, r),
                    (c - 1, r - 1),
                    (c, r - 1),
                    (c - 1, r + 1),
                    (c, r + 1),
                ]
                .into_iter()
                .for_each(&mut push);
            }
            GridTopology::Hexagonal => {
                [
                    (c - 1, r),
                    (c + 1, r),
                    (c, r - 1),
                    (c + 1, r - 1),
                    (c, r + 1),
                    (c + 1, r + 1),
                ]
                .into_iter()
                .for_each(&mut push);
            }
        }
        (units, len)
    }

    /// The longest distance between any two unit locations (the map
    /// "diameter"), used to pick initial neighborhood radii. On the torus
    /// this is half the wrap-around extent per axis.
    pub fn diameter(&self) -> f64 {
        if self.topology == GridTopology::Toroidal {
            let dx = self.width as f64 / 2.0;
            let dy = self.height as f64 / 2.0;
            return (dx * dx + dy * dy).sqrt();
        }
        self.unit_distance(0, self.len() - 1)
            .max(self.unit_distance(
                self.index(self.width - 1, 0),
                self.index(0, self.height - 1),
            ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let g = Grid::new(5, 3, GridTopology::Rectangular);
        for i in 0..g.len() {
            let (c, r) = g.coords(i);
            assert_eq!(g.index(c, r), i);
        }
    }

    #[test]
    fn rectangular_distances() {
        let g = Grid::new(4, 4, GridTopology::Rectangular);
        assert_eq!(g.unit_distance(0, 1), 1.0);
        assert_eq!(g.unit_distance(0, 4), 1.0);
        assert!((g.unit_distance(0, 5) - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(g.unit_distance(2, 2), 0.0);
    }

    #[test]
    fn hexagonal_neighbors_equidistant() {
        let g = Grid::new(5, 5, GridTopology::Hexagonal);
        let center = g.index(2, 2);
        let ns = g.neighbors(center);
        assert_eq!(ns.len(), 6);
        for n in ns {
            assert!((g.unit_distance(center, n) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn rectangular_neighbors_edge_cases() {
        let g = Grid::new(3, 3, GridTopology::Rectangular);
        assert_eq!(g.neighbors(0).len(), 2); // corner
        assert_eq!(g.neighbors(1).len(), 3); // edge
        assert_eq!(g.neighbors(4).len(), 4); // center
    }

    #[test]
    fn are_neighbors_symmetric() {
        for topo in [
            GridTopology::Rectangular,
            GridTopology::Hexagonal,
            GridTopology::Toroidal,
        ] {
            for (w, h) in [(4, 4), (1, 5), (5, 1), (2, 2), (3, 3), (5, 4), (1, 1)] {
                let g = Grid::new(w, h, topo);
                for a in 0..g.len() {
                    let ns = g.neighbors(a);
                    for b in 0..g.len() {
                        let case = format!("{topo:?} {w}x{h} {a} {b}");
                        assert_eq!(g.are_neighbors(a, b), g.are_neighbors(b, a), "{case}");
                        assert_eq!(g.are_neighbors(a, b), ns.contains(&b), "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn diameter_positive() {
        let g = Grid::new(8, 8, GridTopology::Rectangular);
        assert!(g.diameter() >= 7.0);
    }

    #[test]
    #[should_panic(expected = "grid dimensions must be positive")]
    fn zero_width_panics() {
        let _ = Grid::new(0, 3, GridTopology::Rectangular);
    }

    #[test]
    #[should_panic(expected = "unit index out of bounds")]
    fn coords_out_of_bounds_panics() {
        let g = Grid::new(2, 2, GridTopology::Rectangular);
        let _ = g.coords(4);
    }

    #[test]
    fn default_topology_is_rectangular() {
        assert_eq!(GridTopology::default(), GridTopology::Rectangular);
    }

    #[test]
    fn toroidal_distances_wrap() {
        let g = Grid::new(6, 6, GridTopology::Toroidal);
        // Opposite edges are one step apart on the torus.
        assert_eq!(g.unit_distance(g.index(0, 0), g.index(5, 0)), 1.0);
        assert_eq!(g.unit_distance(g.index(0, 0), g.index(0, 5)), 1.0);
        // The farthest point is the center of the torus.
        assert!((g.unit_distance(g.index(0, 0), g.index(3, 3)) - 18f64.sqrt()).abs() < 1e-12);
        assert!((g.diameter() - 18f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn toroidal_every_unit_has_four_neighbors() {
        let g = Grid::new(5, 4, GridTopology::Toroidal);
        for u in 0..g.len() {
            assert_eq!(g.neighbors(u).len(), 4, "unit {u}");
        }
        // Corners wrap to the opposite edges.
        let corner = g.index(0, 0);
        let ns = g.neighbors(corner);
        assert!(ns.contains(&g.index(4, 0)));
        assert!(ns.contains(&g.index(0, 3)));
    }

    #[test]
    fn toroidal_neighbors_symmetric_and_dedup() {
        let g = Grid::new(2, 2, GridTopology::Toroidal);
        for a in 0..g.len() {
            let ns = g.neighbors(a);
            // 2x2 torus: left/right wrap collide, so only 2 distinct.
            assert_eq!(ns.len(), 2, "unit {a}: {ns:?}");
            for b in ns {
                assert!(g.neighbors(b).contains(&a));
            }
        }
    }

    #[test]
    fn distances_from_equal_unit_distance_bitwise() {
        for topology in [
            GridTopology::Rectangular,
            GridTopology::Hexagonal,
            GridTopology::Toroidal,
        ] {
            for (w, h) in [(1, 1), (5, 3), (4, 7), (10, 10)] {
                let g = Grid::new(w, h, topology);
                let mut row = vec![f64::NAN; g.len()];
                for from in 0..g.len() {
                    g.distances_from(from, &mut row);
                    for (u, &d) in row.iter().enumerate() {
                        assert_eq!(
                            d.to_bits(),
                            g.unit_distance(from, u).to_bits(),
                            "{topology:?} {w}x{h} {from}->{u}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hex_row_spacing() {
        let g = Grid::new(3, 3, GridTopology::Hexagonal);
        let a = g.location(g.index(0, 0));
        let b = g.location(g.index(0, 2));
        assert!((b[1] - a[1] - 3.0f64.sqrt()).abs() < 1e-12);
    }
}
