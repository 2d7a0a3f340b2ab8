//! Edge-capacity model and demand/congestion maps.
//!
//! The routing resource model is the standard global-routing grid graph:
//! each pair of horizontally adjacent G-cells is joined by a *horizontal
//! edge* (consuming horizontal tracks), each vertically adjacent pair by a
//! *vertical edge*. Wires crossing an edge consume one track of demand.
//!
//! The paper's labels are per-G-cell horizontal/vertical routing-demand
//! maps and their thresholded congestion masks; `EdgeField::to_gcell_map`
//! projects edge quantities onto G-cells by averaging a cell's incident
//! edges in the respective direction (boundary cells have one incident
//! edge).

use vlsi_netlist::{GcellCoord, GcellGrid};

/// Direction of a routing edge / demand channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Horizontal (east-west wires crossing vertical G-cell boundaries).
    H,
    /// Vertical (north-south wires crossing horizontal G-cell boundaries).
    V,
}

/// A scalar value per routing edge, separately for both directions.
///
/// Horizontal edges are indexed by `(x, y)` with `x ∈ 0..nx-1`, `y ∈ 0..ny`
/// and join G-cells `(x, y)` and `(x+1, y)`. Vertical edges are indexed by
/// `(x, y)` with `x ∈ 0..nx`, `y ∈ 0..ny-1` and join `(x, y)`/`(x, y+1)`.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeField {
    nx: usize,
    ny: usize,
    h: Vec<f32>,
    v: Vec<f32>,
}

impl EdgeField {
    /// Creates a zero field over the grid.
    pub fn zeros(grid: &GcellGrid) -> Self {
        let (nx, ny) = (grid.nx() as usize, grid.ny() as usize);
        Self { nx, ny, h: vec![0.0; (nx - 1) * ny], v: vec![0.0; nx * (ny - 1)] }
    }

    /// Creates a constant field over the grid.
    #[cfg(test)]
    pub(crate) fn constant(grid: &GcellGrid, h_value: f32, v_value: f32) -> Self {
        let mut f = Self::zeros(grid);
        f.h.iter_mut().for_each(|x| *x = h_value);
        f.v.iter_mut().for_each(|x| *x = v_value);
        f
    }

    /// Grid columns.
    pub(crate) fn nx(&self) -> usize {
        self.nx
    }

    /// Grid rows.
    pub(crate) fn ny(&self) -> usize {
        self.ny
    }

    fn h_idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.nx - 1 && y < self.ny, "h edge ({x},{y}) out of range");
        y * (self.nx - 1) + x
    }

    fn v_idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny - 1, "v edge ({x},{y}) out of range");
        y * self.nx + x
    }

    /// Value of the horizontal edge joining `(x, y)` and `(x+1, y)`.
    pub(crate) fn h(&self, x: usize, y: usize) -> f32 {
        self.h[self.h_idx(x, y)]
    }

    /// Value of the vertical edge joining `(x, y)` and `(x, y+1)`.
    pub(crate) fn v(&self, x: usize, y: usize) -> f32 {
        self.v[self.v_idx(x, y)]
    }

    /// Mutable horizontal edge value.
    pub(crate) fn h_mut(&mut self, x: usize, y: usize) -> &mut f32 {
        let i = self.h_idx(x, y);
        &mut self.h[i]
    }

    /// Mutable vertical edge value.
    pub(crate) fn v_mut(&mut self, x: usize, y: usize) -> &mut f32 {
        let i = self.v_idx(x, y);
        &mut self.v[i]
    }

    /// The edge between two adjacent G-cells, as `(direction, x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the cells are not 4-adjacent.
    pub(crate) fn edge_between(a: GcellCoord, b: GcellCoord) -> (Dir, usize, usize) {
        let dx = b.gx as i64 - a.gx as i64;
        let dy = b.gy as i64 - a.gy as i64;
        match (dx, dy) {
            (1, 0) => (Dir::H, a.gx as usize, a.gy as usize),
            (-1, 0) => (Dir::H, b.gx as usize, b.gy as usize),
            (0, 1) => (Dir::V, a.gx as usize, a.gy as usize),
            (0, -1) => (Dir::V, b.gx as usize, b.gy as usize),
            _ => panic!("g-cells {a:?} and {b:?} are not adjacent"),
        }
    }

    /// Value of the edge addressed by `EdgeField::edge_between`.
    pub(crate) fn get(&self, dir: Dir, x: usize, y: usize) -> f32 {
        match dir {
            Dir::H => self.h(x, y),
            Dir::V => self.v(x, y),
        }
    }

    /// Mutable value of the edge addressed by `EdgeField::edge_between`.
    pub(crate) fn get_mut(&mut self, dir: Dir, x: usize, y: usize) -> &mut f32 {
        match dir {
            Dir::H => self.h_mut(x, y),
            Dir::V => self.v_mut(x, y),
        }
    }

    /// Adds `delta` along a G-cell path (consecutive cells must be
    /// adjacent).
    ///
    /// # Panics
    ///
    /// Panics if consecutive path cells are not adjacent.
    pub fn add_path(&mut self, path: &[GcellCoord], delta: f32) {
        for w in path.windows(2) {
            let (dir, x, y) = Self::edge_between(w[0], w[1]);
            *self.get_mut(dir, x, y) += delta;
        }
    }

    /// Sum of all edge values in a direction.
    pub fn total(&self, dir: Dir) -> f32 {
        match dir {
            Dir::H => self.h.iter().sum(),
            Dir::V => self.v.iter().sum(),
        }
    }

    /// Number of edges where `self > other` (e.g. demand over capacity).
    pub(crate) fn count_exceeding(&self, other: &EdgeField) -> usize {
        assert_eq!((self.nx, self.ny), (other.nx, other.ny), "grid mismatch");
        self.h.iter().zip(&other.h).filter(|(a, b)| a > b).count()
            + self.v.iter().zip(&other.v).filter(|(a, b)| a > b).count()
    }

    /// Total overflow `Σ max(0, self - other)` over both directions.
    pub(crate) fn total_overflow(&self, other: &EdgeField) -> f32 {
        assert_eq!((self.nx, self.ny), (other.nx, other.ny), "grid mismatch");
        self.h.iter().zip(&other.h).map(|(a, b)| (a - b).max(0.0)).sum::<f32>()
            + self.v.iter().zip(&other.v).map(|(a, b)| (a - b).max(0.0)).sum::<f32>()
    }

    /// Projects the field onto G-cells: per cell, the mean over its
    /// incident edges in the given direction (1 edge on the boundary, 2
    /// inside). Returns a row-major `ny × nx` vector.
    pub(crate) fn to_gcell_map(&self, dir: Dir) -> Vec<f32> {
        let mut out = vec![0.0f32; self.nx * self.ny];
        match dir {
            Dir::H => {
                for y in 0..self.ny {
                    for x in 0..self.nx {
                        let mut acc = 0.0;
                        let mut cnt = 0.0;
                        if x > 0 {
                            acc += self.h(x - 1, y);
                            cnt += 1.0;
                        }
                        if x + 1 < self.nx {
                            acc += self.h(x, y);
                            cnt += 1.0;
                        }
                        out[y * self.nx + x] = if cnt > 0.0 { acc / cnt } else { 0.0 };
                    }
                }
            }
            Dir::V => {
                for y in 0..self.ny {
                    for x in 0..self.nx {
                        let mut acc = 0.0;
                        let mut cnt = 0.0;
                        if y > 0 {
                            acc += self.v(x, y - 1);
                            cnt += 1.0;
                        }
                        if y + 1 < self.ny {
                            acc += self.v(x, y);
                            cnt += 1.0;
                        }
                        out[y * self.nx + x] = if cnt > 0.0 { acc / cnt } else { 0.0 };
                    }
                }
            }
        }
        out
    }
}

/// The per-G-cell label maps the models learn from: demand (regression
/// target, Eq. 4) and congestion (classification target, Eq. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct LabelMaps {
    /// Grid columns.
    pub nx: usize,
    /// Grid rows.
    pub ny: usize,
    /// Horizontal routing demand per G-cell (row-major).
    pub demand_h: Vec<f32>,
    /// Vertical routing demand per G-cell (row-major).
    pub demand_v: Vec<f32>,
    /// Horizontal capacity per G-cell (row-major).
    pub capacity_h: Vec<f32>,
    /// Vertical capacity per G-cell (row-major).
    pub capacity_v: Vec<f32>,
}

impl LabelMaps {
    /// Binary congestion mask for a direction: demand > capacity.
    pub fn congestion(&self, dir: Dir) -> Vec<bool> {
        let (d, c) = match dir {
            Dir::H => (&self.demand_h, &self.capacity_h),
            Dir::V => (&self.demand_v, &self.capacity_v),
        };
        d.iter().zip(c).map(|(d, c)| d > c).collect()
    }

    /// Fraction of G-cells congested in a direction.
    pub fn congestion_rate(&self, dir: Dir) -> f64 {
        let mask = self.congestion(dir);
        if mask.is_empty() {
            0.0
        } else {
            mask.iter().filter(|&&b| b).count() as f64 / mask.len() as f64
        }
    }

    /// Demand normalised by capacity (the scale-free regression target;
    /// 1.0 = exactly at capacity). Zero-capacity cells map to demand
    /// itself (fully blocked cell).
    pub fn utilization(&self, dir: Dir) -> Vec<f32> {
        let (d, c) = match dir {
            Dir::H => (&self.demand_h, &self.capacity_h),
            Dir::V => (&self.demand_v, &self.capacity_v),
        };
        d.iter().zip(c).map(|(d, c)| if *c > 0.0 { d / c } else { *d }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_netlist::Rect;

    fn grid3() -> GcellGrid {
        GcellGrid::new(Rect::new(0.0, 0.0, 3.0, 3.0), 3, 3)
    }

    #[test]
    fn edge_counts() {
        let f = EdgeField::zeros(&grid3());
        assert_eq!(f.h.len(), 6); // 2 per row * 3 rows
        assert_eq!(f.v.len(), 6);
    }

    #[test]
    fn edge_between_all_orientations() {
        let a = GcellCoord { gx: 1, gy: 1 };
        assert_eq!(EdgeField::edge_between(a, GcellCoord { gx: 2, gy: 1 }), (Dir::H, 1, 1));
        assert_eq!(EdgeField::edge_between(a, GcellCoord { gx: 0, gy: 1 }), (Dir::H, 0, 1));
        assert_eq!(EdgeField::edge_between(a, GcellCoord { gx: 1, gy: 2 }), (Dir::V, 1, 1));
        assert_eq!(EdgeField::edge_between(a, GcellCoord { gx: 1, gy: 0 }), (Dir::V, 1, 0));
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn edge_between_rejects_diagonal() {
        EdgeField::edge_between(GcellCoord { gx: 0, gy: 0 }, GcellCoord { gx: 1, gy: 1 });
    }

    #[test]
    fn add_path_accumulates_on_edges() {
        let mut f = EdgeField::zeros(&grid3());
        let path = [
            GcellCoord { gx: 0, gy: 0 },
            GcellCoord { gx: 1, gy: 0 },
            GcellCoord { gx: 1, gy: 1 },
            GcellCoord { gx: 2, gy: 1 },
        ];
        f.add_path(&path, 1.0);
        assert_eq!(f.h(0, 0), 1.0);
        assert_eq!(f.v(1, 0), 1.0);
        assert_eq!(f.h(1, 1), 1.0);
        assert_eq!(f.total(Dir::H), 2.0);
        assert_eq!(f.total(Dir::V), 1.0);
    }

    #[test]
    fn overflow_and_exceeding_counts() {
        let g = grid3();
        let mut demand = EdgeField::zeros(&g);
        let capacity = EdgeField::constant(&g, 1.0, 1.0);
        *demand.h_mut(0, 0) = 3.0; // overflow 2
        *demand.v_mut(0, 0) = 0.5; // under capacity
        assert_eq!(demand.count_exceeding(&capacity), 1);
        assert!((demand.total_overflow(&capacity) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn gcell_projection_averages_incident_edges() {
        let g = grid3();
        let mut f = EdgeField::zeros(&g);
        *f.h_mut(0, 0) = 2.0; // edge (0,0)-(1,0)
        *f.h_mut(1, 0) = 4.0; // edge (1,0)-(2,0)
        let m = f.to_gcell_map(Dir::H);
        assert_eq!(m[0], 2.0); // boundary cell: single incident edge
        assert_eq!(m[1], 3.0); // interior: mean of 2 and 4
        assert_eq!(m[2], 4.0);
        assert_eq!(m[3], 0.0); // other row untouched
    }

    #[test]
    fn label_maps_congestion_rate() {
        let maps = LabelMaps {
            nx: 2,
            ny: 1,
            demand_h: vec![2.0, 0.5],
            demand_v: vec![0.0, 0.0],
            capacity_h: vec![1.0, 1.0],
            capacity_v: vec![1.0, 1.0],
        };
        assert_eq!(maps.congestion(Dir::H), vec![true, false]);
        assert!((maps.congestion_rate(Dir::H) - 0.5).abs() < 1e-12);
        assert_eq!(maps.congestion_rate(Dir::V), 0.0);
        assert_eq!(maps.utilization(Dir::H), vec![2.0, 0.5]);
    }

    #[test]
    fn utilization_handles_zero_capacity() {
        let maps = LabelMaps {
            nx: 1,
            ny: 1,
            demand_h: vec![3.0],
            demand_v: vec![0.0],
            capacity_h: vec![0.0],
            capacity_v: vec![1.0],
        };
        assert_eq!(maps.utilization(Dir::H), vec![3.0]);
    }
}
