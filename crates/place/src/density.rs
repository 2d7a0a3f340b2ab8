//! Placement density maps and overflow metrics.
//!
//! Density is measured per G-cell as (movable cell area overlapping the
//! G-cell) / (G-cell area). The spreader consumes these maps; experiments
//! report peak density and overflow as placement-quality metrics.

use vlsi_netlist::{CellId, Circuit, GcellGrid, Placement, Rect};

/// A scalar field over the G-cell grid (row-major, `ny * nx` entries).
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMap {
    nx: usize,
    ny: usize,
    values: Vec<f32>,
}

impl DensityMap {
    /// Creates a zero map with the grid's dimensions.
    pub(crate) fn zeros(grid: &GcellGrid) -> Self {
        Self {
            nx: grid.nx() as usize,
            ny: grid.ny() as usize,
            values: vec![0.0; grid.num_gcells()],
        }
    }

    /// Grid columns.
    pub(crate) fn nx(&self) -> usize {
        self.nx
    }

    /// Grid rows.
    pub(crate) fn ny(&self) -> usize {
        self.ny
    }

    /// Value at `(gx, gy)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub(crate) fn at(&self, gx: usize, gy: usize) -> f32 {
        self.values[gy * self.nx + gx]
    }

    /// Mutable value at `(gx, gy)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub(crate) fn at_mut(&mut self, gx: usize, gy: usize) -> &mut f32 {
        &mut self.values[gy * self.nx + gx]
    }

    /// Maximum value (0 for an empty map).
    pub(crate) fn max(&self) -> f32 {
        self.values.iter().fold(0.0f32, |m, &v| m.max(v))
    }

    /// 3×3 box blur, used to smooth gradients for the spreader.
    pub(crate) fn box_blur(&self) -> DensityMap {
        let mut out = self.clone();
        for gy in 0..self.ny {
            for gx in 0..self.nx {
                let mut acc = 0.0;
                let mut cnt = 0.0;
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        let (x, y) = (gx as i64 + dx, gy as i64 + dy);
                        if x >= 0 && y >= 0 && (x as usize) < self.nx && (y as usize) < self.ny {
                            acc += self.at(x as usize, y as usize);
                            cnt += 1.0;
                        }
                    }
                }
                *out.at_mut(gx, gy) = acc / cnt;
            }
        }
        out
    }
}

/// Computes the movable-area density map of a placement.
///
/// Each movable cell's rectangle is clipped against every G-cell it
/// overlaps; terminals are excluded (their blockage effect is modelled by
/// the router's capacity map instead).
pub(crate) fn density_map(
    circuit: &Circuit,
    placement: &Placement,
    grid: &GcellGrid,
) -> DensityMap {
    let mut map = DensityMap::zeros(grid);
    let cell_area = grid.gcell_width() * grid.gcell_height();
    for (i, cell) in circuit.cells().iter().enumerate() {
        if cell.is_terminal() {
            continue;
        }
        let p = placement.position(CellId(i as u32));
        let half_w = cell.width * 0.5;
        let half_h = cell.height * 0.5;
        let rect = Rect::new(p.x - half_w, p.y - half_h, p.x + half_w, p.y + half_h);
        let Some((lo, hi)) = grid.span(&rect) else { continue };
        for c in grid.iter_span(lo, hi) {
            if let Some(overlap) = grid.gcell_rect(c).intersection(&rect) {
                map.values[grid.index(c)] += overlap.area() / cell_area;
            }
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_netlist::{Cell, Point};

    fn setup() -> (Circuit, GcellGrid) {
        let die = Rect::new(0.0, 0.0, 8.0, 8.0);
        let c = Circuit::new("d", die);
        let grid = GcellGrid::new(die, 4, 4);
        (c, grid)
    }

    #[test]
    fn single_cell_contributes_its_area() {
        let (mut c, grid) = setup();
        let a = c.add_cell(Cell::movable("a", 1.0, 1.0));
        let mut p = Placement::zeroed(1);
        p.set_position(a, Point::new(1.0, 1.0)); // fully inside g-cell (0,0)
        let map = density_map(&c, &p, &grid);
        assert!((map.at(0, 0) - 0.25).abs() < 1e-6); // 1 area / 4 gcell area
        assert_eq!(map.values.iter().filter(|&&v| v > 0.0).count(), 1);
    }

    #[test]
    fn straddling_cell_splits_area() {
        let (mut c, grid) = setup();
        let a = c.add_cell(Cell::movable("a", 2.0, 2.0));
        let mut p = Placement::zeroed(1);
        p.set_position(a, Point::new(2.0, 2.0)); // centre on the 4-corner
        let map = density_map(&c, &p, &grid);
        for (gx, gy) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
            assert!((map.at(gx, gy) - 0.25).abs() < 1e-6);
        }
        // centred on the die corner: only the on-die quarter counts
        p.set_position(a, Point::new(0.0, 0.0));
        let map = density_map(&c, &p, &grid);
        assert!((map.at(0, 0) - 0.25).abs() < 1e-6);
        assert!((map.values.iter().sum::<f32>() - 0.25).abs() < 1e-6);
    }

    #[test]
    fn terminals_are_excluded() {
        let (mut c, grid) = setup();
        let t = c.add_cell(Cell::terminal("t", 4.0, 4.0));
        let mut p = Placement::zeroed(1);
        p.set_position(t, Point::new(4.0, 4.0));
        let map = density_map(&c, &p, &grid);
        assert_eq!(map.max(), 0.0);
    }

    #[test]
    fn blur_preserves_mean_on_uniform_field() {
        let (_, grid) = setup();
        let mut m = DensityMap::zeros(&grid);
        m.values.iter_mut().for_each(|v| *v = 2.0);
        let b = m.box_blur();
        assert!(b.values.iter().all(|&v| (v - 2.0).abs() < 1e-6));
    }

    #[test]
    fn blur_spreads_a_spike() {
        let (_, grid) = setup();
        let mut m = DensityMap::zeros(&grid);
        *m.at_mut(1, 1) = 9.0;
        let b = m.box_blur();
        assert!(b.at(1, 1) < 9.0);
        assert!(b.at(0, 0) > 0.0);
        assert!(b.at(3, 3) == 0.0);
    }
}
