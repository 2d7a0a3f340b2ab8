//! The G-cell grid: the tessellation of the die into routing tiles.
//!
//! Terminology follows the paper (Figure 1a): the die is divided into
//! `nx × ny` rectangular *G-cells*; each G-cell is one "pixel" of every
//! map (demand, congestion, features). A *G-net* is the set of G-cells
//! covered by a net's pin bounding box.

use serde::{Deserialize, Serialize};

use crate::geometry::{Point, Rect};

/// Integer coordinates of a G-cell: `(gx, gy)` with `gx` the column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GcellCoord {
    /// Column index (0 = leftmost).
    pub gx: u32,
    /// Row index (0 = bottom).
    pub gy: u32,
}

/// The uniform G-cell grid over a die.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GcellGrid {
    die: Rect,
    nx: u32,
    ny: u32,
}

impl GcellGrid {
    /// Creates an `nx × ny` grid over `die`.
    ///
    /// # Panics
    ///
    /// Panics if `nx`, `ny` are zero or the die is degenerate.
    pub fn new(die: Rect, nx: u32, ny: u32) -> Self {
        assert!(nx > 0 && ny > 0, "grid must have at least one g-cell");
        assert!(die.width() > 0.0 && die.height() > 0.0, "die must have positive area");
        Self { die, nx, ny }
    }

    /// Number of columns.
    pub fn nx(&self) -> u32 {
        self.nx
    }

    /// Number of rows.
    pub fn ny(&self) -> u32 {
        self.ny
    }

    /// Total number of G-cells.
    pub fn num_gcells(&self) -> usize {
        self.nx as usize * self.ny as usize
    }

    /// Width of one G-cell.
    pub fn gcell_width(&self) -> f32 {
        self.die.width() / self.nx as f32
    }

    /// Height of one G-cell.
    pub fn gcell_height(&self) -> f32 {
        self.die.height() / self.ny as f32
    }

    /// Flattened index of a coordinate (row-major: `gy * nx + gx`).
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn index(&self, c: GcellCoord) -> usize {
        assert!(c.gx < self.nx && c.gy < self.ny, "g-cell {c:?} out of range");
        c.gy as usize * self.nx as usize + c.gx as usize
    }

    /// Inverse of [`GcellGrid::index`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn coord(&self, idx: usize) -> GcellCoord {
        assert!(idx < self.num_gcells(), "g-cell index {idx} out of range");
        GcellCoord { gx: (idx % self.nx as usize) as u32, gy: (idx / self.nx as usize) as u32 }
    }

    /// The G-cell containing a point (points outside the die are clamped).
    pub fn locate(&self, p: Point) -> GcellCoord {
        let clamped = self.die.clamp(p);
        let fx = (clamped.x - self.die.lx) / self.gcell_width();
        let fy = (clamped.y - self.die.ly) / self.gcell_height();
        GcellCoord { gx: (fx as u32).min(self.nx - 1), gy: (fy as u32).min(self.ny - 1) }
    }

    /// The rectangle covered by a G-cell.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of range.
    pub fn gcell_rect(&self, c: GcellCoord) -> Rect {
        assert!(c.gx < self.nx && c.gy < self.ny, "g-cell {c:?} out of range");
        let w = self.gcell_width();
        let h = self.gcell_height();
        Rect::new(
            self.die.lx + c.gx as f32 * w,
            self.die.ly + c.gy as f32 * h,
            self.die.lx + (c.gx + 1) as f32 * w,
            self.die.ly + (c.gy + 1) as f32 * h,
        )
    }

    /// The inclusive coordinate span of G-cells overlapping `rect`
    /// (clamped to the die). Returns `None` when `rect` is the empty seed.
    pub fn span(&self, rect: &Rect) -> Option<(GcellCoord, GcellCoord)> {
        if rect.is_empty() {
            return None;
        }
        let lo = self.locate(Point::new(rect.lx, rect.ly));
        let hi = self.locate(Point::new(rect.ux, rect.uy));
        Some((lo, hi))
    }

    /// Iterates over all G-cell coordinates within an inclusive span.
    pub fn iter_span(
        &self,
        lo: GcellCoord,
        hi: GcellCoord,
    ) -> impl Iterator<Item = GcellCoord> + '_ {
        (lo.gy..=hi.gy).flat_map(move |gy| (lo.gx..=hi.gx).map(move |gx| GcellCoord { gx, gy }))
    }

    /// The 4-neighbourhood of a G-cell (lattice-graph edges).
    pub fn neighbors(&self, c: GcellCoord) -> impl Iterator<Item = GcellCoord> + '_ {
        let (nx, ny) = (self.nx, self.ny);
        let deltas = [(-1i64, 0i64), (1, 0), (0, -1), (0, 1)];
        deltas.into_iter().filter_map(move |(dx, dy)| {
            let gx = c.gx as i64 + dx;
            let gy = c.gy as i64 + dy;
            (gx >= 0 && gy >= 0 && (gx as u32) < nx && (gy as u32) < ny)
                .then_some(GcellCoord { gx: gx as u32, gy: gy as u32 })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GcellGrid {
        GcellGrid::new(Rect::new(0.0, 0.0, 8.0, 4.0), 4, 2)
    }

    #[test]
    fn dimensions() {
        let g = grid();
        assert_eq!(g.num_gcells(), 8);
        assert_eq!(g.gcell_width(), 2.0);
        assert_eq!(g.gcell_height(), 2.0);
    }

    #[test]
    fn index_coord_roundtrip() {
        let g = grid();
        for idx in 0..g.num_gcells() {
            assert_eq!(g.index(g.coord(idx)), idx);
        }
    }

    #[test]
    fn locate_interior_and_boundary() {
        let g = grid();
        assert_eq!(g.locate(Point::new(0.5, 0.5)), GcellCoord { gx: 0, gy: 0 });
        assert_eq!(g.locate(Point::new(7.9, 3.9)), GcellCoord { gx: 3, gy: 1 });
        // exactly on the die edge clamps into the last cell
        assert_eq!(g.locate(Point::new(8.0, 4.0)), GcellCoord { gx: 3, gy: 1 });
        // outside points clamp
        assert_eq!(g.locate(Point::new(-5.0, 100.0)), GcellCoord { gx: 0, gy: 1 });
    }

    #[test]
    fn gcell_rect_tiles_the_die() {
        let g = grid();
        let r = g.gcell_rect(GcellCoord { gx: 1, gy: 1 });
        assert_eq!(r, Rect::new(2.0, 2.0, 4.0, 4.0));
        let total: f32 = (0..g.num_gcells()).map(|i| g.gcell_rect(g.coord(i)).area()).sum();
        assert!((total - g.die.area()).abs() < 1e-4);
    }

    #[test]
    fn span_covers_bounding_box() {
        let g = grid();
        let bbox = Rect::new(1.0, 0.5, 5.0, 3.5);
        let (lo, hi) = g.span(&bbox).unwrap();
        assert_eq!(lo, GcellCoord { gx: 0, gy: 0 });
        assert_eq!(hi, GcellCoord { gx: 2, gy: 1 });
        let count = g.iter_span(lo, hi).count();
        assert_eq!(count, 6);
        assert!(g.span(&Rect::empty()).is_none());
    }

    #[test]
    fn neighbors_counts() {
        let g = grid();
        assert_eq!(g.neighbors(GcellCoord { gx: 0, gy: 0 }).count(), 2); // corner
        assert_eq!(g.neighbors(GcellCoord { gx: 1, gy: 0 }).count(), 3); // edge
        let g2 = GcellGrid::new(Rect::new(0.0, 0.0, 9.0, 9.0), 3, 3);
        assert_eq!(g2.neighbors(GcellCoord { gx: 1, gy: 1 }).count(), 4); // interior
    }

    #[test]
    fn zero_point_net_span() {
        let g = grid();
        let mut bb = Rect::empty();
        bb.absorb(Point::new(3.0, 3.0));
        let (lo, hi) = g.span(&bb).unwrap();
        assert_eq!(lo, hi);
    }
}
