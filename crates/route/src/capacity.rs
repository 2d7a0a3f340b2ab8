//! Routing capacity construction, including macro blockages.
//!
//! Real global routers derive per-edge capacities from the metal stack and
//! subtract blockages under macros. Here each edge starts with a uniform
//! track count and loses capacity proportional to how much of the G-cells
//! it joins is covered by macro outlines.

use vlsi_netlist::{GcellGrid, Rect};

use crate::maps::EdgeField;

/// Configuration for `build_capacity`.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityConfig {
    /// Horizontal tracks per edge (unblocked).
    pub h_tracks: f32,
    /// Vertical tracks per edge (unblocked).
    pub v_tracks: f32,
    /// Fraction of capacity removed when a G-cell is fully covered by a
    /// macro (1.0 = fully blocked).
    pub blockage_factor: f32,
}

impl Default for CapacityConfig {
    fn default() -> Self {
        Self { h_tracks: 10.0, v_tracks: 10.0, blockage_factor: 0.8 }
    }
}

/// Fraction of a G-cell's area covered by any of `blockages`
/// (overlaps between blockages may double-count; capped at 1).
fn coverage(grid: &GcellGrid, idx: usize, blockages: &[Rect]) -> f32 {
    let rect = grid.gcell_rect(grid.coord(idx));
    let area = rect.area();
    if area <= 0.0 {
        return 0.0;
    }
    let covered: f32 =
        blockages.iter().filter_map(|b| rect.intersection(b)).map(|i| i.area()).sum();
    (covered / area).min(1.0)
}

/// Builds the per-edge capacity field for a grid with macro `blockages`.
///
/// The capacity of an edge is the unblocked track count scaled by the mean
/// free fraction of its two adjacent G-cells:
/// `cap = tracks · (1 - blockage_factor · coverage)`.
pub(crate) fn build_capacity(
    grid: &GcellGrid,
    blockages: &[Rect],
    cfg: &CapacityConfig,
) -> EdgeField {
    let (nx, ny) = (grid.nx() as usize, grid.ny() as usize);
    let cover: Vec<f32> = (0..grid.num_gcells()).map(|i| coverage(grid, i, blockages)).collect();
    let free = |x: usize, y: usize| 1.0 - cfg.blockage_factor * cover[y * nx + x];
    let mut cap = EdgeField::zeros(grid);
    for y in 0..ny {
        for x in 0..nx - 1 {
            *cap.h_mut(x, y) = cfg.h_tracks * 0.5 * (free(x, y) + free(x + 1, y));
        }
    }
    for y in 0..ny - 1 {
        for x in 0..nx {
            *cap.v_mut(x, y) = cfg.v_tracks * 0.5 * (free(x, y) + free(x, y + 1));
        }
    }
    cap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maps::Dir;

    fn grid4() -> GcellGrid {
        GcellGrid::new(Rect::new(0.0, 0.0, 8.0, 8.0), 4, 4)
    }

    #[test]
    fn unblocked_capacity_is_uniform() {
        let cap = build_capacity(&grid4(), &[], &CapacityConfig::default());
        assert!(cap.to_gcell_map(Dir::H).iter().all(|&c| (c - 10.0).abs() < 1e-6));
        assert!(cap.to_gcell_map(Dir::V).iter().all(|&c| (c - 10.0).abs() < 1e-6));
    }

    #[test]
    fn macro_reduces_capacity_underneath() {
        // macro fully covers g-cells (1,1) and (2,1)
        let blk = Rect::new(2.0, 2.0, 6.0, 4.0);
        let cap = build_capacity(&grid4(), &[blk], &CapacityConfig::default());
        // edge between the two fully covered cells: 10 * (1 - 0.8) = 2
        assert!((cap.h(1, 1) - 2.0).abs() < 1e-6, "got {}", cap.h(1, 1));
        // far-away edge untouched
        assert!((cap.h(0, 3) - 10.0).abs() < 1e-6);
        // half-covered boundary edge: mean of free 0.2 and 1.0 -> 6
        assert!((cap.h(2, 1) - 6.0).abs() < 1e-6, "got {}", cap.h(2, 1));
    }

    #[test]
    fn full_blockage_factor_zeroes_capacity() {
        let blk = Rect::new(0.0, 0.0, 8.0, 8.0); // cover everything
        let cfg = CapacityConfig { blockage_factor: 1.0, ..Default::default() };
        let cap = build_capacity(&grid4(), &[blk], &cfg);
        assert_eq!(cap.total(Dir::H), 0.0);
        assert_eq!(cap.total(Dir::V), 0.0);
    }

    #[test]
    fn overlapping_blockages_cap_at_full_coverage() {
        let blk = Rect::new(0.0, 0.0, 2.0, 2.0);
        let cap_single = build_capacity(&grid4(), &[blk], &CapacityConfig::default());
        let cap_double = build_capacity(&grid4(), &[blk, blk], &CapacityConfig::default());
        assert_eq!(cap_single, cap_double);
    }

    #[test]
    fn asymmetric_tracks() {
        let cfg = CapacityConfig { h_tracks: 12.0, v_tracks: 4.0, ..Default::default() };
        let cap = build_capacity(&grid4(), &[], &cfg);
        assert!((cap.h(0, 0) - 12.0).abs() < 1e-6);
        assert!((cap.v(0, 0) - 4.0).abs() < 1e-6);
    }
}
