//! Density-driven cell spreading (the legalisation-lite pass).
//!
//! After the quadratic solve, connected cells pile up. This pass moves
//! movable cells down the gradient of a smoothed density field until the
//! worst G-cell utilisation approaches `target_density` — the same role
//! the spreading/filler phases play in DREAMPlace, at a fraction of the
//! machinery. Hotspots are reduced but deliberately not eliminated: real
//! placements keep density peaks, which is where congestion forms.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlsi_netlist::{CellId, Circuit, GcellGrid, Placement, PlacementDelta, Point};

use crate::density::{density_map, DensityMap};

/// Configuration for [`spread`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpreadConfig {
    /// Number of diffusion iterations.
    pub iters: usize,
    /// Stop early when max density falls below this.
    pub target_density: f32,
    /// Step size in G-cell widths per unit density gradient.
    pub step: f32,
    /// Random jitter magnitude in G-cell widths (tie breaking).
    pub jitter: f32,
    /// RNG seed for the jitter.
    pub seed: u64,
}

impl Default for SpreadConfig {
    fn default() -> Self {
        Self { iters: 40, target_density: 1.0, step: 0.45, jitter: 0.05, seed: 0 }
    }
}

/// Central-difference gradient of a density field at a G-cell.
fn gradient(map: &DensityMap, gx: usize, gy: usize) -> (f32, f32) {
    let xm = if gx > 0 { map.at(gx - 1, gy) } else { map.at(gx, gy) };
    let xp = if gx + 1 < map.nx() { map.at(gx + 1, gy) } else { map.at(gx, gy) };
    let ym = if gy > 0 { map.at(gx, gy - 1) } else { map.at(gx, gy) };
    let yp = if gy + 1 < map.ny() { map.at(gx, gy + 1) } else { map.at(gx, gy) };
    ((xp - xm) * 0.5, (yp - ym) * 0.5)
}

/// Spreads movable cells of `placement` in place; returns the final
/// density map.
pub fn spread(
    circuit: &Circuit,
    placement: &mut Placement,
    grid: &GcellGrid,
    cfg: &SpreadConfig,
) -> DensityMap {
    spread_impl(circuit, placement, grid, cfg, None)
}

/// [`spread`] that additionally emits one [`PlacementDelta`] per diffusion
/// iteration, listing exactly the cells that iteration moved (with their
/// new positions).
///
/// The trajectory is bitwise identical to [`spread`] — both are one
/// implementation; without a sink no delta is even constructed — so a
/// placement loop can feed the deltas to an incremental consumer (e.g.
/// `lhnn`'s `LatticePipeline` or a serving session) and land on exactly
/// the state a batch rebuild would produce. Iterations that move no cell
/// emit no delta.
pub(crate) fn spread_with(
    circuit: &Circuit,
    placement: &mut Placement,
    grid: &GcellGrid,
    cfg: &SpreadConfig,
    on_delta: &mut dyn FnMut(PlacementDelta),
) -> DensityMap {
    spread_impl(circuit, placement, grid, cfg, Some(on_delta))
}

fn spread_impl(
    circuit: &Circuit,
    placement: &mut Placement,
    grid: &GcellGrid,
    cfg: &SpreadConfig,
    mut on_delta: Option<&mut dyn FnMut(PlacementDelta)>,
) -> DensityMap {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let gw = grid.gcell_width();
    let gh = grid.gcell_height();
    let mut map = density_map(circuit, placement, grid);
    for _ in 0..cfg.iters {
        if map.max() <= cfg.target_density {
            break;
        }
        let smooth = map.box_blur();
        let mut delta = on_delta.as_ref().map(|_| PlacementDelta::new());
        for (i, cell) in circuit.cells().iter().enumerate() {
            if cell.is_terminal() {
                continue;
            }
            let id = CellId(i as u32);
            let p = placement.position(id);
            let c = grid.locate(p);
            // Trigger on the *raw* density (peaks must not be diluted by
            // smoothing), but walk down the *smoothed* gradient so the
            // direction field is stable.
            let local = map.at(c.gx as usize, c.gy as usize);
            if local <= cfg.target_density {
                continue;
            }
            let (dx, dy) = gradient(&smooth, c.gx as usize, c.gy as usize);
            let mag = (dx * dx + dy * dy).sqrt();
            let (ux, uy) = if mag > 1e-4 {
                (dx / mag, dy / mag)
            } else {
                // Symmetric pile: the gradient vanishes at the peak.
                // Scatter in a random direction to break the tie.
                let angle = rng.gen_range(0.0..std::f32::consts::TAU);
                (angle.cos(), angle.sin())
            };
            let excess = (local - cfg.target_density).min(4.0);
            let jx = rng.gen_range(-cfg.jitter..=cfg.jitter);
            let jy = rng.gen_range(-cfg.jitter..=cfg.jitter);
            let np = circuit.die.clamp(Point::new(
                p.x - (ux * cfg.step * excess + jx) * gw,
                p.y - (uy * cfg.step * excess + jy) * gh,
            ));
            placement.set_position(id, np);
            if let Some(delta) = delta.as_mut() {
                delta.push(id, np);
            }
        }
        if let (Some(delta), Some(sink)) = (delta, on_delta.as_mut()) {
            if !delta.is_empty() {
                sink(delta);
            }
        }
        map = density_map(circuit, placement, grid);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_netlist::{Cell, Rect};

    /// Piles 200 cells on one point and checks spreading reduces peak
    /// density substantially.
    #[test]
    fn spreading_reduces_peak_density() {
        let die = Rect::new(0.0, 0.0, 32.0, 32.0);
        let mut c = Circuit::new("pile", die);
        let mut p = Placement::zeroed(200);
        for i in 0..200 {
            let id = c.add_cell(Cell::movable(format!("c{i}"), 1.0, 1.0));
            p.set_position(id, Point::new(16.0, 16.0));
        }
        let grid = GcellGrid::new(die, 8, 8);
        let before = density_map(&c, &p, &grid).max();
        let after = spread(&c, &mut p, &grid, &SpreadConfig::default()).max();
        assert!(after < before * 0.5, "before {before}, after {after}");
    }

    #[test]
    fn already_spread_placement_is_untouched() {
        let die = Rect::new(0.0, 0.0, 16.0, 16.0);
        let mut c = Circuit::new("ok", die);
        let mut p = Placement::zeroed(4);
        for i in 0..4 {
            let id = c.add_cell(Cell::movable(format!("c{i}"), 1.0, 1.0));
            p.set_position(id, Point::new(2.0 + 4.0 * i as f32, 8.0));
        }
        let grid = GcellGrid::new(die, 4, 4);
        let before = p.clone();
        spread(&c, &mut p, &grid, &SpreadConfig::default());
        for i in 0..4 {
            assert_eq!(p.position(CellId(i)), before.position(CellId(i)));
        }
    }

    #[test]
    fn terminals_never_move() {
        let die = Rect::new(0.0, 0.0, 16.0, 16.0);
        let mut c = Circuit::new("t", die);
        let t = c.add_cell(Cell::terminal("t", 1.0, 1.0));
        let mut p = Placement::zeroed(1);
        p.set_position(t, Point::new(8.0, 8.0));
        // overload the same spot with movables
        let mut ids = Vec::new();
        for i in 0..100 {
            ids.push(c.add_cell(Cell::movable(format!("c{i}"), 1.0, 1.0)));
        }
        let mut p2 = Placement::zeroed(101);
        p2.set_position(t, Point::new(8.0, 8.0));
        for id in &ids {
            p2.set_position(*id, Point::new(8.0, 8.0));
        }
        let grid = GcellGrid::new(die, 4, 4);
        spread(&c, &mut p2, &grid, &SpreadConfig::default());
        assert_eq!(p2.position(t), Point::new(8.0, 8.0));
    }

    #[test]
    fn cells_stay_inside_die() {
        let die = Rect::new(0.0, 0.0, 8.0, 8.0);
        let mut c = Circuit::new("edge", die);
        let mut p = Placement::zeroed(150);
        for i in 0..150 {
            let id = c.add_cell(Cell::movable(format!("c{i}"), 1.0, 1.0));
            p.set_position(id, Point::new(0.5, 0.5)); // corner pile
        }
        let grid = GcellGrid::new(die, 4, 4);
        spread(&c, &mut p, &grid, &SpreadConfig { iters: 60, ..Default::default() });
        for pos in p.positions() {
            assert!(die.contains(*pos), "cell escaped to {pos:?}");
        }
    }

    #[test]
    fn spread_with_deltas_replay_to_identical_placement() {
        let die = Rect::new(0.0, 0.0, 32.0, 32.0);
        let mut c = Circuit::new("pile", die);
        let initial = {
            let mut p = Placement::zeroed(150);
            for i in 0..150 {
                let id = c.add_cell(Cell::movable(format!("c{i}"), 1.0, 1.0));
                p.set_position(id, Point::new(16.0, 16.0));
            }
            p
        };
        let grid = GcellGrid::new(die, 8, 8);
        let cfg = SpreadConfig::default();
        let mut plain = initial.clone();
        spread(&c, &mut plain, &grid, &cfg);
        let mut traced = initial.clone();
        let mut deltas = Vec::new();
        spread_with(&c, &mut traced, &grid, &cfg, &mut |d| deltas.push(d));
        assert_eq!(plain, traced, "delta emission must not perturb the trajectory");
        assert!(!deltas.is_empty());
        let mut replayed = initial;
        for d in &deltas {
            d.apply(&mut replayed);
        }
        assert_eq!(replayed, traced, "replaying the deltas must land on the same placement");
    }

    #[test]
    fn spreading_is_deterministic_per_seed() {
        let die = Rect::new(0.0, 0.0, 16.0, 16.0);
        let mut c = Circuit::new("det", die);
        for i in 0..80 {
            c.add_cell(Cell::movable(format!("c{i}"), 1.0, 1.0));
        }
        let grid = GcellGrid::new(die, 4, 4);
        let make = |seed| {
            let mut p = Placement::zeroed(80);
            for i in 0..80u32 {
                p.set_position(CellId(i), Point::new(8.0, 8.0));
            }
            let cfg = SpreadConfig { seed, ..Default::default() };
            spread(&c, &mut p, &grid, &cfg);
            p
        };
        assert_eq!(make(5), make(5));
        assert_ne!(make(5), make(6));
    }
}
