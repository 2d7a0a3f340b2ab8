//! End-to-end placement pipelines.
//!
//! [`GlobalPlacer`] chains the quadratic solve and the density spreader —
//! the standard analytic-placement recipe (the DREAMPlace stand-in used to
//! produce every placement in the reproduction).

use vlsi_netlist::{CellId, Circuit, GcellGrid, Placement, PlacementDelta, Point, SynthCircuit};

use crate::density::DensityMap;
use crate::error::Result;
use crate::quadratic::{solve_quadratic, QuadraticConfig};
use crate::spreading::{spread, spread_with, SpreadConfig};

/// Configuration of the global placer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GlobalPlacerConfig {
    /// Quadratic-solve settings.
    pub quadratic: QuadraticConfig,
    /// Spreading settings.
    pub spreading: SpreadConfig,
}

/// Quadratic placement followed by density spreading.
#[derive(Debug, Clone, Default)]
pub struct GlobalPlacer {
    cfg: GlobalPlacerConfig,
}

/// The result of a placement run: positions plus quality metrics.
#[derive(Debug, Clone)]
pub struct PlacementResult {
    /// The placement solution.
    pub placement: Placement,
    /// Final movable-area density map.
    pub density: DensityMap,
    /// Total HPWL after placement.
    pub hpwl: f64,
}

/// The delta view of a placement run: a starting placement plus the
/// ordered deltas whose replay reproduces the final placement exactly.
///
/// This is what a placement-in-the-loop consumer feeds to an incremental
/// pipeline: open a session at [`PlacementTrace::initial`], then apply the
/// deltas one iteration at a time, querying congestion in between.
#[derive(Debug, Clone)]
pub struct PlacementTrace {
    /// The placement the deltas start from (all cells at the origin; the
    /// quadratic solve is the first delta).
    pub initial: Placement,
    /// One delta for the quadratic solve, then one per spreading
    /// iteration that moved at least one cell.
    pub deltas: Vec<PlacementDelta>,
}

impl PlacementTrace {
    /// Replays all deltas onto a copy of the initial placement.
    #[cfg(test)]
    fn replay(&self) -> Placement {
        let mut p = self.initial.clone();
        for d in &self.deltas {
            d.apply(&mut p);
        }
        p
    }
}

impl GlobalPlacer {
    /// Creates a placer with the given configuration.
    pub fn new(cfg: GlobalPlacerConfig) -> Self {
        Self { cfg }
    }

    /// Places a circuit. `fixed` pins terminal positions.
    ///
    /// # Errors
    ///
    /// Propagates quadratic-solve failures.
    pub(crate) fn place(
        &self,
        circuit: &Circuit,
        fixed: &[(CellId, Point)],
        grid: &GcellGrid,
    ) -> Result<PlacementResult> {
        let mut placement = solve_quadratic(circuit, fixed, None, &self.cfg.quadratic)?;
        let density = spread(circuit, &mut placement, grid, &self.cfg.spreading);
        let hpwl = placement.total_hpwl(circuit);
        Ok(PlacementResult { placement, density, hpwl })
    }

    /// Places a circuit while recording the iteration-level deltas: one
    /// [`PlacementDelta`] for the quadratic solve, then one per spreading
    /// iteration (as emitted by [`crate::spread_with`]).
    ///
    /// The returned result is identical to [`GlobalPlacer::place`] (the
    /// deterministic trajectory is shared; equality is pinned by
    /// `traced_placement_matches_plain_and_replays_exactly`) and
    /// `trace.replay()` reproduces `result.placement` exactly.
    ///
    /// # Errors
    ///
    /// Propagates quadratic-solve failures.
    pub(crate) fn place_traced(
        &self,
        circuit: &Circuit,
        fixed: &[(CellId, Point)],
        grid: &GcellGrid,
    ) -> Result<(PlacementResult, PlacementTrace)> {
        let initial = Placement::zeroed(circuit.num_cells());
        let mut placement = solve_quadratic(circuit, fixed, None, &self.cfg.quadratic)?;
        let mut deltas = Vec::new();
        let mut quad = PlacementDelta::new();
        for i in 0..circuit.num_cells() {
            let id = CellId(i as u32);
            if placement.position(id) != initial.position(id) {
                quad.push(id, placement.position(id));
            }
        }
        if !quad.is_empty() {
            deltas.push(quad);
        }
        let density = spread_with(circuit, &mut placement, grid, &self.cfg.spreading, &mut |d| {
            deltas.push(d);
        });
        let hpwl = placement.total_hpwl(circuit);
        Ok((PlacementResult { placement, density, hpwl }, PlacementTrace { initial, deltas }))
    }

    /// Places a synthetic design using its generated terminal anchors.
    ///
    /// # Errors
    ///
    /// Propagates quadratic-solve failures.
    pub fn place_synth(&self, synth: &SynthCircuit, grid: &GcellGrid) -> Result<PlacementResult> {
        self.place(&synth.circuit, &synth.fixed_positions, grid)
    }

    /// `GlobalPlacer::place_traced` for a synthetic design.
    ///
    /// # Errors
    ///
    /// Propagates quadratic-solve failures.
    pub fn place_synth_traced(
        &self,
        synth: &SynthCircuit,
        grid: &GcellGrid,
    ) -> Result<(PlacementResult, PlacementTrace)> {
        self.place_traced(&synth.circuit, &synth.fixed_positions, grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vlsi_netlist::synth::{generate, SynthConfig};
    use vlsi_netlist::Point;

    /// Places every movable cell uniformly at random (terminals at `fixed`).
    fn random_placement(circuit: &Circuit, fixed: &[(CellId, Point)]) -> Placement {
        let mut rng = StdRng::seed_from_u64(1);
        let die = circuit.die;
        let mut placement = Placement::zeroed(circuit.num_cells());
        for i in 0..circuit.num_cells() {
            let p = Point::new(rng.gen_range(die.lx..=die.ux), rng.gen_range(die.ly..=die.uy));
            placement.set_position(CellId(i as u32), p);
        }
        for (id, p) in fixed {
            placement.set_position(*id, *p);
        }
        placement
    }

    fn small_synth() -> (vlsi_netlist::SynthCircuit, GcellGrid) {
        let cfg = SynthConfig { n_cells: 300, grid_nx: 16, grid_ny: 16, ..SynthConfig::default() };
        let synth = generate(&cfg).unwrap();
        let grid = cfg.grid();
        (synth, grid)
    }

    #[test]
    fn global_placer_beats_random_on_hpwl() {
        let (synth, grid) = small_synth();
        let placer = GlobalPlacer::default();
        let result = placer.place_synth(&synth, &grid).unwrap();
        let random = random_placement(&synth.circuit, &synth.fixed_positions);
        let random_hpwl = random.total_hpwl(&synth.circuit);
        assert!(
            result.hpwl < random_hpwl * 0.8,
            "global {} vs random {}",
            result.hpwl,
            random_hpwl
        );
    }

    #[test]
    fn placements_land_inside_die() {
        let (synth, grid) = small_synth();
        let result = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        let die = synth.circuit.die;
        for p in result.placement.positions() {
            assert!(die.contains(*p));
        }
    }

    #[test]
    fn terminals_keep_their_fixed_positions() {
        let (synth, grid) = small_synth();
        let result = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        for (id, p) in &synth.fixed_positions {
            assert_eq!(result.placement.position(*id), *p);
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let (synth, grid) = small_synth();
        let a = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        let b = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn density_metrics_are_populated() {
        let (synth, grid) = small_synth();
        let result = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        assert!(result.density.max() > 0.0);
        assert!(result.hpwl > 0.0);
    }

    #[test]
    fn traced_placement_matches_plain_and_replays_exactly() {
        let (synth, grid) = small_synth();
        let placer = GlobalPlacer::default();
        let plain = placer.place_synth(&synth, &grid).unwrap();
        let (traced, trace) = placer.place_synth_traced(&synth, &grid).unwrap();
        assert_eq!(plain.placement, traced.placement, "trace recording must not change placement");
        assert_eq!(trace.replay(), traced.placement, "delta replay must reproduce the result");
        assert!(!trace.deltas.is_empty(), "quadratic solve must emit a delta");
        // quadratic delta first, spreading iterations after
        assert!(trace.deltas[0].len() >= synth.circuit.num_movable());
    }
}
