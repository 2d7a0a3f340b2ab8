//! Synthetic Superblue-like circuit generation.
//!
//! The ISPD-2011 / DAC-2012 contest designs are not redistributable here,
//! so the reproduction generates circuits with the same *learning-relevant*
//! structure:
//!
//! * clustered connectivity — most nets are local to a logical cluster, a
//!   configurable fraction cross clusters (these become the long
//!   "topological" nets whose congestion interaction LHNN exploits),
//! * a geometric net-degree distribution with a heavy 2-pin mass and a
//!   long tail, as in real netlists,
//! * terminal pads on the periphery anchoring each cluster to a region,
//! * macro terminals inside the die that block routing capacity and seed
//!   congestion hotspots,
//! * per-design knobs (cell count, macro count, cluster count) that create
//!   the wide congestion-rate spread the paper's test designs show
//!   (0 % … ~48 %).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::circuit::{Cell, CellId, Circuit, Net, Pin};
use crate::error::{NetlistError, Result};
use crate::geometry::{Point, Rect};
use crate::grid::GcellGrid;

/// Configuration of one synthetic design.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// Design name (e.g. `synthblue1`).
    pub name: String,
    /// RNG seed; every draw derives from it.
    pub seed: u64,
    /// Number of G-cell columns.
    pub grid_nx: u32,
    /// Number of G-cell rows.
    pub grid_ny: u32,
    /// Die units per G-cell (both dimensions).
    pub gcell_size: f32,
    /// Number of movable standard cells.
    pub n_cells: usize,
    /// Nets per movable cell (Superblue has ≈ 0.98).
    pub nets_per_cell: f32,
    /// Number of logical clusters.
    pub n_clusters: usize,
    /// Probability that a net draws its cells from the whole die rather
    /// than one cluster.
    pub cross_cluster_prob: f64,
    /// Geometric-distribution parameter for net degree (`degree = 2 + G`);
    /// larger means shorter tail.
    pub degree_p: f64,
    /// Hard cap on net degree.
    pub max_degree: usize,
    /// Number of periphery pad terminals.
    pub n_pads: usize,
    /// Number of macro (blockage) terminals.
    pub n_macros: usize,
    /// Macro side length in G-cells.
    pub macro_gcells: u32,
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            name: "synth".into(),
            seed: 1,
            grid_nx: 32,
            grid_ny: 32,
            gcell_size: 8.0,
            n_cells: 1200,
            nets_per_cell: 1.0,
            n_clusters: 6,
            cross_cluster_prob: 0.12,
            degree_p: 0.45,
            max_degree: 24,
            n_pads: 24,
            n_macros: 3,
            macro_gcells: 4,
        }
    }
}

impl SynthConfig {
    /// The die implied by the grid configuration.
    pub(crate) fn die(&self) -> Rect {
        Rect::new(
            0.0,
            0.0,
            self.grid_nx as f32 * self.gcell_size,
            self.grid_ny as f32 * self.gcell_size,
        )
    }

    /// The G-cell grid implied by the configuration.
    pub fn grid(&self) -> GcellGrid {
        GcellGrid::new(self.die(), self.grid_nx, self.grid_ny)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidConfig`] when a knob is out of range.
    pub(crate) fn validate(&self) -> Result<()> {
        if self.n_cells < 2 {
            return Err(NetlistError::InvalidConfig("n_cells must be >= 2".into()));
        }
        if self.n_clusters == 0 {
            return Err(NetlistError::InvalidConfig("n_clusters must be >= 1".into()));
        }
        if !(0.0..=1.0).contains(&self.cross_cluster_prob) {
            return Err(NetlistError::InvalidConfig("cross_cluster_prob must be in [0,1]".into()));
        }
        if !(self.degree_p > 0.0 && self.degree_p <= 1.0) {
            return Err(NetlistError::InvalidConfig("degree_p must be in (0,1]".into()));
        }
        if self.max_degree < 2 {
            return Err(NetlistError::InvalidConfig("max_degree must be >= 2".into()));
        }
        if self.grid_nx < 2 || self.grid_ny < 2 {
            return Err(NetlistError::InvalidConfig("grid must be at least 2x2".into()));
        }
        Ok(())
    }
}

/// The output of the generator: the circuit plus generation metadata used
/// by the placer (cluster anchors) and router (macro blockages).
#[derive(Debug, Clone)]
pub struct SynthCircuit {
    /// The generated circuit (unplaced; run a placer next).
    pub circuit: Circuit,
    /// Cluster index per movable cell (indexed like `circuit.cells()`,
    /// terminals carry their nearest cluster).
    pub cluster_of: Vec<usize>,
    /// Anchor centre of each cluster in die coordinates.
    pub cluster_centers: Vec<Point>,
    /// Macro outlines (routing blockages).
    pub macro_rects: Vec<Rect>,
    /// Terminal positions fixed at generation time (pads + macros),
    /// as `(cell, position)` pairs.
    pub fixed_positions: Vec<(CellId, Point)>,
}

/// Samples `2 + Geometric(p)` capped at `max`.
fn sample_degree(rng: &mut StdRng, p: f64, max: usize) -> usize {
    let mut extra = 0usize;
    while extra + 2 < max && rng.gen_bool(1.0 - p) {
        extra += 1;
    }
    2 + extra
}

/// Generates a synthetic design.
///
/// # Errors
///
/// Returns [`NetlistError::InvalidConfig`] if `cfg` fails validation.
pub fn generate(cfg: &SynthConfig) -> Result<SynthCircuit> {
    cfg.validate()?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let die = cfg.die();
    let mut circuit = Circuit::new(cfg.name.clone(), die);
    let mut cluster_of = Vec::new();
    let mut fixed_positions = Vec::new();

    // Cluster anchor centres, kept away from the die edge.
    let margin = 0.15;
    let cluster_centers: Vec<Point> = (0..cfg.n_clusters)
        .map(|_| {
            Point::new(
                die.lx + die.width() * rng.gen_range(margin..1.0 - margin),
                die.ly + die.height() * rng.gen_range(margin..1.0 - margin),
            )
        })
        .collect();

    // Movable standard cells, assigned round-robin-with-jitter to clusters
    // so cluster sizes are balanced but not identical.
    let cell_w = cfg.gcell_size * 0.25;
    let cell_h = cfg.gcell_size * 0.25;
    for i in 0..cfg.n_cells {
        let cluster =
            if rng.gen_bool(0.85) { i % cfg.n_clusters } else { rng.gen_range(0..cfg.n_clusters) };
        circuit.add_cell(Cell::movable(format!("c{i}"), cell_w, cell_h));
        cluster_of.push(cluster);
    }

    // Periphery pads: walk the die boundary, associate each pad with the
    // nearest cluster so local nets can anchor their region.
    for i in 0..cfg.n_pads {
        let t = i as f32 / cfg.n_pads.max(1) as f32;
        let peri = 2.0 * (die.width() + die.height());
        let d = t * peri;
        let pos = if d < die.width() {
            Point::new(die.lx + d, die.ly)
        } else if d < die.width() + die.height() {
            Point::new(die.ux, die.ly + (d - die.width()))
        } else if d < 2.0 * die.width() + die.height() {
            Point::new(die.ux - (d - die.width() - die.height()), die.uy)
        } else {
            Point::new(die.lx, die.uy - (d - 2.0 * die.width() - die.height()))
        };
        let id = circuit.add_cell(Cell::terminal(format!("pad{i}"), cell_w, cell_h));
        let nearest = cluster_centers
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.distance(pos).partial_cmp(&b.distance(pos)).expect("finite distances")
            })
            .map_or(0, |(k, _)| k);
        cluster_of.push(nearest);
        fixed_positions.push((id, pos));
    }

    // Macro blockages: random interior rectangles (overlaps tolerated —
    // real floorplans also abut macros).
    let mut macro_rects = Vec::new();
    let mside = cfg.macro_gcells as f32 * cfg.gcell_size;
    for i in 0..cfg.n_macros {
        let lx = die.lx
            + rng.gen_range(0.05..0.95_f32).min(1.0 - mside / die.width().max(1.0))
                * (die.width() - mside).max(0.0);
        let ly = die.ly
            + rng.gen_range(0.05..0.95_f32).min(1.0 - mside / die.height().max(1.0))
                * (die.height() - mside).max(0.0);
        let rect = Rect::new(lx, ly, lx + mside, ly + mside);
        let id = circuit.add_cell(Cell::terminal(format!("macro{i}"), mside, mside));
        let center = rect.center();
        let nearest = cluster_centers
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.distance(center).partial_cmp(&b.distance(center)).expect("finite distances")
            })
            .map_or(0, |(k, _)| k);
        cluster_of.push(nearest);
        fixed_positions.push((id, center));
        macro_rects.push(rect);
    }

    // Cluster membership lists (movable cells only, pads added for anchoring).
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); cfg.n_clusters];
    for i in 0..cfg.n_cells {
        members[cluster_of[i]].push(i as u32);
    }
    let pad_range = cfg.n_cells..cfg.n_cells + cfg.n_pads;
    let macro_range = pad_range.end..pad_range.end + cfg.n_macros;

    // Nets.
    let n_nets = ((cfg.n_cells as f32) * cfg.nets_per_cell).round() as usize;
    let half_w = cell_w * 0.4;
    let half_h = cell_h * 0.4;
    for ni in 0..n_nets {
        let degree = sample_degree(&mut rng, cfg.degree_p, cfg.max_degree);
        let global = rng.gen_bool(cfg.cross_cluster_prob);
        let cluster = rng.gen_range(0..cfg.n_clusters);
        let mut pins = Vec::with_capacity(degree);
        let mut used = std::collections::HashSet::new();
        let mut guard = 0;
        while pins.len() < degree && guard < degree * 30 {
            guard += 1;
            let cell_idx: u32 = if global {
                rng.gen_range(0..cfg.n_cells) as u32
            } else if !members[cluster].is_empty() {
                members[cluster][rng.gen_range(0..members[cluster].len())]
            } else {
                rng.gen_range(0..cfg.n_cells) as u32
            };
            if used.insert(cell_idx) {
                let offset =
                    Point::new(rng.gen_range(-half_w..=half_w), rng.gen_range(-half_h..=half_h));
                pins.push(Pin { cell: CellId(cell_idx), offset });
            }
        }
        // With small probability, attach a pad (I/O net) or a macro pin.
        if rng.gen_bool(0.08) && !pad_range.is_empty() {
            let pad = rng.gen_range(pad_range.clone()) as u32;
            pins.push(Pin::at_center(CellId(pad)));
        } else if rng.gen_bool(0.05) && !macro_range.is_empty() {
            let mac = rng.gen_range(macro_range.clone()) as u32;
            pins.push(Pin::at_center(CellId(mac)));
        }
        if pins.len() >= 2 {
            circuit.add_net(Net::new(format!("n{ni}"), pins));
        }
    }

    circuit.validate()?;
    Ok(SynthCircuit { circuit, cluster_of, cluster_centers, macro_rects, fixed_positions })
}

/// Builds the 15-design suite standing in for the ISPD-2011 + DAC-2012
/// Superblue benchmarks (Table 1 of the paper).
///
/// `scale` multiplies cell counts (1.0 ≈ 1.2–3k cells per design on a
/// 32×32…48×48 grid); designs vary in density, macro count and cluster
/// structure so their routed congestion rates spread from ≈0 % to ≈50 %.
pub fn superblue_suite(base_seed: u64, scale: f32) -> Vec<SynthConfig> {
    // (grid, density multiplier, clusters, macros, cross-cluster prob)
    // chosen to spread congestion rates; ids mirror superblue numbering.
    let specs: [(u32, f32, usize, usize, f64); 15] = [
        (36, 1.15, 6, 4, 0.14), // sb1
        (32, 1.00, 5, 3, 0.12), // sb2
        (40, 1.10, 7, 4, 0.13), // sb3
        (32, 0.90, 5, 2, 0.10), // sb4
        (36, 0.40, 6, 1, 0.06), // sb5  (low congestion)
        (32, 0.35, 4, 1, 0.05), // sb6  (low congestion)
        (40, 1.20, 8, 5, 0.15), // sb7
        (32, 0.95, 5, 3, 0.11), // sb9
        (36, 1.05, 6, 3, 0.12), // sb10
        (32, 1.60, 5, 6, 0.20), // sb11 (high congestion)
        (36, 0.85, 6, 2, 0.10), // sb12
        (32, 1.10, 5, 4, 0.13), // sb14
        (40, 1.00, 7, 3, 0.11), // sb16
        (32, 1.25, 5, 4, 0.16), // sb18
        (36, 1.45, 6, 5, 0.18), // sb19 (high congestion)
    ];
    let ids = [1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 14, 16, 18, 19];
    specs
        .iter()
        .zip(ids)
        .enumerate()
        .map(|(i, ((grid, density, clusters, macros, cross), id))| SynthConfig {
            name: format!("synthblue{id}"),
            seed: base_seed.wrapping_add(1000 + i as u64),
            grid_nx: *grid,
            grid_ny: *grid,
            n_cells: ((*grid as f32 * *grid as f32) * density * scale) as usize,
            n_clusters: *clusters,
            n_macros: *macros,
            cross_cluster_prob: *cross,
            n_pads: (*grid as usize) / 2 * 2,
            ..SynthConfig::default()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(SynthConfig::default().validate().is_ok());
    }

    #[test]
    fn generate_produces_valid_circuit() {
        let cfg = SynthConfig { n_cells: 200, ..SynthConfig::default() };
        let out = generate(&cfg).unwrap();
        assert!(out.circuit.validate().is_ok());
        assert_eq!(out.circuit.num_movable(), 200);
        assert_eq!(out.circuit.num_terminals(), cfg.n_pads + cfg.n_macros);
        assert!(out.circuit.num_nets() > 150);
        assert_eq!(out.cluster_of.len(), out.circuit.num_cells());
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig { n_cells: 150, ..SynthConfig::default() };
        let a = generate(&cfg).unwrap();
        let b = generate(&cfg).unwrap();
        assert_eq!(a.circuit, b.circuit);
        let cfg2 = SynthConfig { seed: 2, ..cfg };
        let c = generate(&cfg2).unwrap();
        assert_ne!(a.circuit, c.circuit);
    }

    #[test]
    fn degree_distribution_in_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let d = sample_degree(&mut rng, 0.45, 10);
            assert!((2..=10).contains(&d));
        }
        // heavy mass at 2 for p = 0.45
        let twos = (0..500).filter(|_| sample_degree(&mut rng, 0.45, 10) == 2).count();
        assert!(twos > 150, "twos = {twos}");
    }

    #[test]
    fn pads_sit_on_die_boundary() {
        let cfg = SynthConfig { n_cells: 100, n_pads: 8, ..SynthConfig::default() };
        let out = generate(&cfg).unwrap();
        let die = cfg.die();
        let pads = out
            .fixed_positions
            .iter()
            .filter(|(id, _)| out.circuit.cell(*id).name.starts_with("pad"));
        for (_, p) in pads {
            let on_edge = (p.x - die.lx).abs() < 1e-3
                || (p.x - die.ux).abs() < 1e-3
                || (p.y - die.ly).abs() < 1e-3
                || (p.y - die.uy).abs() < 1e-3;
            assert!(on_edge, "pad at {p:?} not on boundary");
        }
    }

    #[test]
    fn macros_lie_inside_die() {
        let cfg = SynthConfig { n_cells: 100, n_macros: 5, ..SynthConfig::default() };
        let out = generate(&cfg).unwrap();
        assert_eq!(out.macro_rects.len(), 5);
        let die = cfg.die();
        for r in &out.macro_rects {
            assert!(r.lx >= die.lx - 1e-3 && r.ux <= die.ux + 1e-3);
            assert!(r.ly >= die.ly - 1e-3 && r.uy <= die.uy + 1e-3);
        }
    }

    #[test]
    fn suite_has_15_unique_designs() {
        let suite = superblue_suite(7, 0.5);
        assert_eq!(suite.len(), 15);
        let names: std::collections::HashSet<_> = suite.iter().map(|c| c.name.clone()).collect();
        assert_eq!(names.len(), 15);
        for cfg in &suite {
            assert!(cfg.validate().is_ok(), "config {} invalid", cfg.name);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad = SynthConfig { n_cells: 1, ..SynthConfig::default() };
        assert!(bad.validate().is_err());
        let bad = SynthConfig { degree_p: 0.0, ..SynthConfig::default() };
        assert!(bad.validate().is_err());
        let bad = SynthConfig { cross_cluster_prob: 1.5, ..SynthConfig::default() };
        assert!(bad.validate().is_err());
        let bad = SynthConfig { grid_nx: 1, ..SynthConfig::default() };
        assert!(bad.validate().is_err());
    }
}
