//! Node features of the LH-graph and the crafted-feature recovery of §3.2.
//!
//! G-net features (`V_n`, 4 channels): `spanV`, `spanH`, `npin`, `area`.
//! G-cell features (`V_c`, 4 channels): horizontal net density, vertical
//! net density, pin density, terminal mask — exactly the channels the
//! paper assigns in §3.1.
//!
//! §3.2 shows that the CNN-style crafted maps are recoverable by one-step
//! G-net → G-cell message passing: [`recover_net_density`] reproduces the
//! density maps *exactly*, and pin density / RUDY are recovered in
//! expectation. These functions are unit-tested against the direct
//! computations below.

use neurograd::Matrix;
use vlsi_netlist::{CellKind, Circuit, DirtyReport, GcellGrid, Placement, Rect};

use crate::error::{LhGraphError, Result};
use crate::graph::{GraphPatch, LhGraph};

/// Column layout of the G-net feature matrix.
pub mod gnet_channel {
    /// Vertical span in G-cells.
    pub(crate) const SPAN_V: usize = 0;
    /// Horizontal span in G-cells.
    pub(crate) const SPAN_H: usize = 1;
    /// Number of pins of the underlying net.
    pub(crate) const NPIN: usize = 2;
    /// Number of G-cells covered (`spanH · spanV`).
    pub(crate) const AREA: usize = 3;
    /// Total number of G-net channels.
    pub const COUNT: usize = 4;
}

/// Column layout of the G-cell feature matrix.
pub mod gcell_channel {
    /// Horizontal net density.
    pub const NET_DENSITY_H: usize = 0;
    /// Vertical net density.
    pub(crate) const NET_DENSITY_V: usize = 1;
    /// Pin density (pins per G-cell).
    pub const PIN_DENSITY: usize = 2;
    /// Terminal coverage mask (1 if any terminal overlaps the G-cell).
    pub(crate) const TERMINAL_MASK: usize = 3;
    /// Total number of G-cell channels.
    pub const COUNT: usize = 4;
}

/// The input features of one LH-graph.
#[derive(Debug, Clone)]
pub struct FeatureSet {
    /// `V_n⁰`: `N_n × 4` G-net features.
    pub gnet: Matrix,
    /// `V_c⁰`: `N_c × 4` G-cell features.
    pub gcell: Matrix,
}

impl FeatureSet {
    /// Computes the features for a graph built from the same
    /// `(circuit, placement, grid)` triple.
    ///
    /// # Errors
    ///
    /// Returns [`LhGraphError::GridShape`] if `graph` was built on a
    /// different grid.
    pub fn build(
        graph: &LhGraph,
        circuit: &Circuit,
        placement: &Placement,
        grid: &GcellGrid,
    ) -> Result<Self> {
        if graph.nx() != grid.nx() as usize || graph.ny() != grid.ny() as usize {
            return Err(LhGraphError::grid_shape(
                (graph.nx(), graph.ny()),
                (grid.nx() as usize, grid.ny() as usize),
            ));
        }
        let n_n = graph.num_gnets();
        let n_c = graph.num_gcells();

        // --- G-net features (tombstoned columns keep all-zero rows) ---
        let mut gnet = Matrix::zeros(n_n.max(1), gnet_channel::COUNT);
        for (j, net_id) in graph.kept_nets().iter().enumerate() {
            if graph.is_tombstone(j) {
                continue;
            }
            let net = circuit.net(*net_id);
            let bbox = placement.net_bbox(net);
            let (lo, hi) = grid.span(&bbox).expect("live g-net has a span");
            let span_h = (hi.gx - lo.gx + 1) as f32;
            let span_v = (hi.gy - lo.gy + 1) as f32;
            gnet[(j, gnet_channel::SPAN_V)] = span_v;
            gnet[(j, gnet_channel::SPAN_H)] = span_h;
            gnet[(j, gnet_channel::NPIN)] = net.degree() as f32;
            gnet[(j, gnet_channel::AREA)] = span_h * span_v;
        }

        // --- G-cell features ---
        let mut gcell = Matrix::zeros(n_c, gcell_channel::COUNT);
        // net density: iterate live g-nets, add 1/span to covered cells
        for (j, net_id) in graph.kept_nets().iter().enumerate() {
            if graph.is_tombstone(j) {
                continue;
            }
            let net = circuit.net(*net_id);
            let bbox = placement.net_bbox(net);
            let (lo, hi) = grid.span(&bbox).expect("live g-net has a span");
            let span_v = gnet[(j, gnet_channel::SPAN_V)];
            let span_h = gnet[(j, gnet_channel::SPAN_H)];
            for c in grid.iter_span(lo, hi) {
                let idx = grid.index(c);
                gcell[(idx, gcell_channel::NET_DENSITY_H)] += 1.0 / span_v;
                gcell[(idx, gcell_channel::NET_DENSITY_V)] += 1.0 / span_h;
            }
        }
        // pin density: actual pin positions (over live kept nets, so that
        // the one-step recovery statement of §3.2 holds exactly in total
        // mass)
        for (j, net_id) in graph.kept_nets().iter().enumerate() {
            if graph.is_tombstone(j) {
                continue;
            }
            for pin in &circuit.net(*net_id).pins {
                let idx = grid.index(grid.locate(placement.pin_position(pin)));
                gcell[(idx, gcell_channel::PIN_DENSITY)] += 1.0;
            }
        }
        // terminal mask
        paint_terminal_mask(&mut gcell, circuit, placement, grid);

        Ok(Self { gnet, gcell })
    }

    /// Patches this feature set for a placement delta, given the graph
    /// patch from [`LhGraph::apply_delta`] and the re-binning report the
    /// patch was computed from.
    ///
    /// Only dirty G-net rows and dirty G-cell rows are recomputed; pin
    /// density is adjusted by exact ±1 counts per crossed G-cell boundary,
    /// with nets crossing the size filter bulk-removed/added at their
    /// pins' positions; tombstoned G-net rows are zeroed and appended
    /// columns grow the G-net block. The terminal mask is repainted only
    /// when a terminal moved. The result is **bitwise identical** to
    /// `FeatureSet::build` on the patched graph at the new placement.
    ///
    /// # Errors
    ///
    /// Returns [`LhGraphError::GridShape`] /
    /// [`LhGraphError::DimensionMismatch`] if the patch does not belong to
    /// this feature set's graph and grid.
    pub fn apply_delta(
        &self,
        patch: &GraphPatch,
        report: &DirtyReport,
        circuit: &Circuit,
        placement: &Placement,
        grid: &GcellGrid,
    ) -> Result<FeatureSet> {
        let graph = &patch.graph;
        if graph.nx() != grid.nx() as usize || graph.ny() != grid.ny() as usize {
            return Err(LhGraphError::grid_shape(
                (graph.nx(), graph.ny()),
                (grid.nx() as usize, grid.ny() as usize),
            ));
        }
        if self.gcell.rows() != graph.num_gcells() || self.gnet.rows() != patch.old_gnets.max(1) {
            return Err(LhGraphError::DimensionMismatch(format!(
                "feature set describes {} g-cells / {} g-nets, patch {} / {}",
                self.gcell.rows(),
                self.gnet.rows(),
                graph.num_gcells(),
                patch.old_gnets
            )));
        }
        // Appended columns grow the G-net block (new rows start zeroed,
        // exactly like the full build before its per-column fill).
        let mut gnet = if graph.num_gnets() > patch.old_gnets {
            let mut grown = Matrix::zeros(graph.num_gnets(), gnet_channel::COUNT);
            let old = self.gnet.as_slice();
            grown.as_mut_slice()[..old.len()].copy_from_slice(old);
            grown
        } else {
            self.gnet.clone()
        };
        let mut gcell = self.gcell.clone();

        // Tombstoned G-net rows zero out (the full build skips them).
        for &j in &patch.tombstoned_cols {
            gnet.row_mut(j).fill(0.0);
        }

        // Dirty G-net rows: span features from the patched spans.
        for &j in &patch.dirty_cols {
            let net = circuit.net(graph.kept_nets()[j]);
            let (lo, hi) = graph.span_of(j);
            let span_h = (hi.gx - lo.gx + 1) as f32;
            let span_v = (hi.gy - lo.gy + 1) as f32;
            gnet[(j, gnet_channel::SPAN_V)] = span_v;
            gnet[(j, gnet_channel::SPAN_H)] = span_h;
            gnet[(j, gnet_channel::NPIN)] = net.degree() as f32;
            gnet[(j, gnet_channel::AREA)] = span_h * span_v;
        }

        // Dirty G-cell rows: re-accumulate net density from the patched
        // incidence row. Entries are in ascending column order — the same
        // accumulation order as the full build's outer loop over kept
        // nets, so the float sums are bitwise identical. (Tombstoned
        // columns have no incidence entries, so their zeroed feature rows
        // are never read here.)
        for &r in &patch.dirty_rows {
            let mut h = 0.0f32;
            let mut v = 0.0f32;
            for (j, _) in graph.incidence().row_entries(r) {
                h += 1.0 / gnet[(j, gnet_channel::SPAN_V)];
                v += 1.0 / gnet[(j, gnet_channel::SPAN_H)];
            }
            gcell[(r, gcell_channel::NET_DENSITY_H)] = h;
            gcell[(r, gcell_channel::NET_DENSITY_V)] = v;
        }

        // Pin density holds exact integer counts, so ±1 adjustments are
        // exact and order-independent. Nets crossing the size filter are
        // bulk-adjusted at their pins' *new* positions: a crossed-out
        // net's pins all leave the count, a crossed-in net's pins all
        // enter it.
        for &net_id in &patch.crossed_out {
            for pin in &circuit.net(net_id).pins {
                let idx = grid.index(grid.locate(placement.pin_position(pin)));
                gcell[(idx, gcell_channel::PIN_DENSITY)] -= 1.0;
            }
        }
        for &net_id in &patch.crossed_in {
            for pin in &circuit.net(net_id).pins {
                let idx = grid.index(grid.locate(placement.pin_position(pin)));
                gcell[(idx, gcell_channel::PIN_DENSITY)] += 1.0;
            }
        }
        for pm in &report.pin_moves {
            if patch.crossed_in.binary_search(&pm.net).is_ok() {
                // already counted in full at the new position above
                continue;
            }
            if patch.crossed_out.binary_search(&pm.net).is_ok() {
                // the bulk -1 hit the pin's new g-cell; it belonged at the
                // old one
                gcell[(pm.to, gcell_channel::PIN_DENSITY)] += 1.0;
                gcell[(pm.from, gcell_channel::PIN_DENSITY)] -= 1.0;
                continue;
            }
            if graph.net_column(pm.net).is_none() {
                continue;
            }
            gcell[(pm.from, gcell_channel::PIN_DENSITY)] -= 1.0;
            gcell[(pm.to, gcell_channel::PIN_DENSITY)] += 1.0;
        }

        if report.moved_terminal {
            for r in 0..gcell.rows() {
                gcell[(r, gcell_channel::TERMINAL_MASK)] = 0.0;
            }
            paint_terminal_mask(&mut gcell, circuit, placement, grid);
        }

        Ok(FeatureSet { gnet, gcell })
    }

    /// A content fingerprint over both feature blocks.
    ///
    /// Two feature sets fingerprint equal iff their matrices are bitwise
    /// equal, so an unchanged placement always maps to the same serving
    /// cache key while any feature perturbation (normalisation choice,
    /// moved cell) produces a different one.
    pub fn fingerprint(&self) -> u64 {
        let mut h = neurograd::Fnv64::new();
        self.gnet.hash_into(&mut h);
        self.gcell.hash_into(&mut h);
        h.finish()
    }

    /// Returns a copy with every G-cell channel except the terminal mask
    /// zeroed — the "no G-cell feature" ablation of Table 3.
    pub fn without_gcell_features(&self) -> FeatureSet {
        let mut gcell = self.gcell.clone();
        for r in 0..gcell.rows() {
            let row = gcell.row_mut(r);
            row[gcell_channel::NET_DENSITY_H] = 0.0;
            row[gcell_channel::NET_DENSITY_V] = 0.0;
            row[gcell_channel::PIN_DENSITY] = 0.0;
        }
        FeatureSet { gnet: self.gnet.clone(), gcell }
    }

    /// Per-channel min-max normalisation of both feature blocks into
    /// `[0, 1]` (constant channels map to 0). Returns a new set.
    ///
    /// Note: min-max scaling is *per design*, which erases the absolute
    /// demand level that distinguishes congested from uncongested designs.
    /// Cross-design experiments should prefer [`FeatureSet::scaled_fixed`].
    pub fn normalized(&self) -> FeatureSet {
        FeatureSet { gnet: minmax(&self.gnet), gcell: minmax(&self.gcell) }
    }

    /// Scales each channel by a fixed dataset-wide divisor, preserving
    /// absolute magnitudes across designs (so a globally dense design
    /// *looks* denser than a sparse one — the signal models need for the
    /// per-design congestion-level calibration shown in Figure 4 of the
    /// paper).
    ///
    /// # Panics
    ///
    /// Panics if divisor counts don't match the channel counts or any
    /// divisor is non-positive.
    pub fn scaled_fixed(&self, gcell_divisors: &[f32], gnet_divisors: &[f32]) -> FeatureSet {
        assert_eq!(gcell_divisors.len(), self.gcell.cols(), "gcell divisor count");
        assert_eq!(gnet_divisors.len(), self.gnet.cols(), "gnet divisor count");
        assert!(
            gcell_divisors.iter().chain(gnet_divisors).all(|&d| d > 0.0),
            "divisors must be positive"
        );
        let scale = |m: &Matrix, divs: &[f32]| {
            let mut out = m.clone();
            for r in 0..out.rows() {
                for (v, &d) in out.row_mut(r).iter_mut().zip(divs) {
                    *v /= d;
                }
            }
            out
        };
        FeatureSet {
            gnet: scale(&self.gnet, gnet_divisors),
            gcell: scale(&self.gcell, gcell_divisors),
        }
    }

    /// The default fixed divisors used by the reproduction's experiments:
    /// net-density and pin-density channels are divided by 8 (typical
    /// magnitudes at the suite's grid sizes), the terminal mask kept
    /// binary; G-net spans by 8, pin count by 8, area by 64.
    pub fn default_divisors() -> (Vec<f32>, Vec<f32>) {
        (vec![8.0, 8.0, 8.0, 1.0], vec![8.0, 8.0, 8.0, 64.0])
    }
}

/// Sets the terminal-coverage channel: 1 for every G-cell a terminal's
/// rectangle overlaps with positive area. Shared by the full build and the
/// incremental repaint (assignment of a constant is order-independent, so
/// both paths agree bitwise).
fn paint_terminal_mask(
    gcell: &mut Matrix,
    circuit: &Circuit,
    placement: &Placement,
    grid: &GcellGrid,
) {
    for (i, cell) in circuit.cells().iter().enumerate() {
        if cell.kind != CellKind::Terminal {
            continue;
        }
        let p = placement.position(vlsi_netlist::CellId(i as u32));
        let rect = Rect::new(
            p.x - cell.width * 0.5,
            p.y - cell.height * 0.5,
            p.x + cell.width * 0.5,
            p.y + cell.height * 0.5,
        );
        let Some((lo, hi)) = grid.span(&rect) else { continue };
        for c in grid.iter_span(lo, hi) {
            if grid.gcell_rect(c).intersection(&rect).is_some_and(|r| r.area() > 0.0) {
                gcell[(grid.index(c), gcell_channel::TERMINAL_MASK)] = 1.0;
            }
        }
    }
}

fn minmax(m: &Matrix) -> Matrix {
    let (rows, cols) = m.shape();
    let mut out = m.clone();
    for c in 0..cols {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for r in 0..rows {
            lo = lo.min(m[(r, c)]);
            hi = hi.max(m[(r, c)]);
        }
        let range = hi - lo;
        for r in 0..rows {
            out[(r, c)] = if range > 0.0 { (m[(r, c)] - lo) / range } else { 0.0 };
        }
    }
    out
}

/// The shared §3.2 recovery recipe: one-step sum message passing
/// `H · f(V_n)` where column `k` of the G-net message is `channels[k]`
/// applied to that G-net's feature row. Every crafted-map recovery below
/// is an instance of this gather with a different per-net function.
fn recover_by_gather(
    graph: &LhGraph,
    gnet_features: &Matrix,
    channels: &[&dyn Fn(&[f32]) -> f32],
) -> Matrix {
    let n_n = graph.num_gnets();
    let mut msg = Matrix::zeros(n_n.max(1), channels.len());
    for j in 0..n_n {
        let row = gnet_features.row(j);
        for (k, f) in channels.iter().enumerate() {
            msg[(j, k)] = f(row);
        }
    }
    graph.gnc_sum().spmm(&msg)
}

/// §3.2: recovers the horizontal/vertical net-density maps by one-step
/// sum message passing `H · f(V_n)` with `f = [1/spanV, 1/spanH]`.
///
/// Returns an `N_c × 2` matrix whose columns equal the direct density
/// computation exactly.
pub fn recover_net_density(graph: &LhGraph, gnet_features: &Matrix) -> Matrix {
    recover_by_gather(
        graph,
        gnet_features,
        &[&|r| 1.0 / r[gnet_channel::SPAN_V], &|r| 1.0 / r[gnet_channel::SPAN_H]],
    )
}

/// §3.2: recovers the expected pin-density map by one-step sum message
/// passing with `f = npin / area` (exact in total mass, approximate per
/// cell).
pub fn recover_pin_density(graph: &LhGraph, gnet_features: &Matrix) -> Matrix {
    recover_by_gather(graph, gnet_features, &[&|r| r[gnet_channel::NPIN] / r[gnet_channel::AREA]])
}

/// §3.2: recovers the RUDY-like map by one-step sum message passing with
/// `f = npin · (spanH + spanV) / area`.
pub fn recover_rudy(graph: &LhGraph, gnet_features: &Matrix) -> Matrix {
    recover_by_gather(
        graph,
        gnet_features,
        &[&|r| {
            r[gnet_channel::NPIN] * (r[gnet_channel::SPAN_H] + r[gnet_channel::SPAN_V])
                / r[gnet_channel::AREA]
        }],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LhGraphConfig;
    use vlsi_netlist::synth::{generate, SynthConfig};
    use vlsi_netlist::{Cell, Net, Pin, Point};
    use vlsi_place::GlobalPlacer;

    fn synth_graph() -> (LhGraph, FeatureSet, Circuit, Placement, GcellGrid) {
        let cfg = SynthConfig { n_cells: 200, grid_nx: 12, grid_ny: 12, ..SynthConfig::default() };
        let synth = generate(&cfg).unwrap();
        let grid = cfg.grid();
        let placed = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        let graph =
            LhGraph::build(&synth.circuit, &placed.placement, &grid, &LhGraphConfig::default())
                .unwrap();
        let feats = FeatureSet::build(&graph, &synth.circuit, &placed.placement, &grid).unwrap();
        (graph, feats, synth.circuit, placed.placement, grid)
    }

    #[test]
    fn feature_shapes_match_graph() {
        let (graph, feats, ..) = synth_graph();
        assert_eq!(feats.gnet.shape(), (graph.num_gnets(), 4));
        assert_eq!(feats.gcell.shape(), (graph.num_gcells(), 4));
    }

    #[test]
    fn gnet_area_equals_span_product_and_matches_incidence() {
        let (graph, feats, ..) = synth_graph();
        let col_sums = graph.incidence().col_sums();
        for j in 0..graph.num_gnets() {
            let area = feats.gnet[(j, gnet_channel::AREA)];
            let sv = feats.gnet[(j, gnet_channel::SPAN_V)];
            let sh = feats.gnet[(j, gnet_channel::SPAN_H)];
            assert!((area - sv * sh).abs() < 1e-5);
            assert!((area - col_sums[j]).abs() < 1e-4, "area {area} vs incidence {}", col_sums[j]);
        }
    }

    #[test]
    fn net_density_recovery_is_exact() {
        // the central claim of §3.2: one-step message passing == crafted map
        let (graph, feats, ..) = synth_graph();
        let recovered = recover_net_density(&graph, &feats.gnet);
        for i in 0..graph.num_gcells() {
            assert!(
                (recovered[(i, 0)] - feats.gcell[(i, gcell_channel::NET_DENSITY_H)]).abs() < 1e-3,
                "h density mismatch at {i}"
            );
            assert!(
                (recovered[(i, 1)] - feats.gcell[(i, gcell_channel::NET_DENSITY_V)]).abs() < 1e-3,
                "v density mismatch at {i}"
            );
        }
    }

    #[test]
    fn pin_density_recovery_preserves_total_mass() {
        let (graph, feats, ..) = synth_graph();
        let recovered = recover_pin_density(&graph, &feats.gnet);
        let direct_total: f32 =
            (0..graph.num_gcells()).map(|i| feats.gcell[(i, gcell_channel::PIN_DENSITY)]).sum();
        let rec_total = recovered.sum();
        assert!(
            (direct_total - rec_total).abs() < direct_total * 0.01 + 1e-3,
            "direct {direct_total} vs recovered {rec_total}"
        );
    }

    #[test]
    fn pin_density_recovery_correlates_with_direct() {
        let (graph, feats, ..) = synth_graph();
        let recovered = recover_pin_density(&graph, &feats.gnet);
        let a: Vec<f32> =
            (0..graph.num_gcells()).map(|i| feats.gcell[(i, gcell_channel::PIN_DENSITY)]).collect();
        let b: Vec<f32> = (0..graph.num_gcells()).map(|i| recovered[(i, 0)]).collect();
        let corr = pearson(&a, &b);
        assert!(corr > 0.5, "correlation too low: {corr}");
    }

    /// Pins the shared-gather refactor to the original per-function
    /// implementations: message built channel-by-channel with explicit
    /// loops, then `H · msg` — outputs must match bitwise.
    #[test]
    fn recovery_helpers_match_pre_refactor_outputs_bitwise() {
        let (graph, feats, ..) = synth_graph();
        let n_n = graph.num_gnets();
        let g = &feats.gnet;

        let mut density_msg = Matrix::zeros(n_n.max(1), 2);
        let mut pin_msg = Matrix::zeros(n_n.max(1), 1);
        let mut rudy_msg = Matrix::zeros(n_n.max(1), 1);
        for j in 0..n_n {
            density_msg[(j, 0)] = 1.0 / g[(j, gnet_channel::SPAN_V)];
            density_msg[(j, 1)] = 1.0 / g[(j, gnet_channel::SPAN_H)];
            pin_msg[(j, 0)] = g[(j, gnet_channel::NPIN)] / g[(j, gnet_channel::AREA)];
            rudy_msg[(j, 0)] = g[(j, gnet_channel::NPIN)]
                * (g[(j, gnet_channel::SPAN_H)] + g[(j, gnet_channel::SPAN_V)])
                / g[(j, gnet_channel::AREA)];
        }
        let pairs = [
            (recover_net_density(&graph, g), graph.gnc_sum().spmm(&density_msg)),
            (recover_pin_density(&graph, g), graph.gnc_sum().spmm(&pin_msg)),
            (recover_rudy(&graph, g), graph.gnc_sum().spmm(&rudy_msg)),
        ];
        for (shared, direct) in &pairs {
            assert_eq!(
                shared.fingerprint(),
                direct.fingerprint(),
                "gather refactor must reproduce the original maps bitwise"
            );
        }
    }

    #[test]
    fn grid_shape_mismatch_reports_both_extents() {
        let (graph, _, circuit, placement, _) = synth_graph();
        let other = GcellGrid::new(Rect::new(0.0, 0.0, 8.0, 8.0), 5, 3);
        let err = FeatureSet::build(&graph, &circuit, &placement, &other).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("12x12 = 144"), "expected extents missing: {msg}");
        assert!(msg.contains("5x3 = 15"), "actual extents missing: {msg}");
    }

    #[test]
    fn rudy_recovery_is_positive_where_nets_exist() {
        let (graph, feats, ..) = synth_graph();
        let rudy = recover_rudy(&graph, &feats.gnet);
        assert!(rudy.sum() > 0.0);
        assert!(rudy.as_slice().iter().all(|&v| v >= 0.0));
    }

    fn pearson(a: &[f32], b: &[f32]) -> f32 {
        let n = a.len() as f32;
        let ma = a.iter().sum::<f32>() / n;
        let mb = b.iter().sum::<f32>() / n;
        let cov: f32 = a.iter().zip(b).map(|(&x, &y)| (x - ma) * (y - mb)).sum();
        let va: f32 = a.iter().map(|&x| (x - ma) * (x - ma)).sum();
        let vb: f32 = b.iter().map(|&y| (y - mb) * (y - mb)).sum();
        cov / (va.sqrt() * vb.sqrt()).max(1e-9)
    }

    #[test]
    fn terminal_mask_marks_macro_gcells() {
        let die = Rect::new(0.0, 0.0, 8.0, 8.0);
        let grid = GcellGrid::new(die, 4, 4);
        let mut c = Circuit::new("t", die);
        let m = c.add_cell(Cell::terminal("macro", 4.0, 4.0));
        let a = c.add_cell(Cell::movable("a", 0.2, 0.2));
        let b = c.add_cell(Cell::movable("b", 0.2, 0.2));
        c.add_net(Net::new("n", vec![Pin::at_center(a), Pin::at_center(b)]));
        let mut p = Placement::zeroed(3);
        p.set_position(m, Point::new(2.0, 2.0)); // covers lower-left 2x2 gcells
        p.set_position(a, Point::new(5.0, 5.0));
        p.set_position(b, Point::new(7.0, 7.0));
        let graph = LhGraph::build(
            &c,
            &p,
            &grid,
            &LhGraphConfig { max_gnet_fraction: 1.0, ..Default::default() },
        )
        .unwrap();
        let feats = FeatureSet::build(&graph, &c, &p, &grid).unwrap();
        let mask_at = |gx: u32, gy: u32| {
            feats.gcell
                [(grid.index(vlsi_netlist::GcellCoord { gx, gy }), gcell_channel::TERMINAL_MASK)]
        };
        assert_eq!(mask_at(0, 0), 1.0);
        assert_eq!(mask_at(1, 1), 1.0);
        assert_eq!(mask_at(3, 3), 0.0);
    }

    #[test]
    fn ablated_features_keep_only_terminal_mask() {
        let (_, feats, ..) = synth_graph();
        let ablated = feats.without_gcell_features();
        for r in 0..ablated.gcell.rows() {
            assert_eq!(ablated.gcell[(r, gcell_channel::NET_DENSITY_H)], 0.0);
            assert_eq!(ablated.gcell[(r, gcell_channel::NET_DENSITY_V)], 0.0);
            assert_eq!(ablated.gcell[(r, gcell_channel::PIN_DENSITY)], 0.0);
            assert_eq!(
                ablated.gcell[(r, gcell_channel::TERMINAL_MASK)],
                feats.gcell[(r, gcell_channel::TERMINAL_MASK)]
            );
        }
        assert_eq!(ablated.gnet, feats.gnet);
    }

    #[test]
    fn normalized_features_are_in_unit_range() {
        let (_, feats, ..) = synth_graph();
        let n = feats.normalized();
        for &v in n.gcell.as_slice().iter().chain(n.gnet.as_slice()) {
            assert!((0.0..=1.0).contains(&v), "value {v} outside [0,1]");
        }
    }
}
