//! Placement deltas and grid re-binning for placement-in-the-loop flows.
//!
//! A placer perturbs a handful of cells per iteration; rebuilding every
//! grid-derived structure from scratch for each query throws that locality
//! away. [`PlacementDelta`] names the cells that moved, and
//! [`rebin_delta_in_place`] applies the moves and re-bins only the
//! affected nets and pins against the G-cell grid, reporting exactly which
//! G-nets changed their covered span and which pins changed their G-cell —
//! the dirty sets every downstream incremental consumer (LH-graph,
//! features, operators) patches from.

use crate::circuit::{CellId, Circuit, NetId, Placement};
use crate::geometry::Point;
use crate::grid::{GcellCoord, GcellGrid};

/// The inclusive G-cell span `(lo, hi)` covered by a net's bounding box.
pub type GcellSpan = (GcellCoord, GcellCoord);

/// A batch of cell moves: the unit of change a placement loop emits.
///
/// Moves carry the cell's *new* centre position. A cell may appear more
/// than once; later entries win (moves apply in order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlacementDelta {
    moves: Vec<(CellId, Point)>,
}

impl PlacementDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// A delta from a list of `(cell, new position)` moves.
    pub fn from_moves(moves: Vec<(CellId, Point)>) -> Self {
        Self { moves }
    }

    /// A delta moving a single cell.
    pub fn single(cell: CellId, to: Point) -> Self {
        Self { moves: vec![(cell, to)] }
    }

    /// Appends one move.
    pub fn push(&mut self, cell: CellId, to: Point) {
        self.moves.push((cell, to));
    }

    /// The moves in application order.
    pub fn moves(&self) -> &[(CellId, Point)] {
        &self.moves
    }

    /// Number of moves (counting repeats).
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Whether the delta contains no moves.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// Applies every move to `placement`, in order.
    ///
    /// # Panics
    ///
    /// Panics if a move references a cell outside the placement.
    pub fn apply(&self, placement: &mut Placement) {
        for &(cell, to) in &self.moves {
            placement.set_position(cell, to);
        }
    }

    /// The distinct cells this delta moves, ascending.
    pub(crate) fn moved_cells(&self) -> Vec<CellId> {
        let mut cells: Vec<CellId> = self.moves.iter().map(|&(c, _)| c).collect();
        cells.sort_unstable();
        cells.dedup();
        cells
    }
}

/// How many G-cells an inclusive span covers.
pub fn span_cells((lo, hi): GcellSpan) -> usize {
    ((hi.gx - lo.gx + 1) as usize) * ((hi.gy - lo.gy + 1) as usize)
}

/// A net whose G-cell span changed under a delta.
#[derive(Debug, Clone, PartialEq)]
pub struct NetRebin {
    /// The net.
    pub net: NetId,
    /// Span before the delta (`None`: the net had no span — empty bbox).
    pub old_span: Option<GcellSpan>,
    /// Span after the delta.
    pub new_span: Option<GcellSpan>,
}

/// A pin whose G-cell changed under a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinMove {
    /// The net the pin belongs to.
    pub net: NetId,
    /// Flattened G-cell index before the delta.
    pub from: usize,
    /// Flattened G-cell index after the delta.
    pub to: usize,
}

/// What a delta dirtied, as seen by the G-cell grid.
///
/// Nets whose bounding box moved *within* its old span, and pins that
/// stayed inside their G-cell, are correctly absent: they change nothing
/// grid-derived.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DirtyReport {
    /// Nets whose covered span changed (sorted by net id).
    pub net_rebins: Vec<NetRebin>,
    /// Pins that crossed a G-cell boundary.
    pub pin_moves: Vec<PinMove>,
    /// Whether any moved cell is a terminal (terminal-coverage masks must
    /// be refreshed).
    pub moved_terminal: bool,
    /// Number of distinct cells that actually changed position.
    pub moved_cells: usize,
}

impl DirtyReport {
    /// Whether the delta changed nothing grid-derived.
    pub fn is_clean(&self) -> bool {
        self.net_rebins.is_empty() && self.pin_moves.is_empty() && !self.moved_terminal
    }
}

/// Applies `delta` to `placement` and re-bins the nets and pins it
/// affected against `grid`. The pre-move state is read out before
/// mutation, so no placement copy is made — the per-update cost stays
/// proportional to the delta, which is what a hot placement loop needs.
/// `cell_to_nets` is the adjacency from [`Circuit::cell_to_nets`] (built
/// once per design, reused across deltas).
///
/// # Panics
///
/// Panics if the delta references a cell outside the circuit.
pub fn rebin_delta_in_place(
    circuit: &Circuit,
    grid: &GcellGrid,
    placement: &mut Placement,
    delta: &PlacementDelta,
    cell_to_nets: &[Vec<NetId>],
) -> DirtyReport {
    // Final position per distinct touched cell (later moves win), kept
    // alongside for the effective-move filter.
    let touched = delta.moved_cells();
    let mut final_pos: Vec<Point> = touched.iter().map(|&c| placement.position(c)).collect();
    for &(cell, to) in delta.moves() {
        let slot = touched.binary_search(&cell).expect("moved cell is touched");
        final_pos[slot] = to;
    }
    let moved: Vec<CellId> = touched
        .iter()
        .zip(&final_pos)
        .filter(|&(&c, &fp)| placement.position(c) != fp)
        .map(|(&c, _)| c)
        .collect();

    let moved_terminal = moved.iter().any(|&c| circuit.cell(c).is_terminal());

    // Nets touching any moved cell, each re-binned once.
    let mut nets: Vec<NetId> =
        moved.iter().flat_map(|&c| cell_to_nets[c.index()].iter().copied()).collect();
    nets.sort_unstable();
    nets.dedup();

    // Phase 1 — before mutating: old spans and old pin g-cells.
    let old_spans: Vec<Option<GcellSpan>> =
        nets.iter().map(|&n| grid.span(&placement.net_bbox(circuit.net(n)))).collect();
    let mut pin_moves = Vec::new();
    for &cell in &moved {
        for &net_id in &cell_to_nets[cell.index()] {
            for pin in &circuit.net(net_id).pins {
                if pin.cell == cell {
                    let from = grid.index(grid.locate(placement.pin_position(pin)));
                    pin_moves.push(PinMove { net: net_id, from, to: from });
                }
            }
        }
    }

    delta.apply(placement);

    // Phase 2 — after mutating: new spans and new pin g-cells.
    let mut net_rebins = Vec::new();
    for (&net_id, &old_span) in nets.iter().zip(&old_spans) {
        let new_span = grid.span(&placement.net_bbox(circuit.net(net_id)));
        if old_span != new_span {
            net_rebins.push(NetRebin { net: net_id, old_span, new_span });
        }
    }
    let mut slot = 0;
    for &cell in &moved {
        for &net_id in &cell_to_nets[cell.index()] {
            for pin in &circuit.net(net_id).pins {
                if pin.cell == cell {
                    pin_moves[slot].to = grid.index(grid.locate(placement.pin_position(pin)));
                    slot += 1;
                }
            }
        }
    }
    debug_assert_eq!(slot, pin_moves.len());
    pin_moves.retain(|pm| pm.from != pm.to);

    DirtyReport { net_rebins, pin_moves, moved_terminal, moved_cells: moved.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Cell, Net, Pin};
    use crate::geometry::Rect;

    /// 4x4 grid over an 8x8 die; 2 two-pin nets sharing cell `b`.
    fn fixture() -> (Circuit, Placement, GcellGrid, Vec<Vec<NetId>>) {
        let die = Rect::new(0.0, 0.0, 8.0, 8.0);
        let grid = GcellGrid::new(die, 4, 4);
        let mut c = Circuit::new("d", die);
        let a = c.add_cell(Cell::movable("a", 0.2, 0.2));
        let b = c.add_cell(Cell::movable("b", 0.2, 0.2));
        let t = c.add_cell(Cell::terminal("t", 0.5, 0.5));
        c.add_net(Net::new("n0", vec![Pin::at_center(a), Pin::at_center(b)]));
        c.add_net(Net::new("n1", vec![Pin::at_center(b), Pin::at_center(t)]));
        let mut p = Placement::zeroed(3);
        p.set_position(a, Point::new(1.0, 1.0));
        p.set_position(b, Point::new(3.0, 1.0));
        p.set_position(t, Point::new(7.0, 7.0));
        let map = c.cell_to_nets();
        (c, p, grid, map)
    }

    #[test]
    fn delta_applies_in_order_and_dedups_moved_cells() {
        let (_, mut p, ..) = fixture();
        let mut d = PlacementDelta::new();
        d.push(CellId(0), Point::new(5.0, 5.0));
        d.push(CellId(0), Point::new(6.0, 6.0)); // later move wins
        assert_eq!(d.len(), 2);
        assert_eq!(d.moved_cells(), vec![CellId(0)]);
        d.apply(&mut p);
        assert_eq!(p.position(CellId(0)), Point::new(6.0, 6.0));
    }

    #[test]
    fn noop_move_is_clean() {
        let (c, mut p, grid, map) = fixture();
        let d = PlacementDelta::single(CellId(0), p.position(CellId(0)));
        let report = rebin_delta_in_place(&c, &grid, &mut p, &d, &map);
        assert!(report.is_clean());
        assert_eq!(report.moved_cells, 0);
    }

    #[test]
    fn move_within_gcell_dirties_nothing() {
        let (c, mut p, grid, map) = fixture();
        // a sits at (1,1) inside g-cell (0,0) spanning [0,2)x[0,2): nudge
        // it without leaving the cell
        let d = PlacementDelta::single(CellId(0), Point::new(1.5, 1.5));
        let report = rebin_delta_in_place(&c, &grid, &mut p, &d, &map);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.moved_cells, 1);
    }

    #[test]
    fn crossing_a_gcell_reports_net_and_pin() {
        let (c, mut p, grid, map) = fixture();
        let d = PlacementDelta::single(CellId(0), Point::new(1.0, 5.0)); // (0,0) -> (0,2)
        let report = rebin_delta_in_place(&c, &grid, &mut p, &d, &map);
        assert_eq!(p.position(CellId(0)), Point::new(1.0, 5.0), "the move is applied");
        assert_eq!(report.net_rebins.len(), 1);
        assert_eq!(report.net_rebins[0].net, NetId(0));
        assert_eq!(report.pin_moves.len(), 1);
        assert_eq!(report.pin_moves[0].from, grid.index(GcellCoord { gx: 0, gy: 0 }));
        assert_eq!(report.pin_moves[0].to, grid.index(GcellCoord { gx: 0, gy: 2 }));
        assert!(!report.moved_terminal);
    }

    #[test]
    fn shared_cell_dirties_both_nets_once_each() {
        let (c, mut p, grid, map) = fixture();
        let d = PlacementDelta::single(CellId(1), Point::new(5.0, 5.0));
        let report = rebin_delta_in_place(&c, &grid, &mut p, &d, &map);
        let nets: Vec<NetId> = report.net_rebins.iter().map(|r| r.net).collect();
        assert_eq!(nets, vec![NetId(0), NetId(1)]);
        assert_eq!(report.pin_moves.len(), 2, "one pin move per net on the shared cell");
    }

    #[test]
    fn terminal_move_is_flagged() {
        let (c, mut p, grid, map) = fixture();
        let d = PlacementDelta::single(CellId(2), Point::new(1.0, 7.0));
        let report = rebin_delta_in_place(&c, &grid, &mut p, &d, &map);
        assert!(report.moved_terminal);
    }
}
