//! Net decomposition: pins → G-cell terminals → 2-pin segments.
//!
//! Multi-pin nets are decomposed with a rectilinear Prim MST over the
//! distinct G-cells containing pins, the standard topology-generation step
//! before pattern/maze routing in global routers.

use vlsi_netlist::{GcellCoord, GcellGrid, Net, Placement};

/// A 2-pin routing task between two G-cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Source G-cell.
    pub from: GcellCoord,
    /// Destination G-cell.
    pub to: GcellCoord,
}

impl Segment {
    /// Manhattan length in G-cells.
    pub fn manhattan_len(&self) -> u32 {
        self.from.gx.abs_diff(self.to.gx) + self.from.gy.abs_diff(self.to.gy)
    }
}

/// The distinct G-cells containing the net's pins, in deterministic
/// (sorted) order.
pub(crate) fn net_terminals(net: &Net, placement: &Placement, grid: &GcellGrid) -> Vec<GcellCoord> {
    let mut cells: Vec<GcellCoord> =
        net.pins.iter().map(|pin| grid.locate(placement.pin_position(pin))).collect();
    cells.sort_unstable_by_key(|c| (c.gy, c.gx));
    cells.dedup();
    cells
}

fn manhattan(a: GcellCoord, b: GcellCoord) -> u32 {
    a.gx.abs_diff(b.gx) + a.gy.abs_diff(b.gy)
}

/// Builds the rectilinear MST over `terminals` with Prim's algorithm.
///
/// Returns one [`Segment`] per MST edge (empty for fewer than 2
/// terminals). Deterministic: ties are broken by terminal order.
pub fn mst_segments(terminals: &[GcellCoord]) -> Vec<Segment> {
    let n = terminals.len();
    if n < 2 {
        return Vec::new();
    }
    let mut in_tree = vec![false; n];
    let mut best_dist = vec![u32::MAX; n];
    let mut best_parent = vec![0usize; n];
    in_tree[0] = true;
    for i in 1..n {
        best_dist[i] = manhattan(terminals[0], terminals[i]);
    }
    let mut segments = Vec::with_capacity(n - 1);
    for _ in 1..n {
        // pick the closest out-of-tree terminal (lowest index on ties)
        let mut pick = usize::MAX;
        let mut pick_dist = u32::MAX;
        for i in 0..n {
            if !in_tree[i] && best_dist[i] < pick_dist {
                pick = i;
                pick_dist = best_dist[i];
            }
        }
        debug_assert!(pick != usize::MAX, "disconnected prim state");
        in_tree[pick] = true;
        segments.push(Segment { from: terminals[best_parent[pick]], to: terminals[pick] });
        for i in 0..n {
            if !in_tree[i] {
                let d = manhattan(terminals[pick], terminals[i]);
                if d < best_dist[i] {
                    best_dist[i] = d;
                    best_parent[i] = pick;
                }
            }
        }
    }
    segments
}

/// Convenience: terminals + MST in one call.
pub(crate) fn decompose_net(net: &Net, placement: &Placement, grid: &GcellGrid) -> Vec<Segment> {
    mst_segments(&net_terminals(net, placement, grid))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_netlist::{Cell, Circuit, Pin, Point, Rect};

    fn c(gx: u32, gy: u32) -> GcellCoord {
        GcellCoord { gx, gy }
    }

    #[test]
    fn mst_on_two_points_is_one_segment() {
        let segs = mst_segments(&[c(0, 0), c(3, 4)]);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].manhattan_len(), 7);
    }

    #[test]
    fn mst_length_is_minimal_on_collinear_points() {
        // Points on a line: MST total = span
        let segs = mst_segments(&[c(0, 0), c(5, 0), c(2, 0), c(9, 0)]);
        let total: u32 = segs.iter().map(Segment::manhattan_len).sum();
        assert_eq!(total, 9);
        assert_eq!(segs.len(), 3);
    }

    #[test]
    fn mst_star_shape() {
        // centre + 4 arms: MST connects each arm to the centre
        let pts = [c(5, 5), c(5, 9), c(5, 1), c(1, 5), c(9, 5)];
        let segs = mst_segments(&pts);
        let total: u32 = segs.iter().map(Segment::manhattan_len).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn mst_is_empty_for_trivial_inputs() {
        assert!(mst_segments(&[]).is_empty());
        assert!(mst_segments(&[c(2, 2)]).is_empty());
    }

    #[test]
    fn terminals_dedup_same_gcell_pins() {
        let die = Rect::new(0.0, 0.0, 8.0, 8.0);
        let grid = GcellGrid::new(die, 4, 4);
        let mut circuit = Circuit::new("t", die);
        let a = circuit.add_cell(Cell::movable("a", 0.5, 0.5));
        let b = circuit.add_cell(Cell::movable("b", 0.5, 0.5));
        let net = Net::new("n", vec![Pin::at_center(a), Pin::at_center(b)]);
        let mut p = Placement::zeroed(2);
        // both cells in g-cell (0,0)
        p.set_position(a, Point::new(0.5, 0.5));
        p.set_position(b, Point::new(1.5, 1.5));
        let t = net_terminals(&net, &p, &grid);
        assert_eq!(t, vec![c(0, 0)]);
        assert!(decompose_net(&net, &p, &grid).is_empty());
    }

    #[test]
    fn decompose_spans_distinct_gcells() {
        let die = Rect::new(0.0, 0.0, 8.0, 8.0);
        let grid = GcellGrid::new(die, 4, 4);
        let mut circuit = Circuit::new("t", die);
        let a = circuit.add_cell(Cell::movable("a", 0.5, 0.5));
        let b = circuit.add_cell(Cell::movable("b", 0.5, 0.5));
        let d = circuit.add_cell(Cell::movable("d", 0.5, 0.5));
        let net = Net::new("n", vec![Pin::at_center(a), Pin::at_center(b), Pin::at_center(d)]);
        let mut p = Placement::zeroed(3);
        p.set_position(a, Point::new(1.0, 1.0)); // (0,0)
        p.set_position(b, Point::new(7.0, 1.0)); // (3,0)
        p.set_position(d, Point::new(7.0, 7.0)); // (3,3)
        let segs = decompose_net(&net, &p, &grid);
        assert_eq!(segs.len(), 2);
        let total: u32 = segs.iter().map(Segment::manhattan_len).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn mst_is_deterministic() {
        let pts = [c(0, 0), c(2, 2), c(4, 0), c(2, 0)];
        assert_eq!(mst_segments(&pts), mst_segments(&pts));
    }
}
