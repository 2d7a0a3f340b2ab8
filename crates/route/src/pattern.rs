//! Pattern routing: L- and Z-shaped candidate paths for 2-pin segments.
//!
//! The initial routing pass of the global router evaluates every L-shape
//! (one bend) and Z-shape (two bends) between the segment endpoints under
//! the congestion cost model and commits the cheapest. This mirrors the
//! pattern-routing stage of NCTU-GR before maze fallback.

use vlsi_netlist::GcellCoord;

use crate::cost::CostModel;
use crate::decompose::Segment;
use crate::maps::EdgeField;

fn push_straight(path: &mut Vec<GcellCoord>, from: GcellCoord, to: GcellCoord) {
    // walk one axis; `from` is assumed already present in `path`
    if from.gx == to.gx {
        let x = from.gx;
        if to.gy >= from.gy {
            for gy in from.gy + 1..=to.gy {
                path.push(GcellCoord { gx: x, gy });
            }
        } else {
            for gy in (to.gy..from.gy).rev() {
                path.push(GcellCoord { gx: x, gy });
            }
        }
    } else {
        debug_assert_eq!(from.gy, to.gy, "push_straight requires an axis-aligned pair");
        let y = from.gy;
        if to.gx >= from.gx {
            for gx in from.gx + 1..=to.gx {
                path.push(GcellCoord { gx, gy: y });
            }
        } else {
            for gx in (to.gx..from.gx).rev() {
                path.push(GcellCoord { gx, gy: y });
            }
        }
    }
}

/// Builds the monotone staircase path visiting the given bend points.
/// `bends` must alternate axis-aligned moves.
fn build_path(points: &[GcellCoord]) -> Vec<GcellCoord> {
    let mut path = vec![points[0]];
    for w in points.windows(2) {
        push_straight(&mut path, w[0], w[1]);
    }
    path
}

/// Enumerates candidate pattern paths for a segment: both L-shapes plus
/// every Z-shape with the intermediate leg at each column/row strictly
/// between the endpoints. Degenerate (straight) segments yield one path.
pub fn candidate_paths(seg: &Segment) -> Vec<Vec<GcellCoord>> {
    let (a, b) = (seg.from, seg.to);
    if a == b {
        return vec![vec![a]];
    }
    if a.gx == b.gx || a.gy == b.gy {
        return vec![build_path(&[a, b])];
    }
    let mut out = Vec::new();
    // L-shapes
    out.push(build_path(&[a, GcellCoord { gx: b.gx, gy: a.gy }, b]));
    out.push(build_path(&[a, GcellCoord { gx: a.gx, gy: b.gy }, b]));
    // Z-shapes: horizontal-vertical-horizontal with bend at column mx
    let (x_lo, x_hi) = (a.gx.min(b.gx), a.gx.max(b.gx));
    for mx in x_lo + 1..x_hi {
        out.push(build_path(&[
            a,
            GcellCoord { gx: mx, gy: a.gy },
            GcellCoord { gx: mx, gy: b.gy },
            b,
        ]));
    }
    // Z-shapes: vertical-horizontal-vertical with bend at row my
    let (y_lo, y_hi) = (a.gy.min(b.gy), a.gy.max(b.gy));
    for my in y_lo + 1..y_hi {
        out.push(build_path(&[
            a,
            GcellCoord { gx: a.gx, gy: my },
            GcellCoord { gx: b.gx, gy: my },
            b,
        ]));
    }
    out
}

/// Routes a segment with pattern routing: returns the cheapest candidate
/// path under the cost model (deterministic: first minimum wins).
pub(crate) fn pattern_route(
    seg: &Segment,
    usage: &EdgeField,
    capacity: &EdgeField,
    history: &EdgeField,
    model: &CostModel,
) -> Vec<GcellCoord> {
    let candidates = candidate_paths(seg);
    let mut best = 0usize;
    let mut best_cost = f32::INFINITY;
    for (i, path) in candidates.iter().enumerate() {
        let cost = model.path_cost(path, usage, capacity, history);
        if cost < best_cost {
            best_cost = cost;
            best = i;
        }
    }
    candidates.into_iter().nth(best).expect("at least one candidate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_netlist::{GcellGrid, Rect};

    fn c(gx: u32, gy: u32) -> GcellCoord {
        GcellCoord { gx, gy }
    }

    fn grid() -> GcellGrid {
        GcellGrid::new(Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8)
    }

    fn assert_valid_path(path: &[GcellCoord], from: GcellCoord, to: GcellCoord) {
        assert_eq!(*path.first().unwrap(), from);
        assert_eq!(*path.last().unwrap(), to);
        for w in path.windows(2) {
            let d = w[0].gx.abs_diff(w[1].gx) + w[0].gy.abs_diff(w[1].gy);
            assert_eq!(d, 1, "non-adjacent step {w:?}");
        }
    }

    #[test]
    fn straight_segment_has_single_candidate() {
        let seg = Segment { from: c(1, 1), to: c(5, 1) };
        let cands = candidate_paths(&seg);
        assert_eq!(cands.len(), 1);
        assert_valid_path(&cands[0], seg.from, seg.to);
        assert_eq!(cands[0].len(), 5);
    }

    #[test]
    fn degenerate_segment() {
        let seg = Segment { from: c(2, 2), to: c(2, 2) };
        assert_eq!(candidate_paths(&seg), vec![vec![c(2, 2)]]);
    }

    #[test]
    fn diagonal_candidates_count_and_validity() {
        let seg = Segment { from: c(1, 1), to: c(4, 3) };
        let cands = candidate_paths(&seg);
        // 2 L + (dx-1)=2 Z-hvh + (dy-1)=1 Z-vhv
        assert_eq!(cands.len(), 5);
        for p in &cands {
            assert_valid_path(p, seg.from, seg.to);
            // all pattern paths are monotone => minimal length
            assert_eq!(p.len() as u32, seg.manhattan_len() + 1);
        }
    }

    #[test]
    fn reversed_endpoints_also_work() {
        let seg = Segment { from: c(4, 3), to: c(1, 1) };
        for p in candidate_paths(&seg) {
            assert_valid_path(&p, seg.from, seg.to);
        }
    }

    #[test]
    fn pattern_route_avoids_congested_l() {
        let g = grid();
        let seg = Segment { from: c(0, 0), to: c(3, 3) };
        let mut usage = EdgeField::zeros(&g);
        let capacity = EdgeField::constant(&g, 1.0, 1.0);
        let history = EdgeField::zeros(&g);
        // congest the horizontal-first L (row 0)
        for x in 0..3 {
            *usage.h_mut(x, 0) = 5.0;
        }
        let path = pattern_route(&seg, &usage, &capacity, &history, &CostModel::default());
        assert_valid_path(&path, seg.from, seg.to);
        // must not start by walking along row 0 east
        assert_ne!(path[1], c(1, 0), "took the congested L");
    }

    #[test]
    fn pattern_route_is_deterministic() {
        let g = grid();
        let seg = Segment { from: c(0, 0), to: c(5, 5) };
        let usage = EdgeField::zeros(&g);
        let capacity = EdgeField::constant(&g, 10.0, 10.0);
        let history = EdgeField::zeros(&g);
        let m = CostModel::default();
        let a = pattern_route(&seg, &usage, &capacity, &history, &m);
        let b = pattern_route(&seg, &usage, &capacity, &history, &m);
        assert_eq!(a, b);
    }
}
