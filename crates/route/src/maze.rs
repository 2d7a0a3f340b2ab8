//! Maze routing: A* search on the G-cell grid under the congestion cost
//! model. Used as the rip-up-and-reroute fallback when pattern routes
//! overflow — equivalent in role to NCTU-GR's bounded-length maze stage.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use vlsi_netlist::{GcellCoord, GcellGrid};

use crate::cost::CostModel;
use crate::maps::EdgeField;

#[derive(Debug, PartialEq)]
struct HeapEntry {
    f: f32,
    counter: u64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // min-heap on (f, counter): reversed comparison, total_cmp for NaN
        // safety, counter as deterministic tie-break (FIFO).
        other.f.total_cmp(&self.f).then_with(|| other.counter.cmp(&self.counter))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A* search from `from` to `to`.
///
/// Edge costs come from the [`CostModel`] under the current usage,
/// capacity and history fields; the heuristic is the Manhattan distance
/// (admissible because every edge costs at least 1). Returns `None` only
/// if the grid is degenerate (cannot happen on a connected lattice).
pub(crate) fn maze_route(
    grid: &GcellGrid,
    from: GcellCoord,
    to: GcellCoord,
    usage: &EdgeField,
    capacity: &EdgeField,
    history: &EdgeField,
    model: &CostModel,
) -> Option<Vec<GcellCoord>> {
    let n = grid.num_gcells();
    let start = grid.index(from);
    let goal = grid.index(to);
    if start == goal {
        return Some(vec![from]);
    }
    let mut g_cost = vec![f32::INFINITY; n];
    let mut parent = vec![usize::MAX; n];
    let mut closed = vec![false; n];
    let mut heap = BinaryHeap::new();
    let mut counter = 0u64;
    let h = |idx: usize| -> f32 {
        let c = grid.coord(idx);
        (c.gx.abs_diff(to.gx) + c.gy.abs_diff(to.gy)) as f32
    };
    g_cost[start] = 0.0;
    heap.push(HeapEntry { f: h(start), counter, node: start });
    while let Some(HeapEntry { node, .. }) = heap.pop() {
        if closed[node] {
            continue;
        }
        closed[node] = true;
        if node == goal {
            // reconstruct
            let mut path = Vec::new();
            let mut cur = goal;
            while cur != usize::MAX {
                path.push(grid.coord(cur));
                cur = parent[cur];
            }
            path.reverse();
            return Some(path);
        }
        let cur_coord = grid.coord(node);
        for nb in grid.neighbors(cur_coord) {
            let nb_idx = grid.index(nb);
            if closed[nb_idx] {
                continue;
            }
            let (dir, x, y) = EdgeField::edge_between(cur_coord, nb);
            let step = model.edge_cost_at(dir, x, y, usage, capacity, history);
            let cand = g_cost[node] + step;
            if cand < g_cost[nb_idx] {
                g_cost[nb_idx] = cand;
                parent[nb_idx] = node;
                counter += 1;
                heap.push(HeapEntry { f: cand + h(nb_idx), counter, node: nb_idx });
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_netlist::Rect;

    fn c(gx: u32, gy: u32) -> GcellCoord {
        GcellCoord { gx, gy }
    }

    fn grid8() -> GcellGrid {
        GcellGrid::new(Rect::new(0.0, 0.0, 8.0, 8.0), 8, 8)
    }

    fn route_free(from: GcellCoord, to: GcellCoord) -> Vec<GcellCoord> {
        let g = grid8();
        let usage = EdgeField::zeros(&g);
        let cap = EdgeField::constant(&g, 10.0, 10.0);
        let hist = EdgeField::zeros(&g);
        maze_route(&g, from, to, &usage, &cap, &hist, &CostModel::default()).unwrap()
    }

    #[test]
    fn shortest_path_on_free_grid() {
        let p = route_free(c(0, 0), c(5, 3));
        assert_eq!(p.len(), 9); // manhattan 8 + 1
        assert_eq!(*p.first().unwrap(), c(0, 0));
        assert_eq!(*p.last().unwrap(), c(5, 3));
    }

    #[test]
    fn trivial_route_same_cell() {
        assert_eq!(route_free(c(2, 2), c(2, 2)), vec![c(2, 2)]);
    }

    #[test]
    fn path_steps_are_adjacent() {
        let p = route_free(c(7, 0), c(0, 7));
        for w in p.windows(2) {
            assert_eq!(w[0].gx.abs_diff(w[1].gx) + w[0].gy.abs_diff(w[1].gy), 1);
        }
    }

    #[test]
    fn detours_around_congestion_wall() {
        let g = grid8();
        let mut usage = EdgeField::zeros(&g);
        let cap = EdgeField::constant(&g, 1.0, 1.0);
        let hist = EdgeField::zeros(&g);
        // build a vertical wall of congested h-edges at x=3 for rows 0..6
        for y in 0..6 {
            *usage.h_mut(3, y) = 50.0;
        }
        let model = CostModel { overflow_penalty: 10.0, pressure: 0.0 };
        let p = maze_route(&g, c(0, 0), c(7, 0), &usage, &cap, &hist, &model).unwrap();
        // the path must cross x=3..4 at row >= 6 where the wall is open
        let crossing = p
            .windows(2)
            .find(|w| w[0].gx == 3 && w[1].gx == 4)
            .expect("must cross the wall column somewhere");
        assert!(crossing[0].gy >= 6, "crossed through the wall at {crossing:?}");
        assert!(p.len() > 9); // longer than manhattan+1 because of detour
    }

    #[test]
    fn maze_route_is_deterministic() {
        let g = grid8();
        let usage = EdgeField::zeros(&g);
        let cap = EdgeField::constant(&g, 10.0, 10.0);
        let hist = EdgeField::zeros(&g);
        let m = CostModel::default();
        let a = maze_route(&g, c(1, 1), c(6, 6), &usage, &cap, &hist, &m).unwrap();
        let b = maze_route(&g, c(1, 1), c(6, 6), &usage, &cap, &hist, &m).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn history_steers_away() {
        let g = grid8();
        let usage = EdgeField::zeros(&g);
        let cap = EdgeField::constant(&g, 10.0, 10.0);
        let mut hist = EdgeField::zeros(&g);
        // historical congestion along row 0
        for x in 0..7 {
            *hist.h_mut(x, 0) = 20.0;
        }
        let m = CostModel::default();
        let p = maze_route(&g, c(0, 0), c(7, 0), &usage, &cap, &hist, &m).unwrap();
        // path should leave row 0 rather than pay history
        assert!(p.iter().any(|cc| cc.gy > 0));
    }
}
