//! The congestion-aware edge cost model shared by pattern and maze routing.
//!
//! PathFinder-style negotiation: an edge's cost grows with (a) the overflow
//! it would incur if one more wire crossed it and (b) a history term that
//! accumulates on persistently congested edges across rip-up-and-reroute
//! rounds, pushing nets to detour.

use crate::maps::{Dir, EdgeField};

/// Cost parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Multiplier on prospective overflow (`usage + 1 - capacity`).
    pub overflow_penalty: f32,
    /// Soft pressure applied as utilisation approaches capacity, before
    /// any overflow occurs (keeps initial routes spread out).
    pub pressure: f32,
}

impl Default for CostModel {
    fn default() -> Self {
        Self { overflow_penalty: 4.0, pressure: 0.5 }
    }
}

impl CostModel {
    /// Cost of pushing one more wire across an edge with the given state.
    pub(crate) fn edge_cost(&self, usage: f32, capacity: f32, history: f32) -> f32 {
        let over = (usage + 1.0 - capacity).max(0.0);
        let util = if capacity > 0.0 { (usage / capacity).min(1.0) } else { 1.0 };
        1.0 + history + self.pressure * util + self.overflow_penalty * over
    }

    /// Total cost of a G-cell path under the current usage/history fields.
    ///
    /// # Panics
    ///
    /// Panics if consecutive path cells are not adjacent.
    pub(crate) fn path_cost(
        &self,
        path: &[vlsi_netlist::GcellCoord],
        usage: &EdgeField,
        capacity: &EdgeField,
        history: &EdgeField,
    ) -> f32 {
        let mut total = 0.0;
        for w in path.windows(2) {
            let (dir, x, y) = EdgeField::edge_between(w[0], w[1]);
            total += self.edge_cost(
                usage.get(dir, x, y),
                capacity.get(dir, x, y),
                history.get(dir, x, y),
            );
        }
        total
    }

    /// Convenience for code that has `(dir, x, y)` addressing.
    pub(crate) fn edge_cost_at(
        &self,
        dir: Dir,
        x: usize,
        y: usize,
        usage: &EdgeField,
        capacity: &EdgeField,
        history: &EdgeField,
    ) -> f32 {
        self.edge_cost(usage.get(dir, x, y), capacity.get(dir, x, y), history.get(dir, x, y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_edge_costs_base() {
        let m = CostModel::default();
        assert!((m.edge_cost(0.0, 10.0, 0.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cost_increases_with_usage() {
        let m = CostModel::default();
        let c1 = m.edge_cost(2.0, 10.0, 0.0);
        let c2 = m.edge_cost(8.0, 10.0, 0.0);
        let c3 = m.edge_cost(12.0, 10.0, 0.0);
        assert!(c1 < c2 && c2 < c3);
    }

    #[test]
    fn overflow_penalty_kicks_in_at_capacity() {
        let m = CostModel { overflow_penalty: 4.0, pressure: 0.0 };
        // usage = capacity: adding one wire overflows by 1
        assert!((m.edge_cost(10.0, 10.0, 0.0) - (1.0 + 4.0)).abs() < 1e-6);
    }

    #[test]
    fn history_adds_linearly() {
        let m = CostModel { overflow_penalty: 0.0, pressure: 0.0 };
        assert!((m.edge_cost(0.0, 10.0, 2.5) - 3.5).abs() < 1e-6);
    }

    #[test]
    fn zero_capacity_is_expensive() {
        let m = CostModel::default();
        assert!(m.edge_cost(0.0, 0.0, 0.0) > m.edge_cost(0.0, 10.0, 0.0));
    }
}
