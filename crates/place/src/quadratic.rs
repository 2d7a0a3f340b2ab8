//! Quadratic (analytic) global placement.
//!
//! This is the DREAMPlace stand-in: nets are modelled as cliques with
//! degree-normalised weights, giving a convex quadratic wirelength
//! objective. Terminal cells are fixed boundary conditions; the two axes
//! decouple and each is solved by conjugate gradient on the connectivity
//! Laplacian. A small anchor regularisation keeps disconnected components
//! well-posed.

use std::collections::HashMap;

use vlsi_netlist::{CellId, Circuit, Placement, Point};

use crate::error::{PlaceError, Result};

/// Sparse symmetric positive-definite system `A x = b` in adjacency form.
#[derive(Debug, Clone)]
struct Laplacian {
    /// Diagonal entries (degree + anchors).
    diag: Vec<f64>,
    /// Off-diagonal entries per row: `(col, weight)` with weight > 0
    /// meaning matrix entry `-weight`.
    off: Vec<Vec<(u32, f64)>>,
}

impl Laplacian {
    fn new(n: usize) -> Self {
        Self { diag: vec![0.0; n], off: vec![Vec::new(); n] }
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        for i in 0..x.len() {
            let mut acc = self.diag[i] * x[i];
            for &(j, w) in &self.off[i] {
                acc -= w * x[j as usize];
            }
            out[i] = acc;
        }
    }
}

/// Conjugate-gradient solve; returns the achieved relative residual.
fn conjugate_gradient(a: &Laplacian, b: &[f64], x: &mut [f64], iters: usize, tol: f64) -> f64 {
    let n = b.len();
    let mut r = vec![0.0; n];
    let mut ax = vec![0.0; n];
    a.apply(x, &mut ax);
    for i in 0..n {
        r[i] = b[i] - ax[i];
    }
    let mut p = r.clone();
    let mut rs_old: f64 = r.iter().map(|v| v * v).sum();
    let b_norm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-12);
    let mut ap = vec![0.0; n];
    for _ in 0..iters {
        if rs_old.sqrt() / b_norm < tol {
            break;
        }
        a.apply(&p, &mut ap);
        let p_ap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
        if p_ap.abs() < 1e-30 {
            break;
        }
        let alpha = rs_old / p_ap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rs_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs_old = rs_new;
    }
    rs_old.sqrt() / b_norm
}

/// Configuration for `solve_quadratic`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuadraticConfig {
    /// Maximum conjugate-gradient iterations per axis.
    pub cg_iters: usize,
    /// Relative-residual convergence tolerance.
    pub cg_tol: f64,
    /// Anchor weight pulling every movable cell towards the die centre;
    /// keeps fully-movable components well-posed. Should be small relative
    /// to net weights (which are ≥ `1/(max_degree-1)`).
    pub anchor_weight: f64,
    /// Nets with more pins than this are skipped in the quadratic model
    /// (clique blow-up guard; mirrors how analytic placers special-case
    /// high-fanout nets).
    pub max_clique_degree: usize,
}

impl Default for QuadraticConfig {
    fn default() -> Self {
        Self { cg_iters: 300, cg_tol: 1e-6, anchor_weight: 1e-3, max_clique_degree: 64 }
    }
}

/// Solves the quadratic placement for all movable cells.
///
/// `fixed` supplies positions for terminal cells (and any movable cell you
/// want pinned); unlisted terminals default to the die centre. `initial`
/// optionally warm-starts the solve.
///
/// # Errors
///
/// Returns [`PlaceError::Unplaceable`] if the circuit has no movable cells
/// and [`PlaceError::SolveFailed`] if CG stalls at a large residual.
pub(crate) fn solve_quadratic(
    circuit: &Circuit,
    fixed: &[(CellId, Point)],
    initial: Option<&Placement>,
    cfg: &QuadraticConfig,
) -> Result<Placement> {
    let n = circuit.num_cells();
    let fixed_map: HashMap<u32, Point> = fixed.iter().map(|(id, p)| (id.0, *p)).collect();
    let die_center = circuit.die.center();

    // Unknown index per movable cell.
    let mut unknown = vec![u32::MAX; n];
    let mut movables = Vec::new();
    for (i, cell) in circuit.cells().iter().enumerate() {
        if !cell.is_terminal() && !fixed_map.contains_key(&(i as u32)) {
            unknown[i] = movables.len() as u32;
            movables.push(i as u32);
        }
    }
    if movables.is_empty() {
        return Err(PlaceError::Unplaceable("no movable cells".into()));
    }
    let m = movables.len();

    // Fixed-cell position lookup.
    let pos_of_fixed =
        |i: usize| -> Point { fixed_map.get(&(i as u32)).copied().unwrap_or(die_center) };

    let mut lap = Laplacian::new(m);
    let mut bx = vec![0.0f64; m];
    let mut by = vec![0.0f64; m];

    // Anchor regularisation.
    for i in 0..m {
        lap.diag[i] += cfg.anchor_weight;
        bx[i] += cfg.anchor_weight * f64::from(die_center.x);
        by[i] += cfg.anchor_weight * f64::from(die_center.y);
    }

    // Clique net model.
    for net in circuit.nets() {
        let d = net.degree();
        if d < 2 || d > cfg.max_clique_degree {
            continue;
        }
        let w = 1.0 / (d as f64 - 1.0);
        for a in 0..d {
            for b in (a + 1)..d {
                let (ca, cb) = (net.pins[a].cell.index(), net.pins[b].cell.index());
                if ca == cb {
                    continue;
                }
                let (ua, ub) = (unknown[ca], unknown[cb]);
                match (ua != u32::MAX, ub != u32::MAX) {
                    (true, true) => {
                        lap.diag[ua as usize] += w;
                        lap.diag[ub as usize] += w;
                        lap.off[ua as usize].push((ub, w));
                        lap.off[ub as usize].push((ua, w));
                    }
                    (true, false) => {
                        let p = pos_of_fixed(cb);
                        lap.diag[ua as usize] += w;
                        bx[ua as usize] += w * f64::from(p.x);
                        by[ua as usize] += w * f64::from(p.y);
                    }
                    (false, true) => {
                        let p = pos_of_fixed(ca);
                        lap.diag[ub as usize] += w;
                        bx[ub as usize] += w * f64::from(p.x);
                        by[ub as usize] += w * f64::from(p.y);
                    }
                    (false, false) => {}
                }
            }
        }
    }

    // Warm start.
    let mut x = vec![f64::from(die_center.x); m];
    let mut y = vec![f64::from(die_center.y); m];
    if let Some(init) = initial {
        for (u, &ci) in movables.iter().enumerate() {
            let p = init.position(CellId(ci));
            x[u] = f64::from(p.x);
            y[u] = f64::from(p.y);
        }
    }

    let rx = conjugate_gradient(&lap, &bx, &mut x, cfg.cg_iters, cfg.cg_tol);
    let ry = conjugate_gradient(&lap, &by, &mut y, cfg.cg_iters, cfg.cg_tol);
    if rx > 0.5 || ry > 0.5 {
        return Err(PlaceError::SolveFailed(format!(
            "cg residuals too large: x {rx:.2e}, y {ry:.2e}"
        )));
    }

    // Assemble full placement.
    let mut placement = Placement::zeroed(n);
    for i in 0..n {
        let p = if unknown[i] != u32::MAX {
            let u = unknown[i] as usize;
            circuit.die.clamp(Point::new(x[u] as f32, y[u] as f32))
        } else {
            pos_of_fixed(i)
        };
        placement.set_position(CellId(i as u32), p);
    }
    Ok(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_netlist::{Cell, Net, Pin, Rect};

    /// Chain a - m - b with a, b fixed: m must land midway.
    #[test]
    fn single_cell_lands_at_midpoint() {
        let mut c = Circuit::new("chain", Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = c.add_cell(Cell::terminal("a", 1.0, 1.0));
        let m = c.add_cell(Cell::movable("m", 1.0, 1.0));
        let b = c.add_cell(Cell::terminal("b", 1.0, 1.0));
        c.add_net(Net::new("n0", vec![Pin::at_center(a), Pin::at_center(m)]));
        c.add_net(Net::new("n1", vec![Pin::at_center(m), Pin::at_center(b)]));
        let fixed = vec![(a, Point::new(0.0, 0.0)), (b, Point::new(10.0, 10.0))];
        let cfg = QuadraticConfig { anchor_weight: 0.0, ..Default::default() };
        let p = solve_quadratic(&c, &fixed, None, &cfg).unwrap();
        let pm = p.position(m);
        assert!((pm.x - 5.0).abs() < 1e-2, "x = {}", pm.x);
        assert!((pm.y - 5.0).abs() < 1e-2, "y = {}", pm.y);
    }

    /// Chain with unequal weights: two nets to a, one to b → closer to a.
    #[test]
    fn weighted_pull_moves_towards_stronger_side() {
        let mut c = Circuit::new("pull", Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = c.add_cell(Cell::terminal("a", 1.0, 1.0));
        let m = c.add_cell(Cell::movable("m", 1.0, 1.0));
        let b = c.add_cell(Cell::terminal("b", 1.0, 1.0));
        c.add_net(Net::new("n0", vec![Pin::at_center(a), Pin::at_center(m)]));
        c.add_net(Net::new("n1", vec![Pin::at_center(a), Pin::at_center(m)]));
        c.add_net(Net::new("n2", vec![Pin::at_center(m), Pin::at_center(b)]));
        let fixed = vec![(a, Point::new(0.0, 5.0)), (b, Point::new(9.0, 5.0))];
        let cfg = QuadraticConfig { anchor_weight: 0.0, ..Default::default() };
        let p = solve_quadratic(&c, &fixed, None, &cfg).unwrap();
        assert!((p.position(m).x - 3.0).abs() < 1e-2, "x = {}", p.position(m).x);
    }

    /// A disconnected movable cell is held at the die centre by the anchor.
    #[test]
    fn disconnected_cell_anchored_to_center() {
        let mut c = Circuit::new("disc", Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = c.add_cell(Cell::movable("a", 1.0, 1.0));
        let b = c.add_cell(Cell::movable("b", 1.0, 1.0));
        c.add_net(Net::new("n0", vec![Pin::at_center(a), Pin::at_center(b)]));
        let p = solve_quadratic(&c, &[], None, &QuadraticConfig::default()).unwrap();
        assert!((p.position(a).x - 5.0).abs() < 1e-2);
        assert!((p.position(a).y - 5.0).abs() < 1e-2);
    }

    /// Clique model: 4-pin net among 3 movables + 1 fixed collapses the
    /// movables onto the fixed pin (the quadratic optimum with no anchors
    /// elsewhere).
    #[test]
    fn clique_collapses_to_fixed_pin() {
        let mut c = Circuit::new("clique", Rect::new(0.0, 0.0, 8.0, 8.0));
        let f = c.add_cell(Cell::terminal("f", 1.0, 1.0));
        let m1 = c.add_cell(Cell::movable("m1", 1.0, 1.0));
        let m2 = c.add_cell(Cell::movable("m2", 1.0, 1.0));
        let m3 = c.add_cell(Cell::movable("m3", 1.0, 1.0));
        c.add_net(Net::new(
            "n",
            vec![Pin::at_center(f), Pin::at_center(m1), Pin::at_center(m2), Pin::at_center(m3)],
        ));
        let fixed = vec![(f, Point::new(2.0, 6.0))];
        let cfg = QuadraticConfig { anchor_weight: 0.0, ..Default::default() };
        let p = solve_quadratic(&c, &fixed, None, &cfg).unwrap();
        for m in [m1, m2, m3] {
            assert!(p.position(m).distance(Point::new(2.0, 6.0)) < 1e-2);
        }
    }

    #[test]
    fn no_movable_cells_is_an_error() {
        let mut c = Circuit::new("allfixed", Rect::new(0.0, 0.0, 4.0, 4.0));
        c.add_cell(Cell::terminal("t", 1.0, 1.0));
        let err = solve_quadratic(&c, &[], None, &QuadraticConfig::default()).unwrap_err();
        assert!(matches!(err, PlaceError::Unplaceable(_)));
    }

    #[test]
    fn positions_are_clamped_to_die() {
        // fixed pins outside the die drag the movable; result must clamp.
        let mut c = Circuit::new("clamp", Rect::new(0.0, 0.0, 4.0, 4.0));
        let f = c.add_cell(Cell::terminal("f", 1.0, 1.0));
        let m = c.add_cell(Cell::movable("m", 1.0, 1.0));
        c.add_net(Net::new("n", vec![Pin::at_center(f), Pin::at_center(m)]));
        let fixed = vec![(f, Point::new(100.0, 100.0))];
        let cfg = QuadraticConfig { anchor_weight: 0.0, ..Default::default() };
        let p = solve_quadratic(&c, &fixed, None, &cfg).unwrap();
        let pm = p.position(m);
        assert!(pm.x <= 4.0 && pm.y <= 4.0);
    }

    #[test]
    fn warm_start_gives_same_answer() {
        let mut c = Circuit::new("warm", Rect::new(0.0, 0.0, 10.0, 10.0));
        let a = c.add_cell(Cell::terminal("a", 1.0, 1.0));
        let m = c.add_cell(Cell::movable("m", 1.0, 1.0));
        c.add_net(Net::new("n", vec![Pin::at_center(a), Pin::at_center(m)]));
        let fixed = vec![(a, Point::new(2.0, 2.0))];
        let cfg = QuadraticConfig::default();
        let cold = solve_quadratic(&c, &fixed, None, &cfg).unwrap();
        let mut init = Placement::zeroed(2);
        init.set_position(m, Point::new(9.0, 9.0));
        let warm = solve_quadratic(&c, &fixed, Some(&init), &cfg).unwrap();
        assert!(cold.position(m).distance(warm.position(m)) < 1e-2);
    }
}
