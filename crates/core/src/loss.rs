//! The joint objective of Eq. 3–5.
//!
//! `L = L_reg + L_cls` where `L_reg` is the MSE on the routing-demand map
//! and `L_cls` is binary cross-entropy with the label-imbalance weight
//! `w = y + (1-y)·γ` (γ ∈ (0,1] shrinks the loss of non-congested cells).

use std::sync::Arc;

use neurograd::{Matrix, Tape, Var};

/// Builds the Eq. 5 per-element weights `w = y + (1-y)·γ`.
pub(crate) fn class_weights(targets: &Matrix, gamma: f32) -> Matrix {
    targets.map(|y| y + (1.0 - y) * gamma)
}

/// The γ-weighted classification loss (Eq. 5) on logits.
pub(crate) fn cls_loss(tape: &mut Tape, logits: Var, congestion: &Matrix, gamma: f32) -> Var {
    let weights = Arc::new(class_weights(congestion, gamma));
    tape.bce_with_logits(logits, Arc::new(congestion.clone()), weights)
}

/// The regression loss (Eq. 4).
pub(crate) fn reg_loss(tape: &mut Tape, reg: Var, demand: &Matrix) -> Var {
    tape.mse_loss(reg, Arc::new(demand.clone()))
}

/// The joint objective (Eq. 3). With `jointing = false` the regression
/// branch is dropped (Table 3 ablation) and the loss is `L_cls` alone.
pub fn joint_loss(
    tape: &mut Tape,
    cls_logits: Var,
    reg: Var,
    congestion: &Matrix,
    demand: &Matrix,
    gamma: f32,
    jointing: bool,
) -> Var {
    let l_cls = cls_loss(tape, cls_logits, congestion, gamma);
    if jointing {
        let l_reg = reg_loss(tape, reg, demand);
        tape.add(l_cls, l_reg)
    } else {
        l_cls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_follow_eq5() {
        let y = Matrix::from_rows(&[&[1.0, 0.0, 1.0, 0.0]]);
        let w = class_weights(&y, 0.7);
        assert_eq!(w.as_slice(), &[1.0, 0.7, 1.0, 0.7]);
        // gamma = 1 disables the re-weighting
        assert!(class_weights(&y, 1.0).as_slice().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn joint_loss_is_sum_of_parts() {
        let congestion = Matrix::from_rows(&[&[1.0], &[0.0]]);
        let demand = Matrix::from_rows(&[&[0.9], &[0.1]]);
        let build = |jointing: bool| {
            let mut tape = Tape::new();
            let logits = tape.leaf_grad(Matrix::from_rows(&[&[0.4], &[-0.3]]));
            let reg = tape.leaf_grad(Matrix::from_rows(&[&[0.5], &[0.2]]));
            let loss = joint_loss(&mut tape, logits, reg, &congestion, &demand, 0.7, jointing);
            tape.value(loss).item()
        };
        let with = build(true);
        let without = build(false);
        assert!(with > without, "regression term must add loss");
        // the difference equals the mse term: ((0.9-0.5)^2 + (0.1-0.2)^2)/2
        let mse = (0.4f32 * 0.4 + 0.1 * 0.1) / 2.0;
        assert!((with - without - mse).abs() < 1e-5);
    }

    #[test]
    fn gamma_reduces_negative_class_loss() {
        // all-negative labels with confident wrong predictions: lower gamma
        // must shrink the loss
        let congestion = Matrix::from_rows(&[&[0.0], &[0.0]]);
        let loss_at = |gamma: f32| {
            let mut tape = Tape::new();
            let logits = tape.leaf_grad(Matrix::from_rows(&[&[2.0], &[2.0]]));
            let l = cls_loss(&mut tape, logits, &congestion, gamma);
            tape.value(l).item()
        };
        assert!(loss_at(0.3) < loss_at(0.7));
        assert!(loss_at(0.7) < loss_at(1.0));
    }
}
