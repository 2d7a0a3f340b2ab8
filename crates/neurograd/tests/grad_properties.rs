//! Property-based gradient verification: random op chains on random
//! shapes, checked against central finite differences.

use neurograd::{Matrix, Tape, Var};
use proptest::prelude::*;
use std::sync::Arc;

/// Ops a random chain can draw from.
#[derive(Debug, Clone, Copy)]
enum ChainOp {
    Relu,
    LeakyRelu,
    Sigmoid,
    Tanh,
    Scale,
    SelfMul,
    SelfAdd,
    Transpose,
}

fn apply(tape: &mut Tape, op: ChainOp, x: Var) -> Var {
    match op {
        ChainOp::Relu => tape.relu(x),
        ChainOp::LeakyRelu => tape.leaky_relu(x, 0.1),
        ChainOp::Sigmoid => tape.sigmoid(x),
        ChainOp::Tanh => tape.tanh(x),
        ChainOp::Scale => tape.scale(x, 0.7),
        ChainOp::SelfMul => tape.mul(x, x),
        ChainOp::SelfAdd => tape.add(x, x),
        ChainOp::Transpose => tape.transpose(x),
    }
}

fn op_from(code: u8) -> ChainOp {
    match code % 8 {
        0 => ChainOp::Relu,
        1 => ChainOp::LeakyRelu,
        2 => ChainOp::Sigmoid,
        3 => ChainOp::Tanh,
        4 => ChainOp::Scale,
        5 => ChainOp::SelfMul,
        6 => ChainOp::SelfAdd,
        _ => ChainOp::Transpose,
    }
}

fn loss_of_chain(ops: &[ChainOp], x0: &Matrix) -> f32 {
    let mut tape = Tape::new();
    let x = tape.leaf_grad(x0.clone());
    let mut h = x;
    for &op in ops {
        h = apply(&mut tape, op, h);
    }
    let loss = tape.mean_all(h);
    tape.value(loss).item()
}

fn analytic_grad(ops: &[ChainOp], x0: &Matrix) -> Matrix {
    let mut tape = Tape::new();
    let x = tape.leaf_grad(x0.clone());
    let mut h = x;
    for &op in ops {
        h = apply(&mut tape, op, h);
    }
    let loss = tape.mean_all(h);
    tape.backward(loss);
    tape.grad(x).cloned().unwrap_or_else(|| Matrix::zeros(x0.rows(), x0.cols()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any chain of smooth unary ops has gradients matching finite diff.
    #[test]
    fn random_chain_gradients_match_finite_difference(
        rows in 1usize..4,
        cols in 1usize..4,
        codes in proptest::collection::vec(0u8..8, 1..5),
        data in proptest::collection::vec(0.05f32..1.5, 1..16),
    ) {
        // positive inputs keep us away from relu kinks where finite
        // differences are invalid
        let ops: Vec<ChainOp> = codes.iter().map(|&c| op_from(c)).collect();
        let mut d = data;
        d.resize(rows * cols, 0.4);
        let x0 = Matrix::from_vec(rows, cols, d).unwrap();
        let g = analytic_grad(&ops, &x0);
        let eps = 1e-2f32;
        for i in 0..x0.len() {
            let mut plus = x0.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = x0.clone();
            minus.as_mut_slice()[i] -= eps;
            let numeric = (loss_of_chain(&ops, &plus) - loss_of_chain(&ops, &minus)) / (2.0 * eps);
            let analytic = g.as_slice()[i];
            prop_assert!(
                (numeric - analytic).abs() <= 2e-2 * (1.0 + numeric.abs().max(analytic.abs())),
                "ops {ops:?}: grad[{i}] analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    /// Gather-then-sum equals indexing the gradient by occurrence count.
    #[test]
    fn gather_rows_gradient_counts_occurrences(
        rows in 1usize..6,
        idx in proptest::collection::vec(0usize..6, 1..10),
    ) {
        let idx: Vec<usize> = idx.into_iter().map(|i| i % rows).collect();
        let x0 = Matrix::full(rows, 2, 1.0);
        let mut tape = Tape::new();
        let x = tape.leaf_grad(x0);
        let g = tape.gather_rows(x, Arc::new(idx.clone()));
        let loss = tape.sum_all(g);
        tape.backward(loss);
        let grad = tape.grad(x).unwrap();
        for r in 0..rows {
            let count = idx.iter().filter(|&&i| i == r).count() as f32;
            prop_assert_eq!(grad[(r, 0)], count);
        }
    }

    /// backward() is idempotent per tape and deterministic across tapes.
    #[test]
    fn backward_is_deterministic(
        data in proptest::collection::vec(-1.0f32..1.0, 4),
    ) {
        let x0 = Matrix::from_vec(2, 2, data).unwrap();
        let run = || {
            let mut tape = Tape::new();
            let x = tape.leaf_grad(x0.clone());
            let y = tape.tanh(x);
            let z = tape.mul(y, y);
            let loss = tape.mean_all(z);
            tape.backward(loss);
            tape.grad(x).unwrap().clone()
        };
        let a = run();
        let b = run();
        prop_assert!(a.approx_eq(&b, 0.0));
    }
}
