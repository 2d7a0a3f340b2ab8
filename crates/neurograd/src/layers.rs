//! Reusable network building blocks: [`Linear`], [`Mlp`] and [`ResBlock`].
//!
//! A layer registers its weights in a [`ParamStore`] at construction time
//! and replays them onto a fresh [`Tape`] every forward pass. This mirrors
//! how the LHNN paper composes blocks: `Lin` (a linear layer with
//! activation) and `Res` (a two-layer residual MLP).

use rand::Rng;

use crate::init::kaiming_normal;
use crate::kernels::Rows;
use crate::matrix::Matrix;
use crate::optim::ParamStore;
use crate::tape::{ParamId, Tape, Var};

/// Pointwise non-linearity applied after a linear map.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Activation {
    /// No activation.
    #[default]
    Identity,
    /// `max(0, x)`.
    Relu,
    /// Leaky ReLU with the given negative slope.
    LeakyRelu(f32),
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Applies the activation on the tape.
    pub fn apply(self, tape: &mut Tape, x: Var) -> Var {
        match self {
            Activation::Identity => x,
            Activation::Relu => tape.relu(x),
            Activation::LeakyRelu(a) => tape.leaky_relu(x, a),
            Activation::Sigmoid => tape.sigmoid(x),
            Activation::Tanh => tape.tanh(x),
        }
    }

    /// Evaluates the activation on a scalar, using the *same* float
    /// expressions as the tape ops so tape-free forwards stay bitwise
    /// identical to taped ones.
    pub fn eval(self, v: f32) -> f32 {
        match self {
            Activation::Identity => v,
            Activation::Relu => v.max(0.0),
            Activation::LeakyRelu(a) => {
                if v >= 0.0 {
                    v
                } else {
                    a * v
                }
            }
            Activation::Sigmoid => crate::tape::stable_sigmoid(v),
            Activation::Tanh => v.tanh(),
        }
    }
}

/// A fully-connected layer `y = act(x·W + b)`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: ParamId,
    bias: ParamId,
    in_dim: usize,
    out_dim: usize,
    activation: Activation,
}

impl Linear {
    /// Creates a layer with Kaiming-normal weights (suited to ReLU nets).
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        let weight =
            store.register(format!("{name}.weight"), kaiming_normal(in_dim, out_dim, in_dim, rng));
        let bias = store.register(format!("{name}.bias"), Matrix::zeros(1, out_dim));
        Self { weight, bias, in_dim, out_dim, activation }
    }

    /// Input feature dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Runs the layer on a `N × in_dim` input.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have `in_dim` columns.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        assert_eq!(tape.shape(x).1, self.in_dim, "linear input dim mismatch");
        let w = store.var(self.weight, tape);
        let b = store.var(self.bias, tape);
        let y = tape.linear(x, w, b);
        self.activation.apply(tape, y)
    }

    /// Tape-free forward over the selected rows: `out[r] = act(x[r] · W +
    /// b)` for each, every other row of `out` untouched. Bitwise identical
    /// to the same rows of [`Linear::forward`] (the fused kernel preserves
    /// the per-element operation sequence: accumulate in `k` order, add
    /// bias, apply the activation via [`Activation::eval`]).
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have `in_dim` columns or `out` is not
    /// `x.rows() × out_dim`.
    pub fn forward_rows_into(
        &self,
        store: &ParamStore,
        x: &Matrix,
        rows: Rows<'_>,
        out: &mut Matrix,
    ) {
        assert_eq!(x.cols(), self.in_dim, "linear input dim mismatch");
        assert_eq!(out.shape(), (x.rows(), self.out_dim), "linear output shape mismatch");
        let w = &store.param(self.weight).value;
        let b = store.param(self.bias).value.as_slice();
        let act = self.activation;
        crate::kernels::linear_act_rows_into(x, w, b, rows, out.as_mut_slice(), move |v| {
            act.eval(v)
        });
    }
}

/// A plain multi-layer perceptron: `in → hidden × (depth-1) → out`.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Creates an MLP with `depth` linear layers, ReLU between them and
    /// `out_activation` on the last.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        depth: usize,
        out_activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(depth > 0, "mlp depth must be positive");
        let mut layers = Vec::with_capacity(depth);
        for l in 0..depth {
            let (i, o) = (
                if l == 0 { in_dim } else { hidden },
                if l == depth - 1 { out_dim } else { hidden },
            );
            let act = if l == depth - 1 { out_activation } else { Activation::Relu };
            layers.push(Linear::new(store, &format!("{name}.l{l}"), i, o, act, rng));
        }
        Self { layers }
    }

    /// Input dimension of the first layer.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimension of the last layer.
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("depth > 0").out_dim()
    }

    /// Number of linear layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Runs the MLP.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let mut h = x;
        for layer in &self.layers {
            h = layer.forward(tape, store, h);
        }
        h
    }
}

/// Two-layer residual MLP: `y = relu(x·W₁ + b₁)·W₂ + b₂ + proj(x)`.
///
/// `proj` is the identity when `in_dim == out_dim`, otherwise a learned
/// linear projection. This is the `Res` block of the LHNN architecture
/// diagram (Figure 3 of the paper).
#[derive(Debug, Clone)]
pub struct ResBlock {
    lin1: Linear,
    lin2: Linear,
    proj: Option<Linear>,
    out_activation: Activation,
}

impl ResBlock {
    /// Creates a residual block mapping `in_dim → out_dim` through `hidden`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        in_dim: usize,
        hidden: usize,
        out_dim: usize,
        out_activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        let lin1 =
            Linear::new(store, &format!("{name}.lin1"), in_dim, hidden, Activation::Relu, rng);
        let lin2 =
            Linear::new(store, &format!("{name}.lin2"), hidden, out_dim, Activation::Identity, rng);
        let proj = (in_dim != out_dim).then(|| {
            Linear::new(store, &format!("{name}.proj"), in_dim, out_dim, Activation::Identity, rng)
        });
        Self { lin1, lin2, proj, out_activation }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.lin1.in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.lin2.out_dim()
    }

    /// Width of the inner (first-layer) activation.
    pub fn hidden_dim(&self) -> usize {
        self.lin1.out_dim()
    }

    /// Runs the block.
    pub fn forward(&self, tape: &mut Tape, store: &ParamStore, x: Var) -> Var {
        let h = self.lin1.forward(tape, store, x);
        let h = self.lin2.forward(tape, store, h);
        let skip = match &self.proj {
            Some(p) => p.forward(tape, store, x),
            None => x,
        };
        let y = tape.add(h, skip);
        self.out_activation.apply(tape, y)
    }

    /// Tape-free forward over the selected rows; every other row of `out`
    /// is untouched. Bitwise identical to the same rows of
    /// [`ResBlock::forward`].
    ///
    /// `scratch_h` (`N × hidden`) and `scratch_y` (`N × out_dim`) hold the
    /// intermediate activations for the selected rows; their other rows
    /// are never read, so stale contents are fine.
    ///
    /// # Panics
    ///
    /// Panics on any shape mismatch.
    pub fn forward_rows_into(
        &self,
        store: &ParamStore,
        x: &Matrix,
        rows: Rows<'_>,
        scratch_h: &mut Matrix,
        scratch_y: &mut Matrix,
        out: &mut Matrix,
    ) {
        let n = self.out_dim();
        assert_eq!(scratch_h.shape(), (x.rows(), self.hidden_dim()), "resblock scratch_h shape");
        assert_eq!(scratch_y.shape(), (x.rows(), n), "resblock scratch_y shape");
        assert_eq!(out.shape(), (x.rows(), n), "resblock output shape");
        self.lin1.forward_rows_into(store, x, rows, scratch_h);
        self.lin2.forward_rows_into(store, scratch_h, rows, scratch_y);
        let act = self.out_activation;
        match &self.proj {
            Some(p) => {
                // `out` holds the projected skip; fold `h + skip` in place
                // (same operand order as `tape.add(h, skip)`).
                p.forward_rows_into(store, x, rows, out);
                crate::kernels::zip_rows_inplace(
                    scratch_y.as_slice(),
                    rows,
                    n,
                    out.as_mut_slice(),
                    move |h, skip| act.eval(h + skip),
                );
            }
            None => {
                assert_eq!(x.cols(), n, "identity skip dim mismatch");
                crate::kernels::zip_rows_into(
                    scratch_y.as_slice(),
                    x.as_slice(),
                    rows,
                    n,
                    out.as_mut_slice(),
                    move |h, skip| act.eval(h + skip),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn linear_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut store, "l", 4, 3, Activation::Relu, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(5, 4));
        let y = lin.forward(&mut tape, &store, x);
        assert_eq!(tape.shape(y), (5, 3));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn mlp_depth_and_dims() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&mut store, "m", 6, 16, 2, 4, Activation::Identity, &mut rng);
        assert_eq!(mlp.depth(), 4);
        assert_eq!(mlp.in_dim(), 6);
        assert_eq!(mlp.out_dim(), 2);
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(3, 6));
        let y = mlp.forward(&mut tape, &store, x);
        assert_eq!(tape.shape(y), (3, 2));
    }

    #[test]
    fn resblock_identity_skip_when_dims_match() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let block = ResBlock::new(&mut store, "r", 4, 8, 4, Activation::Identity, &mut rng);
        // 2 linears × (w, b) = 4 params, no projection
        assert_eq!(store.len(), 4);
        assert_eq!(block.in_dim(), 4);
        assert_eq!(block.out_dim(), 4);
    }

    #[test]
    fn resblock_projects_when_dims_differ() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let block = ResBlock::new(&mut store, "r", 4, 8, 6, Activation::Relu, &mut rng);
        assert_eq!(store.len(), 6); // + projection (w, b)
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(2, 4));
        let y = block.forward(&mut tape, &store, x);
        assert_eq!(tape.shape(y), (2, 6));
    }

    #[test]
    fn mlp_learns_xor() {
        // End-to-end sanity check that layers + tape + Adam train.
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mlp = Mlp::new(&mut store, "xor", 2, 12, 1, 3, Activation::Identity, &mut rng);
        let mut opt = Adam::new(0.02);
        let x = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]);
        let y = Arc::new(Matrix::col_vector(&[0.0, 1.0, 1.0, 0.0]));
        let w = Arc::new(Matrix::full(4, 1, 1.0));
        let mut last = f32::INFINITY;
        for _ in 0..400 {
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let logits = mlp.forward(&mut tape, &store, xv);
            let loss = tape.bce_with_logits(logits, Arc::clone(&y), Arc::clone(&w));
            last = tape.value(loss).item();
            tape.backward(loss);
            store.absorb_grads(&mut tape);
            opt.step(&mut store);
            store.zero_grad();
        }
        assert!(last < 0.1, "xor failed to train: loss = {last}");
    }

    #[test]
    #[should_panic(expected = "linear input dim mismatch")]
    fn linear_rejects_wrong_input_dim() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let lin = Linear::new(&mut store, "l", 4, 3, Activation::Identity, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(5, 7));
        lin.forward(&mut tape, &store, x);
    }
}
