//! Tape-based reverse-mode automatic differentiation.
//!
//! A [`Tape`] records every operation of a forward pass as a node holding
//! its value and enough information to propagate gradients. Calling
//! [`Tape::backward`] on a scalar loss walks the tape in reverse and fills
//! in gradients; [`Tape::take_param_grads`] then hands gradients of
//! parameter leaves into a [`ParamStore`](crate::optim::ParamStore) for an
//! optimiser step.
//!
//! One tape corresponds to one forward pass; build a fresh tape per
//! training step. Parameters live outside the tape so their state persists.
//!
//! # Examples
//!
//! ```
//! use neurograd::{Matrix, Tape};
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf_grad(Matrix::from_rows(&[&[1.0, 2.0]]));
//! let y = tape.relu(x);
//! let loss = tape.sum_all(y);
//! tape.backward(loss);
//! assert_eq!(tape.grad(x).unwrap().as_slice(), &[1.0, 1.0]);
//! ```

use std::sync::Arc;

use crate::conv::{self, Conv2dCfg};
use crate::kernels;
use crate::matrix::Matrix;
use crate::sparse::CsrMatrix;

/// Handle to a node on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

/// Identifier of a persistent parameter in a
/// [`ParamStore`](crate::optim::ParamStore).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

/// The recorded operation that produced a node.
#[derive(Debug)]
pub(crate) enum Op {
    Leaf,
    Add(usize, usize),
    Mul(usize, usize),
    MatMul(usize, usize),
    AddBias(usize, usize),
    Scale(usize, f32),
    Relu(usize),
    LeakyRelu(usize, f32),
    Sigmoid(usize),
    Tanh(usize),
    ConcatCols(usize, usize),
    ConcatRows(usize, usize),
    Transpose(usize),
    GatherRows(usize, Arc<Vec<usize>>),
    Spmm(Arc<CsrMatrix>, usize),
    SumAll(usize),
    MeanAll(usize),
    MseLoss { pred: usize, target: Arc<Matrix> },
    BceWithLogits { logits: usize, targets: Arc<Matrix>, weights: Arc<Matrix> },
    Conv2d { input: usize, weight: usize, bias: usize, cfg: Conv2dCfg, cols: Matrix },
    MaxPool2d { input: usize, argmax: Vec<usize>, in_cols: usize },
    UpsampleNearest2 { input: usize, h: usize, w: usize },
}

pub(crate) struct Node {
    pub(crate) value: Matrix,
    pub(crate) grad: Option<Matrix>,
    pub(crate) op: Op,
    pub(crate) requires_grad: bool,
    pub(crate) param: Option<ParamId>,
}

/// The autodiff tape recording one forward pass.
///
/// Node values and gradients are allocated from an internal buffer pool
/// that [`Tape::clear`] refills, so a long-lived tape reaches a
/// zero-allocation steady state: after one warm-up forward (+ backward),
/// every later pass reuses the previous pass's buffers.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
    /// Recycled element buffers (values and gradients of cleared passes).
    free: Vec<Vec<f32>>,
}

/// Upper bound on recycled buffers kept across [`Tape::clear`] calls.
const FREE_LIST_CAP: usize = 4096;

/// Pops a recycled buffer (or allocates) sized to `len` elements.
///
/// **Contract: every consumer fully overwrites the buffer** — all kernels
/// write every row they own and the copy/zip/map builders write every
/// element — so a recycled same-size buffer is handed back as-is, with
/// stale contents, skipping the memset the old zeroing pass paid on every
/// steady-state op. Only the growth tail (when the recycled buffer is
/// shorter than `len`) and the cold fresh-allocation path are zeroed.
///
/// Free function rather than a method so op builders can hold `&self.nodes`
/// borrows alongside the `&mut free` borrow.
fn alloc_pooled(free: &mut Vec<Vec<f32>>, len: usize) -> Vec<f32> {
    match free.pop() {
        Some(mut buf) => {
            buf.truncate(len);
            buf.resize(len, 0.0);
            buf
        }
        None => vec![0.0; len],
    }
}

/// Pooled `rows × cols` matrix from a recycled buffer filled by `fill`
/// (which must write every element — see [`alloc_pooled`]).
fn pooled_with(
    free: &mut Vec<Vec<f32>>,
    rows: usize,
    cols: usize,
    fill: impl FnOnce(&mut [f32]),
) -> Matrix {
    let mut buf = alloc_pooled(free, rows * cols);
    fill(&mut buf);
    Matrix::from_vec(rows, cols, buf).expect("pooled buffer sized by construction")
}

/// Pooled copy of `g` (for ops whose backward is the identity).
fn pooled_copy(free: &mut Vec<Vec<f32>>, g: &Matrix) -> Matrix {
    pooled_with(free, g.rows(), g.cols(), |buf| buf.copy_from_slice(g.as_slice()))
}

/// Pooled elementwise-combined gradient `f(g, other)`.
fn pooled_zip(
    free: &mut Vec<Vec<f32>>,
    g: &Matrix,
    other: &Matrix,
    f: impl Fn(f32, f32) -> f32 + Sync,
) -> Matrix {
    pooled_with(free, g.rows(), g.cols(), |buf| {
        kernels::zip_into(g.as_slice(), other.as_slice(), buf, f);
    })
}

impl std::fmt::Debug for Tape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Tape({} nodes)", self.nodes.len())
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new(), free: Vec::new() }
    }

    /// Clears all recorded nodes while keeping the tape's allocations.
    ///
    /// This is the scratch-buffer entry point for inference servers and the
    /// data-parallel trainer: one long-lived tape per worker thread,
    /// cleared between forwards. The node vector keeps its capacity and
    /// every node's value/gradient buffer is recycled into the tape's
    /// buffer pool, so the next pass allocates (near) nothing. All
    /// previously returned [`Var`] handles are invalidated.
    pub fn clear(&mut self) {
        for node in self.nodes.drain(..) {
            self.free.push(node.value.into_vec());
            if let Some(grad) = node.grad {
                self.free.push(grad.into_vec());
            }
        }
        self.free.truncate(FREE_LIST_CAP);
    }

    /// Number of recycled buffers currently pooled (diagnostics).
    #[cfg(test)]
    fn pooled_buffers(&self) -> usize {
        self.free.len()
    }

    /// The value of a node.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this tape.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The gradient of a node, if backward has produced one.
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Shape of a node's value.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    pub(crate) fn push(&mut self, value: Matrix, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node { value, grad: None, op, requires_grad, param: None });
        Var(self.nodes.len() - 1)
    }

    pub(crate) fn rg(&self, i: usize) -> bool {
        self.nodes[i].requires_grad
    }

    /// Inserts a constant leaf (no gradient will be computed for it).
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// Inserts a leaf that participates in gradient computation.
    pub fn leaf_grad(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Inserts a leaf mirroring parameter `id` with the given current value.
    ///
    /// Used by [`ParamStore::var`](crate::optim::ParamStore::var); after
    /// [`Tape::backward`], [`Tape::take_param_grads`] routes this
    /// leaf's gradient back to the store.
    pub(crate) fn param_leaf(&mut self, id: ParamId, value: Matrix) -> Var {
        let v = self.push(value, Op::Leaf, true);
        self.nodes[v.0].param = Some(id);
        v
    }

    // ---- elementwise & linear algebra ops ----
    //
    // Every op allocates its output from the tape's buffer pool and runs
    // through the `kernels` backend, so forwards parallelise across the
    // process pool and a cleared tape re-serves its own buffers.

    /// Builds a pooled `rows × cols` matrix by running `fill` on a
    /// recycled element buffer. `fill` must write every element (all
    /// kernels overwrite the rows they own — see [`alloc_pooled`]).
    fn pooled_value(
        &mut self,
        rows: usize,
        cols: usize,
        fill: impl FnOnce(&Self, &mut [f32]),
    ) -> Matrix {
        let mut buf = alloc_pooled(&mut self.free, rows * cols);
        fill(self, &mut buf);
        Matrix::from_vec(rows, cols, buf).expect("pooled buffer sized by construction")
    }

    /// Pooled elementwise binary op (shape-checked like `Matrix::zip_map`).
    fn zip_op(&mut self, a: Var, b: Var, op: Op, f: impl Fn(f32, f32) -> f32 + Sync) -> Var {
        assert_eq!(self.shape(a), self.shape(b), "zip_map shape mismatch");
        let (rows, cols) = self.shape(a);
        let value = self.pooled_value(rows, cols, |t, buf| {
            kernels::zip_into(t.value(a).as_slice(), t.value(b).as_slice(), buf, f);
        });
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(value, op, rg)
    }

    /// Pooled elementwise unary op.
    fn map_op(&mut self, x: Var, op: Op, f: impl Fn(f32) -> f32 + Sync) -> Var {
        let (rows, cols) = self.shape(x);
        let value = self.pooled_value(rows, cols, |t, buf| {
            kernels::map_into(t.value(x).as_slice(), buf, f);
        });
        let rg = self.rg(x.0);
        self.push(value, op, rg)
    }

    /// Elementwise sum `a + b`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.zip_op(a, b, Op::Add(a.0, b.0), |x, y| x + y)
    }

    /// Elementwise (Hadamard) product `a ⊙ b`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.zip_op(a, b, Op::Mul(a.0, b.0), |x, y| x * y)
    }

    /// Matrix product `a · b`.
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (rows, cols) = (self.shape(a).0, self.shape(b).1);
        let value = self.pooled_value(rows, cols, |t, buf| {
            kernels::matmul_into(t.value(a), t.value(b), buf);
        });
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(value, Op::MatMul(a.0, b.0), rg)
    }

    /// Adds a `1 × cols` bias row to every row of `x`.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × cols(x)`.
    pub(crate) fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let (rows, cols) = self.shape(x);
        assert_eq!(self.shape(bias), (1, cols), "row broadcast shape mismatch");
        let value = self.pooled_value(rows, cols, |t, buf| {
            let bias_row = t.value(bias).as_slice();
            buf.copy_from_slice(t.value(x).as_slice());
            for row in buf.chunks_mut(cols.max(1)) {
                for (o, &b) in row.iter_mut().zip(bias_row) {
                    *o += b;
                }
            }
        });
        let rg = self.rg(x.0) || self.rg(bias.0);
        self.push(value, Op::AddBias(x.0, bias.0), rg)
    }

    /// Fully-connected layer `x · w + bias`.
    pub(crate) fn linear(&mut self, x: Var, w: Var, bias: Var) -> Var {
        let y = self.matmul(x, w);
        self.add_bias(y, bias)
    }

    /// Scalar multiple `x * s`.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        self.map_op(x, Op::Scale(x.0, s), move |v| v * s)
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        self.map_op(x, Op::Relu(x.0), |v| v.max(0.0))
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, x: Var, alpha: f32) -> Var {
        self.map_op(x, Op::LeakyRelu(x.0, alpha), move |v| if v >= 0.0 { v } else { alpha * v })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        self.map_op(x, Op::Sigmoid(x.0), stable_sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        self.map_op(x, Op::Tanh(x.0), f32::tanh)
    }

    /// Column concatenation `[a | b]`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        let (rows, ca) = self.shape(a);
        let cb = self.shape(b).1;
        assert_eq!(rows, self.shape(b).0, "concat_cols row mismatch");
        let value = self.pooled_value(rows, ca + cb, |t, buf| {
            let (va, vb) = (t.value(a), t.value(b));
            for (r, row) in buf.chunks_mut((ca + cb).max(1)).enumerate() {
                row[..ca].copy_from_slice(va.row(r));
                row[ca..].copy_from_slice(vb.row(r));
            }
        });
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(value, Op::ConcatCols(a.0, b.0), rg)
    }

    /// Row concatenation `[a ; b]` (channel concat in `(C, H·W)` layout).
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        let (ra, cols) = self.shape(a);
        let rb = self.shape(b).0;
        assert_eq!(cols, self.shape(b).1, "concat_rows col mismatch");
        let value = self.pooled_value(ra + rb, cols, |t, buf| {
            buf[..ra * cols].copy_from_slice(t.value(a).as_slice());
            buf[ra * cols..].copy_from_slice(t.value(b).as_slice());
        });
        let rg = self.rg(a.0) || self.rg(b.0);
        self.push(value, Op::ConcatRows(a.0, b.0), rg)
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, x: Var) -> Var {
        let (rows, cols) = self.shape(x);
        let value = self.pooled_value(cols, rows, |t, buf| {
            let src = t.value(x).as_slice();
            for r in 0..rows {
                for c in 0..cols {
                    buf[c * rows + r] = src[r * cols + c];
                }
            }
        });
        let rg = self.rg(x.0);
        self.push(value, Op::Transpose(x.0), rg)
    }

    /// Gathers rows of `x` by index (rows may repeat).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn gather_rows(&mut self, x: Var, idx: Arc<Vec<usize>>) -> Var {
        let cols = self.shape(x).1;
        let value = self.pooled_value(idx.len(), cols, |t, buf| {
            let v = t.value(x);
            for (row, &i) in buf.chunks_mut(cols.max(1)).zip(idx.iter()) {
                row.copy_from_slice(v.row(i));
            }
        });
        let rg = self.rg(x.0);
        self.push(value, Op::GatherRows(x.0, idx), rg)
    }

    /// Sparse aggregation `S · x` (e.g. a message-passing step).
    ///
    /// # Panics
    ///
    /// Panics if `S.cols != rows(x)`.
    pub fn spmm(&mut self, s: Arc<CsrMatrix>, x: Var) -> Var {
        assert_eq!(s.cols(), self.shape(x).0, "spmm shape mismatch on tape");
        let (rows, cols) = (s.rows(), self.shape(x).1);
        let value = self.pooled_value(rows, cols, |t, buf| {
            kernels::spmm_into(&s, t.value(x), buf);
        });
        let rg = self.rg(x.0);
        self.push(value, Op::Spmm(s, x.0), rg)
    }

    /// Sum of all elements (`1 × 1` result).
    pub fn sum_all(&mut self, x: Var) -> Var {
        let value = Matrix::scalar(self.value(x).sum());
        let rg = self.rg(x.0);
        self.push(value, Op::SumAll(x.0), rg)
    }

    /// Mean of all elements (`1 × 1` result).
    pub fn mean_all(&mut self, x: Var) -> Var {
        let value = Matrix::scalar(self.value(x).mean());
        let rg = self.rg(x.0);
        self.push(value, Op::MeanAll(x.0), rg)
    }

    // ---- fused losses ----

    /// Mean-squared-error loss `mean((pred - target)²)` (`1 × 1` result).
    ///
    /// This is the routing-demand regression loss, Eq. 4 of the paper.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn mse_loss(&mut self, pred: Var, target: Arc<Matrix>) -> Var {
        assert_eq!(self.shape(pred), target.shape(), "mse_loss shape mismatch");
        let diff = self.value(pred).sub(&target);
        let n = diff.len().max(1) as f32;
        let value = Matrix::scalar(diff.as_slice().iter().map(|d| d * d).sum::<f32>() / n);
        let rg = self.rg(pred.0);
        self.push(value, Op::MseLoss { pred: pred.0, target }, rg)
    }

    /// Weighted binary cross-entropy on logits (`1 × 1` result).
    ///
    /// Computes `mean(w ⊙ [softplus(z) - z·y])` using the numerically
    /// stable formulation `max(z,0) - z·y + ln(1 + e^{-|z|})`. With
    /// `w = y + (1-y)·γ` this is exactly Eq. 5 of the paper (the
    /// label-imbalance weighting with hyper-parameter γ).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn bce_with_logits(
        &mut self,
        logits: Var,
        targets: Arc<Matrix>,
        weights: Arc<Matrix>,
    ) -> Var {
        assert_eq!(self.shape(logits), targets.shape(), "bce logits/targets mismatch");
        assert_eq!(self.shape(logits), weights.shape(), "bce logits/weights mismatch");
        let z = self.value(logits);
        let n = z.len().max(1) as f32;
        let mut total = 0.0f32;
        for ((&zi, &yi), &wi) in z.as_slice().iter().zip(targets.as_slice()).zip(weights.as_slice())
        {
            let loss = zi.max(0.0) - zi * yi + (1.0 + (-zi.abs()).exp()).ln();
            total += wi * loss;
        }
        let value = Matrix::scalar(total / n);
        let rg = self.rg(logits.0);
        self.push(value, Op::BceWithLogits { logits: logits.0, targets, weights }, rg)
    }

    // ---- image ops (see conv.rs for the math) ----

    /// 2-D convolution over a `(C_in, H·W)` feature map.
    ///
    /// `weight` must be `(C_out, C_in·k·k)`, `bias` `(C_out, 1)`. Output is
    /// `(C_out, H_out·W_out)` with `H_out = (H + 2p - k)/s + 1`.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent with `cfg`.
    pub fn conv2d(&mut self, input: Var, weight: Var, bias: Var, cfg: Conv2dCfg) -> Var {
        let (value, cols) =
            conv::conv2d_forward(self.value(input), self.value(weight), self.value(bias), cfg);
        let rg = self.rg(input.0) || self.rg(weight.0) || self.rg(bias.0);
        self.push(
            value,
            Op::Conv2d { input: input.0, weight: weight.0, bias: bias.0, cfg, cols },
            rg,
        )
    }

    /// 2×2 max-pooling with stride 2 over a `(C, H·W)` feature map.
    ///
    /// # Panics
    ///
    /// Panics if `H` or `W` is odd or shapes are inconsistent.
    pub fn max_pool2d(&mut self, input: Var, h: usize, w: usize) -> Var {
        let in_cols = self.value(input).cols();
        let (value, argmax) = conv::max_pool2d_forward(self.value(input), h, w);
        let rg = self.rg(input.0);
        self.push(value, Op::MaxPool2d { input: input.0, argmax, in_cols }, rg)
    }

    /// Nearest-neighbour 2× upsampling over a `(C, H·W)` feature map.
    ///
    /// # Panics
    ///
    /// Panics if shapes are inconsistent.
    pub fn upsample_nearest2(&mut self, input: Var, h: usize, w: usize) -> Var {
        let value = conv::upsample_nearest2_forward(self.value(input), h, w);
        let rg = self.rg(input.0);
        self.push(value, Op::UpsampleNearest2 { input: input.0, h, w }, rg)
    }

    // ---- backward ----

    /// Runs reverse-mode differentiation from scalar node `loss`.
    ///
    /// Gradients are accumulated into every node with `requires_grad`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `1 × 1`.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(self.shape(loss), (1, 1), "backward requires a scalar loss");
        let n = loss.0;
        self.nodes[n].grad = Some(Matrix::scalar(1.0));
        for i in (0..=n).rev() {
            if self.nodes[i].grad.is_none() || !self.nodes[i].requires_grad {
                continue;
            }
            self.propagate(i);
        }
    }

    fn add_grad(&mut self, node: usize, g: Matrix) {
        if !self.nodes[node].requires_grad {
            // recycle the rejected gradient's buffer
            self.free.push(g.into_vec());
            return;
        }
        match &mut self.nodes[node].grad {
            Some(existing) => {
                existing.add_scaled_inplace(&g, 1.0);
                self.free.push(g.into_vec());
            }
            slot @ None => *slot = Some(g),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn propagate(&mut self, i: usize) {
        let grad = self.nodes[i].grad.clone().expect("propagate called with grad present");
        // Temporarily take the op to appease the borrow checker; every arm
        // must leave `self.nodes[i].op` restored.
        let op = std::mem::replace(&mut self.nodes[i].op, Op::Leaf);
        match &op {
            Op::Leaf => {}
            Op::Add(a, b) => {
                let ga = pooled_copy(&mut self.free, &grad);
                self.add_grad(*a, ga);
                self.add_grad(*b, grad);
            }
            Op::Mul(a, b) => {
                let ga = pooled_zip(&mut self.free, &grad, &self.nodes[*b].value, |g, v| g * v);
                let gb = pooled_zip(&mut self.free, &grad, &self.nodes[*a].value, |g, v| g * v);
                self.add_grad(*a, ga);
                self.add_grad(*b, gb);
            }
            Op::MatMul(a, b) => {
                if self.rg(*a) {
                    let bv = &self.nodes[*b].value;
                    let ga = pooled_with(&mut self.free, grad.rows(), bv.rows(), |buf| {
                        kernels::matmul_nt_into(&grad, bv, buf);
                    });
                    self.add_grad(*a, ga);
                }
                if self.rg(*b) {
                    let av = &self.nodes[*a].value;
                    let gb = pooled_with(&mut self.free, av.cols(), grad.cols(), |buf| {
                        kernels::matmul_tn_into(av, &grad, buf);
                    });
                    self.add_grad(*b, gb);
                }
            }
            Op::AddBias(x, bias) => {
                if self.rg(*bias) {
                    let mut gb = Matrix::zeros(1, grad.cols());
                    for r in 0..grad.rows() {
                        for (o, &g) in gb.row_mut(0).iter_mut().zip(grad.row(r)) {
                            *o += g;
                        }
                    }
                    self.add_grad(*bias, gb);
                }
                self.add_grad(*x, grad);
            }
            Op::Scale(x, s) => {
                let s = *s;
                let gx = pooled_with(&mut self.free, grad.rows(), grad.cols(), |buf| {
                    kernels::map_into(grad.as_slice(), buf, move |g| g * s);
                });
                self.add_grad(*x, gx);
            }
            Op::Relu(x) => {
                let gx = pooled_zip(&mut self.free, &grad, &self.nodes[*x].value, |g, v| {
                    if v > 0.0 {
                        g
                    } else {
                        0.0
                    }
                });
                self.add_grad(*x, gx);
            }
            Op::LeakyRelu(x, alpha) => {
                let a = *alpha;
                let gx = pooled_zip(&mut self.free, &grad, &self.nodes[*x].value, move |g, v| {
                    if v >= 0.0 {
                        g
                    } else {
                        a * g
                    }
                });
                self.add_grad(*x, gx);
            }
            Op::Sigmoid(x) => {
                let gx = pooled_zip(&mut self.free, &grad, &self.nodes[i].value, |g, y| {
                    g * y * (1.0 - y)
                });
                self.add_grad(*x, gx);
            }
            Op::Tanh(x) => {
                let gx = pooled_zip(&mut self.free, &grad, &self.nodes[i].value, |g, y| {
                    g * (1.0 - y * y)
                });
                self.add_grad(*x, gx);
            }
            Op::ConcatCols(a, b) => {
                let ca = self.nodes[*a].value.cols();
                let cb = self.nodes[*b].value.cols();
                self.add_grad(*a, grad.slice_cols(0, ca));
                self.add_grad(*b, grad.slice_cols(ca, ca + cb));
            }
            Op::ConcatRows(a, b) => {
                let ra = self.nodes[*a].value.rows();
                let cols = grad.cols();
                let ga = Matrix::from_vec(ra, cols, grad.as_slice()[..ra * cols].to_vec())
                    .expect("sized by construction");
                let rb = self.nodes[*b].value.rows();
                let gb = Matrix::from_vec(rb, cols, grad.as_slice()[ra * cols..].to_vec())
                    .expect("sized by construction");
                self.add_grad(*a, ga);
                self.add_grad(*b, gb);
            }
            Op::Transpose(x) => {
                self.add_grad(*x, grad.transpose());
            }
            Op::GatherRows(x, idx) => {
                let (rows, cols) = self.nodes[*x].value.shape();
                let mut gx = Matrix::zeros(rows, cols);
                for (r, &src) in idx.iter().enumerate() {
                    for (o, &g) in gx.row_mut(src).iter_mut().zip(grad.row(r)) {
                        *o += g;
                    }
                }
                self.add_grad(*x, gx);
            }
            Op::Spmm(s, x) => {
                // y = S x  =>  dx = Sᵀ dy (cached transpose, computed once
                // per operator and reused by every later backward step)
                let st = Arc::clone(s.transpose_cached());
                let gx = pooled_with(&mut self.free, st.rows(), grad.cols(), |buf| {
                    kernels::spmm_into(&st, &grad, buf);
                });
                self.add_grad(*x, gx);
            }
            Op::SumAll(x) => {
                let g = grad.item();
                let (rows, cols) = self.nodes[*x].value.shape();
                self.add_grad(*x, Matrix::full(rows, cols, g));
            }
            Op::MeanAll(x) => {
                let (rows, cols) = self.nodes[*x].value.shape();
                let n = (rows * cols).max(1) as f32;
                let g = grad.item() / n;
                self.add_grad(*x, Matrix::full(rows, cols, g));
            }
            Op::MseLoss { pred, target } => {
                let p = &self.nodes[*pred].value;
                let n = p.len().max(1) as f32;
                let g = grad.item() * 2.0 / n;
                let gp = p.zip_map(target, |pi, ti| g * (pi - ti));
                self.add_grad(*pred, gp);
            }
            Op::BceWithLogits { logits, targets, weights } => {
                let z = &self.nodes[*logits].value;
                let n = z.len().max(1) as f32;
                let g = grad.item() / n;
                let mut gz = Matrix::zeros(z.rows(), z.cols());
                for (o, ((&zi, &yi), &wi)) in gz
                    .as_mut_slice()
                    .iter_mut()
                    .zip(z.as_slice().iter().zip(targets.as_slice()).zip(weights.as_slice()))
                {
                    *o = g * wi * (stable_sigmoid(zi) - yi);
                }
                self.add_grad(*logits, gz);
            }
            Op::Conv2d { input, weight, bias, cfg, cols } => {
                let (gi, gw, gb) = conv::conv2d_backward(
                    &grad,
                    &self.nodes[*weight].value,
                    cols,
                    *cfg,
                    self.rg(*input),
                    self.rg(*weight),
                    self.rg(*bias),
                );
                if let Some(gi) = gi {
                    self.add_grad(*input, gi);
                }
                if let Some(gw) = gw {
                    self.add_grad(*weight, gw);
                }
                if let Some(gb) = gb {
                    self.add_grad(*bias, gb);
                }
            }
            Op::MaxPool2d { input, argmax, in_cols } => {
                let rows = self.nodes[*input].value.rows();
                let gx = conv::max_pool2d_backward(&grad, argmax, rows, *in_cols);
                self.add_grad(*input, gx);
            }
            Op::UpsampleNearest2 { input, h, w } => {
                let gx = conv::upsample_nearest2_backward(&grad, *h, *w);
                self.add_grad(*input, gx);
            }
        }
        self.nodes[i].op = op;
    }

    /// Iterates over `(ParamId, gradient)` pairs of parameter leaves that
    /// received gradients, consuming the stored gradients.
    pub fn take_param_grads(&mut self) -> Vec<(ParamId, Matrix)> {
        let mut out = Vec::new();
        for node in &mut self.nodes {
            if let Some(id) = node.param {
                if let Some(grad) = node.grad.take() {
                    out.push((id, grad));
                }
            }
        }
        out
    }
}

/// Numerically stable logistic sigmoid.
pub fn stable_sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Central finite difference on a scalar-valued function of one leaf.
    fn finite_diff(
        build: impl Fn(&mut Tape, Var) -> Var,
        x0: &Matrix,
        eps: f32,
    ) -> (Matrix, Matrix) {
        // analytic
        let mut tape = Tape::new();
        let x = tape.leaf_grad(x0.clone());
        let loss = build(&mut tape, x);
        tape.backward(loss);
        let analytic = tape.grad(x).expect("grad present").clone();

        // numeric
        let mut numeric = Matrix::zeros(x0.rows(), x0.cols());
        for i in 0..x0.len() {
            let mut plus = x0.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = x0.clone();
            minus.as_mut_slice()[i] -= eps;
            let fp = {
                let mut t = Tape::new();
                let v = t.leaf_grad(plus);
                let l = build(&mut t, v);
                t.value(l).item()
            };
            let fm = {
                let mut t = Tape::new();
                let v = t.leaf_grad(minus);
                let l = build(&mut t, v);
                t.value(l).item()
            };
            numeric.as_mut_slice()[i] = (fp - fm) / (2.0 * eps);
        }
        (analytic, numeric)
    }

    fn check_grad(build: impl Fn(&mut Tape, Var) -> Var, x0: &Matrix, tol: f32) {
        let (a, n) = finite_diff(build, x0, 1e-2);
        assert!(a.approx_eq(&n, tol), "gradient mismatch:\nanalytic={a:?}\nnumeric={n:?}");
    }

    fn test_input() -> Matrix {
        Matrix::from_rows(&[&[0.5, -1.2, 2.0], &[1.5, 0.3, -0.7]])
    }

    #[test]
    fn grad_sum_of_relu() {
        check_grad(
            |t, x| {
                let y = t.relu(x);
                t.sum_all(y)
            },
            &test_input(),
            1e-2,
        );
    }

    #[test]
    fn grad_sigmoid_tanh_chain() {
        check_grad(
            |t, x| {
                let y = t.sigmoid(x);
                let z = t.tanh(y);
                t.sum_all(z)
            },
            &test_input(),
            1e-2,
        );
    }

    #[test]
    fn grad_leaky_relu() {
        check_grad(
            |t, x| {
                let y = t.leaky_relu(x, 0.2);
                t.sum_all(y)
            },
            &test_input(),
            1e-2,
        );
    }

    #[test]
    fn grad_matmul_both_sides() {
        // loss = sum(x · c) with constant c tests dA; use x on both sides
        // via xᵀ-free formulation: sum((x·c) ⊙ (x·c)).
        let c = Matrix::from_rows(&[&[1.0, 0.5], &[-0.5, 2.0], &[0.3, 0.3]]);
        check_grad(
            move |t, x| {
                let cc = t.leaf(c.clone());
                let y = t.matmul(x, cc);
                let y2 = t.mul(y, y);
                t.sum_all(y2)
            },
            &test_input(),
            5e-2,
        );
    }

    #[test]
    fn grad_add_sub_mul_scale() {
        check_grad(
            |t, x| {
                let a = t.scale(x, 3.0);
                let one = t.leaf(Matrix::full(2, 3, 1.0));
                let b = t.add(x, one);
                let c = t.mul(a, b);
                let neg = t.scale(x, -1.0);
                let d = t.add(c, neg);
                t.mean_all(d)
            },
            &test_input(),
            1e-2,
        );
    }

    #[test]
    fn grad_add_bias_routes_to_both() {
        let mut tape = Tape::new();
        let x = tape.leaf_grad(Matrix::zeros(3, 2));
        let b = tape.leaf_grad(Matrix::from_rows(&[&[1.0, 2.0]]));
        let y = tape.add_bias(x, b);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        assert_eq!(tape.grad(b).unwrap().as_slice(), &[3.0, 3.0]);
        assert_eq!(tape.grad(x).unwrap().sum(), 6.0);
    }

    #[test]
    fn grad_concat_cols() {
        check_grad(
            |t, x| {
                let y = t.concat_cols(x, x);
                let z2 = t.mul(y, y);
                t.sum_all(z2)
            },
            &test_input(),
            5e-2,
        );
    }

    #[test]
    fn grad_concat_rows_splits_gradient() {
        let mut tape = Tape::new();
        let a = tape.leaf_grad(Matrix::from_rows(&[&[1.0, 2.0]]));
        let b = tape.leaf_grad(Matrix::from_rows(&[&[3.0, 4.0], &[5.0, 6.0]]));
        let c = tape.concat_rows(a, b);
        assert_eq!(tape.shape(c), (3, 2));
        let c2 = tape.mul(c, c);
        let loss = tape.sum_all(c2);
        tape.backward(loss);
        assert_eq!(tape.grad(a).unwrap().as_slice(), &[2.0, 4.0]);
        assert_eq!(tape.grad(b).unwrap().as_slice(), &[6.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    fn grad_transpose_matches_finite_diff() {
        check_grad(
            |t, x| {
                let y = t.transpose(x);
                let y2 = t.mul(y, y);
                t.sum_all(y2)
            },
            &test_input(),
            5e-2,
        );
    }

    #[test]
    fn transpose_value_is_correct() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let y = tape.transpose(x);
        assert_eq!(tape.value(y).row(0), &[1.0, 3.0]);
    }

    #[test]
    fn grad_gather_rows_accumulates_duplicates() {
        let mut tape = Tape::new();
        let x = tape.leaf_grad(Matrix::from_rows(&[&[1.0], &[2.0]]));
        let g = tape.gather_rows(x, Arc::new(vec![0, 0, 1]));
        let loss = tape.sum_all(g);
        tape.backward(loss);
        assert_eq!(tape.grad(x).unwrap().as_slice(), &[2.0, 1.0]);
    }

    #[test]
    fn grad_spmm_matches_finite_diff() {
        let s = Arc::new(CsrMatrix::from_triplets(2, 2, &[(0, 0, 0.5), (0, 1, 0.5), (1, 1, 2.0)]));
        let x0 = Matrix::from_rows(&[&[1.0, -1.0, 0.5], &[0.2, 0.4, 0.6]]);
        check_grad(
            move |t, x| {
                let y = t.spmm(Arc::clone(&s), x);
                let y2 = t.mul(y, y);
                t.sum_all(y2)
            },
            &x0,
            5e-2,
        );
    }

    #[test]
    fn grad_spmm_t_matches_finite_diff() {
        // Aggregating by Sᵀ, the operator's cached transpose, as the
        // G-cell → G-net message passing does.
        let s = CsrMatrix::from_triplets(3, 2, &[(0, 0, 1.0), (1, 0, 1.0), (2, 1, 0.7)]);
        let st = Arc::clone(s.transpose_cached());
        let x0 = Matrix::from_rows(&[&[1.0, 2.0], &[0.5, -0.5], &[1.5, 0.1]]);
        check_grad(
            move |t, x| {
                let y = t.spmm(Arc::clone(&st), x);
                let y2 = t.mul(y, y);
                t.sum_all(y2)
            },
            &x0,
            5e-2,
        );
    }

    #[test]
    fn grad_mse_loss() {
        let target = Arc::new(Matrix::from_rows(&[&[1.0, 0.0, 0.5], &[0.2, 0.2, 0.2]]));
        check_grad(move |t, x| t.mse_loss(x, Arc::clone(&target)), &test_input(), 1e-2);
    }

    #[test]
    fn grad_bce_with_logits_weighted() {
        let targets = Arc::new(Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 0.0]]));
        let gamma = 0.7;
        let weights = Arc::new(targets.map(|y| y + (1.0 - y) * gamma));
        check_grad(
            move |t, x| t.bce_with_logits(x, Arc::clone(&targets), Arc::clone(&weights)),
            &test_input(),
            1e-2,
        );
    }

    #[test]
    fn bce_matches_naive_formula() {
        // direct comparison against -w (y ln p + (1-y) ln (1-p))
        let mut tape = Tape::new();
        let z = Matrix::from_rows(&[&[0.3, -1.0, 2.0]]);
        let y = Matrix::from_rows(&[&[1.0, 0.0, 0.0]]);
        let gamma = 0.7;
        let w = y.map(|yi| yi + (1.0 - yi) * gamma);
        let zl = tape.leaf_grad(z.clone());
        let loss = tape.bce_with_logits(zl, Arc::new(y.clone()), Arc::new(w.clone()));
        let mut expected = 0.0;
        for i in 0..3 {
            let p = stable_sigmoid(z.as_slice()[i]);
            let yi = y.as_slice()[i];
            let wi = w.as_slice()[i];
            expected -= wi * (yi * p.ln() + (1.0 - yi) * (1.0 - p).ln());
        }
        expected /= 3.0;
        assert!((tape.value(loss).item() - expected).abs() < 1e-5);
    }

    #[test]
    fn no_grad_for_constants() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::full(2, 2, 1.0));
        let y = tape.relu(x);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        assert!(tape.grad(x).is_none());
    }

    #[test]
    fn grads_accumulate_across_reuse() {
        // loss = sum(x + x) => dx = 2
        let mut tape = Tape::new();
        let x = tape.leaf_grad(Matrix::full(1, 2, 3.0));
        let y = tape.add(x, x);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        assert_eq!(tape.grad(x).unwrap().as_slice(), &[2.0, 2.0]);
    }

    #[test]
    fn take_param_grads_leaves_non_param_grads_intact() {
        let mut tape = Tape::new();
        let x = tape.leaf_grad(Matrix::scalar(1.0));
        let p = tape.param_leaf(ParamId(0), Matrix::scalar(2.0));
        let y = tape.mul(x, p);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        let grads = tape.take_param_grads();
        assert_eq!(grads.len(), 1);
        // the non-param leaf keeps its gradient
        assert!(tape.grad(x).is_some());
        assert_eq!(tape.grad(x).unwrap().item(), 2.0);
    }

    #[test]
    fn param_grads_are_collected() {
        let mut tape = Tape::new();
        let p = tape.param_leaf(ParamId(7), Matrix::full(1, 1, 2.0));
        let y = tape.mul(p, p);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        let grads = tape.take_param_grads();
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].0, ParamId(7));
        assert!((grads[0].1.item() - 4.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn tape_matmul_rejects_inner_dimension_mismatch() {
        let mut tape = Tape::new();
        let a = tape.leaf(Matrix::zeros(2, 3));
        let b = tape.leaf(Matrix::zeros(5, 4));
        let _ = tape.matmul(a, b);
    }

    #[test]
    #[should_panic(expected = "spmm shape mismatch")]
    fn tape_spmm_rejects_mismatched_operand() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(2, 2));
        let s = Arc::new(CsrMatrix::empty(3, 3));
        let _ = tape.spmm(s, x);
    }

    #[test]
    fn clear_recycles_value_and_grad_buffers() {
        let mut tape = Tape::new();
        let run = |tape: &mut Tape| {
            let x = tape.leaf_grad(Matrix::full(4, 4, 1.0));
            let y = tape.relu(x);
            let z = tape.scale(y, 2.0);
            let loss = tape.sum_all(z);
            tape.backward(loss);
            tape.value(loss).item()
        };
        let first = run(&mut tape);
        tape.clear();
        let harvested = tape.pooled_buffers();
        assert!(harvested > 0, "clear must harvest node value/grad buffers");
        // a second identical pass reuses the pool and reproduces the value
        let second = run(&mut tape);
        assert_eq!(first, second);
        tape.clear();
        assert!(
            tape.pooled_buffers() >= harvested,
            "steady state: the pool refills to at least its previous size"
        );
    }

    #[test]
    fn cleared_tape_reproduces_fresh_tape_bitwise() {
        let x0 = test_input();
        let fresh = |x0: &Matrix| {
            let mut t = Tape::new();
            let x = t.leaf_grad(x0.clone());
            let y = t.sigmoid(x);
            let z = t.mul(y, y);
            let loss = t.mean_all(z);
            t.backward(loss);
            (t.value(loss).item(), t.grad(x).unwrap().clone())
        };
        let (l1, g1) = fresh(&x0);
        let mut reused = Tape::new();
        for _ in 0..3 {
            reused.clear();
            let x = reused.leaf_grad(x0.clone());
            let y = reused.sigmoid(x);
            let z = reused.mul(y, y);
            let loss = reused.mean_all(z);
            reused.backward(loss);
            assert_eq!(reused.value(loss).item(), l1);
            assert!(reused.grad(x).unwrap().approx_eq(&g1, 0.0));
        }
    }

    #[test]
    fn stable_sigmoid_extremes() {
        assert!(stable_sigmoid(100.0) > 0.999);
        assert!(stable_sigmoid(-100.0) < 1e-3);
        assert!((stable_sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!(stable_sigmoid(-1000.0).is_finite());
    }
}
