//! Persistent parameter storage and the Adam optimiser.
//!
//! Parameters live in a [`ParamStore`] that outlives the per-step
//! [`crate::tape::Tape`]. Each training step:
//!
//! 1. build a fresh tape, inserting parameters with [`ParamStore::var`],
//! 2. compute the loss and call [`Tape::backward`](crate::tape::Tape::backward),
//! 3. route gradients back with [`ParamStore::absorb_grads`],
//! 4. call [`Adam::step`] and then [`ParamStore::zero_grad`].

use crate::matrix::Matrix;
use crate::tape::{ParamId, Tape, Var};

/// One persistent trainable tensor with its gradient and Adam state.
#[derive(Debug, Clone)]
pub struct Param {
    /// Human-readable name (layer/field), for debugging and inspection.
    pub name: String,
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Matrix,
    /// Adam first-moment state.
    pub m: Matrix,
    /// Adam second-moment state.
    pub v: Matrix,
}

/// Container owning every trainable parameter of a model.
#[derive(Debug, Default)]
pub struct ParamStore {
    params: Vec<Param>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self { params: Vec::new() }
    }

    /// Registers a new parameter and returns its id.
    pub fn register(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        let (r, c) = value.shape();
        self.params.push(Param {
            name: name.into(),
            value,
            grad: Matrix::zeros(r, c),
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        });
        ParamId(self.params.len() - 1)
    }

    /// Number of registered parameters (tensors, not scalars).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar weights.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Read-only access to a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this store.
    pub fn param(&self, id: ParamId) -> &Param {
        &self.params[id.0]
    }

    /// Mutable access to a parameter.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this store.
    pub fn param_mut(&mut self, id: ParamId) -> &mut Param {
        &mut self.params[id.0]
    }

    /// Iterates over all parameters.
    pub fn iter(&self) -> impl Iterator<Item = &Param> {
        self.params.iter()
    }

    /// The id of the `i`-th registered parameter (registration order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn id_at(&self, i: usize) -> ParamId {
        assert!(i < self.params.len(), "parameter index {i} out of range");
        ParamId(i)
    }

    /// Inserts parameter `id` into `tape` as a gradient-tracked leaf.
    pub fn var(&self, id: ParamId, tape: &mut Tape) -> Var {
        tape.param_leaf(id, self.params[id.0].value.clone())
    }

    /// Moves all parameter gradients recorded on `tape` into the store,
    /// accumulating into existing gradients.
    pub fn absorb_grads(&mut self, tape: &mut Tape) {
        for (id, grad) in tape.take_param_grads() {
            self.params[id.0].grad.add_scaled_inplace(&grad, 1.0);
        }
    }

    /// Resets all gradients to zero.
    pub fn zero_grad(&mut self) {
        for p in &mut self.params {
            p.grad.map_inplace(|_| 0.0);
        }
    }

    /// Global L2 norm of all gradients.
    pub fn grad_norm(&self) -> f32 {
        self.params
            .iter()
            .map(|p| p.grad.as_slice().iter().map(|&g| g * g).sum::<f32>())
            .sum::<f32>()
            .sqrt()
    }

    /// Scales gradients so the global norm does not exceed `max_norm`.
    pub fn clip_grad_norm(&mut self, max_norm: f32) {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for p in &mut self.params {
                p.grad.map_inplace(|g| g * s);
            }
        }
    }
}

/// Adam's first-moment decay.
const BETA1: f32 = 0.9;
/// Adam's second-moment decay.
const BETA2: f32 = 0.999;
/// Adam's numerical stabiliser.
const EPS: f32 = 1e-8;

/// Adam optimiser (Kingma & Ba), the optimiser used by the paper.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    t: u64,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self { lr, t: 0 }
    }

    /// Sets a new learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update using the gradients currently in the store.
    pub fn step(&mut self, store: &mut ParamStore) {
        self.t += 1;
        let b1t = 1.0 - BETA1.powi(self.t as i32);
        let b2t = 1.0 - BETA2.powi(self.t as i32);
        for p in &mut store.params {
            for i in 0..p.value.len() {
                let g = p.grad.as_slice()[i];
                let m = BETA1 * p.m.as_slice()[i] + (1.0 - BETA1) * g;
                let v = BETA2 * p.v.as_slice()[i] + (1.0 - BETA2) * g * g;
                p.m.as_mut_slice()[i] = m;
                p.v.as_mut_slice()[i] = v;
                let m_hat = m / b1t;
                let v_hat = v / b2t;
                p.value.as_mut_slice()[i] -= self.lr * m_hat / (v_hat.sqrt() + EPS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Minimises f(w) = (w - 3)² and checks convergence to 3.
    fn optimise_quadratic(opt: &mut Adam, steps: usize) -> f32 {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::scalar(0.0));
        for _ in 0..steps {
            let mut tape = Tape::new();
            let wv = store.var(w, &mut tape);
            let loss = tape.mse_loss(wv, Arc::new(Matrix::scalar(3.0)));
            tape.backward(loss);
            store.absorb_grads(&mut tape);
            opt.step(&mut store);
            store.zero_grad();
        }
        store.param(w).value.item()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let w = optimise_quadratic(&mut opt, 400);
        assert!((w - 3.0).abs() < 1e-2, "w = {w}");
    }

    #[test]
    fn adam_step_counter_advances() {
        let mut opt = Adam::new(0.01);
        let mut store = ParamStore::new();
        store.register("w", Matrix::scalar(1.0));
        assert_eq!(opt.t, 0);
        opt.step(&mut store);
        opt.step(&mut store);
        assert_eq!(opt.t, 2);
    }

    #[test]
    fn absorb_grads_accumulates() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::scalar(2.0));
        for _ in 0..2 {
            let mut tape = Tape::new();
            let wv = store.var(w, &mut tape);
            let y = tape.mul(wv, wv);
            let loss = tape.sum_all(y);
            tape.backward(loss);
            store.absorb_grads(&mut tape);
        }
        // d(w²)/dw = 4 per pass, two passes accumulate to 8
        assert!((store.param(w).grad.item() - 8.0).abs() < 1e-5);
        store.zero_grad();
        assert_eq!(store.param(w).grad.item(), 0.0);
    }

    #[test]
    fn clip_grad_norm_caps_global_norm() {
        let mut store = ParamStore::new();
        let w = store.register("w", Matrix::scalar(0.0));
        store.param_mut(w).grad = Matrix::scalar(10.0);
        store.clip_grad_norm(1.0);
        assert!((store.grad_norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn num_scalars_counts_elements() {
        let mut store = ParamStore::new();
        store.register("a", Matrix::zeros(2, 3));
        store.register("b", Matrix::zeros(1, 4));
        assert_eq!(store.len(), 2);
        assert_eq!(store.num_scalars(), 10);
    }
}
