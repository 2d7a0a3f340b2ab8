//! The 4-layer residual MLP baseline.
//!
//! The paper's "vanilla" comparator: a per-G-cell residual MLP over the
//! four crafted features, sharing LHNN's hyper-parameters (hidden 32,
//! Adam, γ-weighted BCE). It sees no neighbourhood at all, so it measures
//! how informative the purely local crafted features are.

use std::sync::Arc;

use neurograd::{Activation, Adam, Linear, Matrix, Mlp, ParamStore, ResBlock, Tape};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::image::{BaselineTrainConfig, ImageModel, ImageSample};

/// Per-G-cell residual MLP (4 linear layers: in → h → h → h → out with a
/// skip over the middle pair).
#[derive(Debug)]
pub struct MlpBaseline {
    store: ParamStore,
    input: Linear,
    res1: ResBlock,
    head: Mlp,
    in_dim: usize,
    out_dim: usize,
}

impl MlpBaseline {
    /// Creates the baseline for the given channel counts.
    pub fn new(in_dim: usize, out_dim: usize, hidden: usize, seed: u64) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let input =
            Linear::new(&mut store, "mlp.input", in_dim, hidden, Activation::Relu, &mut rng);
        let res1 = ResBlock::new(
            &mut store,
            "mlp.res1",
            hidden,
            hidden,
            hidden,
            Activation::Relu,
            &mut rng,
        );
        let head = Mlp::new(
            &mut store,
            "mlp.head",
            hidden,
            hidden,
            out_dim,
            2,
            Activation::Identity,
            &mut rng,
        );
        Self { store, input, res1, head, in_dim, out_dim }
    }

    fn forward_nodes(&self, tape: &mut Tape, x_nodes: Matrix) -> neurograd::Var {
        let x = tape.leaf(x_nodes);
        let h = self.input.forward(tape, &self.store, x);
        let h = self.res1.forward(tape, &self.store, h);
        self.head.forward(tape, &self.store, h)
    }
}

impl ImageModel for MlpBaseline {
    fn name(&self) -> &'static str {
        "mlp"
    }

    fn fit(&mut self, samples: &[ImageSample], cfg: &BaselineTrainConfig) {
        let mut opt = Adam::new(cfg.lr);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        for _epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let s = &samples[i];
                assert_eq!(s.in_channels(), self.in_dim, "input channel mismatch");
                assert_eq!(s.out_channels(), self.out_dim, "target channel mismatch");
                let mut tape = Tape::new();
                let logits = self.forward_nodes(&mut tape, s.input.transpose());
                let targets = s.targets_node_major();
                let weights = targets.map(|y| y + (1.0 - y) * cfg.gamma);
                let loss = tape.bce_with_logits(logits, Arc::new(targets), Arc::new(weights));
                tape.backward(loss);
                self.store.absorb_grads(&mut tape);
                if cfg.grad_clip > 0.0 {
                    self.store.clip_grad_norm(cfg.grad_clip);
                }
                opt.step(&mut self.store);
                self.store.zero_grad();
            }
        }
    }

    fn predict(&self, sample: &ImageSample) -> Matrix {
        let mut tape = Tape::new();
        let logits = self.forward_nodes(&mut tape, sample.input.transpose());
        let prob = tape.sigmoid(logits);
        tape.value(prob).transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy task where the target is a threshold on channel 0.
    fn toy_samples(n: usize) -> Vec<ImageSample> {
        (0..n)
            .map(|k| {
                let cells = 16;
                let mut feats = Matrix::zeros(cells, 2);
                let mut cong = Matrix::zeros(cells, 1);
                for i in 0..cells {
                    let v = ((i + k) % cells) as f32 / cells as f32;
                    feats[(i, 0)] = v;
                    feats[(i, 1)] = 1.0 - v;
                    cong[(i, 0)] = if v > 0.5 { 1.0 } else { 0.0 };
                }
                ImageSample::from_node_major(format!("toy{k}"), 4, 4, &feats, &cong)
            })
            .collect()
    }

    #[test]
    fn learns_threshold_rule() {
        let samples = toy_samples(4);
        let mut model = MlpBaseline::new(2, 1, 16, 0);
        let cfg = BaselineTrainConfig { epochs: 80, ..Default::default() };
        model.fit(&samples, &cfg);
        let pred = model.predict(&samples[0]);
        let target = &samples[0].target_cls;
        let correct = pred
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .filter(|(&p, &y)| (p >= 0.5) == (y >= 0.5))
            .count();
        assert!(correct >= 14, "only {correct}/16 correct");
    }

    #[test]
    fn prediction_shape_and_range() {
        let samples = toy_samples(1);
        let model = MlpBaseline::new(2, 1, 8, 0);
        let p = model.predict(&samples[0]);
        assert_eq!(p.shape(), (1, 16));
        assert!(p.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn init_is_deterministic() {
        let samples = toy_samples(1);
        let a = MlpBaseline::new(2, 1, 8, 3).predict(&samples[0]);
        let b = MlpBaseline::new(2, 1, 8, 3).predict(&samples[0]);
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn has_four_linear_layers_worth_of_params() {
        let model = MlpBaseline::new(4, 1, 32, 0);
        // input + res(2 + maybe proj) + head(2) linear layers => 8 tensors minimum
        assert!(model.store.num_scalars() > 3000);
    }
}
