//! Pix2Pix baseline (Isola et al., CVPR 2017).
//!
//! Conditional image-to-image translation: a U-Net generator produces the
//! congestion mask from the feature maps, while a PatchGAN discriminator
//! scores (features, mask) pairs. The generator optimises
//! `λ_adv · BCE(D(x, G(x)), 1) + task-BCE(G(x), y; γ)`; the discriminator
//! alternates `BCE(D(x, y), 1) + BCE(D(x, G(x)), 0)`.
//!
//! As in the paper's comparison, the task supervision uses the same
//! γ-weighted congestion BCE as LHNN; the adversarial term is the
//! Pix2Pix-specific addition.

use std::sync::Arc;

use neurograd::{Adam, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::conv_layer::Conv2dLayer;
use crate::image::{BaselineTrainConfig, ImageModel, ImageSample};
use crate::unet::UNetNet;

/// PatchGAN discriminator: 3 strided convs to `(1, h/4·w/4)` patch logits.
#[derive(Debug, Clone)]
struct PatchGan {
    c1: Conv2dLayer,
    c2: Conv2dLayer,
    c3: Conv2dLayer,
}

impl PatchGan {
    fn new(store: &mut ParamStore, in_ch: usize, features: usize, rng: &mut StdRng) -> Self {
        // N(0, 0.02) init as in the reference Pix2Pix discriminator.
        Self {
            c1: Conv2dLayer::new_with_std(store, "disc.c1", in_ch, features, 3, 2, 1, 0.02, rng),
            c2: Conv2dLayer::new_with_std(
                store,
                "disc.c2",
                features,
                2 * features,
                3,
                2,
                1,
                0.02,
                rng,
            ),
            c3: Conv2dLayer::new_with_std(store, "disc.c3", 2 * features, 1, 3, 1, 1, 0.02, rng),
        }
    }

    /// Patch logits for an (input ∥ mask) stack. With `frozen`, no
    /// gradient reaches the discriminator parameters.
    fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        xy: Var,
        h: usize,
        w: usize,
        frozen: bool,
    ) -> Var {
        let fwd = |layer: &Conv2dLayer, tape: &mut Tape, x: Var, h: usize, w: usize| {
            if frozen {
                layer.forward_frozen(tape, store, x, h, w)
            } else {
                layer.forward(tape, store, x, h, w)
            }
        };
        let (y, h1, w1) = fwd(&self.c1, tape, xy, h, w);
        let y = tape.leaky_relu(y, 0.2);
        let (y, h2, w2) = fwd(&self.c2, tape, y, h1, w1);
        let y = tape.leaky_relu(y, 0.2);
        let (logits, _, _) = fwd(&self.c3, tape, y, h2, w2);
        logits
    }
}

/// The Pix2Pix congestion model.
#[derive(Debug)]
pub struct Pix2PixModel {
    gen_store: ParamStore,
    disc_store: ParamStore,
    generator: UNetNet,
    discriminator: PatchGan,
    /// Weight of the adversarial term in the generator loss.
    pub adv_weight: f32,
}

impl Pix2PixModel {
    /// Creates the model. `features` sizes the generator (U-Net width);
    /// the discriminator uses the same base width.
    pub fn new(in_dim: usize, out_dim: usize, features: usize, seed: u64) -> Self {
        let mut gen_store = ParamStore::new();
        let mut disc_store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let generator = UNetNet::new(&mut gen_store, "gen", in_dim, out_dim, features, &mut rng);
        let discriminator = PatchGan::new(&mut disc_store, in_dim + out_dim, features, &mut rng);
        Self { gen_store, disc_store, generator, discriminator, adv_weight: 0.1 }
    }

    fn uniform_bce(tape: &mut Tape, logits: Var, target_value: f32) -> Var {
        let (r, c) = tape.shape(logits);
        let targets = Arc::new(Matrix::full(r, c, target_value));
        let weights = Arc::new(Matrix::full(r, c, 1.0));
        tape.bce_with_logits(logits, targets, weights)
    }
}

impl ImageModel for Pix2PixModel {
    fn name(&self) -> &'static str {
        "pix2pix"
    }

    fn fit(&mut self, samples: &[ImageSample], cfg: &BaselineTrainConfig) {
        let mut g_opt = Adam::new(cfg.lr);
        let mut d_opt = Adam::new(cfg.lr);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..samples.len()).collect();
        for _epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &i in &order {
                let s = &samples[i];
                let (h, w) = (s.ny, s.nx);

                // ---- discriminator update ----
                {
                    let mut tape = Tape::new();
                    let x = tape.leaf(s.input.clone());
                    // real pair
                    let real_mask = tape.leaf(s.target_cls.clone());
                    let real_pair = tape.concat_rows(x, real_mask);
                    let real_logits = self.discriminator.forward(
                        &mut tape,
                        &self.disc_store,
                        real_pair,
                        h,
                        w,
                        false,
                    );
                    let loss_real = Self::uniform_bce(&mut tape, real_logits, 1.0);
                    // fake pair: generator output as a constant
                    let fake_value = {
                        let mut g_tape = Tape::new();
                        let gx = g_tape.leaf(s.input.clone());
                        let glogits =
                            self.generator.forward(&mut g_tape, &self.gen_store, gx, h, w);
                        let gprob = g_tape.sigmoid(glogits);
                        g_tape.value(gprob).clone()
                    };
                    let x2 = tape.leaf(s.input.clone());
                    let fake_mask = tape.leaf(fake_value);
                    let fake_pair = tape.concat_rows(x2, fake_mask);
                    let fake_logits = self.discriminator.forward(
                        &mut tape,
                        &self.disc_store,
                        fake_pair,
                        h,
                        w,
                        false,
                    );
                    let loss_fake = Self::uniform_bce(&mut tape, fake_logits, 0.0);
                    let d_loss = tape.add(loss_real, loss_fake);
                    tape.backward(d_loss);
                    self.disc_store.absorb_grads(&mut tape);
                    if cfg.grad_clip > 0.0 {
                        self.disc_store.clip_grad_norm(cfg.grad_clip);
                    }
                    d_opt.step(&mut self.disc_store);
                    self.disc_store.zero_grad();
                }

                // ---- generator update ----
                {
                    let mut tape = Tape::new();
                    let x = tape.leaf(s.input.clone());
                    let logits = self.generator.forward(&mut tape, &self.gen_store, x, h, w);
                    // task loss (γ-weighted congestion BCE)
                    let targets = s.target_cls.clone();
                    let weights = targets.map(|y| y + (1.0 - y) * cfg.gamma);
                    let task = tape.bce_with_logits(logits, Arc::new(targets), Arc::new(weights));
                    // adversarial loss through a frozen discriminator
                    let gprob = tape.sigmoid(logits);
                    let x2 = tape.leaf(s.input.clone());
                    let pair = tape.concat_rows(x2, gprob);
                    let d_logits =
                        self.discriminator.forward(&mut tape, &self.disc_store, pair, h, w, true);
                    let adv = Self::uniform_bce(&mut tape, d_logits, 1.0);
                    let adv_scaled = tape.scale(adv, self.adv_weight);
                    let g_loss = tape.add(task, adv_scaled);
                    tape.backward(g_loss);
                    self.gen_store.absorb_grads(&mut tape);
                    if cfg.grad_clip > 0.0 {
                        self.gen_store.clip_grad_norm(cfg.grad_clip);
                    }
                    g_opt.step(&mut self.gen_store);
                    self.gen_store.zero_grad();
                }
            }
        }
    }

    fn predict(&self, sample: &ImageSample) -> Matrix {
        let mut tape = Tape::new();
        let x = tape.leaf(sample.input.clone());
        let logits = self.generator.forward(&mut tape, &self.gen_store, x, sample.ny, sample.nx);
        let prob = tape.sigmoid(logits);
        tape.value(prob).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob_samples(n: usize) -> Vec<ImageSample> {
        (0..n)
            .map(|k| {
                let cells = 64;
                let mut feats = Matrix::zeros(cells, 2);
                let mut cong = Matrix::zeros(cells, 1);
                let oy = (k % 3) + 1;
                for y in 0..8usize {
                    for x in 0..8usize {
                        let idx = y * 8 + x;
                        let hot = y >= oy && y < oy + 3 && (2..6).contains(&x);
                        feats[(idx, 0)] = if hot { 1.0 } else { 0.0 };
                        feats[(idx, 1)] = x as f32 / 8.0;
                        cong[(idx, 0)] = if hot { 1.0 } else { 0.0 };
                    }
                }
                ImageSample::from_node_major(format!("b{k}"), 8, 8, &feats, &cong)
            })
            .collect()
    }

    #[test]
    fn pix2pix_learns_blob_task() {
        let samples = blob_samples(3);
        let mut model = Pix2PixModel::new(2, 1, 4, 0);
        let cfg = BaselineTrainConfig { epochs: 25, lr: 5e-3, ..Default::default() };
        model.fit(&samples, &cfg);
        let pred = model.predict(&samples[0]);
        let target = &samples[0].target_cls;
        let correct = pred
            .as_slice()
            .iter()
            .zip(target.as_slice())
            .filter(|(&p, &y)| (p >= 0.5) == (y >= 0.5))
            .count();
        assert!(correct >= 52, "only {correct}/64 correct");
    }

    #[test]
    fn discriminator_distinguishes_after_training() {
        // after fitting, D(real) logits should exceed D(zeros) on average
        let samples = blob_samples(2);
        let mut model = Pix2PixModel::new(2, 1, 4, 1);
        let cfg = BaselineTrainConfig { epochs: 15, lr: 5e-3, ..Default::default() };
        model.fit(&samples, &cfg);
        let s = &samples[0];
        let mut tape = Tape::new();
        let x = tape.leaf(s.input.clone());
        let real = tape.leaf(s.target_cls.clone());
        let pair_real = tape.concat_rows(x, real);
        let real_logits =
            model.discriminator.forward(&mut tape, &model.disc_store, pair_real, 8, 8, true);
        let x2 = tape.leaf(s.input.clone());
        let junk = tape.leaf(Matrix::full(1, 64, 0.5));
        let pair_junk = tape.concat_rows(x2, junk);
        let junk_logits =
            model.discriminator.forward(&mut tape, &model.disc_store, pair_junk, 8, 8, true);
        let real_score = tape.value(real_logits).mean();
        let junk_score = tape.value(junk_logits).mean();
        assert!(
            real_score > junk_score,
            "discriminator untrained: real {real_score} vs junk {junk_score}"
        );
    }

    #[test]
    fn prediction_shape_and_determinism() {
        let samples = blob_samples(1);
        let a = Pix2PixModel::new(2, 1, 4, 5).predict(&samples[0]);
        let b = Pix2PixModel::new(2, 1, 4, 5).predict(&samples[0]);
        assert_eq!(a.shape(), (1, 64));
        assert!(a.approx_eq(&b, 0.0));
    }
}
