//! A convolution layer wrapper shared by the U-Net and Pix2Pix models.

use neurograd::{Conv2dCfg, ParamId, ParamStore, Tape, Var};
use rand::rngs::StdRng;

/// A 2-D convolution with persistent weights.
///
/// Shapes adapt to any input `(h, w)` at forward time, so one model serves
/// designs with different grid sizes. [`Conv2dLayer::new`] uses Kaiming
/// initialisation (right for the norm-free ReLU stacks used here);
/// [`Conv2dLayer::new_with_std`] gives the `N(0, 0.02)` init of the
/// Pix2Pix reference discriminator.
#[derive(Debug, Clone)]
pub(crate) struct Conv2dLayer {
    weight: ParamId,
    bias: ParamId,
    in_ch: usize,
    out_ch: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
}

impl Conv2dLayer {
    /// Creates a conv layer with Kaiming-normal weights.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        store: &mut ParamStore,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut StdRng,
    ) -> Self {
        let fan_in = in_ch * kernel * kernel;
        let weight = store.register(
            format!("{name}.weight"),
            neurograd::init::kaiming_normal(out_ch, fan_in, fan_in, rng),
        );
        let bias = store.register(format!("{name}.bias"), neurograd::Matrix::zeros(out_ch, 1));
        Self { weight, bias, in_ch, out_ch, kernel, stride, padding }
    }

    /// Creates a conv layer with `N(0, std)` weights (Pix2Pix convention
    /// uses `std = 0.02`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new_with_std(
        store: &mut ParamStore,
        name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        std: f32,
        rng: &mut StdRng,
    ) -> Self {
        let weight = store.register(
            format!("{name}.weight"),
            neurograd::init::normal(out_ch, in_ch * kernel * kernel, std, rng),
        );
        let bias = store.register(format!("{name}.bias"), neurograd::Matrix::zeros(out_ch, 1));
        Self { weight, bias, in_ch, out_ch, kernel, stride, padding }
    }

    /// Applies the convolution to a `(C_in, h·w)` feature map; returns the
    /// output and its spatial dims.
    pub(crate) fn forward(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        h: usize,
        w: usize,
    ) -> (Var, usize, usize) {
        let cfg = Conv2dCfg {
            in_channels: self.in_ch,
            out_channels: self.out_ch,
            height: h,
            width: w,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
        };
        let wv = store.var(self.weight, tape);
        let bv = store.var(self.bias, tape);
        let y = tape.conv2d(x, wv, bv, cfg);
        (y, cfg.out_height(), cfg.out_width())
    }

    /// Applies the convolution with *frozen* weights (no gradient flows to
    /// the parameters) — used when the discriminator scores generator
    /// output inside the generator's update tape.
    pub(crate) fn forward_frozen(
        &self,
        tape: &mut Tape,
        store: &ParamStore,
        x: Var,
        h: usize,
        w: usize,
    ) -> (Var, usize, usize) {
        let cfg = Conv2dCfg {
            in_channels: self.in_ch,
            out_channels: self.out_ch,
            height: h,
            width: w,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
        };
        let wv = tape.leaf(store.param(self.weight).value.clone());
        let bv = tape.leaf(store.param(self.bias).value.clone());
        let y = tape.conv2d(x, wv, bv, cfg);
        (y, cfg.out_height(), cfg.out_width())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neurograd::Matrix;
    use rand::SeedableRng;

    #[test]
    fn forward_shapes() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2dLayer::new(&mut store, "c", 3, 8, 3, 1, 1, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(3, 16));
        let (y, oh, ow) = conv.forward(&mut tape, &store, x, 4, 4);
        assert_eq!((oh, ow), (4, 4));
        assert_eq!(tape.shape(y), (8, 16));
    }

    #[test]
    fn strided_conv_downsamples() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2dLayer::new(&mut store, "c", 1, 4, 3, 2, 1, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::zeros(1, 64));
        let (_, oh, ow) = conv.forward(&mut tape, &store, x, 8, 8);
        assert_eq!((oh, ow), (4, 4));
    }

    #[test]
    fn frozen_forward_gives_no_param_grads() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2dLayer::new(&mut store, "c", 1, 1, 1, 1, 0, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf_grad(Matrix::full(1, 4, 1.0));
        let (y, _, _) = conv.forward_frozen(&mut tape, &store, x, 2, 2);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        store.absorb_grads(&mut tape);
        assert_eq!(store.grad_norm(), 0.0);
        // but the input still receives gradient
        assert!(tape.grad(x).is_some());
    }
}
