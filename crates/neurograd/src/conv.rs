//! Image-style operators: conv2d (im2col), max-pooling and nearest
//! upsampling.
//!
//! Feature maps are stored as `(channels, height·width)` matrices — one
//! sample at a time, which matches the paper's per-circuit training. All
//! forward functions here are pure; the [`Tape`](crate::tape::Tape) methods
//! wrap them and record what the backward pass needs.

use crate::matrix::Matrix;

/// Static configuration of a 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dCfg {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count.
    pub out_channels: usize,
    /// Input height.
    pub height: usize,
    /// Input width.
    pub width: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub padding: usize,
}

impl Conv2dCfg {
    /// A stride-1 "same" convolution for odd kernels (`padding = k/2`).
    #[cfg(test)]
    fn same(
        in_channels: usize,
        out_channels: usize,
        height: usize,
        width: usize,
        kernel: usize,
    ) -> Self {
        Self { in_channels, out_channels, height, width, kernel, stride: 1, padding: kernel / 2 }
    }

    /// Output height.
    pub fn out_height(&self) -> usize {
        (self.height + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_width(&self) -> usize {
        (self.width + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Expected weight shape `(out_channels, in_channels·k·k)`.
    pub(crate) fn weight_shape(&self) -> (usize, usize) {
        (self.out_channels, self.in_channels * self.kernel * self.kernel)
    }
}

/// Lowers the padded input into the im2col matrix of shape
/// `(C_in·k·k, H_out·W_out)`.
fn im2col(input: &Matrix, cfg: Conv2dCfg) -> Matrix {
    let (oh, ow) = (cfg.out_height(), cfg.out_width());
    let k = cfg.kernel;
    let mut cols = Matrix::zeros(cfg.in_channels * k * k, oh * ow);
    for c in 0..cfg.in_channels {
        let in_row = input.row(c);
        for ky in 0..k {
            for kx in 0..k {
                let col_row = cols.row_mut(c * k * k + ky * k + kx);
                for oy in 0..oh {
                    let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                    if iy < 0 || iy >= cfg.height as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                        if ix < 0 || ix >= cfg.width as isize {
                            continue;
                        }
                        col_row[oy * ow + ox] = in_row[iy as usize * cfg.width + ix as usize];
                    }
                }
            }
        }
    }
    cols
}

/// Scatters an im2col-shaped gradient back onto the input layout.
fn col2im(cols_grad: &Matrix, cfg: Conv2dCfg) -> Matrix {
    let (oh, ow) = (cfg.out_height(), cfg.out_width());
    let k = cfg.kernel;
    let mut input_grad = Matrix::zeros(cfg.in_channels, cfg.height * cfg.width);
    for c in 0..cfg.in_channels {
        let in_row = input_grad.row_mut(c);
        for ky in 0..k {
            for kx in 0..k {
                let col_row = cols_grad.row(c * k * k + ky * k + kx);
                for oy in 0..oh {
                    let iy = (oy * cfg.stride + ky) as isize - cfg.padding as isize;
                    if iy < 0 || iy >= cfg.height as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * cfg.stride + kx) as isize - cfg.padding as isize;
                        if ix < 0 || ix >= cfg.width as isize {
                            continue;
                        }
                        in_row[iy as usize * cfg.width + ix as usize] += col_row[oy * ow + ox];
                    }
                }
            }
        }
    }
    input_grad
}

/// Forward convolution. Returns `(output, cached im2col matrix)`.
///
/// # Panics
///
/// Panics if input/weight/bias shapes disagree with `cfg`.
pub(crate) fn conv2d_forward(
    input: &Matrix,
    weight: &Matrix,
    bias: &Matrix,
    cfg: Conv2dCfg,
) -> (Matrix, Matrix) {
    assert_eq!(
        input.shape(),
        (cfg.in_channels, cfg.height * cfg.width),
        "conv2d input shape mismatch"
    );
    assert_eq!(weight.shape(), cfg.weight_shape(), "conv2d weight shape mismatch");
    assert_eq!(bias.shape(), (cfg.out_channels, 1), "conv2d bias shape mismatch");
    let cols = im2col(input, cfg);
    let mut out = weight.matmul(&cols);
    for co in 0..cfg.out_channels {
        let b = bias[(co, 0)];
        for v in out.row_mut(co) {
            *v += b;
        }
    }
    (out, cols)
}

/// Backward convolution. Returns `(d_input, d_weight, d_bias)`, each only
/// when the corresponding flag requests it.
pub(crate) fn conv2d_backward(
    grad_out: &Matrix,
    weight: &Matrix,
    cols: &Matrix,
    cfg: Conv2dCfg,
    need_input: bool,
    need_weight: bool,
    need_bias: bool,
) -> (Option<Matrix>, Option<Matrix>, Option<Matrix>) {
    let gi = need_input.then(|| {
        // d_cols = Wᵀ · dY, then scatter back.
        let cols_grad = weight.matmul_tn(grad_out);
        col2im(&cols_grad, cfg)
    });
    let gw = need_weight.then(|| grad_out.matmul_nt(cols));
    let gb = need_bias.then(|| {
        let mut gb = Matrix::zeros(cfg.out_channels, 1);
        for co in 0..cfg.out_channels {
            gb[(co, 0)] = grad_out.row(co).iter().sum();
        }
        gb
    });
    (gi, gw, gb)
}

/// 2×2/stride-2 max pooling. Returns `(output, argmax flat indices)`.
///
/// # Panics
///
/// Panics if `h`/`w` are odd or the input shape is inconsistent.
pub(crate) fn max_pool2d_forward(input: &Matrix, h: usize, w: usize) -> (Matrix, Vec<usize>) {
    assert_eq!(input.cols(), h * w, "max_pool2d input shape mismatch");
    assert!(h.is_multiple_of(2) && w.is_multiple_of(2), "max_pool2d requires even h and w");
    let channels = input.rows();
    let (oh, ow) = (h / 2, w / 2);
    let mut out = Matrix::zeros(channels, oh * ow);
    let mut argmax = vec![0usize; channels * oh * ow];
    for c in 0..channels {
        let row = input.row(c);
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                let mut best_idx = 0;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let idx = (oy * 2 + dy) * w + ox * 2 + dx;
                        if row[idx] > best {
                            best = row[idx];
                            best_idx = idx;
                        }
                    }
                }
                out[(c, oy * ow + ox)] = best;
                argmax[c * oh * ow + oy * ow + ox] = best_idx;
            }
        }
    }
    (out, argmax)
}

/// Backward of 2×2 max pooling: routes each output gradient to its argmax.
pub(crate) fn max_pool2d_backward(
    grad_out: &Matrix,
    argmax: &[usize],
    in_rows: usize,
    in_cols: usize,
) -> Matrix {
    let mut gx = Matrix::zeros(in_rows, in_cols);
    let out_cols = grad_out.cols();
    for c in 0..in_rows {
        let g_row = grad_out.row(c);
        let x_row = gx.row_mut(c);
        for o in 0..out_cols {
            x_row[argmax[c * out_cols + o]] += g_row[o];
        }
    }
    gx
}

/// Nearest-neighbour 2× upsampling of a `(C, h·w)` map to `(C, 2h·2w)`.
///
/// # Panics
///
/// Panics if the input shape is inconsistent.
pub(crate) fn upsample_nearest2_forward(input: &Matrix, h: usize, w: usize) -> Matrix {
    assert_eq!(input.cols(), h * w, "upsample input shape mismatch");
    let channels = input.rows();
    let (oh, ow) = (h * 2, w * 2);
    let mut out = Matrix::zeros(channels, oh * ow);
    for c in 0..channels {
        let src = input.row(c);
        let dst = out.row_mut(c);
        for y in 0..oh {
            for x in 0..ow {
                dst[y * ow + x] = src[(y / 2) * w + x / 2];
            }
        }
    }
    out
}

/// Backward of nearest 2× upsampling: sums the 2×2 output block per input.
pub(crate) fn upsample_nearest2_backward(grad_out: &Matrix, h: usize, w: usize) -> Matrix {
    let channels = grad_out.rows();
    let (oh, ow) = (h * 2, w * 2);
    assert_eq!(grad_out.cols(), oh * ow, "upsample grad shape mismatch");
    let mut gx = Matrix::zeros(channels, h * w);
    for c in 0..channels {
        let g = grad_out.row(c);
        let x = gx.row_mut(c);
        for y in 0..oh {
            for xcol in 0..ow {
                x[(y / 2) * w + xcol / 2] += g[y * ow + xcol];
            }
        }
    }
    gx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::{Tape, Var};

    fn check_grad(build: impl Fn(&mut Tape, Var) -> Var, x0: &Matrix, tol: f32) {
        let mut tape = Tape::new();
        let x = tape.leaf_grad(x0.clone());
        let loss = build(&mut tape, x);
        tape.backward(loss);
        let analytic = tape.grad(x).expect("grad present").clone();

        let eps = 1e-2;
        let mut numeric = Matrix::zeros(x0.rows(), x0.cols());
        for i in 0..x0.len() {
            let eval = |delta: f32| {
                let mut m = x0.clone();
                m.as_mut_slice()[i] += delta;
                let mut t = Tape::new();
                let v = t.leaf_grad(m);
                let l = build(&mut t, v);
                t.value(l).item()
            };
            numeric.as_mut_slice()[i] = (eval(eps) - eval(-eps)) / (2.0 * eps);
        }
        assert!(
            analytic.approx_eq(&numeric, tol),
            "gradient mismatch:\nanalytic={analytic:?}\nnumeric={numeric:?}"
        );
    }

    #[test]
    fn conv_output_shape() {
        let cfg = Conv2dCfg::same(2, 3, 4, 4, 3);
        assert_eq!(cfg.out_height(), 4);
        assert_eq!(cfg.out_width(), 4);
        let cfg = Conv2dCfg {
            in_channels: 1,
            out_channels: 1,
            height: 5,
            width: 5,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_eq!(cfg.out_height(), 3);
    }

    #[test]
    fn conv_identity_kernel_preserves_input() {
        // 1x1 kernel with weight 1 and bias 0 is the identity.
        let cfg = Conv2dCfg {
            in_channels: 1,
            out_channels: 1,
            height: 3,
            width: 3,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]]);
        let w = Matrix::scalar(1.0);
        let b = Matrix::zeros(1, 1);
        let (y, _) = conv2d_forward(&x, &w, &b, cfg);
        assert!(y.approx_eq(&x, 0.0));
    }

    #[test]
    fn conv_averaging_kernel_known_value() {
        // 3x3 all-ones kernel on constant input of 1 with zero padding:
        // centre pixel sees 9 ones.
        let cfg = Conv2dCfg::same(1, 1, 3, 3, 3);
        let x = Matrix::full(1, 9, 1.0);
        let w = Matrix::full(1, 9, 1.0);
        let b = Matrix::zeros(1, 1);
        let (y, _) = conv2d_forward(&x, &w, &b, cfg);
        // corners see 4, edges 6, centre 9
        assert_eq!(y.as_slice(), &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn conv_bias_is_added_per_channel() {
        let cfg = Conv2dCfg {
            in_channels: 1,
            out_channels: 2,
            height: 2,
            width: 2,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let x = Matrix::zeros(1, 4);
        let w = Matrix::zeros(2, 1);
        let b = Matrix::from_rows(&[&[1.5], &[-2.5]]);
        let (y, _) = conv2d_forward(&x, &w, &b, cfg);
        assert_eq!(y.row(0), &[1.5; 4]);
        assert_eq!(y.row(1), &[-2.5; 4]);
    }

    #[test]
    fn grad_conv2d_input() {
        let cfg = Conv2dCfg::same(1, 2, 3, 3, 3);
        let w = Matrix::from_vec(2, 9, (0..18).map(|i| (i as f32 - 9.0) * 0.1).collect()).unwrap();
        let b = Matrix::from_rows(&[&[0.1], &[-0.1]]);
        let x0 = Matrix::from_vec(1, 9, (0..9).map(|i| i as f32 * 0.3 - 1.0).collect()).unwrap();
        check_grad(
            move |t, x| {
                let wv = t.leaf(w.clone());
                let bv = t.leaf(b.clone());
                let y = t.conv2d(x, wv, bv, cfg);
                let y2 = t.mul(y, y);
                t.sum_all(y2)
            },
            &x0,
            5e-2,
        );
    }

    #[test]
    fn grad_conv2d_weight_and_bias() {
        let cfg = Conv2dCfg::same(1, 1, 3, 3, 3);
        let x = Matrix::from_vec(1, 9, (0..9).map(|i| i as f32 * 0.2 - 0.8).collect()).unwrap();
        // check d/dW via treating weight as the differentiated leaf
        let w0 = Matrix::from_vec(1, 9, (0..9).map(|i| 0.05 * i as f32).collect()).unwrap();
        check_grad(
            move |t, wv| {
                let xv = t.leaf(x.clone());
                let bv = t.leaf(Matrix::zeros(1, 1));
                let y = t.conv2d(xv, wv, bv, cfg);
                let y2 = t.mul(y, y);
                t.sum_all(y2)
            },
            &w0,
            5e-2,
        );
    }

    #[test]
    fn grad_max_pool_routes_to_argmax() {
        let mut tape = Tape::new();
        let x = tape.leaf_grad(Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]])); // 2x2 image
        let y = tape.max_pool2d(x, 2, 2);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        assert_eq!(tape.value(y).as_slice(), &[4.0]);
        assert_eq!(tape.grad(x).unwrap().as_slice(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn grad_upsample_sums_block() {
        let mut tape = Tape::new();
        let x = tape.leaf_grad(Matrix::from_rows(&[&[5.0]])); // 1x1 image
        let y = tape.upsample_nearest2(x, 1, 1);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        assert_eq!(tape.value(y).as_slice(), &[5.0; 4]);
        assert_eq!(tape.grad(x).unwrap().as_slice(), &[4.0]);
    }

    #[test]
    fn upsample_then_pool_is_identity_for_constant_blocks() {
        let mut tape = Tape::new();
        let x = tape.leaf(Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]])); // 2x2
        let up = tape.upsample_nearest2(x, 2, 2); // 4x4
        let down = tape.max_pool2d(up, 4, 4); // back to 2x2
        assert!(tape.value(down).approx_eq(tape.value(x), 0.0));
    }
}
