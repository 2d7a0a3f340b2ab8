//! `lhnn-baselines` — the comparison models of the LHNN paper (§5.2):
//! a per-G-cell residual [`MlpBaseline`], a [`UNetModel`] and a
//! [`Pix2PixModel`], all consuming the same four G-cell feature channels
//! and predicting the congestion mask with the γ-weighted BCE.
//!
//! All three implement [`ImageModel`] over [`ImageSample`]s (feature maps
//! in `(channels, height·width)` layout), so the experiment harness can
//! swap them freely.
//!
//! # Example
//!
//! ```
//! use lhnn_baselines::{BaselineTrainConfig, ImageModel, MlpBaseline, ImageSample};
//! use neurograd::Matrix;
//!
//! let feats = Matrix::zeros(16, 4);
//! let cong = Matrix::zeros(16, 1);
//! let sample = ImageSample::from_node_major("demo", 4, 4, &feats, &cong);
//! let mut model = MlpBaseline::new(4, 1, 8, 0);
//! model.fit(&[sample.clone()], &BaselineTrainConfig { epochs: 1, ..Default::default() });
//! assert_eq!(model.predict(&sample).shape(), (1, 16));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod conv_layer;
pub mod image;
pub mod mlp;
pub mod pix2pix;
pub mod unet;

pub use image::{BaselineTrainConfig, ImageModel, ImageSample};
pub use mlp::MlpBaseline;
pub use pix2pix::Pix2PixModel;
pub use unet::UNetModel;
