//! Image-style data layout for the CNN baselines.
//!
//! The paper feeds U-Net and Pix2Pix the four G-cell feature channels as a
//! 2-D image and trains against the congestion mask. [`ImageSample`]
//! holds that view: feature maps and targets as `(channels, height·width)`
//! matrices in the same row-major G-cell order used everywhere else
//! (`index = gy · nx + gx`).

use neurograd::Matrix;
use serde::{Deserialize, Serialize};

/// Training data for one design in image layout.
#[derive(Debug, Clone)]
pub struct ImageSample {
    /// Design name.
    pub name: String,
    /// Grid columns (image width).
    pub nx: usize,
    /// Grid rows (image height).
    pub ny: usize,
    /// Input feature maps, `(C_in, ny·nx)`.
    pub input: Matrix,
    /// Binary congestion targets, `(channels, ny·nx)`.
    pub target_cls: Matrix,
}

impl ImageSample {
    /// Builds an image sample from node-major matrices (`N × C`), i.e. the
    /// layout used by the LH-graph feature/target sets.
    ///
    /// # Panics
    ///
    /// Panics if row counts don't equal `nx · ny`.
    pub fn from_node_major(
        name: impl Into<String>,
        nx: usize,
        ny: usize,
        gcell_features: &Matrix,
        congestion: &Matrix,
    ) -> Self {
        assert_eq!(gcell_features.rows(), nx * ny, "feature rows != grid size");
        assert_eq!(congestion.rows(), nx * ny, "target rows != grid size");
        Self {
            name: name.into(),
            nx,
            ny,
            input: gcell_features.transpose(),
            target_cls: congestion.transpose(),
        }
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.input.rows()
    }

    /// Number of target channels.
    pub fn out_channels(&self) -> usize {
        self.target_cls.rows()
    }

    /// Flattened targets in node-major order (`N × channels`), for metric
    /// computation shared with the graph models.
    pub(crate) fn targets_node_major(&self) -> Matrix {
        self.target_cls.transpose()
    }
}

/// Training configuration shared by the baselines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BaselineTrainConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Label-balance γ (same role as in LHNN's Eq. 5).
    pub gamma: f32,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
    /// Seed for init + shuffling.
    pub seed: u64,
}

impl Default for BaselineTrainConfig {
    fn default() -> Self {
        Self { epochs: 150, lr: 2e-3, gamma: 0.7, grad_clip: 5.0, seed: 0 }
    }
}

/// A congestion predictor operating on image samples.
///
/// Implemented by [`MlpBaseline`](crate::MlpBaseline),
/// [`UNetModel`](crate::UNetModel) and
/// [`Pix2PixModel`](crate::Pix2PixModel).
pub trait ImageModel: std::fmt::Debug {
    /// Short display name (`mlp`, `unet`, `pix2pix`).
    fn name(&self) -> &'static str;

    /// Trains on the given samples.
    fn fit(&mut self, samples: &[ImageSample], cfg: &BaselineTrainConfig);

    /// Predicts congestion probabilities, `(channels, ny·nx)`.
    fn predict(&self, sample: &ImageSample) -> Matrix;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_major_roundtrip() {
        let feats = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 8.0]]);
        let cong = Matrix::from_rows(&[&[0.0], &[1.0], &[0.0], &[1.0]]);
        let img = ImageSample::from_node_major("d", 2, 2, &feats, &cong);
        assert_eq!(img.in_channels(), 2);
        assert_eq!(img.out_channels(), 1);
        assert_eq!(img.input.shape(), (2, 4));
        // channel 0 holds the first feature column
        assert_eq!(img.input.row(0), &[1.0, 3.0, 5.0, 7.0]);
        assert_eq!(img.targets_node_major(), cong);
    }

    #[test]
    #[should_panic(expected = "feature rows")]
    fn rejects_wrong_grid_size() {
        let feats = Matrix::zeros(3, 2);
        let cong = Matrix::zeros(3, 1);
        ImageSample::from_node_major("d", 2, 2, &feats, &cong);
    }
}
