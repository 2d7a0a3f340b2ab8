//! Supervision targets: routing-demand regression and congestion
//! classification labels as per-G-cell matrices.
//!
//! The regression target is capacity-normalised demand (utilisation), so
//! values are comparable across designs with blockages; the classification
//! target is the binary congestion mask (demand > capacity), exactly the
//! labels of Eq. 4/5 in the paper. Uni-channel experiments use the
//! horizontal channel (column 0), duo-channel both columns — matching the
//! paper's uni/duo protocol.

use neurograd::Matrix;
use serde::{Deserialize, Serialize};
use vlsi_route::{Dir, LabelMaps};

/// Per-G-cell targets of one design.
#[derive(Debug, Clone)]
pub struct Targets {
    /// `N_c × 2` capacity-normalised demand (columns: H, V).
    pub demand: Matrix,
    /// `N_c × 2` binary congestion (columns: H, V).
    pub congestion: Matrix,
}

/// Channel selection for training/evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelMode {
    /// Horizontal congestion only (paper "uni-channel").
    Uni,
    /// Horizontal + vertical simultaneously (paper "duo-channel").
    Duo,
}

impl ChannelMode {
    /// Number of output channels.
    pub fn channels(self) -> usize {
        match self {
            ChannelMode::Uni => 1,
            ChannelMode::Duo => 2,
        }
    }
}

impl Targets {
    /// Builds targets from router label maps.
    pub fn from_labels(labels: &LabelMaps) -> Self {
        let n = labels.demand_h.len();
        let util_h = labels.utilization(Dir::H);
        let util_v = labels.utilization(Dir::V);
        let cong_h = labels.congestion(Dir::H);
        let cong_v = labels.congestion(Dir::V);
        let mut demand = Matrix::zeros(n, 2);
        let mut congestion = Matrix::zeros(n, 2);
        for i in 0..n {
            demand[(i, 0)] = util_h[i];
            demand[(i, 1)] = util_v[i];
            congestion[(i, 0)] = if cong_h[i] { 1.0 } else { 0.0 };
            congestion[(i, 1)] = if cong_v[i] { 1.0 } else { 0.0 };
        }
        Self { demand, congestion }
    }

    /// The demand target restricted to a channel mode (`N_c × 1` or `× 2`).
    pub fn demand_channels(&self, mode: ChannelMode) -> Matrix {
        match mode {
            ChannelMode::Uni => self.demand.slice_cols(0, 1),
            ChannelMode::Duo => self.demand.clone(),
        }
    }

    /// The congestion target restricted to a channel mode.
    pub fn congestion_channels(&self, mode: ChannelMode) -> Matrix {
        match mode {
            ChannelMode::Uni => self.congestion.slice_cols(0, 1),
            ChannelMode::Duo => self.congestion.clone(),
        }
    }

    /// Fraction of congested entries under a channel mode.
    pub fn congestion_rate(&self, mode: ChannelMode) -> f64 {
        let m = self.congestion_channels(mode);
        if m.is_empty() {
            0.0
        } else {
            f64::from(m.sum()) / m.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels() -> LabelMaps {
        LabelMaps {
            nx: 2,
            ny: 1,
            demand_h: vec![4.0, 1.0],
            demand_v: vec![0.0, 6.0],
            capacity_h: vec![2.0, 2.0],
            capacity_v: vec![2.0, 2.0],
        }
    }

    #[test]
    fn demand_is_capacity_normalised() {
        let t = Targets::from_labels(&labels());
        assert_eq!(t.demand[(0, 0)], 2.0); // 4/2
        assert_eq!(t.demand[(1, 0)], 0.5);
        assert_eq!(t.demand[(1, 1)], 3.0);
    }

    #[test]
    fn congestion_is_binary_threshold() {
        let t = Targets::from_labels(&labels());
        assert_eq!(t.congestion[(0, 0)], 1.0);
        assert_eq!(t.congestion[(1, 0)], 0.0);
        assert_eq!(t.congestion[(0, 1)], 0.0);
        assert_eq!(t.congestion[(1, 1)], 1.0);
    }

    #[test]
    fn channel_modes_select_columns() {
        let t = Targets::from_labels(&labels());
        assert_eq!(t.demand_channels(ChannelMode::Uni).shape(), (2, 1));
        assert_eq!(t.demand_channels(ChannelMode::Duo).shape(), (2, 2));
        assert_eq!(t.congestion_channels(ChannelMode::Uni).shape(), (2, 1));
        assert_eq!(ChannelMode::Uni.channels(), 1);
        assert_eq!(ChannelMode::Duo.channels(), 2);
    }

    #[test]
    fn congestion_rates() {
        let t = Targets::from_labels(&labels());
        assert!((t.congestion_rate(ChannelMode::Uni) - 0.5).abs() < 1e-12);
        assert!((t.congestion_rate(ChannelMode::Duo) - 0.5).abs() < 1e-12);
    }
}
