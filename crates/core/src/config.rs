//! Model and training configuration.

use lh_graph::ChannelMode;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the LHNN architecture.
///
/// Defaults follow §5.1 of the paper: hidden dimension 32, two stacked
/// HyperMP blocks and one LatticeMP block in the encoding phase, two more
/// LatticeMP blocks in the joint learning phase, label-balance γ = 0.7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LhnnConfig {
    /// Hidden embedding dimension (paper: 32).
    pub hidden: usize,
    /// Number of stacked HyperMP blocks in the encoder (paper: 2).
    pub hypermp_layers: usize,
    /// Number of LatticeMP blocks in the encoder (paper: 1).
    pub latticemp_encode_layers: usize,
    /// Number of LatticeMP blocks in the joint phase (paper: 2).
    pub latticemp_joint_layers: usize,
    /// Number of G-cell input channels (paper: 4).
    pub gcell_in_dim: usize,
    /// Number of G-net input channels (paper: 4).
    pub gnet_in_dim: usize,
    /// Output channels: uni (1) or duo (2).
    pub channel_mode: ChannelMode,
}

impl Default for LhnnConfig {
    fn default() -> Self {
        Self {
            hidden: 32,
            hypermp_layers: 2,
            latticemp_encode_layers: 1,
            latticemp_joint_layers: 2,
            gcell_in_dim: 4,
            gnet_in_dim: 4,
            channel_mode: ChannelMode::Uni,
        }
    }
}

/// Component switches for the Table 3 ablation study.
///
/// `true` keeps a component; the full model is [`AblationSpec::full`].
/// Edge switches remove the message-passing edges of the relation but keep
/// the linear/residual layers so depth and parameter count stay comparable
/// (as the paper specifies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AblationSpec {
    /// Keep the G-net → G-cell edges in the FeatureGen block.
    pub featuregen_edges: bool,
    /// Keep the hypergraph edges in HyperMP blocks.
    pub hypermp_edges: bool,
    /// Keep the lattice edges in LatticeMP blocks.
    pub latticemp_edges: bool,
    /// Keep the routing-demand regression branch (joint supervision).
    pub jointing: bool,
    /// Keep the G-cell input features (net/pin density channels).
    pub gcell_features: bool,
}

impl AblationSpec {
    /// The full model (no ablation).
    pub fn full() -> Self {
        Self {
            featuregen_edges: true,
            hypermp_edges: true,
            latticemp_edges: true,
            jointing: true,
            gcell_features: true,
        }
    }

    /// Removes the FeatureGen message edges.
    pub fn without_featuregen() -> Self {
        Self { featuregen_edges: false, ..Self::full() }
    }

    /// Removes the HyperMP message edges.
    pub fn without_hypermp() -> Self {
        Self { hypermp_edges: false, ..Self::full() }
    }

    /// Removes the LatticeMP message edges.
    pub fn without_latticemp() -> Self {
        Self { latticemp_edges: false, ..Self::full() }
    }

    /// Removes the regression branch.
    pub fn without_jointing() -> Self {
        Self { jointing: false, ..Self::full() }
    }

    /// Zeroes the G-cell input features except the terminal mask.
    pub fn without_gcell_features() -> Self {
        Self { gcell_features: false, ..Self::full() }
    }

    /// A short label for tables (`full`, `-featuregen`, …).
    pub fn label(&self) -> String {
        if *self == Self::full() {
            return "full".to_string();
        }
        let mut parts = Vec::new();
        if !self.featuregen_edges {
            parts.push("-featuregen");
        }
        if !self.hypermp_edges {
            parts.push("-hypermp");
        }
        if !self.latticemp_edges {
            parts.push("-latticemp");
        }
        if !self.jointing {
            parts.push("-jointing");
        }
        if !self.gcell_features {
            parts.push("-gcellfeat");
        }
        parts.join(",")
    }
}

/// Training-loop configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Initial Adam learning rate (paper: 2e-3).
    pub lr: f32,
    /// Final learning rate, reached by step decay halfway (paper: 5e-4).
    pub lr_final: f32,
    /// Label-balance weight γ ∈ (0, 1] on non-congested cells (paper: 0.7).
    pub gamma: f32,
    /// Global gradient-norm clip (0 disables).
    pub grad_clip: f32,
    /// Seed for weight init and shuffling.
    pub seed: u64,
    /// Optional neighbour-sampling fanouts per block family
    /// `[featuregen, hypermp, latticemp]` (paper: {6, 3, 2}); `None` trains
    /// full-graph.
    pub fanouts: Option<[usize; 3]>,
    /// Samples per optimiser step. 1 (the default) is the paper's
    /// per-design stepping; larger values accumulate gradients over a
    /// mini-batch before stepping — the unit the data-parallel trainer
    /// shards across threads.
    pub batch_size: usize,
    /// Worker threads for data-parallel gradient computation (1 = serial).
    ///
    /// Per-sample gradients are reduced in fixed sample order regardless
    /// of thread count, so for a given `batch_size` the training
    /// trajectory is bitwise identical at any `threads` value.
    pub threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 150,
            lr: 2e-3,
            lr_final: 5e-4,
            gamma: 0.7,
            grad_clip: 5.0,
            seed: 0,
            fanouts: None,
            batch_size: 1,
            threads: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = LhnnConfig::default();
        assert_eq!(c.hidden, 32);
        assert_eq!(c.hypermp_layers, 2);
        assert_eq!(c.latticemp_encode_layers, 1);
        assert_eq!(c.latticemp_joint_layers, 2);
        let t = TrainConfig::default();
        assert!((t.gamma - 0.7).abs() < 1e-6);
        assert!((t.lr - 2e-3).abs() < 1e-9);
        assert!((t.lr_final - 5e-4).abs() < 1e-9);
    }

    #[test]
    fn ablation_labels() {
        assert_eq!(AblationSpec::full().label(), "full");
        assert_eq!(AblationSpec::without_hypermp().label(), "-hypermp");
        assert_eq!(AblationSpec::without_jointing().label(), "-jointing");
        let two = AblationSpec { hypermp_edges: false, jointing: false, ..AblationSpec::full() };
        assert_eq!(two.label(), "-hypermp,-jointing");
    }

    #[test]
    fn ablation_constructors_flip_one_flag() {
        assert!(!AblationSpec::without_featuregen().featuregen_edges);
        assert!(AblationSpec::without_featuregen().hypermp_edges);
        assert!(!AblationSpec::without_latticemp().latticemp_edges);
        assert!(!AblationSpec::without_gcell_features().gcell_features);
    }
}
