//! `lhnn` — the Lattice Hypergraph Neural Network for VLSI congestion
//! prediction (Wang et al., DAC 2022), reproduced in pure Rust.
//!
//! The crate implements section 4 of the paper on top of the
//! [`lh_graph`] formulation:
//!
//! * [`Lhnn`] — FeatureGen + stacked HyperMP + LatticeMP blocks with joint
//!   congestion-classification and demand-regression heads, declared once
//!   as a block [`Program`] that the taped, stateless and spliced
//!   forwards all interpret,
//! * [`Model`] — the one model type: an [`Arch`](model::Arch) config ([`LhnnConfig`]
//!   or [`HybridNetConfig`]), its parameters and its program, with one
//!   checkpoint codec and one weights fingerprint,
//! * [`loss`] — the joint objective of Eq. 3–5 with the γ label-balance
//!   weighting,
//! * [`train`] / [`evaluate`] — the paper's training protocol and
//!   per-design F1/ACC evaluation,
//! * [`AblationSpec`] — the component switches of the Table 3 ablation,
//! * [`ops`] — graph operators with ablation masking and the paper's
//!   {6,3,2} neighbour-sampling fanouts.
//!
//! # Example
//!
//! See `examples/quickstart.rs` at the workspace root for the end-to-end
//! pipeline (generate → place → route → graph → train → predict).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod congestion;
pub mod hybrid;
pub mod incremental;
pub mod loss;
pub mod model;
pub mod ops;
pub mod pipeline;
pub mod program;
pub mod serialize;
pub mod trainer;

pub use config::{AblationSpec, LhnnConfig, TrainConfig};
pub use congestion::{CongestionModel, ScratchSet};
pub use hybrid::{HybridNet, HybridNetConfig};
pub use incremental::{
    ForwardDirty, IncrementalForward, IncrementalStats, InvalidationCause, SpliceOutcome,
};
pub use model::{Lhnn, Model, Prediction};
pub use ops::GraphOps;
pub use pipeline::{LatticePipeline, PipelineStats, PipelineUpdate, RebuildCause};
pub use program::{ModelScratch, Program};
pub use serialize::{load_model, ModelIoError};
pub use trainer::{evaluate, predict_map, train, Sample};
