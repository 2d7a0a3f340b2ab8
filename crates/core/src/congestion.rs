//! The [`CongestionModel`] trait: the model-agnostic contract the whole
//! serving stack (registry, prediction cache, sessions, incremental
//! forward) and the trainer are written against.
//!
//! A congestion predictor declares its forward once, as a block
//! [`Program`] over its parameter store; the trait's provided methods run
//! that program through the taped interpreter (for the data-parallel
//! trainer) and the tape-free one ([`CongestionModel::predict_with`] —
//! the serving hot path), and [`crate::IncrementalForward`] splices it.
//! Beyond the program, a model fingerprints its weights (the registry's
//! cache-coherent *version*) and serialises itself under a kind tag
//! (`.lhnn` v2).
//!
//! One type implements it: [`crate::Model`], generic over its
//! architecture ([`crate::Arch`]). Two architectures exist today:
//! [`crate::Lhnn`] (kind `lhnn`) and [`crate::HybridNet`] (kind
//! `hybridnet`). A sibling model (VeriHGN, DE-HNN, …) is one more config
//! and program — the engine, sessions, CLI and benches ride along
//! unchanged.
//!
//! # Bitwise contract
//!
//! The taped ([`CongestionModel::forward`] + sigmoid), stateless
//! ([`CongestionModel::predict_with`]) and spliced forwards interpret the
//! same program with the same per-element float sequences, so they agree
//! **bitwise** on the same inputs at any thread count. Every serving
//! parity proptest (served == direct, spliced == full) rests on that
//! invariant.

use std::io::Write;

use lh_graph::{ChannelMode, FeatureSet};
use neurograd::{ParamStore, Tape};

use crate::model::{LhnnOutput, Prediction};
use crate::ops::GraphOps;
use crate::program::{ModelScratch, Program};
use crate::serialize::ModelIoError;

/// The congestion-prediction model contract (see the module docs).
///
/// Object-safe: the registry holds `Box<dyn CongestionModel>` and the
/// engine, sessions and trainer all work through `&dyn CongestionModel`.
pub trait CongestionModel: Send + Sync + std::fmt::Debug {
    /// Stable architecture tag (`"lhnn"`, `"hybridnet"`, …): the `.lhnn`
    /// serialization kind, the scratch-slot key and the `kind=` metrics
    /// label. Must be unique per architecture.
    fn kind(&self) -> &'static str;

    /// Expected G-cell input feature width.
    fn gcell_in_dim(&self) -> usize;

    /// Expected G-net input feature width.
    fn gnet_in_dim(&self) -> usize;

    /// Hidden dimension (must be non-zero; registries validate it).
    fn hidden(&self) -> usize;

    /// Output channel mode (uni/duo).
    fn channel_mode(&self) -> ChannelMode;

    /// The parameter store (read access).
    fn store(&self) -> &ParamStore;

    /// The parameter store (mutable, for the optimiser).
    fn store_mut(&mut self) -> &mut ParamStore;

    /// Content fingerprint over architecture + every weight tensor — the
    /// serving *version*. Must change whenever predictions could, and
    /// must never collide across kinds (hash the kind into it).
    fn weights_fingerprint(&self) -> u64;

    /// The model's forward, declared once (see [`crate::program`]).
    fn program(&self) -> &Program;

    /// Writes the model (kind tag + architecture + weights) in the
    /// `.lhnn` v2 format; [`crate::load_model`] restores it.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn save_to(&self, w: &mut dyn Write) -> Result<(), ModelIoError>;

    /// Number of output channels.
    fn channels(&self) -> usize {
        self.channel_mode().channels()
    }

    /// Number of scalar parameters.
    fn num_parameters(&self) -> usize {
        self.store().num_scalars()
    }

    /// Runs the forward pass on a tape (the training path).
    ///
    /// # Panics
    ///
    /// Panics if feature dimensions disagree with the configuration.
    fn forward(&self, tape: &mut Tape, ops: &GraphOps, features: &FeatureSet) -> LhnnOutput {
        self.program().tape_forward(tape, self.store(), ops, features)
    }

    /// A fresh scratch for [`CongestionModel::predict_with`].
    fn new_scratch(&self) -> Box<ModelScratch> {
        Box::default()
    }

    /// The tape-free forward through caller-owned scratch — the serving
    /// hot path. Any scratch works; reusing one per model kind (a
    /// [`ScratchSet`]) keeps its buffers shaped, so steady-state requests
    /// allocate nothing but the returned prediction.
    ///
    /// # Panics
    ///
    /// Panics if feature dimensions disagree with the configuration.
    fn predict_with(
        &self,
        ops: &GraphOps,
        features: &FeatureSet,
        scratch: &mut ModelScratch,
    ) -> Prediction {
        self.program().predict(self.store(), ops, features, scratch)
    }

    /// One-shot inference through a fresh scratch (convenience; hot paths
    /// should reuse a [`ScratchSet`]).
    fn predict(&self, ops: &GraphOps, features: &FeatureSet) -> Prediction {
        self.predict_with(ops, features, &mut ModelScratch::new())
    }
}

/// A per-kind scratch pool: one [`ModelScratch`] per model kind, created
/// lazily on first use and reused for every later request of that kind —
/// so one caller serves a mixed zoo without reshaping buffers on every
/// kind switch.
#[derive(Debug, Default)]
pub struct ScratchSet {
    slots: Vec<(&'static str, ModelScratch)>,
}

impl ScratchSet {
    /// An empty set; slots appear as kinds are first served.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scratch slot for `model`'s kind, created on first use.
    pub fn for_model(&mut self, model: &dyn CongestionModel) -> &mut ModelScratch {
        let kind = model.kind();
        let idx = match self.slots.iter().position(|(k, _)| *k == kind) {
            Some(i) => i,
            None => {
                self.slots.push((kind, ModelScratch::new()));
                self.slots.len() - 1
            }
        };
        &mut self.slots[idx].1
    }

    /// Tape-free inference through the model's own pooled scratch.
    pub fn predict(
        &mut self,
        model: &dyn CongestionModel,
        ops: &GraphOps,
        features: &FeatureSet,
    ) -> Prediction {
        let scratch = self.for_model(model);
        model.predict_with(ops, features, scratch)
    }

    /// Number of distinct kinds this set holds scratch for.
    pub fn kinds(&self) -> usize {
        self.slots.len()
    }
}
