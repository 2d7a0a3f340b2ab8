//! `neurograd` — a small, dependency-free deep-learning substrate.
//!
//! This crate replaces PyTorch + DGL for the LHNN reproduction. It provides
//! exactly what the paper's models need and nothing more:
//!
//! * [`Matrix`] — dense row-major `f32` matrices,
//! * [`CsrMatrix`] — sparse aggregation operators for graph message passing
//!   (with a cached explicit transpose for backward passes),
//! * [`kernels`] + [`pool`] + [`simd`] — the parallel compute backend every
//!   dense and sparse op dispatches through: chunked over a shared thread
//!   pool, inner loops on explicit f32 lanes, with bitwise results invariant
//!   to thread count and to the lane engine (AVX2 or portable),
//! * [`Tape`] — tape-based reverse-mode autodiff with fused losses
//!   (MSE, γ-weighted BCE-with-logits — Eq. 4/5 of the paper) and a
//!   recycled buffer pool for allocation-free steady-state forwards,
//! * image ops for the CNN baselines (conv2d / max-pool / upsample) in
//!   [`conv`],
//! * [`layers`] — `Linear`, `Mlp`, `ResBlock` building blocks,
//! * [`optim`] — `ParamStore`, `Adam`,
//! * [`metrics`] — confusion counts, F1, accuracy,
//! * [`init`] — seeded Kaiming/normal initialisation.
//!
//! # Example: one training step
//!
//! ```
//! use std::sync::Arc;
//! use neurograd::{Activation, Adam, Matrix, Mlp, ParamStore, Tape};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut store = ParamStore::new();
//! let mut rng = StdRng::seed_from_u64(0);
//! let model = Mlp::new(&mut store, "demo", 2, 8, 1, 2, Activation::Identity, &mut rng);
//! let mut opt = Adam::new(1e-2);
//!
//! let mut tape = Tape::new();
//! let x = tape.leaf(Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]));
//! let pred = model.forward(&mut tape, &store, x);
//! let loss = tape.mse_loss(pred, Arc::new(Matrix::from_rows(&[&[1.0], &[1.0]])));
//! tape.backward(loss);
//! store.absorb_grads(&mut tape);
//! opt.step(&mut store);
//! store.zero_grad();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod conv;
pub mod error;
pub mod fingerprint;
pub mod init;
pub mod kernels;
pub mod layers;
pub mod matrix;
pub mod metrics;
pub mod optim;
pub mod pool;
pub mod simd;
pub mod sparse;
pub mod tape;

pub use conv::Conv2dCfg;
pub use error::{NeuroError, Result};
pub use fingerprint::Fnv64;
pub use layers::{Activation, Linear, Mlp, ResBlock};
pub use matrix::Matrix;
pub use metrics::{mean_std, Confusion};
pub use optim::{Adam, ParamStore};
pub use sparse::CsrMatrix;
pub use tape::{stable_sigmoid, ParamId, Tape, Var};

// Concurrency contract: the serving layer shares models and graph
// operators across its callers' threads (`Arc<ModelEntry>`,
// `Arc<CsrMatrix>`) and the trainer owns one scratch `Tape` per
// data-parallel shard. These compile-time assertions keep the
// substrate `Send + Sync` — adding an `Rc`/`RefCell`/raw-pointer field to
// any of these types becomes a build error rather than a runtime surprise.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Matrix>();
    assert_send_sync::<CsrMatrix>();
    assert_send_sync::<Tape>();
    assert_send_sync::<ParamStore>();
    assert_send_sync::<optim::Param>();
    assert_send_sync::<Linear>();
    assert_send_sync::<ResBlock>();
    assert_send_sync::<pool::ThreadPool>();
};
