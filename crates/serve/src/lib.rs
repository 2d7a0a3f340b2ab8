//! `lhnn-serve` — a congestion-inference engine that answers each predict
//! on its caller's thread.
//!
//! The paper's end goal is congestion feedback *inside* placement loops: a
//! placer queries "where will routing congest?" thousands of times per
//! design, and a serving deployment fields *many* such loops at once. This
//! crate turns the one-shot [`lhnn::CongestionModel::predict`] path into an
//! always-on service skeleton, generic over the model architecture — any
//! [`lhnn::CongestionModel`] (LHNN, HybridNet, …) serves through the same
//! engine:
//!
//! * [`ModelRegistry`] — loads `.lhnn` checkpoints once, validates them
//!   against the feature pipeline, hands out shared entries; bad
//!   checkpoints are rejected without touching serving state.
//! * [`ServeEngine`] — one prediction cache and one set of count cells
//!   in front of the registry. The engine starts no thread: a predict
//!   runs on its caller's thread (a stateless one as a tape-free forward
//!   on that thread's reusable per-kind [`lhnn::ScratchSet`]), so request
//!   parallelism is the number of client threads.
//! * `PredictionCache` — an LRU keyed by content fingerprints of
//!   `(model weights, graph operators, features)`, so repeated queries on
//!   an unchanged placement cost only hashing. Stateless requests and
//!   sessions share it, so a state either of them computed answers the
//!   other.
//! * [`ServeHandle`] — the synchronous client API
//!   ([`ServeHandle::predict`], [`ServeHandle::predict_batch`],
//!   [`ServeHandle::stats`]) with latency percentiles, throughput and
//!   cache hit rate.
//! * [`Session`] — the stateful placement-loop surface
//!   ([`ServeHandle::open_session`] / [`Session::update`] /
//!   [`Session::predict`]): keeps an incremental
//!   [`lhnn::LatticePipeline`] hot per design. Both calls run on the
//!   caller's thread: `update` patches the pipeline in place; `predict`
//!   goes through the engine's cache and, on a miss, splices over the
//!   region the updates dirtied instead of recomputing every G-cell.
//!
//! Failures stay contained: a panicking forward costs its requester a
//! [`ServeError::WorkerLost`] and nothing else; engine locks guard
//! re-derivable state and recover from mutex poisoning instead of
//! cascading panics; a session whose update did not complete (an error
//! past the delta check, or a panic that reached its owner) refuses to
//! predict with [`ServeError::Session`] until a later update rebuilds its
//! pipeline, while the engine keeps serving.
//!
//! Served predictions are **bitwise identical** to direct
//! [`lhnn::CongestionModel::predict`] calls regardless of client count or
//! cache state (property-tested in `tests/determinism.rs`).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use lh_graph::{FeatureSet, LhGraph, LhGraphConfig};
//! use lhnn::{AblationSpec, GraphOps, Lhnn, LhnnConfig};
//! use lhnn_serve::{EngineConfig, ModelRegistry, PredictRequest, ServeEngine};
//! use vlsi_netlist::synth::{generate, SynthConfig};
//! use vlsi_place::GlobalPlacer;
//!
//! // Build one tiny design (generate → place → graph → features).
//! let cfg = SynthConfig { n_cells: 60, grid_nx: 6, grid_ny: 6, ..SynthConfig::default() };
//! let synth = generate(&cfg).unwrap();
//! let grid = cfg.grid();
//! let placed = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
//! let graph =
//!     LhGraph::build(&synth.circuit, &placed.placement, &grid, &LhGraphConfig::default())
//!         .unwrap();
//! let (gd, nd) = FeatureSet::default_divisors();
//! let features = FeatureSet::build(&graph, &synth.circuit, &placed.placement, &grid)
//!     .unwrap()
//!     .scaled_fixed(&gd, &nd);
//! let ops = Arc::new(GraphOps::from_graph(&graph, &AblationSpec::full()));
//! let features = Arc::new(features);
//!
//! // Register a model and stand up an engine.
//! let registry = Arc::new(ModelRegistry::new());
//! registry.register("default", Lhnn::new(LhnnConfig::default(), 0)).unwrap();
//! let engine = ServeEngine::new(registry, EngineConfig::default());
//! let handle = engine.handle();
//!
//! // First query computes, the repeat is served from the LRU cache.
//! let req = PredictRequest::new("default", ops, features).with_threshold(0.5);
//! let cold = handle.predict(&req).unwrap();
//! let warm = handle.predict(&req).unwrap();
//! assert!(!cold.cached && warm.cached);
//! assert!(warm.prediction.cls_prob.approx_eq(&cold.prediction.cls_prob, 0.0));
//! assert!(handle.stats().cache_hit_rate > 0.0);
//! engine.shutdown();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
pub mod engine;
pub mod error;
pub(crate) mod lock;
pub(crate) mod observability;
pub mod registry;
pub mod session;
pub mod stats;

pub use engine::{EngineConfig, PredictRequest, ServeEngine, ServeHandle};
pub use error::{Result, ServeError};
pub use registry::{ModelEntry, ModelRegistry};
pub use session::{Session, SessionConfig};
pub use stats::ServeStats;

/// The observability vocabulary (registry, snapshots, exposition, flight
/// events), re-exported so engine clients need no separate dependency.
pub use lhnn_obs as obs;
