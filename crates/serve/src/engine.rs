//! The inference engine: a front over N shards, each with its own
//! prediction cache and count cells. Every predict resolves on the
//! caller's thread; the engine runs no thread of its own.
//!
//! # Architecture
//!
//! ```text
//!         ServeHandle::predict          Session::predict
//!                   │                           │
//!                   └─────────┬─────────────────┘
//!                             │ stable hash: design → shard
//!                  ┌──────────┼──────────┐
//!                  ▼          ▼          ▼
//!               shard 0    shard 1  …  shard N-1
//!         ┌────────────────────────────┐
//!         │ resolve (caller's thread)  │
//!         │ LRU cache                  │
//!         │ count cells                │
//!         └────────────────────────────┘
//! ```
//!
//! Sharding gives many concurrent placement loops isolation: a hot design
//! hammering one shard cannot evict another design's cache entries,
//! because requests route by a *stable* hash of the design's identity
//! (sessions and [`PredictRequest::with_design`]: the design id;
//! anonymous stateless requests: the operator fingerprint, which keeps
//! repeats of one state on one shard but spreads a design's successive
//! states) — the same state always lands on the same shard, so its
//! repeats meet their cache entry.
//!
//! Every prediction goes through one routine: check shutdown, admit the
//! request, then `resolve` it on its shard — look the key up in the
//! shard's LRU cache (keyed by content fingerprints) and, on a miss, run
//! the forward and cache its result. A stateless request's forward runs
//! from scratch on the calling thread's reusable [`ScratchSet`]; a session
//! predict runs the session's own bounded-radius forward, a splice over
//! the dirty halo. Session updates apply on the caller's thread too (see
//! [`crate::Session::update`]). Stateless requests and sessions share the
//! cache, so a state either of them computed answers the other. Nothing
//! waits on another caller's forward: two concurrent misses on one key
//! each compute, and the bitwise contract makes their results equal.
//!
//! Request parallelism is the caller's: each client thread runs its own
//! forwards, which fan their kernels out over the shared `neurograd`
//! compute pool. `predict` blocks the calling thread until its reply is
//! ready. After [`ServeEngine::shutdown`] (or drop) every predict,
//! stateless or session, fails with [`ServeError::ShuttingDown`]; a
//! predict already past that check finishes.
//!
//! Lock discipline: every engine lock guards re-derivable state and
//! recovers from poisoning (see the `lock` module); a panicking forward is
//! caught, its requester observes [`ServeError::WorkerLost`], and the
//! engine keeps serving.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lh_graph::FeatureSet;
use lhnn::{CongestionModel, GraphOps, Prediction, ScratchSet};
use lhnn_obs::{FlightEvent, FlightEventKind, Registry, Snapshot};
use neurograd::Fnv64;

use crate::cache::{CacheKey, PredictionCache};
use crate::error::{Result, ServeError};
use crate::lock;
use crate::observability::EngineObs;
use crate::registry::{ModelEntry, ModelRegistry};
use crate::stats::ServeStats;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Unused (default 0): every predict resolves on its caller's thread, so request
    /// parallelism is the number of client threads. The field exists only
    /// until the benchmark, which sets it, stops doing so.
    pub workers: usize,
    /// Independent shards (default 1). Each shard has its own prediction
    /// cache and count cells; designs map to shards by a stable hash, so
    /// one hot design cannot evict another design's cache entries.
    pub shards: usize,
    /// LRU prediction-cache capacity in entries **per shard** (0 disables
    /// caching).
    pub cache_capacity: usize,
    /// Intra-op compute threads: 0 (default) leaves the shared
    /// `neurograd` pool as configured; a positive value rebuilds it with
    /// that many lanes when the engine starts.
    ///
    /// All callers *share* one compute pool rather than each assuming a
    /// serial forward: a caller's forward fans its kernels out across the
    /// pool, and because the kernel backend is bitwise
    /// thread-count-invariant this never changes a prediction (the
    /// `served_prediction_is_bitwise_identical` proptest covers it).
    pub compute_threads: usize,
    /// Stage tracing and the flight recorder (default on).
    ///
    /// Off builds the disabled registry/recorder pair: span timers
    /// (`lhnn_stage_us`) skip their clock reads entirely and flight events
    /// are dropped before formatting. The count cells and the request
    /// latency histogram record either way — they are the only store of
    /// the engine's counts, so [`ServeStats`] and the session stats stay
    /// exact. Instrumentation never touches model arithmetic — predictions
    /// are bitwise identical with it on or off (the
    /// `metrics_do_not_change_predictions` proptest covers it).
    pub metrics: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self { workers: 0, shards: 1, cache_capacity: 128, compute_threads: 0, metrics: true }
    }
}

/// One congestion-inference request.
#[derive(Debug, Clone)]
pub struct PredictRequest {
    /// Registry name of the model to serve with.
    pub model: String,
    /// Graph operators of the design (shared; typically built once per
    /// placement iteration).
    pub ops: Arc<GraphOps>,
    /// Input features of the design.
    pub features: Arc<FeatureSet>,
    /// Optional design identity for shard routing. `Some` pins every
    /// state of the design to one shard (the per-design affinity sessions
    /// get automatically); `None` routes by the operator fingerprint, so
    /// repeats of the *same state* still meet their cache entry, but
    /// successive states of one design spread across shards.
    pub design: Option<String>,
    /// Per-request congestion threshold applied to channel-0
    /// probabilities for [`ServeReply::congested_fraction`].
    pub threshold: f32,
}

impl PredictRequest {
    /// A request against `model` with the conventional 0.5 threshold.
    pub fn new(model: &str, ops: Arc<GraphOps>, features: Arc<FeatureSet>) -> Self {
        Self { model: model.to_string(), ops, features, design: None, threshold: 0.5 }
    }

    /// Sets the congestion threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f32) -> Self {
        self.threshold = threshold;
        self
    }

    /// Pins the request to the shard owning `design` (stable hash), like
    /// a session over that design would be.
    #[must_use]
    pub fn with_design(mut self, design: impl Into<String>) -> Self {
        self.design = Some(design.into());
        self
    }
}

/// The answer to one request.
#[derive(Debug, Clone)]
pub struct ServeReply {
    /// The prediction (shared with the cache).
    pub prediction: Arc<Prediction>,
    /// Whether the prediction was answered from the cache (no forward was
    /// run for it).
    pub cached: bool,
    /// Fraction of G-cells whose channel-0 congestion probability meets
    /// the request's threshold.
    pub congested_fraction: f64,
    /// Submission-to-reply latency as measured by the engine.
    pub latency: Duration,
}

thread_local! {
    /// The calling thread's stateless-forward scratch, one slot per model
    /// kind, created lazily: a client thread that keeps serving a mixed
    /// model zoo reaches zero steady-state allocation.
    static SCRATCH: RefCell<ScratchSet> = RefCell::new(ScratchSet::new());
}

pub(crate) struct Shared {
    registry: Arc<ModelRegistry>,
    /// One LRU prediction cache per shard, isolated from every other
    /// shard. The shards' count cells live in `EngineObs::shards`.
    shards: Vec<Mutex<PredictionCache>>,
    started: Instant,
    obs: EngineObs,
    /// Set by [`ServeEngine::shutdown`] and on drop; every later predict
    /// fails with [`ServeError::ShuttingDown`]. It publishes no other
    /// data, so its loads and stores are `Relaxed`.
    shutdown: AtomicBool,
}

impl Shared {
    /// Answers `key` on shard `shard_idx` — from the shard's cache, or by
    /// running `forward` and caching its result — and reports whether the
    /// prediction came from the cache.
    ///
    /// Two concurrent misses on one key each run their forward; the
    /// bitwise contract makes both results equal, so the second insert
    /// replaces the first with the same bits. `forward` runs under
    /// `catch_unwind`: if it panics, a `WorkerLost` flight event is
    /// recorded and the caller gets [`ServeError::WorkerLost`].
    fn resolve(
        &self,
        shard_idx: usize,
        entry: &ModelEntry,
        key: CacheKey,
        forward: impl FnOnce() -> Prediction,
    ) -> Result<(Arc<Prediction>, bool)> {
        let cache = &self.shards[shard_idx];
        let t_cache = self.obs.stage_cache.start();
        let hit = lock::recover(cache).get(&key);
        self.obs.stage_cache.stop_us(t_cache);
        if let Some(hit) = hit {
            return Ok((hit, true));
        }
        let p = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| Arc::new(forward())))
            .map_err(|_| {
                self.obs.flight.record(
                    FlightEventKind::WorkerLost,
                    &entry.name,
                    format!("forward panicked (model v{})", entry.version),
                );
                ServeError::WorkerLost
            })?;
        self.obs.shards[shard_idx].computed.inc();
        lock::recover(cache).insert(key, Arc::clone(&p));
        Ok((p, false))
    }
}

/// The engine: owns the shards and the model registry; hand out
/// [`ServeHandle`]s to use it.
///
/// Dropping it (or [`ServeEngine::shutdown`]) stops accepting work: every
/// later predict, stateless or session, fails with
/// [`ServeError::ShuttingDown`].
pub struct ServeEngine {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServeEngine({} shards)", self.shared.shards.len())
    }
}

impl ServeEngine {
    /// Builds `cfg.shards` shards over `registry`. No thread is started:
    /// each predict runs on its caller's thread.
    ///
    /// With `cfg.compute_threads > 0` the shared intra-op compute pool is
    /// rebuilt to that width first (process-wide — see
    /// [`neurograd::pool::configure_threads`]).
    pub fn new(registry: Arc<ModelRegistry>, cfg: EngineConfig) -> Self {
        if cfg.compute_threads > 0 {
            neurograd::pool::configure_threads(cfg.compute_threads);
        }
        let shards: Vec<_> = (0..cfg.shards.max(1))
            .map(|_| Mutex::new(PredictionCache::new(cfg.cache_capacity)))
            .collect();
        let obs = EngineObs::new(cfg.metrics, shards.len());
        registry.attach_metrics(Arc::clone(&obs.registry));
        let shared = Arc::new(Shared {
            registry,
            shards,
            started: Instant::now(),
            obs,
            shutdown: AtomicBool::new(false),
        });
        Self { shared }
    }

    /// A cloneable client handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { shared: Arc::clone(&self.shared) }
    }

    /// Stops accepting work, as dropping the engine does.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }
}

/// Cloneable, thread-safe client of a [`ServeEngine`].
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServeHandle({} shards)", self.shared.shards.len())
    }
}

impl ServeHandle {
    /// Serves one request on the caller's thread, blocking until the
    /// prediction is available: the shard's cache answers if it can,
    /// otherwise a from-scratch
    /// forward computes and its result lands in the shard's cache.
    ///
    /// Routing: a request carrying a design id
    /// ([`PredictRequest::with_design`]) goes to that design's shard —
    /// the same per-design affinity sessions get. Without one, the shard
    /// is a stable hash of the operator fingerprint: repeats of the same
    /// state always meet their own cache entry, but
    /// successive states of an anonymous design spread across shards, so
    /// pass a design id when one placement loop should stay isolated.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for unregistered names,
    /// [`ServeError::Incompatible`] when the inputs do not fit the model
    /// or a feature is NaN or infinite,
    /// [`ServeError::ShuttingDown`] once the engine shut down,
    /// [`ServeError::WorkerLost`] if the forward panicked.
    pub fn predict(&self, request: &PredictRequest) -> Result<ServeReply> {
        self.predict_here(self.shard_of_request(request), request, |entry| {
            SCRATCH.with(|scratch| {
                scratch.borrow_mut().predict(entry.model.as_ref(), &request.ops, &request.features)
            })
        })
    }

    /// The shard a request routes to: its design id when it has one, the
    /// operator fingerprint otherwise.
    fn shard_of_request(&self, request: &PredictRequest) -> usize {
        match &request.design {
            Some(design) => self.shard_of_design(design),
            None => self.shard_of_ops_fingerprint(request.ops.fingerprint()),
        }
    }

    /// Serves `request` on the caller's thread, on shard `shard_idx`: the
    /// one path of both [`ServeHandle::predict`] and
    /// [`crate::Session::predict`]. The shard's cache answers if it can,
    /// otherwise `forward` (a
    /// from-scratch forward, or a session's bounded-radius one) computes,
    /// and its result lands in the shard's cache.
    pub(crate) fn predict_here(
        &self,
        shard_idx: usize,
        request: &PredictRequest,
        forward: impl FnOnce(&ModelEntry) -> Prediction,
    ) -> Result<ServeReply> {
        let submitted = Instant::now();
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err(ServeError::ShuttingDown);
        }
        let (entry, key) = self.admit(request)?;
        let (prediction, cached) =
            self.shared.resolve(shard_idx, &entry, key, || forward(&entry))?;
        let latency = submitted.elapsed();
        self.shared.obs.shards[shard_idx].record_request(latency, cached);
        Ok(reply_from(prediction, cached, request.threshold, latency))
    }

    /// Serves many requests one after another, each as
    /// [`ServeHandle::predict`] would.
    ///
    /// Replies come back in request order; each slot fails independently
    /// (one unknown model does not sink the batch).
    pub fn predict_batch(&self, requests: &[PredictRequest]) -> Vec<Result<ServeReply>> {
        requests.iter().map(|request| self.predict(request)).collect()
    }

    /// A snapshot of the engine's counters and latency percentiles,
    /// aggregated across shards ([`ServeStats::per_shard`] has the
    /// breakdown): a lock-free read of the shards' registry cells.
    pub fn stats(&self) -> ServeStats {
        ServeStats::read(&self.shared.obs.shards, self.shared.started.elapsed())
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// The shard a design id routes to (stable FNV hash, so the same
    /// design always lands on the same shard).
    pub fn shard_of_design(&self, design_id: &str) -> usize {
        let mut h = Fnv64::new();
        h.write_str(design_id);
        (h.finish() % self.shared.shards.len() as u64) as usize
    }

    fn shard_of_ops_fingerprint(&self, fp: u64) -> usize {
        // The fingerprint is already well-mixed; fold it through FNV once
        // more so shard routing is independent of cache-key equality.
        let mut h = Fnv64::new();
        h.write_u64(fp);
        (h.finish() % self.shared.shards.len() as u64) as usize
    }

    /// Width of the shared intra-op compute pool every predict's forward
    /// fans out over (the process-wide `neurograd` pool).
    pub fn compute_threads(&self) -> usize {
        neurograd::pool::current_threads()
    }

    /// Number of predictions currently cached, across all shards.
    pub fn cache_len(&self) -> usize {
        self.shared.shards.iter().map(|s| lock::recover(s).len()).sum()
    }

    /// Number of predictions cached on one shard (0 for a shard that does
    /// not exist).
    pub fn shard_cache_len(&self, shard: usize) -> usize {
        self.shared.shards.get(shard).map_or(0, |s| lock::recover(s).len())
    }

    /// The registry this engine serves from.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Hot-swaps the model registered under `name` and evicts the
    /// displaced version's predictions from every shard cache.
    ///
    /// Prefer this over [`ModelRegistry::replace`] on a live engine: the
    /// versioned cache keys make the old entries unreachable either way,
    /// but a bare registry swap leaves them squatting in the shard LRUs,
    /// evicting live predictions until traffic ages them off.
    ///
    /// The replacement may be a **different architecture**. An open
    /// session serving `name` needs no notice: its incremental forward
    /// refreshes in full whenever the weights version it is handed
    /// changes, and versions hash the architecture kind, so it never
    /// splices against the displaced model's activations.
    ///
    /// # Errors
    ///
    /// [`ServeError::Incompatible`] if the new model fails validation (the
    /// registry and the caches are left untouched).
    pub fn replace_model<M: CongestionModel + 'static>(
        &self,
        name: &str,
        model: M,
    ) -> Result<Arc<ModelEntry>> {
        self.replace_model_boxed(name, Box::new(model))
    }

    /// [`ServeHandle::replace_model`] for an already-boxed model (e.g.
    /// straight out of [`lhnn::load_model`]).
    ///
    /// # Errors
    ///
    /// As [`ServeHandle::replace_model`].
    pub fn replace_model_boxed(
        &self,
        name: &str,
        model: Box<dyn CongestionModel>,
    ) -> Result<Arc<ModelEntry>> {
        let displaced = self.shared.registry.get(name);
        let entry = self.shared.registry.replace_boxed(name, model)?;
        if let Some(old) = displaced.filter(|old| old.version != entry.version) {
            for s in &self.shared.shards {
                lock::recover(s).evict_model(old.version);
            }
            self.shared.obs.flight.record(
                FlightEventKind::HotSwap,
                name,
                format!("v{} -> v{} ({})", old.version, entry.version, entry.model.kind()),
            );
        }
        Ok(entry)
    }

    /// Shard `shard_idx`'s `lhnn_session_updates_total` cell: where a
    /// session pinned to that shard counts each update it applies.
    pub(crate) fn session_update_sinks(&self, shard_idx: usize) -> lhnn_obs::Counter {
        self.shared.obs.shards[shard_idx].session_updates.clone()
    }

    /// The engine's metrics registry: counters and stage/latency
    /// histograms for everything the engine and its sessions record.
    /// Shared — handles cloned from one engine all see the same registry.
    pub fn metrics(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.obs.registry)
    }

    /// A point-in-time snapshot of every registered series (render it with
    /// [`Snapshot::to_prometheus`] / [`Snapshot::to_json`]).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.shared.obs.registry.snapshot()
    }

    /// The flight recorder's retained events, oldest first: fallbacks,
    /// poisonings, wedges, hot-swaps and panicked forwards (bounded ring —
    /// newest win).
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        self.shared.obs.flight.snapshot()
    }

    /// Whether this engine records span timings and flight events
    /// ([`EngineConfig::metrics`]); counts are recorded either way.
    pub fn metrics_enabled(&self) -> bool {
        self.shared.obs.registry.is_enabled()
    }

    /// The engine's observability plane, for sessions to wire their
    /// per-design instrumentation into.
    pub(crate) fn obs(&self) -> &EngineObs {
        &self.shared.obs
    }

    fn admit(&self, request: &PredictRequest) -> Result<(Arc<ModelEntry>, CacheKey)> {
        let entry = self
            .shared
            .registry
            .get(&request.model)
            .ok_or_else(|| ServeError::UnknownModel(request.model.clone()))?;
        if request.features.gcell.cols() != entry.model.gcell_in_dim()
            || request.features.gnet.cols() != entry.model.gnet_in_dim()
        {
            return Err(ServeError::Incompatible(format!(
                "feature dims ({}, {}) do not match model `{}` input dims ({}, {})",
                request.features.gcell.cols(),
                request.features.gnet.cols(),
                entry.name,
                entry.model.gcell_in_dim(),
                entry.model.gnet_in_dim()
            )));
        }
        if request.features.gcell.rows() != request.ops.num_gcells {
            return Err(ServeError::Incompatible(format!(
                "features describe {} g-cells, operators {}",
                request.features.gcell.rows(),
                request.ops.num_gcells
            )));
        }
        // FeatureSet::build pads an empty g-net block to one zero row, so
        // the operators' column count is num_gnets.max(1).
        if request.features.gnet.rows() != request.ops.num_gnets.max(1) {
            return Err(ServeError::Incompatible(format!(
                "features describe {} g-nets, operators {}",
                request.features.gnet.rows(),
                request.ops.num_gnets
            )));
        }
        // Fingerprints fold every NaN onto one pattern, so a non-finite
        // request would also alias other garbage states in the cache.
        if !(request.features.gcell.is_finite() && request.features.gnet.is_finite()) {
            return Err(ServeError::Incompatible("features contain NaN or infinity".into()));
        }
        let key = CacheKey {
            model: entry.version,
            ops: request.ops.fingerprint(),
            features: request.features.fingerprint(),
        };
        Ok((entry, key))
    }
}

fn reply_from(
    prediction: Arc<Prediction>,
    cached: bool,
    threshold: f32,
    latency: Duration,
) -> ServeReply {
    let rows = prediction.cls_prob.rows().max(1);
    let congested = (0..prediction.cls_prob.rows())
        .filter(|&r| prediction.cls_prob[(r, 0)] >= threshold)
        .count();
    ServeReply { prediction, cached, congested_fraction: congested as f64 / rows as f64, latency }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lhnn::{Lhnn, LhnnConfig};
    use neurograd::CsrMatrix;

    fn design(seed: u64, n_cells: usize, grid: u32) -> (Arc<GraphOps>, Arc<FeatureSet>) {
        let (ops, feats) = lhnn_data::serving_inputs(seed, n_cells, grid).expect("build design");
        (Arc::new(ops), Arc::new(feats))
    }

    fn engine_with_default_model(cache: usize) -> ServeEngine {
        let registry = Arc::new(ModelRegistry::new());
        registry.register("default", Lhnn::new(LhnnConfig::default(), 0)).unwrap();
        ServeEngine::new(registry, EngineConfig { cache_capacity: cache, ..Default::default() })
    }

    #[test]
    fn serves_and_caches() {
        let engine = engine_with_default_model(16);
        let handle = engine.handle();
        let (ops, feats) = design(1, 90, 6);
        let req = PredictRequest::new("default", ops, feats);
        let cold = handle.predict(&req).unwrap();
        assert!(!cold.cached);
        let warm = handle.predict(&req).unwrap();
        assert!(warm.cached, "second identical request must hit the cache");
        assert!(warm.prediction.cls_prob.approx_eq(&cold.prediction.cls_prob, 0.0));
        let stats = handle.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.computed, 1);
        assert!(stats.cache_hit_rate > 0.0);
        assert_eq!(handle.cache_len(), 1);
        engine.shutdown();
    }

    #[test]
    fn batch_mixes_models_and_errors_independently() {
        let engine = engine_with_default_model(16);
        let handle = engine.handle();
        let (ops, feats) = design(2, 80, 6);
        let good = PredictRequest::new("default", Arc::clone(&ops), Arc::clone(&feats));
        let unknown = PredictRequest::new("nope", ops, feats);
        let replies = handle.predict_batch(&[good.clone(), unknown, good]);
        assert_eq!(replies.len(), 3);
        assert!(replies[0].is_ok());
        assert!(matches!(replies[1], Err(ServeError::UnknownModel(_))));
        assert!(replies[2].is_ok());
    }

    #[test]
    fn per_request_threshold_changes_fraction() {
        let engine = engine_with_default_model(4);
        let handle = engine.handle();
        let (ops, feats) = design(3, 80, 6);
        let lo = handle
            .predict(
                &PredictRequest::new("default", Arc::clone(&ops), Arc::clone(&feats))
                    .with_threshold(0.0),
            )
            .unwrap();
        let hi = handle
            .predict(&PredictRequest::new("default", ops, feats).with_threshold(1.1))
            .unwrap();
        assert!((lo.congested_fraction - 1.0).abs() < 1e-12, "threshold 0 flags everything");
        assert_eq!(hi.congested_fraction, 0.0, "threshold >1 flags nothing");
        // the second request hit the cache — threshold is per-request, not
        // part of the key
        assert!(hi.cached);
    }

    #[test]
    fn incompatible_inputs_rejected_at_submission() {
        let engine = engine_with_default_model(4);
        let handle = engine.handle();
        let (ops, feats) = design(4, 80, 6);
        let narrow =
            Arc::new(FeatureSet { gnet: feats.gnet.clone(), gcell: feats.gcell.slice_cols(0, 3) });
        let err = handle.predict(&PredictRequest::new("default", ops, narrow)).unwrap_err();
        assert!(matches!(err, ServeError::Incompatible(_)));
    }

    #[test]
    fn mismatched_gnet_rows_rejected_at_submission() {
        // ops from one design, features from another with equal g-cell
        // count but different g-net count: must be rejected up front, not
        // panic a forward.
        let engine = engine_with_default_model(4);
        let handle = engine.handle();
        let (ops_a, feats_a) = design(6, 80, 6);
        let (_, feats_b) = design(7, 120, 6);
        assert_eq!(feats_a.gcell.rows(), feats_b.gcell.rows(), "same grid, same g-cells");
        assert_ne!(feats_a.gnet.rows(), feats_b.gnet.rows(), "different g-net counts");
        let err = handle
            .predict(&PredictRequest::new("default", Arc::clone(&ops_a), feats_b))
            .unwrap_err();
        assert!(matches!(err, ServeError::Incompatible(_)), "got {err:?}");
        // the engine still serves the matching pair
        let ok = handle.predict(&PredictRequest::new("default", ops_a, feats_a)).unwrap();
        assert!(ok.prediction.cls_prob.is_finite());
    }

    #[test]
    fn non_finite_features_rejected_at_admission() {
        let engine = engine_with_default_model(0);
        let handle = engine.handle();
        let (ops, feats) = design(8, 80, 6);
        let poisoned = |block: usize, v: f32| {
            let mut f = (*feats).clone();
            let m = if block == 0 { &mut f.gcell } else { &mut f.gnet };
            m.as_mut_slice()[1] = v;
            PredictRequest::new("default", Arc::clone(&ops), Arc::new(f))
        };
        for (block, v) in [(0, f32::NAN), (0, f32::INFINITY), (1, f32::NEG_INFINITY), (1, f32::NAN)]
        {
            let err = handle.predict(&poisoned(block, v)).unwrap_err();
            assert!(matches!(err, ServeError::Incompatible(_)), "block {block}, {v}: got {err:?}");
        }

        // one bad request among good ones fails alone; the good replies
        // equal their direct forwards bitwise
        let (ops_b, feats_b) = design(9, 90, 6);
        let good_a = PredictRequest::new("default", Arc::clone(&ops), Arc::clone(&feats));
        let good_b = PredictRequest::new("default", Arc::clone(&ops_b), Arc::clone(&feats_b));
        let replies = handle.predict_batch(&[good_a, poisoned(0, f32::NAN), good_b]);
        assert!(matches!(replies[1], Err(ServeError::Incompatible(_))), "{:?}", replies[1]);
        let model = Lhnn::new(LhnnConfig::default(), 0);
        for (reply, (o, f)) in
            [&replies[0], &replies[2]].into_iter().zip([(&ops, &feats), (&ops_b, &feats_b)])
        {
            let got = &reply.as_ref().expect("good request served").prediction;
            let want = model.predict(o, f);
            assert!(
                got.cls_prob.approx_eq(&want.cls_prob, 0.0) && got.reg.approx_eq(&want.reg, 0.0)
            );
        }
        assert_eq!(handle.stats().computed, 2, "rejected requests never reach a forward");
        engine.shutdown();
    }

    #[test]
    fn concurrent_clients_all_get_answers() {
        let engine = engine_with_default_model(64);
        let handle = engine.handle();
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let designs: Vec<_> = (0..4).map(|s| design(10 + s, 70, 6)).collect();
        std::thread::scope(|scope| {
            for (ops, feats) in &designs {
                let want = model.predict(ops, feats);
                for _ in 0..3 {
                    let h = handle.clone();
                    let ops = Arc::clone(ops);
                    let feats = Arc::clone(feats);
                    let want = want.clone();
                    scope.spawn(move || {
                        let r = h.predict(&PredictRequest::new("default", ops, feats)).unwrap();
                        let got = &r.prediction;
                        assert!(got.cls_prob.approx_eq(&want.cls_prob, 0.0));
                        assert!(got.reg.approx_eq(&want.reg, 0.0));
                    });
                }
            }
        });
        let stats = handle.stats();
        assert_eq!(stats.requests, 12);
        // a request either hits the cache or runs its own forward: two
        // concurrent misses on one key both compute, so 4 unique designs
        // cost between 4 and 12 forwards, and every reply is bitwise equal
        // to its design's direct forward (asserted in the threads)
        assert_eq!(stats.cache_hits + stats.computed, 12);
        assert!((4..=12).contains(&stats.computed), "computed {}", stats.computed);
        assert_eq!(handle.cache_len(), 4, "equal keys share one cache entry");
        engine.shutdown();
    }

    #[test]
    fn sharded_engine_serves_and_isolates_routing() {
        let registry = Arc::new(ModelRegistry::new());
        registry.register("default", Lhnn::new(LhnnConfig::default(), 0)).unwrap();
        let engine = ServeEngine::new(
            Arc::clone(&registry),
            EngineConfig { shards: 3, cache_capacity: 8, ..Default::default() },
        );
        let handle = engine.handle();
        assert_eq!(handle.shards(), 3);
        // distinct designs spread over the shards; every request lands on
        // a deterministic shard, so repeats always hit their own cache
        let designs: Vec<_> = (0..6).map(|s| design(40 + s, 70, 6)).collect();
        for (ops, feats) in &designs {
            let req = PredictRequest::new("default", Arc::clone(ops), Arc::clone(feats));
            assert!(!handle.predict(&req).unwrap().cached);
            assert!(handle.predict(&req).unwrap().cached, "repeat must hit the same shard");
        }
        let stats = handle.stats();
        assert_eq!(stats.requests, 12);
        assert_eq!(stats.computed, 6);
        assert_eq!(stats.per_shard.len(), 3);
        let spread: u64 = stats.per_shard.iter().map(|s| s.requests).sum();
        assert_eq!(spread, 12, "per-shard requests must sum to the aggregate");
        assert_eq!(handle.cache_len(), 6);
        assert_eq!((0..3).map(|s| handle.shard_cache_len(s)).sum::<usize>(), 6);
        // a shard that does not exist holds nothing
        assert_eq!(handle.shard_cache_len(3), 0);
        assert_eq!(handle.shard_cache_len(7), 0);
        engine.shutdown();
    }

    #[test]
    fn stateless_requests_with_a_design_id_pin_their_shard() {
        let registry = Arc::new(ModelRegistry::new());
        registry.register("default", Lhnn::new(LhnnConfig::default(), 0)).unwrap();
        let engine = ServeEngine::new(
            Arc::clone(&registry),
            EngineConfig { shards: 2, cache_capacity: 8, ..Default::default() },
        );
        let handle = engine.handle();
        let expected = handle.shard_of_design("pinned");
        // two different states of the same named design land on one shard
        for seed in [20, 21] {
            let (ops, feats) = design(seed, 80, 6);
            let req = PredictRequest::new("default", ops, feats).with_design("pinned");
            handle.predict(&req).unwrap();
        }
        assert_eq!(handle.shard_cache_len(expected), 2, "both states cached on the pinned shard");
        assert_eq!(handle.cache_len(), 2);
        engine.shutdown();
    }

    /// Regression: a hot-swap through the bare registry left the displaced
    /// version's predictions squatting in the shard LRUs — unreachable
    /// (versioned keys) but still evicting live entries. `replace_model`
    /// must reclaim them immediately, on every shard, and leave other
    /// models' entries alone.
    #[test]
    fn hot_swap_evicts_displaced_versions_cache_entries() {
        let registry = Arc::new(ModelRegistry::new());
        registry.register("default", Lhnn::new(LhnnConfig::default(), 0)).unwrap();
        registry.register("other", Lhnn::new(LhnnConfig::default(), 7)).unwrap();
        let engine = ServeEngine::new(
            Arc::clone(&registry),
            EngineConfig { shards: 2, cache_capacity: 8, ..Default::default() },
        );
        let handle = engine.handle();
        // fill both shards with predictions from both models
        for seed in 0..4 {
            let (ops, feats) = design(60 + seed, 70, 6);
            handle
                .predict(&PredictRequest::new("default", Arc::clone(&ops), Arc::clone(&feats)))
                .unwrap();
            handle.predict(&PredictRequest::new("other", ops, feats)).unwrap();
        }
        assert_eq!(handle.cache_len(), 8);
        let old = registry.get("default").unwrap().version;
        let entry = handle.replace_model("default", Lhnn::new(LhnnConfig::default(), 99)).unwrap();
        assert_ne!(entry.version, old, "swap must change the serving version");
        assert_eq!(
            handle.cache_len(),
            4,
            "displaced version evicted from every shard, other model untouched"
        );
        // the swapped-in model serves (and re-fills the cache) normally
        let (ops, feats) = design(60, 70, 6);
        let reply = handle.predict(&PredictRequest::new("default", ops, feats)).unwrap();
        assert!(!reply.cached, "old version's entry must not answer for the new weights");
        assert_eq!(handle.cache_len(), 5);
        engine.shutdown();
    }

    /// After shutdown a request fails with `ShuttingDown` even when the
    /// cache could answer it.
    #[test]
    fn shutdown_rejects_new_work() {
        let engine = engine_with_default_model(4);
        let handle = engine.handle();
        let (ops, feats) = design(5, 80, 6);
        let req = PredictRequest::new("default", ops, feats);
        handle.predict(&req).unwrap();
        assert!(handle.predict(&req).unwrap().cached, "the cache holds the state");
        engine.shutdown();
        let err = handle.predict(&req).unwrap_err();
        assert!(matches!(err, ServeError::ShuttingDown), "got {err:?}");
    }

    /// Serve-layer bug sweep: a forward that panics must cost only its own
    /// requester (`WorkerLost`) — the engine and its locks keep serving
    /// afterwards.
    #[test]
    fn panicking_forward_does_not_brick_the_engine() {
        let engine = engine_with_default_model(16);
        let handle = engine.handle();
        let (ops, feats) = design(8, 80, 6);
        // Operators whose declared node counts match the features (so
        // admission passes) but whose matrices are inconsistent: the
        // forward's dimension asserts fire on the caller's thread.
        let bad_ops = Arc::new(GraphOps {
            gnc_sum: Arc::new(CsrMatrix::empty(3, 3)),
            gnc_mean: Arc::new(CsrMatrix::empty(3, 3)),
            gcn_mean: Arc::new(CsrMatrix::empty(3, 3)),
            lattice_mean: Arc::new(CsrMatrix::empty(3, 3)),
            num_gcells: ops.num_gcells,
            num_gnets: ops.num_gnets,
        });
        let poisoned_req = PredictRequest::new("default", bad_ops, Arc::clone(&feats));
        let err = handle.predict(&poisoned_req).unwrap_err();
        assert!(matches!(err, ServeError::WorkerLost), "got {err:?}");
        // the engine is alive: the well-formed design still serves, stats
        // still snapshot, the cache still fills
        let ok = handle.predict(&PredictRequest::new("default", ops, feats)).unwrap();
        assert!(ok.prediction.cls_prob.is_finite());
        let stats = handle.stats();
        assert!(stats.requests >= 1);
        assert_eq!(handle.cache_len(), 1);
        engine.shutdown();
    }

    /// Poisoned re-derivable locks recover instead of cascading panics:
    /// deliberately poison a shard's cache mutex and confirm every surface
    /// that crosses it still works.
    #[test]
    fn poisoned_cache_mutex_recovers() {
        let engine = engine_with_default_model(4);
        let handle = engine.handle();
        let shared = Arc::clone(&handle.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.shards[0].lock().unwrap();
            panic!("poison the cache mutex");
        })
        .join();
        assert!(handle.shared.shards[0].lock().is_err(), "mutex really poisoned");
        let (ops, feats) = design(9, 80, 6);
        let ok = handle.predict(&PredictRequest::new("default", ops, feats)).unwrap();
        assert!(ok.prediction.cls_prob.is_finite());
        assert_eq!(handle.cache_len(), 1);
        assert_eq!(handle.stats().requests, 1, "stats keep counting after recovery");
        engine.shutdown();
    }
}
