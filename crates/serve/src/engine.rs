//! The inference engine: one prediction cache and one set of count cells
//! in front of the model registry. Every predict resolves on the caller's
//! thread; the engine runs no thread of its own.
//!
//! # Architecture
//!
//! ```text
//!         ServeHandle::predict          Session::predict
//!                   │                           │
//!                   └─────────┬─────────────────┘
//!                             ▼
//!         ┌────────────────────────────┐
//!         │ resolve (caller's thread)  │
//!         │ LRU cache                  │
//!         │ count cells                │
//!         └────────────────────────────┘
//! ```
//!
//! Every prediction goes through one routine: check shutdown, admit the
//! request, then `resolve` it — look the key up in the LRU cache (keyed
//! by content fingerprints) and, on a miss, run the forward and cache its
//! result. A stateless request's forward runs from scratch on the calling
//! thread's reusable [`ScratchSet`]; a session predict runs the session's
//! own bounded-radius forward, a splice over the dirty halo. Session
//! updates apply on the caller's thread too (see
//! [`crate::Session::update`]). Stateless requests and sessions share the
//! cache, so a state either of them computed answers the other. Nothing
//! waits on another caller's forward: two concurrent misses on one key
//! each compute, and the bitwise contract makes their results equal.
//!
//! Request parallelism is the caller's: each client thread runs its own
//! forwards, and their kernels run inline on that thread
//! ([`neurograd::pool::serial`]), never on the shared `neurograd` compute
//! pool's workers; the engine leaves the pool's width alone. `predict`
//! blocks the calling thread until its reply is ready. After
//! [`ServeEngine::shutdown`] (or drop) every predict, stateless or
//! session, fails with [`ServeError::ShuttingDown`]; a predict already
//! past that check finishes.
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
use lhnn_obs::{FlightEvent, FlightEventKind, Snapshot};

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
    /// Unused (default 1): the engine keeps one prediction cache. The
    /// field exists only until the benchmark, which sets it, stops doing
    /// so; it goes with `workers` (ROADMAP item 1).
    pub shards: usize,
    /// LRU prediction-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Unused (default 0): served kernels run inline on the caller's
    /// thread, and the engine leaves the shared `neurograd` pool as it
    /// is. The field exists only until the benchmark, which sets it,
    /// stops doing so; it goes with `workers` (ROADMAP item 1).
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
    /// Per-request congestion threshold applied to channel-0
    /// probabilities for [`ServeReply::congested_fraction`].
    pub threshold: f32,
}

impl PredictRequest {
    /// A request against `model` with the conventional 0.5 threshold.
    pub fn new(model: &str, ops: Arc<GraphOps>, features: Arc<FeatureSet>) -> Self {
        Self { model: model.to_string(), ops, features, threshold: 0.5 }
    }

    /// Sets the congestion threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f32) -> Self {
        self.threshold = threshold;
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
    /// The one LRU prediction cache, shared by stateless requests and
    /// sessions. The count cells live in `EngineObs::counts`.
    cache: Mutex<PredictionCache>,
    started: Instant,
    obs: EngineObs,
    /// Set by [`ServeEngine::shutdown`] and on drop; every later predict
    /// fails with [`ServeError::ShuttingDown`]. It publishes no other
    /// data, so its loads and stores are `Relaxed`.
    shutdown: AtomicBool,
}

impl Shared {
    /// Answers `key` — from the cache, or by running `forward` and caching
    /// its result — and reports whether the prediction came from the
    /// cache.
    ///
    /// Two concurrent misses on one key each run their forward; the
    /// bitwise contract makes both results equal, so the second insert
    /// replaces the first with the same bits. `forward` runs under
    /// `catch_unwind`: if it panics, a `WorkerLost` flight event is
    /// recorded and the caller gets [`ServeError::WorkerLost`].
    fn resolve(
        &self,
        entry: &ModelEntry,
        key: CacheKey,
        forward: impl FnOnce() -> Prediction,
    ) -> Result<(Arc<Prediction>, bool)> {
        let t_cache = self.obs.stage_cache.start();
        let hit = lock::recover(&self.cache).get(&key);
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
        self.obs.counts.computed.inc();
        lock::recover(&self.cache).insert(key, Arc::clone(&p));
        Ok((p, false))
    }
}

/// The engine: owns the prediction cache and the model registry; hand out
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
        f.write_str("ServeEngine")
    }
}

impl ServeEngine {
    /// Builds an engine over `registry`. No thread is started: each
    /// predict runs on its caller's thread.
    pub fn new(registry: Arc<ModelRegistry>, cfg: EngineConfig) -> Self {
        let obs = EngineObs::new(cfg.metrics);
        registry.attach_metrics(Arc::clone(&obs.registry));
        let shared = Arc::new(Shared {
            registry,
            cache: Mutex::new(PredictionCache::new(cfg.cache_capacity)),
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
        f.write_str("ServeHandle")
    }
}

impl ServeHandle {
    /// Serves one request on the caller's thread, blocking until the
    /// prediction is available: the cache answers if it can, otherwise a
    /// from-scratch forward computes and its result lands in the cache.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for unregistered names,
    /// [`ServeError::Incompatible`] when the inputs do not fit the model
    /// or a feature is NaN or infinite,
    /// [`ServeError::ShuttingDown`] once the engine shut down,
    /// [`ServeError::WorkerLost`] if the forward panicked.
    pub fn predict(&self, request: &PredictRequest) -> Result<ServeReply> {
        self.predict_here(request, |entry| {
            SCRATCH.with(|scratch| {
                scratch.borrow_mut().predict(entry.model.as_ref(), &request.ops, &request.features)
            })
        })
    }

    /// Serves `request` on the caller's thread: the one path of both
    /// [`ServeHandle::predict`] and [`crate::Session::predict`]. The cache
    /// answers if it can, otherwise `forward` (a from-scratch forward, or
    /// a session's bounded-radius one) computes, its kernels inline on
    /// this thread, and its result lands in the cache.
    pub(crate) fn predict_here(
        &self,
        request: &PredictRequest,
        forward: impl FnOnce(&ModelEntry) -> Prediction,
    ) -> Result<ServeReply> {
        let submitted = Instant::now();
        if self.shared.shutdown.load(Ordering::Relaxed) {
            return Err(ServeError::ShuttingDown);
        }
        let (entry, key) = self.admit(request)?;
        let (prediction, cached) =
            neurograd::pool::serial(|| self.shared.resolve(&entry, key, || forward(&entry)))?;
        let latency = submitted.elapsed();
        self.shared.obs.counts.record_request(latency, cached);
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

    /// A snapshot of the engine's counters and latency percentiles: a
    /// lock-free read of its registry cells.
    pub fn stats(&self) -> ServeStats {
        ServeStats::read(&self.shared.obs.counts, self.shared.started.elapsed())
    }

    /// Always 1: the engine keeps one prediction cache. Exists only until
    /// the benchmark, which calls it, stops doing so; it goes with
    /// `EngineConfig::workers` (ROADMAP item 1).
    pub fn shards(&self) -> usize {
        1
    }

    /// Always 0: the engine keeps one prediction cache. Exists only until
    /// the benchmark, which calls it, stops doing so; it goes with
    /// `EngineConfig::workers` (ROADMAP item 1).
    pub fn shard_of_design(&self, _design_id: &str) -> usize {
        0
    }

    /// Number of predictions currently cached.
    pub fn cache_len(&self) -> usize {
        lock::recover(&self.shared.cache).len()
    }

    /// The registry this engine serves from.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Hot-swaps the model registered under `name` and evicts the
    /// displaced version's predictions from the cache.
    ///
    /// The versioned cache keys make the old entries unreachable; evicting
    /// them here keeps them from squatting in the LRU, evicting live
    /// predictions until traffic ages them off.
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
        let displaced = self.shared.registry.get(name);
        let entry = self.shared.registry.replace_boxed(name, Box::new(model))?;
        if let Some(old) = displaced.filter(|old| old.version != entry.version) {
            lock::recover(&self.shared.cache).evict_model(old.version);
            self.shared.obs.flight.record(
                FlightEventKind::HotSwap,
                name,
                format!("v{} -> v{} ({})", old.version, entry.version, entry.model.kind()),
            );
        }
        Ok(entry)
    }

    /// A point-in-time snapshot of every registered series (render it with
    /// [`Snapshot::to_prometheus`] / [`Snapshot::to_json`]).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.shared.obs.registry.snapshot()
    }

    /// The flight recorder's retained events, oldest first: fallbacks,
    /// compactions, poisonings, hot-swaps and panicked forwards (bounded
    /// ring — newest win).
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

    /// Regression: a hot-swap through the bare registry left the displaced
    /// version's predictions squatting in the LRU — unreachable (versioned
    /// keys) but still evicting live entries. `replace_model` must reclaim
    /// them immediately and leave other models' entries alone.
    #[test]
    fn hot_swap_evicts_displaced_versions_cache_entries() {
        let registry = Arc::new(ModelRegistry::new());
        registry.register("default", Lhnn::new(LhnnConfig::default(), 0)).unwrap();
        registry.register("other", Lhnn::new(LhnnConfig::default(), 7)).unwrap();
        let engine = ServeEngine::new(
            Arc::clone(&registry),
            EngineConfig { cache_capacity: 8, ..Default::default() },
        );
        let handle = engine.handle();
        // fill the cache with predictions from both models
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
        assert_eq!(handle.cache_len(), 4, "displaced version evicted, other model untouched");
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
    /// deliberately poison the cache mutex and confirm every surface
    /// that crosses it still works.
    #[test]
    fn poisoned_cache_mutex_recovers() {
        let engine = engine_with_default_model(4);
        let handle = engine.handle();
        let shared = Arc::clone(&handle.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.cache.lock().unwrap();
            panic!("poison the cache mutex");
        })
        .join();
        assert!(handle.shared.cache.lock().is_err(), "mutex really poisoned");
        let (ops, feats) = design(9, 80, 6);
        let ok = handle.predict(&PredictRequest::new("default", ops, feats)).unwrap();
        assert!(ok.prediction.cls_prob.is_finite());
        assert_eq!(handle.cache_len(), 1);
        assert_eq!(handle.stats().requests, 1, "stats keep counting after recovery");
        engine.shutdown();
    }
}
