//! The inference engine: a front over N shards, each with its own
//! bounded request queue, worker-pool slice, prediction cache and count
//! cells.
//!
//! # Architecture
//!
//! ```text
//!                      ServeHandle::predict / Session
//!                                  │ stable hash: design → shard
//!            ┌─────────────────────┼─────────────────────┐
//!            ▼                     ▼                     ▼
//!         shard 0               shard 1      …        shard N-1
//!   ┌───────────────┐    ┌───────────────┐
//!   │ bounded queue │    │ bounded queue │   (predict jobs AND pipelined
//!   │ worker slice  │    │ worker slice  │    session-update jobs)
//!   │ LRU cache     │    │ LRU cache     │
//!   │ single-flight │    │ single-flight │
//!   │ count cells   │    │ count cells   │
//!   └───────────────┘    └───────────────┘
//! ```
//!
//! Sharding gives many concurrent placement loops isolation: a hot design
//! hammering one shard cannot evict another design's cache entries or
//! monopolise the other shards' workers, because requests route by a
//! *stable* hash of the design's identity (sessions and
//! [`PredictRequest::with_design`]: the design id; anonymous stateless
//! requests: the operator fingerprint, which keeps repeats of one state
//! on one shard but spreads a design's successive states) — the same
//! state always lands on the same shard, so single-flight deduplication
//! still works.
//!
//! Within a shard the PR-2 machinery is unchanged: a bounded queue
//! (backpressure when full) drained in micro-batches by long-lived
//! workers, identical in-flight requests deduplicated to one forward, an
//! LRU prediction cache keyed by content fingerprints. Workers also
//! service pipelined session updates (see [`crate::Session`]) from the
//! same queue, so one pool drives both halves of a placement loop.
//!
//! Requests are answered synchronously: `predict` blocks the calling
//! thread until its reply arrives. Shutdown is cooperative — workers
//! drain the queue they were handed and exit; unserved requests observe
//! [`ServeError::ShuttingDown`] / [`ServeError::WorkerLost`].
//!
//! Lock discipline: every engine lock guards re-derivable state and
//! recovers from poisoning (see [`crate::lock`]); a panicking forward is
//! caught, its requester observes [`ServeError::WorkerLost`], and the
//! engine keeps serving.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lh_graph::FeatureSet;
use lhnn::{
    CongestionModel, GraphOps, IncrementalForward, InvalidationCause, Prediction, ScratchSet,
};
use lhnn_obs::{FlightEvent, FlightEventKind, Registry, Snapshot};
use neurograd::{Fnv64, Matrix};

use crate::cache::{CacheKey, PredictionCache};
use crate::error::{Result, ServeError};
use crate::lock;
use crate::observability::{EngineObs, ShardObs};
use crate::registry::{ModelEntry, ModelRegistry};
use crate::session::SessionCore;
use crate::stats::ServeStats;

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads executing forwards, divided across the shards
    /// (default: available parallelism). Raised to `shards` if smaller, so
    /// every shard owns at least one worker.
    pub workers: usize,
    /// Independent shards (default 1). Each shard has its own queue,
    /// worker slice, prediction cache and count cells; designs map to shards by
    /// a stable hash, so one hot design cannot evict another design's
    /// cache entries or monopolise all workers.
    pub shards: usize,
    /// Maximum queued (accepted, unserved) requests **per shard** before
    /// submitters block — the backpressure bound.
    pub queue_depth: usize,
    /// Maximum jobs a worker drains per wake-up (micro-batch size).
    pub max_batch: usize,
    /// LRU prediction-cache capacity in entries **per shard** (0 disables
    /// caching).
    pub cache_capacity: usize,
    /// Intra-op compute threads: 0 (default) leaves the shared
    /// `neurograd` pool as configured; a positive value rebuilds it with
    /// that many lanes when the engine starts.
    ///
    /// All workers *share* one compute pool rather than each assuming a
    /// serial forward: a worker's forward fans its kernels out across the
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
        Self {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            shards: 1,
            queue_depth: 256,
            max_batch: 8,
            cache_capacity: 128,
            compute_threads: 0,
            metrics: true,
        }
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
    /// repeats of the *same state* still meet their cache and
    /// single-flight entries, but successive states of one design spread
    /// across shards.
    pub design: Option<String>,
    /// Per-request congestion threshold applied to channel-0
    /// probabilities for [`ServeReply::congested_fraction`].
    pub threshold: f32,
    /// Session-owned bounded-radius forward state plus the note-sequence
    /// snapshot matching `(ops, features)`. When set, a worker that must
    /// compute (cache miss) runs [`IncrementalForward::predict`] — a halo
    /// splice over the dirty region when the cached activations allow it —
    /// instead of a from-scratch forward. Results are bitwise identical
    /// either way, so the fingerprint-keyed cache stays coherent.
    pub(crate) incremental: Option<(Arc<IncrementalForward>, u64)>,
}

impl PredictRequest {
    /// A request against `model` with the conventional 0.5 threshold.
    pub fn new(model: &str, ops: Arc<GraphOps>, features: Arc<FeatureSet>) -> Self {
        Self {
            model: model.to_string(),
            ops,
            features,
            design: None,
            threshold: 0.5,
            incremental: None,
        }
    }

    /// Attaches a session's incremental-forward state (see the field doc).
    #[must_use]
    pub(crate) fn with_incremental(mut self, incr: Arc<IncrementalForward>, seq: u64) -> Self {
        self.incremental = Some((incr, seq));
        self
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
    /// The prediction (shared with the cache and concurrent requesters).
    pub prediction: Arc<Prediction>,
    /// Whether the prediction came from the cache or from deduplication
    /// against an identical in-flight request (no forward was run for it).
    pub cached: bool,
    /// Fraction of G-cells whose channel-0 congestion probability meets
    /// the request's threshold.
    pub congested_fraction: f64,
    /// Submission-to-reply latency as measured by the engine.
    pub latency: Duration,
}

struct PredictJob {
    entry: Arc<ModelEntry>,
    ops: Arc<GraphOps>,
    features: Arc<FeatureSet>,
    key: CacheKey,
    threshold: f32,
    submitted: Instant,
    /// Queue-stage span token: set at admission when metrics are on,
    /// closed when a worker drains the job (`None` skips both clock reads).
    enqueued: Option<Instant>,
    reply: mpsc::Sender<ServeReply>,
    incremental: Option<(Arc<IncrementalForward>, u64)>,
}

/// One unit of shard work: an inference request, or a nudge to drain a
/// pipelined session's pending placement deltas.
enum Job {
    Predict(PredictJob),
    Session(Arc<SessionCore>),
}

struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Single-flight marker: the first worker to claim a key computes; every
/// concurrent worker with the same key waits for the result instead of
/// duplicating the forward pass.
#[derive(Default)]
struct InFlight {
    done: Mutex<InFlightState>,
    cv: Condvar,
}

#[derive(Default, Clone)]
enum InFlightState {
    /// The owner is still computing.
    #[default]
    Pending,
    /// The owner finished; the shared result is here.
    Done(Arc<Prediction>),
    /// The owner's forward panicked; waiters must compute for themselves.
    Abandoned,
}

/// One shard: queue, cache and single-flight map, isolated from every
/// other shard. Its count cells live in `EngineObs::shards`.
struct Shard {
    queue: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    cache: Mutex<PredictionCache>,
    in_flight: Mutex<HashMap<CacheKey, Arc<InFlight>>>,
}

impl Shard {
    fn new(cache_capacity: usize) -> Self {
        Self {
            queue: Mutex::new(QueueState { jobs: VecDeque::new(), shutdown: false }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cache: Mutex::new(PredictionCache::new(cache_capacity)),
            in_flight: Mutex::new(HashMap::new()),
        }
    }
}

pub(crate) struct Shared {
    registry: Arc<ModelRegistry>,
    cfg: EngineConfig,
    shards: Vec<Shard>,
    workers_per_shard: Vec<usize>,
    started: Instant,
    obs: EngineObs,
    /// Weak handles to every open session's incremental-forward state,
    /// tagged with the model name it serves with. [`ServeHandle::replace_model`]
    /// walks this on a cross-kind (or cross-channel-count) hot-swap to
    /// invalidate activation caches that the new architecture cannot
    /// splice against; dead weaks are pruned on each walk.
    session_incrs: Mutex<Vec<(String, std::sync::Weak<IncrementalForward>)>>,
}

/// The engine: owns the sharded worker pool; hand out [`ServeHandle`]s to
/// use it.
///
/// Dropping (or [`ServeEngine::shutdown`]) stops the workers; requests
/// still queued are abandoned and their submitters receive
/// [`ServeError::WorkerLost`], new submissions [`ServeError::ShuttingDown`].
pub struct ServeEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ServeEngine({} workers over {} shards)",
            self.workers.len(),
            self.shared.shards.len()
        )
    }
}

/// Splits `workers` across `shards`, front-loading the remainder, with
/// every shard guaranteed at least one worker.
fn partition_workers(workers: usize, shards: usize) -> Vec<usize> {
    let shards = shards.max(1);
    let workers = workers.max(shards);
    let base = workers / shards;
    let rem = workers % shards;
    (0..shards).map(|i| base + usize::from(i < rem)).collect()
}

impl ServeEngine {
    /// Starts the worker pool over `registry`: `cfg.shards` shards, with
    /// `cfg.workers` long-lived worker threads divided among them (every
    /// shard gets at least one).
    ///
    /// With `cfg.compute_threads > 0` the shared intra-op compute pool is
    /// rebuilt to that width first (process-wide — see
    /// [`neurograd::pool::configure_threads`]).
    pub fn new(registry: Arc<ModelRegistry>, cfg: EngineConfig) -> Self {
        if cfg.compute_threads > 0 {
            neurograd::pool::configure_threads(cfg.compute_threads);
        }
        let workers_per_shard = partition_workers(cfg.workers.max(1), cfg.shards.max(1));
        let shards: Vec<Shard> =
            workers_per_shard.iter().map(|_| Shard::new(cfg.cache_capacity)).collect();
        let obs = EngineObs::new(cfg.metrics, shards.len());
        registry.attach_metrics(Arc::clone(&obs.registry));
        let shared = Arc::new(Shared {
            registry,
            shards,
            workers_per_shard,
            started: Instant::now(),
            obs,
            cfg,
            session_incrs: Mutex::new(Vec::new()),
        });
        let mut workers = Vec::new();
        for (shard_idx, &n) in shared.workers_per_shard.iter().enumerate() {
            for lane in 0..n {
                let shared = Arc::clone(&shared);
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("lhnn-serve-{shard_idx}-{lane}"))
                        .spawn(move || worker_loop(&shared, shard_idx))
                        .expect("spawn worker"),
                );
            }
        }
        Self { shared, workers }
    }

    /// A convenience engine with default tuning but an explicit thread
    /// count (the knob benchmarks sweep).
    pub fn with_workers(registry: Arc<ModelRegistry>, workers: usize) -> Self {
        Self::new(registry, EngineConfig { workers, ..EngineConfig::default() })
    }

    /// A convenience engine with `shards` shards and one worker per shard.
    pub fn with_shards(registry: Arc<ModelRegistry>, shards: usize) -> Self {
        Self::new(registry, EngineConfig { workers: shards, shards, ..EngineConfig::default() })
    }

    /// A cloneable client handle.
    pub fn handle(&self) -> ServeHandle {
        ServeHandle { shared: Arc::clone(&self.shared) }
    }

    /// Stops accepting work, wakes every worker and joins them.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        for shard in &self.shared.shards {
            let mut q = lock::recover(&shard.queue);
            q.shutdown = true;
            // Abandoned predict jobs: dropping them closes their reply
            // channels, so blocked submitters observe WorkerLost rather
            // than hanging. Session jobs are just nudges — their pending
            // deltas stay with the session, whose ticket-wait drains them
            // inline, so pipelined updates survive engine shutdown.
            q.jobs.clear();
            drop(q);
            shard.not_empty.notify_all();
            shard.not_full.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.stop_and_join();
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
    /// Serves one request, blocking until the prediction is available.
    ///
    /// Routing: a request carrying a design id
    /// ([`PredictRequest::with_design`]) goes to that design's shard —
    /// the same per-design affinity sessions get. Without one, the shard
    /// is a stable hash of the operator fingerprint: repeats of the same
    /// state always meet their own cache and single-flight entries, but
    /// successive states of an anonymous design spread across shards, so
    /// pass a design id when one placement loop should stay isolated.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for unregistered names,
    /// [`ServeError::Incompatible`] when the inputs do not fit the model
    /// or a feature is NaN or infinite,
    /// [`ServeError::ShuttingDown`] / [`ServeError::WorkerLost`] around
    /// engine shutdown.
    pub fn predict(&self, request: &PredictRequest) -> Result<ServeReply> {
        self.predict_on_shard(self.shard_of_request(request), request)
    }

    /// The shard a request routes to: its design id when it has one, the
    /// operator fingerprint otherwise.
    fn shard_of_request(&self, request: &PredictRequest) -> usize {
        match &request.design {
            Some(design) => self.shard_of_design(design),
            None => self.shard_of_ops_fingerprint(request.ops.fingerprint()),
        }
    }

    /// Serves one request on an explicit shard (sessions pin their design's
    /// shard so updates and predictions share a worker slice and cache).
    pub(crate) fn predict_on_shard(
        &self,
        shard_idx: usize,
        request: &PredictRequest,
    ) -> Result<ServeReply> {
        let submitted = Instant::now();
        let (entry, key) = self.admit(request)?;
        let shard_idx = shard_idx.min(self.shared.shards.len() - 1);
        let shard = &self.shared.shards[shard_idx];
        // Fast path: answer from the shard's cache without touching the
        // queue. (The guard is scoped to the lookup — never held across
        // other locks.)
        let t_cache = self.shared.obs.stage_cache.start();
        let hit = lock::recover(&shard.cache).get(&key);
        self.shared.obs.stage_cache.stop_us(t_cache);
        if let Some(hit) = hit {
            let latency = submitted.elapsed();
            record_request(
                &self.shared.obs.shards[shard_idx],
                request.incremental.as_ref(),
                latency,
                true,
            );
            return Ok(reply_from(hit, true, request.threshold, latency));
        }
        let rx = self.enqueue(shard_idx, entry, request, key, submitted)?;
        rx.recv().map_err(|_| ServeError::WorkerLost)
    }

    /// Serves many requests, keeping all of them in flight at once
    /// (across their designs' shards).
    ///
    /// Replies come back in request order; each slot fails independently
    /// (one unknown model does not sink the batch).
    pub fn predict_batch(&self, requests: &[PredictRequest]) -> Vec<Result<ServeReply>> {
        let submitted = Instant::now();
        // Phase 1: admit + enqueue everything (cache hits answered inline).
        let pending: Vec<Result<PendingReply>> = requests
            .iter()
            .map(|request| {
                let (entry, key) = self.admit(request)?;
                let shard_idx = self.shard_of_request(request);
                let shard = &self.shared.shards[shard_idx];
                let t_cache = self.shared.obs.stage_cache.start();
                let hit = lock::recover(&shard.cache).get(&key);
                self.shared.obs.stage_cache.stop_us(t_cache);
                if let Some(hit) = hit {
                    let latency = submitted.elapsed();
                    let cells = &self.shared.obs.shards[shard_idx];
                    record_request(cells, request.incremental.as_ref(), latency, true);
                    return Ok(PendingReply::Ready(reply_from(
                        hit,
                        true,
                        request.threshold,
                        latency,
                    )));
                }
                let rx = self.enqueue(shard_idx, Arc::clone(&entry), request, key, submitted)?;
                Ok(PendingReply::InFlight(rx))
            })
            .collect();
        // Phase 2: collect in order.
        pending
            .into_iter()
            .map(|p| match p {
                Ok(PendingReply::Ready(r)) => Ok(r),
                Ok(PendingReply::InFlight(rx)) => rx.recv().map_err(|_| ServeError::WorkerLost),
                Err(e) => Err(e),
            })
            .collect()
    }

    /// A snapshot of the engine's counters and latency percentiles,
    /// aggregated across shards ([`ServeStats::per_shard`] has the
    /// breakdown): a lock-free read of the shards' registry cells.
    pub fn stats(&self) -> ServeStats {
        let shared = &self.shared;
        ServeStats::read(&shared.obs.shards, &shared.workers_per_shard, shared.started.elapsed())
    }

    /// Number of engine worker threads (across all shards).
    pub fn workers(&self) -> usize {
        self.shared.workers_per_shard.iter().sum()
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

    /// Width of the shared intra-op compute pool the workers' forwards fan
    /// out over (the process-wide `neurograd` pool).
    pub fn compute_threads(&self) -> usize {
        neurograd::pool::current_threads()
    }

    /// Number of predictions currently cached, across all shards.
    pub fn cache_len(&self) -> usize {
        self.shared.shards.iter().map(|s| lock::recover(&s.cache).len()).sum()
    }

    /// Number of predictions cached on one shard.
    pub fn shard_cache_len(&self, shard: usize) -> usize {
        lock::recover(&self.shared.shards[shard.min(self.shared.shards.len() - 1)].cache).len()
    }

    /// Drops every cached prediction on every shard.
    pub fn clear_cache(&self) {
        for s in &self.shared.shards {
            lock::recover(&s.cache).clear();
        }
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
    /// The replacement may be a **different architecture**: displaced
    /// cache entries are evicted either way, and when the kind (or the
    /// output channel count) changes, every open session serving `name`
    /// has its incremental-forward activation cache invalidated too — a
    /// spliced forward against the old architecture's activations would
    /// be garbage under the new one.
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
        if let Some(old) = displaced {
            if old.version != entry.version {
                for s in &self.shared.shards {
                    lock::recover(&s.cache).evict_model(old.version);
                }
                self.shared.obs.flight.record(
                    FlightEventKind::HotSwap,
                    name,
                    format!("v{} -> v{} ({})", old.version, entry.version, entry.model.kind()),
                );
            }
            if old.model.kind() != entry.model.kind()
                || old.model.channels() != entry.model.channels()
            {
                let mut incrs = lock::recover(&self.shared.session_incrs);
                incrs.retain(|(session_model, weak)| match weak.upgrade() {
                    Some(incr) => {
                        if session_model == name {
                            incr.note_structural(InvalidationCause::DimChange);
                        }
                        true
                    }
                    None => false,
                });
            }
        }
        Ok(entry)
    }

    /// Shard `shard_idx`'s `lhnn_session_updates_total` cell: where a
    /// session pinned to that shard counts each update it applies.
    pub(crate) fn session_update_sinks(&self, shard_idx: usize) -> lhnn_obs::Counter {
        let cells = &self.shared.obs.shards;
        cells[shard_idx.min(cells.len() - 1)].session_updates.clone()
    }

    /// Records a session's incremental-forward state so cross-kind
    /// hot-swaps of its model can invalidate it (weakly held — a closed
    /// session just drops off the list).
    pub(crate) fn register_session_incr(&self, model: &str, incr: &Arc<IncrementalForward>) {
        lock::recover(&self.shared.session_incrs).push((model.to_string(), Arc::downgrade(incr)));
    }

    /// The engine's metrics registry: counters, gauges and stage/latency
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
    /// poisonings, wedges, hot-swaps, queue-depth high-water marks and
    /// worker losses (bounded ring — newest win).
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

    /// Enqueues a session-drain nudge on `shard_idx`, blocking on the
    /// shard's backpressure bound.
    pub(crate) fn enqueue_session(&self, shard_idx: usize, core: Arc<SessionCore>) -> Result<()> {
        self.push_job(shard_idx.min(self.shared.shards.len() - 1), Job::Session(core))
    }

    /// The one queue-admission path every job kind goes through: wait out
    /// the shard's backpressure bound, refuse on shutdown, push, wake a
    /// worker. Tracks the engine-wide queue-depth high-water mark and logs
    /// a flight event the first time a new high reaches a full micro-batch.
    fn push_job(&self, shard_idx: usize, job: Job) -> Result<()> {
        let shard = &self.shared.shards[shard_idx];
        let mut q = lock::recover(&shard.queue);
        while q.jobs.len() >= self.shared.cfg.queue_depth.max(1) {
            if q.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            q = shard.not_full.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        if q.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        q.jobs.push_back(job);
        let depth = q.jobs.len() as u64;
        drop(q);
        if self.shared.obs.queue_depth_high.record_max(depth)
            && depth >= self.shared.cfg.max_batch.max(1) as u64
        {
            self.shared.obs.flight.record(
                FlightEventKind::QueueHigh,
                &format!("shard {shard_idx}"),
                format!("depth {depth}"),
            );
        }
        shard.not_empty.notify_one();
        Ok(())
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

    fn enqueue(
        &self,
        shard_idx: usize,
        entry: Arc<ModelEntry>,
        request: &PredictRequest,
        key: CacheKey,
        submitted: Instant,
    ) -> Result<mpsc::Receiver<ServeReply>> {
        let (tx, rx) = mpsc::channel();
        let job = PredictJob {
            entry,
            ops: Arc::clone(&request.ops),
            features: Arc::clone(&request.features),
            key,
            threshold: request.threshold,
            submitted,
            enqueued: self.shared.obs.stage_queue.start(),
            reply: tx,
            incremental: request.incremental.as_ref().map(|(i, s)| (Arc::clone(i), *s)),
        };
        self.push_job(shard_idx, Job::Predict(job))?;
        Ok(rx)
    }
}

enum PendingReply {
    Ready(ServeReply),
    InFlight(mpsc::Receiver<ServeReply>),
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

fn worker_loop(shared: &Shared, shard_idx: usize) {
    let shard = &shared.shards[shard_idx];
    let cells = &shared.obs.shards[shard_idx];
    // One scratch slot per model kind, lazily created: a long-lived worker
    // serves a mixed model zoo with zero steady-state allocation.
    let mut scratch = ScratchSet::new();
    loop {
        let batch: Vec<Job> = {
            let mut q = lock::recover(&shard.queue);
            loop {
                if !q.jobs.is_empty() {
                    break;
                }
                if q.shutdown {
                    return;
                }
                q = shard.not_empty.wait(q).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            let n = q.jobs.len().min(shared.cfg.max_batch.max(1));
            let batch = q.jobs.drain(..n).collect();
            drop(q);
            shard.not_full.notify_all();
            batch
        };
        // Batch-size stats count only inference jobs — session nudges are
        // control messages, not batched forwards. Queue-wait spans close
        // here, at pickup, for the whole batch at once — closing them as
        // each job is processed would bill earlier jobs' forwards to later
        // jobs' queue time.
        let predict_jobs = batch.iter().filter(|j| matches!(j, Job::Predict(_))).count();
        if predict_jobs > 0 {
            cells.batch_jobs.observe(predict_jobs as u64);
            for job in &batch {
                if let Job::Predict(j) = job {
                    shared.obs.stage_queue.stop_us(j.enqueued);
                }
            }
        }
        // Same-key predict jobs in the batch share one forward pass. Lock
        // scopes are kept explicit: the cache guard must be released
        // before the (long) forward pass and before any other lock is
        // taken. Jobs whose key is owned by ANOTHER worker are deferred to
        // the end of the batch so a slow peer never head-of-line-blocks
        // work this worker could run immediately. Stateless jobs this
        // worker owns are deferred too — to the grouping pass, where
        // same-shape requests for one model fuse into a single
        // block-diagonal forward. Session jobs drain their session's
        // pending deltas in submission order, in place.
        let mut local: HashMap<CacheKey, Arc<Prediction>> = HashMap::new();
        let mut owned: Vec<(PredictJob, Arc<InFlight>)> = Vec::new();
        let mut deferred: Vec<(PredictJob, Arc<InFlight>)> = Vec::new();
        for job in batch {
            let job = match job {
                Job::Session(core) => {
                    // Non-blocking: parking this worker on one session's
                    // state mutex would head-of-line-block every other
                    // design on the shard (inline drains keep liveness).
                    if !core.service_nonblocking() {
                        // Lock busy with deltas still pending: the holder
                        // may not re-drain, so keep the nudge alive (we
                        // just freed this queue slot, so no backpressure
                        // wait) and let go of the CPU — the holder likely
                        // needs it to finish.
                        let mut q = lock::recover(&shard.queue);
                        if !q.shutdown {
                            q.jobs.push_back(Job::Session(core));
                        }
                        drop(q);
                        std::thread::yield_now();
                    }
                    continue;
                }
                Job::Predict(job) => job,
            };
            let in_batch = local.get(&job.key).map(Arc::clone);
            let (prediction, cached) = if let Some(p) = in_batch {
                (p, true)
            } else {
                // Another worker (or an earlier batch) may have filled the
                // cache since the submitter's fast-path miss.
                let t_cache = shared.obs.stage_cache.start();
                let from_cache = lock::recover(&shard.cache).get(&job.key);
                shared.obs.stage_cache.stop_us(t_cache);
                if let Some(p) = from_cache {
                    local.insert(job.key, Arc::clone(&p));
                    (p, true)
                } else {
                    // Single-flight: the first claimant computes;
                    // concurrent claimants wait for its result (after
                    // finishing the rest of their own batch).
                    match claim_key(shard, job.key) {
                        Ok(marker) => {
                            if job.incremental.is_none() {
                                // Stateless and owned: hold it for the
                                // grouping pass below, which may fuse it
                                // with other designs' requests into one
                                // block-diagonal forward. (A later
                                // same-key job in this batch claims Err
                                // on OUR marker and waits in the final
                                // pass, which runs after every group
                                // marker is published.)
                                owned.push((job, marker));
                                continue;
                            }
                            // Incremental forwards splice against one
                            // session's cached activations — they cannot
                            // share a dispatch, so compute in place.
                            match compute_owned(shared, shard_idx, &job, &marker, &mut scratch) {
                                Some((p, cached)) => {
                                    local.insert(job.key, Arc::clone(&p));
                                    (p, cached)
                                }
                                // Forward panicked: marker cleaned up, reply
                                // dropped (requester sees WorkerLost), worker
                                // keeps serving.
                                None => continue,
                            }
                        }
                        Err(marker) => {
                            deferred.push((job, marker));
                            continue;
                        }
                    }
                }
            };
            send_reply(cells, &job, prediction, cached);
        }
        // Second pass: cross-design batching. Owned stateless jobs group
        // by model identity and graph shape (first-seen order); each
        // group of two or more runs as ONE block-diagonal forward,
        // singletons fall back to the plain single-design path. Every
        // marker is published (Done or Abandoned) here, BEFORE the
        // deferred-waits pass — a deferred job waiting on one of OUR
        // markers must not deadlock.
        let mut groups: Vec<((usize, usize, usize), Vec<(PredictJob, Arc<InFlight>)>)> = Vec::new();
        for (job, marker) in owned {
            // Same entry Arc ⇒ same model + version; rows key the block
            // shapes (gnet is already padded to `num_gnets.max(1)` rows,
            // consistently with the operator shapes).
            let key = (
                Arc::as_ptr(&job.entry) as usize,
                job.features.gcell.rows(),
                job.features.gnet.rows(),
            );
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, g)) => g.push((job, marker)),
                None => groups.push((key, vec![(job, marker)])),
            }
        }
        for (_, group) in groups {
            compute_batched(shared, shard_idx, group, &mut scratch);
        }
        // Final pass: resolve waits on keys owned by other workers.
        for (job, first_marker) in deferred {
            let mut marker = first_marker;
            loop {
                let state = {
                    let mut done = lock::recover(&marker.done);
                    while matches!(*done, InFlightState::Pending) {
                        done =
                            marker.cv.wait(done).unwrap_or_else(std::sync::PoisonError::into_inner);
                    }
                    done.clone()
                };
                match state {
                    InFlightState::Done(p) => {
                        send_reply(cells, &job, p, true);
                        break;
                    }
                    InFlightState::Abandoned => {
                        // The owner's forward panicked on ITS inputs (only
                        // key-equal to ours); retry the claim protocol.
                        // compute_owned re-checks the cache after claiming.
                        match claim_key(shard, job.key) {
                            Ok(m) => {
                                if let Some((p, cached)) =
                                    compute_owned(shared, shard_idx, &job, &m, &mut scratch)
                                {
                                    send_reply(cells, &job, p, cached);
                                }
                                break;
                            }
                            // another worker re-claimed first: wait on it
                            Err(m) => marker = m,
                        }
                    }
                    InFlightState::Pending => unreachable!("waited out of Pending above"),
                }
            }
        }
    }
}

/// Claims `key` in the shard's single-flight map: `Ok` hands the caller
/// ownership (it must publish via `compute_owned`), `Err` returns the
/// current owner's marker to wait on.
fn claim_key(shard: &Shard, key: CacheKey) -> std::result::Result<Arc<InFlight>, Arc<InFlight>> {
    let mut map = lock::recover(&shard.in_flight);
    match map.get(&key) {
        Some(m) => Err(Arc::clone(m)),
        None => {
            let m = Arc::new(InFlight::default());
            map.insert(key, Arc::clone(&m));
            Ok(m)
        }
    }
}

/// Resolves the forward for a claimed key, publishing the result to the
/// shard's cache and the single-flight marker. The cache is re-checked
/// first — another worker may have finished (and unclaimed) this key
/// between the caller's miss and its claim — so the returned flag reports
/// whether the prediction was cached. Returns `None` (after unclaiming
/// the key and waking waiters) if the forward panics, so one malformed
/// request cannot wedge the pool — see `ServeError::WorkerLost`.
fn compute_owned(
    shared: &Shared,
    shard_idx: usize,
    job: &PredictJob,
    marker: &Arc<InFlight>,
    scratch: &mut ScratchSet,
) -> Option<(Arc<Prediction>, bool)> {
    let shard = &shared.shards[shard_idx];
    let recheck = lock::recover(&shard.cache).get(&job.key);
    let outcome = match recheck {
        Some(p) => Ok((p, true)),
        None => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // A session attaches its bounded-radius forward state: splice
            // over the dirty halo when possible (bitwise identical to the
            // from-scratch path, so the fingerprint cache stays coherent).
            let p = match &job.incremental {
                Some((inc, seq)) => {
                    inc.predict(
                        job.entry.model.as_ref(),
                        job.entry.version,
                        &job.ops,
                        &job.features,
                        *seq,
                    )
                    .0
                }
                None => scratch.predict(job.entry.model.as_ref(), &job.ops, &job.features),
            };
            (Arc::new(p), false)
        })),
    };
    let (result, state) = match outcome {
        Ok((p, cached)) => {
            if !cached {
                shared.obs.shards[shard_idx].computed.inc();
                // cache before unmarking, so latecomers that miss the
                // marker hit the cache
                lock::recover(&shard.cache).insert(job.key, Arc::clone(&p));
            }
            (Some((Arc::clone(&p), cached)), InFlightState::Done(p))
        }
        Err(_) => {
            shared.obs.flight.record(
                FlightEventKind::WorkerLost,
                &job.entry.name,
                format!("forward panicked (model v{})", job.entry.version),
            );
            (None, InFlightState::Abandoned)
        }
    };
    lock::recover(&shard.in_flight).remove(&job.key);
    *lock::recover(&marker.done) = state;
    marker.cv.notify_all();
    result
}

/// Unclaims a key and publishes its single-flight outcome to waiters.
fn publish(shard: &Shard, key: CacheKey, marker: &Arc<InFlight>, state: InFlightState) {
    lock::recover(&shard.in_flight).remove(&key);
    *lock::recover(&marker.done) = state;
    marker.cv.notify_all();
}

/// Runs one group of owned, stateless, shape-compatible predict jobs as a
/// single block-diagonal forward: operators stack via
/// [`GraphOps::block_diag`], features stack by rows, and the batched
/// output rows split back per design. Dense layers are row-local and the
/// stacked sparse operators give each block's rows exactly that block's
/// entries (shifted columns, same order), so every per-request result is
/// **bitwise identical** to its individual forward — caches stay coherent
/// across batched and unbatched executions of the same state.
///
/// Accounting is per request: each member still records `computed` (its
/// forward really ran, fused into the dispatch), publishes its own
/// single-flight marker and caches under its own key; the group adds one
/// `lhnn_batched_forward_jobs` observation. A panic abandons every member's marker
/// (requesters see `WorkerLost`), mirroring `compute_owned`.
fn compute_batched(
    shared: &Shared,
    shard_idx: usize,
    group: Vec<(PredictJob, Arc<InFlight>)>,
    scratch: &mut ScratchSet,
) {
    let (shard, cells) = (&shared.shards[shard_idx], &shared.obs.shards[shard_idx]);
    // Per-job cache recheck (same race as `compute_owned`: another worker
    // may have computed and unclaimed a key between our miss and our
    // claim): publish hits immediately, batch only the remainder.
    let mut pending: Vec<(PredictJob, Arc<InFlight>)> = Vec::with_capacity(group.len());
    for (job, marker) in group {
        match lock::recover(&shard.cache).get(&job.key) {
            Some(p) => {
                publish(shard, job.key, &marker, InFlightState::Done(Arc::clone(&p)));
                send_reply(cells, &job, p, true);
            }
            None => pending.push((job, marker)),
        }
    }
    if pending.len() < 2 {
        // Nothing to fuse: the plain single-design path.
        if let Some((job, marker)) = pending.pop() {
            if let Some((p, cached)) = compute_owned(shared, shard_idx, &job, &marker, scratch) {
                send_reply(cells, &job, p, cached);
            }
        }
        return;
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let ops: Vec<&GraphOps> = pending.iter().map(|(j, _)| j.ops.as_ref()).collect();
        let block_ops = GraphOps::block_diag(&ops);
        let feats = FeatureSet {
            gcell: vstack(pending.iter().map(|(j, _)| &j.features.gcell)),
            gnet: vstack(pending.iter().map(|(j, _)| &j.features.gnet)),
        };
        let batched = scratch.predict(pending[0].0.entry.model.as_ref(), &block_ops, &feats);
        split_rows(&batched, pending.iter().map(|(j, _)| j.features.gcell.rows()))
    }));
    match outcome {
        Ok(parts) => {
            cells.batched_forward_jobs.observe(pending.len() as u64);
            for ((job, marker), p) in pending.into_iter().zip(parts) {
                let p = Arc::new(p);
                cells.computed.inc();
                // cache before unmarking, so latecomers that miss the
                // marker hit the cache
                lock::recover(&shard.cache).insert(job.key, Arc::clone(&p));
                publish(shard, job.key, &marker, InFlightState::Done(Arc::clone(&p)));
                send_reply(cells, &job, p, false);
            }
        }
        Err(_) => {
            for (job, marker) in pending {
                shared.obs.flight.record(
                    FlightEventKind::WorkerLost,
                    &job.entry.name,
                    format!("batched forward panicked (model v{})", job.entry.version),
                );
                publish(shard, job.key, &marker, InFlightState::Abandoned);
            }
        }
    }
}

/// Stacks equal-width matrices by rows.
fn vstack<'a>(blocks: impl Iterator<Item = &'a Matrix>) -> Matrix {
    let blocks: Vec<&Matrix> = blocks.collect();
    let cols = blocks[0].cols();
    let rows: usize = blocks.iter().map(|b| b.rows()).sum();
    let mut data = Vec::with_capacity(rows * cols);
    for b in &blocks {
        assert_eq!(b.cols(), cols, "vstack requires equal column counts");
        data.extend_from_slice(b.as_slice());
    }
    Matrix::from_vec(rows, cols, data).expect("vstack shape")
}

/// Splits a batched prediction back into per-design predictions by
/// consecutive G-cell row counts.
fn split_rows(batched: &Prediction, row_counts: impl Iterator<Item = usize>) -> Vec<Prediction> {
    let ch = batched.cls_prob.cols();
    let mut offset = 0;
    row_counts
        .map(|n| {
            let cls = batched.cls_prob.as_slice()[offset * ch..(offset + n) * ch].to_vec();
            let reg = batched.reg.as_slice()[offset * ch..(offset + n) * ch].to_vec();
            offset += n;
            Prediction {
                cls_prob: Matrix::from_vec(n, ch, cls).expect("split shape"),
                reg: Matrix::from_vec(n, ch, reg).expect("split shape"),
            }
        })
        .collect()
}

fn send_reply(cells: &ShardObs, job: &PredictJob, prediction: Arc<Prediction>, cached: bool) {
    let latency = job.submitted.elapsed();
    record_request(cells, job.incremental.as_ref(), latency, cached);
    // A requester that gave up (dropped the receiver) is fine.
    let _ = job.reply.send(reply_from(prediction, cached, job.threshold, latency));
}

/// Counts one answered request on its shard. A session's predict answered
/// from the shard cache never reaches its incremental forward, so the
/// hit also counts there, as reused.
fn record_request(
    cells: &ShardObs,
    incremental: Option<&(Arc<IncrementalForward>, u64)>,
    latency: Duration,
    cached: bool,
) {
    cells.record_request(latency, cached);
    if let (true, Some((incr, _))) = (cached, incremental) {
        incr.note_cache_hit();
    }
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

    fn engine_with_default_model(workers: usize, cache: usize) -> ServeEngine {
        let registry = Arc::new(ModelRegistry::new());
        registry.register("default", Lhnn::new(LhnnConfig::default(), 0)).unwrap();
        ServeEngine::new(
            registry,
            EngineConfig { workers, cache_capacity: cache, ..Default::default() },
        )
    }

    #[test]
    fn serves_and_caches() {
        let engine = engine_with_default_model(2, 16);
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
        let engine = engine_with_default_model(2, 16);
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
        let engine = engine_with_default_model(1, 4);
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
        let engine = engine_with_default_model(1, 4);
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
        // panic a worker.
        let engine = engine_with_default_model(1, 4);
        let handle = engine.handle();
        let (ops_a, feats_a) = design(6, 80, 6);
        let (_, feats_b) = design(7, 120, 6);
        assert_eq!(feats_a.gcell.rows(), feats_b.gcell.rows(), "same grid, same g-cells");
        assert_ne!(feats_a.gnet.rows(), feats_b.gnet.rows(), "different g-net counts");
        let err = handle
            .predict(&PredictRequest::new("default", Arc::clone(&ops_a), feats_b))
            .unwrap_err();
        assert!(matches!(err, ServeError::Incompatible(_)), "got {err:?}");
        // the pool is still alive and serves the matching pair
        let ok = handle.predict(&PredictRequest::new("default", ops_a, feats_a)).unwrap();
        assert!(ok.prediction.cls_prob.is_finite());
    }

    #[test]
    fn non_finite_features_rejected_at_admission() {
        let engine = engine_with_default_model(2, 0);
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
        assert_eq!(handle.stats().computed, 2, "rejected requests never reach a worker");
        engine.shutdown();
    }

    #[test]
    fn concurrent_clients_all_get_answers() {
        let engine = engine_with_default_model(4, 64);
        let handle = engine.handle();
        let designs: Vec<_> = (0..4).map(|s| design(10 + s, 70, 6)).collect();
        std::thread::scope(|scope| {
            for (ops, feats) in &designs {
                for _ in 0..3 {
                    let h = handle.clone();
                    let ops = Arc::clone(ops);
                    let feats = Arc::clone(feats);
                    scope.spawn(move || {
                        let r = h.predict(&PredictRequest::new("default", ops, feats)).unwrap();
                        assert!(r.prediction.cls_prob.is_finite());
                    });
                }
            }
        });
        let stats = handle.stats();
        assert_eq!(stats.requests, 12);
        // 4 unique designs → exactly 4 forwards; duplicates are served by
        // the cache, in-batch dedup or single-flight waiting
        assert_eq!(stats.computed, 4, "single-flight must deduplicate concurrent work");
        engine.shutdown();
    }

    #[test]
    fn sharded_engine_serves_and_isolates_routing() {
        let registry = Arc::new(ModelRegistry::new());
        registry.register("default", Lhnn::new(LhnnConfig::default(), 0)).unwrap();
        let engine = ServeEngine::new(
            Arc::clone(&registry),
            EngineConfig { workers: 3, shards: 3, cache_capacity: 8, ..Default::default() },
        );
        let handle = engine.handle();
        assert_eq!(handle.shards(), 3);
        assert_eq!(handle.workers(), 3);
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
        engine.shutdown();
    }

    #[test]
    fn stateless_requests_with_a_design_id_pin_their_shard() {
        let registry = Arc::new(ModelRegistry::new());
        registry.register("default", Lhnn::new(LhnnConfig::default(), 0)).unwrap();
        let engine = ServeEngine::new(
            Arc::clone(&registry),
            EngineConfig { workers: 2, shards: 2, cache_capacity: 8, ..Default::default() },
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
            EngineConfig { workers: 2, shards: 2, cache_capacity: 8, ..Default::default() },
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

    #[test]
    fn worker_partition_covers_every_shard() {
        assert_eq!(partition_workers(4, 2), vec![2, 2]);
        assert_eq!(partition_workers(5, 2), vec![3, 2]);
        assert_eq!(partition_workers(1, 3), vec![1, 1, 1], "every shard gets a worker");
        assert_eq!(partition_workers(7, 3), vec![3, 2, 2]);
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let engine = engine_with_default_model(1, 4);
        let handle = engine.handle();
        let (ops, feats) = design(5, 80, 6);
        engine.shutdown();
        let err = handle.predict(&PredictRequest::new("default", ops, feats)).unwrap_err();
        assert!(matches!(err, ServeError::ShuttingDown | ServeError::WorkerLost));
    }

    /// Serve-layer bug sweep: a forward that panics must cost only its own
    /// requester (`WorkerLost`) — the worker, its locks and the engine all
    /// keep serving afterwards.
    #[test]
    fn panicking_forward_does_not_brick_the_engine() {
        let engine = engine_with_default_model(2, 16);
        let handle = engine.handle();
        let (ops, feats) = design(8, 80, 6);
        // Operators whose declared node counts match the features (so
        // admission passes) but whose matrices are inconsistent: the
        // forward's dimension asserts fire inside the worker.
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
        let engine = engine_with_default_model(1, 4);
        let handle = engine.handle();
        let shared = Arc::clone(&handle.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.shards[0].cache.lock().unwrap();
            panic!("poison the cache mutex");
        })
        .join();
        assert!(handle.shared.shards[0].cache.lock().is_err(), "mutex really poisoned");
        let (ops, feats) = design(9, 80, 6);
        let ok = handle.predict(&PredictRequest::new("default", ops, feats)).unwrap();
        assert!(ok.prediction.cls_prob.is_finite());
        assert_eq!(handle.cache_len(), 1);
        assert_eq!(handle.stats().requests, 1, "stats keep counting after recovery");
        engine.shutdown();
    }
}
