//! Stateful placement-loop sessions: the incremental serving surface.
//!
//! A stateless [`crate::ServeHandle::predict`] forces every caller to
//! rebuild graph operators and features per query — fine for one-shot
//! CLIs, wasteful for a placer that perturbs a few cells and re-queries
//! thousands of times. A [`Session`] keeps a [`LatticePipeline`] hot per
//! design: an update patches it in place, and a predict splices over the
//! dirty halo, both on the caller's thread. A predict goes through the
//! design's shard cache, so a state seen before costs no forward.
//!
//! ```text
//! open_session(circuit, placement)      // one full build; design → shard
//!   loop {
//!     session.update(&delta)            // patches the pipeline in place
//!     session.predict()                 // spliced forward, same thread
//!   }
//! ```
//!
//! # Ordering and determinism
//!
//! Updates apply under the session's state lock, in call order, and a
//! predict snapshots the state under the same lock, so it describes every
//! update applied before it. Combined with the bitwise-deterministic
//! kernel backend, any interleaving of sessions across any shard count
//! yields predictions bitwise identical to serial single-shard execution
//! (proptest-enforced in `tests/sharded_sessions.rs`).
//!
//! # Failure discipline
//!
//! A failed structural fallback rebuild poisons the pipeline: the update
//! that triggered it *and every later call* fail until a delta admits a
//! successful rebuild. A delta naming a cell outside the circuit or a
//! non-finite position never reaches the pipeline: it fails with
//! [`ServeError::Session`] and changes nothing. A *panic* mid-apply or
//! while the session state is held (distinct from a clean error) wedges
//! the session permanently: the placement may have advanced while graph
//! state did not, so every later call surfaces [`ServeError::Poisoned`];
//! the engine itself keeps serving every other session.
//!
//! Because incremental updates are bitwise identical to full rebuilds,
//! the engine's fingerprint-keyed prediction cache composes
//! transparently: a `predict` after a no-op update (or after a delta
//! that returns to a previously seen placement) hits the cache exactly
//! as if the inputs had been batch-built.

use std::sync::{Arc, Mutex};

use lh_graph::{FeatureSet, LhGraphConfig};
use lhnn::{
    AblationSpec, ForwardDirty, GraphOps, IncrementalForward, IncrementalStats, InvalidationCause,
    LatticePipeline, PipelineStats, PipelineUpdate, RebuildCause,
};
use lhnn_obs::{Counter, FlightEventKind, FlightRecorder};
use vlsi_netlist::{Circuit, GcellGrid, Placement, PlacementDelta};

use crate::engine::{PredictRequest, ServeHandle, ServeReply};
use crate::error::{Result, ServeError};

/// Options for [`ServeHandle::open_session`].
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Registry name of the model to serve with.
    pub model: String,
    /// Design identity used for shard affinity (stable hash of this id
    /// picks the shard). `None` (the default) uses the circuit's name, so
    /// two sessions over the same design share a shard — and its cache.
    pub design: Option<String>,
    /// Congestion threshold applied to predictions.
    pub threshold: f32,
    /// LH-graph build options.
    pub graph: LhGraphConfig,
    /// Fixed per-channel G-cell feature divisors (see
    /// [`FeatureSet::scaled_fixed`]).
    pub gcell_divisors: Vec<f32>,
    /// Fixed per-channel G-net feature divisors.
    pub gnet_divisors: Vec<f32>,
}

impl SessionConfig {
    /// Defaults: 0.5 threshold, default graph config, the reproduction's
    /// fixed feature divisors, shard affinity by circuit name.
    pub fn new(model: impl Into<String>) -> Self {
        let (gcell_divisors, gnet_divisors) = FeatureSet::default_divisors();
        Self {
            model: model.into(),
            design: None,
            threshold: 0.5,
            graph: LhGraphConfig::default(),
            gcell_divisors,
            gnet_divisors,
        }
    }

    /// Sets the congestion threshold.
    #[must_use]
    pub fn with_threshold(mut self, threshold: f32) -> Self {
        self.threshold = threshold;
        self
    }

    /// Sets the LH-graph build options.
    #[must_use]
    pub fn with_graph_config(mut self, graph: LhGraphConfig) -> Self {
        self.graph = graph;
        self
    }

    /// Sets an explicit design id for shard affinity.
    #[must_use]
    pub fn with_design(mut self, design: impl Into<String>) -> Self {
        self.design = Some(design.into());
        self
    }
}

struct SessionState {
    pipeline: LatticePipeline,
    /// Scaled snapshot of the pipeline state, rebuilt lazily after a
    /// non-noop update. Holding `Arc`s means repeated `predict` calls on
    /// an unchanged placement submit pointer-identical inputs.
    snapshot: Option<(Arc<GraphOps>, Arc<FeatureSet>)>,
    /// Set when an apply *panicked* (not merely errored): the placement
    /// may have advanced while graph state did not, and unlike a failed
    /// rebuild the divergence is unknowable. Every later call fails with
    /// [`ServeError::Poisoned`].
    wedged: Option<String>,
}

/// A [`Session`]'s hot pipeline and the handles it records into.
struct SessionCore {
    state: Mutex<SessionState>,
    /// Bounded-radius forward state for this design: cached per-layer
    /// activations plus the dirty sets noted by applied updates. Updates
    /// note every outcome here (under the state lock, so notes follow
    /// apply order); `predict` runs it as the forward on a shard-cache
    /// miss, splicing instead of recomputing every G-cell.
    incr: IncrementalForward,
    /// The design id the session routes (and labels its metrics) by.
    design: String,
    /// The engine's flight recorder: fallback/poison/wedge events carry
    /// the design as scope (dropped on a metrics-off engine).
    flight: Arc<FlightRecorder>,
    /// The pinned shard's `lhnn_session_updates_total` cell: every
    /// applied update counts once.
    updates: Counter,
}

impl std::fmt::Debug for SessionCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SessionCore")
    }
}

impl SessionCore {
    /// Wedges the session for good: the cached forward dies with it and
    /// the flight recorder gets the reason.
    fn wedge(&self, state: &mut SessionState, why: String) {
        state.snapshot = None;
        self.incr.note_structural(InvalidationCause::Poisoned);
        self.flight.record(FlightEventKind::Wedged, &self.design, why.clone());
        state.wedged = Some(why);
    }

    /// Recovers a session-state guard from mutex poisoning, recording
    /// that coherence is gone: the holder panicked outside
    /// `apply_locked`'s catch (e.g. in a [`Session::with_pipeline`]
    /// closure), so unlike the engine's re-derivable locks this state
    /// cannot be trusted again.
    fn wedge_on_poison<'a>(
        &self,
        poison: std::sync::PoisonError<std::sync::MutexGuard<'a, SessionState>>,
    ) -> std::sync::MutexGuard<'a, SessionState> {
        let mut guard = poison.into_inner();
        if guard.wedged.is_none() {
            self.wedge(&mut guard, "a thread panicked while holding the session state".into());
        }
        guard
    }

    /// Locks the session state, converting poison into a wedge.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, SessionState> {
        self.state.lock().unwrap_or_else(|poison| self.wedge_on_poison(poison))
    }

    /// Applies one delta under the state lock, enforcing the wedge/poison
    /// discipline.
    fn apply_locked(
        &self,
        state: &mut SessionState,
        delta: &PlacementDelta,
    ) -> Result<PipelineUpdate> {
        self.updates.inc();
        if let Some(why) = &state.wedged {
            return Err(ServeError::Poisoned(format!("session wedged: {why}")));
        }
        if let Some(why) = reject_reason(delta, state.pipeline.circuit().num_cells()) {
            return Err(ServeError::Session(format!("delta rejected: {why}")));
        }
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| state.pipeline.apply(delta)))
        {
            Ok(Ok(update)) => {
                // Feed the incremental-forward notes (still under the
                // state lock, so notes land in apply order). A noop
                // touches nothing; an incremental patch contributes its
                // dirty sets (including tombstoned/revived/appended
                // filter-crossing columns — stable columns keep those on
                // the splice path); a full rebuild may have renumbered
                // G-net columns, so the activation cache must die with it.
                match &update {
                    PipelineUpdate::Noop => {}
                    PipelineUpdate::Incremental { dirty_nets, dirty_gcells } => {
                        self.incr.note_incremental(&ForwardDirty::new(
                            dirty_gcells.clone(),
                            dirty_nets.clone(),
                        ));
                    }
                    PipelineUpdate::FullRebuild { cause } => {
                        self.incr.note_structural(InvalidationCause::from(cause));
                        match cause {
                            RebuildCause::Compaction { tombstones, live } => self.flight.record(
                                FlightEventKind::Compaction,
                                &self.design,
                                format!(
                                    "compacted {tombstones} tombstoned g-net columns ({live} live)"
                                ),
                            ),
                            _ => self.flight.record(
                                FlightEventKind::Fallback,
                                &self.design,
                                format!("full rebuild: {cause}"),
                            ),
                        }
                    }
                }
                if !matches!(update, PipelineUpdate::Noop) {
                    state.snapshot = None;
                }
                Ok(update)
            }
            Ok(Err(e)) => {
                // Failed fallback rebuild: the pipeline is poisoned and
                // every later call fails until a rebuild succeeds (the
                // pipeline retries on each subsequent apply).
                state.snapshot = None;
                self.incr.note_structural(InvalidationCause::Poisoned);
                self.flight.record(
                    FlightEventKind::Poisoned,
                    &self.design,
                    format!("fallback rebuild failed: {e}"),
                );
                Err(ServeError::Session(e.to_string()))
            }
            Err(panic) => {
                let why = panic
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic mid-apply".into());
                let err = ServeError::Poisoned(format!("session wedged: {why}"));
                self.wedge(state, why);
                Err(err)
            }
        }
    }
}

/// Why `delta` cannot apply to a circuit of `num_cells` cells — a move
/// names a cell outside it or a non-finite position — or `None` if it can.
/// Checked before the pipeline runs, so such a delta never wedges the
/// session.
fn reject_reason(delta: &PlacementDelta, num_cells: usize) -> Option<String> {
    delta.moves().iter().find_map(|&(cell, to)| {
        if cell.index() >= num_cells {
            Some(format!("cell {} is outside the {num_cells}-cell circuit", cell.index()))
        } else if !(to.x.is_finite() && to.y.is_finite()) {
            Some(format!("cell {} moves to non-finite ({}, {})", cell.index(), to.x, to.y))
        } else {
            None
        }
    })
}

/// One session's merged observability view ([`Session::observability`]):
/// the pipeline and incremental-forward counters side by side, tagged
/// with the design id and shard they describe. Both are reads of the
/// engine registry's `{design}` and `{design,model}` cells.
#[derive(Debug, Clone)]
pub struct SessionObservability {
    /// The design id the session routes (and labels its metrics) by.
    pub design: String,
    /// The shard the session is pinned to.
    pub shard: usize,
    /// Update-path counters: noops, incremental patches, fallbacks.
    pub pipeline: PipelineStats,
    /// Forward-path counters: reused, spliced, full, invalidations.
    pub incremental: IncrementalStats,
}

/// A hot placement-loop session over one design, pinned to one shard.
///
/// Owned by the placer thread driving it, which also runs its forwards;
/// the shard's prediction cache is shared with every other client of the
/// [`ServeHandle`].
#[derive(Debug)]
pub struct Session {
    handle: ServeHandle,
    cfg: SessionConfig,
    core: SessionCore,
    shard: usize,
}

impl ServeHandle {
    /// Opens a placement-loop session: builds the full pipeline once,
    /// pins the session to its design's shard (stable hash of the design
    /// id) and keeps it hot for incremental updates.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if `cfg.model` is not registered;
    /// [`ServeError::Session`] if the initial pipeline build fails, or if
    /// a divisor list's length differs from the pipeline's feature columns
    /// or holds a divisor that is not finite and positive.
    pub fn open_session(
        &self,
        cfg: SessionConfig,
        circuit: Arc<Circuit>,
        placement: Placement,
        grid: GcellGrid,
    ) -> Result<Session> {
        let entry = self
            .registry()
            .get(&cfg.model)
            .ok_or_else(|| ServeError::UnknownModel(cfg.model.clone()))?;
        let model_kind = entry.model.kind();
        let design_id = cfg.design.clone().unwrap_or_else(|| circuit.name.clone());
        let shard = self.shard_of_design(&design_id);
        let mut pipeline =
            LatticePipeline::new(circuit, placement, grid, cfg.graph.clone(), AblationSpec::full())
                .map_err(|e| ServeError::Session(e.to_string()))?;
        let features = pipeline.features();
        check_divisors("gcell", &cfg.gcell_divisors, features.gcell.cols())?;
        check_divisors("gnet", &cfg.gnet_divisors, features.gnet.cols())?;
        // Wire the design's counts and spans into the engine's registry
        // and flight recorder (a metrics-off engine keeps the counts and
        // drops the spans and events).
        let engine_obs = self.obs();
        pipeline.set_metrics(&engine_obs.registry, &design_id);
        let incr = IncrementalForward::with_metrics(&engine_obs.registry, &design_id, model_kind);
        let core = SessionCore {
            state: Mutex::new(SessionState { pipeline, snapshot: None, wedged: None }),
            incr,
            design: design_id,
            flight: Arc::clone(&engine_obs.flight),
            updates: self.session_update_sinks(shard),
        };
        Ok(Session { handle: self.clone(), cfg, core, shard })
    }
}

/// Refuses a divisor list that [`FeatureSet::scaled_fixed`] would assert
/// on: a wrong count, or a divisor that is not finite and positive.
fn check_divisors(block: &str, divisors: &[f32], columns: usize) -> Result<()> {
    if divisors.len() != columns {
        return Err(ServeError::Session(format!(
            "{} {block} divisors for {columns} {block} feature columns",
            divisors.len()
        )));
    }
    match divisors.iter().find(|d| !(d.is_finite() && **d > 0.0)) {
        Some(d) => {
            Err(ServeError::Session(format!("{block} divisor {d} is not finite and positive")))
        }
        None => Ok(()),
    }
}

impl Session {
    /// Applies a placement delta to the hot pipeline.
    ///
    /// Returns what the pipeline did ([`PipelineUpdate::Noop`] /
    /// [`PipelineUpdate::Incremental`] / [`PipelineUpdate::FullRebuild`]).
    /// A noop keeps the current prediction snapshot — and therefore the
    /// engine cache key — untouched.
    ///
    /// # Errors
    ///
    /// [`ServeError::Session`] if the delta names a cell outside the
    /// circuit or a non-finite position (nothing is applied), or if a
    /// structural fallback rebuild fails (e.g. the delta pushed every net
    /// past the size filter); [`ServeError::Poisoned`] if the session
    /// wedged.
    pub fn update(&mut self, delta: &PlacementDelta) -> Result<PipelineUpdate> {
        self.core.apply_locked(&mut self.core.lock_state(), delta)
    }

    /// Predicts congestion for the current placement, on the caller's
    /// thread.
    ///
    /// The session's shard cache answers a state seen before; otherwise
    /// the session's bounded-radius forward splices over the region the
    /// updates dirtied, and the result lands in the shard's cache.
    ///
    /// # Errors
    ///
    /// [`ServeError::Session`] if the pipeline is poisoned (a fallback
    /// rebuild failed, so graph/features lag the placement — answering
    /// would serve a stale map as current); [`ServeError::Poisoned`] if
    /// the session wedged; [`ServeError::ShuttingDown`] once the engine
    /// shut down; [`ServeError::WorkerLost`] if the forward panicked;
    /// otherwise the engine's admission errors
    /// ([`ServeError::UnknownModel`], [`ServeError::Incompatible`]).
    pub fn predict(&mut self) -> Result<ServeReply> {
        let (ops, features, seq) = self.inputs_with_seq()?;
        let request = PredictRequest::new(&self.cfg.model, Arc::clone(&ops), Arc::clone(&features))
            .with_threshold(self.cfg.threshold);
        let incr = &self.core.incr;
        let reply = self.handle.predict_here(self.shard, &request, |entry| {
            incr.predict(entry.model.as_ref(), entry.version, &ops, &features, seq).0
        })?;
        // A predict answered without reaching the forward still counts
        // there, as reused.
        if reply.cached {
            incr.note_cache_hit();
        }
        Ok(reply)
    }

    /// The current `(operators, scaled features)` snapshot, as
    /// [`Session::predict`] serves it.
    ///
    /// # Errors
    ///
    /// [`ServeError::Session`] while the pipeline is poisoned (the
    /// snapshot would describe an older placement than the session's);
    /// [`ServeError::Poisoned`] if the session wedged.
    pub fn inputs(&mut self) -> Result<(Arc<GraphOps>, Arc<FeatureSet>)> {
        let (ops, features, _) = self.inputs_with_seq()?;
        Ok((ops, features))
    }

    /// [`Session::inputs`] plus the incremental-forward note sequence,
    /// captured under the same state lock as the snapshot — so dirt noted
    /// by updates applied *after* this snapshot stays pending across the
    /// forward that consumes it.
    fn inputs_with_seq(&mut self) -> Result<(Arc<GraphOps>, Arc<FeatureSet>, u64)> {
        let mut state = self.core.lock_state();
        if let Some(why) = &state.wedged {
            return Err(ServeError::Poisoned(format!("session wedged: {why}")));
        }
        if state.pipeline.is_poisoned() {
            return Err(ServeError::Session(
                "pipeline is poisoned (a rebuild failed); apply a delta that admits a \
                 rebuild before predicting"
                    .into(),
            ));
        }
        if state.snapshot.is_none() {
            let ops = state.pipeline.ops();
            let (gcell_div, gnet_div) = (&self.cfg.gcell_divisors, &self.cfg.gnet_divisors);
            let features = Arc::new(state.pipeline.features().scaled_fixed(gcell_div, gnet_div));
            state.snapshot = Some((ops, features));
        }
        let seq = self.core.incr.seq();
        let (ops, features) = state.snapshot.as_ref().expect("just filled");
        Ok((Arc::clone(ops), Arc::clone(features), seq))
    }

    /// Runs `f` against the hot pipeline (placement, graph, counters).
    /// A wedged session still exposes its (last coherent-looking)
    /// pipeline here for diagnostics; prefer [`Session::inputs`] /
    /// [`Session::predict`] for anything that must refuse wedged state.
    pub fn with_pipeline<T>(&self, f: impl FnOnce(&LatticePipeline) -> T) -> T {
        f(&self.core.lock_state().pipeline)
    }

    /// The pipeline's lifetime counters.
    /// [`PipelineStats::stale`] is set while the pipeline is poisoned —
    /// the counters then describe the pre-failure placement.
    pub fn stats(&self) -> PipelineStats {
        self.with_pipeline(LatticePipeline::stats)
    }

    /// The incremental-forward counters: how many predictions were served
    /// without a forward (activation or shard cache), spliced over a dirty
    /// halo, or recomputed in full, and how often structural events
    /// invalidated the cache. Sessions sharing a design id and model share
    /// these cells.
    pub fn incremental_stats(&self) -> IncrementalStats {
        self.core.incr.stats()
    }

    /// `(operators, features)` content fingerprints of the current state.
    ///
    /// # Errors
    ///
    /// [`ServeError::Session`] while the pipeline is poisoned: the
    /// fingerprints would describe the pre-failure placement, not the
    /// session's.
    pub fn fingerprints(&self) -> Result<(u64, u64)> {
        self.with_pipeline(LatticePipeline::fingerprints)
            .map_err(|e| ServeError::Session(e.to_string()))
    }

    /// One merged observability view of the session: the pipeline's
    /// lifetime counters and the incremental-forward counters, captured
    /// together with the design id and shard. Both are reads of
    /// the `{design}`-labelled series in the engine's registry snapshot
    /// ([`crate::ServeHandle::metrics_snapshot`]).
    pub fn observability(&self) -> SessionObservability {
        SessionObservability {
            design: self.core.design.clone(),
            shard: self.shard,
            pipeline: self.stats(),
            incremental: self.incremental_stats(),
        }
    }

    /// The shard whose cache and count cells this session's updates and
    /// predictions use.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, ServeEngine};
    use crate::registry::ModelRegistry;
    use lhnn::{CongestionModel, Lhnn, LhnnConfig};
    use vlsi_netlist::synth::{generate, SynthConfig};
    use vlsi_netlist::{CellId, Point};
    use vlsi_place::GlobalPlacer;

    fn engine() -> ServeEngine {
        let registry = Arc::new(ModelRegistry::new());
        registry.register("default", Lhnn::new(LhnnConfig::default(), 0)).unwrap();
        ServeEngine::new(registry, EngineConfig::default())
    }

    fn sharded_engine(shards: usize) -> ServeEngine {
        let registry = Arc::new(ModelRegistry::new());
        registry.register("default", Lhnn::new(LhnnConfig::default(), 0)).unwrap();
        ServeEngine::new(registry, EngineConfig { shards, ..EngineConfig::default() })
    }

    fn design(seed: u64) -> (Arc<Circuit>, Placement, GcellGrid) {
        let cfg = SynthConfig { seed, n_cells: 120, grid_nx: 8, grid_ny: 8, ..Default::default() };
        let synth = generate(&cfg).unwrap();
        let grid = cfg.grid();
        let placed = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        (Arc::new(synth.circuit), placed.placement, grid)
    }

    #[test]
    fn session_predicts_and_noop_update_hits_cache() {
        let engine = engine();
        let handle = engine.handle();
        let (circuit, placement, grid) = design(1);
        let mut session =
            handle.open_session(SessionConfig::new("default"), circuit, placement, grid).unwrap();
        let cold = session.predict().unwrap();
        assert!(!cold.cached);
        // unchanged placement → same fingerprints → cache hit
        let warm = session.predict().unwrap();
        assert!(warm.cached);
        // a noop delta must not spoil the key
        let id = CellId(0);
        let pos = session.with_pipeline(|p| p.placement().position(id));
        let update = session.update(&PlacementDelta::single(id, pos)).unwrap();
        assert_eq!(update, PipelineUpdate::Noop);
        assert!(session.predict().unwrap().cached);
        engine.shutdown();
    }

    #[test]
    fn session_predictions_match_direct_model_bitwise() {
        let engine = engine();
        let handle = engine.handle();
        let (circuit, placement, grid) = design(2);
        let mut session = handle
            .open_session(
                SessionConfig::new("default"),
                Arc::clone(&circuit),
                placement.clone(),
                grid.clone(),
            )
            .unwrap();
        let die = circuit.die;
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let mut placement = placement;
        for step in 0..4u32 {
            // move one cell a g-cell to the right, both in the session and
            // in the reference placement
            let id = CellId(step);
            let np = die.clamp(Point::new(
                placement.position(id).x + grid.gcell_width() * 1.5,
                placement.position(id).y,
            ));
            placement.set_position(id, np);
            session.update(&PlacementDelta::single(id, np)).unwrap();
            let reply = session.predict().unwrap();
            // reference: batch rebuild from scratch
            let (ops, features) = batch_inputs(&circuit, &placement, &grid, session.config());
            let direct = model.predict(&ops, &features);
            assert!(
                reply.prediction.cls_prob.approx_eq(&direct.cls_prob, 0.0),
                "served prediction diverged from batch rebuild at step {step}"
            );
        }
        // The loop-query path really took the bounded-radius fast path:
        // the first forward is full (cold cache), later ones splice over
        // the dirty halo — and each was bitwise-checked above.
        let inc = session.incremental_stats();
        assert_eq!(inc.full_forwards, 1, "only the cold forward recomputes everything");
        assert!(inc.spliced_forwards >= 1, "incremental updates must splice, got {inc:?}");
        engine.shutdown();
    }

    fn batch_inputs(
        circuit: &Circuit,
        placement: &Placement,
        grid: &GcellGrid,
        cfg: &SessionConfig,
    ) -> (GraphOps, FeatureSet) {
        let graph = lh_graph::LhGraph::build(circuit, placement, grid, &cfg.graph).unwrap();
        let features = FeatureSet::build(&graph, circuit, placement, grid)
            .unwrap()
            .scaled_fixed(&cfg.gcell_divisors, &cfg.gnet_divisors);
        (GraphOps::from_graph(&graph, &AblationSpec::full()), features)
    }

    #[test]
    fn unknown_model_is_rejected_at_open() {
        let engine = engine();
        let (circuit, placement, grid) = design(3);
        let err = engine
            .handle()
            .open_session(SessionConfig::new("nope"), circuit, placement, grid)
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownModel(_)));
        engine.shutdown();
    }

    /// Divisors come from the client: a wrong count or a divisor that is
    /// zero, negative or NaN must be refused at open with a typed error,
    /// not panic the first predict while it holds the session lock.
    #[test]
    fn bad_divisors_are_rejected_at_open() {
        let engine = engine();
        let handle = engine.handle();
        let (circuit, placement, grid) = design(4);
        let (gcell, gnet) = FeatureSet::default_divisors();
        let mut short = gnet.clone();
        short.pop();
        let with = |i: usize, v: f32| {
            let mut d = gcell.clone();
            d[i] = v;
            d
        };
        let cases = [
            (gcell.clone(), short),
            (with(0, 0.0), gnet.clone()),
            (with(1, -8.0), gnet.clone()),
            (with(3, f32::NAN), gnet.clone()),
            (gcell.clone(), vec![8.0, 8.0, 8.0, f32::INFINITY]),
        ];
        for (gcell_divisors, gnet_divisors) in cases {
            let cfg = SessionConfig {
                gcell_divisors: gcell_divisors.clone(),
                gnet_divisors: gnet_divisors.clone(),
                ..SessionConfig::new("default")
            };
            let err = handle
                .open_session(cfg, Arc::clone(&circuit), placement.clone(), grid.clone())
                .unwrap_err();
            assert!(
                matches!(err, ServeError::Session(_)),
                "{gcell_divisors:?} / {gnet_divisors:?}: got {err:?}"
            );
        }
        // the default divisors still open a session that serves
        let mut session =
            handle.open_session(SessionConfig::new("default"), circuit, placement, grid).unwrap();
        assert!(session.predict().is_ok());
        engine.shutdown();
    }

    #[test]
    fn poisoned_session_refuses_to_serve_stale_predictions() {
        use vlsi_netlist::{Cell, Net, Pin, Rect};
        let engine = engine();
        let handle = engine.handle();
        // Single 2-pin net with a 1-g-cell size filter: stretching it is
        // structural and the fallback rebuild fails (no nets survive).
        let die = Rect::new(0.0, 0.0, 8.0, 8.0);
        let grid = GcellGrid::new(die, 4, 4);
        let mut c = Circuit::new("tiny", die);
        let a = c.add_cell(Cell::movable("a", 0.2, 0.2));
        let b = c.add_cell(Cell::movable("b", 0.2, 0.2));
        c.add_net(Net::new("n", vec![Pin::at_center(a), Pin::at_center(b)]));
        let mut placement = Placement::zeroed(2);
        placement.set_position(a, Point::new(1.0, 1.0));
        placement.set_position(b, Point::new(1.2, 1.2));
        let cfg = SessionConfig::new("default").with_graph_config(LhGraphConfig {
            max_gnet_fraction: 1e-9,
            ..LhGraphConfig::default()
        });
        let mut session = handle.open_session(cfg, Arc::new(c), placement, grid).unwrap();
        assert!(session.predict().is_ok());

        let stretch = PlacementDelta::single(b, Point::new(7.0, 7.0));
        assert!(matches!(session.update(&stretch), Err(ServeError::Session(_))));
        // the session must refuse to answer from the stale state
        assert!(
            matches!(session.predict(), Err(ServeError::Session(_))),
            "poisoned session must not serve a pre-delta congestion map"
        );
        // every later update fails the same way until a delta admits a
        // rebuild
        let nudge = PlacementDelta::single(b, Point::new(7.1, 7.1));
        assert!(matches!(session.update(&nudge), Err(ServeError::Session(_))));
        // healing delta: rebuild succeeds, predictions flow again
        let heal = PlacementDelta::single(b, Point::new(1.3, 1.3));
        assert!(matches!(session.update(&heal), Ok(PipelineUpdate::FullRebuild { .. })));
        assert!(session.predict().is_ok());
        engine.shutdown();
    }

    #[test]
    fn wedged_session_fails_permanently_but_not_the_engine() {
        let engine = engine();
        let handle = engine.handle();
        let (circuit, placement, grid) = design(11);
        let mut session =
            handle.open_session(SessionConfig::new("default"), circuit, placement, grid).unwrap();
        assert!(session.predict().is_ok());
        // a panic while the session state is held leaves it unknowable
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.with_pipeline(|_| panic!("inspector crashed"))
        }));
        assert!(crash.is_err());
        let err = session.update(&PlacementDelta::single(CellId(1), Point::new(1.0, 1.0)));
        assert!(matches!(err, Err(ServeError::Poisoned(_))), "got {err:?}");
        // every later call fails the same way — the state is unknowable
        assert!(matches!(session.predict(), Err(ServeError::Poisoned(_))));
        let again = session.update(&PlacementDelta::single(CellId(0), Point::new(1.0, 1.0)));
        assert!(matches!(again, Err(ServeError::Poisoned(_))), "got {again:?}");
        // ...but the engine is fine: a fresh session over a healthy design
        // serves normally
        let (c2, p2, g2) = design(12);
        let mut healthy = handle.open_session(SessionConfig::new("default"), c2, p2, g2).unwrap();
        assert!(healthy.predict().is_ok());
        engine.shutdown();
    }

    #[test]
    fn hostile_deltas_are_rejected_and_the_session_keeps_serving() {
        let engine = engine();
        let handle = engine.handle();
        let (circuit, placement, grid) = design(11);
        let n_cells = circuit.num_cells() as u32;
        let mut session = handle
            .open_session(
                SessionConfig::new("default"),
                Arc::clone(&circuit),
                placement.clone(),
                grid.clone(),
            )
            .unwrap();
        let before = session.predict().unwrap();
        let fingerprints = session.with_pipeline(|p| p.fingerprints().unwrap());
        let ok = Point::new(1.0, 1.0);
        for bogus in [
            PlacementDelta::single(CellId(n_cells + 7), ok),
            PlacementDelta::single(CellId(0), Point::new(f32::NAN, 1.0)),
            PlacementDelta::single(CellId(0), Point::new(1.0, f32::INFINITY)),
            // one bad move spoils the whole delta: nothing applies
            PlacementDelta::from_moves(vec![(CellId(2), ok), (CellId(n_cells), ok)]),
        ] {
            let err = session.update(&bogus).unwrap_err();
            assert!(matches!(err, ServeError::Session(_)), "got {err:?}");
        }
        assert_eq!(session.with_pipeline(|p| p.fingerprints().unwrap()), fingerprints);
        let again = session.predict().unwrap();
        assert!(again.cached, "rejected deltas must leave the cache key alone");
        assert!(again.prediction.cls_prob.approx_eq(&before.prediction.cls_prob, 0.0));

        // The session still updates and predicts, bitwise.
        let id = CellId(2);
        let mut placement = placement;
        let to = circuit.die.clamp(Point::new(
            placement.position(id).x + grid.gcell_width() * 1.5,
            placement.position(id).y,
        ));
        placement.set_position(id, to);
        session.update(&PlacementDelta::single(id, to)).unwrap();
        let reply = session.predict().unwrap();
        let (ops, features) = batch_inputs(&circuit, &placement, &grid, session.config());
        let direct = Lhnn::new(LhnnConfig::default(), 0).predict(&ops, &features);
        assert!(reply.prediction.cls_prob.approx_eq(&direct.cls_prob, 0.0));
        assert!(reply.prediction.reg.approx_eq(&direct.reg, 0.0));
        engine.shutdown();
    }

    #[test]
    fn incremental_updates_are_counted() {
        let engine = engine();
        let handle = engine.handle();
        let (circuit, placement, grid) = design(4);
        let mut session = handle
            .open_session(SessionConfig::new("default"), Arc::clone(&circuit), placement, grid)
            .unwrap();
        let die = circuit.die;
        let mut moved = 0;
        for i in 0..8u32 {
            let id = CellId(i);
            let p = session.with_pipeline(|pl| pl.placement().position(id));
            let np = die.clamp(Point::new(p.x + 2.5, p.y + 2.5));
            let update = session.update(&PlacementDelta::single(id, np)).unwrap();
            if matches!(update, PipelineUpdate::Incremental { .. }) {
                moved += 1;
            }
        }
        assert_eq!(session.stats().updates, 8);
        assert_eq!(
            session.stats().incremental,
            moved,
            "stats must count exactly the incremental updates"
        );
        engine.shutdown();
    }

    /// A compaction rebuild (the one event that renumbers G-net columns)
    /// must invalidate the activation cache completely: the next
    /// prediction recomputes in full and still matches a from-scratch
    /// build bitwise. A zero tombstone budget makes the very first
    /// filter crossing compact.
    #[test]
    fn compaction_invalidates_the_activation_cache() {
        let engine = engine();
        let handle = engine.handle();
        let (circuit, placement, grid) = design(13);
        let die = circuit.die;
        let cfg = SessionConfig::new("default").with_graph_config(LhGraphConfig {
            max_tombstone_fraction: 0.0,
            ..LhGraphConfig::default()
        });
        let mut session = handle
            .open_session(cfg, Arc::clone(&circuit), placement.clone(), grid.clone())
            .unwrap();
        assert!(session.predict().is_ok());
        // yank cells across the die until one stretches a kept net past
        // the size filter — with no tombstone budget, that crossing is an
        // immediate compaction (full rebuild)
        let mut reference = placement;
        let mut compacted = false;
        for i in 0..20u32 {
            let id = CellId(i);
            let far = die.clamp(Point::new(die.ux - 0.01, die.uy - 0.01));
            reference.set_position(id, far);
            let update = session.update(&PlacementDelta::single(id, far)).unwrap();
            if let PipelineUpdate::FullRebuild { cause } = update {
                assert!(
                    matches!(cause, RebuildCause::Compaction { .. }),
                    "crossing with a zero tombstone budget must compact, got {cause:?}"
                );
                compacted = true;
                break;
            }
        }
        assert!(compacted, "no cross-die move crossed the size filter");
        let inc = session.incremental_stats();
        assert!(inc.invalidations >= 1, "compaction must invalidate the cache, got {inc:?}");
        assert!(inc.invalidations_compaction >= 1, "invalidation must book as compaction");
        let reply = session.predict().unwrap();
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let (ops, features) = batch_inputs(&circuit, &reference, &grid, session.config());
        let direct = model.predict(&ops, &features);
        assert!(
            reply.prediction.cls_prob.approx_eq(&direct.cls_prob, 0.0),
            "post-compaction prediction must match a from-scratch build bitwise"
        );
        assert_eq!(
            session.incremental_stats().full_forwards,
            2,
            "the forward after a compaction recomputes everything"
        );
        engine.shutdown();
    }

    /// With the default tombstone budget, a size-filter crossing rides the
    /// incremental path: the activation cache survives (no invalidation),
    /// the pipeline reports the crossing as patched, and the forward
    /// after the crossing splices instead of recomputing every row.
    #[test]
    fn filter_crossings_keep_the_activation_cache() {
        let engine = engine();
        let handle = engine.handle();
        let (circuit, placement, grid) = design(13);
        let die = circuit.die;
        let mut session = handle
            .open_session(SessionConfig::new("default"), Arc::clone(&circuit), placement, grid)
            .unwrap();
        assert!(!session.predict().unwrap().cached);
        // yank one cell to the far corner (tombstoning its stretched
        // nets), then home again (reviving them): two crossings, zero
        // rebuilds
        let id = CellId(0);
        let home = session.with_pipeline(|p| p.placement().position(id));
        let far = die.clamp(Point::new(die.ux - 0.01, die.uy - 0.01));
        // outbound: a fresh placement, so the forward runs — spliced over
        // the crossing's dirty halo, not recomputed from scratch
        let update = session.update(&PlacementDelta::single(id, far)).unwrap();
        assert!(
            matches!(update, PipelineUpdate::Incremental { .. }),
            "crossing must patch in place, got {update:?}"
        );
        assert!(!session.predict().unwrap().cached);
        // homebound: revives the tombstoned columns *bitwise*, so the
        // fingerprints return to the cold values and the engine cache
        // serves the prediction without any forward at all
        let update = session.update(&PlacementDelta::single(id, home)).unwrap();
        assert!(
            matches!(update, PipelineUpdate::Incremental { .. }),
            "crossing must patch in place, got {update:?}"
        );
        assert!(
            session.predict().unwrap().cached,
            "out-and-back revival must restore the cold cache key"
        );
        let stats = session.stats();
        assert!(stats.crossings_patched >= 2, "out-and-back must count crossings: {stats:?}");
        assert_eq!(stats.full_rebuilds, 0, "crossings must not rebuild: {stats:?}");
        let inc = session.incremental_stats();
        assert_eq!(inc.invalidations, 0, "crossings must keep the cache, got {inc:?}");
        assert_eq!(inc.full_forwards, 1, "only the cold forward recomputes everything");
        assert!(inc.spliced_forwards >= 1, "crossing forward must splice, got {inc:?}");
        engine.shutdown();
    }

    /// Regression for cross-kind hot-swap: replacing a session's model
    /// with a **different architecture** mid-session must (a) evict the
    /// displaced version's cache entries, (b) recompute the session's
    /// next forward in full (a splice against the old architecture's
    /// activations would be garbage), and (c) serve the new model
    /// bitwise-identically to a direct forward.
    #[test]
    fn cross_kind_hot_swap_invalidates_sessions_and_serves_the_new_model() {
        use lhnn::{HybridNet, HybridNetConfig};
        let engine = engine();
        let handle = engine.handle();
        let (circuit, placement, grid) = design(17);
        let die = circuit.die;
        let mut session = handle
            .open_session(
                SessionConfig::new("default"),
                Arc::clone(&circuit),
                placement.clone(),
                grid.clone(),
            )
            .unwrap();
        // warm the session: a cold full forward, then a spliced one
        assert!(!session.predict().unwrap().cached);
        let mut reference = placement;
        let id = CellId(0);
        let np = die.clamp(Point::new(
            reference.position(id).x + grid.gcell_width() * 1.5,
            reference.position(id).y,
        ));
        reference.set_position(id, np);
        session.update(&PlacementDelta::single(id, np)).unwrap();
        assert!(session.predict().is_ok());
        let before = session.incremental_stats();
        assert!(before.spliced_forwards >= 1, "warm-up must splice, got {before:?}");
        assert!(handle.cache_len() >= 1);

        // hot-swap LHNN -> HybridNet under the same registry name
        let hybrid = HybridNet::new(HybridNetConfig::default(), 3);
        let reference_model = HybridNet::new(HybridNetConfig::default(), 3);
        let entry = handle.replace_model("default", hybrid).unwrap();
        assert_eq!(entry.model.kind(), "hybridnet");
        assert_eq!(handle.cache_len(), 0, "displaced kind's entries must be evicted");

        // the session now serves the new architecture, bitwise equal to a
        // direct HybridNet forward on freshly built inputs
        let reply = session.predict().unwrap();
        assert!(!reply.cached, "old kind's cache entries must not answer");
        let (ops, features) = batch_inputs(&circuit, &reference, &grid, session.config());
        let direct = reference_model.predict(&ops, &features);
        assert!(
            reply.prediction.cls_prob.approx_eq(&direct.cls_prob, 0.0),
            "post-swap prediction must match a direct HybridNet forward bitwise"
        );
        let after = session.incremental_stats();
        assert_eq!(
            after.full_forwards,
            before.full_forwards + 1,
            "the first post-swap forward must recompute everything"
        );
        engine.shutdown();
    }

    #[test]
    fn sessions_pin_their_design_shard() {
        let engine = sharded_engine(3);
        let handle = engine.handle();
        let (circuit, placement, grid) = design(5);
        let expected = handle.shard_of_design(&circuit.name);
        let mut session = handle
            .open_session(
                SessionConfig::new("default"),
                Arc::clone(&circuit),
                placement.clone(),
                grid.clone(),
            )
            .unwrap();
        assert_eq!(session.shard(), expected);
        assert!(session.predict().is_ok());
        // the prediction landed in the pinned shard's cache
        assert_eq!(handle.shard_cache_len(expected), 1);
        // an explicit design id overrides the circuit name
        let named = handle
            .open_session(
                SessionConfig::new("default").with_design("other-design"),
                circuit,
                placement,
                grid,
            )
            .unwrap();
        assert_eq!(named.shard(), handle.shard_of_design("other-design"));
        engine.shutdown();
    }
}
