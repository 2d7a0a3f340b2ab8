//! Stateful placement-loop sessions: the incremental serving surface.
//!
//! A stateless [`crate::ServeHandle::predict`] forces every caller to
//! rebuild graph operators and features per query — fine for one-shot
//! CLIs, wasteful for a placer that perturbs a few cells and re-queries
//! thousands of times. A [`Session`] keeps a [`LatticePipeline`] hot per
//! design: an update patches it in place, and a predict splices over the
//! dirty halo, both on the caller's thread. A predict goes through the
//! engine's prediction cache, so a state seen before costs no forward.
//!
//! ```text
//! open_session(circuit, placement)      // one full build
//!   loop {
//!     session.update(&delta)            // patches the pipeline in place
//!     session.predict()                 // spliced forward, same thread
//!   }
//! ```
//!
//! # Ordering and determinism
//!
//! A session is one owned value: both calls take `&mut self`, so updates
//! apply in call order and a predict describes every update applied
//! before it. Combined with the bitwise-deterministic kernel backend, any
//! interleaving of sessions across any client count yields predictions
//! bitwise identical to serial execution (the interleaved-session replay
//! proptest enforces it).
//!
//! # Failure discipline
//!
//! The session has one failure state, the pipeline's own poisoning
//! ([`LatticePipeline::is_poisoned`]). A delta naming a cell outside the
//! circuit or a non-finite position is refused by the pipeline with
//! [`ServeError::Session`] and changes nothing. An update that fails past
//! that check (e.g. a structural fallback rebuild that leaves no net)
//! poisons the pipeline: the update *and every later predict* fail until
//! a delta admits a successful rebuild. A panic mid-update propagates to
//! the session's owner like any panic in a value they own, and leaves the
//! pipeline poisoned the same way; the engine keeps serving every other
//! session.
//!
//! Because incremental updates are bitwise identical to full rebuilds,
//! the engine's fingerprint-keyed prediction cache composes
//! transparently: a `predict` after a no-op update (or after a delta
//! that returns to a previously seen placement) hits the cache exactly
//! as if the inputs had been batch-built.

use std::sync::Arc;

use lh_graph::FeatureSet;
use lhnn::{
    ForwardDirty, GraphOps, IncrementalForward, IncrementalStats, InvalidationCause,
    LatticePipeline, PipelineStats, PipelineUpdate, RebuildCause,
};
use lhnn_obs::{Counter, FlightEventKind, FlightRecorder};
use vlsi_netlist::{Circuit, GcellGrid, Placement, PlacementDelta};

use crate::engine::{PredictRequest, ServeHandle, ServeReply};
use crate::error::{Result, ServeError};

/// Options for [`ServeHandle::open_session`].
///
/// A session's pipeline uses the default LH-graph config, and its
/// predictions the conventional 0.5 threshold and the reproduction's fixed
/// feature divisors ([`FeatureSet::default_divisors`]).
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Registry name of the model to serve with.
    pub model: String,
    /// Design id that labels the session's metrics and flight events.
    /// `None` (the default) uses the circuit's name.
    pub design: Option<String>,
}

impl SessionConfig {
    /// Defaults: design id from the circuit's name.
    pub fn new(model: impl Into<String>) -> Self {
        Self { model: model.into(), design: None }
    }

    /// Sets an explicit design id for the session's metrics and flight
    /// events.
    #[must_use]
    pub fn with_design(mut self, design: impl Into<String>) -> Self {
        self.design = Some(design.into());
        self
    }
}

/// One session's merged observability view ([`Session::observability`]):
/// the pipeline and incremental-forward counters side by side, tagged
/// with the design id they describe. Both are reads of the engine
/// registry's `{design}` and `{design,model}` cells.
#[derive(Debug, Clone)]
pub struct SessionObservability {
    /// The design id the session labels its metrics by.
    pub design: String,
    /// Update-path counters: noops, incremental patches, fallbacks.
    pub pipeline: PipelineStats,
    /// Forward-path counters: reused, spliced, full, invalidations.
    pub incremental: IncrementalStats,
}

/// A hot placement-loop session over one design.
///
/// Owned by the placer thread driving it, which also runs its forwards;
/// the engine's prediction cache is shared with every other client of the
/// [`ServeHandle`].
#[derive(Debug)]
pub struct Session {
    handle: ServeHandle,
    /// Registry name of the model the session serves with.
    model: String,
    pipeline: LatticePipeline,
    /// Scaled snapshot of the pipeline state, rebuilt lazily after a
    /// non-noop update. Holding `Arc`s means repeated `predict` calls on
    /// an unchanged placement submit pointer-identical inputs.
    snapshot: Option<(Arc<GraphOps>, Arc<FeatureSet>)>,
    /// Bounded-radius forward state for this design: cached per-layer
    /// activations plus the dirty sets noted by applied updates. Updates
    /// note every outcome here, in apply order; `predict` runs it as the
    /// forward on a cache miss, splicing instead of recomputing every
    /// G-cell.
    incr: IncrementalForward,
    /// The design id the session labels its metrics and flight events by.
    design: String,
    /// The engine's flight recorder: fallback/compaction/poison events
    /// carry the design as scope (dropped on a metrics-off engine).
    flight: Arc<FlightRecorder>,
    /// The engine's `lhnn_session_updates_total` cell: every update call
    /// counts once.
    updates: Counter,
}

impl ServeHandle {
    /// Opens a placement-loop session: builds the full pipeline once and
    /// keeps it hot for incremental updates.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] if `cfg.model` is not registered;
    /// [`ServeError::Session`] if the initial pipeline build fails.
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
        let design = cfg.design.unwrap_or_else(|| circuit.name.clone());
        let mut pipeline = LatticePipeline::for_serving(circuit, placement, grid)
            .map_err(|e| ServeError::Session(e.to_string()))?;
        // Wire the design's counts and spans into the engine's registry
        // and flight recorder (a metrics-off engine keeps the counts and
        // drops the spans and events).
        let engine_obs = self.obs();
        pipeline.set_metrics(&engine_obs.registry, &design);
        let incr =
            IncrementalForward::with_metrics(&engine_obs.registry, &design, entry.model.kind());
        Ok(Session {
            handle: self.clone(),
            model: cfg.model,
            pipeline,
            snapshot: None,
            incr,
            design,
            flight: Arc::clone(&engine_obs.flight),
            updates: engine_obs.counts.session_updates.clone(),
        })
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
    /// circuit or a non-finite position (nothing is applied), or if the
    /// update fails past that check and poisons the pipeline (e.g. a
    /// structural fallback rebuild after the delta pushed every net past
    /// the size filter).
    pub fn update(&mut self, delta: &PlacementDelta) -> Result<PipelineUpdate> {
        self.updates.inc();
        let update = match self.pipeline.apply(delta) {
            Ok(update) => update,
            Err(e) => {
                // A refused delta left the pipeline as it was. Anything
                // else poisoned it: graph and features may lag the
                // placement until a later update rebuilds, so the snapshot
                // and the cached forward die with them.
                if self.pipeline.is_poisoned() {
                    self.snapshot = None;
                    self.incr.note_structural(InvalidationCause::Poisoned);
                    self.flight.record(
                        FlightEventKind::Poisoned,
                        &self.design,
                        format!("update failed: {e}"),
                    );
                }
                return Err(ServeError::Session(e.to_string()));
            }
        };
        // Feed the incremental-forward notes, in apply order. A noop
        // touches nothing; an incremental patch contributes its dirty sets
        // (including tombstoned/revived/appended filter-crossing columns —
        // stable columns keep those on the splice path); a full rebuild
        // may have renumbered G-net columns, so the activation cache must
        // die with it.
        match &update {
            PipelineUpdate::Noop => return Ok(update),
            PipelineUpdate::Incremental { dirty_nets, dirty_gcells } => {
                self.incr
                    .note_incremental(&ForwardDirty::new(dirty_gcells.clone(), dirty_nets.clone()));
            }
            PipelineUpdate::FullRebuild { cause } => {
                self.incr.note_structural(InvalidationCause::from(cause));
                let (kind, detail) = match cause {
                    RebuildCause::Compaction { tombstones, live } => (
                        FlightEventKind::Compaction,
                        format!("compacted {tombstones} tombstoned g-net columns ({live} live)"),
                    ),
                    _ => (FlightEventKind::Fallback, format!("full rebuild: {cause}")),
                };
                self.flight.record(kind, &self.design, detail);
            }
        }
        self.snapshot = None;
        Ok(update)
    }

    /// Predicts congestion for the current placement, on the caller's
    /// thread.
    ///
    /// The engine's cache answers a state seen before; otherwise the
    /// session's bounded-radius forward splices over the region the
    /// updates dirtied, and the result lands in the cache.
    ///
    /// # Errors
    ///
    /// [`ServeError::Session`] if the pipeline is poisoned (an update did
    /// not complete, so graph/features may lag the placement — answering
    /// would serve a stale map as current);
    /// [`ServeError::ShuttingDown`] once the engine shut down;
    /// [`ServeError::WorkerLost`] if the forward panicked; otherwise the
    /// engine's admission errors ([`ServeError::UnknownModel`],
    /// [`ServeError::Incompatible`]).
    pub fn predict(&mut self) -> Result<ServeReply> {
        let (ops, features, seq) = self.inputs_with_seq()?;
        let request = PredictRequest::new(&self.model, Arc::clone(&ops), Arc::clone(&features));
        let incr = &self.incr;
        let reply = self.handle.predict_here(&request, |entry| {
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
    /// snapshot could describe an older placement than the session's).
    pub fn inputs(&mut self) -> Result<(Arc<GraphOps>, Arc<FeatureSet>)> {
        let (ops, features, _) = self.inputs_with_seq()?;
        Ok((ops, features))
    }

    /// [`Session::inputs`] plus the incremental-forward note sequence at
    /// the snapshot, so dirt noted after it stays pending across the
    /// forward that consumes it.
    fn inputs_with_seq(&mut self) -> Result<(Arc<GraphOps>, Arc<FeatureSet>, u64)> {
        if self.pipeline.is_poisoned() {
            return Err(ServeError::Session(
                "pipeline is poisoned (an update did not complete); apply a delta that admits \
                 a rebuild before predicting"
                    .into(),
            ));
        }
        let pipeline = &self.pipeline;
        let (ops, features) = self.snapshot.get_or_insert_with(|| {
            let (gcell_div, gnet_div) = FeatureSet::default_divisors();
            (pipeline.ops(), Arc::new(pipeline.features().scaled_fixed(&gcell_div, &gnet_div)))
        });
        Ok((Arc::clone(ops), Arc::clone(features), self.incr.seq()))
    }

    /// Runs `f` against the hot pipeline (placement, graph, counters).
    /// A poisoned pipeline is exposed here too, for diagnostics; prefer
    /// [`Session::inputs`] / [`Session::predict`] for anything that must
    /// refuse stale state.
    pub fn with_pipeline<T>(&self, f: impl FnOnce(&LatticePipeline) -> T) -> T {
        f(&self.pipeline)
    }

    /// The pipeline's lifetime counters.
    /// [`PipelineStats::stale`] is set while the pipeline is poisoned —
    /// the counters then describe an older placement.
    pub fn stats(&self) -> PipelineStats {
        self.pipeline.stats()
    }

    /// The incremental-forward counters: how many predictions were served
    /// without a forward (activation or prediction cache), spliced over a dirty
    /// halo, or recomputed in full, and how often structural events
    /// invalidated the cache. Sessions sharing a design id and model share
    /// these cells.
    pub fn incremental_stats(&self) -> IncrementalStats {
        self.incr.stats()
    }

    /// `(operators, features)` content fingerprints of the current state.
    ///
    /// # Errors
    ///
    /// [`ServeError::Session`] while the pipeline is poisoned: the
    /// fingerprints could describe an older placement, not the session's.
    pub fn fingerprints(&self) -> Result<(u64, u64)> {
        self.pipeline.fingerprints().map_err(|e| ServeError::Session(e.to_string()))
    }

    /// One merged observability view of the session: the pipeline's
    /// lifetime counters and the incremental-forward counters, captured
    /// together with the design id. Both are reads of
    /// the `{design}`-labelled series in the engine's registry snapshot
    /// ([`crate::ServeHandle::metrics_snapshot`]).
    pub fn observability(&self) -> SessionObservability {
        SessionObservability {
            design: self.design.clone(),
            pipeline: self.stats(),
            incremental: self.incremental_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, ServeEngine};
    use crate::registry::ModelRegistry;
    use lh_graph::LhGraphConfig;
    use lhnn::{AblationSpec, CongestionModel, Lhnn, LhnnConfig};
    use vlsi_netlist::synth::{generate, SynthConfig};
    use vlsi_netlist::{CellId, Point};
    use vlsi_place::GlobalPlacer;

    fn engine() -> ServeEngine {
        let registry = Arc::new(ModelRegistry::new());
        registry.register("default", Lhnn::new(LhnnConfig::default(), 0)).unwrap();
        ServeEngine::new(registry, EngineConfig::default())
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
            let (ops, features) = batch_inputs(&circuit, &placement, &grid);
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
    ) -> (GraphOps, FeatureSet) {
        let graph =
            lh_graph::LhGraph::build(circuit, placement, grid, &LhGraphConfig::default()).unwrap();
        let (gd, nd) = FeatureSet::default_divisors();
        let features =
            FeatureSet::build(&graph, circuit, placement, grid).unwrap().scaled_fixed(&gd, &nd);
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

    #[test]
    fn poisoned_session_refuses_to_serve_stale_predictions() {
        use vlsi_netlist::{Cell, Net, Pin, Rect};
        let engine = engine();
        let handle = engine.handle();
        // Single 2-pin net on a 4x4 grid, where the default size filter
        // keeps nets of at most 1 g-cell: stretching it is structural and
        // the fallback rebuild fails (no nets survive).
        let die = Rect::new(0.0, 0.0, 8.0, 8.0);
        let grid = GcellGrid::new(die, 4, 4);
        let mut c = Circuit::new("tiny", die);
        let a = c.add_cell(Cell::movable("a", 0.2, 0.2));
        let b = c.add_cell(Cell::movable("b", 0.2, 0.2));
        c.add_net(Net::new("n", vec![Pin::at_center(a), Pin::at_center(b)]));
        let mut placement = Placement::zeroed(2);
        placement.set_position(a, Point::new(1.0, 1.0));
        placement.set_position(b, Point::new(1.2, 1.2));
        let mut session = handle
            .open_session(SessionConfig::new("default"), Arc::new(c), placement, grid)
            .unwrap();
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

    /// A panic in a caller's pipeline closure is the caller's: it reaches
    /// them, touches no session state, and the session keeps updating and
    /// predicting bitwise equal to a direct forward.
    #[test]
    fn pipeline_closure_panic_reaches_the_caller_and_the_session_keeps_serving() {
        let engine = engine();
        let handle = engine.handle();
        let (circuit, placement, grid) = design(11);
        let mut session = handle
            .open_session(
                SessionConfig::new("default"),
                Arc::clone(&circuit),
                placement.clone(),
                grid.clone(),
            )
            .unwrap();
        assert!(session.predict().is_ok());
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.with_pipeline(|_| panic!("inspector crashed"))
        }));
        let payload = crash.unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"inspector crashed"));
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let mut placement = placement;
        for step in 0..3u32 {
            let id = CellId(step + 1);
            let to = circuit.die.clamp(Point::new(
                placement.position(id).x + grid.gcell_width() * 1.5,
                placement.position(id).y,
            ));
            placement.set_position(id, to);
            session.update(&PlacementDelta::single(id, to)).unwrap();
            let reply = session.predict().unwrap();
            let (ops, features) = batch_inputs(&circuit, &placement, &grid);
            let direct = model.predict(&ops, &features);
            assert!(reply.prediction.cls_prob.approx_eq(&direct.cls_prob, 0.0), "step {step}");
            assert!(reply.prediction.reg.approx_eq(&direct.reg, 0.0), "step {step}");
        }
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
        let (ops, features) = batch_inputs(&circuit, &placement, &grid);
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
    /// build bitwise. Yanking cells to alternating far corners stretches
    /// nets past the size filter until the tombstones exceed the default
    /// budget.
    #[test]
    fn compaction_invalidates_the_activation_cache() {
        let engine = engine();
        let handle = engine.handle();
        let (circuit, placement, grid) = design(13);
        let die = circuit.die;
        let mut session = handle
            .open_session(
                SessionConfig::new("default"),
                Arc::clone(&circuit),
                placement.clone(),
                grid.clone(),
            )
            .unwrap();
        assert!(session.predict().is_ok());
        // yank cells to alternating far corners: each stretches kept nets
        // past the size filter and tombstones their columns, until the
        // tombstones exceed the budget and the crossing compacts (full
        // rebuild)
        let mut reference = placement;
        let mut compacted = false;
        for i in 0..20u32 {
            let id = CellId(i);
            let far = if i % 2 == 0 {
                Point::new(die.ux - 0.01, die.uy - 0.01)
            } else {
                Point::new(die.lx + 0.01, die.ly + 0.01)
            };
            reference.set_position(id, far);
            let update = session.update(&PlacementDelta::single(id, far)).unwrap();
            if let PipelineUpdate::FullRebuild { cause } = update {
                assert!(
                    matches!(cause, RebuildCause::Compaction { .. }),
                    "a crossing past the tombstone budget must compact, got {cause:?}"
                );
                compacted = true;
                break;
            }
        }
        assert!(compacted, "the cross-die moves never exceeded the tombstone budget");
        let inc = session.incremental_stats();
        assert!(inc.invalidations >= 1, "compaction must invalidate the cache, got {inc:?}");
        assert!(inc.invalidations_compaction >= 1, "invalidation must book as compaction");
        let reply = session.predict().unwrap();
        let model = Lhnn::new(LhnnConfig::default(), 0);
        let (ops, features) = batch_inputs(&circuit, &reference, &grid);
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
        let (ops, features) = batch_inputs(&circuit, &reference, &grid);
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
}
