//! The incremental lattice pipeline: placement-in-the-loop construction.
//!
//! A placer perturbs a few cells and re-queries congestion thousands of
//! times per design. [`LatticePipeline`] keeps the whole
//! netlist → [`LhGraph`] → [`FeatureSet`] → [`GraphOps`] chain *hot*:
//! the first build is the ordinary batch construction, and every
//! subsequent [`LatticePipeline::apply`] patches only what a
//! [`PlacementDelta`] dirtied — re-binned nets, their covered G-cell rows,
//! crossed pin boundaries, and (with stable G-net columns) nets crossing
//! the size filter, which tombstone/revive/append columns in place. A
//! full rebuild only happens when tombstones exceed the lazy-compaction
//! threshold, when a crossing would leave no live column, or when the
//! pipeline recovers from a failed rebuild — [`RebuildCause`] names which.
//!
//! The hard guarantee, mirroring the kernel backend's thread-count
//! invariance: at any point in any delta sequence, the pipeline's graph,
//! features and operator fingerprints are **bitwise identical** to a
//! from-scratch rebuild at the current placement with the pipeline's own
//! column layout (`LhGraph::build_with_columns`) — and to the canonical
//! `LhGraph::build` right after every compaction. Serving caches keyed on
//! those fingerprints therefore behave identically whether a state was
//! reached incrementally or batch-built.

use std::sync::Arc;

use lh_graph::{DeltaOutcome, FeatureSet, LhGraph, LhGraphConfig, LhGraphError, StructuralReason};
use lhnn_obs::{Counter, Histogram, Registry};
use vlsi_netlist::{rebin_delta_in_place, Circuit, GcellGrid, NetId, Placement, PlacementDelta};

use crate::config::AblationSpec;
use crate::ops::GraphOps;

/// What one [`LatticePipeline::apply`] call did.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineUpdate {
    /// The delta changed nothing grid-derived (moves within a G-cell, or
    /// no effective moves): graph, features and fingerprints are
    /// untouched, so downstream prediction caches stay hot.
    Noop,
    /// Dirty rows were patched in place.
    Incremental {
        /// G-net rows whose span/features changed (sorted, unique).
        dirty_nets: Vec<usize>,
        /// G-cell rows whose features or operator rows changed (sorted,
        /// unique; includes pin-move source/target bins, and every row
        /// when a terminal moved — the terminal mask repaints globally).
        dirty_gcells: Vec<usize>,
    },
    /// The chain was rebuilt from scratch. Filter crossings no longer end
    /// up here (they tombstone/revive/append columns on the
    /// [`PipelineUpdate::Incremental`] path); see [`RebuildCause`].
    FullRebuild {
        /// Why the incremental path refused the delta.
        cause: RebuildCause,
    },
}

/// Why a [`PipelineUpdate::FullRebuild`] happened. Enum-coded so the
/// fallback path allocates nothing and stats/tests can split rebuilds by
/// cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildCause {
    /// The tombstone fraction crossed
    /// [`LhGraphConfig::max_tombstone_fraction`]: the rebuild compacts the
    /// column space (the only event that renumbers G-net columns).
    Compaction {
        /// Tombstoned columns the compaction reclaims.
        tombstones: usize,
        /// Live columns surviving the compaction.
        live: usize,
    },
    /// A filter crossing would leave no live G-net column — the one
    /// crossing shape that cannot be tombstone-patched.
    NoLiveColumns,
    /// The pipeline was poisoned by an earlier update or rebuild that did
    /// not complete, and must rebuild before trusting any incremental
    /// state again.
    PoisonedRecovery,
}

impl std::fmt::Display for RebuildCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebuildCause::Compaction { tombstones, live } => {
                write!(f, "compacting {tombstones} tombstoned g-net columns ({live} live)")
            }
            RebuildCause::NoLiveColumns => {
                f.write_str("no g-net column would survive the size filter")
            }
            RebuildCause::PoisonedRecovery => {
                f.write_str("recovering from an update that did not complete")
            }
        }
    }
}

impl From<StructuralReason> for RebuildCause {
    fn from(reason: StructuralReason) -> Self {
        match reason {
            StructuralReason::Compaction { tombstones, live } => {
                RebuildCause::Compaction { tombstones, live }
            }
            StructuralReason::NoLiveColumns => RebuildCause::NoLiveColumns,
        }
    }
}

/// Counters over a pipeline's lifetime (diagnostics and bench reporting):
/// a read of its registry cells, labelled `{design}` (see
/// [`LatticePipeline::set_metrics`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineStats {
    /// `apply` calls past the delta check (a refused delta is not
    /// counted).
    pub updates: usize,
    /// Deltas that changed nothing grid-derived.
    pub noops: usize,
    /// Deltas served by the incremental patch path.
    pub incremental: usize,
    /// Deltas that forced a full rebuild (a failed rebuild counts too: it
    /// leaves the pipeline poisoned).
    pub full_rebuilds: usize,
    /// Rebuilds caused by a filter crossing the tombstone path could not
    /// absorb ([`RebuildCause::NoLiveColumns`]). Stable columns should
    /// keep this at zero on realistic designs.
    pub rebuilds_filter_crossing: usize,
    /// Rebuilds caused by lazy compaction
    /// ([`RebuildCause::Compaction`]) — the only event that renumbers
    /// G-net columns.
    pub rebuilds_compaction: usize,
    /// Rebuilds forced while recovering from an update that did not
    /// complete ([`RebuildCause::PoisonedRecovery`]).
    pub rebuilds_poisoned: usize,
    /// Size-filter crossings absorbed by the incremental path
    /// (tombstoned + revived/appended columns, summed over updates).
    pub crossings_patched: usize,
    /// Total G-net columns dirtied by incremental updates.
    pub dirty_nets: usize,
    /// Total G-cell rows recomputed by incremental updates.
    pub dirty_gcells: usize,
    /// Set when the pipeline is poisoned: these counters (and any
    /// fingerprints) describe the *pre-failure* placement, not the
    /// current one. See [`LatticePipeline::is_poisoned`].
    pub stale: bool,
}

/// Error returned by [`LatticePipeline::fingerprints`] while the pipeline
/// is poisoned: graph/features/ops may describe an older placement, so
/// handing out their fingerprints as current would let a caller key a
/// cache (or claim parity) on stale state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StalePipeline;

impl std::fmt::Display for StalePipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pipeline is poisoned (an update did not complete): fingerprints describe an \
             older placement; apply a delta that admits a rebuild first"
        )
    }
}

impl std::error::Error for StalePipeline {}

/// Metric handles for one pipeline, resolved once per registry. They are
/// its only counters: [`LatticePipeline::stats`] reads them back. The
/// update span hierarchy mirrors [`LatticePipeline::apply`]: rebin →
/// graph patch → feature patch, with `rebuild` covering the structural
/// fallback.
#[derive(Debug)]
struct PipelineObs {
    rebin: Histogram,
    graph_patch: Histogram,
    feature_patch: Histogram,
    rebuild: Histogram,
    updates: Counter,
    noops: Counter,
    /// One observation per incremental patch: the count is the number of
    /// patches, the sum the dirty rows.
    dirty_gcells: Histogram,
    dirty_gnets: Histogram,
    crossings_patched: Counter,
    /// `lhnn_fallbacks_total{design,cause}`, indexed like [`FALLBACK_CAUSES`].
    fallbacks: [Counter; 3],
}

/// The `cause` label values of `lhnn_fallbacks_total`.
const FALLBACK_CAUSES: [&str; 3] = ["compaction", "filter_crossing", "poisoned"];

impl RebuildCause {
    /// Index into [`FALLBACK_CAUSES`].
    fn index(self) -> usize {
        match self {
            RebuildCause::Compaction { .. } => 0,
            RebuildCause::NoLiveColumns => 1,
            RebuildCause::PoisonedRecovery => 2,
        }
    }
}

impl PipelineObs {
    fn new(registry: &Registry, design: &str) -> Self {
        let d = &[("design", design)][..];
        Self {
            rebin: registry.stage("rebin"),
            graph_patch: registry.stage("graph_patch"),
            feature_patch: registry.stage("feature_patch"),
            rebuild: registry.stage("rebuild"),
            updates: registry.counter_with("lhnn_updates_total", d),
            noops: registry.counter_with("lhnn_noops_total", d),
            dirty_gcells: registry.histogram_with("lhnn_dirty_gcells", d),
            dirty_gnets: registry.histogram_with("lhnn_dirty_gnets", d),
            crossings_patched: registry.counter_with("lhnn_crossings_patched_total", d),
            fallbacks: FALLBACK_CAUSES.map(|cause| {
                registry
                    .counter_with("lhnn_fallbacks_total", &[("design", design), ("cause", cause)])
            }),
        }
    }
}

/// The stateful construction pipeline for one design on one grid.
///
/// Builds with the default [`LhGraphConfig`] and the full (un-ablated)
/// operator set — the serving configuration. Owns its [`Placement`] copy;
/// callers mutate it exclusively through [`LatticePipeline::apply`].
/// Snapshots ([`LatticePipeline::ops`], [`LatticePipeline::features`]) are
/// `Arc`-shared, so an in-flight prediction keeps its inputs alive while
/// the pipeline moves on.
#[derive(Debug)]
pub struct LatticePipeline {
    circuit: Arc<Circuit>,
    grid: GcellGrid,
    cell_to_nets: Vec<Vec<NetId>>,
    placement: Placement,
    graph: LhGraph,
    features: Arc<FeatureSet>,
    ops: Arc<GraphOps>,
    obs: PipelineObs,
    /// The one failure state: set on entry to every `apply` and `rebuild`
    /// and cleared only when they succeed. An early exit (an error or a
    /// panic) may leave the placement advanced while graph/features/ops
    /// still describe an older one, so every later `apply` rebuilds
    /// ([`RebuildCause::PoisonedRecovery`]) until one succeeds, and the
    /// stale state never leaks through the incremental path.
    poisoned: bool,
}

impl LatticePipeline {
    /// Builds the full chain once (the batch path every query used to
    /// take).
    ///
    /// # Errors
    ///
    /// Propagates [`lh_graph`] build failures (empty graph, dimension or
    /// grid-shape mismatches).
    pub fn for_serving(
        circuit: Arc<Circuit>,
        placement: Placement,
        grid: GcellGrid,
    ) -> lh_graph::Result<Self> {
        let graph = LhGraph::build(&circuit, &placement, &grid, &LhGraphConfig::default())?;
        let features = FeatureSet::build(&graph, &circuit, &placement, &grid)?;
        let ops = GraphOps::from_graph(&graph, &AblationSpec::full());
        let cell_to_nets = circuit.cell_to_nets();
        Ok(Self {
            cell_to_nets,
            circuit,
            grid,
            placement,
            graph,
            features: Arc::new(features),
            ops: Arc::new(ops),
            // Counts go to a private registry whose span timers never read
            // the clock, until `set_metrics` names a shared one.
            obs: PipelineObs::new(&Registry::disabled(), ""),
            poisoned: false,
        })
    }

    /// Reports later updates to `registry`: `rebin`/`graph_patch`/
    /// `feature_patch`/`rebuild` stage spans and the update counters and
    /// dirty-set histograms labelled `{design}` (the fallback counter also
    /// by `cause`). Counts recorded before the call stay with the old
    /// registry. Timing-only — graph/feature/fingerprint state is
    /// untouched by recording.
    pub fn set_metrics(&mut self, registry: &Registry, design: &str) {
        self.obs = PipelineObs::new(registry, design);
    }

    /// Applies a placement delta, patching graph, features and operators
    /// incrementally where possible.
    ///
    /// # Errors
    ///
    /// [`LhGraphError::InvalidDelta`] if a move names a cell outside the
    /// circuit or a non-finite position: nothing is applied or counted,
    /// and the pipeline stays as it was. Otherwise propagates failures of
    /// the graph patch, the feature patch and the full-rebuild fallback
    /// (e.g. the delta moved every net past the size filter). The
    /// placement may already be advanced then, so the pipeline stays
    /// poisoned ([`LatticePipeline::is_poisoned`]): every later `apply`
    /// forces a rebuild (never the incremental path against the stale
    /// graph) until one succeeds — e.g. after a delta that moves nets back
    /// below the filter. A panic mid-apply leaves it poisoned the same way.
    pub fn apply(&mut self, delta: &PlacementDelta) -> lh_graph::Result<PipelineUpdate> {
        check_delta(delta, self.circuit.num_cells())?;
        self.obs.updates.inc();
        let recovering = std::mem::replace(&mut self.poisoned, true);
        let update = self.patch(delta, recovering)?;
        self.poisoned = false;
        Ok(update)
    }

    /// [`LatticePipeline::apply`] past the delta check, with `poisoned`
    /// already set: rebin, then patch or fall back. `recovering` says the
    /// pipeline was poisoned before this delta, so it must rebuild.
    fn patch(
        &mut self,
        delta: &PlacementDelta,
        recovering: bool,
    ) -> lh_graph::Result<PipelineUpdate> {
        let t_rebin = self.obs.rebin.start();
        let report = rebin_delta_in_place(
            &self.circuit,
            &self.grid,
            &mut self.placement,
            delta,
            &self.cell_to_nets,
        );
        self.obs.rebin.stop_us(t_rebin);
        if recovering {
            return self.fall_back(RebuildCause::PoisonedRecovery);
        }
        if report.is_clean() {
            self.obs.noops.inc();
            return Ok(PipelineUpdate::Noop);
        }
        let t_graph = self.obs.graph_patch.start();
        let outcome = self.graph.apply_delta(&self.grid, &LhGraphConfig::default(), &report);
        self.obs.graph_patch.stop_us(t_graph);
        match outcome? {
            DeltaOutcome::Patched(patch) => {
                let t_feat = self.obs.feature_patch.start();
                let features = self.features.apply_delta(
                    &patch,
                    &report,
                    &self.circuit,
                    &self.placement,
                    &self.grid,
                )?;
                // The dirty G-cell set a downstream incremental forward
                // must recompute: net-coverage rows, plus pin-move
                // source/target bins (pin density is ±1-adjusted there),
                // plus every row when a terminal moved (the terminal mask
                // repaints globally).
                let mut dirty_gcells = patch.dirty_rows.clone();
                if report.moved_terminal {
                    dirty_gcells = (0..patch.graph.num_gcells()).collect();
                } else {
                    for pm in &report.pin_moves {
                        if patch.graph.net_column(pm.net).is_some() {
                            dirty_gcells.push(pm.from);
                            dirty_gcells.push(pm.to);
                        }
                    }
                }
                let dirty_gcells = lh_graph::halo::canonicalize(dirty_gcells);
                // Tombstoned columns count as dirty too: their feature
                // rows were zeroed, which changes downstream activations
                // just as a span move does.
                let mut dirty_nets = patch.dirty_cols.clone();
                dirty_nets.extend_from_slice(&patch.tombstoned_cols);
                let dirty_nets = lh_graph::halo::canonicalize(dirty_nets);
                let crossings = patch.crossed_out.len() + patch.crossed_in.len();
                self.ops = Arc::new(self.ops.patch_from(&patch.graph, &AblationSpec::full()));
                self.graph = patch.graph;
                self.features = Arc::new(features);
                self.obs.feature_patch.stop_us(t_feat);
                self.obs.dirty_gcells.observe(dirty_gcells.len() as u64);
                self.obs.dirty_gnets.observe(dirty_nets.len() as u64);
                self.obs.crossings_patched.add(crossings as u64);
                Ok(PipelineUpdate::Incremental { dirty_nets, dirty_gcells })
            }
            // NoLiveColumns is the one crossing shape the tombstone path
            // cannot absorb, so it books under filter crossings.
            DeltaOutcome::Structural(reason) => self.fall_back(RebuildCause::from(reason)),
        }
    }

    /// The structural fallback: counted before the attempt, because a
    /// failed rebuild is still a structural event worth alerting on.
    fn fall_back(&mut self, cause: RebuildCause) -> lh_graph::Result<PipelineUpdate> {
        self.obs.fallbacks[cause.index()].inc();
        self.rebuild()?;
        Ok(PipelineUpdate::FullRebuild { cause })
    }

    /// Rebuilds the whole chain from scratch at the current placement
    /// (public so benchmarks can measure the batch path against
    /// [`LatticePipeline::apply`]).
    ///
    /// # Errors
    ///
    /// Propagates [`lh_graph`] build failures; until a rebuild succeeds,
    /// the pipeline stays poisoned and refuses the incremental path.
    pub fn rebuild(&mut self) -> lh_graph::Result<()> {
        let t_rebuild = self.obs.rebuild.start();
        self.poisoned = true;
        let cfg = LhGraphConfig::default();
        let graph = LhGraph::build(&self.circuit, &self.placement, &self.grid, &cfg)?;
        let features = FeatureSet::build(&graph, &self.circuit, &self.placement, &self.grid)?;
        self.ops = Arc::new(GraphOps::from_graph(&graph, &AblationSpec::full()));
        self.graph = graph;
        self.features = Arc::new(features);
        self.poisoned = false;
        self.obs.rebuild.stop_us(t_rebuild);
        Ok(())
    }

    /// The current operator snapshot (cheap `Arc` clone).
    pub fn ops(&self) -> Arc<GraphOps> {
        Arc::clone(&self.ops)
    }

    /// The current raw (unscaled) feature snapshot (cheap `Arc` clone).
    pub fn features(&self) -> Arc<FeatureSet> {
        Arc::clone(&self.features)
    }

    /// The current graph.
    pub fn graph(&self) -> &LhGraph {
        &self.graph
    }

    /// The pipeline's placement copy.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The circuit this pipeline serves.
    pub fn circuit(&self) -> &Arc<Circuit> {
        &self.circuit
    }

    /// The G-cell grid.
    pub fn grid(&self) -> &GcellGrid {
        &self.grid
    }

    /// Whether an `apply` or `rebuild` that did not succeed may have left
    /// graph/features/ops behind the placement. Reads of
    /// [`LatticePipeline::ops`] / [`LatticePipeline::features`] /
    /// [`LatticePipeline::fingerprints`] may describe an older placement
    /// until a rebuild succeeds; serving surfaces must refuse to answer
    /// from a poisoned pipeline.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Lifetime counters read from the registry cells, tagged stale while
    /// the pipeline is poisoned (the counts then describe the pre-failure
    /// placement).
    pub fn stats(&self) -> PipelineStats {
        let o = &self.obs;
        let [compaction, filter_crossing, poisoned] = o.fallbacks.each_ref().map(Counter::get);
        let (gcells, gnets) = (o.dirty_gcells.snapshot(), o.dirty_gnets.snapshot());
        let n = |v: u64| usize::try_from(v).unwrap_or(usize::MAX);
        PipelineStats {
            updates: n(o.updates.get()),
            noops: n(o.noops.get()),
            incremental: n(gcells.count),
            full_rebuilds: n(compaction + filter_crossing + poisoned),
            rebuilds_filter_crossing: n(filter_crossing),
            rebuilds_compaction: n(compaction),
            rebuilds_poisoned: n(poisoned),
            crossings_patched: n(o.crossings_patched.get()),
            dirty_nets: n(gnets.sum),
            dirty_gcells: n(gcells.sum),
            stale: self.poisoned,
        }
    }

    /// `(operators, features)` content fingerprints — the serving cache
    /// key components. Cheap after an incremental update: patched operator
    /// matrices carry pre-seeded digests (untouched ones answer from their
    /// memoised one); only the dense feature blocks re-hash in full.
    ///
    /// # Errors
    ///
    /// [`StalePipeline`] while the pipeline is poisoned: the fingerprints
    /// would describe the pre-failure placement, not the current one.
    pub fn fingerprints(&self) -> Result<(u64, u64), StalePipeline> {
        if self.poisoned {
            return Err(StalePipeline);
        }
        Ok((self.ops.fingerprint(), self.features.fingerprint()))
    }
}

/// Refuses a delta that names a cell outside a `num_cells`-cell circuit
/// or moves a cell to a non-finite position.
fn check_delta(delta: &PlacementDelta, num_cells: usize) -> lh_graph::Result<()> {
    for &(cell, to) in delta.moves() {
        let cell = cell.index();
        if cell >= num_cells {
            return Err(LhGraphError::InvalidDelta(format!(
                "cell {cell} is outside the {num_cells}-cell circuit"
            )));
        }
        if !(to.x.is_finite() && to.y.is_finite()) {
            return Err(LhGraphError::InvalidDelta(format!(
                "cell {cell} moves to non-finite ({}, {})",
                to.x, to.y
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlsi_netlist::synth::{generate, SynthConfig};
    use vlsi_netlist::{CellId, Point};
    use vlsi_place::GlobalPlacer;

    fn pipeline(seed: u64, n_cells: usize, side: u32) -> LatticePipeline {
        let cfg =
            SynthConfig { seed, n_cells, grid_nx: side, grid_ny: side, ..SynthConfig::default() };
        let synth = generate(&cfg).unwrap();
        let grid = cfg.grid();
        let placed = GlobalPlacer::default().place_synth(&synth, &grid).unwrap();
        LatticePipeline::for_serving(Arc::new(synth.circuit), placed.placement, grid).unwrap()
    }

    /// From-scratch fingerprints with the pipeline's own column layout
    /// (a plain `build` right after a compaction, as the layout is
    /// canonical then).
    fn rebuilt_fingerprints(p: &LatticePipeline) -> (u64, u64) {
        let graph = LhGraph::build_with_columns(
            p.circuit(),
            p.placement(),
            p.grid(),
            &LhGraphConfig::default(),
            p.graph().kept_nets(),
        )
        .unwrap();
        let features = FeatureSet::build(&graph, p.circuit(), p.placement(), p.grid()).unwrap();
        (GraphOps::from_graph(&graph, &AblationSpec::full()).fingerprint(), features.fingerprint())
    }

    /// Fingerprints of a canonical from-scratch `build` at the pipeline's
    /// placement.
    fn scratch_fingerprints(p: &LatticePipeline) -> (u64, u64) {
        let graph = LhGraph::build(p.circuit(), p.placement(), p.grid(), &LhGraphConfig::default())
            .unwrap();
        let features = FeatureSet::build(&graph, p.circuit(), p.placement(), p.grid()).unwrap();
        (GraphOps::from_graph(&graph, &AblationSpec::full()).fingerprint(), features.fingerprint())
    }

    #[test]
    fn noop_delta_keeps_fingerprints_bitwise() {
        let mut p = pipeline(1, 120, 8);
        let before = p.fingerprints().unwrap();
        let id = CellId(0);
        let delta = PlacementDelta::single(id, p.placement().position(id));
        assert_eq!(p.apply(&delta).unwrap(), PipelineUpdate::Noop);
        assert_eq!(p.fingerprints().unwrap(), before, "no-op must keep the cache key");
        assert_eq!(p.stats().noops, 1);
    }

    #[test]
    fn incremental_update_matches_full_rebuild() {
        let mut p = pipeline(2, 150, 10);
        let die = p.circuit().die;
        // Walk a cell across the die in g-cell-sized hops.
        for step in 0..6 {
            let id = CellId(step as u32);
            let pos = p.placement().position(id);
            let np = die.clamp(Point::new(pos.x + p.grid().gcell_width() * 1.25, pos.y));
            p.apply(&PlacementDelta::single(id, np)).unwrap();
            assert_eq!(
                p.fingerprints().unwrap(),
                rebuilt_fingerprints(&p),
                "incremental state diverged at step {step}"
            );
        }
        assert!(p.stats().incremental + p.stats().noops + p.stats().full_rebuilds == 6);
    }

    #[test]
    fn filter_crossings_patch_in_place_and_match() {
        let mut p = pipeline(3, 100, 8);
        let die = p.circuit().die;
        // Stretch one net across the whole die and back: with the default
        // 5% filter it crosses the size threshold both ways, which the
        // stable column space absorbs as tombstone/revive patches instead
        // of full rebuilds.
        let net0 = p.circuit().nets()[0].clone();
        let cell = net0.pins[0].cell;
        let home = p.placement().position(cell);
        for (step, target) in
            [Point::new(die.lx, die.ly), Point::new(die.ux, die.uy), home].iter().enumerate()
        {
            p.apply(&PlacementDelta::single(cell, *target)).unwrap();
            assert_eq!(
                p.fingerprints().unwrap(),
                rebuilt_fingerprints(&p),
                "crossing state diverged at step {step}"
            );
        }
        let stats = p.stats();
        assert!(stats.crossings_patched >= 2, "out-and-back must count crossings: {stats:?}");
        assert_eq!(stats.full_rebuilds, 0, "crossings must not rebuild: {stats:?}");
        assert_eq!(stats.rebuilds_filter_crossing, 0);
    }

    #[test]
    fn failed_fallback_rebuild_poisons_until_a_rebuild_succeeds() {
        use vlsi_netlist::{Cell, Net, Pin, Rect};
        // One 2-pin net on a 4x4 grid, where the default 5% size filter
        // keeps nets of at most 1 g-cell: stretching the only net across
        // the die leaves no live column (structural), and the fallback
        // rebuild fails.
        let die = Rect::new(0.0, 0.0, 8.0, 8.0);
        let grid = GcellGrid::new(die, 4, 4);
        let mut c = Circuit::new("tiny", die);
        let a = c.add_cell(Cell::movable("a", 0.2, 0.2));
        let b = c.add_cell(Cell::movable("b", 0.2, 0.2));
        c.add_net(Net::new("n", vec![Pin::at_center(a), Pin::at_center(b)]));
        let mut placement = Placement::zeroed(2);
        placement.set_position(a, Point::new(1.0, 1.0));
        placement.set_position(b, Point::new(1.2, 1.2));
        let mut p = LatticePipeline::for_serving(Arc::new(c), placement, grid).unwrap();

        // Stretch the net across the die: structural, and the rebuild
        // fails because the only net is filtered out.
        let stretch = PlacementDelta::single(b, Point::new(7.0, 7.0));
        assert!(p.apply(&stretch).is_err(), "fallback rebuild must fail");

        // A clean follow-up delta must NOT sneak through the incremental
        // path against the stale graph: the pipeline stays poisoned and
        // keeps failing until a placement admits a rebuild.
        let nudge = PlacementDelta::single(b, Point::new(7.1, 7.1));
        assert!(p.apply(&nudge).is_err(), "poisoned pipeline must retry the rebuild");

        // Move the net back under the filter: the next apply heals via a
        // full rebuild and the state matches a from-scratch build again.
        let heal = PlacementDelta::single(b, Point::new(1.3, 1.3));
        let update = p.apply(&heal).unwrap();
        assert!(matches!(update, PipelineUpdate::FullRebuild { .. }));
        assert_eq!(p.fingerprints().unwrap(), scratch_fingerprints(&p));

        // and the pipeline is healthy again: further small moves are
        // incremental
        let follow = p.apply(&PlacementDelta::single(b, Point::new(1.4, 1.4))).unwrap();
        assert!(matches!(follow, PipelineUpdate::Noop | PipelineUpdate::Incremental { .. }));
    }

    /// An `apply` that exits early after rebinning advanced the placement
    /// leaves the pipeline poisoned, whether the exit is an `Err` from the
    /// graph patch (a grid of another shape: `GridShape`) or a panic (no
    /// cell-to-net adjacency: rebinning indexes out of bounds). Once the
    /// cause is gone, the next `apply` rebuilds and matches a from-scratch
    /// build.
    #[test]
    fn early_exit_mid_apply_poisons_until_a_rebuild() {
        for panic in [false, true] {
            let mut p = pipeline(5, 120, 8);
            let die = p.circuit().die;
            let id = CellId(3);
            let far = Point::new(die.ux - 0.01, die.uy - 0.01);
            let exit = if panic {
                let cell_to_nets = std::mem::take(&mut p.cell_to_nets);
                let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    p.apply(&PlacementDelta::single(id, far))
                }));
                assert!(crash.is_err(), "rebinning without the adjacency must panic");
                p.cell_to_nets = cell_to_nets;
                None
            } else {
                let grid = std::mem::replace(&mut p.grid, GcellGrid::new(die, 5, 5));
                let err = p.apply(&PlacementDelta::single(id, far)).unwrap_err();
                assert!(matches!(err, LhGraphError::GridShape { .. }), "got {err:?}");
                assert_eq!(p.placement().position(id), far, "rebinning advanced the placement");
                p.grid = grid;
                Some(err)
            };
            assert!(p.is_poisoned(), "early exit (error: {exit:?}) must poison");
            assert_eq!(p.fingerprints(), Err(StalePipeline));
            assert!(p.stats().stale);
            let heal = PlacementDelta::single(CellId(4), p.placement().position(CellId(4)));
            assert_eq!(
                p.apply(&heal).unwrap(),
                PipelineUpdate::FullRebuild { cause: RebuildCause::PoisonedRecovery }
            );
            assert!(!p.is_poisoned());
            assert_eq!(p.fingerprints().unwrap(), scratch_fingerprints(&p));
        }
    }

    /// A delta naming a cell outside the circuit or a non-finite position
    /// is refused with the typed error before anything applies or counts,
    /// one bad move among good ones included.
    #[test]
    fn invalid_deltas_are_refused_before_anything_applies() {
        let mut p = pipeline(6, 120, 8);
        let n = p.circuit().num_cells() as u32;
        let placement = p.placement().clone();
        let fingerprints = p.fingerprints().unwrap();
        let updates = p.stats().updates;
        let ok = Point::new(1.0, 1.0);
        for bad in [
            PlacementDelta::single(CellId(n), ok),
            PlacementDelta::single(CellId(0), Point::new(f32::NAN, 1.0)),
            PlacementDelta::single(CellId(0), Point::new(1.0, f32::INFINITY)),
            PlacementDelta::single(CellId(0), Point::new(f32::NEG_INFINITY, 1.0)),
            PlacementDelta::from_moves(vec![(CellId(1), ok), (CellId(2), ok), (CellId(n + 7), ok)]),
            PlacementDelta::from_moves(vec![
                (CellId(1), ok),
                (CellId(2), Point::new(ok.x, f32::NAN)),
            ]),
        ] {
            let err = p.apply(&bad).unwrap_err();
            assert!(matches!(err, LhGraphError::InvalidDelta(_)), "got {err:?}");
            assert!(!p.is_poisoned());
            assert_eq!(p.placement(), &placement);
            assert_eq!(p.fingerprints().unwrap(), fingerprints);
            assert_eq!(p.stats().updates, updates);
        }
    }

    #[test]
    fn metrics_recording_keeps_fingerprint_parity() {
        let mut plain = pipeline(7, 120, 8);
        let mut observed = pipeline(7, 120, 8);
        let registry = Registry::new();
        observed.set_metrics(&registry, "d0");
        let die = observed.circuit().die;
        for step in 0..4 {
            let id = CellId(step as u32);
            let pos = plain.placement().position(id);
            let np = die.clamp(Point::new(pos.x + plain.grid().gcell_width() * 1.25, pos.y));
            let delta = PlacementDelta::single(id, np);
            plain.apply(&delta).unwrap();
            observed.apply(&delta).unwrap();
            assert_eq!(
                plain.fingerprints().unwrap(),
                observed.fingerprints().unwrap(),
                "metrics changed pipeline state at step {step}"
            );
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("lhnn_updates_total{design=\"d0\"}"), 4);
        assert_eq!(snap.histogram("lhnn_stage_us{stage=\"rebin\"}").unwrap().count, 4);
        // registered even when never hit, so dumps carry the full catalog
        assert_eq!(snap.counter("lhnn_fallbacks_total"), 0);
        assert!(snap.get("lhnn_fallbacks_total{design=\"d0\",cause=\"compaction\"}").is_some());
        // the view reads the same cells
        assert_eq!(observed.stats(), plain.stats());
    }

    #[test]
    fn operator_snapshots_are_arc_shared_across_noops() {
        let mut p = pipeline(4, 90, 8);
        let ops = p.ops();
        let id = CellId(1);
        p.apply(&PlacementDelta::single(id, p.placement().position(id))).unwrap();
        assert!(Arc::ptr_eq(&ops, &p.ops()), "noop must not replace the snapshot");
    }
}
