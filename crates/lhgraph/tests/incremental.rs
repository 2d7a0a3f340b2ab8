//! Bitwise-equality proptests for the incremental LH-graph path: any
//! sequence of placement deltas routed through `rebin_delta_in_place` →
//! `LhGraph::apply_delta` → `FeatureSet::apply_delta` (with a full
//! rebuild on `Structural` outcomes) must leave graph and features
//! **bitwise identical** to a from-scratch build at the final placement —
//! `LhGraph::build_with_columns` with the incremental state's own column
//! layout between compactions, and the canonical `LhGraph::build` right
//! after every compaction (when the layouts coincide).

use lh_graph::{DeltaOutcome, FeatureSet, LhGraph, LhGraphConfig, StructuralReason};
use proptest::prelude::*;
use vlsi_netlist::synth::{generate, SynthConfig};
use vlsi_netlist::{
    rebin_delta_in_place, CellId, Circuit, GcellGrid, NetId, Placement, PlacementDelta, Point,
};
use vlsi_place::GlobalPlacer;

/// The incremental consumer under test: mirrors what the serving pipeline
/// does per delta, falling back to a full rebuild on structural changes.
struct Harness {
    circuit: Circuit,
    grid: GcellGrid,
    cfg: LhGraphConfig,
    cell_to_nets: Vec<Vec<NetId>>,
    placement: Placement,
    graph: LhGraph,
    features: FeatureSet,
    incremental: usize,
    /// Patched deltas that carried a size-filter crossing.
    crossings: usize,
    full_rebuilds: usize,
    rebuilds_compaction: usize,
    rebuilds_no_live: usize,
}

impl Harness {
    fn new(seed: u64, n_cells: usize, grid_side: u32, max_gnet_fraction: f32) -> Self {
        let synth_cfg = SynthConfig {
            seed,
            n_cells,
            grid_nx: grid_side,
            grid_ny: grid_side,
            ..SynthConfig::default()
        };
        let synth = generate(&synth_cfg).expect("synth");
        let grid = synth_cfg.grid();
        let placed = GlobalPlacer::default().place_synth(&synth, &grid).expect("place");
        let cfg = LhGraphConfig { max_gnet_fraction, ..LhGraphConfig::default() };
        let graph = LhGraph::build(&synth.circuit, &placed.placement, &grid, &cfg).expect("graph");
        let features =
            FeatureSet::build(&graph, &synth.circuit, &placed.placement, &grid).expect("features");
        let cell_to_nets = synth.circuit.cell_to_nets();
        Self {
            circuit: synth.circuit,
            grid,
            cfg,
            cell_to_nets,
            placement: placed.placement,
            graph,
            features,
            incremental: 0,
            crossings: 0,
            full_rebuilds: 0,
            rebuilds_compaction: 0,
            rebuilds_no_live: 0,
        }
    }

    /// Applies one delta through the incremental path. Returns `false`
    /// when the placement became unbuildable (every net filtered), which
    /// a from-scratch build rejects identically.
    fn apply(&mut self, delta: &PlacementDelta) -> bool {
        let report = rebin_delta_in_place(
            &self.circuit,
            &self.grid,
            &mut self.placement,
            delta,
            &self.cell_to_nets,
        );
        if report.is_clean() {
            return true;
        }
        match self.graph.apply_delta(&self.grid, &self.cfg, &report).expect("same grid") {
            DeltaOutcome::Patched(patch) => {
                if patch.crossed_filter() {
                    self.crossings += 1;
                }
                self.features = self
                    .features
                    .apply_delta(&patch, &report, &self.circuit, &self.placement, &self.grid)
                    .expect("patch belongs to this graph");
                self.graph = patch.graph;
                self.incremental += 1;
                true
            }
            DeltaOutcome::Structural(reason) => {
                self.full_rebuilds += 1;
                match reason {
                    StructuralReason::Compaction { .. } => self.rebuilds_compaction += 1,
                    StructuralReason::NoLiveColumns => self.rebuilds_no_live += 1,
                }
                match LhGraph::build(&self.circuit, &self.placement, &self.grid, &self.cfg) {
                    Ok(graph) => {
                        self.features =
                            FeatureSet::build(&graph, &self.circuit, &self.placement, &self.grid)
                                .expect("features");
                        self.graph = graph;
                        true
                    }
                    Err(_) => false,
                }
            }
        }
    }

    /// Bitwise parity with a from-scratch build at the current placement,
    /// prescribed to the incremental state's own column layout (stable
    /// columns mean the layout is history-dependent between compactions;
    /// liveness is placement-derived, so the reference recomputes it).
    fn assert_matches_full_rebuild(&self) {
        let graph = LhGraph::build_with_columns(
            &self.circuit,
            &self.placement,
            &self.grid,
            &self.cfg,
            self.graph.kept_nets(),
        )
        .expect("rebuild");
        let features = FeatureSet::build(&graph, &self.circuit, &self.placement, &self.grid)
            .expect("rebuild features");
        assert_eq!(self.graph.kept_nets(), graph.kept_nets(), "kept-net mapping diverged");
        assert_eq!(self.graph.tombstoned_gnets(), graph.tombstoned_gnets());
        for j in 0..graph.num_gnets() {
            assert_eq!(
                self.graph.is_tombstone(j),
                graph.is_tombstone(j),
                "liveness diverged at column {j}"
            );
            // a tombstone's span is stale by contract; compare live ones
            if !graph.is_tombstone(j) {
                assert_eq!(self.graph.span_of(j), graph.span_of(j), "span diverged at column {j}");
            }
        }
        for (name, mine, full) in [
            ("incidence", self.graph.incidence(), graph.incidence()),
            ("gnc_sum", self.graph.gnc_sum(), graph.gnc_sum()),
            ("gnc_mean", self.graph.gnc_mean(), graph.gnc_mean()),
            ("gcn_mean", self.graph.gcn_mean(), graph.gcn_mean()),
            ("lattice", self.graph.lattice(), graph.lattice()),
            ("lattice_mean", self.graph.lattice_mean(), graph.lattice_mean()),
        ] {
            assert_eq!(mine.as_ref(), full.as_ref(), "{name} diverged from full rebuild");
            assert_eq!(
                mine.content_fingerprint(),
                full.content_fingerprint(),
                "{name} fingerprint diverged"
            );
        }
        assert_eq!(
            self.features.gnet.fingerprint(),
            features.gnet.fingerprint(),
            "g-net features diverged"
        );
        assert_eq!(
            self.features.gcell.fingerprint(),
            features.gcell.fingerprint(),
            "g-cell features diverged"
        );
        assert_eq!(self.features.fingerprint(), features.fingerprint());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random multi-cell move sequences: after every delta the patched
    /// state equals a from-scratch rebuild, bitwise.
    #[test]
    fn random_delta_sequences_match_full_rebuild(
        seed in 0u64..4,
        moves in proptest::collection::vec(
            (0usize..2048, 0.0f32..1.0, 0.0f32..1.0), 1..24),
        chunk in 1usize..6,
        fraction_sel in 0usize..3,
    ) {
        let fraction = [0.08f32, 0.25, 1.0][fraction_sel];
        let mut h = Harness::new(seed, 80, 8, fraction);
        let die = h.circuit.die;
        for group in moves.chunks(chunk) {
            let mut delta = PlacementDelta::new();
            for &(cell, fx, fy) in group {
                let id = CellId((cell % h.circuit.num_cells()) as u32);
                let p = Point::new(
                    die.lx + fx * die.width(),
                    die.ly + fy * die.height(),
                );
                delta.push(id, p);
            }
            if !h.apply(&delta) {
                return; // unbuildable either way: parity holds trivially
            }
            h.assert_matches_full_rebuild();
        }
    }

    /// Single-cell jitter (the placement-loop steady state) stays on the
    /// incremental path and matches the full rebuild after every step.
    #[test]
    fn single_cell_jitter_matches_full_rebuild(
        seed in 0u64..3,
        steps in proptest::collection::vec((0usize..2048, -0.9f32..0.9, -0.9f32..0.9), 1..16),
    ) {
        let mut h = Harness::new(seed, 100, 8, 0.25);
        let die = h.circuit.die;
        for &(cell, dx, dy) in &steps {
            let id = CellId((cell % h.circuit.num_cells()) as u32);
            let p = h.placement.position(id);
            let np = die.clamp(Point::new(
                p.x + dx * h.grid.gcell_width(),
                p.y + dy * h.grid.gcell_height(),
            ));
            if !h.apply(&PlacementDelta::single(id, np)) {
                return;
            }
        }
        h.assert_matches_full_rebuild();
    }

    /// Forced out-and-back size-filter crossings: every crossing patches
    /// in place (tombstone on the way out, revival/append on the way
    /// back) — zero full rebuilds between compactions — and every patched
    /// state stays bitwise-pinned to the prescribed-layout reference.
    #[test]
    fn forced_crossings_patch_without_rebuilds(
        seed in 0u64..3,
        yanks in proptest::collection::vec(
            (0usize..2048, 0.0f32..1.0, 0.0f32..1.0), 1..8),
    ) {
        let mut h = Harness::new(seed, 80, 8, 0.08);
        h.cfg.max_tombstone_fraction = 1.0; // never compact
        let die = h.circuit.die;
        for &(cell, fx, fy) in &yanks {
            let id = CellId((cell % h.circuit.num_cells()) as u32);
            let home = h.placement.position(id);
            // yank to a random far position (stretching its nets across
            // the die, typically out of the tight filter), then snap back
            let far = Point::new(die.lx + fx * die.width(), die.ly + fy * die.height());
            for &target in &[far, home] {
                if !h.apply(&PlacementDelta::single(id, target)) {
                    return;
                }
                h.assert_matches_full_rebuild();
            }
        }
        prop_assert_eq!(h.rebuilds_compaction, 0, "threshold 1.0 never compacts");
        prop_assert_eq!(
            h.full_rebuilds, h.rebuilds_no_live,
            "a filter crossing must never cause a full rebuild"
        );
    }
}

#[test]
fn noop_delta_changes_nothing_and_stays_incremental() {
    let mut h = Harness::new(1, 80, 8, 0.25);
    let before_graph_fp = h.graph.incidence().content_fingerprint();
    let before_feat_fp = h.features.fingerprint();
    // move every cell to the position it already has
    let mut delta = PlacementDelta::new();
    for i in 0..h.circuit.num_cells() {
        let id = CellId(i as u32);
        delta.push(id, h.placement.position(id));
    }
    assert!(h.apply(&delta));
    assert_eq!(h.incremental, 0, "no-op must not trigger a patch");
    assert_eq!(h.full_rebuilds, 0);
    assert_eq!(h.graph.incidence().content_fingerprint(), before_graph_fp);
    assert_eq!(h.features.fingerprint(), before_feat_fp);
    h.assert_matches_full_rebuild();
}

#[test]
fn full_design_move_matches_full_rebuild() {
    let mut h = Harness::new(2, 120, 8, 0.25);
    let die = h.circuit.die;
    // Shift the whole design one g-cell diagonally (clamped at the die
    // edge): dirties most nets at once.
    let mut delta = PlacementDelta::new();
    for i in 0..h.circuit.num_cells() {
        let id = CellId(i as u32);
        let p = h.placement.position(id);
        delta.push(
            id,
            die.clamp(Point::new(p.x + h.grid.gcell_width(), p.y + h.grid.gcell_height())),
        );
    }
    assert!(h.apply(&delta));
    h.assert_matches_full_rebuild();
    assert!(h.incremental + h.full_rebuilds == 1);
}

#[test]
fn crossings_happen_and_stay_incremental_on_a_tight_filter() {
    // Deterministic companion to the proptest: yank cells far enough that
    // crossings demonstrably occur, and confirm none of them rebuilt.
    let mut h = Harness::new(5, 80, 8, 0.08);
    h.cfg.max_tombstone_fraction = 1.0;
    let die = h.circuit.die;
    for i in 0..h.circuit.num_cells() {
        let id = CellId(i as u32);
        let home = h.placement.position(id);
        let far =
            Point::new(die.ux - h.grid.gcell_width() * 0.5, die.uy - h.grid.gcell_height() * 0.5);
        for &target in &[far, home] {
            if !h.apply(&PlacementDelta::single(id, target)) {
                panic!("all live columns vanished; pick a different seed");
            }
        }
        if h.crossings >= 4 {
            break;
        }
    }
    assert!(h.crossings >= 4, "filter crossings never fired: {}", h.crossings);
    assert_eq!(h.full_rebuilds, 0, "crossings must patch, not rebuild");
    h.assert_matches_full_rebuild();
}

#[test]
fn compaction_rebuild_restores_canonical_layout() {
    // Threshold 0: the first tombstone triggers a compaction, whose
    // fallback is the canonical `LhGraph::build` — after it the layout is
    // ascending/all-live and plain-build parity holds.
    let mut h = Harness::new(4, 80, 8, 0.08);
    h.cfg.max_tombstone_fraction = 0.0;
    let die = h.circuit.die;
    for i in 0..h.circuit.num_cells() {
        let id = CellId(i as u32);
        let far =
            Point::new(die.ux - h.grid.gcell_width() * 0.5, die.uy - h.grid.gcell_height() * 0.5);
        if !h.apply(&PlacementDelta::single(id, far)) {
            panic!("all live columns vanished; pick a different seed");
        }
        if h.rebuilds_compaction > 0 {
            break;
        }
    }
    assert!(h.rebuilds_compaction > 0, "no compaction fired");
    assert_eq!(h.graph.tombstoned_gnets(), 0, "compaction reclaims every tombstone");
    let canonical =
        LhGraph::build(&h.circuit, &h.placement, &h.grid, &h.cfg).expect("canonical build");
    assert_eq!(h.graph.kept_nets(), canonical.kept_nets());
    assert_eq!(
        h.graph.incidence().content_fingerprint(),
        canonical.incidence().content_fingerprint()
    );
    h.assert_matches_full_rebuild();
}

#[test]
fn untouched_operators_stay_arc_shared_after_patch() {
    let mut h = Harness::new(3, 100, 8, 0.25);
    let lattice_before = std::sync::Arc::as_ptr(h.graph.lattice());
    let lattice_mean_before = std::sync::Arc::as_ptr(h.graph.lattice_mean());
    // nudge one cell across a g-cell boundary until an incremental patch
    // actually fires
    let die = h.circuit.die;
    for i in 0..h.circuit.num_cells() {
        let id = CellId(i as u32);
        let p = h.placement.position(id);
        let np = die.clamp(Point::new(p.x + 1.5 * h.grid.gcell_width(), p.y));
        assert!(h.apply(&PlacementDelta::single(id, np)));
        if h.incremental > 0 {
            break;
        }
    }
    assert!(h.incremental > 0, "no incremental patch fired");
    assert_eq!(
        std::sync::Arc::as_ptr(h.graph.lattice()),
        lattice_before,
        "lattice must be shared, not rebuilt"
    );
    assert_eq!(std::sync::Arc::as_ptr(h.graph.lattice_mean()), lattice_mean_before);
    h.assert_matches_full_rebuild();
}
