//! End-to-end bitwise-equality proptests for [`LatticePipeline`]: random
//! placement-delta sequences (including no-ops and whole-design shifts)
//! must leave operators, features, fingerprints — and the model's
//! predictions — **bitwise identical** to a from-scratch rebuild, at any
//! compute-pool thread count. Hostile moves (cells past the circuit,
//! non-finite positions) must be refused with the typed error and change
//! nothing.

use std::sync::Arc;

use lh_graph::{FeatureSet, LhGraph, LhGraphConfig, LhGraphError};
use lhnn::{AblationSpec, CongestionModel, GraphOps, LatticePipeline, Lhnn, LhnnConfig};
use neurograd::pool;
use proptest::prelude::*;
use vlsi_netlist::synth::{generate, SynthConfig};
use vlsi_netlist::{CellId, PlacementDelta, Point, Rect};
use vlsi_place::GlobalPlacer;

fn pipeline(seed: u64, n_cells: usize, side: u32) -> LatticePipeline {
    let cfg = SynthConfig { seed, n_cells, grid_nx: side, grid_ny: side, ..SynthConfig::default() };
    let synth = generate(&cfg).expect("synth");
    let grid = cfg.grid();
    let placed = GlobalPlacer::default().place_synth(&synth, &grid).expect("place");
    LatticePipeline::for_serving(Arc::new(synth.circuit), placed.placement, grid).expect("build")
}

/// Batch-built `(ops, features)` at the pipeline's current placement,
/// with the pipeline's own stable column layout (equal to the canonical
/// `LhGraph::build` right after every compaction).
fn batch_state(p: &LatticePipeline) -> (GraphOps, FeatureSet) {
    let graph = LhGraph::build_with_columns(
        p.circuit(),
        p.placement(),
        p.grid(),
        &LhGraphConfig::default(),
        p.graph().kept_nets(),
    )
    .expect("rebuild graph");
    let features =
        FeatureSet::build(&graph, p.circuit(), p.placement(), p.grid()).expect("rebuild features");
    (GraphOps::from_graph(&graph, &AblationSpec::full()), features)
}

/// Cell codes at or past this name a cell past the circuit.
const PAST_THE_CIRCUIT: usize = 3900;

/// Decodes a cell code: most land on a real cell, the rest past the
/// circuit's `n_cells` cells.
fn decode_cell(code: usize, n_cells: usize) -> CellId {
    let index =
        if code >= PAST_THE_CIRCUIT { n_cells + code - PAST_THE_CIRCUIT } else { code % n_cells };
    CellId(index as u32)
}

/// Decodes one coordinate along `[lo, lo + span]`: most codes land inside
/// the die, the rest on NaN, ±inf, ±1e30, `f32::MAX`/`MIN` or past the
/// die's far edge.
fn decode_coord(code: u8, frac: f32, lo: f32, span: f32) -> f32 {
    match code {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => 1e30,
        4 => -1e30,
        5 => f32::MAX,
        6 => f32::MIN,
        7 => lo + span * (1.0 + 2.0 * frac),
        _ => lo + frac * span,
    }
}

fn decode_point(die: &Rect, (cx, fx, cy, fy): (u8, f32, u8, f32)) -> Point {
    Point::new(
        decode_coord(cx, fx, die.lx, die.width()),
        decode_coord(cy, fy, die.ly, die.height()),
    )
}

fn bitwise_eq(a: &neurograd::Matrix, b: &neurograd::Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full acceptance property: after every delta in a random
    /// sequence, the incremental pipeline fingerprints equal a batch
    /// rebuild's, and `Lhnn::predict` on the incremental state is bitwise
    /// identical to predict on the batch state — at 1 and N compute
    /// threads. A delta with a move past the circuit or to a non-finite
    /// position is instead refused with the typed error, leaving the
    /// fingerprints, the counters and the pipeline's health as they were.
    #[test]
    fn pipeline_state_and_predictions_match_batch_rebuild(
        seed in 0u64..3,
        moves in proptest::collection::vec(
            (0usize..4096, (0u8..32, 0.0f32..1.0, 0u8..32, 0.0f32..1.0)), 1..12),
        chunk in 1usize..5,
        threads in 1usize..4,
    ) {
        let mut p = pipeline(seed, 110, 8);
        let die = p.circuit().die;
        let model = Lhnn::new(LhnnConfig::default(), seed);
        let n_cells = p.circuit().num_cells();
        for group in moves.chunks(chunk) {
            let mut delta = PlacementDelta::new();
            for &(cell, point) in group {
                delta.push(decode_cell(cell, n_cells), decode_point(&die, point));
            }
            let hostile = delta.moves().iter().any(|&(cell, to)| {
                cell.index() >= n_cells || !(to.x.is_finite() && to.y.is_finite())
            });
            if hostile {
                let (fingerprints, stats) = (p.fingerprints(), p.stats());
                let refused = p.apply(&delta);
                prop_assert!(
                    matches!(refused, Err(LhGraphError::InvalidDelta(_))),
                    "hostile delta not refused: {:?}", refused
                );
                prop_assert_eq!(p.fingerprints(), fingerprints);
                prop_assert_eq!(p.stats(), stats);
                prop_assert!(!p.is_poisoned());
                continue;
            }
            if p.apply(&delta).is_err() {
                // every net dropped by the filter: a batch build fails
                // identically, so there is no state to compare
                return;
            }
            let (batch_ops, batch_features) = batch_state(&p);
            prop_assert_eq!(p.ops().fingerprint(), batch_ops.fingerprint());
            prop_assert_eq!(p.features().fingerprint(), batch_features.fingerprint());

            pool::configure_threads(threads);
            let incremental = model.predict(&p.ops(), &p.features());
            pool::configure_threads(1);
            let batch = model.predict(&batch_ops, &batch_features);
            prop_assert!(
                bitwise_eq(&incremental.cls_prob, &batch.cls_prob),
                "predictions diverged (threads {})", threads
            );
            prop_assert!(bitwise_eq(&incremental.reg, &batch.reg));
        }
    }
}

#[test]
fn noop_and_whole_design_shift_round_trip() {
    let mut p = pipeline(7, 150, 10);
    let die = p.circuit().die;
    let initial_fps = p.fingerprints();

    // no-op: every cell moved to its own position
    let mut noop = PlacementDelta::new();
    for i in 0..p.circuit().num_cells() {
        noop.push(CellId(i as u32), p.placement().position(CellId(i as u32)));
    }
    p.apply(&noop).unwrap();
    assert_eq!(p.fingerprints(), initial_fps);

    // whole-design shift by one g-cell, then back: fingerprints must
    // return to the initial values exactly (same placement → same state,
    // whether reached incrementally or not)
    let shift = |p: &LatticePipeline, dx: f32, dy: f32| {
        let mut d = PlacementDelta::new();
        for i in 0..p.circuit().num_cells() {
            let id = CellId(i as u32);
            let pos = p.placement().position(id);
            d.push(id, die.clamp(Point::new(pos.x + dx, pos.y + dy)));
        }
        d
    };
    let original = p.placement().clone();
    let initial_columns = p.graph().kept_nets().to_vec();
    let (gw, gh) = (p.grid().gcell_width(), p.grid().gcell_height());
    let there = shift(&p, -gw * 0.5, -gh * 0.5);
    p.apply(&there).unwrap();
    let mid_fps = p.fingerprints();
    assert_ne!(mid_fps, initial_fps, "the shift must change the state");
    let back = shift(&p, gw * 0.5, gh * 0.5);
    p.apply(&back).unwrap();
    if *p.placement() == original
        && p.graph().kept_nets() == initial_columns.as_slice()
        && p.graph().tombstoned_gnets() == 0
    {
        // round trip was lossless (no clamping, and the stable column
        // space kept its initial layout): the incremental state must
        // land back on the exact initial fingerprints
        assert_eq!(p.fingerprints(), initial_fps);
    }
    // parity with batch at the final placement regardless
    let (batch_ops, batch_features) = batch_state(&p);
    assert_eq!(p.ops().fingerprint(), batch_ops.fingerprint());
    assert_eq!(p.features().fingerprint(), batch_features.fingerprint());
}
