//! Properties of the session layer.
//!
//! 1. **Interleaving parity**: any interleaving of
//!    `open_session`/`update`/`predict` across D designs, driven by C
//!    concurrent client threads, yields predictions and final pipeline
//!    states bitwise identical to a serial replay and to a fresh rebuild
//!    at the final placement.
//! 2. **Exact accounting**: after either run, every count the engine and
//!    its sessions report equals what the clients issued.
//! 3. **One cache**: a state a session computed answers a stateless
//!    request, and a state a stateless request computed answers a
//!    session.

use std::sync::Arc;

use lh_graph::{FeatureSet, LhGraph, LhGraphConfig};
use lhnn::{
    AblationSpec, CongestionModel, GraphOps, HybridNet, HybridNetConfig, IncrementalStats,
    LatticePipeline, Lhnn, LhnnConfig, Prediction,
};
use lhnn_serve::{EngineConfig, ModelRegistry, PredictRequest, ServeEngine, SessionConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlsi_netlist::synth::{generate, SynthConfig};
use vlsi_netlist::{CellId, Circuit, GcellGrid, NetId, Placement, PlacementDelta, Point};
use vlsi_place::GlobalPlacer;

struct Design {
    name: String,
    circuit: Arc<Circuit>,
    placement: Placement,
    grid: GcellGrid,
    /// The delta sequence this design's client replays, with a flag for
    /// "predict after this delta" (the final delta always predicts).
    script: Vec<(PlacementDelta, bool)>,
    /// The placement after the whole script.
    final_placement: Placement,
}

/// Builds a design plus a deterministic delta script from one seed.
fn scripted_design(tag: usize, seed: u64, n_deltas: usize) -> Design {
    let cfg = SynthConfig {
        name: format!("design-{tag}-{seed}"),
        seed,
        n_cells: 80,
        grid_nx: 6,
        grid_ny: 6,
        ..SynthConfig::default()
    };
    let synth = generate(&cfg).expect("synth");
    let grid = cfg.grid();
    let placed = GlobalPlacer::default().place_synth(&synth, &grid).expect("place");
    let circuit = Arc::new(synth.circuit);
    let die = circuit.die;
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut reference = placed.placement.clone();
    let mut script = Vec::new();
    for i in 0..n_deltas {
        // move a couple of cells by ~1.25 g-cells in a seed-dependent
        // direction; the reference placement tracks the moves so scripted
        // positions stay in-die and meaningful
        let mut delta = PlacementDelta::new();
        for _ in 0..rng.gen_range(1usize..3) {
            let id = CellId(rng.gen_range(0u32..circuit.num_cells() as u32));
            let p = reference.position(id);
            let dx = (rng.gen_range(0i32..5) - 2) as f32 * 0.8 * grid.gcell_width();
            let dy = (rng.gen_range(0i32..5) - 2) as f32 * 0.8 * grid.gcell_height();
            let np = die.clamp(Point::new(p.x + dx, p.y + dy));
            reference.set_position(id, np);
            delta.push(id, np);
        }
        let predict_here = i + 1 == n_deltas || rng.gen_range(0u32..3) == 0;
        script.push((delta, predict_here));
    }
    Design {
        name: cfg.name,
        circuit,
        placement: placed.placement,
        grid,
        script,
        final_placement: reference,
    }
}

/// A registry serving one model of the chosen architecture (0 = LHNN,
/// 1 = HybridNet) under the name `"m"`.
fn registry(model_kind: usize) -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    let model: Box<dyn CongestionModel> = match model_kind % 2 {
        0 => Box::new(Lhnn::new(LhnnConfig::default(), 0)),
        _ => Box::new(HybridNet::new(HybridNetConfig::default(), 0)),
    };
    registry.register_boxed("m", model).expect("register");
    registry
}

/// What one replayed session ends with: every prediction, the final
/// `(ops, features)` fingerprints, the G-net column layout, and the
/// session's incremental-forward counters.
type Replay = (Vec<Arc<Prediction>>, (u64, u64), Vec<NetId>, IncrementalStats);

/// Drives one design's script through a session. The final delta
/// predicts twice: the repeat is a cache hit.
fn drive(engine: &ServeEngine, design: &Design) -> Replay {
    let handle = engine.handle();
    let mut session = handle
        .open_session(
            SessionConfig::new("m").with_design(&design.name),
            Arc::clone(&design.circuit),
            design.placement.clone(),
            design.grid.clone(),
        )
        .expect("open session");
    let mut predictions = Vec::new();
    for (delta, predict_here) in &design.script {
        session.update(delta).expect("update");
        if *predict_here {
            predictions.push(session.predict().expect("predict").prediction);
        }
    }
    predictions.push(session.predict().expect("repeat predict").prediction);
    let columns = session.with_pipeline(|p| p.graph().kept_nets().to_vec());
    let fingerprints = session.fingerprints().expect("fingerprints");
    (predictions, fingerprints, columns, session.incremental_stats())
}

/// Every count equals what the clients issued: requests, session updates,
/// hits plus forwards, the request-latency histogram, and each design's
/// forward paths (full + spliced + reused).
fn assert_exact_accounting(engine: &ServeEngine, designs: &[Design], replays: &[Replay]) {
    let handle = engine.handle();
    let stats = handle.stats();
    let predicts: u64 = replays.iter().map(|r| r.0.len() as u64).sum();
    let updates: u64 = designs.iter().map(|d| d.script.len() as u64).sum();
    assert_eq!(stats.requests, predicts, "requests");
    assert_eq!(stats.session_updates, updates, "session updates");
    assert_eq!(stats.cache_hits + stats.computed, stats.requests, "hits plus forwards");
    let latency = handle.metrics_snapshot().histogram("lhnn_request_us").expect("latency");
    assert_eq!(latency.count, stats.requests, "one latency sample per request");
    for (design, (preds, _, _, inc)) in designs.iter().zip(replays) {
        assert_eq!(
            inc.full_forwards + inc.spliced_forwards + inc.reused,
            preds.len() as u64,
            "forward paths of {} do not add up: {inc:?}",
            design.name
        );
    }
}

/// `(ops, features)` fingerprints of a from-scratch build at the design's
/// final placement. Size-filter crossings tombstone and append G-net
/// columns in place, so the build is prescribed the session's own column
/// layout; a canonical build only matches right after a compaction.
fn fresh_fingerprints(design: &Design, columns: &[NetId]) -> (u64, u64) {
    let (circuit, placement) = (&design.circuit, &design.final_placement);
    let cfg = LhGraphConfig::default();
    let graph = LhGraph::build_with_columns(circuit, placement, &design.grid, &cfg, columns)
        .expect("fresh graph");
    let features = FeatureSet::build(&graph, circuit, placement, &design.grid).expect("features");
    (GraphOps::from_graph(&graph, &AblationSpec::full()).fingerprint(), features.fingerprint())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn interleaved_sessions_match_serial_replay(
        base_seed in 0u64..500,
        model_kind in 0usize..2,
        n_designs in 2usize..5,
        clients in 1usize..5,
        n_deltas in 2usize..5,
    ) {
        let designs: Vec<Design> = (0..n_designs)
            .map(|d| scripted_design(d, base_seed + d as u64 * 101, n_deltas))
            .collect();

        // Concurrent: `clients` threads, client c driving designs c,
        // c + clients, … one after another.
        let engine = ServeEngine::new(registry(model_kind), EngineConfig::default());
        let mut concurrent: Vec<(usize, Replay)> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..clients)
                .map(|c| {
                    let (engine, designs) = (&engine, &designs);
                    scope.spawn(move || {
                        (c..designs.len())
                            .step_by(clients)
                            .map(|d| (d, drive(engine, &designs[d])))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            joins.into_iter().flat_map(|j| j.join().expect("client thread")).collect()
        });
        concurrent.sort_by_key(|(d, _)| *d);
        let concurrent: Vec<Replay> = concurrent.into_iter().map(|(_, r)| r).collect();
        assert_exact_accounting(&engine, &designs, &concurrent);
        engine.shutdown();

        // Serial replay: one design at a time.
        let serial_engine = ServeEngine::new(registry(model_kind), EngineConfig::default());
        let mut serial = Vec::new();
        for (design, (got_preds, got_fps, columns, _)) in designs.iter().zip(&concurrent) {
            let replay = drive(&serial_engine, design);
            let (want_preds, want_fps) = (&replay.0, &replay.1);
            prop_assert_eq!(got_fps, want_fps, "final state diverged for {}", design.name);
            prop_assert_eq!(
                got_fps,
                &fresh_fingerprints(design, columns),
                "final state of {} differs from a fresh rebuild",
                design.name
            );
            prop_assert_eq!(
                got_preds.len(),
                want_preds.len(),
                "prediction count diverged for {}",
                design.name
            );
            for (step, (got, want)) in got_preds.iter().zip(want_preds).enumerate() {
                prop_assert!(
                    got.cls_prob.approx_eq(&want.cls_prob, 0.0)
                        && got.reg.approx_eq(&want.reg, 0.0),
                    "prediction {step} of {} not bitwise equal to serial replay",
                    design.name
                );
            }
            serial.push(replay);
        }
        assert_exact_accounting(&serial_engine, &designs, &serial);
        serial_engine.shutdown();
    }
}

/// Sessions and stateless requests share one cache, in both directions:
/// a session's state answers a stateless request built from its inputs,
/// and a state a stateless request computed answers the session's later
/// predict of it.
#[test]
fn one_cache_serves_sessions_and_stateless_requests_alike() {
    let design = scripted_design(0, 9, 0);
    let engine = ServeEngine::new(registry(0), EngineConfig::default());
    let handle = engine.handle();
    let mut session = handle
        .open_session(
            SessionConfig::new("m"),
            Arc::clone(&design.circuit),
            design.placement.clone(),
            design.grid.clone(),
        )
        .expect("open session");

    // session first: its state answers a stateless request
    let computed = session.predict().expect("session predict");
    assert!(!computed.cached);
    let (ops, features) = session.inputs().expect("inputs");
    let stateless = handle.predict(&PredictRequest::new("m", ops, features)).expect("stateless");
    assert!(stateless.cached, "the session's state must answer a stateless request");
    let (got, want) = (&stateless.prediction, &computed.prediction);
    assert!(got.cls_prob.approx_eq(&want.cls_prob, 0.0) && got.reg.approx_eq(&want.reg, 0.0));

    // stateless first: a twin pipeline applies the session's next delta,
    // and its state, computed statelessly, answers the session's predict
    let id = CellId(0);
    let p = design.placement.position(id);
    let to = design.circuit.die.clamp(Point::new(p.x + 1.5 * design.grid.gcell_width(), p.y));
    let delta = &PlacementDelta::single(id, to);
    let mut twin = LatticePipeline::for_serving(
        Arc::clone(&design.circuit),
        design.placement.clone(),
        design.grid.clone(),
    )
    .expect("twin pipeline");
    twin.apply(delta).expect("twin update");
    let (gd, nd) = FeatureSet::default_divisors();
    let twin_features = Arc::new(twin.features().scaled_fixed(&gd, &nd));
    let first = handle
        .predict(&PredictRequest::new("m", twin.ops(), twin_features))
        .expect("stateless predict");
    assert!(!first.cached);
    session.update(delta).expect("session update");
    let answered = session.predict().expect("session predict after update");
    assert!(answered.cached, "the stateless request's state must answer the session");
    let (got, want) = (&answered.prediction, &first.prediction);
    assert!(got.cls_prob.approx_eq(&want.cls_prob, 0.0) && got.reg.approx_eq(&want.reg, 0.0));
    assert_eq!(handle.cache_len(), 2);
    engine.shutdown();
}
