//! Properties of the sharded, pipelined session layer.
//!
//! 1. **Interleaving parity**: any interleaving of
//!    `open_session`/`submit_update`/`predict` across D designs and S
//!    shards, driven by D concurrent client threads, yields predictions
//!    and final pipeline states bitwise identical to a serial replay on a
//!    single-shard, single-worker engine and to a fresh rebuild at the
//!    final placement.
//! 2. **Exact accounting**: after either run, every count the engine and
//!    its sessions report equals what the clients issued.
//! 3. **Cache isolation**: a hot design hammering its shard cannot evict
//!    another design's cached prediction on a different shard.

use std::sync::Arc;

use lh_graph::{FeatureSet, LhGraph, LhGraphConfig};
use lhnn::{
    AblationSpec, CongestionModel, GraphOps, HybridNet, HybridNetConfig, IncrementalStats, Lhnn,
    LhnnConfig, Prediction,
};
use lhnn_serve::{EngineConfig, ModelRegistry, ServeEngine, SessionConfig};
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

/// Drives one design's script through a session; `pipelined` uses
/// `submit_update` tickets (waited lazily by the next predict), the
/// serial mode blocks on every update. The final delta predicts twice:
/// the repeat is a cache hit.
fn drive(engine: &ServeEngine, design: &Design, pipelined: bool) -> Replay {
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
        if pipelined {
            // fire-and-forget: predict (or a later update's drain) applies it
            drop(session.submit_update(delta));
        } else {
            session.update(delta).expect("update");
        }
        if *predict_here {
            predictions.push(session.predict().expect("predict").prediction);
        }
    }
    predictions.push(session.predict().expect("repeat predict").prediction);
    let columns = session.with_pipeline(|p| p.graph().kept_nets().to_vec());
    let fingerprints = session.fingerprints().expect("fingerprints");
    (predictions, fingerprints, columns, session.incremental_stats())
}

/// Every count equals what the clients issued: requests and session
/// updates engine-wide and per shard, the request-latency histogram, and
/// each design's forward paths (full + spliced + reused).
fn assert_exact_accounting(engine: &ServeEngine, designs: &[Design], replays: &[Replay]) {
    let handle = engine.handle();
    let stats = handle.stats();
    let predicts: u64 = replays.iter().map(|r| r.0.len() as u64).sum();
    let updates: u64 = designs.iter().map(|d| d.script.len() as u64).sum();
    assert_eq!(stats.requests, predicts, "requests");
    assert_eq!(stats.session_updates, updates, "session updates");
    assert_eq!(stats.per_shard.iter().map(|s| s.requests).sum::<u64>(), stats.requests);
    assert_eq!(stats.per_shard.iter().map(|s| s.session_updates).sum::<u64>(), updates);
    assert_eq!(stats.per_shard.iter().map(|s| s.computed).sum::<u64>(), stats.computed);
    assert_eq!(stats.per_shard.iter().map(|s| s.cache_hits).sum::<u64>(), stats.cache_hits);
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
        shards in 1usize..4,
        workers in 1usize..5,
        n_deltas in 2usize..5,
    ) {
        let designs: Vec<Design> = (0..n_designs)
            .map(|d| scripted_design(d, base_seed + d as u64 * 101, n_deltas))
            .collect();

        // Concurrent, pipelined, sharded: one client thread per design.
        let engine = ServeEngine::new(
            registry(model_kind),
            EngineConfig { workers, shards, ..EngineConfig::default() },
        );
        let concurrent: Vec<Replay> = std::thread::scope(|scope| {
            let joins: Vec<_> = designs
                .iter()
                .map(|design| scope.spawn(|| drive(&engine, design, true)))
                .collect();
            joins.into_iter().map(|j| j.join().expect("client thread")).collect()
        });
        assert_exact_accounting(&engine, &designs, &concurrent);
        engine.shutdown();

        // Serial replay: single shard, single worker, blocking updates,
        // one design at a time.
        let serial_engine = ServeEngine::new(
            registry(model_kind),
            EngineConfig { workers: 1, shards: 1, ..EngineConfig::default() },
        );
        let mut serial = Vec::new();
        for (design, (got_preds, got_fps, columns, _)) in designs.iter().zip(&concurrent) {
            let replay = drive(&serial_engine, design, false);
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

/// Finds a design name that maps to a different shard than `other` maps to.
fn name_on_other_shard(handle: &lhnn_serve::ServeHandle, other: &str) -> String {
    let taken = handle.shard_of_design(other);
    (0..)
        .map(|i| format!("cold-design-{i}"))
        .find(|name| handle.shard_of_design(name) != taken)
        .expect("some name lands on another shard")
}

#[test]
fn hot_design_cannot_evict_another_shards_cache() {
    let hot = scripted_design(0, 7, 0);
    let engine = ServeEngine::new(
        registry(0),
        // tiny per-shard cache so the hot design's states overflow it
        EngineConfig { workers: 2, shards: 2, cache_capacity: 2, ..EngineConfig::default() },
    );
    let handle = engine.handle();
    let cold_name = name_on_other_shard(&handle, &hot.name);
    let cold = Design { name: cold_name.clone(), ..scripted_design(1, 8, 0) };
    let hot_shard = handle.shard_of_design(&hot.name);
    let cold_shard = handle.shard_of_design(&cold.name);
    assert_ne!(hot_shard, cold_shard);

    // cold design: one prediction, cached on its own shard
    let mut cold_session = handle
        .open_session(
            SessionConfig::new("m").with_design(&cold.name),
            Arc::clone(&cold.circuit),
            cold.placement.clone(),
            cold.grid.clone(),
        )
        .expect("open cold session");
    assert!(!cold_session.predict().expect("cold predict").cached);
    assert_eq!(handle.shard_cache_len(cold_shard), 1);

    // hot design: churn through many distinct placements — far more than
    // the per-shard cache holds — all on the hot shard
    let mut hot_session = handle
        .open_session(
            SessionConfig::new("m").with_design(&hot.name),
            Arc::clone(&hot.circuit),
            hot.placement.clone(),
            hot.grid.clone(),
        )
        .expect("open hot session");
    let die = hot.circuit.die;
    let mut computed = 0;
    for i in 0..8u32 {
        let id = CellId(i);
        let p = hot_session.with_pipeline(|pl| pl.placement().position(id));
        let np = die.clamp(Point::new(
            p.x + 1.25 * hot.grid.gcell_width(),
            p.y + 1.25 * hot.grid.gcell_height(),
        ));
        hot_session.update(&PlacementDelta::single(id, np)).expect("hot update");
        if !hot_session.predict().expect("hot predict").cached {
            computed += 1;
        }
    }
    assert!(computed > 2, "the hot design must overflow its own shard's cache ({computed})");
    assert!(handle.shard_cache_len(hot_shard) <= 2, "hot shard respects its own capacity");

    // the cold design's entry was untouchable: still a cache hit
    let warm = cold_session.predict().expect("cold re-predict");
    assert!(warm.cached, "hot design A must not evict design B's cache entry on another shard");
    engine.shutdown();
}
