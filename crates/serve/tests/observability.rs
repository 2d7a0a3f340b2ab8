//! Observability must be a pure read-out: metrics on vs off changes no
//! prediction bit at any client count, snapshotting under load never
//! deadlocks or tears, the exposition carries the canonical series, and
//! the flight recorder captures the engine's notable events.

use std::sync::Arc;

use lh_graph::FeatureSet;
use lhnn::{GraphOps, Lhnn, LhnnConfig, Prediction};
use lhnn_serve::obs::{parse_prometheus, FlightEventKind};
use lhnn_serve::{EngineConfig, ModelRegistry, PredictRequest, ServeEngine, SessionConfig};
use proptest::prelude::*;
use vlsi_netlist::synth::{generate, SynthConfig};
use vlsi_netlist::{CellId, Circuit, GcellGrid, Placement, PlacementDelta, Point};
use vlsi_place::GlobalPlacer;

fn registry() -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", Lhnn::new(LhnnConfig::default(), 0)).expect("register");
    registry
}

fn serving_design(seed: u64, n_cells: usize, grid: u32) -> (Arc<GraphOps>, Arc<FeatureSet>) {
    let (ops, features) = lhnn_data::serving_inputs(seed, n_cells, grid).expect("build design");
    (Arc::new(ops), Arc::new(features))
}

fn session_design(seed: u64) -> (Arc<Circuit>, Placement, GcellGrid) {
    let cfg = SynthConfig { seed, n_cells: 90, grid_nx: 6, grid_ny: 6, ..SynthConfig::default() };
    let synth = generate(&cfg).expect("synth");
    let grid = cfg.grid();
    let placed = GlobalPlacer::default().place_synth(&synth, &grid).expect("place");
    (Arc::new(synth.circuit), placed.placement, grid)
}

/// Drives one placement loop (update + predict per step) and returns the
/// predictions, so runs against differently-configured engines can be
/// compared bit for bit.
fn drive_loop(engine: &ServeEngine, seed: u64, steps: u32) -> Vec<Arc<Prediction>> {
    let (circuit, placement, grid) = session_design(seed);
    let die = circuit.die;
    let mut session = engine
        .handle()
        .open_session(SessionConfig::new("m"), circuit, placement, grid.clone())
        .expect("open session");
    let mut predictions = vec![session.predict().expect("cold predict").prediction];
    for step in 0..steps {
        let id = CellId(step);
        let p = session.with_pipeline(|pl| pl.placement().position(id));
        let np = die.clamp(Point::new(p.x + grid.gcell_width() * 1.25, p.y));
        session.update(&PlacementDelta::single(id, np)).expect("update");
        predictions.push(session.predict().expect("predict").prediction);
    }
    predictions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The instrumentation off-switch is bitwise invisible: placement
    /// loops served with full metrics equal the same loops served with
    /// metrics off, at every client count.
    #[test]
    fn metrics_do_not_change_predictions(
        seed in 0u64..500,
        clients in 1usize..5,
        steps in 1u32..4,
    ) {
        let on = ServeEngine::new(registry(), EngineConfig { metrics: true, ..EngineConfig::default() });
        let off =
            ServeEngine::new(registry(), EngineConfig { metrics: false, ..EngineConfig::default() });
        prop_assert!(on.handle().metrics_enabled());
        prop_assert!(!off.handle().metrics_enabled());
        // `clients` loops at once, one thread each, over designs
        // seed..seed+clients
        let drive_all = |engine: &ServeEngine| -> Vec<Arc<Prediction>> {
            std::thread::scope(|scope| {
                let joins: Vec<_> = (0..clients as u64)
                    .map(|c| scope.spawn(move || drive_loop(engine, seed + c, steps)))
                    .collect();
                joins.into_iter().flat_map(|j| j.join().expect("client thread")).collect()
            })
        };
        let with_metrics = drive_all(&on);
        let without = drive_all(&off);
        let issued = clients as u64 * (u64::from(steps) + 1);
        prop_assert_eq!(with_metrics.len() as u64, issued);
        prop_assert_eq!(with_metrics.len(), without.len());
        for (a, b) in with_metrics.iter().zip(&without) {
            // tolerance 0.0 = bitwise equality
            prop_assert!(a.cls_prob.approx_eq(&b.cls_prob, 0.0));
            prop_assert!(a.reg.approx_eq(&b.reg, 0.0));
        }
        // the instrumented run actually recorded: requests flowed and the
        // per-stage splice/forward spans saw the session's forwards
        let snap = on.handle().metrics_snapshot();
        prop_assert_eq!(snap.counter("lhnn_requests_total"), issued);
        prop_assert!(snap.counter("lhnn_computed_total") >= 1);
        // the off engine still counts every request, but times no span
        let off_snap = off.handle().metrics_snapshot();
        prop_assert_eq!(off_snap.counter("lhnn_requests_total"), issued);
        prop_assert_eq!(off_snap.histogram("lhnn_stage_us{stage=\"splice\"}").unwrap().count, 0);
        on.shutdown();
        off.shutdown();
    }
}

/// Snapshotting and rendering while the engine is under concurrent load
/// must never deadlock and never tear: after quiescing, the snapshot
/// agrees with the `ServeStats` view of the same cells.
#[test]
fn snapshot_under_load_never_deadlocks_or_tears() {
    let engine = ServeEngine::new(
        registry(),
        EngineConfig { cache_capacity: 64, ..EngineConfig::default() },
    );
    let handle = engine.handle();
    let designs: Vec<_> = (0..4).map(|s| serving_design(70 + s, 70, 6)).collect();
    std::thread::scope(|scope| {
        for (ops, features) in &designs {
            let h = handle.clone();
            let ops = Arc::clone(ops);
            let features = Arc::clone(features);
            scope.spawn(move || {
                for _ in 0..5 {
                    let req = PredictRequest::new("m", Arc::clone(&ops), Arc::clone(&features));
                    h.predict(&req).expect("predict under load");
                }
            });
        }
        // concurrent observers: snapshot, render, parse, drain flight
        for _ in 0..2 {
            let h = handle.clone();
            scope.spawn(move || {
                for _ in 0..10 {
                    let snap = h.metrics_snapshot();
                    let text = snap.to_prometheus();
                    assert!(!parse_prometheus(&text).is_empty());
                    assert!(!snap.to_json().is_empty());
                    let _ = h.flight_events();
                }
            });
        }
    });
    // Quiesced: every replied request was counted exactly once, into the
    // counter and into the latency histogram.
    let exact = handle.stats();
    let snap = handle.metrics_snapshot();
    assert_eq!(snap.counter("lhnn_requests_total"), exact.requests);
    assert_eq!(snap.counter("lhnn_computed_total"), exact.computed);
    assert_eq!(snap.counter("lhnn_cache_hits_total"), exact.cache_hits);
    assert_eq!(snap.histogram("lhnn_request_us").expect("latency histogram").count, exact.requests);
    engine.shutdown();
}

/// Every session update counts exactly once, in the engine stats and in
/// `lhnn_session_updates_total`, whether it applies, is a noop or is
/// rejected.
#[test]
fn every_session_update_counts_once() {
    let engine = ServeEngine::new(registry(), EngineConfig::default());
    let handle = engine.handle();
    let (circuit, placement, grid) = session_design(3);
    let die = circuit.die;
    let mut session = handle
        .open_session(SessionConfig::new("m"), circuit, placement, grid.clone())
        .expect("open session");
    let mut issued = 0u64;
    for step in 0..12u32 {
        let id = CellId(step);
        let p = session.with_pipeline(|pl| pl.placement().position(id));
        let to = match step % 3 {
            0 => die.clamp(Point::new(p.x + grid.gcell_width(), p.y)),
            1 => p,
            _ => Point::new(f32::NAN, p.y),
        };
        let applied = session.update(&PlacementDelta::single(id, to));
        assert_eq!(applied.is_ok(), step % 3 != 2, "step {step}: {applied:?}");
        issued += 1;
    }
    session.predict().expect("predict");
    assert_eq!(handle.stats().session_updates, issued);
    assert_eq!(handle.metrics_snapshot().counter("lhnn_session_updates_total"), issued);
}

/// The rendered exposition carries the canonical series the CI smoke
/// greps for, and round-trips through the parser.
#[test]
fn exposition_contains_canonical_series() {
    let engine = ServeEngine::new(registry(), EngineConfig::default());
    let handle = engine.handle();
    // one session loop so the update/forward stages all record
    let _ = drive_loop(&engine, 3, 2);
    let snap = handle.metrics_snapshot();
    let text = snap.to_prometheus();
    for needle in ["lhnn_requests_total", "lhnn_stage_us{stage=\"splice\"}", "lhnn_fallbacks_total"]
    {
        assert!(text.contains(needle), "exposition must carry {needle}:\n{text}");
    }
    // one unlabelled requests series, equal to the snapshot's count
    let parsed = parse_prometheus(&text);
    let requests: Vec<_> = parsed.iter().filter(|s| s.name == "lhnn_requests_total").collect();
    assert_eq!(requests.len(), 1, "one requests series");
    assert!(requests[0].labels.is_empty());
    assert_eq!(requests[0].value as u64, snap.counter("lhnn_requests_total"));
    engine.shutdown();
}

/// Hot-swapping a model on a live engine leaves a flight event behind.
#[test]
fn flight_recorder_captures_hot_swaps() {
    let engine = ServeEngine::new(registry(), EngineConfig::default());
    let handle = engine.handle();
    handle.replace_model("m", Lhnn::new(LhnnConfig::default(), 9)).expect("swap");
    let events = handle.flight_events();
    let swap =
        events.iter().find(|e| e.kind == FlightEventKind::HotSwap).expect("hot-swap flight event");
    assert_eq!(swap.scope, "m");
    assert!(swap.detail.contains("->"), "detail names both versions: {}", swap.detail);
    engine.shutdown();
}

/// A failed fallback rebuild poisons the session and lands in the flight
/// recorder once, with the design as scope — and a metrics-off engine
/// records no event for the same failure. The design is a single 2-pin
/// net on a 4x4 grid, where the default size filter keeps nets of at most
/// 1 g-cell: stretching it across the die leaves no net to rebuild from.
#[test]
fn flight_recorder_captures_session_poisoning() {
    use vlsi_netlist::{Cell, Net, Pin, Rect};
    for metrics in [true, false] {
        let engine =
            ServeEngine::new(registry(), EngineConfig { metrics, ..EngineConfig::default() });
        let handle = engine.handle();
        let die = Rect::new(0.0, 0.0, 8.0, 8.0);
        let mut circuit = Circuit::new("tiny", die);
        let a = circuit.add_cell(Cell::movable("a", 0.2, 0.2));
        let b = circuit.add_cell(Cell::movable("b", 0.2, 0.2));
        circuit.add_net(Net::new("n", vec![Pin::at_center(a), Pin::at_center(b)]));
        let mut placement = Placement::zeroed(2);
        placement.set_position(a, Point::new(1.0, 1.0));
        placement.set_position(b, Point::new(1.2, 1.2));
        let mut session = handle
            .open_session(
                SessionConfig::new("m").with_design("poison-me"),
                Arc::new(circuit),
                placement,
                GcellGrid::new(die, 4, 4),
            )
            .expect("open session");
        assert!(session.update(&PlacementDelta::single(b, Point::new(7.0, 7.0))).is_err());
        assert!(session.predict().is_err(), "a poisoned session must not predict");
        let poisonings: Vec<_> = handle
            .flight_events()
            .into_iter()
            .filter(|e| e.kind == FlightEventKind::Poisoned)
            .collect();
        if metrics {
            assert_eq!(poisonings.len(), 1, "exactly one poisoning event");
            assert_eq!(poisonings[0].scope, "poison-me");
        } else {
            assert!(poisonings.is_empty(), "metrics off must drop flight events");
        }
        // the merged per-session view reports either way
        let view = session.observability();
        assert_eq!(view.design, "poison-me");
        assert!(view.pipeline.stale);
        engine.shutdown();
    }
}
