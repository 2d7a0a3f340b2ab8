//! Property: serving is a transparent wrapper — for random designs, any
//! client count, any cache state and EITHER architecture,
//! [`ServeHandle::predict`] returns predictions bitwise-identical to a
//! direct [`CongestionModel::predict`] call.

use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use lh_graph::{ChannelMode, FeatureSet};
use lhnn::{
    CongestionModel, GraphOps, HybridNet, HybridNetConfig, Lhnn, LhnnConfig, ModelIoError,
    ModelScratch, Prediction, Program,
};
use lhnn_serve::{
    EngineConfig, ModelRegistry, PredictRequest, ServeEngine, ServeError, SessionConfig,
};
use neurograd::ParamStore;
use proptest::prelude::*;
use vlsi_netlist::synth::{generate, SynthConfig};
use vlsi_place::GlobalPlacer;

fn design(seed: u64, n_cells: usize, grid: u32) -> (Arc<GraphOps>, Arc<FeatureSet>) {
    let (ops, features) = lhnn_data::serving_inputs(seed, n_cells, grid).expect("build design");
    (Arc::new(ops), Arc::new(features))
}

/// One model of each registered architecture, by proptest-drawn index.
fn build_model(kind: usize, seed: u64) -> Box<dyn CongestionModel> {
    match kind % 2 {
        0 => Box::new(Lhnn::new(LhnnConfig::default(), seed)),
        _ => Box::new(HybridNet::new(HybridNetConfig::default(), seed)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Cold cache, warm cache and every client count agree
    /// bitwise with the direct forward — for BOTH architectures.
    #[test]
    fn served_prediction_is_bitwise_identical(
        design_seed in 0u64..1000,
        model_seed in 0u64..1000,
        model_kind in 0usize..2,
        n_cells in 60usize..140,
        grid in 6u32..10,
        clients in 1usize..5,
        cache_capacity in 0usize..8,
    ) {
        let (ops, features) = design(design_seed, n_cells, grid);
        let model = build_model(model_kind, model_seed);
        let direct = model.predict(&ops, &features);

        let registry = Arc::new(ModelRegistry::new());
        registry.register_boxed("m", model).expect("register");
        let engine = ServeEngine::new(
            registry,
            EngineConfig { cache_capacity, ..Default::default() },
        );
        let handle = engine.handle();
        let req = PredictRequest::new("m", ops, features);

        // cold (computed) and repeated (cached when capacity > 0) replies
        let cold = handle.predict(&req).expect("cold predict");
        let warm = handle.predict(&req).expect("warm predict");
        prop_assert!(!cold.cached);
        prop_assert_eq!(warm.cached, cache_capacity > 0);
        for reply in [&cold, &warm] {
            // tolerance 0.0 = bitwise equality
            prop_assert!(direct.cls_prob.approx_eq(&reply.prediction.cls_prob, 0.0));
            prop_assert!(direct.reg.approx_eq(&reply.prediction.reg, 0.0));
        }

        // a burst through predict_batch, sent at once from `clients`
        // threads, agrees too
        let bursts: Vec<_> = std::thread::scope(|scope| {
            let joins: Vec<_> = (0..clients)
                .map(|_| scope.spawn(|| handle.predict_batch(&vec![req.clone(); 4])))
                .collect();
            joins.into_iter().map(|j| j.join().expect("client thread")).collect()
        });
        for reply in bursts.into_iter().flatten() {
            let reply = reply.expect("batch predict");
            prop_assert!(direct.cls_prob.approx_eq(&reply.prediction.cls_prob, 0.0));
            prop_assert!(direct.reg.approx_eq(&reply.prediction.reg, 0.0));
        }
        engine.shutdown();
    }
}

/// Bitwise equality, not `approx_eq`: `-0.0 == 0.0` must not mask a
/// changed float sequence.
fn bitwise_eq(a: &neurograd::Matrix, b: &neurograd::Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The block-diagonal primitive: a stack of K designs' operators with
    /// row-stacked features forwards to outputs whose per-design row
    /// slices are bitwise identical to K individual forwards. Dense layers
    /// are row-local and each block's sparse rows see exactly that block's
    /// entries (shifted columns, same order), so this holds even for
    /// designs of different sizes.
    #[test]
    fn block_diagonal_batched_forward_matches_individual_forwards(
        model_seed in 0u64..1000,
        seeds in proptest::collection::vec(0u64..1000, 2..5),
        n_cells in 60usize..120,
        grid in 6u32..9,
    ) {
        let model = Lhnn::new(LhnnConfig::default(), model_seed);
        let designs: Vec<_> = seeds
            .iter()
            .enumerate()
            // vary n_cells per block so block sizes genuinely differ
            .map(|(i, &s)| design(s, n_cells + 7 * i, grid))
            .collect();

        let individual: Vec<_> =
            designs.iter().map(|(ops, feats)| model.predict(ops, feats)).collect();

        let ops_refs: Vec<&GraphOps> = designs.iter().map(|(o, _)| o.as_ref()).collect();
        let block_ops = GraphOps::block_diag(&ops_refs);
        let vstack = |pick: &dyn Fn(&FeatureSet) -> &neurograd::Matrix| {
            let cols = pick(&designs[0].1).cols();
            let mut data = Vec::new();
            for (_, feats) in &designs {
                data.extend_from_slice(pick(feats).as_slice());
            }
            let rows = data.len() / cols;
            neurograd::Matrix::from_vec(rows, cols, data).expect("vstack")
        };
        let batched_feats =
            FeatureSet { gcell: vstack(&|f| &f.gcell), gnet: vstack(&|f| &f.gnet) };
        let batched = model.predict(&block_ops, &batched_feats);

        let mut offset = 0;
        for ((_, feats), single) in designs.iter().zip(&individual) {
            let n = feats.gcell.rows();
            let ch = single.cls_prob.cols();
            let slice = |m: &neurograd::Matrix| {
                neurograd::Matrix::from_vec(
                    n,
                    ch,
                    m.as_slice()[offset * ch..(offset + n) * ch].to_vec(),
                )
                .expect("row slice")
            };
            prop_assert!(bitwise_eq(&slice(&batched.cls_prob), &single.cls_prob));
            prop_assert!(bitwise_eq(&slice(&batched.reg), &single.reg));
            offset += n;
        }
    }
}

/// An LHNN whose first forward tells the test it started, then waits
/// for the test's go-ahead: that forward is provably held while the test
/// sends more requests.
#[derive(Debug)]
struct Gated {
    inner: Lhnn,
    gate: Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl CongestionModel for Gated {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn gcell_in_dim(&self) -> usize {
        self.inner.gcell_in_dim()
    }
    fn gnet_in_dim(&self) -> usize {
        self.inner.gnet_in_dim()
    }
    fn hidden(&self) -> usize {
        self.inner.hidden()
    }
    fn channel_mode(&self) -> ChannelMode {
        self.inner.channel_mode()
    }
    fn store(&self) -> &ParamStore {
        self.inner.store()
    }
    fn store_mut(&mut self) -> &mut ParamStore {
        self.inner.store_mut()
    }
    fn weights_fingerprint(&self) -> u64 {
        self.inner.weights_fingerprint()
    }
    fn program(&self) -> &Program {
        self.inner.program()
    }
    fn save_to(&self, w: &mut dyn std::io::Write) -> Result<(), ModelIoError> {
        self.inner.save_to(w)
    }
    fn predict_with(
        &self,
        ops: &GraphOps,
        features: &FeatureSet,
        scratch: &mut ModelScratch,
    ) -> Prediction {
        // The guard drops at the end of this statement, so other forwards
        // of this model run while the gated one waits.
        let gate = self.gate.lock().expect("gate lock").take();
        if let Some((started, go)) = gate {
            started.send(()).expect("test listens");
            go.recv().expect("go-ahead");
        }
        self.inner.predict_with(ops, features, scratch)
    }
}

/// A gated LHNN (seed 7) whose gate the test holds: `(model, started, go)`.
fn gated_model() -> (Gated, mpsc::Receiver<()>, mpsc::Sender<()>) {
    let (started_tx, started) = mpsc::channel();
    let (go, go_rx) = mpsc::channel();
    let gated = Gated {
        inner: Lhnn::new(LhnnConfig::default(), 7),
        gate: Mutex::new(Some((started_tx, go_rx))),
    };
    (gated, started, go)
}

/// Waits up to 20 s for `rx`, then opens the gate either way, so a
/// failing run ends instead of hanging.
fn recv_then_open<T>(rx: &mpsc::Receiver<T>, go: &mpsc::Sender<()>) -> Option<T> {
    let got = rx.recv_timeout(Duration::from_secs(20)).ok();
    go.send(()).expect("gated forward waits");
    got
}

/// End-to-end: while one forward is held, a request with the held key
/// and three distinct same-shape requests all return without waiting for
/// it: each misses the cache and runs its own forward on its own thread.
/// Every reply is bitwise identical to a direct forward; the held key is
/// computed twice, and its second insert replaces the first, so the cache
/// holds one entry per distinct state.
#[test]
fn piled_up_requests_reply_bitwise() {
    // same config + seed builds bitwise-identical weights, so the local
    // copy is a faithful reference for the registered model
    let model = Lhnn::new(LhnnConfig::default(), 7);
    let (gated, started, go) = gated_model();
    let registry = Arc::new(ModelRegistry::new());
    registry.register("m", gated).expect("register");
    let engine =
        ServeEngine::new(registry, EngineConfig { cache_capacity: 64, ..Default::default() });
    let handle = engine.handle();

    // Same ops, perturbed features: identical shapes, distinct
    // fingerprints — different "designs" as far as keys are concerned.
    let (ops, base) = design(5, 90, 6);
    let variants: Vec<Arc<FeatureSet>> = (0..4)
        .map(|k| {
            let mut g = base.gcell.as_slice().to_vec();
            g[0] += 0.25 * k as f32;
            let gcell =
                neurograd::Matrix::from_vec(base.gcell.rows(), base.gcell.cols(), g).unwrap();
            Arc::new(FeatureSet { gcell, gnet: base.gnet.clone() })
        })
        .collect();

    // The first request holds its forward.
    let held = {
        let handle = handle.clone();
        let req = PredictRequest::new("m", Arc::clone(&ops), Arc::clone(&variants[0]));
        std::thread::spawn(move || handle.predict(&req).expect("predict"))
    };
    started.recv_timeout(Duration::from_secs(20)).expect("first forward started");
    // The same key again and the three distinct keys, at once: all four
    // finish while the first forward is still held.
    let (done_tx, done) = mpsc::channel();
    let piled = {
        let (handle, ops, variants) = (handle.clone(), Arc::clone(&ops), variants.clone());
        std::thread::spawn(move || {
            let replies: Vec<_> = std::thread::scope(|scope| {
                let joins: Vec<_> = variants
                    .iter()
                    .map(|feats| {
                        let req = PredictRequest::new("m", Arc::clone(&ops), Arc::clone(feats));
                        let handle = &handle;
                        scope.spawn(move || handle.predict(&req).expect("predict"))
                    })
                    .collect();
                joins.into_iter().map(|j| j.join().expect("client")).collect()
            });
            let _ = done_tx.send(());
            replies
        })
    };
    let returned = recv_then_open(&done, &go);
    let piled = piled.join().expect("piled-up clients");
    assert!(returned.is_some(), "piled-up requests returned while a forward was held");

    let held = held.join().expect("held client");
    for (feats, reply) in variants.iter().zip(&piled).chain([(&variants[0], &held)]) {
        assert!(!reply.cached, "nothing was cached while the forward was held");
        let direct = model.predict(&ops, feats);
        assert!(bitwise_eq(&direct.cls_prob, &reply.prediction.cls_prob));
        assert!(bitwise_eq(&direct.reg, &reply.prediction.reg));
    }

    let stats = handle.stats();
    assert_eq!(stats.requests, 5, "{stats}");
    assert_eq!(stats.computed, 5, "every miss runs its own forward: {stats}");
    assert_eq!(handle.cache_len(), 4, "equal keys share one cache entry");
    engine.shutdown();
}

/// Every predict runs on its caller's thread: while one forward is held,
/// a stateless predict on another model and a session predict both
/// return, bitwise equal to direct forwards. Once the engine has shut
/// down, both fail with `ShuttingDown`.
#[test]
fn predicts_return_while_another_forward_is_held() {
    let (gated, started, go) = gated_model();
    let registry = Arc::new(ModelRegistry::new());
    registry.register("gated", gated).expect("register");
    registry.register("free", Lhnn::new(LhnnConfig::default(), 3)).expect("register");
    let engine =
        ServeEngine::new(registry, EngineConfig { cache_capacity: 16, ..Default::default() });
    let handle = engine.handle();

    let (ops, feats) = design(5, 90, 6);
    let blocker = {
        let handle = handle.clone();
        let req = PredictRequest::new("gated", Arc::clone(&ops), Arc::clone(&feats));
        std::thread::spawn(move || handle.predict(&req))
    };
    started.recv_timeout(Duration::from_secs(20)).expect("gated forward started");

    let cfg = SynthConfig { seed: 11, n_cells: 90, grid_nx: 6, grid_ny: 6, ..Default::default() };
    let synth = generate(&cfg).expect("synth");
    let grid = cfg.grid();
    let placed = GlobalPlacer::default().place_synth(&synth, &grid).expect("place");
    let mut session = handle
        .open_session(SessionConfig::new("free"), Arc::new(synth.circuit), placed.placement, grid)
        .expect("open session");
    let stateless = PredictRequest::new("free", Arc::clone(&ops), Arc::clone(&feats));
    let (tx, rx) = mpsc::channel();
    let client = {
        let handle = handle.clone();
        let stateless = stateless.clone();
        std::thread::spawn(move || {
            let stateless_reply = handle.predict(&stateless);
            let session_reply = session.predict();
            let _ = tx.send(());
            (stateless_reply, session_reply, session)
        })
    };
    let returned = recv_then_open(&rx, &go);
    let (stateless_reply, session_reply, mut session) = client.join().expect("client");
    assert!(returned.is_some(), "predicts returned while another forward was held");
    let free = Lhnn::new(LhnnConfig::default(), 3);
    let reply = stateless_reply.expect("stateless predict");
    let direct = free.predict(&ops, &feats);
    assert!(bitwise_eq(&direct.cls_prob, &reply.prediction.cls_prob));
    assert!(bitwise_eq(&direct.reg, &reply.prediction.reg));
    let reply = session_reply.expect("session predict");
    let (session_ops, session_feats) = session.inputs().expect("inputs");
    let direct = free.predict(&session_ops, &session_feats);
    assert!(bitwise_eq(&direct.cls_prob, &reply.prediction.cls_prob));
    assert!(bitwise_eq(&direct.reg, &reply.prediction.reg));
    blocker.join().expect("blocker").expect("gated predict");

    engine.shutdown();
    let err = session.predict().expect_err("engine is shut down");
    assert!(matches!(err, ServeError::ShuttingDown), "got {err:?}");
    let err = handle.predict(&stateless).expect_err("engine is shut down");
    assert!(matches!(err, ServeError::ShuttingDown), "got {err:?}");
}
