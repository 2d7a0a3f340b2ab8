//! `placer_loop`: two placer clients replay traced placements against a
//! two-shard engine, each iteration being `Session::update` then
//! `Session::predict` — plus the per-layer replay of the same deltas.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use lh_graph::halo::{dilate, union_sorted};
use lh_graph::{DeltaOutcome, FeatureSet, LhGraph, LhGraphConfig};
use lhnn::{
    AblationSpec, CongestionModel, ForwardDirty, GraphOps, IncrementalForward, InvalidationCause,
    LatticePipeline, Lhnn, LhnnConfig, PipelineUpdate, Prediction, SpliceOutcome,
};
use lhnn_serve::{EngineConfig, ModelRegistry, ServeEngine, ServeHandle, SessionConfig};
use neurograd::CsrMatrix;
use vlsi_netlist::synth::{generate, SynthConfig};
use vlsi_netlist::{rebin_delta_in_place, Circuit, GcellGrid, Placement, PlacementDelta};
use vlsi_place::GlobalPlacer;

use crate::common::{
    mean, median, ms, repeated_setup, same_prediction, sub_seed, timed, Ctx, Latencies, Report,
    Result, RunOutcome, COMPUTE_THREADS, LHNN, WORKERS,
};

/// Size-class tags, small then large.
pub const CLASSES: [&str; 2] = ["g24", "g48"];

/// Every `CHECK_EVERY`-th iteration's prediction is re-derived with a
/// direct full forward after the timed region, up to `MAX_SAMPLED` per
/// client: the held inputs then weigh the same in `peak_rss_mb` however
/// fast the run goes.
const CHECK_EVERY: u64 = 12;
const MAX_SAMPLED: usize = 16;

/// One design with its traced placement.
pub struct LoopDesign {
    pub circuit: Arc<Circuit>,
    pub grid: GcellGrid,
    pub initial: Placement,
    pub final_placement: Placement,
    pub deltas: Vec<PlacementDelta>,
}

/// Generates a `(grid side, cells)` design from `seed` and places it,
/// recording the placer's per-iteration deltas.
pub fn traced_design(name: String, seed: u64, (side, cells): (u32, usize)) -> Result<LoopDesign> {
    let cfg = SynthConfig {
        name,
        seed,
        n_cells: cells,
        grid_nx: side,
        grid_ny: side,
        ..SynthConfig::default()
    };
    let synth = generate(&cfg)?;
    let grid = cfg.grid();
    let (placed, trace) = GlobalPlacer::default().place_synth_traced(&synth, &grid)?;
    Ok(LoopDesign {
        circuit: Arc::new(synth.circuit),
        grid,
        initial: trace.initial,
        final_placement: placed.placement,
        deltas: trace.deltas,
    })
}

/// Design `idx` of size class `class`.
pub fn loop_design(ctx: &Ctx, class: usize, idx: usize) -> Result<LoopDesign> {
    traced_design(
        format!("loop-{}-{idx}", CLASSES[class]),
        sub_seed(ctx.seed, 10_000 + (class as u64) * 1_000 + idx as u64),
        ctx.profile.loop_sizes[class],
    )
}

/// The LHNN every placer-loop engine serves (weights seeded by the run).
fn lhnn_model(ctx: &Ctx) -> Lhnn {
    Lhnn::new(LhnnConfig::default(), sub_seed(ctx.seed, 1))
}

fn loop_engine(ctx: &Ctx) -> Result<ServeEngine> {
    let registry = Arc::new(ModelRegistry::new());
    registry.register_boxed(LHNN, Box::new(lhnn_model(ctx)))?;
    Ok(ServeEngine::new(
        registry,
        EngineConfig {
            workers: WORKERS,
            shards: 2,
            compute_threads: COMPUTE_THREADS,
            ..EngineConfig::default()
        },
    ))
}

/// A design id of `base` that the engine pins to `shard`, so each client
/// owns one shard's worker.
fn id_on_shard(handle: &ServeHandle, base: &str, shard: usize) -> String {
    (0..)
        .map(|k| format!("{base}-{k}"))
        .find(|id| handle.shard_of_design(id) == shard % handle.shards())
        .expect("some suffix hashes to every shard")
}

struct Setup {
    designs: [Vec<LoopDesign>; 2],
    ids: [Vec<String>; 2],
    engine: ServeEngine,
}

fn setup(ctx: &Ctx) -> Result<Setup> {
    let mut designs: [Vec<LoopDesign>; 2] = [Vec::new(), Vec::new()];
    for (class, list) in designs.iter_mut().enumerate() {
        for idx in 0..ctx.profile.loop_designs[class] {
            list.push(loop_design(ctx, class, idx)?);
        }
    }
    let engine = loop_engine(ctx)?;
    let handle = engine.handle();
    let ids = [0, 1].map(|class| {
        (0..designs[class].len())
            .map(|i| id_on_shard(&handle, &format!("loop-{}-{i}", CLASSES[class]), class))
            .collect()
    });
    Ok(Setup { designs, ids, engine })
}

/// A session's final state, checked against a from-scratch build.
struct FinalState {
    design: usize,
    fingerprints: (u64, u64),
    columns: Vec<vlsi_netlist::NetId>,
}

#[derive(Default)]
struct ClientOut {
    lat_ms: Vec<f64>,
    iterations: u64,
    failed: u64,
    /// Seconds the client spent on iterations, its check captures excluded.
    busy_s: f64,
    sampled: Vec<(Arc<GraphOps>, Arc<FeatureSet>, Arc<Prediction>)>,
    finals: Vec<FinalState>,
}

/// One placer client: replays its designs' traces until `deadline`,
/// opening a fresh session per pass over a design. What the checks need
/// is captured in the loop (a session does not outlive its pass), and
/// the time it takes is left out of `busy_s`.
fn client(
    handle: &ServeHandle,
    designs: &[LoopDesign],
    ids: &[String],
    start: Instant,
    deadline: Instant,
) -> ClientOut {
    let mut out = ClientOut::default();
    let mut capture_s = 0.0;
    let mut pass = 0usize;
    while Instant::now() < deadline {
        let d = pass % designs.len();
        pass += 1;
        let design = &designs[d];
        let session = handle.open_session(
            SessionConfig::new(LHNN).with_design(&ids[d]),
            Arc::clone(&design.circuit),
            design.initial.clone(),
            design.grid.clone(),
        );
        let Ok(mut session) = session else {
            out.failed += 1;
            continue;
        };
        let mut completed = true;
        for delta in &design.deltas {
            if Instant::now() >= deadline {
                completed = false;
                break;
            }
            out.iterations += 1;
            let t0 = Instant::now();
            let reply = session.update(delta).and_then(|_| session.predict());
            let lat = ms(t0.elapsed());
            match reply {
                Ok(reply) => {
                    out.lat_ms.push(lat);
                    if out.iterations.is_multiple_of(CHECK_EVERY) && out.sampled.len() < MAX_SAMPLED
                    {
                        let (inputs, t) = timed(|| session.inputs());
                        capture_s += t / 1e3;
                        match inputs {
                            Ok((ops, feats)) => out.sampled.push((ops, feats, reply.prediction)),
                            Err(_) => out.failed += 1,
                        }
                    }
                }
                Err(_) => {
                    out.failed += 1;
                    completed = false;
                    break;
                }
            }
        }
        if completed {
            let (state, t) = timed(|| {
                session.fingerprints().map(|fingerprints| FinalState {
                    design: d,
                    fingerprints,
                    columns: session.with_pipeline(|p| p.graph().kept_nets().to_vec()),
                })
            });
            capture_s += t / 1e3;
            match state {
                Ok(state) => out.finals.push(state),
                Err(_) => out.failed += 1,
            }
        }
    }
    out.busy_s = start.elapsed().as_secs_f64() - capture_s;
    out
}

/// From-scratch fingerprints at a design's final placement with a
/// prescribed column layout.
fn rebuilt_fingerprints(
    design: &LoopDesign,
    columns: &[vlsi_netlist::NetId],
) -> Result<(u64, u64)> {
    let graph = LhGraph::build_with_columns(
        &design.circuit,
        &design.final_placement,
        &design.grid,
        &LhGraphConfig::default(),
        columns,
    )?;
    let features =
        FeatureSet::build(&graph, &design.circuit, &design.final_placement, &design.grid)?;
    let ops = GraphOps::from_graph(&graph, &AblationSpec::full());
    Ok((ops.fingerprint(), features.fingerprint()))
}

/// Runs the workload for `ctx.seconds`.
pub fn run(ctx: &Ctx) -> Result<RunOutcome> {
    let (Setup { designs, ids, engine }, setup_times_s) =
        repeated_setup(ctx.profile.setup_repeats, || setup(ctx), |old| old.engine.shutdown())?;
    let handle = engine.handle();

    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(ctx.seconds);
    let outs: Vec<ClientOut> = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..2)
            .map(|class| {
                let (handle, designs, ids) = (&handle, &designs[class], &ids[class]);
                scope.spawn(move || client(handle, designs, ids, start, deadline))
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("placer client panicked")).collect()
    });
    let stats = handle.stats();
    engine.shutdown();

    // Correctness, outside the timed region.
    let model = lhnn_model(ctx);
    let mut scratch = model.new_scratch();
    let mut failed: u64 = outs.iter().map(|o| o.failed).sum();
    let mut checks = 0u64;
    for (class, out) in outs.iter().enumerate() {
        let mut reference: HashMap<(usize, Vec<vlsi_netlist::NetId>), (u64, u64)> = HashMap::new();
        for f in &out.finals {
            checks += 1;
            let key = (f.design, f.columns.clone());
            let expect = match reference.get(&key) {
                Some(fp) => *fp,
                None => {
                    let fp = rebuilt_fingerprints(&designs[class][f.design], &f.columns)?;
                    reference.insert(key, fp);
                    fp
                }
            };
            if expect != f.fingerprints {
                failed += 1;
            }
        }
        for (ops, feats, served) in &out.sampled {
            checks += 1;
            if !same_prediction(&model.predict_with(ops, feats, scratch.as_mut()), served) {
                failed += 1;
            }
        }
    }

    let [small, large] = [&outs[0], &outs[1]];
    let iterations = small.iterations + large.iterations;
    Ok(RunOutcome {
        lat: Latencies { small_ms: small.lat_ms.clone(), large_ms: large.lat_ms.clone() },
        throughput_per_s: outs.iter().map(|o| o.lat_ms.len() as f64 / o.busy_s.max(1e-9)).sum(),
        setup_times_s,
        attempted: iterations + checks,
        failed,
        info: vec![
            ("iterations.g24".into(), small.iterations.to_string()),
            ("iterations.g48".into(), large.iterations.to_string()),
            ("sessions_checked".into(), (small.finals.len() + large.finals.len()).to_string()),
            ("engine_cache_hits".into(), stats.cache_hits.to_string()),
            ("engine_computed".into(), stats.computed.to_string()),
            ("pool_iterations.g24".into(), pool_iterations(&designs[0]).to_string()),
            ("pool_iterations.g48".into(), pool_iterations(&designs[1]).to_string()),
            ("predictions_checked".into(), (small.sampled.len() + large.sampled.len()).to_string()),
        ],
    })
}

/// Iterations one pass over every design of a pool takes.
fn pool_iterations(designs: &[LoopDesign]) -> usize {
    designs.iter().map(|d| d.deltas.len()).sum()
}

/// A copy of `m` whose transpose cache is cold when `m`'s is, so the
/// dilation chain pays the same transposes the engine's splice pays.
fn cold_copy(m: &Arc<CsrMatrix>) -> Arc<CsrMatrix> {
    if m.transpose_cache_warm() {
        Arc::clone(m)
    } else {
        let triplets: Vec<(usize, usize, f32)> = m.iter().collect();
        Arc::new(CsrMatrix::from_triplets(m.rows(), m.cols(), &triplets))
    }
}

/// The LHNN forward's halo: one `H` hop, two per HyperMP block and one
/// per LatticeMP block, each through the operator's transpose.
fn dilate_chain(
    ops: [&CsrMatrix; 4],
    cfg: &LhnnConfig,
    mut dc: Vec<usize>,
    mut dn: Vec<usize>,
) -> (Vec<usize>, Vec<usize>) {
    let [gnc_sum, gnc_mean, gcn_mean, lattice_mean] = ops;
    dc = union_sorted(&dc, &dilate(gnc_sum.transpose_cached(), &dn));
    for _ in 0..cfg.hypermp_layers {
        dn = union_sorted(&dn, &dilate(gcn_mean.transpose_cached(), &dc));
        dc = union_sorted(&dc, &dilate(gnc_mean.transpose_cached(), &dn));
    }
    for _ in 0..cfg.latticemp_encode_layers + cfg.latticemp_joint_layers {
        dc = union_sorted(&dc, &dilate(lattice_mean.transpose_cached(), &dc));
    }
    (dc, dn)
}

/// Per-call times of one size class's layer replay.
#[derive(Default)]
struct LayerTimes {
    rebin: Vec<f64>,
    graph_patch: Vec<f64>,
    feature_patch: Vec<f64>,
    apply: Vec<f64>,
    rebuild: Vec<f64>,
    dilate: Vec<f64>,
    splice: Vec<f64>,
    full: Vec<f64>,
    halo_frac: Vec<f64>,
    spliced: usize,
    predicts: usize,
    session_update: Vec<f64>,
    session_predict: Vec<f64>,
}

/// Replays the rebin → graph patch → feature patch stages by hand.
fn replay_stages(d: &LoopDesign, t: &mut LayerTimes) -> Result<()> {
    let cfg = LhGraphConfig::default();
    let cell_to_nets = d.circuit.cell_to_nets();
    let mut placement = d.initial.clone();
    let mut graph = LhGraph::build(&d.circuit, &placement, &d.grid, &cfg)?;
    let mut feats = FeatureSet::build(&graph, &d.circuit, &placement, &d.grid)?;
    for delta in &d.deltas {
        let (report, rebin_ms) = timed(|| {
            rebin_delta_in_place(&d.circuit, &d.grid, &mut placement, delta, &cell_to_nets)
        });
        t.rebin.push(rebin_ms);
        if report.is_clean() {
            continue;
        }
        let (outcome, patch_ms) = timed(|| graph.apply_delta(&d.grid, &cfg, &report));
        t.graph_patch.push(patch_ms);
        match outcome? {
            DeltaOutcome::Patched(patch) => {
                let (f, feat_ms) =
                    timed(|| feats.apply_delta(&patch, &report, &d.circuit, &placement, &d.grid));
                t.feature_patch.push(feat_ms);
                feats = f?;
                graph = patch.graph;
            }
            DeltaOutcome::Structural(_) => {
                graph = LhGraph::build(&d.circuit, &placement, &d.grid, &cfg)?;
                feats = FeatureSet::build(&graph, &d.circuit, &placement, &d.grid)?;
            }
        }
    }
    Ok(())
}

/// `LatticePipeline::apply` on one pipeline, `::rebuild` on a twin at the
/// same placement (a rebuild compacts, so it must not feed the splice).
fn replay_pipeline(d: &LoopDesign, t: &mut LayerTimes) -> Result<()> {
    let mut twin =
        LatticePipeline::for_serving(Arc::clone(&d.circuit), d.initial.clone(), d.grid.clone())?;
    let mut p =
        LatticePipeline::for_serving(Arc::clone(&d.circuit), d.initial.clone(), d.grid.clone())?;
    for delta in &d.deltas {
        let (upd, apply_ms) = timed(|| p.apply(delta));
        upd?;
        t.apply.push(apply_ms);
        twin.apply(delta)?;
        let (rebuilt, rebuild_ms) = timed(|| twin.rebuild());
        rebuilt?;
        t.rebuild.push(rebuild_ms);
    }
    Ok(())
}

/// Dilation, splice and full forward per delta, as a session's predict
/// would see them. Returns the number of splice/full mismatches.
fn replay_forward(d: &LoopDesign, model: &Lhnn, t: &mut LayerTimes) -> Result<(u64, u64)> {
    let (gd, nd) = FeatureSet::default_divisors();
    let version = model.weights_fingerprint();
    let mut scratch = model.new_scratch();
    let incr = IncrementalForward::new();
    let mut p =
        LatticePipeline::for_serving(Arc::clone(&d.circuit), d.initial.clone(), d.grid.clone())?;
    let mut prev_gnets: Option<usize> = None;
    let (mut checked, mut mismatched) = (0u64, 0u64);
    for delta in &d.deltas {
        let update = p.apply(delta)?;
        let ops = p.ops();
        let feats = Arc::new(p.features().scaled_fixed(&gd, &nd));
        match update {
            PipelineUpdate::Incremental { dirty_nets, dirty_gcells } => {
                if let Some(prev) = prev_gnets {
                    let cold = [&ops.gnc_sum, &ops.gnc_mean, &ops.gcn_mean, &ops.lattice_mean]
                        .map(cold_copy);
                    let appended: Vec<usize> = (prev..ops.num_gnets).collect();
                    let dn = union_sorted(&dirty_nets, &appended);
                    let (_, dilate_ms) = timed(|| {
                        std::hint::black_box(dilate_chain(
                            [&cold[0], &cold[1], &cold[2], &cold[3]],
                            model.config(),
                            dirty_gcells.clone(),
                            dn,
                        ))
                    });
                    t.dilate.push(dilate_ms);
                }
                incr.note_incremental(&ForwardDirty::new(dirty_gcells, dirty_nets));
            }
            PipelineUpdate::FullRebuild { cause } => {
                incr.note_structural(InvalidationCause::from(&cause));
            }
            PipelineUpdate::Noop => {}
        }
        let ((pred, outcome), splice_ms) =
            timed(|| incr.predict(model, version, &ops, &feats, incr.seq()));
        t.predicts += 1;
        if let SpliceOutcome::Spliced { gcell_rows, .. } = outcome {
            t.spliced += 1;
            t.splice.push(splice_ms);
            t.halo_frac.push(gcell_rows as f64 / ops.num_gcells.max(1) as f64);
        }
        let (full, full_ms) = timed(|| model.predict_with(&ops, &feats, scratch.as_mut()));
        t.full.push(full_ms);
        checked += 1;
        if !same_prediction(&pred, &full) {
            mismatched += 1;
        }
        prev_gnets = Some(ops.num_gnets);
    }
    Ok((checked, mismatched))
}

/// The per-layer metrics of the placer loop, at both sizes.
pub fn layers(ctx: &Ctx, report: &mut Report) -> Result<()> {
    let model = lhnn_model(ctx);
    let engine = loop_engine(ctx)?;
    let handle = engine.handle();
    let (mut updates_issued, mut predicts_issued) = (0u64, 0u64);
    let (mut pipeline_updates, mut incr_predicts) = (0u64, 0u64);
    let mut all = Vec::new();
    for (class, tag) in CLASSES.iter().enumerate() {
        let d = loop_design(ctx, class, 0)?;
        let mut t = LayerTimes::default();
        replay_stages(&d, &mut t)?;
        replay_pipeline(&d, &mut t)?;
        let (checked, mismatched) = replay_forward(&d, &model, &mut t)?;
        report.attempted += checked;
        report.failed += mismatched;

        // Client-timed session iterations on one thread.
        let id = id_on_shard(&handle, &format!("layers-{tag}"), class);
        let mut session = handle.open_session(
            SessionConfig::new(LHNN).with_design(id),
            Arc::clone(&d.circuit),
            d.initial.clone(),
            d.grid.clone(),
        )?;
        for delta in &d.deltas {
            let (u, update_ms) = timed(|| session.update(delta));
            u?;
            updates_issued += 1;
            let (p, predict_ms) = timed(|| session.predict());
            p?;
            predicts_issued += 1;
            t.session_update.push(update_ms);
            t.session_predict.push(predict_ms);
        }
        pipeline_updates += session.stats().updates as u64;
        let inc = session.incremental_stats();
        incr_predicts += inc.full_forwards + inc.spliced_forwards + inc.reused;
        all.push((*tag, t));
    }
    let stats = handle.stats();
    let snap = handle.metrics_snapshot();
    engine.shutdown();

    for (c, t) in &all {
        report.push(format!("netlist.rebin_ms.{c}"), median(&t.rebin), "ms");
        report.push(format!("lhgraph.graph_patch_ms.{c}"), median(&t.graph_patch), "ms");
        report.push(format!("lhgraph.feature_patch_ms.{c}"), median(&t.feature_patch), "ms");
        report.push(format!("core.pipeline_apply_ms.{c}"), median(&t.apply), "ms");
        report.push(format!("core.pipeline_rebuild_ms.{c}"), median(&t.rebuild), "ms");
        report.push(format!("lhgraph.dilate_ms.{c}"), median(&t.dilate), "ms");
        report.push(format!("core.splice_ms.{c}"), median(&t.splice), "ms");
        report.push(format!("core.full_forward_ms.{c}"), median(&t.full), "ms");
        report.push(format!("core.halo_gcell_frac.{c}"), mean(&t.halo_frac), "frac");
        report.push(
            format!("core.spliced_frac.{c}"),
            t.spliced as f64 / t.predicts.max(1) as f64,
            "frac",
        );
        let update = median(&t.session_update);
        let predict = median(&t.session_predict);
        report.push(format!("serve.session_update_ms.{c}"), update, "ms");
        report.push(format!("serve.session_predict_ms.{c}"), predict, "ms");
        report.push(format!("serve.session_overhead_ms.{c}"), predict - median(&t.splice), "ms");
        report.note(
            format!("splice_over_full.{c}"),
            format!("{:.3}", median(&t.splice) / median(&t.full).max(1e-9)),
        );
        report.note(
            format!("dilate_share_of_splice.{c}"),
            format!("{:.3}", median(&t.dilate) / median(&t.splice).max(1e-9)),
        );
    }

    // Exact counts: what the benchmark issued against what each layer's
    // own accounting says.
    let frac = |counted: u64, issued: u64| counted as f64 / issued.max(1) as f64;
    report.push(
        "core.pipeline_updates_counted_frac",
        frac(pipeline_updates, updates_issued),
        "frac",
    );
    report.push(
        "core.incremental_predicts_counted_frac",
        frac(incr_predicts, predicts_issued),
        "frac",
    );
    report.push("serve.requests_counted_frac", frac(stats.requests, predicts_issued), "frac");
    report.push(
        "serve.session_updates_counted_frac",
        frac(stats.session_updates, updates_issued),
        "frac",
    );
    report.push(
        "obs.requests_counted_frac",
        frac(snap.counter("lhnn_requests_total"), predicts_issued),
        "frac",
    );
    report.push(
        "obs.session_updates_counted_frac",
        frac(snap.counter("lhnn_session_updates_total"), updates_issued),
        "frac",
    );
    Ok(())
}
