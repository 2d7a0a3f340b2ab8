//! `serve_stateless`: two closed-loop clients send `predict_batch` calls
//! of 1–4 placement snapshots to a one-shard engine — plus the per-layer
//! measurements of the stateless path.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lh_graph::FeatureSet;
use lhnn::{
    CongestionModel, GraphOps, HybridNet, HybridNetConfig, LatticePipeline, Lhnn, LhnnConfig,
    PipelineUpdate,
};
use lhnn_serve::{EngineConfig, ModelRegistry, PredictRequest, ServeEngine, ServeHandle};
use neurograd::{kernels, Matrix};

use crate::common::{
    median, ms, prediction_digest, repeated_setup, same_prediction, sub_seed, timed, Ctx,
    Latencies, Report, Result, Rng, RunOutcome, COMPUTE_THREADS, HYBRIDNET, LHNN, WORKERS,
};
use crate::placer::traced_design;

/// Model names in request order: index 1 (HybridNet) is asked for by one
/// call in four.
const MODELS: [&str; 2] = [LHNN, HYBRIDNET];
/// Recently asked snapshots a repeat may pick from, per design.
const HISTORY: usize = 64;
/// Snapshots per call in the per-layer block-diagonal measurement.
const BLOCK: usize = 4;

/// One placement snapshot: operators plus scaled features.
#[derive(Clone)]
pub struct Snapshot {
    ops: Arc<GraphOps>,
    feats: Arc<FeatureSet>,
}

/// The snapshots of every serving design: the states a global placer
/// passes through (its traced start, then each delta that changed the
/// lattice inputs).
pub fn snapshot_pool(ctx: &Ctx) -> Result<Vec<Vec<Snapshot>>> {
    let (gd, nd) = FeatureSet::default_divisors();
    (0..ctx.profile.serve_designs)
        .map(|d| {
            let design = traced_design(
                format!("serve-{d}"),
                sub_seed(ctx.seed, 200 + d as u64),
                ctx.profile.serve_size,
            )?;
            let mut p = LatticePipeline::for_serving(design.circuit, design.initial, design.grid)?;
            let snap = |p: &LatticePipeline| {
                let ops = p.ops();
                // Warm the operator digests the engine keys its cache on.
                let _ = ops.fingerprint();
                Snapshot { ops, feats: Arc::new(p.features().scaled_fixed(&gd, &nd)) }
            };
            let mut snaps = vec![snap(&p)];
            for delta in &design.deltas {
                if !matches!(p.apply(delta)?, PipelineUpdate::Noop) {
                    snaps.push(snap(&p));
                }
            }
            Ok(snaps)
        })
        .collect()
}

fn models(ctx: &Ctx) -> [Box<dyn CongestionModel>; 2] {
    [
        Box::new(Lhnn::new(LhnnConfig::default(), sub_seed(ctx.seed, 1))),
        Box::new(HybridNet::new(HybridNetConfig::default(), sub_seed(ctx.seed, 2))),
    ]
}

fn serve_engine(ctx: &Ctx, metrics: bool) -> Result<ServeEngine> {
    let registry = Arc::new(ModelRegistry::new());
    for (name, model) in MODELS.iter().zip(models(ctx)) {
        registry.register_boxed(name, model)?;
    }
    Ok(ServeEngine::new(
        registry,
        EngineConfig {
            workers: WORKERS,
            compute_threads: COMPUTE_THREADS,
            metrics,
            ..EngineConfig::default()
        },
    ))
}

/// One client's request stream: each call names one design, 1–4 of its
/// snapshots and a model. A quarter of the snapshots repeat one of the
/// design's recently asked ones; the rest walk the design's states in
/// order, and all designs' states together exceed the engine cache.
struct Schedule {
    rng: Rng,
    cursor: Vec<usize>,
    history: Vec<VecDeque<usize>>,
    /// Snapshots of each design.
    lens: Vec<usize>,
}

impl Schedule {
    fn new(ctx: &Ctx, pool: &[Vec<Snapshot>], client: usize) -> Self {
        let lens: Vec<usize> = pool.iter().map(Vec::len).collect();
        Self {
            rng: Rng::new(sub_seed(ctx.seed, 400 + client as u64)),
            cursor: lens.iter().map(|n| client * n / 2).collect(),
            history: vec![VecDeque::new(); pool.len()],
            lens,
        }
    }

    /// `(model index, design, snapshot indices)` of the next call.
    fn next_call(&mut self) -> (usize, usize, Vec<usize>) {
        let design = self.rng.below(self.cursor.len());
        let k = 1 + self.rng.below(4);
        let model = usize::from(self.rng.below(4) == 0);
        let mut snaps = Vec::with_capacity(k);
        for _ in 0..k {
            let hist = &mut self.history[design];
            if !hist.is_empty() && self.rng.below(4) == 0 {
                snaps.push(hist[self.rng.below(hist.len())]);
            } else {
                let i = self.cursor[design] % self.lens[design];
                self.cursor[design] += 1;
                hist.push_back(i);
                if hist.len() > HISTORY {
                    hist.pop_front();
                }
                snaps.push(i);
            }
        }
        (model, design, snaps)
    }
}

/// Key of one distinct answer: (model, design, snapshot).
type AnswerKey = (usize, usize, usize);

#[derive(Default)]
struct ClientOut {
    small_ms: Vec<f64>,
    large_ms: Vec<f64>,
    /// Client latency of single-snapshot LHNN calls the engine computed.
    single_miss_ms: Vec<f64>,
    snapshots: u64,
    failed: u64,
    digests: HashMap<AnswerKey, u64>,
}

fn client(
    handle: &ServeHandle,
    pool: &[Vec<Snapshot>],
    mut schedule: Schedule,
    deadline: Instant,
) -> ClientOut {
    let mut out = ClientOut::default();
    while Instant::now() < deadline {
        let (m, d, idxs) = schedule.next_call();
        let requests: Vec<PredictRequest> = idxs
            .iter()
            .map(|&i| {
                let s = &pool[d][i];
                PredictRequest::new(MODELS[m], Arc::clone(&s.ops), Arc::clone(&s.feats))
            })
            .collect();
        let t0 = Instant::now();
        let replies = handle.predict_batch(&requests);
        let lat = ms(t0.elapsed());
        out.snapshots += idxs.len() as u64;
        let mut ok = true;
        for (&i, reply) in idxs.iter().zip(&replies) {
            match reply {
                Ok(r) => {
                    let digest = prediction_digest(&r.prediction);
                    if *out.digests.entry((m, d, i)).or_insert(digest) != digest {
                        out.failed += 1;
                    }
                }
                Err(_) => {
                    out.failed += 1;
                    ok = false;
                }
            }
        }
        if !ok {
            continue;
        }
        if idxs.len() <= 2 { &mut out.small_ms } else { &mut out.large_ms }.push(lat);
        if idxs.len() == 1 && m == 0 && replies[0].as_ref().is_ok_and(|r| !r.cached) {
            out.single_miss_ms.push(lat);
        }
    }
    out
}

/// Drives both clients against `handle` until `deadline`.
fn drive(
    ctx: &Ctx,
    handle: &ServeHandle,
    pool: &[Vec<Snapshot>],
    deadline: Instant,
) -> Vec<ClientOut> {
    std::thread::scope(|scope| {
        let joins: Vec<_> = (0..2)
            .map(|c| {
                let schedule = Schedule::new(ctx, pool, c);
                scope.spawn(move || client(handle, pool, schedule, deadline))
            })
            .collect();
        joins.into_iter().map(|j| j.join().expect("serving client panicked")).collect()
    })
}

/// Checks every distinct answer the clients saw against a direct fused
/// forward. Returns (checked, mismatched).
fn check_answers(ctx: &Ctx, pool: &[Vec<Snapshot>], outs: &[ClientOut]) -> (u64, u64) {
    let mut seen: HashMap<AnswerKey, u64> = HashMap::new();
    let mut mismatched = 0u64;
    for out in outs {
        for (&key, &digest) in &out.digests {
            if *seen.entry(key).or_insert(digest) != digest {
                mismatched += 1;
            }
        }
    }
    let models = models(ctx);
    let mut scratch: Vec<_> = models.iter().map(|m| m.new_scratch()).collect();
    let mut keys: Vec<&AnswerKey> = seen.keys().collect();
    keys.sort();
    for &(m, d, i) in keys {
        let s = &pool[d][i];
        let direct = models[m].predict_with(&s.ops, &s.feats, scratch[m].as_mut());
        if prediction_digest(&direct) != seen[&(m, d, i)] {
            mismatched += 1;
        }
    }
    (seen.len() as u64, mismatched)
}

/// Runs the workload for `ctx.seconds`.
pub fn run(ctx: &Ctx) -> Result<RunOutcome> {
    let ((engine, pool), setup_times_s) = repeated_setup(
        ctx.profile.setup_repeats,
        || Ok((serve_engine(ctx, true)?, snapshot_pool(ctx)?)),
        |(engine, _)| engine.shutdown(),
    )?;
    let handle = engine.handle();
    let start = Instant::now();
    let outs = drive(ctx, &handle, &pool, start + Duration::from_secs_f64(ctx.seconds));
    let work_seconds = start.elapsed().as_secs_f64();
    let stats = handle.stats();
    engine.shutdown();

    let (checked, mismatched) = check_answers(ctx, &pool, &outs);
    let snapshots: u64 = outs.iter().map(|o| o.snapshots).sum();
    let mut lat = Latencies::default();
    for o in &outs {
        lat.small_ms.extend_from_slice(&o.small_ms);
        lat.large_ms.extend_from_slice(&o.large_ms);
    }
    Ok(RunOutcome {
        info: vec![
            ("calls.small".into(), lat.small_ms.len().to_string()),
            ("calls.large".into(), lat.large_ms.len().to_string()),
            ("distinct_answers_checked".into(), checked.to_string()),
            ("pool_snapshots".into(), pool.iter().map(Vec::len).sum::<usize>().to_string()),
            ("cache_hit_rate".into(), format!("{:.4}", stats.cache_hit_rate)),
        ],
        lat,
        throughput_per_s: snapshots as f64 / work_seconds,
        setup_times_s,
        attempted: snapshots + checked,
        failed: outs.iter().map(|o| o.failed).sum::<u64>() + mismatched,
    })
}

/// Median wall time of `f` over `reps` calls, in ms.
fn per_call_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| timed(&mut f).1).collect();
    median(&samples)
}

fn random_matrix(rng: &mut Rng, rows: usize, cols: usize) -> Matrix {
    let data = (0..rows * cols).map(|_| rng.signed_unit()).collect();
    Matrix::from_vec(rows, cols, data).expect("rows * cols values")
}

/// Stacks snapshots into one block-diagonal input.
fn block_diag(snaps: &[&Snapshot]) -> (GraphOps, FeatureSet) {
    let ops: Vec<&GraphOps> = snaps.iter().map(|s| s.ops.as_ref()).collect();
    let stack = |pick: fn(&FeatureSet) -> &Matrix| {
        let cols = pick(&snaps[0].feats).cols();
        let data: Vec<f32> =
            snaps.iter().flat_map(|s| pick(&s.feats).as_slice().iter().copied()).collect();
        Matrix::from_vec(data.len() / cols.max(1), cols, data).expect("same-width blocks")
    };
    let feats = FeatureSet { gcell: stack(|f| &f.gcell), gnet: stack(|f| &f.gnet) };
    (GraphOps::block_diag(&ops), feats)
}

/// The per-layer metrics of the stateless serving path.
pub fn layers(ctx: &Ctx, report: &mut Report) -> Result<()> {
    let pool = snapshot_pool(ctx)?;
    let models = models(ctx);

    // Fused full forward per architecture, and one call's snapshots as a
    // single block-diagonal forward.
    let mut full_lhnn = 0.0;
    for (m, model) in models.iter().enumerate() {
        let mut scratch = model.new_scratch();
        let mut full = Vec::new();
        let mut block = Vec::new();
        for design in &pool {
            for group in design.chunks(BLOCK).take(4) {
                let mut singles = Vec::new();
                for s in group {
                    let (p, t) = timed(|| model.predict_with(&s.ops, &s.feats, scratch.as_mut()));
                    full.push(t);
                    singles.push(p);
                }
                let refs: Vec<&Snapshot> = group.iter().collect();
                let (ops, feats) = block_diag(&refs);
                let (batched, t) = timed(|| model.predict_with(&ops, &feats, scratch.as_mut()));
                block.push(t / group.len() as f64);
                // Each block's rows must equal its own forward.
                let mut row = 0;
                for single in &singles {
                    let n = single.cls_prob.rows();
                    let part = lhnn::Prediction {
                        cls_prob: slice_rows(&batched.cls_prob, row, n),
                        reg: slice_rows(&batched.reg, row, n),
                    };
                    report.check(same_prediction(&part, single));
                    row += n;
                }
            }
        }
        if m == 0 {
            full_lhnn = median(&full);
        }
        report.push(format!("core.full_forward_ms.{}", MODELS[m]), median(&full), "ms");
        report.push(format!("core.block_diag_ms_per_snapshot.{}", MODELS[m]), median(&block), "ms");
    }

    // Kernels at the model's shapes: a dense layer over the G-cell rows of
    // a [hidden | message] concat, and the lattice aggregation.
    let hidden = LhnnConfig::default().hidden;
    let ops = &pool[0][0].ops;
    let n_c = ops.num_gcells;
    let mut rng = Rng::new(sub_seed(ctx.seed, 500));
    let a = random_matrix(&mut rng, n_c, 2 * hidden);
    let w = random_matrix(&mut rng, 2 * hidden, hidden);
    let x = random_matrix(&mut rng, n_c, hidden);
    let mut out = vec![0.0f32; n_c * hidden];
    let mut kernel_ms = [[0.0; 2]; 2];
    for (t, threads) in [1, COMPUTE_THREADS].into_iter().enumerate() {
        neurograd::pool::configure_threads(threads);
        kernel_ms[0][t] = per_call_ms(200, || kernels::matmul_into(&a, &w, &mut out));
        kernel_ms[1][t] = per_call_ms(200, || kernels::spmm_into(&ops.lattice_mean, &x, &mut out));
    }
    neurograd::pool::configure_threads(COMPUTE_THREADS);
    for (k, name) in ["matmul", "spmm"].into_iter().enumerate() {
        report.push(format!("neurograd.{name}_ms.1t"), kernel_ms[k][0], "ms");
        report.push(format!("neurograd.{name}_ms.2t"), kernel_ms[k][1], "ms");
        report.push(
            format!("neurograd.{name}_speedup_2t"),
            kernel_ms[k][0] / kernel_ms[k][1].max(1e-9),
            "x",
        );
    }

    // Engine counters over a short run of the workload's own traffic.
    let engine = serve_engine(ctx, true)?;
    let handle = engine.handle();
    let seconds = Duration::from_secs_f64(ctx.profile.layer_serve_seconds);
    let outs = drive(ctx, &handle, &pool, Instant::now() + seconds);
    let stats = handle.stats();
    engine.shutdown();
    for o in &outs {
        report.attempted += o.snapshots;
        report.failed += o.failed;
    }
    let misses: Vec<f64> = outs.iter().flat_map(|o| o.single_miss_ms.iter().copied()).collect();
    report.push("serve.cache_hit_frac", stats.cache_hit_rate, "frac");
    report.push("serve.mean_batch_size", stats.mean_batch_size, "jobs");
    report.push(
        "serve.batched_job_frac",
        stats.batched_forward_jobs as f64 / stats.computed.max(1) as f64,
        "frac",
    );
    report.push("serve.engine_overhead_ms", median(&misses) - full_lhnn, "ms");

    // Metrics on against off, alternating so drift hits both sides.
    let mut rates = [0.0f64; 2];
    for round in 0..4 {
        let metrics_on = round % 2 == 0;
        let engine = serve_engine(ctx, metrics_on)?;
        let handle = engine.handle();
        let start = Instant::now();
        let outs = drive(ctx, &handle, &pool, start + seconds);
        let snapshots: u64 = outs.iter().map(|o| o.snapshots).sum();
        rates[usize::from(!metrics_on)] += snapshots as f64 / start.elapsed().as_secs_f64();
        engine.shutdown();
        for o in &outs {
            report.attempted += o.snapshots;
            report.failed += o.failed;
        }
    }
    report.push("obs.metrics_overhead_frac", 1.0 - rates[0] / rates[1].max(1e-9), "frac");
    Ok(())
}

/// Rows `start..start + n` of `m`.
fn slice_rows(m: &Matrix, start: usize, n: usize) -> Matrix {
    let c = m.cols();
    Matrix::from_vec(n, c, m.as_slice()[start * c..(start + n) * c].to_vec())
        .expect("in-bounds row range")
}
