//! Kernel-level scaling harness: 1-thread vs N-thread wall clock for the
//! hot compute kernels (dense matmul, sparse spmm/spmm_t) and for one full
//! data-parallel training epoch.
//!
//! The parallel backend is bitwise deterministic at any thread count (see
//! `neurograd::kernels`), so the two columns of every row compute the
//! *identical* result — the table isolates pure scheduling speedup.
//!
//! ```text
//! cargo run --release -p lhnn-bench --bin kernels [-- --threads N --simd on|off --out DIR]
//! ```
//!
//! `--simd off` routes every kernel through the scalar lane-emulation
//! path for the main columns (bitwise identical results — the SIMD
//! contract); each dense/sparse row also carries `simd_on_ms_1t` /
//! `simd_off_ms_1t` / `simd_speedup` extras measuring both modes, and the
//! inference row compares the fused tape-free predict against the taped
//! forward it replaced (`fused_speedup`).
//!
//! Writes `kernels.csv` plus the machine-readable perf-trajectory artifact
//! `BENCH_kernels.json` under the output directory.

use std::path::Path;
use std::time::Instant;

use lh_graph::{FeatureSet, LhGraph, LhGraphConfig, Targets};
use lhnn::{AblationSpec, CongestionModel, Lhnn, LhnnConfig, ModelScratch, Sample, TrainConfig};
use lhnn_bench::HarnessArgs;
use lhnn_data::{write_bench_json, BenchRecord, TextTable};
use neurograd::{pool, simd, CsrMatrix, Matrix, Tape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vlsi_netlist::synth::{generate, SynthConfig};
use vlsi_place::GlobalPlacer;
use vlsi_route::{route, RouterConfig};

fn time_ms(mut f: impl FnMut()) -> f64 {
    // warm-up + best of 3
    f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64() * 1000.0);
    }
    best
}

/// Times `f` at 1 compute thread and again at `threads`.
fn scale_ms(threads: usize, mut f: impl FnMut()) -> (f64, f64) {
    pool::configure_threads(1);
    let ms_1t = time_ms(&mut f);
    pool::configure_threads(threads);
    let ms_nt = time_ms(&mut f);
    (ms_1t, ms_nt)
}

/// Times `f` with the SIMD lane path on and off (1 compute thread), then
/// restores the run's configured mode. Both runs compute identical bits;
/// the pair isolates the pure lane-kernel speedup.
fn simd_onoff_ms(restore_on: bool, mut f: impl FnMut()) -> (f64, f64) {
    pool::configure_threads(1);
    simd::set_enabled(true);
    let on = time_ms(&mut f);
    simd::set_enabled(false);
    let off = time_ms(&mut f);
    simd::set_enabled(restore_on);
    (on, off)
}

/// Tags a thread-scaling record with the SIMD on/off pair for the same
/// workload.
fn with_simd_extras(record: BenchRecord, on_ms: f64, off_ms: f64) -> BenchRecord {
    record
        .with_extra("simd_on_ms_1t", on_ms)
        .with_extra("simd_off_ms_1t", off_ms)
        .with_extra("simd_speedup", off_ms / on_ms.max(1e-9))
}

fn random_matrix(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .expect("sized")
}

/// A lattice-like CSR operator: `rows × rows`, ~4 entries per row.
fn lattice_like(rows: usize) -> CsrMatrix {
    let mut triplets = Vec::with_capacity(rows * 4);
    for r in 0..rows {
        for d in [1usize, 7, 63, 64] {
            triplets.push((r, (r + d) % rows, 0.25));
        }
    }
    CsrMatrix::from_triplets(rows, rows, &triplets)
}

/// One synthetic training sample (same recipe as the trainer tests, sized
/// for measurable epoch work).
fn training_sample(seed: u64, grid: u32) -> Sample {
    let cfg = SynthConfig {
        name: format!("kbench{seed}"),
        seed,
        n_cells: (grid * grid) as usize,
        grid_nx: grid,
        grid_ny: grid,
        ..SynthConfig::default()
    };
    let synth = generate(&cfg).expect("generate");
    let g = cfg.grid();
    let placed = GlobalPlacer::default().place_synth(&synth, &g).expect("place");
    let routed =
        route(&synth.circuit, &placed.placement, &g, &synth.macro_rects, &RouterConfig::default())
            .expect("route");
    let graph = LhGraph::build(&synth.circuit, &placed.placement, &g, &LhGraphConfig::default())
        .expect("graph");
    let features = FeatureSet::build(&graph, &synth.circuit, &placed.placement, &g)
        .expect("features")
        .normalized();
    Sample { name: cfg.name, graph, features, targets: Targets::from_labels(&routed.labels) }
}

fn main() {
    let args = HarnessArgs::from_env();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let threads = raw
        .windows(2)
        .find(|w| w[0] == "--threads")
        .and_then(|w| w[1].parse::<usize>().ok())
        .unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get).min(4)
        })
        .max(2);

    let simd_on = raw.windows(2).find(|w| w[0] == "--simd").map_or(true, |w| w[1] != "off");
    simd::set_enabled(simd_on);

    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "host parallelism: {host} (expect ~min(threads, host)x scaling; \
         on a 1-core host the columns measure pure dispatch overhead)"
    );
    println!("{}", simd::isa_report());

    let mut rng = StdRng::seed_from_u64(0);
    let mut records: Vec<BenchRecord> = Vec::new();

    // dense matmul: LHNN-shaped (tall × hidden-sized) products
    for rows in [4096usize, 16384] {
        let a = random_matrix(rows, 64, &mut rng);
        let b = random_matrix(64, 64, &mut rng);
        let (ms_1t, ms_nt) = scale_ms(threads, || {
            std::hint::black_box(a.matmul(&b));
        });
        let (on_ms, off_ms) = simd_onoff_ms(simd_on, || {
            std::hint::black_box(a.matmul(&b));
        });
        records.push(with_simd_extras(
            BenchRecord::thread_scaling(format!("matmul_{rows}x64x64"), ms_1t, threads, ms_nt),
            on_ms,
            off_ms,
        ));
    }

    // sparse spmm / spmm_t: lattice-like aggregation over 32 channels
    for rows in [4096usize, 16384] {
        let s = lattice_like(rows);
        let x = random_matrix(rows, 32, &mut rng);
        let (ms_1t, ms_nt) = scale_ms(threads, || {
            std::hint::black_box(s.spmm(&x));
        });
        let (on_ms, off_ms) = simd_onoff_ms(simd_on, || {
            std::hint::black_box(s.spmm(&x));
        });
        records.push(with_simd_extras(
            BenchRecord::thread_scaling(format!("spmm_{rows}x{rows}x32"), ms_1t, threads, ms_nt),
            on_ms,
            off_ms,
        ));
        let _ = s.transpose_cached(); // warm: measure the product, not the build
        let (ms_1t, ms_nt) = scale_ms(threads, || {
            std::hint::black_box(s.spmm_t(&x));
        });
        records.push(BenchRecord::thread_scaling(
            format!("spmm_t_{rows}x{rows}x32"),
            ms_1t,
            threads,
            ms_nt,
        ));
    }

    // one full data-parallel training epoch over the synthetic suite
    let n_samples = threads.max(4);
    eprintln!("building {n_samples} training designs for the epoch benchmark...");
    let samples: Vec<Sample> = (0..n_samples as u64).map(|s| training_sample(s, 16)).collect();
    let epoch = |train_threads: usize| {
        let cfg = TrainConfig {
            epochs: 1,
            threads: train_threads,
            batch_size: n_samples,
            ..Default::default()
        };
        let mut model = Lhnn::new(LhnnConfig::default(), 0);
        lhnn::train(&mut model, &samples, &AblationSpec::full(), &cfg)
    };
    pool::configure_threads(1);
    let hist_1t = epoch(1);
    let ms_1t = time_ms(|| {
        std::hint::black_box(epoch(1));
    });
    pool::configure_threads(threads);
    let hist_nt = epoch(threads);
    let ms_nt = time_ms(|| {
        std::hint::black_box(epoch(threads));
    });
    assert_eq!(
        hist_1t.epoch_loss, hist_nt.epoch_loss,
        "parallel epoch must reproduce the serial loss exactly"
    );
    records.push(BenchRecord::thread_scaling(
        format!("train_epoch_{n_samples}designs_16x16"),
        ms_1t,
        threads,
        ms_nt,
    ));

    // fused tape-free inference vs the taped forward it replaced (both
    // bitwise identical; the fused path skips tape allocation, node
    // bookkeeping and the value round-trips)
    let (ops, feats) = lhnn_data::serving_inputs(7, 6000, 48).expect("serving design");
    let model = Lhnn::new(LhnnConfig::default(), 0);
    let mut scratch = ModelScratch::new();
    pool::configure_threads(threads);
    let taped_ms = time_ms(|| {
        let mut tape = Tape::new();
        let out = model.forward(&mut tape, &ops, &feats);
        let prob = tape.sigmoid(out.cls_logits);
        std::hint::black_box((tape.value(prob).clone(), tape.value(out.reg).clone()));
    });
    let fused_ms = time_ms(|| {
        std::hint::black_box(model.predict_with(&ops, &feats, &mut scratch));
    });
    records.push(
        BenchRecord::labeled(
            format!("predict_{}gcells", ops.num_gcells),
            "taped forward",
            taped_ms,
            "fused tape-free",
            fused_ms,
        )
        .with_extra("fused_speedup", taped_ms / fused_ms.max(1e-9)),
    );

    let mut table = TextTable::new(&["kernel", "baseline (ms)", "candidate (ms)", "speedup"]);
    for r in &records {
        println!(
            "{}: {} {:.2} ms -> {} {:.2} ms ({:.2}x)",
            r.name,
            r.baseline_label,
            r.baseline_ms,
            r.candidate_label,
            r.candidate_ms,
            r.speedup()
        );
        table.add_row(vec![
            r.name.clone(),
            format!("{:.2}", r.baseline_ms),
            format!("{:.2}", r.candidate_ms),
            format!("{:.2}x", r.speedup()),
        ]);
    }
    println!("\nKernel scaling (1 thread vs {threads}; identical bitwise results):");
    println!("{}", table.render());
    let out_dir = Path::new(&args.out_dir);
    table.write_csv(&out_dir.join("kernels.csv")).expect("write csv");
    write_bench_json(&out_dir.join("BENCH_kernels.json"), "kernels", threads, &records)
        .expect("write json");
    println!("wrote {}/kernels.csv and {}/BENCH_kernels.json", args.out_dir, args.out_dir);
}
