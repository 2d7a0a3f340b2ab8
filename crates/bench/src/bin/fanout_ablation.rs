//! Extension experiment beyond the paper: full-graph training vs the
//! paper's DGL neighbour-sampling fanouts {6, 3, 2}.
//!
//! The paper mini-batches with sampled neighbourhoods to fit 300K-G-cell
//! graphs on a T4; at this reproduction's scale, full-graph training is
//! tractable, so the sampling becomes an ablation: how much accuracy does
//! the sampled estimator give up, and does it still train stably?
//!
//! ```text
//! cargo run --release -p lhnn-bench --bin fanout_ablation [--scale F] [--epochs N] [--seeds N]
//! ```

use std::path::Path;

use lh_graph::ChannelMode;
use lhnn::{AblationSpec, TrainConfig};
use lhnn_bench::HarnessArgs;
use lhnn_data::{pct, run_lhnn_seed, ExperimentConfig, PreparedDataset, TextTable};
use neurograd::mean_std;

fn main() {
    let args = HarnessArgs::from_env();
    let base = args.experiment_config();
    eprintln!(
        "fanout ablation: scale {}, {} epochs, {} seeds",
        args.scale,
        base.lhnn_train.epochs,
        base.seeds.len()
    );
    let prep = PreparedDataset::build(&base.dataset).expect("dataset build failed");

    let variants: Vec<(&str, Option<[usize; 3]>)> = vec![
        ("full-graph", None),
        ("fanouts {6,3,2} (paper)", Some([6, 3, 2])),
        ("fanouts {3,2,1}", Some([3, 2, 1])),
        ("fanouts {12,6,4}", Some([12, 6, 4])),
    ];
    let mut table = TextTable::new(&["Sampling", "F1", "ACC"]);
    for (name, fanouts) in variants {
        let cfg = ExperimentConfig {
            lhnn_train: TrainConfig { fanouts, ..base.lhnn_train.clone() },
            ..base.clone()
        };
        let scores: Vec<(f64, f64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = cfg
                .seeds
                .iter()
                .map(|&seed| {
                    let cfg = &cfg;
                    let prep = &prep;
                    scope.spawn(move || {
                        let s =
                            run_lhnn_seed(prep, cfg, ChannelMode::Uni, &AblationSpec::full(), seed);
                        (s.f1, s.accuracy)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("seed thread")).collect()
        });
        let f1 = mean_std(&scores.iter().map(|s| s.0).collect::<Vec<_>>());
        let acc = mean_std(&scores.iter().map(|s| s.1).collect::<Vec<_>>());
        println!("{name}: F1 {} ACC {}", pct(f1.0, f1.1), pct(acc.0, acc.1));
        table.add_row(vec![name.to_string(), pct(f1.0, f1.1), pct(acc.0, acc.1)]);
    }
    println!("\nNeighbour-sampling ablation (uni-channel):");
    println!("{}", table.render());
    table.write_csv(&Path::new(&args.out_dir).join("fanout_ablation.csv")).expect("write csv");
}
