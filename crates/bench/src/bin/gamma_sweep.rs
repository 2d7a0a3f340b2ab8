//! Extension experiment beyond the paper: sensitivity of LHNN to the label
//! balance weight γ of Eq. 5. The paper fixes γ = 0.7; this sweep shows
//! the trade-off it controls — small γ inflates recall at the cost of
//! precision, γ = 1 disables the re-weighting.
//!
//! ```text
//! cargo run --release -p lhnn-bench --bin gamma_sweep [--scale F] [--epochs N] [--seeds N]
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
        "gamma sweep: scale {}, {} epochs, {} seeds",
        args.scale,
        base.lhnn_train.epochs,
        base.seeds.len()
    );
    let prep = PreparedDataset::build(&base.dataset).expect("dataset build failed");

    let mut table = TextTable::new(&["gamma", "F1", "ACC"]);
    for gamma in [0.1f32, 0.3, 0.5, 0.7, 0.9, 1.0] {
        let cfg = ExperimentConfig {
            lhnn_train: TrainConfig { gamma, ..base.lhnn_train.clone() },
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
        let f1s: Vec<f64> = scores.iter().map(|s| s.0).collect();
        let accs: Vec<f64> = scores.iter().map(|s| s.1).collect();
        let f1 = mean_std(&f1s);
        let acc = mean_std(&accs);
        println!("gamma={gamma}: F1 {} ACC {}", pct(f1.0, f1.1), pct(acc.0, acc.1));
        table.add_row(vec![format!("{gamma}"), pct(f1.0, f1.1), pct(acc.0, acc.1)]);
    }
    println!("\nGamma sensitivity (uni-channel):");
    println!("{}", table.render());
    table.write_csv(&Path::new(&args.out_dir).join("gamma_sweep.csv")).expect("write csv");
}
