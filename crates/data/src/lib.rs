//! `lhnn-data` — dataset assembly, split search and the experiment harness
//! for the LHNN reproduction (§5 of the paper).
//!
//! * [`dataset`] — builds the 15-design synthetic suite end-to-end
//!   (generate → place → route → LH-graph → features/targets),
//! * [`split`] — the exhaustive 10:5 split search of Table 1,
//! * [`runner`] — the Table 2 model comparison and Table 3 ablation
//!   protocols (5 seeds, per-design F1/ACC),
//! * [`report`] — paper-style `mean±std` tables and CSV output,
//! * [`viz`] — ASCII/PGM map rendering for Figure 4.
//!
//! The `lhnn-bench` crate exposes one binary per table/figure on top of
//! this crate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dataset;
pub mod error;
pub mod report;
pub mod runner;
pub mod split;
pub mod viz;

pub use dataset::{
    build_cross_suite, build_design, cross_family_suite, serving_inputs, CapacityMode,
    DatasetConfig, DesignData, DesignStats,
};
pub use error::{DataError, Result};
pub use report::{pct, pct1, write_bench_json, BenchRecord, TextTable};
pub use runner::{
    ablation_study, model_comparison, run_lhnn_seed, ExperimentConfig, PreparedDataset,
};
pub use split::{best_split, Split};
pub use viz::{ascii_map, write_pgm};
