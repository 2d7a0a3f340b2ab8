//! `lhnn-obs` — zero-dependency observability for the LHNN serving stack.
//!
//! Three cooperating pieces, all std-only so the crate builds in the
//! offline vendored environment:
//!
//! * [`Registry`] — a lock-light metrics registry of monotone
//!   [`Counter`]s and log-linear [`Histogram`]s (quantiles ≤12.5%
//!   high). Registration (name → cell) takes a mutex once;
//!   recording is a couple of relaxed atomic ops on a pre-resolved
//!   handle. Cells always record — the registry is the serving stack's
//!   only count store — and a bare-name [`Snapshot`] lookup sums every
//!   label set of a name.
//! * Span-style **stage tracing** — histogram series
//!   `lhnn_stage_us{stage="..."}` record where a request's latency goes
//!   (cache lookup → halo dilation → spliced forward → splice; rebin → graph patch → feature patch → rebuild for
//!   session updates; per-epoch spans for the trainer). The
//!   [`Histogram::start`]/[`Histogram::stop_us`] pair skips the clock
//!   read entirely when recording is off, so the hot path pays nothing.
//! * [`FlightRecorder`] — a bounded ring of recent structured
//!   [`FlightEvent`]s (fallbacks, poisonings, hot-swaps, panicked
//!   forwards) snapshotable for postmortems.
//!
//! Exposition lives in [`expo`]: [`Snapshot::to_prometheus`] renders a
//! Prometheus-style text dump, [`Snapshot::to_json`] a hand-rolled JSON
//! snapshot (same offline-friendly style as
//! `lhnn_data::write_bench_json`), and [`expo::parse_prometheus`] reads
//! the text form back for postmortem rendering.
//!
//! Instrumentation is timing-only by construction: nothing in this crate
//! touches model inputs or outputs, so enabling or disabling it cannot
//! change a prediction bitwise (the serving crate's parity proptests
//! enforce this end to end).

#![warn(missing_docs)]

pub mod expo;
pub mod flight;
pub mod metrics;

pub use expo::{parse_prometheus, ParsedSeries};
pub use flight::{FlightEvent, FlightEventKind, FlightRecorder};
pub use metrics::{
    Counter, Histogram, HistogramSnapshot, Registry, SeriesSnapshot, SeriesValue, Snapshot,
};

/// Canonical stage names of one served predict, in hot-path order.
///
/// `cache` (prediction-cache lookup), `dilate` (halo dilation through operator transposes),
/// `forward` (masked row-subset forward), `splice` (assembling the served
/// prediction from cached and recomputed rows).
pub const PREDICT_STAGES: [&str; 4] = ["cache", "dilate", "forward", "splice"];

/// Canonical stage names of one session update, in pipeline order:
/// rebin → graph patch → feature patch → (structural) rebuild.
pub const UPDATE_STAGES: [&str; 4] = ["rebin", "graph_patch", "feature_patch", "rebuild"];
