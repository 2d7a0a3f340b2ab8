//! Engine-wide observability: the metrics registry, pre-registered
//! handles for the hot-path series, and the flight recorder.
//!
//! One [`EngineObs`] per engine, built when the engine starts and shared
//! (via `Arc`s inside the handles) with every shard, worker and session.
//! The whole catalog is registered **eagerly** so a metrics dump always
//! carries every series — a grep for `lhnn_fallbacks_total` works even
//! on an engine that never fell back. With `EngineConfig::metrics` off,
//! the registry and recorder are built disabled: every record collapses
//! to one relaxed load (counters) or nothing (span timers skip the clock
//! read), and flight events are dropped before formatting.

use std::sync::Arc;

use lhnn_obs::{
    Counter, FlightRecorder, Gauge, Histogram, Registry, PREDICT_STAGES, UPDATE_STAGES,
};

/// How many flight events an engine retains (newest win).
pub(crate) const FLIGHT_CAPACITY: usize = 256;

/// The engine's registry, flight recorder and pre-resolved handles for
/// everything the request hot path records.
#[derive(Debug, Clone)]
pub(crate) struct EngineObs {
    pub(crate) registry: Arc<Registry>,
    pub(crate) flight: Arc<FlightRecorder>,
    /// Requests answered (mirror of the exact `ServeStats` counter).
    pub(crate) requests: Counter,
    /// Requests answered from a cache or by dedup.
    pub(crate) cache_hits: Counter,
    /// Forward passes executed.
    pub(crate) computed: Counter,
    /// Worker wake-ups that processed at least one predict job.
    pub(crate) batches: Counter,
    /// Cross-design block-diagonal forwards (one dispatch, many requests).
    pub(crate) batched_forwards: Counter,
    /// Session updates applied, whichever thread drained them.
    pub(crate) session_updates: Counter,
    /// End-to-end request latency (submission to reply).
    pub(crate) request_us: Histogram,
    /// Queue-wait span: admission to worker pickup.
    pub(crate) stage_queue: Histogram,
    /// Cache-lookup span (submitter fast path and worker recheck).
    pub(crate) stage_cache: Histogram,
    /// High-water queue depth across all shards.
    pub(crate) queue_depth_high: Gauge,
}

impl EngineObs {
    /// Builds the engine's observability plane. `enabled = false` builds
    /// the disabled registry/recorder pair (the `EngineConfig::metrics`
    /// off-switch).
    pub(crate) fn new(enabled: bool) -> Self {
        let registry = Arc::new(if enabled { Registry::new() } else { Registry::disabled() });
        let flight = Arc::new(if enabled {
            FlightRecorder::new(FLIGHT_CAPACITY)
        } else {
            FlightRecorder::disabled()
        });
        // Pre-register the full stage catalog (sessions register the
        // update stages lazily per design too, but an engine with no
        // sessions should still dump every canonical series).
        for stage in PREDICT_STAGES.iter().chain(UPDATE_STAGES.iter()) {
            registry.stage(stage);
        }
        registry.counter("lhnn_fallbacks_total");
        Self {
            requests: registry.counter("lhnn_requests_total"),
            cache_hits: registry.counter("lhnn_cache_hits_total"),
            computed: registry.counter("lhnn_computed_total"),
            batches: registry.counter("lhnn_batches_total"),
            batched_forwards: registry.counter("lhnn_batched_forwards_total"),
            session_updates: registry.counter("lhnn_session_updates_total"),
            request_us: registry.histogram("lhnn_request_us"),
            stage_queue: registry.stage("queue"),
            stage_cache: registry.stage("cache"),
            queue_depth_high: registry.gauge("lhnn_queue_depth_high"),
            registry,
            flight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_preregistered() {
        let obs = EngineObs::new(true);
        let snap = obs.registry.snapshot();
        // every canonical series is present before any traffic
        for key in [
            "lhnn_requests_total",
            "lhnn_cache_hits_total",
            "lhnn_computed_total",
            "lhnn_batches_total",
            "lhnn_batched_forwards_total",
            "lhnn_session_updates_total",
            "lhnn_fallbacks_total",
        ] {
            assert!(snap.get(key).is_some(), "missing {key}");
        }
        for stage in PREDICT_STAGES.iter().chain(UPDATE_STAGES.iter()) {
            let key = format!("lhnn_stage_us{{stage=\"{stage}\"}}");
            assert!(snap.get(&key).is_some(), "missing {key}");
        }
        assert!(snap.get("lhnn_request_us").is_some());
        assert!(snap.get("lhnn_queue_depth_high").is_some());
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = EngineObs::new(false);
        obs.requests.inc();
        obs.request_us.observe(10);
        assert!(obs.stage_queue.start().is_none());
        obs.flight.record(lhnn_obs::FlightEventKind::HotSwap, "m", "v1 -> v2");
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counter("lhnn_requests_total"), 0);
        assert_eq!(snap.histogram("lhnn_request_us").unwrap().count, 0);
        assert!(obs.flight.snapshot().is_empty());
    }
}
