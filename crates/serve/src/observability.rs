//! Engine-wide observability: the metrics registry, the engine's count
//! cells, pre-registered handles for the hot-path spans, and the flight
//! recorder.
//!
//! One [`EngineObs`] per engine, built when the engine starts and shared
//! (via `Arc`s inside the handles) with every session.
//! The registry is the engine's only count store: each count lives in
//! one cell — unlabelled for the engine's counts here, `{design,model}`
//! or `{design}` for the session, splice and pipeline counts sessions
//! register — and [`crate::ServeStats`] is a read of the engine's cells.
//! A bare-name snapshot lookup (`counter("lhnn_requests_total")`) sums
//! every label set.
//!
//! With `EngineConfig::metrics` off the registry and recorder are built
//! disabled: cells still count, so the stats stay exact, but span timers
//! skip their clock reads and flight events are dropped before
//! formatting.

use std::sync::Arc;
use std::time::Duration;

use lhnn_obs::{Counter, FlightRecorder, Histogram, Registry, PREDICT_STAGES, UPDATE_STAGES};

/// How many flight events an engine retains (newest win).
pub(crate) const FLIGHT_CAPACITY: usize = 256;

/// The engine's count cells, unlabelled.
#[derive(Debug, Clone)]
pub(crate) struct EngineCounts {
    /// Requests answered (cache hits included).
    pub(crate) requests: Counter,
    /// Requests answered from the prediction cache.
    pub(crate) cache_hits: Counter,
    /// Forward passes executed.
    pub(crate) computed: Counter,
    /// Session updates applied.
    pub(crate) session_updates: Counter,
    /// End-to-end request latency (submission to reply), microseconds.
    pub(crate) request_us: Histogram,
}

impl EngineCounts {
    pub(crate) fn new(registry: &Registry) -> Self {
        Self {
            requests: registry.counter("lhnn_requests_total"),
            cache_hits: registry.counter("lhnn_cache_hits_total"),
            computed: registry.counter("lhnn_computed_total"),
            session_updates: registry.counter("lhnn_session_updates_total"),
            request_us: registry.histogram("lhnn_request_us"),
        }
    }

    /// Counts one answered request.
    pub(crate) fn record_request(&self, latency: Duration, cached: bool) {
        self.requests.inc();
        if cached {
            self.cache_hits.inc();
        }
        self.request_us.observe(u64::try_from(latency.as_micros()).unwrap_or(u64::MAX));
    }
}

/// The engine's registry, flight recorder, count cells and pre-resolved
/// handles for everything the request hot path records.
#[derive(Debug, Clone)]
pub(crate) struct EngineObs {
    pub(crate) registry: Arc<Registry>,
    pub(crate) flight: Arc<FlightRecorder>,
    pub(crate) counts: EngineCounts,
    /// Cache-lookup span: each lookup a resolve makes before it claims
    /// the key.
    pub(crate) stage_cache: Histogram,
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
        // update stages too, but an engine with no sessions should still
        // dump every canonical series).
        for stage in PREDICT_STAGES.iter().chain(UPDATE_STAGES.iter()) {
            registry.stage(stage);
        }
        Self {
            counts: EngineCounts::new(&registry),
            stage_cache: registry.stage("cache"),
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
        for name in [
            "lhnn_requests_total",
            "lhnn_cache_hits_total",
            "lhnn_computed_total",
            "lhnn_session_updates_total",
            "lhnn_request_us",
        ] {
            assert!(snap.get(name).is_some(), "missing {name}");
        }
        for stage in PREDICT_STAGES.iter().chain(UPDATE_STAGES.iter()) {
            let key = format!("lhnn_stage_us{{stage=\"{stage}\"}}");
            assert!(snap.get(&key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn disabled_obs_records_nothing() {
        // Off records no span and no flight event, yet still counts.
        let obs = EngineObs::new(false);
        obs.counts.record_request(Duration::from_micros(10), false);
        assert!(obs.stage_cache.start().is_none());
        obs.flight.record(lhnn_obs::FlightEventKind::HotSwap, "m", "v1 -> v2");
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counter("lhnn_requests_total"), 1);
        assert_eq!(snap.histogram("lhnn_request_us").unwrap().count, 1);
        assert_eq!(snap.histogram("lhnn_stage_us").unwrap().count, 0);
        assert!(obs.flight.snapshot().is_empty());
    }
}
