//! Engine-wide observability: the metrics registry, the per-shard count
//! cells, pre-registered handles for the hot-path spans, and the flight
//! recorder.
//!
//! One [`EngineObs`] per engine, built when the engine starts and shared
//! (via `Arc`s inside the handles) with every shard and session.
//! The registry is the engine's only count store: each count lives in
//! one cell labelled where it happened — `{shard="i"}` for the engine's
//! counts here, `{design,model}` or `{design}` for the session, splice
//! and pipeline counts sessions register — and [`crate::ServeStats`] is a
//! read of the shard cells. A bare-name snapshot lookup
//! (`counter("lhnn_requests_total")`) sums every label set.
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

/// One shard's count cells, each labelled `{shard="i"}`.
#[derive(Debug, Clone)]
pub(crate) struct ShardObs {
    /// Requests answered (cache hits included).
    pub(crate) requests: Counter,
    /// Requests answered from the shard cache.
    pub(crate) cache_hits: Counter,
    /// Forward passes executed.
    pub(crate) computed: Counter,
    /// Session updates applied.
    pub(crate) session_updates: Counter,
    /// End-to-end request latency (submission to reply), microseconds.
    pub(crate) request_us: Histogram,
}

impl ShardObs {
    pub(crate) fn new(registry: &Registry, shard: usize) -> Self {
        let shard = shard.to_string();
        let l = &[("shard", shard.as_str())][..];
        Self {
            requests: registry.counter_with("lhnn_requests_total", l),
            cache_hits: registry.counter_with("lhnn_cache_hits_total", l),
            computed: registry.counter_with("lhnn_computed_total", l),
            session_updates: registry.counter_with("lhnn_session_updates_total", l),
            request_us: registry.histogram_with("lhnn_request_us", l),
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

/// The engine's registry, flight recorder, per-shard cells and
/// pre-resolved handles for everything the request hot path records.
#[derive(Debug, Clone)]
pub(crate) struct EngineObs {
    pub(crate) registry: Arc<Registry>,
    pub(crate) flight: Arc<FlightRecorder>,
    /// Indexed by shard.
    pub(crate) shards: Vec<ShardObs>,
    /// Cache-lookup span: each lookup a resolve makes before it claims
    /// the key.
    pub(crate) stage_cache: Histogram,
}

impl EngineObs {
    /// Builds the engine's observability plane for `shards` shards.
    /// `enabled = false` builds the disabled registry/recorder pair (the
    /// `EngineConfig::metrics` off-switch).
    pub(crate) fn new(enabled: bool, shards: usize) -> Self {
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
            shards: (0..shards).map(|i| ShardObs::new(&registry, i)).collect(),
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
        let obs = EngineObs::new(true, 2);
        let snap = obs.registry.snapshot();
        // every canonical series is present on every shard before any
        // traffic
        for name in [
            "lhnn_requests_total",
            "lhnn_cache_hits_total",
            "lhnn_computed_total",
            "lhnn_session_updates_total",
            "lhnn_request_us",
        ] {
            for shard in ["0", "1"] {
                let key = format!("{name}{{shard=\"{shard}\"}}");
                assert!(snap.get(&key).is_some(), "missing {key}");
            }
        }
        for stage in PREDICT_STAGES.iter().chain(UPDATE_STAGES.iter()) {
            let key = format!("lhnn_stage_us{{stage=\"{stage}\"}}");
            assert!(snap.get(&key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn disabled_obs_records_nothing() {
        // Off records no span and no flight event, yet still counts.
        let obs = EngineObs::new(false, 1);
        obs.shards[0].record_request(Duration::from_micros(10), false);
        assert!(obs.stage_cache.start().is_none());
        obs.flight.record(lhnn_obs::FlightEventKind::HotSwap, "m", "v1 -> v2");
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counter("lhnn_requests_total"), 1);
        assert_eq!(snap.histogram("lhnn_request_us").unwrap().count, 1);
        assert_eq!(snap.histogram("lhnn_stage_us").unwrap().count, 0);
        assert!(obs.flight.snapshot().is_empty());
    }
}
