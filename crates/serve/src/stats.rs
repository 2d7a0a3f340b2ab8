//! Latency and throughput accounting for the engine: a view over the
//! engine's registry cells.
//!
//! Every count lives in one unlabelled `lhnn-obs` cell. A [`ServeStats`]
//! snapshot reads those cells, with no lock.
//!
//! Counters are exact over the engine's lifetime. Latency percentiles
//! cover the lifetime too. They come from log-linear histograms, so each
//! one errs high by at most 12.5%; the mean is exact. The cells record
//! with `EngineConfig::metrics` off as well.

use std::time::Duration;

use crate::observability::EngineCounts;

/// An immutable snapshot of engine counters and latency percentiles.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Requests answered (cache hits included).
    pub requests: u64,
    /// Requests answered from a prediction cache.
    pub cache_hits: u64,
    /// Forward passes actually executed.
    pub computed: u64,
    /// `cache_hits / requests` (0 when idle).
    pub cache_hit_rate: f64,
    /// Always 1.0: every predict runs its own forward on its caller's
    /// thread. The field exists only until
    /// the benchmark drops its `serve.mean_batch_size` row, which reads
    /// it.
    pub mean_batch_size: f64,
    /// Always 0: every computed request runs its own forward. The field
    /// exists only until the benchmark drops its `serve.batched_job_frac`
    /// row, which reads it.
    pub batched_forward_jobs: u64,
    /// Session updates applied.
    pub session_updates: u64,
    /// Median request latency over the engine's lifetime, microseconds
    /// (a histogram bucket bound: at most 12.5% above the exact value).
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Mean latency over the whole lifetime, microseconds (exact).
    pub mean_us: f64,
    /// Requests per second since the engine started.
    pub throughput_rps: f64,
    /// Time since the engine started.
    pub uptime: Duration,
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} req ({} computed, {:.1}% cache hits) | p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms | {:.1} req/s",
            self.requests,
            self.computed,
            self.cache_hit_rate * 100.0,
            self.p50_us as f64 / 1000.0,
            self.p95_us as f64 / 1000.0,
            self.p99_us as f64 / 1000.0,
            self.throughput_rps,
        )
    }
}

impl ServeStats {
    /// Reads the engine's cells.
    pub(crate) fn read(counts: &EngineCounts, uptime: Duration) -> Self {
        let latency = counts.request_us.snapshot();
        let (requests, cache_hits) = (counts.requests.get(), counts.cache_hits.get());
        let secs = uptime.as_secs_f64();
        ServeStats {
            requests,
            cache_hits,
            computed: counts.computed.get(),
            cache_hit_rate: if requests == 0 { 0.0 } else { cache_hits as f64 / requests as f64 },
            mean_batch_size: 1.0,
            batched_forward_jobs: 0,
            session_updates: counts.session_updates.get(),
            p50_us: latency.quantile(0.50),
            p95_us: latency.quantile(0.95),
            p99_us: latency.quantile(0.99),
            mean_us: latency.mean(),
            throughput_rps: if secs > 0.0 { requests as f64 / secs } else { 0.0 },
            uptime,
        }
    }
}

#[cfg(test)]
mod tests {
    use lhnn_obs::Registry;

    use super::*;

    /// The engine's cells on a fresh registry, as the engine wires them.
    fn counts() -> EngineCounts {
        EngineCounts::new(&Registry::new())
    }

    fn us(v: u64) -> Duration {
        Duration::from_micros(v)
    }

    #[test]
    fn percentiles_nearest_rank() {
        let c = counts();
        for v in 1..=100u64 {
            c.record_request(us(v), false);
        }
        let snap = ServeStats::read(&c, Duration::from_secs(1));
        // exact 50 / 95 / 99, reported as their bucket's upper bound
        assert_eq!(snap.p50_us, 51);
        assert_eq!(snap.p95_us, 95);
        assert_eq!(snap.p99_us, 103);
        assert_eq!(snap.requests, 100);
        assert!((snap.throughput_rps - 100.0).abs() < 1e-9);
        assert!((snap.mean_us - 50.5).abs() < 1e-9);
    }

    #[test]
    fn hit_rate_counts() {
        let c = counts();
        c.record_request(us(5), true);
        c.record_request(us(5), false);
        c.computed.inc();
        let snap = ServeStats::read(&c, Duration::from_millis(10));
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.computed, 1);
        assert!((snap.cache_hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let snap = ServeStats::read(&counts(), Duration::ZERO);
        assert_eq!(snap.p50_us, 0);
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.cache_hit_rate, 0.0);
        assert_eq!(snap.throughput_rps, 0.0);
    }

    #[test]
    fn percentiles_span_fast_hits_and_slow_forwards() {
        let c = counts();
        // fast cache hits and slow computed requests in one histogram
        for _ in 0..50 {
            c.record_request(us(10), true);
        }
        for _ in 0..50 {
            c.record_request(us(1000), false);
            c.computed.inc();
        }
        c.session_updates.add(3);
        let snap = ServeStats::read(&c, Duration::from_secs(1));
        assert_eq!(snap.requests, 100);
        assert_eq!(snap.computed, 50);
        assert_eq!(snap.cache_hits, 50);
        assert_eq!(snap.session_updates, 3);
        // the percentiles straddle the two latency bands (1000 us lands in
        // the [960, 1023] bucket)
        assert_eq!(snap.p50_us, 10);
        assert_eq!(snap.p95_us, 1023);
        assert_eq!(snap.p99_us, 1023);
        assert!((snap.cache_hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_summarises_counts_and_percentiles() {
        let c = counts();
        c.record_request(us(10), true);
        c.record_request(us(2000), false);
        c.computed.inc();
        let text = format!("{}", ServeStats::read(&c, Duration::from_secs(1)));
        assert!(text.starts_with("2 req (1 computed, 50.0% cache hits)"), "got {text}");
        assert!(text.contains("p99"), "got {text}");
        assert!(text.ends_with("2.0 req/s"), "got {text}");
    }
}
