//! Latency and throughput accounting for the engine: a view over the
//! engine's registry cells.
//!
//! Every count lives in one `lhnn-obs` cell labelled `{shard="i"}`. A
//! [`ServeStats`] snapshot reads each shard's cells, with no lock: the
//! counters sum across shards and the request-latency histograms merge.
//! [`ServeStats::per_shard`] keeps the per-shard breakdown, so a hot
//! design monopolising one shard is visible at a glance.
//!
//! Counters are exact over the engine's lifetime. Latency percentiles
//! cover the lifetime too. They come from log-linear histograms, so each
//! one errs high by at most 12.5%; the mean is exact. The cells record
//! with `EngineConfig::metrics` off as well.

use std::time::Duration;

use lhnn_obs::HistogramSnapshot;

use crate::observability::ShardObs;

/// One shard's slice of the aggregate counters.
#[derive(Debug, Clone)]
pub struct ShardStats {
    /// Shard index (stable for the engine's lifetime).
    pub shard: usize,
    /// Worker threads pinned to this shard.
    pub workers: usize,
    /// Requests answered by this shard (cache hits included).
    pub requests: u64,
    /// Requests this shard answered from its prediction cache or by
    /// deduplication.
    pub cache_hits: u64,
    /// Forward passes this shard's workers executed.
    pub computed: u64,
    /// Session updates applied on this shard's sessions, by any thread.
    pub session_updates: u64,
    /// Median latency of this shard's requests, microseconds (≤12.5%
    /// high).
    pub p50_us: u64,
    /// 99th-percentile latency of this shard's requests, microseconds
    /// (tail latency under work stealing is a per-shard property).
    pub p99_us: u64,
}

/// An immutable snapshot of engine counters and latency percentiles,
/// aggregated across shards.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Requests answered (cache hits included).
    pub requests: u64,
    /// Requests answered from a prediction cache (fast path or worker
    /// side) or deduplicated against an identical in-batch request.
    pub cache_hits: u64,
    /// Forward passes actually executed.
    pub computed: u64,
    /// `cache_hits / requests` (0 when idle).
    pub cache_hit_rate: f64,
    /// Worker wake-ups that processed at least one job.
    pub batches: u64,
    /// Mean jobs drained per worker wake-up (micro-batching factor).
    pub mean_batch_size: f64,
    /// Cross-design block-diagonal forwards: distinct same-shape stateless
    /// requests coalesced into one model dispatch. Each member request
    /// still counts in `computed` (its forward really ran, fused into the
    /// batch), so `computed - batched_forward_jobs + batched_forwards` is
    /// the number of model dispatches actually issued.
    pub batched_forwards: u64,
    /// Requests served by those block-diagonal forwards.
    pub batched_forward_jobs: u64,
    /// Session updates applied, whichever thread drained them.
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
    /// Per-shard counter breakdown (length = shard count).
    pub per_shard: Vec<ShardStats>,
}

impl std::fmt::Display for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} req ({} computed, {:.1}% cache hits) | p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms | {:.1} req/s | mean batch {:.2}",
            self.requests,
            self.computed,
            self.cache_hit_rate * 100.0,
            self.p50_us as f64 / 1000.0,
            self.p95_us as f64 / 1000.0,
            self.p99_us as f64 / 1000.0,
            self.throughput_rps,
            self.mean_batch_size,
        )?;
        if self.batched_forwards > 0 {
            write!(
                f,
                " | {} cross-design forwards ({} reqs)",
                self.batched_forwards, self.batched_forward_jobs
            )?;
        }
        if self.per_shard.len() > 1 {
            write!(f, " | {} shards:", self.per_shard.len())?;
            for s in &self.per_shard {
                write!(
                    f,
                    " [{}: {} req, {} fwd, {} upd, p99 {:.2} ms]",
                    s.shard,
                    s.requests,
                    s.computed,
                    s.session_updates,
                    s.p99_us as f64 / 1000.0
                )?;
            }
        }
        Ok(())
    }
}

impl ServeStats {
    /// Reads every shard's cells: counters sum, histograms merge.
    pub(crate) fn read(shards: &[ShardObs], workers_per_shard: &[usize], uptime: Duration) -> Self {
        let [mut latency, mut batches, mut fused] = <[HistogramSnapshot; 3]>::default();
        let per_shard: Vec<ShardStats> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let own = s.request_us.snapshot();
                latency.merge(&own);
                batches.merge(&s.batch_jobs.snapshot());
                fused.merge(&s.batched_forward_jobs.snapshot());
                ShardStats {
                    shard: i,
                    workers: workers_per_shard.get(i).copied().unwrap_or(0),
                    requests: s.requests.get(),
                    cache_hits: s.cache_hits.get(),
                    computed: s.computed.get(),
                    session_updates: s.session_updates.get(),
                    p50_us: own.quantile(0.50),
                    p99_us: own.quantile(0.99),
                }
            })
            .collect();
        let sum = |field: fn(&ShardStats) -> u64| per_shard.iter().map(field).sum::<u64>();
        let (requests, cache_hits) = (sum(|s| s.requests), sum(|s| s.cache_hits));
        let secs = uptime.as_secs_f64();
        ServeStats {
            requests,
            cache_hits,
            computed: sum(|s| s.computed),
            cache_hit_rate: if requests == 0 { 0.0 } else { cache_hits as f64 / requests as f64 },
            batches: batches.count,
            mean_batch_size: batches.mean(),
            batched_forwards: fused.count,
            batched_forward_jobs: fused.sum,
            session_updates: sum(|s| s.session_updates),
            p50_us: latency.quantile(0.50),
            p95_us: latency.quantile(0.95),
            p99_us: latency.quantile(0.99),
            mean_us: latency.mean(),
            throughput_rps: if secs > 0.0 { requests as f64 / secs } else { 0.0 },
            uptime,
            per_shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use lhnn_obs::Registry;

    use super::*;

    /// `n` shards' cells on one registry, as the engine wires them.
    fn shards(n: usize) -> Vec<ShardObs> {
        let registry = Registry::new();
        (0..n).map(|i| ShardObs::new(&registry, i)).collect()
    }

    fn us(v: u64) -> Duration {
        Duration::from_micros(v)
    }

    #[test]
    fn percentiles_nearest_rank() {
        let s = shards(1);
        for v in 1..=100u64 {
            s[0].record_request(us(v), false);
        }
        let snap = ServeStats::read(&s, &[1], Duration::from_secs(1));
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
        let s = shards(1);
        s[0].record_request(us(5), true);
        s[0].record_request(us(5), false);
        s[0].computed.inc();
        let snap = ServeStats::read(&s, &[1], Duration::from_millis(10));
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.computed, 1);
        assert!((snap.cache_hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let snap = ServeStats::read(&shards(1), &[1], Duration::ZERO);
        assert_eq!(snap.p50_us, 0);
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.cache_hit_rate, 0.0);
        assert_eq!(snap.throughput_rps, 0.0);
        assert_eq!(snap.mean_batch_size, 0.0);
    }

    #[test]
    fn batch_factor() {
        let s = shards(1);
        s[0].batch_jobs.observe(1);
        s[0].batch_jobs.observe(7);
        let snap = ServeStats::read(&s, &[1], Duration::from_secs(1));
        assert_eq!(snap.batches, 2);
        assert!((snap.mean_batch_size - 4.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_merges_shards() {
        let s = shards(2);
        // shard 0: fast requests; shard 1: slow ones
        for _ in 0..50 {
            s[0].record_request(us(10), true);
        }
        for _ in 0..50 {
            s[1].record_request(us(1000), false);
            s[1].computed.inc();
        }
        s[1].session_updates.add(3);
        let snap = ServeStats::read(&s, &[2, 2], Duration::from_secs(1));
        assert_eq!(snap.requests, 100);
        assert_eq!(snap.computed, 50);
        assert_eq!(snap.cache_hits, 50);
        assert_eq!(snap.session_updates, 3);
        // merged percentiles straddle the two shards' latency bands
        // (1000 us lands in the [960, 1023] bucket)
        assert_eq!(snap.p50_us, 10);
        assert_eq!(snap.p95_us, 1023);
        assert_eq!(snap.per_shard.len(), 2);
        assert_eq!(snap.per_shard[0].requests, 50);
        assert_eq!(snap.per_shard[0].workers, 2);
        assert_eq!(snap.per_shard[1].computed, 50);
        assert_eq!(snap.per_shard[1].session_updates, 3);
        // per-shard tails come from each shard's own histogram
        assert_eq!(snap.per_shard[0].p99_us, 10);
        assert_eq!(snap.per_shard[1].p99_us, 1023);
        assert!((snap.cache_hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_includes_shard_breakdown_when_sharded() {
        let one = shards(1);
        one[0].record_request(us(10), false);
        let one = ServeStats::read(&one, &[1], Duration::from_secs(1));
        assert!(!format!("{one}").contains("shards:"));
        let two = shards(2);
        two[0].record_request(us(10), false);
        let text = format!("{}", ServeStats::read(&two, &[1, 1], Duration::from_secs(1)));
        assert!(text.contains("2 shards:"), "got {text}");
        assert!(text.contains("[0: 1 req"), "got {text}");
        assert!(text.contains("p99"), "got {text}");
    }
}
