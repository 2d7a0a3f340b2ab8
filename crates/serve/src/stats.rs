//! Latency and throughput accounting for the engine.
//!
//! Each shard owns one [`StatsInner`]; a [`ServeStats`] snapshot
//! aggregates every shard's counters and merges their latency rings
//! before computing percentiles, and carries a per-shard breakdown so a
//! hot design monopolising one shard is visible at a glance.
//!
//! Per-request latencies (submission to reply, cache hits included) land
//! in a fixed-size ring so the memory footprint is bounded no matter how
//! long the engine runs; percentiles are nearest-rank over the rings'
//! current contents. Counters (requests, cache hits, computed forwards,
//! batches, session updates) are exact over the whole lifetime.
//!
//! Ring entries carry an **engine-wide admission stamp** (a logical clock
//! shared by every shard of one engine). Merging rings for the aggregate
//! percentiles keeps only the most recent [`RING`] entries by stamp, so a
//! shard that went idle an hour ago cannot skew today's p99 with its
//! stale ring — the aggregate describes the last `RING` requests the
//! *engine* served, whatever their shard mix.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const RING: usize = 4096;

/// One ring slot: when the request was admitted (engine-wide logical
/// order) and how long it took.
#[derive(Debug, Clone, Copy)]
struct RingEntry {
    stamp: u64,
    us: u64,
}

/// Mutable accumulator, one per shard, behind that shard's stats mutex.
#[derive(Debug, Clone)]
pub(crate) struct StatsInner {
    requests: u64,
    cache_hits: u64,
    computed: u64,
    batches: u64,
    batched_jobs: u64,
    batched_forwards: u64,
    batched_forward_jobs: u64,
    session_updates: u64,
    total_latency_us: u128,
    /// Engine-wide logical clock, shared by every shard's accumulator.
    clock: Arc<AtomicU64>,
    ring: Vec<RingEntry>,
    next: usize,
}

impl StatsInner {
    /// A standalone accumulator with its own clock (single-shard tests).
    #[cfg(test)]
    pub(crate) fn new() -> Self {
        Self::with_clock(Arc::new(AtomicU64::new(0)))
    }

    /// An accumulator stamping its ring from `clock`. Every shard of one
    /// engine shares the same clock so merged rings have a total recency
    /// order.
    pub(crate) fn with_clock(clock: Arc<AtomicU64>) -> Self {
        Self {
            requests: 0,
            cache_hits: 0,
            computed: 0,
            batches: 0,
            batched_jobs: 0,
            batched_forwards: 0,
            batched_forward_jobs: 0,
            session_updates: 0,
            total_latency_us: 0,
            clock,
            ring: Vec::with_capacity(RING),
            next: 0,
        }
    }

    pub(crate) fn record_request(&mut self, latency: Duration, cache_hit: bool) {
        self.requests += 1;
        if cache_hit {
            self.cache_hits += 1;
        }
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.total_latency_us += u128::from(us);
        let entry = RingEntry { stamp: self.clock.fetch_add(1, Ordering::Relaxed), us };
        if self.ring.len() < RING {
            self.ring.push(entry);
        } else {
            self.ring[self.next] = entry;
        }
        self.next = (self.next + 1) % RING;
    }

    pub(crate) fn record_computed(&mut self) {
        self.computed += 1;
    }

    pub(crate) fn record_batch(&mut self, jobs: usize) {
        self.batches += 1;
        self.batched_jobs += jobs as u64;
    }

    /// One cross-design block-diagonal forward that served `jobs`
    /// requests in a single model dispatch.
    pub(crate) fn record_batched_forward(&mut self, jobs: usize) {
        self.batched_forwards += 1;
        self.batched_forward_jobs += jobs as u64;
    }

    pub(crate) fn record_session_updates(&mut self, applied: usize) {
        self.session_updates += applied as u64;
    }

    /// A copy taken under the shard's stats lock, so aggregation can run
    /// without holding any lock.
    pub(crate) fn clone_for_snapshot(&self) -> StatsInner {
        self.clone()
    }

    /// Single-shard snapshot (kept for unit tests; the engine snapshots
    /// through [`aggregate`]).
    #[cfg(test)]
    pub(crate) fn snapshot(&self, uptime: Duration) -> ServeStats {
        aggregate(std::slice::from_ref(self), &[1], uptime)
    }
}

/// Nearest-rank percentile over an ascending-sorted latency list:
/// `ceil(p/100 * n)`, 1-indexed; 0 when empty.
fn pct_of(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil().max(1.0) as usize;
    sorted_us[rank.min(sorted_us.len()) - 1]
}

/// Builds an aggregate [`ServeStats`] over every shard's accumulator.
///
/// Counters sum; latency percentiles are nearest-rank over the merged
/// rings, **recency-weighted**: when the shards together hold more than
/// one ring's worth of samples, only the newest [`RING`] by engine-wide
/// stamp survive the merge (so a one-shard engine reports exactly what
/// it did before sharding existed, and an idle shard's stale ring cannot
/// bias the aggregate). `per_shard[i]` carries shard `i`'s own counters
/// and its own-ring p50/p99.
pub(crate) fn aggregate(
    shards: &[StatsInner],
    workers_per_shard: &[usize],
    uptime: Duration,
) -> ServeStats {
    let mut merged: Vec<RingEntry> = Vec::with_capacity(shards.iter().map(|s| s.ring.len()).sum());
    for s in shards {
        merged.extend_from_slice(&s.ring);
    }
    if merged.len() > RING {
        merged.sort_unstable_by(|x, y| y.stamp.cmp(&x.stamp));
        merged.truncate(RING);
    }
    let mut lat: Vec<u64> = merged.iter().map(|e| e.us).collect();
    lat.sort_unstable();
    let requests: u64 = shards.iter().map(|s| s.requests).sum();
    let cache_hits: u64 = shards.iter().map(|s| s.cache_hits).sum();
    let computed: u64 = shards.iter().map(|s| s.computed).sum();
    let batches: u64 = shards.iter().map(|s| s.batches).sum();
    let batched_jobs: u64 = shards.iter().map(|s| s.batched_jobs).sum();
    let batched_forwards: u64 = shards.iter().map(|s| s.batched_forwards).sum();
    let batched_forward_jobs: u64 = shards.iter().map(|s| s.batched_forward_jobs).sum();
    let session_updates: u64 = shards.iter().map(|s| s.session_updates).sum();
    let total_latency_us: u128 = shards.iter().map(|s| s.total_latency_us).sum();
    let secs = uptime.as_secs_f64();
    ServeStats {
        requests,
        cache_hits,
        computed,
        cache_hit_rate: if requests == 0 { 0.0 } else { cache_hits as f64 / requests as f64 },
        batches,
        mean_batch_size: if batches == 0 { 0.0 } else { batched_jobs as f64 / batches as f64 },
        batched_forwards,
        batched_forward_jobs,
        session_updates,
        p50_us: pct_of(&lat, 50.0),
        p95_us: pct_of(&lat, 95.0),
        p99_us: pct_of(&lat, 99.0),
        mean_us: if requests == 0 { 0.0 } else { total_latency_us as f64 / requests as f64 },
        throughput_rps: if secs > 0.0 { requests as f64 / secs } else { 0.0 },
        uptime,
        per_shard: shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut own: Vec<u64> = s.ring.iter().map(|e| e.us).collect();
                own.sort_unstable();
                ShardStats {
                    shard: i,
                    workers: workers_per_shard.get(i).copied().unwrap_or(0),
                    requests: s.requests,
                    cache_hits: s.cache_hits,
                    computed: s.computed,
                    session_updates: s.session_updates,
                    p50_us: pct_of(&own, 50.0),
                    p99_us: pct_of(&own, 99.0),
                }
            })
            .collect(),
    }
}

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
    /// Median latency over this shard's own ring, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency over this shard's own ring, microseconds
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
    /// Median request latency, microseconds (over the engine's last 4096
    /// requests, whatever their shard mix).
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// Mean latency over the whole lifetime, microseconds.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = StatsInner::new();
        for us in 1..=100u64 {
            s.record_request(Duration::from_micros(us), false);
        }
        let snap = s.snapshot(Duration::from_secs(1));
        assert_eq!(snap.p50_us, 50);
        assert_eq!(snap.p95_us, 95);
        assert_eq!(snap.p99_us, 99);
        assert_eq!(snap.requests, 100);
        assert!((snap.throughput_rps - 100.0).abs() < 1e-9);
        assert!((snap.mean_us - 50.5).abs() < 1e-9);
    }

    #[test]
    fn hit_rate_counts() {
        let mut s = StatsInner::new();
        s.record_request(Duration::from_micros(5), true);
        s.record_request(Duration::from_micros(5), false);
        s.record_computed();
        let snap = s.snapshot(Duration::from_millis(10));
        assert_eq!(snap.cache_hits, 1);
        assert_eq!(snap.computed, 1);
        assert!((snap.cache_hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_snapshot_is_zeroed() {
        let snap = StatsInner::new().snapshot(Duration::ZERO);
        assert_eq!(snap.p50_us, 0);
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.cache_hit_rate, 0.0);
        assert_eq!(snap.throughput_rps, 0.0);
    }

    #[test]
    fn ring_is_bounded() {
        let mut s = StatsInner::new();
        for i in 0..(RING as u64 + 100) {
            s.record_request(Duration::from_micros(i), false);
        }
        assert_eq!(s.ring.len(), RING);
        // the oldest 100 samples were overwritten: min is now >= 100 or a
        // wrapped recent value, so p50 reflects recent traffic
        let snap = s.snapshot(Duration::from_secs(1));
        assert!(snap.p50_us > 0);
    }

    #[test]
    fn batch_factor() {
        let mut s = StatsInner::new();
        s.record_batch(1);
        s.record_batch(7);
        let snap = s.snapshot(Duration::from_secs(1));
        assert!((snap.mean_batch_size - 4.0).abs() < 1e-12);
    }

    #[test]
    fn aggregate_merges_shards() {
        let mut a = StatsInner::new();
        let mut b = StatsInner::new();
        // shard a: fast requests; shard b: slow ones
        for _ in 0..50 {
            a.record_request(Duration::from_micros(10), true);
        }
        for _ in 0..50 {
            b.record_request(Duration::from_micros(1000), false);
            b.record_computed();
        }
        b.record_session_updates(3);
        let shards = [a, b];
        let snap = aggregate(&shards, &[2, 2], Duration::from_secs(1));
        assert_eq!(snap.requests, 100);
        assert_eq!(snap.computed, 50);
        assert_eq!(snap.cache_hits, 50);
        assert_eq!(snap.session_updates, 3);
        // merged percentiles straddle the two shards' latency bands
        assert_eq!(snap.p50_us, 10);
        assert_eq!(snap.p95_us, 1000);
        assert_eq!(snap.per_shard.len(), 2);
        assert_eq!(snap.per_shard[0].requests, 50);
        assert_eq!(snap.per_shard[0].workers, 2);
        assert_eq!(snap.per_shard[1].computed, 50);
        assert_eq!(snap.per_shard[1].session_updates, 3);
        // per-shard tails come from each shard's own ring
        assert_eq!(snap.per_shard[0].p99_us, 10);
        assert_eq!(snap.per_shard[1].p99_us, 1000);
        assert!((snap.cache_hit_rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn idle_shard_does_not_skew_aggregate_percentiles() {
        // One engine-wide clock, as the engine wires it.
        let clock = Arc::new(AtomicU64::new(0));
        let mut idle = StatsInner::with_clock(Arc::clone(&clock));
        let mut hot = StatsInner::with_clock(Arc::clone(&clock));
        // The idle shard served 100 slow requests long ago...
        for _ in 0..100 {
            idle.record_request(Duration::from_micros(10_000), false);
        }
        // ...then the hot shard served a full ring of fast traffic.
        for _ in 0..RING {
            hot.record_request(Duration::from_micros(100), false);
        }
        let shards = [idle, hot];
        let snap = aggregate(&shards, &[1, 1], Duration::from_secs(1));
        // Recency-weighted merge: only the newest RING samples count, so
        // the stale 10 ms requests fall out of the aggregate tail (a
        // plain concatenation would report p99 = 10_000 here).
        assert_eq!(snap.p99_us, 100);
        assert_eq!(snap.p50_us, 100);
        // The idle shard's own history stays visible in the breakdown.
        assert_eq!(snap.per_shard[0].p99_us, 10_000);
        assert_eq!(snap.per_shard[1].p99_us, 100);
    }

    #[test]
    fn display_includes_shard_breakdown_when_sharded() {
        let mut a = StatsInner::new();
        a.record_request(Duration::from_micros(10), false);
        let one = aggregate(std::slice::from_ref(&a), &[1], Duration::from_secs(1));
        assert!(!format!("{one}").contains("shards:"));
        let shards = [a, StatsInner::new()];
        let two = aggregate(&shards, &[1, 1], Duration::from_secs(1));
        let text = format!("{two}");
        assert!(text.contains("2 shards:"), "got {text}");
        assert!(text.contains("[0: 1 req"), "got {text}");
        assert!(text.contains("p99"), "got {text}");
    }
}
