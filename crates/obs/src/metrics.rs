//! Lock-light metrics registry: counters and log-linear histograms.
//!
//! Design constraints (carried from the serving engine's determinism
//! guarantees):
//!
//! * **Recording never blocks.** A handle ([`Counter`], [`Histogram`])
//!   resolved once from the [`Registry`] records with relaxed atomic ops
//!   only; the registry mutex guards registration and
//!   snapshotting, never the hot path — so snapshotting mid-load cannot
//!   deadlock a worker.
//! * **Cells always record.** Counts are the system's only count store,
//!   so they stay exact whatever the enable flag says. The flag gates only
//!   what costs a clock read: a disabled [`Histogram::start`] skips
//!   `Instant::now()` and its [`Histogram::stop_us`] records nothing.
//! * **Bounded memory, bounded error.** Histograms use HdrHistogram-style
//!   log-linear buckets (<http://hdrhistogram.org>): exact below 16, then
//!   8 linear sub-buckets per power of two. A quantile reports its
//!   bucket's upper bound, so it errs high by at most 12.5%, and
//!   bucket-wise sums merge histograms exactly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Values below this land in their own exact bucket.
const EXACT: u64 = 16;

/// Number of histogram buckets: 16 exact ones, then 8 per octave
/// `[2^e, 2^(e+1))` for `e` in `4..64`, which covers every `u64`.
pub const BUCKETS: usize = EXACT as usize + 60 * 8;

#[inline]
fn bucket_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as usize;
    // `v >> (e - 3)` is in 8..16: the sub-bucket within the octave.
    e * 8 - 24 + (v >> (e - 3)) as usize
}

/// Inclusive upper bound of bucket `i` (the value a quantile lookup
/// reports for ranks landing in that bucket).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i < EXACT as usize {
        return i as u64;
    }
    let shift = (i - EXACT as usize) / 8 + 1;
    let sub = ((i - EXACT as usize) % 8 + 8) as u64;
    (sub << shift) | ((1u64 << shift) - 1)
}

/// Escapes a label value per the Prometheus text format: backslash,
/// double quote and newline.
pub(crate) fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// A monotone counter handle. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter").field("value", &self.get()).finish_non_exhaustive()
    }
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`: one relaxed fetch-add.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

pub(crate) struct HistogramCell {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl HistogramCell {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
        }
    }
}

/// A log-linear histogram handle. Observations are `u64` values —
/// microseconds for the `*_us` series, plain counts (dirty rows, halo
/// rows, batch jobs) for the others.
#[derive(Clone)]
pub struct Histogram {
    enabled: Arc<AtomicBool>,
    cell: Arc<HistogramCell>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let count = self.cell.count.load(Ordering::Relaxed);
        f.debug_struct("Histogram").field("count", &count).finish_non_exhaustive()
    }
}

impl Histogram {
    /// Records one observation: three relaxed fetch-adds.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.cell.count.fetch_add(1, Ordering::Relaxed);
        self.cell.sum.fetch_add(v, Ordering::Relaxed);
        self.cell.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a span timer, or returns `None` without reading the clock
    /// when the registry is disabled. Pair with [`Histogram::stop_us`].
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled.load(Ordering::Relaxed) {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends a span started with [`Histogram::start`], recording the
    /// elapsed microseconds. A `None` token (disabled at start) is a
    /// no-op.
    #[inline]
    pub fn stop_us(&self, started: Option<Instant>) {
        if let Some(t0) = started {
            self.observe(u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX));
        }
    }

    /// A copy of the current contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cell.snapshot()
    }
}

enum Cell {
    Counter(Arc<AtomicU64>),
    Histogram(Arc<HistogramCell>),
}

impl Cell {
    fn kind(&self) -> &'static str {
        match self {
            Cell::Counter(_) => "counter",
            Cell::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    cell: Cell,
}

/// Renders the canonical series key: `name` or `name{k="v",...}`, with
/// values escaped as in the text exposition (so no label value can alias
/// another series).
fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut key = String::with_capacity(name.len() + 16 * labels.len());
    key.push_str(name);
    key.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{k}=\"{}\"", escape_label(v));
    }
    key.push('}');
    key
}

/// The metrics registry: a named collection of atomic cells plus the
/// enable flag its span timers consult.
///
/// One registry per engine (or per bench run). Handles stay valid for
/// the life of the process even if the registry is dropped — they own
/// `Arc`s to their cells.
pub struct Registry {
    enabled: Arc<AtomicBool>,
    series: Mutex<BTreeMap<String, Entry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.series.lock().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .field("series", &n)
            .finish_non_exhaustive()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> Self {
        Self { enabled: Arc::new(AtomicBool::new(true)), series: Mutex::new(BTreeMap::new()) }
    }

    /// A disabled registry: cells register and record as usual, but span
    /// timers never read the clock (the `EngineConfig::metrics`
    /// off-switch builds one of these).
    pub fn disabled() -> Self {
        let r = Self::new();
        r.enabled.store(false, Ordering::Relaxed);
        r
    }

    /// Whether span timers read the clock.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn resolve(&self, name: &str, labels: &[(&str, &str)], make: fn() -> Cell) -> Cell {
        let key = series_key(name, labels);
        let mut map = self.series.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let entry = map.entry(key).or_insert_with(|| Entry {
            name: name.to_string(),
            labels: labels.iter().map(|(k, v)| ((*k).to_string(), (*v).to_string())).collect(),
            cell: make(),
        });
        match &entry.cell {
            Cell::Counter(c) => Cell::Counter(Arc::clone(c)),
            Cell::Histogram(h) => Cell::Histogram(Arc::clone(h)),
        }
    }

    /// Resolves (registering on first use) an unlabeled counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Resolves a labeled counter, e.g.
    /// `counter_with("lhnn_updates_total", &[("design", "d0")])`.
    ///
    /// # Panics
    ///
    /// Panics if the same series was previously registered with a
    /// different metric kind (a programming error).
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.resolve(name, labels, || Cell::Counter(Arc::new(AtomicU64::new(0)))) {
            Cell::Counter(cell) => Counter { cell },
            other => {
                panic!("series {} already registered as {}", series_key(name, labels), other.kind())
            }
        }
    }

    /// Resolves (registering on first use) an unlabeled histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Resolves a labeled histogram.
    ///
    /// # Panics
    ///
    /// Panics on a metric-kind collision, like [`Registry::counter_with`].
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.resolve(name, labels, || Cell::Histogram(Arc::new(HistogramCell::new()))) {
            Cell::Histogram(cell) => Histogram { enabled: Arc::clone(&self.enabled), cell },
            other => {
                panic!("series {} already registered as {}", series_key(name, labels), other.kind())
            }
        }
    }

    /// The span histogram for one named stage:
    /// `lhnn_stage_us{stage="<stage>"}`.
    pub fn stage(&self, stage: &str) -> Histogram {
        self.histogram_with("lhnn_stage_us", &[("stage", stage)])
    }

    /// A point-in-time copy of every registered series.
    ///
    /// Takes only the registration mutex (never contended by recording),
    /// so it is safe to call from any thread at any rate. Histogram
    /// count/sum/buckets are read without a global ordering, so a
    /// snapshot racing live traffic may be internally off by the few
    /// in-flight observations; each individual cell is monotone.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.series.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let series = map
            .values()
            .map(|e| SeriesSnapshot {
                name: e.name.clone(),
                labels: e.labels.clone(),
                value: match &e.cell {
                    Cell::Counter(c) => SeriesValue::Counter(c.load(Ordering::Relaxed)),
                    Cell::Histogram(h) => SeriesValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        Snapshot { series }
    }
}

/// A frozen copy of one series.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// Base metric name (no labels).
    pub name: String,
    /// Label pairs in registration order.
    pub labels: Vec<(String, String)>,
    /// The recorded value(s).
    pub value: SeriesValue,
}

impl SeriesSnapshot {
    /// The canonical `name{k="v"}` key.
    pub fn key(&self) -> String {
        let labels: Vec<(&str, &str)> =
            self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        series_key(&self.name, &labels)
    }
}

/// The value of one frozen series.
#[derive(Debug, Clone)]
pub enum SeriesValue {
    /// Monotone counter value.
    Counter(u64),
    /// Histogram counts.
    Histogram(HistogramSnapshot),
}

/// Frozen histogram contents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (exact; the mean is `sum / count`).
    pub sum: u64,
    /// Per-bucket observation counts in the log-linear layout of
    /// [`BUCKETS`] (empty for an empty default).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Exact mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Adds `other`'s observations: the result equals the histogram of
    /// both observation streams, so quantiles of a merge are exact merges.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
    }

    /// Approximate quantile: nearest-rank over the bucket counts,
    /// reported as the landing bucket's inclusive upper bound, so the
    /// estimate is at least the exact quantile and at most 12.5% above
    /// it.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil()).max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(self.buckets.len().saturating_sub(1))
    }
}

/// A point-in-time copy of a whole registry, ordered by series key.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Every registered series.
    pub series: Vec<SeriesSnapshot>,
}

impl Snapshot {
    /// Looks a series up by its canonical key (`name` or
    /// `name{k="v",...}` with labels in registration order).
    pub fn get(&self, key: &str) -> Option<&SeriesSnapshot> {
        self.series.iter().find(|s| s.key() == key)
    }

    /// The series `key` names: the one with that canonical key, or for a
    /// bare name (no `{`) every series of that name.
    fn matching<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a SeriesSnapshot> {
        let bare = !key.contains('{');
        self.series.iter().filter(move |s| if bare { s.name == key } else { s.key() == key })
    }

    /// Counter value by canonical key, or the sum over every series of a
    /// bare name; 0 when absent or not a counter.
    pub fn counter(&self, key: &str) -> u64 {
        self.matching(key)
            .map(|s| match s.value {
                SeriesValue::Counter(v) => v,
                _ => 0,
            })
            .sum()
    }

    /// Histogram by canonical key, or the merge of every series of a bare
    /// name; `None` when absent or another kind.
    pub fn histogram(&self, key: &str) -> Option<HistogramSnapshot> {
        self.matching(key).fold(None, |acc, s| match &s.value {
            SeriesValue::Histogram(h) => {
                let mut merged = acc.unwrap_or_default();
                merged.merge(h);
                Some(merged)
            }
            _ => acc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_records_and_reads() {
        let r = Registry::new();
        let c = r.counter("lhnn_requests_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // same name resolves to the same cell
        assert_eq!(r.counter("lhnn_requests_total").get(), 5);
        assert_eq!(r.snapshot().counter("lhnn_requests_total"), 5);
    }

    #[test]
    fn labels_separate_series() {
        let r = Registry::new();
        r.counter_with("c", &[("design", "a")]).add(1);
        r.counter_with("c", &[("design", "b")]).add(2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("c{design=\"a\"}"), 1);
        assert_eq!(snap.counter("c{design=\"b\"}"), 2);
        // a bare name sums every label set
        assert_eq!(snap.counter("c"), 3);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        // Disabled stops the clock reads only: cells still count.
        let r = Registry::disabled();
        let c = r.counter("c");
        let h = r.histogram("h");
        c.inc();
        h.observe(7);
        // the span timer must not even read the clock
        assert!(h.start().is_none());
        h.stop_us(None);
        assert_eq!(c.get(), 1);
        assert_eq!(h.snapshot().count, 1);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        for v in 0..16 {
            assert_eq!(bucket_of(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
        assert_eq!((bucket_of(17), bucket_of(18), bucket_upper(23)), (16, 17, 31));
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(BUCKETS - 1), u64::MAX);
        // every bucket's upper bound maps back into it, and the next
        // value opens the next bucket
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_of(bucket_upper(i)), i);
            assert_eq!(bucket_of(bucket_upper(i) + 1), i + 1);
        }

        let r = Registry::new();
        let h = r.histogram("h");
        // 90 fast observations (exact bucket 10) + 10 slow ([1408,1535])
        for _ in 0..90 {
            h.observe(10);
        }
        for _ in 0..10 {
            h.observe(1500);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("h").unwrap();
        assert_eq!(hs.count, 100);
        assert_eq!(hs.sum, 90 * 10 + 10 * 1500);
        assert_eq!(hs.quantile(0.50), 10);
        assert_eq!(hs.quantile(0.90), 10);
        assert_eq!(hs.quantile(0.99), 1535); // upper bound of [1408,1535]
        assert!((hs.mean() - 159.0).abs() < 1e-9);
    }

    /// Quantile estimates are never below the exact nearest-rank quantile
    /// and at most 12.5% above it, and merging is exact.
    #[test]
    fn quantiles_are_bounded_and_merge_exactly() {
        // xorshift64*, log-uniform over 1 us .. 10 s
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let r = Registry::new();
        let (a, b) =
            (r.histogram_with("h", &[("part", "a")]), r.histogram_with("h", &[("part", "b")]));
        let mut exact = Vec::new();
        for i in 0..12_000 {
            let v = (10f64.powf(7.0 * (next() >> 11) as f64 / (1u64 << 53) as f64)) as u64;
            if i % 3 == 0 { &a } else { &b }.observe(v);
            exact.push(v);
        }
        exact.sort_unstable();
        // the bare name merges both series
        let merged = r.snapshot().histogram("h").unwrap();
        let mut by_hand = a.snapshot();
        by_hand.merge(&b.snapshot());
        assert_eq!(merged, by_hand);
        assert_eq!(merged.count, exact.len() as u64);
        for q in [0.5, 0.9, 0.95, 0.99, 0.999] {
            let rank = (q * exact.len() as f64).ceil() as usize;
            let want = exact[rank - 1];
            let got = merged.quantile(q);
            assert!(want <= got && got as f64 <= 1.125 * want as f64, "q{q}: {got} vs {want}");
        }
    }

    #[test]
    fn span_timer_records_elapsed() {
        let r = Registry::new();
        let h = r.stage("splice");
        let t = h.start();
        assert!(t.is_some());
        h.stop_us(t);
        assert_eq!(r.snapshot().histogram("lhnn_stage_us{stage=\"splice\"}").unwrap().count, 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_collision_panics() {
        let r = Registry::new();
        r.counter("x");
        r.histogram("x");
    }

    #[test]
    fn snapshot_is_ordered_by_key() {
        let r = Registry::new();
        r.counter("b");
        r.counter("a");
        let keys: Vec<String> = r.snapshot().series.iter().map(SeriesSnapshot::key).collect();
        assert_eq!(keys, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn concurrent_recording_is_exact_when_quiesced() {
        let r = Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = r.counter("n");
            let h = r.histogram("lat");
            handles.push(std::thread::spawn(move || {
                for i in 0..1000u64 {
                    c.inc();
                    h.observe(i % 97);
                }
            }));
        }
        // snapshot concurrently with the writers: must not deadlock, and
        // every counter read is monotone
        let mut last = 0;
        for _ in 0..50 {
            let v = r.snapshot().counter("n");
            assert!(v >= last);
            last = v;
        }
        for t in handles {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.counter("n"), 4000);
        assert_eq!(snap.histogram("lat").unwrap().count, 4000);
    }
}
