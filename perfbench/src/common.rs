//! Shared pieces: the fixed load shape, seeded inputs, sample statistics,
//! the result record and the host descriptor.

use std::time::{Duration, Instant};

use lhnn::Prediction;

/// Intra-op compute threads of the shared kernel pool.
pub const COMPUTE_THREADS: usize = 2;
/// Engine worker threads.
pub const WORKERS: usize = 2;
/// Name of the registered LHNN model.
pub const LHNN: &str = "lhnn";
/// Name of the registered HybridNet model.
pub const HYBRIDNET: &str = "hybridnet";

pub type BoxError = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, BoxError>;

/// Input sizes of one benchmark profile.
#[derive(Debug, Clone)]
pub struct Profile {
    /// (grid side, cells) of the small and the large placer-loop designs.
    pub loop_sizes: [(u32, usize); 2],
    /// Designs per placer-loop client, small then large. Each pass over a
    /// design opens a fresh session; the pool is sized so a run does not
    /// cycle back to a design whose states the engine cache still holds.
    pub loop_designs: [usize; 2],
    /// (grid side, cells) of the serving designs.
    pub serve_size: (u32, usize),
    /// Designs whose traced placer states the serving clients ask for;
    /// together they hold more distinct snapshots than the engine cache.
    pub serve_designs: usize,
    /// Cell-count multiplier of the synthblue suite in the per-layer flow.
    pub train_scale: f32,
    /// How often set-up is repeated to report its median.
    pub setup_repeats: usize,
    /// Seconds of each serving loop the per-layer run drives for its
    /// engine counters.
    pub layer_serve_seconds: f64,
}

impl Profile {
    /// The benchmark's profile.
    pub fn full() -> Self {
        Self {
            loop_sizes: [(24, 800), (48, 3200)],
            loop_designs: [180, 16],
            serve_size: (24, 800),
            serve_designs: 12,
            train_scale: 0.25,
            setup_repeats: 3,
            layer_serve_seconds: 1.5,
        }
    }

    /// A seconds-long profile with the same code paths, for the smoke test.
    pub fn smoke() -> Self {
        Self {
            loop_sizes: [(8, 120), (12, 300)],
            loop_designs: [2, 1],
            serve_size: (8, 120),
            serve_designs: 2,
            train_scale: 0.03,
            setup_repeats: 1,
            layer_serve_seconds: 0.3,
        }
    }
}

/// What the benchmark was asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub profile: Profile,
}

/// SplitMix64: a small, fully specified generator, so inputs depend only
/// on the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[-1, 1)`.
    pub fn signed_unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 23) as f32 - 1.0
    }
}

/// An independent sub-seed of `seed` for the input named by `tag`.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    Rng::new(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` and returns its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, ms(t0.elapsed()))
}

/// Sets up `repeats` times (at least once), tearing every state but the
/// last down, and returns that state with each set-up's seconds.
pub fn repeated_setup<S>(
    repeats: usize,
    mut setup: impl FnMut() -> Result<S>,
    mut teardown: impl FnMut(S),
) -> Result<(S, Vec<f64>)> {
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..repeats.max(1) {
        if let Some(old) = state.take() {
            teardown(old);
        }
        let (s, t) = timed(&mut setup);
        times.push(t / 1e3);
        state = Some(s?);
    }
    Ok((state.expect("set up at least once"), times))
}

/// The median (mean of the middle pair for even counts); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in `(0, 100]`; 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// FNV-1a over the bit patterns of a prediction: equal digests mean
/// bitwise-equal predictions (up to a 2⁻⁶⁴ collision).
pub fn prediction_digest(p: &Prediction) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for m in [&p.cls_prob, &p.reg] {
        eat(m.rows() as u64);
        eat(m.cols() as u64);
        for v in m.as_slice() {
            eat(u64::from(v.to_bits()));
        }
    }
    h
}

/// Bitwise equality of two predictions.
pub fn same_prediction(a: &Prediction, b: &Prediction) -> bool {
    prediction_digest(a) == prediction_digest(b)
}

/// Latency samples of one workload, split into its two input classes.
#[derive(Debug, Default)]
pub struct Latencies {
    pub small_ms: Vec<f64>,
    pub large_ms: Vec<f64>,
}

/// What one timed run of a workload measured.
#[derive(Debug, Default)]
pub struct RunOutcome {
    pub lat: Latencies,
    /// Units of work completed per second of the timed region (placer
    /// iterations, or served snapshots).
    pub throughput_per_s: f64,
    /// Seconds each repeated set-up took.
    pub setup_times_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Facts worth recording with the result (sample counts, final loss).
    pub info: Vec<(String, String)>,
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The measurements of one benchmark invocation.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub info: Vec<(String, String)>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.info.push((key.into(), value.to_string()));
    }

    /// Counts one check: attempted, and failed unless `ok`.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit of the checkout when it is a git work tree, else `none`.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        None => head,
    }
}

/// FNV-1a over every Rust source and manifest under `crates/`, in path
/// order: identifies the measured code when the checkout has no git
/// metadata.
fn source_fingerprint() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

/// The host descriptor printed with every result.
pub fn host_descriptor() -> Vec<(String, String)> {
    vec![
        (
            "nproc".into(),
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).to_string(),
        ),
        ("isa".into(), neurograd::simd::isa_report()),
        ("commit".into(), commit()),
        ("source_fingerprint".into(), source_fingerprint()),
        ("compute_threads".into(), neurograd::pool::current_threads().to_string()),
        ("engine_workers".into(), WORKERS.to_string()),
    ]
}

/// A JSON object of string pairs.
pub fn json_object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> =
        pairs.iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    format!("{{{}}}", body.join(", "))
}
