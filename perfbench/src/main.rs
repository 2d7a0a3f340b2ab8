//! The LHNN workspace benchmark.
//!
//! ```text
//! lhnn-perfbench --workload <placer_loop|serve_stateless>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from `--seed`, measures the workload for `--seconds`,
//! checks the outputs, and prints as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` reports the per-layer metrics, timed
//! from outside around each layer's public calls. `--smoke` shrinks every
//! input to a seconds-long profile for the benchmark's own tests.

mod common;
mod placer;
mod serve;
mod train;

use common::{
    host_descriptor, json_object, json_str, median, peak_rss_mb, percentile, Ctx, Profile, Report,
    Result, RunOutcome,
};

/// A workload: its runner and the tail percentile of each input class —
/// a standard percentile with well over ten samples beyond it at the
/// default run length, low enough to repeat across seeds.
struct Workload {
    name: &'static str,
    run: fn(&Ctx) -> Result<RunOutcome>,
    tail_pct: [f64; 2],
}

const WORKLOADS: [Workload; 2] = [
    Workload { name: "placer_loop", run: placer::run, tail_pct: [95.0, 90.0] },
    Workload { name: "serve_stateless", run: serve::run, tail_pct: [95.0, 95.0] },
];

const USAGE: &str = "usage: lhnn-perfbench --workload <placer_loop|serve_stateless> \
                     --seed <n> --seconds <s> --trace <0|1> [--smoke]";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> std::result::Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut smoke) = (None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got `{value}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        smoke,
    })
}

/// The end-to-end metrics of one untraced run.
fn end_to_end(w: &Workload, o: &RunOutcome, report: &mut Report) {
    for (class, samples) in ["small", "large"].into_iter().zip([&o.lat.small_ms, &o.lat.large_ms]) {
        report.push(format!("latency_ms_p50.{class}"), median(samples), "ms");
        let tail = w.tail_pct[usize::from(class == "large")];
        report.push(format!("latency_ms_tail.{class}"), percentile(samples, tail), "ms");
    }
    report.push("throughput_per_s", o.throughput_per_s, "1/s");
    report.push("setup_s", median(&o.setup_times_s), "s");
    report.push("peak_rss_mb", peak_rss_mb(), "MiB");
}

fn execute(args: &Args) -> Result<Report> {
    neurograd::pool::configure_threads(common::COMPUTE_THREADS);
    let profile = if args.smoke { Profile::smoke() } else { Profile::full() };
    let ctx = Ctx { seed: args.seed, seconds: args.seconds, profile };
    let mut report = Report::default();
    let w = args.workload;
    if !args.trace {
        let o = (w.run)(&ctx)?;
        report.attempted += o.attempted;
        report.failed += o.failed;
        for (k, v) in &o.info {
            report.note(k.clone(), v);
        }
        end_to_end(w, &o, &mut report);
        let times: Vec<String> = o.setup_times_s.iter().map(|t| format!("{t:.3}")).collect();
        report.note("setup_times_s", times.join(" "));
        for (class, pct) in ["small", "large"].into_iter().zip(w.tail_pct) {
            report.note(format!("tail_percentile.{class}"), pct);
        }
        return Ok(report);
    }
    // Traced: every layer, timed from outside around its public calls in
    // replays of its own. The timed workload never runs here, so it
    // carries no tracing at all.
    placer::layers(&ctx, &mut report)?;
    serve::layers(&ctx, &mut report)?;
    train::layers(&ctx, &mut report)?;
    Ok(report)
}

fn print_result(report: &Report) {
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { -1.0 };
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", json_str(&m.name), json_str(m.unit))
        })
        .collect();
    let failed = report.failed + u64::from(!finite);
    println!("host {}", json_object(&host_descriptor()));
    println!("info {}", json_object(&report.info));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        report.attempted.max(1),
        metrics.join(", ")
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lhnn-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match execute(&args) {
        Ok(report) => print_result(&report),
        Err(e) => {
            eprintln!("lhnn-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
