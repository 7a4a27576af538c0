//! The repository benchmark: four workloads over the public `nfm` APIs,
//! each printing its metrics by name and unit and checking every output.
//!
//! ```text
//! nfm-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! nfm-benchmark compare DIR_A DIR_B [--spec BENCHMARK.json]
//! ```
//!
//! With `--workload` one workload runs in this process and the last line
//! of standard output is its result object. Without it every workload runs
//! in a child process of its own, so set-up time and peak memory are per
//! workload. `--trace 0` reports the end-to-end metrics; `--trace 1` is the
//! separate traced run that reports the per-layer metrics and writes its
//! spans to `.bench_out/`. Every reported time is read from a
//! [`clock::RefClock`], which corrects CPU or wall time for the host's
//! speed. See README.md for what each metric means.

mod clock;
mod compare;
mod json;
mod replay;
mod serve;
mod stack;
mod stats;
mod trace;
mod train;

use clock::{Base, RefClock};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] =
    ["serve_single", "serve_multitask_drift", "capture_replay", "train"];

/// An untraced run sets up this many times and reports the median as
/// `setup_s`, so one slow set-up does not move it.
const SETUP_REPS: usize = 3;

/// Where runs write spans and scratch files, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Reported by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("throughput_per_s", "1/s"),
    m("latency_p50_ms", "ms"),
    m("latency_p99_ms", "ms"),
    m("goodput_frac", "ratio"),
    m("answered_frac", "ratio"),
    m("peak_rss_mb", "MB"),
];

/// Reported by every traced run; 0 where the workload does not exercise
/// the layer.
pub const PER_LAYER: &[MetricDef] = &[
    m("net.pcap_read_ns_per_pkt", "ns"),
    m("net.parse_ns_per_pkt", "ns"),
    m("net.flow_assembly_ns_per_pkt", "ns"),
    m("net.malformed_frac", "ratio"),
    m("tokenize.ns_per_flow", "ns"),
    m("tokenize.tokens_per_flow", "count"),
    m("vocab.encode_ns_per_flow", "ns"),
    m("vocab.unk_frac", "ratio"),
    m("encoder.ns_per_row", "ns"),
    m("encoder.gmacs_per_s", "GMAC/s"),
    m("encoder.macs_per_row", "MAC"),
    m("encoder.rows_per_call", "count"),
    m("heads.ns_per_row", "ns"),
    m("heads.rows_per_request", "count"),
    m("drift.observe_ns", "ns"),
    m("drift.encoder_forwards_per_answer", "count"),
    m("serve.submit_ns", "ns"),
    m("serve.drain_ns_per_request", "ns"),
    m("serve.queue_wait_ms_p50", "ms"),
    m("serve.queue_wait_ms_p99", "ms"),
    m("serve.batch_size_mean", "count"),
    m("serve.shed_frac", "ratio"),
    m("serve.fallback_frac", "ratio"),
    m("serve.deadline_miss_frac", "ratio"),
    m("serve.residual_ns_per_request", "ns"),
    m("fanout.encoder_rows_per_head_row", "ratio"),
    m("fanout.lane_offers_per_request", "count"),
    m("cluster.probes_per_pass", "count"),
    m("cluster.restarts_per_pass", "count"),
    m("cluster.failovers_per_pass", "count"),
    m("cluster.hedges_per_pass", "count"),
    m("cluster.model_availability", "ratio"),
    m("tensor.matmul_macs_per_unit", "MAC"),
    m("tensor.matmul_calls_per_unit", "count"),
    m("tensor.gmacs_per_s", "GMAC/s"),
    m("pool.dispatches_per_unit", "count"),
    m("arena.reuse_frac", "ratio"),
    m("pretrain.step_ms", "ms"),
    m("pretrain.tokens_per_s", "1/s"),
    m("finetune.step_ms", "ms"),
    m("finetune.examples_per_s", "1/s"),
    m("loadgen.late_ms_p99", "ms"),
    m("loadgen.offered_rps", "1/s"),
    m("trace.coverage", "ratio"),
    m("trace.overhead_frac", "ratio"),
    m("trace.spans", "count"),
    m("host.slowdown", "ratio"),
    m("host.off_cpu_frac", "ratio"),
];

pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

impl Ctx {
    pub fn size(&self) -> &'static stack::Size {
        if self.quick {
            &stack::QUICK
        } else {
            &stack::FULL
        }
    }

    pub fn out_dir(&self) -> PathBuf {
        PathBuf::from(OUT_DIR)
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// `(phase, sent, succeeded)`.
    pub phases: Vec<(String, u64, u64)>,
    pub metrics: BTreeMap<&'static str, f64>,
    pub failures: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn phase(&mut self, name: &str, sent: u64, succeeded: u64) {
        self.phases.push((name.to_string(), sent, succeeded));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Build the workload's state `SETUP_REPS` times (once in a traced run)
/// and record the median reference time as `setup_s`. `build` lets the
/// clock probe between its steps. Each build is freed before the next
/// starts, so no two are ever alive at once.
pub fn setup<T>(
    ctx: &Ctx,
    clock: &mut RefClock,
    rep: &mut Report,
    build: impl Fn(&mut RefClock) -> Result<T, String>,
) -> Option<T> {
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut times = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        drop(built.take());
        clock.tick();
        let t = clock.now();
        let state = build(clock);
        times.push((clock.now() - t) as f64 / 1e9);
        match state {
            Ok(v) => built = Some(v),
            Err(e) => {
                rep.failures.push(format!("set-up failed: {e}"));
                return None;
            }
        }
    }
    rep.set("setup_s", stats::median(&times));
    built
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads a workload is pinned to: `train` uses every core; the
/// serving and replay workloads use one, where windows stay steady.
fn worker_threads(workload: &str) -> usize {
    if workload == "train" {
        nproc()
    } else {
        1
    }
}

/// What a workload's reference clock corrects: CPU time where one thread
/// does the work, wall time where the worker pool runs.
fn clock_base(workload: &str) -> Base {
    if worker_threads(workload) == 1 {
        Base::Cpu
    } else {
        Base::Wall
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn run_workload(ctx: &Ctx) -> Report {
    nfm_tensor::pool::set_threads(worker_threads(ctx.workload));
    let mut clock = RefClock::new(clock_base(ctx.workload));
    let mut rep = match ctx.workload {
        "serve_single" => serve::run(ctx, &mut clock, &serve::SINGLE),
        "serve_multitask_drift" => serve::run(ctx, &mut clock, &serve::MULTITASK),
        "capture_replay" => replay::run(ctx, &mut clock),
        _ => train::run(ctx, &mut clock),
    };
    println!(
        "host slowdown: {:.3} (mean of the run's probes); off-CPU share of wall time: {:.4}",
        clock.mean_slowdown(),
        clock.off_cpu_frac()
    );
    if ctx.trace {
        rep.set("host.slowdown", clock.mean_slowdown());
        rep.set("host.off_cpu_frac", clock.off_cpu_frac());
    }
    match peak_rss_mb() {
        Some(mb) => rep.set("peak_rss_mb", mb),
        None => rep.failures.push("cannot read VmHWM from /proc/self/status".into()),
    }
    rep
}

/// The reported metric values in BENCHMARK.json order. A per-layer metric
/// the workload did not set is 0 (the layer did no work); a missing
/// end-to-end metric or a non-finite value fails the run.
fn collect(ctx: &Ctx, rep: &mut Report) -> Vec<(&'static MetricDef, f64)> {
    let defs = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut values = Vec::with_capacity(defs.len());
    for d in defs {
        let value = match rep.metrics.get(d.name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                rep.failures.push(format!("{} is not finite ({v})", d.name));
                0.0
            }
            None if ctx.trace => 0.0,
            None => {
                rep.failures.push(format!("{} was not measured", d.name));
                0.0
            }
        };
        values.push((d, value));
    }
    values
}

/// Print the run's phases, metrics and checks, then its metadata line and,
/// last, the result object. Returns whether every check passed.
fn run_one(ctx: &Ctx) -> bool {
    let mut rep = run_workload(ctx);
    let values = collect(ctx, &mut rep);
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (name, sent, ok) in &rep.phases {
        println!("phase {name}: sent {sent}, succeeded {ok}, failed {}", sent - ok);
        attempted += sent;
        failed += sent - ok;
    }
    for (d, v) in &values {
        println!("{} = {v} {}", d.name, d.unit);
    }
    for f in &rep.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = rep.failures.is_empty() && attempted > 0;
    println!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"nproc\": {}, \"worker_threads\": {}, \"profile\": \"{}\"}}}}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.quick,
        nproc(),
        worker_threads(ctx.workload),
        if cfg!(debug_assertions) { "debug" } else { "release" }
    );
    let metrics: Vec<String> = values
        .iter()
        .map(|(d, v)| format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    correct
}

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: 10.0, trace: false, quick: false };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                args.workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|n| n == w)
                        .ok_or_else(|| format!("unknown workload '{w}' (one of {WORKLOADS:?})"))?,
                );
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Run every workload in a child process of its own.
fn run_all(args: &Args) -> bool {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return false;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("workload {w} failed ({s})");
                ok = false;
            }
            Err(e) => {
                eprintln!("cannot start workload {w}: {e}");
                ok = false;
            }
        }
    }
    ok
}

/// The `[profile.release]` settings of a manifest, comments dropped.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    // A package with a workspace of its own cannot inherit the repository's
    // release profile, so its manifest repeats it; refuse to measure a build
    // whose settings differ from what the repository ships.
    let (root, own) = (include_str!("../../Cargo.toml"), include_str!("../Cargo.toml"));
    if release_profile(root) != release_profile(own) {
        eprintln!(
            "benchmark/Cargo.toml's [profile.release] {:?} differs from the repository's {:?}",
            release_profile(own),
            release_profile(root)
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let ok = match args.workload {
        None => run_all(&args),
        Some(workload) => run_one(&Ctx {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            quick: args.quick,
        }),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> json::Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` pairs of one metric list in BENCHMARK.json.
    fn listed(key: &str) -> Vec<(String, String)> {
        spec()
            .get(key)
            .map(json::Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field =
                    |k| m.get(k).and_then(json::Json::as_str).unwrap_or_default().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn defined(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter().map(|d| (d.name.to_string(), d.unit.to_string())).collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        assert_eq!(listed("end_to_end"), defined(END_TO_END));
        assert_eq!(listed("per_layer"), defined(PER_LAYER));
        let names: Vec<String> = spec()
            .get("workloads")
            .map(json::Json::as_arr)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(json::Json::as_str).map(String::from))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    /// Every workload, untraced and traced, at `--quick` size: the run's
    /// checks pass and it reports every metric BENCHMARK.json names as a
    /// finite number. One test, so the runs never share the global
    /// counters with each other.
    #[test]
    fn quick_runs_emit_every_metric() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let ctx = Ctx { workload, seed: 3, seconds: 1.0, trace, quick: true };
                let mut rep = run_workload(&ctx);
                let values = collect(&ctx, &mut rep);
                assert!(rep.failures.is_empty(), "{workload} trace={trace}: {:?}", rep.failures);
                let defs = if trace { PER_LAYER } else { END_TO_END };
                assert_eq!(values.len(), defs.len());
                assert!(values.iter().all(|(_, v)| v.is_finite()));
                if !trace {
                    assert!(values.iter().all(|(_, v)| *v > 0.0), "{workload}: {:?}", rep.metrics);
                }
                assert!(
                    rep.phases.iter().map(|p| p.1).sum::<u64>() > 0,
                    "{workload}: nothing sent"
                );
            }
        }
    }
}
