//! `capture_replay`: closed-loop offline replay of a corrupted capture.
//!
//! The capture arrives as rotated pcap files of `SEGMENT_PACKETS` packets.
//! A pass decodes each file (`pcap::read`) and serves it through one
//! `ClusterSupervisor` of three replicas (`serve_trace`), replica 0
//! crashing a third of the way through the pass and restarting from its
//! checkpoint. A file's latency runs from the start of its read to the
//! cluster's last answer for it. Passes repeat for the run's duration, each
//! on a fresh cluster, and every pass must answer exactly like the first.

use std::path::Path;

use nfm_core::cluster::{ClusterConfig, ClusterStats, ClusterSupervisor};
use nfm_core::netglue::Task;
use nfm_core::serve::{assemble_requests, Fallback, Responder, Response, ServeConfig};
use nfm_model::tokenize::field::FieldTokenizer;
use nfm_net::capture::{Trace, TracePacket};
use nfm_net::pcap;
use nfm_traffic::faults::{burst_schedule, inject, FaultConfig, ReplicaFault, ReplicaFaultKind};

use crate::clock::RefClock;
use crate::stack::{simulate_capture, Stack};
use crate::stats::{median, percentile, sorted};
use crate::trace::{reconcile, report_counters, rows_per_call, Counters, Layers, Replayer, Tracer};
use crate::{ratio, setup, Ctx, Report};

const REPLICAS: usize = 3;
/// Packets per rotated capture file.
const SEGMENT_PACKETS: usize = 500;
const MIN_PASSES: usize = 3;
/// Share of requests the replicas' models must answer despite the crash.
const MIN_MODEL_AVAILABILITY: f64 = 0.99;

/// One rotated capture file.
struct Segment {
    pcap: Vec<u8>,
    packets: usize,
    /// Token context of each flow ingest assembles from the file, by flow
    /// index.
    tokens: Vec<Option<Vec<String>>>,
    requests: usize,
    schedule: Vec<usize>,
}

struct State {
    stack: Stack,
    segments: Vec<Segment>,
    packets: usize,
    requests: usize,
    faults: Vec<ReplicaFault>,
}

/// The rotated files a stretch of traffic arrives as: `trace` corrupted by
/// `inject` and cut into files of `SEGMENT_PACKETS`, each with its burst
/// schedule, all seeded by `seed`; and the requests the files assemble
/// into, which is what replaying them costs.
fn capture_files(trace: &Trace, seed: u64, max_tokens: usize) -> (Vec<Segment>, usize) {
    let corrupt = FaultConfig { corrupt_chance: 0.3, snaplen: 200, seed, ..FaultConfig::default() };
    let (noisy, _) = inject(trace, &corrupt);
    let tok = FieldTokenizer::new();
    let mut segments = Vec::new();
    for (i, chunk) in noisy.packets().chunks(SEGMENT_PACKETS).enumerate() {
        let trace = Trace::from_packets(chunk.to_vec());
        let mut pcap = Vec::new();
        pcap::write(&mut pcap, &trace).expect("writing to memory cannot fail");
        let (requests, _) = assemble_requests(&trace, &tok, max_tokens);
        let bursts = FaultConfig {
            burst_chance: 0.5,
            max_burst: 16,
            seed: seed.wrapping_add(i as u64),
            ..FaultConfig::default()
        };
        let schedule = burst_schedule(requests.len(), &bursts);
        let mut tokens = vec![None; requests.iter().map(|r| r.flow + 1).max().unwrap_or(0)];
        let n_requests = requests.len();
        for r in requests {
            tokens[r.flow] = Some(r.tokens);
        }
        segments.push(Segment {
            pcap,
            packets: chunk.len(),
            tokens,
            requests: n_requests,
            schedule,
        });
    }
    let requests = segments.iter().map(|s| s.requests).sum();
    (segments, requests)
}

fn build(ctx: &Ctx, max_tokens: usize, clock: &mut RefClock) -> Result<State, String> {
    let size = ctx.size();
    let stack = Stack::build(size, &[Task::AppClassification], max_tokens, clock)?;
    let segments = simulate_capture(ctx.seed, size.capture_packets, |trace, seed| {
        clock.tick();
        capture_files(trace, seed, max_tokens)
    });
    let ticks: usize = segments.iter().map(|s| s.schedule.len()).sum();
    let crash = ReplicaFault { replica: 0, at_burst: ticks / 3, kind: ReplicaFaultKind::Crash };
    Ok(State {
        stack,
        packets: segments.iter().map(|s| s.packets).sum(),
        requests: segments.iter().map(|s| s.requests).sum(),
        segments,
        faults: vec![crash],
    })
}

struct Pass {
    /// Per file: its responses, read time (wall) and read-plus-serve time
    /// (reference).
    responses: Vec<Vec<Response>>,
    read_ns: Vec<u64>,
    file_ns: Vec<u64>,
    /// Wall time of every read and serve, the time the layer replay
    /// decomposes.
    wall_ns: u64,
    stats: ClusterStats,
    ticks: usize,
    deadline_misses: usize,
    /// The decoded files, kept for the layer replay.
    traces: Vec<Trace>,
}

impl Pass {
    fn ns(&self) -> u64 {
        self.file_ns.iter().sum()
    }
}

/// Serve every file through a fresh cluster.
fn pass(
    st: &State,
    dir: &Path,
    tr: &mut Tracer,
    clock: &mut RefClock,
    id: u64,
    keep_traces: bool,
) -> Result<Pass, String> {
    let majority = || Fallback::Majority(st.stack.priors[0]);
    let replicas = (0..REPLICAS).map(|_| (st.stack.classifier(0), majority())).collect();
    let config = ClusterConfig { serve: ServeConfig::default(), ..ClusterConfig::default() };
    let mut cluster = ClusterSupervisor::new(replicas, majority(), dir, config)
        .map_err(|e| format!("cluster construction failed: {e}"))?;
    let tok = FieldTokenizer::new();
    let n = st.segments.len();
    let mut p = Pass {
        responses: Vec::with_capacity(n),
        read_ns: Vec::with_capacity(n),
        file_ns: Vec::with_capacity(n),
        wall_ns: 0,
        stats: ClusterStats::default(),
        ticks: 0,
        deadline_misses: 0,
        traces: Vec::new(),
    };
    let span = tr.open("pass", Some(id));
    for seg in &st.segments {
        clock.tick();
        let t = clock.now();
        let (trace, read_ns) =
            tr.timed("pcap::read", Some(id), || pcap::read(&mut seg.pcap.as_slice()));
        let trace = trace.map_err(|e| format!("pcap::read failed: {e}"))?;
        let (responses, serve_ns) = tr.timed("ClusterSupervisor::serve_trace", Some(id), || {
            cluster.serve_trace(&trace, &tok, &seg.schedule, &st.faults)
        });
        p.file_ns.push(clock.now() - t);
        p.wall_ns += read_ns + serve_ns;
        p.read_ns.push(read_ns);
        p.responses.push(responses);
        if keep_traces {
            p.traces.push(trace);
        }
    }
    tr.close(span);
    p.stats = cluster.stats();
    p.ticks = cluster.tick();
    p.deadline_misses = (0..REPLICAS).map(|i| cluster.replica_stats(i).deadline_misses).sum();
    Ok(p)
}

#[derive(Default)]
struct Run {
    failures: Vec<String>,
    /// Every timed file's latency, and every timed pass's packet rate.
    file_ms: Vec<f64>,
    pkts_per_s: Vec<f64>,
    /// Wall time of the timed passes' reads and serves.
    wall_ns: u64,
    passes: usize,
    /// The untimed warm-up pass.
    first: Option<Pass>,
    layers: Layers,
    counters: Option<Counters>,
}

/// One untimed warm-up pass, whose answers every timed pass must repeat,
/// then timed passes until `seconds` have been measured.
fn measure(ctx: &Ctx, st: &State, seconds: f64, tr: &mut Tracer, clock: &mut RefClock) -> Run {
    let mut run = Run::default();
    let dir = ctx.out_dir().join(format!("ckpt-{}", std::process::id()));
    let warm = match pass(st, &dir, &mut Tracer::new(false), clock, 0, false) {
        Ok(p) => p,
        Err(e) => {
            run.failures.push(e);
            return run;
        }
    };
    run.failures.extend(check_pass(st, &warm));
    let mut replayer =
        tr.enabled().then(|| Replayer::new(&st.stack.backbone, &st.stack.heads, &[], false));
    let before = Counters::now();
    let start = clock.now();
    let mut replay_ns = 0;
    while run.passes < MIN_PASSES || (clock.now() - start - replay_ns) as f64 / 1e9 < seconds {
        let id = run.passes as u64 + 1;
        let p = match pass(st, &dir, tr, clock, id, replayer.is_some()) {
            Ok(p) => p,
            Err(e) => {
                run.failures.push(e);
                break;
            }
        };
        run.passes += 1;
        run.wall_ns += p.wall_ns;
        run.file_ms.extend(p.file_ns.iter().map(|&ns| ns as f64 / 1e6));
        run.pkts_per_s.push(st.packets as f64 / (p.ns() as f64 / 1e9));
        if p.responses != warm.responses || p.stats != warm.stats {
            run.failures.push(format!("pass {id} answered differently from the warm-up pass"));
        }
        if let Some(replayer) = replayer.as_mut() {
            let t = clock.now();
            let span = tr.open("replay", Some(id));
            for (trace, &read_ns) in p.traces.iter().zip(&p.read_ns) {
                replay_file(&mut run.layers, tr, replayer, trace.packets(), read_ns);
            }
            tr.close(span);
            replay_ns += clock.now() - t;
        }
    }
    run.counters = Some(Counters::now().since(&before));
    run.first = Some(warm);
    std::fs::remove_dir_all(&dir).ok();
    run
}

/// Conservation and availability for one pass: every request that arrived
/// is answered exactly once unless a replica shed it.
fn check_pass(st: &State, p: &Pass) -> Vec<String> {
    let mut failures = Vec::new();
    let s = &p.stats;
    if s.arrived != st.requests || s.arrived != s.answered() + s.shed {
        failures.push(format!(
            "{} requests assembled, the cluster counted arrived {} = answered {} + shed {}",
            st.requests,
            s.arrived,
            s.answered(),
            s.shed
        ));
    }
    let answered: usize = p.responses.iter().map(Vec::len).sum();
    let distinct: usize = p
        .responses
        .iter()
        .map(|file| {
            let mut flows: Vec<usize> = file.iter().map(|r| r.flow).collect();
            flows.sort_unstable();
            flows.dedup();
            flows.len()
        })
        .sum();
    if answered != s.answered() || distinct != answered {
        failures.push(format!(
            "{answered} responses for {distinct} distinct flows, the cluster counted {} answered",
            s.answered()
        ));
    }
    if s.model_availability() < MIN_MODEL_AVAILABILITY {
        failures.push(format!(
            "model availability {:.4} < {MIN_MODEL_AVAILABILITY}",
            s.model_availability()
        ));
    }
    failures
}

/// Decompose one file into its layers: decode (timed by the pass itself),
/// parse and flow assembly over the file, then tokenize, encode, embed and
/// classify each flow.
fn replay_file(
    l: &mut Layers,
    tr: &mut Tracer,
    replayer: &mut Replayer,
    packets: &[TracePacket],
    read_ns: u64,
) {
    let max_tokens = ServeConfig::default().max_tokens;
    let tok = FieldTokenizer::new();
    l.pcap_ns += read_ns;
    l.pcap_pkts += packets.len() as u64;
    let table = l.ingest(tr, None, packets);
    for (i, flow) in table.flows().iter().enumerate() {
        let flow_packets: Vec<TracePacket> =
            flow.packets.iter().map(|fp| packets[fp.index].clone()).collect();
        let tokens = l.tokenize(tr, Some(i as u64), &flow_packets, &tok, max_tokens);
        if !tokens.is_empty() {
            replayer.infer(l, tr, Some(i as u64), &tokens, 1);
        }
    }
}

/// Fail unless every model answer equals `FmClassifier::predict` on the
/// same tokens.
fn verify(st: &State, p: &Pass) -> Option<String> {
    let mut classes = Vec::new();
    let mut batch = Vec::new();
    for (seg, responses) in st.segments.iter().zip(&p.responses) {
        for r in responses.iter().filter(|r| r.responder == Responder::Model) {
            classes.push(r.class);
            batch.push(seg.tokens.get(r.flow).cloned().flatten().unwrap_or_default());
        }
    }
    let want = st.stack.predict(0, &batch);
    let wrong = classes.iter().zip(&want).filter(|(c, w)| c != w).count();
    (wrong > 0).then(|| format!("{wrong} model answers differ from FmClassifier::predict"))
}

fn absorb(rep: &mut Report, st: &State, run: &Run, prefix: &str) {
    rep.failures.extend(run.failures.iter().cloned());
    let Some(first) = &run.first else {
        rep.failures.push("no pass completed".into());
        return;
    };
    rep.failures.extend(verify(st, first));
    let (s, passes) = (&first.stats, run.passes as u64);
    rep.phase(
        &format!("{prefix}replay"),
        s.arrived as u64 * passes,
        s.answered_model as u64 * passes,
    );
}

pub fn run(ctx: &Ctx, clock: &mut RefClock) -> Report {
    let mut rep = Report::default();
    let max_tokens = ServeConfig::default().max_tokens;
    let Some(st) = setup(ctx, clock, &mut rep, |clock| build(ctx, max_tokens, clock)) else {
        return rep;
    };
    println!(
        "capture: {} packets in {} files, {} requests",
        st.packets,
        st.segments.len(),
        st.requests
    );
    if !ctx.trace {
        let run = measure(ctx, &st, ctx.seconds, &mut Tracer::new(false), clock);
        absorb(&mut rep, &st, &run, "");
        rep.set("throughput_per_s", median(&run.pkts_per_s));
        let file_ms = sorted(&run.file_ms);
        rep.set("latency_p50_ms", median(&file_ms));
        rep.set("latency_p99_ms", percentile(&file_ms, 99.0));
        if let Some(first) = &run.first {
            rep.set("goodput_frac", first.stats.model_availability());
            rep.set("answered_frac", first.stats.model_availability());
        }
        println!("file latency samples: {} over {} passes", run.file_ms.len(), run.passes);
        return rep;
    }
    let untraced = measure(ctx, &st, ctx.seconds / 2.0, &mut Tracer::new(false), clock);
    let mut tr = Tracer::new(true);
    let traced = measure(ctx, &st, ctx.seconds / 2.0, &mut tr, clock);
    absorb(&mut rep, &st, &untraced, "untraced.");
    absorb(&mut rep, &st, &traced, "traced.");
    if let Some(first) = &untraced.first {
        layer_metrics(&mut rep, &untraced, &traced, first);
    }
    tr.save(ctx, &mut rep);
    rep
}

fn layer_metrics(rep: &mut Report, u: &Run, t: &Run, first: &Pass) {
    let l = &t.layers;
    l.report(rep);
    let c = u.counters.as_ref().expect("measure snapshots counters");
    let s = &first.stats;
    let arrived = s.arrived as f64;
    report_counters(rep, c, arrived * u.passes as f64, u.wall_ns as f64 / 1e9);
    rep.set("encoder.rows_per_call", rows_per_call(c));
    rep.set("heads.rows_per_request", ratio(s.answered_model as f64, arrived));
    rep.set("serve.batch_size_mean", ratio(arrived, first.ticks as f64));
    rep.set("serve.shed_frac", ratio(s.shed as f64, arrived));
    rep.set(
        "serve.fallback_frac",
        ratio((s.answered_fallback + s.answered_supervisor) as f64, arrived),
    );
    rep.set("serve.deadline_miss_frac", ratio(first.deadline_misses as f64, arrived));
    let requests = arrived * t.passes as f64;
    rep.set(
        "serve.residual_ns_per_request",
        ratio(t.wall_ns as f64 - l.total_ns() as f64, requests),
    );
    rep.set("cluster.probes_per_pass", s.probes as f64);
    rep.set("cluster.restarts_per_pass", s.restarts_ok as f64);
    rep.set("cluster.failovers_per_pass", s.failovers as f64);
    rep.set("cluster.hedges_per_pass", s.hedges as f64);
    rep.set("cluster.model_availability", s.model_availability());
    reconcile(rep, l.total_ns() as f64, t.wall_ns as f64);
    rep.set("trace.overhead_frac", ratio(median(&u.pkts_per_s), median(&t.pkts_per_s)) - 1.0);
}
