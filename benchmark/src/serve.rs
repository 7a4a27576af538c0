//! `serve_single` and `serve_multitask_drift`: open-loop Poisson arrivals
//! of simulated flows, then a closed-loop saturation phase.
//!
//! Each arrival is one flow's packets, ingested with `assemble_requests`
//! when it is due, so ingest is inside the latency. One thread generates
//! the load and drives the server: it submits every arrival that is due,
//! drains, and repeats. A request's latency runs from its due time to the
//! end of the drain that answered it, so a slow drain delays every arrival
//! queued behind it.

use std::rc::Rc;

use nfm_core::netglue::Task;
use nfm_core::ood::{DriftConfig, DriftMonitor};
use nfm_core::serve::{
    assemble_requests, Fallback, MultiTaskServer, Responder, Response, ServeConfig, ServeEngine,
    ServeRequest, ServeStats, TaskSet,
};
use nfm_model::tokenize::field::FieldTokenizer;
use nfm_traffic::faults::task_mask_schedule;

use crate::clock::RefClock;
use crate::stack::{flow_pool, PoolFlow, Stack};
use crate::stats::{median, percentile, poisson_schedule, sorted, spread, Rng};
use crate::trace::{
    matmul_calls, reconcile, report_counters, rows_per_call, Counters, Layers, Replayer, Tracer,
};
use crate::{ratio, setup, Ctx, Report};

pub struct Spec {
    pub tasks: &'static [Task],
    /// Open-loop arrival rate.
    pub rate_per_s: f64,
    /// Latency limit a request must meet to count toward goodput.
    pub limit_ms: f64,
}

/// One app-class lane, no drift monitor: 1500 req/s is a third to a half
/// of the engine's capacity on the default model.
pub const SINGLE: Spec =
    Spec { tasks: &[Task::AppClassification], rate_per_s: 1500.0, limit_ms: 10.0 };

/// The four NetGLUE lanes sharing one encoder, every lane's drift monitor
/// armed, each request asking for a seeded subset of the tasks.
pub const MULTITASK: Spec = Spec { tasks: &Task::ALL, rate_per_s: 250.0, limit_ms: 25.0 };

/// The run alternates an open-loop segment with a saturation window this
/// many times, so both are sampled across the whole run rather than in
/// one stretch a slow spell of the host could cover. The first segment
/// is warm-up.
const BLOCKS: usize = 10;
/// Share of each block spent in the open loop; the rest is saturation.
const OPEN_SHARE: f64 = 0.7;
/// Requests submitted per closed-loop step of a saturation window, and the
/// length of the seeded flow and mask order saturation requests cycle
/// through.
const SAT_BURST: usize = 16;
const SAT_ORDER: usize = 4096;
/// Chance a multi-task request asks for every task.
const FULL_FANOUT: f64 = 0.5;
/// Seed of the task-mask mix. Every run serves the same multiset of masks
/// in the order its own seed shuffles them, so a seed changes which request
/// asks for which tasks, not how much fan-out a run has.
const MASK_MIX_SEED: u64 = 0x4D41_534B;

/// The serving front ends behind one interface: K lanes, per-lane
/// responses and statistics.
trait Server {
    fn submit(&mut self, request: ServeRequest);
    fn drain(&mut self) -> Vec<Vec<Response>>;
    fn lane_stats(&self) -> Vec<ServeStats>;
}

impl Server for ServeEngine {
    fn submit(&mut self, request: ServeRequest) {
        ServeEngine::submit(self, request)
    }

    fn drain(&mut self) -> Vec<Vec<Response>> {
        vec![self.drain_queue()]
    }

    fn lane_stats(&self) -> Vec<ServeStats> {
        vec![self.stats()]
    }
}

impl Server for MultiTaskServer {
    fn submit(&mut self, request: ServeRequest) {
        MultiTaskServer::submit(self, request)
    }

    fn drain(&mut self) -> Vec<Vec<Response>> {
        MultiTaskServer::drain(self)
    }

    fn lane_stats(&self) -> Vec<ServeStats> {
        self.task_stats()
    }
}

struct State {
    stack: Stack,
    monitors: Vec<DriftMonitor>,
    pool: Vec<Rc<PoolFlow>>,
}

fn build(ctx: &Ctx, spec: &Spec, max_tokens: usize, clock: &mut RefClock) -> Result<State, String> {
    let size = ctx.size();
    let stack = Stack::build(size, spec.tasks, max_tokens, clock)?;
    let pool =
        flow_pool(ctx.seed, size.serve_packets, size.pool_flows, max_tokens, &stack.token_counts);
    clock.tick();
    if pool.is_empty() {
        return Err("the serve trace has no flow that ingests into a request".into());
    }
    let monitors = if spec.tasks.len() > 1 {
        (0..spec.tasks.len())
            .map(|k| {
                clock.tick();
                DriftMonitor::calibrate(
                    &stack.classifier(k),
                    &stack.reference[k],
                    DriftConfig::default(),
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    Ok(State { stack, monitors, pool })
}

fn server(st: &State, drift: bool) -> Box<dyn Server> {
    let config = ServeConfig::default();
    let fallback = |k: usize| Fallback::Majority(st.stack.priors[k]);
    if st.stack.heads.len() == 1 {
        return Box::new(ServeEngine::new(st.stack.classifier(0), fallback(0), config));
    }
    let tasks = st.stack.heads.iter().enumerate().map(|(k, h)| (h.clone(), fallback(k))).collect();
    let mut server = MultiTaskServer::new(st.stack.backbone.clone(), tasks, config);
    if drift {
        for (k, monitor) in st.monitors.iter().enumerate() {
            server.enable_drift(k, monitor.clone());
        }
    }
    Box::new(server)
}

/// One request to submit: a pool flow, the lanes it asks for, and when it
/// was due (ns since the run started).
struct Item {
    flow: usize,
    mask: u64,
    due_ns: u64,
}

/// How a request came out of its drain.
struct Settled {
    submit_ns: u64,
    done_ns: u64,
    /// Lanes that answered it, and of those the lanes the model answered.
    answered: u64,
    model: u64,
}

#[derive(Default)]
struct Run {
    phases: Vec<(&'static str, u64, u64)>,
    failures: Vec<String>,
    /// Open-loop measured window.
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    offered: u64,
    /// Offered requests the model answered on every lane asked, and of
    /// those the ones answered within the latency limit.
    model_answered: u64,
    within_limit: u64,
    window_s: f64,
    /// Saturation windows, requests answered by the model per second.
    windows: Vec<f64>,
    /// Every model answer: (pool flow, lane, class).
    answers: Vec<(u32, u8, u8)>,
    lane_offered: Vec<u64>,
    lane_answered: Vec<u64>,
    lane_shed: Vec<u64>,
    lane_stats: Vec<ServeStats>,
    /// Every phase.
    requests: u64,
    drains: u64,
    submits: u64,
    ingest_ns: u64,
    submit_ns: u64,
    drain_ns: u64,
    queue_wait_ms: Vec<f64>,
    layers: Layers,
    /// Matmul calls the drift monitors added to the drains, and the calls
    /// of one encoder forward.
    drift_calls: f64,
    forward_calls: u64,
    counters: Option<Counters>,
}

impl Run {
    /// Time spent ingesting, submitting and draining.
    fn busy_ns(&self) -> u64 {
        self.ingest_ns + self.submit_ns + self.drain_ns
    }
}

struct Driver<'a> {
    st: &'a State,
    server: Box<dyn Server>,
    /// In the traced run of a server with drift monitors, the same server
    /// without them.
    twin: Option<Box<dyn Server>>,
    tr: &'a mut Tracer,
    replayer: Option<Replayer>,
    tok: FieldTokenizer,
    max_tokens: usize,
    /// Every time the driver takes, arrivals' due times included, is
    /// reference time.
    clock: &'a mut RefClock,
    /// Time the arrival schedule is paused for: saturation windows, and in
    /// the traced run the layer replay, which stays out of the load.
    /// Every later due time moves back by it.
    shift_ns: u64,
    next_id: u64,
    run: Run,
}

impl Driver<'_> {
    fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Spin until the clock reads `t_ns`. The clock counts CPU time, which
    /// a sleep would not advance.
    fn wait_until(&self, t_ns: u64) {
        while self.now() < t_ns {
            std::hint::spin_loop();
        }
    }

    /// Ingest and submit `items`, drain, and settle every answer.
    fn step(&mut self, items: &[Item]) -> Vec<Settled> {
        let base = self.next_id;
        self.next_id += items.len() as u64;
        let mut submit_at = Vec::with_capacity(items.len());
        let mut twin_requests = Vec::new();
        for (j, it) in items.iter().enumerate() {
            let id = base + j as u64;
            submit_at.push(self.now());
            let (trace, tok, max_tokens) =
                (&self.st.pool[it.flow].trace, &self.tok, self.max_tokens);
            let ((mut requests, _), ns) = self
                .tr
                .timed("assemble_requests", Some(id), || assemble_requests(trace, tok, max_tokens));
            self.run.ingest_ns += ns;
            let Some(mut request) = requests.pop().filter(|_| requests.is_empty()) else {
                self.run.failures.push(format!("flow {} did not ingest into one request", it.flow));
                continue;
            };
            request.flow = id as usize;
            request.tasks = TaskSet::from_mask(it.mask);
            if self.twin.is_some() {
                twin_requests.push(request.clone());
            }
            let server = &mut self.server;
            let ((), ns) = self.tr.timed("submit", Some(id), || server.submit(request));
            self.run.submit_ns += ns;
            self.run.submits += 1;
        }
        let calls = if self.twin.is_some() { matmul_calls() } else { 0 };
        let drain_start = self.now();
        let server = &mut self.server;
        let (drained, ns) = self.tr.timed("drain", None, || server.drain());
        self.run.drain_ns += ns;
        self.run.drains += 1;
        let done_ns = self.now();
        if self.twin.is_some() {
            let calls = matmul_calls() - calls;
            self.drain_twin(twin_requests, &drained, calls);
        }
        let mut settled: Vec<Settled> = submit_at
            .iter()
            .map(|&submit_ns| Settled { submit_ns, done_ns, answered: 0, model: 0 })
            .collect();
        for (k, lane) in drained.iter().enumerate() {
            let bit = 1u64 << k;
            for r in lane {
                let pos = (r.flow as u64).wrapping_sub(base) as usize;
                if pos >= items.len()
                    || items[pos].mask & bit == 0
                    || settled[pos].answered & bit != 0
                {
                    self.run
                        .failures
                        .push(format!("lane {k} answered request {} it did not owe", r.flow));
                    continue;
                }
                settled[pos].answered |= bit;
                self.run.lane_answered[k] += 1;
                if r.responder == Responder::Model {
                    settled[pos].model |= bit;
                    self.run.answers.push((items[pos].flow as u32, k as u8, r.class as u8));
                }
            }
        }
        for (it, s) in items.iter().zip(&settled) {
            for k in 0..self.run.lane_offered.len() {
                if it.mask & (1 << k) != 0 {
                    self.run.lane_offered[k] += 1;
                    // Every admitted request is answered by the drain that
                    // follows its submit, so an unanswered lane shed it.
                    self.run.lane_shed[k] += u64::from(s.answered & (1 << k) == 0);
                }
            }
            self.run.requests += 1;
            self.run.queue_wait_ms.push(drain_start.saturating_sub(s.submit_ns) as f64 / 1e6);
        }
        if self.replayer.is_some() {
            self.replay(base, items, &settled);
        }
        settled
    }

    /// Serve the drain's requests again on the twin, a server without drift
    /// monitors: matmul calls the real drain made beyond the twin's are the
    /// monitors' own encoder work. The twin must answer identically.
    fn drain_twin(
        &mut self,
        requests: Vec<ServeRequest>,
        drained: &[Vec<Response>],
        drain_calls: u64,
    ) {
        let t = self.now();
        let Some(twin) = self.twin.as_mut() else { return };
        for r in requests {
            twin.submit(r);
        }
        let calls = matmul_calls();
        let twin_drained = twin.drain();
        self.run.drift_calls += drain_calls as f64 - (matmul_calls() - calls) as f64;
        if twin_drained != drained {
            self.run
                .failures
                .push("answers with drift monitors armed differ from answers without".into());
        }
        self.shift_ns += self.now() - t;
    }

    /// Time each layer call of every model-answered request in the drain.
    fn replay(&mut self, base: u64, items: &[Item], settled: &[Settled]) {
        let t = self.now();
        let Some(replayer) = self.replayer.as_mut() else { return };
        let span = self.tr.open("replay", None);
        for (j, (it, s)) in items.iter().zip(settled).enumerate() {
            if s.model == 0 {
                continue;
            }
            let id = Some(base + j as u64);
            let packets = self.st.pool[it.flow].trace.packets();
            let layers = &mut self.run.layers;
            layers.ingest(self.tr, id, packets);
            let tokens = layers.tokenize(self.tr, id, packets, &self.tok, self.max_tokens);
            replayer.infer(layers, self.tr, id, &tokens, s.model);
            self.run.forward_calls = replayer.forward_calls(&tokens);
        }
        self.tr.close(span);
        self.shift_ns += self.now() - t;
    }

    /// `BLOCKS` times: serve one segment of the open-loop schedule, then a
    /// saturation window with the schedule paused. Requests due in the
    /// first segment are warm-up.
    fn blocks(&mut self, load: &Load, segment_ns: u64, window_ns: u64, limit_ms: f64) {
        let start = self.now();
        // (sent, model-answered) for warm-up, open loop and saturation.
        let mut counts = [(0u64, 0u64); 3];
        let (due, mut i, mut j) = (&load.due_ns, 0, 0);
        let mut items = Vec::new();
        for block in 0..BLOCKS as u64 {
            let end_ns = (block + 1) * segment_ns;
            while i < due.len() && due[i] < end_ns {
                self.clock.tick();
                self.wait_until(start + due[i] + self.shift_ns);
                let now = self.now();
                items.clear();
                while i < due.len() && due[i] < end_ns && start + due[i] + self.shift_ns <= now {
                    let (flow, mask) = load.arrivals[i];
                    items.push(Item { flow, mask, due_ns: start + due[i] + self.shift_ns });
                    i += 1;
                }
                let settled = self.step(&items);
                for (it, s) in items.iter().zip(&settled) {
                    let model_ok = s.model == it.mask;
                    let phase = &mut counts[usize::from(block > 0)];
                    phase.0 += 1;
                    phase.1 += u64::from(model_ok);
                    if block == 0 {
                        continue;
                    }
                    let latency_ms = (s.done_ns - it.due_ns) as f64 / 1e6;
                    if s.answered == it.mask {
                        self.run.latency_ms.push(latency_ms);
                    }
                    self.run.model_answered += u64::from(model_ok);
                    self.run.within_limit += u64::from(model_ok && latency_ms <= limit_ms);
                    self.run.late_ms.push(s.submit_ns.saturating_sub(it.due_ns) as f64 / 1e6);
                }
            }
            let (w0, shift0) = (self.now(), self.shift_ns);
            let elapsed = |d: &Self| d.now() - w0 - (d.shift_ns - shift0);
            let mut window_ok = 0u64;
            while elapsed(self) < window_ns {
                self.clock.tick();
                let due_ns = self.now();
                let items: Vec<Item> = (0..SAT_BURST)
                    .map(|_| {
                        j += 1;
                        let (flow, mask) = load.sat[j % load.sat.len()];
                        Item { flow, mask, due_ns }
                    })
                    .collect();
                for (it, s) in items.iter().zip(self.step(&items)) {
                    counts[2].0 += 1;
                    window_ok += u64::from(s.model == it.mask);
                }
            }
            counts[2].1 += window_ok;
            self.run.windows.push(window_ok as f64 / (elapsed(self) as f64 / 1e9));
            self.shift_ns = shift0 + (self.now() - w0);
        }
        self.run.offered = counts[1].0;
        for (name, (sent, ok)) in ["warmup", "open_loop", "saturation"].into_iter().zip(counts) {
            self.run.phases.push((name, sent, ok));
        }
    }
}

/// A run's seeded inputs: open-loop due times with each arrival's flow
/// and task mask, and the flows and masks saturation requests cycle
/// through.
struct Load {
    due_ns: Vec<u64>,
    arrivals: Vec<(usize, u64)>,
    sat: Vec<(usize, u64)>,
}

/// `n` requests over `lanes` lanes: the fixed mix of task masks in seeded
/// order, the requests of each mask carrying flows spread over the pool
/// (see [`spread`]). A request costs about its flow's tokens times its
/// lanes, so every seed's requests cost the same.
fn requests(rng: &mut Rng, n: usize, lanes: usize, pool: usize) -> Vec<(usize, u64)> {
    let masks = if lanes == 1 {
        vec![1; n]
    } else {
        let mut masks = task_mask_schedule(n, lanes, FULL_FANOUT, MASK_MIX_SEED);
        rng.shuffle(&mut masks);
        masks
    };
    spread(rng, &masks, pool).into_iter().zip(masks).collect()
}

fn measure(
    ctx: &Ctx,
    spec: &Spec,
    st: &State,
    seconds: f64,
    tr: &mut Tracer,
    clock: &mut RefClock,
) -> Run {
    let n_lanes = spec.tasks.len();
    let block_ns = seconds * 1e9 / BLOCKS as f64;
    let segment_ns = (OPEN_SHARE * block_ns) as u64;
    let due_ns = poisson_schedule(ctx.seed, spec.rate_per_s, segment_ns * BLOCKS as u64);
    let mut rng = Rng::new(ctx.seed ^ 0x5A7);
    let sat = requests(&mut rng, SAT_ORDER, n_lanes, st.pool.len());
    let arrivals = requests(&mut rng, due_ns.len(), n_lanes, st.pool.len());
    let load = Load { due_ns, arrivals, sat };
    let packed = n_lanes > 1;
    let replayer = tr
        .enabled()
        .then(|| Replayer::new(&st.stack.backbone, &st.stack.heads, &st.monitors, packed));
    let twin = (tr.enabled() && !st.monitors.is_empty()).then(|| server(st, false));
    let mut d = Driver {
        st,
        server: server(st, true),
        twin,
        tr,
        replayer,
        tok: FieldTokenizer::new(),
        max_tokens: ServeConfig::default().max_tokens,
        clock,
        shift_ns: 0,
        next_id: 0,
        run: Run {
            lane_offered: vec![0; n_lanes],
            lane_answered: vec![0; n_lanes],
            lane_shed: vec![0; n_lanes],
            ..Run::default()
        },
    };
    let before = Counters::now();
    d.blocks(&load, segment_ns, ((1.0 - OPEN_SHARE) * block_ns) as u64, spec.limit_ms);
    d.run.window_s = (BLOCKS - 1) as f64 * segment_ns as f64 / 1e9;
    d.run.counters = Some(Counters::now().since(&before));
    let mut run = d.run;
    run.lane_stats = d.server.lane_stats();
    for (k, s) in run.lane_stats.iter().enumerate() {
        let conserved = s.arrived == s.shed + s.answered() && s.admitted == s.answered();
        let seen = s.arrived as u64 == run.lane_offered[k]
            && s.shed as u64 == run.lane_shed[k]
            && s.answered() as u64 == run.lane_answered[k];
        if !(conserved && seen) {
            run.failures.push(format!(
                "lane {k}: the engine counted arrived {} = shed {} + answered {} (admitted {}); \
                 the benchmark offered {}, saw {} shed and {} answered",
                s.arrived,
                s.shed,
                s.answered(),
                s.admitted,
                run.lane_offered[k],
                run.lane_shed[k],
                run.lane_answered[k]
            ));
        }
    }
    run
}

/// Fail unless every model answer equals `FmClassifier::predict` for its
/// lane on the same tokens, computed after timing.
fn verify(st: &State, run: &Run) -> Option<String> {
    let mut used = vec![0u64; st.pool.len()];
    for &(flow, k, _) in &run.answers {
        used[flow as usize] |= 1 << k;
    }
    let mut want = vec![vec![usize::MAX; st.pool.len()]; st.stack.heads.len()];
    for (k, lane) in want.iter_mut().enumerate() {
        let flows: Vec<usize> = (0..st.pool.len()).filter(|&f| used[f] & (1 << k) != 0).collect();
        let batch: Vec<Vec<String>> = flows.iter().map(|&f| st.pool[f].tokens.clone()).collect();
        for (f, class) in flows.iter().zip(st.stack.predict(k, &batch)) {
            lane[*f] = class;
        }
    }
    let wrong: Vec<_> = run
        .answers
        .iter()
        .filter(|&&(f, k, c)| want[k as usize][f as usize] != c as usize)
        .collect();
    let (f, k, c) = wrong.first()?;
    Some(format!(
        "{} model answers differ from FmClassifier::predict (first: lane {k}, flow {f}, served {c}, \
         predict {})",
        wrong.len(),
        want[*k as usize][*f as usize]
    ))
}

fn absorb(rep: &mut Report, st: &State, run: &Run, prefix: &str) {
    for (name, sent, ok) in &run.phases {
        rep.phase(&format!("{prefix}{name}"), *sent, *ok);
    }
    rep.failures.extend(run.failures.iter().cloned());
    rep.failures.extend(verify(st, run));
}

pub fn run(ctx: &Ctx, clock: &mut RefClock, spec: &Spec) -> Report {
    let mut rep = Report::default();
    let max_tokens = ServeConfig::default().max_tokens;
    let Some(st) = setup(ctx, clock, &mut rep, |clock| build(ctx, spec, max_tokens, clock)) else {
        return rep;
    };
    let tokens: usize = st.pool.iter().map(|f| f.tokens.len()).sum();
    println!(
        "pool: {} flows, {:.2} tokens per flow",
        st.pool.len(),
        tokens as f64 / st.pool.len() as f64
    );
    if !ctx.trace {
        let run = measure(ctx, spec, &st, ctx.seconds, &mut Tracer::new(false), clock);
        absorb(&mut rep, &st, &run, "");
        rep.set("throughput_per_s", median(&run.windows));
        let latency_ms = sorted(&run.latency_ms);
        rep.set("latency_p50_ms", median(&latency_ms));
        rep.set("latency_p99_ms", percentile(&latency_ms, 99.0));
        rep.set("goodput_frac", ratio(run.within_limit as f64, run.offered as f64));
        rep.set("answered_frac", ratio(run.model_answered as f64, run.offered as f64));
        println!("open-loop latency samples: {}", run.latency_ms.len());
        let windows: Vec<String> = run.windows.iter().map(|w| format!("{w:.0}")).collect();
        println!("saturation windows (req/s): {}", windows.join(" "));
        return rep;
    }
    let untraced = measure(ctx, spec, &st, ctx.seconds / 2.0, &mut Tracer::new(false), clock);
    let mut tr = Tracer::new(true);
    let traced = measure(ctx, spec, &st, ctx.seconds / 2.0, &mut tr, clock);
    absorb(&mut rep, &st, &untraced, "untraced.");
    absorb(&mut rep, &st, &traced, "traced.");
    layer_metrics(&mut rep, &untraced, &traced);
    tr.save(ctx, &mut rep);
    rep
}

/// Per-layer metrics: times from the traced run's replay, counts from the
/// untraced run's counters, so the replay's own work is never counted.
fn layer_metrics(rep: &mut Report, u: &Run, t: &Run) {
    let l = &t.layers;
    l.report(rep);
    let c = u.counters.as_ref().expect("measure snapshots counters");
    report_counters(rep, c, u.requests as f64, u.busy_ns() as f64 / 1e9);
    let requests = u.requests as f64;
    let model_lane_answers = u.answers.len() as f64;
    rep.set(
        "drift.encoder_forwards_per_answer",
        ratio(ratio(t.drift_calls, t.forward_calls as f64), t.answers.len() as f64),
    );
    rep.set("encoder.rows_per_call", rows_per_call(c));
    rep.set("heads.rows_per_request", ratio(model_lane_answers, requests));
    rep.set(
        "fanout.encoder_rows_per_head_row",
        ratio(c.get("serve.task.encoder_rows") as f64, c.get("serve.task.head_rows") as f64),
    );
    rep.set(
        "fanout.lane_offers_per_request",
        ratio(c.get("serve.task.lane_offers") as f64, c.get("serve.task.submitted") as f64),
    );
    rep.set("serve.submit_ns", ratio(t.submit_ns as f64, t.submits as f64));
    rep.set("serve.drain_ns_per_request", ratio(t.drain_ns as f64, t.requests as f64));
    let waits = sorted(&t.queue_wait_ms);
    rep.set("serve.queue_wait_ms_p50", percentile(&waits, 50.0));
    rep.set("serve.queue_wait_ms_p99", percentile(&waits, 99.0));
    rep.set("serve.batch_size_mean", ratio(requests, u.drains as f64));
    let sum = |f: fn(&ServeStats) -> usize| u.lane_stats.iter().map(f).sum::<usize>() as f64;
    let arrived = sum(|s| s.arrived);
    rep.set("serve.shed_frac", ratio(sum(|s| s.shed), arrived));
    rep.set("serve.fallback_frac", ratio(sum(|s| s.answered_fallback), arrived));
    rep.set("serve.deadline_miss_frac", ratio(sum(|s| s.deadline_misses), arrived));
    let measured = t.busy_ns() as f64;
    rep.set(
        "serve.residual_ns_per_request",
        ratio(measured - l.total_ns() as f64, t.requests as f64),
    );
    rep.set("loadgen.late_ms_p99", percentile(&sorted(&t.late_ms), 99.0));
    rep.set("loadgen.offered_rps", ratio(t.offered as f64, t.window_s));
    reconcile(rep, l.total_ns() as f64, measured);
    rep.set("trace.overhead_frac", ratio(median(&u.windows), median(&t.windows)) - 1.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_masks_are_a_function_of_the_seed() {
        let a = requests(&mut Rng::new(3), 500, 4, 64);
        assert_eq!(a, requests(&mut Rng::new(3), 500, 4, 64));
        let b = requests(&mut Rng::new(4), 500, 4, 64);
        assert_ne!(a, b);
        let masks = |v: &[(usize, u64)]| {
            let mut m: Vec<u64> = v.iter().map(|r| r.1).collect();
            m.sort_unstable();
            m
        };
        assert_eq!(masks(&a), masks(&b));
        assert!(a.iter().all(|&(f, m)| f < 64 && m != 0 && m < 16));
        assert!(requests(&mut Rng::new(3), 5, 1, 64).iter().all(|r| r.1 == 1));
    }
}
