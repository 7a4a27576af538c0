//! `train`: short training jobs at every core. Each job pre-trains (MLM
//! plus next-flow, one epoch) on one shard of the corpus, then fine-tunes
//! the result on the shard's app-class flows (one epoch). The only workload
//! whose worker pool runs, and the one whose tensor work is backward passes
//! and optimizer writes.
//!
//! A training call cannot stop for the clock's probes, so its time is
//! corrected for the host's speed only by the probes just before and after
//! it. The jobs are therefore kept short: the corpus is cut into shards of
//! `SHARD_FLOWS` flows, a few optimizer steps each, and the run cycles
//! through them. A job's cost per step does not depend on the shard's size.
//! Every shard follows the training corpus's cost mix, so every shard, and
//! every seed's corpus, costs about the same to train on.

use std::time::Instant;

use nfm_core::netglue::Task;
use nfm_core::pipeline::{FineTuneConfig, FmClassifier, FoundationModel, TextExample};
use nfm_core::serve::ServeConfig;
use nfm_model::context::{contexts_from_trace, flow_context, ContextStrategy};
use nfm_model::tokenize::field::FieldTokenizer;
use nfm_net::capture::{Trace, TracePacket};

use crate::clock::{Base, RefClock};
use crate::stack::{corpus_mix, pipeline_config, ByCount};
use crate::stats::{median, percentile, sorted};
use crate::trace::{reconcile, report_counters, Counters, Tracer};
use crate::{ratio, setup, Ctx, Report};

/// Flows per corpus shard: one training job, two optimizer steps of
/// pre-training and two of fine-tuning.
const SHARD_FLOWS: usize = 16;
/// Timed cycles every run completes, however short.
const MIN_CYCLES: usize = 2;

struct Shard {
    trace: Trace,
    examples: Vec<TextExample>,
    /// Encoded tokens per epoch of each job.
    pretrain_tokens: f64,
    finetune_tokens: f64,
}

fn build(ctx: &Ctx, clock: &mut RefClock) -> Result<Vec<Shard>, String> {
    let size = ctx.size();
    let tok = FieldTokenizer::new();
    let max_tokens = ServeConfig::default().max_tokens;
    // `encode_context` keeps up to max_len - 2 tokens plus [CLS] and [SEP].
    let body = size.max_len - 2;
    let encoded = |n: usize| (n.min(body) + 2) as f64;
    let mix = corpus_mix(size, max_tokens);
    clock.tick();
    let mut by_count = ByCount::simulate(ctx.seed, size.corpus_packets, &mix, |mut f| {
        let n = flow_context(&f.packets, &tok, max_tokens).len();
        // A long flow's tail never reaches a model, and how long the
        // seed's flows run would otherwise set the run's memory.
        f.packets.truncate(context_packets(&f.packets, &tok, body.max(max_tokens)));
        (n > 0).then_some((n, f))
    });
    let mut shards = Vec::new();
    for i in 0..size.corpus_shards {
        clock.tick();
        let flows = by_count.follow(&mix, SHARD_FLOWS);
        let examples = Task::AppClassification.examples(&flows, &tok, max_tokens);
        if examples.is_empty() {
            return Err(format!("corpus shard {i} has no app-class examples"));
        }
        let trace = Trace::from_packets(flows.into_iter().flat_map(|f| f.packets).collect());
        let contexts = contexts_from_trace(&trace, &tok, ContextStrategy::Flow, body);
        shards.push(Shard {
            pretrain_tokens: contexts.iter().map(|c| encoded(c.len())).sum(),
            finetune_tokens: examples.iter().map(|e| encoded(e.tokens.len())).sum(),
            trace,
            examples,
        });
    }
    Ok(shards)
}

/// How many leading packets of a flow its context of at most `cap` tokens
/// draws on.
fn context_packets(packets: &[TracePacket], tok: &FieldTokenizer, cap: usize) -> usize {
    let mut tokens = 0;
    packets
        .iter()
        .take_while(|tp| {
            let needed = tokens < cap;
            tokens += flow_context(std::slice::from_ref(*tp), tok, cap).len();
            needed
        })
        .count()
}

struct Cycle {
    shard: usize,
    /// Reference time of the cycle and of each job.
    ref_s: f64,
    pretrain_s: f64,
    finetune_s: f64,
    /// Wall time of the two jobs' spans, and of the whole cycle.
    spans_s: f64,
    wall_s: f64,
    steps: u64,
    pretrain_steps: u64,
    finetune_steps: u64,
    loss: f32,
    logits: Vec<u32>,
}

#[derive(Default)]
struct Run {
    cycles: Vec<Cycle>,
    failures: Vec<String>,
    counters: Option<Counters>,
}

/// Pre-train on shard `k`, then fine-tune on the result.
fn cycle(
    ctx: &Ctx,
    shards: &[Shard],
    k: usize,
    tr: &mut Tracer,
    clock: &mut RefClock,
    id: u64,
) -> Result<Cycle, String> {
    let shard = &shards[k];
    let tok = FieldTokenizer::new();
    let cfg = pipeline_config(ctx.size());
    let ft = FineTuneConfig { epochs: 1, ..FineTuneConfig::default() };
    let n_classes = Task::AppClassification.n_classes();
    let c0 = Counters::now();
    let span = tr.open("cycle", Some(id));
    let (jobs, ref_s) = clock.time(|| {
        let t = Instant::now();
        let (pre, pretrain_ns) = tr.timed("FoundationModel::pretrain_on", Some(id), || {
            FoundationModel::pretrain_on(&[&shard.trace], &tok, &cfg)
        });
        let (fm, stats) = pre.map_err(|e| format!("pretrain_on failed: {e}"))?;
        let (clf, finetune_ns) = tr.timed("FmClassifier::fine_tune", Some(id), || {
            FmClassifier::fine_tune(&fm, &shard.examples, n_classes, &ft)
        });
        let clf = clf.map_err(|e| format!("fine_tune failed: {e}"))?;
        Ok::<_, String>((stats, clf, pretrain_ns, finetune_ns, t.elapsed().as_secs_f64()))
    });
    tr.close(span);
    let (stats, clf, pretrain_ns, finetune_ns, wall_s) = jobs?;
    // Each job's reference time: its wall time at the cycle's slowdown.
    let scale = ref_s / wall_s / 1e9;
    let d = Counters::now().since(&c0);
    let (pretrain_steps, finetune_steps) = (d.get("train.steps"), d.get("finetune.steps"));
    Ok(Cycle {
        shard: k,
        ref_s,
        pretrain_s: pretrain_ns as f64 * scale,
        finetune_s: finetune_ns as f64 * scale,
        spans_s: (pretrain_ns + finetune_ns) as f64 / 1e9,
        wall_s,
        steps: pretrain_steps + finetune_steps,
        pretrain_steps,
        finetune_steps,
        loss: stats.mlm_loss.first().copied().unwrap_or(f32::NAN),
        logits: clf.logits(&shard.examples[0].tokens).iter().map(|v| v.to_bits()).collect(),
    })
}

/// One untimed warm-up cycle on the first shard, then timed cycles through
/// the shards in turn until `seconds` have passed. Every cycle on a shard
/// must repeat the shard's first cycle bitwise.
fn measure(
    ctx: &Ctx,
    shards: &[Shard],
    seconds: f64,
    tr: &mut Tracer,
    clock: &mut RefClock,
) -> Run {
    let mut run = Run::default();
    let mut first: Vec<Option<(u32, Vec<u32>)>> = vec![None; shards.len()];
    let mut check = |run: &mut Run, c: &Cycle| {
        if !c.loss.is_finite() {
            run.failures.push(format!("shard {}: MLM loss {} is not finite", c.shard, c.loss));
        }
        let seen = first[c.shard].get_or_insert_with(|| (c.loss.to_bits(), c.logits.clone()));
        if *seen != (c.loss.to_bits(), c.logits.clone()) {
            run.failures.push(format!(
                "shard {}: MLM loss {} and fine-tuned logits must repeat the shard's first cycle \
                 ({}) bitwise",
                c.shard,
                c.loss,
                f32::from_bits(seen.0)
            ));
        }
    };
    match cycle(ctx, shards, 0, &mut Tracer::new(false), clock, 0) {
        Ok(c) => check(&mut run, &c),
        Err(e) => {
            run.failures.push(e);
            return run;
        }
    }
    let before = Counters::now();
    let start = clock.now();
    while run.cycles.len() < MIN_CYCLES || (clock.now() - start) as f64 / 1e9 < seconds {
        let id = run.cycles.len() as u64 + 1;
        match cycle(ctx, shards, run.cycles.len() % shards.len(), tr, clock, id) {
            Ok(c) => {
                check(&mut run, &c);
                run.cycles.push(c);
            }
            Err(e) => {
                run.failures.push(e);
                break;
            }
        }
    }
    run.counters = Some(Counters::now().since(&before));
    run
}

impl Run {
    /// Training tokens per second of each cycle.
    fn throughput(&self, shards: &[Shard]) -> Vec<f64> {
        self.cycles
            .iter()
            .map(|c| (shards[c.shard].pretrain_tokens + shards[c.shard].finetune_tokens) / c.ref_s)
            .collect()
    }

    /// Report the cycles attempted and completed; returns the share
    /// completed.
    fn absorb(&self, rep: &mut Report, prefix: &str) -> f64 {
        // A cycle that failed is the one after the last recorded.
        let failed = u64::from(!self.failures.is_empty());
        let done = self.cycles.len() as u64;
        rep.phase(&format!("{prefix}cycles"), done + failed, done);
        rep.failures.extend(self.failures.iter().cloned());
        ratio(done as f64, (done + failed) as f64)
    }
}

pub fn run(ctx: &Ctx, clock: &mut RefClock) -> Report {
    let mut rep = Report::default();
    // Set-up runs on one thread, so it is timed on the CPU clock, like the
    // single-thread workloads: a wall clock would count the host's stalls.
    let mut setup_clock = RefClock::new(Base::Cpu);
    let Some(shards) = setup(ctx, &mut setup_clock, &mut rep, |clock| build(ctx, clock)) else {
        return rep;
    };
    let sum = |f: fn(&Shard) -> f64| shards.iter().map(f).sum::<f64>();
    println!(
        "corpus: {} shards of {SHARD_FLOWS} flows, {} pre-training tokens and {} fine-tuning \
         examples per pass",
        shards.len(),
        sum(|s| s.pretrain_tokens),
        sum(|s| s.examples.len() as f64)
    );
    if !ctx.trace {
        let run = measure(ctx, &shards, ctx.seconds, &mut Tracer::new(false), clock);
        let completed = run.absorb(&mut rep, "");
        let step_ms: Vec<f64> = run.cycles.iter().map(|c| c.ref_s * 1e3 / c.steps as f64).collect();
        let step_ms = sorted(&step_ms);
        let c = run.counters.as_ref().expect("measure snapshots counters");
        let epochs = (c.get("train.epochs") + c.get("finetune.epochs")) as f64;
        let rollbacks = (c.get("train.rollbacks") + c.get("finetune.rollbacks")) as f64;
        rep.set("throughput_per_s", median(&run.throughput(&shards)));
        rep.set("latency_p50_ms", median(&step_ms));
        rep.set("latency_p99_ms", percentile(&step_ms, 99.0));
        rep.set("goodput_frac", ratio(epochs, epochs + rollbacks));
        rep.set("answered_frac", completed);
        println!("step latency samples (cycles): {}", step_ms.len());
        return rep;
    }
    let untraced = measure(ctx, &shards, ctx.seconds / 2.0, &mut Tracer::new(false), clock);
    let mut tr = Tracer::new(true);
    let traced = measure(ctx, &shards, ctx.seconds / 2.0, &mut tr, clock);
    untraced.absorb(&mut rep, "untraced.");
    traced.absorb(&mut rep, "traced.");
    let per = |f: &dyn Fn(&Cycle) -> f64| median(&traced.cycles.iter().map(f).collect::<Vec<_>>());
    rep.set("pretrain.step_ms", per(&|c| c.pretrain_s * 1e3 / c.pretrain_steps as f64));
    rep.set("pretrain.tokens_per_s", per(&|c| shards[c.shard].pretrain_tokens / c.pretrain_s));
    rep.set("finetune.step_ms", per(&|c| c.finetune_s * 1e3 / c.finetune_steps as f64));
    rep.set(
        "finetune.examples_per_s",
        per(&|c| shards[c.shard].examples.len() as f64 / c.finetune_s),
    );
    let c = untraced.counters.as_ref().expect("measure snapshots counters");
    let steps: u64 = untraced.cycles.iter().map(|c| c.steps).sum();
    let busy_s: f64 = untraced.cycles.iter().map(|c| c.wall_s).sum();
    report_counters(&mut rep, c, steps as f64, busy_s);
    let spans_s: f64 = traced.cycles.iter().map(|c| c.spans_s).sum();
    let wall_s: f64 = traced.cycles.iter().map(|c| c.wall_s).sum();
    reconcile(&mut rep, spans_s, wall_s);
    rep.set(
        "trace.overhead_frac",
        ratio(median(&untraced.throughput(&shards)), median(&traced.throughput(&shards))) - 1.0,
    );
    tr.save(ctx, &mut rep);
    rep
}
