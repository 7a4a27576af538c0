//! What every workload sets up before timing starts: the simulated
//! traffic, the pre-trained backbone and the fine-tuned task heads.

use std::collections::BTreeMap;
use std::rc::Rc;

use nfm_core::baselines::MajorityBaseline;
use nfm_core::netglue::Task;
use nfm_core::pipeline::{
    FineTuneConfig, FmBackbone, FmClassifier, FoundationModel, PipelineConfig, Pooling, TaskHead,
    TextExample,
};
use nfm_core::serve::assemble_requests;
use nfm_model::context::flow_context;
use nfm_model::pretrain::{PretrainConfig, TaskMix};
use nfm_model::tokenize::field::FieldTokenizer;
use nfm_net::capture::{Trace, TracePacket};
use nfm_traffic::dataset::{extract_flows, LabeledFlow};
use nfm_traffic::netsim::{simulate, LabeledTrace, SimConfig};

use crate::clock::RefClock;

/// Seed of the corpus every model is trained on. Fixed, so a workload's
/// `--seed` changes the traffic it serves, never the model serving it.
pub const TRAIN_SEED: u64 = 0x5EED_0001;

/// Most examples per task a drift monitor is calibrated on.
const MAX_REFERENCE: usize = 256;

/// Model and corpus sizes. Every seeded input has a fixed number of
/// packets, so a run's cost and memory do not depend on its seed.
pub struct Size {
    pub d_model: usize,
    pub n_heads: usize,
    pub n_layers: usize,
    pub d_ff: usize,
    pub max_len: usize,
    /// Sessions in the corpus the serving model is pre-trained and
    /// fine-tuned on.
    pub train_sessions: usize,
    /// Packets simulated for the open-loop flow pool, and the pool's size.
    pub serve_packets: usize,
    pub pool_flows: usize,
    /// Packets in the corrupted capture `capture_replay` reads.
    pub capture_packets: usize,
    /// Packets simulated for the corpus the `train` workload trains on,
    /// and the corpus's shards (one training job each).
    pub corpus_packets: usize,
    pub corpus_shards: usize,
}

/// The default pipeline model (32-d, 2 layers), as deployed.
pub const FULL: Size = Size {
    d_model: 32,
    n_heads: 4,
    n_layers: 2,
    d_ff: 64,
    max_len: 96,
    train_sessions: 120,
    serve_packets: 3_000,
    pool_flows: 1024,
    capture_packets: 36_000,
    corpus_packets: 6_000,
    corpus_shards: 32,
};

/// A tiny model and corpora for the `--quick` smoke run.
pub const QUICK: Size = Size {
    d_model: 16,
    n_heads: 2,
    n_layers: 1,
    d_ff: 32,
    max_len: 48,
    train_sessions: 40,
    serve_packets: 1_500,
    pool_flows: 64,
    capture_packets: 1_500,
    corpus_packets: 1_500,
    corpus_shards: 4,
};

pub fn sim_config(seed: u64, n_sessions: usize) -> SimConfig {
    SimConfig {
        seed,
        n_sessions,
        n_general_hosts: 4,
        n_iot_sets: 1,
        anomaly_fraction: 0.1,
        ..SimConfig::default()
    }
}

/// A trace simulated from `seed` and cut to its first `packets` packets.
pub fn simulate_packets(seed: u64, packets: usize) -> LabeledTrace {
    // A session averages about 33 packets; simulate more until there are
    // enough.
    let mut sessions = packets / 28 + 1;
    loop {
        let mut lt = simulate(&sim_config(seed, sessions));
        if lt.trace.len() >= packets {
            lt.trace = Trace::from_packets(lt.trace.packets()[..packets].to_vec());
            return lt;
        }
        sessions += sessions / 2;
    }
}

/// Candidate traces `simulate_capture` may simulate per trace it keeps.
const CANDIDATES_PER_TRACE: u64 = 4;

/// Traces simulated from `TRAIN_SEED` whose cost per packet every seed's
/// capture is steered to.
const REFERENCE_TRACES: u64 = 8;

/// A capture of `packets` packets whose cost is within 2% of the cost per
/// packet of `REFERENCE_TRACES` traces of the training seed: traces of
/// `TRACE_PACKETS` simulated from seeds derived from `seed`, laid one after
/// another a minute apart, each cut into parts by `cut`, which gets the
/// trace and its seed and returns the parts with their cost. A trace is
/// kept only while the capture's cost stays near the target. How much work
/// a stretch of traffic holds varies by about 8% between seeds, so this
/// gives every seed the same amount of work.
pub fn simulate_capture<P>(
    seed: u64,
    packets: usize,
    mut cut: impl FnMut(&Trace, u64) -> (Vec<P>, usize),
) -> Vec<P> {
    let trace_seed = |seed: u64, i: u64| seed ^ (i << 48);
    let (mut ref_cost, mut ref_packets) = (0, 0);
    for i in 0..REFERENCE_TRACES {
        let lt = simulate_packets(trace_seed(TRAIN_SEED, i), TRACE_PACKETS);
        ref_cost += cut(&lt.trace, trace_seed(TRAIN_SEED, i)).1;
        ref_packets += lt.trace.len();
    }
    let cost_per_packet = ref_cost as f64 / ref_packets as f64;
    let tolerance = 0.02 * cost_per_packet * packets as f64;
    let traces = packets.div_ceil(TRACE_PACKETS) as u64;
    let mut parts = Vec::new();
    let (mut taken, mut last_ts) = (0, None);
    // Cost the capture holds beyond its target so far.
    let mut excess = 0.0f64;
    for i in 0.. {
        if taken >= packets {
            break;
        }
        let this_seed = trace_seed(seed, i);
        let lt = simulate_packets(this_seed, TRACE_PACKETS.min(packets - taken));
        let start = last_ts.map_or(0, |t| t + 60_000_000);
        let t0 = lt.trace.packets().first().map_or(0, |p| p.ts_us);
        let trace = Trace::from_packets(
            lt.trace
                .packets()
                .iter()
                .map(|p| TracePacket { ts_us: start + (p.ts_us - t0), frame: p.frame.clone() })
                .collect(),
        );
        let (made, cost) = cut(&trace, this_seed);
        let d = cost as f64 - cost_per_packet * trace.len() as f64;
        let steers_off = (excess + d).abs() > excess.abs().max(tolerance);
        if steers_off && i < CANDIDATES_PER_TRACE * traces {
            continue;
        }
        excess += d;
        taken += trace.len();
        last_ts = trace.packets().last().map(|p| p.ts_us);
        parts.extend(made);
    }
    parts
}

/// Pre-training with MLM plus next-flow prediction, one epoch.
pub fn pipeline_config(size: &Size) -> PipelineConfig {
    PipelineConfig {
        d_model: size.d_model,
        n_heads: size.n_heads,
        n_layers: size.n_layers,
        d_ff: size.d_ff,
        max_len: size.max_len,
        pretrain: PretrainConfig {
            epochs: 1,
            tasks: TaskMix { mlm: true, next_flow: true, query_answer: false },
            ..PretrainConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// A pre-trained backbone with one head per task, the fallback prior for
/// each task, and each task's reference examples.
pub struct Stack {
    pub backbone: FmBackbone,
    pub heads: Vec<TaskHead>,
    pub priors: Vec<MajorityBaseline>,
    pub reference: Vec<Vec<TextExample>>,
    /// The token count of every flow of the training corpus, ascending:
    /// the cost mix every serving pool follows.
    pub token_counts: Vec<usize>,
}

impl Stack {
    /// Pre-train on the fixed corpus, then fine-tune one head per task
    /// against the frozen backbone, letting `clock` probe between steps.
    pub fn build(
        size: &Size,
        tasks: &[Task],
        max_tokens: usize,
        clock: &mut RefClock,
    ) -> Result<Stack, String> {
        let tok = FieldTokenizer::new();
        let lt = corpus(size);
        let (pretrained, _) =
            clock.time(|| FoundationModel::pretrain_on(&[&lt.trace], &tok, &pipeline_config(size)));
        let (fm, _) = pretrained.map_err(|e| format!("pre-training failed: {e}"))?;
        let backbone = FmBackbone::from_model(&fm, Pooling::Mean);
        let flows = extract_flows(&lt, 1);
        let token_counts = token_mix(&flows, max_tokens);
        let ft = FineTuneConfig { epochs: 1, pooling: Pooling::Mean, ..FineTuneConfig::default() };
        let mut stack = Stack {
            backbone,
            heads: Vec::new(),
            priors: Vec::new(),
            reference: Vec::new(),
            token_counts,
        };
        for task in tasks {
            let mut examples = task.examples(&flows, &tok, max_tokens);
            let head =
                TaskHead::fine_tune(&stack.backbone, task.name(), &examples, task.n_classes(), &ft)
                    .map_err(|e| format!("{}: head fine-tuning failed: {e}", task.name()))?;
            stack.heads.push(head);
            stack.priors.push(MajorityBaseline::fit(&examples, task.n_classes()));
            examples.truncate(MAX_REFERENCE);
            stack.reference.push(examples);
            clock.tick();
        }
        Ok(stack)
    }

    /// Lane `k`'s single-task classifier: the backbone with head `k`.
    pub fn classifier(&self, k: usize) -> FmClassifier {
        self.backbone.attach(&self.heads[k])
    }

    /// `FmClassifier::predict` of lane `k` on each token list, computed on
    /// every core (this runs after timing), then back to one worker.
    pub fn predict(&self, k: usize, batch: &[Vec<String>]) -> Vec<usize> {
        nfm_tensor::pool::set_threads(crate::nproc());
        let classes = self.classifier(k).predict_batch(batch);
        nfm_tensor::pool::set_threads(1);
        classes
    }
}

/// One flow of the serving pool: its packets as a capture of their own,
/// and the token context ingest builds from them.
pub struct PoolFlow {
    pub trace: Trace,
    pub tokens: Vec<String>,
}

/// The fixed corpus every model is trained on.
pub fn corpus(size: &Size) -> LabeledTrace {
    simulate(&sim_config(TRAIN_SEED, size.train_sessions))
}

/// The cost mix of the fixed corpus every model is trained on.
pub fn corpus_mix(size: &Size, max_tokens: usize) -> Vec<usize> {
    token_mix(&extract_flows(&corpus(size), 1), max_tokens)
}

/// The token count of each flow's context, ascending: a corpus's cost mix.
pub fn token_mix(flows: &[LabeledFlow], max_tokens: usize) -> Vec<usize> {
    let tok = FieldTokenizer::new();
    let mut counts: Vec<usize> =
        flows.iter().map(|f| flow_context(&f.packets, &tok, max_tokens).len()).collect();
    counts.sort_unstable();
    counts
}

/// Extra traces a seeded input set may simulate to find flows of every
/// token count of the mix.
const MAX_EXTRA_TRACES: u64 = 8;
/// Packets per simulated trace of a seeded input set. The simulator holds a
/// whole trace at once, and how much memory that takes depends on the
/// seed's sessions; small traces keep it well below the workload's own.
const TRACE_PACKETS: usize = 1_500;

/// Inputs grouped by their token count, each group with a count of the
/// inputs it has given out.
pub struct ByCount<T>(BTreeMap<usize, (Vec<T>, usize)>);

impl<T: Clone> ByCount<T> {
    /// The flows of `packets` packets simulated from `seed`, in traces of
    /// `TRACE_PACKETS` from seeds derived from it, each flow made an input
    /// by `make`, which keys it by its token count or drops it. A
    /// simulation can miss a kind of traffic, and a missing count would
    /// change the cost mix, so while some count of `mix` has no input, up
    /// to `MAX_EXTRA_TRACES` more traces are simulated and only their flows
    /// of missing counts kept.
    pub fn simulate(
        seed: u64,
        packets: usize,
        mix: &[usize],
        mut make: impl FnMut(LabeledFlow) -> Option<(usize, T)>,
    ) -> ByCount<T> {
        let traces = packets.div_ceil(TRACE_PACKETS) as u64;
        let mut inputs = ByCount(BTreeMap::new());
        for i in 0..traces + MAX_EXTRA_TRACES {
            let missing: Vec<usize> =
                mix.iter().copied().filter(|c| !inputs.0.contains_key(c)).collect();
            if i >= traces && missing.is_empty() {
                break;
            }
            let lt = simulate_packets(seed ^ (i << 48), TRACE_PACKETS.min(packets));
            for flow in extract_flows(&lt, 1) {
                match make(flow) {
                    Some((count, input)) if i < traces || missing.contains(&count) => {
                        inputs.add(count, input)
                    }
                    _ => {}
                }
            }
        }
        inputs
    }

    fn add(&mut self, count: usize, input: T) {
        self.0.entry(count).or_default().0.push(input);
    }
    /// `size` inputs that follow the cost mix `token_counts`: the i-th has
    /// the token count nearest the mix's at the i-th of `size` evenly
    /// spaced ranks. Inputs with the same count take turns. A request or a
    /// training context costs about its token count, so inputs picked this
    /// way cost the same for every seed. Empty when either side is.
    pub fn follow(&mut self, token_counts: &[usize], size: usize) -> Vec<T> {
        if self.0.is_empty() || token_counts.is_empty() {
            return Vec::new();
        }
        let last = token_counts.len() - 1;
        (0..size)
            .map(|i| {
                let want = token_counts[i * last / (size - 1).max(1)];
                let below = self.0.range(..=want).next_back().map(|(&c, _)| c);
                let above = self.0.range(want..).next().map(|(&c, _)| c);
                let count = match (below, above) {
                    (Some(b), Some(a)) if a - want < want - b => a,
                    (Some(b), _) => b,
                    (None, a) => a.expect("there is a group"),
                };
                let (items, turn) = self.0.get_mut(&count).expect("count is a key");
                *turn += 1;
                items[(*turn - 1) % items.len()].clone()
            })
            .collect()
    }
}

/// `size` flows simulated from `seed` (see [`ByCount::simulate`]), each
/// ingesting into exactly one request, following the cost mix
/// `token_counts` (see [`ByCount::follow`]). A flow that fills several
/// places is held once.
pub fn flow_pool(
    seed: u64,
    packets: usize,
    size: usize,
    max_tokens: usize,
    token_counts: &[usize],
) -> Vec<Rc<PoolFlow>> {
    let tok = FieldTokenizer::new();
    let mut flows = ByCount::simulate(seed, packets, token_counts, |f| {
        let trace = Trace::from_packets(f.packets);
        let (mut requests, _) = assemble_requests(&trace, &tok, max_tokens);
        let request = requests.pop().filter(|_| requests.is_empty())?;
        Some((request.tokens.len(), Rc::new(PoolFlow { trace, tokens: request.tokens })))
    });
    flows.follow(token_counts, size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_count_follows_the_mix_and_takes_turns() {
        let mut inputs = ByCount(BTreeMap::new());
        for (count, input) in [(7, 'a'), (7, 'b'), (16, 'c'), (64, 'd')] {
            inputs.add(count, input);
        }
        // Ranks 0, 1 and 2 of the mix want 8, 16 and 60: nearest 7, 16, 64.
        assert_eq!(inputs.follow(&[8, 16, 60], 3), vec!['a', 'c', 'd']);
        // Inputs of one count take turns.
        assert_eq!(inputs.follow(&[8, 8, 8], 3), vec!['b', 'a', 'b']);
        assert!(ByCount::<char>(BTreeMap::new()).follow(&[8], 2).is_empty());
    }
}
