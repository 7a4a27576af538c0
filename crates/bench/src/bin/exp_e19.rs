//! E19 — shared-encoder multi-task serving with embedding fan-out (paper
//! §3's amortization argument at serving time).
//!
//! Claim: the economic case for a network foundation model (§3) is that one
//! pre-trained encoder amortizes across the NetGLUE task suite (§4.2). That
//! argument is usually made about *training* — E12 already shows head-only
//! fine-tuning — but it applies equally at *serving* time: a deployment
//! answering K tasks about the same flow should run the shared encoder
//! once, cache the pooled embedding, and fan it out to K lightweight heads,
//! instead of running K full forwards. The risk is semantic: shedding,
//! deadlines, breakers, and retries are all per-task state machines, and
//! sharing compute must not change a single answer.
//!
//! This binary builds one [`FmBackbone`] plus a [`TaskHead`] per NetGLUE
//! task, serves a bursty request stream with random per-request task
//! subsets through a [`MultiTaskServer`], and asserts the fan-out path is
//! **bitwise identical** — flow-for-flow, cost-for-cost, stat-for-stat —
//! to K independent single-task [`ServeEngine`]s fed the same per-task
//! streams, under both a generous and a deadline-starved budget. It then
//! checks the amortization actually happened: the shared path must run
//! strictly fewer encoder forwards than the fan-out it served. The whole
//! matrix must reproduce bitwise across two sweeps.

use nfm_bench::{banner, render_table, Scale};
use nfm_core::baselines::MajorityBaseline;
use nfm_core::netglue::Task;
use nfm_core::pipeline::{
    FineTuneConfig, FmBackbone, FoundationModel, PipelineConfig, Pooling, TaskHead,
};
use nfm_core::report::Table;
use nfm_core::serve::{
    assemble_requests, burst_groups, Fallback, MultiTaskServer, MultiTaskStats, Response,
    ServeConfig, ServeEngine, ServeRequest, ServeStats, TaskSet,
};
use nfm_model::pretrain::{PretrainConfig, TaskMix};
use nfm_model::tokenize::field::FieldTokenizer;
use nfm_traffic::dataset::extract_flows;
use nfm_traffic::faults::{burst_schedule, task_mask_schedule, FaultConfig};
use nfm_traffic::netsim::{simulate, SimConfig};

const MAX_TOKENS: usize = 48;
const N_TASKS: usize = Task::ALL.len();

fn sim(seed: u64, n_sessions: usize) -> SimConfig {
    SimConfig { seed, n_sessions, n_general_hosts: 4, n_iot_sets: 1, ..SimConfig::default() }
}

/// Pre-train the shared backbone and fine-tune one head per NetGLUE task
/// against it (encoder frozen — the heads share the backbone bitwise).
fn build_stack(scale: &Scale) -> (FmBackbone, Vec<TaskHead>, Vec<MajorityBaseline>) {
    let tok = FieldTokenizer::new();
    let lt = simulate(&sim(11, scale.labeled_sessions.min(60)));
    let cfg = PipelineConfig {
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        max_len: MAX_TOKENS,
        pretrain: PretrainConfig {
            epochs: scale.pretrain_epochs.min(2),
            tasks: TaskMix::mlm_only(),
            ..PretrainConfig::default()
        },
        ..PipelineConfig::default()
    };
    let (fm, _) =
        FoundationModel::pretrain_on(&[&lt.trace], &tok, &cfg).expect("pretraining failed");
    let backbone = FmBackbone::from_model(&fm, Pooling::Mean);
    let flows = extract_flows(&lt, 1);
    let ft = FineTuneConfig { epochs: 2, pooling: Pooling::Mean, ..FineTuneConfig::default() };
    let mut heads = Vec::new();
    let mut priors = Vec::new();
    for task in Task::ALL {
        let examples = task.examples(&flows, &tok, MAX_TOKENS);
        assert!(!examples.is_empty(), "{}: no training examples", task.name());
        heads.push(
            TaskHead::fine_tune(&backbone, task.name(), &examples, task.n_classes(), &ft)
                .expect("head fine-tuning failed"),
        );
        priors.push(MajorityBaseline::fit(&examples, task.n_classes()));
    }
    (backbone, heads, priors)
}

/// One budget scenario of the serve matrix.
struct Scenario {
    name: &'static str,
    deadline_budget: u64,
}

/// Everything a sweep produces, compared bitwise across reruns.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    scenario: &'static str,
    responses: Vec<Vec<Response>>,
    task_stats: Vec<ServeStats>,
    fanout: MultiTaskStats,
}

/// Mirror of [`MultiTaskServer::serve_requests`]'s burst loop for one
/// standalone engine: lane `k` sees exactly the requests whose task set
/// contains `k`, submitted and drained on the same burst boundaries.
fn run_standalone(
    engine: &mut ServeEngine,
    k: usize,
    requests: &[ServeRequest],
    schedule: &[usize],
) -> Vec<Response> {
    let mut out = Vec::new();
    for group in burst_groups(requests.iter().cloned(), schedule) {
        for r in group.into_iter().filter(|r| r.tasks.contains(k)) {
            engine.submit(r);
        }
        out.append(&mut engine.drain_queue());
    }
    out
}

fn run_scenario(
    backbone: &FmBackbone,
    heads: &[TaskHead],
    priors: &[MajorityBaseline],
    requests: &[ServeRequest],
    schedule: &[usize],
    scenario: &Scenario,
) -> Outcome {
    let config = ServeConfig {
        queue_capacity: 12,
        shed_watermark: 8,
        deadline_budget: scenario.deadline_budget,
        max_tokens: MAX_TOKENS,
        seed: 29,
        ..ServeConfig::default()
    };
    let tasks: Vec<(TaskHead, Fallback)> =
        heads.iter().zip(priors).map(|(h, &p)| (h.clone(), Fallback::Majority(p))).collect();
    let mut server = MultiTaskServer::new(backbone.clone(), tasks, config);
    let responses = server.serve_requests(requests.to_vec(), schedule);

    // The identity: every lane answers bitwise like a standalone engine.
    for (k, head) in heads.iter().enumerate() {
        let mut solo =
            ServeEngine::new(backbone.attach(head), Fallback::Majority(priors[k]), config);
        let want = run_standalone(&mut solo, k, requests, schedule);
        assert_eq!(
            responses[k], want,
            "{} / {}: fan-out responses diverge from a standalone engine",
            scenario.name, head.name
        );
        assert_eq!(
            server.task_stats()[k],
            solo.stats(),
            "{} / {}: fan-out stats diverge from a standalone engine",
            scenario.name,
            head.name
        );
    }
    Outcome {
        scenario: scenario.name,
        task_stats: server.task_stats(),
        fanout: server.stats(),
        responses,
    }
}

fn serve_table(outcomes: &[Outcome], heads: &[TaskHead]) -> Table {
    let mut table = Table::new(&[
        "scenario",
        "task",
        "classes",
        "arrived",
        "shed",
        "model",
        "fallback",
        "deadline_miss",
        "identical",
    ]);
    for o in outcomes {
        for (k, s) in o.task_stats.iter().enumerate() {
            table.row(&[
                o.scenario.into(),
                heads[k].name.clone(),
                heads[k].n_classes.to_string(),
                s.arrived.to_string(),
                s.shed.to_string(),
                s.answered_model.to_string(),
                s.answered_fallback.to_string(),
                s.deadline_misses.to_string(),
                "yes".into(),
            ]);
        }
    }
    table
}

fn fanout_table(outcomes: &[Outcome]) -> Table {
    let mut table = Table::new(&[
        "scenario",
        "submitted",
        "lane_offers",
        "encoder_rows",
        "head_rows",
        "amortization",
    ]);
    for o in outcomes {
        let f = &o.fanout;
        let ratio = f.head_rows as f64 / (f.encoder_rows.max(1)) as f64;
        table.row(&[
            o.scenario.into(),
            f.submitted.to_string(),
            f.lane_offers.to_string(),
            f.encoder_rows.to_string(),
            f.head_rows.to_string(),
            format!("{ratio:.2}x"),
        ]);
    }
    table
}

fn main() {
    banner(
        "E19",
        "§3 (shared-encoder amortization at serving time)",
        "a multi-task server runs the shared encoder once per admitted flow and \
         fans the pooled embedding out to per-task heads, answering every task \
         bitwise identically to independent single-task engines — under bursts, \
         shedding, tight deadlines, and random task subsets — while doing \
         strictly less encoder work",
    );
    let scale = Scale::from_env();
    let (backbone, heads, priors) = build_stack(&scale);
    println!(
        "backbone: d_model={}, {} tasks: {}\n",
        backbone.d_model(),
        heads.len(),
        heads.iter().map(|h| h.name.as_str()).collect::<Vec<_>>().join(", ")
    );

    // Held-out serve traffic with random per-request task subsets and a
    // bursty arrival schedule, both seeded.
    let tok = FieldTokenizer::new();
    let serve_lt = simulate(&sim(23, scale.labeled_sessions.min(60)));
    let (mut requests, ingest) = assemble_requests(&serve_lt.trace, &tok, MAX_TOKENS);
    let masks = task_mask_schedule(requests.len(), N_TASKS, 0.6, 101);
    for (r, &m) in requests.iter_mut().zip(&masks) {
        r.tasks = TaskSet::from_mask(m);
    }
    let schedule = burst_schedule(
        requests.len(),
        &FaultConfig { burst_chance: 0.5, max_burst: 12, seed: 9, ..FaultConfig::default() },
    );
    println!(
        "serve stream: {} flows assembled, {} requests, {} bursts\n",
        ingest.flows_assembled,
        requests.len(),
        schedule.len()
    );

    let scenarios = [
        Scenario { name: "generous", deadline_budget: u64::MAX },
        // Tight: flows longer than ~24 tokens refuse at the encoder plan,
        // so refusal and deadline-miss paths must also match bitwise.
        Scenario { name: "tight", deadline_budget: backbone.encoder_cost(24) + 256 },
    ];
    let run_sweep = || -> Vec<Outcome> {
        scenarios
            .iter()
            .map(|sc| run_scenario(&backbone, &heads, &priors, &requests, &schedule, sc))
            .collect()
    };
    let outcomes = run_sweep();
    render_table("e19.serve", &serve_table(&outcomes, &heads));
    render_table("e19.fanout", &fanout_table(&outcomes));

    // --- The acceptance criteria, asserted, not eyeballed ---------------
    for o in &outcomes {
        let f = &o.fanout;
        assert_eq!(f.submitted, requests.len(), "{}: every request submitted", o.scenario);
        assert!(
            f.lane_offers > f.submitted,
            "{}: random subsets plus 60% full fan-out must multi-task some requests",
            o.scenario
        );
        assert!(f.encoder_rows > 0, "{}: the shared encoder ran", o.scenario);
        assert!(
            f.encoder_rows < f.head_rows,
            "{}: amortization means strictly fewer encoder forwards ({}) than head \
             forwards ({})",
            o.scenario,
            f.encoder_rows,
            f.head_rows
        );
        let answered: usize = o.task_stats.iter().map(|s| s.answered()).sum();
        let admitted: usize = o.task_stats.iter().map(|s| s.admitted).sum();
        assert_eq!(answered, admitted, "{}: every admitted request answered", o.scenario);
    }
    let generous = &outcomes[0];
    assert!(
        generous.task_stats.iter().all(|s| s.deadline_misses == 0),
        "generous: nothing misses an unlimited deadline"
    );
    let tight = &outcomes[1];
    assert!(
        tight.task_stats.iter().map(|s| s.deadline_misses).sum::<usize>() > 0,
        "tight: the starved budget must produce deadline misses"
    );

    // --- Bitwise reproducibility ----------------------------------------
    let rerun = run_sweep();
    let identical = outcomes == rerun;
    assert!(identical, "fixed seeds must reproduce the serve matrix bitwise");
    println!("\nrerun with identical seeds: serve matrix bitwise identical = {identical}");
    println!("zero panics across {} scenarios x {} tasks x 2 sweeps", outcomes.len(), heads.len());

    println!("\npaper shape: §3 argues one foundation model amortizes across tasks;");
    println!("§4.2's NetGLUE makes the task suite concrete. Fan-out serving closes");
    println!("the loop operationally: the encoder — orders of magnitude heavier than");
    println!("any head — runs once per flow, and each task keeps its own admission,");
    println!("deadline, breaker, and drift state, so sharing compute never changes");
    println!("an answer, a shed decision, or a statistic.");
    nfm_bench::finish();
}
