//! E18 — drift-aware self-healing serving (paper §4.3, operational
//! robustness; the adaptation counterpart of E16's failover matrix).
//!
//! Claim: a deployed network foundation model faces traffic that moves
//! under it — application mixes shift, ground truth relabels itself — and
//! §4.3's "operational deployment" story is incomplete without a loop that
//! *notices* the shift, quarantines the suspicious traffic, fine-tunes a
//! candidate in the background, and rolls it out canary-first without ever
//! dropping model availability. This binary drives that loop through a
//! seeded drift matrix and asserts recovery, not just survival.
//!
//! | scenario    | drift injected in phase B          | expected reaction    |
//! |-------------|------------------------------------|----------------------|
//! | no-drift    | none (fresh i.i.d. base-mix trace) | zero adaptations     |
//! | mix-shift   | app mix reversed (covariate drift) | adapt + rollout      |
//! | label-flip  | ground-truth labels remapped       | adapt + rollout      |
//! | compound    | mix shift + a replica crash        | adapt + warm restart |
//!
//! Every scenario runs the same three phases: (A) warm-up on base-mix
//! traffic with correct feedback, (B) two passes of the scenario's drifted
//! traffic with delayed ground-truth feedback (the trip, quarantine, and
//! rollout happen here), then (C) one pass of held-out drifted traffic that
//! measures post-adaptation accuracy. The whole matrix must reproduce
//! bitwise across sweeps.

use std::collections::HashMap;
use std::path::PathBuf;

use nfm_bench::{banner, render_table, Scale};
use nfm_core::baselines::MajorityBaseline;
use nfm_core::cluster::{AdaptConfig, ClusterConfig, ClusterStats, ClusterSupervisor};
use nfm_core::ood::{DriftConfig, DriftMonitor};
use nfm_core::pipeline::{
    examples_from_flows, FineTuneConfig, FmClassifier, FoundationModel, PipelineConfig, TextExample,
};
use nfm_core::report::Table;
use nfm_core::serve::{assemble_requests, Fallback, Response, ServeConfig};
use nfm_model::pretrain::{PretrainConfig, TaskMix};
use nfm_model::tokenize::field::FieldTokenizer;
use nfm_net::capture::Trace;
use nfm_traffic::dataset::extract_flows;
use nfm_traffic::faults::{DriftFaultConfig, ReplicaFault, ReplicaFaultKind};
use nfm_traffic::label::AppClass;
use nfm_traffic::netsim::{simulate, AppMix, LabeledTrace, SimConfig};

const N_CLASSES: usize = AppClass::ALL.len();
const MAX_TOKENS: usize = 48;

/// The drift fault shared by the covariate scenarios: a near-total reversal
/// of the application mix, so classes that were rare at calibration time
/// dominate the drifted traffic.
fn drift_fault() -> DriftFaultConfig {
    DriftFaultConfig { mix_shift: 1.0, label_flip_chance: 1.0, seed: 7 }
}

fn base_sim(seed: u64, n_sessions: usize) -> SimConfig {
    SimConfig { seed, n_sessions, n_general_hosts: 4, n_iot_sets: 1, ..SimConfig::default() }
}

fn drift_sim(seed: u64, n_sessions: usize) -> SimConfig {
    let base = base_sim(seed, n_sessions);
    let mix = drift_fault().shifted_mix(&AppMix::default());
    SimConfig { mix, ..base }
}

/// Token-sequence → app-class oracle covering every trace a scenario may
/// serve. First insert wins, so the mapping is deterministic regardless of
/// how many traces mention the same flow shape.
fn build_oracle(traces: &[&LabeledTrace]) -> HashMap<Vec<String>, usize> {
    let tok = FieldTokenizer::new();
    let mut oracle = HashMap::new();
    for lt in traces {
        let flows = extract_flows(lt, 1);
        for e in examples_from_flows(&flows, &tok, MAX_TOKENS, |f| Some(f.label.app.id())) {
            oracle.entry(e.tokens).or_insert(e.label);
        }
    }
    oracle
}

fn train_model(scale: &Scale, lt: &LabeledTrace) -> (FmClassifier, Vec<TextExample>) {
    let tok = FieldTokenizer::new();
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
    let flows = extract_flows(lt, 1);
    let train = examples_from_flows(&flows, &tok, MAX_TOKENS, |f| Some(f.label.app.id()));
    let clf = FmClassifier::fine_tune(
        &fm,
        &train,
        N_CLASSES,
        &FineTuneConfig { epochs: 2, ..FineTuneConfig::default() },
    )
    .expect("fine-tuning failed");
    (clf, train)
}

fn majority() -> Fallback {
    Fallback::Majority(MajorityBaseline { class: 0, n_classes: N_CLASSES })
}

struct Scenario {
    name: &'static str,
    /// Covariate drift: phases B/C serve mix-shifted traffic.
    mix_shift: bool,
    /// Label drift: ground truth is remapped through the fault's label map.
    label_flip: bool,
    /// Compound fault: crash replica 0 mid-way through the first drifted pass.
    crash: bool,
}

#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    name: &'static str,
    stats: ClusterStats,
    drift_trips: usize,
    pre: (usize, usize),
    post: (usize, usize),
    final_responses: Vec<Response>,
    /// Responses returned over every `serve_trace` pass of the scenario.
    responses: usize,
}

impl Outcome {
    fn pre_acc(&self) -> f64 {
        self.pre.0 as f64 / (self.pre.1.max(1)) as f64
    }
    fn post_acc(&self) -> f64 {
        self.post.0 as f64 / (self.post.1.max(1)) as f64
    }
}

fn checkpoint_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nfm_e18_{}_{name}", std::process::id()))
}

/// Score one serve pass against the ground-truth function: (correct, matched).
fn grade(
    responses: &[Response],
    trace: &Trace,
    truth: &dyn Fn(&[String]) -> Option<usize>,
) -> (usize, usize) {
    let (requests, _) = assemble_requests(trace, &FieldTokenizer::new(), MAX_TOKENS);
    let mut correct = 0;
    let mut matched = 0;
    for r in responses {
        let Some(req) = requests.get(r.flow) else { continue };
        let Some(label) = truth(&req.tokens) else { continue };
        matched += 1;
        if r.class == label {
            correct += 1;
        }
    }
    (correct, matched)
}

struct Fixture {
    clf: FmClassifier,
    train: Vec<TextExample>,
    /// Calibration reference: training flows plus held-out in-distribution
    /// traffic, so the detector's baseline distance reflects what healthy
    /// serving actually looks like (not just memorised training flows).
    reference: Vec<TextExample>,
    warmup: LabeledTrace,
    base_b: LabeledTrace,
    base_c: LabeledTrace,
    drift_b: LabeledTrace,
    drift_c: LabeledTrace,
    oracle: HashMap<Vec<String>, usize>,
    flip_map: Vec<usize>,
}

fn run_scenario(fx: &Fixture, scenario: &Scenario) -> Outcome {
    let tok = FieldTokenizer::new();
    let monitor = DriftMonitor::calibrate(
        &fx.clf,
        &fx.reference,
        DriftConfig {
            warmup: 96,
            delta_milli: 300,
            err_warmup: 16,
            err_lambda_milli: 4_000,
            ..DriftConfig::default()
        },
    );
    let config = ClusterConfig {
        serve: ServeConfig { quarantine_capacity: 512, ..ServeConfig::default() },
        restart_backoff_base: 4,
        ..ClusterConfig::default()
    };
    let replicas = (0..3).map(|_| (fx.clf.clone(), majority())).collect();
    let dir = checkpoint_dir(scenario.name);
    let mut cluster =
        ClusterSupervisor::new(replicas, majority(), &dir, config).expect("cluster construction");
    cluster.enable_adaptation(
        monitor,
        AdaptConfig {
            min_quarantine: 16,
            replay: fx.train.clone(),
            fine_tune: FineTuneConfig { epochs: 2, ..FineTuneConfig::default() },
        },
    );

    let oracle = &fx.oracle;
    let truth_base = |t: &[String]| oracle.get(t).copied();
    let flip = &fx.flip_map;
    let truth_drift =
        move |t: &[String]| oracle.get(t).map(|&c| if scenario.label_flip { flip[c] } else { c });

    // Phase A: two warm-up passes of base-mix traffic with correct labels,
    // seeding both Page–Hinkley means at their in-distribution levels.
    let mut responses = 0;
    for _ in 0..2 {
        responses += cluster.serve_trace(&fx.warmup.trace, &tok, &[], &[]).len();
        cluster.apply_feedback(&truth_base);
    }
    assert_eq!(
        cluster.stats().adaptations_started,
        0,
        "{}: warm-up traffic is in-distribution and must not adapt",
        scenario.name
    );

    // Phase B: two passes of the scenario's drifted traffic. The first pass
    // measures pre-adaptation accuracy and (through feedback) trips the
    // detector; the second gives the supervisor ticks to fine-tune,
    // shadow-evaluate, and canary the candidate through.
    let trace_b = if scenario.mix_shift { &fx.drift_b.trace } else { &fx.base_b.trace };
    let faults = if scenario.crash {
        // `at_burst` matches the supervisor's cumulative tick counter, so
        // the crash is scheduled relative to where warm-up left it.
        vec![ReplicaFault {
            replica: 0,
            at_burst: cluster.tick() + 8,
            kind: ReplicaFaultKind::Crash,
        }]
    } else {
        Vec::new()
    };
    let responses_b = cluster.serve_trace(trace_b, &tok, &[], &faults);
    let pre = grade(&responses_b, trace_b, &truth_drift);
    responses += responses_b.len();
    cluster.apply_feedback(&truth_drift);
    responses += cluster.serve_trace(trace_b, &tok, &[], &[]).len();
    cluster.apply_feedback(&truth_drift);

    // Phase C: a held-out drifted trace measures post-adaptation accuracy.
    let trace_c = if scenario.mix_shift { &fx.drift_c.trace } else { &fx.base_c.trace };
    let final_responses = cluster.serve_trace(trace_c, &tok, &[], &[]);
    let post = grade(&final_responses, trace_c, &truth_drift);
    responses += final_responses.len();

    let drift_trips = (0..3).map(|r| cluster.replica_stats(r).drift_trips).sum::<usize>();
    let stats = cluster.stats();
    std::fs::remove_dir_all(&dir).ok();
    Outcome { name: scenario.name, stats, drift_trips, pre, post, final_responses, responses }
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario { name: "no-drift", mix_shift: false, label_flip: false, crash: false },
        Scenario { name: "mix-shift", mix_shift: true, label_flip: false, crash: false },
        Scenario { name: "label-flip", mix_shift: false, label_flip: true, crash: false },
        Scenario { name: "compound", mix_shift: true, label_flip: false, crash: true },
    ]
}

fn drift_table(outcomes: &[Outcome]) -> Table {
    let mut table = Table::new(&[
        "scenario",
        "trips",
        "quarantined",
        "adapts",
        "rejected",
        "rollouts",
        "completed",
        "rollbacks",
        "restarts",
        "pre_acc",
        "post_acc",
        "model_avail",
    ]);
    for o in outcomes {
        let s = &o.stats;
        table.row(&[
            o.name.into(),
            o.drift_trips.to_string(),
            s.quarantine_drained.to_string(),
            s.adaptations_started.to_string(),
            s.candidates_rejected.to_string(),
            s.rollouts_started.to_string(),
            s.rollouts_completed.to_string(),
            s.rollbacks.to_string(),
            s.restarts_ok.to_string(),
            format!("{:.3}", o.pre_acc()),
            format!("{:.3}", o.post_acc()),
            format!("{:.3}", s.model_availability()),
        ]);
    }
    table
}

fn main() {
    banner(
        "E18",
        "§4.3 (drift-aware self-healing)",
        "online drift detection trips on covariate and label drift but never on \
         i.i.d. traffic, quarantined flows fine-tune a candidate in the \
         background, and a canary-gated rollout restores accuracy without \
         dropping model availability — bitwise reproducibly",
    );
    let scale = Scale::from_env();
    let n = scale.labeled_sessions.min(60);

    let lt_train = simulate(&base_sim(11, n));
    let fx = {
        let (clf, train) = train_model(&scale, &lt_train);
        let warmup = simulate(&base_sim(12, n));
        let base_b = simulate(&base_sim(13, n));
        let base_c = simulate(&base_sim(14, n));
        let drift_b = simulate(&drift_sim(13, n));
        let drift_c = simulate(&drift_sim(14, n));
        let oracle = build_oracle(&[&lt_train, &warmup, &base_b, &base_c, &drift_b, &drift_c]);
        let flip_map = drift_fault().label_map(N_CLASSES);
        let tok = FieldTokenizer::new();
        let warmup_flows = extract_flows(&warmup, 1);
        let mut reference = train.clone();
        reference.extend(examples_from_flows(&warmup_flows, &tok, MAX_TOKENS, |f| {
            Some(f.label.app.id())
        }));
        Fixture {
            clf,
            train,
            reference,
            warmup,
            base_b,
            base_c,
            drift_b,
            drift_c,
            oracle,
            flip_map,
        }
    };
    println!(
        "model: {} training flows, {} oracle entries, {} classes\n",
        fx.train.len(),
        fx.oracle.len(),
        N_CLASSES
    );

    let run_sweep =
        || -> Vec<Outcome> { scenarios().iter().map(|sc| run_scenario(&fx, sc)).collect() };
    let outcomes = run_sweep();
    render_table("e18.drift", &drift_table(&outcomes));
    let get = |name: &str| -> &Outcome {
        outcomes.iter().find(|o| o.name == name).expect("scenario present")
    };

    // --- The acceptance criteria, asserted, not eyeballed ---------------
    for o in &outcomes {
        assert!(
            o.stats.model_availability() >= 0.99,
            "{}: model availability {:.4} dipped below 0.99 during adaptation",
            o.name,
            o.stats.model_availability()
        );
        assert_eq!(o.stats.rollbacks, 0, "{}: no canary should roll back here", o.name);
        assert!(o.post.1 > 0, "{}: phase C must grade against the oracle", o.name);
        let s = &o.stats;
        assert_eq!(
            s.answered(),
            s.arrived - s.shed,
            "{}: every unshed arrival must be answered",
            o.name
        );
        assert_eq!(o.responses, s.answered(), "{}: one response per answered request", o.name);
    }

    let control = get("no-drift");
    assert_eq!(
        control.stats.adaptations_started, 0,
        "control: i.i.d. traffic must never schedule an adaptation"
    );
    assert_eq!(control.stats.rollouts_started, 0, "control: zero rollouts");
    assert_eq!(control.drift_trips, 0, "control: detectors must stay quiet");

    for name in ["mix-shift", "label-flip", "compound"] {
        let o = get(name);
        assert!(o.drift_trips >= 1, "{name}: drift must trip a detector");
        assert!(o.stats.adaptations_started >= 1, "{name}: a background adaptation must start");
        assert!(o.stats.rollouts_completed >= 1, "{name}: the canary rollout must complete");
        assert!(
            o.post_acc() > o.pre_acc(),
            "{name}: post-adaptation accuracy {:.3} must beat pre-adaptation {:.3}",
            o.post_acc(),
            o.pre_acc()
        );
        assert!(
            o.post_acc() >= 0.50,
            "{name}: post-adaptation accuracy {:.3} below the recovery floor",
            o.post_acc()
        );
    }

    let compound = get("compound");
    assert_eq!(compound.stats.crashes_injected, 1, "compound: the crash must land");
    assert!(compound.stats.restarts_ok >= 1, "compound: the crashed replica must warm-restart");

    // --- Bitwise reproducibility ----------------------------------------
    let rerun = run_sweep();
    let identical = outcomes == rerun;
    assert!(identical, "fixed seeds must reproduce the drift matrix bitwise");
    println!("\nrerun with identical seeds: drift matrix bitwise identical = {identical}");
    println!("zero panics across {} scenarios x 2 sweeps", outcomes.len());

    println!("\npaper shape: §4.3 frames deployment as an ongoing obligation, not a");
    println!("handoff — traffic drifts, labels arrive late, and replicas fail while");
    println!("the model is mid-update. The self-healing loop closes that gap:");
    println!("detect (Page–Hinkley on OOD distance + confidence + feedback errors),");
    println!("quarantine, fine-tune in the background, and promote canary-first so");
    println!("the fleet never serves fewer answers while it learns.");
    nfm_bench::finish();
}
