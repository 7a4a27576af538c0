//! E16 — supervised multi-replica serving under replica-level chaos (paper
//! §4.3, operational robustness; cluster-level counterpart of E15).
//!
//! Claim: serving heavy traffic from millions of users means surviving the
//! loss of whole replicas, not just of individual requests. A
//! [`ClusterSupervisor`] over N serve engines — with health probes,
//! failover, hedged dispatch, and supervised warm restarts from checksummed
//! checkpoints — must keep model-path availability ≥ 0.99 through a
//! single-replica failure, where a single-replica deployment measurably
//! cannot, and the whole chaos matrix must reproduce bitwise.
//!
//! The replica-failure matrix drives one scenario per failure mode:
//!
//! | scenario      | replicas | injected fault                              |
//! |---------------|----------|---------------------------------------------|
//! | clean         | 3        | none (control)                              |
//! | crash-1       | 3        | one replica crashes mid-run                 |
//! | stall-1       | 3        | one replica slows 32× (hedged dispatch)     |
//! | corrupt-wts   | 3        | one replica's weights NaN-poisoned          |
//! | corrupt-ckpt  | 3        | crash + bit-flipped restart checkpoint      |
//! | crash-2       | 3        | two replicas crash at once                  |
//! | single-base   | 1        | the crash-1 fault against a lone replica    |

use std::path::PathBuf;

use nfm_bench::{banner, render_table, train_serving_model, Scale};
use nfm_core::baselines::MajorityBaseline;
use nfm_core::cluster::{ClusterConfig, ClusterStats, ClusterSupervisor, CANARY};
use nfm_core::pipeline::FmClassifier;
use nfm_core::report::Table;
use nfm_core::serve::{assemble_requests, Fallback, ServeConfig};
use nfm_model::tokenize::field::FieldTokenizer;
use nfm_net::capture::Trace;
use nfm_traffic::faults::{ReplicaFault, ReplicaFaultKind};

/// One chaos scenario: a name, the cluster size, the replica faults (burst
/// indices filled in once the tick count is known), and whether replica 0's
/// restart checkpoint is bit-flipped before traffic starts.
struct Scenario {
    name: &'static str,
    n_replicas: usize,
    faults: Vec<ReplicaFault>,
    corrupt_checkpoint: bool,
}

/// Accumulated outcome of one scenario.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    name: &'static str,
    stats: ClusterStats,
    responses: usize,
    end_healthy: usize,
}

fn majority() -> Fallback {
    Fallback::Majority(MajorityBaseline { class: 0, n_classes: 2 })
}

/// Cluster knobs shared by every scenario: a deadline budget two requests
/// deep (so a 32× stall misses it), a probe budget that passes on a healthy
/// replica and fails under the stall factor, and a short restart backoff so
/// recoveries land inside the run.
fn cluster_config(clf: &FmClassifier) -> ClusterConfig {
    let request_cost = clf.inference_cost(64);
    let probe_cost = clf.inference_cost(CANARY.len());
    ClusterConfig {
        serve: ServeConfig { deadline_budget: request_cost * 2, ..ServeConfig::default() },
        probe_budget: probe_cost * 2,
        // Four ticks of downtime before the first restart: long enough that
        // round-robin provably points at a downed replica (forcing failover)
        // and that a lone replica visibly loses model availability.
        restart_backoff_base: 4,
        ..ClusterConfig::default()
    }
}

fn checkpoint_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nfm_e16_{}_{name}", std::process::id()))
}

/// Run one scenario to completion. One request arrives per tick, so the
/// fault/probe/restart timeline is a pure function of the flow count.
fn run_scenario(clf: &FmClassifier, trace: &Trace, scenario: &Scenario) -> Outcome {
    let tokenizer = FieldTokenizer::new();
    let config = cluster_config(clf);
    let replicas = (0..scenario.n_replicas).map(|_| (clf.clone(), majority())).collect();
    let dir = checkpoint_dir(scenario.name);
    let mut cluster =
        ClusterSupervisor::new(replicas, majority(), &dir, config).expect("cluster construction");
    if scenario.corrupt_checkpoint {
        // Flip one payload bit in replica 0's restart artifact: the load
        // path must reject it by CRC, not crash on it.
        let path = cluster.checkpoint_path(0).to_path_buf();
        let mut bytes = std::fs::read(&path).expect("read checkpoint");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write checkpoint");
    }
    let responses = cluster.serve_trace(trace, &tokenizer, &[], &scenario.faults);
    let outcome = Outcome {
        name: scenario.name,
        stats: cluster.stats(),
        responses: responses.len(),
        end_healthy: cluster.healthy_count(),
    };
    std::fs::remove_dir_all(&dir).ok();
    outcome
}

/// The replica-failure matrix. `n_ticks` is the number of requests the
/// capture assembles into (one request per tick), so mid-run fault times
/// scale with the capture.
fn scenarios(n_ticks: usize) -> Vec<Scenario> {
    let mid = n_ticks / 3;
    let crash =
        |replica, at_burst| ReplicaFault { replica, at_burst, kind: ReplicaFaultKind::Crash };
    vec![
        Scenario { name: "clean", n_replicas: 3, faults: vec![], corrupt_checkpoint: false },
        Scenario {
            name: "crash-1",
            n_replicas: 3,
            faults: vec![crash(0, mid)],
            corrupt_checkpoint: false,
        },
        Scenario {
            name: "stall-1",
            n_replicas: 3,
            // Struck just after a probe tick: hedges fire while the stall
            // is still undetected, then probes take the replica down.
            faults: vec![ReplicaFault {
                replica: 1,
                at_burst: mid / 4 * 4 + 1,
                kind: ReplicaFaultKind::Stall { factor: 32 },
            }],
            corrupt_checkpoint: false,
        },
        Scenario {
            name: "corrupt-wts",
            n_replicas: 3,
            faults: vec![ReplicaFault {
                replica: 2,
                at_burst: mid,
                kind: ReplicaFaultKind::CorruptWeights,
            }],
            corrupt_checkpoint: false,
        },
        Scenario {
            name: "corrupt-ckpt",
            n_replicas: 3,
            faults: vec![crash(0, mid)],
            corrupt_checkpoint: true,
        },
        Scenario {
            name: "crash-2",
            n_replicas: 3,
            faults: vec![crash(0, mid), crash(1, mid)],
            corrupt_checkpoint: false,
        },
        Scenario {
            name: "single-base",
            n_replicas: 1,
            faults: vec![crash(0, mid)],
            corrupt_checkpoint: false,
        },
    ]
}

fn availability_table(outcomes: &[Outcome]) -> Table {
    let mut table = Table::new(&[
        "scenario",
        "reps",
        "arrived",
        "model",
        "fb",
        "sup",
        "shed",
        "failover",
        "hedge",
        "wins",
        "down",
        "restart",
        "peer",
        "avail",
        "model_avail",
    ]);
    for o in outcomes {
        let s = &o.stats;
        table.row(&[
            o.name.into(),
            o.end_healthy.to_string(),
            s.arrived.to_string(),
            s.answered_model.to_string(),
            s.answered_fallback.to_string(),
            s.answered_supervisor.to_string(),
            s.shed.to_string(),
            s.failovers.to_string(),
            s.hedges.to_string(),
            s.hedge_wins.to_string(),
            s.to_down.to_string(),
            s.restarts_ok.to_string(),
            s.peer_clones.to_string(),
            format!("{:.3}", s.availability()),
            format!("{:.3}", s.model_availability()),
        ]);
    }
    table
}

fn main() {
    banner(
        "E16",
        "§4.3 (operational deployment)",
        "a supervised 3-replica cluster keeps model availability ≥ 0.99 through \
         single-replica failures that measurably degrade a lone replica, with \
         probes, failover, hedging, warm restarts, and a bitwise-reproducible table",
    );
    let scale = Scale::from_env();
    let (clf, trace) = train_serving_model(&scale);
    let n_ticks = assemble_requests(&trace, &FieldTokenizer::new(), 64).0.len();
    println!(
        "capture: {} packets → {n_ticks} requests; failure matrix: 7 scenarios\n",
        trace.len()
    );
    assert!(n_ticks >= 24, "capture too small to place mid-run faults");

    let run_sweep = || -> Vec<Outcome> {
        scenarios(n_ticks).iter().map(|sc| run_scenario(&clf, &trace, sc)).collect()
    };
    let outcomes = run_sweep();
    let table = availability_table(&outcomes);
    render_table("e16.availability", &table);
    let get = |name: &str| -> &Outcome {
        outcomes.iter().find(|o| o.name == name).expect("scenario present")
    };

    // --- The acceptance criteria, asserted, not eyeballed ---------------
    for o in &outcomes {
        let s = &o.stats;
        assert_eq!(
            s.answered(),
            s.arrived - s.shed,
            "{}: every unshed arrival must be answered",
            o.name
        );
        assert_eq!(o.responses, s.answered(), "{}: one response per answered request", o.name);
    }
    let clean = get("clean");
    assert_eq!(clean.stats.answered_model, clean.stats.arrived, "control: all model answers");
    assert_eq!(clean.stats.to_down, 0, "control: no replica goes down");

    let single = get("single-base");
    let crash1 = get("crash-1");
    assert!(crash1.stats.restarts_ok >= 1, "supervised restart must fire");
    assert!(crash1.stats.failovers >= 1, "traffic must fail over off the crashed replica");
    assert_eq!(crash1.end_healthy, 3, "the crashed replica must return to service");
    assert!(
        crash1.stats.model_availability() >= 0.99,
        "3-replica cluster under single failure: model availability {:.4} < 0.99",
        crash1.stats.model_availability()
    );
    assert!(
        single.stats.model_availability() < crash1.stats.model_availability(),
        "single replica ({:.4}) must measurably underperform the cluster ({:.4})",
        single.stats.model_availability(),
        crash1.stats.model_availability()
    );

    let stall = get("stall-1");
    assert_eq!(stall.stats.stalls_injected, 1);
    assert!(stall.stats.hedges >= 1, "deadline-missed answers must be hedged");
    assert!(stall.stats.hedge_wins >= 1, "a healthy replica must win some hedges");

    let corrupt = get("corrupt-wts");
    assert_eq!(corrupt.stats.corruptions_injected, 1);
    assert!(corrupt.stats.to_down >= 1, "probes must take the corrupted replica down");
    assert!(corrupt.stats.restarts_ok >= 1, "checkpoint restore must bring it back");
    assert_eq!(corrupt.end_healthy, 3);

    let ckpt = get("corrupt-ckpt");
    assert!(ckpt.stats.restart_load_errors >= 1, "bit-flipped checkpoint must fail its CRC");
    assert!(ckpt.stats.peer_clones >= 1, "a healthy peer must donate its model");
    assert!(ckpt.stats.restarts_ok >= 1);

    let crash2 = get("crash-2");
    assert_eq!(crash2.stats.crashes_injected, 2);
    assert!(
        crash2.stats.availability() > 0.999,
        "even two simultaneous crashes must not drop answers"
    );

    // --- Bitwise reproducibility ----------------------------------------
    let rerun = run_sweep();
    let identical = outcomes == rerun;
    assert!(identical, "fixed seeds must reproduce the availability matrix bitwise");
    println!("\nrerun with identical seeds: availability matrix bitwise identical = {identical}");
    println!("zero panics across {} scenarios x 2 sweeps", outcomes.len());

    println!("\npaper shape: §4.3 asks what operating a foundation model takes at");
    println!("production scale; the cluster answer is supervision — probes that");
    println!("demote sick replicas, routing that fails over, hedges that cover slow");
    println!("ones, and warm restarts from checksummed checkpoints — so the service");
    println!("outlives any single replica.");
    nfm_bench::finish();
}
