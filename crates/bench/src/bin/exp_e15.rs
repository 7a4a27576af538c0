//! E15 — robust streaming inference under chaos (paper §4.3, operational
//! robustness; serving-side counterpart of E14).
//!
//! Claim: a deployed foundation model must keep answering when the network
//! and the model itself misbehave. The serving engine's controls —
//! bounded admission with deterministic shedding, deadline budgets,
//! retry-with-backoff, and a circuit breaker that degrades to the flow-stats
//! baseline — must together guarantee that every admitted request gets a
//! response, with zero panics, and that a fixed seed reproduces the whole
//! availability table bitwise.
//!
//! The chaos matrix drives one scenario per failure mode:
//!
//! | scenario    | injected fault                                     |
//! |-------------|----------------------------------------------------|
//! | clean       | none (control)                                     |
//! | corrupt     | byte flips + snaplen truncation + reorder + dupes  |
//! | burst       | bursty arrivals against a small admission queue    |
//! | deadline    | tight per-request budget                           |
//! | nan-poison  | NaN weights mid-run, then healed (breaker cycle)   |
//! | combined    | all of the above at once                           |

use nfm_bench::{banner, render_table, train_serving_model, Scale};
use nfm_core::baselines::MajorityBaseline;
use nfm_core::pipeline::FmClassifier;
use nfm_core::report::Table;
use nfm_core::serve::{BreakerConfig, Fallback, RetryPolicy, ServeConfig, ServeEngine, ServeStats};
use nfm_model::tokenize::field::FieldTokenizer;
use nfm_net::capture::Trace;
use nfm_tensor::layers::Module;
use nfm_traffic::faults::{burst_schedule, inject, FaultConfig};

/// One chaos scenario: a name, the capture-level faults, the arrival
/// process, the serving knobs, and whether the model is NaN-poisoned for
/// the middle third of the run.
struct Scenario {
    name: &'static str,
    faults: Option<FaultConfig>,
    arrivals: FaultConfig,
    serve: ServeConfig,
    poison_midrun: bool,
}

/// Accumulated outcome of one scenario.
struct Outcome {
    name: &'static str,
    stats: ServeStats,
    responses: usize,
}

/// Run one scenario to completion and return its availability accounting.
/// The trace is served in three equal slices; `poison_midrun` NaN-poisons
/// the encoder for the middle slice and heals it for the last, which forces
/// a full breaker cycle (closed → open → half-open → closed) under live
/// traffic.
fn run_scenario(clf: &FmClassifier, trace: &Trace, scenario: &Scenario) -> Outcome {
    let tokenizer = FieldTokenizer::new();
    let served_trace = match &scenario.faults {
        Some(cfg) => inject(trace, cfg).0,
        None => trace.clone(),
    };
    let n = served_trace.len();
    let fallback = Fallback::Majority(MajorityBaseline { class: 0, n_classes: 2 });
    let mut engine = ServeEngine::new(clf.clone(), fallback, scenario.serve);
    let mut responses = 0usize;

    // Slice the capture by packet index thirds so the poison window falls
    // mid-run. Flow assembly is per-slice — fine for availability metrics.
    let cuts = [0, n / 3, 2 * n / 3, n];
    let mut snapshot: Vec<Vec<f32>> = Vec::new();
    for phase in 0..3 {
        if scenario.poison_midrun && phase == 1 {
            engine.model_mut().encoder_mut().visit_params(&mut |p, _| snapshot.push(p.to_vec()));
            engine.model_mut().encoder_mut().visit_params(&mut |p, _| p.fill(f32::NAN));
        }
        if scenario.poison_midrun && phase == 2 {
            let mut slot = 0usize;
            engine.model_mut().encoder_mut().visit_params(&mut |p, _| {
                p.copy_from_slice(&snapshot[slot]);
                slot += 1;
            });
        }
        let slice =
            Trace::from_packets(served_trace.packets()[cuts[phase]..cuts[phase + 1]].to_vec());
        let schedule = burst_schedule(
            slice.len().max(1) * 4,
            &FaultConfig { seed: scenario.arrivals.seed + phase as u64, ..scenario.arrivals },
        );
        responses += engine.serve_trace(&slice, &tokenizer, &schedule).len();
    }
    Outcome { name: scenario.name, stats: engine.stats(), responses }
}

fn scenarios() -> Vec<Scenario> {
    // Corruption pressure calibrated to degrade, not blind, the capture:
    // byte flips and a 200-byte snap length leave most headers intact, so
    // the engine still sees traffic while counting plenty of malformed
    // packets.
    let corrupt = FaultConfig {
        corrupt_chance: 0.3,
        snaplen: 200,
        reorder_chance: 0.25,
        duplicate_chance: 0.15,
        seed: 21,
        ..FaultConfig::default()
    };
    let bursty =
        FaultConfig { burst_chance: 0.6, max_burst: 32, seed: 9, ..FaultConfig::default() };
    let smooth = FaultConfig { seed: 9, ..FaultConfig::default() };
    let small_queue =
        ServeConfig { queue_capacity: 6, shed_watermark: 3, ..ServeConfig::default() };
    let breaker_fast = ServeConfig {
        breaker: BreakerConfig { failure_threshold: 2, cooldown: 4, probes_to_close: 1 },
        retry: RetryPolicy { max_retries: 1, ..RetryPolicy::default() },
        ..ServeConfig::default()
    };
    vec![
        Scenario {
            name: "clean",
            faults: None,
            arrivals: smooth,
            serve: ServeConfig::default(),
            poison_midrun: false,
        },
        Scenario {
            name: "corrupt",
            faults: Some(corrupt),
            arrivals: smooth,
            serve: ServeConfig::default(),
            poison_midrun: false,
        },
        Scenario {
            name: "burst",
            faults: None,
            arrivals: bursty,
            serve: small_queue,
            poison_midrun: false,
        },
        Scenario {
            name: "deadline",
            faults: None,
            arrivals: smooth,
            serve: ServeConfig { deadline_budget: 40_000, ..ServeConfig::default() },
            poison_midrun: false,
        },
        Scenario {
            name: "nan-poison",
            faults: None,
            arrivals: smooth,
            serve: breaker_fast,
            poison_midrun: true,
        },
        Scenario {
            name: "combined",
            faults: Some(corrupt),
            arrivals: bursty,
            serve: ServeConfig {
                deadline_budget: 400_000,
                ..ServeConfig {
                    breaker: breaker_fast.breaker,
                    retry: breaker_fast.retry,
                    ..small_queue
                }
            },
            poison_midrun: true,
        },
    ]
}

fn availability_table(outcomes: &[Outcome]) -> Table {
    let mut table = Table::new(&[
        "scenario", "arrived", "admitted", "shed", "model", "fallback", "ddl_miss", "trips",
        "recov", "avail", "panics",
    ]);
    for o in outcomes {
        let s = &o.stats;
        table.row(&[
            o.name.into(),
            s.arrived.to_string(),
            s.admitted.to_string(),
            s.shed.to_string(),
            s.answered_model.to_string(),
            s.answered_fallback.to_string(),
            s.deadline_misses.to_string(),
            s.breaker_trips.to_string(),
            s.breaker_recoveries.to_string(),
            format!("{:.3}", s.availability()),
            "0".into(),
        ]);
    }
    table
}

fn main() {
    banner(
        "E15",
        "§4.3 (operational deployment)",
        "serving stays available under chaos: every admitted request answered, \
         breaker trips and recovers, zero panics, bitwise-reproducible table",
    );
    let scale = Scale::from_env();
    let (clf, trace) = train_serving_model(&scale);
    println!("capture: {} packets; fault matrix: 6 scenarios\n", trace.len());

    let run_sweep = || -> Vec<Outcome> {
        scenarios().iter().map(|sc| run_scenario(&clf, &trace, sc)).collect()
    };
    let outcomes = run_sweep();
    let table = availability_table(&outcomes);
    render_table("e15.availability", &table);

    // --- The acceptance criteria, asserted, not eyeballed ---------------
    for o in &outcomes {
        let s = &o.stats;
        assert_eq!(s.answered(), s.admitted, "{}: every admitted request must be answered", o.name);
        assert_eq!(o.responses, s.admitted, "{}: one response per admitted request", o.name);
        assert_eq!(s.arrived, s.admitted + s.shed, "{}: arrivals are admitted or shed", o.name);
    }
    let burst = outcomes.iter().find(|o| o.name == "burst").expect("burst scenario");
    assert!(burst.stats.shed > 0, "bursty overload must shed");
    let corrupt = outcomes.iter().find(|o| o.name == "corrupt").expect("corrupt scenario");
    assert!(corrupt.stats.malformed_packets > 0, "corruption must produce unparseable packets");
    assert!(corrupt.stats.answered() > 0, "a degraded capture must still be served");
    let deadline = outcomes.iter().find(|o| o.name == "deadline").expect("deadline scenario");
    assert!(deadline.stats.deadline_misses > 0, "tight budget must miss deadlines");
    assert_eq!(deadline.stats.breaker_trips, 0, "deadline misses never trip the breaker");
    let poison = outcomes.iter().find(|o| o.name == "nan-poison").expect("poison scenario");
    assert!(poison.stats.breaker_trips >= 1, "NaN weights must trip the breaker");
    assert!(poison.stats.breaker_recoveries >= 1, "healed weights must close the breaker");
    assert!(poison.stats.answered_fallback > 0, "open breaker routes to the fallback");

    // --- Bitwise reproducibility ----------------------------------------
    let rerun = run_sweep();
    let identical =
        outcomes.iter().zip(&rerun).all(|(a, b)| a.stats == b.stats && a.responses == b.responses);
    assert!(identical, "fixed seeds must reproduce the availability table bitwise");
    println!("\nrerun with identical seeds: availability table bitwise identical = {identical}");
    println!("zero panics across {} scenarios x 2 sweeps", outcomes.len());

    println!("\npaper shape: §4.3 asks what it takes to operate a foundation model");
    println!("in production; the answer on the serving side is explicit backpressure,");
    println!("deadlines, and a breaker that degrades to the cheap baseline instead of");
    println!("failing — availability holds even when the model itself is poisoned.");
    nfm_bench::finish();
}
