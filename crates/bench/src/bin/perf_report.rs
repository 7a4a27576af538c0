//! perf_report — wall-clock timings for the training/inference hot paths at
//! each worker-thread count in {1, 2, 4} the host has cores for, written to
//! `BENCH_perf.json`.
//!
//! Records are `{name, threads, value, unit}` — `unit` is `"ms"` for wall
//! times, `"req_per_s"` for serving/cluster throughput, and `"ratio"` for
//! the shed rate and cluster availability under the fault sweeps (ratio
//! rows are seed-deterministic and thread-invariant, but recorded at every
//! measured thread count). Rows with `threads: 0` are run-wide values:
//! `host.nproc` (the hardware threads of the host the report ran on), then
//! counter totals snapshotted from the `nfm_obs` metrics registry (MAC
//! counts, pool dispatch totals, serving outcome counters — see
//! `OBSERVABILITY.md`), accumulated across every thread setting the report
//! timed. Every measured operation is bitwise
//! deterministic across thread counts (see `nfm_tensor::pool`), so each
//! setting performs the exact same arithmetic and the wall-clock ratio is a
//! pure parallel-speedup measurement. The pool never runs more workers
//! than the host has hardware threads, so a `threads=N` row with N above
//! `host.nproc` would time the same run as a smaller N; no such row is
//! written.
//!
//! `NFM_SCALE=quick` shrinks the workloads for CI.
//!
//! `--baseline <path>` compares this run against a previously written
//! `BENCH_perf.json`: the report gains a `vs_base` column, and the process
//! exits nonzero when `serve_throughput`, `multitask_throughput`, or
//! `cluster_throughput` regresses by more than 20% at any thread count.
//!
//! The multi-task fan-out comparison is always a gate: the process exits 2
//! if `MultiTaskServer` at one thread delivers less than 2x the answer
//! throughput of four separate single-task engines. Fan-out removes K−1
//! encoder forwards outright, so the margin is structural — falling under
//! 2x means the shared-encoder path stopped sharing.

use std::time::Instant;

use nfm_core::baselines::MajorityBaseline;
use nfm_core::cluster::{ClusterConfig, ClusterSupervisor};
use nfm_core::pipeline::{
    FineTuneConfig, FmClassifier, FoundationModel, Pooling, TaskHead, TextExample,
};
use nfm_core::serve::{Fallback, MultiTaskServer, ServeConfig, ServeEngine};
use nfm_model::nn::transformer::EncoderConfig;
use nfm_model::pretrain::{pretrain, PretrainConfig, TaskMix};
use nfm_model::tokenize::field::FieldTokenizer;
use nfm_model::vocab::Vocab;
use nfm_tensor::matrix::Matrix;
use nfm_tensor::pool;
use nfm_traffic::faults::{burst_schedule, inject, FaultConfig, ReplicaFault, ReplicaFaultKind};
use nfm_traffic::netsim::{simulate, SimConfig};

struct Rec {
    name: String,
    threads: usize,
    value: f64,
    unit: &'static str,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Best-of-`reps` wall time in milliseconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(ms(t.elapsed()));
    }
    best
}

/// One `{name, threads, value, unit}` row parsed back out of a previously
/// written `BENCH_perf.json`. The file is our own fixed-format output, so a
/// small line-oriented parser is enough — no JSON dependency.
fn parse_baseline(text: &str) -> Vec<Rec> {
    fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
        let tag = format!("\"{key}\":");
        let rest = &line[line.find(&tag)? + tag.len()..];
        let rest = rest.trim_start();
        let end = rest.find([',', '}'])?;
        Some(rest[..end].trim().trim_matches('"'))
    }
    text.lines()
        .filter_map(|line| {
            let line = line.trim().trim_end_matches(',');
            if !line.starts_with('{') {
                return None;
            }
            Some(Rec {
                name: field(line, "name")?.to_string(),
                threads: field(line, "threads")?.parse().ok()?,
                value: field(line, "value")?.parse().ok()?,
                // The unit is display-only for baselines; leak-free static
                // mapping of the handful we emit.
                unit: match field(line, "unit")? {
                    "ms" => "ms",
                    "req_per_s" => "req_per_s",
                    "ratio" => "ratio",
                    _ => "count",
                },
            })
        })
        .collect()
}

/// Deterministic synthetic corpus with enough token diversity to give the
/// encoder a non-trivial vocabulary.
fn synthetic_corpus(n: usize) -> (Vocab, Vec<Vec<String>>) {
    let contexts: Vec<Vec<String>> = (0..n)
        .map(|i| {
            let k = i % 8;
            (0..12).flat_map(|j| [format!("x{k}_{j}"), format!("y{k}_{j}")]).collect()
        })
        .collect();
    let vocab = Vocab::from_sequences(&contexts, 1);
    (vocab, contexts)
}

fn main() {
    let quick = matches!(std::env::var("NFM_SCALE").as_deref(), Ok("quick"));
    let args: Vec<String> = std::env::args().collect();
    let baseline: Option<Vec<Rec>> = args.iter().position(|a| a == "--baseline").map(|i| {
        let path = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("--baseline requires a path to a prior BENCH_perf.json");
            std::process::exit(2);
        });
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        parse_baseline(&text)
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let thread_counts: Vec<usize> = [1usize, 2, 4].into_iter().filter(|&t| t <= nproc).collect();
    let mut records: Vec<Rec> =
        vec![Rec { name: "host.nproc".into(), threads: 0, value: nproc as f64, unit: "count" }];
    println!("perf_report: timing hot paths at threads = {thread_counts:?} (nproc {nproc})\n");

    // --- Tiled matmul at model-relevant shapes -------------------------
    // (seq × d)·(d × d) projections and square kernels around the sizes the
    // encoder uses at production scale.
    let shapes: &[(usize, usize, usize)] = if quick {
        &[(96, 128, 128), (256, 256, 256)]
    } else {
        &[(96, 256, 256), (256, 256, 256), (512, 512, 512)]
    };
    for &(m, k, n) in shapes {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 31 + c) % 17) as f32 - 8.0);
        let b = Matrix::from_fn(k, n, |r, c| ((r * 13 + c) % 11) as f32 - 5.0);
        for &t in &thread_counts {
            pool::set_threads(t);
            let wall = best_of(if quick { 2 } else { 5 }, || {
                std::hint::black_box(a.matmul(&b));
            });
            records.push(Rec {
                name: format!("matmul_{m}x{k}x{n}"),
                threads: t,
                value: wall,
                unit: "ms",
            });
        }
    }

    // --- One pretrain epoch (MLM + next-flow) --------------------------
    let (vocab, contexts) = synthetic_corpus(if quick { 48 } else { 120 });
    let enc_cfg = EncoderConfig {
        vocab: vocab.len(),
        d_model: 32,
        n_heads: 4,
        n_layers: 2,
        d_ff: 64,
        max_len: 32,
    };
    let pre_cfg = PretrainConfig {
        epochs: 1,
        tasks: TaskMix { mlm: true, next_flow: true, query_answer: false },
        ..PretrainConfig::default()
    };
    let mut trained = None;
    for &t in &thread_counts {
        pool::set_threads(t);
        let start = Instant::now();
        let (encoder, _, _) =
            pretrain(&contexts, &vocab, enc_cfg, &pre_cfg).expect("pretraining failed");
        let wall = ms(start.elapsed());
        records.push(Rec { name: "pretrain_epoch".into(), threads: t, value: wall, unit: "ms" });
        trained = Some(encoder);
    }

    // --- One fine-tune epoch (Pooling::Cls, encoder unfrozen) ----------
    let fm = FoundationModel {
        encoder: trained.expect("pretrain ran"),
        vocab,
        max_len: enc_cfg.max_len,
    };
    let examples: Vec<TextExample> = contexts
        .iter()
        .enumerate()
        .map(|(i, c)| TextExample { tokens: c.clone(), label: i % 2 })
        .collect();
    let ft_cfg = FineTuneConfig { epochs: 1, pooling: Pooling::Cls, ..FineTuneConfig::default() };
    let mut tuned = None;
    for &t in &thread_counts {
        pool::set_threads(t);
        let start = Instant::now();
        let clf = FmClassifier::fine_tune(&fm, &examples, 2, &ft_cfg).expect("fine-tuning failed");
        let wall = ms(start.elapsed());
        records.push(Rec { name: "finetune_epoch".into(), threads: t, value: wall, unit: "ms" });
        tuned = Some(clf);
    }
    let clf = tuned.expect("fine-tune ran");

    // --- One batched-predict pass --------------------------------------
    let batch: Vec<Vec<String>> = examples.iter().map(|e| e.tokens.clone()).collect();
    for &t in &thread_counts {
        pool::set_threads(t);
        let wall = best_of(if quick { 2 } else { 3 }, || {
            std::hint::black_box(clf.predict_batch(&batch));
        });
        records.push(Rec { name: "predict_batch".into(), threads: t, value: wall, unit: "ms" });
    }
    pool::set_threads(0);

    // --- Serving under the fault sweep ----------------------------------
    // End-to-end `ServeEngine::serve_trace` over a corrupted, bursty
    // capture (the E15 regime): throughput in requests served per second,
    // plus the deterministic shed rate — which is identical at every
    // thread count, so it is recorded once.
    let lt = simulate(&SimConfig {
        n_sessions: if quick { 40 } else { 120 },
        n_general_hosts: 4,
        n_iot_sets: 1,
        ..SimConfig::default()
    });
    let (noisy, _) = inject(
        &lt.trace,
        &FaultConfig { corrupt_chance: 0.3, snaplen: 200, seed: 21, ..FaultConfig::default() },
    );
    let tokenizer = FieldTokenizer::new();
    let serve_cfg = ServeConfig { queue_capacity: 8, shed_watermark: 4, ..ServeConfig::default() };
    let schedule = burst_schedule(
        noisy.len() * 4,
        &FaultConfig { burst_chance: 0.5, max_burst: 16, seed: 9, ..FaultConfig::default() },
    );
    for &t in &thread_counts {
        pool::set_threads(t);
        let mut served = 0usize;
        let mut shed_rate = 0.0;
        let wall = best_of(if quick { 2 } else { 3 }, || {
            let mut engine = ServeEngine::new(
                clf.clone(),
                Fallback::Majority(MajorityBaseline { class: 0, n_classes: 2 }),
                serve_cfg,
            );
            served = engine.serve_trace(&noisy, &tokenizer, &schedule).len();
            shed_rate = engine.stats().shed_rate();
        });
        let throughput = served as f64 / (wall / 1e3);
        records.push(Rec {
            name: "serve_throughput".into(),
            threads: t,
            value: throughput,
            unit: "req_per_s",
        });
        // The shed decision is seeded and thread-invariant, but record it
        // at every measured thread count so downstream tooling never has to
        // special-case which setting carried the ratio.
        records.push(Rec {
            name: "serve_shed_rate".into(),
            threads: t,
            value: shed_rate,
            unit: "ratio",
        });
    }
    pool::set_threads(0);

    // --- Multi-task fan-out serving --------------------------------------
    // K = 4 tasks over the same corrupted bursty capture. The fan-out path
    // (`MultiTaskServer`: one shared encoder forward per admitted flow, K
    // head GEMVs) against the separate-engine deployment (K independent
    // `ServeEngine`s, each running the full encoder). Responses are asserted
    // bitwise identical per task before anything is timed, so the
    // throughput delta is pure encoder amortization.
    const K_TASKS: usize = 4;
    let backbone = clf.backbone();
    let fan_heads: Vec<TaskHead> =
        (0..K_TASKS).map(|k| TaskHead::from_classifier(&clf, &format!("task-{k}"))).collect();
    let majority = || Fallback::Majority(MajorityBaseline { class: 0, n_classes: 2 });
    let fan_tasks = || fan_heads.iter().map(|h| (h.clone(), majority())).collect::<Vec<_>>();
    {
        pool::set_threads(1);
        let mut server = MultiTaskServer::new(backbone.clone(), fan_tasks(), serve_cfg);
        let fanned = server.serve_trace(&noisy, &tokenizer, &schedule);
        for (k, head) in fan_heads.iter().enumerate() {
            let mut solo = ServeEngine::new(backbone.attach(head), majority(), serve_cfg);
            let solo_rs = solo.serve_trace(&noisy, &tokenizer, &schedule);
            assert_eq!(fanned[k], solo_rs, "fan-out task {k} must answer bitwise identically");
            assert_eq!(server.task_stats()[k], solo.stats(), "fan-out task {k} stats must match");
        }
        let f = server.stats();
        println!(
            "fan-out-vs-separate identity: ok ({K_TASKS} tasks, {} encoder rows for {} head \
             rows)\n",
            f.encoder_rows, f.head_rows
        );
        pool::set_threads(0);
    }
    let mut fanout_t1 = f64::NAN;
    let mut separate_t1 = f64::NAN;
    for &t in &thread_counts {
        pool::set_threads(t);
        let mut answers = 0usize;
        let wall = best_of(if quick { 2 } else { 3 }, || {
            let mut server = MultiTaskServer::new(backbone.clone(), fan_tasks(), serve_cfg);
            answers = server.serve_trace(&noisy, &tokenizer, &schedule).iter().map(Vec::len).sum();
        });
        let throughput = answers as f64 / (wall / 1e3);
        if t == 1 {
            fanout_t1 = throughput;
        }
        records.push(Rec {
            name: "multitask_throughput".into(),
            threads: t,
            value: throughput,
            unit: "req_per_s",
        });
        let mut answers = 0usize;
        let wall = best_of(if quick { 2 } else { 3 }, || {
            answers = fan_heads
                .iter()
                .map(|head| {
                    let mut solo = ServeEngine::new(backbone.attach(head), majority(), serve_cfg);
                    solo.serve_trace(&noisy, &tokenizer, &schedule).len()
                })
                .sum();
        });
        let throughput = answers as f64 / (wall / 1e3);
        if t == 1 {
            separate_t1 = throughput;
        }
        records.push(Rec {
            name: "multitask_throughput_separate".into(),
            threads: t,
            value: throughput,
            unit: "req_per_s",
        });
    }
    pool::set_threads(0);
    let fanout_speedup = fanout_t1 / separate_t1;
    records.push(Rec {
        name: "multitask_speedup".into(),
        threads: 1,
        value: fanout_speedup,
        unit: "ratio",
    });
    println!(
        "multi-task throughput at 1 thread ({K_TASKS} tasks): separate {separate_t1:.0} ans/s, \
         fan-out {fanout_t1:.0} ans/s ({fanout_speedup:.2}x)\n"
    );
    if fanout_speedup < 2.0 {
        eprintln!(
            "FAIL: fan-out serving ({fanout_t1:.0} ans/s) is less than 2x the separate-engine \
             deployment ({separate_t1:.0} ans/s) at 1 thread"
        );
        std::process::exit(2);
    }

    // --- Cluster serving under a replica crash ---------------------------
    // End-to-end `ClusterSupervisor::serve_trace` (the E16 regime): three
    // replicas over the same corrupted bursty capture with one replica
    // crashing mid-run. Throughput counts final answers per second;
    // availability is the (deterministic) fraction of arrivals answered.
    let ckpt_dir = std::env::temp_dir().join(format!("nfm_perf_cluster_{}", std::process::id()));
    let crash =
        [ReplicaFault { replica: 0, at_burst: schedule.len() / 3, kind: ReplicaFaultKind::Crash }];
    for &t in &thread_counts {
        pool::set_threads(t);
        let mut served = 0usize;
        let mut availability = 0.0;
        let mut model_availability = 0.0;
        let wall = best_of(if quick { 2 } else { 3 }, || {
            let majority = || Fallback::Majority(MajorityBaseline { class: 0, n_classes: 2 });
            let replicas = (0..3).map(|_| (clf.clone(), majority())).collect();
            let mut cluster = ClusterSupervisor::new(
                replicas,
                majority(),
                &ckpt_dir,
                ClusterConfig { serve: serve_cfg, ..ClusterConfig::default() },
            )
            .expect("cluster construction");
            served = cluster.serve_trace(&noisy, &tokenizer, &schedule, &crash).len();
            availability = cluster.stats().availability();
            model_availability = cluster.stats().model_availability();
        });
        records.push(Rec {
            name: "cluster_throughput".into(),
            threads: t,
            value: served as f64 / (wall / 1e3),
            unit: "req_per_s",
        });
        records.push(Rec {
            name: "cluster_availability".into(),
            threads: t,
            value: availability,
            unit: "ratio",
        });
        records.push(Rec {
            name: "cluster_model_availability".into(),
            threads: t,
            value: model_availability,
            unit: "ratio",
        });
    }
    std::fs::remove_dir_all(&ckpt_dir).ok();
    pool::set_threads(0);

    // --- Registry counter rows ------------------------------------------
    // Run-wide totals from the observability layer: deterministic work
    // accounting (MACs, pool dispatches, serving outcomes) to sit next to
    // the wall-clock rows. `threads: 0` marks a cumulative counter.
    for m in nfm_obs::global().snapshot() {
        if let nfm_obs::MetricValue::Counter(v) = m.value {
            records.push(Rec {
                name: m.name.to_string(),
                threads: 0,
                value: v as f64,
                unit: m.unit.as_str(),
            });
        }
    }

    // --- Report ---------------------------------------------------------
    let header: &[&str] = if baseline.is_some() {
        &["name", "threads", "value", "unit", "speedup", "vs_base"]
    } else {
        &["name", "threads", "value", "unit", "speedup"]
    };
    let mut table = nfm_core::report::Table::new(header);
    let mut regressions: Vec<String> = Vec::new();
    for rec in &records {
        let base = records
            .iter()
            .find(|r| r.name == rec.name && r.threads == 1)
            .map_or(rec.value, |r| r.value);
        // Speedup is a wall-time ratio; for throughput the gain is the
        // value ratio inverted; dimensionless and counter rows have none.
        let speedup = match (rec.unit, rec.threads) {
            (_, 0) => "-".into(),
            ("ms", _) => format!("{:.2}x", base / rec.value),
            ("req_per_s", _) => format!("{:.2}x", rec.value / base),
            _ => "-".into(),
        };
        let mut row = vec![
            rec.name.clone(),
            rec.threads.to_string(),
            format!("{:.3}", rec.value),
            rec.unit.into(),
            speedup,
        ];
        if let Some(base_recs) = &baseline {
            let prior = base_recs.iter().find(|r| r.name == rec.name && r.threads == rec.threads);
            row.push(match prior {
                Some(p) if p.value > 0.0 => {
                    let delta = rec.value / p.value - 1.0;
                    // Gatekeep the serving throughputs: a >20% drop against
                    // the baseline file fails the run.
                    let gated = matches!(
                        rec.name.as_str(),
                        "serve_throughput" | "multitask_throughput" | "cluster_throughput"
                    );
                    if gated && delta < -0.20 {
                        regressions.push(format!(
                            "{} (threads={}): {:.3} -> {:.3} ({:+.1}%)",
                            rec.name,
                            rec.threads,
                            p.value,
                            rec.value,
                            delta * 100.0
                        ));
                    }
                    format!("{:+.1}%", delta * 100.0)
                }
                _ => "-".into(),
            });
        }
        table.row(&row);
    }
    nfm_bench::render_table("perf.records", &table);

    let mut json = String::from("[\n");
    for (i, rec) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        json.push_str(&format!(
            "  {{\"name\": \"{}\", \"threads\": {}, \"value\": {:.3}, \"unit\": \"{}\"}}{}\n",
            rec.name, rec.threads, rec.value, rec.unit, comma
        ));
    }
    json.push_str("]\n");
    std::fs::write("BENCH_perf.json", &json).expect("write BENCH_perf.json");
    println!("wrote BENCH_perf.json ({} records)", records.len());
    nfm_bench::finish();
    if !regressions.is_empty() {
        eprintln!("FAIL: throughput regressed >20% against the baseline:");
        for r in &regressions {
            eprintln!("  {r}");
        }
        std::process::exit(1);
    }
}
