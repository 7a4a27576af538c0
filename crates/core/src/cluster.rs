//! Supervised multi-replica serving: the cluster layer above
//! [`ServeEngine`]. PR 3 made a *single* engine robust to hostile requests;
//! this module makes the *service* robust to the failure of whole replicas,
//! which is what serving heavy traffic from millions of users (ROADMAP
//! north star) actually requires.
//!
//! A [`ClusterSupervisor`] owns N replicas, each a full [`ServeEngine`]
//! (queue, breaker, retry, fallback) around its own copy of the model, and
//! adds four cluster-level controls:
//!
//! 1. **Routing + failover** — each request is routed round-robin across
//!    routable replicas (`Healthy` first, then `Degraded`); when a
//!    request's natural target is not routable it fails over to the next
//!    one, and when *no* replica is routable the supervisor itself answers
//!    from its own [`Fallback`] tier so availability never reaches zero.
//! 2. **Deterministic health probes** — every `probe_interval` ticks the
//!    supervisor classifies a fixed canary context on every replica within
//!    a probe budget. Crashes, deadline overruns (stalled replicas), and
//!    non-finite logits (corrupted weights) all fail the probe;
//!    consecutive failures walk the replica down a
//!    `Healthy → Degraded → Down` state machine, and one passing probe
//!    restores it.
//! 3. **Hedged dispatch** — when a replica answers past its deadline
//!    budget, the supervisor re-issues the request to a second healthy
//!    replica and keeps the better answer.
//! 4. **Supervised warm restart** — a `Down` replica is restarted with
//!    exponential backoff from its last good checkpoint via
//!    [`load_classifier_with_retry`]; a checkpoint that fails its CRC is a
//!    typed error, not a panic, and the supervisor falls back to cloning
//!    the model from a healthy peer before giving up and doubling the
//!    backoff.
//!
//! Everything is metered in the same deterministic cost units as the
//! engine, faults arrive as a fixed list of
//! [`nfm_traffic::faults::ReplicaFault`]s keyed by tick, and every counter
//! is an integer — so a full chaos sweep (E16) reproduces bit for bit.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

use nfm_model::tokenize::Tokenizer;
use nfm_net::capture::Trace;
use nfm_tensor::checkpoint::CheckpointError;
use nfm_tensor::layers::Module;
use nfm_traffic::faults::{ReplicaFault, ReplicaFaultKind};

use crate::ood::DriftMonitor;
use crate::pipeline::{FineTuneConfig, FmClassifier, TextExample};
use crate::serve::{
    assemble_requests, burst_groups, load_classifier_with_retry, Fallback, IngestStats, Responder,
    Response, RetryPolicy, ServeConfig, ServeEngine, ServeRequest, ServeStats,
};

/// Errors surfaced by cluster construction instead of panics.
#[derive(Debug)]
pub enum ClusterError {
    /// A cluster needs at least one replica.
    NoReplicas,
    /// A replica checkpoint could not be written at construction.
    Checkpoint(CheckpointError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoReplicas => write!(f, "cluster needs at least one replica"),
            ClusterError::Checkpoint(e) => write!(f, "replica checkpoint failed: {e}"),
        }
    }
}

impl Error for ClusterError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ClusterError::NoReplicas => None,
            ClusterError::Checkpoint(e) => Some(e),
        }
    }
}

/// A replica's position in the probe-driven state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaHealth {
    /// Passing probes; preferred routing target.
    Healthy,
    /// Recently failed a probe (or on post-restart probation); routed to
    /// only when no healthy replica exists.
    Degraded,
    /// Crashed or persistently failing probes; receives no traffic until a
    /// supervised restart brings it back.
    Down,
}

impl ReplicaHealth {
    /// Short name for events and report tables.
    pub fn name(&self) -> &'static str {
        match self {
            ReplicaHealth::Healthy => "healthy",
            ReplicaHealth::Degraded => "degraded",
            ReplicaHealth::Down => "down",
        }
    }

    /// Ordering for the probe state machine: probe failures may only move a
    /// replica toward `Down`, never back up (a crashed replica must not be
    /// "promoted" to `Degraded` by its first failed probe).
    fn severity(&self) -> u8 {
        match self {
            ReplicaHealth::Healthy => 0,
            ReplicaHealth::Degraded => 1,
            ReplicaHealth::Down => 2,
        }
    }
}

/// The token context every health probe classifies.
pub const CANARY: [&str; 2] = ["PORT_443", "IP4"];

/// Consecutive probe failures that mark a replica `Down`; the first failure
/// marks it `Degraded`.
const DOWN_AFTER: usize = 2;

/// Multiplier on a `Down` replica's restart backoff after each failed
/// restart attempt.
const RESTART_BACKOFF_FACTOR: usize = 2;

/// Ticks to wait after a failed or rejected adaptation or a rollback; each
/// consecutive one multiplies the wait by [`ADAPT_BACKOFF_FACTOR`].
const ADAPT_BACKOFF_BASE: usize = 4;

/// Multiplier on the adaptation backoff per consecutive failure.
const ADAPT_BACKOFF_FACTOR: usize = 2;

/// Ticks of quiet after a completed rollout before the next adaptation may
/// start.
const ADAPT_COOLDOWN: usize = 8;

/// Cluster-supervisor knobs.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Per-replica engine configuration (each replica derives its own shed
    /// seed from `serve.seed`, so replicas shed independently but
    /// reproducibly).
    pub serve: ServeConfig,
    /// Probe every replica once per this many ticks (bursts); `0` disables
    /// probing.
    pub probe_interval: usize,
    /// Cost budget for one health probe on an unimpaired replica. The
    /// default, `u64::MAX`, is a sentinel meaning *auto*: construction
    /// resolves it to 1.5× the [`CANARY`]'s inference cost on the replica
    /// model, so an unimpaired replica always passes while any stall
    /// factor (≥ 2) shrinks the budget below one canary inference and
    /// fails the probe. Finite values are used as-is; stall detection
    /// requires the budget to be finite and within `stall_factor`× of the
    /// canary cost.
    pub probe_budget: u64,
    /// Ticks before the first restart attempt of a `Down` replica; each
    /// failed attempt doubles the wait.
    pub restart_backoff_base: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            serve: ServeConfig::default(),
            probe_interval: 4,
            probe_budget: u64::MAX,
            restart_backoff_base: 2,
        }
    }
}

/// Availability accounting for the cluster. All counters are integers, so
/// two runs with the same seeds agree exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Requests that reached cluster routing.
    pub arrived: usize,
    /// Requests whose final answer came from a replica's model path.
    pub answered_model: usize,
    /// Requests whose final answer came from a replica's fallback tier.
    pub answered_fallback: usize,
    /// Requests answered by the supervisor's own fallback because no
    /// replica was routable.
    pub answered_supervisor: usize,
    /// Requests shed by replica admission control.
    pub shed: usize,
    /// Requests routed away from their natural round-robin target. Serving
    /// a request on its natural target while that target is merely
    /// `Degraded` is not a failover.
    pub failovers: usize,
    /// Hedged re-dispatches issued.
    pub hedges: usize,
    /// Hedges whose secondary answer (model path) replaced the primary's.
    pub hedge_wins: usize,
    /// Health probes issued.
    pub probes: usize,
    /// Health probes failed.
    pub probe_failures: usize,
    /// Transitions into `Degraded`.
    pub to_degraded: usize,
    /// Transitions into `Down`.
    pub to_down: usize,
    /// Transitions back to `Healthy`.
    pub to_healthy: usize,
    /// Replica crashes injected.
    pub crashes_injected: usize,
    /// Replica stalls injected.
    pub stalls_injected: usize,
    /// Weight corruptions injected.
    pub corruptions_injected: usize,
    /// Supervised restarts attempted.
    pub restarts_attempted: usize,
    /// Supervised restarts that brought a replica back.
    pub restarts_ok: usize,
    /// Restart attempts whose checkpoint load failed (e.g. CRC mismatch).
    pub restart_load_errors: usize,
    /// Restarts recovered by cloning a healthy peer's model instead.
    pub peer_clones: usize,
    /// Capture packets that failed to parse during ingest.
    pub malformed_packets: usize,
    /// Flows assembled from parseable packets.
    pub flows_assembled: usize,
    /// Flows dropped for producing no tokens.
    pub empty_contexts: usize,
    /// Background adaptations started (detector tripped with enough
    /// quarantined traffic).
    pub adaptations_started: usize,
    /// Adaptations whose fine-tune failed (e.g. diverged past the guard).
    pub adaptations_failed: usize,
    /// Candidates rejected by the shadow evaluation (worse than incumbent).
    pub candidates_rejected: usize,
    /// Canary rollouts started (candidate deployed to one replica).
    pub rollouts_started: usize,
    /// Rollouts completed fleet-wide after the canary verified.
    pub rollouts_completed: usize,
    /// Canary rollbacks (candidate failed verification on the canary).
    pub rollbacks: usize,
    /// Quarantined examples drained into adaptation attempts.
    pub quarantine_drained: usize,
}

impl ClusterStats {
    /// Requests that received any answer (replica model, replica fallback,
    /// or supervisor fallback).
    pub fn answered(&self) -> usize {
        self.answered_model + self.answered_fallback + self.answered_supervisor
    }

    /// Fraction of arrivals that received an answer (1.0 when nothing
    /// arrived).
    pub fn availability(&self) -> f64 {
        if self.arrived == 0 {
            1.0
        } else {
            self.answered() as f64 / self.arrived as f64
        }
    }

    /// Strict availability: fraction of arrivals answered by a replica's
    /// *model* path (fallback tiers excluded). This is the number the E16
    /// acceptance bar (≥ 0.99 under single-replica failure) is measured on.
    pub fn model_availability(&self) -> f64 {
        if self.arrived == 0 {
            1.0
        } else {
            self.answered_model as f64 / self.arrived as f64
        }
    }
}

/// Self-healing knobs: when a replica's drift detector trips and enough
/// traffic sits in quarantine, the supervisor fine-tunes the incumbent
/// model in the background (quarantine + `replay` against catastrophic
/// forgetting), shadow-evaluates the candidate on the drained quarantine,
/// and — only if the candidate is no worse — rolls it out through a canary
/// replica before the fleet. A failed or rejected adaptation or a rollback
/// waits 4 ticks before the next attempt, doubling per consecutive
/// failure; a completed rollout is followed by 8 quiet ticks.
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// Minimum quarantined examples (summed across replicas) before an
    /// adaptation starts; trips with less traffic keep accumulating.
    pub min_quarantine: usize,
    /// Replay slice of the original training data mixed into every
    /// adaptation fine-tune so the candidate keeps its old competence.
    pub replay: Vec<TextExample>,
    /// Fine-tune settings for the background adaptation pass. With
    /// `freeze_encoder` set the candidate differs from the incumbent in
    /// head weights alone. This is the shared-backbone serving contract —
    /// a drifted task can be repaired and canary-rolled without perturbing
    /// the encoder other tasks share (see
    /// [`TaskHead`](crate::pipeline::TaskHead) and
    /// [`MultiTaskServer`](crate::serve::MultiTaskServer)).
    pub fine_tune: FineTuneConfig,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig { min_quarantine: 32, replay: Vec::new(), fine_tune: FineTuneConfig::default() }
    }
}

/// An in-flight canary rollout.
struct Rollout {
    candidate: FmClassifier,
    incumbent: FmClassifier,
    canary: usize,
    /// Examples the candidate was fitted on — the fleet's drift monitors
    /// recalibrate against these once the rollout completes.
    recal: Vec<TextExample>,
}

/// Supervisor-side adaptation state.
struct AdaptState {
    config: AdaptConfig,
    rollout: Option<Rollout>,
    backoff: usize,
    not_before: usize,
}

/// One managed replica: an engine plus the supervisor's view of it.
struct Replica {
    engine: ServeEngine,
    health: ReplicaHealth,
    crashed: bool,
    stall_factor: u64,
    probe_failures: usize,
    backoff: usize,
    restart_due: Option<usize>,
    checkpoint: PathBuf,
}

/// The cluster supervisor: N replicas, health probes, failover, hedging,
/// and supervised warm restarts. See the module docs for the full design.
pub struct ClusterSupervisor {
    replicas: Vec<Replica>,
    fallback: Fallback,
    config: ClusterConfig,
    /// [`CANARY`] as the token context a probe classifies.
    canary: Vec<String>,
    stats: ClusterStats,
    tick: usize,
    rr: usize,
    adapt: Option<AdaptState>,
}

impl ClusterSupervisor {
    /// Build a supervisor over one engine per `(model, fallback)` pair,
    /// saving each replica's model to `<checkpoint_dir>/replica_<i>.nfmc`
    /// as its warm-restart artifact. `supervisor_fallback` answers when no
    /// replica is routable. Each replica's shed RNG is derived from
    /// `config.serve.seed` and its index, so replicas behave independently
    /// but reproducibly.
    pub fn new(
        replicas: Vec<(FmClassifier, Fallback)>,
        supervisor_fallback: Fallback,
        checkpoint_dir: &Path,
        config: ClusterConfig,
    ) -> Result<ClusterSupervisor, ClusterError> {
        if replicas.is_empty() {
            return Err(ClusterError::NoReplicas);
        }
        let mut config = config;
        if config.probe_budget == u64::MAX {
            // Auto probe budget: 1.5× one canary inference. Healthy
            // replicas fit (cost ≤ 1.5×cost); a stalled replica's shrunk
            // budget (1.5×cost / factor, factor ≥ 2) cannot, so stalls are
            // detectable without any per-model tuning.
            let cost = replicas[0].0.inference_cost(CANARY.len());
            config.probe_budget = cost.saturating_add(cost / 2);
        }
        std::fs::create_dir_all(checkpoint_dir)
            .map_err(|e| ClusterError::Checkpoint(CheckpointError::Io(e.to_string())))?;
        let mut managed = Vec::with_capacity(replicas.len());
        for (i, (clf, fallback)) in replicas.into_iter().enumerate() {
            let checkpoint = checkpoint_dir.join(format!("replica_{i}.nfmc"));
            clf.save(&checkpoint).map_err(ClusterError::Checkpoint)?;
            let serve = ServeConfig {
                seed: config.serve.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                ..config.serve
            };
            managed.push(Replica {
                engine: ServeEngine::new(clf, fallback, serve),
                health: ReplicaHealth::Healthy,
                crashed: false,
                stall_factor: 1,
                probe_failures: 0,
                backoff: config.restart_backoff_base.max(1),
                restart_due: None,
                checkpoint,
            });
        }
        nfm_obs::gauge!("cluster.healthy_replicas").set(managed.len() as f64);
        Ok(ClusterSupervisor {
            replicas: managed,
            fallback: supervisor_fallback,
            config,
            canary: CANARY.map(String::from).to_vec(),
            stats: ClusterStats::default(),
            tick: 0,
            rr: 0,
            adapt: None,
        })
    }

    /// Number of replicas (in any health state).
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// A replica's current health.
    pub fn replica_health(&self, replica: usize) -> ReplicaHealth {
        self.replicas[replica].health
    }

    /// Replicas currently `Healthy`.
    pub fn healthy_count(&self) -> usize {
        self.replicas.iter().filter(|r| r.health == ReplicaHealth::Healthy).count()
    }

    /// The cumulative tick counter (one tick per burst across every
    /// [`ClusterSupervisor::serve_trace`] call). Fault `at_burst` times are
    /// matched against this counter, so harnesses that serve multiple
    /// traces through one supervisor schedule faults relative to it.
    pub fn tick(&self) -> usize {
        self.tick
    }

    /// Path of a replica's warm-restart checkpoint — exposed so chaos
    /// harnesses can corrupt the file on disk and exercise the CRC path.
    pub fn checkpoint_path(&self, replica: usize) -> &Path {
        &self.replicas[replica].checkpoint
    }

    /// Cumulative cluster statistics.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// One replica's engine-level statistics.
    pub fn replica_stats(&self, replica: usize) -> ServeStats {
        self.replicas[replica].engine.stats()
    }

    /// One replica's currently served model.
    pub fn replica_model(&self, replica: usize) -> &FmClassifier {
        self.replicas[replica].engine.model()
    }

    /// Arm the self-healing loop: every replica gets a clone of `monitor`
    /// (scoring its own traffic independently but from identical
    /// calibration), and the supervisor starts watching for trips to
    /// schedule background adaptation and canary-gated rollouts.
    pub fn enable_adaptation(&mut self, monitor: DriftMonitor, config: AdaptConfig) {
        for r in &mut self.replicas {
            r.engine.enable_drift(monitor.clone());
        }
        self.adapt =
            Some(AdaptState { backoff: ADAPT_BACKOFF_BASE, config, rollout: None, not_before: 0 });
    }

    /// Whether any replica's drift detector is currently tripped.
    fn drift_tripped(&self) -> bool {
        self.replicas.iter().any(|r| r.engine.drift_monitor().is_some_and(|m| m.tripped()))
    }

    /// Examples currently quarantined across the fleet.
    pub fn quarantined_total(&self) -> usize {
        self.replicas.iter().map(|r| r.engine.quarantine().len()).sum()
    }

    /// Apply delayed ground-truth labels to every replica (see
    /// [`ServeEngine::record_feedback`]); returns how many times detectors
    /// newly tripped across the fleet.
    pub fn apply_feedback(&mut self, truth: &dyn Fn(&[String]) -> Option<usize>) -> usize {
        self.replicas.iter_mut().map(|r| r.engine.record_feedback(truth)).sum()
    }

    /// The self-healing step, run once per tick: advance an in-flight
    /// canary rollout, or start a new background adaptation when a drift
    /// detector has tripped with enough quarantined traffic.
    fn maybe_adapt(&mut self) {
        let Some(mut state) = self.adapt.take() else { return };
        match state.rollout.take() {
            Some(rollout) => self.advance_rollout(&mut state, rollout),
            None => self.maybe_start_adaptation(&mut state),
        }
        self.adapt = Some(state);
    }

    /// The least-impaired replica — adaptation's incumbent source and the
    /// canary target.
    fn least_impaired(&self) -> usize {
        (0..self.replicas.len()).min_by_key(|&i| self.replicas[i].health.severity()).unwrap_or(0)
    }

    /// Begin an adaptation cycle if warranted: drain every quarantine, warm
    /// fine-tune the incumbent on quarantine + replay, shadow-evaluate the
    /// candidate, and deploy it to one canary replica only if it is no
    /// worse than the incumbent.
    fn maybe_start_adaptation(&mut self, state: &mut AdaptState) {
        if self.tick < state.not_before {
            return;
        }
        if !self.drift_tripped() || self.quarantined_total() < state.config.min_quarantine {
            return;
        }
        self.stats.adaptations_started += 1;
        nfm_obs::counter!("adapt.started").inc();
        let mut fresh: Vec<TextExample> = Vec::new();
        for r in &mut self.replicas {
            fresh.append(&mut r.engine.quarantine_mut().drain());
        }
        self.stats.quarantine_drained += fresh.len();
        nfm_obs::counter!("adapt.quarantine_drained").add(fresh.len() as u64);
        nfm_obs::event(
            "adapt.start",
            &[
                ("tick", nfm_obs::Value::U(self.tick as u64)),
                ("quarantined", nfm_obs::Value::U(fresh.len() as u64)),
            ],
        );
        let canary = self.least_impaired();
        let incumbent = self.replicas[canary].engine.model().clone();
        let mut train = fresh.clone();
        train.extend(state.config.replay.iter().cloned());
        let ft = &state.config.fine_tune;
        let candidate = match FmClassifier::fine_tune_from(&incumbent, &train, ft) {
            Ok(clf) => clf,
            Err(e) => {
                self.stats.adaptations_failed += 1;
                nfm_obs::counter!("adapt.failed").inc();
                nfm_obs::event("adapt.failed", &[("error", nfm_obs::Value::S(&e.to_string()))]);
                self.adapt_backoff(state);
                return;
            }
        };
        // Shadow evaluation: integer correct-counts on the traffic that
        // triggered the adaptation. The candidate must be at least as good
        // as the incumbent.
        let correct = |clf: &FmClassifier| -> usize {
            fresh.iter().filter(|e| clf.predict(&e.tokens) == e.label).count()
        };
        let cand_correct = correct(&candidate);
        let inc_correct = correct(&incumbent);
        if cand_correct < inc_correct {
            self.stats.candidates_rejected += 1;
            nfm_obs::counter!("adapt.rejected").inc();
            nfm_obs::event(
                "adapt.rejected",
                &[
                    ("candidate_correct", nfm_obs::Value::U(cand_correct as u64)),
                    ("incumbent_correct", nfm_obs::Value::U(inc_correct as u64)),
                    ("eval_n", nfm_obs::Value::U(fresh.len() as u64)),
                ],
            );
            self.adapt_backoff(state);
            return;
        }
        // Canary deploy: one replica serves the candidate; the fleet keeps
        // the incumbent, so model availability never dips.
        self.replicas[canary].engine.replace_model(candidate.clone());
        self.stats.rollouts_started += 1;
        nfm_obs::counter!("rollout.started").inc();
        nfm_obs::event(
            "rollout.canary",
            &[
                ("replica", nfm_obs::Value::U(canary as u64)),
                ("candidate_correct", nfm_obs::Value::U(cand_correct as u64)),
                ("incumbent_correct", nfm_obs::Value::U(inc_correct as u64)),
            ],
        );
        state.rollout = Some(Rollout { candidate, incumbent, canary, recal: train });
    }

    /// One tick after the canary deploy, verify the canary replica still
    /// answers its health probe; promote the candidate fleet-wide (with
    /// checkpoint refresh and monitor recalibration) or roll it back.
    fn advance_rollout(&mut self, state: &mut AdaptState, rollout: Rollout) {
        let canary = rollout.canary;
        let healthy = self.probe_one(canary) && self.replicas[canary].health != ReplicaHealth::Down;
        if !healthy {
            self.replicas[canary].engine.replace_model(rollout.incumbent.clone());
            self.stats.rollbacks += 1;
            nfm_obs::counter!("rollout.rollbacks").inc();
            nfm_obs::event("rollout.rollback", &[("replica", nfm_obs::Value::U(canary as u64))]);
            self.adapt_backoff(state);
            return;
        }
        // Fleet-wide promotion: swap every other replica, refresh the
        // warm-restart checkpoints, and recalibrate every drift monitor
        // against the candidate + the traffic it was fitted on so the
        // detectors measure drift from the *new* distribution.
        let drift_config =
            self.replicas.iter().find_map(|r| r.engine.drift_monitor().map(|m| m.config()));
        for i in 0..self.replicas.len() {
            if i != canary {
                self.replicas[i].engine.replace_model(rollout.candidate.clone());
            }
            if let Err(e) = rollout.candidate.save(&self.replicas[i].checkpoint) {
                nfm_obs::event(
                    "rollout.checkpoint_error",
                    &[
                        ("replica", nfm_obs::Value::U(i as u64)),
                        ("error", nfm_obs::Value::S(&e.to_string())),
                    ],
                );
            }
        }
        if let Some(cfg) = drift_config {
            let monitor = DriftMonitor::calibrate(&rollout.candidate, &rollout.recal, cfg);
            for r in &mut self.replicas {
                r.engine.enable_drift(monitor.clone());
            }
        }
        self.stats.rollouts_completed += 1;
        nfm_obs::counter!("rollout.completed").inc();
        nfm_obs::event(
            "rollout.completed",
            &[
                ("tick", nfm_obs::Value::U(self.tick as u64)),
                ("canary", nfm_obs::Value::U(canary as u64)),
            ],
        );
        state.backoff = ADAPT_BACKOFF_BASE;
        state.not_before = self.tick + ADAPT_COOLDOWN;
    }

    /// Exponential backoff after a failed/rejected adaptation or rollback.
    fn adapt_backoff(&mut self, state: &mut AdaptState) {
        state.not_before = self.tick + state.backoff;
        state.backoff = state.backoff.saturating_mul(ADAPT_BACKOFF_FACTOR);
    }

    fn transition(&mut self, replica: usize, to: ReplicaHealth, cause: &str) {
        let from = self.replicas[replica].health;
        if from == to {
            return;
        }
        self.replicas[replica].health = to;
        match to {
            ReplicaHealth::Healthy => self.stats.to_healthy += 1,
            ReplicaHealth::Degraded => self.stats.to_degraded += 1,
            ReplicaHealth::Down => self.stats.to_down += 1,
        }
        nfm_obs::counter!("cluster.transitions").inc();
        nfm_obs::event(
            "cluster.replica.transition",
            &[
                ("replica", nfm_obs::Value::U(replica as u64)),
                ("from", nfm_obs::Value::S(from.name())),
                ("to", nfm_obs::Value::S(to.name())),
                ("cause", nfm_obs::Value::S(cause)),
            ],
        );
        nfm_obs::gauge!("cluster.healthy_replicas").set(self.healthy_count() as f64);
    }

    /// Apply one injected fault to its replica, as a chaos harness (or the
    /// seeded schedule in [`ClusterSupervisor::serve_trace`]) would.
    pub fn inject(&mut self, fault: &ReplicaFault) {
        let i = fault.replica;
        if i >= self.replicas.len() {
            return;
        }
        nfm_obs::counter!("cluster.faults_injected").inc();
        match fault.kind {
            ReplicaFaultKind::Crash => {
                self.stats.crashes_injected += 1;
                self.replicas[i].crashed = true;
                self.transition(i, ReplicaHealth::Down, "crash");
                let backoff = self.replicas[i].backoff;
                self.replicas[i].restart_due = Some(self.tick + backoff);
            }
            ReplicaFaultKind::Stall { factor } => {
                self.stats.stalls_injected += 1;
                let factor = factor.max(2);
                self.replicas[i].stall_factor = factor;
                let base = self.config.serve.deadline_budget;
                self.replicas[i].engine.set_deadline_budget(base / factor);
            }
            ReplicaFaultKind::CorruptWeights => {
                self.stats.corruptions_injected += 1;
                self.replicas[i].engine.model_mut().encoder_mut().visit_params(&mut |p, _| {
                    p.fill(f32::NAN);
                });
            }
        }
    }

    /// Probe one replica: classify the canary context within the probe
    /// budget (shrunk by any stall factor, modelling the slow box). A crash,
    /// a deadline overrun, or non-finite logits fail the probe.
    fn probe_one(&mut self, i: usize) -> bool {
        self.stats.probes += 1;
        nfm_obs::counter!("cluster.probes").inc();
        let ok = if self.replicas[i].crashed {
            false
        } else {
            let budget = self.config.probe_budget / self.replicas[i].stall_factor;
            match self.replicas[i].engine.model().logits_within(&self.canary, budget) {
                Ok((logits, _)) => logits.iter().all(|v| v.is_finite()),
                Err(_) => false,
            }
        };
        if ok {
            self.replicas[i].probe_failures = 0;
            if !self.replicas[i].crashed {
                self.transition(i, ReplicaHealth::Healthy, "probe_pass");
            }
        } else {
            self.replicas[i].probe_failures += 1;
            self.stats.probe_failures += 1;
            nfm_obs::counter!("cluster.probe_failures").inc();
            let target =
                if self.replicas[i].crashed || self.replicas[i].probe_failures >= DOWN_AFTER {
                    ReplicaHealth::Down
                } else {
                    ReplicaHealth::Degraded
                };
            // Failures only walk the ladder downward.
            if target.severity() > self.replicas[i].health.severity() {
                self.transition(i, target, "probe_fail");
            }
            if self.replicas[i].health == ReplicaHealth::Down
                && self.replicas[i].restart_due.is_none()
            {
                // A non-crash Down (stall, corruption) also warrants a
                // supervised restart: reload from the last good checkpoint.
                let backoff = self.replicas[i].backoff;
                self.replicas[i].restart_due = Some(self.tick + backoff);
            }
        }
        ok
    }

    fn probe_all(&mut self) {
        for i in 0..self.replicas.len() {
            self.probe_one(i);
        }
    }

    /// Attempt every due supervised restart. Load failures (a corrupted
    /// checkpoint fails its CRC inside [`load_classifier_with_retry`]) fall
    /// back to cloning a healthy peer's model; with no healthy peer the
    /// replica stays `Down` and its backoff doubles.
    fn restart_due(&mut self) {
        for i in 0..self.replicas.len() {
            let due = matches!(self.replicas[i].restart_due, Some(t) if self.tick >= t);
            if !due {
                continue;
            }
            self.stats.restarts_attempted += 1;
            nfm_obs::counter!("cluster.restarts_attempted").inc();
            let loaded =
                load_classifier_with_retry(&self.replicas[i].checkpoint, &RetryPolicy::default());
            let model = match loaded {
                Ok((clf, _log)) => Some(clf),
                Err(e) => {
                    self.stats.restart_load_errors += 1;
                    nfm_obs::counter!("cluster.restart_load_errors").inc();
                    nfm_obs::event(
                        "cluster.restart.load_error",
                        &[
                            ("replica", nfm_obs::Value::U(i as u64)),
                            ("error", nfm_obs::Value::S(&e.to_string())),
                        ],
                    );
                    // Checkpoint unusable: clone a healthy peer instead.
                    let peer = (0..self.replicas.len())
                        .find(|&p| p != i && self.replicas[p].health == ReplicaHealth::Healthy);
                    peer.map(|p| {
                        self.stats.peer_clones += 1;
                        nfm_obs::counter!("cluster.peer_clones").inc();
                        self.replicas[p].engine.model().clone()
                    })
                }
            };
            match model {
                Some(clf) => {
                    self.replicas[i].engine.replace_model(clf);
                    self.replicas[i].engine.set_deadline_budget(self.config.serve.deadline_budget);
                    self.replicas[i].crashed = false;
                    self.replicas[i].stall_factor = 1;
                    self.replicas[i].probe_failures = 0;
                    self.replicas[i].restart_due = None;
                    self.replicas[i].backoff = self.config.restart_backoff_base.max(1);
                    self.stats.restarts_ok += 1;
                    nfm_obs::counter!("cluster.restarts_ok").inc();
                    // Probation: the next passing probe promotes to Healthy.
                    self.transition(i, ReplicaHealth::Degraded, "restart");
                }
                None => {
                    let backoff = self.replicas[i].backoff.saturating_mul(RESTART_BACKOFF_FACTOR);
                    self.replicas[i].backoff = backoff;
                    self.replicas[i].restart_due = Some(self.tick + backoff);
                }
            }
        }
    }

    /// Pick the routing target for the next request: round-robin over
    /// `Healthy` replicas, then `Degraded` ones. `None` means the
    /// supervisor must answer itself. Counts a failover only when the
    /// request actually moved off its natural round-robin target — a
    /// cluster running steadily on degraded replicas is degraded, not
    /// failing over on every request.
    fn route(&mut self) -> Option<usize> {
        let n = self.replicas.len();
        let natural = self.rr % n;
        self.rr = self.rr.wrapping_add(1);
        for tier in [ReplicaHealth::Healthy, ReplicaHealth::Degraded] {
            for off in 0..n {
                let i = (natural + off) % n;
                if self.replicas[i].health == tier {
                    if i != natural {
                        self.stats.failovers += 1;
                        nfm_obs::counter!("cluster.failovers").inc();
                    }
                    return Some(i);
                }
            }
        }
        None
    }

    /// Answer one request from the supervisor's own fallback tier (no
    /// replica was routable).
    fn supervisor_answer(&mut self, request: &ServeRequest) -> Response {
        self.stats.answered_supervisor += 1;
        nfm_obs::counter!("cluster.answered_supervisor").inc();
        Response {
            flow: request.flow,
            class: self.fallback.predict(&request.tokens),
            responder: Responder::Fallback,
            cost: 0,
            retries: 0,
            deadline_missed: false,
        }
    }

    /// Run one cluster tick: apply this tick's faults, attempt due
    /// restarts, probe on the probe cadence, route and serve one burst of
    /// requests, then hedge deadline-missed answers. Returns the tick's
    /// responses in a deterministic order (replica-drain order, hedged
    /// answers substituted in place).
    fn run_tick(&mut self, burst: &[ServeRequest], faults: &[ReplicaFault]) -> Vec<Response> {
        let tick = self.tick;
        for fault in faults.iter().filter(|f| f.at_burst == tick) {
            self.inject(fault);
        }
        self.restart_due();
        if self.config.probe_interval > 0 && self.tick.is_multiple_of(self.config.probe_interval) {
            self.probe_all();
        }
        self.maybe_adapt();

        // Route the whole burst before any replica drains: bursts — not
        // average load — drive per-replica shedding, as in the engine.
        // Shed is taken from each engine's own counter (delta across the
        // tick), not inferred from submitted-minus-drained counts, so it
        // stays honest even when responses are consumed out of band.
        let shed_before: Vec<usize> = self.replicas.iter().map(|r| r.engine.stats().shed).collect();
        let mut routed: Vec<Vec<ServeRequest>> =
            (0..self.replicas.len()).map(|_| Vec::new()).collect();
        let mut responses = Vec::with_capacity(burst.len());
        for request in burst {
            self.stats.arrived += 1;
            nfm_obs::counter!("cluster.arrived").inc();
            match self.route() {
                Some(i) => {
                    self.replicas[i].engine.submit(request.clone());
                    routed[i].push(request.clone());
                }
                None => {
                    let r = self.supervisor_answer(request);
                    responses.push(r);
                }
            }
        }
        for (i, routed_i) in routed.iter().enumerate() {
            if routed_i.is_empty() {
                continue;
            }
            let drained = self.replicas[i].engine.drain_queue();
            let shed = self.replicas[i].engine.stats().shed - shed_before[i];
            self.stats.shed += shed;
            if shed > 0 {
                nfm_obs::counter!("cluster.shed").add(shed as u64);
            }
            for response in drained {
                let finalized = self.maybe_hedge(i, routed_i, response);
                match finalized.responder {
                    Responder::Model => {
                        self.stats.answered_model += 1;
                        nfm_obs::counter!("cluster.answered_model").inc();
                    }
                    Responder::Fallback => {
                        self.stats.answered_fallback += 1;
                        nfm_obs::counter!("cluster.answered_fallback").inc();
                    }
                }
                responses.push(finalized);
            }
        }
        self.tick += 1;
        responses
    }

    /// Re-issue a deadline-missed response's request to a second healthy
    /// replica; keep the secondary's answer when its model path succeeds.
    fn maybe_hedge(
        &mut self,
        primary: usize,
        routed: &[ServeRequest],
        response: Response,
    ) -> Response {
        if !response.deadline_missed {
            return response;
        }
        let secondary = (0..self.replicas.len())
            .find(|&p| p != primary && self.replicas[p].health == ReplicaHealth::Healthy);
        let Some(p) = secondary else {
            return response;
        };
        let Some(request) = routed.iter().find(|r| r.flow == response.flow) else {
            return response;
        };
        self.stats.hedges += 1;
        nfm_obs::counter!("cluster.hedges").inc();
        // `serve_one` bypasses the secondary's queue and admission control:
        // requests this tick already routed to the secondary (but not yet
        // drained) stay queued, and the answer is guaranteed to belong to
        // the hedged request's flow — a queue drain here would steal and
        // discard the secondary's own pending work.
        let hedged = self.replicas[p].engine.serve_one(request.clone());
        if hedged.responder == Responder::Model {
            self.stats.hedge_wins += 1;
            nfm_obs::counter!("cluster.hedge_wins").inc();
            hedged
        } else {
            response
        }
    }

    /// Serve every flow in `trace` across the cluster. `schedule` groups
    /// arrivals into bursts exactly as in [`ServeEngine::serve_trace`]
    /// ([`burst_groups`]); each burst is one cluster tick (faults strike,
    /// restarts fire, and probes run on tick boundaries). Requests left after the schedule
    /// arrive one per tick. Statistics accumulate across calls.
    ///
    /// Every arrived request gets exactly one [`Response`] unless a replica
    /// shed it; nothing panics on malformed capture bytes.
    pub fn serve_trace(
        &mut self,
        trace: &Trace,
        tokenizer: &dyn Tokenizer,
        schedule: &[usize],
        faults: &[ReplicaFault],
    ) -> Vec<Response> {
        let (requests, ingest) = assemble_requests(trace, tokenizer, self.config.serve.max_tokens);
        self.fold_ingest(ingest);
        let mut responses = Vec::with_capacity(requests.len());
        for group in burst_groups(requests, schedule) {
            responses.extend(self.run_tick(&group, faults));
        }
        responses
    }

    fn fold_ingest(&mut self, ingest: IngestStats) {
        self.stats.malformed_packets += ingest.malformed_packets;
        self.stats.flows_assembled += ingest.flows_assembled;
        self.stats.empty_contexts += ingest.empty_contexts;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::MajorityBaseline;
    use crate::pipeline::{FineTuneConfig, TextExample};
    use nfm_model::tokenize::field::FieldTokenizer;

    fn tiny_parts() -> (FmClassifier, Trace) {
        let tiny = crate::fixture::tiny();
        (tiny.clf.clone(), tiny.trace.clone())
    }

    fn majority() -> Fallback {
        Fallback::Majority(MajorityBaseline::fit(&[], 2))
    }

    fn build(clf: &FmClassifier, n: usize, dir: &Path, config: ClusterConfig) -> ClusterSupervisor {
        let replicas = (0..n).map(|_| (clf.clone(), majority())).collect();
        ClusterSupervisor::new(replicas, majority(), dir, config).expect("cluster")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nfm_cluster_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn empty_cluster_is_a_typed_error() {
        let dir = temp_dir("empty");
        let Err(err) =
            ClusterSupervisor::new(Vec::new(), majority(), &dir, ClusterConfig::default())
        else {
            panic!("empty replica set must be rejected");
        };
        assert!(matches!(err, ClusterError::NoReplicas));
        assert!(err.to_string().contains("at least one replica"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn healthy_cluster_answers_everything_from_the_model() {
        let (clf, trace) = tiny_parts();
        let dir = temp_dir("healthy");
        let mut cluster = build(&clf, 3, &dir, ClusterConfig::default());
        let responses = cluster.serve_trace(&trace, &FieldTokenizer::new(), &[], &[]);
        let stats = cluster.stats();
        assert!(stats.arrived > 0);
        assert_eq!(stats.answered(), responses.len());
        assert_eq!(stats.answered_model, stats.arrived, "healthy cluster: all model answers");
        assert_eq!(stats.answered_supervisor, 0);
        assert!((stats.availability() - 1.0).abs() < 1e-12);
        assert!((stats.model_availability() - 1.0).abs() < 1e-12);
        assert_eq!(cluster.healthy_count(), 3);
        // Round-robin spreads load across every replica.
        for i in 0..3 {
            assert!(cluster.replica_stats(i).admitted > 0, "replica {i} got traffic");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_fails_over_and_warm_restarts_from_checkpoint() {
        let (clf, trace) = tiny_parts();
        let dir = temp_dir("crash");
        let mut cluster = build(&clf, 3, &dir, ClusterConfig::default());
        let faults = [ReplicaFault { replica: 0, at_burst: 2, kind: ReplicaFaultKind::Crash }];
        let schedule = vec![1usize; 64];
        let responses = cluster.serve_trace(&trace, &FieldTokenizer::new(), &schedule, &faults);
        let stats = cluster.stats();
        assert!(!responses.is_empty());
        assert_eq!(stats.crashes_injected, 1);
        assert!(stats.to_down >= 1, "crash marks the replica down");
        assert!(stats.failovers >= 1, "traffic fails over off the crashed replica");
        assert_eq!(stats.restarts_attempted, stats.restarts_ok, "checkpoint restores cleanly");
        assert!(stats.restarts_ok >= 1, "supervised restart fired");
        assert_eq!(stats.answered(), stats.arrived - stats.shed);
        assert_eq!(
            cluster.replica_health(0),
            ReplicaHealth::Healthy,
            "restarted replica passes probes again"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_checkpoint_falls_back_to_peer_clone() {
        let (clf, trace) = tiny_parts();
        let dir = temp_dir("peer");
        let mut cluster = build(&clf, 3, &dir, ClusterConfig::default());
        // Corrupt replica 0's warm-restart artifact before it crashes: the
        // CRC check must fail the load and the supervisor clones a peer.
        let path = cluster.checkpoint_path(0).to_path_buf();
        let mut bytes = std::fs::read(&path).expect("read checkpoint");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write checkpoint");
        let faults = [ReplicaFault { replica: 0, at_burst: 1, kind: ReplicaFaultKind::Crash }];
        let schedule = vec![1usize; 64];
        cluster.serve_trace(&trace, &FieldTokenizer::new(), &schedule, &faults);
        let stats = cluster.stats();
        assert!(stats.restart_load_errors >= 1, "CRC mismatch surfaced as a load error");
        assert!(stats.peer_clones >= 1, "a healthy peer donated its model");
        assert!(stats.restarts_ok >= 1);
        assert_eq!(cluster.replica_health(0), ReplicaHealth::Healthy);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn probe_failures_walk_the_ladder_and_a_restart_is_on_probation() {
        let (clf, _) = tiny_parts();
        let dir = temp_dir("ladder");
        // Default cadence: probes at ticks 0, 4, 8; restart backoff 2.
        let mut cluster = build(&clf, 3, &dir, ClusterConfig::default());
        let faults =
            [ReplicaFault { replica: 0, at_burst: 0, kind: ReplicaFaultKind::CorruptWeights }];
        let health: Vec<ReplicaHealth> = (0..9)
            .map(|_| {
                cluster.run_tick(&[], &faults);
                cluster.replica_health(0)
            })
            .collect();
        use ReplicaHealth::{Degraded, Down, Healthy};
        assert_eq!(
            health,
            [Degraded, Degraded, Degraded, Degraded, Down, Down, Degraded, Degraded, Healthy],
            "first failed probe degrades, the second downs; the restart at tick 6 is on \
             probation until the probe at tick 8 passes"
        );
        let stats = cluster.stats();
        assert_eq!((stats.restarts_attempted, stats.restarts_ok), (1, 1));
        assert_eq!((stats.to_degraded, stats.to_down, stats.to_healthy), (2, 1, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_restarts_double_their_backoff() {
        let (clf, _) = tiny_parts();
        let dir = temp_dir("backoff");
        // One replica, so no peer can donate a model once its bit-flipped
        // checkpoint fails to load.
        let mut cluster = build(&clf, 1, &dir, ClusterConfig::default());
        let path = cluster.checkpoint_path(0).to_path_buf();
        let mut bytes = std::fs::read(&path).expect("read checkpoint");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write checkpoint");
        let faults = [ReplicaFault { replica: 0, at_burst: 0, kind: ReplicaFaultKind::Crash }];
        let mut attempts_at = Vec::new();
        for tick in 0..=30 {
            let before = cluster.stats().restarts_attempted;
            cluster.run_tick(&[], &faults);
            if cluster.stats().restarts_attempted > before {
                attempts_at.push(tick);
            }
        }
        assert_eq!(attempts_at, [2, 6, 14, 30], "waits of 2, 4, 8 and 16 ticks");
        let stats = cluster.stats();
        assert_eq!((stats.restart_load_errors, stats.restarts_ok, stats.peer_clones), (4, 0, 0));
        assert_eq!(cluster.replica_health(0), ReplicaHealth::Down);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_replicas_down_routes_to_supervisor_fallback() {
        let (clf, trace) = tiny_parts();
        let dir = temp_dir("alldown");
        // Backoff long enough that no restart completes within the run.
        let config = ClusterConfig { restart_backoff_base: 100_000, ..ClusterConfig::default() };
        let mut cluster = build(&clf, 2, &dir, config);
        let faults = [
            ReplicaFault { replica: 0, at_burst: 0, kind: ReplicaFaultKind::Crash },
            ReplicaFault { replica: 1, at_burst: 0, kind: ReplicaFaultKind::Crash },
        ];
        let responses = cluster.serve_trace(&trace, &FieldTokenizer::new(), &[], &faults);
        let stats = cluster.stats();
        assert!(!responses.is_empty());
        assert_eq!(stats.answered_supervisor, stats.arrived, "supervisor answers everything");
        assert!((stats.availability() - 1.0).abs() < 1e-12, "availability never reaches zero");
        assert_eq!(stats.model_availability(), 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hedges_in_multi_request_bursts_lose_no_answers() {
        let (clf, trace) = tiny_parts();
        let dir = temp_dir("hedge_burst");
        // A stalled replica 0 misses every deadline while bursts of 3 keep
        // all three replicas' queues non-empty at hedge time. Probing is
        // disabled so the stall stays undetected and hedging alone must
        // cover it; a deep queue rules out genuine shedding.
        let config = ClusterConfig {
            serve: ServeConfig {
                queue_capacity: 1024,
                shed_watermark: 1024,
                deadline_budget: clf.inference_cost(64) * 2,
                ..ServeConfig::default()
            },
            probe_interval: 0,
            ..ClusterConfig::default()
        };
        let mut cluster = build(&clf, 3, &dir, config);
        let faults = [ReplicaFault {
            replica: 0,
            at_burst: 0,
            kind: ReplicaFaultKind::Stall { factor: 64 },
        }];
        let schedule = vec![3usize; 64];
        let responses = cluster.serve_trace(&trace, &FieldTokenizer::new(), &schedule, &faults);
        let stats = cluster.stats();
        assert!(stats.hedges >= 1, "a stalled primary must trigger hedges");
        assert_eq!(stats.shed, 0, "nothing sheds under a deep queue");
        assert_eq!(responses.len(), stats.arrived, "no answer may be lost to a hedge drain");
        let mut flows: Vec<usize> = responses.iter().map(|r| r.flow).collect();
        flows.sort_unstable();
        let before = flows.len();
        flows.dedup();
        assert_eq!(flows.len(), before, "every flow answered exactly once, by its own answer");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn identical_chaos_runs_are_bitwise_identical() {
        let (clf, trace) = tiny_parts();
        let faults = [
            ReplicaFault { replica: 1, at_burst: 3, kind: ReplicaFaultKind::Crash },
            ReplicaFault { replica: 2, at_burst: 5, kind: ReplicaFaultKind::CorruptWeights },
        ];
        let schedule = vec![2usize; 48];
        let run = |tag: &str| {
            let dir = temp_dir(tag);
            let mut cluster = build(&clf, 3, &dir, ClusterConfig::default());
            let r = cluster.serve_trace(&trace, &FieldTokenizer::new(), &schedule, &faults);
            let s = cluster.stats();
            std::fs::remove_dir_all(&dir).ok();
            (r, s)
        };
        let (ra, sa) = run("det_a");
        let (rb, sb) = run("det_b");
        assert_eq!(sa, sb, "stats must reproduce exactly");
        assert_eq!(ra, rb, "every response must reproduce exactly");
        assert!(sa.corruptions_injected == 1 && sa.crashes_injected == 1);
    }

    /// The label-drift scenario: a three-replica cluster with adaptation
    /// armed and a score detector calibrated on the traffic it serves (so
    /// only the feedback signal can trip), two passes of feedback that
    /// agrees with the incumbent, then six passes of `drifted` feedback.
    /// Returns the cluster and the served flows under the incumbent's
    /// labels.
    fn label_drift_run(
        clf: &FmClassifier,
        trace: &Trace,
        dir: &Path,
        adapt: AdaptConfig,
        drifted: &dyn Fn(&[String]) -> Option<usize>,
    ) -> (ClusterSupervisor, Vec<TextExample>) {
        let tok = FieldTokenizer::new();
        let (requests, _) = assemble_requests(trace, &tok, ServeConfig::default().max_tokens);
        let reference: Vec<TextExample> = requests
            .iter()
            .map(|r| TextExample { tokens: r.tokens.clone(), label: clf.predict(&r.tokens) })
            .collect();
        let drift_cfg = crate::ood::DriftConfig {
            lambda_milli: 1_000_000,
            quarantine_threshold_milli: 1_000_000,
            err_warmup: 4,
            err_lambda_milli: 2_000,
            ..crate::ood::DriftConfig::default()
        };
        let monitor = DriftMonitor::calibrate(clf, &reference, drift_cfg);
        let mut cluster = build(clf, 3, dir, ClusterConfig::default());
        cluster.enable_adaptation(monitor, adapt);
        let schedule = vec![2usize; 64];
        let agree = |t: &[String]| Some(clf.predict(t));
        for _ in 0..2 {
            cluster.serve_trace(trace, &tok, &schedule, &[]);
            cluster.apply_feedback(&agree);
        }
        assert_eq!(cluster.stats().adaptations_started, 0, "no drift, no adaptation");
        for _ in 0..6 {
            cluster.serve_trace(trace, &tok, &schedule, &[]);
            cluster.apply_feedback(drifted);
        }
        (cluster, reference)
    }

    #[test]
    fn label_drift_triggers_adaptation_and_canary_rollout() {
        let (clf, trace) = tiny_parts();
        let dir = temp_dir("adapt");
        // Every label flips, so every answer is suddenly wrong.
        let flip = |t: &[String]| Some(1 - clf.predict(t));
        let adapt = AdaptConfig {
            min_quarantine: 4,
            fine_tune: FineTuneConfig { epochs: 4, ..FineTuneConfig::default() },
            ..AdaptConfig::default()
        };
        let (cluster, reference) = label_drift_run(&clf, &trace, &dir, adapt, &flip);
        let stats = cluster.stats();
        assert!(stats.adaptations_started >= 1, "label drift must schedule an adaptation");
        assert!(stats.quarantine_drained >= 4, "adaptation must consume quarantined traffic");
        assert!(stats.rollouts_started >= 1, "an accepted candidate must start a rollout");
        assert!(stats.rollouts_completed >= 1, "the canary must pass and promote fleet-wide");
        assert_eq!(stats.rollbacks, 0, "healthy canary must not roll back");
        // The promoted candidate must beat the incumbent on the new labels.
        let flipped: Vec<TextExample> = reference
            .iter()
            .map(|e| TextExample { tokens: e.tokens.clone(), label: 1 - e.label })
            .collect();
        let acc =
            |m: &FmClassifier| flipped.iter().filter(|e| m.predict(&e.tokens) == e.label).count();
        assert!(
            acc(cluster.replica_model(0)) > acc(&clf),
            "rolled-out model must outperform the incumbent on drifted labels"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn feedback_labels_outside_the_head_are_unknown_not_training_targets() {
        let (clf, trace) = tiny_parts();
        let dir = temp_dir("adapt_bad_label");
        let n_classes = clf.head().n_classes;
        // The oracle names a class the head does not have for part of the
        // traffic and flips the label of the rest.
        let flip = |t: &[String]| {
            Some(if t.len().is_multiple_of(2) { n_classes } else { 1 - clf.predict(t) })
        };
        let adapt = AdaptConfig {
            min_quarantine: 4,
            fine_tune: FineTuneConfig { epochs: 4, ..FineTuneConfig::default() },
            ..AdaptConfig::default()
        };
        let (cluster, _) = label_drift_run(&clf, &trace, &dir, adapt, &flip);
        let stats = cluster.stats();
        assert_eq!(stats.adaptations_started, 1, "the flipped labels still drive an adaptation");
        assert_eq!(stats.rollouts_completed, 1, "and its candidate promotes fleet-wide");
        assert_eq!(stats.rollbacks, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn head_only_adaptation_leaves_backbone_untouched() {
        use nfm_tensor::layers::Module;
        let (clf, trace) = tiny_parts();
        let dir = temp_dir("adapt_head_only");
        let flip = |t: &[String]| Some(1 - clf.predict(t));
        let adapt = AdaptConfig {
            min_quarantine: 4,
            // A hotter, longer head-only fit: with the encoder frozen
            // only the head can absorb the flipped labels.
            fine_tune: FineTuneConfig {
                epochs: 8,
                lr: 1e-2,
                freeze_encoder: true,
                ..FineTuneConfig::default()
            },
            ..AdaptConfig::default()
        };
        let (cluster, reference) = label_drift_run(&clf, &trace, &dir, adapt, &flip);
        let stats = cluster.stats();
        assert!(stats.adaptations_started >= 1, "label drift must schedule an adaptation");
        assert!(stats.rollouts_started >= 1, "a head-only candidate must still roll out");
        // The rolled-out model's encoder is bitwise the incumbent's: only
        // the head moved. This is the multi-task contract — repairing one
        // task can never perturb the backbone other tasks share.
        let enc_bits = |c: &FmClassifier| {
            let mut out = Vec::new();
            let mut enc = c.backbone().encoder.clone();
            enc.visit_params(&mut |p, _| out.extend(p.iter().map(|v| v.to_bits())));
            out
        };
        let want = enc_bits(&clf);
        for i in 0..3 {
            assert_eq!(
                enc_bits(cluster.replica_model(i)),
                want,
                "replica {i}'s encoder must be bitwise the pre-adaptation backbone"
            );
        }
        // And the head really did move: the promoted model beats the frozen
        // incumbent on the flipped labels despite the identical backbone.
        let flipped: Vec<TextExample> = reference
            .iter()
            .map(|e| TextExample { tokens: e.tokens.clone(), label: 1 - e.label })
            .collect();
        let acc =
            |m: &FmClassifier| flipped.iter().filter(|e| m.predict(&e.tokens) == e.label).count();
        assert!(
            acc(cluster.replica_model(0)) > acc(&clf),
            "head-only candidate must still outperform the incumbent on drifted labels"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
