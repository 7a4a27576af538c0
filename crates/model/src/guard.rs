//! Divergence detection and recovery: the one guarded epoch loop both
//! training stages run.
//!
//! Pre-training ([`crate::pretrain::pretrain`]) and fine-tuning
//! (`nfm_core::pipeline`) each describe one batch of their objective as a
//! [`Trainee`]; a [`TrainGuard`] drives it. The guard owns the policy:
//! the per-epoch batch order, the epoch-start snapshot, the per-step check
//! of the loss and pre-clip gradient norm for NaN/Inf or explosion, the
//! step telemetry, and the recovery. When a check trips, the guard rolls
//! the trainee back to its snapshot, halves the learning rate, reshuffles
//! the batch order under a fresh seed, and retries; after
//! [`GuardConfig::max_retries`] failed attempts on the same epoch it gives
//! up with a typed [`TrainError::Diverged`] carrying the full recovery log.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

use nfm_tensor::checkpoint::CheckpointError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Pre-clip gradient norm above this counts as an explosion.
const MAX_GRAD_NORM: f32 = 1e3;

/// Learning-rate multiplier applied on each rollback.
const LR_BACKOFF: f32 = 0.5;

/// Thresholds and retry policy for divergence detection. A pre-clip
/// gradient norm above 1000 also counts as an explosion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GuardConfig {
    /// Per-step mean loss above this counts as an explosion.
    pub max_loss: f32,
    /// Retries per epoch before giving up with [`TrainError::Diverged`].
    pub max_retries: usize,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig { max_loss: 1e4, max_retries: 3 }
    }
}

impl GuardConfig {
    /// Check one training step. Returns the trip cause, or `None` when the
    /// step is healthy.
    fn inspect(&self, loss: f32, grad_norm: f32) -> Option<String> {
        if loss.is_nan() {
            Some("loss is NaN".to_string())
        } else if loss.is_infinite() {
            Some("loss is infinite".to_string())
        } else if loss > self.max_loss {
            Some(format!("loss {loss:.3e} exceeds {:.3e}", self.max_loss))
        } else if !grad_norm.is_finite() {
            Some(format!("gradient norm is {grad_norm}"))
        } else if grad_norm > MAX_GRAD_NORM {
            Some(format!("gradient norm {grad_norm:.3e} exceeds {MAX_GRAD_NORM:.3e}"))
        } else {
            None
        }
    }
}

/// One recovery action taken by the guard.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardEvent {
    /// Epoch in which the trip occurred.
    pub epoch: usize,
    /// Global step at the trip.
    pub step: u64,
    /// What tripped the check (e.g. "loss is NaN").
    pub cause: String,
    /// What recovery did (rollback target, new lr scale).
    pub action: String,
}

impl fmt::Display for GuardEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch {:>3}  step {:>6}  {:<28}  {}",
            self.epoch, self.step, self.cause, self.action
        )
    }
}

/// Why training failed.
#[derive(Debug)]
pub enum TrainError {
    /// The training corpus is empty.
    NoData,
    /// A hyperparameter holds a value training cannot run with; returned
    /// before any work starts.
    InvalidConfig {
        /// The config field, e.g. `batch_size`.
        field: &'static str,
        /// Its value, as `Debug` prints it.
        value: String,
        /// The values it must take.
        expected: &'static str,
    },
    /// Divergence persisted through every allowed retry.
    Diverged {
        /// Rollback attempts made on the failing stretch.
        attempts: usize,
        /// Everything the guard did before giving up.
        log: Vec<GuardEvent>,
    },
    /// A snapshot could not be written or a resume source could not be read.
    Checkpoint(CheckpointError),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::NoData => write!(f, "no training data"),
            TrainError::InvalidConfig { field, value, expected } => {
                write!(f, "invalid training config: {field} = {value}, expected {expected}")
            }
            TrainError::Diverged { attempts, log } => {
                writeln!(f, "training diverged after {attempts} recovery attempts:")?;
                for event in log {
                    writeln!(f, "  {event}")?;
                }
                Ok(())
            }
            TrainError::Checkpoint(e) => write!(f, "checkpoint failure during training: {e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

/// Check that a training loop can step with `batch_size` examples per
/// step; zero would divide by zero when counting the steps.
pub fn check_batch_size(batch_size: usize) -> Result<(), TrainError> {
    if batch_size == 0 {
        return Err(TrainError::InvalidConfig {
            field: "batch_size",
            value: "0".to_string(),
            expected: "at least 1",
        });
    }
    Ok(())
}

/// Deterministic per-epoch stream seed: mixes the base seed, the epoch, and
/// the guard's retry counter (so a rolled-back epoch replays with a fresh
/// batch order). SplitMix64-style finalizer.
pub(crate) fn epoch_seed(seed: u64, epoch: usize, salt: u64) -> u64 {
    let mut z = seed
        ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The telemetry names of one training stage: the `<prefix>.steps`
/// counter, the `<prefix>.grad_norm_milli` histogram, the
/// `<prefix>.rollbacks` counter and the `<prefix>.guard.rollback` event.
/// The `nfm_obs::counter!`-family macros cache the first name each call
/// site sees, so the guard looks these up in the registry instead; each
/// metric still registers on first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Telemetry {
    steps: &'static str,
    grad_norm: &'static str,
    rollbacks: &'static str,
    rollback: &'static str,
}

impl Telemetry {
    /// Pre-training: prefix `train`.
    pub const PRETRAIN: Telemetry = Telemetry {
        steps: "train.steps",
        grad_norm: "train.grad_norm_milli",
        rollbacks: "train.rollbacks",
        rollback: "train.guard.rollback",
    };
    /// Fine-tuning: prefix `finetune`.
    pub const FINETUNE: Telemetry = Telemetry {
        steps: "finetune.steps",
        grad_norm: "finetune.grad_norm_milli",
        rollbacks: "finetune.rollbacks",
        rollback: "finetune.guard.rollback",
    };
}

/// The state one training run updates: every module, optimizer and epoch
/// accumulator. `Clone` takes the epoch-start snapshot a tripped check
/// rolls back to, so anything a rollback must restore lives here.
pub trait Trainee: Clone {
    /// Compute one batch's gradients over the examples `idxs`: zero them,
    /// run the forward and backward passes, fold and clip them. Returns the
    /// loss the guard checks and the pre-clip gradient norm. `rng` is the
    /// epoch's stream, just past the shuffle; `step` numbers the step among
    /// every step attempted, rolled-back ones included.
    fn batch(&mut self, idxs: &[usize], rng: &mut StdRng, step: u64) -> (f32, f32);

    /// Step every optimizer on the gradients the last
    /// [`Trainee::batch`] left.
    fn apply(&mut self);

    /// Set every optimizer's learning-rate multiplier.
    fn set_lr_scale(&mut self, scale: f32);
}

/// The divergence-guarded epoch loop. [`TrainGuard::epoch`] shuffles,
/// snapshots, runs and checks every batch, and rolls back on a trip; the
/// [`Trainee`] supplies only the objective.
#[derive(Debug, Clone)]
pub struct TrainGuard {
    config: GuardConfig,
    telemetry: Telemetry,
    seed: u64,
    batch_size: usize,
    /// Recovery log, in order.
    pub(crate) events: Vec<GuardEvent>,
    /// Learning-rate multiplier: 1 until rollbacks scale it down.
    pub(crate) lr_scale: f32,
    /// Rollbacks so far in the run; salts the batch order.
    pub(crate) total_retries: u64,
    /// Steps attempted so far in the run, rolled-back ones included.
    pub(crate) global_step: u64,
}

impl TrainGuard {
    /// A guard for a fresh run: batches of `batch_size` shuffled from
    /// `seed`, reported under `telemetry`. A resumed run restores
    /// `lr_scale`, `total_retries` and `global_step` before its first
    /// epoch.
    pub fn new(
        config: GuardConfig,
        telemetry: Telemetry,
        seed: u64,
        batch_size: usize,
    ) -> TrainGuard {
        TrainGuard {
            config,
            telemetry,
            seed,
            batch_size,
            events: Vec::new(),
            lr_scale: 1.0,
            total_retries: 0,
            global_step: 0,
        }
    }

    /// Train `state` for epoch `epoch` over the examples `0..n_examples`,
    /// retrying a tripped attempt from the epoch-start snapshot until one
    /// completes or [`GuardConfig::max_retries`] retries are spent.
    pub fn epoch<T: Trainee>(
        &mut self,
        epoch: usize,
        n_examples: usize,
        state: &mut T,
    ) -> Result<(), TrainError> {
        let mut attempt = 0usize;
        loop {
            let snapshot = state.clone();
            // Deterministic shuffle from the identity permutation: the
            // order depends only on (seed, epoch, retries), never on earlier
            // epochs, or resumed runs would diverge.
            let mut order: Vec<usize> = (0..n_examples).collect();
            let mut rng = StdRng::seed_from_u64(epoch_seed(self.seed, epoch, self.total_retries));
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let Some((step, cause)) = self.attempt(&order, &mut rng, state) else {
                return Ok(());
            };
            attempt += 1;
            self.total_retries += 1;
            *state = snapshot;
            self.lr_scale *= LR_BACKOFF;
            state.set_lr_scale(self.lr_scale);
            nfm_obs::global().counter(self.telemetry.rollbacks, nfm_obs::Unit::Count).inc();
            nfm_obs::event(
                self.telemetry.rollback,
                &[
                    ("epoch", nfm_obs::Value::U(epoch as u64)),
                    ("step", nfm_obs::Value::U(step)),
                    ("cause", nfm_obs::Value::S(&cause)),
                    ("lr_scale", nfm_obs::Value::F32(self.lr_scale)),
                ],
            );
            let action = format!(
                "rolled back to epoch {epoch} start; lr_scale {:.4}; reshuffled",
                self.lr_scale
            );
            self.events.push(GuardEvent { epoch, step, cause, action });
            if attempt > self.config.max_retries {
                let log = std::mem::take(&mut self.events);
                return Err(TrainError::Diverged { attempts: attempt, log });
            }
        }
    }

    /// One attempt at an epoch: run, check and apply each batch of `order`.
    /// Returns the step and cause of the first trip, leaving that batch's
    /// optimizer steps untaken.
    fn attempt<T: Trainee>(
        &mut self,
        order: &[usize],
        rng: &mut StdRng,
        state: &mut T,
    ) -> Option<(u64, String)> {
        for batch in order.chunks(self.batch_size) {
            let step = self.global_step;
            self.global_step += 1;
            let (loss, grad_norm) = state.batch(batch, rng, step);
            let registry = nfm_obs::global();
            registry.counter(self.telemetry.steps, nfm_obs::Unit::Count).inc();
            registry
                .histogram(self.telemetry.grad_norm, nfm_obs::Unit::Milli, nfm_obs::NORM_EDGES)
                .observe((grad_norm as f64 * 1000.0) as u64);
            if let Some(cause) = self.config.inspect(loss, grad_norm) {
                return Some((step, cause));
            }
            state.apply();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_steps_pass() {
        let g = GuardConfig::default();
        assert_eq!(g.inspect(2.5, 4.0), None);
        assert_eq!(g.inspect(0.0, 0.0), None);
    }

    #[test]
    fn non_finite_and_exploding_values_trip() {
        let g = GuardConfig::default();
        assert!(g.inspect(f32::NAN, 1.0).unwrap().contains("NaN"));
        assert!(g.inspect(f32::INFINITY, 1.0).unwrap().contains("infinite"));
        assert!(g.inspect(1e9, 1.0).unwrap().contains("exceeds"));
        assert!(g.inspect(1.0, f32::NAN).unwrap().contains("gradient"));
        assert!(g.inspect(1.0, 1e9).unwrap().contains("gradient"));
    }

    #[test]
    fn epoch_seed_is_stable_and_spreads() {
        assert_eq!(epoch_seed(1, 0, 0), epoch_seed(1, 0, 0));
        assert_ne!(epoch_seed(1, 0, 0), epoch_seed(1, 1, 0));
        assert_ne!(epoch_seed(1, 0, 0), epoch_seed(1, 0, 1));
        assert_ne!(epoch_seed(1, 0, 0), epoch_seed(2, 0, 0));
    }

    #[test]
    fn diverged_error_formats_log() {
        let err = TrainError::Diverged {
            attempts: 2,
            log: vec![GuardEvent {
                epoch: 1,
                step: 17,
                cause: "loss is NaN".into(),
                action: "rollback; lr_scale=0.5".into(),
            }],
        };
        let text = err.to_string();
        assert!(text.contains("2 recovery attempts"));
        assert!(text.contains("loss is NaN"));
        assert!(text.contains("lr_scale=0.5"));
    }
}
