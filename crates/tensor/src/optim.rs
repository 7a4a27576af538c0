//! Optimizers (SGD with momentum, Adam), gradient clipping, and learning
//! rate schedules (constant, linear warmup + decay).
//!
//! Optimizers address parameters through [`Module::visit_params`]; per-slot
//! state (momentum, Adam moments) is allocated lazily and aligned by visit
//! order, which every layer keeps stable. Each update walks a slot's
//! parameter, gradient and state slices zipped, so the per-element loop
//! carries no bounds checks and vectorises; every element keeps the plain
//! scalar expression, so the bits are the indexed loop's.

use crate::layers::Module;
use crate::pool;

/// Learning-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Fixed rate.
    Constant(f32),
    /// Linear warmup over `warmup` steps to `peak`, then linear decay to
    /// zero at `total` steps.
    WarmupLinear {
        /// Peak learning rate.
        peak: f32,
        /// Warmup steps.
        warmup: usize,
        /// Total steps (decay reaches 0 here).
        total: usize,
    },
}

impl Schedule {
    /// Learning rate at step `t` (0-based).
    pub fn lr(&self, t: usize) -> f32 {
        match *self {
            Schedule::Constant(lr) => lr,
            Schedule::WarmupLinear { peak, warmup, total } => {
                if t < warmup {
                    peak * (t + 1) as f32 / warmup.max(1) as f32
                } else if t >= total {
                    0.0
                } else {
                    peak * (total - t) as f32 / (total - warmup).max(1) as f32
                }
            }
        }
    }
}

/// Clip all gradients so the global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm.
pub fn clip_global_norm(model: &mut dyn Module, max_norm: f32) -> f32 {
    // Per-slot fixed-shard sums folded in visit order: the norm is a pure
    // function of the gradient values, independent of the thread count.
    let mut sq = 0.0f32;
    model.visit_params(&mut |_, g| sq += pool::sum_sq(g));
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        model.visit_params(&mut |_, g| {
            for v in g {
                *v *= scale;
            }
        });
    }
    norm
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning-rate schedule.
    pub schedule: Schedule,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    t: usize,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Create with a schedule and momentum.
    pub fn new(schedule: Schedule, momentum: f32) -> Sgd {
        Sgd { schedule, momentum, t: 0, velocity: Vec::new() }
    }

    /// Apply one update step; gradients are left untouched (call
    /// `zero_grad` afterwards).
    pub fn step(&mut self, model: &mut dyn Module) {
        let lr = self.schedule.lr(self.t);
        self.t += 1;
        let momentum = self.momentum;
        let mut slot = 0;
        let velocity = &mut self.velocity;
        model.visit_params(&mut |p, g| {
            if velocity.len() <= slot {
                velocity.push(vec![0.0; p.len()]);
            }
            let v = &mut velocity[slot];
            assert!(
                v.len() == p.len() && g.len() == p.len(),
                "parameter shapes changed between steps"
            );
            for ((p, &g), v) in p.iter_mut().zip(g.iter()).zip(v.iter_mut()) {
                *v = momentum * *v + g;
                *p -= lr * *v;
            }
            slot += 1;
        });
    }

    /// Steps taken so far.
    pub fn steps(&self) -> usize {
        self.t
    }
}

/// Adam's bias correction `1 − bᵗ` after `t` steps. Its bits are the host
/// libm's `powf`; a test pins them for the default betas over the first
/// 100,000 steps.
fn bias_correction(b: f32, t: usize) -> f32 {
    1.0 - b.powf(t as f32)
}

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning-rate schedule.
    pub schedule: Schedule,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Decoupled weight decay (AdamW-style; 0 disables).
    pub weight_decay: f32,
    t: usize,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
    lr_scale: f32,
}

impl Adam {
    /// Create with standard betas.
    pub fn new(schedule: Schedule) -> Adam {
        Adam {
            schedule,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
            lr_scale: 1.0,
        }
    }

    /// Multiplier applied on top of the schedule's learning rate. Divergence
    /// recovery halves this to back off without rebuilding the schedule.
    pub fn lr_scale(&self) -> f32 {
        self.lr_scale
    }

    /// Set the learning-rate multiplier (see [`Adam::lr_scale`]).
    pub fn set_lr_scale(&mut self, scale: f32) {
        self.lr_scale = scale;
    }

    /// Internal state for checkpointing: `(t, m, v)`.
    pub fn state(&self) -> (usize, &[Vec<f32>], &[Vec<f32>]) {
        (self.t, &self.m, &self.v)
    }

    /// Restore internal state from a checkpoint.
    pub fn restore_state(&mut self, t: usize, m: Vec<Vec<f32>>, v: Vec<Vec<f32>>) {
        self.t = t;
        self.m = m;
        self.v = v;
    }

    /// Apply one update step.
    pub fn step(&mut self, model: &mut dyn Module) {
        let lr = self.schedule.lr(self.t) * self.lr_scale;
        self.t += 1;
        let (b1, b2, eps, wd) = (self.beta1, self.beta2, self.eps, self.weight_decay);
        let (bc1, bc2) = (bias_correction(b1, self.t), bias_correction(b2, self.t));
        let mut slot = 0;
        let (ms, vs) = (&mut self.m, &mut self.v);
        model.visit_params(&mut |p, g| {
            if ms.len() <= slot {
                ms.push(vec![0.0; p.len()]);
                vs.push(vec![0.0; p.len()]);
            }
            let (m, v) = (&mut ms[slot], &mut vs[slot]);
            assert!(
                m.len() == p.len() && v.len() == p.len() && g.len() == p.len(),
                "parameter shapes changed between steps"
            );
            let elems = p.iter_mut().zip(g.iter()).zip(m.iter_mut().zip(v.iter_mut()));
            for ((p, &g), (m, v)) in elems {
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *p -= lr * (mhat / (vhat.sqrt() + eps) + wd * *p);
            }
            slot += 1;
        });
    }

    /// Steps taken so far.
    pub fn steps(&self) -> usize {
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Module};
    use crate::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Minimize ||x·W + b - target||² with each optimizer; loss must drop.
    fn train_once(use_adam: bool) -> (f32, f32) {
        let mut rng = StdRng::seed_from_u64(11);
        let mut layer = Linear::new(&mut rng, 3, 2);
        let x = crate::init::normal(&mut rng, 8, 3, 1.0);
        // Realizable target: generated by a hidden linear layer, so the
        // optimum loss is zero.
        let true_layer = Linear::new(&mut rng, 3, 2);
        let target = true_layer.forward_inference(&x);
        let mut sgd = Sgd::new(Schedule::Constant(0.05), 0.9);
        let mut adam = Adam::new(Schedule::Constant(0.05));
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            layer.zero_grad();
            let y = layer.forward(&x);
            let mut diff = y.clone();
            diff.sub_assign(&target);
            let loss: f32 = diff.data().iter().map(|v| v * v).sum::<f32>();
            let dy = diff.map(|v| 2.0 * v);
            layer.backward(&dy);
            if use_adam {
                adam.step(&mut layer);
            } else {
                sgd.step(&mut layer);
            }
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
        }
        (first.unwrap(), last)
    }

    #[test]
    fn sgd_reduces_loss() {
        let (first, last) = train_once(false);
        assert!(last < first * 0.05, "first {first} last {last}");
    }

    #[test]
    fn adam_reduces_loss() {
        let (first, last) = train_once(true);
        assert!(last < first * 0.05, "first {first} last {last}");
    }

    #[test]
    fn warmup_schedule_shape() {
        let s = Schedule::WarmupLinear { peak: 1.0, warmup: 10, total: 110 };
        assert!(s.lr(0) < s.lr(5));
        assert!((s.lr(9) - 1.0).abs() < 1e-6);
        assert!(s.lr(10) <= 1.0);
        assert!(s.lr(60) < s.lr(10));
        assert_eq!(s.lr(110), 0.0);
        assert_eq!(s.lr(1000), 0.0);
    }

    #[test]
    fn clip_reduces_large_gradients() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut layer = Linear::new(&mut rng, 4, 4);
        let x = crate::init::normal(&mut rng, 4, 4, 100.0);
        let y = layer.forward(&x);
        layer.backward(&y.map(|v| v * 100.0));
        let pre = clip_global_norm(&mut layer, 1.0);
        assert!(pre > 1.0);
        // After clipping, the norm is at most 1.
        let mut sq = 0.0f32;
        layer.visit_params(&mut |_, g| {
            for v in g {
                sq += *v * *v;
            }
        });
        assert!(sq.sqrt() <= 1.0 + 1e-4);
    }

    #[test]
    fn clip_noop_when_small() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut layer = Linear::new(&mut rng, 2, 2);
        layer.zero_grad();
        let pre = clip_global_norm(&mut layer, 10.0);
        assert_eq!(pre, 0.0);
    }

    /// A module of bare `(param, grad)` slots, so a test sets every
    /// gradient directly.
    struct Slots(Vec<(Vec<f32>, Vec<f32>)>);

    impl Module for Slots {
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
            for (p, g) in &mut self.0 {
                f(p, g);
            }
        }
    }

    /// Three slots of odd and vector-multiple lengths with random weights.
    fn random_slots(rng: &mut StdRng) -> Slots {
        let slot = |rng: &mut StdRng, len| {
            (crate::init::normal(rng, 1, len, 1.0).into_data(), vec![0.0; len])
        };
        Slots(vec![slot(rng, 37), slot(rng, 64), slot(rng, 5)])
    }

    /// Fresh random gradients, with exact zeros and large values mixed in.
    fn set_random_grads(rng: &mut StdRng, slots: &mut Slots) {
        for (_, g) in &mut slots.0 {
            let fresh = crate::init::normal(rng, 1, g.len(), 1.0);
            for (i, (g, &x)) in g.iter_mut().zip(fresh.data()).enumerate() {
                *g = match i % 7 {
                    0 => 0.0,
                    3 => x * 1e4,
                    _ => x,
                };
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// A slot's sum of squares: one sequential sum below 4096 elements,
    /// otherwise the in-order fold of its `REDUCE_SHARDS` shard sums.
    fn slot_sum_sq(g: &[f32]) -> f32 {
        let seq = |xs: &[f32]| xs.iter().fold(0.0f32, |acc, v| acc + v * v);
        if g.len() < 4096 {
            return seq(g);
        }
        let shards = pool::shard_ranges(g.len(), pool::REDUCE_SHARDS);
        shards.into_iter().fold(0.0f32, |acc, r| acc + seq(&g[r]))
    }

    #[test]
    fn clip_global_norm_matches_the_shard_fold_and_scale_bitwise() {
        let mut rng = StdRng::seed_from_u64(18);
        let mut model = Slots([5, 4096, 10_007].map(|len| (vec![0.0; len], vec![0.0; len])).into());
        // Several draws: a reordered fold can keep the bits of one draw.
        for draw in 0..8 {
            set_random_grads(&mut rng, &mut model);
            let grads: Vec<Vec<f32>> = model.0.iter().map(|(_, g)| g.clone()).collect();
            for g in &grads {
                let (got, want) = (pool::sum_sq(g), slot_sum_sq(g));
                let len = g.len();
                assert_eq!(got.to_bits(), want.to_bits(), "sum of squares, {len} elements, {draw}");
            }
            let want_norm = grads.iter().fold(0.0f32, |acc, g| acc + slot_sum_sq(g)).sqrt();
            let max_norm = 1.0;
            let norm = clip_global_norm(&mut model, max_norm);
            assert_eq!(norm.to_bits(), want_norm.to_bits(), "norm {norm} vs {want_norm}, {draw}");
            assert!(norm > max_norm, "the gradients must be clipped");
            let scale = max_norm / norm;
            for (s, ((_, got), g)) in model.0.iter().zip(&grads).enumerate() {
                let want: Vec<f32> = g.iter().map(|v| v * scale).collect();
                assert_eq!(bits(got), bits(&want), "clipped gradients, slot {s}, draw {draw}");
            }
        }
    }

    #[test]
    fn adam_matches_the_plain_per_element_loop_bitwise() {
        let mut rng = StdRng::seed_from_u64(15);
        let mut model = random_slots(&mut rng);
        let mut want: Vec<Vec<f32>> = model.0.iter().map(|(p, _)| p.clone()).collect();
        let mut m: Vec<Vec<f32>> = want.iter().map(|p| vec![0.0; p.len()]).collect();
        let mut v = m.clone();
        let schedule = Schedule::WarmupLinear { peak: 0.01, warmup: 3, total: 12 };
        let mut adam = Adam::new(schedule);
        adam.weight_decay = 0.01;
        adam.set_lr_scale(0.5);
        let (b1, b2, eps, wd) = (adam.beta1, adam.beta2, adam.eps, adam.weight_decay);
        for step in 0..10 {
            set_random_grads(&mut rng, &mut model);
            adam.step(&mut model);
            let lr = schedule.lr(step) * 0.5;
            let t = (step + 1) as f32;
            let (bc1, bc2) = (1.0 - b1.powf(t), 1.0 - b2.powf(t));
            for (s, (_, g)) in model.0.iter().enumerate() {
                let (p, m, v) = (&mut want[s], &mut m[s], &mut v[s]);
                for i in 0..p.len() {
                    m[i] = b1 * m[i] + (1.0 - b1) * g[i];
                    v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
                    let mhat = m[i] / bc1;
                    let vhat = v[i] / bc2;
                    p[i] -= lr * (mhat / (vhat.sqrt() + eps) + wd * p[i]);
                }
            }
            let (steps, got_m, got_v) = adam.state();
            assert_eq!(steps, step + 1);
            for (s, (p, _)) in model.0.iter().enumerate() {
                assert_eq!(bits(p), bits(&want[s]), "params, slot {s}, step {step}");
                assert_eq!(bits(&got_m[s]), bits(&m[s]), "first moment, slot {s}, step {step}");
                assert_eq!(bits(&got_v[s]), bits(&v[s]), "second moment, slot {s}, step {step}");
            }
        }
    }

    #[test]
    fn sgd_matches_the_plain_per_element_loop_bitwise() {
        let mut rng = StdRng::seed_from_u64(16);
        let mut model = random_slots(&mut rng);
        let mut want: Vec<Vec<f32>> = model.0.iter().map(|(p, _)| p.clone()).collect();
        let mut velocity: Vec<Vec<f32>> = want.iter().map(|p| vec![0.0; p.len()]).collect();
        let schedule = Schedule::WarmupLinear { peak: 0.05, warmup: 3, total: 12 };
        let mut sgd = Sgd::new(schedule, 0.9);
        for step in 0..10 {
            set_random_grads(&mut rng, &mut model);
            sgd.step(&mut model);
            let lr = schedule.lr(step);
            for (s, (_, g)) in model.0.iter().enumerate() {
                let (p, v) = (&mut want[s], &mut velocity[s]);
                for i in 0..p.len() {
                    v[i] = sgd.momentum * v[i] + g[i];
                    p[i] -= lr * v[i];
                }
            }
            for (s, (p, _)) in model.0.iter().enumerate() {
                assert_eq!(bits(p), bits(&want[s]), "params, slot {s}, step {step}");
            }
        }
    }

    /// FNV-1a over the bits of Adam's bias corrections for steps `1..=n`.
    fn bias_correction_digest(b: f32, n: usize) -> u64 {
        (1..=n).fold(0xcbf2_9ce4_8422_2325, |h, t| {
            let bits = bias_correction(b, t).to_bits();
            (h ^ u64::from(bits)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// `powf` is the one libm call in the optimizer step, and glibc picks
    /// an FMA or a non-FMA build of it by host. These digests pin its bits
    /// for both default betas over the first 100,000 steps, far past the
    /// longest training run; CI runs this test under both builds.
    #[test]
    fn adam_bias_corrections_match_their_pinned_digest() {
        assert_eq!(bias_correction_digest(0.9, 100_000), 12625982480814243395, "beta1 = 0.9");
        assert_eq!(bias_correction_digest(0.999, 100_000), 3457208062141925059, "beta2 = 0.999");
    }

    #[test]
    fn matrix_target_shapes_preserved() {
        // Guard that optimizers don't corrupt shapes (params stay finite).
        let mut rng = StdRng::seed_from_u64(14);
        let mut layer = Linear::new(&mut rng, 5, 3);
        let x = crate::init::normal(&mut rng, 2, 5, 1.0);
        let mut adam = Adam::new(Schedule::Constant(0.001));
        for _ in 0..10 {
            layer.zero_grad();
            let y = layer.forward(&x);
            layer.backward(&y);
            adam.step(&mut layer);
        }
        assert!(layer.w.is_finite());
        let y = layer.forward(&Matrix::zeros(1, 5));
        assert_eq!(y.cols(), 3);
    }
}
