//! Neural-network layers with explicit forward/backward passes.
//!
//! Each layer caches what its backward pass needs, accumulates parameter
//! gradients, and exposes its `(param, grad)` pairs through
//! [`Module::visit_params`] so optimizers can remain layer-agnostic.

use rand::Rng;

use crate::init;
use crate::matrix::Matrix;

/// Anything that owns trainable parameters.
pub trait Module {
    /// Call `f(param, grad)` for every parameter tensor, in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32]));

    /// Zero all gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.iter_mut().for_each(|v| *v = 0.0));
    }

    /// Total parameter count.
    fn n_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }

    /// Snapshot every gradient slot, in visit order. Used by data-parallel
    /// training to ship a worker replica's gradients back for reduction.
    fn export_grads(&mut self) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        self.visit_params(&mut |_, g| out.push(g.to_vec()));
        out
    }

    /// Add a gradient snapshot (from [`Module::export_grads`] on a replica
    /// of this module) into this module's gradient slots. Slot order and
    /// shapes must match; data-parallel reducers call this once per shard,
    /// in fixed shard order, so the accumulated sum is deterministic.
    fn accumulate_grads(&mut self, grads: &[Vec<f32>]) {
        let mut slot = 0;
        self.visit_params(&mut |_, g| {
            let src = &grads[slot];
            assert_eq!(src.len(), g.len(), "gradient slot {slot} shape mismatch");
            for (gi, &si) in g.iter_mut().zip(src) {
                *gi += si;
            }
            slot += 1;
        });
        assert_eq!(slot, grads.len(), "gradient slot count mismatch");
    }
}

/// Fully-connected layer `y = x·W + b` (W is in×out).
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weights, `in × out`.
    pub w: Matrix,
    /// Bias, length `out`.
    pub b: Vec<f32>,
    gw: Matrix,
    gb: Vec<f32>,
    cache_x: Option<Matrix>,
}

impl Linear {
    /// Create with Xavier-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, n_in: usize, n_out: usize) -> Linear {
        Linear {
            w: init::xavier_uniform(rng, n_in, n_out),
            b: vec![0.0; n_out],
            gw: Matrix::zeros(n_in, n_out),
            gb: vec![0.0; n_out],
            cache_x: None,
        }
    }

    /// Forward pass, caching the input for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        y.add_row_broadcast(&self.b);
        self.cache_x = Some(x.clone());
        y
    }

    /// Forward without caching (inference).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        y.add_row_broadcast(&self.b);
        y
    }

    /// Backward pass: accumulate gradients, return dL/dx.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let x = self.cache_x.as_ref().expect("forward before backward");
        self.gw.add_assign(&x.matmul_tn(dy));
        for r in 0..dy.rows() {
            for (gb, d) in self.gb.iter_mut().zip(dy.row(r)) {
                *gb += d;
            }
        }
        dy.matmul_nt(&self.w)
    }
}

impl Module for Linear {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(self.w.data_mut(), self.gw.data_mut());
        f(&mut self.b, &mut self.gb);
    }
}

/// Token embedding table with scatter-add backward.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Table, `vocab × dim`.
    pub table: Matrix,
    grad: Matrix,
    cache_ids: Vec<usize>,
}

impl Embedding {
    /// Create with `N(0, 0.02)` entries (BERT-style).
    pub fn new<R: Rng + ?Sized>(rng: &mut R, vocab: usize, dim: usize) -> Embedding {
        Embedding {
            table: init::normal(rng, vocab, dim, 0.02),
            grad: Matrix::zeros(vocab, dim),
            cache_ids: Vec::new(),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.cols()
    }

    /// Gather rows for `ids` (one output row per id).
    pub fn forward(&mut self, ids: &[usize]) -> Matrix {
        self.cache_ids = ids.to_vec();
        self.lookup(ids)
    }

    /// Gather without caching (inference).
    pub fn lookup(&self, ids: &[usize]) -> Matrix {
        let dim = self.dim();
        let mut out = Matrix::zeros(ids.len(), dim);
        for (r, &id) in ids.iter().enumerate() {
            assert!(id < self.vocab(), "token id {id} out of range");
            out.row_mut(r).copy_from_slice(self.table.row(id));
        }
        out
    }

    /// Scatter-add gradients for the cached ids.
    pub fn backward(&mut self, dy: &Matrix) {
        assert_eq!(dy.rows(), self.cache_ids.len());
        for (r, &id) in self.cache_ids.iter().enumerate() {
            for (g, d) in self.grad.row_mut(id).iter_mut().zip(dy.row(r)) {
                *g += d;
            }
        }
    }
}

impl Module for Embedding {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(self.table.data_mut(), self.grad.data_mut());
    }
}

/// Layer normalization over the last dimension with learned scale/shift.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale, length `dim`.
    pub gamma: Vec<f32>,
    /// Shift, length `dim`.
    pub beta: Vec<f32>,
    g_gamma: Vec<f32>,
    g_beta: Vec<f32>,
    eps: f32,
    cache: Option<(Matrix, Vec<f32>)>, // normalized x, inv_std
}

impl LayerNorm {
    /// Create with unit scale and zero shift.
    pub fn new(dim: usize) -> LayerNorm {
        LayerNorm {
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            g_gamma: vec![0.0; dim],
            g_beta: vec![0.0; dim],
            eps: 1e-5,
            cache: None,
        }
    }

    /// Forward pass, caching the normalized input and inverse deviations.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.gamma.len());
        let d = x.cols();
        let mut out = Matrix::zeros(x.rows(), d);
        let mut xhat = Matrix::zeros(x.rows(), d);
        let mut inv_stds = Vec::with_capacity(x.rows());
        for r in 0..x.rows() {
            let row = x.row(r);
            let (mean, inv_std) = self.row_stats(row);
            let params = self.gamma.iter().zip(&self.beta);
            let outs = xhat.row_mut(r).iter_mut().zip(out.row_mut(r));
            for (((h, o), &v), (g, b)) in outs.zip(row).zip(params) {
                *h = (v - mean) * inv_std;
                *o = *h * g + b;
            }
            inv_stds.push(inv_std);
        }
        self.cache = Some((xhat, inv_stds));
        out
    }

    /// Forward without caching (inference): writes only the output, with
    /// the same per-element arithmetic as [`LayerNorm::forward`].
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        assert_eq!(x.cols(), self.gamma.len());
        let d = x.cols();
        let mut out = Matrix::zeros(x.rows(), d);
        for r in 0..x.rows() {
            let row = x.row(r);
            let (mean, inv_std) = self.row_stats(row);
            let params = self.gamma.iter().zip(&self.beta);
            for ((o, &v), (g, b)) in out.row_mut(r).iter_mut().zip(row).zip(params) {
                *o = (v - mean) * inv_std * g + b;
            }
        }
        out
    }

    /// Mean and inverse standard deviation of one row.
    fn row_stats(&self, row: &[f32]) -> (f32, f32) {
        let d = row.len() as f32;
        let mean = row.iter().sum::<f32>() / d;
        let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d;
        (mean, 1.0 / (var + self.eps).sqrt())
    }

    /// Backward pass: accumulate gamma/beta gradients, return dL/dx. `dy`
    /// must have the rows of the last forward.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let (xhat, inv_stds) = self.cache.as_ref().expect("forward before backward");
        assert_eq!(dy.rows(), inv_stds.len(), "LayerNorm backward row count");
        let d = dy.cols();
        let n = d as f32;
        let mut dx = Matrix::zeros(dy.rows(), d);
        let mut dxhat = vec![0.0f32; d];
        for (r, &inv_std) in inv_stds.iter().enumerate() {
            let dyr = dy.row(r);
            let xh = xhat.row(r);
            // Accumulate parameter grads.
            let grads = self.g_gamma.iter_mut().zip(&mut self.g_beta);
            for ((gg, gb), (&dv, &h)) in grads.zip(dyr.iter().zip(xh)) {
                *gg += dv * h;
                *gb += dv;
            }
            // dxhat = dy * gamma
            for ((dh, &dv), &g) in dxhat.iter_mut().zip(dyr).zip(&self.gamma) {
                *dh = dv * g;
            }
            let sum_dxhat: f32 = dxhat.iter().sum();
            let sum_dxhat_xhat: f32 = dxhat.iter().zip(xh).map(|(a, b)| a * b).sum();
            for ((o, &dh), &h) in dx.row_mut(r).iter_mut().zip(&dxhat).zip(xh) {
                *o = (n * dh - sum_dxhat - h * sum_dxhat_xhat) * inv_std / n;
            }
        }
        dx
    }
}

impl Module for LayerNorm {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.gamma, &mut self.g_gamma);
        f(&mut self.beta, &mut self.g_beta);
    }
}

/// GELU activation (tanh approximation) with cached backward.
#[derive(Debug, Clone, Default)]
pub struct Gelu {
    cache_x: Option<Matrix>,
}

#[inline(always)]
fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    0.5 * x * (1.0 + crate::fastmath::tanhf(C * (x + 0.044715 * x * x * x)))
}

#[inline(always)]
fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let x3 = x * x * x;
    let t = crate::fastmath::tanhf(C * (x + 0.044715 * x3));
    let sech2 = 1.0 - t * t;
    0.5 * (1.0 + t) + 0.5 * x * sech2 * C * (1.0 + 3.0 * 0.044715 * x * x)
}

impl Gelu {
    /// Create.
    pub fn new() -> Gelu {
        Gelu::default()
    }

    /// Forward pass with caching.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.cache_x = Some(x.clone());
        x.map(gelu_scalar)
    }

    /// Forward without caching.
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        x.map(gelu_scalar)
    }

    /// Backward pass: `gelu'(x) * dy` per element, in one pass.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let x = self.cache_x.as_ref().expect("forward before backward");
        x.zip_map(dy, |x, d| gelu_grad_scalar(x) * d)
    }
}

/// Sigmoid applied elementwise (used by the GRU).
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference gradient check for a scalar loss L = sum(layer(x)).
    fn grad_check_linear() -> (f32, f32) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Linear::new(&mut rng, 4, 3);
        let x = init::normal(&mut rng, 2, 4, 1.0);
        let y = layer.forward(&x);
        let dy = Matrix::from_fn(y.rows(), y.cols(), |_, _| 1.0);
        let dx = layer.backward(&dy);

        // Numeric dL/dx[0,0].
        let eps = 1e-3;
        let mut xp = x.clone();
        xp.set(0, 0, x.get(0, 0) + eps);
        let mut xm = x.clone();
        xm.set(0, 0, x.get(0, 0) - eps);
        let lp: f32 = layer.forward_inference(&xp).data().iter().sum();
        let lm: f32 = layer.forward_inference(&xm).data().iter().sum();
        ((lp - lm) / (2.0 * eps), dx.get(0, 0))
    }

    #[test]
    fn linear_gradient_matches_finite_difference() {
        let (numeric, analytic) = grad_check_linear();
        assert!((numeric - analytic).abs() < 1e-2, "numeric {numeric} analytic {analytic}");
    }

    #[test]
    fn linear_weight_gradient_check() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = Linear::new(&mut rng, 3, 2);
        let x = init::normal(&mut rng, 2, 3, 1.0);
        layer.zero_grad();
        let y = layer.forward(&x);
        let dy = Matrix::from_fn(y.rows(), y.cols(), |_, _| 1.0);
        layer.backward(&dy);
        // Numeric dL/dW[0,0].
        let eps = 1e-3;
        let orig = layer.w.get(0, 0);
        layer.w.set(0, 0, orig + eps);
        let lp: f32 = layer.forward_inference(&x).data().iter().sum();
        layer.w.set(0, 0, orig - eps);
        let lm: f32 = layer.forward_inference(&x).data().iter().sum();
        layer.w.set(0, 0, orig);
        let numeric = (lp - lm) / (2.0 * eps);
        let mut analytic = None;
        let mut first = true;
        layer.visit_params(&mut |_, g| {
            if first {
                analytic = Some(g[0]);
                first = false;
            }
        });
        let analytic = analytic.unwrap();
        assert!((numeric - analytic).abs() < 1e-2, "numeric {numeric} analytic {analytic}");
    }

    #[test]
    fn embedding_scatter_add() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut emb = Embedding::new(&mut rng, 10, 4);
        let out = emb.forward(&[3, 3, 7]);
        assert_eq!(out.rows(), 3);
        assert_eq!(out.row(0), out.row(1));
        let dy = Matrix::from_fn(3, 4, |_, _| 1.0);
        emb.backward(&dy);
        let mut grads = Vec::new();
        emb.visit_params(&mut |_, g| grads = g.to_vec());
        // Token 3 was used twice → its grad row is 2.0 everywhere.
        assert_eq!(&grads[3 * 4..4 * 4], &[2.0, 2.0, 2.0, 2.0]);
        assert_eq!(&grads[7 * 4..8 * 4], &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(&grads[0..4], &[0.0; 4]);
    }

    #[test]
    fn layernorm_output_is_normalized() {
        let mut ln = LayerNorm::new(8);
        let x = Matrix::from_fn(4, 8, |r, c| (r * 8 + c) as f32);
        let y = ln.forward(&x);
        for r in 0..4 {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-4);
            assert!((var - 1.0).abs() < 1e-2);
        }
    }

    #[test]
    fn layernorm_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut ln = LayerNorm::new(5);
        // Non-trivial gamma.
        for (i, g) in ln.gamma.iter_mut().enumerate() {
            *g = 1.0 + 0.1 * i as f32;
        }
        let x = init::normal(&mut rng, 3, 5, 1.0);
        // L = sum of elementwise square of output (non-linear in output so
        // the check exercises dy ≠ const).
        let y = ln.forward(&x);
        let dy = y.map(|v| 2.0 * v);
        let dx = ln.backward(&dy);

        let eps = 1e-2;
        let mut max_err = 0.0f32;
        for (r, c) in [(0, 0), (1, 3), (2, 4)] {
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + eps);
            let mut xm = x.clone();
            xm.set(r, c, x.get(r, c) - eps);
            let lp: f32 = ln.forward_inference(&xp).data().iter().map(|v| v * v).sum();
            let lm: f32 = ln.forward_inference(&xm).data().iter().map(|v| v * v).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let err = (numeric - dx.get(r, c)).abs() / numeric.abs().max(1.0);
            max_err = max_err.max(err);
        }
        assert!(max_err < 0.05, "max relative error {max_err}");
    }

    #[test]
    fn gelu_gradient_matches_finite_difference() {
        let mut g = Gelu::new();
        let x = Matrix::from_vec(1, 5, vec![-2.0, -0.5, 0.0, 0.5, 2.0]);
        let _ = g.forward(&x);
        let dy = Matrix::from_fn(1, 5, |_, _| 1.0);
        let dx = g.backward(&dy);
        let eps = 1e-3;
        for c in 0..5 {
            let numeric =
                (gelu_scalar(x.get(0, c) + eps) - gelu_scalar(x.get(0, c) - eps)) / (2.0 * eps);
            assert!((numeric - dx.get(0, c)).abs() < 1e-2, "col {c}");
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// The tanh argument `gelu_grad_scalar` computes for `x`.
    fn gelu_tanh_arg(x: f32) -> f32 {
        0.797_884_6 * (x + 0.044715 * (x * x * x))
    }

    /// GELU inputs around every branch threshold of `fastmath::tanhf` in
    /// its argument `u`: the tiny path (2^-55), the `k = 0` and `k = ±1`
    /// reductions, the `|u| < 1` switch, every step of the reduction index
    /// `k` (which picks the reconstruction at 23 and 57), and saturation
    /// at 22. For each, the smallest positive `x` whose argument reaches
    /// it, its 16 neighbours on either side, and their negations.
    fn tanh_threshold_inputs() -> Vec<f32> {
        let ln2 = std::f32::consts::LN_2;
        let mut thresholds = vec![
            f32::from_bits(0x2400_0000),
            f32::from_bits(0x3e31_7218),
            f32::from_bits(0x3f05_1592),
            1.0,
            22.0,
        ];
        thresholds.extend((2..=63).map(|k| (k as f32 + 0.5) * ln2 / 2.0));
        let mut xs = Vec::new();
        for tau in thresholds {
            // The argument is monotone in x, and positive floats order
            // like their bits, so bisect on the bits.
            let (mut lo, mut hi) = (0u32, 0x4200_0000u32);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if gelu_tanh_arg(f32::from_bits(mid)) >= tau {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            for b in lo.saturating_sub(16)..=lo + 16 {
                xs.push(f32::from_bits(b));
                xs.push(-f32::from_bits(b));
            }
        }
        xs
    }

    #[test]
    fn gelu_backward_is_bitwise_the_two_pass_product() {
        let mut xs = tanh_threshold_inputs();
        xs.extend([0.0, -0.0, f32::MIN_POSITIVE, f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
        let mut x = -12.0f32;
        while x < 12.0 {
            xs.push(x);
            x += 0.001;
        }
        let mut state = 0x9e37_79b9_u32;
        for _ in 0..20_000 {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            xs.push(f32::from_bits(state));
        }
        // An odd width, so vectorised loops also run their scalar tails.
        let cols = 37;
        xs.resize(xs.len().div_ceil(cols) * cols, 0.5);
        let x = Matrix::from_vec(xs.len() / cols, cols, xs);
        let dy = init::normal(&mut StdRng::seed_from_u64(8), x.rows(), cols, 1.0);
        let mut g = Gelu::new();
        let _ = g.forward(&x);
        let got = g.backward(&dy);
        let want = x.map(gelu_grad_scalar).zip_map(&dy, |g, d| g * d);
        for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
            let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
            assert!(same, "x {:e}: one pass {g:e}, two passes {w:e}", x.data()[i]);
        }
    }

    /// `LayerNorm` written element by element: the forward output, the
    /// normalised rows and inverse deviations it caches, then the backward
    /// pass's `dx` with the parameter gradients accumulated into `g_gamma`
    /// and `g_beta`.
    struct PerElementLayerNorm {
        gamma: Vec<f32>,
        beta: Vec<f32>,
        eps: f32,
        g_gamma: Vec<f32>,
        g_beta: Vec<f32>,
    }

    // Index loops are the point of this reference.
    #[allow(clippy::needless_range_loop)]
    impl PerElementLayerNorm {
        fn forward(&self, x: &Matrix) -> (Matrix, Matrix, Vec<f32>) {
            let d = x.cols();
            let mut out = Matrix::zeros(x.rows(), d);
            let mut xhat = Matrix::zeros(x.rows(), d);
            let mut inv_stds = Vec::new();
            for r in 0..x.rows() {
                let row = x.row(r);
                let mean = row.iter().sum::<f32>() / d as f32;
                let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
                let inv_std = 1.0 / (var + self.eps).sqrt();
                for c in 0..d {
                    let h = (row[c] - mean) * inv_std;
                    xhat.set(r, c, h);
                    out.set(r, c, h * self.gamma[c] + self.beta[c]);
                }
                inv_stds.push(inv_std);
            }
            (out, xhat, inv_stds)
        }

        fn backward(&mut self, xhat: &Matrix, inv_stds: &[f32], dy: &Matrix) -> Matrix {
            let d = dy.cols();
            let mut dx = Matrix::zeros(dy.rows(), d);
            for (r, &inv_std) in inv_stds.iter().enumerate() {
                for c in 0..d {
                    self.g_gamma[c] += dy.get(r, c) * xhat.get(r, c);
                    self.g_beta[c] += dy.get(r, c);
                }
                let dxhat: Vec<f32> = (0..d).map(|c| dy.get(r, c) * self.gamma[c]).collect();
                let sum_dxhat: f32 = dxhat.iter().sum();
                let sum_dxhat_xhat: f32 = dxhat.iter().zip(xhat.row(r)).map(|(a, b)| a * b).sum();
                for c in 0..d {
                    let v = (d as f32 * dxhat[c] - sum_dxhat - xhat.get(r, c) * sum_dxhat_xhat)
                        * inv_std
                        / d as f32;
                    dx.set(r, c, v);
                }
            }
            dx
        }
    }

    #[test]
    fn layernorm_is_bitwise_the_per_element_formulation() {
        let mut rng = StdRng::seed_from_u64(9);
        for (rows, d) in [(1, 1), (3, 5), (4, 8), (6, 32), (7, 33)] {
            let mut ln = LayerNorm::new(d);
            ln.gamma = init::normal(&mut rng, 1, d, 1.0).into_data();
            ln.beta = init::normal(&mut rng, 1, d, 1.0).into_data();
            let mut reference = PerElementLayerNorm {
                gamma: ln.gamma.clone(),
                beta: ln.beta.clone(),
                eps: ln.eps,
                g_gamma: vec![0.0; d],
                g_beta: vec![0.0; d],
            };
            // Two steps, so the parameter gradients accumulate onto
            // nonzero values; the second batch holds a constant row.
            for step in 0..2 {
                let mut x = init::normal(&mut rng, rows, d, 3.0);
                if step == 1 {
                    x.row_mut(0).fill(0.25);
                }
                let dy = init::normal(&mut rng, rows, d, 1.0);
                let (want_y, xhat, inv_stds) = reference.forward(&x);
                assert_eq!(bits(ln.forward(&x).data()), bits(want_y.data()), "y {rows}x{d}");
                assert_eq!(bits(ln.forward_inference(&x).data()), bits(want_y.data()));
                let want_dx = reference.backward(&xhat, &inv_stds, &dy);
                assert_eq!(bits(ln.backward(&dy).data()), bits(want_dx.data()), "dx {rows}x{d}");
                let grads = ln.export_grads();
                assert_eq!(bits(&grads[0]), bits(&reference.g_gamma), "g_gamma {rows}x{d}");
                assert_eq!(bits(&grads[1]), bits(&reference.g_beta), "g_beta {rows}x{d}");
            }
        }
    }

    #[test]
    fn module_utilities() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = Linear::new(&mut rng, 4, 3);
        assert_eq!(layer.n_params(), 4 * 3 + 3);
        let x = init::normal(&mut rng, 1, 4, 1.0);
        let y = layer.forward(&x);
        layer.backward(&y);
        let mut any_nonzero = false;
        layer.visit_params(&mut |_, g| any_nonzero |= g.iter().any(|&v| v != 0.0));
        assert!(any_nonzero);
        layer.zero_grad();
        let mut all_zero = true;
        layer.visit_params(&mut |_, g| all_zero &= g.iter().all(|&v| v == 0.0));
        assert!(all_zero);
    }

    #[test]
    fn sigmoid_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
    }
}
