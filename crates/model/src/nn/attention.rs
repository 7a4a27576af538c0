//! Multi-head self-attention with an explicit, gradient-checked backward
//! pass. Sequences are processed unpadded one at a time (T×d matrices), so
//! no attention mask is needed.
//!
//! Every pass takes a readout `n`: only the leading `n` positions of the
//! input ask queries (Q, the scores, softmax, P·V and W_o run over `n`
//! rows), while keys and values still cover all T positions. A caller that
//! reads only the `[CLS]` row passes `n = 1`; `n = T` is plain self-
//! attention. Each output row is computed exactly as the all-rows pass
//! computes it, so a readout never changes a bit of the rows it keeps.

use std::borrow::Cow;

use nfm_tensor::layers::{Linear, Module};
use nfm_tensor::matrix::Matrix;
use nfm_tensor::pool;
use rand::Rng;

/// Multi-head self-attention: `Y = concat_h(softmax(Q_h K_hᵀ/√d_h) V_h) W_o`.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    /// Number of heads (must divide the model dimension).
    pub n_heads: usize,
    /// Model dimension.
    pub d_model: usize,
    cache: Option<Cache>,
}

#[derive(Debug, Clone)]
struct Cache {
    /// Queries of the `n` read rows (n×d).
    q: Matrix,
    /// Keys and values of all T positions (T×d each).
    k: Matrix,
    v: Matrix,
    /// Per-head post-softmax attention probabilities (n×T each).
    probs: Vec<Matrix>,
}

fn head_slice(m: &Matrix, head: usize, d_head: usize) -> Matrix {
    let mut out = Matrix::zeros(m.rows(), d_head);
    for r in 0..m.rows() {
        let src = &m.row(r)[head * d_head..(head + 1) * d_head];
        out.row_mut(r).copy_from_slice(src);
    }
    out
}

fn head_insert(dst: &mut Matrix, src: &Matrix, head: usize, d_head: usize) {
    for r in 0..src.rows() {
        dst.row_mut(r)[head * d_head..(head + 1) * d_head].copy_from_slice(src.row(r));
    }
}

/// The leading `n` rows of `x`: borrowed when that is all of `x`, so the
/// all-rows pass copies nothing.
pub(crate) fn leading_rows(x: &Matrix, n: usize) -> Cow<'_, Matrix> {
    if n >= x.rows() {
        Cow::Borrowed(x)
    } else {
        Cow::Owned(x.rows_slice(0, n))
    }
}

/// `dst[r] += src[r]` over the leading `src.rows()` rows of `dst` (row-major
/// storage makes them its first `src.data().len()` elements).
pub(crate) fn add_leading_rows(dst: &mut Matrix, src: &Matrix) {
    assert_eq!(dst.cols(), src.cols(), "add_leading_rows column mismatch");
    assert!(src.rows() <= dst.rows(), "add_leading_rows: more rows than the destination");
    for (d, &s) in dst.data_mut().iter_mut().zip(src.data()) {
        *d += s;
    }
}

/// Approximate flop count of one attention pass with `n` query rows over
/// `t` positions: the two n×t×d_head matmuls per head dominate, summed
/// across heads. Used to gate head-level parallelism — serving single
/// short sequences through a small model must not pay a thread spawn per
/// layer per request.
fn attend_work(n: usize, t: usize, d_model: usize) -> usize {
    4 * n * t * d_model
}

impl MultiHeadAttention {
    /// Create with `n_heads` dividing `d_model`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, d_model: usize, n_heads: usize) -> MultiHeadAttention {
        assert!(d_model.is_multiple_of(n_heads), "heads must divide d_model");
        MultiHeadAttention {
            wq: Linear::new(rng, d_model, d_model),
            wk: Linear::new(rng, d_model, d_model),
            wv: Linear::new(rng, d_model, d_model),
            wo: Linear::new(rng, d_model, d_model),
            n_heads,
            d_model,
            cache: None,
        }
    }

    /// Forward pass over one sequence `x` (T×d) for its leading `n` rows
    /// (clamped to T), caching for backward. Returns n×d.
    pub fn forward(&mut self, x: &Matrix, n: usize) -> Matrix {
        let q = self.wq.forward(&leading_rows(x, n));
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let (concat, probs) = self.attend_heads(&q, &k, &v);
        let y = self.wo.forward(&concat);
        self.cache = Some(Cache { q, k, v, probs });
        y
    }

    /// Forward without caching: the leading `n` rows (clamped to T).
    pub fn forward_inference(&self, x: &Matrix, n: usize) -> Matrix {
        let q = self.wq.forward_inference(&leading_rows(x, n));
        let k = self.wk.forward_inference(x);
        let v = self.wv.forward_inference(x);
        let (concat, _) = self.attend_heads(&q, &k, &v);
        self.wo.forward_inference(&concat)
    }

    /// Attention probabilities per head (n×T: the read rows' maps) from the
    /// last cached forward.
    pub fn last_attention(&self) -> Option<&[Matrix]> {
        self.cache.as_ref().map(|c| c.probs.as_slice())
    }

    /// Every head's attention for the query rows of `q` over the positions
    /// of `k`/`v`: the concatenated head outputs (n×d) and each head's
    /// probabilities (n×T). Heads are independent; par_map returns them in
    /// head order, so the layout matches the sequential loop exactly.
    fn attend_heads(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> (Matrix, Vec<Matrix>) {
        let d_head = self.d_model / self.n_heads;
        let work = attend_work(q.rows(), k.rows(), self.d_model);
        let heads = pool::par_map_work(self.n_heads, work, |h| attend(q, k, v, h, d_head));
        let mut concat = Matrix::zeros(q.rows(), self.d_model);
        let mut probs = Vec::with_capacity(self.n_heads);
        for (h, (oh, p)) in heads.into_iter().enumerate() {
            head_insert(&mut concat, &oh, h, d_head);
            probs.push(p);
        }
        (concat, probs)
    }

    /// Backward pass from dL/dy of the `n` read rows; returns dL/dx for
    /// all T rows.
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let cache = self.cache.take().expect("forward before backward");
        let d_head = self.d_model / self.n_heads;
        let scale = 1.0 / (d_head as f32).sqrt();

        let dconcat = self.wo.backward(dy);
        let (n, t) = (cache.q.rows(), cache.k.rows());
        // Backward roughly doubles the forward's per-head matmul work.
        let work = 2 * attend_work(n, t, self.d_model);
        let head_grads = pool::par_map_work(self.n_heads, work, |h| {
            let doh = head_slice(&dconcat, h, d_head);
            let p = &cache.probs[h];
            let qh = head_slice(&cache.q, h, d_head);
            let kh = head_slice(&cache.k, h, d_head);
            let vh = head_slice(&cache.v, h, d_head);
            // dP = dOh · Vhᵀ ; dVh = Pᵀ · dOh
            let dp = doh.matmul_nt(&vh);
            let dvh = p.matmul_tn(&doh);
            // Softmax backward per row: dS = P ⊙ (dP − rowsum(dP⊙P)).
            let mut ds = Matrix::zeros(n, t);
            for r in 0..n {
                let prow = p.row(r);
                let dprow = dp.row(r);
                let dot: f32 = prow.iter().zip(dprow).map(|(a, b)| a * b).sum();
                for c in 0..t {
                    ds.set(r, c, prow[c] * (dprow[c] - dot));
                }
            }
            ds.scale(scale);
            // dQh = dS · Kh ; dKh = dSᵀ · Qh
            (ds.matmul(&kh), ds.matmul_tn(&qh), dvh)
        });
        let mut dq = Matrix::zeros(n, self.d_model);
        let mut dk = Matrix::zeros(t, self.d_model);
        let mut dv = Matrix::zeros(t, self.d_model);
        for (h, (dqh, dkh, dvh)) in head_grads.into_iter().enumerate() {
            head_insert(&mut dq, &dqh, h, d_head);
            head_insert(&mut dk, &dkh, h, d_head);
            head_insert(&mut dv, &dvh, h, d_head);
        }
        // Per read row this is (dx_q + dx_k) + dx_v, the all-rows sum's
        // operand order (f32 addition commutes); rows past n take no query
        // gradient.
        let dx_q = self.wq.backward(&dq);
        let mut dx = self.wk.backward(&dk);
        add_leading_rows(&mut dx, &dx_q);
        dx.add_assign(&self.wv.backward(&dv));
        dx
    }
}

/// One head's attention: returns (output n×d_head, probs n×T) for the
/// query rows of `q` over every position of `k`/`v`.
fn attend(q: &Matrix, k: &Matrix, v: &Matrix, head: usize, d_head: usize) -> (Matrix, Matrix) {
    let qh = head_slice(q, head, d_head);
    let kh = head_slice(k, head, d_head);
    let vh = head_slice(v, head, d_head);
    let mut scores = qh.matmul_nt(&kh);
    scores.scale(1.0 / (d_head as f32).sqrt());
    scores.softmax_rows();
    let out = scores.matmul(&vh);
    (out, scores)
}

impl Module for MultiHeadAttention {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.wq.visit_params(f);
        self.wk.visit_params(f);
        self.wv.visit_params(f);
        self.wo.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_shape_and_prob_rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut attn = MultiHeadAttention::new(&mut rng, 16, 4);
        let x = init::normal(&mut rng, 6, 16, 1.0);
        let y = attn.forward(&x, x.rows());
        assert_eq!((y.rows(), y.cols()), (6, 16));
        for p in attn.last_attention().unwrap() {
            for r in 0..p.rows() {
                let s: f32 = p.row(r).iter().sum();
                assert!((s - 1.0).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn train_and_inference_forward_agree() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = init::normal(&mut rng, 4, 8, 1.0);
        let y_train = attn.forward(&x, x.rows());
        let y_inf = attn.forward_inference(&x, x.rows());
        for (a, b) in y_train.data().iter().zip(y_inf.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn readout_rows_match_the_all_rows_pass_bitwise() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut full = MultiHeadAttention::new(&mut rng, 12, 2);
        let mut read = full.clone();
        let (t, n, d) = (5, 2, 12);
        let x = init::normal(&mut rng, t, d, 1.0);
        let y_full = full.forward(&x, t);
        let y_read = read.forward(&x, n);
        assert_eq!(bits(y_read.data()), bits(&y_full.data()[..n * d]));
        assert_eq!(bits(read.forward_inference(&x, n).data()), bits(y_read.data()));
        assert!(read.last_attention().unwrap().iter().all(|p| (p.rows(), p.cols()) == (n, t)));
        // The read rows' gradient, zero-padded for the all-rows pass.
        let dy = init::normal(&mut rng, n, d, 1.0);
        let mut dy_full = Matrix::zeros(t, d);
        dy_full.data_mut()[..n * d].copy_from_slice(dy.data());
        let dx_full = full.backward(&dy_full);
        let dx_read = read.backward(&dy);
        assert_eq!(bits(dx_read.data()), bits(dx_full.data()));
        for (a, b) in read.export_grads().iter().zip(full.export_grads()) {
            assert_eq!(bits(a), bits(&b));
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = init::normal(&mut rng, 3, 8, 0.5);
        // L = ½‖y‖² so dL/dy = y.
        let y = attn.forward(&x, x.rows());
        let dx = attn.backward(&y);

        let eps = 1e-2;
        let loss = |attn: &MultiHeadAttention, x: &Matrix| -> f32 {
            let y = attn.forward_inference(x, x.rows());
            0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
        };
        let mut max_rel = 0.0f32;
        for (r, c) in [(0, 0), (1, 3), (2, 7)] {
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + eps);
            let mut xm = x.clone();
            xm.set(r, c, x.get(r, c) - eps);
            let numeric = (loss(&attn, &xp) - loss(&attn, &xm)) / (2.0 * eps);
            let analytic = dx.get(r, c);
            let rel = (numeric - analytic).abs() / numeric.abs().max(1e-3);
            max_rel = max_rel.max(rel);
        }
        assert!(max_rel < 0.07, "max relative error {max_rel}");
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut attn = MultiHeadAttention::new(&mut rng, 8, 2);
        let x = init::normal(&mut rng, 3, 8, 0.5);
        attn.zero_grad();
        let y = attn.forward(&x, x.rows());
        attn.backward(&y);
        // Grab dL/d(wq[0,0]).
        let mut analytic = 0.0;
        let mut slot = 0;
        attn.visit_params(&mut |_, g| {
            if slot == 0 {
                analytic = g[0];
            }
            slot += 1;
        });
        let eps = 1e-2;
        let loss = |attn: &MultiHeadAttention, x: &Matrix| -> f32 {
            let y = attn.forward_inference(x, x.rows());
            0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
        };
        let mut orig = 0.0;
        let mut slot = 0;
        attn.visit_params(&mut |p, _| {
            if slot == 0 {
                orig = p[0];
                p[0] = orig + eps;
            }
            slot += 1;
        });
        let lp = loss(&attn, &x);
        let mut slot = 0;
        attn.visit_params(&mut |p, _| {
            if slot == 0 {
                p[0] = orig - eps;
            }
            slot += 1;
        });
        let lm = loss(&attn, &x);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!(
            (numeric - analytic).abs() / numeric.abs().max(1e-3) < 0.07,
            "numeric {numeric} analytic {analytic}"
        );
    }

    #[test]
    fn param_count() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut attn = MultiHeadAttention::new(&mut rng, 16, 4);
        // 4 linears of 16×16 + bias 16.
        assert_eq!(attn.n_params(), 4 * (16 * 16 + 16));
    }

    #[test]
    #[should_panic(expected = "heads must divide")]
    fn invalid_head_count_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = MultiHeadAttention::new(&mut rng, 10, 3);
    }
}
