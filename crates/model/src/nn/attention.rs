//! Multi-head self-attention with an explicit, gradient-checked backward
//! pass. Sequences are processed unpadded one at a time (T×d matrices), so
//! no attention mask is needed.
//!
//! Every pass takes a [`Readout`]: the positions of the input whose rows
//! its caller reads. Only those rows ask queries (Q, the scores, softmax,
//! P·V and W_o run over them), while keys and values still cover all T
//! positions. A caller that reads only the `[CLS]` row reads position 0;
//! [`Readout::All`] is plain self-attention. Each output row is computed
//! exactly as the all-rows pass computes it, so a readout never changes a
//! bit of the rows it keeps.

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

/// The rows of a T-row sequence a pass computes and returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readout<'a> {
    /// Every row, in position order; no row is copied.
    All,
    /// The rows at these positions, which must be strictly ascending and
    /// below T: the pass returns position `rows[i]`'s row as its row `i`.
    Rows(&'a [usize]),
}

impl Readout<'_> {
    /// The read rows of `x` in position order: borrowed when every row is
    /// read, so the all-rows pass copies nothing.
    pub(crate) fn gather(self, x: &Matrix) -> Cow<'_, Matrix> {
        match self {
            Readout::All => Cow::Borrowed(x),
            Readout::Rows(rows) => {
                assert!(
                    rows.windows(2).all(|w| w[0] < w[1]),
                    "readout rows must be strictly ascending"
                );
                assert!(rows.last().is_none_or(|&p| p < x.rows()), "readout row past the sequence");
                let mut out = Matrix::zeros(rows.len(), x.cols());
                for (i, &p) in rows.iter().enumerate() {
                    out.row_mut(i).copy_from_slice(x.row(p));
                }
                Cow::Owned(out)
            }
        }
    }

    /// `dst[p] += src[i]` for the i-th read position `p` (`dst += src` when
    /// every row is read): returns the read rows' gradient to the rows they
    /// were gathered from.
    pub(crate) fn scatter_add(self, dst: &mut Matrix, src: &Matrix) {
        assert_eq!(dst.cols(), src.cols(), "scatter_add column mismatch");
        match self {
            Readout::All => {
                assert_eq!(dst.rows(), src.rows(), "scatter_add row mismatch");
                for (d, &s) in dst.data_mut().iter_mut().zip(src.data()) {
                    *d += s;
                }
            }
            Readout::Rows(rows) => {
                assert_eq!(rows.len(), src.rows(), "scatter_add row mismatch");
                for (i, &p) in rows.iter().enumerate() {
                    for (d, &s) in dst.row_mut(p).iter_mut().zip(src.row(i)) {
                        *d += s;
                    }
                }
            }
        }
    }
}

/// Approximate flop count of one head's attention pass with `n` query rows
/// over `t` positions: its two n×t×d_head matmuls dominate. Summed across
/// heads it gates head-level parallelism — serving single short sequences
/// through a small model must not pay a thread spawn per layer per request.
fn attend_work(n: usize, t: usize, d_head: usize) -> usize {
    4 * n * t * d_head
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

    /// Forward pass over one sequence `x` (T×d) for the rows `readout`
    /// names, caching for backward. Returns one row per read row (n×d).
    pub fn forward(&mut self, x: &Matrix, readout: Readout) -> Matrix {
        let q = self.wq.forward(&readout.gather(x));
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let (concat, probs) = self.attend_heads(&q, &k, &v);
        let y = self.wo.forward(&concat);
        self.cache = Some(Cache { q, k, v, probs });
        y
    }

    /// Forward without caching: the rows `readout` names.
    pub fn forward_inference(&self, x: &Matrix, readout: Readout) -> Matrix {
        let q = self.wq.forward_inference(&readout.gather(x));
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
    /// probabilities (n×T). Heads are independent; `par_map_work` returns
    /// them in head order, so the layout matches the sequential loop
    /// exactly.
    fn attend_heads(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> (Matrix, Vec<Matrix>) {
        let d_head = self.d_model / self.n_heads;
        let costs = vec![attend_work(q.rows(), k.rows(), d_head); self.n_heads];
        let heads = pool::par_map_work(&costs, || (), |_, h| attend(q, k, v, h, d_head));
        let mut concat = Matrix::zeros(q.rows(), self.d_model);
        let mut probs = Vec::with_capacity(self.n_heads);
        for (h, (oh, p)) in heads.into_iter().enumerate() {
            head_insert(&mut concat, &oh, h, d_head);
            probs.push(p);
        }
        (concat, probs)
    }

    /// Backward pass from dL/dy of the rows the last forward read, under
    /// that forward's `readout`; returns dL/dx for all T rows.
    pub fn backward(&mut self, dy: &Matrix, readout: Readout) -> Matrix {
        let cache = self.cache.take().expect("forward before backward");
        let d_head = self.d_model / self.n_heads;
        let scale = 1.0 / (d_head as f32).sqrt();

        let dconcat = self.wo.backward(dy);
        let (n, t) = (cache.q.rows(), cache.k.rows());
        // Backward roughly doubles the forward's per-head matmul work.
        let costs = vec![2 * attend_work(n, t, d_head); self.n_heads];
        let head_grad = |h: usize| {
            let doh = head_slice(&dconcat, h, d_head);
            let p = &cache.probs[h];
            let qh = head_slice(&cache.q, h, d_head);
            let kh = head_slice(&cache.k, h, d_head);
            let vh = head_slice(&cache.v, h, d_head);
            // dP = dOh · Vhᵀ ; dVh = Pᵀ · dOh
            let dp = doh.matmul_nt(&vh);
            let dvh = p.matmul_tn(&doh);
            // Softmax backward per row, then the score scale:
            // dS = (P ⊙ (dP − rowsum(dP⊙P))) · scale.
            let mut ds = Matrix::zeros(n, t);
            for r in 0..n {
                let prow = p.row(r);
                let dprow = dp.row(r);
                let dot: f32 = prow.iter().zip(dprow).map(|(a, b)| a * b).sum();
                for ((s, &pv), &dpv) in ds.row_mut(r).iter_mut().zip(prow).zip(dprow) {
                    *s = (pv * (dpv - dot)) * scale;
                }
            }
            // dQh = dS · Kh ; dKh = dSᵀ · Qh
            (ds.matmul(&kh), ds.matmul_tn(&qh), dvh)
        };
        let head_grads = pool::par_map_work(&costs, || (), |_, h| head_grad(h));
        let mut dq = Matrix::zeros(n, self.d_model);
        let mut dk = Matrix::zeros(t, self.d_model);
        let mut dv = Matrix::zeros(t, self.d_model);
        for (h, (dqh, dkh, dvh)) in head_grads.into_iter().enumerate() {
            head_insert(&mut dq, &dqh, h, d_head);
            head_insert(&mut dk, &dkh, h, d_head);
            head_insert(&mut dv, &dvh, h, d_head);
        }
        // Per read row this is (dx_q + dx_k) + dx_v, the all-rows sum's
        // operand order (f32 addition commutes); unread rows take no query
        // gradient.
        let dx_q = self.wq.backward(&dq);
        let mut dx = self.wk.backward(&dk);
        readout.scatter_add(&mut dx, &dx_q);
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
        let y = attn.forward(&x, Readout::All);
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
        let y_train = attn.forward(&x, Readout::All);
        let y_inf = attn.forward_inference(&x, Readout::All);
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
        let (t, d) = (5, 12);
        let rows = [1, 3];
        let readout = Readout::Rows(&rows);
        let x = init::normal(&mut rng, t, d, 1.0);
        let y_full = full.forward(&x, Readout::All);
        let y_read = read.forward(&x, readout);
        assert_eq!(bits(y_read.data()), bits(readout.gather(&y_full).data()));
        assert_eq!(bits(read.forward_inference(&x, readout).data()), bits(y_read.data()));
        assert!(read.last_attention().unwrap().iter().all(|p| (p.rows(), p.cols()) == (2, t)));
        // The read rows' gradient, scattered into zero rows for the
        // all-rows pass.
        let dy = init::normal(&mut rng, rows.len(), d, 1.0);
        let mut dy_full = Matrix::zeros(t, d);
        readout.scatter_add(&mut dy_full, &dy);
        let dx_full = full.backward(&dy_full, Readout::All);
        let dx_read = read.backward(&dy, readout);
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
        let y = attn.forward(&x, Readout::All);
        let dx = attn.backward(&y, Readout::All);

        let eps = 1e-2;
        let loss = |attn: &MultiHeadAttention, x: &Matrix| -> f32 {
            let y = attn.forward_inference(x, Readout::All);
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
        let y = attn.forward(&x, Readout::All);
        attn.backward(&y, Readout::All);
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
            let y = attn.forward_inference(x, Readout::All);
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
