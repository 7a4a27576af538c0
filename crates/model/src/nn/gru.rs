//! GRU sequence classifier — the baseline NorBERT compared against (§3.4):
//! "gated recurrent units (GRU) models, with both initialization to random
//! values, and context-independent embeddings (GloVe)".
//!
//! Processes one sequence at a time with full BPTT; gradients are
//! hand-derived and finite-difference checked.

use nfm_tensor::layers::{sigmoid, Embedding, Linear, Module};
use nfm_tensor::matrix::Matrix;
use rand::Rng;

/// One GRU layer's parameters (input `d_in`, hidden `h`).
#[derive(Debug, Clone)]
pub struct GruCell {
    wz: Matrix,
    uz: Matrix,
    bz: Vec<f32>,
    wr: Matrix,
    ur: Matrix,
    br: Vec<f32>,
    wn: Matrix,
    un: Matrix,
    bn: Vec<f32>,
    // Gradients.
    gwz: Matrix,
    guz: Matrix,
    gbz: Vec<f32>,
    gwr: Matrix,
    gur: Matrix,
    gbr: Vec<f32>,
    gwn: Matrix,
    gun: Matrix,
    gbn: Vec<f32>,
    d_in: usize,
    d_hidden: usize,
    cache: Vec<StepCache>,
}

#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    z: Vec<f32>,
    r: Vec<f32>,
    n: Vec<f32>,
}

fn matvec(w: &Matrix, x: &[f32], out: &mut [f32]) {
    // w is d_in × d_out; x is d_in; out += xᵀ·w. No zero-skip branch:
    // embedded inputs are dense, and the branchless loop autovectorizes.
    for (i, &xi) in x.iter().enumerate() {
        for (o, &wv) in out.iter_mut().zip(w.row(i)) {
            *o += xi * wv;
        }
    }
}

/// Accumulate outer product `x ⊗ d` into grad (d_in × d_out).
fn outer_acc(grad: &mut Matrix, x: &[f32], d: &[f32]) {
    for (i, &xi) in x.iter().enumerate() {
        for (g, &dv) in grad.row_mut(i).iter_mut().zip(d) {
            *g += xi * dv;
        }
    }
}

/// Accumulate `d · wᵀ` into out (length d_in).
fn matvec_t(w: &Matrix, d: &[f32], out: &mut [f32]) {
    for (i, o) in out.iter_mut().enumerate() {
        let row = w.row(i);
        let mut acc = 0.0;
        for (a, b) in row.iter().zip(d) {
            acc += a * b;
        }
        *o += acc;
    }
}

impl GruCell {
    /// Create with Xavier weights.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, d_in: usize, d_hidden: usize) -> GruCell {
        let init = |rng: &mut R, r, c| nfm_tensor::init::xavier_uniform(rng, r, c);
        GruCell {
            wz: init(rng, d_in, d_hidden),
            uz: init(rng, d_hidden, d_hidden),
            bz: vec![0.0; d_hidden],
            wr: init(rng, d_in, d_hidden),
            ur: init(rng, d_hidden, d_hidden),
            br: vec![0.0; d_hidden],
            wn: init(rng, d_in, d_hidden),
            un: init(rng, d_hidden, d_hidden),
            bn: vec![0.0; d_hidden],
            gwz: Matrix::zeros(d_in, d_hidden),
            guz: Matrix::zeros(d_hidden, d_hidden),
            gbz: vec![0.0; d_hidden],
            gwr: Matrix::zeros(d_in, d_hidden),
            gur: Matrix::zeros(d_hidden, d_hidden),
            gbr: vec![0.0; d_hidden],
            gwn: Matrix::zeros(d_in, d_hidden),
            gun: Matrix::zeros(d_hidden, d_hidden),
            gbn: vec![0.0; d_hidden],
            d_in,
            d_hidden,
            cache: Vec::new(),
        }
    }

    /// Clear the BPTT cache (start of a new sequence).
    pub fn reset(&mut self) {
        self.cache.clear();
    }

    /// One training step: h_t from (x_t, h_{t-1}), cached for
    /// [`GruCell::step_backward`].
    pub fn step(&mut self, x: &[f32], h_prev: &[f32]) -> Vec<f32> {
        let (h_new, [z, r, n]) = self.gates(x, h_prev);
        self.cache.push(StepCache { x: x.to_vec(), h_prev: h_prev.to_vec(), z, r, n });
        h_new
    }

    /// One step without caching: h_t from (x_t, h_{t-1}) and the gate
    /// activations `[z, r, n]` that produced it.
    fn gates(&self, x: &[f32], h_prev: &[f32]) -> (Vec<f32>, [Vec<f32>; 3]) {
        assert_eq!(x.len(), self.d_in);
        assert_eq!(h_prev.len(), self.d_hidden);
        let h = self.d_hidden;
        let mut z = self.bz.clone();
        matvec(&self.wz, x, &mut z);
        matvec(&self.uz, h_prev, &mut z);
        z.iter_mut().for_each(|v| *v = sigmoid(*v));
        let mut r = self.br.clone();
        matvec(&self.wr, x, &mut r);
        matvec(&self.ur, h_prev, &mut r);
        r.iter_mut().for_each(|v| *v = sigmoid(*v));
        let rh: Vec<f32> = r.iter().zip(h_prev).map(|(a, b)| a * b).collect();
        let mut n = self.bn.clone();
        matvec(&self.wn, x, &mut n);
        matvec(&self.un, &rh, &mut n);
        n.iter_mut().for_each(|v| *v = nfm_tensor::fastmath::tanhf(*v));
        let mut h_new = vec![0.0; h];
        for i in 0..h {
            h_new[i] = (1.0 - z[i]) * n[i] + z[i] * h_prev[i];
        }
        (h_new, [z, r, n])
    }

    /// Backward one step (pop the cache): given dL/dh_t, returns
    /// (dL/dx_t, dL/dh_{t-1}) and accumulates parameter gradients.
    pub fn step_backward(&mut self, dh: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let c = self.cache.pop().expect("backward without matching forward step");
        let h = self.d_hidden;
        let mut dx = vec![0.0; self.d_in];
        let mut dh_prev = vec![0.0; h];

        // h = (1-z)*n + z*h_prev
        let mut dz = vec![0.0; h];
        let mut dn = vec![0.0; h];
        for i in 0..h {
            dz[i] = dh[i] * (c.h_prev[i] - c.n[i]);
            dn[i] = dh[i] * (1.0 - c.z[i]);
            dh_prev[i] += dh[i] * c.z[i];
        }
        // n = tanh(pre_n)
        let dn_pre: Vec<f32> = dn.iter().zip(&c.n).map(|(d, n)| d * (1.0 - n * n)).collect();
        // pre_n = x·Wn + (r⊙h_prev)·Un + bn
        let rh: Vec<f32> = c.r.iter().zip(&c.h_prev).map(|(a, b)| a * b).collect();
        outer_acc(&mut self.gwn, &c.x, &dn_pre);
        outer_acc(&mut self.gun, &rh, &dn_pre);
        for (g, d) in self.gbn.iter_mut().zip(&dn_pre) {
            *g += d;
        }
        matvec_t(&self.wn, &dn_pre, &mut dx);
        let mut drh = vec![0.0; h];
        matvec_t(&self.un, &dn_pre, &mut drh);
        let mut dr = vec![0.0; h];
        for i in 0..h {
            dr[i] = drh[i] * c.h_prev[i];
            dh_prev[i] += drh[i] * c.r[i];
        }
        // z, r gates: sigmoid backward.
        let dz_pre: Vec<f32> = dz.iter().zip(&c.z).map(|(d, z)| d * z * (1.0 - z)).collect();
        let dr_pre: Vec<f32> = dr.iter().zip(&c.r).map(|(d, r)| d * r * (1.0 - r)).collect();
        outer_acc(&mut self.gwz, &c.x, &dz_pre);
        outer_acc(&mut self.guz, &c.h_prev, &dz_pre);
        for (g, d) in self.gbz.iter_mut().zip(&dz_pre) {
            *g += d;
        }
        outer_acc(&mut self.gwr, &c.x, &dr_pre);
        outer_acc(&mut self.gur, &c.h_prev, &dr_pre);
        for (g, d) in self.gbr.iter_mut().zip(&dr_pre) {
            *g += d;
        }
        matvec_t(&self.wz, &dz_pre, &mut dx);
        matvec_t(&self.wr, &dr_pre, &mut dx);
        matvec_t(&self.uz, &dz_pre, &mut dh_prev);
        matvec_t(&self.ur, &dr_pre, &mut dh_prev);
        (dx, dh_prev)
    }
}

impl Module for GruCell {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        f(self.wz.data_mut(), self.gwz.data_mut());
        f(self.uz.data_mut(), self.guz.data_mut());
        f(&mut self.bz, &mut self.gbz);
        f(self.wr.data_mut(), self.gwr.data_mut());
        f(self.ur.data_mut(), self.gur.data_mut());
        f(&mut self.br, &mut self.gbr);
        f(self.wn.data_mut(), self.gwn.data_mut());
        f(self.un.data_mut(), self.gun.data_mut());
        f(&mut self.bn, &mut self.gbn);
    }
}

/// Embedding → GRU → linear classifier over the final hidden state.
#[derive(Debug, Clone)]
pub struct GruClassifier {
    /// Token embeddings.
    pub embedding: Embedding,
    cell: GruCell,
    head: Linear,
    /// Hidden size.
    pub d_hidden: usize,
    /// Freeze the embedding table (GloVe-initialized baseline keeps its
    /// pre-trained vectors fixed, matching the NorBERT setup).
    pub freeze_embeddings: bool,
    cache_ids: Vec<usize>,
}

impl GruClassifier {
    /// Create with random embeddings.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        vocab: usize,
        d_embed: usize,
        d_hidden: usize,
        n_classes: usize,
    ) -> GruClassifier {
        GruClassifier {
            embedding: Embedding::new(rng, vocab, d_embed),
            cell: GruCell::new(rng, d_embed, d_hidden),
            head: Linear::new(rng, d_hidden, n_classes),
            d_hidden,
            freeze_embeddings: false,
            cache_ids: Vec::new(),
        }
    }

    /// Replace embeddings with a pre-trained table and freeze them.
    pub fn with_pretrained_embeddings(mut self, table: Matrix) -> GruClassifier {
        assert_eq!(table.rows(), self.embedding.vocab());
        assert_eq!(table.cols(), self.embedding.dim());
        self.embedding.table.data_mut().copy_from_slice(table.data());
        self.freeze_embeddings = true;
        self
    }

    /// Forward one sequence to class logits (1×n_classes). Training mode.
    pub fn forward(&mut self, ids: &[usize]) -> Matrix {
        assert!(!ids.is_empty());
        self.cell.reset();
        self.cache_ids = ids.to_vec();
        let x = self.embedding.forward(ids);
        let mut h = vec![0.0f32; self.d_hidden];
        for t in 0..ids.len() {
            h = self.cell.step(x.row(t), &h);
        }
        self.head.forward(&Matrix::from_vec(1, self.d_hidden, h))
    }

    /// Forward without caching.
    pub fn forward_inference(&self, ids: &[usize]) -> Matrix {
        assert!(!ids.is_empty());
        let x = self.embedding.lookup(ids);
        let mut h = vec![0.0f32; self.d_hidden];
        for t in 0..ids.len() {
            h = self.cell.gates(x.row(t), &h).0;
        }
        self.head.forward_inference(&Matrix::from_vec(1, self.d_hidden, h))
    }

    /// Backward from dL/dlogits (1×n_classes).
    pub fn backward(&mut self, dlogits: &Matrix) {
        let dh_last = self.head.backward(dlogits);
        let t_len = self.cache_ids.len();
        let mut dh = dh_last.row(0).to_vec();
        let mut dxs = vec![vec![0.0f32; self.embedding.dim()]; t_len];
        for t in (0..t_len).rev() {
            let (dx, dh_prev) = self.cell.step_backward(&dh);
            dxs[t] = dx;
            dh = dh_prev;
        }
        if !self.freeze_embeddings {
            let mut dx_mat = Matrix::zeros(t_len, self.embedding.dim());
            for (t, dx) in dxs.iter().enumerate() {
                dx_mat.row_mut(t).copy_from_slice(dx);
            }
            self.embedding.backward(&dx_mat);
        }
    }
}

impl Module for GruClassifier {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        if !self.freeze_embeddings {
            self.embedding.visit_params(f);
        }
        self.cell.visit_params(f);
        self.head.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfm_tensor::loss::softmax_cross_entropy;
    use nfm_tensor::optim::{Adam, Schedule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gru_step_gradient_check() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut cell = GruCell::new(&mut rng, 3, 4);
        let x = vec![0.5, -0.3, 0.8];
        let h_prev = vec![0.1, -0.2, 0.3, 0.0];
        let h = cell.step(&x, &h_prev);
        // L = ½‖h‖² ⇒ dL/dh = h.
        let (dx, dh_prev) = cell.step_backward(&h);

        let eps = 1e-3;
        let loss = |cell: &GruCell, x: &[f32], hp: &[f32]| -> f32 {
            let h = cell.gates(x, hp).0;
            0.5 * h.iter().map(|v| v * v).sum::<f32>()
        };
        // Check dx[0].
        let mut xp = x.clone();
        xp[0] += eps;
        let mut xm = x.clone();
        xm[0] -= eps;
        let numeric = (loss(&cell, &xp, &h_prev) - loss(&cell, &xm, &h_prev)) / (2.0 * eps);
        assert!((numeric - dx[0]).abs() < 1e-3, "dx numeric {numeric} analytic {}", dx[0]);
        // Check dh_prev[1].
        let mut hp = h_prev.clone();
        hp[1] += eps;
        let mut hm = h_prev.clone();
        hm[1] -= eps;
        let numeric = (loss(&cell, &x, &hp) - loss(&cell, &x, &hm)) / (2.0 * eps);
        assert!(
            (numeric - dh_prev[1]).abs() < 1e-3,
            "dh numeric {numeric} analytic {}",
            dh_prev[1]
        );
    }

    #[test]
    fn classifier_learns_first_token_rule() {
        // Class = first token (0..3 → class id). Learnable only through
        // the recurrent state surviving to the end.
        let mut rng = StdRng::seed_from_u64(9);
        let mut model = GruClassifier::new(&mut rng, 12, 8, 16, 3);
        let mut opt = Adam::new(Schedule::Constant(5e-3));
        let make = |i: usize| -> (Vec<usize>, usize) {
            let class = i % 3;
            let mut ids = vec![5 + class];
            for j in 0..6 {
                ids.push(8 + (i + j) % 4);
            }
            (ids, class)
        };
        for epoch in 0..60 {
            let mut correct = 0;
            for i in 0..30 {
                let (ids, class) = make(i);
                model.zero_grad();
                let logits = model.forward(&ids);
                let (_, dlogits) = softmax_cross_entropy(&logits, &[class]);
                model.backward(&dlogits);
                opt.step(&mut model);
                if logits.argmax_rows()[0] == class {
                    correct += 1;
                }
            }
            if epoch > 40 {
                assert!(correct >= 25, "epoch {epoch}: {correct}/30");
            }
        }
    }

    #[test]
    fn frozen_embeddings_stay_fixed() {
        let mut rng = StdRng::seed_from_u64(10);
        let table = nfm_tensor::init::normal(&mut rng, 10, 4, 0.1);
        let mut model =
            GruClassifier::new(&mut rng, 10, 4, 6, 2).with_pretrained_embeddings(table.clone());
        let mut opt = Adam::new(Schedule::Constant(1e-2));
        for _ in 0..5 {
            model.zero_grad();
            let logits = model.forward(&[1, 2, 3]);
            let (_, d) = softmax_cross_entropy(&logits, &[0]);
            model.backward(&d);
            opt.step(&mut model);
        }
        assert_eq!(model.embedding.table.data(), table.data());
    }

    #[test]
    fn inference_matches_training_forward() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut model = GruClassifier::new(&mut rng, 10, 4, 6, 2);
        let a = model.forward(&[1, 2, 3, 4]);
        let b = model.forward_inference(&[1, 2, 3, 4]);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b), "inference must compute the training forward's bits");
    }
}
