//! The BERT-style transformer encoder: token + learned position embeddings,
//! post-LN encoder blocks (attention and feed-forward sublayers with
//! residuals), processed one unpadded sequence at a time.
//!
//! Every forward takes a [`Readout`]: the positions of the hidden states
//! its caller reads ([`CLS_READOUT`] for `[CLS]`-only objectives, the
//! masked positions for MLM, [`FULL_READOUT`] for per-token ones).
//! Attention mixes every position into every row, so all blocks but the
//! last must run for all T rows; the last block gathers the read rows for
//! its queries, residual, LayerNorms, and FFN (keys and values still span
//! all T positions), and the backward scatter-adds their gradients back.
//! The kept rows are bitwise what the all-rows forward computes, and a
//! backward from their gradient leaves every parameter gradient bitwise
//! equal to the all-rows backward of that gradient scattered into zero
//! rows. The MAC cost model below still prices the full forward.
//!
//! For serving under deadlines, [`Encoder::plan_inference_cost`] walks a
//! forward's charge schedule before any compute runs: inference cost is
//! metered in deterministic multiply-accumulate units (a reproducible proxy
//! for wall time), checked before every encoder block, and the plan
//! returns a typed [`InferError::DeadlineExceeded`] instead of admitting
//! work the budget cannot afford.

use std::fmt;

use nfm_tensor::layers::{Embedding, Gelu, LayerNorm, Linear, Module};
use nfm_tensor::matrix::Matrix;
use rand::Rng;

use super::attention::MultiHeadAttention;
pub use super::attention::Readout;

/// Readout for callers that read only the `[CLS]` (first) row.
pub const CLS_READOUT: Readout<'static> = Readout::Rows(&[0]);
/// Readout for callers that read every row.
pub const FULL_READOUT: Readout<'static> = Readout::All;

/// Why a budgeted inference call could not produce hidden states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InferError {
    /// The token sequence is empty (nothing to encode).
    EmptyInput,
    /// The remaining deadline budget cannot cover the next unit of work.
    /// Costs are deterministic multiply-accumulate counts, so the same
    /// request against the same model misses its deadline identically on
    /// every run.
    DeadlineExceeded {
        /// Cost units already spent when the check failed.
        spent: u64,
        /// Cost units the next unit of work would need.
        needed: u64,
        /// The total budget the request arrived with.
        budget: u64,
    },
}

impl fmt::Display for InferError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferError::EmptyInput => write!(f, "empty token sequence"),
            InferError::DeadlineExceeded { spent, needed, budget } => write!(
                f,
                "deadline exceeded: spent {spent} + next step {needed} cost units > budget {budget}"
            ),
        }
    }
}

impl std::error::Error for InferError {}

/// Encoder hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncoderConfig {
    /// Vocabulary size.
    pub vocab: usize,
    /// Model dimension.
    pub d_model: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// Encoder blocks.
    pub n_layers: usize,
    /// Feed-forward inner dimension.
    pub d_ff: usize,
    /// Maximum sequence length (positional table size).
    pub max_len: usize,
}

impl EncoderConfig {
    /// A small default suited to CPU training.
    pub fn small(vocab: usize) -> EncoderConfig {
        EncoderConfig { vocab, d_model: 32, n_heads: 4, n_layers: 2, d_ff: 64, max_len: 128 }
    }
}

/// The readout block `i` of `n_blocks` runs under: every row, except the
/// last block's, which runs for the caller's read rows only.
fn block_readout(i: usize, n_blocks: usize, readout: Readout<'_>) -> Readout<'_> {
    if i + 1 == n_blocks {
        readout
    } else {
        Readout::All
    }
}

/// One post-LN encoder block.
#[derive(Debug, Clone)]
pub struct EncoderBlock {
    attn: MultiHeadAttention,
    ln1: LayerNorm,
    ff1: Linear,
    gelu: Gelu,
    ff2: Linear,
    ln2: LayerNorm,
    /// The positions the last training forward read (`None`: every row).
    read: Option<Vec<usize>>,
}

impl EncoderBlock {
    fn new<R: Rng + ?Sized>(rng: &mut R, cfg: &EncoderConfig) -> EncoderBlock {
        EncoderBlock {
            attn: MultiHeadAttention::new(rng, cfg.d_model, cfg.n_heads),
            ln1: LayerNorm::new(cfg.d_model),
            ff1: Linear::new(rng, cfg.d_model, cfg.d_ff),
            gelu: Gelu::new(),
            ff2: Linear::new(rng, cfg.d_ff, cfg.d_model),
            ln2: LayerNorm::new(cfg.d_model),
            read: None,
        }
    }

    /// Training forward of the rows of `x` that `readout` names.
    fn forward(&mut self, x: &Matrix, readout: Readout) -> Matrix {
        self.read = match readout {
            Readout::All => None,
            Readout::Rows(rows) => Some(rows.to_vec()),
        };
        let a = self.attn.forward(x, readout);
        let mut r1 = readout.gather(x).into_owned();
        r1.add_assign(&a);
        let h1 = self.ln1.forward(&r1);
        let f = self.ff2.forward(&self.gelu.forward(&self.ff1.forward(&h1)));
        let mut r2 = h1.clone();
        r2.add_assign(&f);
        self.ln2.forward(&r2)
    }

    fn forward_inference(&self, x: &Matrix, readout: Readout) -> Matrix {
        let a = self.attn.forward_inference(x, readout);
        let mut r1 = readout.gather(x).into_owned();
        r1.add_assign(&a);
        let h1 = self.ln1.forward_inference(&r1);
        let f = self
            .ff2
            .forward_inference(&self.gelu.forward_inference(&self.ff1.forward_inference(&h1)));
        let mut r2 = h1.clone();
        r2.add_assign(&f);
        self.ln2.forward_inference(&r2)
    }

    /// Backward from dL/dy of the rows the last forward kept; returns dL/dx
    /// for all T rows.
    fn backward(&mut self, dy: &Matrix) -> Matrix {
        let dr2 = self.ln2.backward(dy);
        // r2 = h1 + f
        let df = dr2.clone();
        let dff = self.ff1.backward(&self.gelu.backward(&self.ff2.backward(&df)));
        let mut dh1 = dr2;
        dh1.add_assign(&dff);
        let dr1 = self.ln1.backward(&dh1);
        // r1 = x[read] + attn(x): the residual reaches only the read rows.
        let readout = self.read.as_deref().map_or(Readout::All, Readout::Rows);
        let mut dx = self.attn.backward(&dr1, readout);
        readout.scatter_add(&mut dx, &dr1);
        dx
    }

    /// Attention probabilities (the kept rows' maps) from the last training
    /// forward.
    pub fn last_attention(&self) -> Option<&[Matrix]> {
        self.attn.last_attention()
    }
}

impl Module for EncoderBlock {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.attn.visit_params(f);
        self.ln1.visit_params(f);
        self.ff1.visit_params(f);
        self.ff2.visit_params(f);
        self.ln2.visit_params(f);
    }
}

/// The full encoder.
#[derive(Debug, Clone)]
pub struct Encoder {
    /// Hyperparameters.
    pub config: EncoderConfig,
    tok_emb: Embedding,
    pos_emb: Embedding,
    blocks: Vec<EncoderBlock>,
    emb_ln: LayerNorm,
}

impl Encoder {
    /// Create with random initialization. Panics on `n_layers == 0`: the
    /// readout shrinks the last block, so there must be one.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, config: EncoderConfig) -> Encoder {
        assert!(config.n_layers > 0, "an encoder needs at least one block");
        Encoder {
            tok_emb: Embedding::new(rng, config.vocab, config.d_model),
            pos_emb: Embedding::new(rng, config.max_len, config.d_model),
            blocks: (0..config.n_layers).map(|_| EncoderBlock::new(rng, &config)).collect(),
            emb_ln: LayerNorm::new(config.d_model),
            config,
        }
    }

    /// A copy of the token-embedding table (vocab × d_model).
    pub fn token_embeddings(&self) -> &Matrix {
        &self.tok_emb.table
    }

    /// Zero the token-embedding gradients accumulated this step. Calling
    /// this before every optimizer step freezes the embedding table (with
    /// optimizers whose state starts at zero), preserving pre-trained token
    /// geometry — including for tokens the fine-tuning set never contains.
    pub fn zero_token_embedding_grads(&mut self) {
        self.tok_emb.zero_grad();
    }

    fn clamp_ids<'a>(&self, ids: &'a [usize]) -> &'a [usize] {
        &ids[..ids.len().min(self.config.max_len)]
    }

    /// Forward one sequence of token ids (training mode; caches for
    /// backward). Returns the hidden states of the rows `readout` names, in
    /// position order; positions count in the sequence after clamping to
    /// `max_len`.
    pub fn forward(&mut self, ids: &[usize], readout: Readout) -> Matrix {
        let ids = self.clamp_ids(ids);
        assert!(!ids.is_empty(), "empty sequence");
        let t = ids.len();
        let positions: Vec<usize> = (0..t).collect();
        let mut x = self.tok_emb.forward(ids);
        x.add_assign(&self.pos_emb.forward(&positions));
        let mut h = self.emb_ln.forward(&x);
        let n_blocks = self.blocks.len();
        for (i, block) in self.blocks.iter_mut().enumerate() {
            h = block.forward(&h, block_readout(i, n_blocks, readout));
        }
        h
    }

    /// Forward without caching (inference): the hidden states of the rows
    /// `readout` names.
    pub fn forward_inference(&self, ids: &[usize], readout: Readout) -> Matrix {
        let ids = self.clamp_ids(ids);
        assert!(!ids.is_empty(), "empty sequence");
        let t = ids.len();
        let positions: Vec<usize> = (0..t).collect();
        let mut x = self.tok_emb.lookup(ids);
        x.add_assign(&self.pos_emb.lookup(&positions));
        let mut h = self.emb_ln.forward_inference(&x);
        for (i, block) in self.blocks.iter().enumerate() {
            h = block.forward_inference(&h, block_readout(i, self.blocks.len(), readout));
        }
        h
    }

    /// Deterministic cost (multiply-accumulate units) of running one
    /// encoder block on a `t`-token sequence: QKV/output projections,
    /// attention scores, and the feed-forward sublayer.
    pub fn block_cost(&self, t: usize) -> u64 {
        let t = t as u64;
        let d = self.config.d_model as u64;
        let d_ff = self.config.d_ff as u64;
        4 * t * d * d + 2 * t * t * d + 2 * t * d * d_ff
    }

    /// Cost of the embedding lookup + embedding layer norm for `t` tokens.
    pub fn embed_cost(&self, t: usize) -> u64 {
        2 * t as u64 * self.config.d_model as u64
    }

    /// Total inference cost for a `t`-token sequence (after clamping to
    /// `max_len`): embeddings plus every block. This is the reproducible
    /// wall-time proxy the serving path budgets against.
    pub fn inference_cost(&self, t: usize) -> u64 {
        let t = t.min(self.config.max_len);
        self.embed_cost(t) + self.config.n_layers as u64 * self.block_cost(t)
    }

    /// The deadline charge schedule of one [`Encoder::forward_inference`]
    /// on a `t`-token (pre-clamp) sequence, walked against `budget` before
    /// any compute runs: the embedding charge, then one block charge per
    /// layer, each checked before it is spent. Returns the encoder cost the
    /// forward spends, or a typed [`InferError`] naming the charge the
    /// budget could not cover — so a budgeted caller never starts work its
    /// deadline cannot afford, and never panics on empty input, which the
    /// forward asserts on.
    pub fn plan_inference_cost(&self, t: usize, budget: u64) -> Result<u64, InferError> {
        let t = t.min(self.config.max_len);
        if t == 0 {
            return Err(InferError::EmptyInput);
        }
        let mut spent = 0u64;
        let mut charge = |needed: u64| -> Result<(), InferError> {
            if spent + needed > budget {
                Err(InferError::DeadlineExceeded { spent, needed, budget })
            } else {
                spent += needed;
                Ok(())
            }
        };
        charge(self.embed_cost(t))?;
        let block_cost = self.block_cost(t);
        for _ in &self.blocks {
            charge(block_cost)?;
        }
        Ok(spent)
    }

    /// Backward from dL/dhidden of exactly the rows the last
    /// [`Encoder::forward`] returned; accumulates gradients in all
    /// submodules.
    pub fn backward(&mut self, dhidden: &Matrix) {
        let mut d = dhidden.clone();
        for block in self.blocks.iter_mut().rev() {
            d = block.backward(&d);
        }
        let dx = self.emb_ln.backward(&d);
        self.tok_emb.backward(&dx);
        self.pos_emb.backward(&dx);
    }

    /// Attention maps of the last training forward, per layer then head.
    /// The last layer's maps cover only the rows its readout kept; pass
    /// [`FULL_READOUT`] for every row's.
    pub fn last_attention(&self) -> Vec<&[Matrix]> {
        self.blocks.iter().filter_map(|b| b.last_attention()).collect()
    }

    /// The `[CLS]` (first-position) embedding of a sequence, inference mode.
    pub fn cls_embedding(&self, ids: &[usize]) -> Vec<f32> {
        self.forward_inference(ids, CLS_READOUT).into_data()
    }
}

impl Module for Encoder {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32])) {
        self.tok_emb.visit_params(f);
        self.pos_emb.visit_params(f);
        self.emb_ln.visit_params(f);
        for block in &mut self.blocks {
            block.visit_params(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small() -> (Encoder, StdRng) {
        let mut rng = StdRng::seed_from_u64(7);
        let enc = Encoder::new(
            &mut rng,
            EncoderConfig {
                vocab: 20,
                d_model: 16,
                n_heads: 2,
                n_layers: 2,
                d_ff: 32,
                max_len: 16,
            },
        );
        (enc, rng)
    }

    #[test]
    fn forward_shapes_and_finiteness() {
        let (mut enc, _) = small();
        let h = enc.forward(&[2, 5, 6, 7, 3], FULL_READOUT);
        assert_eq!((h.rows(), h.cols()), (5, 16));
        assert!(h.is_finite());
    }

    #[test]
    fn train_and_inference_agree() {
        let (mut enc, _) = small();
        let ids = [2usize, 9, 10, 3];
        let a = enc.forward(&ids, FULL_READOUT);
        let b = enc.forward_inference(&ids, FULL_READOUT);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn sequences_longer_than_max_len_are_clamped() {
        let (mut enc, _) = small();
        let ids: Vec<usize> = (0..40).map(|i| i % 20).collect();
        let h = enc.forward(&ids, FULL_READOUT);
        assert_eq!(h.rows(), 16);
    }

    #[test]
    fn contextual_embeddings_differ_by_context() {
        // The same token in different contexts gets different vectors —
        // the BERT-vs-Word2Vec distinction the paper's §2 highlights.
        let (mut enc, _) = small();
        let h1 = enc.forward(&[2, 7, 8, 3], FULL_READOUT);
        let h2 = enc.forward(&[2, 7, 15, 3], FULL_READOUT);
        // Token 7 at position 1 in both, different right context.
        let v1 = h1.row(1);
        let v2 = h2.row(1);
        let diff: f32 = v1.iter().zip(v2).map(|(a, b)| (a - b).abs()).sum();
        assert!(diff > 1e-3, "contextual embeddings should differ: {diff}");
    }

    #[test]
    fn end_to_end_gradient_check() {
        let (mut enc, _) = small();
        let ids = [2usize, 6, 11, 3];
        // L = ½‖h‖².
        let h = enc.forward(&ids, FULL_READOUT);
        enc.zero_grad();
        // Re-run forward so caches match the graded pass.
        let h = {
            let h2 = enc.forward(&ids, FULL_READOUT);
            assert_eq!(h.data(), h2.data());
            h2
        };
        enc.backward(&h);
        // Numeric check on one token-embedding entry.
        let eps = 1e-2;
        let token = ids[1];
        let dim0 = 0usize;
        let idx = token * 16 + dim0;
        let mut analytic = 0.0;
        let mut slot = 0;
        enc.visit_params(&mut |_, g| {
            if slot == 0 {
                analytic = g[idx];
            }
            slot += 1;
        });
        let loss = |enc: &Encoder| -> f32 {
            let h = enc.forward_inference(&ids, FULL_READOUT);
            0.5 * h.data().iter().map(|v| v * v).sum::<f32>()
        };
        let mut orig = 0.0;
        let mut slot = 0;
        enc.visit_params(&mut |p, _| {
            if slot == 0 {
                orig = p[idx];
                p[idx] = orig + eps;
            }
            slot += 1;
        });
        let lp = loss(&enc);
        let mut slot = 0;
        enc.visit_params(&mut |p, _| {
            if slot == 0 {
                p[idx] = orig - eps;
            }
            slot += 1;
        });
        let lm = loss(&enc);
        let mut slot = 0;
        enc.visit_params(&mut |p, _| {
            if slot == 0 {
                p[idx] = orig;
            }
            slot += 1;
        });
        let numeric = (lp - lm) / (2.0 * eps);
        let rel = (numeric - analytic).abs() / numeric.abs().max(1e-2);
        assert!(rel < 0.1, "numeric {numeric} analytic {analytic}");
    }

    #[test]
    fn plan_inference_cost_charges_embedding_then_each_block() {
        let (enc, _) = small();
        let t = 5;
        let cost = enc.inference_cost(t);
        assert!(cost > 0);
        assert_eq!(enc.plan_inference_cost(t, cost), Ok(cost), "exact budget suffices");
        assert_eq!(enc.plan_inference_cost(t, u64::MAX), Ok(cost));
        // Each refusal names the first charge the budget cannot cover: the
        // embedding, then block 1, then block 2.
        let (embed, block) = (enc.embed_cost(t), enc.block_cost(t));
        for (budget, spent, needed) in [
            (0, 0, embed),
            (embed - 1, 0, embed),
            (embed + block - 1, embed, block),
            (cost - 1, embed + block, block),
        ] {
            assert_eq!(
                enc.plan_inference_cost(t, budget),
                Err(InferError::DeadlineExceeded { spent, needed, budget }),
                "budget {budget}"
            );
        }
        let err = enc.plan_inference_cost(t, 0).expect_err("zero budget");
        assert!(err.to_string().contains("deadline exceeded"));
    }

    #[test]
    fn plan_inference_cost_handles_empty_and_overlong_input() {
        let (enc, _) = small();
        assert_eq!(enc.plan_inference_cost(0, u64::MAX), Err(InferError::EmptyInput));
        // Sequences past max_len are clamped, and the cost model agrees
        // with the rows the forward produces.
        let ids: Vec<usize> = (0..40).map(|i| i % 20).collect();
        let cost = enc.inference_cost(ids.len());
        assert_eq!(cost, enc.inference_cost(enc.config.max_len));
        assert_eq!(enc.plan_inference_cost(ids.len(), cost), Ok(cost));
        assert_eq!(enc.forward_inference(&ids, FULL_READOUT).rows(), enc.config.max_len);
    }

    #[test]
    fn readout_keeps_the_leading_rows_and_their_attention_maps() {
        let (mut enc, _) = small();
        let ids = [2usize, 9, 10, 11, 3];
        let full = enc.forward_inference(&ids, FULL_READOUT);
        let cases: [(Readout, &[usize]); 4] = [
            (CLS_READOUT, &[0]),
            (Readout::Rows(&[0, 1, 2]), &[0, 1, 2]),
            (FULL_READOUT, &[0, 1, 2, 3, 4]),
            (Readout::Rows(&[1, 3, 4]), &[1, 3, 4]),
        ];
        for (readout, rows) in cases {
            let h = enc.forward(&ids, readout);
            assert_eq!((h.rows(), h.cols()), (rows.len(), 16));
            for (i, &p) in rows.iter().enumerate() {
                let same =
                    h.row(i).iter().zip(full.row(p)).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{readout:?}: row {p}");
            }
            let maps = enc.last_attention();
            let shapes: Vec<(usize, usize)> =
                maps.iter().map(|heads| (heads[0].rows(), heads[0].cols())).collect();
            assert_eq!(shapes, vec![(5, 5), (rows.len(), 5)], "{readout:?}");
        }
        assert_eq!(enc.cls_embedding(&ids), full.row(0));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn readout_rows_out_of_order_are_rejected() {
        let (enc, _) = small();
        let _ = enc.forward_inference(&[2, 9, 10, 3], Readout::Rows(&[2, 1]));
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn encoder_without_blocks_is_rejected() {
        let mut rng = StdRng::seed_from_u64(8);
        let config =
            EncoderConfig { vocab: 10, d_model: 8, n_heads: 2, n_layers: 0, d_ff: 8, max_len: 8 };
        let _ = Encoder::new(&mut rng, config);
    }
}
