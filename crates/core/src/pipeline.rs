//! The foundation-model pipeline: pretrain on unlabeled traces → fine-tune
//! on a small labeled set → evaluate anywhere. This is the paper's central
//! proposal made concrete.
//!
//! All fallible entry points return typed errors (`PipelineError`) instead
//! of panicking, so operational deployments (the paper's §4.3 concern) can
//! degrade gracefully: empty inputs, diverged training runs, and corrupted
//! checkpoints are reported, never `panic!`ed.

use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::path::Path;
use std::sync::Arc;

use nfm_model::checkpoint::{
    read_cls_head, read_encoder, read_vocab, write_cls_head, write_encoder, write_vocab,
};
use nfm_model::context::{contexts_from_trace, flow_context, ContextStrategy};
use nfm_model::guard::{check_batch_size, GuardConfig, Telemetry, TrainError, TrainGuard, Trainee};
use nfm_model::nn::heads::ClsHead;
use nfm_model::nn::transformer::{
    Encoder, EncoderConfig, InferError, Readout, CLS_READOUT, FULL_READOUT,
};
use nfm_model::pretrain::{encode_context, pretrain, PretrainConfig, PretrainStats};
use nfm_model::tokenize::Tokenizer;
use nfm_model::vocab::Vocab;
use nfm_net::capture::Trace;
use nfm_tensor::checkpoint::{
    load_record, save_record, ByteReader, ByteWriter, CheckpointError, KIND_CLASSIFIER, KIND_MODEL,
    KIND_TASK_HEAD,
};
use nfm_tensor::layers::Module;
use nfm_tensor::loss::softmax_cross_entropy;
use nfm_tensor::matrix::Matrix;
use nfm_tensor::optim::{clip_global_norm, Adam, Schedule};
use nfm_tensor::pool as tpool;
use nfm_tensor::scratch::ScratchArena;
use nfm_traffic::dataset::LabeledFlow;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Errors surfaced by the pipeline instead of panics.
#[derive(Debug)]
pub enum PipelineError {
    /// No pre-training contexts could be extracted from the given traces.
    NoContexts,
    /// No labeled examples were provided for fine-tuning.
    NoExamples,
    /// Training failed (empty corpus, unrecoverable divergence, snapshot
    /// I/O failure).
    Train(TrainError),
    /// A model file could not be saved or loaded.
    Checkpoint(CheckpointError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::NoContexts => {
                write!(f, "no pretraining contexts could be extracted from the given traces")
            }
            PipelineError::NoExamples => {
                write!(f, "no labeled examples provided for fine-tuning")
            }
            PipelineError::Train(e) => write!(f, "training failed: {e}"),
            PipelineError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Train(e) => Some(e),
            PipelineError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TrainError> for PipelineError {
    fn from(e: TrainError) -> Self {
        PipelineError::Train(e)
    }
}

impl From<CheckpointError> for PipelineError {
    fn from(e: CheckpointError) -> Self {
        PipelineError::Checkpoint(e)
    }
}

/// Minimum corpus frequency for a token to enter the pre-training
/// vocabulary.
const MIN_FREQ: usize = 2;

/// Pipeline hyperparameters.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Model dimension.
    pub d_model: usize,
    /// Attention heads.
    pub n_heads: usize,
    /// Encoder layers.
    pub n_layers: usize,
    /// Feed-forward dimension.
    pub d_ff: usize,
    /// Maximum sequence length.
    pub max_len: usize,
    /// Pre-training context strategy.
    pub context: ContextStrategy,
    /// Pre-training configuration.
    pub pretrain: PretrainConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            d_model: 32,
            n_heads: 4,
            n_layers: 2,
            d_ff: 64,
            max_len: 96,
            context: ContextStrategy::Flow,
            pretrain: PretrainConfig::default(),
        }
    }
}

/// A pre-trained network foundation model: encoder plus vocabulary.
#[derive(Debug, Clone)]
pub struct FoundationModel {
    /// The pre-trained encoder.
    pub encoder: Encoder,
    /// The vocabulary it was trained with.
    pub vocab: Vocab,
    /// Sequence-length cap.
    pub max_len: usize,
}

impl FoundationModel {
    /// Pre-train a foundation model on unlabeled traces.
    pub fn pretrain_on(
        traces: &[&Trace],
        tokenizer: &dyn Tokenizer,
        config: &PipelineConfig,
    ) -> Result<(FoundationModel, PretrainStats), PipelineError> {
        let mut contexts = Vec::new();
        for trace in traces {
            contexts.extend(contexts_from_trace(
                trace,
                tokenizer,
                config.context,
                config.max_len - 2,
            ));
        }
        if contexts.is_empty() {
            return Err(PipelineError::NoContexts);
        }
        let vocab = Vocab::from_sequences(&contexts, MIN_FREQ);
        let enc_cfg = EncoderConfig {
            vocab: vocab.len(),
            d_model: config.d_model,
            n_heads: config.n_heads,
            n_layers: config.n_layers,
            d_ff: config.d_ff,
            max_len: config.max_len,
        };
        let (encoder, _mlm, stats) = pretrain(&contexts, &vocab, enc_cfg, &config.pretrain)?;
        Ok((FoundationModel { encoder, vocab, max_len: config.max_len }, stats))
    }

    /// Serialize the model (vocabulary + encoder weights) to a versioned,
    /// checksummed checkpoint file. Writes atomically (tmp + rename).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut w = ByteWriter::new();
        w.put_u64(self.max_len as u64);
        write_vocab(&mut w, &self.vocab);
        let mut encoder = self.encoder.clone();
        write_encoder(&mut w, &mut encoder);
        save_record(path, KIND_MODEL, &w.into_bytes())
    }

    /// Load a model previously written by [`FoundationModel::save`].
    /// Returns a typed error (never panics) on truncation, corruption, or
    /// version mismatch.
    pub fn load(path: &Path) -> Result<FoundationModel, CheckpointError> {
        let payload = load_record(path, KIND_MODEL)?;
        let mut r = ByteReader::new(&payload);
        let max_len = r.get_count()?;
        let vocab = read_vocab(&mut r)?;
        let encoder = read_encoder(&mut r)?;
        if r.remaining() != 0 {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after model payload",
                r.remaining()
            )));
        }
        Ok(FoundationModel { encoder, vocab, max_len })
    }

    /// Encode a token sequence to model input ids.
    pub fn encode(&self, tokens: &[String]) -> Vec<usize> {
        encode_context(&self.vocab, tokens, self.max_len)
    }

    /// `[CLS]` embedding for a token sequence.
    pub fn embed(&self, tokens: &[String]) -> Vec<f32> {
        self.encoder.cls_embedding(&self.encode(tokens))
    }
}

/// One labeled training example: a token sequence and its class id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextExample {
    /// Tokens (pre-vocabulary).
    pub tokens: Vec<String>,
    /// Dense class label.
    pub label: usize,
}

/// Convert labeled flows into classification examples with a caller-chosen
/// label extractor (app class, device class, malicious flag, …).
pub fn examples_from_flows(
    flows: &[LabeledFlow],
    tokenizer: &dyn Tokenizer,
    max_tokens: usize,
    label_fn: impl Fn(&LabeledFlow) -> Option<usize>,
) -> Vec<TextExample> {
    flows
        .iter()
        .filter_map(|f| {
            let label = label_fn(f)?;
            let tokens = flow_context(&f.packets, tokenizer, max_tokens);
            if tokens.is_empty() {
                None
            } else {
                Some(TextExample { tokens, label })
            }
        })
        .collect()
}

/// How the per-token hidden states are pooled into one vector for
/// classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pooling {
    /// Use the `[CLS]` (first) position.
    Cls,
    /// Mean over all positions — exposes token geometry directly and is
    /// more robust for small models.
    Mean,
}

impl Pooling {
    /// The encoder readout this pooling reads: the `[CLS]` row alone, or
    /// every row.
    fn readout(self) -> Readout<'static> {
        match self {
            Pooling::Cls => CLS_READOUT,
            Pooling::Mean => FULL_READOUT,
        }
    }
}

/// Fine-tuning hyperparameters.
#[derive(Debug, Clone)]
pub struct FineTuneConfig {
    /// Epochs over the labeled set.
    pub epochs: usize,
    /// Peak learning rate.
    pub lr: f32,
    /// Sequences per optimizer step.
    pub batch_size: usize,
    /// Seed for shuffling and head init.
    pub seed: u64,
    /// Train only the head, keeping the encoder frozen.
    pub freeze_encoder: bool,
    /// Keep the token-embedding table at its pre-trained values (encoder
    /// layers and head still adapt). Preserves the geometry of tokens the
    /// labeled set never contains — important for transfer to independent
    /// datasets.
    pub freeze_embeddings: bool,
    /// Pooling strategy feeding the head.
    pub pooling: Pooling,
    /// Divergence-guard thresholds and retry policy.
    pub guard: GuardConfig,
}

impl Default for FineTuneConfig {
    fn default() -> Self {
        FineTuneConfig {
            epochs: 4,
            lr: 1e-3,
            batch_size: 8,
            seed: 7,
            freeze_encoder: false,
            freeze_embeddings: false,
            pooling: Pooling::Cls,
            guard: GuardConfig::default(),
        }
    }
}

/// Argmax with NaN treated as −∞ and ties resolving to the lowest index —
/// a degraded model still yields a deterministic answer.
pub(crate) fn argmax_nan_tolerant(logits: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in logits.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Pool the hidden states an encoder forward returned for
/// `pooling.readout()` into one row.
fn pool(hidden: Matrix, pooling: Pooling) -> Matrix {
    match pooling {
        // The readout already kept only the [CLS] row.
        Pooling::Cls => {
            debug_assert_eq!(hidden.rows(), 1, "a [CLS] readout keeps one row");
            hidden
        }
        Pooling::Mean => {
            let mut out = Matrix::zeros(1, hidden.cols());
            for r in 0..hidden.rows() {
                for (o, v) in out.row_mut(0).iter_mut().zip(hidden.row(r)) {
                    *o += v;
                }
            }
            out.scale(1.0 / hidden.rows() as f32);
            out
        }
    }
}

/// The gradient of the hidden rows [`pool`] read, from the pooled row's:
/// the `[CLS]` row's gradient is the pooled one, and a mean spreads it
/// evenly over all `rows`.
fn unpool(dpooled: Matrix, rows: usize, pooling: Pooling) -> Matrix {
    match pooling {
        Pooling::Cls => dpooled,
        Pooling::Mean => {
            let scale = 1.0 / rows as f32;
            Matrix::from_fn(rows, dpooled.cols(), |_, c| dpooled.get(0, c) * scale)
        }
    }
}

/// Forward/backward a shard of fine-tuning examples on a worker's replica,
/// returning accumulated gradients (in `visit_params` order; encoder grads
/// are empty when the encoder is frozen) and the shard's loss sum. A
/// replica holds its own encoder only when the encoder trains; a frozen
/// one (`None`) runs the inference forward of the one `shared` encoder,
/// which computes the training forward's bits without caching for a
/// backward that never runs. The replica's gradients are zeroed first, so
/// a replica serves every shard its worker runs. The caller reduces shards
/// in fixed order, so the summed gradient is bitwise identical at every
/// thread count.
fn run_fine_tune_shard(
    (enc, hd): &mut (Option<Encoder>, ClsHead),
    shared: &Encoder,
    idxs: &[usize],
    encoded: &[(Vec<usize>, usize)],
    pooling: Pooling,
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>, f32) {
    if let Some(enc) = enc.as_mut() {
        enc.zero_grad();
    }
    hd.zero_grad();
    let mut loss_sum = 0.0f32;
    for &idx in idxs {
        let (ids, label) = &encoded[idx];
        let hidden = match enc.as_mut() {
            Some(enc) => enc.forward(ids, pooling.readout()),
            None => shared.forward_inference(ids, pooling.readout()),
        };
        let rows = hidden.rows();
        let logits = hd.forward(&pool(hidden, pooling));
        let (loss, dlogits) = softmax_cross_entropy(&logits, &[*label]);
        loss_sum += loss;
        let dpooled = hd.backward(&dlogits);
        if let Some(enc) = enc.as_mut() {
            enc.backward(&unpool(dpooled, rows, pooling));
        }
    }
    let enc_grads = enc.as_mut().map_or_else(Vec::new, |enc| enc.export_grads());
    (enc_grads, hd.export_grads(), loss_sum)
}

/// Everything one fine-tuning run updates — the encoder, the head, their
/// optimizers, and the epoch's loss sum — plus the examples its batches
/// draw from. [`TrainGuard`] clones it as the epoch-start snapshot.
#[derive(Clone)]
struct FineTuneState<'a, 'e> {
    config: &'a FineTuneConfig,
    encoded: &'a [(Vec<usize>, usize)],
    pooling: Pooling,
    /// Borrowed exactly when `config.freeze_encoder` is set, so a snapshot
    /// copies the encoder only when the run trains it, and `to_mut` never
    /// copies.
    encoder: Cow<'e, Encoder>,
    head: ClsHead,
    opt_enc: Adam,
    opt_head: Adam,
    /// Sum of this epoch's per-batch mean losses, and the batch count.
    loss_sum: f64,
    batches: usize,
}

impl Trainee for FineTuneState<'_, '_> {
    fn batch(&mut self, idxs: &[usize], _rng: &mut StdRng, _step: u64) -> (f32, f32) {
        let freeze_encoder = self.config.freeze_encoder;
        if !freeze_encoder {
            self.encoder.to_mut().zero_grad();
        }
        self.head.zero_grad();
        // Fixed microbatch shards (boundaries depend only on the batch
        // length) run in parallel on one replica per worker (the head alone
        // when the encoder is frozen); the reduction below folds them in
        // shard order. Work-gated: training the encoder costs forward +
        // backward ≈ 3× the inference MACs, a frozen encoder runs its
        // inference forward alone (1×), and below the gate the spawn +
        // replica-clone + grad-reduce overhead beats any parallel win.
        let passes = if freeze_encoder { 1 } else { 3 };
        let example_cost =
            |&idx: &usize| passes * self.encoder.inference_cost(self.encoded[idx].0.len()) as usize;
        let shards = tpool::shard_ranges(idxs.len(), tpool::REDUCE_SHARDS);
        let costs: Vec<usize> =
            shards.iter().map(|r| idxs[r.clone()].iter().map(example_cost).sum()).collect();
        let results = tpool::par_map_work(
            &costs,
            || ((!freeze_encoder).then(|| Encoder::clone(&self.encoder)), self.head.clone()),
            |replica, s| {
                let shard = &idxs[shards[s].clone()];
                run_fine_tune_shard(replica, &self.encoder, shard, self.encoded, self.pooling)
            },
        );
        let mut batch_loss = 0.0f32;
        for (enc_g, head_g, loss) in results {
            if !freeze_encoder {
                self.encoder.to_mut().accumulate_grads(&enc_g);
            }
            self.head.accumulate_grads(&head_g);
            batch_loss += loss;
        }
        let mean_loss = batch_loss / idxs.len().max(1) as f32;
        let mut grad_norm = clip_global_norm(&mut self.head, 5.0);
        if !freeze_encoder {
            let encoder = self.encoder.to_mut();
            if self.config.freeze_embeddings {
                encoder.zero_token_embedding_grads();
            }
            grad_norm = grad_norm.max(clip_global_norm(encoder, 5.0));
        }
        self.loss_sum += mean_loss as f64;
        self.batches += 1;
        (mean_loss, grad_norm)
    }

    fn apply(&mut self) {
        self.opt_head.step(&mut self.head);
        if !self.config.freeze_encoder {
            self.opt_enc.step(self.encoder.to_mut());
        }
    }

    fn set_lr_scale(&mut self, scale: f32) {
        self.opt_enc.set_lr_scale(scale);
        self.opt_head.set_lr_scale(scale);
    }
}

/// One request's outcome from the deadline-aware logits paths: the logits
/// plus the cost actually spent, or the typed refusal.
pub type CostedLogits = Result<(Vec<f32>, u64), InferError>;

/// A fine-tuned classifier: a shared [`FmBackbone`] plus one [`TaskHead`].
/// Clones share one backbone allocation, so replicas and multi-task lanes
/// built from one classifier hold one copy of the encoder; mutable access
/// ([`FmClassifier::encoder_mut`]) copies the backbone first, so changing
/// one holder's weights never changes another's.
#[derive(Debug, Clone)]
pub struct FmClassifier {
    backbone: Arc<FmBackbone>,
    head: TaskHead,
}

impl FmClassifier {
    /// Fine-tune `fm` on labeled examples.
    ///
    /// Runs under a [`TrainGuard`]: each optimizer step's mean loss and
    /// pre-clip gradient norm are checked for NaN/Inf/explosion. A tripped
    /// guard rolls the epoch back to its starting weights, halves the
    /// learning rate, and reshuffles; after `guard.max_retries` failed
    /// attempts the run aborts with [`TrainError::Diverged`]. A zero
    /// `batch_size` returns [`TrainError::InvalidConfig`] before any work
    /// starts, as every fine-tuning entry point does.
    pub fn fine_tune(
        fm: &FoundationModel,
        examples: &[TextExample],
        n_classes: usize,
        config: &FineTuneConfig,
    ) -> Result<FmClassifier, PipelineError> {
        check_batch_size(config.batch_size)?;
        if examples.is_empty() {
            return Err(PipelineError::NoExamples);
        }
        let (d_model, pooling) = (fm.encoder.config.d_model, config.pooling);
        let head = TaskHead::init("", d_model, pooling, n_classes, config.seed);
        let (encoder, head) = Self::fine_tune_loop(
            &fm.encoder,
            &fm.vocab,
            fm.max_len,
            pooling,
            head,
            examples,
            config,
        )?;
        let backbone = FmBackbone {
            encoder: encoder.into_owned(),
            vocab: fm.vocab.clone(),
            max_len: fm.max_len,
            pooling,
        };
        Ok(FmClassifier { backbone: Arc::new(backbone), head })
    }

    /// Warm-start fine-tuning from an existing classifier: the encoder and
    /// head continue from `base`'s weights instead of a freshly initialized
    /// head. This is the serving-adaptation path — a cluster re-fits its
    /// incumbent model on quarantined + replay traffic without retraining
    /// from the foundation model. Class count and pooling are inherited
    /// from `base` (a head cannot change shape mid-flight), so
    /// `config.pooling` is ignored. With `config.freeze_encoder` set the
    /// result shares `base`'s backbone.
    pub fn fine_tune_from(
        base: &FmClassifier,
        examples: &[TextExample],
        config: &FineTuneConfig,
    ) -> Result<FmClassifier, PipelineError> {
        check_batch_size(config.batch_size)?;
        if examples.is_empty() {
            return Err(PipelineError::NoExamples);
        }
        let b = &base.backbone;
        let (encoder, head) = Self::fine_tune_loop(
            &b.encoder,
            &b.vocab,
            b.max_len,
            b.pooling,
            base.head.clone(),
            examples,
            config,
        )?;
        let backbone = match encoder {
            Cow::Borrowed(_) => Arc::clone(b),
            Cow::Owned(encoder) => Arc::new(FmBackbone {
                encoder,
                vocab: b.vocab.clone(),
                max_len: b.max_len,
                pooling: b.pooling,
            }),
        };
        Ok(FmClassifier { backbone, head })
    }

    /// The fine-tuning run shared by [`FmClassifier::fine_tune`] (fresh
    /// head), [`FmClassifier::fine_tune_from`] (warm start), and the
    /// head-only [`TaskHead`] fits: each epoch runs under the same
    /// [`TrainGuard`] loop as pre-training, encoding `examples` with
    /// `vocab` and `max_len` and pooling through `pooling`;
    /// `config.pooling` is not read. A frozen run
    /// (`config.freeze_encoder`) reads `encoder` in place and hands it back
    /// borrowed; any other run trains, and returns, its own copy.
    fn fine_tune_loop<'e>(
        encoder: &'e Encoder,
        vocab: &Vocab,
        max_len: usize,
        pooling: Pooling,
        task: TaskHead,
        examples: &[TextExample],
        config: &FineTuneConfig,
    ) -> Result<(Cow<'e, Encoder>, TaskHead), PipelineError> {
        let encoder = if config.freeze_encoder {
            Cow::Borrowed(encoder)
        } else {
            Cow::Owned(encoder.clone())
        };
        let TaskHead { name, head, n_classes, .. } = task;
        // Span cost = MAC delta over the run (deterministic work units).
        let macs = nfm_obs::global().counter("tensor.matmul.macs", nfm_obs::Unit::Macs);
        let macs_at_start = macs.get();
        let mut run_span = nfm_obs::span!("finetune.run");

        let encoded: Vec<(Vec<usize>, usize)> =
            examples.iter().map(|e| (encode_context(vocab, &e.tokens, max_len), e.label)).collect();
        let steps = (encoded.len().div_ceil(config.batch_size) * config.epochs).max(1);
        let schedule =
            Schedule::WarmupLinear { peak: config.lr, warmup: steps / 10 + 1, total: steps + 1 };
        let mut st = FineTuneState {
            config,
            encoded: &encoded,
            pooling,
            encoder,
            head,
            opt_enc: Adam::new(schedule),
            opt_head: Adam::new(schedule),
            loss_sum: 0.0,
            batches: 0,
        };
        let mut guard =
            TrainGuard::new(config.guard, Telemetry::FINETUNE, config.seed, config.batch_size);
        for epoch in 0..config.epochs {
            st.loss_sum = 0.0;
            st.batches = 0;
            guard.epoch(epoch, encoded.len(), &mut st)?;
            nfm_obs::counter!("finetune.epochs").inc();
            let mean = if st.batches > 0 { (st.loss_sum / st.batches as f64) as f32 } else { 0.0 };
            nfm_obs::event(
                "finetune.epoch",
                &[
                    ("epoch", nfm_obs::Value::U(epoch as u64)),
                    ("mean_loss", nfm_obs::Value::F32(mean)),
                ],
            );
        }
        run_span.add_cost(macs.get().saturating_sub(macs_at_start));
        Ok((st.encoder, TaskHead { name, head: st.head, n_classes, pooling }))
    }

    /// Serialize the fine-tuned classifier (vocabulary + encoder + head +
    /// pooling) to a versioned, checksummed checkpoint file. Writes
    /// atomically (tmp + rename). This is the artifact a cluster replica
    /// warm-restarts from.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let backbone = &self.backbone;
        let mut w = ByteWriter::new();
        w.put_u64(backbone.max_len as u64);
        w.put_u64(self.head.n_classes as u64);
        w.put_u8(match backbone.pooling {
            Pooling::Cls => 0,
            Pooling::Mean => 1,
        });
        write_vocab(&mut w, &backbone.vocab);
        let mut encoder = backbone.encoder.clone();
        write_encoder(&mut w, &mut encoder);
        let mut head = self.head.head.clone();
        write_cls_head(&mut w, &mut head);
        save_record(path, KIND_CLASSIFIER, &w.into_bytes())
    }

    /// Load a classifier previously written by [`FmClassifier::save`].
    /// Returns a typed error (never panics) on truncation, corruption, or
    /// version mismatch — the contract [`crate::serve::load_classifier_with_retry`]
    /// builds its retry loop on.
    pub fn load(path: &Path) -> Result<FmClassifier, CheckpointError> {
        let payload = load_record(path, KIND_CLASSIFIER)?;
        let mut r = ByteReader::new(&payload);
        let max_len = r.get_count()?;
        let n_classes = r.get_count()?;
        let pooling = match r.get_u8()? {
            0 => Pooling::Cls,
            1 => Pooling::Mean,
            tag => {
                return Err(CheckpointError::Malformed(format!("unknown pooling tag {tag}")));
            }
        };
        let vocab = read_vocab(&mut r)?;
        let encoder = read_encoder(&mut r)?;
        let head = read_cls_head(&mut r)?;
        if r.remaining() != 0 {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after classifier payload",
                r.remaining()
            )));
        }
        Ok(FmClassifier {
            backbone: Arc::new(FmBackbone { encoder, vocab, max_len, pooling }),
            head: TaskHead { name: String::new(), head, n_classes, pooling },
        })
    }

    /// Raw logits for a token sequence.
    pub fn logits(&self, tokens: &[String]) -> Vec<f32> {
        let pooled = self.backbone.pooled(&self.backbone.encode(tokens));
        self.head.logits_batch(&pooled).into_data()
    }

    /// Predicted class id. NaN logits compare as −∞ (a degraded model
    /// still yields a deterministic answer instead of panicking); ties
    /// resolve to the lowest class index.
    pub fn predict(&self, tokens: &[String]) -> usize {
        argmax_nan_tolerant(&self.logits(tokens))
    }

    /// Deterministic inference cost (multiply-accumulate units) of
    /// classifying a `n_tokens`-token sequence: encoder plus head. The
    /// serving path budgets request deadlines against this proxy, so the
    /// same request costs the same on every run.
    pub fn inference_cost(&self, n_tokens: usize) -> u64 {
        self.backbone.encoder_cost(n_tokens) + self.head.head_cost(self.backbone.d_model())
    }

    /// Deadline-aware logits: plans the encoder's charges against `budget`
    /// ([`Encoder::plan_inference_cost`]) before running it, then charges
    /// the head, returning a typed [`InferError`] for the first charge the
    /// budget cannot cover. On success also reports the cost spent. Never
    /// panics — empty post-encoding sequences surface as
    /// [`InferError::EmptyInput`].
    pub fn logits_within(&self, tokens: &[String], budget: u64) -> CostedLogits {
        let (pooled, spent) = self.backbone.pooled_within(tokens, budget)?;
        self.head.logits_within(&pooled, spent, budget)
    }

    /// Predicted class ids for a batch of sequences. Examples are sharded
    /// across the worker pool (inference only reads `&self`), and results
    /// come back in input order, so the output is identical to mapping
    /// [`FmClassifier::predict`] sequentially. The dispatch is work-gated
    /// on the batch's deterministic MAC estimate so small batches skip the
    /// thread-spawn overhead.
    pub fn predict_batch(&self, batch: &[Vec<String>]) -> Vec<usize> {
        let costs: Vec<usize> =
            batch.iter().map(|t| self.inference_cost(t.len()) as usize).collect();
        tpool::par_map_work(&costs, || (), |_, i| self.predict(&batch[i]))
    }

    /// Softmax class probabilities.
    pub fn probabilities(&self, tokens: &[String]) -> Vec<f32> {
        let mut m = Matrix::from_vec(1, self.head.n_classes, self.logits(tokens));
        m.softmax_rows();
        m.row(0).to_vec()
    }

    /// Pooled embedding (pre-head), used by the OOD detectors. Uses the
    /// same pooling the head was trained with.
    pub fn embed(&self, tokens: &[String]) -> Vec<f32> {
        self.backbone.pooled(&self.backbone.encode(tokens)).into_data()
    }

    /// Evaluate on examples, returning the confusion matrix. Predictions
    /// run example-parallel; the confusion matrix accumulates integer
    /// counts, so the result never depends on the thread count.
    pub fn evaluate(&self, examples: &[TextExample]) -> crate::metrics::Confusion {
        let costs: Vec<usize> =
            examples.iter().map(|e| self.inference_cost(e.tokens.len()) as usize).collect();
        let preds = tpool::par_map_work(&costs, || (), |_, i| self.predict(&examples[i].tokens));
        let mut c = crate::metrics::Confusion::new(self.head.n_classes);
        for (e, p) in examples.iter().zip(preds) {
            c.add(e.label, p);
        }
        c
    }

    /// Pair a shared backbone with a head without copying the backbone —
    /// how [`crate::serve::MultiTaskServer`] lanes share one encoder.
    pub(crate) fn new(backbone: Arc<FmBackbone>, head: TaskHead) -> FmClassifier {
        FmClassifier { backbone, head }
    }

    /// The backbone of this classifier: its encoder, vocabulary, sequence
    /// cap, and pooling. Heads fine-tuned against it
    /// ([`TaskHead::fine_tune`]) share one encoder forward at serving time
    /// ([`crate::serve::MultiTaskServer`]).
    pub fn backbone(&self) -> &FmBackbone {
        &self.backbone
    }

    /// The classification head.
    pub fn head(&self) -> &TaskHead {
        &self.head
    }

    /// Mutable access to the encoder — the hook fault-injection harnesses
    /// poison weights through, and the training-mode forward
    /// [`crate::interpret::attention_rollout`] runs. A backbone shared with
    /// other classifiers is copied first ([`Arc::make_mut`]), so no other
    /// holder's weights change.
    pub fn encoder_mut(&mut self) -> &mut Encoder {
        &mut Arc::make_mut(&mut self.backbone).encoder
    }
}

/// The shared half of a multi-task deployment: the pre-trained encoder,
/// its vocabulary, the sequence cap, and the pooling strategy every task
/// head reads its embedding through. [`TaskHead`]s are trained against a
/// *frozen* backbone, so serving K tasks costs one encoder forward plus K
/// head GEMMs instead of K encoder forwards — the paper's amortization
/// argument (§3) made operational by [`crate::serve::MultiTaskServer`].
#[derive(Debug, Clone)]
pub struct FmBackbone {
    /// The shared encoder. Frozen with respect to task heads: head-only
    /// fine-tuning never updates it.
    pub encoder: Encoder,
    /// Vocabulary shared by every task.
    pub vocab: Vocab,
    /// Sequence cap.
    pub max_len: usize,
    /// Pooling strategy every head reads the hidden states through.
    pub pooling: Pooling,
}

/// The pooled embeddings of a batch of requests, produced by
/// [`FmBackbone::pooled_batch_within`]. `pooled` is drawn from the
/// caller's [`ScratchArena`]; return it with [`ScratchArena::put`] once
/// the task heads have consumed it.
#[derive(Debug)]
pub struct PooledBatch {
    /// Arena-backed pooled embeddings, one row per affordable request.
    pub pooled: Matrix,
    /// `(request index, encoder cost spent)` for each row of `pooled`.
    pub rows: Vec<(usize, u64)>,
    /// Requests the budget could not cover, with their typed refusals.
    pub refused: Vec<(usize, InferError)>,
}

impl FmBackbone {
    /// Wrap a pre-trained foundation model as a serving backbone with the
    /// pooling its heads will be trained with.
    pub fn from_model(fm: &FoundationModel, pooling: Pooling) -> FmBackbone {
        FmBackbone {
            encoder: fm.encoder.clone(),
            vocab: fm.vocab.clone(),
            max_len: fm.max_len,
            pooling,
        }
    }

    /// Model dimension of the shared encoder.
    pub fn d_model(&self) -> usize {
        self.encoder.config.d_model
    }

    /// Deterministic encoder cost (multiply-accumulate units) of embedding
    /// an `n_tokens`-token sequence, mirroring the `[CLS]`/`[SEP]` framing
    /// `encode_context` adds — the shared, paid-once part of
    /// [`FmClassifier::inference_cost`].
    pub fn encoder_cost(&self, n_tokens: usize) -> u64 {
        let t = (n_tokens + 2).min(self.max_len);
        self.encoder.inference_cost(t)
    }

    /// Reattach a task head, producing the single-task classifier a
    /// standalone [`crate::serve::ServeEngine`] would serve. Because heads
    /// are trained with the encoder frozen, this reconstructs exactly the
    /// classifier head-only fine-tuning produced — the identity `exp_e19`
    /// and the multi-task proptests assert bitwise.
    pub fn attach(&self, head: &TaskHead) -> FmClassifier {
        FmClassifier::new(Arc::new(self.clone()), head.clone())
    }

    /// Fine-tune `task` against this backbone with the encoder frozen,
    /// whatever `config.freeze_encoder` says: the run reads the encoder in
    /// place and only the head trains.
    fn fit_frozen(
        &self,
        task: TaskHead,
        examples: &[TextExample],
        config: &FineTuneConfig,
    ) -> Result<TaskHead, PipelineError> {
        let config = FineTuneConfig { freeze_encoder: true, ..config.clone() };
        let (_, head) = FmClassifier::fine_tune_loop(
            &self.encoder,
            &self.vocab,
            self.max_len,
            self.pooling,
            task,
            examples,
            &config,
        )?;
        Ok(head)
    }

    /// Model input ids for a token sequence.
    fn encode(&self, tokens: &[String]) -> Vec<usize> {
        encode_context(&self.vocab, tokens, self.max_len)
    }

    /// The pooled embedding (1 × d_model) every head reads: one
    /// [`Encoder::forward_inference`] over `ids`, pooled the way the heads
    /// were trained.
    fn pooled(&self, ids: &[usize]) -> Matrix {
        pool(self.encoder.forward_inference(ids, self.pooling.readout()), self.pooling)
    }

    /// The encoder half of a budgeted request: plan the encoder's charges
    /// against `budget` ([`Encoder::plan_inference_cost`]), and only if
    /// they fit run the forward and pool. Returns the pooled embedding and
    /// the encoder cost spent, or the plan's typed refusal.
    pub(crate) fn pooled_within(
        &self,
        tokens: &[String],
        budget: u64,
    ) -> Result<(Matrix, u64), InferError> {
        let ids = self.encode(tokens);
        let spent = self.encoder.plan_inference_cost(ids.len(), budget)?;
        Ok((self.pooled(&ids), spent))
    }

    /// Pool each request of a batch under a per-request deadline
    /// `budget`: requests the budget cannot cover surface their typed
    /// [`InferError`] in `refused`, and every other request runs one
    /// encoder forward, so each row of `pooled` is bitwise what
    /// [`FmClassifier::logits_within`] pools for that request.
    pub fn pooled_batch_within(
        &self,
        batch: &[&[String]],
        budget: u64,
        arena: &mut ScratchArena,
    ) -> PooledBatch {
        let mut rows = Vec::with_capacity(batch.len());
        let mut embeddings = Vec::with_capacity(batch.len());
        let mut refused = Vec::new();
        for (i, tokens) in batch.iter().enumerate() {
            match self.pooled_within(tokens, budget) {
                Ok((embedding, spent)) => {
                    rows.push((i, spent));
                    embeddings.push(embedding);
                }
                Err(e) => refused.push((i, e)),
            }
        }
        let mut pooled = arena.take(rows.len(), self.d_model());
        for (j, embedding) in embeddings.iter().enumerate() {
            pooled.row_mut(j).copy_from_slice(embedding.row(0));
        }
        PooledBatch { pooled, rows, refused }
    }
}

/// A lightweight per-task classification head detached from its shared
/// [`FmBackbone`]: the trainable half of the multi-task split. Heads are
/// fine-tuned with the encoder frozen, checkpoint independently
/// ([`nfm_tensor::checkpoint::KIND_TASK_HEAD`]), and can be hot-swapped
/// one at a time — drift on one task refits and rolls out that task's
/// head without touching the backbone or any other task.
#[derive(Debug, Clone)]
pub struct TaskHead {
    /// Task display name (also labels `serve.task.*` telemetry).
    pub name: String,
    head: ClsHead,
    /// Number of classes this head predicts.
    pub n_classes: usize,
    /// Pooling the head was trained with (always its backbone's).
    pub pooling: Pooling,
}

impl TaskHead {
    /// Fine-tune a fresh head for one task against a frozen shared
    /// backbone. This is [`FmClassifier::fine_tune`] with
    /// `freeze_encoder` forced on and the backbone's pooling — the same
    /// training loop, divergence guard, and seeding — so the head that
    /// comes back, reattached via [`FmBackbone::attach`], is bitwise
    /// identical to the classifier head-only fine-tuning produces.
    pub fn fine_tune(
        backbone: &FmBackbone,
        name: &str,
        examples: &[TextExample],
        n_classes: usize,
        config: &FineTuneConfig,
    ) -> Result<TaskHead, PipelineError> {
        check_batch_size(config.batch_size)?;
        if examples.is_empty() {
            return Err(PipelineError::NoExamples);
        }
        let head =
            TaskHead::init(name, backbone.d_model(), backbone.pooling, n_classes, config.seed);
        backbone.fit_frozen(head, examples, config)
    }

    /// Continue training this head (warm start) against the same frozen
    /// backbone — the single-head adaptation path: drift on one task
    /// refits that task's head on quarantined + replay traffic while the
    /// backbone and every other head stay bitwise untouched.
    pub fn fine_tune_from(
        &self,
        backbone: &FmBackbone,
        examples: &[TextExample],
        config: &FineTuneConfig,
    ) -> Result<TaskHead, PipelineError> {
        check_batch_size(config.batch_size)?;
        if examples.is_empty() {
            return Err(PipelineError::NoExamples);
        }
        backbone.fit_frozen(self.clone(), examples, config)
    }

    /// A freshly initialized head over `d_model`-wide embeddings pooled by
    /// `pooling`, seeded by `seed`.
    fn init(name: &str, d_model: usize, pooling: Pooling, n_classes: usize, seed: u64) -> TaskHead {
        let mut rng = StdRng::seed_from_u64(seed);
        TaskHead {
            name: name.to_string(),
            head: ClsHead::new(&mut rng, d_model, n_classes),
            n_classes,
            pooling,
        }
    }

    /// Deterministic head cost in the same multiply-accumulate units as
    /// [`FmClassifier::inference_cost`]: the per-task, paid-per-head part
    /// of a fan-out request.
    pub fn head_cost(&self, d_model: usize) -> u64 {
        (d_model * self.n_classes) as u64
    }

    /// Mutable access to the head network — the chaos hook (mirroring
    /// [`crate::serve::ServeEngine::model_mut`]) fault-injection tests use
    /// to poison per-task weights. Serving code must treat heads as
    /// immutable and roll new ones via
    /// [`crate::serve::MultiTaskServer::replace_head`].
    pub fn network_mut(&mut self) -> &mut ClsHead {
        &mut self.head
    }

    /// Logits for a matrix of pooled embeddings (one request per row), as
    /// one GEMM across the rows — bitwise identical per row to the
    /// single-request head forward inside [`FmClassifier::logits_within`].
    pub fn logits_batch(&self, pooled: &Matrix) -> Matrix {
        self.head.forward_inference(pooled)
    }

    /// The head half of a budgeted request: charge this head against
    /// `budget` on top of the encoder's `enc_spent`, and only if it fits
    /// run it on the one-row `pooled` embedding. Returns the logits and the
    /// total cost, or the [`InferError::DeadlineExceeded`] naming the head
    /// charge.
    pub(crate) fn logits_within(
        &self,
        pooled: &Matrix,
        enc_spent: u64,
        budget: u64,
    ) -> CostedLogits {
        let head_cost = self.head_cost(pooled.cols());
        if enc_spent + head_cost > budget {
            return Err(InferError::DeadlineExceeded {
                spent: enc_spent,
                needed: head_cost,
                budget,
            });
        }
        Ok((self.logits_batch(pooled).into_data(), enc_spent + head_cost))
    }

    /// Serialize the head (name + class count + pooling + weights) to a
    /// versioned, checksummed [`nfm_tensor::checkpoint::KIND_TASK_HEAD`]
    /// record. Writes atomically (tmp + rename). Orders of magnitude
    /// smaller than a full classifier checkpoint: per-task rollouts ship
    /// only the head.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut w = ByteWriter::new();
        w.put_str(&self.name);
        w.put_u64(self.n_classes as u64);
        w.put_u8(match self.pooling {
            Pooling::Cls => 0,
            Pooling::Mean => 1,
        });
        let mut head = self.head.clone();
        write_cls_head(&mut w, &mut head);
        save_record(path, KIND_TASK_HEAD, &w.into_bytes())
    }

    /// Load a head previously written by [`TaskHead::save`]. Returns a
    /// typed error (never panics) on truncation, corruption, version
    /// mismatch, or a head whose declared class count contradicts its
    /// weight shapes.
    pub fn load(path: &Path) -> Result<TaskHead, CheckpointError> {
        let payload = load_record(path, KIND_TASK_HEAD)?;
        let mut r = ByteReader::new(&payload);
        let name = r.get_str()?;
        let n_classes = r.get_count()?;
        let pooling = match r.get_u8()? {
            0 => Pooling::Cls,
            1 => Pooling::Mean,
            tag => {
                return Err(CheckpointError::Malformed(format!("unknown pooling tag {tag}")));
            }
        };
        let head = read_cls_head(&mut r)?;
        if r.remaining() != 0 {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after task-head payload",
                r.remaining()
            )));
        }
        if head.dims().1 != n_classes {
            return Err(CheckpointError::Malformed(format!(
                "task head declares {} classes but its weights produce {}",
                n_classes,
                head.dims().1
            )));
        }
        Ok(TaskHead { name, head, n_classes, pooling })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::tiny;
    use nfm_model::tokenize::field::FieldTokenizer;
    use nfm_traffic::netsim::{simulate, SimConfig};

    #[test]
    fn pretrain_produces_usable_model() {
        let fm = tiny().fm.clone();
        assert!(fm.vocab.len() > 10);
        let emb = fm.embed(&["IP4".to_string(), "PROTO_UDP".to_string()]);
        assert_eq!(emb.len(), 16);
        assert!(emb.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_inputs_are_typed_errors() {
        let tok = FieldTokenizer::new();
        let err = FoundationModel::pretrain_on(&[], &tok, &PipelineConfig::default());
        assert!(matches!(err, Err(PipelineError::NoContexts)));

        let fm = tiny().fm.clone();
        let err = FmClassifier::fine_tune(&fm, &[], 2, &FineTuneConfig::default());
        assert!(matches!(err, Err(PipelineError::NoExamples)));
        // Errors render human-readable messages.
        let msg = format!("{}", PipelineError::NoContexts);
        assert!(msg.contains("contexts"));
    }

    #[test]
    fn model_save_load_round_trip_is_bitwise() {
        let fm = tiny().fm.clone();
        let dir = std::env::temp_dir().join(format!("nfm_pipeline_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("model.nfmc");
        fm.save(&path).expect("save");
        let loaded = FoundationModel::load(&path).expect("load");
        assert_eq!(loaded.max_len, fm.max_len);
        assert_eq!(loaded.vocab.len(), fm.vocab.len());
        let toks = vec!["IP4".to_string(), "PROTO_UDP".to_string()];
        let a = fm.embed(&toks);
        let b = loaded.embed(&toks);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "loaded model must be bitwise identical"
        );

        // Corrupting the file yields a typed error, never a panic.
        let mut bytes = std::fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).expect("write");
        assert!(FoundationModel::load(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn classifier_save_load_round_trip_is_bitwise() {
        let fm = tiny().fm.clone();
        let train: Vec<TextExample> = (0..10)
            .map(|i| TextExample {
                tokens: vec![if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string()],
                label: i % 2,
            })
            .collect();
        let clf = FmClassifier::fine_tune(
            &fm,
            &train,
            2,
            &FineTuneConfig { pooling: Pooling::Mean, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed");
        let dir = std::env::temp_dir().join(format!("nfm_clf_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("clf.nfmc");
        clf.save(&path).expect("save");
        let loaded = FmClassifier::load(&path).expect("load");
        assert_eq!(loaded.backbone().max_len, clf.backbone().max_len);
        assert_eq!(loaded.head().n_classes, clf.head().n_classes);
        assert_eq!(loaded.backbone().pooling, clf.backbone().pooling);
        let toks = &train[0].tokens;
        let (a, b) = (clf.logits(toks), loaded.logits(toks));
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "loaded classifier must be bitwise identical"
        );
        // A foundation-model record is rejected by kind, not mangled.
        let fm_path = dir.join("fm.nfmc");
        fm.save(&fm_path).expect("save fm");
        assert!(matches!(FmClassifier::load(&fm_path), Err(CheckpointError::WrongKind { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_tolerates_nan_logits() {
        let fm = tiny().fm.clone();
        let train: Vec<TextExample> = (0..10)
            .map(|i| TextExample {
                tokens: vec![if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string()],
                label: i % 2,
            })
            .collect();
        let mut clf = FmClassifier::fine_tune(&fm, &train, 2, &FineTuneConfig::default())
            .expect("fine-tuning failed");
        // Poison the head so every logit is NaN: predict must still return
        // a deterministic class (0) instead of panicking.
        clf.head.network_mut().visit_params(&mut |p, _| p.fill(f32::NAN));
        let logits = clf.logits(&train[0].tokens);
        assert!(logits.iter().all(|v| v.is_nan()));
        assert_eq!(clf.predict(&train[0].tokens), 0);
    }

    #[test]
    fn logits_within_budget_agrees_with_logits_and_misses_deadlines() {
        let fm = tiny().fm.clone();
        let train: Vec<TextExample> = (0..10)
            .map(|i| TextExample {
                tokens: vec![if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string()],
                label: i % 2,
            })
            .collect();
        let clf = FmClassifier::fine_tune(&fm, &train, 2, &FineTuneConfig::default())
            .expect("fine-tuning failed");
        let tokens = &train[0].tokens;
        let cost = clf.inference_cost(tokens.len());
        let (logits, spent) = clf.logits_within(tokens, cost).expect("budget covers the cost");
        assert_eq!(
            logits.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            clf.logits(tokens).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(spent, cost, "cost model matches metered spend");
        // A budget one unit short is a deterministic deadline miss on the
        // head charge, after the encoder's.
        let enc_cost = clf.backbone().encoder_cost(tokens.len());
        let err = clf.logits_within(tokens, cost - 1).expect_err("short budget");
        assert_eq!(
            err,
            InferError::DeadlineExceeded {
                spent: enc_cost,
                needed: cost - enc_cost,
                budget: cost - 1
            }
        );
        assert_eq!(clf.logits_within(tokens, cost - 1).unwrap_err(), err);
    }

    #[test]
    fn fine_tune_learns_separable_labels() {
        let fm = tiny().fm.clone();
        // Synthetic separable task over tokens the vocab knows.
        let mk = |t: &str, label: usize| TextExample {
            tokens: vec![t.to_string(), "IP4".to_string(), "PROTO_UDP".to_string()],
            label,
        };
        let train: Vec<TextExample> = (0..30)
            .map(|i| if i % 2 == 0 { mk("PORT_53", 0) } else { mk("PORT_443", 1) })
            .collect();
        let clf = FmClassifier::fine_tune(
            &fm,
            &train,
            2,
            &FineTuneConfig { epochs: 8, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed");
        let acc = clf.evaluate(&train).accuracy();
        assert!(acc > 0.9, "training accuracy {acc}");
        let probs = clf.probabilities(&train[0].tokens);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn frozen_encoder_only_trains_head() {
        let fm = tiny().fm.clone();
        let train: Vec<TextExample> = (0..10)
            .map(|i| TextExample {
                tokens: vec![if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string()],
                label: i % 2,
            })
            .collect();
        let clf = FmClassifier::fine_tune(
            &fm,
            &train,
            2,
            &FineTuneConfig { freeze_encoder: true, epochs: 3, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed");
        // Encoder unchanged relative to the foundation model.
        assert_eq!(
            clf.backbone().encoder.token_embeddings().data(),
            fm.encoder.token_embeddings().data()
        );
    }

    #[test]
    fn mean_pooling_trains_and_differs_from_cls() {
        let fm = tiny().fm.clone();
        let train: Vec<TextExample> = (0..20)
            .map(|i| TextExample {
                tokens: vec![
                    if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string(),
                    "IP4".to_string(),
                    "PROTO_UDP".to_string(),
                ],
                label: i % 2,
            })
            .collect();
        let cls = FmClassifier::fine_tune(
            &fm,
            &train,
            2,
            &FineTuneConfig { epochs: 6, pooling: Pooling::Cls, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed");
        let mean = FmClassifier::fine_tune(
            &fm,
            &train,
            2,
            &FineTuneConfig { epochs: 6, pooling: Pooling::Mean, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed");
        // Both learn the trivial rule.
        assert!(cls.evaluate(&train).accuracy() > 0.9);
        assert!(mean.evaluate(&train).accuracy() > 0.9);
        // Embeddings reflect the chosen pooling (different vectors).
        let e_cls = cls.embed(&train[0].tokens);
        let e_mean = mean.embed(&train[0].tokens);
        assert_ne!(e_cls, e_mean);
        assert_eq!(mean.backbone().pooling, Pooling::Mean);
    }

    #[test]
    fn frozen_embeddings_table_is_preserved() {
        let fm = tiny().fm.clone();
        let train: Vec<TextExample> = (0..12)
            .map(|i| TextExample {
                tokens: vec![if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string()],
                label: i % 2,
            })
            .collect();
        let clf = FmClassifier::fine_tune(
            &fm,
            &train,
            2,
            &FineTuneConfig { epochs: 4, freeze_embeddings: true, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed");
        // Token table identical to the pre-trained one even though the
        // encoder layers trained.
        assert_eq!(
            clf.backbone().encoder.token_embeddings().data(),
            fm.encoder.token_embeddings().data()
        );
    }

    #[test]
    fn fine_tune_weights_identical_across_thread_counts() {
        let fm = tiny().fm.clone();
        let train: Vec<TextExample> = (0..20)
            .map(|i| TextExample {
                tokens: vec![
                    if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string(),
                    "IP4".to_string(),
                ],
                label: i % 2,
            })
            .collect();
        let cfg = FineTuneConfig { epochs: 2, ..FineTuneConfig::default() };
        tpool::set_threads(1);
        let mut seq = FmClassifier::fine_tune(&fm, &train, 2, &cfg).expect("1-thread run");
        tpool::set_threads(4);
        let mut par = FmClassifier::fine_tune(&fm, &train, 2, &cfg).expect("4-thread run");
        tpool::set_threads(0);
        let bits = |c: &mut FmClassifier| {
            let mut out = Vec::new();
            c.encoder_mut().visit_params(&mut |p, _| out.extend(p.iter().map(|v| v.to_bits())));
            c.head
                .network_mut()
                .visit_params(&mut |p, _| out.extend(p.iter().map(|v| v.to_bits())));
            out
        };
        assert_eq!(
            bits(&mut seq),
            bits(&mut par),
            "fine-tuned weights must be bitwise identical across thread counts"
        );
        // Batched predict agrees with sequential predict, in input order.
        let batch: Vec<Vec<String>> = train.iter().map(|e| e.tokens.clone()).collect();
        let expect: Vec<usize> = train.iter().map(|e| seq.predict(&e.tokens)).collect();
        tpool::set_threads(4);
        let got = par.predict_batch(&batch);
        tpool::set_threads(0);
        assert_eq!(got, expect);
    }

    #[test]
    fn examples_from_flows_respects_label_fn() {
        let lt = simulate(&SimConfig {
            n_sessions: 20,
            n_general_hosts: 3,
            n_iot_sets: 1,
            ..SimConfig::default()
        });
        let flows = nfm_traffic::dataset::extract_flows(&lt, 1);
        let tok = FieldTokenizer::new();
        let all = examples_from_flows(&flows, &tok, 48, |f| Some(f.label.app.id()));
        assert_eq!(all.len(), flows.len());
        let only_dns = examples_from_flows(&flows, &tok, 48, |f| {
            (f.label.app == nfm_traffic::AppClass::Dns).then_some(0)
        });
        assert!(only_dns.len() < all.len());
        assert!(!only_dns.is_empty());
    }

    fn head_train(n_classes: usize) -> Vec<TextExample> {
        (0..12)
            .map(|i| TextExample {
                tokens: vec![format!("PORT_{}", 40 + i % 4), "IP4".to_string()],
                label: i % n_classes,
            })
            .collect()
    }

    #[test]
    fn fine_tune_divergence_rolls_back_then_is_a_typed_error() {
        let fm = tiny().fm.clone();
        let train = head_train(2);
        // Every step's loss exceeds 0, so every step trips the guard.
        let cfg = FineTuneConfig {
            guard: GuardConfig { max_loss: 0.0, max_retries: 1 },
            ..FineTuneConfig::default()
        };
        let check = |result: Result<(), PipelineError>| match result {
            Err(PipelineError::Train(TrainError::Diverged { attempts: 2, log })) => {
                let steps: Vec<(usize, u64)> = log.iter().map(|e| (e.epoch, e.step)).collect();
                // Step numbers count the rolled-back step too.
                assert_eq!(steps, vec![(0, 0), (0, 1)]);
                assert!(log[0].action.contains("lr_scale 0.5000"), "{}", log[0].action);
                assert!(log[1].action.contains("lr_scale 0.2500"), "{}", log[1].action);
            }
            other => panic!("expected Diverged after 2 attempts, got {other:?}"),
        };
        check(FmClassifier::fine_tune(&fm, &train, 2, &cfg).map(drop));
        let backbone = FmBackbone::from_model(&fm, cfg.pooling);
        check(TaskHead::fine_tune(&backbone, "t", &train, 2, &cfg).map(drop));
    }

    /// A fine-tuning config with `batch_size: 0`, which would divide by
    /// zero if training started.
    fn zero_batch() -> FineTuneConfig {
        FineTuneConfig { batch_size: 0, ..FineTuneConfig::default() }
    }

    fn check_zero_batch_rejected(result: Result<(), PipelineError>) {
        match result {
            Err(PipelineError::Train(TrainError::InvalidConfig {
                field: "batch_size", ..
            })) => {}
            other => panic!("expected InvalidConfig for batch_size, got {other:?}"),
        }
    }

    #[test]
    fn classifier_fine_tune_rejects_zero_batch_size() {
        let result = FmClassifier::fine_tune(&tiny().fm, &head_train(2), 2, &zero_batch());
        check_zero_batch_rejected(result.map(drop));
    }

    #[test]
    fn classifier_fine_tune_from_rejects_zero_batch_size() {
        let result = FmClassifier::fine_tune_from(&tiny().clf, &head_train(2), &zero_batch());
        check_zero_batch_rejected(result.map(drop));
    }

    #[test]
    fn task_head_fine_tune_rejects_zero_batch_size() {
        let backbone = tiny().clf.backbone();
        let result = TaskHead::fine_tune(backbone, "t", &head_train(2), 2, &zero_batch());
        check_zero_batch_rejected(result.map(drop));
    }

    #[test]
    fn task_head_fine_tune_from_rejects_zero_batch_size() {
        let clf = &tiny().clf;
        let result = clf.head().fine_tune_from(clf.backbone(), &head_train(2), &zero_batch());
        check_zero_batch_rejected(result.map(drop));
    }

    #[test]
    fn frozen_fine_tune_from_shares_the_base_backbone() {
        let base = &tiny().clf;
        let cfg = FineTuneConfig { epochs: 1, freeze_encoder: true, ..FineTuneConfig::default() };
        let frozen = FmClassifier::fine_tune_from(base, &head_train(2), &cfg).expect("frozen");
        assert!(
            std::ptr::eq(frozen.backbone(), base.backbone()),
            "a frozen fit copied the backbone"
        );
        let cfg = FineTuneConfig { freeze_encoder: false, ..cfg };
        let trained = FmClassifier::fine_tune_from(base, &head_train(2), &cfg).expect("trained");
        assert!(!std::ptr::eq(trained.backbone(), base.backbone()), "training must not share");
    }

    #[test]
    fn task_head_fine_tune_matches_frozen_classifier_bitwise() {
        let fm = tiny().fm.clone();
        let train = head_train(3);
        let cfg = FineTuneConfig {
            epochs: 2,
            freeze_encoder: true,
            pooling: Pooling::Mean,
            ..FineTuneConfig::default()
        };
        // Head-only fine-tuning through the classifier API...
        let clf = FmClassifier::fine_tune(&fm, &train, 3, &cfg).expect("classifier fine-tune");
        // ...and through the backbone/head split.
        let backbone = clf.backbone().clone();
        let head = TaskHead::fine_tune(&backbone, "t", &train, 3, &cfg).expect("head fine-tune");
        let mut reattached = backbone.attach(&head);
        let mut direct = clf;
        let bits = |c: &mut FmClassifier| {
            let mut out = Vec::new();
            c.encoder_mut().visit_params(&mut |p, _| out.extend(p.iter().map(|v| v.to_bits())));
            c.head
                .network_mut()
                .visit_params(&mut |p, _| out.extend(p.iter().map(|v| v.to_bits())));
            out
        };
        assert_eq!(
            bits(&mut direct),
            bits(&mut reattached),
            "backbone.attach(head) must reconstruct head-only fine-tuning bitwise"
        );
        // The backbone itself is bitwise the pre-trained encoder: freezing
        // really froze it.
        let mut enc_bits = Vec::new();
        let mut fm_enc = fm.encoder.clone();
        fm_enc.visit_params(&mut |p, _| enc_bits.extend(p.iter().map(|v| v.to_bits())));
        let mut bb_bits = Vec::new();
        let mut bb_enc = backbone.encoder.clone();
        bb_enc.visit_params(&mut |p, _| bb_bits.extend(p.iter().map(|v| v.to_bits())));
        assert_eq!(enc_bits, bb_bits);
    }

    #[test]
    fn task_head_save_load_round_trip_is_bitwise() {
        let fm = tiny().fm.clone();
        let train = head_train(2);
        let cfg = FineTuneConfig { epochs: 1, pooling: Pooling::Mean, ..FineTuneConfig::default() };
        let clf = FmClassifier::fine_tune(&fm, &train, 2, &cfg).expect("fine-tune");
        let backbone = clf.backbone();
        let head = TaskHead::fine_tune(backbone, "roundtrip", &train, 2, &cfg).expect("head");
        let dir = std::env::temp_dir().join(format!("nfm_task_head_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("head.nfmc");
        head.save(&path).expect("save");
        let loaded = TaskHead::load(&path).expect("load");
        assert_eq!(loaded.name, "roundtrip");
        assert_eq!(loaded.n_classes, 2);
        assert_eq!(loaded.pooling, Pooling::Mean);
        let toks: Vec<String> = vec!["PORT_41".to_string(), "IP4".to_string()];
        let a = backbone.attach(&head).logits_within(&toks, u64::MAX).expect("logits");
        let b = backbone.attach(&loaded).logits_within(&toks, u64::MAX).expect("logits");
        assert_eq!(
            a.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.0.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(a.1, b.1);
        // Corruption is a typed error, not a panic.
        let bytes = std::fs::read(&path).expect("read");
        let mut corrupt = bytes.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        std::fs::write(&path, &corrupt).expect("write");
        assert!(TaskHead::load(&path).is_err());
        // Truncation too.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("write");
        assert!(TaskHead::load(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pooled_fanout_matches_logits_within_bitwise() {
        let fm = tiny().fm.clone();
        let cfg = FineTuneConfig {
            epochs: 1,
            freeze_encoder: true,
            pooling: Pooling::Mean,
            ..FineTuneConfig::default()
        };
        let clf = FmClassifier::fine_tune(&fm, &head_train(2), 2, &cfg).expect("fine-tune");
        let backbone = clf.backbone();
        let heads: Vec<TaskHead> = [("a", 2usize), ("b", 3), ("c", 5)]
            .iter()
            .map(|&(name, n)| {
                TaskHead::fine_tune(backbone, name, &head_train(n), n, &cfg).expect("head")
            })
            .collect();
        // Varied-length contexts (some past max_len, some unknown tokens)
        // so every budget rung splits the batch differently.
        let contexts: Vec<Vec<String>> = (0..12)
            .map(|i| {
                let len = 1 + (i * 7) % 60;
                (0..len).map(|j| format!("PORT_{}", 40 + (i + j) % 6)).collect()
            })
            .collect();
        let batch: Vec<&[String]> = contexts.iter().map(|t| t.as_slice()).collect();
        // Budget ladder: from refuse-everything to afford-everything.
        let full = backbone.encoder_cost(64) + 1024;
        let d_model = backbone.d_model();
        for budget in [0, backbone.encoder_cost(4), backbone.encoder_cost(12), full] {
            let mut arena = ScratchArena::new();
            let pb = backbone.pooled_batch_within(&batch, budget, &mut arena);
            assert_eq!(pb.rows.len() + pb.refused.len(), batch.len());
            for head in &heads {
                let single = backbone.attach(head);
                let head_cost = head.head_cost(d_model);
                // Refusals carry the exact error logits_within reports.
                for (i, err) in &pb.refused {
                    let want = single.logits_within(&contexts[*i], budget);
                    assert_eq!(want.unwrap_err(), err.clone());
                }
                let logits_m = head.logits_batch(&pb.pooled);
                for (row, &(i, enc_spent)) in pb.rows.iter().enumerate() {
                    let want = single.logits_within(&contexts[i], budget);
                    if enc_spent + head_cost > budget {
                        let err = want.unwrap_err();
                        assert_eq!(
                            err,
                            InferError::DeadlineExceeded {
                                spent: enc_spent,
                                needed: head_cost,
                                budget,
                            }
                        );
                    } else {
                        let (logits, spent) = want.expect("affordable");
                        assert_eq!(spent, enc_spent + head_cost);
                        assert_eq!(
                            logits.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            logits_m.row(row).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                            "fan-out logits diverge at budget {budget}"
                        );
                    }
                }
            }
        }
    }
}
