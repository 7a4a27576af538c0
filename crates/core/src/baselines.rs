//! The baselines NorBERT compared against (§3.4): GRU classifiers with
//! randomly-initialized embeddings and with frozen GloVe embeddings — both
//! trained only on the labeled data (no pre-training on the unlabeled
//! corpus).

use nfm_model::embed::glove::{Glove, GloveConfig};
use nfm_model::nn::gru::GruClassifier;
use nfm_model::vocab::Vocab;
use nfm_tensor::layers::Module;
use nfm_tensor::loss::softmax_cross_entropy;
use nfm_tensor::optim::{clip_global_norm, Adam, Schedule};
use nfm_tensor::pool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Confusion;
use crate::pipeline::TextExample;

/// Which baseline variant to train.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// GRU with randomly-initialized, trainable embeddings.
    GruRandom,
    /// GRU with GloVe embeddings trained on the labeled data only, frozen.
    GruGlove,
}

impl BaselineKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BaselineKind::GruRandom => "gru-random",
            BaselineKind::GruGlove => "gru-glove",
        }
    }
}

/// Baseline training hyperparameters.
#[derive(Debug, Clone)]
pub struct BaselineConfig {
    /// Embedding dimension.
    pub d_embed: usize,
    /// GRU hidden size.
    pub d_hidden: usize,
    /// Epochs over the labeled set.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Sequences per optimizer step.
    pub batch_size: usize,
    /// Maximum tokens per example.
    pub max_len: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            d_embed: 32,
            d_hidden: 32,
            epochs: 6,
            lr: 3e-3,
            batch_size: 8,
            max_len: 96,
            seed: 3,
        }
    }
}

/// Multiply-accumulates of one GRU step over an embedded token: the three
/// gates' input and recurrent matrix-vector products.
fn token_macs(d_embed: usize, d_hidden: usize) -> usize {
    3 * d_hidden * (d_embed + d_hidden)
}

/// A trained GRU baseline.
pub struct GruBaseline {
    model: GruClassifier,
    /// Vocabulary built from the *labeled* training data only.
    pub vocab: Vocab,
    /// Number of classes.
    pub n_classes: usize,
    max_len: usize,
}

impl GruBaseline {
    /// Train a baseline of the given kind on labeled examples. The
    /// vocabulary is built from the training set alone — the baselines see
    /// no unlabeled corpus, which is the crux of the comparison.
    pub fn train(
        examples: &[TextExample],
        n_classes: usize,
        kind: BaselineKind,
        config: &BaselineConfig,
    ) -> GruBaseline {
        assert!(!examples.is_empty());
        let sequences: Vec<Vec<String>> = examples.iter().map(|e| e.tokens.clone()).collect();
        let vocab = Vocab::from_sequences(&sequences, 1);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut model =
            GruClassifier::new(&mut rng, vocab.len(), config.d_embed, config.d_hidden, n_classes);
        if kind == BaselineKind::GruGlove {
            let encoded: Vec<Vec<usize>> = sequences.iter().map(|s| vocab.encode(s)).collect();
            let glove = Glove::train(
                &encoded,
                vocab.len(),
                &GloveConfig { dim: config.d_embed, epochs: 25, ..GloveConfig::default() },
            );
            model = model.with_pretrained_embeddings(glove.embeddings);
        }

        let encoded: Vec<(Vec<usize>, usize)> = examples
            .iter()
            .map(|e| {
                let mut ids = vocab.encode(&e.tokens);
                ids.truncate(config.max_len);
                (ids, e.label)
            })
            .collect();
        // Forward + backward ≈ 3× the inference MACs of each token's step.
        let train_macs = 3 * token_macs(config.d_embed, config.d_hidden);
        let example_cost = |&idx: &usize| train_macs * encoded[idx].0.len();
        let steps = (encoded.len().div_ceil(config.batch_size) * config.epochs).max(1);
        let schedule =
            Schedule::WarmupLinear { peak: config.lr, warmup: steps / 10 + 1, total: steps + 1 };
        let mut opt = Adam::new(schedule);
        let mut order: Vec<usize> = (0..encoded.len()).collect();
        for _ in 0..config.epochs {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for batch in order.chunks(config.batch_size) {
                model.zero_grad();
                // Data-parallel microbatches: fixed shard boundaries, one
                // replica per worker zeroed for each shard, gradients fold
                // in shard order — same recipe as the transformer loops,
                // same determinism.
                let shards = pool::shard_ranges(batch.len(), pool::REDUCE_SHARDS);
                let costs: Vec<usize> = shards
                    .iter()
                    .map(|r| batch[r.clone()].iter().map(example_cost).sum())
                    .collect();
                let results = pool::par_map_work(
                    &costs,
                    || model.clone(),
                    |replica, s| {
                        replica.zero_grad();
                        for &idx in &batch[shards[s].clone()] {
                            let (ids, label) = &encoded[idx];
                            if ids.is_empty() {
                                continue;
                            }
                            let logits = replica.forward(ids);
                            let (_, dlogits) = softmax_cross_entropy(&logits, &[*label]);
                            replica.backward(&dlogits);
                        }
                        replica.export_grads()
                    },
                );
                for grads in results {
                    model.accumulate_grads(&grads);
                }
                clip_global_norm(&mut model, 5.0);
                opt.step(&mut model);
            }
        }
        GruBaseline { model, vocab, n_classes, max_len: config.max_len }
    }

    /// Predicted class for a token sequence (unknown tokens become `[UNK]` —
    /// exactly what hurts baselines on shifted data).
    pub fn predict(&self, tokens: &[String]) -> usize {
        let mut ids = self.vocab.encode(tokens);
        ids.truncate(self.max_len);
        if ids.is_empty() {
            return 0;
        }
        self.model.forward_inference(&ids).argmax_rows()[0]
    }

    /// Evaluate on examples (predictions run example-parallel; the integer
    /// confusion counts are identical at any thread count).
    pub fn evaluate(&self, examples: &[TextExample]) -> Confusion {
        let macs = token_macs(self.model.embedding.dim(), self.model.d_hidden);
        let costs: Vec<usize> =
            examples.iter().map(|e| macs * e.tokens.len().min(self.max_len)).collect();
        let preds = pool::par_map_work(&costs, || (), |_, i| self.predict(&examples[i].tokens));
        let mut c = Confusion::new(self.n_classes);
        for (e, p) in examples.iter().zip(preds) {
            c.add(e.label, p);
        }
        c
    }
}

/// The cheapest graceful-degradation tier: a class-prior heuristic fitted
/// from labeled flow statistics alone. It answers the majority class of its
/// training set in O(1), so the serving path can always produce *some*
/// response even when both the foundation model and the GRU fallback are
/// unavailable. Ties resolve to the lowest class id; an empty fit yields
/// class 0 — deterministic either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MajorityBaseline {
    /// The class this heuristic always answers.
    pub class: usize,
    /// Number of classes in the task.
    pub n_classes: usize,
}

impl MajorityBaseline {
    /// Fit the prior from labeled examples (labels ≥ `n_classes` are
    /// ignored rather than panicking).
    pub fn fit(examples: &[TextExample], n_classes: usize) -> MajorityBaseline {
        let mut counts = vec![0usize; n_classes.max(1)];
        for e in examples {
            if let Some(c) = counts.get_mut(e.label) {
                *c += 1;
            }
        }
        let class = counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        MajorityBaseline { class, n_classes: n_classes.max(1) }
    }

    /// The prior's answer (independent of the input by construction).
    pub fn predict(&self) -> usize {
        self.class
    }

    /// Evaluate on examples — the floor any model must beat.
    pub fn evaluate(&self, examples: &[TextExample]) -> Confusion {
        let mut c = Confusion::new(self.n_classes);
        for e in examples {
            c.add(e.label, self.class);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable_examples(n: usize) -> Vec<TextExample> {
        (0..n)
            .map(|i| {
                let label = i % 3;
                let tokens: Vec<String> =
                    (0..6).map(|j| format!("tok{}_{}", label, (i + j) % 4)).collect();
                TextExample { tokens, label }
            })
            .collect()
    }

    #[test]
    fn gru_random_learns_training_set() {
        let train = separable_examples(45);
        let clf = GruBaseline::train(
            &train,
            3,
            BaselineKind::GruRandom,
            &BaselineConfig { epochs: 12, d_embed: 16, d_hidden: 16, ..BaselineConfig::default() },
        );
        let acc = clf.evaluate(&train).accuracy();
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn gru_glove_trains_with_frozen_embeddings() {
        let train = separable_examples(30);
        let clf = GruBaseline::train(
            &train,
            3,
            BaselineKind::GruGlove,
            &BaselineConfig { epochs: 12, d_embed: 16, d_hidden: 16, ..BaselineConfig::default() },
        );
        let acc = clf.evaluate(&train).accuracy();
        assert!(acc > 0.7, "accuracy {acc}");
    }

    #[test]
    fn unknown_tokens_degrade_gracefully() {
        let train = separable_examples(30);
        let clf =
            GruBaseline::train(&train, 3, BaselineKind::GruRandom, &BaselineConfig::default());
        // Completely unseen vocabulary — prediction must still work.
        let pred = clf.predict(&["never-seen".to_string(), "also-new".to_string()]);
        assert!(pred < 3);
    }

    #[test]
    fn majority_baseline_is_deterministic_and_bounded() {
        let mut ex = separable_examples(30); // 10 of each of 3 classes
        ex.push(TextExample { tokens: vec!["t".into()], label: 2 });
        let m = MajorityBaseline::fit(&ex, 3);
        assert_eq!(m.predict(), 2);
        let acc = m.evaluate(&ex).accuracy();
        assert!((acc - 11.0 / 31.0).abs() < 1e-9, "accuracy {acc}");
        // Ties resolve to the lowest class; empty fits answer class 0.
        assert_eq!(MajorityBaseline::fit(&separable_examples(30), 3).predict(), 0);
        assert_eq!(MajorityBaseline::fit(&[], 4).predict(), 0);
        // Out-of-range labels are ignored, not a panic.
        let bad = vec![TextExample { tokens: vec![], label: 99 }];
        assert_eq!(MajorityBaseline::fit(&bad, 2).predict(), 0);
    }

    #[test]
    fn kinds_have_names() {
        assert_eq!(BaselineKind::GruRandom.name(), "gru-random");
        assert_eq!(BaselineKind::GruGlove.name(), "gru-glove");
    }
}
