//! Golden digests of trained encoder weights. Each constant is the
//! `crc32` of every encoder parameter's bits (visit order, little-endian)
//! after a fixed training run, so any change to the forward or backward
//! arithmetic — a reordered sum, a skipped row that was not really dead, a
//! changed reduction tree — shows up as a different digest. The values were
//! recorded before the encoder learned to run its last block only for the
//! rows a caller reads (the unmaskable-corpus pair before MLM pre-training
//! read only its masked rows), and must never move without a deliberate
//! change to the training arithmetic.

use nfm_core::pipeline::{FineTuneConfig, FmClassifier, FoundationModel, Pooling, TextExample};
use nfm_model::nn::transformer::{Encoder, EncoderConfig};
use nfm_model::pretrain::{pretrain, PretrainConfig, TaskMix};
use nfm_model::vocab::Vocab;
use nfm_tensor::checkpoint::crc32;
use nfm_tensor::layers::Module;

/// Encoder weights after [`pretrained`]'s MLM + next-flow run.
const PRETRAIN_DIGEST: u32 = 0x4037_0D4B;
/// Bits of that run's final masked-token accuracy.
const PRETRAIN_MLM_ACCURACY_BITS: u32 = 0x3EB3_6B37;
/// Encoder weights after a full (unfrozen) `Pooling::Cls` fine-tune of it.
const FINE_TUNE_DIGEST: u32 = 0x46E1_505D;

const MAX_LEN: usize = 24;

/// Bigram-structured contexts of varied length; some run past `MAX_LEN`,
/// so the clamp and both next-flow segment budgets are exercised.
fn corpus() -> Vec<Vec<String>> {
    (0..48)
        .map(|i| {
            let k = i % 4;
            let len = 2 + (i * 7) % 29;
            (0..len)
                .map(|j| if j % 2 == 0 { format!("x{k}") } else { format!("y{}", (k + j) % 5) })
                .collect()
        })
        .collect()
}

fn weight_digest(encoder: &Encoder) -> u32 {
    let mut encoder = encoder.clone();
    let mut bytes = Vec::new();
    encoder.visit_params(&mut |p, _| bytes.extend(p.iter().flat_map(|v| v.to_le_bytes())));
    crc32(&bytes)
}

/// Two layers (so gradients cross a non-final block) with d_head 6, which
/// no kernel's 8-lane width divides.
fn pretrained() -> (FoundationModel, f32) {
    let contexts = corpus();
    let vocab = Vocab::from_sequences(&contexts, 1);
    let cfg = EncoderConfig {
        vocab: vocab.len(),
        d_model: 12,
        n_heads: 2,
        n_layers: 2,
        d_ff: 24,
        max_len: MAX_LEN,
    };
    let config = PretrainConfig {
        epochs: 2,
        seed: 3,
        tasks: TaskMix { mlm: true, next_flow: true, query_answer: false },
        ..PretrainConfig::default()
    };
    let (encoder, _, stats) = pretrain(&contexts, &vocab, cfg, &config).expect("pretraining");
    (FoundationModel { encoder, vocab, max_len: MAX_LEN }, stats.final_mlm_accuracy)
}

#[test]
fn pretrain_weights_match_golden_digest() {
    let (fm, accuracy) = pretrained();
    assert_eq!(weight_digest(&fm.encoder), PRETRAIN_DIGEST, "pretrained encoder bits moved");
    assert_eq!(accuracy.to_bits(), PRETRAIN_MLM_ACCURACY_BITS, "final MLM accuracy {accuracy}");
}

/// Encoder weights after MLM + next-flow pre-training on a corpus where
/// every third context has only out-of-vocabulary tokens, so it has
/// nothing to mask but still forms next-flow pairs.
const UNMASKABLE_PRETRAIN_DIGEST: u32 = 0x6F54_B1F3;
/// Bits of that run's final masked-token accuracy.
const UNMASKABLE_MLM_ACCURACY_BITS: u32 = 0x3E59_364E;

#[test]
fn pretrain_with_unmaskable_contexts_matches_golden_digest() {
    let mut contexts = corpus();
    let vocab = Vocab::from_sequences(&contexts, 1);
    for (i, ctx) in contexts.iter_mut().enumerate().filter(|(i, _)| i % 3 == 0) {
        *ctx = (0..ctx.len()).map(|j| format!("oov{i}_{j}")).collect();
    }
    let cfg = EncoderConfig {
        vocab: vocab.len(),
        d_model: 12,
        n_heads: 2,
        n_layers: 2,
        d_ff: 24,
        max_len: MAX_LEN,
    };
    let config = PretrainConfig {
        epochs: 2,
        seed: 5,
        tasks: TaskMix { mlm: true, next_flow: true, query_answer: false },
        ..PretrainConfig::default()
    };
    let (encoder, _, stats) = pretrain(&contexts, &vocab, cfg, &config).expect("pretraining");
    let accuracy = stats.final_mlm_accuracy;
    assert_eq!(
        weight_digest(&encoder),
        UNMASKABLE_PRETRAIN_DIGEST,
        "pretrained encoder bits moved"
    );
    assert_eq!(accuracy.to_bits(), UNMASKABLE_MLM_ACCURACY_BITS, "final MLM accuracy {accuracy}");
}

#[test]
fn cls_fine_tune_weights_match_golden_digest() {
    let (fm, _) = pretrained();
    let examples: Vec<TextExample> = corpus()
        .into_iter()
        .enumerate()
        .map(|(i, tokens)| TextExample { tokens, label: i % 3 })
        .collect();
    let config = FineTuneConfig { epochs: 2, pooling: Pooling::Cls, ..FineTuneConfig::default() };
    assert!(!config.freeze_encoder, "the digest covers encoder gradients");
    let clf = FmClassifier::fine_tune(&fm, &examples, 3, &config).expect("fine-tuning");
    assert_eq!(
        weight_digest(&clf.backbone().encoder),
        FINE_TUNE_DIGEST,
        "fine-tuned encoder bits moved"
    );
}
