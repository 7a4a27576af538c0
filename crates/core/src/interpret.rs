//! Interpretability for network foundation models (paper §4.4): occlusion
//! attributions at token and field-group granularity (the paper's
//! "superpixel" analogy), attention rollout, and a deletion-curve fidelity
//! metric to compare explanation granularities.

use std::collections::BTreeMap;

use nfm_model::nn::transformer::FULL_READOUT;
use nfm_model::pretrain::encode_context;
use nfm_tensor::matrix::Matrix;

use crate::pipeline::FmClassifier;

/// One attribution: a unit of input and its importance for the predicted
/// class.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// Human-readable unit (token text or field-group name).
    pub unit: String,
    /// Indices of the tokens in the unit.
    pub token_indices: Vec<usize>,
    /// Importance: probability drop when the unit is occluded.
    pub importance: f64,
}

fn predicted_prob(clf: &FmClassifier, tokens: &[String], class: usize) -> f64 {
    clf.probabilities(tokens)[class] as f64
}

/// Token-level occlusion: remove each token in turn and measure the drop in
/// the predicted class's probability.
pub fn occlusion_tokens(clf: &FmClassifier, tokens: &[String]) -> Vec<Attribution> {
    let class = clf.predict(tokens);
    let base = predicted_prob(clf, tokens, class);
    (0..tokens.len())
        .map(|i| {
            let mut reduced = tokens.to_vec();
            reduced.remove(i);
            let p = if reduced.is_empty() { 0.0 } else { predicted_prob(clf, &reduced, class) };
            Attribution { unit: tokens[i].clone(), token_indices: vec![i], importance: base - p }
        })
        .collect()
}

/// The field-group ("superpixel") of a token: its family prefix, e.g. all
/// `QD_*` tokens form the "QD" group, all `CS_*` tokens the "CS" group.
pub fn field_group(token: &str) -> String {
    match token.split_once('_') {
        Some((prefix, _)) => prefix.to_string(),
        None => token.to_string(),
    }
}

/// Group-level occlusion: remove whole field groups at a time. This is the
/// network analogue of superpixel explanations — groups of related inputs
/// explained together.
pub fn occlusion_groups(clf: &FmClassifier, tokens: &[String]) -> Vec<Attribution> {
    let class = clf.predict(tokens);
    let base = predicted_prob(clf, tokens, class);
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, t) in tokens.iter().enumerate() {
        groups.entry(field_group(t)).or_default().push(i);
    }
    groups
        .into_iter()
        .map(|(name, indices)| {
            let reduced: Vec<String> = tokens
                .iter()
                .enumerate()
                .filter(|(i, _)| !indices.contains(i))
                .map(|(_, t)| t.clone())
                .collect();
            let p = if reduced.is_empty() { 0.0 } else { predicted_prob(clf, &reduced, class) };
            Attribution { unit: name, token_indices: indices, importance: base - p }
        })
        .collect()
}

/// Attention rollout (Abnar & Zuidema-style): multiply per-layer,
/// head-averaged attention matrices (with residual mixing) and read the
/// `[CLS]` row — how much each input position feeds the classification.
pub fn attention_rollout(clf: &mut FmClassifier, tokens: &[String]) -> Vec<f64> {
    let ids = encode_context(&clf.backbone().vocab, tokens, clf.backbone().max_len);
    let t = ids.len();
    // Training-mode forward to capture attention maps (gradients unused).
    let encoder = clf.encoder_mut();
    let _ = encoder.forward(&ids, FULL_READOUT);
    let layers = encoder.last_attention();
    let mut rollout = Matrix::from_fn(t, t, |r, c| if r == c { 1.0 } else { 0.0 });
    for heads in layers {
        if heads.is_empty() {
            continue;
        }
        // Head average + residual, row-normalized.
        let mut avg = Matrix::zeros(t, t);
        for h in heads {
            avg.add_assign(h);
        }
        avg.scale(1.0 / heads.len() as f32);
        for r in 0..t {
            let row = avg.row_mut(r);
            row[r] += 1.0;
            let sum: f32 = row.iter().sum();
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        rollout = avg.matmul(&rollout);
    }
    // CLS row, skipping CLS itself and the trailing SEP; align with tokens.
    let cls_row = rollout.row(0);
    (0..tokens.len().min(t.saturating_sub(2))).map(|i| cls_row[i + 1] as f64).collect()
}

/// Deletion-curve fidelity: delete units in decreasing-importance order and
/// integrate the predicted-class probability. Lower area = more faithful
/// explanation (important things removed first destroy the prediction
/// fastest). Returns the normalized area in [0, 1].
pub fn deletion_auc(clf: &FmClassifier, tokens: &[String], attributions: &[Attribution]) -> f64 {
    let class = clf.predict(tokens);
    let mut order: Vec<&Attribution> = attributions.iter().collect();
    order.sort_by(|a, b| b.importance.partial_cmp(&a.importance).expect("finite"));
    let mut removed: Vec<usize> = Vec::new();
    let mut curve = vec![predicted_prob(clf, tokens, class)];
    for attr in order {
        removed.extend(&attr.token_indices);
        let reduced: Vec<String> = tokens
            .iter()
            .enumerate()
            .filter(|(i, _)| !removed.contains(i))
            .map(|(_, t)| t.clone())
            .collect();
        let p = if reduced.is_empty() { 0.0 } else { predicted_prob(clf, &reduced, class) };
        curve.push(p);
    }
    // Trapezoidal area normalized by the number of steps.
    if curve.len() < 2 {
        return curve.first().copied().unwrap_or(0.0);
    }
    let mut area = 0.0;
    for w in curve.windows(2) {
        area += (w[0] + w[1]) / 2.0;
    }
    area / (curve.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{FineTuneConfig, FoundationModel, PipelineConfig, TextExample};
    use nfm_model::pretrain::{PretrainConfig, TaskMix};
    use nfm_model::tokenize::field::FieldTokenizer;
    use nfm_traffic::netsim::{simulate, SimConfig};

    fn trained_classifier() -> FmClassifier {
        let lt = simulate(&SimConfig {
            n_sessions: 25,
            n_general_hosts: 3,
            n_iot_sets: 1,
            ..SimConfig::default()
        });
        let tok = FieldTokenizer::new();
        let cfg = PipelineConfig {
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            max_len: 32,
            pretrain: PretrainConfig {
                epochs: 1,
                tasks: TaskMix::mlm_only(),
                ..PretrainConfig::default()
            },
            ..PipelineConfig::default()
        };
        let (fm, _) =
            FoundationModel::pretrain_on(&[&lt.trace], &tok, &cfg).expect("pretraining failed");
        // Label is decided by the port token — the explanation should find it.
        let train: Vec<TextExample> = (0..30)
            .map(|i| TextExample {
                tokens: vec![
                    "IP4".to_string(),
                    "PROTO_UDP".to_string(),
                    if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string(),
                    "TTL_64".to_string(),
                ],
                label: i % 2,
            })
            .collect();
        FmClassifier::fine_tune(
            &fm,
            &train,
            2,
            &FineTuneConfig { epochs: 10, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed")
    }

    #[test]
    fn occlusion_finds_the_decisive_token() {
        let clf = trained_classifier();
        let tokens: Vec<String> =
            ["IP4", "PROTO_UDP", "PORT_53", "TTL_64"].iter().map(|s| s.to_string()).collect();
        let attrs = occlusion_tokens(&clf, &tokens);
        let best =
            attrs.iter().max_by(|a, b| a.importance.partial_cmp(&b.importance).unwrap()).unwrap();
        assert_eq!(best.unit, "PORT_53", "attributions: {attrs:?}");
    }

    #[test]
    fn group_occlusion_groups_by_prefix() {
        let clf = trained_classifier();
        let tokens: Vec<String> = ["IP4", "PROTO_UDP", "PORT_53", "PORT_EPH", "TTL_64"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let attrs = occlusion_groups(&clf, &tokens);
        let port_group = attrs.iter().find(|a| a.unit == "PORT").expect("PORT group exists");
        assert_eq!(port_group.token_indices, vec![2, 3]);
        // The PORT group carries positive label signal (removing it hurts
        // the predicted class); exact ranking against always-present tokens
        // varies with training noise on this 5-token toy input.
        assert!(port_group.importance > 0.0, "{attrs:?}");
        // TTL is identical across classes and carries ~no signal.
        let ttl = attrs.iter().find(|a| a.unit == "TTL").unwrap();
        assert!(ttl.importance < port_group.importance);
    }

    #[test]
    fn field_group_extraction() {
        assert_eq!(field_group("PORT_443"), "PORT");
        assert_eq!(field_group("QD_com"), "QD");
        assert_eq!(field_group("IP4"), "IP4");
    }

    #[test]
    fn rollout_distributes_over_positions() {
        let mut clf = trained_classifier();
        let tokens: Vec<String> =
            ["IP4", "PROTO_UDP", "PORT_53", "TTL_64"].iter().map(|s| s.to_string()).collect();
        let weights = attention_rollout(&mut clf, &tokens);
        assert_eq!(weights.len(), 4);
        assert!(weights.iter().all(|w| *w >= 0.0 && w.is_finite()));
        assert!(weights.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn deletion_auc_in_unit_range_and_ranks_explanations() {
        let clf = trained_classifier();
        let tokens: Vec<String> =
            ["IP4", "PROTO_UDP", "PORT_53", "TTL_64"].iter().map(|s| s.to_string()).collect();
        let good = occlusion_tokens(&clf, &tokens);
        let auc_good = deletion_auc(&clf, &tokens, &good);
        assert!((0.0..=1.0).contains(&auc_good));
        // A deliberately-bad explanation (reversed importances) must do no
        // better (lower = better).
        let mut bad = good.clone();
        for a in &mut bad {
            a.importance = -a.importance;
        }
        let auc_bad = deletion_auc(&clf, &tokens, &bad);
        assert!(auc_good <= auc_bad + 1e-9, "good {auc_good} vs bad {auc_bad}");
    }
}
