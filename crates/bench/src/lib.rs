//! Shared harness for the experiment binaries (`src/bin/exp_e*.rs`).
//!
//! Every experiment prints a claim header, runs at a scale selected by the
//! `NFM_SCALE` environment variable (`quick` for CI-sized runs, `full` for
//! the numbers recorded in EXPERIMENTS.md; default `full`), and emits both
//! an aligned table and CSV.

use nfm_core::baselines::{BaselineConfig, BaselineKind, GruBaseline};
use nfm_core::metrics::Confusion;
use nfm_core::pipeline::{
    FineTuneConfig, FmClassifier, FoundationModel, PipelineConfig, TextExample,
};
use nfm_core::report::Table;
use nfm_model::pretrain::{PretrainConfig, TaskMix};
use nfm_model::tokenize::Tokenizer;
use nfm_net::capture::Trace;
use nfm_traffic::dataset::Environment;

/// Experiment scale knobs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Sessions in the unlabeled pre-training corpus.
    pub pretrain_sessions: usize,
    /// Sessions in each labeled environment.
    pub labeled_sessions: usize,
    /// Pre-training epochs.
    pub pretrain_epochs: usize,
    /// Fine-tuning epochs.
    pub finetune_epochs: usize,
    /// Baseline (GRU) training epochs.
    pub baseline_epochs: usize,
}

impl Scale {
    /// Scale selected by `NFM_SCALE` (`quick` or `full`, default `full`).
    pub fn from_env() -> Scale {
        match std::env::var("NFM_SCALE").as_deref() {
            Ok("quick") => Scale {
                pretrain_sessions: 160,
                labeled_sessions: 120,
                pretrain_epochs: 1,
                finetune_epochs: 3,
                baseline_epochs: 4,
            },
            _ => Scale {
                pretrain_sessions: 500,
                labeled_sessions: 350,
                pretrain_epochs: 3,
                finetune_epochs: 5,
                baseline_epochs: 8,
            },
        }
    }
}

/// Print the standard experiment banner and emit an `exp.run` event to the
/// observability sink (a no-op unless `NFM_OBS_OUT` is set).
pub fn banner(id: &str, anchor: &str, claim: &str) {
    println!("==============================================================");
    println!("{id} — paper anchor: {anchor}");
    println!("claim under test: {claim}");
    println!("==============================================================\n");
    nfm_obs::event(
        "exp.run",
        &[("id", nfm_obs::Value::S(id)), ("anchor", nfm_obs::Value::S(anchor))],
    );
}

/// Print a table in both aligned and CSV form, and mirror it to the
/// observability sink as `table`/`row` records under the given title.
pub fn render_table(title: &str, table: &Table) {
    println!("{}", table.render());
    println!("[csv]\n{}", table.to_csv());
    nfm_obs::emit_table(title, table.header(), table.rows());
}

/// Finish an experiment run: snapshot the global metrics registry into the
/// observability sink (as `metric` records) and flush it. Call at the end of
/// every experiment `main`.
pub fn finish() {
    nfm_obs::emit_metrics(nfm_obs::global());
    nfm_obs::flush();
}

/// The default pipeline configuration at a given scale.
pub fn pipeline_config(scale: &Scale) -> PipelineConfig {
    PipelineConfig {
        pretrain: PretrainConfig { epochs: scale.pretrain_epochs, ..PretrainConfig::default() },
        ..PipelineConfig::default()
    }
}

/// Pre-train a foundation model on the standard unlabeled mixture.
pub fn pretrain_standard(
    scale: &Scale,
    tokenizer: &dyn Tokenizer,
    tasks: TaskMix,
) -> FoundationModel {
    let envs = Environment::pretrain_mix(scale.pretrain_sessions);
    let traces: Vec<Trace> = envs.iter().map(|e| e.simulate().trace).collect();
    let refs: Vec<&Trace> = traces.iter().collect();
    let mut cfg = pipeline_config(scale);
    cfg.pretrain.tasks = tasks;
    // Client-window contexts span related flows (DNS lookup + follow-on
    // connection), which is where the cross-protocol semantics live; E5
    // ablates this choice.
    cfg.context = nfm_model::context::ContextStrategy::ClientWindow { window_us: 5_000_000 };
    let (fm, _) = FoundationModel::pretrain_on(&refs, tokenizer, &cfg).expect("pretraining failed");
    fm
}

/// The four model families of the headline comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelFamily {
    /// GRU, random embeddings, labeled data only.
    GruRandom,
    /// GRU with GloVe embeddings from the labeled data, frozen.
    GruGlove,
    /// Pre-trained encoder frozen; only the head trains.
    FmFrozen,
    /// Pre-trained encoder fully fine-tuned.
    FmFinetuned,
}

impl ModelFamily {
    /// All families, report order.
    pub const ALL: [ModelFamily; 4] = [
        ModelFamily::GruRandom,
        ModelFamily::GruGlove,
        ModelFamily::FmFrozen,
        ModelFamily::FmFinetuned,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ModelFamily::GruRandom => "gru-random",
            ModelFamily::GruGlove => "gru-glove",
            ModelFamily::FmFrozen => "fm-frozen",
            ModelFamily::FmFinetuned => "fm-finetuned",
        }
    }
}

/// A trained model of any family, unified behind predict/evaluate.
pub enum TrainedModel {
    /// A GRU baseline.
    Gru(Box<GruBaseline>),
    /// A fine-tuned foundation-model classifier.
    Fm(Box<FmClassifier>),
}

impl TrainedModel {
    /// Evaluate on examples.
    pub fn evaluate(&self, examples: &[TextExample]) -> Confusion {
        match self {
            TrainedModel::Gru(m) => m.evaluate(examples),
            TrainedModel::Fm(m) => m.evaluate(examples),
        }
    }
}

/// Train one family on the given labeled examples.
pub fn train_family(
    family: ModelFamily,
    fm: &FoundationModel,
    train: &[TextExample],
    n_classes: usize,
    scale: &Scale,
) -> TrainedModel {
    match family {
        ModelFamily::GruRandom | ModelFamily::GruGlove => {
            let kind = if family == ModelFamily::GruRandom {
                BaselineKind::GruRandom
            } else {
                BaselineKind::GruGlove
            };
            TrainedModel::Gru(Box::new(GruBaseline::train(
                train,
                n_classes,
                kind,
                &BaselineConfig { epochs: scale.baseline_epochs, ..BaselineConfig::default() },
            )))
        }
        ModelFamily::FmFrozen => {
            // Head-only training is cheap: give it more epochs and a higher
            // learning rate to converge. Mean pooling exposes pre-trained
            // token geometry to the probe directly.
            let cfg = FineTuneConfig {
                epochs: scale.finetune_epochs * 3,
                lr: 3e-3,
                freeze_encoder: true,
                pooling: nfm_core::pipeline::Pooling::Mean,
                ..FineTuneConfig::default()
            };
            TrainedModel::Fm(Box::new(
                FmClassifier::fine_tune(fm, train, n_classes, &cfg).expect("fine-tuning failed"),
            ))
        }
        ModelFamily::FmFinetuned => {
            // Standard BERT recipe: full fine-tuning from the [CLS]
            // position. (Ablations with frozen embeddings / mean pooling
            // trade in-distribution accuracy for transfer; EXPERIMENTS.md
            // discusses the tradeoff under E1 condition B.)
            let cfg = FineTuneConfig {
                epochs: scale.finetune_epochs,
                lr: 1e-3,
                ..FineTuneConfig::default()
            };
            TrainedModel::Fm(Box::new(
                FmClassifier::fine_tune(fm, train, n_classes, &cfg).expect("fine-tuning failed"),
            ))
        }
    }
}

/// The small classifier the serving chaos experiments (E15, E16) serve,
/// and the capture it was pre-trained on: MLM pre-training of a one-layer
/// encoder on a small simulated capture, then a two-class fine-tune. Those
/// experiments measure availability, not accuracy, so a port-separable task
/// is enough.
pub fn train_serving_model(scale: &Scale) -> (FmClassifier, Trace) {
    let lt = nfm_traffic::simulate(&nfm_traffic::SimConfig {
        n_sessions: scale.labeled_sessions.min(80),
        n_general_hosts: 4,
        n_iot_sets: 1,
        ..nfm_traffic::SimConfig::default()
    });
    let tokenizer = nfm_model::tokenize::field::FieldTokenizer::new();
    let cfg = PipelineConfig {
        d_model: 16,
        n_heads: 2,
        n_layers: 1,
        d_ff: 32,
        max_len: 48,
        pretrain: PretrainConfig {
            epochs: scale.pretrain_epochs.min(2),
            tasks: TaskMix::mlm_only(),
            ..PretrainConfig::default()
        },
        ..PipelineConfig::default()
    };
    let (fm, _) =
        FoundationModel::pretrain_on(&[&lt.trace], &tokenizer, &cfg).expect("pretraining failed");
    let train: Vec<TextExample> = (0..24)
        .map(|i| TextExample {
            tokens: vec![if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string()],
            label: i % 2,
        })
        .collect();
    let clf = FmClassifier::fine_tune(
        &fm,
        &train,
        2,
        &FineTuneConfig { epochs: 2, ..FineTuneConfig::default() },
    )
    .expect("fine-tuning failed");
    (clf, lt.trace)
}

/// Pre-train on a DNS-heavy unlabeled mixture — NorBERT's own setting
/// ("pre-trained a foundational model (NorBERT) on DNS traffic", §3.4).
/// Name tokens dominate the corpus, so their co-occurrence structure isn't
/// washed out by generic header tokens.
pub fn pretrain_dns_heavy(
    scale: &Scale,
    tokenizer: &dyn Tokenizer,
    tasks: TaskMix,
) -> FoundationModel {
    let envs: Vec<Environment> =
        Environment::pretrain_mix(scale.pretrain_sessions).into_iter().map(dns_heavy).collect();
    let traces: Vec<Trace> = envs.iter().map(|e| e.simulate().trace).collect();
    let refs: Vec<&Trace> = traces.iter().collect();
    let mut cfg = pipeline_config(scale);
    cfg.pretrain.tasks = tasks;
    // DNS contexts are short and cheap; spend more epochs on them.
    cfg.pretrain.epochs = scale.pretrain_epochs * 3;
    cfg.context = nfm_model::context::ContextStrategy::ClientWindow { window_us: 5_000_000 };
    let (fm, _) = FoundationModel::pretrain_on(&refs, tokenizer, &cfg).expect("pretraining failed");
    fm
}

/// Build the NorBERT-style DNS classification task from a labeled trace:
/// examples are DNS flows, the label is the queried site's semantic category
/// (mail/news/video/… — ground truth from the domain registry). This is the
/// downstream family NorBERT evaluated: classification of DNS traffic whose
/// discriminative names shift across deployments.
pub fn dns_category_examples(
    lt: &nfm_traffic::LabeledTrace,
    tokenizer: &dyn Tokenizer,
    max_tokens: usize,
) -> Vec<TextExample> {
    use nfm_traffic::domains::SiteCategory;
    let flows = nfm_traffic::dataset::extract_flows(lt, 1);
    flows
        .iter()
        .filter_map(|f| {
            if f.label.is_malicious() {
                return None;
            }
            // Any flow whose first packet is a DNS query qualifies — DNS
            // lookups appear standalone and as preludes of web/TLS/video
            // sessions alike.
            if f.key.src_port.max(f.key.dst_port) == 0 || f.key.protocol != 17 {
                return None;
            }
            let first = f.packets.first()?.parse().ok()?;
            if first.transport.dst_port() != Some(53) {
                return None;
            }
            let msg = nfm_net::wire::dns::Message::parse(first.transport.payload()).ok()?;
            let qname = &msg.questions.first()?.name;
            let category = lt.registry.categorize(qname)?;
            let label = SiteCategory::ALL.iter().position(|c| *c == category)?;
            let tokens = nfm_model::context::flow_context(&f.packets, tokenizer, max_tokens);
            (!tokens.is_empty()).then_some(TextExample { tokens, label })
        })
        .collect()
}

/// Number of classes in the DNS-category task.
pub fn dns_category_classes() -> usize {
    nfm_traffic::domains::SiteCategory::ALL.len()
}

/// A DNS-heavy variant of an environment (for the NorBERT-style DNS tasks):
/// same registry and seeds, but standalone DNS lookups dominate the session
/// mix so every site category accumulates labeled examples.
pub fn dns_heavy(mut env: Environment) -> Environment {
    env.config.mix.weights = [10.0, 0.5, 1.0, 0.5, 0.5, 0.2, 0.5, 0.2, 0.0];
    env
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dns_category_examples_extract() {
        let lt = nfm_traffic::simulate(&nfm_traffic::SimConfig {
            n_sessions: 60,
            ..nfm_traffic::SimConfig::default()
        });
        let tok = nfm_model::tokenize::field::FieldTokenizer::new();
        let ex = dns_category_examples(&lt, &tok, 64);
        assert!(!ex.is_empty());
        assert!(ex.iter().all(|e| e.label < dns_category_classes()));
    }

    #[test]
    fn scale_quick_is_smaller_than_full() {
        // Avoid mutating the process environment (tests run in parallel);
        // compare the two literal configurations instead.
        let quick = Scale {
            pretrain_sessions: 160,
            labeled_sessions: 120,
            pretrain_epochs: 1,
            finetune_epochs: 3,
            baseline_epochs: 4,
        };
        let full = Scale::from_env();
        assert!(
            quick.pretrain_sessions < full.pretrain_sessions || std::env::var("NFM_SCALE").is_ok()
        );
    }

    #[test]
    fn families_have_distinct_names() {
        let mut names: Vec<&str> = ModelFamily::ALL.iter().map(|f| f.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
    }
}
