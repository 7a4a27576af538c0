//! The tiny model nfm-core's unit tests share, built once per test binary:
//! pre-trained on a 30-session capture (d16, one layer, MLM only), then
//! fine-tuned on ten two-class port examples. Tests clone what they use;
//! clones of the classifier share its backbone until one of them writes
//! to it, so no test can change what another sees.

use std::sync::OnceLock;

use nfm_model::pretrain::{PretrainConfig, TaskMix};
use nfm_model::tokenize::field::FieldTokenizer;
use nfm_net::capture::Trace;
use nfm_traffic::netsim::{simulate, SimConfig};

use crate::baselines::MajorityBaseline;
use crate::pipeline::{FineTuneConfig, FmClassifier, FoundationModel, PipelineConfig, TextExample};

pub(crate) struct Tiny {
    /// The pre-trained foundation model.
    pub(crate) fm: FoundationModel,
    /// `fm` fine-tuned for two epochs on the ten port examples.
    pub(crate) clf: FmClassifier,
    /// The majority prior of the ten port examples.
    pub(crate) majority: MajorityBaseline,
    /// The capture `fm` was pre-trained on.
    pub(crate) trace: Trace,
}

pub(crate) fn tiny() -> &'static Tiny {
    static TINY: OnceLock<Tiny> = OnceLock::new();
    TINY.get_or_init(|| {
        let lt = simulate(&SimConfig {
            n_sessions: 30,
            n_general_hosts: 3,
            n_iot_sets: 1,
            ..SimConfig::default()
        });
        let cfg = PipelineConfig {
            d_model: 16,
            n_heads: 2,
            n_layers: 1,
            d_ff: 32,
            max_len: 48,
            pretrain: PretrainConfig {
                epochs: 1,
                tasks: TaskMix::mlm_only(),
                ..PretrainConfig::default()
            },
            ..PipelineConfig::default()
        };
        let (fm, stats) = FoundationModel::pretrain_on(&[&lt.trace], &FieldTokenizer::new(), &cfg)
            .expect("pretraining failed");
        assert!(!stats.mlm_loss.is_empty());
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
            &FineTuneConfig { epochs: 2, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed");
        Tiny { fm, clf, majority: MajorityBaseline::fit(&train, 2), trace: lt.trace }
    })
}
