//! # nfm-core — the network foundation model
//!
//! The paper's primary proposal made runnable: pre-train a transformer
//! encoder on abundant unlabeled traffic (§3.2) with network-specific
//! objectives (§4.1.4), then fine-tune on small labeled sets for the
//! downstream tasks of §3.1 — plus the OOD detectors of §4.3, the
//! interpretability methods of §4.4, and the NetGLUE benchmark of §4.2.
//!
//! ```no_run
//! use nfm_core::pipeline::{FoundationModel, PipelineConfig};
//! use nfm_model::tokenize::field::FieldTokenizer;
//! use nfm_traffic::netsim::{simulate, SimConfig};
//!
//! let unlabeled = simulate(&SimConfig::default());
//! let tokenizer = FieldTokenizer::new();
//! let (fm, stats) = FoundationModel::pretrain_on(
//!     &[&unlabeled.trace],
//!     &tokenizer,
//!     &PipelineConfig::default(),
//! )
//! .expect("pretraining failed");
//! println!("MLM accuracy after pretraining: {:.3}", stats.final_mlm_accuracy);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod cluster;
#[cfg(test)]
mod fixture;
pub mod interpret;
pub mod metrics;
pub mod netglue;
pub mod ood;
pub mod pipeline;
pub mod report;
pub mod serve;

pub use baselines::{BaselineConfig, BaselineKind, GruBaseline, MajorityBaseline};
pub use cluster::{
    AdaptConfig, ClusterConfig, ClusterError, ClusterStats, ClusterSupervisor, ReplicaHealth,
};
pub use metrics::{auroc, Confusion};
pub use netglue::Task;
pub use ood::{
    DriftConfig, DriftMonitor, DriftObservation, EmbeddingStats, OodDetector, OodScore, PageHinkley,
};
pub use pipeline::{
    examples_from_flows, FineTuneConfig, FmBackbone, FmClassifier, FoundationModel, PipelineConfig,
    PipelineError, PooledBatch, TaskHead, TextExample,
};
pub use serve::{
    assemble_requests, load_classifier_with_retry, load_model_with_retry, retry_with_backoff,
    BreakerConfig, BreakerState, CircuitBreaker, Fallback, IngestStats, MultiTaskServer,
    MultiTaskStats, QuarantineBuffer, Responder, Response, RetryLog, RetryPolicy, ServeConfig,
    ServeEngine, ServeError, ServeRequest, ServeStats, TaskSet,
};
