//! Out-of-distribution scoring and streaming drift detection (paper §4.3):
//! the paper argues that recent OOD methods answer Sommer & Paxson's
//! objection that ML can only find "activity similar to something previously
//! seen", and that deployed models must notice when the traffic they serve
//! no longer matches the distribution they were fitted on.
//!
//! Two layers live here:
//!
//! * **Batch OOD scores** over a fine-tuned classifier, all
//!   higher-means-more-OOD: negative max-softmax probability (MSP), the
//!   energy score `−log Σ exp(logits)` (Liu et al., cited), and Mahalanobis
//!   distance to the nearest class centroid in `[CLS]`-embedding space
//!   (Lee et al., cited). [`EmbeddingStats`] is checkpointable
//!   ([`OodDetector::save`]/[`OodDetector::load`]) so a serving replica can
//!   reload its calibration without the training set.
//! * **Streaming drift detection**: [`DriftMonitor`] runs two
//!   [`PageHinkley`] cumulative tests — one over a per-request drift score
//!   (prediction confidence + normalized Mahalanobis distance), one over
//!   delayed ground-truth feedback errors — in integer milli-units so a
//!   replayed request stream reproduces trip decisions bitwise.

use std::path::Path;

use nfm_tensor::checkpoint::{
    load_record, save_record, ByteReader, ByteWriter, CheckpointError, KIND_OOD,
};

use crate::pipeline::{FmClassifier, TextExample};

/// Which OOD score to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OodScore {
    /// 1 − max softmax probability.
    MaxSoftmax,
    /// −log Σ exp(logits) (negative free energy).
    Energy,
    /// Mahalanobis distance to the nearest class centroid.
    Mahalanobis,
}

impl OodScore {
    /// All scores, stable order.
    pub const ALL: [OodScore; 3] = [OodScore::MaxSoftmax, OodScore::Energy, OodScore::Mahalanobis];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            OodScore::MaxSoftmax => "max-softmax",
            OodScore::Energy => "energy",
            OodScore::Mahalanobis => "mahalanobis",
        }
    }
}

/// Per-class Gaussian statistics in embedding space (diagonal covariance
/// shared across classes, as in Lee et al.'s tied-covariance variant).
#[derive(Debug, Clone)]
pub struct EmbeddingStats {
    means: Vec<Vec<f32>>,
    /// Shared diagonal variance (regularized).
    var: Vec<f32>,
}

impl EmbeddingStats {
    /// Fit from the training examples' embeddings.
    pub fn fit(clf: &FmClassifier, train: &[TextExample]) -> EmbeddingStats {
        EmbeddingStats::fit_embeddings(clf, &embed_all(clf, train))
    }

    /// Fit from `(label, embedding)` pairs computed with `clf`.
    fn fit_embeddings(clf: &FmClassifier, embeddings: &[(usize, Vec<f32>)]) -> EmbeddingStats {
        let dim = clf.backbone().d_model();
        let n_classes = clf.head().n_classes;
        let mut sums = vec![vec![0.0f64; dim]; n_classes];
        let mut counts = vec![0usize; n_classes];
        for (label, emb) in embeddings {
            counts[*label] += 1;
            for (s, v) in sums[*label].iter_mut().zip(emb) {
                *s += *v as f64;
            }
        }
        let means: Vec<Vec<f32>> = sums
            .iter()
            .zip(&counts)
            .map(|(s, &c)| {
                if c == 0 {
                    vec![0.0; dim]
                } else {
                    s.iter().map(|v| (*v / c as f64) as f32).collect()
                }
            })
            .collect();
        let mut var = vec![0.0f64; dim];
        let mut total = 0usize;
        for (label, emb) in embeddings {
            if counts[*label] == 0 {
                continue;
            }
            total += 1;
            for (i, v) in emb.iter().enumerate() {
                let d = v - means[*label][i];
                var[i] += (d * d) as f64;
            }
        }
        let var: Vec<f32> =
            var.iter().map(|v| ((v / total.max(1) as f64) as f32).max(1e-4)).collect();
        EmbeddingStats { means, var }
    }

    /// Mahalanobis distance (diagonal) from `emb` to the nearest centroid.
    pub fn distance(&self, emb: &[f32]) -> f64 {
        self.means
            .iter()
            .map(|mean| {
                emb.iter()
                    .zip(mean)
                    .zip(&self.var)
                    .map(|((x, m), v)| (((x - m) * (x - m)) / v) as f64)
                    .sum::<f64>()
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Number of class centroids.
    pub fn n_classes(&self) -> usize {
        self.means.len()
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.var.len()
    }

    /// Serialize into a checkpoint byte stream.
    pub fn write(&self, w: &mut ByteWriter) {
        w.put_usize(self.means.len());
        w.put_usize(self.var.len());
        for mean in &self.means {
            w.put_f32_slice(mean);
        }
        w.put_f32_slice(&self.var);
    }

    /// Deserialize from a checkpoint byte stream.
    pub fn read(r: &mut ByteReader) -> Result<EmbeddingStats, CheckpointError> {
        let n_classes = r.get_count()?;
        let dim = r.get_count()?;
        let mut means = Vec::with_capacity(n_classes);
        for _ in 0..n_classes {
            let mean = r.get_f32_vec()?;
            if mean.len() != dim {
                return Err(CheckpointError::Malformed(format!(
                    "embedding centroid length {} != dim {dim}",
                    mean.len()
                )));
            }
            means.push(mean);
        }
        let var = r.get_f32_vec()?;
        if var.len() != dim {
            return Err(CheckpointError::Malformed(format!(
                "embedding variance length {} != dim {dim}",
                var.len()
            )));
        }
        Ok(EmbeddingStats { means, var })
    }
}

/// Each example's label and pooled embedding under `clf`.
fn embed_all(clf: &FmClassifier, examples: &[TextExample]) -> Vec<(usize, Vec<f32>)> {
    examples.iter().map(|e| (e.label, clf.embed(&e.tokens))).collect()
}

/// An OOD detector: embedding statistics fitted once against a classifier,
/// owning its calibration so it can outlive (and be checkpointed apart from)
/// the training set.
#[derive(Debug, Clone)]
pub struct OodDetector {
    stats: EmbeddingStats,
}

impl OodDetector {
    /// Build, fitting embedding statistics from the training set (needed by
    /// the Mahalanobis score).
    pub fn fit(clf: &FmClassifier, train: &[TextExample]) -> OodDetector {
        OodDetector { stats: EmbeddingStats::fit(clf, train) }
    }

    /// The fitted embedding statistics.
    pub fn stats(&self) -> &EmbeddingStats {
        &self.stats
    }

    /// The chosen score for one example (higher = more OOD). The classifier
    /// must be the one (or an architectural twin of the one) the statistics
    /// were fitted against.
    pub fn score(&self, clf: &FmClassifier, tokens: &[String], kind: OodScore) -> f64 {
        match kind {
            OodScore::MaxSoftmax => {
                let probs = clf.probabilities(tokens);
                1.0 - probs.iter().copied().fold(0.0f32, f32::max) as f64
            }
            OodScore::Energy => {
                let logits = clf.logits(tokens);
                // −E = log Σ exp(l); OOD score = −log Σ exp = E.
                let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let lse = max + logits.iter().map(|v| (*v - max).exp()).sum::<f32>().ln();
                -(lse as f64)
            }
            OodScore::Mahalanobis => {
                let emb = clf.embed(tokens);
                self.stats.distance(&emb)
            }
        }
    }

    /// Score a whole set.
    pub fn score_all(
        &self,
        clf: &FmClassifier,
        examples: &[TextExample],
        kind: OodScore,
    ) -> Vec<f64> {
        examples.iter().map(|e| self.score(clf, &e.tokens, kind)).collect()
    }

    /// Persist the fitted statistics as a [`KIND_OOD`] checkpoint record.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut w = ByteWriter::new();
        self.stats.write(&mut w);
        save_record(path, KIND_OOD, &w.into_bytes())
    }

    /// Load statistics saved by [`OodDetector::save`].
    pub fn load(path: &Path) -> Result<OodDetector, CheckpointError> {
        let bytes = load_record(path, KIND_OOD)?;
        let mut r = ByteReader::new(&bytes);
        Ok(OodDetector { stats: EmbeddingStats::read(&mut r)? })
    }
}

/// A Page–Hinkley cumulative change-point test in integer milli-units.
///
/// Tracks the running integer mean of the observed signal; after `warmup`
/// observations it accumulates `x − mean − delta` and trips when the
/// accumulated sum rises more than `lambda` above its running minimum.
/// All state is integer, so identical observation streams reproduce trip
/// decisions bitwise at any thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageHinkley {
    n: u64,
    mean_milli: i64,
    cum: i64,
    min_cum: i64,
    delta_milli: i64,
    lambda_milli: i64,
    warmup: u64,
    tripped: bool,
}

impl PageHinkley {
    /// New test: `delta_milli` is the tolerated per-observation deviation,
    /// `lambda_milli` the trip threshold, `warmup` the number of leading
    /// observations used only to seed the running mean.
    pub fn new(delta_milli: i64, lambda_milli: i64, warmup: u64) -> PageHinkley {
        PageHinkley {
            n: 0,
            mean_milli: 0,
            cum: 0,
            min_cum: 0,
            delta_milli,
            lambda_milli,
            warmup,
            tripped: false,
        }
    }

    /// Feed one observation (milli-units); returns whether the test is now
    /// in the tripped state.
    pub fn update(&mut self, x_milli: i64) -> bool {
        self.n += 1;
        // Running integer mean (truncating division keeps state in i64).
        self.mean_milli += (x_milli - self.mean_milli) / self.n as i64;
        if self.n > self.warmup {
            self.cum += x_milli - self.mean_milli - self.delta_milli;
            self.min_cum = self.min_cum.min(self.cum);
            if self.cum - self.min_cum > self.lambda_milli {
                self.tripped = true;
            }
        }
        self.tripped
    }

    /// Whether the test has tripped since the last reset.
    pub fn tripped(&self) -> bool {
        self.tripped
    }

    /// Current excursion above the running minimum (milli-units): the
    /// quantity compared against `lambda` to decide a trip.
    pub fn level_milli(&self) -> i64 {
        self.cum - self.min_cum
    }

    /// Observations fed so far.
    pub fn observations(&self) -> u64 {
        self.n
    }

    /// Clear all accumulated state (mean, cumulative sums, trip flag).
    pub fn reset(&mut self) {
        self.n = 0;
        self.mean_milli = 0;
        self.cum = 0;
        self.min_cum = 0;
        self.tripped = false;
    }
}

/// Page–Hinkley tolerated deviation for the feedback-error stream, whose
/// observations are 0 or 1000.
const ERR_DELTA_MILLI: i64 = 150;

/// Tuning for [`DriftMonitor`]: thresholds are integer milli-units of the
/// per-request drift score (confidence part spans 0..=1000, distance part
/// 0..=[`DriftMonitor::DIST_CLAMP_MILLI`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriftConfig {
    /// Page–Hinkley tolerated deviation for the drift-score stream.
    pub delta_milli: i64,
    /// Page–Hinkley trip threshold for the drift-score stream.
    pub lambda_milli: i64,
    /// Warmup observations before the score test accumulates.
    pub warmup: u64,
    /// Trip threshold for the feedback-error stream (errors are fed as 0 or
    /// 1000 per labeled observation).
    pub err_lambda_milli: i64,
    /// Warmup observations before the feedback test accumulates.
    pub err_warmup: u64,
    /// Per-request quarantine cutoff: any answered request scoring at or
    /// above this is captured regardless of detector state.
    pub quarantine_threshold_milli: i64,
}

impl Default for DriftConfig {
    fn default() -> DriftConfig {
        DriftConfig {
            delta_milli: 100,
            lambda_milli: 6000,
            warmup: 32,
            err_lambda_milli: 8000,
            err_warmup: 16,
            quarantine_threshold_milli: 1600,
        }
    }
}

/// What [`DriftMonitor::observe`] concluded about one answered request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriftObservation {
    /// Combined drift score (milli-units): confidence + normalized distance.
    pub score_milli: i64,
    /// Whether the request should be captured into the quarantine buffer.
    pub quarantine: bool,
    /// Whether this observation newly tripped the detector.
    pub tripped_now: bool,
}

/// Streaming drift detector for a serving replica: scores every answered
/// request against calibrated [`EmbeddingStats`] and runs Page–Hinkley
/// tests over the score stream (covariate drift) and the delayed
/// ground-truth error stream (label drift).
#[derive(Debug, Clone)]
pub struct DriftMonitor {
    stats: EmbeddingStats,
    /// Mean calibration-set Mahalanobis distance, milli-units (≥ 1).
    d_ref_milli: i64,
    config: DriftConfig,
    score_ph: PageHinkley,
    err_ph: PageHinkley,
    observed: u64,
    trips: u64,
}

impl DriftMonitor {
    /// Upper clamp on the normalized-distance component (milli-units): keeps
    /// a single wild embedding from saturating the cumulative test.
    pub const DIST_CLAMP_MILLI: i64 = 4000;

    /// Calibrate against a classifier and reference (training) examples:
    /// fits embedding statistics and records the mean reference distance
    /// used to normalize per-request distances. Each reference example is
    /// embedded once, for both.
    pub fn calibrate(
        clf: &FmClassifier,
        reference: &[TextExample],
        config: DriftConfig,
    ) -> DriftMonitor {
        let embeddings = embed_all(clf, reference);
        let stats = EmbeddingStats::fit_embeddings(clf, &embeddings);
        let mut sum = 0.0f64;
        let mut n = 0u64;
        for (_, embedding) in &embeddings {
            let d = stats.distance(embedding);
            if d.is_finite() {
                sum += d;
                n += 1;
            }
        }
        let d_ref = if n == 0 { 1.0 } else { sum / n as f64 };
        let d_ref_milli = ((d_ref * 1000.0) as i64).max(1);
        DriftMonitor {
            stats,
            d_ref_milli,
            config,
            score_ph: PageHinkley::new(config.delta_milli, config.lambda_milli, config.warmup),
            err_ph: PageHinkley::new(ERR_DELTA_MILLI, config.err_lambda_milli, config.err_warmup),
            observed: 0,
            trips: 0,
        }
    }

    /// Score one answered request. `logits` are the classifier outputs the
    /// serving path already computed; the embedding forward pass is the
    /// monitor's own (monitoring overhead, not charged to the request).
    pub fn observe(
        &mut self,
        clf: &FmClassifier,
        tokens: &[String],
        logits: &[f32],
    ) -> DriftObservation {
        let embedding = clf.embed(tokens);
        self.observe_with_embedding(&embedding, logits)
    }

    /// Score one answered request from an already-computed pooled
    /// embedding — the multi-task path, where one shared encoder forward
    /// produces the embedding every per-task monitor scores, instead of
    /// each monitor re-running the encoder. Identical arithmetic to
    /// [`DriftMonitor::observe`] given the same embedding bits.
    pub fn observe_with_embedding(
        &mut self,
        embedding: &[f32],
        logits: &[f32],
    ) -> DriftObservation {
        // Confidence component: 1000·(1 − max softmax prob), NaN-tolerant.
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let conf_milli = if max.is_finite() {
            let sum: f32 = logits.iter().map(|l| (l - max).exp()).sum();
            // max prob = exp(max − max)/sum = 1/sum.
            let p = 1.0 / sum;
            if p.is_finite() {
                (((1.0 - p) as f64) * 1000.0) as i64
            } else {
                1000
            }
        } else {
            1000
        };
        let conf_milli = conf_milli.clamp(0, 1000);
        // Distance component: Mahalanobis distance normalized by the mean
        // calibration distance, clamped so one outlier cannot saturate.
        let d = self.stats.distance(embedding);
        let dist_milli = if d.is_finite() {
            ((d * 1_000_000.0 / self.d_ref_milli as f64) as i64).clamp(0, Self::DIST_CLAMP_MILLI)
        } else {
            Self::DIST_CLAMP_MILLI
        };
        let score_milli = conf_milli + dist_milli;
        let before = self.tripped();
        self.score_ph.update(score_milli);
        let tripped_now = !before && self.tripped();
        if tripped_now {
            self.trips += 1;
        }
        self.observed += 1;
        let quarantine = score_milli >= self.config.quarantine_threshold_milli || self.tripped();
        DriftObservation { score_milli, quarantine, tripped_now }
    }

    /// Feed one delayed ground-truth outcome (label drift signal); returns
    /// whether this observation newly tripped the detector.
    pub fn observe_feedback(&mut self, correct: bool) -> bool {
        let before = self.tripped();
        self.err_ph.update(if correct { 0 } else { 1000 });
        let tripped_now = !before && self.tripped();
        if tripped_now {
            self.trips += 1;
        }
        tripped_now
    }

    /// Whether either cumulative test is currently tripped.
    pub fn tripped(&self) -> bool {
        self.score_ph.tripped() || self.err_ph.tripped()
    }

    /// Larger of the two tests' current excursions (milli-units).
    pub fn level_milli(&self) -> i64 {
        self.score_ph.level_milli().max(self.err_ph.level_milli())
    }

    /// Requests scored so far.
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Cumulative trips (survives [`DriftMonitor::reset`]).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// The active configuration.
    pub fn config(&self) -> DriftConfig {
        self.config
    }

    /// The calibrated embedding statistics.
    pub fn stats(&self) -> &EmbeddingStats {
        &self.stats
    }

    /// Re-arm both cumulative tests (after an adaptation cycle handled the
    /// trip); calibration statistics are kept.
    pub fn reset(&mut self) {
        self.score_ph.reset();
        self.err_ph.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::auroc;
    use crate::pipeline::{FineTuneConfig, FmClassifier, FoundationModel, PipelineConfig};
    use nfm_model::pretrain::{PretrainConfig, TaskMix};
    use nfm_model::tokenize::field::FieldTokenizer;
    use nfm_traffic::netsim::{simulate, SimConfig};

    fn setup() -> (FmClassifier, Vec<TextExample>) {
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
        let train: Vec<TextExample> = (0..24)
            .map(|i| TextExample {
                tokens: vec![
                    if i % 2 == 0 { "PORT_53" } else { "PORT_443" }.to_string(),
                    "IP4".to_string(),
                ],
                label: i % 2,
            })
            .collect();
        let clf = FmClassifier::fine_tune(
            &fm,
            &train,
            2,
            &FineTuneConfig { epochs: 6, ..FineTuneConfig::default() },
        )
        .expect("fine-tuning failed");
        (clf, train)
    }

    #[test]
    fn scores_are_finite_and_ordered_sensibly() {
        let (clf, train) = setup();
        let det = OodDetector::fit(&clf, &train);
        for kind in OodScore::ALL {
            let in_dist = det.score(&clf, &train[0].tokens, kind);
            assert!(in_dist.is_finite(), "{kind:?}");
        }
    }

    #[test]
    fn mahalanobis_flags_far_embeddings() {
        let (clf, train) = setup();
        let det = OodDetector::fit(&clf, &train);
        let in_scores: Vec<f64> =
            train.iter().map(|e| det.score(&clf, &e.tokens, OodScore::Mahalanobis)).collect();
        // Gibberish tokens (all [UNK]) land somewhere unusual.
        let odd: Vec<TextExample> = (0..10)
            .map(|i| TextExample {
                tokens: vec![format!("XYZZY_{i}"), "NEVER_SEEN".to_string(), "WAT_9".to_string()],
                label: 0,
            })
            .collect();
        let out_scores = det.score_all(&clf, &odd, OodScore::Mahalanobis);
        let a = auroc(&out_scores, &in_scores);
        assert!(a > 0.8, "auroc {a}");
    }

    #[test]
    fn energy_and_msp_agree_directionally() {
        let (clf, train) = setup();
        let det = OodDetector::fit(&clf, &train);
        // For a confidently-classified example both scores should be low
        // relative to their own scale on an ambiguous one; just check they
        // produce valid numbers across the training set.
        for kind in [OodScore::MaxSoftmax, OodScore::Energy] {
            let scores = det.score_all(&clf, &train, kind);
            assert!(scores.iter().all(|s| s.is_finite()));
        }
    }

    #[test]
    fn embedding_stats_handle_missing_class() {
        let (clf, mut train) = setup();
        // Remove all label-1 examples: stats must still fit.
        train.retain(|e| e.label == 0);
        let stats = EmbeddingStats::fit(&clf, &train);
        let d = stats.distance(&clf.embed(&train[0].tokens));
        assert!(d.is_finite());
    }

    #[test]
    fn detector_checkpoint_roundtrips() {
        let (clf, train) = setup();
        let det = OodDetector::fit(&clf, &train);
        let dir = std::env::temp_dir().join("nfm_ood_roundtrip");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("stats.nfmc");
        det.save(&path).expect("save");
        let loaded = OodDetector::load(&path).expect("load");
        for e in &train {
            let a = det.score(&clf, &e.tokens, OodScore::Mahalanobis);
            let b = loaded.score(&clf, &e.tokens, OodScore::Mahalanobis);
            assert_eq!(a.to_bits(), b.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn page_hinkley_trips_on_level_shift_not_steady_stream() {
        let mut ph = PageHinkley::new(50, 2000, 16);
        for _ in 0..200 {
            assert!(!ph.update(1000));
        }
        // A sustained level shift accumulates and trips.
        let mut tripped_at = None;
        for i in 0..200 {
            if ph.update(1400) {
                tripped_at = Some(i);
                break;
            }
        }
        assert!(tripped_at.is_some(), "never tripped on a +400 milli shift");
        ph.reset();
        assert!(!ph.tripped());
        assert_eq!(ph.observations(), 0);
    }

    #[test]
    fn drift_monitor_trips_on_gibberish_not_training_traffic() {
        let (clf, train) = setup();
        let config = DriftConfig { warmup: 8, lambda_milli: 3000, ..DriftConfig::default() };
        let mut mon = DriftMonitor::calibrate(&clf, &train, config);
        // Replayed training traffic: no trip.
        for _ in 0..4 {
            for e in &train {
                let logits = clf.logits(&e.tokens);
                mon.observe(&clf, &e.tokens, &logits);
            }
        }
        assert!(!mon.tripped(), "tripped on in-distribution replay");
        // A sustained stream of unknown-token traffic must trip.
        let mut tripped = false;
        for i in 0..200 {
            let tokens = vec![format!("XYZZY_{}", i % 7), "NEVER_SEEN".to_string()];
            let logits = clf.logits(&tokens);
            let obs = mon.observe(&clf, &tokens, &logits);
            if obs.tripped_now {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "gibberish stream never tripped (level {})", mon.level_milli());
        assert_eq!(mon.trips(), 1);
        mon.reset();
        assert!(!mon.tripped());
    }

    #[test]
    fn feedback_errors_trip_the_label_test() {
        let (clf, train) = setup();
        let config =
            DriftConfig { err_warmup: 8, err_lambda_milli: 3000, ..DriftConfig::default() };
        let mut mon = DriftMonitor::calibrate(&clf, &train, config);
        for _ in 0..64 {
            mon.observe_feedback(true);
        }
        assert!(!mon.tripped());
        let mut tripped = false;
        for _ in 0..64 {
            if mon.observe_feedback(false) {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "sustained errors never tripped the feedback test");
    }
}
