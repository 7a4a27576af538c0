//! Model-level checkpointing: encoder, task heads, vocabulary, and full
//! mid-run training state, built on the record format in
//! [`nfm_tensor::checkpoint`].
//!
//! Models are stored as their construction config plus a flat parameter
//! dump in [`nfm_tensor::layers::Module::visit_params`] order (which every layer keeps
//! stable); loading reconstructs the architecture and overwrites every
//! slot, so a round trip is bitwise exact.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::path::Path;

use nfm_tensor::checkpoint::{
    load_record, read_adam, read_module_params, save_record, write_adam, write_module_params,
    ByteReader, ByteWriter, CheckpointError, KIND_ENCODER, KIND_TRAIN,
};
use nfm_tensor::optim::Adam;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::nn::heads::{ClsHead, MlmHead};
use crate::nn::transformer::{Encoder, EncoderConfig};
use crate::vocab::Vocab;

/// Serialize an encoder config.
pub fn write_encoder_config(w: &mut ByteWriter, cfg: &EncoderConfig) {
    w.put_usize(cfg.vocab);
    w.put_usize(cfg.d_model);
    w.put_usize(cfg.n_heads);
    w.put_usize(cfg.n_layers);
    w.put_usize(cfg.d_ff);
    w.put_usize(cfg.max_len);
}

/// Deserialize an encoder config.
pub fn read_encoder_config(r: &mut ByteReader) -> Result<EncoderConfig, CheckpointError> {
    let cfg = EncoderConfig {
        vocab: r.get_count()?,
        d_model: r.get_count()?,
        n_heads: r.get_count()?,
        n_layers: r.get_count()?,
        d_ff: r.get_count()?,
        max_len: r.get_count()?,
    };
    if cfg.d_model == 0 || cfg.n_heads == 0 || !cfg.d_model.is_multiple_of(cfg.n_heads) {
        return Err(CheckpointError::Malformed(format!(
            "invalid encoder config: d_model {} with {} heads",
            cfg.d_model, cfg.n_heads
        )));
    }
    if cfg.n_layers == 0 {
        return Err(CheckpointError::Malformed("invalid encoder config: no blocks".into()));
    }
    // Cap dimensions so a corrupted-but-checksum-colliding config cannot
    // request an absurd allocation.
    const MAX_DIM: usize = 1 << 24;
    if [cfg.vocab, cfg.d_model, cfg.n_layers, cfg.d_ff, cfg.max_len].iter().any(|&d| d > MAX_DIM) {
        return Err(CheckpointError::Malformed("encoder config dimension too large".into()));
    }
    Ok(cfg)
}

/// Serialize an encoder (config + parameters). Takes `&mut` because
/// parameter access goes through [`nfm_tensor::layers::Module::visit_params`].
pub fn write_encoder(w: &mut ByteWriter, encoder: &mut Encoder) {
    write_encoder_config(w, &encoder.config);
    write_module_params(w, encoder);
}

/// Deserialize an encoder: rebuild the architecture from its config, then
/// overwrite every parameter slot.
pub fn read_encoder(r: &mut ByteReader) -> Result<Encoder, CheckpointError> {
    let cfg = read_encoder_config(r)?;
    // The RNG only fills values that are immediately overwritten.
    let mut encoder = Encoder::new(&mut StdRng::seed_from_u64(0), cfg);
    read_module_params(r, &mut encoder)?;
    Ok(encoder)
}

/// Serialize an MLM head.
pub fn write_mlm_head(w: &mut ByteWriter, head: &mut MlmHead) {
    let (d_model, vocab) = head.dims();
    w.put_usize(d_model);
    w.put_usize(vocab);
    write_module_params(w, head);
}

/// Deserialize an MLM head.
pub fn read_mlm_head(r: &mut ByteReader) -> Result<MlmHead, CheckpointError> {
    let d_model = r.get_count()?;
    let vocab = r.get_count()?;
    let mut head = MlmHead::new(&mut StdRng::seed_from_u64(0), d_model, vocab);
    read_module_params(r, &mut head)?;
    Ok(head)
}

/// Serialize a classification head.
pub fn write_cls_head(w: &mut ByteWriter, head: &mut ClsHead) {
    let (d_model, n_classes) = head.dims();
    w.put_usize(d_model);
    w.put_usize(n_classes);
    write_module_params(w, head);
}

/// Deserialize a classification head.
pub fn read_cls_head(r: &mut ByteReader) -> Result<ClsHead, CheckpointError> {
    let d_model = r.get_count()?;
    let n_classes = r.get_count()?;
    let mut head = ClsHead::new(&mut StdRng::seed_from_u64(0), d_model, n_classes);
    read_module_params(r, &mut head)?;
    Ok(head)
}

/// Serialize a vocabulary as its id-ordered token list.
pub fn write_vocab(w: &mut ByteWriter, vocab: &Vocab) {
    w.put_usize(vocab.len());
    for (_, token) in vocab.iter() {
        w.put_str(token);
    }
}

/// Deserialize a vocabulary, restoring exact token ids.
pub fn read_vocab(r: &mut ByteReader) -> Result<Vocab, CheckpointError> {
    let n = r.get_len()?;
    let mut tokens = Vec::with_capacity(n);
    for _ in 0..n {
        tokens.push(r.get_str()?);
    }
    Vocab::from_tokens(tokens).map_err(CheckpointError::Malformed)
}

/// Save an encoder alone to `path`.
pub fn save_encoder(path: &Path, encoder: &mut Encoder) -> Result<(), CheckpointError> {
    let mut w = ByteWriter::new();
    write_encoder(&mut w, encoder);
    save_record(path, KIND_ENCODER, &w.into_bytes())
}

/// Load an encoder alone from `path`.
pub fn load_encoder(path: &Path) -> Result<Encoder, CheckpointError> {
    let payload = load_record(path, KIND_ENCODER)?;
    let mut r = ByteReader::new(&payload);
    read_encoder(&mut r)
}

/// Everything needed to continue an interrupted pre-training run with
/// bitwise-identical results: model, heads, optimizer moments, and the
/// loop's progress counters (which also pin the per-epoch shuffle seeds
/// and the learning-rate backoff state).
#[derive(Debug, Clone)]
pub struct TrainState {
    /// First epoch the resumed loop should run.
    pub next_epoch: usize,
    /// Global batch-step counter (monotonic across rollbacks).
    pub global_step: u64,
    /// Guard rollbacks so far (feeds the per-epoch reshuffle seed).
    pub total_retries: u64,
    /// Current learning-rate multiplier after backoffs.
    pub lr_scale: f32,
    /// Per-epoch mean MLM loss so far.
    pub mlm_loss: Vec<f32>,
    /// Per-epoch mean next-flow loss so far.
    pub next_flow_loss: Vec<f32>,
    /// The encoder.
    pub encoder: Encoder,
    /// The MLM head.
    pub mlm_head: MlmHead,
    /// The next-flow-prediction head.
    pub nfp_head: ClsHead,
    /// Encoder optimizer.
    pub opt_enc: Adam,
    /// MLM-head optimizer.
    pub opt_mlm: Adam,
    /// NFP-head optimizer.
    pub opt_nfp: Adam,
}

/// Serialize a full training snapshot to `path`.
pub fn save_train_state(path: &Path, state: &mut TrainState) -> Result<(), CheckpointError> {
    let mut w = ByteWriter::new();
    w.put_usize(state.next_epoch);
    w.put_u64(state.global_step);
    w.put_u64(state.total_retries);
    w.put_f32(state.lr_scale);
    w.put_f32_slice(&state.mlm_loss);
    w.put_f32_slice(&state.next_flow_loss);
    write_encoder(&mut w, &mut state.encoder);
    write_mlm_head(&mut w, &mut state.mlm_head);
    write_cls_head(&mut w, &mut state.nfp_head);
    write_adam(&mut w, &state.opt_enc);
    write_adam(&mut w, &state.opt_mlm);
    write_adam(&mut w, &state.opt_nfp);
    save_record(path, KIND_TRAIN, &w.into_bytes())
}

/// Load a full training snapshot from `path`.
pub fn load_train_state(path: &Path) -> Result<TrainState, CheckpointError> {
    let payload = load_record(path, KIND_TRAIN)?;
    let mut r = ByteReader::new(&payload);
    let next_epoch = r.get_count()?;
    let global_step = r.get_u64()?;
    let total_retries = r.get_u64()?;
    let lr_scale = r.get_f32()?;
    let mlm_loss = r.get_f32_vec()?;
    let next_flow_loss = r.get_f32_vec()?;
    let encoder = read_encoder(&mut r)?;
    let mlm_head = read_mlm_head(&mut r)?;
    let nfp_head = read_cls_head(&mut r)?;
    let opt_enc = read_adam(&mut r)?;
    let opt_mlm = read_adam(&mut r)?;
    let opt_nfp = read_adam(&mut r)?;
    if r.remaining() != 0 {
        return Err(CheckpointError::Malformed(format!(
            "{} trailing bytes after train state",
            r.remaining()
        )));
    }
    Ok(TrainState {
        next_epoch,
        global_step,
        total_retries,
        lr_scale,
        mlm_loss,
        next_flow_loss,
        encoder,
        mlm_head,
        nfp_head,
        opt_enc,
        opt_mlm,
        opt_nfp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nn::transformer::FULL_READOUT;
    use nfm_tensor::layers::Module;
    use nfm_tensor::optim::Schedule;
    use rand::Rng;

    fn small_encoder(seed: u64) -> Encoder {
        let cfg =
            EncoderConfig { vocab: 17, d_model: 8, n_heads: 2, n_layers: 2, d_ff: 16, max_len: 12 };
        Encoder::new(&mut StdRng::seed_from_u64(seed), cfg)
    }

    fn params_of(m: &mut dyn Module) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        m.visit_params(&mut |p, _| out.push(p.iter().map(|v| v.to_bits()).collect()));
        out
    }

    #[test]
    fn encoder_round_trip_is_bitwise() {
        let mut enc = small_encoder(42);
        let mut w = ByteWriter::new();
        write_encoder(&mut w, &mut enc);
        let bytes = w.into_bytes();
        let mut back = read_encoder(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.config, enc.config);
        assert_eq!(params_of(&mut enc), params_of(&mut back));
        // Same forward output, bit for bit.
        let ids = [2usize, 7, 9, 3];
        let a = enc.forward_inference(&ids, FULL_READOUT);
        let b = back.forward_inference(&ids, FULL_READOUT);
        for (x, y) in a.data().iter().zip(b.data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn encoder_file_round_trip_and_corruption() {
        let dir = std::env::temp_dir().join(format!("nfm_model_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("enc.nfmc");
        let mut enc = small_encoder(1);
        save_encoder(&path, &mut enc).unwrap();
        let mut back = load_encoder(&path).unwrap();
        assert_eq!(params_of(&mut enc), params_of(&mut back));
        // Flip a byte in the middle: load must fail, not panic.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load_encoder(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn heads_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut mlm = MlmHead::new(&mut rng, 8, 17);
        let mut cls = ClsHead::new(&mut rng, 8, 4);
        let mut w = ByteWriter::new();
        write_mlm_head(&mut w, &mut mlm);
        write_cls_head(&mut w, &mut cls);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut mlm2 = read_mlm_head(&mut r).unwrap();
        let mut cls2 = read_cls_head(&mut r).unwrap();
        assert_eq!(params_of(&mut mlm), params_of(&mut mlm2));
        assert_eq!(params_of(&mut cls), params_of(&mut cls2));
        assert_eq!(mlm2.dims(), (8, 17));
        assert_eq!(cls2.dims(), (8, 4));
    }

    #[test]
    fn vocab_round_trip_preserves_ids() {
        let seqs: Vec<Vec<String>> =
            (0..10).map(|i| (0..5).map(|j| format!("tok_{}_{}", i % 3, j)).collect()).collect();
        let vocab = Vocab::from_sequences(&seqs, 1);
        let mut w = ByteWriter::new();
        write_vocab(&mut w, &vocab);
        let bytes = w.into_bytes();
        let back = read_vocab(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.len(), vocab.len());
        for (id, tok) in vocab.iter() {
            assert_eq!(back.token(id), tok);
            assert_eq!(back.id(tok), id);
        }
    }

    #[test]
    fn vocab_rejects_bad_token_lists() {
        assert!(Vocab::from_tokens(vec!["a".into()]).is_err());
        let mut tokens: Vec<String> =
            crate::vocab::SPECIALS.iter().map(|s| s.to_string()).collect();
        tokens.push("x".into());
        tokens.push("x".into());
        assert!(Vocab::from_tokens(tokens).is_err());
        let mut wrong: Vec<String> = crate::vocab::SPECIALS.iter().map(|s| s.to_string()).collect();
        wrong[0] = "[NOTPAD]".into();
        assert!(Vocab::from_tokens(wrong).is_err());
    }

    #[test]
    fn train_state_round_trip() {
        let dir = std::env::temp_dir().join(format!("nfm_ts_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.nfmc");
        let mut rng = StdRng::seed_from_u64(9);
        let mut state = TrainState {
            next_epoch: 2,
            global_step: 37,
            total_retries: 1,
            lr_scale: 0.5,
            mlm_loss: vec![3.0, 2.5],
            next_flow_loss: vec![0.7, 0.6],
            encoder: small_encoder(9),
            mlm_head: MlmHead::new(&mut rng, 8, 17),
            nfp_head: ClsHead::new(&mut rng, 8, 2),
            opt_enc: Adam::new(Schedule::Constant(1e-3)),
            opt_mlm: Adam::new(Schedule::Constant(1e-3)),
            opt_nfp: Adam::new(Schedule::Constant(1e-3)),
        };
        // Give the optimizers some state.
        state.opt_enc.step(&mut state.encoder);
        state.opt_enc.set_lr_scale(0.5);
        save_train_state(&path, &mut state).unwrap();
        let mut back = load_train_state(&path).unwrap();
        assert_eq!(back.next_epoch, 2);
        assert_eq!(back.global_step, 37);
        assert_eq!(back.total_retries, 1);
        assert_eq!(back.lr_scale, 0.5);
        assert_eq!(back.mlm_loss, vec![3.0, 2.5]);
        assert_eq!(back.opt_enc.steps(), 1);
        assert_eq!(back.opt_enc.lr_scale(), 0.5);
        assert_eq!(params_of(&mut state.encoder), params_of(&mut back.encoder));
        let (_, m0, v0) = state.opt_enc.state();
        let (_, m1, v1) = back.opt_enc.state();
        assert_eq!(m0, m1);
        assert_eq!(v0, v1);
        // Truncated file: typed error, no panic.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
        assert!(load_train_state(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rng_gets_unused_values_only() {
        // read_encoder seeds a throwaway RNG; make sure fresh construction
        // with a different seed still loads to identical parameters (i.e.
        // nothing of the dummy init survives).
        let mut enc = small_encoder(123);
        let mut w = ByteWriter::new();
        write_encoder(&mut w, &mut enc);
        let bytes = w.into_bytes();
        let mut a = read_encoder(&mut ByteReader::new(&bytes)).unwrap();
        let mut b = read_encoder(&mut ByteReader::new(&bytes)).unwrap();
        let _ = StdRng::seed_from_u64(0).gen::<u64>();
        assert_eq!(params_of(&mut a), params_of(&mut b));
        assert_eq!(params_of(&mut a), params_of(&mut enc));
    }
}
