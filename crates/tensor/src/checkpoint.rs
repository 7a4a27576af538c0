//! Versioned, checksummed binary serialization for training state.
//!
//! Every checkpoint is a *record*: a fixed header (`NFMC` magic, format
//! version, a kind tag identifying the payload type, payload length) plus a
//! CRC-32 over the payload. Readers validate all of it and return typed
//! [`CheckpointError`]s — a truncated, corrupted, or wrong-version file is
//! always an `Err`, never a panic.
//!
//! The payload encoding is little-endian and explicit: no `unsafe`, no
//! reflection, just [`ByteWriter`]/[`ByteReader`] pairs kept in sync by
//! hand. Higher layers (encoder, heads, vocabulary, full train state) build
//! on the primitives here.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::path::Path;

use crate::matrix::Matrix;
use crate::optim::{Adam, Schedule};

/// File magic: "NFMC" (Network Foundation Model Checkpoint).
pub const MAGIC: [u8; 4] = *b"NFMC";
/// Current checkpoint format version.
pub const FORMAT_VERSION: u16 = 1;

/// Record kind: a bare matrix.
pub const KIND_MATRIX: u8 = 1;
/// Record kind: Adam optimizer state.
pub const KIND_ADAM: u8 = 2;
/// Record kind: a transformer encoder (config + parameters).
pub const KIND_ENCODER: u8 = 3;
/// Record kind: a vocabulary alone. No writer emits it; the tag stays
/// reserved so it is never reused for another payload.
pub const KIND_VOCAB: u8 = 4;
/// Record kind: a full foundation model (vocab + encoder).
pub const KIND_MODEL: u8 = 5;
/// Record kind: mid-run training state (model + optimizers + progress).
pub const KIND_TRAIN: u8 = 6;
/// Record kind: a fine-tuned classifier (vocab + encoder + head + pooling).
pub const KIND_CLASSIFIER: u8 = 7;
/// Record kind: OOD embedding statistics (class centroids + shared variance).
pub const KIND_OOD: u8 = 8;
/// Record kind: a per-task classification head (name + pooling + weights)
/// detached from its shared encoder backbone.
pub const KIND_TASK_HEAD: u8 = 9;

/// Why a checkpoint could not be read or written.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error (message includes the underlying cause).
    Io(String),
    /// The data ends before a complete value could be read.
    Truncated {
        /// Bytes the reader needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The file does not start with the `NFMC` magic.
    BadMagic([u8; 4]),
    /// The format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The record holds a different payload type than requested.
    WrongKind {
        /// Kind the caller asked for.
        expected: u8,
        /// Kind stored in the header.
        found: u8,
    },
    /// The payload CRC does not match the header.
    ChecksumMismatch {
        /// CRC stored in the header.
        stored: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The payload decoded but its contents are inconsistent.
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O error: {msg}"),
            CheckpointError::Truncated { needed, available } => {
                write!(f, "checkpoint truncated: needed {needed} bytes, had {available}")
            }
            CheckpointError::BadMagic(m) => {
                write!(f, "not a checkpoint file (magic {m:02x?}, expected {MAGIC:02x?})")
            }
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (this build reads {FORMAT_VERSION})")
            }
            CheckpointError::WrongKind { expected, found } => {
                write!(f, "wrong checkpoint kind: expected {expected}, found {found}")
            }
            CheckpointError::ChecksumMismatch { stored, computed } => {
                write!(f, "checkpoint corrupted: stored CRC {stored:08x}, computed {computed:08x}")
            }
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e.to_string())
    }
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup table, built at
/// compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Little-endian payload encoder.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter { buf: Vec::new() }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f32` (bit pattern; exact round-trip including NaN).
    pub fn put_f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed `f32` slice.
    pub fn put_f32_slice(&mut self, vs: &[f32]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_f32(v);
        }
    }
}

/// Little-endian payload decoder over a borrowed buffer.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated { needed: n, available: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CheckpointError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Read a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a `usize`, rejecting values that cannot fit or that exceed the
    /// remaining buffer (defends length fields against corruption).
    pub fn get_len(&mut self) -> Result<usize, CheckpointError> {
        let v = self.get_u64()?;
        let v = usize::try_from(v)
            .map_err(|_| CheckpointError::Malformed(format!("length {v} overflows usize")))?;
        // Any honest length field counts items that occupy at least one
        // byte each, so it can never exceed what remains.
        if v > self.remaining() {
            return Err(CheckpointError::Truncated { needed: v, available: self.remaining() });
        }
        Ok(v)
    }

    /// Read a `usize` that is a count (step numbers, epoch indices) rather
    /// than a length into this buffer — no remaining-bytes bound applies.
    pub fn get_count(&mut self) -> Result<usize, CheckpointError> {
        let v = self.get_u64()?;
        usize::try_from(v)
            .map_err(|_| CheckpointError::Malformed(format!("count {v} overflows usize")))
    }

    /// Read an `f32` bit pattern.
    pub fn get_f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CheckpointError> {
        let n = self.get_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CheckpointError::Malformed(format!("invalid UTF-8 string: {e}")))
    }

    /// Read a length-prefixed `f32` vector.
    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>, CheckpointError> {
        let n = self.get_len()?;
        // Each f32 occupies 4 bytes; check up front so a corrupted length
        // cannot trigger a huge allocation.
        if n.checked_mul(4).is_none_or(|bytes| bytes > self.remaining()) {
            return Err(CheckpointError::Truncated {
                needed: n.saturating_mul(4),
                available: self.remaining(),
            });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.get_f32()?);
        }
        Ok(out)
    }
}

/// Frame `payload` as a complete record of `kind`.
pub fn write_record(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 19);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate a record's header and checksum, returning the payload.
pub fn read_record(bytes: &[u8], expected_kind: u8) -> Result<&[u8], CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let magic = r.take(4)?;
    if magic != MAGIC {
        return Err(CheckpointError::BadMagic([magic[0], magic[1], magic[2], magic[3]]));
    }
    let version = r.get_u16()?;
    if version != FORMAT_VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    let kind = r.get_u8()?;
    if kind != expected_kind {
        return Err(CheckpointError::WrongKind { expected: expected_kind, found: kind });
    }
    let len = r.get_u64()?;
    let len = usize::try_from(len)
        .map_err(|_| CheckpointError::Malformed(format!("payload length {len} overflows")))?;
    let stored = r.get_u32()?;
    let payload = r.take(len)?;
    let computed = crc32(payload);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    Ok(payload)
}

/// Write a record to `path` (atomic: write to a sibling temp file, then
/// rename, so a crash mid-write never leaves a half-written checkpoint at
/// the destination).
pub fn save_record(path: &Path, kind: u8, payload: &[u8]) -> Result<(), CheckpointError> {
    let bytes = write_record(kind, payload);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Read and validate a record from `path`, returning the payload.
pub fn load_record(path: &Path, kind: u8) -> Result<Vec<u8>, CheckpointError> {
    let bytes = std::fs::read(path)?;
    read_record(&bytes, kind).map(<[u8]>::to_vec)
}

/// Serialize a matrix into `w`.
pub fn write_matrix(w: &mut ByteWriter, m: &Matrix) {
    w.put_usize(m.rows());
    w.put_usize(m.cols());
    for &v in m.data() {
        w.put_f32(v);
    }
}

/// Deserialize a matrix from `r`.
pub fn read_matrix(r: &mut ByteReader) -> Result<Matrix, CheckpointError> {
    let rows = r.get_len()?;
    let cols = r.get_len()?;
    let n = rows.checked_mul(cols).ok_or_else(|| {
        CheckpointError::Malformed(format!("matrix shape {rows}x{cols} overflows"))
    })?;
    if n.checked_mul(4).is_none_or(|bytes| bytes > r.remaining()) {
        return Err(CheckpointError::Truncated {
            needed: n.saturating_mul(4),
            available: r.remaining(),
        });
    }
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        data.push(r.get_f32()?);
    }
    Ok(Matrix::from_vec(rows, cols, data))
}

/// A matrix as a standalone checkpoint record.
pub fn matrix_to_bytes(m: &Matrix) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_matrix(&mut w, m);
    write_record(KIND_MATRIX, &w.into_bytes())
}

/// Parse a standalone matrix record.
pub fn matrix_from_bytes(bytes: &[u8]) -> Result<Matrix, CheckpointError> {
    let payload = read_record(bytes, KIND_MATRIX)?;
    let mut r = ByteReader::new(payload);
    let m = read_matrix(&mut r)?;
    if r.remaining() != 0 {
        return Err(CheckpointError::Malformed(format!(
            "{} trailing bytes after matrix",
            r.remaining()
        )));
    }
    Ok(m)
}

/// Serialize a learning-rate schedule.
pub fn write_schedule(w: &mut ByteWriter, s: &Schedule) {
    match *s {
        Schedule::Constant(lr) => {
            w.put_u8(0);
            w.put_f32(lr);
        }
        Schedule::WarmupLinear { peak, warmup, total } => {
            w.put_u8(1);
            w.put_f32(peak);
            w.put_usize(warmup);
            w.put_usize(total);
        }
    }
}

/// Deserialize a learning-rate schedule.
pub fn read_schedule(r: &mut ByteReader) -> Result<Schedule, CheckpointError> {
    match r.get_u8()? {
        0 => Ok(Schedule::Constant(r.get_f32()?)),
        1 => {
            let peak = r.get_f32()?;
            let warmup = r.get_count()?;
            let total = r.get_count()?;
            Ok(Schedule::WarmupLinear { peak, warmup, total })
        }
        tag => Err(CheckpointError::Malformed(format!("unknown schedule tag {tag}"))),
    }
}

/// Serialize full Adam state (hyperparameters, schedule, step count, and
/// both moment estimates) into `w`.
pub fn write_adam(w: &mut ByteWriter, opt: &Adam) {
    write_schedule(w, &opt.schedule);
    w.put_f32(opt.beta1);
    w.put_f32(opt.beta2);
    w.put_f32(opt.eps);
    w.put_f32(opt.weight_decay);
    w.put_f32(opt.lr_scale());
    let (t, m, v) = opt.state();
    w.put_usize(t);
    w.put_usize(m.len());
    for slot in m {
        w.put_f32_slice(slot);
    }
    for slot in v {
        w.put_f32_slice(slot);
    }
}

/// Deserialize a fully-formed Adam optimizer from `r`.
pub fn read_adam(r: &mut ByteReader) -> Result<Adam, CheckpointError> {
    let schedule = read_schedule(r)?;
    let mut opt = Adam::new(schedule);
    opt.beta1 = r.get_f32()?;
    opt.beta2 = r.get_f32()?;
    opt.eps = r.get_f32()?;
    opt.weight_decay = r.get_f32()?;
    opt.set_lr_scale(r.get_f32()?);
    let t = r.get_count()?;
    let n_slots = r.get_len()?;
    let read_moments = |r: &mut ByteReader| -> Result<Vec<Vec<f32>>, CheckpointError> {
        let mut out = Vec::with_capacity(n_slots);
        for _ in 0..n_slots {
            out.push(r.get_f32_vec()?);
        }
        Ok(out)
    };
    let m = read_moments(r)?;
    let v = read_moments(r)?;
    if m.len() != v.len() || m.iter().zip(&v).any(|(a, b)| a.len() != b.len()) {
        return Err(CheckpointError::Malformed("adam moment shapes disagree".into()));
    }
    opt.restore_state(t, m, v);
    Ok(opt)
}

/// Adam state as a standalone checkpoint record.
pub fn adam_to_bytes(opt: &Adam) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_adam(&mut w, opt);
    write_record(KIND_ADAM, &w.into_bytes())
}

/// Parse a standalone Adam record.
pub fn adam_from_bytes(bytes: &[u8]) -> Result<Adam, CheckpointError> {
    let payload = read_record(bytes, KIND_ADAM)?;
    let mut r = ByteReader::new(payload);
    read_adam(&mut r)
}

/// Serialize every parameter slot of a module, in visit order.
pub fn write_module_params(w: &mut ByteWriter, module: &mut dyn crate::layers::Module) {
    let mut slots: Vec<Vec<f32>> = Vec::new();
    module.visit_params(&mut |p, _| slots.push(p.to_vec()));
    w.put_usize(slots.len());
    for slot in &slots {
        w.put_f32_slice(slot);
    }
}

/// Overwrite a module's parameters from a serialized dump. The module must
/// have the same architecture (slot count and sizes) as the one saved.
pub fn read_module_params(
    r: &mut ByteReader,
    module: &mut dyn crate::layers::Module,
) -> Result<(), CheckpointError> {
    let n = r.get_len()?;
    let mut slots: Vec<Vec<f32>> = Vec::with_capacity(n);
    for _ in 0..n {
        slots.push(r.get_f32_vec()?);
    }
    let mut expected = 0usize;
    module.visit_params(&mut |_, _| expected += 1);
    if expected != n {
        return Err(CheckpointError::Malformed(format!(
            "parameter slot count mismatch: module has {expected}, checkpoint has {n}"
        )));
    }
    let mut mismatch: Option<(usize, usize, usize)> = None;
    let mut i = 0usize;
    module.visit_params(&mut |p, _| {
        if p.len() == slots[i].len() {
            p.copy_from_slice(&slots[i]);
        } else if mismatch.is_none() {
            mismatch = Some((i, p.len(), slots[i].len()));
        }
        i += 1;
    });
    if let Some((slot, have, want)) = mismatch {
        return Err(CheckpointError::Malformed(format!(
            "parameter slot {slot} size mismatch: module has {have}, checkpoint has {want}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Module};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn crc32_known_vector() {
        // CRC-32/ISO-HDLC of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_round_trip() {
        let payload = b"hello checkpoint";
        let rec = write_record(KIND_MATRIX, payload);
        assert_eq!(read_record(&rec, KIND_MATRIX).unwrap(), payload);
    }

    #[test]
    fn record_rejects_wrong_kind_version_magic() {
        let rec = write_record(KIND_MATRIX, b"x");
        assert!(matches!(
            read_record(&rec, KIND_ADAM),
            Err(CheckpointError::WrongKind { expected: KIND_ADAM, found: KIND_MATRIX })
        ));
        let mut bad_magic = rec.clone();
        bad_magic[0] = b'X';
        assert!(matches!(read_record(&bad_magic, KIND_MATRIX), Err(CheckpointError::BadMagic(_))));
        let mut bad_version = rec.clone();
        bad_version[4] = 0xFF;
        assert!(matches!(
            read_record(&bad_version, KIND_MATRIX),
            Err(CheckpointError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn record_rejects_corruption_and_truncation() {
        let rec = write_record(KIND_MATRIX, b"payload bytes");
        let mut flipped = rec.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(matches!(
            read_record(&flipped, KIND_MATRIX),
            Err(CheckpointError::ChecksumMismatch { .. })
        ));
        for cut in 0..rec.len() {
            assert!(
                read_record(&rec[..cut], KIND_MATRIX).is_err(),
                "prefix of {cut} bytes accepted"
            );
        }
    }

    #[test]
    fn matrix_round_trip_is_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = crate::init::normal(&mut rng, 7, 3, 2.0);
        let bytes = matrix_to_bytes(&m);
        let back = matrix_from_bytes(&bytes).unwrap();
        assert_eq!(back.rows(), 7);
        assert_eq!(back.cols(), 3);
        for (a, b) in m.data().iter().zip(back.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn matrix_preserves_nan_and_inf_bits() {
        let m = Matrix::from_vec(1, 3, vec![f32::NAN, f32::INFINITY, -0.0]);
        let back = matrix_from_bytes(&matrix_to_bytes(&m)).unwrap();
        for (a, b) in m.data().iter().zip(back.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn adam_round_trip_preserves_moments_and_step() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut layer = Linear::new(&mut rng, 4, 3);
        let mut opt = Adam::new(Schedule::WarmupLinear { peak: 1e-3, warmup: 5, total: 50 });
        opt.set_lr_scale(0.25);
        let x = crate::init::normal(&mut rng, 2, 4, 1.0);
        for _ in 0..3 {
            layer.zero_grad();
            let y = layer.forward(&x);
            layer.backward(&y);
            opt.step(&mut layer);
        }
        let back = adam_from_bytes(&adam_to_bytes(&opt)).unwrap();
        assert_eq!(back.steps(), opt.steps());
        assert_eq!(back.lr_scale(), 0.25);
        assert_eq!(back.schedule, opt.schedule);
        let (_, m0, v0) = opt.state();
        let (_, m1, v1) = back.state();
        assert_eq!(m0, m1);
        assert_eq!(v0, v1);
    }

    #[test]
    fn module_params_round_trip() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = Linear::new(&mut rng, 5, 2);
        let mut w = ByteWriter::new();
        write_module_params(&mut w, &mut layer);
        let bytes = w.into_bytes();
        let mut fresh = Linear::new(&mut rng, 5, 2);
        let mut r = ByteReader::new(&bytes);
        read_module_params(&mut r, &mut fresh).unwrap();
        assert_eq!(layer.w.data(), fresh.w.data());
        // Wrong architecture is a typed error.
        let mut wrong = Linear::new(&mut rng, 3, 2);
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            read_module_params(&mut r, &mut wrong),
            Err(CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn save_and_load_record_via_file() {
        let dir = std::env::temp_dir().join(format!("nfm_ckpt_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.nfmc");
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let mut w = ByteWriter::new();
        write_matrix(&mut w, &m);
        save_record(&path, KIND_MATRIX, &w.into_bytes()).unwrap();
        let payload = load_record(&path, KIND_MATRIX).unwrap();
        let back = read_matrix(&mut ByteReader::new(&payload)).unwrap();
        assert_eq!(back.data(), m.data());
        std::fs::remove_dir_all(&dir).ok();
    }
}
