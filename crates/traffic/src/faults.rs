//! Fault injection for traces — the adverse-network-conditions knobs
//! smoltcp's examples expose (`--drop-chance`, `--corrupt-chance`, …),
//! applied offline to generated captures. Used to test how tokenizers and
//! models degrade on lossy or corrupted input, and to make training data
//! realistically imperfect.

use std::error::Error;
use std::fmt;

use nfm_net::capture::{Trace, TracePacket};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fault-injection configuration; probabilities in [0, 1].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability of dropping each packet.
    pub drop_chance: f64,
    /// Probability of flipping one random byte in a packet.
    pub corrupt_chance: f64,
    /// Probability of duplicating a packet (duplicate keeps its timestamp
    /// plus a small delta, modelling a retransmit seen twice).
    pub duplicate_chance: f64,
    /// Probability of delaying a packet by up to `max_delay_us`
    /// (reordering relative to its neighbours).
    pub reorder_chance: f64,
    /// Maximum reorder delay in microseconds.
    pub max_delay_us: u64,
    /// Truncate packets longer than this to this many bytes (0 disables) —
    /// models a capture snap length.
    pub snaplen: usize,
    /// Probability that an arrival at the serving path starts a burst
    /// instead of a single request (see [`burst_schedule`]).
    pub burst_chance: f64,
    /// Largest burst [`burst_schedule`] may emit (minimum 2 when bursts
    /// are enabled).
    pub max_burst: usize,
    /// Seed for the fault process.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            duplicate_chance: 0.0,
            reorder_chance: 0.0,
            max_delay_us: 50_000,
            snaplen: 0,
            burst_chance: 0.0,
            max_burst: 8,
            seed: 1,
        }
    }
}

/// A fault configuration that does not describe a probability process:
/// some chance field is NaN, infinite, or outside [0, 1]. Typed (like
/// `PipelineError`/`TrainError`) so callers can match on it and carry it
/// through `?`.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// One or more chance fields are not finite probabilities in [0, 1].
    OutOfRange {
        /// The offending `(field name, value)` pairs, in declaration order.
        fields: Vec<(&'static str, f64)>,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::OutOfRange { fields } => {
                let list: Vec<String> = fields
                    .iter()
                    .map(|(name, v)| format!("{name} = {v} (must be in [0, 1])"))
                    .collect();
                write!(f, "invalid FaultConfig: {}", list.join(", "))
            }
        }
    }
}

impl Error for FaultError {}

impl FaultConfig {
    /// The "15%" starting point smoltcp's README suggests for demos.
    pub fn noisy(seed: u64) -> FaultConfig {
        FaultConfig {
            drop_chance: 0.15,
            corrupt_chance: 0.15,
            duplicate_chance: 0.05,
            reorder_chance: 0.1,
            seed,
            ..FaultConfig::default()
        }
    }

    /// Check every probability is a finite value in [0, 1]. Returns a typed
    /// [`FaultError`] naming each offending field. `inject` tolerates
    /// invalid configs by clamping; call this to reject them loudly instead.
    pub fn validate(&self) -> Result<(), FaultError> {
        let fields = [
            ("drop_chance", self.drop_chance),
            ("corrupt_chance", self.corrupt_chance),
            ("duplicate_chance", self.duplicate_chance),
            ("reorder_chance", self.reorder_chance),
            ("burst_chance", self.burst_chance),
        ];
        let bad: Vec<(&'static str, f64)> = fields
            .iter()
            .filter(|(_, v)| !v.is_finite() || !(0.0..=1.0).contains(v))
            .copied()
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(FaultError::OutOfRange { fields: bad })
        }
    }

    /// Copy with every probability clamped to [0, 1] (NaN becomes 0).
    fn clamped(&self) -> FaultConfig {
        let clamp = |v: f64| if v.is_finite() { v.clamp(0.0, 1.0) } else { 0.0 };
        FaultConfig {
            drop_chance: clamp(self.drop_chance),
            corrupt_chance: clamp(self.corrupt_chance),
            duplicate_chance: clamp(self.duplicate_chance),
            reorder_chance: clamp(self.reorder_chance),
            burst_chance: clamp(self.burst_chance),
            ..*self
        }
    }
}

/// Statistics about what the injector did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets dropped.
    pub dropped: usize,
    /// Packets with a corrupted byte.
    pub corrupted: usize,
    /// Packets duplicated.
    pub duplicated: usize,
    /// Packets delayed/reordered.
    pub reordered: usize,
    /// Packets truncated by the snap length.
    pub truncated: usize,
}

/// Apply faults to a trace, returning the degraded trace and statistics.
/// Deterministic under `config.seed`. Out-of-range probabilities are
/// clamped to [0, 1] (NaN → 0) rather than panicking; use
/// [`FaultConfig::validate`] to reject such configs explicitly.
pub fn inject(trace: &Trace, config: &FaultConfig) -> (Trace, FaultStats) {
    let config = &config.clamped();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xFA_u64.rotate_left(32));
    let mut out: Vec<TracePacket> = Vec::with_capacity(trace.len());
    let mut stats = FaultStats::default();
    for tp in trace.packets() {
        if config.drop_chance > 0.0 && rng.gen_bool(config.drop_chance) {
            stats.dropped += 1;
            continue;
        }
        let mut packet = tp.clone();
        if config.snaplen > 0 && packet.frame.len() > config.snaplen {
            packet.frame.truncate(config.snaplen);
            stats.truncated += 1;
        }
        if config.corrupt_chance > 0.0
            && !packet.frame.is_empty()
            && rng.gen_bool(config.corrupt_chance)
        {
            let at = rng.gen_range(0..packet.frame.len());
            let bit = 1u8 << rng.gen_range(0..8);
            packet.frame[at] ^= bit;
            stats.corrupted += 1;
        }
        if config.reorder_chance > 0.0 && rng.gen_bool(config.reorder_chance) {
            packet.ts_us += rng.gen_range(1..=config.max_delay_us.max(1));
            stats.reordered += 1;
        }
        if config.duplicate_chance > 0.0 && rng.gen_bool(config.duplicate_chance) {
            let mut dup = packet.clone();
            dup.ts_us += rng.gen_range(1..1_000);
            out.push(dup);
            stats.duplicated += 1;
        }
        out.push(packet);
    }
    (Trace::from_packets(out), stats)
}

/// Group `n` serve-path arrivals into bursts: each schedule entry is how
/// many requests arrive back-to-back before the service gets to drain its
/// queue. With `burst_chance = 0` every entry is 1 (a smooth arrival
/// process); otherwise an arrival starts a burst of `2..=max_burst`
/// requests with the configured probability. Deterministic under
/// `config.seed`; the sizes always sum to exactly `n`. Out-of-range
/// chances are clamped like [`inject`] does.
pub fn burst_schedule(n: usize, config: &FaultConfig) -> Vec<usize> {
    let config = config.clamped();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xB0_u64.rotate_left(16));
    let mut out = Vec::new();
    let mut left = n;
    while left > 0 {
        let size = if config.burst_chance > 0.0 && rng.gen_bool(config.burst_chance) {
            rng.gen_range(2..=config.max_burst.max(2))
        } else {
            1
        };
        let size = size.min(left);
        out.push(size);
        left -= size;
    }
    out
}

/// Seeded schedule of per-request task-subset bitmasks for multi-task
/// serving sweeps: entry `i` is the mask of task lanes request `i` fans
/// out to (bit `k` = task `k`). With probability `full_chance` a request
/// asks for every task; otherwise a uniform non-empty subset of the
/// `n_tasks` low bits is drawn. Deterministic in `(n, n_tasks,
/// full_chance, seed)`, so a chaos sweep replays the same fan-out pattern
/// bit for bit. `n_tasks` is clamped to 1..=64 (a `u64` of lanes);
/// `full_chance` outside [0, 1] is clamped.
pub fn task_mask_schedule(n: usize, n_tasks: usize, full_chance: f64, seed: u64) -> Vec<u64> {
    let n_tasks = n_tasks.clamp(1, 64);
    let full_chance = if full_chance.is_finite() { full_chance.clamp(0.0, 1.0) } else { 1.0 };
    let all = if n_tasks == 64 { u64::MAX } else { (1u64 << n_tasks) - 1 };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7A_u64.rotate_left(24));
    (0..n)
        .map(|_| {
            if full_chance >= 1.0 || rng.gen_bool(full_chance) {
                all
            } else {
                loop {
                    let mask = rng.gen::<u64>() & all;
                    if mask != 0 {
                        break mask;
                    }
                }
            }
        })
        .collect()
}

/// What a replica-level fault does to one serving replica. Packet-level
/// faults ([`inject`]) damage the *traffic*; these damage the *server* — the
/// failure modes a multi-replica cluster exists to survive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaFaultKind {
    /// The replica process dies: it can serve nothing until the supervisor
    /// restarts it from a checkpoint.
    Crash,
    /// The replica slows down by `factor` (GC pause, noisy neighbour,
    /// thermal throttle): every request costs `factor`× its normal budget.
    Stall {
        /// Cost multiplier.
        factor: u64,
    },
    /// The replica's in-memory weights are silently corrupted (bit rot,
    /// faulty DIMM): it still accepts requests but produces garbage the
    /// health probes must catch.
    CorruptWeights,
}

/// One scheduled replica fault: at the start of burst `at_burst`, replica
/// `replica` suffers `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaFault {
    /// Index of the replica the fault hits.
    pub replica: usize,
    /// Burst index (cluster tick) at which the fault strikes.
    pub at_burst: usize,
    /// What happens to the replica.
    pub kind: ReplicaFaultKind,
}

/// Distribution-drift process for serving scenarios; magnitudes in [0, 1].
///
/// Unlike [`ReplicaFault`] (which breaks replicas), this shifts the
/// *workload*: drifted traffic is generated from an app mix blended away
/// from the baseline by `mix_shift` (covariate drift), and its ground-truth
/// labels are remapped with `label_flip_chance` per class (label/concept
/// drift). The harness chooses when drifted traffic starts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftFaultConfig {
    /// How far the app mix moves toward its reversed weight order: 0 keeps
    /// the baseline mix, 1 fully reverses the popularity ranking.
    pub mix_shift: f64,
    /// Probability per class that its ground-truth label is remapped to a
    /// different class in drifted traffic.
    pub label_flip_chance: f64,
    /// Seed for the label-remap draw.
    pub seed: u64,
}

impl Default for DriftFaultConfig {
    fn default() -> Self {
        DriftFaultConfig { mix_shift: 0.0, label_flip_chance: 0.0, seed: 1 }
    }
}

impl DriftFaultConfig {
    /// Check `mix_shift` and `label_flip_chance` are finite values in
    /// [0, 1]; same contract as [`FaultConfig::validate`].
    pub fn validate(&self) -> Result<(), FaultError> {
        let fields = [("mix_shift", self.mix_shift), ("label_flip_chance", self.label_flip_chance)];
        let bad: Vec<(&'static str, f64)> = fields
            .iter()
            .filter(|(_, v)| !v.is_finite() || !(0.0..=1.0).contains(v))
            .copied()
            .collect();
        if bad.is_empty() {
            Ok(())
        } else {
            Err(FaultError::OutOfRange { fields: bad })
        }
    }

    fn clamped(&self) -> DriftFaultConfig {
        let clamp = |v: f64| if v.is_finite() { v.clamp(0.0, 1.0) } else { 0.0 };
        DriftFaultConfig {
            mix_shift: clamp(self.mix_shift),
            label_flip_chance: clamp(self.label_flip_chance),
            ..*self
        }
    }

    /// The drifted app mix: each of the first 8 weights is blended
    /// `(1−m)·base + m·reversed` toward the reversed weight order (the DHCP
    /// slot is pinned — boot traffic is not part of the mix). Deterministic,
    /// no RNG; out-of-range shifts are clamped like [`inject`].
    pub fn shifted_mix(&self, base: &crate::netsim::AppMix) -> crate::netsim::AppMix {
        let m = self.clamped().mix_shift;
        let mut weights = base.weights;
        for (i, w) in weights.iter_mut().enumerate().take(8) {
            *w = (1.0 - m) * base.weights[i] + m * base.weights[7 - i];
        }
        crate::netsim::AppMix { weights }
    }

    /// Deterministic label remap for drifted traffic: for each of `n_classes`
    /// classes, with `label_flip_chance` the label is redirected to a
    /// different class (drawn under `seed`); otherwise it maps to itself.
    pub fn label_map(&self, n_classes: usize) -> Vec<usize> {
        let config = self.clamped();
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xD1_u64.rotate_left(8));
        (0..n_classes)
            .map(|c| {
                if n_classes > 1
                    && config.label_flip_chance > 0.0
                    && rng.gen_bool(config.label_flip_chance)
                {
                    // Draw a partner from the other n−1 classes.
                    let off = rng.gen_range(1..n_classes);
                    (c + off) % n_classes
                } else {
                    c
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::{simulate, SimConfig};

    fn base_trace() -> Trace {
        simulate(&SimConfig { n_sessions: 40, boot_dhcp: false, ..SimConfig::default() }).trace
    }

    #[test]
    fn no_faults_is_identity() {
        let trace = base_trace();
        let (out, stats) = inject(&trace, &FaultConfig::default());
        assert_eq!(stats, FaultStats::default());
        assert_eq!(out.len(), trace.len());
        for (a, b) in out.packets().iter().zip(trace.packets()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn drop_rate_roughly_matches() {
        let trace = base_trace();
        let cfg = FaultConfig { drop_chance: 0.25, ..FaultConfig::default() };
        let (out, stats) = inject(&trace, &cfg);
        let rate = stats.dropped as f64 / trace.len() as f64;
        assert!((rate - 0.25).abs() < 0.05, "drop rate {rate}");
        assert_eq!(out.len(), trace.len() - stats.dropped);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let trace = base_trace();
        let cfg = FaultConfig { corrupt_chance: 1.0, ..FaultConfig::default() };
        let (out, stats) = inject(&trace, &cfg);
        assert_eq!(stats.corrupted, trace.len());
        let mut total_flipped_bits = 0u32;
        for (a, b) in out.packets().iter().zip(trace.packets()) {
            let flipped: u32 =
                a.frame.iter().zip(&b.frame).map(|(x, y)| (x ^ y).count_ones()).sum();
            total_flipped_bits += flipped;
            assert_eq!(flipped, 1, "exactly one bit per packet");
        }
        assert_eq!(total_flipped_bits as usize, trace.len());
    }

    #[test]
    fn duplicates_and_reorders_keep_time_sorted() {
        let trace = base_trace();
        let cfg =
            FaultConfig { duplicate_chance: 0.3, reorder_chance: 0.3, ..FaultConfig::default() };
        let (out, stats) = inject(&trace, &cfg);
        assert!(stats.duplicated > 0 && stats.reordered > 0);
        assert_eq!(out.len(), trace.len() + stats.duplicated);
        let mut last = 0;
        for p in out.packets() {
            assert!(p.ts_us >= last);
            last = p.ts_us;
        }
    }

    #[test]
    fn snaplen_truncates() {
        let trace = base_trace();
        let cfg = FaultConfig { snaplen: 96, ..FaultConfig::default() };
        let (out, stats) = inject(&trace, &cfg);
        assert!(stats.truncated > 0);
        assert!(out.packets().iter().all(|p| p.frame.len() <= 96));
    }

    #[test]
    fn deterministic_under_seed() {
        let trace = base_trace();
        let cfg = FaultConfig::noisy(7);
        let (a, sa) = inject(&trace, &cfg);
        let (b, sb) = inject(&trace, &cfg);
        assert_eq!(sa, sb);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.packets().iter().zip(b.packets()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn out_of_range_probability_is_rejected_by_validate_and_clamped_by_inject() {
        let cfg = FaultConfig { drop_chance: 1.5, ..FaultConfig::default() };
        let err = cfg.validate().expect_err("1.5 is not a probability");
        let FaultError::OutOfRange { fields } = &err;
        assert_eq!(fields.as_slice(), &[("drop_chance", 1.5)]);
        let msg = err.to_string();
        assert!(msg.contains("drop_chance"), "message names the field: {msg}");
        // inject clamps to 1.0 instead of panicking: every packet drops.
        let trace = base_trace();
        let (out, stats) = inject(&trace, &cfg);
        assert_eq!(out.len(), 0);
        assert_eq!(stats.dropped, trace.len());
        // NaN clamps to 0 (no-op), also without panicking.
        let nan_cfg = FaultConfig { corrupt_chance: f64::NAN, ..FaultConfig::default() };
        assert!(nan_cfg.validate().is_err());
        let (out, stats) = inject(&trace, &nan_cfg);
        assert_eq!(out.len(), trace.len());
        assert_eq!(stats, FaultStats::default());
        assert!(FaultConfig::noisy(1).validate().is_ok());
    }

    #[test]
    fn empty_trace_is_a_no_op() {
        let empty = Trace::from_packets(Vec::new());
        let (out, stats) = inject(&empty, &FaultConfig::noisy(5));
        assert_eq!(out.len(), 0);
        assert_eq!(stats, FaultStats::default());
    }

    #[test]
    fn drop_chance_one_empties_the_trace() {
        let trace = base_trace();
        let cfg = FaultConfig { drop_chance: 1.0, ..FaultConfig::default() };
        let (out, stats) = inject(&trace, &cfg);
        assert_eq!(out.len(), 0);
        assert_eq!(stats.dropped, trace.len());
    }

    #[test]
    fn snaplen_below_ethernet_header_still_truncates_safely() {
        // 8 bytes is shorter than the 14-byte Ethernet header; frames
        // become unparseable but the injector must not panic.
        let trace = base_trace();
        let cfg = FaultConfig { snaplen: 8, corrupt_chance: 1.0, ..FaultConfig::default() };
        let (out, stats) = inject(&trace, &cfg);
        assert_eq!(stats.truncated, trace.len());
        assert!(out.packets().iter().all(|p| p.frame.len() <= 8));
    }

    #[test]
    fn zero_max_delay_with_certain_reorder_does_not_panic() {
        let trace = base_trace();
        let cfg = FaultConfig { reorder_chance: 1.0, max_delay_us: 0, ..FaultConfig::default() };
        let (out, stats) = inject(&trace, &cfg);
        assert_eq!(stats.reordered, trace.len());
        assert_eq!(out.len(), trace.len());
    }

    #[test]
    fn fault_error_is_a_std_error_listing_every_bad_field() {
        fn assert_err<E: std::error::Error>() {}
        assert_err::<FaultError>();
        let cfg = FaultConfig {
            drop_chance: -0.1,
            burst_chance: f64::INFINITY,
            ..FaultConfig::default()
        };
        let err = cfg.validate().expect_err("two bad fields");
        let FaultError::OutOfRange { fields } = &err;
        assert_eq!(fields.len(), 2);
        let msg = err.to_string();
        assert!(msg.contains("drop_chance") && msg.contains("burst_chance"), "{msg}");
    }

    #[test]
    fn burst_schedule_sums_to_n_and_is_deterministic() {
        let smooth = burst_schedule(50, &FaultConfig::default());
        assert_eq!(smooth, vec![1; 50]);
        let cfg =
            FaultConfig { burst_chance: 0.4, max_burst: 6, seed: 9, ..FaultConfig::default() };
        let a = burst_schedule(200, &cfg);
        let b = burst_schedule(200, &cfg);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.iter().sum::<usize>(), 200);
        assert!(a.iter().any(|&s| s > 1), "bursts actually occur");
        assert!(a.iter().all(|&s| (1..=6).contains(&s)));
        // NaN burst chance clamps to 0 (smooth) instead of panicking.
        let nan = FaultConfig { burst_chance: f64::NAN, ..FaultConfig::default() };
        assert_eq!(burst_schedule(5, &nan), vec![1; 5]);
        assert!(burst_schedule(0, &cfg).is_empty());
    }

    #[test]
    fn tokenizer_survives_noisy_traces() {
        // The §4.1.2 tokenizer must degrade gracefully, never panic, on
        // heavily damaged captures.
        let trace = base_trace();
        let (noisy, _) = inject(&trace, &FaultConfig::noisy(3));
        let mut tokenized = 0usize;
        for tp in noisy.packets() {
            if let Ok(p) = tp.parse() {
                // Any parsed packet must tokenize (tested via flow context
                // elsewhere; here we exercise parse on corrupted frames).
                let _ = p.wire_len();
                tokenized += 1;
            }
        }
        // Many packets survive (corruption often hits payload bytes).
        assert!(tokenized > noisy.len() / 3, "{tokenized}/{}", noisy.len());
    }

    #[test]
    fn drift_config_validates_and_clamps() {
        assert!(DriftFaultConfig::default().validate().is_ok());
        let full =
            DriftFaultConfig { mix_shift: 1.0, label_flip_chance: 1.0, ..Default::default() };
        assert!(full.validate().is_ok());
        let bad = DriftFaultConfig { mix_shift: 1.5, ..Default::default() };
        let err = bad.validate().expect_err("out-of-range accepted");
        let FaultError::OutOfRange { fields } = &err;
        assert_eq!(fields, &[("mix_shift", 1.5)]);
        let nan = DriftFaultConfig { label_flip_chance: f64::NAN, ..Default::default() };
        assert!(nan.validate().is_err());
        // Clamping instead of panicking on degenerate magnitudes.
        let mix = nan.shifted_mix(&crate::netsim::AppMix::default());
        assert_eq!(mix.weights, crate::netsim::AppMix::default().weights);
        assert_eq!(nan.label_map(4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn shifted_mix_interpolates_and_pins_dhcp() {
        let base = crate::netsim::AppMix::default();
        let zero = DriftFaultConfig::default().shifted_mix(&base);
        assert_eq!(zero.weights, base.weights);
        let full = DriftFaultConfig { mix_shift: 1.0, ..Default::default() };
        let rev = full.shifted_mix(&base);
        for i in 0..8 {
            assert!((rev.weights[i] - base.weights[7 - i]).abs() < 1e-12);
        }
        assert_eq!(rev.weights[8], base.weights[8], "dhcp slot must be pinned");
        let half = DriftFaultConfig { mix_shift: 0.5, ..Default::default() };
        let mid = half.shifted_mix(&base);
        for i in 0..8 {
            let want = 0.5 * (base.weights[i] + base.weights[7 - i]);
            assert!((mid.weights[i] - want).abs() < 1e-12);
        }
    }

    #[test]
    fn task_mask_schedule_is_seeded_nonempty_and_bounded() {
        let a = task_mask_schedule(200, 4, 0.5, 11);
        let b = task_mask_schedule(200, 4, 0.5, 11);
        assert_eq!(a, b, "mask schedule must be deterministic under one seed");
        assert_eq!(a.len(), 200);
        assert!(a.iter().all(|&m| m != 0 && m <= 0b1111), "masks stay within the task lanes");
        let c = task_mask_schedule(50, 4, 0.5, 12);
        assert_ne!(a[..50], c[..], "different seeds give different schedules");
        // Full fan-out and clamped degenerate inputs.
        assert!(task_mask_schedule(20, 4, 1.0, 1).iter().all(|&m| m == 0b1111));
        assert!(task_mask_schedule(20, 1, 0.0, 1).iter().all(|&m| m == 1));
        assert!(task_mask_schedule(5, 64, f64::NAN, 1).iter().all(|&m| m == u64::MAX));
    }

    #[test]
    fn label_map_is_seeded_and_within_range() {
        let cfg = DriftFaultConfig { label_flip_chance: 0.7, seed: 9, ..Default::default() };
        let a = cfg.label_map(9);
        let b = cfg.label_map(9);
        assert_eq!(a, b, "label map must be deterministic under one seed");
        assert!(a.iter().all(|&l| l < 9));
        // A full flip always redirects every class somewhere else.
        let all = DriftFaultConfig { label_flip_chance: 1.0, seed: 3, ..Default::default() };
        let m = all.label_map(9);
        assert!(m.iter().enumerate().all(|(c, &l)| l != c && l < 9));
        // A single class can never flip (no distinct partner exists).
        assert_eq!(all.label_map(1), vec![0]);
    }
}
