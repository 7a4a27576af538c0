//! Branch-free transcendental kernels that are bit-exact replicas of the
//! system libm routines they replace.
//!
//! `f32::tanh` dominates GELU cost on the serving hot path, and most of that
//! cost is not arithmetic: glibc's fdlibm-derived `tanhf` takes data-dependent
//! branches (`|x| < 1` vs `|x| >= 1` in `tanhf` itself, then a four-way split
//! on the reduction index `k` inside `expm1f`). On real activations those
//! branches are close to unpredictable, so a scalar call pays a pipeline flush
//! every few elements — and an opaque PLT call clobbers the caller's vector
//! registers on top.
//!
//! [`tanhf`] below replicates the exact fdlibm arithmetic (glibc 2.36,
//! `sysdeps/ieee754/flt-32/{s_tanhf.c,s_expm1f.c}`) but computes every
//! reconstruction variant unconditionally and selects among them. Each select
//! picks the value the original branch would have produced, so the result is
//! bit-identical for every one of the 2^32 possible inputs (verified
//! exhaustively against the host libm; `tests::parity_sampled` re-checks a
//! 7M-point sample on every test run, and the `#[ignore]`d
//! `tests::parity_exhaustive` sweeps all 2^32 bit patterns). Because the body
//! is branch-free, LLVM vectorizes an elementwise loop over it four lanes at
//! a time on the baseline x86-64 target (packed divides, compares and
//! selects), which is where the remaining speedup comes from: roughly 1.8x
//! over libm on mixed-sign activation-like inputs at one thread. Two steps
//! inside that loop still run lane by lane: the saturating `kf as i32` cast
//! (one `cvttss2si` per lane with NaN and overflow fix-ups) and the shift by
//! `k` that builds `1 - 2^-k` (SSE2 has no per-lane variable shift).
//!
//! Numerical-contract note: swapping this in for `f32::tanh` is NOT an
//! approximation. Training, inference, checkpoints, and the batched-serving
//! bitwise-identity guarantee all see exactly the same bits as before.

/// Branch-free select; both arms are always evaluated, so the compiler can
/// lower it to cmov/blend instead of a branch.
#[inline(always)]
fn sel(c: bool, a: f32, b: f32) -> f32 {
    if c {
        a
    } else {
        b
    }
}

/// Bit-exact, branch-free `tanhf`. Returns exactly the same bits as glibc
/// 2.36's `tanhf` (and therefore `f32::tanh` on this target) for every input,
/// including NaN quieting, infinities, subnormals, and signed zero.
///
/// `inline(always)`: the body is branch-free straight-line code, and the win
/// depends on it fusing into elementwise loops (GELU) so LLVM can vectorize;
/// the default inline cost model refuses at this size.
#[inline(always)]
pub fn tanhf(x: f32) -> f32 {
    const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
    const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
    const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
    const Q1: f32 = f32::from_bits(0xbd08_8889);
    const Q2: f32 = f32::from_bits(0x3ad0_0d01);
    const Q3: f32 = f32::from_bits(0xb8a6_70cd);
    const Q4: f32 = f32::from_bits(0x3686_7e54);
    const Q5: f32 = f32::from_bits(0xb457_edbb);

    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let ax = f32::from_bits(ix);

    // tanhf evaluates expm1f(-2|x|) when |x| < 1 and expm1f(2|x|) otherwise.
    let big = ix >= 0x3f80_0000;
    let arg = sel(big, 2.0 * ax, -2.0 * ax);

    // Inlined expm1f(arg). From tanhf the argument is confined to
    // (-2, 0] u [2, 44), so expm1f's overflow / -1-saturation guards can never
    // fire and are omitted; the exhaustive sweep is what proves this safe.
    let hx = arg.to_bits() & 0x7fff_ffff;
    let neg = arg < 0.0;

    // Argument reduction arg = k*ln2 + xr + c. fdlibm forces k = +-1 on
    // 0.5 ln2 < |arg| < 1.5 ln2 (the rounded multiply below can land on the
    // other side of the threshold, so the compare must be kept); the hi/lo
    // formulas coincide bit-exactly because t*LN2_HI and t*LN2_LO are exact
    // products for t = +-1, and for t = 0 they reduce to hi = arg, lo = 0.
    let kf = INVLN2 * arg + sel(neg, -0.5, 0.5);
    let k_general = kf as i32;
    let k_pm1 = if neg { -1 } else { 1 };
    let mut k = if hx < 0x3f85_1592 { k_pm1 } else { k_general };
    if hx <= 0x3eb1_7218 {
        k = 0;
    }
    let t = k as f32;
    let hi = arg - t * LN2_HI;
    let lo = t * LN2_LO;
    let xr = hi - lo;
    let c = (hi - xr) - lo;

    // Primary-range rational approximation, shared by every k variant.
    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t3 = 3.0 - r1 * hfx;
    let e0 = hxs * ((r1 - t3) / (6.0 - xr * t3));

    // Reconstruction: fdlibm's k = 0 / k = -1 / (k <= -2 or k > 56) /
    // 2 <= k < 23 / 23 <= k <= 56 arms, all computed, one selected. The k = 1
    // arm is unreachable from tanhf (arg is never in (0.5 ln2, 1.5 ln2)).
    let e1 = xr * (e0 - c) - c - hxs;
    let add_exp =
        |y: f32, k: i32| f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32);
    let v_k0 = xr - (xr * e0 - hxs);
    let v_km1 = 0.5 * (xr - e1) - 0.5;
    let v_kc = add_exp(1.0 - (e1 - xr), k) - 1.0;
    let tk_d = f32::from_bits(0x3f80_0000u32.wrapping_sub(0x0100_0000u32.wrapping_shr(k as u32)));
    let v_kd = add_exp(tk_d - (e1 - xr), k);
    let tk_e = f32::from_bits((0x7f_i32.wrapping_sub(k) as u32) << 23);
    let v_ke = add_exp((xr - (e1 + tk_e)) + 1.0, k);
    let mut t = sel(k >= 23, v_ke, v_kd);
    t = sel(k <= -2 || k > 56, v_kc, t);
    t = sel(k == -1, v_km1, t);
    t = sel(k == 0, v_k0, t);
    // End of expm1f.

    let d = t + 2.0;
    let z = sel(big, 1.0 - 2.0 / d, -t / d);
    // |x| >= 22 and +-inf: fdlibm returns 1 - 1e-30, which rounds to exactly 1.
    let z = sel(ix >= 0x41b0_0000, 1.0, z);
    let signed = f32::from_bits(z.to_bits() ^ (jx & 0x8000_0000));
    // |x| < 2^-55: x*(1+x) (already carries the sign). NaN: quieted input.
    let signed = sel(ix < 0x2400_0000, x * (1.0 + x), signed);
    sel(ix > 0x7f80_0000, x + x, signed)
}

#[cfg(test)]
mod tests {
    use super::tanhf;

    fn check(bits: u32) -> Result<(), String> {
        let x = f32::from_bits(bits);
        let want = x.tanh();
        let got = tanhf(x);
        if want.to_bits() != got.to_bits() && !(want.is_nan() && got.is_nan()) {
            return Err(format!(
                "tanhf({x:e}) [bits {bits:#010x}]: libm {:#010x}, fastmath {:#010x}",
                want.to_bits(),
                got.to_bits()
            ));
        }
        Ok(())
    }

    #[test]
    fn parity_edge_cases() {
        for bits in [
            0x0000_0000u32, // +0
            0x8000_0000,    // -0
            0x0000_0001,    // smallest subnormal
            0x8000_0001,
            0x007f_ffff, // largest subnormal
            0x2400_0000, // 2^-55 tiny-path threshold
            0x23ff_ffff,
            0x3eb1_7218, // 0.5 ln2 reduction threshold (on 2|x|)
            0x3f80_0000, // 1.0: expm1f-path switch
            0x3f7f_ffff,
            0x3f85_1592, // 1.5 ln2 k=+-1 threshold
            0x41b0_0000, // 22.0 saturation threshold
            0x41af_ffff,
            0x7f7f_ffff, // f32::MAX
            0xff7f_ffff,
            0x7f80_0000, // +inf
            0xff80_0000, // -inf
            0x7fc0_0000, // NaN
        ] {
            check(bits).unwrap();
        }
    }

    #[test]
    fn parity_sampled() {
        // 4M LCG-spread bit patterns across the whole f32 space plus a dense
        // ladder over the activation range; the full 2^32 sweep lives in
        // `parity_exhaustive` below.
        let mut state = 0x9e37_79b9_u32;
        for _ in 0..4_000_000 {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            check(state).unwrap();
        }
        let mut x = -30.0f32;
        while x < 30.0 {
            check(x.to_bits()).unwrap();
            x += 1.9073486e-5;
        }
    }

    /// Full 2^32 sweep, split into fixed ranges over one scoped thread per
    /// available core (the result is a count, so the order does not
    /// matter); run with
    /// `cargo test --release -q -p nfm-tensor --lib parity_exhaustive -- --ignored`.
    #[test]
    #[ignore]
    fn parity_exhaustive() {
        const ALL: u64 = 1 << 32;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let span = ALL.div_ceil(threads);
        let bad: usize = std::thread::scope(|s| {
            let sweeps: Vec<_> = (0..threads)
                .map(|t| {
                    let range = t * span..((t + 1) * span).min(ALL);
                    s.spawn(move || range.filter(|&bits| check(bits as u32).is_err()).count())
                })
                .collect();
            sweeps.into_iter().map(|h| h.join().expect("sweep thread panicked")).sum()
        });
        assert_eq!(bad, 0, "{bad} mismatching bit patterns");
    }
}
