//! Deterministic transcendental kernels for noise synthesis.
//!
//! The Box–Muller transform in [`crate::noise::WhiteNoise`] needs `ln`,
//! `sin` and `cos`. The platform's determinism contract — identical bits
//! from scalar runs, batched fleet lanes, and any host libm — rules out
//! `f64::ln`/`f64::sin_cos`: libm results differ across platforms, and a
//! vectorized lane kernel could not reproduce them anyway. This module
//! provides branch-light polynomial implementations built **only** from
//! IEEE-exact operations (`+`, `−`, `×`, `/`, `sqrt`, `floor`, comparisons
//! and bit manipulation), each of which produces identical bits whether
//! executed as a scalar instruction or inside a SIMD lane.
//!
//! Two rules keep scalar and vector execution bit-identical:
//!
//! 1. **No `mul_add`.** Rust never contracts `a*b + c` into an FMA, so
//!    writing polynomials with plain multiplies and adds guarantees the
//!    same rounding everywhere. Calling `mul_add` explicitly would change
//!    results between FMA and non-FMA code paths.
//! 2. **No `round`.** `f64::round` (half-away-from-zero) has no direct
//!    SSE/AVX lowering; `floor` maps to `roundpd` and is IEEE-exact, so
//!    quadrant extraction uses `floor(x + 0.5)`.
//!
//! Accuracy is ~1e-14 relative over the domains the noise synthesis uses
//! (`ln` on `[2^-53, 1)`, `sincos_2pi` on `[0, 1)`) — far below the noise
//! floor of any modeled component, and exactly reproducible.

// The polynomial coefficients below are quoted at full double precision
// (fdlibm convention); rounding them to the shortest representation would
// obscure their provenance without changing the stored bits.
#![allow(clippy::excessive_precision)]

/// `ln 2` split into a high part exact in 32 bits and the residual, so
/// `e·LN2_HI` is exact for the |e| ≤ 1074 exponents seen here.
const LN2_HI: f64 = 6.931_471_803_691_238_16e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_70e-10;

/// Natural logarithm for finite positive normal inputs.
///
/// Domain: normal positive `f64` (the uniform variates `[2^-53, 1)` drawn
/// for Box–Muller always qualify; subnormals and zero are the caller's
/// responsibility — [`crate::noise::WhiteNoise`] rejects `u == 0` before
/// calling). Matches `f64::ln` to ~1e-14 relative and, unlike libm, is
/// bit-identical across hosts and in vectorized lane loops.
#[inline(always)]
#[must_use]
pub fn ln(x: f64) -> f64 {
    // Split x = 2^e · m with m ∈ [1, 2), then renormalize to
    // m ∈ [√2/2, √2) so the atanh argument is small and symmetric.
    let bits = x.to_bits();
    let e_raw = ((bits >> 52) & 0x7ff) as i32 - 1023;
    let m_bits = (bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52);
    let m = f64::from_bits(m_bits);
    let big = m >= std::f64::consts::SQRT_2;
    let m = if big { 0.5 * m } else { m };
    let e = f64::from(e_raw + i32::from(big));
    // ln m = 2·atanh(t), t = (m−1)/(m+1), |t| ≤ 0.1716.
    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    // Odd series 2t·(1 + t²/3 + t⁴/5 + …): |t²| ≤ 0.0295, nine terms
    // bound the truncation error below 1e-15 relative.
    let mut p = 1.0 / 19.0;
    p = p * t2 + 1.0 / 17.0;
    p = p * t2 + 1.0 / 15.0;
    p = p * t2 + 1.0 / 13.0;
    p = p * t2 + 1.0 / 11.0;
    p = p * t2 + 1.0 / 9.0;
    p = p * t2 + 1.0 / 7.0;
    p = p * t2 + 1.0 / 5.0;
    p = p * t2 + 1.0 / 3.0;
    let ln_m = 2.0 * t + 2.0 * t * t2 * p;
    (e * LN2_HI + ln_m) + e * LN2_LO
}

/// Minimax-style Taylor coefficients for `sin z`, `|z| ≤ π/4`.
const S1: f64 = -1.666_666_666_666_666_574e-1;
const S2: f64 = 8.333_333_333_332_248_946e-3;
const S3: f64 = -1.984_126_982_985_795_027e-4;
const S4: f64 = 2.755_731_642_039_714_590e-6;
const S5: f64 = -2.505_076_026_746_116_645e-8;
const S6: f64 = 1.589_413_637_195_215_81e-10;

/// Coefficients for `cos z`, `|z| ≤ π/4`.
const C1: f64 = 4.166_666_666_666_601_904e-2;
const C2: f64 = -1.388_888_888_887_302_347e-3;
const C3: f64 = 2.480_158_728_947_673_078e-5;
const C4: f64 = -2.755_731_436_214_549_167e-7;
const C5: f64 = 2.087_570_084_197_473_390e-9;
const C6: f64 = -1.135_338_700_720_054_43e-11;

const FRAC_PI_2: f64 = std::f64::consts::FRAC_PI_2;

/// `(sin 2πu, cos 2πu)` for `u ∈ [0, 1)`.
///
/// Working in turns makes the range reduction exact: the quadrant index is
/// `floor(4u + 0.5)` and the residual angle `(4u − q)·π/2` never exceeds
/// π/4, so no Payne–Hanek machinery is needed. Branch-light: the quadrant
/// rotation is a pair of selects, which the auto-vectorizer turns into
/// blends.
#[inline(always)]
#[must_use]
pub fn sincos_2pi(u: f64) -> (f64, f64) {
    let x = 4.0 * u;
    let q = (x + 0.5).floor(); // quadrant 0..=4 (4 ≡ 0)
    let z = (x - q) * FRAC_PI_2; // |z| ≤ π/4
    let z2 = z * z;
    // sin z = z + z³·P(z²)
    let mut ps = S6;
    ps = ps * z2 + S5;
    ps = ps * z2 + S4;
    ps = ps * z2 + S3;
    ps = ps * z2 + S2;
    ps = ps * z2 + S1;
    let s0 = z + z * z2 * ps;
    // cos z = 1 − z²/2 + z⁴·Q(z²)
    let mut pc = C6;
    pc = pc * z2 + C5;
    pc = pc * z2 + C4;
    pc = pc * z2 + C3;
    pc = pc * z2 + C2;
    pc = pc * z2 + C1;
    let c0 = 1.0 - 0.5 * z2 + z2 * z2 * pc;
    // Rotate by the quadrant: q ∈ {0,4}: (s,c); 1: (c,−s); 2: (−s,−c);
    // 3: (−c,s). Expressed as a swap select plus two sign selects.
    let q1 = q == 1.0;
    let q2 = q == 2.0;
    let q3 = q == 3.0;
    let swap = q1 || q3;
    let sin_mag = if swap { c0 } else { s0 };
    let cos_mag = if swap { s0 } else { c0 };
    let sin = if q2 || q3 { -sin_mag } else { sin_mag };
    let cos = if q1 || q2 { -cos_mag } else { cos_mag };
    (sin, cos)
}

/// One Box–Muller pair from two uniforms: `u1 ∈ (0, 1)`, `u2 ∈ [0, 1)`.
/// Returns `(r·cos θ, r·sin θ)` with `r = √(−2 ln u1)`, `θ = 2π u2`.
#[inline(always)]
#[must_use]
pub fn box_muller(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * ln(u1)).sqrt();
    let (s, c) = sincos_2pi(u2);
    (r * c, r * s)
}

/// Batched [`box_muller`] over equal-length slices: `z_cos[i]` and
/// `z_sin[i]` receive the pair for `(u1[i], u2[i])`. Bit-identical to the
/// scalar function per lane; on x86-64 hosts with AVX2 the loops run
/// through a vectorized copy (same IEEE operations, same bits). There is
/// deliberately no AVX-512 tier: AVX-512 hosts take the AVX2 copy.
///
/// # Panics
///
/// Panics if the slices disagree in length.
pub fn box_muller_slice(u1: &[f64], u2: &[f64], z_cos: &mut [f64], z_sin: &mut [f64]) {
    let n = u1.len();
    assert!(
        u2.len() == n && z_cos.len() == n && z_sin.len() == n,
        "box_muller_slice length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    {
        // AVX2 only: an AVX-512 tier was measured slower on the ln/sqrt/
        // div chains here (512-bit divide/sqrt throughput and license
        // downclocking eat the width win), so it is intentionally absent.
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 check above.
            unsafe { box_muller_slice_avx2(u1, u2, z_cos, z_sin) };
            return;
        }
    }
    box_muller_slice_inner(u1, u2, z_cos, z_sin);
}

/// Chunk width for the multi-pass batch loops: big enough that each pass
/// pipelines several independent Horner chains, small enough to stay in
/// registers and L1.
const CHUNK: usize = 32;

/// The batch body, written as short single-purpose passes over a stack
/// chunk instead of one fused loop. The fused form's ~70-operation body
/// exhausts registers, so LLVM emits it without interleaving and every
/// element serializes on the ln/sincos Horner chains (~110 cycles of
/// latency each). Splitting into passes keeps each loop body small: the
/// vectorizer interleaves, the out-of-order window overlaps neighboring
/// chains, and throughput rather than latency sets the cost.
#[inline(always)]
fn box_muller_slice_inner(u1: &[f64], u2: &[f64], z_cos: &mut [f64], z_sin: &mut [f64]) {
    let mut start = 0;
    while start < u1.len() {
        let n = (u1.len() - start).min(CHUNK);
        let mut c = [0.0f64; CHUNK];
        // Pass 1: r = √(−2 ln u1), landing directly in z_cos.
        for i in 0..n {
            z_cos[start + i] = (-2.0 * ln(u1[start + i])).sqrt();
        }
        // Pass 2: sin 2πu2 straight into z_sin, cos into the stack chunk.
        for i in 0..n {
            let (si, ci) = sincos_2pi(u2[start + i]);
            z_sin[start + i] = si;
            c[i] = ci;
        }
        // Pass 3: polar → Cartesian.
        for i in 0..n {
            let r = z_cos[start + i];
            z_cos[start + i] = r * c[i];
            z_sin[start + i] *= r;
        }
        start += n;
    }
}

/// AVX2 copy of the batch loops. Every operation in [`box_muller`] is
/// IEEE-exact (`+ − × / sqrt floor`, compares, blends, integer bit ops),
/// so the vectorized lanes produce the same bits as the scalar loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn box_muller_slice_avx2(u1: &[f64], u2: &[f64], z_cos: &mut [f64], z_sin: &mut [f64]) {
    box_muller_slice_inner(u1, u2, z_cos, z_sin);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_matches_libm_closely() {
        let mut worst = 0.0f64;
        for k in 1..20_000u64 {
            let x = k as f64 / 20_000.0;
            let rel = (ln(x) - x.ln()).abs() / x.ln().abs().max(1e-300);
            worst = worst.max(rel);
        }
        // Tiny magnitudes too (the Box–Muller tail).
        for e in 1..=53 {
            let x = (2.0f64).powi(-e);
            let rel = (ln(x) - x.ln()).abs() / x.ln().abs();
            worst = worst.max(rel);
        }
        assert!(worst < 1e-13, "ln relative error {worst}");
    }

    #[test]
    fn ln_exact_at_one_and_powers_of_two() {
        assert_eq!(ln(1.0), 0.0);
        for e in [-40, -10, -1, 1, 10, 40] {
            let x = (2.0f64).powi(e);
            let rel = (ln(x) - x.ln()).abs() / x.ln().abs();
            assert!(rel < 1e-14, "2^{e}: {rel}");
        }
    }

    #[test]
    fn sincos_matches_libm_closely() {
        let mut worst = 0.0f64;
        for k in 0..40_000u64 {
            let u = k as f64 / 40_000.0;
            let (s, c) = sincos_2pi(u);
            let th = 2.0 * std::f64::consts::PI * u;
            worst = worst.max((s - th.sin()).abs());
            worst = worst.max((c - th.cos()).abs());
        }
        assert!(worst < 1e-13, "sincos absolute error {worst}");
    }

    #[test]
    fn sincos_quadrant_boundaries() {
        for (u, es, ec) in [
            (0.0, 0.0, 1.0),
            (0.25, 1.0, 0.0),
            (0.5, 0.0, -1.0),
            (0.75, -1.0, 0.0),
        ] {
            let (s, c) = sincos_2pi(u);
            assert!((s - es).abs() < 1e-13, "sin(2π·{u}) = {s}");
            assert!((c - ec).abs() < 1e-13, "cos(2π·{u}) = {c}");
        }
    }

    #[test]
    fn sincos_pythagorean_identity() {
        for k in 0..10_000u64 {
            let u = k as f64 / 10_000.0;
            let (s, c) = sincos_2pi(u);
            assert!((s * s + c * c - 1.0).abs() < 1e-13, "u = {u}");
        }
    }

    #[test]
    fn batch_is_bit_identical_to_scalar() {
        let mut rng = crate::noise::Rng64::new(0xba7c);
        for n in [1usize, 3, 8, 16, 33] {
            let u1: Vec<f64> = (0..n).map(|_| rng.next_f64().max(1e-300)).collect();
            let u2: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
            let mut zc = vec![0.0; n];
            let mut zs = vec![0.0; n];
            box_muller_slice(&u1, &u2, &mut zc, &mut zs);
            for i in 0..n {
                let (c, s) = box_muller(u1[i], u2[i]);
                assert_eq!(c.to_bits(), zc[i].to_bits(), "lane {i} cos");
                assert_eq!(s.to_bits(), zs[i].to_bits(), "lane {i} sin");
            }
        }
    }

    #[test]
    fn box_muller_unit_moments() {
        let mut rng = crate::noise::Rng64::new(7);
        let mut sum = 0.0;
        let mut sq = 0.0;
        let n = 200_000;
        for _ in 0..n {
            let u1 = loop {
                let u = rng.next_f64();
                if u > 0.0 {
                    break u;
                }
            };
            let (zc, zs) = box_muller(u1, rng.next_f64());
            sum += zc + zs;
            sq += zc * zc + zs * zs;
        }
        let mean = sum / (2.0 * n as f64);
        let var = sq / (2.0 * n as f64);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }
}
