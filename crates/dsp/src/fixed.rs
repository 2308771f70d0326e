//! Two's-complement fixed-point arithmetic.
//!
//! The paper's hardwired DSP section is RTL: every filter, demodulator and
//! loop controller is a fixed-point datapath. [`Fx`] is the bit-accurate
//! stand-in — a 32-bit signed word with a const-generic number of fractional
//! bits, saturating arithmetic (as sensor-conditioning datapaths do: a wrap
//! on an airbag-adjacent signal path is a safety bug), and explicit
//! requantization for word-length-exploration experiments.
//!
//! Common formats get aliases: [`Q15`] (1.15-style in a 32-bit word, the
//! ADC/DAC sample format) and [`Q30`] (high-resolution loop-filter
//! accumulators).
//!
//! # Example
//!
//! ```
//! use ascp_dsp::fixed::Q15;
//! let a = Q15::from_f64(0.5);
//! let b = Q15::from_f64(0.25);
//! assert!((a.mul(b).to_f64() - 0.125).abs() < 1e-4);
//! ```

use std::fmt;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

/// Fixed-point value: a 32-bit two's-complement word with `FRAC` fractional
/// bits. Addition and subtraction saturate at the 32-bit range; see
/// [`Fx::mul`] for the multiplication contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fx<const FRAC: u32>(i32);

/// 32-bit word with 15 fractional bits (ADC/DAC sample format; values in
/// roughly ±65536 with 2⁻¹⁵ resolution).
pub type Q15 = Fx<15>;
/// 32-bit word with 30 fractional bits (loop-filter integrators; ±2 range).
pub type Q30 = Fx<30>;

// `mul`/`shl`/`shr` are the DSP-datapath names (explicit, saturating,
// rounding variants) — deliberately distinct from the wrapping `std::ops`
// operators, which this type does not implement.
#[allow(clippy::should_implement_trait)]
impl<const FRAC: u32> Fx<FRAC> {
    /// The representable maximum.
    pub const MAX: Self = Self(i32::MAX);
    /// The representable minimum.
    pub const MIN: Self = Self(i32::MIN);
    /// Zero.
    pub const ZERO: Self = Self(0);
    /// One, if representable (`FRAC < 31`).
    pub const ONE: Self = Self(1i32 << FRAC);

    /// Constructs from the raw integer word (no scaling).
    #[must_use]
    pub const fn from_raw(raw: i32) -> Self {
        Self(raw)
    }

    /// The raw integer word.
    #[must_use]
    pub const fn raw(self) -> i32 {
        self.0
    }

    /// Converts from `f64`, rounding to nearest and saturating at the word
    /// range. Non-finite inputs saturate toward the matching extreme
    /// (`NaN` maps to zero).
    #[must_use]
    pub fn from_f64(v: f64) -> Self {
        if v.is_nan() {
            return Self::ZERO;
        }
        let scaled = v * (1i64 << FRAC) as f64;
        if scaled >= i32::MAX as f64 {
            Self::MAX
        } else if scaled <= i32::MIN as f64 {
            Self::MIN
        } else {
            Self(scaled.round() as i32)
        }
    }

    /// Converts to `f64` exactly (every 32-bit word is representable).
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / (1i64 << FRAC) as f64
    }

    /// Saturating addition.
    #[must_use]
    pub fn sat_add(self, rhs: Self) -> Self {
        Self(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn sat_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }

    /// Fixed-point multiply: 32×32→64-bit product, rounded shift back by
    /// `FRAC`, saturated to 32 bits — the standard DSP multiplier contract.
    /// `FRAC == 0` (pure integers) has no fractional shift and no rounding
    /// term; the guard avoids the `1 << (0 - 1)` underflow that would wrap
    /// the shift amount.
    #[must_use]
    pub fn mul(self, rhs: Self) -> Self {
        let p = self.0 as i64 * rhs.0 as i64;
        let round = if FRAC == 0 { 0 } else { 1i64 << (FRAC - 1) };
        Self(saturate_i64((p + round) >> FRAC))
    }

    /// Multiplies by a value in a different Q format, producing `Self`'s
    /// format (coefficient × sample with coefficient in higher precision).
    /// As with [`Fx::mul`], `F2 == 0` skips the rounding term.
    #[must_use]
    pub fn mul_q<const F2: u32>(self, rhs: Fx<F2>) -> Self {
        let p = self.0 as i64 * rhs.0 as i64;
        let round = if F2 == 0 { 0 } else { 1i64 << (F2 - 1) };
        Self(saturate_i64((p + round) >> F2))
    }

    /// Arithmetic shift right (divide by 2ⁿ, truncating toward −∞).
    #[must_use]
    pub fn shr(self, n: u32) -> Self {
        Self(self.0 >> n)
    }

    /// Saturating shift left (multiply by 2ⁿ).
    #[must_use]
    pub fn shl(self, n: u32) -> Self {
        let v = (self.0 as i64) << n;
        Self(saturate_i64(v))
    }

    /// Absolute value (saturates `MIN` to `MAX`).
    #[must_use]
    pub fn abs(self) -> Self {
        if self.0 == i32::MIN {
            Self::MAX
        } else {
            Self(self.0.abs())
        }
    }

    /// Negation (saturates `MIN` to `MAX`).
    #[must_use]
    pub fn sat_neg(self) -> Self {
        if self.0 == i32::MIN {
            Self::MAX
        } else {
            Self(-self.0)
        }
    }

    /// Clamps into `[lo, hi]`.
    #[must_use]
    pub fn clamp(self, lo: Self, hi: Self) -> Self {
        Self(self.0.clamp(lo.0, hi.0))
    }

    /// `true` when the word sits at either 32-bit rail — the signature a
    /// saturating operation leaves behind. Plausibility checks use this to
    /// distinguish "large signal" from "clipped datapath".
    #[must_use]
    pub const fn is_rail(self) -> bool {
        self.0 == i32::MAX || self.0 == i32::MIN
    }

    /// Requantizes to an effective word length of `bits` total bits
    /// (1 sign + `bits − 1` magnitude), truncating the dropped LSBs and
    /// saturating into the narrower range. This emulates a narrower RTL
    /// datapath for word-length design-space exploration.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 32.
    #[must_use]
    pub fn quantize_to(self, bits: u32) -> Self {
        assert!((1..=32).contains(&bits), "word length must be 1..=32 bits");
        if bits == 32 {
            return self;
        }
        let drop = 32 - bits;
        // Truncate the LSBs, then saturate into the narrower range expressed
        // back at full scale (so magnitudes stay comparable across widths).
        let max = (1i32 << (bits - 1)) - 1;
        let min = -(1i32 << (bits - 1));
        let t = (self.0 >> drop).clamp(min, max);
        Self(t << drop)
    }

    /// Converts to another Q format, shifting and saturating as required.
    #[must_use]
    pub fn convert<const F2: u32>(self) -> Fx<F2> {
        if F2 >= FRAC {
            let v = (self.0 as i64) << (F2 - FRAC);
            Fx::<F2>(saturate_i64(v))
        } else {
            let shift = FRAC - F2;
            let rounded = ((self.0 as i64) + (1i64 << (shift - 1))) >> shift;
            Fx::<F2>(saturate_i64(rounded))
        }
    }
}

fn saturate_i64(v: i64) -> i32 {
    if v > i32::MAX as i64 {
        i32::MAX
    } else if v < i32::MIN as i64 {
        i32::MIN
    } else {
        v as i32
    }
}

impl<const FRAC: u32> Add for Fx<FRAC> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        self.sat_add(rhs)
    }
}

impl<const FRAC: u32> AddAssign for Fx<FRAC> {
    fn add_assign(&mut self, rhs: Self) {
        *self = self.sat_add(rhs);
    }
}

impl<const FRAC: u32> Sub for Fx<FRAC> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        self.sat_sub(rhs)
    }
}

impl<const FRAC: u32> SubAssign for Fx<FRAC> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = self.sat_sub(rhs);
    }
}

impl<const FRAC: u32> Neg for Fx<FRAC> {
    type Output = Self;
    fn neg(self) -> Self {
        self.sat_neg()
    }
}

impl<const FRAC: u32> fmt::Display for Fx<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

impl<const FRAC: u32> fmt::LowerHex for Fx<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl<const FRAC: u32> fmt::UpperHex for Fx<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl<const FRAC: u32> fmt::Binary for Fx<FRAC> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl<const FRAC: u32> From<Fx<FRAC>> for f64 {
    fn from(v: Fx<FRAC>) -> f64 {
        v.to_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_small_values() {
        for &v in &[0.0, 0.5, -0.5, 0.12345, -0.99997] {
            let q = Q15::from_f64(v);
            assert!((q.to_f64() - v).abs() < 2.0 / 32768.0, "value {v}");
        }
    }

    #[test]
    fn from_f64_saturates() {
        assert_eq!(Q30::from_f64(10.0), Q30::MAX);
        assert_eq!(Q30::from_f64(-10.0), Q30::MIN);
        assert_eq!(Q30::from_f64(f64::INFINITY), Q30::MAX);
        assert_eq!(Q30::from_f64(f64::NEG_INFINITY), Q30::MIN);
        assert_eq!(Q30::from_f64(f64::NAN), Q30::ZERO);
    }

    #[test]
    fn one_constant() {
        assert_eq!(Q15::ONE.to_f64(), 1.0);
        assert_eq!(Q15::ONE.raw(), 1 << 15);
    }

    #[test]
    fn add_saturates() {
        let big = Fx::<0>::from_raw(i32::MAX);
        assert_eq!(big + Fx::<0>::from_raw(1), Fx::<0>::MAX);
        let small = Fx::<0>::from_raw(i32::MIN);
        assert_eq!(small - Fx::<0>::from_raw(1), Fx::<0>::MIN);
    }

    #[test]
    fn mul_basic_and_rounding() {
        let a = Q15::from_f64(0.5);
        let b = Q15::from_f64(-0.5);
        assert!((a.mul(b).to_f64() + 0.25).abs() < 1e-4);
        // Rounding: smallest positive value squared rounds to nearest.
        let eps = Q15::from_raw(1);
        assert_eq!(eps.mul(eps).raw(), 0); // 2^-30 -> rounds to 0 at Q15
    }

    #[test]
    fn integer_format_mul_is_exact() {
        // FRAC = 0: no fractional shift, no rounding bias. This used to
        // compute `1 << (0 - 1)` and corrupt the shift in release builds.
        let a = Fx::<0>::from_raw(1000);
        let b = Fx::<0>::from_raw(-37);
        assert_eq!(a.mul(b).raw(), -37_000);
        let c = Q15::from_f64(0.5);
        assert_eq!(c.mul_q(Fx::<0>::from_raw(3)).raw(), c.raw() * 3);
    }

    #[test]
    fn integer_format_mul_saturates() {
        let big = Fx::<0>::from_raw(1 << 20);
        assert_eq!(big.mul(big), Fx::<0>::MAX);
        assert_eq!(big.mul(Fx::<0>::from_raw(-(1 << 20))), Fx::<0>::MIN);
    }

    #[test]
    fn rail_detection() {
        assert!(Q15::MAX.is_rail());
        assert!(Q15::MIN.is_rail());
        assert!(!Q15::from_f64(0.999).is_rail());
        assert!(!Q15::ZERO.is_rail());
    }

    #[test]
    fn mul_q_cross_format() {
        let sample = Q15::from_f64(0.5);
        let coeff = Q30::from_f64(0.25);
        let y = sample.mul_q(coeff);
        assert!((y.to_f64() - 0.125).abs() < 1e-4);
    }

    #[test]
    fn neg_and_abs_handle_min() {
        assert_eq!(Q15::MIN.sat_neg(), Q15::MAX);
        assert_eq!(Q15::MIN.abs(), Q15::MAX);
        assert_eq!((-Q15::from_f64(0.5)).to_f64(), -0.5);
    }

    #[test]
    fn shifts() {
        let v = Q15::from_f64(0.5);
        assert_eq!(v.shr(1).to_f64(), 0.25);
        assert_eq!(v.shl(1).to_f64(), 1.0);
        assert_eq!(Q15::MAX.shl(4), Q15::MAX);
    }

    #[test]
    fn quantize_reduces_resolution() {
        let v = Q15::from_f64(0.123456789);
        let q12 = v.quantize_to(12);
        // 12-bit word at full scale: step is 2^20 raw counts.
        assert_eq!(q12.raw() % (1 << 20), 0);
        assert!((q12.to_f64() - v.to_f64()).abs() < (1 << 20) as f64 / (1 << 15) as f64);
        assert_eq!(v.quantize_to(32), v);
    }

    #[test]
    #[should_panic(expected = "word length")]
    fn quantize_rejects_zero_bits() {
        let _ = Q15::from_f64(0.1).quantize_to(0);
    }

    #[test]
    fn convert_between_formats() {
        let v = Q15::from_f64(0.75);
        let w: Q30 = v.convert();
        assert!((w.to_f64() - 0.75).abs() < 1e-9);
        let back: Q15 = w.convert();
        assert_eq!(back, v);
        // Down-conversion saturates out-of-range values.
        let big = Q15::from_f64(100.0);
        let s: Q30 = big.convert();
        assert_eq!(s, Q30::MAX);
    }

    #[test]
    fn hex_binary_formatting() {
        let v = Q15::from_raw(0x7fff);
        assert_eq!(format!("{v:x}"), "7fff");
        assert_eq!(format!("{v:X}"), "7FFF");
        assert_eq!(format!("{:b}", Q15::from_raw(5)), "101");
    }

    #[test]
    fn display_shows_float() {
        assert_eq!(Q15::from_f64(0.5).to_string(), "0.5");
    }
}
