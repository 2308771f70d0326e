//! Fixed-point IIR biquad sections and RBJ designs.
//!
//! IIR biquads implement the narrow tracking filters and DC-blocking stages
//! of the conditioning chain where FIR lengths would be impractical at
//! 250 kHz. Design (float, bilinear-transform RBJ cookbook) is separated
//! from the datapath (Q30 coefficients, direct form I with 64-bit
//! accumulator), matching the MATLAB → RTL flow.

use crate::fixed::{Q15, Q30};
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};

/// Normalized biquad coefficients (a0 = 1):
/// `y[n] = b0 x[n] + b1 x[n−1] + b2 x[n−2] − a1 y[n−1] − a2 y[n−2]`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BiquadCoeffs {
    /// Feed-forward taps.
    pub b: [f64; 3],
    /// Feedback taps (a1, a2).
    pub a: [f64; 2],
}

impl BiquadCoeffs {
    /// RBJ lowpass with cutoff `fc` (fraction of sample rate) and quality
    /// factor `q`.
    ///
    /// # Panics
    ///
    /// Panics if `fc` is outside `(0, 0.5)` or `q` is not positive.
    #[must_use]
    pub fn lowpass(fc: f64, q: f64) -> Self {
        let (w0, alpha, cw) = rbj_params(fc, q);
        let a0 = 1.0 + alpha;
        Self {
            b: [
                (1.0 - cw) / 2.0 / a0,
                (1.0 - cw) / a0,
                (1.0 - cw) / 2.0 / a0,
            ],
            a: [-2.0 * cw / a0, (1.0 - alpha) / a0],
        }
        .validated(w0)
    }

    /// RBJ highpass (used as a DC blocker before demodulation).
    ///
    /// # Panics
    ///
    /// Same conditions as [`BiquadCoeffs::lowpass`].
    #[must_use]
    pub fn highpass(fc: f64, q: f64) -> Self {
        let (w0, alpha, cw) = rbj_params(fc, q);
        let a0 = 1.0 + alpha;
        Self {
            b: [
                (1.0 + cw) / 2.0 / a0,
                -(1.0 + cw) / a0,
                (1.0 + cw) / 2.0 / a0,
            ],
            a: [-2.0 * cw / a0, (1.0 - alpha) / a0],
        }
        .validated(w0)
    }

    /// RBJ bandpass (constant 0 dB peak gain) centred at `fc`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`BiquadCoeffs::lowpass`].
    #[must_use]
    pub fn bandpass(fc: f64, q: f64) -> Self {
        let (w0, alpha, cw) = rbj_params(fc, q);
        let a0 = 1.0 + alpha;
        Self {
            b: [alpha / a0, 0.0, -alpha / a0],
            a: [-2.0 * cw / a0, (1.0 - alpha) / a0],
        }
        .validated(w0)
    }

    fn validated(self, _w0: f64) -> Self {
        for c in self.b.iter().chain(self.a.iter()) {
            assert!(
                c.abs() < 2.0,
                "biquad coefficient {c} outside Q30 range; lower Q or raise fc"
            );
        }
        self
    }

    /// `true` if both poles are inside the unit circle (stability).
    #[must_use]
    pub fn is_stable(&self) -> bool {
        // Jury criterion for a 2nd-order monic denominator.
        let (a1, a2) = (self.a[0], self.a[1]);
        a2 < 1.0 && (a1 + a2) > -1.0 && (a2 - a1) > -1.0
    }

    /// Magnitude response at frequency `f` (fraction of sample rate).
    #[must_use]
    pub fn gain_at(&self, f: f64) -> f64 {
        let w = 2.0 * std::f64::consts::PI * f;
        let num = complex_poly(&[self.b[0], self.b[1], self.b[2]], w);
        let den = complex_poly(&[1.0, self.a[0], self.a[1]], w);
        (num.0.hypot(num.1)) / (den.0.hypot(den.1))
    }
}

fn rbj_params(fc: f64, q: f64) -> (f64, f64, f64) {
    assert!(
        fc > 0.0 && fc < 0.5,
        "cutoff must be in (0, 0.5) of the sample rate, got {fc}"
    );
    assert!(q > 0.0, "quality factor must be positive, got {q}");
    let w0 = 2.0 * std::f64::consts::PI * fc;
    (w0, w0.sin() / (2.0 * q), w0.cos())
}

fn complex_poly(c: &[f64; 3], w: f64) -> (f64, f64) {
    // c0 + c1 e^{-jw} + c2 e^{-2jw}
    let re = c[0] + c[1] * w.cos() + c[2] * (2.0 * w).cos();
    let im = -c[1] * w.sin() - c[2] * (2.0 * w).sin();
    (re, im)
}

/// Fixed-point direct-form-I biquad.
///
/// Output history is kept at Q30 resolution (a 15-bit guard below the Q15
/// sample grid): narrow-band sections have `1 + a1 + a2` of order 1e-3, so
/// rounding the feedback state at Q15 would leave a signal-dependent
/// staircase of hundreds of LSBs — the classic DF1 limit-cycle problem that
/// real RTL solves exactly this way (wider state registers).
#[derive(Debug, Clone)]
pub struct Biquad {
    b: [Q30; 3],
    a: [Q30; 2],
    x: [Q15; 2],
    /// Output history in Q30 raw units.
    y: [i64; 2],
    /// Outputs clamped at the Q15 rails (monotonic clip counter).
    saturations: u64,
}

impl Biquad {
    /// Quantizes float coefficients into the Q30 datapath.
    #[must_use]
    pub fn new(coeffs: BiquadCoeffs) -> Self {
        Self {
            b: coeffs.b.map(Q30::from_f64),
            a: coeffs.a.map(Q30::from_f64),
            x: [Q15::ZERO; 2],
            y: [0; 2],
            saturations: 0,
        }
    }

    /// Clears the delay elements (the clip counter is monotonic and
    /// survives resets).
    pub fn reset(&mut self) {
        self.x = [Q15::ZERO; 2];
        self.y = [0; 2];
    }

    /// Outputs that hit the saturation clamp since construction.
    #[must_use]
    pub fn saturations(&self) -> u64 {
        self.saturations
    }

    /// Processes one sample.
    pub fn process(&mut self, x: Q15) -> Q15 {
        // Feed-forward products are Q15·Q30 = Q45; feedback products are
        // Q30·Q30 = Q60, shifted to Q45 before summing.
        let ff: i64 = x.raw() as i64 * self.b[0].raw() as i64
            + self.x[0].raw() as i64 * self.b[1].raw() as i64
            + self.x[1].raw() as i64 * self.b[2].raw() as i64;
        let fb: i64 = ((self.y[0].saturating_mul(self.a[0].raw() as i64)) >> 15)
            + ((self.y[1].saturating_mul(self.a[1].raw() as i64)) >> 15);
        let acc = ff - fb;
        // New state at Q30 (acc is Q45).
        let y30 = (acc + (1i64 << 14)) >> 15;
        self.x[1] = self.x[0];
        self.x[0] = x;
        self.y[1] = self.y[0];
        self.y[0] = y30;
        // Output at Q15, rounded, saturated.
        let y15 = (y30 + (1i64 << 14)) >> 15;
        if !(i64::from(i32::MIN)..=i64::from(i32::MAX)).contains(&y15) {
            self.saturations += 1;
        }
        Q15::from_raw(y15.clamp(i32::MIN as i64, i32::MAX as i64) as i32)
    }

    /// Serializes the delay elements and clip counter (coefficients are
    /// configuration and are not saved).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_i32(self.x[0].raw());
        w.put_i32(self.x[1].raw());
        w.put_i64(self.y[0]);
        w.put_i64(self.y[1]);
        w.put_u64(self.saturations);
    }

    /// Restores state saved by [`Biquad::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.x[0] = Q15::from_raw(r.take_i32()?);
        self.x[1] = Q15::from_raw(r.take_i32()?);
        self.y[0] = r.take_i64()?;
        self.y[1] = r.take_i64()?;
        self.saturations = r.take_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_sine(bq: &mut Biquad, f: f64, amp: f64, n: usize) -> f64 {
        let w = 2.0 * std::f64::consts::PI * f;
        let mut sum_sq = 0.0;
        let mut count = 0;
        for k in 0..n {
            let y = bq
                .process(Q15::from_f64(amp * (w * k as f64).sin()))
                .to_f64();
            if k > n / 2 {
                sum_sq += y * y;
                count += 1;
            }
        }
        (sum_sq / count as f64).sqrt() / (amp / std::f64::consts::SQRT_2)
    }

    #[test]
    fn lowpass_gain_shape() {
        let c = BiquadCoeffs::lowpass(0.05, std::f64::consts::FRAC_1_SQRT_2);
        assert!((c.gain_at(0.001) - 1.0).abs() < 0.01);
        assert!((c.gain_at(0.05) - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.02);
        assert!(c.gain_at(0.25) < 0.05);
    }

    #[test]
    fn highpass_blocks_dc() {
        let mut bq = Biquad::new(BiquadCoeffs::highpass(0.01, 0.707));
        let mut y = Q15::ZERO;
        for _ in 0..5000 {
            y = bq.process(Q15::from_f64(0.5));
        }
        // DF1 output quantization leaves a small limit cycle for very
        // narrow filters; 1 % of the input step is the acceptance used for
        // the platform's DC blocker.
        assert!(y.to_f64().abs() < 1e-2, "DC leaked: {}", y.to_f64());
    }

    #[test]
    fn bandpass_peaks_at_center() {
        let c = BiquadCoeffs::bandpass(0.1, 5.0);
        assert!((c.gain_at(0.1) - 1.0).abs() < 0.01);
        assert!(c.gain_at(0.02) < 0.25);
        assert!(c.gain_at(0.3) < 0.25);
    }

    #[test]
    fn designs_are_stable() {
        for &(fc, q) in &[(0.01, 0.5), (0.1, 0.707), (0.2, 3.0), (0.45, 1.0)] {
            assert!(BiquadCoeffs::lowpass(fc, q).is_stable(), "lp {fc} {q}");
            assert!(BiquadCoeffs::highpass(fc, q).is_stable(), "hp {fc} {q}");
            assert!(BiquadCoeffs::bandpass(fc, q).is_stable(), "bp {fc} {q}");
        }
    }

    #[test]
    fn unstable_coeffs_detected() {
        let c = BiquadCoeffs {
            b: [1.0, 0.0, 0.0],
            a: [0.0, 1.5],
        };
        assert!(!c.is_stable());
    }

    #[test]
    fn fixed_point_matches_float_gain() {
        let coeffs = BiquadCoeffs::lowpass(0.05, 0.707);
        let mut bq = Biquad::new(coeffs);
        let measured = run_sine(&mut bq, 0.01, 0.4, 8000);
        let designed = coeffs.gain_at(0.01);
        assert!(
            (measured - designed).abs() < 0.02,
            "measured {measured} vs designed {designed}"
        );
    }

    #[test]
    #[should_panic(expected = "quality factor")]
    fn rejects_non_positive_q() {
        let _ = BiquadCoeffs::lowpass(0.1, 0.0);
    }
}
