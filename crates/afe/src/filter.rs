//! Continuous-time anti-alias filter model.
//!
//! The AFE's "basic filters" (§4.2) in front of the SAR ADCs. A 2nd-order
//! Butterworth stage integrated with the trapezoidal (bilinear) rule at the
//! analog solver rate: accurate well past the audio-range corners used
//! here, stable at any step size.

use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};
use ascp_sim::units::Volts;

/// Second-order continuous lowpass `H(s) = ω₀² / (s² + (ω₀/Q)s + ω₀²)`.
#[derive(Debug, Clone)]
pub struct AntiAliasFilter {
    f0: f64,
    q: f64,
    /// `ω²` and `ω/Q` for the corner they were last computed at.
    coeffs: Coeffs,
    /// State variables (position, velocity of the filter ODE).
    x: f64,
    v: f64,
}

impl AntiAliasFilter {
    /// Creates a filter with corner `f0_hz` and quality `q` (0.707 =
    /// Butterworth).
    ///
    /// # Panics
    ///
    /// Panics if `f0_hz` or `q` is not positive.
    #[must_use]
    pub fn new(f0_hz: f64, q: f64) -> Self {
        assert!(f0_hz > 0.0, "corner frequency must be positive");
        assert!(q > 0.0, "quality factor must be positive");
        Self {
            f0: f0_hz,
            q,
            coeffs: Coeffs::UNSET,
            x: 0.0,
            v: 0.0,
        }
    }

    /// Butterworth (Q = 1/√2) at `f0_hz`.
    #[must_use]
    pub fn butterworth(f0_hz: f64) -> Self {
        Self::new(f0_hz, std::f64::consts::FRAC_1_SQRT_2)
    }

    /// Corner frequency (Hz).
    #[must_use]
    pub fn corner(&self) -> f64 {
        self.f0
    }

    /// Retunes the corner (a JTAG-programmable parameter).
    ///
    /// # Panics
    ///
    /// Panics if `f0_hz` is not positive.
    pub fn set_corner(&mut self, f0_hz: f64) {
        assert!(f0_hz > 0.0, "corner frequency must be positive");
        self.f0 = f0_hz;
    }

    /// Advances by `dt` with input `u`; returns the filtered output.
    ///
    /// Semi-implicit (symplectic Euler) update — unconditionally stable for
    /// the ω·dt < 1 regime the AFE operates in, with RK4-class accuracy for
    /// these slow corners.
    #[inline]
    pub fn process(&mut self, u: Volts, dt: f64) -> Volts {
        if self.coeffs.f0.to_bits() != self.f0.to_bits() {
            self.coeffs = Coeffs::new(self.f0, self.q);
        }
        let Coeffs { w2, w_q, .. } = self.coeffs;
        // ẍ = ω²(u − x) − (ω/Q) ẋ
        let a = w2 * (u.0 - self.x) - w_q * self.v;
        self.v += a * dt;
        self.x += self.v * dt;
        Volts(self.x)
    }

    /// Clears state.
    pub fn reset(&mut self) {
        self.x = 0.0;
        self.v = 0.0;
    }

    /// Serializes the programmable corner and the ODE state.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_f64(self.f0);
        w.put_f64(self.x);
        w.put_f64(self.v);
    }

    /// Restores state saved by [`AntiAliasFilter::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] if the saved corner is not
    /// physical; propagates other [`SnapshotError`]s on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let f0 = r.take_f64()?;
        if !(f0.is_finite() && f0 > 0.0) {
            return Err(SnapshotError::Corrupt {
                context: format!("anti-alias corner {f0} not physical"),
            });
        }
        self.f0 = f0;
        self.x = r.take_f64()?;
        self.v = r.take_f64()?;
        Ok(())
    }
}

/// `ω²` and `ω/Q` of a filter and the corner they are a pure function of
/// (`Q` is fixed at construction).
#[derive(Debug, Clone, Copy)]
struct Coeffs {
    f0: f64,
    w2: f64,
    w_q: f64,
}

impl Coeffs {
    /// Matches no corner: its NaN key has the bits of no physical one.
    const UNSET: Self = Self {
        f0: f64::NAN,
        w2: f64::NAN,
        w_q: f64::NAN,
    };

    fn new(f0: f64, q: f64) -> Self {
        let w = 2.0 * std::f64::consts::PI * f0;
        Self {
            f0,
            w2: w * w,
            w_q: w / q,
        }
    }
}

/// Lane-parallel anti-alias filter kernel: SoA semi-implicit Euler.
///
/// Same update expressions as [`AntiAliasFilter::process`]; `ω = 2πf₀` is
/// hoisted per lane, as the scalar path caches `ω²` and `ω/Q` (pure, same
/// bits).
#[derive(Debug, Clone)]
pub struct AafLanes {
    w: Vec<f64>,
    q: Vec<f64>,
    x: Vec<f64>,
    v: Vec<f64>,
}

impl AafLanes {
    /// Captures N filters for lockstep processing.
    pub fn extract<'a>(filters: impl Iterator<Item = &'a AntiAliasFilter>) -> Self {
        let mut lanes = Self {
            w: Vec::new(),
            q: Vec::new(),
            x: Vec::new(),
            v: Vec::new(),
        };
        for f in filters {
            lanes.w.push(2.0 * std::f64::consts::PI * f.f0);
            lanes.q.push(f.q);
            lanes.x.push(f.x);
            lanes.v.push(f.v);
        }
        lanes
    }

    /// Writes the ODE state back.
    pub fn restore<'a>(&self, filters: impl Iterator<Item = &'a mut AntiAliasFilter>) {
        for (l, f) in filters.enumerate() {
            f.x = self.x[l];
            f.v = self.v[l];
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.w.len()
    }

    /// Advances every lane by `dt` with input `u[l]`; output lands in
    /// `out[l]`.
    #[inline]
    pub fn process(&mut self, u: &[f64], dt: f64, out: &mut [f64]) {
        let n = self.w.len();
        for (l, o) in out.iter_mut().enumerate().take(n) {
            let w = self.w[l];
            let a = w * w * (u[l] - self.x[l]) - (w / self.q[l]) * self.v[l];
            self.v[l] += a * dt;
            self.x[l] += self.v[l] * dt;
            *o = self.x[l];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: f64 = 1.0e-6;

    fn gain_at(filter: &mut AntiAliasFilter, f: f64) -> f64 {
        let w = 2.0 * std::f64::consts::PI * f;
        let mut peak = 0.0f64;
        let n = ((20.0 / f) / DT) as usize + 200_000;
        for k in 0..n {
            let y = filter.process(Volts((w * k as f64 * DT).sin()), DT);
            if k > n * 3 / 4 {
                peak = peak.max(y.0.abs());
            }
        }
        peak
    }

    #[test]
    fn passes_dc() {
        let mut f = AntiAliasFilter::butterworth(30_000.0);
        let mut y = Volts(0.0);
        for _ in 0..100_000 {
            y = f.process(Volts(1.0), DT);
        }
        assert!((y.0 - 1.0).abs() < 1e-6, "DC gain {}", y.0);
    }

    #[test]
    fn corner_attenuation_3db() {
        let mut f = AntiAliasFilter::butterworth(30_000.0);
        let g = gain_at(&mut f, 30_000.0);
        assert!(
            (g - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.05,
            "corner gain {g}"
        );
    }

    #[test]
    fn stopband_rolloff_40db_per_decade() {
        let mut f = AntiAliasFilter::butterworth(10_000.0);
        let g = gain_at(&mut f, 100_000.0);
        assert!(g < 0.015, "one decade out gain {g}"); // −40 dB = 0.01
    }

    #[test]
    fn passband_is_flat() {
        let mut f = AntiAliasFilter::butterworth(30_000.0);
        let g = gain_at(&mut f, 3_000.0);
        assert!((g - 1.0).abs() < 0.02, "passband gain {g}");
    }

    #[test]
    fn retune_moves_corner() {
        let mut f = AntiAliasFilter::butterworth(30_000.0);
        f.set_corner(5_000.0);
        assert_eq!(f.corner(), 5_000.0);
        let g = gain_at(&mut f, 30_000.0);
        assert!(g < 0.05, "retuned corner not effective: {g}");
    }

    #[test]
    fn reset_clears_state() {
        let mut f = AntiAliasFilter::butterworth(1_000.0);
        for _ in 0..1000 {
            f.process(Volts(1.0), DT);
        }
        f.reset();
        let y = f.process(Volts(0.0), DT);
        assert_eq!(y.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_corner() {
        let _ = AntiAliasFilter::butterworth(0.0);
    }

    #[test]
    fn aaf_lanes_match_scalar_bit_for_bit() {
        let mut scalars: Vec<AntiAliasFilter> = (0..6)
            .map(|i| AntiAliasFilter::butterworth(60_000.0 * (1.0 + 0.02 * i as f64)))
            .collect();
        let mut lanes = AafLanes::extract(scalars.iter());
        let mut reference = scalars.clone();
        let mut u = vec![0.0; 6];
        let mut out = vec![0.0; 6];
        for k in 0..2000u64 {
            for (l, x) in u.iter_mut().enumerate() {
                *x = 0.5 * (0.3 * (k as f64 + 2.0 * l as f64)).sin();
            }
            lanes.process(&u, DT, &mut out);
            for (l, f) in reference.iter_mut().enumerate() {
                assert_eq!(
                    f.process(Volts(u[l]), DT).0.to_bits(),
                    out[l].to_bits(),
                    "lane {l} tick {k}"
                );
            }
        }
        lanes.restore(scalars.iter_mut());
        for (a, b) in scalars.iter_mut().zip(reference.iter_mut()) {
            assert_eq!(a.process(Volts(0.1), DT), b.process(Volts(0.1), DT));
        }
    }
}
