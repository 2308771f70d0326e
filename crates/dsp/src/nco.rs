//! Numerically controlled oscillator (NCO / DDS).
//!
//! The PLL's "VCO" in the digital platform is an NCO: a 32-bit phase
//! accumulator whose increment is the control word, addressing a quarter-wave
//! sine lookup table. It provides the in-phase reference for the primary
//! drive and the quadrature references used by the demodulators.

use crate::fixed::Q15;
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};

/// Lookup-table size (quarter wave); full wave resolved to 4×1024 points,
/// matching a 12-bit phase truncation typical of small mixed-signal ASICs.
const QUARTER: usize = 1024;

/// Quarter-wave sine table in Q15, generated once per process.
fn sine_table() -> &'static [i32; QUARTER + 1] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[i32; QUARTER + 1]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0i32; QUARTER + 1];
        for (i, e) in t.iter_mut().enumerate() {
            let phase = std::f64::consts::FRAC_PI_2 * i as f64 / QUARTER as f64;
            *e = (phase.sin() * 32767.0).round() as i32;
        }
        t
    })
}

/// 32-bit phase-accumulator NCO with quarter-wave sine ROM.
///
/// The frequency resolution is `fs / 2^32`; at a 250 kHz DSP clock that is
/// ~58 µHz, far below the gyro resonance tolerance.
///
/// # Example
///
/// ```
/// use ascp_dsp::nco::Nco;
/// let mut nco = Nco::new();
/// nco.set_frequency(15_000.0, 250_000.0);
/// let (sin0, cos0) = nco.tick();
/// assert!(sin0.to_f64().abs() < 0.01); // starts at phase 0
/// assert!((cos0.to_f64() - 1.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Nco {
    phase: u32,
    increment: u32,
}

impl Nco {
    /// Creates an NCO at phase 0 with zero increment.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current phase increment.
    #[must_use]
    pub fn increment(&self) -> u32 {
        self.increment
    }

    /// Sets the output frequency `f` given sample rate `fs`.
    ///
    /// # Panics
    ///
    /// Panics if `fs` is not positive or `f` is negative or ≥ `fs`/2.
    pub fn set_frequency(&mut self, f: f64, fs: f64) {
        assert!(fs > 0.0, "sample rate must be positive");
        assert!(
            f >= 0.0 && f < fs / 2.0,
            "NCO frequency {f} outside [0, fs/2)"
        );
        self.increment = ((f / fs) * 2f64.powi(32)).round() as u32;
    }

    /// Converts an increment word back to hertz.
    #[must_use]
    pub fn increment_to_hz(increment: u32, fs: f64) -> f64 {
        increment as f64 / 2f64.powi(32) * fs
    }

    /// Output frequency in hertz for sample rate `fs`.
    #[must_use]
    pub fn frequency(&self, fs: f64) -> f64 {
        Self::increment_to_hz(self.increment, fs)
    }

    /// Current accumulator phase (full scale = 2π).
    #[must_use]
    pub fn phase(&self) -> u32 {
        self.phase
    }

    /// Resets phase to zero (increment preserved).
    pub fn reset(&mut self) {
        self.phase = 0;
    }

    /// Advances one sample and returns `(sin, cos)` of the *pre-advance*
    /// phase, so the first output after reset is `(0, 1)`.
    pub fn tick(&mut self) -> (Q15, Q15) {
        let out = Self::lookup(self.phase);
        self.phase = self.phase.wrapping_add(self.increment);
        out
    }

    /// Serializes the phase accumulator and increment.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u32(self.phase);
        w.put_u32(self.increment);
    }

    /// Restores the phase accumulator and increment.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.phase = r.take_u32()?;
        self.increment = r.take_u32()?;
        Ok(())
    }

    /// Sine/cosine of an arbitrary 32-bit phase word.
    #[must_use]
    pub fn lookup(phase: u32) -> (Q15, Q15) {
        (
            Q15::from_raw(sin_from_phase(phase)),
            Q15::from_raw(sin_from_phase(phase.wrapping_add(1 << 30))),
        )
    }
}

/// Quarter-wave symmetric sine from a 32-bit phase word, Q15 raw value.
fn sin_from_phase(phase: u32) -> i32 {
    // Top 2 bits select the quadrant; next bits index the quarter table.
    let quadrant = phase >> 30;
    let idx = ((phase >> 20) & 0x3ff) as usize; // 10-bit index into QUARTER
    let t = sine_table();
    match quadrant {
        0 => t[idx],
        1 => t[QUARTER - idx],
        2 => -t[idx],
        _ => -t[QUARTER - idx],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadrant_symmetry() {
        // sin at 90°, 180°, 270°.
        assert_eq!(sin_from_phase(1 << 30), 32767);
        assert_eq!(sin_from_phase(2 << 30), 0);
        assert_eq!(sin_from_phase(3u32 << 30), -32767);
    }

    #[test]
    fn frequency_round_trip() {
        let mut nco = Nco::new();
        nco.set_frequency(15_000.0, 250_000.0);
        assert!((nco.frequency(250_000.0) - 15_000.0).abs() < 0.001);
    }

    #[test]
    fn output_is_sinusoidal() {
        let fs = 250_000.0;
        let f = 15_000.0;
        let mut nco = Nco::new();
        nco.set_frequency(f, fs);
        let mut max_err = 0.0f64;
        for k in 0..5000 {
            let (s, c) = nco.tick();
            let expect = 2.0 * std::f64::consts::PI * f * k as f64 / fs;
            let es = (s.to_f64() - expect.sin()).abs();
            let ec = (c.to_f64() - expect.cos()).abs();
            max_err = max_err.max(es).max(ec);
        }
        // 10-bit table + phase truncation: ~2^-10 worst-case error.
        assert!(max_err < 4.0e-3, "max error {max_err}");
    }

    #[test]
    fn sin_cos_orthogonality() {
        let mut nco = Nco::new();
        nco.set_frequency(12_345.0, 250_000.0);
        let mut dot = 0.0f64;
        let n = 100_000;
        for _ in 0..n {
            let (s, c) = nco.tick();
            dot += s.to_f64() * c.to_f64();
        }
        assert!((dot / n as f64).abs() < 1e-3);
    }

    #[test]
    fn zero_increment_freezes_phase() {
        let mut nco = Nco::new();
        let a = nco.tick();
        let b = nco.tick();
        assert_eq!(a, b);
        assert_eq!(nco.phase(), 0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_nyquist_frequency() {
        let mut nco = Nco::new();
        nco.set_frequency(125_000.0, 250_000.0);
    }

    #[test]
    fn reset_preserves_increment() {
        let mut nco = Nco::new();
        nco.set_frequency(1000.0, 250_000.0);
        nco.tick();
        nco.reset();
        assert_eq!(nco.phase(), 0);
        assert!(nco.increment() > 0);
    }

    #[test]
    fn increment_to_hz_inverse() {
        let fs = 250_000.0;
        for f in [0.0, 100.0, 15_000.0, 100_000.0] {
            let mut nco = Nco::new();
            nco.set_frequency(f, fs);
            assert!((Nco::increment_to_hz(nco.increment(), fs) - f).abs() < 1e-3);
        }
    }
}
