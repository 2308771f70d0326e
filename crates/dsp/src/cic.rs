//! CIC (cascaded integrator–comb) decimator.
//!
//! CIC filters decimate high-rate, low-resolution streams (e.g. an
//! oversampled ADC path) with no multipliers — only adders and registers —
//! which is why they are the first stage of the platform's rate channel when
//! the ADC runs far above the signal band.

use crate::fixed::Q15;

/// N-stage CIC decimator with unity DC gain restored at the output.
///
/// Internal state is 64-bit: for N stages and decimation R the raw DC gain
/// is R^N, which must fit the accumulator; `new` checks this.
#[derive(Debug, Clone)]
pub struct CicDecimator {
    stages: u32,
    factor: u32,
    integrators: Vec<i64>,
    combs: Vec<i64>,
    counter: u32,
    /// Right-shift restoring unity gain when R^N is a power of two, plus a
    /// float correction otherwise.
    gain: f64,
}

impl CicDecimator {
    /// Creates an `stages`-stage CIC decimating by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `stages` or `factor` is zero, or if the worst-case growth
    /// `factor^stages · 2¹⁵` would overflow the 64-bit state.
    #[must_use]
    pub fn new(stages: u32, factor: u32) -> Self {
        assert!(stages > 0, "CIC needs at least one stage");
        assert!(factor > 1, "CIC decimation factor must be at least 2");
        let growth_bits = (factor as f64).log2() * stages as f64 + 16.0;
        assert!(
            growth_bits < 62.0,
            "CIC growth {growth_bits} bits would overflow; reduce stages or factor"
        );
        Self {
            stages,
            factor,
            integrators: vec![0; stages as usize],
            combs: vec![0; stages as usize],
            counter: 0,
            gain: 1.0 / (factor as f64).powi(stages as i32),
        }
    }

    /// Number of integrator/comb stages.
    #[must_use]
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Decimation factor.
    #[must_use]
    pub fn factor(&self) -> u32 {
        self.factor
    }

    /// Feeds one input sample; returns `Some(output)` every `factor`
    /// samples.
    pub fn process(&mut self, x: Q15) -> Option<Q15> {
        // Integrator cascade at the input rate.
        let mut v = x.raw() as i64;
        for acc in &mut self.integrators {
            *acc = acc.wrapping_add(v);
            v = *acc;
        }
        self.counter += 1;
        if self.counter < self.factor {
            return None;
        }
        self.counter = 0;
        // Comb cascade at the output rate (differentiators).
        let mut y = v;
        for prev in &mut self.combs {
            let d = y.wrapping_sub(*prev);
            *prev = y;
            y = d;
        }
        let scaled = (y as f64 * self.gain).round();
        Some(Q15::from_raw(
            scaled.clamp(i32::MIN as f64, i32::MAX as f64) as i32,
        ))
    }

    /// Clears all state.
    pub fn reset(&mut self) {
        self.integrators.fill(0);
        self.combs.fill(0);
        self.counter = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_gain_is_unity() {
        let mut cic = CicDecimator::new(3, 16);
        let mut last = Q15::ZERO;
        for _ in 0..16 * 50 {
            if let Some(y) = cic.process(Q15::from_f64(0.25)) {
                last = y;
            }
        }
        assert!((last.to_f64() - 0.25).abs() < 1e-3, "DC {}", last.to_f64());
    }

    #[test]
    fn output_rate_is_decimated() {
        let mut cic = CicDecimator::new(2, 8);
        let outs = (0..80).filter_map(|_| cic.process(Q15::ONE)).count();
        assert_eq!(outs, 10);
    }

    #[test]
    fn attenuates_high_frequency() {
        let mut cic = CicDecimator::new(3, 16);
        // Input at 0.45 of the input rate — far above the output Nyquist.
        let w = 2.0 * std::f64::consts::PI * 0.45;
        let mut outs = Vec::new();
        for k in 0..16 * 400 {
            let x = Q15::from_f64(0.5 * (w * k as f64).sin());
            if let Some(y) = cic.process(x) {
                outs.push(y.to_f64());
            }
        }
        let tail = &outs[outs.len() / 2..];
        let rms = (tail.iter().map(|v| v * v).sum::<f64>() / tail.len() as f64).sqrt();
        assert!(rms < 0.01, "stopband rms {rms}");
    }

    #[test]
    fn passes_low_frequency() {
        let mut cic = CicDecimator::new(3, 16);
        // Input at 1/1000 of the input rate — deep in the passband.
        let w = 2.0 * std::f64::consts::PI * 0.001;
        let mut outs = Vec::new();
        for k in 0..16 * 2000 {
            let x = Q15::from_f64(0.5 * (w * k as f64).sin());
            if let Some(y) = cic.process(x) {
                outs.push(y.to_f64());
            }
        }
        let tail = &outs[outs.len() / 2..];
        let peak = tail.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!((peak - 0.5).abs() < 0.02, "passband peak {peak}");
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut cic = CicDecimator::new(2, 4);
        for _ in 0..10 {
            cic.process(Q15::ONE);
        }
        cic.reset();
        let mut first = None;
        for _ in 0..4 {
            if let Some(y) = cic.process(Q15::ZERO) {
                first = Some(y);
            }
        }
        assert_eq!(first, Some(Q15::ZERO));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn rejects_excessive_growth() {
        let _ = CicDecimator::new(8, 10_000);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_factor_one() {
        let _ = CicDecimator::new(2, 1);
    }
}
