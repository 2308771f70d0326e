//! Voltage references.
//!
//! "The front-end ... provides stable power supply and clock to the digital
//! section" (§4.2). Reference drift feeds straight into ratiometric errors
//! (sensitivity over temperature), so it is modelled with a first-order
//! temperature coefficient plus noise. The clock side needs no model: the
//! platform runs the 8051 at a constant 20 MHz / 12 machine-cycle rate.

use ascp_sim::noise::WhiteNoise;
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};
use ascp_sim::units::{Celsius, Volts};

/// Bandgap voltage reference.
#[derive(Debug, Clone)]
pub struct VoltageReference {
    nominal: Volts,
    /// Relative drift per °C (bandgap: tens of ppm/°C).
    tempco: f64,
    temperature: Celsius,
    noise: WhiteNoise,
    /// Injected supply droop as a fraction of nominal (0.0 = healthy).
    droop: f64,
}

impl VoltageReference {
    /// Creates a reference of `nominal` volts with relative `tempco`
    /// (1/°C) and RMS `noise_rms` volts.
    ///
    /// # Panics
    ///
    /// Panics if `nominal` is not positive or `noise_rms` is negative.
    #[must_use]
    pub fn new(nominal: Volts, tempco: f64, noise_rms: f64, seed: u64) -> Self {
        assert!(nominal.0 > 0.0, "reference voltage must be positive");
        assert!(noise_rms >= 0.0, "noise must be non-negative");
        Self {
            nominal,
            tempco,
            temperature: Celsius(25.0),
            noise: WhiteNoise::new(noise_rms, seed),
            droop: 0.0,
        }
    }

    /// Injects a supply/reference droop as a fraction of nominal
    /// (0.1 = −10%); `0.0` restores a healthy reference.
    ///
    /// # Panics
    ///
    /// Panics unless `frac` is in `[0, 1)`.
    pub fn set_droop(&mut self, frac: f64) {
        assert!((0.0..1.0).contains(&frac), "droop fraction {frac}");
        self.droop = frac;
    }

    /// Currently injected droop fraction.
    #[must_use]
    pub fn droop(&self) -> f64 {
        self.droop
    }

    /// A typical automotive bandgap: 2.5 V, 25 ppm/°C, 20 µV RMS.
    #[must_use]
    pub fn bandgap_2v5(seed: u64) -> Self {
        Self::new(Volts(2.5), 25.0e-6, 20.0e-6, seed)
    }

    /// Nominal output.
    #[must_use]
    pub fn nominal(&self) -> Volts {
        self.nominal
    }

    /// Sets die temperature.
    pub fn set_temperature(&mut self, t: Celsius) {
        self.temperature = t;
    }

    /// Instantaneous output voltage.
    pub fn output(&mut self) -> Volts {
        let drift = 1.0 + self.tempco * (self.temperature.0 - 25.0);
        Volts(self.nominal.0 * drift * (1.0 - self.droop) + self.noise.sample())
    }

    /// Serializes temperature, injected droop, and the noise generator.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_f64(self.temperature.0);
        w.put_f64(self.droop);
        self.noise.save_state(w);
    }

    /// Restores state saved by [`VoltageReference::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] if the droop fraction is outside
    /// `[0, 1)`; propagates other [`SnapshotError`]s on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.temperature = Celsius(r.take_f64()?);
        let droop = r.take_f64()?;
        if !(0.0..1.0).contains(&droop) {
            return Err(SnapshotError::Corrupt {
                context: format!("reference droop fraction {droop} outside [0, 1)"),
            });
        }
        self.droop = droop;
        self.noise.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_drifts_with_temperature() {
        let mut r = VoltageReference::new(Volts(2.5), 100.0e-6, 0.0, 1);
        assert!((r.output().0 - 2.5).abs() < 1e-12);
        r.set_temperature(Celsius(125.0));
        assert!((r.output().0 - 2.5 * 1.01).abs() < 1e-9);
    }

    #[test]
    fn bandgap_is_tight() {
        let mut r = VoltageReference::bandgap_2v5(1);
        r.set_temperature(Celsius(-40.0));
        let cold = r.output().0;
        r.set_temperature(Celsius(125.0));
        let hot = r.output().0;
        // 25 ppm/°C over 165 °C ≈ 0.41 %.
        assert!((hot - cold).abs() / 2.5 < 0.006);
    }

    #[test]
    fn droop_scales_output() {
        let mut r = VoltageReference::new(Volts(2.5), 0.0, 0.0, 1);
        r.set_droop(0.1);
        assert!((r.output().0 - 2.25).abs() < 1e-12);
        assert!((r.droop() - 0.1).abs() < 1e-15);
        r.set_droop(0.0);
        assert!((r.output().0 - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_reference() {
        let _ = VoltageReference::new(Volts(0.0), 0.0, 0.0, 1);
    }
}
