//! Generic sensor models for platform-genericity demonstrations.
//!
//! The paper's platform is *generic*: the same AFE/DSP/CPU architecture,
//! customized from an IP portfolio, conditions "capacitive, resistive,
//! inductive, etc." automotive sensors (§1, §3). These behavioural models
//! let the examples show the platform conditioning something other than the
//! gyro: a capacitive pressure bridge and an inductive position
//! half-bridge.
//!
//! Both implement [`SensorFrontEnd`]: given a physical stimulus and an
//! excitation voltage, produce a differential output voltage with noise
//! and temperature effects.

use crate::frontend::{Conditioning, Excitation, PlausibilityBands, SensorFrontEnd};
use ascp_sim::noise::WhiteNoise;
use ascp_sim::snapshot::{fnv1a64, StateWriter};
use ascp_sim::units::{Celsius, Volts};

/// Capacitive pressure sensor in a half-bridge with a fixed reference
/// capacitor: output ratio `(C_s − C_r) / (C_s + C_r)` times excitation.
///
/// `C_s = C0 (1 + k·p/p_fs)` with a small temperature coefficient.
#[derive(Debug, Clone)]
pub struct CapacitivePressureSensor {
    pressure_kpa: f64,
    full_scale_kpa: f64,
    sensitivity: f64,
    temp_coeff: f64,
    temperature: Celsius,
    noise: WhiteNoise,
}

impl CapacitivePressureSensor {
    /// Creates a sensor with full scale `full_scale_kpa` (e.g. 400 kPa for
    /// manifold pressure) and capacitance ratio sensitivity `sensitivity`
    /// at full scale (typ. 0.2).
    ///
    /// # Panics
    ///
    /// Panics if `full_scale_kpa` or `sensitivity` is not positive.
    #[must_use]
    pub fn new(full_scale_kpa: f64, sensitivity: f64, seed: u64) -> Self {
        assert!(full_scale_kpa > 0.0, "full scale must be positive");
        assert!(sensitivity > 0.0, "sensitivity must be positive");
        Self {
            pressure_kpa: 0.0,
            full_scale_kpa,
            sensitivity,
            temp_coeff: 2.0e-4,
            temperature: Celsius(25.0),
            noise: WhiteNoise::new(40.0e-6, seed),
        }
    }
}

/// Promotion onto the platform's generic front-end contract: DC
/// excitation from the shared bandgap, an exact half-bridge inversion
/// table, and wire-fault bands tuned to the bridge's small output span
/// (the short check is disabled — a dead bridge and 0 kPa both read 0 V).
impl SensorFrontEnd for CapacitivePressureSensor {
    fn kind(&self) -> &'static str {
        "capacitive-pressure"
    }

    fn unit(&self) -> &'static str {
        "kPa"
    }

    fn range(&self) -> (f64, f64) {
        (0.0, self.full_scale_kpa)
    }

    fn excitation(&self) -> Excitation {
        Excitation::Dc { volts: 2.5 }
    }

    fn conditioning(&self) -> Conditioning {
        // Invert the half-bridge ratio d/(2+d), d = sens·p/FS, exactly at
        // nine breakpoints; between them the table interpolates linearly.
        let points = (0..=8)
            .map(|i| {
                let p = self.full_scale_kpa * f64::from(i) / 8.0;
                let d = self.sensitivity * p / self.full_scale_kpa;
                (d / (2.0 + d), p)
            })
            .collect();
        Conditioning::Table { points }
    }

    fn plausibility(&self) -> PlausibilityBands {
        PlausibilityBands::Ratiometric {
            short_below: -1.0,
            reverse: Some((0.15, 0.25)),
            open_above: 0.96,
        }
    }

    fn set_stimulus(&mut self, value: f64) {
        self.pressure_kpa = value.clamp(0.0, self.full_scale_kpa);
    }

    fn stimulus(&self) -> f64 {
        self.pressure_kpa
    }

    fn set_temperature(&mut self, t: Celsius) {
        self.temperature = t;
    }

    fn sense(&mut self, excitation: Volts, _dt: f64) -> Volts {
        let dcap = self.sensitivity * self.pressure_kpa / self.full_scale_kpa;
        // Half-bridge ratio for C_s = C0(1+d): d/(2+d).
        let ratio = dcap / (2.0 + dcap);
        let drift = self.temp_coeff * (self.temperature.0 - 25.0);
        Volts(excitation.0 * (ratio + drift) + self.noise.sample())
    }

    fn config_digest(&self) -> u64 {
        let mut w = StateWriter::new();
        w.put_u8_slice(b"capacitive-pressure/v1");
        w.put_f64(self.full_scale_kpa);
        w.put_f64(self.sensitivity);
        w.put_f64(self.temp_coeff);
        fnv1a64(w.bytes())
    }
}

/// Inductive (LVDT-style) position half-bridge: output ratio is linear in
/// core position over ±`stroke_mm`, with cubic end-of-stroke compression.
#[derive(Debug, Clone)]
pub struct InductivePositionSensor {
    position_mm: f64,
    stroke_mm: f64,
    sensitivity: f64,
    noise: WhiteNoise,
}

impl InductivePositionSensor {
    /// Creates a sensor with stroke ±`stroke_mm` and mid-stroke ratio
    /// sensitivity `sensitivity` per mm.
    ///
    /// # Panics
    ///
    /// Panics if `stroke_mm` or `sensitivity` is not positive.
    #[must_use]
    pub fn new(stroke_mm: f64, sensitivity: f64, seed: u64) -> Self {
        assert!(stroke_mm > 0.0, "stroke must be positive");
        assert!(sensitivity > 0.0, "sensitivity must be positive");
        Self {
            position_mm: 0.0,
            stroke_mm,
            sensitivity,
            noise: WhiteNoise::new(20.0e-6, seed),
        }
    }
}

/// Promotion onto the generic front-end contract: the LVDT keeps the
/// gyro-style carrier excitation and coherent demodulation. It has no
/// pilot imbalance and a true null at mid-stroke, so only the open-harness
/// check is electrically available — the cross-sensor coverage report
/// shows exactly that contrast against the pilot-carrying accelerometer.
impl SensorFrontEnd for InductivePositionSensor {
    fn kind(&self) -> &'static str {
        "inductive-position"
    }

    fn unit(&self) -> &'static str {
        "mm"
    }

    fn range(&self) -> (f64, f64) {
        (-self.stroke_mm, self.stroke_mm)
    }

    fn excitation(&self) -> Excitation {
        Excitation::Carrier {
            freq_hz: 5_000.0,
            amplitude_v: 3.0,
        }
    }

    fn conditioning(&self) -> Conditioning {
        Conditioning::Linear {
            scale: 1.0 / self.sensitivity,
            offset: 0.0,
        }
    }

    fn plausibility(&self) -> PlausibilityBands {
        PlausibilityBands::Carrier {
            open_above: 0.5,
            ac_floor: -1.0,
            reverse_below: -2.0,
        }
    }

    fn set_stimulus(&mut self, value: f64) {
        self.position_mm = value.clamp(-self.stroke_mm, self.stroke_mm);
    }

    fn stimulus(&self) -> f64 {
        self.position_mm
    }

    fn set_temperature(&mut self, _t: Celsius) {
        // LVDT ratiometric output is first-order temperature free.
    }

    fn sense(&mut self, excitation: Volts, _dt: f64) -> Volts {
        let u = self.position_mm / self.stroke_mm;
        // 2 % cubic compression near the stroke ends.
        let ratio = self.sensitivity * self.position_mm * (1.0 - 0.02 * u * u);
        Volts(excitation.0 * ratio + self.noise.sample())
    }

    fn config_digest(&self) -> u64 {
        let mut w = StateWriter::new();
        w.put_u8_slice(b"inductive-position/v1");
        w.put_f64(self.stroke_mm);
        w.put_f64(self.sensitivity);
        fnv1a64(w.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::{CapacitivePressureSensor, InductivePositionSensor};
    use crate::frontend::SensorFrontEnd;
    use ascp_sim::units::{Celsius, Volts};

    /// Mean of `n` sensed samples at a fixed excitation (averages noise).
    fn mean(s: &mut dyn SensorFrontEnd, excitation: f64, n: u32) -> f64 {
        (0..n)
            .map(|_| s.sense(Volts(excitation), 1.0e-5).0)
            .sum::<f64>()
            / f64::from(n)
    }

    #[test]
    fn pressure_output_monotonic() {
        let mut s = CapacitivePressureSensor::new(400.0, 0.2, 1);
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 100.0, 200.0, 300.0, 400.0] {
            s.set_stimulus(p);
            let v = mean(&mut s, 5.0, 200);
            assert!(v > last, "not monotonic at {p} kPa");
            last = v;
        }
    }

    #[test]
    fn pressure_clamps_to_range() {
        let mut s = CapacitivePressureSensor::new(400.0, 0.2, 1);
        s.set_stimulus(900.0);
        assert_eq!(s.stimulus(), 400.0);
        s.set_stimulus(-50.0);
        assert_eq!(s.stimulus(), 0.0);
    }

    #[test]
    fn pressure_temperature_drift_visible() {
        let mut s = CapacitivePressureSensor::new(400.0, 0.2, 1);
        s.set_stimulus(200.0);
        let v25 = mean(&mut s, 5.0, 500);
        s.set_temperature(Celsius(125.0));
        let v125 = mean(&mut s, 5.0, 500);
        assert!((v125 - v25) > 0.01, "no drift: {v25} vs {v125}");
    }

    #[test]
    fn position_sign_follows_core() {
        let mut s = InductivePositionSensor::new(5.0, 0.05, 3);
        s.set_stimulus(2.0);
        let vp = mean(&mut s, 3.0, 200);
        s.set_stimulus(-2.0);
        let vn = mean(&mut s, 3.0, 200);
        assert!(vp > 0.0 && vn < 0.0, "signs wrong: {vp} {vn}");
        assert!((vp + vn).abs() < 0.01, "not symmetric: {vp} {vn}");
    }
}
