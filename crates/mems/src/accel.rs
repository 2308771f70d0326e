//! Capacitive MEMS accelerometer front-end on the resonator kernel.
//!
//! The proof mass is the same damped-harmonic-oscillator kernel
//! ([`crate::resonator::Resonator`], exact ZOH propagator) that powers the
//! gyro's drive and sense modes — the paper's IP-reuse claim applied to the
//! sensor model itself. Acceleration deflects the mass; a differential
//! capacitive half-bridge converts deflection to a carrier-amplitude
//! modulation, which the generic channel demodulates coherently with the
//! gyro chain's NCO + demodulator IPs.
//!
//! The bridge carries a deliberate *pilot imbalance*
//! ([`SensorFrontEnd::carrier_pilot`]): at rest the demodulated in-phase
//! output is a small positive constant rather than zero, so the channel
//! supervisor can distinguish a live harness (pilot present), a dead one
//! (carrier gone: short), an open one (node at the pull-up rail) and a
//! reversed connector (pilot sign flipped) — the dbus-adc status taxonomy
//! carried over to an AC-excited sensor.

use crate::frontend::{Conditioning, Excitation, PlausibilityBands, SensorFrontEnd};
use crate::resonator::Resonator;
use ascp_sim::noise::WhiteNoise;
use ascp_sim::snapshot::{fnv1a64, StateWriter};
use ascp_sim::units::{Celsius, Volts};

/// Standard gravity, m/s² per g.
const G0: f64 = 9.806_65;
/// Full-scale deflection as a fraction of the capacitive gap.
const FS_GAP_FRACTION: f64 = 0.3;
/// Pilot imbalance as a ratio of the carrier amplitude. Must exceed the
/// full-scale deflection ratio ([`FS_GAP_FRACTION`]) so the demodulated
/// ratio stays positive over the whole measurement range — a negative
/// ratio is reserved for the reverse-polarity plausibility check.
const PILOT_RATIO: f64 = 0.4;

/// Open-loop capacitive accelerometer: proof-mass resonator, differential
/// half-bridge pickoff, carrier excitation.
#[derive(Debug, Clone)]
pub struct CapacitiveAccelFrontEnd {
    full_scale_g: f64,
    f0_hz: f64,
    q: f64,
    carrier_hz: f64,
    amplitude_v: f64,
    /// Capacitive gap in metres, sized so full scale deflects
    /// [`FS_GAP_FRACTION`] of it.
    gap_m: f64,
    accel_g: f64,
    temperature: Celsius,
    /// Zero-g offset drift, g per kelvin.
    offset_tempco_g: f64,
    proof_mass: Resonator,
    /// Brownian force noise, m/s² per sample.
    noise: WhiteNoise,
    seed: u64,
}

impl CapacitiveAccelFrontEnd {
    /// Creates an accelerometer with range ±`full_scale_g`, proof-mass
    /// resonance `f0_hz` and quality factor `q` (gas-damped, typ. < 1).
    ///
    /// # Panics
    ///
    /// Panics if `full_scale_g`, `f0_hz` or `q` is not positive.
    #[must_use]
    pub fn new(full_scale_g: f64, f0_hz: f64, q: f64, seed: u64) -> Self {
        assert!(full_scale_g > 0.0, "full scale must be positive");
        let omega = 2.0 * std::f64::consts::PI * f0_hz;
        let x_fs = full_scale_g * G0 / (omega * omega);
        Self {
            full_scale_g,
            f0_hz,
            q,
            carrier_hz: 10_000.0,
            amplitude_v: 2.5,
            gap_m: x_fs / FS_GAP_FRACTION,
            accel_g: 0.0,
            temperature: Celsius(25.0),
            offset_tempco_g: 2.0e-3,
            proof_mass: Resonator::new(f0_hz, q),
            // ~200 µg/√Hz Brownian floor folded to a 100 kHz sample rate.
            noise: WhiteNoise::new(200.0e-6 * G0 * (50_000.0f64).sqrt(), seed),
            seed,
        }
    }

    /// The ±50 g / 5.5 kHz airbag-class crash sensor.
    #[must_use]
    pub fn crash_50g(seed: u64) -> Self {
        Self::new(50.0, 5_500.0, 0.7, seed)
    }

    /// Deflection-to-ratio sensitivity per g (fraction of gap).
    fn ratio_per_g(&self) -> f64 {
        FS_GAP_FRACTION / self.full_scale_g
    }
}

impl SensorFrontEnd for CapacitiveAccelFrontEnd {
    fn kind(&self) -> &'static str {
        "capacitive-accel"
    }

    fn unit(&self) -> &'static str {
        "g"
    }

    fn range(&self) -> (f64, f64) {
        (-self.full_scale_g, self.full_scale_g)
    }

    fn excitation(&self) -> Excitation {
        Excitation::Carrier {
            freq_hz: self.carrier_hz,
            amplitude_v: self.amplitude_v,
        }
    }

    fn conditioning(&self) -> Conditioning {
        // The demodulated ratio is pilot + ratio_per_g · a.
        let scale = 1.0 / self.ratio_per_g();
        Conditioning::Linear {
            scale,
            offset: -PILOT_RATIO * scale,
        }
    }

    fn plausibility(&self) -> PlausibilityBands {
        PlausibilityBands::Carrier {
            open_above: 0.5,
            ac_floor: 0.01,
            reverse_below: -0.02,
        }
    }

    fn set_stimulus(&mut self, value: f64) {
        self.accel_g = value.clamp(-self.full_scale_g, self.full_scale_g);
    }

    fn stimulus(&self) -> f64 {
        self.accel_g
    }

    fn set_temperature(&mut self, t: Celsius) {
        self.temperature = t;
    }

    fn carrier_pilot(&self) -> f64 {
        PILOT_RATIO
    }

    fn sense(&mut self, excitation: Volts, dt: f64) -> Volts {
        let offset_g = self.offset_tempco_g * (self.temperature.0 - 25.0);
        let force = (self.accel_g + offset_g) * G0 + self.noise.sample();
        self.proof_mass.step(force, dt);
        let ratio = PILOT_RATIO + self.proof_mass.state().x / self.gap_m;
        Volts(excitation.0 * ratio)
    }

    fn config_digest(&self) -> u64 {
        let mut w = StateWriter::new();
        w.put_u8_slice(b"capacitive-accel/v1");
        w.put_f64(self.full_scale_g);
        w.put_f64(self.f0_hz);
        w.put_f64(self.q);
        w.put_f64(self.carrier_hz);
        w.put_f64(self.amplitude_v);
        w.put_f64(self.offset_tempco_g);
        w.put_u64(self.seed);
        fnv1a64(w.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mean demodulation-free pickoff ratio over `n` carrier-peak samples.
    fn settled_ratio(fe: &mut CapacitiveAccelFrontEnd, n: usize) -> f64 {
        let dt = 1.0e-5;
        // Settle the proof mass (several time constants at Q=0.7/5.5 kHz).
        for _ in 0..2000 {
            let _ = fe.sense(Volts(1.0), dt);
        }
        (0..n).map(|_| fe.sense(Volts(1.0), dt).0).sum::<f64>() / n as f64
    }

    #[test]
    fn deflection_tracks_acceleration() {
        let mut fe = CapacitiveAccelFrontEnd::crash_50g(5);
        fe.set_stimulus(0.0);
        let r0 = settled_ratio(&mut fe, 2000);
        fe.set_stimulus(25.0);
        let r25 = settled_ratio(&mut fe, 2000);
        let per_g = (r25 - r0) / 25.0;
        let expect = fe.ratio_per_g();
        assert!(
            (per_g - expect).abs() < 0.1 * expect,
            "sensitivity off: {per_g} vs {expect}"
        );
    }

    #[test]
    fn pilot_keeps_rest_output_positive() {
        let mut fe = CapacitiveAccelFrontEnd::crash_50g(5);
        fe.set_stimulus(0.0);
        let r = settled_ratio(&mut fe, 2000);
        assert!((r - PILOT_RATIO).abs() < 0.01, "rest ratio {r}");
    }

    #[test]
    fn conditioning_recovers_g() {
        let mut fe = CapacitiveAccelFrontEnd::crash_50g(5);
        let cond = fe.conditioning();
        fe.set_stimulus(-20.0);
        let r = settled_ratio(&mut fe, 4000);
        let eu = cond.apply(r);
        assert!((eu - (-20.0)).abs() < 1.0, "recovered {eu} g");
    }
}
