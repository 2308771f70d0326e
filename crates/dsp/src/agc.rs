//! Automatic gain control for the primary drive amplitude.
//!
//! The Coriolis signal is proportional to both the rotation rate and the
//! drive-mode velocity amplitude, so scale-factor stability requires the
//! ring's vibration amplitude to be held constant. The paper's Fig. 5 shows
//! the AGC traces ("amplitude control", "amplitude error") locking together
//! with the PLL.
//!
//! Structure: quadrature envelope detector (I/Q demodulation against the PLL
//! reference + CORDIC magnitude) followed by a PI controller that sets the
//! drive DAC amplitude.

use crate::cordic::to_polar;
use crate::fixed::Q15;
use crate::pll::PiController;
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};

/// AGC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgcConfig {
    /// DSP sample rate (Hz).
    pub sample_rate: f64,
    /// Target envelope amplitude (fraction of ADC full scale).
    pub setpoint: f64,
    /// Envelope averaging window in samples.
    pub average: u32,
    /// Proportional gain (drive units per amplitude-error unit).
    pub kp: f64,
    /// Integral gain (drive units per amplitude-error unit per second).
    pub ki: f64,
    /// Maximum drive amplitude (DAC full scale = 1.0).
    pub max_drive: f64,
}

impl Default for AgcConfig {
    fn default() -> Self {
        Self {
            sample_rate: 250_000.0,
            setpoint: 0.5,
            average: 64,
            kp: 0.2,
            ki: 300.0,
            max_drive: 1.0,
        }
    }
}

impl AgcConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field when the sample rate,
    /// setpoint, averaging length or drive limit is out of range.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.sample_rate > 0.0) {
            return Err("sample_rate must be positive".to_owned());
        }
        if !(self.setpoint > 0.0 && self.setpoint < 1.0) {
            return Err(format!("setpoint {} outside (0, 1)", self.setpoint));
        }
        if self.average == 0 {
            return Err("average must be non-zero".to_owned());
        }
        if !(self.max_drive > 0.0) {
            return Err("max_drive must be positive".to_owned());
        }
        Ok(())
    }
}

/// Automatic gain control loop.
#[derive(Debug, Clone)]
pub struct Agc {
    config: AgcConfig,
    i_acc: i64,
    q_acc: i64,
    count: u32,
    envelope: f64,
    error: f64,
    drive: f64,
    pi: PiController,
    samples: u64,
    settled_at_sample: Option<u64>,
}

impl Agc {
    /// Builds an AGC from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails.
    #[must_use]
    pub fn new(config: AgcConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid AGC config: {e}");
        }
        let dt = config.average as f64 / config.sample_rate;
        let pi = PiController::new(config.kp, config.ki, dt, 0.0, config.max_drive);
        Self {
            config,
            i_acc: 0,
            q_acc: 0,
            count: 0,
            envelope: 0.0,
            error: config.setpoint,
            drive: 0.0,
            pi,
            samples: 0,
            settled_at_sample: None,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &AgcConfig {
        &self.config
    }

    /// Replaces the loop gains and the drive limit, keeping the detector
    /// and integrator state: the same loop as one built with these gains
    /// and then run to this state.
    ///
    /// # Panics
    ///
    /// Panics if the new configuration fails validation.
    pub fn set_gains(&mut self, kp: f64, ki: f64, max_drive: f64) {
        let config = AgcConfig {
            kp,
            ki,
            max_drive,
            ..self.config
        };
        if let Err(e) = config.validate() {
            panic!("invalid AGC config: {e}");
        }
        self.pi.set_gains(kp, ki, max_drive);
        self.config = config;
    }

    /// Processes one pickoff sample with the PLL's `(sin, cos)` references;
    /// returns the current drive amplitude command (0..max_drive).
    #[inline]
    pub fn process(&mut self, pickoff: Q15, sin_ref: Q15, cos_ref: Q15) -> f64 {
        // Quadrature mixdown: at lock, I carries the envelope.
        self.i_acc += pickoff.mul(sin_ref).raw() as i64;
        self.q_acc += pickoff.mul(cos_ref).raw() as i64;
        self.count += 1;
        self.samples += 1;
        if self.count == self.config.average {
            self.close_window();
        }
        self.drive
    }

    /// Ends one detector averaging window: the envelope, the PI drive
    /// update and the settling milestone. Once per `average` samples, so
    /// it stays out of [`Agc::process`]'s inlined body.
    #[inline(never)]
    fn close_window(&mut self) {
        let scale = 1.0 / (self.config.average as f64);
        let i = Q15::from_f64(self.i_acc as f64 * scale / 32768.0 * 2.0);
        let q = Q15::from_f64(self.q_acc as f64 * scale / 32768.0 * 2.0);
        // Mixing halves the amplitude (sin² average = ½); the ×2 above
        // restores the envelope scale. CORDIC gives the magnitude
        // independent of residual phase error.
        let polar = to_polar(i, q);
        self.envelope = polar.magnitude.to_f64();
        self.error = self.config.setpoint - self.envelope;
        self.drive = self.pi.update(self.error);
        // Settling milestone: the first window whose error is inside a
        // 5 %-of-setpoint band. Latched until reset.
        if self.settled_at_sample.is_none() && self.error.abs() <= 0.05 * self.config.setpoint {
            self.settled_at_sample = Some(self.samples);
        }
        self.i_acc = 0;
        self.q_acc = 0;
        self.count = 0;
    }

    /// Latest detected envelope (fraction of full scale).
    #[must_use]
    pub fn envelope(&self) -> f64 {
        self.envelope
    }

    /// Latest amplitude error (setpoint − envelope): the Fig. 5 trace.
    #[must_use]
    pub fn error(&self) -> f64 {
        self.error
    }

    /// Current drive command: the Fig. 5 "amplitude control" trace.
    #[must_use]
    pub fn drive(&self) -> f64 {
        self.drive
    }

    /// `true` once the envelope is within `tol` of the setpoint.
    #[must_use]
    pub fn is_settled(&self, tol: f64) -> bool {
        self.error.abs() <= tol
    }

    /// Time (seconds since construction/reset) when the amplitude error
    /// first entered the ±5 %-of-setpoint band, or `None` before that.
    #[must_use]
    pub fn settle_time_s(&self) -> Option<f64> {
        self.settled_at_sample
            .map(|n| n as f64 / self.config.sample_rate)
    }

    /// Resets detector and controller state.
    pub fn reset(&mut self) {
        self.i_acc = 0;
        self.q_acc = 0;
        self.count = 0;
        self.envelope = 0.0;
        self.error = self.config.setpoint;
        self.drive = 0.0;
        self.pi.reset();
        self.samples = 0;
        self.settled_at_sample = None;
    }

    /// Serializes detector accumulators, envelope/drive state and the PI
    /// integrator. The configuration is not saved.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_i64(self.i_acc);
        w.put_i64(self.q_acc);
        w.put_u32(self.count);
        w.put_f64(self.envelope);
        w.put_f64(self.error);
        w.put_f64(self.drive);
        self.pi.save_state(w);
        w.put_u64(self.samples);
        w.put_opt_u64(self.settled_at_sample);
    }

    /// Restores state saved by [`Agc::save_state`] into an AGC built from
    /// the same configuration (bit-exact continuation).
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.i_acc = r.take_i64()?;
        self.q_acc = r.take_i64()?;
        self.count = r.take_u32()?;
        self.envelope = r.take_f64()?;
        self.error = r.take_f64()?;
        self.drive = r.take_f64()?;
        self.pi.load_state(r)?;
        self.samples = r.take_u64()?;
        self.settled_at_sample = r.take_opt_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nco::Nco;

    /// Simple first-order "resonator" gain plant: envelope = gain × drive.
    fn run_agc(plant_gain: f64, seconds: f64) -> (f64, f64) {
        let config = AgcConfig::default();
        let fs = config.sample_rate;
        let mut agc = Agc::new(config);
        let mut nco = Nco::new();
        nco.set_frequency(15_000.0, fs);
        let mut drive = 0.0f64;
        let n = (seconds * fs) as usize;
        for _ in 0..n {
            let (s, c) = nco.tick();
            // Plant: pickoff amplitude = plant_gain * drive, in phase.
            let pickoff = Q15::from_f64((plant_gain * drive) * s.to_f64());
            drive = agc.process(pickoff, s, c);
        }
        (agc.envelope(), agc.drive())
    }

    #[test]
    fn envelope_reaches_setpoint() {
        let (env, _) = run_agc(1.0, 0.4);
        // Detector averages a non-integer number of carrier periods, so a
        // small steady ripple (~2 %) remains on the envelope reading.
        assert!((env - 0.5).abs() < 0.03, "envelope {env}");
    }

    #[test]
    fn drive_compensates_plant_gain() {
        let (env1, drive1) = run_agc(1.0, 0.2);
        let (env2, drive2) = run_agc(2.0, 0.2);
        assert!((env1 - env2).abs() < 0.02, "envelopes {env1} vs {env2}");
        assert!(
            (drive1 / drive2 - 2.0).abs() < 0.1,
            "drives {drive1} vs {drive2}"
        );
    }

    #[test]
    fn drive_saturates_at_max() {
        // Plant too weak to ever reach the setpoint.
        let (_, drive) = run_agc(0.1, 0.3);
        assert!((drive - 1.0).abs() < 1e-9, "drive {drive}");
    }

    #[test]
    fn envelope_detection_is_phase_insensitive() {
        let config = AgcConfig::default();
        let fs = config.sample_rate;
        let mut agc = Agc::new(config);
        let mut nco = Nco::new();
        nco.set_frequency(15_000.0, fs);
        // Pickoff shifted 30° from the reference; envelope must still read
        // the true amplitude thanks to the CORDIC magnitude.
        let offset = 30f64.to_radians();
        let mut phase = offset;
        for _ in 0..50_000 {
            let (s, c) = nco.tick();
            let pickoff = Q15::from_f64(0.4 * phase.sin());
            agc.process(pickoff, s, c);
            phase += 2.0 * std::f64::consts::PI * 15_000.0 / fs;
        }
        // envelope should be near 0.4 despite the offset phase
        assert!(
            (agc.envelope() - 0.4).abs() < 0.05,
            "env {}",
            agc.envelope()
        );
    }

    #[test]
    fn settled_predicate() {
        let config = AgcConfig::default();
        let agc = Agc::new(config);
        assert!(!agc.is_settled(0.01));
    }

    #[test]
    fn reset_zeroes_drive() {
        let config = AgcConfig::default();
        let mut agc = Agc::new(config);
        let mut nco = Nco::new();
        nco.set_frequency(15_000.0, config.sample_rate);
        for _ in 0..1000 {
            let (s, c) = nco.tick();
            agc.process(Q15::from_f64(0.1), s, c);
        }
        agc.reset();
        assert_eq!(agc.drive(), 0.0);
        assert_eq!(agc.envelope(), 0.0);
    }

    #[test]
    fn settle_time_latches_once() {
        let config = AgcConfig::default();
        let fs = config.sample_rate;
        let mut agc = Agc::new(config);
        assert_eq!(agc.settle_time_s(), None);
        let mut nco = Nco::new();
        nco.set_frequency(15_000.0, fs);
        let mut drive = 0.0f64;
        for _ in 0..(0.4 * fs) as usize {
            let (s, c) = nco.tick();
            let pickoff = Q15::from_f64(drive * s.to_f64());
            drive = agc.process(pickoff, s, c);
        }
        let settle = agc.settle_time_s().expect("AGC settled");
        assert!(settle > 0.0 && settle < 0.4, "settle {settle}");
        // Latched: running longer must not move it.
        for _ in 0..10_000 {
            let (s, c) = nco.tick();
            let pickoff = Q15::from_f64(drive * s.to_f64());
            drive = agc.process(pickoff, s, c);
        }
        assert_eq!(agc.settle_time_s(), Some(settle));
        agc.reset();
        assert_eq!(agc.settle_time_s(), None);
    }

    #[test]
    fn config_validation() {
        let mut c = AgcConfig::default();
        assert!(c.validate().is_ok());
        c.setpoint = 1.5;
        assert!(c.validate().is_err());
        c = AgcConfig::default();
        c.average = 0;
        assert!(c.validate().is_err());
        c = AgcConfig::default();
        c.max_drive = 0.0;
        assert!(c.validate().is_err());
    }
}
