//! Digital PLL for primary-mode drive.
//!
//! The gyro's vibrating ring must be driven exactly at its (temperature
//! dependent) resonance, ~15 kHz. The paper's platform does this with a PLL
//! whose waveforms are the subject of Fig. 5 (MATLAB) and Fig. 6 (measured):
//! *phase error*, *VCO control* and — together with the AGC — *amplitude
//! control/error*.
//!
//! Structure (all fixed point):
//!
//! ```text
//!  pickoff ──► phase detector ──► PI loop filter ──► NCO ──► drive reference
//!                 (I·sin)            (Kp, Ki)        (32-bit accumulator)
//! ```
//!
//! The phase detector multiplies the band-limited pickoff signal by the NCO
//! cosine; at lock the pickoff is in phase with the NCO sine, the product's
//! DC term is proportional to the phase error, and the double-frequency term
//! is removed by the loop filter's low-pass behaviour plus an explicit
//! averaging stage.

use crate::fixed::Q15;
use crate::nco::Nco;
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};

/// PLL configuration (gains are applied to the Q15 phase-detector output).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PllConfig {
    /// DSP sample rate in Hz.
    pub sample_rate: f64,
    /// NCO start frequency (Hz) — the centre of the capture range.
    pub center_freq: f64,
    /// Proportional gain (Hz of NCO shift per unit phase-detector output).
    pub kp: f64,
    /// Integral gain (Hz per unit output per second).
    pub ki: f64,
    /// Phase-detector averaging length (samples, power of two preferred).
    pub pd_average: u32,
    /// Lock detector: |averaged phase error| must stay below this for
    /// `lock_count` consecutive averaging windows.
    pub lock_threshold: f64,
    /// Consecutive in-threshold windows required to declare lock.
    pub lock_count: u32,
    /// Lock detector amplitude qualification: the averaged in-phase
    /// amplitude must stay at or above this (±1.0 full-scale units) for a
    /// window to count toward lock. Guards against the false-lock deadlock
    /// where a dead pickoff reads as zero phase error while the integrator
    /// sits on its rail, which would suppress the re-acquisition leak.
    pub lock_min_amplitude: f64,
}

impl Default for PllConfig {
    /// Gyro-drive defaults: 250 kHz sample rate, 15 kHz centre, loop
    /// bandwidth of a few hundred hertz (lock in tens of milliseconds).
    fn default() -> Self {
        Self {
            sample_rate: 250_000.0,
            center_freq: 15_000.0,
            kp: 800.0,
            ki: 60_000.0,
            pd_average: 16,
            lock_threshold: 0.02,
            lock_count: 64,
            lock_min_amplitude: 0.01,
        }
    }
}

impl PllConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field if the sample rate or
    /// centre frequency is non-positive, the centre is above Nyquist, gains
    /// are negative, or the averaging length is zero.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.sample_rate > 0.0) {
            return Err(format!(
                "sample_rate must be positive: {}",
                self.sample_rate
            ));
        }
        if !(self.center_freq > 0.0 && self.center_freq < self.sample_rate / 2.0) {
            return Err(format!(
                "center_freq {} outside (0, fs/2)",
                self.center_freq
            ));
        }
        if self.kp < 0.0 || self.ki < 0.0 {
            return Err("gains must be non-negative".to_owned());
        }
        if self.pd_average == 0 {
            return Err("pd_average must be non-zero".to_owned());
        }
        if !(0.0..1.0).contains(&self.lock_min_amplitude) {
            return Err(format!(
                "lock_min_amplitude {} outside [0, 1)",
                self.lock_min_amplitude
            ));
        }
        Ok(())
    }
}

/// Digital phase-locked loop (phase detector + PI filter + NCO).
#[derive(Debug, Clone)]
pub struct Pll {
    config: PllConfig,
    nco: Nco,
    /// Running sum for the phase-detector average (Q15 raw units).
    pd_acc: i64,
    /// Running sum for the in-phase amplitude average (Q15 raw units).
    amp_acc: i64,
    pd_count: u32,
    /// Last completed phase-detector average, in ±1.0 float units.
    phase_error: f64,
    /// Last completed in-phase amplitude average, in ±1.0 float units.
    amplitude: f64,
    /// Integrator state in Hz.
    integrator: f64,
    /// Current NCO frequency offset from centre, Hz.
    freq_offset: f64,
    locked_windows: u32,
    unlocked_windows: u32,
    locked: bool,
    lock_transitions: u64,
}

impl Pll {
    /// Builds a PLL from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails (use [`PllConfig::validate`] to
    /// check fallibly first).
    #[must_use]
    pub fn new(config: PllConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid PLL config: {e}");
        }
        let mut nco = Nco::new();
        nco.set_frequency(config.center_freq, config.sample_rate);
        Self {
            config,
            nco,
            pd_acc: 0,
            amp_acc: 0,
            pd_count: 0,
            phase_error: 0.0,
            amplitude: 0.0,
            integrator: 0.0,
            freq_offset: 0.0,
            locked_windows: 0,
            unlocked_windows: 0,
            locked: false,
            lock_transitions: 0,
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &PllConfig {
        &self.config
    }

    /// Processes one pickoff sample; returns the `(sin, cos)` drive
    /// references for this sample.
    #[inline]
    pub fn process(&mut self, pickoff: Q15) -> (Q15, Q15) {
        let (s, c) = self.nco.tick();

        // Phase detector: pickoff × cos. At lock (pickoff ∝ sin) the DC
        // component vanishes. The in-phase product pickoff × sin measures
        // signal amplitude (≈ A/2 at lock) and qualifies the lock detector.
        let pd = pickoff.mul(c);
        let iq = pickoff.mul(s);
        self.pd_acc += pd.raw() as i64;
        self.amp_acc += iq.raw() as i64;
        self.pd_count += 1;

        if self.pd_count == self.config.pd_average {
            self.close_window();
        }

        (s, c)
    }

    /// Ends one phase-detector averaging window: the PI update, the NCO
    /// retune, the lock detector and the re-acquisition leak. Once per
    /// `pd_average` samples, so it stays out of [`Pll::process`]'s inlined
    /// body.
    #[inline(never)]
    fn close_window(&mut self) {
        let avg = self.pd_acc as f64 / self.config.pd_average as f64 / 32768.0;
        let avg_amp = self.amp_acc as f64 / self.config.pd_average as f64 / 32768.0;
        self.phase_error = avg;
        self.amplitude = avg_amp;
        self.pd_acc = 0;
        self.amp_acc = 0;
        self.pd_count = 0;

        // PI controller updates once per averaging window.
        let dt = self.config.pd_average as f64 / self.config.sample_rate;
        self.integrator += self.config.ki * avg * dt;
        // Anti-windup: bound the integrator to a ±10% pull range.
        let max_pull = self.config.center_freq * 0.1;
        self.integrator = self.integrator.clamp(-max_pull, max_pull);
        self.freq_offset = (self.config.kp * avg + self.integrator).clamp(-max_pull, max_pull);
        self.nco.set_frequency(
            self.config.center_freq + self.freq_offset,
            self.config.sample_rate,
        );

        // Lock detector: small phase error on a live signal. Without the
        // amplitude term a dead pickoff (zero signal, zero phase error)
        // would read as locked and suppress the rail leak below.
        if avg.abs() < self.config.lock_threshold && avg_amp.abs() >= self.config.lock_min_amplitude
        {
            self.locked_windows = self.locked_windows.saturating_add(1);
            self.unlocked_windows = 0;
        } else {
            self.locked_windows = 0;
            self.unlocked_windows = self.unlocked_windows.saturating_add(1);
        }
        let locked_now = self.locked_windows >= self.config.lock_count;
        if locked_now != self.locked {
            self.lock_transitions += 1;
        }
        self.locked = locked_now;
        // Re-acquisition aid, two stranded-NCO cases. (1) Overload on a
        // live input winds the integrator onto its rail, outside the
        // capture range: leak it off the rail and the beat-note pull-in
        // recaptures. (2) A dead pickoff (high-Q resonator driven off
        // resonance responds only within f0/Q) gives no pull-in at all:
        // keep leaking all the way back toward the centre until the
        // resonator answers. Never leak on a live in-range signal — a
        // proportional leak there forces a large static phase error on
        // off-centre tones and blocks lock entirely.
        let railed = self.integrator.abs() > 0.8 * max_pull;
        let dead = avg_amp.abs() < self.config.lock_min_amplitude;
        if self.unlocked_windows > 4 * self.config.lock_count && (railed || dead) {
            self.integrator *= 0.995;
        }
    }

    /// Last averaged phase-detector output (≈ phase error / π for small
    /// errors, scaled by signal amplitude).
    #[must_use]
    pub fn phase_error(&self) -> f64 {
        self.phase_error
    }

    /// Last completed in-phase amplitude average (±1.0 full-scale; ≈ A/2
    /// when locked to a sine of amplitude A).
    #[must_use]
    pub fn amplitude(&self) -> f64 {
        self.amplitude
    }

    /// Current NCO frequency in Hz (the "VCO control" trace of Fig. 5).
    #[must_use]
    pub fn frequency(&self) -> f64 {
        self.config.center_freq + self.freq_offset
    }

    /// Loop-filter output as a normalized control value (offset / max pull).
    #[must_use]
    pub fn vco_control(&self) -> f64 {
        self.freq_offset / (self.config.center_freq * 0.1)
    }

    /// `true` once the lock detector has latched.
    #[must_use]
    pub fn is_locked(&self) -> bool {
        self.locked
    }

    /// Number of lock-state changes (lock acquisitions + losses) since
    /// construction. [`Pll::reset`] does not count as a transition.
    #[must_use]
    pub fn lock_transitions(&self) -> u64 {
        self.lock_transitions
    }

    /// Current NCO phase word (for demodulator phase alignment).
    #[must_use]
    pub fn phase(&self) -> u32 {
        self.nco.phase()
    }

    /// Fault injection: kicks the loop onto its integrator rail, the state
    /// a mechanical shock or overload leaves behind. The NCO runs away to
    /// the edge of the pull range, lock is lost, and only the
    /// re-acquisition leak (see [`Pll::process`]) can sweep the loop back
    /// onto the carrier — so recovery takes the realistic few hundred
    /// milliseconds rather than being instant.
    pub fn kick(&mut self) {
        let max_pull = self.config.center_freq * 0.1;
        self.integrator = max_pull;
        self.freq_offset = max_pull;
        self.nco.set_frequency(
            self.config.center_freq + self.freq_offset,
            self.config.sample_rate,
        );
        self.locked_windows = 0;
        if self.locked {
            self.lock_transitions += 1;
        }
        self.locked = false;
    }

    /// Resets all loop state back to the centre frequency.
    pub fn reset(&mut self) {
        self.nco.reset();
        self.nco
            .set_frequency(self.config.center_freq, self.config.sample_rate);
        self.pd_acc = 0;
        self.amp_acc = 0;
        self.pd_count = 0;
        self.phase_error = 0.0;
        self.amplitude = 0.0;
        self.integrator = 0.0;
        self.freq_offset = 0.0;
        self.locked_windows = 0;
        self.unlocked_windows = 0;
        self.locked = false;
    }

    /// Serializes all loop state (NCO phase word, detector accumulators,
    /// loop filter, lock detector). The configuration is not saved.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.nco.save_state(w);
        w.put_i64(self.pd_acc);
        w.put_i64(self.amp_acc);
        w.put_u32(self.pd_count);
        w.put_f64(self.phase_error);
        w.put_f64(self.amplitude);
        w.put_f64(self.integrator);
        w.put_f64(self.freq_offset);
        w.put_u32(self.locked_windows);
        w.put_u32(self.unlocked_windows);
        w.put_bool(self.locked);
        w.put_u64(self.lock_transitions);
    }

    /// Restores loop state saved by [`Pll::save_state`] into a PLL built
    /// from the same configuration (bit-exact continuation).
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.nco.load_state(r)?;
        self.pd_acc = r.take_i64()?;
        self.amp_acc = r.take_i64()?;
        self.pd_count = r.take_u32()?;
        self.phase_error = r.take_f64()?;
        self.amplitude = r.take_f64()?;
        self.integrator = r.take_f64()?;
        self.freq_offset = r.take_f64()?;
        self.locked_windows = r.take_u32()?;
        self.unlocked_windows = r.take_u32()?;
        self.locked = r.take_bool()?;
        self.lock_transitions = r.take_u64()?;
        Ok(())
    }
}

/// PI controller on a scalar measurement — shared by the AGC and the
/// closed-loop force-rebalance controller.
#[derive(Debug, Clone)]
pub struct PiController {
    /// Proportional gain.
    kp: f64,
    /// Integral gain (per second).
    ki: f64,
    /// Update interval in seconds.
    dt: f64,
    integrator: f64,
    out_min: f64,
    out_max: f64,
}

impl PiController {
    /// Creates a PI controller with output clamped to `[out_min, out_max]`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive or the output range is empty.
    #[must_use]
    pub fn new(kp: f64, ki: f64, dt: f64, out_min: f64, out_max: f64) -> Self {
        assert!(dt > 0.0, "controller dt must be positive");
        assert!(out_min < out_max, "output range must be non-empty");
        Self {
            kp,
            ki,
            dt,
            integrator: 0.0,
            out_min,
            out_max,
        }
    }

    /// Advances one step with measurement error `e` (setpoint − measured);
    /// returns the new control output.
    pub fn update(&mut self, e: f64) -> f64 {
        self.integrator += self.ki * e * self.dt;
        self.integrator = self.integrator.clamp(self.out_min, self.out_max);
        (self.kp * e + self.integrator).clamp(self.out_min, self.out_max)
    }

    /// Integrator state (for tracing).
    #[must_use]
    pub fn integrator(&self) -> f64 {
        self.integrator
    }

    /// Resets the integrator.
    pub fn reset(&mut self) {
        self.integrator = 0.0;
    }

    /// Replaces the gains and the upper output limit, keeping the
    /// integrator.
    ///
    /// # Panics
    ///
    /// Panics if the output range becomes empty.
    pub fn set_gains(&mut self, kp: f64, ki: f64, out_max: f64) {
        assert!(self.out_min < out_max, "output range must be non-empty");
        self.kp = kp;
        self.ki = ki;
        self.out_max = out_max;
    }

    /// Serializes the integrator (gains and limits are configuration).
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_f64(self.integrator);
    }

    /// Restores the integrator saved by [`PiController::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.integrator = r.take_f64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the PLL with a pure sine at `f_in` and reports
    /// (locked, final frequency).
    fn run_lock(f_in: f64, seconds: f64) -> (bool, f64) {
        let config = PllConfig::default();
        let fs = config.sample_rate;
        let mut pll = Pll::new(config);
        let n = (seconds * fs) as usize;
        let w = 2.0 * std::f64::consts::PI * f_in;
        let mut phase = 0.0f64;
        for _ in 0..n {
            let x = Q15::from_f64(0.5 * phase.sin());
            pll.process(x);
            phase += w / fs;
        }
        (pll.is_locked(), pll.frequency())
    }

    #[test]
    fn locks_to_centre_frequency() {
        let (locked, f) = run_lock(15_000.0, 0.3);
        assert!(locked, "PLL failed to lock at centre");
        assert!((f - 15_000.0).abs() < 5.0, "frequency {f}");
    }

    #[test]
    fn locks_above_centre() {
        let (locked, f) = run_lock(15_400.0, 0.5);
        assert!(locked, "PLL failed to lock at +400 Hz");
        assert!((f - 15_400.0).abs() < 10.0, "frequency {f}");
    }

    #[test]
    fn locks_below_centre() {
        let (locked, f) = run_lock(14_600.0, 0.5);
        assert!(locked, "PLL failed to lock at −400 Hz");
        assert!((f - 14_600.0).abs() < 10.0, "frequency {f}");
    }

    #[test]
    fn does_not_lock_to_silence() {
        let config = PllConfig::default();
        let fs = config.sample_rate;
        let mut pll = Pll::new(config);
        // Zero input keeps phase error at 0 — a naive detector would call
        // this "locked". The lock criterion tolerates it (phase error stays
        // small), so verify frequency stays at centre instead.
        for _ in 0..(0.2 * fs) as usize {
            pll.process(Q15::ZERO);
        }
        assert!((pll.frequency() - 15_000.0).abs() < 1.0);
    }

    #[test]
    fn phase_error_decays_at_lock() {
        let config = PllConfig::default();
        let fs = config.sample_rate;
        let mut pll = Pll::new(config);
        let w = 2.0 * std::f64::consts::PI * 15_200.0;
        let mut phase = 0.0f64;
        let mut tail_err = 0.0f64;
        let n = (0.5 * fs) as usize;
        for k in 0..n {
            pll.process(Q15::from_f64(0.5 * phase.sin()));
            phase += w / fs;
            if k > n - 1000 {
                tail_err = tail_err.max(pll.phase_error().abs());
            }
        }
        assert!(tail_err < 0.02, "residual phase error {tail_err}");
    }

    #[test]
    fn reset_returns_to_centre() {
        let (_, _) = run_lock(15_300.0, 0.2);
        let mut pll = Pll::new(PllConfig::default());
        let w = 2.0 * std::f64::consts::PI * 15_300.0;
        let mut phase = 0.0f64;
        for _ in 0..20_000 {
            pll.process(Q15::from_f64(0.5 * phase.sin()));
            phase += w / 250_000.0;
        }
        pll.reset();
        assert!((pll.frequency() - 15_000.0).abs() < 1e-6);
        assert!(!pll.is_locked());
        assert_eq!(pll.phase_error(), 0.0);
    }

    #[test]
    fn lock_transitions_count_state_changes() {
        let config = PllConfig::default();
        let fs = config.sample_rate;
        let mut pll = Pll::new(config);
        assert_eq!(pll.lock_transitions(), 0);
        let w = 2.0 * std::f64::consts::PI * 15_000.0;
        let mut phase = 0.0f64;
        for _ in 0..(0.3 * fs) as usize {
            pll.process(Q15::from_f64(0.5 * phase.sin()));
            phase += w / fs;
        }
        assert!(pll.is_locked());
        assert_eq!(pll.lock_transitions(), 1);
        // Kill the input: the detector eventually reads large errors only if
        // noise is present; silence keeps phase error small, so instead slam
        // in an off-frequency tone to force unlock.
        let w2 = 2.0 * std::f64::consts::PI * 18_000.0;
        for _ in 0..(0.3 * fs) as usize {
            pll.process(Q15::from_f64(0.5 * phase.sin()));
            phase += w2 / fs;
        }
        assert!(pll.lock_transitions() >= 2, "{}", pll.lock_transitions());
    }

    #[test]
    fn config_validation() {
        let mut c = PllConfig::default();
        assert!(c.validate().is_ok());
        c.center_freq = 0.0;
        assert!(c.validate().is_err());
        c = PllConfig::default();
        c.kp = -1.0;
        assert!(c.validate().is_err());
        c = PllConfig::default();
        c.pd_average = 0;
        assert!(c.validate().is_err());
        c = PllConfig::default();
        c.center_freq = 200_000.0; // above Nyquist of 125 kHz
        assert!(c.validate().is_err());
    }

    #[test]
    fn pi_controller_tracks_setpoint() {
        let mut pi = PiController::new(0.5, 50.0, 1e-3, 0.0, 2.0);
        // Plant: y = u (unity). Drive error = 1 - y toward zero.
        let mut y = 0.0;
        for _ in 0..10_000 {
            let u = pi.update(1.0 - y);
            y = u;
        }
        assert!((y - 1.0).abs() < 1e-3, "settled at {y}");
    }

    #[test]
    fn pi_controller_clamps_output() {
        let mut pi = PiController::new(10.0, 1000.0, 1e-3, -0.5, 0.5);
        for _ in 0..1000 {
            let u = pi.update(10.0);
            assert!((-0.5..=0.5).contains(&u));
        }
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn pi_rejects_zero_dt() {
        let _ = PiController::new(1.0, 1.0, 0.0, 0.0, 1.0);
    }
}
