//! Fixed-point gyro conditioning chain (the hardwired DSP block).
//!
//! This is the paper's "DSP \[which\] contains a chain of IPs for signal
//! elaboration" (§4.2), customized for the gyro: PLL primary drive, AGC,
//! synchronous demodulation of the secondary pickoff, temperature/offset
//! compensation, output scaling toward the rate DAC, and (closed loop) the
//! force-rebalance controllers re-modulating the nulling force onto the
//! carrier. Every block is bit-accurate fixed point from `ascp-dsp` — the
//! Rust stand-in for the RTL derived from the MATLAB model.

use crate::registers::{DspReg, SharedDspRegs};
use ascp_dsp::agc::{Agc, AgcConfig};
use ascp_dsp::comp::Compensator;
use ascp_dsp::demod::{Demodulator, IqSample, Modulator};
use ascp_dsp::fixed::{Q15, Q30};
use ascp_dsp::iir::{Biquad, BiquadCoeffs};
use ascp_dsp::pll::{PiController, Pll, PllConfig};
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};

/// A positive gain of arbitrary magnitude factored into a Q30 mantissa in
/// `[0.5, 1)` and a power-of-two shift — how RTL implements "multiply by
/// 7.24": mantissa multiplier plus barrel shift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaledGain {
    mantissa: Q30,
    shift: i32,
}

impl ScaledGain {
    /// Factors `gain` (> 0) into mantissa and shift.
    ///
    /// # Panics
    ///
    /// Panics if `gain` is not finite and positive.
    #[must_use]
    pub fn new(gain: f64) -> Self {
        assert!(
            gain.is_finite() && gain > 0.0,
            "scaled gain must be finite and positive, got {gain}"
        );
        let shift = gain.log2().ceil() as i32;
        let mantissa = Q30::from_f64(gain / 2f64.powi(shift));
        Self { mantissa, shift }
    }

    /// Unity gain.
    #[must_use]
    pub fn unity() -> Self {
        Self::new(1.0)
    }

    /// The represented gain value.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.mantissa.to_f64() * 2f64.powi(self.shift)
    }

    /// Applies the gain to a sample (saturating).
    #[must_use]
    pub fn apply(&self, x: Q15) -> Q15 {
        let m = x.mul_q(self.mantissa);
        match self.shift.cmp(&0) {
            std::cmp::Ordering::Greater => m.shl(self.shift as u32),
            std::cmp::Ordering::Less => m.shr((-self.shift) as u32),
            std::cmp::Ordering::Equal => m,
        }
    }
}

/// Operating mode of the sense path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SenseMode {
    /// Read the Coriolis amplitude directly (simple, less linear).
    #[default]
    OpenLoop,
    /// Null the secondary motion with rebalance forces; read the force
    /// ("more linear and accurate measures", §4.1).
    ClosedLoop,
}

/// Chain configuration.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// PLL (primary drive) settings.
    pub pll: PllConfig,
    /// AGC settings (setpoint is in ADC full-scale units).
    pub agc: AgcConfig,
    /// Demodulator channel-filter cutoff as a fraction of the DSP rate.
    pub demod_cutoff: f64,
    /// Demodulator FIR length.
    pub demod_taps: usize,
    /// Demodulator output decimation.
    pub demod_decimation: u32,
    /// Sense-path mode.
    pub mode: SenseMode,
    /// Open-loop gain from demodulated Q15 to rate-output Q15
    /// (FS = ±500 °/s); from the design-time dimensioning step.
    pub rate_gain: f64,
    /// Closed-loop gain from rebalance command Q15 to rate-output Q15.
    pub rebalance_rate_gain: f64,
    /// Rebalance PI proportional gain.
    pub rebalance_kp: f64,
    /// Rebalance PI integral gain (per second).
    pub rebalance_ki: f64,
    /// Rebalance command authority (DAC units). Sized for full scale plus
    /// margin (±0.15 ≈ ±540 °/s): bounded authority keeps the loop out of
    /// the sense pickoff's inversion region during transients.
    pub rebalance_limit: f64,
    /// Rate-output lowpass corner (Hz) at the decimated rate — sets the
    /// datasheet 3 dB bandwidth (paper Table 1: 25..75 Hz).
    pub output_corner_hz: f64,
    /// Rebalance-axis phase compensation (radians). The force-feedback
    /// path lags the demodulation axes by the DSP pipeline plus the DAC
    /// zero-order hold (~1.5 samples ≈ 32° at 15 kHz); the commands are
    /// rotated by this angle before re-modulation so the nulling forces
    /// land on the physical Coriolis/quadrature axes. Trimmed at design
    /// time (a register in hardware).
    pub rebalance_phase_rad: f64,
    /// Temperature/offset compensation.
    pub compensator: Compensator,
}

impl Default for ChainConfig {
    fn default() -> Self {
        let mut pll = PllConfig::default();
        pll.pd_average = 50; // three carrier periods: no 2ω ripple
        let mut agc = AgcConfig::default();
        agc.setpoint = 0.8; // 0.5 displacement × (4 V/unit) / 2.5 V FS
        agc.average = 50;
        // The drive mode is a slow envelope lag (τ = 2Q/ω ≈ 0.42 s at
        // Q = 20 000) with ~8× DC gain. The PI zero cancels the lag
        // (ki/kp = 1/τ ≈ 2.4), leaving an integrator crossover near
        // 12 rad/s — fast, no limit cycle against the drive ≥ 0 clamp.
        agc.kp = 0.6;
        agc.ki = 1.5;
        Self {
            pll,
            agc,
            demod_cutoff: 400.0 / 250_000.0,
            demod_taps: 101,
            demod_decimation: 25,
            mode: SenseMode::OpenLoop,
            rate_gain: 1.0,
            rebalance_rate_gain: 1.0,
            // The baseband force→pickoff plant has a lightly damped
            // complex pole pair at the mode-split beat (200 Hz, τ ≈ 2Q_s/ω);
            // the loop crossover ki·g ≈ 15 rad/s stays a decade and a half
            // below it.
            rebalance_kp: 0.002,
            rebalance_ki: 2.0,
            rebalance_limit: 0.15,
            output_corner_hz: 75.0,
            rebalance_phase_rad: 0.0,
            compensator: Compensator::identity(),
        }
    }
}

/// Per-DSP-tick outputs toward the AFE DACs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChainDrive {
    /// Primary drive DAC sample.
    pub primary: Q15,
    /// Secondary (rebalance) drive DAC sample.
    pub secondary: Q15,
    /// Rate-output DAC sample (updated at the decimated rate, held between).
    pub rate_out: Q15,
}

/// The conditioning chain.
#[derive(Debug, Clone)]
pub struct ConditioningChain {
    config: ChainConfig,
    pll: Pll,
    agc: Agc,
    demod: Demodulator,
    modulator: Modulator,
    rebalance_i: PiController,
    rebalance_q: PiController,
    rate_gain: ScaledGain,
    rebalance_rate_gain: ScaledGain,
    /// Output-bandwidth filter at the decimated rate (outside the
    /// rebalance loop, so it shapes only the datasheet output).
    output_lp: Biquad,
    /// Latest rebalance commands (closed loop).
    cmd: IqSample,
    /// Latest demodulated pair (rate on the cos channel).
    baseband: IqSample,
    /// Latest compensated rate output (Q15, FS ±500 °/s).
    rate_out: Q15,
    quad_out: Q15,
    heartbeat: u16,
    enabled: bool,
    output_valid: bool,
    temperature: f64,
    /// Decimated output samples whose compensated rate hit a Q15 rail
    /// (over-range rotation or mis-set gains; telemetry).
    saturation_events: u64,
}

impl ConditioningChain {
    /// Builds the chain.
    ///
    /// # Panics
    ///
    /// Panics on invalid PLL/AGC configuration or non-positive gains.
    #[must_use]
    pub fn new(config: ChainConfig) -> Self {
        let pll = Pll::new(config.pll);
        let agc = Agc::new(config.agc);
        let demod = Demodulator::new(
            config.demod_cutoff,
            config.demod_taps,
            config.demod_decimation,
        );
        let out_dt = config.demod_decimation as f64 / config.pll.sample_rate;
        let out_rate = 1.0 / out_dt;
        let output_lp = Biquad::new(BiquadCoeffs::lowpass(
            config.output_corner_hz / out_rate,
            std::f64::consts::FRAC_1_SQRT_2,
        ));
        Self {
            output_lp,
            pll,
            agc,
            demod,
            modulator: Modulator::new(),
            rebalance_i: PiController::new(
                config.rebalance_kp,
                config.rebalance_ki,
                out_dt,
                -config.rebalance_limit,
                config.rebalance_limit,
            ),
            rebalance_q: PiController::new(
                config.rebalance_kp,
                config.rebalance_ki,
                out_dt,
                -config.rebalance_limit,
                config.rebalance_limit,
            ),
            rate_gain: ScaledGain::new(config.rate_gain),
            rebalance_rate_gain: ScaledGain::new(config.rebalance_rate_gain),
            cmd: IqSample::default(),
            baseband: IqSample::default(),
            rate_out: Q15::ZERO,
            quad_out: Q15::ZERO,
            heartbeat: 0,
            enabled: true,
            output_valid: false,
            temperature: 25.0,
            saturation_events: 0,
            config,
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Sense-path mode currently active.
    #[must_use]
    pub fn mode(&self) -> SenseMode {
        self.config.mode
    }

    /// Switches open/closed loop at run time (a platform knob).
    pub fn set_mode(&mut self, mode: SenseMode) {
        self.config.mode = mode;
        if mode == SenseMode::OpenLoop {
            self.cmd = IqSample::default();
            self.rebalance_i.reset();
            self.rebalance_q.reset();
        }
        self.output_lp.reset();
    }

    /// Current rebalance-axis phase compensation (radians).
    #[must_use]
    pub fn rebalance_phase(&self) -> f64 {
        self.config.rebalance_phase_rad
    }

    /// Sets the rebalance-axis phase compensation (the "on-line trimming"
    /// register of paper §3).
    pub fn set_rebalance_phase(&mut self, rad: f64) {
        self.config.rebalance_phase_rad = rad;
    }

    /// Replaces the compensator (final-test calibration installing fitted
    /// coefficients), keeping it synchronized to the current temperature.
    pub fn config_compensator(&mut self, comp: Compensator) {
        self.config.compensator = comp;
        self.config.compensator.set_temperature(self.temperature);
    }

    /// Updates the die temperature used by the compensator (from the AFE
    /// temperature-sensor register, at its slow rate).
    pub fn set_temperature(&mut self, celsius: f64) {
        self.temperature = celsius;
        self.config.compensator.set_temperature(celsius);
    }

    /// PLL lock flag.
    #[must_use]
    pub fn is_locked(&self) -> bool {
        self.pll.is_locked()
    }

    /// AGC settled flag (within 5 % of setpoint).
    #[must_use]
    pub fn is_settled(&self) -> bool {
        self.agc.is_settled(0.05 * self.config.agc.setpoint)
    }

    /// Compensated rate output (Q15, FS = ±500 °/s).
    #[must_use]
    pub fn rate_out(&self) -> Q15 {
        self.rate_out
    }

    /// Rate output converted to °/s.
    #[must_use]
    pub fn rate_dps(&self) -> f64 {
        self.rate_out.to_f64() * 500.0
    }

    /// Quadrature channel (Q15).
    #[must_use]
    pub fn quad_out(&self) -> Q15 {
        self.quad_out
    }

    /// Current NCO frequency (Hz).
    #[must_use]
    pub fn frequency(&self) -> f64 {
        self.pll.frequency()
    }

    /// Phase-detector average.
    #[must_use]
    pub fn phase_error(&self) -> f64 {
        self.pll.phase_error()
    }

    /// AGC envelope (ADC FS units).
    #[must_use]
    pub fn envelope(&self) -> f64 {
        self.agc.envelope()
    }

    /// AGC drive command.
    #[must_use]
    pub fn drive(&self) -> f64 {
        self.agc.drive()
    }

    /// PLL lock/unlock state changes since reset (telemetry).
    #[must_use]
    pub fn lock_transitions(&self) -> u64 {
        self.pll.lock_transitions()
    }

    /// AGC settle milestone: seconds to first entry into the ±5 % band.
    #[must_use]
    pub fn settle_time_s(&self) -> Option<f64> {
        self.agc.settle_time_s()
    }

    /// Output samples whose compensated rate saturated at a Q15 rail.
    #[must_use]
    pub fn saturation_events(&self) -> u64 {
        self.saturation_events
    }

    /// Total fixed-point accumulator clamps inside the chain's filters
    /// (demodulator channel FIRs plus the output biquad) — the telemetry
    /// view of the `ascp-dsp` saturating-arithmetic audit.
    #[must_use]
    pub fn fixed_saturations(&self) -> u64 {
        self.demod.saturations() + self.output_lp.saturations()
    }

    /// Kicks the drive PLL off frequency (shock-induced phase slip): rails
    /// the loop integrator so the NCO runs at the edge of its pull range
    /// and lock is lost until the loop re-acquires. Fault-injection hook.
    pub fn kick_pll(&mut self) {
        self.pll.kick();
    }

    /// Processes one DSP-rate sample pair from the ADCs.
    pub fn process(&mut self, primary: Q15, secondary: Q15) -> ChainDrive {
        if !self.enabled {
            return ChainDrive::default();
        }
        let (s, c, primary_drive) = self.primary_stage(primary);
        let demod_out = self.demod.process(secondary, s, c);
        self.finish_stage(demod_out, s, c, primary_drive)
    }

    /// Whether the chain is processing (control-register enable bit).
    pub(crate) fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The demodulator (fleet lane extraction).
    pub(crate) fn demod(&self) -> &Demodulator {
        &self.demod
    }

    /// The demodulator, mutable (fleet lane write-back).
    pub(crate) fn demod_mut(&mut self) -> &mut Demodulator {
        &mut self.demod
    }

    /// First half of [`ConditioningChain::process`]: PLL references, AGC
    /// drive amplitude, and the primary drive sample. Split out so the
    /// fleet driver can run the demodulator as a batched lane kernel
    /// between the two stages; the scalar path composes the same pieces.
    #[inline]
    pub(crate) fn primary_stage(&mut self, primary: Q15) -> (Q15, Q15, Q15) {
        // Primary loop: PLL references + AGC drive amplitude.
        let (s, c) = self.pll.process(primary);
        let drive_amp = self.agc.process(primary, s, c);
        // Drive force in velocity phase (cos) — displacement then tracks sin.
        let primary_drive = Q15::from_f64(drive_amp).mul(c);
        (s, c, primary_drive)
    }

    /// Second half of [`ConditioningChain::process`]: consumes the
    /// demodulator emission (if this tick produced one) and finishes the
    /// output, rebalance, and re-modulation work.
    #[inline]
    pub(crate) fn finish_stage(
        &mut self,
        demod_out: Option<IqSample>,
        s: Q15,
        c: Q15,
        primary_drive: Q15,
    ) -> ChainDrive {
        // Sense path emission. dsp's Demodulator mixes i↔sin, q↔cos; for
        // the gyro the Coriolis (rate) term is velocity-phase (cos), so the
        // chain's rate channel is the demodulator's q output.
        let mut rate_sample = None;
        if let Some(out) = demod_out {
            self.baseband = IqSample {
                i: out.q, // rate
                q: out.i, // quadrature
            };
            rate_sample = Some(self.baseband);
        }

        let mut secondary_drive = Q15::ZERO;
        if let Some(bb) = rate_sample {
            self.heartbeat = self.heartbeat.wrapping_add(1);
            self.output_valid = true;
            let rate_before = self.rate_out;
            match self.config.mode {
                SenseMode::OpenLoop => {
                    // The Coriolis force is −2·k·Ω·v: a positive rate puts a
                    // *negative* cos component on the pickoff, so the output
                    // stage negates to give +5 mV/°/s like the datasheet.
                    let scaled = self.rate_gain.apply(bb.i.sat_neg());
                    let filtered = self.output_lp.process(scaled);
                    self.rate_out = self.config.compensator.apply(filtered);
                    self.quad_out = bb.q;
                }
                SenseMode::ClosedLoop => {
                    // Startup sequencing: the rebalance loop only engages
                    // once the PLL is locked — before that the demodulation
                    // axes rotate at the beat frequency and the integrators
                    // would wind up against a moving target.
                    if self.pll.is_locked() {
                        // Null both channels; the force is the measurement.
                        let ui = self.rebalance_i.update(-bb.i.to_f64());
                        let uq = self.rebalance_q.update(-bb.q.to_f64());
                        self.cmd = IqSample {
                            i: Q15::from_f64(ui),
                            q: Q15::from_f64(uq),
                        };
                    } else {
                        self.rebalance_i.reset();
                        self.rebalance_q.reset();
                        self.cmd = IqSample::default();
                    }
                    // Filter after scaling: at the ±500 °/s full-scale
                    // format the biquad's quantization is 7× smaller than
                    // on the raw command.
                    let scaled = self.rebalance_rate_gain.apply(self.cmd.i);
                    let filtered = self.output_lp.process(scaled);
                    self.rate_out = self.config.compensator.apply(filtered);
                    self.quad_out = self.cmd.q;
                }
            }
            let raw = self.rate_out.raw();
            if (raw == 32767 || raw == -32768) && raw != rate_before.raw() {
                self.saturation_events += 1;
            }
        }
        if self.config.mode == SenseMode::ClosedLoop {
            // Re-modulate the held commands onto the carrier every sample,
            // rotating the command vector by the phase-compensation angle so
            // the applied forces land on the physical axes despite the
            // pipeline + DAC-hold delay. Rate-nulling force goes on the cos
            // axis, quadrature-nulling on the sin axis.
            let (sin_th, cos_th) = self.config.rebalance_phase_rad.sin_cos();
            let ci = self.cmd.i.to_f64();
            let cq = self.cmd.q.to_f64();
            let rot = IqSample {
                i: Q15::from_f64(cq * cos_th + ci * sin_th), // sin axis
                q: Q15::from_f64(ci * cos_th - cq * sin_th), // cos axis
            };
            secondary_drive = self.modulator.process(rot, s, c);
        }

        ChainDrive {
            primary: primary_drive,
            secondary: secondary_drive,
            rate_out: self.rate_out,
        }
    }

    /// Publishes status into the shared register file and applies any
    /// control writes (call at the DSP output rate or slower).
    pub fn sync_registers(&mut self, regs: &SharedDspRegs) {
        let mut r = regs.borrow_mut();
        if r.take_control_dirty() {
            let ctrl = r.read(DspReg::Control);
            self.enabled = ctrl & 0b001 != 0;
            let closed = ctrl & 0b010 != 0;
            let want = if closed {
                SenseMode::ClosedLoop
            } else {
                SenseMode::OpenLoop
            };
            if want != self.config.mode {
                self.set_mode(want);
            }
        }
        let mut status = 0u16;
        if self.is_locked() {
            status |= 0b0001;
        }
        if self.is_settled() {
            status |= 0b0010;
        }
        if self.output_valid {
            status |= 0b0100;
        }
        if self.config.mode == SenseMode::ClosedLoop {
            status |= 0b1000;
        }
        r.set(DspReg::Status, status);
        let freq = self.pll.frequency().round() as u32;
        r.set(DspReg::PllFreqLo, freq as u16);
        r.set(DspReg::PllFreqHi, (freq >> 16) as u16);
        r.set(
            DspReg::AgcEnvelope,
            (self.agc.envelope().clamp(0.0, 1.999) * 32768.0) as u16,
        );
        r.set(
            DspReg::RateOut,
            self.rate_out.raw().clamp(-32768, 32767) as i16 as u16,
        );
        r.set(
            DspReg::QuadOut,
            self.quad_out.raw().clamp(-32768, 32767) as i16 as u16,
        );
        r.set(
            DspReg::PhaseError,
            ((self.pll.phase_error() * 32768.0).clamp(-32768.0, 32767.0)) as i16 as u16,
        );
        r.set(
            DspReg::DriveAmp,
            (self.agc.drive().clamp(0.0, 1.999) * 32768.0) as u16,
        );
        r.set(
            DspReg::Temperature,
            ((self.temperature + 50.0) * 10.0).clamp(0.0, 65535.0) as u16,
        );
        r.set(DspReg::Heartbeat, self.heartbeat);
    }

    /// A fresh chain whose AGC holds today's drive: no proportional
    /// gain, and an integrator that pegs at a drive limit equal to the
    /// current drive (the AGC-off ablation arm).
    ///
    /// # Panics
    ///
    /// Panics if the current drive is not positive.
    #[must_use]
    pub fn frozen_drive(&self) -> Self {
        let mut frozen = self.config.clone();
        frozen.agc.max_drive = self.drive();
        frozen.agc.kp = 0.0;
        frozen.agc.ki = 1.0e6; // integrator pegs at max_drive = fixed drive
        Self::new(frozen)
    }

    /// Serializes all loop state plus the run-time-mutable configuration
    /// (sense mode, rebalance phase trim, compensator polynomials). The
    /// other configuration — filter orders, loop gains, sample rates — is
    /// not written: a restore target must be built from the same
    /// [`ChainConfig`].
    ///
    /// The exception is the AGC gains, which [`ConditioningChain::frozen_drive`]
    /// changes after construction. `derived` is the AGC configuration the
    /// restore target is built with; when the gains differ from it, they
    /// follow the loop state as an `agcg` leaf. A chain at its derived
    /// gains writes no leaf.
    pub fn save_state(&self, w: &mut StateWriter, derived: &AgcConfig) {
        w.leaf("cfg ", |w| {
            w.put_u8(match self.config.mode {
                SenseMode::OpenLoop => 0,
                SenseMode::ClosedLoop => 1,
            });
            w.put_f64(self.config.rebalance_phase_rad);
        });
        w.leaf("comp", |w| self.config.compensator.save_state(w));
        w.leaf("pll ", |w| self.pll.save_state(w));
        w.leaf("agc ", |w| self.agc.save_state(w));
        w.leaf("demd", |w| self.demod.save_state(w));
        w.leaf("rbli", |w| self.rebalance_i.save_state(w));
        w.leaf("rblq", |w| self.rebalance_q.save_state(w));
        w.leaf("olp ", |w| self.output_lp.save_state(w));
        w.leaf("loop", |w| {
            w.put_i32(self.cmd.i.raw());
            w.put_i32(self.cmd.q.raw());
            w.put_i32(self.baseband.i.raw());
            w.put_i32(self.baseband.q.raw());
            w.put_i32(self.rate_out.raw());
            w.put_i32(self.quad_out.raw());
            w.put_u16(self.heartbeat);
            w.put_bool(self.enabled);
            w.put_bool(self.output_valid);
            w.put_f64(self.temperature);
            w.put_u64(self.saturation_events);
        });
        let agc = &self.config.agc;
        if (agc.kp, agc.ki, agc.max_drive) != (derived.kp, derived.ki, derived.max_drive) {
            w.leaf("agcg", |w| {
                w.put_f64(agc.kp);
                w.put_f64(agc.ki);
                w.put_f64(agc.max_drive);
            });
        }
    }

    /// Restores state saved by [`ConditioningChain::save_state`],
    /// including AGC gains when the section carries them.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] on an unknown sense-mode tag, a
    /// non-finite phase trim, or AGC gains that are negative or not finite
    /// (or a drive limit of zero); propagates errors from the sub-blocks.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let (mode, phase) = r.leaf("cfg ", |r| {
            let mode = match r.take_u8()? {
                0 => SenseMode::OpenLoop,
                1 => SenseMode::ClosedLoop,
                tag => {
                    return Err(SnapshotError::Corrupt {
                        context: format!("unknown sense-mode tag {tag}"),
                    })
                }
            };
            let phase = r.take_f64()?;
            if !phase.is_finite() {
                return Err(SnapshotError::Corrupt {
                    context: format!("rebalance phase {phase} not finite"),
                });
            }
            Ok((mode, phase))
        })?;
        self.config.mode = mode;
        self.config.rebalance_phase_rad = phase;
        let comp = &mut self.config.compensator;
        r.leaf("comp", |r| comp.load_state(r))?;
        let pll = &mut self.pll;
        r.leaf("pll ", |r| pll.load_state(r))?;
        let agc = &mut self.agc;
        r.leaf("agc ", |r| agc.load_state(r))?;
        let demod = &mut self.demod;
        r.leaf("demd", |r| demod.load_state(r))?;
        let rebalance_i = &mut self.rebalance_i;
        r.leaf("rbli", |r| rebalance_i.load_state(r))?;
        let rebalance_q = &mut self.rebalance_q;
        r.leaf("rblq", |r| rebalance_q.load_state(r))?;
        let output_lp = &mut self.output_lp;
        r.leaf("olp ", |r| output_lp.load_state(r))?;
        let (cmd, baseband, rate_out, quad_out, heartbeat, enabled, output_valid, temp, sats) =
            r.leaf("loop", |r| {
                Ok((
                    IqSample {
                        i: Q15::from_raw(r.take_i32()?),
                        q: Q15::from_raw(r.take_i32()?),
                    },
                    IqSample {
                        i: Q15::from_raw(r.take_i32()?),
                        q: Q15::from_raw(r.take_i32()?),
                    },
                    Q15::from_raw(r.take_i32()?),
                    Q15::from_raw(r.take_i32()?),
                    r.take_u16()?,
                    r.take_bool()?,
                    r.take_bool()?,
                    r.take_f64()?,
                    r.take_u64()?,
                ))
            })?;
        self.cmd = cmd;
        self.baseband = baseband;
        self.rate_out = rate_out;
        self.quad_out = quad_out;
        self.heartbeat = heartbeat;
        self.enabled = enabled;
        self.output_valid = output_valid;
        self.temperature = temp;
        self.saturation_events = sats;
        if !r.is_exhausted() {
            let (kp, ki, max_drive) = r.leaf("agcg", |r| {
                let (kp, ki, max_drive) = (r.take_f64()?, r.take_f64()?, r.take_f64()?);
                let gain = |g: f64| g.is_finite() && g >= 0.0;
                if !(gain(kp) && gain(ki) && gain(max_drive) && max_drive > 0.0) {
                    return Err(SnapshotError::Corrupt {
                        context: format!(
                            "AGC gains kp {kp}, ki {ki}, max drive {max_drive} not physical"
                        ),
                    });
                }
                Ok((kp, ki, max_drive))
            })?;
            self.agc.set_gains(kp, ki, max_drive);
            self.config.agc = *self.agc.config();
        }
        Ok(())
    }

    /// Resets all loop state (power-on).
    pub fn reset(&mut self) {
        self.pll.reset();
        self.agc.reset();
        self.demod.reset();
        self.output_lp.reset();
        self.rebalance_i.reset();
        self.rebalance_q.reset();
        self.cmd = IqSample::default();
        self.baseband = IqSample::default();
        self.rate_out = Q15::ZERO;
        self.quad_out = Q15::ZERO;
        self.heartbeat = 0;
        self.output_valid = false;
        self.saturation_events = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registers::shared_dsp_regs;

    #[test]
    fn scaled_gain_round_trips() {
        for g in [0.001, 0.37, 1.0, 7.24, 123.4] {
            let sg = ScaledGain::new(g);
            assert!((sg.value() - g).abs() / g < 1e-6, "gain {g}");
        }
    }

    #[test]
    fn scaled_gain_applies_correctly() {
        let sg = ScaledGain::new(7.24);
        let y = sg.apply(Q15::from_f64(0.05));
        assert!((y.to_f64() - 0.362).abs() < 1e-3, "got {}", y.to_f64());
        let down = ScaledGain::new(0.125);
        let y = down.apply(Q15::from_f64(0.8));
        assert!((y.to_f64() - 0.1).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn scaled_gain_rejects_zero() {
        let _ = ScaledGain::new(0.0);
    }

    /// Synthetic carrier test: the chain locks to a clean electrical
    /// carrier and reports a rate proportional to the AM depth.
    fn run_synthetic(rate_frac: f64, n: usize) -> ConditioningChain {
        let mut cfg = ChainConfig::default();
        cfg.rate_gain = 1.0;
        let mut chain = ConditioningChain::new(cfg);
        let fs = 250_000.0;
        let f = 15_000.0;
        let w = 2.0 * std::f64::consts::PI * f;
        for k in 0..n {
            let th = w * k as f64 / fs;
            // Primary pickoff: displacement-like sin at the AGC setpoint.
            let primary = Q15::from_f64(0.8 * th.sin());
            // Secondary: rate AM on the velocity-phase axis with the
            // physical Coriolis sign (−cos for a positive rate).
            let secondary = Q15::from_f64(-rate_frac * th.cos());
            chain.process(primary, secondary);
        }
        chain
    }

    #[test]
    fn chain_locks_on_synthetic_carrier() {
        let chain = run_synthetic(0.0, 120_000);
        assert!(chain.is_locked(), "no lock");
        assert!((chain.frequency() - 15_000.0).abs() < 5.0);
    }

    #[test]
    fn rate_lands_on_rate_channel() {
        let chain = run_synthetic(0.2, 120_000);
        assert!(
            (chain.rate_out().to_f64() - 0.2).abs() < 0.02,
            "rate {}",
            chain.rate_out().to_f64()
        );
        assert!(
            chain.quad_out().to_f64().abs() < 0.02,
            "quad {}",
            chain.quad_out().to_f64()
        );
    }

    #[test]
    fn registers_reflect_status() {
        let mut chain = run_synthetic(0.1, 120_000);
        let regs = shared_dsp_regs();
        chain.sync_registers(&regs);
        let r = regs.borrow();
        assert_eq!(r.read(DspReg::Status) & 0b101, 0b101, "locked+valid");
        let freq =
            u32::from(r.read(DspReg::PllFreqLo)) | (u32::from(r.read(DspReg::PllFreqHi)) << 16);
        assert!((freq as f64 - 15_000.0).abs() < 10.0, "freq reg {freq}");
        let rate = r.read(DspReg::RateOut) as i16;
        assert!((f64::from(rate) / 32768.0 - 0.1).abs() < 0.02);
    }

    #[test]
    fn control_register_switches_mode() {
        let mut chain = ConditioningChain::new(ChainConfig::default());
        let regs = shared_dsp_regs();
        regs.borrow_mut().bus_write(DspReg::Control.addr(), 0b011);
        chain.sync_registers(&regs);
        assert_eq!(chain.mode(), SenseMode::ClosedLoop);
        assert_eq!(regs.borrow().read(DspReg::Status) & 0b1000, 0b1000);
        regs.borrow_mut().bus_write(DspReg::Control.addr(), 0b001);
        chain.sync_registers(&regs);
        assert_eq!(chain.mode(), SenseMode::OpenLoop);
    }

    #[test]
    fn disable_via_control_stops_drive() {
        let mut chain = ConditioningChain::new(ChainConfig::default());
        let regs = shared_dsp_regs();
        regs.borrow_mut().bus_write(DspReg::Control.addr(), 0b000);
        chain.sync_registers(&regs);
        let out = chain.process(Q15::from_f64(0.5), Q15::ZERO);
        assert_eq!(out, ChainDrive::default());
    }

    #[test]
    fn compensator_removes_known_offset() {
        let mut cfg = ChainConfig::default();
        cfg.compensator = Compensator::new(
            // The +cos electrical offset lands on the (negated) rate
            // channel as −0.05.
            ascp_dsp::comp::TempPolynomial::constant(-0.05),
            ascp_dsp::comp::TempPolynomial::constant(1.0),
        );
        let mut chain = ConditioningChain::new(cfg);
        let fs = 250_000.0;
        let w = 2.0 * std::f64::consts::PI * 15_000.0;
        for k in 0..120_000 {
            let th = w * k as f64 / fs;
            let primary = Q15::from_f64(0.8 * th.sin());
            let secondary = Q15::from_f64(0.05 * th.cos()); // pure offset
            chain.process(primary, secondary);
        }
        assert!(
            chain.rate_out().to_f64().abs() < 0.01,
            "offset survived: {}",
            chain.rate_out().to_f64()
        );
    }

    #[test]
    fn reset_clears_outputs() {
        let mut chain = run_synthetic(0.2, 60_000);
        chain.reset();
        assert_eq!(chain.rate_out(), Q15::ZERO);
        assert!(!chain.is_locked());
    }

    #[test]
    fn rate_dps_scaling() {
        let mut chain = ConditioningChain::new(ChainConfig::default());
        chain.rate_out = Q15::from_f64(0.2);
        assert!((chain.rate_dps() - 100.0).abs() < 0.1);
    }
}
