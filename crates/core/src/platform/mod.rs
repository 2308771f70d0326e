//! Full mixed-signal platform co-simulation.
//!
//! This is the paper's Fig. 2 instantiated for the gyro case study
//! (§4.2): MEMS ring → charge amplifiers → anti-alias filters → PGAs →
//! SAR ADCs → hardwired DSP chain → drive/rebalance/rate DACs → back to the
//! MEMS electrodes, with the 8051 monitoring CPU on its bridge and the JTAG
//! chain configuring the AFE. The multi-rate schedule mirrors the hardware:
//! the gyro ODE integrates at `dsp_rate × analog_oversample` (the
//! VHDL-AMS/analog solver), the DSP at `dsp_rate`, the CPU at its own
//! 20 MHz/12 machine-cycle rate, and register synchronization at a slow
//! monitoring cadence.
//!
//! One file per seam:
//!
//! - `mod.rs` — the [`Platform`] struct, construction, accessors and the
//!   tick ([`Platform::step`], [`Platform::step_block`]);
//! - `config.rs` — [`PlatformConfig`], its builder, [`ConfigError`] and
//!   [`PlatformVariant`];
//! - `monitor.rs` — the 1 kHz monitoring service: fault edges, link
//!   probes, the supervisor poll, flight-recorder triggers, the telemetry
//!   scrape and AFE register application;
//! - `state.rs` — checkpoint save/load and power-on reset;
//! - `measure.rs` — [`Platform::run`], [`Platform::wait_for_ready`],
//!   [`Platform::run_traces`], the sampling loops and the
//!   [`RateSensor`](crate::characterize::RateSensor) impl;
//! - `fleet.rs` — the lockstep [`PlatformFleet`].

mod config;
mod fleet;
mod measure;
mod monitor;
mod state;

pub use config::{ConfigError, PlatformConfig, PlatformConfigBuilder, PlatformVariant};
pub use fleet::{FleetIneligible, PlatformFleet};

use crate::chain::{ChainConfig, ChainDrive, ConditioningChain};
use crate::firmware;
use crate::registers::{
    shared_afe_regs, shared_dsp_regs, AfeRegsJtag, DspRegsBus16, DspRegsJtag, SharedAfeRegs,
    SharedDspRegs,
};
use crate::supervisor::SafetySupervisor;
use ascp_afe::adc::{AdcConfig, SarAdc};
use ascp_afe::amp::{ChargeAmplifier, Pga};
use ascp_afe::dac::{Dac, DacConfig};
use ascp_afe::filter::AntiAliasFilter;
use ascp_afe::refs::VoltageReference;
use ascp_afe::regs::AfeReg;
use ascp_dsp::fixed::Q15;
use ascp_jtag::chain::JtagChain;
use ascp_jtag::device::RegAccessDevice;
use ascp_mcu8051::cpu::Cpu;
use ascp_mcu8051::periph::SystemBus;
use ascp_sim::fault::FaultEdge;
use ascp_sim::telemetry::trace::TraceRecorder;
use ascp_sim::telemetry::{CaptureBundle, FlightRecorder, SignalFrame, Telemetry};
use ascp_sim::units::{Celsius, DegPerSec, Volts};

/// JTAG chain indices of the platform's TAPs.
pub mod taps {
    /// The AFE configuration bank.
    pub const AFE: usize = 0;
    /// The DSP status/control bank.
    pub const DSP: usize = 1;
}

/// The full platform.
pub struct Platform {
    config: PlatformConfig,
    gyro: ascp_mems::gyro::RingGyro,
    charge_pri: ChargeAmplifier,
    charge_sec: ChargeAmplifier,
    aaf_pri: AntiAliasFilter,
    aaf_sec: AntiAliasFilter,
    pga_pri: Pga,
    pga_sec: Pga,
    adc_pri: SarAdc,
    adc_sec: SarAdc,
    drive_dac: Dac,
    rebalance_dac: Dac,
    rate_dac: Dac,
    vref: VoltageReference,
    chain: ConditioningChain,
    dsp_regs: SharedDspRegs,
    afe_regs: SharedAfeRegs,
    jtag: JtagChain,
    cpu: Cpu,
    bus: SystemBus,
    cpu_cycle_debt: f64,
    /// Cached `1 / dsp_rate` (set at construction; the rate is fixed).
    dsp_dt: f64,
    /// Cached `dsp_dt / analog_oversample` (set at construction).
    sub_dt: f64,
    /// Cached CPU machine cycles accrued per DSP tick (20 MHz / 12).
    cpu_cycles_per_tick: f64,
    /// Monitoring-cadence period in DSP ticks (1 kHz).
    monitor_period: u64,
    /// Ticks until the next monitoring-cadence service (countdown replaces
    /// a per-tick modulo on the hot path).
    monitor_countdown: u64,
    /// Cached `!config.faults.is_empty()` (the plan is fixed per run).
    faults_active: bool,
    /// Held drive forces between DAC updates (DAC units, ±1).
    drive_force: f64,
    rebalance_force: f64,
    tick: u64,
    temperature: Celsius,
    watchdog_resets: u32,
    telemetry: Telemetry,
    /// Scrape state for delta-based event emission (monitoring cadence).
    last_locked: bool,
    last_clips_pri: u64,
    last_clips_sec: u64,
    last_wd_resets: u32,
    last_uart_tx: u64,
    uart_was_idle: bool,
    last_dsp_writes: u64,
    last_afe_writes: u64,
    agc_settled_seen: bool,
    /// Safety supervisor (polled at the monitoring cadence).
    supervisor: SafetySupervisor,
    /// Reusable fault-edge buffer (no per-tick allocation).
    fault_edges: Vec<FaultEdge>,
    /// Multiplier on the MEMS drive force (0.0 while drive-loss faulted).
    drive_gate: f64,
    /// Multiplier on both pickoff signals (0.0 while disconnected).
    pickoff_gate: f64,
    /// ADC window extrema for the supervisor's plausibility checks
    /// (reset every monitor tick).
    pri_min: f64,
    pri_max: f64,
    sec_min: f64,
    sec_max: f64,
    /// Supervisor delta-tracking scrape state.
    last_sup_clips: u64,
    last_sup_wd: u32,
    last_spi_errors: u64,
    last_uart_errors: u64,
    last_jtag_errors: u64,
    /// IDCODE probe mismatches observed by the JTAG chain probe.
    jtag_probe_errors: u64,
    /// Monitoring-cadence tick counter (probe scheduling).
    monitor_ticks: u64,
    /// CpuHang fault currently latched (re-asserted after watchdog reset).
    cpu_hang_active: bool,
    /// Supervisor forced the chain open loop (restored on recovery).
    open_loop_forced: bool,
    /// Black-box flight recorder (`None` unless armed by config).
    /// Observability only: excluded from checkpoints and config digests.
    recorder: Option<FlightRecorder>,
    /// Attached span recorder (campaign tracing). Observability only.
    trace: Option<TraceRecorder>,
    /// Supervisor `(from, to)` transitions in order. Observability only:
    /// never checkpointed, so a restored platform starts empty.
    transitions: Vec<(&'static str, &'static str)>,
}

impl std::fmt::Debug for Platform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Platform")
            .field("tick", &self.tick)
            .field("temperature", &self.temperature)
            .field("mode", &self.chain.mode())
            .field("locked", &self.chain.is_locked())
            .finish()
    }
}

impl Platform {
    /// Builds and wires the whole platform at 25 °C, zero rate, at rest.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(config: PlatformConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let seed = config.seed;
        let gyro = ascp_mems::gyro::RingGyro::new(config.gyro);

        let chain = ConditioningChain::new(Self::chain_config(&config));

        let dsp_regs = shared_dsp_regs();
        let afe_regs = shared_afe_regs();
        {
            let mut afe = afe_regs.borrow_mut();
            afe.write(
                AfeReg::PgaSecondaryGain,
                u16::from(config.secondary_pga_code),
            )
            .expect("valid gain code");
            afe.write(AfeReg::AdcBits, config.adc.bits as u16)
                .expect("valid ADC bits");
        }

        // JTAG chain over both register banks (device 0 nearest TDO).
        let jtag = JtagChain::new(vec![
            Box::new(RegAccessDevice::new(
                0x0a5c_0af1,
                AfeRegsJtag(afe_regs.clone()),
            )),
            Box::new(RegAccessDevice::new(
                0x0a5c_0d51,
                DspRegsJtag(dsp_regs.clone()),
            )),
        ]);

        // CPU subsystem.
        let mut bus = SystemBus::new();
        bus.dsp = Some(Box::new(DspRegsBus16(dsp_regs.clone())));
        let mut cpu = Cpu::new();
        let image = config.firmware.clone().unwrap_or_else(|| {
            match config.variant {
                PlatformVariant::Asic => firmware::monitor_image(),
                PlatformVariant::Prototype => firmware::uart_boot_image(),
            }
            .expect("built-in firmware assembles")
        });
        cpu.load_code(&image);

        let mut platform = Self {
            gyro,
            charge_pri: ChargeAmplifier::new(config.charge_gain, 50.0e-6, seed ^ 0x11),
            charge_sec: ChargeAmplifier::new(config.charge_gain, 50.0e-6, seed ^ 0x22),
            aaf_pri: AntiAliasFilter::butterworth(config.aaf_corner),
            aaf_sec: AntiAliasFilter::butterworth(config.aaf_corner),
            pga_pri: Pga::new(200_000.0, 100.0e-6, 2.0e-6, 20.0e-6, seed ^ 0x33),
            pga_sec: Pga::new(200_000.0, 100.0e-6, 2.0e-6, 20.0e-6, seed ^ 0x44),
            adc_pri: SarAdc::new(AdcConfig {
                seed: seed ^ 0x55,
                ..config.adc
            }),
            adc_sec: SarAdc::new(AdcConfig {
                seed: seed ^ 0x66,
                ..config.adc
            }),
            drive_dac: Dac::new(DacConfig {
                seed: seed ^ 0x77,
                ..config.drive_dac
            }),
            rebalance_dac: Dac::new(DacConfig {
                seed: seed ^ 0x88,
                ..config.rebalance_dac
            }),
            rate_dac: Dac::new(DacConfig {
                seed: seed ^ 0x99,
                ..config.rate_dac
            }),
            vref: VoltageReference::bandgap_2v5(seed ^ 0xaa),
            chain,
            dsp_regs,
            afe_regs,
            jtag,
            cpu,
            bus,
            cpu_cycle_debt: 0.0,
            dsp_dt: 1.0 / config.dsp_rate.0,
            sub_dt: 1.0 / config.dsp_rate.0 / f64::from(config.analog_oversample),
            cpu_cycles_per_tick: 20.0e6 / 12.0 / config.dsp_rate.0,
            monitor_period: (config.dsp_rate.0 as u64 / 1000).max(1),
            monitor_countdown: (config.dsp_rate.0 as u64 / 1000).max(1),
            faults_active: !config.faults.is_empty(),
            drive_force: 0.0,
            rebalance_force: 0.0,
            tick: 0,
            temperature: Celsius(25.0),
            watchdog_resets: 0,
            telemetry: Telemetry::new(config.telemetry.clone()),
            last_locked: false,
            last_clips_pri: 0,
            last_clips_sec: 0,
            last_wd_resets: 0,
            last_uart_tx: 0,
            uart_was_idle: true,
            last_dsp_writes: 0,
            last_afe_writes: 0,
            agc_settled_seen: false,
            supervisor: SafetySupervisor::new(config.supervisor.clone()),
            fault_edges: Vec::new(),
            drive_gate: 1.0,
            pickoff_gate: 1.0,
            pri_min: f64::INFINITY,
            pri_max: f64::NEG_INFINITY,
            sec_min: f64::INFINITY,
            sec_max: f64::NEG_INFINITY,
            last_sup_clips: 0,
            last_sup_wd: 0,
            last_spi_errors: 0,
            last_uart_errors: 0,
            last_jtag_errors: 0,
            jtag_probe_errors: 0,
            monitor_ticks: 0,
            cpu_hang_active: false,
            open_loop_forced: false,
            recorder: config
                .telemetry
                .recorder
                .armed()
                .then(|| FlightRecorder::new(config.telemetry.recorder.clone())),
            trace: None,
            transitions: Vec::new(),
            config,
        };
        platform.apply_afe_registers();
        platform
    }

    /// The conditioning chain's configuration, dimensioned from the
    /// component values.
    fn chain_config(config: &PlatformConfig) -> ChainConfig {
        let mut chain_cfg = ChainConfig::default();
        chain_cfg.pll.sample_rate = config.dsp_rate.0;
        chain_cfg.pll.center_freq = config.gyro.f0.0;
        chain_cfg.agc.sample_rate = config.dsp_rate.0;
        chain_cfg.agc.setpoint =
            config.gyro.nominal_amplitude * config.charge_gain / config.adc.vref.0;
        chain_cfg.mode = config.mode;
        chain_cfg.rate_gain = config.open_loop_rate_gain();
        chain_cfg.rebalance_rate_gain = config.closed_loop_rate_gain();
        // Phase-compensate the force-feedback path: one DSP tick of
        // pipeline plus half a tick of DAC hold at the carrier frequency.
        chain_cfg.rebalance_phase_rad =
            -2.0 * std::f64::consts::PI * config.gyro.f0.0 * 1.5 / config.dsp_rate.0;
        chain_cfg
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// Applies a yaw rate stimulus.
    pub fn set_rate(&mut self, rate: DegPerSec) {
        self.gyro.set_rate(rate);
    }

    /// Applied yaw rate.
    #[must_use]
    pub fn rate(&self) -> DegPerSec {
        self.gyro.rate()
    }

    /// Sets ambient temperature across sensor and AFE.
    pub fn set_temperature(&mut self, t: Celsius) {
        self.temperature = t;
        self.gyro.set_temperature(t);
        self.pga_pri.set_temperature(t);
        self.pga_sec.set_temperature(t);
        self.vref.set_temperature(t);
        self.afe_regs.borrow_mut().set_temp_sensor(t.0);
        // The chain reads the (quantized) sensor register, as hardware does.
        let sensed = self.afe_regs.borrow().temp_celsius();
        self.chain.set_temperature(sensed);
    }

    /// Current ambient temperature.
    #[must_use]
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// The conditioning chain (status inspection).
    #[must_use]
    pub fn chain(&self) -> &ConditioningChain {
        &self.chain
    }

    /// Mutable chain access (calibration installs compensators here).
    pub fn chain_mut(&mut self) -> &mut ConditioningChain {
        &mut self.chain
    }

    /// The JTAG chain (AFE/DSP configuration and read-back).
    pub fn jtag_mut(&mut self) -> &mut JtagChain {
        &mut self.jtag
    }

    /// Shared DSP register handle (host-side monitoring).
    #[must_use]
    pub fn dsp_regs(&self) -> SharedDspRegs {
        self.dsp_regs.clone()
    }

    /// Shared AFE register handle.
    #[must_use]
    pub fn afe_regs(&self) -> SharedAfeRegs {
        self.afe_regs.clone()
    }

    /// The monitor CPU.
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// The CPU's peripheral bus (SPI/EEPROM/SRAM access).
    pub fn bus_mut(&mut self) -> &mut SystemBus {
        &mut self.bus
    }

    /// Rate output voltage (the datasheet-characterized analog output).
    #[must_use]
    pub fn rate_output(&self) -> Volts {
        self.rate_dac.held()
    }

    /// Rate output decoded to °/s using the nominal 5 mV/°/s, 2.5 V-null
    /// transfer (what a customer's ECU would compute).
    #[must_use]
    pub fn rate_output_dps(&self) -> f64 {
        (self.rate_output().0 - self.config.rate_dac.midscale.0) / 0.005
    }

    /// Watchdog-triggered CPU resets observed so far.
    #[must_use]
    pub fn watchdog_resets(&self) -> u32 {
        self.watchdog_resets
    }

    /// The safety supervisor (state and directives inspection).
    #[must_use]
    pub fn supervisor(&self) -> &SafetySupervisor {
        &self.supervisor
    }

    /// IDCODE probe mismatches observed so far (JTAG chain integrity).
    #[must_use]
    pub fn jtag_probe_errors(&self) -> u64 {
        self.jtag_probe_errors
    }

    /// The supervised rate estimate: `(value_dps, stale)`. While the
    /// supervisor trusts the live output this is the decoded DAC value;
    /// degraded, it holds the last rate observed healthy and flags it
    /// stale (the graceful-degradation output contract).
    #[must_use]
    pub fn supervised_rate_dps(&self) -> (f64, bool) {
        match self.supervisor.rate_estimate() {
            Some((held, _)) => (held, true),
            None => (self.rate_output_dps(), false),
        }
    }

    /// Number of DSP ticks executed.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Simulated time (s).
    #[must_use]
    pub fn time(&self) -> f64 {
        self.tick as f64 / self.config.dsp_rate.0
    }

    /// Attaches a span recorder: subsequent blocked runs emit `step_block`
    /// spans and supervisor transitions become instant markers.
    pub fn attach_trace(&mut self, trace: TraceRecorder) {
        self.trace = Some(trace);
    }

    /// Detaches and returns the span recorder, when one is attached.
    pub fn take_trace(&mut self) -> Option<TraceRecorder> {
        self.trace.take()
    }

    /// Mutable access to the attached span recorder.
    pub fn trace_mut(&mut self) -> Option<&mut TraceRecorder> {
        self.trace.as_mut()
    }

    /// Supervisor `(from, to)` state transitions since construction, in
    /// order. Unlike the bounded telemetry event ring, nothing evicts
    /// them and they are kept with telemetry off. Like telemetry they are
    /// not checkpointed: a [`checkpoint::restore`](crate::checkpoint::restore)d
    /// platform starts with an empty list.
    #[must_use]
    pub fn transitions(&self) -> &[(&'static str, &'static str)] {
        &self.transitions
    }

    /// The flight recorder, when armed.
    #[must_use]
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// Removes and returns the flight recorder's frozen capture (re-arming
    /// the ring empty), when a trigger has fired.
    pub fn take_capture(&mut self) -> Option<CaptureBundle> {
        self.recorder
            .as_mut()
            .and_then(FlightRecorder::take_capture)
    }

    /// Advances `n` DSP ticks as one blocked kernel call.
    ///
    /// Semantically identical to calling [`Platform::step`] `n` times (the
    /// campaign determinism contract depends on that), but the per-tick
    /// loop runs through the inlined tick body with every run invariant —
    /// `dsp_dt`, `sub_dt`, the per-run noise sigmas, the fault-plan
    /// emptiness flag and the monitoring-cadence countdown — already
    /// hoisted into fields, so the run-scale entry points ([`Platform::run`],
    /// [`Platform::run_traces`], the sampling loops and the campaign Step
    /// executor) pay no per-call setup or dispatch per tick. With a span
    /// recorder attached, a block of 256 ticks or more is one `step_block`
    /// span carrying its tick count.
    pub fn step_block(&mut self, n: u64) {
        let span = if n >= Self::TRACE_BLOCK_MIN_TICKS {
            let t0 = self.time();
            self.trace.as_mut().map(|tr| tr.begin("step_block", t0))
        } else {
            None
        };
        for _ in 0..n {
            self.step();
        }
        if let Some(id) = span {
            let t1 = self.time();
            if let Some(tr) = self.trace.as_mut() {
                tr.annotate(id, "ticks", n.to_string());
                tr.end(id, t1);
            }
        }
    }

    /// Blocks shorter than this are not worth a span: the per-sample loops
    /// (50-tick decimation blocks) would otherwise explode the trace.
    const TRACE_BLOCK_MIN_TICKS: u64 = 256;

    /// Advances one DSP tick (analog substeps + conversion + chain + DACs +
    /// CPU slice). Returns the chain drive outputs of this tick.
    #[inline]
    pub fn step(&mut self) -> ChainDrive {
        let dsp_dt = self.dsp_dt;
        let sub = self.config.analog_oversample;
        let sub_dt = self.sub_dt;
        // Fault engine: a single branch per tick when no faults are
        // scheduled (the common case).
        if self.faults_active {
            self.apply_faults();
        }

        // Analog solver substeps with held DAC outputs.
        let mut v_pri = Volts(0.0);
        let mut v_sec = Volts(0.0);
        for _ in 0..sub {
            let pick = self
                .gyro
                .step(self.drive_force, self.rebalance_force, sub_dt);
            v_pri = self.aaf_pri.process(
                self.charge_pri.convert(pick.primary * self.pickoff_gate),
                sub_dt,
            );
            v_sec = self.aaf_sec.process(
                self.charge_sec.convert(pick.secondary * self.pickoff_gate),
                sub_dt,
            );
        }

        // Acquisition at the DSP rate.
        let pri_amp = self.pga_pri.process(v_pri, dsp_dt);
        let sec_amp = self.pga_sec.process(v_sec, dsp_dt);
        let pri_q = self.adc_pri.convert_q15(pri_amp);
        let sec_q = self.adc_sec.convert_q15(sec_amp);
        if self.config.supervisor.enabled {
            let pf = pri_q.to_f64();
            let sf = sec_q.to_f64();
            self.pri_min = self.pri_min.min(pf);
            self.pri_max = self.pri_max.max(pf);
            self.sec_min = self.sec_min.min(sf);
            self.sec_max = self.sec_max.max(sf);
        }

        // Hardwired DSP.
        let drive = self.chain.process(pri_q, sec_q);

        // Drive DACs (forces normalized to DAC full scale). The drive gate
        // models a broken drive electrode; the safe-output directive parks
        // the customer-facing rate DAC at mid-scale.
        let vref = self.config.drive_dac.vref.0;
        self.drive_force = self.drive_dac.write_q15(drive.primary).0 / vref * self.drive_gate;
        self.rebalance_force = self.rebalance_dac.write_q15(drive.secondary).0 / vref;
        let rate_word = if self.supervisor.wants_safe_output() {
            Q15::ZERO
        } else {
            drive.rate_out
        };
        self.rate_dac.write_q15(rate_word);

        // Real-time SRAM capture of the rate stream (prototype analysis).
        self.bus
            .sram
            .capture(drive.rate_out.raw().clamp(-32768, 32767) as i16 as u16);

        // Flight recorder: one frame per tick into the pre-trigger ring
        // (a no-op branch unless armed, and frozen rings stop recording).
        if let Some(rec) = self.recorder.as_mut() {
            rec.record(SignalFrame {
                t: self.tick as f64 * dsp_dt,
                rate_dps: (self.rate_dac.held().0 - self.config.rate_dac.midscale.0) / 0.005,
                demod_i: drive.rate_out.to_f64(),
                demod_q: self.chain.quad_out().to_f64(),
                agc_drive: self.chain.drive(),
                supervisor_state: self.supervisor.state().tag(),
            });
        }

        // CPU slice: 20 MHz / 12 machine cycles per second.
        if self.config.cpu_enabled {
            self.cpu_cycle_debt += self.cpu_cycles_per_tick;
            while self.cpu_cycle_debt >= 1.0 {
                // Busy-wait loops retire in bulk, as many executions as
                // the steps below would run this tick. While the watchdog
                // is armed, the bound leaves it unexpired, so an expiry
                // always goes through `step` and the reset path.
                let per = if self.cpu.is_hung() { 1 } else { 2 };
                let mut max = (self.cpu_cycle_debt - 1.0) as u64 / per + 1;
                if let Some(left) = self.bus.watchdog.cycles_left() {
                    max = max.min(u64::from(left.saturating_sub(1)) / per);
                }
                let retired = self.cpu.retire_spin(max);
                if retired > 0 {
                    let spent = retired * per;
                    self.cpu_cycle_debt -= spent as f64;
                    self.bus.watchdog.tick(spent as u32);
                    continue;
                }
                let spent = self.cpu.step(&mut self.bus);
                self.cpu_cycle_debt -= f64::from(spent);
                if self.bus.watchdog.tick(spent) && self.bus.watchdog.auto_reset() {
                    // Safety reset: restart the firmware. A latched-up CPU
                    // (CpuHang fault) re-hangs immediately — the bounded
                    // retry budget in the supervisor decides when to stop.
                    self.cpu.reset();
                    self.watchdog_resets += 1;
                    if self.cpu_hang_active {
                        self.cpu.set_hung(true);
                    }
                }
            }
            for (addr, byte) in self.bus.cache.take_writes() {
                self.cpu.code_write(addr, byte);
            }
        }

        self.tick += 1;
        // Slow monitoring cadence: registers + AFE application + safety
        // supervision at 1 kHz. A countdown replaces the per-tick modulo.
        self.monitor_countdown -= 1;
        if self.monitor_countdown == 0 {
            self.monitor_service();
        }
        drive
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::SenseMode;
    use ascp_sim::fault::{AdcChannel, FaultKind};
    use ascp_sim::snapshot::{StateReader, StateWriter};
    use ascp_sim::stats;
    use ascp_sim::units::Hertz;

    #[test]
    fn platform_locks_and_reports_ready() {
        let mut p = Platform::new(PlatformConfig::builder().quiet().build().expect("valid"));
        let ready = p.wait_for_ready(2.0);
        assert!(ready.is_some(), "platform never became ready");
        let t = ready.expect("checked").0;
        assert!(t > 0.05 && t < 1.5, "turn-on time {t} implausible");
        assert!((p.chain().frequency() - 15_000.0).abs() < 20.0);
    }

    #[test]
    fn rate_output_tracks_stimulus() {
        let mut p = Platform::new(PlatformConfig::builder().quiet().build().expect("valid"));
        p.wait_for_ready(2.0).expect("ready");
        p.set_rate(DegPerSec(100.0));
        let samples = p.sample_rate_output(0.4, 200);
        let mean = stats::mean(&samples);
        assert!(
            (mean.abs() - 100.0).abs() < 10.0,
            "rate output {mean} for 100 °/s"
        );
    }

    #[test]
    fn rate_output_sign_symmetry() {
        let mut p = Platform::new(PlatformConfig::builder().quiet().build().expect("valid"));
        p.wait_for_ready(2.0).expect("ready");
        p.set_rate(DegPerSec(150.0));
        let plus = stats::mean(&p.sample_rate_output(0.4, 100));
        p.set_rate(DegPerSec(-150.0));
        let minus = stats::mean(&p.sample_rate_output(0.4, 100));
        assert!(plus * minus < 0.0, "no sign flip: {plus} / {minus}");
        assert!(
            ((plus + minus) / plus).abs() < 0.2,
            "asymmetry: {plus} vs {minus}"
        );
    }

    #[test]
    fn null_output_near_midscale() {
        let mut p = Platform::new(PlatformConfig::builder().quiet().build().expect("valid"));
        p.wait_for_ready(2.0).expect("ready");
        let samples = p.sample_rate_output(0.3, 100);
        let null_v = 2.5 + stats::mean(&samples) * 0.005;
        assert!((null_v - 2.5).abs() < 0.2, "null at {null_v} V");
    }

    #[test]
    fn cpu_monitor_reports_lock_over_uart() {
        let c = PlatformConfig::builder()
            .quiet()
            .cpu_enabled(true)
            .build()
            .expect("valid");
        let mut p = Platform::new(c);
        p.wait_for_ready(2.0).expect("ready");
        // Discard frames transmitted before lock, then collect fresh ones.
        p.cpu_mut().uart_take_tx();
        p.run(0.05);
        let tx = p.cpu_mut().uart_take_tx();
        assert!(!tx.is_empty(), "no UART traffic");
        let pos = tx
            .iter()
            .position(|&b| b == crate::firmware::FRAME_HEADER)
            .expect("frame header");
        assert!(tx.len() > pos + 1, "truncated frame");
        assert_eq!(tx[pos + 1] & 0b01, 0b01, "status should report lock");
    }

    #[test]
    fn jtag_reads_back_dsp_status() {
        use crate::registers::DspRegsJtag;
        use ascp_jtag::device::{instructions, RegAccessDevice};
        let mut p = Platform::new(PlatformConfig::builder().quiet().build().expect("valid"));
        p.wait_for_ready(2.0).expect("ready");
        p.run(0.01);
        let jtag = p.jtag_mut();
        jtag.select(taps::DSP, instructions::REG_ACCESS)
            .expect("select");
        jtag.scan_dr(taps::DSP, RegAccessDevice::<DspRegsJtag>::pack_read(0))
            .expect("read request");
        let dr = jtag.scan_dr(taps::DSP, 0).expect("read data");
        let status = RegAccessDevice::<DspRegsJtag>::unpack_data(dr);
        assert_eq!(status & 0b01, 0b01, "JTAG status read: {status:#06x}");
    }

    #[test]
    fn jtag_configures_pga_gain() {
        use crate::registers::AfeRegsJtag;
        use ascp_jtag::device::{instructions, RegAccessDevice};
        let mut p = Platform::new(PlatformConfig::builder().quiet().build().expect("valid"));
        let jtag = p.jtag_mut();
        jtag.select(taps::AFE, instructions::REG_ACCESS)
            .expect("select");
        jtag.scan_dr(
            taps::AFE,
            RegAccessDevice::<AfeRegsJtag>::pack_write(AfeReg::PgaSecondaryGain.addr(), 7),
        )
        .expect("write");
        // The platform applies AFE registers at the monitoring cadence.
        p.run(0.002);
        assert_eq!(p.pga_sec.gain_code(), 7);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(PlatformConfig::builder()
            .analog_oversample(0)
            .build()
            .is_err());
        assert!(PlatformConfig::builder().charge_gain(0.0).build().is_err());
        assert!(PlatformConfig::builder()
            .secondary_pga_code(12)
            .build()
            .is_err());
        let err = PlatformConfig::builder()
            .adc_bits(40)
            .build()
            .expect_err("40-bit ADC must be rejected");
        assert!(err.to_string().starts_with("invalid platform config:"));
    }

    /// A burst train whose intervals cannot move its next toggle past the
    /// tick's time would loop forever inside one tick; the builder refuses
    /// it before a platform exists.
    #[test]
    fn config_validation_rejects_intermittent_faults_that_cannot_advance() {
        let err = PlatformConfig::builder()
            .quiet()
            .cpu_enabled(false)
            .fault_intermittent(FaultKind::PllUnlock, 0.01, 0.05, 0.0, 0.0, 3)
            .build()
            .expect_err("a zero period never advances the burst train");
        assert!(err.message().contains("pll_unlock"), "{err}");
        // A burst shorter than one 4 µs tick at the default DSP rate.
        assert!(PlatformConfig::builder()
            .fault_intermittent(FaultKind::PllUnlock, 0.01, 0.05, 0.15, 1.0e-6, 3)
            .build()
            .is_err());
        assert!(PlatformConfig::builder()
            .fault_intermittent(FaultKind::PllUnlock, 0.6, 1.2, 0.15, 0.02, 99)
            .build()
            .is_ok());
    }

    #[test]
    fn builder_sets_every_documented_field() {
        let cfg = PlatformConfig::builder()
            .quiet()
            .noise_density(0.002)
            .adc_bits(14)
            .loop_mode(SenseMode::ClosedLoop)
            .seed(99)
            .spi_probe_period(1)
            .jtag_probe_period(10)
            .fault_one_shot(
                FaultKind::AdcStuckCode {
                    channel: AdcChannel::Primary,
                    code: 0,
                },
                0.5,
                0.1,
            )
            .build()
            .expect("valid");
        assert!((cfg.gyro.noise_density - 0.002).abs() < 1e-12);
        assert!(!cfg.cpu_enabled);
        assert_eq!(cfg.adc.bits, 14);
        assert_eq!(cfg.mode, SenseMode::ClosedLoop);
        assert_eq!(cfg.seed, 99);
        assert_eq!(cfg.supervisor.spi_probe_period_ticks, 1);
        assert_eq!(cfg.supervisor.jtag_probe_period_ticks, 10);
        assert_eq!(cfg.faults.len(), 1);
    }

    #[test]
    fn run_rounds_to_nearest_tick() {
        // 250 kHz DSP clock → dt = 4 µs. A request of 10.2 µs is 2.55
        // ticks: truncation would run 2, rounding must run 3.
        let mut p = Platform::new(PlatformConfig::builder().quiet().build().expect("valid"));
        let dt = 1.0 / p.config().dsp_rate.0;
        p.run(2.55 * dt);
        assert!(
            (p.time() - 3.0 * dt).abs() < 1e-12,
            "run(2.55 dt) advanced {} s, want 3 ticks = {} s",
            p.time(),
            3.0 * dt
        );
        // And 2.4 ticks rounds down to 2 more.
        p.run(2.4 * dt);
        assert!((p.time() - 5.0 * dt).abs() < 1e-12);
        // run_traces honors the same contract.
        let mut q = Platform::new(PlatformConfig::builder().quiet().build().expect("valid"));
        let _ = q.run_traces(2.55 * dt, 1);
        assert!((q.time() - 3.0 * dt).abs() < 1e-12);
    }

    #[test]
    fn dimensioning_produces_usable_gains() {
        let c = PlatformConfig::default();
        let g_open = c.open_loop_rate_gain();
        assert!(g_open > 0.05 && g_open < 20.0, "open gain {g_open}");
        let g_closed = c.closed_loop_rate_gain();
        assert!(g_closed > 0.05 && g_closed < 50.0, "closed gain {g_closed}");
    }

    /// Dispersed fleet-eligible configs: each lane gets its own seed plus
    /// small parameter spread, mirroring a Monte-Carlo draw.
    fn fleet_configs(n: usize) -> Vec<PlatformConfig> {
        (0..n)
            .map(|i| {
                let f = i as f64;
                let mut g = ascp_mems::gyro::GyroParams::default();
                g.f0 = Hertz(15_000.0 * (1.0 + 0.002 * f));
                g.q_drive *= 1.0 + 0.01 * f;
                g.q_sense *= 1.0 - 0.005 * f;
                g.quadrature_rate += DegPerSec(3.0 * f);
                g.noise_density = 0.02;
                PlatformConfig::builder()
                    .quiet()
                    .gyro(g)
                    .charge_gain(4.0 * (1.0 + 0.003 * f))
                    .seed(0x5eed_0000 + i as u64)
                    .build()
                    .expect("valid dispersed config")
            })
            .collect()
    }

    fn state_bytes(p: &Platform) -> Vec<u8> {
        let mut w = StateWriter::new();
        p.save_state(&mut w);
        w.into_bytes()
    }

    fn assert_lanes_match_scalar(fleet: &[Platform], scalar: &[Platform]) {
        for (l, (f, s)) in fleet.iter().zip(scalar).enumerate() {
            assert_eq!(f.ticks(), s.ticks(), "lane {l} tick count");
            assert_eq!(
                state_bytes(f),
                state_bytes(s),
                "lane {l} save_state bytes diverged from scalar run"
            );
        }
    }

    #[test]
    fn fleet_matches_scalar_bit_exactly() {
        // Crosses many monitor boundaries (period = 250 ticks @ 250 kHz)
        // and exercises mid-run stimulus changes through for_each_platform.
        for n in [1usize, 2, 8] {
            let scalar: Vec<Platform> = fleet_configs(n).into_iter().map(Platform::new).collect();
            let mut scalar = scalar;
            let fleet_members: Vec<Platform> =
                fleet_configs(n).into_iter().map(Platform::new).collect();
            let mut fleet = PlatformFleet::new(fleet_members).expect("eligible fleet");

            fleet.step_block(1_100);
            for p in &mut scalar {
                p.step_block(1_100);
            }

            fleet.for_each_platform(|p| {
                p.set_rate(DegPerSec(120.0));
                p.set_temperature(Celsius(40.0));
            });
            for p in &mut scalar {
                p.set_rate(DegPerSec(120.0));
                p.set_temperature(Celsius(40.0));
            }

            // Per-tick output identity over a stretch with a boundary in it.
            for _ in 0..300 {
                fleet.step();
                for (l, p) in scalar.iter_mut().enumerate() {
                    p.step();
                    assert_eq!(
                        fleet.rate_output_dps(l).to_bits(),
                        p.rate_output_dps().to_bits(),
                        "lane {l} rate output diverged at tick {}",
                        p.ticks()
                    );
                }
            }

            fleet.step_block(847);
            for p in &mut scalar {
                p.step_block(847);
            }

            let members = fleet.into_platforms();
            assert_lanes_match_scalar(&members, &scalar);
        }
    }

    #[test]
    fn fleet_round_trips_through_checkpoint() {
        // save_state from a synced fleet member must load into a scalar
        // platform that then steps identically.
        let n = 4;
        let mut fleet =
            PlatformFleet::new(fleet_configs(n).into_iter().map(Platform::new).collect())
                .expect("eligible");
        fleet.step_block(600);

        let mut restored: Vec<Platform> = fleet_configs(n)
            .into_iter()
            .map(|c| {
                let mut p = Platform::new(c);
                p.step_block(600);
                p
            })
            .collect();
        for (l, p) in restored.iter_mut().enumerate() {
            let bytes = state_bytes(fleet.platform_synced(l));
            let mut fresh = Platform::new(fleet_configs(n).swap_remove(l));
            let mut r = StateReader::new(&bytes);
            fresh.load_state(&mut r).expect("load");
            assert_eq!(state_bytes(&fresh), state_bytes(p), "lane {l} round trip");
        }

        // And the restored platforms must continue bit-identically to the
        // fleet when re-batched.
        let mut refleet = PlatformFleet::new(fleet.into_platforms()).expect("still eligible");
        refleet.step_block(500);
        for p in &mut restored {
            p.step_block(500);
        }
        assert_lanes_match_scalar(&refleet.into_platforms(), &restored);
    }

    #[test]
    fn fleet_rejects_ineligible_members() {
        let mut configs = fleet_configs(2);
        configs[1].cpu_enabled = true;
        let members: Vec<Platform> = configs.into_iter().map(Platform::new).collect();
        let err = match PlatformFleet::new(members) {
            Err(e) => e,
            Ok(_) => panic!("CPU-enabled lane must be rejected"),
        };
        assert!(err.reason.contains("CPU"), "reason: {}", err.reason);
        assert_eq!(err.platforms.len(), 2, "platforms returned for fallback");

        // Mixed tick phase is also rejected.
        let mut members = err.platforms;
        members[1].config.cpu_enabled = false;
        members[0].step();
        assert!(PlatformFleet::new(members).is_err(), "phase skew accepted");
    }
}
