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

use crate::chain::{ChainConfig, ChainDrive, ConditioningChain, SenseMode};
use crate::firmware;
use crate::registers::{
    shared_afe_regs, shared_dsp_regs, AfeRegsJtag, DspReg, DspRegsBus16, DspRegsJtag,
    SharedAfeRegs, SharedDspRegs,
};
use crate::supervisor::{MonitorSample, SafetySupervisor, SupervisorConfig, SupervisorState};
use ascp_afe::adc::{AdcConfig, AdcFault, AdcLanes, SarAdc};
use ascp_afe::amp::{ChargeAmplifier, ChargeLanes, Pga, PgaLanes};
use ascp_afe::dac::{Dac, DacConfig, DacLanes};
use ascp_afe::filter::{AafLanes, AntiAliasFilter};
use ascp_afe::refs::VoltageReference;
use ascp_afe::regs::AfeReg;
use ascp_dsp::demod::{DemodLanes, IqSample};
use ascp_dsp::fixed::Q15;
use ascp_jtag::chain::JtagChain;
use ascp_jtag::device::RegAccessDevice;
use ascp_mcu8051::cpu::Cpu;
use ascp_mcu8051::periph::SystemBus;
use ascp_mems::gyro::GyroLanes;
use ascp_sim::fault::{AdcChannel, FaultEdge, FaultKind, FaultPlan};
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};
use ascp_sim::telemetry::trace::{SpanId, TraceRecorder};
use ascp_sim::telemetry::{
    CaptureBundle, Event, FlightRecorder, SignalFrame, Telemetry, TelemetryConfig,
    TelemetrySnapshot, CAPTURE_EVENTS,
};
use ascp_sim::trace::{Trace, TraceSet};
use ascp_sim::units::{Celsius, DegPerSec, Hertz, Seconds, Volts};

/// Platform build variant (paper §4.2): the 'ASIC' version boots monitor
/// firmware from ROM; the 'prototype' version boots a UART down-loader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlatformVariant {
    /// ROM-resident monitor firmware.
    #[default]
    Asic,
    /// 1 KiB boot ROM + program download over UART.
    Prototype,
}

/// Full platform configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Sensor under conditioning.
    pub gyro: ascp_mems::gyro::GyroParams,
    /// DSP sample rate.
    pub dsp_rate: Hertz,
    /// Analog solver substeps per DSP sample.
    pub analog_oversample: u32,
    /// ADC settings (applied to both acquisition channels).
    pub adc: AdcConfig,
    /// Primary-drive DAC settings.
    pub drive_dac: DacConfig,
    /// Rebalance (force-feedback) DAC settings. Defaults to 16 bits: in
    /// closed loop the feedback DAC's LSB bounds the rate resolution
    /// (≈1.8 °/s/LSB at 12 bits), so the force path gets the finest DAC in
    /// the IP portfolio.
    pub rebalance_dac: DacConfig,
    /// Rate-output DAC settings (2.5 V mid-scale, 5 mV/°/s at ±500 FS).
    pub rate_dac: DacConfig,
    /// Charge-amplifier gain, volts per displacement unit (both channels).
    pub charge_gain: f64,
    /// Secondary-channel PGA gain code (ladder index, ×2^code).
    pub secondary_pga_code: u8,
    /// Anti-alias corner (Hz).
    pub aaf_corner: f64,
    /// Sense-path mode.
    pub mode: SenseMode,
    /// Build variant.
    pub variant: PlatformVariant,
    /// Run the 8051 monitor in the loop.
    pub cpu_enabled: bool,
    /// Firmware override (defaults to the built-in monitor).
    pub firmware: Option<Vec<u8>>,
    /// Master noise seed.
    pub seed: u64,
    /// Observability settings (metrics, events, stage profiling).
    pub telemetry: TelemetryConfig,
    /// Scheduled fault injections (empty = a single branch per tick).
    pub faults: FaultPlan,
    /// Safety-supervisor settings (FSM, plausibility checks, probes).
    pub supervisor: SupervisorConfig,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        Self {
            gyro: ascp_mems::gyro::GyroParams::default(),
            dsp_rate: Hertz(250_000.0),
            // One exact-propagator step per DSP tick. The RK4 solver needed
            // 4 substeps to keep its truncation error below the Brownian
            // floor; the ZOH propagator is exact for the held electrode
            // forces at any step size (see DESIGN.md, analog solver).
            analog_oversample: 1,
            adc: AdcConfig::default(),
            drive_dac: DacConfig::default(),
            rebalance_dac: DacConfig {
                bits: 16,
                ..DacConfig::default()
            },
            rate_dac: DacConfig {
                midscale: Volts(2.5),
                ..DacConfig::default()
            },
            charge_gain: 4.0,
            secondary_pga_code: 9,
            aaf_corner: 30_000.0,
            mode: SenseMode::OpenLoop,
            variant: PlatformVariant::Asic,
            cpu_enabled: true,
            firmware: None,
            seed: 0x9a7f_03e1,
            telemetry: TelemetryConfig::default(),
            faults: FaultPlan::new(),
            supervisor: SupervisorConfig::default(),
        }
    }
}

/// A platform configuration rejected by [`PlatformConfig::validate`] /
/// [`PlatformConfigBuilder::build`], naming the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    /// Wraps a validation message.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// The human-readable reason the configuration was rejected.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid platform config: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

impl From<String> for ConfigError {
    fn from(message: String) -> Self {
        Self::new(message)
    }
}

impl PlatformConfig {
    /// Starts a fluent builder seeded with the paper's case-study defaults.
    ///
    /// The builder is the supported way to construct a non-default
    /// configuration; it validates ranges on [`PlatformConfigBuilder::build`]
    /// instead of panicking later inside [`Platform::new`].
    #[must_use]
    pub fn builder() -> PlatformConfigBuilder {
        PlatformConfigBuilder::default()
    }

    /// Validates cross-component consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.gyro.validate()?;
        self.adc.validate()?;
        self.drive_dac.validate()?;
        self.rebalance_dac.validate()?;
        self.rate_dac.validate()?;
        if !(self.dsp_rate.0 > 0.0) {
            return Err(ConfigError::new("dsp_rate must be positive"));
        }
        if self.analog_oversample == 0 {
            return Err(ConfigError::new("analog_oversample must be non-zero"));
        }
        if self.charge_gain <= 0.0 {
            return Err(ConfigError::new("charge_gain must be positive"));
        }
        if usize::from(self.secondary_pga_code) >= Pga::GAIN_LADDER.len() {
            return Err(ConfigError::new(format!(
                "secondary_pga_code {} outside the gain ladder",
                self.secondary_pga_code
            )));
        }
        Ok(())
    }

    /// Design-time dimensioning: the open-loop gain from demodulated Q15 to
    /// rate-output Q15 (FS = ±500 °/s), derived from the component values —
    /// the paper's MATLAB "sub-blocks dimensioning" step.
    #[must_use]
    pub fn open_loop_rate_gain(&self) -> f64 {
        let gyro = ascp_mems::gyro::RingGyro::new(self.gyro);
        let mech = gyro.open_loop_scale(); // displacement per °/s
        let pga = Pga::GAIN_LADDER[self.secondary_pga_code as usize];
        let per_dps = mech * self.charge_gain / self.adc.vref.0 * pga;
        (1.0 / 500.0) / per_dps
    }

    /// Closed-loop dimensioning: °/s per unit rebalance command, scaled to
    /// the ±500 °/s output format.
    #[must_use]
    pub fn closed_loop_rate_gain(&self) -> f64 {
        let w = self.gyro.f0.angular();
        let force_per_dps =
            2.0 * self.gyro.angular_gain * 1f64.to_radians() * w * self.gyro.nominal_amplitude;
        let dps_per_cmd = self.gyro.force_scale / force_per_dps;
        dps_per_cmd / 500.0
    }
}

/// Fluent builder for [`PlatformConfig`] — the supported construction path
/// for every non-default configuration.
///
/// Field-by-field mutation of `PlatformConfig::default()` used to be the
/// house style for platform setup; it scattered copy-pasted override
/// blocks (and duplicated `quiet()` helpers) across every bench bin and
/// test. The builder centralizes those idioms as named setters and moves
/// range validation to [`PlatformConfigBuilder::build`], which returns a
/// [`ConfigError`] instead of panicking inside [`Platform::new`].
///
/// # Example
///
/// ```
/// use ascp_core::platform::PlatformConfig;
///
/// let cfg = PlatformConfig::builder()
///     .quiet()            // low sensor noise, monitor CPU off
///     .adc_bits(14)
///     .seed(7)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(cfg.adc.bits, 14);
/// assert!(!cfg.cpu_enabled);
/// assert!(PlatformConfig::builder().analog_oversample(0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PlatformConfigBuilder {
    config: PlatformConfig,
}

impl PlatformConfigBuilder {
    /// The test/bench house configuration: quiet sensor
    /// (`noise_density = 0.005`) with the monitor CPU off. Replaces the
    /// per-file "quiet config" helpers the tests and bench bins used to
    /// copy around.
    #[must_use]
    pub fn quiet(mut self) -> Self {
        self.config.gyro.noise_density = 0.005;
        self.config.cpu_enabled = false;
        self
    }

    /// Replaces the sensor parameter set wholesale.
    #[must_use]
    pub fn gyro(mut self, gyro: ascp_mems::gyro::GyroParams) -> Self {
        self.config.gyro = gyro;
        self
    }

    /// Sensor rate-noise density (°/s/√Hz).
    #[must_use]
    pub fn noise_density(mut self, dps_rt_hz: f64) -> Self {
        self.config.gyro.noise_density = dps_rt_hz;
        self
    }

    /// Resonator Q temperature coefficient (1/°C).
    #[must_use]
    pub fn tc_q(mut self, tc: f64) -> Self {
        self.config.gyro.tc_q = tc;
        self
    }

    /// Quadrature temperature coefficient (°/s/°C).
    #[must_use]
    pub fn quadrature_tc(mut self, tc: f64) -> Self {
        self.config.gyro.quadrature_tc = tc;
        self
    }

    /// Sense-electrode cubic nonlinearity coefficient.
    #[must_use]
    pub fn sense_pickoff_nl(mut self, coeff: f64) -> Self {
        self.config.gyro.sense_pickoff_nl = coeff;
        self
    }

    /// DSP sample rate.
    #[must_use]
    pub fn dsp_rate(mut self, rate: Hertz) -> Self {
        self.config.dsp_rate = rate;
        self
    }

    /// Analog solver substeps per DSP sample.
    #[must_use]
    pub fn analog_oversample(mut self, substeps: u32) -> Self {
        self.config.analog_oversample = substeps;
        self
    }

    /// Replaces the acquisition-ADC settings (both channels).
    #[must_use]
    pub fn adc(mut self, adc: AdcConfig) -> Self {
        self.config.adc = adc;
        self
    }

    /// Acquisition-converter resolution (both channels).
    #[must_use]
    pub fn adc_bits(mut self, bits: u32) -> Self {
        self.config.adc.bits = bits;
        self
    }

    /// Charge-amplifier gain (V per displacement unit, both channels).
    #[must_use]
    pub fn charge_gain(mut self, gain: f64) -> Self {
        self.config.charge_gain = gain;
        self
    }

    /// Secondary-channel PGA gain code (ladder index).
    #[must_use]
    pub fn secondary_pga_code(mut self, code: u8) -> Self {
        self.config.secondary_pga_code = code;
        self
    }

    /// Anti-alias filter corner (Hz).
    #[must_use]
    pub fn aaf_corner(mut self, hz: f64) -> Self {
        self.config.aaf_corner = hz;
        self
    }

    /// Sense-path mode (open loop or force rebalance).
    #[must_use]
    pub fn loop_mode(mut self, mode: SenseMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Build variant (ASIC ROM monitor vs UART-boot prototype).
    #[must_use]
    pub fn variant(mut self, variant: PlatformVariant) -> Self {
        self.config.variant = variant;
        self
    }

    /// Runs (or parks) the 8051 monitor in the loop.
    #[must_use]
    pub fn cpu_enabled(mut self, enabled: bool) -> Self {
        self.config.cpu_enabled = enabled;
        self
    }

    /// Overrides the monitor firmware image.
    #[must_use]
    pub fn firmware(mut self, image: Vec<u8>) -> Self {
        self.config.firmware = Some(image);
        self
    }

    /// Master noise seed (every component derives its stream from this).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Observability settings.
    #[must_use]
    pub fn telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.config.telemetry = telemetry;
        self
    }

    /// Arms the flight recorder (a sub-field of the telemetry settings;
    /// like all observability it never affects simulation arithmetic).
    #[must_use]
    pub fn recorder(mut self, recorder: ascp_sim::telemetry::RecorderConfig) -> Self {
        self.config.telemetry.recorder = recorder;
        self
    }

    /// Replaces the scheduled fault plan wholesale.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.config.faults = faults;
        self
    }

    /// Schedules a one-shot fault window `[start_s, start_s + duration_s)`.
    #[must_use]
    pub fn fault_one_shot(mut self, kind: FaultKind, start_s: f64, duration_s: f64) -> Self {
        self.config.faults.one_shot(kind, start_s, duration_s);
        self
    }

    /// Schedules a fault from `start_s` to the end of the run.
    #[must_use]
    pub fn fault_permanent(mut self, kind: FaultKind, start_s: f64) -> Self {
        self.config.faults.permanent(kind, start_s);
        self
    }

    /// Schedules deterministic intermittent bursts of `kind`.
    #[must_use]
    pub fn fault_intermittent(
        mut self,
        kind: FaultKind,
        start_s: f64,
        end_s: f64,
        period_s: f64,
        burst_s: f64,
        seed: u64,
    ) -> Self {
        self.config
            .faults
            .intermittent(kind, start_s, end_s, period_s, burst_s, seed);
        self
    }

    /// Replaces the safety-supervisor settings wholesale.
    #[must_use]
    pub fn supervisor(mut self, supervisor: SupervisorConfig) -> Self {
        self.config.supervisor = supervisor;
        self
    }

    /// Master enable for the safety supervisor.
    #[must_use]
    pub fn supervisor_enabled(mut self, enabled: bool) -> Self {
        self.config.supervisor.enabled = enabled;
        self
    }

    /// SPI-bus probe period in monitor ticks (0 = probe off).
    #[must_use]
    pub fn spi_probe_period(mut self, ticks: u32) -> Self {
        self.config.supervisor.spi_probe_period_ticks = ticks;
        self
    }

    /// JTAG IDCODE probe period in monitor ticks (0 = probe off).
    #[must_use]
    pub fn jtag_probe_period(mut self, ticks: u32) -> Self {
        self.config.supervisor.jtag_probe_period_ticks = ticks;
        self
    }

    /// Validates the assembled configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn build(self) -> Result<PlatformConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

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

    /// Applies the AFE register bank to the analog components (the
    /// digital-control path of the paper's programmable front end).
    fn apply_afe_registers(&mut self) {
        let afe = self.afe_regs.borrow();
        let sec_code = afe.read(AfeReg::PgaSecondaryGain) as u8;
        let pri_code = afe.read(AfeReg::PgaPrimaryGain) as u8;
        let corner = f64::from(afe.read(AfeReg::AafCorner)) * 100.0;
        let bits = u32::from(afe.read(AfeReg::AdcBits));
        drop(afe);
        self.pga_sec.set_gain_code(sec_code);
        self.pga_pri.set_gain_code(pri_code);
        if (self.aaf_pri.corner() - corner).abs() > 0.5 {
            self.aaf_pri.set_corner(corner);
            self.aaf_sec.set_corner(corner);
        }
        if bits != self.adc_pri.config().bits {
            let cfg = AdcConfig {
                bits,
                ..*self.adc_pri.config()
            };
            self.adc_pri = SarAdc::new(cfg);
            self.adc_sec = SarAdc::new(AdcConfig {
                seed: cfg.seed ^ 0x1,
                ..cfg
            });
        }
    }

    /// Advances one DSP tick (analog substeps + conversion + chain + DACs +
    /// CPU slice). Returns the chain drive outputs of this tick.
    pub fn step(&mut self) -> ChainDrive {
        self.step_inner()
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
    /// executor) pay no per-call setup or dispatch per tick.
    pub fn step_block(&mut self, n: u64) {
        if self.trace.is_some() && n >= Self::TRACE_BLOCK_MIN_TICKS {
            self.step_block_traced(n);
        } else {
            for _ in 0..n {
                self.step_inner();
            }
        }
    }

    /// Blocks shorter than this are not worth a span: the per-sample loops
    /// (50-tick decimation blocks) would otherwise explode the trace.
    const TRACE_BLOCK_MIN_TICKS: u64 = 256;

    /// [`Platform::step_block`] wrapped in a span carrying the tick count
    /// and the stage wall-time accumulated inside the block (the profiled
    /// stage boundaries of the tick kernel).
    fn step_block_traced(&mut self, n: u64) {
        let t0 = self.time();
        let stages_before: Vec<(&'static str, f64)> = self
            .telemetry
            .stage_times()
            .map(|(stage, seconds, _)| (stage, seconds))
            .collect();
        let id = self
            .trace
            .as_mut()
            .map_or(SpanId::NULL, |tr| tr.begin("step_block", t0));
        for _ in 0..n {
            self.step_inner();
        }
        let t1 = self.time();
        let stage_args: Vec<(String, String)> = self
            .telemetry
            .stage_times()
            .filter_map(|(stage, seconds, _)| {
                let before = stages_before
                    .iter()
                    .find(|&&(s, _)| s == stage)
                    .map_or(0.0, |&(_, secs)| secs);
                let delta = seconds - before;
                (delta > 0.0).then(|| (format!("stage.{stage}"), format!("{:.1}us", delta * 1.0e6)))
            })
            .collect();
        if let Some(tr) = self.trace.as_mut() {
            tr.annotate(id, "ticks", n.to_string());
            for (key, value) in stage_args {
                tr.annotate(id, key, value);
            }
            tr.end(id, t1);
        }
    }

    #[inline]
    fn step_inner(&mut self) -> ChainDrive {
        let dsp_dt = self.dsp_dt;
        let sub = self.config.analog_oversample;
        let sub_dt = self.sub_dt;
        // Fault engine: a single branch per tick when no faults are
        // scheduled (the common case).
        if self.faults_active {
            self.apply_faults();
        }
        // Sampled profiling: `mark` is Some only on profiled ticks.
        let mut mark = self.telemetry.profile_tick();

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
        if let Some(m) = mark {
            mark = Some(self.telemetry.stage_mark("analog_ode", m));
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
        if let Some(m) = mark {
            mark = Some(self.telemetry.stage_mark("acquisition", m));
        }

        // Hardwired DSP.
        let drive = self.chain.process(pri_q, sec_q);
        if let Some(m) = mark {
            mark = Some(self.telemetry.stage_mark("dsp_chain", m));
        }

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
        if let Some(m) = mark {
            mark = Some(self.telemetry.stage_mark("dac_update", m));
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
        if let Some(m) = mark {
            mark = Some(self.telemetry.stage_mark("cpu", m));
        }

        self.tick += 1;
        // Slow monitoring cadence: registers + AFE application + safety
        // supervision at 1 kHz. A countdown replaces the per-tick modulo.
        self.monitor_countdown -= 1;
        if self.monitor_countdown == 0 {
            self.monitor_service();
            if let Some(m) = mark {
                self.telemetry.stage_mark("register_sync", m);
            }
        }
        drive
    }

    /// The monitoring-cadence service body: register synchronization, AFE
    /// application, link probes, safety supervision and telemetry scrape.
    /// Shared by the scalar tick ([`Platform::step`]) and the lockstep
    /// fleet ([`PlatformFleet`]), which calls it per lane at each monitor
    /// boundary after writing its batched state back.
    fn monitor_service(&mut self) {
        self.monitor_countdown = self.monitor_period;
        self.chain.sync_registers(&self.dsp_regs);
        self.apply_afe_registers();
        self.monitor_ticks += 1;
        self.run_probes();
        self.poll_supervisor();
        self.scrape_telemetry();
    }

    /// Polls the fault plan and maps activation/clear edges onto the
    /// component models.
    fn apply_faults(&mut self) {
        let t = self.time();
        let mut edges = std::mem::take(&mut self.fault_edges);
        edges.clear();
        self.config.faults.poll(t, &mut edges);
        for e in &edges {
            self.apply_fault_edge(*e, t);
        }
        self.fault_edges = edges;
    }

    fn adc_mut(&mut self, channel: AdcChannel) -> &mut SarAdc {
        match channel {
            AdcChannel::Primary => &mut self.adc_pri,
            AdcChannel::Secondary => &mut self.adc_sec,
        }
    }

    fn apply_fault_edge(&mut self, e: FaultEdge, t: f64) {
        let on = e.activated;
        match e.kind {
            FaultKind::MemsDriveLoss => self.drive_gate = if on { 0.0 } else { 1.0 },
            FaultKind::SensorDisconnect => self.pickoff_gate = if on { 0.0 } else { 1.0 },
            FaultKind::AdcStuckBit {
                channel,
                bit,
                value,
            } => self
                .adc_mut(channel)
                .set_fault(on.then_some(AdcFault::StuckBit { bit, value })),
            FaultKind::AdcStuckCode { channel, code } => self
                .adc_mut(channel)
                .set_fault(on.then_some(AdcFault::StuckCode { code })),
            FaultKind::AdcOverload { channel, gain } => self
                .adc_mut(channel)
                .set_fault(on.then_some(AdcFault::Overload { gain })),
            FaultKind::ReferenceDroop { frac } => {
                // The bandgap feeds the reference buffers of every
                // converter: ADC codes inflate, DAC full scales shrink.
                let (droop, scale) = if on { (frac, 1.0 - frac) } else { (0.0, 1.0) };
                self.vref.set_droop(droop);
                self.adc_pri.set_ref_scale(scale);
                self.adc_sec.set_ref_scale(scale);
                self.drive_dac.set_ref_scale(scale);
                self.rebalance_dac.set_ref_scale(scale);
                self.rate_dac.set_ref_scale(scale);
            }
            FaultKind::PllUnlock => {
                if on {
                    self.chain.kick_pll();
                }
            }
            FaultKind::SpiBitErrors { rate } => {
                if on {
                    self.bus.spi.set_fault(rate, self.config.seed ^ 0x5b17);
                } else {
                    self.bus.spi.clear_fault();
                }
            }
            FaultKind::UartBitErrors { rate } => {
                if on {
                    self.cpu.set_uart_fault(rate, self.config.seed ^ 0x0a27);
                } else {
                    self.cpu.clear_uart_fault();
                }
            }
            FaultKind::JtagCorruption { rate } => {
                if on {
                    self.jtag.set_fault(rate, self.config.seed ^ 0x17a6);
                } else {
                    self.jtag.clear_fault();
                }
            }
            FaultKind::CpuHang => {
                self.cpu_hang_active = on;
                self.cpu.set_hung(on);
            }
            // Wire faults were introduced for the generic sensor channels
            // (see `ascp_core::frontend`); on the gyro platform the three
            // harness failures collapse onto the pickoff path. Not
            // connected and a ground short both kill the pickoff signal
            // (the synchronous demodulator rejects the resulting DC
            // level), a reversed connector inverts it.
            FaultKind::WireNotConnected | FaultKind::WireShortToGround => {
                self.pickoff_gate = if on { 0.0 } else { 1.0 };
            }
            FaultKind::WireReversePolarity => {
                self.pickoff_gate = if on { -1.0 } else { 1.0 };
            }
        }
        self.telemetry.record_event(if on {
            Event::FaultInjected {
                t,
                fault: e.kind.label(),
            }
        } else {
            Event::FaultCleared {
                t,
                fault: e.kind.label(),
            }
        });
    }

    /// Active communication-link probes at the monitoring cadence: a
    /// one-byte SPI bus probe (parity-checked by the external receiver
    /// model) and a JTAG IDCODE scan compared against the known chain.
    /// Both are off by default (`*_probe_period_ticks == 0`).
    fn run_probes(&mut self) {
        let sup = &self.config.supervisor;
        if !sup.enabled {
            return;
        }
        let spi_period = u64::from(sup.spi_probe_period_ticks);
        if spi_period > 0 && self.monitor_ticks.is_multiple_of(spi_period) {
            // Corruption surfaces in the SPI line-error counter.
            let _ = self.bus.spi.probe();
        }
        let jtag_period = u64::from(sup.jtag_probe_period_ticks);
        if jtag_period > 0 && self.monitor_ticks.is_multiple_of(jtag_period) {
            match self.jtag.read_idcodes() {
                Ok(ids) if ids == [0x0a5c_0af1, 0x0a5c_0d51] => {}
                _ => self.jtag_probe_errors += 1,
            }
        }
    }

    /// Peak-to-peak and midpoint of an ADC observation window; a window
    /// that saw no samples reads as healthy.
    fn window_stats(min: f64, max: f64) -> (f64, f64) {
        if max < min {
            (1.0, 0.0)
        } else {
            (max - min, 0.5 * (max + min))
        }
    }

    fn reset_adc_window(&mut self) {
        self.pri_min = f64::INFINITY;
        self.pri_max = f64::NEG_INFINITY;
        self.sec_min = f64::INFINITY;
        self.sec_max = f64::NEG_INFINITY;
    }

    /// Builds the monitoring sample, advances the supervisor FSM and
    /// applies its graceful-degradation directives.
    fn poll_supervisor(&mut self) {
        if !self.config.supervisor.enabled {
            return;
        }
        let t = self.time();
        let clips = self.adc_pri.clips() + self.adc_sec.clips();
        let spi_errors = self.bus.spi.line_errors();
        let uart_errors = self.cpu.uart_line_errors();
        let jtag_errors = self.jtag_probe_errors;
        let (pri_pp, pri_mid) = Self::window_stats(self.pri_min, self.pri_max);
        let (sec_pp, sec_mid) = Self::window_stats(self.sec_min, self.sec_max);
        let sample = MonitorSample {
            t,
            locked: self.chain.is_locked(),
            settled: self.chain.is_settled(),
            envelope: self.chain.envelope(),
            setpoint: self.chain.config().agc.setpoint,
            adc_clips_delta: clips - self.last_sup_clips,
            adc_pri_pp: pri_pp,
            adc_pri_mid: pri_mid,
            adc_sec_pp: sec_pp,
            adc_sec_mid: sec_mid,
            rate_dps: self.rate_output_dps(),
            rate_raw: self.chain.rate_out().raw(),
            closed_loop: self.chain.mode() == SenseMode::ClosedLoop,
            watchdog_resets_delta: self.watchdog_resets - self.last_sup_wd,
            spi_errors_delta: spi_errors - self.last_spi_errors,
            uart_errors_delta: uart_errors - self.last_uart_errors,
            jtag_errors_delta: jtag_errors - self.last_jtag_errors,
        };
        self.last_sup_clips = clips;
        self.last_sup_wd = self.watchdog_resets;
        self.last_spi_errors = spi_errors;
        self.last_uart_errors = uart_errors;
        self.last_jtag_errors = jtag_errors;
        self.reset_adc_window();
        let prev_state = self.supervisor.state();
        let prev_faults = self.supervisor.faults_detected();
        self.supervisor.poll(&sample, &mut self.telemetry);
        let state = self.supervisor.state();
        if state != prev_state {
            self.transitions.push((prev_state.label(), state.label()));
            if let Some(tr) = self.trace.as_mut() {
                tr.instant(
                    format!("supervisor {}->{}", prev_state.label(), state.label()),
                    t,
                );
            }
        }
        self.check_recorder_triggers(prev_state, prev_faults, t);

        // Graceful degradation: open-loop fallback while the rebalance
        // path is implicated, restored once the FSM is Normal again.
        if self.supervisor.wants_open_loop() {
            if self.chain.mode() == SenseMode::ClosedLoop {
                self.chain.set_mode(SenseMode::OpenLoop);
                self.open_loop_forced = true;
            }
        } else if self.open_loop_forced && self.supervisor.state() == SupervisorState::Normal {
            self.chain.set_mode(self.config.mode);
            self.open_loop_forced = false;
        }
    }

    /// Evaluates the flight-recorder triggers after a supervisor poll and
    /// freezes the ring on the first one that fires. Trigger precedence
    /// follows severity (SafeState > leaving Normal > check episode), but
    /// only the *first* freeze ever populates the capture, so a cascade
    /// still reports its initial failure.
    fn check_recorder_triggers(&mut self, prev_state: SupervisorState, prev_faults: u64, t: f64) {
        if self.recorder.as_ref().is_none_or(FlightRecorder::is_frozen) {
            return;
        }
        let state = self.supervisor.state();
        let cause =
            if state == SupervisorState::SafeState && prev_state != SupervisorState::SafeState {
                Some("safe_state")
            } else if prev_state == SupervisorState::Normal && state != SupervisorState::Normal {
                Some("degraded")
            } else if self.supervisor.faults_detected() > prev_faults {
                Some("check_fail")
            } else {
                None
            };
        let Some(cause) = cause else {
            return;
        };
        let events: Vec<Event> = {
            let log = self.telemetry.events();
            let skip = log.len().saturating_sub(CAPTURE_EVENTS);
            log.iter().skip(skip).cloned().collect()
        };
        let registers = self.key_registers();
        if let Some(rec) = self.recorder.as_mut() {
            rec.freeze(cause, t, events, registers);
        }
        if let Some(tr) = self.trace.as_mut() {
            tr.instant(format!("recorder trigger: {cause}"), t);
        }
    }

    /// Key DSP register values for a flight-recorder capture bundle (the
    /// read-back state a bench engineer would dump over JTAG at failure).
    fn key_registers(&self) -> Vec<(String, u16)> {
        let named = [
            ("dsp.status", DspReg::Status),
            ("dsp.pll_freq_lo", DspReg::PllFreqLo),
            ("dsp.pll_freq_hi", DspReg::PllFreqHi),
            ("dsp.agc_envelope", DspReg::AgcEnvelope),
            ("dsp.rate_out", DspReg::RateOut),
            ("dsp.quad_out", DspReg::QuadOut),
            ("dsp.phase_error", DspReg::PhaseError),
            ("dsp.drive_amp", DspReg::DriveAmp),
            ("dsp.temperature", DspReg::Temperature),
            ("dsp.control", DspReg::Control),
            ("dsp.heartbeat", DspReg::Heartbeat),
        ];
        let regs = self.dsp_regs.borrow();
        named
            .iter()
            .map(|&(name, reg)| (name.to_owned(), regs.read(reg)))
            .collect()
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
    /// the ring), when a trigger has fired.
    pub fn take_capture(&mut self) -> Option<CaptureBundle> {
        self.recorder
            .as_mut()
            .and_then(FlightRecorder::take_capture)
    }

    /// Mirrors the components' local counters into the telemetry registry
    /// and emits milestone events from the deltas since the last scrape.
    /// Runs at the monitoring cadence — the same rhythm at which the
    /// paper's 8051 routine "constantly checks the system status" (§4.2).
    fn scrape_telemetry(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let t = self.time();

        self.telemetry.counter_set("sim.ticks", self.tick);
        self.telemetry.counter_set(
            "adc.conversions",
            self.adc_pri.conversions() + self.adc_sec.conversions(),
        );
        self.telemetry
            .counter_set("adc.clips", self.adc_pri.clips() + self.adc_sec.clips());
        self.telemetry.counter_set(
            "dac.updates",
            self.drive_dac.updates() + self.rebalance_dac.updates() + self.rate_dac.updates(),
        );
        self.telemetry
            .counter_set("pll.lock_transitions", self.chain.lock_transitions());
        self.telemetry
            .counter_set("chain.saturation_events", self.chain.saturation_events());
        self.telemetry
            .counter_set("cpu.instructions", self.cpu.instructions());
        self.telemetry
            .counter_set("cpu.machine_cycles", self.cpu.cycles());
        self.telemetry
            .counter_set("cpu.watchdog_resets", u64::from(self.watchdog_resets));
        self.telemetry
            .counter_set("cpu.uart_tx_bytes", self.cpu.uart_tx_total());
        self.telemetry
            .counter_set("spi.transfers", self.bus.spi.transfers());
        self.telemetry
            .counter_set("jtag.shifts", self.jtag.shifts());
        self.telemetry
            .counter_set("jtag.tck_cycles", self.jtag.cycles());
        self.telemetry
            .counter_set("spi.line_errors", self.bus.spi.line_errors());
        self.telemetry
            .counter_set("uart.line_errors", self.cpu.uart_line_errors());
        self.telemetry
            .counter_set("jtag.probe_errors", self.jtag_probe_errors);
        self.telemetry
            .counter_set("jtag.corrupted_bits", self.jtag.corrupted_bits());
        self.telemetry
            .counter_set("dsp.filter_saturations", self.chain.fixed_saturations());

        self.telemetry
            .gauge_set("pll.frequency_hz", self.chain.frequency());
        self.telemetry
            .gauge_set("agc.envelope", self.chain.envelope());
        self.telemetry.gauge_set("agc.drive", self.chain.drive());
        self.telemetry
            .gauge_set("rate.output_dps", self.rate_output_dps());
        self.telemetry.gauge_set("temp.celsius", self.temperature.0);

        // Milestone events from scrape-to-scrape deltas.
        let locked = self.chain.is_locked();
        if locked != self.last_locked {
            if locked {
                self.telemetry.record_event(Event::PllLocked {
                    t,
                    frequency_hz: self.chain.frequency(),
                });
            } else {
                self.telemetry.record_event(Event::PllUnlocked { t });
            }
            self.last_locked = locked;
        }
        if !self.agc_settled_seen {
            if let Some(settle) = self.chain.settle_time_s() {
                self.telemetry.histogram_record("agc.settle_time_s", settle);
                self.telemetry.record_event(Event::AgcSettled {
                    t,
                    settle_time_s: settle,
                });
                self.agc_settled_seen = true;
            }
        }
        let clips_pri = self.adc_pri.clips();
        if clips_pri > self.last_clips_pri {
            self.telemetry.record_event(Event::AdcClip {
                t,
                channel: "primary",
                total: clips_pri,
            });
            self.last_clips_pri = clips_pri;
        }
        let clips_sec = self.adc_sec.clips();
        if clips_sec > self.last_clips_sec {
            self.telemetry.record_event(Event::AdcClip {
                t,
                channel: "secondary",
                total: clips_sec,
            });
            self.last_clips_sec = clips_sec;
        }
        if self.watchdog_resets > self.last_wd_resets {
            self.telemetry.record_event(Event::WatchdogReset {
                t,
                total: u64::from(self.watchdog_resets),
            });
            self.last_wd_resets = self.watchdog_resets;
        }
        // UART activity is edge-triggered: the monitor firmware streams
        // status frames continuously, so an event per scrape would flood
        // the bounded ring and evict rare events (lock, watchdog). Emit
        // only when transmission resumes after an idle scrape interval.
        let uart = self.cpu.uart_tx_total();
        if uart > self.last_uart_tx {
            if self.uart_was_idle {
                self.telemetry.record_event(Event::UartTx {
                    t,
                    bytes: uart - self.last_uart_tx,
                });
            }
            self.uart_was_idle = false;
            self.last_uart_tx = uart;
        } else {
            self.uart_was_idle = true;
        }
        let dsp_writes = self.dsp_regs.borrow().bus_writes();
        if dsp_writes > self.last_dsp_writes {
            self.telemetry.record_event(Event::RegisterWrite {
                t,
                bank: "dsp",
                writes: dsp_writes - self.last_dsp_writes,
            });
            self.last_dsp_writes = dsp_writes;
        }
        let afe_writes = self.afe_regs.borrow().writes();
        if afe_writes > self.last_afe_writes {
            self.telemetry.record_event(Event::RegisterWrite {
                t,
                bank: "afe",
                writes: afe_writes - self.last_afe_writes,
            });
            self.last_afe_writes = afe_writes;
        }
    }

    /// The telemetry collector (read access).
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Captures a telemetry snapshot at the current simulation time,
    /// scraping the component counters first so the snapshot is current
    /// even between monitoring ticks.
    pub fn telemetry_snapshot(&mut self) -> TelemetrySnapshot {
        self.scrape_telemetry();
        self.telemetry.snapshot(self.time())
    }

    /// Runs for `seconds` of simulated time.
    ///
    /// Duration is converted to DSP ticks by **rounding to the nearest
    /// tick** (a request of 10.2 µs at 250 kHz runs 3 ticks, not 2), so
    /// callers asking for non-integer tick multiples get the closest
    /// realizable duration instead of a silent truncation.
    pub fn run(&mut self, seconds: f64) {
        let ticks = (seconds * self.config.dsp_rate.0).round() as u64;
        self.step_block(ticks);
    }

    /// Runs until PLL lock and AGC settling, returning the turn-on time, or
    /// `None` if `timeout` seconds pass first. This is the Table 1
    /// "turn-on time" measurement.
    pub fn wait_for_ready(&mut self, timeout: f64) -> Option<Seconds> {
        let ticks = (timeout * self.config.dsp_rate.0) as u64;
        let mut settled_streak = 0u32;
        for _ in 0..ticks {
            self.step();
            if self.chain.is_locked() && self.chain.is_settled() {
                settled_streak += 1;
                // Hold for 10 ms before declaring ready.
                if settled_streak >= (0.01 * self.config.dsp_rate.0) as u32 {
                    return Some(Seconds(self.time()));
                }
            } else {
                settled_streak = 0;
            }
        }
        None
    }

    /// Runs for `seconds` recording the Fig. 6 traces (measured PLL/AGC
    /// waveforms at the monitoring cadence), decimated by `trace_div`.
    ///
    /// Like [`Platform::run`], the duration is rounded to the nearest DSP
    /// tick rather than truncated.
    pub fn run_traces(&mut self, seconds: f64, trace_div: u32) -> TraceSet {
        let div = trace_div.max(1);
        let mut amplitude_control = Trace::with_decimation("amplitude_control", div);
        let mut phase_error = Trace::with_decimation("phase_error", div);
        let mut amplitude_error = Trace::with_decimation("amplitude_error", div);
        let mut vco_control = Trace::with_decimation("vco_control", div);
        let mut rate_out = Trace::with_decimation("rate_out_volts", div);
        let ticks = (seconds * self.config.dsp_rate.0).round() as u64;
        // Blocked stepping between observation points: the observable
        // signals are sampled every 50 ticks (the chain's control-update
        // cadence), so advance in whole chunks up to each sample tick.
        let mut left = ticks;
        while left > 0 {
            let chunk = (50 - self.tick % 50).min(left);
            self.step_block(chunk);
            left -= chunk;
            if self.tick.is_multiple_of(50) {
                let t = self.time();
                amplitude_control.push(t, self.chain.drive());
                phase_error.push(t, self.chain.phase_error());
                amplitude_error.push(t, self.chain.config().agc.setpoint - self.chain.envelope());
                vco_control.push(
                    t,
                    (self.chain.frequency() - self.config.gyro.f0.0)
                        / (self.config.gyro.f0.0 * 0.1),
                );
                rate_out.push(t, self.rate_output().0);
            }
        }
        TraceSet::new(vec![
            amplitude_control,
            phase_error,
            amplitude_error,
            vco_control,
            rate_out,
        ])
    }

    /// Collects `n` steady-state rate-output samples (°/s, decoded from the
    /// output DAC) at the demodulated rate, after discarding `settle`
    /// seconds.
    pub fn sample_rate_output(&mut self, settle: f64, n: usize) -> Vec<f64> {
        self.run(settle);
        let decim = self.chain.config().demod_decimation as u64;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            // Jump straight to the next decimated output tick.
            self.step_block(decim - self.tick % decim);
            out.push(self.rate_output_dps());
        }
        out
    }
}

impl Platform {
    /// Serializes the entire mutable platform state — sensor modes, every
    /// AFE component, the DSP chain, both register banks, the JTAG chain,
    /// the 8051 and its peripherals, the fault-plan cursor and the safety
    /// supervisor — as a sequence of tagged sections.
    ///
    /// Two things are deliberately **not** written:
    ///
    /// - the configuration ([`PlatformConfig`]): a restore target must be
    ///   built from the same configuration (the checkpoint layer in
    ///   [`crate::checkpoint`] enforces that with a config digest);
    /// - telemetry (metrics, events, stage profiles): observability output,
    ///   not simulation state — restoring it would double-count history.
    ///
    /// See `DESIGN.md` §11 for the format and the congruence rules.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.leaf("afer", |w| self.afe_regs.borrow().save_state(w));
        w.leaf("dspr", |w| self.dsp_regs.borrow().save_state(w));
        w.leaf("gyro", |w| self.gyro.save_state(w));
        w.leaf("chgp", |w| self.charge_pri.save_state(w));
        w.leaf("chgs", |w| self.charge_sec.save_state(w));
        w.leaf("aafp", |w| self.aaf_pri.save_state(w));
        w.leaf("aafs", |w| self.aaf_sec.save_state(w));
        w.leaf("pgap", |w| self.pga_pri.save_state(w));
        w.leaf("pgas", |w| self.pga_sec.save_state(w));
        w.leaf("adcp", |w| self.adc_pri.save_state(w));
        w.leaf("adcs", |w| self.adc_sec.save_state(w));
        w.leaf("dacd", |w| self.drive_dac.save_state(w));
        w.leaf("dacb", |w| self.rebalance_dac.save_state(w));
        w.leaf("dacr", |w| self.rate_dac.save_state(w));
        w.leaf("vref", |w| self.vref.save_state(w));
        let derived = Self::chain_config(&self.config).agc;
        w.container("chan", |w| self.chain.save_state(w, &derived));
        w.leaf("jtag", |w| self.jtag.save_state(w));
        w.leaf("cpu ", |w| self.cpu.save_state(w));
        w.container("bus ", |w| self.bus.save_state(w));
        w.leaf("flts", |w| self.config.faults.save_state(w));
        w.leaf("supv", |w| self.supervisor.save_state(w));
        w.leaf("kern", |w| {
            w.put_u64(self.tick);
            w.put_f64(self.cpu_cycle_debt);
            w.put_u64(self.monitor_countdown);
            w.put_f64(self.drive_force);
            w.put_f64(self.rebalance_force);
            w.put_f64(self.temperature.0);
            w.put_u32(self.watchdog_resets);
            w.put_bool(self.last_locked);
            w.put_u64(self.last_clips_pri);
            w.put_u64(self.last_clips_sec);
            w.put_u32(self.last_wd_resets);
            w.put_u64(self.last_uart_tx);
            w.put_bool(self.uart_was_idle);
            w.put_u64(self.last_dsp_writes);
            w.put_u64(self.last_afe_writes);
            w.put_bool(self.agc_settled_seen);
            w.put_f64(self.drive_gate);
            w.put_f64(self.pickoff_gate);
            w.put_f64(self.pri_min);
            w.put_f64(self.pri_max);
            w.put_f64(self.sec_min);
            w.put_f64(self.sec_max);
            w.put_u64(self.last_sup_clips);
            w.put_u32(self.last_sup_wd);
            w.put_u64(self.last_spi_errors);
            w.put_u64(self.last_uart_errors);
            w.put_u64(self.last_jtag_errors);
            w.put_u64(self.jtag_probe_errors);
            w.put_u64(self.monitor_ticks);
            w.put_bool(self.cpu_hang_active);
            w.put_bool(self.open_loop_forced);
        });
    }

    /// Restores state saved by [`Platform::save_state`] onto a platform
    /// built from the **same** [`PlatformConfig`]. After a successful
    /// restore, stepping this platform produces byte-identical traces to
    /// stepping the one that was saved.
    ///
    /// The AFE register bank is restored first and applied to the analog
    /// components before their own sections load, so a run-time resolution
    /// change (the ADCs are rebuilt when `AdcBits` changes) is replayed
    /// before the converter state arrives.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] if any section is malformed, truncated,
    /// or structurally incongruent with this platform's configuration. The
    /// platform may be left partially restored on error; callers should
    /// discard it (the checkpoint layer restores into a freshly built
    /// platform, so a failed restore never corrupts a live one).
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        {
            let afe_regs = &self.afe_regs;
            r.leaf("afer", |r| afe_regs.borrow_mut().load_state(r))?;
        }
        self.apply_afe_registers();
        {
            let dsp_regs = &self.dsp_regs;
            r.leaf("dspr", |r| dsp_regs.borrow_mut().load_state(r))?;
        }
        let gyro = &mut self.gyro;
        r.leaf("gyro", |r| gyro.load_state(r))?;
        let charge_pri = &mut self.charge_pri;
        r.leaf("chgp", |r| charge_pri.load_state(r))?;
        let charge_sec = &mut self.charge_sec;
        r.leaf("chgs", |r| charge_sec.load_state(r))?;
        let aaf_pri = &mut self.aaf_pri;
        r.leaf("aafp", |r| aaf_pri.load_state(r))?;
        let aaf_sec = &mut self.aaf_sec;
        r.leaf("aafs", |r| aaf_sec.load_state(r))?;
        let pga_pri = &mut self.pga_pri;
        r.leaf("pgap", |r| pga_pri.load_state(r))?;
        let pga_sec = &mut self.pga_sec;
        r.leaf("pgas", |r| pga_sec.load_state(r))?;
        let adc_pri = &mut self.adc_pri;
        r.leaf("adcp", |r| adc_pri.load_state(r))?;
        let adc_sec = &mut self.adc_sec;
        r.leaf("adcs", |r| adc_sec.load_state(r))?;
        let drive_dac = &mut self.drive_dac;
        r.leaf("dacd", |r| drive_dac.load_state(r))?;
        let rebalance_dac = &mut self.rebalance_dac;
        r.leaf("dacb", |r| rebalance_dac.load_state(r))?;
        let rate_dac = &mut self.rate_dac;
        r.leaf("dacr", |r| rate_dac.load_state(r))?;
        let vref = &mut self.vref;
        r.leaf("vref", |r| vref.load_state(r))?;
        let chain = &mut self.chain;
        r.container("chan", |r| chain.load_state(r))?;
        let jtag = &mut self.jtag;
        r.leaf("jtag", |r| jtag.load_state(r))?;
        let cpu = &mut self.cpu;
        r.leaf("cpu ", |r| cpu.load_state(r))?;
        let bus = &mut self.bus;
        r.container("bus ", |r| bus.load_state(r))?;
        let faults = &mut self.config.faults;
        r.leaf("flts", |r| faults.load_state(r))?;
        let supervisor = &mut self.supervisor;
        r.leaf("supv", |r| supervisor.load_state(r))?;
        let monitor_period = self.monitor_period;
        let kern = r.leaf("kern", |r| {
            let tick = r.take_u64()?;
            let cpu_cycle_debt = r.take_f64()?;
            let monitor_countdown = r.take_u64()?;
            if monitor_countdown == 0 || monitor_countdown > monitor_period {
                return Err(SnapshotError::Corrupt {
                    context: format!(
                        "monitor countdown {monitor_countdown} outside 1..={monitor_period}"
                    ),
                });
            }
            Ok((
                tick,
                cpu_cycle_debt,
                monitor_countdown,
                r.take_f64()?,
                r.take_f64()?,
                r.take_f64()?,
                r.take_u32()?,
                r.take_bool()?,
                [
                    r.take_u64()?,
                    r.take_u64()?,
                    u64::from(r.take_u32()?),
                    r.take_u64()?,
                ],
                r.take_bool()?,
                [r.take_u64()?, r.take_u64()?],
                r.take_bool()?,
                [r.take_f64()?, r.take_f64()?],
                [r.take_f64()?, r.take_f64()?, r.take_f64()?, r.take_f64()?],
                [
                    r.take_u64()?,
                    u64::from(r.take_u32()?),
                    r.take_u64()?,
                    r.take_u64()?,
                    r.take_u64()?,
                    r.take_u64()?,
                    r.take_u64()?,
                ],
                r.take_bool()?,
                r.take_bool()?,
            ))
        })?;
        let (
            tick,
            cpu_cycle_debt,
            monitor_countdown,
            drive_force,
            rebalance_force,
            temperature,
            watchdog_resets,
            last_locked,
            clip_scrape,
            uart_was_idle,
            write_scrape,
            agc_settled_seen,
            gates,
            windows,
            sup_scrape,
            cpu_hang_active,
            open_loop_forced,
        ) = kern;
        self.tick = tick;
        self.cpu_cycle_debt = cpu_cycle_debt;
        self.monitor_countdown = monitor_countdown;
        self.drive_force = drive_force;
        self.rebalance_force = rebalance_force;
        self.temperature = Celsius(temperature);
        self.watchdog_resets = watchdog_resets;
        self.last_locked = last_locked;
        self.last_clips_pri = clip_scrape[0];
        self.last_clips_sec = clip_scrape[1];
        self.last_wd_resets = clip_scrape[2] as u32;
        self.last_uart_tx = clip_scrape[3];
        self.uart_was_idle = uart_was_idle;
        self.last_dsp_writes = write_scrape[0];
        self.last_afe_writes = write_scrape[1];
        self.agc_settled_seen = agc_settled_seen;
        self.drive_gate = gates[0];
        self.pickoff_gate = gates[1];
        self.pri_min = windows[0];
        self.pri_max = windows[1];
        self.sec_min = windows[2];
        self.sec_max = windows[3];
        self.last_sup_clips = sup_scrape[0];
        self.last_sup_wd = sup_scrape[1] as u32;
        self.last_spi_errors = sup_scrape[2];
        self.last_uart_errors = sup_scrape[3];
        self.last_jtag_errors = sup_scrape[4];
        self.jtag_probe_errors = sup_scrape[5];
        self.monitor_ticks = sup_scrape[6];
        self.cpu_hang_active = cpu_hang_active;
        self.open_loop_forced = open_loop_forced;
        // The fault-edge scratch buffer is transient; never restored.
        self.fault_edges.clear();
        Ok(())
    }

    /// Power-on reset: sensor motion stops, every loop restarts, the CPU
    /// reboots. Models a cold start for turn-on-time measurements.
    pub fn power_on_reset(&mut self) {
        self.gyro.reset();
        self.chain.reset();
        self.drive_force = 0.0;
        self.rebalance_force = 0.0;
        self.aaf_pri.reset();
        self.aaf_sec.reset();
        self.pga_pri.reset();
        self.pga_sec.reset();
        self.cpu.reset();
        self.tick = 0;
        self.cpu_cycle_debt = 0.0;
        self.monitor_countdown = self.monitor_period;
        // The supervisor reboots with the platform; a forced open-loop
        // fallback does not survive a cold start.
        self.supervisor.reset();
        if self.open_loop_forced {
            self.chain.set_mode(self.config.mode);
            self.open_loop_forced = false;
        }
        self.reset_adc_window();
        if self.cpu_hang_active {
            // Latch-up persists through a power cycle only while the
            // fault is scheduled active; re-assert it.
            self.cpu.set_hung(true);
        }
    }
}

impl crate::characterize::RateSensor for Platform {
    fn name(&self) -> &str {
        "SensorDynamics ASCP (this work)"
    }

    fn set_rate(&mut self, rate: DegPerSec) {
        Platform::set_rate(self, rate);
    }

    fn set_temperature(&mut self, t: Celsius) {
        Platform::set_temperature(self, t);
    }

    fn turn_on(&mut self, timeout: f64) -> Option<Seconds> {
        self.power_on_reset();
        self.wait_for_ready(timeout)
    }

    fn sample_output(&mut self, settle: f64, n: usize) -> Vec<f64> {
        self.run(settle);
        let decim = u64::from(self.chain.config().demod_decimation);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            // Jump straight to the next decimated output tick.
            self.step_block(decim - self.tick % decim);
            out.push(self.rate_output().0);
        }
        out
    }

    fn output_sample_rate(&self) -> f64 {
        self.config.dsp_rate.0 / f64::from(self.chain.config().demod_decimation)
    }

    fn sample_output_modulated(
        &mut self,
        freq: f64,
        amp: DegPerSec,
        settle: f64,
        n: usize,
    ) -> Vec<f64> {
        let w = 2.0 * std::f64::consts::PI * freq;
        let decim = u64::from(self.chain.config().demod_decimation);
        let dsp_rate = self.config.dsp_rate.0;
        let mut out = Vec::with_capacity(n);
        let settle_ticks = (settle * dsp_rate) as u64;
        let mut k = 0u64;
        while out.len() < n {
            let t = k as f64 / dsp_rate;
            self.gyro.set_rate(DegPerSec(amp.0 * (w * t).sin()));
            self.step();
            if k >= settle_ticks && self.tick.is_multiple_of(decim) {
                out.push(self.rate_output().0);
            }
            k += 1;
        }
        self.gyro.set_rate(DegPerSec(0.0));
        out
    }
}

/// A platform set that cannot run as a lockstep fleet, with the reason and
/// the platforms handed back so the caller can fall to scalar execution.
#[derive(Debug)]
pub struct FleetIneligible {
    /// Human-readable reason the fleet rejected the set.
    pub reason: String,
    /// The untouched platforms, returned for per-platform stepping.
    pub platforms: Vec<Platform>,
}

impl std::fmt::Display for FleetIneligible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "platforms ineligible for fleet execution: {}",
            self.reason
        )
    }
}

/// The hot structure-of-arrays kernels of a fleet, extracted together so a
/// monitor-boundary re-extraction is one call.
///
/// Same-type component pairs are **fused** into one wide kernel — the
/// primary and secondary analog paths share a 2N-lane kernel (lanes
/// `0..N` primary, `N..2N` secondary) and the three DACs share a 3N-lane
/// kernel (drive, rebalance, rate) — so each per-tick batched call runs
/// one longer loop instead of two or three short ones: fewer dispatch
/// overheads, better pipelining of the latency-bound noise transforms.
/// Per-lane state is independent, so fusion cannot change any lane's bits.
struct FleetKernels {
    gyro: GyroLanes,
    /// `[charge_pri | charge_sec]`, 2N lanes.
    charge: ChargeLanes,
    /// `[aaf_pri | aaf_sec]`, 2N lanes.
    aaf: AafLanes,
    /// `[pga_pri | pga_sec]`, 2N lanes.
    pga: PgaLanes,
    /// `[adc_pri | adc_sec]`, 2N lanes.
    adc: AdcLanes,
    demod: DemodLanes,
    /// `[drive | rebalance | rate]`, 3N lanes.
    dac: DacLanes,
}

impl FleetKernels {
    /// Extracts every hot kernel; `Err` names the first component whose
    /// lanes are not extractable (mixed noise phase, an active ADC fault,
    /// non-uniform decimator state). Fusion makes the phase-uniformity
    /// requirement span the primary *and* secondary populations (and all
    /// three DACs); platforms stepped from construction always satisfy it.
    fn extract(platforms: &[Platform], sub_dt: f64, dsp_dt: f64) -> Result<Self, String> {
        let p = platforms;
        Ok(Self {
            gyro: GyroLanes::extract(p.iter().map(|p| &p.gyro), sub_dt)
                .ok_or("gyro noise lanes not phase-uniform")?,
            charge: ChargeLanes::extract(
                p.iter()
                    .map(|p| &p.charge_pri)
                    .chain(p.iter().map(|p| &p.charge_sec)),
            )
            .ok_or("charge-amp lanes not phase-uniform")?,
            aaf: AafLanes::extract(
                p.iter()
                    .map(|p| &p.aaf_pri)
                    .chain(p.iter().map(|p| &p.aaf_sec)),
            ),
            pga: PgaLanes::extract(
                p.iter()
                    .map(|p| &p.pga_pri)
                    .chain(p.iter().map(|p| &p.pga_sec)),
                dsp_dt,
            )
            .ok_or("PGA lanes not phase-uniform")?,
            adc: AdcLanes::extract(
                p.iter()
                    .map(|p| &p.adc_pri)
                    .chain(p.iter().map(|p| &p.adc_sec)),
            )
            .ok_or("ADC lanes faulted or not phase-uniform")?,
            demod: DemodLanes::extract(p.iter().map(|p| p.chain.demod()))
                .ok_or("demodulator lanes not decimation-uniform")?,
            dac: DacLanes::extract(
                p.iter()
                    .map(|p| &p.drive_dac)
                    .chain(p.iter().map(|p| &p.rebalance_dac))
                    .chain(p.iter().map(|p| &p.rate_dac)),
            )
            .ok_or("DAC lanes not phase-uniform")?,
        })
    }

    /// Writes every kernel's state back into the platforms' components.
    /// The fused kernels restore through collected field borrows so the
    /// primary/secondary (and per-DAC) segments land on the right
    /// components in lane order.
    fn restore(&self, platforms: &mut [Platform]) {
        let n = platforms.len();
        self.gyro.restore(platforms.iter_mut().map(|p| &mut p.gyro));
        self.demod
            .restore(platforms.iter_mut().map(|p| p.chain.demod_mut()));
        let mut chg: Vec<&mut ChargeAmplifier> = Vec::with_capacity(2 * n);
        let mut aaf: Vec<&mut AntiAliasFilter> = Vec::with_capacity(2 * n);
        let mut pga: Vec<&mut Pga> = Vec::with_capacity(2 * n);
        let mut adc: Vec<&mut SarAdc> = Vec::with_capacity(2 * n);
        let mut dac: Vec<&mut Dac> = Vec::with_capacity(3 * n);
        let mut sec_chg: Vec<&mut ChargeAmplifier> = Vec::with_capacity(n);
        let mut sec_aaf: Vec<&mut AntiAliasFilter> = Vec::with_capacity(n);
        let mut sec_pga: Vec<&mut Pga> = Vec::with_capacity(n);
        let mut sec_adc: Vec<&mut SarAdc> = Vec::with_capacity(n);
        let mut reb_dac: Vec<&mut Dac> = Vec::with_capacity(n);
        let mut rate_dac: Vec<&mut Dac> = Vec::with_capacity(n);
        for p in platforms.iter_mut() {
            chg.push(&mut p.charge_pri);
            sec_chg.push(&mut p.charge_sec);
            aaf.push(&mut p.aaf_pri);
            sec_aaf.push(&mut p.aaf_sec);
            pga.push(&mut p.pga_pri);
            sec_pga.push(&mut p.pga_sec);
            adc.push(&mut p.adc_pri);
            sec_adc.push(&mut p.adc_sec);
            dac.push(&mut p.drive_dac);
            reb_dac.push(&mut p.rebalance_dac);
            rate_dac.push(&mut p.rate_dac);
        }
        chg.append(&mut sec_chg);
        aaf.append(&mut sec_aaf);
        pga.append(&mut sec_pga);
        adc.append(&mut sec_adc);
        dac.append(&mut reb_dac);
        dac.append(&mut rate_dac);
        self.charge.restore(chg.into_iter());
        self.aaf.restore(aaf.into_iter());
        self.pga.restore(pga.into_iter());
        self.adc.restore(adc.into_iter());
        self.dac.restore(dac.into_iter());
    }

    /// Monitor-boundary re-extraction: everything is re-read from the
    /// platforms (cheap, O(lanes) per kernel) except the ADC kernel,
    /// whose seeded DNL tables are refreshed in place unless a converter
    /// was rebuilt at a new resolution ([`AdcLanes::refresh`]).
    fn re_extract(&mut self, platforms: &[Platform], sub_dt: f64, dsp_dt: f64) {
        let p = platforms;
        self.gyro = GyroLanes::extract(p.iter().map(|p| &p.gyro), sub_dt)
            .expect("lockstep lanes stay phase-uniform");
        self.charge = ChargeLanes::extract(
            p.iter()
                .map(|p| &p.charge_pri)
                .chain(p.iter().map(|p| &p.charge_sec)),
        )
        .expect("lockstep lanes stay phase-uniform");
        self.aaf = AafLanes::extract(
            p.iter()
                .map(|p| &p.aaf_pri)
                .chain(p.iter().map(|p| &p.aaf_sec)),
        );
        self.pga = PgaLanes::extract(
            p.iter()
                .map(|p| &p.pga_pri)
                .chain(p.iter().map(|p| &p.pga_sec)),
            dsp_dt,
        )
        .expect("lockstep lanes stay phase-uniform");
        if !self.adc.refresh(
            p.iter()
                .map(|p| &p.adc_pri)
                .chain(p.iter().map(|p| &p.adc_sec)),
        ) {
            self.adc = AdcLanes::extract(
                p.iter()
                    .map(|p| &p.adc_pri)
                    .chain(p.iter().map(|p| &p.adc_sec)),
            )
            .expect("fleet-run ADCs stay fault-free and phase-uniform");
        }
        self.demod = DemodLanes::extract(p.iter().map(|p| p.chain.demod()))
            .expect("lockstep lanes stay decimation-uniform");
        self.dac = DacLanes::extract(
            p.iter()
                .map(|p| &p.drive_dac)
                .chain(p.iter().map(|p| &p.rebalance_dac))
                .chain(p.iter().map(|p| &p.rate_dac)),
        )
        .expect("lockstep lanes stay phase-uniform");
    }
}

/// N platforms stepping in lockstep with structure-of-arrays state for the
/// hot tick kernels.
///
/// The fleet batches the per-tick analog/mixed-signal work — resonator
/// propagation, charge conversion, anti-alias filtering, PGA, ADC, the
/// demodulator's decimating FIR pair, and the three DACs — across lanes in
/// contiguous arrays so the per-lane arithmetic auto-vectorizes, while the
/// cold components (8051, JTAG, supervisor, register banks, conditioning
/// chain control law) stay per-platform and are serviced at the monitoring
/// cadence exactly as [`Platform::step`] would.
///
/// # Determinism contract
///
/// Stepping a fleet is **bit-identical** to stepping each member platform
/// individually: every lane kernel transcribes the scalar expression
/// shapes and every noise generator draws in the same per-tick order, so
/// [`Platform::save_state`] bytes agree after any number of ticks (the
/// campaign's Monte-Carlo CSV contract builds on this).
///
/// # Eligibility
///
/// [`PlatformFleet::new`] rejects sets it cannot run in lockstep —
/// mismatched rates or monitor phases, an enabled 8051 (the CPU slice is
/// inherently serial), scheduled fault plans, armed flight recorders or
/// span traces, or components whose lane state is not uniform. Rejection
/// returns the platforms for scalar execution.
pub struct PlatformFleet {
    platforms: Vec<Platform>,
    k: FleetKernels,
    // Uniform run invariants (validated at construction).
    dsp_dt: f64,
    sub_dt: f64,
    oversample: u32,
    monitor_countdown: u64,
    tick: u64,
    dsp_rate: f64,
    // Per-lane mirrors of Platform hot-path fields.
    drive_force: Vec<f64>,
    rebalance_force: Vec<f64>,
    sup_enabled: Vec<bool>,
    safe_output: Vec<bool>,
    vref_drive: Vec<f64>,
    pri_min: Vec<f64>,
    pri_max: Vec<f64>,
    sec_min: Vec<f64>,
    sec_max: Vec<f64>,
    // Per-lane scratch, allocated once. The analog buffers are 2N wide
    // (`[primary | secondary]`) and the DAC buffers 3N wide
    // (`[drive | rebalance | rate]`), matching the fused kernels.
    pick: Vec<f64>,
    chg: Vec<f64>,
    v: Vec<f64>,
    amp: Vec<f64>,
    q: Vec<i32>,
    s_ref: Vec<Q15>,
    c_ref: Vec<Q15>,
    x_sec: Vec<Q15>,
    p_drive: Vec<Q15>,
    iq_out: Vec<IqSample>,
    raw: Vec<i32>,
    dac_out: Vec<f64>,
}

impl PlatformFleet {
    /// Builds a lockstep fleet over `platforms`.
    ///
    /// # Errors
    ///
    /// Returns [`FleetIneligible`] — with the platforms handed back — when
    /// the set cannot run in lockstep; see the type-level eligibility
    /// notes.
    pub fn new(platforms: Vec<Platform>) -> Result<Self, FleetIneligible> {
        if let Err(reason) = Self::check_eligibility(&platforms) {
            return Err(FleetIneligible { reason, platforms });
        }
        let p0 = &platforms[0];
        let (dsp_dt, sub_dt, oversample) = (p0.dsp_dt, p0.sub_dt, p0.config.analog_oversample);
        let (monitor_countdown, tick) = (p0.monitor_countdown, p0.tick);
        let dsp_rate = p0.config.dsp_rate.0;
        let k = match FleetKernels::extract(&platforms, sub_dt, dsp_dt) {
            Ok(k) => k,
            Err(reason) => {
                return Err(FleetIneligible {
                    reason: reason.to_owned(),
                    platforms,
                })
            }
        };
        let n = platforms.len();
        let mut fleet = Self {
            k,
            dsp_dt,
            sub_dt,
            oversample,
            monitor_countdown,
            tick,
            dsp_rate,
            drive_force: Vec::with_capacity(n),
            rebalance_force: Vec::with_capacity(n),
            sup_enabled: Vec::with_capacity(n),
            safe_output: Vec::with_capacity(n),
            vref_drive: Vec::with_capacity(n),
            pri_min: Vec::with_capacity(n),
            pri_max: Vec::with_capacity(n),
            sec_min: Vec::with_capacity(n),
            sec_max: Vec::with_capacity(n),
            pick: vec![0.0; 2 * n],
            chg: vec![0.0; 2 * n],
            v: vec![0.0; 2 * n],
            amp: vec![0.0; 2 * n],
            q: vec![0; 2 * n],
            s_ref: vec![Q15::ZERO; n],
            c_ref: vec![Q15::ZERO; n],
            x_sec: vec![Q15::ZERO; n],
            p_drive: vec![Q15::ZERO; n],
            iq_out: vec![IqSample::default(); n],
            raw: vec![0; 3 * n],
            dac_out: vec![0.0; 3 * n],
            platforms,
        };
        for p in &fleet.platforms {
            fleet.drive_force.push(p.drive_force);
            fleet.rebalance_force.push(p.rebalance_force);
            fleet.sup_enabled.push(p.config.supervisor.enabled);
            fleet.safe_output.push(p.supervisor.wants_safe_output());
            fleet.vref_drive.push(p.config.drive_dac.vref.0);
            fleet.pri_min.push(p.pri_min);
            fleet.pri_max.push(p.pri_max);
            fleet.sec_min.push(p.sec_min);
            fleet.sec_max.push(p.sec_max);
        }
        Ok(fleet)
    }

    /// Static lockstep preconditions (everything except lane extraction).
    fn check_eligibility(platforms: &[Platform]) -> Result<(), String> {
        let Some(p0) = platforms.first() else {
            return Err("fleet needs at least one platform".into());
        };
        for (l, p) in platforms.iter().enumerate() {
            let c = &p.config;
            if c.dsp_rate != p0.config.dsp_rate
                || c.analog_oversample != p0.config.analog_oversample
            {
                return Err(format!("lane {l}: mismatched DSP rate or oversample"));
            }
            if p.tick != p0.tick || p.monitor_countdown != p0.monitor_countdown {
                return Err(format!("lane {l}: not tick/monitor-phase aligned"));
            }
            if c.cpu_enabled {
                return Err(format!("lane {l}: monitor CPU enabled (serial component)"));
            }
            if p.faults_active || !c.faults.is_empty() {
                return Err(format!("lane {l}: scheduled fault plan"));
            }
            if p.recorder.is_some() {
                return Err(format!("lane {l}: flight recorder armed"));
            }
            if p.trace.is_some() {
                return Err(format!("lane {l}: span trace attached"));
            }
            if p.drive_gate != 1.0 || p.pickoff_gate != 1.0 {
                return Err(format!("lane {l}: gated drive or pickoff path"));
            }
            if !p.chain.is_enabled() {
                return Err(format!("lane {l}: conditioning chain disabled"));
            }
        }
        Ok(())
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.platforms.len()
    }

    /// DSP ticks executed (uniform across lanes).
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Simulated time, seconds.
    #[must_use]
    pub fn time(&self) -> f64 {
        self.tick as f64 / self.dsp_rate
    }

    /// Rate output of one lane decoded to °/s — byte-identical to
    /// [`Platform::rate_output_dps`] on the member platform.
    #[must_use]
    pub fn rate_output_dps(&self, lane: usize) -> f64 {
        // Rate DACs occupy the last third of the fused DAC kernel.
        let held = self.k.dac.held_outputs()[2 * self.platforms.len() + lane];
        let mid = self.k.dac.midscales()[2 * self.platforms.len() + lane];
        (held - mid) / 0.005
    }

    /// Advances every lane one DSP tick.
    pub fn step(&mut self) {
        self.step_block(1);
    }

    /// Advances every lane `n` DSP ticks in lockstep.
    pub fn step_block(&mut self, n: u64) {
        for _ in 0..n {
            self.tick_lanes();
        }
    }

    /// One batched DSP tick across all lanes (the SoA transcription of
    /// [`Platform::step`]'s tick body for fault-free, CPU-off platforms).
    #[inline]
    fn tick_lanes(&mut self) {
        let n = self.platforms.len();
        // Analog solver substeps with held DAC outputs. The charge/AAF
        // kernels run once over the fused 2N `[pri | sec]` population.
        for _ in 0..self.oversample {
            let (pick_pri, pick_sec) = self.pick.split_at_mut(n);
            self.k
                .gyro
                .step(&self.drive_force, &self.rebalance_force, pick_pri, pick_sec);
            self.k.charge.convert(&self.pick, &mut self.chg);
            self.k.aaf.process(&self.chg, self.sub_dt, &mut self.v);
        }

        // Acquisition at the DSP rate (fused 2N kernels).
        self.k.pga.process(&self.v, &mut self.amp);
        self.k.adc.convert_q15(&self.amp, &mut self.q);
        for l in 0..n {
            if self.sup_enabled[l] {
                let pf = Q15::from_raw(self.q[l]).to_f64();
                let sf = Q15::from_raw(self.q[n + l]).to_f64();
                self.pri_min[l] = self.pri_min[l].min(pf);
                self.pri_max[l] = self.pri_max[l].max(pf);
                self.sec_min[l] = self.sec_min[l].min(sf);
                self.sec_max[l] = self.sec_max[l].max(sf);
            }
        }

        // Hardwired DSP: the per-lane control law (PLL, AGC, loop filters)
        // stays AoS; the decimating-FIR demodulator runs batched between
        // its two halves.
        for (l, p) in self.platforms.iter_mut().enumerate() {
            let (s, c, primary_drive) = p.chain.primary_stage(Q15::from_raw(self.q[l]));
            self.s_ref[l] = s;
            self.c_ref[l] = c;
            self.p_drive[l] = primary_drive;
            self.x_sec[l] = Q15::from_raw(self.q[n + l]);
        }
        let emitted = self
            .k
            .demod
            .process(&self.x_sec, &self.s_ref, &self.c_ref, &mut self.iq_out);
        for (l, p) in self.platforms.iter_mut().enumerate() {
            let demod_out = if emitted { Some(self.iq_out[l]) } else { None };
            let drive =
                p.chain
                    .finish_stage(demod_out, self.s_ref[l], self.c_ref[l], self.p_drive[l]);
            self.raw[l] = drive.primary.raw();
            self.raw[n + l] = drive.secondary.raw();
            let rate_word = if self.safe_output[l] {
                Q15::ZERO
            } else {
                drive.rate_out
            };
            self.raw[2 * n + l] = rate_word.raw();
            // Real-time SRAM capture of the rate stream.
            p.bus
                .sram
                .capture(drive.rate_out.raw().clamp(-32768, 32767) as i16 as u16);
        }

        // One fused DAC write over `[drive | rebalance | rate]` (forces
        // normalized to DAC full scale; both loop forces use the drive
        // vref, as in the scalar path). The gates are 1.0 by eligibility,
        // so the scalar `* gate` factors are identity.
        self.k.dac.write_q15(&self.raw, &mut self.dac_out);
        for l in 0..n {
            self.drive_force[l] = self.dac_out[l] / self.vref_drive[l];
            self.rebalance_force[l] = self.dac_out[n + l] / self.vref_drive[l];
        }

        self.tick += 1;
        self.monitor_countdown -= 1;
        if self.monitor_countdown == 0 {
            self.monitor_boundary();
        }
    }

    /// Monitoring-cadence boundary: write the batched state back, run each
    /// platform's [`Platform::monitor_service`] (registers, AFE, probes,
    /// supervisor, telemetry — the cold AoS path), then re-extract.
    fn monitor_boundary(&mut self) {
        self.sync_back();
        for p in &mut self.platforms {
            p.monitor_service();
        }
        self.resync_after_service();
    }

    /// Writes every lane kernel and scalar mirror back into the member
    /// platforms, leaving them byte-identical to individually stepped ones.
    fn sync_back(&mut self) {
        self.k.restore(&mut self.platforms);
        for (l, p) in self.platforms.iter_mut().enumerate() {
            p.tick = self.tick;
            p.monitor_countdown = self.monitor_countdown;
            p.drive_force = self.drive_force[l];
            p.rebalance_force = self.rebalance_force[l];
            p.pri_min = self.pri_min[l];
            p.pri_max = self.pri_max[l];
            p.sec_min = self.sec_min[l];
            p.sec_max = self.sec_max[l];
        }
    }

    /// Re-extracts kernels and refreshes the cached per-lane mirrors after
    /// the platforms were serviced (or mutated by the caller).
    fn resync_after_service(&mut self) {
        self.k.re_extract(&self.platforms, self.sub_dt, self.dsp_dt);
        self.monitor_countdown = self.platforms[0].monitor_countdown;
        self.tick = self.platforms[0].tick;
        for (l, p) in self.platforms.iter().enumerate() {
            self.safe_output[l] = p.supervisor.wants_safe_output();
            self.sup_enabled[l] = p.config.supervisor.enabled;
            self.drive_force[l] = p.drive_force;
            self.rebalance_force[l] = p.rebalance_force;
            self.pri_min[l] = p.pri_min;
            self.pri_max[l] = p.pri_max;
            self.sec_min[l] = p.sec_min;
            self.sec_max[l] = p.sec_max;
        }
    }

    /// Applies `f` to every member platform with the batched state synced
    /// back first (stimulus changes between lockstep segments — rate
    /// steps, temperature points).
    ///
    /// # Panics
    ///
    /// Panics if the closure breaks fleet eligibility (injects a fault,
    /// enables the CPU, desynchronizes tick phase): lane re-extraction is
    /// infallible only under the lockstep invariants.
    pub fn for_each_platform(&mut self, mut f: impl FnMut(&mut Platform)) {
        self.sync_back();
        for p in &mut self.platforms {
            f(p);
        }
        if let Err(reason) = Self::check_eligibility(&self.platforms) {
            panic!("fleet closure broke lockstep eligibility: {reason}");
        }
        self.resync_after_service();
    }

    /// Read access to one member platform **after** syncing the batched
    /// state back, so every observable matches a scalar-stepped platform.
    pub fn platform_synced(&mut self, lane: usize) -> &Platform {
        self.sync_back();
        &self.platforms[lane]
    }

    /// Dissolves the fleet, returning the member platforms with all
    /// batched state written back — each byte-identical (per
    /// [`Platform::save_state`]) to a platform stepped individually.
    #[must_use]
    pub fn into_platforms(mut self) -> Vec<Platform> {
        self.sync_back();
        self.platforms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascp_sim::stats;

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
