//! Platform configuration: the component values, the build variant and
//! the validating builder every non-default configuration goes through.

use crate::chain::SenseMode;
use crate::supervisor::SupervisorConfig;
use ascp_afe::adc::AdcConfig;
use ascp_afe::amp::Pga;
use ascp_afe::dac::DacConfig;
use ascp_sim::fault::{FaultKind, FaultPlan};
use ascp_sim::telemetry::TelemetryConfig;
use ascp_sim::units::{Hertz, Volts};

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
    /// Observability settings (metrics, events, flight recorder).
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
    /// instead of panicking later inside [`Platform::new`](super::Platform::new).
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
/// [`ConfigError`] instead of panicking inside
/// [`Platform::new`](super::Platform::new).
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

    /// Analog solver substeps per DSP sample.
    #[must_use]
    pub fn analog_oversample(mut self, substeps: u32) -> Self {
        self.config.analog_oversample = substeps;
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
