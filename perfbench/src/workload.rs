//! The three workloads: inputs generated from the workload seed, one batch
//! executed through the public campaign and channel APIs, and the physical
//! acceptance checks that decide whether a scenario failed.
//!
//! | workload | loads | bypasses |
//! |----------|-------|----------|
//! | `fault_sweep` | scalar tick with the 8051 on, supervisor, fault plans, journal | batched lanes, warm cache, checkpoints |
//! | `montecarlo` | batched lane kernels, noise draws | 8051, supervisor faults, checkpoints, journal |
//! | `characterize` | checkpoint restores, platform construction, Welch PSD, `SensorChannel` | batched lanes, 8051, journal |
//!
//! The seed sets every input the program sees — fault instants and noise
//! seeds, the population seed and probe rate, the rate-table points and the
//! channel seeds — and nothing else: sizes and protocols are fixed, so the
//! work per batch does not depend on the seed.

use crate::observe::ScenarioLog;
use ascp_bench::{paper, COMPARE_BAND};
use ascp_core::campaign::{
    derive_seed, CampaignOptions, CampaignReport, CampaignRunner, Dispersion, ScenarioSpec, Step,
};
use ascp_core::frontend::{ChannelConfig, ChannelStatus, SensorChannel};
use ascp_core::platform::{PlatformConfig, PlatformConfigBuilder};
use ascp_dsp::fft::{band_density, welch_psd, Window};
use ascp_mems::accel::CapacitiveAccelFrontEnd;
use ascp_mems::frontend::WireFault;
use ascp_mems::pressure::{IatThermistorFrontEnd, MapSensorFrontEnd};
use ascp_sim::fault::{AdcChannel, FaultKind, FaultPlan};
use ascp_sim::stats as sim_stats;
use ascp_sim::telemetry::trace::TraceRecorder;
use ascp_sim::telemetry::RecorderConfig;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every fault class at several seed-drawn instants, 8051 on.
    FaultSweep,
    /// One dispersed Monte-Carlo population on the lockstep step set.
    MonteCarlo,
    /// Warm-started rate × temperature table, datasheet rows, channels.
    Characterize,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Self; 3] = [Self::FaultSweep, Self::MonteCarlo, Self::Characterize];

    /// Command-line and report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::FaultSweep => "fault_sweep",
            Self::MonteCarlo => "montecarlo",
            Self::Characterize => "characterize",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work one batch holds. [`Size::FULL`] is the benchmark;
/// [`Size::TINY`] keeps every code path for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Size {
    /// `fault_sweep`: fault classes swept, a prefix of the catalog.
    pub classes: usize,
    /// `fault_sweep`: injection instants per class.
    pub instants: usize,
    /// `montecarlo`: population lanes.
    pub lanes: usize,
    /// `montecarlo`: simulated run-in to lock before the ±rate windows.
    pub lock_s: f64,
    /// `characterize`: temperatures, a prefix of Table 1's three.
    pub temperatures: usize,
    /// `characterize`: rate-table points per temperature.
    pub rate_points: usize,
    /// `characterize`: channel devices, a prefix of MAP, IAT, accel.
    pub devices: usize,
}

impl Size {
    /// The benchmark's batch size.
    pub const FULL: Self = Self {
        classes: FAULT_CLASSES.len(),
        instants: 2,
        lanes: 16,
        lock_s: 0.5,
        temperatures: TEMPERATURES.len(),
        rate_points: 17,
        devices: DEVICES.len(),
    };

    /// Smoke-test size: every workload and path, a fraction of the work.
    pub const TINY: Self = Self {
        classes: 2,
        instants: 1,
        lanes: 16,
        // The scale-factor bands hold only once the loops have locked.
        lock_s: Self::FULL.lock_s,
        temperatures: 1,
        rate_points: 2,
        devices: 1,
    };
}

// Seed streams: every generated input draws from `derive_seed(seed, k)`
// with its own stream offset, so inputs never share draws.
const STREAM_FAULT_INSTANT: u64 = 0x1000;
const STREAM_FAULT_NOISE: u64 = 0x2000;
const STREAM_POPULATION: u64 = 0x3000;
const STREAM_RATE: u64 = 0x4000;
const STREAM_TEMPERATURE: u64 = 0x5000;
const STREAM_CHANNEL: u64 = 0x6000;

/// Uniform draw in `[0, 1)` from stream `k` of `seed`.
fn unit(seed: u64, k: u64) -> f64 {
    (derive_seed(seed, k) >> 11) as f64 / (1u64 << 53) as f64
}

/// One fault class of the sweep, timed as `fault_campaign` (and, for the
/// wire classes, `sensor_datasheet`) configures it.
#[derive(Debug, Clone, Copy)]
struct FaultClass {
    kind: FaultKind,
    duration_s: f64,
    detect_budget_s: f64,
    recover_budget_s: f64,
}

const fn class(
    kind: FaultKind,
    duration_s: f64,
    detect_budget_s: f64,
    recover_budget_s: f64,
) -> FaultClass {
    FaultClass {
        kind,
        duration_s,
        detect_budget_s,
        recover_budget_s,
    }
}

/// All fourteen fault classes of the catalog.
const FAULT_CLASSES: [FaultClass; 14] = [
    class(FaultKind::MemsDriveLoss, 0.45, 0.8, 3.0),
    class(FaultKind::SensorDisconnect, 0.3, 0.2, 2.5),
    class(
        FaultKind::AdcStuckBit {
            channel: AdcChannel::Secondary,
            bit: 11,
            value: false,
        },
        0.3,
        0.2,
        2.0,
    ),
    class(
        FaultKind::AdcStuckCode {
            channel: AdcChannel::Primary,
            code: 0,
        },
        0.3,
        0.2,
        3.5,
    ),
    class(
        FaultKind::AdcOverload {
            channel: AdcChannel::Primary,
            gain: 4.0,
        },
        0.3,
        0.15,
        2.0,
    ),
    class(FaultKind::ReferenceDroop { frac: 0.4 }, 0.3, 0.35, 2.5),
    class(FaultKind::PllUnlock, 0.05, 0.15, 8.0),
    class(FaultKind::SpiBitErrors { rate: 0.9 }, 0.3, 0.15, 1.0),
    class(FaultKind::UartBitErrors { rate: 0.5 }, 0.3, 0.35, 1.0),
    class(FaultKind::JtagCorruption { rate: 0.1 }, 0.3, 0.25, 1.0),
    class(FaultKind::CpuHang, 0.06, 0.25, 2.0),
    class(FaultKind::WireNotConnected, 0.3, 0.5, 4.0),
    class(FaultKind::WireShortToGround, 0.3, 0.5, 4.0),
    class(FaultKind::WireReversePolarity, 0.3, 0.5, 4.0),
];

/// Fault instants are drawn uniformly from this window, after lock and
/// the supervisor's bring-up.
const T_INJECT_MIN_S: f64 = 0.70;
const T_INJECT_SPAN_S: f64 = 0.15;

/// Watchdog timeout armed in every fault scenario: 20 000 machine cycles.
const WATCHDOG_CYCLES: u16 = 20_000;

/// Flight-recorder depth, DSP ticks, as `fault_campaign` arms it.
const RECORDER_DEPTH: usize = 2048;

/// Monte-Carlo spread, as the `campaign_montecarlo` bench draws it.
fn dispersion() -> Dispersion {
    Dispersion::none()
        .with_omega_frac(0.02)
        .with_q_frac(0.05)
        .with_offset_dps(10.0)
        .with_gain_frac(0.03)
}

/// `montecarlo` probe rates are drawn from `[100, 200)` °/s.
const MC_RATE_MIN_DPS: f64 = 100.0;
const MC_RATE_SPAN_DPS: f64 = 100.0;
/// Settling after each rate step, and the averaging window.
const MC_SETTLE_S: f64 = 0.05;
const MC_WINDOW_S: f64 = 0.04;

/// Table 1's temperatures, °C.
const TEMPERATURES: [f64; 3] = [-40.0, 25.0, 85.0];
/// Shared settle after bring-up and the temperature step.
const TABLE_SETTLE_S: f64 = 0.05;
/// Settling after the rate step, and the averaging window.
const TABLE_RATE_SETTLE_S: f64 = 0.02;
const TABLE_WINDOW_S: f64 = 0.01;
/// Rate-table points are drawn from `[-300, 300)` °/s (Table 1 full scale).
const TABLE_FULL_SCALE_DPS: f64 = 300.0;
/// Datasheet scenario: static-transfer points and samples, noise capture.
/// Fewer samples bias the estimates: 100 per point leaves the 3-point
/// nonlinearity noise-limited, and one 4096-sample Welch segment reads
/// the noise density about 30% low.
const DATASHEET_POINTS: [f64; 3] = [-300.0, 0.0, 300.0];
const DATASHEET_SAMPLES: usize = 1000;
const DATASHEET_NOISE_SAMPLES: usize = 1 << 14;
/// `CharacterizationConfig::default()` settle before each capture, and the
/// platform's output sample period (10 kHz).
const DATASHEET_SETTLE_S: f64 = 0.3;
const OUTPUT_PERIOD_S: f64 = 1.0e-4;

/// Bands of quantities that read about 1, set from the values seen over
/// 35 seeds (0, 1–33 and 2⁶⁴−1) with a margin of about 3 % (1.5 % for the
/// channels) on each side. The rate-table slope at each temperature,
/// read 20 ms after the rate step, was 0.949–0.956; the 16-lane
/// population's median scale factor 0.972–0.978; the channel transfer
/// slopes 0.995–1.004.
const RATE_SLOPE_BAND: (f64, f64) = (0.92, 0.99);
const POPULATION_SF_BAND: (f64, f64) = (0.94, 1.01);
const CHANNEL_SLOPE_BAND: (f64, f64) = (0.98, 1.02);

/// Channel noise densities must stay below this share of full scale per
/// √Hz, some 30× the committed datasheet's worst channel.
const NOISE_CEILING_FS: f64 = 1.0e-4;

/// Channel wire faults: injection instant and duration (the channel
/// supervisor latches within three 1 ms windows).
const WIRE_AT_S: f64 = 0.05;
const WIRE_DURATION_S: f64 = 0.05;

/// A generic conditioning channel of the `characterize` workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// Manifold absolute pressure, kPa.
    Map,
    /// Intake-air thermistor, °C.
    Iat,
    /// ±50 g crash accelerometer.
    Accel,
}

/// Channel devices in sweep order.
pub const DEVICES: [Device; 3] = [Device::Map, Device::Iat, Device::Accel];

impl Device {
    /// Report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Map => "map",
            Self::Iat => "iat",
            Self::Accel => "accel",
        }
    }

    /// Builds the channel, as `sensor_datasheet` configures it.
    #[must_use]
    pub fn channel(self, seed: u64) -> SensorChannel {
        match self {
            Self::Map => {
                let mut cfg = ChannelConfig::new("map", seed);
                cfg.adc_vref = 5.0;
                SensorChannel::new(cfg, Box::new(MapSensorFrontEnd::automotive(seed)))
            }
            Self::Iat => {
                let mut cfg = ChannelConfig::new("iat", seed);
                cfg.adc_vref = 5.0;
                SensorChannel::new(cfg, Box::new(IatThermistorFrontEnd::automotive(seed)))
            }
            Self::Accel => SensorChannel::new(
                ChannelConfig::new("accel", seed),
                Box::new(CapacitiveAccelFrontEnd::crash_50g(seed)),
            ),
        }
    }

    /// Static-transfer stimulus points: both ends and the middle of the
    /// datasheet sweep.
    fn transfer_points(self) -> [f64; 3] {
        match self {
            Self::Map => [30.0, 165.0, 290.0],
            Self::Iat => [-20.0, 40.0, 110.0],
            Self::Accel => [-40.0, 0.0, 40.0],
        }
    }

    /// Noise-density hold point.
    fn noise_at(self) -> f64 {
        match self {
            Self::Map => 101.325,
            Self::Iat => 25.0,
            Self::Accel => 0.0,
        }
    }

    /// Wire faults the front-end's plausibility bands are designed to
    /// detect (the thermistor's span crosses the diode band, so reverse
    /// polarity is undetectable by design).
    fn wire_faults(self) -> &'static [WireFault] {
        use WireFault::{NotConnected, ReversePolarity, ShortToGround};
        match self {
            Self::Iat => &[NotConnected, ShortToGround],
            Self::Map | Self::Accel => &[NotConnected, ShortToGround, ReversePolarity],
        }
    }
}

/// A measurement driven through `SensorChannel`'s own methods.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelMeasure {
    /// Stimulus sweep and linear fit.
    Transfer {
        /// Stimulus points, engineering units.
        points: Vec<f64>,
        /// Decimated outputs averaged per point.
        avg: usize,
    },
    /// Held stimulus, Welch noise density.
    Noise {
        /// Stimulus, engineering units.
        at: f64,
        /// Decimated outputs captured.
        samples: usize,
    },
    /// One wire fault; the supervisor must latch its status.
    Wire {
        /// The harness fault.
        fault: WireFault,
    },
}

/// One channel measurement of the `characterize` workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelJob {
    /// Report name, `device/measurement`.
    pub name: String,
    /// Channel under test.
    pub device: Device,
    /// Channel seed.
    pub seed: u64,
    /// What to measure.
    pub measure: ChannelMeasure,
}

/// Result of one channel measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelOutcome {
    /// Job name.
    pub name: String,
    /// Named results.
    pub metrics: Vec<(String, f64)>,
    /// Simulated seconds the channel ran.
    pub sim_s: f64,
    /// Full-scale span of the front-end, engineering units.
    pub span: f64,
}

impl ChannelOutcome {
    /// Looks up a metric.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }
}

/// What the acceptance checks need to know about the generated inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// Per scenario, in input order: injection instant and detection budget.
    Faults(Vec<(f64, f64)>),
    /// The probe rate of the ±rate windows.
    Population {
        /// Probe rate, °/s.
        rate_dps: f64,
    },
    /// Rate-table rows `(temperature index, applied °/s)` and the names of
    /// the datasheet scenarios, by temperature index.
    Table {
        /// Per rate scenario, keyed by name.
        rows: Vec<(String, usize, f64)>,
        /// Datasheet scenario names.
        datasheets: Vec<String>,
    },
}

/// Generated inputs of one batch.
pub struct Prepared {
    /// Scenario specs, consumed by the campaign call.
    pub specs: Vec<ScenarioSpec>,
    /// Channel measurements (`characterize` only).
    pub channels: Vec<ChannelJob>,
    /// Acceptance expectations.
    pub expect: Expect,
    /// The campaign runner (one worker).
    pub runner: CampaignRunner,
    /// Journal path (`fault_sweep` only).
    pub journal: Option<PathBuf>,
}

/// The platform configuration a workload's scenarios start from, with the
/// 8051 monitor and supervisor switched as asked. Scenario-specific parts
/// (fault plans, seeds) are added on top of this by the generator.
#[must_use]
pub fn base_builder(workload: Workload, cpu: bool, supervisor: bool) -> PlatformConfigBuilder {
    let b = match workload {
        Workload::FaultSweep => PlatformConfig::builder()
            .quiet()
            .spi_probe_period(1)
            .jtag_probe_period(10)
            .recorder(RecorderConfig::fault_triggers(RECORDER_DEPTH)),
        // Full Table-1 noise: the datasheet rows are compared with it, and
        // the population's noise draws are part of its work.
        Workload::MonteCarlo | Workload::Characterize => PlatformConfig::builder(),
    };
    b.cpu_enabled(cpu).supervisor_enabled(supervisor)
}

/// Whether the workload runs the 8051 monitor in its scenarios.
#[must_use]
pub fn runs_cpu(workload: Workload) -> bool {
    workload == Workload::FaultSweep
}

/// Campaign options of a workload: one worker, warm start for the rate
/// table, everything else at its default. Timed and traced runs use the
/// same options; both attach the same observer.
///
/// # Errors
///
/// A rejected option set (never for these constants).
pub fn options(workload: Workload, log: Arc<ScenarioLog>) -> Result<CampaignOptions, String> {
    CampaignOptions::builder()
        .threads(1)
        .warm_start(workload == Workload::Characterize)
        .observer(log)
        .build()
        .map_err(|e| e.to_string())
}

/// Generates one batch's inputs from `seed` and prepares the runner and
/// journal location. This is the benchmark's set-up.
///
/// # Errors
///
/// A configuration rejected by validation, or a journal directory that
/// cannot be prepared.
pub fn setup(
    workload: Workload,
    seed: u64,
    size: Size,
    log: Arc<ScenarioLog>,
    scratch: &Path,
) -> Result<Prepared, String> {
    let (specs, channels, expect) = match workload {
        Workload::FaultSweep => fault_sweep(seed, size)?,
        Workload::MonteCarlo => montecarlo(seed, size)?,
        Workload::Characterize => characterize(seed, size)?,
    };
    let runner = CampaignRunner::with_options(options(workload, log)?);
    let journal = if workload == Workload::FaultSweep {
        std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
        let path = scratch.join(format!("{}.journal", workload.name()));
        match std::fs::remove_file(&path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
        Some(path)
    } else {
        None
    };
    Ok(Prepared {
        specs,
        channels,
        expect,
        runner,
        journal,
    })
}

type Generated = (Vec<ScenarioSpec>, Vec<ChannelJob>, Expect);

fn fault_sweep(seed: u64, size: Size) -> Result<Generated, String> {
    let mut specs = Vec::new();
    let mut expect = Vec::new();
    let noise_seed = derive_seed(seed, STREAM_FAULT_NOISE);
    for (c, fc) in FAULT_CLASSES.iter().take(size.classes).enumerate() {
        for k in 0..size.instants {
            let draw = (c * size.instants + k) as u64;
            let t_inject =
                T_INJECT_MIN_S + T_INJECT_SPAN_S * unit(seed, STREAM_FAULT_INSTANT + draw);
            let config = base_builder(Workload::FaultSweep, true, true)
                .seed(noise_seed)
                .fault_one_shot(fc.kind, t_inject, fc.duration_s)
                .build()
                .map_err(|e| e.to_string())?;
            specs.push(
                ScenarioSpec::new(format!("{}/{k}", fc.kind.label()), config)
                    .with_step(Step::ArmWatchdog {
                        timeout_cycles: WATCHDOG_CYCLES,
                    })
                    .with_step(Step::WaitReady { timeout_s: 2.0 })
                    .with_step(Step::WaitSupervisorNormal { timeout_s: 0.1 })
                    .with_step(Step::FaultResponse {
                        t_inject_s: t_inject,
                        t_clear_s: t_inject + fc.duration_s,
                        detect_budget_s: fc.detect_budget_s,
                        recover_budget_s: fc.recover_budget_s,
                        measure_recovery: false,
                    }),
            );
            expect.push((t_inject, fc.detect_budget_s));
        }
    }
    Ok((specs, Vec::new(), Expect::Faults(expect)))
}

/// Simulated seconds of one `montecarlo` lane.
fn lane_sim_s(size: Size) -> f64 {
    size.lock_s + 2.0 * (MC_SETTLE_S + MC_WINDOW_S)
}

fn montecarlo(seed: u64, size: Size) -> Result<Generated, String> {
    let rate_dps = MC_RATE_MIN_DPS + MC_RATE_SPAN_DPS * unit(seed, STREAM_RATE);
    let config = base_builder(Workload::MonteCarlo, false, true)
        .build()
        .map_err(|e| e.to_string())?;
    let spec = ScenarioSpec::new("population", config)
        .with_seed(derive_seed(seed, STREAM_POPULATION))
        .with_steps([
            Step::Run {
                seconds: size.lock_s,
            },
            Step::SetRate { dps: rate_dps },
            Step::Run {
                seconds: MC_SETTLE_S,
            },
            Step::MeasureMeanRate {
                label: "plus_dps".into(),
                window_s: MC_WINDOW_S,
            },
            Step::SetRate { dps: -rate_dps },
            Step::Run {
                seconds: MC_SETTLE_S,
            },
            Step::MeasureMeanRate {
                label: "minus_dps".into(),
                window_s: MC_WINDOW_S,
            },
        ])
        .monte_carlo(size.lanes, dispersion());
    Ok((vec![spec], Vec::new(), Expect::Population { rate_dps }))
}

/// The shared settle prefix of one temperature's scenarios.
fn table_prefix(celsius: f64) -> [Step; 3] {
    [
        Step::WaitReady { timeout_s: 2.0 },
        Step::SetTemperature { celsius },
        Step::Run {
            seconds: TABLE_SETTLE_S,
        },
    ]
}

fn characterize(seed: u64, size: Size) -> Result<Generated, String> {
    let config = base_builder(Workload::Characterize, false, true)
        .build()
        .map_err(|e| e.to_string())?;
    let mut specs = Vec::new();
    let mut rows = Vec::new();
    let mut datasheets = Vec::new();
    for (t, &celsius) in TEMPERATURES.iter().take(size.temperatures).enumerate() {
        // One explicit seed per temperature: its scenarios share one
        // settle recipe, hence one cached checkpoint.
        let temp_seed = derive_seed(seed, STREAM_TEMPERATURE + t as u64);
        for k in 0..size.rate_points {
            let draw = STREAM_RATE + (t * size.rate_points + k) as u64;
            let dps = TABLE_FULL_SCALE_DPS * (2.0 * unit(seed, draw) - 1.0);
            let name = format!("rate/{celsius}C/{k}");
            specs.push(
                ScenarioSpec::new(name.clone(), config.clone())
                    .with_seed(temp_seed)
                    .with_steps(table_prefix(celsius))
                    .with_steps([
                        Step::SetRate { dps },
                        Step::Run {
                            seconds: TABLE_RATE_SETTLE_S,
                        },
                        Step::MeasureMeanRate {
                            label: "mean_dps".into(),
                            window_s: TABLE_WINDOW_S,
                        },
                    ]),
            );
            rows.push((name, t, dps));
        }
        let name = format!("datasheet/{celsius}C");
        specs.push(
            ScenarioSpec::new(name.clone(), config.clone())
                .with_seed(temp_seed)
                .with_steps(table_prefix(celsius))
                .with_steps([
                    Step::MeasureStaticTransfer {
                        rate_points: DATASHEET_POINTS.to_vec(),
                        samples_per_point: DATASHEET_SAMPLES,
                    },
                    Step::MeasureNoiseDensity {
                        samples: DATASHEET_NOISE_SAMPLES,
                    },
                ]),
        );
        datasheets.push(name);
    }
    let mut channels = Vec::new();
    for (d, &device) in DEVICES.iter().take(size.devices).enumerate() {
        let seed = derive_seed(seed, STREAM_CHANNEL + d as u64);
        let job = |what: &str, measure| ChannelJob {
            name: format!("{}/{what}", device.name()),
            device,
            seed,
            measure,
        };
        channels.push(job(
            "transfer",
            ChannelMeasure::Transfer {
                points: device.transfer_points().to_vec(),
                avg: 16,
            },
        ));
        channels.push(job(
            "noise",
            ChannelMeasure::Noise {
                at: device.noise_at(),
                samples: 1 << 10,
            },
        ));
        for &fault in device.wire_faults() {
            channels.push(job(
                &format!("wire/{}", fault.label()),
                ChannelMeasure::Wire { fault },
            ));
        }
    }
    Ok((specs, channels, Expect::Table { rows, datasheets }))
}

/// The expected supervisor status for a wire fault.
fn latched(fault: WireFault) -> (FaultKind, ChannelStatus) {
    match fault {
        WireFault::NotConnected => (FaultKind::WireNotConnected, ChannelStatus::NotConnected),
        WireFault::ShortToGround => (FaultKind::WireShortToGround, ChannelStatus::ShortToGround),
        WireFault::ReversePolarity => (
            FaultKind::WireReversePolarity,
            ChannelStatus::ReversePolarity,
        ),
    }
}

/// Runs one channel measurement through `SensorChannel`'s own methods.
#[must_use]
pub fn run_channel(job: &ChannelJob) -> ChannelOutcome {
    let mut ch = job.device.channel(job.seed);
    let (lo, hi) = ch.frontend().range();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    match &job.measure {
        ChannelMeasure::Transfer { points, avg } => {
            ch.settle(0.02);
            let means: Vec<f64> = points
                .iter()
                .map(|&p| {
                    ch.set_stimulus(p);
                    ch.settle(0.01);
                    sim_stats::mean(&ch.collect(*avg))
                })
                .collect();
            let fit = sim_stats::linear_fit(points, &means);
            metrics.push(("transfer_slope".into(), fit.slope));
            metrics.push((
                "linearity_pct_fs".into(),
                100.0 * fit.max_residual / (hi - lo),
            ));
        }
        ChannelMeasure::Noise { at, samples } => {
            ch.set_stimulus(*at);
            ch.settle(0.05);
            let xs = ch.collect(*samples);
            let m = sim_stats::mean(&xs);
            let centred: Vec<f64> = xs.iter().map(|x| x - m).collect();
            let fs = ch.output_rate();
            let segment = (samples / 4).next_power_of_two().clamp(64, 512);
            let (freqs, psd) = welch_psd(&centred, fs, segment, Window::Hann);
            metrics.push((
                "noise_density_eu_rthz".into(),
                band_density(&freqs, &psd, 5.0, (fs / 4.0).min(200.0)),
            ));
        }
        ChannelMeasure::Wire { fault } => {
            let (kind, expect) = latched(*fault);
            let mut plan = FaultPlan::new();
            plan.one_shot(kind, WIRE_AT_S, WIRE_DURATION_S);
            ch.set_fault_plan(plan);
            let mut detected_at = None;
            while ch.time() < WIRE_AT_S + WIRE_DURATION_S && detected_at.is_none() {
                let _ = ch.step();
                if ch.status() == expect {
                    detected_at = Some(ch.time());
                }
            }
            metrics.push((
                "detected".into(),
                f64::from(u8::from(detected_at.is_some())),
            ));
            if let Some(t) = detected_at {
                metrics.push(("latency_ms".into(), (t - WIRE_AT_S) * 1.0e3));
            }
        }
    }
    ChannelOutcome {
        name: job.name.clone(),
        metrics,
        sim_s: ch.time(),
        span: hi - lo,
    }
}

/// Results of one batch, with the instants its phases ended at.
pub struct Batch {
    /// The campaign report.
    pub report: CampaignReport,
    /// Channel results (`characterize` only).
    pub channels: Vec<ChannelOutcome>,
    /// The whole result as long-format CSV, rendered in memory.
    pub csv: String,
    /// Host seconds from the first campaign call to the rendered CSV.
    pub wall_s: f64,
    /// Host seconds of the campaign call alone.
    pub campaign_s: f64,
    /// Host seconds of CSV rendering alone.
    pub csv_s: f64,
}

/// Executes one batch: the campaign call, the channel measurements, and
/// the CSV. With `rec`, each phase is recorded as a span around the call.
///
/// # Errors
///
/// A journal that cannot be written.
pub fn execute(prep: Prepared, mut rec: Option<&mut TraceRecorder>) -> Result<Batch, String> {
    let span = |rec: &mut Option<&mut TraceRecorder>, label: &str| {
        rec.as_deref_mut().map(|r| r.begin(label.to_owned(), 0.0))
    };
    let close = |rec: &mut Option<&mut TraceRecorder>, id| {
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), id) {
            r.end(id, 0.0);
        }
    };
    let t0 = Instant::now();
    let id = span(&mut rec, "campaign");
    let report = match &prep.journal {
        Some(path) => prep
            .runner
            .run_with_journal(prep.specs, path)
            .map_err(|e| format!("journal {}: {e}", path.display()))?,
        None => prep.runner.run(prep.specs),
    };
    close(&mut rec, id);
    let campaign_s = t0.elapsed().as_secs_f64();
    let id = span(&mut rec, "channels");
    let channels: Vec<ChannelOutcome> = prep.channels.iter().map(run_channel).collect();
    close(&mut rec, id);
    let t_csv = Instant::now();
    let id = span(&mut rec, "csv");
    let mut csv = report.to_csv();
    for c in &channels {
        for (metric, value) in &c.metrics {
            let _ = writeln!(csv, "{},{metric},{value},ok", c.name);
        }
    }
    close(&mut rec, id);
    let wall_s = t0.elapsed().as_secs_f64();
    Ok(Batch {
        report,
        channels,
        csv,
        wall_s,
        campaign_s,
        csv_s: t_csv.elapsed().as_secs_f64(),
    })
}

/// Outcome of the acceptance checks over one batch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Scenarios and channel measurements attempted.
    pub attempted: usize,
    /// `(scenario or channel measurement, reason)` for each failed check.
    /// One scenario can fail several checks, and an aggregate check is
    /// charged to every scenario it covers.
    pub failures: Vec<(String, String)>,
    /// Simulated supervisor detection latencies, ms.
    pub detect_ms: Vec<f64>,
    /// Simulated channel wire-fault detection latencies, ms.
    pub channel_detect_ms: Vec<f64>,
    /// Absolute error against Table 1, percent, by quantity.
    pub accuracy: Vec<(&'static str, f64)>,
    /// Simulated seconds over all scenarios and channels.
    pub sim_s: f64,
    /// Lanes and ticks per lane of a Monte-Carlo population.
    pub lane_ticks: Option<(usize, u64)>,
}

impl Verdict {
    /// Distinct scenarios and channel measurements that were poisoned or
    /// failed at least one check: never more than `attempted`.
    #[must_use]
    pub fn failed(&self) -> usize {
        let names: BTreeSet<&str> = self.failures.iter().map(|f| f.0.as_str()).collect();
        names.len()
    }
}

/// Platform DSP ticks per simulated second: the default DSP rate, which
/// no workload changes.
fn dsp_rate_hz() -> f64 {
    PlatformConfig::default().dsp_rate.0
}

/// Whether `x` is finite and lies inside `band`.
fn within(x: f64, band: (f64, f64)) -> bool {
    x.is_finite() && (band.0..=band.1).contains(&x)
}

/// Whether `measured / reference` lies inside `COMPARE_BAND`, the band
/// for Table 1 datasheet values.
fn in_band(measured: f64, reference: f64) -> bool {
    within(measured / reference, COMPARE_BAND)
}

/// Applies the workload's physical acceptance checks to one batch.
#[must_use]
pub fn evaluate(expect: &Expect, size: Size, batch: &Batch) -> Verdict {
    let mut v = Verdict {
        attempted: batch.report.outcomes.len() + batch.channels.len(),
        ..Verdict::default()
    };
    let mut failed = |name: &str, why: String| v.failures.push((name.to_owned(), why));
    for o in batch.report.outcomes.iter().filter(|o| o.failed()) {
        failed(
            &o.name,
            format!("poisoned after {} attempts", o.attempt_errors.len()),
        );
    }
    let done = || batch.report.outcomes.iter().filter(|o| !o.failed());
    match expect {
        Expect::Faults(faults) => {
            for o in done() {
                let Some(&(t_inject, budget)) = faults.get(o.index) else {
                    failed(&o.name, "unexpected scenario".into());
                    continue;
                };
                let latency = o.metric("detection_latency_s");
                match (o.metric("detected"), latency) {
                    (Some(d), Some(l)) if d == 1.0 && (0.0..=budget).contains(&l) => {
                        v.detect_ms.push(l * 1.0e3);
                        v.sim_s += t_inject + l;
                    }
                    _ => {
                        failed(
                            &o.name,
                            format!("not detected within {budget} s ({latency:?})"),
                        );
                        v.sim_s += t_inject + budget;
                    }
                }
            }
        }
        Expect::Population { rate_dps } => {
            let lanes: Vec<(&str, f64)> = done()
                .map(|o| {
                    let sf = match (o.metric("plus_dps"), o.metric("minus_dps")) {
                        (Some(p), Some(m)) => (p - m) / (2.0 * rate_dps),
                        _ => f64::NAN,
                    };
                    (o.name.as_str(), sf)
                })
                .collect();
            let median = crate::stats::median(&lanes.iter().map(|l| l.1).collect::<Vec<_>>());
            // A lane's scale factor moves with its charge gain, quality
            // factors and resonance; the band is the sum of those
            // half-widths on each side of the median, plus 1% for noise.
            let d = dispersion();
            let band = 2.0 * (d.gain_frac + d.q_frac + d.omega_frac) + 0.01;
            // The population-wide check is charged to every lane it covers.
            if !within(median, POPULATION_SF_BAND) {
                for (name, _) in &lanes {
                    failed(name, format!("population median scale factor {median}"));
                }
            }
            for (name, sf) in lanes {
                // A NaN scale factor (a lane without both windows) fails.
                let inside = (sf / median - 1.0).abs() <= band;
                if !inside {
                    failed(
                        name,
                        format!("scale factor {sf} outside ±{band} of {median}"),
                    );
                }
            }
            let ticks = (lane_sim_s(size) * dsp_rate_hz()).round() as u64;
            v.lane_ticks = Some((batch.report.outcomes.len(), ticks));
            v.sim_s = batch.report.outcomes.len() as f64 * lane_sim_s(size);
        }
        Expect::Table { rows, datasheets } => {
            // Per temperature: applied and measured rates, and the rows.
            let mut by_temp: Vec<(Vec<f64>, Vec<f64>, Vec<&str>)> =
                vec![(Vec::new(), Vec::new(), Vec::new()); size.temperatures];
            for (name, t, dps) in rows {
                let Some(o) = done().find(|o| &o.name == name) else {
                    continue;
                };
                match o.metric("mean_dps") {
                    Some(mean) if mean.is_finite() => {
                        by_temp[*t].0.push(*dps);
                        by_temp[*t].1.push(mean);
                        by_temp[*t].2.push(name);
                    }
                    _ => failed(name, "no mean rate".into()),
                }
                v.sim_s += o.metric("turn_on_s").unwrap_or(0.0)
                    + TABLE_SETTLE_S
                    + TABLE_RATE_SETTLE_S
                    + TABLE_WINDOW_S;
            }
            // The rate table must track the applied rate at every
            // temperature: slope (°/s out per °/s in) inside
            // RATE_SLOPE_BAND, charged to every row of that temperature.
            for (x, y, names) in &by_temp {
                if x.len() >= 2 {
                    let slope = sim_stats::linear_fit(x, y).slope;
                    if !within(slope, RATE_SLOPE_BAND) {
                        for name in names {
                            failed(name, format!("rate-table slope {slope}"));
                        }
                    }
                }
            }
            for name in datasheets {
                let Some(o) = done().find(|o| &o.name == name) else {
                    continue;
                };
                let sens = o.metric("sensitivity_v_per_dps").map(|s| s.abs() * 1.0e3);
                let noise = o.metric("noise_density_dps_rthz");
                let nonlin = o.metric("nonlinearity_pct_fs");
                let turn_on = o.metric("turn_on_s").map(|s| s * 1.0e3);
                let checks = [
                    ("sensitivity", sens, paper::T1_SENSITIVITY_TYP),
                    ("noise_density", noise, paper::T1_NOISE_TYP),
                    ("turn_on", turn_on, paper::T1_TURN_ON_MS),
                ];
                for (what, value, reference) in checks {
                    if !value.is_some_and(|x| in_band(x, reference)) {
                        failed(name, format!("{what} {value:?} vs Table 1 {reference}"));
                    }
                }
                // Table 1 gives a maximum nonlinearity: only the upper edge
                // of the band applies.
                if !nonlin.is_some_and(|x| x >= 0.0 && x <= paper::T1_NONLIN_MAX * COMPARE_BAND.1) {
                    failed(
                        name,
                        format!(
                            "nonlinearity {nonlin:?} vs Table 1 max {}",
                            paper::T1_NONLIN_MAX
                        ),
                    );
                }
                if v.accuracy.is_empty() || name.contains("/25C") {
                    let err = |x: Option<f64>, r: f64| {
                        x.map_or(f64::NAN, |x| 100.0 * (x / r - 1.0).abs())
                    };
                    v.accuracy = vec![
                        ("sensitivity_err_pct", err(sens, paper::T1_SENSITIVITY_TYP)),
                        ("noise_density_err_pct", err(noise, paper::T1_NOISE_TYP)),
                        // Table 1 gives a maximum: report the share of it.
                        (
                            "nonlinearity_of_max_pct",
                            nonlin.map_or(f64::NAN, |x| 100.0 * x / paper::T1_NONLIN_MAX),
                        ),
                        ("turn_on_err_pct", err(turn_on, paper::T1_TURN_ON_MS)),
                    ];
                }
                v.sim_s += o.metric("turn_on_s").unwrap_or(0.0)
                    + TABLE_SETTLE_S
                    + DATASHEET_POINTS.len() as f64
                        * (DATASHEET_SETTLE_S + DATASHEET_SAMPLES as f64 * OUTPUT_PERIOD_S)
                    + DATASHEET_SETTLE_S
                    + DATASHEET_NOISE_SAMPLES as f64 * OUTPUT_PERIOD_S;
            }
        }
    }
    for c in &batch.channels {
        v.sim_s += c.sim_s;
        let ok = if c.name.contains("/wire/") {
            match (c.metric("detected"), c.metric("latency_ms")) {
                (Some(d), Some(ms)) if d == 1.0 && ms <= WIRE_DURATION_S * 1.0e3 => {
                    v.channel_detect_ms.push(ms);
                    true
                }
                _ => false,
            }
        } else if c.name.ends_with("/transfer") {
            c.metric("transfer_slope")
                .is_some_and(|s| within(s, CHANNEL_SLOPE_BAND))
        } else {
            // A quantized DC path can read exactly 0; a broken one reads
            // far above the datasheet floors (≤ 3e-6 of full scale).
            c.metric("noise_density_eu_rthz")
                .is_some_and(|n| (0.0..=NOISE_CEILING_FS * c.span).contains(&n))
        };
        if !ok {
            failed(&c.name, format!("{:?}", c.metrics));
        }
    }
    v
}
