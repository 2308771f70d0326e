//! Scenario campaigns: declarative experiments on the gyro platform and on
//! sensor channels, executed on the parallel [`ascp_sim::campaign`] pool.
//!
//! The paper's design flow (§2, Fig. 1) explores one programmable platform
//! across many configurations and sensors. This module turns that
//! exploration into data: a [`ScenarioSpec`] names a [`Device`] (a
//! [`PlatformConfig`], or a [`SensorChannel`] via [`ScenarioSpec::channel`]),
//! an optional [`FaultPlan`], a duration, a seed and a list of [`Step`]s; a
//! [`CampaignRunner`] shards a `Vec<ScenarioSpec>` across worker threads —
//! one independent device per scenario — and merges the per-scenario
//! metrics into a single [`CampaignReport`] (CSV + telemetry JSON).
//!
//! Determinism contract: every scenario derives its noise seed from its
//! own spec (`seed` override, else the device's base seed mixed with the
//! scenario's input index), so a campaign's report is **bit-identical for
//! any worker-thread count**. Metrics that were not measured (e.g. no
//! recovery on an undetected fault) are omitted rather than recorded as
//! NaN, keeping the CSV and JSON artifacts byte-stable. Scenarios that
//! share a settle recipe can additionally share the lock transient's cost
//! through the warm-start checkpoint cache
//! (`CampaignOptions::builder().warm_start(true)`) — with reports still
//! byte-identical to cold runs.
//!
//! Runner behaviour is configured through [`CampaignOptions`], a typed
//! options struct with a validating builder
//! ([`CampaignOptions::builder`]). The former `CampaignRunner::with_*`
//! setters were removed after a deprecation cycle; see DESIGN.md §14
//! for the old → new mapping table.
//!
//! # Monte-Carlo axis
//!
//! [`ScenarioSpec::monte_carlo`] expands one spec into `n` *lanes* —
//! scenarios named `{name}/mc{i}` whose seeds derive from the spec's base
//! seed and whose physical parameters (resonator frequency, quality
//! factors, quadrature rate, charge gain) are perturbed per lane by a
//! [`Dispersion`] — the paper's device-mismatch exploration as one line
//! of campaign code (channel lanes differ in their seeds only). Lanes are
//! ordinary scenarios: they journal, resume, retry, and land in the CSV
//! individually. Consecutive sibling lanes
//! whose steps use only the lockstep-safe vocabulary (`Run`, `SetRate`,
//! `SetTemperature`, `MeasureMeanRate`) additionally execute *batched*
//! on a [`PlatformFleet`] — structure-of-arrays, up to 16 lanes per
//! fleet — with **byte-identical** results to scalar execution (fleet
//! batching is a wall-clock optimisation, never an arithmetic change).
//! The scalar reference is the same population pre-expanded with
//! [`expand_monte_carlo`]: its lanes run as plain scenarios, one
//! platform each.
//!
//! # Supervision
//!
//! The runner is fault-tolerant: scenarios execute under a supervision
//! layer whose per-scenario FSM is `Queued → Running → {Done, Retrying(n)
//! → Running, TimedOut → Retrying, Poisoned}`. A panicking scenario is
//! caught ([`ScenarioError::Panicked`]) instead of killing the pool; a
//! scenario overrunning the configured wall-clock deadline
//! (`CampaignOptions::builder().deadline_s(..)`) is cancelled by its own
//! worker, which reads the attempt's clock at every cancellation check
//! point ([`ScenarioError::TimedOut`]); failed attempts are retried (default
//! once, `CampaignOptions::builder().retries(..)`) with the derived seed
//! **unchanged**, so a retried success is byte-identical to a first-try
//! run; a scenario that exhausts its retries is quarantined as
//! [`ScenarioStatus::Poisoned`] and ships as a failed CSV row instead of
//! aborting the campaign. [`CampaignRunner::run_with_journal`] records
//! each completed scenario in a crash-tolerant append-only journal
//! ([`crate::journal`]) and [`CampaignRunner::resume`] merges it back
//! byte-identically after a crash; a chaos plan
//! (`CampaignOptions::builder().chaos(..)`) injects deterministic worker
//! panics/stalls to exercise all of the above.
//!
//! # Step vocabulary
//!
//! Steps either evolve the device's state or measure it; every measurement
//! lands in the scenario's [`ScenarioOutcome`] and, through
//! [`CampaignReport::to_csv`], in the long-format CSV
//! (`scenario,metric,value,status` rows). Each device interprets the steps
//! it has a meaning for; any other step panics with its label, which
//! supervision turns into a [`ScenarioStatus::Poisoned`] row.
//!
//! | Step | On the gyro platform: measures, CSV metrics | On a sensor channel ([`ScenarioSpec::channel`]) |
//! |------|---------------------------------------------|-------------------------------------------------|
//! | [`Step::ArmWatchdog`] | — (arms the watchdog) | — |
//! | [`Step::WaitReady`] | PLL lock + AGC settling: `locked`, `turn_on_s` | — |
//! | [`Step::WaitSupervisorNormal`] | supervisor bring-up: `supervisor_normal_s` | — |
//! | [`Step::Run`] | advances time | `settle(seconds)` |
//! | [`Step::SetRate`] | rate table stimulus | — |
//! | [`Step::SetStimulus`] | — | stimulus in engineering units |
//! | [`Step::SetTemperature`] | chamber setpoint | transducer temperature |
//! | [`Step::FreezeAgcDrive`] | AGC-off ablation arm | — |
//! | [`Step::TrimRebalancePhase`] | closed-loop axis trim: `rebalance_phase_rad` | — |
//! | [`Step::MeasureMeanRate`] | mean rate over a window: `<label>` | — |
//! | [`Step::MeasureSensitivity`] | two-point sensitivity: `<label>` | — |
//! | [`Step::MeasureLinearity`] | linear-fit nonlinearity: `<label>` | — |
//! | [`Step::MeasureStaticTransfer`] | `sensitivity_v_per_dps`, `null_v`, `nonlinearity_pct_fs` | settle 20 ms, then per point (EU): settle 10 ms, average; `transfer_slope`, `sensitivity_v_per_eu`, `linearity_pct_fs`, `offset_eu` + series `transfer_eu` |
//! | [`Step::MeasureNoiseDensity`] | Welch PSD: `noise_density_dps_rthz` | settle 50 ms at the held stimulus, Welch PSD: `noise_density_eu_rthz`, `noise_rms_eu` |
//! | [`Step::CaptureZeroRate`] | Allan input: `<label>_fs_hz` + series `<label>` | — |
//! | [`Step::FaultResponse`] | `baseline_dps`, `detected`, `detection_latency_s`, `recovered`, `recovery_time_s`, `residual_rate_dps`, `final_state_code` | wire-fault latch until `t_clear_s + recover_budget_s`: `detected`, `latency_ms`, `recovered` |
//!
//! # Example
//!
//! ```
//! use ascp_core::campaign::{CampaignOptions, CampaignRunner, ScenarioSpec, Step};
//! use ascp_core::platform::PlatformConfig;
//!
//! let cfg = PlatformConfig::builder().quiet().build().expect("valid");
//! let scenarios: Vec<ScenarioSpec> = [50.0, 150.0]
//!     .iter()
//!     .map(|&dps| {
//!         ScenarioSpec::new(format!("rate_{dps}"), cfg.clone())
//!             .with_step(Step::Run { seconds: 0.02 })
//!             .with_step(Step::SetRate { dps })
//!             .with_step(Step::MeasureMeanRate {
//!                 label: "mean_dps".into(),
//!                 window_s: 0.01,
//!             })
//!     })
//!     .collect();
//! let report = CampaignRunner::with_options(
//!     CampaignOptions::builder().threads(2).build().expect("valid"),
//! )
//! .run(scenarios);
//! assert_eq!(report.outcomes.len(), 2);
//! assert!(report.metric("rate_150", "mean_dps").is_some());
//! ```

use crate::calibrate::trim_rebalance_phase;
use crate::chain::ConditioningChain;
use crate::characterize::{
    measure_noise_density, measure_static_transfer, CharacterizationConfig, RateSensor,
};
use crate::checkpoint;
use crate::frontend::{ChannelStatus, SensorChannel};
use crate::journal::{self, JournalError, JournalWriter};
use crate::platform::{ConfigError, Platform, PlatformConfig, PlatformFleet};
use crate::supervisor::SupervisorState;
use ascp_dsp::fft::{band_density, welch_psd, Window};
use ascp_mcu8051::periph::Bus16Device;
use ascp_sim::campaign::{available_parallelism, panic_message, try_parallel_map, MapError};
use ascp_sim::fault::FaultPlan;
use ascp_sim::snapshot::fnv1a64;
use ascp_sim::stats;
use ascp_sim::telemetry::trace::{SpanId, TraceCollector, TraceLog, TraceRecorder};
use ascp_sim::telemetry::{CaptureBundle, Telemetry, TelemetryConfig, TelemetrySnapshot};
use ascp_sim::units::{Celsius, DegPerSec, Hertz};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// One step of a scenario's measurement protocol.
///
/// Steps run in order against the scenario's private device ([`Device`]);
/// each `Measure*` step appends named metrics (and, for captures, sample
/// series) to the scenario's [`ScenarioOutcome`]. The step vocabulary
/// covers the protocols of the repo's bench bins — fault campaign,
/// ablations, stability runs and the cross-sensor datasheet are all
/// scenario lists. The module docs tabulate each step's meaning per device.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Arms the watchdog through its register interface (needed before
    /// CPU-hang fault scenarios).
    ArmWatchdog {
        /// Watchdog timeout in machine cycles.
        timeout_cycles: u16,
    },
    /// Runs until PLL lock + AGC settling; records `locked` (0/1) and, on
    /// success, `turn_on_s`. On timeout the remaining steps are skipped.
    WaitReady {
        /// Bring-up deadline, seconds.
        timeout_s: f64,
    },
    /// Runs until the safety supervisor reports `Normal`; records
    /// `supervisor_normal_s`. On timeout the remaining steps are skipped.
    WaitSupervisorNormal {
        /// Deadline, seconds.
        timeout_s: f64,
    },
    /// Advances simulated time.
    Run {
        /// Simulated seconds (rounded to the nearest DSP tick).
        seconds: f64,
    },
    /// Applies a constant rate stimulus (the rate table).
    SetRate {
        /// Rate, °/s.
        dps: f64,
    },
    /// Sets a sensor channel's stimulus, in engineering units.
    SetStimulus {
        /// Stimulus value.
        value: f64,
    },
    /// Sets chamber temperature.
    SetTemperature {
        /// Temperature, °C.
        celsius: f64,
    },
    /// Freezes the AGC at the currently settled drive (the "AGC off"
    /// ablation arm), then re-locks for `resettle_s`.
    FreezeAgcDrive {
        /// Re-lock time after the swap, seconds.
        resettle_s: f64,
    },
    /// Runs the closed-loop rebalance phase trim (final-test axis trim).
    TrimRebalancePhase {
        /// Probe rate, °/s.
        probe_rate_dps: f64,
        /// Trim iterations.
        iterations: u32,
    },
    /// Records the mean rate output over a window as metric `label`.
    MeasureMeanRate {
        /// Metric name.
        label: String,
        /// Averaging window, seconds.
        window_s: f64,
    },
    /// Two-point sensitivity at ±`rate_dps`, recorded as metric `label`
    /// (output °/s per applied °/s); leaves the rate at zero.
    MeasureSensitivity {
        /// Metric name.
        label: String,
        /// Probe rate magnitude, °/s.
        rate_dps: f64,
        /// Settling time before sampling each polarity, seconds.
        settle_s: f64,
        /// Samples per polarity.
        samples: usize,
    },
    /// Linear-fit nonlinearity over a rate sweep, recorded as metric
    /// `label` (% of the sweep's full scale).
    MeasureLinearity {
        /// Metric name.
        label: String,
        /// Sweep points, °/s.
        rates: Vec<f64>,
        /// Dwell after each rate change, seconds.
        dwell_s: f64,
        /// Settling time before sampling, seconds.
        settle_s: f64,
        /// Samples per point.
        samples: usize,
    },
    /// Datasheet static transfer: records `sensitivity_v_per_dps`,
    /// `null_v` and `nonlinearity_pct_fs`, and remembers the sensitivity
    /// for a following [`Step::MeasureNoiseDensity`].
    MeasureStaticTransfer {
        /// Rate sweep points, °/s.
        rate_points: Vec<f64>,
        /// Samples per sweep point.
        samples_per_point: usize,
    },
    /// Zero-rate noise density via Welch PSD, recorded as
    /// `noise_density_dps_rthz` (uses the sensitivity from the last
    /// [`Step::MeasureStaticTransfer`], else the nominal 5 mV/°/s).
    MeasureNoiseDensity {
        /// Capture length, samples.
        samples: usize,
    },
    /// Long zero-rate capture converted to °/s, stored as sample series
    /// `label` (the Allan-deviation input).
    CaptureZeroRate {
        /// Series name.
        label: String,
        /// Capture length, seconds.
        seconds: f64,
        /// Settling time before the capture, seconds.
        settle_s: f64,
    },
    /// The fault-campaign protocol: baseline rate, detection latency from
    /// `t_inject_s`, then (optionally) recovery time and residual error
    /// after `t_clear_s`. Records `baseline_dps`, `detected`,
    /// `detection_latency_s`, `recovered`, `recovery_time_s`,
    /// `residual_rate_dps` and `final_state_code` — unmeasured metrics are
    /// omitted, never NaN. A sensor channel steps until `t_clear_s +
    /// recover_budget_s` and records `detected`, `latency_ms`, `recovered`.
    FaultResponse {
        /// Scheduled fault-injection time (must match the scenario's
        /// [`FaultPlan`]), seconds.
        t_inject_s: f64,
        /// Scheduled fault-clear time, seconds.
        t_clear_s: f64,
        /// Deadline for the supervisor to leave `Normal`, from injection.
        detect_budget_s: f64,
        /// Deadline to return to `Normal` after the fault clears.
        recover_budget_s: f64,
        /// Whether to wait for recovery (the non-smoke campaign).
        measure_recovery: bool,
    },
}

impl Step {
    /// Stable variant label (trace span names, progress lines).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::ArmWatchdog { .. } => "ArmWatchdog",
            Self::WaitReady { .. } => "WaitReady",
            Self::WaitSupervisorNormal { .. } => "WaitSupervisorNormal",
            Self::Run { .. } => "Run",
            Self::SetRate { .. } => "SetRate",
            Self::SetStimulus { .. } => "SetStimulus",
            Self::SetTemperature { .. } => "SetTemperature",
            Self::FreezeAgcDrive { .. } => "FreezeAgcDrive",
            Self::TrimRebalancePhase { .. } => "TrimRebalancePhase",
            Self::MeasureMeanRate { .. } => "MeasureMeanRate",
            Self::MeasureSensitivity { .. } => "MeasureSensitivity",
            Self::MeasureLinearity { .. } => "MeasureLinearity",
            Self::MeasureStaticTransfer { .. } => "MeasureStaticTransfer",
            Self::MeasureNoiseDensity { .. } => "MeasureNoiseDensity",
            Self::CaptureZeroRate { .. } => "CaptureZeroRate",
            Self::FaultResponse { .. } => "FaultResponse",
        }
    }
}

/// Per-lane manufacturing dispersion for a Monte-Carlo campaign axis.
///
/// Each field is the half-width of a uniform spread applied to one
/// process-sensitive platform parameter; a lane's actual draw comes from
/// its position-derived seed (see [`ScenarioSpec::monte_carlo`]), so the
/// dispersed population is deterministic for any worker-thread count.
/// The default is zero spread on every axis (lanes differ only in their
/// noise seeds).
///
/// | Field | Dispersed parameter |
/// |-------|---------------------|
/// | `omega_frac` | resonance `gyro.f0`, ±fraction |
/// | `q_frac` | `gyro.q_drive` and `gyro.q_sense`, ±fraction (independent draws) |
/// | `offset_dps` | quadrature leakage `gyro.quadrature_rate`, ±°/s |
/// | `gain_frac` | `charge_gain`, ±fraction |
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Dispersion {
    /// Resonance-frequency spread, ± fraction of nominal `f0`.
    pub omega_frac: f64,
    /// Quality-factor spread, ± fraction of nominal (drive and sense
    /// draw independently).
    pub q_frac: f64,
    /// Quadrature-offset spread, ± °/s added to the nominal leakage.
    pub offset_dps: f64,
    /// Charge-amplifier gain spread, ± fraction of nominal.
    pub gain_frac: f64,
}

impl Dispersion {
    /// No spread on any axis (lanes differ only by noise seed).
    #[must_use]
    pub fn none() -> Self {
        Self::default()
    }

    /// Sets the resonance-frequency spread (± fraction).
    #[must_use]
    pub fn with_omega_frac(mut self, frac: f64) -> Self {
        self.omega_frac = frac;
        self
    }

    /// Sets the quality-factor spread (± fraction).
    #[must_use]
    pub fn with_q_frac(mut self, frac: f64) -> Self {
        self.q_frac = frac;
        self
    }

    /// Sets the quadrature-offset spread (± °/s).
    #[must_use]
    pub fn with_offset_dps(mut self, dps: f64) -> Self {
        self.offset_dps = dps;
        self
    }

    /// Sets the charge-gain spread (± fraction).
    #[must_use]
    pub fn with_gain_frac(mut self, frac: f64) -> Self {
        self.gain_frac = frac;
        self
    }
}

/// The device under test of a [`ScenarioSpec`].
#[allow(clippy::large_enum_variant)] // built once per scenario: a box saves nothing
#[derive(Debug, Clone)]
pub enum Device {
    /// The gyro platform, built from this configuration.
    Platform(PlatformConfig),
    /// A generic sensor channel. Channel lanes bypass the warm-start cache
    /// and fleet batching.
    Channel {
        /// Base noise seed (the analogue of [`PlatformConfig::seed`]).
        seed: u64,
        /// Builds the channel for a lane's effective noise seed.
        build: fn(u64) -> SensorChannel,
    },
}

impl Device {
    /// The base seed a lane's noise seed derives from.
    fn seed(&self) -> u64 {
        match self {
            Self::Platform(config) => config.seed,
            Self::Channel { seed, .. } => *seed,
        }
    }
}

/// One scenario: a device under test plus the protocol to run on it.
///
/// Build a platform config with [`PlatformConfig::builder`] (or use
/// [`ScenarioSpec::channel`] for a sensor channel); schedule faults either
/// in the config or through [`ScenarioSpec::with_faults`] (the two plans
/// are merged; a channel gets the spec's plan). `duration_s` is a floor on
/// simulated time: after the steps finish, the device runs on until at
/// least that much simulated time has elapsed.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (CSV rows, metric prefixes).
    pub name: String,
    /// The device under test.
    pub device: Device,
    /// Extra fault plan merged into the config's plan.
    pub faults: FaultPlan,
    /// Minimum simulated duration, seconds.
    pub duration_s: f64,
    /// Noise-seed override; default derives from the device's base seed
    /// and the scenario's input index (deterministic for any thread count).
    pub seed: Option<u64>,
    /// Measurement protocol, run in order.
    pub steps: Vec<Step>,
    /// Monte-Carlo axis: `Some((lanes, dispersion))` expands this spec
    /// into `lanes` dispersed scenarios before execution (see
    /// [`ScenarioSpec::monte_carlo`]); `None` runs it as-is.
    pub monte_carlo: Option<(usize, Dispersion)>,
}

impl ScenarioSpec {
    /// Creates a gyro-platform scenario with no steps, no extra faults and
    /// no duration floor.
    #[must_use]
    pub fn new(name: impl Into<String>, config: PlatformConfig) -> Self {
        Self::for_device(name.into(), Device::Platform(config))
    }

    /// Creates a sensor-channel scenario: `build` makes the channel from
    /// the lane's noise seed, which derives from `seed` like a platform's.
    #[must_use]
    pub fn channel(name: impl Into<String>, seed: u64, build: fn(u64) -> SensorChannel) -> Self {
        Self::for_device(name.into(), Device::Channel { seed, build })
    }

    fn for_device(name: String, device: Device) -> Self {
        Self {
            name,
            device,
            faults: FaultPlan::new(),
            duration_s: 0.0,
            seed: None,
            steps: Vec::new(),
            monte_carlo: None,
        }
    }

    /// Merges `faults` into the scenario's fault plan.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        for spec in faults.specs() {
            self.faults.push(*spec);
        }
        self
    }

    /// Sets the minimum simulated duration.
    #[must_use]
    pub fn with_duration(mut self, seconds: f64) -> Self {
        self.duration_s = seconds;
        self
    }

    /// Overrides the derived noise seed.
    ///
    /// # Interaction with [`ScenarioSpec::monte_carlo`]
    ///
    /// On a plain scenario the override is used verbatim. On a
    /// Monte-Carlo spec it replaces the **base** of the per-lane seed
    /// stream, not the lanes' seeds themselves: lane `i` (at expanded
    /// campaign index `e`) runs with `derive_seed(seed, e)`, so sibling
    /// lanes still draw distinct noise and dispersion — an explicit seed
    /// pins the whole dispersed population reproducibly without
    /// collapsing it onto one sample. (A population of identical lanes
    /// would be a pointless Monte-Carlo; if one exact seed per lane is
    /// really wanted, expand manually into plain specs.)
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Adds a Monte-Carlo axis: before execution the spec expands into
    /// `lanes` scenarios named `{name}/mc0 … {name}/mc{lanes-1}`, each
    /// with an independent position-derived noise seed and a
    /// configuration perturbed by `dispersion` (drawn from that same
    /// seed; channel lanes get no dispersion, whose fields are gyro
    /// parameters). Lane outcomes are ordinary [`ScenarioOutcome`]s — the CSV
    /// carries one row set per lane, byte-identical whether the lanes ran
    /// batched on a [`PlatformFleet`] or as independent scalar scenarios,
    /// at any worker-thread count.
    ///
    /// `lanes` is clamped to at least 1.
    #[must_use]
    pub fn monte_carlo(mut self, lanes: usize, dispersion: Dispersion) -> Self {
        self.monte_carlo = Some((lanes.max(1), dispersion));
        self
    }

    /// Appends one protocol step.
    #[must_use]
    pub fn with_step(mut self, step: Step) -> Self {
        self.steps.push(step);
        self
    }

    /// Appends several protocol steps.
    #[must_use]
    pub fn with_steps(mut self, steps: impl IntoIterator<Item = Step>) -> Self {
        self.steps.extend(steps);
        self
    }
}

/// Why one attempt of a scenario failed (the supervision taxonomy).
///
/// Failed attempts are retried with the scenario's seed unchanged (see
/// [`derive_seed`]), so a retry that succeeds is byte-identical to a
/// first-try success; a scenario that exhausts its retries is quarantined
/// as [`ScenarioStatus::Poisoned`] with its attempt errors preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The scenario's worker panicked; the payload is captured as text.
    Panicked {
        /// Panic payload rendered as text.
        message: String,
    },
    /// The scenario overran the campaign's per-attempt wall-clock
    /// deadline and its worker cancelled it at the next check point (or a
    /// chaos stall ran out). Carries the *configured* limit, not the
    /// measured wall time, so reports stay deterministic.
    TimedOut {
        /// The deadline that was enforced, seconds.
        deadline_s: f64,
    },
    /// The worker pool returned no result for this scenario (a worker
    /// died without reporting; should be unreachable).
    Missing,
}

impl ScenarioError {
    /// Stable taxonomy label (CSV, telemetry, trace annotations).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Panicked { .. } => "panicked",
            Self::TimedOut { .. } => "timed_out",
            Self::Missing => "missing",
        }
    }

    /// Numeric code for the `scenario_error` CSV row (1/2/3).
    #[must_use]
    pub fn code(&self) -> f64 {
        match self {
            Self::Panicked { .. } => 1.0,
            Self::TimedOut { .. } => 2.0,
            Self::Missing => 3.0,
        }
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Panicked { message } => write!(f, "scenario panicked: {message}"),
            Self::TimedOut { deadline_s } => {
                write!(f, "scenario overran its {deadline_s} s deadline")
            }
            Self::Missing => write!(f, "scenario produced no result"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Terminal supervision state of a scenario.
///
/// The per-scenario FSM is `Queued → Running → {Done, Retrying(n) →
/// Running, TimedOut → Retrying, Poisoned}`; only the two terminal states
/// appear in outcomes — everything in between is visible through
/// [`ScenarioOutcome::attempt_errors`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScenarioStatus {
    /// The scenario completed (possibly after retries) and its metrics
    /// are trustworthy.
    #[default]
    Done,
    /// The scenario failed every attempt and was quarantined; it carries
    /// no metrics, only its error history.
    Poisoned,
}

impl ScenarioStatus {
    /// Stable label for the CSV `status` column (`ok` / `poisoned`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Done => "ok",
            Self::Poisoned => "poisoned",
        }
    }
}

/// What the chaos plan injects into one scenario attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosInjection {
    /// No injection: the attempt runs normally.
    None,
    /// The worker panics before building the platform.
    Panic,
    /// The worker stalls: one sleep for the attempt deadline or the stall
    /// cap, whichever is shorter, then the attempt times out.
    Stall,
}

/// Deterministic worker-fault injection: the supervision layer's analogue
/// of [`FaultPlan`].
///
/// Each scenario's injection is derived from the chaos seed and the
/// scenario's input index ([`derive_seed`]`(seed, index) % 4`: 0 panic,
/// 1 stall, else none), so a chaos campaign is reproducible at any thread
/// count. Injections apply to attempt 0 only: the retry that follows runs
/// clean with the scenario seed unchanged, so the default retry budget
/// recovers every scenario and every healthy metric is byte-identical to
/// an undisturbed run.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed the per-scenario injections derive from.
    pub seed: u64,
    /// Upper bound on a stall, seconds; a shorter attempt deadline ends
    /// the stall first.
    pub stall_cap_s: f64,
}

impl ChaosPlan {
    /// Plan with a 30 s stall cap.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            stall_cap_s: 30.0,
        }
    }

    /// Sets the stall cap (seconds).
    #[must_use]
    pub fn with_stall_cap_s(mut self, seconds: f64) -> Self {
        self.stall_cap_s = seconds;
        self
    }

    /// The injection for one `(scenario index, attempt)` pair.
    #[must_use]
    pub fn decide(&self, index: usize, attempt: u32) -> ChaosInjection {
        if attempt > 0 {
            return ChaosInjection::None;
        }
        match derive_seed(self.seed, index as u64) % 4 {
            0 => ChaosInjection::Panic,
            1 => ChaosInjection::Stall,
            _ => ChaosInjection::None,
        }
    }
}

/// Measured result of one scenario. The default is an unnamed,
/// measurement-free `Done` outcome.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioOutcome {
    /// Scenario name (copied from the spec).
    pub name: String,
    /// Input index in the campaign's scenario list.
    pub index: usize,
    /// Effective noise seed the platform ran with.
    pub seed: u64,
    /// Named metrics in measurement order.
    pub metrics: Vec<(String, f64)>,
    /// Named sample series (e.g. zero-rate captures).
    pub series: Vec<(String, Vec<f64>)>,
    /// Fault-class labels injected in this scenario, deduplicated in
    /// catalog order (coverage-matrix rows).
    pub fault_classes: Vec<&'static str>,
    /// Supervisor `(from, to)` transitions observed, in order
    /// (coverage-matrix columns; see [`Platform::transitions`]).
    pub transitions: Vec<(&'static str, &'static str)>,
    /// Flight-recorder capture, when the scenario armed a recorder and a
    /// trigger fired. Captures are **not** journaled: a resumed campaign
    /// reloads every other field of a completed scenario, but not this
    /// one (the `recorder_triggered` metric survives, so the CSV and
    /// telemetry artifacts are unaffected).
    pub capture: Option<CaptureBundle>,
    /// Errors of the failed attempts that preceded this outcome, in
    /// attempt order. Empty for a first-try success; for a
    /// [`ScenarioStatus::Poisoned`] scenario it holds every attempt.
    pub attempt_errors: Vec<ScenarioError>,
    /// Terminal supervision status.
    pub status: ScenarioStatus,
}

impl ScenarioOutcome {
    /// Retries performed (attempts beyond the first).
    #[must_use]
    pub fn retries(&self) -> usize {
        match self.status {
            ScenarioStatus::Done => self.attempt_errors.len(),
            ScenarioStatus::Poisoned => self.attempt_errors.len().saturating_sub(1),
        }
    }

    /// `true` when the scenario exhausted its retries.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.status == ScenarioStatus::Poisoned
    }

    /// Looks up a metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a sample series by name.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }
}

/// Merged result of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-scenario outcomes, in input order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Worker threads the campaign ran on (not part of the deterministic
    /// artifacts).
    pub threads: usize,
    /// Wall-clock duration, seconds (not part of the deterministic
    /// artifacts).
    pub wall_s: f64,
    /// Scenarios that restored a cached settle checkpoint instead of
    /// re-running their settle prefix (0 when warm-start is off). Counted
    /// once per completed scenario, from its final attempt; a poisoned
    /// scenario never counts.
    pub warm_hits: usize,
    /// Scenarios loaded from a journal instead of executed (0 unless the
    /// report came from [`CampaignRunner::resume`]; not part of the
    /// deterministic artifacts).
    pub resumed: usize,
    /// Merged span trace (present when the runner had tracing enabled).
    /// Wall-clock bounds inside are not part of the deterministic
    /// artifacts; the span structure and sim-time bounds are.
    pub trace: Option<TraceLog>,
}

impl CampaignReport {
    /// Looks up one metric of one scenario.
    #[must_use]
    pub fn metric(&self, scenario: &str, metric: &str) -> Option<f64> {
        self.outcomes
            .iter()
            .find(|o| o.name == scenario)
            .and_then(|o| o.metric(metric))
    }

    /// Looks up one sample series of one scenario.
    #[must_use]
    pub fn series(&self, scenario: &str, series: &str) -> Option<&[f64]> {
        self.outcomes
            .iter()
            .find(|o| o.name == scenario)
            .and_then(|o| o.series(series))
    }

    /// Total retry attempts across the campaign (the
    /// `campaign.retries_total` counter of [`CampaignReport::to_telemetry`]).
    #[must_use]
    pub fn retries_total(&self) -> u64 {
        self.outcomes.iter().map(|o| o.retries() as u64).sum()
    }

    /// Total timed-out attempts (the `campaign.timeouts_total` counter).
    #[must_use]
    pub fn timeouts_total(&self) -> u64 {
        self.attempt_error_count(|e| matches!(e, ScenarioError::TimedOut { .. }))
    }

    /// Total panicked attempts (the `campaign.panics_total` counter).
    #[must_use]
    pub fn panics_total(&self) -> u64 {
        self.attempt_error_count(|e| matches!(e, ScenarioError::Panicked { .. }))
    }

    fn attempt_error_count(&self, pred: impl Fn(&ScenarioError) -> bool) -> u64 {
        self.outcomes
            .iter()
            .flat_map(|o| &o.attempt_errors)
            .filter(|e| pred(e))
            .count() as u64
    }

    /// Scenarios quarantined after exhausting their retries.
    #[must_use]
    pub fn poisoned(&self) -> usize {
        self.outcomes.iter().filter(|o| o.failed()).count()
    }

    /// Names of the quarantined scenarios, in input order.
    #[must_use]
    pub fn failed_scenarios(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| o.failed())
            .map(|o| o.name.as_str())
            .collect()
    }

    /// Long-format CSV (`scenario,metric,value,status`), bit-identical
    /// for any worker-thread count.
    ///
    /// Metric rows of a completed scenario carry status `ok` — including
    /// scenarios that succeeded on a retry, whose rows are byte-identical
    /// to a first-try run. A poisoned scenario has no metric rows; it
    /// contributes `scenario_error` (the last error's
    /// [`ScenarioError::code`]) and `scenario_attempts` rows with status
    /// `poisoned`, so partial results ship instead of aborting the
    /// artifact.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut csv = String::from("scenario,metric,value,status\n");
        for o in &self.outcomes {
            let status = o.status.label();
            for (name, value) in &o.metrics {
                csv.push_str(&format!("{},{name},{value},{status}\n", o.name));
            }
            if o.failed() {
                let code = o.attempt_errors.last().map_or(0.0, ScenarioError::code);
                csv.push_str(&format!("{},scenario_error,{code},{status}\n", o.name));
                csv.push_str(&format!(
                    "{},scenario_attempts,{},{status}\n",
                    o.name,
                    o.attempt_errors.len()
                ));
            }
        }
        csv
    }

    /// Merges every scenario's metrics into one telemetry snapshot
    /// (gauge `"<scenario>.<metric>"`), with the wall clock zeroed so the
    /// JSON export is bit-identical for any worker-thread count.
    #[must_use]
    pub fn to_telemetry(&self) -> TelemetrySnapshot {
        let mut tel = Telemetry::new(TelemetryConfig::default());
        tel.counter_set("campaign.scenarios", self.outcomes.len() as u64);
        tel.counter_set("campaign.retries_total", self.retries_total());
        tel.counter_set("campaign.timeouts_total", self.timeouts_total());
        tel.counter_set("campaign.panics_total", self.panics_total());
        tel.counter_set("campaign.poisoned_scenarios", self.poisoned() as u64);
        for o in &self.outcomes {
            for (name, value) in &o.metrics {
                let key: &'static str = Box::leak(format!("{}.{name}", o.name).into_boxed_str());
                tel.gauge_set(key, *value);
            }
        }
        let mut snap = tel.snapshot(0.0);
        // The collector stamps real wall time; zero it so the JSON export
        // is byte-stable across runs and thread counts.
        snap.wall_time_s = 0.0;
        snap
    }

    /// Builds the fault-class × transition coverage matrix over this
    /// report's outcomes (see [`crate::coverage`]).
    #[must_use]
    pub fn coverage(&self) -> crate::coverage::CoverageMatrix {
        crate::coverage::CoverageMatrix::from_outcomes(&self.outcomes)
    }
}

/// One scenario's progress record, handed to the [`CampaignObserver`] as
/// the scenario finishes. `Display` renders it as one progress line; its
/// name column fits the longest name the repo's campaigns emit (33 chars).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioProgress {
    /// Input index of the finished scenario.
    pub index: usize,
    /// Total scenarios in the campaign.
    pub total: usize,
    /// Scenario name.
    pub name: String,
    /// Wall-clock time this scenario took, milliseconds.
    pub wall_ms: f64,
    /// Warm-start result: `Some(true)` hit, `Some(false)` miss, `None`
    /// when the cache is off.
    pub warm: Option<bool>,
    /// Whether the scenario's flight recorder froze a capture.
    pub triggered: bool,
    /// Scenarios finished so far (completion order, not input order).
    pub completed: usize,
    /// Retry attempts this scenario needed (0 on a first-try success).
    pub retries: usize,
    /// Terminal supervision status.
    pub status: ScenarioStatus,
}

impl std::fmt::Display for ScenarioProgress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>2}/{}] {:<33} {:>8.1} ms",
            self.completed, self.total, self.name, self.wall_ms
        )?;
        match self.warm {
            Some(true) => write!(f, "  warm=hit ")?,
            Some(false) => write!(f, "  warm=miss")?,
            None => {}
        }
        write!(f, "  trigger={}", if self.triggered { "y" } else { "n" })?;
        if self.retries > 0 {
            write!(f, "  retries={}", self.retries)?;
        }
        if self.status == ScenarioStatus::Poisoned {
            write!(f, "  POISONED")?;
        }
        Ok(())
    }
}

/// Receives per-scenario progress callbacks from a running campaign (e.g.
/// `ascp_bench::harness::ProgressLines`, which prints one line per
/// scenario). Callbacks arrive from worker threads in completion order.
pub trait CampaignObserver: Send + Sync {
    /// Called once per scenario, as it finishes.
    fn scenario_finished(&self, progress: &ScenarioProgress);
}

/// Validated execution settings for a [`CampaignRunner`].
///
/// Replaces the runner's historical pile of `with_*` setters with one
/// typed, validated options object: build it with
/// [`CampaignOptions::builder`], hand it to
/// [`CampaignRunner::with_options`]. The old setters went through a
/// deprecation cycle and are gone; see DESIGN.md §14 for the old → new
/// mapping table.
#[derive(Clone)]
pub struct CampaignOptions {
    threads: usize,
    warm_start: bool,
    tracing: bool,
    observer: Option<Arc<dyn CampaignObserver>>,
    max_retries: u32,
    deadline_s: Option<f64>,
    chaos: Option<ChaosPlan>,
}

impl std::fmt::Debug for CampaignOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignOptions")
            .field("threads", &self.threads)
            .field("warm_start", &self.warm_start)
            .field("tracing", &self.tracing)
            .field("observer", &self.observer.is_some())
            .field("max_retries", &self.max_retries)
            .field("deadline_s", &self.deadline_s)
            .field("chaos", &self.chaos.is_some())
            .finish()
    }
}

impl Default for CampaignOptions {
    /// One worker per available hardware thread; warm-start and tracing
    /// off; no observer; one immediate retry; no deadline, no chaos.
    fn default() -> Self {
        Self {
            threads: available_parallelism(),
            warm_start: false,
            tracing: false,
            observer: None,
            max_retries: 1,
            deadline_s: None,
            chaos: None,
        }
    }
}

impl CampaignOptions {
    /// Starts a validating builder from the defaults.
    #[must_use]
    pub fn builder() -> CampaignOptionsBuilder {
        CampaignOptionsBuilder {
            options: Self::default(),
        }
    }

    /// Configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether the warm-start cache is enabled.
    #[must_use]
    pub fn warm_start(&self) -> bool {
        self.warm_start
    }

    /// Whether span tracing is enabled.
    #[must_use]
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Configured retry budget (attempts beyond the first).
    #[must_use]
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Configured per-attempt deadline, seconds, if one is set.
    #[must_use]
    pub fn deadline_s(&self) -> Option<f64> {
        self.deadline_s
    }

    /// The chaos plan, if one is installed.
    #[must_use]
    pub fn chaos(&self) -> Option<&ChaosPlan> {
        self.chaos.as_ref()
    }
}

/// Validating builder for [`CampaignOptions`].
///
/// Every setter stores its raw value; [`CampaignOptionsBuilder::build`]
/// validates the whole set at once and names the offending field — the
/// same [`ConfigError`] contract as [`PlatformConfig::builder`]. Unlike
/// the removed legacy `CampaignRunner::with_*` setters, nothing is
/// silently clamped: `threads(0)` is an error here, not a 1.
#[derive(Clone, Debug)]
pub struct CampaignOptionsBuilder {
    options: CampaignOptions,
}

impl CampaignOptionsBuilder {
    /// Worker-thread count (must be ≥ 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Enables (or disables) the settle-checkpoint warm-start cache.
    #[must_use]
    pub fn warm_start(mut self, enabled: bool) -> Self {
        self.options.warm_start = enabled;
        self
    }

    /// Enables (or disables) span tracing (campaign → scenario → step
    /// spans in the report's [`TraceLog`]). Never changes simulation
    /// arithmetic.
    #[must_use]
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.options.tracing = enabled;
        self
    }

    /// Installs a progress observer, called once per finished scenario
    /// (e.g. `ascp_bench::harness::ProgressLines` for one line per
    /// scenario on stdout).
    #[must_use]
    pub fn observer(mut self, observer: Arc<dyn CampaignObserver>) -> Self {
        self.options.observer = Some(observer);
        self
    }

    /// Retry budget for failed scenarios (attempts beyond the first;
    /// default 1). Retries run immediately and keep the derived seed
    /// unchanged, so a retried success is byte-identical to a first-try
    /// one.
    #[must_use]
    pub fn retries(mut self, max_retries: u32) -> Self {
        self.options.max_retries = max_retries;
        self
    }

    /// Per-attempt wall-clock deadline in seconds, finite and positive.
    /// Each worker times its own attempt and cancels it at the next check
    /// point past the limit: step boundaries, tick loops every 1024
    /// ticks, run chunks every 4096. The attempt is recorded as
    /// [`ScenarioError::TimedOut`]. Time spent on the warm-start cache
    /// (running or waiting for a shared settle prefix) is off the clock.
    #[must_use]
    pub fn deadline_s(mut self, seconds: f64) -> Self {
        self.options.deadline_s = Some(seconds);
        self
    }

    /// Installs a deterministic chaos plan (seeded worker panics and
    /// stalls); see [`ChaosPlan`].
    #[must_use]
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.options.chaos = Some(plan);
        self
    }

    /// Validates and returns the options.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending field: zero threads, a
    /// non-finite or non-positive deadline, or a chaos plan with a
    /// negative / non-finite stall cap.
    pub fn build(self) -> Result<CampaignOptions, ConfigError> {
        let o = &self.options;
        if o.threads == 0 {
            return Err(ConfigError::new("threads: must be at least 1"));
        }
        if let Some(d) = o.deadline_s {
            if !d.is_finite() || d <= 0.0 {
                return Err(ConfigError::new(format!(
                    "deadline_s: must be finite and > 0 (got {d})"
                )));
            }
        }
        if let Some(plan) = &o.chaos {
            if !plan.stall_cap_s.is_finite() || plan.stall_cap_s < 0.0 {
                return Err(ConfigError::new(format!(
                    "chaos.stall_cap_s: must be finite and ≥ 0 (got {})",
                    plan.stall_cap_s
                )));
            }
        }
        Ok(self.options)
    }
}

/// Executes scenario lists on a fixed worker-thread pool.
///
/// Each scenario gets its own independent [`Platform`]; results come back
/// in input order and are numerically identical for any thread count (see
/// the module docs). Configure it with [`CampaignOptions`]:
///
/// ```
/// use ascp_core::campaign::{CampaignOptions, CampaignRunner};
/// let runner = CampaignRunner::with_options(
///     CampaignOptions::builder().threads(2).build().expect("valid"),
/// );
/// assert_eq!(runner.options().threads(), 2);
/// ```
///
/// # Warm-start cache
///
/// With `CampaignOptions::builder().warm_start(true)`, scenarios that
/// share a settle recipe — the same effective configuration (including
/// the effective noise seed) and the same leading run-in steps — share
/// the cost of the lock transient. The first scenario per key runs its
/// settle prefix and takes a [`crate::checkpoint`]; the rest restore
/// that checkpoint and run only their measurement steps. Because the
/// cache key covers the effective seed, a restored platform is **bit-
/// exactly** the platform a cold run would have produced, so warm-start
/// changes wall-clock time and nothing else: reports stay byte-identical
/// to cold runs and across worker-thread counts. A scenario with an armed
/// flight recorder runs its settle prefix cold, since checkpoints skip
/// the recorder's ring.
#[derive(Clone, Debug)]
pub struct CampaignRunner {
    options: CampaignOptions,
}

impl Default for CampaignRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl CampaignRunner {
    /// Runner with the default options (see [`CampaignOptions::default`]).
    #[must_use]
    pub fn new() -> Self {
        Self {
            options: CampaignOptions::default(),
        }
    }

    /// Runner with validated options (the only configuration
    /// path).
    #[must_use]
    pub fn with_options(options: CampaignOptions) -> Self {
        Self { options }
    }

    /// The runner's options.
    #[must_use]
    pub fn options(&self) -> &CampaignOptions {
        &self.options
    }

    /// Runs every scenario (Monte-Carlo specs expanded into their lanes
    /// first) and merges the outcomes.
    ///
    /// Infallible: supervision turns worker failures into per-scenario
    /// outcomes, never a campaign abort. Check
    /// [`CampaignReport::poisoned`] for quarantined scenarios.
    ///
    /// # Panics
    ///
    /// Never in practice — only if the (journal-less) execution core
    /// reports a journal error, which it cannot.
    #[must_use]
    pub fn run(&self, scenarios: Vec<ScenarioSpec>) -> CampaignReport {
        let (scenarios, parents) = expand_with_parents(scenarios);
        self.run_campaign(scenarios, &parents, Vec::new(), None)
            .expect("campaign without a journal cannot fail")
    }

    /// Runs the campaign while journaling each completed scenario to
    /// `path` (created fresh), so a crashed or killed campaign can be
    /// [`CampaignRunner::resume`]d. Journal records (and the campaign
    /// digest) are keyed by the **expanded** scenario list: Monte-Carlo
    /// lanes journal individually, so a crash mid-population loses only
    /// unfinished lanes.
    ///
    /// # Errors
    ///
    /// [`JournalError`] when the journal file cannot be created or
    /// written.
    pub fn run_with_journal(
        &self,
        scenarios: Vec<ScenarioSpec>,
        path: impl AsRef<Path>,
    ) -> Result<CampaignReport, JournalError> {
        let (scenarios, parents) = expand_with_parents(scenarios);
        let digest = journal::campaign_digest(&scenarios);
        let writer = JournalWriter::create(path, digest)?;
        self.run_campaign(scenarios, &parents, Vec::new(), Some(&writer))
    }

    /// Resumes a journaled campaign: scenarios recorded in `path` are
    /// loaded instead of re-executed (a torn final record is discarded;
    /// duplicate records last-wins), the rest run normally, and the
    /// merged report is byte-identical to an uninterrupted
    /// [`CampaignRunner::run_with_journal`] at any thread count. A
    /// missing journal file starts a fresh journaled run.
    ///
    /// # Errors
    ///
    /// [`JournalError`] when the journal exists but was written by a
    /// different campaign (config-digest mismatch), is not a journal
    /// file, or cannot be read/appended.
    pub fn resume(
        &self,
        scenarios: Vec<ScenarioSpec>,
        path: impl AsRef<Path>,
    ) -> Result<CampaignReport, JournalError> {
        let path = path.as_ref();
        let (scenarios, parents) = expand_with_parents(scenarios);
        let digest = journal::campaign_digest(&scenarios);
        if !path.exists() {
            let writer = JournalWriter::create(path, digest)?;
            return self.run_campaign(scenarios, &parents, Vec::new(), Some(&writer));
        }
        let recorded = journal::read(path, digest)?;
        let total = scenarios.len();
        let preloaded: Vec<ScenarioOutcome> =
            recorded.into_iter().filter(|o| o.index < total).collect();
        let writer = JournalWriter::append_to(path, digest)?;
        self.run_campaign(scenarios, &parents, preloaded, Some(&writer))
    }

    /// Partitions the remaining work into pool units, each a list of
    /// lanes in input order: runs of consecutive fleet-eligible
    /// Monte-Carlo sibling lanes group into units of at most
    /// [`FLEET_GROUP_MAX`] lanes; every other scenario is a one-lane
    /// unit. Grouping is disabled wholesale when a runner feature the
    /// fleet cannot express is on (warm-start cache, span tracing, chaos
    /// injection) — those campaigns run every lane alone, with
    /// byte-identical results.
    fn plan_units(
        &self,
        work: Vec<(usize, ScenarioSpec)>,
        parents: &[Option<usize>],
    ) -> Vec<Vec<(usize, ScenarioSpec)>> {
        let grouping =
            !self.options.warm_start && !self.options.tracing && self.options.chaos.is_none();
        let mut units: Vec<Vec<(usize, ScenarioSpec)>> = Vec::new();
        // Parent of the group the last unit still accepts lanes for.
        let mut open: Option<usize> = None;
        for (index, spec) in work {
            let parent = parents[index];
            let groupable = grouping && parent.is_some() && fleet_eligible(&spec);
            match units.last_mut() {
                Some(unit) if groupable && open == parent && unit.len() < FLEET_GROUP_MAX => {
                    unit.push((index, spec));
                }
                _ => units.push(vec![(index, spec)]),
            }
            open = if groupable { parent } else { None };
        }
        units
    }

    /// The execution core: runs every scenario not already `preloaded`
    /// under supervision (panic isolation, deadline, retry, chaos),
    /// journals completions, and merges everything in input order.
    /// `parents` maps each expanded index to its Monte-Carlo parent
    /// (`None` for plain scenarios) and keys fleet grouping.
    #[allow(clippy::too_many_lines)]
    fn run_campaign(
        &self,
        scenarios: Vec<ScenarioSpec>,
        parents: &[Option<usize>],
        preloaded: Vec<ScenarioOutcome>,
        writer: Option<&JournalWriter>,
    ) -> Result<CampaignReport, JournalError> {
        let start = Instant::now();
        let total = scenarios.len();
        let resumed = preloaded.len();
        let done_indices: HashSet<usize> = preloaded.iter().map(|o| o.index).collect();
        let work: Vec<(usize, ScenarioSpec)> = scenarios
            .into_iter()
            .enumerate()
            .filter(|(index, _)| !done_indices.contains(index))
            .collect();
        let units = self.plan_units(work, parents);
        // Identity of each unit's lanes, kept outside the pool so even a
        // scenario whose slot comes back empty gets a typed placeholder.
        let meta: Vec<Vec<(usize, String, u64)>> = units
            .iter()
            .map(|lanes| {
                lanes
                    .iter()
                    .map(|(index, spec)| (*index, spec.name.clone(), lane_seed(*index, spec)))
                    .collect()
            })
            .collect();
        let cache = self.options.warm_start.then(WarmCache::default);
        let done = AtomicUsize::new(resumed);
        let collector = self.options.tracing.then(TraceCollector::new);
        // The campaign root span lives on track 0; scenario tracks are
        // `index + 1`.
        let mut root = collector.as_ref().map(|c| {
            let mut rec = c.recorder(0);
            let id = rec.begin("campaign", 0.0);
            (rec, id)
        });
        let journal_failure: Mutex<Option<JournalError>> = Mutex::new(None);

        // Journals one finished outcome and reports it to the observer.
        let finish = |out: &ScenarioOutcome, wall_ms: f64, warm: Option<bool>| {
            if let Some(writer) = writer {
                if let Err(e) = writer.append(out) {
                    let mut parked = journal_failure
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    parked.get_or_insert(e);
                }
            }
            let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
            if let Some(obs) = self.options.observer.as_deref() {
                obs.scenario_finished(&ScenarioProgress {
                    index: out.index,
                    total,
                    name: out.name.clone(),
                    wall_ms,
                    warm,
                    triggered: out.capture.is_some(),
                    completed,
                    retries: out.retries(),
                    status: out.status,
                });
            }
        };

        let slots = try_parallel_map(units, self.options.threads, |_, lanes| {
            let t0 = Instant::now();
            let mut errors: Vec<ScenarioError> = Vec::new();
            let outs: Vec<(ScenarioOutcome, bool)> = loop {
                let attempt = errors.len() as u32;
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    run_attempt(
                        &lanes,
                        attempt,
                        cache.as_ref(),
                        collector.as_ref(),
                        self.options.chaos.as_ref(),
                        AttemptCtx::start(self.options.deadline_s),
                    )
                }));
                let attempt_result = caught.unwrap_or_else(|payload| {
                    Err(ScenarioError::Panicked {
                        message: panic_message(payload.as_ref()),
                    })
                });
                match attempt_result {
                    Ok(mut outs) => {
                        for (out, _) in &mut outs {
                            out.attempt_errors.clone_from(&errors);
                        }
                        break outs;
                    }
                    Err(err) => {
                        errors.push(err);
                        if errors.len() > self.options.max_retries as usize {
                            // A unit fails whole: every lane is
                            // quarantined with the shared history.
                            break lanes
                                .iter()
                                .map(|(index, spec)| {
                                    let seed = lane_seed(*index, spec);
                                    let out =
                                        poisoned_outcome(*index, &spec.name, seed, errors.clone());
                                    (out, false)
                                })
                                .collect();
                        }
                    }
                }
            };
            // Wall time amortized over the unit: a group's lanes ran as one
            // lockstep batch.
            let lane_ms = t0.elapsed().as_secs_f64() * 1.0e3 / outs.len() as f64;
            for (out, warm_hit) in &outs {
                finish(out, lane_ms, cache.as_ref().map(|_| *warm_hit));
            }
            outs
        });

        let mut outcomes = preloaded;
        outcomes.reserve(slots.len());
        // Counted per scenario from the final outcomes, so retried and
        // poisoned scenarios count at most once (poisoned ones never).
        let mut warm_hits = 0;
        for (slot, result) in slots.into_iter().enumerate() {
            match result {
                Ok(outs) => {
                    for (out, warm_hit) in outs {
                        warm_hits += usize::from(warm_hit);
                        outcomes.push(out);
                    }
                }
                // The supervised closure itself failed — convert the pool
                // error into quarantined placeholders so the report still
                // covers every scenario of the unit.
                Err(e) => {
                    for (index, name, seed) in &meta[slot] {
                        let err = match &e {
                            MapError::Panicked { message } => ScenarioError::Panicked {
                                message: message.clone(),
                            },
                            MapError::Missing => ScenarioError::Missing,
                        };
                        outcomes.push(poisoned_outcome(*index, name, *seed, vec![err]));
                    }
                }
            }
        }
        outcomes.sort_by_key(|o| o.index);

        if let Some(e) = journal_failure
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
        {
            return Err(e);
        }

        let poisoned = outcomes.iter().filter(|o| o.failed()).count();
        let retries: usize = outcomes.iter().map(ScenarioOutcome::retries).sum();
        let trace = collector.map(|c| {
            if let Some((mut rec, id)) = root.take() {
                rec.annotate(id, "scenarios", total.to_string());
                rec.annotate(id, "resumed", resumed.to_string());
                rec.annotate(id, "retries", retries.to_string());
                rec.annotate(id, "poisoned", poisoned.to_string());
                rec.end(id, 0.0);
                c.merge(rec);
            }
            c.into_log()
        });
        Ok(CampaignReport {
            outcomes,
            threads: self.options.threads,
            wall_s: start.elapsed().as_secs_f64(),
            warm_hits,
            resumed,
            trace,
        })
    }
}

/// Maximum Monte-Carlo lanes batched onto one [`PlatformFleet`] work
/// unit. Sixteen AVX2 f64 lanes keep the SoA buffers inside L1/L2 while
/// leaving enough units for the worker pool to balance.
const FLEET_GROUP_MAX: usize = 16;

/// Whether a lane spec can run on the batched fleet path: a platform
/// lane with only the lockstep-safe steps, no monitor CPU, no fault plans,
/// and a configuration that validates. Anything subtler — armed recorders,
/// gated paths, non-uniform lane state — is caught by
/// [`PlatformFleet::new`] at attempt time; refused lanes then step one by
/// one in the same attempt, with identical results.
fn fleet_eligible(spec: &ScenarioSpec) -> bool {
    let Device::Platform(config) = &spec.device else {
        return false;
    };
    config.validate().is_ok()
        && !config.cpu_enabled
        && config.faults.is_empty()
        && spec.faults.is_empty()
        && spec.steps.iter().all(|s| {
            matches!(
                s,
                Step::Run { .. }
                    | Step::SetRate { .. }
                    | Step::SetTemperature { .. }
                    | Step::MeasureMeanRate { .. }
            )
        })
}

/// Uniform draw in [-1, 1) for one dispersion channel of one lane,
/// derived from the lane seed with the same splitmix mixing as
/// [`derive_seed`] (channel ↦ independent stream).
fn dispersion_draw(lane_seed: u64, channel: u64) -> f64 {
    let bits = derive_seed(lane_seed, channel);
    (bits >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
}

/// Applies one lane's dispersion draws to its configuration (see the
/// [`Dispersion`] field table).
fn disperse_config(config: &mut PlatformConfig, d: &Dispersion, lane_seed: u64) {
    let g = &mut config.gyro;
    g.f0 = Hertz(g.f0.0 * (1.0 + d.omega_frac * dispersion_draw(lane_seed, 0)));
    g.q_drive *= 1.0 + d.q_frac * dispersion_draw(lane_seed, 1);
    g.q_sense *= 1.0 + d.q_frac * dispersion_draw(lane_seed, 2);
    g.quadrature_rate =
        DegPerSec(g.quadrature_rate.0 + d.offset_dps * dispersion_draw(lane_seed, 3));
    config.charge_gain *= 1.0 + d.gain_frac * dispersion_draw(lane_seed, 4);
}

/// Expands every Monte-Carlo spec into its dispersed lanes, in input
/// order; plain specs pass through unchanged. Lane `i` of a spec becomes
/// scenario `{name}/mc{i}` with seed `derive_seed(base, expanded_index)`
/// — `base` being the spec's seed override or its device's base seed —
/// and a platform configuration perturbed by the spec's [`Dispersion`]
/// drawn from that same lane seed.
///
/// The result runs as plain scenarios, one platform per lane: running it
/// is the scalar reference for batched fleet execution, with outcomes
/// and CSV byte-identical to running `scenarios` themselves.
///
/// ```
/// use ascp_core::campaign::{expand_monte_carlo, Dispersion, ScenarioSpec};
/// use ascp_core::platform::PlatformConfig;
///
/// let cfg = PlatformConfig::builder().quiet().build().expect("valid");
/// let population = ScenarioSpec::new("pop", cfg).monte_carlo(3, Dispersion::none());
/// let lanes = expand_monte_carlo(vec![population]);
/// assert_eq!(lanes.len(), 3);
/// assert_eq!(lanes[2].name, "pop/mc2");
/// assert!(lanes.iter().all(|lane| lane.monte_carlo.is_none()));
/// ```
#[must_use]
pub fn expand_monte_carlo(scenarios: Vec<ScenarioSpec>) -> Vec<ScenarioSpec> {
    expand_with_parents(scenarios).0
}

/// [`expand_monte_carlo`], plus, per expanded index, the input index of
/// the Monte-Carlo parent (`None` for plain scenarios): the grouping key
/// for batched fleet execution.
fn expand_with_parents(scenarios: Vec<ScenarioSpec>) -> (Vec<ScenarioSpec>, Vec<Option<usize>>) {
    let mut expanded = Vec::with_capacity(scenarios.len());
    let mut parents = Vec::with_capacity(scenarios.len());
    for (parent, spec) in scenarios.into_iter().enumerate() {
        let Some((lanes, dispersion)) = spec.monte_carlo else {
            expanded.push(spec);
            parents.push(None);
            continue;
        };
        let base = spec.seed.unwrap_or(spec.device.seed());
        for lane in 0..lanes {
            let lane_seed = derive_seed(base, expanded.len() as u64);
            let mut s = spec.clone();
            s.monte_carlo = None;
            s.name = format!("{}/mc{lane}", spec.name);
            s.seed = Some(lane_seed);
            if let Device::Platform(config) = &mut s.device {
                disperse_config(config, &dispersion, lane_seed);
            }
            expanded.push(s);
            parents.push(Some(parent));
        }
    }
    (expanded, parents)
}

/// Runs a lane group's shared protocol on its fleet. Monte-Carlo
/// siblings share their parent's steps, duration floor and DSP rate, and
/// [`fleet_eligible`] admits only the steps a fleet takes in lockstep:
/// `Run`, the duration floor and `MeasureMeanRate` step the fleet, and
/// the stimulus setters go through [`PlatformFleet::for_each_platform`].
fn run_fleet(
    fleet: &mut PlatformFleet,
    spec: &ScenarioSpec,
    runs: &mut [LaneRun],
    ctx: AttemptCtx,
) -> Result<(), Cancelled> {
    let Device::Platform(config) = &spec.device else {
        unreachable!("fleet-eligible lanes are platform lanes");
    };
    let dsp_rate = config.dsp_rate.0;
    for step in &spec.steps {
        match step {
            Step::Run { seconds } => run_for(*seconds, dsp_rate, ctx, |n| fleet.step_block(n))?,
            Step::SetRate { dps } => fleet.for_each_platform(|p| p.set_rate(DegPerSec(*dps))),
            Step::SetTemperature { celsius } => {
                fleet.for_each_platform(|p| p.set_temperature(Celsius(*celsius)));
            }
            Step::MeasureMeanRate { label, window_s } => {
                // Mirrors [`mean_rate`] tick-for-tick, accumulating every
                // lane from the same lockstep sweep.
                let ticks = ((window_s * dsp_rate).round() as u64).max(1);
                let mut acc = vec![0.0; runs.len()];
                for i in 0..ticks {
                    if i % CANCEL_CHECK_TICKS == 0 {
                        ctx.check()?;
                    }
                    fleet.step();
                    for (lane, a) in acc.iter_mut().enumerate() {
                        *a += fleet.rate_output_dps(lane);
                    }
                }
                for (run, a) in runs.iter_mut().zip(acc) {
                    run.out.metrics.push((label.clone(), a / ticks as f64));
                }
            }
            other => unreachable!("non-fleet step `{}` grouped onto a fleet", other.label()),
        }
    }
    if fleet.time() < spec.duration_s {
        run_for(spec.duration_s - fleet.time(), dsp_rate, ctx, |n| {
            fleet.step_block(n);
        })?;
    }
    Ok(())
}

/// The noise seed a lane runs with: its spec's override, else the
/// device's base seed mixed with the lane's campaign index.
fn lane_seed(index: usize, spec: &ScenarioSpec) -> u64 {
    spec.seed
        .unwrap_or_else(|| derive_seed(spec.device.seed(), index as u64))
}

/// A fault plan's class labels, deduplicated in plan order (an outcome's
/// coverage-matrix rows).
fn fault_classes(plan: &FaultPlan) -> Vec<&'static str> {
    let mut labels: Vec<&'static str> = Vec::new();
    for fault in plan.specs() {
        if !labels.contains(&fault.kind.label()) {
            labels.push(fault.kind.label());
        }
    }
    labels
}

/// The quarantined outcome of a scenario that failed every attempt.
fn poisoned_outcome(
    index: usize,
    name: &str,
    seed: u64,
    errors: Vec<ScenarioError>,
) -> ScenarioOutcome {
    ScenarioOutcome {
        name: name.to_owned(),
        index,
        seed,
        attempt_errors: errors,
        status: ScenarioStatus::Poisoned,
        ..ScenarioOutcome::default()
    }
}

/// Ticks per cancellation check inside tick-stepped measurement loops.
const CANCEL_CHECK_TICKS: u64 = 1024;

/// Ticks per [`Platform::step_block`] chunk inside [`run_for`].
const RUN_BLOCK_TICKS: u64 = 4096;

/// Marker error: the attempt outlived its deadline.
struct Cancelled;

/// A worker's deadline clock for one scenario attempt: when the clock
/// started and the configured limit. The worker reads it at every check
/// point ([`AttemptCtx::check`]); no other thread is involved, so an
/// overrunning attempt winds down at its next check point while the pool
/// keeps draining.
#[derive(Clone, Copy)]
struct AttemptCtx {
    /// `(clock start, limit in seconds)`; `None` never cancels.
    deadline: Option<(Instant, f64)>,
}

impl AttemptCtx {
    /// A clock that never runs out (warm-prefix execution).
    const NONE: AttemptCtx = AttemptCtx { deadline: None };

    /// Starts an attempt's clock under the configured deadline, if any.
    fn start(deadline_s: Option<f64>) -> Self {
        Self {
            deadline: deadline_s.map(|limit| (Instant::now(), limit)),
        }
    }

    /// `Err` once the attempt has been on the clock longer than its limit.
    fn check(self) -> Result<(), Cancelled> {
        match self.deadline {
            Some((start, limit)) if start.elapsed().as_secs_f64() > limit => Err(Cancelled),
            _ => Ok(()),
        }
    }

    fn deadline_s(self) -> Option<f64> {
        self.deadline.map(|(_, limit)| limit)
    }
}

/// One cached settle: the checkpoint taken after the settle prefix plus
/// the metrics those prefix steps recorded (replayed into every outcome
/// that restores this entry) and whether the prefix aborted (bring-up
/// failure: the remaining steps are skipped, exactly as on a cold run).
struct WarmEntry {
    checkpoint: Vec<u8>,
    metrics: Vec<(String, f64)>,
    /// Supervisor transitions the prefix produced. Checkpoints skip
    /// [`Platform::transitions`], so a restored platform starts with an
    /// empty list; replaying these keeps warm outcomes byte-identical to
    /// cold ones.
    transitions: Vec<(&'static str, &'static str)>,
    aborted: bool,
}

/// Keyed settle-checkpoint store shared by all campaign workers.
///
/// Each key maps to a [`OnceLock`]: the first scenario to claim it runs
/// the settle prefix while any siblings with the same key block, then
/// everyone restores the one checkpoint.
#[derive(Default)]
struct WarmCache {
    entries: Mutex<HashMap<u64, Arc<OnceLock<WarmEntry>>>>,
}

impl WarmCache {
    fn slot(&self, key: u64) -> Arc<OnceLock<WarmEntry>> {
        self.entries
            .lock()
            .expect("warm cache poisoned")
            .entry(key)
            .or_default()
            .clone()
    }
}

/// Number of leading steps that form the scenario's settle prefix:
/// bring-up, environment and calibration, but no measurement and no rate
/// stimulus. [`Step::SetRate`] ends the prefix because the applied rate
/// is what varies across a rate table — settling happens at zero rate so
/// sibling scenarios can share it. `Measure*`, `Capture*` and
/// [`Step::FaultResponse`] end it because their work is the measurement
/// itself.
fn settle_prefix_len(steps: &[Step]) -> usize {
    steps
        .iter()
        .take_while(|s| {
            matches!(
                s,
                Step::ArmWatchdog { .. }
                    | Step::WaitReady { .. }
                    | Step::WaitSupervisorNormal { .. }
                    | Step::Run { .. }
                    | Step::SetTemperature { .. }
                    | Step::FreezeAgcDrive { .. }
                    | Step::TrimRebalancePhase { .. }
            )
        })
        .count()
}

/// Warm-start cache key: the effective configuration digest (which covers
/// the effective seed and the merged fault specs) mixed with a canonical
/// encoding of the settle-prefix steps.
fn warm_key(config: &PlatformConfig, prefix: &[Step]) -> u64 {
    let canon = format!("{:#018x}|{prefix:?}", checkpoint::config_digest(config));
    fnv1a64(canon.as_bytes())
}

/// Runs the settle prefix cold and packages the result for the cache.
///
/// Uncancellable by design ([`AttemptCtx::NONE`]): the produced entry is
/// shared by every sibling scenario with the same key, so it must never
/// be a partial artifact of one worker's deadline.
fn warm_prefix(config: &PlatformConfig, prefix: &[Step]) -> WarmEntry {
    let mut p = Platform::new(config.clone());
    let mut out = ScenarioOutcome {
        seed: config.seed,
        ..ScenarioOutcome::default()
    };
    let mut scratch = Scratch::default();
    let mut aborted = false;
    for step in prefix {
        match apply_step(&mut p, step, &mut out, &mut scratch, AttemptCtx::NONE) {
            Ok(true) => {}
            // `Err(Cancelled)` is unreachable with a null context; treat
            // it like an abort for totality.
            Ok(false) | Err(Cancelled) => {
                aborted = true;
                break;
            }
        }
    }
    WarmEntry {
        checkpoint: checkpoint::save(&p),
        metrics: out.metrics,
        transitions: p.transitions().to_vec(),
        aborted,
    }
}

/// Mixes the config seed with the scenario index (splitmix64 finalizer) so
/// sibling scenarios decorrelate while staying thread-count independent.
#[must_use]
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-scenario interpreter state carried between steps.
#[derive(Default)]
struct Scratch {
    /// Sensitivity from the last static-transfer measurement (V per °/s).
    sensitivity: Option<f64>,
}

/// One lane of an attempt, between its setup and its finalization.
struct LaneRun {
    out: ScenarioOutcome,
    warm_hit: bool,
    /// The lane's scenario span ([`SpanId::NULL`] when untraced).
    span: SpanId,
    /// `None` for a channel lane or a config that failed validation: the
    /// outcome is final.
    platform: Option<Platform>,
    /// First step still to run: past a restored settle prefix, or past
    /// every step when that prefix aborted.
    resume_at: usize,
}

/// Runs one attempt of a pool unit: one scenario, or a group of
/// Monte-Carlo sibling lanes (see [`CampaignRunner::plan_units`]).
///
/// Each lane is set up (chaos, seed, config validation, warm start,
/// trace) and finalized (transitions, capture, recorder flag) here; a
/// channel lane runs whole during its setup ([`run_channel`]). A
/// group's lanes step as one lockstep [`PlatformFleet`]; when the fleet
/// refuses them they step one by one in this same attempt, with
/// identical results. `Err` fails the whole attempt: an overrun
/// deadline or a chaos stall (a panic propagates to the caller's
/// `catch_unwind` instead). `Ok` carries each lane's outcome plus
/// whether its warm cache hit. Chaos injections fire before the device
/// is built, so an injected attempt never perturbs simulation state.
#[allow(clippy::too_many_lines)]
fn run_attempt(
    lanes: &[(usize, ScenarioSpec)],
    attempt: u32,
    cache: Option<&WarmCache>,
    collector: Option<&TraceCollector>,
    chaos: Option<&ChaosPlan>,
    mut ctx: AttemptCtx,
) -> Result<Vec<(ScenarioOutcome, bool)>, ScenarioError> {
    let deadline_s = ctx.deadline_s().unwrap_or(0.0);
    let timed_out = |_: Cancelled| ScenarioError::TimedOut { deadline_s };
    let mut runs: Vec<LaneRun> = Vec::with_capacity(lanes.len());
    for (index, spec) in lanes {
        let index = *index;
        if let Some(plan) = chaos {
            match plan.decide(index, attempt) {
                ChaosInjection::Panic => {
                    panic!("chaos: injected worker panic (scenario {index}, attempt {attempt})")
                }
                ChaosInjection::Stall => {
                    // A hung worker: sleeps until the deadline, capped so
                    // chaos runs without a deadline still end. The
                    // recorded deadline is that configured limit, never
                    // measured time.
                    let cap = plan.stall_cap_s.max(0.0);
                    let limit = ctx.deadline_s().map_or(cap, |d| d.min(cap));
                    std::thread::sleep(Duration::try_from_secs_f64(limit).unwrap_or(Duration::MAX));
                    return Err(ScenarioError::TimedOut { deadline_s: limit });
                }
                ChaosInjection::None => {}
            }
        }
        let seed = lane_seed(index, spec);
        let mut out = ScenarioOutcome {
            name: spec.name.clone(),
            index,
            seed,
            ..ScenarioOutcome::default()
        };
        let mut trace = collector.map(|c| c.recorder(index as u64 + 1));
        let span = trace.as_mut().map_or(SpanId::NULL, |tr| {
            tr.begin(format!("scenario:{}", out.name), 0.0)
        });
        if attempt > 0 {
            if let Some(tr) = trace.as_mut() {
                tr.annotate(span, "attempt", attempt.to_string());
            }
        }
        let mut config = match &spec.device {
            Device::Platform(config) => config.clone(),
            Device::Channel { build, .. } => {
                // A channel lane bypasses the warm cache and the fleet: it
                // runs to completion here, and its outcome is final.
                out.fault_classes = fault_classes(&spec.faults);
                let mut ch = build(seed);
                ch.set_fault_plan(spec.faults.clone());
                run_channel(&mut ch, spec, &mut out, trace.as_mut(), ctx).map_err(timed_out)?;
                out.transitions.extend_from_slice(ch.transitions());
                if let Some(mut tr) = trace.take() {
                    tr.end(span, ch.time());
                    if let Some(c) = collector {
                        c.merge(tr);
                    }
                }
                runs.push(LaneRun {
                    out,
                    warm_hit: false,
                    span,
                    platform: None,
                    resume_at: 0,
                });
                continue;
            }
        };
        for fault in spec.faults.specs() {
            config.faults.push(*fault);
        }
        config.seed = seed;
        out.fault_classes = fault_classes(&config.faults);
        if let Err(e) = config.validate() {
            // An invalid spec is a scenario result, not a campaign abort.
            out.metrics.push(("config_valid".into(), 0.0));
            out.series.push((format!("error: {e}"), Vec::new()));
            if let Some(mut tr) = trace.take() {
                tr.annotate(span, "config_valid", "false");
                tr.end(span, 0.0);
                if let Some(c) = collector {
                    c.merge(tr);
                }
            }
            runs.push(LaneRun {
                out,
                warm_hit: false,
                span,
                platform: None,
                resume_at: 0,
            });
            continue;
        }

        // Checkpoints skip the flight recorder's ring and the telemetry
        // events a capture copies, so a scenario with an armed recorder
        // runs its prefix cold. The warm key leaves telemetry out, so its
        // entry may also have been warmed without a recorder.
        let prefix = match cache {
            Some(_) if !config.telemetry.recorder.armed() => settle_prefix_len(&spec.steps),
            _ => 0,
        };
        let mut warm_hit = false;
        let (mut p, resume_at) = match cache {
            Some(cache) if prefix > 0 => {
                let slot = cache.slot(warm_key(&config, &spec.steps[..prefix]));
                let mut warmed_here = false;
                let entry = slot.get_or_init(|| {
                    warmed_here = true;
                    warm_prefix(&config, &spec.steps[..prefix])
                });
                // The cache access (running the shared settle prefix, or
                // blocking on a sibling that runs it) is not this
                // scenario's own work: restart the clock after it.
                ctx = AttemptCtx::start(ctx.deadline_s());
                match checkpoint::restore(config.clone(), &entry.checkpoint) {
                    Ok(p) => {
                        warm_hit = !warmed_here;
                        out.metrics.extend(entry.metrics.iter().cloned());
                        // Checkpoints skip the transition list: replay the
                        // prefix's transitions so warm outcomes match cold
                        // ones.
                        out.transitions.extend(entry.transitions.iter().copied());
                        let resume_at = if entry.aborted {
                            spec.steps.len()
                        } else {
                            prefix
                        };
                        (p, resume_at)
                    }
                    // A key collision between different configs is caught
                    // by the checkpoint's config digest; fall back to a
                    // cold run.
                    Err(_) => (Platform::new(config), 0),
                }
            }
            _ => (Platform::new(config), 0),
        };
        if let Some(mut tr) = trace.take() {
            tr.annotate(span, "warm", if warm_hit { "hit" } else { "miss" });
            p.attach_trace(tr);
        }
        runs.push(LaneRun {
            out,
            warm_hit,
            span,
            platform: Some(p),
            resume_at,
        });
    }

    // A group tries the lockstep fleet; one lane, or lanes the fleet
    // refuses, step on their own platforms.
    let fleet = if runs.len() > 1 {
        let platforms = runs
            .iter_mut()
            .map(|r| {
                r.platform
                    .take()
                    .expect("grouped lanes are fleet-eligible, so their configs validate")
            })
            .collect();
        match PlatformFleet::new(platforms) {
            Ok(fleet) => Some(fleet),
            Err(refused) => {
                for (run, p) in runs.iter_mut().zip(refused.platforms) {
                    run.platform = Some(p);
                }
                None
            }
        }
    } else {
        None
    };
    if let Some(mut fleet) = fleet {
        run_fleet(&mut fleet, &lanes[0].1, &mut runs, ctx).map_err(timed_out)?;
        for (run, p) in runs.iter_mut().zip(fleet.into_platforms()) {
            run.platform = Some(p);
        }
    } else {
        for (run, (_, spec)) in runs.iter_mut().zip(lanes) {
            if let Some(p) = run.platform.as_mut() {
                let steps = &spec.steps[run.resume_at..];
                run_steps(p, steps, spec.duration_s, &mut run.out, ctx).map_err(timed_out)?;
            }
        }
    }

    // Deterministic observability results: transitions, capture, and (when
    // a recorder was armed) whether it fired. A cancelled attempt returned
    // above, so its trace recorders died with their platforms: only
    // completed attempts contribute spans. The outcomes get a buffer of
    // their own: a collect from `runs` would reuse its platform-sized
    // allocation, which the campaign then holds until the merge.
    let mut outs = Vec::with_capacity(runs.len());
    for mut run in runs {
        if let Some(mut p) = run.platform {
            run.out.transitions.extend_from_slice(p.transitions());
            run.out.capture = p.take_capture();
            if p.recorder().is_some() {
                run.out.metrics.push((
                    "recorder_triggered".into(),
                    f64::from(u8::from(run.out.capture.is_some())),
                ));
            }
            if let Some(mut tr) = p.take_trace() {
                tr.end(run.span, p.time());
                if let Some(c) = collector {
                    c.merge(tr);
                }
            }
        }
        outs.push((run.out, run.warm_hit));
    }
    Ok(outs)
}

/// Runs one lane's `steps` on its own platform, one trace span per step,
/// then runs on to the `duration_s` floor. A bring-up failure skips the
/// remaining steps but not the floor.
fn run_steps(
    p: &mut Platform,
    steps: &[Step],
    duration_s: f64,
    out: &mut ScenarioOutcome,
    ctx: AttemptCtx,
) -> Result<(), Cancelled> {
    let mut scratch = Scratch::default();
    for step in steps {
        let t_begin = p.time();
        let span = p
            .trace_mut()
            .map_or(SpanId::NULL, |tr| tr.begin(step.label(), t_begin));
        let proceed = apply_step(p, step, out, &mut scratch, ctx);
        let t_end = p.time();
        if let Some(tr) = p.trace_mut() {
            tr.end(span, t_end);
        }
        if !proceed? {
            break;
        }
    }
    if p.time() < duration_s {
        let dsp_rate = p.config().dsp_rate.0;
        run_for(duration_s - p.time(), dsp_rate, ctx, |n| p.step_block(n))?;
    }
    Ok(())
}

/// Advances `seconds` at `dsp_rate` through `step_block` — one platform's
/// or a whole fleet's, with identical tick rounding to [`Platform::run`]
/// — in [`RUN_BLOCK_TICKS`] chunks, so an overrun deadline is observed
/// between chunks.
fn run_for(
    seconds: f64,
    dsp_rate: f64,
    ctx: AttemptCtx,
    mut step_block: impl FnMut(u64),
) -> Result<(), Cancelled> {
    let mut ticks = (seconds * dsp_rate).round() as u64;
    while ticks > 0 {
        ctx.check()?;
        let block = ticks.min(RUN_BLOCK_TICKS);
        step_block(block);
        ticks -= block;
    }
    Ok(())
}

/// Steps `p` until `pred` holds or `timeout_s` elapses; returns the
/// simulation time at which the predicate first held. Checks the deadline
/// every [`CANCEL_CHECK_TICKS`] ticks.
fn run_until(
    p: &mut Platform,
    timeout_s: f64,
    ctx: AttemptCtx,
    mut pred: impl FnMut(&Platform) -> bool,
) -> Result<Option<f64>, Cancelled> {
    let ticks = (timeout_s * p.config().dsp_rate.0).round() as u64;
    for i in 0..ticks {
        if i % CANCEL_CHECK_TICKS == 0 {
            ctx.check()?;
        }
        p.step();
        if pred(p) {
            return Ok(Some(p.time()));
        }
    }
    Ok(None)
}

/// Mean rate output (°/s) over `window_s`.
fn mean_rate(p: &mut Platform, window_s: f64, ctx: AttemptCtx) -> Result<f64, Cancelled> {
    let ticks = ((window_s * p.config().dsp_rate.0).round() as u64).max(1);
    let mut acc = 0.0;
    for i in 0..ticks {
        if i % CANCEL_CHECK_TICKS == 0 {
            ctx.check()?;
        }
        p.step();
        acc += p.rate_output_dps();
    }
    Ok(acc / ticks as f64)
}

/// Runs one step; `Ok(false)` means the remaining steps must be skipped
/// (bring-up failure), `Err(Cancelled)` that the attempt overran its
/// deadline. Long uncancellable measurement primitives check the deadline
/// at their boundary ([`AttemptCtx::check`]); tick-stepped loops check it
/// every [`CANCEL_CHECK_TICKS`] ticks.
#[allow(clippy::too_many_lines)]
fn apply_step(
    p: &mut Platform,
    step: &Step,
    out: &mut ScenarioOutcome,
    scratch: &mut Scratch,
    ctx: AttemptCtx,
) -> Result<bool, Cancelled> {
    let push = |out: &mut ScenarioOutcome, name: &str, value: f64| {
        out.metrics.push((name.to_owned(), value));
    };
    let dsp_rate = p.config().dsp_rate.0;
    match step {
        Step::ArmWatchdog { timeout_cycles } => {
            p.bus_mut().watchdog.write16(1, *timeout_cycles);
            p.bus_mut().watchdog.write16(0, 1);
        }
        Step::WaitReady { timeout_s } => {
            ctx.check()?;
            match p.wait_for_ready(*timeout_s) {
                Some(t) => {
                    push(out, "locked", 1.0);
                    push(out, "turn_on_s", t.0);
                }
                None => {
                    push(out, "locked", 0.0);
                    return Ok(false);
                }
            }
        }
        Step::WaitSupervisorNormal { timeout_s } => {
            match run_until(p, *timeout_s, ctx, |p| {
                p.supervisor().state() == SupervisorState::Normal
            })? {
                Some(t) => push(out, "supervisor_normal_s", t),
                None => {
                    push(out, "supervisor_normal_s", -1.0);
                    return Ok(false);
                }
            }
        }
        Step::Run { seconds } => run_for(*seconds, dsp_rate, ctx, |n| p.step_block(n))?,
        Step::SetRate { dps } => p.set_rate(DegPerSec(*dps)),
        Step::SetTemperature { celsius } => p.set_temperature(Celsius(*celsius)),
        Step::FreezeAgcDrive { resettle_s } => {
            let settled_drive = p.chain().drive();
            let mut frozen = p.chain().config().clone();
            frozen.agc.max_drive = settled_drive;
            frozen.agc.kp = 0.0;
            frozen.agc.ki = 1.0e6; // integrator pegs at max_drive = fixed drive
            *p.chain_mut() = ConditioningChain::new(frozen);
            run_for(*resettle_s, dsp_rate, ctx, |n| p.step_block(n))?;
        }
        Step::TrimRebalancePhase {
            probe_rate_dps,
            iterations,
        } => {
            ctx.check()?;
            let phase = trim_rebalance_phase(p, *probe_rate_dps, *iterations);
            push(out, "rebalance_phase_rad", phase);
        }
        Step::MeasureMeanRate { label, window_s } => {
            let mean = mean_rate(p, *window_s, ctx)?;
            push(out, label, mean);
        }
        Step::MeasureSensitivity {
            label,
            rate_dps,
            settle_s,
            samples,
        } => {
            ctx.check()?;
            p.set_rate(DegPerSec(*rate_dps));
            let plus = stats::mean(&p.sample_rate_output(*settle_s, *samples));
            p.set_rate(DegPerSec(-rate_dps));
            let minus = stats::mean(&p.sample_rate_output(*settle_s, *samples));
            p.set_rate(DegPerSec(0.0));
            push(out, label, (plus - minus) / (2.0 * rate_dps));
        }
        Step::MeasureLinearity {
            label,
            rates,
            dwell_s,
            settle_s,
            samples,
        } => {
            let mut outs = Vec::with_capacity(rates.len());
            for &r in rates {
                p.set_rate(DegPerSec(r));
                run_for(*dwell_s, dsp_rate, ctx, |n| p.step_block(n))?;
                outs.push(stats::mean(&p.sample_rate_output(*settle_s, *samples)));
            }
            p.set_rate(DegPerSec(0.0));
            let full_scale = rates.iter().fold(0.0f64, |m, r| m.max(r.abs()));
            let fit = stats::linear_fit(rates, &outs);
            let pct = fit.max_residual / (fit.slope.abs() * full_scale) * 100.0;
            push(out, label, pct);
        }
        Step::MeasureStaticTransfer {
            rate_points,
            samples_per_point,
        } => {
            ctx.check()?;
            let mut cfg = CharacterizationConfig::default();
            cfg.rate_points.clone_from(rate_points);
            cfg.samples_per_point = *samples_per_point;
            let t = measure_static_transfer(p, &cfg, 25.0);
            scratch.sensitivity = Some(t.sensitivity);
            push(out, "sensitivity_v_per_dps", t.sensitivity);
            push(out, "null_v", t.null);
            push(out, "nonlinearity_pct_fs", t.nonlinearity_pct_fs);
        }
        Step::MeasureNoiseDensity { samples } => {
            ctx.check()?;
            let mut cfg = CharacterizationConfig::default();
            cfg.noise_samples = *samples;
            let sensitivity = scratch.sensitivity.unwrap_or(0.005);
            let noise = measure_noise_density(p, &cfg, sensitivity);
            push(out, "noise_density_dps_rthz", noise);
        }
        Step::CaptureZeroRate {
            label,
            seconds,
            settle_s,
        } => {
            ctx.check()?;
            let fs = p.output_sample_rate();
            let n = (seconds * fs).round() as usize;
            let volts = p.sample_output(*settle_s, n);
            // Nominal transfer: 5 mV/°/s around the 2.5 V null.
            let rate: Vec<f64> = volts.iter().map(|v| (v - 2.5) / 0.005).collect();
            push(out, &format!("{label}_fs_hz"), fs);
            out.series.push((label.clone(), rate));
        }
        Step::FaultResponse {
            t_inject_s,
            t_clear_s,
            detect_budget_s,
            recover_budget_s,
            measure_recovery,
        } => {
            let baseline = mean_rate(p, 0.05, ctx)?;
            push(out, "baseline_dps", baseline);
            // Detection: first departure from Normal after injection.
            let detect_window = (t_inject_s - p.time()).max(0.0) + detect_budget_s;
            let detected_at = run_until(p, detect_window, ctx, |p| {
                p.supervisor().state() != SupervisorState::Normal
            })?;
            match detected_at {
                Some(t) => {
                    push(out, "detected", 1.0);
                    push(out, "detection_latency_s", t - t_inject_s);
                }
                None => push(out, "detected", 0.0),
            }
            if detected_at.is_some() && *measure_recovery {
                // Recovery: first return to Normal after the fault clears.
                let remaining = (t_clear_s - p.time()).max(0.0) + recover_budget_s;
                match run_until(p, remaining, ctx, |p| {
                    p.supervisor().state() == SupervisorState::Normal
                })? {
                    Some(t) => {
                        push(out, "recovered", 1.0);
                        push(out, "recovery_time_s", (t - t_clear_s).max(0.0));
                        push(
                            out,
                            "residual_rate_dps",
                            (mean_rate(p, 0.1, ctx)? - baseline).abs(),
                        );
                    }
                    None => push(out, "recovered", 0.0),
                }
            }
            push(out, "final_state_code", p.supervisor().state().code());
        }
        other => panic!("no gyro-platform meaning for step `{}`", other.label()),
    }
    Ok(true)
}

/// The sensor-channel interpreter: runs a channel lane's steps on `ch`,
/// one trace span per step, then settles on to the `duration_s` floor (the
/// module docs tabulate each step's channel meaning). A step with no
/// channel meaning panics with its label; supervision turns that into a
/// poisoned row. Checks the deadline at every step boundary.
fn run_channel(
    ch: &mut SensorChannel,
    spec: &ScenarioSpec,
    out: &mut ScenarioOutcome,
    mut trace: Option<&mut TraceRecorder>,
    ctx: AttemptCtx,
) -> Result<(), Cancelled> {
    let push = |out: &mut ScenarioOutcome, name: &str, value: f64| {
        out.metrics.push((name.to_owned(), value));
    };
    for step in &spec.steps {
        ctx.check()?;
        let t_begin = ch.time();
        let span = trace
            .as_deref_mut()
            .map_or(SpanId::NULL, |tr| tr.begin(step.label(), t_begin));
        match step {
            Step::Run { seconds } => ch.settle(*seconds),
            Step::SetStimulus { value } => ch.set_stimulus(*value),
            Step::SetTemperature { celsius } => ch.set_temperature(Celsius(*celsius)),
            Step::MeasureStaticTransfer {
                rate_points: points,
                samples_per_point,
            } => {
                ch.settle(0.02);
                let mut eus = Vec::with_capacity(points.len());
                let mut node_v = Vec::with_capacity(points.len());
                for &p in points {
                    ch.set_stimulus(p);
                    ch.settle(0.01);
                    eus.push(ch.read(*samples_per_point));
                    node_v.push(ch.last_ratio() * ch.frontend().excitation().rail());
                }
                let fit_eu = stats::linear_fit(points, &eus);
                let fit_v = stats::linear_fit(points, &node_v);
                let (lo, hi) = ch.frontend().range();
                let offset: f64 = eus.iter().zip(points).map(|(y, x)| y - x).sum();
                push(out, "transfer_slope", fit_eu.slope);
                push(out, "sensitivity_v_per_eu", fit_v.slope);
                let linearity = 100.0 * fit_eu.max_residual / (hi - lo);
                push(out, "linearity_pct_fs", linearity);
                push(out, "offset_eu", offset / points.len() as f64);
                out.series.push(("transfer_eu".into(), eus));
            }
            Step::MeasureNoiseDensity { samples } => {
                ch.settle(0.05);
                let xs = ch.collect(*samples);
                let m = stats::mean(&xs);
                let centred: Vec<f64> = xs.iter().map(|x| x - m).collect();
                let fs_out = ch.output_rate();
                let seg = (samples / 4).next_power_of_two().clamp(64, 512);
                let (freqs, psd) = welch_psd(&centred, fs_out, seg, Window::Hann);
                let density = band_density(&freqs, &psd, 5.0, (fs_out / 4.0).min(200.0));
                push(out, "noise_density_eu_rthz", density);
                push(out, "noise_rms_eu", stats::rms(&centred));
            }
            Step::FaultResponse {
                t_inject_s,
                t_clear_s,
                recover_budget_s,
                ..
            } => {
                let latch = ChannelStatus::latched_by(&spec.faults);
                let (mut detected_at, mut recovered) = (None, false);
                while ch.time() < t_clear_s + recover_budget_s && !recovered {
                    let _ = ch.step();
                    if detected_at.is_none() && Some(ch.status()) == latch {
                        detected_at = Some(ch.time());
                    }
                    recovered = detected_at.is_some()
                        && ch.time() > *t_clear_s
                        && ch.status() == ChannelStatus::Normal;
                }
                push(out, "detected", f64::from(u8::from(detected_at.is_some())));
                let latency_ms = detected_at.map_or(-1.0, |t| (t - t_inject_s) * 1.0e3);
                push(out, "latency_ms", latency_ms);
                push(out, "recovered", f64::from(u8::from(recovered)));
            }
            other => panic!("no channel meaning for step `{}`", other.label()),
        }
        if let Some(tr) = trace.as_deref_mut() {
            tr.end(span, ch.time());
        }
    }
    if ch.time() < spec.duration_s {
        ch.settle(spec.duration_s - ch.time());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::FleetIneligible;
    use ascp_sim::fault::{AdcChannel, FaultKind};
    use ascp_sim::telemetry::RecorderConfig;

    fn quick_cfg() -> PlatformConfig {
        PlatformConfig::builder().quiet().build().expect("valid")
    }

    /// Runner with `threads` workers and otherwise default options.
    fn runner(threads: usize) -> CampaignRunner {
        CampaignRunner::with_options(
            CampaignOptions::builder()
                .threads(threads)
                .build()
                .expect("valid options"),
        )
    }

    fn quick_scenarios() -> Vec<ScenarioSpec> {
        vec![
            ScenarioSpec::new("a", quick_cfg())
                .with_step(Step::Run { seconds: 0.02 })
                .with_step(Step::SetRate { dps: 80.0 })
                .with_step(Step::MeasureMeanRate {
                    label: "mean_dps".into(),
                    window_s: 0.01,
                }),
            ScenarioSpec::new("b", quick_cfg())
                .with_faults({
                    let mut f = FaultPlan::new();
                    f.one_shot(FaultKind::PllUnlock, 0.01, 0.005);
                    f
                })
                .with_duration(0.03)
                .with_step(Step::Run { seconds: 0.01 }),
        ]
    }

    #[test]
    fn duration_floor_extends_the_run() {
        let options = CampaignOptions::builder().tracing(true).build();
        let report = CampaignRunner::with_options(options.expect("valid")).run(quick_scenarios());
        // Scenario "b" runs 0.01 s of steps but has a 0.03 s floor: its
        // span ends at the floor.
        let trace = report.trace.expect("tracing was on");
        let end = trace.span("scenario:b").expect("scenario span").sim_end_s;
        assert!((end - 0.03).abs() < 1e-9, "ends at {end} s");
    }

    #[test]
    fn seed_derivation_is_per_index_and_overridable() {
        let cfg = quick_cfg();
        let specs = vec![
            ScenarioSpec::new("x", cfg.clone()),
            ScenarioSpec::new("y", cfg.clone()),
            ScenarioSpec::new("z", cfg).with_seed(42),
        ];
        let report = runner(2).run(specs);
        assert_ne!(report.outcomes[0].seed, report.outcomes[1].seed);
        assert_eq!(report.outcomes[2].seed, 42);
    }

    #[test]
    fn invalid_config_becomes_an_outcome_not_a_panic() {
        let mut cfg = quick_cfg();
        cfg.analog_oversample = 0;
        let report = runner(1).run(vec![ScenarioSpec::new("bad", cfg)]);
        assert_eq!(report.outcomes[0].metric("config_valid"), Some(0.0));
    }

    fn map_channel(seed: u64) -> SensorChannel {
        let mut cfg = crate::frontend::ChannelConfig::new("map", seed);
        cfg.adc_vref = 5.0;
        SensorChannel::new(
            cfg,
            Box::new(ascp_mems::pressure::MapSensorFrontEnd::automotive(seed)),
        )
    }

    /// Monte-Carlo lanes of a channel spec differ only in their seeds: each
    /// lane equals a plain channel spec pinned to that lane's seed, so the
    /// (gyro-only) dispersion is not applied.
    #[test]
    fn channel_monte_carlo_lanes_reseed_without_dispersion() {
        let transfer = Step::MeasureStaticTransfer {
            rate_points: vec![50.0, 250.0],
            samples_per_point: 8,
        };
        let population = ScenarioSpec::channel("map", 3, map_channel)
            .with_step(transfer.clone())
            .monte_carlo(3, Dispersion::none().with_gain_frac(0.5));
        let report = runner(2).run(vec![population]);
        let pinned: Vec<ScenarioSpec> = (0..3)
            .map(|lane| {
                ScenarioSpec::channel(format!("map/mc{lane}"), 3, map_channel)
                    .with_seed(derive_seed(3, lane))
                    .with_step(transfer.clone())
            })
            .collect();
        assert_eq!(report.outcomes, runner(1).run(pinned).outcomes);
        let seeds: HashSet<u64> = report.outcomes.iter().map(|o| o.seed).collect();
        assert_eq!(seeds.len(), 3);
    }

    /// A step the device has no meaning for panics in that device's
    /// interpreter; supervision turns it into a poisoned row carrying the
    /// panic, and the rest of the campaign runs on.
    #[test]
    fn misapplied_steps_poison_their_row_not_the_campaign() {
        let map = map_channel;
        let report = runner(2).run(vec![
            ScenarioSpec::channel("channel_wait_ready", 3, map)
                .with_step(Step::WaitReady { timeout_s: 1.0 }),
            ScenarioSpec::new("gyro_set_stimulus", quick_cfg())
                .with_step(Step::SetStimulus { value: 1.0 }),
            ScenarioSpec::channel("channel_ok", 3, map).with_step(Step::Run { seconds: 0.01 }),
        ]);
        for (out, label) in report.outcomes.iter().zip(["WaitReady", "SetStimulus"]) {
            assert!(out.failed(), "{}", out.name);
            assert_eq!(out.attempt_errors.len(), 2, "{}: one retry", out.name);
            assert!(out.attempt_errors.iter().all(
                |e| matches!(e, ScenarioError::Panicked { message } if message.contains(label))
            ));
        }
        assert!(!report.outcomes[2].failed());
        assert_eq!(report.outcomes[2].transitions, [("init", "normal")]);
    }

    /// Outcome transitions come from the platform's own list, not from the
    /// 1024-slot telemetry event ring: a permanent ADC overload floods the
    /// ring with thousands of `AdcClip` events, which would evict the
    /// early transitions, and a telemetry-off platform records no events.
    #[test]
    fn transitions_survive_a_flooded_event_ring_and_telemetry_off() {
        let overload = |name: &str, channel| {
            let mut faults = FaultPlan::new();
            faults.permanent(
                FaultKind::AdcOverload {
                    channel,
                    gain: 50.0,
                },
                0.7,
            );
            ScenarioSpec::new(name, quick_cfg())
                .with_faults(faults)
                .with_step(Step::WaitReady { timeout_s: 2.0 })
                .with_step(Step::Run { seconds: 3.0 })
        };
        let mut silent_cfg = quick_cfg();
        silent_cfg.telemetry = TelemetryConfig::disabled();
        let silent = ScenarioSpec::new("telemetry_off", silent_cfg)
            .with_faults({
                let mut f = FaultPlan::new();
                f.one_shot(FaultKind::PllUnlock, 0.7, 0.1);
                f
            })
            .with_step(Step::WaitReady { timeout_s: 2.0 })
            .with_step(Step::Run { seconds: 1.0 });
        let report = runner(2).run(vec![
            overload("flooded", AdcChannel::Secondary),
            overload("flooded_primary", AdcChannel::Primary),
            silent,
        ]);
        for o in &report.outcomes {
            assert_eq!(
                o.transitions.first(),
                Some(&("init", "normal")),
                "{}: {:?}",
                o.name,
                o.transitions
            );
            assert!(o.transitions.len() >= 2, "{}: {:?}", o.name, o.transitions);
        }
    }

    #[test]
    fn csv_and_telemetry_carry_the_metrics() {
        let report = runner(1).run(quick_scenarios());
        let csv = report.to_csv();
        assert!(csv.starts_with("scenario,metric,value,status\n"));
        assert!(csv.contains("a,mean_dps,"));
        assert!(csv.lines().skip(1).all(|l| l.ends_with(",ok")));
        let snap = report.to_telemetry();
        assert_eq!(snap.wall_time_s, 0.0);
        assert!(snap.gauge("a.mean_dps").is_some());
        assert_eq!(snap.counter("campaign.retries_total"), 0);
        assert_eq!(snap.counter("campaign.poisoned_scenarios"), 0);
    }

    #[test]
    fn chaos_decisions_are_deterministic_and_expire() {
        let plan = ChaosPlan::new(0xC0FFEE);
        for index in 0..64 {
            assert_eq!(plan.decide(index, 0), plan.decide(index, 0));
            assert_eq!(plan.decide(index, 1), ChaosInjection::None);
        }
    }

    #[test]
    fn scenario_error_taxonomy_is_stable() {
        let panicked = ScenarioError::Panicked {
            message: "boom".into(),
        };
        let timed_out = ScenarioError::TimedOut { deadline_s: 1.5 };
        assert_eq!(panicked.label(), "panicked");
        assert_eq!(timed_out.label(), "timed_out");
        assert_eq!(ScenarioError::Missing.label(), "missing");
        assert_eq!(panicked.code(), 1.0);
        assert_eq!(timed_out.code(), 2.0);
        assert_eq!(ScenarioError::Missing.code(), 3.0);
        assert!(panicked.to_string().contains("boom"));
        assert!(timed_out.to_string().contains("1.5"));
    }

    /// A chaos seed whose decision for scenario 0 is `wanted`.
    fn chaos_seed_with(wanted: ChaosInjection) -> u64 {
        (0..1024)
            .find(|&s| ChaosPlan::new(s).decide(0, 0) == wanted)
            .expect("some seed produces the wanted injection")
    }

    #[test]
    fn poisoned_scenarios_ship_as_failed_rows_not_aborts() {
        let seed = chaos_seed_with(ChaosInjection::Panic);
        let report = CampaignRunner::with_options(
            CampaignOptions::builder()
                .threads(2)
                .retries(0)
                .chaos(ChaosPlan::new(seed).with_stall_cap_s(0.05))
                .build()
                .expect("valid options"),
        )
        .run(quick_scenarios());
        assert_eq!(report.outcomes.len(), 2, "pool must drain past the panic");
        let poisoned = &report.outcomes[0];
        assert!(poisoned.failed());
        assert!(poisoned.metrics.is_empty());
        assert_eq!(poisoned.attempt_errors.len(), 1);
        assert_eq!(poisoned.attempt_errors[0].label(), "panicked");
        let csv = report.to_csv();
        assert!(csv.contains("a,scenario_error,1,poisoned"));
        assert!(csv.contains("a,scenario_attempts,1,poisoned"));
        assert_eq!(report.poisoned(), report.failed_scenarios().len());
        assert_eq!(report.panics_total(), 1);
        assert_eq!(
            report.to_telemetry().counter("campaign.poisoned_scenarios"),
            report.poisoned() as u64
        );
    }

    #[test]
    fn options_builder_validates_each_field() {
        let err = |b: CampaignOptionsBuilder| b.build().expect_err("invalid").to_string();
        assert!(err(CampaignOptions::builder().threads(0)).contains("threads"));
        assert!(err(CampaignOptions::builder().deadline_s(0.0)).contains("deadline_s"));
        assert!(err(CampaignOptions::builder().deadline_s(f64::NAN)).contains("deadline_s"));
        assert!(
            err(CampaignOptions::builder().chaos(ChaosPlan::new(1).with_stall_cap_s(f64::NAN)))
                .contains("stall_cap_s")
        );
        let o = CampaignOptions::builder()
            .threads(2)
            .retries(3)
            .deadline_s(4.0)
            .build()
            .expect("valid");
        assert_eq!(o.threads(), 2);
        assert_eq!(o.max_retries(), 3);
        assert_eq!(o.deadline_s(), Some(4.0));
    }

    /// A five-lane Monte-Carlo spec dispersing every supported parameter,
    /// using only the fleet-safe step vocabulary.
    fn mc_spec() -> ScenarioSpec {
        ScenarioSpec::new("mc", quick_cfg())
            .with_step(Step::Run { seconds: 0.02 })
            .with_step(Step::SetRate { dps: 60.0 })
            .with_step(Step::MeasureMeanRate {
                label: "mean_dps".into(),
                window_s: 0.01,
            })
            .monte_carlo(
                5,
                Dispersion::none()
                    .with_omega_frac(0.02)
                    .with_q_frac(0.05)
                    .with_offset_dps(10.0)
                    .with_gain_frac(0.03),
            )
    }

    #[test]
    fn monte_carlo_expands_into_distinct_dispersed_lanes() {
        let report = runner(1).run(vec![mc_spec()]);
        assert_eq!(report.outcomes.len(), 5);
        for (lane, out) in report.outcomes.iter().enumerate() {
            assert_eq!(out.name, format!("mc/mc{lane}"));
            assert!(!out.failed());
        }
        let seeds: HashSet<u64> = report.outcomes.iter().map(|o| o.seed).collect();
        assert_eq!(seeds.len(), 5, "per-lane seeds must be distinct");
        let means: Vec<f64> = report
            .outcomes
            .iter()
            .map(|o| o.metric("mean_dps").expect("measured"))
            .collect();
        for pair in means.windows(2) {
            assert_ne!(pair[0], pair[1], "dispersion must perturb the physics");
        }
    }

    #[test]
    fn spec_seed_override_still_disperses_lanes() {
        // A spec-level seed replaces the *base* of the per-lane stream,
        // not the lanes' seeds: lane `e` still draws
        // `derive_seed(base, e)`, so lanes stay distinct.
        let a = runner(1).run(vec![mc_spec().with_seed(42)]);
        let seeds: Vec<u64> = a.outcomes.iter().map(|o| o.seed).collect();
        for (lane, &seed) in seeds.iter().enumerate() {
            assert_eq!(seed, derive_seed(42, lane as u64));
        }
        assert_eq!(seeds.iter().collect::<HashSet<_>>().len(), 5);
        let means: Vec<f64> = a
            .outcomes
            .iter()
            .map(|o| o.metric("mean_dps").expect("measured"))
            .collect();
        for pair in means.windows(2) {
            assert_ne!(pair[0], pair[1], "seeded lanes must still disperse");
        }
    }

    /// The pool units `runner` plans for `specs` after expansion.
    fn planned(
        runner: &CampaignRunner,
        specs: Vec<ScenarioSpec>,
    ) -> Vec<Vec<(usize, ScenarioSpec)>> {
        let (expanded, parents) = expand_with_parents(specs);
        runner.plan_units(expanded.into_iter().enumerate().collect(), &parents)
    }

    /// A unit's lanes built as the attempt builds them, handed to
    /// [`PlatformFleet::new`].
    fn fleet_of(unit: &[(usize, ScenarioSpec)]) -> Result<PlatformFleet, FleetIneligible> {
        let platforms = unit
            .iter()
            .map(|(index, spec)| {
                let Device::Platform(config) = &spec.device else {
                    panic!("fleet units hold platform lanes");
                };
                Platform::new(PlatformConfig {
                    seed: lane_seed(*index, spec),
                    ..config.clone()
                })
            })
            .collect();
        PlatformFleet::new(platforms)
    }

    #[test]
    fn planner_batches_eligible_sibling_lanes() {
        let units = planned(&runner(1), vec![mc_spec()]);
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].len(), 5);
        // The batched lanes must be genuinely fleet-able, not silently
        // stepping one by one at attempt time.
        assert!(
            fleet_of(&units[0]).is_ok(),
            "dispersed mc lanes must be fleet-eligible"
        );
        // Warm-start and tracing force every lane into its own unit, and
        // so does pre-expansion (the scalar reference).
        for options in [
            CampaignOptions::builder().warm_start(true),
            CampaignOptions::builder().tracing(true),
        ] {
            let scalar_runner = CampaignRunner::with_options(options.build().expect("valid"));
            let units = planned(&scalar_runner, vec![mc_spec()]);
            assert!(units.iter().all(|lanes| lanes.len() == 1));
            assert_eq!(units.len(), 5);
        }
        let units = planned(&runner(1), expand_monte_carlo(vec![mc_spec()]));
        assert!(units.iter().all(|lanes| lanes.len() == 1));
        assert_eq!(units.len(), 5);
    }

    #[test]
    fn planner_splits_populations_at_the_fleet_width() {
        let spec = mc_spec().monte_carlo(20, Dispersion::none());
        let units = planned(&runner(1), vec![spec]);
        let widths: Vec<usize> = units.iter().map(Vec::len).collect();
        assert_eq!(widths, vec![FLEET_GROUP_MAX, 4]);
    }

    /// Lanes the fleet refuses (an armed flight recorder passes
    /// [`fleet_eligible`] but not [`PlatformFleet::new`]) step one by one
    /// inside the group's attempt. The equivalence oracle checks them
    /// against the scalar reference.
    #[test]
    fn fleet_refused_group_steps_lanes_one_by_one() {
        let mut spec = mc_spec();
        spec.device = Device::Platform(
            PlatformConfig::builder()
                .quiet()
                .recorder(RecorderConfig::fault_triggers(256))
                .build()
                .expect("valid"),
        );
        let units = planned(&runner(1), vec![spec.clone()]);
        assert_eq!(units.len(), 1, "recorder lanes still group");
        assert!(units[0].iter().all(|(_, lane)| fleet_eligible(lane)));
        assert!(
            fleet_of(&units[0]).is_err(),
            "the fleet must refuse armed recorders"
        );
        let grouped = runner(1).run(vec![spec]);
        assert_eq!(grouped.outcomes.len(), 5);
        assert!(grouped
            .outcomes
            .iter()
            .all(|o| o.metric("recorder_triggered").is_some()));
    }

    /// A group that overruns its deadline fails whole: with no retry
    /// budget every lane is poisoned, in order, with the configured
    /// deadline as its only attempt error.
    #[test]
    fn overrunning_group_poisons_every_lane() {
        let spec = ScenarioSpec::new("slow", quick_cfg())
            .with_step(Step::Run { seconds: 0.5 })
            .monte_carlo(16, Dispersion::none());
        let slow_runner = CampaignRunner::with_options(
            CampaignOptions::builder()
                .threads(1)
                .retries(0)
                .deadline_s(0.005)
                .build()
                .expect("valid options"),
        );
        let units = planned(&slow_runner, vec![spec.clone()]);
        assert_eq!(units.len(), 1, "one 16-lane group");
        assert_eq!(units[0].len(), 16);
        let report = slow_runner.run(vec![spec]);
        assert_eq!(report.outcomes.len(), 16);
        assert_eq!(report.poisoned(), 16);
        for (lane, out) in report.outcomes.iter().enumerate() {
            assert_eq!(out.name, format!("slow/mc{lane}"));
            assert_eq!(out.index, lane);
            assert_eq!(out.status, ScenarioStatus::Poisoned);
            assert_eq!(
                out.attempt_errors,
                vec![ScenarioError::TimedOut { deadline_s: 0.005 }]
            );
        }
    }

    #[test]
    fn dispersion_draws_are_deterministic_and_bounded() {
        for channel in 0..5 {
            let d = dispersion_draw(0xDEAD_BEEF, channel);
            assert_eq!(d, dispersion_draw(0xDEAD_BEEF, channel));
            assert!((-1.0..1.0).contains(&d));
        }
        let distinct: HashSet<u64> = (0..5)
            .map(|c| dispersion_draw(0xDEAD_BEEF, c).to_bits())
            .collect();
        assert_eq!(distinct.len(), 5, "channels must be independent streams");
    }
}
