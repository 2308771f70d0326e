//! The campaign's data: the [`Step`] vocabulary and its step table, the
//! device under test, [`ScenarioSpec`], and the Monte-Carlo expansion with
//! its seed derivation.

use crate::frontend::SensorChannel;
use crate::platform::PlatformConfig;
use ascp_sim::fault::FaultPlan;
use ascp_sim::units::{DegPerSec, Hertz};

/// One step of a scenario's measurement protocol.
///
/// Steps run in order against the scenario's private device ([`Device`]);
/// each `Measure*` step appends named metrics (and, for captures, sample
/// series) to the scenario's
/// [`ScenarioOutcome`](super::ScenarioOutcome). The step vocabulary covers
/// the protocols of the repo's bench bins — fault campaign, ablations,
/// stability runs and the cross-sensor datasheet are all scenario lists.
/// The module docs tabulate each step's meaning per device.
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
    /// The step table: each variant's label, whether it may sit in a
    /// cached warm-start settle prefix, and whether the lockstep fleet runs
    /// it. A settle prefix is bring-up, environment and calibration.
    /// `SetRate` ends it because the applied rate is what varies across a
    /// rate table (settling happens at zero rate, so siblings share it);
    /// measurements end it because their work is the measurement itself.
    fn row(&self) -> (&'static str, bool, bool) {
        match self {
            Self::ArmWatchdog { .. } => ("ArmWatchdog", true, false),
            Self::WaitReady { .. } => ("WaitReady", true, false),
            Self::WaitSupervisorNormal { .. } => ("WaitSupervisorNormal", true, false),
            Self::Run { .. } => ("Run", true, true),
            Self::SetRate { .. } => ("SetRate", false, true),
            Self::SetStimulus { .. } => ("SetStimulus", false, false),
            Self::SetTemperature { .. } => ("SetTemperature", true, true),
            // The frozen AGC gains live in the chain's config, which a
            // checkpoint does not save: a platform restored after this step
            // would regulate its drive again.
            Self::FreezeAgcDrive { .. } => ("FreezeAgcDrive", false, false),
            Self::TrimRebalancePhase { .. } => ("TrimRebalancePhase", true, false),
            Self::MeasureMeanRate { .. } => ("MeasureMeanRate", false, true),
            Self::MeasureSensitivity { .. } => ("MeasureSensitivity", false, false),
            Self::MeasureLinearity { .. } => ("MeasureLinearity", false, false),
            Self::MeasureStaticTransfer { .. } => ("MeasureStaticTransfer", false, false),
            Self::MeasureNoiseDensity { .. } => ("MeasureNoiseDensity", false, false),
            Self::CaptureZeroRate { .. } => ("CaptureZeroRate", false, false),
            Self::FaultResponse { .. } => ("FaultResponse", false, false),
        }
    }

    /// Stable variant label (trace span names, progress lines).
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.row().0
    }

    /// Whether the step may sit in a cached warm-start settle prefix.
    pub(super) fn settles(&self) -> bool {
        self.row().1
    }

    /// Whether the lockstep fleet runs the step.
    pub(super) fn lockstep(&self) -> bool {
        self.row().2
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
    /// parameters). Lane outcomes are ordinary
    /// [`ScenarioOutcome`](super::ScenarioOutcome)s — the CSV carries one
    /// row set per lane, byte-identical whether the lanes ran batched on a
    /// [`PlatformFleet`](crate::platform::PlatformFleet) or as independent
    /// scalar scenarios, at any worker-thread count.
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

/// Uniform draw in [-1, 1) for one dispersion channel of one lane,
/// derived from the lane seed with the same splitmix mixing as
/// [`derive_seed`] (channel ↦ independent stream).
pub(super) fn dispersion_draw(lane_seed: u64, channel: u64) -> f64 {
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
pub(super) fn expand_with_parents(
    scenarios: Vec<ScenarioSpec>,
) -> (Vec<ScenarioSpec>, Vec<Option<usize>>) {
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

/// The noise seed a lane runs with: its spec's override, else the
/// device's base seed mixed with the lane's campaign index.
pub(super) fn lane_seed(index: usize, spec: &ScenarioSpec) -> u64 {
    spec.seed
        .unwrap_or_else(|| derive_seed(spec.device.seed(), index as u64))
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
