//! Scenario campaigns: declarative experiments on the gyro platform and on
//! sensor channels, executed on the parallel [`ascp_sim::campaign`] pool.
//!
//! The paper's design flow (§2, Fig. 1) explores one programmable platform
//! across many configurations and sensors. This module turns that
//! exploration into data: a [`ScenarioSpec`] names a [`Device`] (a
//! platform config, or a sensor channel via [`ScenarioSpec::channel`]), an
//! optional fault plan, a duration, a seed and a list of [`Step`]s; a
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
//! The module has one file per seam: `spec` holds the data ([`Step`] and
//! its step table, [`ScenarioSpec`], the Monte-Carlo expansion);
//! `interpret` says what each step means on each device; `attempt` runs
//! one pool unit under supervision, with the warm cache; `options` holds
//! the runner's settings ([`CampaignOptions`] and its validating
//! builder) and `report` its results. This file is the executor.
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
//! individually. Consecutive sibling lanes whose steps the step table
//! marks lockstep (`Run`, `SetRate`, `SetTemperature`, `MeasureMeanRate`)
//! additionally execute *batched* on a `PlatformFleet` —
//! structure-of-arrays, up to 16 lanes per fleet — with
//! **byte-identical** results to scalar execution (fleet
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

mod attempt;
mod interpret;
mod options;
mod report;
mod spec;

pub use options::{CampaignOptions, CampaignOptionsBuilder, ChaosInjection, ChaosPlan};
pub use report::{
    CampaignObserver, CampaignReport, ScenarioError, ScenarioOutcome, ScenarioProgress,
    ScenarioStatus,
};
pub use spec::{derive_seed, expand_monte_carlo, Device, Dispersion, ScenarioSpec, Step};

use crate::journal::{self, JournalError, JournalWriter};
use ascp_sim::campaign::{try_parallel_map, MapError};
use ascp_sim::telemetry::trace::TraceCollector;
use attempt::{poisoned_outcome, supervise, WarmCache};
use interpret::fleet_eligible;
use spec::expand_with_parents;
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// Maximum Monte-Carlo lanes batched onto one [`PlatformFleet`] work
/// unit. Sixteen AVX2 f64 lanes keep the SoA buffers inside L1/L2 while
/// leaving enough units for the worker pool to balance.
const FLEET_GROUP_MAX: usize = 16;

/// Executes scenario lists on a fixed worker-thread pool.
///
/// Each scenario gets its own independent platform; results come back
/// in input order and are numerically identical for any thread count (see
/// the module docs). Configure it with [`CampaignOptions`]:
///
/// ```
/// use ascp_core::campaign::{CampaignOptions, CampaignRunner};
/// let runner = CampaignRunner::with_options(
///     CampaignOptions::builder().threads(2).build().expect("valid"),
/// );
/// assert!(runner.run(Vec::new()).outcomes.is_empty());
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
#[derive(Clone, Debug, Default)]
pub struct CampaignRunner {
    options: CampaignOptions,
}

impl CampaignRunner {
    /// Runner with the default options (see [`CampaignOptions::default`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Runner with validated options (the only configuration
    /// path).
    #[must_use]
    pub fn with_options(options: CampaignOptions) -> Self {
        Self { options }
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
        if !path.exists() {
            return self.run_with_journal(scenarios, path);
        }
        let (scenarios, parents) = expand_with_parents(scenarios);
        let digest = journal::campaign_digest(&scenarios);
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

        let slots = try_parallel_map(units.iter().collect(), self.options.threads, |_, lanes| {
            let t0 = Instant::now();
            let outs = supervise(lanes, &self.options, cache.as_ref(), collector.as_ref());
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
        for (result, lanes) in slots.into_iter().zip(&units) {
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
                    let err = match e {
                        MapError::Panicked { message } => ScenarioError::Panicked { message },
                        MapError::Missing => ScenarioError::Missing,
                    };
                    for (index, spec) in lanes {
                        outcomes.push(poisoned_outcome(*index, spec, vec![err.clone()]));
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

#[cfg(test)]
mod tests {
    use super::spec::{dispersion_draw, lane_seed};
    use super::*;
    use crate::frontend::SensorChannel;
    use crate::platform::{FleetIneligible, Platform, PlatformConfig, PlatformFleet};
    use ascp_sim::fault::{AdcChannel, FaultKind, FaultPlan};
    use ascp_sim::telemetry::{RecorderConfig, TelemetryConfig};

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
        assert_eq!((o.threads, o.max_retries, o.deadline_s), (2, 3, Some(4.0)));
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
