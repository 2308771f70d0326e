//! One attempt of a pool unit under supervision: the retry loop and
//! poisoning, the worker's deadline clock, chaos injection, lane setup and
//! finalization, and the warm-start settle cache.

use super::interpret::{apply_step, run_channel, run_fleet, run_steps, Scratch};
use super::spec::lane_seed;
use super::{
    CampaignOptions, ChaosInjection, ChaosPlan, Device, ScenarioError, ScenarioOutcome,
    ScenarioSpec, ScenarioStatus, Step,
};
use crate::checkpoint;
use crate::platform::{Platform, PlatformConfig, PlatformFleet};
use ascp_sim::campaign::panic_message;
use ascp_sim::fault::FaultPlan;
use ascp_sim::snapshot::fnv1a64;
use ascp_sim::telemetry::trace::{SpanId, TraceCollector, TraceRecorder};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Marker error: the attempt outlived its deadline.
pub(super) struct Cancelled;

/// A worker's deadline clock for one scenario attempt: when the clock
/// started and the configured limit. The worker reads it at every check
/// point ([`AttemptCtx::check`]); no other thread is involved, so an
/// overrunning attempt winds down at its next check point while the pool
/// keeps draining.
#[derive(Clone, Copy)]
pub(super) struct AttemptCtx {
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
    pub(super) fn check(self) -> Result<(), Cancelled> {
        match self.deadline {
            Some((start, limit)) if start.elapsed().as_secs_f64() > limit => Err(Cancelled),
            _ => Ok(()),
        }
    }

    fn deadline_s(self) -> Option<f64> {
        self.deadline.map(|(_, limit)| limit)
    }
}

/// One lane of an attempt, between its setup and its finalization.
pub(super) struct LaneRun {
    pub(super) out: ScenarioOutcome,
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

/// Runs one pool unit (see `CampaignRunner::plan_units`) under
/// supervision. A failed attempt is retried at once with the seeds
/// unchanged; once the retry budget is spent the unit fails whole, and
/// every lane is quarantined with the shared error history. Each outcome
/// comes with whether its lane's warm cache hit.
pub(super) fn supervise(
    lanes: &[(usize, ScenarioSpec)],
    options: &CampaignOptions,
    cache: Option<&WarmCache>,
    collector: Option<&TraceCollector>,
) -> Vec<(ScenarioOutcome, bool)> {
    let chaos = options.chaos.as_ref();
    let mut errors: Vec<ScenarioError> = Vec::new();
    loop {
        let attempt = errors.len() as u32;
        let ctx = AttemptCtx::start(options.deadline_s);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_attempt(lanes, attempt, cache, collector, chaos, ctx)
        }));
        let result = caught.unwrap_or_else(|payload| {
            Err(ScenarioError::Panicked {
                message: panic_message(payload.as_ref()),
            })
        });
        match result {
            Ok(mut outs) => {
                for (out, _) in &mut outs {
                    out.attempt_errors.clone_from(&errors);
                }
                return outs;
            }
            Err(err) => errors.push(err),
        }
        if errors.len() > options.max_retries as usize {
            let poison = |(index, spec): &(usize, ScenarioSpec)| {
                (poisoned_outcome(*index, spec, errors.clone()), false)
            };
            return lanes.iter().map(poison).collect();
        }
    }
}

/// The quarantined outcome of a lane that failed every attempt.
pub(super) fn poisoned_outcome(
    index: usize,
    spec: &ScenarioSpec,
    errors: Vec<ScenarioError>,
) -> ScenarioOutcome {
    ScenarioOutcome {
        name: spec.name.clone(),
        index,
        seed: lane_seed(index, spec),
        attempt_errors: errors,
        status: ScenarioStatus::Poisoned,
        ..ScenarioOutcome::default()
    }
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

/// Ends a lane's scenario span at sim time `t` and merges its recorder
/// into the campaign trace.
fn close_span(
    collector: Option<&TraceCollector>,
    trace: Option<TraceRecorder>,
    span: SpanId,
    t: f64,
) {
    if let (Some(c), Some(mut tr)) = (collector, trace) {
        tr.end(span, t);
        c.merge(tr);
    }
}

/// Records an invalid spec as its scenario's result, not a campaign
/// abort: a `config_valid 0` metric and the error as a series label.
fn reject_spec(
    out: &mut ScenarioOutcome,
    trace: Option<&mut TraceRecorder>,
    span: SpanId,
    error: &dyn std::fmt::Display,
) {
    out.metrics.push(("config_valid".into(), 0.0));
    out.series.push((format!("error: {error}"), Vec::new()));
    if let Some(tr) = trace {
        tr.annotate(span, "config_valid", "false");
    }
}

/// Runs one attempt of a pool unit: one scenario, or a group of
/// Monte-Carlo sibling lanes.
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
        let mut trace = collector.map(|c| c.recorder(index as u64 + 1));
        let span = trace.as_mut().map_or(SpanId::NULL, |tr| {
            tr.begin(format!("scenario:{}", spec.name), 0.0)
        });
        if let Some(tr) = trace.as_mut().filter(|_| attempt > 0) {
            tr.annotate(span, "attempt", attempt.to_string());
        }
        let mut run = LaneRun {
            out: ScenarioOutcome {
                name: spec.name.clone(),
                index,
                seed,
                ..ScenarioOutcome::default()
            },
            warm_hit: false,
            span,
            platform: None,
            resume_at: 0,
        };
        let out = &mut run.out;
        let mut config = match &spec.device {
            Device::Platform(config) => config.clone(),
            Device::Channel { build, .. } => {
                // A channel lane bypasses the warm cache and the fleet: it
                // runs to completion here, and its outcome is final.
                out.fault_classes = fault_classes(&spec.faults);
                let mut ch = build(seed);
                // The channel polls its plan once per raw sample.
                if let Err(e) = spec.faults.validate(1.0 / ch.config().fs_hz) {
                    reject_spec(
                        out,
                        trace.as_mut(),
                        span,
                        &format!("invalid fault plan: {e}"),
                    );
                    close_span(collector, trace, span, 0.0);
                    runs.push(run);
                    continue;
                }
                ch.set_fault_plan(spec.faults.clone());
                run_channel(&mut ch, spec, out, trace.as_mut(), ctx).map_err(timed_out)?;
                out.transitions.extend_from_slice(ch.transitions());
                close_span(collector, trace, span, ch.time());
                runs.push(run);
                continue;
            }
        };
        for fault in spec.faults.specs() {
            config.faults.push(*fault);
        }
        config.seed = seed;
        out.fault_classes = fault_classes(&config.faults);
        if let Err(e) = config.validate() {
            reject_spec(out, trace.as_mut(), span, &e);
            close_span(collector, trace, span, 0.0);
            runs.push(run);
            continue;
        }
        let (mut p, resume_at, warm_hit) = warm_start(cache, config, &spec.steps, out, &mut ctx);
        if let Some(mut tr) = trace {
            tr.annotate(span, "warm", if warm_hit { "hit" } else { "miss" });
            p.attach_trace(tr);
        }
        (run.platform, run.resume_at, run.warm_hit) = (Some(p), resume_at, warm_hit);
        runs.push(run);
    }

    // A group tries the lockstep fleet; one lane, or lanes the fleet
    // refuses, step on their own platforms.
    let mut fleet = None;
    if runs.len() > 1 {
        let grouped = "grouped lanes are fleet-eligible, so their configs validate";
        let platforms = runs.iter_mut().map(|r| r.platform.take().expect(grouped));
        match PlatformFleet::new(platforms.collect()) {
            Ok(f) => fleet = Some(f),
            Err(refused) => {
                for (run, p) in runs.iter_mut().zip(refused.platforms) {
                    run.platform = Some(p);
                }
            }
        }
    }
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
            close_span(collector, p.take_trace(), run.span, p.time());
        }
        outs.push((run.out, run.warm_hit));
    }
    Ok(outs)
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
pub(super) struct WarmCache {
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

/// Number of leading steps that form the scenario's settle prefix: the
/// longest leading run of steps the step table lets settle.
fn settle_prefix_len(steps: &[Step]) -> usize {
    steps.iter().take_while(|s| s.settles()).count()
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
    let (mut out, mut scratch) = (ScenarioOutcome::default(), Scratch::default());
    // `Err(Cancelled)` is unreachable with a null context; it counts as an
    // abort for totality.
    let aborted = !prefix.iter().all(|step| {
        let proceed = apply_step(&mut p, step, &mut out, &mut scratch, AttemptCtx::NONE);
        matches!(proceed, Ok(true))
    });
    WarmEntry {
        checkpoint: checkpoint::save(&p),
        metrics: out.metrics,
        transitions: p.transitions().to_vec(),
        aborted,
    }
}

/// A lane's platform: restored from the warm cache past its settle prefix
/// when the cache is on, else built cold. Returns the platform, the first
/// step still to run and whether the cache hit; a restore replays the
/// prefix's metrics and transitions into `out`.
fn warm_start(
    cache: Option<&WarmCache>,
    config: PlatformConfig,
    steps: &[Step],
    out: &mut ScenarioOutcome,
    ctx: &mut AttemptCtx,
) -> (Platform, usize, bool) {
    // Checkpoints skip the flight recorder's ring and the telemetry events
    // a capture copies, so a scenario with an armed recorder runs its
    // prefix cold. The warm key leaves telemetry out, so its entry may
    // also have been warmed without a recorder.
    let prefix = settle_prefix_len(steps);
    let Some(cache) = cache.filter(|_| prefix > 0 && !config.telemetry.recorder.armed()) else {
        return (Platform::new(config), 0, false);
    };
    let slot = cache.slot(warm_key(&config, &steps[..prefix]));
    let mut warmed_here = false;
    let entry = slot.get_or_init(|| {
        warmed_here = true;
        warm_prefix(&config, &steps[..prefix])
    });
    // The cache access (running the shared settle prefix, or blocking on a
    // sibling that runs it) is not this scenario's own work: restart the
    // clock after it.
    *ctx = AttemptCtx::start(ctx.deadline_s());
    match checkpoint::restore(config.clone(), &entry.checkpoint) {
        Ok(p) => {
            out.metrics.extend(entry.metrics.iter().cloned());
            // Checkpoints skip the transition list: replay the prefix's
            // transitions so warm outcomes match cold ones.
            out.transitions.extend(entry.transitions.iter().copied());
            let resume_at = if entry.aborted { steps.len() } else { prefix };
            (p, resume_at, !warmed_here)
        }
        // A key collision between different configs is caught by the
        // checkpoint's config digest; fall back to a cold run.
        Err(_) => (Platform::new(config), 0, false),
    }
}
