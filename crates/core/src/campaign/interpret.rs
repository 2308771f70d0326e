//! What a step means on each device: the gyro-platform interpreter
//! ([`apply_step`], [`run_steps`]), the sensor-channel interpreter
//! ([`run_channel`]), the lockstep fleet ([`run_fleet`], which runs only the
//! steps the step table marks lockstep) and the cancellable tick loops
//! they share.

use super::attempt::{AttemptCtx, Cancelled, LaneRun};
use super::{Device, ScenarioOutcome, ScenarioSpec, Step};
use crate::calibrate::trim_rebalance_phase;
use crate::characterize::{
    measure_noise_density, measure_static_transfer, CharacterizationConfig, RateSensor,
};
use crate::frontend::{ChannelStatus, SensorChannel};
use crate::platform::{Platform, PlatformFleet};
use crate::supervisor::SupervisorState;
use ascp_dsp::fft::{band_density, welch_psd, Window};
use ascp_mcu8051::periph::Bus16Device;
use ascp_sim::stats;
use ascp_sim::telemetry::trace::{SpanId, TraceRecorder};
use ascp_sim::units::{Celsius, DegPerSec};

/// Ticks per cancellation check inside [`tick_loop`].
const CANCEL_CHECK_TICKS: u64 = 1024;

/// Ticks per [`Platform::step_block`] chunk inside [`run_for`].
const RUN_BLOCK_TICKS: u64 = 4096;

/// Records one metric.
fn push(out: &mut ScenarioOutcome, name: &str, value: f64) {
    out.metrics.push((name.to_owned(), value));
}

/// Per-scenario interpreter state carried between steps.
#[derive(Default)]
pub(super) struct Scratch {
    /// Sensitivity from the last static-transfer measurement (V per °/s).
    sensitivity: Option<f64>,
}

/// Whether a lane spec can run on the batched fleet path: a platform
/// lane whose steps the step table marks lockstep, with no monitor CPU, no
/// fault plans, and a configuration that validates. Anything subtler —
/// armed recorders, gated paths, non-uniform lane state — is caught by
/// [`PlatformFleet::new`] at attempt time; refused lanes then step one by
/// one in the same attempt, with identical results.
pub(super) fn fleet_eligible(spec: &ScenarioSpec) -> bool {
    let Device::Platform(config) = &spec.device else {
        return false;
    };
    config.validate().is_ok()
        && !config.cpu_enabled
        && config.faults.is_empty()
        && spec.faults.is_empty()
        && spec.steps.iter().all(Step::lockstep)
}

/// Runs a lane group's shared protocol on its fleet. Monte-Carlo
/// siblings share their parent's steps, duration floor and DSP rate, and
/// [`fleet_eligible`] admits only the steps a fleet takes in lockstep:
/// `Run`, the duration floor and `MeasureMeanRate` step the fleet, and
/// the stimulus setters go through [`PlatformFleet::for_each_platform`].
pub(super) fn run_fleet(
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
                // Every lane accumulates from the same lockstep sweep.
                let means = mean_rates(*window_s, dsp_rate, runs.len(), ctx, |acc| {
                    fleet.step();
                    for (lane, a) in acc.iter_mut().enumerate() {
                        *a += fleet.rate_output_dps(lane);
                    }
                })?;
                for (run, mean) in runs.iter_mut().zip(means) {
                    run.out.metrics.push((label.clone(), mean));
                }
            }
            other => unreachable!("non-fleet step `{}` grouped onto a fleet", other.label()),
        }
    }
    let rest = (spec.duration_s - fleet.time()).max(0.0);
    run_for(rest, dsp_rate, ctx, |n| fleet.step_block(n))
}

/// Runs one lane's `steps` on its own platform, one trace span per step,
/// then runs on to the `duration_s` floor. A bring-up failure skips the
/// remaining steps but not the floor.
pub(super) fn run_steps(
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
    let (rest, dsp_rate) = ((duration_s - p.time()).max(0.0), p.config().dsp_rate.0);
    run_for(rest, dsp_rate, ctx, |n| p.step_block(n))
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

/// The one cancellable tick loop: calls `tick` up to `ticks` times and
/// checks the deadline every [`CANCEL_CHECK_TICKS`] ticks. Returns whether
/// `tick` ended the loop early by returning `true`.
fn tick_loop(
    ticks: u64,
    ctx: AttemptCtx,
    mut tick: impl FnMut() -> bool,
) -> Result<bool, Cancelled> {
    for i in 0..ticks {
        if i % CANCEL_CHECK_TICKS == 0 {
            ctx.check()?;
        }
        if tick() {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Steps `p` until `pred` holds or `timeout_s` elapses; returns the
/// simulation time at which the predicate first held.
fn run_until(
    p: &mut Platform,
    timeout_s: f64,
    ctx: AttemptCtx,
    mut pred: impl FnMut(&Platform) -> bool,
) -> Result<Option<f64>, Cancelled> {
    let ticks = (timeout_s * p.config().dsp_rate.0).round() as u64;
    let held = tick_loop(ticks, ctx, || {
        p.step();
        pred(p)
    })?;
    Ok(held.then(|| p.time()))
}

/// Mean rate output (°/s) over `window_s` of each of `lanes` lanes: `tick`
/// steps one tick and adds each lane's output to its accumulator.
fn mean_rates(
    window_s: f64,
    dsp_rate: f64,
    lanes: usize,
    ctx: AttemptCtx,
    mut tick: impl FnMut(&mut [f64]),
) -> Result<Vec<f64>, Cancelled> {
    let ticks = ((window_s * dsp_rate).round() as u64).max(1);
    let mut acc = vec![0.0; lanes];
    tick_loop(ticks, ctx, || {
        tick(&mut acc);
        false
    })?;
    Ok(acc.into_iter().map(|a| a / ticks as f64).collect())
}

/// Mean rate output (°/s) of one platform over `window_s`.
fn mean_rate(p: &mut Platform, window_s: f64, ctx: AttemptCtx) -> Result<f64, Cancelled> {
    let dsp_rate = p.config().dsp_rate.0;
    let means = mean_rates(window_s, dsp_rate, 1, ctx, |acc| {
        p.step();
        acc[0] += p.rate_output_dps();
    })?;
    Ok(means[0])
}

/// Runs one step; `Ok(false)` means the remaining steps must be skipped
/// (bring-up failure), `Err(Cancelled)` that the attempt overran its
/// deadline. Long uncancellable measurement primitives check the deadline
/// at their boundary ([`AttemptCtx::check`]); tick-stepped loops check it
/// every [`CANCEL_CHECK_TICKS`] ticks.
pub(super) fn apply_step(
    p: &mut Platform,
    step: &Step,
    out: &mut ScenarioOutcome,
    scratch: &mut Scratch,
    ctx: AttemptCtx,
) -> Result<bool, Cancelled> {
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
            *p.chain_mut() = p.chain().frozen_drive();
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
pub(super) fn run_channel(
    ch: &mut SensorChannel,
    spec: &ScenarioSpec,
    out: &mut ScenarioOutcome,
    mut trace: Option<&mut TraceRecorder>,
    ctx: AttemptCtx,
) -> Result<(), Cancelled> {
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
