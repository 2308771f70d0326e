//! Fault-injection campaign: sweeps every fault class in the catalog
//! through the full platform and records, per class, whether the safety
//! supervisor detected it, the detection latency, the recovery time after
//! the fault clears, and the residual rate error once service resumes.
//!
//! ```sh
//! cargo run --release -p ascp-bench --bin fault_campaign            # full
//! cargo run --release -p ascp-bench --bin fault_campaign -- --smoke # CI
//! cargo run --release -p ascp-bench --bin fault_campaign -- --threads 4
//! ```
//!
//! Each fault class is one [`ScenarioSpec`] on the campaign runner, so the
//! sweep shards across worker threads (`--threads N`, default = available
//! parallelism) with results identical to the serial run. Results land in
//! `target/experiments/`: the long-format CSV, merged metrics JSON, a
//! Chrome trace (`fault_campaign.trace.json`, load in Perfetto), one
//! flight-recorder capture bundle per triggered scenario, and the
//! fault-class × supervisor-transition coverage matrix (`.coverage.md` /
//! `.coverage.csv`). The process exits non-zero if any fault class goes
//! undetected — `--smoke` runs the same sweep but skips the (slow)
//! recovery measurements. `--check-coverage <baseline.csv>` additionally
//! fails the run when a previously-exercised coverage cell goes dark.
//!
//! # Supervision, chaos, and crash recovery
//!
//! The sweep runs under the campaign supervision layer (panic isolation,
//! watchdog, deterministic retry — see `ascp_core::campaign`):
//!
//! - `--chaos` injects seeded worker panics and stalls (the supervision
//!   layer's analogue of the device's `FaultPlan`); `--chaos-seed N`
//!   picks the injection pattern. Healthy scenarios' CSV rows stay
//!   byte-identical to an undisturbed run.
//! - `--deadline S` arms the per-scenario wall-clock watchdog.
//! - `--journal <path>` journals each completed scenario; re-running the
//!   same command after a crash/`SIGKILL` resumes, re-executing only the
//!   unfinished scenarios, with a byte-identical merged report.
//!
//! Exit codes: `0` all scenarios healthy and every fault detected, `1`
//! scenario-level failures (undetected faults, poisoned scenarios,
//! coverage regressions), `2` infrastructure errors (journal I/O, an
//! unreadable or malformed coverage baseline).

use ascp_bench::harness::{
    check_coverage, run_to_exit, Args, Flag, ProgressLines, EXIT_SCENARIO_FAILURE,
};
use ascp_bench::{experiments_dir, write_metrics};
use ascp_core::prelude::*;
use ascp_sim::fault::AdcChannel;
use ascp_sim::telemetry::RecorderConfig;
use std::sync::Arc;

/// Default chaos seed: chosen so the 11-class catalog draws at least one
/// panic and one stall injection.
const CHAOS_SEED: u64 = 0xC4A0;

/// Default chaos stall cap, seconds: long enough to prove the stall
/// happened, short enough for CI smoke.
const CHAOS_STALL_CAP_S: f64 = 2.0;

/// Pre-trigger flight-recorder depth: 2048 DSP ticks ≈ 2 ms of signal
/// history ahead of every supervisor trigger.
const RECORDER_DEPTH: usize = 2048;

/// One campaign entry: the fault to inject and its timing envelope.
struct Case {
    kind: FaultKind,
    /// Fault active time, seconds (one-shot from `T_INJECT`).
    duration_s: f64,
    /// Wall deadline for the supervisor to leave `Normal`, from injection.
    detect_budget_s: f64,
    /// Wall deadline to return to `Normal` after the fault clears.
    recover_budget_s: f64,
    /// Whether the 8051 monitor must run (UART framing, watchdog).
    needs_cpu: bool,
}

const T_INJECT: f64 = 0.7;

fn catalog() -> Vec<Case> {
    let case = |kind, duration_s, detect_budget_s, recover_budget_s, needs_cpu| Case {
        kind,
        duration_s,
        detect_budget_s,
        recover_budget_s,
        needs_cpu,
    };
    vec![
        case(FaultKind::MemsDriveLoss, 0.45, 0.8, 3.0, false),
        case(FaultKind::SensorDisconnect, 0.3, 0.2, 2.5, false),
        case(
            FaultKind::AdcStuckBit {
                channel: AdcChannel::Secondary,
                bit: 11,
                value: false,
            },
            0.3,
            0.2,
            2.0,
            false,
        ),
        case(
            FaultKind::AdcStuckCode {
                channel: AdcChannel::Primary,
                code: 0,
            },
            0.3,
            0.2,
            3.5,
            false,
        ),
        case(
            FaultKind::AdcOverload {
                channel: AdcChannel::Primary,
                gain: 4.0,
            },
            0.3,
            0.15,
            2.0,
            false,
        ),
        case(
            FaultKind::ReferenceDroop { frac: 0.4 },
            0.3,
            0.35,
            2.5,
            false,
        ),
        case(FaultKind::PllUnlock, 0.05, 0.15, 8.0, false),
        case(FaultKind::SpiBitErrors { rate: 0.9 }, 0.3, 0.15, 1.0, false),
        case(FaultKind::UartBitErrors { rate: 0.5 }, 0.3, 0.35, 1.0, true),
        case(
            FaultKind::JtagCorruption { rate: 0.1 },
            0.3,
            0.25,
            1.0,
            false,
        ),
        case(FaultKind::CpuHang, 0.06, 0.25, 2.0, true),
    ]
}

/// Declares one fault class as a campaign scenario.
fn scenario(case: &Case, smoke: bool) -> ScenarioSpec {
    let config = PlatformConfig::builder()
        .quiet()
        .cpu_enabled(case.needs_cpu)
        .spi_probe_period(1)
        .jtag_probe_period(10)
        .fault_one_shot(case.kind, T_INJECT, case.duration_s)
        .recorder(RecorderConfig::fault_triggers(RECORDER_DEPTH))
        .build()
        .expect("valid fault-campaign config");
    let mut spec = ScenarioSpec::new(case.kind.label(), config);
    if case.needs_cpu {
        // Arm the watchdog through its register interface: 20 000 machine
        // cycles ≈ 12 ms at the divided CPU clock.
        spec = spec.with_step(Step::ArmWatchdog {
            timeout_cycles: 20_000,
        });
    }
    spec.with_step(Step::WaitReady { timeout_s: 2.0 })
        .with_step(Step::WaitSupervisorNormal { timeout_s: 0.1 })
        .with_step(Step::FaultResponse {
            t_inject_s: T_INJECT,
            t_clear_s: T_INJECT + case.duration_s,
            detect_budget_s: case.detect_budget_s,
            recover_budget_s: case.recover_budget_s,
            measure_recovery: !smoke,
        })
}

fn main() {
    run_to_exit("fault_campaign", run);
}

#[allow(clippy::too_many_lines)]
fn run() -> Result<i32, Box<dyn std::error::Error>> {
    let args = Args::parse(
        "fault_campaign",
        &[
            Flag::Threads,
            Flag::Smoke,
            Flag::Chaos,
            Flag::ChaosSeed,
            Flag::Deadline,
            Flag::Journal,
            Flag::CheckCoverage,
        ],
    );
    let smoke = args.smoke;
    let chaos = args.chaos;
    let threads = args.threads;
    let scenarios: Vec<ScenarioSpec> = catalog().iter().map(|c| scenario(c, smoke)).collect();
    println!(
        "fault_campaign: sweeping {} fault classes on {threads} worker thread(s){}",
        scenarios.len(),
        if smoke {
            " (smoke: detection only)"
        } else {
            ""
        }
    );

    let mut options = CampaignOptions::builder()
        .threads(threads)
        .tracing(true)
        .observer(Arc::new(ProgressLines));
    if chaos {
        let seed = args.chaos_seed.unwrap_or(CHAOS_SEED);
        options = options.chaos(ChaosPlan::new(seed).with_stall_cap_s(CHAOS_STALL_CAP_S));
        println!("  chaos: seeded worker panics + stalls (seed {seed:#x}); healthy rows stay byte-identical");
    }
    if let Some(deadline) = args.deadline_s {
        options = options.deadline_s(deadline);
        println!("  watchdog: per-scenario deadline {deadline} s");
    }
    let runner = CampaignRunner::with_options(options.build()?);
    let journal_path = args.journal.clone();
    let report = match &journal_path {
        Some(path) => {
            // `resume` starts fresh when the journal does not exist yet,
            // so the same command line works before and after a crash.
            let report = runner.resume(scenarios, path)?;
            if report.resumed > 0 {
                println!(
                    "  journal: resumed {} completed scenario(s) from {path}",
                    report.resumed
                );
            } else {
                println!("  journal: recording to {path}");
            }
            report
        }
        None => runner.run(scenarios),
    };
    for o in &report.outcomes {
        print!("  {:<20}", o.name);
        if o.failed() {
            let history: Vec<&str> = o.attempt_errors.iter().map(ScenarioError::label).collect();
            println!(
                "POISONED after {} attempt(s): {history:?}",
                o.attempt_errors.len()
            );
            continue;
        }
        if o.retries() > 0 {
            print!(
                "[{} retr{}] ",
                o.retries(),
                if o.retries() == 1 { "y" } else { "ies" }
            );
        }
        if o.metric("detected") == Some(1.0) {
            print!(
                "detected in {:>6.1} ms",
                o.metric("detection_latency_s").unwrap_or(0.0) * 1.0e3
            );
        } else {
            print!("NOT DETECTED          ");
        }
        if o.metric("recovered") == Some(1.0) {
            print!(
                ", recovered in {:.2} s, residual {:.2} °/s",
                o.metric("recovery_time_s").unwrap_or(0.0),
                o.metric("residual_rate_dps").unwrap_or(0.0)
            );
        } else if !smoke && o.metric("detected") == Some(1.0) {
            print!(
                ", no recovery (final state code: {})",
                o.metric("final_state_code").unwrap_or(-1.0)
            );
        }
        println!();
    }

    // Long-format CSV and merged metrics, one artifact per campaign —
    // both bit-identical for any --threads value.
    let csv_path = experiments_dir()?.join("fault_campaign.csv");
    std::fs::write(&csv_path, report.to_csv())?;
    println!("  csv -> {}", csv_path.display());
    write_metrics("fault_campaign", &report.to_telemetry())?;

    // Observability artifacts: Chrome trace, flight-recorder captures, and
    // the fault-class × supervisor-transition coverage matrix.
    if let Some(trace) = &report.trace {
        let trace_path = experiments_dir()?.join("fault_campaign.trace.json");
        std::fs::write(&trace_path, trace.to_chrome_json())?;
        println!(
            "  trace -> {} ({} spans, load in Perfetto / chrome://tracing)",
            trace_path.display(),
            trace.spans.len()
        );
    }
    let mut captures = 0usize;
    for o in &report.outcomes {
        if let Some(capture) = &o.capture {
            let path = experiments_dir()?.join(format!("fault_campaign.capture.{}.json", o.name));
            std::fs::write(&path, capture.to_json())?;
            captures += 1;
        }
    }
    println!("  flight recorder: {captures} capture bundle(s) -> target/experiments/");

    let coverage = report.coverage();
    let md_path = experiments_dir()?.join("fault_campaign.coverage.md");
    let csv_cov_path = experiments_dir()?.join("fault_campaign.coverage.csv");
    std::fs::write(&md_path, coverage.to_markdown())?;
    std::fs::write(&csv_cov_path, coverage.to_csv())?;
    println!(
        "  coverage: {}/{} fault classes exercised -> {}",
        coverage.exercised_classes().len(),
        coverage.classes().len(),
        md_path.display()
    );

    if chaos || report.retries_total() > 0 || report.poisoned() > 0 {
        println!(
            "  supervision: {} retr{}, {} timeout(s), {} panic(s), {} poisoned",
            report.retries_total(),
            if report.retries_total() == 1 {
                "y"
            } else {
                "ies"
            },
            report.timeouts_total(),
            report.panics_total(),
            report.poisoned(),
        );
    }
    println!(
        "  wall clock: {:.2} s on {} thread(s)",
        report.wall_s, report.threads
    );

    let mut scenario_failures = false;

    // CI guard: a previously-exercised coverage cell going dark is a
    // regression even when every fault is still detected.
    if let Some(baseline) = args.check_coverage.as_deref() {
        if !check_coverage("fault_campaign", &coverage, baseline)? {
            scenario_failures = true;
        }
    }

    let poisoned = report.failed_scenarios();
    if !poisoned.is_empty() {
        eprintln!("fault_campaign: POISONED scenarios (retries exhausted): {poisoned:?}");
        scenario_failures = true;
    }
    let undetected: Vec<&str> = report
        .outcomes
        .iter()
        .filter(|o| !o.failed() && o.metric("detected") != Some(1.0))
        .map(|o| o.name.as_str())
        .collect();
    if !undetected.is_empty() {
        eprintln!("fault_campaign: UNDETECTED fault classes: {undetected:?}");
        scenario_failures = true;
    }
    if scenario_failures {
        return Ok(EXIT_SCENARIO_FAILURE);
    }
    let recovered = report
        .outcomes
        .iter()
        .filter(|o| o.metric("recovered") == Some(1.0))
        .count();
    println!(
        "fault_campaign: all {} classes detected{}",
        report.outcomes.len(),
        if smoke {
            String::new()
        } else {
            format!(", {recovered} recovered")
        }
    );
    Ok(0)
}
