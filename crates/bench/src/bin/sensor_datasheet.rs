//! Cross-sensor datasheet campaign: the paper's platform-based-design
//! claim, demonstrated. One campaign characterizes **four sensor
//! families** through the same conditioning IP portfolio — the case-study
//! vibrating-ring gyro (full platform), the automotive MAP and IAT
//! pressure/temperature dividers, and a capacitive crash accelerometer —
//! and renders the results as a Table-1-style cross-sensor datasheet, one
//! column per family.
//!
//! ```sh
//! cargo run --release -p ascp-bench --bin sensor_datasheet            # full
//! cargo run --release -p ascp-bench --bin sensor_datasheet -- --smoke # CI
//! ```
//!
//! Per sensor the campaign measures the static transfer (sensitivity,
//! linearity, zero offset), the output noise density, and the response to
//! the wire-harness fault classes the dbus-adc-style supervisor checks
//! introduce (`wire_not_connected`, `wire_short_to_ground`,
//! `wire_reverse_polarity`). Gyro scenarios run on the full platform and
//! the other sensors as generic [`SensorChannel`]s
//! ([`ScenarioSpec::channel`]); all of them are one scenario list on one
//! [`CampaignRunner::run`], so supervision, progress lines, the CSV,
//! telemetry and coverage-matrix artifacts are shared.
//!
//! Artifacts: `DATASHEET.md` at the repo root (full run; smoke writes to
//! `target/experiments/`), the long-format campaign CSV, merged metrics
//! JSON, and the fault-class × transition coverage matrix. The process
//! exits non-zero when a scheduled wire fault goes undetected, a sensor
//! family fails to characterize, or (`--check-coverage`) a baseline
//! coverage cell goes dark.

use ascp_bench::harness::{
    check_coverage, repo_root_path, run_to_exit, Args, Flag, ProgressLines, EXIT_SCENARIO_FAILURE,
};
use ascp_bench::{experiments_dir, write_metrics};
use ascp_core::campaign::derive_seed;
use ascp_core::datasheet::{FaultCoverage, SensorColumn};
use ascp_core::prelude::*;
use ascp_mems::accel::CapacitiveAccelFrontEnd;
use ascp_mems::pressure::{IatThermistorFrontEnd, MapSensorFrontEnd};
use std::sync::Arc;

/// Channel wire-fault injection time / duration, seconds. The channel
/// supervisor window is 1 ms with a 3-window persistence filter, so 50 ms
/// of fault leaves ample margin for detection *and* latch.
const T_INJECT_S: f64 = 0.05;
const T_FAULT_S: f64 = 0.05;

/// Gyro fault timing (full-platform time scale, matches `fault_campaign`).
const GYRO_T_INJECT_S: f64 = 0.7;
const GYRO_T_FAULT_S: f64 = 0.3;

/// The wire-harness fault classes, in datasheet row order.
const WIRE_FAULTS: [FaultKind; 3] = [
    FaultKind::WireNotConnected,
    FaultKind::WireShortToGround,
    FaultKind::WireReversePolarity,
];

/// One generic-channel sensor family in the sweep.
struct Channel {
    name: &'static str,
    build: fn(u64) -> SensorChannel,
    /// Static-transfer stimulus points, engineering units.
    points: Vec<f64>,
    /// Noise-density hold point, engineering units.
    noise_at: f64,
    /// Wire-fault classes this front-end's plausibility bands are
    /// designed to detect (the datasheet shows the per-sensor contrast).
    faults: &'static [FaultKind],
    seed: u64,
}

fn channels(smoke: bool) -> Vec<Channel> {
    let thin = |points: Vec<f64>| -> Vec<f64> {
        if smoke {
            // Keep the end points and the middle: enough for a slope fit.
            let mid = points.len() / 2;
            vec![points[0], points[mid], points[points.len() - 1]]
        } else {
            points
        }
    };
    vec![
        Channel {
            name: "map",
            build: |seed| {
                let mut cfg = ChannelConfig::new("map", seed);
                cfg.adc_vref = 5.0;
                SensorChannel::new(cfg, Box::new(MapSensorFrontEnd::automotive(seed)))
            },
            points: thin(vec![30.0, 75.0, 120.0, 165.0, 210.0, 255.0, 290.0]),
            noise_at: 101.325,
            faults: &WIRE_FAULTS,
            seed: 0x0DA7_0001,
        },
        Channel {
            name: "iat",
            build: |seed| {
                let mut cfg = ChannelConfig::new("iat", seed);
                cfg.adc_vref = 5.0;
                SensorChannel::new(cfg, Box::new(IatThermistorFrontEnd::automotive(seed)))
            },
            points: thin(vec![-20.0, 0.0, 20.0, 40.0, 60.0, 85.0, 110.0]),
            noise_at: 25.0,
            // The thermistor's valid span crosses the protection-diode
            // band, so reverse polarity is undetectable by design.
            faults: &WIRE_FAULTS[..2],
            seed: 0x0DA7_0002,
        },
        Channel {
            name: "accel",
            build: |seed| {
                SensorChannel::new(
                    ChannelConfig::new("accel", seed),
                    Box::new(CapacitiveAccelFrontEnd::crash_50g(seed)),
                )
            },
            points: thin(vec![-40.0, -25.0, -10.0, 0.0, 10.0, 25.0, 40.0]),
            noise_at: 0.0,
            faults: &WIRE_FAULTS,
            seed: 0x0DA7_0003,
        },
    ]
}

/// Channel scenarios for one family: transfer, noise, one scenario per
/// designed-detectable wire fault.
fn channel_scenarios(dev: &Channel, smoke: bool) -> Vec<ScenarioSpec> {
    let spec =
        |what: &str| ScenarioSpec::channel(format!("{}/{what}", dev.name), dev.seed, dev.build);
    let mut out = vec![
        spec("transfer").with_step(Step::MeasureStaticTransfer {
            rate_points: dev.points.clone(),
            samples_per_point: if smoke { 16 } else { 64 },
        }),
        spec("noise")
            .with_step(Step::SetStimulus {
                value: dev.noise_at,
            })
            .with_step(Step::MeasureNoiseDensity {
                samples: if smoke { 1 << 10 } else { 1 << 13 },
            }),
    ];
    for &kind in dev.faults {
        let mut plan = FaultPlan::new();
        plan.one_shot(kind, T_INJECT_S, T_FAULT_S);
        out.push(
            spec(&format!("fault/{}", kind.label()))
                .with_faults(plan)
                .with_step(Step::FaultResponse {
                    t_inject_s: T_INJECT_S,
                    t_clear_s: T_INJECT_S + T_FAULT_S,
                    detect_budget_s: T_FAULT_S,
                    recover_budget_s: 0.1,
                    measure_recovery: true,
                }),
        );
    }
    out
}

/// Gyro scenarios on the full-platform campaign runner: the datasheet
/// measurements plus the three new wire-fault classes (mapped onto the
/// pickoff harness by the platform fault catalog).
fn gyro_scenarios(smoke: bool) -> Vec<ScenarioSpec> {
    let quiet = || {
        PlatformConfig::builder()
            .quiet()
            .cpu_enabled(false)
            .build()
            .expect("valid gyro config")
    };
    let mut out = vec![ScenarioSpec::new("gyro/characterize", quiet())
        .with_step(Step::WaitReady { timeout_s: 2.0 })
        .with_step(Step::MeasureStaticTransfer {
            rate_points: if smoke {
                vec![-300.0, 0.0, 300.0]
            } else {
                vec![-300.0, -200.0, -100.0, 0.0, 100.0, 200.0, 300.0]
            },
            samples_per_point: if smoke { 100 } else { 400 },
        })
        .with_step(Step::MeasureNoiseDensity {
            samples: if smoke { 1 << 12 } else { 1 << 14 },
        })];
    for kind in WIRE_FAULTS {
        let config = PlatformConfig::builder()
            .quiet()
            .cpu_enabled(false)
            .fault_one_shot(kind, GYRO_T_INJECT_S, GYRO_T_FAULT_S)
            .build()
            .expect("valid gyro fault config");
        out.push(
            ScenarioSpec::new(format!("gyro/fault/{}", kind.label()), config)
                .with_step(Step::WaitReady { timeout_s: 2.0 })
                .with_step(Step::WaitSupervisorNormal { timeout_s: 0.1 })
                .with_step(Step::FaultResponse {
                    t_inject_s: GYRO_T_INJECT_S,
                    t_clear_s: GYRO_T_INJECT_S + GYRO_T_FAULT_S,
                    detect_budget_s: 0.5,
                    recover_budget_s: 4.0,
                    measure_recovery: !smoke,
                }),
        );
    }
    out
}

/// Finds `device/suffix` in the merged outcomes.
fn outcome<'a>(report: &'a CampaignReport, name: &str) -> Option<&'a ScenarioOutcome> {
    report.outcomes.iter().find(|o| o.name == name)
}

/// Detection latency of a fault scenario in ms (a channel records ms, the
/// gyro seconds); -1 when undetected.
fn latency_ms(o: &ScenarioOutcome) -> f64 {
    o.metric("latency_ms")
        .or_else(|| o.metric("detection_latency_s").map(|s| s * 1.0e3))
        .unwrap_or(-1.0)
}

/// A family's wire-fault rows, one per scheduled fault class.
fn fault_coverage(
    report: &CampaignReport,
    family: &str,
    kinds: &[FaultKind],
) -> Vec<FaultCoverage> {
    let row = |k: &FaultKind| {
        let o = outcome(report, &format!("{family}/fault/{}", k.label()))?;
        Some(FaultCoverage {
            class: k.label().to_owned(),
            detected: o.metric("detected") == Some(1.0),
            latency_ms: latency_ms(o),
        })
    };
    kinds.iter().filter_map(row).collect()
}

/// Assembles one channel family's column from the report.
fn channel_column(report: &CampaignReport, dev: &Channel) -> SensorColumn {
    // One throwaway channel instance answers the static questions
    // (unit, range) straight from the front-end contract.
    let ch = (dev.build)(dev.seed);
    let (lo, hi) = ch.frontend().range();
    let unit = ch.frontend().unit();
    let transfer = outcome(report, &format!("{}/transfer", dev.name));
    let noise = outcome(report, &format!("{}/noise", dev.name));
    SensorColumn {
        device: dev.name.to_owned(),
        unit: unit.to_owned(),
        full_scale: format!("{lo}..{hi} {unit}"),
        sensitivity_v_per_eu: transfer.and_then(|o| o.metric("sensitivity_v_per_eu")),
        transfer_slope: transfer.and_then(|o| o.metric("transfer_slope")),
        linearity_pct_fs: transfer.and_then(|o| o.metric("linearity_pct_fs")),
        noise_density_eu_rthz: noise.and_then(|o| o.metric("noise_density_eu_rthz")),
        offset_eu: transfer.and_then(|o| o.metric("offset_eu")),
        fault_coverage: fault_coverage(report, dev.name, dev.faults),
    }
}

/// Assembles the gyro column (platform metric names differ: °/s scale,
/// volts-referenced sensitivity and null).
fn gyro_column(report: &CampaignReport) -> SensorColumn {
    let c = outcome(report, "gyro/characterize");
    let sensitivity = c.and_then(|o| o.metric("sensitivity_v_per_dps"));
    SensorColumn {
        device: "gyro".to_owned(),
        unit: "°/s".to_owned(),
        full_scale: "-300..300 °/s".to_owned(),
        sensitivity_v_per_eu: sensitivity,
        // The platform output is volts around a 2.5 V null; the channel
        // slope metric has no analogue here.
        transfer_slope: None,
        linearity_pct_fs: c.and_then(|o| o.metric("nonlinearity_pct_fs")),
        noise_density_eu_rthz: c.and_then(|o| o.metric("noise_density_dps_rthz")),
        offset_eu: c.and_then(|o| {
            let null = o.metric("null_v")?;
            Some((null - 2.5) / sensitivity?)
        }),
        fault_coverage: fault_coverage(report, "gyro", &WIRE_FAULTS),
    }
}

fn main() {
    run_to_exit("sensor_datasheet", run);
}

#[allow(clippy::too_many_lines)]
fn run() -> Result<i32, Box<dyn std::error::Error>> {
    let args = Args::parse(
        "sensor_datasheet",
        &[Flag::Smoke, Flag::Threads, Flag::CheckCoverage],
    );
    let smoke = args.smoke;
    let threads = args.threads;
    let chans = channels(smoke);
    println!(
        "sensor_datasheet: characterizing {} sensor families on {threads} worker thread(s){}",
        chans.len() + 1,
        if smoke { " (smoke)" } else { "" }
    );

    // One campaign: the gyro, then the channel families. A channel spec's
    // seed derives from its family seed and its position in the channel
    // list rather than its campaign index, so adding a gyro scenario never
    // moves a channel's numbers.
    let mut specs = gyro_scenarios(smoke);
    let mut k = 0;
    for c in &chans {
        for spec in channel_scenarios(c, smoke) {
            specs.push(spec.with_seed(derive_seed(c.seed, k)));
            k += 1;
        }
    }
    let runner = CampaignRunner::with_options(
        CampaignOptions::builder()
            .threads(threads)
            .observer(Arc::new(ProgressLines))
            .build()?,
    );
    let report = runner.run(specs);

    let names = report.outcomes.iter().map(|o| o.name.len());
    let width = names.max().unwrap_or(0) + 1;
    for o in &report.outcomes {
        print!("  {:<width$}", o.name);
        if o.failed() {
            println!("POISONED");
            continue;
        }
        match o.metric("detected") {
            Some(1.0) => println!("detected in {:>6.1} ms", latency_ms(o)),
            Some(_) => println!("NOT DETECTED"),
            None => println!("done"),
        }
    }

    // The cross-sensor datasheet: gyro column first, then the sweep order.
    let mut sheet = CrossSensorReport::default();
    sheet.push(gyro_column(&report));
    for dev in &chans {
        sheet.push(channel_column(&report, dev));
    }
    let md = sheet.to_markdown();
    let md_path = if smoke {
        experiments_dir()?.join("DATASHEET.md")
    } else {
        repo_root_path("DATASHEET.md")
    };
    std::fs::write(&md_path, &md)?;
    println!("  datasheet -> {}", md_path.display());
    let sheet_csv = experiments_dir()?.join("sensor_datasheet.sheet.csv");
    std::fs::write(&sheet_csv, sheet.to_csv())?;

    // Shared campaign artifacts.
    let csv_path = experiments_dir()?.join("sensor_datasheet.csv");
    std::fs::write(&csv_path, report.to_csv())?;
    println!("  csv -> {}", csv_path.display());
    write_metrics("sensor_datasheet", &report.to_telemetry())?;
    let coverage = report.coverage();
    std::fs::write(
        experiments_dir()?.join("sensor_datasheet.coverage.md"),
        coverage.to_markdown(),
    )?;
    let cov_csv = coverage.to_csv();
    std::fs::write(
        experiments_dir()?.join("sensor_datasheet.coverage.csv"),
        &cov_csv,
    )?;
    println!(
        "  coverage: {}/{} fault classes exercised -> target/experiments/",
        coverage.exercised_classes().len(),
        coverage.classes().len()
    );

    let mut failures = false;

    // Gate 1: every sensor family produced a characterization column.
    for col in &sheet.columns {
        if col.sensitivity_v_per_eu.is_none() || col.noise_density_eu_rthz.is_none() {
            eprintln!(
                "sensor_datasheet: sensor `{}` failed to characterize",
                col.device
            );
            failures = true;
        }
    }

    // Gate 2: every scheduled wire fault was detected.
    for col in &sheet.columns {
        for fc in &col.fault_coverage {
            if !fc.detected {
                eprintln!(
                    "sensor_datasheet: UNDETECTED wire fault {} on `{}`",
                    fc.class, col.device
                );
                failures = true;
            }
        }
    }

    // Gate 3: the three wire-fault classes all appear in coverage.
    for class in WIRE_FAULTS.map(FaultKind::label) {
        if !sheet.fault_classes().iter().any(|c| c == class) {
            eprintln!("sensor_datasheet: wire-fault class `{class}` never exercised");
            failures = true;
        }
    }

    // Gate 4 (CI): baseline coverage cells must stay lit.
    if let Some(baseline) = args.check_coverage.as_deref() {
        if !check_coverage("sensor_datasheet", &coverage, baseline)? {
            failures = true;
        }
    }

    let poisoned = report.failed_scenarios();
    if !poisoned.is_empty() {
        eprintln!("sensor_datasheet: POISONED scenarios: {poisoned:?}");
        failures = true;
    }
    if failures {
        return Ok(EXIT_SCENARIO_FAILURE);
    }
    println!(
        "sensor_datasheet: {} sensor families, {} scenarios, wall {:.2} s",
        sheet.columns.len(),
        report.outcomes.len(),
        report.wall_s
    );
    Ok(0)
}
