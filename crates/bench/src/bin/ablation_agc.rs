//! Ablation: AGC on vs off — scale-factor stability over temperature.
//!
//! The Coriolis signal is proportional to drive velocity, so without
//! amplitude regulation the scale factor inherits the resonator's Q(T)
//! drift. This ablation disables the AGC (fixed drive at the nominal
//! command) and compares sensitivity drift over temperature against the
//! regulated platform.
//!
//! ```sh
//! cargo run --release -p ascp-bench --bin ablation_agc [-- --threads N]
//! ```
//!
//! The two arms are campaign scenarios, so they run concurrently when a
//! second worker thread is available.

use ascp_bench::harness::{Args, Flag};
use ascp_bench::write_metrics;
use ascp_core::prelude::*;
use ascp_sim::stats;

const TEMPS: [f64; 3] = [-40.0, 25.0, 85.0];

/// Sensitivity-over-temperature protocol shared by both arms.
fn temp_sweep_steps() -> Vec<Step> {
    TEMPS
        .iter()
        .flat_map(|&t| {
            [
                Step::SetTemperature { celsius: t },
                Step::Run { seconds: 0.6 },
                Step::MeasureSensitivity {
                    label: format!("sens_{t}"),
                    rate_dps: 200.0,
                    settle_s: 0.4,
                    samples: 200,
                },
            ]
        })
        .collect()
}

fn spread(vals: &[f64]) -> f64 {
    let max = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = vals.iter().copied().fold(f64::INFINITY, f64::min);
    (max - min) / stats::mean(vals).abs() * 100.0
}

fn main() -> std::io::Result<()> {
    let threads = Args::parse("ablation_agc", &[Flag::Threads]).threads;
    println!(
        "ablation: AGC on vs off (scale factor across -40/25/85 degC, {threads} worker thread(s))"
    );
    // Exaggerate the Q temperature coefficient so the effect is clearly
    // visible above measurement noise in a short run.
    let config = || {
        PlatformConfig::builder()
            .cpu_enabled(false)
            .noise_density(0.01)
            .tc_q(-3.0e-3)
            .build()
            .expect("valid ablation config")
    };
    let scenarios = vec![
        // Shipped platform: the AGC regulates the drive over temperature.
        ScenarioSpec::new("agc_on", config())
            .with_step(Step::WaitReady { timeout_s: 2.0 })
            .with_steps(temp_sweep_steps()),
        // AGC effectively disabled: clamp the drive to the settled value.
        ScenarioSpec::new("agc_off", config())
            .with_step(Step::WaitReady { timeout_s: 2.0 })
            .with_step(Step::FreezeAgcDrive { resettle_s: 1.5 })
            .with_steps(temp_sweep_steps()),
    ];
    let report = CampaignRunner::with_options(
        CampaignOptions::builder()
            .threads(threads)
            .build()
            .expect("valid options"),
    )
    .run(scenarios);

    let arm = |name: &str| -> Vec<f64> {
        TEMPS
            .iter()
            .filter_map(|t| report.metric(name, &format!("sens_{t}")))
            .collect()
    };
    let on = arm("agc_on");
    let off = arm("agc_off");

    println!("  {:>8} {:>14} {:>14}", "temp", "AGC on", "AGC off");
    for (i, &t) in TEMPS.iter().enumerate() {
        println!("  {t:>8.1} {:>14.4} {:>14.4}", on[i], off[i]);
    }
    println!(
        "  scale-factor spread: AGC on {:.2} %, AGC off {:.2} %",
        spread(&on),
        spread(&off)
    );
    write_metrics("ablation_agc", &report.to_telemetry())?;
    println!("expected shape: the regulated loop holds the scale factor; the fixed");
    println!("drive inherits Q(T), exactly why the platform includes an AGC IP.");
    Ok(())
}
