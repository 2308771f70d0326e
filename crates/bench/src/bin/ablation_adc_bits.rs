//! Ablation: ADC resolution sweep (8–16 bits).
//!
//! "Programming main components parameters (such as ... number of ADC
//! bits ...) allows a more accurate adaptation of the front end circuitry"
//! (§3). This sweep shows where the platform's quantization knee sits: the
//! rate noise floor and nonlinearity versus converter resolution.
//!
//! ```sh
//! cargo run --release -p ascp-bench --bin ablation_adc_bits [-- --threads N]
//! ```
//!
//! Each resolution is one scenario on the campaign runner, so the sweep
//! shards across worker threads.

use ascp_bench::harness::{Args, Flag};
use ascp_bench::write_metrics;
use ascp_core::prelude::*;

fn main() -> std::io::Result<()> {
    let threads = Args::parse("ablation_adc_bits", &[Flag::Threads]).threads;
    println!("ablation: ADC resolution sweep ({threads} worker thread(s))");
    println!(
        "  {:>5} {:>14} {:>14} {:>12}",
        "bits", "noise °/s/√Hz", "nonlin % FS", "sens mV/°/s"
    );

    let scenarios: Vec<ScenarioSpec> = [8u32, 10, 12, 14, 16]
        .iter()
        .map(|&bits| {
            let config = PlatformConfig::builder()
                .cpu_enabled(false)
                .adc_bits(bits)
                .build()
                .expect("valid sweep config");
            ScenarioSpec::new(format!("bits_{bits}"), config)
                .with_step(Step::WaitReady { timeout_s: 2.0 })
                .with_step(Step::MeasureStaticTransfer {
                    rate_points: vec![-300.0, -150.0, 0.0, 150.0, 300.0],
                    samples_per_point: 400,
                })
                .with_step(Step::MeasureNoiseDensity { samples: 1 << 14 })
        })
        .collect();
    let report = CampaignRunner::with_options(
        CampaignOptions::builder()
            .threads(threads)
            .build()
            .expect("valid options"),
    )
    .run(scenarios);

    for o in &report.outcomes {
        let bits = o.name.trim_start_matches("bits_");
        if o.metric("locked") != Some(1.0) {
            println!("  {bits:>5} failed to lock");
            continue;
        }
        println!(
            "  {bits:>5} {:>14.4} {:>14.4} {:>12.4}",
            o.metric("noise_density_dps_rthz").unwrap_or(f64::NAN),
            o.metric("nonlinearity_pct_fs").unwrap_or(f64::NAN),
            o.metric("sensitivity_v_per_dps").unwrap_or(f64::NAN) * 1.0e3
        );
    }
    write_metrics("ablation_adc_bits", &report.to_telemetry())?;
    println!("expected shape: flat across 8..16 bits — the ~15 kHz carrier dithers");
    println!("converter quantization through the demodulator, and the mechanical");
    println!("floor dominates. The knob costs nothing on this sensor, which is why");
    println!("the paper can leave 'number of ADC bits' programmable per application.");
    Ok(())
}
