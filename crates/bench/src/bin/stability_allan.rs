//! Extension experiment: Allan-deviation stability analysis.
//!
//! The paper's Table 1 quotes only rate noise density; the modern way to
//! report a gyro's stability is the Allan deviation curve with its angle
//! random walk (−1/2 slope) and bias instability (flat bottom). This
//! extension records a long zero-rate run on the full platform and extracts
//! both figures — the evaluation a 2024 reviewer would have asked the 2005
//! authors for.
//!
//! ```sh
//! cargo run --release -p ascp-bench --bin stability_allan [-- --threads N]
//! ```
//!
//! The capture is a one-entry scenario campaign; the Allan analysis reads
//! the zero-rate series back out of the [`CampaignReport`].
//!
//! # Checkpoint & resume
//!
//! The lock transient is pure overhead when iterating on the analysis, so
//! the bring-up can be checkpointed and skipped on later runs:
//!
//! ```sh
//! # First run: lock, save the settled platform, then capture.
//! cargo run --release -p ascp-bench --bin stability_allan -- --checkpoint settled.ckpt
//! # Later runs: restore the settled platform, capture immediately.
//! cargo run --release -p ascp-bench --bin stability_allan -- --resume settled.ckpt
//! ```
//!
//! Restores are bit-exact (see [`ascp_core::checkpoint`]): a resumed run
//! produces byte-identical samples to the run that saved the checkpoint
//! continuing past it.

use ascp_bench::harness::{run_to_exit, Args, ProgressLines, EXIT_SCENARIO_FAILURE};
use ascp_bench::{experiments_dir, write_metrics};
use ascp_core::characterize::RateSensor;
use ascp_core::checkpoint;
use ascp_core::prelude::*;
use ascp_sim::allan::{allan_deviation, angle_random_walk, bias_instability};
use std::io::Write;
use std::sync::Arc;

fn io_err(e: checkpoint::CheckpointError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

fn main() {
    // Exit taxonomy: 0 ok, 1 scenario-level failures (poisoned capture
    // scenario, missing series), 2 infrastructure errors (I/O,
    // checkpoint decode).
    run_to_exit("stability_allan", run);
}

fn run() -> Result<i32, Box<dyn std::error::Error>> {
    let args = Args::parse("stability_allan");
    let threads = args.threads;
    let save_path = args.checkpoint.clone();
    let resume_path = args.resume.clone();
    let config = PlatformConfig::builder()
        .cpu_enabled(false)
        .build()
        .expect("valid stability config");

    let (rate, fs, report) = if save_path.is_some() || resume_path.is_some() {
        // Platform-level flow: bring up (or restore) a settled platform,
        // optionally checkpoint it, then capture directly.
        let mut p = match &resume_path {
            Some(path) => {
                println!("stability: resuming settled platform from {path} ...");
                checkpoint::restore_from_file(config.clone(), path).map_err(io_err)?
            }
            None => {
                println!("stability: locking (bring-up will be checkpointed) ...");
                let mut p = Platform::new(config.clone());
                if p.wait_for_ready(2.0).is_none() {
                    eprintln!("stability_allan: platform failed to lock within 2 s");
                    return Ok(EXIT_SCENARIO_FAILURE);
                }
                p
            }
        };
        if let Some(path) = &save_path {
            checkpoint::save_to_file(&p, path).map_err(io_err)?;
            println!("  settled checkpoint -> {path}");
        }
        println!("stability: recording 40 s of zero-rate output ...");
        let fs = p.output_sample_rate();
        let n = (40.0 * fs).round() as usize;
        let volts = p.sample_output(0.5, n);
        // Nominal transfer: 5 mV/°/s around the 2.5 V null (the same
        // conversion Step::CaptureZeroRate applies).
        let rate: Vec<f64> = volts.iter().map(|v| (v - 2.5) / 0.005).collect();
        (rate, fs, None)
    } else {
        let spec = ScenarioSpec::new("stability", config)
            .with_step(Step::WaitReady { timeout_s: 2.0 })
            .with_step(Step::CaptureZeroRate {
                label: "zero_rate".into(),
                seconds: 40.0,
                settle_s: 0.5,
            });
        println!("stability: locking, then recording 40 s of zero-rate output ...");
        let options = CampaignOptions::builder()
            .threads(threads)
            .observer(Arc::new(ProgressLines));
        let report = CampaignRunner::with_options(options.build()?).run(vec![spec]);
        if report.poisoned() > 0 {
            eprintln!(
                "stability_allan: capture scenario poisoned: {:?}",
                report.failed_scenarios()
            );
            return Ok(EXIT_SCENARIO_FAILURE);
        }
        let (Some(rate), Some(fs)) = (
            report.series("stability", "zero_rate").map(<[f64]>::to_vec),
            report.metric("stability", "zero_rate_fs_hz"),
        ) else {
            eprintln!("stability_allan: capture scenario produced no zero-rate series");
            return Ok(EXIT_SCENARIO_FAILURE);
        };
        (rate, fs, Some(report))
    };

    let curve = allan_deviation(&rate, fs, 5);
    let path = experiments_dir()?.join("stability_allan.csv");
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "tau_s,sigma_dps")?;
    for pt in &curve {
        writeln!(f, "{},{}", pt.tau, pt.sigma)?;
    }

    let arw = angle_random_walk(&curve);
    let bi = bias_instability(&curve);
    println!("  curve points       : {}", curve.len());
    println!(
        "  angle random walk  : {} °/s/√Hz-class (σ at τ=1 s)",
        arw.map_or("n/a".into(), |v| format!("{v:.4}"))
    );
    println!(
        "  bias instability   : {} °/s",
        bi.map_or("n/a".into(), |v| format!("{v:.4}"))
    );
    println!("  curve -> {}", path.display());
    if let Some(report) = report {
        write_metrics("stability_allan", &report.to_telemetry())?;
    }
    println!("shape check: −1/2 slope at short τ (white rate noise consistent with");
    println!("Table 1's density row), flattening toward the bias floor at long τ.");
    Ok(0)
}
