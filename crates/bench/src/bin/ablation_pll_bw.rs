//! Ablation: PLL loop-gain sweep — lock time vs residual phase jitter.
//!
//! The turn-on-time row of Table 1 is dominated by PLL acquisition; a
//! faster loop locks sooner but passes more noise into the drive phase.
//! This is the classic trade the MATLAB design-space exploration (§2)
//! settles before the RTL is frozen.
//!
//! ```sh
//! cargo run --release -p ascp-bench --bin ablation_pll_bw [-- --threads N]
//! ```
//!
//! The float-model gain sweep fans out on the raw
//! [`ascp_sim::campaign::parallel_map`] pool (it sweeps `SystemModel`
//! configurations, not platforms); the platform spot check is a one-entry
//! scenario campaign.

use ascp_bench::harness::{Args, Flag};
use ascp_bench::write_metrics;
use ascp_core::prelude::*;
use ascp_core::system::{SystemModel, SystemModelConfig};
use ascp_sim::campaign::parallel_map;
use ascp_sim::stats;

fn main() -> std::io::Result<()> {
    let threads = Args::parse("ablation_pll_bw", &[Flag::Threads]).threads;
    println!(
        "ablation: PLL loop gain sweep (float model for speed, platform spot check, {threads} worker thread(s))"
    );
    println!(
        "  {:>8} {:>8} {:>12} {:>18}",
        "kp", "ki", "lock (ms)", "phase jitter (rms)"
    );
    let scales = vec![0.25, 0.5, 1.0, 2.0, 4.0];
    let rows = parallel_map(scales, threads, |_idx, scale| {
        let mut cfg = SystemModelConfig::default();
        cfg.pll_kp *= scale;
        cfg.pll_ki *= scale;
        cfg.gyro.noise_density = 0.05;
        let (kp, ki) = (cfg.pll_kp, cfg.pll_ki);
        let mut m = SystemModel::new(cfg);
        let lock = m.measure_lock_time(3.0, 50);
        // Residual phase jitter once locked.
        let mut phases = Vec::new();
        for _ in 0..200_000 {
            if let Some(s) = m.step() {
                phases.push(s.phase_error);
            }
        }
        (kp, ki, lock, stats::std_dev(&phases))
    });
    for (kp, ki, lock, jitter) in rows {
        match lock {
            Some(t) => println!("  {kp:>8.0} {ki:>8.0} {:>12.1} {jitter:>18.6}", t * 1.0e3),
            None => println!("  {kp:>8.0} {ki:>8.0} {:>12} {jitter:>18.6}", "no lock"),
        }
    }

    // Spot check: the shipped gains on the full platform.
    let config = PlatformConfig::builder()
        .cpu_enabled(false)
        .build()
        .expect("valid spot-check config");
    let spot =
        ScenarioSpec::new("shipped_gains", config).with_step(Step::WaitReady { timeout_s: 3.0 });
    let report = CampaignRunner::with_options(
        CampaignOptions::builder()
            .threads(threads)
            .build()
            .expect("valid options"),
    )
    .run(vec![spot]);
    let turn_on = report.metric("shipped_gains", "turn_on_s");
    println!(
        "  platform (shipped gains): turn-on {} ms",
        turn_on.map_or("timeout".into(), |v| format!("{:.0}", v * 1.0e3))
    );
    write_metrics("ablation_pll_bw", &report.to_telemetry())?;
    println!("expected shape: lock time falls ~1/gain; jitter grows with gain —");
    println!("the paper's 500 ms sits at the low-jitter end of this trade.");
    Ok(())
}
