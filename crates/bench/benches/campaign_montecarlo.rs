//! Monte-Carlo campaign benchmark: batched fleet vs scalar lane execution.
//!
//! A [`ScenarioSpec::monte_carlo`] population expands into N dispersed
//! lanes that share a step program, which makes the campaign the natural
//! customer of the structure-of-arrays [`PlatformFleet`] path: the runner
//! groups eligible lanes and steps them in lockstep instead of running N
//! independent platforms. This bench measures the end-to-end campaign
//! wall-clock win of that batching — the population as written vs the
//! same population pre-expanded with [`expand_monte_carlo`], whose lanes
//! run as plain scenarios on the same runner — and asserts the
//! byte-identity contract: batching must change wall clock and nothing
//! else.
//!
//! Both timed arms run on one worker: the fleet arm is a single 16-lane
//! unit, so a wider pool would speed up only the scalar arm and the ratio
//! would measure core count instead of batching.
//!
//! Flags: `--short` shrinks the protocol (gate/CI smoke; never rewrites
//! the committed baseline), `--threads N` sets the worker count of the
//! byte-identity check. Full runs merge this bench's entries into
//! `BENCH_platform_sim.json` at the repo root, preserving the other
//! benches' entries.

use ascp_bench::harness::{merge_into_baseline, short_mode, threads_from_args, BenchStats};
use ascp_core::campaign::{
    expand_monte_carlo, CampaignOptions, CampaignRunner, Dispersion, ScenarioSpec, Step,
};
use ascp_core::platform::PlatformConfig;

/// Fleet width exercised by the population; matches `FLEET_GROUP_MAX`.
const LANES: usize = 16;

/// A 16-lane Monte-Carlo population over the fleet-safe step vocabulary:
/// run, retarget, measure. Dispersion magnitudes sit at realistic
/// trim-spread levels so the lanes are genuinely distinct platforms.
fn population(run_s: f64, window_s: f64) -> Vec<ScenarioSpec> {
    let config = PlatformConfig::builder()
        .cpu_enabled(false)
        .seed(0x0c17)
        .build()
        .expect("valid campaign config");
    let dispersion = Dispersion::none()
        .with_omega_frac(0.02)
        .with_q_frac(0.05)
        .with_offset_dps(10.0)
        .with_gain_frac(0.03);
    vec![ScenarioSpec::new("mc_population", config)
        .with_step(Step::Run { seconds: run_s })
        .with_step(Step::SetRate { dps: 60.0 })
        .with_step(Step::MeasureMeanRate {
            label: "mean_dps".into(),
            window_s,
        })
        .monte_carlo(LANES, dispersion)]
}

/// Worker count the timed arms run on.
const TIMING_THREADS: usize = 1;

fn runner(threads: usize) -> CampaignRunner {
    CampaignRunner::with_options(
        CampaignOptions::builder()
            .threads(threads)
            .build()
            .expect("valid options"),
    )
}

/// Runs `specs` `reps` times and returns the fastest wall clock in
/// seconds (the minimum is the least scheduler-polluted sample).
fn best_wall(runner: &CampaignRunner, specs: &[ScenarioSpec], reps: usize) -> f64 {
    (0..reps)
        .map(|_| runner.run(specs.to_vec()).wall_s)
        .fold(f64::INFINITY, f64::min)
}

fn main() -> std::io::Result<()> {
    println!("== campaign_montecarlo ==");
    let threads = threads_from_args();
    let (run_s, window_s, reps) = if short_mode() {
        (0.02, 0.005, 2)
    } else {
        (0.1, 0.02, 3)
    };

    let batched = population(run_s, window_s);
    let scalar = expand_monte_carlo(batched.clone());

    // Byte-identity first, at the requested thread count: the fleet path
    // must be invisible in every campaign artifact, whatever the thread
    // count.
    let wide = runner(threads);
    let scalar_report = wide.run(scalar.clone());
    let fleet_report = wide.run(batched.clone());
    assert_eq!(
        scalar_report.to_csv(),
        fleet_report.to_csv(),
        "fleet campaign must be byte-identical to scalar"
    );
    assert_eq!(
        fleet_report.outcomes.len(),
        LANES,
        "population must expand to one outcome per lane"
    );

    let timing = runner(TIMING_THREADS);
    let scalar_s = best_wall(&timing, &scalar, reps);
    let fleet_s = best_wall(&timing, &batched, reps);
    let speedup = scalar_s / fleet_s;
    println!("  identity threads   : {threads}");
    println!("  timing threads     : {TIMING_THREADS} per arm");
    println!("  scalar campaign    : {scalar_s:.3} s ({LANES} independent lanes)");
    println!("  fleet campaign     : {fleet_s:.3} s (one lockstep group)");
    println!(
        "  speedup            : {speedup:.2}x ({} >= 1.5x acceptance bar)",
        if speedup >= 1.5 { "within" } else { "UNDER" }
    );

    let per = |name: &str, wall: f64| BenchStats {
        name: name.to_owned(),
        iters_per_sample: 1,
        ns_per_iter: wall * 1.0e9,
        min_ns_per_iter: wall * 1.0e9,
    };
    let stats = [
        per("campaign/montecarlo_16_scalar", scalar_s),
        per("campaign/montecarlo_16_fleet", fleet_s),
    ];
    if short_mode() {
        println!("(short mode: baseline not rewritten)");
    } else {
        merge_into_baseline(&stats)?;
    }
    Ok(())
}
