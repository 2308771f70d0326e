//! Supervision-overhead benchmark: healthy campaign, deadline on vs off.
//!
//! The supervision layer (panic isolation, per-attempt deadline, retry
//! bookkeeping) must be cheap enough to leave on everywhere: on a healthy
//! 16-scenario campaign the fully-armed runner (deadline + retry budget)
//! must stay within **2%** of the bare runner's wall clock. The two
//! runners are timed in interleaved pairs, one campaign each per pair
//! ([`time_paired`]), and a full run fails only when the lower quartile
//! of the paired overhead is past the bar (`OVER`).
//!
//! Flags: `--short` shrinks the protocol (gate/CI smoke; never rewrites
//! the committed baseline and only reports the verdict), `--threads N`
//! pins the worker count. Full runs merge this bench's entries (each
//! arm's fastest campaign) into `BENCH_platform_sim.json` at the repo
//! root, preserving the other benches' entries.

use ascp_bench::harness::{
    black_box, merge_into_baseline, short_mode, threads_from_args, time_paired, BenchStats,
};
use ascp_core::campaign::{CampaignOptions, CampaignRunner, ScenarioSpec, Step};
use ascp_core::platform::PlatformConfig;

/// The acceptance bar, in percent: supervised wall clock / bare wall
/// clock − 1.
const MAX_OVERHEAD_PCT: f64 = 2.0;

/// A healthy 16-point rate table (same shape as `campaign_warmstart`'s):
/// no scenario panics, stalls, or overruns, so every supervised cycle is
/// pure overhead.
fn rate_table(settle_s: f64, window_s: f64) -> Vec<ScenarioSpec> {
    let config = PlatformConfig::builder()
        .cpu_enabled(false)
        .build()
        .expect("valid campaign config");
    (0..16)
        .map(|i| {
            let dps = f64::from(i) * 20.0 - 150.0;
            ScenarioSpec::new(format!("rate_{i}"), config.clone())
                .with_seed(0xa5c)
                .with_step(Step::WaitReady { timeout_s: 2.0 })
                .with_step(Step::Run { seconds: settle_s })
                .with_step(Step::SetRate { dps })
                .with_step(Step::MeasureMeanRate {
                    label: "mean_dps".into(),
                    window_s,
                })
        })
        .collect()
}

fn main() -> std::io::Result<()> {
    println!("== campaign_supervised ==");
    let threads = threads_from_args();
    let (settle_s, window_s, pairs) = if short_mode() {
        (0.02, 0.002, 5)
    } else {
        (0.05, 0.005, 9)
    };

    let bare = CampaignRunner::with_options(
        CampaignOptions::builder()
            .threads(threads)
            .build()
            .expect("valid options"),
    );
    // Fully armed: a (never hit) deadline that every worker checks against
    // its own attempt clock at every step hook, plus a retry budget.
    let supervised = CampaignRunner::with_options(
        CampaignOptions::builder()
            .threads(threads)
            .deadline_s(60.0)
            .retries(1)
            .build()
            .expect("valid options"),
    );

    // Identity first: supervision must change wall clock and nothing else.
    let bare_report = bare.run(rate_table(settle_s, window_s));
    let supervised_report = supervised.run(rate_table(settle_s, window_s));
    assert_eq!(
        bare_report.to_csv(),
        supervised_report.to_csv(),
        "supervision must be byte-identical to the bare runner on a healthy campaign"
    );
    assert_eq!(supervised_report.retries_total(), 0);
    assert_eq!(supervised_report.poisoned(), 0);

    let run = |runner: &CampaignRunner| {
        black_box(runner.run(rate_table(settle_s, window_s)));
    };
    let times = time_paired(pairs, || run(&supervised), || run(&bare));
    let fastest = |walls: &[f64]| walls.iter().copied().fold(f64::INFINITY, f64::min);
    let (bare_s, supervised_s) = (fastest(&times.off_s), fastest(&times.on_s));
    println!("  threads            : {threads}");
    println!("  bare campaign      : {bare_s:.3} s fastest (16 healthy scenarios)");
    println!("  supervised campaign: {supervised_s:.3} s fastest (deadline + retry budget armed)");
    println!("  {}", times.summary("supervision", MAX_OVERHEAD_PCT));

    let per = |name: &str, wall: f64| BenchStats {
        name: name.to_owned(),
        iters_per_sample: 1,
        ns_per_iter: wall * 1.0e9,
        min_ns_per_iter: wall * 1.0e9,
    };
    let stats = [
        per("campaign/supervised_16_off", bare_s),
        per("campaign/supervised_16_on", supervised_s),
    ];
    if short_mode() {
        // Short samples are too noisy to commit or to gate on; report only.
        println!("(short mode: baseline not rewritten, overhead informational)");
    } else {
        assert_ne!(
            times.verdict(MAX_OVERHEAD_PCT),
            "OVER",
            "supervision overhead past the {MAX_OVERHEAD_PCT}% bar"
        );
        merge_into_baseline(&stats)?;
    }
    Ok(())
}
