//! Supervision-layer contract: worker faults (panics, stalls) injected by
//! the deterministic chaos mode must never abort a campaign, and without
//! retries they poison their scenarios deterministically, leaving healthy
//! ones untouched. That chaos with a retry is invisible is the chaos axis
//! of the equivalence oracle (`tests/equivalence.rs`).

use ascp_core::campaign::{
    CampaignObserver, CampaignOptions, CampaignOptionsBuilder, CampaignRunner, ChaosInjection,
    ChaosPlan, ScenarioError, ScenarioProgress, ScenarioSpec, ScenarioStatus, Step,
};
use std::sync::{Arc, Mutex};

/// Runner from a fully-specified options builder.
fn configured(options: CampaignOptionsBuilder) -> CampaignRunner {
    CampaignRunner::with_options(options.build().expect("valid options"))
}

use ascp_core::platform::PlatformConfig;

/// A small healthy campaign: eight cheap rate-measurement scenarios.
fn scenario_list() -> Vec<ScenarioSpec> {
    (0..8)
        .map(|i| {
            let config = PlatformConfig::builder().quiet().build().expect("valid");
            ScenarioSpec::new(format!("s{i}"), config)
                .with_duration(0.01)
                .with_step(Step::SetRate {
                    dps: f64::from(i) * 10.0,
                })
                .with_step(Step::MeasureMeanRate {
                    label: "rate".into(),
                    window_s: 0.005,
                })
        })
        .collect()
}

/// Finds a chaos seed whose injection pattern over `n` scenarios contains
/// at least one panic and at least one stall (search is deterministic, so
/// the tests stay reproducible).
fn chaos_seed_with_both(n: usize) -> u64 {
    (0..4096u64)
        .find(|&seed| {
            let plan = ChaosPlan::new(seed);
            let decisions: Vec<ChaosInjection> = (0..n).map(|i| plan.decide(i, 0)).collect();
            decisions.contains(&ChaosInjection::Panic)
                && decisions.contains(&ChaosInjection::Stall)
                && decisions.contains(&ChaosInjection::None)
        })
        .expect("some seed in 0..4096 mixes panic, stall, and healthy")
}

/// With retries disabled, injected faults quarantine their scenarios —
/// and the poisoning pattern, the healthy rows, and the whole CSV are
/// identical at 1, 2, and 4 threads.
#[test]
fn chaos_without_retries_poisons_deterministically_at_any_thread_count() {
    let seed = chaos_seed_with_both(8);
    // Tiny stall cap: with no watchdog the stalled worker self-reports
    // `TimedOut` after the cap, keeping the test fast.
    let chaos = ChaosPlan::new(seed).with_stall_cap_s(0.05);
    let run = |threads: usize| {
        configured(
            CampaignOptions::builder()
                .threads(threads)
                .retries(0)
                .chaos(chaos.clone()),
        )
        .run(scenario_list())
    };
    let one = run(1);
    let two = run(2);
    let four = run(4);
    assert_eq!(one.outcomes, two.outcomes);
    assert_eq!(one.outcomes, four.outcomes);
    assert_eq!(one.to_csv(), four.to_csv());

    // The poisoning pattern matches the plan exactly, and healthy rows
    // match an undisturbed run byte-for-byte.
    let clean = configured(CampaignOptions::builder().threads(2)).run(scenario_list());
    for (i, o) in one.outcomes.iter().enumerate() {
        match chaos.decide(i, 0) {
            ChaosInjection::None => {
                assert_eq!(o.status, ScenarioStatus::Done, "scenario {i}");
                assert_eq!(o, &clean.outcomes[i], "healthy scenario {i} perturbed");
            }
            ChaosInjection::Panic => {
                assert_eq!(o.status, ScenarioStatus::Poisoned, "scenario {i}");
                assert!(
                    matches!(o.attempt_errors[..], [ScenarioError::Panicked { .. }]),
                    "scenario {i}: {:?}",
                    o.attempt_errors
                );
                assert!(o.metrics.is_empty(), "poisoned scenario {i} has metrics");
            }
            ChaosInjection::Stall => {
                assert_eq!(o.status, ScenarioStatus::Poisoned, "scenario {i}");
                assert!(
                    matches!(o.attempt_errors[..], [ScenarioError::TimedOut { .. }]),
                    "scenario {i}: {:?}",
                    o.attempt_errors
                );
            }
        }
    }
    assert!(one.poisoned() > 0);
    assert_eq!(one.poisoned(), one.failed_scenarios().len());
}

/// The watchdog cancels a stalled scenario at the configured deadline and
/// records that configured limit (not measured wall time) in the error.
#[test]
fn watchdog_cancels_overrunning_scenarios_at_the_configured_deadline() {
    // Find a seed that stalls scenario 0 and leaves scenario 1 healthy,
    // so the assertion targets are fixed.
    let seed = (0..4096u64)
        .find(|&s| {
            let plan = ChaosPlan::new(s);
            plan.decide(0, 0) == ChaosInjection::Stall && plan.decide(1, 0) == ChaosInjection::None
        })
        .expect("some seed stalls scenario 0 only");
    let report = configured(
        CampaignOptions::builder()
            .threads(2)
            .retries(0)
            .deadline_s(0.05)
            // Cap far above the deadline: only the watchdog can end the
            // stall.
            .chaos(ChaosPlan::new(seed).with_stall_cap_s(10.0)),
    )
    .run(scenario_list().into_iter().take(2).collect());
    let stalled = &report.outcomes[0];
    assert_eq!(stalled.status, ScenarioStatus::Poisoned);
    assert_eq!(
        stalled.attempt_errors,
        vec![ScenarioError::TimedOut { deadline_s: 0.05 }],
        "the recorded deadline must be the configured one"
    );
    assert!(report.timeouts_total() >= 1);
    // The sibling scenario drained normally.
    assert_eq!(report.outcomes[1].status, ScenarioStatus::Done);
}

/// Supervision events flow through telemetry: the JSON export carries the
/// retry/timeout/panic/poisoned counters.
#[test]
fn supervision_counters_reach_the_json_export() {
    let seed = chaos_seed_with_both(8);
    let report = configured(
        CampaignOptions::builder()
            .threads(2)
            .retries(1)
            .chaos(ChaosPlan::new(seed).with_stall_cap_s(0.05)),
    )
    .run(scenario_list());
    let snap = report.to_telemetry();
    assert_eq!(
        snap.counter("campaign.retries_total"),
        report.retries_total()
    );
    let json = snap.to_json();
    for needle in [
        "\"campaign.retries_total\"",
        "\"campaign.timeouts_total\"",
        "\"campaign.panics_total\"",
        "\"campaign.poisoned_scenarios\"",
    ] {
        assert!(json.contains(needle), "{needle} missing from:\n{json}");
    }
}

/// Records the warm-start field of every progress callback.
#[derive(Default)]
struct WarmLog(Mutex<Vec<Option<bool>>>);

impl CampaignObserver for WarmLog {
    fn scenario_finished(&self, progress: &ScenarioProgress) {
        self.0.lock().expect("log lock").push(progress.warm);
    }
}

/// Two warm-start siblings: the same config, seed and settle prefix
/// (`Run { prefix_s }`), then a zero-rate stimulus and `tail`.
fn warm_siblings(prefix_s: f64, tail: &Step) -> Vec<ScenarioSpec> {
    (0..2)
        .map(|i| {
            let config = PlatformConfig::builder().quiet().build().expect("valid");
            ScenarioSpec::new(format!("w{i}"), config)
                .with_seed(7)
                .with_step(Step::Run { seconds: prefix_s })
                .with_step(Step::SetRate { dps: 0.0 })
                .with_step(tail.clone())
        })
        .collect()
}

/// `warm_hits` counts scenarios, not attempts: two siblings whose
/// post-prefix run overruns the deadline on every attempt end poisoned,
/// so neither counts as a cache hit, even though three of their four
/// attempts restored the shared checkpoint. The report agrees with the
/// per-scenario progress callbacks.
#[test]
fn warm_hits_count_scenarios_not_attempts() {
    let log = Arc::new(WarmLog::default());
    let report = configured(
        CampaignOptions::builder()
            .threads(2)
            .warm_start(true)
            .retries(1)
            .deadline_s(0.02)
            .observer(log.clone()),
    )
    // Ten simulated seconds: far past the deadline in any build.
    .run(warm_siblings(0.005, &Step::Run { seconds: 10.0 }));
    for o in &report.outcomes {
        assert_eq!(o.status, ScenarioStatus::Poisoned, "{}", o.name);
        assert_eq!(
            o.attempt_errors,
            vec![ScenarioError::TimedOut { deadline_s: 0.02 }; 2],
            "{}",
            o.name
        );
    }
    let warm = log.0.lock().expect("log lock");
    assert_eq!(warm.len(), 2);
    let hits = warm.iter().filter(|&&w| w == Some(true)).count();
    assert_eq!(report.warm_hits, hits);
}

/// Deadline of the warm-cache clock test, seconds.
const DEADLINE_S: f64 = 0.1;

/// That test's shared settle prefix, simulated seconds: about 0.5 s of
/// wall time in a release build on a 2-vCPU host and about 1.5 s in a
/// debug build, so several deadlines either way. The measurement after it
/// (0.4 ms simulated) is hundreds of times shorter than the deadline.
const PREFIX_S: f64 = 3.0;

/// Time spent on the warm-start cache is off the deadline clock: the
/// siblings' shared settle prefix takes several deadlines to run (and the
/// sibling that waits for it blocks just as long), yet both finish their
/// short measurement on the first attempt.
#[test]
fn warm_cache_time_is_off_the_deadline_clock() {
    let report = configured(
        CampaignOptions::builder()
            .threads(2)
            .warm_start(true)
            .retries(0)
            .deadline_s(DEADLINE_S),
    )
    .run(warm_siblings(
        PREFIX_S,
        &Step::MeasureMeanRate {
            label: "rate".into(),
            window_s: 0.0004,
        },
    ));
    for o in &report.outcomes {
        assert_eq!(o.status, ScenarioStatus::Done, "{}", o.name);
        assert!(
            o.attempt_errors.is_empty(),
            "{}: {:?}",
            o.name,
            o.attempt_errors
        );
    }
    assert_eq!(report.warm_hits, 1);
}
