//! One equivalence oracle for every campaign execution strategy.
//!
//! Thread count, lane batching (populations run as given, or pre-expanded
//! with `expand_monte_carlo`), the warm-start cache, span tracing, chaos
//! with retries and journal resume change wall time and nothing else. A
//! scenario list has one reference run (one thread, every strategy off,
//! populations pre-expanded) and every other run must match its outcomes
//! and rendered artifacts, up to the exceptions stated once in
//! [`project`]. A disagreement names the strategy and the first differing
//! outcome field, and leaves `reference.csv`, `disagreeing.csv` and
//! `strategy.txt` under `$CARGO_TARGET_TMPDIR/equivalence/`.

use ascp_core::campaign::{
    expand_monte_carlo, CampaignOptions, CampaignReport, CampaignRunner, ChaosInjection, ChaosPlan,
    Dispersion, ScenarioOutcome, ScenarioSpec, Step,
};
use ascp_core::frontend::{ChannelConfig, SensorChannel};
use ascp_core::journal::{self, HEADER_LEN};
use ascp_core::platform::{PlatformConfig, PlatformConfigBuilder};
use ascp_mems::gyro::GyroParams;
use ascp_mems::pressure::MapSensorFrontEnd;
use ascp_sim::fault::{AdcChannel, FaultKind, FaultPlan};
use ascp_sim::telemetry::trace::TraceSpan;
use ascp_sim::telemetry::RecorderConfig;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::OnceLock;

/// One combination of execution strategies.
#[derive(Clone, Copy, Debug)]
struct Strategy {
    threads: usize,
    warm: bool,
    tracing: bool,
    /// Full supervision: a seeded plan with at least one panic and one
    /// stall, one retry, and a deadline no healthy attempt reaches.
    chaos: bool,
    /// Populations pre-expanded into plain specs instead of run as given.
    expanded: bool,
    journal: Journal,
}

/// No journal, a fresh one, or a fresh 2-thread journal that is cut and
/// then resumed by the strategy: at the header, torn inside a record's
/// length prefix, payload or checksum, on a record boundary, left
/// complete, or deleted.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Journal {
    Off,
    Fresh,
    Header,
    Length,
    Payload,
    Checksum,
    Boundary,
    Complete,
    Missing,
}

const CUTS: [Journal; 7] = {
    use Journal::*;
    [
        Header, Length, Payload, Checksum, Boundary, Complete, Missing,
    ]
};

const REFERENCE: Strategy = Strategy {
    threads: 1,
    warm: false,
    tracing: false,
    chaos: false,
    expanded: true,
    journal: Journal::Off,
};

impl Strategy {
    fn with(self, threads: usize, journal: Journal) -> Self {
        let mut s = self;
        (s.threads, s.journal) = (threads, journal);
        s
    }
}

/// The equivalence contract: what a strategy may change in a report. It
/// has two exceptions and no others.
///
/// - Under chaos + retry, a recovered scenario keeps the errors of its
///   failed attempts (`attempt_errors`), and the JSON counts them in
///   `campaign.{retries,timeouts,panics}_total`.
/// - A row preloaded from a journal has no `capture`: captures are not
///   journaled, while `recorder_triggered` is.
///
/// Returns the projected outcomes, then `to_csv()`,
/// `to_telemetry().to_json()` and `coverage().to_csv()`.
fn project(r: &CampaignReport, s: Strategy, preloaded: &[usize]) -> Projection {
    let mut outcomes = r.outcomes.clone();
    for o in &mut outcomes {
        if s.chaos {
            o.attempt_errors.clear();
        }
        if preloaded.contains(&o.index) {
            o.capture = None;
        }
    }
    let attempts = ["retries", "timeouts", "panics"].map(|c| format!("campaign.{c}_total"));
    let mut snap = r.to_telemetry();
    snap.counters
        .retain(|(name, _)| !s.chaos || !attempts.iter().any(|a| a == name));
    let rendered = [r.to_csv(), snap.to_json(), r.coverage().to_csv()];
    (outcomes, rendered)
}

type Projection = (Vec<ScenarioOutcome>, [String; 3]);

const RENDERED: [&str; 3] = [
    "to_csv()",
    "to_telemetry().to_json()",
    "coverage().to_csv()",
];

/// Names the first outcome field where `got` departs from `want`.
fn first_difference(want: &[ScenarioOutcome], got: &[ScenarioOutcome]) -> String {
    let Some((w, g)) = want.iter().zip(got).find(|(w, g)| w != g) else {
        return format!("{} outcomes, the reference has {}", got.len(), want.len());
    };
    // The pretty `Debug` form starts each field on a line of its own.
    let (w_dbg, g_dbg) = (format!("{w:#?}"), format!("{g:#?}"));
    let mut field = "";
    for (a, b) in w_dbg.lines().zip(g_dbg.lines()) {
        if a.starts_with("    ") && a[4..].starts_with(char::is_lowercase) {
            field = a[4..].split(':').next().unwrap_or_default();
        }
        if a != b {
            break;
        }
    }
    format!("outcome {} (`{}`) differs in `{field}`", w.index, w.name)
}

fn artifacts() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("equivalence");
    std::fs::create_dir_all(&dir).expect("artifact directory");
    dir
}

/// The running test's journal (tests run on threads named after them).
fn journal_path() -> PathBuf {
    let test = std::thread::current().name().map(|t| t.replace("::", "-"));
    artifacts().join(format!("{}.journal", test.unwrap_or_default()))
}

/// A chaos seed with at least one panic and one stall among `n` scenarios.
fn chaos_seed(n: usize) -> u64 {
    (0..4096)
        .find(|&seed| {
            let d: Vec<_> = (0..n).map(|i| ChaosPlan::new(seed).decide(i, 0)).collect();
            d.contains(&ChaosInjection::Panic) && d.contains(&ChaosInjection::Stall)
        })
        .expect("a seed mixes panics and stalls")
}

/// Runs `specs` under `s`.
fn run(specs: &[ScenarioSpec], s: Strategy) -> CampaignReport {
    let expanded = expand_monte_carlo(specs.to_vec());
    let mut options = CampaignOptions::builder()
        .threads(s.threads)
        .warm_start(s.warm)
        .tracing(s.tracing);
    if s.chaos {
        let plan = ChaosPlan::new(chaos_seed(expanded.len())).with_stall_cap_s(0.005);
        options = options.retries(1).deadline_s(60.0).chaos(plan);
    }
    let runner = CampaignRunner::with_options(options.build().expect("valid options"));
    let specs = if s.expanded { expanded } else { specs.to_vec() };
    let result = match s.journal {
        Journal::Off => return runner.run(specs),
        Journal::Fresh => runner.run_with_journal(specs, journal_path()),
        _ => runner.resume(specs, journal_path()),
    };
    result.expect("journal I/O")
}

/// A scenario list and its reference report.
struct Oracle {
    specs: Vec<ScenarioSpec>,
    reference: CampaignReport,
}

impl Oracle {
    fn new(specs: Vec<ScenarioSpec>) -> Self {
        let reference = run(&specs, REFERENCE);
        assert_eq!(reference.poisoned(), 0);
        let n = reference.outcomes.len();
        assert!(reference.outcomes.iter().map(|o| o.index).eq(0..n));
        Self { specs, reference }
    }

    /// Runs `s` and checks it against the reference, then the asserts
    /// that keep the comparison from passing vacuously. On a
    /// disagreement it writes both CSVs and the strategy under
    /// [`artifacts`], then panics.
    fn verify(&self, s: Strategy, preloaded: &[usize]) -> CampaignReport {
        let report = run(&self.specs, s);
        let want = project(&self.reference, s, preloaded);
        let got = project(&report, s, preloaded);
        let mut rendered = RENDERED.iter().zip(want.1.iter().zip(&got.1));
        let what = match rendered.find(|(_, (w, g))| w != g) {
            _ if want.0 != got.0 => first_difference(&want.0, &got.0),
            Some((name, _)) => name.to_string(),
            None => String::new(),
        };
        if !what.is_empty() {
            let name = format!("{s:?}").replace(|c: char| !c.is_alphanumeric(), "_");
            let dir = artifacts().join(name);
            let note = format!("{s:?}\npreloaded from the journal: {preloaded:?}\n{what}\n");
            std::fs::create_dir_all(&dir).expect("artifact directory");
            std::fs::write(dir.join("reference.csv"), &want.1[0]).expect("write");
            std::fs::write(dir.join("disagreeing.csv"), &got.1[0]).expect("write");
            std::fs::write(dir.join("strategy.txt"), note).expect("write");
            panic!("{s:?} disagrees with the reference: {what} ({dir:?})");
        }
        assert_eq!(report.resumed, preloaded.len(), "{s:?}");
        if s.chaos && preloaded.is_empty() {
            assert!(report.retries_total() >= 1, "{s:?}: chaos never fired");
            assert_eq!(report.poisoned(), 0, "{s:?}");
        }
        assert_eq!(report.trace.is_some(), s.tracing);
        let Some(trace) = &report.trace else {
            return report;
        };
        assert!(trace.span("campaign").is_some_and(|c| c.parent == 0));
        for o in &report.outcomes {
            let Some(span) = trace.span(&format!("scenario:{}", o.name)) else {
                assert!(preloaded.contains(&o.index), "{s:?}: {}", o.name);
                continue;
            };
            let inside =
                |t: &&TraceSpan| span.sim_start_s <= t.sim_start_s && t.sim_end_s <= span.sim_end_s;
            let steps = trace.children(span.id);
            assert!(!steps.is_empty(), "{s:?}: {} has no step spans", o.name);
            assert!(steps.iter().all(inside), "{s:?}: a step escapes {}", o.name);
        }
        report
    }

    /// Writes a fresh journal at 2 threads (checked as [`Journal::Fresh`]),
    /// then for each `(cut, threads)` cuts it and resumes it under `base`
    /// at `threads`.
    fn verify_journal(&self, base: Strategy, cuts: &[(Journal, usize)]) {
        self.verify(base.with(2, Journal::Fresh), &[]);
        let (path, n) = (journal_path(), self.reference.outcomes.len());
        let full = std::fs::read(&path).expect("journal bytes");
        let digest = journal::campaign_digest(&expand_monte_carlo(self.specs.clone()));
        let recorded = journal::read(&path, digest).expect("fresh journal reads");
        let order: Vec<usize> = recorded.iter().map(|o| o.index).collect();
        // Record frames: length prefix, payload, checksum.
        let mut bounds = vec![HEADER_LEN];
        while let Some(&at) = bounds.last().filter(|&&at| at < full.len()) {
            let len = u32::from_le_bytes(full[at..at + 4].try_into().expect("4 bytes"));
            bounds.push(at + 4 + len as usize + 8);
        }
        assert_eq!((order.len(), bounds.len()), (n, n + 1));
        let k = n / 2;
        for &(journal, threads) in cuts {
            let (at, kept) = match journal {
                Journal::Length => (bounds[k] + 1, k),
                Journal::Payload => ((bounds[k] + bounds[k + 1]) / 2, k),
                Journal::Checksum => (bounds[k + 1] - 1, k),
                Journal::Boundary => (bounds[k], k),
                Journal::Complete => (full.len(), n),
                _ => (HEADER_LEN, 0),
            };
            std::fs::write(&path, &full[..at]).expect("cut journal");
            if journal == Journal::Missing {
                std::fs::remove_file(&path).expect("remove journal");
            }
            self.verify(base.with(threads, journal), &order[..kept]);
        }
        std::fs::remove_file(&path).ok();
    }
}

fn map_channel(seed: u64) -> SensorChannel {
    let mut cfg = ChannelConfig::new("map", seed);
    cfg.adc_vref = 5.0;
    SensorChannel::new(cfg, Box::new(MapSensorFrontEnd::automotive(seed)))
}

fn quiet() -> PlatformConfigBuilder {
    PlatformConfig::builder().quiet()
}

fn mean(label: &str, window_s: f64) -> Step {
    let label = label.into();
    Step::MeasureMeanRate { label, window_s }
}

/// A gyro spec that settles, applies `dps` and measures the mean rate.
fn rate_spec(name: &str, config: PlatformConfigBuilder, dps: f64) -> ScenarioSpec {
    let (settle, set) = (Step::Run { seconds: 0.003 }, Step::SetRate { dps });
    let spec = ScenarioSpec::new(name, config.build().expect("valid config"));
    spec.with_steps([settle, set, mean("rate", 0.003)])
}

fn dispersion((omega, q, offset, gain): (f64, f64, f64, f64)) -> Dispersion {
    let d = Dispersion::none().with_omega_frac(omega).with_q_frac(q);
    d.with_offset_dps(offset).with_gain_frac(gain)
}

/// Cache hits a complete warm run of [`scenario_list`] reports: one per
/// sibling pair that shares a warm key and arms no recorder.
const WARM_HITS: usize = 2;

/// The fixed list: every spec kind the strategies treat differently.
fn scenario_list() -> Vec<ScenarioSpec> {
    // A 16x drive force reaches `Normal` at ~0.03 s instead of ~0.33 s,
    // keeping the bring-up prefix and its `init -> normal` transition
    // cheap; a sensor disconnect follows. The recorder-armed siblings
    // share the others' warm key, as the key leaves telemetry out.
    let mut strong = GyroParams::default();
    (strong.noise_density, strong.force_scale) = (0.005, 16.0 * strong.force_scale);
    let bring_up = |name: &str, recorder, tail: Vec<Step>| {
        let config = quiet()
            .gyro(strong)
            .recorder(RecorderConfig::fault_triggers(recorder));
        let config = config.fault_one_shot(FaultKind::SensorDisconnect, 0.035, 0.01);
        let ready = Step::WaitReady { timeout_s: 0.1 };
        let normal = Step::WaitSupervisorNormal { timeout_s: 0.1 };
        let spec = ScenarioSpec::new(name, config.build().expect("valid config"));
        spec.with_seed(5)
            .with_steps([vec![ready, normal], tail].concat())
    };
    // The warm siblings' settle prefix ends at the AGC freeze: a checkpoint
    // does not save the frozen gains.
    let (hot, freeze) = (
        Step::SetTemperature { celsius: 45.0 },
        Step::FreezeAgcDrive { resettle_s: 0.002 },
    );
    let cpu = quiet().cpu_enabled(true);
    // The CPU-on pair arms the watchdog inside its settle prefix.
    let watchdog = Step::ArmWatchdog {
        timeout_cycles: 20_000,
    };
    let armed = |mut spec: ScenarioSpec| {
        spec.steps.insert(0, watchdog.clone());
        spec
    };
    let (channel, gain) = (AdcChannel::Primary, 4.0);
    let overload = quiet().fault_one_shot(FaultKind::AdcOverload { channel, gain }, 0.002, 0.003);
    let recorded = quiet().recorder(RecorderConfig::fault_triggers(256));
    let zero_rate = Step::CaptureZeroRate {
        label: "zr".into(),
        seconds: 0.01,
        settle_s: 0.005,
    };
    let transfer = Step::MeasureStaticTransfer {
        rate_points: vec![50.0, 150.0, 250.0],
        samples_per_point: 16,
    };
    let mut not_connected = FaultPlan::new();
    not_connected.one_shot(FaultKind::WireNotConnected, 0.02, 0.02);
    let wire_fault = Step::FaultResponse {
        t_inject_s: 0.02,
        t_clear_s: 0.04,
        detect_budget_s: 0.02,
        recover_budget_s: 0.05,
        measure_recovery: true,
    };
    vec![
        // The trigger fires inside the settle prefix. First and longest,
        // so a 2-thread journal records out of input order.
        bring_up("rec0", 64, vec![Step::Run { seconds: 0.015 }]),
        rate_spec("rate_step", quiet(), 120.0),
        // Same config and prefix, derived seed: never a warm hit.
        rate_spec("rate_step_twin", quiet(), -45.0),
        rate_spec("noisier", quiet().noise_density(0.02), 0.0).with_seed(0xDEAD_BEEF),
        rate_spec("faulted", overload, 30.0).with_duration(0.01),
        ScenarioSpec::new("capture", quiet().build().expect("valid")).with_step(zero_rate),
        rate_spec("mc", quiet(), 60.0).monte_carlo(5, dispersion((0.02, 0.05, 10.0, 0.03))),
        // Fleet-eligible steps, but the fleet refuses an armed recorder.
        rate_spec("mc_rec", recorded, 60.0).monte_carlo(2, Dispersion::none()),
        bring_up(
            "warm0",
            0,
            vec![hot.clone(), freeze.clone(), mean("rate", 0.002)],
        ),
        bring_up("warm1", 0, vec![hot, freeze, mean("rate", 0.004)]),
        armed(rate_spec("cpu0", cpu.clone(), 60.0).with_seed(11)),
        armed(rate_spec("cpu1", cpu, -60.0).with_seed(11)),
        // The trigger fires after the prefix.
        bring_up("rec1", 64, vec![mean("rate", 0.015)]),
        ScenarioSpec::channel("map_transfer", 7, map_channel).with_step(transfer),
        ScenarioSpec::channel("map_not_connected", 7, map_channel)
            .with_faults(not_connected)
            .with_step(wire_fault),
    ]
}

/// The fixed list's oracle, built once per test binary, with the asserts
/// that keep its comparisons from passing vacuously.
fn fixed() -> &'static Oracle {
    static ORACLE: OnceLock<Oracle> = OnceLock::new();
    ORACLE.get_or_init(|| {
        let oracle = Oracle::new(scenario_list());
        let r = &oracle.reference;
        let o = |name: &str| r.outcomes.iter().find(|o| o.name == name).expect(name);
        let lanes: Vec<_> = (0..5).map(|i| o(&format!("mc/mc{i}"))).collect();
        let mean = |l: &&ScenarioOutcome| l.metric("rate").map(f64::to_bits);
        let seeds: HashSet<_> = lanes.iter().map(|l| l.seed).collect();
        let means: HashSet<_> = lanes.iter().map(mean).collect();
        assert_eq!((seeds.len(), means.len()), (5, 5), "lanes must disperse");
        for rec in ["rec0", "rec1"] {
            let capture = o(rec).capture.as_ref().expect("the recorder fired");
            assert!(!capture.events.is_empty(), "{rec}");
            assert_eq!(o(rec).metric("recorder_triggered"), Some(1.0), "{rec}");
        }
        assert_eq!(o("mc_rec/mc0").metric("recorder_triggered"), Some(0.0));
        assert_eq!(o("map_not_connected").metric("detected"), Some(1.0));
        assert_eq!(o("warm1").transitions.first(), Some(&("init", "normal")));
        assert!(o("map_transfer").metric("transfer_slope").is_some());
        assert!(o("capture").series("zr").is_some_and(|zr| !zr.is_empty()));
        oracle
    })
}

/// All 16 combinations of {warm, tracing, chaos, pre-expanded}, threads
/// cycling 1/2/4, then more workers than units.
#[test]
fn every_strategy_combination_matches_the_reference() {
    let units = fixed().reference.outcomes.len();
    let wide = (units + 3, [false; 4]);
    let grid = (0..16).map(|bits| ([1, 2, 4][bits % 3], [1, 2, 4, 8].map(|b| bits & b != 0)));
    for (threads, flags) in grid.chain([wide]) {
        let mut s = REFERENCE.with(threads, Journal::Off);
        [s.warm, s.tracing, s.chaos, s.expanded] = flags;
        let report = fixed().verify(s, &[]);
        assert_eq!(
            report.warm_hits,
            if s.warm { WARM_HITS } else { 0 },
            "{s:?}"
        );
    }
}

/// Every journal cut, resumed at another thread count than the one that
/// wrote it, with warm start off and on.
#[test]
fn every_journal_cut_resumes_to_the_reference() {
    let cuts: Vec<_> = CUTS.into_iter().zip([1, 4].into_iter().cycle()).collect();
    for warm in [false, true] {
        let mut base = REFERENCE;
        (base.warm, base.expanded) = (warm, false);
        fixed().verify_journal(base, &cuts);
    }
}

#[cfg(feature = "proptest")]
mod random {
    use super::*;
    use proptest::prelude::{any, proptest, ProptestConfig};

    /// Plain specs from (rate, seed override: none or one of two shared
    /// seeds, fault flag, duration floor), with a population of `lanes`
    /// dispersed by `spread` in the middle.
    fn list(specs: &[(f64, u8, bool, f64)], lanes: usize, spread: Spread) -> Vec<ScenarioSpec> {
        let mut list = Vec::new();
        for (i, &(dps, seed, fault, floor)) in specs.iter().enumerate() {
            let pll = quiet().fault_one_shot(FaultKind::PllUnlock, 0.002, 0.003);
            let config = if fault { pll } else { quiet() };
            let mut spec = rate_spec(&format!("s{i}"), config, dps).with_duration(floor);
            spec.seed = (seed > 0).then_some(u64::from(seed));
            list.push(spec);
        }
        let population = rate_spec("pop", quiet(), 45.0).monte_carlo(lanes, dispersion(spread));
        list.insert(specs.len() / 2, population);
        list
    }

    type Spread = (f64, f64, f64, f64);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn random_lists_match_their_reference_under_random_strategies(
            specs in proptest::collection::vec(
                (-300.0f64..300.0, 0u8..3, any::<bool>(), 0.004f64..0.01),
                1..5,
            ),
            lanes in 2usize..=6,
            spread in (0.0..0.03f64, 0.0..0.08f64, 0.0..15.0f64, 0.0..0.05f64),
            // Thread choice, warm, tracing, chaos, pre-expanded, and the
            // journal: none, fresh, or one of the seven cuts.
            strategies in proptest::collection::vec(
                (0usize..4, any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>(), 0usize..9),
                4,
            ),
        ) {
            let oracle = Oracle::new(list(&specs, lanes, spread));
            let n = oracle.reference.outcomes.len();
            for (threads, warm, tracing, chaos, expanded, journal) in strategies {
                let threads = [1, 2, 4, n + 1][threads];
                let s = Strategy { threads, warm, tracing, chaos, expanded, journal: Journal::Off };
                match journal {
                    0 => drop(oracle.verify(s, &[])),
                    1 => drop(oracle.verify(s.with(threads, Journal::Fresh), &[])),
                    cut => oracle.verify_journal(s, &[(CUTS[cut - 2], threads)]),
                }
            }
        }
    }
}
