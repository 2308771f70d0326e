//! Seeded generation and acceptance counting.

use ascp_core::campaign::{CampaignReport, ScenarioError, ScenarioOutcome, ScenarioStatus};
use ascp_core::journal::campaign_digest;
use ascp_mems::frontend::WireFault;
use ascp_perfbench::observe::ScenarioLog;
use ascp_perfbench::workload::{
    evaluate, run_channel, setup, Batch, ChannelJob, ChannelMeasure, Device, Expect, Prepared,
    Size, Workload,
};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn prepare(workload: Workload, seed: u64, size: Size) -> Prepared {
    setup(
        workload,
        seed,
        size,
        Arc::new(ScenarioLog::default()),
        &scratch("generator"),
    )
    .expect("inputs generate")
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for workload in Workload::ALL {
        let a = prepare(workload, 7, Size::FULL);
        let b = prepare(workload, 7, Size::FULL);
        let c = prepare(workload, 8, Size::FULL);
        let name = workload.name();
        assert_eq!(
            campaign_digest(&a.specs),
            campaign_digest(&b.specs),
            "{name}"
        );
        assert_ne!(
            campaign_digest(&a.specs),
            campaign_digest(&c.specs),
            "{name}"
        );
        assert_eq!(a.channels, b.channels, "{name}");
        assert_eq!(a.expect, b.expect, "{name}");
        assert_ne!(a.expect, c.expect, "{name}");
        if workload == Workload::Characterize {
            assert_ne!(a.channels, c.channels, "{name}");
        }
    }
}

#[test]
fn batch_sizes_do_not_depend_on_the_seed() {
    for workload in Workload::ALL {
        let sizes: Vec<(usize, usize)> = [1u64, 2, 99]
            .into_iter()
            .map(|seed| {
                let p = prepare(workload, seed, Size::FULL);
                (p.specs.len(), p.channels.len())
            })
            .collect();
        assert!(sizes.windows(2).all(|w| w[0] == w[1]), "{sizes:?}");
    }
}

fn outcome(index: usize, name: &str, metrics: &[(&str, f64)]) -> ScenarioOutcome {
    ScenarioOutcome {
        name: name.into(),
        index,
        seed: 0,
        metrics: metrics.iter().map(|&(n, v)| (n.into(), v)).collect(),
        series: Vec::new(),
        fault_classes: Vec::new(),
        transitions: Vec::new(),
        capture: None,
        attempt_errors: Vec::new(),
        status: ScenarioStatus::Done,
    }
}

fn batch(outcomes: Vec<ScenarioOutcome>, channels: Vec<ChannelJob>) -> Batch {
    Batch {
        report: CampaignReport {
            outcomes,
            threads: 1,
            wall_s: 0.0,
            warm_hits: 0,
            resumed: 0,
            trace: None,
        },
        channels: channels.iter().map(run_channel).collect(),
        csv: String::new(),
        wall_s: 0.0,
        campaign_s: 0.0,
        csv_s: 0.0,
    }
}

#[test]
fn poisoned_undetected_and_late_scenarios_fail() {
    let size = Size {
        classes: 5,
        instants: 1,
        ..Size::TINY
    };
    let prep = prepare(Workload::FaultSweep, 3, size);
    let mut poisoned = outcome(0, "poisoned", &[]);
    poisoned.status = ScenarioStatus::Poisoned;
    poisoned.attempt_errors = vec![ScenarioError::Missing, ScenarioError::Missing];
    let outcomes = vec![
        poisoned,
        outcome(1, "undetected", &[("detected", 0.0)]),
        outcome(
            2,
            "late",
            &[("detected", 1.0), ("detection_latency_s", 5.0)],
        ),
        outcome(
            3,
            "early",
            &[("detected", 1.0), ("detection_latency_s", -0.01)],
        ),
        outcome(
            4,
            "good",
            &[("detected", 1.0), ("detection_latency_s", 0.01)],
        ),
    ];
    let v = evaluate(&prep.expect, size, &batch(outcomes, Vec::new()));
    assert_eq!(v.attempted, 5);
    assert_eq!(v.failed(), 4, "{:?}", v.failures);
    for name in ["poisoned", "undetected", "late", "early"] {
        assert!(v.failures.iter().any(|f| f.0 == name), "{name}");
    }
    assert_eq!(v.detect_ms, vec![10.0]);
}

#[test]
fn a_scenario_failing_several_checks_counts_once() {
    let size = Size {
        temperatures: 1,
        rate_points: 2,
        devices: 0,
        ..Size::TINY
    };
    let prep = prepare(Workload::Characterize, 3, size);
    let Expect::Table { rows, datasheets } = &prep.expect else {
        panic!("characterize expects a table");
    };
    // Both rate rows read five times the applied rate: the table's slope
    // fails, and is charged to each row once.
    let mut outcomes: Vec<ScenarioOutcome> = rows
        .iter()
        .enumerate()
        .map(|(i, (name, _, dps))| outcome(i, name, &[("mean_dps", 5.0 * dps)]))
        .collect();
    // The datasheet row misses Table 1 on sensitivity and noise density.
    outcomes.push(outcome(
        rows.len(),
        &datasheets[0],
        &[
            ("sensitivity_v_per_dps", 0.5),
            ("noise_density_dps_rthz", 9.0),
            ("nonlinearity_pct_fs", 0.1),
            ("turn_on_s", 0.5),
        ],
    ));
    let v = evaluate(&prep.expect, size, &batch(outcomes, Vec::new()));
    assert_eq!(v.attempted, 3);
    assert_eq!(v.failures.len(), 4, "{:?}", v.failures);
    assert_eq!(v.failed(), 3, "{:?}", v.failures);
}

#[test]
fn a_population_failing_every_check_fails_each_lane_once() {
    let size = Size::TINY;
    let prep = prepare(Workload::MonteCarlo, 3, size);
    let Expect::Population { rate_dps } = prep.expect else {
        panic!("montecarlo expects a population");
    };
    // Every lane reads three times the rate, so the median check fails for
    // the whole population; lane 0 also leaves the dispersion band.
    let outcomes: Vec<ScenarioOutcome> = (0..size.lanes)
        .map(|i| {
            let sf = if i == 0 { 30.0 } else { 3.0 };
            outcome(
                i,
                &format!("population/mc{i}"),
                &[("plus_dps", sf * rate_dps), ("minus_dps", -sf * rate_dps)],
            )
        })
        .collect();
    let v = evaluate(&prep.expect, size, &batch(outcomes, Vec::new()));
    assert_eq!(v.attempted, size.lanes);
    assert_eq!(v.failures.len(), size.lanes + 1, "{:?}", v.failures);
    assert_eq!(v.failed(), size.lanes);
}

#[test]
fn an_undetected_channel_wire_fault_fails() {
    let size = Size {
        temperatures: 0,
        ..Size::TINY
    };
    let prep = prepare(Workload::Characterize, 3, size);
    // The thermistor cannot see reverse polarity by design: scheduling it
    // anyway must count as a failure.
    let jobs = vec![
        ChannelJob {
            name: "iat/wire/reverse_polarity".into(),
            device: Device::Iat,
            seed: 5,
            measure: ChannelMeasure::Wire {
                fault: WireFault::ReversePolarity,
            },
        },
        ChannelJob {
            name: "map/wire/not_connected".into(),
            device: Device::Map,
            seed: 5,
            measure: ChannelMeasure::Wire {
                fault: WireFault::NotConnected,
            },
        },
    ];
    let v = evaluate(&prep.expect, size, &batch(Vec::new(), jobs));
    assert_eq!(v.attempted, 2);
    assert_eq!(v.failed(), 1, "{:?}", v.failures);
    assert_eq!(v.failures[0].0, "iat/wire/reverse_polarity");
    assert_eq!(v.channel_detect_ms.len(), 1);
}
