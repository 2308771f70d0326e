//! Tiny-size runs of every workload, timed and traced.

use ascp_perfbench::output::{END_TO_END, PER_LAYER};
use ascp_perfbench::runs::{timed, traced, write_record, RunConfig};
use ascp_perfbench::workload::{Size, Workload};
use std::path::PathBuf;

fn config(workload: Workload, test: &str) -> RunConfig {
    RunConfig {
        workload,
        seed: 4,
        seconds: 0.0,
        size: Size::TINY,
        out: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test),
    }
}

fn names(metrics: &[(String, f64)]) -> Vec<&str> {
    metrics.iter().map(|m| m.0.as_str()).collect()
}

#[test]
fn timed_runs_report_the_end_to_end_metrics() {
    for workload in Workload::ALL {
        let cfg = config(workload, "timed");
        let report = timed(&cfg).expect("run completes");
        let r = &report.result;
        assert!(r.correct, "{}: {:?}", workload.name(), report.failures);
        assert_eq!(r.failed, 0);
        assert!(r.attempted >= 3, "three batches at least");
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names(&r.metrics), expected);
        assert!(r.metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0));
        let line = r.to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        let record = write_record(&cfg.out, &report).expect("record written");
        assert!(std::fs::read_to_string(record)
            .unwrap()
            .contains("\"manifest\""));
    }
}

#[test]
fn traced_runs_report_every_layer_and_write_spans() {
    for workload in Workload::ALL {
        let cfg = config(workload, "traced");
        let report = traced(&cfg).expect("run completes");
        let r = &report.result;
        assert!(r.correct, "{}: {:?}", workload.name(), report.failures);
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names(&r.metrics), expected);
        assert!(r.metrics.iter().all(|m| m.1.is_finite()), "{:?}", r.metrics);
        let spans = std::fs::read_to_string(report.spans.expect("span file")).unwrap();
        assert!(spans.starts_with("{\"traceEvents\":["));
        for label in [
            "workload:",
            "setup",
            "campaign",
            "csv",
            "scenario:",
            "probe:",
        ] {
            assert!(
                spans.contains(label),
                "{}: no {label} span",
                workload.name()
            );
        }
        let get = |n: &str| r.metrics.iter().find(|m| m.0 == n).unwrap().1;
        assert!(get("platform.tick_ns") > 0.0);
        assert!(get("campaign.scenarios") >= 1.0);
        match workload {
            Workload::FaultSweep => {
                assert!(get("supervisor.detect_ms_max") > 0.0);
                assert_eq!(get("fleet.speedup"), 0.0, "no population, no lanes");
            }
            Workload::MonteCarlo => assert!(get("fleet.speedup") > 1.0),
            Workload::Characterize => {
                assert!(get("campaign.warm_hit_ratio") > 0.0);
                assert!(get("frontend.detect_ms_max") > 0.0);
                assert!(get("accuracy.sensitivity_err_pct") > 0.0);
            }
        }
    }
}
