//! Ablation: open-loop vs closed-loop (force-rebalance) sense path.
//!
//! The paper motivates the control electrodes with "a closed loop
//! configuration ... in order to let the sensor work around its rest point,
//! thus achieving more linear and accurate measures" (§4.1). The mechanism:
//! the capacitive pickoff is only linear near rest, so reading large
//! open-loop deflections inherits the electrode nonlinearity, while force
//! rebalance holds the deflection at zero and measures the force instead.
//!
//! This ablation sweeps the sense-electrode cubic coefficient (a device /
//! process quality knob) and measures transfer nonlinearity in both modes:
//! open loop degrades with the electrode, closed loop does not.
//!
//! ```sh
//! cargo run --release -p ascp-bench --bin ablation_loop_mode [-- --threads N]
//! ```
//!
//! The six (mode × electrode) cells are campaign scenarios, sharded
//! across worker threads.

use ascp_bench::harness::{Args, Flag};
use ascp_bench::write_metrics;
use ascp_core::prelude::*;

const PICKOFF_NLS: [f64; 3] = [3.0e3, 3.0e4, 1.0e5];

fn scenario(mode: SenseMode, pickoff_nl: f64) -> ScenarioSpec {
    let config = PlatformConfig::builder()
        .loop_mode(mode)
        .cpu_enabled(false)
        .noise_density(0.005)
        .sense_pickoff_nl(pickoff_nl)
        .build()
        .expect("valid ablation config");
    let tag = if mode == SenseMode::ClosedLoop {
        "closed"
    } else {
        "open"
    };
    let mut spec = ScenarioSpec::new(format!("{tag}_{pickoff_nl:.0}"), config)
        .with_step(Step::WaitReady { timeout_s: 2.0 })
        .with_step(Step::Run { seconds: 0.5 });
    if mode == SenseMode::ClosedLoop {
        // Final-test axis trim (the paper's on-line parameter trimming).
        spec = spec.with_step(Step::TrimRebalancePhase {
            probe_rate_dps: 200.0,
            iterations: 2,
        });
    }
    spec.with_step(Step::MeasureLinearity {
        label: "nonlin_pct".into(),
        rates: vec![-300.0, -200.0, -100.0, 0.0, 100.0, 200.0, 300.0],
        dwell_s: 0.5,
        settle_s: 0.2,
        samples: 1000,
    })
}

fn main() -> std::io::Result<()> {
    let threads = Args::parse("ablation_loop_mode", &[Flag::Threads]).threads;
    println!(
        "ablation: open loop vs force rebalance across electrode quality ({threads} worker thread(s))"
    );
    println!(
        "  {:>22} {:>14} {:>14}",
        "pickoff cubic coeff", "open loop", "closed loop"
    );
    let scenarios: Vec<ScenarioSpec> = PICKOFF_NLS
        .iter()
        .flat_map(|&nl| {
            [
                scenario(SenseMode::OpenLoop, nl),
                scenario(SenseMode::ClosedLoop, nl),
            ]
        })
        .collect();
    let report = CampaignRunner::with_options(
        CampaignOptions::builder()
            .threads(threads)
            .build()
            .expect("valid options"),
    )
    .run(scenarios);

    for nl in PICKOFF_NLS {
        let open = report
            .metric(&format!("open_{nl:.0}"), "nonlin_pct")
            .unwrap_or(f64::NAN);
        let closed = report
            .metric(&format!("closed_{nl:.0}"), "nonlin_pct")
            .unwrap_or(f64::NAN);
        println!("  {nl:>22.0} {open:>13.3}% {closed:>13.3}%");
    }
    write_metrics("ablation_loop_mode", &report.to_telemetry())?;
    println!("expected shape: open-loop nonlinearity grows with the electrode cubic;");
    println!("force rebalance keeps the deflection at zero and stays flat — the");
    println!("paper's 'more linear and accurate measures' (§4.1).");
    Ok(())
}
