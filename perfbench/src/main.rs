//! Command line of the ASCP benchmark.
//!
//! ```sh
//! ascp-perfbench --workload <fault_sweep|montecarlo|characterize> \
//!     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Prints a summary and the run manifest, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics for `--trace 0`, the per-layer
//! metrics for `--trace 1`. Exit code 0 when the run completed (failed
//! acceptance checks show in `correct` and `failed`), 2 on a usage or I/O
//! error.

use ascp_perfbench::runs::{timed, traced, write_record, RunConfig};
use ascp_perfbench::workload::{Size, Workload};
use std::path::PathBuf;

/// Seed and measuring seconds used when the flags are not given.
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 30.0;

fn parse() -> Result<(RunConfig, bool), String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out = PathBuf::from("perfbench/out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let cfg = RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        size: Size::FULL,
        out,
    };
    Ok((cfg, trace))
}

fn main() {
    let code = match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ascp-perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run() -> Result<i32, String> {
    let (cfg, trace) = parse()?;
    let report = if trace { traced(&cfg)? } else { timed(&cfg)? };
    let record = write_record(&cfg.out, &report)?;
    let r = &report.result;
    println!(
        "{} seed {}: {} batch(es), {} scenario(s) and channel measurement(s) per batch, {:.3} simulated s per batch",
        cfg.workload.name(),
        cfg.seed,
        report.manifest.batches,
        report.manifest.scenarios,
        report.manifest.sim_s
    );
    for (name, value) in &r.metrics {
        let unit = ascp_perfbench::output::unit_of(name).unwrap_or("?");
        println!("  {name:<32} {value:>14.6} {unit}");
    }
    let walls: Vec<String> = report.walls.iter().map(|w| format!("{w:.3}")).collect();
    println!("  batch walls as measured (s): {}", walls.join(" "));
    if !report.setups.is_empty() {
        let setups: Vec<String> = report
            .setups
            .iter()
            .map(|s| format!("{:.1}", s * 1.0e6))
            .collect();
        println!("  batch set-ups (us): {}", setups.join(" "));
    }
    let refs: Vec<String> = report
        .refs
        .iter()
        .map(|r| format!("{:.2}", r * 1.0e3))
        .collect();
    println!("  reference kernel (ms): {}", refs.join(" "));
    for f in &report.failures {
        eprintln!("  FAILED {f}");
    }
    if let Some(spans) = &report.spans {
        println!("  spans -> {}", spans.display());
    }
    println!("  record -> {}", record.display());
    println!("manifest {}", report.manifest.to_json());
    println!("{}", r.to_json());
    Ok(0)
}
