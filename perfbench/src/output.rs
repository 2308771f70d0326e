//! The metric catalogue, the run manifest, and the one-line JSON result.

use std::fmt::Write as _;

/// End-to-end metrics `(name, unit)`, reported by every timed run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("pass_frac", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
/// `sim_ms` is simulated time; every other time unit is host time. A
/// metric of a layer the workload does not exercise reads 0 (see
/// `LAYERS.md`).
pub const PER_LAYER: [(&str, &str); 37] = [
    ("campaign.scenarios", "count"),
    ("campaign.scenario_ms_p50", "ms"),
    ("campaign.scenario_ms_p90", "ms"),
    ("campaign.scenario_tail_pct", "%"),
    ("campaign.overhead_ms", "ms"),
    ("campaign.warm_hit_ratio", "ratio"),
    ("campaign.retries", "count"),
    ("campaign.poisoned", "count"),
    ("platform.new_ms", "ms"),
    ("platform.tick_ns", "ns"),
    ("platform.tick_ns_cpu", "ns"),
    ("fleet.lane_tick_ns", "ns"),
    ("fleet.speedup", "x"),
    ("mcu8051.tick_gap_ns", "ns"),
    ("mcu8051.instructions_per_tick", "count"),
    ("mcu8051.xlate_hit_ratio", "ratio"),
    ("supervisor.tick_gap_ns", "ns"),
    ("supervisor.detect_ms_p50", "sim_ms"),
    ("supervisor.detect_ms_max", "sim_ms"),
    ("checkpoint.save_us", "us"),
    ("checkpoint.restore_us", "us"),
    ("checkpoint.bytes", "bytes"),
    ("journal.append_us", "us"),
    ("journal.bytes", "bytes"),
    ("dsp.welch_ms", "ms"),
    ("frontend.step_ns.map", "ns"),
    ("frontend.step_ns.iat", "ns"),
    ("frontend.step_ns.accel", "ns"),
    ("frontend.detect_ms_max", "sim_ms"),
    ("report.csv_ms", "ms"),
    ("accuracy.sensitivity_err_pct", "%"),
    ("accuracy.noise_density_err_pct", "%"),
    ("accuracy.nonlinearity_of_max_pct", "%"),
    ("accuracy.turn_on_err_pct", "%"),
    ("trace.overhead_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("host.ref_ms", "ms"),
];

/// Unit of a catalogued metric.
#[must_use]
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Writes `v` as a JSON number with all its digits. Non-finite values
/// have no JSON form and are written as 0.
fn number(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push('0');
    }
}

/// Writes `s` as a JSON string.
fn string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The result line: correctness, counts and metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Every acceptance check passed.
    pub correct: bool,
    /// Scenarios and channel measurements attempted.
    pub attempted: usize,
    /// Of those, poisoned or failing their acceptance check.
    pub failed: usize,
    /// `(name, value)` in catalogue order.
    pub metrics: Vec<(String, f64)>,
}

impl ResultLine {
    /// One-line JSON: `{"correct", "attempted", "failed", "metrics"}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            string(&mut out, name);
            out.push_str(": {\"value\": ");
            number(&mut out, *value);
            out.push_str(", \"unit\": ");
            string(&mut out, unit_of(name).unwrap_or("?"));
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// What ran where: the manifest written beside every result.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Traced (1) or timed (0) run.
    pub trace: bool,
    /// Requested measuring seconds.
    pub seconds: f64,
    /// Batches run.
    pub batches: usize,
    /// Scenarios and channel measurements per batch.
    pub scenarios: usize,
    /// Simulated seconds per batch.
    pub sim_s: f64,
    /// Median wall seconds of the (untraced) batches as measured, before
    /// scaling to the nominal host speed.
    pub measured_wall_s: f64,
    /// Median reference-kernel time, ms: how fast the host ran.
    pub ref_ms: f64,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Host CPU model.
    pub cpu_model: String,
    /// Toolchain that built the benchmark (`PERFBENCH_RUSTC`).
    pub rustc: String,
    /// Source revision (`PERFBENCH_GIT_REV`).
    pub git_rev: String,
}

impl Manifest {
    /// Host facts for a run of `workload` with `seed`.
    #[must_use]
    pub fn host(workload: &str, seed: u64, trace: bool, seconds: f64) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Self {
            workload: workload.to_owned(),
            seed,
            trace,
            seconds,
            batches: 0,
            scenarios: 0,
            sim_s: 0.0,
            measured_wall_s: 0.0,
            ref_ms: 0.0,
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cpu_model,
            rustc: env("PERFBENCH_RUSTC"),
            git_rev: env("PERFBENCH_GIT_REV"),
        }
    }

    /// JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"workload\": ");
        string(&mut out, &self.workload);
        let _ = write!(
            out,
            ", \"seed\": {}, \"trace\": {}, \"seconds\": ",
            self.seed,
            u8::from(self.trace)
        );
        number(&mut out, self.seconds);
        let _ = write!(
            out,
            ", \"batches\": {}, \"scenarios\": {}, \"sim_s\": ",
            self.batches, self.scenarios
        );
        number(&mut out, self.sim_s);
        out.push_str(", \"measured_wall_s\": ");
        number(&mut out, self.measured_wall_s);
        out.push_str(", \"ref_ms\": ");
        number(&mut out, self.ref_ms);
        let _ = write!(out, ", \"nproc\": {}, \"cpu_model\": ", self.nproc);
        string(&mut out, &self.cpu_model);
        out.push_str(", \"rustc\": ");
        string(&mut out, &self.rustc);
        out.push_str(", \"git_rev\": ");
        string(&mut out, &self.git_rev);
        out.push('}');
        out
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_keys() {
        let r = ResultLine {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![("wall_s".into(), 1.25), ("pass_frac".into(), 1.0)],
        };
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"pass_frac\": {\"value\": 1, \"unit\": \"ratio\"}}}"
        );
    }

    #[test]
    fn metric_names_are_unique_and_catalogued() {
        let names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for (i, n) in names.iter().enumerate() {
            assert!(!names[..i].contains(n), "duplicate {n}");
            assert!(n.len() <= 64 && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()));
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }
}
