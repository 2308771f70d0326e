//! Minimal wall-clock micro-benchmark harness.
//!
//! Replaces criterion so the benches build with no registry access. The
//! protocol is the classic warmup → calibrate → sample loop: each sample
//! times a fixed batch of iterations, and the *median* sample is reported
//! to resist scheduler noise. Accuracy is in the few-percent range, which
//! is all the cycle-budget comparisons here need.

use ascp_core::campaign::{CampaignObserver, ScenarioProgress};
use ascp_core::coverage::CoverageMatrix;
use std::error::Error;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Returns `true` when the process was started with `--short`: benches
/// shrink their warmup/sample budget (~10× faster, noisier) so the
/// repository gate and CI can smoke-run the kernel benches without paying
/// the full measurement protocol.
#[must_use]
pub fn short_mode() -> bool {
    std::env::args().any(|a| a == "--short")
}

/// Resolves `name` against the repository root (two levels above this
/// crate's manifest). Cargo runs bench binaries with the *package*
/// directory as cwd, so a bare relative filename would land in
/// `crates/bench/`; the committed bench-trajectory file lives at the
/// repo root. Absolute paths pass through unchanged.
#[must_use]
pub fn repo_root_path(name: impl AsRef<Path>) -> PathBuf {
    let name = name.as_ref();
    if name.is_absolute() {
        name.to_path_buf()
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(name)
    }
}

/// Parses `--check <path>` (or `--check=<path>`) from the process
/// arguments: the committed bench-trajectory file to guard against.
/// Relative paths are resolved against the repository root (see
/// [`repo_root_path`]).
#[must_use]
pub fn check_path_from_args() -> Option<PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--check" {
            return args.next().map(repo_root_path);
        }
        if let Some(v) = a.strip_prefix("--check=") {
            return Some(repo_root_path(v));
        }
    }
    None
}

/// Parses a `--threads N` (or `--threads=N`) flag from the process
/// arguments; defaults to the machine's available parallelism. Every
/// campaign-based bin routes its worker count through this, so
/// `cargo run --bin fault_campaign -- --threads 4` works uniformly.
#[must_use]
pub fn threads_from_args() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--threads" {
            if let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) {
                return n.max(1);
            }
        } else if let Some(v) = a.strip_prefix("--threads=") {
            if let Ok(n) = v.parse::<usize>() {
                return n.max(1);
            }
        }
    }
    ascp_sim::campaign::available_parallelism()
}

/// Exit code for scenario-level failures: undetected faults, poisoned
/// (retry-exhausted) scenarios, coverage regressions. The campaign ran;
/// its *results* are bad.
pub const EXIT_SCENARIO_FAILURE: i32 = 1;

/// Exit code for infrastructure errors: journal create/read failures,
/// I/O errors, checkpoint decode errors. The campaign could not run (or
/// could not persist) at all.
pub const EXIT_INFRA_ERROR: i32 = 2;

/// Runs a campaign bin under the shared exit-code taxonomy: the closure
/// returns the exit code for completed runs (0 ok, [`EXIT_SCENARIO_FAILURE`]
/// for bad results), and any propagated error is reported on stderr and
/// mapped to [`EXIT_INFRA_ERROR`].
pub fn run_to_exit(name: &str, run: impl FnOnce() -> Result<i32, Box<dyn Error>>) -> ! {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("{name}: infrastructure error: {e}");
            std::process::exit(EXIT_INFRA_ERROR);
        }
    }
}

/// The `--check-coverage <baseline>` gate of the campaign bins: every
/// `(fault class, transition)` cell of the committed baseline must still
/// be exercised by `coverage`. Returns `Ok(false)` (a scenario failure)
/// after listing the dark cells on stderr.
///
/// # Errors
///
/// An unreadable or malformed baseline: an infrastructure error, so a
/// baseline that checks nothing never passes the gate.
pub fn check_coverage(
    bin: &str,
    coverage: &CoverageMatrix,
    baseline: &str,
) -> Result<bool, Box<dyn Error>> {
    let path = repo_root_path(baseline);
    let body = std::fs::read_to_string(&path)?;
    let lost = coverage
        .regressions(&body)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    if lost.is_empty() {
        println!("  coverage check vs {}: ok", path.display());
        return Ok(true);
    }
    eprintln!(
        "{bin}: coverage REGRESSION vs {} — cells no longer exercised:",
        path.display()
    );
    for (class, edge) in &lost {
        eprintln!("  {class} × {edge}");
    }
    Ok(false)
}

/// A shared campaign-bin option. Each bin passes [`Args::parse`] the
/// flags it reads; any other shared flag is a usage error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--threads N`: campaign worker threads.
    Threads,
    /// `--smoke`: CI smoke mode.
    Smoke,
    /// `--chaos`: seeded chaos injection.
    Chaos,
    /// `--chaos-seed N`: chaos plan seed.
    ChaosSeed,
    /// `--deadline S`: per-scenario wall-clock watchdog.
    Deadline,
    /// `--journal PATH`: crash-recoverable campaign journal.
    Journal,
    /// `--checkpoint PATH`: save a settled platform checkpoint.
    Checkpoint,
    /// `--resume PATH`: restore a settled platform checkpoint.
    Resume,
    /// `--check-coverage PATH`: coverage-matrix baseline.
    CheckCoverage,
}

impl Flag {
    /// Every shared flag, in `--help` order.
    const ALL: [Self; 9] = [
        Self::Threads,
        Self::Smoke,
        Self::Chaos,
        Self::ChaosSeed,
        Self::Deadline,
        Self::Journal,
        Self::Checkpoint,
        Self::Resume,
        Self::CheckCoverage,
    ];

    /// The flag as typed, without the leading `--`.
    fn name(self) -> &'static str {
        match self {
            Self::Threads => "threads",
            Self::Smoke => "smoke",
            Self::Chaos => "chaos",
            Self::ChaosSeed => "chaos-seed",
            Self::Deadline => "deadline",
            Self::Journal => "journal",
            Self::Checkpoint => "checkpoint",
            Self::Resume => "resume",
            Self::CheckCoverage => "check-coverage",
        }
    }

    /// The value placeholder (empty for a switch) and the `--help` line.
    fn help(self) -> (&'static str, &'static str) {
        match self {
            Self::Threads => (
                "N",
                "campaign worker threads (default: available parallelism)",
            ),
            Self::Smoke => ("", "CI smoke mode: skip the slow measurement arms"),
            Self::Chaos => ("", "enable seeded chaos injection (worker panics/stalls)"),
            Self::ChaosSeed => ("N", "chaos plan seed (default: bin-specific)"),
            Self::Deadline => ("S", "per-scenario wall-clock watchdog, in seconds"),
            Self::Journal => (
                "PATH",
                "crash-recoverable campaign journal (resumes if present)",
            ),
            Self::Checkpoint => ("PATH", "save a settled platform checkpoint after bring-up"),
            Self::Resume => ("PATH", "restore a settled platform checkpoint"),
            Self::CheckCoverage => ("PATH", "coverage-matrix baseline to check against"),
        }
    }
}

/// Usage text for a bin that reads `flags`, answered to `--help` (and
/// appended to flag errors) by [`Args::parse`].
fn usage(flags: &[Flag]) -> String {
    let mut out = String::from("Options:\n");
    for flag in Flag::ALL.into_iter().filter(|f| flags.contains(f)) {
        let (value, about) = flag.help();
        let spelled = format!("--{} {value}", flag.name());
        out.push_str(&format!("  {:<21} {about}\n", spelled.trim_end()));
    }
    out.push_str("  --help                print this help and exit");
    out
}

/// Typed command-line arguments shared by the campaign bins
/// (`fault_campaign`, `sensor_datasheet`, `stability_allan`, the
/// `ablation_*` family).
///
/// Each bin names the [`Flag`]s it reads, so `--help` lists exactly
/// those, and a flag the bin would ignore, an unknown flag or a malformed
/// value is a usage error that exits with [`EXIT_INFRA_ERROR`]. Fields of
/// flags a bin does not accept keep their defaults.
///
/// Not for `cargo bench` harness benches: libtest passes its own flags
/// (`--bench`, filter strings), which this parser would reject — benches
/// keep using the tolerant [`short_mode`] / [`check_path_from_args`]
/// helpers.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--threads N`: campaign worker threads, clamped to ≥ 1.
    pub threads: usize,
    /// `--smoke`: CI smoke mode (skip slow measurement arms).
    pub smoke: bool,
    /// `--chaos`: enable seeded chaos injection.
    pub chaos: bool,
    /// `--chaos-seed N`: chaos plan seed.
    pub chaos_seed: Option<u64>,
    /// `--deadline S`: per-scenario wall-clock watchdog, seconds.
    pub deadline_s: Option<f64>,
    /// `--journal PATH`: crash-recoverable campaign journal.
    pub journal: Option<String>,
    /// `--checkpoint PATH`: save a settled platform checkpoint.
    pub checkpoint: Option<String>,
    /// `--resume PATH`: restore a settled platform checkpoint.
    pub resume: Option<String>,
    /// `--check-coverage PATH`: coverage-matrix baseline.
    pub check_coverage: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            threads: ascp_sim::campaign::available_parallelism(),
            smoke: false,
            chaos: false,
            chaos_seed: None,
            deadline_s: None,
            journal: None,
            checkpoint: None,
            resume: None,
            check_coverage: None,
        }
    }
}

impl Args {
    /// Parses the process arguments of `bin`, which reads `flags`;
    /// answers `--help` with a usage text listing them on stdout (exit 0)
    /// and any parse error on stderr (exit [`EXIT_INFRA_ERROR`]).
    #[must_use]
    pub fn parse(bin: &str, flags: &[Flag]) -> Self {
        match Self::try_parse(std::env::args().skip(1), flags) {
            Ok(Some(args)) => args,
            Ok(None) => {
                println!("{bin}\n\n{}", usage(flags));
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("{bin}: {e}\n\n{}", usage(flags));
                std::process::exit(EXIT_INFRA_ERROR);
            }
        }
    }

    /// Parses an explicit argument list (no program name) for a bin that
    /// reads `flags`. `Ok(None)` means `--help` was requested.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the unknown or unaccepted flag,
    /// the flag whose value is missing, or the value that failed to
    /// parse.
    pub fn try_parse(
        args: impl IntoIterator<Item = String>,
        flags: &[Flag],
    ) -> Result<Option<Self>, String> {
        let mut out = Self::default();
        let mut args = args.into_iter();
        // `--flag value` and `--flag=value` are both accepted.
        let next_value =
            |flag: &str, inline: Option<&str>, args: &mut dyn Iterator<Item = String>| {
                inline.map(str::to_owned).map_or_else(
                    || {
                        args.next()
                            .ok_or_else(|| format!("--{flag}: missing value"))
                    },
                    Ok,
                )
            };
        while let Some(arg) = args.next() {
            let (name, inline) = match arg.strip_prefix("--") {
                Some(rest) => match rest.split_once('=') {
                    Some((f, v)) => (f.to_owned(), Some(v.to_owned())),
                    None => (rest.to_owned(), None),
                },
                None => return Err(format!("unexpected positional argument `{arg}`")),
            };
            let inline = inline.as_deref();
            if name == "help" {
                return Ok(None);
            }
            let Some(flag) = Flag::ALL.into_iter().find(|f| f.name() == name) else {
                return Err(format!("unknown flag `--{name}`"));
            };
            if !flags.contains(&flag) {
                return Err(format!("flag `--{name}` is not an option of this bin"));
            }
            match flag {
                Flag::Smoke => out.smoke = true,
                Flag::Chaos => out.chaos = true,
                Flag::Threads => {
                    let v = next_value(&name, inline, &mut args)?;
                    let n: usize = v
                        .parse()
                        .map_err(|_| format!("--threads: not a number: `{v}`"))?;
                    out.threads = n.max(1);
                }
                Flag::ChaosSeed => {
                    let v = next_value(&name, inline, &mut args)?;
                    out.chaos_seed = Some(
                        v.parse()
                            .map_err(|_| format!("--chaos-seed: not a number: `{v}`"))?,
                    );
                }
                Flag::Deadline => {
                    let v = next_value(&name, inline, &mut args)?;
                    let d: f64 = v
                        .parse()
                        .map_err(|_| format!("--deadline: not a number: `{v}`"))?;
                    if !d.is_finite() || d <= 0.0 {
                        return Err(format!("--deadline: must be finite and > 0 (got {v})"));
                    }
                    out.deadline_s = Some(d);
                }
                Flag::Journal => out.journal = Some(next_value(&name, inline, &mut args)?),
                Flag::Checkpoint => out.checkpoint = Some(next_value(&name, inline, &mut args)?),
                Flag::Resume => out.resume = Some(next_value(&name, inline, &mut args)?),
                Flag::CheckCoverage => {
                    out.check_coverage = Some(next_value(&name, inline, &mut args)?);
                }
            }
        }
        Ok(Some(out))
    }
}

/// Campaign observer that prints each finished scenario's
/// [`ScenarioProgress`] line on stdout, in completion order. The campaign
/// bins install it with `CampaignOptions::builder().observer(..)`.
#[derive(Debug, Clone, Copy)]
pub struct ProgressLines;

impl CampaignObserver for ProgressLines {
    fn scenario_finished(&self, progress: &ScenarioProgress) {
        println!("{progress}");
    }
}

/// Result of one [`bench()`] run.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Benchmark label.
    pub name: String,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Median nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Minimum nanoseconds per iteration across samples.
    pub min_ns_per_iter: f64,
}

impl BenchStats {
    /// Iterations per second implied by the median sample.
    #[must_use]
    pub fn per_second(&self) -> f64 {
        1.0e9 / self.ns_per_iter
    }
}

impl std::fmt::Display for BenchStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<28} {:>12.1} ns/iter  (min {:>10.1})  ({:>14.0} iter/s)",
            self.name,
            self.ns_per_iter,
            self.min_ns_per_iter,
            self.per_second()
        )
    }
}

/// Times `f`, prints the result, and returns the stats.
///
/// The return value of `f` is passed through [`black_box`] so the work is
/// not optimized away; wrap inputs in `black_box` at the call site when
/// they are loop-invariant. Under [`short_mode`] the warmup and sample
/// budget shrink ~10× (for gate/CI smoke runs).
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> BenchStats {
    let (warmup_ms, sample_ms, sample_count) = if short_mode() { (5, 1, 5) } else { (20, 10, 9) };
    // Warm up (and measure a rough per-call cost).
    let warmup = Duration::from_millis(warmup_ms);
    let start = Instant::now();
    let mut warm_iters: u64 = 0;
    while start.elapsed() < warmup {
        black_box(f());
        warm_iters += 1;
    }
    let rough_ns = warmup.as_nanos() as f64 / warm_iters.max(1) as f64;

    // Calibrate batches to ~`sample_ms` each, then take the median.
    let iters_per_sample = ((sample_ms as f64 * 1.0e6 / rough_ns) as u64).clamp(1, 100_000_000);
    let mut samples: Vec<f64> = (0..sample_count)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters_per_sample as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let stats = BenchStats {
        name: name.to_owned(),
        iters_per_sample,
        ns_per_iter: samples[samples.len() / 2],
        min_ns_per_iter: samples[0],
    };
    println!("{stats}");
    stats
}

/// Two arms of an overhead measurement timed in interleaved pairs (see
/// [`time_paired`]): seconds per run of each, in pair order.
#[derive(Debug, Clone)]
pub struct PairedTimes {
    /// The arm whose overhead is measured.
    pub on_s: Vec<f64>,
    /// The reference arm.
    pub off_s: Vec<f64>,
}

/// Times one run of `on` and one of `off` in each of `pairs` pairs,
/// alternating which runs first, so a drifting host slows both arms alike.
pub fn time_paired(pairs: usize, mut on: impl FnMut(), mut off: impl FnMut()) -> PairedTimes {
    let time = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    let (mut on_s, mut off_s) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for k in 0..pairs {
        if k % 2 == 0 {
            on_s.push(time(&mut on));
            off_s.push(time(&mut off));
        } else {
            off_s.push(time(&mut off));
            on_s.push(time(&mut on));
        }
    }
    PairedTimes { on_s, off_s }
}

impl PairedTimes {
    /// The lower quartile, median and upper quartile of the per-pair
    /// overhead of `on` over `off`, in percent.
    #[must_use]
    pub fn overhead_quartiles(&self) -> [f64; 3] {
        let mut pct: Vec<f64> = self
            .on_s
            .iter()
            .zip(&self.off_s)
            .map(|(on, off)| (on - off) / off * 100.0)
            .collect();
        pct.sort_by(f64::total_cmp);
        [1, 2, 3].map(|q| pct[(pct.len() - 1) * q / 4])
    }

    /// `within` when the upper quartile of the overhead is inside
    /// `budget_pct`, `OVER` when the lower quartile is past it,
    /// `unresolved` otherwise.
    #[must_use]
    pub fn verdict(&self, budget_pct: f64) -> &'static str {
        match self.overhead_quartiles() {
            [_, _, hi] if hi <= budget_pct => "within",
            [lo, _, _] if lo > budget_pct => "OVER",
            _ => "unresolved",
        }
    }

    /// One line: the median paired overhead with its interquartile range
    /// and the verdict against `budget_pct`.
    #[must_use]
    pub fn summary(&self, label: &str, budget_pct: f64) -> String {
        let [lo, median, hi] = self.overhead_quartiles();
        format!(
            "{label} overhead: {median:+.2}%, IQR {lo:+.2}..{hi:+.2}% \
             ({} {budget_pct}% budget; {} interleaved pairs)",
            self.verdict(budget_pct),
            self.on_s.len()
        )
    }
}

/// Serializes a bench run as the repo's bench-trajectory JSON:
/// `{"<name>": {"min_ns_per_iter": …, "ns_per_iter": …, "per_second": …}}`,
/// keys in run order. Committed at the repo root as
/// `BENCH_platform_sim.json`, this is the baseline the CI perf-smoke step
/// guards against.
#[must_use]
pub fn bench_json(stats: &[BenchStats]) -> String {
    let mut out = String::from("{\n");
    for (i, s) in stats.iter().enumerate() {
        let sep = if i + 1 == stats.len() { "" } else { "," };
        out.push_str(&format!(
            "  \"{}\": {{\"min_ns_per_iter\": {:.1}, \"ns_per_iter\": {:.1}, \"per_second\": {:.0}}}{sep}\n",
            s.name, s.min_ns_per_iter, s.ns_per_iter, s.per_second()
        ));
    }
    out.push_str("}\n");
    out
}

/// Writes the bench-trajectory JSON to `path` and reports it on stdout.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be written.
pub fn write_bench_json(path: impl AsRef<Path>, stats: &[BenchStats]) -> io::Result<()> {
    std::fs::write(path.as_ref(), bench_json(stats))?;
    println!("bench trajectory -> {}", path.as_ref().display());
    Ok(())
}

/// Extracts `"name": {"min_ns_per_iter": X` pairs from a bench-trajectory
/// JSON body (the fixed subset [`bench_json`] emits — no general JSON
/// parser needed offline).
#[must_use]
pub fn parse_bench_json(body: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in body.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((name, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some(idx) = rest.find("\"min_ns_per_iter\":") else {
            continue;
        };
        let tail = &rest[idx + "\"min_ns_per_iter\":".len()..];
        let num: String = tail
            .chars()
            .skip_while(|c| c.is_whitespace())
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        if let Ok(v) = num.parse::<f64>() {
            out.push((name.to_owned(), v));
        }
    }
    out
}

/// Splices this run's entries into the committed bench trajectory at the
/// repo root (`BENCH_platform_sim.json`), replacing lines whose benchmark
/// name matches one of `stats` **exactly** and keeping every other
/// benchmark's line verbatim — so independent bench bins can each merge
/// their own entries without clobbering each other's.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be written.
pub fn merge_into_baseline(stats: &[BenchStats]) -> io::Result<()> {
    let path = repo_root_path("BENCH_platform_sim.json");
    let body = std::fs::read_to_string(&path).unwrap_or_else(|_| "{\n}\n".into());
    let replaced: Vec<&str> = stats.iter().map(|s| s.name.as_str()).collect();
    let mut lines: Vec<String> = body
        .lines()
        .map(str::trim)
        .filter(|l| {
            l.starts_with('"')
                && !replaced.iter().any(|name| {
                    l.strip_prefix('"')
                        .and_then(|rest| rest.split_once('"'))
                        .is_some_and(|(n, _)| n == *name)
                })
        })
        .map(|l| l.trim_end_matches(',').to_owned())
        .collect();
    for s in stats {
        lines.push(format!(
            "\"{}\": {{\"min_ns_per_iter\": {:.1}, \"ns_per_iter\": {:.1}, \"per_second\": {:.0}}}",
            s.name,
            s.min_ns_per_iter,
            s.ns_per_iter,
            s.per_second()
        ));
    }
    let mut out = String::from("{\n");
    for (i, l) in lines.iter().enumerate() {
        let sep = if i + 1 == lines.len() { "" } else { "," };
        out.push_str(&format!("  {l}{sep}\n"));
    }
    out.push_str("}\n");
    std::fs::write(&path, out)?;
    println!("bench trajectory -> {}", path.display());
    Ok(())
}

/// Compares a fresh run against a committed baseline file: prints one row
/// per shared benchmark and returns the names that regressed by more than
/// `tolerance` (e.g. `0.5` = 50% slower on the min-ns metric). Benchmarks
/// missing on either side are reported but never counted as regressions
/// (the guard is noise-tolerant by design: only a large, reproducible
/// slowdown on a known benchmark fails).
///
/// # Errors
///
/// Returns the underlying I/O error if the baseline cannot be read.
pub fn check_against(
    baseline_path: impl AsRef<Path>,
    stats: &[BenchStats],
    tolerance: f64,
) -> io::Result<Vec<String>> {
    let body = std::fs::read_to_string(baseline_path.as_ref())?;
    let baseline = parse_bench_json(&body);
    let mut regressed = Vec::new();
    println!(
        "== perf check vs {} (fail > {:.0}% on min ns/iter) ==",
        baseline_path.as_ref().display(),
        tolerance * 100.0
    );
    for s in stats {
        match baseline.iter().find(|(n, _)| n == &s.name) {
            Some((_, base_min)) if *base_min > 0.0 => {
                let delta = (s.min_ns_per_iter - base_min) / base_min;
                let verdict = if delta > tolerance { "REGRESSED" } else { "ok" };
                println!(
                    "  {:<28} base {:>10.1}  now {:>10.1}  ({:+7.1}%)  {verdict}",
                    s.name,
                    base_min,
                    s.min_ns_per_iter,
                    delta * 100.0
                );
                if delta > tolerance {
                    regressed.push(s.name.clone());
                }
            }
            _ => println!("  {:<28} (no baseline entry — skipped)", s.name),
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_coverage_baselines_parse() {
        for name in [
            "COVERAGE_fault_campaign.csv",
            "COVERAGE_sensor_datasheet.csv",
        ] {
            let body = std::fs::read_to_string(repo_root_path(name)).expect("committed baseline");
            let lost = CoverageMatrix::default()
                .regressions(&body)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            // Against an empty matrix every baseline cell reads as lost.
            assert!(!lost.is_empty(), "{name} covers no cell");
        }
    }

    #[test]
    fn coverage_gate_rejects_a_garbage_baseline() {
        let path =
            std::env::temp_dir().join(format!("coverage-garbage-{}.csv", std::process::id()));
        std::fs::write(&path, "garbage\n").expect("temp file");
        let verdict = check_coverage(
            "test",
            &CoverageMatrix::default(),
            path.to_str().expect("utf-8"),
        );
        std::fs::remove_file(&path).expect("temp file");
        let err = verdict.expect_err("garbage baseline must be an error");
        assert!(err.to_string().contains("header"), "{err}");
    }

    fn parse_for(args: &[&str], flags: &[Flag]) -> Result<Option<Args>, String> {
        Args::try_parse(args.iter().map(|s| (*s).to_owned()), flags)
    }

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_for(args, &Flag::ALL)
    }

    #[test]
    fn args_parse_the_full_shared_vocabulary() {
        let args = parse(&[
            "--threads=4",
            "--smoke",
            "--chaos",
            "--chaos-seed=99",
            "--deadline",
            "2.5",
            "--journal",
            "j.bin",
            "--checkpoint=cp.bin",
            "--resume",
            "cp.bin",
            "--check-coverage",
            "cov.csv",
        ])
        .expect("valid")
        .expect("not help");
        assert_eq!(args.threads, 4);
        assert!(args.smoke && args.chaos);
        assert_eq!(args.chaos_seed, Some(99));
        assert_eq!(args.deadline_s, Some(2.5));
        assert_eq!(args.journal.as_deref(), Some("j.bin"));
        assert_eq!(args.checkpoint.as_deref(), Some("cp.bin"));
        assert_eq!(args.resume.as_deref(), Some("cp.bin"));
        assert_eq!(args.check_coverage.as_deref(), Some("cov.csv"));
    }

    #[test]
    fn args_defaults_match_the_legacy_helpers() {
        let args = parse(&[]).expect("valid").expect("not help");
        assert_eq!(args, Args::default());
        assert_eq!(
            args.threads,
            ascp_sim::campaign::available_parallelism(),
            "default thread count is the machine's parallelism"
        );
        // `--threads 0` clamps like `threads_from_args` always has.
        let clamped = parse(&["--threads", "0"])
            .expect("valid")
            .expect("not help");
        assert_eq!(clamped.threads, 1);
    }

    #[test]
    fn args_reject_unknown_flags_and_bad_values() {
        assert!(parse(&["--frobnicate"])
            .expect_err("unknown flag")
            .contains("--frobnicate"));
        assert!(parse(&["positional"])
            .expect_err("positional")
            .contains("positional"));
        assert!(parse(&["--threads"])
            .expect_err("missing value")
            .contains("missing value"));
        assert!(parse(&["--threads", "many"])
            .expect_err("bad number")
            .contains("not a number"));
        assert!(parse(&["--deadline", "-1"])
            .expect_err("bad deadline")
            .contains("deadline"));
        // No bin reads a noise-seed override, so the flag is not accepted.
        assert!(parse(&["--seed", "5"])
            .expect_err("no --seed flag")
            .contains("--seed"));
        assert!(parse(&["--help"]).expect("help is valid").is_none());
    }

    #[test]
    fn args_check_resolves_against_the_repo_root() {
        // A relative `--check-coverage` baseline names a committed file at
        // the repo root, whatever the working directory.
        let args = parse(&["--check-coverage", "COVERAGE_fault_campaign.csv"])
            .expect("valid")
            .expect("not help");
        let baseline = args.check_coverage.expect("baseline");
        assert!(repo_root_path(&baseline).is_file(), "{baseline}");
        let usage = usage(&Flag::ALL);
        for flag in Flag::ALL {
            assert!(usage.contains(&format!("--{} ", flag.name())), "{flag:?}");
        }
        assert!(usage.contains("--help"));
    }

    #[test]
    fn args_reject_the_shared_flags_a_bin_does_not_read() {
        // `sensor_datasheet` reads these three; the journal, chaos and
        // deadline flags it would silently drop are usage errors instead.
        let flags = [Flag::Smoke, Flag::Threads, Flag::CheckCoverage];
        let args = parse_for(&["--smoke", "--threads", "2"], &flags)
            .expect("valid")
            .expect("not help");
        assert!(args.smoke);
        assert_eq!(args.threads, 2);
        for rejected in [
            &["--journal", "/nonexistent/dir/sd.journal"][..],
            &["--chaos"],
            &["--deadline=0.001"],
            &["--chaos-seed", "3"],
            &["--checkpoint", "cp.bin"],
            &["--resume", "cp.bin"],
        ] {
            let err = parse_for(rejected, &flags).expect_err("not an option of this bin");
            let name = rejected[0].split('=').next().expect("flag");
            assert!(err.contains(&format!("`{name}`")), "{err}");
        }
        // `--help` lists only the accepted flags.
        let text = usage(&flags);
        for flag in Flag::ALL {
            let listed = text.contains(&format!("--{} ", flag.name()));
            assert_eq!(listed, flags.contains(&flag), "{flag:?} in\n{text}");
        }
        assert!(parse_for(&["--help"], &flags).expect("help").is_none());
    }

    #[test]
    fn bench_reports_plausible_timing() {
        let s = bench("noop_add", || black_box(1u64) + black_box(2u64));
        assert!(
            s.ns_per_iter > 0.0 && s.ns_per_iter < 1.0e6,
            "{}",
            s.ns_per_iter
        );
        assert!(s.min_ns_per_iter <= s.ns_per_iter);
    }

    #[test]
    fn bench_json_round_trips_min_ns() {
        let stats = vec![
            BenchStats {
                name: "platform/dsp_tick_no_cpu".into(),
                iters_per_sample: 1,
                ns_per_iter: 1000.0,
                min_ns_per_iter: 950.5,
            },
            BenchStats {
                name: "mems/gyro_step".into(),
                iters_per_sample: 1,
                ns_per_iter: 60.0,
                min_ns_per_iter: 55.0,
            },
        ];
        let body = bench_json(&stats);
        let parsed = parse_bench_json(&body);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "platform/dsp_tick_no_cpu");
        assert!((parsed[0].1 - 950.5).abs() < 1e-9);
        assert!((parsed[1].1 - 55.0).abs() < 1e-9);
    }

    #[test]
    fn check_against_flags_only_large_regressions() {
        let dir = std::env::temp_dir().join("ascp_bench_check_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("baseline.json");
        let baseline = vec![
            BenchStats {
                name: "a".into(),
                iters_per_sample: 1,
                ns_per_iter: 100.0,
                min_ns_per_iter: 100.0,
            },
            BenchStats {
                name: "b".into(),
                iters_per_sample: 1,
                ns_per_iter: 100.0,
                min_ns_per_iter: 100.0,
            },
        ];
        std::fs::write(&path, bench_json(&baseline)).expect("write baseline");
        let now = vec![
            BenchStats {
                name: "a".into(),
                iters_per_sample: 1,
                ns_per_iter: 120.0,
                min_ns_per_iter: 120.0, // +20%: within tolerance
            },
            BenchStats {
                name: "b".into(),
                iters_per_sample: 1,
                ns_per_iter: 200.0,
                min_ns_per_iter: 200.0, // +100%: regression
            },
            BenchStats {
                name: "c".into(), // no baseline: skipped, not a failure
                iters_per_sample: 1,
                ns_per_iter: 1.0,
                min_ns_per_iter: 1.0,
            },
        ];
        let regressed = check_against(&path, &now, 0.5).expect("check runs");
        assert_eq!(regressed, vec!["b".to_owned()]);
        std::fs::remove_file(&path).ok();
    }
}
