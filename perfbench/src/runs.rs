//! Timed and traced runs of one workload.

use crate::host;
use crate::observe::{add_scenario_spans, Finished, ScenarioLog};
use crate::output::{peak_rss_mib, Manifest, ResultLine, PER_LAYER};
use crate::probe;
use crate::stats::{median, tail};
use crate::workload::{evaluate, execute, setup, Batch, Expect, Prepared, Size, Verdict, Workload};
use ascp_core::campaign::ScenarioOutcome;
use ascp_sim::telemetry::trace::TraceCollector;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Batches run even when they overrun the requested seconds.
pub const MIN_BATCHES: usize = 3;
/// Upper bound on batches per run.
const MAX_BATCHES: usize = 10_000;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: the only source of the generated inputs.
    pub seed: u64,
    /// Measuring seconds.
    pub seconds: f64,
    /// Batch size.
    pub size: Size,
    /// Directory for the journal, span file and manifest.
    pub out: PathBuf,
}

/// A finished run: the result line, its manifest, and every failure.
#[derive(Debug, Clone)]
pub struct Report {
    /// The result line.
    pub result: ResultLine,
    /// The run manifest.
    pub manifest: Manifest,
    /// `scenario: reason` for each failed acceptance check.
    pub failures: Vec<String>,
    /// Span file written by a traced run.
    pub spans: Option<PathBuf>,
    /// Wall seconds of each (untraced) batch, in run order, as measured.
    pub walls: Vec<f64>,
    /// Set-up seconds of each batch of a timed run, in run order, as
    /// measured.
    pub setups: Vec<f64>,
    /// Reference-kernel seconds, measured before the first batch and
    /// after every batch ([`host::reference_s`]).
    pub refs: Vec<f64>,
}

/// Acceptance results summed over a run's batches.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    last: Verdict,
}

impl Tally {
    fn add(&mut self, v: Verdict) {
        self.attempted += v.attempted;
        self.failed += v.failed();
        self.failures.extend(
            v.failures
                .iter()
                .map(|(name, why)| format!("{name}: {why}")),
        );
        self.last = v;
    }
}

/// Each of `xs` scaled to the nominal host speed: `xs[k]` ran between
/// the reference measurements `refs[k]` and `refs[k + 1]`.
fn scaled(xs: &[f64], refs: &[f64]) -> Vec<f64> {
    xs.iter()
        .zip(refs.windows(2))
        .map(|(&x, r)| host::scaled(x, r[0], r[1]))
        .collect()
}

/// Whether the run should stop after a batch that started at `batch`.
fn finished(start: Instant, batch: Instant, batches: usize, seconds: f64) -> bool {
    let next_ends = start.elapsed().as_secs_f64() + batch.elapsed().as_secs_f64();
    batches >= MAX_BATCHES || (batches >= MIN_BATCHES && next_ends > seconds)
}

fn prepare(cfg: &RunConfig, log: &Arc<ScenarioLog>) -> Result<Prepared, String> {
    setup(cfg.workload, cfg.seed, cfg.size, log.clone(), &cfg.out)
}

/// Runs one batch and checks it.
fn batch(
    cfg: &RunConfig,
    prep: Prepared,
    tally: &mut Tally,
    rec: Option<&mut ascp_sim::telemetry::trace::TraceRecorder>,
) -> Result<Batch, String> {
    let expect: Expect = prep.expect.clone();
    let b = execute(prep, rec)?;
    tally.add(evaluate(&expect, cfg.size, &b));
    Ok(b)
}

fn manifest(cfg: &RunConfig, trace: bool, tally: &Tally, walls: &[f64], refs: &[f64]) -> Manifest {
    let mut m = Manifest::host(cfg.workload.name(), cfg.seed, trace, cfg.seconds);
    m.batches = walls.len();
    m.scenarios = tally.last.attempted;
    m.sim_s = tally.last.sim_s;
    m.measured_wall_s = median(walls);
    m.ref_ms = median(refs) * 1.0e3;
    m
}

fn result(tally: &Tally, metrics: Vec<(String, f64)>) -> ResultLine {
    ResultLine {
        correct: tally.failed == 0 && tally.attempted > 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}

/// The timed run: batches of set-up, campaign call and CSV for
/// `cfg.seconds`, reporting the end-to-end metrics. Each batch is set up
/// once, right after the previous batch, and that one set-up is timed.
/// The reference kernel runs before the first batch and after every
/// batch; `setup_s` and `wall_s` are the medians over the run's batches
/// of their times scaled to the nominal host speed (see [`host`]).
///
/// # Errors
///
/// A set-up or journal failure (not a failed scenario: those are counted).
pub fn timed(cfg: &RunConfig) -> Result<Report, String> {
    let log = Arc::new(ScenarioLog::default());
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut refs = vec![host::reference_s()];
    let mut tally = Tally::default();
    loop {
        let t_batch = Instant::now();
        let prep = prepare(cfg, &log)?;
        setups.push(t_batch.elapsed().as_secs_f64());
        walls.push(batch(cfg, prep, &mut tally, None)?.wall_s);
        log.drain();
        refs.push(host::reference_s());
        if finished(start, t_batch, walls.len(), cfg.seconds) {
            break;
        }
    }
    let pass = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
    let metrics = vec![
        ("setup_s".into(), median(&scaled(&setups, &refs))),
        ("wall_s".into(), median(&scaled(&walls, &refs))),
        ("peak_rss_mb".into(), peak_rss_mib()),
        ("pass_frac".into(), pass),
    ];
    Ok(Report {
        result: result(&tally, metrics),
        manifest: manifest(cfg, false, &tally, &walls, &refs),
        failures: tally.failures,
        spans: None,
        walls,
        setups,
        refs,
    })
}

/// Per-batch observations of the traced run.
#[derive(Default)]
struct Traced {
    plain_walls: Vec<f64>,
    traced_walls: Vec<f64>,
    /// Reference-kernel seconds before the first batch and after each
    /// batch, untraced and traced alternately.
    refs: Vec<f64>,
    /// Scenario samples of one batch, and each batch's median and tail.
    scenarios_per_batch: usize,
    scenario_p50_ms: Vec<f64>,
    scenario_tail_ms: Vec<f64>,
    tail_pct: f64,
    overhead_ms: Vec<f64>,
    csv_ms: Vec<f64>,
    lane_tick_ns: Vec<f64>,
    speedup: Vec<f64>,
    finished: Vec<Vec<Finished>>,
    warm_hits: usize,
    scenarios: usize,
    retries: u64,
    poisoned: usize,
}

/// The traced run: untraced and traced batches alternate for
/// `cfg.seconds` with identical campaign options; traced batches record
/// spans around set-up, the campaign call, the channels and the CSV, and a
/// span per scenario from the observer. Layer probes follow. Reports the
/// per-layer metrics and writes the span file. The untraced wall time and
/// the tracing overhead are scaled to the nominal host speed, like
/// `wall_s`; every other host time is as measured, and `host.ref_ms`
/// states how fast the host ran.
///
/// # Errors
///
/// A set-up, journal, probe or span-file failure.
#[allow(clippy::too_many_lines)]
pub fn traced(cfg: &RunConfig) -> Result<Report, String> {
    let log = Arc::new(ScenarioLog::default());
    let epoch = Instant::now();
    let collector = TraceCollector::new();
    let mut rec = collector.recorder(0);
    let root = rec.begin(format!("workload:{}", cfg.workload.name()), 0.0);
    let start = Instant::now();
    let mut t = Traced::default();
    let mut tally = Tally::default();
    let mut outcomes: Vec<ScenarioOutcome>;
    t.refs.push(host::reference_s());
    loop {
        let t_batch = Instant::now();
        let prep = prepare(cfg, &log)?;
        t.plain_walls
            .push(batch(cfg, prep, &mut tally, None)?.wall_s);
        t.refs.push(host::reference_s());
        log.drain();

        let id = rec.begin("setup", 0.0);
        let prep = prepare(cfg, &log)?;
        rec.end(id, 0.0);
        let b = batch(cfg, prep, &mut tally, Some(&mut rec))?;
        t.refs.push(host::reference_s());
        let fin = log.drain();
        let scenario_ms: Vec<f64> = fin.iter().map(|f| f.progress.wall_ms).collect();
        let spans_ms: f64 = scenario_ms.iter().sum();
        t.traced_walls.push(b.wall_s);
        // Percentiles are taken within one batch, so the sample count and
        // the percentile depend only on the workload, never on how many
        // batches fit the run. Fewer than 20 samples leave no percentile
        // above the median with ten beyond it: the tail falls back to the
        // median, and `scenario_tail_pct` says so.
        let p50 = median(&scenario_ms);
        let (tail_ms, pct) = tail(&scenario_ms)
            .filter(|tl| tl.pct > 50.0)
            .map_or((p50, 50.0), |tl| (tl.value, tl.pct));
        t.scenarios_per_batch = scenario_ms.len();
        t.scenario_p50_ms.push(p50);
        t.scenario_tail_ms.push(tail_ms);
        t.tail_pct = pct;
        t.overhead_ms.push(b.campaign_s * 1.0e3 - spans_ms);
        t.csv_ms.push(b.csv_s * 1.0e3);
        if let Some((lanes, ticks)) = tally.last.lane_ticks {
            let lane_ns = spans_ms * 1.0e6 / (lanes as f64 * ticks as f64);
            t.lane_tick_ns.push(lane_ns);
            t.speedup
                .push(probe::scalar_tick_ns(cfg.seed, &mut rec)? / lane_ns);
        }
        t.finished.push(fin);
        t.warm_hits += b.report.warm_hits;
        t.scenarios += b.report.outcomes.len();
        t.retries += b.report.retries_total();
        t.poisoned += b.report.poisoned();
        outcomes = b.report.outcomes;
        if finished(start, t_batch, t.traced_walls.len(), cfg.seconds) {
            break;
        }
    }

    let id = rec.begin("probes", 0.0);
    let specs = prepare(cfg, &log)?.specs;
    let layer = probe::run(
        cfg.workload,
        cfg.seed,
        &specs,
        &outcomes,
        &cfg.out,
        &mut rec,
    )?;
    rec.end(id, 0.0);
    rec.end(root, 0.0);
    collector.merge(rec);
    let mut spans = collector.into_log();
    let campaigns: Vec<u64> = spans
        .spans
        .iter()
        .filter(|s| s.label == "campaign")
        .map(|s| s.id)
        .collect();
    for (parent, fin) in campaigns.iter().zip(&t.finished) {
        add_scenario_spans(&mut spans, epoch, *parent, fin);
    }
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let span_path = cfg
        .out
        .join(format!("{}.s{}.trace.json", cfg.workload.name(), cfg.seed));
    std::fs::write(&span_path, spans.to_chrome_json())
        .map_err(|e| format!("{}: {e}", span_path.display()))?;

    // A layer the workload does not exercise (no population, no fault
    // detections) reads 0.
    let max_or_zero = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max);
    let median_or_zero = |xs: &[f64]| if xs.is_empty() { 0.0 } else { median(xs) };
    let detect = &tally.last.detect_ms;
    let accuracy = |what: &str| {
        tally
            .last
            .accuracy
            .iter()
            .find(|a| a.0 == what)
            .map_or(0.0, |a| a.1)
    };
    // Untraced batch k ran between references 2k and 2k+1, traced batch
    // k between 2k+1 and 2k+2.
    let r = &t.refs;
    let scale = |walls: &[f64], first: usize| -> Vec<f64> {
        walls
            .iter()
            .enumerate()
            .map(|(k, &w)| host::scaled(w, r[2 * k + first], r[2 * k + first + 1]))
            .collect()
    };
    let untraced = median(&scale(&t.plain_walls, 0));
    let mut metrics: Vec<(String, f64)> = vec![
        ("campaign.scenarios".into(), t.scenarios_per_batch as f64),
        (
            "campaign.scenario_ms_p50".into(),
            median(&t.scenario_p50_ms),
        ),
        (
            "campaign.scenario_ms_p90".into(),
            median(&t.scenario_tail_ms),
        ),
        ("campaign.scenario_tail_pct".into(), t.tail_pct),
        ("campaign.overhead_ms".into(), median(&t.overhead_ms)),
        (
            "campaign.warm_hit_ratio".into(),
            t.warm_hits as f64 / t.scenarios.max(1) as f64,
        ),
        ("campaign.retries".into(), t.retries as f64),
        ("campaign.poisoned".into(), t.poisoned as f64),
    ];
    metrics.extend(layer);
    metrics.push(("fleet.lane_tick_ns".into(), median_or_zero(&t.lane_tick_ns)));
    metrics.push(("fleet.speedup".into(), median_or_zero(&t.speedup)));
    metrics.push(("supervisor.detect_ms_p50".into(), median_or_zero(detect)));
    metrics.push(("supervisor.detect_ms_max".into(), max_or_zero(detect)));
    metrics.push((
        "frontend.detect_ms_max".into(),
        max_or_zero(&tally.last.channel_detect_ms),
    ));
    metrics.push(("report.csv_ms".into(), median(&t.csv_ms)));
    for what in [
        "sensitivity_err_pct",
        "noise_density_err_pct",
        "nonlinearity_of_max_pct",
        "turn_on_err_pct",
    ] {
        metrics.push((format!("accuracy.{what}"), accuracy(what)));
    }
    metrics.push((
        "trace.overhead_s".into(),
        median(&scale(&t.traced_walls, 1)) - untraced,
    ));
    metrics.push(("trace.untraced_wall_s".into(), untraced));
    metrics.push(("host.ref_ms".into(), median(r) * 1.0e3));
    metrics.sort_by_key(|(name, _)| PER_LAYER.iter().position(|m| m.0 == name));
    Ok(Report {
        result: result(&tally, metrics),
        manifest: manifest(cfg, true, &tally, &t.plain_walls, &t.refs),
        failures: tally.failures,
        spans: Some(span_path),
        walls: t.plain_walls,
        setups: Vec::new(),
        refs: t.refs,
    })
}

/// Writes the manifest and result beside the span file, as
/// `<workload>.s<seed>.t<0|1>.json`.
///
/// # Errors
///
/// The file cannot be written.
pub fn write_record(out: &Path, report: &Report) -> Result<PathBuf, String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let m = &report.manifest;
    let path = out.join(format!(
        "{}.s{}.t{}.json",
        m.workload,
        m.seed,
        u8::from(m.trace)
    ));
    let body = format!(
        "{{\"manifest\": {}, \"result\": {}}}\n",
        m.to_json(),
        report.result.to_json()
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}
