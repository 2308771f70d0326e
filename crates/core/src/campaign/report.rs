//! What a campaign produces: per-scenario outcomes and their supervision
//! taxonomy, the merged [`CampaignReport`] with its CSV and telemetry
//! renderings, and the per-scenario progress records an observer sees.

use ascp_sim::telemetry::trace::TraceLog;
use ascp_sim::telemetry::{CaptureBundle, Telemetry, TelemetryConfig, TelemetrySnapshot};

/// Why one attempt of a scenario failed (the supervision taxonomy).
///
/// Failed attempts are retried with the scenario's seed unchanged (see
/// [`derive_seed`](super::derive_seed)), so a retry that succeeds is byte-identical to a
/// first-try success; a scenario that exhausts its retries is quarantined
/// as [`ScenarioStatus::Poisoned`] with its attempt errors preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The scenario's worker panicked; the payload is captured as text.
    Panicked {
        /// Panic payload rendered as text.
        message: String,
    },
    /// The scenario overran the campaign's per-attempt wall-clock
    /// deadline and its worker cancelled it at the next check point (or a
    /// chaos stall ran out). Carries the *configured* limit, not the
    /// measured wall time, so reports stay deterministic.
    TimedOut {
        /// The deadline that was enforced, seconds.
        deadline_s: f64,
    },
    /// The worker pool returned no result for this scenario (a worker
    /// died without reporting; should be unreachable).
    Missing,
}

impl ScenarioError {
    /// Stable taxonomy label (CSV, telemetry, trace annotations).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Panicked { .. } => "panicked",
            Self::TimedOut { .. } => "timed_out",
            Self::Missing => "missing",
        }
    }

    /// Numeric code for the `scenario_error` CSV row (1/2/3).
    #[must_use]
    pub fn code(&self) -> f64 {
        match self {
            Self::Panicked { .. } => 1.0,
            Self::TimedOut { .. } => 2.0,
            Self::Missing => 3.0,
        }
    }
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Panicked { message } => write!(f, "scenario panicked: {message}"),
            Self::TimedOut { deadline_s } => {
                write!(f, "scenario overran its {deadline_s} s deadline")
            }
            Self::Missing => write!(f, "scenario produced no result"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Terminal supervision state of a scenario.
///
/// The per-scenario FSM is `Queued → Running → {Done, Retrying(n) →
/// Running, TimedOut → Retrying, Poisoned}`; only the two terminal states
/// appear in outcomes — everything in between is visible through
/// [`ScenarioOutcome::attempt_errors`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScenarioStatus {
    /// The scenario completed (possibly after retries) and its metrics
    /// are trustworthy.
    #[default]
    Done,
    /// The scenario failed every attempt and was quarantined; it carries
    /// no metrics, only its error history.
    Poisoned,
}

impl ScenarioStatus {
    /// Stable label for the CSV `status` column (`ok` / `poisoned`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Done => "ok",
            Self::Poisoned => "poisoned",
        }
    }
}

/// Measured result of one scenario. The default is an unnamed,
/// measurement-free `Done` outcome.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioOutcome {
    /// Scenario name (copied from the spec).
    pub name: String,
    /// Input index in the campaign's scenario list.
    pub index: usize,
    /// Effective noise seed the platform ran with.
    pub seed: u64,
    /// Named metrics in measurement order.
    pub metrics: Vec<(String, f64)>,
    /// Named sample series (e.g. zero-rate captures).
    pub series: Vec<(String, Vec<f64>)>,
    /// Fault-class labels injected in this scenario, deduplicated in
    /// catalog order (coverage-matrix rows).
    pub fault_classes: Vec<&'static str>,
    /// Supervisor `(from, to)` transitions observed, in order
    /// (coverage-matrix columns; see
    /// [`Platform::transitions`](crate::platform::Platform::transitions)).
    pub transitions: Vec<(&'static str, &'static str)>,
    /// Flight-recorder capture, when the scenario armed a recorder and a
    /// trigger fired. Captures are **not** journaled: a resumed campaign
    /// reloads every other field of a completed scenario, but not this
    /// one (the `recorder_triggered` metric survives, so the CSV and
    /// telemetry artifacts are unaffected).
    pub capture: Option<CaptureBundle>,
    /// Errors of the failed attempts that preceded this outcome, in
    /// attempt order. Empty for a first-try success; for a
    /// [`ScenarioStatus::Poisoned`] scenario it holds every attempt.
    pub attempt_errors: Vec<ScenarioError>,
    /// Terminal supervision status.
    pub status: ScenarioStatus,
}

impl ScenarioOutcome {
    /// Retries performed (attempts beyond the first).
    #[must_use]
    pub fn retries(&self) -> usize {
        match self.status {
            ScenarioStatus::Done => self.attempt_errors.len(),
            ScenarioStatus::Poisoned => self.attempt_errors.len().saturating_sub(1),
        }
    }

    /// `true` when the scenario exhausted its retries.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.status == ScenarioStatus::Poisoned
    }

    /// Looks up a metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a sample series by name.
    #[must_use]
    pub fn series(&self, name: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_slice())
    }
}

/// Merged result of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-scenario outcomes, in input order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Worker threads the campaign ran on (not part of the deterministic
    /// artifacts).
    pub threads: usize,
    /// Wall-clock duration, seconds (not part of the deterministic
    /// artifacts).
    pub wall_s: f64,
    /// Scenarios that restored a cached settle checkpoint instead of
    /// re-running their settle prefix (0 when warm-start is off). Counted
    /// once per completed scenario, from its final attempt; a poisoned
    /// scenario never counts.
    pub warm_hits: usize,
    /// Scenarios loaded from a journal instead of executed (0 unless the
    /// report came from [`CampaignRunner::resume`](super::CampaignRunner::resume);
    /// not part of the deterministic artifacts).
    pub resumed: usize,
    /// Merged span trace (present when the runner had tracing enabled).
    /// Wall-clock bounds inside are not part of the deterministic
    /// artifacts; the span structure and sim-time bounds are.
    pub trace: Option<TraceLog>,
}

impl CampaignReport {
    /// Looks up one metric of one scenario.
    #[must_use]
    pub fn metric(&self, scenario: &str, metric: &str) -> Option<f64> {
        self.outcomes
            .iter()
            .find(|o| o.name == scenario)
            .and_then(|o| o.metric(metric))
    }

    /// Looks up one sample series of one scenario.
    #[must_use]
    pub fn series(&self, scenario: &str, series: &str) -> Option<&[f64]> {
        self.outcomes
            .iter()
            .find(|o| o.name == scenario)
            .and_then(|o| o.series(series))
    }

    /// Total retry attempts across the campaign (the
    /// `campaign.retries_total` counter of [`CampaignReport::to_telemetry`]).
    #[must_use]
    pub fn retries_total(&self) -> u64 {
        self.outcomes.iter().map(|o| o.retries() as u64).sum()
    }

    /// Total timed-out attempts (the `campaign.timeouts_total` counter).
    #[must_use]
    pub fn timeouts_total(&self) -> u64 {
        self.attempt_error_count(|e| matches!(e, ScenarioError::TimedOut { .. }))
    }

    /// Total panicked attempts (the `campaign.panics_total` counter).
    #[must_use]
    pub fn panics_total(&self) -> u64 {
        self.attempt_error_count(|e| matches!(e, ScenarioError::Panicked { .. }))
    }

    fn attempt_error_count(&self, pred: impl Fn(&ScenarioError) -> bool) -> u64 {
        self.outcomes
            .iter()
            .flat_map(|o| &o.attempt_errors)
            .filter(|e| pred(e))
            .count() as u64
    }

    /// Scenarios quarantined after exhausting their retries.
    #[must_use]
    pub fn poisoned(&self) -> usize {
        self.outcomes.iter().filter(|o| o.failed()).count()
    }

    /// Names of the quarantined scenarios, in input order.
    #[must_use]
    pub fn failed_scenarios(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| o.failed())
            .map(|o| o.name.as_str())
            .collect()
    }

    /// Long-format CSV (`scenario,metric,value,status`), bit-identical
    /// for any worker-thread count.
    ///
    /// Metric rows of a completed scenario carry status `ok` — including
    /// scenarios that succeeded on a retry, whose rows are byte-identical
    /// to a first-try run. A poisoned scenario has no metric rows; it
    /// contributes `scenario_error` (the last error's
    /// [`ScenarioError::code`]) and `scenario_attempts` rows with status
    /// `poisoned`, so partial results ship instead of aborting the
    /// artifact.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut csv = String::from("scenario,metric,value,status\n");
        for o in &self.outcomes {
            let status = o.status.label();
            for (name, value) in &o.metrics {
                csv.push_str(&format!("{},{name},{value},{status}\n", o.name));
            }
            if o.failed() {
                let code = o.attempt_errors.last().map_or(0.0, ScenarioError::code);
                csv.push_str(&format!("{},scenario_error,{code},{status}\n", o.name));
                csv.push_str(&format!(
                    "{},scenario_attempts,{},{status}\n",
                    o.name,
                    o.attempt_errors.len()
                ));
            }
        }
        csv
    }

    /// Merges every scenario's metrics into one telemetry snapshot
    /// (gauge `"<scenario>.<metric>"`), with the wall clock zeroed so the
    /// JSON export is bit-identical for any worker-thread count.
    #[must_use]
    pub fn to_telemetry(&self) -> TelemetrySnapshot {
        let mut tel = Telemetry::new(TelemetryConfig::default());
        tel.counter_set("campaign.scenarios", self.outcomes.len() as u64);
        tel.counter_set("campaign.retries_total", self.retries_total());
        tel.counter_set("campaign.timeouts_total", self.timeouts_total());
        tel.counter_set("campaign.panics_total", self.panics_total());
        tel.counter_set("campaign.poisoned_scenarios", self.poisoned() as u64);
        for o in &self.outcomes {
            for (name, value) in &o.metrics {
                tel.gauge_set(format!("{}.{name}", o.name), *value);
            }
        }
        let mut snap = tel.snapshot(0.0);
        // The collector stamps real wall time; zero it so the JSON export
        // is byte-stable across runs and thread counts.
        snap.wall_time_s = 0.0;
        snap
    }

    /// Builds the fault-class × transition coverage matrix over this
    /// report's outcomes (see [`crate::coverage`]).
    #[must_use]
    pub fn coverage(&self) -> crate::coverage::CoverageMatrix {
        crate::coverage::CoverageMatrix::from_outcomes(&self.outcomes)
    }
}

/// One scenario's progress record, handed to the [`CampaignObserver`] as
/// the scenario finishes. `Display` renders it as one progress line; its
/// name column fits the longest name the repo's campaigns emit (33 chars).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioProgress {
    /// Input index of the finished scenario.
    pub index: usize,
    /// Total scenarios in the campaign.
    pub total: usize,
    /// Scenario name.
    pub name: String,
    /// Wall-clock time this scenario took, milliseconds.
    pub wall_ms: f64,
    /// Warm-start result: `Some(true)` hit, `Some(false)` miss, `None`
    /// when the cache is off.
    pub warm: Option<bool>,
    /// Whether the scenario's flight recorder froze a capture.
    pub triggered: bool,
    /// Scenarios finished so far (completion order, not input order).
    pub completed: usize,
    /// Retry attempts this scenario needed (0 on a first-try success).
    pub retries: usize,
    /// Terminal supervision status.
    pub status: ScenarioStatus,
}

impl std::fmt::Display for ScenarioProgress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:>2}/{}] {:<33} {:>8.1} ms",
            self.completed, self.total, self.name, self.wall_ms
        )?;
        match self.warm {
            Some(true) => write!(f, "  warm=hit ")?,
            Some(false) => write!(f, "  warm=miss")?,
            None => {}
        }
        write!(f, "  trigger={}", if self.triggered { "y" } else { "n" })?;
        if self.retries > 0 {
            write!(f, "  retries={}", self.retries)?;
        }
        if self.status == ScenarioStatus::Poisoned {
            write!(f, "  POISONED")?;
        }
        Ok(())
    }
}

/// Receives per-scenario progress callbacks from a running campaign (e.g.
/// `ascp_bench::harness::ProgressLines`, which prints one line per
/// scenario). Callbacks arrive from worker threads in completion order.
pub trait CampaignObserver: Send + Sync {
    /// Called once per scenario, as it finishes.
    fn scenario_finished(&self, progress: &ScenarioProgress);
}
