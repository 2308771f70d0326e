//! Runner settings: [`CampaignOptions`], its validating builder, and the
//! deterministic worker-fault injection of a [`ChaosPlan`].

use super::{derive_seed, CampaignObserver};
use crate::platform::ConfigError;
use ascp_sim::campaign::available_parallelism;
use std::sync::Arc;

/// What the chaos plan injects into one scenario attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosInjection {
    /// No injection: the attempt runs normally.
    None,
    /// The worker panics before building the platform.
    Panic,
    /// The worker stalls: one sleep for the attempt deadline or the stall
    /// cap, whichever is shorter, then the attempt times out.
    Stall,
}

/// Deterministic worker-fault injection: the supervision layer's analogue
/// of [`FaultPlan`](ascp_sim::fault::FaultPlan).
///
/// Each scenario's injection is derived from the chaos seed and the
/// scenario's input index ([`derive_seed`]`(seed, index) % 4`: 0 panic,
/// 1 stall, else none), so a chaos campaign is reproducible at any thread
/// count. Injections apply to attempt 0 only: the retry that follows runs
/// clean with the scenario seed unchanged, so the default retry budget
/// recovers every scenario and every healthy metric is byte-identical to
/// an undisturbed run.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed the per-scenario injections derive from.
    pub seed: u64,
    /// Upper bound on a stall, seconds; a shorter attempt deadline ends
    /// the stall first.
    pub stall_cap_s: f64,
}

impl ChaosPlan {
    /// Plan with a 30 s stall cap.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            stall_cap_s: 30.0,
        }
    }

    /// Sets the stall cap (seconds).
    #[must_use]
    pub fn with_stall_cap_s(mut self, seconds: f64) -> Self {
        self.stall_cap_s = seconds;
        self
    }

    /// The injection for one `(scenario index, attempt)` pair.
    #[must_use]
    pub fn decide(&self, index: usize, attempt: u32) -> ChaosInjection {
        if attempt > 0 {
            return ChaosInjection::None;
        }
        match derive_seed(self.seed, index as u64) % 4 {
            0 => ChaosInjection::Panic,
            1 => ChaosInjection::Stall,
            _ => ChaosInjection::None,
        }
    }
}

/// Validated execution settings for a
/// [`CampaignRunner`](super::CampaignRunner).
///
/// Build them with [`CampaignOptions::builder`] and hand them to
/// [`CampaignRunner::with_options`](super::CampaignRunner::with_options).
#[derive(Clone)]
pub struct CampaignOptions {
    pub(super) threads: usize,
    pub(super) warm_start: bool,
    pub(super) tracing: bool,
    pub(super) observer: Option<Arc<dyn CampaignObserver>>,
    pub(super) max_retries: u32,
    pub(super) deadline_s: Option<f64>,
    pub(super) chaos: Option<ChaosPlan>,
}

impl std::fmt::Debug for CampaignOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignOptions")
            .field("threads", &self.threads)
            .field("warm_start", &self.warm_start)
            .field("tracing", &self.tracing)
            .field("observer", &self.observer.is_some())
            .field("max_retries", &self.max_retries)
            .field("deadline_s", &self.deadline_s)
            .field("chaos", &self.chaos.is_some())
            .finish()
    }
}

impl Default for CampaignOptions {
    /// One worker per available hardware thread; warm-start and tracing
    /// off; no observer; one immediate retry; no deadline, no chaos.
    fn default() -> Self {
        Self {
            threads: available_parallelism(),
            warm_start: false,
            tracing: false,
            observer: None,
            max_retries: 1,
            deadline_s: None,
            chaos: None,
        }
    }
}

impl CampaignOptions {
    /// Starts a validating builder from the defaults.
    #[must_use]
    pub fn builder() -> CampaignOptionsBuilder {
        CampaignOptionsBuilder {
            options: Self::default(),
        }
    }
}

/// Validating builder for [`CampaignOptions`].
///
/// Every setter stores its raw value; [`CampaignOptionsBuilder::build`]
/// validates the whole set at once and names the offending field — the
/// same [`ConfigError`] contract as
/// [`PlatformConfig::builder`](crate::platform::PlatformConfig::builder).
/// Nothing is silently clamped: `threads(0)` is an error, not a 1.
#[derive(Clone, Debug)]
pub struct CampaignOptionsBuilder {
    options: CampaignOptions,
}

impl CampaignOptionsBuilder {
    /// Worker-thread count (must be ≥ 1).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.options.threads = threads;
        self
    }

    /// Enables (or disables) the settle-checkpoint warm-start cache.
    #[must_use]
    pub fn warm_start(mut self, enabled: bool) -> Self {
        self.options.warm_start = enabled;
        self
    }

    /// Enables (or disables) span tracing (campaign → scenario → step
    /// spans in the report's [`TraceLog`](ascp_sim::telemetry::TraceLog)).
    /// Never changes simulation arithmetic.
    #[must_use]
    pub fn tracing(mut self, enabled: bool) -> Self {
        self.options.tracing = enabled;
        self
    }

    /// Installs a progress observer, called once per finished scenario
    /// (e.g. `ascp_bench::harness::ProgressLines` for one line per
    /// scenario on stdout).
    #[must_use]
    pub fn observer(mut self, observer: Arc<dyn CampaignObserver>) -> Self {
        self.options.observer = Some(observer);
        self
    }

    /// Retry budget for failed scenarios (attempts beyond the first;
    /// default 1). Retries run immediately and keep the derived seed
    /// unchanged, so a retried success is byte-identical to a first-try
    /// one.
    #[must_use]
    pub fn retries(mut self, max_retries: u32) -> Self {
        self.options.max_retries = max_retries;
        self
    }

    /// Per-attempt wall-clock deadline in seconds, finite and positive.
    /// Each worker times its own attempt and cancels it at the next check
    /// point past the limit: step boundaries, tick loops every 1024
    /// ticks, run chunks every 4096. The attempt is recorded as
    /// [`ScenarioError::TimedOut`](super::ScenarioError::TimedOut). Time
    /// spent on the warm-start cache (running or waiting for a shared
    /// settle prefix) is off the clock.
    #[must_use]
    pub fn deadline_s(mut self, seconds: f64) -> Self {
        self.options.deadline_s = Some(seconds);
        self
    }

    /// Installs a deterministic chaos plan (seeded worker panics and
    /// stalls); see [`ChaosPlan`].
    #[must_use]
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.options.chaos = Some(plan);
        self
    }

    /// Validates and returns the options.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] naming the offending field: zero threads, a
    /// non-finite or non-positive deadline, or a chaos plan with a
    /// negative / non-finite stall cap.
    pub fn build(self) -> Result<CampaignOptions, ConfigError> {
        let o = &self.options;
        if o.threads == 0 {
            return Err(ConfigError::new("threads: must be at least 1"));
        }
        if let Some(d) = o.deadline_s {
            if !d.is_finite() || d <= 0.0 {
                return Err(ConfigError::new(format!(
                    "deadline_s: must be finite and > 0 (got {d})"
                )));
            }
        }
        if let Some(plan) = &o.chaos {
            if !plan.stall_cap_s.is_finite() || plan.stall_cap_s < 0.0 {
                return Err(ConfigError::new(format!(
                    "chaos.stall_cap_s: must be finite and ≥ 0 (got {})",
                    plan.stall_cap_s
                )));
            }
        }
        Ok(self.options)
    }
}
