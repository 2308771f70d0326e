//! Observation from outside the program: a campaign observer that logs each
//! finished scenario, and the span file built from it.

use ascp_core::campaign::{CampaignObserver, ScenarioProgress};
use ascp_sim::telemetry::trace::{TraceLog, TraceSpan};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One finished scenario as the observer saw it.
#[derive(Debug, Clone)]
pub struct Finished {
    /// When the callback arrived.
    pub at: Instant,
    /// The runner's progress record (name, wall time, warm hit or miss).
    pub progress: ScenarioProgress,
}

/// Logs every `scenario_finished` callback. Attached to the timed and the
/// traced runs alike, so both run with identical campaign options.
#[derive(Debug, Default)]
pub struct ScenarioLog {
    finished: Mutex<Vec<Finished>>,
}

impl ScenarioLog {
    /// Takes the scenarios logged since the last call.
    pub fn drain(&self) -> Vec<Finished> {
        std::mem::take(&mut *self.finished.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl CampaignObserver for ScenarioLog {
    fn scenario_finished(&self, progress: &ScenarioProgress) {
        let at = Instant::now();
        self.finished
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Finished {
                at,
                progress: progress.clone(),
            });
    }
}

/// Appends one span per finished scenario under the campaign span
/// `parent`. A scenario span ends when its callback arrived and starts
/// `wall_ms` earlier; it is annotated with the warm-cache result. `epoch`
/// must be the instant the trace collector was created.
pub fn add_scenario_spans(log: &mut TraceLog, epoch: Instant, parent: u64, finished: &[Finished]) {
    let track = 1 + (parent & 0xffff_ffff);
    for (serial, f) in finished.iter().enumerate() {
        let end_ns = f.at.saturating_duration_since(epoch).as_nanos() as u64;
        let len_ns = (f.progress.wall_ms * 1.0e6) as u64;
        let mut args = vec![("index".to_owned(), f.progress.index.to_string())];
        if let Some(hit) = f.progress.warm {
            args.push(("warm".into(), if hit { "hit" } else { "miss" }.into()));
        }
        if f.progress.retries > 0 {
            args.push(("retries".into(), f.progress.retries.to_string()));
        }
        log.spans.push(TraceSpan {
            id: (track << 32) | (serial as u64 + 1),
            parent,
            label: format!("scenario:{}", f.progress.name),
            track,
            wall_start_ns: end_ns.saturating_sub(len_ns),
            wall_end_ns: end_ns,
            sim_start_s: 0.0,
            sim_end_s: 0.0,
            args,
        });
    }
}
