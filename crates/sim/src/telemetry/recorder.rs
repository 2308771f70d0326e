//! Black-box flight recorder: a pre-trigger ring of platform signals.
//!
//! Aircraft flight recorders keep the *last* N seconds, not the first: by
//! the time you know something went wrong it is too late to start
//! recording. This module is that idea for the simulated platform. While
//! armed, the driver pushes one [`SignalFrame`] per DSP tick into a
//! fixed-capacity ring (oldest evicted). When a trigger fires — SafeState
//! entry, the supervisor leaving Normal, or a plausibility-check episode
//! opening — the ring freezes and [`FlightRecorder::freeze`] assembles a
//! bounded [`CaptureBundle`]: the pre-trigger samples, the last
//! [`CAPTURE_EVENTS`] telemetry events, and a dump of the DSP register
//! file. A failing campaign scenario therefore produces a waveform
//! artifact instead of a bare metric.
//!
//! The recorder is observability only: it is *not* part of checkpoint
//! state (matching [`Telemetry`](super::Telemetry), which checkpoints also
//! skip), and its configuration is excluded from the platform config
//! digest, so arming it never invalidates warm-start caches or changes
//! simulation arithmetic.

use super::export::{event_json, json_escape, json_f64};
use super::Event;
use std::fmt::Write as _;

/// Most recent telemetry events copied into a capture bundle.
pub const CAPTURE_EVENTS: usize = 64;

/// Flight-recorder settings. The default is disarmed (`capacity == 0`).
///
/// An armed recorder freezes on all three fault triggers, in severity
/// order: SafeState entry, then the supervisor leaving Normal, then a
/// plausibility-check episode opening (`FaultDetected`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecorderConfig {
    /// Pre-trigger ring size in frames (one frame per DSP tick); `0`
    /// disarms the recorder entirely.
    pub capacity: usize,
}

impl RecorderConfig {
    /// A recorder of `capacity` frames armed on every fault trigger.
    #[must_use]
    pub fn fault_triggers(capacity: usize) -> Self {
        Self { capacity }
    }

    /// `true` when the ring should record (non-zero capacity).
    #[must_use]
    pub fn armed(&self) -> bool {
        self.capacity > 0
    }
}

/// One per-tick sample of the platform's key signals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalFrame {
    /// Simulation time, seconds.
    pub t: f64,
    /// Decoded rate output, °/s.
    pub rate_dps: f64,
    /// Demodulated in-phase (rate) channel, Q15 as `f64`.
    pub demod_i: f64,
    /// Demodulated quadrature channel, Q15 as `f64`.
    pub demod_q: f64,
    /// AGC drive amplitude (normalized).
    pub agc_drive: f64,
    /// Supervisor state code (see `SupervisorState::code`).
    pub supervisor_state: u8,
}

/// The frozen artifact: pre-trigger samples + events + register dump.
#[derive(Debug, Clone, PartialEq)]
pub struct CaptureBundle {
    /// Which trigger fired (`"safe_state"`, `"degraded"`, `"check_fail"`).
    pub cause: &'static str,
    /// Simulation time of the trigger, seconds.
    pub t_trigger: f64,
    /// Ring contents at the trigger, oldest first.
    pub frames: Vec<SignalFrame>,
    /// Most recent telemetry events at the trigger, oldest first.
    pub events: Vec<Event>,
    /// Key register values at the trigger (`("dsp.status", 0x0007)`, …).
    pub registers: Vec<(String, u16)>,
}

impl CaptureBundle {
    /// Serializes the bundle as a self-contained JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(64 * self.frames.len() + 1024);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"cause\": \"{}\",", json_escape(self.cause));
        let _ = writeln!(s, "  \"t_trigger_s\": {},", json_f64(self.t_trigger));
        s.push_str("  \"registers\": {");
        let items: Vec<String> = self
            .registers
            .iter()
            .map(|(n, v)| format!("\"{}\": {v}", json_escape(n)))
            .collect();
        s.push_str(&items.join(", "));
        s.push_str("},\n");
        s.push_str("  \"events\": [");
        let items: Vec<String> = self.events.iter().map(event_json).collect();
        s.push_str(&items.join(", "));
        s.push_str("],\n");
        s.push_str(
            "  \"frame_columns\": [\"t\", \"rate_dps\", \"demod_i\", \"demod_q\", \
             \"agc_drive\", \"supervisor_state\"],\n",
        );
        s.push_str("  \"frames\": [\n");
        let rows: Vec<String> = self
            .frames
            .iter()
            .map(|f| {
                format!(
                    "    [{}, {}, {}, {}, {}, {}]",
                    json_f64(f.t),
                    json_f64(f.rate_dps),
                    json_f64(f.demod_i),
                    json_f64(f.demod_q),
                    json_f64(f.agc_drive),
                    f.supervisor_state
                )
            })
            .collect();
        s.push_str(&rows.join(",\n"));
        s.push_str("\n  ]\n}\n");
        s
    }
}

/// Fixed-capacity pre-trigger signal ring with freeze-on-trigger semantics.
///
/// The ring is a fixed set of slots and a head index: a frame overwrites
/// the oldest slot in place, and only [`FlightRecorder::freeze`] puts the
/// frames in order.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    /// Recorded frames, at most `capacity`, in the order written until
    /// the ring is full.
    slots: Vec<SignalFrame>,
    /// Once the ring is full: the slot holding the oldest frame, which the
    /// next frame overwrites. Zero until then.
    head: usize,
    capture: Option<CaptureBundle>,
    frames_recorded: u64,
}

impl FlightRecorder {
    /// A recorder with the given configuration (ring pre-allocated).
    #[must_use]
    pub fn new(config: RecorderConfig) -> Self {
        Self {
            slots: Vec::with_capacity(config.capacity.min(65_536)),
            head: 0,
            capacity: config.capacity,
            capture: None,
            frames_recorded: 0,
        }
    }

    /// `true` once a trigger has frozen the ring.
    #[must_use]
    pub fn is_frozen(&self) -> bool {
        self.capture.is_some()
    }

    /// Frames ever pushed (including evicted ones).
    #[must_use]
    pub fn frames_recorded(&self) -> u64 {
        self.frames_recorded
    }

    /// Pushes one frame, evicting the oldest when full. No-op once frozen.
    pub fn record(&mut self, frame: SignalFrame) {
        if self.capture.is_some() || self.capacity == 0 {
            return;
        }
        if self.slots.len() < self.capacity {
            self.slots.push(frame);
        } else {
            self.slots[self.head] = frame;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
        self.frames_recorded += 1;
    }

    /// Freezes the ring into a capture bundle. The first trigger wins;
    /// later calls are no-ops so the bundle always shows the *initial*
    /// failure, not the last transition of a cascading one.
    pub fn freeze(
        &mut self,
        cause: &'static str,
        t: f64,
        events: Vec<Event>,
        registers: Vec<(String, u16)>,
    ) {
        if self.capture.is_some() {
            return;
        }
        self.capture = Some(CaptureBundle {
            cause,
            t_trigger: t,
            frames: self.slots[self.head..]
                .iter()
                .chain(&self.slots[..self.head])
                .copied()
                .collect(),
            events,
            registers,
        });
    }

    /// The frozen capture, when a trigger has fired.
    #[must_use]
    pub fn capture(&self) -> Option<&CaptureBundle> {
        self.capture.as_ref()
    }

    /// Removes and returns the frozen capture, re-arming the ring.
    pub fn take_capture(&mut self) -> Option<CaptureBundle> {
        self.capture.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(t: f64) -> SignalFrame {
        SignalFrame {
            t,
            rate_dps: 10.0 * t,
            demod_i: 0.1,
            demod_q: 0.0,
            agc_drive: 0.5,
            supervisor_state: 1,
        }
    }

    #[test]
    fn default_config_is_disarmed() {
        assert!(!RecorderConfig::default().armed());
        assert!(RecorderConfig::fault_triggers(256).armed());
        assert!(!RecorderConfig::fault_triggers(0).armed());
    }

    #[test]
    fn ring_keeps_the_most_recent_frames() {
        let mut r = FlightRecorder::new(RecorderConfig::fault_triggers(3));
        for k in 0..5 {
            r.record(frame(f64::from(k)));
        }
        assert_eq!(r.frames_recorded(), 5);
        r.freeze("degraded", 5.0, Vec::new(), Vec::new());
        let cap = r.capture().expect("frozen");
        let times: Vec<f64> = cap.frames.iter().map(|f| f.t).collect();
        assert_eq!(times, [2.0, 3.0, 4.0]);
    }

    #[test]
    fn frozen_ring_is_oldest_first_after_several_wraps() {
        let mut r = FlightRecorder::new(RecorderConfig::fault_triggers(3));
        for k in 0..11 {
            r.record(frame(f64::from(k)));
        }
        r.freeze("check_fail", 11.0, Vec::new(), Vec::new());
        let times: Vec<f64> = r
            .take_capture()
            .unwrap()
            .frames
            .iter()
            .map(|f| f.t)
            .collect();
        assert_eq!(times, [8.0, 9.0, 10.0]);
        // Re-armed, the ring continues from its head across a freeze.
        r.record(frame(11.0));
        r.freeze("safe_state", 12.0, Vec::new(), Vec::new());
        let times: Vec<f64> = r.capture().unwrap().frames.iter().map(|f| f.t).collect();
        assert_eq!(times, [9.0, 10.0, 11.0]);
        assert_eq!(r.frames_recorded(), 12);
    }

    #[test]
    fn first_trigger_wins_and_recording_stops() {
        let mut r = FlightRecorder::new(RecorderConfig::fault_triggers(8));
        r.record(frame(0.0));
        r.freeze("check_fail", 1.0, Vec::new(), Vec::new());
        r.record(frame(2.0));
        r.freeze("safe_state", 3.0, Vec::new(), Vec::new());
        let cap = r.capture().expect("frozen");
        assert_eq!(cap.cause, "check_fail");
        assert_eq!(cap.t_trigger, 1.0);
        assert_eq!(cap.frames.len(), 1);
    }

    #[test]
    fn take_capture_rearms() {
        let mut r = FlightRecorder::new(RecorderConfig::fault_triggers(4));
        r.record(frame(0.0));
        r.freeze("safe_state", 1.0, Vec::new(), Vec::new());
        assert!(r.take_capture().is_some());
        assert!(!r.is_frozen());
        r.record(frame(2.0));
        r.freeze("degraded", 3.0, Vec::new(), Vec::new());
        // The ring keeps recording continuously across re-arms.
        let times: Vec<f64> = r.capture().unwrap().frames.iter().map(|f| f.t).collect();
        assert_eq!(times, [0.0, 2.0]);
    }

    #[test]
    fn bundle_json_is_well_formed() {
        let mut r = FlightRecorder::new(RecorderConfig::fault_triggers(4));
        r.record(frame(0.25));
        r.freeze(
            "degraded",
            0.5,
            vec![Event::FaultDetected {
                t: 0.5,
                check: "pll_lock",
            }],
            vec![("dsp.status".to_owned(), 0x0007)],
        );
        let json = r.capture().unwrap().to_json();
        assert!(json.contains("\"cause\": \"degraded\""), "{json}");
        assert!(json.contains("\"dsp.status\": 7"), "{json}");
        assert!(json.contains("\"kind\":\"FaultDetected\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
