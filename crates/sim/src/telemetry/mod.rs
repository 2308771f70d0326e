//! Run observability: metrics and structured events.
//!
//! The paper's platform is only trustworthy because every layer can be
//! observed (JTAG read-back of each analog cell, §2). This module is the
//! simulator's equivalent: one [`Telemetry`] value owned by the platform
//! collects
//!
//! - **metrics** — counters/gauges/histograms in a [`MetricsRegistry`]
//!   (`adc.conversions`, `pll.lock_transitions`, `cpu.instructions`, …);
//! - **events** — a bounded [`EventLog`] of typed milestones
//!   ([`Event::PllLocked`], [`Event::WatchdogReset`], …).
//!
//! Everything is exported from an immutable [`TelemetrySnapshot`] as one
//! JSON document (`to_json`), the `*.metrics.json` artifact every bench
//! bin writes. A disabled `Telemetry` reduces every recording call to a
//! single branch — the hot path allocates nothing either way.
//!
//! # Example
//!
//! ```
//! use ascp_sim::telemetry::{Event, Telemetry, TelemetryConfig};
//!
//! let mut tele = Telemetry::new(TelemetryConfig::default());
//! tele.counter_set("adc.conversions", 1024);
//! tele.gauge_set("pll.frequency_hz", 14_980.0);
//! tele.record_event(Event::PllLocked { t: 0.12, frequency_hz: 14_980.0 });
//! let snap = tele.snapshot(0.5);
//! assert!(snap.to_json().contains("\"adc.conversions\": 1024"));
//! ```

mod events;
mod export;
pub mod recorder;
mod registry;
pub mod trace;

pub use events::{Event, EventLog};
pub use recorder::{CaptureBundle, FlightRecorder, RecorderConfig, SignalFrame, CAPTURE_EVENTS};
pub use registry::{Histogram, MetricsRegistry, HISTOGRAM_BUCKETS, HISTOGRAM_MIN};
pub use trace::{SpanId, TraceCollector, TraceLog, TraceRecorder};

use std::borrow::Cow;
use std::time::Instant;

/// Events retained by an enabled collector's ring buffer.
pub const EVENT_CAPACITY: usize = 1024;

/// Telemetry collection settings.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryConfig {
    /// Master switch: `false` turns every recording call into a no-op.
    pub enabled: bool,
    /// Flight-recorder settings (disarmed by default). Pure observability:
    /// excluded from the platform config digest, never checkpointed.
    pub recorder: RecorderConfig,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            recorder: RecorderConfig::default(),
        }
    }
}

impl TelemetryConfig {
    /// A configuration with collection switched off entirely.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// Central telemetry collector owned by the simulation driver.
#[derive(Debug, Clone)]
pub struct Telemetry {
    config: TelemetryConfig,
    registry: MetricsRegistry,
    events: EventLog,
    created: Instant,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new(TelemetryConfig::default())
    }
}

impl Telemetry {
    /// Creates a collector with the given configuration.
    #[must_use]
    pub fn new(config: TelemetryConfig) -> Self {
        Self {
            events: EventLog::new(if config.enabled { EVENT_CAPACITY } else { 0 }),
            registry: MetricsRegistry::new(),
            created: Instant::now(),
            config,
        }
    }

    /// A collector that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(TelemetryConfig::disabled())
    }

    /// `true` when collection is active.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.config.enabled
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &TelemetryConfig {
        &self.config
    }

    /// Adds `delta` to a counter (no-op when disabled).
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        if self.config.enabled {
            self.registry.counter_add(name, delta);
        }
    }

    /// Mirrors an absolute component counter (no-op when disabled).
    pub fn counter_set(&mut self, name: &'static str, value: u64) {
        if self.config.enabled {
            self.registry.counter_set(name, value);
        }
    }

    /// Sets a gauge (no-op when disabled).
    pub fn gauge_set(&mut self, name: impl Into<Cow<'static, str>>, value: f64) {
        if self.config.enabled {
            self.registry.gauge_set(name, value);
        }
    }

    /// Records a histogram sample (no-op when disabled).
    pub fn histogram_record(&mut self, name: &'static str, value: f64) {
        if self.config.enabled {
            self.registry.histogram_record(name, value);
        }
    }

    /// Appends an event (no-op when disabled).
    pub fn record_event(&mut self, event: Event) {
        if self.config.enabled {
            self.events.push(event);
        }
    }

    /// Read access to the metric store.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Read access to the event log.
    #[must_use]
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Clears metrics and events (configuration is kept).
    pub fn reset(&mut self) {
        self.registry = MetricsRegistry::new();
        self.events = EventLog::new(self.events.capacity());
        self.created = Instant::now();
    }

    /// Captures an immutable snapshot at simulation time `sim_time_s`.
    #[must_use]
    pub fn snapshot(&self, sim_time_s: f64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            sim_time_s,
            wall_time_s: self.created.elapsed().as_secs_f64(),
            counters: self.registry.counters().collect(),
            gauges: self.registry.gauges().collect(),
            histograms: self
                .registry
                .histograms()
                .map(|(n, h)| {
                    (
                        n,
                        HistogramSummary {
                            count: h.count(),
                            sum: h.sum(),
                            mean: h.mean(),
                            buckets: h.nonzero_buckets().collect(),
                        },
                    )
                })
                .collect(),
            events: self.events.iter().cloned().collect(),
            event_counts: self.events.kind_counts().collect(),
            events_total: self.events.total(),
            events_dropped: self.events.dropped(),
        }
    }
}

/// Aggregate view of one histogram inside a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Mean sample.
    pub mean: f64,
    /// Non-empty `(inclusive_upper_bound, count)` buckets.
    pub buckets: Vec<(f64, u64)>,
}

/// Immutable export view of a [`Telemetry`] collector.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Simulation time at capture, seconds.
    pub sim_time_s: f64,
    /// Wall time since the collector was created/reset, seconds.
    pub wall_time_s: f64,
    /// Counters, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(Cow<'static, str>, f64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<(&'static str, HistogramSummary)>,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Per-kind event totals (retained or dropped), sorted by kind label.
    pub event_counts: Vec<(&'static str, u64)>,
    /// Events ever recorded (retained or dropped).
    pub events_total: u64,
    /// Events dropped by the ring bound.
    pub events_dropped: u64,
}

impl TelemetrySnapshot {
    /// Value of a counter in this snapshot (zero when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Value of a gauge in this snapshot.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Events of the given kind ever recorded (a map built once at
    /// snapshot time — no per-call scan of the event ring).
    #[must_use]
    pub fn count_events(&self, kind: &str) -> usize {
        self.event_counts
            .iter()
            .find(|(k, _)| *k == kind)
            .map_or(0, |&(_, n)| n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let mut t = Telemetry::disabled();
        t.counter_add("adc.conversions", 5);
        t.gauge_set("pll.frequency_hz", 1.0);
        t.histogram_record("agc.settle_time_s", 0.1);
        t.record_event(Event::PllUnlocked { t: 0.0 });
        let snap = t.snapshot(1.0);
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.events.is_empty());
        assert_eq!(snap.events_total, 0);
    }

    #[test]
    fn enabled_collector_round_trips() {
        let mut t = Telemetry::default();
        t.counter_add("jtag.shifts", 2);
        t.counter_set("jtag.shifts", 10);
        t.gauge_set("agc.envelope", 0.5);
        t.histogram_record("stage.tick_s", 2.0e-6);
        t.record_event(Event::UartTx { t: 0.25, bytes: 3 });
        let snap = t.snapshot(0.5);
        assert_eq!(snap.counter("jtag.shifts"), 10);
        assert_eq!(snap.gauge("agc.envelope"), Some(0.5));
        assert_eq!(snap.count_events("UartTx"), 1);
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].1.count, 1);
    }

    #[test]
    fn reset_clears_but_keeps_config() {
        let mut t = Telemetry::default();
        t.counter_add("cpu.instructions", 1);
        t.record_event(Event::PllUnlocked { t: 0.0 });
        t.reset();
        assert!(t.registry().is_empty());
        assert!(t.events().is_empty());
        assert_eq!(t.events().capacity(), EVENT_CAPACITY);
        assert!(t.is_enabled());
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let mut t = Telemetry::default();
        t.counter_set("adc.conversions", 7);
        t.gauge_set("pll.frequency_hz", 15_000.0);
        t.histogram_record("stage.tick_s", 1.0e-6);
        t.record_event(Event::PllLocked {
            t: 0.1,
            frequency_hz: 15_000.0,
        });
        let json = t.snapshot(0.2).to_json();
        assert!(json.contains("\"adc.conversions\": 7"), "{json}");
        assert!(json.contains("\"kind\":\"PllLocked\""), "{json}");
        // Balanced braces/brackets (cheap structural sanity check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }
}
