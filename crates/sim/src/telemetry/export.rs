//! The JSON snapshot exporter, the one metrics view.
//!
//! It renders a [`TelemetrySnapshot`](super::TelemetrySnapshot) — the
//! immutable view captured at the end of a run — so exporting never races
//! the simulation. The event encoding is shared with the flight
//! recorder's capture bundles.

use super::{Event, TelemetrySnapshot};
use std::fmt::Write as _;

/// Escapes a string for a JSON value position.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number (`null` for non-finite values).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Renders one event as a JSON object.
pub(crate) fn event_json(e: &Event) -> String {
    let mut fields = vec![
        format!("\"kind\":\"{}\"", e.kind()),
        format!("\"t\":{}", json_f64(e.time())),
    ];
    match e {
        Event::PllLocked { frequency_hz, .. } => {
            fields.push(format!("\"frequency_hz\":{}", json_f64(*frequency_hz)));
        }
        Event::AgcSettled { settle_time_s, .. } => {
            fields.push(format!("\"settle_time_s\":{}", json_f64(*settle_time_s)));
        }
        Event::AdcClip { channel, total, .. } => {
            fields.push(format!("\"channel\":\"{}\"", json_escape(channel)));
            fields.push(format!("\"total\":{total}"));
        }
        Event::WatchdogReset { total, .. } => fields.push(format!("\"total\":{total}")),
        Event::UartTx { bytes, .. } => fields.push(format!("\"bytes\":{bytes}")),
        Event::RegisterWrite { bank, writes, .. } => {
            fields.push(format!("\"bank\":\"{}\"", json_escape(bank)));
            fields.push(format!("\"writes\":{writes}"));
        }
        Event::FaultInjected { fault, .. } | Event::FaultCleared { fault, .. } => {
            fields.push(format!("\"fault\":\"{}\"", json_escape(fault)));
        }
        Event::FaultDetected { check, .. } => {
            fields.push(format!("\"check\":\"{}\"", json_escape(check)));
        }
        Event::SupervisorTransition {
            from, to, cause, ..
        } => {
            fields.push(format!("\"from\":\"{}\"", json_escape(from)));
            fields.push(format!("\"to\":\"{}\"", json_escape(to)));
            fields.push(format!("\"cause\":\"{}\"", json_escape(cause)));
        }
        Event::PllUnlocked { .. } => {}
    }
    format!("{{{}}}", fields.join(","))
}

impl TelemetrySnapshot {
    /// Serializes the snapshot as a self-contained JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n");
        let _ = writeln!(s, "  \"sim_time_s\": {},", json_f64(self.sim_time_s));
        let _ = writeln!(s, "  \"wall_time_s\": {},", json_f64(self.wall_time_s));

        s.push_str("  \"counters\": {");
        let items: Vec<String> = self
            .counters
            .iter()
            .map(|(n, v)| format!("\"{}\": {v}", json_escape(n)))
            .collect();
        s.push_str(&items.join(", "));
        s.push_str("},\n");

        s.push_str("  \"gauges\": {");
        let items: Vec<String> = self
            .gauges
            .iter()
            .map(|(n, v)| format!("\"{}\": {}", json_escape(n), json_f64(*v)))
            .collect();
        s.push_str(&items.join(", "));
        s.push_str("},\n");

        s.push_str("  \"histograms\": {");
        let items: Vec<String> = self
            .histograms
            .iter()
            .map(|(n, h)| {
                let buckets: Vec<String> = h
                    .buckets
                    .iter()
                    .map(|(le, c)| format!("{{\"le\": {}, \"count\": {c}}}", json_f64(*le)))
                    .collect();
                format!(
                    "\"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"buckets\": [{}]}}",
                    json_escape(n),
                    h.count,
                    json_f64(h.sum),
                    json_f64(h.mean),
                    buckets.join(", ")
                )
            })
            .collect();
        s.push_str(&items.join(", "));
        s.push_str("},\n");

        s.push_str("  \"events\": [");
        let items: Vec<String> = self.events.iter().map(event_json).collect();
        s.push_str(&items.join(", "));
        s.push_str("],\n");
        s.push_str("  \"event_counts\": {");
        let items: Vec<String> = self
            .event_counts
            .iter()
            .map(|(kind, n)| format!("\"{}\": {n}", json_escape(kind)))
            .collect();
        s.push_str(&items.join(", "));
        s.push_str("},\n");
        let _ = writeln!(s, "  \"events_total\": {},", self.events_total);
        let _ = writeln!(s, "  \"events_dropped\": {}", self.events_dropped);
        s.push_str("}\n");
        s
    }
}
