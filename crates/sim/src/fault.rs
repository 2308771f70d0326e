//! Fault-injection engine: a typed catalog of platform faults and a
//! deterministic schedule that activates them during a run.
//!
//! The paper's platform targets automotive sensor conditioning, where the
//! conditioning ASIC must survive sensor disconnects, supply droop, stuck
//! converter bits and a wedged monitor CPU. This module models those
//! faults as *data*: a [`FaultPlan`] holds [`FaultSpec`]s, each a
//! [`FaultKind`] plus a [`FaultSchedule`] (one-shot window, permanent, or
//! intermittent bursts driven by a seeded [`Rng64`]). The platform polls
//! the plan once per DSP tick and receives *edges* — activations and
//! clears — which it maps onto the component models (gating the MEMS
//! drive, corrupting SPI bytes, hanging the 8051, ...).
//!
//! An empty plan reduces the whole engine to a single branch per tick, so
//! fault support costs nothing when unused.
//!
//! # Example
//!
//! ```
//! use ascp_sim::fault::{FaultKind, FaultPlan};
//!
//! let mut plan = FaultPlan::new();
//! plan.one_shot(FaultKind::PllUnlock, 0.5, 0.1);
//! let mut edges = Vec::new();
//! plan.poll(0.55, &mut edges); // inside the window
//! assert!(edges[0].activated);
//! ```

use crate::noise::Rng64;
use crate::snapshot::{SnapshotError, StateReader, StateWriter};

/// Which SAR ADC channel a converter fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdcChannel {
    /// Primary (drive) pickoff converter.
    Primary,
    /// Secondary (Coriolis) pickoff converter.
    Secondary,
}

impl AdcChannel {
    /// Stable label for telemetry and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Primary => "primary",
            Self::Secondary => "secondary",
        }
    }
}

/// The catalog of injectable platform faults.
///
/// Each variant corresponds to a physical failure mode of the conditioning
/// ASIC or its harness; the platform maps activations onto the component
/// models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// MEMS drive electrode open: the sustaining force never reaches the
    /// resonator and the oscillation decays.
    MemsDriveLoss,
    /// Sensor harness disconnect: both pickoff signals float to zero.
    SensorDisconnect,
    /// One ADC output bit stuck at a fixed value (metallization short).
    AdcStuckBit {
        /// Faulted converter.
        channel: AdcChannel,
        /// Stuck bit index (0 = LSB of the offset-binary code).
        bit: u32,
        /// Stuck level.
        value: bool,
    },
    /// ADC output frozen at one code (sample/hold failure).
    AdcStuckCode {
        /// Faulted converter.
        channel: AdcChannel,
        /// Frozen two's-complement code.
        code: i32,
    },
    /// Front-end overload: the converter input is scaled past full range
    /// and clips (e.g. a shorted attenuator).
    AdcOverload {
        /// Faulted converter.
        channel: AdcChannel,
        /// Input overdrive factor (> 1 clips).
        gain: f64,
    },
    /// Bandgap reference / supply droop by the given fraction (0.1 = −10%).
    ReferenceDroop {
        /// Droop as a fraction of nominal.
        frac: f64,
    },
    /// Kick the drive PLL off frequency (shock-induced phase slip).
    PllUnlock,
    /// SPI line bit errors at the given per-byte probability.
    SpiBitErrors {
        /// Per-byte corruption probability in [0, 1].
        rate: f64,
    },
    /// UART line bit errors at the given per-byte probability.
    UartBitErrors {
        /// Per-byte corruption probability in [0, 1].
        rate: f64,
    },
    /// JTAG TDO corruption at the given per-shift-bit probability.
    JtagCorruption {
        /// Per-bit flip probability in [0, 1].
        rate: f64,
    },
    /// Monitoring 8051 hangs (latch-up): only the watchdog can recover it.
    CpuHang,
    /// Sensor signal wire not connected: the conditioned input floats to
    /// the pull-up rail (dbus-adc style open-harness signature).
    WireNotConnected,
    /// Sensor signal wire shorted to ground: the conditioned input reads
    /// near 0 V regardless of stimulus.
    WireShortToGround,
    /// Sensor connector mated reverse: the input sits in the
    /// protection-diode band near one diode drop above ground.
    WireReversePolarity,
}

impl FaultKind {
    /// Stable label for telemetry events, CSV rows and metric names.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::MemsDriveLoss => "mems_drive_loss",
            Self::SensorDisconnect => "sensor_disconnect",
            Self::AdcStuckBit { .. } => "adc_stuck_bit",
            Self::AdcStuckCode { .. } => "adc_stuck_code",
            Self::AdcOverload { .. } => "adc_overload",
            Self::ReferenceDroop { .. } => "reference_droop",
            Self::PllUnlock => "pll_unlock",
            Self::SpiBitErrors { .. } => "spi_bit_errors",
            Self::UartBitErrors { .. } => "uart_bit_errors",
            Self::JtagCorruption { .. } => "jtag_corruption",
            Self::CpuHang => "cpu_hang",
            Self::WireNotConnected => "wire_not_connected",
            Self::WireShortToGround => "wire_short_to_ground",
            Self::WireReversePolarity => "wire_reverse_polarity",
        }
    }

    /// Every fault-class label, in catalog order. This is the row universe
    /// of the campaign coverage matrix: a report can say a class was never
    /// exercised only because the full catalog is known statically.
    pub const ALL_LABELS: [&'static str; 14] = [
        "mems_drive_loss",
        "sensor_disconnect",
        "adc_stuck_bit",
        "adc_stuck_code",
        "adc_overload",
        "reference_droop",
        "pll_unlock",
        "spi_bit_errors",
        "uart_bit_errors",
        "jtag_corruption",
        "cpu_hang",
        "wire_not_connected",
        "wire_short_to_ground",
        "wire_reverse_polarity",
    ];
}

/// When a fault is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSchedule {
    /// Active for one window `[start_s, start_s + duration_s)`.
    OneShot {
        /// Activation time, seconds.
        start_s: f64,
        /// Window length, seconds.
        duration_s: f64,
    },
    /// Active from `start_s` until the end of the run.
    Permanent {
        /// Activation time, seconds.
        start_s: f64,
    },
    /// Deterministic random bursts inside `[start_s, end_s)`.
    ///
    /// Off intervals average `period_s`, bursts average `burst_s`; both
    /// are jittered by the seeded [`Rng64`], so the same seed reproduces
    /// the same burst train exactly.
    Intermittent {
        /// First possible activation, seconds.
        start_s: f64,
        /// No activity at or after this time, seconds.
        end_s: f64,
        /// Mean off interval between bursts, seconds.
        period_s: f64,
        /// Mean burst length, seconds.
        burst_s: f64,
        /// RNG seed for the burst train.
        seed: u64,
    },
}

/// One scheduled fault: what and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The fault to inject.
    pub kind: FaultKind,
    /// Its activation schedule.
    pub schedule: FaultSchedule,
}

/// An activation or clear edge reported by [`FaultPlan::poll`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEdge {
    /// The fault that changed state.
    pub kind: FaultKind,
    /// `true` on activation, `false` on clear.
    pub activated: bool,
}

/// Per-spec runtime state.
#[derive(Debug, Clone)]
struct FaultState {
    spec: FaultSpec,
    active: bool,
    /// Intermittent schedules only: burst generator and next toggle time.
    rng: Option<Rng64>,
    next_toggle_s: f64,
    /// Intermittent schedules only: whether the burst train is currently
    /// in a burst (tracked separately from `active`, which is the edge-
    /// reported state).
    burst_on: bool,
}

/// An executable set of scheduled faults.
///
/// The platform calls [`FaultPlan::poll`] with the current simulation time
/// each tick; the plan compares every spec's desired state against its
/// current one and reports the edges.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    states: Vec<FaultState>,
}

impl FaultPlan {
    /// An empty plan (no faults; `poll` is never needed).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when no faults are scheduled — the per-tick fast path.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Number of scheduled faults.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Scheduled specs, in insertion order.
    pub fn specs(&self) -> impl Iterator<Item = &FaultSpec> {
        self.states.iter().map(|s| &s.spec)
    }

    /// Adds an arbitrary spec.
    pub fn push(&mut self, spec: FaultSpec) -> &mut Self {
        let rng = match spec.schedule {
            FaultSchedule::Intermittent { seed, .. } => Some(Rng64::new(seed)),
            _ => None,
        };
        self.states.push(FaultState {
            spec,
            active: false,
            rng,
            next_toggle_s: f64::NAN,
            burst_on: false,
        });
        self
    }

    /// Schedules `kind` for the window `[start_s, start_s + duration_s)`.
    pub fn one_shot(&mut self, kind: FaultKind, start_s: f64, duration_s: f64) -> &mut Self {
        self.push(FaultSpec {
            kind,
            schedule: FaultSchedule::OneShot {
                start_s,
                duration_s,
            },
        })
    }

    /// Schedules `kind` from `start_s` to the end of the run.
    pub fn permanent(&mut self, kind: FaultKind, start_s: f64) -> &mut Self {
        self.push(FaultSpec {
            kind,
            schedule: FaultSchedule::Permanent { start_s },
        })
    }

    /// Schedules deterministic intermittent bursts of `kind`.
    pub fn intermittent(
        &mut self,
        kind: FaultKind,
        start_s: f64,
        end_s: f64,
        period_s: f64,
        burst_s: f64,
        seed: u64,
    ) -> &mut Self {
        self.push(FaultSpec {
            kind,
            schedule: FaultSchedule::Intermittent {
                start_s,
                end_s,
                period_s,
                burst_s,
                seed,
            },
        })
    }

    /// Evaluates every spec at time `t` (seconds) and appends an edge for
    /// each fault whose active state changed. `edges` is *not* cleared, so
    /// callers can reuse one buffer across ticks.
    pub fn poll(&mut self, t: f64, edges: &mut Vec<FaultEdge>) {
        for st in &mut self.states {
            let desired = st.desired_active(t);
            if desired != st.active {
                st.active = desired;
                edges.push(FaultEdge {
                    kind: st.spec.kind,
                    activated: desired,
                });
            }
        }
    }

    /// `true` if the given fault (by label) is currently active.
    #[must_use]
    pub fn is_active(&self, kind: FaultKind) -> bool {
        self.states.iter().any(|s| s.active && s.spec.kind == kind)
    }

    /// Serializes the runtime cursor of every scheduled fault (active
    /// flags, burst generators, next toggle times). The specs themselves
    /// are configuration and are *not* saved, nor is what they fix: the
    /// number of cursors and which of them carry a burst generator. A
    /// restore target must be built from the same plan.
    pub fn save_state(&self, w: &mut StateWriter) {
        for st in &self.states {
            w.put_bool(st.active);
            if let Some(rng) = &st.rng {
                rng.save_state(w);
            }
            w.put_f64(st.next_toggle_s);
            w.put_bool(st.burst_on);
        }
    }

    /// Restores the runtime cursor saved by [`FaultPlan::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        for st in &mut self.states {
            st.active = r.take_bool()?;
            if let Some(rng) = st.rng.as_mut() {
                rng.load_state(r)?;
            }
            st.next_toggle_s = r.take_f64()?;
            st.burst_on = r.take_bool()?;
        }
        Ok(())
    }
}

impl FaultState {
    fn desired_active(&mut self, t: f64) -> bool {
        match self.spec.schedule {
            FaultSchedule::OneShot {
                start_s,
                duration_s,
            } => t >= start_s && t < start_s + duration_s,
            FaultSchedule::Permanent { start_s } => t >= start_s,
            FaultSchedule::Intermittent {
                start_s,
                end_s,
                period_s,
                burst_s,
                ..
            } => {
                if t < start_s || t >= end_s {
                    return false;
                }
                let rng = self.rng.as_mut().expect("intermittent state has an RNG");
                if self.next_toggle_s.is_nan() {
                    // First poll inside the window: schedule the first burst.
                    self.next_toggle_s = start_s + period_s * (0.5 + rng.next_f64());
                }
                // Advance the burst train up to `t`. Each draw jitters the
                // nominal interval by ±50% so bursts never phase-lock to
                // anything in the loop.
                while t >= self.next_toggle_s {
                    self.burst_on = !self.burst_on;
                    let mean = if self.burst_on { burst_s } else { period_s };
                    self.next_toggle_s += mean * (0.5 + rng.next_f64());
                }
                self.burst_on
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
    }

    #[test]
    fn one_shot_activates_and_clears() {
        let mut plan = FaultPlan::new();
        plan.one_shot(FaultKind::PllUnlock, 1.0, 0.5);
        let mut edges = Vec::new();
        plan.poll(0.5, &mut edges);
        assert!(edges.is_empty());
        plan.poll(1.0, &mut edges);
        assert_eq!(
            edges,
            [FaultEdge {
                kind: FaultKind::PllUnlock,
                activated: true
            }]
        );
        assert!(plan.is_active(FaultKind::PllUnlock));
        edges.clear();
        plan.poll(1.2, &mut edges);
        assert!(edges.is_empty(), "no edge while the window holds");
        plan.poll(1.5, &mut edges);
        assert_eq!(
            edges,
            [FaultEdge {
                kind: FaultKind::PllUnlock,
                activated: false
            }]
        );
        assert!(!plan.is_active(FaultKind::PllUnlock));
    }

    #[test]
    fn permanent_never_clears() {
        let mut plan = FaultPlan::new();
        plan.permanent(FaultKind::CpuHang, 0.25);
        let mut edges = Vec::new();
        plan.poll(0.3, &mut edges);
        assert_eq!(edges.len(), 1);
        edges.clear();
        plan.poll(1000.0, &mut edges);
        assert!(edges.is_empty());
        assert!(plan.is_active(FaultKind::CpuHang));
    }

    #[test]
    fn intermittent_is_deterministic_and_bounded() {
        let run = |seed: u64| {
            let mut plan = FaultPlan::new();
            plan.intermittent(
                FaultKind::SpiBitErrors { rate: 0.5 },
                0.1,
                2.0,
                0.2,
                0.05,
                seed,
            );
            let mut edges = Vec::new();
            let mut trail = Vec::new();
            for k in 0..2500 {
                let t = k as f64 * 1.0e-3;
                edges.clear();
                plan.poll(t, &mut edges);
                for e in &edges {
                    trail.push((t, e.activated));
                }
            }
            trail
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed, same burst train");
        assert_ne!(a, c, "different seed, different train");
        assert!(a.len() >= 4, "several bursts in 2 s: {}", a.len());
        // Every edge inside the window; final state cleared after end.
        assert!(a
            .iter()
            .all(|&(t, _)| (0.1..2.0).contains(&t) || !a.last().unwrap().1));
        assert!(!a.last().unwrap().1, "train ends cleared");
    }

    #[test]
    fn specs_are_visible() {
        let mut plan = FaultPlan::new();
        plan.permanent(FaultKind::MemsDriveLoss, 0.0);
        let kinds: Vec<&str> = plan.specs().map(|s| s.kind.label()).collect();
        assert_eq!(kinds, ["mems_drive_loss"]);
    }

    #[test]
    fn labels_are_stable() {
        let all = [
            FaultKind::MemsDriveLoss,
            FaultKind::SensorDisconnect,
            FaultKind::AdcStuckBit {
                channel: AdcChannel::Primary,
                bit: 3,
                value: true,
            },
            FaultKind::AdcStuckCode {
                channel: AdcChannel::Secondary,
                code: 0,
            },
            FaultKind::AdcOverload {
                channel: AdcChannel::Secondary,
                gain: 4.0,
            },
            FaultKind::ReferenceDroop { frac: 0.1 },
            FaultKind::PllUnlock,
            FaultKind::SpiBitErrors { rate: 0.1 },
            FaultKind::UartBitErrors { rate: 0.1 },
            FaultKind::JtagCorruption { rate: 0.01 },
            FaultKind::CpuHang,
            FaultKind::WireNotConnected,
            FaultKind::WireShortToGround,
            FaultKind::WireReversePolarity,
        ];
        let labels: Vec<&str> = all.iter().map(|k| k.label()).collect();
        assert_eq!(
            labels,
            [
                "mems_drive_loss",
                "sensor_disconnect",
                "adc_stuck_bit",
                "adc_stuck_code",
                "adc_overload",
                "reference_droop",
                "pll_unlock",
                "spi_bit_errors",
                "uart_bit_errors",
                "jtag_corruption",
                "cpu_hang",
                "wire_not_connected",
                "wire_short_to_ground",
                "wire_reverse_polarity"
            ]
        );
        assert_eq!(FaultKind::ALL_LABELS.len(), labels.len());
        assert_eq!(AdcChannel::Primary.label(), "primary");
        assert_eq!(AdcChannel::Secondary.label(), "secondary");
    }
}
