//! The generic sensor front-end contract — *one platform, many sensors*.
//!
//! The paper's central claim is that a single conditioning platform (AFE +
//! DSP + monitor CPU drawn from an IP portfolio) can be retargeted across
//! "capacitive, resistive, inductive, etc." automotive sensors (§1, §3).
//! [`SensorFrontEnd`] is that claim as a trait: a front-end declares its
//! *drive/sense dynamics* ([`SensorFrontEnd::sense`]), its *excitation
//! needs* ([`Excitation`]), its *conditioning recipe* ([`Conditioning`]),
//! its *plausibility bands* ([`PlausibilityBands`]) and its *wire-fault
//! electrical signatures* ([`SensorFrontEnd::wire_fault_node`]), and the
//! platform channel in `ascp_core::frontend` composes the rest — PGA, SAR
//! ADC, decimation or synchronous demodulation, compensation and supervisor
//! checks — from the shared portfolio.
//!
//! Every front-end also declares a [`SensorFrontEnd::config_digest`] over
//! its construction parameters; the campaign journal keys channel
//! scenarios by it, so a resume never mixes differently-built channels.
//!
//! # Implementing a minimal custom front-end
//!
//! A DC strain-gauge bridge in ~40 lines — linear conditioning, default
//! single-ended plausibility bands, no internal dynamics:
//!
//! ```
//! use ascp_mems::frontend::{Conditioning, Excitation, PlausibilityBands, SensorFrontEnd};
//! use ascp_sim::snapshot::fnv1a64;
//! use ascp_sim::units::{Celsius, Volts};
//!
//! struct StrainGauge {
//!     microstrain: f64,
//! }
//!
//! impl SensorFrontEnd for StrainGauge {
//!     fn kind(&self) -> &'static str {
//!         "strain-gauge"
//!     }
//!     fn unit(&self) -> &'static str {
//!         "ue"
//!     }
//!     fn range(&self) -> (f64, f64) {
//!         (0.0, 1000.0)
//!     }
//!     fn excitation(&self) -> Excitation {
//!         Excitation::Dc { volts: 5.0 }
//!     }
//!     fn conditioning(&self) -> Conditioning {
//!         // ratio = 5e-4 per 1000 ue -> eu = ratio / 5e-7.
//!         Conditioning::Linear {
//!             scale: 2.0e6,
//!             offset: -1.0e6 * 0.3,
//!         }
//!     }
//!     fn plausibility(&self) -> PlausibilityBands {
//!         PlausibilityBands::ratiometric_default()
//!     }
//!     fn set_stimulus(&mut self, value: f64) {
//!         self.microstrain = value.clamp(0.0, 1000.0);
//!     }
//!     fn stimulus(&self) -> f64 {
//!         self.microstrain
//!     }
//!     fn set_temperature(&mut self, _t: Celsius) {}
//!     fn sense(&mut self, excitation: Volts, _dt: f64) -> Volts {
//!         Volts(excitation.0 * (0.15 + 5.0e-7 * self.microstrain))
//!     }
//!     fn config_digest(&self) -> u64 {
//!         fnv1a64(b"strain-gauge/v1")
//!     }
//! }
//!
//! let mut fe = StrainGauge { microstrain: 0.0 };
//! fe.set_stimulus(500.0);
//! let v = fe.sense(Volts(5.0), 1.0e-5);
//! assert!(v.0 > 0.75);
//! ```

use ascp_sim::snapshot::StateWriter;
use ascp_sim::units::{Celsius, Volts};

/// The excitation a front-end needs from the platform's reference IP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Excitation {
    /// DC excitation (ratiometric dividers, bridges): the channel routes
    /// a buffered reference rail to the sensor.
    Dc {
        /// Nominal rail voltage.
        volts: f64,
    },
    /// AC carrier excitation (inductive/capacitive half-bridges): the
    /// channel drives the sensor from the NCO and demodulates coherently.
    Carrier {
        /// Carrier frequency in Hz.
        freq_hz: f64,
        /// Carrier amplitude in volts.
        amplitude_v: f64,
    },
}

impl Excitation {
    /// The rail/amplitude the node ratios are normalized against.
    #[must_use]
    pub fn rail(&self) -> f64 {
        match *self {
            Self::Dc { volts } => volts,
            Self::Carrier { amplitude_v, .. } => amplitude_v,
        }
    }
}

/// How a normalized node ratio becomes engineering units.
///
/// The two recipes mirror production automotive firmware (tfi-computer's
/// `sensors.h`): `Linear` for conditioned transmitters (MAP), `Table` for
/// raw nonlinear elements (NTC thermistors) where a breakpoint table
/// inverts the transfer.
#[derive(Debug, Clone, PartialEq)]
pub enum Conditioning {
    /// `eu = scale * ratio + offset`.
    Linear {
        /// Engineering units per unit ratio.
        scale: f64,
        /// Engineering-unit offset.
        offset: f64,
    },
    /// Piecewise-linear breakpoint table of `(ratio, eu)` pairs, sorted by
    /// ratio ascending; evaluation clamps at the table ends.
    Table {
        /// Breakpoints as `(ratio, engineering units)`.
        points: Vec<(f64, f64)>,
    },
}

impl Conditioning {
    /// Applies the recipe to a normalized node ratio.
    ///
    /// # Panics
    ///
    /// Panics if a `Table` recipe has fewer than two breakpoints.
    #[must_use]
    pub fn apply(&self, ratio: f64) -> f64 {
        match self {
            Self::Linear { scale, offset } => scale * ratio + offset,
            Self::Table { points } => {
                assert!(points.len() >= 2, "conditioning table needs >= 2 points");
                let first = points[0];
                let last = points[points.len() - 1];
                if ratio <= first.0 {
                    return first.1;
                }
                if ratio >= last.0 {
                    return last.1;
                }
                for w in points.windows(2) {
                    let (x0, y0) = w[0];
                    let (x1, y1) = w[1];
                    if ratio <= x1 {
                        let u = (ratio - x0) / (x1 - x0);
                        return y0 + u * (y1 - y0);
                    }
                }
                last.1
            }
        }
    }

    /// Folds the recipe's parameters into a config digest.
    pub fn digest_into(&self, w: &mut StateWriter) {
        match self {
            Self::Linear { scale, offset } => {
                w.put_u8(0);
                w.put_f64(*scale);
                w.put_f64(*offset);
            }
            Self::Table { points } => {
                w.put_u8(1);
                w.put_u32(points.len() as u32);
                for &(x, y) in points {
                    w.put_f64(x);
                    w.put_f64(y);
                }
            }
        }
    }
}

/// A wire fault injected at the sensor harness.
///
/// These are the dbus-adc status taxonomy: the three harness failures a
/// production conditioning channel must distinguish from a valid reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFault {
    /// Signal wire open: the monitor pull-up drags the node to the rail.
    NotConnected,
    /// Signal wire shorted to ground.
    ShortToGround,
    /// Connector mated reverse: the protection diode pins the node (DC) or
    /// inverts the secondary (carrier).
    ReversePolarity,
}

impl WireFault {
    /// Stable label for telemetry and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::NotConnected => "wire_not_connected",
            Self::ShortToGround => "wire_short_to_ground",
            Self::ReversePolarity => "wire_reverse_polarity",
        }
    }
}

/// What the channel's monitor path observed over one supervision window,
/// all normalized by the excitation rail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeObservation {
    /// Mean node voltage / rail.
    pub dc_ratio: f64,
    /// RMS of the node AC component / rail (carrier presence).
    pub ac_ratio: f64,
    /// Demodulated in-phase pilot / rail (carrier front-ends only; equals
    /// `dc_ratio` on DC paths).
    pub pilot_ratio: f64,
}

/// Where on the node the supervisor draws the not-connected / short /
/// reverse-polarity verdicts (dbus-adc style voltage-band classification).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PlausibilityBands {
    /// Single-ended ratiometric node with a pull-up to the rail: classify
    /// on the DC ratio alone.
    Ratiometric {
        /// `dc_ratio <= short_below` reads as a ground short.
        short_below: f64,
        /// `lo <= dc_ratio <= hi` reads as reverse polarity (the
        /// protection-diode band). `None` disables the check for sensors
        /// whose valid span crosses the band (e.g. NTC thermistors).
        reverse: Option<(f64, f64)>,
        /// `dc_ratio >= open_above` reads as not connected.
        open_above: f64,
    },
    /// Carrier-excited half-bridge: an open harness parks the node at the
    /// pull-up rail (DC), a short kills the carrier, a reversed connector
    /// flips the demodulated pilot sign.
    Carrier {
        /// `dc_ratio >= open_above` reads as not connected.
        open_above: f64,
        /// `ac_ratio < ac_floor` (with the node off the rail) reads as a
        /// ground short. Negative disables the check (null-capable
        /// sensors such as LVDTs lose their carrier at mid-stroke).
        ac_floor: f64,
        /// `pilot_ratio <= reverse_below` reads as reverse polarity.
        /// Below any reachable pilot (e.g. `-2.0`) disables the check.
        reverse_below: f64,
    },
}

impl PlausibilityBands {
    /// The dbus-adc single-ended defaults: short below 4 % of the rail,
    /// reverse polarity in the 15–25 % protection-diode band, open above
    /// 96 %.
    #[must_use]
    pub fn ratiometric_default() -> Self {
        Self::Ratiometric {
            short_below: 0.04,
            reverse: Some((0.15, 0.25)),
            open_above: 0.96,
        }
    }

    /// Classifies one supervision window's observation: the wire fault the
    /// node reads as, `None` when it sits inside the valid band. Open
    /// harness: node at the pull-up rail. Short: node at ground, or the
    /// carrier gone. Reverse polarity: node in the protection-diode band,
    /// or the pilot inverted.
    #[must_use]
    pub fn classify(&self, obs: &NodeObservation) -> Option<WireFault> {
        match *self {
            Self::Ratiometric {
                short_below,
                reverse,
                open_above,
            } => {
                if obs.dc_ratio >= open_above {
                    Some(WireFault::NotConnected)
                } else if obs.dc_ratio <= short_below {
                    Some(WireFault::ShortToGround)
                } else {
                    reverse
                        .filter(|&(lo, hi)| obs.dc_ratio >= lo && obs.dc_ratio <= hi)
                        .map(|_| WireFault::ReversePolarity)
                }
            }
            Self::Carrier {
                open_above,
                ac_floor,
                reverse_below,
            } => {
                if obs.dc_ratio >= open_above {
                    Some(WireFault::NotConnected)
                } else if obs.ac_ratio < ac_floor {
                    Some(WireFault::ShortToGround)
                } else if obs.pilot_ratio <= reverse_below {
                    Some(WireFault::ReversePolarity)
                } else {
                    None
                }
            }
        }
    }

    /// Folds the band edges into a config digest.
    pub fn digest_into(&self, w: &mut StateWriter) {
        match *self {
            Self::Ratiometric {
                short_below,
                reverse,
                open_above,
            } => {
                w.put_u8(0);
                w.put_f64(short_below);
                w.put_opt_f64(reverse.map(|r| r.0));
                w.put_opt_f64(reverse.map(|r| r.1));
                w.put_f64(open_above);
            }
            Self::Carrier {
                open_above,
                ac_floor,
                reverse_below,
            } => {
                w.put_u8(1);
                w.put_f64(open_above);
                w.put_f64(ac_floor);
                w.put_f64(reverse_below);
            }
        }
    }
}

/// A sensor front-end the generic platform channel can condition.
///
/// Object-safe: channels hold `Box<dyn SensorFrontEnd>`. Implementations
/// must keep [`SensorFrontEnd::sense`] deterministic for a given seed and
/// call sequence — the campaign engine's bit-identical-at-any-thread-count
/// guarantee rests on it.
pub trait SensorFrontEnd {
    /// Human-readable sensor family (datasheet rows, telemetry).
    fn kind(&self) -> &'static str;

    /// Engineering unit of the conditioned output (`"kPa"`, `"degC"`,
    /// `"g"`, `"mm"`, ...).
    fn unit(&self) -> &'static str;

    /// Full-scale stimulus range `(min, max)` in engineering units.
    fn range(&self) -> (f64, f64);

    /// The excitation this front-end needs.
    fn excitation(&self) -> Excitation;

    /// The recipe converting a normalized node ratio to engineering units.
    fn conditioning(&self) -> Conditioning;

    /// Where the supervisor draws the wire-fault verdicts.
    fn plausibility(&self) -> PlausibilityBands;

    /// Sets the physical stimulus in engineering units.
    fn set_stimulus(&mut self, value: f64);

    /// Current stimulus in engineering units.
    fn stimulus(&self) -> f64;

    /// Ambient temperature at the transducer.
    fn set_temperature(&mut self, t: Celsius);

    /// Produces one node-voltage sample for the instantaneous excitation.
    /// `dt` is the sample period; front-ends with internal dynamics (proof
    /// masses) advance their state by it.
    fn sense(&mut self, excitation: Volts, dt: f64) -> Volts;

    /// Pilot imbalance of a carrier front-end as a ratio of the carrier
    /// amplitude: a deliberate bridge offset that keeps the demodulated
    /// in-phase output nonzero at rest, so the supervisor can tell a live
    /// harness from a dead one and a reversed connector from either.
    /// Zero (the default) for DC paths and pilot-free bridges.
    fn carrier_pilot(&self) -> f64 {
        0.0
    }

    /// Electrical signature of a wire fault at the sensor node — the fault
    /// hook. `healthy` is what the node would read without the fault,
    /// `rail` the monitor pull-up rail. The default implements the
    /// dbus-adc signatures; front-ends with different harness topologies
    /// (true differential, grounded shields) can override.
    fn wire_fault_node(&self, fault: WireFault, healthy: Volts, rail: Volts) -> Volts {
        match fault {
            WireFault::NotConnected => rail,
            WireFault::ShortToGround => Volts(0.0),
            WireFault::ReversePolarity => match self.excitation() {
                // Protection diode pins the node near 20 % of the rail
                // with a small leak-through of the true signal.
                Excitation::Dc { .. } => Volts(0.2 * rail.0 + 0.02 * healthy.0),
                // A reversed secondary inverts the carrier.
                Excitation::Carrier { .. } => Volts(-healthy.0),
            },
        }
    }

    /// Digest over the construction parameters (not the dynamic state):
    /// two front-ends with equal digests must be built alike, and the
    /// campaign journal keys channel scenarios by it. Fold
    /// [`Conditioning::digest_into`] / [`PlausibilityBands::digest_into`]
    /// plus every constructor argument through
    /// [`ascp_sim::snapshot::fnv1a64`].
    fn config_digest(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_conditioning_applies() {
        let c = Conditioning::Linear {
            scale: 350.0,
            offset: -15.0,
        };
        assert!((c.apply(0.1) - 20.0).abs() < 1e-12);
        assert!((c.apply(0.9) - 300.0).abs() < 1e-12);
    }

    #[test]
    fn table_conditioning_interpolates_and_clamps() {
        let c = Conditioning::Table {
            points: vec![(0.1, 120.0), (0.5, 25.0), (0.9, -30.0)],
        };
        assert_eq!(c.apply(0.0), 120.0, "clamps low");
        assert_eq!(c.apply(1.0), -30.0, "clamps high");
        assert!((c.apply(0.3) - 72.5).abs() < 1e-12, "midpoint interpolates");
        assert!((c.apply(0.7) - (-2.5)).abs() < 1e-12);
    }

    #[test]
    fn ratiometric_bands_classify() {
        let b = PlausibilityBands::ratiometric_default();
        let obs = |dc: f64| NodeObservation {
            dc_ratio: dc,
            ac_ratio: 0.0,
            pilot_ratio: dc,
        };
        assert_eq!(b.classify(&obs(0.5)), None);
        assert_eq!(b.classify(&obs(0.99)), Some(WireFault::NotConnected));
        assert_eq!(b.classify(&obs(0.01)), Some(WireFault::ShortToGround));
        assert_eq!(b.classify(&obs(0.20)), Some(WireFault::ReversePolarity));
    }

    #[test]
    fn ratiometric_reverse_band_optional() {
        let b = PlausibilityBands::Ratiometric {
            short_below: 0.04,
            reverse: None,
            open_above: 0.96,
        };
        let obs = NodeObservation {
            dc_ratio: 0.20,
            ac_ratio: 0.0,
            pilot_ratio: 0.20,
        };
        assert_eq!(b.classify(&obs), None);
    }

    #[test]
    fn carrier_bands_classify() {
        let b = PlausibilityBands::Carrier {
            open_above: 0.8,
            ac_floor: 0.01,
            reverse_below: -0.02,
        };
        let ok = NodeObservation {
            dc_ratio: 0.0,
            ac_ratio: 0.06,
            pilot_ratio: 0.08,
        };
        assert_eq!(b.classify(&ok), None);
        let open = NodeObservation {
            dc_ratio: 0.97,
            ac_ratio: 0.0,
            pilot_ratio: 0.0,
        };
        assert_eq!(b.classify(&open), Some(WireFault::NotConnected));
        let short = NodeObservation {
            dc_ratio: 0.0,
            ac_ratio: 0.001,
            pilot_ratio: 0.0,
        };
        assert_eq!(b.classify(&short), Some(WireFault::ShortToGround));
        let rev = NodeObservation {
            dc_ratio: 0.0,
            ac_ratio: 0.06,
            pilot_ratio: -0.08,
        };
        assert_eq!(b.classify(&rev), Some(WireFault::ReversePolarity));
    }

    #[test]
    fn wire_labels_are_stable() {
        assert_eq!(WireFault::NotConnected.label(), "wire_not_connected");
        assert_eq!(WireFault::ShortToGround.label(), "wire_short_to_ground");
        assert_eq!(WireFault::ReversePolarity.label(), "wire_reverse_polarity");
    }
}
