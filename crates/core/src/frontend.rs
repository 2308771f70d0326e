//! The generic sensor-conditioning channel: one platform, many sensors.
//!
//! [`SensorChannel`] composes a [`SensorFrontEnd`] with the same IP
//! portfolio the gyro platform draws from — buffered voltage reference,
//! PGA, SAR ADC, CIC decimation (DC paths) or NCO + coherent demodulation
//! (carrier paths) — and retargets the platform's production machinery to
//! it:
//!
//! - **supervisor checks**: a per-channel status machine classifies every
//!   supervision window against the front-end's
//!   [`PlausibilityBands`] and latches not-connected / short-to-ground /
//!   reverse-polarity / out-of-range verdicts with a persistence filter,
//!   recording `(from, to)` transitions in the same shape the campaign
//!   coverage matrix consumes;
//! - **fault catalog**: the channel polls an [`ascp_sim::fault::FaultPlan`]
//!   and maps the wire-fault classes
//!   ([`FaultKind::WireNotConnected`] / [`FaultKind::WireShortToGround`] /
//!   [`FaultKind::WireReversePolarity`]) onto the front-end's electrical
//!   fault hook, and [`FaultKind::ReferenceDroop`] onto the excitation
//!   reference;
//! - **campaign measurements**: a channel is a campaign device
//!   ([`crate::campaign::ScenarioSpec::channel`]): the Step DSL's static
//!   transfer, noise density and fault response have channel meanings, so
//!   channel scenarios run on the same supervised
//!   [`crate::campaign::CampaignRunner`] as gyro scenarios and flow
//!   through the same CSV/coverage/telemetry artifacts.
//!
//! # Example
//!
//! ```
//! use ascp_core::frontend::{ChannelConfig, SensorChannel};
//! use ascp_mems::pressure::MapSensorFrontEnd;
//!
//! let cfg = ChannelConfig::new("map", 42);
//! let mut ch = SensorChannel::new(cfg, Box::new(MapSensorFrontEnd::automotive(7)));
//! ch.set_stimulus(150.0);
//! ch.settle(0.01);
//! let kpa = ch.read(32);
//! assert!((kpa - 150.0).abs() < 3.0);
//! ```

use crate::campaign::derive_seed;
use ascp_afe::adc::{AdcConfig, SarAdc};
use ascp_afe::amp::Pga;
use ascp_afe::refs::VoltageReference;
use ascp_dsp::cic::CicDecimator;
use ascp_dsp::demod::Demodulator;
use ascp_dsp::nco::Nco;
use ascp_mems::frontend::{
    Excitation, NodeObservation, PlausibilityBands, SensorFrontEnd, WireFault,
};
use ascp_sim::fault::{FaultEdge, FaultKind, FaultPlan};
use ascp_sim::snapshot::{fnv1a64, StateWriter};
use ascp_sim::stats;
use ascp_sim::units::{Celsius, Volts};

/// Construction parameters of a [`SensorChannel`].
#[derive(Debug, Clone)]
pub struct ChannelConfig {
    /// Channel name (telemetry, scenario rows).
    pub name: String,
    /// Raw analog sample rate, Hz.
    pub fs_hz: f64,
    /// Decimation factor: CIC rate change on DC paths, demodulator
    /// decimation on carrier paths.
    pub decimation: u32,
    /// PGA gain code into [`Pga::GAIN_LADDER`].
    pub gain_code: u8,
    /// Signal-path ADC full scale, volts (the monitor ADC is always
    /// referenced to the excitation rail).
    pub adc_vref: f64,
    /// Raw samples per supervision window (default 100: 1 kHz at the
    /// default 100 kHz sample rate — the platform's monitor cadence).
    pub monitor_window: u32,
    /// Consecutive windows a verdict must hold before the status latches.
    pub persistence: u32,
    /// Master noise seed; component seeds derive from it.
    pub seed: u64,
}

impl ChannelConfig {
    /// Defaults: 100 kHz sampling, ÷50 decimation, unity gain, ±2.5 V
    /// signal ADC, 1 kHz supervision with a 3-window persistence filter.
    #[must_use]
    pub fn new(name: &str, seed: u64) -> Self {
        Self {
            name: name.to_owned(),
            fs_hz: 100_000.0,
            decimation: 50,
            gain_code: 0,
            adc_vref: 2.5,
            monitor_window: 100,
            persistence: 3,
            seed,
        }
    }

    /// Digest over the channel's own parameters (the front-end adds its
    /// own via [`SensorFrontEnd::config_digest`]).
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut w = StateWriter::new();
        w.put_u8_slice(self.name.as_bytes());
        w.put_f64(self.fs_hz);
        w.put_u32(self.decimation);
        w.put_u8(self.gain_code);
        w.put_f64(self.adc_vref);
        w.put_u32(self.monitor_window);
        w.put_u32(self.persistence);
        w.put_u64(self.seed);
        fnv1a64(w.bytes())
    }
}

/// The channel supervisor's latched status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelStatus {
    /// No window classified yet.
    Init,
    /// Node inside the valid bands, output inside range.
    Normal,
    /// Harness open (node at the pull-up rail).
    NotConnected,
    /// Harness shorted to ground.
    ShortToGround,
    /// Connector reversed.
    ReversePolarity,
    /// Node plausible but the conditioned output left the declared range.
    OutOfRange,
}

impl ChannelStatus {
    /// Every status in declaration order.
    #[cfg(test)]
    pub(crate) const ALL: [Self; 6] = [
        Self::Init,
        Self::Normal,
        Self::NotConnected,
        Self::ShortToGround,
        Self::ReversePolarity,
        Self::OutOfRange,
    ];

    /// Stable label (supervisor transitions, coverage columns).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Init => "init",
            Self::Normal => "normal",
            Self::NotConnected => "not_connected",
            Self::ShortToGround => "short_to_ground",
            Self::ReversePolarity => "reverse_polarity",
            Self::OutOfRange => "out_of_range",
        }
    }

    /// The status the first wire fault scheduled in `plan` latches; `None`
    /// when the plan holds no wire fault.
    pub(crate) fn latched_by(plan: &FaultPlan) -> Option<Self> {
        plan.specs().find_map(|f| match f.kind {
            FaultKind::WireNotConnected => Some(Self::NotConnected),
            FaultKind::WireShortToGround => Some(Self::ShortToGround),
            FaultKind::WireReversePolarity => Some(Self::ReversePolarity),
            _ => None,
        })
    }

    fn from_wire(fault: Option<WireFault>) -> Self {
        match fault {
            None => Self::Normal,
            Some(WireFault::NotConnected) => Self::NotConnected,
            Some(WireFault::ShortToGround) => Self::ShortToGround,
            Some(WireFault::ReversePolarity) => Self::ReversePolarity,
        }
    }
}

/// DC signal path: CIC decimator.
#[derive(Debug)]
struct DcPath {
    cic: CicDecimator,
}

/// Carrier signal path: NCO excitation + coherent demodulation.
#[derive(Debug)]
struct CarrierPath {
    nco: Nco,
    demod: Demodulator,
    amplitude_v: f64,
    /// One-pole low-passed demodulated ratio (the pilot monitor).
    pilot_filt: f64,
}

enum SignalPath {
    Dc(DcPath),
    Carrier(CarrierPath),
}

/// A complete conditioning channel for one [`SensorFrontEnd`].
pub struct SensorChannel {
    config: ChannelConfig,
    frontend: Box<dyn SensorFrontEnd + Send>,
    excitation: VoltageReference,
    rail_nominal: f64,
    /// Resistive tap in front of the PGA: keeps a full-rail node (the
    /// not-connected fault level) inside the ±2.5 V amplifier swing when
    /// the sensor is excited from a higher rail.
    input_div: f64,
    pga: Pga,
    adc: SarAdc,
    monitor_adc: SarAdc,
    path: SignalPath,
    faults: FaultPlan,
    fault_edges: Vec<FaultEdge>,
    wire_fault: Option<WireFault>,
    bands: PlausibilityBands,
    /// Simulation time, seconds.
    t: f64,
    /// Monitor-window accumulators over raw node samples.
    win_sum: f64,
    win_sq: f64,
    win_n: u32,
    /// Latched status + persistence filter.
    status: ChannelStatus,
    candidate: ChannelStatus,
    candidate_count: u32,
    transitions: Vec<(&'static str, &'static str)>,
    /// Last decimated conditioned output (engineering units) and the
    /// normalized ratio it came from.
    last_eu: f64,
    last_ratio: f64,
}

impl SensorChannel {
    /// Builds a channel for `frontend` from the shared IP portfolio.
    #[must_use]
    pub fn new(config: ChannelConfig, frontend: Box<dyn SensorFrontEnd + Send>) -> Self {
        let excitation_spec = frontend.excitation();
        let rail_nominal = excitation_spec.rail();
        // PGA output rails at ±2.5 V; a 5 V ratiometric node needs a 2:1
        // divider tap so the full-rail (not-connected) level still fits.
        let input_div = (rail_nominal / 2.5).max(1.0);
        let excitation = VoltageReference::new(
            Volts(rail_nominal),
            25.0e-6,
            20.0e-6,
            derive_seed(config.seed, 1),
        );
        let mut pga = Pga::new(
            500_000.0,
            50.0e-6,
            1.0e-6,
            10.0e-6,
            derive_seed(config.seed, 2),
        );
        pga.set_gain_code(config.gain_code);
        let adc = SarAdc::new(AdcConfig {
            vref: Volts(config.adc_vref),
            seed: derive_seed(config.seed, 3),
            ..AdcConfig::default()
        });
        // The monitor ADC taps the unamplified node, referenced to the
        // excitation rail (ratiometric, dbus-adc style).
        let monitor_adc = SarAdc::new(AdcConfig {
            vref: Volts(rail_nominal),
            seed: derive_seed(config.seed, 4),
            ..AdcConfig::default()
        });
        let path = match excitation_spec {
            Excitation::Dc { .. } => SignalPath::Dc(DcPath {
                cic: CicDecimator::new(3, config.decimation),
            }),
            Excitation::Carrier {
                freq_hz,
                amplitude_v,
            } => {
                let mut nco = Nco::new();
                nco.set_frequency(freq_hz, config.fs_hz);
                SignalPath::Carrier(CarrierPath {
                    nco,
                    // Channel filter well below the carrier.
                    demod: Demodulator::new(200.0 / config.fs_hz, 101, config.decimation),
                    amplitude_v,
                    pilot_filt: 0.0,
                })
            }
        };
        let bands = frontend.plausibility();
        Self {
            config,
            frontend,
            excitation,
            rail_nominal,
            input_div,
            pga,
            adc,
            monitor_adc,
            path,
            faults: FaultPlan::new(),
            fault_edges: Vec::new(),
            wire_fault: None,
            bands,
            t: 0.0,
            win_sum: 0.0,
            win_sq: 0.0,
            win_n: 0,
            status: ChannelStatus::Init,
            candidate: ChannelStatus::Init,
            candidate_count: 0,
            transitions: Vec::new(),
            last_eu: 0.0,
            last_ratio: 0.0,
        }
    }

    /// Installs a fault plan (wire faults and reference droop are mapped;
    /// other catalog classes do not apply to a bare channel).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// The channel configuration.
    #[must_use]
    pub fn config(&self) -> &ChannelConfig {
        &self.config
    }

    /// The conditioned front-end.
    #[must_use]
    pub fn frontend(&self) -> &dyn SensorFrontEnd {
        self.frontend.as_ref()
    }

    /// Sets the physical stimulus in engineering units.
    pub fn set_stimulus(&mut self, value: f64) {
        self.frontend.set_stimulus(value);
    }

    /// Sets the transducer temperature.
    pub fn set_temperature(&mut self, t: Celsius) {
        self.frontend.set_temperature(t);
    }

    /// Current simulation time, seconds.
    #[must_use]
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Latched supervisor status.
    #[must_use]
    pub fn status(&self) -> ChannelStatus {
        self.status
    }

    /// Supervisor `(from, to)` transitions observed so far.
    #[must_use]
    pub fn transitions(&self) -> &[(&'static str, &'static str)] {
        &self.transitions
    }

    /// Last normalized node/demod ratio feeding the conditioning recipe.
    #[must_use]
    pub fn last_ratio(&self) -> f64 {
        self.last_ratio
    }

    /// Decimated output sample rate, Hz.
    #[must_use]
    pub fn output_rate(&self) -> f64 {
        self.config.fs_hz / f64::from(self.config.decimation)
    }

    /// Combined configuration digest: channel parameters + front-end
    /// construction parameters. The campaign journal keys channel
    /// scenarios by it.
    #[must_use]
    pub fn config_digest(&self) -> u64 {
        let mut w = StateWriter::new();
        w.put_u64(self.config.digest());
        w.put_u64(self.frontend.config_digest());
        fnv1a64(w.bytes())
    }

    fn apply_fault_edge(&mut self, e: FaultEdge) {
        let on = e.activated;
        match e.kind {
            FaultKind::WireNotConnected => {
                self.wire_fault = on.then_some(WireFault::NotConnected);
            }
            FaultKind::WireShortToGround => {
                self.wire_fault = on.then_some(WireFault::ShortToGround);
            }
            FaultKind::WireReversePolarity => {
                self.wire_fault = on.then_some(WireFault::ReversePolarity);
            }
            FaultKind::ReferenceDroop { frac } => {
                self.excitation.set_droop(if on { frac } else { 0.0 });
            }
            // The remaining catalog classes target gyro-platform blocks
            // (converters, buses, CPU) the bare channel does not own.
            _ => {}
        }
    }

    /// Advances one raw sample; returns the conditioned output when the
    /// decimator emits one.
    pub fn step(&mut self) -> Option<f64> {
        let dt = 1.0 / self.config.fs_hz;
        self.t += dt;
        if !self.faults.is_empty() {
            self.fault_edges.clear();
            self.faults.poll(self.t, &mut self.fault_edges);
            let edges = std::mem::take(&mut self.fault_edges);
            for e in &edges {
                self.apply_fault_edge(*e);
            }
            self.fault_edges = edges;
        }
        let rail = self.excitation.output();

        // Instantaneous excitation + front-end sense.
        let (exc_inst, refs) = match &mut self.path {
            SignalPath::Dc(_) => (rail, None),
            SignalPath::Carrier(cp) => {
                let (s, c) = cp.nco.tick();
                let amp = cp.amplitude_v * rail.0 / self.rail_nominal;
                (Volts(amp * s.to_f64()), Some((s, c)))
            }
        };
        let healthy = self.frontend.sense(exc_inst, dt);
        let node = match self.wire_fault {
            Some(f) => self
                .frontend
                .wire_fault_node(f, healthy, Volts(self.rail_nominal)),
            None => healthy,
        };

        // Monitor path: raw node against the excitation rail.
        let mon = self.monitor_adc.convert_q15(node).to_f64() * self.rail_nominal;
        self.win_sum += mon;
        self.win_sq += mon * mon;
        self.win_n += 1;
        if self.win_n >= self.config.monitor_window {
            self.supervise();
        }

        // Signal path: divider tap → PGA → ADC → decimation.
        let amp_out = self.pga.process(Volts(node.0 / self.input_div), dt);
        let q = self.adc.convert_q15(amp_out);
        let gain = self.pga.gain() / self.input_div;
        let out = match &mut self.path {
            SignalPath::Dc(p) => p.cic.process(q).map(|y| {
                let volts = y.to_f64() * self.config.adc_vref / gain;
                volts / self.rail_nominal
            }),
            SignalPath::Carrier(cp) => {
                let (s, c) = refs.expect("carrier path has NCO references");
                cp.demod.process(q, s, c).map(|iq| {
                    // The demod mixer restores the sin²→½ loss itself, so
                    // the in-phase output is already the modulated node
                    // amplitude; undo only gain/vref to get the ratio.
                    let ratio = iq.i.to_f64() * self.config.adc_vref / (gain * cp.amplitude_v);
                    cp.pilot_filt += 0.2 * (ratio - cp.pilot_filt);
                    ratio
                })
            }
        };
        out.map(|ratio| {
            self.last_ratio = ratio;
            self.last_eu = self.frontend.conditioning().apply(ratio);
            self.last_eu
        })
    }

    /// One supervision window: classify the node observation, run the
    /// persistence filter, latch transitions.
    fn supervise(&mut self) {
        let n = f64::from(self.win_n.max(1));
        let mean = self.win_sum / n;
        let var = (self.win_sq / n - mean * mean).max(0.0);
        let obs = NodeObservation {
            dc_ratio: mean / self.rail_nominal,
            ac_ratio: var.sqrt() / self.rail_nominal,
            pilot_ratio: match &self.path {
                SignalPath::Dc(_) => mean / self.rail_nominal,
                SignalPath::Carrier(cp) => cp.pilot_filt,
            },
        };
        self.win_sum = 0.0;
        self.win_sq = 0.0;
        self.win_n = 0;

        let mut verdict = ChannelStatus::from_wire(self.bands.classify(&obs));
        if verdict == ChannelStatus::Normal {
            let (lo, hi) = self.frontend.range();
            let margin = 0.05 * (hi - lo);
            if self.last_eu < lo - margin || self.last_eu > hi + margin {
                verdict = ChannelStatus::OutOfRange;
            }
        }

        if verdict == self.candidate {
            self.candidate_count += 1;
        } else {
            self.candidate = verdict;
            self.candidate_count = 1;
        }
        if self.candidate_count >= self.config.persistence && self.status != self.candidate {
            self.transitions
                .push((self.status.label(), self.candidate.label()));
            self.status = self.candidate;
        }
    }

    /// Runs raw ticks for `seconds` without collecting outputs.
    pub fn settle(&mut self, seconds: f64) {
        let n = (seconds * self.config.fs_hz).ceil() as u64;
        for _ in 0..n {
            let _ = self.step();
        }
    }

    /// Collects `n` decimated outputs.
    pub fn collect(&mut self, n: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            if let Some(y) = self.step() {
                out.push(y);
            }
        }
        out
    }

    /// Mean of `n` decimated outputs, engineering units.
    pub fn read(&mut self, n: usize) -> f64 {
        stats::mean(&self.collect(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascp_mems::accel::CapacitiveAccelFrontEnd;
    use ascp_mems::pressure::{IatThermistorFrontEnd, MapSensorFrontEnd};

    fn map_channel(seed: u64) -> SensorChannel {
        let mut cfg = ChannelConfig::new("map", seed);
        cfg.adc_vref = 5.0;
        SensorChannel::new(cfg, Box::new(MapSensorFrontEnd::automotive(seed ^ 0x51)))
    }

    fn accel_channel(seed: u64) -> SensorChannel {
        let cfg = ChannelConfig::new("accel", seed);
        SensorChannel::new(
            cfg,
            Box::new(CapacitiveAccelFrontEnd::crash_50g(seed ^ 0x52)),
        )
    }

    #[test]
    fn map_channel_reads_pressure() {
        let mut ch = map_channel(11);
        ch.set_stimulus(150.0);
        ch.settle(0.02);
        let kpa = ch.read(32);
        assert!((kpa - 150.0).abs() < 3.0, "read {kpa} kPa");
        assert_eq!(ch.status(), ChannelStatus::Normal);
    }

    #[test]
    fn iat_channel_reads_temperature() {
        let mut cfg = ChannelConfig::new("iat", 13);
        cfg.adc_vref = 5.0;
        let mut ch = SensorChannel::new(cfg, Box::new(IatThermistorFrontEnd::automotive(99)));
        ch.set_stimulus(60.0);
        ch.settle(0.02);
        let c = ch.read(32);
        assert!((c - 60.0).abs() < 2.5, "read {c} C");
    }

    #[test]
    fn accel_channel_reads_g() {
        let mut ch = accel_channel(17);
        ch.set_stimulus(20.0);
        ch.settle(0.05);
        let g = ch.read(64);
        assert!((g - 20.0).abs() < 1.5, "read {g} g");
        assert_eq!(ch.status(), ChannelStatus::Normal);
    }

    #[test]
    fn map_wire_faults_classified() {
        for (fault, expect) in [
            (FaultKind::WireNotConnected, ChannelStatus::NotConnected),
            (FaultKind::WireShortToGround, ChannelStatus::ShortToGround),
            (
                FaultKind::WireReversePolarity,
                ChannelStatus::ReversePolarity,
            ),
        ] {
            let mut ch = map_channel(19);
            ch.set_stimulus(200.0);
            let mut plan = FaultPlan::new();
            plan.one_shot(fault, 0.05, 0.05);
            ch.set_fault_plan(plan);
            ch.settle(0.08);
            assert_eq!(ch.status(), expect, "fault {fault:?}");
            ch.settle(0.05);
            assert_eq!(ch.status(), ChannelStatus::Normal, "recovery {fault:?}");
        }
    }

    #[test]
    fn accel_reverse_polarity_flips_pilot() {
        let mut ch = accel_channel(23);
        ch.set_stimulus(0.0);
        let mut plan = FaultPlan::new();
        plan.one_shot(FaultKind::WireReversePolarity, 0.05, 0.08);
        ch.set_fault_plan(plan);
        ch.settle(0.1);
        assert_eq!(ch.status(), ChannelStatus::ReversePolarity);
    }
}
