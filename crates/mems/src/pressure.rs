//! Automotive pressure/temperature front-ends (MAP / IAT style).
//!
//! Two ratiometric-divider front-ends in the mould of production engine
//! management firmware (tfi-computer's `sensors.h`, the dbus-adc tank/temp
//! channels):
//!
//! - [`MapSensorFrontEnd`] — a conditioned manifold-absolute-pressure
//!   transmitter: linear ratiometric output spanning 30–90 % of the supply
//!   rail over the pressure range, [`Conditioning::Linear`] inversion, and
//!   the full dbus-adc not-connected / short / reverse-polarity bands
//!   (the valid span deliberately clears the protection-diode band).
//! - [`IatThermistorFrontEnd`] — a raw NTC thermistor in a pull-up
//!   divider: exponential beta-model resistance, inverted by a
//!   [`Conditioning::Table`] of breakpoints generated from the same model
//!   (so the table's piecewise-linear residual is a *real* conditioning
//!   error, visible in the datasheet linearity column). Its valid span
//!   crosses the diode band, so — as on real NTC channels — the
//!   reverse-polarity check is disabled.
//!
//! Both implement [`SensorFrontEnd`], so the generic channel conditions
//! them with the same PGA/ADC/decimator portfolio as every other sensor.

use crate::frontend::{Conditioning, Excitation, PlausibilityBands, SensorFrontEnd};
use ascp_sim::noise::WhiteNoise;
use ascp_sim::snapshot::{fnv1a64, StateWriter};
use ascp_sim::units::{Celsius, Volts};

/// Conditioned MAP transmitter: ratio `0.3 + 0.6·(p − min)/(max − min)`
/// of the excitation rail, plus span tempco and white output noise.
#[derive(Debug, Clone)]
pub struct MapSensorFrontEnd {
    min_kpa: f64,
    max_kpa: f64,
    rail_v: f64,
    pressure_kpa: f64,
    temperature: Celsius,
    /// Span drift per kelvin (ratio of span).
    span_tempco: f64,
    noise: WhiteNoise,
    seed: u64,
}

/// Bottom of the MAP transmitter's output span as a rail ratio.
const MAP_RATIO_LO: f64 = 0.3;
/// Output span as a rail ratio.
const MAP_RATIO_SPAN: f64 = 0.6;

impl MapSensorFrontEnd {
    /// Creates a transmitter spanning `min_kpa..max_kpa` on a `rail_v`
    /// supply (typ. `20.0..300.0` kPa on 5 V).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or the rail is not positive.
    #[must_use]
    pub fn new(min_kpa: f64, max_kpa: f64, rail_v: f64, seed: u64) -> Self {
        assert!(max_kpa > min_kpa, "empty pressure range");
        assert!(rail_v > 0.0, "rail must be positive");
        Self {
            min_kpa,
            max_kpa,
            rail_v,
            pressure_kpa: min_kpa,
            temperature: Celsius(25.0),
            span_tempco: 8.0e-5,
            noise: WhiteNoise::new(150.0e-6, seed),
            seed,
        }
    }

    /// The 20–300 kPa / 5 V automotive manifold sensor.
    #[must_use]
    pub fn automotive(seed: u64) -> Self {
        Self::new(20.0, 300.0, 5.0, seed)
    }
}

impl SensorFrontEnd for MapSensorFrontEnd {
    fn kind(&self) -> &'static str {
        "map-pressure"
    }

    fn unit(&self) -> &'static str {
        "kPa"
    }

    fn range(&self) -> (f64, f64) {
        (self.min_kpa, self.max_kpa)
    }

    fn excitation(&self) -> Excitation {
        Excitation::Dc { volts: self.rail_v }
    }

    fn conditioning(&self) -> Conditioning {
        let scale = (self.max_kpa - self.min_kpa) / MAP_RATIO_SPAN;
        Conditioning::Linear {
            scale,
            offset: self.min_kpa - MAP_RATIO_LO * scale,
        }
    }

    fn plausibility(&self) -> PlausibilityBands {
        PlausibilityBands::ratiometric_default()
    }

    fn set_stimulus(&mut self, value: f64) {
        self.pressure_kpa = value.clamp(self.min_kpa, self.max_kpa);
    }

    fn stimulus(&self) -> f64 {
        self.pressure_kpa
    }

    fn set_temperature(&mut self, t: Celsius) {
        self.temperature = t;
    }

    fn sense(&mut self, excitation: Volts, _dt: f64) -> Volts {
        let span_drift = 1.0 + self.span_tempco * (self.temperature.0 - 25.0);
        let u = (self.pressure_kpa - self.min_kpa) / (self.max_kpa - self.min_kpa);
        let ratio = MAP_RATIO_LO + MAP_RATIO_SPAN * u * span_drift;
        // The transmitter is ratiometric: its output scales with the
        // actual (possibly drooped) excitation, not the nominal rail.
        Volts(excitation.0 * ratio + self.noise.sample())
    }

    fn config_digest(&self) -> u64 {
        let mut w = StateWriter::new();
        w.put_u8_slice(b"map-pressure/v1");
        w.put_f64(self.min_kpa);
        w.put_f64(self.max_kpa);
        w.put_f64(self.rail_v);
        w.put_f64(self.span_tempco);
        w.put_u64(self.seed);
        fnv1a64(w.bytes())
    }
}

/// Raw NTC intake-air-temperature thermistor in a pull-up divider:
/// `ratio = R_ntc / (R_ntc + R_pullup)` with the beta resistance model
/// `R(T) = R25 · exp(B · (1/T − 1/T25))`.
#[derive(Debug, Clone)]
pub struct IatThermistorFrontEnd {
    r25_ohm: f64,
    beta_k: f64,
    pullup_ohm: f64,
    rail_v: f64,
    min_c: f64,
    max_c: f64,
    measured: Celsius,
    noise: WhiteNoise,
    seed: u64,
}

impl IatThermistorFrontEnd {
    /// Creates a thermistor channel (`r25_ohm` at 25 °C, beta `beta_k`,
    /// divider pull-up `pullup_ohm` to the `rail_v` rail) reporting over
    /// `min_c..max_c`.
    ///
    /// # Panics
    ///
    /// Panics if any electrical parameter is not positive or the
    /// temperature range is empty.
    #[must_use]
    pub fn new(
        r25_ohm: f64,
        beta_k: f64,
        pullup_ohm: f64,
        rail_v: f64,
        min_c: f64,
        max_c: f64,
        seed: u64,
    ) -> Self {
        assert!(
            r25_ohm > 0.0 && beta_k > 0.0 && pullup_ohm > 0.0 && rail_v > 0.0,
            "electrical parameters must be positive"
        );
        assert!(max_c > min_c, "empty temperature range");
        Self {
            r25_ohm,
            beta_k,
            pullup_ohm,
            rail_v,
            min_c,
            max_c,
            measured: Celsius(25.0),
            noise: WhiteNoise::new(120.0e-6, seed),
            seed,
        }
    }

    /// The common 10 kΩ / B=3380 automotive IAT element with a 10 kΩ
    /// pull-up on 5 V, reporting −30…120 °C.
    #[must_use]
    pub fn automotive(seed: u64) -> Self {
        Self::new(10_000.0, 3380.0, 10_000.0, 5.0, -30.0, 120.0, seed)
    }

    /// Beta-model resistance at `t`.
    #[must_use]
    pub fn resistance(&self, t: Celsius) -> f64 {
        let tk = t.0 + 273.15;
        self.r25_ohm * (self.beta_k * (1.0 / tk - 1.0 / 298.15)).exp()
    }

    fn divider_ratio(&self, t: Celsius) -> f64 {
        let r = self.resistance(t);
        r / (r + self.pullup_ohm)
    }
}

impl SensorFrontEnd for IatThermistorFrontEnd {
    fn kind(&self) -> &'static str {
        "iat-thermistor"
    }

    fn unit(&self) -> &'static str {
        "degC"
    }

    fn range(&self) -> (f64, f64) {
        (self.min_c, self.max_c)
    }

    fn excitation(&self) -> Excitation {
        Excitation::Dc { volts: self.rail_v }
    }

    fn conditioning(&self) -> Conditioning {
        // Breakpoints every 10 K from the same beta model, hot end first
        // so the table is sorted by ratio ascending. The piecewise-linear
        // inversion error between breakpoints is the channel's real
        // conditioning residual.
        let mut points = Vec::new();
        let mut t = self.max_c;
        while t >= self.min_c - 1.0e-9 {
            points.push((self.divider_ratio(Celsius(t)), t));
            t -= 10.0;
        }
        Conditioning::Table { points }
    }

    fn plausibility(&self) -> PlausibilityBands {
        // The NTC's valid span crosses the protection-diode band (a warm
        // intake reads ~0.2 of the rail), so reverse polarity is
        // electrically indistinguishable and the check is disabled.
        PlausibilityBands::Ratiometric {
            short_below: 0.04,
            reverse: None,
            open_above: 0.96,
        }
    }

    fn set_stimulus(&mut self, value: f64) {
        self.measured = Celsius(value.clamp(self.min_c, self.max_c));
    }

    fn stimulus(&self) -> f64 {
        self.measured.0
    }

    fn set_temperature(&mut self, t: Celsius) {
        // The thermistor *is* the thermometer: ambient equals stimulus.
        self.set_stimulus(t.0);
    }

    fn sense(&mut self, excitation: Volts, _dt: f64) -> Volts {
        let ratio = self.divider_ratio(self.measured);
        Volts(excitation.0 * ratio + self.noise.sample())
    }

    fn config_digest(&self) -> u64 {
        let mut w = StateWriter::new();
        w.put_u8_slice(b"iat-thermistor/v1");
        w.put_f64(self.r25_ohm);
        w.put_f64(self.beta_k);
        w.put_f64(self.pullup_ohm);
        w.put_f64(self.rail_v);
        w.put_f64(self.min_c);
        w.put_f64(self.max_c);
        w.put_u64(self.seed);
        fnv1a64(w.bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_transfer_is_linear_and_inverts() {
        let mut fe = MapSensorFrontEnd::automotive(1);
        let cond = fe.conditioning();
        for p in [20.0, 100.0, 200.0, 300.0] {
            fe.set_stimulus(p);
            let v: f64 = (0..400).map(|_| fe.sense(Volts(5.0), 1e-5).0).sum::<f64>() / 400.0;
            let eu = cond.apply(v / 5.0);
            assert!((eu - p).abs() < 1.0, "MAP inversion off at {p} kPa: {eu}");
        }
    }

    #[test]
    fn map_valid_span_clears_diode_band() {
        // Bottom of span must sit above the reverse band top (0.25), top
        // below the open threshold (0.96) — measured on the instance so
        // the assertion tracks the deployed transfer, not the constants.
        let mut fe = MapSensorFrontEnd::automotive(1);
        fe.set_stimulus(20.0);
        let lo = (0..400).map(|_| fe.sense(Volts(5.0), 1e-5).0).sum::<f64>() / 400.0 / 5.0;
        fe.set_stimulus(300.0);
        let hi = (0..400).map(|_| fe.sense(Volts(5.0), 1e-5).0).sum::<f64>() / 400.0 / 5.0;
        assert!(lo > 0.25, "span bottom {lo} inside the diode band");
        assert!(hi < 0.96, "span top {hi} above the open threshold");
    }

    #[test]
    fn iat_table_inverts_beta_model() {
        let mut fe = IatThermistorFrontEnd::automotive(2);
        let cond = fe.conditioning();
        for t in [-30.0, -10.0, 25.0, 60.0, 120.0] {
            fe.set_stimulus(t);
            let v: f64 = (0..400).map(|_| fe.sense(Volts(5.0), 1e-5).0).sum::<f64>() / 400.0;
            let eu = cond.apply(v / 5.0);
            assert!((eu - t).abs() < 1.5, "IAT inversion off at {t} C: {eu}");
        }
    }

    #[test]
    fn iat_ratio_stays_inside_wire_bands() {
        let fe = IatThermistorFrontEnd::automotive(2);
        let lo = fe.divider_ratio(Celsius(120.0));
        let hi = fe.divider_ratio(Celsius(-30.0));
        assert!(lo > 0.04, "hot end would read as a short: {lo}");
        assert!(hi < 0.96, "cold end would read as open: {hi}");
    }

    #[test]
    fn digests_track_configuration() {
        let a = MapSensorFrontEnd::automotive(1);
        let b = MapSensorFrontEnd::automotive(1);
        let c = MapSensorFrontEnd::new(20.0, 400.0, 5.0, 1);
        assert_eq!(a.config_digest(), b.config_digest());
        assert_ne!(a.config_digest(), c.config_digest());
    }
}
