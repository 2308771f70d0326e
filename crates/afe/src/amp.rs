//! Programmable-gain and charge amplifiers.
//!
//! Per the paper, "programming main components parameters (such as
//! amplifier gains and bandwidth ...) through the digital part allows a more
//! accurate adaptation of the front end circuitry to the requirements of
//! different sensors, both at design stage and during real working
//! conditions (with the chance of on-line trimming)" (§3). Both amplifier
//! models expose gain/bandwidth as run-time programmable parameters, and
//! include the nonidealities that matter for the datasheet rows: offset and
//! its temperature drift (null stability), input-referred white + flicker
//! noise (rate noise density), and rail saturation.

use ascp_sim::noise::{PinkLanes, PinkNoise, WhiteLanes, WhiteNoise};
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};
use ascp_sim::units::{Celsius, Volts};

/// Programmable-gain amplifier with a single-pole bandwidth limit.
#[derive(Debug, Clone)]
pub struct Pga {
    gain_code: u8,
    gains: Vec<f64>,
    /// Pole frequency (Hz).
    bandwidth: f64,
    /// The one-pole coefficient for the `(bandwidth, dt)` it was last
    /// computed at.
    pole: Pole,
    /// Internal one-pole state.
    state: f64,
    /// Input-referred offset at 25 °C (V).
    offset: f64,
    /// Offset drift (V/°C).
    offset_tc: f64,
    temperature: Celsius,
    /// Output rails.
    rail: Volts,
    white: WhiteNoise,
    pink: PinkNoise,
}

impl Pga {
    /// Available gain settings (binary ladder ×1 … ×512, gain codes 0..=9).
    pub const GAIN_LADDER: [f64; 10] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0];

    /// Creates a PGA at gain code 0 (×1) with bandwidth `bandwidth_hz`,
    /// offset `offset_v` (drifting `offset_tc_v` per °C), input-referred
    /// white noise `noise_rms` per sample and matching flicker noise.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_hz` is not positive or `noise_rms` is negative.
    #[must_use]
    pub fn new(
        bandwidth_hz: f64,
        offset_v: f64,
        offset_tc_v: f64,
        noise_rms: f64,
        seed: u64,
    ) -> Self {
        assert!(bandwidth_hz > 0.0, "bandwidth must be positive");
        assert!(noise_rms >= 0.0, "noise must be non-negative");
        Self {
            gain_code: 0,
            gains: Self::GAIN_LADDER.to_vec(),
            bandwidth: bandwidth_hz,
            pole: Pole::UNSET,
            state: 0.0,
            offset: offset_v,
            offset_tc: offset_tc_v,
            temperature: Celsius(25.0),
            rail: Volts(2.5),
            white: WhiteNoise::new(noise_rms, seed),
            pink: PinkNoise::new(noise_rms * 0.5, 14, seed ^ 0x99),
        }
    }

    /// Selects a gain code (0..=9 → ×1..×512); the platform writes this
    /// register over JTAG.
    ///
    /// # Panics
    ///
    /// Panics if `code` exceeds the ladder.
    pub fn set_gain_code(&mut self, code: u8) {
        assert!(
            (code as usize) < self.gains.len(),
            "gain code {code} outside ladder"
        );
        self.gain_code = code;
    }

    /// Current gain code.
    #[must_use]
    pub fn gain_code(&self) -> u8 {
        self.gain_code
    }

    /// Current linear gain.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gains[self.gain_code as usize]
    }

    /// Reprograms the pole frequency (on-line bandwidth trimming).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_hz` is not positive.
    pub fn set_bandwidth(&mut self, bandwidth_hz: f64) {
        assert!(bandwidth_hz > 0.0, "bandwidth must be positive");
        self.bandwidth = bandwidth_hz;
    }

    /// Pole frequency (Hz).
    #[must_use]
    pub fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Sets die temperature (shifts the offset).
    pub fn set_temperature(&mut self, t: Celsius) {
        self.temperature = t;
    }

    /// Effective input-referred offset at the current temperature.
    #[must_use]
    pub fn effective_offset(&self) -> Volts {
        Volts(self.offset + self.offset_tc * (self.temperature.0 - 25.0))
    }

    /// Processes one sample taken `dt` seconds after the previous one.
    #[inline]
    pub fn process(&mut self, input: Volts, dt: f64) -> Volts {
        let x = input.0 + self.effective_offset().0 + self.white.sample() + self.pink.sample();
        let y_target = x * self.gain();
        // One-pole lowpass toward the target (amplifier bandwidth).
        if self.pole.bandwidth.to_bits() != self.bandwidth.to_bits()
            || self.pole.dt.to_bits() != dt.to_bits()
        {
            self.pole = Pole::new(self.bandwidth, dt);
        }
        self.state += self.pole.alpha * (y_target - self.state);
        Volts(self.state.clamp(-self.rail.0, self.rail.0))
    }

    /// Clears the filter state.
    pub fn reset(&mut self) {
        self.state = 0.0;
    }

    /// Serializes the programmable settings (gain code, bandwidth), filter
    /// state, temperature, and both noise generators.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u8(self.gain_code);
        w.put_f64(self.bandwidth);
        w.put_f64(self.state);
        w.put_f64(self.temperature.0);
        self.white.save_state(w);
        self.pink.save_state(w);
    }

    /// Restores state saved by [`Pga::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] if the gain code is outside the
    /// ladder or the bandwidth is not physical; propagates other
    /// [`SnapshotError`]s on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let gain_code = r.take_u8()?;
        if gain_code as usize >= self.gains.len() {
            return Err(SnapshotError::Corrupt {
                context: format!("PGA gain code {gain_code} outside ladder"),
            });
        }
        let bandwidth = r.take_f64()?;
        if !(bandwidth.is_finite() && bandwidth > 0.0) {
            return Err(SnapshotError::Corrupt {
                context: format!("PGA bandwidth {bandwidth} not physical"),
            });
        }
        self.gain_code = gain_code;
        self.bandwidth = bandwidth;
        self.state = r.take_f64()?;
        self.temperature = Celsius(r.take_f64()?);
        self.white.load_state(r)?;
        self.pink.load_state(r)?;
        Ok(())
    }
}

/// A one-pole lowpass coefficient and the inputs it is a pure function of.
#[derive(Debug, Clone, Copy)]
struct Pole {
    bandwidth: f64,
    dt: f64,
    alpha: f64,
}

impl Pole {
    /// Matches no inputs: its NaN bandwidth has the bits of no physical
    /// one.
    const UNSET: Self = Self {
        bandwidth: f64::NAN,
        dt: f64::NAN,
        alpha: f64::NAN,
    };

    fn new(bandwidth: f64, dt: f64) -> Self {
        Self {
            bandwidth,
            dt,
            alpha: 1.0 - (-2.0 * std::f64::consts::PI * bandwidth * dt).exp(),
        }
    }
}

/// Charge amplifier: converts a capacitive pickoff displacement (normalized
/// units) into volts. Gain is the platform's pickoff scale factor.
#[derive(Debug, Clone)]
pub struct ChargeAmplifier {
    /// Volts per normalized displacement unit.
    gain: f64,
    noise: WhiteNoise,
    rail: Volts,
}

impl ChargeAmplifier {
    /// Creates a charge amp with `gain` volts per displacement unit and
    /// output noise `noise_rms`.
    ///
    /// # Panics
    ///
    /// Panics if `gain` is zero/negative or `noise_rms` negative.
    #[must_use]
    pub fn new(gain: f64, noise_rms: f64, seed: u64) -> Self {
        assert!(gain > 0.0, "charge-amp gain must be positive");
        assert!(noise_rms >= 0.0, "noise must be non-negative");
        Self {
            gain,
            noise: WhiteNoise::new(noise_rms, seed),
            rail: Volts(2.5),
        }
    }

    /// Volts per displacement unit.
    #[must_use]
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// Converts one displacement sample to a voltage.
    #[inline]
    pub fn convert(&mut self, displacement: f64) -> Volts {
        Volts((displacement * self.gain + self.noise.sample()).clamp(-self.rail.0, self.rail.0))
    }

    /// Serializes the noise generator (gain and rails are configuration).
    pub fn save_state(&self, w: &mut StateWriter) {
        self.noise.save_state(w);
    }

    /// Restores state saved by [`ChargeAmplifier::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.noise.load_state(r)
    }
}

/// Lane-parallel PGA kernel: N amplifiers in lockstep with batched noise
/// and per-lane cached pole coefficients.
///
/// The one-pole update and clamp are the exact expressions of
/// [`Pga::process`]; the `alpha` coefficient is precomputed per lane for
/// the fixed fleet `dt` by the scalar path's own expression, hence the
/// same bits.
#[derive(Debug, Clone)]
pub struct PgaLanes {
    gain: Vec<f64>,
    offset_eff: Vec<f64>,
    alpha: Vec<f64>,
    state: Vec<f64>,
    rail: Vec<f64>,
    white: WhiteLanes,
    pink: PinkLanes,
    w_draw: Vec<f64>,
    p_draw: Vec<f64>,
}

impl PgaLanes {
    /// Captures N PGAs for lockstep processing at sample interval `dt`.
    ///
    /// Returns `None` if the noise generators are not phase-uniform.
    pub fn extract<'a>(pgas: impl Iterator<Item = &'a Pga>, dt: f64) -> Option<Self> {
        let ps: Vec<&Pga> = pgas.collect();
        let white = WhiteLanes::extract(ps.iter().map(|p| &p.white))?;
        let pink = PinkLanes::extract(ps.iter().map(|p| &p.pink))?;
        let n = ps.len();
        let mut lanes = Self {
            gain: Vec::with_capacity(n),
            offset_eff: Vec::with_capacity(n),
            alpha: Vec::with_capacity(n),
            state: Vec::with_capacity(n),
            rail: Vec::with_capacity(n),
            white,
            pink,
            w_draw: vec![0.0; n],
            p_draw: vec![0.0; n],
        };
        for p in &ps {
            lanes.gain.push(p.gain());
            lanes.offset_eff.push(p.effective_offset().0);
            lanes.alpha.push(Pole::new(p.bandwidth, dt).alpha);
            lanes.state.push(p.state);
            lanes.rail.push(p.rail.0);
        }
        Some(lanes)
    }

    /// Writes filter state and noise generators back.
    pub fn restore<'a>(&self, pgas: impl Iterator<Item = &'a mut Pga>) {
        let mut ps: Vec<&mut Pga> = pgas.collect();
        self.white.restore(ps.iter_mut().map(|p| &mut p.white));
        self.pink.restore(ps.iter_mut().map(|p| &mut p.pink));
        for (l, p) in ps.into_iter().enumerate() {
            p.state = self.state[l];
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.gain.len()
    }

    /// Processes one sample per lane.
    #[inline]
    pub fn process(&mut self, input: &[f64], out: &mut [f64]) {
        let n = self.gain.len();
        self.white.sample(&mut self.w_draw);
        self.pink.sample(&mut self.p_draw);
        for l in 0..n {
            let x = input[l] + self.offset_eff[l] + self.w_draw[l] + self.p_draw[l];
            let y_target = x * self.gain[l];
            self.state[l] += self.alpha[l] * (y_target - self.state[l]);
            out[l] = self.state[l].clamp(-self.rail[l], self.rail[l]);
        }
    }
}

/// Lane-parallel charge-amplifier kernel (batched noise + SoA convert).
#[derive(Debug, Clone)]
pub struct ChargeLanes {
    gain: Vec<f64>,
    rail: Vec<f64>,
    noise: WhiteLanes,
    draw: Vec<f64>,
}

impl ChargeLanes {
    /// Captures N charge amps; `None` if noise phases are not uniform.
    pub fn extract<'a>(amps: impl Iterator<Item = &'a ChargeAmplifier>) -> Option<Self> {
        let cs: Vec<&ChargeAmplifier> = amps.collect();
        let noise = WhiteLanes::extract(cs.iter().map(|c| &c.noise))?;
        let n = cs.len();
        Some(Self {
            gain: cs.iter().map(|c| c.gain).collect(),
            rail: cs.iter().map(|c| c.rail.0).collect(),
            noise,
            draw: vec![0.0; n],
        })
    }

    /// Writes the noise generators back (gain and rails are configuration).
    pub fn restore<'a>(&self, amps: impl Iterator<Item = &'a mut ChargeAmplifier>) {
        let mut cs: Vec<&mut ChargeAmplifier> = amps.collect();
        self.noise.restore(cs.iter_mut().map(|c| &mut c.noise));
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.gain.len()
    }

    /// Converts one displacement sample per lane.
    #[inline]
    pub fn convert(&mut self, displacement: &[f64], out: &mut [f64]) {
        let n = self.gain.len();
        self.noise.sample(&mut self.draw);
        for l in 0..n {
            out[l] =
                (displacement[l] * self.gain[l] + self.draw[l]).clamp(-self.rail[l], self.rail[l]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: f64 = 1.0e-6;

    fn quiet_pga() -> Pga {
        Pga::new(100_000.0, 0.0, 0.0, 0.0, 1)
    }

    #[test]
    fn gain_ladder_steps() {
        let mut pga = quiet_pga();
        for code in 0..10u8 {
            pga.set_gain_code(code);
            assert_eq!(pga.gain(), 2f64.powi(code as i32));
        }
    }

    #[test]
    #[should_panic(expected = "gain code")]
    fn rejects_gain_code_out_of_ladder() {
        quiet_pga().set_gain_code(10);
    }

    #[test]
    fn dc_gain_after_settling() {
        let mut pga = quiet_pga();
        pga.set_gain_code(3); // ×8
        let mut y = Volts(0.0);
        for _ in 0..10_000 {
            y = pga.process(Volts(0.01), DT);
        }
        assert!((y.0 - 0.08).abs() < 1e-4, "output {}", y.0);
    }

    #[test]
    fn saturates_at_rails() {
        let mut pga = quiet_pga();
        pga.set_gain_code(9); // ×512
        let mut y = Volts(0.0);
        for _ in 0..10_000 {
            y = pga.process(Volts(0.5), DT);
        }
        assert!((y.0 - 2.5).abs() < 1e-9, "not railed: {}", y.0);
    }

    #[test]
    fn bandwidth_attenuates_fast_signals() {
        let mut pga = Pga::new(1_000.0, 0.0, 0.0, 0.0, 1);
        // 50 kHz input through a 1 kHz pole: heavily attenuated.
        let w = 2.0 * std::f64::consts::PI * 50_000.0;
        let mut peak = 0.0f64;
        for k in 0..200_000 {
            let y = pga.process(Volts(1.0 * (w * k as f64 * DT).sin()), DT);
            if k > 100_000 {
                peak = peak.max(y.0.abs());
            }
        }
        assert!(peak < 0.05, "insufficient rolloff: {peak}");
    }

    #[test]
    fn offset_drifts_with_temperature() {
        let mut pga = Pga::new(100_000.0, 1.0e-3, 10.0e-6, 0.0, 1);
        assert!((pga.effective_offset().0 - 1.0e-3).abs() < 1e-12);
        pga.set_temperature(Celsius(125.0));
        assert!((pga.effective_offset().0 - 2.0e-3).abs() < 1e-9);
        pga.set_temperature(Celsius(-40.0));
        assert!((pga.effective_offset().0 - 0.35e-3).abs() < 1e-9);
    }

    #[test]
    fn noise_present_when_configured() {
        let mut pga = Pga::new(100_000.0, 0.0, 0.0, 1.0e-3, 7);
        let a = pga.process(Volts(0.0), DT);
        let mut differs = false;
        for _ in 0..50 {
            if pga.process(Volts(0.0), DT) != a {
                differs = true;
            }
        }
        assert!(differs, "noise missing");
    }

    #[test]
    fn charge_amp_scales_displacement() {
        let mut ca = ChargeAmplifier::new(4.0, 0.0, 1);
        assert!((ca.convert(0.5).0 - 2.0).abs() < 1e-12);
        assert!((ca.convert(-0.25).0 + 1.0).abs() < 1e-12);
    }

    #[test]
    fn charge_amp_clips() {
        let mut ca = ChargeAmplifier::new(4.0, 0.0, 1);
        assert_eq!(ca.convert(10.0).0, 2.5);
        assert_eq!(ca.convert(-10.0).0, -2.5);
    }

    #[test]
    fn reprogramming_bandwidth() {
        let mut pga = quiet_pga();
        pga.set_bandwidth(5_000.0);
        assert_eq!(pga.bandwidth(), 5_000.0);
    }

    #[test]
    fn pga_lanes_match_scalar_bit_for_bit() {
        for n in [1usize, 3, 8] {
            let mut scalars: Vec<Pga> = (0..n)
                .map(|i| {
                    let mut p = Pga::new(
                        200_000.0 * (1.0 + 0.01 * i as f64),
                        100.0e-6 * (i as f64 + 1.0),
                        2.0e-6,
                        20.0e-6,
                        42 ^ (i as u64) << 4,
                    );
                    p.set_gain_code((i % 4) as u8);
                    p.set_temperature(Celsius(25.0 + 10.0 * i as f64));
                    p
                })
                .collect();
            let mut lanes = PgaLanes::extract(scalars.iter(), DT).expect("uniform phase");
            let mut reference = scalars.clone();
            let mut input = vec![0.0; n];
            let mut out = vec![0.0; n];
            for k in 0..600u64 {
                for (l, x) in input.iter_mut().enumerate() {
                    *x = 0.01 * (0.05 * (k as f64 + l as f64)).sin();
                }
                lanes.process(&input, &mut out);
                for (l, p) in reference.iter_mut().enumerate() {
                    let y = p.process(Volts(input[l]), DT);
                    assert_eq!(y.0.to_bits(), out[l].to_bits(), "lane {l} tick {k}");
                }
            }
            lanes.restore(scalars.iter_mut());
            for (a, b) in scalars.iter_mut().zip(reference.iter_mut()) {
                assert_eq!(a.process(Volts(0.02), DT), b.process(Volts(0.02), DT));
            }
        }
    }

    #[test]
    fn charge_lanes_match_scalar_bit_for_bit() {
        let mut scalars: Vec<ChargeAmplifier> = (0..5)
            .map(|i| ChargeAmplifier::new(1.0e7, 50.0e-6, 7 ^ (i as u64) << 3))
            .collect();
        let mut lanes = ChargeLanes::extract(scalars.iter()).expect("uniform phase");
        let mut reference = scalars.clone();
        let mut disp = vec![0.0; 5];
        let mut out = vec![0.0; 5];
        for k in 0..400u64 {
            for (l, d) in disp.iter_mut().enumerate() {
                *d = 1.0e-8 * (0.2 * (k as f64 - l as f64)).cos();
            }
            lanes.convert(&disp, &mut out);
            for (l, c) in reference.iter_mut().enumerate() {
                assert_eq!(c.convert(disp[l]).0.to_bits(), out[l].to_bits(), "lane {l}");
            }
        }
        lanes.restore(scalars.iter_mut());
        for (a, b) in scalars.iter_mut().zip(reference.iter_mut()) {
            assert_eq!(a.convert(2.0e-9), b.convert(2.0e-9));
        }
    }
}
