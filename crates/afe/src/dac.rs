//! Digital-to-analog converter model.
//!
//! The platform "drives the sensor's electrodes through couples of DACs for
//! each loop" (§4.2): primary drive, secondary (force-rebalance) drive, and
//! the analog rate output that the datasheet tables characterize
//! (5 mV/°/s around a 2.5 V null).

use ascp_dsp::fixed::Q15;
use ascp_sim::noise::{WhiteLanes, WhiteNoise};
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};
use ascp_sim::units::Volts;

/// DAC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DacConfig {
    /// Resolution in bits (8..=16).
    pub bits: u32,
    /// Full-scale output: codes span ±`vref` around `midscale`.
    pub vref: Volts,
    /// Output common-mode (e.g. 2.5 V for the rate output).
    pub midscale: Volts,
    /// Output noise RMS (volts).
    pub noise_rms: f64,
    /// Gain error (1.0 = ideal).
    pub gain: f64,
    /// Offset error (volts).
    pub offset: Volts,
    /// Noise seed.
    pub seed: u64,
}

impl Default for DacConfig {
    fn default() -> Self {
        Self {
            bits: 12,
            vref: Volts(2.5),
            midscale: Volts(0.0),
            noise_rms: 100.0e-6,
            gain: 1.0,
            offset: Volts(0.0),
            seed: 0xdac0,
        }
    }
}

impl DacConfig {
    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !(8..=16).contains(&self.bits) {
            return Err(format!("DAC bits {} outside 8..=16", self.bits));
        }
        if !(self.vref.0 > 0.0) {
            return Err("vref must be positive".into());
        }
        if self.noise_rms < 0.0 {
            return Err("noise must be non-negative".into());
        }
        if !(self.gain > 0.0) {
            return Err("gain must be positive".into());
        }
        Ok(())
    }
}

/// DAC instance (zero-order hold: output persists between updates).
#[derive(Debug, Clone)]
pub struct Dac {
    config: DacConfig,
    noise: WhiteNoise,
    held: Volts,
    updates: u64,
    /// Reference scale factor (1.0 nominal): a drooped bandgap shrinks the
    /// output full scale ratiometrically.
    ref_scale: f64,
}

impl Dac {
    /// Builds a DAC holding mid-scale.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails.
    #[must_use]
    pub fn new(config: DacConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid DAC config: {e}");
        }
        Self {
            config,
            noise: WhiteNoise::new(config.noise_rms, config.seed),
            held: config.midscale,
            updates: 0,
            ref_scale: 1.0,
        }
    }

    /// Scales the output reference (1.0 nominal; 0.9 models a −10% droop
    /// of the shared bandgap). Takes effect on the next write.
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is positive and finite.
    pub fn set_ref_scale(&mut self, scale: f64) {
        assert!(scale.is_finite() && scale > 0.0, "ref scale {scale}");
        self.ref_scale = scale;
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &DacConfig {
        &self.config
    }

    /// One LSB in volts.
    #[must_use]
    pub fn lsb(&self) -> f64 {
        2.0 * self.config.vref.0 / (1u64 << self.config.bits) as f64
    }

    /// Writes a signed code (`−2^(bits−1) ..= 2^(bits−1)−1`, clamped) and
    /// updates the held output.
    pub fn write(&mut self, code: i32) -> Volts {
        self.updates += 1;
        let c = &self.config;
        let half = (1i64 << (c.bits - 1)) as f64;
        let code = (code as f64).clamp(-half, half - 1.0);
        let v = code * crate::inv_pow2(c.bits - 1) * c.vref.0 * self.ref_scale * c.gain
            + c.offset.0
            + c.midscale.0;
        self.held = Volts(v);
        self.output()
    }

    /// Writes a Q15 sample, quantizing into the DAC resolution (the RTL
    /// takes the top `bits` of the 16-bit sample bus).
    pub fn write_q15(&mut self, sample: Q15) -> Volts {
        let code = sample.raw() >> (15 - (self.config.bits - 1));
        self.write(code)
    }

    /// Current output including noise (read at the analog rate).
    pub fn output(&mut self) -> Volts {
        Volts(self.held.0 + self.noise.sample())
    }

    /// Held (noise-free) value, for verification.
    #[must_use]
    pub fn held(&self) -> Volts {
        self.held
    }

    /// Update counter (read back by the monitor CPU).
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Serializes the held output, update counter, noise generator, and
    /// reference scale.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.noise.save_state(w);
        w.put_f64(self.held.0);
        w.put_u64(self.updates);
        w.put_f64(self.ref_scale);
    }

    /// Restores state saved by [`Dac::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] if the reference scale is not
    /// physical; propagates other [`SnapshotError`]s on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.noise.load_state(r)?;
        self.held = Volts(r.take_f64()?);
        self.updates = r.take_u64()?;
        let ref_scale = r.take_f64()?;
        if !(ref_scale.is_finite() && ref_scale > 0.0) {
            return Err(SnapshotError::Corrupt {
                context: format!("DAC ref scale {ref_scale} not physical"),
            });
        }
        self.ref_scale = ref_scale;
        Ok(())
    }
}

/// Lane-parallel DAC kernel: batched output-noise draws plus the per-lane
/// code → volts mapping of [`Dac::write_q15`], expression for expression.
#[derive(Debug, Clone)]
pub struct DacLanes {
    half: Vec<f64>,
    vref: Vec<f64>,
    ref_scale: Vec<f64>,
    gain: Vec<f64>,
    offset: Vec<f64>,
    midscale: Vec<f64>,
    shift: Vec<u32>,
    held: Vec<f64>,
    updates: Vec<u64>,
    noise: WhiteLanes,
    draw: Vec<f64>,
}

impl DacLanes {
    /// Captures N DACs for lockstep writes.
    ///
    /// Returns `None` if the noise generators are not phase-uniform.
    pub fn extract<'a>(dacs: impl Iterator<Item = &'a Dac>) -> Option<Self> {
        let ds: Vec<&Dac> = dacs.collect();
        let noise = WhiteLanes::extract(ds.iter().map(|d| &d.noise))?;
        let n = ds.len();
        let mut lanes = Self {
            half: Vec::with_capacity(n),
            vref: Vec::with_capacity(n),
            ref_scale: Vec::with_capacity(n),
            gain: Vec::with_capacity(n),
            offset: Vec::with_capacity(n),
            midscale: Vec::with_capacity(n),
            shift: Vec::with_capacity(n),
            held: Vec::with_capacity(n),
            updates: Vec::with_capacity(n),
            noise,
            draw: vec![0.0; n],
        };
        for d in &ds {
            let c = &d.config;
            lanes.half.push((1i64 << (c.bits - 1)) as f64);
            lanes.vref.push(c.vref.0);
            lanes.ref_scale.push(d.ref_scale);
            lanes.gain.push(c.gain);
            lanes.offset.push(c.offset.0);
            lanes.midscale.push(c.midscale.0);
            lanes.shift.push(15 - (c.bits - 1));
            lanes.held.push(d.held.0);
            lanes.updates.push(d.updates);
        }
        Some(lanes)
    }

    /// Writes held outputs, update counters, and noise state back.
    pub fn restore<'a>(&self, dacs: impl Iterator<Item = &'a mut Dac>) {
        let mut ds: Vec<&mut Dac> = dacs.collect();
        self.noise.restore(ds.iter_mut().map(|d| &mut d.noise));
        for (l, d) in ds.into_iter().enumerate() {
            d.held = Volts(self.held[l]);
            d.updates = self.updates[l];
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.half.len()
    }

    /// Held (noiseless) output per lane — [`Dac::held`] across the fleet.
    #[must_use]
    pub fn held_outputs(&self) -> &[f64] {
        &self.held
    }

    /// Mid-scale offset per lane (the rate-output null voltage).
    #[must_use]
    pub fn midscales(&self) -> &[f64] {
        &self.midscale
    }

    /// Writes one Q15 raw sample per lane; the noisy analog output lands in
    /// `out[l]`.
    #[inline]
    pub fn write_q15(&mut self, raw: &[i32], out: &mut [f64]) {
        let n = self.half.len();
        self.noise.sample(&mut self.draw);
        for l in 0..n {
            self.updates[l] += 1;
            let half = self.half[l];
            let code = raw[l] >> self.shift[l];
            let code = (code as f64).clamp(-half, half - 1.0);
            let v = code / half * self.vref[l] * self.ref_scale[l] * self.gain[l]
                + self.offset[l]
                + self.midscale[l];
            self.held[l] = v;
            out[l] = v + self.draw[l];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(bits: u32) -> DacConfig {
        DacConfig {
            bits,
            noise_rms: 0.0,
            ..DacConfig::default()
        }
    }

    #[test]
    fn transfer_is_linear() {
        let mut dac = Dac::new(quiet(12));
        assert!((dac.write(0).0).abs() < 1e-12);
        assert!((dac.write(1024).0 - 1.25).abs() < 1e-9);
        assert!((dac.write(-2048).0 + 2.5).abs() < 1e-9);
    }

    #[test]
    fn clamps_codes() {
        let mut dac = Dac::new(quiet(12));
        let hi = dac.write(100_000);
        assert!((hi.0 - (2047.0 / 2048.0) * 2.5).abs() < 1e-9);
    }

    #[test]
    fn midscale_offset_applies() {
        let mut dac = Dac::new(DacConfig {
            midscale: Volts(2.5),
            ..quiet(12)
        });
        assert!((dac.write(0).0 - 2.5).abs() < 1e-12);
    }

    #[test]
    fn q15_write_uses_top_bits() {
        let mut dac = Dac::new(quiet(12));
        let v = dac.write_q15(Q15::from_f64(0.5));
        assert!((v.0 - 1.25).abs() < 2.0 * dac.lsb(), "got {}", v.0);
    }

    #[test]
    fn zero_order_hold_persists() {
        let mut dac = Dac::new(quiet(10));
        dac.write(100);
        let a = dac.output();
        let b = dac.output();
        assert_eq!(a, b);
        assert_eq!(dac.held(), a);
    }

    #[test]
    fn noise_varies_output() {
        let mut dac = Dac::new(DacConfig {
            noise_rms: 1.0e-3,
            ..quiet(12)
        });
        dac.write(0);
        let a = dac.output();
        let b = dac.output();
        assert_ne!(a, b);
    }

    #[test]
    fn gain_and_offset_errors() {
        let mut dac = Dac::new(DacConfig {
            gain: 1.01,
            offset: Volts(0.002),
            ..quiet(12)
        });
        let v = dac.write(1024);
        assert!((v.0 - (1.25 * 1.01 + 0.002)).abs() < 1e-9);
    }

    #[test]
    fn update_counter() {
        let mut dac = Dac::new(quiet(8));
        for k in 0..7 {
            dac.write(k);
        }
        assert_eq!(dac.updates(), 7);
    }

    #[test]
    fn ref_droop_shrinks_full_scale() {
        let mut dac = Dac::new(quiet(12));
        let nominal = dac.write(1024);
        dac.set_ref_scale(0.9);
        let drooped = dac.write(1024);
        assert!((drooped.0 / nominal.0 - 0.9).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "outside 8..=16")]
    fn rejects_bad_bits() {
        let _ = Dac::new(DacConfig {
            bits: 4,
            ..DacConfig::default()
        });
    }

    #[test]
    fn dac_lanes_match_scalar_bit_for_bit() {
        let mut scalars: Vec<Dac> = (0..5)
            .map(|i| {
                Dac::new(DacConfig {
                    bits: 10 + (i as u32 % 3) * 2,
                    midscale: Volts(0.5 * i as f64),
                    gain: 1.0 + 0.001 * i as f64,
                    seed: 0xdac0 ^ (i as u64) << 6,
                    ..DacConfig::default()
                })
            })
            .collect();
        let mut lanes = DacLanes::extract(scalars.iter()).expect("uniform phase");
        let mut reference = scalars.clone();
        let mut raw = vec![0i32; 5];
        let mut out = vec![0.0; 5];
        for k in 0..400u64 {
            for (l, r) in raw.iter_mut().enumerate() {
                *r = Q15::from_f64(0.8 * (0.11 * (k as f64 + l as f64)).sin()).raw();
            }
            lanes.write_q15(&raw, &mut out);
            for (l, d) in reference.iter_mut().enumerate() {
                assert_eq!(
                    d.write_q15(Q15::from_raw(raw[l])).0.to_bits(),
                    out[l].to_bits(),
                    "lane {l} tick {k}"
                );
            }
        }
        lanes.restore(scalars.iter_mut());
        for (a, b) in scalars.iter_mut().zip(reference.iter_mut()) {
            assert_eq!(
                a.write_q15(Q15::from_f64(0.3)),
                b.write_q15(Q15::from_f64(0.3))
            );
            assert_eq!(a.updates(), b.updates());
        }
    }
}
