//! SAR analog-to-digital converter model.
//!
//! The paper's AFE performs "signal acquisition by means of SAR ADCs,
//! amplifiers and basic filters" (§4.2). This model captures the behaviour
//! the conditioning chain actually sees: quantization at a programmable
//! resolution (a platform knob — "number of ADC bits", §3), integral
//! nonlinearity (smooth bow), differential nonlinearity (per-code, seeded),
//! input-referred noise, offset/gain error, and hard clipping at the rails.

use ascp_dsp::fixed::Q15;
use ascp_sim::noise::{WhiteLanes, WhiteNoise};
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};
use ascp_sim::units::Volts;

/// SAR ADC configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdcConfig {
    /// Resolution in bits (8..=16) — digitally programmable on the platform.
    pub bits: u32,
    /// Differential full-scale input: codes span ±`vref`.
    pub vref: Volts,
    /// Input-referred RMS noise (volts).
    pub noise_rms: f64,
    /// Peak integral nonlinearity in LSB (bow shape).
    pub inl_lsb: f64,
    /// RMS differential nonlinearity in LSB.
    pub dnl_lsb: f64,
    /// Offset error in volts.
    pub offset: Volts,
    /// Gain error (1.0 = ideal).
    pub gain: f64,
    /// Seed for noise and DNL pattern.
    pub seed: u64,
}

impl Default for AdcConfig {
    /// A competent automotive 12-bit SAR: 0.5 LSB INL, 0.3 LSB DNL, small
    /// thermal noise.
    fn default() -> Self {
        Self {
            bits: 12,
            vref: Volts(2.5),
            noise_rms: 150.0e-6,
            inl_lsb: 0.5,
            dnl_lsb: 0.3,
            offset: Volts(0.0),
            gain: 1.0,
            seed: 0xadc0,
        }
    }
}

impl AdcConfig {
    /// Validates ranges.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !(8..=16).contains(&self.bits) {
            return Err(format!("ADC bits {} outside 8..=16", self.bits));
        }
        if !(self.vref.0 > 0.0) {
            return Err("vref must be positive".into());
        }
        if self.noise_rms < 0.0 || self.inl_lsb < 0.0 || self.dnl_lsb < 0.0 {
            return Err("noise/INL/DNL must be non-negative".into());
        }
        if !(self.gain > 0.0) {
            return Err("gain must be positive".into());
        }
        Ok(())
    }
}

/// An injectable converter fault (see `ascp_sim::fault`): the physical
/// failure modes a SAR exhibits in the field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdcFault {
    /// One bit of the offset-binary output code stuck at a level
    /// (metallization short on the capacitor DAC).
    StuckBit {
        /// Bit index, 0 = LSB.
        bit: u32,
        /// Stuck level.
        value: bool,
    },
    /// Output frozen at one two's-complement code (sample/hold failure).
    StuckCode {
        /// Frozen code.
        code: i32,
    },
    /// Input overdrive: the signal reaching the comparator is scaled by
    /// `gain` (> 1 clips at the rails).
    Overload {
        /// Overdrive factor.
        gain: f64,
    },
}

/// SAR ADC instance.
#[derive(Debug, Clone)]
pub struct SarAdc {
    config: AdcConfig,
    noise: WhiteNoise,
    /// Per-code DNL offsets in LSB, generated once from the seed (the
    /// capacitor-mismatch pattern of a physical part).
    dnl: Vec<f64>,
    conversions: u64,
    clips: u64,
    /// Active injected fault, if any.
    fault: Option<AdcFault>,
    /// Reference scale factor (1.0 nominal). A drooped reference shrinks
    /// the full scale, so codes grow by `1/ref_scale` — the ratiometric
    /// signature a supervisor can catch.
    ref_scale: f64,
}

impl SarAdc {
    /// Builds an ADC.
    ///
    /// # Panics
    ///
    /// Panics if `config.validate()` fails.
    #[must_use]
    pub fn new(config: AdcConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid ADC config: {e}");
        }
        let codes = 1usize << config.bits;
        let mut dnl_gen = WhiteNoise::new(config.dnl_lsb, config.seed ^ 0xd41);
        let dnl = (0..codes).map(|_| dnl_gen.sample()).collect();
        Self {
            config,
            noise: WhiteNoise::new(config.noise_rms, config.seed),
            dnl,
            conversions: 0,
            clips: 0,
            fault: None,
            ref_scale: 1.0,
        }
    }

    /// Installs (or with `None` clears) an injected fault.
    pub fn set_fault(&mut self, fault: Option<AdcFault>) {
        self.fault = fault;
    }

    /// The active injected fault.
    #[must_use]
    pub fn fault(&self) -> Option<AdcFault> {
        self.fault
    }

    /// Scales the conversion reference (1.0 nominal; 0.9 models a −10%
    /// droop of the shared bandgap).
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
    pub fn config(&self) -> &AdcConfig {
        &self.config
    }

    /// One LSB in volts.
    #[must_use]
    pub fn lsb(&self) -> f64 {
        2.0 * self.config.vref.0 * crate::inv_pow2(self.config.bits)
    }

    /// Total conversions performed (read back by the monitor CPU).
    #[must_use]
    pub fn conversions(&self) -> u64 {
        self.conversions
    }

    /// Conversions that hit a rail (signal overload; telemetry reads this).
    #[must_use]
    pub fn clips(&self) -> u64 {
        self.clips
    }

    /// Converts a differential input voltage to a signed code in
    /// `−2^(bits−1) ..= 2^(bits−1)−1`.
    pub fn convert(&mut self, input: Volts) -> i32 {
        self.conversions += 1;
        let c = &self.config;
        let half = (1i64 << (c.bits - 1)) as f64;
        // Offset, gain error, thermal noise.
        let mut v = (input.0 + c.offset.0) * c.gain + self.noise.sample();
        if let Some(AdcFault::Overload { gain }) = self.fault {
            v *= gain;
        }
        // A drooped reference shrinks the comparison full scale.
        let vref = c.vref.0 * self.ref_scale;
        // INL bow: peak at mid-scale, zero at the ends.
        let u = (v / vref).clamp(-1.0, 1.0);
        v += c.inl_lsb * (1.0 - u * u) * self.lsb();
        let ideal = (v / vref) * half;
        let mut code = ideal.round();
        // DNL: perturb the decision by the code's mismatch.
        let idx = (code + half) as isize;
        if idx >= 0 && (idx as usize) < self.dnl.len() {
            code = (ideal + self.dnl[idx as usize]).round();
        }
        if code < -half || code > half - 1.0 {
            self.clips += 1;
        }
        let mut out = code.clamp(-half, half - 1.0) as i32;
        match self.fault {
            Some(AdcFault::StuckCode { code }) => {
                out = code.clamp(-(half as i32), half as i32 - 1);
            }
            Some(AdcFault::StuckBit { bit, value }) if bit < c.bits => {
                // Apply to the offset-binary code the SAR actually emits.
                let mut raw = (out + half as i32) as u32;
                if value {
                    raw |= 1 << bit;
                } else {
                    raw &= !(1 << bit);
                }
                out = raw as i32 - half as i32;
            }
            _ => {}
        }
        out
    }

    /// Converts and maps into Q15 (left-justified into the 16-bit sample
    /// format regardless of resolution, as the RTL bus does).
    pub fn convert_q15(&mut self, input: Volts) -> Q15 {
        let code = self.convert(input);
        Q15::from_raw(code << (15 - (self.config.bits - 1)))
    }

    /// The inverse ideal mapping (for verification): code → volts.
    #[must_use]
    pub fn code_to_volts(&self, code: i32) -> Volts {
        let half = (1i64 << (self.config.bits - 1)) as f64;
        Volts(code as f64 / half * self.config.vref.0)
    }

    /// Serializes the converter state: noise generator, the seeded DNL
    /// pattern (saved raw so a restored part keeps its mismatch even if the
    /// generation recipe changes), counters, injected fault, and reference
    /// scale.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.noise.save_state(w);
        w.put_f64_slice(&self.dnl);
        w.put_u64(self.conversions);
        w.put_u64(self.clips);
        match self.fault {
            None => w.put_u8(0),
            Some(AdcFault::StuckBit { bit, value }) => {
                w.put_u8(1);
                w.put_u32(bit);
                w.put_bool(value);
            }
            Some(AdcFault::StuckCode { code }) => {
                w.put_u8(2);
                w.put_i32(code);
            }
            Some(AdcFault::Overload { gain }) => {
                w.put_u8(3);
                w.put_f64(gain);
            }
        }
        w.put_f64(self.ref_scale);
    }

    /// Restores state saved by [`SarAdc::save_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] if the DNL table length does not
    /// match this converter's resolution, the fault tag is unknown, or the
    /// reference scale is not physical; propagates other [`SnapshotError`]s
    /// on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.noise.load_state(r)?;
        let dnl = r.take_f64_vec()?;
        if dnl.len() != self.dnl.len() {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "ADC DNL table of {} codes in snapshot, converter has {}",
                    dnl.len(),
                    self.dnl.len()
                ),
            });
        }
        self.conversions = r.take_u64()?;
        self.clips = r.take_u64()?;
        self.fault = match r.take_u8()? {
            0 => None,
            1 => Some(AdcFault::StuckBit {
                bit: r.take_u32()?,
                value: r.take_bool()?,
            }),
            2 => Some(AdcFault::StuckCode {
                code: r.take_i32()?,
            }),
            3 => Some(AdcFault::Overload {
                gain: r.take_f64()?,
            }),
            t => {
                return Err(SnapshotError::Corrupt {
                    context: format!("unknown ADC fault tag {t}"),
                });
            }
        };
        let ref_scale = r.take_f64()?;
        if !(ref_scale.is_finite() && ref_scale > 0.0) {
            return Err(SnapshotError::Corrupt {
                context: format!("ADC ref scale {ref_scale} not physical"),
            });
        }
        self.dnl = dnl;
        self.ref_scale = ref_scale;
        Ok(())
    }
}

/// Lane-parallel SAR ADC kernel: batched thermal-noise draws plus the
/// per-lane conversion pipeline of [`SarAdc::convert_q15`], expression for
/// expression (INL bow, seeded DNL lookup, clip accounting,
/// left-justification into Q15).
///
/// Extraction refuses converters with an active injected fault — faulted
/// scenarios take the scalar path, keeping the fault logic in one place.
#[derive(Debug, Clone)]
pub struct AdcLanes {
    half: Vec<f64>,
    offset: Vec<f64>,
    gain: Vec<f64>,
    inl_lsb: Vec<f64>,
    lsb: Vec<f64>,
    vref_eff: Vec<f64>,
    shift: Vec<u32>,
    /// Per-lane seeded DNL tables, cloned once at extraction.
    dnl: Vec<Vec<f64>>,
    conversions: Vec<u64>,
    clips: Vec<u64>,
    noise: WhiteLanes,
    draw: Vec<f64>,
    /// Scratch: pre-DNL fractional codes between the two convert passes.
    ideal: Vec<f64>,
}

impl AdcLanes {
    /// Captures N converters for lockstep conversion.
    ///
    /// Returns `None` if any converter has an active fault or the noise
    /// generators are not phase-uniform.
    pub fn extract<'a>(adcs: impl Iterator<Item = &'a SarAdc>) -> Option<Self> {
        let cs: Vec<&SarAdc> = adcs.collect();
        if cs.iter().any(|a| a.fault.is_some()) {
            return None;
        }
        let noise = WhiteLanes::extract(cs.iter().map(|a| &a.noise))?;
        let n = cs.len();
        let mut lanes = Self {
            half: Vec::with_capacity(n),
            offset: Vec::with_capacity(n),
            gain: Vec::with_capacity(n),
            inl_lsb: Vec::with_capacity(n),
            lsb: Vec::with_capacity(n),
            vref_eff: Vec::with_capacity(n),
            shift: Vec::with_capacity(n),
            dnl: Vec::with_capacity(n),
            conversions: Vec::with_capacity(n),
            clips: Vec::with_capacity(n),
            noise,
            draw: vec![0.0; n],
            ideal: vec![0.0; n],
        };
        for a in &cs {
            let c = &a.config;
            lanes.half.push((1i64 << (c.bits - 1)) as f64);
            lanes.offset.push(c.offset.0);
            lanes.gain.push(c.gain);
            lanes.inl_lsb.push(c.inl_lsb);
            lanes.lsb.push(a.lsb());
            lanes.vref_eff.push(c.vref.0 * a.ref_scale);
            lanes.shift.push(15 - (c.bits - 1));
            lanes.dnl.push(a.dnl.clone());
            lanes.conversions.push(a.conversions);
            lanes.clips.push(a.clips);
        }
        Some(lanes)
    }

    /// Cheaply re-synchronizes an extracted kernel with its source
    /// converters, skipping the per-lane DNL table clone (the expensive
    /// part of [`AdcLanes::extract`] — up to `2^bits` entries per lane).
    ///
    /// Sound because the DNL table is a pure function of the converter's
    /// seeded configuration: as long as the resolution is unchanged, the
    /// tables captured at extraction are still exact. Returns `false` —
    /// and leaves `self` unmodified — when the caller must fall back to a
    /// full re-extraction: a converter was rebuilt at a different
    /// resolution, carries an active fault, or the noise generators lost
    /// phase uniformity.
    pub fn refresh<'a>(&mut self, adcs: impl Iterator<Item = &'a SarAdc>) -> bool {
        let cs: Vec<&SarAdc> = adcs.collect();
        if cs.len() != self.half.len() || cs.iter().any(|a| a.fault.is_some()) {
            return false;
        }
        if cs
            .iter()
            .zip(&self.dnl)
            .any(|(a, dnl)| dnl.len() != a.dnl.len())
        {
            return false;
        }
        let Some(noise) = WhiteLanes::extract(cs.iter().map(|a| &a.noise)) else {
            return false;
        };
        self.noise = noise;
        for (l, a) in cs.into_iter().enumerate() {
            let c = &a.config;
            self.half[l] = (1i64 << (c.bits - 1)) as f64;
            self.offset[l] = c.offset.0;
            self.gain[l] = c.gain;
            self.inl_lsb[l] = c.inl_lsb;
            self.lsb[l] = a.lsb();
            self.vref_eff[l] = c.vref.0 * a.ref_scale;
            self.shift[l] = 15 - (c.bits - 1);
            self.conversions[l] = a.conversions;
            self.clips[l] = a.clips;
        }
        true
    }

    /// Writes noise state and the conversion/clip counters back.
    pub fn restore<'a>(&self, adcs: impl Iterator<Item = &'a mut SarAdc>) {
        let mut cs: Vec<&mut SarAdc> = adcs.collect();
        self.noise.restore(cs.iter_mut().map(|a| &mut a.noise));
        for (l, a) in cs.into_iter().enumerate() {
            a.conversions = self.conversions[l];
            a.clips = self.clips[l];
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.half.len()
    }

    /// Converts one voltage per lane into left-justified Q15 raw codes.
    #[inline]
    pub fn convert_q15(&mut self, input: &[f64], out: &mut [i32]) {
        let n = self.half.len();
        self.noise.sample(&mut self.draw);
        // Pass 1 (auto-vectorizes): the analog front — offset, gain,
        // thermal noise, INL bow — down to the ideal fractional code.
        for (l, &x) in input.iter().enumerate().take(n) {
            let mut v = (x + self.offset[l]) * self.gain[l] + self.draw[l];
            let vref = self.vref_eff[l];
            let u = (v / vref).clamp(-1.0, 1.0);
            v += self.inl_lsb[l] * (1.0 - u * u) * self.lsb[l];
            self.ideal[l] = (v / vref) * self.half[l];
        }
        // Pass 2 (scalar): decision rounding plus the seeded per-code DNL
        // perturbation — `round` (half away from zero) and the data-
        // dependent table gather have no AVX2 lowering, so isolating them
        // here is what lets pass 1 vectorize.
        for (l, o) in out.iter_mut().enumerate().take(n) {
            self.conversions[l] += 1;
            let half = self.half[l];
            let ideal = self.ideal[l];
            let mut code = ideal.round();
            let idx = (code + half) as isize;
            if idx >= 0 && (idx as usize) < self.dnl[l].len() {
                code = (ideal + self.dnl[l][idx as usize]).round();
            }
            if code < -half || code > half - 1.0 {
                self.clips[l] += 1;
            }
            let code = code.clamp(-half, half - 1.0) as i32;
            *o = code << self.shift[l];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_config(bits: u32) -> AdcConfig {
        AdcConfig {
            bits,
            noise_rms: 0.0,
            inl_lsb: 0.0,
            dnl_lsb: 0.0,
            ..AdcConfig::default()
        }
    }

    #[test]
    fn ideal_transfer_is_linear() {
        let mut adc = SarAdc::new(quiet_config(12));
        for mv in (-2400..=2400).step_by(300) {
            let v = mv as f64 / 1000.0;
            let code = adc.convert(Volts(v));
            let expect = (v / 2.5 * 2048.0).round();
            assert!(
                (code as f64 - expect).abs() <= 1.0,
                "{v} V -> {code}, expected {expect}"
            );
        }
    }

    #[test]
    fn clips_at_rails() {
        let mut adc = SarAdc::new(quiet_config(12));
        assert_eq!(adc.convert(Volts(10.0)), 2047);
        assert_eq!(adc.convert(Volts(-10.0)), -2048);
        assert_eq!(adc.clips(), 2);
        adc.convert(Volts(0.0));
        assert_eq!(adc.clips(), 2, "in-range conversion must not count");
    }

    #[test]
    fn q15_left_justification() {
        let mut adc = SarAdc::new(quiet_config(12));
        let q = adc.convert_q15(Volts(2.5));
        // Full scale positive: 2047 << 4 = 32752.
        assert_eq!(q.raw(), 2047 << 4);
        let q = adc.convert_q15(Volts(1.25));
        assert!((q.to_f64() - 0.5).abs() < 0.002, "got {}", q.to_f64());
    }

    #[test]
    fn resolution_changes_step_size() {
        let mut adc8 = SarAdc::new(quiet_config(8));
        let mut adc16 = SarAdc::new(quiet_config(16));
        // A voltage below the 8-bit LSB but above the 16-bit LSB.
        let v = Volts(adc8.lsb() * 0.3);
        assert_eq!(adc8.convert(v), 0);
        assert!(adc16.convert(v) > 0);
    }

    #[test]
    fn noise_dithers_a_fixed_input() {
        let mut adc = SarAdc::new(AdcConfig {
            noise_rms: 3.0e-3,
            ..quiet_config(12)
        });
        let codes: Vec<i32> = (0..200).map(|_| adc.convert(Volts(0.1))).collect();
        let distinct: std::collections::HashSet<_> = codes.iter().collect();
        assert!(distinct.len() > 1, "noise not visible");
    }

    #[test]
    fn inl_bows_mid_scale() {
        let mut ideal = SarAdc::new(quiet_config(14));
        let mut bowed = SarAdc::new(AdcConfig {
            inl_lsb: 4.0,
            ..quiet_config(14)
        });
        let mid = Volts(0.0);
        let d_mid = bowed.convert(mid) - ideal.convert(mid);
        assert!(d_mid >= 3, "INL bow missing at mid-scale: {d_mid}");
        let edge = Volts(2.45);
        let d_edge = bowed.convert(edge) - ideal.convert(edge);
        assert!(d_edge < d_mid, "INL should shrink toward the rails");
    }

    #[test]
    fn dnl_pattern_is_deterministic() {
        let mut a = SarAdc::new(AdcConfig::default());
        let mut b = SarAdc::new(AdcConfig::default());
        for mv in -1000..1000 {
            let v = Volts(mv as f64 / 500.0);
            assert_eq!(a.convert(v), b.convert(v));
        }
    }

    #[test]
    fn conversion_counter() {
        let mut adc = SarAdc::new(quiet_config(10));
        for _ in 0..5 {
            adc.convert(Volts(0.0));
        }
        assert_eq!(adc.conversions(), 5);
    }

    #[test]
    fn code_to_volts_round_trip() {
        let mut adc = SarAdc::new(quiet_config(12));
        let code = adc.convert(Volts(1.0));
        let v = adc.code_to_volts(code);
        assert!((v.0 - 1.0).abs() < 2.0 * adc.lsb());
    }

    #[test]
    fn stuck_code_freezes_output() {
        let mut adc = SarAdc::new(quiet_config(12));
        adc.set_fault(Some(AdcFault::StuckCode { code: 123 }));
        assert_eq!(adc.convert(Volts(2.0)), 123);
        assert_eq!(adc.convert(Volts(-2.0)), 123);
        adc.set_fault(None);
        assert!(adc.convert(Volts(2.0)) > 1000, "fault cleared");
    }

    #[test]
    fn stuck_bit_forces_the_bit() {
        let mut adc = SarAdc::new(quiet_config(12));
        adc.set_fault(Some(AdcFault::StuckBit {
            bit: 10,
            value: true,
        }));
        for mv in [-2000, -500, 0, 500, 2000] {
            let code = adc.convert(Volts(mv as f64 / 1000.0));
            let raw = (code + 2048) as u32;
            assert_eq!(raw & (1 << 10), 1 << 10, "bit 10 must read high");
        }
    }

    #[test]
    fn overload_clips_mid_scale_inputs() {
        let mut adc = SarAdc::new(quiet_config(12));
        assert_eq!(adc.clips(), 0);
        adc.set_fault(Some(AdcFault::Overload { gain: 8.0 }));
        let code = adc.convert(Volts(1.0));
        assert_eq!(code, 2047, "overdriven input rails");
        assert_eq!(adc.clips(), 1);
    }

    #[test]
    fn reference_droop_inflates_codes() {
        let mut adc = SarAdc::new(quiet_config(12));
        let nominal = adc.convert(Volts(1.0));
        adc.set_ref_scale(0.9);
        let drooped = adc.convert(Volts(1.0));
        let ratio = drooped as f64 / nominal as f64;
        assert!((ratio - 1.0 / 0.9).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "outside 8..=16")]
    fn rejects_out_of_range_bits() {
        let _ = SarAdc::new(AdcConfig {
            bits: 20,
            ..AdcConfig::default()
        });
    }

    #[test]
    fn adc_lanes_match_scalar_bit_for_bit() {
        // Mixed resolutions and error terms per lane, clipping included.
        let mut scalars: Vec<SarAdc> = (0..6)
            .map(|i| {
                SarAdc::new(AdcConfig {
                    bits: 10 + (i as u32 % 4) * 2,
                    inl_lsb: 0.5 * i as f64,
                    seed: 0xadc0 ^ (i as u64) << 5,
                    ..AdcConfig::default()
                })
            })
            .collect();
        let mut lanes = AdcLanes::extract(scalars.iter()).expect("no faults");
        let mut reference = scalars.clone();
        let mut input = vec![0.0; 6];
        let mut out = vec![0i32; 6];
        for k in 0..500u64 {
            for (l, v) in input.iter_mut().enumerate() {
                // Sweep through the range, hitting the rails sometimes.
                *v = 3.0 * (0.13 * (k as f64 + l as f64)).sin();
            }
            lanes.convert_q15(&input, &mut out);
            for (l, a) in reference.iter_mut().enumerate() {
                assert_eq!(
                    a.convert_q15(Volts(input[l])).raw(),
                    out[l],
                    "lane {l} tick {k}"
                );
            }
        }
        lanes.restore(scalars.iter_mut());
        for (a, b) in scalars.iter_mut().zip(reference.iter_mut()) {
            assert_eq!(a.convert_q15(Volts(0.5)), b.convert_q15(Volts(0.5)));
            assert_eq!(a.conversions(), b.conversions());
            assert_eq!(a.clips(), b.clips());
        }
    }

    #[test]
    fn adc_lanes_reject_active_faults() {
        let mut adc = SarAdc::new(AdcConfig::default());
        adc.set_fault(Some(AdcFault::StuckCode { code: 7 }));
        assert!(AdcLanes::extract(std::iter::once(&adc)).is_none());
    }
}
