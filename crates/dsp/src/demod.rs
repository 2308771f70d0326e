//! Synchronous (coherent) demodulator and modulator.
//!
//! The rate information rides on the secondary pickoff as an amplitude
//! modulation of the ~15 kHz carrier, phase-locked to the drive. The
//! demodulator mixes the pickoff with the PLL references and low-pass
//! filters to baseband; the in-phase channel carries the Coriolis (rate)
//! signal and the quadrature channel carries the mechanical quadrature
//! error, which the closed-loop controller nulls.
//!
//! The modulator is the reverse path: it re-modulates the force-rebalance
//! command onto the carrier for the secondary drive DACs.

use crate::fir::{DecimatingFir, DecimatingFirLanes, FirFilter};
use crate::fixed::Q15;
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};

/// I/Q synchronous demodulator with decimating post-filters.
#[derive(Debug, Clone)]
pub struct Demodulator {
    i_filter: DecimatingFir,
    q_filter: DecimatingFir,
    last: Option<IqSample>,
}

/// One baseband output pair from the demodulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IqSample {
    /// In-phase (rate) channel.
    pub i: Q15,
    /// Quadrature (error) channel.
    pub q: Q15,
}

impl Demodulator {
    /// Creates a demodulator whose post-mixer lowpass has the given
    /// `cutoff` (fraction of the input rate), `taps`, and output
    /// `decimation`.
    ///
    /// # Panics
    ///
    /// Panics on invalid filter parameters (see
    /// [`crate::fir::design_lowpass`]) or zero decimation.
    #[must_use]
    pub fn new(cutoff: f64, taps: usize, decimation: u32) -> Self {
        let proto = FirFilter::lowpass(cutoff, taps);
        Self {
            i_filter: DecimatingFir::new(proto.clone(), decimation),
            q_filter: DecimatingFir::new(proto, decimation),
            last: None,
        }
    }

    /// Feeds one carrier-rate sample with the PLL `(sin, cos)` references.
    /// Returns `Some` on decimated output ticks.
    #[inline]
    pub fn process(&mut self, x: Q15, sin_ref: Q15, cos_ref: Q15) -> Option<IqSample> {
        // Mix to baseband. The mixer halves the signal (sin²→½); shift left
        // one bit to restore scale, as the RTL would.
        let i_mix = x.mul(sin_ref).shl(1);
        let q_mix = x.mul(cos_ref).shl(1);
        let i = self.i_filter.process(i_mix);
        let q = self.q_filter.process(q_mix);
        match (i, q) {
            (Some(i), Some(q)) => {
                let s = IqSample { i, q };
                self.last = Some(s);
                Some(s)
            }
            (None, None) => None,
            // Both filters share the decimation phase; anything else is a bug.
            _ => unreachable!("demodulator I/Q decimators out of phase"),
        }
    }

    /// Most recent output pair.
    #[must_use]
    pub fn last(&self) -> Option<IqSample> {
        self.last
    }

    /// Output decimation factor.
    #[must_use]
    pub fn decimation(&self) -> u32 {
        self.i_filter.factor()
    }

    /// Clears filter state.
    pub fn reset(&mut self) {
        self.i_filter.reset();
        self.q_filter.reset();
        self.last = None;
    }

    /// Saturated outputs across both channel filters (monotonic; a nonzero
    /// rate means the baseband datapath is clipping).
    #[must_use]
    pub fn saturations(&self) -> u64 {
        self.i_filter.saturations() + self.q_filter.saturations()
    }

    /// Serializes both channel filters and the held output pair.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.i_filter.save_state(w);
        self.q_filter.save_state(w);
        match self.last {
            Some(s) => {
                w.put_bool(true);
                w.put_i32(s.i.raw());
                w.put_i32(s.q.raw());
            }
            None => w.put_bool(false),
        }
    }

    /// Restores state saved by [`Demodulator::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.i_filter.load_state(r)?;
        self.q_filter.load_state(r)?;
        self.last = if r.take_bool()? {
            Some(IqSample {
                i: Q15::from_raw(r.take_i32()?),
                q: Q15::from_raw(r.take_i32()?),
            })
        } else {
            None
        };
        Ok(())
    }
}

/// Lane-parallel I/Q demodulator: per-lane mixing against per-lane PLL
/// references, then both channel filters as [`DecimatingFirLanes`].
///
/// All arithmetic is fixed point and identical to [`Demodulator::process`],
/// so emitted baseband pairs match the scalar demodulators bit for bit.
#[derive(Debug, Clone)]
pub struct DemodLanes {
    i_filter: DecimatingFirLanes,
    q_filter: DecimatingFirLanes,
    last: Vec<Option<IqSample>>,
    i_mix: Vec<i32>,
    q_mix: Vec<i32>,
    i_out: Vec<i32>,
    q_out: Vec<i32>,
}

impl DemodLanes {
    /// Captures N demodulators for lockstep processing.
    ///
    /// Returns `None` if the channel filters are not design- and
    /// phase-uniform across lanes.
    pub fn extract<'a>(demods: impl Iterator<Item = &'a Demodulator>) -> Option<Self> {
        let ds: Vec<&Demodulator> = demods.collect();
        let i_filter = DecimatingFirLanes::extract(ds.iter().map(|d| &d.i_filter))?;
        let q_filter = DecimatingFirLanes::extract(ds.iter().map(|d| &d.q_filter))?;
        let n = ds.len();
        Some(Self {
            i_filter,
            q_filter,
            last: ds.iter().map(|d| d.last).collect(),
            i_mix: vec![0; n],
            q_mix: vec![0; n],
            i_out: vec![0; n],
            q_out: vec![0; n],
        })
    }

    /// Writes filter state and the held output pairs back.
    pub fn restore<'a>(&self, demods: impl Iterator<Item = &'a mut Demodulator>) {
        let mut ds: Vec<&mut Demodulator> = demods.collect();
        self.i_filter
            .restore(ds.iter_mut().map(|d| &mut d.i_filter));
        self.q_filter
            .restore(ds.iter_mut().map(|d| &mut d.q_filter));
        for (l, d) in ds.into_iter().enumerate() {
            d.last = self.last[l];
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.last.len()
    }

    /// Feeds one carrier-rate sample per lane with that lane's `(sin, cos)`
    /// references. Returns `true` on decimated output ticks, with the
    /// baseband pairs in `out`.
    #[inline]
    pub fn process(
        &mut self,
        x: &[Q15],
        sin_ref: &[Q15],
        cos_ref: &[Q15],
        out: &mut [IqSample],
    ) -> bool {
        let n = self.last.len();
        for l in 0..n {
            self.i_mix[l] = x[l].mul(sin_ref[l]).shl(1).raw();
            self.q_mix[l] = x[l].mul(cos_ref[l]).shl(1).raw();
        }
        let emit_i = self.i_filter.process(&self.i_mix, &mut self.i_out);
        let emit_q = self.q_filter.process(&self.q_mix, &mut self.q_out);
        debug_assert_eq!(emit_i, emit_q, "demodulator I/Q decimators out of phase");
        if !emit_i {
            return false;
        }
        for (l, o) in out.iter_mut().enumerate().take(n) {
            let s = IqSample {
                i: Q15::from_raw(self.i_out[l]),
                q: Q15::from_raw(self.q_out[l]),
            };
            self.last[l] = Some(s);
            *o = s;
        }
        true
    }
}

/// Carrier re-modulator for the secondary (force-rebalance) drive.
///
/// Output = `i · sin + q · cos`, saturating: the rate-nulling force goes on
/// the in-phase axis, the quadrature-nulling force on the quadrature axis.
#[derive(Debug, Clone, Copy, Default)]
pub struct Modulator;

impl Modulator {
    /// Creates a modulator.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Produces one carrier-rate drive sample from baseband commands.
    #[must_use]
    pub fn process(&self, cmd: IqSample, sin_ref: Q15, cos_ref: Q15) -> Q15 {
        cmd.i.mul(sin_ref).sat_add(cmd.q.mul(cos_ref))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nco::Nco;

    const FS: f64 = 250_000.0;
    const FC: f64 = 15_000.0;

    fn make_demod() -> Demodulator {
        // 1 kHz cutoff at 250 kHz rate, decimate by 25 → 10 kHz output rate.
        Demodulator::new(1000.0 / FS, 101, 25)
    }

    #[test]
    fn inphase_am_lands_on_i_channel() {
        let mut nco = Nco::new();
        nco.set_frequency(FC, FS);
        let mut d = make_demod();
        let mut last = IqSample::default();
        for _ in 0..60_000 {
            let (s, c) = nco.tick();
            // AM on the in-phase axis with amplitude 0.3.
            let x = Q15::from_f64(0.3 * s.to_f64());
            if let Some(out) = d.process(x, s, c) {
                last = out;
            }
        }
        assert!(
            (last.i.to_f64() - 0.3).abs() < 0.01,
            "I = {}",
            last.i.to_f64()
        );
        assert!(last.q.to_f64().abs() < 0.01, "Q = {}", last.q.to_f64());
    }

    #[test]
    fn quadrature_am_lands_on_q_channel() {
        let mut nco = Nco::new();
        nco.set_frequency(FC, FS);
        let mut d = make_demod();
        let mut last = IqSample::default();
        for _ in 0..60_000 {
            let (s, c) = nco.tick();
            let x = Q15::from_f64(0.2 * c.to_f64());
            if let Some(out) = d.process(x, s, c) {
                last = out;
            }
        }
        assert!(last.i.to_f64().abs() < 0.01, "I = {}", last.i.to_f64());
        assert!(
            (last.q.to_f64() - 0.2).abs() < 0.01,
            "Q = {}",
            last.q.to_f64()
        );
    }

    #[test]
    fn tracks_slow_modulation() {
        // 50 Hz AM (a 50 Hz rate input in disguise) must survive the 1 kHz
        // channel filter.
        let mut nco = Nco::new();
        nco.set_frequency(FC, FS);
        let mut d = make_demod();
        let mut outs = Vec::new();
        let n = (0.5 * FS) as usize;
        for k in 0..n {
            let (s, c) = nco.tick();
            let env = 0.25 * (2.0 * std::f64::consts::PI * 50.0 * k as f64 / FS).sin();
            let x = Q15::from_f64(env * s.to_f64());
            if let Some(out) = d.process(x, s, c) {
                outs.push(out.i.to_f64());
            }
        }
        let tail = &outs[outs.len() / 2..];
        let peak = tail.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!((peak - 0.25).abs() < 0.02, "peak {peak}");
    }

    #[test]
    fn rejects_double_frequency_ripple() {
        // Demodulating a clean carrier must not leak the 2·fc product.
        let mut nco = Nco::new();
        nco.set_frequency(FC, FS);
        let mut d = make_demod();
        let mut outs = Vec::new();
        for _ in 0..120_000 {
            let (s, c) = nco.tick();
            let x = Q15::from_f64(0.4 * s.to_f64());
            if let Some(out) = d.process(x, s, c) {
                outs.push(out.i.to_f64());
            }
        }
        let tail = &outs[outs.len() - 200..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let ripple = tail.iter().fold(0.0f64, |m, v| m.max((v - mean).abs()));
        assert!(ripple < 2e-3, "ripple {ripple}");
    }

    #[test]
    fn modulator_round_trips_through_demodulator() {
        let mut nco = Nco::new();
        nco.set_frequency(FC, FS);
        let m = Modulator::new();
        let mut d = make_demod();
        let cmd = IqSample {
            i: Q15::from_f64(0.15),
            q: Q15::from_f64(-0.1),
        };
        let mut last = IqSample::default();
        for _ in 0..60_000 {
            let (s, c) = nco.tick();
            let x = m.process(cmd, s, c);
            if let Some(out) = d.process(x, s, c) {
                last = out;
            }
        }
        // Modulator does not apply the ×2 restore; demod channel gain is ×1
        // for a modulated pair at half amplitude.
        assert!(
            (last.i.to_f64() - 0.15).abs() < 0.01,
            "I {}",
            last.i.to_f64()
        );
        assert!(
            (last.q.to_f64() + 0.1).abs() < 0.01,
            "Q {}",
            last.q.to_f64()
        );
    }

    #[test]
    fn reset_clears_output() {
        let mut d = make_demod();
        let mut nco = Nco::new();
        nco.set_frequency(FC, FS);
        for _ in 0..1000 {
            let (s, c) = nco.tick();
            d.process(Q15::from_f64(0.3), s, c);
        }
        d.reset();
        assert!(d.last().is_none());
    }

    #[test]
    fn decimation_accessor() {
        assert_eq!(make_demod().decimation(), 25);
    }

    #[test]
    fn demod_lanes_match_scalar_bit_for_bit() {
        // Per-lane NCO frequencies differ slightly (Monte-Carlo dispersion);
        // the batched I/Q path must match each scalar demodulator exactly.
        for n in [1usize, 4, 8] {
            let mut scalars: Vec<Demodulator> = (0..n).map(|_| make_demod()).collect();
            let mut ncos: Vec<Nco> = (0..n)
                .map(|i| {
                    let mut nco = Nco::new();
                    nco.set_frequency(FC * (1.0 + 0.001 * i as f64), FS);
                    nco
                })
                .collect();
            let mut lanes = DemodLanes::extract(scalars.iter()).expect("uniform design");
            let mut reference = scalars.clone();
            let mut x = vec![Q15::ZERO; n];
            let mut s = vec![Q15::ZERO; n];
            let mut c = vec![Q15::ZERO; n];
            let mut out = vec![IqSample::default(); n];
            for k in 0..2000u64 {
                for (l, nco) in ncos.iter_mut().enumerate() {
                    let (sl, cl) = nco.tick();
                    s[l] = sl;
                    c[l] = cl;
                    x[l] = Q15::from_f64(0.3 * sl.to_f64() + 0.001 * (k as f64 * 0.3).sin());
                }
                let emitted = lanes.process(&x, &s, &c, &mut out);
                for (l, d) in reference.iter_mut().enumerate() {
                    let scalar = d.process(x[l], s[l], c[l]);
                    match (emitted, scalar) {
                        (true, Some(sc)) => assert_eq!(sc, out[l], "lane {l} tick {k}"),
                        (false, None) => {}
                        _ => panic!("emission phase diverged at lane {l} tick {k}"),
                    }
                }
            }
            lanes.restore(scalars.iter_mut());
            for ((a, b), nco) in scalars.iter_mut().zip(reference.iter_mut()).zip(&mut ncos) {
                for _ in 0..60 {
                    let (sl, cl) = nco.tick();
                    let x = Q15::from_f64(0.2 * sl.to_f64());
                    assert_eq!(a.process(x, sl, cl), b.process(x, sl, cl));
                }
                assert_eq!(a.saturations(), b.saturations());
                assert_eq!(a.last(), b.last());
            }
        }
    }
}
