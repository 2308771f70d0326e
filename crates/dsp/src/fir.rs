//! Fixed-point FIR filters and windowed-sinc design.
//!
//! The paper's DSP block contains "FIR/IIR filters" dimensioned from the
//! MATLAB model. [`FirFilter`] is the RTL-equivalent datapath: Q15 samples,
//! Q30 coefficients, 64-bit accumulator, one output per input sample.
//! [`design_lowpass`] is the MATLAB-side design step (float windowed-sinc),
//! whose result is quantized into the datapath — exactly the paper's
//! system-model → RTL hand-off.

use crate::fixed::{Q15, Q30};
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};

/// Designs a linear-phase lowpass FIR by the windowed-sinc method
/// (Hamming window).
///
/// `cutoff` is the −6 dB point as a fraction of the sample rate
/// (0 < cutoff < 0.5); `taps` is the filter length.
///
/// # Panics
///
/// Panics if `cutoff` is outside `(0, 0.5)` or `taps` is zero.
///
/// # Example
///
/// ```
/// use ascp_dsp::fir::design_lowpass;
/// let h = design_lowpass(0.1, 31);
/// let dc: f64 = h.iter().sum();
/// assert!((dc - 1.0).abs() < 1e-12); // unity DC gain
/// ```
#[must_use]
pub fn design_lowpass(cutoff: f64, taps: usize) -> Vec<f64> {
    assert!(
        cutoff > 0.0 && cutoff < 0.5,
        "cutoff must be in (0, 0.5) of the sample rate, got {cutoff}"
    );
    assert!(taps > 0, "FIR length must be non-zero");
    let m = (taps - 1) as f64;
    let mut h: Vec<f64> = (0..taps)
        .map(|n| {
            let x = n as f64 - m / 2.0;
            let sinc = if x == 0.0 {
                2.0 * cutoff
            } else {
                (2.0 * std::f64::consts::PI * cutoff * x).sin() / (std::f64::consts::PI * x)
            };
            let w = 0.54 - 0.46 * (2.0 * std::f64::consts::PI * n as f64 / m.max(1.0)).cos();
            sinc * w
        })
        .collect();
    // Normalize to exactly unity DC gain.
    let sum: f64 = h.iter().sum();
    for c in &mut h {
        *c /= sum;
    }
    h
}

/// Fixed-point transversal FIR filter.
///
/// Samples are [`Q15`], coefficients [`Q30`], and the convolution runs in a
/// 64-bit accumulator before a single rounded shift back to Q15 — the
/// structure of a hardware MAC datapath.
#[derive(Debug, Clone)]
pub struct FirFilter {
    coeffs: Vec<Q30>,
    delay: Vec<Q15>,
    pos: usize,
    /// Outputs clamped at the accumulator rails (monotonic; a nonzero rate
    /// means the datapath is clipping, not just carrying a large signal).
    saturations: u64,
}

impl FirFilter {
    /// Creates a filter from float coefficients, quantizing each to Q30.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty or any coefficient is outside
    /// Q30 range (|c| ≥ 2).
    #[must_use]
    pub fn from_coeffs(coeffs: &[f64]) -> Self {
        assert!(!coeffs.is_empty(), "FIR needs at least one coefficient");
        for &c in coeffs {
            assert!(
                c.abs() < 2.0,
                "coefficient {c} outside Q30 range; rescale the design"
            );
        }
        Self {
            coeffs: coeffs.iter().map(|&c| Q30::from_f64(c)).collect(),
            delay: vec![Q15::ZERO; coeffs.len()],
            pos: 0,
            saturations: 0,
        }
    }

    /// Designs and builds a lowpass filter in one step (see
    /// [`design_lowpass`]).
    #[must_use]
    pub fn lowpass(cutoff: f64, taps: usize) -> Self {
        Self::from_coeffs(&design_lowpass(cutoff, taps))
    }

    /// Number of taps.
    #[must_use]
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// `true` if the filter has no taps (never true for constructed filters).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Clears the delay line.
    pub fn reset(&mut self) {
        self.delay.fill(Q15::ZERO);
        self.pos = 0;
    }

    /// Pushes one sample into the delay line without computing an output.
    ///
    /// Used by [`DecimatingFir`] on the input ticks whose output would be
    /// discarded: the convolution depends only on the delay-line contents
    /// at the instant it runs, so skipping the MAC between decimated
    /// output ticks leaves the emitted sample stream bit-identical while
    /// cutting the per-input cost from O(taps) to O(1).
    #[inline]
    pub fn push(&mut self, x: Q15) {
        self.delay[self.pos] = x;
        self.advance();
    }

    /// Moves the write position to the next slot, wrapping at the end.
    #[inline]
    fn advance(&mut self) {
        self.pos += 1;
        if self.pos == self.delay.len() {
            self.pos = 0;
        }
    }

    /// Processes one sample.
    pub fn process(&mut self, x: Q15) -> Q15 {
        self.delay[self.pos] = x;
        // 64-bit MAC over the circular delay line: tap k meets the sample
        // k steps back, which is `delay[pos − k]` for k ≤ pos and wraps to
        // the end of the line after that. The two runs are contiguous; the
        // integer sum does not depend on their order.
        let (newer, older) = self.delay.split_at(self.pos + 1);
        let (c_newer, c_older) = self.coeffs.split_at(self.pos + 1);
        let mac = |c: &[Q30], d: &[Q15]| -> i64 {
            c.iter()
                .zip(d.iter().rev())
                .map(|(c, d)| i64::from(d.raw()) * i64::from(c.raw()))
                .sum()
        };
        let acc = mac(c_newer, newer) + mac(c_older, older);
        self.advance();
        // Product is Q15*Q30 = Q45; shift back to Q15 with rounding.
        let shifted = (acc + (1i64 << 29)) >> 30;
        if !(i64::from(i32::MIN)..=i64::from(i32::MAX)).contains(&shifted) {
            self.saturations += 1;
        }
        Q15::from_raw(saturate(shifted))
    }

    /// Group delay in samples (linear phase assumed: (N−1)/2).
    #[must_use]
    pub fn group_delay(&self) -> f64 {
        (self.coeffs.len() as f64 - 1.0) / 2.0
    }

    /// Outputs that hit the saturation clamp since construction.
    #[must_use]
    pub fn saturations(&self) -> u64 {
        self.saturations
    }

    /// Serializes the delay line, write position and clip counter. The
    /// coefficients, and with them the delay line's length, are
    /// design-time configuration and are not saved.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.delay.iter().for_each(|q| w.put_i32(q.raw()));
        w.put_u64(self.pos as u64);
        w.put_u64(self.saturations);
    }

    /// Restores state saved by [`FirFilter::save_state`] into a filter of
    /// the same design.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] if the saved write position is outside
    /// the delay line, plus the underlying decode errors.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        for q in &mut self.delay {
            *q = Q15::from_raw(r.take_i32()?);
        }
        let pos = r.take_u64()? as usize;
        if pos >= self.delay.len() {
            return Err(SnapshotError::Corrupt {
                context: format!("FIR write position {pos} out of range {}", self.delay.len()),
            });
        }
        self.pos = pos;
        self.saturations = r.take_u64()?;
        Ok(())
    }
}

fn saturate(v: i64) -> i32 {
    v.clamp(i32::MIN as i64, i32::MAX as i64) as i32
}

/// FIR filter followed by sample-rate decimation by `factor` (polyphase
/// behaviourally: computes every output at the decimated rate).
///
/// Used at the output of the synchronous demodulator to move from the
/// 250 kHz modulation rate down to the ~1 kHz rate channel.
#[derive(Debug, Clone)]
pub struct DecimatingFir {
    fir: FirFilter,
    factor: u32,
    counter: u32,
}

impl DecimatingFir {
    /// Wraps `fir` with decimation by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    #[must_use]
    pub fn new(fir: FirFilter, factor: u32) -> Self {
        assert!(factor > 0, "decimation factor must be non-zero");
        Self {
            fir,
            factor,
            counter: 0,
        }
    }

    /// Decimation factor.
    #[must_use]
    pub fn factor(&self) -> u32 {
        self.factor
    }

    /// Feeds one input sample; returns `Some(y)` on the decimated ticks.
    ///
    /// The full convolution runs only on the emitting ticks; the other
    /// `factor − 1` inputs of each frame take the O(1) delay-line
    /// [`FirFilter::push`] path. The emitted samples are bit-identical to
    /// filtering every input, because each output depends only on the
    /// delay-line contents at its own instant. (Saturation counting
    /// follows the computed outputs, i.e. only samples that are actually
    /// emitted.)
    #[inline]
    pub fn process(&mut self, x: Q15) -> Option<Q15> {
        self.counter += 1;
        if self.counter == self.factor {
            self.counter = 0;
            Some(self.fir.process(x))
        } else {
            self.fir.push(x);
            None
        }
    }

    /// Clears filter state and phase.
    pub fn reset(&mut self) {
        self.fir.reset();
        self.counter = 0;
    }

    /// Saturated outputs of the inner filter (see [`FirFilter::saturations`]).
    #[must_use]
    pub fn saturations(&self) -> u64 {
        self.fir.saturations()
    }

    /// Serializes the inner filter and the decimation phase counter.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.fir.save_state(w);
        w.put_u32(self.counter);
    }

    /// Restores state saved by [`DecimatingFir::save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] if the saved phase exceeds the
    /// decimation factor, plus the inner filter's errors.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.fir.load_state(r)?;
        let counter = r.take_u32()?;
        if counter >= self.factor {
            return Err(SnapshotError::Corrupt {
                context: format!("decimation phase {counter} out of range {}", self.factor),
            });
        }
        self.counter = counter;
        Ok(())
    }
}

/// Lane-parallel decimating FIR: N identical-design filters in lockstep
/// over a `[tap][lane]`-contiguous delay matrix.
///
/// The write position and decimation phase are shared (lockstep lanes feed
/// one sample per tick each), so the per-tick work is one contiguous row
/// write, and on emitting ticks a tap-major MAC whose inner loop runs
/// across lanes — `i32×i32→i64` multiply-adds over contiguous memory. All
/// arithmetic is integer and identical to [`FirFilter::process`], so the
/// emitted codes match the scalar filters bit for bit.
///
/// Extraction requires uniform coefficients, write position, decimation
/// factor, and phase across lanes; per-lane saturation counters are kept
/// and written back.
#[derive(Debug, Clone)]
pub struct DecimatingFirLanes {
    coeffs: Vec<Q30>,
    /// Raw Q15 delay samples, `[tap][lane]` so the MAC inner loop is unit
    /// stride across lanes.
    delay: Vec<i32>,
    taps: usize,
    n: usize,
    pos: usize,
    factor: u32,
    counter: u32,
    saturations: Vec<u64>,
    acc: Vec<i64>,
}

impl DecimatingFirLanes {
    /// Captures N decimating filters for lockstep processing.
    ///
    /// Returns `None` if the filter designs or phases differ across lanes
    /// (or the iterator is empty).
    pub fn extract<'a>(firs: impl Iterator<Item = &'a DecimatingFir>) -> Option<Self> {
        let fs: Vec<&DecimatingFir> = firs.collect();
        let first = *fs.first()?;
        let taps = first.fir.coeffs.len();
        if fs.iter().any(|f| {
            f.fir.coeffs != first.fir.coeffs
                || f.fir.pos != first.fir.pos
                || f.factor != first.factor
                || f.counter != first.counter
        }) {
            return None;
        }
        let n = fs.len();
        let mut delay = vec![0i32; taps * n];
        for (l, f) in fs.iter().enumerate() {
            for (t, q) in f.fir.delay.iter().enumerate() {
                delay[t * n + l] = q.raw();
            }
        }
        Some(Self {
            coeffs: first.fir.coeffs.clone(),
            delay,
            taps,
            n,
            pos: first.fir.pos,
            factor: first.factor,
            counter: first.counter,
            saturations: fs.iter().map(|f| f.fir.saturations).collect(),
            acc: vec![0i64; n],
        })
    }

    /// Writes delay lines, phase, and saturation counters back.
    pub fn restore<'a>(&self, firs: impl Iterator<Item = &'a mut DecimatingFir>) {
        for (l, f) in firs.enumerate() {
            for (t, q) in f.fir.delay.iter_mut().enumerate() {
                *q = Q15::from_raw(self.delay[t * self.n + l]);
            }
            f.fir.pos = self.pos;
            f.fir.saturations = self.saturations[l];
            f.counter = self.counter;
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.n
    }

    /// Feeds one raw Q15 sample per lane. Returns `true` on decimated
    /// output ticks, with the emitted raw Q15 codes in `out`.
    #[inline]
    pub fn process(&mut self, x: &[i32], out: &mut [i32]) -> bool {
        let n = self.n;
        self.delay[self.pos * n..self.pos * n + n].copy_from_slice(&x[..n]);
        self.counter += 1;
        if self.counter != self.factor {
            self.pos = (self.pos + 1) % self.taps;
            return false;
        }
        self.counter = 0;
        self.acc.fill(0);
        let mut idx = self.pos;
        for c in &self.coeffs {
            let cr = c.raw() as i64;
            let row = &self.delay[idx * n..idx * n + n];
            for (a, &r) in self.acc.iter_mut().zip(row) {
                *a += i64::from(r) * cr;
            }
            idx = if idx == 0 { self.taps - 1 } else { idx - 1 };
        }
        self.pos = (self.pos + 1) % self.taps;
        for (l, o) in out.iter_mut().enumerate().take(n) {
            let shifted = (self.acc[l] + (1i64 << 29)) >> 30;
            if !(i64::from(i32::MIN)..=i64::from(i32::MAX)).contains(&shifted) {
                self.saturations[l] += 1;
            }
            *o = saturate(shifted);
        }
        true
    }
}

/// Measures the filter's magnitude response at `freq` (fraction of the
/// sample rate) by driving a sine through a clone of it. Float-side test
/// helper mirroring a network-analyzer sweep.
#[must_use]
pub fn measure_gain(filter: &FirFilter, freq: f64) -> f64 {
    let mut f = filter.clone();
    let n = 8192usize;
    let w = 2.0 * std::f64::consts::PI * freq;
    let mut sum_sq = 0.0f64;
    let mut count = 0usize;
    for k in 0..n {
        let x = Q15::from_f64(0.5 * (w * k as f64).sin());
        let y = f.process(x).to_f64();
        if k > 4 * filter.len() {
            sum_sq += y * y;
            count += 1;
        }
    }
    let out_rms = (sum_sq / count as f64).sqrt();
    out_rms / (0.5 / std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn design_is_symmetric_linear_phase() {
        let h = design_lowpass(0.2, 21);
        for i in 0..h.len() / 2 {
            assert!((h[i] - h[h.len() - 1 - i]).abs() < 1e-12, "tap {i}");
        }
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn design_rejects_bad_cutoff() {
        let _ = design_lowpass(0.6, 11);
    }

    #[test]
    fn impulse_response_matches_coefficients() {
        let h = design_lowpass(0.25, 9);
        let mut f = FirFilter::from_coeffs(&h);
        let mut out = Vec::new();
        for k in 0..9 {
            let x = if k == 0 { Q15::ONE } else { Q15::ZERO };
            out.push(f.process(x).to_f64());
        }
        for (i, (&hi, oi)) in h.iter().zip(&out).enumerate() {
            assert!((hi - oi).abs() < 1e-4, "tap {i}: {hi} vs {oi}");
        }
    }

    #[test]
    fn passband_and_stopband() {
        let f = FirFilter::lowpass(0.05, 63);
        let g_pass = measure_gain(&f, 0.01);
        let g_stop = measure_gain(&f, 0.25);
        assert!(g_pass > 0.95, "passband gain {g_pass}");
        assert!(g_stop < 0.01, "stopband gain {g_stop}");
    }

    #[test]
    fn dc_gain_unity() {
        let mut f = FirFilter::lowpass(0.1, 31);
        let mut y = Q15::ZERO;
        for _ in 0..200 {
            y = f.process(Q15::from_f64(0.5));
        }
        assert!((y.to_f64() - 0.5).abs() < 1e-3);
    }

    #[test]
    fn reset_clears_state() {
        let mut f = FirFilter::lowpass(0.1, 15);
        for _ in 0..20 {
            f.process(Q15::ONE);
        }
        f.reset();
        let y = f.process(Q15::ZERO);
        assert_eq!(y, Q15::ZERO);
    }

    #[test]
    fn decimator_emits_every_nth() {
        let mut d = DecimatingFir::new(FirFilter::lowpass(0.1, 15), 4);
        let outputs = (0..16)
            .filter_map(|_| d.process(Q15::from_f64(0.1)))
            .count();
        assert_eq!(outputs, 4);
    }

    #[test]
    fn decimator_matches_filtering_every_sample() {
        // The lazy (push-only between emissions) decimator must produce a
        // bit-identical output stream to running the full FIR on every
        // input and keeping every Nth output.
        let proto = FirFilter::lowpass(0.02, 101);
        let mut lazy = DecimatingFir::new(proto.clone(), 7);
        let mut dense = proto;
        let mut k: u32 = 0;
        for n in 0..1000u32 {
            let x = Q15::from_f64(0.4 * f64::from(n % 50) / 50.0 - 0.2);
            let y_dense = dense.process(x);
            k += 1;
            let keep = if k == 7 {
                k = 0;
                Some(y_dense)
            } else {
                None
            };
            assert_eq!(lazy.process(x), keep, "sample {n}");
        }
    }

    #[test]
    fn decimator_dc_gain() {
        let mut d = DecimatingFir::new(FirFilter::lowpass(0.05, 63), 8);
        let mut last = Q15::ZERO;
        for _ in 0..2000 {
            if let Some(y) = d.process(Q15::from_f64(0.25)) {
                last = y;
            }
        }
        assert!((last.to_f64() - 0.25).abs() < 1e-3);
    }

    #[test]
    fn group_delay_formula() {
        let f = FirFilter::lowpass(0.1, 31);
        assert_eq!(f.group_delay(), 15.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_coeffs_panics() {
        let _ = FirFilter::from_coeffs(&[]);
    }

    #[test]
    fn saturation_counter_counts_clamps() {
        // Gain ~1.9 on full-scale raw MAX inputs overflows the i32 output.
        let mut f = FirFilter::from_coeffs(&[1.9]);
        assert_eq!(f.saturations(), 0);
        for _ in 0..3 {
            let y = f.process(Q15::MAX);
            assert_eq!(y, Q15::MAX, "clamped at the rail");
        }
        assert_eq!(f.saturations(), 3);
        f.process(Q15::from_f64(0.1));
        assert_eq!(f.saturations(), 3, "in-range output does not count");
    }
}
