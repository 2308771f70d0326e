//! Seeded noise sources for analog and MEMS models.
//!
//! The platform's noise budget is dominated by three shapes:
//!
//! - **white** noise (thermal / Brownian force, ADC quantization dither),
//! - **pink** (1/f, flicker) noise from the CMOS front-end amplifiers,
//! - **random walk** (bias instability of the rate output over temperature
//!   and time).
//!
//! All sources are deterministic given a seed so experiments are exactly
//! reproducible — the simulation-kernel equivalent of a logged bench
//! measurement. Every source exposes `save_state`/`load_state` over the
//! [`crate::snapshot`] primitives so the platform checkpoint can capture
//! RNG streams bit-exactly mid-run.
//!
//! A seeded Gaussian stream is a fixed sequence: Box–Muller pair *k*
//! turns the PRNG's next uniforms into `cos_k, sin_k`, and the stream
//! reads `cos_0, sin_0, cos_1, sin_1, …` times sigma. [`WhiteNoise`]
//! produces it 32 pairs at a time (one serial PRNG pass, then one batched
//! [`mathx::box_muller_slice`] call) and hands the normals out one per
//! draw. The block is a cache, not state: a saved source records its
//! *logical* stream position, i.e. the PRNG state and cached sine half a
//! generator drawing one pair at a time would hold after the same draws,
//! and a restored source starts a fresh block from there. The *phase* of
//! a source is likewise logical: whether its next draw is the sine half
//! of a pair already drawn.

use crate::mathx;
use crate::snapshot::{SnapshotError, StateReader, StateWriter};

/// Minimal deterministic PRNG: xorshift64* with a SplitMix64-scrambled
/// seed.
///
/// Vendored so the simulation kernel has no external dependencies (the
/// build must work with no registry access). The statistical quality is
/// more than sufficient for noise synthesis: xorshift64* passes the usual
/// empirical batteries except for the lowest bit, and all consumers here
/// use the high 53 bits via [`Rng64::next_f64`].
///
/// # Example
///
/// ```
/// use ascp_sim::noise::Rng64;
/// let mut a = Rng64::new(42);
/// let mut b = Rng64::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let u = a.next_f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator from any 64-bit seed (zero included).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        // SplitMix64 finalizer: decorrelates sequential/sparse seeds and
        // maps 0 to a non-zero xorshift state.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Self {
            state: if z == 0 { 0x9e37_79b9_7f4a_7c15 } else { z },
        }
    }

    /// Next raw 64-bit output (xorshift64*).
    pub fn next_u64(&mut self) -> u64 {
        xorshift_next(&mut self.state)
    }

    /// Uniform sample in `[0, 1)` from the top 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        uniform_53(self.next_u64())
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or not finite.
    pub fn gen_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi && (hi - lo).is_finite(), "empty range {lo}..{hi}");
        lo + (hi - lo) * self.next_f64()
    }

    /// Serializes the generator state.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u64(self.state);
    }

    /// Restores the generator state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.state = r.take_u64()?;
        if self.state == 0 {
            // A zero xorshift state is absorbing; it can never be produced
            // by a healthy generator, so the bytes are corrupt.
            return Err(SnapshotError::Corrupt {
                context: "Rng64 state of zero".to_owned(),
            });
        }
        Ok(())
    }
}

/// One xorshift64* advance on a raw state word — the single source of
/// truth for the sequence, shared by [`Rng64`] and the batched
/// [`WhiteLanes`] path so both walks are bit-identical.
#[inline(always)]
fn xorshift_next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Maps a raw output word to a uniform in `[0, 1)` via the top 53 bits.
#[inline(always)]
fn uniform_53(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// [`uniform_53`] rewritten without the `u64 → f64` cast, which has no
/// AVX2 instruction and scalarizes any loop containing it. The 53-bit
/// integer is split into 32-bit halves, each planted in a double's
/// mantissa field, and recombined with adds that are provably exact
/// (every intermediate is an integer below 2^53, hence representable) —
/// so the result is bit-identical to the cast, but the loop vectorizes.
#[inline(always)]
fn uniform_53_split(word: u64) -> f64 {
    // 2^84 + 2^52: the exponent offsets planted in the halves below.
    const MAGIC: f64 = (1u128 << 84) as f64 + (1u64 << 52) as f64;
    let u = word >> 11;
    let hi = f64::from_bits((u >> 32) | (0x453u64 << 52)); // 2^84 + (u>>32)·2^32
    let lo = f64::from_bits((u & 0xffff_ffff) | (0x433u64 << 52)); // 2^52 + (u & 2^32-1)
    ((hi - MAGIC) + lo) * (1.0 / (1u64 << 53) as f64)
}

/// Box–Muller pairs a [`WhiteNoise`] block holds: one refill draws this
/// many pairs' uniforms and transforms them in one batch. Long enough for
/// the AVX2 transform to run at throughput, short enough that a saved
/// position is cheap to replay and a mostly idle source wastes little.
const BLOCK_PAIRS: usize = 32;

/// Unit normals per block, in stream order.
const BLOCK_LEN: usize = 2 * BLOCK_PAIRS;

/// One Box–Muller pair's uniforms as the stream takes them: `u1` redrawn
/// until nonzero (`ln` needs `u1 > 0`; a zero has probability 2^-53),
/// then `u2`.
#[inline(always)]
fn pair_uniforms(rng: &mut Rng64) -> (f64, f64) {
    let u1 = loop {
        let u = rng.next_f64();
        if u > 0.0 {
            break u;
        }
    };
    (u1, rng.next_f64())
}

/// A block of unit normals in stream order (`cos_0, sin_0, cos_1, …`)
/// and the PRNG state it was drawn from.
#[derive(Debug, Clone)]
struct NormalBlock {
    /// PRNG state before the block's first pair.
    start: u64,
    /// Index of the next normal to hand out; `BLOCK_LEN` once spent.
    next: usize,
    z: [f64; BLOCK_LEN],
}

impl NormalBlock {
    fn spent() -> Box<Self> {
        Box::new(Self {
            start: 0,
            next: BLOCK_LEN,
            z: [0.0; BLOCK_LEN],
        })
    }

    fn is_live(&self) -> bool {
        self.next < BLOCK_LEN
    }

    /// Draws the next `BLOCK_PAIRS` pairs from `rng`: the serial xorshift
    /// pass first, then one batched transform (bit-identical to
    /// [`mathx::box_muller`] per pair).
    fn refill(&mut self, rng: &mut Rng64) {
        self.start = rng.state;
        let mut u1 = [0.0; BLOCK_PAIRS];
        let mut u2 = [0.0; BLOCK_PAIRS];
        for (a, b) in u1.iter_mut().zip(&mut u2) {
            (*a, *b) = pair_uniforms(rng);
        }
        let mut z_cos = [0.0; BLOCK_PAIRS];
        let mut z_sin = [0.0; BLOCK_PAIRS];
        mathx::box_muller_slice(&u1, &u2, &mut z_cos, &mut z_sin);
        for ((pair, &c), &s) in self.z.chunks_exact_mut(2).zip(&z_cos).zip(&z_sin) {
            pair[0] = c;
            pair[1] = s;
        }
        self.next = 0;
    }

    /// The logical stream position after the normals handed out so far:
    /// the PRNG state past the pairs they came from (replayed from
    /// `start`) and, mid-pair, the pending sine half.
    fn position(&self) -> (u64, Option<f64>) {
        let mut rng = Rng64 { state: self.start };
        for _ in 0..self.next.div_ceil(2) {
            pair_uniforms(&mut rng);
        }
        let cached = (self.next % 2 == 1).then(|| self.z[self.next]);
        (rng.state, cached)
    }
}

/// Gaussian white-noise source (Box–Muller over a seeded PRNG).
///
/// `sigma` is the standard deviation of each sample. For a band-limited
/// process sampled at `fs`, a white density of `d` units/√Hz corresponds to
/// `sigma = d * sqrt(fs / 2)`; use [`WhiteNoise::from_density`].
///
/// Normals come from a private block of 32 Box–Muller pairs, allocated
/// at the first nonzero-sigma draw and refilled when spent (see the
/// module docs); a source with `sigma == 0` never draws, so it neither
/// advances its PRNG nor allocates.
///
/// # Example
///
/// ```
/// use ascp_sim::noise::WhiteNoise;
/// let mut n = WhiteNoise::new(1.0, 42);
/// let x = n.sample();
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct WhiteNoise {
    sigma: f64,
    /// PRNG state past the last pair drawn (the live block's end).
    rng: Rng64,
    /// Sine half pending from a restored position; only set while no
    /// block is live.
    cached: Option<f64>,
    block: Option<Box<NormalBlock>>,
}

impl WhiteNoise {
    /// Creates a source with per-sample standard deviation `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    #[must_use]
    pub fn new(sigma: f64, seed: u64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "noise sigma must be finite and non-negative, got {sigma}"
        );
        Self {
            sigma,
            rng: Rng64::new(seed),
            cached: None,
            block: None,
        }
    }

    /// Creates a source from a one-sided spectral density `density`
    /// (units/√Hz) at sample rate `fs` (Hz).
    ///
    /// # Panics
    ///
    /// Panics if `density` is negative or `fs` is not positive.
    #[must_use]
    pub fn from_density(density: f64, fs: f64, seed: u64) -> Self {
        assert!(fs > 0.0, "sample rate must be positive, got {fs}");
        Self::new(density * (fs / 2.0).sqrt(), seed)
    }

    /// Per-sample standard deviation.
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws the next Gaussian sample.
    ///
    /// A live block is the only case inlined into the caller: a
    /// zero-sigma source never allocates one, and a restored sine half
    /// exists only while none is live, so every other case takes one
    /// out-of-line call.
    #[inline]
    pub fn sample(&mut self) -> f64 {
        if let Some(block) = self.block.as_deref_mut() {
            if let Some(&z) = block.z.get(block.next) {
                block.next += 1;
                return z * self.sigma;
            }
        }
        self.sample_cold()
    }

    /// [`WhiteNoise::sample`] without a live block: a silent source, a
    /// restored sine half, or a refill.
    #[inline(never)]
    fn sample_cold(&mut self) -> f64 {
        if self.sigma == 0.0 {
            return 0.0;
        }
        if let Some(z) = self.cached {
            self.cached = None;
            return z * self.sigma;
        }
        let block = self.block.get_or_insert_with(NormalBlock::spent);
        block.refill(&mut self.rng);
        block.next = 1;
        block.z[0] * self.sigma
    }

    /// The logical stream position: PRNG state and pending sine half.
    fn position(&self) -> (u64, Option<f64>) {
        match &self.block {
            Some(b) if b.is_live() => b.position(),
            _ => (self.rng.state, self.cached),
        }
    }

    /// Moves the stream to a logical position, dropping any live block.
    fn set_position(&mut self, state: u64, cached: Option<f64>) {
        self.rng.state = state;
        self.cached = cached;
        if let Some(b) = &mut self.block {
            b.next = BLOCK_LEN;
        }
    }

    /// Serializes sigma and the logical stream position: the PRNG state
    /// and the cached Box–Muller half-sample (the block itself is not
    /// saved).
    pub fn save_state(&self, w: &mut StateWriter) {
        let (state, cached) = self.position();
        w.put_f64(self.sigma);
        Rng64 { state }.save_state(w);
        w.put_opt_f64(cached);
    }

    /// Restores the full source state (bit-exact continuation).
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input; a negative or
    /// non-finite sigma, or a non-finite cached half, is
    /// [`SnapshotError::Corrupt`].
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let sigma = r.take_f64()?;
        if !sigma.is_finite() || sigma < 0.0 {
            return Err(SnapshotError::Corrupt {
                context: format!("white noise sigma {sigma}"),
            });
        }
        let mut rng = Rng64 { state: 0 };
        rng.load_state(r)?;
        let cached = r.take_opt_f64()?;
        if cached.is_some_and(|z| !z.is_finite()) {
            return Err(SnapshotError::Corrupt {
                context: format!("white noise cached half {cached:?}"),
            });
        }
        self.sigma = sigma;
        self.set_position(rng.state, cached);
        Ok(())
    }
}

/// Pink (1/f) noise via the Voss–McCartney multi-row algorithm.
///
/// Approximates a −10 dB/decade power slope over ~`rows` octaves; used for
/// amplifier flicker noise below the corner frequency.
#[derive(Debug, Clone)]
pub struct PinkNoise {
    white: WhiteNoise,
    rows: Vec<f64>,
    counter: u64,
    scale: f64,
}

impl PinkNoise {
    /// Creates a pink source whose long-run RMS is approximately `sigma`,
    /// shaped over `rows` octaves (typically 12–16).
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero or `sigma` is negative/not finite.
    #[must_use]
    pub fn new(sigma: f64, rows: usize, seed: u64) -> Self {
        assert!(rows > 0, "pink noise needs at least one row");
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "noise sigma must be finite and non-negative, got {sigma}"
        );
        let n = rows as f64;
        Self {
            white: WhiteNoise::new(1.0, seed),
            rows: vec![0.0; rows],
            counter: 0,
            // The sum of `rows` unit-variance rows has variance `rows`.
            scale: sigma / n.sqrt(),
        }
    }

    /// Draws the next pink sample.
    pub fn sample(&mut self) -> f64 {
        self.counter = self.counter.wrapping_add(1);
        // Update the row selected by the lowest set bit of the counter: row
        // k updates every 2^k samples, giving the 1/f ladder.
        let k = (self.counter.trailing_zeros() as usize).min(self.rows.len() - 1);
        self.rows[k] = self.white.sample();
        self.rows.iter().sum::<f64>() * self.scale
    }

    /// Serializes the inner white source, row ladder, counter and scale.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.white.save_state(w);
        w.put_f64_slice(&self.rows);
        w.put_u64(self.counter);
        w.put_f64(self.scale);
    }

    /// Restores the full source state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input; the saved row
    /// ladder must be non-empty and finite, and the scale finite and
    /// non-negative.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.white.load_state(r)?;
        let rows = r.take_f64_vec()?;
        if rows.is_empty() || rows.iter().any(|v| !v.is_finite()) {
            return Err(SnapshotError::Corrupt {
                context: "pink noise row ladder empty or not finite".to_owned(),
            });
        }
        let counter = r.take_u64()?;
        let scale = r.take_f64()?;
        if !scale.is_finite() || scale < 0.0 {
            return Err(SnapshotError::Corrupt {
                context: format!("pink noise scale {scale}"),
            });
        }
        self.rows = rows;
        self.counter = counter;
        self.scale = scale;
        Ok(())
    }
}

/// Structure-of-arrays mirror of N [`WhiteNoise`] sources stepping in
/// lockstep — the fleet execution path.
///
/// Extraction captures each lane's logical stream position (PRNG state
/// and cached Box–Muller half, see the module docs) and sigma;
/// [`WhiteLanes::sample`] then advances every lane by exactly one draw,
/// with the expensive `ln`/`sincos`/`sqrt` work batched over contiguous
/// arrays (see [`crate::mathx`]) so it auto-vectorizes. Per-lane outputs
/// are bit-identical to calling [`WhiteNoise::sample`] on each source —
/// the property the fleet's byte-identical-CSV contract rests on.
///
/// Lockstep requires a *uniform* lane population: every lane on the same
/// logical Box–Muller phase, and sigmas either all zero or all nonzero (a
/// zero-sigma source never advances its PRNG). A source's block does not
/// enter into it: extraction reads the logical position, and
/// [`WhiteLanes::restore`] drops any live block. [`WhiteLanes::extract`]
/// returns `None` when the population is mixed; callers fall back to
/// scalar sampling.
#[derive(Debug, Clone)]
pub struct WhiteLanes {
    sigma: Vec<f64>,
    state: Vec<u64>,
    cached: Vec<f64>,
    has_cached: bool,
    all_zero: bool,
    // Scratch buffers for the batched transform.
    u1: Vec<f64>,
    u2: Vec<f64>,
    z_cos: Vec<f64>,
    z_sin: Vec<f64>,
}

impl WhiteLanes {
    /// Captures a lane population from the given sources. Returns `None`
    /// if the lanes cannot step in lockstep (mixed Box–Muller phase, or a
    /// mix of zero and nonzero sigmas).
    pub fn extract<'a>(sources: impl Iterator<Item = &'a WhiteNoise>) -> Option<Self> {
        let mut sigma = Vec::new();
        let mut state = Vec::new();
        let mut cached = Vec::new();
        let mut phase: Option<bool> = None;
        for s in sources {
            let (st, c) = s.position();
            match phase {
                None => phase = Some(c.is_some()),
                Some(p) if p != c.is_some() => return None,
                Some(_) => {}
            }
            sigma.push(s.sigma);
            state.push(st);
            cached.push(c.unwrap_or(0.0));
        }
        let n = sigma.len();
        let zeros = sigma.iter().filter(|&&s| s == 0.0).count();
        if zeros != 0 && zeros != n {
            return None;
        }
        Some(Self {
            sigma,
            state,
            cached,
            has_cached: phase.unwrap_or(false),
            all_zero: zeros == n && n > 0,
            u1: vec![0.0; n],
            u2: vec![0.0; n],
            z_cos: vec![0.0; n],
            z_sin: vec![0.0; n],
        })
    }

    /// Writes the lane state back into the sources (same order and count
    /// as extraction), dropping their live blocks.
    pub fn restore<'a>(&self, sources: impl Iterator<Item = &'a mut WhiteNoise>) {
        for (l, s) in sources.enumerate() {
            s.set_position(self.state[l], self.lane_cached(l));
        }
    }

    /// Lane `l`'s pending sine half, in [`WhiteNoise`]'s representation.
    fn lane_cached(&self, l: usize) -> Option<f64> {
        self.has_cached.then(|| self.cached[l])
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.sigma.len()
    }

    /// Draws one sample per lane into `out` (`out.len()` must equal
    /// [`WhiteLanes::lanes`]). Bit-identical per lane to
    /// [`WhiteNoise::sample`].
    pub fn sample(&mut self, out: &mut [f64]) {
        let n = self.state.len();
        assert_eq!(out.len(), n, "lane count mismatch");
        if self.all_zero {
            out.fill(0.0);
            return;
        }
        if self.has_cached {
            self.has_cached = false;
            for (o, (&z, &sg)) in out.iter_mut().zip(self.cached.iter().zip(&self.sigma)) {
                *o = z * sg;
            }
            return;
        }
        #[cfg(target_arch = "x86_64")]
        {
            // AVX2 only — see `mathx::box_muller_slice` for why there is
            // deliberately no AVX-512 tier.
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: guarded by the runtime AVX2 check above.
                unsafe { self.transform_avx2(out) };
                return;
            }
        }
        self.transform(out);
    }

    /// The Box–Muller tick: advance every lane's PRNG twice (u1 with
    /// rejection, then u2), transform, emit cos and cache sin.
    /// The rejection branch fires with probability 2^-53 — the repair
    /// loop below keeps the per-lane sequence exactly equal to the
    /// scalar path without blocking vectorization of the common case.
    #[inline(always)]
    fn transform(&mut self, out: &mut [f64]) {
        let n = self.state.len();
        for l in 0..n {
            self.u1[l] = uniform_53_split(xorshift_next(&mut self.state[l]));
        }
        for l in 0..n {
            while self.u1[l] == 0.0 {
                self.u1[l] = uniform_53_split(xorshift_next(&mut self.state[l]));
            }
        }
        for l in 0..n {
            self.u2[l] = uniform_53_split(xorshift_next(&mut self.state[l]));
        }
        mathx::box_muller_slice(&self.u1, &self.u2, &mut self.z_cos, &mut self.z_sin);
        for (o, (&zc, &sg)) in out.iter_mut().zip(self.z_cos.iter().zip(&self.sigma)) {
            *o = zc * sg;
        }
        self.cached.copy_from_slice(&self.z_sin);
        self.has_cached = true;
    }

    /// AVX2 copy of the transform: vectorizes the xorshift walk (64-bit
    /// shifts, xors, and the constant multiply, which LLVM lowers through
    /// `vpmuludq` pieces) and the split-add uniform conversion around the
    /// already-dispatched Box–Muller batch. Integer and IEEE float ops
    /// produce identical bits at any width.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn transform_avx2(&mut self, out: &mut [f64]) {
        self.transform(out);
    }
}

/// Structure-of-arrays mirror of N [`PinkNoise`] sources in lockstep.
///
/// The Voss–McCartney row index is a pure function of the shared sample
/// counter, so lockstep lanes always update the same row: one batched
/// white draw plus a vertical row sum per sample. Bit-identical per lane
/// to [`PinkNoise::sample`].
#[derive(Debug, Clone)]
pub struct PinkLanes {
    white: WhiteLanes,
    /// Row ladder, `[row][lane]` contiguous by lane.
    rows: Vec<f64>,
    n_rows: usize,
    counter: u64,
    scale: Vec<f64>,
    draw: Vec<f64>,
}

impl PinkLanes {
    /// Captures a lane population. Returns `None` if the sources disagree
    /// on row count or counter phase, or their inner white sources cannot
    /// run in lockstep.
    pub fn extract<'a>(sources: impl Iterator<Item = &'a PinkNoise>) -> Option<Self> {
        let sources: Vec<&PinkNoise> = sources.collect();
        let first = sources.first()?;
        let n_rows = first.rows.len();
        let counter = first.counter;
        if sources
            .iter()
            .any(|s| s.rows.len() != n_rows || s.counter != counter)
        {
            return None;
        }
        let white = WhiteLanes::extract(sources.iter().map(|s| &s.white))?;
        let n = sources.len();
        let mut rows = vec![0.0; n_rows * n];
        for (l, s) in sources.iter().enumerate() {
            for (r, &v) in s.rows.iter().enumerate() {
                rows[r * n + l] = v;
            }
        }
        Some(Self {
            white,
            rows,
            n_rows,
            counter,
            scale: sources.iter().map(|s| s.scale).collect(),
            draw: vec![0.0; n],
        })
    }

    /// Writes the lane state back into the sources (row ladder, counter,
    /// and the inner white source's logical position; its live block is
    /// dropped).
    pub fn restore<'a>(&self, sources: impl Iterator<Item = &'a mut PinkNoise>) {
        let n = self.scale.len();
        for (l, s) in sources.enumerate() {
            for r in 0..self.n_rows {
                s.rows[r] = self.rows[r * n + l];
            }
            s.counter = self.counter;
            s.white
                .set_position(self.white.state[l], self.white.lane_cached(l));
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.scale.len()
    }

    /// Draws one sample per lane into `out`.
    pub fn sample(&mut self, out: &mut [f64]) {
        let n = self.scale.len();
        assert_eq!(out.len(), n, "lane count mismatch");
        self.counter = self.counter.wrapping_add(1);
        let k = (self.counter.trailing_zeros() as usize).min(self.n_rows - 1);
        self.white.sample(&mut self.draw);
        self.rows[k * n..(k + 1) * n].copy_from_slice(&self.draw);
        // Vertical sum in scalar row order (row 0 first) so each lane's
        // accumulation matches `rows.iter().sum()` bit-for-bit.
        out.copy_from_slice(&self.rows[..n]);
        for r in 1..self.n_rows {
            let row = &self.rows[r * n..(r + 1) * n];
            for l in 0..n {
                out[l] += row[l];
            }
        }
        for (o, &sc) in out.iter_mut().zip(&self.scale) {
            *o *= sc;
        }
    }
}

/// Integrated-white (random-walk / Brownian) noise source.
///
/// Each call adds a Gaussian increment of standard deviation
/// `sigma_per_sample` to an internal state; models rate-output bias drift.
#[derive(Debug, Clone)]
pub struct RandomWalk {
    white: WhiteNoise,
    state: f64,
    limit: f64,
}

impl RandomWalk {
    /// Creates a walk with per-sample increment sigma and a reflecting limit
    /// (`limit`, use `f64::INFINITY` for an unbounded walk).
    ///
    /// # Panics
    ///
    /// Panics if `limit` is not positive.
    #[must_use]
    pub fn new(sigma_per_sample: f64, limit: f64, seed: u64) -> Self {
        assert!(limit > 0.0, "random walk limit must be positive");
        Self {
            white: WhiteNoise::new(sigma_per_sample, seed),
            state: 0.0,
            limit,
        }
    }

    /// Advances the walk and returns the new state.
    pub fn sample(&mut self) -> f64 {
        self.state += self.white.sample();
        // Reflect at the limit so the bias stays physically bounded. An
        // increment of more than twice the limit would bounce past the
        // opposite bound; it stops there instead.
        if self.state > self.limit {
            self.state = (2.0 * self.limit - self.state).max(-self.limit);
        } else if self.state < -self.limit {
            self.state = (-2.0 * self.limit - self.state).min(self.limit);
        }
        self.state
    }

    /// Current state without advancing.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.state
    }

    /// Serializes the inner white source, walk state and limit.
    pub fn save_state(&self, w: &mut StateWriter) {
        self.white.save_state(w);
        w.put_f64(self.state);
        w.put_f64(self.limit);
    }

    /// Restores the full source state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input; a limit that is
    /// not positive, or a state outside `±limit`, is
    /// [`SnapshotError::Corrupt`].
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.white.load_state(r)?;
        let state = r.take_f64()?;
        let limit = r.take_f64()?;
        if limit.is_nan() || limit <= 0.0 {
            return Err(SnapshotError::Corrupt {
                context: format!("random walk limit {limit}"),
            });
        }
        if !state.is_finite() || state.abs() > limit {
            return Err(SnapshotError::Corrupt {
                context: format!("random walk state {state} outside ±{limit}"),
            });
        }
        self.state = state;
        self.limit = limit;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn rng64_uniformity_and_determinism() {
        let mut a = Rng64::new(0);
        let mut b = Rng64::new(0);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut r = Rng64::new(1234);
        let xs: Vec<f64> = (0..100_000).map(|_| r.next_f64()).collect();
        let mean = stats::mean(&xs);
        assert!((mean - 0.5).abs() < 0.01, "uniform mean {mean}");
        // Variance of U(0,1) is 1/12.
        let var = stats::variance(&xs);
        assert!((var - 1.0 / 12.0).abs() < 0.005, "uniform variance {var}");
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn uniform_split_matches_cast_exactly() {
        let mut state = 0x1234_5678_9abc_def0u64;
        for _ in 0..100_000 {
            let w = xorshift_next(&mut state);
            assert_eq!(uniform_53(w).to_bits(), uniform_53_split(w).to_bits());
        }
        for w in [0u64, 1, 0x7ff, 0x800, u64::MAX, 1 << 63, (1 << 43) - 1] {
            assert_eq!(uniform_53(w).to_bits(), uniform_53_split(w).to_bits());
        }
    }

    #[test]
    fn rng64_distinct_seeds_diverge() {
        let mut a = Rng64::new(5);
        let mut b = Rng64::new(6);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn white_noise_is_reproducible() {
        let mut a = WhiteNoise::new(1.0, 7);
        let mut b = WhiteNoise::new(1.0, 7);
        for _ in 0..100 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn white_noise_distinct_seeds_differ() {
        let mut a = WhiteNoise::new(1.0, 1);
        let mut b = WhiteNoise::new(1.0, 2);
        let same = (0..32).filter(|_| a.sample() == b.sample()).count();
        assert!(same < 4);
    }

    #[test]
    fn white_noise_moments() {
        let mut n = WhiteNoise::new(2.0, 99);
        let xs: Vec<f64> = (0..200_000).map(|_| n.sample()).collect();
        let mean = stats::mean(&xs);
        let sd = stats::std_dev(&xs);
        assert!(mean.abs() < 0.02, "mean {mean} too far from 0");
        assert!((sd - 2.0).abs() < 0.02, "std dev {sd} too far from 2");
    }

    #[test]
    fn white_noise_zero_sigma_is_silent() {
        let mut n = WhiteNoise::new(0.0, 3);
        assert!((0..3 * BLOCK_LEN).all(|_| n.sample() == 0.0));
        // Silent sources neither advance nor allocate a block.
        assert!(n.block.is_none());
        assert_eq!(n.rng, Rng64::new(3));
        assert_eq!(saved(&n), saved(&WhiteNoise::new(0.0, 3)));
    }

    #[test]
    fn density_scaling_matches_sigma() {
        let n = WhiteNoise::from_density(0.1, 200.0, 0);
        assert!((n.sigma() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pink_noise_low_frequency_dominates() {
        // Pink noise should have more power in the slow rows: compare
        // variance of raw samples to variance of first differences. For
        // white noise var(diff) = 2*var; for pink it is much lower.
        let mut p = PinkNoise::new(1.0, 14, 5);
        let xs: Vec<f64> = (0..100_000).map(|_| p.sample()).collect();
        let var = stats::variance(&xs);
        let diffs: Vec<f64> = xs.windows(2).map(|w| w[1] - w[0]).collect();
        let var_diff = stats::variance(&diffs);
        assert!(
            var_diff < 1.2 * var,
            "pink spectrum not low-frequency weighted: var={var} var_diff={var_diff}"
        );
    }

    #[test]
    fn white_lanes_match_scalar_bit_for_bit() {
        for n in [1usize, 2, 7, 8, 16] {
            let mut scalar: Vec<WhiteNoise> = (0..n)
                .map(|l| WhiteNoise::new(0.5 + l as f64 * 0.1, 1000 + l as u64))
                .collect();
            let mut lanes = WhiteLanes::extract(scalar.iter()).expect("uniform population");
            let mut out = vec![0.0; n];
            for tick in 0..257 {
                lanes.sample(&mut out);
                for (l, s) in scalar.iter_mut().enumerate() {
                    let want = s.sample();
                    assert_eq!(
                        want.to_bits(),
                        out[l].to_bits(),
                        "tick {tick} lane {l}: {want} vs {}",
                        out[l]
                    );
                }
            }
            // Round-trip: restored sources continue the stream bit-exactly.
            let mut restored: Vec<WhiteNoise> = (0..n)
                .map(|l| WhiteNoise::new(0.5 + l as f64 * 0.1, 1000 + l as u64))
                .collect();
            lanes.restore(restored.iter_mut());
            for (l, (a, b)) in restored.iter_mut().zip(scalar.iter_mut()).enumerate() {
                for _ in 0..8 {
                    assert_eq!(a.sample().to_bits(), b.sample().to_bits(), "lane {l}");
                }
            }
        }
    }

    #[test]
    fn white_lanes_reject_mixed_phase_or_sigma() {
        let mut a = WhiteNoise::new(1.0, 1);
        let b = WhiteNoise::new(1.0, 2);
        a.sample(); // a now holds a cached half-sample, b does not
        assert!(WhiteLanes::extract([&a, &b].into_iter()).is_none());
        let c = WhiteNoise::new(0.0, 3);
        let d = WhiteNoise::new(1.0, 4);
        assert!(WhiteLanes::extract([&c, &d].into_iter()).is_none());
        // All-zero sigma is a valid (silent) population.
        let e = WhiteNoise::new(0.0, 5);
        let mut lanes = WhiteLanes::extract([&c, &e].into_iter()).expect("all-zero ok");
        let mut out = vec![1.0; 2];
        lanes.sample(&mut out);
        assert_eq!(out, vec![0.0, 0.0]);
    }

    #[test]
    fn pink_lanes_match_scalar_bit_for_bit() {
        for n in [1usize, 3, 8] {
            let mut scalar: Vec<PinkNoise> = (0..n)
                .map(|l| PinkNoise::new(0.3 + l as f64 * 0.05, 14, 70 + l as u64))
                .collect();
            let mut lanes = PinkLanes::extract(scalar.iter()).expect("uniform population");
            let mut out = vec![0.0; n];
            for tick in 0..300 {
                lanes.sample(&mut out);
                for (l, s) in scalar.iter_mut().enumerate() {
                    assert_eq!(
                        s.sample().to_bits(),
                        out[l].to_bits(),
                        "tick {tick} lane {l}"
                    );
                }
            }
            let mut restored: Vec<PinkNoise> = (0..n)
                .map(|l| PinkNoise::new(0.3 + l as f64 * 0.05, 14, 70 + l as u64))
                .collect();
            lanes.restore(restored.iter_mut());
            for (a, b) in restored.iter_mut().zip(scalar.iter_mut()) {
                for _ in 0..40 {
                    assert_eq!(a.sample().to_bits(), b.sample().to_bits());
                }
            }
        }
    }

    #[test]
    fn random_walk_respects_limit() {
        let mut w = RandomWalk::new(0.5, 1.0, 11);
        for _ in 0..10_000 {
            let v = w.sample();
            assert!(v.abs() <= 1.0 + 1e-9, "walk escaped limit: {v}");
        }
    }

    #[test]
    fn random_walk_value_matches_last_sample() {
        let mut w = RandomWalk::new(0.1, 10.0, 13);
        let s = w.sample();
        assert_eq!(s, w.value());
    }

    /// Reference generator: one Box–Muller pair per two draws, the sine
    /// half cached in between. This defines the stream; every block-path
    /// draw and saved byte must match it.
    #[derive(Clone)]
    struct PerDrawWhite {
        sigma: f64,
        rng: Rng64,
        cached: Option<f64>,
    }

    impl PerDrawWhite {
        fn new(sigma: f64, state: u64) -> Self {
            Self {
                sigma,
                rng: Rng64 { state },
                cached: None,
            }
        }

        fn sample(&mut self) -> f64 {
            if self.sigma == 0.0 {
                return 0.0;
            }
            if let Some(z) = self.cached.take() {
                return z * self.sigma;
            }
            let u1 = loop {
                let u = self.rng.next_f64();
                if u > 0.0 {
                    break u;
                }
            };
            let u2 = self.rng.next_f64();
            let (z_cos, z_sin) = mathx::box_muller(u1, u2);
            self.cached = Some(z_sin);
            z_cos * self.sigma
        }

        fn saved(&self) -> Vec<u8> {
            let mut w = StateWriter::new();
            w.put_f64(self.sigma);
            self.rng.save_state(&mut w);
            w.put_opt_f64(self.cached);
            w.into_bytes()
        }
    }

    fn saved(n: &WhiteNoise) -> Vec<u8> {
        let mut w = StateWriter::new();
        n.save_state(&mut w);
        w.into_bytes()
    }

    fn white_with_state(sigma: f64, state: u64) -> WhiteNoise {
        let mut n = WhiteNoise::new(sigma, 0);
        n.rng.state = state;
        n
    }

    /// The state one xorshift advance came from (each xor-shift step is
    /// undone by xoring in every multiple of its shift).
    fn xorshift_prev(x: u64) -> u64 {
        fn unshift(y: u64, k: u32, left: bool) -> u64 {
            let mut x = y;
            let mut s = k;
            while s < 64 {
                x ^= if left { y << s } else { y >> s };
                s += k;
            }
            x
        }
        unshift(unshift(unshift(x, 27, false), 25, true), 12, false)
    }

    /// A PRNG state whose stream draws `u1 == 0` for Box–Muller pair
    /// `pair`, forcing the rejection redraw there.
    fn state_rejecting_at(pair: usize) -> u64 {
        const MUL: u64 = 0x2545_f491_4f6c_dd1d;
        let mut inv = MUL;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(MUL.wrapping_mul(inv)));
        }
        // The state after the zero draw: its output word is below 2^11.
        let mut state = 0x5a5u64.wrapping_mul(inv);
        for _ in 0..=2 * pair {
            state = xorshift_prev(state);
        }
        let mut probe = Rng64 { state };
        for _ in 0..2 * pair {
            probe.next_u64();
        }
        assert_eq!(probe.next_f64(), 0.0, "crafted state must draw a zero");
        state
    }

    #[test]
    fn block_path_matches_per_draw_reference_at_every_offset() {
        let streams = [
            (1.0, Rng64::new(7).state),
            (0.37, state_rejecting_at(BLOCK_PAIRS + 5)),
        ];
        for (sigma, start) in streams {
            for offset in 0..=4 * BLOCK_PAIRS {
                let mut block = white_with_state(sigma, start);
                let mut reference = PerDrawWhite::new(sigma, start);
                for k in 0..offset {
                    assert_eq!(
                        block.sample().to_bits(),
                        reference.sample().to_bits(),
                        "sigma {sigma} offset {offset} draw {k}"
                    );
                }
                let bytes = saved(&block);
                assert_eq!(bytes, reference.saved(), "saved bytes at offset {offset}");
                // The target holds a live block of its own that the load
                // must drop.
                let mut restored = WhiteNoise::new(2.0, 99);
                restored.sample();
                restored
                    .load_state(&mut StateReader::new(&bytes))
                    .expect("round trip");
                assert_eq!(saved(&restored), bytes, "re-saved at offset {offset}");
                for k in 0..BLOCK_LEN + 3 {
                    let want = reference.sample().to_bits();
                    assert_eq!(block.sample().to_bits(), want, "offset {offset} +{k}");
                    assert_eq!(restored.sample().to_bits(), want, "restored {offset} +{k}");
                }
                assert_eq!(saved(&block), reference.saved());
                assert_eq!(saved(&restored), reference.saved());
            }
        }
    }

    #[test]
    fn lanes_extract_from_mid_block_positions() {
        // Odd offsets stop mid-pair (a pending sine half), even ones on a
        // pair boundary; both inside the first and the second block.
        for offset in [5usize, 12, BLOCK_LEN + 7, BLOCK_LEN + 30] {
            let mut white: Vec<WhiteNoise> = (0..5)
                .map(|l| WhiteNoise::new(0.5 + l as f64 * 0.1, 300 + l as u64))
                .collect();
            let mut pink: Vec<PinkNoise> = (0..5)
                .map(|l| PinkNoise::new(0.3 + l as f64 * 0.05, 14, 400 + l as u64))
                .collect();
            for _ in 0..offset {
                for s in &mut white {
                    s.sample();
                }
                for s in &mut pink {
                    s.sample();
                }
            }
            let mut white_twin = white.clone();
            let mut pink_twin = pink.clone();
            let mut white_lanes = WhiteLanes::extract(white.iter()).expect("uniform phase");
            let mut pink_lanes = PinkLanes::extract(pink.iter()).expect("uniform phase");
            let mut out = vec![0.0; 5];
            for tick in 0..BLOCK_LEN + 9 {
                white_lanes.sample(&mut out);
                for (l, s) in white_twin.iter_mut().enumerate() {
                    assert_eq!(
                        out[l].to_bits(),
                        s.sample().to_bits(),
                        "white {offset} {tick}"
                    );
                }
                pink_lanes.sample(&mut out);
                for (l, s) in pink_twin.iter_mut().enumerate() {
                    assert_eq!(
                        out[l].to_bits(),
                        s.sample().to_bits(),
                        "pink {offset} {tick}"
                    );
                }
            }
            // Restoring drops the sources' stale blocks and continues the
            // lanes' streams.
            white_lanes.restore(white.iter_mut());
            pink_lanes.restore(pink.iter_mut());
            for (a, b) in white.iter_mut().zip(&mut white_twin) {
                assert_eq!(saved(a), saved(b));
                for _ in 0..BLOCK_LEN + 3 {
                    assert_eq!(a.sample().to_bits(), b.sample().to_bits());
                }
            }
            for (a, b) in pink.iter_mut().zip(&mut pink_twin) {
                for _ in 0..BLOCK_LEN + 3 {
                    assert_eq!(a.sample().to_bits(), b.sample().to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn pink_noise_rejects_nan_sigma() {
        let _ = PinkNoise::new(f64::NAN, 14, 1);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn pink_noise_rejects_negative_sigma() {
        let _ = PinkNoise::new(-2.0, 14, 1);
    }

    /// A saved white source with the given sigma and cached half and a
    /// healthy PRNG.
    fn white_bytes(sigma: f64, cached: Option<f64>) -> StateWriter {
        let mut w = StateWriter::new();
        w.put_f64(sigma);
        w.put_u64(Rng64::new(1).state);
        w.put_opt_f64(cached);
        w
    }

    fn is_corrupt(result: Result<(), SnapshotError>) -> bool {
        matches!(result, Err(SnapshotError::Corrupt { .. }))
    }

    #[test]
    fn white_noise_decoder_rejects_bad_state() {
        for sigma in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let bytes = white_bytes(sigma, None).into_bytes();
            let result = WhiteNoise::new(1.0, 0).load_state(&mut StateReader::new(&bytes));
            assert!(is_corrupt(result), "sigma {sigma} loaded");
        }
        for z in [f64::NAN, f64::INFINITY] {
            let bytes = white_bytes(1.0, Some(z)).into_bytes();
            let result = WhiteNoise::new(1.0, 0).load_state(&mut StateReader::new(&bytes));
            assert!(is_corrupt(result), "cached half {z} loaded");
        }
        for (sigma, cached) in [(0.0, None), (1.0, Some(-0.7))] {
            let bytes = white_bytes(sigma, cached).into_bytes();
            let mut n = WhiteNoise::new(1.0, 0);
            n.load_state(&mut StateReader::new(&bytes))
                .expect("valid state");
        }
    }

    #[test]
    fn pink_noise_decoder_rejects_bad_state() {
        let pink = |row: f64, scale: f64| {
            let mut w = white_bytes(1.0, None);
            w.put_f64_slice(&[0.1, row, -0.2]);
            w.put_u64(3);
            w.put_f64(scale);
            w.into_bytes()
        };
        for scale in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            let bytes = pink(0.0, scale);
            let result = PinkNoise::new(1.0, 14, 0).load_state(&mut StateReader::new(&bytes));
            assert!(is_corrupt(result), "scale {scale} loaded");
        }
        for row in [f64::NAN, f64::NEG_INFINITY] {
            let bytes = pink(row, 0.25);
            let result = PinkNoise::new(1.0, 14, 0).load_state(&mut StateReader::new(&bytes));
            assert!(is_corrupt(result), "row {row} loaded");
        }
        let mut p = PinkNoise::new(1.0, 14, 0);
        p.load_state(&mut StateReader::new(&pink(0.0, 0.25)))
            .expect("valid state");
    }

    #[test]
    fn random_walk_decoder_rejects_bad_limit_or_state() {
        let walk = |state: f64, limit: f64| {
            let mut w = white_bytes(0.1, None);
            w.put_f64(state);
            w.put_f64(limit);
            w.into_bytes()
        };
        let bad = [
            (0.0, -1.0),
            (0.0, 0.0),
            (0.0, f64::NAN),
            (0.0, f64::NEG_INFINITY),
            (1.5, 1.0),
            (-1.5, 1.0),
            (f64::NAN, 1.0),
            (f64::INFINITY, f64::INFINITY),
        ];
        for (state, limit) in bad {
            let bytes = walk(state, limit);
            let result = RandomWalk::new(0.1, 1.0, 0).load_state(&mut StateReader::new(&bytes));
            assert!(is_corrupt(result), "state {state} limit {limit} loaded");
        }
        // `new` accepts an infinite limit, so the decoder does too.
        for (state, limit) in [(0.5, 1.0), (-1.0, 1.0), (3.0, f64::INFINITY)] {
            let mut w = RandomWalk::new(0.1, 1.0, 0);
            w.load_state(&mut StateReader::new(&walk(state, limit)))
                .expect("valid walk");
        }
    }

    #[test]
    fn random_walk_stays_within_limit_under_large_increments() {
        // Increments ~10x the limit would reflect past the opposite bound.
        let mut w = RandomWalk::new(10.0, 1.0, 17);
        for _ in 0..1000 {
            let v = w.sample();
            assert!(v.abs() <= 1.0, "walk escaped limit: {v}");
        }
        let mut bytes = StateWriter::new();
        w.save_state(&mut bytes);
        let mut restored = RandomWalk::new(0.1, 5.0, 0);
        restored
            .load_state(&mut StateReader::new(bytes.bytes()))
            .expect("a walked state loads");
        for _ in 0..100 {
            assert_eq!(w.sample().to_bits(), restored.sample().to_bits());
        }
    }
}
