//! Vibrating-ring MEMS gyroscope model.
//!
//! The paper's case study conditions a vibrating ring gyro (refs \[7\], \[8\]:
//! the polysilicon ring of Ayazi & Najafi and the DAVED© sensor): drive
//! electrodes keep the ring vibrating in the primary elliptical mode at
//! ~15 kHz; rotation about the sensitive axis transfers energy through the
//! Coriolis force into the secondary mode at 45°, whose amplitude is
//! proportional to the angular rate. Control electrodes can null the
//! secondary motion (closed-loop / force-rebalance operation).
//!
//! The model is the standard two-mode lumped equivalent:
//!
//! ```text
//! ẍ_d + (ω_d/Q_d) ẋ_d + ω_d² x_d = F_drive + n_d(t)
//! ẍ_s + (ω_s/Q_s) ẋ_s + ω_s² x_s = F_rebalance − 2 k_ang Ω ẋ_d
//!                                   + k_quad x_d + n_s(t)
//! ```
//!
//! with temperature-dependent ω and Q, Brownian force noise, and a
//! quadrature stiffness-coupling term `k_quad x_d` (the dominant error of
//! real ring gyros, in phase with displacement and therefore 90° away from
//! the Coriolis term, which is in phase with velocity).

use crate::resonator::{Resonator, ResonatorLanes};
use ascp_sim::noise::{WhiteLanes, WhiteNoise};
use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};
use ascp_sim::units::{Celsius, DegPerSec, Hertz};

/// Physical and error parameters of the ring gyro.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GyroParams {
    /// Drive-mode resonance at 25 °C (Hz). Paper: ≈15 kHz.
    pub f0: Hertz,
    /// Drive-mode quality factor at 25 °C. Sets the envelope time constant
    /// `2Q/ω` and hence the dominant part of turn-on time.
    pub q_drive: f64,
    /// Sense-mode quality factor at 25 °C.
    pub q_sense: f64,
    /// Sense-mode resonance offset above the drive mode (Hz). A deliberate
    /// mode split keeps the open-loop sense response bounded and flat.
    pub mode_split: Hertz,
    /// Angular gain (Coriolis coupling factor); ≈0.37 for a ring.
    pub angular_gain: f64,
    /// Drive-force scaling: commanded force 1.0 equals this acceleration
    /// (normalized units/s²).
    pub force_scale: f64,
    /// Quadrature error expressed as an equivalent rate at 25 °C (°/s).
    pub quadrature_rate: DegPerSec,
    /// Quadrature drift with temperature (°/s per °C).
    pub quadrature_tc: f64,
    /// Mechanical (Brownian) noise floor as an equivalent rate density at
    /// the nominal drive amplitude (°/s/√Hz).
    pub noise_density: f64,
    /// Relative resonance drift per °C (e.g. −30 ppm/°C for polysilicon).
    pub tc_f0: f64,
    /// Relative Q change per °C.
    pub tc_q: f64,
    /// Nominal drive displacement amplitude the AGC regulates to
    /// (normalized units; used to convert the noise density into a force).
    pub nominal_amplitude: f64,
    /// Cubic compression of the *sense* capacitive pickoff
    /// (`x_out = x (1 − c·x²)`, c in 1/units²): the gap nonlinearity that
    /// motivates closed-loop operation — force rebalance keeps the sense
    /// displacement near zero and never sees it.
    pub sense_pickoff_nl: f64,
    /// Noise seed (deterministic runs).
    pub seed: u64,
}

impl Default for GyroParams {
    /// Parameters sized to the paper's case study: 15 kHz ring,
    /// vacuum-packaged Q ≈ 20 000 (envelope τ = 2Q/ω ≈ 0.42 s, so the
    /// amplitude settles on the paper's 500 ms turn-on scale), 200 Hz mode
    /// split, 0.05 °/s/√Hz mechanical floor.
    fn default() -> Self {
        Self {
            f0: Hertz(15_000.0),
            q_drive: 20_000.0,
            q_sense: 2_000.0,
            mode_split: Hertz(200.0),
            angular_gain: 0.37,
            // Sized so a 0.1 drive command at Q = 20 000 settles at the
            // nominal 0.5 displacement amplitude: F = X·ω²/Q / 0.1.
            force_scale: 2.2e6,
            quadrature_rate: DegPerSec(80.0),
            quadrature_tc: 0.15,
            noise_density: 0.05,
            tc_f0: -30.0e-6,
            tc_q: -1.0e-3,
            nominal_amplitude: 0.5,
            sense_pickoff_nl: 3.0e3,
            seed: 0x5eed_6b70,
        }
    }
}

impl GyroParams {
    /// Validates physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.f0.0 > 0.0) {
            return Err("f0 must be positive".into());
        }
        if !(self.q_drive > 1.0 && self.q_sense > 1.0) {
            return Err("quality factors must exceed 1".into());
        }
        if !(self.angular_gain > 0.0 && self.angular_gain <= 1.0) {
            return Err(format!("angular gain {} outside (0, 1]", self.angular_gain));
        }
        if self.noise_density < 0.0 {
            return Err("noise density must be non-negative".into());
        }
        if !(self.nominal_amplitude > 0.0) {
            return Err("nominal amplitude must be positive".into());
        }
        Ok(())
    }
}

/// Pickoff outputs of one integration step (normalized displacement units,
/// converted to volts by the AFE's charge amplifiers).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GyroPickoffs {
    /// Primary (drive) mode displacement.
    pub primary: f64,
    /// Secondary (sense) mode displacement.
    pub secondary: f64,
}

/// The ring gyro simulation.
#[derive(Debug, Clone)]
pub struct RingGyro {
    params: GyroParams,
    drive_mode: Resonator,
    sense_mode: Resonator,
    temperature: Celsius,
    rate: DegPerSec,
    drive_noise: WhiteNoise,
    sense_noise: WhiteNoise,
    /// Sense-force noise sigma per √Hz (derived from `noise_density`).
    sense_noise_density: f64,
    /// Quadrature stiffness coupling (derived, updated with temperature).
    k_quad: f64,
    /// Step size the cached sigmas below were built for (0 = stale; set
    /// stale by temperature changes and rebuilt on the next step).
    sigma_dt: f64,
    /// Cached per-step sense-force noise sigma `density·√(0.5/dt)`.
    sigma_s: f64,
    /// Cached drive-force noise sigma (1 % of the sense sigma).
    sigma_d: f64,
}

impl RingGyro {
    /// Builds a gyro at 25 °C, zero rate, at rest.
    ///
    /// # Panics
    ///
    /// Panics if `params.validate()` fails.
    #[must_use]
    pub fn new(params: GyroParams) -> Self {
        if let Err(e) = params.validate() {
            panic!("invalid gyro parameters: {e}");
        }
        let w0 = params.f0.angular();
        // Equivalent-rate density → force density at the nominal velocity
        // amplitude v = ω·X_nom:  F_n = 2·k_ang·Ω_n·v.
        let omega_n = params.noise_density.to_radians(); // (rad/s)/√Hz
        let sense_noise_density =
            2.0 * params.angular_gain * omega_n * w0 * params.nominal_amplitude;
        let mut gyro = Self {
            drive_mode: Resonator::new(params.f0.0, params.q_drive),
            sense_mode: Resonator::new(params.f0.0 + params.mode_split.0, params.q_sense),
            temperature: Celsius(25.0),
            rate: DegPerSec(0.0),
            drive_noise: WhiteNoise::new(1.0, params.seed ^ 0xd1),
            sense_noise: WhiteNoise::new(1.0, params.seed ^ 0x5e),
            sense_noise_density,
            k_quad: 0.0,
            sigma_dt: 0.0,
            sigma_s: 0.0,
            sigma_d: 0.0,
            params,
        };
        gyro.apply_temperature();
        gyro
    }

    /// Model parameters.
    #[must_use]
    pub fn params(&self) -> &GyroParams {
        &self.params
    }

    /// Applied angular rate.
    #[must_use]
    pub fn rate(&self) -> DegPerSec {
        self.rate
    }

    /// Sets the applied yaw rate (the quantity under measurement).
    pub fn set_rate(&mut self, rate: DegPerSec) {
        self.rate = rate;
    }

    /// Die temperature.
    #[must_use]
    pub fn temperature(&self) -> Celsius {
        self.temperature
    }

    /// Sets the ambient/die temperature, retuning both modes and the
    /// quadrature coupling.
    pub fn set_temperature(&mut self, t: Celsius) {
        self.temperature = t;
        self.apply_temperature();
    }

    fn apply_temperature(&mut self) {
        let dt = self.temperature.0 - 25.0;
        let p = &self.params;
        let f_scale = 1.0 + p.tc_f0 * dt;
        let q_scale = (1.0 + p.tc_q * dt).max(0.05);
        self.drive_mode
            .retune(p.f0.0 * f_scale, p.q_drive * q_scale);
        self.sense_mode
            .retune((p.f0.0 + p.mode_split.0) * f_scale, p.q_sense * q_scale);
        // Quadrature: k_quad x_d ≡ 2 k_ang Ω_q ω x_d with Ω_q(T) linear.
        let quad_rate = (p.quadrature_rate.0 + p.quadrature_tc * dt).to_radians();
        let w = self.drive_mode.frequency() * 2.0 * std::f64::consts::PI;
        self.k_quad = 2.0 * p.angular_gain * quad_rate * w;
        // Invalidate the per-step noise sigmas alongside the couplings.
        self.sigma_dt = 0.0;
    }

    /// Current drive-mode resonance (what the PLL must track).
    #[must_use]
    pub fn resonance(&self) -> Hertz {
        Hertz(self.drive_mode.frequency())
    }

    /// Advances `dt` seconds.
    ///
    /// `drive_force` and `rebalance_force` are the commanded electrode
    /// forces in DAC units (±1.0 full scale); `dt` is the solver step.
    pub fn step(&mut self, drive_force: f64, rebalance_force: f64, dt: f64) -> GyroPickoffs {
        // White force noise with the configured density, realized per step:
        // sigma = density · √(fs/2). The sigma (and the 1 % drive-mode
        // term, ~40 dB below the regulated drive signal) depends only on
        // `dt`, so it is cached and refreshed when `dt` or the temperature
        // tuning changes — not recomputed per substep.
        if dt != self.sigma_dt {
            self.sigma_s = self.sense_noise_density * (0.5 / dt).sqrt();
            self.sigma_d = 0.01 * self.sigma_s;
            self.sigma_dt = dt;
        }
        let p = &self.params;
        let n_d = self.sigma_d * self.drive_noise.sample();
        let n_s = self.sigma_s * self.sense_noise.sample();

        // The coupling forces ride on the drive motion at the carrier
        // frequency; evaluating them from the *trapezoid* of the drive
        // state across the step (both endpoints are exact under the ZOH
        // propagator) centers their phase mid-step, so one step per DSP
        // tick carries no systematic Coriolis/quadrature phase lag.
        let s0 = self.drive_mode.state();
        self.drive_mode.step(p.force_scale * drive_force + n_d, dt);
        let s1 = self.drive_mode.state();
        let omega_rad = self.rate.to_rad_per_sec();
        let coriolis = -2.0 * p.angular_gain * omega_rad * 0.5 * (s0.v + s1.v);
        let quadrature = self.k_quad * 0.5 * (s0.x + s1.x);

        self.sense_mode.step(
            p.force_scale * rebalance_force + coriolis + quadrature + n_s,
            dt,
        );

        let xs = self.sense_mode.state().x;
        GyroPickoffs {
            primary: self.drive_mode.state().x,
            // Capacitive gap compression on the sense electrode.
            secondary: xs * (1.0 - p.sense_pickoff_nl * xs * xs),
        }
    }

    /// Returns the mechanical scale factor: open-loop secondary
    /// displacement amplitude per °/s at the nominal drive amplitude
    /// (small-signal, analytic).
    #[must_use]
    pub fn open_loop_scale(&self) -> f64 {
        let p = &self.params;
        let w_d = self.drive_mode.frequency() * 2.0 * std::f64::consts::PI;
        let w_s = self.sense_mode.frequency() * 2.0 * std::f64::consts::PI;
        let v_amp = w_d * p.nominal_amplitude;
        let f_per_dps = 2.0 * p.angular_gain * 1f64.to_radians() * v_amp;
        // |H(jw_d)| of the sense mode.
        let r = w_d / w_s;
        let denom = ((1.0 - r * r).powi(2) + (r / p.q_sense).powi(2)).sqrt();
        f_per_dps / (w_s * w_s * denom)
    }

    /// Resets motion to rest (temperature and rate preserved).
    pub fn reset(&mut self) {
        self.drive_mode.reset();
        self.sense_mode.reset();
    }

    /// Serializes the mechanical state: the applied stimulus (temperature,
    /// rate), both modes' motion and the Brownian-noise generators. The
    /// modes' tuning and the quadrature coupling are derived from the
    /// temperature, and the per-`dt` noise sigmas are caches; none is
    /// saved.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_f64(self.temperature.0);
        w.put_f64(self.rate.0);
        self.drive_mode.save_state(w);
        self.sense_mode.save_state(w);
        self.drive_noise.save_state(w);
        self.sense_noise.save_state(w);
    }

    /// Restores state saved by [`RingGyro::save_state`] onto a gyro built
    /// from the same parameters, then derives the modes' tuning and the
    /// quadrature coupling from the restored temperature (the per-step
    /// noise sigmas go stale and are rebuilt on the next step).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Corrupt`] for a temperature that is not
    /// finite, below absolute zero, or past the point where the drive
    /// resonance reaches zero; propagates other [`SnapshotError`]s on
    /// malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        let t = r.take_f64()?;
        let f_scale = 1.0 + self.params.tc_f0 * (t - 25.0);
        if !(t.is_finite() && t >= -273.15 && f_scale > 0.0) {
            return Err(SnapshotError::Corrupt {
                context: format!("gyro temperature {t:?} °C has no physical tuning"),
            });
        }
        self.temperature = Celsius(t);
        self.rate = DegPerSec(r.take_f64()?);
        self.drive_mode.load_state(r)?;
        self.sense_mode.load_state(r)?;
        self.drive_noise.load_state(r)?;
        self.sense_noise.load_state(r)?;
        self.apply_temperature();
        Ok(())
    }
}

/// Lane-parallel ring-gyro kernel: N gyros advancing in lockstep with
/// structure-of-arrays mode state and batched Brownian noise.
///
/// Per-lane parameters (resonance, Q, quadrature, rate, temperature-derived
/// couplings) may differ — Monte-Carlo dispersion lives here — but every
/// lane executes the *same expressions* as [`RingGyro::step`] in the same
/// order, so each lane's trajectory is bit-identical to stepping that gyro
/// alone. Extraction fails (returns `None`) only if the noise generators
/// are out of lockstep phase, which cannot happen for gyros stepped the
/// same number of times.
#[derive(Debug, Clone)]
pub struct GyroLanes {
    dt: f64,
    drive: ResonatorLanes,
    sense: ResonatorLanes,
    /// Fused `[drive | sense]` Brownian sources, 2N lanes: one batched
    /// draw per substep instead of two (lanes are independent, so fusing
    /// populations cannot change any lane's stream).
    noise: WhiteLanes,
    angular_gain: Vec<f64>,
    force_scale: Vec<f64>,
    k_quad: Vec<f64>,
    pickoff_nl: Vec<f64>,
    /// Applied rate in rad/s (the scalar step converts per call; pure).
    rate_rad: Vec<f64>,
    sigma_s: Vec<f64>,
    sigma_d: Vec<f64>,
    // Scratch buffers (allocated once, reused every substep).
    s0x: Vec<f64>,
    s0v: Vec<f64>,
    /// `[drive | sense]` noise draws, 2N wide.
    n_ds: Vec<f64>,
    force_d: Vec<f64>,
    force_s: Vec<f64>,
}

impl GyroLanes {
    /// Captures N gyros for lockstep stepping at solver step `dt`.
    ///
    /// Returns `None` if the Brownian-noise generators are not phase-uniform
    /// (see [`WhiteLanes::extract`]).
    pub fn extract<'a>(gyros: impl Iterator<Item = &'a RingGyro>, dt: f64) -> Option<Self> {
        let gs: Vec<&RingGyro> = gyros.collect();
        let noise = WhiteLanes::extract(
            gs.iter()
                .map(|g| &g.drive_noise)
                .chain(gs.iter().map(|g| &g.sense_noise)),
        )?;
        let n = gs.len();
        let mut lanes = Self {
            dt,
            drive: ResonatorLanes::extract(gs.iter().map(|g| &g.drive_mode), dt),
            sense: ResonatorLanes::extract(gs.iter().map(|g| &g.sense_mode), dt),
            noise,
            angular_gain: Vec::with_capacity(n),
            force_scale: Vec::with_capacity(n),
            k_quad: Vec::with_capacity(n),
            pickoff_nl: Vec::with_capacity(n),
            rate_rad: Vec::with_capacity(n),
            sigma_s: Vec::with_capacity(n),
            sigma_d: Vec::with_capacity(n),
            s0x: vec![0.0; n],
            s0v: vec![0.0; n],
            n_ds: vec![0.0; 2 * n],
            force_d: vec![0.0; n],
            force_s: vec![0.0; n],
        };
        for g in &gs {
            lanes.angular_gain.push(g.params.angular_gain);
            lanes.force_scale.push(g.params.force_scale);
            lanes.k_quad.push(g.k_quad);
            lanes.pickoff_nl.push(g.params.sense_pickoff_nl);
            lanes.rate_rad.push(g.rate.to_rad_per_sec());
            // Same expressions the scalar step caches per dt.
            let sigma_s = g.sense_noise_density * (0.5 / dt).sqrt();
            lanes.sigma_s.push(sigma_s);
            lanes.sigma_d.push(0.01 * sigma_s);
        }
        Some(lanes)
    }

    /// Writes lane state back into the gyros; the per-`dt` sigma caches are
    /// marked stale and rebuilt (identically) on the next scalar step.
    pub fn restore<'a>(&self, gyros: impl Iterator<Item = &'a mut RingGyro>) {
        let mut gs: Vec<&mut RingGyro> = gyros.collect();
        self.drive.restore(gs.iter_mut().map(|g| &mut g.drive_mode));
        self.sense.restore(gs.iter_mut().map(|g| &mut g.sense_mode));
        {
            let mut drive: Vec<&mut WhiteNoise> = Vec::with_capacity(gs.len());
            let mut sense: Vec<&mut WhiteNoise> = Vec::with_capacity(gs.len());
            for g in gs.iter_mut() {
                drive.push(&mut g.drive_noise);
                sense.push(&mut g.sense_noise);
            }
            self.noise.restore(drive.into_iter().chain(sense));
        }
        for g in gs {
            g.sigma_dt = 0.0;
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.angular_gain.len()
    }

    /// The solver step the lanes were extracted for.
    #[must_use]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Advances every lane one solver step; pickoffs land in
    /// `primary[l]` / `secondary[l]`.
    #[inline]
    pub fn step(
        &mut self,
        drive_force: &[f64],
        rebalance_force: &[f64],
        primary: &mut [f64],
        secondary: &mut [f64],
    ) {
        let n = self.angular_gain.len();
        self.noise.sample(&mut self.n_ds);
        self.s0x.copy_from_slice(self.drive.x());
        self.s0v.copy_from_slice(self.drive.v());
        for (l, &f) in drive_force.iter().enumerate().take(n) {
            self.force_d[l] = self.force_scale[l] * f + self.sigma_d[l] * self.n_ds[l];
        }
        self.drive.step(&self.force_d);
        let s1x = self.drive.x();
        let s1v = self.drive.v();
        for l in 0..n {
            let coriolis =
                -2.0 * self.angular_gain[l] * self.rate_rad[l] * 0.5 * (self.s0v[l] + s1v[l]);
            let quadrature = self.k_quad[l] * 0.5 * (self.s0x[l] + s1x[l]);
            self.force_s[l] = self.force_scale[l] * rebalance_force[l]
                + coriolis
                + quadrature
                + self.sigma_s[l] * self.n_ds[n + l];
        }
        self.sense.step(&self.force_s);
        primary[..n].copy_from_slice(self.drive.x());
        let xs_all = self.sense.x();
        for l in 0..n {
            let xs = xs_all[l];
            secondary[l] = xs * (1.0 - self.pickoff_nl[l] * xs * xs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DT: f64 = 1.0 / 1.0e6;

    /// Drives the gyro open loop at its resonance with a fixed force and
    /// returns the steady primary/secondary amplitudes.
    fn run_open_loop(rate: f64, seconds: f64, noise: bool) -> (f64, f64, RingGyro) {
        let mut p = GyroParams::default();
        // Tests use a lower Q so the envelope settles within a short run
        // (τ = 2Q/ω; Q = 2000 → τ ≈ 42 ms).
        p.q_drive = 2_000.0;
        if !noise {
            p.noise_density = 0.0;
        }
        let mut g = RingGyro::new(p);
        g.set_rate(DegPerSec(rate));
        let w = g.resonance().angular();
        let steps = (seconds / DT) as usize;
        let mut p_peak = 0.0f64;
        let mut s_peak = 0.0f64;
        for k in 0..steps {
            // Drive with the in-velocity phase (cos) like a locked PLL+AGC.
            let force = 0.4 * (w * k as f64 * DT).cos();
            let out = g.step(force, 0.0, DT);
            if k > steps * 9 / 10 {
                p_peak = p_peak.max(out.primary.abs());
                s_peak = s_peak.max(out.secondary.abs());
            }
        }
        (p_peak, s_peak, g)
    }

    #[test]
    fn drive_amplitude_reaches_resonant_gain() {
        let (p_peak, _, g) = run_open_loop(0.0, 1.0, false);
        let expect =
            g.params().q_drive * g.params().force_scale * 0.4 / g.resonance().angular().powi(2);
        assert!(
            (p_peak - expect).abs() / expect < 0.05,
            "primary {p_peak} vs {expect}"
        );
    }

    #[test]
    fn secondary_scales_with_rate() {
        let (_, s100, _) = run_open_loop(100.0, 1.0, false);
        let (_, s300, _) = run_open_loop(300.0, 1.0, false);
        // Quadrature is a constant background; the rate part should triple.
        // Use the difference against zero rate to isolate it.
        let (_, s0, _) = run_open_loop(0.0, 1.0, false);
        assert!(s100 > s0, "no rate response");
        let d100 = (s100 * s100 - s0 * s0).max(0.0).sqrt();
        let d300 = (s300 * s300 - s0 * s0).max(0.0).sqrt();
        assert!(
            (d300 / d100 - 3.0).abs() < 0.35,
            "rate scaling {d100} vs {d300}"
        );
    }

    #[test]
    fn rate_sign_flips_coriolis_phase() {
        // Run with +rate and −rate; secondary amplitudes match.
        let (_, sp, _) = run_open_loop(200.0, 0.8, false);
        let (_, sn, _) = run_open_loop(-200.0, 0.8, false);
        assert!((sp - sn).abs() / sp < 0.1, "asymmetry {sp} vs {sn}");
    }

    #[test]
    fn temperature_shifts_resonance() {
        let mut g = RingGyro::new(GyroParams::default());
        let f25 = g.resonance().0;
        g.set_temperature(Celsius(125.0));
        let f125 = g.resonance().0;
        let expect = f25 * (1.0 - 30.0e-6 * 100.0);
        assert!((f125 - expect).abs() < 0.01, "f125 {f125} vs {expect}");
        g.set_temperature(Celsius(-40.0));
        assert!(g.resonance().0 > f25, "cold resonance should rise");
    }

    #[test]
    fn open_loop_scale_is_positive_and_sane() {
        let g = RingGyro::new(GyroParams::default());
        let s = g.open_loop_scale();
        // At 300 °/s the secondary stays within ±1 normalized unit.
        assert!(s > 0.0);
        assert!(s * 300.0 < 1.0, "sense overloads at FS: {}", s * 300.0);
    }

    #[test]
    fn noise_creates_secondary_motion() {
        let (_, s_quiet, _) = run_open_loop(0.0, 0.3, false);
        let mut p = GyroParams::default();
        p.noise_density = 0.5; // exaggerated for a fast test
        let mut g = RingGyro::new(p);
        let w = g.resonance().angular();
        let mut s_noisy = 0.0f64;
        let steps = (0.3 / DT) as usize;
        for k in 0..steps {
            let force = 0.4 * (w * k as f64 * DT).cos();
            let out = g.step(force, 0.0, DT);
            if k > steps * 9 / 10 {
                s_noisy = s_noisy.max(out.secondary.abs());
            }
        }
        assert!(
            s_noisy > s_quiet,
            "noise had no effect: {s_noisy} vs {s_quiet}"
        );
    }

    #[test]
    fn reset_stops_motion() {
        let mut g = RingGyro::new(GyroParams::default());
        let w = g.resonance().angular();
        for k in 0..10_000 {
            g.step(0.4 * (w * k as f64 * DT).cos(), 0.0, DT);
        }
        g.reset();
        let out = g.step(0.0, 0.0, DT);
        assert!(out.primary.abs() < 1e-9 && out.secondary.abs() < 1e-6);
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let mut g = RingGyro::new(GyroParams::default());
            g.set_rate(DegPerSec(50.0));
            let mut last = GyroPickoffs::default();
            for k in 0..5000 {
                last = g.step(0.3 * (k as f64 * 0.09).cos(), 0.0, DT);
            }
            last
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn gyro_lanes_match_scalar_bit_for_bit() {
        // Dispersed lanes (different f0/Q/quadrature/rate/temperature per
        // lane) stepped SoA must reproduce the scalar trajectories exactly,
        // noise included.
        for n in [1usize, 3, 8] {
            let mut scalars: Vec<RingGyro> = (0..n)
                .map(|i| {
                    let mut p = GyroParams::default();
                    p.q_drive = 2_000.0 * (1.0 + 0.05 * i as f64);
                    p.f0 = Hertz(p.f0.0 * (1.0 + 0.001 * i as f64));
                    p.quadrature_rate = DegPerSec(80.0 + 3.0 * i as f64);
                    p.seed = 0x5eed_6b70 ^ (i as u64) << 8;
                    let mut g = RingGyro::new(p);
                    g.set_rate(DegPerSec(10.0 * i as f64));
                    g.set_temperature(Celsius(25.0 + 5.0 * i as f64));
                    g
                })
                .collect();
            let mut reference = scalars.clone();
            let mut lanes = GyroLanes::extract(scalars.iter(), DT).expect("uniform phase");
            assert_eq!(lanes.lanes(), n);

            let mut drive = vec![0.0; n];
            let mut rebal = vec![0.0; n];
            let mut primary = vec![0.0; n];
            let mut secondary = vec![0.0; n];
            for k in 0..4000u64 {
                for l in 0..n {
                    drive[l] = 0.4 * (0.09 * (k as f64 + l as f64)).cos();
                    rebal[l] = 0.01 * (0.04 * k as f64).sin();
                }
                lanes.step(&drive, &rebal, &mut primary, &mut secondary);
                for (l, g) in reference.iter_mut().enumerate() {
                    let out = g.step(drive[l], rebal[l], DT);
                    assert_eq!(
                        out.primary.to_bits(),
                        primary[l].to_bits(),
                        "primary lane {l} tick {k}"
                    );
                    assert_eq!(
                        out.secondary.to_bits(),
                        secondary[l].to_bits(),
                        "secondary lane {l} tick {k}"
                    );
                }
            }
            // Write-back: the restored gyros must continue exactly like the
            // scalar references.
            lanes.restore(scalars.iter_mut());
            for (a, b) in scalars.iter_mut().zip(reference.iter_mut()) {
                for k in 0..100u64 {
                    let f = 0.3 * (0.07 * k as f64).cos();
                    assert_eq!(a.step(f, 0.0, DT), b.step(f, 0.0, DT));
                }
            }
        }
    }

    #[test]
    fn validation_rejects_bad_params() {
        let mut p = GyroParams::default();
        p.angular_gain = 1.5;
        assert!(p.validate().is_err());
        p = GyroParams::default();
        p.q_drive = 0.5;
        assert!(p.validate().is_err());
        p = GyroParams::default();
        p.noise_density = -1.0;
        assert!(p.validate().is_err());
        assert!(GyroParams::default().validate().is_ok());
    }
}
