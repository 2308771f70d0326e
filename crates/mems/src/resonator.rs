//! Second-order resonator advanced by an exact zero-order-hold propagator.
//!
//! Both vibration modes of the ring gyro are damped harmonic oscillators.
//! Because the mode ODE is *linear* and the electrode forces are held
//! constant over a solver step (DAC hold), the step has a closed-form
//! solution: `s(t+dt) = s_eq + exp(A·dt)·(s(t) − s_eq)` with
//! `s_eq = [f/ω², 0]`. [`Resonator::step`] applies the precomputed
//! `exp(A·dt)` — four multiply-adds per step, exact to machine precision
//! for piecewise-constant forcing at *any* step size (the classic RK4
//! integrator is kept as [`Resonator::step_rk4`] for cross-checks). The
//! 2×2 matrix is cached per `dt` and invalidated by [`Resonator::retune`].

use ascp_sim::snapshot::{SnapshotError, StateReader, StateWriter};

/// State of a 1-DOF resonator: displacement and velocity.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ModeState {
    /// Displacement (normalized units).
    pub x: f64,
    /// Velocity (normalized units / s).
    pub v: f64,
}

/// Cached exact one-step propagator for a fixed `(ω, Q, dt)`.
///
/// For `ẍ + (ω/Q)ẋ + ω²x = f` with constant `f`, the state relaxes toward
/// the equilibrium `[f/ω², 0]` through `Φ = exp(A·dt)`; the entries of `Φ`
/// are closed-form in the damped frequency `ω_d = ω√(1 − ζ²)` (trig for
/// the underdamped branch, hyperbolic for the overdamped one, polynomial
/// at critical damping).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Propagator {
    /// The step size this propagator was built for.
    dt: f64,
    p00: f64,
    p01: f64,
    p10: f64,
    p11: f64,
    /// `1/ω²` (equilibrium displacement per unit force).
    inv_w2: f64,
}

impl Propagator {
    fn compute(omega: f64, q: f64, dt: f64) -> Self {
        let zeta = 1.0 / (2.0 * q);
        let alpha = zeta * omega;
        let e = (-alpha * dt).exp();
        let disc = 1.0 - zeta * zeta;
        // `c ≈ cos(ω_d dt)`, `s ≈ sin(ω_d dt)/ω_d` in all three damping
        // regimes (sinh/cosh when overdamped, the ω_d → 0 limit at
        // critical damping).
        let (c, s) = if disc > 1.0e-12 {
            let wd = omega * disc.sqrt();
            ((wd * dt).cos(), (wd * dt).sin() / wd)
        } else if disc < -1.0e-12 {
            let wd = omega * (-disc).sqrt();
            ((wd * dt).cosh(), (wd * dt).sinh() / wd)
        } else {
            (1.0, dt)
        };
        Self {
            dt,
            p00: e * (c + alpha * s),
            p01: e * s,
            p10: -e * omega * omega * s,
            p11: e * (c - alpha * s),
            inv_w2: 1.0 / (omega * omega),
        }
    }
}

/// Damped harmonic oscillator `ẍ + (ω/Q) ẋ + ω² x = f(t)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Resonator {
    omega: f64,
    q: f64,
    state: ModeState,
    /// Cached per-`dt` propagator; `None` after construction or retune.
    prop: Option<Propagator>,
}

impl Resonator {
    /// Creates a resonator with natural frequency `f0` (Hz) and quality
    /// factor `q`, at rest.
    ///
    /// # Panics
    ///
    /// Panics if `f0` or `q` is not positive.
    #[must_use]
    pub fn new(f0: f64, q: f64) -> Self {
        assert!(f0 > 0.0, "resonance frequency must be positive, got {f0}");
        assert!(q > 0.0, "quality factor must be positive, got {q}");
        Self {
            omega: 2.0 * std::f64::consts::PI * f0,
            q,
            state: ModeState::default(),
            prop: None,
        }
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> ModeState {
        self.state
    }

    /// Natural frequency in Hz.
    #[must_use]
    pub fn frequency(&self) -> f64 {
        self.omega / (2.0 * std::f64::consts::PI)
    }

    /// Quality factor.
    #[must_use]
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Retunes the resonator (temperature drift) without touching state.
    ///
    /// Invalidates the cached propagator: the next [`Resonator::step`]
    /// rebuilds `exp(A·dt)` from the new `(ω, Q)`.
    ///
    /// # Panics
    ///
    /// Panics if `f0` or `q` is not positive.
    pub fn retune(&mut self, f0: f64, q: f64) {
        assert!(f0 > 0.0 && q > 0.0, "retune needs positive f0 and q");
        self.omega = 2.0 * std::f64::consts::PI * f0;
        self.q = q;
        self.prop = None;
    }

    /// Resets to rest.
    pub fn reset(&mut self) {
        self.state = ModeState::default();
    }

    /// Advances by `dt` seconds under constant external acceleration
    /// `force` (per unit mass) using the exact ZOH propagator.
    ///
    /// The first call (and the first call after [`Resonator::retune`] or a
    /// `dt` change) pays one `exp`/`sin`/`cos` to build the propagator;
    /// every following call at the same `dt` is four multiply-adds.
    #[inline]
    pub fn step(&mut self, force: f64, dt: f64) {
        let p = match self.prop {
            Some(p) if p.dt == dt => p,
            _ => {
                let p = Propagator::compute(self.omega, self.q, dt);
                self.prop = Some(p);
                p
            }
        };
        let xeq = force * p.inv_w2;
        let dx = self.state.x - xeq;
        let v = self.state.v;
        self.state.x = xeq + p.p00 * dx + p.p01 * v;
        self.state.v = p.p10 * dx + p.p11 * v;
    }

    /// Advances by `dt` seconds with classic fixed-step RK4 (the original
    /// solver, kept as the independent cross-check for the exact
    /// propagator and for profiling comparisons).
    pub fn step_rk4(&mut self, force: f64, dt: f64) {
        let f = |s: ModeState| -> (f64, f64) {
            (
                s.v,
                force - (self.omega / self.q) * s.v - self.omega * self.omega * s.x,
            )
        };
        let s0 = self.state;
        let (k1x, k1v) = f(s0);
        let s1 = ModeState {
            x: s0.x + 0.5 * dt * k1x,
            v: s0.v + 0.5 * dt * k1v,
        };
        let (k2x, k2v) = f(s1);
        let s2 = ModeState {
            x: s0.x + 0.5 * dt * k2x,
            v: s0.v + 0.5 * dt * k2v,
        };
        let (k3x, k3v) = f(s2);
        let s3 = ModeState {
            x: s0.x + dt * k3x,
            v: s0.v + dt * k3v,
        };
        let (k4x, k4v) = f(s3);
        self.state.x = s0.x + dt / 6.0 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x);
        self.state.v = s0.v + dt / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v);
    }

    /// Steady-state displacement amplitude under a resonant sinusoidal
    /// force of amplitude `f_amp` (per unit mass): `Q·f/ω²`.
    #[must_use]
    pub fn resonant_gain(&self, f_amp: f64) -> f64 {
        self.q * f_amp / (self.omega * self.omega)
    }

    /// Envelope time constant `2Q/ω` (amplitude settles with this τ).
    #[must_use]
    pub fn envelope_tau(&self) -> f64 {
        2.0 * self.q / self.omega
    }

    /// Serializes the motion state. The tuning `(ω, Q)` is not saved: its
    /// owner derives it (the gyro from its temperature) and retunes after
    /// a load; the cached `exp(A·dt)` propagator is a pure function of
    /// `(ω, Q, dt)` and is rebuilt on the first step after a retune.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_f64(self.state.x);
        w.put_f64(self.state.v);
    }

    /// Restores state saved by [`Resonator::save_state`].
    ///
    /// # Errors
    ///
    /// Propagates [`SnapshotError`] on malformed input.
    pub fn load_state(&mut self, r: &mut StateReader<'_>) -> Result<(), SnapshotError> {
        self.state.x = r.take_f64()?;
        self.state.v = r.take_f64()?;
        Ok(())
    }
}

/// Lane-parallel ZOH propagator: N resonators stepping in lockstep over
/// structure-of-arrays state.
///
/// The hot-loop layout the fleet driver uses: contiguous `[x0..xN]` and
/// `[v0..vN]` arrays with per-lane cached `exp(A·dt)` coefficients, so the
/// four multiply-adds of [`Resonator::step`] auto-vectorize across lanes.
/// Each lane's arithmetic is the *same expression* as the scalar step —
/// Rust performs no FP reassociation or contraction, so per-lane results
/// are bit-identical to stepping each resonator scalar.
#[derive(Debug, Clone)]
pub struct ResonatorLanes {
    x: Vec<f64>,
    v: Vec<f64>,
    p00: Vec<f64>,
    p01: Vec<f64>,
    p10: Vec<f64>,
    p11: Vec<f64>,
    inv_w2: Vec<f64>,
}

impl ResonatorLanes {
    /// Captures N resonators for lockstep stepping at step size `dt`,
    /// computing each lane's propagator with the same closed form the
    /// scalar path caches.
    pub fn extract<'a>(res: impl Iterator<Item = &'a Resonator>, dt: f64) -> Self {
        let mut lanes = Self {
            x: Vec::new(),
            v: Vec::new(),
            p00: Vec::new(),
            p01: Vec::new(),
            p10: Vec::new(),
            p11: Vec::new(),
            inv_w2: Vec::new(),
        };
        for r in res {
            let p = match r.prop {
                Some(p) if p.dt == dt => p,
                _ => Propagator::compute(r.omega, r.q, dt),
            };
            lanes.x.push(r.state.x);
            lanes.v.push(r.state.v);
            lanes.p00.push(p.p00);
            lanes.p01.push(p.p01);
            lanes.p10.push(p.p10);
            lanes.p11.push(p.p11);
            lanes.inv_w2.push(p.inv_w2);
        }
        lanes
    }

    /// Writes the lane motion state back. The scalar propagator cache is
    /// invalidated; the next scalar step rebuilds the identical matrix.
    pub fn restore<'a>(&self, res: impl Iterator<Item = &'a mut Resonator>) {
        for (l, r) in res.enumerate() {
            r.state.x = self.x[l];
            r.state.v = self.v[l];
            r.prop = None;
        }
    }

    /// Number of lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.x.len()
    }

    /// Per-lane displacements.
    #[must_use]
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// Per-lane velocities.
    #[must_use]
    pub fn v(&self) -> &[f64] {
        &self.v
    }

    /// Advances every lane one step under its `force[l]` — the SoA twin of
    /// [`Resonator::step`].
    #[inline]
    pub fn step(&mut self, force: &[f64]) {
        let n = self.x.len();
        assert_eq!(force.len(), n, "lane count mismatch");
        for (l, &f) in force.iter().enumerate().take(n) {
            let xeq = f * self.inv_w2[l];
            let dx = self.x[l] - xeq;
            let v = self.v[l];
            self.x[l] = xeq + self.p00[l] * dx + self.p01[l] * v;
            self.v[l] = self.p10[l] * dx + self.p11[l] * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F0: f64 = 15_000.0;
    const DT: f64 = 1.0 / 1.0e6;

    #[test]
    fn free_decay_matches_q() {
        let q = 100.0;
        let mut r = Resonator::new(F0, q);
        // Kick it and let it ring down for n periods.
        r.state = ModeState { x: 1.0, v: 0.0 };
        let periods = 50.0;
        let steps = (periods / F0 / DT) as usize;
        let mut peak = 0.0f64;
        for k in 0..steps {
            r.step(0.0, DT);
            if k > steps - (1.0 / F0 / DT) as usize {
                peak = peak.max(r.state().x.abs());
            }
        }
        // Amplitude after n periods: exp(-π n / Q).
        let expect = (-std::f64::consts::PI * periods / q).exp();
        assert!(
            (peak - expect).abs() / expect < 0.05,
            "peak {peak} vs {expect}"
        );
    }

    #[test]
    fn resonant_drive_reaches_predicted_amplitude() {
        let q = 50.0;
        let mut r = Resonator::new(F0, q);
        let f_amp = 1.0e6;
        let w = 2.0 * std::f64::consts::PI * F0;
        // Run for ~8 envelope time constants.
        let steps = (8.0 * r.envelope_tau() / DT) as usize;
        let mut peak = 0.0f64;
        for k in 0..steps {
            let force = f_amp * (w * k as f64 * DT).cos();
            r.step(force, DT);
            if k > steps - (1.0 / F0 / DT) as usize {
                peak = peak.max(r.state().x.abs());
            }
        }
        let expect = r.resonant_gain(f_amp);
        assert!(
            (peak - expect).abs() / expect < 0.03,
            "amplitude {peak} vs {expect}"
        );
    }

    #[test]
    fn off_resonance_drive_is_attenuated() {
        let q = 500.0;
        let mut r = Resonator::new(F0, q);
        let f_amp = 1.0e6;
        // Drive 5 % off resonance: response should be far below Q·gain.
        let w = 2.0 * std::f64::consts::PI * F0 * 1.05;
        let steps = (8.0 * r.envelope_tau() / DT) as usize;
        let mut peak = 0.0f64;
        for k in 0..steps {
            let force = f_amp * (w * k as f64 * DT).cos();
            r.step(force, DT);
            if k > steps * 3 / 4 {
                peak = peak.max(r.state().x.abs());
            }
        }
        assert!(
            peak < 0.05 * r.resonant_gain(f_amp),
            "off-resonance response too large: {peak}"
        );
    }

    #[test]
    fn energy_conserved_without_damping_proxy() {
        // Very high Q: total energy decays by < 0.2 % over 10 periods.
        let mut r = Resonator::new(F0, 1.0e6);
        r.state = ModeState { x: 1.0, v: 0.0 };
        let w2 = (2.0 * std::f64::consts::PI * F0).powi(2);
        let e0 = w2 * 1.0;
        let steps = (10.0 / F0 / DT) as usize;
        for _ in 0..steps {
            r.step(0.0, DT);
        }
        let s = r.state();
        let e1 = w2 * s.x * s.x + s.v * s.v;
        assert!((e1 - e0).abs() / e0 < 2e-3, "energy drifted: {e0} -> {e1}");
    }

    #[test]
    fn retune_changes_frequency() {
        let mut r = Resonator::new(F0, 100.0);
        r.retune(F0 * 1.01, 120.0);
        assert!((r.frequency() - F0 * 1.01).abs() < 1e-9);
        assert_eq!(r.q(), 120.0);
    }

    #[test]
    fn reset_returns_to_rest() {
        let mut r = Resonator::new(F0, 10.0);
        r.step(1.0e3, DT);
        r.reset();
        assert_eq!(r.state(), ModeState::default());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_frequency() {
        let _ = Resonator::new(0.0, 10.0);
    }

    #[test]
    fn envelope_tau_formula() {
        let r = Resonator::new(F0, 5000.0);
        let expect = 2.0 * 5000.0 / (2.0 * std::f64::consts::PI * F0);
        assert!((r.envelope_tau() - expect).abs() < 1e-12);
    }

    // ----- exact-propagator validation ---------------------------------

    /// Analytic free decay from `x(0)=x0, v(0)=0` (underdamped).
    fn analytic_free_decay(omega: f64, q: f64, x0: f64, t: f64) -> f64 {
        let zeta = 1.0 / (2.0 * q);
        let alpha = zeta * omega;
        let wd = omega * (1.0 - zeta * zeta).sqrt();
        x0 * (-alpha * t).exp() * ((wd * t).cos() + alpha / wd * (wd * t).sin())
    }

    /// Analytic step response toward `x_ss = f/ω²` from rest.
    fn analytic_step_response(omega: f64, q: f64, f: f64, t: f64) -> f64 {
        let x_ss = f / (omega * omega);
        x_ss - analytic_free_decay(omega, q, x_ss, t)
    }

    #[test]
    fn propagator_free_decay_is_exact_at_large_dt() {
        // One solver step per *carrier period* — 16× coarser than the RK4
        // configuration ever ran — still matches the analytic envelope to
        // ~1e-12 because exp(A·dt) is exact for free decay.
        let q = 150.0;
        let mut r = Resonator::new(F0, q);
        r.state = ModeState { x: 1.0, v: 0.0 };
        let dt = 1.0 / F0 / 4.0; // quarter period
        let steps = 2000;
        for _ in 0..steps {
            r.step(0.0, dt);
        }
        let t = steps as f64 * dt;
        let omega = 2.0 * std::f64::consts::PI * F0;
        let expect = analytic_free_decay(omega, q, 1.0, t);
        assert!(
            (r.state().x - expect).abs() < 1e-9,
            "x {} vs analytic {expect}",
            r.state().x
        );
    }

    #[test]
    fn propagator_step_response_is_exact() {
        let q = 30.0;
        let f = 5.0e5;
        let mut r = Resonator::new(F0, q);
        let dt = 2.0e-6;
        let steps = 5000;
        for _ in 0..steps {
            r.step(f, dt);
        }
        let omega = 2.0 * std::f64::consts::PI * F0;
        let expect = analytic_step_response(omega, q, f, steps as f64 * dt);
        let scale = f / (omega * omega);
        assert!(
            (r.state().x - expect).abs() / scale < 1e-9,
            "x {} vs analytic {expect}",
            r.state().x
        );
    }

    #[test]
    fn propagator_beats_rk4_against_analytic_decay() {
        // At the platform's own step size the exact propagator must be at
        // least as close to the analytic solution as RK4 (it is exact; RK4
        // carries an O(dt⁵) per-step truncation error).
        let q = 80.0;
        let omega = 2.0 * std::f64::consts::PI * F0;
        let dt = 4.0e-6; // the 250 kHz DSP tick
        let steps = 10_000;
        let mut zoh = Resonator::new(F0, q);
        let mut rk4 = Resonator::new(F0, q);
        zoh.state = ModeState { x: 1.0, v: 0.0 };
        rk4.state = ModeState { x: 1.0, v: 0.0 };
        for _ in 0..steps {
            zoh.step(0.0, dt);
            rk4.step_rk4(0.0, dt);
        }
        let expect = analytic_free_decay(omega, q, 1.0, steps as f64 * dt);
        let err_zoh = (zoh.state().x - expect).abs();
        let err_rk4 = (rk4.state().x - expect).abs();
        assert!(
            err_zoh <= err_rk4 + 1e-15,
            "ZOH err {err_zoh} worse than RK4 err {err_rk4}"
        );
        assert!(err_zoh < 1e-9, "ZOH not exact: {err_zoh}");
    }

    #[test]
    fn propagator_matches_rk4_at_small_dt() {
        // Convergence cross-check: at a tiny step the two integrators are
        // interchangeable on a driven trajectory.
        let dt = 1.0e-7;
        let mut zoh = Resonator::new(F0, 60.0);
        let mut rk4 = Resonator::new(F0, 60.0);
        let w = 2.0 * std::f64::consts::PI * F0;
        for k in 0..20_000 {
            let force = 1.0e6 * (w * k as f64 * dt).cos();
            zoh.step(force, dt);
            rk4.step_rk4(force, dt);
        }
        let dx = (zoh.state().x - rk4.state().x).abs();
        // Scale by the steady-state resonant amplitude, not the (possibly
        // zero-crossing) instantaneous displacement.
        let scale = zoh.resonant_gain(1.0e6);
        assert!(dx / scale < 1e-6, "ZOH/RK4 diverged: {dx} (scale {scale})");
    }

    #[test]
    fn retune_invalidates_cached_propagator() {
        // Regression: a stale exp(A·dt) after retune would keep integrating
        // the old resonance. Stepping a retuned resonator must match a
        // fresh resonator built at the new tuning.
        let mut r = Resonator::new(F0, 100.0);
        r.step(1.0e5, DT); // builds and caches the propagator
        r.retune(F0 * 1.05, 140.0);
        let mut fresh = Resonator::new(F0 * 1.05, 140.0);
        fresh.state = r.state();
        for _ in 0..1000 {
            r.step(2.0e5, DT);
            fresh.step(2.0e5, DT);
        }
        assert_eq!(r.state(), fresh.state(), "stale propagator after retune");
    }

    #[test]
    fn dt_change_rebuilds_propagator() {
        // Alternating step sizes must agree with a single-dt reference at
        // the points where their time grids coincide.
        let mut r = Resonator::new(F0, 50.0);
        let mut reference = Resonator::new(F0, 50.0);
        r.state = ModeState { x: 0.5, v: 0.0 };
        reference.state = ModeState { x: 0.5, v: 0.0 };
        for _ in 0..100 {
            r.step(0.0, DT);
            r.step(0.0, 2.0 * DT);
            reference.step(0.0, DT);
            reference.step(0.0, DT);
            reference.step(0.0, DT);
        }
        assert!(
            (r.state().x - reference.state().x).abs() < 1e-12,
            "mixed-dt stepping diverged: {} vs {}",
            r.state().x,
            reference.state().x
        );
    }

    #[test]
    fn lanes_match_scalar_bit_for_bit() {
        // SoA lockstep stepping must produce the exact bits of stepping each
        // resonator alone — the fleet path's correctness contract.
        for n in [1usize, 2, 5, 8, 16] {
            let mut scalars: Vec<Resonator> = (0..n)
                .map(|i| {
                    let mut r =
                        Resonator::new(F0 * (1.0 + 0.003 * i as f64), 50.0 + 7.0 * i as f64);
                    r.state = ModeState {
                        x: 1.0e-7 * i as f64,
                        v: -2.0e-4 * i as f64,
                    };
                    r
                })
                .collect();
            let mut lanes = ResonatorLanes::extract(scalars.iter(), DT);
            let mut force = vec![0.0; n];
            let w = 2.0 * std::f64::consts::PI * F0;
            for k in 0..5000u64 {
                for (l, f) in force.iter_mut().enumerate() {
                    *f = 1.0e5 * (w * k as f64 * DT).cos() * (1.0 + 0.1 * l as f64);
                }
                lanes.step(&force);
                for (l, r) in scalars.iter_mut().enumerate() {
                    r.step(force[l], DT);
                }
                for (l, r) in scalars.iter().enumerate() {
                    assert_eq!(r.state().x.to_bits(), lanes.x()[l].to_bits(), "x lane {l}");
                    assert_eq!(r.state().v.to_bits(), lanes.v()[l].to_bits(), "v lane {l}");
                }
            }
            // Restore round-trips and the scalar continues identically.
            let mut restored = scalars.clone();
            lanes.restore(restored.iter_mut());
            for (a, b) in scalars.iter_mut().zip(restored.iter_mut()) {
                a.step(3.3e4, DT);
                b.step(3.3e4, DT);
                assert_eq!(a.state(), b.state());
            }
        }
    }

    #[test]
    fn propagator_handles_overdamped_and_critical_q() {
        // The hyperbolic branch: an overdamped mode must relax toward the
        // step target without oscillating or blowing up.
        for q in [0.1, 0.3, 0.5] {
            let mut r = Resonator::new(F0, q);
            let f = 1.0e6;
            let omega = 2.0 * std::f64::consts::PI * F0;
            let x_ss = f / (omega * omega);
            for _ in 0..200_000 {
                r.step(f, DT);
            }
            assert!(
                (r.state().x - x_ss).abs() / x_ss < 1e-6,
                "Q={q}: settled at {} vs {x_ss}",
                r.state().x
            );
        }
    }
}
