//! Host-speed reference: a fixed kernel of the benchmark's own, timed
//! before every batch and after the last, so that batch wall times are
//! reported at one nominal host speed.
//!
//! On a shared host, the speed the simulator sees drifts with the
//! co-tenants' load, by more than the benchmark's bounds allow. On a
//! 2-vCPU Xeon (model 207) VM, 16-lane `montecarlo` batches of identical
//! inputs took 0.61–1.36 s within five minutes, and their 30 s medians
//! drifted from 1.13 to 0.82 s, with no run-queue wait and no steal: the
//! same instructions ran slower. [`reference_s`] is a 16-lane
//! structure-of-arrays loop — a resonator update, Box–Muller noise and a
//! one-pole filter per lane and tick, the shape of the simulator's lane
//! kernels — and slows with the host: its time around a batch
//! correlated 0.5–0.84 with the batch's wall time. Over two sets of ten
//! 35 s runs per workload, the run medians of the wall times as measured
//! spread by 0.17–0.50 (interquartile range over median), and those of
//! the scaled wall times by 0.02–0.11.
//!
//! The kernel is part of the benchmark's definition: changing it, or the
//! nominal time, changes every scaled figure, and it must stay the same
//! on both sides of any comparison.

use std::time::Instant;

/// Reference-kernel ticks per measurement: 9–15 ms on the host above.
const REF_TICKS: usize = 20_000;

/// Lanes of the reference kernel.
const REF_LANES: usize = 16;

/// Nominal reference time. A scaled wall time is the batch's wall time on
/// a host on which [`reference_s`] takes this long.
pub const REF_NOMINAL_S: f64 = 0.012;

/// Runs the reference kernel once and returns its wall seconds.
#[must_use]
pub fn reference_s() -> f64 {
    const L: usize = REF_LANES;
    let t0 = Instant::now();
    let mut x = [0.0_f64; L];
    let mut v = [0.0_f64; L];
    let mut y = [0.0_f64; L];
    let mut acc = [0.0_f64; L];
    let mut s = [0_u64; L];
    for l in 0..L {
        s[l] = 0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(l as u64 + 1);
        x[l] = 1.0 + l as f64 * 0.01;
    }
    let (a, b) = (0.999_9, 0.01);
    for k in 0..REF_TICKS {
        let mut u1 = [0.0_f64; L];
        let mut u2 = [0.0_f64; L];
        for l in 0..L {
            s[l] ^= s[l] << 13;
            s[l] ^= s[l] >> 7;
            s[l] ^= s[l] << 17;
            u1[l] = ((s[l] >> 11) as f64 + 0.5) / (1_u64 << 53) as f64;
            u2[l] = (s[l] & 0xFFFF_FFFF) as f64 / 4_294_967_296.0;
        }
        for l in 0..L {
            let n = (-2.0 * u1[l].ln()).sqrt() * (std::f64::consts::TAU * u2[l]).cos();
            let nx = a * x[l] + b * v[l];
            v[l] = a * v[l] - b * x[l] + 1.0e-6 * n;
            x[l] = nx;
            y[l] += 0.01 * (x[l] - y[l]);
        }
        if k % 8 == 0 {
            for l in 0..L {
                acc[l] += y[l];
            }
        }
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// `wall_s` scaled to the nominal host speed, given the reference times
/// measured right before and right after it.
#[must_use]
pub fn scaled(wall_s: f64, ref_before_s: f64, ref_after_s: f64) -> f64 {
    wall_s * REF_NOMINAL_S / (0.5 * (ref_before_s + ref_after_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_takes_measurable_time() {
        let r = reference_s();
        assert!(r > 1.0e-4 && r < 1.0, "{r}");
    }

    #[test]
    fn scaling_is_relative_to_the_nominal_time() {
        assert_eq!(scaled(2.0, REF_NOMINAL_S, REF_NOMINAL_S), 2.0);
        // A host twice as slow as nominal halves the scaled figure.
        let slow = 2.0 * REF_NOMINAL_S;
        assert!((scaled(2.0, slow, slow) - 1.0).abs() < 1e-12);
        assert!((scaled(3.0, slow, REF_NOMINAL_S) - 2.0).abs() < 1e-12);
    }
}
