//! Property tests of the simulation kernel: statistics invariants, noise
//! reproducibility and trace bookkeeping for arbitrary inputs.

use ascp_sim::noise::{PinkNoise, RandomWalk, WhiteNoise};
use ascp_sim::snapshot::{StateReader, StateWriter};
use ascp_sim::stats;
use ascp_sim::trace::Trace;
use proptest::prelude::*;

proptest! {
    #[test]
    fn linear_fit_recovers_exact_lines(
        slope in -100.0f64..100.0,
        intercept in -100.0f64..100.0,
        n in 2usize..64,
    ) {
        let xs: Vec<f64> = (0..n).map(|k| k as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| slope * x + intercept).collect();
        let fit = stats::linear_fit(&xs, &ys);
        prop_assert!((fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()));
        prop_assert!((fit.intercept - intercept).abs() < 1e-5 * (1.0 + intercept.abs()));
        prop_assert!(fit.max_residual < 1e-6 * (1.0 + slope.abs() + intercept.abs()));
    }

    #[test]
    fn interp_stays_within_hull(
        ys in proptest::collection::vec(-10.0f64..10.0, 2..16),
        q in -2.0f64..18.0,
    ) {
        let xs: Vec<f64> = (0..ys.len()).map(|k| k as f64).collect();
        let v = stats::interp(&xs, &ys, q);
        let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12);
    }

    #[test]
    fn variance_is_translation_invariant(
        xs in proptest::collection::vec(-100.0f64..100.0, 2..64),
        shift in -1000.0f64..1000.0,
    ) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        prop_assert!((stats::variance(&xs) - stats::variance(&shifted)).abs() < 1e-6);
    }

    #[test]
    fn rms_bounds_mean(xs in proptest::collection::vec(-100.0f64..100.0, 1..64)) {
        prop_assert!(stats::rms(&xs) + 1e-12 >= stats::mean(&xs).abs());
    }

    #[test]
    fn white_noise_deterministic(seed in any::<u64>(), sigma in 0.0f64..10.0) {
        let mut a = WhiteNoise::new(sigma, seed);
        let mut b = WhiteNoise::new(sigma, seed);
        for _ in 0..32 {
            prop_assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn white_noise_save_load_continues_the_stream(
        seed in any::<u64>(),
        zero_or_sigma in (0u8..4, 0.0f64..10.0),
        k in 0usize..200,
        m in 1usize..100,
    ) {
        // A quarter of the cases are silent sources.
        let sigma = if zero_or_sigma.0 == 0 { 0.0 } else { zero_or_sigma.1 };
        let mut whole = WhiteNoise::new(sigma, seed);
        let stream: Vec<u64> = (0..k + m).map(|_| whole.sample().to_bits()).collect();
        let mut a = WhiteNoise::new(sigma, seed);
        for want in &stream[..k] {
            prop_assert_eq!(a.sample().to_bits(), *want);
        }
        let mut w = StateWriter::new();
        a.save_state(&mut w);
        // The target shares the saved source's sigma (a constant, not
        // saved) but not its seed or its position.
        let mut b = WhiteNoise::new(sigma, seed ^ 0x55);
        b.sample();
        prop_assert!(b.load_state(&mut StateReader::new(w.bytes())).is_ok());
        for want in &stream[k..] {
            prop_assert_eq!(a.sample().to_bits(), *want);
            prop_assert_eq!(b.sample().to_bits(), *want);
        }
    }

    #[test]
    fn pink_noise_deterministic(seed in any::<u64>()) {
        let mut a = PinkNoise::new(1.0, 12, seed);
        let mut b = PinkNoise::new(1.0, 12, seed);
        for _ in 0..32 {
            prop_assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn random_walk_bounded(limit in 0.1f64..10.0, seed in any::<u64>()) {
        let mut w = RandomWalk::new(limit / 3.0, limit, seed);
        for _ in 0..500 {
            prop_assert!(w.sample().abs() <= limit + 1e-9);
        }
    }

    #[test]
    fn trace_decimation_keeps_every_nth(dec in 1u32..16, n in 0u32..200) {
        let mut t = Trace::with_decimation("x", dec);
        for k in 0..n {
            t.push(f64::from(k), f64::from(k));
        }
        prop_assert_eq!(t.len() as u32, n.div_ceil(dec));
        for (i, &v) in t.values().iter().enumerate() {
            prop_assert_eq!(v, (i as u32 * dec) as f64);
        }
    }

    #[test]
    fn settling_index_is_sound(
        xs in proptest::collection::vec(-5.0f64..5.0, 1..64),
        target in -5.0f64..5.0,
        tol in 0.01f64..2.0,
    ) {
        if let Some(i) = stats::settling_index(&xs, target, tol) {
            // Everything from i onward is in the band.
            for (k, x) in xs.iter().enumerate().skip(i) {
                prop_assert!((x - target).abs() <= tol, "index {k} out of band");
            }
            // The point just before i (if any) is out of band.
            if i > 0 {
                prop_assert!((xs[i - 1] - target).abs() > tol);
            }
        } else {
            // Never settles: the last sample must be out of band.
            prop_assert!((xs[xs.len() - 1] - target).abs() > tol);
        }
    }
}
