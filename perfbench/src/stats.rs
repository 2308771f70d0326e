//! Order statistics for timings: medians and the percentile rule.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`TAIL_MIN_BEYOND`] samples beyond it, capped at the
//! 90th, together with the sample count. Below 100 samples a nominal p90
//! would rest on fewer than ten samples, i.e. on one scenario's noise.

/// Samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Highest percentile reported (the rank is computed as `ceil(9n/10)`).
pub const TAIL_MAX_PCT: f64 = 90.0;

/// Median (mean of the middle pair for even counts); `NaN` when empty.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// A tail percentile: which one, its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, in percent.
    pub pct: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// The highest percentile, at most [`TAIL_MAX_PCT`], with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it (nearest rank). With
/// `n ≥ 100` that is p90; with fewer samples it is `100·(n−10)/n`.
/// `None` when `n ≤ 10`: no percentile has ten samples beyond it.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // Nearest rank k (1-based) of percentile p is ceil(p·n/100); the
    // samples beyond it number n − k. p90 in integer arithmetic:
    let capped = (9 * n).div_ceil(10);
    let rank = capped.min(n - TAIL_MIN_BEYOND);
    let pct = if rank == capped {
        TAIL_MAX_PCT
    } else {
        100.0 * rank as f64 / n as f64
    };
    Some(Tail {
        pct,
        value: v[rank - 1],
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so the functions must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&ramp(5)), 3.0);
        assert_eq!(median(&ramp(4)), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_p90_from_one_hundred_samples() {
        let t = tail(&ramp(100)).expect("enough samples");
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.n, 100);
        let t = tail(&ramp(250)).expect("enough samples");
        assert_eq!((t.pct, t.value), (90.0, 225.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_below_one_hundred() {
        for n in 11..100 {
            let xs = ramp(n);
            let t = tail(&xs).expect("n > 10");
            let beyond = xs.iter().filter(|&&x| x > t.value).count();
            assert_eq!(beyond, TAIL_MIN_BEYOND, "n = {n}");
            assert!(t.pct < 90.0 && t.pct > 0.0, "n = {n}: p{}", t.pct);
            assert_eq!(t.n, n);
        }
        let t = tail(&ramp(56)).expect("n > 10");
        assert_eq!(t.value, 46.0);
        assert!((t.pct - 100.0 * 46.0 / 56.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&ramp(10)), None);
        assert_eq!(tail(&[]), None);
    }
}
