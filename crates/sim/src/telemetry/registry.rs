//! Metrics registry: counters, gauges and log-bucketed histograms.
//!
//! Metric names are `&'static str` dotted paths (`adc.conversions`,
//! `pll.lock_transitions`) so recording never allocates; storage is a
//! `BTreeMap` keyed by those names, giving stable, sorted export order. A
//! gauge may also own its name (a campaign's `<scenario>.<metric>`).

use std::borrow::Cow;
use std::collections::BTreeMap;

/// Number of log₂ buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Lower bound of the first histogram bucket (1 ns when recording seconds).
pub const HISTOGRAM_MIN: f64 = 1.0e-9;

/// Log₂-bucketed histogram of non-negative samples.
///
/// Bucket `k` counts samples in `(HISTOGRAM_MIN·2^(k-1), HISTOGRAM_MIN·2^k]`
/// (bucket 0 takes everything at or below [`HISTOGRAM_MIN`]). Sixty-four
/// octaves starting at 1 ns span past 10⁹ s, so any wall-time or
/// settle-time measurement fits without configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Bucket index for a sample value.
    #[must_use]
    pub fn bucket_index(value: f64) -> usize {
        if value <= HISTOGRAM_MIN {
            return 0;
        }
        let octaves = (value / HISTOGRAM_MIN).log2().ceil();
        (octaves as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `k`.
    #[must_use]
    pub fn bucket_upper_bound(k: usize) -> f64 {
        HISTOGRAM_MIN * (k as f64).exp2()
    }

    /// Records one sample. Negative and non-finite samples are ignored.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() || value < 0.0 {
            return;
        }
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Non-empty buckets as `(inclusive_upper_bound, count)` pairs.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(k, &c)| (Self::bucket_upper_bound(k), c))
    }

    /// Approximate quantile `q` in `[0, 1]` from the bucket boundaries.
    ///
    /// Returns `None` when empty. The answer is the upper bound of the
    /// bucket containing the `q`-th sample, so it overestimates by at most
    /// one octave.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper_bound(k));
            }
        }
        Some(self.max)
    }
}

/// Central metric store: monotonic counters, last-value gauges, histograms.
///
/// All mutation paths are branch-plus-integer-add cheap; nothing allocates
/// after a metric's first appearance.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<Cow<'static, str>, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to counter `name` (created at zero).
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Sets counter `name` to an absolute value.
    ///
    /// Used by scrape-style collection where a component keeps its own
    /// monotonic count and the registry mirrors it.
    pub fn counter_set(&mut self, name: &'static str, value: u64) {
        self.counters.insert(name, value);
    }

    /// Current value of counter `name` (zero when absent).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: impl Into<Cow<'static, str>>, value: f64) {
        self.gauges.insert(name.into(), value);
    }

    /// Current value of gauge `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records `value` into histogram `name` (created empty).
    pub fn histogram_record(&mut self, name: &'static str, value: f64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// Histogram `name`, when it exists.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in sorted name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&n, &v)| (n, v))
    }

    /// All gauges in sorted name order.
    pub fn gauges(&self) -> impl Iterator<Item = (Cow<'static, str>, f64)> + '_ {
        self.gauges.iter().map(|(n, &v)| (n.clone(), v))
    }

    /// All histograms in sorted name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(&n, h)| (n, h))
    }

    /// Total number of distinct metric names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// `true` when no metric has been touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_set() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.counter("adc.conversions"), 0);
        r.counter_add("adc.conversions", 3);
        r.counter_add("adc.conversions", 4);
        assert_eq!(r.counter("adc.conversions"), 7);
        r.counter_set("adc.conversions", 100);
        assert_eq!(r.counter("adc.conversions"), 100);
    }

    #[test]
    fn gauges_keep_last_value() {
        let mut r = MetricsRegistry::new();
        assert_eq!(r.gauge("pll.frequency_hz"), None);
        r.gauge_set("pll.frequency_hz", 14_500.0);
        r.gauge_set("pll.frequency_hz", 15_000.0);
        assert_eq!(r.gauge("pll.frequency_hz"), Some(15_000.0));
    }

    #[test]
    fn histogram_buckets_are_log_spaced() {
        assert_eq!(Histogram::bucket_index(0.0), 0);
        assert_eq!(Histogram::bucket_index(1.0e-9), 0);
        assert_eq!(Histogram::bucket_index(1.5e-9), 1);
        let k = Histogram::bucket_index(1.0e-3);
        // 1 ms is ~2^20 ns.
        assert!((19..=21).contains(&k), "bucket {k}");
        assert_eq!(Histogram::bucket_index(1.0e30), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_stats_and_quantile() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        for v in [1.0e-6, 2.0e-6, 4.0e-6, 1.0e-3] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 1.007e-3).abs() < 1e-9);
        assert_eq!(h.min(), Some(1.0e-6));
        assert_eq!(h.max(), Some(1.0e-3));
        let p50 = h.quantile(0.5).expect("non-empty");
        assert!((2.0e-6..1.0e-3).contains(&p50), "p50 {p50}");
        let p100 = h.quantile(1.0).expect("non-empty");
        assert!(p100 >= 1.0e-3, "p100 {p100}");
    }

    #[test]
    fn histogram_ignores_invalid_samples() {
        let mut h = Histogram::new();
        h.record(-1.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn registry_iteration_is_sorted() {
        let mut r = MetricsRegistry::new();
        r.counter_add("zeta", 1);
        r.counter_add("alpha", 1);
        let names: Vec<&str> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, ["alpha", "zeta"]);
    }
}
