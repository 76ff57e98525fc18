//! Statistics collectors used across the evaluation.
//!
//! * [`OnlineStats`] — Welford's numerically stable single-pass mean /
//!   variance, used for "mean ± 1σ" reporting (the paper's error bars are
//!   one standard deviation either side of the mean over 10 repetitions).
//! * [`TimeWeighted`] — integrates a piecewise-constant signal over
//!   simulated time (queue lengths, busy cores) to produce time-averages.
//! * [`Histogram`] — fixed-width bins for latency distributions.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Welford online mean / variance accumulator.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        OnlineStats { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "observation must be finite");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Builds an accumulator from a slice in one pass.
    pub fn from_slice(xs: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than one observation).
    pub fn variance_population(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample variance with Bessel's correction (0 with < 2 observations).
    pub fn variance_sample(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation — the paper's error-bar half-width.
    pub fn stddev(&self) -> f64 {
        self.variance_sample().sqrt()
    }

    /// Smallest observation (+∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.mean() * self.n as f64
    }

    /// Merges another accumulator (parallel reduction; Chan et al.).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n_total = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n_total as f64;
        let m2 =
            self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n_total as f64;
        self.n = n_total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted average of a piecewise-constant signal.
///
/// Call [`TimeWeighted::set`] whenever the signal changes; the value in
/// force between two updates is integrated over that span.
#[derive(Debug, Clone, Copy)]
pub struct TimeWeighted {
    last_update: SimTime,
    current: f64,
    integral: f64,
    peak: f64,
}

impl TimeWeighted {
    /// Starts tracking with an initial value at time zero.
    pub fn new(initial: f64) -> Self {
        TimeWeighted { last_update: SimTime::ZERO, current: initial, integral: 0.0, peak: initial }
    }

    /// Updates the signal to `value` at instant `now`.
    pub fn set(&mut self, now: SimTime, value: f64) {
        debug_assert!(now >= self.last_update, "time-weighted updates must be in time order");
        self.integral += self.current * (now.as_tu() - self.last_update.as_tu());
        self.last_update = now;
        self.current = value;
        self.peak = self.peak.max(value);
    }

    /// Adjusts the signal by `delta` at instant `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.current + delta;
        self.set(now, v);
    }

    /// Current value of the signal.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Highest value the signal has reached.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Integral of the signal from time zero to `now`.
    pub fn integral_until(&self, now: SimTime) -> f64 {
        self.integral + self.current * (now.as_tu() - self.last_update.as_tu())
    }

    /// Time-average of the signal over `[0, now]`.
    pub fn average_until(&self, now: SimTime) -> f64 {
        let t = now.as_tu();
        if t == 0.0 {
            self.current
        } else {
            self.integral_until(now) / t
        }
    }
}

/// A fixed-width histogram over `[lo, hi)` with under/overflow bins.
///
/// The bin width is `(hi - lo) / nbins`, but the bin `Vec` only grows to
/// the highest bin recorded so far: a histogram that sees a few values
/// near `lo` holds a few counters, not `nbins`. Every bin past the
/// stored ones is zero, so [`Histogram::quantile`] falls through them to
/// `hi` exactly as a scan over all `nbins` would.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    nbins: usize,
    /// Counts of bins `0..bins.len()`; the rest are zero.
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with `nbins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(hi > lo && nbins > 0);
        Histogram { lo, hi, nbins, bins: Vec::new(), underflow: 0, overflow: 0, count: 0 }
    }

    /// The bin width.
    fn width(&self) -> f64 {
        (self.hi - self.lo) / self.nbins as f64
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let idx = ((x - self.lo) / self.width()) as usize;
            // Guard against FP edge cases putting x==hi-ε into bin nbins.
            let idx = idx.min(self.nbins - 1);
            if self.bins.len() <= idx {
                self.bins.resize(idx + 1, 0);
            }
            self.bins[idx] += 1;
        }
    }

    /// Total observations recorded (including under/overflow).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Counts of the bins up to the highest one recorded (excluding
    /// under/overflow); every later bin of the `nbins` is zero.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Counts below `lo` / at-or-above `hi`.
    pub fn outliers(&self) -> (u64, u64) {
        (self.underflow, self.overflow)
    }

    /// Approximate quantile by scanning the CDF (returns bin midpoints;
    /// `q` in `[0,1]`).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.count == 0 {
            return f64::NAN;
        }
        let target = (q * self.count as f64).ceil() as u64;
        let mut cum = self.underflow;
        if cum >= target && self.underflow > 0 {
            return self.lo;
        }
        let w = self.width();
        for (i, &b) in self.bins.iter().enumerate() {
            cum += b;
            if cum >= target {
                return self.lo + (i as f64 + 0.5) * w;
            }
        }
        if cum >= target {
            // No bin stored and nothing needed (q = 0, no underflow): the
            // first bin, as the dense scan answered.
            return self.lo + 0.5 * w;
        }
        self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let s = OnlineStats::from_slice(&xs);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance_population() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
        assert!((s.sum() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.stddev(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let (a, b) = xs.split_at(37);
        let mut left = OnlineStats::from_slice(a);
        let right = OnlineStats::from_slice(b);
        left.merge(&right);
        let all = OnlineStats::from_slice(&xs);
        assert!((left.mean() - all.mean()).abs() < 1e-10);
        assert!((left.variance_sample() - all.variance_sample()).abs() < 1e-10);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(0.0);
        tw.set(SimTime::new(1.0), 10.0); // 0 for [0,1)
        tw.set(SimTime::new(3.0), 2.0); // 10 for [1,3)
                                        // 2 for [3,4)
        let avg = tw.average_until(SimTime::new(4.0));
        // integral = 0*1 + 10*2 + 2*1 = 22; avg = 5.5
        assert!((avg - 5.5).abs() < 1e-12);
        assert_eq!(tw.peak(), 10.0);
        assert_eq!(tw.current(), 2.0);
    }

    #[test]
    fn time_weighted_add() {
        let mut tw = TimeWeighted::new(1.0);
        tw.add(SimTime::new(2.0), 3.0);
        assert_eq!(tw.current(), 4.0);
        assert!((tw.integral_until(SimTime::new(3.0)) - (1.0 * 2.0 + 4.0 * 1.0)).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_and_outliers() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [-1.0, 0.0, 0.5, 5.0, 9.99, 10.0, 42.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.outliers(), (1, 2));
        assert_eq!(h.bins()[0], 2); // 0.0 and 0.5
        assert_eq!(h.bins()[5], 1); // 5.0
        assert_eq!(h.bins()[9], 1); // 9.99
    }

    #[test]
    fn histogram_quantile_midpoints() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for i in 0..100 {
            h.record(i as f64 + 0.5);
        }
        let median = h.quantile(0.5);
        assert!((median - 49.5).abs() <= 1.0, "median {median}");
    }

    /// The histogram as it was before its bins were sized lazily: all
    /// `nbins` counters up front, and a quantile scan over every one.
    struct DenseHistogram {
        lo: f64,
        hi: f64,
        bins: Vec<u64>,
        underflow: u64,
        overflow: u64,
        count: u64,
    }

    impl DenseHistogram {
        fn new(lo: f64, hi: f64, nbins: usize) -> Self {
            DenseHistogram { lo, hi, bins: vec![0; nbins], underflow: 0, overflow: 0, count: 0 }
        }

        fn record(&mut self, x: f64) {
            self.count += 1;
            if x < self.lo {
                self.underflow += 1;
            } else if x >= self.hi {
                self.overflow += 1;
            } else {
                let w = (self.hi - self.lo) / self.bins.len() as f64;
                let idx = (((x - self.lo) / w) as usize).min(self.bins.len() - 1);
                self.bins[idx] += 1;
            }
        }

        fn quantile(&self, q: f64) -> f64 {
            if self.count == 0 {
                return f64::NAN;
            }
            let target = (q * self.count as f64).ceil() as u64;
            let mut cum = self.underflow;
            if cum >= target && self.underflow > 0 {
                return self.lo;
            }
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            for (i, &b) in self.bins.iter().enumerate() {
                cum += b;
                if cum >= target {
                    return self.lo + (i as f64 + 0.5) * w;
                }
            }
            self.hi
        }
    }

    #[test]
    fn an_unbinned_histogram_answers_like_a_dense_one() {
        // Every value overflows: no bin is stored, and q = 0 still names
        // the first bin's midpoint.
        let mut h = Histogram::new(0.0, 400.0, 800);
        let mut dense = DenseHistogram::new(0.0, 400.0, 800);
        for x in [500.0, 401.0] {
            h.record(x);
            dense.record(x);
        }
        assert!(h.bins().is_empty());
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile(q).to_bits(), dense.quantile(q).to_bits(), "q = {q}");
        }
    }

    proptest! {
        /// The lazily sized histogram equals the dense one: the same
        /// quantile bits at q = 0, 0.05, …, 1, the same count and
        /// outliers, and the same bins on the stored prefix with zeros
        /// past it.
        #[test]
        fn prop_lazy_histogram_matches_dense(
            xs in proptest::collection::vec(-20.0f64..120.0, 0..40),
            hi in 1.0f64..100.0,
            nbins in 1usize..200,
        ) {
            // A low `hi` often leaves every value in overflow, with no
            // bin stored at all.
            let mut h = Histogram::new(0.0, hi, nbins);
            let mut dense = DenseHistogram::new(0.0, hi, nbins);
            for &x in &xs {
                h.record(x);
                dense.record(x);
            }
            prop_assert_eq!(h.count(), dense.count);
            prop_assert_eq!(h.outliers(), (dense.underflow, dense.overflow));
            let stored = h.bins().len();
            prop_assert!(stored <= nbins);
            prop_assert_eq!(h.bins(), &dense.bins[..stored]);
            prop_assert!(dense.bins[stored..].iter().all(|&b| b == 0));
            for k in 0..=20 {
                let q = k as f64 * 0.05;
                let q = q.min(1.0);
                let (lazy, full) = (h.quantile(q), dense.quantile(q));
                prop_assert!(lazy.to_bits() == full.to_bits(), "q = {}: {} vs {}", q, lazy, full);
            }
        }

        #[test]
        fn prop_welford_matches_two_pass(xs in proptest::collection::vec(-1e6f64..1e6, 1..500)) {
            let s = OnlineStats::from_slice(&xs);
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            prop_assert!((s.mean() - mean).abs() < 1e-6 * mean.abs().max(1.0));
            prop_assert!((s.variance_population() - var).abs() < 1e-5 * var.abs().max(1.0));
        }

        #[test]
        fn prop_merge_any_split(xs in proptest::collection::vec(-1e3f64..1e3, 2..200), split in 0usize..200) {
            let split = split % xs.len();
            let (a, b) = xs.split_at(split);
            let mut left = OnlineStats::from_slice(a);
            left.merge(&OnlineStats::from_slice(b));
            let all = OnlineStats::from_slice(&xs);
            prop_assert!((left.mean() - all.mean()).abs() < 1e-8);
            prop_assert!((left.variance_sample() - all.variance_sample()).abs() < 1e-6);
            prop_assert_eq!(left.count(), all.count());
        }

        #[test]
        fn prop_histogram_conserves_count(xs in proptest::collection::vec(-50.0f64..150.0, 0..300)) {
            let mut h = Histogram::new(0.0, 100.0, 20);
            for &x in &xs { h.record(x); }
            let (u, o) = h.outliers();
            let binned: u64 = h.bins().iter().sum();
            prop_assert_eq!(u + o + binned, xs.len() as u64);
        }
    }
}
