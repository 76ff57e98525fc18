//! Virtual time: instants ([`SimTime`]) and spans ([`SimDuration`]).
//!
//! The paper measures everything in abstract *time units* (TU): the
//! simulation horizon is 10 000 TU, inter-arrival means are 2.0–3.0 TU and
//! the VM reshape penalty is 30 s = 0.5 TU. Both types wrap an `f64` but are
//! kept distinct so that instants and spans cannot be mixed up, and both are
//! totally ordered (NaN is rejected at construction) so they can key the
//! event calendar.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in time units since the run started.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

/// A span of simulated time, in time units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimDuration(f64);

impl SimTime {
    /// The instant at which every simulation starts.
    pub const ZERO: SimTime = SimTime(0.0);

    /// Creates an instant `tu` time units after the epoch. `-0.0` is
    /// stored as `+0.0`: the calendar orders instants by their bits.
    ///
    /// # Panics
    /// Panics if `tu` is NaN or negative: the calendar relies on a total
    /// order over instants, and simulated time never runs backwards.
    #[inline]
    pub fn new(tu: f64) -> Self {
        assert!(tu.is_finite() && tu >= 0.0, "SimTime must be finite and non-negative, got {tu}");
        // Adding +0.0 maps -0.0 to +0.0 and leaves every other value as it is.
        SimTime(tu + 0.0)
    }

    /// The raw number of time units since the epoch.
    #[inline]
    pub fn as_tu(self) -> f64 {
        self.0
    }

    /// The span from `earlier` to `self`.
    ///
    /// # Panics
    /// Panics if `earlier` is after `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since called with a later instant ({} > {})",
            earlier.0,
            self.0
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0.0);

    /// Creates a span of `tu` time units.
    ///
    /// # Panics
    /// Panics if `tu` is NaN or negative.
    #[inline]
    pub fn new(tu: f64) -> Self {
        assert!(
            tu.is_finite() && tu >= 0.0,
            "SimDuration must be finite and non-negative, got {tu}"
        );
        SimDuration(tu)
    }

    /// Creates a span, clamping negative or non-finite inputs to zero.
    ///
    /// Estimators occasionally produce slightly negative values from
    /// regression extrapolation (the paper's stage 2 has `b_2 = -0.53`);
    /// this constructor is the sanctioned way to feed those into the clock.
    #[inline]
    pub fn clamped(tu: f64) -> Self {
        if tu.is_finite() && tu > 0.0 {
            SimDuration(tu)
        } else {
            SimDuration(0.0)
        }
    }

    /// The raw number of time units in the span.
    #[inline]
    pub fn as_tu(self) -> f64 {
        self.0
    }

    /// True if the span is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }

    /// Returns the larger of two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two spans.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

// --- total order -----------------------------------------------------------
// NaN is excluded at construction, so `partial_cmp` can never fail; we
// implement Eq/Ord manually to make both types usable as calendar keys.

impl Eq for SimTime {}
impl Ord for SimTime {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // scan-lint: allow(float-ord) -- NaN rejected at construction; total_cmp reorders ±0.0
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}
impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for SimDuration {}
impl Ord for SimDuration {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // scan-lint: allow(float-ord) -- NaN rejected at construction; total_cmp reorders ±0.0
        self.0.partial_cmp(&other.0).expect("SimDuration is never NaN")
    }
}
impl PartialOrd for SimDuration {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

// --- arithmetic -------------------------------------------------------------

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration::new(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::new(self.0 * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::new(self.0 / rhs)
    }
}

impl Div for SimDuration {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimDuration) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} TU", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} TU", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_plus_duration_advances() {
        let t = SimTime::new(1.5) + SimDuration::new(2.25);
        assert_eq!(t.as_tu(), 3.75);
    }

    #[test]
    fn since_measures_span() {
        let a = SimTime::new(2.0);
        let b = SimTime::new(5.5);
        assert_eq!(b.since(a).as_tu(), 3.5);
        assert_eq!((b - a).as_tu(), 3.5);
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn since_rejects_backwards_span() {
        let _ = SimTime::new(1.0).since(SimTime::new(2.0));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_time_rejected() {
        let _ = SimTime::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_duration_rejected() {
        let _ = SimDuration::new(-0.1);
    }

    #[test]
    fn clamped_duration_tolerates_regression_noise() {
        assert_eq!(SimDuration::clamped(-0.53), SimDuration::ZERO);
        assert_eq!(SimDuration::clamped(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::clamped(2.0).as_tu(), 2.0);
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![SimTime::new(3.0), SimTime::new(1.0), SimTime::new(2.0)];
        v.sort();
        assert_eq!(v, vec![SimTime::new(1.0), SimTime::new(2.0), SimTime::new(3.0)]);
    }

    #[test]
    fn duration_arithmetic() {
        let d = SimDuration::new(4.0) * 0.5 + SimDuration::new(1.0);
        assert_eq!(d.as_tu(), 3.0);
        assert_eq!(SimDuration::new(6.0) / SimDuration::new(2.0), 3.0);
        let total: SimDuration =
            vec![SimDuration::new(1.0), SimDuration::new(2.5)].into_iter().sum();
        assert_eq!(total.as_tu(), 3.5);
    }

    #[test]
    fn min_max_helpers() {
        assert_eq!(SimTime::new(1.0).max(SimTime::new(2.0)), SimTime::new(2.0));
        assert_eq!(SimTime::new(1.0).min(SimTime::new(2.0)), SimTime::new(1.0));
        assert_eq!(SimDuration::new(1.0).max(SimDuration::new(2.0)), SimDuration::new(2.0));
        assert_eq!(SimDuration::new(1.0).min(SimDuration::new(2.0)), SimDuration::new(1.0));
    }
}
