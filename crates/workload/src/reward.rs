//! The reward schemes of §II-D and the delay-cost building block of Eq. 1.
//!
//! * Time-oriented: `R(d, t) = d · (Rmax − t · Rpenalty)` — every saved
//!   minute is worth the same.
//! * Throughput-oriented: `R(d, t) = d · Rscale / t` — rewards relative
//!   speedup.
//!
//! Table III fixes `Rmax = 400`, `Rpenalty = 15`, `Rscale = 15 000`
//! ([`RMAX`], [`RPENALTY`], [`RSCALE`]).

/// Rmax: reward per size unit at zero latency, CU (Table III: 400).
pub const RMAX: f64 = 400.0;

/// Rpenalty: penalty per size unit per TU of latency, CU (Table III: 15).
pub const RPENALTY: f64 = 15.0;

/// Rscale: the throughput-based reward's scale factor, CU·TU (Table III:
/// 15 000).
pub const RSCALE: f64 = 15_000.0;

/// A task-completion reward function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RewardFn {
    /// `R(d, t) = d(Rmax − t·Rpenalty)`.
    TimeBased {
        /// Reward per size unit at zero latency (Table III: 400 CU).
        rmax: f64,
        /// Penalty per size unit per TU of latency (Table III: 15 CU/TU).
        rpenalty: f64,
    },
    /// `R(d, t) = d·Rscale / t`.
    ThroughputBased {
        /// Scale factor (Table III: 15 000 CU·TU).
        rscale: f64,
    },
    /// §III-A.2's deadline concept: full time-based reward until the
    /// deadline, zero after ("reward falls to zero as the results are
    /// useless thereafter"). Extension beyond Table I.
    Deadline {
        /// Reward per size unit at zero latency.
        rmax: f64,
        /// Penalty per size unit per TU before the deadline.
        rpenalty: f64,
        /// Latency beyond which the result is worthless, TU.
        deadline: f64,
    },
    /// §III-A.2's rapid-completion bonus: reward "slopes upwards before
    /// plateauing when execution is fast enough that the customer is not
    /// willing to pay for more" — i.e. the time-based reward capped at
    /// its value at `plateau` latency. Extension beyond Table I.
    Plateau {
        /// Reward per size unit at zero latency.
        rmax: f64,
        /// Penalty per size unit per TU past the plateau.
        rpenalty: f64,
        /// Latency below which no further reward accrues, TU.
        plateau: f64,
    },
}

impl RewardFn {
    /// Table III's time-based scheme.
    pub fn paper_time_based() -> Self {
        RewardFn::TimeBased { rmax: RMAX, rpenalty: RPENALTY }
    }

    /// Table III's throughput-based scheme.
    pub fn paper_throughput_based() -> Self {
        RewardFn::ThroughputBased { rscale: RSCALE }
    }

    /// Short display name matching Table I's values.
    pub fn name(&self) -> &'static str {
        match self {
            RewardFn::TimeBased { .. } => "time-based",
            RewardFn::ThroughputBased { .. } => "throughput-based",
            RewardFn::Deadline { .. } => "deadline",
            RewardFn::Plateau { .. } => "plateau",
        }
    }

    /// Reward for completing a job of size `d` (units) with total pipeline
    /// latency `t` (TU).
    ///
    /// The time-based scheme can go negative for very late work — that is
    /// the paper's own model ("a constant penalty per unit time the work
    /// is delayed") and is what starves never-scale at heavy load.
    #[inline]
    pub fn reward(&self, d: f64, t: f64) -> f64 {
        assert!(d > 0.0 && t >= 0.0, "size must be positive, latency non-negative");
        match *self {
            RewardFn::TimeBased { rmax, rpenalty } => d * (rmax - t * rpenalty),
            RewardFn::ThroughputBased { rscale } => {
                // Latency can be ~0 only for empty pipelines; guard the
                // division without distorting realistic values.
                d * rscale / t.max(1e-6)
            }
            RewardFn::Deadline { rmax, rpenalty, deadline } => {
                if t > deadline {
                    0.0
                } else {
                    d * (rmax - t * rpenalty)
                }
            }
            RewardFn::Plateau { rmax, rpenalty, plateau } => d * (rmax - t.max(plateau) * rpenalty),
        }
    }

    /// Marginal value (CU per TU) of shaving latency at operating point
    /// `t` — the latency price the plan optimiser trades against core
    /// cost. Computed analytically per scheme.
    #[inline]
    pub fn latency_price(&self, d: f64, t: f64) -> f64 {
        match *self {
            RewardFn::TimeBased { rpenalty, .. } => d * rpenalty,
            RewardFn::ThroughputBased { rscale } => d * rscale / (t * t).max(1e-9),
            RewardFn::Deadline { rmax, rpenalty, deadline } => {
                if t > deadline {
                    // Past the deadline the only value is getting back
                    // under it: price the full reward against the gap.
                    d * rmax / (t - deadline).max(0.1)
                } else {
                    d * rpenalty
                }
            }
            RewardFn::Plateau { rpenalty, plateau, .. } => {
                if t <= plateau {
                    0.0
                } else {
                    d * rpenalty
                }
            }
        }
    }

    /// Reward lost by delaying a job currently estimated to finish at
    /// latency `t` by `delay` more TU: `R(d, t) − R(d, t + delay)` —
    /// the per-job term inside Eq. 1's sum.
    #[inline]
    pub fn delay_loss(&self, d: f64, t: f64, delay: f64) -> f64 {
        assert!(delay >= 0.0);
        self.reward(d, t) - self.reward(d, t + delay)
    }

    /// Whether [`RewardFn::delay_loss`] depends on the job's latency
    /// operating point `t` (its ETT). The time-based scheme's loss is
    /// `d · rpenalty · delay` regardless of `t`, which is what lets
    /// Eq. 1 aggregate it per class as a plain Σd; every other scheme
    /// bends with `t` and needs per-job ETT terms.
    #[inline]
    pub fn depends_on_ett(&self) -> bool {
        !matches!(self, RewardFn::TimeBased { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn time_based_matches_formula() {
        let r = RewardFn::paper_time_based();
        // d=5, t=10: 5 × (400 − 150) = 1250.
        assert!((r.reward(5.0, 10.0) - 1250.0).abs() < 1e-9);
        // Negative past breakeven.
        assert!(r.reward(5.0, 30.0) < 0.0);
    }

    #[test]
    fn throughput_based_matches_formula() {
        let r = RewardFn::paper_throughput_based();
        // d=5, t=50: 5 × 15000 / 50 = 1500.
        assert!((r.reward(5.0, 50.0) - 1500.0).abs() < 1e-9);
        // Halving latency doubles reward.
        assert!((r.reward(5.0, 25.0) - 3000.0).abs() < 1e-9);
    }

    #[test]
    fn delay_loss_time_based_is_linear() {
        let r = RewardFn::paper_time_based();
        // d × rpenalty × delay = 5 × 15 × 2 = 150, independent of t.
        assert!((r.delay_loss(5.0, 10.0, 2.0) - 150.0).abs() < 1e-9);
        assert!((r.delay_loss(5.0, 40.0, 2.0) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn delay_loss_throughput_shrinks_with_t() {
        let r = RewardFn::paper_throughput_based();
        // Delaying an already-slow job costs less than a fast one.
        let fast = r.delay_loss(5.0, 10.0, 2.0);
        let slow = r.delay_loss(5.0, 100.0, 2.0);
        assert!(fast > slow);
        assert!(slow > 0.0);
    }

    #[test]
    fn deadline_scheme() {
        let r = RewardFn::Deadline { rmax: 400.0, rpenalty: 15.0, deadline: 20.0 };
        assert!((r.reward(5.0, 10.0) - 1250.0).abs() < 1e-9, "before the deadline: time-based");
        assert_eq!(r.reward(5.0, 20.5), 0.0, "after the deadline: worthless");
        // Past the deadline the latency price spikes (recovering matters).
        assert!(r.latency_price(5.0, 25.0) > r.latency_price(5.0, 10.0));
    }

    #[test]
    fn plateau_scheme() {
        let r = RewardFn::Plateau { rmax: 400.0, rpenalty: 15.0, plateau: 10.0 };
        // Below the plateau the reward is pinned at its 10-TU value…
        assert_eq!(r.reward(5.0, 5.0), r.reward(5.0, 10.0));
        assert_eq!(r.latency_price(5.0, 8.0), 0.0, "no value in going faster");
        // …and slopes normally above it.
        assert!((r.reward(5.0, 20.0) - 5.0 * (400.0 - 300.0)).abs() < 1e-9);
        assert!((r.latency_price(5.0, 20.0) - 75.0).abs() < 1e-9);
    }

    #[test]
    fn latency_price_matches_slope() {
        // Numeric check of the analytic marginal against a finite
        // difference, for every scheme at an interior point.
        let eps = 1e-6;
        for r in [
            RewardFn::paper_time_based(),
            RewardFn::paper_throughput_based(),
            RewardFn::Deadline { rmax: 400.0, rpenalty: 15.0, deadline: 50.0 },
            RewardFn::Plateau { rmax: 400.0, rpenalty: 15.0, plateau: 5.0 },
        ] {
            let t = 20.0;
            let numeric = (r.reward(5.0, t) - r.reward(5.0, t + eps)) / eps;
            let analytic = r.latency_price(5.0, t);
            assert!(
                (numeric - analytic).abs() < 1e-3 * analytic.abs().max(1.0),
                "{}: numeric {numeric} vs analytic {analytic}",
                r.name()
            );
        }
    }

    #[test]
    fn names() {
        assert_eq!(RewardFn::paper_time_based().name(), "time-based");
        assert_eq!(RewardFn::paper_throughput_based().name(), "throughput-based");
        assert_eq!(
            RewardFn::Deadline { rmax: 1.0, rpenalty: 0.0, deadline: 1.0 }.name(),
            "deadline"
        );
        assert_eq!(RewardFn::Plateau { rmax: 1.0, rpenalty: 0.0, plateau: 1.0 }.name(), "plateau");
    }

    #[test]
    fn only_the_time_based_loss_ignores_ett() {
        assert!(!RewardFn::paper_time_based().depends_on_ett());
        assert!(RewardFn::paper_throughput_based().depends_on_ett());
        assert!(RewardFn::Deadline { rmax: 1.0, rpenalty: 1.0, deadline: 1.0 }.depends_on_ett());
        assert!(RewardFn::Plateau { rmax: 1.0, rpenalty: 1.0, plateau: 1.0 }.depends_on_ett());
        // The claim itself: time-based delay_loss is flat in t.
        let r = RewardFn::paper_time_based();
        assert_eq!(r.delay_loss(5.0, 3.0, 2.0).to_bits(), r.delay_loss(5.0, 99.0, 2.0).to_bits());
    }

    proptest! {
        /// Rewards are non-increasing in latency for both schemes.
        #[test]
        fn prop_monotone_in_latency(d in 0.5f64..20.0, t in 0.01f64..200.0, dt in 0.0f64..50.0) {
            for r in [RewardFn::paper_time_based(), RewardFn::paper_throughput_based()] {
                prop_assert!(r.reward(d, t) >= r.reward(d, t + dt) - 1e-9);
                prop_assert!(r.delay_loss(d, t, dt) >= -1e-9);
            }
        }

        /// Rewards scale linearly with data size.
        #[test]
        fn prop_linear_in_size(d in 0.5f64..10.0, t in 0.1f64..100.0, k in 1.0f64..5.0) {
            for r in [RewardFn::paper_time_based(), RewardFn::paper_throughput_based()] {
                let lhs = r.reward(k * d, t);
                let rhs = k * r.reward(d, t);
                prop_assert!((lhs - rhs).abs() < 1e-6 * rhs.abs().max(1.0));
            }
        }
    }
}
