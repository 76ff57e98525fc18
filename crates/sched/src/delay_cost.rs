//! Eq. 1 — the delay cost of postponing a queue.
//!
//! `DC(delay) = Σ_{j ∈ Q} [ R(ETT(j), recs_j) − R(ETT(j) + delay, recs_j) ]`
//!
//! i.e. the total reward the platform forfeits if everything currently in
//! a queue slips by `delay` time units. The predictive scaling policy
//! hires a public worker exactly when this exceeds the hire cost.

use scan_workload::reward::RewardFn;

/// What Eq. 1 needs to know about one queued job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueuedJobView {
    /// Job input size in units (the reward's `d`; proportional to records).
    pub size_units: f64,
    /// Current `ETT(j)` estimate, TU.
    pub ett: f64,
}

/// Eq. 1: total reward lost by delaying every job in `queue` by `delay`.
///
/// # Panics
/// Panics on negative `delay`.
// scan-lint: allow(hot-inline) -- the naive Eq. 1 oracle; only debug builds call it
pub fn delay_cost(reward: &RewardFn, queue: &[QueuedJobView], delay: f64) -> f64 {
    assert!(delay >= 0.0, "delay must be non-negative");
    queue.iter().map(|j| reward.delay_loss(j.size_units, j.ett.max(0.0), delay)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn q(entries: &[(f64, f64)]) -> Vec<QueuedJobView> {
        entries.iter().map(|&(size_units, ett)| QueuedJobView { size_units, ett }).collect()
    }

    #[test]
    fn empty_queue_costs_nothing() {
        let r = RewardFn::paper_time_based();
        assert_eq!(delay_cost(&r, &[], 5.0), 0.0);
    }

    #[test]
    fn time_based_cost_is_size_weighted_linear() {
        let r = RewardFn::paper_time_based();
        let queue = q(&[(5.0, 10.0), (2.0, 30.0)]);
        // (5 + 2) × 15 × delay — ETT does not matter for the linear scheme.
        let dc = delay_cost(&r, &queue, 2.0);
        assert!((dc - 7.0 * 15.0 * 2.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_cost_weights_fast_jobs_more() {
        let r = RewardFn::paper_throughput_based();
        let fast_queue = q(&[(5.0, 10.0)]);
        let slow_queue = q(&[(5.0, 100.0)]);
        assert!(delay_cost(&r, &fast_queue, 1.0) > delay_cost(&r, &slow_queue, 1.0));
    }

    #[test]
    fn zero_delay_zero_cost() {
        for r in [RewardFn::paper_time_based(), RewardFn::paper_throughput_based()] {
            let queue = q(&[(5.0, 10.0), (3.0, 20.0)]);
            assert!(delay_cost(&r, &queue, 0.0).abs() < 1e-9);
        }
    }

    proptest! {
        /// Delay cost is non-negative and monotone in delay for both
        /// reward schemes.
        #[test]
        fn prop_monotone(
            entries in proptest::collection::vec((1.0f64..10.0, 0.5f64..100.0), 0..20),
            d1 in 0.0f64..20.0,
            d2 in 0.0f64..20.0,
        ) {
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            for r in [RewardFn::paper_time_based(), RewardFn::paper_throughput_based()] {
                let queue = q(&entries);
                let a = delay_cost(&r, &queue, lo);
                let b = delay_cost(&r, &queue, hi);
                prop_assert!(a >= -1e-9);
                prop_assert!(b >= a - 1e-9, "cost must grow with delay");
            }
        }

        /// Delay cost is additive over queue partitions.
        #[test]
        fn prop_additive(
            entries in proptest::collection::vec((1.0f64..10.0, 0.5f64..100.0), 2..20),
            split in 1usize..19,
            delay in 0.0f64..10.0,
        ) {
            let split = split.min(entries.len() - 1);
            let r = RewardFn::paper_time_based();
            let all = q(&entries);
            let (a, b) = all.split_at(split);
            let whole = delay_cost(&r, &all, delay);
            let parts = delay_cost(&r, a, delay) + delay_cost(&r, b, delay);
            prop_assert!((whole - parts).abs() < 1e-6);
        }
    }
}
