//! Horizontal-scaling policies (Table I).
//!
//! "Should a worker be hired from the elastic cloud to run it immediately,
//! or should it be delayed until an existing worker becomes available?"
//! (§III-A.2). Private capacity is always used first — it is strictly
//! cheaper, so a private hire is never priced or vetoed. The policies
//! differ only in what happens once the private tier is full:
//!
//! * **Always-scale** — hire a public worker whenever a task would wait.
//! * **Never-scale** — never pay public prices; wait for a private worker.
//! * **Predictive** — hire iff the Eq. 1 delay cost of the projected wait
//!   exceeds the cost of the hire.
//!
//! [`ScalingPolicy::decide_priced`] returns each decision with the Eq. 1
//! numbers that justified it (NaN for a private hire and for the two
//! unconditional policies); the platform narrates each decision to the
//! sim-trace layer with them — the paper's core comparison made
//! observable.

use crate::queue::Eq1Pricer;
use scan_workload::reward::RewardFn;

/// Table I's horizontal-scaling algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingPolicy {
    /// Hire whenever a task would otherwise wait.
    AlwaysScale,
    /// Only ever use the private tier.
    NeverScale,
    /// Compare delay cost (Eq. 1) with hire cost.
    Predictive,
}

impl ScalingPolicy {
    /// Display name matching Table I.
    pub fn name(&self) -> &'static str {
        match self {
            ScalingPolicy::AlwaysScale => "always-scale",
            ScalingPolicy::NeverScale => "never-scale",
            ScalingPolicy::Predictive => "predictive",
        }
    }

    /// All three, for sweeps.
    pub fn all() -> [ScalingPolicy; 3] {
        [ScalingPolicy::Predictive, ScalingPolicy::AlwaysScale, ScalingPolicy::NeverScale]
    }
}

/// Everything a scaling decision sees. Borrows the stalled class's
/// incremental Eq. 1 pricing window from the caller — decisions read a
/// few cached per-job terms instead of a per-dispatch queue walk.
#[derive(Debug, Clone)]
pub struct ScalingContext<'a> {
    /// True if the private tier can host the needed shape right now.
    pub private_has_capacity: bool,
    /// Eq. 1 pricer over the stalled class (Eq. 1's `Q`, aggregated).
    pub eq1: Eq1Pricer<'a>,
    /// Projected wait until an existing worker frees up, TU.
    pub expected_wait_tu: f64,
    /// Public price per core·TU.
    pub public_price_per_core_tu: f64,
    /// Cores the new worker would need.
    pub cores_needed: u32,
    /// Boot penalty a new hire pays, TU.
    pub boot_penalty_tu: f64,
    /// Expected run time of the head task, TU.
    pub expected_task_tu: f64,
    /// The reward scheme in force.
    pub reward: RewardFn,
}

/// The decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalingDecision {
    /// Hire from the private tier (free capacity exists).
    HirePrivate,
    /// Hire from the public tier.
    HirePublic,
    /// Let the task wait for an existing worker.
    Wait,
}

/// The Eq. 1 numbers behind a decision. Both are NaN when the deciding
/// branch never priced the alternatives (private capacity was free, or
/// the policy decides unconditionally).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionCosts {
    /// Eq. 1 delay cost of waiting out the projected delay (CU).
    pub delay_cost: f64,
    /// Cost of hiring capacity for boot + one task (CU).
    pub hire_cost: f64,
}

impl DecisionCosts {
    /// The "no comparison was made" marker.
    pub const UNPRICED: DecisionCosts = DecisionCosts { delay_cost: f64::NAN, hire_cost: f64::NAN };
}

impl ScalingPolicy {
    /// Decides for one stalled queue head, and reports the
    /// delay-cost-versus-hire-cost comparison that justified the decision
    /// (Eq. 1; NaN when unpriced).
    #[inline]
    pub fn decide_priced(&self, ctx: &ScalingContext<'_>) -> (ScalingDecision, DecisionCosts) {
        if ctx.private_has_capacity {
            // All policies use cheap private capacity when it exists —
            // never-scale means "never scale *beyond the private tier*".
            return (ScalingDecision::HirePrivate, DecisionCosts::UNPRICED);
        }
        match self {
            ScalingPolicy::AlwaysScale => (ScalingDecision::HirePublic, DecisionCosts::UNPRICED),
            ScalingPolicy::NeverScale => (ScalingDecision::Wait, DecisionCosts::UNPRICED),
            ScalingPolicy::Predictive => {
                // What the queue loses by waiting for an existing worker
                // (the new hire still pays the boot penalty, so the
                // avoided delay is wait − boot, floored at zero).
                let avoided_delay = (ctx.expected_wait_tu - ctx.boot_penalty_tu).max(0.0);
                let dc = ctx.eq1.delay_cost(&ctx.reward, avoided_delay);
                // What the hire costs: public cores for boot + the task.
                let hire_cost = ctx.public_price_per_core_tu
                    * ctx.cores_needed as f64
                    * (ctx.boot_penalty_tu + ctx.expected_task_tu);
                let decision = if dc > hire_cost {
                    ScalingDecision::HirePublic
                } else {
                    ScalingDecision::Wait
                };
                (decision, DecisionCosts { delay_cost: dc, hire_cost })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{ClassQueues, TaskClass};
    use scan_sim::SimTime;

    const CLASS: TaskClass = TaskClass { stage: 0, cores: 4 };

    /// `len` queued single-shard jobs of size 5 (the old fixture's
    /// shape); the reward is time-based, so ETT terms are irrelevant.
    fn queue(len: usize) -> ClassQueues {
        let mut q = ClassQueues::new();
        for i in 0..len {
            q.push_batch(CLASS, i as u32, 1, 5.0, SimTime::ZERO, SimTime::ZERO);
        }
        q
    }

    fn ctx(private: bool, wait: f64, queues: &ClassQueues) -> ScalingContext<'_> {
        let eq1 = queues.pricer(CLASS, 0, 256, SimTime::ZERO);
        ScalingContext {
            private_has_capacity: private,
            eq1,
            expected_wait_tu: wait,
            public_price_per_core_tu: 50.0,
            cores_needed: 4,
            boot_penalty_tu: 0.5,
            expected_task_tu: 3.0,
            reward: RewardFn::paper_time_based(),
        }
    }

    #[test]
    fn everyone_prefers_private() {
        let q = queue(5);
        for p in ScalingPolicy::all() {
            assert_eq!(p.decide_priced(&ctx(true, 10.0, &q)).0, ScalingDecision::HirePrivate);
        }
    }

    #[test]
    fn always_scale_always_hires_public() {
        let q = queue(0);
        assert_eq!(
            ScalingPolicy::AlwaysScale.decide_priced(&ctx(false, 0.1, &q)).0,
            ScalingDecision::HirePublic
        );
    }

    #[test]
    fn never_scale_always_waits() {
        let q = queue(50);
        assert_eq!(
            ScalingPolicy::NeverScale.decide_priced(&ctx(false, 100.0, &q)).0,
            ScalingDecision::Wait
        );
    }

    #[test]
    fn predictive_hires_under_pressure() {
        // Long wait, deep queue: delay cost = 20 jobs × 5 units × 15 ×
        // (10 − 0.5) ≈ 14 250 ≫ hire cost 50 × 4 × 3.5 = 700.
        let q = queue(20);
        assert_eq!(
            ScalingPolicy::Predictive.decide_priced(&ctx(false, 10.0, &q)).0,
            ScalingDecision::HirePublic
        );
    }

    #[test]
    fn predictive_waits_when_cheap() {
        // Tiny wait: avoided delay ≈ 0 → cost of waiting ≈ 0 < hire cost.
        let q = queue(20);
        assert_eq!(
            ScalingPolicy::Predictive.decide_priced(&ctx(false, 0.4, &q)).0,
            ScalingDecision::Wait
        );
        // Empty queue: nothing to lose by waiting.
        let empty = queue(0);
        assert_eq!(
            ScalingPolicy::Predictive.decide_priced(&ctx(false, 10.0, &empty)).0,
            ScalingDecision::Wait
        );
    }

    #[test]
    fn predictive_threshold_scales_with_price() {
        // A wait that justifies hiring at 50 CU may not at 1000 CU:
        // DC = 3 × 5 × 15 × (5 − 0.5) ≈ 1012 vs hire 50 × 4 × 3.5 = 700.
        let q = queue(3);
        let mut c = ctx(false, 5.0, &q);
        assert_eq!(ScalingPolicy::Predictive.decide_priced(&c).0, ScalingDecision::HirePublic);
        c.public_price_per_core_tu = 1000.0;
        assert_eq!(ScalingPolicy::Predictive.decide_priced(&c).0, ScalingDecision::Wait);
    }

    #[test]
    fn priced_decision_exposes_the_eq1_comparison() {
        let q = queue(20);
        let (d, costs) = ScalingPolicy::Predictive.decide_priced(&ctx(false, 10.0, &q));
        assert_eq!(d, ScalingDecision::HirePublic);
        assert!(costs.delay_cost > costs.hire_cost);
        assert!((costs.hire_cost - 50.0 * 4.0 * 3.5).abs() < 1e-9);
        // Unpriced branches report NaN.
        let (_, unpriced) = ScalingPolicy::AlwaysScale.decide_priced(&ctx(false, 1.0, &q));
        assert!(unpriced.delay_cost.is_nan() && unpriced.hire_cost.is_nan());
    }

    #[test]
    fn names_match_table_i() {
        assert_eq!(ScalingPolicy::AlwaysScale.name(), "always-scale");
        assert_eq!(ScalingPolicy::NeverScale.name(), "never-scale");
        assert_eq!(ScalingPolicy::Predictive.name(), "predictive");
    }
}
