//! Resource-allocation policies (Table I): how a job's execution plan —
//! per-stage shards and threads — is chosen.
//!
//! * **Best-constant** — one plan, chosen offline for the *mean* job under
//!   steady-state economics, applied to every job ("when every run uses
//!   the same execution plan", §IV-B).
//! * **Greedy** — re-optimises per job against the *instantaneous* state:
//!   today's marginal core price (private if free, else public) and
//!   today's queue overhead. Myopic by construction.
//! * **Long-term** — re-optimises periodically against a steady-state
//!   forecast: the configured arrival rate and a capacity-aware blended
//!   core price (if forecast demand exceeds private capacity, the excess
//!   is priced at public rates).
//! * **Long-term adaptive** — the same solver, but fed *online* estimates:
//!   an observed arrival rate and knowledge-base-refreshed stage models
//!   (the platform supplies both through [`AllocationContext`]).

use crate::plan::{best_plan, ExecutionPlan, PlanObjective, StageCosts};
use scan_sim::SimTime;
use scan_workload::gatk::PipelineModel;
use scan_workload::reward::RewardFn;
use std::sync::Arc;

/// Table I's resource-allocation algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationPolicy {
    /// Per-job myopic optimisation.
    Greedy,
    /// Periodic optimisation against the configured forecast.
    LongTerm,
    /// Periodic optimisation against online estimates.
    LongTermAdaptive,
    /// One offline-chosen plan for every job.
    BestConstant,
    /// §VI's future-work extension: an ε-greedy bandit over candidate
    /// plans, learning from realised profits. Not part of Table I's grid;
    /// the platform drives it through
    /// [`crate::learned::EpsilonGreedyPlanner`].
    Learned,
}

impl AllocationPolicy {
    /// Display name matching Table I.
    pub fn name(&self) -> &'static str {
        match self {
            AllocationPolicy::Greedy => "greedy",
            AllocationPolicy::LongTerm => "long-term",
            AllocationPolicy::LongTermAdaptive => "long-term-adaptive",
            AllocationPolicy::BestConstant => "best-constant",
            AllocationPolicy::Learned => "learned",
        }
    }

    /// All four, for sweeps.
    pub fn all() -> [AllocationPolicy; 4] {
        [
            AllocationPolicy::Greedy,
            AllocationPolicy::LongTerm,
            AllocationPolicy::LongTermAdaptive,
            AllocationPolicy::BestConstant,
        ]
    }
}

/// The world state an allocation decision sees. The platform fills this
/// from live simulation state; which fields a policy *uses* depends on the
/// policy (greedy reads the instantaneous fields, long-term the forecast
/// fields, adaptive the online-estimate fields).
#[derive(Debug, Clone)]
pub struct AllocationContext<'a> {
    /// Stage models to plan against. For long-term-adaptive the platform
    /// passes knowledge-base-refreshed models; otherwise the profiled ones.
    pub model: &'a PipelineModel,
    /// Reward scheme in force.
    pub reward: RewardFn,
    /// Private-tier price, CU per core·TU.
    pub private_price: f64,
    /// Public-tier price, CU per core·TU.
    pub public_price: f64,
    /// Private-tier capacity, cores.
    pub private_capacity: u32,
    /// True if the private tier has free cores *right now* (greedy).
    pub private_free_now: bool,
    /// Current queue overhead Σ EQT_i, TU (greedy).
    pub current_overhead_tu: f64,
    /// Forecast/observed job arrival rate, jobs per TU.
    pub arrival_rate: f64,
    /// Forecast/observed mean job size, units.
    pub mean_job_size: f64,
    /// Long-run queue overhead estimate, TU.
    pub steady_overhead_tu: f64,
}

impl AllocationContext<'_> {
    /// Capacity-aware blended core price for a plan consuming
    /// `work_core_tu` per job at the forecast arrival rate: demand within
    /// private capacity is billed private, the excess public.
    pub fn blended_price(&self, work_core_tu_per_job: f64) -> f64 {
        let demand = self.arrival_rate * work_core_tu_per_job; // cores
        let cap = self.private_capacity as f64;
        if demand <= 0.0 {
            return self.private_price;
        }
        if demand <= cap {
            self.private_price
        } else {
            let private_share = cap / demand;
            self.private_price * private_share + self.public_price * (1.0 - private_share)
        }
    }
}

/// A stateful allocator: policy + cached plan.
#[derive(Debug, Clone)]
pub struct Allocator {
    policy: AllocationPolicy,
    /// Re-optimisation period for the long-term policies, TU.
    recompute_every: f64,
    cached: Option<CachedPlan>,
}

#[derive(Debug, Clone)]
struct CachedPlan {
    plan: Arc<ExecutionPlan>,
    computed_at: SimTime,
}

impl Allocator {
    /// Creates an allocator; long-term policies re-optimise every
    /// `recompute_every` TU (the paper's scheduler "supports a variety of
    /// scaling parameters that the cloud manager can adjust at runtime").
    pub fn new(policy: AllocationPolicy, recompute_every: f64) -> Self {
        assert!(recompute_every > 0.0);
        Allocator { policy, recompute_every, cached: None }
    }

    /// The policy.
    pub fn policy(&self) -> AllocationPolicy {
        self.policy
    }

    /// Chooses the plan for a job of `size_units` submitted at `now`. The
    /// policies that cache a plan hand out shared handles on it, so a
    /// cached plan is never copied per job.
    // scan-lint: allow(hot-inline) -- runs once per admitted job, and its plan search outweighs the call
    pub fn plan_for(
        &mut self,
        size_units: f64,
        now: SimTime,
        ctx: &AllocationContext<'_>,
    ) -> Arc<ExecutionPlan> {
        match self.policy {
            AllocationPolicy::Greedy => {
                let price = if ctx.private_free_now { ctx.private_price } else { ctx.public_price };
                let objective = PlanObjective {
                    reward: ctx.reward,
                    price_per_core_tu: price,
                    overhead_tu: ctx.current_overhead_tu,
                };
                Arc::new(best_plan(ctx.model, size_units, &objective))
            }
            AllocationPolicy::LongTerm | AllocationPolicy::LongTermAdaptive => {
                let stale = match &self.cached {
                    None => true,
                    Some(c) => (now - c.computed_at).as_tu() >= self.recompute_every,
                };
                if stale {
                    let plan = Arc::new(self.steady_state_plan(ctx));
                    self.cached = Some(CachedPlan { plan, computed_at: now });
                }
                Arc::clone(&self.cached.as_ref().expect("just populated").plan)
            }
            // The bandit lives at the platform level (it needs an RNG and
            // per-job profit feedback); if asked directly, fall back to
            // the best-constant baseline.
            AllocationPolicy::BestConstant | AllocationPolicy::Learned => {
                if self.cached.is_none() {
                    let plan = Arc::new(best_constant_plan(ctx));
                    self.cached = Some(CachedPlan { plan, computed_at: now });
                }
                Arc::clone(&self.cached.as_ref().expect("just populated").plan)
            }
        }
    }

    /// Steady-state optimisation for the long-term policies: solve at the
    /// private price, check forecast demand, re-solve at the blended
    /// price (one fixed-point refinement is enough because the blended
    /// price is monotone in plan work).
    fn steady_state_plan(&self, ctx: &AllocationContext<'_>) -> ExecutionPlan {
        let costs = StageCosts::new(ctx.model, ctx.mean_job_size);
        let mut price = ctx.private_price;
        let mut plan = ExecutionPlan::serial(ctx.model.n_stages());
        for _ in 0..3 {
            let objective = PlanObjective {
                reward: ctx.reward,
                price_per_core_tu: price,
                overhead_tu: ctx.steady_overhead_tu,
            };
            plan = costs.best_plan(&objective);
            let work = costs.work(&plan);
            let new_price = ctx.blended_price(work);
            if (new_price - price).abs() < 1e-9 {
                break;
            }
            price = new_price;
        }
        plan
    }
}

/// Offline best-constant search: evaluate the candidate spectrum under
/// steady-state economics and keep the most profitable plan. One
/// [`StageCosts`] table serves both the candidate search and the scoring.
pub fn best_constant_plan(ctx: &AllocationContext<'_>) -> ExecutionPlan {
    let costs = StageCosts::new(ctx.model, ctx.mean_job_size);
    let mut best: Option<(f64, ExecutionPlan)> = None;
    for plan in costs.candidates() {
        let work = costs.work(&plan);
        let objective = PlanObjective {
            reward: ctx.reward,
            price_per_core_tu: ctx.blended_price(work),
            overhead_tu: ctx.steady_overhead_tu,
        };
        let econ = costs.evaluate(&plan, &objective);
        match &best {
            Some((p, _)) if *p >= econ.profit => {}
            _ => best = Some((econ.profit, plan)),
        }
    }
    best.expect("candidate set is non-empty").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::evaluate_plan;

    fn ctx(model: &PipelineModel) -> AllocationContext<'_> {
        AllocationContext {
            model,
            reward: RewardFn::paper_time_based(),
            private_price: 5.0,
            public_price: 50.0,
            private_capacity: 624,
            private_free_now: true,
            current_overhead_tu: 1.0,
            arrival_rate: 1.0,
            mean_job_size: 5.0,
            steady_overhead_tu: 1.0,
        }
    }

    #[test]
    fn blended_price_kinks_at_capacity() {
        let m = PipelineModel::paper();
        let c = ctx(&m);
        // demand = rate × work; capacity 624.
        assert_eq!(c.blended_price(600.0), 5.0);
        assert_eq!(c.blended_price(624.0), 5.0);
        let over = c.blended_price(1248.0); // demand 2× capacity
        assert!((over - (5.0 * 0.5 + 50.0 * 0.5)).abs() < 1e-9);
        assert_eq!(c.blended_price(0.0), 5.0);
    }

    #[test]
    fn greedy_uses_instantaneous_price() {
        let m = PipelineModel::paper();
        let mut alloc = Allocator::new(AllocationPolicy::Greedy, 50.0);
        let mut c = ctx(&m);
        let cheap = alloc.plan_for(5.0, SimTime::ZERO, &c);
        c.private_free_now = false;
        let pricey = alloc.plan_for(5.0, SimTime::ZERO, &c);
        assert!(
            pricey.total_core_stages() <= cheap.total_core_stages(),
            "greedy must shrink plans when only public cores are available"
        );
    }

    #[test]
    fn long_term_caches_until_period_expires() {
        let m = PipelineModel::paper();
        let mut alloc = Allocator::new(AllocationPolicy::LongTerm, 50.0);
        let mut c = ctx(&m);
        let p1 = alloc.plan_for(5.0, SimTime::new(0.0), &c);
        // Change the context radically — the cached plan must survive
        // inside the period...
        c.arrival_rate = 100.0;
        let p2 = alloc.plan_for(5.0, SimTime::new(10.0), &c);
        assert_eq!(p1, p2);
        // ...and refresh after it.
        let p3 = alloc.plan_for(5.0, SimTime::new(51.0), &c);
        assert!(
            p3.total_core_stages() <= p1.total_core_stages(),
            "saturating demand must not grow the plan"
        );
    }

    #[test]
    fn best_constant_is_constant() {
        let m = PipelineModel::paper();
        let mut alloc = Allocator::new(AllocationPolicy::BestConstant, 50.0);
        let c = ctx(&m);
        let p1 = alloc.plan_for(5.0, SimTime::new(0.0), &c);
        let p2 = alloc.plan_for(2.0, SimTime::new(500.0), &c);
        let p3 = alloc.plan_for(8.0, SimTime::new(9000.0), &c);
        assert_eq!(p1, p2);
        assert_eq!(p2, p3);
    }

    #[test]
    fn best_constant_beats_serial() {
        let m = PipelineModel::paper();
        let c = ctx(&m);
        let plan = best_constant_plan(&c);
        let objective =
            PlanObjective { reward: c.reward, price_per_core_tu: 5.0, overhead_tu: 1.0 };
        let chosen = evaluate_plan(&m, 5.0, &plan, &objective);
        let serial = evaluate_plan(&m, 5.0, &ExecutionPlan::serial(7), &objective);
        assert!(chosen.profit > serial.profit);
    }

    #[test]
    fn adaptive_reacts_to_observed_rate() {
        let m = PipelineModel::paper();
        let mut quiet_alloc = Allocator::new(AllocationPolicy::LongTermAdaptive, 50.0);
        let mut busy_alloc = Allocator::new(AllocationPolicy::LongTermAdaptive, 50.0);
        let mut c = ctx(&m);
        c.arrival_rate = 0.2; // quiet: demand well under capacity
        let quiet = quiet_alloc.plan_for(5.0, SimTime::ZERO, &c);
        c.arrival_rate = 20.0; // heavy: forecast demand far over capacity
        let busy = busy_alloc.plan_for(5.0, SimTime::ZERO, &c);
        assert!(
            busy.total_core_stages() < quiet.total_core_stages(),
            "under forecast saturation the adaptive plan must economise ({} vs {})",
            busy.total_core_stages(),
            quiet.total_core_stages()
        );
    }

    #[test]
    fn names_match_table_i() {
        assert_eq!(AllocationPolicy::Greedy.name(), "greedy");
        assert_eq!(AllocationPolicy::LongTerm.name(), "long-term");
        assert_eq!(AllocationPolicy::LongTermAdaptive.name(), "long-term-adaptive");
        assert_eq!(AllocationPolicy::BestConstant.name(), "best-constant");
        assert_eq!(AllocationPolicy::all().len(), 4);
    }
}
