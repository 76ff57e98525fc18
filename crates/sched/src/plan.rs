//! Execution plans and the plan optimiser.
//!
//! A plan fixes, per pipeline stage, how many shards the Data Broker cuts
//! the stage input into and how many threads each shard task uses ("the
//! degree of multi-threading must be chosen when the stage starts … but
//! can differ from pipeline stage to stage", §IV-1). The allocator
//! searches this space for the profit-maximising plan:
//!
//! * Under the **time-based** reward, profit is *separable per stage*
//!   (`R = d·Rmax − d·Rpenalty·Σ lat_i − price·Σ work_i`), so optimising
//!   each stage independently is exact.
//! * Under the **throughput-based** reward (`d·Rscale / Σ lat_i`), the
//!   solver iterates: linearise the reward around the current total
//!   latency (marginal value of a saved TU = `d·Rscale / T²`), solve the
//!   separable problem at that latency price, recompute `T`, repeat to a
//!   fixed point (converges in a handful of iterations because the
//!   marginal price is monotone in `T`).

use scan_cloud::instance::INSTANCE_SIZES;
use scan_workload::gatk::{stage_shardable, PipelineModel};
use scan_workload::reward::RewardFn;

/// Shard counts the optimiser considers for shardable stages.
pub const SHARD_OPTIONS: [u32; 8] = [1, 2, 3, 4, 6, 8, 12, 16];

/// A per-stage `(shards, threads)` execution plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ExecutionPlan {
    /// Plan entries, index 0 = stage 1.
    pub stages: Vec<(u32, u32)>,
}

impl ExecutionPlan {
    /// The trivial serial plan: one shard, one thread everywhere.
    pub fn serial(n_stages: usize) -> Self {
        ExecutionPlan { stages: vec![(1, 1); n_stages] }
    }

    /// Builds a plan from entries.
    ///
    /// # Panics
    /// Panics if a thread count is not an instance size, a shard count is
    /// zero, or the last stage is sharded.
    pub fn new(stages: Vec<(u32, u32)>) -> Self {
        assert!(!stages.is_empty());
        for (i, &(s, t)) in stages.iter().enumerate() {
            assert!(s >= 1, "stage {} has zero shards", i + 1);
            assert!(
                INSTANCE_SIZES.contains(&t),
                "stage {} thread count {} is not an instance size",
                i + 1,
                t
            );
            if !stage_shardable(i) && i == stages.len() - 1 {
                assert!(s == 1, "the gather stage cannot be sharded");
            }
        }
        ExecutionPlan { stages }
    }

    /// Number of stages.
    pub fn n_stages(&self) -> usize {
        self.stages.len()
    }

    /// Entry for a stage.
    pub fn stage(&self, i: usize) -> (u32, u32) {
        self.stages[i]
    }

    /// Σ shards·threads — the paper's "total core-stages per pipeline
    /// run" (Fig. 5's x-axis).
    #[inline]
    pub fn total_core_stages(&self) -> u32 {
        self.stages.iter().map(|&(s, t)| s * t).sum()
    }

    /// No-queue pipeline latency under this plan.
    pub fn latency(&self, model: &PipelineModel, size_units: f64) -> f64 {
        model.pipeline_latency(size_units, &self.stages)
    }

    /// Core·TU consumed under this plan.
    pub fn core_tu(&self, model: &PipelineModel, size_units: f64) -> f64 {
        model.pipeline_core_tu(size_units, &self.stages)
    }
}

/// What the optimiser optimises against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanObjective {
    /// The reward scheme in force.
    pub reward: RewardFn,
    /// Expected price of a core·TU (private, public, or a load-weighted
    /// blend — the allocator decides).
    pub price_per_core_tu: f64,
    /// Expected non-execution latency added to the pipeline (queueing,
    /// boot waits); charged to the reward but not to the plan's work.
    pub overhead_tu: f64,
}

/// The economics of one plan at one job size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanEconomics {
    /// Execution latency, TU (excluding overhead).
    pub exec_latency: f64,
    /// Total latency including overhead.
    pub total_latency: f64,
    /// Core·TU of work.
    pub work_core_tu: f64,
    /// Infrastructure cost at the objective's price.
    pub cost: f64,
    /// Reward at the total latency.
    pub reward: f64,
    /// Reward − cost.
    pub profit: f64,
}

/// Evaluates a plan against an objective.
pub fn evaluate_plan(
    model: &PipelineModel,
    size_units: f64,
    plan: &ExecutionPlan,
    objective: &PlanObjective,
) -> PlanEconomics {
    let exec_latency = plan.latency(model, size_units);
    let total_latency = exec_latency + objective.overhead_tu;
    let work_core_tu = plan.core_tu(model, size_units);
    let cost = work_core_tu * objective.price_per_core_tu;
    let reward = objective.reward.reward(size_units, total_latency);
    PlanEconomics { exec_latency, total_latency, work_core_tu, cost, reward, profit: reward - cost }
}

/// Shard options of a stage: every [`SHARD_OPTIONS`] entry if the stage
/// is shardable, else one shard.
fn shard_options(stage: usize) -> &'static [u32] {
    if stage_shardable(stage) {
        &SHARD_OPTIONS
    } else {
        &SHARD_OPTIONS[..1]
    }
}

/// Table entries per stage: one per `(shards, threads)` pair.
const ENTRIES_PER_STAGE: usize = SHARD_OPTIONS.len() * INSTANCE_SIZES.len();

/// Every stage's `(shards, threads) → (latency, work)` at one job size,
/// each priced once.
///
/// A plan search visits the same 245 entries at every latency price it
/// tries (ten for [`candidate_plans`], a handful of fixed-point steps for
/// [`StageCosts::best_plan`]), so the model is evaluated once per entry
/// here and every price point reads the table. `latency` is
/// [`PipelineModel::stage_latency`] and `work` is `s·t·latency` from the
/// same bits, exactly [`PipelineModel::stage_core_tu`]; sums over a plan
/// add stages in order, as [`PipelineModel::pipeline_latency`] does, so
/// every number a search derives is bit-identical to evaluating the model.
#[derive(Debug, Clone)]
pub struct StageCosts<'m> {
    model: &'m PipelineModel,
    size_units: f64,
    /// `(latency, work)`, stage-major, `ENTRIES_PER_STAGE` per stage
    /// indexed `shard index · INSTANCE_SIZES.len() + thread index`; an
    /// unshardable stage fills only its one-shard row.
    entries: Vec<(f64, f64)>,
}

/// `(latency, work)` of one stage entry, straight from the model.
fn price(model: &PipelineModel, stage: usize, size_units: f64, s: u32, t: u32) -> (f64, f64) {
    let lat = model.stage_latency(stage, size_units, s, t);
    (lat, s as f64 * t as f64 * lat)
}

impl<'m> StageCosts<'m> {
    /// Prices every stage entry of `model` for a job of `size_units`.
    pub fn new(model: &'m PipelineModel, size_units: f64) -> Self {
        let n = model.n_stages();
        let mut entries = vec![(f64::NAN, f64::NAN); n * ENTRIES_PER_STAGE];
        for stage in 0..n {
            let row = &mut entries[stage * ENTRIES_PER_STAGE..(stage + 1) * ENTRIES_PER_STAGE];
            for (si, &s) in shard_options(stage).iter().enumerate() {
                for (ti, &t) in INSTANCE_SIZES.iter().enumerate() {
                    row[si * INSTANCE_SIZES.len() + ti] = price(model, stage, size_units, s, t);
                }
            }
        }
        StageCosts { model, size_units, entries }
    }

    fn n_stages(&self) -> usize {
        self.entries.len() / ENTRIES_PER_STAGE
    }

    /// `(latency, work)` of one stage entry: read from the table, or, for
    /// an entry outside the search's options (a shard count off
    /// [`SHARD_OPTIONS`], say), priced from the model the same way.
    fn cost(&self, stage: usize, (s, t): (u32, u32)) -> (f64, f64) {
        let si = shard_options(stage).iter().position(|&x| x == s);
        let ti = INSTANCE_SIZES.iter().position(|&x| x == t);
        match (si, ti) {
            (Some(si), Some(ti)) => {
                self.entries[stage * ENTRIES_PER_STAGE + si * INSTANCE_SIZES.len() + ti]
            }
            _ => price(self.model, stage, self.size_units, s, t),
        }
    }

    /// No-queue latency of `plan`: [`ExecutionPlan::latency`] from the
    /// table.
    pub fn latency(&self, plan: &ExecutionPlan) -> f64 {
        plan.stages.iter().enumerate().map(|(i, &e)| self.cost(i, e).0).sum()
    }

    /// Core·TU of `plan`: [`ExecutionPlan::core_tu`] from the table.
    pub fn work(&self, plan: &ExecutionPlan) -> f64 {
        plan.stages.iter().enumerate().map(|(i, &e)| self.cost(i, e).1).sum()
    }

    /// [`evaluate_plan`] from the table.
    pub fn evaluate(&self, plan: &ExecutionPlan, objective: &PlanObjective) -> PlanEconomics {
        let exec_latency = self.latency(plan);
        let total_latency = exec_latency + objective.overhead_tu;
        let work_core_tu = self.work(plan);
        let cost = work_core_tu * objective.price_per_core_tu;
        let reward = objective.reward.reward(self.size_units, total_latency);
        PlanEconomics {
            exec_latency,
            total_latency,
            work_core_tu,
            cost,
            reward,
            profit: reward - cost,
        }
    }

    /// For each `(latency_price, core_price)`, the plan minimising
    /// `latency_price · lat + core_price · work` in every stage. An entry
    /// must undercut the best so far by more than 1e-12, so ties go to the
    /// earlier entry (fewer shards, then fewer threads). All `K` price
    /// points share one pass over the table: each entry is priced at every
    /// point at once, and only an entry that undercuts some point's best
    /// goes through the per-point update.
    fn optimal_plans<const K: usize>(&self, prices: [(f64, f64); K]) -> [ExecutionPlan; K] {
        let n = INSTANCE_SIZES.len();
        let (latency_price, core_price) = (prices.map(|p| p.0), prices.map(|p| p.1));
        let mut plans: [Vec<(u32, u32)>; K] =
            std::array::from_fn(|_| Vec::with_capacity(self.n_stages()));
        for (stage, row) in self.entries.chunks_exact(ENTRIES_PER_STAGE).enumerate() {
            let shards = shard_options(stage);
            let mut best = [0usize; K];
            // Best cost so far minus the tie margin, per price point.
            let mut threshold = [f64::INFINITY; K];
            for (e, &(lat, work)) in row[..shards.len() * n].iter().enumerate() {
                let cost: [f64; K] =
                    std::array::from_fn(|k| latency_price[k] * lat + core_price[k] * work);
                if (0..K).fold(false, |any, k| any | (cost[k] < threshold[k])) {
                    for k in 0..K {
                        if cost[k] < threshold[k] {
                            threshold[k] = cost[k] - 1e-12;
                            best[k] = e;
                        }
                    }
                }
            }
            for (plan, e) in plans.iter_mut().zip(best) {
                plan.push((shards[e / n], INSTANCE_SIZES[e % n]));
            }
        }
        plans.map(ExecutionPlan::new)
    }

    /// [`best_plan`] over the table.
    pub fn best_plan(&self, objective: &PlanObjective) -> ExecutionPlan {
        let mut plan = ExecutionPlan::serial(self.n_stages());
        let mut best = (self.evaluate(&plan, objective).profit, plan.clone());
        let mut last_latency = f64::INFINITY;
        for _ in 0..12 {
            let total = self.latency(&plan) + objective.overhead_tu;
            if (total - last_latency).abs() < 1e-9 {
                break;
            }
            last_latency = total;
            let latency_price = objective.reward.latency_price(self.size_units, total.max(1e-3));
            [plan] = self.optimal_plans([(latency_price, objective.price_per_core_tu)]);
            let profit = self.evaluate(&plan, objective).profit;
            if profit > best.0 {
                best = (profit, plan.clone());
            }
        }
        best.1
    }

    /// [`candidate_plans`] over the table.
    pub fn candidates(&self) -> Vec<ExecutionPlan> {
        // Optimal plans at a ladder of latency prices (cheap to expensive
        // latency), at private and public core prices.
        const LATENCY_PRICES: [f64; 5] = [5.0, 20.0, 75.0, 200.0, 600.0];
        let prices: [(f64, f64); 10] =
            std::array::from_fn(|k| (LATENCY_PRICES[k % 5], if k < 5 { 5.0 } else { 50.0 }));
        let mut plans = vec![ExecutionPlan::serial(self.n_stages())];
        for p in self.optimal_plans(prices) {
            if !plans.contains(&p) {
                plans.push(p);
            }
        }
        plans
    }
}

/// Finds the profit-maximising plan for a job of `size_units`.
///
/// Works for every reward shape via iterated linearisation: the reward's
/// marginal latency price ([`RewardFn::latency_price`]) at the current
/// operating point drives a separable per-stage solve; constant-price
/// schemes (time-based) converge in one step, curved or kinked schemes
/// (throughput, deadline, plateau) in a handful. The best plan *seen*
/// across iterations (by realised profit) is returned, which also makes
/// kinked schemes that oscillate around their knee safe.
pub fn best_plan(
    model: &PipelineModel,
    size_units: f64,
    objective: &PlanObjective,
) -> ExecutionPlan {
    StageCosts::new(model, size_units).best_plan(objective)
}

/// Grows an efficient frontier of plans from the serial plan by greedy
/// marginal upgrades: at each step, the single change (one more shard on a
/// shardable stage, or the next instance shape) with the best latency
/// saved per added core-stage. Used by the Fig. 5 ladder and useful for
/// any "how much parallelism is worth it" exploration.
pub fn plan_frontier(
    model: &PipelineModel,
    size_units: f64,
    max_core_stages: u32,
) -> Vec<ExecutionPlan> {
    let n = model.n_stages();
    let mut plan = ExecutionPlan::serial(n);
    let mut out = vec![plan.clone()];
    loop {
        let cur_lat = plan.latency(model, size_units);
        let cur_cs = plan.total_core_stages();
        if cur_cs >= max_core_stages {
            break;
        }
        let mut best: Option<(f64, ExecutionPlan)> = None;
        for i in 0..n {
            let (s, t) = plan.stage(i);
            let mut candidates = Vec::new();
            if stage_shardable(i) && s < 16 {
                candidates.push((s + 1, t));
            }
            if let Some(&next_t) = INSTANCE_SIZES.iter().find(|&&x| x > t) {
                candidates.push((s, next_t));
            }
            for (ns, nt) in candidates {
                let mut stages = plan.stages.clone();
                stages[i] = (ns, nt);
                let cand = ExecutionPlan::new(stages);
                let d_cs = cand.total_core_stages().saturating_sub(cur_cs);
                if d_cs == 0 {
                    continue;
                }
                let saved = cur_lat - cand.latency(model, size_units);
                if saved <= 1e-9 {
                    continue;
                }
                let score = saved / d_cs as f64;
                match &best {
                    Some((b, _)) if *b >= score => {}
                    _ => best = Some((score, cand)),
                }
            }
        }
        match best {
            Some((_, next)) => {
                plan = next;
                out.push(plan.clone());
            }
            None => break,
        }
    }
    out
}

/// A small, diverse candidate set spanning the conservative-to-aggressive
/// spectrum — used by the best-constant search and the learned policy.
pub fn candidate_plans(model: &PipelineModel, size_units: f64) -> Vec<ExecutionPlan> {
    StageCosts::new(model, size_units).candidates()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{best_constant_plan, AllocationContext};
    use proptest::prelude::*;

    fn model() -> PipelineModel {
        PipelineModel::paper()
    }

    fn time_obj(price: f64) -> PlanObjective {
        PlanObjective {
            reward: RewardFn::paper_time_based(),
            price_per_core_tu: price,
            overhead_tu: 0.0,
        }
    }

    #[test]
    fn serial_plan_shape() {
        let p = ExecutionPlan::serial(7);
        assert_eq!(p.total_core_stages(), 7);
        assert_eq!(p.n_stages(), 7);
        assert!((p.latency(&model(), 5.0) - model().serial_latency(5.0)).abs() < 1e-9);
    }

    #[test]
    fn plan_validation() {
        assert!(std::panic::catch_unwind(|| {
            ExecutionPlan::new(vec![(1, 3); 7]) // 3 threads is not a shape
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            ExecutionPlan::new(vec![(0, 1); 7]) // zero shards
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            let mut v = vec![(1, 1); 7];
            v[6] = (4, 1); // sharded gather
            ExecutionPlan::new(v)
        })
        .is_err());
    }

    #[test]
    fn best_plan_beats_serial_under_time_reward() {
        let m = model();
        let obj = time_obj(5.0);
        let best = best_plan(&m, 5.0, &obj);
        let serial = ExecutionPlan::serial(7);
        let eb = evaluate_plan(&m, 5.0, &best, &obj);
        let es = evaluate_plan(&m, 5.0, &serial, &obj);
        assert!(
            eb.profit > es.profit,
            "optimised profit {} must beat serial {}",
            eb.profit,
            es.profit
        );
        // At private prices the optimum is solidly profitable.
        assert!(eb.profit > 0.0, "profit {}", eb.profit);
    }

    #[test]
    fn optimum_shards_stage2_threads_stage5() {
        // The qualitative structure the paper predicts: stage 2
        // (a-dominated, serial) gets sharded; stage 5 (b-dominated,
        // parallelisable) gets threaded.
        let m = model();
        let best = best_plan(&m, 5.0, &time_obj(5.0));
        let (s2_shards, _) = best.stage(1);
        let (_, s5_threads) = best.stage(4);
        assert!(s2_shards >= 4, "stage 2 should shard aggressively, got {s2_shards}");
        assert!(s5_threads >= 4, "stage 5 should thread aggressively, got {s5_threads}");
        // Stage 7 (gather) stays serial by construction.
        assert_eq!(best.stage(6), (1, 1));
    }

    #[test]
    fn expensive_cores_shrink_the_plan() {
        let m = model();
        let cheap = best_plan(&m, 5.0, &time_obj(5.0));
        let pricey = best_plan(&m, 5.0, &time_obj(110.0));
        assert!(
            pricey.total_core_stages() <= cheap.total_core_stages(),
            "higher core price must not buy more cores ({} vs {})",
            pricey.total_core_stages(),
            cheap.total_core_stages()
        );
        // And the latency ordering flips.
        assert!(pricey.latency(&m, 5.0) >= cheap.latency(&m, 5.0));
    }

    #[test]
    fn time_based_optimum_is_exhaustively_optimal_per_stage() {
        // Cross-check the separable argument by brute force on stage 4.
        let m = model();
        let obj = time_obj(5.0);
        let best = best_plan(&m, 5.0, &obj);
        let (bs, bt) = best.stage(3);
        let lat_price = 5.0 * 15.0;
        let objective_value = |s: u32, t: u32| {
            lat_price * m.stage_latency(3, 5.0, s, t) + 5.0 * m.stage_core_tu(3, 5.0, s, t)
        };
        let best_val = objective_value(bs, bt);
        for &s in &SHARD_OPTIONS {
            for &t in &INSTANCE_SIZES {
                assert!(
                    best_val <= objective_value(s, t) + 1e-9,
                    "({bs},{bt}) beaten by ({s},{t})"
                );
            }
        }
    }

    #[test]
    fn throughput_solver_converges_and_beats_serial() {
        let m = model();
        let obj = PlanObjective {
            reward: RewardFn::paper_throughput_based(),
            price_per_core_tu: 5.0,
            overhead_tu: 2.0,
        };
        let best = best_plan(&m, 5.0, &obj);
        let eb = evaluate_plan(&m, 5.0, &best, &obj);
        let es = evaluate_plan(&m, 5.0, &ExecutionPlan::serial(7), &obj);
        assert!(eb.profit >= es.profit, "{} vs {}", eb.profit, es.profit);
        assert!(eb.profit > 0.0);
    }

    #[test]
    fn overhead_charges_reward_not_cost() {
        let m = model();
        let p = ExecutionPlan::serial(7);
        let no = evaluate_plan(&m, 5.0, &p, &time_obj(5.0));
        let with = evaluate_plan(&m, 5.0, &p, &PlanObjective { overhead_tu: 4.0, ..time_obj(5.0) });
        assert_eq!(no.cost, with.cost);
        assert!(with.reward < no.reward);
        assert!((with.total_latency - no.total_latency - 4.0).abs() < 1e-9);
    }

    #[test]
    fn frontier_starts_serial_and_grows_monotonically() {
        let m = model();
        let frontier = plan_frontier(&m, 5.0, 64);
        assert_eq!(frontier[0], ExecutionPlan::serial(7));
        assert!(frontier.len() > 10, "frontier should have many steps");
        for pair in frontier.windows(2) {
            assert!(
                pair[1].total_core_stages() > pair[0].total_core_stages(),
                "core-stages must grow along the frontier"
            );
            assert!(
                pair[1].latency(&m, 5.0) < pair[0].latency(&m, 5.0) + 1e-12,
                "latency must not increase along the frontier"
            );
        }
        // It covers the paper's Fig. 5 x-range densely.
        let sizes: Vec<u32> = frontier.iter().map(ExecutionPlan::total_core_stages).collect();
        for want in [7u32, 10, 15, 20] {
            assert!(
                sizes.iter().any(|&s| s.abs_diff(want) <= 1),
                "frontier misses the {want} region: {sizes:?}"
            );
        }
    }

    #[test]
    fn deadline_reward_plans_meet_the_deadline() {
        let m = model();
        // A deadline just tighter than the serial latency forces a
        // parallel plan; a loose one permits a lean plan.
        let serial_lat = m.serial_latency(5.0);
        let tight = PlanObjective {
            reward: RewardFn::Deadline { rmax: 400.0, rpenalty: 5.0, deadline: serial_lat * 0.6 },
            price_per_core_tu: 5.0,
            overhead_tu: 0.0,
        };
        let plan = best_plan(&m, 5.0, &tight);
        assert!(
            plan.latency(&m, 5.0) <= serial_lat * 0.6,
            "plan must land inside the deadline ({} vs {})",
            plan.latency(&m, 5.0),
            serial_lat * 0.6
        );
    }

    #[test]
    fn plateau_reward_stops_buying_speed_at_the_plateau() {
        let m = model();
        let obj = PlanObjective {
            reward: RewardFn::Plateau { rmax: 400.0, rpenalty: 15.0, plateau: 20.0 },
            price_per_core_tu: 5.0,
            overhead_tu: 0.0,
        };
        let plan = best_plan(&m, 5.0, &obj);
        let lat = plan.latency(&m, 5.0);
        // No point being much faster than the plateau; the optimiser must
        // not buy latency below ~the knee.
        let unconstrained = best_plan(&m, 5.0, &time_obj(5.0));
        assert!(
            plan.total_core_stages() <= unconstrained.total_core_stages(),
            "plateau plans must be no bigger than time-based plans"
        );
        // The two-price linearisation lands near the knee; the discrete
        // plan ladder may overshoot one step past it, but must not chase
        // latency far below the plateau the way the time-based plan does.
        let unconstrained_lat = unconstrained.latency(&m, 5.0);
        assert!(
            lat >= unconstrained_lat - 1e-9,
            "plateau plan ({lat}) must not be faster than the unconstrained one ({unconstrained_lat})"
        );
    }

    #[test]
    fn candidates_are_diverse_and_valid() {
        let m = model();
        let cands = candidate_plans(&m, 5.0);
        assert!(cands.len() >= 4, "want a spread of plans, got {}", cands.len());
        assert!(cands.contains(&ExecutionPlan::serial(7)));
        // All distinct.
        for i in 0..cands.len() {
            for j in (i + 1)..cands.len() {
                assert_ne!(cands[i], cands[j]);
            }
        }
        // Spanning a range of core-stage totals.
        let min = cands.iter().map(ExecutionPlan::total_core_stages).min().unwrap();
        let max = cands.iter().map(ExecutionPlan::total_core_stages).max().unwrap();
        assert!(max > min + 8, "candidates should span the spectrum ({min}..{max})");
    }

    /// The plan search as it ran before [`StageCosts`]: every price point
    /// evaluates the model afresh at every stage entry.
    mod per_price_point {
        use super::*;

        fn best_stage_entry(
            model: &PipelineModel,
            stage: usize,
            size_units: f64,
            latency_price: f64,
            core_price: f64,
        ) -> (u32, u32) {
            let shard_options: &[u32] = if stage_shardable(stage) { &SHARD_OPTIONS } else { &[1] };
            let mut best = (1u32, 1u32);
            let mut best_cost = f64::INFINITY;
            for &s in shard_options {
                for &t in &INSTANCE_SIZES {
                    let lat = model.stage_latency(stage, size_units, s, t);
                    let work = model.stage_core_tu(stage, size_units, s, t);
                    let cost = latency_price * lat + core_price * work;
                    if cost < best_cost - 1e-12 {
                        best_cost = cost;
                        best = (s, t);
                    }
                }
            }
            best
        }

        fn optimal_plan(
            model: &PipelineModel,
            size_units: f64,
            latency_price: f64,
            core_price: f64,
        ) -> ExecutionPlan {
            ExecutionPlan::new(
                (0..model.n_stages())
                    .map(|i| best_stage_entry(model, i, size_units, latency_price, core_price))
                    .collect(),
            )
        }

        pub fn best_plan(
            model: &PipelineModel,
            size_units: f64,
            objective: &PlanObjective,
        ) -> ExecutionPlan {
            let mut plan = ExecutionPlan::serial(model.n_stages());
            let mut best =
                (evaluate_plan(model, size_units, &plan, objective).profit, plan.clone());
            let mut last_latency = f64::INFINITY;
            for _ in 0..12 {
                let total = plan.latency(model, size_units) + objective.overhead_tu;
                if (total - last_latency).abs() < 1e-9 {
                    break;
                }
                last_latency = total;
                let latency_price = objective.reward.latency_price(size_units, total.max(1e-3));
                plan = optimal_plan(model, size_units, latency_price, objective.price_per_core_tu);
                let profit = evaluate_plan(model, size_units, &plan, objective).profit;
                if profit > best.0 {
                    best = (profit, plan.clone());
                }
            }
            best.1
        }

        pub fn candidate_plans(model: &PipelineModel, size_units: f64) -> Vec<ExecutionPlan> {
            let mut plans = vec![ExecutionPlan::serial(model.n_stages())];
            for &core_price in &[5.0, 50.0] {
                for &latency_price in &[5.0, 20.0, 75.0, 200.0, 600.0] {
                    let p = optimal_plan(model, size_units, latency_price, core_price);
                    if !plans.contains(&p) {
                        plans.push(p);
                    }
                }
            }
            plans
        }

        pub fn best_constant_plan(ctx: &AllocationContext<'_>) -> ExecutionPlan {
            let mut best: Option<(f64, ExecutionPlan)> = None;
            for plan in candidate_plans(ctx.model, ctx.mean_job_size) {
                let work = plan.core_tu(ctx.model, ctx.mean_job_size);
                let objective = PlanObjective {
                    reward: ctx.reward,
                    price_per_core_tu: ctx.blended_price(work),
                    overhead_tu: ctx.steady_overhead_tu,
                };
                let econ = evaluate_plan(ctx.model, ctx.mean_job_size, &plan, &objective);
                match &best {
                    Some((p, _)) if *p >= econ.profit => {}
                    _ => best = Some((econ.profit, plan)),
                }
            }
            best.expect("candidate set is non-empty").1
        }
    }

    /// The reward shape `kind` (one of the four the platform's
    /// `RewardKind` selects) with generated parameters.
    fn reward_of(kind: usize, (rmax, rpenalty, knee): (f64, f64, f64)) -> RewardFn {
        match kind {
            0 => RewardFn::TimeBased { rmax, rpenalty },
            1 => RewardFn::ThroughputBased { rscale: rmax * 40.0 },
            2 => RewardFn::Deadline { rmax, rpenalty, deadline: knee },
            _ => RewardFn::Plateau { rmax, rpenalty, plateau: knee },
        }
    }

    proptest! {
        /// The table search returns exactly the plans of the per-price-point
        /// search, and prices each of them to the same bits, for any stage
        /// factors, job size and reward shape.
        #[test]
        fn table_searches_match_the_per_price_point_search(
            factors in proptest::collection::vec(
                (0.0f64..5.0, -1.0f64..20.0, 0.0f64..1.0),
                1..10,
            ),
            size_units in 0.2f64..20.0,
            reward_kind in 0usize..4,
            reward_params in (50.0f64..800.0, 1.0f64..40.0, 2.0f64..80.0),
            price in 0.5f64..120.0,
            overhead_tu in 0.0f64..10.0,
            arrival_rate in 0.01f64..20.0,
            private_capacity in 16u32..1_000,
        ) {
            let stages = factors
                .iter()
                .map(|&(a, b, c)| scan_workload::gatk::StageFactors { a, b, c })
                .collect();
            let m = PipelineModel::new(stages, 0.4);
            let costs = StageCosts::new(&m, size_units);
            let reward = reward_of(reward_kind, reward_params);
            let objective = PlanObjective { reward, price_per_core_tu: price, overhead_tu };

            let cands = candidate_plans(&m, size_units);
            prop_assert_eq!(&cands, &per_price_point::candidate_plans(&m, size_units));
            for plan in &cands {
                let want = evaluate_plan(&m, size_units, plan, &objective);
                let got = costs.evaluate(plan, &objective);
                prop_assert_eq!(got.profit.to_bits(), want.profit.to_bits());
                prop_assert_eq!(got.work_core_tu.to_bits(), want.work_core_tu.to_bits());
                prop_assert_eq!(got.exec_latency.to_bits(), want.exec_latency.to_bits());
            }
            prop_assert_eq!(
                best_plan(&m, size_units, &objective),
                per_price_point::best_plan(&m, size_units, &objective)
            );
            let ctx = AllocationContext {
                model: &m,
                reward,
                private_price: price,
                public_price: price * 10.0,
                private_capacity,
                private_free_now: true,
                current_overhead_tu: overhead_tu,
                arrival_rate,
                mean_job_size: size_units,
                steady_overhead_tu: overhead_tu,
            };
            prop_assert_eq!(best_constant_plan(&ctx), per_price_point::best_constant_plan(&ctx));
        }
    }

    /// Plans the search never builds (the frontier's odd shard counts) are
    /// priced from the model, to the same bits as `evaluate_plan`.
    #[test]
    fn table_prices_any_plan_like_the_model() {
        let m = model();
        let costs = StageCosts::new(&m, 5.0);
        let obj = time_obj(5.0);
        for plan in plan_frontier(&m, 5.0, 64) {
            let (got, want) = (costs.evaluate(&plan, &obj), evaluate_plan(&m, 5.0, &plan, &obj));
            assert_eq!(got.exec_latency.to_bits(), want.exec_latency.to_bits(), "{plan:?}");
            assert_eq!(got.work_core_tu.to_bits(), want.work_core_tu.to_bits(), "{plan:?}");
            assert_eq!(got.profit.to_bits(), want.profit.to_bits(), "{plan:?}");
        }
    }

    /// The candidate spectrum of the paper's model for the mean job, entry
    /// for entry: the serial plan, then the optimum at each new price point
    /// (private core price first, latency price rising).
    #[test]
    fn paper_candidates_at_five_units_are_pinned() {
        const PINNED: [[(u32, u32); 7]; 9] = [
            [(1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1)],
            [(1, 4), (12, 1), (1, 2), (4, 1), (1, 4), (1, 1), (1, 1)],
            [(1, 8), (12, 1), (1, 4), (6, 2), (1, 8), (1, 1), (1, 1)],
            [(1, 8), (12, 1), (2, 4), (8, 2), (1, 16), (1, 2), (1, 1)],
            [(1, 16), (12, 1), (2, 8), (12, 4), (1, 16), (1, 4), (1, 1)],
            [(1, 16), (12, 1), (4, 8), (16, 4), (1, 16), (2, 4), (1, 2)],
            [(1, 1), (12, 1), (1, 1), (1, 1), (1, 1), (1, 1), (1, 1)],
            [(1, 2), (12, 1), (1, 1), (2, 1), (1, 2), (1, 1), (1, 1)],
            [(1, 8), (12, 1), (2, 4), (8, 2), (1, 8), (1, 2), (1, 1)],
        ];
        let got: Vec<Vec<(u32, u32)>> =
            candidate_plans(&model(), 5.0).into_iter().map(|p| p.stages).collect();
        assert_eq!(got, PINNED.map(|p| p.to_vec()));
    }
}
