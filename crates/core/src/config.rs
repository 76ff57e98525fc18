//! Experiment configuration: Table III (fixed) × Table I (variable).
//!
//! A config holds only what some run varies. Table III's values live in
//! the crate that owns each one (`scan_workload::reward::{RMAX, RPENALTY,
//! RSCALE}`, `ArrivalConfig::paper`, `scan_cloud::tier::{PRIVATE_CORE_COST,
//! PRIVATE_CAPACITY_CORES}`), and the platform knobs the paper fixes in
//! prose are the constants below; [`ScanConfig`] builds the simulator's
//! objects from them.

use scan_cloud::tier::{Tier, TierCatalog, PRIVATE_CAPACITY_CORES};
use scan_sched::alloc::AllocationPolicy;
use scan_sched::scaling::ScalingPolicy;
use scan_workload::arrivals::ArrivalConfig;
use scan_workload::gatk::PipelineModel;
use scan_workload::reward::{RewardFn, RMAX, RPENALTY};

/// Idle-worker release timeout for private-tier workers, TU.
pub const IDLE_TIMEOUT_TU: f64 = 2.0;

/// Idle-worker release timeout for public-tier workers, TU. Public
/// cores bill while hired, so they are released much faster.
pub const PUBLIC_IDLE_TIMEOUT_TU: f64 = 0.5;

/// Headroom factor for standing worker-pool sizing: pools hold
/// `headroom ×` the forecast busy demand so batch bursts are mostly
/// absorbed without fresh boots.
pub const POOL_HEADROOM: f64 = 1.2;

/// EWMA smoothing for queue-time estimates.
pub const EQT_ALPHA: f64 = 0.2;

/// Long-term allocators re-optimise this often, TU.
pub const REPLAN_PERIOD_TU: f64 = 50.0;

/// The fixed attributes a run may still set: Table III's horizon and
/// private capacity, and the calibration and profiling knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct FixedParams {
    /// Simulation horizon, TU (Table III: 10 000).
    pub sim_time_tu: f64,
    /// Private tier capacity, cores (§IV-A: 624).
    pub private_capacity_cores: u32,
    /// Factor by which the plan optimiser inflates raw core prices to
    /// account for boot/idle overhead of real workers (hired time exceeds
    /// busy time; calibrated against measured utilisation).
    pub overhead_price_factor: f64,
    /// Relative noise of the offline profiling trace the knowledge base
    /// is bootstrapped from.
    pub profile_noise: f64,
}

impl Default for FixedParams {
    fn default() -> Self {
        FixedParams {
            sim_time_tu: 10_000.0,
            private_capacity_cores: PRIVATE_CAPACITY_CORES,
            overhead_price_factor: 1.3,
            profile_noise: 0.02,
        }
    }
}

/// Which reward scheme a run uses (Table I's "task completion reward
/// function" axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewardKind {
    /// `R(d,t) = d(Rmax − t·Rpenalty)`.
    TimeBased,
    /// `R(d,t) = d·Rscale/t`.
    ThroughputBased,
    /// §III-A.2 extension: time-based reward that falls to zero past a
    /// deadline (default: the time-based breakeven, Rmax/Rpenalty).
    Deadline,
    /// §III-A.2 extension: time-based reward plateauing below a target
    /// latency (default 18 TU) — "the customer is not willing to pay for
    /// more".
    Plateau,
}

impl RewardKind {
    /// The two Table I kinds, for the paper's sweeps (the deadline and
    /// plateau extensions are exercised by the ablation experiments, not
    /// the published grid).
    pub fn all() -> [RewardKind; 2] {
        [RewardKind::TimeBased, RewardKind::ThroughputBased]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            RewardKind::TimeBased => "time-based",
            RewardKind::ThroughputBased => "throughput-based",
            RewardKind::Deadline => "deadline",
            RewardKind::Plateau => "plateau",
        }
    }
}

/// Table I — the variable simulation parameters (one grid cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariableParams {
    /// Resource allocation algorithm.
    pub allocation: AllocationPolicy,
    /// Horizontal scaling algorithm.
    pub scaling: ScalingPolicy,
    /// Mean job inter-arrival interval, TU (2.0 … 3.0).
    pub mean_interval: f64,
    /// Reward scheme.
    pub reward: RewardKind,
    /// Public tier core cost, CU/TU (20, 50, 80, 110).
    pub public_core_cost: f64,
}

impl VariableParams {
    /// The configuration of Fig. 4: best-constant allocation, time-based
    /// reward, public cost 50, scaling as given.
    pub fn fig4(scaling: ScalingPolicy, mean_interval: f64) -> Self {
        VariableParams {
            allocation: AllocationPolicy::BestConstant,
            scaling,
            mean_interval,
            reward: RewardKind::TimeBased,
            public_core_cost: 50.0,
        }
    }
}

/// A full experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanConfig {
    /// Fixed attributes (Table III).
    pub fixed: FixedParams,
    /// Variable attributes (Table I cell).
    pub variable: VariableParams,
    /// Base experiment seed; repetition `k` derives its streams from
    /// `(seed, k)`.
    pub seed: u64,
    /// Allow idle workers to be reshaped to other instance sizes (the
    /// Fig. 5 heterogeneous configuration), paying the 30 s penalty.
    pub allow_reshape: bool,
    /// Override the execution plan for every job (used by the Fig. 5
    /// core-stage sweep); `None` lets the allocation policy decide.
    pub forced_plan: Option<Vec<(u32, u32)>>,
    /// End-to-end latency SLO target in TU. When set, every completed
    /// job with `latency_tu > target` emits an `slo_violation` trace
    /// event and bumps the SLO burn meters; `None` (the default)
    /// disables SLO monitoring and leaves traces unchanged.
    pub slo_target_tu: Option<f64>,
}

impl ScanConfig {
    /// A config with paper defaults for the given variable cell.
    pub fn new(variable: VariableParams, seed: u64) -> Self {
        ScanConfig {
            fixed: FixedParams::default(),
            variable,
            seed,
            allow_reshape: false,
            forced_plan: None,
            slo_target_tu: None,
        }
    }

    /// The latency at which the paper's time-based reward reaches zero
    /// (`Rmax / Rpenalty` ≈ 26.7 TU at Table III constants) — the
    /// natural SLO target: any job slower than this earns nothing.
    pub fn breakeven_latency_tu(&self) -> f64 {
        RMAX / RPENALTY
    }

    /// The reward function object for this config.
    pub fn reward_fn(&self) -> RewardFn {
        match self.variable.reward {
            RewardKind::TimeBased => RewardFn::paper_time_based(),
            RewardKind::ThroughputBased => RewardFn::paper_throughput_based(),
            RewardKind::Deadline => RewardFn::Deadline {
                rmax: RMAX,
                rpenalty: RPENALTY,
                // Default deadline: the time-based breakeven latency.
                deadline: self.breakeven_latency_tu(),
            },
            RewardKind::Plateau => RewardFn::Plateau {
                rmax: RMAX,
                rpenalty: RPENALTY,
                // Just above the latency the profit-optimal time-based
                // plan achieves, so the knee actually binds.
                plateau: 18.0,
            },
        }
    }

    /// The arrival process parameters for this config.
    pub fn arrival_config(&self) -> ArrivalConfig {
        ArrivalConfig::paper(self.variable.mean_interval)
    }

    /// The session's hybrid cloud: the private tier (Table III price,
    /// this config's capacity, billed while busy) then the public tier
    /// (this cell's price, unbounded, billed while hired), in the order
    /// of [`TierId::PRIVATE`](scan_cloud::tier::TierId::PRIVATE) and
    /// [`TierId::PUBLIC`](scan_cloud::tier::TierId::PUBLIC).
    pub fn tier_catalog(&self) -> TierCatalog {
        TierCatalog::new(vec![
            Tier {
                capacity_cores: Some(self.fixed.private_capacity_cores),
                ..Tier::paper_private()
            },
            Tier::paper_public(self.variable.public_core_cost),
        ])
    }

    /// The ground-truth pipeline model (Table II at the calibrated
    /// `GB_PER_SIZE_UNIT`).
    pub fn true_model(&self) -> PipelineModel {
        PipelineModel::paper()
    }
}

/// The Table I grid, enumerable for the full-permutation sweep of §IV-B.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterGrid {
    /// Allocation algorithms to sweep.
    pub allocations: Vec<AllocationPolicy>,
    /// Scaling algorithms to sweep.
    pub scalings: Vec<ScalingPolicy>,
    /// Mean inter-arrival intervals, TU.
    pub intervals: Vec<f64>,
    /// Reward schemes.
    pub rewards: Vec<RewardKind>,
    /// Public tier costs, CU/TU.
    pub public_costs: Vec<f64>,
}

impl ParameterGrid {
    /// Table I verbatim: 4 × 3 × 11 × 2 × 4 = 1056 cells.
    pub fn paper() -> Self {
        ParameterGrid {
            allocations: AllocationPolicy::all().to_vec(),
            scalings: ScalingPolicy::all().to_vec(),
            intervals: (0..=10).map(|i| 2.0 + 0.1 * i as f64).collect(),
            rewards: RewardKind::all().to_vec(),
            public_costs: vec![20.0, 50.0, 80.0, 110.0],
        }
    }

    /// Number of cells.
    pub fn n_cells(&self) -> usize {
        self.allocations.len()
            * self.scalings.len()
            * self.intervals.len()
            * self.rewards.len()
            * self.public_costs.len()
    }

    /// Enumerates every cell in deterministic order.
    pub fn cells(&self) -> Vec<VariableParams> {
        let mut out = Vec::with_capacity(self.n_cells());
        for &allocation in &self.allocations {
            for &scaling in &self.scalings {
                for &mean_interval in &self.intervals {
                    for &reward in &self.rewards {
                        for &public_core_cost in &self.public_costs {
                            out.push(VariableParams {
                                allocation,
                                scaling,
                                mean_interval,
                                reward,
                                public_core_cost,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scan_cloud::tier::TierId;

    #[test]
    fn table_iii_defaults() {
        // The published numbers, read through the objects the simulator
        // uses.
        let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), 1);
        assert_eq!(cfg.fixed.sim_time_tu, 10_000.0);
        assert_eq!(cfg.reward_fn(), RewardFn::TimeBased { rmax: 400.0, rpenalty: 15.0 });
        cfg.variable.reward = RewardKind::ThroughputBased;
        assert_eq!(cfg.reward_fn(), RewardFn::ThroughputBased { rscale: 15_000.0 });
        let a = cfg.arrival_config();
        assert_eq!(
            (a.mean_batch, a.batch_variance, a.mean_size, a.size_variance),
            (3.0, 2.0, 5.0, 1.0)
        );
        let tiers = cfg.tier_catalog();
        let private = tiers.get(TierId::PRIVATE);
        assert_eq!((private.cost_per_core_tu, private.capacity_cores), (5.0, Some(624)));
        assert_eq!(cfg.true_model(), PipelineModel::paper());
    }

    #[test]
    fn paper_grid_has_1056_cells() {
        let g = ParameterGrid::paper();
        assert_eq!(g.n_cells(), 4 * 3 * 11 * 2 * 4);
        assert_eq!(g.cells().len(), g.n_cells());
        // Intervals are 2.0, 2.1, …, 3.0.
        assert_eq!(g.intervals.len(), 11);
        assert!((g.intervals[0] - 2.0).abs() < 1e-12);
        assert!((g.intervals[10] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reward_fn_selection() {
        let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), 1);
        assert_eq!(cfg.reward_fn(), RewardFn::paper_time_based());
        cfg.variable.reward = RewardKind::ThroughputBased;
        assert_eq!(cfg.reward_fn(), RewardFn::paper_throughput_based());
    }

    #[test]
    fn extended_reward_kinds_materialise() {
        let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), 1);
        cfg.variable.reward = RewardKind::Deadline;
        match cfg.reward_fn() {
            RewardFn::Deadline { deadline, .. } => {
                assert!((deadline - 400.0 / 15.0).abs() < 1e-9)
            }
            other => panic!("unexpected {other:?}"),
        }
        cfg.variable.reward = RewardKind::Plateau;
        assert_eq!(cfg.reward_fn().name(), "plateau");
        // The paper grid stays two-valued.
        assert_eq!(RewardKind::all().len(), 2);
    }

    #[test]
    fn fig4_cell_matches_caption() {
        // "Reward function: Time-based; Public-tier hire cost: 50;
        //  Resource allocation algorithm: Best constant plan"
        let v = VariableParams::fig4(ScalingPolicy::AlwaysScale, 2.0);
        assert_eq!(v.allocation, AllocationPolicy::BestConstant);
        assert_eq!(v.reward, RewardKind::TimeBased);
        assert_eq!(v.public_core_cost, 50.0);
    }

    #[test]
    fn arrival_config_reflects_interval() {
        let cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.7), 1);
        let a = cfg.arrival_config();
        assert!((a.mean_interval - 2.7).abs() < 1e-12);
        assert_eq!(a.mean_batch, 3.0);
    }
}
