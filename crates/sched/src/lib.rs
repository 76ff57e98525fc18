//! # scan-sched — the SCAN Scheduler
//!
//! The paper's primary contribution (§III-A.2): a reward-driven scheduler
//! for batch pipelines on an elastic cloud. "For each work item reaching
//! the front of a task queue … the SCAN must decide: should a worker be
//! hired from the elastic cloud to run it immediately, or should it be
//! delayed until an existing worker becomes available?"
//!
//! * [`queue`] — per-class FIFO task queues, one job-level term per
//!   stage batch, which also price Eq. 1 incrementally: a scaling
//!   decision reads a few cached numbers instead of walking the queue
//!   (the naive [`mod@delay_cost`] walk stays as the debug oracle).
//! * [`estimate`] — the Eq. 2 estimators: per-stage execution time `EET`
//!   (linear in records, from knowledge-base models), expected queue time
//!   `EQT` (exponentially-weighted observation average) and the combined
//!   `ETT(j)`.
//! * [`delay_cost`](mod@delay_cost) — Eq. 1: the reward lost by delaying everything in a
//!   queue by `delay` time units.
//! * [`plan`] — execution plans (per-stage shards × threads) and the plan
//!   optimiser. For the time-based reward, profit is separable per stage
//!   and the optimum is exact; for the throughput-based reward the solver
//!   iterates a linearisation of the latency price until fixed point.
//! * [`scaling`] — Table I's horizontal-scaling policies: always-scale,
//!   never-scale and the paper's predictive scaling (hire public cores iff
//!   the Eq. 1 delay cost exceeds the hire cost).
//! * [`alloc`] — Table I's resource-allocation policies: greedy,
//!   long-term, long-term adaptive and best-constant.
//! * [`learned`] — the paper's future-work extension: an ε-greedy bandit
//!   over candidate plans (§VI "we plan to adopt learning algorithms to
//!   guide the Scheduler").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod delay_cost;
pub mod estimate;
pub mod learned;
pub mod plan;
pub mod queue;
pub mod scaling;

pub use alloc::{AllocationContext, AllocationPolicy, Allocator};
pub use delay_cost::{delay_cost, QueuedJobView};
pub use estimate::{EttEstimator, QueueTimeTracker};
pub use plan::{best_plan, ExecutionPlan, PlanEconomics, PlanObjective};
pub use queue::{ClassQueues, Eq1Pricer, TaskClass};
pub use scaling::{ScalingContext, ScalingDecision, ScalingPolicy};
