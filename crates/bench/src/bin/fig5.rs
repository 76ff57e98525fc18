//! Figure 5 — "Reward-to-cost ratio vs. cores for horizontally-scaled,
//! heterogeneous simulation".
//!
//! Per §IV-B: dynamic horizontal scaling *and* heterogeneous workers —
//! stages use different degrees of multithreading, and (simulated) CELAR
//! resizes worker pools as required, paying the 30 s reshape penalty
//! whenever a worker moves to a pool with a different thread count. The
//! x-axis is the total core-stages per pipeline run (Σ shards·threads of
//! the plan); the y-axis is the reward-to-cost ratio.
//!
//! The paper does not state the reward scheme for this figure; the
//! throughput-oriented scheme is used here because it is the one whose
//! published magnitudes (ratio ≈ 3) are on the same order as the reward
//! and cost scales of Table III (see EXPERIMENTS.md for the analysis).
//!
//! Plans along the x-axis form an efficient frontier grown greedily from
//! the serial plan: at each step the single upgrade (one more shard, or
//! the next thread shape, on one stage) with the best latency saved per
//! added core-stage is applied — "the number of cores employed per
//! pipeline run" rises one notch at a time.
//!
//! Usage: `cargo run --release -p scan-bench --bin fig5 [--quick]
//! [artefact flags]`. The artefact flags (`--trace`, `--store`, `--spans`,
//! `--slowest`, `--metrics`, `--profile`; see [`scan_bench::Artefacts`])
//! record one representative session: the first frontier plan, reshapes
//! included.

use scan_bench::{pm, Artefacts, EXPERIMENT_SEED, PAPER_REPETITIONS};
use scan_platform::config::{RewardKind, ScanConfig, VariableParams};
use scan_platform::sweep::run_replicated;
use scan_sched::alloc::AllocationPolicy;
use scan_sched::plan::{plan_frontier, ExecutionPlan};
use scan_sched::scaling::ScalingPolicy;
use scan_workload::gatk::PipelineModel;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (mut sim_time, mut reps) = if quick { (1_000.0, 3) } else { (10_000.0, PAPER_REPETITIONS) };
    if let Some(h) = std::env::var("SCAN_HORIZON").ok().and_then(|v| v.parse().ok()) {
        sim_time = h;
    }
    if let Some(r) = std::env::var("SCAN_REPS").ok().and_then(|v| v.parse().ok()) {
        reps = r;
    }

    println!("Figure 5: reward-to-cost ratio vs. total core-stages per pipeline run");
    println!("  heterogeneous workers + dynamic scaling (reshape penalty 0.5 TU)");
    println!("  reward: throughput-based | public cost: 50 CU/TU | predictive scaling");
    println!("  horizon: {sim_time} TU | repetitions: {reps}\n");

    let model = PipelineModel::paper();
    let frontier = plan_frontier(&model, 5.0, 72);
    // Every point through the paper's 6-24 range, then a sparser tail to
    // exhibit the post-peak decline.
    let picks: Vec<&ExecutionPlan> = frontier
        .iter()
        .filter(|p| {
            let cs = p.total_core_stages();
            if std::env::var("SCAN_COARSE").is_ok() {
                cs <= 24 && cs % 2 == 1 || cs % 16 == 0
            } else {
                cs <= 24 || cs % 8 == 0
            }
        })
        .collect();

    let plan_cfg = |plan: &ExecutionPlan| {
        let mut cfg = ScanConfig::new(
            VariableParams {
                allocation: AllocationPolicy::BestConstant,
                scaling: ScalingPolicy::Predictive,
                mean_interval: 2.0,
                reward: RewardKind::ThroughputBased,
                public_core_cost: 50.0,
            },
            EXPERIMENT_SEED,
        );
        cfg.fixed.sim_time_tu = sim_time;
        cfg.allow_reshape = true;
        cfg.forced_plan = Some(plan.stages.clone());
        cfg
    };
    if let Some(plan) = picks.first() {
        Artefacts::from_args().record(&plan_cfg(plan));
    }

    println!(
        "{:>12} | {:>21} | {:>10} | plan (shards x threads per stage)",
        "core-stages", "reward/cost", "reshapes"
    );
    println!("{}", "-".repeat(100));

    let mut best: Option<(f64, u32)> = None;
    for plan in picks {
        let m = run_replicated(&plan_cfg(plan), reps);
        let ratio = m.reward_to_cost.mean();
        let reshapes: f64 =
            m.sessions.iter().map(|s| s.reshapes as f64).sum::<f64>() / m.sessions.len() as f64;
        let plan_str: Vec<String> = plan.stages.iter().map(|(s, t)| format!("{s}x{t}")).collect();
        let cs = plan.total_core_stages();
        println!(
            "{:>12} | {:>21} | {:>10.0} | [{}]",
            cs,
            pm(&m.reward_to_cost),
            reshapes,
            plan_str.join(", ")
        );
        match best {
            Some((b, _)) if b >= ratio => {}
            _ => best = Some((ratio, cs)),
        }
    }

    if let Some((ratio, cs)) = best {
        println!("\nBest configuration: {ratio:.2} reward-to-cost at {cs} core-stages");
        println!("(paper: best ratio 3.11; shape criterion: rise to a sweet spot, then decline)");
    }
}
