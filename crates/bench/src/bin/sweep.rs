//! §IV-B — the full policy-permutation sweep.
//!
//! "We explored all permutations of resource allocation algorithm,
//! horizontal scaling algorithm, reward scheme and workload, and found
//! that our proposed algorithms are often able to improve performance
//! above their respective baselines."
//!
//! Default mode downsamples the workload/price axes (the full Table I grid
//! is 1056 cells × repetitions); `--full` runs everything; `--calibrated`
//! additionally sweeps the saturated-load intervals where the scaling
//! policies separate (see fig4's axis discussion).
//!
//! Every session carries a [`DecisionStats`] observer, so the per-cell
//! table also reports *why* each cell's economics came out the way it did:
//! hire vs wait scaling-decision counts and the sampled queue-depth
//! mean/peak, merged over the cell's repetitions (deterministically — the
//! numbers are identical under `RAYON_NUM_THREADS=1` and N threads).
//!
//! The summary reports the paper's two headline comparisons:
//! * adaptive/long-term/greedy allocation vs the best-constant baseline;
//! * predictive scaling vs the always-/never-scale baselines.
//!
//! Usage: `cargo run --release -p scan-bench --bin sweep
//!         [--full] [--calibrated] [--cell-trace <path>] [artefact flags]`
//!
//! `--cell-trace <path>` writes one JSONL line per grid cell: its
//! parameters and the merged [`DecisionStats`] payload (shape documented
//! in `docs/TRACE_SCHEMA.md`). The artefact flags (`--trace`, `--store`,
//! `--spans`, `--slowest`, `--metrics`, `--profile`; see
//! [`scan_bench::Artefacts`]) record one representative session: the
//! grid's first cell.

use scan_bench::{argv, flag_from_args, usage_error, Artefacts, EXPERIMENT_SEED};
use scan_platform::config::{ParameterGrid, ScanConfig};
use scan_platform::observers::DecisionStats;
use scan_platform::sweep::{sweep_grid_with, ObservedCell};
use scan_sched::alloc::AllocationPolicy;
use scan_sched::scaling::ScalingPolicy;
use std::fmt::Write as _;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let calibrated = std::env::args().any(|a| a == "--calibrated");
    let artefacts = Artefacts::from_args();
    let cell_trace = flag_from_args(&argv(), "cell-trace").unwrap_or_else(|e| usage_error(&e));

    let mut grid = ParameterGrid::paper();
    if !full {
        grid.intervals = vec![2.0, 2.5, 3.0];
        grid.public_costs = vec![20.0, 50.0];
    }
    if calibrated {
        let mut extra = vec![0.6, 0.8, 1.0, 1.2];
        extra.extend_from_slice(&grid.intervals);
        grid.intervals = extra;
    }

    let (sim_time, reps) = if full { (10_000.0, 10) } else { (2_000.0, 3) };
    let cells = grid.cells();
    println!(
        "§IV-B permutation sweep: {} cells x {reps} repetitions, {sim_time} TU horizon",
        cells.len()
    );

    let mut base = ScanConfig::new(cells[0], EXPERIMENT_SEED);
    base.fixed.sim_time_tu = sim_time;

    artefacts.record(&base);

    let results = sweep_grid_with(&base, &cells, reps, &|_| DecisionStats::new());

    if let Some(path) = cell_trace {
        dump_cell_trace(&results, path.as_ref());
    }

    // Full per-cell table: the cell's economics, then the decision/queue
    // statistics explaining them (counts are totals over the repetitions).
    println!(
        "\n{:>20} {:>13} {:>5} {:>17} {:>5} | {:>10} {:>7} {:>6} | {:>6} {:>6} {:>6} {:>5}",
        "allocation",
        "scaling",
        "int",
        "reward",
        "cost",
        "profit/run",
        "r/c",
        "lat",
        "hire",
        "wait",
        "qmean",
        "qpeak"
    );
    println!("{}", "-".repeat(123));
    for r in &results {
        println!(
            "{:>20} {:>13} {:>5.1} {:>17} {:>5.0} | {:>10.1} {:>7.2} {:>6.1} | {:>6} {:>6} {:>6.2} {:>5}",
            r.params.allocation.name(),
            r.params.scaling.name(),
            r.params.mean_interval,
            r.params.reward.name(),
            r.params.public_core_cost,
            r.metrics.profit_per_run.mean(),
            r.metrics.reward_to_cost.mean(),
            r.metrics.mean_latency.mean(),
            r.stats.hire_decisions(),
            r.stats.wait_decisions(),
            r.stats.mean_depth(),
            r.stats.peak_depth(),
        );
    }

    summarise(&results);
}

/// Writes one JSONL line per grid cell: the cell's parameters plus the
/// merged [`DecisionStats`] payload.
fn dump_cell_trace(results: &[ObservedCell<DecisionStats>], path: &std::path::Path) {
    let mut out = String::new();
    for r in results {
        let _ = write!(
            out,
            "{{\"allocation\":\"{}\",\"scaling\":\"{}\",\"interval\":{},\
             \"reward\":\"{}\",\"public_cost\":{},\"stats\":",
            r.params.allocation.name(),
            r.params.scaling.name(),
            r.params.mean_interval,
            r.params.reward.name(),
            r.params.public_core_cost,
        );
        r.stats.write_json(&mut out);
        out.push_str("}\n");
    }
    match std::fs::write(path, &out) {
        Ok(()) => println!("cell-trace: wrote {} ({} cells)", path.display(), results.len()),
        Err(e) => eprintln!("cell-trace: failed to write {}: {e}", path.display()),
    }
}

/// The paper's headline claims, checked over matched cells.
fn summarise(results: &[ObservedCell<DecisionStats>]) {
    let find = |allocation: AllocationPolicy, scaling: ScalingPolicy, r: &ObservedCell<_>| {
        results.iter().find(|c| {
            c.params.allocation == allocation
                && c.params.scaling == scaling
                && c.params.mean_interval == r.params.mean_interval
                && c.params.reward == r.params.reward
                && c.params.public_core_cost == r.params.public_core_cost
        })
    };

    // 1. SCAN allocators vs best-constant (same scaling/workload cell).
    let mut alloc_wins = 0usize;
    let mut alloc_cells = 0usize;
    for r in results.iter().filter(|r| r.params.allocation != AllocationPolicy::BestConstant) {
        if let Some(baseline) = find(AllocationPolicy::BestConstant, r.params.scaling, r) {
            alloc_cells += 1;
            if r.metrics.profit_per_run.mean() >= baseline.metrics.profit_per_run.mean() {
                alloc_wins += 1;
            }
        }
    }

    // 2. Predictive scaling vs the baselines (same allocation/workload).
    let mut pred_better_than_worst = 0usize;
    let mut pred_beats_both = 0usize;
    let mut pred_cells = 0usize;
    for r in results.iter().filter(|r| r.params.scaling == ScalingPolicy::Predictive) {
        let (Some(always), Some(never)) = (
            find(r.params.allocation, ScalingPolicy::AlwaysScale, r),
            find(r.params.allocation, ScalingPolicy::NeverScale, r),
        ) else {
            continue;
        };
        pred_cells += 1;
        let p = r.metrics.profit_per_run.mean();
        let a = always.metrics.profit_per_run.mean();
        let n = never.metrics.profit_per_run.mean();
        if p >= a.min(n) {
            pred_better_than_worst += 1;
        }
        if p >= a.max(n) - 1.0 {
            pred_beats_both += 1;
        }
    }

    println!("\nSummary (paper's §IV-B claims):");
    println!(
        "  SCAN allocators >= best-constant baseline in {alloc_wins}/{alloc_cells} matched cells"
    );
    println!(
        "  predictive scaling >= worse baseline in {pred_better_than_worst}/{pred_cells} cells; \
         within 1 CU of (or above) both baselines in {pred_beats_both}/{pred_cells}"
    );
}
