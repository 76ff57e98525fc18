//! Figure 4 — "Profit vs. mean arrival interval for various horizontal
//! scaling functions".
//!
//! Configuration per the figure's caption: time-based reward, public-tier
//! hire cost 50 CU/TU, best-constant resource allocation; 10 repetitions,
//! ±1 σ error bars.
//!
//! Two interval ranges are swept:
//!
//! * the **paper-verbatim axis** (2.0–3.0 TU) — with this reproduction's
//!   leaner execution footprint the 624-core private tier is never
//!   saturated there, so the three scaling policies coincide (EXPERIMENTS.md
//!   records the footprint analysis);
//! * the **calibrated load axis** (0.5–1.5 TU) — the same busy-to-quiet
//!   utilisation span the paper describes ("2.0 TU = a very busy system …
//!   3.0 TU = a quiet system"), where the published shape appears:
//!   never-scale collapses under saturation, always-scale pays the public
//!   premium, predictive tracks the better baseline.
//!
//! Usage: `cargo run --release -p scan-bench --bin fig4 [--quick]
//! [artefact flags]`. The artefact flags (`--trace`, `--store`, `--spans`,
//! `--slowest`, `--metrics`, `--profile`; see [`scan_bench::Artefacts`])
//! record one representative session: predictive scaling, 2.0 TU
//! interval.

use scan_bench::{pm, run_cell, Artefacts, EXPERIMENT_SEED, PAPER_REPETITIONS};
use scan_platform::config::{ScanConfig, VariableParams};
use scan_sched::scaling::ScalingPolicy;

fn sweep(label: &str, intervals: &[f64], sim_time: f64, reps: u64) {
    println!("\n--- {label} ---");
    println!(
        "{:>9} | {:>21} | {:>21} | {:>21}",
        "interval", "predictive", "always-scale", "never-scale"
    );
    println!("{}", "-".repeat(83));
    for &interval in intervals {
        let mut row = format!("{interval:>9.1}");
        for scaling in
            [ScalingPolicy::Predictive, ScalingPolicy::AlwaysScale, ScalingPolicy::NeverScale]
        {
            let m = run_cell(VariableParams::fig4(scaling, interval), sim_time, reps);
            row.push_str(&format!(" | {}", pm(&m.profit_per_run)));
        }
        println!("{row}");
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (mut sim_time, mut reps) = if quick { (1_000.0, 3) } else { (10_000.0, PAPER_REPETITIONS) };
    // Machine-budget overrides (e.g. single-core CI boxes): SCAN_HORIZON
    // and SCAN_REPS shrink the run; results are labelled with the values
    // actually used.
    if let Some(h) = std::env::var("SCAN_HORIZON").ok().and_then(|v| v.parse().ok()) {
        sim_time = h;
    }
    if let Some(r) = std::env::var("SCAN_REPS").ok().and_then(|v| v.parse().ok()) {
        reps = r;
    }

    println!("Figure 4: mean profit per pipeline run vs. mean arrival interval");
    println!("  reward: time-based | public cost: 50 CU/TU | allocation: best-constant");
    println!("  horizon: {sim_time} TU | repetitions: {reps}");

    let mut cfg =
        ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.0), EXPERIMENT_SEED);
    cfg.fixed.sim_time_tu = sim_time;
    Artefacts::from_args().record(&cfg);

    let paper: Vec<f64> = (0..=10).map(|i| 2.0 + 0.1 * i as f64).collect();
    sweep("paper-verbatim interval axis (2.0-3.0 TU)", &paper, sim_time, reps);

    let calibrated: Vec<f64> = if std::env::var("SCAN_COARSE").is_ok() {
        vec![0.5, 0.7, 0.9, 1.1, 1.3, 1.5]
    } else {
        (0..=10).map(|i| 0.5 + 0.1 * i as f64).collect()
    };
    sweep("calibrated load axis (0.5-1.5 TU; busy -> quiet)", &calibrated, sim_time, reps);

    println!("\n(mean profit per pipeline run, CU; ± one standard deviation over {reps} runs)");
    println!("Shape criteria (calibrated axis): never-scale collapses at the busy end;");
    println!("always-scale trails at light load; predictive tracks the better baseline.");
}
