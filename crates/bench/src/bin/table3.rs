//! Table III — "Miscellaneous simulation attributes fixed across all
//! runs".
//!
//! Prints the values the simulator uses next to the published ones (the
//! reward constants, and the arrival process and tier catalogue a session
//! is built from) and exits non-zero if any drift.
//!
//! Usage: `cargo run --release -p scan-bench --bin table3`

use scan_cloud::instance::INSTANCE_SIZES;
use scan_cloud::tier::TierId;
use scan_platform::config::{
    ScanConfig, VariableParams, IDLE_TIMEOUT_TU, POOL_HEADROOM, PUBLIC_IDLE_TIMEOUT_TU,
};
use scan_sched::scaling::ScalingPolicy;
use scan_workload::gatk::GB_PER_SIZE_UNIT;
use scan_workload::reward::{RMAX, RPENALTY, RSCALE};

fn main() {
    let cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.0), 0);
    let f = &cfg.fixed;
    let arrivals = cfg.arrival_config();
    let tiers = cfg.tier_catalog();
    let private = tiers.get(TierId::PRIVATE);
    println!("Table III: miscellaneous simulation attributes fixed across all runs\n");
    let rows: Vec<(&str, String, String)> = vec![
        ("Simulation time (TUs)", "10,000".into(), format!("{:.0}", f.sim_time_tu)),
        ("Private tier core cost (CUs/TU)", "5".into(), format!("{:.0}", private.cost_per_core_tu)),
        ("Rmax (CUs)", "400".into(), format!("{:.0}", RMAX)),
        ("Rpenalty (CUs)", "15".into(), format!("{:.0}", RPENALTY)),
        ("Rscale (CUs/TU)", "15,000".into(), format!("{:.0}", RSCALE)),
        (
            "Possible instance sizes (cores)",
            "1, 2, 4, 8, 16".into(),
            INSTANCE_SIZES.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(", "),
        ),
        ("Mean jobs per arrival event", "3".into(), format!("{:.0}", arrivals.mean_batch)),
        ("Jobs per arrival variance", "2".into(), format!("{:.0}", arrivals.batch_variance)),
        ("Mean job size (arbitrary units)", "5".into(), format!("{:.0}", arrivals.mean_size)),
        ("Job size variance", "1".into(), format!("{:.0}", arrivals.size_variance)),
        ("Private tier capacity (cores)", "624".into(), format!("{}", f.private_capacity_cores)),
    ];
    println!("{:<34} | {:>14} | {:>14}", "parameter", "paper", "configured");
    println!("{}", "-".repeat(68));
    let mut ok = true;
    for (name, paper, ours) in &rows {
        let matches = paper.replace(',', "") == ours.replace(',', "");
        if !matches {
            ok = false;
        }
        println!(
            "{:<34} | {:>14} | {:>14} {}",
            name,
            paper,
            ours,
            if matches { "" } else { "  <-- MISMATCH" }
        );
    }
    println!("\nReproduction-specific attributes (not in Table III; see EXPERIMENTS.md):");
    println!(
        "{:<34} | {:>14}",
        "GB per job size unit (calibrated)",
        format!("{:.1}", GB_PER_SIZE_UNIT)
    );
    println!("{:<34} | {:>14}", "Worker boot/reshape penalty (TU)", "0.5");
    println!("{:<34} | {:>14}", "Private idle timeout (TU)", format!("{:.1}", IDLE_TIMEOUT_TU));
    println!(
        "{:<34} | {:>14}",
        "Public idle timeout (TU)",
        format!("{:.1}", PUBLIC_IDLE_TIMEOUT_TU)
    );
    println!(
        "{:<34} | {:>14}",
        "Planner overhead price factor",
        format!("{:.2}", f.overhead_price_factor)
    );
    println!("{:<34} | {:>14}", "Standing-pool headroom", format!("{:.2}", POOL_HEADROOM));
    assert!(ok, "configured defaults drifted from Table III");
    println!("\nAll Table III values match the paper.");
}
