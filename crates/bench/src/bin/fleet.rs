//! Multi-tenant fleet smoke + throughput: runs whole fleets to
//! completion at several tenant counts, printing a deterministic
//! per-replication summary on stdout and wall-clock jobs/sec on stderr.
//!
//! The deterministic stdout is the CI smoke contract: the fleet result is
//! a pure function of `(seed, repetition)`, so two invocations — under
//! *different* `RAYON_NUM_THREADS` — must emit byte-identical stdout.
//!
//! Usage: `cargo run --release -p scan-bench --bin fleet [--quick]
//! [--store <path>] [--spans <path> [--slowest N]]` (`--quick` runs the
//! 100-tenant point only; `SCAN_TENANTS=100,1000` overrides the
//! tenant-count axis.) `--store` and `--spans` record the first axis
//! point's fleet once more, with one trace store per tenant session; see
//! [`scan_bench::Artefacts::record_fleet`]. `--trace`, `--metrics` and
//! `--profile` are usage errors here (exit status 2). The merged store
//! and span report are bit-identical across `RAYON_NUM_THREADS`, and CI
//! diffs the files of a 1-thread and an 8-thread invocation.

use scan_bench::{argv, fleet_cfg, usage_error, Artefacts};
use scan_platform::fleet::run_fleet_replicated;
use std::time::Instant;

fn main() {
    let artefacts = Artefacts::parse_fleet(&argv()).unwrap_or_else(|e| usage_error(&e));
    let quick = std::env::args().any(|a| a == "--quick");
    let axis: Vec<u16> = match std::env::var("SCAN_TENANTS") {
        Ok(v) => v.split(',').filter_map(|s| s.trim().parse().ok()).collect(),
        Err(_) => {
            if quick {
                vec![100]
            } else {
                vec![100, 1_000, 10_000]
            }
        }
    };
    let reps = 2u64;
    println!("fleet: run-to-completion multi-tenant fleets ({reps} replications each)");
    if let Some(&tenants) = axis.first() {
        artefacts.record_fleet(&fleet_cfg(tenants), reps);
    }
    for &tenants in &axis {
        let cfg = fleet_cfg(tenants);
        let t0 = Instant::now();
        let runs = run_fleet_replicated(&cfg, reps);
        let wall = t0.elapsed().as_secs_f64();
        let jobs: u64 = runs.iter().map(|m| m.jobs_completed).sum();
        for (rep, m) in runs.iter().enumerate() {
            println!(
                "tenants={tenants} rep={rep} submitted={} completed={} deferred={} \
                 peak_shared={} events={} ended_at={:.3}",
                m.jobs_submitted,
                m.jobs_completed,
                m.jobs_deferred,
                m.peak_shared_cores,
                m.events,
                m.ended_at_tu
            );
        }
        eprintln!(
            "tenants={tenants}: {jobs} jobs in {wall:.2}s = {:.0} jobs/s",
            jobs as f64 / wall
        );
    }
}
