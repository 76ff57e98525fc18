//! The tentpole invariants, end to end against the real platform:
//!
//! * **Conservation** — every completed job of a medium fixed-seed fig4
//!   cell decomposes into segments that tile `[submitted, completed]`
//!   bit-exactly and sum (telescoped) to the reported `latency_tu`.
//! * **Path equivalence** — the batch derivation over the columnar store
//!   reproduces the incremental observer element for element.
//! * **Merged stores** — `derive` over a fleet store merged across
//!   repetitions by rayon equals the live per-session observers folded
//!   sequentially in `(repetition, tenant)` order, which is exactly what
//!   `RAYON_NUM_THREADS=1` executes.
//! * **Property** — randomised single-stage job timelines (boot windows
//!   in every position relative to the wait window, anchor ties,
//!   deferrals) always conserve.

use proptest::prelude::*;
use scan_platform::config::{ScanConfig, VariableParams};
use scan_platform::fleet::{run_fleet_replicated_with, run_fleet_with, FleetConfig};
use scan_platform::session::run_session_with;
use scan_sched::scaling::ScalingPolicy;
use scan_sim::{Merge, Observer, SimTime, TraceEvent};
use scan_spans::{aggregate, derive, render, render_slowest, Recorder, SpanObserver, SpanSet};
use scan_tracestore::{EventKind, TraceStore};

/// The bench suite's medium fig4 cell: predictive scaling, 2.0 TU mean
/// interval, fixed seed, 300 TU horizon — a few hundred completed jobs.
fn fig4_cfg() -> ScanConfig {
    let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.0), 99);
    cfg.fixed.sim_time_tu = 300.0;
    // Tight enough that the monitor actually fires in this cell (the
    // break-even default ≈ 26.7 TU is above every latency here).
    cfg.slo_target_tu = Some(5.0);
    cfg
}

#[test]
fn medium_fig4_cell_conserves_and_derivation_paths_agree() {
    let cfg = fig4_cfg();
    let (metrics, rec) = run_session_with(&cfg, 0, Recorder::default());
    let spans = rec.spans.into_spans();

    assert!(spans.jobs.len() > 100, "expected a real workload, got {} jobs", spans.jobs.len());
    assert_eq!(spans.jobs.len() as u64, metrics.jobs_completed, "one span tree per completion");
    assert!(
        spans.jobs.len() as u64 + spans.in_flight <= metrics.jobs_submitted,
        "admitted jobs cannot exceed submissions"
    );
    for job in &spans.jobs {
        assert!(
            job.conservation_ok(),
            "job {} breaks conservation: latency={} span={} segments={:#?}",
            job.job,
            job.latency_tu,
            job.span_tu(),
            job.segments
        );
    }

    // The SLO monitor fired and landed in the trace.
    assert!(metrics.jobs_slo_violated > 0, "5 TU target must be missed by some jobs");
    assert_eq!(
        rec.store.table(EventKind::SloViolation).rows() as u64,
        metrics.jobs_slo_violated,
        "one slo_violation event per counted violation"
    );

    // Batch derivation over the store equals the incremental observer.
    let batch = derive(&rec.store);
    assert_eq!(batch, spans, "derive(store) must reproduce the live observer");

    // The aggregate report mentions every segment kind that occurred and
    // the slowest-job table is non-trivial.
    let report = render(&aggregate(&spans));
    assert!(report.contains("segment=service"), "{report}");
    let table = render_slowest(&spans, 5);
    assert_eq!(table.lines().count(), 2 + 5, "{table}");
}

#[test]
fn merged_fleet_store_derives_the_live_spans() {
    let mut base = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), 7);
    base.fixed.sim_time_tu = 2_000.0;
    base.slo_target_tu = Some(base.breakeven_latency_tu());
    let mut cfg = FleetConfig::new(base, 3);
    cfg.jobs_per_tenant = 4;
    let reps = 3u64;

    let (par_metrics, store) =
        run_fleet_replicated_with(&cfg, reps, &|tenant| TraceStore::for_tenant(tenant as u32));
    let spans = derive(&store);

    // Repetitions reuse job and worker ids, so only a replay that keeps
    // every session apart gets this right.
    let live_build = |tenant: u64| SpanObserver::for_tenant(tenant as u32);
    let mut live = SpanSet::default();
    let mut seq_metrics = Vec::new();
    for rep in 0..reps {
        let (m, observers) = run_fleet_with(&cfg, rep, &live_build);
        seq_metrics.push(m);
        for obs in observers {
            live.merge(obs.into_spans());
        }
    }

    assert_eq!(par_metrics, seq_metrics);
    assert!(!spans.jobs.is_empty());
    assert_eq!(spans, live, "derive(merged store) must equal the live per-session spans");
    for job in &spans.jobs {
        assert!(job.conservation_ok(), "fleet job breaks conservation: {job:#?}");
    }
    // All three tenants contributed spans.
    for tenant in 0..cfg.tenants as u32 {
        assert!(spans.jobs.iter().any(|j| j.tenant == tenant), "tenant {tenant} missing");
    }
}

proptest! {
    /// Randomised single-stage jobs: the boot window lands before,
    /// inside, or after the wait window; dispatches tie or dominate on
    /// busy time; admission defers by arbitrary gaps. Conservation must
    /// hold in every case.
    #[test]
    fn random_job_timelines_conserve(
        jobs in proptest::collection::vec(
            (
                0.0f64..4.0,  // admission deferral
                0.0f64..3.0,  // hire lead before arrival
                0.0f64..4.0,  // boot duration
                0.0f64..3.0,  // queue wait after arrival
                0.1f64..5.0,  // first dispatch busy
                0.0f64..6.0,  // second dispatch busy (may dominate)
                0.0f64..1.0,  // fan-in tail
                0u32..3,      // flavor: 0 hire, 1 reshape, 2 never boots
            ),
            1..40,
        ),
    ) {
        let mut obs = SpanObserver::new();
        let mut clock = 0.0f64;
        let mut expected = 0usize;
        for (i, &(defer, lead, boot, wait, busy_a, busy_b, fan_in, flavor)) in
            jobs.iter().enumerate()
        {
            let job = i as u64;
            let vm = i as u64;
            let submitted = clock;
            let arrive = submitted + defer;
            let hire_t = (arrive - lead).max(0.0);
            let boot_end = hire_t + boot;
            let dispatch_t = arrive + wait;
            let feed = |o: &mut SpanObserver, t: f64, e: TraceEvent| {
                o.on_event(SimTime::new(t), &e);
            };
            match flavor {
                0 => feed(&mut obs, hire_t, TraceEvent::VmHired { vm, tier: 0, cores: 2 }),
                _ => feed(&mut obs, hire_t, TraceEvent::VmReshaped {
                    vm, tier: 1, cores_from: 2, cores_to: 4,
                }),
            }
            if flavor != 2 && boot_end <= dispatch_t {
                feed(&mut obs, boot_end, TraceEvent::VmBooted { vm, cores: 2 });
            }
            feed(&mut obs, arrive, TraceEvent::JobArrived {
                job, size_units: 1.0, submitted_tu: submitted,
            });
            feed(&mut obs, arrive, TraceEvent::JobStageAdvanced {
                job, stage: 0, shards: 2, cores: 1,
            });
            for busy in [busy_a, busy_b] {
                feed(&mut obs, dispatch_t, TraceEvent::SubtaskDispatched {
                    job, stage: 0, vm, cores: 1, waited_tu: wait, busy_tu: busy,
                });
            }
            let completed = dispatch_t + busy_a.max(busy_b) + fan_in;
            feed(&mut obs, completed, TraceEvent::JobCompleted {
                job,
                latency_tu: completed - submitted,
                reward: 1.0,
                core_stages: 2.0,
            });
            expected += 1;
            clock = completed + 0.125;
        }
        let set = obs.into_spans();
        prop_assert_eq!(set.jobs.len(), expected);
        prop_assert_eq!(set.in_flight, 0);
        for job in &set.jobs {
            prop_assert!(
                job.conservation_ok(),
                "job {} breaks conservation: {:#?}",
                job.job,
                job
            );
        }
    }
}
