//! Multi-tenant fleets: M SCAN platforms on one shared provider pool,
//! multiplexed over a single deterministic calendar.
//!
//! A fleet run builds `tenants` platforms from one shared
//! [`Arc<ScanConfig>`] (no per-tenant deep clone), leases each a handle
//! on the fleet-wide [`SharedCapacity`] ledger, and drives them all
//! through the **one** event loop a solo session also runs: every
//! scheduled event is tagged with its tenant id
//! ([`Calendar::schedule_for`](scan_sim::Calendar::schedule_for)), which
//! routes it back to its platform and makes simultaneous events
//! interleave tenant-major — a fixed, thread-free total order. Tenants
//! run to completion (`jobs_per_tenant` arrivals each, then teardown),
//! contending for shared private cores under the fair-share admission
//! gate and surging the public on-demand price as fleet-wide hire grows.
//!
//! Whole-fleet replications shard across cores exactly like
//! [`sweep`](crate::sweep) repetitions: each repetition is a pure
//! function of `(seed, repetition)`, each tenant's observer comes from a
//! `Sync` builder closure called with the tenant number (`0..tenants` on
//! every repetition), and observers merge in `(repetition, tenant)`
//! order — so fleet results are bit-identical at any
//! `RAYON_NUM_THREADS`.

use crate::config::ScanConfig;
use crate::metrics::SessionMetrics;
use crate::platform::{run_tenants, Platform, TenantSetup};
use rayon::prelude::*;
use scan_cloud::shared::{SharedCapacity, SurgePricing};
use scan_metrics::Registry;
use scan_sim::{Merge, NullObserver, Observer, SimTime, TenantId};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// One multi-tenant fleet run's shape: who shares how much, under which
/// contention rules.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The per-tenant platform configuration, shared (not cloned) across
    /// all tenants.
    pub base: Arc<ScanConfig>,
    /// Number of tenant platforms in the fleet.
    pub tenants: u16,
    /// Size of the shared private-tier core pool arbitrated across
    /// tenants (each tenant's own `private_capacity_cores` still caps its
    /// local view; the effective limit is the tighter of the two).
    pub shared_private_cores: u32,
    /// Contention-sensitive pricing of the shared public tier.
    pub surge: SurgePricing,
    /// Arm the fair-share admission gate: defer a tenant's new arrivals
    /// while the shared pool is exhausted and it sits at or above its
    /// fair share.
    pub fair_share_admission: bool,
    /// Arrival-stream cap per tenant; each tenant tears down once its
    /// jobs all complete, and the fleet ends when every tenant has.
    pub jobs_per_tenant: u64,
    /// Hard stop for the whole fleet, TU (a backstop — run-to-completion
    /// fleets normally drain first).
    pub horizon_tu: f64,
}

impl FleetConfig {
    /// A fleet of `tenants` platforms over `base`, with the shared pool
    /// sized like one solo session's private tier, a mild surge, the
    /// fair-share gate armed, and a modest per-tenant workload.
    pub fn new(base: ScanConfig, tenants: u16) -> Self {
        let horizon_tu = base.fixed.sim_time_tu;
        let shared_private_cores = base.fixed.private_capacity_cores;
        FleetConfig {
            base: Arc::new(base),
            tenants,
            shared_private_cores,
            surge: SurgePricing { factor: 0.25, per_cores: 256.0 },
            fair_share_admission: true,
            jobs_per_tenant: 25,
            horizon_tu,
        }
    }
}

/// What one fleet run reports: per-tenant session metrics plus the
/// fleet-wide aggregates only the shared ledger can see.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetMetrics {
    /// Per-tenant session metrics, in tenant order.
    pub tenants: Vec<SessionMetrics>,
    /// Jobs admitted fleet-wide.
    pub jobs_submitted: u64,
    /// Jobs completed fleet-wide.
    pub jobs_completed: u64,
    /// Fair-share admission deferrals fleet-wide.
    pub jobs_deferred: u64,
    /// Reward earned fleet-wide, CU.
    pub total_reward: f64,
    /// Infrastructure spend fleet-wide, CU.
    pub total_cost: f64,
    /// High-water mark of shared private cores reserved at once.
    pub peak_shared_cores: u32,
    /// Events dispatched by the fleet engine.
    pub events: u64,
    /// Clock value when the fleet drained (or hit the horizon), TU.
    pub ended_at_tu: f64,
}

impl FleetMetrics {
    fn from_sessions(tenants: Vec<SessionMetrics>, peak: u32, events: u64, ended_at: f64) -> Self {
        let mut m = FleetMetrics {
            tenants: Vec::new(),
            jobs_submitted: 0,
            jobs_completed: 0,
            jobs_deferred: 0,
            total_reward: 0.0,
            total_cost: 0.0,
            peak_shared_cores: peak,
            events,
            ended_at_tu: ended_at,
        };
        for s in &tenants {
            m.jobs_submitted += s.jobs_submitted;
            m.jobs_completed += s.jobs_completed;
            m.jobs_deferred += s.jobs_deferred;
            m.total_reward += s.total_reward;
            m.total_cost += s.total_cost;
        }
        m.tenants = tenants;
        m
    }

    /// Projects the per-tenant outcomes into a [`Registry`] with a
    /// `tenant` label dimension, so fleet spend and throughput stay
    /// observable through the same exposition path as every other metric.
    pub fn registry(&self) -> Registry {
        let mut r = Registry::new(1.0);
        for (t, m) in self.tenants.iter().enumerate() {
            let tenant = t.to_string();
            let completed = r.counter(
                "fleet_jobs_completed_total",
                "tenant",
                &tenant,
                "jobs",
                "Jobs completed by one fleet tenant",
            );
            r.counter_add(completed, m.jobs_completed);
            let deferred = r.counter(
                "fleet_jobs_deferred_total",
                "tenant",
                &tenant,
                "jobs",
                "Jobs the fair-share admission gate deferred for one fleet tenant",
            );
            r.counter_add(deferred, m.jobs_deferred);
            let slo = r.counter(
                "fleet_slo_violations_total",
                "tenant",
                &tenant,
                "jobs",
                "Completed jobs that missed the SLO target, per fleet tenant",
            );
            r.counter_add(slo, m.jobs_slo_violated);
            let spend = r.gauge(
                "fleet_spend_cu",
                "tenant",
                &tenant,
                "CU",
                "Total infrastructure spend of one fleet tenant",
            );
            r.gauge_set(spend, m.total_cost);
        }
        r
    }
}

/// Runs one fleet repetition to completion. No observer is attached
/// beside each tenant's metrics aggregator.
pub fn run_fleet(cfg: &FleetConfig, repetition: u64) -> FleetMetrics {
    run_fleet_observed(cfg, repetition, None::<&fn(u64) -> NullObserver>).0
}

/// [`run_fleet`], with one observer per tenant, built as `build(tenant)`
/// for tenants `0..tenants` on every repetition; the observers return in
/// tenant order.
pub fn run_fleet_with<O: Observer + 'static>(
    cfg: &FleetConfig,
    repetition: u64,
    build: &(impl Fn(u64) -> O + Sync),
) -> (FleetMetrics, Vec<O>) {
    run_fleet_observed(cfg, repetition, Some(build))
}

/// The fleet loop: [`run_fleet_with`] when `build` is given, and with
/// no observer attached (and none returned) when it is `None`.
fn run_fleet_observed<O: Observer + 'static, F: Fn(u64) -> O + Sync>(
    cfg: &FleetConfig,
    repetition: u64,
    build: Option<&F>,
) -> (FleetMetrics, Vec<O>) {
    assert!(cfg.tenants > 0, "a fleet needs at least one tenant");
    let n = cfg.tenants as usize;
    let lease = SharedCapacity::new(cfg.shared_private_cores, n, cfg.surge).into_lease();

    let mut tenants: Vec<Platform> = Vec::with_capacity(n);
    let mut sinks = Vec::with_capacity(if build.is_some() { n } else { 0 });
    for t in 0..n {
        // Every (repetition, tenant) pair draws its own RNG streams.
        let mut p = Platform::new_tenant(
            Arc::clone(&cfg.base),
            repetition * n as u64 + t as u64,
            TenantSetup {
                tenant: TenantId(t as u16),
                lease: Rc::clone(&lease),
                max_jobs: Some(cfg.jobs_per_tenant),
                fair_share: cfg.fair_share_admission,
            },
        );
        if let Some(build) = build {
            let sink = Rc::new(RefCell::new(build(t as u64)));
            p.add_observer(sink.clone());
            sinks.push(sink);
        }
        tenants.push(p);
    }

    let (ended_at, handled) = run_tenants(&mut tenants, Some(&lease), SimTime::new(cfg.horizon_tu));
    let peak = lease.borrow().peak_used();

    let mut sessions = Vec::with_capacity(n);
    for (p, events) in tenants.into_iter().zip(&handled) {
        sessions.push(p.finish(ended_at, *events));
    }
    // The platforms (and their tracer clones) are gone: each observer
    // handle is unique again and the observer can cross threads.
    let observers = sinks
        .into_iter()
        .map(|s| {
            Rc::try_unwrap(s).ok().expect("observer uniquely owned after the run").into_inner()
        })
        .collect();
    let events = handled.iter().sum();
    let metrics = FleetMetrics::from_sessions(sessions, peak, events, ended_at.as_tu());
    (metrics, observers)
}

/// Runs `repetitions` whole-fleet replications in parallel.
pub fn run_fleet_replicated(cfg: &FleetConfig, repetitions: u64) -> Vec<FleetMetrics> {
    run_fleet_replicated_observed(cfg, repetitions, None::<&fn(u64) -> NullObserver>).0
}

/// [`run_fleet_replicated`], with one observer per tenant session across
/// every replication, built as in [`run_fleet_with`].
///
/// Each repetition is an independent fleet (rayon shards them across
/// cores); observers merge strictly in `(repetition, tenant)` order, so
/// the result is bit-identical to a sequential loop regardless of
/// `RAYON_NUM_THREADS`.
pub fn run_fleet_replicated_with<O: Observer + Merge + Send + 'static>(
    cfg: &FleetConfig,
    repetitions: u64,
    build: &(impl Fn(u64) -> O + Sync),
) -> (Vec<FleetMetrics>, O) {
    let (metrics, merged) = run_fleet_replicated_observed(cfg, repetitions, Some(build));
    (metrics, merged.expect("repetitions and tenants are both nonzero"))
}

/// The replication loop over [`run_fleet_observed`]; the merged
/// observer is `None` when `build` is.
fn run_fleet_replicated_observed<O: Observer + Merge + Send + 'static, F: Fn(u64) -> O + Sync>(
    cfg: &FleetConfig,
    repetitions: u64,
    build: Option<&F>,
) -> (Vec<FleetMetrics>, Option<O>) {
    assert!(repetitions >= 1);
    let runs: Vec<(FleetMetrics, Vec<O>)> =
        (0..repetitions).into_par_iter().map(|rep| run_fleet_observed(cfg, rep, build)).collect();
    // Deterministic fold: `collect` returned repetition order; within a
    // repetition, `run_fleet_observed` returned tenant order.
    let (metrics, observers): (Vec<_>, Vec<_>) = runs.into_iter().unzip();
    let merged = observers.into_iter().flatten().reduce(|mut a, b| {
        a.merge(b);
        a
    });
    (metrics, merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VariableParams;
    use scan_sched::scaling::ScalingPolicy;
    use scan_sim::JsonlWriter;

    fn fleet(tenants: u16, shared_cores: u32, jobs: u64) -> FleetConfig {
        let mut base = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.5), 23);
        base.fixed.sim_time_tu = 400.0;
        let mut cfg = FleetConfig::new(base, tenants);
        cfg.shared_private_cores = shared_cores;
        cfg.jobs_per_tenant = jobs;
        cfg.surge = SurgePricing { factor: 0.5, per_cores: 64.0 };
        cfg
    }

    #[test]
    fn fleet_runs_every_tenant_to_completion() {
        let cfg = fleet(3, 48, 8);
        let m = run_fleet(&cfg, 0);
        assert_eq!(m.tenants.len(), 3);
        for (t, s) in m.tenants.iter().enumerate() {
            assert_eq!(s.jobs_submitted, 8, "tenant {t} admits its full arrival cap");
            assert_eq!(s.jobs_completed, 8, "tenant {t} drains before the horizon");
        }
        assert_eq!(m.jobs_completed, 24);
        assert!(m.ended_at_tu < cfg.horizon_tu, "run-to-completion ends early");
        assert!(m.peak_shared_cores <= cfg.shared_private_cores);
    }

    #[test]
    fn fleet_is_deterministic() {
        let cfg = fleet(3, 32, 6);
        assert_eq!(run_fleet(&cfg, 1), run_fleet(&cfg, 1));
    }

    #[test]
    fn contended_fleet_defers_and_still_completes() {
        // A pool far below fleet demand under heavy load: the fair-share
        // gate must engage, and every deferred job must still finish.
        let mut base = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 0.9), 23);
        base.fixed.sim_time_tu = 500.0;
        let mut cfg = FleetConfig::new(base, 4);
        cfg.shared_private_cores = 8;
        cfg.jobs_per_tenant = 6;
        let m = run_fleet(&cfg, 0);
        assert!(m.jobs_deferred > 0, "a tight shared pool must trip the gate");
        assert_eq!(m.jobs_submitted, 24, "deferred arrivals are admitted later, not dropped");
        assert_eq!(m.jobs_completed, m.jobs_submitted);
        assert!(m.peak_shared_cores <= 8);
    }

    #[test]
    fn registry_projects_per_tenant_counters() {
        let cfg = fleet(2, 24, 4);
        let m = run_fleet(&cfg, 0);
        let r = m.registry();
        assert_eq!(r.counters().len(), 6, "three families × two tenants");
        let completed: u64 = r
            .counters()
            .iter()
            .filter(|(meta, _)| meta.family == "fleet_jobs_completed_total")
            .map(|&(_, v)| v)
            .sum();
        assert_eq!(completed, m.jobs_completed);
        assert_eq!(r.gauges().len(), 2);
    }

    /// The tenant-tagged trace bytes of one session and the tenant
    /// number it was built with; merging concatenates the bytes (in the
    /// caller's deterministic order).
    struct TraceBytes(Vec<u8>, u32);

    impl TraceBytes {
        fn build(tenant: u64) -> TraceBytes {
            TraceBytes(Vec::new(), tenant as u32)
        }
    }

    impl Observer for TraceBytes {
        fn on_event(&mut self, at: SimTime, event: &scan_sim::TraceEvent) {
            JsonlWriter::with_tenant(&mut self.0, self.1).on_event(at, event);
        }
    }

    impl Merge for TraceBytes {
        fn merge(&mut self, other: TraceBytes) {
            self.0.extend(other.0);
        }
    }

    /// Satellite determinism guarantee: replicated fleet metrics and the
    /// merged tenant-tagged cell traces are byte-identical between the
    /// rayon fan-out and a purely sequential evaluation — the fleet
    /// mirror of `observed_sweep_is_thread_count_invariant`.
    #[test]
    fn fleet_replication_is_thread_count_invariant() {
        let cfg = fleet(3, 24, 5);
        let reps = 3;

        let (par_metrics, par_trace) = run_fleet_replicated_with(&cfg, reps, &TraceBytes::build);

        let (seq_metrics, seq_traces): (Vec<_>, Vec<_>) =
            (0..reps).map(|rep| run_fleet_with(&cfg, rep, &TraceBytes::build)).unzip();
        let seq_trace = seq_traces.into_iter().flatten().reduce(|mut a, b| {
            a.merge(b);
            a
        });

        assert_eq!(par_metrics, seq_metrics, "fleet metrics must not depend on threads");
        let seq_trace = seq_trace.unwrap();
        assert!(!par_trace.0.is_empty(), "the traced fleet must emit events");
        assert_eq!(par_trace.0, seq_trace.0, "merged traces must be byte-identical");
    }

    /// Every repetition builds its tenants' observers with the tenant
    /// numbers `0..tenants`, not a running session count.
    #[test]
    fn builders_get_the_tenant_number_on_every_repetition() {
        let cfg = fleet(3, 24, 2);
        let (_, observers) = run_fleet_with(&cfg, 1, &TraceBytes::build);
        let tenants: Vec<u32> = observers.iter().map(|o| o.1).collect();
        assert_eq!(tenants, [0, 1, 2]);
        let tagged = String::from_utf8(observers[2].0.clone()).unwrap();
        assert!(tagged.lines().all(|line| line.contains("\"tenant\":2,")), "{tagged}");
    }

    mod fairness {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        /// One contention geometry's fleet outcome. Each run is a pure
        /// function of its inputs (the determinism the fleet tests assert
        /// separately), so repeated proptest cases reuse the first run
        /// instead of re-simulating — full sims are the expensive part.
        fn contended_run(tenants: u16, shared_cores: u32, jobs: u64) -> FleetMetrics {
            thread_local! {
                static CACHE: RefCell<HashMap<(u16, u32, u64), FleetMetrics>> =
                    RefCell::new(HashMap::new());
            }
            CACHE.with(|cache| {
                cache
                    .borrow_mut()
                    .entry((tenants, shared_cores, jobs))
                    .or_insert_with(|| {
                        let mut base = ScanConfig::new(
                            VariableParams::fig4(ScalingPolicy::Predictive, 1.5),
                            7,
                        );
                        base.fixed.sim_time_tu = 600.0;
                        let mut cfg = FleetConfig::new(base, tenants);
                        cfg.shared_private_cores = shared_cores;
                        cfg.jobs_per_tenant = jobs;
                        run_fleet(&cfg, 0)
                    })
                    .clone()
            })
        }

        proptest! {
            /// Under random contention geometry the fair-share gate (a)
            /// never lets fleet-wide private reservations exceed the
            /// shared pool, and (b) every job drawn from the arrival
            /// stream is eventually admitted and completed.
            #[test]
            fn prop_fair_share_is_safe_and_live(
                tenants in 2u16..4,
                shared_cores in 4u32..20,
                jobs in 1u64..4,
            ) {
                let m = contended_run(tenants, shared_cores, jobs);
                prop_assert!(m.peak_shared_cores <= shared_cores);
                prop_assert_eq!(m.jobs_submitted, tenants as u64 * jobs);
                prop_assert_eq!(m.jobs_completed, m.jobs_submitted);
            }
        }
    }
}
