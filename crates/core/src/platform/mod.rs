//! The SCAN platform world: the event-driven integration of Data Broker,
//! Scheduler and Workers over the simulated hybrid cloud.
//!
//! Event flow (§III-A.2):
//!
//! 1. **Arrival** — a batch of jobs lands; the allocation policy picks
//!    each job's execution plan (a shared handle on a cached, forced or
//!    bandit plan) and the stage-1 subtasks join their class queues
//!    (`admission`). Nothing is registered per job: the broker's only
//!    storage role is pricing each subtask's staging delay from the
//!    shared store's transfer model.
//! 2. **Dispatch** — idle workers of the right shape take queue heads
//!    (FIFO). A stalled class triggers the horizontal-scaling decision:
//!    use private capacity, hire public (Eq. 1 delay cost vs hire cost
//!    under the predictive policy), reshape an idle worker (when the
//!    heterogeneous configuration allows), or wait (`dispatch`,
//!    `hiring`).
//! 3. **SubtaskDone** — the worker idles; when a stage's last shard
//!    finishes, the job advances (or completes, earning its reward).
//! 4. **IdleSweep** — workers idle past the timeout are released, so cost
//!    tracks load; deferred jobs are re-admitted; past its arrival cap a
//!    tenant re-prices the waits whose inputs changed; a drained tenant
//!    tears down (`lifecycle`). Each platform holds at most one pending
//!    sweep, set after every event it handles to the first `1.0 + 0.5k`
//!    grid instant that has such work, and ordered after every other
//!    event of its tenant at that instant. A wait decision is memoised
//!    against the inputs that could flip it, so nothing re-decides a
//!    wait until one of them changes (`hiring`).
//! 5. **Replan** — long-term policies re-optimise; the adaptive policy
//!    additionally refreshes the knowledge-base-learned stage models from
//!    live task logs.
//!
//! One loop drives every session: [`Platform::run`] is a fleet of one
//! tenant ([`TenantId::SOLO`]) with no shared pool, and a fleet runs many
//! tenants through the same `run_tenants`. It pops events one at a time
//! in `(time, tenant, schedule order)` and routes each to the platform
//! whose tenant its calendar entry carries; a handler schedules through
//! its tenant's `TenantCal`, which tags whatever it schedules.
//!
//! Every step is narrated to the sim-trace layer as
//! [`TraceEvent`](scan_sim::TraceEvent)s, and the session's
//! [`SessionMetrics`] are *produced from that stream* by
//! the [`MetricsAggregator`] observer (`accounting`) — the platform
//! itself keeps no metric counters beyond what its policies need. Extra
//! observers (ring buffers, JSONL writers) attach through
//! [`Platform::add_observer`].

mod accounting;
mod admission;
#[doc(hidden)]
pub mod bench_support;
mod dispatch;
mod events;
mod hiring;
mod lifecycle;
mod state;
#[cfg(test)]
mod tests;

pub use accounting::MetricsAggregator;
pub use events::Event;

use crate::broker::DataBroker;
use crate::config::ScanConfig;
use crate::metrics::SessionMetrics;
use events::{JobRun, TenantCal};
use hiring::WaitMemos;
use scan_cloud::provider::CloudProvider;
use scan_cloud::shared::{SharedLease, Watch};
use scan_cloud::tier::TierId;
use scan_cloud::vm::VmKey;
use scan_sched::alloc::{AllocationPolicy, Allocator};
use scan_sched::delay_cost::QueuedJobView;
use scan_sched::estimate::EttEstimator;
use scan_sched::learned::EpsilonGreedyPlanner;
use scan_sched::plan::{ExecutionPlan, StageCosts};
use scan_sched::queue::ClassQueues;
use scan_sim::{
    prof, Calendar, ObserverHandle, RngHub, SimDuration, SimRng, SimTime, SlotArena, TenantId,
    Tracer,
};
use scan_workload::arrivals::ArrivalProcess;
use scan_workload::gatk::PipelineModel;
use scan_workload::job::Job;
use scan_workload::reward::RewardFn;
use state::{
    AdmissionBacklog, BootingCounts, BusyTable, ClassCounts, IdlePools, Reservations,
    StandingTargets,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// How a platform participates in a multi-tenant fleet: its identity,
/// its lease on the shared provider pool, and the fleet's run-to-
/// completion and fairness knobs. Solo sessions have none of this.
pub(crate) struct TenantSetup {
    /// This platform's tenant id within the fleet.
    pub(crate) tenant: TenantId,
    /// Handle on the fleet-wide shared capacity ledger.
    pub(crate) lease: SharedLease,
    /// Stop drawing from the arrival process after this many jobs, then
    /// tear the tenant down once they all complete (`None` = run to the
    /// horizon like a solo session).
    pub(crate) max_jobs: Option<u64>,
    /// Defer new admissions while the shared pool is exhausted and this
    /// tenant sits at or above its fair share.
    pub(crate) fair_share: bool,
}

/// The assembled platform, driven by the one event loop `run_tenants`. A thin
/// coordinator: the subsystem logic lives in this module's submodules,
/// each an `impl Platform` block over one concern.
pub struct Platform {
    cfg: Arc<ScanConfig>,
    reward: RewardFn,
    true_model: PipelineModel,
    arrivals: ArrivalProcess,
    /// The arrival batch buffer, refilled in place by every arrival.
    arrival_batch: Vec<Job>,
    broker: DataBroker,
    provider: CloudProvider,
    private_tier: TierId,
    public_tier: TierId,
    estimator: EttEstimator,
    allocator: Allocator,
    /// `cfg.forced_plan`, validated and built once per platform.
    forced_plan: Option<Arc<ExecutionPlan>>,
    /// Per-class FIFO queues, one job-level term per stage batch; they
    /// also price Eq. 1 for scaling decisions from cached per-job terms
    /// instead of a per-decision walk (DESIGN §7c).
    queues: ClassQueues,
    /// Live job runs. A job takes a slot at admission and frees it at
    /// completion; the queues and `SubtaskDone` events name jobs by
    /// slot, the records keep their public `JobId`s.
    jobs: SlotArena<JobRun>,
    /// Per-shape idle-worker pools with deterministic min-id pop.
    idle: IdlePools,
    /// Busy workers with cached finish time and shape.
    busy: BusyTable,
    /// Hires/reshapes in flight per class, so a stalled queue does not
    /// hire one VM per dispatch pass.
    pending: ClassCounts,
    /// VMs booting per shape, maintained on hire/reshape/`VmReady` —
    /// the O(1) replacement for the all-VMs booting scan the scaling
    /// inputs used to do.
    booting: BootingCounts,
    /// Which class an in-flight hire/reshape is reserved for, by VM
    /// slot.
    vm_reserved_for: Reservations,
    /// Each stalled class's last wait and the inputs that could flip it
    /// (DESIGN §7c): while they hold, dispatch and the sweep skip the
    /// class instead of deciding the same wait again.
    wait_memos: WaitMemos,
    /// Replans so far; a replan may change the estimator's model, so a
    /// wait decided before it no longer holds.
    replans: u64,
    /// What `parked_watch` would answer now: the pool changes that end
    /// the held waits of every stalled class, or `None` when some
    /// stalled class holds none. Kept by dispatch, replans, sweeps and
    /// wakes; read by `rearm` past the arrival cap.
    parked: Option<Watch>,
    /// Scratch for the `(vm, cores)` a sweep releases.
    release_scratch: Vec<(VmKey, u32)>,
    /// Standing worker-pool targets per instance size (VM counts): "the
    /// SCAN Scheduler maintains analytic task queues and pools of SCAN
    /// workers" (§III-A). Sized from the learned model + load forecast.
    standing_target: StandingTargets,
    exec_noise: SimRng,
    /// §VI learned policy: the ε-greedy bandit and its RNG stream. The
    /// bandit works in *epochs* (one arm per replan period, scored by the
    /// epoch's realised profit per run) so worker pools stay coherent —
    /// mixing many plan shapes job-by-job thrashes the pools.
    learned: Option<EpsilonGreedyPlanner>,
    learned_rng: SimRng,
    learned_arm: Option<usize>,
    epoch_start: (f64, f64, u64), // (reward, cost, completed) at epoch start
    // --- fleet tenancy (inert in solo sessions) ---
    /// Who this platform is within a fleet; `TenantId::SOLO` otherwise.
    tenant: TenantId,
    /// Arrival-stream cap for run-to-completion fleets; `None` = horizon.
    max_jobs: Option<u64>,
    /// Whether the fair-share admission gate is armed.
    fair_share: bool,
    /// Jobs drawn from the arrival stream so far (admitted or deferred).
    taken_jobs: u64,
    /// Jobs deferred by the fair-share gate, awaiting re-admission.
    backlog: AdmissionBacklog,
    // --- adaptive-policy state ---
    observed_rate: f64,
    observed_size: f64,
    last_arrival_at: SimTime,
    adaptive_ingest_counter: u64,
    // --- learned-epoch scoring (the only metrics the platform keeps) ---
    total_reward: f64,
    completed: u64,
    // --- observability ---
    tracer: Tracer,
    aggregator: Rc<RefCell<MetricsAggregator>>,
    /// Scratch for the naive Eq. 1 queue view. Since the queues' cached
    /// terms took over pricing, the full-walk fill only runs as the
    /// debug-build oracle cross-checking them (DESIGN §7c); it still
    /// reuses this buffer so even the oracle allocates nothing per event.
    scaling_scratch: Vec<QueuedJobView>,
}

impl Platform {
    /// Builds the platform for one `(config, repetition)` pair.
    ///
    /// Takes the config as `impl Into<Arc<ScanConfig>>`: solo callers
    /// keep passing an owned `ScanConfig`, while fleet construction
    /// shares one `Arc` across all tenants instead of deep-cloning the
    /// config per platform.
    pub fn new(cfg: impl Into<Arc<ScanConfig>>, repetition: u64) -> Self {
        Self::build(cfg.into(), repetition, None)
    }

    /// Builds one fleet tenant's platform: a normal `(config,
    /// repetition)` build whose provider additionally holds a lease on
    /// the fleet's shared capacity pool.
    pub(crate) fn new_tenant(cfg: Arc<ScanConfig>, repetition: u64, setup: TenantSetup) -> Self {
        Self::build(cfg, repetition, Some(setup))
    }

    fn build(cfg: Arc<ScanConfig>, repetition: u64, tenancy: Option<TenantSetup>) -> Self {
        let hub = RngHub::new(cfg.seed, repetition);
        let true_model = cfg.true_model();
        let mut kb_rng = hub.stream("kb-bootstrap");
        let mut broker = DataBroker::bootstrap(&true_model, cfg.fixed.profile_noise, &mut kb_rng);
        if cfg.variable.allocation != AllocationPolicy::LongTermAdaptive {
            // Only the adaptive policy re-fits (`on_replan`); every other
            // tenant keeps just the learned model.
            broker.drop_log();
        }

        let mut provider = CloudProvider::new(cfg.tier_catalog());
        let (tenant, max_jobs, fair_share) = match tenancy {
            Some(setup) => {
                provider.attach_shared(setup.lease, setup.tenant);
                (setup.tenant, setup.max_jobs, setup.fair_share)
            }
            None => (TenantId::SOLO, None, false),
        };

        let arrivals = ArrivalProcess::new(
            cfg.arrival_config(),
            hub.stream("arrival-timing"),
            hub.stream("arrival-sizes"),
        );

        let estimator = EttEstimator::new(broker.learned_model().clone(), cfg.fixed.eqt_alpha);
        let allocator = Allocator::new(cfg.variable.allocation, cfg.fixed.replan_period_tu);
        let forced_plan =
            cfg.forced_plan.clone().map(|stages| Arc::new(ExecutionPlan::new(stages)));
        let learned = (cfg.variable.allocation == AllocationPolicy::Learned).then(|| {
            // Warm-start each arm with its model-predicted profit, so
            // exploration starts from the analytic ranking instead of
            // paying full price to try arms the model knows are bad.
            let costs = StageCosts::new(broker.learned_model(), cfg.fixed.mean_job_size);
            let arms = costs.candidates();
            let objective = scan_sched::plan::PlanObjective {
                reward: cfg.reward_fn(),
                price_per_core_tu: cfg.fixed.private_core_cost * cfg.fixed.overhead_price_factor,
                overhead_tu: 1.0,
            };
            let priors: Vec<f64> =
                arms.iter().map(|plan| costs.evaluate(plan, &objective).profit).collect();
            EpsilonGreedyPlanner::with_priors(arms, priors, 0.05)
        });
        let reward = cfg.reward_fn();
        let observed_rate = cfg.arrival_config().mean_job_rate();
        let observed_size = cfg.fixed.mean_job_size;

        // The session's metrics are an observer like any other; it is
        // attached first so it sees every event of the run.
        let aggregator = Rc::new(RefCell::new(MetricsAggregator::new()));
        let mut tracer = Tracer::disabled();
        tracer.attach(aggregator.clone());

        Platform {
            reward,
            true_model,
            arrivals,
            arrival_batch: Vec::new(),
            broker,
            provider,
            private_tier: TierId(0),
            public_tier: TierId(1),
            estimator,
            allocator,
            forced_plan,
            queues: ClassQueues::new(),
            jobs: SlotArena::new(),
            idle: IdlePools::new([
                SimDuration::new(cfg.fixed.idle_timeout_tu),
                SimDuration::new(cfg.fixed.public_idle_timeout_tu),
            ]),
            busy: BusyTable::new(),
            pending: ClassCounts::new(),
            booting: BootingCounts::new(),
            vm_reserved_for: Reservations::default(),
            wait_memos: WaitMemos::default(),
            replans: 0,
            parked: Some(Watch::default()),
            release_scratch: Vec::new(),
            standing_target: StandingTargets::default(),
            exec_noise: hub.stream("exec-noise"),
            learned,
            learned_rng: hub.stream("learned-policy"),
            learned_arm: None,
            epoch_start: (0.0, 0.0, 0),
            tenant,
            max_jobs,
            fair_share,
            taken_jobs: 0,
            backlog: AdmissionBacklog::default(),
            observed_rate,
            observed_size,
            last_arrival_at: SimTime::ZERO,
            adaptive_ingest_counter: 0,
            total_reward: 0.0,
            completed: 0,
            tracer,
            aggregator,
            scaling_scratch: Vec::new(),
            cfg,
        }
    }

    /// Attaches a trace observer to the session. Must be called before
    /// [`Platform::run`]: the subsystems snapshot the sink list when the
    /// run starts, so later attachments would miss provider events.
    pub fn add_observer(&mut self, sink: ObserverHandle) {
        self.tracer.attach(sink);
    }

    /// Runs the full session and returns its metrics: the session is a
    /// fleet of one tenant, [`TenantId::SOLO`], with no shared pool.
    pub fn run(self) -> SessionMetrics {
        let horizon = SimTime::new(self.cfg.fixed.sim_time_tu);
        let mut solo = [self];
        let (ended_at, events) = run_tenants(&mut solo, None, horizon);
        let [p] = solo;
        p.finish(ended_at, events[0])
    }

    /// Boots the session: hands the provider the (now final) sink list,
    /// hires the initial standing pools, and schedules the first arrival
    /// and the replan tick into `sink`.
    fn start(&mut self, horizon: SimTime, sink: &mut TenantCal<'_>) {
        prof::scope!("start");
        // Hand the provider the sink list before the first hire so the
        // initial standing-pool hires are narrated too.
        self.provider.set_tracer(self.tracer.clone());
        self.resize_standing_pools(SimTime::ZERO, sink);
        sink.schedule(self.arrivals.next_arrival_at().min(horizon), Event::Arrival);
        sink.schedule(SimTime::new(self.cfg.fixed.replan_period_tu), Event::Replan);
        self.rearm(SimTime::ZERO, true, sink);
    }

    /// Dispatches one event to its subsystem, then re-arms the tenant's
    /// sweep from what the event changed.
    fn handle_event(&mut self, now: SimTime, event: Event, sink: &mut TenantCal<'_>) {
        self.route(now, event, sink);
        // A sweep is the last of the tenant's events at its instant, so
        // the next one can be no earlier than the next grid instant.
        self.rearm(now, event != Event::IdleSweep, sink);
    }

    fn route(&mut self, now: SimTime, event: Event, sink: &mut TenantCal<'_>) {
        match event {
            Event::Arrival => {
                prof::scope!("arrival");
                self.on_arrival(now, sink)
            }
            Event::VmReady(vm) => {
                prof::scope!("vm_ready");
                self.on_vm_ready(now, vm, sink)
            }
            Event::SubtaskDone { job, stage, vm } => {
                prof::scope!("subtask_done");
                self.on_subtask_done(now, job, stage as usize, vm, sink)
            }
            Event::IdleSweep => {
                prof::scope!("idle_sweep");
                self.on_idle_sweep(now, sink)
            }
            Event::Replan => {
                prof::scope!("replan");
                self.on_replan(now, sink)
            }
        }
    }

    /// Whether a capped (fleet) tenant has fully drained: every job it
    /// will ever take has been taken, admitted, and completed. Always
    /// false for solo sessions (`max_jobs` unset), so their lifecycle is
    /// exactly the pre-fleet run-to-horizon.
    pub(crate) fn finished(&self) -> bool {
        self.arrivals_exhausted() && self.backlog.is_empty() && self.jobs.is_empty()
    }

    /// Whether the arrival stream has been capped off.
    pub(super) fn arrivals_exhausted(&self) -> bool {
        self.max_jobs.is_some_and(|cap| self.taken_jobs >= cap)
    }
}

/// The one event loop. Starts every tenant, then pops events in
/// `(time, tenant, schedule order)` and routes each to the platform of
/// its tenant; tenant `t` is `tenants[t]`. Under a shared `lease`, every
/// other tenant an event's pool change woke then re-arms its sweep.
///
/// Events are popped one at a time, so an event a handler schedules (or
/// a wakeup it sets) at the current instant takes its place among the
/// events still pending there. Events at `horizon` fire; the run stops
/// before the first later one. Returns the instant the run ended (the
/// last event's, or `horizon` when events were left) and the events
/// each tenant handled.
pub(crate) fn run_tenants(
    tenants: &mut [Platform],
    lease: Option<&SharedLease>,
    horizon: SimTime,
) -> (SimTime, Vec<u64>) {
    // Pre-size the heap for the steady-state backlog (one completion per
    // in-flight subtask plus each tenant's ticks) so it never
    // re-heapifies mid-run, but cap it: a 10k-tenant fleet must not
    // pre-commit hundreds of MB.
    let mut cal = Calendar::with_capacity((64 * tenants.len()).clamp(1024, 1 << 20));
    for (t, p) in tenants.iter_mut().enumerate() {
        debug_assert_eq!(p.tenant.index(), t, "tenant ids are their indices");
        p.start(horizon, &mut TenantCal { cal: &mut cal, tenant: p.tenant });
    }
    let mut handled = vec![0; tenants.len()];
    // Scratch for the tenants one event woke.
    let mut woken = Vec::new();
    while let Some(ev) = cal.pop() {
        if ev.at > horizon {
            return (horizon, handled);
        }
        let tenant = ev.tenant;
        handled[tenant.index()] += 1;
        let sink = &mut TenantCal { cal: &mut cal, tenant };
        tenants[tenant.index()].handle_event(ev.at, ev.event, sink);
        let Some(lease) = lease else { continue };
        lease.borrow_mut().drain_woken(&mut woken);
        for &other in &woken {
            // The event's own tenant re-armed as it finished the event.
            // Tenants ordered after it can still sweep at this instant;
            // those before it have had their turn.
            if other != tenant {
                let sink = &mut TenantCal { cal: &mut cal, tenant: other };
                tenants[other.index()].wake(ev.at, other > tenant, sink);
            }
        }
    }
    (cal.now(), handled)
}
