//! Instrumented sessions: quantitative metrics and wall-clock profiling.
//!
//! [`MetricsObserver`] is the whole metrics layer of a session: a trace
//! observer that folds the event stream into a [`scan_metrics`] registry
//! (dispatch histograms, scaling counters and margins, broker fan-out,
//! VM lifecycle counters, the SLO families, and exact time-weighted
//! series of utilisation, queue depth and per-tier spend). The simulator
//! holds no metrics handle; everything here is read off the events, so
//! attaching the observer cannot perturb the session.
//!
//! [`run_session_instrumented`] runs one session with the observer
//! attached and an optional [`prof`] self-profile of the run's wall-clock
//! time. For parallel repetitions, pass `|_| MetricsObserver::new(cfg,
//! window_tu)` to [`sweep_grid_with`](crate::sweep::sweep_grid_with),
//! which builds one observer per session and folds them with [`Merge`]
//! in repetition order: every observer registers the identical metric
//! set in the identical order, so the merged registry — and its exported
//! bytes — are independent of the thread count.

use crate::config::ScanConfig;
use crate::metrics::SessionMetrics;
use crate::session::run_session_with;
use scan_cloud::tier::BillingMode;
use scan_metrics::{CounterId, HistogramId, Registry, SeriesId, SeriesKind};
use scan_sim::prof::{self, ProfSummary};
use scan_sim::{Merge, Observer, ScalingChoice, SimTime, TraceEvent};

/// Default sim-time window for the time series (TU). Sessions run for
/// hundreds of TU, so 5 TU gives a readable number of points per series.
pub const DEFAULT_WINDOW_TU: f64 = 5.0;

/// A live VM as the event stream describes it.
#[derive(Debug, Clone, Copy, Default)]
struct VmView {
    tier: u32,
    cores: u32,
    /// When the VM's pending reshape started (cleared by its `VmBooted`).
    reshaped_at: Option<SimTime>,
}

/// One tier's running core counts and billing terms.
#[derive(Debug, Clone, Copy)]
struct TierView {
    price_per_core_tu: f64,
    billing: BillingMode,
    hired_cores: u32,
    busy_cores: u32,
}

impl TierView {
    /// Σ price × billed cores right now: busy cores on a busy-billed
    /// tier, hired cores on a hire-billed one.
    fn spend_rate(&self) -> f64 {
        let cores = match self.billing {
            BillingMode::HiredTime => self.hired_cores,
            BillingMode::BusyTime => self.busy_cores,
        };
        self.price_per_core_tu * cores as f64
    }
}

/// A time-weighted series and the value it holds. The series keeps its
/// value between samples, so sampling only on a change keeps the same
/// integral with fewer calls.
#[derive(Debug, Clone, Copy)]
struct Gauge {
    id: SeriesId,
    value: f64,
}

impl Gauge {
    /// A fresh series reads 0 until its first sample.
    fn new(id: SeriesId) -> Self {
        Gauge { id, value: 0.0 }
    }

    fn set(&mut self, registry: &mut Registry, t: f64, value: f64) {
        if value != self.value {
            registry.sample(self.id, t, value);
            self.value = value;
        }
    }
}

/// Builds a session's metrics registry from its trace stream.
///
/// Every family comes from events alone: dispatch histograms from
/// `SubtaskDispatched`, scaling counters and margins from
/// `ScalingDecision`, fan-out from `JobStageAdvanced`/`JobCompleted`, VM
/// counters from the hire/release/reshape events (and the reshape
/// penalty from each `VmReshaped`→`VmBooted` pair), SLO families from
/// `SloViolation`. The series change exactly when an event changes what
/// they measure, and `RunEnded` closes them at the horizon. The spend
/// series prices cores at the catalogue rates, which is what a solo
/// session bills (fleet tenants, whose public price surges, attach no
/// registry).
#[derive(Debug, Clone)]
pub struct MetricsObserver {
    registry: Registry,
    /// `dispatch_queue_wait_tu{stage}`.
    queue_wait: Vec<HistogramId>,
    /// `dispatch_service_time_tu{stage}`.
    service_time: Vec<HistogramId>,
    /// `scaling_margin_cu{outcome}`: `[hire, wait]`.
    margin: [HistogramId; 2],
    /// `scaling_choice_total{choice}`, indexed by [`ScalingChoice::index`].
    choice: [CounterId; ScalingChoice::ALL.len()],
    split_fanout: HistogramId,
    merge_fanout: HistogramId,
    util: Gauge,
    busy_cores: Gauge,
    queue_depth: Gauge,
    /// `tier_spend_rate{tier}`, in catalogue order.
    spend: Vec<Gauge>,
    slo_violations: CounterId,
    slo_burn: SeriesId,
    /// `vm_hired_total{tier}` / `vm_released_total{tier}`.
    hired: Vec<CounterId>,
    released: Vec<CounterId>,
    reshaped: CounterId,
    reshape_penalty: HistogramId,
    tiers: Vec<TierView>,
    /// Indexed by VM number (dense per session).
    vms: Vec<VmView>,
    /// Shards of each job's current stage, indexed by job number.
    stage_shards: Vec<u32>,
    /// The instant whose core-count changes are not sampled into the
    /// series yet. Events at one instant often change the counts several
    /// times; sampling once, when time moves on, records the instant's
    /// final values and the same integrals.
    unsampled: Option<f64>,
}

impl MetricsObserver {
    /// An observer for one session of `cfg`, registering every family in
    /// the fixed order the merge relies on; series use `window_tu`-wide
    /// windows.
    pub fn new(cfg: &ScanConfig, window_tu: f64) -> Self {
        let mut r = Registry::new(window_tu);
        let n_stages = cfg.true_model().n_stages();
        let per_stage = |r: &mut Registry, family, help| {
            (0..n_stages)
                .map(|i| r.histogram(family, "stage", &i.to_string(), "tu", help))
                .collect::<Vec<_>>()
        };
        let queue_wait = per_stage(
            &mut r,
            "dispatch_queue_wait_tu",
            "Realised queue wait per dispatched subtask, by stage",
        );
        let service_time = per_stage(
            &mut r,
            "dispatch_service_time_tu",
            "Busy span per dispatched subtask (exec + staging), by stage",
        );
        let margin = [
            r.histogram(
                "scaling_margin_cu",
                "outcome",
                "hire",
                "cu",
                "Eq. 1 |delay cost - hire cost| when the decision was to hire",
            ),
            r.histogram(
                "scaling_margin_cu",
                "outcome",
                "wait",
                "cu",
                "Eq. 1 |delay cost - hire cost| when the decision was to wait",
            ),
        ];
        let choice = ScalingChoice::ALL.map(|c| {
            r.counter(
                "scaling_choice_total",
                "choice",
                c.name(),
                "1",
                "Horizontal-scaling decisions, by outcome",
            )
        });
        let split_fanout = r.histogram(
            "broker_split_fanout",
            "",
            "",
            "1",
            "Stage-1 shards the Data Broker splits each admitted job into",
        );
        let merge_fanout = r.histogram(
            "broker_merge_fanout",
            "",
            "",
            "1",
            "Shards gathered when a job's stage completes",
        );
        let twm = SeriesKind::TimeWeightedMean;
        let util = r.series(twm, "vm_utilisation", "", "", "ratio", "Busy cores over hired cores");
        let busy_cores = r.series(twm, "vm_busy_cores", "", "", "cores", "Cores running subtasks");
        let queue_depth = r.series(twm, "queue_depth", "", "", "1", "Total queued subtasks");
        let [util, busy_cores, queue_depth] = [util, busy_cores, queue_depth].map(Gauge::new);
        let catalog = cfg.tier_catalog();
        let spend = catalog
            .iter()
            .map(|(_, t)| {
                Gauge::new(r.series(
                    twm,
                    "tier_spend_rate",
                    "tier",
                    &t.name,
                    "cu_per_tu",
                    "Price times billed cores, by tier",
                ))
            })
            .collect();
        let slo_violations = r.counter(
            "slo_violations_total",
            "",
            "",
            "jobs",
            "Completed jobs whose latency missed the configured SLO target",
        );
        let slo_burn = r.series(
            SeriesKind::Rate,
            "slo_burn_rate",
            "",
            "",
            "jobs_per_tu",
            "SLO violations per TU (windowed burn rate)",
        );
        let hired = catalog
            .iter()
            .map(|(_, t)| r.counter("vm_hired_total", "tier", &t.name, "1", "VMs hired, by tier"))
            .collect();
        let released = catalog
            .iter()
            .map(|(_, t)| {
                r.counter("vm_released_total", "tier", &t.name, "1", "VMs released, by tier")
            })
            .collect();
        let reshaped = r.counter("vm_reshaped_total", "", "", "1", "Idle-VM reshape operations");
        let reshape_penalty = r.histogram(
            "vm_reshape_penalty_tu",
            "",
            "",
            "tu",
            "Boot penalty paid per reshape (ready time minus reshape time)",
        );
        let tiers = catalog
            .iter()
            .map(|(_, t)| TierView {
                price_per_core_tu: t.cost_per_core_tu,
                billing: t.billing,
                hired_cores: 0,
                busy_cores: 0,
            })
            .collect();
        MetricsObserver {
            registry: r,
            queue_wait,
            service_time,
            margin,
            choice,
            split_fanout,
            merge_fanout,
            util,
            busy_cores,
            queue_depth,
            spend,
            slo_violations,
            slo_burn,
            hired,
            released,
            reshaped,
            reshape_penalty,
            tiers,
            vms: Vec::new(),
            stage_shards: Vec::new(),
            unsampled: None,
        }
    }

    /// The registry filled so far (complete once `RunEnded` arrived).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Unwraps the registry.
    pub fn into_registry(self) -> Registry {
        self.registry
    }

    /// Samples the core-count series with the values they took at `t`.
    fn sample_cores(&mut self, t: f64) {
        let busy: u32 = self.tiers.iter().map(|v| v.busy_cores).sum();
        let hired: u32 = self.tiers.iter().map(|v| v.hired_cores).sum();
        let util = if hired > 0 { busy as f64 / hired as f64 } else { 0.0 };
        self.util.set(&mut self.registry, t, util);
        self.busy_cores.set(&mut self.registry, t, busy as f64);
        for (tier, gauge) in self.tiers.iter().zip(&mut self.spend) {
            gauge.set(&mut self.registry, t, tier.spend_rate());
        }
    }

    fn vm(&mut self, vm: u64) -> &mut VmView {
        let slot = vm as usize;
        if self.vms.len() <= slot {
            self.vms.resize(slot + 1, VmView::default());
        }
        &mut self.vms[slot]
    }

    fn shards(&mut self, job: u64) -> &mut u32 {
        let slot = job as usize;
        if self.stage_shards.len() <= slot {
            self.stage_shards.resize(slot + 1, 0);
        }
        &mut self.stage_shards[slot]
    }
}

impl Observer for MetricsObserver {
    fn on_event(&mut self, at: SimTime, event: &TraceEvent) {
        let t = at.as_tu();
        if let Some(changed_at) = self.unsampled.filter(|&u| u < t) {
            self.sample_cores(changed_at);
            self.unsampled = None;
        }
        match *event {
            TraceEvent::SubtaskDispatched { stage, vm, waited_tu, busy_tu, .. } => {
                let stage = stage as usize;
                self.registry.record(self.queue_wait[stage], waited_tu);
                self.registry.record(self.service_time[stage], busy_tu);
                let VmView { tier, cores, .. } = *self.vm(vm);
                self.tiers[tier as usize].busy_cores += cores;
                self.unsampled = Some(t);
            }
            TraceEvent::SubtaskDone { vm, .. } => {
                let VmView { tier, cores, .. } = *self.vm(vm);
                self.tiers[tier as usize].busy_cores -= cores;
                self.unsampled = Some(t);
            }
            TraceEvent::ScalingDecision { delay_cost, hire_cost, choice, .. } => {
                self.registry.counter_add(self.choice[choice.index()], 1);
                if delay_cost.is_finite() {
                    let waited = choice == ScalingChoice::Wait;
                    self.registry
                        .record(self.margin[waited as usize], (delay_cost - hire_cost).abs());
                }
            }
            TraceEvent::JobStageAdvanced { job, stage, shards, .. } => {
                // Stage 0 is the broker's split; every later stage first
                // gathers the previous stage's shards.
                let previous = std::mem::replace(self.shards(job), shards);
                if stage == 0 {
                    self.registry.record(self.split_fanout, shards as f64);
                } else {
                    self.registry.record(self.merge_fanout, previous as f64);
                }
            }
            TraceEvent::JobCompleted { job, .. } => {
                let last = *self.shards(job);
                self.registry.record(self.merge_fanout, last as f64);
            }
            TraceEvent::SloViolation { .. } => {
                self.registry.counter_add(self.slo_violations, 1);
                self.registry.rate_add(self.slo_burn, t, 1.0);
            }
            TraceEvent::VmHired { vm, tier, cores } => {
                *self.vm(vm) = VmView { tier, cores, reshaped_at: None };
                self.tiers[tier as usize].hired_cores += cores;
                self.registry.counter_add(self.hired[tier as usize], 1);
                self.unsampled = Some(t);
            }
            TraceEvent::VmReshaped { vm, tier, cores_from, cores_to } => {
                let view = self.vm(vm);
                view.cores = cores_to;
                view.reshaped_at = Some(at);
                let tier = &mut self.tiers[tier as usize];
                tier.hired_cores = tier.hired_cores - cores_from + cores_to;
                self.registry.counter_add(self.reshaped, 1);
                self.unsampled = Some(t);
            }
            TraceEvent::VmBooted { vm, .. } => {
                if let Some(since) = self.vm(vm).reshaped_at.take() {
                    self.registry.record(self.reshape_penalty, (at - since).as_tu());
                }
            }
            TraceEvent::VmReleased { tier, cores, .. } => {
                self.tiers[tier as usize].hired_cores -= cores;
                self.registry.counter_add(self.released[tier as usize], 1);
                self.unsampled = Some(t);
            }
            TraceEvent::QueueDepthSampled { depth } => {
                self.queue_depth.set(&mut self.registry, t, depth as f64);
            }
            TraceEvent::RunEnded { .. } => {
                if let Some(changed_at) = self.unsampled.take() {
                    self.sample_cores(changed_at);
                }
                self.registry.finish(t);
            }
            _ => {}
        }
    }
}

impl Merge for MetricsObserver {
    /// Folds `other`'s registry in (see [`Registry::merge`]); the
    /// per-session event bookkeeping is not merged.
    fn merge(&mut self, other: Self) {
        self.registry.merge(&other.registry);
    }
}

/// Runs one repetition with a [`MetricsObserver`] attached, returning
/// the session metrics, the filled registry, and — when `profile` is
/// true — the thread's wall-clock self-profile of the run (empty unless
/// [`prof::enable`] was called first; the flag is process-wide).
pub fn run_session_instrumented(
    cfg: &ScanConfig,
    repetition: u64,
    window_tu: f64,
    profile: bool,
) -> (SessionMetrics, Registry, Option<ProfSummary>) {
    if profile {
        prof::reset_thread();
    }
    let (session, observer) =
        run_session_with(cfg, repetition, MetricsObserver::new(cfg, window_tu));
    let summary = profile.then(|| {
        prof::mark_session();
        prof::take_summary()
    });
    (session, observer.into_registry(), summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VariableParams;
    use crate::observers::DecisionStats;
    use crate::platform::Platform;
    use crate::session::run_session;
    use crate::sweep::sweep_grid_with;
    use scan_metrics::write_jsonl;
    use scan_sched::scaling::ScalingPolicy;
    use scan_sim::{NullObserver, ObserverHandle};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn cfg() -> ScanConfig {
        let mut cfg = ScanConfig::new(VariableParams::fig4(ScalingPolicy::Predictive, 2.8), 5);
        cfg.fixed.sim_time_tu = 150.0;
        cfg
    }

    #[test]
    fn metrics_do_not_perturb_the_session() {
        let plain = run_session(&cfg(), 3);
        let (m, reg, summary) = run_session_instrumented(&cfg(), 3, DEFAULT_WINDOW_TU, false);
        assert_eq!(m, plain, "metrics must not perturb the session");
        assert!(summary.is_none());
        // The run actually landed in the registry.
        let dispatched: u64 = reg
            .counters()
            .iter()
            .map(|(meta, v)| u64::from(meta.family == "vm_hired_total") * v)
            .sum();
        assert!(dispatched > 0, "no VM hires counted");
        assert!(reg.histograms().iter().any(|(_, h)| h.count() > 0));
        assert!(reg.series_entries().iter().all(|(_, s)| !s.values().is_empty()));
    }

    /// The parallel fan-out must not change the merged registry: the
    /// sequential reference below is exactly what `RAYON_NUM_THREADS=1`
    /// executes (the compat pool degenerates to an in-order loop), so
    /// equal exported bytes here pin thread-count invariance.
    #[test]
    fn merged_export_is_identical_to_sequential_fold() {
        let cfg = cfg();
        let build = |_| MetricsObserver::new(&cfg, DEFAULT_WINDOW_TU);
        let cell = sweep_grid_with(&cfg, &[cfg.variable], 4, &build).pop().unwrap();
        let (par, par_obs) = (cell.metrics, cell.stats);
        let (seq_sessions, seq_regs): (Vec<_>, Vec<_>) = (0..4)
            .map(|rep| {
                let (m, reg, _) = run_session_instrumented(&cfg, rep, DEFAULT_WINDOW_TU, false);
                (m, reg)
            })
            .unzip();
        let seq_reg = seq_regs.into_iter().reduce(|mut a, b| {
            a.merge(&b);
            a
        });
        assert_eq!(par.sessions, seq_sessions);
        let mut a = Vec::new();
        write_jsonl(par_obs.registry(), &mut a).unwrap();
        let mut b = Vec::new();
        write_jsonl(&seq_reg.unwrap(), &mut b).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "merged registry export must not depend on thread count");
    }

    /// Runs `cfg` with a metrics observer, a [`DecisionStats`] and
    /// `extra` on the same stream.
    fn observed(cfg: &ScanConfig, extra: ObserverHandle) -> (Registry, DecisionStats) {
        let metrics = Rc::new(RefCell::new(MetricsObserver::new(cfg, DEFAULT_WINDOW_TU)));
        let stats = Rc::new(RefCell::new(DecisionStats::new()));
        let mut platform = Platform::new(cfg.clone(), 0);
        platform.add_observer(metrics.clone());
        platform.add_observer(stats.clone());
        platform.add_observer(extra);
        platform.run();
        let registry = metrics.borrow().registry().clone();
        let stats = stats.borrow().clone();
        (registry, stats)
    }

    /// Σ over windows of `tier_spend_rate` × covered span is what the
    /// tier settled: the spend series integrates exactly what the
    /// provider bills — busy-billed private cores, hire-billed public
    /// cores, and reshaped VMs at each of their sizes.
    #[test]
    fn spend_series_integrate_to_the_settled_tier_costs() {
        let plain = cfg();
        let mut reshaping = cfg();
        reshaping.allow_reshape = true;
        reshaping.forced_plan = Some(vec![(1, 2), (4, 1), (1, 2), (4, 1), (1, 8), (1, 1), (1, 1)]);
        let mut spilling = cfg();
        spilling.variable.scaling = ScalingPolicy::AlwaysScale;
        spilling.fixed.private_capacity_cores = 64;
        for cfg in [plain, reshaping, spilling] {
            let (registry, stats) = observed(&cfg, Rc::new(RefCell::new(NullObserver)));
            assert_eq!(stats.decided(ScalingChoice::Reshape) > 0, cfg.allow_reshape);
            let spills = cfg.fixed.private_capacity_cores == 64;
            assert_eq!(stats.tier(1).cost > 0.0, spills, "public spend only when spilling");
            let spend =
                registry.series_entries().iter().filter(|(m, _)| m.family == "tier_spend_rate");
            for (tier, (meta, series)) in spend.enumerate() {
                let integral: f64 = series
                    .values()
                    .iter()
                    .zip(series.accumulators())
                    .map(|(rate, &(_, covered))| rate * covered)
                    .sum();
                let settled = stats.tier(tier as u32).cost;
                assert!(
                    (integral - settled).abs() <= 1e-9 * settled.abs().max(1.0),
                    "{} in {:?}: integral {integral} vs settled {settled}",
                    meta.label_value,
                    cfg.variable
                );
            }
        }
    }

    /// Counts `ScalingDecision`s whose numbers contradict their choice: a
    /// private hire is never priced, and a priced decision hires public
    /// iff its delay cost exceeds its hire cost and waits otherwise.
    #[derive(Default)]
    struct PricingRule {
        broken: u64,
    }

    impl Observer for PricingRule {
        fn on_event(&mut self, _at: SimTime, event: &TraceEvent) {
            if let TraceEvent::ScalingDecision { delay_cost, hire_cost, choice, .. } = *event {
                let priced = !delay_cost.is_nan();
                let holds = match choice {
                    ScalingChoice::HirePrivate => !priced && hire_cost.is_nan(),
                    _ if !priced => true,
                    ScalingChoice::HirePublic => delay_cost > hire_cost,
                    ScalingChoice::Wait => delay_cost <= hire_cost,
                    ScalingChoice::Reshape => false,
                };
                self.broken += u64::from(!holds);
            }
        }
    }

    /// A saturated Predictive session narrates each decision once, with
    /// the numbers that decided it: the registry counts what the stream
    /// carries, private hires are unpriced, and every priced decision
    /// agrees with its Eq. 1 comparison. The private tier is cut to 256
    /// cores so that it fills and Eq. 1 both waits and hires public.
    #[test]
    fn decisions_are_narrated_with_their_numbers() {
        let mut cfg = cfg();
        cfg.variable.mean_interval = 1.0;
        cfg.fixed.private_capacity_cores = 256;
        let rule = Rc::new(RefCell::new(PricingRule::default()));
        let (registry, stats) = observed(&cfg, rule.clone());
        assert_eq!(rule.borrow().broken, 0, "a decision's numbers contradict its choice");
        let counted: u64 = registry
            .counters()
            .iter()
            .filter(|(m, _)| m.family == "scaling_choice_total")
            .map(|(_, n)| n)
            .sum();
        assert_eq!(stats.total_decisions(), counted);
        for choice in [ScalingChoice::Wait, ScalingChoice::HirePrivate, ScalingChoice::HirePublic] {
            assert!(stats.decided(choice) > 0, "no {} decision", choice.name());
        }
    }
}
